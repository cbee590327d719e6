//! Baseline composition algebras that the paper compares against
//! (§6.1–§6.3), implemented for validation:
//!
//! * [`threesome`] — Siek–Wadler 2010 labeled types and their
//!   composition `Q ∘ P`, the "easy to compute, hard to understand"
//!   predecessor of λS's `#`. We validate the paper's claimed
//!   correspondence: `s # t` maps onto `Q ∘ P` under the erasure of
//!   canonical coercions to labeled types.
//! * [`supercoercion`] — Garcia 2013's ten supercoercion constructors
//!   with the `N(·)` interpretation into λC coercions. Garcia derives
//!   a sixty-case composition table; we show the ten-line λS `#`
//!   subsumes it by composing through normalisation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod supercoercion;
pub mod threesome;

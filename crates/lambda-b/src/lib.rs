//! The blame calculus λB (Figure 1 of Siek–Thiemann–Wadler, PLDI 2015;
//! after Wadler–Findler 2009).
//!
//! λB is simply-typed λ-calculus extended with *casts*
//! `M : A ⇒p B` between compatible types and a `blame p` term. A cast
//! mediates between more- and less-precisely typed code; if it fails
//! at run time, blame is allocated to one side of the cast: to `p`
//! (*positive*, the term inside the cast is at fault) or to `p̄`
//! (*negative*, the context is at fault).
//!
//! The crate provides:
//!
//! * [`Term`] — the syntax of Figure 1 (plus `if`/`let`/`fix` as
//!   standard constructs): the grammar the three calculi share,
//!   [`bc_syntax::term::Term`], with λB's [`Cast`] in the cast position;
//! * [`typing`] — the syntax-directed type system `Γ ⊢B M : A`;
//! * [`eval`] — the small-step reduction relation `M ⟶B N`, with
//!   space instrumentation;
//! * [`safety`] — blame safety `M safeB q` (Figure 2);
//! * [`embed`] — the embedding `⌈·⌉` of dynamically-typed λ-calculus.
//!
//! # Example
//!
//! A well-typed cast that fails, blaming the label of the projection:
//!
//! ```
//! use bc_lambda_b::{eval::{run, Outcome}, Term};
//! use bc_syntax::{Label, Type};
//!
//! let p = Label::new(0);
//! let q = Label::new(1);
//! // (1 : Int ⇒p ?) : ? ⇒q Bool
//! let m = Term::int(1).cast(Type::INT, p, Type::DYN).cast(Type::DYN, q, Type::BOOL);
//! let result = run(&m, 100).expect("well typed");
//! assert_eq!(result.outcome, Outcome::Blame(q));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bterm;
pub mod embed;
pub mod eval;
pub mod programs;
pub mod safety;
pub mod term;
pub mod typing;

pub use bterm::BTerm;
pub use term::{Cast, Term};
pub use typing::{type_of, TypeError};

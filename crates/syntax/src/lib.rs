//! Shared syntax for the blame/coercion calculi of Siek, Thiemann, and
//! Wadler, *Blame and Coercion: Together Again for the First Time*
//! (PLDI 2015).
//!
//! This crate provides everything that is common to the three calculi
//! λB (blame calculus), λC (coercion calculus), and λS (space-efficient
//! coercion calculus):
//!
//! * [`Type`] — types `A, B, C ::= ι | A → B | ?` with base types
//!   instantiated as `Int` and `Bool` ([`BaseType`]);
//! * [`Ground`] — ground types `G, H ::= ι | ? → ?`;
//! * compatibility `A ∼ B` ([`Type::compatible`]) and the grounding
//!   lemma ([`Type::ground_of`], Lemma 1 of the paper);
//! * [`Label`] — blame labels `p, q` with involutive complement `p̄`;
//! * [`Constant`] and [`Op`] — constants `k` and total operators `op`
//!   with their meaning function `[[op]]`;
//! * the four subtyping relations of Figure 2 ([`subtype`](mod@subtype));
//! * the term grammar the three calculi share, [`term::Term`], generic
//!   over the cast form (λB's [`term::Cast`], λC's and λS's
//!   coercions), with its capture-avoiding substitution and the cast
//!   map the translations between the calculi are ([`term`]);
//! * the small-step reduction the three calculi share — the congruence
//!   walk, β, the proxy rule and a fueled, resumable loop — over a
//!   [`reduce::Reduce`] trait that each calculus implements with its
//!   own cast rules ([`reduce`]);
//! * a hash-consing [`TypeArena`] interning types behind `Copy`
//!   [`TypeId`] handles, with O(1) equality and memoized
//!   compatibility/subtyping queries ([`intern`]);
//! * pointed types and the type meet `A & B` used by the Fundamental
//!   Property of Casts ([`pointed`]);
//! * the dynamically-typed λ-calculus that is embedded into λB by `⌈·⌉`
//!   ([`untyped`]).
//!
//! # Examples
//!
//! ```
//! use bc_syntax::{Type, Ground};
//!
//! let a = Type::fun(Type::INT, Type::DYN);
//! assert!(a.compatible(&Type::DYN));
//! // Every non-dynamic type is compatible with a unique ground type.
//! assert_eq!(a.ground_of(), Some(Ground::Fun));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod constant;
pub mod fresh;
pub mod fxhash;
pub mod intern;
pub mod label;
pub mod op;
pub mod pointed;
pub mod reduce;
pub mod slab;
pub mod subtype;
pub mod term;
pub mod types;
pub mod untyped;

pub use clock::ClockMap;
pub use constant::Constant;
pub use fresh::NameSupply;
pub use fxhash::{FxBuildHasher, FxHasher};
pub use intern::{FrozenTypes, TNode, TypeArena, TypeId};
pub use label::{Label, LabelSupply};
pub use op::Op;
pub use pointed::{meet, PointedType};
pub use slab::{AppendLog, AtomicIndex};
pub use subtype::{naive_subtype, neg_subtype, pos_subtype, subtype};
pub use types::{BaseType, Ground, Type};

/// Variable names.
///
/// Names are reference-counted strings so that terms can be cloned
/// cheaply during substitution-based evaluation. They are atomically
/// counted (`Arc`, not `Rc`) so that the *compiled* term IRs — which
/// carry only `Name`s and `Copy` ids — are `Send` and can travel to
/// pool workers without re-parsing.
pub type Name = std::sync::Arc<str>;

//! The coercion calculus λC (Figure 3 of Siek–Thiemann–Wadler,
//! PLDI 2015; coercions after Henglein 1994).
//!
//! λC replaces the casts of λB by *coercion application* `M⟨c⟩`, where
//! coercions are built from identities `id_A`, injections `G!`,
//! projections `G?p`, function coercions `c → d`, compositions
//! `c ; d`, and failures `⊥GpH`. The paper's novel insight for λC is
//! to equip Henglein's coercions with the obvious reduction rules,
//! yielding a calculus that is "close to correct by construction" and
//! runs in lockstep with λB.
//!
//! The crate provides:
//!
//! * [`Coercion`] — the coercion grammar with typing `c : A ⇒ B`,
//!   height `‖c‖`, and blame safety;
//! * [`Term`] — λC terms (Figure 3, plus `if`/`let`/`fix` as standard
//!   constructs): the shared grammar [`bc_syntax::term::Term`] with a
//!   [`Coercion`] in the cast position;
//! * [`typing`] — the type system, generic over the coercion type so
//!   that λS checks with it too;
//! * [`eval`], [`safety`] — the dynamic semantics and blame safety.
//!
//! # Example
//!
//! ```
//! use bc_lambda_c::{coercion::Coercion, eval::{run, Outcome}, Term};
//! use bc_syntax::{Ground, Label, BaseType};
//!
//! let p = Label::new(0);
//! // 1⟨Int!⟩⟨Bool?p⟩ ⟶ blame p
//! let g = Ground::Base(BaseType::Int);
//! let h = Ground::Base(BaseType::Bool);
//! let m = Term::int(1).coerce(Coercion::inj(g)).coerce(Coercion::proj(h, p));
//! assert_eq!(run(&m, 10).unwrap().outcome, Outcome::Blame(p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod carena;
pub mod coercion;
pub mod cterm;
pub mod eval;
pub mod safety;
pub mod term;
pub mod typing;

pub use carena::{CArena, CCoercionId, CNode};
pub use coercion::Coercion;
pub use cterm::CTerm;
pub use eval::LambdaC;
pub use term::Term;
pub use typing::type_of;

//! The compiled (id-annotated) form of λC terms.
//!
//! [`CTerm`] mirrors [`Term`](crate::Term) node for node: type
//! annotations become [`TypeId`]s and coercions become [`CCoercionId`]
//! handles into a [`CArena`](crate::CArena). Nothing on the warm compile path builds
//! an `Rc<Type>` or `Rc<Coercion>` tree.
//!
//! A `CTerm` is only meaningful alongside the `CArena`/`TypeArena`
//! pair its ids point into — see the [`carena`](crate::carena) module
//! docs for the foreign-id contract.

use std::sync::Arc;

use bc_syntax::{Constant, Label, Name, Op, TypeId};

use crate::carena::CCoercionId;

/// Compiled λC terms: [`Term`](crate::Term) with interned annotations
/// and coercions.
#[derive(Debug, Clone, PartialEq)]
pub enum CTerm {
    /// A constant `k`.
    Const(Constant),
    /// An operator application `op(M₁, …, Mₙ)`.
    Op(Op, Vec<CTerm>),
    /// A variable `x`.
    Var(Name),
    /// An abstraction `λx:A. N`.
    Lam(Name, TypeId, Arc<CTerm>),
    /// An application `L M`.
    App(Arc<CTerm>, Arc<CTerm>),
    /// A coercion application `M⟨c⟩`.
    Coerce(Arc<CTerm>, CCoercionId),
    /// Allocated blame `blame p`, carrying its interned type.
    Blame(Label, TypeId),
    /// A conditional `if L then M else N`.
    If(Arc<CTerm>, Arc<CTerm>, Arc<CTerm>),
    /// A let binding `let x = M in N`.
    Let(Name, Arc<CTerm>, Arc<CTerm>),
    /// A recursive function `fix f (x:A):B. N`.
    Fix(Name, Name, TypeId, TypeId, Arc<CTerm>),
}

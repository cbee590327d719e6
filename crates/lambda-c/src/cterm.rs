//! The compiled (id-annotated) form of λC terms.
//!
//! [`CTerm`] is the shared grammar [`bc_syntax::term::Term`] with type
//! annotations as [`TypeId`]s and coercions as [`CCoercionId`] handles
//! into a [`CArena`](crate::CArena). Nothing on the warm compile path
//! builds an `Rc<Type>` or `Rc<Coercion>` tree; the spine is `Rc`.
//!
//! A `CTerm` is only meaningful alongside the `CArena`/`TypeArena`
//! pair its ids point into — see the [`carena`](crate::carena) module
//! docs for the foreign-id contract.

use bc_syntax::TypeId;

use crate::carena::CCoercionId;

/// Compiled λC terms: [`Term`](crate::Term) with interned annotations
/// and coercions.
pub type CTerm = bc_syntax::term::Term<CCoercionId, TypeId>;

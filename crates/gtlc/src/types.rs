//! The front end's one type trait: how the parser builds a type
//! annotation and how the elaborator asks about one.
//!
//! [`TyBuild`] has two instances. [`TreeTy`] works on `Rc<Type>` trees
//! ([`Type::compatible`], [`Type::join`], `Display`) and is the
//! reference; [`ArenaTy`] works on [`TypeId`]s interned in a
//! [`TypeArena`], so against a warm arena parsing and elaborating
//! intern nothing. `tests/frontend_props.rs` compares the two.

use bc_syntax::{BaseType, TNode, Type, TypeArena, TypeId};

/// A type representation the front end builds and inspects.
pub(crate) trait TyBuild {
    /// The type representation.
    type Ty: Clone + PartialEq;
    /// The base type `Int` / `Bool`.
    fn base(&mut self, b: BaseType) -> Self::Ty;
    /// The dynamic type `?`.
    fn dynamic(&mut self) -> Self::Ty;
    /// The function type `dom -> cod`.
    fn fun(&mut self, dom: Self::Ty, cod: Self::Ty) -> Self::Ty;
    /// Consistency `a ∼ b`.
    fn compatible(&mut self, a: &Self::Ty, b: &Self::Ty) -> bool;
    /// The precision join of two types; `None` if they are
    /// inconsistent.
    fn join(&mut self, a: &Self::Ty, b: &Self::Ty) -> Option<Self::Ty>;
    /// What applying a value of type `t` meets.
    fn view(&self, t: &Self::Ty) -> View<Self::Ty>;
    /// Renders a type for a diagnostic.
    fn display(&self, t: &Self::Ty) -> String;
}

/// A type as application sees it.
pub(crate) enum View<T> {
    /// A function type `dom -> cod`.
    Fun(T, T),
    /// The dynamic type `?`.
    Dyn,
    /// A base type, which cannot be applied.
    Base,
}

/// Tree types.
pub(crate) struct TreeTy;

impl TyBuild for TreeTy {
    type Ty = Type;
    fn base(&mut self, b: BaseType) -> Type {
        b.ty()
    }
    fn dynamic(&mut self) -> Type {
        Type::DYN
    }
    fn fun(&mut self, dom: Type, cod: Type) -> Type {
        Type::fun(dom, cod)
    }
    fn compatible(&mut self, a: &Type, b: &Type) -> bool {
        a.compatible(b)
    }
    fn join(&mut self, a: &Type, b: &Type) -> Option<Type> {
        a.join(b)
    }
    fn view(&self, t: &Type) -> View<Type> {
        match t {
            Type::Fun(dom, cod) => View::Fun((**dom).clone(), (**cod).clone()),
            Type::Dyn => View::Dyn,
            Type::Base(_) => View::Base,
        }
    }
    fn display(&self, t: &Type) -> String {
        t.to_string()
    }
}

/// Interned types: built bottom-up as arena ids, so a warm arena hands
/// back existing ids and allocates nothing.
pub(crate) struct ArenaTy<'t>(pub(crate) &'t mut TypeArena);

impl TyBuild for ArenaTy<'_> {
    type Ty = TypeId;
    fn base(&mut self, b: BaseType) -> TypeId {
        self.0.base(b)
    }
    fn dynamic(&mut self) -> TypeId {
        self.0.dyn_ty()
    }
    fn fun(&mut self, dom: TypeId, cod: TypeId) -> TypeId {
        self.0.fun(dom, cod)
    }
    fn compatible(&mut self, a: &TypeId, b: &TypeId) -> bool {
        self.0.compatible(*a, *b)
    }
    fn join(&mut self, a: &TypeId, b: &TypeId) -> Option<TypeId> {
        self.0.join(*a, *b)
    }
    fn view(&self, t: &TypeId) -> View<TypeId> {
        match self.0.node(*t) {
            TNode::Fun(dom, cod) => View::Fun(dom, cod),
            TNode::Dyn => View::Dyn,
            TNode::Base(_) => View::Base,
        }
    }
    fn display(&self, t: &TypeId) -> String {
        self.0.display(*t)
    }
}

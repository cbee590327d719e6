//! The compiled (id-annotated) form of λB terms.
//!
//! [`BTerm`] mirrors [`Term`] node for node but carries
//! `Copy` [`TypeId`] handles into a [`TypeArena`] instead of `Rc<Type>`
//! trees: a cast is `Cast(M, A, p, B)` with interned endpoints, a
//! lambda annotation is a single id. The spine is `Arc`, so cloning a
//! term is a reference-count increment.
//!
//! # The foreign-id contract
//!
//! A `BTerm` is only meaningful *relative to the arena its ids were
//! interned in*: ids are plain integers, and resolving one against
//! another arena is a logic error the type checker cannot detect. The
//! session layer keeps every compiled term inside the session that
//! interned it, and the IR itself stays unchecked and cheap.
//!
//! [`compile`] and [`decompile`] convert between the tree and compiled
//! forms (`decompile ∘ compile = id`, pinned by property test).

use std::sync::Arc;

use bc_syntax::{Constant, Label, Name, Op, TypeArena, TypeId};

use crate::term::{Cast, Term};

/// Compiled λB terms: [`Term`] with every type annotation
/// replaced by an interned [`TypeId`].
///
/// See the [module docs](self) for the id-offset contract.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BTerm {
    /// A constant `k`.
    Const(Constant),
    /// An operator application `op(M₁, …, Mₙ)`.
    Op(Op, Vec<BTerm>),
    /// A variable `x`.
    Var(Name),
    /// An abstraction `λx:A. N` with an interned annotation.
    Lam(Name, TypeId, Arc<BTerm>),
    /// An application `L M`.
    App(Arc<BTerm>, Arc<BTerm>),
    /// A cast `M : A ⇒p B` with interned endpoints.
    Cast(Arc<BTerm>, TypeId, Label, TypeId),
    /// Allocated blame `blame p`, carrying its interned type.
    Blame(Label, TypeId),
    /// A conditional `if L then M else N`.
    If(Arc<BTerm>, Arc<BTerm>, Arc<BTerm>),
    /// A let binding `let x = M in N`.
    Let(Name, Arc<BTerm>, Arc<BTerm>),
    /// A recursive function `fix f (x:A):B. N` with interned domain
    /// and codomain.
    Fix(Name, Name, TypeId, TypeId, Arc<BTerm>),
}

impl BTerm {
    /// The number of syntax nodes in the term (ids not counted), equal
    /// to [`Term::size`] of the decompiled tree.
    pub fn size(&self) -> usize {
        match self {
            BTerm::Const(_) | BTerm::Var(_) | BTerm::Blame(_, _) => 1,
            BTerm::Op(_, args) => 1 + args.iter().map(BTerm::size).sum::<usize>(),
            BTerm::Lam(_, _, b) | BTerm::Fix(_, _, _, _, b) => 1 + b.size(),
            BTerm::Cast(m, _, _, _) => 1 + m.size(),
            BTerm::App(a, b) | BTerm::Let(_, a, b) => 1 + a.size() + b.size(),
            BTerm::If(a, b, c) => 1 + a.size() + b.size() + c.size(),
        }
    }

    /// The number of cast nodes, equal to [`Term::cast_count`] of the
    /// decompiled tree.
    pub fn cast_count(&self) -> usize {
        match self {
            BTerm::Const(_) | BTerm::Var(_) | BTerm::Blame(_, _) => 0,
            BTerm::Op(_, args) => args.iter().map(BTerm::cast_count).sum(),
            BTerm::Lam(_, _, b) | BTerm::Fix(_, _, _, _, b) => b.cast_count(),
            BTerm::Cast(m, _, _, _) => 1 + m.cast_count(),
            BTerm::App(a, b) | BTerm::Let(_, a, b) => a.cast_count() + b.cast_count(),
            BTerm::If(a, b, c) => a.cast_count() + b.cast_count() + c.cast_count(),
        }
    }
}

/// Lowers a tree term into the compiled form, interning every type
/// annotation into `types` (idempotent in a warm arena).
pub fn compile(term: &Term, types: &mut TypeArena) -> BTerm {
    match term {
        Term::Const(k) => BTerm::Const(*k),
        Term::Op(op, args) => BTerm::Op(*op, args.iter().map(|a| compile(a, types)).collect()),
        Term::Var(x) => BTerm::Var(x.clone()),
        Term::Lam(x, ty, b) => BTerm::Lam(x.clone(), types.intern(ty), compile(b, types).into()),
        Term::App(a, b) => BTerm::App(compile(a, types).into(), compile(b, types).into()),
        Term::Coerce(m, c) => BTerm::Cast(
            compile(m, types).into(),
            types.intern(&c.source),
            c.label,
            types.intern(&c.target),
        ),
        Term::Blame(p, ty) => BTerm::Blame(*p, types.intern(ty)),
        Term::If(c, t, e) => BTerm::If(
            compile(c, types).into(),
            compile(t, types).into(),
            compile(e, types).into(),
        ),
        Term::Let(x, m, n) => BTerm::Let(
            x.clone(),
            compile(m, types).into(),
            compile(n, types).into(),
        ),
        Term::Fix(f, x, dom, cod, b) => BTerm::Fix(
            f.clone(),
            x.clone(),
            types.intern(dom),
            types.intern(cod),
            compile(b, types).into(),
        ),
    }
}

/// Rebuilds the tree form by resolving every id through the arena.
///
/// Inverse of [`compile`]: `decompile(compile(t)) = t` for all `t`
/// (the ids must belong to `types` per the module contract).
pub fn decompile(term: &BTerm, types: &TypeArena) -> Term {
    match term {
        BTerm::Const(k) => Term::Const(*k),
        BTerm::Op(op, args) => Term::Op(*op, args.iter().map(|a| decompile(a, types)).collect()),
        BTerm::Var(x) => Term::Var(x.clone()),
        BTerm::Lam(x, ty, b) => {
            Term::Lam(x.clone(), types.resolve(*ty), decompile(b, types).into())
        }
        BTerm::App(a, b) => Term::App(decompile(a, types).into(), decompile(b, types).into()),
        BTerm::Cast(m, src, p, tgt) => Term::Coerce(
            decompile(m, types).into(),
            Cast::new(types.resolve(*src), *p, types.resolve(*tgt)),
        ),
        BTerm::Blame(p, ty) => Term::Blame(*p, types.resolve(*ty)),
        BTerm::If(c, t, e) => Term::If(
            decompile(c, types).into(),
            decompile(t, types).into(),
            decompile(e, types).into(),
        ),
        BTerm::Let(x, m, n) => Term::Let(
            x.clone(),
            decompile(m, types).into(),
            decompile(n, types).into(),
        ),
        BTerm::Fix(f, x, dom, cod, b) => Term::Fix(
            f.clone(),
            x.clone(),
            types.resolve(*dom),
            types.resolve(*cod),
            decompile(b, types).into(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::Type;

    fn samples() -> Vec<Term> {
        let p = Label::new(0);
        let ii = Type::fun(Type::INT, Type::INT);
        vec![
            Term::int(1)
                .cast(Type::INT, p, Type::DYN)
                .cast(Type::DYN, p.complement(), Type::BOOL),
            Term::lam("x", Type::INT, Term::var("x")).app(Term::int(2)),
            Term::fix(
                "f",
                "x",
                Type::INT,
                Type::INT,
                Term::ite(
                    Term::op2(bc_syntax::Op::Eq, Term::var("x"), Term::int(0)),
                    Term::int(1),
                    Term::var("f").app(Term::op2(bc_syntax::Op::Sub, Term::var("x"), Term::int(1))),
                ),
            ),
            Term::let_(
                "g",
                Term::lam("x", Type::DYN, Term::var("x")).cast(
                    Type::fun(Type::DYN, Type::DYN),
                    p,
                    ii,
                ),
                Term::var("g").app(Term::int(3)),
            ),
            Term::Blame(p, Type::BOOL),
        ]
    }

    #[test]
    fn compile_round_trips() {
        let mut types = TypeArena::new();
        for t in samples() {
            let compiled = compile(&t, &mut types);
            assert_eq!(decompile(&compiled, &types), t, "{t}");
            assert_eq!(compiled.size(), t.size());
            assert_eq!(compiled.cast_count(), t.cast_count());
        }
    }

    #[test]
    fn recompiling_interns_nothing_new() {
        let mut types = TypeArena::new();
        for t in samples() {
            compile(&t, &mut types);
        }
        let warm = types.len();
        for t in samples() {
            compile(&t, &mut types);
        }
        assert_eq!(types.len(), warm);
    }
}

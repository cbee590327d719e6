//! The compiled (id-annotated) form of λB terms.
//!
//! [`BTerm`] mirrors [`Term`] node for node but carries
//! `Copy` [`TypeId`] handles into a [`TypeArena`] instead of `Rc<Type>`
//! trees: a cast is `Cast(M, A, p, B)` with interned endpoints, a
//! lambda annotation is a single id. The spine is `Arc`, and every
//! payload (`Name = Arc<str>`, ids, labels, constants) is `Send`, so a
//! compiled program can travel to another thread — this is what lets
//! `SessionPool` ship warmup's compile work to workers instead of
//! source text.
//!
//! # The id-offset / foreign-id contract
//!
//! A `BTerm` is only meaningful *relative to the arena its ids were
//! interned in*. The ids inherit the two-tier offset contract of
//! [`TypeArena`]: ids **below the frozen-base length** are portable to
//! any arena built over the same [`FrozenTypes`](bc_syntax::FrozenTypes)
//! base (this is how compiled pool jobs work — warmup compiles before
//! the freeze, so every id in a shipped `BTerm` is a base id every
//! worker resolves identically); ids **at or above** the base length
//! are private to the arena that created them, and handing such a term
//! to a session with a different local tail is a logic error the type
//! checker cannot detect (ids are plain integers). Sessions enforce
//! this with watermarks ([`Session::adopt`]-style ancestry checks) —
//! the IR itself stays unchecked and cheap.
//!
//! [`compile`] and [`decompile`] convert between the tree and compiled
//! forms (`decompile ∘ compile = id`, pinned by property test), and
//! [`type_of_compiled`] checks the compiled form *in place* on
//! interned ids — no tree is ever built on the checking path except
//! the types a [`TypeError`] reports.
//!
//! [`Session::adopt`]: https://docs.rs/-/-/ (see `blame-coercion` session docs)

use std::sync::Arc;

use bc_syntax::{Constant, Label, Name, Op, TNode, Type, TypeArena, TypeId};

use crate::term::{Cast, Term};
use crate::typing::TypeError;

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
        Term::Cast(m, c) => BTerm::Cast(
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
        BTerm::Cast(m, src, p, tgt) => Term::Cast(
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

/// Checks a compiled term in place: `⊢B M : A` on ids, never building
/// a tree and never interning (annotations already *are* ids).
///
/// Agrees with [`type_of`](crate::type_of) on the decompiled tree:
/// same verdict, `types.resolve(id)` of the result is the tree type,
/// and errors carry the same [`TypeError`] (tree types in errors are
/// resolved from the arena).
///
/// # Errors
///
/// Returns a [`TypeError`] if the term is not well typed.
pub fn type_of_compiled(term: &BTerm, types: &mut TypeArena) -> Result<TypeId, TypeError> {
    type_of_compiled_in(&mut Vec::new(), term, types)
}

/// Checks a compiled term in an interned environment.
///
/// # Errors
///
/// See [`type_of_compiled`].
pub fn type_of_compiled_in(
    env: &mut Vec<(Name, TypeId)>,
    term: &BTerm,
    types: &mut TypeArena,
) -> Result<TypeId, TypeError> {
    match term {
        BTerm::Const(k) => Ok(types.base(k.base_type())),
        BTerm::Var(x) => env
            .iter()
            .rev()
            .find(|(y, _)| y == x)
            .map(|(_, t)| *t)
            .ok_or_else(|| TypeError::UnboundVariable(x.clone())),
        BTerm::Op(op, args) => {
            let (params, result) = op.signature();
            if params.len() != args.len() {
                return Err(TypeError::OpArity {
                    op: op.name(),
                    expected: params.len(),
                    found: args.len(),
                });
            }
            for (param, arg) in params.iter().zip(args) {
                let found = type_of_compiled_in(env, arg, types)?;
                if found != types.base(*param) {
                    return Err(TypeError::Mismatch {
                        expected: param.ty(),
                        found: types.resolve(found),
                        context: "operator argument",
                    });
                }
            }
            Ok(types.base(result))
        }
        BTerm::Lam(x, dom, body) => {
            env.push((x.clone(), *dom));
            let cod = type_of_compiled_in(env, body, types);
            env.pop();
            Ok(types.fun(*dom, cod?))
        }
        BTerm::App(l, m) => {
            let lt = type_of_compiled_in(env, l, types)?;
            let mt = type_of_compiled_in(env, m, types)?;
            match types.node(lt) {
                TNode::Fun(dom, cod) => {
                    if dom == mt {
                        Ok(cod)
                    } else {
                        Err(TypeError::Mismatch {
                            expected: types.resolve(dom),
                            found: types.resolve(mt),
                            context: "function argument",
                        })
                    }
                }
                _ => Err(TypeError::NotAFunction(types.resolve(lt))),
            }
        }
        BTerm::Cast(m, source, _, target) => {
            let mt = type_of_compiled_in(env, m, types)?;
            if mt != *source {
                return Err(TypeError::Mismatch {
                    expected: types.resolve(*source),
                    found: types.resolve(mt),
                    context: "cast source",
                });
            }
            if !types.compatible(*source, *target) {
                return Err(TypeError::Incompatible(
                    types.resolve(*source),
                    types.resolve(*target),
                ));
            }
            Ok(*target)
        }
        BTerm::Blame(_, ty) => Ok(*ty),
        BTerm::If(cond, then_, else_) => {
            let ct = type_of_compiled_in(env, cond, types)?;
            if ct != types.base(bc_syntax::BaseType::Bool) {
                return Err(TypeError::Mismatch {
                    expected: Type::BOOL,
                    found: types.resolve(ct),
                    context: "if condition",
                });
            }
            let tt = type_of_compiled_in(env, then_, types)?;
            let et = type_of_compiled_in(env, else_, types)?;
            if tt != et {
                return Err(TypeError::Mismatch {
                    expected: types.resolve(tt),
                    found: types.resolve(et),
                    context: "if branches",
                });
            }
            Ok(tt)
        }
        BTerm::Let(x, m, n) => {
            let mt = type_of_compiled_in(env, m, types)?;
            env.push((x.clone(), mt));
            let nt = type_of_compiled_in(env, n, types);
            env.pop();
            nt
        }
        BTerm::Fix(f, x, dom, cod, body) => {
            let fun_id = types.fun(*dom, *cod);
            env.push((f.clone(), fun_id));
            env.push((x.clone(), *dom));
            let bt = type_of_compiled_in(env, body, types);
            env.pop();
            env.pop();
            let bt = bt?;
            if bt != *cod {
                return Err(TypeError::Mismatch {
                    expected: types.resolve(*cod),
                    found: types.resolve(bt),
                    context: "fix body",
                });
            }
            Ok(fun_id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::type_of;
    use bc_syntax::Label;

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
    fn compiled_checker_agrees_with_the_tree_checker() {
        let mut types = TypeArena::new();
        for t in samples() {
            let compiled = compile(&t, &mut types);
            match (type_of(&t), type_of_compiled(&compiled, &mut types)) {
                (Ok(tree_ty), Ok(id)) => assert_eq!(types.resolve(id), tree_ty, "{t}"),
                (Err(e1), Err(e2)) => assert_eq!(e1, e2, "{t}"),
                (tree, compiled) => panic!("{t}: tree {tree:?} vs compiled {compiled:?}"),
            }
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

//! The compiled (id-annotated) form of λC terms.
//!
//! [`CTerm`] mirrors [`Term`] node for node: type
//! annotations become [`TypeId`]s and coercions become [`CCoercionId`]
//! handles into a [`CArena`]. Nothing on the warm compile path builds
//! an `Rc<Type>` or `Rc<Coercion>` tree.
//!
//! A `CTerm` is only meaningful alongside the `CArena`/`TypeArena`
//! pair its ids point into — see the [`carena`](crate::carena) module
//! docs for the foreign-id contract. [`compile`]/[`decompile`] convert
//! to and from the tree form (`decompile ∘ compile = id`, pinned by
//! property test), and [`type_of_compiled`]/[`has_type_compiled`] are
//! the PR-4 interned checkers retargeted to check the compiled form in
//! place: coercion endpoints come from the arena's intern-time
//! metadata, so `M⟨c⟩` costs two id reads instead of a coercion-tree
//! walk (only `⊥`-containing coercions, which the front end never
//! emits, fall back to the relational tree judgment).

use std::sync::Arc;

use bc_syntax::{Constant, Label, Name, Op, TNode, Type, TypeArena, TypeId};

use crate::carena::{CArena, CCoercionId};
use crate::term::Term;
use crate::typing::TypeError;

/// Compiled λC terms: [`Term`] with interned annotations
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

impl CTerm {
    /// The number of syntax nodes (coercions counted via
    /// [`CArena::size`]), equal to [`Term::size`] of the decompiled
    /// tree.
    pub fn size(&self, arena: &CArena) -> usize {
        match self {
            CTerm::Const(_) | CTerm::Var(_) | CTerm::Blame(_, _) => 1,
            CTerm::Op(_, args) => 1 + args.iter().map(|a| a.size(arena)).sum::<usize>(),
            CTerm::Lam(_, _, b) | CTerm::Fix(_, _, _, _, b) => 1 + b.size(arena),
            CTerm::Coerce(m, c) => 1 + m.size(arena) + arena.size(*c),
            CTerm::App(a, b) | CTerm::Let(_, a, b) => 1 + a.size(arena) + b.size(arena),
            CTerm::If(a, b, c) => 1 + a.size(arena) + b.size(arena) + c.size(arena),
        }
    }

    /// The total size of all coercions — the λC space metric — equal
    /// to [`Term::coercion_size`] of the decompiled tree.
    pub fn coercion_size(&self, arena: &CArena) -> usize {
        match self {
            CTerm::Const(_) | CTerm::Var(_) | CTerm::Blame(_, _) => 0,
            CTerm::Op(_, args) => args.iter().map(|a| a.coercion_size(arena)).sum(),
            CTerm::Lam(_, _, b) | CTerm::Fix(_, _, _, _, b) => b.coercion_size(arena),
            CTerm::Coerce(m, c) => m.coercion_size(arena) + arena.size(*c),
            CTerm::App(a, b) | CTerm::Let(_, a, b) => {
                a.coercion_size(arena) + b.coercion_size(arena)
            }
            CTerm::If(a, b, c) => {
                a.coercion_size(arena) + b.coercion_size(arena) + c.coercion_size(arena)
            }
        }
    }
}

/// Lowers a tree λC term into the compiled form, interning every
/// annotation and coercion (idempotent in warm arenas).
pub fn compile(term: &Term, arena: &mut CArena, types: &mut TypeArena) -> CTerm {
    match term {
        Term::Const(k) => CTerm::Const(*k),
        Term::Op(op, args) => {
            CTerm::Op(*op, args.iter().map(|a| compile(a, arena, types)).collect())
        }
        Term::Var(x) => CTerm::Var(x.clone()),
        Term::Lam(x, ty, b) => {
            CTerm::Lam(x.clone(), types.intern(ty), compile(b, arena, types).into())
        }
        Term::App(a, b) => CTerm::App(
            compile(a, arena, types).into(),
            compile(b, arena, types).into(),
        ),
        Term::Coerce(m, c) => {
            let m = compile(m, arena, types);
            let c = arena.intern(c, types);
            CTerm::Coerce(m.into(), c)
        }
        Term::Blame(p, ty) => CTerm::Blame(*p, types.intern(ty)),
        Term::If(c, t, e) => CTerm::If(
            compile(c, arena, types).into(),
            compile(t, arena, types).into(),
            compile(e, arena, types).into(),
        ),
        Term::Let(x, m, n) => CTerm::Let(
            x.clone(),
            compile(m, arena, types).into(),
            compile(n, arena, types).into(),
        ),
        Term::Fix(f, x, dom, cod, b) => CTerm::Fix(
            f.clone(),
            x.clone(),
            types.intern(dom),
            types.intern(cod),
            compile(b, arena, types).into(),
        ),
    }
}

/// Rebuilds the tree form; inverse of [`compile`].
pub fn decompile(term: &CTerm, arena: &CArena, types: &TypeArena) -> Term {
    match term {
        CTerm::Const(k) => Term::Const(*k),
        CTerm::Op(op, args) => Term::Op(
            *op,
            args.iter().map(|a| decompile(a, arena, types)).collect(),
        ),
        CTerm::Var(x) => Term::Var(x.clone()),
        CTerm::Lam(x, ty, b) => Term::Lam(
            x.clone(),
            types.resolve(*ty),
            decompile(b, arena, types).into(),
        ),
        CTerm::App(a, b) => Term::App(
            decompile(a, arena, types).into(),
            decompile(b, arena, types).into(),
        ),
        CTerm::Coerce(m, c) => {
            Term::Coerce(decompile(m, arena, types).into(), arena.resolve(*c, types))
        }
        CTerm::Blame(p, ty) => Term::Blame(*p, types.resolve(*ty)),
        CTerm::If(c, t, e) => Term::If(
            decompile(c, arena, types).into(),
            decompile(t, arena, types).into(),
            decompile(e, arena, types).into(),
        ),
        CTerm::Let(x, m, n) => Term::Let(
            x.clone(),
            decompile(m, arena, types).into(),
            decompile(n, arena, types).into(),
        ),
        CTerm::Fix(f, x, dom, cod, b) => Term::Fix(
            f.clone(),
            x.clone(),
            types.resolve(*dom),
            types.resolve(*cod),
            decompile(b, arena, types).into(),
        ),
    }
}

/// Computes the type of a closed compiled λC term in place:
/// `⊢C M : A` on ids. Agrees with [`type_of`](crate::type_of) on the
/// decompiled tree (same verdict, resolved type, and [`TypeError`]).
///
/// # Errors
///
/// Returns a [`TypeError`] if the term is not well typed.
pub fn type_of_compiled(
    term: &CTerm,
    arena: &CArena,
    types: &mut TypeArena,
) -> Result<TypeId, TypeError> {
    type_of_compiled_in(&mut Vec::new(), term, arena, types)
}

/// Computes the type of a compiled λC term in an interned environment.
///
/// # Errors
///
/// See [`type_of_compiled`].
pub fn type_of_compiled_in(
    env: &mut Vec<(Name, TypeId)>,
    term: &CTerm,
    arena: &CArena,
    types: &mut TypeArena,
) -> Result<TypeId, TypeError> {
    match term {
        CTerm::Const(k) => Ok(types.base(k.base_type())),
        CTerm::Var(x) => env
            .iter()
            .rev()
            .find(|(y, _)| y == x)
            .map(|(_, t)| *t)
            .ok_or_else(|| TypeError::UnboundVariable(x.clone())),
        CTerm::Op(op, args) => {
            let (params, result) = op.signature();
            if params.len() != args.len() {
                return Err(TypeError::OpArity {
                    op: op.name(),
                    expected: params.len(),
                    found: args.len(),
                });
            }
            for (param, arg) in params.iter().zip(args) {
                let param_id = types.base(*param);
                if !check_compiled_in(env, arg, param_id, arena, types) {
                    let found = type_of_compiled_in(env, arg, arena, types)?;
                    return Err(TypeError::Mismatch {
                        expected: param.ty(),
                        found: types.resolve(found),
                        context: "operator argument",
                    });
                }
            }
            Ok(types.base(result))
        }
        CTerm::Lam(x, dom, body) => {
            env.push((x.clone(), *dom));
            let cod = type_of_compiled_in(env, body, arena, types);
            env.pop();
            Ok(types.fun(*dom, cod?))
        }
        CTerm::App(l, m) => {
            let lt = type_of_compiled_in(env, l, arena, types)?;
            let mt = type_of_compiled_in(env, m, arena, types)?;
            match types.node(lt) {
                TNode::Fun(dom, cod) => {
                    if dom == mt || check_compiled_in(env, m, dom, arena, types) {
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
        CTerm::Coerce(m, c) => {
            let mt = type_of_compiled_in(env, m, arena, types)?;
            if arena.is_exact(*c) {
                let (src, tgt) = (arena.source(*c), arena.target(*c));
                if src == mt || check_compiled_in(env, m, src, arena, types) {
                    Ok(tgt)
                } else {
                    Err(TypeError::Mismatch {
                        expected: types.resolve(src),
                        found: types.resolve(mt),
                        context: "coercion source",
                    })
                }
            } else {
                // The coercion contains ⊥ (or a mismatched `;`): fall
                // back to the relational tree judgment against the
                // representative target — a cold path the front end
                // never produces.
                let tree = arena.resolve(*c, types);
                let tgt = arena.target(*c);
                if tree.check_interned(mt, tgt, types) {
                    Ok(tgt)
                } else {
                    Err(TypeError::BadCoercion {
                        subject: types.resolve(mt),
                        coercion: tree.to_string(),
                    })
                }
            }
        }
        CTerm::Blame(_, ty) => Ok(*ty),
        CTerm::If(cond, then_, else_) => {
            let bool_id = types.base(bc_syntax::BaseType::Bool);
            if !check_compiled_in(env, cond, bool_id, arena, types) {
                let ct = type_of_compiled_in(env, cond, arena, types)?;
                return Err(TypeError::Mismatch {
                    expected: Type::BOOL,
                    found: types.resolve(ct),
                    context: "if condition",
                });
            }
            let tt = type_of_compiled_in(env, then_, arena, types)?;
            let et = type_of_compiled_in(env, else_, arena, types)?;
            if tt == et || check_compiled_in(env, else_, tt, arena, types) {
                Ok(tt)
            } else if check_compiled_in(env, then_, et, arena, types) {
                Ok(et)
            } else {
                Err(TypeError::Mismatch {
                    expected: types.resolve(tt),
                    found: types.resolve(et),
                    context: "if branches",
                })
            }
        }
        CTerm::Let(x, m, n) => {
            let mt = type_of_compiled_in(env, m, arena, types)?;
            env.push((x.clone(), mt));
            let nt = type_of_compiled_in(env, n, arena, types);
            env.pop();
            nt
        }
        CTerm::Fix(f, x, dom, cod, body) => {
            let fun_id = types.fun(*dom, *cod);
            env.push((f.clone(), fun_id));
            env.push((x.clone(), *dom));
            let bt = type_of_compiled_in(env, body, arena, types);
            env.pop();
            env.pop();
            let bt = bt?;
            if bt != *cod {
                env.push((f.clone(), fun_id));
                env.push((x.clone(), *dom));
                let ok = check_compiled_in(env, body, *cod, arena, types);
                env.pop();
                env.pop();
                if !ok {
                    return Err(TypeError::Mismatch {
                        expected: types.resolve(*cod),
                        found: types.resolve(bt),
                        context: "fix body",
                    });
                }
            }
            Ok(fun_id)
        }
    }
}

/// The *checking* judgment `Γ ⊢C M : A` on the compiled form; the id
/// counterpart of [`has_type`](crate::typing::has_type).
pub fn has_type_compiled(term: &CTerm, ty: TypeId, arena: &CArena, types: &mut TypeArena) -> bool {
    check_compiled_in(&mut Vec::new(), term, ty, arena, types)
}

fn check_compiled_in(
    env: &mut Vec<(Name, TypeId)>,
    term: &CTerm,
    expected: TypeId,
    arena: &CArena,
    types: &mut TypeArena,
) -> bool {
    match term {
        // blame p : A for every A.
        CTerm::Blame(_, _) => true,
        CTerm::Coerce(m, c) => {
            if arena.is_exact(*c) {
                arena.target(*c) == expected
                    && check_compiled_in(env, m, arena.source(*c), arena, types)
            } else {
                // ⊥ leaves the target unconstrained: use the
                // relational tree judgment against the expected type.
                match type_of_compiled_in(env, m, arena, types) {
                    Ok(mt) => arena.resolve(*c, types).check_interned(mt, expected, types),
                    Err(_) => false,
                }
            }
        }
        CTerm::If(c, t, e) => {
            let bool_id = types.base(bc_syntax::BaseType::Bool);
            check_compiled_in(env, c, bool_id, arena, types)
                && check_compiled_in(env, t, expected, arena, types)
                && check_compiled_in(env, e, expected, arena, types)
        }
        CTerm::Lam(x, dom, body) => match types.node(expected) {
            TNode::Fun(d, c) => {
                if d != *dom {
                    return false;
                }
                env.push((x.clone(), d));
                let ok = check_compiled_in(env, body, c, arena, types);
                env.pop();
                ok
            }
            _ => false,
        },
        CTerm::Fix(f, x, dom, cod, body) => {
            let fun_id = types.fun(*dom, *cod);
            if fun_id != expected {
                return false;
            }
            env.push((f.clone(), fun_id));
            env.push((x.clone(), *dom));
            let ok = check_compiled_in(env, body, *cod, arena, types);
            env.pop();
            env.pop();
            ok
        }
        CTerm::Let(x, m, n) => match type_of_compiled_in(env, m, arena, types) {
            Ok(mt) => {
                env.push((x.clone(), mt));
                let ok = check_compiled_in(env, n, expected, arena, types);
                env.pop();
                ok
            }
            Err(_) => false,
        },
        CTerm::App(l, m) => {
            if let Ok(lt) = type_of_compiled_in(env, l, arena, types) {
                if let TNode::Fun(d, c) = types.node(lt) {
                    if c == expected && check_compiled_in(env, m, d, arena, types) {
                        return true;
                    }
                }
            }
            // The function may be a ⊥-coerced term whose synthesised
            // type is only a representative: check it against the
            // function type demanded by the argument and the context.
            match type_of_compiled_in(env, m, arena, types) {
                Ok(mt) => {
                    let fun_id = types.fun(mt, expected);
                    check_compiled_in(env, l, fun_id, arena, types)
                }
                Err(_) => false,
            }
        }
        // Synthesising forms: fall back to equality.
        CTerm::Op(op, args) => {
            let (params, result) = op.signature();
            types.base(result) == expected
                && params.len() == args.len()
                && params.iter().zip(args).all(|(param, arg)| {
                    let param_id = types.base(*param);
                    check_compiled_in(env, arg, param_id, arena, types)
                })
        }
        _ => type_of_compiled_in(env, term, arena, types).is_ok_and(|t| t == expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coercion::Coercion;
    use crate::type_of;
    use bc_syntax::{BaseType, Ground, Label};

    fn gi() -> Ground {
        Ground::Base(BaseType::Int)
    }

    fn samples() -> Vec<Term> {
        let p = Label::new(0);
        vec![
            Term::int(1)
                .coerce(Coercion::inj(gi()))
                .coerce(Coercion::proj(gi(), p)),
            Term::lam("x", Type::DYN, Term::var("x"))
                .coerce(Coercion::fun(Coercion::inj(gi()), Coercion::proj(gi(), p)))
                .app(Term::int(2)),
            Term::int(1).coerce(Coercion::fail(gi(), p, Ground::Base(BaseType::Bool))),
            Term::fix(
                "f",
                "x",
                Type::INT,
                Type::INT,
                Term::var("f").app(Term::var("x")),
            ),
            Term::let_(
                "y",
                Term::int(1).coerce(Coercion::inj(gi())),
                Term::var("y").coerce(Coercion::proj(gi(), p.complement())),
            ),
        ]
    }

    #[test]
    fn compile_round_trips() {
        let mut types = TypeArena::new();
        let mut arena = CArena::new();
        for t in samples() {
            let compiled = compile(&t, &mut arena, &mut types);
            assert_eq!(decompile(&compiled, &arena, &types), t, "{t}");
            assert_eq!(compiled.size(&arena), t.size(), "{t}");
            assert_eq!(compiled.coercion_size(&arena), t.coercion_size(), "{t}");
        }
    }

    #[test]
    fn compiled_checker_agrees_with_the_tree_checker() {
        let mut types = TypeArena::new();
        let mut arena = CArena::new();
        for t in samples() {
            let compiled = compile(&t, &mut arena, &mut types);
            match (type_of(&t), type_of_compiled(&compiled, &arena, &mut types)) {
                (Ok(tree_ty), Ok(id)) => {
                    assert_eq!(types.resolve(id), tree_ty, "{t}");
                    assert!(has_type_compiled(&compiled, id, &arena, &mut types), "{t}");
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2, "{t}"),
                (tree, compiled) => panic!("{t}: tree {tree:?} vs compiled {compiled:?}"),
            }
        }
    }

    #[test]
    fn recompiling_interns_nothing_new() {
        let mut types = TypeArena::new();
        let mut arena = CArena::new();
        for t in samples() {
            compile(&t, &mut arena, &mut types);
        }
        let (warm_c, warm_t) = (arena.len(), types.len());
        for t in samples() {
            compile(&t, &mut arena, &mut types);
        }
        assert_eq!((arena.len(), types.len()), (warm_c, warm_t));
    }
}

//! The type system `Γ ⊢S M : A` over the **compiled** λS IR: checking
//! [`STerm`] directly, so the machine-ready form is validated without
//! decompiling anything to trees.
//!
//! [`crate::typing`] is the paper-facing specification on tree terms.
//! This module is the same judgment transcribed onto arena handles:
//! type annotations are already [`TypeId`]s, coercions are
//! [`CoercionId`]s whose endpoints are synthesised node-by-node from
//! the [`CoercionArena`] (no [`crate::coercion::SpaceCoercion`] tree
//! is ever materialised), and every comparison the tree checker makes
//! structurally is an O(1) id equality. Agreement with the tree
//! checker — `type_of_interned(compile_term(M)) ≡ type_of(M)`, same
//! verdict, same resolved type, same [`TypeError`] — is validated by
//! property test.

use bc_syntax::{BaseType, Name, TNode, Type, TypeArena, TypeId};

use crate::arena::{CoercionArena, CoercionId, GNode, INode, SNode};
use crate::sterm::STerm;
use crate::typing::TypeError;

/// Synthesises the unique `s : A ⇒ B` of an interned failure-free
/// coercion (the id counterpart of
/// [`SpaceCoercion::synthesize`](crate::coercion::SpaceCoercion::synthesize)).
/// Returns `None` when the coercion contains `⊥` or is ill-typed.
pub fn coercion_synthesize(
    arena: &CoercionArena,
    types: &mut TypeArena,
    id: CoercionId,
) -> Option<(TypeId, TypeId)> {
    match arena.node(id) {
        SNode::IdDyn => {
            let d = types.dyn_ty();
            Some((d, d))
        }
        SNode::Proj(g, _, i) => {
            let (src, tgt) = inode_synthesize(arena, types, i)?;
            (src == types.ground(g)).then(|| (types.dyn_ty(), tgt))
        }
        SNode::Mid(i) => inode_synthesize(arena, types, i),
    }
}

fn inode_synthesize(
    arena: &CoercionArena,
    types: &mut TypeArena,
    i: INode,
) -> Option<(TypeId, TypeId)> {
    match i {
        INode::Inj(g, ground) => {
            let (src, tgt) = gnode_synthesize(arena, types, g)?;
            (tgt == types.ground(ground)).then(|| (src, types.dyn_ty()))
        }
        INode::Ground(g) => gnode_synthesize(arena, types, g),
        INode::Fail(_, _, _) => None,
    }
}

fn gnode_synthesize(
    arena: &CoercionArena,
    types: &mut TypeArena,
    g: GNode,
) -> Option<(TypeId, TypeId)> {
    match g {
        GNode::IdBase(b) => {
            let id = types.base(b);
            Some((id, id))
        }
        GNode::Fun(s, t) => {
            let (a_prime, a) = coercion_synthesize(arena, types, s)?;
            let (b, b_prime) = coercion_synthesize(arena, types, t)?;
            Some((types.fun(a, b), types.fun(a_prime, b_prime)))
        }
    }
}

/// Checks the typing judgment `s : A ⇒ B` on an interned coercion
/// (the id counterpart of
/// [`SpaceCoercion::check`](crate::coercion::SpaceCoercion::check)).
pub fn coercion_check(
    arena: &CoercionArena,
    types: &mut TypeArena,
    id: CoercionId,
    source: TypeId,
    target: TypeId,
) -> bool {
    match arena.node(id) {
        SNode::IdDyn => types.is_dyn(source) && types.is_dyn(target),
        SNode::Proj(g, _, i) => {
            let gid = types.ground(g);
            types.is_dyn(source) && inode_check(arena, types, i, gid, target)
        }
        SNode::Mid(i) => inode_check(arena, types, i, source, target),
    }
}

fn inode_check(
    arena: &CoercionArena,
    types: &mut TypeArena,
    i: INode,
    source: TypeId,
    target: TypeId,
) -> bool {
    match i {
        INode::Inj(g, ground) => {
            let gid = types.ground(ground);
            types.is_dyn(target) && gnode_check(arena, types, g, source, gid)
        }
        INode::Ground(g) => gnode_check(arena, types, g, source, target),
        INode::Fail(g, _, h) => {
            let gid = types.ground(g);
            g != h && !types.is_dyn(source) && types.compatible(source, gid)
        }
    }
}

fn gnode_check(
    arena: &CoercionArena,
    types: &mut TypeArena,
    g: GNode,
    source: TypeId,
    target: TypeId,
) -> bool {
    match g {
        GNode::IdBase(b) => {
            let bid = types.base(b);
            source == bid && target == bid
        }
        GNode::Fun(s, t) => match (types.node(source), types.node(target)) {
            (TNode::Fun(a, b), TNode::Fun(a2, b2)) => {
                coercion_check(arena, types, s, a2, a) && coercion_check(arena, types, t, b, b2)
            }
            _ => false,
        },
    }
}

/// A *representative* source type of an interned coercion: `⊥GpH`
/// contributes its named ground `G` where the true source is
/// unconstrained.
pub fn coercion_source_representative(
    arena: &CoercionArena,
    types: &mut TypeArena,
    id: CoercionId,
) -> TypeId {
    match arena.node(id) {
        SNode::IdDyn | SNode::Proj(_, _, _) => types.dyn_ty(),
        SNode::Mid(i) => inode_source_representative(arena, types, i),
    }
}

fn inode_source_representative(arena: &CoercionArena, types: &mut TypeArena, i: INode) -> TypeId {
    match i {
        INode::Inj(g, _) | INode::Ground(g) => gnode_representative(arena, types, g, true),
        INode::Fail(g, _, _) => types.ground(g),
    }
}

/// A *representative* target type (see
/// [`coercion_source_representative`]).
pub fn coercion_target_representative(
    arena: &CoercionArena,
    types: &mut TypeArena,
    id: CoercionId,
) -> TypeId {
    match arena.node(id) {
        SNode::IdDyn => types.dyn_ty(),
        SNode::Proj(_, _, i) | SNode::Mid(i) => inode_target_representative(arena, types, i),
    }
}

fn inode_target_representative(arena: &CoercionArena, types: &mut TypeArena, i: INode) -> TypeId {
    match i {
        INode::Inj(_, _) => types.dyn_ty(),
        INode::Ground(g) => gnode_representative(arena, types, g, false),
        INode::Fail(_, _, h) => types.ground(h),
    }
}

/// The representative of a ground coercion: its source when `source`
/// is true, its target otherwise (the two recursions of the tree
/// implementation, merged — a function coercion swaps polarity on the
/// domain).
fn gnode_representative(
    arena: &CoercionArena,
    types: &mut TypeArena,
    g: GNode,
    source: bool,
) -> TypeId {
    match g {
        GNode::IdBase(b) => types.base(b),
        GNode::Fun(s, t) => {
            let (dom, cod) = if source {
                (
                    coercion_target_representative(arena, types, s),
                    coercion_source_representative(arena, types, t),
                )
            } else {
                (
                    coercion_source_representative(arena, types, s),
                    coercion_target_representative(arena, types, t),
                )
            };
            types.fun(dom, cod)
        }
    }
}

/// Computes the type of a closed compiled λS term: the machine-ready
/// IR is validated in place, with no tree decompilation.
///
/// # Errors
///
/// Returns the same [`TypeError`] the tree checker
/// [`crate::typing::type_of`] reports on the decompiled term (tree
/// types in errors are resolved from the arena).
///
/// # Panics
///
/// Panics if the term's ids belong to different arenas (out-of-bounds
/// ids fail loudly; see the foreign-id contract in [`crate::sterm`]).
pub fn type_of_interned(
    term: &STerm,
    arena: &CoercionArena,
    types: &mut TypeArena,
) -> Result<TypeId, TypeError> {
    type_of_interned_in(&mut Vec::new(), term, arena, types)
}

/// Computes the type of a compiled λS term in an interned environment.
///
/// # Errors
///
/// See [`type_of_interned`].
pub fn type_of_interned_in(
    env: &mut Vec<(Name, TypeId)>,
    term: &STerm,
    arena: &CoercionArena,
    types: &mut TypeArena,
) -> Result<TypeId, TypeError> {
    match term {
        STerm::Const(k) => Ok(types.base(k.base_type())),
        STerm::Var(x) => env
            .iter()
            .rev()
            .find(|(y, _)| y == x)
            .map(|(_, t)| *t)
            .ok_or_else(|| TypeError::UnboundVariable(x.clone())),
        STerm::Op(op, args) => {
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
                if !check_interned_in(env, arg, param_id, arena, types) {
                    let found = type_of_interned_in(env, arg, arena, types)?;
                    return Err(TypeError::Mismatch {
                        expected: param.ty(),
                        found: types.resolve(found),
                        context: "operator argument",
                    });
                }
            }
            Ok(types.base(result))
        }
        STerm::Lam(x, dom, body) => {
            env.push((x.clone(), *dom));
            let cod = type_of_interned_in(env, body, arena, types);
            env.pop();
            Ok(types.fun(*dom, cod?))
        }
        STerm::App(l, m) => {
            let lt = type_of_interned_in(env, l, arena, types)?;
            let mt = type_of_interned_in(env, m, arena, types)?;
            match types.node(lt) {
                TNode::Fun(dom, cod) => {
                    if dom == mt || check_interned_in(env, m, dom, arena, types) {
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
        STerm::Coerce(m, s) => {
            let mt = type_of_interned_in(env, m, arena, types)?;
            match coercion_synthesize(arena, types, *s) {
                Some((src, tgt)) => {
                    if src == mt || check_interned_in(env, m, src, arena, types) {
                        Ok(tgt)
                    } else {
                        Err(TypeError::Mismatch {
                            expected: types.resolve(src),
                            found: types.resolve(mt),
                            context: "coercion source",
                        })
                    }
                }
                None => {
                    let tgt = coercion_target_representative(arena, types, *s);
                    if coercion_check(arena, types, *s, mt, tgt) {
                        Ok(tgt)
                    } else {
                        Err(TypeError::BadCoercion {
                            subject: types.resolve(mt),
                            coercion: arena.display(*s),
                        })
                    }
                }
            }
        }
        STerm::Blame(_, ty) => Ok(*ty),
        STerm::If(cond, then_, else_) => {
            let bool_id = types.base(BaseType::Bool);
            if !check_interned_in(env, cond, bool_id, arena, types) {
                let ct = type_of_interned_in(env, cond, arena, types)?;
                return Err(TypeError::Mismatch {
                    expected: Type::BOOL,
                    found: types.resolve(ct),
                    context: "if condition",
                });
            }
            let tt = type_of_interned_in(env, then_, arena, types)?;
            let et = type_of_interned_in(env, else_, arena, types)?;
            if tt == et || check_interned_in(env, else_, tt, arena, types) {
                Ok(tt)
            } else if check_interned_in(env, then_, et, arena, types) {
                Ok(et)
            } else {
                Err(TypeError::Mismatch {
                    expected: types.resolve(tt),
                    found: types.resolve(et),
                    context: "if branches",
                })
            }
        }
        STerm::Let(x, m, n) => {
            let mt = type_of_interned_in(env, m, arena, types)?;
            env.push((x.clone(), mt));
            let nt = type_of_interned_in(env, n, arena, types);
            env.pop();
            nt
        }
        STerm::Fix(f, x, dom, cod, body) => {
            let fun_id = types.fun(*dom, *cod);
            env.push((f.clone(), fun_id));
            env.push((x.clone(), *dom));
            let bt = type_of_interned_in(env, body, arena, types);
            env.pop();
            env.pop();
            let bt = bt?;
            if bt != *cod {
                env.push((f.clone(), fun_id));
                env.push((x.clone(), *dom));
                let ok = check_interned_in(env, body, *cod, arena, types);
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

/// The *checking* judgment `Γ ⊢S M : A` on the compiled IR; see the
/// tree counterpart [`crate::typing::has_type`] for why this differs
/// from [`type_of_interned`] (`blame` and `⊥` are not
/// syntax-directed). Preservation holds for this judgment.
pub fn has_type_interned(
    term: &STerm,
    ty: TypeId,
    arena: &CoercionArena,
    types: &mut TypeArena,
) -> bool {
    check_interned_in(&mut Vec::new(), term, ty, arena, types)
}

fn check_interned_in(
    env: &mut Vec<(Name, TypeId)>,
    term: &STerm,
    expected: TypeId,
    arena: &CoercionArena,
    types: &mut TypeArena,
) -> bool {
    match term {
        STerm::Blame(_, _) => true,
        STerm::Coerce(m, s) => {
            if let Some((src, tgt)) = coercion_synthesize(arena, types, *s) {
                tgt == expected && check_interned_in(env, m, src, arena, types)
            } else {
                match type_of_interned_in(env, m, arena, types) {
                    Ok(mt) => coercion_check(arena, types, *s, mt, expected),
                    Err(_) => false,
                }
            }
        }
        STerm::If(c, t, e) => {
            let bool_id = types.base(BaseType::Bool);
            check_interned_in(env, c, bool_id, arena, types)
                && check_interned_in(env, t, expected, arena, types)
                && check_interned_in(env, e, expected, arena, types)
        }
        STerm::Lam(x, dom, body) => match types.node(expected) {
            TNode::Fun(d, c) => {
                if d != *dom {
                    return false;
                }
                env.push((x.clone(), *dom));
                let ok = check_interned_in(env, body, c, arena, types);
                env.pop();
                ok
            }
            _ => false,
        },
        STerm::Fix(f, x, dom, cod, body) => {
            let fun_id = types.fun(*dom, *cod);
            if fun_id != expected {
                return false;
            }
            env.push((f.clone(), fun_id));
            env.push((x.clone(), *dom));
            let ok = check_interned_in(env, body, *cod, arena, types);
            env.pop();
            env.pop();
            ok
        }
        STerm::Let(x, m, n) => match type_of_interned_in(env, m, arena, types) {
            Ok(mt) => {
                env.push((x.clone(), mt));
                let ok = check_interned_in(env, n, expected, arena, types);
                env.pop();
                ok
            }
            Err(_) => false,
        },
        STerm::App(l, m) => {
            if let Ok(lt) = type_of_interned_in(env, l, arena, types) {
                if let TNode::Fun(d, c) = types.node(lt) {
                    if c == expected && check_interned_in(env, m, d, arena, types) {
                        return true;
                    }
                }
            }
            // The function may be a ⊥-coerced term whose synthesised
            // type is only a representative: check it against the
            // function type demanded by the argument and the context.
            match type_of_interned_in(env, m, arena, types) {
                Ok(mt) => {
                    let fun_id = types.fun(mt, expected);
                    check_interned_in(env, l, fun_id, arena, types)
                }
                Err(_) => false,
            }
        }
        STerm::Op(op, args) => {
            let (params, result) = op.signature();
            types.base(result) == expected
                && params.len() == args.len()
                && params.iter().zip(args).all(|(param, arg)| {
                    let param_id = types.base(*param);
                    check_interned_in(env, arg, param_id, arena, types)
                })
        }
        _ => type_of_interned_in(env, term, arena, types).is_ok_and(|t| t == expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
    use crate::sterm::CompileCtx;
    use crate::term::Term;
    use bc_syntax::{Ground, Label};

    fn gi() -> Ground {
        Ground::Base(BaseType::Int)
    }

    #[test]
    fn compiled_coercion_application_types() {
        let m = Term::int(1)
            .coerce(SpaceCoercion::inj(
                GroundCoercion::IdBase(BaseType::Int),
                gi(),
            ))
            .coerce(SpaceCoercion::proj(
                gi(),
                Label::new(0),
                Intermediate::Ground(GroundCoercion::IdBase(BaseType::Int)),
            ));
        let mut ctx = CompileCtx::new();
        let compiled = ctx.compile(&m).decode();
        let got = type_of_interned(&compiled, &ctx.arena, &mut ctx.types).expect("well typed");
        assert_eq!(ctx.types.resolve(got), Type::INT);
        assert_eq!(crate::typing::type_of(&m), Ok(Type::INT));
    }

    #[test]
    fn compiled_failure_coercion_types() {
        let m = Term::int(1).coerce(SpaceCoercion::fail(
            gi(),
            Label::new(0),
            Ground::Base(BaseType::Bool),
        ));
        let mut ctx = CompileCtx::new();
        let compiled = ctx.compile(&m).decode();
        let got = type_of_interned(&compiled, &ctx.arena, &mut ctx.types).expect("well typed");
        assert_eq!(ctx.types.resolve(got), Type::BOOL);
    }

    #[test]
    fn compiled_bad_coercion_is_rejected_like_the_tree() {
        let m = Term::bool(true).coerce(SpaceCoercion::inj(
            GroundCoercion::IdBase(BaseType::Int),
            gi(),
        ));
        let mut ctx = CompileCtx::new();
        let compiled = ctx.compile(&m).decode();
        let got = type_of_interned(&compiled, &ctx.arena, &mut ctx.types);
        let tree = crate::typing::type_of(&m);
        assert_eq!(got.unwrap_err(), tree.unwrap_err(), "same TypeError");
    }

    #[test]
    fn interned_coercion_typing_matches_tree_typing() {
        let samples = [
            SpaceCoercion::IdDyn,
            SpaceCoercion::id_base(BaseType::Int),
            SpaceCoercion::inj(GroundCoercion::IdBase(BaseType::Int), gi()),
            SpaceCoercion::proj(
                gi(),
                Label::new(0),
                Intermediate::Inj(GroundCoercion::IdBase(BaseType::Int), gi()),
            ),
            SpaceCoercion::fun(
                SpaceCoercion::proj(
                    gi(),
                    Label::new(1),
                    Intermediate::Ground(GroundCoercion::IdBase(BaseType::Int)),
                ),
                SpaceCoercion::inj(GroundCoercion::IdBase(BaseType::Int), gi()),
            ),
            SpaceCoercion::fail(gi(), Label::new(2), Ground::Fun),
        ];
        let mut arena = CoercionArena::new();
        let mut types = TypeArena::new();
        let endpoints = [Type::INT, Type::BOOL, Type::DYN, Type::dyn_fun()];
        for s in &samples {
            let id = arena.intern(s);
            let syn = coercion_synthesize(&arena, &mut types, id)
                .map(|(a, b)| (types.resolve(a), types.resolve(b)));
            assert_eq!(syn, s.synthesize(), "synthesize of {s}");
            for a in &endpoints {
                for b in &endpoints {
                    let (ia, ib) = (types.intern(a), types.intern(b));
                    assert_eq!(
                        coercion_check(&arena, &mut types, id, ia, ib),
                        s.check(a, b),
                        "{s} : {a} ⇒ {b}"
                    );
                }
            }
            let tgt = coercion_target_representative(&arena, &mut types, id);
            assert_eq!(
                types.resolve(tgt),
                s.target_representative(),
                "target rep of {s}"
            );
            let src = coercion_source_representative(&arena, &mut types, id);
            assert_eq!(
                types.resolve(src),
                s.source_representative(),
                "source rep of {s}"
            );
        }
    }
}

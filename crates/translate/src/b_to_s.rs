//! The composite translation `|·|BS = |·|CS ∘ |·|BC` from λB straight
//! to λS, used by the applications of §5 (Lemmas 20 and 21) and by
//! the session's lowering.
//!
//! Canonical λS coercions are unique normal forms, so the composite
//! needs no λC coercion in between: on interned types,
//!
//! ```text
//! |ι ⇒p ι|BS       = idι
//! |? ⇒p ?|BS       = id?
//! |A→B ⇒p A'→B'|BS = |A' ⇒p̄ A|BS → |B ⇒p B'|BS
//! |A ⇒p ?|BS       = g ; G!      where g = |A ⇒p G|BS   (A ≠ ?)
//! |? ⇒p A|BS       = G?p ; g     where g = |G ⇒p A|BS   (A ≠ ?)
//! ```
//!
//! and [`cast_to_space_in`] builds each case as one arena node.

use bc_core::arena::{CoercionArena, CoercionId, GNode, INode, SNode};
use bc_core::coercion::SpaceCoercion;
use bc_core::sterm::{CodeBuilder, Node, SCode};
use bc_core::term::Term as STerm;
use bc_lambda_b::term::Term as BTreeTerm;
use bc_lambda_b::BTerm;
use bc_syntax::{Label, TNode, Type, TypeArena, TypeId};

use crate::b_to_c::{cast_to_coercion, term_b_to_c};
use crate::c_to_s::{coercion_to_space, term_c_to_s};

/// Translates a cast directly to its canonical space-efficient
/// coercion: `|A ⇒p B|BS`.
///
/// # Panics
///
/// Panics if `A ≁ B`.
pub fn cast_to_space(source: &Type, p: Label, target: &Type) -> SpaceCoercion {
    coercion_to_space(&cast_to_coercion(source, p, target))
}

/// Translates a λB term to a λS term.
pub fn term_b_to_s(term: &BTreeTerm) -> STerm {
    term_c_to_s(&term_b_to_c(term))
}

/// [`cast_to_space`] on interned endpoints: `|A ⇒p B|BS` built
/// directly in `arena` as its canonical form, with no λC coercion,
/// normalisation or composition on the way. Translating the same cast
/// twice returns the same id and interns nothing.
///
/// Agreement with the two-stage path is pinned by property test: in
/// one arena, the id equals the `CNormalizer` normal form of
/// `cast_to_coercion_in(A, p, B)`.
///
/// # Panics
///
/// Panics if `A ≁ B` (no cast exists between incompatible types).
pub fn cast_to_space_in(
    types: &mut TypeArena,
    arena: &mut CoercionArena,
    source: TypeId,
    p: Label,
    target: TypeId,
) -> CoercionId {
    assert!(
        types.compatible(source, target),
        "no cast between incompatible types {} and {}",
        types.display(source),
        types.display(target)
    );
    let node = match (types.node(source), types.node(target)) {
        (TNode::Dyn, TNode::Dyn) => SNode::IdDyn,
        (_, TNode::Dyn) => {
            let g = types
                .ground_of(source)
                .expect("source is not ? in this branch");
            let g_id = types.ground(g);
            SNode::Mid(INode::Inj(ground_cast(types, arena, source, p, g_id), g))
        }
        (TNode::Dyn, _) => {
            let g = types
                .ground_of(target)
                .expect("target is not ? in this branch");
            let g_id = types.ground(g);
            SNode::Proj(
                g,
                p,
                INode::Ground(ground_cast(types, arena, g_id, p, target)),
            )
        }
        _ => SNode::Mid(INode::Ground(ground_cast(types, arena, source, p, target))),
    };
    arena.intern_node(node)
}

/// The ground coercion `|A ⇒p B|BS` between two compatible types that
/// are both not `?`, left uninterned so the caller can wrap it.
fn ground_cast(
    types: &mut TypeArena,
    arena: &mut CoercionArena,
    source: TypeId,
    p: Label,
    target: TypeId,
) -> GNode {
    match (types.node(source), types.node(target)) {
        (TNode::Base(b), TNode::Base(_)) => GNode::IdBase(b),
        (TNode::Fun(a, b), TNode::Fun(a2, b2)) => {
            let dom = cast_to_space_in(types, arena, a2, p.complement(), a);
            let cod = cast_to_space_in(types, arena, b, p, b2);
            GNode::Fun(dom, cod)
        }
        _ => unreachable!("incompatible cast slipped past the guard"),
    }
}

/// Lowers a compiled λB term straight into the executable λS code
/// block ([`SCode`]): every cast becomes [`cast_to_space_in`]'s
/// canonical coercion and every variable a de Bruijn index. Type
/// annotations are already ids and pass through untouched, so against
/// warm arenas the pass interns nothing.
///
/// With shared arenas the block equals the two-stage
/// `term_c_to_s_from_compiled(term_b_to_c_compiled(term))` node for
/// node (pinned by property test).
pub fn term_b_to_s_compiled(
    term: &BTerm,
    types: &mut TypeArena,
    arena: &mut CoercionArena,
) -> SCode {
    struct Lower<'a> {
        b: CodeBuilder,
        types: &'a mut TypeArena,
        arena: &'a mut CoercionArena,
    }
    impl Lower<'_> {
        fn go(&mut self, term: &BTerm) -> u32 {
            match term {
                BTerm::Const(k) => self.b.push(Node::Const(*k)),
                BTerm::Op(op, args) => {
                    let mut pair = [0; 2];
                    if args.len() <= pair.len() {
                        for (slot, a) in pair.iter_mut().zip(args.iter()) {
                            *slot = self.go(a);
                        }
                        self.b.op(*op, &pair[..args.len()])
                    } else {
                        let ids: Vec<u32> = args.iter().map(|a| self.go(a)).collect();
                        self.b.op(*op, &ids)
                    }
                }
                BTerm::Var(x) => self.b.var(x),
                BTerm::Lam(x, ty, body) => {
                    let name = self.b.bind(x);
                    let body = self.go(body);
                    self.b.unbind(1);
                    self.b.push(Node::Lam {
                        name,
                        ty: *ty,
                        body,
                    })
                }
                BTerm::App(l, m) => {
                    let l = self.go(l);
                    let m = self.go(m);
                    self.b.push(Node::App(l, m))
                }
                BTerm::Cast(m, source, p, target) => {
                    let id = cast_to_space_in(self.types, self.arena, *source, *p, *target);
                    let m = self.go(m);
                    self.b.push(Node::Coerce(m, id))
                }
                BTerm::Blame(p, ty) => self.b.push(Node::Blame(*p, *ty)),
                BTerm::If(c, t, e) => {
                    let c = self.go(c);
                    let t = self.go(t);
                    let e = self.go(e);
                    self.b.push(Node::If(c, t, e))
                }
                BTerm::Let(x, m, n) => {
                    let bound = self.go(m);
                    let name = self.b.bind(x);
                    let body = self.go(n);
                    self.b.unbind(1);
                    self.b.push(Node::Let { name, bound, body })
                }
                BTerm::Fix(f, x, dom, cod, body) => {
                    let fun = self.b.bind(f);
                    let param = self.b.bind(x);
                    let body = self.go(body);
                    self.b.unbind(2);
                    self.b.push(Node::Fix {
                        fun,
                        param,
                        dom: *dom,
                        cod: *cod,
                        body,
                    })
                }
            }
        }
    }
    let mut lower = Lower {
        b: CodeBuilder::new(),
        types,
        arena,
    };
    let root = lower.go(term);
    lower.b.finish(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_cast_normalises_to_identity() {
        // |Int ⇒p ? ⇒q Int|BS = idInt when composed.
        use bc_core::compose::compose;
        let up = cast_to_space(&Type::INT, Label::new(0), &Type::DYN);
        let down = cast_to_space(&Type::DYN, Label::new(1), &Type::INT);
        assert_eq!(
            compose(&up, &down),
            SpaceCoercion::id_base(bc_syntax::BaseType::Int)
        );
    }

    #[test]
    fn translation_preserves_typing() {
        let ii = Type::fun(Type::INT, Type::INT);
        let s = cast_to_space(&ii, Label::new(0), &Type::DYN);
        assert!(s.check(&ii, &Type::DYN));
    }

    #[test]
    fn compiled_lowering_decodes_to_tree_translation() {
        use bc_core::sterm::decompile_term;
        use bc_lambda_b::programs;
        let mut types = TypeArena::new();
        let mut arena = CoercionArena::new();
        for (name, b) in [
            ("boundary_loop", programs::boundary_loop(4)),
            ("even_odd_mixed", programs::even_odd_mixed(3)),
            ("wrapped_identity", programs::wrapped_identity(3)),
        ] {
            let bterm = bc_lambda_b::bterm::compile(&b, &mut types);
            let code = term_b_to_s_compiled(&bterm, &mut types, &mut arena);
            assert_eq!(
                decompile_term(&code.decode(), &arena, &types),
                term_b_to_s(&b),
                "{name}"
            );
        }
        // A second pass over the same programs interns nothing.
        let (t_len, c_len) = (types.len(), arena.len());
        for b in [
            programs::boundary_loop(4),
            programs::even_odd_mixed(3),
            programs::wrapped_identity(3),
        ] {
            let bterm = bc_lambda_b::bterm::compile(&b, &mut types);
            let _ = term_b_to_s_compiled(&bterm, &mut types, &mut arena);
        }
        assert_eq!((types.len(), arena.len()), (t_len, c_len));
    }
}

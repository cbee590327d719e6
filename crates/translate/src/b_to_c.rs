//! The translation `|·|BC` from λB to λC (Figure 4).
//!
//! ```text
//! |ι ⇒p ι|       = idι
//! |A→B ⇒p A'→B'| = |A' ⇒p̄ A| → |B ⇒p B'|
//! |? ⇒p ?|       = id?
//! |G ⇒p ?|       = G!
//! |A ⇒p ?|       = |A ⇒p G| ; G!      (A ≠ ?, A ≠ G, A ∼ G)
//! |? ⇒p G|       = G?p
//! |? ⇒p A|       = G?p ; |G ⇒p A|     (A ≠ ?, A ≠ G, A ∼ G)
//! ```
//!
//! The domain of a function cast is translated with the *complemented*
//! label, matching λB's contravariant function-cast rule; this is what
//! makes the bisimulation of Proposition 11 lockstep.

use bc_lambda_b as lb;
use bc_lambda_b::BTerm;
use bc_lambda_c as lc;
use bc_lambda_c::coercion::Coercion;
use bc_lambda_c::{CArena, CCoercionId, CTerm};
use bc_syntax::{Label, TNode, Type, TypeArena, TypeId};

/// Translates a cast `A ⇒p B` to a coercion: `|A ⇒p B|BC`.
///
/// # Panics
///
/// Panics if `A ≁ B` (no cast exists between incompatible types).
pub fn cast_to_coercion(source: &Type, p: Label, target: &Type) -> Coercion {
    assert!(
        source.compatible(target),
        "no cast between incompatible types {source} and {target}"
    );
    match (source, target) {
        (Type::Base(a), Type::Base(_)) => Coercion::id(Type::Base(*a)),
        (Type::Fun(a, b), Type::Fun(a2, b2)) => Coercion::fun(
            cast_to_coercion(a2, p.complement(), a),
            cast_to_coercion(b, p, b2),
        ),
        (Type::Dyn, Type::Dyn) => Coercion::id(Type::Dyn),
        (a, Type::Dyn) => {
            let g = a.ground_of().expect("source is not ? in this branch");
            if *a == g.ty() {
                Coercion::inj(g)
            } else {
                cast_to_coercion(a, p, &g.ty()).seq(Coercion::inj(g))
            }
        }
        (Type::Dyn, b) => {
            let g = b.ground_of().expect("target is not ? in this branch");
            if *b == g.ty() {
                Coercion::proj(g, p)
            } else {
                Coercion::proj(g, p).seq(cast_to_coercion(&g.ty(), p, b))
            }
        }
        _ => unreachable!("incompatible cast slipped past the guard"),
    }
}

/// Translates a λB term to a λC term by replacing every cast with the
/// corresponding coercion.
pub fn term_b_to_c(term: &lb::Term) -> lc::Term {
    term.map_casts(&mut |c| cast_to_coercion(&c.source, c.label, &c.target))
}

/// [`cast_to_coercion`] on interned endpoints, emitting an interned
/// λC coercion: `|A ⇒p B|BC` as a [`CCoercionId`] in `carena`.
///
/// The case analysis runs entirely on [`TNode`]s and the result is
/// hash-consed bottom-up, so translating the same cast twice returns
/// the same id and interns nothing — the coercion never exists as a
/// tree. Agreement with the tree translation is pinned by test:
/// `carena.resolve(cast_to_coercion_in(a, p, b)) =
/// cast_to_coercion(A, p, B)`.
///
/// # Panics
///
/// Panics if `A ≁ B` (no cast exists between incompatible types).
pub fn cast_to_coercion_in(
    types: &mut TypeArena,
    carena: &mut CArena,
    source: TypeId,
    p: Label,
    target: TypeId,
) -> CCoercionId {
    assert!(
        types.compatible(source, target),
        "no cast between incompatible types {} and {}",
        types.display(source),
        types.display(target)
    );
    match (types.node(source), types.node(target)) {
        (TNode::Base(_), TNode::Base(_)) => carena.id(source),
        (TNode::Fun(a, b), TNode::Fun(a2, b2)) => {
            let dom = cast_to_coercion_in(types, carena, a2, p.complement(), a);
            let cod = cast_to_coercion_in(types, carena, b, p, b2);
            carena.fun(dom, cod)
        }
        (TNode::Dyn, TNode::Dyn) => carena.id(source),
        (_, TNode::Dyn) => {
            let g = types
                .ground_of(source)
                .expect("source is not ? in this branch");
            if source == types.ground(g) {
                carena.inj(g)
            } else {
                let g_id = types.ground(g);
                let inner = cast_to_coercion_in(types, carena, source, p, g_id);
                let inj = carena.inj(g);
                carena.seq(inner, inj)
            }
        }
        (TNode::Dyn, _) => {
            let g = types
                .ground_of(target)
                .expect("target is not ? in this branch");
            if target == types.ground(g) {
                carena.proj(g, p)
            } else {
                let g_id = types.ground(g);
                let proj = carena.proj(g, p);
                let inner = cast_to_coercion_in(types, carena, g_id, p, target);
                carena.seq(proj, inner)
            }
        }
        _ => unreachable!("incompatible cast slipped past the guard"),
    }
}

/// Translates a compiled λB term to a compiled λC term: every λB
/// cast becomes a coercion built by [`cast_to_coercion_in`] directly
/// in `carena` — the interned counterpart of [`term_b_to_c`], with no
/// tree term or tree coercion anywhere. Against warm arenas the whole
/// pass interns nothing.
pub fn term_b_to_c_compiled(term: &BTerm, carena: &mut CArena, types: &mut TypeArena) -> CTerm {
    term.map(&mut (carena, types), &|_, ty| *ty, &|(carena, types), c| {
        cast_to_coercion_in(types, carena, c.source, c.label, c.target)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{BaseType, Ground};

    fn p(n: u32) -> Label {
        Label::new(n)
    }

    #[test]
    fn base_cases() {
        assert_eq!(
            cast_to_coercion(&Type::INT, p(0), &Type::INT),
            Coercion::id(Type::INT)
        );
        assert_eq!(
            cast_to_coercion(&Type::DYN, p(0), &Type::DYN),
            Coercion::id(Type::DYN)
        );
        assert_eq!(
            cast_to_coercion(&Type::INT, p(0), &Type::DYN),
            Coercion::inj(Ground::Base(BaseType::Int))
        );
        assert_eq!(
            cast_to_coercion(&Type::DYN, p(0), &Type::INT),
            Coercion::proj(Ground::Base(BaseType::Int), p(0))
        );
    }

    #[test]
    fn function_cast_complements_the_domain() {
        // |Int→Int ⇒p ?→?| = Int?p̄ → Int!
        let ii = Type::fun(Type::INT, Type::INT);
        let c = cast_to_coercion(&ii, p(0), &Type::dyn_fun());
        assert_eq!(
            c,
            Coercion::fun(
                Coercion::proj(Ground::Base(BaseType::Int), p(0).complement()),
                Coercion::inj(Ground::Base(BaseType::Int)),
            )
        );
    }

    #[test]
    fn non_ground_injection_factors() {
        // |Int→Int ⇒p ?| = |Int→Int ⇒p ?→?| ; (?→?)!
        let ii = Type::fun(Type::INT, Type::INT);
        let c = cast_to_coercion(&ii, p(0), &Type::DYN);
        let inner = cast_to_coercion(&ii, p(0), &Type::dyn_fun());
        assert_eq!(c, inner.seq(Coercion::inj(Ground::Fun)));
    }

    #[test]
    fn non_ground_projection_factors() {
        // |? ⇒p Int→Int| = (?→?)?p ; |?→? ⇒p Int→Int|
        let ii = Type::fun(Type::INT, Type::INT);
        let c = cast_to_coercion(&Type::DYN, p(0), &ii);
        let inner = cast_to_coercion(&Type::dyn_fun(), p(0), &ii);
        assert_eq!(c, Coercion::proj(Ground::Fun, p(0)).seq(inner));
    }

    #[test]
    fn translation_preserves_types() {
        // Prop 10.1 on a representative cast: the coercion coerces
        // exactly from A to B.
        let samples = [
            (Type::INT, Type::DYN),
            (Type::DYN, Type::INT),
            (Type::fun(Type::INT, Type::BOOL), Type::DYN),
            (Type::DYN, Type::fun(Type::DYN, Type::BOOL)),
            (
                Type::fun(Type::INT, Type::BOOL),
                Type::fun(Type::DYN, Type::DYN),
            ),
        ];
        for (a, b) in &samples {
            let c = cast_to_coercion(a, p(7), b);
            assert!(c.check(a, b), "|{a} ⇒ {b}| = {c} must coerce {a} ⇒ {b}");
        }
    }

    #[test]
    fn interned_cast_translation_agrees_with_tree_translation() {
        let samples = [
            (Type::INT, Type::INT),
            (Type::INT, Type::DYN),
            (Type::DYN, Type::INT),
            (Type::DYN, Type::DYN),
            (Type::fun(Type::INT, Type::BOOL), Type::DYN),
            (Type::DYN, Type::fun(Type::DYN, Type::BOOL)),
            (
                Type::fun(Type::INT, Type::BOOL),
                Type::fun(Type::DYN, Type::DYN),
            ),
        ];
        let mut types = TypeArena::new();
        let mut carena = CArena::new();
        for (a, b) in &samples {
            let a_id = types.intern(a);
            let b_id = types.intern(b);
            let id = cast_to_coercion_in(&mut types, &mut carena, a_id, p(7), b_id);
            assert_eq!(
                carena.resolve(id, &types),
                cast_to_coercion(a, p(7), b),
                "|{a} ⇒ {b}|"
            );
            // Idempotent: the same cast maps to the same id.
            assert_eq!(
                id,
                cast_to_coercion_in(&mut types, &mut carena, a_id, p(7), b_id)
            );
        }
    }

    #[test]
    fn safety_corresponds_to_label_polarity() {
        // Lemma 9 on examples: A <:+ B iff |A ⇒p B| safe for p.
        use bc_syntax::{neg_subtype, pos_subtype};
        let samples = [
            (Type::INT, Type::DYN),
            (Type::DYN, Type::INT),
            (Type::fun(Type::INT, Type::INT), Type::dyn_fun()),
            (Type::dyn_fun(), Type::fun(Type::INT, Type::INT)),
        ];
        for (a, b) in &samples {
            let c = cast_to_coercion(a, p(3), b);
            assert_eq!(pos_subtype(a, b), c.safe_for(p(3)), "{a} ⇒ {b}");
            assert_eq!(
                neg_subtype(a, b),
                c.safe_for(p(3).complement()),
                "{a} ⇒ {b}"
            );
        }
    }
}

//! The composition operator `s # t` (Figure 5) — the heart of λS.
//!
//! A ten-line structural recursion over the canonical grammar:
//!
//! ```text
//! idι # idι              = idι
//! (s → t) # (s' → t')    = (s' # s) → (t # t')
//! id? # t                = t
//! (g ; G!) # id?         = g ; G!
//! (G?p ; i) # t          = G?p ; (i # t)
//! g # (h ; H!)           = (g # h) ; H!
//! (g ; G!) # (G?p ; i)   = g # i
//! (g ; G!) # (H?p ; i)   = ⊥GpH          (G ≠ H)
//! ⊥GpH # s               = ⊥GpH
//! g # ⊥GpH               = ⊥GpH
//! ```
//!
//! Unlike Siek–Wadler 2010's threesome meet (whose correctness "is not
//! immediate") and Greenberg 2013's non-structural recursion (whose
//! totality takes four pages), each equation here is directly justified
//! by Henglein's equational theory, and termination is a structural
//! induction: every recursive call shrinks the combined size of the
//! arguments.
//!
//! Composition preserves height (Proposition 14, validated by property
//! test), which is what bounds the run-time size of merged coercions.
//!
//! This module is the tree-level *specification* of composition. The
//! hot paths (the λS machine's frame merging, memoized normalisation)
//! run the same recursion over hash-consed nodes with a memo table —
//! see [`crate::arena::CoercionArena::compose`]; the property tests in
//! `tests/compose_props.rs` check the two agree on random canonical
//! coercions.

use crate::coercion::{GroundCoercion, Intermediate, SpaceCoercion};

/// Composes two canonical coercions: if `s : A ⇒ B` and `t : B ⇒ C`
/// then `s # t : A ⇒ C`, and `s # t` is the canonical form of the λC
/// composition `s ; t`.
///
/// # Panics
///
/// Panics if the coercions are not composable (no middle type `B`
/// exists); this cannot happen for well-typed terms.
pub fn compose(s: &SpaceCoercion, t: &SpaceCoercion) -> SpaceCoercion {
    match s {
        // id? # t = t
        SpaceCoercion::IdDyn => t.clone(),
        // (G?p ; i) # t = G?p ; (i # t)
        SpaceCoercion::Proj(g, p, i) => SpaceCoercion::Proj(*g, *p, compose_intermediate(i, t)),
        SpaceCoercion::Mid(i) => SpaceCoercion::Mid(compose_intermediate(i, t)),
    }
}

/// Composes an intermediate coercion with a space-efficient coercion;
/// the result is again intermediate (the source is unchanged, and an
/// intermediate source is never `?` — Lemma 13).
fn compose_intermediate(i: &Intermediate, t: &SpaceCoercion) -> Intermediate {
    match i {
        // ⊥GpH # s = ⊥GpH
        Intermediate::Fail(g, p, h) => Intermediate::Fail(*g, *p, *h),
        Intermediate::Inj(g, ground) => match t {
            // (g ; G!) # id? = g ; G!
            SpaceCoercion::IdDyn => Intermediate::Inj(g.clone(), *ground),
            SpaceCoercion::Proj(ground2, p, i2) => {
                if ground == ground2 {
                    // (g ; G!) # (G?p ; i) = g # i
                    compose_ground_intermediate(g, i2)
                } else {
                    // (g ; G!) # (H?p ; i) = ⊥GpH   (G ≠ H)
                    Intermediate::Fail(*ground, *p, *ground2)
                }
            }
            SpaceCoercion::Mid(_) => {
                unreachable!("(g ; G!) targets ?, but `{t}` does not accept ?")
            }
        },
        Intermediate::Ground(g) => match t {
            SpaceCoercion::Mid(i2) => compose_ground_intermediate(g, i2),
            SpaceCoercion::IdDyn | SpaceCoercion::Proj(_, _, _) => {
                unreachable!("ground coercion targets a non-? type, but `{t}` accepts ?")
            }
        },
    }
}

/// Composes a ground coercion with an intermediate coercion.
fn compose_ground_intermediate(g: &GroundCoercion, i: &Intermediate) -> Intermediate {
    match i {
        // g # (h ; H!) = (g # h) ; H!
        Intermediate::Inj(h, ground) => Intermediate::Inj(compose_ground(g, h), *ground),
        Intermediate::Ground(h) => Intermediate::Ground(compose_ground(g, h)),
        // g # ⊥GpH = ⊥GpH
        Intermediate::Fail(g2, p, h2) => Intermediate::Fail(*g2, *p, *h2),
    }
}

/// Composes two ground coercions.
fn compose_ground(g: &GroundCoercion, h: &GroundCoercion) -> GroundCoercion {
    match (g, h) {
        // idι # idι = idι
        (GroundCoercion::IdBase(a), GroundCoercion::IdBase(b)) => {
            debug_assert_eq!(a, b, "composed identities at different base types");
            GroundCoercion::IdBase(*a)
        }
        // (s → t) # (s' → t') = (s' # s) → (t # t')
        (GroundCoercion::Fun(s, t), GroundCoercion::Fun(s2, t2)) => {
            GroundCoercion::Fun(compose(s2, s).into(), compose(t, t2).into())
        }
        _ => unreachable!("composed a base identity with a function coercion"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{BaseType, Ground, Label, Type};

    fn gi() -> Ground {
        Ground::Base(BaseType::Int)
    }
    fn gb() -> Ground {
        Ground::Base(BaseType::Bool)
    }
    fn p(n: u32) -> Label {
        Label::new(n)
    }
    fn id_int() -> GroundCoercion {
        GroundCoercion::IdBase(BaseType::Int)
    }

    #[test]
    fn identity_laws() {
        // id? # t = t and (g;G!) # id? = g;G!.
        let t = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        assert_eq!(compose(&SpaceCoercion::IdDyn, &t), t);
        let inj = SpaceCoercion::inj(id_int(), gi());
        assert_eq!(compose(&inj, &SpaceCoercion::IdDyn), inj);
        // idι # idι = idι.
        assert_eq!(
            compose(
                &SpaceCoercion::id_base(BaseType::Int),
                &SpaceCoercion::id_base(BaseType::Int)
            ),
            SpaceCoercion::id_base(BaseType::Int)
        );
    }

    #[test]
    fn matched_injection_projection_collapses() {
        // (idInt ; Int!) # (Int?p ; idInt) = idInt
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        assert_eq!(compose(&inj, &proj), SpaceCoercion::id_base(BaseType::Int));
    }

    #[test]
    fn mismatched_injection_projection_fails() {
        // (idInt ; Int!) # (Bool?p ; idBool) = ⊥ Int p Bool
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(
            gb(),
            p(1),
            Intermediate::Ground(GroundCoercion::IdBase(BaseType::Bool)),
        );
        assert_eq!(
            compose(&inj, &proj),
            SpaceCoercion::Mid(Intermediate::Fail(gi(), p(1), gb()))
        );
    }

    #[test]
    fn function_composition_swaps_domains() {
        // (s→t) # (s'→t') = (s'#s) → (t#t'): watch the domain swap.
        let inj = SpaceCoercion::inj(id_int(), gi()); // Int ⇒ ?
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int())); // ? ⇒ Int
                                                                                    // f1 : (? → Int) ⇒ (Int → ?) ... composed with its inverse
        let f1 = SpaceCoercion::fun(inj.clone(), inj.clone());
        let f2 = SpaceCoercion::fun(proj.clone(), proj.clone());
        // f1 : A→B ⇒ A'→B' with domain coercion inj : Int ⇒ ?.
        let composed = compose(&f1, &f2);
        // Domain: proj # inj = (Int?p ; idInt ; Int!)… i.e. a
        // projection followed by an injection; range: inj # proj = id.
        match composed {
            SpaceCoercion::Mid(Intermediate::Ground(GroundCoercion::Fun(dom, cod))) => {
                assert_eq!(
                    *dom,
                    SpaceCoercion::proj(gi(), p(0), Intermediate::Inj(id_int(), gi()))
                );
                assert_eq!(*cod, SpaceCoercion::id_base(BaseType::Int));
            }
            other => panic!("expected function coercion, got {other}"),
        }
    }

    #[test]
    fn failure_absorbs_both_sides() {
        let fail = SpaceCoercion::fail(gi(), p(2), gb());
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        // ⊥ # s = ⊥ (with s accepting ⊥'s unconstrained target).
        assert_eq!(
            compose(&fail, &SpaceCoercion::id_base(BaseType::Bool)),
            fail
        );
        // g # ⊥ = ⊥.
        assert_eq!(compose(&SpaceCoercion::id_base(BaseType::Int), &fail), fail);
        // Projection prefix is preserved: (G?p ; i) # t = G?p ; (i # t).
        let s = compose(&proj, &fail);
        assert_eq!(
            s,
            SpaceCoercion::proj(gi(), p(0), Intermediate::Fail(gi(), p(2), gb()))
        );
    }

    #[test]
    fn composition_is_well_typed() {
        // s : A ⇒ B, t : B ⇒ C gives s # t : A ⇒ C.
        let s = SpaceCoercion::inj(id_int(), gi()); // Int ⇒ ?
        let t = SpaceCoercion::proj(
            gb(),
            p(0),
            Intermediate::Ground(GroundCoercion::IdBase(BaseType::Bool)),
        ); // ? ⇒ Bool
        let st = compose(&s, &t); // Int ⇒ Bool (a failure)
        assert!(st.check(&Type::INT, &Type::BOOL));
    }

    #[test]
    fn height_preservation_examples() {
        // Proposition 14 on a nest of function coercions.
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        let f1 = SpaceCoercion::fun(inj.clone(), proj.clone());
        let f2 = SpaceCoercion::fun(proj.clone(), inj.clone());
        let composed = compose(&f1, &f2);
        assert!(composed.height() <= f1.height().max(f2.height()));
    }
}

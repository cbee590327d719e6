//! Threesomes, with blame: the labeled types of Siek–Wadler 2010
//! (§6.1 of the PLDI 2015 paper).
//!
//! A threesome `⟨T ⇐P⇐ S⟩` factors a cast into a downcast `S ⇒ P`
//! followed by an upcast `P ⇒ T`, where the *labeled* mediating type
//! `P` records how blame is allocated:
//!
//! ```text
//! p, q ::= l | ε                     (optional labels)
//! P, Q ::= B^p | P →^p Q | ? | ⊥^{lGp}
//! ```
//!
//! Two threesomes collapse by taking the meet of their labeled types,
//! written `Q ∘ P` (note the reversal: `P` is applied first). The
//! paper reproduces the composition table and observes that its
//! correctness "is not immediate" — e.g. why do `P^{Gp}` and `⊥^{mHl}`
//! compose to `⊥^{lGp}`? — whereas each λS equation is justified
//! directly by Henglein's theory. Here we implement the table verbatim
//! and *validate it against λS*: erasing canonical coercions to
//! labeled types ([`from_space`]) is a homomorphism from `#` to `∘`.

use std::fmt;
use std::rc::Rc;

use bc_core::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
use bc_syntax::{BaseType, Ground, Label};

/// A labeled type `P, Q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabeledType {
    /// The dynamic type `?`.
    Dyn,
    /// A base type with an optional topmost label, `B^p`.
    Base(BaseType, Option<Label>),
    /// A function type with an optional topmost label, `P →^p Q`.
    Fun(Rc<LabeledType>, Rc<LabeledType>, Option<Label>),
    /// The failure `⊥^{lGp}`: blame label `l`, source ground `G`, and
    /// an optional leading projection label `p`.
    Fail {
        /// The label blamed when the failure is reached.
        blame: Label,
        /// The ground type at which the mismatch occurred.
        ground: Ground,
        /// The optional label of a leading projection (`⊥^{lGp}`
        /// corresponds to the λS coercion `G?p ; ⊥…`).
        proj: Option<Label>,
    },
}

impl LabeledType {
    /// The topmost optional blame label of a labeled type (the `p` in
    /// the paper's `P^{Gp}` pattern).
    pub fn topmost(&self) -> Option<Label> {
        match self {
            LabeledType::Dyn => None,
            LabeledType::Base(_, p) | LabeledType::Fun(_, _, p) => *p,
            LabeledType::Fail { proj, .. } => *proj,
        }
    }

    /// The ground type a (non-`?`, non-`⊥`) labeled type is compatible
    /// with (the `G` in `P^{Gp}`).
    pub fn ground(&self) -> Option<Ground> {
        match self {
            LabeledType::Base(b, _) => Some(Ground::Base(*b)),
            LabeledType::Fun(_, _, _) => Some(Ground::Fun),
            LabeledType::Dyn | LabeledType::Fail { .. } => None,
        }
    }

    /// Replaces the topmost label.
    #[must_use]
    pub fn with_topmost(&self, p: Label) -> LabeledType {
        match self {
            LabeledType::Dyn => unreachable!("? has no label position"),
            LabeledType::Base(b, _) => LabeledType::Base(*b, Some(p)),
            LabeledType::Fun(a, c, _) => LabeledType::Fun(a.clone(), c.clone(), Some(p)),
            LabeledType::Fail { blame, ground, .. } => LabeledType::Fail {
                blame: *blame,
                ground: *ground,
                proj: Some(p),
            },
        }
    }
}

impl fmt::Display for LabeledType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lab = |p: &Option<Label>| p.map_or(String::new(), |l| format!("^{l}"));
        match self {
            LabeledType::Dyn => f.write_str("?"),
            LabeledType::Base(b, p) => write!(f, "{b}{}", lab(p)),
            LabeledType::Fun(a, b, p) => write!(f, "({a} ->{} {b})", lab(p)),
            LabeledType::Fail {
                blame,
                ground,
                proj,
            } => write!(f, "⊥^[{blame},{ground}{}]", lab(proj)),
        }
    }
}

/// The Siek–Wadler composition `Q ∘ P` (the meet of labeled types;
/// `P` is the threesome applied first).
///
/// # Panics
///
/// Panics when asked to compose shapes that cannot arise from
/// well-typed threesomes (e.g. a ground mismatch where the later type
/// carries no projection label to blame).
pub fn compose_labeled(q: &LabeledType, p: &LabeledType) -> LabeledType {
    match (q, p) {
        // P ∘ ? = P and ? ∘ P = P.
        (q, LabeledType::Dyn) => q.clone(),
        (LabeledType::Dyn, p) => p.clone(),
        // Q ∘ ⊥^{mGp} = ⊥^{mGp}.
        (_, LabeledType::Fail { .. }) => p.clone(),
        // ⊥^{mGq} ∘ P^{Gp} = ⊥^{mGp}  /  ⊥^{mHl} ∘ P^{Gp} = ⊥^{lGp}.
        (
            LabeledType::Fail {
                blame,
                ground,
                proj,
            },
            _,
        ) => {
            let pg = p.ground().expect("? and ⊥ handled above");
            if *ground == pg {
                LabeledType::Fail {
                    blame: *blame,
                    ground: pg,
                    proj: p.topmost(),
                }
            } else {
                LabeledType::Fail {
                    blame: proj.expect("mismatched composition needs a projection label"),
                    ground: pg,
                    proj: p.topmost(),
                }
            }
        }
        // B^q ∘ B^p = B^p.
        (LabeledType::Base(bq, _), LabeledType::Base(bp, pl)) if bq == bp => {
            LabeledType::Base(*bp, *pl)
        }
        // (P′ →^q Q′) ∘ (P →^p Q) = (P ∘ P′) →^p (Q′ ∘ Q).
        (LabeledType::Fun(p2, q2, _), LabeledType::Fun(p1, q1, pl)) => LabeledType::Fun(
            Rc::new(compose_labeled(p1, p2)),
            Rc::new(compose_labeled(q2, q1)),
            *pl,
        ),
        // Q^{Hm} ∘ P^{Gp} = ⊥^{mGp}  (G ≠ H).
        (q, p) => {
            let m = q
                .topmost()
                .expect("mismatched composition needs a projection label");
            LabeledType::Fail {
                blame: m,
                ground: p.ground().expect("? and ⊥ handled above"),
                proj: p.topmost(),
            }
        }
    }
}

/// Erases a canonical λS coercion to its Siek–Wadler labeled type —
/// the paper's claimed one-to-one correspondence (injections are
/// recoverable from the threesome's endpoints, so erasure drops them).
pub fn from_space(s: &SpaceCoercion) -> LabeledType {
    match s {
        SpaceCoercion::IdDyn => LabeledType::Dyn,
        SpaceCoercion::Proj(_, p, i) => from_intermediate(i).with_topmost(*p),
        SpaceCoercion::Mid(i) => from_intermediate(i),
    }
}

fn from_intermediate(i: &Intermediate) -> LabeledType {
    match i {
        Intermediate::Inj(g, _) | Intermediate::Ground(g) => from_ground(g),
        Intermediate::Fail(g, p, _) => LabeledType::Fail {
            blame: *p,
            ground: *g,
            proj: None,
        },
    }
}

fn from_ground(g: &GroundCoercion) -> LabeledType {
    match g {
        GroundCoercion::IdBase(b) => LabeledType::Base(*b, None),
        GroundCoercion::Fun(s, t) => {
            LabeledType::Fun(Rc::new(from_space(s)), Rc::new(from_space(t)), None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_core::compose::compose;

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

    /// The homomorphism: erasure maps `s # t` to `map(t) ∘ map(s)`.
    fn homomorphic(s: &SpaceCoercion, t: &SpaceCoercion) {
        let lhs = from_space(&compose(s, t));
        let rhs = compose_labeled(&from_space(t), &from_space(s));
        assert_eq!(lhs, rhs, "erasure of {s} # {t}");
    }

    #[test]
    fn base_round_trip() {
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        homomorphic(&inj, &proj);
        homomorphic(&proj, &inj);
        homomorphic(&SpaceCoercion::IdDyn, &proj);
        homomorphic(&inj, &SpaceCoercion::IdDyn);
    }

    #[test]
    fn ground_mismatch_produces_the_right_failure() {
        // (idInt ; Int!) # (Bool?m ; idBool) = ⊥^{m,Int,ε}.
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(
            gb(),
            p(1),
            Intermediate::Ground(GroundCoercion::IdBase(BaseType::Bool)),
        );
        homomorphic(&inj, &proj);
        let composed = compose_labeled(&from_space(&proj), &from_space(&inj));
        assert_eq!(
            composed,
            LabeledType::Fail {
                blame: p(1),
                ground: gi(),
                proj: None
            }
        );
    }

    #[test]
    fn the_puzzling_rule_from_the_paper() {
        // §6.1: "why do P^{Gp} and ⊥^{mHl} compose to yield ⊥^{lGp}?"
        // Because the later threesome's mismatched *projection* (l) is
        // what fires; λS derives this from (g;G!) # (H?l;i) = ⊥GlH.
        let s = SpaceCoercion::proj(gi(), p(7), Intermediate::Inj(id_int(), gi()));
        // t projects at Bool (≠ Int) with label l, then fails with m.
        let t = SpaceCoercion::proj(gb(), p(8), Intermediate::Fail(gb(), p(9), Ground::Fun));
        homomorphic(&s, &t);
        let composed = compose_labeled(&from_space(&t), &from_space(&s));
        assert_eq!(
            composed,
            LabeledType::Fail {
                blame: p(8), // l — the projection label, not m = p(9)!
                ground: gi(),
                proj: Some(p(7)),
            }
        );
    }

    #[test]
    fn function_rule_swaps_and_keeps_the_first_label() {
        let inj = SpaceCoercion::inj(id_int(), gi());
        let proj = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        let f1 = SpaceCoercion::fun(inj.clone(), proj.clone());
        let f2 = SpaceCoercion::fun(proj.clone(), inj.clone());
        homomorphic(&f1, &f2);
    }

    #[test]
    fn failure_absorbs() {
        let fail = SpaceCoercion::fail(gi(), p(2), gb());
        homomorphic(&fail, &SpaceCoercion::id_base(BaseType::Bool));
        homomorphic(&SpaceCoercion::id_base(BaseType::Int), &fail);
    }

    #[test]
    fn display_is_readable() {
        let l = LabeledType::Fail {
            blame: p(0),
            ground: gi(),
            proj: Some(p(1)),
        };
        assert_eq!(l.to_string(), "⊥^[p0,Int^p1]");
    }
}

//! Coercions `c, d ::= id_A | G! | G?p | c → d | c ; d | ⊥GpH` with
//! their typing rules `c : A ⇒ B`, height, and blame safety
//! (Figure 3).

use std::fmt;
use std::rc::Rc;

use bc_syntax::{Ground, Label, Type};

/// A coercion of the coercion calculus.
///
/// The typing rules follow Henglein (1994); the projection `G?p`
/// carries a blame label (as in Siek–Wadler 2010), and `⊥GpH`
/// represents a failed coercion from ground type `G` to ground type
/// `H` (similar to `Fail` in Herman et al.).
#[derive(Debug, Clone, PartialEq)]
pub enum Coercion {
    /// The identity coercion `id_A : A ⇒ A`.
    Id(Type),
    /// An injection `G! : G ⇒ ?`.
    Inj(Ground),
    /// A projection `G?p : ? ⇒ G`, blaming `p` on failure.
    Proj(Ground, Label),
    /// A function coercion `c → d : A→B ⇒ A'→B'` with `c : A' ⇒ A`
    /// (contravariant) and `d : B ⇒ B'` (covariant).
    Fun(Rc<Coercion>, Rc<Coercion>),
    /// A composition `c ; d : A ⇒ C` with `c : A ⇒ B`, `d : B ⇒ C`.
    Seq(Rc<Coercion>, Rc<Coercion>),
    /// The failure `⊥GpH : A ⇒ B`, requiring `A ≠ ?`, `A ∼ G`, and
    /// `G ≠ H`. Blames `p` when reached.
    Fail(Ground, Label, Ground),
}

impl Coercion {
    /// The identity coercion at type `A`.
    pub fn id(ty: Type) -> Coercion {
        Coercion::Id(ty)
    }

    /// The injection `G!`.
    pub fn inj(g: Ground) -> Coercion {
        Coercion::Inj(g)
    }

    /// The projection `G?p`.
    pub fn proj(g: Ground, p: Label) -> Coercion {
        Coercion::Proj(g, p)
    }

    /// The function coercion `self → cod`.
    pub fn fun(dom: Coercion, cod: Coercion) -> Coercion {
        Coercion::Fun(Rc::new(dom), Rc::new(cod))
    }

    /// The composition `self ; next` (diagrammatic order).
    #[must_use]
    pub fn seq(self, next: Coercion) -> Coercion {
        Coercion::Seq(Rc::new(self), Rc::new(next))
    }

    /// The failure coercion `⊥GpH`.
    ///
    /// # Panics
    ///
    /// Panics if `G = H` (the typing rule requires `G ≠ H`).
    pub fn fail(g: Ground, p: Label, h: Ground) -> Coercion {
        assert_ne!(g, h, "⊥GpH requires G ≠ H");
        Coercion::Fail(g, p, h)
    }

    /// Synthesises the unique type `c : A ⇒ B` of a coercion that does
    /// not contain `⊥`. Returns `None` when the coercion contains a
    /// failure (whose end types are unconstrained) or is ill-typed.
    pub fn synthesize(&self) -> Option<(Type, Type)> {
        match self {
            Coercion::Id(a) => Some((a.clone(), a.clone())),
            Coercion::Inj(g) => Some((g.ty(), Type::Dyn)),
            Coercion::Proj(g, _) => Some((Type::Dyn, g.ty())),
            Coercion::Fun(c, d) => {
                // c : A' ⇒ A, d : B ⇒ B'  gives  c→d : A→B ⇒ A'→B'.
                let (a_prime, a) = c.synthesize()?;
                let (b, b_prime) = d.synthesize()?;
                Some((Type::fun(a, b), Type::fun(a_prime, b_prime)))
            }
            Coercion::Seq(c, d) => {
                let (a, b) = c.synthesize()?;
                let (b2, c2) = d.synthesize()?;
                if b == b2 {
                    Some((a, c2))
                } else {
                    None
                }
            }
            Coercion::Fail(_, _, _) => None,
        }
    }

    /// Checks the typing judgment `c : A ⇒ B`.
    pub fn check(&self, source: &Type, target: &Type) -> bool {
        self.check_opt(Some(source), Some(target))
    }

    /// Checks typing with optional endpoint constraints (`None` means
    /// "there exists a type"). Needed because `⊥GpH : A ⇒ B` leaves
    /// `B` unconstrained, so compositions containing `⊥` do not have
    /// unique types.
    fn check_opt(&self, source: Option<&Type>, target: Option<&Type>) -> bool {
        match self {
            Coercion::Id(a) => source.is_none_or(|s| s == a) && target.is_none_or(|t| t == a),
            Coercion::Inj(g) => {
                source.is_none_or(|s| *s == g.ty()) && target.is_none_or(|t| t.is_dyn())
            }
            Coercion::Proj(g, _) => {
                source.is_none_or(|s| s.is_dyn()) && target.is_none_or(|t| *t == g.ty())
            }
            Coercion::Fun(c, d) => {
                let (a, b) = match source {
                    Some(Type::Fun(a, b)) => (Some(&**a), Some(&**b)),
                    Some(_) => return false,
                    None => (None, None),
                };
                let (a2, b2) = match target {
                    Some(Type::Fun(a2, b2)) => (Some(&**a2), Some(&**b2)),
                    Some(_) => return false,
                    None => (None, None),
                };
                c.check_opt(a2, a) && d.check_opt(b, b2)
            }
            Coercion::Seq(c, d) => {
                if let Some((a, b)) = c.synthesize() {
                    source.is_none_or(|s| *s == a) && d.check_opt(Some(&b), target)
                } else if let Some((b, c2)) = d.synthesize() {
                    target.is_none_or(|t| *t == c2) && c.check_opt(source, Some(&b))
                } else {
                    // Both sides contain ⊥: the intermediate type is
                    // existentially quantified and a witness always
                    // exists (the ground type demanded by `d`).
                    c.check_opt(source, None) && d.check_opt(None, target)
                }
            }
            Coercion::Fail(g, _, h) => {
                g != h
                    && source.is_none_or(|s| !s.is_dyn() && s.compatible(&g.ty()))
                    && target.is_none_or(|_| true)
            }
        }
    }

    /// A *representative* source type for this coercion: a type `A`
    /// such that `c : A ⇒ B` holds for some `B`. For failure-free
    /// coercions this is the unique source; `⊥GpH` contributes its
    /// named ground `G` where the true source is unconstrained.
    pub fn source_representative(&self) -> Type {
        match self {
            Coercion::Id(a) => a.clone(),
            Coercion::Inj(g) | Coercion::Fail(g, _, _) => g.ty(),
            Coercion::Proj(_, _) => Type::Dyn,
            Coercion::Seq(c1, _) => c1.source_representative(),
            Coercion::Fun(c, d) => Type::fun(c.target_representative(), d.source_representative()),
        }
    }

    /// A *representative* target type (see
    /// [`Coercion::source_representative`]); `⊥GpH` contributes its
    /// named ground `H` where the true target is unconstrained.
    pub fn target_representative(&self) -> Type {
        match self {
            Coercion::Id(a) => a.clone(),
            Coercion::Inj(_) => Type::Dyn,
            Coercion::Proj(g, _) => g.ty(),
            Coercion::Fail(_, _, h) => h.ty(),
            Coercion::Seq(_, c2) => c2.target_representative(),
            Coercion::Fun(c, d) => Type::fun(c.source_representative(), d.target_representative()),
        }
    }

    /// The height `‖c‖` of a coercion (Figure 3). Note that
    /// composition does *not* increase height: `‖c ; d‖ =
    /// max(‖c‖, ‖d‖)`. Height is the quantity preserved by the λS
    /// composition operator (Proposition 14).
    pub fn height(&self) -> usize {
        match self {
            Coercion::Id(_) | Coercion::Inj(_) | Coercion::Proj(_, _) | Coercion::Fail(_, _, _) => {
                1
            }
            Coercion::Fun(c, d) => 1 + c.height().max(d.height()),
            Coercion::Seq(c, d) => c.height().max(d.height()),
        }
    }

    /// The number of syntax nodes in the coercion. Unlike height, size
    /// grows under naive composition — this is exactly the space leak.
    pub fn size(&self) -> usize {
        match self {
            Coercion::Id(_) | Coercion::Inj(_) | Coercion::Proj(_, _) | Coercion::Fail(_, _, _) => {
                1
            }
            Coercion::Fun(c, d) | Coercion::Seq(c, d) => 1 + c.size() + d.size(),
        }
    }

    /// Whether `c safeC q` (Figure 3): the coercion never allocates
    /// blame to `q`. Pleasingly simple: `c` is safe for `q` iff it
    /// does not mention `q`.
    pub fn safe_for(&self, q: Label) -> bool {
        match self {
            Coercion::Id(_) | Coercion::Inj(_) => true,
            Coercion::Proj(_, p) | Coercion::Fail(_, p, _) => *p != q,
            Coercion::Fun(c, d) | Coercion::Seq(c, d) => c.safe_for(q) && d.safe_for(q),
        }
    }

    /// Every blame label mentioned in the coercion, in syntactic
    /// order (with duplicates).
    pub fn labels(&self) -> Vec<Label> {
        fn go(c: &Coercion, out: &mut Vec<Label>) {
            match c {
                Coercion::Id(_) | Coercion::Inj(_) => {}
                Coercion::Proj(_, p) | Coercion::Fail(_, p, _) => out.push(*p),
                Coercion::Fun(c, d) | Coercion::Seq(c, d) => {
                    go(c, out);
                    go(d, out);
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }
}

impl fmt::Display for Coercion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Coercion::Id(a) => write!(f, "id[{a}]"),
            Coercion::Inj(g) => write!(f, "({g})!"),
            Coercion::Proj(g, p) => write!(f, "({g})?{p}"),
            Coercion::Fun(c, d) => write!(f, "({c} -> {d})"),
            Coercion::Seq(c, d) => write!(f, "({c} ; {d})"),
            Coercion::Fail(g, p, h) => write!(f, "⊥[{g},{p},{h}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::BaseType;

    fn gi() -> Ground {
        Ground::Base(BaseType::Int)
    }
    fn gb() -> Ground {
        Ground::Base(BaseType::Bool)
    }
    fn p(n: u32) -> Label {
        Label::new(n)
    }

    #[test]
    fn typing_of_primitives() {
        assert!(Coercion::id(Type::INT).check(&Type::INT, &Type::INT));
        assert!(!Coercion::id(Type::INT).check(&Type::INT, &Type::DYN));
        assert!(Coercion::inj(gi()).check(&Type::INT, &Type::DYN));
        assert!(Coercion::proj(gi(), p(0)).check(&Type::DYN, &Type::INT));
        assert!(Coercion::inj(Ground::Fun).check(&Type::dyn_fun(), &Type::DYN));
    }

    #[test]
    fn typing_of_fun_and_seq() {
        // Int?p → Int! : Int→Int ⇒ ?→?
        let c = Coercion::fun(Coercion::proj(gi(), p(0)), Coercion::inj(gi()));
        let ii = Type::fun(Type::INT, Type::INT);
        assert!(c.check(&ii, &Type::dyn_fun()));
        assert_eq!(c.synthesize(), Some((ii.clone(), Type::dyn_fun())));
        // Int! ; Bool?p : Int ⇒ Bool (well-typed but doomed).
        let c2 = Coercion::inj(gi()).seq(Coercion::proj(gb(), p(1)));
        assert!(c2.check(&Type::INT, &Type::BOOL));
        // Mismatched composition is rejected.
        let bad = Coercion::id(Type::INT).seq(Coercion::id(Type::BOOL));
        assert!(!bad.check(&Type::INT, &Type::BOOL));
        assert_eq!(bad.synthesize(), None);
    }

    #[test]
    fn distinct_coercions_may_share_a_type() {
        // id? and G?p ; G! both have type ? ⇒ ?.
        let c = Coercion::proj(gi(), p(0)).seq(Coercion::inj(gi()));
        assert!(Coercion::id(Type::DYN).check(&Type::DYN, &Type::DYN));
        assert!(c.check(&Type::DYN, &Type::DYN));
    }

    #[test]
    fn fail_typing_is_flexible_in_its_target() {
        let c = Coercion::fail(gi(), p(0), gb());
        assert!(c.check(&Type::INT, &Type::BOOL));
        assert!(c.check(&Type::INT, &Type::dyn_fun()));
        // But the source must be ≠ ? and compatible with G.
        assert!(!c.check(&Type::DYN, &Type::BOOL));
        assert!(!c.check(&Type::BOOL, &Type::BOOL));
        // Composition of two failures type-checks (§4 normal forms
        // never produce this, but the type system permits it).
        let cc = Coercion::fail(gi(), p(0), gb()).seq(Coercion::fail(gb(), p(1), gi()));
        assert!(cc.check(&Type::INT, &Type::INT));
    }

    #[test]
    #[should_panic(expected = "G ≠ H")]
    fn fail_requires_distinct_grounds() {
        let _ = Coercion::fail(gi(), p(0), gi());
    }

    #[test]
    fn height_follows_figure_3() {
        let c = Coercion::fun(Coercion::id(Type::INT), Coercion::id(Type::INT));
        assert_eq!(c.height(), 2);
        // Composition does not increase height.
        let d = c.clone().seq(c.clone());
        assert_eq!(d.height(), 2);
        assert_eq!(Coercion::inj(gi()).height(), 1);
        // ...but it does increase size.
        assert!(d.size() > c.size());
    }

    #[test]
    fn safety_is_label_absence() {
        let c = Coercion::proj(gi(), p(0)).seq(Coercion::inj(gi()));
        assert!(!c.safe_for(p(0)));
        assert!(c.safe_for(p(1)));
        assert!(c.safe_for(p(0).complement()));
        assert!(Coercion::inj(gi()).safe_for(p(0)));
        assert!(!Coercion::fail(gi(), p(2), gb()).safe_for(p(2)));
    }

    #[test]
    fn display() {
        let c = Coercion::proj(gi(), p(0)).seq(Coercion::inj(gi()));
        assert_eq!(c.to_string(), "((Int)?p0 ; (Int)!)");
    }
}

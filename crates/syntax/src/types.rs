//! Types `A, B, C ::= ι | A → B | ?` and ground types `G, H ::= ι | ? → ?`
//! (Figure 1 of the paper), together with compatibility `A ∼ B` and the
//! grounding lemma (Lemma 1).

use std::fmt;
use std::rc::Rc;

/// Base types `ι`.
///
/// The paper leaves base types abstract; we instantiate them with
/// integers and booleans, which is enough to express every example in
/// the paper (including the motivating even/odd workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BaseType {
    /// Machine integers (`i64` values).
    Int,
    /// Booleans.
    Bool,
}

impl BaseType {
    /// All base types, in a fixed order (useful for exhaustive tests).
    pub const ALL: [BaseType; 2] = [BaseType::Int, BaseType::Bool];

    /// The type `ι` viewed as a [`Type`].
    pub fn ty(self) -> Type {
        Type::Base(self)
    }
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseType::Int => f.write_str("Int"),
            BaseType::Bool => f.write_str("Bool"),
        }
    }
}

/// Types `A, B, C ::= ι | A → B | ?`.
///
/// Function types share their components via [`Rc`], so cloning a type
/// is cheap; types are immutable once built.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A base type `ι`.
    Base(BaseType),
    /// The dynamic type `?`.
    Dyn,
    /// A function type `A → B`.
    Fun(Rc<Type>, Rc<Type>),
}

impl Type {
    /// The type `Int`.
    pub const INT: Type = Type::Base(BaseType::Int);
    /// The type `Bool`.
    pub const BOOL: Type = Type::Base(BaseType::Bool);
    /// The dynamic type `?`.
    pub const DYN: Type = Type::Dyn;

    /// Builds the function type `dom → cod`.
    pub fn fun(dom: Type, cod: Type) -> Type {
        Type::Fun(Rc::new(dom), Rc::new(cod))
    }

    /// The ground function type `? → ?`.
    pub fn dyn_fun() -> Type {
        Type::fun(Type::Dyn, Type::Dyn)
    }

    /// Compatibility `A ∼ B` (Figure 1).
    ///
    /// Two types are compatible if either is `?`, they are the same
    /// base type, or they are function types with compatible domains
    /// and ranges. Compatibility is reflexive and symmetric but *not*
    /// transitive (`Int ∼ ?` and `? ∼ Bool` but `Int ≁ Bool`).
    ///
    /// ```
    /// use bc_syntax::Type;
    /// assert!(Type::INT.compatible(&Type::DYN));
    /// assert!(!Type::INT.compatible(&Type::BOOL));
    /// ```
    pub fn compatible(&self, other: &Type) -> bool {
        match (self, other) {
            (Type::Dyn, _) | (_, Type::Dyn) => true,
            (Type::Base(a), Type::Base(b)) => a == b,
            (Type::Fun(a1, a2), Type::Fun(b1, b2)) => a1.compatible(b1) && a2.compatible(b2),
            _ => false,
        }
    }

    /// The join (least upper bound with respect to precision `<:n`) of
    /// two consistent types; `None` if the types are inconsistent.
    pub fn join(&self, other: &Type) -> Option<Type> {
        match (self, other) {
            (Type::Dyn, _) | (_, Type::Dyn) => Some(Type::Dyn),
            (Type::Base(a), Type::Base(b)) => (a == b).then(|| self.clone()),
            (Type::Fun(a1, a2), Type::Fun(b1, b2)) => Some(Type::fun(a1.join(b1)?, a2.join(b2)?)),
            _ => None,
        }
    }

    /// The unique ground type compatible with `self`, per Lemma 1
    /// (Grounding): if `A ≠ ?` there is a unique `G` with `A ∼ G`.
    ///
    /// Returns `None` exactly when `self` is `?`.
    pub fn ground_of(&self) -> Option<Ground> {
        match self {
            Type::Base(b) => Some(Ground::Base(*b)),
            Type::Fun(_, _) => Some(Ground::Fun),
            Type::Dyn => None,
        }
    }

    /// Returns `Some(G)` when `self` *is* the ground type `G` (a base
    /// type, or exactly `? → ?`), and `None` otherwise.
    ///
    /// Contrast with [`Type::ground_of`]: `Int → Int` has
    /// `ground_of() == Some(Ground::Fun)` but is not itself ground.
    pub fn as_ground(&self) -> Option<Ground> {
        match self {
            Type::Base(b) => Some(Ground::Base(*b)),
            Type::Fun(a, b) if **a == Type::Dyn && **b == Type::Dyn => Some(Ground::Fun),
            _ => None,
        }
    }

    /// Whether `self` is the dynamic type `?`.
    pub fn is_dyn(&self) -> bool {
        matches!(self, Type::Dyn)
    }

    /// Whether `self` is a ground type.
    pub fn is_ground(&self) -> bool {
        self.as_ground().is_some()
    }

    /// The height of a type: `1` for `ι` and `?`, and one more than the
    /// taller component for `A → B`. Used by the space bounds of §4.
    pub fn height(&self) -> usize {
        match self {
            Type::Base(_) | Type::Dyn => 1,
            Type::Fun(a, b) => 1 + a.height().max(b.height()),
        }
    }

    /// The number of syntax nodes in the type.
    pub fn size(&self) -> usize {
        match self {
            Type::Base(_) | Type::Dyn => 1,
            Type::Fun(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl From<BaseType> for Type {
    fn from(b: BaseType) -> Type {
        Type::Base(b)
    }
}

impl From<Ground> for Type {
    fn from(g: Ground) -> Type {
        g.ty()
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Base(b) => write!(f, "{b}"),
            Type::Dyn => f.write_str("?"),
            Type::Fun(a, b) => {
                // Parenthesise a function domain; `→` is right associative.
                match **a {
                    Type::Fun(_, _) => write!(f, "({a}) -> {b}"),
                    _ => write!(f, "{a} -> {b}"),
                }
            }
        }
    }
}

/// Ground types `G, H ::= ι | ? → ?`.
///
/// Each value of dynamic type belongs to exactly one ground type; the
/// dynamic type satisfies `? ≅ ι + (? → ?)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ground {
    /// The ground base type `ι`.
    Base(BaseType),
    /// The ground function type `? → ?`.
    Fun,
}

impl Ground {
    /// All ground types, in a fixed order (useful for exhaustive tests).
    pub const ALL: [Ground; 3] = [
        Ground::Base(BaseType::Int),
        Ground::Base(BaseType::Bool),
        Ground::Fun,
    ];

    /// The ground type viewed as a [`Type`].
    pub fn ty(self) -> Type {
        match self {
            Ground::Base(b) => Type::Base(b),
            Ground::Fun => Type::dyn_fun(),
        }
    }
}

impl fmt::Display for Ground {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ground::Base(b) => write!(f, "{b}"),
            Ground::Fun => f.write_str("? -> ?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_examples() {
        let a = Type::fun(Type::INT, Type::BOOL);
        assert!(a.compatible(&a));
        assert!(a.compatible(&Type::DYN));
        assert!(a.compatible(&Type::dyn_fun()));
        assert!(!a.compatible(&Type::INT));
        assert!(!Type::INT.compatible(&Type::BOOL));
    }

    #[test]
    fn grounding_lemma_part_1() {
        // If A ≠ ?, there is a unique G such that A ∼ G.
        let samples = [
            Type::INT,
            Type::BOOL,
            Type::dyn_fun(),
            Type::fun(Type::INT, Type::DYN),
            Type::fun(Type::dyn_fun(), Type::BOOL),
        ];
        for a in &samples {
            let g = a.ground_of().expect("non-dynamic type must ground");
            assert!(a.compatible(&g.ty()), "{a} ∼ {g}");
            // Uniqueness: no other ground is compatible.
            for h in Ground::ALL {
                if h != g {
                    assert!(!a.compatible(&h.ty()), "{a} must not be ∼ {h}");
                }
            }
        }
        assert_eq!(Type::DYN.ground_of(), None);
    }

    #[test]
    fn grounding_lemma_part_2() {
        // G ∼ H iff G = H.
        for g in Ground::ALL {
            for h in Ground::ALL {
                assert_eq!(g.ty().compatible(&h.ty()), g == h);
            }
        }
    }

    #[test]
    fn as_ground_is_strict() {
        assert_eq!(Type::INT.as_ground(), Some(Ground::Base(BaseType::Int)));
        assert_eq!(Type::dyn_fun().as_ground(), Some(Ground::Fun));
        assert_eq!(Type::fun(Type::INT, Type::DYN).as_ground(), None);
        assert_eq!(Type::DYN.as_ground(), None);
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Type::fun(Type::INT, Type::BOOL).to_string(), "Int -> Bool");
        assert_eq!(
            Type::fun(Type::fun(Type::DYN, Type::DYN), Type::INT).to_string(),
            "(? -> ?) -> Int"
        );
        assert_eq!(Ground::Fun.to_string(), "? -> ?");
    }

    #[test]
    fn height_and_size() {
        assert_eq!(Type::INT.height(), 1);
        let t = Type::fun(Type::fun(Type::INT, Type::INT), Type::DYN);
        assert_eq!(t.height(), 3);
        assert_eq!(t.size(), 5);
    }
}

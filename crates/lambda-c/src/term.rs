//! Terms of the coercion calculus (Figure 3): the shared grammar
//! [`bc_syntax::term::Term`] with coercion application `M⟨c⟩` in the
//! cast position.
//!
//! A value under a function coercion `V⟨c→d⟩` or an injection `V⟨G!⟩`
//! is a value; every coercion node counts towards [`Term::size`], and
//! the term prints a coercion application as `M<c>`.

use std::fmt;

use bc_syntax::term::CastForm;
use bc_syntax::Label;

use crate::coercion::Coercion;

/// Terms `L, M, N` of λC: as λB, but casts are replaced by coercion
/// application `M⟨c⟩`.
pub type Term = bc_syntax::term::Term<Coercion>;

impl CastForm for Coercion {
    fn node_size(&self) -> usize {
        self.size()
    }

    fn push_labels(&self, out: &mut Vec<Label>) {
        out.extend(self.labels());
    }

    fn wraps_value(&self, subject: &Term) -> bool {
        subject.is_value() && matches!(self, Coercion::Fun(_, _) | Coercion::Inj(_))
    }

    fn fmt_cast(&self, subject: &Term, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{subject}<{self}>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::term::subst;
    use bc_syntax::{BaseType, Ground, Name, Type};

    #[test]
    fn value_recognition() {
        let gi = Ground::Base(BaseType::Int);
        assert!(Term::int(1).is_value());
        assert!(Term::int(1).coerce(Coercion::inj(gi)).is_value());
        assert!(Term::lam("x", Type::INT, Term::var("x"))
            .coerce(Coercion::fun(
                Coercion::id(Type::INT),
                Coercion::id(Type::INT)
            ))
            .is_value());
        // Identity, projection, composition, and failure coercions are
        // redexes on values, not values.
        assert!(!Term::int(1).coerce(Coercion::id(Type::INT)).is_value());
        assert!(!Term::int(1)
            .coerce(Coercion::inj(gi))
            .coerce(Coercion::proj(gi, Label::new(0)))
            .is_value());
        assert!(!Term::int(1)
            .coerce(Coercion::id(Type::INT).seq(Coercion::inj(gi)))
            .is_value());
    }

    #[test]
    fn metrics() {
        let gi = Ground::Base(BaseType::Int);
        let m = Term::int(1)
            .coerce(Coercion::inj(gi))
            .coerce(Coercion::proj(gi, Label::new(3)));
        assert_eq!(m.coercion_size(), 2);
        assert_eq!(m.labels(), vec![Label::new(3)]);
        assert_eq!(m.size(), 5);
    }

    #[test]
    fn display() {
        let m = Term::int(1).coerce(Coercion::inj(Ground::Base(BaseType::Int)));
        assert_eq!(m.to_string(), "1<(Int)!>");
    }

    #[test]
    fn substitution_descends_under_coercions() {
        let t = Term::var("x").coerce(Coercion::id(Type::INT));
        let r = subst(&t, &Name::from("x"), &Term::int(1));
        assert_eq!(r, Term::int(1).coerce(Coercion::id(Type::INT)));
    }
}

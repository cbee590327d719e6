//! Terms of the space-efficient calculus λS (Figure 5): the shared
//! grammar [`bc_syntax::term::Term`] with a canonical coercion `M⟨s⟩`
//! in the cast position.
//!
//! Values are `V ::= U | U⟨s→t⟩ | U⟨g;G!⟩`: at most one coercion, a
//! function coercion or an injection, over an uncoerced value `U`
//! ([`Term::is_uncoerced_value`]). Every coercion node counts towards
//! [`Term::size`], and the term prints as λC's does.

use std::fmt;

use bc_syntax::term::CastForm;
use bc_syntax::Label;

use crate::coercion::{GroundCoercion, Intermediate, SpaceCoercion};

/// Terms `L, M, N` of λS: as λC, but coercions are restricted to
/// space-efficient (canonical) coercions.
pub type Term = bc_syntax::term::Term<SpaceCoercion>;

impl CastForm for SpaceCoercion {
    fn node_size(&self) -> usize {
        self.size()
    }

    fn push_labels(&self, out: &mut Vec<Label>) {
        out.extend(self.labels());
    }

    fn wraps_value(&self, subject: &Term) -> bool {
        subject.is_uncoerced_value()
            && matches!(
                self,
                SpaceCoercion::Mid(Intermediate::Ground(GroundCoercion::Fun(_, _)))
                    | SpaceCoercion::Mid(Intermediate::Inj(_, _))
            )
    }

    fn fmt_cast(&self, subject: &Term, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{subject}<{self}>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{BaseType, Ground, Type};

    #[test]
    fn value_forms() {
        let gi = Ground::Base(BaseType::Int);
        let id_int = GroundCoercion::IdBase(BaseType::Int);
        // U and U⟨g;G!⟩ are values.
        assert!(Term::int(1).is_value());
        assert!(Term::int(1)
            .coerce(SpaceCoercion::inj(id_int.clone(), gi))
            .is_value());
        // U⟨s→t⟩ is a value.
        assert!(Term::lam("x", Type::DYN, Term::var("x"))
            .coerce(SpaceCoercion::fun(
                SpaceCoercion::IdDyn,
                SpaceCoercion::IdDyn
            ))
            .is_value());
        // U⟨idι⟩ is a redex, not a value.
        assert!(!Term::int(1)
            .coerce(SpaceCoercion::id_base(BaseType::Int))
            .is_value());
        // A doubly-coerced term is never a value (it must merge).
        let v = Term::int(1)
            .coerce(SpaceCoercion::inj(id_int, gi))
            .coerce(SpaceCoercion::IdDyn);
        assert!(!v.is_value());
    }

    #[test]
    fn metrics() {
        let gi = Ground::Base(BaseType::Int);
        let m = Term::int(1).coerce(SpaceCoercion::inj(
            GroundCoercion::IdBase(BaseType::Int),
            gi,
        ));
        assert_eq!(m.coercion_size(), 2);
        assert_eq!(m.size(), 4);
    }
}

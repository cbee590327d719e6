//! The type system `Γ ⊢S M : A` of λS: λC's checker
//! ([`bc_lambda_c::typing`]), which is generic over the coercion type,
//! at the canonical coercions of Figure 5.

pub use bc_lambda_c::typing::{has_type, type_of, type_of_in, TypeError, TypedCoercion};
use bc_syntax::Type;

use crate::coercion::SpaceCoercion;

impl TypedCoercion for SpaceCoercion {
    fn synthesize(&self) -> Option<(Type, Type)> {
        SpaceCoercion::synthesize(self)
    }

    fn check(&self, source: &Type, target: &Type) -> bool {
        SpaceCoercion::check(self, source, target)
    }

    fn target_representative(&self) -> Type {
        SpaceCoercion::target_representative(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coercion::{GroundCoercion, Intermediate};
    use crate::term::Term;
    use bc_syntax::{BaseType, Ground, Label};

    #[test]
    fn coercion_application_types() {
        let gi = Ground::Base(BaseType::Int);
        let m = Term::int(1).coerce(SpaceCoercion::inj(
            GroundCoercion::IdBase(BaseType::Int),
            gi,
        ));
        assert_eq!(type_of(&m), Ok(Type::DYN));
        let m2 = m.coerce(SpaceCoercion::proj(
            gi,
            Label::new(0),
            Intermediate::Ground(GroundCoercion::IdBase(BaseType::Int)),
        ));
        assert_eq!(type_of(&m2), Ok(Type::INT));
    }

    #[test]
    fn failure_coercion_types() {
        let m = Term::int(1).coerce(SpaceCoercion::fail(
            Ground::Base(BaseType::Int),
            Label::new(0),
            Ground::Base(BaseType::Bool),
        ));
        assert_eq!(type_of(&m), Ok(Type::BOOL));
    }

    #[test]
    fn bad_coercion_is_rejected() {
        let gi = Ground::Base(BaseType::Int);
        let m = Term::bool(true).coerce(SpaceCoercion::inj(
            GroundCoercion::IdBase(BaseType::Int),
            gi,
        ));
        assert!(matches!(type_of(&m), Err(TypeError::Mismatch { .. })));
    }
}

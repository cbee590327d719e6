//! The inclusion `|·|SC` of λS into λC — trivial, since every
//! space-efficient coercion *is* a coercion (§4.1).

use bc_core::coercion::SpaceCoercion;
use bc_core::term::Term as STerm;
use bc_lambda_c::term::Term as CTerm;

/// Translates a λS term to a λC term by including each canonical
/// coercion into the coercion grammar.
pub fn term_s_to_c(term: &STerm) -> CTerm {
    term.map_casts(&mut SpaceCoercion::to_coercion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c_to_s::term_c_to_s;
    use bc_core::coercion::{GroundCoercion, Intermediate};
    use bc_syntax::{BaseType, Ground, Label, Type};

    #[test]
    fn inclusion_then_normalisation_is_identity() {
        // |  |M|SC  |CS = M for canonical terms (Prop 17 corollary).
        let gi = Ground::Base(BaseType::Int);
        let m = STerm::int(1)
            .coerce(SpaceCoercion::inj(
                GroundCoercion::IdBase(BaseType::Int),
                gi,
            ))
            .coerce(SpaceCoercion::proj(
                gi,
                Label::new(0),
                Intermediate::Ground(GroundCoercion::IdBase(BaseType::Int)),
            ));
        assert_eq!(term_c_to_s(&term_s_to_c(&m)), m);
        let _ = Type::DYN;
    }
}

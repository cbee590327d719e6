//! The inclusion `|·|SC` of λS into λC — trivial, since every
//! space-efficient coercion *is* a coercion (§4.1).

use bc_core::term::Term as STerm;
use bc_lambda_c::term::Term as CTerm;

/// Translates a λS term to a λC term by including each canonical
/// coercion into the coercion grammar.
pub fn term_s_to_c(term: &STerm) -> CTerm {
    match term {
        STerm::Const(k) => CTerm::Const(*k),
        STerm::Op(op, args) => CTerm::Op(*op, args.iter().map(term_s_to_c).collect()),
        STerm::Var(x) => CTerm::Var(x.clone()),
        STerm::Lam(x, ty, b) => CTerm::Lam(x.clone(), ty.clone(), term_s_to_c(b).into()),
        STerm::App(a, b) => CTerm::App(term_s_to_c(a).into(), term_s_to_c(b).into()),
        STerm::Coerce(m, s) => CTerm::Coerce(term_s_to_c(m).into(), s.to_coercion()),
        STerm::Blame(p, ty) => CTerm::Blame(*p, ty.clone()),
        STerm::If(c, t, e) => CTerm::If(
            term_s_to_c(c).into(),
            term_s_to_c(t).into(),
            term_s_to_c(e).into(),
        ),
        STerm::Let(x, m, n) => CTerm::Let(x.clone(), term_s_to_c(m).into(), term_s_to_c(n).into()),
        STerm::Fix(f, x, dom, cod, b) => CTerm::Fix(
            f.clone(),
            x.clone(),
            dom.clone(),
            cod.clone(),
            term_s_to_c(b).into(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c_to_s::term_c_to_s;
    use bc_core::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
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

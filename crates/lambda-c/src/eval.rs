//! Small-step reduction `M ⟶C N` for the coercion calculus
//! (Figure 3).
//!
//! The rules are the "obvious" ones the paper observes nobody had
//! written down before:
//!
//! ```text
//! E[V⟨id_A⟩]        ⟶ E[V]
//! E[(V⟨c→d⟩) W]     ⟶ E[(V (W⟨c⟩))⟨d⟩]
//! E[V⟨G!⟩⟨G?p⟩]     ⟶ E[V]
//! E[V⟨G!⟩⟨H?p⟩]     ⟶ blame p      (G ≠ H)
//! E[V⟨c ; d⟩]       ⟶ E[V⟨c⟩⟨d⟩]
//! E[V⟨⊥GpH⟩]        ⟶ blame p
//! E[blame p]        ⟶ blame p      (E ≠ □)
//! ```
//!
//! The congruence walk, β, the proxy rule and the fueled loop are the
//! shared [`bc_syntax::reduce`]; this module supplies the coercion
//! rules through [`LambdaC`]. A run's cast measure is the total
//! coercion size ([`Term::coercion_size`]).
//!
//! Note that λC *breaks compositions apart* (`c ; d` splits into two
//! applications) where λS *assembles them* — this is exactly the
//! difference the bisimulation of §4.1 mediates.

use bc_syntax::reduce::{self, Reduce, Wrapper};
use bc_syntax::{Label, Type};

use crate::coercion::Coercion;
use crate::term::Term;
use crate::typing::{type_of, TypeError};

/// One reduction step on a closed λC term.
pub type Step = reduce::Step<Coercion>;
/// The final outcome of a λC run.
pub type Outcome = reduce::Outcome<Coercion>;
/// Why a fueled λC run produced no [`Outcome`].
pub type RunError = reduce::RunError<TypeError>;
/// Metrics and result of a fueled λC run; its cast measure is the
/// total coercion size.
pub type Run = reduce::Run<Coercion>;
/// A λC run parked between fuel slices.
pub type Paused = reduce::Paused<LambdaC>;

/// λC's coercion rules (Figure 3), for the shared small-step.
#[derive(Debug, Clone, Copy)]
pub struct LambdaC;

impl Reduce for LambdaC {
    type Cast = Coercion;
    type TypeError = TypeError;
    type MergeCtx = ();

    fn contract(value: &Term, c: &Coercion) -> Result<Term, Label> {
        match c {
            // V⟨id_A⟩ ⟶ V
            Coercion::Id(_) => Ok(value.clone()),
            // V⟨c ; d⟩ ⟶ V⟨c⟩⟨d⟩
            Coercion::Seq(c1, c2) => {
                Ok(value.clone().coerce((**c1).clone()).coerce((**c2).clone()))
            }
            // V⟨⊥GpH⟩ ⟶ blame p
            Coercion::Fail(_, p, _) => Err(*p),
            // V⟨G!⟩⟨G?p⟩ ⟶ V  /  V⟨G!⟩⟨H?p⟩ ⟶ blame p
            Coercion::Proj(h, p) => match value {
                Term::Coerce(w, Coercion::Inj(g)) if g == h => Ok((**w).clone()),
                Term::Coerce(_, Coercion::Inj(_)) => Err(*p),
                other => panic!("projected a non-injection value: {other}"),
            },
            Coercion::Inj(_) | Coercion::Fun(_, _) => {
                unreachable!("injections and function coercions of values are values")
            }
        }
    }

    fn split(c: &Coercion) -> (Coercion, Coercion) {
        match c {
            Coercion::Fun(c, d) => ((**c).clone(), (**d).clone()),
            other => panic!("applied a non-function coercion value: {other}"),
        }
    }

    fn wrapper(c: &Coercion) -> Wrapper {
        match c {
            Coercion::Fun(_, _) => Wrapper::Proxy,
            Coercion::Inj(g) => Wrapper::Injection(*g),
            other => unreachable!("not a λC value coercion: {other}"),
        }
    }

    fn cast_measure(term: &Term) -> usize {
        term.coercion_size()
    }
}

/// Performs one reduction step on a closed, well-typed λC term.
///
/// # Panics
///
/// Panics if the term is open or ill-typed.
pub fn step(term: &Term, program_ty: &Type) -> Step {
    reduce::step::<LambdaC>(&mut (), term, program_ty)
}

/// Type checks a closed λC term and begins a resumable run of it,
/// driven by [`reduce::resume`].
///
/// # Errors
///
/// [`RunError::IllTyped`] if the term is not closed and well typed.
pub fn start(term: &Term, fuel: u64) -> Result<Paused, RunError> {
    Ok(reduce::start(term, type_of(term)?, fuel))
}

/// Evaluates a closed, well-typed λC term for at most `fuel` steps.
///
/// # Errors
///
/// Returns [`RunError::IllTyped`] if the term is not closed and well
/// typed, and [`RunError::FuelExhausted`] (carrying the steps actually
/// taken) if the fuel bound is reached.
pub fn run(term: &Term, fuel: u64) -> Result<Run, RunError> {
    reduce::run::<LambdaC>(term, type_of(term)?, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{BaseType, Ground, Label, Op};

    fn gi() -> Ground {
        Ground::Base(BaseType::Int)
    }
    fn gb() -> Ground {
        Ground::Base(BaseType::Bool)
    }
    fn p(n: u32) -> Label {
        Label::new(n)
    }

    fn eval_value(term: &Term) -> Term {
        match run(term, 10_000).expect("well typed").outcome {
            Outcome::Value(v) => v,
            other => panic!("expected value, got {other:?}"),
        }
    }

    fn eval_blame(term: &Term) -> Label {
        match run(term, 10_000).expect("well typed").outcome {
            Outcome::Blame(l) => l,
            other => panic!("expected blame, got {other:?}"),
        }
    }

    #[test]
    fn identity_vanishes() {
        let t = Term::int(1).coerce(Coercion::id(Type::INT));
        assert_eq!(eval_value(&t), Term::int(1));
    }

    #[test]
    fn matched_injection_projection_cancels() {
        let t = Term::int(7)
            .coerce(Coercion::inj(gi()))
            .coerce(Coercion::proj(gi(), p(0)));
        assert_eq!(eval_value(&t), Term::int(7));
    }

    #[test]
    fn mismatched_projection_blames_the_projection() {
        let t = Term::int(7)
            .coerce(Coercion::inj(gi()))
            .coerce(Coercion::proj(gb(), p(1)));
        assert_eq!(eval_blame(&t), p(1));
    }

    #[test]
    fn composition_splits() {
        let t = Term::int(7).coerce(Coercion::inj(gi()).seq(Coercion::proj(gi(), p(0))));
        let ty = type_of(&t).unwrap();
        match step(&t, &ty) {
            Step::Next(n) => {
                assert_eq!(
                    n,
                    Term::int(7)
                        .coerce(Coercion::inj(gi()))
                        .coerce(Coercion::proj(gi(), p(0)))
                );
            }
            other => panic!("expected split, got {other:?}"),
        }
        assert_eq!(eval_value(&t), Term::int(7));
    }

    #[test]
    fn failure_blames() {
        let t = Term::int(7).coerce(Coercion::fail(gi(), p(2), gb()));
        assert_eq!(eval_blame(&t), p(2));
    }

    #[test]
    fn function_coercion_wraps() {
        // (λx:Int. x+1)⟨Int?p → Int!⟩ applied to 1⟨Int!⟩:
        // the argument is projected, the result injected.
        let inc = Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        );
        let wrapped = inc.coerce(Coercion::fun(
            Coercion::proj(gi(), p(0)),
            Coercion::inj(gi()),
        ));
        let t = wrapped.app(Term::int(1).coerce(Coercion::inj(gi())));
        assert_eq!(eval_value(&t), Term::int(2).coerce(Coercion::inj(gi())));
    }

    #[test]
    fn function_coercion_blames_bad_argument() {
        let inc = Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        );
        let wrapped = inc.coerce(Coercion::fun(
            Coercion::proj(gi(), p(0).complement()),
            Coercion::inj(gi()),
        ));
        let t = wrapped.app(Term::bool(true).coerce(Coercion::inj(gb())));
        assert_eq!(eval_blame(&t), p(0).complement());
    }

    #[test]
    fn preservation_along_a_run() {
        let inc = Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        );
        let c = Coercion::fun(Coercion::proj(gi(), p(0)), Coercion::inj(gi()))
            .seq(Coercion::inj(Ground::Fun));
        // inc⟨(Int?p→Int!) ; (?→?)!⟩⟨(?→?)?q⟩ applied to 3⟨Int!⟩,
        // result projected back to Int.
        let t = inc
            .coerce(c)
            .coerce(Coercion::proj(Ground::Fun, p(1)))
            .app(Term::int(3).coerce(Coercion::inj(gi())))
            .coerce(Coercion::proj(gi(), p(2)));
        let ty = type_of(&t).unwrap();
        assert_eq!(ty, Type::INT);
        let mut cur = t;
        loop {
            match step(&cur, &ty) {
                Step::Next(n) => {
                    assert_eq!(type_of(&n), Ok(ty.clone()), "preservation at {n}");
                    cur = n;
                }
                Step::Value => {
                    assert_eq!(cur, Term::int(4));
                    break;
                }
                Step::Blame(l) => panic!("unexpected blame {l}"),
            }
        }
    }

    #[test]
    fn blame_aborts_from_depth() {
        let t = Term::op2(Op::Add, Term::int(1), Term::Blame(p(5), Type::INT));
        assert_eq!(eval_blame(&t), p(5));
    }
}

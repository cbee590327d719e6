//! Small-step reduction `M ⟶B N` for the blame calculus (Figure 1).
//!
//! The evaluator is substitution-based and follows the paper's
//! evaluation contexts exactly: left-to-right, call-by-value, with
//! casts evaluated under `E[□ : A ⇒p B]`. The rule
//! `E[blame p] ⟶ blame p` (for `E ≠ □`) aborts the whole program in a
//! single step, exactly as in the paper.
//!
//! The congruence walk, β and the fueled loop are the shared
//! [`bc_syntax::reduce`]; this module supplies Figure 1's cast rules
//! through [`LambdaB`]:
//!
//! ```text
//! (V : A→B ⇒p A'→B') W ⟶ (V (W : A' ⇒p̄ A)) : B ⇒p B'
//! V : ι ⇒p ι          ⟶ V
//! V : ? ⇒p ?          ⟶ V
//! V : A ⇒p ?          ⟶ V : A ⇒p G ⇒p ?    (A ≠ ?, A ≠ G, A ∼ G)
//! V : ? ⇒p A          ⟶ V : ? ⇒p G ⇒p A    (A ≠ ?, A ≠ G, A ∼ G)
//! V : G ⇒q ? ⇒p G     ⟶ V
//! V : G ⇒q ? ⇒p H     ⟶ blame p             (G ≠ H)
//! ```
//!
//! [`run`] executes a closed, well-typed term to an [`Outcome`] with a
//! fuel bound (the divergence proxy) and records space metrics: the
//! peak term size and peak number of cast nodes ([`Term::cast_count`]).
//! These are the quantities that grow without bound in the space-leak
//! examples of §1 and stay bounded in λS.

use bc_syntax::reduce::{self, Reduce, Wrapper};
use bc_syntax::{Label, Type};

use crate::term::{Cast, Term};
use crate::typing::{type_of, TypeError};

/// One reduction step on a closed λB term.
pub type Step = reduce::Step<Cast>;
/// The final outcome of a λB run.
pub type Outcome = reduce::Outcome<Cast>;
/// Why a fueled λB run produced no [`Outcome`].
pub type RunError = reduce::RunError<TypeError>;
/// Metrics and result of a fueled λB run; its cast measure is the
/// number of cast nodes.
pub type Run = reduce::Run<Cast>;
/// A λB run parked between fuel slices.
pub type Paused = reduce::Paused<LambdaB>;

/// λB's cast rules (Figure 1), for the shared small-step.
#[derive(Debug, Clone, Copy)]
pub struct LambdaB;

impl Reduce for LambdaB {
    type Cast = Cast;
    type TypeError = TypeError;
    type MergeCtx = ();

    fn contract(value: &Term, cast: &Cast) -> Result<Term, Label> {
        let p = cast.label;
        match (&cast.source, &cast.target) {
            // V : ι ⇒p ι ⟶ V
            (Type::Base(a), Type::Base(b)) => {
                debug_assert_eq!(a, b, "ill-typed base cast");
                Ok(value.clone())
            }
            // V : ? ⇒p ? ⟶ V
            (Type::Dyn, Type::Dyn) => Ok(value.clone()),
            // V : A ⇒p ? ⟶ V : A ⇒p G ⇒p ?   (A ≠ ?, A ≠ G, A ∼ G)
            (a, Type::Dyn) => {
                let g = a.ground_of().expect("source is not ? here").ty();
                debug_assert!(!a.is_ground(), "injection from ground is a value");
                Ok(value
                    .clone()
                    .cast(a.clone(), p, g.clone())
                    .cast(g, p, Type::Dyn))
            }
            (Type::Dyn, a) => match a.as_ground() {
                // The target is a ground type: the value must be an
                // injection `W : G ⇒q ?`.
                Some(h) => match value {
                    Term::Coerce(w, inner) => {
                        let g = inner
                            .source
                            .as_ground()
                            .expect("value of type ? is an injection from ground");
                        if g == h {
                            // V : G ⇒q ? ⇒p G ⟶ V
                            Ok((**w).clone())
                        } else {
                            // V : G ⇒q ? ⇒p H ⟶ blame p   (G ≠ H)
                            Err(p)
                        }
                    }
                    other => panic!("value of type ? is not an injection: {other}"),
                },
                // V : ? ⇒p A ⟶ V : ? ⇒p G ⇒p A   (A ≠ ?, A ≠ G, A ∼ G)
                None => {
                    let g = a.ground_of().expect("target is not ? here").ty();
                    Ok(value
                        .clone()
                        .cast(Type::Dyn, p, g.clone())
                        .cast(g, p, a.clone()))
                }
            },
            (a, b) => panic!("ill-typed cast from `{a}` to `{b}` reached evaluation"),
        }
    }

    /// `A→B ⇒p A'→B'` splits into `A' ⇒p̄ A` and `B ⇒p B'`: the domain
    /// cast is decorated with the complemented label, since function
    /// types are contravariant in their domain.
    fn split(cast: &Cast) -> (Cast, Cast) {
        match (&cast.source, &cast.target) {
            (Type::Fun(a, b), Type::Fun(a2, b2)) => (
                Cast::new((**a2).clone(), cast.label.complement(), (**a).clone()),
                Cast::new((**b).clone(), cast.label, (**b2).clone()),
            ),
            _ => panic!("applied a non-function cast value: {cast}"),
        }
    }

    fn wrapper(cast: &Cast) -> Wrapper {
        match (&cast.source, &cast.target) {
            (Type::Fun(_, _), Type::Fun(_, _)) => Wrapper::Proxy,
            (src, Type::Dyn) => {
                Wrapper::Injection(src.as_ground().expect("injection value from ground type"))
            }
            _ => unreachable!("not a λB value cast: {cast}"),
        }
    }

    fn cast_measure(term: &Term) -> usize {
        term.cast_count()
    }
}

/// Performs one reduction step on a closed, well-typed term.
///
/// `program_ty` is the type of the whole program; it annotates the
/// `blame` term produced when a cast fails.
///
/// # Panics
///
/// Panics if the term is open or ill-typed (use [`crate::typing::type_of`]
/// first); the reduction rules of Figure 1 are only defined on
/// well-typed terms.
pub fn step(term: &Term, program_ty: &Type) -> Step {
    reduce::step::<LambdaB>(&mut (), term, program_ty)
}

/// Type checks a closed term and begins a resumable run of it, driven
/// by [`reduce::resume`].
///
/// # Errors
///
/// [`RunError::IllTyped`] if the term is not closed and well typed.
pub fn start(term: &Term, fuel: u64) -> Result<Paused, RunError> {
    Ok(reduce::start(term, type_of(term)?, fuel))
}

/// Evaluates a closed, well-typed term for at most `fuel` steps.
///
/// # Errors
///
/// Returns [`RunError::IllTyped`] if the term is not closed and well
/// typed, and [`RunError::FuelExhausted`] (carrying the steps actually
/// taken) if the fuel bound is reached — ill-typedness and divergence
/// are distinguishable without inspecting a sentinel outcome.
pub fn run(term: &Term, fuel: u64) -> Result<Run, RunError> {
    reduce::run::<LambdaB>(term, type_of(term)?, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{Ground, Label, Op};

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
    fn beta_and_ops() {
        let t = Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        )
        .app(Term::int(41));
        assert_eq!(eval_value(&t), Term::int(42));
    }

    #[test]
    fn identity_casts_vanish() {
        let t = Term::int(1).cast(Type::INT, p(0), Type::INT);
        assert_eq!(eval_value(&t), Term::int(1));
        let u = Term::int(1)
            .cast(Type::INT, p(0), Type::DYN)
            .cast(Type::DYN, p(1), Type::DYN);
        assert_eq!(
            eval_value(&u),
            Term::int(1).cast(Type::INT, p(0), Type::DYN)
        );
    }

    #[test]
    fn round_trip_through_dyn_succeeds() {
        let t = Term::int(7)
            .cast(Type::INT, p(0), Type::DYN)
            .cast(Type::DYN, p(1), Type::INT);
        assert_eq!(eval_value(&t), Term::int(7));
    }

    #[test]
    fn incompatible_projection_blames_outer_label() {
        let t = Term::int(7)
            .cast(Type::INT, p(0), Type::DYN)
            .cast(Type::DYN, p(1), Type::BOOL);
        assert_eq!(eval_blame(&t), p(1));
    }

    #[test]
    fn function_cast_wraps_and_defers() {
        // ((λx:?.x) : ?→? ⇒p Int→Int) 5 ⟶* 5
        let id = Term::lam("x", Type::DYN, Term::var("x"));
        let t = id
            .cast(Type::dyn_fun(), p(0), Type::fun(Type::INT, Type::INT))
            .app(Term::int(5));
        assert_eq!(eval_value(&t), Term::int(5));
    }

    #[test]
    fn function_cast_blames_domain_negatively() {
        // Cast (λx:Int.x) to ?→? and feed it a Bool: the domain cast
        // ? ⇒p̄ Int fails, blaming p̄ (the context supplied a bad
        // argument).
        let id = Term::lam("x", Type::INT, Term::var("x"));
        let ii = Type::fun(Type::INT, Type::INT);
        let t = id
            .cast(ii, p(0), Type::dyn_fun())
            .app(Term::bool(true).cast(Type::BOOL, p(9), Type::DYN));
        assert_eq!(eval_blame(&t), p(0).complement());
    }

    #[test]
    fn factoring_through_ground() {
        // Casting Int→Int to ? factors through ?→?; projecting back at
        // Int→Int recovers a usable function.
        let inc = Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        );
        let ii = Type::fun(Type::INT, Type::INT);
        let t = inc
            .cast(ii.clone(), p(0), Type::DYN)
            .cast(Type::DYN, p(1), ii)
            .app(Term::int(1));
        assert_eq!(eval_value(&t), Term::int(2));
    }

    #[test]
    fn failure_lemma() {
        // Lemma 2: V : A ⇒p1 G ⇒p2 ? ⇒p3 H ⇒p4 B ⟶* blame p3
        // with A = Int→Int, G = ?→?, H = Bool, B = Bool.
        let v = Term::lam("x", Type::INT, Term::var("x"));
        let a = Type::fun(Type::INT, Type::INT);
        let g = Ground::Fun.ty();
        let h = Type::BOOL;
        let t = v
            .cast(a, p(1), g.clone())
            .cast(g, p(2), Type::DYN)
            .cast(Type::DYN, p(3), h.clone())
            .cast(h, p(4), Type::BOOL);
        assert_eq!(eval_blame(&t), p(3));
    }

    #[test]
    fn blame_aborts_in_one_step() {
        // E[blame p] ⟶ blame p, even under several layers of context.
        let inner = Term::Blame(p(5), Type::INT);
        let t = Term::op2(
            Op::Add,
            Term::int(1),
            Term::op2(Op::Add, inner, Term::int(2)),
        );
        let ty = type_of(&t).unwrap();
        match step(&t, &ty) {
            Step::Next(Term::Blame(l, _)) => assert_eq!(l, p(5)),
            other => panic!("expected blame step, got {other:?}"),
        }
    }

    #[test]
    fn fix_unrolls() {
        // fix f (n:Int):Int. if n = 0 then 0 else f (n - 1), applied to 5.
        let body = Term::ite(
            Term::op2(Op::Eq, Term::var("n"), Term::int(0)),
            Term::int(0),
            Term::var("f").app(Term::op2(Op::Sub, Term::var("n"), Term::int(1))),
        );
        let t = Term::fix("f", "n", Type::INT, Type::INT, body).app(Term::int(5));
        assert_eq!(eval_value(&t), Term::int(0));
    }

    #[test]
    fn divergence_exhausts_fuel_with_the_real_step_count() {
        // (fix f (n:Int):Int. f n) 0 diverges.
        let t = Term::fix(
            "f",
            "n",
            Type::INT,
            Type::INT,
            Term::var("f").app(Term::var("n")),
        )
        .app(Term::int(0));
        match run(&t, 50) {
            Err(RunError::FuelExhausted {
                steps, peak_size, ..
            }) => {
                assert_eq!(steps, 50);
                assert!(peak_size > 0, "the truncated run reports its space peaks");
            }
            other => panic!("expected FuelExhausted, got {other:?}"),
        }
        // Zero fuel charges zero steps (but a value still completes).
        assert!(matches!(
            run(&t, 0),
            Err(RunError::FuelExhausted { steps: 0, .. })
        ));
        assert!(run(&Term::int(1), 0).is_ok());
    }

    #[test]
    fn ill_typed_terms_report_a_typed_error() {
        let t = Term::int(1).app(Term::int(2));
        match run(&t, 50) {
            Err(RunError::IllTyped(_)) => {}
            other => panic!("expected IllTyped, got {other:?}"),
        }
    }

    #[test]
    fn preservation_along_a_run() {
        // Types are preserved step by step on a representative program.
        let inc = Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        );
        let ii = Type::fun(Type::INT, Type::INT);
        let mut t = inc
            .cast(ii.clone(), p(0), Type::DYN)
            .cast(Type::DYN, p(1), ii)
            .app(Term::int(1));
        let ty = type_of(&t).unwrap();
        while let Step::Next(n) = step(&t, &ty) {
            assert_eq!(type_of(&n), Ok(ty.clone()), "preservation at {n}");
            t = n;
        }
    }

    #[test]
    fn determinism() {
        // step is a function; two invocations agree.
        let t = Term::int(7)
            .cast(Type::INT, p(0), Type::DYN)
            .cast(Type::DYN, p(1), Type::INT);
        let ty = type_of(&t).unwrap();
        assert_eq!(step(&t, &ty), step(&t, &ty));
    }
}

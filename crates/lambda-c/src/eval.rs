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
//! Note that λC *breaks compositions apart* (`c ; d` splits into two
//! applications) where λS *assembles them* — this is exactly the
//! difference the bisimulation of §4.1 mediates.

use std::fmt;

use bc_syntax::{Constant, Label, Type};

use crate::coercion::Coercion;
use crate::term::Term;
use crate::typing::{type_of, TypeError};
use bc_syntax::term::subst;

/// The result of attempting one reduction step on a closed term.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `M ⟶C N`.
    Next(Term),
    /// The term is a value.
    Value,
    /// The term is `blame p`.
    Blame(Label),
}

/// The final outcome of evaluating a term. Fuel exhaustion is not an
/// outcome — [`run`] reports it as [`RunError::FuelExhausted`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Evaluation converged to a value.
    Value(Term),
    /// Evaluation allocated blame.
    Blame(Label),
}

/// Why a fueled run produced no [`Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The term is not closed and well typed.
    IllTyped(TypeError),
    /// The fuel bound was reached; the term may diverge.
    FuelExhausted {
        /// Steps actually taken before fuel ran out.
        steps: u64,
        /// The largest term size observed up to the cutoff.
        peak_size: usize,
        /// The largest total coercion size observed up to the cutoff —
        /// the truncated run's space measurement.
        peak_coercion_size: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::IllTyped(e) => write!(f, "ill-typed program: {e}"),
            RunError::FuelExhausted { steps, .. } => {
                write!(f, "fuel exhausted after {steps} steps")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<TypeError> for RunError {
    fn from(e: TypeError) -> RunError {
        RunError::IllTyped(e)
    }
}

/// Metrics and result of a fueled run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The final outcome.
    pub outcome: Outcome,
    /// Number of reduction steps taken.
    pub steps: u64,
    /// Peak term size observed.
    pub peak_size: usize,
    /// Peak total coercion size observed (the λC space metric).
    pub peak_coercion_size: usize,
}

enum Sub {
    Stepped(Term),
    Value,
    Raise(Label),
}

/// Performs one reduction step on a closed, well-typed λC term.
///
/// # Panics
///
/// Panics if the term is open or ill-typed.
pub fn step(term: &Term, program_ty: &Type) -> Step {
    if let Term::Blame(p, _) = term {
        return Step::Blame(*p);
    }
    if term.is_value() {
        return Step::Value;
    }
    match step_sub(term) {
        Sub::Stepped(t) => Step::Next(t),
        Sub::Raise(p) => Step::Next(Term::Blame(p, program_ty.clone())),
        Sub::Value => unreachable!("non-value term did not step: {term}"),
    }
}

fn step_sub(term: &Term) -> Sub {
    if term.is_value() {
        return Sub::Value;
    }
    match term {
        Term::Const(_) | Term::Lam(_, _, _) | Term::Fix(_, _, _, _, _) => Sub::Value,
        Term::Var(x) => panic!("evaluation reached a free variable `{x}`"),
        Term::Blame(p, _) => Sub::Raise(*p),
        Term::Op(op, args) => {
            for (i, arg) in args.iter().enumerate() {
                match step_sub(arg) {
                    Sub::Stepped(a2) => {
                        let mut args2 = args.clone();
                        args2[i] = a2;
                        return Sub::Stepped(Term::Op(*op, args2));
                    }
                    Sub::Raise(p) => return Sub::Raise(p),
                    Sub::Value => continue,
                }
            }
            let consts: Vec<Constant> = args
                .iter()
                .map(|a| match a {
                    Term::Const(k) => *k,
                    other => panic!("operator argument is not a constant: {other}"),
                })
                .collect();
            Sub::Stepped(Term::Const(op.apply(&consts)))
        }
        Term::If(cond, then_, else_) => match step_sub(cond) {
            Sub::Stepped(c2) => Sub::Stepped(Term::If(c2.into(), then_.clone(), else_.clone())),
            Sub::Raise(p) => Sub::Raise(p),
            Sub::Value => match &**cond {
                Term::Const(Constant::Bool(true)) => Sub::Stepped((**then_).clone()),
                Term::Const(Constant::Bool(false)) => Sub::Stepped((**else_).clone()),
                other => panic!("if condition is not a boolean: {other}"),
            },
        },
        Term::Let(x, m, n) => match step_sub(m) {
            Sub::Stepped(m2) => Sub::Stepped(Term::Let(x.clone(), m2.into(), n.clone())),
            Sub::Raise(p) => Sub::Raise(p),
            Sub::Value => Sub::Stepped(subst(n, x, m)),
        },
        Term::App(l, m) => match step_sub(l) {
            Sub::Stepped(l2) => Sub::Stepped(Term::App(l2.into(), m.clone())),
            Sub::Raise(p) => Sub::Raise(p),
            Sub::Value => match step_sub(m) {
                Sub::Stepped(m2) => Sub::Stepped(Term::App(l.clone(), m2.into())),
                Sub::Raise(p) => Sub::Raise(p),
                Sub::Value => apply(l, m),
            },
        },
        Term::Coerce(m, c) => match step_sub(m) {
            Sub::Stepped(m2) => Sub::Stepped(Term::Coerce(m2.into(), c.clone())),
            Sub::Raise(p) => Sub::Raise(p),
            Sub::Value => coerce_value(m, c),
        },
    }
}

/// Contracts an application whose both sides are values.
fn apply(fun: &Term, arg: &Term) -> Sub {
    match fun {
        Term::Lam(x, _, body) => Sub::Stepped(subst(body, x, arg)),
        Term::Fix(f, x, _, _, body) => {
            let unrolled = subst(body, f, fun);
            Sub::Stepped(subst(&unrolled, x, arg))
        }
        // (V⟨c→d⟩) W ⟶ (V (W⟨c⟩))⟨d⟩
        Term::Coerce(v, Coercion::Fun(c, d)) => {
            let coerced_arg = arg.clone().coerce((**c).clone());
            Sub::Stepped(Term::App(v.clone(), coerced_arg.into()).coerce((**d).clone()))
        }
        other => panic!("applied a non-function value: {other}"),
    }
}

/// Reduces `V⟨c⟩` where `V` is a value and the whole term is not.
fn coerce_value(value: &Term, c: &Coercion) -> Sub {
    match c {
        // V⟨id_A⟩ ⟶ V
        Coercion::Id(_) => Sub::Stepped(value.clone()),
        // V⟨c ; d⟩ ⟶ V⟨c⟩⟨d⟩
        Coercion::Seq(c1, c2) => {
            Sub::Stepped(value.clone().coerce((**c1).clone()).coerce((**c2).clone()))
        }
        // V⟨⊥GpH⟩ ⟶ blame p
        Coercion::Fail(_, p, _) => Sub::Raise(*p),
        // V⟨G!⟩⟨G?p⟩ ⟶ V  /  V⟨G!⟩⟨H?p⟩ ⟶ blame p
        Coercion::Proj(h, p) => match value {
            Term::Coerce(w, Coercion::Inj(g)) => {
                if g == h {
                    Sub::Stepped((**w).clone())
                } else {
                    Sub::Raise(*p)
                }
            }
            other => panic!("projected a non-injection value: {other}"),
        },
        Coercion::Inj(_) | Coercion::Fun(_, _) => {
            unreachable!("injections and function coercions of values are values")
        }
    }
}

/// Evaluates a closed, well-typed λC term for at most `fuel` steps.
///
/// # Errors
///
/// Returns [`RunError::IllTyped`] if the term is not closed and well
/// typed, and [`RunError::FuelExhausted`] (carrying the steps actually
/// taken) if the fuel bound is reached.
pub fn run(term: &Term, fuel: u64) -> Result<Run, RunError> {
    let ty = type_of(term)?;
    let mut current = term.clone();
    let mut steps = 0u64;
    let mut peak_size = current.size();
    let mut peak_coercion_size = current.coercion_size();
    loop {
        match step(&current, &ty) {
            Step::Value => {
                return Ok(Run {
                    outcome: Outcome::Value(current),
                    steps,
                    peak_size,
                    peak_coercion_size,
                })
            }
            Step::Blame(p) => {
                return Ok(Run {
                    outcome: Outcome::Blame(p),
                    steps,
                    peak_size,
                    peak_coercion_size,
                })
            }
            Step::Next(next) => {
                // Charge fuel *before* committing the step, so a
                // zero-fuel run reports zero steps (values still
                // complete at any fuel: Step::Value returns above).
                if steps >= fuel {
                    return Err(RunError::FuelExhausted {
                        steps,
                        peak_size,
                        peak_coercion_size,
                    });
                }
                steps += 1;
                peak_size = peak_size.max(next.size());
                peak_coercion_size = peak_coercion_size.max(next.coercion_size());
                current = next;
            }
        }
    }
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
        let ii = Type::fun(Type::INT, Type::INT);
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
        let _ = ii;
    }

    #[test]
    fn blame_aborts_from_depth() {
        let t = Term::op2(Op::Add, Term::int(1), Term::Blame(p(5), Type::INT));
        assert_eq!(eval_blame(&t), p(5));
    }
}

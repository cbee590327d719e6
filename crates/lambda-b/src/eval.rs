//! Small-step reduction `M ⟶B N` for the blame calculus (Figure 1).
//!
//! The evaluator is substitution-based and follows the paper's
//! evaluation contexts exactly: left-to-right, call-by-value, with
//! casts evaluated under `E[□ : A ⇒p B]`. The rule
//! `E[blame p] ⟶ blame p` (for `E ≠ □`) aborts the whole program in a
//! single step, exactly as in the paper.
//!
//! [`run`] executes a closed, well-typed term to an [`Outcome`] with a
//! fuel bound (the divergence proxy) and records space metrics: the
//! peak term size and peak number of cast nodes. These are the
//! quantities that grow without bound in the space-leak examples of
//! §1 and stay bounded in λS. Ill-typed input and fuel exhaustion are
//! reported as the typed [`RunError`], never as panics or sentinel
//! outcomes.

use std::fmt;

use bc_syntax::{Constant, Label, Type};

use crate::term::{Cast, Term};
use crate::typing::{type_of, TypeError};
use bc_syntax::term::subst;

/// The result of attempting one reduction step on a closed term.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `M ⟶B N`: the term took one step to `N`.
    Next(Term),
    /// The term is a value; no rule applies.
    Value,
    /// The term is `blame p`; evaluation has aborted.
    Blame(Label),
}

/// The final outcome of evaluating a term: every λB evaluation that
/// completes either converges to a value or allocates blame. Fuel
/// exhaustion is *not* an outcome — [`run`] reports it as the typed
/// error [`RunError::FuelExhausted`], so callers can never mistake a
/// truncated run for a completed one.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Evaluation converged to a value.
    Value(Term),
    /// Evaluation allocated blame to a label.
    Blame(Label),
}

impl Outcome {
    /// Whether this outcome is a value.
    pub fn is_value(&self) -> bool {
        matches!(self, Outcome::Value(_))
    }
}

/// Why a fueled run produced no [`Outcome`] — the typed replacement
/// for the `.expect("compiled well typed")` / sentinel-timeout pattern
/// on the run path.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The term is not closed and well typed; Figure 1's reduction
    /// rules are only defined on well-typed terms.
    IllTyped(TypeError),
    /// The fuel bound was reached; the term may diverge.
    FuelExhausted {
        /// Steps actually taken before fuel ran out (equals the fuel
        /// bound handed to [`run`]).
        steps: u64,
        /// The largest term size observed up to the cutoff — the
        /// truncated run's space measurement, so the λB cast-growth
        /// leak stays measurable on genuinely diverging programs.
        peak_size: usize,
        /// The largest number of cast nodes observed up to the cutoff.
        peak_casts: usize,
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
    /// How many reduction steps were taken.
    pub steps: u64,
    /// The largest term size observed during evaluation.
    pub peak_size: usize,
    /// The largest number of cast nodes observed during evaluation.
    pub peak_casts: usize,
}

/// Result of reducing a subterm in evaluation position.
enum Sub {
    Stepped(Term),
    Value,
    Raise(Label),
}

/// Performs one reduction step on a closed, well-typed term.
///
/// `program_ty` is the type of the whole program; it becomes the type
/// annotation of the `blame` term produced when a cast fails (the
/// paper's `blame p` has every type; ours carries one for
/// syntax-directed typing).
///
/// # Panics
///
/// Panics if the term is open or ill-typed (use [`crate::typing::type_of`]
/// first); the reduction rules of Figure 1 are only defined on
/// well-typed terms.
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
            Sub::Value => cast_value(m, c),
        },
    }
}

/// Contracts a β-redex or function-cast application; both arguments
/// are values.
fn apply(fun: &Term, arg: &Term) -> Sub {
    match fun {
        // (λx:A. N) V ⟶ N[x := V]
        Term::Lam(x, _, body) => Sub::Stepped(subst(body, x, arg)),
        // (fix f (x:A):B. N) V ⟶ N[f := fix …][x := V]
        Term::Fix(f, x, _, _, body) => {
            let unrolled = subst(body, f, fun);
            Sub::Stepped(subst(&unrolled, x, arg))
        }
        // (V : A→B ⇒p A'→B') W ⟶ (V (W : A' ⇒p̄ A)) : B ⇒p B'
        //
        // The domain cast is decorated with the complemented label:
        // function types are contravariant in their domain.
        Term::Coerce(v, c) => match (&c.source, &c.target) {
            (Type::Fun(a, b), Type::Fun(a2, b2)) => {
                let domain_cast =
                    arg.clone()
                        .cast((**a2).clone(), c.label.complement(), (**a).clone());
                let applied = Term::App(v.clone(), domain_cast.into());
                Sub::Stepped(applied.cast((**b).clone(), c.label, (**b2).clone()))
            }
            _ => panic!("applied a non-function cast value: {fun}"),
        },
        other => panic!("applied a non-function value: {other}"),
    }
}

/// Reduces a cast whose subject is a value (and which is not itself a
/// value).
fn cast_value(value: &Term, cast: &Cast) -> Sub {
    let p = cast.label;
    match (&cast.source, &cast.target) {
        // V : ι ⇒p ι ⟶ V
        (Type::Base(a), Type::Base(b)) => {
            debug_assert_eq!(a, b, "ill-typed base cast");
            Sub::Stepped(value.clone())
        }
        // V : ? ⇒p ? ⟶ V
        (Type::Dyn, Type::Dyn) => Sub::Stepped(value.clone()),
        // V : A ⇒p ? ⟶ V : A ⇒p G ⇒p ?   (A ≠ ?, A ≠ G, A ∼ G)
        (a, Type::Dyn) => {
            let g = a.ground_of().expect("source is not ? here").ty();
            debug_assert!(!a.is_ground(), "injection from ground is a value");
            Sub::Stepped(
                value
                    .clone()
                    .cast(a.clone(), p, g.clone())
                    .cast(g, p, Type::Dyn),
            )
        }
        (Type::Dyn, a) => {
            match a.as_ground() {
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
                            Sub::Stepped((**w).clone())
                        } else {
                            // V : G ⇒q ? ⇒p H ⟶ blame p   (G ≠ H)
                            Sub::Raise(p)
                        }
                    }
                    other => panic!("value of type ? is not an injection: {other}"),
                },
                // V : ? ⇒p A ⟶ V : ? ⇒p G ⇒p A   (A ≠ ?, A ≠ G, A ∼ G)
                None => {
                    let g = a.ground_of().expect("target is not ? here").ty();
                    Sub::Stepped(
                        value
                            .clone()
                            .cast(Type::Dyn, p, g.clone())
                            .cast(g, p, a.clone()),
                    )
                }
            }
        }
        (a, b) => panic!("ill-typed cast from `{a}` to `{b}` reached evaluation"),
    }
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
    let ty = type_of(term)?;
    let mut current = term.clone();
    let mut steps = 0u64;
    let mut peak_size = current.size();
    let mut peak_casts = current.cast_count();
    loop {
        match step(&current, &ty) {
            Step::Value => {
                return Ok(Run {
                    outcome: Outcome::Value(current),
                    steps,
                    peak_size,
                    peak_casts,
                })
            }
            Step::Blame(p) => {
                return Ok(Run {
                    outcome: Outcome::Blame(p),
                    steps,
                    peak_size,
                    peak_casts,
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
                        peak_casts,
                    });
                }
                steps += 1;
                peak_size = peak_size.max(next.size());
                peak_casts = peak_casts.max(next.cast_count());
                current = next;
            }
        }
    }
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

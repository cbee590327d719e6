//! The small-step reduction shared by λB, λC and λS (Figures 1, 3
//! and 5).
//!
//! The three calculi share their evaluation contexts: left-to-right,
//! call-by-value, with the cast form evaluated under `E[□⟨K⟩]`. They
//! share β for `λ` and `fix`, the rule `E[blame p] ⟶ blame p` (for
//! `E ≠ □`, in one step), and the proxy rule for a function cast
//! applied to a value:
//!
//! ```text
//! E[(V⟨c⟩) W] ⟶ E[(V (W⟨dom c⟩))⟨cod c⟩]
//! ```
//!
//! What differs is written by each calculus as an implementation of
//! [`Reduce`]: how a cast over a value contracts, how a function cast
//! splits into its domain and codomain casts, and λS's merge rule.
//! This module holds the rest: the congruence walk, the result types
//! and a fueled loop that can park between slices ([`start`],
//! [`resume`]) and whose one-slice form is [`run`].
//!
//! A run records two space measures: the peak term size and the peak
//! of the calculus's cast measure ([`Reduce::cast_measure`]). These
//! grow without bound in the space-leak examples of §1 and stay
//! bounded in λS. Ill-typed input and fuel exhaustion are reported as
//! the typed [`RunError`], never as panics or sentinel outcomes.

use std::fmt;

use crate::term::{subst, CastForm, Term};
use crate::{Constant, Ground, Label, Type};

/// The result of attempting one reduction step on a closed term.
#[derive(Debug, Clone, PartialEq)]
pub enum Step<K> {
    /// `M ⟶ N`: the term took one step to `N`.
    Next(Term<K>),
    /// The term is a value; no rule applies.
    Value,
    /// The term is `blame p`; evaluation has aborted.
    Blame(Label),
}

/// The final outcome of evaluating a term: every evaluation that
/// completes either converges to a value or allocates blame. Fuel
/// exhaustion is *not* an outcome — [`run`] reports it as the typed
/// error [`RunError::FuelExhausted`], so callers can never mistake a
/// truncated run for a completed one.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<K> {
    /// Evaluation converged to a value.
    Value(Term<K>),
    /// Evaluation allocated blame to a label.
    Blame(Label),
}

/// Why a fueled run produced no [`Outcome`]; `E` is the calculus's
/// type error.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError<E> {
    /// The term is not closed and well typed; the reduction rules are
    /// only defined on well-typed terms.
    IllTyped(E),
    /// The fuel bound was reached; the term may diverge.
    FuelExhausted {
        /// Steps actually taken before fuel ran out (equals the fuel
        /// bound).
        steps: u64,
        /// The largest term size observed up to the cutoff — the
        /// truncated run's space measurement, so a leak stays
        /// measurable on genuinely diverging programs.
        peak_size: usize,
        /// The largest cast measure observed up to the cutoff.
        peak_cast_measure: usize,
    },
}

impl<E: fmt::Display> fmt::Display for RunError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::IllTyped(e) => write!(f, "ill-typed program: {e}"),
            RunError::FuelExhausted { steps, .. } => {
                write!(f, "fuel exhausted after {steps} steps")
            }
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for RunError<E> {}

impl<E> From<E> for RunError<E> {
    fn from(e: E) -> RunError<E> {
        RunError::IllTyped(e)
    }
}

/// Metrics and result of a fueled run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run<K> {
    /// The final outcome.
    pub outcome: Outcome<K>,
    /// How many reduction steps were taken.
    pub steps: u64,
    /// The largest term size observed during evaluation.
    pub peak_size: usize,
    /// The largest cast measure ([`Reduce::cast_measure`]) observed
    /// during evaluation.
    pub peak_cast_measure: usize,
}

/// What a cast over a value is, when the two form a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wrapper {
    /// A function proxy: a function cast over a function value.
    Proxy,
    /// An injection into `?` at the ground type `G`.
    Injection(Ground),
}

/// The rules of one calculus that the shared small-step does not know:
/// implemented on a marker type per calculus (`bc_lambda_b::LambdaB`,
/// `bc_lambda_c::LambdaC`, `bc_core::LambdaS`).
pub trait Reduce {
    /// The calculus's cast form.
    type Cast: CastForm + Clone + fmt::Display;
    /// The calculus's type error, carried by [`RunError::IllTyped`].
    type TypeError;
    /// State the merge hook keeps across the steps of one run.
    type MergeCtx: Default;

    /// Contracts `V⟨c⟩`, where `V` is a value and `V⟨c⟩` is not: the
    /// term it steps to, or the label it blames.
    ///
    /// # Errors
    ///
    /// The blamed label, when the cast fails.
    fn contract(value: &Term<Self::Cast>, cast: &Self::Cast) -> Result<Term<Self::Cast>, Label>;

    /// The domain and codomain casts of a function cast: the `dom c`
    /// and `cod c` of the proxy rule.
    fn split(cast: &Self::Cast) -> (Self::Cast, Self::Cast);

    /// What `cast` over a value is, given that the two form a value.
    fn wrapper(cast: &Self::Cast) -> Wrapper;

    /// The second space measure of a term (the first is its size).
    fn cast_measure(term: &Term<Self::Cast>) -> usize;

    /// Merges `M⟨inner⟩⟨outer⟩` into `M⟨c⟩`, before anything steps
    /// inside it; `None` (the default) steps inside instead.
    fn merge(
        _ctx: &mut Self::MergeCtx,
        _inner: &Self::Cast,
        _outer: &Self::Cast,
    ) -> Option<Self::Cast> {
        None
    }
}

/// Result of reducing a subterm in evaluation position.
enum Sub<K> {
    Stepped(Term<K>),
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
/// Panics if the term is open or ill-typed; the reduction rules are
/// only defined on well-typed terms.
pub fn step<R: Reduce>(
    ctx: &mut R::MergeCtx,
    term: &Term<R::Cast>,
    program_ty: &Type,
) -> Step<R::Cast> {
    if let Term::Blame(p, _) = term {
        return Step::Blame(*p);
    }
    match step_sub::<R>(ctx, term) {
        Sub::Stepped(t) => Step::Next(t),
        Sub::Raise(p) => Step::Next(Term::Blame(p, program_ty.clone())),
        Sub::Value => Step::Value,
    }
}

fn step_sub<R: Reduce>(ctx: &mut R::MergeCtx, term: &Term<R::Cast>) -> Sub<R::Cast> {
    if term.is_value() {
        return Sub::Value;
    }
    match term {
        Term::Const(_) | Term::Lam(_, _, _) | Term::Fix(_, _, _, _, _) => Sub::Value,
        Term::Var(x) => panic!("evaluation reached a free variable `{x}`"),
        Term::Blame(p, _) => Sub::Raise(*p),
        Term::Op(op, args) => {
            for (i, arg) in args.iter().enumerate() {
                match step_sub::<R>(ctx, arg) {
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
        Term::If(cond, then_, else_) => match step_sub::<R>(ctx, cond) {
            Sub::Stepped(c2) => Sub::Stepped(Term::If(c2.into(), then_.clone(), else_.clone())),
            Sub::Raise(p) => Sub::Raise(p),
            Sub::Value => match &**cond {
                Term::Const(Constant::Bool(true)) => Sub::Stepped((**then_).clone()),
                Term::Const(Constant::Bool(false)) => Sub::Stepped((**else_).clone()),
                other => panic!("if condition is not a boolean: {other}"),
            },
        },
        Term::Let(x, m, n) => match step_sub::<R>(ctx, m) {
            Sub::Stepped(m2) => Sub::Stepped(Term::Let(x.clone(), m2.into(), n.clone())),
            Sub::Raise(p) => Sub::Raise(p),
            Sub::Value => Sub::Stepped(subst(n, x, m)),
        },
        Term::App(l, m) => match step_sub::<R>(ctx, l) {
            Sub::Stepped(l2) => Sub::Stepped(Term::App(l2.into(), m.clone())),
            Sub::Raise(p) => Sub::Raise(p),
            Sub::Value => match step_sub::<R>(ctx, m) {
                Sub::Stepped(m2) => Sub::Stepped(Term::App(l.clone(), m2.into())),
                Sub::Raise(p) => Sub::Raise(p),
                Sub::Value => apply::<R>(l, m),
            },
        },
        Term::Coerce(m, outer) => {
            if let Term::Coerce(inner_term, inner) = &**m {
                if let Some(merged) = R::merge(ctx, inner, outer) {
                    return Sub::Stepped(Term::Coerce(inner_term.clone(), merged));
                }
            }
            match step_sub::<R>(ctx, m) {
                Sub::Stepped(m2) => Sub::Stepped(Term::Coerce(m2.into(), outer.clone())),
                Sub::Raise(p) => Sub::Raise(p),
                Sub::Value => match R::contract(m, outer) {
                    Ok(t) => Sub::Stepped(t),
                    Err(p) => Sub::Raise(p),
                },
            }
        }
    }
}

/// Contracts an application whose both sides are values.
fn apply<R: Reduce>(fun: &Term<R::Cast>, arg: &Term<R::Cast>) -> Sub<R::Cast> {
    match fun {
        // (λx:A. N) V ⟶ N[x := V]
        Term::Lam(x, _, body) => Sub::Stepped(subst(body, x, arg)),
        // (fix f (x:A):B. N) V ⟶ N[f := fix …][x := V]
        Term::Fix(f, x, _, _, body) => {
            let unrolled = subst(body, f, fun);
            Sub::Stepped(subst(&unrolled, x, arg))
        }
        // (V⟨c⟩) W ⟶ (V (W⟨dom c⟩))⟨cod c⟩
        Term::Coerce(v, c) => {
            let (dom, cod) = R::split(c);
            let applied = Term::App(v.clone(), arg.clone().coerce(dom).into());
            Sub::Stepped(applied.coerce(cod))
        }
        other => panic!("applied a non-function value: {other}"),
    }
}

/// A run parked between fuel slices: the current term, the program's
/// type, the merge state and the counters.
pub struct Paused<R: Reduce> {
    term: Term<R::Cast>,
    ty: Type,
    ctx: R::MergeCtx,
    steps: u64,
    peak_size: usize,
    peak_cast_measure: usize,
    fuel: u64,
}

impl<R: Reduce> Paused<R> {
    /// Reduction steps taken so far, across all slices.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

/// Result of driving a resumable run for one slice: either it
/// finished, or the slice ran out first and the run parked itself.
///
/// Every engine checks **fuel before slice**: a slice at least as
/// large as the remaining fuel can never park, so `resume(start(..,
/// fuel), fuel)` is exactly the unsliced run.
#[derive(Debug)]
pub enum Slice<P, T> {
    /// The run finished; no run state remains.
    Done(T),
    /// Preempted: the parked state resumes where it left off.
    Parked(P),
}

impl<P, T> Slice<P, T> {
    /// The finished run of a slice that covered the whole fuel.
    ///
    /// # Panics
    ///
    /// Panics if the run parked, which such a slice cannot.
    pub fn finished(self) -> T {
        match self {
            Slice::Done(t) => t,
            Slice::Parked(_) => unreachable!("a slice of the whole fuel cannot park"),
        }
    }

    /// Drives the run to its end, handing each parked state to
    /// `resume` for one more slice.
    pub fn finish(self, mut resume: impl FnMut(P) -> Slice<P, T>) -> T {
        let mut slice = self;
        loop {
            match slice {
                Slice::Done(t) => return t,
                Slice::Parked(p) => slice = resume(p),
            }
        }
    }
}

/// What [`resume`] returns for the calculus `R`.
pub type Resumed<R> =
    Slice<Paused<R>, Result<Run<<R as Reduce>::Cast>, RunError<<R as Reduce>::TypeError>>>;

/// Begins a resumable run of a closed term of type `ty`, which the
/// caller has checked. No steps are taken; drive it with [`resume`].
pub fn start<R: Reduce>(term: &Term<R::Cast>, ty: Type, fuel: u64) -> Paused<R> {
    Paused {
        term: term.clone(),
        ty,
        ctx: R::MergeCtx::default(),
        steps: 0,
        peak_size: term.size(),
        peak_cast_measure: R::cast_measure(term),
        fuel,
    }
}

/// Runs a parked run for at most `slice` further steps.
///
/// Fuel and slices count the same unit (one reduction step, charged
/// before the step commits), and the park check yields to the final
/// fuel/value decision once the fuel line is reached: at `steps ==
/// fuel` a value still completes and a pending step is fuel
/// exhaustion. So a slice at least as large as the remaining fuel can
/// never park, and `resume(start(t, ty, f), f)` is exactly
/// [`run`]`(t, ty, f)`, step counts and peaks included.
///
/// # Panics
///
/// Panics if the term is open or ill-typed.
pub fn resume<R: Reduce>(paused: Paused<R>, slice: u64) -> Resumed<R> {
    let Paused {
        mut term,
        ty,
        mut ctx,
        mut steps,
        mut peak_size,
        mut peak_cast_measure,
        fuel,
    } = paused;
    let until = steps.saturating_add(slice);
    loop {
        if steps < fuel && steps >= until {
            return Slice::Parked(Paused {
                term,
                ty,
                ctx,
                steps,
                peak_size,
                peak_cast_measure,
                fuel,
            });
        }
        let outcome = match step::<R>(&mut ctx, &term, &ty) {
            Step::Value => Outcome::Value(term),
            Step::Blame(p) => Outcome::Blame(p),
            Step::Next(next) => {
                // Charge fuel *before* committing the step, so a
                // zero-fuel run reports zero steps (values still
                // complete at any fuel: Step::Value finishes above).
                if steps >= fuel {
                    return Slice::Done(Err(RunError::FuelExhausted {
                        steps,
                        peak_size,
                        peak_cast_measure,
                    }));
                }
                steps += 1;
                peak_size = peak_size.max(next.size());
                peak_cast_measure = peak_cast_measure.max(R::cast_measure(&next));
                term = next;
                continue;
            }
        };
        return Slice::Done(Ok(Run {
            outcome,
            steps,
            peak_size,
            peak_cast_measure,
        }));
    }
}

/// Evaluates a closed term of type `ty` (which the caller has checked)
/// for at most `fuel` steps: [`resume`] with one slice of the whole
/// fuel.
///
/// # Errors
///
/// Returns [`RunError::FuelExhausted`] (carrying the steps actually
/// taken and the peaks up to the cutoff) if the fuel bound is reached.
///
/// # Panics
///
/// Panics if the term is open or ill-typed.
pub fn run<R: Reduce>(
    term: &Term<R::Cast>,
    ty: Type,
    fuel: u64,
) -> Result<Run<R::Cast>, RunError<R::TypeError>> {
    resume(start::<R>(term, ty, fuel), fuel).finished()
}

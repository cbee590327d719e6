//! Executable bisimulation checkers.
//!
//! * [`lockstep_bc`] — co-executes a λB term and its `|·|BC`
//!   translation, checking that *every single step* commutes with the
//!   translation (Proposition 11: the bisimulation is lockstep).
//! * [`aligned_cs`] — co-executes a λC term and its `|·|CS`
//!   translation. The bisimulation `≈` of Figure 6 is *not* lockstep:
//!   one λC step corresponds to zero or more λS steps and vice versa.
//!   We check it by comparing the two reduction traces after
//!   *normalisation* (eagerly merging adjacent coercions and erasing
//!   identity coercions — the closure of rules (i) and (ii) of
//!   Figure 6): the λS trace's distinct normal forms must appear as a
//!   subsequence of the λC trace's, and the outcomes must agree.
//! * [`Observation`] — the common observable of final values across
//!   all three calculi, used for Kleene-style outcome comparisons
//!   (Definition 6).

use std::fmt;

use bc_core as ls;
use bc_core::arena::MergeCtx;
use bc_core::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
use bc_lambda_b as lb;
use bc_lambda_c as lc;
use bc_syntax::reduce::{self, Outcome, Reduce, Run, RunError, Step, Wrapper};
use bc_syntax::term::Term;
use bc_syntax::{Constant, Ground, Label, Type};

use crate::b_to_c::term_b_to_c;
use crate::c_to_s::{term_c_to_s, term_c_to_s_in};

/// The observable shape of an evaluation outcome, shared by all three
/// calculi: enough to compare results across translations without
/// comparing function bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// A base-type constant.
    Constant(Constant),
    /// A function value (possibly wrapped in function casts/coercions).
    Function,
    /// A value injected into `?` at a ground type, with the
    /// observation of its payload.
    Injected(Ground, Box<Observation>),
    /// Blame allocated to a label.
    Blame(Label),
    /// Fuel exhausted.
    Timeout,
}

impl std::fmt::Display for Observation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Observation::Constant(k) => write!(f, "{k}"),
            Observation::Function => f.write_str("<function>"),
            Observation::Injected(g, payload) => write!(f, "{payload} (dynamic, tagged {g})"),
            Observation::Blame(p) => write!(f, "blame {p}"),
            Observation::Timeout => f.write_str("<timeout>"),
        }
    }
}

/// Observes an outcome of the calculus `R`.
pub fn observe<R: Reduce>(outcome: &Outcome<R::Cast>) -> Observation {
    match outcome {
        Outcome::Value(v) => observe_value::<R>(v),
        Outcome::Blame(p) => Observation::Blame(*p),
    }
}

/// Observes a run of the calculus `R`, mapping fuel exhaustion to
/// [`Observation::Timeout`] — the observation-level view of a run's
/// typed result for Kleene-style comparisons (where a truncated run is
/// a legitimate, comparable observation).
///
/// # Panics
///
/// Panics if the run reports an ill-typed term.
pub fn observe_run<R: Reduce>(run: &Result<Run<R::Cast>, RunError<R::TypeError>>) -> Observation
where
    R::TypeError: fmt::Display,
{
    match run {
        Ok(r) => observe::<R>(&r.outcome),
        Err(RunError::FuelExhausted { .. }) => Observation::Timeout,
        Err(RunError::IllTyped(e)) => panic!("the term is ill typed: {e}"),
    }
}

/// Observes a value of the calculus `R`: a value under a cast is a
/// function proxy or an injection ([`Reduce::wrapper`]).
fn observe_value<R: Reduce>(v: &Term<R::Cast>) -> Observation {
    match v {
        Term::Const(k) => Observation::Constant(*k),
        Term::Lam(_, _, _) | Term::Fix(_, _, _, _, _) => Observation::Function,
        Term::Coerce(inner, c) => match R::wrapper(c) {
            Wrapper::Proxy => Observation::Function,
            Wrapper::Injection(g) => Observation::Injected(g, Box::new(observe_value::<R>(inner))),
        },
        other => unreachable!("not a value: {other}"),
    }
}

/// Observes a compiled λS outcome ([`ls::eval::run_compiled`]): its
/// value is already read back into the tree grammar, so this is
/// [`observe`], kept with the arena parameter its callers pass.
pub fn observe_s_compiled(
    outcome: &ls::eval::Outcome,
    _arena: &ls::arena::CoercionArena,
) -> Observation {
    observe::<ls::LambdaS>(outcome)
}

/// Report of a successful lockstep co-execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockstepReport {
    /// Number of steps taken (identical in both calculi by
    /// Proposition 11).
    pub steps: u64,
    /// The common final observation.
    pub observation: Observation,
}

/// Co-executes a λB term and its λC translation, verifying the
/// lockstep bisimulation of Proposition 11: after every single step,
/// the translation of the λB state equals the λC state.
///
/// # Errors
///
/// Returns a description of the first violation (or a type error).
pub fn lockstep_bc(term: &lb::Term, fuel: u64) -> Result<LockstepReport, String> {
    let ty = lb::type_of(term).map_err(|e| format!("λB type error: {e}"))?;
    let mut mb = term.clone();
    let mut mc = term_b_to_c(&mb);
    let ty_c = lc::type_of(&mc).map_err(|e| format!("λC type error: {e}"))?;
    if ty_c != ty {
        return Err(format!("translation changed the type: {ty} became {ty_c}"));
    }
    let mut steps = 0u64;
    loop {
        let sb = lb::eval::step(&mb, &ty);
        let sc = lc::eval::step(&mc, &ty);
        match (sb, sc) {
            (lb::eval::Step::Next(nb), lc::eval::Step::Next(nc)) => {
                let translated = term_b_to_c(&nb);
                if translated != nc {
                    return Err(format!(
                        "lockstep broken after {steps} steps:\n λB -> {nb}\n |·|BC = {translated}\n λC -> {nc}"
                    ));
                }
                mb = nb;
                mc = nc;
                steps += 1;
                if steps >= fuel {
                    return Ok(LockstepReport {
                        steps,
                        observation: Observation::Timeout,
                    });
                }
            }
            (lb::eval::Step::Value, lc::eval::Step::Value) => {
                let ob = observe_value::<lb::LambdaB>(&mb);
                let oc = observe_value::<lc::LambdaC>(&mc);
                if ob != oc {
                    return Err(format!("final values differ: {ob:?} vs {oc:?}"));
                }
                return Ok(LockstepReport {
                    steps,
                    observation: ob,
                });
            }
            (lb::eval::Step::Blame(p), lc::eval::Step::Blame(q)) => {
                if p != q {
                    return Err(format!("blamed different labels: {p} vs {q}"));
                }
                return Ok(LockstepReport {
                    steps,
                    observation: Observation::Blame(p),
                });
            }
            (sb, sc) => {
                return Err(format!(
                    "calculi disagree after {steps} steps: λB {sb:?} vs λC {sc:?}"
                ))
            }
        }
    }
}

/// Whether a space-efficient coercion is a full identity (`id?`,
/// `idι`, or `s → t` with both components full identities) — exactly
/// the coercions erased by rule (i) of the bisimulation.
pub fn is_full_identity(s: &SpaceCoercion) -> bool {
    match s {
        SpaceCoercion::IdDyn => true,
        SpaceCoercion::Mid(Intermediate::Ground(GroundCoercion::IdBase(_))) => true,
        SpaceCoercion::Mid(Intermediate::Ground(GroundCoercion::Fun(a, b))) => {
            is_full_identity(a) && is_full_identity(b)
        }
        _ => false,
    }
}

/// Normalises a λS term by merging adjacent coercions and erasing
/// (full) identity coercions everywhere — the congruence closure of
/// rules (i) and (ii) of Figure 6. Two terms related by `≈` modulo
/// those rules have equal normal forms. The arena and compose cache
/// are the caller's: trace-alignment checkers normalise every state of a reduction
/// sequence; consecutive states share almost all their coercions, so
/// a persistent [`MergeCtx`] answers nearly every merge from the
/// compose cache.
pub fn normalize_s_in(ctx: &mut MergeCtx, term: &ls::Term) -> ls::Term {
    match term {
        ls::Term::Const(_) | ls::Term::Var(_) | ls::Term::Blame(_, _) => term.clone(),
        ls::Term::Op(op, args) => {
            ls::Term::Op(*op, args.iter().map(|a| normalize_s_in(ctx, a)).collect())
        }
        ls::Term::Lam(x, ty, b) => {
            ls::Term::Lam(x.clone(), ty.clone(), normalize_s_in(ctx, b).into())
        }
        ls::Term::App(a, b) => {
            ls::Term::App(normalize_s_in(ctx, a).into(), normalize_s_in(ctx, b).into())
        }
        ls::Term::If(c, t, e) => ls::Term::If(
            normalize_s_in(ctx, c).into(),
            normalize_s_in(ctx, t).into(),
            normalize_s_in(ctx, e).into(),
        ),
        ls::Term::Let(x, m, n) => ls::Term::Let(
            x.clone(),
            normalize_s_in(ctx, m).into(),
            normalize_s_in(ctx, n).into(),
        ),
        ls::Term::Fix(f, x, dom, cod, b) => ls::Term::Fix(
            f.clone(),
            x.clone(),
            dom.clone(),
            cod.clone(),
            normalize_s_in(ctx, b).into(),
        ),
        ls::Term::Coerce(m, s) => {
            let inner = normalize_s_in(ctx, m);
            let (subject, merged) = match inner {
                ls::Term::Coerce(mm, s2) => {
                    let combined = ctx.merge(&s2, s);
                    ((*mm).clone(), combined)
                }
                other => (other, s.clone()),
            };
            if is_full_identity(&merged) {
                subject
            } else {
                subject.coerce(merged)
            }
        }
    }
}

/// Report of a successful λC/λS trace alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignmentReport {
    /// λC steps taken.
    pub steps_c: u64,
    /// λS steps taken.
    pub steps_s: u64,
    /// The common final observation.
    pub observation: Observation,
}

/// Co-executes a λC term and its `|·|CS` translation and checks the
/// non-lockstep bisimulation of Proposition 16 via normalised traces:
/// every distinct normal form visited by λS must appear, in order,
/// among the normal forms visited by λC (λC takes *more* steps because
/// it splits compositions that λS merges in the relation), and both
/// executions must produce the same observation.
///
/// # Errors
///
/// Returns a description of the first misalignment.
pub fn aligned_cs(term: &lc::Term, fuel: u64) -> Result<AlignmentReport, String> {
    let ty_c = lc::type_of(term).map_err(|e| format!("λC type error: {e}"))?;
    let ms0 = term_c_to_s(term);
    let ty_s = ls::type_of(&ms0).map_err(|e| format!("λS type error: {e}"))?;
    if ty_s != ty_c {
        return Err(format!(
            "translation changed the type: {ty_c} became {ty_s}"
        ));
    }

    // Collect normalised traces (consecutive duplicates collapsed).
    // One merge context serves every normalisation: consecutive trace
    // states share almost all coercions, so the compose cache answers
    // nearly every merge after the first state.
    let mut ctx = MergeCtx::new();
    let push = |t: ls::Term, out: &mut Vec<ls::Term>| {
        if out.last() != Some(&t) {
            out.push(t);
        }
    };
    let mut trace_c = Vec::new();
    let (outcome_c, steps_c) = trace::<lc::LambdaC>(term, &ty_c, fuel, |mc| {
        let ms = term_c_to_s_in(&mut ctx.arena, &mut ctx.cache, mc);
        push(normalize_s_in(&mut ctx, &ms), &mut trace_c);
    });
    let mut trace_s = Vec::new();
    let (outcome_s, steps_s) = trace::<ls::LambdaS>(&ms0, &ty_s, fuel, |ms| {
        push(normalize_s_in(&mut ctx, ms), &mut trace_s);
    });

    if outcome_c != outcome_s {
        return Err(format!(
            "outcomes differ: λC {outcome_c:?} vs λS {outcome_s:?}"
        ));
    }

    // On timeout the traces were truncated at unrelated points; the
    // subsequence check is only meaningful for completed runs.
    if outcome_c != Observation::Timeout && !is_subsequence(&trace_s, &trace_c) {
        return Err(format!(
            "λS trace is not a subsequence of the λC trace\n λC trace ({} states)\n λS trace ({} states)",
            trace_c.len(),
            trace_s.len()
        ));
    }

    Ok(AlignmentReport {
        steps_c,
        steps_s,
        observation: outcome_c,
    })
}

/// Runs `term` of type `ty` for at most `fuel` steps, showing `visit`
/// every state, the first included: the run's observation and the
/// steps it took.
fn trace<R: Reduce>(
    term: &Term<R::Cast>,
    ty: &Type,
    fuel: u64,
    mut visit: impl FnMut(&Term<R::Cast>),
) -> (Observation, u64) {
    let mut ctx = R::MergeCtx::default();
    let mut m = term.clone();
    let mut steps = 0u64;
    visit(&m);
    loop {
        match reduce::step::<R>(&mut ctx, &m, ty) {
            Step::Next(n) => {
                m = n;
                steps += 1;
                visit(&m);
                if steps >= fuel {
                    return (Observation::Timeout, steps);
                }
            }
            Step::Value => return (observe_value::<R>(&m), steps),
            Step::Blame(p) => return (Observation::Blame(p), steps),
        }
    }
}

/// Whether `needle` is a (not necessarily contiguous) subsequence of
/// `haystack`.
fn is_subsequence(needle: &[ls::Term], haystack: &[ls::Term]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_lambda_b::programs;
    use bc_syntax::{BaseType, Op};

    #[test]
    fn lockstep_on_programs() {
        for (name, m) in [
            ("boundary_loop", programs::boundary_loop(6)),
            ("even_odd_mixed", programs::even_odd_mixed(5)),
            ("even_typed", programs::even_typed(7)),
            ("even_untyped", programs::even_untyped(4)),
            ("wrapped_identity", programs::wrapped_identity(3)),
        ] {
            let report = lockstep_bc(&m, 100_000)
                .unwrap_or_else(|e| panic!("lockstep failed on {name}: {e}"));
            assert_ne!(report.observation, Observation::Timeout, "{name}");
        }
    }

    #[test]
    fn lockstep_on_a_blaming_program() {
        use bc_syntax::{Label, Type};
        let m = lb::Term::int(1)
            .cast(Type::INT, Label::new(0), Type::DYN)
            .cast(Type::DYN, Label::new(1), Type::BOOL);
        let report = lockstep_bc(&m, 100).unwrap();
        assert_eq!(report.observation, Observation::Blame(Label::new(1)));
    }

    #[test]
    fn alignment_on_translated_programs() {
        for (name, m) in [
            ("boundary_loop", programs::boundary_loop(6)),
            ("even_odd_mixed", programs::even_odd_mixed(5)),
            ("even_untyped", programs::even_untyped(4)),
            ("wrapped_identity", programs::wrapped_identity(3)),
        ] {
            let mc = term_b_to_c(&m);
            let report = aligned_cs(&mc, 100_000)
                .unwrap_or_else(|e| panic!("alignment failed on {name}: {e}"));
            assert_ne!(report.observation, Observation::Timeout, "{name}");
            // The bisimulation is not lockstep: one step in λC may
            // correspond to zero or more in λS and vice versa (λC
            // splits compositions, λS pays explicit merge steps), but
            // the step counts stay within a constant factor.
            let (lo, hi) = (
                report.steps_c.min(report.steps_s),
                report.steps_c.max(report.steps_s),
            );
            assert!(hi <= 3 * lo + 10, "{name}: steps diverge: {lo} vs {hi}");
        }
    }

    #[test]
    fn normalize_merges_and_erases() {
        use bc_syntax::Label;
        let gi = Ground::Base(BaseType::Int);
        let id = GroundCoercion::IdBase(BaseType::Int);
        let m = ls::Term::int(1)
            .coerce(SpaceCoercion::inj(id.clone(), gi))
            .coerce(SpaceCoercion::proj(
                gi,
                Label::new(0),
                Intermediate::Ground(id),
            ));
        assert_eq!(normalize_s_in(&mut MergeCtx::new(), &m), ls::Term::int(1));
        let _ = Op::Add;
    }

    #[test]
    fn observations_distinguish_blame_and_values() {
        assert_ne!(
            Observation::Blame(bc_syntax::Label::new(0)),
            Observation::Blame(bc_syntax::Label::new(1))
        );
        assert_ne!(
            Observation::Constant(Constant::Int(1)),
            Observation::Function
        );
    }
}

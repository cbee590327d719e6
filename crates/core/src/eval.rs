//! Small-step reduction `M ⟶S N` for λS (Figure 5).
//!
//! The key idea (after Herman et al. and Siek–Wadler 2010) is to
//! *combine adjacent coercions before anything else*:
//!
//! ```text
//! E[(U⟨s→t⟩) V]  ⟶ E[(U (V⟨s⟩))⟨t⟩]
//! F[U⟨idι⟩]      ⟶ F[U]
//! F[U⟨id?⟩]      ⟶ F[U]
//! F[M⟨s⟩⟨t⟩]     ⟶ F[M⟨s # t⟩]        (M need not be a value!)
//! F[U⟨⊥GpH⟩]     ⟶ blame p
//! E[blame p]     ⟶ blame p             (E ≠ □)
//! ```
//!
//! The merge rule fires on arbitrary `M`, and evaluation contexts
//! never stack two coercion frames, so at any moment each evaluation-
//! context layer carries at most one coercion whose size is bounded by
//! its height (which composition preserves, Proposition 14). That is
//! the entire space-efficiency argument, made operational.
//!
//! One liberalisation relative to the paper's context grammar: Figure
//! 5 only decorates contexts with *identity-free* coercions `f`, but
//! the term translation `|·|CS` can place `id?`/`idι` on non-values
//! (e.g. `|M⟨id_A⟩|CS`), and such terms must keep evaluating for
//! progress and for the bisimulation of §4.1 to work. We therefore
//! evaluate under any *single* coercion frame; the merge rule still
//! takes priority, so determinism and the space bound are unaffected
//! (see DESIGN.md §3).

use std::fmt;

use bc_syntax::{Constant, Label, Type, TypeArena, TypeId};

use crate::arena::{CoercionArena, ComposeCache, GNode, INode, MergeCtx, SNode};
use crate::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
use crate::sterm::{SCode, STerm};
use crate::styping::type_of_interned;
use crate::subst::{subst, subst_closed};
use crate::term::Term;
use crate::typing::{type_of, TypeError};

/// The result of attempting one reduction step.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `M ⟶S N`.
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
    /// Peak total coercion size observed — bounded in λS.
    pub peak_coercion_size: usize,
}

enum Sub {
    Stepped(Term),
    Value,
    Raise(Label),
}

/// Performs one reduction step on a closed, well-typed λS term.
///
/// Uses a throwaway merge context; callers stepping repeatedly (like
/// [`run`]) should use [`step_in`] with a persistent [`MergeCtx`] so
/// repeated coercion merges hit the compose cache.
///
/// # Panics
///
/// Panics if the term is open or ill-typed.
pub fn step(term: &Term, program_ty: &Type) -> Step {
    step_in(&mut MergeCtx::new(), term, program_ty)
}

/// [`step`] with a caller-owned arena and compose cache: the merge
/// rule `F[M⟨s⟩⟨t⟩] ⟶ F[M⟨s # t⟩]` interns `s` and `t` into
/// `ctx.arena` and memoizes the composition, so a loop crossing the
/// same boundary repeatedly composes each coercion pair once.
///
/// # Panics
///
/// Panics if the term is open or ill-typed.
pub fn step_in(ctx: &mut MergeCtx, term: &Term, program_ty: &Type) -> Step {
    if let Term::Blame(p, _) = term {
        return Step::Blame(*p);
    }
    if term.is_value() {
        return Step::Value;
    }
    match step_sub(ctx, term) {
        Sub::Stepped(t) => Step::Next(t),
        Sub::Raise(p) => Step::Next(Term::Blame(p, program_ty.clone())),
        Sub::Value => unreachable!("non-value term did not step: {term}"),
    }
}

fn step_sub(ctx: &mut MergeCtx, term: &Term) -> Sub {
    if term.is_value() {
        return Sub::Value;
    }
    match term {
        Term::Const(_) | Term::Lam(_, _, _) | Term::Fix(_, _, _, _, _) => Sub::Value,
        Term::Var(x) => panic!("evaluation reached a free variable `{x}`"),
        Term::Blame(p, _) => Sub::Raise(*p),
        Term::Op(op, args) => {
            for (i, arg) in args.iter().enumerate() {
                match step_sub(ctx, arg) {
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
        Term::If(cond, then_, else_) => match step_sub(ctx, cond) {
            Sub::Stepped(c2) => Sub::Stepped(Term::If(c2.into(), then_.clone(), else_.clone())),
            Sub::Raise(p) => Sub::Raise(p),
            Sub::Value => match &**cond {
                Term::Const(Constant::Bool(true)) => Sub::Stepped((**then_).clone()),
                Term::Const(Constant::Bool(false)) => Sub::Stepped((**else_).clone()),
                other => panic!("if condition is not a boolean: {other}"),
            },
        },
        Term::Let(x, m, n) => match step_sub(ctx, m) {
            Sub::Stepped(m2) => Sub::Stepped(Term::Let(x.clone(), m2.into(), n.clone())),
            Sub::Raise(p) => Sub::Raise(p),
            Sub::Value => Sub::Stepped(subst(n, x, m)),
        },
        Term::App(l, m) => match step_sub(ctx, l) {
            Sub::Stepped(l2) => Sub::Stepped(Term::App(l2.into(), m.clone())),
            Sub::Raise(p) => Sub::Raise(p),
            Sub::Value => match step_sub(ctx, m) {
                Sub::Stepped(m2) => Sub::Stepped(Term::App(l.clone(), m2.into())),
                Sub::Raise(p) => Sub::Raise(p),
                Sub::Value => apply(l, m),
            },
        },
        Term::Coerce(m, t) => {
            // Merge FIRST: F[M⟨s⟩⟨t⟩] ⟶ F[M⟨s # t⟩], for any M —
            // through the interning arena, so the same pair is
            // composed structurally only once per run.
            if let Term::Coerce(inner, s) = &**m {
                return Sub::Stepped(Term::Coerce(inner.clone(), ctx.merge(s, t)));
            }
            match step_sub(ctx, m) {
                Sub::Stepped(m2) => Sub::Stepped(Term::Coerce(m2.into(), t.clone())),
                Sub::Raise(p) => Sub::Raise(p),
                Sub::Value => coerce_value(m, t),
            }
        }
    }
}

/// Contracts an application of values.
fn apply(fun: &Term, arg: &Term) -> Sub {
    match fun {
        Term::Lam(x, _, body) => Sub::Stepped(subst(body, x, arg)),
        Term::Fix(f, x, _, _, body) => {
            let unrolled = subst(body, f, fun);
            Sub::Stepped(subst(&unrolled, x, arg))
        }
        // (U⟨s→t⟩) V ⟶ (U (V⟨s⟩))⟨t⟩
        Term::Coerce(u, SpaceCoercion::Mid(Intermediate::Ground(GroundCoercion::Fun(s, t)))) => {
            let coerced_arg = arg.clone().coerce((**s).clone());
            Sub::Stepped(Term::App(u.clone(), coerced_arg.into()).coerce((**t).clone()))
        }
        other => panic!("applied a non-function value: {other}"),
    }
}

/// Reduces `U⟨s⟩` where `U` is an uncoerced value and the whole term
/// is not a value.
fn coerce_value(value: &Term, s: &SpaceCoercion) -> Sub {
    debug_assert!(value.is_uncoerced_value());
    match s {
        // F[U⟨id?⟩] ⟶ F[U]
        SpaceCoercion::IdDyn => Sub::Stepped(value.clone()),
        SpaceCoercion::Mid(i) => match i {
            // F[U⟨idι⟩] ⟶ F[U]
            Intermediate::Ground(GroundCoercion::IdBase(_)) => Sub::Stepped(value.clone()),
            // F[U⟨⊥GpH⟩] ⟶ blame p
            Intermediate::Fail(_, p, _) => Sub::Raise(*p),
            Intermediate::Ground(GroundCoercion::Fun(_, _)) | Intermediate::Inj(_, _) => {
                unreachable!("function coercions and injections of values are values")
            }
        },
        SpaceCoercion::Proj(_, _, _) => {
            unreachable!("an uncoerced value cannot have type ? (so no projection applies)")
        }
    }
}

/// Evaluates a closed, well-typed λS term for at most `fuel` steps.
///
/// # Errors
///
/// Returns [`RunError::IllTyped`] if the term is not closed and well
/// typed, and [`RunError::FuelExhausted`] (carrying the steps actually
/// taken) if the fuel bound is reached.
pub fn run(term: &Term, fuel: u64) -> Result<Run, RunError> {
    let ty = type_of(term)?;
    // One arena + compose cache for the whole run: a loop crossing
    // the same boundary on every iteration merges each coercion pair
    // structurally once and answers the rest from the cache.
    let mut ctx = MergeCtx::new();
    let mut current = term.clone();
    let mut steps = 0u64;
    let mut peak_size = current.size();
    let mut peak_coercion_size = current.coercion_size();
    loop {
        match step_in(&mut ctx, &current, &ty) {
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

// ---------------------------------------------------------------------
// The compiled-IR small-step: Figure 5 on `STerm`
// ---------------------------------------------------------------------

/// The result of attempting one reduction step on the compiled IR.
#[derive(Debug, Clone, PartialEq)]
pub enum StepC {
    /// `M ⟶S N`.
    Next(STerm),
    /// The term is a value.
    Value,
    /// The term is `blame p`.
    Blame(Label),
}

/// The final outcome of evaluating a compiled term.
#[derive(Debug, Clone, PartialEq)]
pub enum OutcomeC {
    /// Evaluation converged to a value.
    Value(STerm),
    /// Evaluation allocated blame.
    Blame(Label),
}

/// Metrics and result of a fueled compiled run. The peaks measure the
/// *implicit tree* sizes (each coercion handle weighs its resolved
/// tree), so they are number-for-number comparable with [`Run`] — the
/// tree small-step is the property-test oracle for this engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RunC {
    /// The final outcome.
    pub outcome: OutcomeC,
    /// Number of reduction steps taken.
    pub steps: u64,
    /// Peak term size observed (tree-equivalent measure).
    pub peak_size: usize,
    /// Peak total coercion size observed — bounded in λS.
    pub peak_coercion_size: usize,
}

enum SubC {
    Stepped(STerm),
    Value,
    Raise(Label),
}

/// Performs one reduction step on a closed, well-typed compiled λS
/// term — [`step_in`] transcribed onto the IR the machine actually
/// runs. The merge rule composes *ids* through the arena's memoized
/// [`CoercionArena::compose`], so stepping never materialises a
/// coercion tree: a loop crossing the same boundary repeatedly is pure
/// cache hits.
///
/// # Panics
///
/// Panics if the term is open or ill-typed.
pub fn step_compiled(
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    term: &STerm,
    program_ty: TypeId,
) -> StepC {
    if let STerm::Blame(p, _) = term {
        return StepC::Blame(*p);
    }
    if term.is_value(arena) {
        return StepC::Value;
    }
    match step_sub_compiled(arena, cache, term) {
        SubC::Stepped(t) => StepC::Next(t),
        SubC::Raise(p) => StepC::Next(STerm::Blame(p, program_ty)),
        SubC::Value => unreachable!("non-value compiled term did not step"),
    }
}

fn step_sub_compiled(arena: &mut CoercionArena, cache: &mut ComposeCache, term: &STerm) -> SubC {
    if term.is_value(arena) {
        return SubC::Value;
    }
    match term {
        STerm::Const(_) | STerm::Lam(_, _, _) | STerm::Fix(_, _, _, _, _) => SubC::Value,
        STerm::Var(x) => panic!("evaluation reached a free variable `{x}`"),
        STerm::Blame(p, _) => SubC::Raise(*p),
        STerm::Op(op, args) => {
            for (i, arg) in args.iter().enumerate() {
                match step_sub_compiled(arena, cache, arg) {
                    SubC::Stepped(a2) => {
                        let mut args2 = args.clone();
                        args2[i] = a2;
                        return SubC::Stepped(STerm::Op(*op, args2));
                    }
                    SubC::Raise(p) => return SubC::Raise(p),
                    SubC::Value => continue,
                }
            }
            let consts: Vec<Constant> = args
                .iter()
                .map(|a| match a {
                    STerm::Const(k) => *k,
                    _ => panic!("operator argument is not a constant"),
                })
                .collect();
            SubC::Stepped(STerm::Const(op.apply(&consts)))
        }
        STerm::If(cond, then_, else_) => match step_sub_compiled(arena, cache, cond) {
            SubC::Stepped(c2) => SubC::Stepped(STerm::If(c2.into(), then_.clone(), else_.clone())),
            SubC::Raise(p) => SubC::Raise(p),
            SubC::Value => match &**cond {
                STerm::Const(Constant::Bool(true)) => SubC::Stepped((**then_).clone()),
                STerm::Const(Constant::Bool(false)) => SubC::Stepped((**else_).clone()),
                _ => panic!("if condition is not a boolean"),
            },
        },
        STerm::Let(x, m, n) => match step_sub_compiled(arena, cache, m) {
            SubC::Stepped(m2) => SubC::Stepped(STerm::Let(x.clone(), m2.into(), n.clone())),
            SubC::Raise(p) => SubC::Raise(p),
            SubC::Value => SubC::Stepped(subst_closed(n, &[(x, m)])),
        },
        STerm::App(l, m) => match step_sub_compiled(arena, cache, l) {
            SubC::Stepped(l2) => SubC::Stepped(STerm::App(l2.into(), m.clone())),
            SubC::Raise(p) => SubC::Raise(p),
            SubC::Value => match step_sub_compiled(arena, cache, m) {
                SubC::Stepped(m2) => SubC::Stepped(STerm::App(l.clone(), m2.into())),
                SubC::Raise(p) => SubC::Raise(p),
                SubC::Value => apply_compiled(arena, l, m),
            },
        },
        STerm::Coerce(m, t) => {
            // Merge FIRST: F[M⟨s⟩⟨t⟩] ⟶ F[M⟨s # t⟩], for any M —
            // on ids through the memoized composition, so the same
            // pair is composed structurally only once per arena.
            if let STerm::Coerce(inner, s) = &**m {
                return SubC::Stepped(STerm::Coerce(inner.clone(), arena.compose(cache, *s, *t)));
            }
            match step_sub_compiled(arena, cache, m) {
                SubC::Stepped(m2) => SubC::Stepped(STerm::Coerce(m2.into(), *t)),
                SubC::Raise(p) => SubC::Raise(p),
                SubC::Value => coerce_value_compiled(arena, m, *t),
            }
        }
    }
}

/// Contracts an application of compiled values.
fn apply_compiled(arena: &CoercionArena, fun: &STerm, arg: &STerm) -> SubC {
    match fun {
        STerm::Lam(x, _, body) => SubC::Stepped(subst_closed(body, &[(x, arg)])),
        // Unrolling and β in one pass: N[f := fix f..][x := V].
        STerm::Fix(f, x, _, _, body) => SubC::Stepped(subst_closed(body, &[(f, fun), (x, arg)])),
        // (U⟨s→t⟩) V ⟶ (U (V⟨s⟩))⟨t⟩
        STerm::Coerce(u, c) => match arena.node(*c) {
            SNode::Mid(INode::Ground(GNode::Fun(s, t))) => {
                let coerced_arg = STerm::Coerce(arg.clone().into(), s);
                SubC::Stepped(STerm::Coerce(
                    STerm::App(u.clone(), coerced_arg.into()).into(),
                    t,
                ))
            }
            _ => panic!("applied a non-function coerced value"),
        },
        _ => panic!("applied a non-function value"),
    }
}

/// Reduces `U⟨s⟩` where `U` is an uncoerced value and the whole term
/// is not a value, deciding the rule from the interned node.
fn coerce_value_compiled(
    arena: &CoercionArena,
    value: &STerm,
    s: crate::arena::CoercionId,
) -> SubC {
    debug_assert!(value.is_uncoerced_value());
    match arena.node(s) {
        // F[U⟨id?⟩] ⟶ F[U]
        SNode::IdDyn => SubC::Stepped(value.clone()),
        SNode::Mid(i) => match i {
            // F[U⟨idι⟩] ⟶ F[U]
            INode::Ground(GNode::IdBase(_)) => SubC::Stepped(value.clone()),
            // F[U⟨⊥GpH⟩] ⟶ blame p
            INode::Fail(_, p, _) => SubC::Raise(p),
            INode::Ground(GNode::Fun(_, _)) | INode::Inj(_, _) => {
                unreachable!("function coercions and injections of values are values")
            }
        },
        SNode::Proj(_, _, _) => {
            unreachable!("an uncoerced value cannot have type ? (so no projection applies)")
        }
    }
}

/// Evaluates a closed, well-typed compiled λS program for at most
/// `fuel` steps — [`run`] on interned ids, against caller-owned
/// arenas. The program's code block is decoded into a named [`STerm`]
/// once, at the start; each step then substitutes closed values
/// ([`subst_closed`]: no free-variable sets, no renaming) and measures
/// the space peaks in one walk. This is the production engine; the tree
/// [`run`] is its property-test oracle (same outcome, same step count,
/// same space peaks — pinned by the equivalence suite in
/// `tests/`/testkit).
///
/// # Errors
///
/// Returns [`RunError::IllTyped`] if the term is not closed and well
/// typed, and [`RunError::FuelExhausted`] (carrying the steps actually
/// taken) if the fuel bound is reached.
pub fn run_compiled(
    code: &SCode,
    fuel: u64,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    types: &mut TypeArena,
) -> Result<RunC, RunError> {
    let paused = start_compiled(code, fuel, arena, types)?;
    match resume_compiled(paused, fuel, arena, cache) {
        SliceC::Done(r) => r,
        SliceC::Parked(_) => unreachable!("a slice of the whole fuel cannot park"),
    }
}

/// A preempted compiled small-step run, parked between fuel slices.
///
/// Small-step state is just the current term plus counters: the term
/// is its own continuation, so parking holds no stack at all. The
/// program type is interned once at [`start_compiled`] and reused by
/// every slice, exactly as the unsliced [`run_compiled`] computes it
/// once up front. The `STerm` spine is `Rc`-shared, so a parked run
/// is not `Send`.
#[derive(Debug, Clone)]
pub struct PausedC {
    current: STerm,
    ty: TypeId,
    steps: u64,
    peak_size: usize,
    peak_coercion_size: usize,
    fuel: u64,
}

impl PausedC {
    /// Reduction steps taken so far, across all slices.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

/// Result of driving a compiled run for one fuel slice.
#[derive(Debug)]
pub enum SliceC {
    /// The run finished — value, blame, or fuel exhaustion.
    Done(Result<RunC, RunError>),
    /// Preempted between steps; resume to continue.
    Parked(PausedC),
}

/// Begins a resumable compiled run: decodes the code block into the
/// named term the steps rewrite, interns the program type (the
/// once-per-run costs the unsliced engine also pays up front) and
/// parks before the first step.
///
/// # Errors
///
/// Returns [`RunError::IllTyped`] if the term is not closed and well
/// typed.
pub fn start_compiled(
    code: &SCode,
    fuel: u64,
    arena: &mut CoercionArena,
    types: &mut TypeArena,
) -> Result<PausedC, RunError> {
    let current = code.decode();
    let ty = type_of_interned(&current, arena, types)?;
    // Tree-equivalent measures: node count includes each coercion's
    // implicit tree size, matching `Term::size`/`Term::coercion_size`.
    let (peak_size, peak_coercion_size) = current.measure(arena);
    Ok(PausedC {
        current,
        ty,
        steps: 0,
        peak_size,
        peak_coercion_size,
        fuel,
    })
}

/// Runs a parked compiled run for at most `slice` further steps.
///
/// Fuel and slices count the same unit (one reduction step, charged
/// before the step commits), and the park check yields to the final
/// fuel/value decision once the fuel line is reached — so a slice at
/// least as large as the remaining fuel can never park, and
/// `resume_compiled(start_compiled(t, f, ..)?, f, ..)` is exactly
/// [`run_compiled`]`(t, f, ..)`, step counts and peaks included.
///
/// # Panics
///
/// Panics if the term is open or ill-typed (checked by
/// [`start_compiled`]) or its ids are foreign to `arena`.
pub fn resume_compiled(
    paused: PausedC,
    slice: u64,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
) -> SliceC {
    let PausedC {
        mut current,
        ty,
        mut steps,
        mut peak_size,
        mut peak_coercion_size,
        fuel,
    } = paused;
    let until = steps.saturating_add(slice);
    loop {
        // Park only strictly below the fuel line: at `steps == fuel`
        // the unsliced engine still distinguishes a value (completes)
        // from a pending step (FuelExhausted), so let the step
        // dispatch below make that call.
        if steps >= until && steps < fuel {
            return SliceC::Parked(PausedC {
                current,
                ty,
                steps,
                peak_size,
                peak_coercion_size,
                fuel,
            });
        }
        match step_compiled(arena, cache, &current, ty) {
            StepC::Value => {
                return SliceC::Done(Ok(RunC {
                    outcome: OutcomeC::Value(current),
                    steps,
                    peak_size,
                    peak_coercion_size,
                }))
            }
            StepC::Blame(p) => {
                return SliceC::Done(Ok(RunC {
                    outcome: OutcomeC::Blame(p),
                    steps,
                    peak_size,
                    peak_coercion_size,
                }))
            }
            StepC::Next(next) => {
                // Charge fuel *before* committing the step, exactly as
                // the tree engine does.
                if steps >= fuel {
                    return SliceC::Done(Err(RunError::FuelExhausted {
                        steps,
                        peak_size,
                        peak_coercion_size,
                    }));
                }
                steps += 1;
                let (size, coercion_size) = next.measure(arena);
                peak_size = peak_size.max(size);
                peak_coercion_size = peak_coercion_size.max(coercion_size);
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
    fn id_int() -> GroundCoercion {
        GroundCoercion::IdBase(BaseType::Int)
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
    fn merge_fires_before_evaluation() {
        // (1+1)⟨idInt;Int!⟩⟨Int?p;idInt⟩ first merges the coercions to
        // idInt, *then* evaluates the sum.
        let m = Term::op2(Op::Add, Term::int(1), Term::int(1))
            .coerce(SpaceCoercion::inj(id_int(), gi()))
            .coerce(SpaceCoercion::proj(
                gi(),
                p(0),
                Intermediate::Ground(id_int()),
            ));
        let ty = type_of(&m).unwrap();
        match step(&m, &ty) {
            Step::Next(n) => {
                assert_eq!(
                    n,
                    Term::op2(Op::Add, Term::int(1), Term::int(1))
                        .coerce(SpaceCoercion::id_base(BaseType::Int))
                );
            }
            other => panic!("expected merge step, got {other:?}"),
        }
        assert_eq!(eval_value(&m), Term::int(2));
    }

    #[test]
    fn round_trip_collapses() {
        let m = Term::int(7)
            .coerce(SpaceCoercion::inj(id_int(), gi()))
            .coerce(SpaceCoercion::proj(
                gi(),
                p(0),
                Intermediate::Ground(id_int()),
            ));
        assert_eq!(eval_value(&m), Term::int(7));
    }

    #[test]
    fn mismatch_produces_failure_then_blame() {
        let m = Term::int(7)
            .coerce(SpaceCoercion::inj(id_int(), gi()))
            .coerce(SpaceCoercion::proj(
                gb(),
                p(1),
                Intermediate::Ground(GroundCoercion::IdBase(BaseType::Bool)),
            ));
        assert_eq!(eval_blame(&m), p(1));
    }

    #[test]
    fn function_coercion_application() {
        let inc = Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        );
        let s = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        let t = SpaceCoercion::inj(id_int(), gi());
        let wrapped = inc.coerce(SpaceCoercion::fun(s, t));
        let m = wrapped.app(Term::int(1).coerce(SpaceCoercion::inj(id_int(), gi())));
        assert_eq!(
            eval_value(&m),
            Term::int(2).coerce(SpaceCoercion::inj(id_int(), gi()))
        );
    }

    #[test]
    fn identity_on_non_value_still_progresses() {
        // The liberalised context: (1+1)⟨idInt⟩ evaluates under the
        // identity coercion, then unwraps.
        let m = Term::op2(Op::Add, Term::int(1), Term::int(1))
            .coerce(SpaceCoercion::id_base(BaseType::Int));
        assert_eq!(eval_value(&m), Term::int(2));
    }

    #[test]
    fn bounded_coercions_under_stacking() {
        // Stacking n round-trip coercions on a value merges them pair
        // by pair; the peak coercion size stays constant.
        fn stacked(n: usize) -> Term {
            let mut m = Term::int(1);
            for k in 0..n {
                m = m
                    .coerce(SpaceCoercion::inj(id_int(), gi()))
                    .coerce(SpaceCoercion::proj(
                        gi(),
                        p(k as u32),
                        Intermediate::Ground(id_int()),
                    ));
            }
            m
        }
        let r8 = run(&stacked(8), 10_000).unwrap();
        let r64 = run(&stacked(64), 10_000).unwrap();
        assert_eq!(r8.outcome, Outcome::Value(Term::int(1)));
        assert_eq!(r64.outcome, Outcome::Value(Term::int(1)));
        // The initial term itself is linear in n, but merging keeps
        // the *growth* nil: peak equals the initial size.
        assert_eq!(r64.peak_coercion_size, stacked(64).coercion_size());
    }

    #[test]
    fn failure_blames() {
        let m = Term::int(1).coerce(SpaceCoercion::fail(gi(), p(3), gb()));
        assert_eq!(eval_blame(&m), p(3));
    }

    #[test]
    fn compiled_run_agrees_with_tree_run() {
        use crate::sterm::compile_term;

        let inc = Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        );
        let s = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        let t = SpaceCoercion::inj(id_int(), gi());
        let samples = [
            // Value via a wrapped function.
            inc.clone()
                .coerce(SpaceCoercion::fun(s.clone(), t.clone()))
                .app(Term::int(1).coerce(SpaceCoercion::inj(id_int(), gi()))),
            // Blame via a ground mismatch.
            Term::int(7)
                .coerce(SpaceCoercion::inj(id_int(), gi()))
                .coerce(SpaceCoercion::proj(
                    gb(),
                    p(1),
                    Intermediate::Ground(GroundCoercion::IdBase(BaseType::Bool)),
                )),
            // Merge-heavy stacking.
            Term::int(1)
                .coerce(SpaceCoercion::inj(id_int(), gi()))
                .coerce(SpaceCoercion::proj(
                    gi(),
                    p(2),
                    Intermediate::Ground(id_int()),
                ))
                .coerce(SpaceCoercion::inj(id_int(), gi()))
                .coerce(SpaceCoercion::proj(
                    gi(),
                    p(3),
                    Intermediate::Ground(id_int()),
                )),
        ];
        for m in &samples {
            let tree = run(m, 10_000).unwrap();
            let mut arena = CoercionArena::new();
            let mut cache = ComposeCache::new();
            let mut types = TypeArena::new();
            let st = SCode::encode(&compile_term(m, &mut arena, &mut types));
            let compiled = run_compiled(&st, 10_000, &mut arena, &mut cache, &mut types).unwrap();
            match (&tree.outcome, &compiled.outcome) {
                (Outcome::Value(v), OutcomeC::Value(cv)) => {
                    assert_eq!(
                        crate::sterm::decompile_term(cv, &arena, &types),
                        *v,
                        "outcome of {m}"
                    );
                }
                (Outcome::Blame(l), OutcomeC::Blame(cl)) => assert_eq!(l, cl, "blame of {m}"),
                (a, b) => panic!("outcomes diverge on {m}: {a:?} vs {b:?}"),
            }
            assert_eq!(tree.steps, compiled.steps, "steps of {m}");
            assert_eq!(tree.peak_size, compiled.peak_size, "peak size of {m}");
            assert_eq!(
                tree.peak_coercion_size, compiled.peak_coercion_size,
                "peak coercion size of {m}"
            );
        }
    }

    #[test]
    fn sliced_compiled_run_is_identical_to_unsliced() {
        use crate::sterm::compile_term;

        let inc = Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        );
        let s = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        let t = SpaceCoercion::inj(id_int(), gi());
        let samples = [
            inc.clone()
                .coerce(SpaceCoercion::fun(s.clone(), t.clone()))
                .app(Term::int(1).coerce(SpaceCoercion::inj(id_int(), gi()))),
            Term::int(7)
                .coerce(SpaceCoercion::inj(id_int(), gi()))
                .coerce(SpaceCoercion::proj(
                    gb(),
                    p(1),
                    Intermediate::Ground(GroundCoercion::IdBase(BaseType::Bool)),
                )),
        ];
        // Fuel bounds chosen to exercise completion *and* exhaustion
        // (tiny fuels make even short runs time out), so the slice
        // loop must reproduce both outcomes and their step accounting.
        for fuel in [1u64, 2, 3, 10_000] {
            for m in &samples {
                let unsliced = {
                    let mut arena = CoercionArena::new();
                    let mut cache = ComposeCache::new();
                    let mut types = TypeArena::new();
                    let st = SCode::encode(&compile_term(m, &mut arena, &mut types));
                    run_compiled(&st, fuel, &mut arena, &mut cache, &mut types)
                };
                for slice in [1u64, 2, 7, fuel] {
                    let mut arena = CoercionArena::new();
                    let mut cache = ComposeCache::new();
                    let mut types = TypeArena::new();
                    let st = SCode::encode(&compile_term(m, &mut arena, &mut types));
                    let mut paused = start_compiled(&st, fuel, &mut arena, &mut types)
                        .expect("samples are well typed");
                    let mut last_steps = 0;
                    let sliced = loop {
                        match resume_compiled(paused, slice, &mut arena, &mut cache) {
                            SliceC::Done(result) => break result,
                            SliceC::Parked(next) => {
                                assert!(
                                    next.steps() >= last_steps && next.steps() < fuel,
                                    "parked runs advance and stay below the fuel line"
                                );
                                last_steps = next.steps();
                                paused = next;
                            }
                        }
                    };
                    // Identical to the letter: outcome, step count,
                    // fuel-exhaustion accounting, and space peaks.
                    assert_eq!(unsliced, sliced, "slice {slice}, fuel {fuel} of {m}");
                }
            }
        }
    }

    #[test]
    fn compiled_run_rejects_ill_typed_terms() {
        use crate::sterm::compile_term;
        let bad = Term::op2(Op::Add, Term::int(1), Term::Const(Constant::Bool(true)));
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let mut types = TypeArena::new();
        let st = SCode::encode(&compile_term(&bad, &mut arena, &mut types));
        assert!(matches!(
            run_compiled(&st, 10, &mut arena, &mut cache, &mut types),
            Err(RunError::IllTyped(_))
        ));
    }

    #[test]
    fn preservation_along_a_run() {
        let inc = Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        );
        let s = SpaceCoercion::proj(gi(), p(0), Intermediate::Ground(id_int()));
        let t = SpaceCoercion::inj(id_int(), gi());
        let m = inc
            .coerce(SpaceCoercion::fun(s, t))
            .app(Term::int(1).coerce(SpaceCoercion::inj(id_int(), gi())))
            .coerce(SpaceCoercion::proj(
                gi(),
                p(4),
                Intermediate::Ground(id_int()),
            ));
        let ty = type_of(&m).unwrap();
        let mut cur = m;
        let mut ctx = MergeCtx::new();
        loop {
            match step_in(&mut ctx, &cur, &ty) {
                Step::Next(n) => {
                    assert_eq!(type_of(&n), Ok(ty.clone()), "preservation at {n}");
                    cur = n;
                }
                Step::Value => {
                    assert_eq!(cur, Term::int(2));
                    break;
                }
                Step::Blame(l) => panic!("unexpected blame {l}"),
            }
        }
    }
}

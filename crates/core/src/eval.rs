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
//!
//! Two engines implement the relation. [`run`] steps [`Term`] trees
//! by walking from the root to the redex each time; it is the oracle.
//! [`run_compiled`] runs compiled programs on a focused state: the
//! subterm in focus plus the evaluation-context frames around it
//! (a coercion frame is never pushed onto another, which is the
//! merge rule again). It finds each next redex by refocusing from the
//! last contractum and tracks the space peaks by per-rule deltas.

use std::fmt;
use std::rc::Rc;

use bc_syntax::{Constant, Label, Name, Op, Type, TypeArena, TypeId};

use crate::arena::{CoercionArena, CoercionId, ComposeCache, GNode, INode, MergeCtx, SNode};
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

/// One layer of the evaluation context around the focus of a compiled
/// run. Everything a frame holds to the left of the hole is a value.
#[derive(Debug, Clone)]
enum Frame {
    /// `op(□, N)`, `op(k, □)` or `op(□)`: every operator takes one or
    /// two operands, so at most one constant waits beside the hole.
    Op(Op, Option<Constant>, Option<STerm>),
    /// `if □ then M else N`.
    If(Rc<STerm>, Rc<STerm>),
    /// `let x = □ in N`.
    Let(Name, Rc<STerm>),
    /// `□ M`.
    AppFun(Rc<STerm>),
    /// `V □`.
    AppArg(STerm),
    /// `□⟨t⟩`. Never directly inside another coercion frame: a
    /// coercion meeting one merges instead of descending.
    Coerce(CoercionId),
}

/// The next redex, taken apart: the frames it spans are popped.
enum Redex {
    /// `M⟨s⟩⟨t⟩`.
    Merge(Rc<STerm>, CoercionId, CoercionId),
    /// `U⟨s⟩` that is not a value: `s` is an identity or a failure.
    Coerce(STerm, CoercionId),
    /// `blame p` under at least one frame.
    Raise(Label),
    /// `op(k)` or `op(k, k')`.
    Op(Op, Option<Constant>, Constant),
    /// `if V then M else N`.
    If(STerm, Rc<STerm>, Rc<STerm>),
    /// `let x = V in N`.
    Let(Name, STerm, Rc<STerm>),
    /// `V W`.
    App(STerm, STerm),
}

fn take(t: Rc<STerm>) -> STerm {
    Rc::try_unwrap(t).unwrap_or_else(|t| (*t).clone())
}

fn constant(t: &STerm) -> Constant {
    match t {
        STerm::Const(k) => *k,
        _ => panic!("operator argument is not a constant"),
    }
}

/// Finds the next redex of `frames[focus]`, starting at the focus: a
/// non-value focus is descended into, a value focus ascends, and a
/// coercion meeting a coercion frame merges before anything inside
/// it. The refocusing invariant — frames hold values to the left of
/// their hole — makes this the redex the tree [`step_in`] finds by
/// walking from the root. `Err` is the run's outcome: a value or
/// `blame p` with no frame left.
fn refocus(
    frames: &mut Vec<Frame>,
    mut focus: STerm,
    arena: &CoercionArena,
) -> Result<Redex, OutcomeC> {
    loop {
        // Merge FIRST: F[M⟨s⟩⟨t⟩] ⟶ F[M⟨s # t⟩], for any M.
        if let (STerm::Coerce(_, _), Some(&Frame::Coerce(t))) = (&focus, frames.last()) {
            frames.pop();
            let STerm::Coerce(m, s) = focus else {
                unreachable!()
            };
            return Ok(Redex::Merge(m, s, t));
        }
        if focus.is_value(arena) {
            let Some(frame) = frames.pop() else {
                return Err(OutcomeC::Value(focus));
            };
            focus = match frame {
                // The focus is uncoerced here (a coerced one merged).
                Frame::Coerce(s) => match arena.node(s) {
                    SNode::Mid(INode::Ground(GNode::Fun(_, _)) | INode::Inj(_, _)) => {
                        STerm::Coerce(focus.into(), s)
                    }
                    _ => return Ok(Redex::Coerce(focus, s)),
                },
                Frame::AppFun(arg) => {
                    frames.push(Frame::AppArg(focus));
                    take(arg)
                }
                Frame::AppArg(fun) => return Ok(Redex::App(fun, focus)),
                Frame::If(then_, else_) => return Ok(Redex::If(focus, then_, else_)),
                Frame::Let(x, body) => return Ok(Redex::Let(x, focus, body)),
                Frame::Op(op, _, Some(right)) => {
                    frames.push(Frame::Op(op, Some(constant(&focus)), None));
                    right
                }
                Frame::Op(op, left, None) => return Ok(Redex::Op(op, left, constant(&focus))),
            };
            continue;
        }
        focus = match focus {
            STerm::Blame(p, _) if frames.is_empty() => return Err(OutcomeC::Blame(p)),
            STerm::Blame(p, _) => return Ok(Redex::Raise(p)),
            STerm::Var(x) => panic!("evaluation reached a free variable `{x}`"),
            STerm::Op(op, args) => {
                let mut args = args.into_iter();
                let (Some(first), right, None) = (args.next(), args.next(), args.next()) else {
                    panic!("operator {op} takes one or two operands");
                };
                frames.push(Frame::Op(op, None, right));
                first
            }
            STerm::If(cond, then_, else_) => {
                frames.push(Frame::If(then_, else_));
                take(cond)
            }
            STerm::Let(x, bound, body) => {
                frames.push(Frame::Let(x, body));
                take(bound)
            }
            STerm::App(fun, arg) => {
                frames.push(Frame::AppFun(arg));
                take(fun)
            }
            STerm::Coerce(m, t) => {
                frames.push(Frame::Coerce(t));
                take(m)
            }
            STerm::Const(_) | STerm::Lam(_, _, _) | STerm::Fix(_, _, _, _, _) => {
                unreachable!("uncoerced values are values")
            }
        };
    }
}

/// Replaces the `removed` part of the whole term's `(size, coercion
/// size)` with the `added` one.
fn reprice(measure: &mut (usize, usize), removed: (usize, usize), added: (usize, usize)) {
    measure.0 = measure.0 + added.0 - removed.0;
    measure.1 = measure.1 + added.1 - removed.1;
}

/// Contracts the redex refocusing found, returning the contractum as
/// the new focus and updating the whole term's `measure` from the
/// redex alone.
fn contract(
    redex: Redex,
    frames: &mut Vec<Frame>,
    measure: &mut (usize, usize),
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    program_ty: TypeId,
) -> STerm {
    let mut raise = |p| {
        frames.clear();
        *measure = (1, 0);
        STerm::Blame(p, program_ty)
    };
    match redex {
        // F[M⟨s⟩⟨t⟩] ⟶ F[M⟨s # t⟩], on ids through the memoized
        // composition, so the same pair is composed structurally only
        // once per arena.
        Redex::Merge(m, s, t) => {
            let u = arena.compose(cache, s, t);
            let (s, t, su) = (arena.size(s), arena.size(t), arena.size(u));
            reprice(measure, (1 + s + t, s + t), (su, su));
            STerm::Coerce(m, u)
        }
        Redex::Coerce(value, s) => match arena.node(s) {
            // F[U⟨id?⟩] ⟶ F[U] and F[U⟨idι⟩] ⟶ F[U]
            SNode::IdDyn | SNode::Mid(INode::Ground(GNode::IdBase(_))) => {
                let c = arena.size(s);
                reprice(measure, (1 + c, c), (0, 0));
                value
            }
            // F[U⟨⊥GpH⟩] ⟶ blame p
            SNode::Mid(INode::Fail(_, p, _)) => raise(p),
            _ => unreachable!("coerced values and projections of uncoerced values do not step"),
        },
        // E[blame p] ⟶ blame p
        Redex::Raise(p) => raise(p),
        Redex::Op(op, left, right) => {
            let (k, arity) = match left {
                Some(left) => (op.apply(&[left, right]), 2),
                None => (op.apply(&[right]), 1),
            };
            reprice(measure, (1 + arity, 0), (1, 0));
            STerm::Const(k)
        }
        Redex::If(cond, then_, else_) => {
            let (taken, dropped) = match cond {
                STerm::Const(Constant::Bool(true)) => (then_, else_),
                STerm::Const(Constant::Bool(false)) => (else_, then_),
                _ => panic!("if condition is not a boolean"),
            };
            let (size, coercion_size) = dropped.measure(arena);
            reprice(measure, (2 + size, coercion_size), (0, 0));
            take(taken)
        }
        Redex::Let(x, value, body) => beta(measure, arena, &body, &[(&x, &value)], 1),
        Redex::App(fun, arg) => match &fun {
            STerm::Lam(x, _, body) => beta(measure, arena, body, &[(x, &arg)], 2),
            // Unrolling and β in one pass: N[f := fix f..][x := V].
            STerm::Fix(f, x, _, _, body) => beta(measure, arena, body, &[(f, &fun), (x, &arg)], 2),
            // (U⟨s→t⟩) V ⟶ (U (V⟨s⟩))⟨t⟩
            STerm::Coerce(u, c) => match arena.node(*c) {
                SNode::Mid(INode::Ground(GNode::Fun(s, t))) => {
                    let (sc, ss, st) = (arena.size(*c), arena.size(s), arena.size(t));
                    reprice(measure, (sc, sc), (1 + ss + st, ss + st));
                    let coerced_arg = STerm::Coerce(arg.into(), s);
                    STerm::Coerce(STerm::App(u.clone(), coerced_arg.into()).into(), t)
                }
                _ => panic!("applied a non-function coerced value"),
            },
            _ => panic!("applied a non-function value"),
        },
    }
}

/// β for `let` and application: substitutes the closed values into
/// `body` and prices the step from the substitution's tally. The last
/// binding is the argument (or the `let`-bound value); a first of two
/// is the `fix` itself, which weighs one node more than its body.
/// `spine` counts the redex's own nodes: the `let`, or the application
/// and its λ or `fix`.
fn beta(
    measure: &mut (usize, usize),
    arena: &CoercionArena,
    body: &STerm,
    bindings: &[(&Name, &STerm)],
    spine: usize,
) -> STerm {
    let arg = bindings[bindings.len() - 1].1.measure(arena);
    let (out, tally) = subst_closed(body, bindings, arena);
    let fix = (1 + tally.measure.0, tally.measure.1);
    // Each replaced variable node now weighs its whole value.
    let mut added = (0, 0);
    for (i, &n) in tally.occurrences[..bindings.len()].iter().enumerate() {
        let value = if i + 1 == bindings.len() { arg } else { fix };
        added.0 += n * (value.0 - 1);
        added.1 += n * value.1;
    }
    reprice(measure, (spine + arg.0, arg.1), added);
    out
}

/// The whole term a focused run stands for: the focus plugged into its
/// frames.
fn plug(frames: &[Frame], focus: STerm) -> STerm {
    frames
        .iter()
        .rev()
        .fold(focus, |m, frame| match frame.clone() {
            Frame::Op(op, None, right) => STerm::Op(op, std::iter::once(m).chain(right).collect()),
            Frame::Op(op, Some(left), _) => STerm::Op(op, vec![STerm::Const(left), m]),
            Frame::If(then_, else_) => STerm::If(m.into(), then_, else_),
            Frame::Let(x, body) => STerm::Let(x, m.into(), body),
            Frame::AppFun(arg) => STerm::App(m.into(), arg),
            Frame::AppArg(fun) => STerm::App(fun.into(), m.into()),
            Frame::Coerce(t) => STerm::Coerce(m.into(), t),
        })
}

/// Evaluates a closed, well-typed compiled λS program for at most
/// `fuel` steps — [`run`] on interned ids, against caller-owned
/// arenas. The program's code block is decoded into a named [`STerm`]
/// once, at the start. The run then keeps a *focus* and the
/// evaluation-context frames around it, and finds each next redex by
/// refocusing from the last contractum instead of walking from the
/// root. Each step rewrites the redex alone: a merge composes ids
/// through the memoized [`CoercionArena::compose`], and β substitutes
/// closed values ([`subst_closed`]: no free-variable sets, no
/// renaming). The space peaks are tracked by delta, priced from the
/// redex: arithmetic on coercion sizes, or one walk of a discarded `if`
/// branch, or of a β body (the substitution's own walk) and its
/// argument. This is the production engine; the tree [`run`] is its
/// property-test oracle (same outcome, same step count, same space
/// peaks — pinned by `tests/ir_props.rs`).
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
/// It holds the focused state: the subterm in focus, the
/// evaluation-context frames around it, and the whole term's tracked
/// size and coercion size, plus the counters. Resuming refocuses from
/// where the last slice stopped. The program type is interned once at
/// [`start_compiled`] and reused by every slice, exactly as the
/// unsliced [`run_compiled`] computes it once up front. The terms are
/// `Rc`-shared, so a parked run is not `Send`.
#[derive(Debug, Clone)]
pub struct PausedC {
    focus: STerm,
    frames: Vec<Frame>,
    measure: (usize, usize),
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
/// named term the steps rewrite, interns the program type and measures
/// the term (the once-per-run costs the unsliced engine also pays up
/// front), and parks before the first step with the whole term in
/// focus.
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
    let focus = code.decode();
    let ty = type_of_interned(&focus, arena, types)?;
    // Tree-equivalent measures: node count includes each coercion's
    // implicit tree size, matching `Term::size`/`Term::coercion_size`.
    let measure = focus.measure(arena);
    Ok(PausedC {
        focus,
        frames: Vec::new(),
        measure,
        ty,
        steps: 0,
        peak_size: measure.0,
        peak_coercion_size: measure.1,
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
        mut focus,
        mut frames,
        mut measure,
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
        // from a pending step (FuelExhausted), so let the refocus
        // below make that call.
        if steps >= until && steps < fuel {
            return SliceC::Parked(PausedC {
                focus,
                frames,
                measure,
                ty,
                steps,
                peak_size,
                peak_coercion_size,
                fuel,
            });
        }
        let redex = match refocus(&mut frames, focus, arena) {
            Ok(redex) => redex,
            Err(outcome) => {
                return SliceC::Done(Ok(RunC {
                    outcome,
                    steps,
                    peak_size,
                    peak_coercion_size,
                }))
            }
        };
        // Charge fuel *before* committing the step, exactly as the
        // tree engine does.
        if steps >= fuel {
            return SliceC::Done(Err(RunError::FuelExhausted {
                steps,
                peak_size,
                peak_coercion_size,
            }));
        }
        steps += 1;
        focus = contract(redex, &mut frames, &mut measure, arena, cache, ty);
        debug_assert_eq!(
            measure,
            plug(&frames, focus.clone()).measure(arena),
            "tracked size drifted from the term at step {steps}"
        );
        peak_size = peak_size.max(measure.0);
        peak_coercion_size = peak_coercion_size.max(measure.1);
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

    /// Runs `m` on both engines and asserts the full fingerprint:
    /// outcome, step count and both space peaks.
    fn assert_compiled_matches_tree(m: &Term) {
        use crate::sterm::compile_term;

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

    fn inc() -> Term {
        Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        )
    }

    /// `Int?p` and `Int!`, the two halves of a boundary crossing.
    fn proj_int(n: u32) -> SpaceCoercion {
        SpaceCoercion::proj(gi(), p(n), Intermediate::Ground(id_int()))
    }
    fn inj_int() -> SpaceCoercion {
        SpaceCoercion::inj(id_int(), gi())
    }

    #[test]
    fn compiled_run_agrees_with_tree_run() {
        let samples = [
            // Value via a wrapped function.
            inc()
                .coerce(SpaceCoercion::fun(proj_int(0), inj_int()))
                .app(Term::int(1).coerce(inj_int())),
            // Blame via a ground mismatch.
            Term::int(7).coerce(inj_int()).coerce(SpaceCoercion::proj(
                gb(),
                p(1),
                Intermediate::Ground(GroundCoercion::IdBase(BaseType::Bool)),
            )),
            // Merge-heavy stacking.
            Term::int(1)
                .coerce(inj_int())
                .coerce(proj_int(2))
                .coerce(inj_int())
                .coerce(proj_int(3)),
            // Recursion: each call substitutes the whole fix for f.
            Term::Fix(
                "f".into(),
                "n".into(),
                Type::INT,
                Type::INT,
                Term::If(
                    Term::op2(Op::Eq, Term::var("n"), Term::int(0)).into(),
                    Term::int(0).into(),
                    Term::var("f")
                        .app(Term::op2(Op::Sub, Term::var("n"), Term::int(1)))
                        .into(),
                )
                .into(),
            )
            .app(Term::int(3)),
        ];
        for m in &samples {
            assert_compiled_matches_tree(m);
        }
    }

    #[test]
    fn proxy_application_result_merges_with_the_enclosing_coercion() {
        // (inc⟨Int?p→Int!⟩ 1⟨Int!⟩)⟨Int?q⟩: the proxy step leaves
        // (inc 1⟨Int!⟩⟨Int?p⟩)⟨Int!⟩ in focus directly under the ⟨Int?q⟩
        // frame, and that pair must merge before anything inside.
        let m = inc()
            .coerce(SpaceCoercion::fun(proj_int(0), inj_int()))
            .app(Term::int(1).coerce(inj_int()))
            .coerce(proj_int(4));
        assert_compiled_matches_tree(&m);
    }

    #[test]
    fn blame_raised_under_three_frames() {
        // 1 + ((λx:Int. x) (let y = B in if y then 1 else 2)): the
        // blame arises under the +, argument and let frames, from a
        // failed projection and from a blame already in the program.
        let id = Term::lam("x", Type::INT, Term::var("x"));
        let failing = Term::int(7).coerce(inj_int()).coerce(SpaceCoercion::proj(
            gb(),
            p(6),
            Intermediate::Ground(GroundCoercion::IdBase(BaseType::Bool)),
        ));
        for bound in [failing, Term::Blame(p(7), Type::BOOL)] {
            let body = Term::If(
                Term::var("y").into(),
                Term::int(1).into(),
                Term::int(2).into(),
            );
            let m = Term::op2(
                Op::Add,
                Term::int(1),
                id.clone().app(Term::let_("y", bound, body)),
            );
            assert_compiled_matches_tree(&m);
        }
    }

    #[test]
    fn if_discards_a_branch_full_of_coercions() {
        let big = inc()
            .coerce(SpaceCoercion::fun(proj_int(0), inj_int()))
            .app(Term::int(3).coerce(inj_int()))
            .coerce(proj_int(1));
        for cond in [true, false] {
            let (then_, else_) = if cond {
                (Term::int(1), big.clone())
            } else {
                (big.clone(), Term::int(1))
            };
            let m = Term::If(
                Term::op2(Op::Lt, Term::int(1), Term::int(i64::from(cond) * 2)).into(),
                then_.into(),
                else_.into(),
            );
            assert_compiled_matches_tree(&m);
        }
    }

    #[test]
    fn let_bound_proxy_used_twice() {
        // let f = inc⟨Int?p→Int!⟩ in (f (f 1⟨Int!⟩))⟨Int?q⟩: both
        // occurrences of f are replaced by the whole coerced λ.
        let m = Term::let_(
            "f",
            inc().coerce(SpaceCoercion::fun(proj_int(0), inj_int())),
            Term::var("f")
                .app(Term::var("f").app(Term::int(1).coerce(inj_int())))
                .coerce(proj_int(1)),
        );
        assert_compiled_matches_tree(&m);
    }

    #[test]
    fn sliced_compiled_run_is_identical_to_unsliced() {
        use crate::sterm::compile_term;

        let samples = [
            inc()
                .coerce(SpaceCoercion::fun(proj_int(0), inj_int()))
                .app(Term::int(1).coerce(inj_int())),
            Term::int(7).coerce(inj_int()).coerce(SpaceCoercion::proj(
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

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
//! [`run_compiled`] runs a program's [`SCode`] block on a focused
//! state: the subterm in focus plus the evaluation-context frames
//! around it (a coercion frame is never pushed onto another, which is
//! the merge rule again), both holding code offsets with persistent
//! environments. It finds each next redex by refocusing from the last
//! contractum, performs β by binding instead of substituting (the step
//! after refocusing in Biernacka and Danvy's functional
//! correspondence), and tracks the space peaks of the term the state
//! stands for by per-rule deltas.

use std::fmt;
use std::rc::Rc;

use bc_syntax::{Constant, Label, Op, Type, TypeArena};

use crate::arena::{CoercionArena, CoercionId, ComposeCache, GNode, INode, MergeCtx, SNode};
use crate::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
use crate::sterm::{decompile_term, Node, SCode, STerm};
use crate::subst::subst;
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
// The compiled small-step: Figure 5 on the code block, with environments
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

/// A persistent environment of run-time values, indexed by de Bruijn
/// position: the substitution a run has performed so far, kept instead
/// of applied.
#[derive(Debug, Clone, Default)]
struct Env(Option<Rc<Bind>>);

#[derive(Debug)]
enum Bind {
    /// One binding: a `let` or a `λ` call.
    One(Value, Env),
    /// A `fix` call: the argument (index 0) and the function itself
    /// (index 1), the closure over `code` and `rest` whose closed term
    /// measures `measure` — rebuilt on lookup instead of stored.
    Fix {
        arg: Value,
        code: u32,
        measure: (usize, usize),
        rest: Env,
    },
}

impl Env {
    fn bind(self, value: Value) -> Env {
        Env(Some(Rc::new(Bind::One(value, self))))
    }

    /// Extends a `fix` closure's environment for a call: the function
    /// over `code` (and this environment) at index 1, `arg` at 0.
    fn bind_fix(self, code: u32, measure: (usize, usize), arg: Value) -> Env {
        Env(Some(Rc::new(Bind::Fix {
            arg,
            code,
            measure,
            rest: self,
        })))
    }

    fn lookup(&self, mut index: u32) -> Value {
        let mut cur = self;
        loop {
            match cur.0.as_deref() {
                None => panic!("evaluation reached a free variable"),
                Some(Bind::One(value, rest)) => {
                    if index == 0 {
                        return value.clone();
                    }
                    index -= 1;
                    cur = rest;
                }
                Some(Bind::Fix {
                    arg,
                    code,
                    measure,
                    rest,
                }) => match index {
                    0 => return arg.clone(),
                    1 => {
                        return Value::Plain(Plain::Closure {
                            code: *code,
                            env: rest.clone(),
                            measure: *measure,
                        })
                    }
                    _ => {
                        index -= 2;
                        cur = rest;
                    }
                },
            }
        }
    }
}

/// An uncoerced run-time value `U`.
#[derive(Debug, Clone)]
enum Plain {
    Const(Constant),
    /// The `λ` or `fix` node at `code` closed over `env`, with the
    /// measure of the closed term it stands for.
    Closure {
        code: u32,
        env: Env,
        measure: (usize, usize),
    },
}

/// A run-time value `V`: `U`, or `U⟨s⟩` with `s` a function coercion
/// or an injection.
#[derive(Debug, Clone)]
enum Value {
    Plain(Plain),
    Coerced(Plain, CoercionId),
}

impl Plain {
    fn measure(&self) -> (usize, usize) {
        match self {
            Plain::Const(_) => (1, 0),
            Plain::Closure { measure, .. } => *measure,
        }
    }
}

impl Value {
    /// [`STerm::measure`] of the closed term the value stands for.
    fn measure(&self, arena: &CoercionArena) -> (usize, usize) {
        match self {
            Value::Plain(u) => u.measure(),
            Value::Coerced(u, s) => {
                let (size, coercion_size) = u.measure();
                let c = arena.size(*s);
                (size + 1 + c, coercion_size + c)
            }
        }
    }

    fn constant(self) -> Constant {
        match self {
            Value::Plain(Plain::Const(k)) => k,
            _ => panic!("expected a constant"),
        }
    }
}

/// Whether `U⟨s⟩` is a value: `s` is a function coercion or an
/// injection.
fn coerces_to_value(arena: &CoercionArena, s: CoercionId) -> bool {
    matches!(
        arena.node(s),
        SNode::Mid(INode::Ground(GNode::Fun(_, _)) | INode::Inj(_, _))
    )
}

/// The `M` of a coercion `M⟨s⟩` in focus or in a merge redex.
#[derive(Debug, Clone)]
enum Inner {
    /// Code under an environment.
    Code(u32, Env),
    /// A value.
    Value(Value),
    /// `U (V⟨s⟩)`, from the proxy rule.
    Proxy(Plain, Value, CoercionId),
}

/// The subterm in focus.
#[derive(Debug, Clone)]
enum Focus {
    /// The code at an offset, its free variables bound by the
    /// environment.
    Code(u32, Env),
    /// A value.
    Value(Value),
    /// `M⟨s⟩`: a focus rather than a frame, so that it merges with an
    /// enclosing coercion frame before anything inside it steps.
    Coerce(Inner, CoercionId),
    /// `blame p`, with no frame left around it.
    Blame(Label),
}

/// One layer of the evaluation context around the focus. Everything a
/// frame holds to the left of the hole is a value.
#[derive(Debug, Clone)]
enum Frame {
    /// `op(□, N)`.
    OpLeft(Op, u32, Env),
    /// `op(k, □)` or `op(□)`.
    OpRight(Op, Option<Constant>),
    /// `if □ then M else N`.
    If(u32, u32, Env),
    /// `let x = □ in N`, holding the `let` node.
    Let(u32, Env),
    /// `□ M`.
    AppFun(u32, Env),
    /// `V □`.
    AppArg(Value),
    /// `□⟨t⟩`. Never directly inside another coercion frame: a
    /// coercion meeting one merges instead of descending.
    Coerce(CoercionId),
}

/// The next redex, taken apart: the frames it spans are popped.
enum Redex {
    /// `M⟨s⟩⟨t⟩`.
    Merge(Inner, CoercionId, CoercionId),
    /// `U⟨s⟩` that is not a value: `s` is an identity or a failure.
    Coerce(Plain, CoercionId),
    /// `blame p` under at least one frame.
    Raise(Label),
    /// `op(k)` or `op(k, k')`.
    Op(Op, Option<Constant>, Constant),
    /// `if k then M else N`.
    If(Constant, u32, u32, Env),
    /// `let x = V in N`, with the `let` node.
    Let(u32, Env, Value),
    /// `V W`.
    App(Value, Value),
}

/// Calls `f` on each child of the node at `at`, with the number of
/// variables the node binds around that child.
fn for_each_child(code: &SCode, at: u32, mut f: impl FnMut(u32, u32)) {
    match code.node(at) {
        Node::Const(_) | Node::Var { .. } | Node::Free(_) | Node::Blame(_, _) => {}
        Node::Lam { body, .. } => f(body, 1),
        Node::Fix { body, .. } => f(body, 2),
        Node::Let { bound, body, .. } => {
            f(bound, 0);
            f(body, 1);
        }
        Node::App(a, b) | Node::Op2(_, a, b) => {
            f(a, 0);
            f(b, 0);
        }
        Node::Op1(_, a) | Node::Coerce(a, _) => f(a, 0),
        Node::OpN { start, len, .. } => code.operands(start, len).iter().for_each(|&a| f(a, 0)),
        Node::If(a, b, c) => {
            f(a, 0);
            f(b, 0);
            f(c, 0);
        }
    }
}

/// How often each binder's variables occur in its scope, by the
/// binder's offset: slot 0 counts a `λ`'s or `let`'s variable or a
/// `fix`'s parameter, slot 1 a `fix`'s function (their de Bruijn
/// indices at the binder).
fn occurrences(code: &SCode) -> Box<[[u32; 2]]> {
    fn go(code: &SCode, at: u32, scope: &mut Vec<(u32, usize)>, counts: &mut [[u32; 2]]) {
        if let Node::Var { index: i, .. } = code.node(at) {
            let (binder, slot) = scope[scope.len() - 1 - i as usize];
            counts[binder as usize][slot] += 1;
        }
        for_each_child(code, at, |child, binds| {
            scope.extend((0..binds as usize).rev().map(|slot| (at, slot)));
            go(code, child, scope, counts);
            scope.truncate(scope.len() - binds as usize);
        });
    }
    let mut counts = vec![[0; 2]; code.size()].into_boxed_slice();
    go(code, code.root(), &mut Vec::new(), &mut counts);
    counts
}

/// [`STerm::measure`] of the code at `at` read back under `env`,
/// without building it: each variable `env` binds weighs its value.
fn measure_code(code: &SCode, at: u32, env: &Env, arena: &CoercionArena) -> (usize, usize) {
    fn go(
        code: &SCode,
        at: u32,
        depth: u32,
        env: &Env,
        arena: &CoercionArena,
        acc: &mut (usize, usize),
    ) {
        match code.node(at) {
            Node::Var { index: i, .. } if i >= depth => {
                let (size, coercion_size) = env.lookup(i - depth).measure(arena);
                acc.0 += size;
                acc.1 += coercion_size;
                return;
            }
            Node::Coerce(_, s) => {
                let c = arena.size(s);
                acc.0 += c;
                acc.1 += c;
            }
            _ => {}
        }
        acc.0 += 1;
        for_each_child(code, at, |child, binds| {
            go(code, child, depth + binds, env, arena, acc);
        });
    }
    let mut acc = (0, 0);
    go(code, at, 0, env, arena, &mut acc);
    acc
}

/// Reads the code at `at`, inside `binders`, back into the named term
/// it stands for under `env`.
fn read_code(code: &SCode, at: u32, binders: &[u32], env: &Env) -> STerm {
    code.decode_open(at, binders, &|i| read_value(code, &env.lookup(i)))
}

/// Reads a value back into the closed named term it stands for.
fn read_value(code: &SCode, v: &Value) -> STerm {
    let read_plain = |u: &Plain| match u {
        Plain::Const(k) => STerm::Const(*k),
        Plain::Closure { code: at, env, .. } => read_code(code, *at, &[], env),
    };
    match v {
        Value::Plain(u) => read_plain(u),
        Value::Coerced(u, s) => STerm::Coerce(read_plain(u).into(), *s),
    }
}

/// The whole term a run stands for: the focus read back and plugged
/// into its frames.
fn read_back(code: &SCode, frames: &[Frame], focus: &Focus) -> STerm {
    let value = |v: &Value| Rc::new(read_value(code, v));
    let m = match focus {
        Focus::Code(at, env) => read_code(code, *at, &[], env),
        Focus::Value(v) => read_value(code, v),
        Focus::Coerce(inner, s) => {
            let inner = match inner {
                Inner::Code(at, env) => read_code(code, *at, &[], env),
                Inner::Value(v) => read_value(code, v),
                Inner::Proxy(u, v, s) => STerm::App(
                    value(&Value::Plain(u.clone())),
                    STerm::Coerce(value(v), *s).into(),
                ),
            };
            STerm::Coerce(inner.into(), *s)
        }
        Focus::Blame(_) => unreachable!("a blamed run is measured without reading back"),
    };
    let code_at = |at: u32, env: &Env| Rc::new(read_code(code, at, &[], env));
    frames.iter().rev().fold(m, |m, frame| match frame {
        Frame::OpLeft(op, right, env) => STerm::Op(*op, vec![m, read_code(code, *right, &[], env)]),
        Frame::OpRight(op, Some(left)) => STerm::Op(*op, vec![STerm::Const(*left), m]),
        Frame::OpRight(op, None) => STerm::Op(*op, vec![m]),
        Frame::If(then_, else_, env) => {
            STerm::If(m.into(), code_at(*then_, env), code_at(*else_, env))
        }
        Frame::Let(at, env) => {
            let Node::Let { name, body, .. } = code.node(*at) else {
                unreachable!("a let frame holds a let node")
            };
            let body = read_code(code, body, &[name], env);
            STerm::Let(code.name(name).clone(), m.into(), body.into())
        }
        Frame::AppFun(arg, env) => STerm::App(m.into(), code_at(*arg, env)),
        Frame::AppArg(fun) => STerm::App(value(fun), m.into()),
        Frame::Coerce(t) => STerm::Coerce(m.into(), *t),
    })
}

/// The value of a constant or a variable, which refocusing reaches
/// without descending.
fn atom(code: &SCode, at: u32, env: &Env) -> Option<Value> {
    match code.node(at) {
        Node::Const(k) => Some(Value::Plain(Plain::Const(k))),
        Node::Var { index: i, .. } => Some(env.lookup(i)),
        _ => None,
    }
}

/// Pops the top frame if it is a coercion `□⟨t⟩` and returns `t`: a
/// coercion `M⟨s⟩` in its hole is then the merge redex `M⟨s⟩⟨t⟩`.
fn pop_coercion(frames: &mut Vec<Frame>) -> Option<CoercionId> {
    match frames.last() {
        Some(&Frame::Coerce(t)) => {
            frames.pop();
            Some(t)
        }
        _ => None,
    }
}

/// `V⟨s⟩` with no coercion frame around it: a value, or a redex — the
/// merge if `V` is itself coerced.
fn apply_coercion(v: Value, s: CoercionId, arena: &CoercionArena) -> Result<Value, Redex> {
    match v {
        Value::Coerced(u, s0) => Err(Redex::Merge(Inner::Value(Value::Plain(u)), s0, s)),
        Value::Plain(u) if coerces_to_value(arena, s) => Ok(Value::Coerced(u, s)),
        Value::Plain(u) => Err(Redex::Coerce(u, s)),
    }
}

/// Finds the next redex, starting at the focus: code is descended
/// into, a value ascends, and a coercion meeting a coercion frame
/// merges before anything inside it. The refocusing invariant — frames
/// hold values to the left of their hole — makes this the redex the
/// tree [`step_in`] finds by walking from the root. Looking a variable
/// up is no step: the tree term holds the value in its place. `Err` is
/// the run's outcome: a value or `blame p` with no frame left.
fn refocus(
    code: &SCode,
    frames: &mut Vec<Frame>,
    mut focus: Focus,
    arena: &CoercionArena,
) -> Result<Redex, OutcomeC> {
    loop {
        let value = match focus {
            Focus::Value(v) => v,
            Focus::Blame(p) => return Err(OutcomeC::Blame(p)),
            // Merge FIRST: F[M⟨s⟩⟨t⟩] ⟶ F[M⟨s # t⟩], for any M.
            Focus::Coerce(m, s) => {
                if let Some(t) = pop_coercion(frames) {
                    return Ok(Redex::Merge(m, s, t));
                }
                match m {
                    Inner::Code(at, env) => {
                        frames.push(Frame::Coerce(s));
                        focus = Focus::Code(at, env);
                        continue;
                    }
                    Inner::Value(v) => match apply_coercion(v, s, arena) {
                        Ok(v) => v,
                        Err(redex) => return Ok(redex),
                    },
                    Inner::Proxy(u, v, s0) => {
                        frames.push(Frame::Coerce(s));
                        frames.push(Frame::AppArg(Value::Plain(u)));
                        focus = Focus::Coerce(Inner::Value(v), s0);
                        continue;
                    }
                }
            }
            Focus::Code(at, env) => match code.node(at) {
                Node::Const(k) => Value::Plain(Plain::Const(k)),
                Node::Var { index: i, .. } => env.lookup(i),
                Node::Lam { .. } | Node::Fix { .. } => {
                    let measure = measure_code(code, at, &env, arena);
                    Value::Plain(Plain::Closure {
                        code: at,
                        env,
                        measure,
                    })
                }
                Node::Blame(p, _) if frames.is_empty() => return Err(OutcomeC::Blame(p)),
                Node::Blame(p, _) => return Ok(Redex::Raise(p)),
                node => {
                    let (child, frame) = match node {
                        Node::Coerce(m, s) => match pop_coercion(frames) {
                            Some(t) => return Ok(Redex::Merge(Inner::Code(m, env), s, t)),
                            None => (m, Frame::Coerce(s)),
                        },
                        Node::App(fun, arg) => (fun, Frame::AppFun(arg, env.clone())),
                        Node::Op1(op, a) => (a, Frame::OpRight(op, None)),
                        Node::Op2(op, a, b) => match (atom(code, a, &env), atom(code, b, &env)) {
                            (Some(l), Some(r)) => {
                                return Ok(Redex::Op(op, Some(l.constant()), r.constant()))
                            }
                            _ => (a, Frame::OpLeft(op, b, env.clone())),
                        },
                        Node::If(cond, then_, else_) => {
                            (cond, Frame::If(then_, else_, env.clone()))
                        }
                        Node::Let { bound, .. } => (bound, Frame::Let(at, env.clone())),
                        Node::OpN { op, .. } => panic!("operator {op} takes one or two operands"),
                        Node::Free(_) => panic!("evaluation reached a free variable"),
                        _ => unreachable!("values and blame are handled above"),
                    };
                    frames.push(frame);
                    focus = Focus::Code(child, env);
                    continue;
                }
            },
        };
        // The value ascends into the innermost frame.
        let Some(frame) = frames.pop() else {
            return Err(OutcomeC::Value(read_value(code, &value)));
        };
        focus = match frame {
            Frame::Coerce(s) => match apply_coercion(value, s, arena) {
                Ok(v) => Focus::Value(v),
                Err(redex) => return Ok(redex),
            },
            Frame::AppFun(arg, env) => {
                frames.push(Frame::AppArg(value));
                Focus::Code(arg, env)
            }
            Frame::AppArg(fun) => return Ok(Redex::App(fun, value)),
            Frame::If(then_, else_, env) => {
                return Ok(Redex::If(value.constant(), then_, else_, env))
            }
            Frame::Let(at, env) => return Ok(Redex::Let(at, env, value)),
            Frame::OpLeft(op, right, env) => {
                frames.push(Frame::OpRight(op, Some(value.constant())));
                Focus::Code(right, env)
            }
            Frame::OpRight(op, left) => return Ok(Redex::Op(op, left, value.constant())),
        };
    }
}

/// Replaces the `removed` part of the whole term's `(size, coercion
/// size)` with the `added` one.
fn reprice(measure: &mut (usize, usize), removed: (usize, usize), added: (usize, usize)) {
    measure.0 = measure.0 + added.0 - removed.0;
    measure.1 = measure.1 + added.1 - removed.1;
}

/// What `n` occurrences of a variable gain when each becomes a value
/// of measure `value`.
fn replaced(n: u32, value: (usize, usize)) -> (usize, usize) {
    let n = n as usize;
    (n * (value.0 - 1), n * value.1)
}

/// Contracts the redex refocusing found, returning the contractum as
/// the new focus and updating the whole term's `measure` from the
/// redex alone. β and `let` bind the value in one environment node and
/// substitute nothing: each of the `n` occurrences of the variable
/// (`counts`) now stands for the whole value.
fn contract(
    redex: Redex,
    code: &SCode,
    counts: &[[u32; 2]],
    frames: &mut Vec<Frame>,
    measure: &mut (usize, usize),
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
) -> Focus {
    let mut raise = |p| {
        frames.clear();
        *measure = (1, 0);
        Focus::Blame(p)
    };
    match redex {
        // F[M⟨s⟩⟨t⟩] ⟶ F[M⟨s # t⟩], on ids through the memoized
        // composition, so the same pair is composed structurally only
        // once per arena.
        Redex::Merge(m, s, t) => {
            let u = arena.compose(cache, s, t);
            let (s, t, su) = (arena.size(s), arena.size(t), arena.size(u));
            reprice(measure, (1 + s + t, s + t), (su, su));
            Focus::Coerce(m, u)
        }
        Redex::Coerce(u, s) => match arena.node(s) {
            // F[U⟨id?⟩] ⟶ F[U] and F[U⟨idι⟩] ⟶ F[U]
            SNode::IdDyn | SNode::Mid(INode::Ground(GNode::IdBase(_))) => {
                let c = arena.size(s);
                reprice(measure, (1 + c, c), (0, 0));
                Focus::Value(Value::Plain(u))
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
            Focus::Value(Value::Plain(Plain::Const(k)))
        }
        Redex::If(cond, then_, else_, env) => {
            let (taken, dropped) = match cond {
                Constant::Bool(true) => (then_, else_),
                Constant::Bool(false) => (else_, then_),
                _ => panic!("if condition is not a boolean"),
            };
            let (size, coercion_size) = measure_code(code, dropped, &env, arena);
            reprice(measure, (2 + size, coercion_size), (0, 0));
            Focus::Code(taken, env)
        }
        Redex::Let(at, env, value) => {
            let Node::Let { body, .. } = code.node(at) else {
                unreachable!("a let frame holds a let node")
            };
            let v = value.measure(arena);
            reprice(measure, (1 + v.0, v.1), replaced(counts[at as usize][0], v));
            Focus::Code(body, env.bind(value))
        }
        Redex::App(
            Value::Plain(Plain::Closure {
                code: at,
                env,
                measure: fun,
            }),
            arg,
        ) => {
            let v = arg.measure(arena);
            let [n_arg, n_fun] = counts[at as usize];
            let mut added = replaced(n_arg, v);
            let (body, env) = match code.node(at) {
                Node::Lam { body, .. } => (body, env.bind(arg)),
                // Unrolling and β in one step: the call binds the
                // function and its argument in one environment node.
                Node::Fix { body, .. } => {
                    let f = replaced(n_fun, fun);
                    added = (added.0 + f.0, added.1 + f.1);
                    (body, env.bind_fix(at, fun, arg))
                }
                _ => unreachable!("a closure holds a λ or fix node"),
            };
            reprice(measure, (2 + v.0, v.1), added);
            Focus::Code(body, env)
        }
        // (U⟨s→t⟩) V ⟶ (U (V⟨s⟩))⟨t⟩
        Redex::App(Value::Coerced(u, c), arg) => match arena.node(c) {
            SNode::Mid(INode::Ground(GNode::Fun(s, t))) => {
                let (sc, ss, st) = (arena.size(c), arena.size(s), arena.size(t));
                reprice(measure, (sc, sc), (1 + ss + st, ss + st));
                Focus::Coerce(Inner::Proxy(u, arg, s), t)
            }
            _ => panic!("applied a non-function coerced value"),
        },
        Redex::App(_, _) => panic!("applied a non-function value"),
    }
}

/// Evaluates a closed, well-typed compiled λS program for at most
/// `fuel` steps — [`run`] on the program's code block, against
/// caller-owned arenas.
///
/// The run keeps a *focus* and the evaluation-context frames around
/// it, and finds each next redex by refocusing from the last
/// contractum instead of walking from the root. Code is never
/// rewritten: the focus and the frames hold code offsets with
/// persistent environments, so β and `let` push one environment node
/// and substitute nothing (a `fix` call binds the function and its
/// argument in a single node), and a merge composes ids through the
/// memoized [`CoercionArena::compose`]. The space peaks are those of
/// the term the state stands for, tracked by delta and priced from the
/// redex: arithmetic on coercion sizes and on each binder's occurrence
/// count, or one walk of a discarded `if` branch. A final value is
/// read back into the named [`STerm`] it stands for. This is the
/// production engine; the tree [`run`] is its property-test oracle
/// (same outcome, same step count, same space peaks — pinned by
/// `tests/ir_props.rs`).
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
    type_of(&decompile_term(&code.decode(), arena, types))?;
    match resume_compiled(start_compiled(code, fuel, arena), fuel, arena, cache) {
        SliceC::Done(r) => r,
        SliceC::Parked(_) => unreachable!("a slice of the whole fuel cannot park"),
    }
}

/// A preempted compiled small-step run, parked between fuel slices.
///
/// It holds the program's code block (one shared `Rc`), the per-run
/// table of binder occurrence counts, the focus and the
/// evaluation-context frames around it (code offsets with their
/// environments, and run-time values), the whole term's tracked size
/// and coercion size, and the counters. Resuming refocuses from where
/// the last slice stopped. Environments are `Rc`-shared, so a parked
/// run is not `Send`.
#[derive(Debug, Clone)]
pub struct PausedC {
    code: SCode,
    counts: Box<[[u32; 2]]>,
    focus: Focus,
    frames: Vec<Frame>,
    measure: (usize, usize),
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

/// Begins a resumable compiled run: measures the program and counts
/// each binder's occurrences (the once-per-run costs the unsliced
/// engine also pays up front), and parks before the first step with
/// the program's root in focus. The block is trusted to be closed and
/// well typed, as [`run_compiled`] checks and a session's lowering
/// guarantees.
pub fn start_compiled(code: &SCode, fuel: u64, arena: &CoercionArena) -> PausedC {
    let measure = measure_code(code, code.root(), &Env::default(), arena);
    PausedC {
        code: code.clone(),
        counts: occurrences(code),
        focus: Focus::Code(code.root(), Env::default()),
        frames: Vec::new(),
        measure,
        steps: 0,
        peak_size: measure.0,
        peak_coercion_size: measure.1,
        fuel,
    }
}

/// Runs a parked compiled run for at most `slice` further steps.
///
/// Fuel and slices count the same unit (one reduction step, charged
/// before the step commits), and the park check yields to the final
/// fuel/value decision once the fuel line is reached — so a slice at
/// least as large as the remaining fuel can never park, and
/// `resume_compiled(start_compiled(t, f, ..), f, ..)` is exactly
/// [`run_compiled`]`(t, f, ..)`, step counts and peaks included.
///
/// # Panics
///
/// Panics if the term is open or ill-typed (which [`start_compiled`]
/// does not check) or its ids are foreign to `arena`.
pub fn resume_compiled(
    paused: PausedC,
    slice: u64,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
) -> SliceC {
    let PausedC {
        code,
        counts,
        mut focus,
        mut frames,
        mut measure,
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
                code,
                counts,
                focus,
                frames,
                measure,
                steps,
                peak_size,
                peak_coercion_size,
                fuel,
            });
        }
        let redex = match refocus(&code, &mut frames, focus, arena) {
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
        focus = contract(
            redex,
            &code,
            &counts,
            &mut frames,
            &mut measure,
            arena,
            cache,
        );
        debug_assert_eq!(
            measure,
            match focus {
                Focus::Blame(_) if frames.is_empty() => (1, 0),
                _ => read_back(&code, &frames, &focus).measure(arena),
            },
            "tracked size drifted from the term at step {steps}"
        );
        debug_assert!(
            !frames
                .windows(2)
                .any(|w| matches!(w, [Frame::Coerce(_), Frame::Coerce(_)])),
            "a coercion frame was stacked on another at step {steps}"
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
            // Recursion: each call unrolls the fix (the tree run
            // substitutes it for f, the compiled run binds it).
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

    /// `inc⟨Int?p→Int!⟩ : ? → ?`, a proxy.
    fn proxy(n: u32) -> Term {
        inc().coerce(SpaceCoercion::fun(proj_int(n), inj_int()))
    }

    #[test]
    fn closure_capturing_a_let_bound_proxy_applied_twice() {
        // let f = proxy in let h = λy:?. f y in
        // (λk:?→?. (k (k 1⟨Int!⟩))⟨Int?q⟩) h: h's environment holds
        // the proxy, and h reaches both calls through k's.
        let twice = Term::lam(
            "k",
            Type::fun(Type::DYN, Type::DYN),
            Term::var("k")
                .app(Term::var("k").app(Term::int(1).coerce(inj_int())))
                .coerce(proj_int(1)),
        );
        let m = Term::let_(
            "f",
            proxy(0),
            Term::let_(
                "h",
                Term::lam("y", Type::DYN, Term::var("f").app(Term::var("y"))),
                twice.app(Term::var("h")),
            ),
        );
        assert_compiled_matches_tree(&m);
    }

    #[test]
    fn if_discards_a_branch_over_a_proxy_and_a_closure() {
        // The discarded branch weighs f and g at their values' size.
        let call = |x| {
            Term::var("f")
                .app(Term::var("g").app(Term::int(x)).coerce(inj_int()))
                .coerce(proj_int(1))
        };
        for cond in [true, false] {
            let m = Term::let_(
                "f",
                proxy(0),
                Term::let_(
                    "g",
                    inc(),
                    Term::If(
                        Term::op2(Op::Lt, Term::int(1), Term::int(i64::from(cond) * 2)).into(),
                        call(1).into(),
                        Term::op2(Op::Add, call(2), Term::var("g").app(Term::int(3))).into(),
                    ),
                ),
            );
            assert_compiled_matches_tree(&m);
        }
    }

    #[test]
    fn fix_returning_a_closure_over_f_and_n_reads_back_exactly() {
        // fix f (n:Int):Int→Int. if n = 0 then λm. m + n
        //                        else λm. (f (n − 1)) m
        // applied to 3 ends in the second λ, whose f and n live in a
        // fix call's environment node; applied once more, it unrolls.
        let fun = Term::Fix(
            "f".into(),
            "n".into(),
            Type::INT,
            Type::fun(Type::INT, Type::INT),
            Term::If(
                Term::op2(Op::Eq, Term::var("n"), Term::int(0)).into(),
                Term::lam(
                    "m",
                    Type::INT,
                    Term::op2(Op::Add, Term::var("m"), Term::var("n")),
                )
                .into(),
                Term::lam(
                    "m",
                    Type::INT,
                    Term::var("f")
                        .app(Term::op2(Op::Sub, Term::var("n"), Term::int(1)))
                        .app(Term::var("m")),
                )
                .into(),
            )
            .into(),
        );
        assert_compiled_matches_tree(&fun.clone().app(Term::int(3)));
        assert_compiled_matches_tree(&fun.app(Term::int(3)).app(Term::int(10)));
    }

    #[test]
    fn let_whose_name_never_occurs() {
        let m = Term::let_("x", proxy(0), Term::int(5).coerce(inj_int()));
        assert_compiled_matches_tree(&m);
    }

    #[test]
    fn coercion_merges_with_a_coerced_value_from_the_environment() {
        // let x = 1⟨Int!⟩ in x⟨Int?p⟩ — and a proxy f re-coerced to
        // Int→Int: the merge fires on the looked-up value first.
        let injected = Term::let_(
            "x",
            Term::int(1).coerce(inj_int()),
            Term::var("x").coerce(proj_int(0)),
        );
        let reproxied = Term::let_(
            "f",
            proxy(0),
            Term::var("f")
                .coerce(SpaceCoercion::fun(inj_int(), proj_int(2)))
                .app(Term::int(1)),
        );
        assert_compiled_matches_tree(&injected);
        assert_compiled_matches_tree(&reproxied);
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
                    let mut paused = start_compiled(&st, fuel, &arena);
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

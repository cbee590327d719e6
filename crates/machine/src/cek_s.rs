//! The CEK machine for λS — the space-efficient machine (in the style
//! of Siek–Garcia 2012).
//!
//! It differs from [`crate::cek_c`] in exactly one way: **pushing a
//! coercion frame onto a continuation whose top frame is already a
//! coercion frame composes the two with `s # t`** instead of stacking
//! them. Since composition preserves height (Proposition 14) and
//! canonical coercions of bounded height have bounded size, the
//! continuation never holds more than one bounded coercion per
//! non-coercion frame: tail calls across typed/untyped boundaries run
//! in constant space.
//!
//! The same merging is applied to values: coercing an already-coerced
//! value composes the coercions, so proxy chains never grow either.
//!
//! # The code block
//!
//! This machine runs a program's flat [`SCode`] block in place:
//!
//! * control is an offset into the borrowed node array, so evaluating
//!   a subterm copies one `u32` and never clones a term spine;
//! * variables are de Bruijn indices, looked up by position in a
//!   persistent environment — no name is compared at run time;
//! * a closure is the offset of its `λ`/`fix` node plus its
//!   environment, and a `fix` call binds the function and its argument
//!   in a single environment node;
//! * an operator frame holds at most one evaluated constant;
//! * coercion nodes hold `Copy` [`CoercionId`]s minted at lowering,
//!   and every frame/proxy merge goes through the [`ComposeCache`]. A
//!   proxy is a plain value next to its coercion, so coercing a proxy
//!   again replaces the id and allocates nothing.
//!
//! A boundary crossing is therefore an id load plus a cached O(1)
//! composition — **zero interning, zero coercion allocation** — which
//! the per-run [`crate::metrics::ReuseStats`] counters make
//! observable (`tree_interns == 0` on the compiled path). The only
//! allocations on the run path are environment nodes (one per `let`
//! or call) and continuation-stack growth.
//!
//! Three entry points:
//!
//! * [`run_compiled_in`] — the fast path: evaluate an already-compiled
//!   [`SCode`] block against the arena and cache it was compiled into
//!   (as the runtime's `Session` does across repeated runs);
//! * [`run_in`] — accept a tree [`Term`], compile it into the
//!   caller-owned arena (hash-consing makes repeat compiles
//!   allocation-free), then run;
//! * [`run`] — a self-contained run with fresh arenas.

use std::rc::Rc;

use bc_core::arena::{CoercionArena, CoercionId, ComposeCache, GNode, INode, SNode};
use bc_core::sterm::{compile_term, Node, SCode};
use bc_core::term::Term;
use bc_syntax::{Constant, Label, Op, TypeArena};
use bc_translate::bisim::Observation;

use crate::metrics::{MachineOutcome, MachineRun, Metrics, ReuseStats, SliceResult};

/// An uncoerced run-time value `U`.
#[derive(Debug, Clone)]
pub enum Plain {
    /// A constant.
    Const(Constant),
    /// A closure: the offset of its `λ` or `fix` node in the running
    /// program's code block, and the captured environment.
    Closure {
        /// The [`Node::Lam`] or [`Node::Fix`] this closure runs.
        code: u32,
        /// Captured environment.
        env: Env,
    },
}

/// Run-time values of the λS machine.
#[derive(Debug, Clone)]
pub enum Value {
    /// An uncoerced value.
    Plain(Plain),
    /// An uncoerced value under a *single* coercion (`U⟨s→t⟩` or
    /// `U⟨g;G!⟩`); the machine maintains the invariant that coerced
    /// values never nest.
    Coerced(Plain, CoercionId),
}

impl Plain {
    fn observe(&self) -> Observation {
        match self {
            Plain::Const(k) => Observation::Constant(*k),
            Plain::Closure { .. } => Observation::Function,
        }
    }

    fn constant(self) -> Constant {
        match self {
            Plain::Const(k) => k,
            Plain::Closure { .. } => unreachable!("operator got a function"),
        }
    }
}

impl Value {
    /// The calculus-agnostic observation of this value, read through
    /// the arena that interned its coercions.
    pub fn observe(&self, arena: &CoercionArena) -> Observation {
        match self {
            Value::Plain(u) => u.observe(),
            Value::Coerced(u, coercion) => match arena.node(*coercion) {
                SNode::Mid(INode::Inj(g, ground)) => {
                    let payload = match g {
                        GNode::IdBase(_) => u.observe(),
                        GNode::Fun(_, _) => Observation::Function,
                    };
                    Observation::Injected(ground, Box::new(payload))
                }
                SNode::Mid(INode::Ground(GNode::Fun(_, _))) => Observation::Function,
                _ => unreachable!(
                    "coerced value with non-value coercion {}",
                    arena.resolve(*coercion)
                ),
            },
        }
    }

    fn constant(self) -> Constant {
        match self {
            Value::Plain(u) => u.constant(),
            Value::Coerced(..) => unreachable!("operator got a coerced value"),
        }
    }
}

/// A persistent environment, indexed by de Bruijn position.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

#[derive(Debug)]
enum EnvNode {
    /// One binding (`let` or a `λ` call).
    One { value: Value, rest: Env },
    /// A `fix` call: the argument (index 0) and the function itself
    /// (index 1), which is the closure over `code` and `rest` — so it
    /// is rebuilt on lookup instead of stored.
    Fix { arg: Value, code: u32, rest: Env },
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env(None)
    }

    /// Extends the environment with one binding.
    #[must_use]
    pub fn bind(&self, value: Value) -> Env {
        Env(Some(Rc::new(EnvNode::One {
            value,
            rest: self.clone(),
        })))
    }

    /// Extends a `fix` closure's environment for a call: the function
    /// over `code` (and this environment) at index 1, `arg` at 0.
    fn bind_fix(self, code: u32, arg: Value) -> Env {
        Env(Some(Rc::new(EnvNode::Fix {
            arg,
            code,
            rest: self,
        })))
    }

    fn lookup(&self, mut index: u32) -> Value {
        let mut cur = self;
        loop {
            match cur.0.as_deref() {
                None => panic!("unbound variable (de Bruijn index out of range)"),
                Some(EnvNode::One { value, rest }) => {
                    if index == 0 {
                        return value.clone();
                    }
                    index -= 1;
                    cur = rest;
                }
                Some(EnvNode::Fix { arg, code, rest }) => match index {
                    0 => return arg.clone(),
                    1 => {
                        return Value::Plain(Plain::Closure {
                            code: *code,
                            env: rest.clone(),
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

// Variant names deliberately carry the -Frame suffix: "cast frame" /
// "coercion frame" is the paper's terminology for what leaks in
// λB/λC and merges in λS.
#[allow(clippy::enum_variant_names)]
enum Frame {
    AppArg {
        arg: u32,
        env: Env,
    },
    AppCall {
        fun: Value,
    },
    /// A binary operator whose first operand is being evaluated; the
    /// second is `arg`.
    OpArg {
        op: Op,
        arg: u32,
        env: Env,
    },
    /// An operator whose last operand is being evaluated, holding the
    /// first operand's constant if it has two.
    OpApply {
        op: Op,
        first: Option<Constant>,
    },
    If {
        then_: u32,
        else_: u32,
        env: Env,
    },
    Let {
        body: u32,
        env: Env,
    },
    CoerceFrame(CoercionId),
}

enum Control {
    Eval(u32, Env),
    Ret(Value),
}

struct Machine<'a> {
    stack: Vec<Frame>,
    metrics: Metrics,
    coercion_frames: usize,
    coercion_size: usize,
    arena: &'a mut CoercionArena,
    cache: &'a mut ComposeCache,
}

impl Machine<'_> {
    fn push(&mut self, f: Frame) {
        if let Frame::CoerceFrame(c) = &f {
            self.coercion_frames += 1;
            self.coercion_size += self.arena.size(*c);
        }
        self.stack.push(f);
        self.metrics
            .observe(self.stack.len(), self.coercion_frames, self.coercion_size);
    }

    /// Pushes a coercion frame, *merging* with an existing top
    /// coercion frame — the one-line change that makes the machine
    /// space-efficient. The merge is a [`ComposeCache`] lookup when
    /// the pair has been composed before.
    fn push_coercion(&mut self, s: CoercionId) {
        if let Some(Frame::CoerceFrame(t)) = self.stack.last() {
            // The value will meet `s` first and `t` second: replace
            // the top frame with `s # t`.
            let t = *t;
            let merged = self.arena.compose(self.cache, s, t);
            self.coercion_size = self.coercion_size - self.arena.size(t) + self.arena.size(merged);
            let top = self.stack.len() - 1;
            self.stack[top] = Frame::CoerceFrame(merged);
            self.metrics
                .observe(self.stack.len(), self.coercion_frames, self.coercion_size);
        } else {
            self.push(Frame::CoerceFrame(s));
        }
    }

    fn pop(&mut self) -> Option<Frame> {
        let f = self.stack.pop();
        if let Some(Frame::CoerceFrame(c)) = &f {
            self.coercion_frames -= 1;
            self.coercion_size -= self.arena.size(*c);
        }
        f
    }

    /// Applies a coercion to a value immediately, merging with any
    /// existing proxy coercion (never nesting).
    fn coerce_value(&mut self, v: Value, s: CoercionId) -> Result<Value, Label> {
        let (u, s) = match v {
            Value::Plain(u) => (u, s),
            Value::Coerced(u, proxy) => (u, self.arena.compose(self.cache, proxy, s)),
        };
        match self.arena.node(s) {
            SNode::IdDyn => Ok(Value::Plain(u)),
            SNode::Mid(INode::Ground(GNode::IdBase(_))) => Ok(Value::Plain(u)),
            SNode::Mid(INode::Fail(_, p, _)) => Err(p),
            SNode::Mid(INode::Inj(_, _)) | SNode::Mid(INode::Ground(GNode::Fun(_, _))) => {
                Ok(Value::Coerced(u, s))
            }
            SNode::Proj(_, _, _) => {
                unreachable!("projection applied to an uncoerced value (which cannot have type ?)")
            }
        }
    }
}

/// Runs a closed, well-typed λS term on the space-efficient CEK
/// machine with a fresh arena and compose cache.
///
/// # Panics
///
/// Panics on open or ill-typed input.
pub fn run(term: &Term, fuel: u64) -> MachineRun {
    let mut arena = CoercionArena::new();
    let mut cache = ComposeCache::new();
    run_in(term, &mut arena, &mut cache, fuel)
}

/// Runs a tree term reusing a caller-owned arena and compose cache:
/// the term is compiled into the arena (a hash walk per node — free
/// allocation-wise once the coercions are already interned) and then
/// evaluated on the compiled path.
///
/// This entry point re-lowers the term on every call (an O(term-size)
/// walk). Callers that run the *same* program repeatedly should
/// compile once (e.g. with [`bc_core::sterm::CompileCtx::compile`]) and loop over
/// [`run_compiled_in`] instead — that is what the runtime's `Session`
/// does.
///
/// The reported [`ReuseStats`] *include* the compile-time interning,
/// so this entry point shows `tree_interns > 0` where
/// [`run_compiled_in`] shows zero — the observable difference between
/// the tree path and the compiled path.
///
/// # Panics
///
/// Panics on open or ill-typed input.
pub fn run_in(
    term: &Term,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    fuel: u64,
) -> MachineRun {
    let arena_before = arena.stats();
    let cache_before = cache.stats();
    // The machine never consults type annotations at run time, so the
    // type arena is a per-call throwaway: its lifetime is bounded by
    // the call (no hidden growing state), and callers who want the
    // annotations interned for keeps use CompileCtx::compile +
    // run_compiled_in with their own TypeArena.
    let mut types = TypeArena::new();
    let code = SCode::encode(&compile_term(term, arena, &mut types));
    // The before-stats predate the compile, so the reported reuse
    // *includes* the compile-time interning (see the doc above).
    let paused = fresh_paused(&code, fuel, arena_before, cache_before);
    match resume_compiled_in(paused, arena, cache, fuel) {
        SliceResult::Done(run) => run,
        SliceResult::Parked(_) => unreachable!("a slice of the whole fuel cannot park"),
    }
}

/// Runs an already-compiled program against the arena and cache it
/// was compiled into — the fast path: every boundary crossing is an id
/// load plus a cached merge, with zero interning
/// (`metrics.reuse.tree_interns == 0`).
///
/// The block's ids are only meaningful in the arena that lowered them
/// (keep the pair together, e.g. via [`bc_core::sterm::CompileCtx`]):
/// an id that is out of bounds for `arena` panics, but an in-bounds id
/// from a *different* arena denotes whatever that slot holds — like
/// [`CoercionArena::node`], this function cannot detect foreign ids.
///
/// # Panics
///
/// Panics on open or ill-typed input, or if the block's ids are out of
/// bounds for `arena`.
pub fn run_compiled_in(
    code: &SCode,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    fuel: u64,
) -> MachineRun {
    let paused = start_compiled_in(code, arena, cache, fuel);
    match resume_compiled_in(paused, arena, cache, fuel) {
        SliceResult::Done(run) => run,
        SliceResult::Parked(_) => unreachable!("a slice of the whole fuel cannot park"),
    }
}

/// A preempted λS machine run, parked between fuel slices.
///
/// Unlike the machine itself, the parked state holds **no arena or
/// cache borrows** — only the program's code block (one shared `Rc`),
/// the continuation stack, control, metrics, and the arena/cache
/// counters captured at [`start_compiled_in`] (so the final
/// [`ReuseStats`] delta spans all slices, exactly as an unsliced run
/// would report). Each [`resume_compiled_in`] call re-borrows the
/// arena/cache pair the program was compiled into; pass a different
/// pair and the ids mean something else entirely (the same foreign-id
/// caveat as [`run_compiled_in`]).
///
/// The block, values and environments are `Rc`-shared, so a parked
/// run is not `Send`: it stays on the worker that started it.
pub struct Paused {
    code: SCode,
    stack: Vec<Frame>,
    metrics: Metrics,
    coercion_frames: usize,
    coercion_size: usize,
    control: Control,
    fuel: u64,
    arena_before: bc_core::arena::ArenaStats,
    cache_before: bc_core::arena::CacheStats,
}

impl Paused {
    /// Machine transitions taken so far, across all slices.
    pub fn steps(&self) -> u64 {
        self.metrics.steps
    }
}

fn fresh_paused(
    code: &SCode,
    fuel: u64,
    arena_before: bc_core::arena::ArenaStats,
    cache_before: bc_core::arena::CacheStats,
) -> Paused {
    Paused {
        code: code.clone(),
        stack: Vec::new(),
        metrics: Metrics::default(),
        coercion_frames: 0,
        coercion_size: 0,
        control: Control::Eval(code.root(), Env::new()),
        fuel,
        arena_before,
        cache_before,
    }
}

/// Begins a resumable run of an already-compiled program. No steps are
/// taken; drive the machine with [`resume_compiled_in`], passing the
/// same arena/cache pair the program was compiled into.
pub fn start_compiled_in(
    code: &SCode,
    arena: &CoercionArena,
    cache: &ComposeCache,
    fuel: u64,
) -> Paused {
    fresh_paused(code, fuel, arena.stats(), cache.stats())
}

/// Runs a parked machine for at most `slice` further transitions
/// against the arena/cache pair its program was compiled into.
///
/// Fuel exhaustion is checked before the slice budget (both count
/// machine transitions), so a slice at least as large as the
/// remaining fuel can never park:
/// `resume_compiled_in(start_compiled_in(c, a, k, f), a, k, f)` is
/// exactly [`run_compiled_in`]`(c, a, k, f)`.
///
/// # Panics
///
/// Panics on open or ill-typed input, or if the block's ids are out of
/// bounds for `arena`.
pub fn resume_compiled_in(
    paused: Paused,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    slice: u64,
) -> SliceResult<Paused> {
    let Paused {
        code,
        stack,
        metrics,
        coercion_frames,
        coercion_size,
        control,
        fuel,
        arena_before,
        cache_before,
    } = paused;
    let mut m = Machine {
        stack,
        metrics,
        coercion_frames,
        coercion_size,
        arena,
        cache,
    };
    let until = m.metrics.steps.saturating_add(slice);
    match exec_slice(&mut m, code.nodes(), control, fuel, until) {
        Stepped::Done(mut run) => {
            run.metrics.reuse = reuse_delta(m.arena, m.cache, arena_before, cache_before);
            SliceResult::Done(run)
        }
        Stepped::Parked(control) => {
            let Machine {
                stack,
                metrics,
                coercion_frames,
                coercion_size,
                arena: _,
                cache: _,
            } = m;
            SliceResult::Parked(Paused {
                code,
                stack,
                metrics,
                coercion_frames,
                coercion_size,
                control,
                fuel,
                arena_before,
                cache_before,
            })
        }
    }
}

fn reuse_delta(
    arena: &CoercionArena,
    cache: &ComposeCache,
    arena_before: bc_core::arena::ArenaStats,
    cache_before: bc_core::arena::CacheStats,
) -> ReuseStats {
    let arena_after = arena.stats();
    let cache_after = cache.stats();
    ReuseStats {
        tree_interns: arena_after.tree_interns - arena_before.tree_interns,
        node_hits: arena_after.node_hits - arena_before.node_hits,
        node_misses: arena_after.node_misses - arena_before.node_misses,
        compose_hits: cache_after.hits - cache_before.hits,
        compose_misses: cache_after.misses - cache_before.misses,
        cache_evictions: cache_after.evictions - cache_before.evictions,
        arena_nodes: arena_after.nodes,
    }
}

/// What one slice of the exec loop produced: a finished run (reuse
/// stats not yet filled in) or the control to park with.
enum Stepped {
    Done(MachineRun),
    Parked(Control),
}

fn exec_slice(
    m: &mut Machine<'_>,
    code: &[Node],
    mut control: Control,
    fuel: u64,
    until: u64,
) -> Stepped {
    let done = |m: &Machine<'_>, outcome| {
        Stepped::Done(MachineRun {
            outcome,
            metrics: m.metrics.clone(),
        })
    };
    loop {
        // THE fuel-unit invariant: fuel, slice budgets, and
        // `Metrics::steps` all count the same unit — one machine
        // transition — and the check happens before a transition
        // commits. Everything above (the pool's WARMUP_RUN_FUEL cap,
        // the scheduler's SliceBudget, FuelExhausted step reports)
        // relies on this 1:1 accounting; the λB/λC machines and the
        // small-step engines enforce the same order.
        if m.metrics.steps >= fuel {
            return done(m, MachineOutcome::Timeout);
        }
        if m.metrics.steps >= until {
            return Stepped::Parked(control);
        }
        m.metrics.steps += 1;
        control = match control {
            Control::Eval(at, env) => match code[at as usize] {
                Node::Const(k) => Control::Ret(Value::Plain(Plain::Const(k))),
                Node::Var(i) => Control::Ret(env.lookup(i)),
                Node::Free(_) => panic!("evaluation reached a free variable"),
                Node::Lam { .. } | Node::Fix { .. } => {
                    Control::Ret(Value::Plain(Plain::Closure { code: at, env }))
                }
                Node::App(l, r) => {
                    m.push(Frame::AppArg {
                        arg: r,
                        env: env.clone(),
                    });
                    Control::Eval(l, env)
                }
                Node::Op1(op, a) => {
                    m.push(Frame::OpApply { op, first: None });
                    Control::Eval(a, env)
                }
                Node::Op2(op, a, b) => {
                    m.push(Frame::OpArg {
                        op,
                        arg: b,
                        env: env.clone(),
                    });
                    Control::Eval(a, env)
                }
                Node::OpN { op, len, .. } => {
                    unreachable!("operator {op} applied to {len} operands")
                }
                Node::Coerce(inner, s) => {
                    // The boundary crossing: `s` is a Copy id — no
                    // interning, no allocation; merging with an
                    // adjacent frame is a cached O(1) composition.
                    m.push_coercion(s);
                    Control::Eval(inner, env)
                }
                Node::Blame(p, _) => return done(m, MachineOutcome::Blame(p)),
                Node::If(c, then_, else_) => {
                    m.push(Frame::If {
                        then_,
                        else_,
                        env: env.clone(),
                    });
                    Control::Eval(c, env)
                }
                Node::Let { bound, body, .. } => {
                    m.push(Frame::Let {
                        body,
                        env: env.clone(),
                    });
                    Control::Eval(bound, env)
                }
            },
            Control::Ret(v) => match m.pop() {
                None => {
                    let observation = v.observe(m.arena);
                    return done(m, MachineOutcome::Value(observation));
                }
                Some(Frame::AppArg { arg, env }) => {
                    m.push(Frame::AppCall { fun: v });
                    Control::Eval(arg, env)
                }
                Some(Frame::AppCall { fun }) => match apply(m, code, fun, v) {
                    Ok(c) => c,
                    Err(p) => return done(m, MachineOutcome::Blame(p)),
                },
                Some(Frame::OpArg { op, arg, env }) => {
                    m.push(Frame::OpApply {
                        op,
                        first: Some(v.constant()),
                    });
                    Control::Eval(arg, env)
                }
                Some(Frame::OpApply { op, first }) => {
                    let k = v.constant();
                    let result = match first {
                        None => op.apply(&[k]),
                        Some(first) => op.apply(&[first, k]),
                    };
                    Control::Ret(Value::Plain(Plain::Const(result)))
                }
                Some(Frame::If { then_, else_, env }) => match v {
                    Value::Plain(Plain::Const(Constant::Bool(true))) => Control::Eval(then_, env),
                    Value::Plain(Plain::Const(Constant::Bool(false))) => Control::Eval(else_, env),
                    other => unreachable!("if condition returned {other:?}"),
                },
                Some(Frame::Let { body, env }) => Control::Eval(body, env.bind(v)),
                Some(Frame::CoerceFrame(s)) => match m.coerce_value(v, s) {
                    Ok(v2) => Control::Ret(v2),
                    Err(p) => return done(m, MachineOutcome::Blame(p)),
                },
            },
        };
    }
}

fn apply(m: &mut Machine<'_>, code: &[Node], fun: Value, arg: Value) -> Result<Control, Label> {
    match fun {
        Value::Plain(Plain::Closure { code: at, env }) => match code[at as usize] {
            Node::Lam { body, .. } => Ok(Control::Eval(body, env.bind(arg))),
            Node::Fix { body, .. } => Ok(Control::Eval(body, env.bind_fix(at, arg))),
            other => unreachable!("closure over a non-function node {other:?}"),
        },
        Value::Coerced(u, coercion) => match m.arena.node(coercion) {
            SNode::Mid(INode::Ground(GNode::Fun(s, t))) => {
                // (U⟨s→t⟩) V: coerce the argument by s, push (merging!)
                // the result coercion t, apply the proxied function.
                let arg2 = m.coerce_value(arg, s)?;
                m.push_coercion(t);
                apply(m, code, Value::Plain(u), arg2)
            }
            _ => unreachable!(
                "applied a non-function coercion {}",
                m.arena.resolve(coercion)
            ),
        },
        other => unreachable!("applied a non-function value {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_lambda_b::programs;
    use bc_translate::{term_b_to_c, term_c_to_s};

    fn to_s(t: &bc_lambda_b::Term) -> Term {
        term_c_to_s(&term_b_to_c(t))
    }

    #[test]
    fn machine_agrees_with_small_step() {
        use bc_core::eval;
        use bc_translate::bisim::observe_s;
        for (name, t) in [
            ("boundary_loop", programs::boundary_loop(6)),
            ("even_odd_mixed", programs::even_odd_mixed(5)),
            ("even_untyped", programs::even_untyped(4)),
            ("wrapped_identity", programs::wrapped_identity(4)),
        ] {
            let ts = to_s(&t);
            let small = observe_s(&eval::run(&ts, 1_000_000).unwrap().outcome);
            let machine = run(&ts, 1_000_000).outcome.to_observation();
            assert_eq!(small, machine, "{name}");
        }
    }

    #[test]
    fn tail_calls_run_in_constant_space() {
        // THE headline claim: peak frames and peak coercion size are
        // the same for 16 and 256 iterations.
        let m16 = run(&to_s(&programs::boundary_loop(16)), 10_000_000);
        let m256 = run(&to_s(&programs::boundary_loop(256)), 10_000_000);
        assert_eq!(
            m16.metrics.peak_frames, m256.metrics.peak_frames,
            "λS continuation must not grow with n"
        );
        assert_eq!(m16.metrics.peak_cast_size, m256.metrics.peak_cast_size);
        assert!(m16.metrics.peak_cast_frames <= 2);
    }

    #[test]
    fn mixed_even_odd_is_space_bounded_too() {
        let m8 = run(&to_s(&programs::even_odd_mixed(8)), 10_000_000);
        let m128 = run(&to_s(&programs::even_odd_mixed(128)), 10_000_000);
        assert_eq!(m8.metrics.peak_frames, m128.metrics.peak_frames);
    }

    #[test]
    fn blame_labels_survive_merging() {
        use bc_syntax::{Label, Type};
        let t = bc_lambda_b::Term::int(1)
            .cast(Type::INT, Label::new(0), Type::DYN)
            .cast(Type::DYN, Label::new(1), Type::BOOL);
        let out = run(&to_s(&t), 100).outcome;
        assert_eq!(out, MachineOutcome::Blame(Label::new(1)));
    }

    #[test]
    fn proxies_do_not_accumulate_on_values() {
        // Wrapping a function 2·n times merges into one proxy.
        let t = to_s(&programs::wrapped_identity(64));
        let m = run(&t, 1_000_000);
        assert!(matches!(m.outcome, MachineOutcome::Value(_)));
    }

    #[test]
    fn boundary_loop_hits_the_compose_cache() {
        // The whole point of the arena: after the first iteration,
        // every frame merge in the loop is a cache hit.
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let t = to_s(&programs::boundary_loop(512));
        let m = run_in(&t, &mut arena, &mut cache, 10_000_000);
        assert!(matches!(m.outcome, MachineOutcome::Value(_)));
        let stats = cache.stats();
        assert!(
            stats.hits > 8 * stats.misses,
            "expected overwhelmingly cache-hit merges, got {stats:?}"
        );
        // And the arena stays small even though the loop merged
        // thousands of times: bounded distinct coercions.
        assert!(arena.len() < 64, "arena grew to {}", arena.len());
    }

    #[test]
    fn rerunning_with_a_shared_arena_reuses_everything() {
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let t = to_s(&programs::boundary_loop(64));
        let first = run_in(&t, &mut arena, &mut cache, 10_000_000);
        let misses_after_first = cache.stats().misses;
        let second = run_in(&t, &mut arena, &mut cache, 10_000_000);
        assert_eq!(first.outcome, second.outcome);
        assert_eq!(
            cache.stats().misses,
            misses_after_first,
            "second run must be answered entirely from the cache"
        );
    }

    #[test]
    fn compiled_path_performs_zero_reinterning() {
        // The compiled IR's defining property: once a program
        // is compiled, boundary crossings intern nothing — 512 loop
        // iterations, zero tree interns, and (warm) zero new nodes.
        let mut ctx = bc_core::CompileCtx::new();
        let t = to_s(&programs::boundary_loop(512));
        let compiled = ctx.compile(&t);

        let first = run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, 10_000_000);
        assert!(matches!(first.outcome, MachineOutcome::Value(_)));
        assert_eq!(
            first.metrics.reuse.tree_interns, 0,
            "a compiled run must never hash-walk a coercion tree"
        );

        // Warm re-run: no interning, no new nodes, no structural
        // composition — pure cache hits.
        let nodes_after_first = ctx.arena.len();
        let second = run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, 10_000_000);
        assert_eq!(first.outcome, second.outcome);
        assert_eq!(second.metrics.reuse.tree_interns, 0);
        assert_eq!(second.metrics.reuse.node_misses, 0);
        assert_eq!(second.metrics.reuse.compose_misses, 0);
        assert!(second.metrics.reuse.compose_hits > 0);
        assert_eq!(ctx.arena.len(), nodes_after_first);

        // Contrast: the tree entry point pays interning for the same
        // program (the hash walks the compiled path eliminated).
        let tree = run_in(&t, &mut ctx.arena, &mut ctx.cache, 10_000_000);
        assert_eq!(tree.outcome, second.outcome);
        assert!(tree.metrics.reuse.tree_interns > 0);
    }

    #[test]
    fn compiled_and_tree_paths_agree_on_metrics() {
        // Space metrics are a property of the evaluation, not of the
        // term representation.
        let t = to_s(&programs::even_odd_mixed(32));
        let tree = run(&t, 10_000_000);
        let mut ctx = bc_core::CompileCtx::new();
        let compiled = ctx.compile(&t);
        let fast = run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, 10_000_000);
        assert_eq!(tree.outcome, fast.outcome);
        assert_eq!(tree.metrics.peak_frames, fast.metrics.peak_frames);
        assert_eq!(tree.metrics.peak_cast_frames, fast.metrics.peak_cast_frames);
        assert_eq!(tree.metrics.peak_cast_size, fast.metrics.peak_cast_size);
        assert_eq!(tree.metrics.steps, fast.metrics.steps);
    }
}

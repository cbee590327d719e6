//! The CEK machine for λS — the space-efficient machine (in the style
//! of Siek–Garcia 2012).
//!
//! It differs from the λC instance of [`crate::cek`] in exactly one
//! way: **pushing a coercion frame onto a continuation whose top frame
//! is already a coercion frame composes the two with `s # t`** instead
//! of stacking them. Since composition preserves height (Proposition
//! 14) and canonical coercions of bounded height have bounded size,
//! the continuation never holds more than one bounded coercion per
//! non-coercion frame: tail calls across typed/untyped boundaries run
//! in constant space.
//!
//! The same merging is applied to values: coercing an already-coerced
//! value composes the coercions, so proxy chains never grow either.
//!
//! # The run state
//!
//! The machine runs a program's flat [`SCode`] block in place on the
//! two-word values, `Copy` frames and one locals stack of
//! [`bc_core::store`], which the compiled small-step shares. Control is
//! one more two-word record: code under an environment, or a value.
//! Every frame/proxy merge goes through the [`ComposeCache`], so a
//! boundary crossing is an id load plus a cached O(1) composition —
//! **zero interning, zero coercion allocation** — which the per-run
//! [`crate::metrics::ReuseStats`] counters make observable
//! (`tree_interns == 0` on a compiled block).
//!
//! [`run_compiled_in`] runs a compiled block whole, [`start_compiled_in`]
//! and [`resume_compiled_in`] run it in fuel slices, and [`run`]
//! compiles a tree [`Term`] first.
//!
//! # Fused transitions
//!
//! Most transitions evaluate a leaf (a constant or a variable, read
//! with [`Store::leaf`]) or return one into the frame pushed just
//! before it. The loop takes such a group in one dispatch — a
//! superinstruction — and counts every transition in it:
//!
//! * the transition that reaches the callee or the argument of an
//!   application, the bound of a `let` or the inner term of a
//!   coercion takes that leaf's `Eval` too (2 transitions);
//! * an operator over leaves computes its result (3 for `Op1`, 5 for
//!   `Op2`: the operator's `Eval`, and each operand's `Eval` and
//!   return);
//! * an `if` over a comparison of two leaves picks its branch (7);
//! * a coercion over a leaf coerces the leaf's value (3), but only
//!   when the top frame is not a coercion frame. On one, the push
//!   merges `s # t` into that frame, and the leaf's value then meets
//!   the merged coercion as it pops a frame the group did not push;
//!   there only the leaf's `Eval` is fused (2).
//!
//! A group of `k` transitions fires only when all of them fit before
//! the fuel and slice bounds (`steps + k ≤ min(fuel, until)`);
//! otherwise the unfused arm takes its first transition, so a run is
//! cut on the same transition as the unfused machine. A group records
//! the peak of the frames it skips pushing with [`Metrics::observe`],
//! and only its last transition can blame. Steps, the three peaks,
//! outcomes and cut points are therefore those of the unfused machine,
//! which a run in slices of one transition is: no group fits in it.

use bc_core::arena::{CoercionArena, CoercionId, ComposeCache, GNode, INode, SNode};
use bc_core::sterm::{CompileCtx, Node, SCode};
use bc_core::store::{Env, Frame, Store, Value};
use bc_core::term::Term;
use bc_syntax::{Constant, Label, Op};
use bc_translate::bisim::Observation;

use crate::metrics::{MachineOutcome, MachineRun, Metrics, ReuseStats, SliceResult};

#[derive(Debug)]
enum Control {
    Eval(u32, Env),
    Ret(Value),
}

// Control is two words, like the values and frames.
const _: () = assert!(std::mem::size_of::<Control>() == 16);

/// The calculus-agnostic observation of a value, read through the
/// arena that interned its coercions.
fn observe(v: Value, arena: &CoercionArena) -> Observation {
    match v.unproxy() {
        (Value::Int(n), None) => Observation::Constant(Constant::Int(n)),
        (Value::Bool(b), None) => Observation::Constant(Constant::Bool(b)),
        (_, None) => Observation::Function,
        (u, Some(coercion)) => match arena.node(coercion) {
            SNode::Mid(INode::Inj(g, ground)) => {
                let payload = match g {
                    GNode::IdBase(_) => observe(u, arena),
                    GNode::Fun(_, _) => Observation::Function,
                };
                Observation::Injected(ground, Box::new(payload))
            }
            SNode::Mid(INode::Ground(GNode::Fun(_, _))) => Observation::Function,
            _ => unreachable!(
                "coerced value with non-value coercion {}",
                arena.resolve(coercion)
            ),
        },
    }
}

/// The stacks and counters of a run, which a parked run keeps.
#[derive(Default)]
struct State {
    store: Store,
    metrics: Metrics,
    coercion_frames: usize,
    coercion_size: usize,
}

struct Machine<'a> {
    s: State,
    arena: &'a mut CoercionArena,
    cache: &'a mut ComposeCache,
}

impl Machine<'_> {
    fn push(&mut self, f: Frame) {
        if let Frame::CoerceFrame(c) = f {
            self.s.coercion_frames += 1;
            self.s.coercion_size += self.arena.size(c);
        }
        self.s.store.frames.push(f);
        self.observe();
    }

    fn observe(&mut self) {
        let s = &mut self.s;
        s.metrics
            .observe(s.store.frames.len(), s.coercion_frames, s.coercion_size);
    }

    /// Counts the `more` transitions a fused group takes after its
    /// first, and records the peak of the `frames` frames it skipped
    /// pushing, the topmost of them `coercion`'s frame if it has one.
    #[inline(always)]
    fn fused(&mut self, more: u64, frames: usize, coercion: Option<CoercionId>) {
        let (casts, size) = coercion.map_or((0, 0), |c| (1, self.arena.size(c)));
        let s = &mut self.s;
        s.metrics.steps += more;
        s.metrics.observe(
            s.store.frames.len() + frames,
            s.coercion_frames + casts,
            s.coercion_size + size,
        );
    }

    // The fused arms' helpers are inlined into the loop: called out of
    // line, the `Option`s they return cost about what the dispatches
    // they save do.

    /// The control that evaluates `child`: if it is a leaf and its
    /// `Eval` fits in `spare`, that transition taken too.
    #[inline(always)]
    fn descend(&mut self, code: &[Node], child: u32, env: Env, spare: u64) -> Control {
        if spare >= 1 {
            if let Some(v) = self.s.store.leaf(code[child as usize], env) {
                self.s.metrics.steps += 1;
                return Control::Ret(v);
            }
        }
        Control::Eval(child, env)
    }

    /// `op` over leaves, fused: its `Eval`, and each operand's `Eval`
    /// and return under its frame, inside `depth` more frames it skips
    /// pushing, each with an `Eval` before and a return after — if the
    /// `2·(N + depth)` transitions after the first fit in `spare`.
    #[inline(always)]
    fn leaf_op<const N: usize>(
        &mut self,
        code: &[Node],
        op: Op,
        args: [u32; N],
        env: Env,
        depth: usize,
        spare: u64,
    ) -> Option<Constant> {
        let more = 2 * (N + depth) as u64;
        if spare < more {
            return None;
        }
        let mut ks = [Constant::Int(0); N];
        for (k, at) in ks.iter_mut().zip(args) {
            *k = self.s.store.leaf(code[at as usize], env)?.constant();
        }
        self.fused(more, 1 + depth, None);
        Some(op.apply(&ks))
    }

    /// The branch an `if` over a comparison of two leaves takes, fused
    /// (7 transitions: the comparison's 5 inside the `if`'s frame).
    #[inline(always)]
    fn leaf_test(&mut self, code: &[Node], cond: u32, env: Env, spare: u64) -> Option<bool> {
        let Node::Op2(op, a, b) = code[cond as usize] else {
            return None;
        };
        match self.leaf_op(code, op, [a, b], env, 1, spare)? {
            Constant::Bool(b) => Some(b),
            k => unreachable!("if condition returned {k}"),
        }
    }

    /// A coercion over a leaf, off a coercion frame, fused: its `Eval`
    /// pushing `s`'s frame, the leaf's `Eval`, and the return that
    /// coerces the leaf's value, if the two after the first fit in
    /// `spare`.
    #[inline(always)]
    fn leaf_coerce(
        &mut self,
        code: &[Node],
        inner: u32,
        s: CoercionId,
        env: Env,
        spare: u64,
    ) -> Option<Result<Value, Label>> {
        if spare < 2 || matches!(self.s.store.frames.last(), Some(Frame::CoerceFrame(_))) {
            return None;
        }
        let v = self.s.store.leaf(code[inner as usize], env)?;
        self.fused(2, 1, Some(s));
        Some(self.coerce_value(v, s))
    }

    /// Pushes a coercion frame, *merging* with an existing top
    /// coercion frame — the one-line change that makes the machine
    /// space-efficient. The merge is a [`ComposeCache`] lookup when
    /// the pair has been composed before.
    fn push_coercion(&mut self, s: CoercionId) {
        if let Some(Frame::CoerceFrame(t)) = self.s.store.frames.last_mut() {
            // The value will meet `s` first and `t` second: replace
            // the top frame with `s # t`.
            let old = *t;
            let merged = self.arena.compose(self.cache, s, old);
            *t = merged;
            self.s.coercion_size =
                self.s.coercion_size - self.arena.size(old) + self.arena.size(merged);
            self.observe();
        } else {
            self.push(Frame::CoerceFrame(s));
        }
    }

    fn pop(&mut self) -> Option<Frame> {
        let f = self.s.store.frames.pop();
        if let Some(Frame::CoerceFrame(c)) = f {
            self.s.coercion_frames -= 1;
            self.s.coercion_size -= self.arena.size(c);
        }
        f
    }

    /// Applies a coercion to a value immediately, merging with any
    /// existing proxy coercion (never nesting).
    fn coerce_value(&mut self, v: Value, s: CoercionId) -> Result<Value, Label> {
        let (u, s) = match v.unproxy() {
            (u, None) => (u, s),
            (u, Some(proxy)) => (u, self.arena.compose(self.cache, proxy, s)),
        };
        match self.arena.node(s) {
            SNode::IdDyn => Ok(u),
            SNode::Mid(INode::Ground(GNode::IdBase(_))) => Ok(u),
            SNode::Mid(INode::Fail(_, p, _)) => Err(p),
            SNode::Mid(INode::Inj(_, _)) | SNode::Mid(INode::Ground(GNode::Fun(_, _))) => {
                Ok(u.proxy(s))
            }
            SNode::Proj(_, _, _) => {
                unreachable!("projection applied to an uncoerced value (which cannot have type ?)")
            }
        }
    }
}

/// Runs a closed, well-typed λS term on the space-efficient CEK
/// machine: the term is compiled into a code block in fresh arenas,
/// which then runs exactly as [`run_compiled_in`] runs it.
///
/// # Panics
///
/// Panics on open or ill-typed input.
pub fn run(term: &Term, fuel: u64) -> MachineRun {
    let mut ctx = CompileCtx::new();
    let code = ctx.compile(term);
    run_compiled_in(&code, &mut ctx.arena, &mut ctx.cache, fuel)
}

/// Runs an already-compiled program against the arena and cache it
/// was compiled into: every boundary crossing is an id load plus a
/// cached merge, with zero interning
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
    resume_compiled_in(paused, arena, cache, fuel).finished()
}

/// A preempted λS machine run, parked between fuel slices.
///
/// Unlike the machine itself, the parked state holds **no arena or
/// cache borrows** — only the program's code block (one shared `Rc`),
/// the continuation, locals and temporaries stacks, control, metrics,
/// and the arena/cache counters captured at [`start_compiled_in`] (so
/// the final [`ReuseStats`] delta spans all slices, exactly as an
/// unsliced run would report). Each [`resume_compiled_in`] call
/// re-borrows the arena/cache pair the program was compiled into; pass
/// a different pair and the ids mean something else entirely (the same
/// foreign-id caveat as [`run_compiled_in`]).
///
/// The block and capturing closures are `Rc`-shared, so a parked run
/// is not `Send`: it stays on the worker that started it.
pub struct Paused {
    code: SCode,
    state: State,
    control: Control,
    fuel: u64,
    arena_before: bc_core::arena::ArenaStats,
    cache_before: bc_core::arena::CacheStats,
}

impl Paused {
    /// Machine transitions taken so far, across all slices.
    pub fn steps(&self) -> u64 {
        self.state.metrics.steps
    }

    /// The steps and peaks so far, across all slices (the reuse
    /// counters are filled in when the run finishes).
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
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
    Paused {
        code: code.clone(),
        state: State::default(),
        control: Control::Eval(code.root(), Env::default()),
        fuel,
        arena_before: arena.stats(),
        cache_before: cache.stats(),
    }
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
    mut paused: Paused,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    slice: u64,
) -> SliceResult<Paused> {
    let mut m = Machine {
        s: std::mem::take(&mut paused.state),
        arena,
        cache,
    };
    let until = m.s.metrics.steps.saturating_add(slice);
    match exec_slice(&mut m, &paused.code, paused.control, paused.fuel, until) {
        Stepped::Done(mut run) => {
            run.metrics.reuse =
                reuse_delta(m.arena, m.cache, paused.arena_before, paused.cache_before);
            SliceResult::Done(run)
        }
        Stepped::Parked(control) => {
            paused.state = m.s;
            paused.control = control;
            SliceResult::Parked(paused)
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
    block: &SCode,
    mut control: Control,
    fuel: u64,
    until: u64,
) -> Stepped {
    let code = block.nodes();
    let done = |m: &Machine<'_>, outcome| {
        Stepped::Done(MachineRun {
            outcome,
            metrics: m.s.metrics.clone(),
        })
    };
    let limit = fuel.min(until);
    loop {
        // THE fuel-unit invariant: fuel, slices, and
        // `Metrics::steps` all count the same unit — one machine
        // transition — and the check happens before a transition
        // commits. Everything above (the pool's WARMUP_RUN_FUEL cap,
        // the pool's 4 096-step slices, FuelExhausted step reports)
        // relies on this 1:1 accounting; the λB/λC machines and the
        // small-step engines enforce the same order. A fused arm
        // takes all `k` transitions of its group only if each of them
        // would pass this check (`k - 1 ≤ spare`), and adds all `k` to
        // `steps`; otherwise the unfused arm takes one.
        if m.s.metrics.steps >= limit {
            if m.s.metrics.steps >= fuel {
                return done(m, MachineOutcome::Timeout);
            }
            return Stepped::Parked(control);
        }
        m.s.metrics.steps += 1;
        let spare = limit - m.s.metrics.steps;
        control = match control {
            Control::Eval(at, env) => match code[at as usize] {
                Node::Const(k) => Control::Ret(Value::of(k)),
                Node::Var { slot, .. } => Control::Ret(m.s.store.slot(env, slot).clone()),
                Node::Free(_) => panic!("evaluation reached a free variable"),
                Node::Lam { caps, .. } | Node::Fix { caps, .. } => {
                    Control::Ret(m.s.store.closure(block, at, caps, env, || ()))
                }
                Node::App(l, _) => {
                    m.push(Frame::AppArg(at, env));
                    m.descend(code, l, env, spare)
                }
                Node::Op1(op, a) => match m.leaf_op(code, op, [a], env, 0, spare) {
                    Some(k) => Control::Ret(Value::of(k)),
                    None => {
                        m.push(Frame::OpApply(at, env));
                        Control::Eval(a, env)
                    }
                },
                Node::Op2(op, a, b) => match m.leaf_op(code, op, [a, b], env, 0, spare) {
                    Some(k) => Control::Ret(Value::of(k)),
                    None => {
                        m.push(Frame::OpArg(at, env));
                        Control::Eval(a, env)
                    }
                },
                Node::OpN { op, len, .. } => {
                    unreachable!("operator {op} applied to {len} operands")
                }
                // The boundary crossing: `s` is a Copy id — no
                // interning, no allocation; merging with an adjacent
                // frame is a cached O(1) composition.
                Node::Coerce(inner, s) => match m.leaf_coerce(code, inner, s, env, spare) {
                    Some(Ok(v)) => Control::Ret(v),
                    Some(Err(p)) => return done(m, MachineOutcome::Blame(p)),
                    None => {
                        m.push_coercion(s);
                        m.descend(code, inner, env, spare)
                    }
                },
                Node::Blame(p, _) => return done(m, MachineOutcome::Blame(p)),
                Node::If(c, then_, else_) => match m.leaf_test(code, c, env, spare) {
                    Some(true) => Control::Eval(then_, env),
                    Some(false) => Control::Eval(else_, env),
                    None => {
                        m.push(Frame::If(at, env));
                        Control::Eval(c, env)
                    }
                },
                Node::Let { bound, .. } => {
                    m.push(Frame::Let(at, env));
                    m.descend(code, bound, env, spare)
                }
            },
            Control::Ret(v) => match m.pop() {
                None => {
                    let observation = observe(v, m.arena);
                    return done(m, MachineOutcome::Value(observation));
                }
                Some(Frame::AppArg(at, env)) => {
                    let Node::App(_, arg) = code[at as usize] else {
                        unreachable!("an argument frame holds an application")
                    };
                    m.s.store.temps.push(v);
                    m.push(Frame::AppCall(env));
                    m.descend(code, arg, env, spare)
                }
                Some(Frame::AppCall(_)) => {
                    let fun = m.s.store.temps.pop().expect("a call frame's function");
                    match apply(m, code, fun, v) {
                        Ok(c) => c,
                        Err(p) => return done(m, MachineOutcome::Blame(p)),
                    }
                }
                Some(Frame::OpArg(at, env)) => {
                    let Node::Op2(_, _, arg) = code[at as usize] else {
                        unreachable!("an operand frame holds a binary operator")
                    };
                    m.s.store.temps.push(v);
                    m.push(Frame::OpApply(at, env));
                    Control::Eval(arg, env)
                }
                Some(Frame::OpApply(at, _)) => {
                    let k = v.constant();
                    let result = match code[at as usize] {
                        Node::Op1(op, _) => op.apply(&[k]),
                        Node::Op2(op, _, _) => {
                            let first = m.s.store.temps.pop().expect("an operator's first operand");
                            op.apply(&[first.constant(), k])
                        }
                        other => unreachable!("an operator frame holds {other:?}"),
                    };
                    Control::Ret(Value::of(result))
                }
                Some(Frame::If(at, env)) => {
                    let Node::If(_, then_, else_) = code[at as usize] else {
                        unreachable!("a conditional frame holds an if")
                    };
                    match v {
                        Value::Bool(true) => Control::Eval(then_, env),
                        Value::Bool(false) => Control::Eval(else_, env),
                        other => unreachable!("if condition returned {other:?}"),
                    }
                }
                Some(Frame::Let(at, env)) => {
                    let Node::Let { body, .. } = code[at as usize] else {
                        unreachable!("a let frame holds a let")
                    };
                    Control::Eval(body, m.s.store.bind(env, v))
                }
                Some(Frame::CoerceFrame(s)) => match m.coerce_value(v, s) {
                    Ok(v2) => Control::Ret(v2),
                    Err(p) => return done(m, MachineOutcome::Blame(p)),
                },
            },
        };
    }
}

fn apply(m: &mut Machine<'_>, code: &[Node], fun: Value, arg: Value) -> Result<Control, Label> {
    let (u, arg) = match fun.unproxy() {
        (u, None) => (u, arg),
        (u, Some(coercion)) => match m.arena.node(coercion) {
            SNode::Mid(INode::Ground(GNode::Fun(s, t))) => {
                // (U⟨s→t⟩) V: coerce the argument by s, push (merging!)
                // the result coercion t, apply the proxied function.
                let arg = m.coerce_value(arg, s)?;
                m.push_coercion(t);
                (u, arg)
            }
            _ => unreachable!(
                "applied a non-function coercion {}",
                m.arena.resolve(coercion)
            ),
        },
    };
    let (body, env) = m.s.store.call(code, u, arg);
    Ok(Control::Eval(body, env))
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
        use bc_translate::bisim::observe;
        for (name, t) in [
            ("boundary_loop", programs::boundary_loop(6)),
            ("even_odd_mixed", programs::even_odd_mixed(5)),
            ("even_untyped", programs::even_untyped(4)),
            ("wrapped_identity", programs::wrapped_identity(4)),
        ] {
            let ts = to_s(&t);
            let small = observe::<bc_core::LambdaS>(&eval::run(&ts, 1_000_000).unwrap().outcome);
            let machine = run(&ts, 1_000_000).outcome.to_observation();
            assert_eq!(small, machine, "{name}");
        }
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
        let mut ctx = bc_core::CompileCtx::new();
        let code = ctx.compile(&to_s(&programs::boundary_loop(512)));
        let m = run_compiled_in(&code, &mut ctx.arena, &mut ctx.cache, 10_000_000);
        assert!(matches!(m.outcome, MachineOutcome::Value(_)));
        let stats = ctx.cache.stats();
        assert!(
            stats.hits > 8 * stats.misses,
            "expected overwhelmingly cache-hit merges, got {stats:?}"
        );
        // And the arena stays small even though the loop merged
        // thousands of times: bounded distinct coercions.
        assert!(ctx.arena.len() < 64, "arena grew to {}", ctx.arena.len());
    }

    #[test]
    fn compiled_path_performs_zero_reinterning() {
        // The compiled IR's defining property: once a program
        // is compiled, boundary crossings intern nothing — 512 loop
        // iterations, zero tree interns, and (warm) zero new nodes.
        let mut ctx = bc_core::CompileCtx::new();
        let compiled = ctx.compile(&to_s(&programs::boundary_loop(512)));

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
    }

    /// Runs a GTLC program one transition per slice, handing every
    /// parked state to `inspect`.
    fn step_through(source: &str, mut inspect: impl FnMut(&Paused)) -> MachineRun {
        let mut ctx = CompileCtx::new();
        let program = bc_gtlc::compile_compiled(source, &mut ctx.types).expect("compiles");
        let code =
            bc_translate::term_b_to_s_compiled(&program.term, &mut ctx.types, &mut ctx.arena);
        let paused = start_compiled_in(&code, &ctx.arena, &ctx.cache, u64::MAX);
        SliceResult::Parked(paused).finish(|p| {
            inspect(&p);
            resume_compiled_in(p, &mut ctx.arena, &mut ctx.cache, 1)
        })
    }

    /// The space a loop's run peaks at: continuation frames, coercion
    /// frames and size, and the locals and temporaries stacks.
    fn peak_space(source: &str) -> [usize; 5] {
        let (mut locals, mut temps) = (0, 0);
        let run = step_through(source, |p| {
            locals = locals.max(p.state.store.locals.len());
            temps = temps.max(p.state.store.temps.len());
        });
        let expected = MachineOutcome::Value(Observation::Constant(Constant::Bool(true)));
        assert_eq!(run.outcome, expected, "{source}");
        let m = run.metrics;
        [
            m.peak_frames,
            m.peak_cast_frames,
            m.peak_cast_size,
            locals,
            temps,
        ]
    }

    #[test]
    fn tail_calls_run_in_constant_space() {
        // THE headline claim, for every stack the machine keeps: a loop
        // peaks at the same space for 16 and 4096 iterations, whether it
        // crosses a boundary, binds a `let` in its body, or calls a
        // capturing closure, because a tail call reuses its caller's
        // activation.
        let loops = [
            "letrec loop (n : Int) : Bool = \
               if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) in loop",
            "letrec loop (n : Int) : Bool = \
               let m = n - 1 in if n = 0 then true else loop m in loop",
            "let k = 1 in let step = fun (n : Int) => n - k in \
             letrec loop (n : Int) : Bool = if n = 0 then true else loop (step n) in loop",
        ];
        for source in loops {
            let small = peak_space(&format!("{source} 16"));
            assert_eq!(small, peak_space(&format!("{source} 4096")), "{source}");
            assert!(small[1] <= 2, "{source}: {small:?}");
        }
    }

    #[test]
    fn closures_capture_only_their_free_variables() {
        let mut sizes = Vec::new();
        let outcome = step_through("let big = 41 in let a = 1 in fun x => x + a", |p| {
            if let Control::Ret(Value::Closure(c)) = &p.control {
                sizes.push(c.captures.len());
            }
        });
        assert_eq!(
            outcome.outcome,
            MachineOutcome::Value(Observation::Function)
        );
        assert_eq!(sizes, [1]);
    }
}

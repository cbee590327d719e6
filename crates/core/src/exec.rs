//! The λS run loop, written once for both λS engines.
//!
//! λS's small-step (Figure 5) and its CEK machine are one machine under
//! the functional correspondence: a refocused small-step is a CEK
//! machine that counts only its contractions (Danvy & Nielsen,
//! "Refocusing in reduction semantics", BRICS RS-04-26). This module is
//! that machine on the run state of [`crate::store`]: code under an
//! environment or a value, the frames around it, and never a coercion
//! frame pushed onto another, since the push merges the two (`s # t`).
//! An engine is a [`Count`] policy the loop is monomorphised over. It
//! decides what a step is (each transition, [`Count::TRANSITION`], or
//! each contraction, [`Count::CONTRACTION`]), what a capturing closure
//! keeps ([`Count::Payload`]), and what it tracks: the frame peaks the
//! loop reports ([`Count::observe`]) or what each contraction does to
//! the term the state stands for ([`Count::contracted`]).
//!
//! # Groups
//!
//! Most transitions evaluate a leaf (a constant or a variable, read with
//! [`Store::leaf`]) or return one into the frame pushed just before it,
//! and the loop takes such a group in one dispatch: the `Eval` of an
//! application's callee or argument, a `let`'s bound or a coercion's
//! inner term when it is a leaf (2 transitions); an operator over leaves
//! (3 transitions for `Op1`, 5 for `Op2`; one contraction); an `if` over
//! a comparison of two leaves (7; two contractions); and a coercion over
//! a leaf (3; up to two contractions) when the top frame is not a
//! coercion frame, which the push would merge with instead. Some single
//! transitions are several contractions: a proxy meeting a coercion
//! frame merges, then unwraps or blames, and a proxied call splits
//! `s → t`, merges `t` with the coercion frame below it, merges or
//! coerces the argument, then calls.
//!
//! A group fires only when its cost under the policy fits before the
//! fuel and slice bounds (`steps + cost ≤ min(fuel, until)`); otherwise
//! the loop takes its first transition or contraction alone, parking a
//! proxied call between contractions in [`Control::Proxy`]. A policy
//! that charges no contraction thus never stops inside a transition, and
//! one that charges no transition stops only before a contraction. A
//! group reports the peak of the frames it skips pushing, and only its
//! last step can blame, so steps, peaks, outcomes and cut points are
//! those of the run in slices of one step. Slices of one never split a
//! contraction, but they are not free of groups under every policy: the
//! machine's takes none there (each costs two transitions or more),
//! while the small-step's takes every group of at most one contraction
//! (a leaf's `Eval` costs none, an operator over leaves one), so its
//! stepwise run shares that pricing with the whole run and the tree
//! oracle is what checks it.

use bc_syntax::reduce::Slice;
use bc_syntax::{Constant, Label, Op};

use crate::arena::{CoercionArena, CoercionId, ComposeCache, GNode, INode, SNode};
use crate::sterm::{Node, SCode};
use crate::store::{Env, Frame, Store, Value};

/// What the loop does next.
#[derive(Debug, Clone)]
pub enum Control<E> {
    /// Evaluate the code at the offset in the environment.
    Eval(u32, Env),
    /// Return the value into the top frame.
    Ret(Value<E>),
    /// `U (V⟨s⟩)` inside the call's result coercion, between the proxy
    /// rule's contractions: `U` and `V` are the top two temporaries, and
    /// the result coercion's frame is on top, perhaps still on another.
    Proxy(CoercionId),
}

// Control is two words, like the values and frames.
const _: () = assert!(std::mem::size_of::<Control<()>>() == 16);
const _: () = assert!(std::mem::size_of::<Control<(usize, usize)>>() == 16);

/// How a run ended.
#[derive(Debug)]
pub enum End<E> {
    /// With a value and no frame left.
    Value(Value<E>),
    /// With blame.
    Blame(Label),
    /// With its fuel spent and a step still to take.
    Fuel,
}

/// A contraction of Figure 5, as [`Count::contracted`] is told of it
/// before the run state changes.
#[derive(Debug)]
pub enum Redex<'a, E> {
    /// `M⟨s⟩⟨t⟩ ⟶ M⟨u⟩`, `u = s # t`.
    Merge(CoercionId, CoercionId, CoercionId),
    /// `U⟨c⟩ ⟶ U` for an identity `c`.
    Unwrap(CoercionId),
    /// `E[blame p] ⟶ blame p` or `U⟨⊥GpH⟩ ⟶ blame p`.
    Raise,
    /// An operator of the arity applied to constants.
    Op(usize),
    /// `if k then M else N`, dropping the branch at the offset, in the
    /// environment.
    If(u32, Env),
    /// `let x = V in N`, for the `let` node at the offset.
    Let(u32, &'a Value<E>),
    /// `(U⟨c⟩) V ⟶ (U (V⟨s⟩))⟨t⟩` for `c = s → t`.
    Split(CoercionId, CoercionId, CoercionId),
    /// `V W` for an uncoerced function `V`.
    Beta(&'a Value<E>, &'a Value<E>),
}

/// A counting policy: what one engine counts, and what it keeps to
/// count it. The hooks default to doing nothing.
pub trait Count: Sized {
    /// What a capturing closure keeps besides its captures.
    type Payload: Clone + Default + std::fmt::Debug;
    /// What checking and finishing a run read besides the coercion
    /// arena.
    type Aux: ?Sized;
    /// What a finished run reports.
    type Output;
    /// What a parked run reports of its steps and peaks.
    type Metrics;
    /// The steps one machine transition costs.
    const TRANSITION: u64;
    /// The steps one contraction costs.
    const CONTRACTION: u64;

    /// The peaks so far, with the `steps` the loop counted.
    fn metrics(&self, steps: u64) -> Self::Metrics;
    /// The payload of a capturing closure over the `λ`/`fix` at `at`,
    /// made in `env`.
    fn payload(
        &self,
        code: &SCode,
        store: &Store<Self::Payload>,
        arena: &CoercionArena,
        at: u32,
        env: Env,
    ) -> Self::Payload;
    /// The run holds, or a group passed through, `frames` frames,
    /// `casts` of them coercion frames of total size `size`.
    fn observe(&mut self, _frames: usize, _casts: usize, _size: usize) {}
    /// A contraction is about to fire on `store`.
    fn contracted(
        &mut self,
        _redex: Redex<'_, Self::Payload>,
        _code: &SCode,
        _store: &Store<Self::Payload>,
        _arena: &CoercionArena,
    ) {
    }
    /// A dispatch that contracted left the run in this state, after
    /// `steps` steps.
    fn check(
        &self,
        _steps: u64,
        _code: &SCode,
        _store: &Store<Self::Payload>,
        _control: &Control<Self::Payload>,
        _arena: &CoercionArena,
        _aux: &Self::Aux,
    ) {
    }
    /// The report of a run that ended after `steps` steps.
    fn finish(
        self,
        end: End<Self::Payload>,
        steps: u64,
        code: &SCode,
        arena: &CoercionArena,
        cache: &ComposeCache,
        aux: &Self::Aux,
    ) -> Self::Output;
}

/// A λS run parked between fuel slices: the program's code block, the
/// run state, the steps taken and the policy's counts. The block and
/// capturing closures are `Rc`-shared, so a parked run is not `Send`,
/// and it holds no arena: each [`resume`] re-borrows the arenas the
/// block was lowered into (pass others and its ids mean something else
/// entirely).
#[derive(Debug, Clone)]
pub struct Paused<P: Count> {
    code: SCode,
    store: Store<P::Payload>,
    control: Control<P::Payload>,
    fuel: u64,
    steps: u64,
    /// The coercion frames on the stack, and their total size.
    casts: (usize, usize),
    count: P,
}

impl<P: Count> Paused<P> {
    /// Begins a run of `code` with at most `fuel` steps, counted by
    /// `count`, before its first step: the block is trusted to be
    /// closed and well typed.
    pub fn new(code: &SCode, fuel: u64, count: P) -> Self {
        Paused {
            code: code.clone(),
            store: Store::default(),
            control: Control::Eval(code.root(), Env::default()),
            fuel,
            steps: 0,
            casts: (0, 0),
            count,
        }
    }

    /// Steps taken so far, across all slices.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The steps and peaks so far, across all slices.
    pub fn metrics(&self) -> P::Metrics {
        self.count.metrics(self.steps)
    }

    /// The run state.
    pub fn store(&self) -> &Store<P::Payload> {
        &self.store
    }

    /// What the run does next.
    pub fn control(&self) -> &Control<P::Payload> {
        &self.control
    }
}

/// Runs a parked run for at most `slice` further steps.
///
/// Fuel and slices count the same unit, charged before a step commits,
/// and the fuel check comes first: a slice at least as large as the
/// remaining fuel never parks, so `resume(Paused::new(c, f, ..), f, ..)`
/// is the unsliced run, steps and peaks included.
///
/// # Panics
///
/// Panics if the block is open or ill typed, or its ids are foreign to
/// `arena`.
pub fn resume<P: Count>(
    mut paused: Paused<P>,
    slice: u64,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    aux: &P::Aux,
) -> Slice<Paused<P>, P::Output> {
    let code = paused.code.clone();
    let limit = paused.fuel.min(paused.steps.saturating_add(slice));
    let left = limit - paused.steps;
    let control = std::mem::replace(&mut paused.control, Control::Eval(0, Env::default()));
    let mut run = Run {
        code: &code,
        p: paused,
        limit,
        left,
        arena,
        cache,
    };
    let end = run.exec(control, aux);
    run.p.steps = run.steps();
    match end {
        Ok(end) => {
            let p = run.p;
            Slice::Done(
                p.count
                    .finish(end, p.steps, &code, run.arena, run.cache, aux),
            )
        }
        Err(control) => Slice::Parked(Paused { control, ..run.p }),
    }
}

/// A run inside one slice: the parked run it resumed, whose control
/// the loop holds, the slice's bound and the arenas. The loop counts the
/// steps `left` before the bound down, and the parked run's steps are
/// `limit - left` again when the slice ends.
struct Run<'a, P: Count> {
    code: &'a SCode,
    p: Paused<P>,
    limit: u64,
    left: u64,
    arena: &'a mut CoercionArena,
    cache: &'a mut ComposeCache,
}

/// `Err` parks the run with this control.
type Exec<E> = Result<End<E>, Control<E>>;

impl<P: Count> Run<'_, P> {
    /// Whether `transitions` more transitions and `contractions`
    /// contractions fit before the fuel and slice bounds.
    #[inline(always)]
    fn fits(&self, transitions: u64, contractions: u64) -> bool {
        let cost = transitions * P::TRANSITION + contractions * P::CONTRACTION;
        cost == 0 || cost <= self.left
    }

    /// The steps taken so far, across all slices.
    fn steps(&self) -> u64 {
        self.limit - self.left
    }

    /// Stops before a step that does not fit: the run ends if the fuel
    /// is spent, and parks with `control` otherwise.
    fn stop(&self, control: Control<P::Payload>) -> Exec<P::Payload> {
        match self.steps() >= self.p.fuel {
            true => Ok(End::Fuel),
            false => Err(control),
        }
    }

    /// Reports the frames, plus `skipped` a group did not push, the
    /// topmost of them `coercion`'s frame if it has one.
    #[inline(always)]
    fn observe(&mut self, skipped: usize, coercion: Option<CoercionId>) {
        let (casts, size) = coercion.map_or((0, 0), |c| (1, self.arena.size(c)));
        let frames = self.p.store.frames.len() + skipped;
        let (casts, size) = (self.p.casts.0 + casts, self.p.casts.1 + size);
        self.p.count.observe(frames, casts, size);
    }

    fn push(&mut self, frame: Frame) {
        if let Frame::CoerceFrame(c) = frame {
            self.p.casts = (self.p.casts.0 + 1, self.p.casts.1 + self.arena.size(c));
        }
        self.p.store.frames.push(frame);
        self.observe(0, None);
    }

    fn pop(&mut self) -> Option<Frame> {
        let frame = self.p.store.frames.pop();
        if let Some(Frame::CoerceFrame(c)) = frame {
            self.p.casts = (self.p.casts.0 - 1, self.p.casts.1 - self.arena.size(c));
        }
        frame
    }

    fn contract(&mut self, redex: Redex<'_, P::Payload>) {
        self.left -= P::CONTRACTION;
        self.p
            .count
            .contracted(redex, self.code, &self.p.store, self.arena);
    }

    /// Merges `s` into the coercion frame `t` on top: the value will
    /// meet `s` first and `t` second.
    fn merge_top(&mut self, s: CoercionId, t: CoercionId) {
        let u = self.arena.compose(self.cache, s, t);
        self.contract(Redex::Merge(s, t, u));
        if let Some(top) = self.p.store.frames.last_mut() {
            *top = Frame::CoerceFrame(u);
        }
        self.p.casts.1 = self.p.casts.1 - self.arena.size(t) + self.arena.size(u);
        self.observe(0, None);
    }

    fn on_coercion_frame(&self) -> bool {
        matches!(self.p.store.frames.last(), Some(Frame::CoerceFrame(_)))
    }

    /// Pushes a coercion frame, merging it into a coercion frame on top
    /// — the one rule that makes the λS machine space-efficient.
    fn push_coercion(&mut self, s: CoercionId) {
        match self.p.store.frames.last() {
            Some(&Frame::CoerceFrame(t)) => self.merge_top(s, t),
            _ => self.push(Frame::CoerceFrame(s)),
        }
    }

    /// Whether returning `v` into the top frame contracts: every frame
    /// but an operand's does, and a coercion frame does unless it makes
    /// an uncoerced value a proxy.
    fn returns_contract(&self, v: &Value<P::Payload>) -> bool {
        match self.p.store.frames.last() {
            None | Some(Frame::AppArg(..) | Frame::OpArg(..)) => false,
            Some(&Frame::CoerceFrame(s)) => {
                v.coercion().is_some()
                    || !matches!(
                        self.arena.node(s),
                        SNode::Mid(INode::Inj(..) | INode::Ground(GNode::Fun(..)))
                    )
            }
            Some(_) => true,
        }
    }

    /// `V⟨s⟩` with no coercion frame around it: a proxy merges, an
    /// identity unwraps, a failure blames, and any other coercion makes
    /// a proxy.
    fn coerce(&mut self, v: Value<P::Payload>, s: CoercionId) -> Result<Value<P::Payload>, Label> {
        let (u, s) = match v.unproxy() {
            (u, None) => (u, s),
            (u, Some(s0)) => {
                let r = self.arena.compose(self.cache, s0, s);
                self.contract(Redex::Merge(s0, s, r));
                (u, r)
            }
        };
        match self.arena.node(s) {
            SNode::IdDyn | SNode::Mid(INode::Ground(GNode::IdBase(_))) => {
                self.contract(Redex::Unwrap(s));
                Ok(u)
            }
            SNode::Mid(INode::Fail(_, p, _)) => {
                self.contract(Redex::Raise);
                Err(p)
            }
            SNode::Mid(INode::Inj(..) | INode::Ground(GNode::Fun(..))) => Ok(u.proxy(s)),
            SNode::Proj(..) => unreachable!("an uncoerced value cannot have type ?"),
        }
    }

    /// Counts the `more` transitions a group takes after its first, and
    /// reports the `frames` frames it skipped pushing.
    #[inline(always)]
    fn fused(&mut self, more: u64, frames: usize, coercion: Option<CoercionId>) {
        self.left -= more * P::TRANSITION;
        self.observe(frames, coercion);
    }

    // The groups' helpers are inlined into the loop: called out of
    // line, the `Option`s they return cost about what the dispatches
    // they save do.

    /// The control that evaluates `child`: if it is a leaf and its
    /// `Eval` fits, that transition taken too.
    #[inline(always)]
    fn descend(&mut self, code: &[Node], child: u32, env: Env) -> Control<P::Payload> {
        if self.fits(1, 0) {
            if let Some(v) = self.p.store.leaf(code[child as usize], env) {
                self.left -= P::TRANSITION;
                return Control::Ret(v);
            }
        }
        Control::Eval(child, env)
    }

    /// `op` over leaves as a group: its `Eval`, and each operand's
    /// `Eval` and return under its frame, inside `depth` more frames it
    /// skips pushing, each with an `Eval` before and a return after —
    /// if the `2·(N + depth)` transitions after the first and its
    /// `1 + depth` contractions fit.
    #[inline(always)]
    fn leaf_op<const N: usize>(
        &mut self,
        code: &[Node],
        op: Op,
        args: [u32; N],
        env: Env,
        depth: usize,
    ) -> Option<Constant> {
        let more = 2 * (N + depth) as u64;
        if !self.fits(more, 1 + depth as u64) {
            return None;
        }
        let mut ks = [Constant::Int(0); N];
        for (k, at) in ks.iter_mut().zip(args) {
            *k = self.p.store.leaf(code[at as usize], env)?.constant();
        }
        self.fused(more, 1 + depth, None);
        self.contract(Redex::Op(N));
        Some(op.apply(&ks))
    }

    /// The branch an `if` over a comparison of two leaves takes, as a
    /// group: the comparison's inside the `if`'s frame.
    #[inline(always)]
    fn leaf_test(
        &mut self,
        code: &[Node],
        c: u32,
        then_: u32,
        else_: u32,
        env: Env,
    ) -> Option<u32> {
        let Node::Op2(op, a, b) = code[c as usize] else {
            return None;
        };
        let (taken, dropped) = match self.leaf_op(code, op, [a, b], env, 1)? {
            Constant::Bool(true) => (then_, else_),
            Constant::Bool(false) => (else_, then_),
            k => unreachable!("if condition returned {k}"),
        };
        self.contract(Redex::If(dropped, env));
        Some(taken)
    }

    /// A coercion over a leaf, off a coercion frame, as a group: its
    /// `Eval` pushing `s`'s frame, the leaf's `Eval`, and the return
    /// that coerces the leaf's value, if the two transitions after the
    /// first and up to two contractions fit.
    #[inline(always)]
    fn leaf_coerce(
        &mut self,
        code: &[Node],
        inner: u32,
        s: CoercionId,
        env: Env,
    ) -> Option<Result<Value<P::Payload>, Label>> {
        if !self.fits(2, 2) || self.on_coercion_frame() {
            return None;
        }
        let v = self.p.store.leaf(code[inner as usize], env)?;
        self.fused(2, 1, Some(s));
        Some(self.coerce(v, s))
    }

    /// The loop: one dispatch per transition or group. It is kept out
    /// of [`resume`]: inlined there, the machine's loop ran about 3%
    /// slower per transition on the boundary loop.
    #[inline(never)]
    fn exec(&mut self, mut control: Control<P::Payload>, aux: &P::Aux) -> Exec<P::Payload> {
        let block = self.code;
        let code = block.nodes();
        loop {
            // THE fuel-unit invariant: fuel, slices and steps count the
            // same unit, and the check happens before a step commits —
            // here for a transition, at each contraction below for a
            // policy that charges those. Everything above (the pool's
            // WARMUP_RUN_FUEL cap, the pool's 4 096-step slices,
            // FuelExhausted step reports) relies on this 1:1
            // accounting; the λB/λC machines and the tree small-steps
            // enforce the same order.
            if !self.fits(1, 0) {
                return self.stop(control);
            }
            self.left -= P::TRANSITION;
            let before = self.left;
            control = match control {
                Control::Eval(at, env) => match code[at as usize] {
                    Node::Const(k) => Control::Ret(Value::of(k)),
                    Node::Var { slot, .. } => Control::Ret(self.p.store.slot(env, slot).clone()),
                    Node::Free(_) => panic!("evaluation reached a free variable"),
                    Node::Lam { caps, .. } | Node::Fix { caps, .. } => {
                        let (count, store, arena) = (&self.p.count, &self.p.store, &*self.arena);
                        let payload = || count.payload(block, store, arena, at, env);
                        Control::Ret(store.closure(block, at, caps, env, payload))
                    }
                    Node::App(l, _) => {
                        self.push(Frame::AppArg(at, env));
                        self.descend(code, l, env)
                    }
                    Node::Op1(op, a) => match self.leaf_op(code, op, [a], env, 0) {
                        Some(k) => Control::Ret(Value::of(k)),
                        None => {
                            self.push(Frame::OpApply(at, env));
                            Control::Eval(a, env)
                        }
                    },
                    Node::Op2(op, a, b) => match self.leaf_op(code, op, [a, b], env, 0) {
                        Some(k) => Control::Ret(Value::of(k)),
                        None => {
                            self.push(Frame::OpArg(at, env));
                            Control::Eval(a, env)
                        }
                    },
                    Node::OpN { op, len, .. } => {
                        unreachable!("operator {op} applied to {len} operands")
                    }
                    // The boundary crossing: `s` is a Copy id — no
                    // interning, no allocation; merging with an adjacent
                    // frame is a cached O(1) composition.
                    Node::Coerce(inner, s) => match self.leaf_coerce(code, inner, s, env) {
                        Some(Ok(v)) => Control::Ret(v),
                        Some(Err(p)) => return Ok(End::Blame(p)),
                        None => {
                            if !self.fits(0, u64::from(self.on_coercion_frame())) {
                                return self.stop(Control::Eval(at, env));
                            }
                            self.push_coercion(s);
                            self.descend(code, inner, env)
                        }
                    },
                    Node::Blame(p, _) => {
                        if !self.p.store.frames.is_empty() {
                            if !self.fits(0, 1) {
                                return self.stop(Control::Eval(at, env));
                            }
                            self.contract(Redex::Raise);
                        }
                        return Ok(End::Blame(p));
                    }
                    Node::If(c, then_, else_) => match self.leaf_test(code, c, then_, else_, env) {
                        Some(taken) => Control::Eval(taken, env),
                        None => {
                            self.push(Frame::If(at, env));
                            Control::Eval(c, env)
                        }
                    },
                    Node::Let { bound, .. } => {
                        self.push(Frame::Let(at, env));
                        self.descend(code, bound, env)
                    }
                },
                Control::Ret(v) => {
                    if P::CONTRACTION > 0 && !self.fits(0, u64::from(self.returns_contract(&v))) {
                        return self.stop(Control::Ret(v));
                    }
                    let Some(frame) = self.pop() else {
                        return Ok(End::Value(v));
                    };
                    match frame {
                        Frame::AppArg(at, env) => {
                            let Node::App(_, arg) = code[at as usize] else {
                                unreachable!("an argument frame holds an application")
                            };
                            self.p.store.temps.push(v);
                            self.push(Frame::AppCall(env));
                            self.descend(code, arg, env)
                        }
                        Frame::AppCall(_) => {
                            let fun = self.p.store.temps.pop().expect("a call frame's function");
                            match self.apply(code, fun, v) {
                                Ok(control) => control,
                                Err(p) => return Ok(End::Blame(p)),
                            }
                        }
                        Frame::OpArg(at, env) => {
                            let Node::Op2(_, _, arg) = code[at as usize] else {
                                unreachable!("an operand frame holds a binary operator")
                            };
                            self.p.store.temps.push(v);
                            self.push(Frame::OpApply(at, env));
                            Control::Eval(arg, env)
                        }
                        Frame::OpApply(at, _) => {
                            let k = v.constant();
                            let (result, arity) = match code[at as usize] {
                                Node::Op1(op, _) => (op.apply(&[k]), 1),
                                Node::Op2(op, _, _) => {
                                    let first = self.p.store.temps.pop().expect("a first operand");
                                    (op.apply(&[first.constant(), k]), 2)
                                }
                                other => unreachable!("an operator frame holds {other:?}"),
                            };
                            self.contract(Redex::Op(arity));
                            Control::Ret(Value::of(result))
                        }
                        Frame::If(at, env) => {
                            let Node::If(_, then_, else_) = code[at as usize] else {
                                unreachable!("a conditional frame holds an if")
                            };
                            let (taken, dropped) = match v {
                                Value::Bool(true) => (then_, else_),
                                Value::Bool(false) => (else_, then_),
                                other => unreachable!("if condition returned {other:?}"),
                            };
                            self.contract(Redex::If(dropped, env));
                            Control::Eval(taken, env)
                        }
                        Frame::Let(at, env) => {
                            let Node::Let { body, .. } = code[at as usize] else {
                                unreachable!("a let frame holds a let")
                            };
                            self.contract(Redex::Let(at, &v));
                            Control::Eval(body, self.p.store.bind(env, v))
                        }
                        // Without room for a proxy's merge and unwrap, the
                        // merge alone.
                        Frame::CoerceFrame(s) => match v.coercion() {
                            Some(s0) if !self.fits(0, 2) => {
                                let r = self.arena.compose(self.cache, s0, s);
                                self.contract(Redex::Merge(s0, s, r));
                                self.push(Frame::CoerceFrame(r));
                                Control::Ret(v.unproxy().0)
                            }
                            _ => match self.coerce(v, s) {
                                Ok(v) => Control::Ret(v),
                                Err(p) => return Ok(End::Blame(p)),
                            },
                        },
                    }
                }
                Control::Proxy(s) => {
                    if let [.., Frame::CoerceFrame(below), Frame::CoerceFrame(t)] =
                        self.p.store.frames[..]
                    {
                        if !self.fits(0, 1) {
                            return self.stop(Control::Proxy(s));
                        }
                        self.pop();
                        self.merge_top(t, below);
                        Control::Proxy(s)
                    } else {
                        let arg = self.p.store.temps.pop().expect("a proxy's argument");
                        let env = self.p.store.top_env();
                        self.push(Frame::AppCall(env));
                        self.push(Frame::CoerceFrame(s));
                        Control::Ret(arg)
                    }
                }
            };
            if self.left != before {
                let (p, steps) = (&self.p, self.steps());
                p.count
                    .check(steps, block, &p.store, &control, self.arena, aux);
            }
        }
    }

    /// Applies `fun` to `arg`. A proxy `U⟨s → t⟩` coerces the argument
    /// by `s`, merges or pushes `t`, and calls `U`, all in one dispatch
    /// if its up to five contractions fit; otherwise it splits alone and
    /// parks the rest in [`Control::Proxy`].
    fn apply(
        &mut self,
        code: &[Node],
        fun: Value<P::Payload>,
        arg: Value<P::Payload>,
    ) -> Result<Control<P::Payload>, Label> {
        let (u, arg) = match fun.unproxy() {
            (u, None) => {
                self.contract(Redex::Beta(&u, &arg));
                (u, arg)
            }
            (u, Some(c)) => {
                let SNode::Mid(INode::Ground(GNode::Fun(s, t))) = self.arena.node(c) else {
                    unreachable!("applied a non-function coercion {}", self.arena.resolve(c))
                };
                self.contract(Redex::Split(c, s, t));
                if !self.fits(0, 4) {
                    self.p.store.temps.extend([u, arg]);
                    self.push(Frame::CoerceFrame(t));
                    return Ok(Control::Proxy(s));
                }
                let merges = self.on_coercion_frame();
                // A blamed argument ends the run before `t` is pushed,
                // and the merge of `t` the small-step takes first is
                // counted, unpriced: blame drops it with everything else.
                let arg = match self.coerce(arg, s) {
                    Ok(arg) => arg,
                    Err(p) => {
                        self.left -= u64::from(merges) * P::CONTRACTION;
                        return Err(p);
                    }
                };
                self.push_coercion(t);
                self.contract(Redex::Beta(&u, &arg));
                (u, arg)
            }
        };
        let (body, env) = self.p.store.call(code, u, arg);
        Ok(Control::Eval(body, env))
    }
}

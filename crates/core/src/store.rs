//! The λS run state: the values, frames and stacks the one λS run loop
//! ([`crate::exec`]) runs a compiled [`SCode`] block on, under either
//! of its two counting policies — the CEK machine's
//! (`bc_machine::cek_s`) and the compiled small-step's
//! ([`crate::eval::start_compiled`]).
//!
//! # The run state
//!
//! A run executes its block in place, and every value, frame and
//! environment it holds is at most two words:
//!
//! * code is a node offset plus an [`Env`], so evaluating a subterm
//!   copies three `u32`s and never clones a term spine;
//! * a `λ`/`fix` that captures nothing is a bare code offset
//!   ([`Value::Code`]), and any other an `Rc` of its offset and the
//!   values of exactly the variables its body mentions ([`Closure`]),
//!   copied along the capture list lowering recorded in the block;
//! * locals live in one stack: a call pushes an activation of the
//!   function itself (slot 0) and its argument (slot 1), each `let`
//!   pushes the next slot, and a variable reads its slot, or its
//!   capture through the closure in slot 0 ([`Store::slot`]);
//! * frames are `Copy` records of a node offset and an [`Env`]; a
//!   pending function or first operand waits on the temporaries;
//! * a proxy `U⟨s⟩` keeps its coercion's [`CoercionId`] in the spare
//!   half of `U`'s two words, so coercing it again allocates nothing.
//!
//! The locals stack is truncated, never scanned: a call drops every
//! local above the topmost frame's environment ([`Store::call`]), and a
//! `let` every local above its own frame's ([`Store::bind`]). A tail
//! call therefore reuses its caller's activation, and a loop through a
//! boundary runs in constant locals as well as constant frames. The
//! only allocations are capturing closures (two each) and stack growth.

use std::rc::Rc;

use bc_syntax::Constant;

use crate::arena::CoercionId;
use crate::sterm::{Node, SCode, CAPTURED};

/// A run-time value `V`: an uncoerced value `U` or a proxy `U⟨s⟩`. Runs
/// keep the invariant that coerced values never nest, so one flat enum
/// of {int, bool, code, closure} × {plain, coerced} covers them in two
/// words. `E` is what the engine keeps with each capturing closure.
#[derive(Debug, Clone)]
pub enum Value<E = ()> {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A closure with no captures: its [`Node::Lam`] or [`Node::Fix`].
    Code(u32),
    /// A closure that captures something.
    Closure(Rc<Closure<E>>),
    /// `n⟨s⟩`.
    CoercedInt(i64, CoercionId),
    /// `b⟨s⟩`.
    CoercedBool(bool, CoercionId),
    /// A capture-free closure under a coercion.
    CoercedCode(u32, CoercionId),
    /// A capturing closure under a coercion.
    CoercedClosure(Rc<Closure<E>>, CoercionId),
}

/// A closure that captures something: its [`Node::Lam`] or
/// [`Node::Fix`], the captured values in capture-list order, and what
/// the engine keeps with it (the small-step, its measure).
#[derive(Debug)]
pub struct Closure<E = ()> {
    /// The offset of the function's node.
    pub code: u32,
    /// The values of the variables the function's body reads from
    /// outside it.
    pub captures: Box<[Value<E>]>,
    /// The engine's datum, computed when the closure is made.
    pub payload: E,
}

/// An activation's extent on the locals stack: slot `i` is
/// `locals[fp + i]`, and the slots in scope end at `end`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Env {
    /// The activation's first slot.
    pub fp: u32,
    /// One past the last slot in scope.
    pub end: u32,
}

/// One layer of the evaluation context. Everything a frame holds to the
/// left of its hole is a value.
// Variant names deliberately carry the -Frame suffix: "cast frame" /
// "coercion frame" is the paper's terminology for what leaks in
// λB/λC and merges in λS.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy)]
pub enum Frame {
    /// `□ M`, for the `App` node at the offset.
    AppArg(u32, Env),
    /// `V □`; `V` is the top temporary.
    AppCall(Env),
    /// `op(□, M)`, for the `Op2` node at the offset.
    OpArg(u32, Env),
    /// `op(□)` or `op(k, □)` for the `Op1`/`Op2` node at the offset;
    /// `k` is the top temporary.
    OpApply(u32, Env),
    /// `if □ then M else N`, for the `If` node at the offset.
    If(u32, Env),
    /// `let x = □ in N`, for the `Let` node at the offset.
    Let(u32, Env),
    /// `□⟨t⟩`. Never directly on another coercion frame: the two merge.
    CoerceFrame(CoercionId),
}

// The layout both engines are built around: two words each.
const _: () = assert!(std::mem::size_of::<Value>() == 16);
const _: () = assert!(std::mem::size_of::<Frame>() == 16);
const _: () = assert!(std::mem::size_of::<Env>() == 8);

impl<E> Value<E> {
    /// The value of a constant.
    pub fn of(k: Constant) -> Self {
        match k {
            Constant::Int(n) => Value::Int(n),
            Constant::Bool(b) => Value::Bool(b),
        }
    }

    /// The constant an uncoerced base value is.
    ///
    /// # Panics
    ///
    /// Panics on a function or a proxy.
    pub fn constant(&self) -> Constant {
        match *self {
            Value::Int(n) => Constant::Int(n),
            Value::Bool(b) => Constant::Bool(b),
            _ => unreachable!("expected a constant"),
        }
    }

    /// The coercion of a proxy `U⟨s⟩`, or `None` for an uncoerced value.
    pub fn coercion(&self) -> Option<CoercionId> {
        match *self {
            Value::CoercedInt(_, s)
            | Value::CoercedBool(_, s)
            | Value::CoercedCode(_, s)
            | Value::CoercedClosure(_, s) => Some(s),
            _ => None,
        }
    }

    /// Splits a proxy `U⟨s⟩` into `U` and `s`.
    pub fn unproxy(self) -> (Self, Option<CoercionId>) {
        match self {
            Value::CoercedInt(n, s) => (Value::Int(n), Some(s)),
            Value::CoercedBool(b, s) => (Value::Bool(b), Some(s)),
            Value::CoercedCode(at, s) => (Value::Code(at), Some(s)),
            Value::CoercedClosure(c, s) => (Value::Closure(c), Some(s)),
            plain => (plain, None),
        }
    }

    /// `U⟨s⟩` for an uncoerced `U`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is already a proxy: coercions merge, never nest.
    pub fn proxy(self, s: CoercionId) -> Self {
        match self {
            Value::Int(n) => Value::CoercedInt(n, s),
            Value::Bool(b) => Value::CoercedBool(b, s),
            Value::Code(at) => Value::CoercedCode(at, s),
            Value::Closure(c) => Value::CoercedClosure(c, s),
            _ => unreachable!("coerced a proxy without merging"),
        }
    }
}

impl Frame {
    /// The offset of the node the frame was pushed for, if it holds one.
    pub fn at(&self) -> Option<u32> {
        match *self {
            Frame::AppArg(at, _)
            | Frame::OpArg(at, _)
            | Frame::OpApply(at, _)
            | Frame::If(at, _)
            | Frame::Let(at, _) => Some(at),
            Frame::AppCall(_) | Frame::CoerceFrame(_) => None,
        }
    }

    /// The environment the frame holds, if it is not a coercion frame.
    pub fn env(&self) -> Option<Env> {
        match *self {
            Frame::AppArg(_, env)
            | Frame::AppCall(env)
            | Frame::OpArg(_, env)
            | Frame::OpApply(_, env)
            | Frame::If(_, env)
            | Frame::Let(_, env) => Some(env),
            Frame::CoerceFrame(_) => None,
        }
    }
}

/// The three stacks of a run: the evaluation-context frames, the locals
/// and the temporaries (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct Store<E = ()> {
    /// The frames, innermost last.
    pub frames: Vec<Frame>,
    /// The activations' slots.
    pub locals: Vec<Value<E>>,
    /// The values frames wait with, innermost last.
    pub temps: Vec<Value<E>>,
}

impl<E> Store<E> {
    /// The value of the variable in `slot` of `env`: a local, or with
    /// the [`CAPTURED`] bit set, a capture of the closure in slot 0.
    #[inline]
    pub fn slot(&self, env: Env, slot: u32) -> &Value<E> {
        if slot & CAPTURED == 0 {
            return &self.locals[(env.fp + slot) as usize];
        }
        match &self.locals[env.fp as usize] {
            Value::Closure(c) => &c.captures[(slot & !CAPTURED) as usize],
            _ => unreachable!("captured variable read through a non-closure"),
        }
    }

    /// The value of a leaf — a [`Node::Const`], or a [`Node::Var`]
    /// read in `env` — or `None` for any other node. A leaf evaluates
    /// without a frame, so both engines read it in place of descending.
    #[inline(always)]
    pub fn leaf(&self, node: Node, env: Env) -> Option<Value<E>>
    where
        E: Clone,
    {
        match node {
            Node::Const(k) => Some(Value::of(k)),
            Node::Var { slot, .. } => Some(self.slot(env, slot).clone()),
            _ => None,
        }
    }

    /// The closure the `λ`/`fix` node at `at`, with capture list
    /// `caps`, makes in `env`; `payload` is called only if it captures
    /// something.
    #[inline]
    pub fn closure(
        &self,
        block: &SCode,
        at: u32,
        caps: u32,
        env: Env,
        payload: impl FnOnce() -> E,
    ) -> Value<E>
    where
        E: Clone,
    {
        let srcs = block.captures(caps);
        if srcs.is_empty() {
            return Value::Code(at);
        }
        let captures = srcs.iter().map(|&slot| self.slot(env, slot).clone());
        Value::Closure(Rc::new(Closure {
            code: at,
            captures: captures.collect(),
            payload: payload(),
        }))
    }

    /// The environment of the topmost frame that holds one, or the
    /// empty one at the base of the stack. Coercion frames never sit on
    /// each other, so this looks at two frames at most.
    #[inline]
    pub fn top_env(&self) -> Env {
        self.frames
            .iter()
            .rev()
            .find_map(Frame::env)
            .unwrap_or_default()
    }

    /// Calls an uncoerced function: its activation replaces every local
    /// above the topmost frame's environment. Returns the function's
    /// body and the activation it runs in.
    #[inline]
    pub fn call(&mut self, code: &[Node], fun: Value<E>, arg: Value<E>) -> (u32, Env) {
        let at = match &fun {
            Value::Code(at) => *at,
            Value::Closure(c) => c.code,
            _ => unreachable!("applied a non-function value"),
        };
        let (Node::Lam { body, .. } | Node::Fix { body, .. }) = code[at as usize] else {
            unreachable!("closure over a non-function node {:?}", code[at as usize])
        };
        let fp = self.top_env().end;
        debug_assert!(
            self.locals.len() >= fp as usize,
            "a frame's locals were dropped"
        );
        self.locals.truncate(fp as usize);
        self.locals.push(fun);
        self.locals.push(arg);
        (body, Env { fp, end: fp + 2 })
    }

    /// Binds a `let` whose frame held `env`: the value replaces every
    /// local above `env`'s end. Returns the body's environment.
    #[inline]
    pub fn bind(&mut self, env: Env, value: Value<E>) -> Env {
        self.locals.truncate(env.end as usize);
        self.locals.push(value);
        Env {
            end: env.end + 1,
            ..env
        }
    }
}

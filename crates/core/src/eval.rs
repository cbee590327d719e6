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
//! takes priority, so determinism and the space bound are unaffected:
//! a coercion reaching a coercion frame merges with it before anything
//! steps inside, so no layer ever carries two.
//!
//! Two engines implement the relation. [`run`] steps [`Term`] trees
//! by walking from the root to the redex each time; it is the oracle,
//! and it is the shared [`bc_syntax::reduce`] with Figure 5's rules
//! supplied by [`LambdaS`]. A run's cast measure is the total coercion
//! size ([`Term::coercion_size`]).
//! [`run_compiled`] runs a program's [`SCode`] block on a focused
//! state: the subterm in focus plus the evaluation-context frames
//! around it (a coercion frame is never pushed onto another, which is
//! the merge rule again), and reads its final value back into a
//! [`Term`]. Both hold code offsets in activations on the
//! locals stack of [`crate::store`], the run state the λS CEK machine
//! runs on too. It finds each next redex by refocusing from the last
//! contractum, performs β by pushing the argument into its slot instead
//! of substituting (the step after refocusing in Biernacka and Danvy's
//! functional correspondence), and tracks the space peaks of the term
//! the state stands for by per-rule deltas.

use bc_syntax::reduce::{self, Reduce, Slice, Wrapper};
use bc_syntax::{Constant, Label, Op, Type, TypeArena};

use crate::arena::{CoercionArena, CoercionId, ComposeCache, GNode, INode, MergeCtx, SNode};
use crate::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
use crate::sterm::{Node, SCode, NO_CAPTURES};
use crate::store::{Env, Frame};
use crate::term::Term;
use crate::typing::{type_of, TypeError};

/// One reduction step on a closed λS term.
pub type Step = reduce::Step<SpaceCoercion>;
/// The final outcome of a λS run, on either engine.
pub type Outcome = reduce::Outcome<SpaceCoercion>;
/// Why a fueled λS run produced no [`Outcome`].
pub type RunError = reduce::RunError<TypeError>;
/// Metrics and result of a fueled run, on either engine: the peaks of
/// a [`run_compiled`] run measure the tree term its state stands for,
/// so they are number-for-number those of [`run`]. Its cast measure is
/// the total coercion size, bounded in λS.
pub type Run = reduce::Run<SpaceCoercion>;
/// A tree λS run parked between fuel slices.
pub type Paused = reduce::Paused<LambdaS>;

/// λS's coercion rules (Figure 5), for the shared small-step: the
/// merge rule goes through a run-long [`MergeCtx`].
#[derive(Debug, Clone, Copy)]
pub struct LambdaS;

impl Reduce for LambdaS {
    type Cast = SpaceCoercion;
    type TypeError = TypeError;
    type MergeCtx = MergeCtx;

    /// Reduces `U⟨s⟩` where `U` is an uncoerced value and the whole
    /// term is not a value.
    fn contract(value: &Term, s: &SpaceCoercion) -> Result<Term, Label> {
        debug_assert!(value.is_uncoerced_value());
        match s {
            // F[U⟨id?⟩] ⟶ F[U]
            SpaceCoercion::IdDyn => Ok(value.clone()),
            SpaceCoercion::Mid(i) => match i {
                // F[U⟨idι⟩] ⟶ F[U]
                Intermediate::Ground(GroundCoercion::IdBase(_)) => Ok(value.clone()),
                // F[U⟨⊥GpH⟩] ⟶ blame p
                Intermediate::Fail(_, p, _) => Err(*p),
                Intermediate::Ground(GroundCoercion::Fun(_, _)) | Intermediate::Inj(_, _) => {
                    unreachable!("function coercions and injections of values are values")
                }
            },
            SpaceCoercion::Proj(_, _, _) => {
                unreachable!("an uncoerced value cannot have type ? (so no projection applies)")
            }
        }
    }

    /// `s → t` splits into `s` and `t`: `(U⟨s→t⟩) V ⟶ (U (V⟨s⟩))⟨t⟩`.
    fn split(s: &SpaceCoercion) -> (SpaceCoercion, SpaceCoercion) {
        match s {
            SpaceCoercion::Mid(Intermediate::Ground(GroundCoercion::Fun(s, t))) => {
                ((**s).clone(), (**t).clone())
            }
            other => panic!("applied a non-function coercion value: {other}"),
        }
    }

    /// `U⟨s→t⟩` is a proxy; `U⟨g;G!⟩` is an injection at `G`, whose
    /// payload `U⟨g⟩` is `U` itself or a proxy of it.
    fn wrapper(s: &SpaceCoercion) -> Wrapper {
        match s {
            SpaceCoercion::Mid(Intermediate::Ground(GroundCoercion::Fun(_, _))) => Wrapper::Proxy,
            SpaceCoercion::Mid(Intermediate::Inj(_, g)) => Wrapper::Injection(*g),
            other => unreachable!("not a λS value coercion: {other}"),
        }
    }

    fn cast_measure(term: &Term) -> usize {
        term.coercion_size()
    }

    /// `F[M⟨s⟩⟨t⟩] ⟶ F[M⟨s # t⟩]`, for any `M`, through the interning
    /// arena, so the same pair is composed structurally only once per
    /// run.
    fn merge(ctx: &mut MergeCtx, s: &SpaceCoercion, t: &SpaceCoercion) -> Option<SpaceCoercion> {
        Some(ctx.merge(s, t))
    }
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
    reduce::step::<LambdaS>(ctx, term, program_ty)
}

/// Type checks a closed λS term and begins a resumable tree run of it,
/// driven by [`reduce::resume`].
///
/// # Errors
///
/// [`RunError::IllTyped`] if the term is not closed and well typed.
pub fn start(term: &Term, fuel: u64) -> Result<Paused, RunError> {
    Ok(reduce::start(term, type_of(term)?, fuel))
}

/// Evaluates a closed, well-typed λS term for at most `fuel` steps.
/// One arena and compose cache serve the whole run: a loop crossing
/// the same boundary on every iteration merges each coercion pair
/// structurally once and answers the rest from the cache.
///
/// # Errors
///
/// Returns [`RunError::IllTyped`] if the term is not closed and well
/// typed, and [`RunError::FuelExhausted`] (carrying the steps actually
/// taken) if the fuel bound is reached.
pub fn run(term: &Term, fuel: u64) -> Result<Run, RunError> {
    reduce::run::<LambdaS>(term, type_of(term)?, fuel)
}

// ---------------------------------------------------------------------
// The compiled small-step: Figure 5 on the code block, in the λS store
// ---------------------------------------------------------------------

/// The small-step's instance of the λS store: a capturing closure keeps
/// the *measure* of the closed term it stands for, computed once when
/// it is made. A measure is the pair `(t.size(), t.coercion_size())` of
/// a tree [`Term`] `t`.
type Value = crate::store::Value<(usize, usize)>;
type Store = crate::store::Store<(usize, usize)>;

/// The subterm in focus. A coercion `M⟨s⟩` is a coercion frame over
/// `M`, and two coercion frames never sit on each other: the only
/// exception is a proxy's result coercion, which refocusing merges
/// with the one below it before anything else.
#[derive(Debug, Clone)]
enum Focus {
    /// Code in an activation.
    Code(u32, Env),
    /// A value.
    Value(Value),
    /// `U (V⟨s⟩)`, from the proxy rule: `U` and `V` are the top two
    /// temporaries, `V` on top.
    Proxy(CoercionId),
    /// `blame p`, with no frame left around it.
    Blame(Label),
}

// The frames are the store's two words (pinned there), and so is the
// focus.
const _: () = assert!(std::mem::size_of::<Focus>() == 16);

/// The next redex, taken apart: the frames it spans are popped.
enum Redex {
    /// `M⟨s⟩⟨t⟩`, with `M` the focus.
    Merge(Focus, CoercionId, CoercionId),
    /// `U⟨s⟩` that is not a value: `s` is an identity or a failure.
    Coerce(Value, CoercionId),
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

/// A program as a run reads it: its block, and what one walk of the
/// block before the first step found at each node.
#[derive(Debug, Clone)]
struct Prog {
    code: SCode,
    facts: Box<[Facts]>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Facts {
    /// How often a binder's variables occur in its scope: slot 0
    /// counts a `λ`'s or `let`'s variable or a `fix`'s parameter, slot 1
    /// a `fix`'s function (their de Bruijn indices at the binder).
    counts: [u32; 2],
    /// The measure of the subterm with every variable weighing one:
    /// the closed term's for a `λ` or `fix` that captures nothing.
    measure: (usize, usize),
}

impl Prog {
    fn new(code: &SCode, arena: &CoercionArena) -> Prog {
        fn go(
            code: &SCode,
            arena: &CoercionArena,
            at: u32,
            scope: &mut Vec<(u32, usize)>,
            facts: &mut [Facts],
        ) -> (usize, usize) {
            let mut measure = match code.node(at) {
                Node::Var { index: i, .. } => {
                    let (binder, slot) = scope[scope.len() - 1 - i as usize];
                    facts[binder as usize].counts[slot] += 1;
                    (1, 0)
                }
                Node::Coerce(_, s) => (1 + arena.size(s), arena.size(s)),
                _ => (1, 0),
            };
            for_each_child(code, at, |child, binds| {
                scope.extend((0..binds as usize).rev().map(|slot| (at, slot)));
                let (size, coercion_size) = go(code, arena, child, scope, facts);
                measure = (measure.0 + size, measure.1 + coercion_size);
                scope.truncate(scope.len() - binds as usize);
            });
            facts[at as usize].measure = measure;
            measure
        }
        let mut facts = vec![Facts::default(); code.size()].into_boxed_slice();
        go(code, arena, code.root(), &mut Vec::new(), &mut facts);
        Prog {
            code: code.clone(),
            facts,
        }
    }
}

/// What pricing and reading back look at. A walk resolves each variable
/// free in the walked code by its slot in the activation the code runs
/// in; inside a `λ`/`fix` the walk entered, the slot is a capture, which
/// [`SCode::captured_from`] maps to the slot around the function.
#[derive(Clone, Copy)]
struct View<'a> {
    prog: &'a Prog,
    store: &'a Store,
    arena: &'a CoercionArena,
}

impl<'a> View<'a> {
    /// The measure of the code at `at` read back in `env`, without
    /// building it: each free variable weighs its value.
    fn measure_code(&self, at: u32, env: Env) -> (usize, usize) {
        self.measure_at(at, 0, &|slot| self.store.slot(env, slot))
    }

    fn measure_at(&self, at: u32, depth: u32, lookup: &dyn Fn(u32) -> &'a Value) -> (usize, usize) {
        let code = &self.prog.code;
        let (mut measure, caps) = match code.node(at) {
            Node::Var { index, slot } if index >= depth => return self.measure(lookup(slot)),
            Node::Lam {
                caps: NO_CAPTURES, ..
            }
            | Node::Fix {
                caps: NO_CAPTURES, ..
            } => return self.prog.facts[at as usize].measure,
            Node::Lam { caps, .. } | Node::Fix { caps, .. } => ((1, 0), caps),
            Node::Coerce(_, s) => ((1 + self.arena.size(s), self.arena.size(s)), NO_CAPTURES),
            _ => ((1, 0), NO_CAPTURES),
        };
        let captured = |slot| lookup(code.captured_from(caps, slot));
        let lookup: &dyn Fn(u32) -> &'a Value = match caps {
            NO_CAPTURES => lookup,
            _ => &captured,
        };
        for_each_child(code, at, |child, binds| {
            let (size, coercion_size) = self.measure_at(child, depth + binds, lookup);
            measure = (measure.0 + size, measure.1 + coercion_size);
        });
        measure
    }

    /// The measure of the closed term a value stands for.
    #[inline]
    fn measure(&self, value: &'a Value) -> (usize, usize) {
        let (size, coercion_size) = match value {
            Value::Int(_) | Value::Bool(_) | Value::CoercedInt(..) | Value::CoercedBool(..) => {
                (1, 0)
            }
            Value::Code(at) | Value::CoercedCode(at, _) => self.prog.facts[*at as usize].measure,
            Value::Closure(c) | Value::CoercedClosure(c, _) => c.payload,
        };
        match value.coercion().map(|s| self.arena.size(s)) {
            Some(c) => (size + 1 + c, coercion_size + c),
            None => (size, coercion_size),
        }
    }

    /// Reads the code at `at`, inside `binders`, back into the tree
    /// term it stands for in `env`.
    fn read_code(&self, at: u32, binders: &[u32], env: Env, types: &TypeArena) -> Term {
        let outer = |slot| self.read_value(self.store.slot(env, slot), types);
        let code = &self.prog.code;
        code.decode_open(at, binders, self.arena, types, &outer)
    }

    /// Reads a value back into the closed tree term it stands for.
    fn read_value(&self, value: &'a Value, types: &TypeArena) -> Term {
        let code = &self.prog.code;
        let u = match value {
            Value::Int(n) | Value::CoercedInt(n, _) => Term::int(*n),
            Value::Bool(b) | Value::CoercedBool(b, _) => Term::bool(*b),
            Value::Code(at) | Value::CoercedCode(at, _) => {
                let outer = |_| unreachable!("a closed function");
                code.decode_open(*at, &[], self.arena, types, &outer)
            }
            // Around the closure's node, a free variable's slot is the
            // source of one of its captures.
            Value::Closure(c) | Value::CoercedClosure(c, _) => {
                let (Node::Lam { caps, .. } | Node::Fix { caps, .. }) = code.node(c.code) else {
                    unreachable!("a closure over {:?}", code.node(c.code))
                };
                let capture = |slot| code.captures(caps).iter().position(|&s| s == slot);
                let outer = |slot| self.read_value(&c.captures[capture(slot).unwrap()], types);
                code.decode_open(c.code, &[], self.arena, types, &outer)
            }
        };
        match value.coercion() {
            Some(s) => u.coerce(self.arena.resolve(s)),
            None => u,
        }
    }

    /// The whole term a run stands for: the focus read back and plugged
    /// into its frames, each pending value taken from the temporaries.
    fn read_back(&self, focus: &Focus, types: &TypeArena) -> Term {
        let code = &self.prog.code;
        let coercion = |s| self.arena.resolve(s);
        let mut temps = self.store.temps.iter().rev();
        let mut temp = || self.read_value(temps.next().expect("a pending value"), types);
        let at = |at: u32, env: Env| self.read_code(at, &[], env, types);
        let m = match focus {
            Focus::Code(c, env) => at(*c, *env),
            Focus::Value(v) => self.read_value(v, types),
            Focus::Proxy(s) => {
                let arg = temp().coerce(coercion(*s));
                temp().app(arg)
            }
            Focus::Blame(_) => unreachable!("a blamed run is measured without reading back"),
        };
        let term = self.store.frames.iter().rev().fold(m, |m, &frame| {
            match (frame, frame.at().map(|at| code.node(at))) {
                (Frame::OpArg(_, env), Some(Node::Op2(op, _, b))) => Term::op2(op, m, at(b, env)),
                (Frame::OpApply(..), Some(Node::Op1(op, _))) => Term::Op(op, vec![m]),
                (Frame::OpApply(..), Some(Node::Op2(op, ..))) => Term::op2(op, temp(), m),
                (Frame::If(_, env), Some(Node::If(_, t, e))) => {
                    Term::ite(m, at(t, env), at(e, env))
                }
                (Frame::Let(_, env), Some(Node::Let { name, body, .. })) => {
                    let body = self.read_code(body, &[name], env, types);
                    Term::Let(code.name(name).clone(), m.into(), body.into())
                }
                (Frame::AppArg(_, env), Some(Node::App(_, arg))) => m.app(at(arg, env)),
                (Frame::AppCall(_), _) => temp().app(m),
                (Frame::CoerceFrame(t), _) => m.coerce(coercion(t)),
                (frame, node) => unreachable!("{frame:?} holds {node:?}"),
            }
        });
        debug_assert!(temps.next().is_none(), "a temporary without its frame");
        term
    }
}

/// `V⟨s⟩` with no coercion frame around it: a value if `s` is a
/// function coercion or an injection, or a redex — the merge if `V` is
/// itself coerced.
#[inline]
fn apply_coercion(v: Value, s: CoercionId, arena: &CoercionArena) -> Result<Value, Redex> {
    match (v.unproxy(), arena.node(s)) {
        ((u, Some(s0)), _) => Err(Redex::Merge(Focus::Value(u), s0, s)),
        ((u, None), SNode::Mid(INode::Ground(GNode::Fun(..)) | INode::Inj(..))) => Ok(u.proxy(s)),
        ((u, None), _) => Err(Redex::Coerce(u, s)),
    }
}

/// Finds the next redex, starting at the focus: code is descended
/// into, a value ascends, and a coercion meeting a coercion frame
/// merges before anything inside it. The refocusing invariant — frames
/// hold values to the left of their hole — makes this the redex the
/// tree [`step_in`] finds by walking from the root. Looking a variable
/// up is no step: the tree term holds the value in its place. `Err` is
/// how the run ends: a [`Focus::Value`] or [`Focus::Blame`] with no
/// frame left.
fn refocus(
    prog: &Prog,
    store: &mut Store,
    mut focus: Focus,
    arena: &CoercionArena,
) -> Result<Redex, Focus> {
    let code = &prog.code;
    loop {
        let value = match focus {
            Focus::Value(v) => v,
            Focus::Blame(_) => return Err(focus),
            // Merge FIRST: the proxy's result coercion on a coercion
            // frame is F[M⟨t⟩⟨t'⟩], whatever M does next.
            Focus::Proxy(s) => {
                if let [.., Frame::CoerceFrame(outer), Frame::CoerceFrame(inner)] = store.frames[..]
                {
                    store.frames.truncate(store.frames.len() - 2);
                    return Ok(Redex::Merge(focus, inner, outer));
                }
                let arg = store.temps.pop().expect("a proxy's argument");
                store.frames.push(Frame::AppCall(store.top_env()));
                match apply_coercion(arg, s, arena) {
                    Ok(v) => v,
                    Err(redex) => return Ok(redex),
                }
            }
            Focus::Code(at, env) => match code.node(at) {
                Node::Const(k) => Value::of(k),
                Node::Var { slot, .. } => store.slot(env, slot).clone(),
                Node::Lam { caps, .. } | Node::Fix { caps, .. } => {
                    let view = View { prog, store, arena };
                    store.closure(code, at, caps, env, || view.measure_code(at, env))
                }
                Node::Blame(p, _) if store.frames.is_empty() => return Err(Focus::Blame(p)),
                Node::Blame(p, _) => return Ok(Redex::Raise(p)),
                node => {
                    let (child, frame) = match node {
                        // A coercion frame in the hole: the merge redex.
                        Node::Coerce(m, s) => match store.frames.last() {
                            Some(&Frame::CoerceFrame(t)) => {
                                store.frames.pop();
                                return Ok(Redex::Merge(Focus::Code(m, env), s, t));
                            }
                            _ => (m, Frame::CoerceFrame(s)),
                        },
                        Node::App(fun, _) => (fun, Frame::AppArg(at, env)),
                        Node::Op1(_, a) => (a, Frame::OpApply(at, env)),
                        // Operands that are leaves are read, not descended into.
                        Node::Op2(op, a, b) => {
                            match (store.leaf(code.node(a), env), store.leaf(code.node(b), env)) {
                                (Some(l), Some(r)) => {
                                    return Ok(Redex::Op(op, Some(l.constant()), r.constant()))
                                }
                                _ => (a, Frame::OpArg(at, env)),
                            }
                        }
                        Node::If(cond, _, _) => (cond, Frame::If(at, env)),
                        Node::Let { bound, .. } => (bound, Frame::Let(at, env)),
                        Node::OpN { op, .. } => panic!("operator {op} takes one or two operands"),
                        Node::Free(_) => panic!("evaluation reached a free variable"),
                        _ => unreachable!("values and blame are handled above"),
                    };
                    store.frames.push(frame);
                    focus = Focus::Code(child, env);
                    continue;
                }
            },
        };
        // The value ascends into the innermost frame.
        let Some(frame) = store.frames.pop() else {
            return Err(Focus::Value(value));
        };
        focus = match (frame, frame.at().map(|at| code.node(at))) {
            (Frame::CoerceFrame(s), _) => match apply_coercion(value, s, arena) {
                Ok(v) => Focus::Value(v),
                Err(redex) => return Ok(redex),
            },
            (Frame::AppArg(_, env), Some(Node::App(_, arg))) => {
                store.temps.push(value);
                store.frames.push(Frame::AppCall(env));
                Focus::Code(arg, env)
            }
            (Frame::AppCall(_), _) => {
                let fun = store.temps.pop().expect("a call frame's function");
                return Ok(Redex::App(fun, value));
            }
            (Frame::If(_, env), Some(Node::If(_, then_, else_))) => {
                return Ok(Redex::If(value.constant(), then_, else_, env))
            }
            (Frame::Let(at, env), _) => return Ok(Redex::Let(at, env, value)),
            (Frame::OpArg(at, env), Some(Node::Op2(_, _, right))) => {
                store.temps.push(value);
                store.frames.push(Frame::OpApply(at, env));
                Focus::Code(right, env)
            }
            (Frame::OpApply(..), Some(Node::Op1(op, _))) => {
                return Ok(Redex::Op(op, None, value.constant()))
            }
            (Frame::OpApply(..), Some(Node::Op2(op, ..))) => {
                let left = store.temps.pop().expect("an operator's first operand");
                return Ok(Redex::Op(op, Some(left.constant()), value.constant()));
            }
            (frame, node) => unreachable!("{frame:?} holds {node:?}"),
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
/// redex alone. β and `let` push the value into its slot and substitute
/// nothing: each of the `n` occurrences of the variable now stands for
/// the whole value.
fn contract(
    redex: Redex,
    prog: &Prog,
    store: &mut Store,
    measure: &mut (usize, usize),
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
) -> Focus {
    let (code, facts) = (&prog.code, &prog.facts);
    let view = View { prog, store, arena };
    let mut raise = |store: &mut Store, p| {
        store.frames.clear();
        store.temps.clear();
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
            store.frames.push(Frame::CoerceFrame(u));
            m
        }
        Redex::Coerce(u, s) => match arena.node(s) {
            // F[U⟨id?⟩] ⟶ F[U] and F[U⟨idι⟩] ⟶ F[U]
            SNode::IdDyn | SNode::Mid(INode::Ground(GNode::IdBase(_))) => {
                let c = arena.size(s);
                reprice(measure, (1 + c, c), (0, 0));
                Focus::Value(u)
            }
            // F[U⟨⊥GpH⟩] ⟶ blame p
            SNode::Mid(INode::Fail(_, p, _)) => raise(store, p),
            _ => unreachable!("coerced values and projections of uncoerced values do not step"),
        },
        // E[blame p] ⟶ blame p
        Redex::Raise(p) => raise(store, p),
        Redex::Op(op, left, right) => {
            let (k, arity) = match left {
                Some(left) => (op.apply(&[left, right]), 2),
                None => (op.apply(&[right]), 1),
            };
            reprice(measure, (1 + arity, 0), (1, 0));
            Focus::Value(Value::of(k))
        }
        Redex::If(cond, then_, else_, env) => {
            let (taken, dropped) = match cond {
                Constant::Bool(true) => (then_, else_),
                Constant::Bool(false) => (else_, then_),
                _ => panic!("if condition is not a boolean"),
            };
            let (size, coercion_size) = view.measure_code(dropped, env);
            reprice(measure, (2 + size, coercion_size), (0, 0));
            Focus::Code(taken, env)
        }
        Redex::Let(at, env, value) => {
            let Node::Let { body, .. } = code.node(at) else {
                unreachable!("a let frame holds a let node")
            };
            let v = view.measure(&value);
            reprice(
                measure,
                (1 + v.0, v.1),
                replaced(facts[at as usize].counts[0], v),
            );
            Focus::Code(body, store.bind(env, value))
        }
        Redex::App(fun, arg) => match fun.unproxy() {
            // (U⟨s→t⟩) V ⟶ (U (V⟨s⟩))⟨t⟩
            (u, Some(c)) => {
                let SNode::Mid(INode::Ground(GNode::Fun(s, t))) = arena.node(c) else {
                    panic!("applied a non-function coerced value")
                };
                let (sc, ss, st) = (arena.size(c), arena.size(s), arena.size(t));
                reprice(measure, (sc, sc), (1 + ss + st, ss + st));
                store.temps.extend([u, arg]);
                store.frames.push(Frame::CoerceFrame(t));
                Focus::Proxy(s)
            }
            (fun, None) => {
                let at = match &fun {
                    Value::Code(at) => *at,
                    Value::Closure(c) => c.code,
                    other => panic!("applied a non-function value {other:?}"),
                };
                let v = view.measure(&arg);
                let [n_arg, n_fun] = facts[at as usize].counts;
                let mut added = replaced(n_arg, v);
                // Unrolling and β in one step: a `fix` call binds the
                // function and its argument in one activation.
                if n_fun > 0 {
                    let f = replaced(n_fun, view.measure(&fun));
                    added = (added.0 + f.0, added.1 + f.1);
                }
                reprice(measure, (2 + v.0, v.1), added);
                let (body, env) = store.call(code.nodes(), fun, arg);
                Focus::Code(body, env)
            }
        },
    }
}

/// Evaluates a closed, well-typed compiled λS program for at most
/// `fuel` steps — [`run`] on the program's code block, against
/// caller-owned arenas.
///
/// The run refocuses from each contractum instead of walking from the
/// root, on the store of [`crate::store`]: β and `let` push the value
/// into its slot and substitute nothing, a tail call reuses its
/// caller's activation, and a merge composes ids through the memoized
/// [`CoercionArena::compose`]. The space peaks are those of the term
/// the state stands for, priced from each redex: arithmetic on coercion
/// sizes, on each binder's occurrence count and on closure measures (a
/// per-run table for a closure that captures nothing, kept with the
/// closure otherwise), or one walk of a discarded `if` branch. The tree
/// [`run`] is this engine's oracle (same outcome, steps and peaks —
/// pinned by `tests/ir_props.rs` and the golden corpus).
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
) -> Result<Run, RunError> {
    type_of(&code.decode(arena, types))?;
    resume_compiled(start_compiled(code, fuel, arena), fuel, arena, cache, types).finished()
}

/// A preempted compiled small-step run, parked between fuel slices.
///
/// It holds the program's code block, the per-run table of occurrence
/// counts and measures, the focus, the run's store, the tracked measure
/// and the counters. The block and capturing closures are `Rc`-shared,
/// so a parked run is not `Send`.
#[derive(Debug, Clone)]
pub struct PausedC {
    prog: Prog,
    focus: Focus,
    store: Store,
    measure: (usize, usize),
    steps: u64,
    peak_size: usize,
    peak_cast_measure: usize,
    fuel: u64,
}

impl PausedC {
    /// Reduction steps taken so far, across all slices.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

/// Result of driving a compiled run for one fuel slice: the finished
/// run, or the run parked between steps.
pub type SliceC = Slice<PausedC, Result<Run, RunError>>;

/// Begins a resumable compiled run: counts each binder's occurrences
/// and measures each subterm in one walk of the program (the
/// once-per-run cost the unsliced engine also pays up front), and parks
/// before the first step with the program's root in focus. The block is
/// trusted to be closed and well typed, as [`run_compiled`] checks and
/// a session's lowering guarantees.
pub fn start_compiled(code: &SCode, fuel: u64, arena: &CoercionArena) -> PausedC {
    let prog = Prog::new(code, arena);
    let measure = prog.facts[code.root() as usize].measure;
    PausedC {
        prog,
        focus: Focus::Code(code.root(), Env::default()),
        store: Store::default(),
        measure,
        steps: 0,
        peak_size: measure.0,
        peak_cast_measure: measure.1,
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
/// A final value is read back into a [`Term`] through `arena` and
/// `types`.
///
/// # Panics
///
/// Panics if the term is open or ill-typed (which [`start_compiled`]
/// does not check) or its ids are foreign to `arena` or `types`.
pub fn resume_compiled(
    paused: PausedC,
    slice: u64,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    types: &TypeArena,
) -> SliceC {
    let PausedC {
        prog,
        mut focus,
        mut store,
        mut measure,
        mut steps,
        mut peak_size,
        mut peak_cast_measure,
        fuel,
    } = paused;
    let until = steps.saturating_add(slice);
    loop {
        // Park only strictly below the fuel line: at `steps == fuel`
        // the unsliced engine still distinguishes a value (completes)
        // from a pending step (FuelExhausted), so let the refocus
        // below make that call.
        if steps >= until && steps < fuel {
            return Slice::Parked(PausedC {
                prog,
                focus,
                store,
                measure,
                steps,
                peak_size,
                peak_cast_measure,
                fuel,
            });
        }
        let redex = match refocus(&prog, &mut store, focus, arena) {
            Ok(redex) => redex,
            Err(halt) => {
                let outcome = match halt {
                    Focus::Value(v) => {
                        let (prog, store) = (&prog, &store);
                        Outcome::Value(View { prog, store, arena }.read_value(&v, types))
                    }
                    Focus::Blame(p) => Outcome::Blame(p),
                    _ => unreachable!("a run ends in a value or blame"),
                };
                return Slice::Done(Ok(Run {
                    outcome,
                    steps,
                    peak_size,
                    peak_cast_measure,
                }));
            }
        };
        // Charge fuel *before* committing the step, exactly as the
        // tree engine does.
        if steps >= fuel {
            return Slice::Done(Err(RunError::FuelExhausted {
                steps,
                peak_size,
                peak_cast_measure,
            }));
        }
        steps += 1;
        focus = contract(redex, &prog, &mut store, &mut measure, arena, cache);
        // Reading the term back costs its size: check up to 2^16 nodes.
        if measure.0 <= 1 << 16 {
            debug_assert_eq!(
                measure,
                match focus {
                    Focus::Blame(_) if store.frames.is_empty() => (1, 0),
                    _ => {
                        let (prog, store) = (&prog, &store);
                        let t = View { prog, store, arena }.read_back(&focus, types);
                        (t.size(), t.coercion_size())
                    }
                },
                "tracked size drifted from the term at step {steps}"
            );
        }
        let settled = store.frames.len() - usize::from(matches!(focus, Focus::Proxy(_)));
        debug_assert!(
            !store.frames[..settled]
                .windows(2)
                .any(|w| matches!(w, [Frame::CoerceFrame(_), Frame::CoerceFrame(_)])),
            "a coercion frame was stacked on another at step {steps}"
        );
        peak_size = peak_size.max(measure.0);
        peak_cast_measure = peak_cast_measure.max(measure.1);
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
        assert_eq!(r64.peak_cast_measure, stacked(64).coercion_size());
    }

    #[test]
    fn failure_blames() {
        let m = Term::int(1).coerce(SpaceCoercion::fail(gi(), p(3), gb()));
        assert_eq!(eval_blame(&m), p(3));
    }

    /// Runs `m` on both engines and asserts the full fingerprint:
    /// outcome, step count and both space peaks.
    fn assert_compiled_matches_tree(m: &Term) {
        let mut ctx = crate::sterm::CompileCtx::new();
        let code = ctx.compile(m);
        let compiled = run_compiled(
            &code,
            10_000,
            &mut ctx.arena,
            &mut ctx.cache,
            &mut ctx.types,
        );
        assert_eq!(compiled, run(m, 10_000), "{m}");
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
        // (λk:?→?. (k (k 1⟨Int!⟩))⟨Int?q⟩) h: h captures the proxy,
        // and h reaches both calls through k's activation.
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
        // applied to 3 ends in the second λ, which captures f and n
        // from a fix call's activation; applied once more, it unrolls.
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
                    let mut ctx = crate::sterm::CompileCtx::new();
                    let code = ctx.compile(m);
                    run_compiled(&code, fuel, &mut ctx.arena, &mut ctx.cache, &mut ctx.types)
                };
                for slice in [1u64, 2, 7, fuel] {
                    let mut ctx = crate::sterm::CompileCtx::new();
                    let code = ctx.compile(m);
                    let mut paused = start_compiled(&code, fuel, &ctx.arena);
                    let mut last_steps = 0;
                    let sliced = loop {
                        match resume_compiled(
                            paused,
                            slice,
                            &mut ctx.arena,
                            &mut ctx.cache,
                            &ctx.types,
                        ) {
                            Slice::Done(result) => break result,
                            Slice::Parked(next) => {
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

    /// Runs `m` one step per slice and returns its space peaks and those
    /// of the locals and temporaries stacks.
    fn peak_space(m: &Term) -> [usize; 4] {
        let mut ctx = crate::sterm::CompileCtx::new();
        let code = ctx.compile(m);
        let (mut locals, mut temps) = (0, 0);
        let paused = start_compiled(&code, u64::MAX, &ctx.arena);
        let run = Slice::Parked(paused)
            .finish(|p| {
                locals = locals.max(p.store.locals.len());
                temps = temps.max(p.store.temps.len());
                resume_compiled(p, 1, &mut ctx.arena, &mut ctx.cache, &ctx.types)
            })
            .expect("the loop ends");
        assert_eq!(run.outcome, Outcome::Value(Term::bool(true)), "{m}");
        [run.peak_size, run.peak_cast_measure, locals, temps]
    }

    #[test]
    fn tail_calls_run_in_constant_space() {
        // The λS machine's three loops — crossing a boundary, binding a
        // `let` in the body, calling a capturing closure — peak at the
        // same space for 16 and 4096 iterations here too: a tail call
        // reuses its caller's activation.
        let (n, one) = (|| Term::var("n"), || Term::int(1));
        let fix_loop = |body: Term| {
            Term::Fix(
                "loop".into(),
                "n".into(),
                Type::INT,
                Type::BOOL,
                body.into(),
            )
        };
        let zero_or = |else_: Term| {
            let done = Term::Const(Constant::Bool(true));
            let test = Term::op2(Op::Eq, n(), Term::int(0));
            Term::If(test.into(), done.into(), else_.into())
        };
        let (gb, id_bool) = (gb(), GroundCoercion::IdBase(BaseType::Bool));
        let bool_out = SpaceCoercion::inj(id_bool.clone(), gb);
        let bool_in = SpaceCoercion::proj(gb, p(1), Intermediate::Ground(id_bool));
        let to_dyn = GroundCoercion::Fun(proj_int(0).into(), bool_out.into());
        let from_dyn = GroundCoercion::Fun(inj_int().into(), bool_in.into());
        let boundary = fix_loop(zero_or(
            Term::var("loop")
                .coerce(SpaceCoercion::inj(to_dyn, Ground::Fun))
                .coerce(SpaceCoercion::proj(
                    Ground::Fun,
                    p(1),
                    Intermediate::Ground(from_dyn),
                ))
                .app(Term::op2(Op::Sub, n(), one())),
        ));
        let let_in_body = fix_loop(Term::let_(
            "m",
            Term::op2(Op::Sub, n(), one()),
            zero_or(Term::var("loop").app(Term::var("m"))),
        ));
        let step = Term::lam("n", Type::INT, Term::op2(Op::Sub, n(), Term::var("k")));
        let through_closure = |m| {
            let loop_ = fix_loop(zero_or(Term::var("loop").app(Term::var("step").app(n()))));
            Term::let_("k", one(), Term::let_("step", step.clone(), loop_.app(m)))
        };
        let loops: [&dyn Fn(Term) -> Term; 3] = [
            &|m| boundary.clone().app(m),
            &|m| let_in_body.clone().app(m),
            &through_closure,
        ];
        for make in loops {
            let small = make(Term::int(16));
            assert_eq!(
                peak_space(&small),
                peak_space(&make(Term::int(4096))),
                "{small}"
            );
        }
    }

    #[test]
    fn closures_over_closures_are_priced_once() {
        // let k = 1 in let f0 = λx. x + k in let f1 = λx. f0 (f0 x) in
        // … let fn = λx. fn−1 (fn−1 x) in k: fn's closed term doubles
        // with n, and binding it costs one step all the same.
        let chain = |n: u32| {
            let f = |i: u32| Term::var(&format!("f{i}"));
            let twice = |i| Term::lam("x", Type::INT, f(i).app(f(i).app(Term::var("x"))));
            let f0 = Term::lam(
                "x",
                Type::INT,
                Term::op2(Op::Add, Term::var("x"), Term::var("k")),
            );
            let body = (1..=n).rev().fold(Term::var("k"), |body, i| {
                Term::let_(&format!("f{i}"), twice(i - 1), body)
            });
            Term::let_("k", Term::int(1), Term::let_("f0", f0, body))
        };
        assert_compiled_matches_tree(&chain(6));
        let mut ctx = crate::sterm::CompileCtx::new();
        let code = ctx.compile(&chain(40));
        let run = run_compiled(&code, 100, &mut ctx.arena, &mut ctx.cache, &mut ctx.types);
        let run = run.expect("the chain ends");
        assert_eq!(run.outcome, Outcome::Value(Term::int(1)));
        assert_eq!(run.steps, 42);
        assert!(run.peak_size > 1 << 40, "{}", run.peak_size);
    }

    #[test]
    fn compiled_run_rejects_ill_typed_terms() {
        let bad = Term::op2(Op::Add, Term::int(1), Term::Const(Constant::Bool(true)));
        let mut ctx = crate::sterm::CompileCtx::new();
        let code = ctx.compile(&bad);
        assert!(matches!(
            run_compiled(&code, 10, &mut ctx.arena, &mut ctx.cache, &mut ctx.types),
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

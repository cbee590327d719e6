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
//! size ([`Term::coercion_size`]). [`run_compiled`] runs a program's
//! [`SCode`] block on the one λS run loop ([`crate::exec`]), the loop
//! the λS CEK machine runs too, under the [`Contractions`] policy:
//! refocusing is the machine's transitions, only contractions count as
//! steps, β and `let` push the value into its slot instead of
//! substituting, the space peaks of the term the state stands for are
//! repriced from each redex, and a final value is read back into a
//! [`Term`].

use bc_syntax::reduce::{self, Reduce, Slice, Wrapper};
use bc_syntax::{Label, Type, TypeArena};

use crate::arena::{CoercionArena, ComposeCache, MergeCtx};
use crate::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
use crate::exec::{self, Control, Count, End, Redex};
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
// The compiled small-step: the λS run loop counting contractions
// ---------------------------------------------------------------------

/// The measure of a tree [`Term`] `t`: the pair `(t.size(),
/// t.coercion_size())`, saturating at `usize::MAX`.
type Measure = (usize, usize);

/// The small-step's instance of the λS store: a capturing closure keeps
/// the measure of the closed term it stands for, computed once when it
/// is made.
type Value = crate::store::Value<Measure>;
type Store = crate::store::Store<Measure>;

fn add(a: Measure, b: Measure) -> Measure {
    (a.0.saturating_add(b.0), a.1.saturating_add(b.1))
}

/// Replaces the `removed` part of `measure` with the `added` one; only
/// a true result past `usize::MAX` saturates.
fn reprice(measure: usize, removed: usize, added: usize) -> usize {
    match added.checked_sub(removed) {
        Some(gain) => measure.saturating_add(gain),
        None => measure.saturating_sub(removed - added),
    }
}

/// What `n` occurrences of a variable gain when each becomes a value
/// of measure `value`.
fn replaced(n: u32, value: Measure) -> Measure {
    let n = n as usize;
    (n.saturating_mul(value.0 - 1), n.saturating_mul(value.1))
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

/// What one walk of a program's block before its first step found at
/// each node.
#[derive(Debug, Clone, Copy, Default)]
struct Facts {
    /// How often a binder's variables occur in its scope: slot 0
    /// counts a `λ`'s or `let`'s variable or a `fix`'s parameter, slot 1
    /// a `fix`'s function (their de Bruijn indices at the binder).
    counts: [u32; 2],
    /// The measure of the subterm with every variable weighing one:
    /// the closed term's for a `λ` or `fix` that captures nothing.
    measure: Measure,
}

/// The node's own measure: a coercion weighs its size besides.
fn own(code: &SCode, arena: &CoercionArena, at: u32) -> Measure {
    match code.node(at) {
        Node::Coerce(_, s) => (1 + arena.size(s), arena.size(s)),
        _ => (1, 0),
    }
}

fn facts(code: &SCode, arena: &CoercionArena) -> Box<[Facts]> {
    fn go(
        code: &SCode,
        arena: &CoercionArena,
        at: u32,
        scope: &mut Vec<(u32, usize)>,
        facts: &mut [Facts],
    ) -> Measure {
        if let Node::Var { index: i, .. } = code.node(at) {
            let (binder, slot) = scope[scope.len() - 1 - i as usize];
            facts[binder as usize].counts[slot] += 1;
        }
        let mut measure = own(code, arena, at);
        for_each_child(code, at, |child, binds| {
            scope.extend((0..binds as usize).rev().map(|slot| (at, slot)));
            measure = add(measure, go(code, arena, child, scope, facts));
            scope.truncate(scope.len() - binds as usize);
        });
        facts[at as usize].measure = measure;
        measure
    }
    let mut facts = vec![Facts::default(); code.size()].into_boxed_slice();
    go(code, arena, code.root(), &mut Vec::new(), &mut facts);
    facts
}

/// What pricing and reading back look at. A walk resolves each variable
/// free in the walked code by its slot in the activation the code runs
/// in; inside a `λ`/`fix` the walk entered, the slot is a capture, which
/// [`SCode::captured_from`] maps to the slot around the function.
#[derive(Clone, Copy)]
struct View<'a> {
    code: &'a SCode,
    facts: &'a [Facts],
    store: &'a Store,
    arena: &'a CoercionArena,
}

impl<'a> View<'a> {
    /// The measure of the code at `at` read back in `env`, without
    /// building it: each free variable weighs its value.
    fn measure_code(&self, at: u32, env: Env) -> Measure {
        self.measure_at(at, 0, &|slot| self.store.slot(env, slot))
    }

    fn measure_at(&self, at: u32, depth: u32, lookup: &dyn Fn(u32) -> &'a Value) -> Measure {
        let code = self.code;
        let caps = match code.node(at) {
            Node::Var { index, slot } if index >= depth => return self.measure(lookup(slot)),
            Node::Lam {
                caps: NO_CAPTURES, ..
            }
            | Node::Fix {
                caps: NO_CAPTURES, ..
            } => return self.facts[at as usize].measure,
            Node::Lam { caps, .. } | Node::Fix { caps, .. } => caps,
            _ => NO_CAPTURES,
        };
        let captured = |slot| lookup(code.captured_from(caps, slot));
        let lookup: &dyn Fn(u32) -> &'a Value = match caps {
            NO_CAPTURES => lookup,
            _ => &captured,
        };
        let mut measure = own(code, self.arena, at);
        for_each_child(code, at, |child, binds| {
            measure = add(measure, self.measure_at(child, depth + binds, lookup));
        });
        measure
    }

    /// The measure of the closed term a value stands for.
    #[inline]
    fn measure(&self, value: &Value) -> Measure {
        let u = match value {
            Value::Int(_) | Value::Bool(_) | Value::CoercedInt(..) | Value::CoercedBool(..) => {
                (1, 0)
            }
            Value::Code(at) | Value::CoercedCode(at, _) => self.facts[*at as usize].measure,
            Value::Closure(c) | Value::CoercedClosure(c, _) => c.payload,
        };
        match value.coercion().map(|s| self.arena.size(s)) {
            Some(c) => add(u, (c + 1, c)),
            None => u,
        }
    }

    /// Reads the code at `at`, inside `binders`, back into the tree
    /// term it stands for in `env`.
    fn read_code(&self, at: u32, binders: &[u32], env: Env, types: &TypeArena) -> Term {
        let outer = |slot| read_value(self.code, self.arena, self.store.slot(env, slot), types);
        self.code
            .decode_open(at, binders, self.arena, types, &outer)
    }

    /// The whole term a run stands for: the control read back and
    /// plugged into its frames, each pending value taken from the
    /// temporaries.
    fn read_back(&self, control: &Control<Measure>, types: &TypeArena) -> Term {
        let code = self.code;
        let coercion = |s| self.arena.resolve(s);
        let value = |v| read_value(code, self.arena, v, types);
        let mut temps = self.store.temps.iter().rev();
        let mut temp = || value(temps.next().expect("a pending value"));
        let at = |at: u32, env: Env| self.read_code(at, &[], env, types);
        let m = match control {
            Control::Eval(c, env) => at(*c, *env),
            Control::Ret(v) => value(v),
            Control::Proxy(s) => {
                let arg = temp().coerce(coercion(*s));
                temp().app(arg)
            }
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

/// Reads a value back into the closed tree term it stands for.
fn read_value(code: &SCode, arena: &CoercionArena, value: &Value, types: &TypeArena) -> Term {
    let u = match value {
        Value::Int(n) | Value::CoercedInt(n, _) => Term::int(*n),
        Value::Bool(b) | Value::CoercedBool(b, _) => Term::bool(*b),
        Value::Code(at) | Value::CoercedCode(at, _) => {
            let outer = |_| unreachable!("a closed function");
            code.decode_open(*at, &[], arena, types, &outer)
        }
        // Around the closure's node, a free variable's slot is the
        // source of one of its captures.
        Value::Closure(c) | Value::CoercedClosure(c, _) => {
            let (Node::Lam { caps, .. } | Node::Fix { caps, .. }) = code.node(c.code) else {
                unreachable!("a closure over {:?}", code.node(c.code))
            };
            let capture = |slot| code.captures(caps).iter().position(|&s| s == slot);
            let outer = |slot| read_value(code, arena, &c.captures[capture(slot).unwrap()], types);
            code.decode_open(c.code, &[], arena, types, &outer)
        }
    };
    match value.coercion() {
        Some(s) => u.coerce(arena.resolve(s)),
        None => u,
    }
}

/// The compiled small-step's counting policy: each contraction is a
/// step, a capturing closure keeps the measure of the closed term it
/// stands for, and the measure of the whole term the state stands for
/// is repriced at each contraction from the redex alone — arithmetic on
/// coercion sizes, on each binder's occurrence count and on closure
/// measures, or one walk of a discarded `if` branch. Every sum and
/// product of measures saturates, so past `usize::MAX` a peak reads
/// `usize::MAX`; a single coercion's size cannot come near it.
#[derive(Debug, Clone)]
pub struct Contractions {
    facts: Box<[Facts]>,
    measure: Measure,
    peak_size: usize,
    peak_cast_measure: usize,
}

impl Contractions {
    fn view<'a>(&'a self, code: &'a SCode, store: &'a Store, arena: &'a CoercionArena) -> View<'a> {
        let facts = &self.facts;
        View {
            code,
            facts,
            store,
            arena,
        }
    }
}

impl Count for Contractions {
    type Payload = Measure;
    type Aux = TypeArena;
    type Output = Result<Run, RunError>;
    type Metrics = RunError;
    const TRANSITION: u64 = 0;
    const CONTRACTION: u64 = 1;

    /// What the run reports if its fuel ends here: the contractions so
    /// far and the peaks.
    fn metrics(&self, steps: u64) -> RunError {
        RunError::FuelExhausted {
            steps,
            peak_size: self.peak_size,
            peak_cast_measure: self.peak_cast_measure,
        }
    }

    fn payload(
        &self,
        code: &SCode,
        store: &Store,
        arena: &CoercionArena,
        at: u32,
        env: Env,
    ) -> Measure {
        self.view(code, store, arena).measure_code(at, env)
    }

    /// β and `let` push the value into its slot and substitute nothing:
    /// each of the `n` occurrences of the variable now stands for the
    /// whole value.
    fn contracted(
        &mut self,
        redex: Redex<'_, Measure>,
        code: &SCode,
        store: &Store,
        arena: &CoercionArena,
    ) {
        let view = self.view(code, store, arena);
        let size = |s| arena.size(s);
        let (removed, added) = match redex {
            Redex::Merge(s, t, u) => (
                (size(s) + size(t) + 1, size(s) + size(t)),
                (size(u), size(u)),
            ),
            Redex::Unwrap(c) => ((size(c) + 1, size(c)), (0, 0)),
            Redex::Raise => {
                self.measure = (1, 0);
                return;
            }
            Redex::Op(arity) => ((1 + arity, 0), (1, 0)),
            Redex::If(dropped, env) => (add((2, 0), view.measure_code(dropped, env)), (0, 0)),
            Redex::Let(at, value) => {
                let v = view.measure(value);
                let n = self.facts[at as usize].counts[0];
                (add((1, 0), v), replaced(n, v))
            }
            Redex::Split(c, s, t) => (
                (size(c), size(c)),
                (size(s) + size(t) + 1, size(s) + size(t)),
            ),
            Redex::Beta(fun, arg) => {
                let at = match fun {
                    Value::Code(at) => *at,
                    Value::Closure(c) => c.code,
                    _ => unreachable!("applied a non-function value"),
                };
                let v = view.measure(arg);
                let [n_arg, n_fun] = self.facts[at as usize].counts;
                // Unrolling and β in one step: a `fix` call binds the
                // function and its argument in one activation.
                let added = match n_fun {
                    0 => replaced(n_arg, v),
                    _ => add(replaced(n_arg, v), replaced(n_fun, view.measure(fun))),
                };
                (add((2, 0), v), added)
            }
        };
        let m = &mut self.measure;
        m.0 = reprice(m.0, removed.0, added.0);
        m.1 = reprice(m.1, removed.1, added.1);
        self.peak_size = self.peak_size.max(m.0);
        self.peak_cast_measure = self.peak_cast_measure.max(m.1);
    }

    /// Checks the tracked measure against the term read back, in debug
    /// builds: reading back costs the term's size, so up to 2^16 nodes,
    /// and only while no measure has saturated.
    fn check(
        &self,
        steps: u64,
        code: &SCode,
        store: &Store,
        control: &Control<Measure>,
        arena: &CoercionArena,
        types: &TypeArena,
    ) {
        if cfg!(debug_assertions) && self.peak_size < usize::MAX && self.measure.0 <= 1 << 16 {
            let t = self.view(code, store, arena).read_back(control, types);
            let measure = (t.size(), t.coercion_size());
            assert_eq!(
                self.measure, measure,
                "tracked size drifted from the term at step {steps}"
            );
        }
        let settled = store.frames.len() - usize::from(matches!(control, Control::Proxy(_)));
        debug_assert!(
            !store.frames[..settled]
                .windows(2)
                .any(|w| matches!(w, [Frame::CoerceFrame(_), Frame::CoerceFrame(_)])),
            "a coercion frame was stacked on another at step {steps}"
        );
    }

    /// A final value is read back into a [`Term`].
    fn finish(
        self,
        end: End<Measure>,
        steps: u64,
        code: &SCode,
        arena: &CoercionArena,
        _: &ComposeCache,
        types: &TypeArena,
    ) -> Result<Run, RunError> {
        let outcome = match end {
            End::Value(v) => Outcome::Value(read_value(code, arena, &v, types)),
            End::Blame(p) => Outcome::Blame(p),
            End::Fuel => return Err(self.metrics(steps)),
        };
        Ok(Run {
            outcome,
            steps,
            peak_size: self.peak_size,
            peak_cast_measure: self.peak_cast_measure,
        })
    }
}

/// Evaluates a closed, well-typed compiled λS program for at most
/// `fuel` steps: [`run`] on the program's code block, against
/// caller-owned arenas, with the same outcome, steps and peaks.
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

/// A compiled small-step run parked between fuel slices.
pub type PausedC = exec::Paused<Contractions>;

/// Result of driving a compiled run for one fuel slice.
pub type SliceC = Slice<PausedC, Result<Run, RunError>>;

/// Begins a resumable compiled run, parked before its first step after
/// one walk of the block that counts each binder's occurrences and
/// measures each subterm. The block is trusted to be closed and well
/// typed, as [`run_compiled`] checks and a session's lowering
/// guarantees.
pub fn start_compiled(code: &SCode, fuel: u64, arena: &CoercionArena) -> PausedC {
    let facts = facts(code, arena);
    let measure = facts[code.root() as usize].measure;
    let count = Contractions {
        facts,
        measure,
        peak_size: measure.0,
        peak_cast_measure: measure.1,
    };
    PausedC::new(code, fuel, count)
}

/// Runs a parked compiled run for at most `slice` further steps
/// ([`exec::resume`]), reading a final value back through `arena` and
/// `types`: `resume_compiled(start_compiled(c, f, ..), f, ..)` is
/// [`run_compiled`]`(c, f, ..)`.
///
/// # Panics
///
/// Panics if the block is open or ill typed (which [`start_compiled`]
/// does not check) or its ids are foreign to `arena` or `types`.
pub fn resume_compiled(
    paused: PausedC,
    slice: u64,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    types: &TypeArena,
) -> SliceC {
    exec::resume(paused, slice, arena, cache, types)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{BaseType, Constant, Ground, Label, Op};

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

    /// `Int?p` and `Int!`, the two halves of a boundary crossing.
    fn proj_int(n: u32) -> SpaceCoercion {
        SpaceCoercion::proj(gi(), p(n), Intermediate::Ground(id_int()))
    }
    fn inj_int() -> SpaceCoercion {
        SpaceCoercion::inj(id_int(), gi())
    }

    fn inc() -> Term {
        Term::lam(
            "x",
            Type::INT,
            Term::op2(Op::Add, Term::var("x"), Term::int(1)),
        )
    }

    /// `inc⟨Int?p→Int!⟩ : ? → ?`, a proxy.
    fn proxy(n: u32) -> Term {
        inc().coerce(SpaceCoercion::fun(proj_int(n), inj_int()))
    }

    fn compiled(m: &Term, fuel: u64) -> Result<Run, RunError> {
        let mut ctx = crate::sterm::CompileCtx::new();
        let code = ctx.compile(m);
        run_compiled(&code, fuel, &mut ctx.arena, &mut ctx.cache, &mut ctx.types)
    }

    #[test]
    fn merge_fires_before_evaluation() {
        // (1+1)⟨idInt;Int!⟩⟨Int?p;idInt⟩ first merges the coercions to
        // idInt, *then* evaluates the sum.
        let sum = || Term::op2(Op::Add, Term::int(1), Term::int(1));
        let m = sum().coerce(inj_int()).coerce(proj_int(0));
        let ty = type_of(&m).unwrap();
        match step(&m, &ty) {
            Step::Next(n) => assert_eq!(n, sum().coerce(SpaceCoercion::id_base(BaseType::Int))),
            other => panic!("expected merge step, got {other:?}"),
        }
    }

    #[test]
    fn tree_and_compiled_runs_agree() {
        let bool_of_7 = Term::int(7).coerce(inj_int()).coerce(SpaceCoercion::proj(
            gb(),
            p(1),
            Intermediate::Ground(GroundCoercion::IdBase(BaseType::Bool)),
        ));
        let sum = || Term::op2(Op::Add, Term::int(1), Term::int(1));
        // Each program with the outcome of the tree run.
        let value = |v| Some(Outcome::Value(v));
        let expected = [
            // Merging before evaluating.
            (
                sum().coerce(inj_int()).coerce(proj_int(0)),
                value(Term::int(2)),
            ),
            // A round trip collapses.
            (
                Term::int(7).coerce(inj_int()).coerce(proj_int(0)),
                value(Term::int(7)),
            ),
            // A mismatch fails, then blames.
            (bool_of_7.clone(), Some(Outcome::Blame(p(1)))),
            (
                Term::int(1).coerce(SpaceCoercion::fail(gi(), p(3), gb())),
                Some(Outcome::Blame(p(3))),
            ),
            // A wrapped function applied.
            (
                proxy(0).app(Term::int(1).coerce(inj_int())),
                value(Term::int(2).coerce(inj_int())),
            ),
            // The liberalised context: (1+1)⟨idInt⟩ evaluates under the
            // identity coercion, then unwraps.
            (
                sum().coerce(SpaceCoercion::id_base(BaseType::Int)),
                value(Term::int(2)),
            ),
            // Merge-heavy stacking.
            (
                Term::int(1)
                    .coerce(inj_int())
                    .coerce(proj_int(2))
                    .coerce(inj_int())
                    .coerce(proj_int(3)),
                value(Term::int(1)),
            ),
        ];
        // 1 + ((λx:Int. x) (let y = B in if y then 1 else 2)): the blame
        // arises under the +, argument and let frames.
        let under_three_frames = |bound| {
            let id = Term::lam("x", Type::INT, Term::var("x"));
            let body = Term::If(
                Term::var("y").into(),
                Term::int(1).into(),
                Term::int(2).into(),
            );
            Term::op2(Op::Add, Term::int(1), id.app(Term::let_("y", bound, body)))
        };
        let if_1_lt = |k, then_: Term, else_: Term| {
            let test = Term::op2(Op::Lt, Term::int(1), Term::int(k));
            Term::If(test.into(), then_.into(), else_.into())
        };
        let big = proxy(0)
            .app(Term::int(3).coerce(inj_int()))
            .coerce(proj_int(1));
        // The discarded branch weighs f and g at their values' size.
        let call = |x| {
            Term::var("f")
                .app(Term::var("g").app(Term::int(x)).coerce(inj_int()))
                .coerce(proj_int(1))
        };
        let over_proxy_and_closure = |k| {
            let g3 = Term::var("g").app(Term::int(3));
            let branches = if_1_lt(k, call(1), Term::op2(Op::Add, call(2), g3));
            Term::let_("f", proxy(0), Term::let_("g", inc(), branches))
        };
        // let f = proxy in let h = λy:?. f y in
        // (λk:?→?. (k (k 1⟨Int!⟩))⟨Int?q⟩) h: h captures the proxy, and
        // h reaches both calls through k's activation.
        let twice = Term::lam(
            "k",
            Type::fun(Type::DYN, Type::DYN),
            Term::var("k")
                .app(Term::var("k").app(Term::int(1).coerce(inj_int())))
                .coerce(proj_int(1)),
        );
        let h = Term::lam("y", Type::DYN, Term::var("f").app(Term::var("y")));
        // Recursion: each call unrolls the fix (the tree run substitutes
        // it for f, the compiled run binds it).
        let n_minus_1 = || Term::op2(Op::Sub, Term::var("n"), Term::int(1));
        let fix = |ty, zero: Term, more: Term| {
            let test = Term::op2(Op::Eq, Term::var("n"), Term::int(0));
            let body = Term::If(test.into(), zero.into(), more.into());
            Term::Fix("f".into(), "n".into(), Type::INT, ty, body.into())
        };
        let count_down = fix(Type::INT, Term::int(0), Term::var("f").app(n_minus_1()));
        // fix f (n:Int):Int→Int. if n = 0 then λm. m + n
        //                        else λm. (f (n − 1)) m
        // applied to 3 ends in the second λ, which captures f and n from
        // a fix call's activation; applied once more, it unrolls.
        let m_plus_n = Term::op2(Op::Add, Term::var("m"), Term::var("n"));
        let f_n_minus_1_m = Term::var("f").app(n_minus_1()).app(Term::var("m"));
        let closure_of_fix = fix(
            Type::fun(Type::INT, Type::INT),
            Term::lam("m", Type::INT, m_plus_n),
            Term::lam("m", Type::INT, f_n_minus_1_m),
        );
        let more = [
            count_down.app(Term::int(3)),
            // (inc⟨Int?p→Int!⟩ 1⟨Int!⟩)⟨Int?q⟩: the proxy step leaves
            // (inc 1⟨Int!⟩⟨Int?p⟩)⟨Int!⟩ in focus directly under the
            // ⟨Int?q⟩ frame, and that pair must merge before anything
            // inside.
            proxy(0)
                .app(Term::int(1).coerce(inj_int()))
                .coerce(proj_int(4)),
            // A failed projection and a blame already in the program.
            under_three_frames(bool_of_7),
            under_three_frames(Term::Blame(p(7), Type::BOOL)),
            // An `if` discards a branch full of coercions.
            if_1_lt(2, Term::int(1), big.clone()),
            if_1_lt(0, big, Term::int(1)),
            over_proxy_and_closure(2),
            over_proxy_and_closure(0),
            // let f = proxy in (f (f 1⟨Int!⟩))⟨Int?q⟩: both occurrences
            // of f are replaced by the whole coerced λ.
            Term::let_(
                "f",
                proxy(0),
                Term::var("f")
                    .app(Term::var("f").app(Term::int(1).coerce(inj_int())))
                    .coerce(proj_int(1)),
            ),
            Term::let_("f", proxy(0), Term::let_("h", h, twice.app(Term::var("h")))),
            closure_of_fix.clone().app(Term::int(3)),
            closure_of_fix.app(Term::int(3)).app(Term::int(10)),
            // A let whose name never occurs.
            Term::let_("x", proxy(0), Term::int(5).coerce(inj_int())),
            // let x = 1⟨Int!⟩ in x⟨Int?p⟩, and a proxy f re-coerced to
            // Int→Int: the merge fires on the looked-up value first.
            Term::let_(
                "x",
                Term::int(1).coerce(inj_int()),
                Term::var("x").coerce(proj_int(0)),
            ),
            Term::let_(
                "f",
                proxy(0),
                Term::var("f")
                    .coerce(SpaceCoercion::fun(inj_int(), proj_int(2)))
                    .app(Term::int(1)),
            ),
        ];
        let more = more.into_iter().map(|m| (m, None));
        for (m, outcome) in expected.into_iter().chain(more) {
            let tree = run(&m, 10_000);
            if let Some(outcome) = outcome {
                assert_eq!(tree.as_ref().unwrap().outcome, outcome, "{m}");
            }
            assert_eq!(compiled(&m, 10_000), tree, "{m}");
        }
    }

    #[test]
    fn bounded_coercions_under_stacking() {
        // Stacking n round-trip coercions on a value merges them pair
        // by pair; the peak coercion size stays constant.
        let stacked =
            |n: u32| (0..n).fold(Term::int(1), |m, k| m.coerce(inj_int()).coerce(proj_int(k)));
        let r8 = run(&stacked(8), 10_000).unwrap();
        let r64 = run(&stacked(64), 10_000).unwrap();
        assert_eq!(r8.outcome, Outcome::Value(Term::int(1)));
        assert_eq!(r64.outcome, Outcome::Value(Term::int(1)));
        // The initial term itself is linear in n, but merging keeps
        // the *growth* nil: peak equals the initial size.
        assert_eq!(r64.peak_cast_measure, stacked(64).coercion_size());
    }

    #[test]
    fn closures_over_closures_are_priced_once_and_saturate() {
        // let k = 1 in let f0 = λx. x + k in let f1 = λx. f0 (f0 x) in
        // … let fn = λx. fn−1 (fn−1 x) in k: fn's closed term doubles
        // with n, and binding it costs one step all the same. Past
        // `usize::MAX` nodes the peak saturates.
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
        assert_eq!(compiled(&chain(6), 100), run(&chain(6), 100));
        for (n, saturated) in [(40, false), (62, true), (64, true)] {
            let run = compiled(&chain(n), 100).expect("the chain ends");
            assert_eq!(run.outcome, Outcome::Value(Term::int(1)));
            assert_eq!(run.steps, u64::from(n) + 2);
            assert_eq!(run.peak_size == usize::MAX, saturated, "{n}");
            assert!(run.peak_size > 1 << 40, "{}", run.peak_size);
        }
    }

    #[test]
    fn compiled_run_rejects_ill_typed_terms() {
        let bad = Term::op2(Op::Add, Term::int(1), Term::Const(Constant::Bool(true)));
        assert!(matches!(compiled(&bad, 10), Err(RunError::IllTyped(_))));
    }

    #[test]
    fn preservation_along_a_run() {
        let mut cur = proxy(0)
            .app(Term::int(1).coerce(inj_int()))
            .coerce(proj_int(4));
        let ty = type_of(&cur).unwrap();
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

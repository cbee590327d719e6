//! The session-centric runtime: one [`Session`] owns the interning
//! arenas, many [`Program`]s share them.
//!
//! The λS space-efficiency story (and the arena/cache/compiled-IR
//! machinery built in earlier milestones) makes a *single* program
//! cheap to re-run. A server, though, runs *many* gradually-typed
//! programs — and structurally similar programs cross the same
//! boundaries, intern the same coercions, compose the same pairs, and
//! ask the same subtyping questions. A [`Session`] hoists the
//! [`CoercionArena`], [`ComposeCache`], and [`TypeArena`] out of the
//! per-program state: every program compiled into the session interns
//! against the shared arenas, so the second structurally similar
//! program adds (near) zero new nodes and answers its merges from the
//! warm cache.
//!
//! * [`Session::compile`] — GTLC source → λB → λS code block,
//!   interned into the shared arenas; returns a lightweight
//!   [`Program`] handle bound to this session.
//! * [`Session::run`] / [`Session::run_with_fuel`] — execute a program
//!   on any [`Engine`], returning `Result<RunReport, RunError>`:
//!   fuel exhaustion and ill-typedness are typed errors, never panics
//!   or sentinel observations.
//! * [`Session::builder`] — configure the eviction knobs
//!   ([`SessionBuilder::compose_cache_capacity`],
//!   [`SessionBuilder::type_memo_capacity`]) and the
//!   [`SessionBuilder::default_fuel`] used by [`Session::run`].
//! * [`Session::stats`] — one consolidated [`SessionStats`] snapshot
//!   of everything the session has accumulated.
//!
//! ```
//! use blame_coercion::session::{Engine, Session};
//!
//! let session = Session::new();
//! let program = session
//!     .compile("let inc = fun x => x + 1 in (inc 41 : Int)")
//!     .expect("type checks gradually");
//! let report = session.run(&program, Engine::MachineS).expect("runs");
//! assert_eq!(report.observation.to_string(), "42");
//! ```

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bc_core::arena::{CoercionArena, ComposeCache, FrozenCoercions};
use bc_core::sterm::SCode;
use bc_core::LambdaS;
use bc_gtlc::Diagnostic;
use bc_lambda_b::{BTerm, Cast, LambdaB};
use bc_lambda_c::{Coercion, LambdaC};
use bc_machine::cek;
use bc_machine::metrics::Metrics;
use bc_syntax::intern::FrozenTypes;
use bc_syntax::reduce::{self, Reduce, Slice};
use bc_syntax::{Label, Type, TypeArena, TypeId};
use bc_translate::bisim::{observe, Observation};
use bc_translate::{term_b_to_c, term_b_to_s_compiled};

/// Which semantics executes the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Small-step reduction in the blame calculus (Figure 1).
    LambdaB,
    /// Small-step reduction in the coercion calculus (Figure 3).
    LambdaC,
    /// Small-step reduction in the space-efficient calculus (Figure 5).
    LambdaS,
    /// The λB CEK machine (leaks on boundary-crossing tail calls).
    MachineB,
    /// The λC CEK machine (same leak, coercion syntax).
    MachineC,
    /// The λS CEK machine (merges coercion frames; space-efficient).
    MachineS,
}

impl Engine {
    /// All engines, in a fixed order.
    pub const ALL: [Engine; 6] = [
        Engine::LambdaB,
        Engine::LambdaC,
        Engine::LambdaS,
        Engine::MachineB,
        Engine::MachineC,
        Engine::MachineS,
    ];
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Engine::LambdaB => "λB (small-step)",
            Engine::LambdaC => "λC (small-step)",
            Engine::LambdaS => "λS (small-step)",
            Engine::MachineB => "λB (CEK machine)",
            Engine::MachineC => "λC (CEK machine)",
            Engine::MachineS => "λS (CEK machine)",
        };
        f.write_str(name)
    }
}

/// The result of running a program to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// What the program evaluated to.
    pub observation: Observation,
    /// Steps taken (reduction steps or machine transitions).
    pub steps: u64,
    /// Machine space metrics (machines only).
    pub metrics: Option<Metrics>,
    /// Wall-clock time spent *executing* the run. For a sliced run
    /// this accumulates only the active slices — time parked in a run
    /// queue is scheduling, not execution (the pool reports
    /// end-to-end latency separately, on `JobOutput::elapsed`).
    /// Unlike every other field it is timing, not semantics: sliced
    /// and unsliced runs agree on observation/steps/metrics exactly
    /// (property-tested) while their `elapsed` naturally differs.
    pub elapsed: Duration,
}

/// Why a run produced no [`RunReport`] — the typed error for the whole
/// run path. Nothing on the run path panics for these conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The fuel bound was reached; the program may diverge.
    FuelExhausted {
        /// Steps (reduction steps or machine transitions) actually
        /// taken before fuel ran out.
        steps: u64,
        /// Space metrics collected up to the cutoff (machine engines
        /// only, like [`RunReport::metrics`]) — this is what makes the
        /// λB/λC space leak *measurable on genuinely diverging
        /// programs*: a fuel-bounded machine run still reports its
        /// peak cast frames.
        metrics: Option<Metrics>,
    },
    /// The program (or one of its translations) is not well typed; the
    /// diagnostic carries the engine-level type error. Unreachable for
    /// programs produced by [`Session::compile`] — cast insertion and
    /// both translations preserve typing — but loaded λB terms are
    /// only as good as their stated type.
    IllTyped(Diagnostic),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::FuelExhausted { steps, .. } => {
                write!(f, "fuel exhausted after {steps} steps")
            }
            RunError::IllTyped(d) => write!(f, "ill-typed program: {}", d.message),
        }
    }
}

impl std::error::Error for RunError {}

/// Builds an ill-typed diagnostic with no source location (run-path
/// type errors come from calculus terms, which carry no spans).
fn ill_typed(detail: impl fmt::Display) -> RunError {
    RunError::IllTyped(Diagnostic::unlocated(detail.to_string()))
}

/// Whether a λB term nests deeper than `bound` levels, counted as the
/// parser counts a source program: each term node is one level below
/// its parent, and each level of a binder annotation's, a cast
/// endpoint's or a `blame`'s type is one more below its node. The walk
/// keeps its own stack, so a term of any depth is measured without
/// recursion, and it stops at the first node past the bound.
fn nests_deeper_than(term: &bc_lambda_b::Term, bound: usize) -> bool {
    use bc_lambda_b::Term;
    enum Item<'a> {
        Term(&'a Term),
        Type(&'a Type),
    }
    let mut stack = vec![(Item::Term(term), 1)];
    while let Some((item, depth)) = stack.pop() {
        if depth > bound {
            return true;
        }
        let below = depth + 1;
        let mut term = |t| stack.push((Item::Term(t), below));
        match item {
            Item::Type(Type::Fun(a, b)) => {
                stack.extend([(Item::Type(a), below), (Item::Type(b), below)]);
            }
            Item::Type(_) | Item::Term(Term::Const(_) | Term::Var(_)) => {}
            Item::Term(Term::Op(_, args)) => args.iter().for_each(term),
            Item::Term(Term::App(a, b) | Term::Let(_, a, b)) => {
                term(a);
                term(b);
            }
            Item::Term(Term::If(a, b, c)) => {
                term(a);
                term(b);
                term(c);
            }
            Item::Term(Term::Lam(_, a, b)) => {
                term(b);
                stack.push((Item::Type(a), below));
            }
            Item::Term(Term::Fix(_, _, a, r, b)) => {
                term(b);
                stack.extend([(Item::Type(a), below), (Item::Type(r), below)]);
            }
            Item::Term(Term::Coerce(m, c)) => {
                term(m);
                stack.extend([
                    (Item::Type(&c.source), below),
                    (Item::Type(&c.target), below),
                ]);
            }
            Item::Term(Term::Blame(_, a)) => stack.push((Item::Type(a), below)),
        }
    }
    false
}

/// Maps a finished small-step run of any calculus to the session-level
/// result. Small-step runs carry no machine metrics, mirroring
/// [`RunReport::metrics`].
fn small_step_report<R: Reduce>(
    r: Result<reduce::Run<R::Cast>, reduce::RunError<R::TypeError>>,
    elapsed: Duration,
) -> Result<RunReport, RunError>
where
    R::TypeError: fmt::Display,
{
    match r {
        Ok(r) => Ok(RunReport {
            observation: observe::<R>(&r.outcome),
            steps: r.steps,
            metrics: None,
            elapsed,
        }),
        Err(reduce::RunError::FuelExhausted { steps, .. }) => Err(RunError::FuelExhausted {
            steps,
            metrics: None,
        }),
        Err(reduce::RunError::IllTyped(e)) => Err(ill_typed(e)),
    }
}

/// A frozen, immutable snapshot of a warm [`Session`]'s shared state —
/// the base tier of the two-tier (base + per-worker overlay) sharing
/// model.
///
/// Produced by [`Session::freeze`]; consumed by
/// [`SessionBuilder::base`]. The snapshot bundles the frozen type
/// arena (nodes, metadata, and every memoized relational verdict) and
/// the frozen coercion arena (nodes plus every memoized composition
/// pair); it is `Send + Sync`, so one `Arc<FrozenBase>` can back any
/// number of worker sessions on any number of threads, each layering
/// a cheap private overlay on top. A base warmed on the six testkit
/// shapes covers a 64-program mixed batch with zero overlay nodes
/// (`tests/pool.rs::warmed_pool_workers_intern_nothing_past_the_base`);
/// perfbench's `pool.coercion_base_hit_rate` measures the coverage
/// under drifting traffic.
///
/// **When to freeze**: after compiling (and ideally running) a
/// representative warmup workload, so the snapshot holds the types,
/// coercions, verdicts, and compositions the real traffic repeats.
/// The first freeze builds an append-only slab; every later freeze of
/// a session built over that slab merely *appends* the overlay — cost
/// proportional to what the session interned locally, independent of
/// base size — and returns a new watermark view over the same shared
/// storage. Snapshots taken over one base therefore share memory and
/// stay cheap to take even as the base grows, but a base is still a
/// deployment artifact: freeze at traffic boundaries, not per
/// request.
///
/// **Id-offset contract**: ids below the frozen lengths denote
/// snapshot nodes and mean the same thing in every session built over
/// this base; each worker's locally interned ids start past them and
/// are private to that worker (see `bc_syntax::slab`, the store both
/// frozen tiers are views of).
#[derive(Debug)]
pub struct FrozenBase {
    types: Arc<FrozenTypes>,
    coercions: Arc<FrozenCoercions>,
}

impl FrozenBase {
    /// Number of frozen coercion nodes.
    pub fn coercion_nodes(&self) -> usize {
        self.coercions.len()
    }

    /// Number of frozen type nodes.
    pub fn type_nodes(&self) -> usize {
        self.types.len()
    }

    /// Number of frozen composition pairs.
    pub fn compose_pairs(&self) -> usize {
        self.coercions.memo_len()
    }

    /// Number of frozen relational verdicts.
    pub fn verdicts(&self) -> usize {
        self.types.memo_len()
    }

    /// Whether this base *extends* `other`: both frozen tiers are
    /// views over the *same* append-only slab with this base's
    /// watermarks at or past `other`'s. Because slab ids are never
    /// re-assigned, this proves every node `other` holds appears here
    /// at the same id — the hot-swap soundness condition: any id
    /// valid against `other` is valid, unchanged, against an
    /// extension, which a [`Session::freeze`] of a session built over
    /// `other` produces by construction (freezing appends the overlay
    /// above the base watermark, leaving base ids untouched). O(1) —
    /// two pointer identities and a handful of integer compares —
    /// cheap enough for promotion-time validation on every swap.
    pub fn extends(&self, other: &FrozenBase) -> bool {
        self.types.extends(&other.types) && self.coercions.extends(&other.coercions)
    }
}

/// The two-tier sharing counters of a [`Session`]: how much of its
/// state lives in the frozen base versus the private overlay, and how
/// often the base tier answered. All-zero for a session without a
/// base.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Coercion nodes in the frozen base tier.
    pub base_coercion_nodes: usize,
    /// Coercion nodes interned locally, past the base. Zero means the
    /// base absorbed every coercion this session ever interned.
    pub local_coercion_nodes: usize,
    /// Type nodes in the frozen base tier.
    pub base_type_nodes: usize,
    /// Type nodes interned locally, past the base.
    pub local_type_nodes: usize,
    /// Type interns answered by the frozen base index. (Its coercion,
    /// composition and verdict counterparts are the `base_hits` of
    /// [`SessionStats::coercions`], [`SessionStats::compose`] and
    /// [`SessionStats::type_queries`].)
    pub type_base_hits: u64,
}

/// A consolidated snapshot of everything a [`Session`] has
/// accumulated — the replacement for the per-program
/// `coercion_stats`/`type_stats` tuple trio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Programs compiled or loaded into the session so far.
    pub programs: usize,
    /// Coercion-arena counters (distinct nodes, tree interns,
    /// node hits/misses).
    pub coercions: bc_core::arena::ArenaStats,
    /// Memoized composition pairs currently held.
    pub compose_pairs: usize,
    /// The compose cache's pair cap.
    pub compose_capacity: usize,
    /// Compose-cache hit/miss/eviction counters.
    pub compose: bc_core::arena::CacheStats,
    /// Distinct type nodes interned.
    pub type_nodes: usize,
    /// Memoized relational verdicts currently held.
    pub type_memo_pairs: usize,
    /// The verdict tables' entry cap.
    pub type_memo_capacity: usize,
    /// Relational-query hit/miss/eviction counters.
    pub type_queries: bc_syntax::intern::QueryStats,
    /// Tree views built since the session was built (one per
    /// [`Session::lambda_b`]/[`Session::lambda_c`]/
    /// [`Session::lambda_s`] call, and per run of a tree engine). Zero for a session that
    /// only compiled and ran on the compiled engines — the
    /// allocation-free-pipeline acceptance counter.
    pub tree_builds: u64,
    /// Two-tier sharing counters (all-zero without a [`FrozenBase`]).
    pub tier: TierStats,
}

impl fmt::Display for SessionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} programs; {} coercion nodes, {} composed pairs \
             ({} hits / {} misses / {} evictions); \
             {} type nodes, {} verdicts ({} hits / {} misses / {} evictions)",
            self.programs,
            self.coercions.nodes,
            self.compose_pairs,
            self.compose.hits,
            self.compose.misses,
            self.compose.evictions,
            self.type_nodes,
            self.type_memo_pairs,
            self.type_queries.hits,
            self.type_queries.misses,
            self.type_queries.evictions,
        )
    }
}

/// Configures and builds a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    compose_cache_capacity: usize,
    type_memo_capacity: usize,
    default_fuel: u64,
    base: Option<Arc<FrozenBase>>,
}

impl Default for SessionBuilder {
    fn default() -> SessionBuilder {
        SessionBuilder {
            compose_cache_capacity: SessionBuilder::DEFAULT_COMPOSE_CACHE_CAPACITY,
            type_memo_capacity: SessionBuilder::DEFAULT_TYPE_MEMO_CAPACITY,
            default_fuel: SessionBuilder::DEFAULT_FUEL,
            base: None,
        }
    }
}

impl SessionBuilder {
    /// The default step bound used by [`Session::run`].
    pub const DEFAULT_FUEL: u64 = 1_000_000;

    /// The default compose-cache pair cap. When it was chosen, a
    /// 16-program boundary-loop batch — the most composition-heavy
    /// workload then measured — peaked at **10** live pairs with a
    /// 99.9% hit rate. The live pair count is no longer measured;
    /// perfbench's `core.compose_hit_ratio` reports the hit rate on
    /// its workloads. 2¹⁶ keeps >5000× headroom over that peak while
    /// bounding a long-lived multi-tenant session's table at a few MB
    /// (the raw-arena default `ComposeCache::DEFAULT_CAPACITY` of 2²⁰
    /// stays for callers managing their own arenas).
    pub const DEFAULT_COMPOSE_CACHE_CAPACITY: usize = 1 << 16;

    /// The default verdict-table cap, chosen the same way: the
    /// interned front end answers its relational questions almost
    /// entirely from the O(1) fast paths (hit rates ≥ 0.999 when
    /// measured; perfbench's `syntax.verdict_hit_ratio` reports it
    /// now) and held at most a few dozen memoized verdicts, so 2¹⁶ is
    /// again >1000× headroom at bounded memory.
    pub const DEFAULT_TYPE_MEMO_CAPACITY: usize = 1 << 16;

    /// Caps the compose cache at `capacity` memoized pairs (evicted
    /// second-chance beyond that; see `bc_core::arena::ComposeCache`).
    ///
    /// The default is the data-driven
    /// [`SessionBuilder::DEFAULT_COMPOSE_CACHE_CAPACITY`]; raise it
    /// only for workloads measurably evicting
    /// ([`SessionStats::compose`]`.evictions > 0` with a falling hit
    /// rate).
    ///
    /// # Panics
    ///
    /// [`SessionBuilder::build`] panics if the capacity is zero.
    pub fn compose_cache_capacity(mut self, capacity: usize) -> SessionBuilder {
        self.compose_cache_capacity = capacity;
        self
    }

    /// Caps the type arena's relational-verdict tables at `capacity`
    /// memoized entries (evicted second-chance beyond that; see
    /// [`TypeArena::with_memo_capacity`]).
    ///
    /// The default is the data-driven
    /// [`SessionBuilder::DEFAULT_TYPE_MEMO_CAPACITY`]; raise it only
    /// if [`SessionStats::type_queries`] shows evictions with a
    /// falling hit rate.
    ///
    /// # Panics
    ///
    /// [`SessionBuilder::build`] panics if the capacity is zero.
    pub fn type_memo_capacity(mut self, capacity: usize) -> SessionBuilder {
        self.type_memo_capacity = capacity;
        self
    }

    /// The step bound [`Session::run`] uses when the caller does not
    /// pass one explicitly.
    pub fn default_fuel(mut self, fuel: u64) -> SessionBuilder {
        self.default_fuel = fuel;
        self
    }

    /// Builds the session as a cheap overlay over a frozen base (see
    /// [`Session::freeze`]): every type, coercion, verdict, and
    /// composition the base holds is shared read-only, and only
    /// genuinely new state is interned locally. This is how
    /// [`crate::pool::SessionPool`] gives every worker thread a warm
    /// start from one snapshot.
    pub fn base(mut self, base: Arc<FrozenBase>) -> SessionBuilder {
        self.base = Some(base);
        self
    }

    /// Builds the session.
    ///
    /// # Panics
    ///
    /// Panics if either configured capacity is zero.
    pub fn build(self) -> Session {
        let (arena, cache, types) = match self.base {
            Some(base) => (
                CoercionArena::with_base(Arc::clone(&base.coercions)),
                ComposeCache::with_base(Arc::clone(&base.coercions), self.compose_cache_capacity),
                TypeArena::with_base(Arc::clone(&base.types), self.type_memo_capacity),
            ),
            None => (
                CoercionArena::new(),
                ComposeCache::with_capacity(self.compose_cache_capacity),
                TypeArena::with_memo_capacity(self.type_memo_capacity),
            ),
        };
        Session {
            id: next_session_id(),
            arena: RefCell::new(arena),
            cache: RefCell::new(cache),
            types: RefCell::new(types),
            default_fuel: self.default_fuel,
            programs: Cell::new(0),
            tree_builds: Cell::new(0),
        }
    }
}

fn next_session_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(0);
    NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed)
}

/// A runtime session: the owner of the coercion arena, compose cache,
/// and type arena that all of its [`Program`]s share.
///
/// Programs compiled into one session pool every piece of
/// interned/memoized state: a boundary the first program crossed is
/// already interned when the second program meets it, a composition
/// the first program's loop memoized is a hash lookup for everyone
/// after, and a subtyping verdict is computed once per session, not
/// once per program. [`SessionStats`] makes the sharing observable.
///
/// See the [module docs](self) for an end-to-end example.
#[derive(Debug)]
pub struct Session {
    /// Identity of this session's id-spaces; programs record it so a
    /// handle can never be resolved against the wrong arenas.
    id: u64,
    arena: RefCell<CoercionArena>,
    cache: RefCell<ComposeCache>,
    types: RefCell<TypeArena>,
    default_fuel: u64,
    programs: Cell<usize>,
    /// How many tree views ([`Session::lambda_b`]/[`Session::lambda_c`]/
    /// [`Session::lambda_s`]) have been built — the zero-allocation
    /// acceptance counter: a compile+run on the compiled engines leaves
    /// it untouched.
    tree_builds: Cell<u64>,
}

impl Default for Session {
    fn default() -> Session {
        SessionBuilder::default().build()
    }
}

/// A program compiled into a [`Session`], held entirely in compiled
/// (id-carrying) form.
///
/// The handle owns the λS code block the λS engines run, but *not*
/// the arenas its ids point into: those live in the session that
/// compiled it, which is also the only session that can run it
/// (enforced at run time). No `Rc` term tree is built at compile time
/// or kept in the handle; the tree views are decompiled on demand
/// ([`Session::lambda_b`], [`Session::lambda_c`],
/// [`Session::lambda_s`]) for the tree engines, docs, and tests.
///
/// A program compiled from source keeps its source text instead of
/// its λB term, and [`Session::lambda_b_compiled`] re-elaborates the
/// text when the λB form is asked for: elaboration is deterministic
/// (same labels, and in the owning session the same interned ids), so
/// the handle of a served program stays a few hundred bytes. Programs
/// loaded as λB terms keep the term.
#[derive(Debug, Clone)]
pub struct Program {
    /// Where the λB form comes from.
    origin: Origin,
    /// The λS program as one flat, index-resolved code block. Private:
    /// its ids are only meaningful in the owning session's arenas.
    lambda_s_compiled: SCode,
    /// The program's (gradual) type, as a shared tree handle (resolved
    /// once per distinct type per session — a warm recompile clones an
    /// `Rc`, allocating nothing).
    pub ty: Type,
    /// Owning session id (checked by every [`Session::run`]).
    session: u64,
}

/// A program's λB form: re-derivable source text, or a loaded term.
#[derive(Debug, Clone)]
enum Origin {
    /// Compiled from source, with the blame-label spans cast insertion
    /// recorded.
    Source {
        text: Box<str>,
        blame_spans: HashMap<u32, bc_gtlc::Span>,
    },
    /// Loaded as a compiled λB term (its spine is `Rc`, so cloning it
    /// is a reference-count increment).
    Term(BTerm),
}

impl Program {
    /// The λS code block the λS engines execute. It is `Rc`-shared
    /// and stays in the session that lowered it: pool jobs carry only
    /// source text, and a worker compiles it against its own (warm)
    /// arenas.
    pub fn lambda_s_compiled(&self) -> &SCode {
        &self.lambda_s_compiled
    }

    /// Explains a blame label as a source-level diagnostic, when the
    /// program was compiled from source and the label came from cast
    /// insertion.
    pub fn explain_blame(&self, label: Label) -> Option<String> {
        match &self.origin {
            Origin::Source { text, blame_spans } => {
                bc_gtlc::elaborate::explain_blame_at(blame_spans, label, text)
            }
            Origin::Term(_) => None,
        }
    }
}

impl Session {
    /// A session with default capacities and fuel.
    pub fn new() -> Session {
        Session::default()
    }

    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The step bound [`Session::run`] applies.
    pub fn default_fuel(&self) -> u64 {
        self.default_fuel
    }

    /// Compiles GTLC source text through cast insertion and the one
    /// λB→λS lowering ([`term_b_to_s_compiled`]), interning into this
    /// session's shared arenas.
    ///
    /// The front end runs on interned types end to end and emits the
    /// compiled λB IR directly: the parser interns every annotation as
    /// it reads it ([`bc_gtlc::parser::parse_in`]) and the gradual
    /// type checker ([`bc_gtlc::elaborate_compiled`], the arena
    /// instance of the one elaborator) infers, checks consistency, and
    /// joins on `TypeId`s against this session's [`TypeArena`] — no
    /// `Rc<Type>` spine is ever built, and a structurally similar
    /// recompile in a warm session interns **zero** new nodes of any
    /// kind.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] on lexical, syntax, or gradual type
    /// errors.
    pub fn compile(&self, source: &str) -> Result<Program, Diagnostic> {
        let program = {
            let mut types = self.types.borrow_mut();
            bc_gtlc::compile_compiled(source, &mut types)?
        };
        let origin = Origin::Source {
            text: source.into(),
            blame_spans: program.blame_spans,
        };
        Ok(self.lower(&program.term, program.ty, origin))
    }

    /// Wraps an already-built λB term, checking it against the stated
    /// type before lowering it into the session: the tree term is
    /// checked by [`bc_lambda_b::type_of`] and its type compared with
    /// `ty`, and only then compiled to the id-annotated IR
    /// ([`bc_lambda_b::bterm::compile`]) and lowered.
    ///
    /// The term is first bounded like a parsed program: nested past
    /// [`bc_gtlc::parser::MAX_DEPTH`] levels, counting its annotations'
    /// type nesting too, it is refused before any recursive walk could
    /// overflow the stack.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IllTyped`] if the term nests too deep, is
    /// open, ill typed, or well typed at a different type than stated.
    pub fn load_lambda_b(&self, term: bc_lambda_b::Term, ty: Type) -> Result<Program, RunError> {
        use bc_gtlc::parser::MAX_DEPTH;
        if nests_deeper_than(&term, MAX_DEPTH) {
            return Err(ill_typed(format!(
                "the program nests deeper than {MAX_DEPTH} levels"
            )));
        }
        let actual = bc_lambda_b::type_of(&term).map_err(ill_typed)?;
        if actual != ty {
            return Err(ill_typed(format!(
                "term has type `{actual}`, not the stated `{ty}`"
            )));
        }
        let (compiled, stated) = {
            let mut types = self.types.borrow_mut();
            (
                bc_lambda_b::bterm::compile(&term, &mut types),
                types.intern(&ty),
            )
        };
        Ok(self.lower(&compiled, stated, Origin::Term(compiled.clone())))
    }

    /// Lowers a well-typed compiled λB term into a session-bound
    /// program: λB straight to the λS code block on interned ids
    /// ([`term_b_to_s_compiled`]). Each cast becomes its canonical
    /// space coercion, built in one pass in the session's coercion
    /// arena — so a warm recompile interns nothing and builds no tree
    /// of any kind.
    fn lower(&self, term: &BTerm, ty: TypeId, origin: Origin) -> Program {
        let mut arena = self.arena.borrow_mut();
        let mut types = self.types.borrow_mut();
        let lambda_s_compiled = term_b_to_s_compiled(term, &mut types, &mut arena);
        // Cast insertion and the translation preserve typing; audit the
        // λS form with the tree checker on debug builds.
        debug_assert!(
            bc_core::type_of(&lambda_s_compiled.decode(&arena, &types)) == Ok(types.resolve(ty)),
            "λB → λS lowering must preserve the program type"
        );
        self.programs.set(self.programs.get() + 1);
        Program {
            origin,
            lambda_s_compiled,
            ty: types.resolve(ty),
            session: self.id,
        }
    }

    /// The tree-form λB term of a program (cast insertion's output),
    /// decompiled from the compiled IR through this session's type
    /// arena. Each call builds the tree afresh and counts one
    /// [`SessionStats::tree_builds`]; the handle keeps no tree.
    ///
    /// # Panics
    ///
    /// Panics if `program` was compiled by a different session.
    pub fn lambda_b(&self, program: &Program) -> bc_lambda_b::Term {
        self.check_owner(program);
        self.tree_builds.set(self.tree_builds.get() + 1);
        self.decompile_b(program)
    }

    fn decompile_b(&self, program: &Program) -> bc_lambda_b::Term {
        bc_lambda_b::bterm::decompile(&self.lambda_b_compiled(program), &self.types.borrow())
    }

    /// The compiled λB term of a program: cast insertion's output with
    /// every type annotation an interned id, valid only in this
    /// session's type arena.
    ///
    /// A program compiled from source is re-elaborated here, against
    /// this session's type arena, where every type it needs is already
    /// interned: the result is the term the compile produced, ids and
    /// labels included. Loaded programs return their term. The λB and
    /// λC engines reach their term through this call, so each of their
    /// runs on a source-compiled program pays one warm elaboration.
    ///
    /// This replaces `Program::lambda_b_compiled()`: a handle compiled
    /// from source no longer holds the term, so the accessor moved to
    /// the session that can rebuild it. Migrate
    /// `program.lambda_b_compiled().clone()` to
    /// `session.lambda_b_compiled(&program)`.
    ///
    /// # Panics
    ///
    /// Panics if `program` was compiled by a different session. (The
    /// re-elaboration itself cannot fail: the same text elaborated
    /// against the same arena when the program was compiled.)
    pub fn lambda_b_compiled(&self, program: &Program) -> BTerm {
        self.check_owner(program);
        match &program.origin {
            Origin::Source { text, .. } => {
                bc_gtlc::compile_compiled(text, &mut self.types.borrow_mut())
                    .expect("a program's own source elaborates again")
                    .term
            }
            Origin::Term(term) => term.clone(),
        }
    }

    /// The tree-form λC term of a program (`|·|BC` of its λB tree),
    /// built on demand and counted as one tree build.
    ///
    /// # Panics
    ///
    /// Panics if `program` was compiled by a different session.
    pub fn lambda_c(&self, program: &Program) -> bc_lambda_c::Term {
        self.check_owner(program);
        self.tree_builds.set(self.tree_builds.get() + 1);
        term_b_to_c(&self.decompile_b(program))
    }

    /// The tree-form λS term of a program, decompiled from its code
    /// block through this session's arenas on demand and counted as
    /// one tree build.
    ///
    /// # Panics
    ///
    /// Panics if `program` was compiled by a different session.
    pub fn lambda_s(&self, program: &Program) -> bc_core::Term {
        self.check_owner(program);
        self.tree_builds.set(self.tree_builds.get() + 1);
        program
            .lambda_s_compiled
            .decode(&self.arena.borrow(), &self.types.borrow())
    }

    fn check_owner(&self, program: &Program) {
        assert_eq!(
            program.session, self.id,
            "program was compiled by a different Session: \
             its ids belong to another arena id-space"
        );
    }

    /// Runs a program on the chosen engine with the session's default
    /// fuel.
    ///
    /// # Errors
    ///
    /// [`RunError::FuelExhausted`] (with the real step count) when the
    /// bound is reached. A session's programs are well typed, so
    /// [`RunError::IllTyped`] does not arise: [`Session::load_lambda_b`]
    /// rejects a term that lies about its type up front, and a λS run
    /// never re-checks.
    ///
    /// # Panics
    ///
    /// Panics if `program` was compiled by a *different* session — its
    /// ids would silently denote the wrong coercions here, so the
    /// mismatch fails loudly instead.
    pub fn run(&self, program: &Program, engine: Engine) -> Result<RunReport, RunError> {
        self.run_with_fuel(program, engine, self.default_fuel)
    }

    /// [`Session::run`] with an explicit step bound.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    ///
    /// # Panics
    ///
    /// See [`Session::run`].
    pub fn run_with_fuel(
        &self,
        program: &Program,
        engine: Engine,
        fuel: u64,
    ) -> Result<RunReport, RunError> {
        // One engine dispatch: an unsliced run is a sliced run whose
        // single slice covers the whole fuel (which can never park).
        self.resume_slice(self.start_run(program, engine, fuel), fuel)
            .finished()
    }

    /// Begins a preemptible run: like [`Session::run_with_fuel`], but
    /// instead of running to completion it parks immediately, and the
    /// caller drives the engine in bounded fuel slices with
    /// [`Session::resume_slice`] — the primitive under the pool's
    /// timeslicing scheduler.
    ///
    /// Slicing is observationally invisible (property-tested in
    /// `tests/sched.rs`): the final report — observation, step count,
    /// space peaks, fuel-exhaustion accounting — is identical to the
    /// unsliced run, because every engine checks fuel before each step
    /// in both modes and the slice bound only chooses where control
    /// returns. Every engine parks for real, the tree small-steps
    /// ([`Engine::LambdaB`], [`Engine::LambdaC`]) included: a parked
    /// tree run is the current term.
    ///
    /// Starting cannot fail: no engine type checks here, since
    /// [`Session::load_lambda_b`] rejects a term that lies about its
    /// type up front and a λS run never re-checks. Errors surface from
    /// [`Session::resume_slice`].
    ///
    /// # Panics
    ///
    /// Panics if `program` was compiled by a different session.
    pub fn start_run(&self, program: &Program, engine: Engine, fuel: u64) -> PausedRun {
        self.check_owner(program);
        let started = Instant::now();
        let inner = match engine {
            Engine::MachineB => PausedInner::MachineB(cek::start(&self.lambda_b(program), fuel)),
            Engine::MachineC => PausedInner::MachineC(cek::start(&self.lambda_c(program), fuel)),
            Engine::MachineS => PausedInner::MachineS(bc_machine::cek_s::start_compiled_in(
                &program.lambda_s_compiled,
                &self.arena.borrow(),
                &self.cache.borrow(),
                fuel,
            )),
            Engine::LambdaS => PausedInner::LambdaS(bc_core::eval::start_compiled(
                &program.lambda_s_compiled,
                fuel,
                &self.arena.borrow(),
            )),
            Engine::LambdaB => PausedInner::LambdaB(Box::new(reduce::start(
                &self.lambda_b(program),
                program.ty.clone(),
                fuel,
            ))),
            Engine::LambdaC => PausedInner::LambdaC(Box::new(reduce::start(
                &self.lambda_c(program),
                program.ty.clone(),
                fuel,
            ))),
        };
        PausedRun {
            inner,
            session: self.id,
            // A start's own work is part of the run: re-elaborating the
            // program for the λB/λC engines, and the one walk that
            // counts binder occurrences and measures the program for the
            // λS small-step. The λS machine starts with nothing to do.
            active: started.elapsed(),
        }
    }

    /// Runs a parked run for at most `slice` further steps against
    /// this session's arenas; fuel is checked before the slice budget,
    /// so a slice covering the remaining fuel finishes the run.
    ///
    /// # Panics
    ///
    /// Panics if `paused` was started by a different session (its ids
    /// would denote the wrong coercions here).
    pub fn resume_slice(&self, paused: PausedRun, slice: u64) -> SliceOutcome {
        assert_eq!(
            paused.session, self.id,
            "parked run belongs to a different Session"
        );
        let session = paused.session;
        let active = paused.active;
        let slice_started = Instant::now();
        // Both exits tally this slice's wall-clock onto the run's
        // accumulated active time: a park carries it forward, a finish
        // stamps it on the report.
        let elapsed = || active + slice_started.elapsed();
        let parked = |inner| {
            SliceOutcome::Parked(PausedRun {
                inner,
                session,
                active: elapsed(),
            })
        };
        match paused.inner {
            PausedInner::MachineB(p) => match cek::resume(p, slice) {
                Slice::Done(r) => SliceOutcome::Done(machine_report(r, elapsed())),
                Slice::Parked(p) => parked(PausedInner::MachineB(p)),
            },
            PausedInner::MachineC(p) => match cek::resume(p, slice) {
                Slice::Done(r) => SliceOutcome::Done(machine_report(r, elapsed())),
                Slice::Parked(p) => parked(PausedInner::MachineC(p)),
            },
            PausedInner::MachineS(p) => {
                let mut arena = self.arena.borrow_mut();
                let mut cache = self.cache.borrow_mut();
                match bc_machine::cek_s::resume_compiled_in(p, &mut arena, &mut cache, slice) {
                    Slice::Done(r) => SliceOutcome::Done(machine_report(r, elapsed())),
                    Slice::Parked(p) => parked(PausedInner::MachineS(p)),
                }
            }
            PausedInner::LambdaS(p) => {
                let mut arena = self.arena.borrow_mut();
                let mut cache = self.cache.borrow_mut();
                let types = self.types.borrow();
                match bc_core::eval::resume_compiled(p, slice, &mut arena, &mut cache, &types) {
                    Slice::Done(r) => {
                        SliceOutcome::Done(small_step_report::<LambdaS>(r, elapsed()))
                    }
                    Slice::Parked(p) => parked(PausedInner::LambdaS(p)),
                }
            }
            PausedInner::LambdaB(p) => match reduce::resume(*p, slice) {
                Slice::Done(r) => SliceOutcome::Done(small_step_report::<LambdaB>(r, elapsed())),
                Slice::Parked(p) => parked(PausedInner::LambdaB(Box::new(p))),
            },
            PausedInner::LambdaC(p) => match reduce::resume(*p, slice) {
                Slice::Done(r) => SliceOutcome::Done(small_step_report::<LambdaC>(r, elapsed())),
                Slice::Parked(p) => parked(PausedInner::LambdaC(Box::new(p))),
            },
        }
    }

    /// A consolidated snapshot of the session's shared state.
    pub fn stats(&self) -> SessionStats {
        let arena = self.arena.borrow();
        let cache = self.cache.borrow();
        let types = self.types.borrow();
        SessionStats {
            programs: self.programs.get(),
            coercions: arena.stats(),
            compose_pairs: cache.len(),
            compose_capacity: cache.capacity(),
            compose: cache.stats(),
            type_nodes: types.len(),
            type_memo_pairs: types.memo_len(),
            type_memo_capacity: types.memo_capacity(),
            type_queries: types.query_stats(),
            tree_builds: self.tree_builds.get(),
            tier: TierStats {
                base_coercion_nodes: arena.base_len(),
                local_coercion_nodes: arena.local_len(),
                base_type_nodes: types.base_len(),
                local_type_nodes: types.local_len(),
                type_base_hits: types.base_node_hits(),
            },
        }
    }

    /// Freezes the session's current arenas, memo tables, and
    /// composition pairs into an immutable [`FrozenBase`] snapshot
    /// that any number of sessions — on any number of threads — can
    /// be built over via [`SessionBuilder::base`]. The freezing
    /// session keeps working unchanged.
    ///
    /// A session without a base freezes into a fresh slab. A session
    /// built over a base freezes by **appending** its overlay to the
    /// base's shared slab — O(overlay) work, flat in base size — and
    /// the result [`FrozenBase::extends`] the base by construction.
    pub fn freeze(&self) -> Arc<FrozenBase> {
        Arc::new(FrozenBase {
            types: Arc::new(self.types.borrow().freeze()),
            coercions: Arc::new(self.arena.borrow().freeze(&self.cache.borrow())),
        })
    }

    /// Renders a program's compiled λS IR in the paper grammar,
    /// resolved through this session's arenas.
    ///
    /// # Panics
    ///
    /// Panics if `program` was compiled by a different session.
    pub fn display_compiled(&self, program: &Program) -> String {
        assert_eq!(
            program.session, self.id,
            "program was compiled by a different Session"
        );
        program
            .lambda_s_compiled
            .display(&self.arena.borrow(), &self.types.borrow())
    }
}

/// A run preempted at a slice boundary, created by
/// [`Session::start_run`] and driven by [`Session::resume_slice`].
///
/// The parked state references ids interned in the session that
/// started it, and machine values are `Rc`-shared, so a parked run is
/// worker-local by design — **not** `Send` — and must be resumed by
/// the same session (asserted). The pool's scheduler therefore parks
/// runs in per-worker run queues rather than migrating them.
pub struct PausedRun {
    inner: PausedInner,
    session: u64,
    /// Wall-clock time spent inside completed slices — what the final
    /// report's [`RunReport::elapsed`] accumulates (parked time is
    /// excluded: it is the scheduler's, not the run's).
    active: Duration,
}

impl PausedRun {
    /// Steps taken so far across all slices — what a deadline miss
    /// reports without waiting for the run to finish.
    pub fn steps(&self) -> u64 {
        match &self.inner {
            PausedInner::MachineB(p) => p.steps(),
            PausedInner::MachineC(p) => p.steps(),
            PausedInner::MachineS(p) => p.steps(),
            PausedInner::LambdaS(p) => p.steps(),
            PausedInner::LambdaB(p) => p.steps(),
            PausedInner::LambdaC(p) => p.steps(),
        }
    }
}

// Both λS engines park the one λS run loop's state (`bc_core::exec::
// Paused`), under their own counting policies.
enum PausedInner {
    MachineB(cek::Paused<Cast>),
    MachineC(cek::Paused<Coercion>),
    MachineS(bc_machine::cek_s::Paused),
    LambdaS(bc_core::eval::PausedC),
    // The tree small-steps' states are boxed so they don't widen every
    // parked run.
    LambdaB(Box<reduce::Paused<LambdaB>>),
    LambdaC(Box<reduce::Paused<LambdaC>>),
}

// A parked run is moved through the pool's run queues: keep it no wider
// than it is.
const _: () = assert!(std::mem::size_of::<PausedRun>() <= 264);

/// What one [`Session::resume_slice`] call produced: the exact report
/// an unsliced [`Session::run_with_fuel`] would have produced, or the
/// run parked because the slice budget ran out first.
pub type SliceOutcome = Slice<PausedRun, Result<RunReport, RunError>>;

/// Maps a machine run to the session-level result: fuel exhaustion is
/// surfaced as [`RunError::FuelExhausted`] carrying the transition
/// count the machine actually took.
fn machine_report(
    r: bc_machine::metrics::MachineRun,
    elapsed: Duration,
) -> Result<RunReport, RunError> {
    match r.outcome {
        bc_machine::MachineOutcome::Timeout => Err(RunError::FuelExhausted {
            steps: r.metrics.steps,
            metrics: Some(r.metrics),
        }),
        outcome => Ok(RunReport {
            observation: outcome.to_observation(),
            steps: r.metrics.steps,
            metrics: Some(r.metrics),
            elapsed,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP_32: &str = "letrec loop (n : Int) : Bool = \
         if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
       in loop 32";

    #[test]
    fn all_engines_agree_on_a_program() {
        let session = Session::new();
        let program = session
            .compile(
                "letrec even (n : Int) : Bool = \
                   if n = 0 then true else \
                   if n = 1 then false else even (n - 2) \
                 in even 10",
            )
            .expect("compiles");
        let expected = session
            .run(&program, Engine::LambdaB)
            .expect("runs")
            .observation;
        for engine in Engine::ALL {
            assert_eq!(
                session.run(&program, engine).expect("runs").observation,
                expected,
                "{engine}"
            );
        }
    }

    #[test]
    fn programs_in_one_session_share_interned_state() {
        // Shared interning: a second structurally
        // similar program (same types and casts, different constants)
        // interns nothing new in a warm session.
        let source = |n: i64| {
            format!(
                "letrec loop (n : Int) : Bool = \
                   if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
                 in loop {n}"
            )
        };
        let warm = Session::new();
        let first = warm.compile(&source(17)).expect("compiles");
        let after_first = warm.stats();
        assert!(after_first.coercions.nodes > 0);
        assert!(after_first.type_nodes > 0);

        let second = warm.compile(&source(23)).expect("compiles");
        let after_second = warm.stats();
        assert_eq!(
            after_second.coercions.nodes, after_first.coercions.nodes,
            "second similar program must intern zero new coercions"
        );
        assert_eq!(
            after_second.type_nodes, after_first.type_nodes,
            "second similar program must intern zero new types"
        );
        assert_eq!(after_second.programs, 2);

        // Contrast: a fresh session pays the interning again.
        let cold = Session::new();
        cold.compile(&source(23)).expect("compiles");
        assert_eq!(cold.stats().coercions.nodes, after_first.coercions.nodes);

        // And both programs still run correctly against the shared
        // arenas.
        let a = warm.run(&first, Engine::MachineS).expect("runs");
        let b = warm.run(&second, Engine::MachineS).expect("runs");
        assert_eq!(a.observation, b.observation);
    }

    #[test]
    fn batch_compilation_shares_the_caches() {
        let session = Session::builder().default_fuel(10_000_000).build();
        let sources: Vec<String> = (1..=8)
            .map(|n| {
                format!(
                    "letrec loop (n : Int) : Bool = \
                       if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
                     in loop {n}"
                )
            })
            .collect();
        let programs: Vec<Program> = sources
            .iter()
            .map(|s| session.compile(s).expect("compiles"))
            .collect();
        assert_eq!(programs.len(), 8);
        for p in &programs {
            let report = session.run(p, Engine::MachineS).expect("runs");
            assert_eq!(report.observation.to_string(), "true");
        }
        // Warm rerun of the whole batch composes nothing structurally.
        let misses = session.stats().compose.misses;
        for p in &programs {
            session.run(p, Engine::MachineS).expect("runs");
        }
        let stats = session.stats();
        assert_eq!(
            stats.compose.misses, misses,
            "warm batch rerun must be pure cache hits"
        );
        assert!(stats.compose.hits > 0);
    }

    #[test]
    fn fuel_exhaustion_is_a_typed_error_with_the_real_step_count() {
        let session = Session::new();
        let program = session.compile(LOOP_32).expect("compiles");
        for engine in Engine::ALL {
            match session.run_with_fuel(&program, engine, 7) {
                Err(RunError::FuelExhausted { steps, metrics }) => {
                    assert_eq!(steps, 7, "{engine} must report the real step count");
                    let is_machine = matches!(
                        engine,
                        Engine::MachineB | Engine::MachineC | Engine::MachineS
                    );
                    assert_eq!(
                        metrics.is_some(),
                        is_machine,
                        "{engine}: machine engines carry their space metrics to the cutoff"
                    );
                }
                other => panic!("{engine}: expected FuelExhausted, got {other:?}"),
            }
        }
    }

    #[test]
    fn loading_an_ill_typed_lambda_b_term_is_a_typed_error() {
        use bc_lambda_b::Term;
        let session = Session::new();
        let p = Label::new(97);
        // Each shape trips a different rule of the checker, and the
        // error carries the tree checker's message.
        let bad = [
            // Applying a non-function.
            Term::int(1).app(Term::int(2)),
            // Operator argument of the wrong base type.
            Term::op2(bc_syntax::Op::Add, Term::bool(true), Term::int(1)),
            // Non-boolean condition.
            Term::ite(Term::int(0), Term::int(1), Term::int(2)),
            // Cast whose source disagrees with the subject.
            Term::int(1).cast(Type::fun(Type::INT, Type::BOOL), p, Type::DYN),
            // Cast between incompatible types.
            Term::int(1).cast(Type::INT, p, Type::BOOL),
            // Unbound variable under a binder.
            Term::let_("x", Term::int(1), Term::var("nowhere")),
        ];
        for term in bad {
            let expected = bc_lambda_b::type_of(&term)
                .expect_err("ill typed by construction")
                .to_string();
            match session.load_lambda_b(term, Type::INT) {
                Err(RunError::IllTyped(d)) => assert_eq!(d.message, expected),
                other => panic!("expected IllTyped, got {other:?}"),
            }
        }
        // A well-typed term with a wrong stated type is rejected too.
        match session.load_lambda_b(Term::int(1), Type::BOOL) {
            Err(RunError::IllTyped(d)) => {
                assert_eq!(d.message, "term has type `Int`, not the stated `Bool`")
            }
            other => panic!("expected IllTyped, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "different Session")]
    fn running_a_foreign_program_fails_loudly() {
        let a = Session::new();
        let b = Session::new();
        let program = a.compile("1 + 2").expect("compiles");
        let _ = b.run(&program, Engine::MachineS);
    }

    #[test]
    fn builder_knobs_reach_the_arenas() {
        let session = Session::builder()
            .compose_cache_capacity(8)
            .type_memo_capacity(16)
            .default_fuel(123)
            .build();
        assert_eq!(session.default_fuel(), 123);
        let stats = session.stats();
        assert_eq!(stats.compose_capacity, 8);
        assert_eq!(stats.type_memo_capacity, 16);
        // A tiny compose cache under a boundary-heavy program evicts
        // but stays correct.
        let program = session.compile(LOOP_32).expect("compiles");
        let report = session
            .run_with_fuel(&program, Engine::MachineS, 1_000_000)
            .expect("runs");
        assert_eq!(report.observation.to_string(), "true");
        assert!(session.stats().compose_pairs <= 8);
    }

    #[test]
    fn blame_is_explained_at_source_level() {
        let session = Session::new();
        let program = session
            .compile("let f = fun x => x + 1 in f true")
            .expect("compiles");
        match session
            .run(&program, Engine::MachineS)
            .expect("runs")
            .observation
        {
            Observation::Blame(p) => {
                let msg = program.explain_blame(p).expect("label is mapped");
                assert!(msg.contains("error"), "{msg}");
            }
            other => panic!("expected blame, got {other}"),
        }
    }

    #[test]
    fn display_and_ir_stats_are_available() {
        let session = Session::new();
        let program = session.compile(LOOP_32).expect("compiles");
        assert!(program.lambda_s_compiled().size() > 0);
        assert!(program.lambda_s_compiled().coercion_nodes() > 0);
        assert!(!session.display_compiled(&program).is_empty());
    }

    #[test]
    fn machine_s_boundary_crossings_never_reintern() {
        // A MachineS run of a compiled program performs zero tree
        // interning — boundary crossings are id loads — on the first
        // run and every run after.
        let session = Session::builder().default_fuel(10_000_000).build();
        let program = session
            .compile(
                "letrec loop (n : Int) : Bool = \
                   if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
                 in loop 512",
            )
            .expect("compiles");
        for round in 0..3 {
            let report = session.run(&program, Engine::MachineS).expect("runs");
            let reuse = report.metrics.expect("machines report metrics").reuse;
            assert_eq!(
                reuse.tree_interns, 0,
                "round {round} re-interned a coercion tree"
            );
            if round > 0 {
                assert_eq!(reuse.node_misses, 0, "round {round}");
                assert_eq!(reuse.compose_misses, 0, "round {round}");
                assert!(reuse.compose_hits > 0, "round {round}");
            }
        }
    }

    #[test]
    fn lambda_s_is_decompiled_lazily() {
        // The hot compile path allocates no λS tree; the tree form is
        // decompiled from the code block on demand, one counted build
        // per access.
        let session = Session::new();
        let program = session.compile(LOOP_32).expect("compiles");
        assert_eq!(
            session.stats().tree_builds,
            0,
            "compile must not build the λS tree"
        );
        let tree = session.lambda_s(&program);
        assert_eq!(session.stats().tree_builds, 1);
        // The decompiled tree is exactly the tree-level λC → λS
        // translation.
        assert_eq!(tree, bc_translate::term_c_to_s(&session.lambda_c(&program)));
        assert_eq!(session.stats().tree_builds, 2);
        // The λS small-step engine runs the compiled IR directly and
        // builds no tree either.
        let fresh = session.compile(LOOP_32).expect("compiles");
        let report = session.run(&fresh, Engine::LambdaS).expect("runs");
        assert_eq!(report.observation.to_string(), "true");
        assert_eq!(session.stats().tree_builds, 2);
    }

    #[test]
    fn program_handles_stay_small() {
        // The handle keeps the λS code block plus the source text and
        // span map (the λB term only for loaded programs), and nothing
        // lazily cached.
        assert!(
            std::mem::size_of::<Program>() <= 128,
            "Program grew to {} bytes",
            std::mem::size_of::<Program>()
        );
    }

    #[test]
    fn frozen_base_sessions_share_the_warm_working_set() {
        // The tiered-interning tentpole at the session level: freeze
        // a warm session, build a fresh session over the base, and
        // compile a structurally similar program — zero local
        // interning, everything answered by the frozen tier.
        let warm = Session::builder().default_fuel(10_000_000).build();
        let p = warm.compile(LOOP_32).expect("compiles");
        warm.run(&p, Engine::MachineS).expect("runs");
        let base = warm.freeze();
        assert!(base.coercion_nodes() > 0);
        assert!(base.type_nodes() > 0);
        assert!(base.compose_pairs() > 0);

        let worker = Session::builder()
            .default_fuel(10_000_000)
            .base(Arc::clone(&base))
            .build();
        let q = worker
            .compile(
                "letrec loop (n : Int) : Bool = \
                   if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
                 in loop 48",
            )
            .expect("compiles");
        let report = worker.run(&q, Engine::MachineS).expect("runs");
        assert_eq!(report.observation.to_string(), "true");
        let stats = worker.stats();
        let tier = stats.tier;
        assert_eq!(tier.base_coercion_nodes, base.coercion_nodes());
        assert_eq!(
            tier.local_coercion_nodes, 0,
            "warm-shaped program must intern zero coercions locally: {tier:?}"
        );
        assert_eq!(
            tier.local_type_nodes, 0,
            "warm-shaped program must intern zero types locally: {tier:?}"
        );
        assert!(stats.coercions.base_hits > 0);
        assert!(tier.type_base_hits > 0);
        assert!(stats.compose.base_hits > 0, "{stats:?}");
        // This workload answers its relational questions entirely
        // from the O(1) fast paths (reflexivity and the ?-absorbing
        // rules), so there may be nothing to freeze; when there is,
        // the worker must hit it.
        if base.verdicts() > 0 {
            assert!(stats.type_queries.base_hits > 0, "{stats:?}");
        }
    }

    #[test]
    fn warm_session_front_end_interns_nothing_new() {
        // The compile-time guarantee: typechecking and
        // elaborating a structurally similar program against a warm
        // session interns zero new type nodes *at compile time* (no
        // run needed — the front end itself is interned).
        let source = |n: i64| {
            format!(
                "let twice = fun (f : ? -> ?) => fun (x : ?) => f (f x) in \
                 let inc = fun x => x + {n} in \
                 (twice (inc : ? -> ?) {n} : Int)"
            )
        };
        let session = Session::new();
        session.compile(&source(1)).expect("compiles");
        let warm = session.stats();
        assert!(warm.type_nodes > 0);
        session.compile(&source(2)).expect("compiles");
        let after = session.stats();
        assert_eq!(
            after.type_nodes, warm.type_nodes,
            "warm recompile must intern zero new type nodes"
        );
        assert_eq!(
            after.coercions.nodes, warm.coercions.nodes,
            "warm recompile must intern zero new coercion nodes"
        );
        // And the warm front end answers its relational questions from
        // the memo tables: no new verdicts are computed either.
        assert_eq!(
            after.type_queries.misses, warm.type_queries.misses,
            "warm recompile must not compute a single new verdict"
        );
        assert!(after.type_queries.hits > warm.type_queries.hits);
    }
}

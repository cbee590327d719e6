//! **blame-coercion** — a complete Rust implementation of Siek,
//! Thiemann, and Wadler, *Blame and Coercion: Together Again for the
//! First Time* (PLDI 2015).
//!
//! The workspace implements the paper's three calculi and everything
//! around them:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`syntax`] | types, ground types, blame labels, operators, the four subtyping relations (Fig. 2), pointed types and meets; the hash-consing `TypeArena` — interned `TypeId` handles with O(1) equality and memoized compatibility/subtyping |
//! | [`lambda_b`] | the blame calculus λB (Fig. 1): typing, reduction, blame safety, the embedding `⌈·⌉` |
//! | [`lambda_c`] | the coercion calculus λC (Fig. 3) |
//! | [`core`] | **λS**, the space-efficient coercion calculus (Fig. 5): the composition operator `s # t`, the hash-consing [`core::arena`] — interned `CoercionId` handles with O(1) equality and a memoizing, second-chance-evicting `ComposeCache` — and the compiled term IR [`core::sterm`] whose `Coerce` nodes are `Copy` ids |
//! | [`translate`] | the translations `\|·\|BC`, `\|·\|CB`, `\|·\|CS` (Figs. 4, 6) — with arena-threading `*_in` variants — executable bisimulations, the Fundamental Property of Casts |
//! | [`gtlc`] | a gradually-typed surface language: parser, gradual type checker, cast insertion — with an interned path (`compile_compiled`: `parse_in` + `elaborate_compiled`) that interns annotations as it parses and infers, checks consistency, and joins on `TypeId`s against a shared `TypeArena`, emitting the compiled λB IR |
//! | [`machine`] | CEK machines for all three calculi; the λS machine executes the compiled IR — frames hold interned coercions, merges go through the compose cache, and boundary crossings intern nothing (reported per run by `Metrics::reuse`) — running boundary-crossing tail calls in constant space |
//! | [`baselines`] | Siek–Wadler 2010 threesomes and Garcia 2013 supercoercions |
//!
//! An auxiliary crate rounds out the workspace: `bc-testkit` (seeded
//! generators of well-typed workloads). The repository benchmark lives
//! in its own package, `perfbench/`.
//!
//! The [`session`] module ties them together: a [`Session`] owns the
//! coercion arena, compose cache, and type arena, and compiles source
//! text (source → λB → λS code block) into lightweight
//! [`Program`] handles that *share* them — N programs compiled into
//! one session intern each distinct coercion, memoize each
//! composition, and answer each subtyping question exactly once
//! between them. Any of six execution engines runs a program;
//! the run path returns `Result<RunReport, RunError>`, so fuel
//! exhaustion and ill-typedness are typed errors, never panics or
//! sentinel observations.
//!
//! # Quickstart
//!
//! ```
//! use blame_coercion::{Engine, Session};
//!
//! let session = Session::new();
//! let program = session.compile(
//!     "let inc = fun x => x + 1 in  -- `x` is dynamically typed
//!      (inc 41 : Int)",
//! ).expect("type checks gradually");
//!
//! let report = session.run(&program, Engine::MachineS).expect("terminates");
//! assert_eq!(report.observation.to_string(), "42");
//!
//! // A second, structurally similar program compiled into the same
//! // session interns (near) nothing new — the point of sharing.
//! let nodes_before = session.stats().coercions.nodes;
//! let again = session.compile("let inc = fun x => x + 1 in (inc 1 : Int)")
//!     .expect("type checks gradually");
//! assert_eq!(session.stats().coercions.nodes, nodes_before);
//! assert_eq!(session.run(&again, Engine::MachineS).unwrap().observation.to_string(), "2");
//! ```
//!
//! Sessions are configurable via [`Session::builder`] (compose-cache
//! capacity, type-verdict-table capacity, default fuel), and
//! [`Session::stats`] returns one consolidated [`SessionStats`]
//! snapshot. (The pre-session `Compiled` shim is gone — its one
//! deprecation release has passed; the migration recipe lives in
//! CHANGES.md. `Program::lambda_b_compiled()` moved to
//! [`Session::lambda_b_compiled`], since a handle compiled from source
//! keeps its text rather than its λB term.)
//!
//! Once warm, the pipeline builds **no tree and interns nothing**: the
//! parser interns annotations as it reads them, elaboration and both
//! lowerings run on interned ids, and a [`Program`] handle keeps only
//! the flat λS code block plus its source text — the term *trees* are
//! built on demand, and only if something asks for one
//! ([`SessionStats::tree_builds`]). The [`pool`] module scales this
//! across threads: a [`SessionPool`] freezes a warm session into a
//! shared base, jobs carry only source text, and each worker compiles
//! a job against its own overlay over that base — for warmed shapes,
//! pure memo hits — caching the program per source, so a repeated
//! source compiles once per worker. A [`Program`] never leaves the
//! session that compiled it. The [`sched`] module makes the serving
//! preemptive: every machine is resumable, so workers run jobs in
//! deterministic step-counted slices (4 096 steps each) with
//! round-robin fairness, wall-clock [`Deadline`]s, cooperative
//! cancellation, and bounded-queue backpressure — a divergent job
//! costs its neighbours one slice of latency, never a whole worker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bc_baselines as baselines;
pub use bc_core as core;
pub use bc_gtlc as gtlc;
pub use bc_lambda_b as lambda_b;
pub use bc_lambda_c as lambda_c;
pub use bc_machine as machine;
pub use bc_syntax as syntax;
pub use bc_translate as translate;

mod obs;
pub mod pool;
pub mod sched;
pub mod session;

pub use bc_obs::{
    shape_key, AuditOutcome, AuditRecord, BlameAnalytics, BlameReport, Counter, Gauge, Histogram,
    HistogramSnapshot, Registry,
};
pub use pool::{
    JobError, JobHandle, JobOutput, PoolStats, PromotionPolicy, SessionPool, SessionPoolBuilder,
    WorkerStats,
};
pub use sched::Deadline;
pub use session::{
    Engine, FrozenBase, PausedRun, Program, RunError, RunReport, Session, SessionBuilder,
    SessionStats, SliceOutcome, TierStats,
};

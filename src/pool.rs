//! Parallel serving: a multi-threaded [`SessionPool`] over an
//! epoch-managed [`FrozenBase`].
//!
//! Everything below the session layer is deliberately
//! single-threaded — `Rc` trees, `RefCell` arenas, `&mut` caches —
//! because one request's hot path must not pay for synchronisation it
//! does not need. This module is where the parallelism lives instead:
//! a [`SessionPool`] serves compile+run requests across N OS threads
//! by combining
//!
//! * the **frozen base tier** ([`Session::freeze`] →
//!   `Arc<FrozenBase>`): an immutable snapshot of a warm session's
//!   arenas — every type node, coercion node, relational verdict, and
//!   composition pair the warmup traffic touched — shared read-only
//!   by all workers (it is `Send + Sync`; nothing in it ever mutates);
//! * **per-worker overlay sessions** ([`SessionBuilder::base`]): each
//!   worker thread owns a private, completely unsynchronised
//!   [`Session`] layered over the base. Lookups consult the base
//!   first; only genuinely new nodes are interned locally, with ids
//!   offset past the base;
//! * **live base promotion** ([`PromotionPolicy`]): when traffic
//!   *drifts* past what the warmup predicted, the base does not stay
//!   stale forever — a worker's overlay is re-frozen (freezing
//!   appends the overlay to the base's slab, preserving every base id
//!   verbatim) and
//!   published as a new **epoch** that every worker adopts at its next
//!   job boundary.
//!
//! # The epoch lifecycle
//!
//! A pool's base moves through five phases:
//!
//! 1. **warmup** — [`SessionPoolBuilder::warmup`] compiles (and
//!    briefly runs) representative sources into one session, then
//!    freezes it: epoch 1.
//! 2. **serve** — workers run private overlay sessions over the
//!    current epoch's base. Traffic the base covers interns nothing;
//!    drifted traffic interns into per-worker overlays, duplicated
//!    once per worker that meets it.
//! 3. **promote** — each worker, at a job boundary with an empty run
//!    queue, checks its own overlay against the pool's
//!    [`PromotionPolicy`] (overlay size, base-miss rate, a pool-wide
//!    job interval). The decision reads only the worker's own session,
//!    so a busy or idle sibling never holds it back. The first worker
//!    to pass re-freezes its session — base ids are preserved
//!    verbatim, so the new snapshot [`FrozenBase::extends`] the old
//!    one and every id below the old watermarks stays valid.
//! 4. **hot-swap** — the new epoch is published through an
//!    `ArcSwap`-shaped cell (`EpochBase`): an atomic epoch counter
//!    over a mutex-guarded `Arc<FrozenBase>`. Readers pay one atomic
//!    load per job; only an actual epoch change takes the lock (for
//!    one `Arc` clone — never a torn base). Publication never pauses
//!    job intake: [`SessionPool::submit`] touches only its target
//!    queue.
//! 5. **drain** — every other worker picks the new epoch up at its next
//!    job claim made with an empty run queue, rebuilding its overlay
//!    over the fatter base. The promoter's nodes are base nodes now;
//!    what another worker had interned only in its own overlay goes
//!    with that overlay and is interned again if traffic still needs
//!    it (its counts stay in the worker's cells). The old epoch's
//!    `Arc` drops reference by reference and frees itself; nothing
//!    blocks on it.
//!
//! # Work-stealing queues
//!
//! Jobs are dispatched round-robin to **per-worker deques**; an idle
//! worker first drains its own queue, then steals from the back of
//! the longest sibling queue. Only an idle worker steals: one with
//! parked runs takes new intake from its own queue alone, so the jobs
//! it cannot start at once stay where an idle sibling can steal them.
//! There is no global queue lock on the per-job hot path — the deque
//! mutexes are held for a push or a pop, and contention only appears
//! when a thief and its victim touch the same deque. [`PoolStats`]
//! reports `steals` and live [`queue depths`](SessionPool::queue_depths)
//! (the backpressure signal for load-shedding callers).
//!
//! # Timeslicing, deadlines, cancellation
//!
//! Workers serve **preemptively**: a job runs for a slice of 4 096
//! machine steps, then parks its machine state
//! (`Session::resume_slice`) into its worker's run queue behind the
//! worker's other in-flight jobs —
//! round-robin, so a divergent spinner costs its queue-mates one
//! slice of latency per turn instead of its whole fuel bound. Slices
//! are counted in steps, not wall-clock, so slicing is deterministic
//! and observationally invisible: sliced and unsliced runs produce
//! identical observations, step counts, fuel-exhaustion accounting,
//! and space metrics (property-tested in `tests/sched.rs`). Parked
//! state is worker-local by design — machine values, environments and
//! the program's code block are `Rc`-shared, and the arena ids they
//! hold belong to the worker's session — so a parked job resumes on
//! the worker that started it; only its *result* travels.
//!
//! On top of the slice boundaries the front end gets three controls:
//!
//! * **deadlines** — [`SessionPool::submit_with_deadline`] bounds a
//!   job in wall-clock time, enforced cooperatively before each slice
//!   ([`JobError::DeadlineExceeded`] reports the steps and time
//!   actually spent);
//! * **cancellation** — [`JobHandle::cancel`] resolves the handle to
//!   [`JobError::Canceled`] immediately; the serving worker discards
//!   its side at the next queue pop or slice boundary;
//! * **bounded queues** — [`SessionPoolBuilder::queue_capacity`]
//!   bounds each worker's standing work (queued + parked + running);
//!   submissions past the bound resolve to [`JobError::Rejected`]
//!   instead of queueing without bound.
//!
//! # Id-offset contract
//!
//! Ids below the base lengths ([`FrozenBase::coercion_nodes`],
//! [`FrozenBase::type_nodes`]) denote frozen nodes and mean the same
//! thing in every worker. Ids at or past them are worker-local:
//! two workers may mint the same numeric id for different nodes, so
//! local ids must never travel between workers — which the API
//! enforces by keeping [`Program`] handles inside the
//! worker that compiled them and returning only `Send` observations.
//! Promotion respects the contract by construction: an epoch N+1 base
//! is always an *extension* of epoch N (checked by
//! [`FrozenBase::extends`] in debug builds before every publish).
//!
//! # Source jobs
//!
//! A job carries only its source text. The serving worker compiles it
//! against its own overlay session, consulting a worker-local program
//! cache keyed by that text first, so a repeated source is lexed,
//! parsed, elaborated and lowered once per worker session. A
//! [`Program`] never leaves the session that compiled
//! it; only the job's `Send` result travels back.
//!
//! # Worker failure
//!
//! A panic while serving a job is caught in the worker loop, and the
//! worker restarts in place: the job resolves to
//! [`JobError::WorkerPanicked`], the session is retired (its counts
//! are already in the worker's cells, so accounting stays monotone),
//! the jobs parked in its run queue go back to its intake queue to
//! restart from step zero, and the worker rebuilds its session over
//! the **current** epoch. The thread itself never exits until
//! shutdown.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use blame_coercion::{Deadline, Engine, SessionPool};
//!
//! let pool = SessionPool::builder()
//!     .workers(2)
//!     .warmup(["let inc = fun x => x + 1 in (inc 41 : Int)"])
//!     .build()
//!     .expect("warmup compiles");
//! let handles = pool.submit_batch(
//!     (0..8).map(|n| format!("let inc = fun x => x + {n} in (inc 1 : Int)")),
//!     Engine::MachineS,
//! );
//! for handle in handles {
//!     handle.wait().expect("runs");
//! }
//! let stats = pool.shutdown(Deadline::after(Duration::from_secs(10)));
//! assert_eq!(stats.jobs(), 8);
//! // The warmup covered the workload's shapes: no worker interned
//! // a single coercion or type past the shared base, and the base
//! // never needed to move past its warmup epoch.
//! assert_eq!(stats.local_coercion_nodes(), 0);
//! assert_eq!(stats.local_type_nodes(), 0);
//! assert_eq!(stats.epoch, 1);
//! assert_eq!(stats.promotions, 0);
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bc_gtlc::Diagnostic;
use bc_machine::metrics::Metrics;
use bc_obs::{AuditOutcome, AuditRecord};
use bc_translate::bisim::Observation;

use crate::obs::{ns, PoolObs, SessionCounts, DEFAULT_AUDIT_CAPACITY};
use crate::sched::{Deadline, JobState, ReplySlot};
use crate::session::{
    Engine, FrozenBase, PausedRun, Program, RunError, RunReport, Session, SessionBuilder,
    SliceOutcome,
};

/// Locks a mutex, shrugging off poisoning: every structure the pool
/// guards this way (the queues and the epoch cell) is valid after any
/// panic — panics are caught at the serve boundary and the panicking
/// worker's session is retired wholesale.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What a completed pool job returns: the observation plus the run
/// accounting, all `Send` (no arena ids, no term trees).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// What the program evaluated to.
    pub observation: Observation,
    /// Steps taken (reduction steps or machine transitions).
    pub steps: u64,
    /// Machine space metrics (machine engines only).
    pub metrics: Option<Metrics>,
    /// Index of the worker that served the job (for observability;
    /// jobs are dispatched round-robin and stolen by idle workers, so
    /// the assignment is load-dependent).
    pub worker: usize,
    /// End-to-end wall-clock time from submission to resolution —
    /// queueing, any parked turns, and execution together. For the
    /// execution time alone see
    /// [`RunReport::elapsed`](crate::RunReport::elapsed); the gap
    /// between the two is scheduling (queue wait + time parked behind
    /// run-queue siblings).
    pub elapsed: Duration,
}

/// The fuel bound of each warmup run at pool build, in machine steps.
///
/// Warmup runs exist to seed the compose cache, and a space-efficient
/// loop reaches its steady-state coercion working set within its first
/// iterations — so the bound is small and *independent* of the pool's
/// job fuel: a divergent warmup source must not burn the job fuel at
/// build time. See [`PoolStats::warmup_peak_steps`].
pub const WARMUP_RUN_FUEL: u64 = 64;

/// Why a pool job produced no [`JobOutput`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The source failed to lex, parse, or gradually type check.
    Compile(Diagnostic),
    /// The program compiled but the run errored (fuel exhaustion or a
    /// loaded term's type lie) — same payload as [`Session::run`].
    Run(RunError),
    /// The worker serving this job panicked mid-serve. The panic was
    /// caught, the worker rebuilt its session over the current epoch,
    /// and the pool keeps serving — only this job is affected (jobs
    /// parked on the worker restart from step zero).
    WorkerPanicked,
    /// The job's [`Deadline`] passed before
    /// it finished. Enforced cooperatively at scheduling boundaries
    /// (queue pop, slice start), so the job reports the steps it
    /// actually executed and the wall-clock time since submission —
    /// both useful for choosing a better deadline or fuel bound.
    DeadlineExceeded {
        /// Machine steps the job had executed when the miss was
        /// detected (zero if the deadline passed while still queued).
        steps: u64,
        /// Wall-clock time from submission to detection.
        elapsed: Duration,
    },
    /// The submitter called [`JobHandle::cancel`], or dropped the
    /// [`SessionPool`], before the job finished. Queued and parked jobs
    /// are discarded at the next scheduling boundary; a running job
    /// stops at its next slice boundary — cancellation is cooperative,
    /// never mid-step.
    Canceled,
    /// The submission was refused up front: the target worker already
    /// holds [`SessionPoolBuilder::queue_capacity`] jobs in flight
    /// (queued, parked, or running). The job never entered a queue —
    /// shed load or retry later.
    Rejected {
        /// The target worker's in-flight job count at rejection time.
        queue_depth: usize,
    },
    /// The pool shut down (or a worker died) before answering; the
    /// job may or may not have executed.
    Lost,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Compile(d) => write!(f, "compile error: {}", d.message),
            JobError::Run(e) => write!(f, "run error: {e}"),
            JobError::WorkerPanicked => {
                f.write_str("worker panicked while serving the job (worker restarted)")
            }
            JobError::DeadlineExceeded { steps, elapsed } => write!(
                f,
                "deadline exceeded after {steps} steps ({:.1} ms elapsed)",
                elapsed.as_secs_f64() * 1e3
            ),
            JobError::Canceled => f.write_str("job canceled by its submitter"),
            JobError::Rejected { queue_depth } => write!(
                f,
                "job rejected: target worker already holds {queue_depth} jobs in flight"
            ),
            JobError::Lost => f.write_str("job lost: the pool shut down before answering"),
        }
    }
}

impl std::error::Error for JobError {}

/// A handle to a submitted job: wait (with or without a timeout),
/// poll, register a completion callback, or cancel.
///
/// The handle and the serving worker share one completion cell
/// (`sched::JobState`); every job resolves exactly once — a worker
/// reply, a deadline miss, a cancellation, a rejection, or the
/// lost-on-shutdown backstop — and every waiter sees that one
/// resolution.
#[derive(Debug)]
pub struct JobHandle {
    state: Arc<JobState>,
}

impl JobHandle {
    /// Blocks until the job completes, returning its output (or the
    /// typed error). Returns [`JobError::Lost`] if the pool shut down
    /// without answering.
    pub fn wait(self) -> Result<JobOutput, JobError> {
        self.state.wait()
    }

    /// Blocks for at most `timeout`: `Some` with the result if the
    /// job completed in time, `None` on timeout. Timing out does
    /// **not** lose or cancel the job — it stays in flight and a
    /// later [`JobHandle::wait`], [`JobHandle::wait_timeout`], or
    /// [`JobHandle::try_wait`] can still collect it. A `timeout` past
    /// the range an `Instant` can hold (e.g. `Duration::MAX`) waits
    /// until the job resolves.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobOutput, JobError>> {
        self.state.wait_timeout(timeout)
    }

    /// Non-blocking probe: `Some` once the job has resolved (pollers
    /// see [`JobError::Lost`] on a shutdown exactly like
    /// [`JobHandle::wait`] callers, rather than spinning on `None`
    /// forever).
    pub fn try_wait(&self) -> Option<Result<JobOutput, JobError>> {
        self.state.try_wait()
    }

    /// Registers a callback fired exactly once, when the job
    /// resolves — immediately (on this thread) if it already has,
    /// otherwise on the resolving thread (usually the serving
    /// worker). One callback per job: registering again replaces an
    /// unfired predecessor. Keep it quick — it runs inline on the
    /// worker's serving path.
    pub fn on_ready(&self, callback: impl FnOnce(&Result<JobOutput, JobError>) + Send + 'static) {
        self.state.on_ready(Box::new(callback));
    }

    /// Cancels the job cooperatively: the handle resolves to
    /// [`JobError::Canceled`] immediately (any waiter unblocks now),
    /// and the serving worker discards its side at the next
    /// scheduling boundary — a queued or parked job is dropped there;
    /// a running job stops at its next slice boundary. Canceling a
    /// job that already resolved is a no-op (the original result
    /// stands).
    pub fn cancel(&self) {
        self.state.cancel();
    }
}

/// What a job asks a worker to execute.
#[derive(Debug)]
enum JobSpec {
    /// Source text; the worker compiles it (consulting its local
    /// program cache first, so a repeated source parses once per
    /// worker).
    Source(String),
    /// Deliberate fault injection: serving this job panics inside the
    /// worker. Test-only ([`SessionPool::submit_poison`]); exercises
    /// the catch-unwind + restart path.
    Poison,
}

impl JobSpec {
    /// The key the audit record's shape is derived from.
    fn key(&self) -> &str {
        match self {
            JobSpec::Source(s) => s,
            JobSpec::Poison => "\u{22a5}poison",
        }
    }
}

/// A unit of work travelling a queue: the spec plus run options, with
/// the reply slot (the worker's half of the completion cell) riding
/// along. Dropping an unresolved job resolves it to
/// [`JobError::Lost`] — the backstop that keeps every handle
/// answerable no matter how the job dies.
#[derive(Debug)]
struct Job {
    spec: JobSpec,
    engine: Engine,
    fuel: Option<u64>,
    reply: ReplySlot,
    deadline: Option<Deadline>,
    submitted: Instant,
    /// How long the job waited in a queue before a worker claimed it:
    /// zero until then, and stamped again if a panic requeues it.
    queue_wait: Duration,
}

impl Job {
    /// Why the job stops at this scheduling boundary, if it does: its
    /// submitter canceled it or the pool is `dropping`, or its deadline
    /// passed after `steps` steps.
    fn abandoned(&self, steps: u64, dropping: bool) -> Option<JobError> {
        if dropping || self.reply.is_canceled() {
            Some(JobError::Canceled)
        } else if self.deadline.is_some_and(|d| d.expired()) {
            Some(JobError::DeadlineExceeded {
                steps,
                elapsed: self.submitted.elapsed(),
            })
        } else {
            None
        }
    }
}

/// A job mid-run on a worker: the parked machine state plus the job
/// it belongs to, waiting in the worker's run queue for its next
/// slice. Worker-local by design (the run holds `Rc`-shared machine
/// state and session-bound ids); if the worker panics, the run dies
/// with its session and [`Job::spec`] restarts from step zero.
struct ParkedEntry {
    job: Job,
    run: PausedRun,
}

/// When (if ever) a pool promotes a worker overlay into a new base
/// epoch. A worker checks the three gates against its own session at
/// each job boundary with an empty run queue; the first worker to
/// pass all three freezes its overlay, unless another promotion is in
/// flight. No worker reads another's counts, so a sibling that is
/// busy or idle cannot hold a promotion back.
///
/// # Default rationale (measured)
///
/// * `min_local_nodes` = **64**: a base warmed on the six testkit
///   shapes serves a 64-program mixed batch with zero overlay nodes
///   (`tests/pool.rs::warmed_pool_workers_intern_nothing_past_the_base`).
///   An overlay that has grown 64 nodes past such a base is not
///   noise — the hot set has structurally moved.
/// * `min_miss_rate` = **0.02**: the pool's steady-state acceptance
///   bar is a ≥ 0.99 coercion base-hit rate (the same test asserts a
///   rate above 0.999 on covered traffic; perfbench reports
///   `pool.coercion_base_hit_rate`), so a session-lifetime miss rate
///   of 2% is twice the healthy ceiling — drift, not jitter.
/// * `min_interval_jobs` = **256**: a freeze *appends* the promoting
///   worker's overlay to the shared slab — O(overlay) work, flat in
///   base size (no test gates the flatness; perfbench's
///   `pool.promotion_us_mean` prices a promotion) — so the charge to
///   the promoting worker's job is small. The interval gate is
///   therefore less about freeze cost than about churn: a fresh epoch
///   needs traffic to prove itself before being re-judged, and
///   rebuilding workers onto a new epoch re-warms their overlays. 256
///   jobs keeps a pathological workload (a hot set rotating every job)
///   from thrashing epochs.
///
/// Promotion is enabled by default with these settings; they are
/// deliberately conservative — a pool whose warmup covers its traffic
/// never promotes (the module example asserts it stays at epoch 1).
/// Tighten them (or promote on an interval of 1) in tests and drills;
/// disable promotion entirely with
/// [`SessionPoolBuilder::no_promotion`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PromotionPolicy {
    /// Minimum nodes (coercion + type) a worker's overlay must hold.
    pub min_local_nodes: usize,
    /// Minimum fraction of the worker session's coercion-intern
    /// probes *not* answered by the base (`1 - base hit rate`).
    pub min_miss_rate: f64,
    /// Minimum jobs served pool-wide since the last promotion (or
    /// since startup).
    pub min_interval_jobs: u64,
}

impl Default for PromotionPolicy {
    fn default() -> PromotionPolicy {
        PromotionPolicy {
            min_local_nodes: 64,
            min_miss_rate: 0.02,
            min_interval_jobs: 256,
        }
    }
}

/// The hot-swap cell: an `ArcSwap`-shaped pairing of an atomic epoch
/// counter with a mutex-guarded `Arc<FrozenBase>` (hand-rolled — the
/// build is offline and the pool needs exactly one operation pattern:
/// read-mostly, swap-rarely).
///
/// Readers cache the `(epoch, Arc)` pair and pay **one atomic load**
/// per job boundary ([`EpochBase::refresh`]); only an actual epoch
/// change takes the lock, for the duration of one `Arc` clone. The
/// epoch counter is only ever advanced while the lock is held and the
/// pair is only ever read together under the same lock, so a reader
/// can never observe a torn base (an epoch number paired with some
/// other epoch's snapshot). Since the slab rework the `Arc` being
/// swapped is a thin *watermark view* — a pointer to the shared
/// append-only slab plus published lengths — not a copy of the base:
/// publishing an epoch appends the overlay rows (done inside
/// [`Session::freeze`], under the slab's writer mutex) and then swaps
/// this small view, so promotion moves O(overlay) bytes regardless of
/// base size. Old epochs are not tracked and never invalidated:
/// superseded views read below their own watermark out of the same
/// slab forever (append-only storage is never moved or re-assigned),
/// so draining a replaced epoch costs nothing and the view `Arc`
/// frees itself when its last worker session is rebuilt.
#[derive(Debug)]
struct EpochBase {
    /// Monotone epoch number; starts at 1 for the warmup base.
    epoch: AtomicU64,
    current: Mutex<Arc<FrozenBase>>,
}

impl EpochBase {
    fn new(base: Arc<FrozenBase>) -> EpochBase {
        EpochBase {
            epoch: AtomicU64::new(1),
            current: Mutex::new(base),
        }
    }

    /// The current epoch number (one atomic load).
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current `(epoch, base)` pair, read consistently under the
    /// cell's lock.
    fn load(&self) -> (u64, Arc<FrozenBase>) {
        let guard = lock(&self.current);
        (self.epoch.load(Ordering::Acquire), Arc::clone(&guard))
    }

    /// `Some((epoch, base))` if the epoch has moved past `seen`; the
    /// no-change fast path is a single atomic load, no lock.
    fn refresh(&self, seen: u64) -> Option<(u64, Arc<FrozenBase>)> {
        if self.epoch.load(Ordering::Acquire) == seen {
            return None;
        }
        Some(self.load())
    }

    /// Publishes `base` as the next epoch, returning its number.
    fn publish(&self, base: Arc<FrozenBase>) -> u64 {
        let mut guard = lock(&self.current);
        *guard = base;
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        self.epoch.store(next, Ordering::Release);
        next
    }
}

/// One worker's job deque plus the condvar its owner parks on.
#[derive(Debug, Default)]
struct WorkerQueue {
    deque: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

/// A snapshot of one worker's accounting. Every count is read from
/// the worker's `bc-obs` cells and is cumulative across the sessions
/// the worker has run (epoch adoptions and panic restarts included).
#[derive(Debug, Clone, Copy)]
pub struct WorkerStats {
    /// The worker's index (stable for the pool's lifetime).
    pub worker: usize,
    /// Jobs this worker has resolved, whatever the outcome (including
    /// [`JobError::WorkerPanicked`]); rejected submissions never
    /// reach a worker and are not counted.
    pub jobs: u64,
    /// Jobs this worker claimed from a sibling's queue.
    pub steals: u64,
    /// Serve panics caught on this worker (each restarted it in place).
    pub panics: u64,
    /// Scheduling turns executed: each ran one job for up to a slice.
    pub slices: u64,
    /// Slices that ended with the job parked (preempted) rather than
    /// finished; `slices - preemptions` is the number of jobs whose
    /// final slice ran here.
    pub preemptions: u64,
    /// Jobs resolved to [`JobError::DeadlineExceeded`] on this worker.
    pub deadline_misses: u64,
    /// Canceled jobs whose worker-side state this worker discarded at
    /// a scheduling boundary.
    pub cancellations: u64,
    /// Sessions retired (epoch adoptions + panic restarts).
    pub sessions_retired: u64,
    /// Coercion nodes this worker's sessions interned past their base.
    pub local_coercion_nodes: u64,
    /// Type nodes this worker's sessions interned past their base.
    pub local_type_nodes: u64,
    /// Coercion-intern probes (hits + misses, either tier).
    pub coercion_probes: u64,
    /// Coercion-intern probes answered by a frozen base.
    pub coercion_base_hits: u64,
    /// Composition lookups (hits + misses).
    pub compose_probes: u64,
    /// Compositions answered by a frozen pair table.
    pub compose_base_hits: u64,
    /// Type interns answered by a frozen base.
    pub type_base_hits: u64,
    /// Programs this worker's sessions compiled (cache misses).
    pub programs_lowered: u64,
    /// Jobs parked in this worker's run queue at its last turn's end.
    pub parked_depth: usize,
    /// Jobs waiting in this worker's queue at snapshot time.
    pub queue_depth: usize,
}

/// Aggregated pool accounting: per-worker stats plus the sharing
/// roll-ups the acceptance tests assert on. All counts are
/// *cumulative across epochs*: a worker's cells outlive its sessions,
/// so retiring a session (promotion adoption, panic restart) drops
/// nothing.
///
/// # Consistency contract
///
/// Every count — jobs by outcome, slices, preemptions, steals,
/// sessions retired, promotions, respawns, and the session-derived
/// counts (local nodes, probes, base hits, programs lowered) — is
/// read from the same `bc-obs` cells [`SessionPool::metrics_text`]
/// renders, so `PoolStats` and the exposition cannot drift apart.
/// Each count is one atomic read and monotone between calls: every
/// count in a later `PoolStats` is ≥ its value in an earlier one
/// (asserted across promotions and respawns in `tests/obs.rs`).
/// Counts read while workers serve may straddle a job, e.g. catch its
/// slice but not yet its resolution; once the pool is quiescent they
/// are exact. A job is counted before its handle resolves, so a caller
/// that has seen a handle resolve finds the job counted — except a
/// cancel, which resolves the handle at [`JobHandle::cancel`] and is
/// counted when the serving worker discards the job. A worker adds
/// its session's counts to its cells at each resolution, before the
/// reply, so they cover every job whose handle has resolved.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// The current base epoch (1 = the warmup base; +1 per
    /// promotion).
    pub epoch: u64,
    /// Overlay-to-base promotions published so far.
    pub promotions: u64,
    /// Cumulative wall-clock nanoseconds spent inside promotion
    /// (freeze-append + publish) since pool startup; divide by
    /// [`PoolStats::promotions`] for the mean cost of a hot-swap
    /// (perfbench's `pool.promotion_us_mean`).
    pub promotion_ns: u64,
    /// Worker restarts after a caught serve panic
    /// (`bc_respawns_total`).
    pub respawns: u64,
    /// The most machine steps any one warmup run took at build —
    /// never more than [`WARMUP_RUN_FUEL`], whatever the job fuel.
    pub warmup_peak_steps: u64,
    /// Per-worker snapshots, indexed by worker.
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    /// One per-worker count summed over the workers.
    fn sum(&self, count: impl Fn(&WorkerStats) -> u64) -> u64 {
        self.workers.iter().map(count).sum()
    }

    /// Total jobs completed across all workers.
    pub fn jobs(&self) -> u64 {
        self.sum(|w| w.jobs)
    }

    /// Jobs claimed from a sibling's queue, summed over workers.
    pub fn steals(&self) -> u64 {
        self.sum(|w| w.steals)
    }

    /// Per-worker queue depths at snapshot time (same order as
    /// [`PoolStats::workers`]).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.queue_depth).collect()
    }

    /// Scheduling turns executed across all workers (each ran one job
    /// for up to one slice of steps).
    pub fn slices(&self) -> u64 {
        self.sum(|w| w.slices)
    }

    /// Slices that ended parked (preempted) rather than finished,
    /// summed over workers.
    pub fn preemptions(&self) -> u64 {
        self.sum(|w| w.preemptions)
    }

    /// Jobs that missed their deadline, summed over workers.
    pub fn deadline_misses(&self) -> u64 {
        self.sum(|w| w.deadline_misses)
    }

    /// Canceled jobs discarded by workers, summed.
    pub fn cancellations(&self) -> u64 {
        self.sum(|w| w.cancellations)
    }

    /// Per-worker parked-run-queue depths (same order as
    /// [`PoolStats::workers`]).
    pub fn parked_depths(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.parked_depth).collect()
    }

    /// Coercion nodes interned *past the base*, summed over workers
    /// and cumulative across epochs. Zero means the frozen base
    /// absorbed every coercion the whole pool ever needed.
    pub fn local_coercion_nodes(&self) -> u64 {
        self.sum(|w| w.local_coercion_nodes)
    }

    /// Type nodes interned past the base, summed over workers and
    /// cumulative across epochs.
    pub fn local_type_nodes(&self) -> u64 {
        self.sum(|w| w.local_type_nodes)
    }

    /// Coercion-intern probes answered by a frozen base, summed over
    /// workers (cumulative across epochs).
    pub fn coercion_base_hits(&self) -> u64 {
        self.sum(|w| w.coercion_base_hits)
    }

    /// Coercion-intern probes issued, summed over workers (cumulative
    /// across epochs).
    pub fn coercion_probes(&self) -> u64 {
        self.sum(|w| w.coercion_probes)
    }

    /// Fraction of coercion-intern probes answered by the frozen base
    /// index, across all workers and epochs (1.0 = every probe hit a
    /// base).
    pub fn coercion_base_hit_rate(&self) -> f64 {
        self.coercion_base_hits() as f64 / self.coercion_probes().max(1) as f64
    }

    /// Fraction of compositions answered by a frozen pair table,
    /// across all workers and epochs.
    pub fn compose_base_hit_rate(&self) -> f64 {
        self.sum(|w| w.compose_base_hits) as f64 / self.sum(|w| w.compose_probes).max(1) as f64
    }
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} jobs across {} workers (epoch {}, {} promotions, {} steals, \
             {} respawns); {} slices ({} preemptions, {} deadline misses, \
             {} cancellations); {} local coercion nodes, {} local type nodes; \
             base hit rates: {:.3} interning / {:.3} compose",
            self.jobs(),
            self.workers.len(),
            self.epoch,
            self.promotions,
            self.steals(),
            self.respawns,
            self.slices(),
            self.preemptions(),
            self.deadline_misses(),
            self.cancellations(),
            self.local_coercion_nodes(),
            self.local_type_nodes(),
            self.coercion_base_hit_rate(),
            self.compose_base_hit_rate(),
        )?;
        for w in &self.workers {
            writeln!(
                f,
                "  worker {}: {} jobs ({} stolen), {} local coercions, {} local types, \
                 {} base intern hits, {} sessions retired, queue {}",
                w.worker,
                w.jobs,
                w.steals,
                w.local_coercion_nodes,
                w.local_type_nodes,
                w.coercion_base_hits,
                w.sessions_retired,
                w.queue_depth,
            )?;
        }
        Ok(())
    }
}

/// Configures and builds a [`SessionPool`].
#[derive(Debug, Clone)]
pub struct SessionPoolBuilder {
    workers: usize,
    default_fuel: u64,
    warmup: Vec<String>,
    promotion: Option<PromotionPolicy>,
    slice_steps: u64,
    queue_capacity: usize,
    audit_capacity: usize,
}

impl Default for SessionPoolBuilder {
    fn default() -> SessionPoolBuilder {
        SessionPoolBuilder {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            default_fuel: SessionBuilder::DEFAULT_FUEL,
            warmup: Vec::new(),
            promotion: Some(PromotionPolicy::default()),
            slice_steps: SLICE_STEPS,
            queue_capacity: usize::MAX,
            audit_capacity: DEFAULT_AUDIT_CAPACITY,
        }
    }
}

impl SessionPoolBuilder {
    /// Number of worker threads (default: the machine's available
    /// parallelism).
    ///
    /// # Panics
    ///
    /// [`SessionPoolBuilder::build`] panics if the count is zero.
    pub fn workers(mut self, workers: usize) -> SessionPoolBuilder {
        self.workers = workers;
        self
    }

    /// The step bound applied to jobs submitted without an explicit
    /// fuel (see [`SessionPool::submit_with_fuel`]).
    pub fn default_fuel(mut self, fuel: u64) -> SessionPoolBuilder {
        self.default_fuel = fuel;
        self
    }

    /// Sources compiled — and run on the λS machine, to warm the
    /// composition pairs — into the warmup session whose frozen state
    /// becomes the workers' shared base (epoch 1). Pick
    /// representatives of the traffic the pool will serve: shapes the
    /// warmup covered cost the workers zero local interning.
    pub fn warmup<I, S>(mut self, sources: I) -> SessionPoolBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.warmup.extend(sources.into_iter().map(Into::into));
        self
    }

    /// Sets the live-promotion policy (see [`PromotionPolicy`] for
    /// the default and its rationale).
    pub fn promotion(mut self, policy: PromotionPolicy) -> SessionPoolBuilder {
        self.promotion = Some(policy);
        self
    }

    /// Disables live base promotion: the pool serves its warmup epoch
    /// forever, and drifted traffic interns per worker, duplicated —
    /// the pre-promotion behaviour, kept as the control pool of the
    /// promotion tests in `tests/pool.rs`.
    pub fn no_promotion(mut self) -> SessionPoolBuilder {
        self.promotion = None;
        self
    }

    /// Disables timeslicing: every job runs to completion (or fuel
    /// exhaustion) in a single turn, pinning its worker — the
    /// pre-scheduler behaviour, kept so a test can pin a worker behind
    /// a spinner (`tests/pool.rs::idle_workers_steal_from_busy_queues`).
    /// Deadlines and cancellation still work but are only checked
    /// when a job starts, so a shutdown or drop waits for a running
    /// job.
    pub fn no_slicing(mut self) -> SessionPoolBuilder {
        // A slice the fuel bound can never exceed: `resume_slice` then
        // finishes every job in one turn.
        self.slice_steps = u64::MAX;
        self
    }

    /// Bounds each worker's standing work: a submission targeting a
    /// worker that already holds `capacity` unresolved jobs (queued,
    /// parked, or running) resolves immediately to
    /// [`JobError::Rejected`] with the observed depth. The check is
    /// an atomic reserve, so concurrent submitters cannot overshoot
    /// the bound. Default: unbounded (`usize::MAX`), the
    /// pre-backpressure behaviour.
    pub fn queue_capacity(mut self, capacity: usize) -> SessionPoolBuilder {
        self.queue_capacity = capacity;
        self
    }

    /// Bounds the audit ring: at most `capacity` undrained
    /// [`AuditRecord`]s are retained; beyond that the oldest is
    /// evicted (counted exactly — `bc_audit_dropped_total` in the
    /// exposition, [`SessionPool::audit_dropped`] in the API) and the
    /// emitting worker never blocks. Default: 8192. Clamped to ≥ 1.
    pub fn audit_capacity(mut self, capacity: usize) -> SessionPoolBuilder {
        self.audit_capacity = capacity;
        self
    }

    /// Builds the base (compiling and running the warmup sources) and
    /// spawns the workers.
    ///
    /// # Errors
    ///
    /// Returns the first warmup source's [`Diagnostic`] if one fails
    /// to compile. Warmup *runs* are best-effort: a warmup program
    /// exhausting its fuel still warmed the caches, so it is not an
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if the worker count is zero or a worker thread cannot
    /// be spawned.
    pub fn build(self) -> Result<SessionPool, Diagnostic> {
        assert!(self.workers > 0, "SessionPool needs at least 1 worker");
        let warm = Session::builder().default_fuel(self.default_fuel).build();
        // Warmup runs are capped at WARMUP_RUN_FUEL. The unit is
        // machine *steps* — the same unit job fuel, slices, and
        // `Metrics::steps` count, one transition
        // each (the engines enforce the 1:1 accounting at their fuel
        // checks; see the invariant note in `bc_machine::cek_s`) — so
        // this cap, slice accounting, and fuel-exhaustion reports are
        // all directly comparable numbers.
        let mut warmup_peak_steps = 0;
        for source in &self.warmup {
            let program = warm.compile(source)?;
            // Warm the compose pairs; outcome (including fuel
            // exhaustion) is irrelevant here. Every warmup source runs:
            // even one whose compile interned nothing new can reach
            // compose *pairs* no earlier program composed (same nodes,
            // different dynamic order), and a redundant run is pure
            // cache hits — microseconds at this fuel bound.
            let steps = match warm.run_with_fuel(
                &program,
                Engine::MachineS,
                WARMUP_RUN_FUEL.min(self.default_fuel),
            ) {
                Ok(report) => report.steps,
                Err(RunError::FuelExhausted { steps, .. }) => steps,
                Err(RunError::IllTyped(_)) => 0,
            };
            warmup_peak_steps = warmup_peak_steps.max(steps);
        }
        let base = warm.freeze();

        let shared = Arc::new(PoolShared {
            epoch: EpochBase::new(base),
            queues: (0..self.workers).map(|_| WorkerQueue::default()).collect(),
            inflight: (0..self.workers)
                .map(|_| Arc::new(AtomicUsize::new(0)))
                .collect(),
            open: AtomicBool::new(true),
            dropping: AtomicBool::new(false),
            promoting: AtomicBool::new(false),
            jobs_since_promotion: AtomicU64::new(0),
            policy: self.promotion,
            default_fuel: self.default_fuel,
            slice_steps: self.slice_steps,
            queue_capacity: self.queue_capacity,
            obs: PoolObs::new(self.workers, self.audit_capacity),
        });
        let handles = (0..self.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bc-pool-worker-{index}"))
                    .spawn(move || Worker::new(index, shared).serve())
                    .expect("spawn pool worker")
            })
            .collect();
        Ok(SessionPool {
            shared,
            handles,
            next: AtomicUsize::new(0),
            warmup_peak_steps,
        })
    }
}

/// Everything the workers and the pool handle share: the epoch cell,
/// the per-worker queues, the promotion machinery, the session
/// configuration rebuilds need, and the observability cells.
#[derive(Debug)]
struct PoolShared {
    epoch: EpochBase,
    queues: Vec<WorkerQueue>,
    /// Per-worker in-flight job counts (accepted but unresolved:
    /// queued + parked + running) — the bounded-backpressure gauge.
    /// `Arc`ed so each job's completion cell can decrement its
    /// worker's counter exactly once, at resolution, wherever that
    /// happens.
    inflight: Vec<Arc<AtomicUsize>>,
    /// False once shutdown starts: no new jobs; workers drain every
    /// queue and exit.
    open: AtomicBool,
    /// True once a shutdown's deadline passes (at once for a drop):
    /// workers cancel every job they still hold at its next scheduling
    /// boundary instead of running it.
    dropping: AtomicBool,
    /// Serialises promotions (freeze + publish); never
    /// blocks submit or serving — a worker that loses the race just
    /// keeps serving and adopts the winner's epoch.
    promoting: AtomicBool,
    jobs_since_promotion: AtomicU64,
    policy: Option<PromotionPolicy>,
    default_fuel: u64,
    /// Steps per scheduling turn (`u64::MAX` when slicing is off).
    slice_steps: u64,
    /// Max unresolved jobs per worker before submissions reject.
    queue_capacity: usize,
    /// The observability bundle: the counter cells every count is
    /// read from, the histograms, and the audit ring.
    obs: PoolObs,
}

/// The engine's audit-stream name, without a per-job `format!`
/// allocation pass (records are built once per job on the serving
/// path).
fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::LambdaB => "LambdaB",
        Engine::LambdaC => "LambdaC",
        Engine::LambdaS => "LambdaS",
        Engine::MachineB => "MachineB",
        Engine::MachineC => "MachineC",
        Engine::MachineS => "MachineS",
    }
}

/// How long an idle worker parks before re-scanning sibling queues —
/// the steal-latency and lost-wakeup backstop (submits notify the
/// target worker directly; the timeout only matters when work lands
/// on a *busy* worker's queue while this one sleeps).
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Bound on the worker-local program cache; beyond it the cache is
/// dropped wholesale (recompiling is always safe — the arenas stay
/// warm, so a re-lower interns nothing).
const WORKER_PROGRAM_CACHE_CAP: usize = 1024;

/// Steps a job runs per scheduling turn before it is preempted.
///
/// Fuel, slices, and reported step counts all use the same unit: one
/// machine transition (or one small-step reduction — the engines
/// enforce a 1:1 accounting, see the fuel check in
/// `bc_machine::cek_s`). A slice is therefore a *deterministic* unit
/// of work, not a wall-clock guess, and sliced execution is
/// observationally identical to unsliced execution by construction.
///
/// # Rationale (measured)
///
/// On the release-mode six-shape bench workload a λS machine
/// transition cost on the order of 40–80 ns when this was chosen, so
/// a slice is roughly 0.2–0.3 ms — two orders of magnitude above the
/// park/resume overhead (moving a `PausedRun` through the run queue is
/// a few pointer moves plus one counter update), and two orders of
/// magnitude below the default 1M-step fuel, so a divergent spinner
/// is preempted ~244 times instead of pinning its worker once. In a
/// release-mode measurement, sliced and unsliced latency on an
/// all-convergent batch agreed within noise (p50 0.52 ms vs 0.51 ms),
/// while the p99 latency of convergent jobs sharing one worker with
/// four spinners dropped from the spinners' full fuel burn (~206 ms)
/// to a handful of slices (~6 ms); `tests/sched.rs` checks the
/// ordering on every change.
const SLICE_STEPS: u64 = 4096;

impl PoolShared {
    fn build_session(&self, base: Arc<FrozenBase>) -> Session {
        Session::builder()
            .base(base)
            .default_fuel(self.default_fuel)
            .build()
    }

    /// Claims the next job for `index`: own queue front, else steal
    /// from the back of the longest sibling queue, else park. `None`
    /// means the pool is closed and every queue has drained.
    fn next_job(&self, index: usize) -> Option<Job> {
        let mine = &self.queues[index];
        loop {
            if let Some(job) = self.try_claim(index) {
                return Some(job);
            }
            if !self.open.load(Ordering::Acquire) {
                // Drain semantics: exit only once nothing is claimable
                // anywhere (a sibling may still be *serving*, but its
                // unclaimed jobs are visible in its queue).
                if self.queues.iter().all(|q| lock(&q.deque).is_empty()) {
                    return None;
                }
                continue;
            }
            let guard = lock(&mine.deque);
            if !guard.is_empty() {
                continue;
            }
            let (mut guard, _) = mine
                .ready
                .wait_timeout(guard, IDLE_PARK)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(job) = guard.pop_front() {
                return Some(job);
            }
        }
    }

    /// Steals one job from the back of the longest sibling queue.
    fn steal(&self, thief: usize) -> Option<Job> {
        let mut victim: Option<(usize, usize)> = None;
        for (i, q) in self.queues.iter().enumerate() {
            if i == thief {
                continue;
            }
            let depth = lock(&q.deque).len();
            if depth > 0 && victim.is_none_or(|(_, best)| depth > best) {
                victim = Some((i, depth));
            }
        }
        let (victim, _) = victim?;
        let job = lock(&self.queues[victim].deque).pop_back();
        if job.is_some() {
            self.obs.counters[thief].steals.inc();
        }
        job
    }

    /// Non-blocking claim for an idle worker: own queue front, else a
    /// steal.
    fn try_claim(&self, index: usize) -> Option<Job> {
        self.pop_own(index).or_else(|| self.steal(index))
    }

    /// The front of `index`'s own queue: how a worker with parked jobs
    /// checks for new intake without ever waiting. It never steals —
    /// a busy worker would take the jobs an idle sibling is there to
    /// steal — and if nothing is queued it has slices to run instead.
    fn pop_own(&self, index: usize) -> Option<Job> {
        lock(&self.queues[index].deque).pop_front()
    }

    /// The cheap per-job promotion gate: the policy thresholds on the
    /// counts of one worker's own session.
    fn should_promote(&self, counts: &SessionCounts) -> bool {
        let Some(policy) = &self.policy else {
            return false;
        };
        let probes = counts.coercion_probes;
        let miss_rate = 1.0 - counts.coercion_base_hits as f64 / probes.max(1) as f64;
        self.jobs_since_promotion.load(Ordering::Relaxed) >= policy.min_interval_jobs
            && counts.local_coercion_nodes + counts.local_type_nodes
                >= policy.min_local_nodes as u64
            && (probes == 0 || miss_rate >= policy.min_miss_rate)
    }

    /// Freezes `session` and publishes it as the next epoch, unless a
    /// concurrent promotion got there first. Returns the new epoch
    /// pair for the promoting worker to adopt. Job intake is never
    /// paused: only the promoting worker spends time here, and
    /// submits/steals proceed against the per-worker queues
    /// throughout.
    fn promote(&self, epoch_seen: u64, session: &Session) -> Option<(u64, Arc<FrozenBase>)> {
        if self.promoting.swap(true, Ordering::AcqRel) {
            return None;
        }
        let started = Instant::now();
        let published = (|| {
            // Lost the race: someone published while this worker was
            // deciding; adopt theirs instead of stacking a promotion
            // from a stale overlay. Otherwise `old` is the base the
            // session was grown over.
            let (current, old) = self.epoch.load();
            if current != epoch_seen {
                return None;
            }
            let next = session.freeze();
            debug_assert!(
                next.extends(&old),
                "a promoted epoch must extend the epoch it was grown over"
            );
            let epoch = self.epoch.publish(Arc::clone(&next));
            self.obs.promotion_ns.add(ns(started.elapsed()));
            self.obs.promotions.inc();
            self.jobs_since_promotion.store(0, Ordering::Relaxed);
            Some((epoch, next))
        })();
        self.promoting.store(false, Ordering::Release);
        published
    }
}

/// One worker: a private overlay [`Session`] over the epoch it last
/// adopted, the program cache and run queue that belong to that
/// session, and a scheduling loop that interleaves intake with
/// round-robin timeslicing until the pool closes, every queue drains,
/// and every parked job finishes.
///
/// Each loop turn does at most one intake claim (blocking only when
/// nothing is parked — an idle worker parks on its condvar exactly
/// like the pre-slicing loop) and one slice of the run queue's head.
/// A 64-job batch with divergent spinners therefore finishes its
/// convergent jobs in a bounded number of turns: a spinner gets one
/// slice per rotation, never the whole worker.
struct Worker {
    index: usize,
    shared: Arc<PoolShared>,
    epoch: u64,
    session: Session,
    /// One lowered program per distinct source. Programs hold
    /// session-bound ids, so the cache lives and dies with the
    /// session; it is what makes a repeated job a pure lookup — zero
    /// parsing, zero lowering.
    programs: HashMap<String, Program>,
    run_queue: VecDeque<ParkedEntry>,
    /// The session's counts at its last resolution, already added to
    /// the worker's cells (zero for a fresh session).
    counted: SessionCounts,
}

impl Worker {
    fn new(index: usize, shared: Arc<PoolShared>) -> Worker {
        let (epoch, base) = shared.epoch.load();
        Worker {
            index,
            epoch,
            session: shared.build_session(base),
            shared,
            programs: HashMap::new(),
            run_queue: VecDeque::new(),
            counted: SessionCounts::default(),
        }
    }

    fn serve(mut self) {
        loop {
            let incoming = if self.run_queue.is_empty() {
                // Closed, every queue drained, nothing parked: done.
                let Some(job) = self.shared.next_job(self.index) else {
                    return;
                };
                Some(job)
            } else {
                self.shared.pop_own(self.index)
            };
            self.turn(incoming);
            self.shared.obs.parked_depth[self.index].set(self.run_queue.len() as f64);
        }
    }

    /// One scheduling turn: admit the claimed job, if any, slice the
    /// head of the run queue, then consider promotion.
    fn turn(&mut self, incoming: Option<Job>) {
        if let Some(mut job) = incoming {
            // The job is claimed: everything before this instant was
            // queueing (dispatch, standing in a deque, being stolen).
            job.queue_wait = job.submitted.elapsed();
            // Epoch adoption happens only with an empty run queue:
            // parked runs hold ids interned in the current session,
            // which an adoption would rebuild. A parked spinner thus
            // delays its worker's adoption until it finishes or
            // exhausts its fuel — bounded by the fuel bound, never
            // forever. The old base's Arc drops with the retired
            // session — epochs drain, they are never collected.
            if self.run_queue.is_empty() {
                if let Some((epoch, base)) = self.shared.epoch.refresh(self.epoch) {
                    self.adopt(epoch, base);
                }
            }
            if let Some(err) = job.abandoned(0, self.shared.dropping.load(Ordering::Acquire)) {
                self.resolve(job, 0, Err(err));
            } else {
                // Admission is the first unwind boundary: it runs
                // job-determined work (parsing, elaboration,
                // lowering). AssertUnwindSafe is sound because
                // everything the closure touches is discarded on
                // panic (the session, its program cache, and the
                // parked runs; the worker restarts over a fresh
                // session).
                let admitted = catch_unwind(AssertUnwindSafe(|| self.admit(&job)));
                match admitted {
                    Ok(Ok(run)) => self.run_queue.push_back(ParkedEntry { job, run }),
                    Ok(Err(err)) => self.resolve(job, 0, Err(err)),
                    Err(_) => return self.restart(job),
                }
            }
        }
        // A job parked again goes to the back (round-robin — every
        // parked job advances one slice per rotation).
        if let Some(ParkedEntry { job, run }) = self.run_queue.pop_front() {
            let steps = run.steps();
            if let Some(err) = job.abandoned(steps, self.shared.dropping.load(Ordering::Acquire)) {
                self.resolve(job, steps, Err(err));
            } else {
                // The slice is the other unwind boundary (machine
                // steps run job-determined work too).
                let sliced = catch_unwind(AssertUnwindSafe(|| {
                    self.session.resume_slice(run, self.shared.slice_steps)
                }));
                let Ok(sliced) = sliced else {
                    return self.restart(job);
                };
                let counters = &self.shared.obs.counters[self.index];
                counters.slices.inc();
                match sliced {
                    SliceOutcome::Done(result) => {
                        self.resolve(job, 0, result.map_err(JobError::Run));
                    }
                    SliceOutcome::Parked(run) => {
                        counters.preemptions.inc();
                        self.run_queue.push_back(ParkedEntry { job, run });
                    }
                }
            }
        }
        // Promotion rebuilds the session parked runs reference, so it
        // is considered only with an empty run queue — at the end of a
        // turn, that means the turn resolved a job, and `counted` is
        // the session's current count.
        if self.run_queue.is_empty() && self.shared.should_promote(&self.counted) {
            if let Some((epoch, base)) = self.shared.promote(self.epoch, &self.session) {
                // The promoting worker adopts its own epoch at once —
                // its overlay *is* the new base.
                self.adopt(epoch, base);
            }
        }
    }

    /// Retires the session and rebuilds it over `base`. Its counts
    /// are already in the worker's cells: a session is retired only
    /// with an empty run queue, right after a resolution.
    fn adopt(&mut self, epoch: u64, base: Arc<FrozenBase>) {
        self.shared.obs.counters[self.index].sessions_retired.inc();
        self.session = self.shared.build_session(base);
        self.epoch = epoch;
        self.programs.clear();
        self.counted = SessionCounts::default();
    }

    /// The one exit of every job a worker claimed: bumps the
    /// promotion interval, adds the session's new counts to the
    /// worker's cells, builds the job's audit record from `result`,
    /// counts and audits it, and replies — in that order, so a caller
    /// that sees the handle resolve finds the job in
    /// [`SessionPool::stats`], the exposition and the audit stream.
    /// `steps` is what the run had executed when the job stopped; a
    /// run report or a fuel exhaustion carries its own.
    fn resolve(&mut self, job: Job, steps: u64, result: Result<RunReport, JobError>) {
        let shared = &self.shared;
        shared.jobs_since_promotion.fetch_add(1, Ordering::Relaxed);
        let counts = SessionCounts::of(&self.session.stats());
        shared.obs.counters[self.index].publish(&self.counted, &counts);
        self.counted = counts;
        let elapsed = job.submitted.elapsed();
        let mut record = AuditRecord {
            seq: 0, // stamped by the sink
            worker: self.index,
            epoch: self.epoch,
            engine: engine_name(job.engine),
            outcome: AuditOutcome::Value,
            blame_label: None,
            cast_site: None,
            steps,
            peak_frames: 0,
            peak_cast_frames: 0,
            latency_ns: ns(elapsed),
            queue_wait_ns: ns(job.queue_wait),
            shape: bc_obs::shape_key(job.spec.key()),
        };
        // Fuel exhaustion carries real step and peak-frame accounting:
        // the cutoff metrics are what make λB/λC space leaks measurable
        // on diverging programs.
        let metrics = match &result {
            Ok(report) => {
                record.steps = report.steps;
                if let Observation::Blame(label) = &report.observation {
                    record.outcome = AuditOutcome::Blame;
                    record.blame_label = Some(label.to_string());
                    record.cast_site = Some(label.id());
                }
                report.metrics.as_ref()
            }
            Err(JobError::Run(RunError::FuelExhausted { steps, metrics })) => {
                record.outcome = AuditOutcome::FuelExhausted;
                record.steps = *steps;
                metrics.as_ref()
            }
            Err(err) => {
                record.outcome = match err {
                    JobError::Compile(_) => AuditOutcome::CompileError,
                    JobError::Run(_) => AuditOutcome::IllTyped,
                    JobError::WorkerPanicked => AuditOutcome::WorkerPanicked,
                    JobError::DeadlineExceeded { .. } => AuditOutcome::DeadlineExceeded,
                    JobError::Canceled => AuditOutcome::Canceled,
                    JobError::Rejected { .. } | JobError::Lost => {
                        unreachable!("rejected and lost jobs never reach a worker")
                    }
                };
                None
            }
        };
        if let Some(m) = metrics {
            record.peak_frames = m.peak_frames as u64;
            record.peak_cast_frames = m.peak_cast_frames as u64;
        }
        shared.obs.resolved(record);
        // A canceled job's handle already resolved; this reply is then
        // a no-op (the first resolution wins).
        job.reply.resolve(result.map(|report| JobOutput {
            observation: report.observation,
            steps: report.steps,
            metrics: report.metrics,
            worker: self.index,
            elapsed,
        }));
    }

    /// Admits one job: resolves the program (the session's program
    /// cache, else a source compile) and starts a resumable run parked
    /// at step zero — no machine steps run here; the scheduling loop
    /// doles those out in slices.
    fn admit(&mut self, job: &Job) -> Result<PausedRun, JobError> {
        let JobSpec::Source(source) = &job.spec else {
            panic!("deliberate pool fault injection (JobSpec::Poison)");
        };
        if !self.programs.contains_key(source) {
            let program = self.session.compile(source).map_err(JobError::Compile)?;
            if self.programs.len() >= WORKER_PROGRAM_CACHE_CAP {
                self.programs.clear();
            }
            self.programs.insert(source.clone(), program);
        }
        let fuel = job.fuel.unwrap_or_else(|| self.session.default_fuel());
        Ok(self
            .session
            .start_run(&self.programs[source], job.engine, fuel))
    }

    /// The caught-panic path: the worker restarts in place. It types
    /// the panicking job, counts the restart, hands its parked jobs
    /// back to its queue (their runs die with the session — they
    /// restart from step zero by spec, at-least-once for a language
    /// with no side effects to repeat), and rebuilds its session over
    /// the current epoch, which counts the retired session.
    fn restart(&mut self, job: Job) {
        self.resolve(job, 0, Err(JobError::WorkerPanicked));
        self.shared.obs.respawns.inc();
        if !self.run_queue.is_empty() {
            let queue = &self.shared.queues[self.index];
            lock(&queue.deque).extend(self.run_queue.drain(..).map(|entry| entry.job));
            queue.ready.notify_one();
        }
        let (epoch, base) = self.shared.epoch.load();
        self.adopt(epoch, base);
    }
}

/// A multi-threaded serving pool: N worker threads, each with a
/// private overlay [`Session`] over the current epoch's shared
/// [`FrozenBase`], each draining its own work-stealing deque.
///
/// See the [module docs](self) for the epoch lifecycle and an
/// example.
#[derive(Debug)]
pub struct SessionPool {
    shared: Arc<PoolShared>,
    /// Worker join handles, indexed by worker; emptied by the first
    /// join.
    handles: Vec<JoinHandle<()>>,
    /// Round-robin dispatch cursor.
    next: AtomicUsize,
    /// The most machine steps any one warmup run took.
    warmup_peak_steps: u64,
}

impl SessionPool {
    /// Starts configuring a pool.
    pub fn builder() -> SessionPoolBuilder {
        SessionPoolBuilder::default()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// The current epoch's frozen base (a fresh `Arc` clone: the pool
    /// may publish a newer epoch at any time, so the base is a
    /// snapshot, not a stable reference).
    pub fn base(&self) -> Arc<FrozenBase> {
        self.shared.epoch.load().1
    }

    /// The current base epoch (1 = the warmup base; +1 per
    /// promotion).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.epoch()
    }

    /// The step bound applied to jobs submitted without explicit
    /// fuel.
    pub fn default_fuel(&self) -> u64 {
        self.shared.default_fuel
    }

    /// Total jobs currently waiting in worker queues (excludes jobs
    /// parked in run queues or being served right now — for the full
    /// standing-work signal, the pool enforces
    /// [`SessionPoolBuilder::queue_capacity`] against the per-worker
    /// in-flight counts and rejects with [`JobError::Rejected`]).
    pub fn queue_depth(&self) -> usize {
        self.queue_depths().iter().sum()
    }

    /// Per-worker queue depths (index = worker). Imbalance here is
    /// what the work-stealing path erases; sustained imbalance means
    /// one worker is pinned by a long job.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared
            .queues
            .iter()
            .map(|q| lock(&q.deque).len())
            .collect()
    }

    /// Submits one compile+run job, dispatched round-robin (idle
    /// workers steal it if its assigned worker is busy).
    pub fn submit(&self, source: impl Into<String>, engine: Engine) -> JobHandle {
        self.submit_job(JobSpec::Source(source.into()), engine, None, None)
    }

    /// [`SessionPool::submit`] with an explicit step bound.
    pub fn submit_with_fuel(
        &self,
        source: impl Into<String>,
        engine: Engine,
        fuel: u64,
    ) -> JobHandle {
        self.submit_job(JobSpec::Source(source.into()), engine, Some(fuel), None)
    }

    /// [`SessionPool::submit`] with a wall-clock deadline: a job that
    /// has not finished when it passes resolves to
    /// [`JobError::DeadlineExceeded`] at its next scheduling boundary
    /// (so enforcement lags the deadline by at most one slice plus
    /// queueing on the worker's run queue).
    pub fn submit_with_deadline(
        &self,
        source: impl Into<String>,
        engine: Engine,
        deadline: Deadline,
    ) -> JobHandle {
        self.submit_job(JobSpec::Source(source.into()), engine, None, Some(deadline))
    }

    /// The fully-explicit submission: step bound and/or deadline.
    pub fn submit_with_options(
        &self,
        source: impl Into<String>,
        engine: Engine,
        fuel: Option<u64>,
        deadline: Option<Deadline>,
    ) -> JobHandle {
        self.submit_job(JobSpec::Source(source.into()), engine, fuel, deadline)
    }

    /// Submits a batch of jobs, returning one handle per source (in
    /// submission order; completion order is up to the workers).
    pub fn submit_batch<I, S>(&self, sources: I, engine: Engine) -> Vec<JobHandle>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        sources
            .into_iter()
            .map(|s| self.submit_job(JobSpec::Source(s.into()), engine, None, None))
            .collect()
    }

    /// Test-only fault injection: submits a job whose serve panics
    /// inside the worker, exercising the catch-unwind and in-place
    /// restart path end to end. Hidden rather than `cfg(test)`
    /// so integration tests and fault-injection drills can reach it.
    #[doc(hidden)]
    pub fn submit_poison(&self) -> JobHandle {
        self.submit_job(JobSpec::Poison, Engine::MachineS, None, None)
    }

    fn submit_job(
        &self,
        spec: JobSpec,
        engine: Engine,
        fuel: Option<u64>,
        deadline: Option<Deadline>,
    ) -> JobHandle {
        // A closed pool answers Lost immediately — the honest answer.
        if !self.shared.open.load(Ordering::Acquire) {
            return JobHandle {
                state: JobState::resolved(Err(JobError::Lost)),
            };
        }
        let target = self.next.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        // Bounded backpressure: atomically reserve a slot in the
        // target worker's in-flight count (queued + parked + running)
        // or reject without ever touching a queue. The reservation is
        // released exactly once, when the job's completion cell
        // resolves — wherever and however that happens.
        let inflight = &self.shared.inflight[target];
        let capacity = self.shared.queue_capacity;
        let reserved = inflight.fetch_update(Ordering::AcqRel, Ordering::Acquire, |depth| {
            (depth < capacity).then_some(depth + 1)
        });
        if let Err(depth) = reserved {
            // Rejected jobs never became a `Job`; audit them here
            // (zero steps, zero waits — they were refused at the
            // door), so `bc_jobs_total` sums to submissions.
            self.shared.obs.resolved(AuditRecord {
                seq: 0,
                worker: target,
                epoch: self.shared.epoch.epoch(),
                engine: engine_name(engine),
                outcome: AuditOutcome::Rejected,
                blame_label: None,
                cast_site: None,
                steps: 0,
                peak_frames: 0,
                peak_cast_frames: 0,
                latency_ns: 0,
                queue_wait_ns: 0,
                shape: bc_obs::shape_key(spec.key()),
            });
            return JobHandle {
                state: JobState::resolved(Err(JobError::Rejected { queue_depth: depth })),
            };
        }
        let state = JobState::new(Some(Arc::clone(inflight)));
        let job = Job {
            spec,
            engine,
            fuel,
            reply: ReplySlot::new(Arc::clone(&state)),
            deadline,
            submitted: Instant::now(),
            queue_wait: Duration::ZERO,
        };
        let queue = &self.shared.queues[target];
        lock(&queue.deque).push_back(job);
        queue.ready.notify_one();
        JobHandle { state }
    }

    /// The pool accounting, read from the `bc-obs` cells the
    /// exposition renders — see the
    /// [consistency contract](PoolStats#consistency-contract).
    pub fn stats(&self) -> PoolStats {
        let obs = &self.shared.obs;
        PoolStats {
            epoch: self.shared.epoch.epoch(),
            promotions: obs.promotions.get(),
            promotion_ns: obs.promotion_ns.get(),
            respawns: obs.respawns.get(),
            warmup_peak_steps: self.warmup_peak_steps,
            workers: (0..self.workers()).map(|w| self.worker_stats(w)).collect(),
        }
    }

    /// One worker's accounting, read from its cells and gauges.
    fn worker_stats(&self, worker: usize) -> WorkerStats {
        let cells = &self.shared.obs.counters[worker];
        let session = &cells.session;
        WorkerStats {
            worker,
            jobs: cells.jobs(),
            steals: cells.steals.get(),
            panics: cells.resolved(AuditOutcome::WorkerPanicked),
            slices: cells.slices.get(),
            preemptions: cells.preemptions.get(),
            deadline_misses: cells.resolved(AuditOutcome::DeadlineExceeded),
            cancellations: cells.resolved(AuditOutcome::Canceled),
            sessions_retired: cells.sessions_retired.get(),
            local_coercion_nodes: session.local_coercion_nodes.get(),
            local_type_nodes: session.local_type_nodes.get(),
            coercion_probes: session.coercion_probes.get(),
            coercion_base_hits: session.coercion_base_hits.get(),
            compose_probes: session.compose_probes.get(),
            compose_base_hits: session.compose_base_hits.get(),
            type_base_hits: session.type_base_hits.get(),
            programs_lowered: session.programs_lowered.get(),
            parked_depth: self.shared.obs.parked_depth[worker].get() as usize,
            queue_depth: lock(&self.shared.queues[worker].deque).len(),
        }
    }

    /// Renders the pool's metrics as a Prometheus-style text
    /// exposition: `bc_jobs_total{outcome="…"}`, the
    /// `bc_job_latency_ns` and `bc_job_queue_wait_ns` histograms, the
    /// scheduler and lifecycle counters (`bc_slices_total`,
    /// `bc_preemptions_total`, `bc_steals_total`,
    /// `bc_promotions_total`, `bc_promotion_ns_total`,
    /// `bc_respawns_total`, `bc_sessions_retired_total`,
    /// `bc_audit_dropped_total`), one counter per [`WorkerStats`]
    /// session count (`bc_local_coercion_nodes_total`,
    /// `bc_coercion_probes_total`, …), and the gauges (`bc_epoch`,
    /// `bc_workers`, per-worker `bc_queue_depth` / `bc_parked_depth`,
    /// and the cumulative `bc_coercion_base_hit_rate` /
    /// `bc_compose_base_hit_rate`). Counters and histograms read their
    /// live cells, as does the parked depth; the other gauges are
    /// refreshed from a [`SessionPool::stats`] snapshot at render time.
    pub fn metrics_text(&self) -> String {
        self.shared.obs.render(&self.stats())
    }

    /// Drains the audit stream: every buffered [`AuditRecord`]
    /// (oldest first), leaving the ring empty. Records evicted
    /// between drains are counted by [`SessionPool::audit_dropped`],
    /// never silently lost.
    pub fn audit_records(&self) -> Vec<AuditRecord> {
        self.shared.obs.sink().drain()
    }

    /// Audit records evicted from the ring without being drained
    /// (exact — the overload accounting is deterministic: emitted =
    /// drained + buffered + dropped).
    pub fn audit_dropped(&self) -> u64 {
        self.shared.obs.sink().dropped()
    }

    /// Drains the audit stream into `out` as JSON lines, returning
    /// how many records were written.
    ///
    /// # Errors
    ///
    /// Propagates the writer's error (see
    /// [`AuditSink::drain_to`](bc_obs::AuditSink::drain_to)).
    pub fn drain_audit_to(&self, out: &mut dyn std::io::Write) -> std::io::Result<usize> {
        self.shared.obs.sink().drain_to(out)
    }

    /// Graceful shutdown: closes intake and lets the workers drain
    /// every already-submitted job until `deadline`. Past it, every
    /// job still queued, parked or running resolves to
    /// [`JobError::Canceled`] at its next scheduling boundary, as on a
    /// drop, so a divergent job cannot hold the shutdown up. Then it
    /// joins the workers and returns the final accounting.
    ///
    /// # Panics
    ///
    /// Propagates a worker thread's panic (job-level panics are
    /// caught and typed as [`JobError::WorkerPanicked`]; a panic that
    /// escapes the worker loop itself is an internal bug).
    pub fn shutdown(mut self, deadline: Deadline) -> PoolStats {
        if let Some(panic) = self.close(deadline) {
            std::panic::resume_unwind(panic);
        }
        self.stats()
    }

    /// The one close path: closes intake, waits for the workers to
    /// drain until `deadline`, then cancels what they still hold and
    /// joins them. Returns the first join panic.
    fn close(&mut self, deadline: Deadline) -> Option<Box<dyn std::any::Any + Send + 'static>> {
        self.shared.open.store(false, Ordering::Release);
        for queue in &self.shared.queues {
            queue.ready.notify_all();
        }
        while !deadline.expired() && self.handles.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.dropping.store(true, Ordering::Release);
        let mut first_panic = None;
        for handle in self.handles.drain(..) {
            if let Err(panic) = handle.join() {
                first_panic.get_or_insert(panic);
            }
        }
        first_panic
    }
}

impl Drop for SessionPool {
    /// Dropping the pool is a [`SessionPool::shutdown`] whose deadline
    /// has already passed: it closes intake, and every queued, parked
    /// or running job resolves to [`JobError::Canceled`] (with its
    /// audit record) at its next scheduling boundary — admission or a
    /// slice boundary. Then it joins the workers. A
    /// [`SessionPoolBuilder::no_slicing`] pool's running job has no
    /// slice boundary, so the drop waits for it to finish or exhaust
    /// its fuel. Worker panics are swallowed here; use
    /// [`SessionPool::shutdown`] to surface them.
    fn drop(&mut self) {
        let _ = self.close(Deadline::at(Instant::now()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source whose ascription tower grows with `depth`, so each
    /// deeper compile interns strictly more type and coercion nodes.
    fn tower(depth: usize) -> String {
        let mut ty = String::from("Int");
        for _ in 0..depth {
            ty = format!("Int -> ({ty})");
        }
        format!("let f = ((fun x => x) : ?) in let g = (f : {ty}) in 1")
    }

    /// The torn-base unit test: concurrent readers doing epoch-cached
    /// `refresh` loops against a publisher hot-swapping bases must
    /// only ever see (epoch, base) pairs that belong together, with
    /// epochs observed in monotone order.
    #[test]
    fn epoch_reads_are_never_torn() {
        // One growing session, frozen after each tower: base i+1
        // strictly extends base i, and node counts identify epochs.
        let session = Session::builder().build();
        let mut bases = Vec::new();
        for depth in 1..=6 {
            session.compile(&tower(depth)).expect("tower compiles");
            bases.push(session.freeze());
        }
        // expected[e] = the node counts of the base published as
        // epoch e (epoch 1 = bases[0]).
        let expected: Vec<(usize, usize)> = bases
            .iter()
            .map(|b| (b.coercion_nodes(), b.type_nodes()))
            .collect();

        let cell = Arc::new(EpochBase::new(Arc::clone(&bases[0])));
        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let done = Arc::clone(&done);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let (mut seen, mut base) = cell.load();
                    let mut observed = 1usize;
                    while !done.load(Ordering::Acquire) {
                        if let Some((epoch, next)) = cell.refresh(seen) {
                            assert!(epoch > seen, "epochs must advance monotonically");
                            seen = epoch;
                            base = next;
                            observed += 1;
                        }
                        // The pair must always belong together — a
                        // torn read would pair a new epoch number
                        // with an old snapshot (or vice versa).
                        assert_eq!(
                            (base.coercion_nodes(), base.type_nodes()),
                            expected[(seen - 1) as usize],
                            "epoch {seen} paired with the wrong base"
                        );
                    }
                    observed
                })
            })
            .collect();
        for next in &bases[1..] {
            std::thread::sleep(Duration::from_millis(2));
            cell.publish(Arc::clone(next));
        }
        // Let the readers observe the final epoch before stopping.
        std::thread::sleep(Duration::from_millis(5));
        done.store(true, Ordering::Release);
        for reader in readers {
            let observed = reader.join().expect("reader panics are test failures");
            assert!(observed >= 1);
        }
        assert_eq!(cell.epoch(), bases.len() as u64);
    }

    #[test]
    fn refresh_is_a_no_op_on_the_current_epoch() {
        let session = Session::builder().build();
        session.compile(&tower(1)).expect("compiles");
        let cell = EpochBase::new(session.freeze());
        let (epoch, _) = cell.load();
        assert_eq!(epoch, 1);
        assert!(cell.refresh(epoch).is_none());
        session.compile(&tower(2)).expect("compiles");
        let published = cell.publish(session.freeze());
        assert_eq!(published, 2);
        let (epoch, base) = cell.refresh(1).expect("epoch moved");
        assert_eq!(epoch, 2);
        assert!(base.type_nodes() > 0);
    }
}

//! Shared instrumentation types for the abstract machines.

use bc_syntax::reduce::Slice;
use bc_syntax::Label;
use bc_translate::bisim::Observation;

/// The final outcome of a machine run, reported as the
/// calculus-agnostic [`Observation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineOutcome {
    /// The machine halted with a value (observed shape).
    Value(Observation),
    /// The machine allocated blame.
    Blame(Label),
    /// Fuel was exhausted.
    Timeout,
}

impl MachineOutcome {
    /// Converts to a plain observation (merging the `Blame`/`Timeout`
    /// constructors with their `Observation` counterparts).
    pub fn to_observation(&self) -> Observation {
        match self {
            MachineOutcome::Value(o) => o.clone(),
            MachineOutcome::Blame(p) => Observation::Blame(*p),
            MachineOutcome::Timeout => Observation::Timeout,
        }
    }
}

/// Arena/cache reuse counters for one machine run — the deltas of the
/// coercion arena's and compose cache's counters between entering and
/// leaving the machine.
///
/// Only the λS machine populates these (λB/λC have no arena; their
/// runs report all-zero reuse). They let benches and server code
/// *observe* sharing instead of guessing: on the compiled-IR path
/// [`tree_interns`](ReuseStats::tree_interns) is zero — a boundary
/// crossing loads a `Copy` id and merges through the cache — while the
/// tree path pays one hash walk per `Coerce` node compiled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Tree-interning operations (coercion-tree nodes hash-walked
    /// into the arena) performed during the run. Zero on the compiled
    /// path: every coercion was interned once, at compile time.
    pub tree_interns: u64,
    /// Node interns answered by the hash-consing index.
    pub node_hits: u64,
    /// Node interns that stored a new arena node.
    pub node_misses: u64,
    /// Frame/proxy merges answered by the compose cache.
    pub compose_hits: u64,
    /// Frame/proxy merges computed structurally (then cached).
    pub compose_misses: u64,
    /// Memoized pairs evicted by the cache's second-chance policy.
    pub cache_evictions: u64,
    /// Distinct coercion nodes in the arena when the run finished.
    pub arena_nodes: usize,
}

/// Space/time instrumentation collected during a machine run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Machine transitions taken.
    pub steps: u64,
    /// Peak continuation depth (total frames).
    pub peak_frames: usize,
    /// Peak number of cast/coercion frames on the continuation — the
    /// quantity that leaks in λB/λC and stays O(1) in λS.
    pub peak_cast_frames: usize,
    /// Peak total size (syntax nodes) of all casts/coercions held by
    /// the continuation.
    pub peak_cast_size: usize,
    /// Arena/cache reuse during the run (λS machine only; all-zero
    /// for λB/λC).
    pub reuse: ReuseStats,
}

impl Metrics {
    /// Records a snapshot of the continuation.
    pub fn observe(&mut self, frames: usize, cast_frames: usize, cast_size: usize) {
        self.peak_frames = self.peak_frames.max(frames);
        self.peak_cast_frames = self.peak_cast_frames.max(cast_frames);
        self.peak_cast_size = self.peak_cast_size.max(cast_size);
    }
}

/// Result of a machine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineRun {
    /// The outcome.
    pub outcome: MachineOutcome,
    /// The collected metrics.
    pub metrics: Metrics,
}

/// Result of driving a resumable machine for one fuel slice: either
/// the run finished (value, blame, or fuel exhaustion — a final
/// [`MachineRun`]) or the slice budget ran out first and the machine
/// parked itself for a later `resume`.
///
/// Every machine checks **fuel before slice**: a slice at least as
/// large as the remaining fuel can never park, so `resume(start(t,
/// fuel), fuel)` is exactly the unsliced run. Slicing only chooses
/// where the loop returns — steps, peaks, and outcomes are identical
/// to an unsliced run by construction (and property-tested in
/// `tests/sched.rs`).
pub type SliceResult<P> = Slice<P, MachineRun>;

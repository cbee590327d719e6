//! Scheduling primitives for the preemptive serving front end:
//! fuel-timeslicing budgets, per-job deadlines, and the shared
//! completion cell behind [`JobHandle`](crate::pool::JobHandle).
//!
//! The paper's machines are step-functions over explicit state, so
//! preemption costs nothing in principle: a worker runs a job for a
//! [`SliceBudget`] worth of machine transitions, parks the machine
//! state (`Session::resume_slice`'s `PausedRun`), serves other jobs,
//! and resumes later. This module holds the pieces that are *not*
//! machine state:
//!
//! * [`SliceBudget`] — how many steps a job may take per turn before
//!   it is preempted and re-queued behind its worker's other jobs;
//! * [`Deadline`] — a wall-clock bound checked at slice boundaries
//!   (cooperative, like the preemption itself: a job never observes
//!   its deadline mid-slice);
//! * `JobState` (crate-private) — the `Mutex` + `Condvar` completion
//!   cell a
//!   submission and its serving worker share, carrying the result,
//!   an optional `on_ready` callback, the cancellation flag, and the
//!   in-flight accounting used for bounded-queue backpressure.
//!
//! The scheduler itself — the per-worker run queue with round-robin
//! slicing — lives in the worker loop (`src/pool.rs`); these types
//! are deliberately mechanism, not policy.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::pool::{JobError, JobOutput};

/// Steps a job may run per scheduling turn before it is preempted.
///
/// Fuel, slices, and reported step counts all use the same unit: one
/// machine transition (or one small-step reduction — the engines
/// enforce a 1:1 accounting, see the fuel check in
/// `bc_machine::cek_s`). A slice is therefore a *deterministic* unit
/// of work, not a wall-clock guess, and sliced execution is
/// observationally identical to unsliced execution by construction.
///
/// # Default rationale (measured)
///
/// The default is **4096 steps**. On the release-mode six-shape bench
/// workload a λS machine transition costs on the order of 40–80 ns,
/// so a slice is roughly 0.2–0.3 ms — two orders of magnitude above
/// the park/resume overhead (moving a `PausedRun` through the run
/// queue is a few pointer moves plus one counter update), and two
/// orders of magnitude below the default 1M-step fuel, so a divergent
/// spinner is preempted ~244 times instead of pinning its worker
/// once. In a release-mode measurement, sliced and unsliced latency
/// on an all-convergent batch agreed within noise (p50 0.52 ms vs
/// 0.51 ms), while the p99 latency of convergent jobs sharing one
/// worker with four spinners dropped from the spinners' full fuel burn
/// (~206 ms) to a handful of slices (~6 ms); `tests/sched.rs` checks
/// the ordering on every change. Shrink the budget for
/// tighter preemption latency (slice 1 still satisfies the identity
/// property — it is just all scheduling overhead); grow it toward
/// the fuel bound to approach unsliced behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceBudget(u64);

impl SliceBudget {
    /// A budget of `steps` machine transitions per scheduling turn.
    ///
    /// # Panics
    ///
    /// Panics on zero: a zero-step slice parks without progressing —
    /// the scheduler would spin forever.
    pub fn new(steps: u64) -> SliceBudget {
        assert!(steps > 0, "a SliceBudget must allow at least one step");
        SliceBudget(steps)
    }

    /// The budget in steps (machine transitions).
    pub fn steps(self) -> u64 {
        self.0
    }
}

impl Default for SliceBudget {
    fn default() -> SliceBudget {
        SliceBudget(4096)
    }
}

impl fmt::Display for SliceBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} steps/slice", self.0)
    }
}

/// A wall-clock bound on one job, enforced cooperatively at slice
/// boundaries: before a job's next slice starts, an expired deadline
/// resolves it to [`JobError::DeadlineExceeded`] with the steps it
/// actually took and the time it actually spent. A job is never
/// interrupted mid-slice, so the enforcement latency is bounded by
/// one [`SliceBudget`] worth of steps (plus queueing on the worker's
/// run queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + timeout,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at }
    }

    /// Whether the deadline has passed.
    pub(crate) fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

type ReadyCallback = Box<dyn FnOnce(&Result<JobOutput, JobError>) + Send>;

/// The completion cell a job submission and its serving worker share:
/// the submitter's `JobHandle` and the worker's [`ReplySlot`] are the
/// two halves. Resolution happens exactly once (first write wins —
/// worker reply, cancellation, and the lost-on-drop backstop all
/// funnel through [`JobState::resolve`]); waiting is a condvar park,
/// polling a try-lock-free mutex peek, and `on_ready` callbacks fire
/// on the resolving thread (immediately, if already resolved).
pub(crate) struct JobState {
    cell: Mutex<JobCell>,
    ready: Condvar,
}

struct JobCell {
    result: Option<Result<JobOutput, JobError>>,
    callback: Option<ReadyCallback>,
    canceled: bool,
    /// The submission queue's in-flight counter, decremented exactly
    /// once — at resolution — so bounded-queue backpressure tracks
    /// jobs the pool still owes an answer, not just queued ones.
    inflight: Option<Arc<AtomicUsize>>,
}

impl fmt::Debug for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cell = self.lock();
        f.debug_struct("JobState")
            .field("resolved", &cell.result.is_some())
            .field("canceled", &cell.canceled)
            .finish()
    }
}

impl JobState {
    /// A fresh, unresolved cell; `inflight` (if any) is decremented
    /// once when the cell resolves.
    pub(crate) fn new(inflight: Option<Arc<AtomicUsize>>) -> Arc<JobState> {
        Arc::new(JobState {
            cell: Mutex::new(JobCell {
                result: None,
                callback: None,
                canceled: false,
                inflight,
            }),
            ready: Condvar::new(),
        })
    }

    /// A cell born resolved — how rejected submissions hand back a
    /// typed error without ever entering a queue.
    pub(crate) fn resolved(result: Result<JobOutput, JobError>) -> Arc<JobState> {
        let state = JobState::new(None);
        state.resolve(result);
        state
    }

    fn lock(&self) -> MutexGuard<'_, JobCell> {
        // Poisoning is survivable everywhere the pool locks: see
        // `pool::lock`. A panicking callback leaves a fully-resolved,
        // valid cell behind.
        self.cell
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Resolves the job; the first resolution wins and later ones are
    /// dropped (a worker replying to a job the submitter already
    /// canceled, the drop backstop firing after a real reply).
    pub(crate) fn resolve(&self, result: Result<JobOutput, JobError>) {
        let (callback, result_for_callback, inflight) = {
            let mut cell = self.lock();
            if cell.result.is_some() {
                return;
            }
            let callback = cell.callback.take();
            let for_callback = callback.as_ref().map(|_| result.clone());
            cell.result = Some(result);
            (callback, for_callback, cell.inflight.take())
        };
        self.ready.notify_all();
        if let Some(counter) = inflight {
            counter.fetch_sub(1, Ordering::AcqRel);
        }
        // Outside the lock: a callback is arbitrary user code and may
        // itself poke the handle.
        if let Some(callback) = callback {
            callback(&result_for_callback.expect("cloned alongside the callback"));
        }
    }

    /// Blocks until resolved.
    pub(crate) fn wait(&self) -> Result<JobOutput, JobError> {
        let mut cell = self.lock();
        loop {
            if let Some(result) = &cell.result {
                return result.clone();
            }
            cell = self
                .ready
                .wait(cell)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Blocks until resolved or `timeout` elapses; `None` on timeout
    /// (the job stays in flight and the cell stays valid).
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobOutput, JobError>> {
        let deadline = Instant::now() + timeout;
        let mut cell = self.lock();
        loop {
            if let Some(result) = &cell.result {
                return Some(result.clone());
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (guard, _) = self
                .ready
                .wait_timeout(cell, remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            cell = guard;
        }
    }

    /// Non-blocking probe.
    pub(crate) fn try_wait(&self) -> Option<Result<JobOutput, JobError>> {
        self.lock().result.clone()
    }

    /// Registers (or immediately fires, if already resolved) the
    /// completion callback. One callback per job: a second
    /// registration replaces an unfired first.
    pub(crate) fn on_ready(&self, callback: ReadyCallback) {
        let mut cell = self.lock();
        match cell.result.clone() {
            Some(result) => {
                drop(cell);
                callback(&result);
            }
            None => cell.callback = Some(callback),
        }
    }

    /// Requests cancellation: marks the cell canceled and — if the
    /// job has not resolved yet — resolves it to
    /// [`JobError::Canceled`] immediately, so the submitter never
    /// waits on a job it gave up on. The serving worker observes the
    /// flag at its next queue pop or slice boundary and discards its
    /// side of the job there.
    pub(crate) fn cancel(&self) {
        {
            let mut cell = self.lock();
            cell.canceled = true;
        }
        self.resolve(Err(JobError::Canceled));
    }

    /// Whether cancellation was requested (checked by workers at
    /// scheduling boundaries).
    pub(crate) fn is_canceled(&self) -> bool {
        self.lock().canceled
    }
}

/// The worker's half of a [`JobState`]: resolves the job, and — the
/// backstop that keeps every handle answerable — resolves it to
/// [`JobError::Lost`] on drop if nothing else resolved it first (a
/// job dropped by a closing pool, a worker dying in a way that skips
/// the typed panic path).
#[derive(Debug)]
pub(crate) struct ReplySlot(Arc<JobState>);

impl ReplySlot {
    pub(crate) fn new(state: Arc<JobState>) -> ReplySlot {
        ReplySlot(state)
    }

    pub(crate) fn resolve(&self, result: Result<JobOutput, JobError>) {
        self.0.resolve(result);
    }

    pub(crate) fn is_canceled(&self) -> bool {
        self.0.is_canceled()
    }
}

impl Drop for ReplySlot {
    fn drop(&mut self) {
        self.0.resolve(Err(JobError::Lost));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> Result<JobOutput, JobError> {
        Err(JobError::Canceled)
    }

    #[test]
    fn first_resolution_wins() {
        let state = JobState::new(None);
        state.resolve(output());
        state.resolve(Err(JobError::Lost));
        assert_eq!(state.try_wait(), Some(Err(JobError::Canceled)));
    }

    #[test]
    fn drop_backstop_reports_lost() {
        let state = JobState::new(None);
        drop(ReplySlot::new(Arc::clone(&state)));
        assert_eq!(state.try_wait(), Some(Err(JobError::Lost)));
    }

    #[test]
    fn inflight_decrements_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(1));
        let state = JobState::new(Some(Arc::clone(&counter)));
        let slot = ReplySlot::new(Arc::clone(&state));
        state.cancel();
        assert_eq!(counter.load(Ordering::Acquire), 0);
        drop(slot); // the Lost backstop must not double-decrement
        assert_eq!(counter.load(Ordering::Acquire), 0);
    }

    #[test]
    fn on_ready_fires_immediately_when_already_resolved() {
        let state = JobState::new(None);
        state.resolve(output());
        let fired = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&fired);
        state.on_ready(Box::new(move |r| {
            assert!(matches!(r, Err(JobError::Canceled)));
            seen.fetch_add(1, Ordering::AcqRel);
        }));
        assert_eq!(fired.load(Ordering::Acquire), 1);
    }

    #[test]
    fn slice_budget_rejects_zero() {
        assert!(std::panic::catch_unwind(|| SliceBudget::new(0)).is_err());
        assert_eq!(SliceBudget::default().steps(), 4096);
    }
}

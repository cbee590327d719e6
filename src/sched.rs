//! Scheduling primitives for the preemptive serving front end:
//! per-job deadlines and the shared completion cell behind
//! [`JobHandle`](crate::pool::JobHandle).
//!
//! The paper's machines are step-functions over explicit state, so
//! preemption costs nothing in principle: a worker runs a job for a
//! slice of machine transitions, parks the machine state
//! (`Session::resume_slice`'s `PausedRun`), serves other jobs, and
//! resumes later. This module holds the pieces that are *not* machine
//! state:
//!
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

/// A wall-clock bound on one job, enforced cooperatively at slice
/// boundaries: before a job's next slice starts, an expired deadline
/// resolves it to [`JobError::DeadlineExceeded`] with the steps it
/// actually took and the time it actually spent. A job is never
/// interrupted mid-slice, so the enforcement latency is bounded by
/// one slice of steps (plus queueing on the worker's run queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// `None` when the deadline lies past what an `Instant` can hold:
    /// it never expires.
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `timeout` from now. A `timeout` past the range an
    /// `Instant` can hold (e.g. `Duration::MAX`) never expires.
    pub fn after(timeout: Duration) -> Deadline {
        Deadline {
            at: Instant::now().checked_add(timeout),
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at: Some(at) }
    }

    /// Whether the deadline has passed.
    pub(crate) fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
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
    /// (the job stays in flight and the cell stays valid). A `timeout`
    /// past the range an `Instant` can hold waits until resolution.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobOutput, JobError>> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Some(self.wait());
        };
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
}

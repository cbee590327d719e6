//! Integration tests for the preemptive scheduling front end.
//!
//! Two layers under test:
//!
//! * **Resumable runs** (`Session::start_run`/`resume_slice`): sliced
//!   execution must be *identical* to unsliced execution — same
//!   observation, same step count, same fuel-exhaustion accounting,
//!   same machine space metrics — for every engine and every slice
//!   size. Slicing is a scheduling concern; semantics may not notice.
//! * **The timeslicing pool**: round-robin fairness under divergent
//!   spinners, wall-clock deadlines, cooperative cancellation,
//!   bounded-queue backpressure, `wait_timeout`, and the monotone
//!   scheduler counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bc_testkit::sources;
use blame_coercion::{
    Deadline, Engine, JobError, PoolStats, RunError, RunReport, Session, SessionPool, SliceOutcome,
};

const FUEL: u64 = 300;

/// The semantic fingerprint of a run result: observation, steps, and
/// the full machine metrics (space peaks, reuse accounting) or the
/// typed error with its step count — everything slicing must
/// preserve. `RunReport::elapsed` is deliberately excluded: it is a
/// wall-clock measurement, the one field two otherwise-identical runs
/// never agree on.
fn result_fingerprint(result: &Result<RunReport, RunError>) -> String {
    match result {
        Ok(r) => format!("{:?} / {} steps / {:?}", r.observation, r.steps, r.metrics),
        Err(e) => format!("{e:?}"),
    }
}

/// A divergent λ-term: always exhausts whatever fuel it is given.
const SPINNER: &str = "letrec spin (n : Int) : Int = spin (n + 1) in spin 0";

/// Runs `source` on `engine` in a fresh session, driven in `slice`-
/// step turns through the resumable API, asserting parked runs
/// advance monotonically and stay below the fuel line.
fn sliced_fingerprint(source: &str, engine: Engine, slice: u64) -> String {
    let session = Session::new();
    let program = session.compile(source).expect("testkit sources compile");
    let mut paused = session.start_run(&program, engine, FUEL);
    let mut last_steps = paused.steps();
    let mut turns = 0u64;
    let result = loop {
        match session.resume_slice(paused, slice) {
            SliceOutcome::Done(result) => break result,
            SliceOutcome::Parked(next) => {
                assert!(
                    next.steps() >= last_steps && next.steps() <= FUEL,
                    "parked runs advance and never pass the fuel bound"
                );
                last_steps = next.steps();
                turns += 1;
                assert!(
                    turns <= FUEL + 2,
                    "a {slice}-step slice loop must terminate within the fuel bound"
                );
                paused = next;
            }
        }
    };
    result_fingerprint(&result)
}

/// Reference: the ordinary unsliced run in its own fresh session
/// (fresh because a run warms the compose cache, and the reuse
/// metrics of a *second* run over the same session would differ).
fn unsliced_fingerprint(source: &str, engine: Engine) -> String {
    let session = Session::new();
    let program = session.compile(source).expect("testkit sources compile");
    result_fingerprint(&session.run_with_fuel(&program, engine, FUEL))
}

/// The tentpole property: sliced ≡ unsliced, for every engine, over
/// generated programs covering every shape (boundary loops, cast-free
/// loops, dynamic reuse, runtime blame, divergent spinners), at slice
/// sizes from pathological (1) through typical to degenerate (the
/// whole fuel bound).
#[test]
fn sliced_runs_are_identical_to_unsliced_runs_on_every_engine() {
    let programs = sources::mixed(11, 9);
    for source in &programs {
        for engine in Engine::ALL {
            let reference = unsliced_fingerprint(source, engine);
            for slice in [1, 7, 64, FUEL] {
                assert_eq!(
                    sliced_fingerprint(source, engine, slice),
                    reference,
                    "engine {engine:?}, slice {slice} diverged on:\n{source}"
                );
            }
        }
    }
}

/// Fairness: a 64-job single-worker batch
/// with 4 divergent spinners completes *every* convergent job before
/// *any* spinner exhausts its fuel — round-robin slicing gives a
/// spinner one slice per rotation, never the whole worker.
#[test]
fn convergent_jobs_outrun_spinners_on_a_single_worker() {
    let pool = SessionPool::builder()
        .workers(1)
        .build()
        .expect("no warmup to fail");
    let shapes = sources::mixed(23, 64);
    let spinner_at = |i: usize| i % 16 == 0; // jobs 0, 16, 32, 48
    let order = Arc::new(AtomicU64::new(0));
    let mut completions = Vec::new();
    let handles: Vec<_> = (0..64)
        .map(|i| {
            // Convergent jobs come from the generated mix, skipping
            // its own spinner shape (shape 5 of 6).
            let source = if spinner_at(i) {
                SPINNER.to_owned()
            } else {
                shapes[if i % 6 == 5 { i + 1 } else { i }].clone()
            };
            let handle = pool.submit_with_fuel(source, Engine::MachineS, 1_000_000);
            let seq = Arc::new(AtomicU64::new(u64::MAX));
            let (order, slot) = (Arc::clone(&order), Arc::clone(&seq));
            handle.on_ready(move |_| {
                slot.store(order.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            });
            completions.push(seq);
            handle
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let result = handle.wait();
        if spinner_at(i) {
            assert!(
                matches!(
                    result,
                    Err(JobError::Run(RunError::FuelExhausted {
                        steps: 1_000_000,
                        ..
                    }))
                ),
                "spinner {i} must exhaust exactly its fuel, got {result:?}"
            );
        } else {
            assert!(result.is_ok(), "convergent job {i} failed: {result:?}");
        }
    }
    let last_convergent = (0..64)
        .filter(|&i| !spinner_at(i))
        .map(|i| completions[i].load(Ordering::SeqCst))
        .max()
        .expect("there are convergent jobs");
    let first_spinner = (0..64)
        .filter(|&i| spinner_at(i))
        .map(|i| completions[i].load(Ordering::SeqCst))
        .min()
        .expect("there are spinners");
    assert!(
        last_convergent < first_spinner,
        "every convergent job must complete (order {last_convergent}) before any \
         spinner exhausts its fuel (order {first_spinner})"
    );
    let stats = pool.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(stats.jobs(), 64);
    assert!(
        stats.preemptions() >= 4,
        "four million-step spinners must park many times, saw {}",
        stats.preemptions()
    );
    assert!(stats.slices() > stats.preemptions());
}

/// `wait_timeout` returns `None` on timeout *without losing the job*:
/// the same handle later collects the real result.
#[test]
fn wait_timeout_expires_without_losing_the_job() {
    let pool = SessionPool::builder()
        .workers(1)
        .build()
        .expect("no warmup to fail");
    // 2M steps keeps the spinner busy well past the poll below, in
    // debug and release alike.
    let slow = pool.submit_with_fuel(SPINNER, Engine::MachineS, 2_000_000);
    assert!(
        slow.wait_timeout(Duration::from_millis(1)).is_none(),
        "a 2M-step spinner cannot finish in a millisecond"
    );
    assert!(slow.try_wait().is_none(), "timing out resolved nothing");
    // The job is still live: the next wait collects its real result.
    match slow.wait() {
        Err(JobError::Run(RunError::FuelExhausted { steps, .. })) => {
            assert_eq!(steps, 2_000_000);
        }
        other => panic!("expected fuel exhaustion, got {other:?}"),
    }
    // And a completed job answers a timed wait immediately.
    let quick = pool.submit("1 + 1", Engine::MachineS);
    match quick.wait_timeout(Duration::from_secs(30)) {
        Some(Ok(out)) => assert_eq!(out.observation.to_string(), "2"),
        other => panic!("expected completion, got {other:?}"),
    }
    // A wait past the range an `Instant` can hold waits until the job
    // resolves, instead of overflowing.
    let unbounded = pool.submit("2 + 2", Engine::MachineS);
    match unbounded.wait_timeout(Duration::MAX) {
        Some(Ok(out)) => assert_eq!(out.observation.to_string(), "4"),
        other => panic!("expected completion, got {other:?}"),
    }
}

/// Cancellation resolves the handle immediately and the worker
/// discards its side at the next scheduling boundary — the pool
/// serves the next job instead of burning the spinner's fuel.
#[test]
fn cancel_stops_a_running_spinner_at_a_slice_boundary() {
    let pool = SessionPool::builder()
        .workers(1)
        .build()
        .expect("no warmup to fail");
    let doomed = pool.submit_with_fuel(SPINNER, Engine::MachineS, u64::MAX);
    // Give the worker a moment to start slicing it, then cancel.
    std::thread::sleep(Duration::from_millis(5));
    doomed.cancel();
    assert_eq!(doomed.wait(), Err(JobError::Canceled));
    // The worker is free again: an unbounded spinner would otherwise
    // pin it forever (and this wait would hang).
    let after = pool.submit("1 + 1", Engine::MachineS).wait();
    assert!(after.is_ok(), "worker still pinned: {after:?}");
    let stats = pool.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(stats.cancellations(), 1);
    // Canceling an already-resolved job is a no-op: covered above by
    // `doomed.wait()` returning Canceled exactly once.
}

/// Deadlines are enforced at slice boundaries with the real step and
/// wall-clock accounting in the error.
#[test]
fn deadlines_resolve_to_typed_misses_with_accounting() {
    let pool = SessionPool::builder()
        .workers(1)
        .build()
        .expect("no warmup to fail");
    let deadline = Duration::from_millis(20);
    let handle = pool.submit_with_options(
        SPINNER,
        Engine::MachineS,
        Some(u64::MAX),
        Some(Deadline::after(deadline)),
    );
    match handle.wait() {
        Err(JobError::DeadlineExceeded { steps, elapsed }) => {
            assert!(steps > 0, "the spinner ran before missing its deadline");
            assert!(
                elapsed >= deadline,
                "elapsed {elapsed:?} must cover the deadline {deadline:?}"
            );
        }
        other => panic!("expected a deadline miss, got {other:?}"),
    }
    // A deadline a finished job never reaches is invisible.
    let easy = pool.submit_with_options(
        "1 + 1",
        Engine::MachineS,
        None,
        Some(Deadline::after(Duration::from_secs(60))),
    );
    assert!(easy.wait().is_ok());
    // Nor does one past the range an `Instant` can hold: it never
    // expires, instead of overflowing.
    let unbounded = pool.submit_with_options(
        "1 + 1",
        Engine::MachineS,
        None,
        Some(Deadline::after(Duration::MAX)),
    );
    assert!(unbounded.wait().is_ok());
    let stats = pool.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(stats.deadline_misses(), 1);
}

/// Bounded backpressure: submissions past the per-worker in-flight
/// capacity reject immediately and typed; resolving a job (here by
/// cancellation) frees its slot.
#[test]
fn bounded_queues_reject_typed_and_recover_on_resolution() {
    let pool = SessionPool::builder()
        .workers(1)
        .queue_capacity(2)
        .build()
        .expect("no warmup to fail");
    let first = pool.submit_with_fuel(SPINNER, Engine::MachineS, u64::MAX);
    let second = pool.submit_with_fuel(SPINNER, Engine::MachineS, u64::MAX);
    // Two unbounded spinners fill the capacity; the third submission
    // must reject deterministically — the spinners can never resolve
    // on their own.
    let rejected = pool.submit("1 + 1", Engine::MachineS);
    assert_eq!(
        rejected.try_wait(),
        Some(Err(JobError::Rejected { queue_depth: 2 })),
        "a rejected submission resolves before it returns"
    );
    // Resolution — any resolution — frees the slot.
    first.cancel();
    second.cancel();
    let accepted = pool.submit("1 + 1", Engine::MachineS);
    let result = accepted.wait();
    assert!(result.is_ok(), "slot did not free after cancel: {result:?}");
    assert_eq!(first.wait(), Err(JobError::Canceled));
    assert_eq!(second.wait(), Err(JobError::Canceled));
    pool.shutdown(Deadline::after(Duration::MAX));
}

fn monotone(label: &str, before: u64, after: u64) {
    assert!(
        after >= before,
        "{label} went backwards: {before} -> {after}"
    );
}

fn scheduler_counters(stats: &PoolStats) -> (u64, u64, u64, u64, u64) {
    (
        stats.jobs(),
        stats.slices(),
        stats.preemptions(),
        stats.deadline_misses(),
        stats.cancellations(),
    )
}

/// The scheduler counters are slot-level, so they survive epoch
/// rebuilds exactly like the PR-7 cumulative tier counters: a
/// drifting workload that forces promotions (session retirements on
/// every worker) must never see `slices`, `preemptions`,
/// `deadline_misses`, or `cancellations` move backwards.
#[test]
fn scheduler_counters_stay_monotone_across_epoch_rebuilds() {
    let pool = SessionPool::builder()
        .workers(2)
        .warmup(sources::shapes())
        .promotion(blame_coercion::PromotionPolicy {
            min_local_nodes: 1,
            min_miss_rate: 0.0,
            min_interval_jobs: 1,
        })
        .build()
        .expect("warmup compiles");
    let mut last = scheduler_counters(&pool.stats());
    let mut canceled = 0u64;
    for wave in 0..4 {
        let batch = sources::drifting(wave, 24, 8);
        let handles: Vec<_> = batch
            .iter()
            .map(|s| pool.submit_with_fuel(s.as_str(), Engine::MachineS, 50_000))
            .collect();
        // Sprinkle a cancellation in, so that counter moves too.
        let doomed = pool.submit_with_fuel(SPINNER, Engine::MachineS, u64::MAX);
        doomed.cancel();
        canceled += 1;
        for handle in handles {
            let result = handle.wait();
            assert!(
                !matches!(&result, Err(JobError::WorkerPanicked | JobError::Lost)),
                "drift wave {wave} lost a job: {result:?}"
            );
        }
        let stats = pool.stats();
        let now = scheduler_counters(&stats);
        monotone("jobs", last.0, now.0);
        monotone("slices", last.1, now.1);
        monotone("preemptions", last.2, now.2);
        monotone("deadline_misses", last.3, now.3);
        monotone("cancellations", last.4, now.4);
        assert!(
            stats.parked_depths().len() == 2,
            "one parked-depth gauge per worker"
        );
        last = now;
    }
    let stats = pool.shutdown(Deadline::after(Duration::MAX));
    assert!(
        stats.promotions >= 1,
        "the drifting workload must force at least one promotion"
    );
    assert!(stats.epoch > 1);
    assert!(stats.slices() >= stats.jobs() - stats.cancellations());
    assert_eq!(stats.cancellations(), canceled);
}

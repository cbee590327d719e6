//! Integration tests for the multi-threaded `SessionPool`: a pool
//! must be observationally identical to a single warm session run
//! sequentially (sharding is an optimisation, never a semantic
//! change), and a warmed pool must prove base-tier sharing — zero
//! local interning across all workers on structurally-covered
//! traffic.

use std::time::{Duration, Instant};

use bc_testkit::sources;
use blame_coercion::pool::WARMUP_RUN_FUEL;
use blame_coercion::{
    Deadline, Engine, JobError, JobHandle, PromotionPolicy, RunError, Session, SessionPool,
    SliceOutcome,
};

const FUEL: u64 = 50_000;
const SPIN: &str = "letrec spin (n : Int) : Int = spin (n + 1) in spin 0";

/// A promotion policy with every gate floored: any worker holding any
/// overlay growth promotes at its next job boundary. Tests use it so
/// drift workloads exercise many epochs in few jobs; production uses
/// the measured [`PromotionPolicy::default`].
fn eager_promotion() -> PromotionPolicy {
    PromotionPolicy {
        min_local_nodes: 1,
        min_miss_rate: 0.0,
        min_interval_jobs: 1,
    }
}

/// The outcome fingerprint shared by pool jobs and sequential runs:
/// observation (including blame labels), step count, and typed
/// errors with their step counts. Worker assignment and cache/tier
/// metrics are deliberately excluded — sharing shows up there, the
/// semantics must not.
fn job_fingerprint(result: Result<blame_coercion::JobOutput, JobError>) -> String {
    match result {
        Ok(out) => format!("{} in {} steps", out.observation, out.steps),
        Err(JobError::Compile(d)) => format!("compile error: {}", d.message),
        Err(JobError::Run(RunError::FuelExhausted { steps, .. })) => {
            format!("fuel exhausted at {steps}")
        }
        Err(JobError::Run(RunError::IllTyped(d))) => format!("ill typed: {}", d.message),
        Err(JobError::WorkerPanicked) => "worker panicked".to_owned(),
        Err(JobError::DeadlineExceeded { steps, .. }) => format!("deadline missed at {steps}"),
        Err(JobError::Canceled) => "canceled".to_owned(),
        Err(JobError::Rejected { queue_depth }) => format!("rejected at depth {queue_depth}"),
        Err(JobError::Lost) => "lost".to_owned(),
    }
}

fn session_fingerprint(session: &Session, source: &str, engine: Engine) -> String {
    let program = match session.compile(source) {
        Ok(p) => p,
        Err(d) => return format!("compile error: {}", d.message),
    };
    match session.run_with_fuel(&program, engine, FUEL) {
        Ok(r) => format!("{} in {} steps", r.observation, r.steps),
        Err(RunError::FuelExhausted { steps, .. }) => format!("fuel exhausted at {steps}"),
        Err(RunError::IllTyped(d)) => format!("ill typed: {}", d.message),
    }
}

#[test]
fn four_worker_pool_matches_a_sequential_warm_session() {
    // Satellite acceptance: a 64-program generated batch through a
    // 4-worker pool is observationally identical — outcomes, blame
    // labels, fuel-exhaustion fingerprints — to a single warm
    // session running the batch sequentially.
    let batch = sources::mixed(0xB1A3E, 64);
    let pool = SessionPool::builder()
        .workers(4)
        .default_fuel(FUEL)
        .warmup(sources::shapes())
        .build()
        .expect("warmup compiles");
    let handles: Vec<_> = batch
        .iter()
        .map(|s| pool.submit_with_fuel(s.as_str(), Engine::MachineS, FUEL))
        .collect();
    let from_pool: Vec<String> = handles
        .into_iter()
        .map(|h| job_fingerprint(h.wait()))
        .collect();

    let sequential = Session::builder().default_fuel(FUEL).build();
    let from_session: Vec<String> = batch
        .iter()
        .map(|s| session_fingerprint(&sequential, s, Engine::MachineS))
        .collect();

    assert_eq!(from_pool, from_session);
    // The mix actually exercised the interesting outcomes.
    assert!(
        from_pool.iter().any(|f| f.contains("blame")),
        "{from_pool:?}"
    );
    assert!(from_pool.iter().any(|f| f.contains("fuel exhausted")));
    assert_eq!(pool.shutdown(Deadline::after(Duration::MAX)).jobs(), 64);
}

#[test]
fn warmed_pool_workers_intern_nothing_past_the_base() {
    // Base sharing: after warmup on one
    // representative per shape, a 64-program structurally-similar
    // batch leaves every worker with zero locally interned coercion
    // and type nodes — the whole warm working set is served from the
    // shared frozen base.
    let pool = SessionPool::builder()
        .workers(4)
        .default_fuel(10_000)
        .warmup(sources::shapes())
        .build()
        .expect("warmup compiles");
    let base = pool.base();
    assert!(base.coercion_nodes() > 0);
    assert!(base.compose_pairs() > 0);

    let handles = pool.submit_batch(sources::mixed(7, 64), Engine::MachineS);
    for handle in handles {
        // Run errors (the divergent shape's fuel exhaustion) are
        // legitimate outcomes; compile errors are not.
        if let Err(e) = handle.wait() {
            assert!(matches!(e, JobError::Run(_)), "unexpected job error: {e}");
        }
    }
    let stats = pool.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(stats.jobs(), 64);
    assert_eq!(
        stats.local_coercion_nodes(),
        0,
        "a warmed pool must re-intern zero coercions: {stats}"
    );
    assert_eq!(
        stats.local_type_nodes(),
        0,
        "a warmed pool must re-intern zero types: {stats}"
    );
    // Per-worker: everyone who served traffic proves base-tier
    // sharing individually — every coercion probe it made was
    // answered by the base. (Which jobs a worker serves depends on
    // stealing, and one that only met cast-free shapes probes no
    // coercion at all.) The pool never left the warmup epoch, so
    // every worker session ran over the warmup base.
    assert_eq!(stats.epoch, 1);
    let mut served = 0usize;
    for w in &stats.workers {
        if w.jobs == 0 {
            continue;
        }
        served += 1;
        assert_eq!(w.local_coercion_nodes, 0, "worker {}", w.worker);
        assert_eq!(w.local_type_nodes, 0, "worker {}", w.worker);
        assert_eq!(
            w.coercion_base_hits, w.coercion_probes,
            "worker {}",
            w.worker
        );
        assert!(w.type_base_hits > 0, "worker {}", w.worker);
    }
    assert!(served >= 1);
    // Every intern probe across the pool was answered by the base.
    assert!(
        stats.coercion_base_hit_rate() > 0.999,
        "rate {}",
        stats.coercion_base_hit_rate()
    );
}

#[test]
fn warmed_jobs_are_equivalent_to_source_jobs() {
    // A warmed pool serves its warmup sources with the same outcomes
    // as a cold pool compiling the same text from scratch, and each
    // worker compiles a repeated source once.
    let warmed = SessionPool::builder()
        .workers(3)
        .default_fuel(FUEL)
        .warmup(sources::shapes())
        .build()
        .expect("warmup compiles");
    let cold = SessionPool::builder()
        .workers(3)
        .default_fuel(FUEL)
        .build()
        .expect("builds");

    // A mixed batch of repeated warmup sources, alternating engines.
    let batch: Vec<(String, Engine)> = sources::shapes()
        .into_iter()
        .cycle()
        .take(24)
        .zip([Engine::MachineS, Engine::LambdaS].into_iter().cycle())
        .collect();
    let from_warmed: Vec<_> = batch
        .iter()
        .map(|(s, e)| warmed.submit_with_fuel(s.as_str(), *e, FUEL))
        .collect();
    let from_cold: Vec<_> = batch
        .iter()
        .map(|(s, e)| cold.submit_with_fuel(s.as_str(), *e, FUEL))
        .collect();
    for ((source, engine), (warm_handle, cold_handle)) in
        batch.iter().zip(from_warmed.into_iter().zip(from_cold))
    {
        assert_eq!(
            job_fingerprint(warm_handle.wait()),
            job_fingerprint(cold_handle.wait()),
            "warmed and cold pools diverged on {engine}: {source}"
        );
    }

    // The warmed pool's workers lowered each distinct program at most
    // once: across 24 jobs over 6 shapes and 3 workers, at most 18
    // programs were lowered pool-wide (the worker-local cache served
    // every repeat, and the warmup epoch never moved, so no session
    // was rebuilt).
    let stats = warmed.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(stats.jobs(), 24);
    let lowered: u64 = stats.workers.iter().map(|w| w.programs_lowered).sum();
    assert!(
        lowered <= sources::SHAPES as u64 * 3,
        "workers must cache programs across repeated jobs, lowered {lowered}"
    );
    cold.shutdown(Deadline::after(Duration::MAX));
}

#[test]
fn cold_pool_still_serves_correctly() {
    // Without warmup each worker interns its own working set — more
    // memory, same answers.
    let pool = SessionPool::builder()
        .workers(2)
        .default_fuel(FUEL)
        .build()
        .expect("no warmup to fail");
    assert!(pool.base().coercion_nodes() == 0);
    let out = pool
        .submit(
            "let inc = fun x => x + 1 in (inc 41 : Int)",
            Engine::MachineS,
        )
        .wait()
        .expect("runs");
    assert_eq!(out.observation.to_string(), "42");
    let stats = pool.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(stats.jobs(), 1);
    assert!(stats.local_coercion_nodes() > 0, "cold pool pays locally");
}

#[test]
fn compile_errors_are_typed_job_errors() {
    let pool = SessionPool::builder().workers(2).build().expect("builds");
    match pool.submit("let x = in", Engine::MachineS).wait() {
        Err(JobError::Compile(d)) => assert!(!d.message.is_empty()),
        other => panic!("expected Compile error, got {other:?}"),
    }
    // An ill-typed (but parseable) program too.
    match pool.submit("1 true", Engine::MachineS).wait() {
        Err(JobError::Compile(_)) => {}
        other => panic!("expected Compile error, got {other:?}"),
    }
}

#[test]
fn fuel_exhaustion_reports_the_real_step_count_through_the_pool() {
    let pool = SessionPool::builder().workers(2).build().expect("builds");
    match pool.submit_with_fuel(SPIN, Engine::MachineS, 123).wait() {
        Err(JobError::Run(RunError::FuelExhausted { steps, metrics })) => {
            assert_eq!(steps, 123);
            assert!(metrics.is_some(), "machine engines carry metrics");
        }
        other => panic!("expected FuelExhausted, got {other:?}"),
    }
}

#[test]
fn all_engines_agree_through_the_pool() {
    let pool = SessionPool::builder()
        .workers(3)
        .default_fuel(FUEL)
        .warmup(sources::shapes())
        .build()
        .expect("warmup compiles");
    let source = "letrec even (n : Int) : Bool = \
                    if n = 0 then true else \
                    if n = 1 then false else even (n - 2) \
                  in even 10";
    let handles: Vec<_> = Engine::ALL
        .iter()
        .map(|&engine| pool.submit(source, engine))
        .collect();
    let outs: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait().expect("runs").observation.to_string())
        .collect();
    assert!(outs.iter().all(|o| o == "true"), "{outs:?}");
}

#[test]
fn shutdown_drains_already_submitted_jobs() {
    // Graceful shutdown: closing the queue lets the workers finish
    // every job already in it; every handle resolves.
    let pool = SessionPool::builder()
        .workers(2)
        .default_fuel(FUEL)
        .build()
        .expect("builds");
    let handles = pool.submit_batch(
        (0..16).map(|k| format!("let inc = fun x => x + {k} in (inc 1 : Int)")),
        Engine::MachineS,
    );
    let stats = pool.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(stats.jobs(), 16);
    for (k, handle) in handles.into_iter().enumerate() {
        let out = handle.wait().expect("drained before shutdown");
        assert_eq!(out.observation.to_string(), (k as i64 + 1).to_string());
    }
}

/// A one-worker pool holding two spinners with unbounded fuel on
/// `engine`, one running and one queued behind it.
fn spinning_pool(engine: Engine) -> (SessionPool, [JobHandle; 2]) {
    let pool = SessionPool::builder().workers(1).build().expect("builds");
    let spinners = [
        pool.submit_with_fuel(SPIN, engine, u64::MAX),
        pool.submit_with_fuel(SPIN, engine, u64::MAX),
    ];
    (pool, spinners)
}

fn assert_canceled(engine: Engine, spinners: [JobHandle; 2]) {
    for handle in spinners {
        let result = handle.try_wait();
        assert!(
            matches!(result, Some(Err(JobError::Canceled))),
            "{engine}: {result:?}"
        );
    }
}

#[test]
fn dropping_a_pool_cancels_its_divergent_jobs() {
    // Unlike shutdown, a drop does not drain: the spinners are
    // canceled at their next scheduling boundary, and the drop returns
    // — on every engine, since every engine parks. It runs on a helper
    // thread so a hang fails the test instead of hanging the binary.
    for engine in Engine::ALL {
        // A parked spinner reports the steps its slices took.
        let session = Session::new();
        let program = session.compile(SPIN).expect("compiles");
        match session.resume_slice(session.start_run(&program, engine, u64::MAX), 64) {
            SliceOutcome::Parked(paused) => assert!(paused.steps() > 0, "{engine}"),
            SliceOutcome::Done(r) => panic!("{engine}: a spinner finished: {r:?}"),
        }
        let (pool, spinners) = spinning_pool(engine);
        let (dropped, done) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(pool);
            dropped.send(()).expect("the test waits");
        });
        done.recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("{engine}: dropping the pool returns within 1 s"));
        dropper.join().expect("the drop does not panic");
        assert_canceled(engine, spinners);
    }
}

#[test]
fn shutdown_past_its_deadline_cancels_its_divergent_jobs() {
    // A shutdown drains until its deadline, then cancels what it still
    // holds: both spinners resolve Canceled on every engine, and the
    // returned stats count both. It runs on a helper thread so a hang
    // fails the test instead of hanging the binary.
    for engine in Engine::ALL {
        let (pool, spinners) = spinning_pool(engine);
        let (stopped, done) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            let stats = pool.shutdown(Deadline::after(Duration::from_millis(100)));
            stopped.send(stats).expect("the test waits");
        });
        let stats = done
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("{engine}: shutdown returns within 1 s"));
        stopper.join().expect("the shutdown does not panic");
        assert_canceled(engine, spinners);
        assert_eq!(stats.jobs(), 2, "{engine}");
        assert_eq!(stats.cancellations(), 2, "{engine}");
    }
}

#[test]
#[should_panic(expected = "at least 1 worker")]
fn zero_worker_pools_are_rejected() {
    let _ = SessionPool::builder().workers(0).build();
}

#[test]
fn promoting_pool_is_observationally_identical_under_drift() {
    // Promotion-determinism acceptance: a drifting 256-program batch
    // through a promoting pool is observationally identical to the
    // same batch through a non-promoting pool AND to a sequential
    // warm session. All jobs are in flight at once, so submits and
    // steals race the hot-swaps — a submit landing mid-promotion must
    // never observe a torn base (the epoch cell's unit tests check
    // the pair invariant directly; this checks it observationally).
    let batch = sources::drifting(0xD21F7, 256, 32);
    let promoting = SessionPool::builder()
        .workers(4)
        .default_fuel(FUEL)
        .promotion(eager_promotion())
        .build()
        .expect("builds");
    let frozen = SessionPool::builder()
        .workers(4)
        .default_fuel(FUEL)
        .no_promotion()
        .build()
        .expect("builds");
    // A third pool, warmed on the shapes, serves the drift with the
    // exact warmup sources interleaved: jobs matching a warmup source
    // must keep agreeing with the sequential session across every
    // promotion, not only in the warmup epoch.
    let warmed = SessionPool::builder()
        .workers(4)
        .default_fuel(FUEL)
        .warmup(sources::shapes())
        .promotion(eager_promotion())
        .build()
        .expect("warmup compiles");
    let interleaved: Vec<String> = batch
        .iter()
        .zip(sources::shapes().into_iter().cycle())
        .flat_map(|(drift, shape)| [drift.clone(), shape])
        .collect();

    let promoting_handles =
        promoting.submit_batch(batch.iter().map(String::as_str), Engine::MachineS);
    let frozen_handles = frozen.submit_batch(batch.iter().map(String::as_str), Engine::MachineS);
    let warmed_handles =
        warmed.submit_batch(interleaved.iter().map(String::as_str), Engine::MachineS);
    let from_promoting: Vec<String> = promoting_handles
        .into_iter()
        .map(|h| job_fingerprint(h.wait()))
        .collect();
    let from_frozen: Vec<String> = frozen_handles
        .into_iter()
        .map(|h| job_fingerprint(h.wait()))
        .collect();
    let from_warmed: Vec<String> = warmed_handles
        .into_iter()
        .map(|h| job_fingerprint(h.wait()))
        .collect();
    let sequential = Session::builder().default_fuel(FUEL).build();
    let from_session: Vec<String> = batch
        .iter()
        .map(|s| session_fingerprint(&sequential, s, Engine::MachineS))
        .collect();
    let interleaved_sequential = Session::builder().default_fuel(FUEL).build();
    let from_interleaved_session: Vec<String> = interleaved
        .iter()
        .map(|s| session_fingerprint(&interleaved_sequential, s, Engine::MachineS))
        .collect();

    // The drifting generator must produce real programs, not parse
    // errors agreeing with themselves.
    assert!(
        from_session.iter().all(|f| !f.contains("compile error")),
        "drifting sources must compile: {from_session:?}"
    );
    assert_eq!(from_promoting, from_session);
    assert_eq!(from_frozen, from_session);
    assert_eq!(from_warmed, from_interleaved_session);

    let stats = promoting.shutdown(Deadline::after(Duration::MAX));
    assert!(
        stats.promotions >= 1,
        "an eager policy under drift must promote: {stats}"
    );
    assert_eq!(stats.epoch, stats.promotions + 1);
    let frozen_stats = frozen.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(frozen_stats.epoch, 1);
    assert_eq!(frozen_stats.promotions, 0);
    let warmed_stats = warmed.shutdown(Deadline::after(Duration::MAX));
    assert!(
        warmed_stats.promotions >= 1,
        "the warmed pool must serve warmup sources past a promotion: {warmed_stats}"
    );
}

#[test]
fn promotion_recovers_the_base_hit_rate_and_cuts_overlay_interning() {
    // Drift recovery, on counters rather than timing:
    // after each rotation of a drifting workload, a promoting pool's
    // base-hit rate must return to >= 0.99 within the first half of
    // the phase (measured over the second half), and its cumulative
    // overlay interning must come out strictly below the same batch
    // through a non-promoting pool (which re-interns every drifted
    // node once per worker, forever). Jobs are submitted one at a
    // time so the phase boundaries in the counters are exact.
    const ROTATE: usize = 64;
    let batch = sources::drifting(0x5EED, 256, ROTATE);
    let promoting = SessionPool::builder()
        .workers(4)
        .default_fuel(FUEL)
        .promotion(eager_promotion())
        .build()
        .expect("builds");
    let frozen = SessionPool::builder()
        .workers(4)
        .default_fuel(FUEL)
        .no_promotion()
        .build()
        .expect("builds");

    // (cumulative base hits, cumulative probes, cumulative overlay
    // nodes) captured at every half-phase mark:
    // [phase 0 mid, phase 0 end, phase 1 mid, ...].
    let mut marks: Vec<(u64, u64, u64)> = Vec::new();
    for (i, source) in batch.iter().enumerate() {
        let result = promoting.submit(source.as_str(), Engine::MachineS).wait();
        assert!(
            !matches!(result, Err(JobError::Compile(_)) | Err(JobError::Lost)),
            "job {i} failed: {result:?}"
        );
        if (i + 1) % (ROTATE / 2) == 0 {
            let stats = promoting.stats();
            marks.push((
                stats.coercion_base_hits(),
                stats.coercion_probes(),
                stats.local_coercion_nodes() + stats.local_type_nodes(),
            ));
        }
    }
    for source in &batch {
        let _ = frozen.submit(source.as_str(), Engine::MachineS).wait();
    }

    let promoting_stats = promoting.shutdown(Deadline::after(Duration::MAX));
    let frozen_stats = frozen.shutdown(Deadline::after(Duration::MAX));
    assert!(promoting_stats.promotions >= 1, "{promoting_stats}");

    // Steady state after every rotation: by the second half of each
    // phase the rotated shapes live in the (freshly promoted) base,
    // so workers intern nothing past it — and any intern probes the
    // second half does issue are answered by the base. (A fully warm
    // second half may issue *zero* probes: coercion construction is
    // memoized per type pair, so repeat shapes never reach the arena.
    // Zero probes is the strongest form of "no misses".)
    for phase in 0..batch.len() / ROTATE {
        let (mid_hits, mid_probes, mid_local) = marks[2 * phase];
        let (end_hits, end_probes, end_local) = marks[2 * phase + 1];
        assert_eq!(
            end_local - mid_local,
            0,
            "phase {phase}: the second half interned past the promoted base\n{promoting_stats}"
        );
        let probes = end_probes - mid_probes;
        let rate = if probes == 0 {
            1.0
        } else {
            (end_hits - mid_hits) as f64 / probes as f64
        };
        assert!(
            rate >= 0.99,
            "phase {phase}: second-half base-hit rate {rate:.4} \
             (promotion did not catch the rotation)\n{promoting_stats}"
        );
    }

    // Promotion pays for itself in memory: the drifted nodes land in
    // the shared base once instead of in every worker's overlay, so
    // total overlay interning across the pool's lifetime is strictly
    // lower. (Cumulative counters: retired sessions are folded in,
    // not forgotten.)
    let promoted_overlay =
        promoting_stats.local_coercion_nodes() + promoting_stats.local_type_nodes();
    let frozen_overlay = frozen_stats.local_coercion_nodes() + frozen_stats.local_type_nodes();
    assert!(
        promoted_overlay < frozen_overlay,
        "promoting pool interned {promoted_overlay} overlay nodes, \
         non-promoting {frozen_overlay}"
    );
}

/// `depth` nested arrows whose leaves encode `variant` in binary, cast
/// through `?`: each (depth, variant) pair interns nodes of its own.
fn drifted(depth: usize, variant: usize) -> String {
    let mut ty = String::from("Int");
    for j in 0..depth {
        ty = format!("{} -> ({ty})", ["Int", "Bool"][(variant >> (j % 8)) & 1]);
    }
    format!("let f = ((fun x => x) : ?) in let g = (f : {ty}) in {variant}")
}

/// Polls until `done` holds, for at most ten seconds; the caller
/// asserts what it needs afterwards.
fn eventually(done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

#[test]
fn a_busy_worker_with_a_fat_overlay_does_not_block_a_siblings_promotion() {
    // Worker A interns a deep drifted type, and the interval gate
    // holds its promotion back; then a spinner parks on A, and a
    // worker with a parked run never promotes. Worker B then serves
    // small drifted jobs: once the interval gate opens, B must promote
    // its own overlay, though A's is fatter and A stays busy.
    let policy = PromotionPolicy {
        min_local_nodes: 1,
        min_miss_rate: 0.0,
        min_interval_jobs: 3,
    };
    for _attempt in 0..8 {
        let pool = SessionPool::builder()
            .workers(2)
            .promotion(policy)
            .build()
            .expect("builds");
        let job = pool.submit(drifted(48, 0), Engine::MachineS).wait();
        let fat = job.expect("runs").worker;
        assert_eq!(pool.epoch(), 1, "one job is inside the interval gate");
        // Dispatch is round-robin from worker 0, and job 1 took worker
        // 0's turn: the spinner targets `fat` once a filler has taken
        // worker 1's turn too.
        if fat == 0 {
            pool.submit("1 + 1", Engine::MachineS).wait().expect("runs");
        }
        // Bounded, so that a failed assertion still lets the pool
        // shut down.
        let spinner = pool.submit_with_fuel(SPIN, Engine::MachineS, 200_000_000);
        eventually(|| pool.stats().parked_depths().contains(&1));
        if pool.stats().parked_depths()[fat] != 1 {
            // The sibling stole the spinner: set the scene up again.
            spinner.cancel();
            continue;
        }
        for variant in 1..=16 {
            if pool.epoch() > 1 {
                break;
            }
            let job = pool.submit(drifted(2, variant), Engine::MachineS);
            job.wait().expect("runs");
        }
        eventually(|| pool.epoch() > 1 || spinner.try_wait().is_some());
        assert!(
            pool.epoch() > 1 && spinner.try_wait().is_none(),
            "no promotion while the fat worker was busy: {}",
            pool.stats()
        );
        spinner.cancel();
        let stats = pool.shutdown(Deadline::after(Duration::MAX));
        assert_eq!(stats.parked_depths()[fat], 0, "{stats}");
        return;
    }
    panic!("a sibling stole the spinner on every attempt");
}

#[test]
fn a_panicking_job_is_typed_and_the_worker_respawns() {
    // Worker failure: a deliberately panicking job resolves to
    // JobError::WorkerPanicked, the pool survives, and — on a
    // ONE-worker pool, the hardest case — the restarted worker drains
    // every job queued behind the panic.
    let pool = SessionPool::builder()
        .workers(1)
        .default_fuel(FUEL)
        .build()
        .expect("builds");
    let before = pool.submit("1 + 1", Engine::MachineS);
    assert_eq!(before.wait().expect("runs").observation.to_string(), "2");

    let poison = pool.submit_poison();
    let after: Vec<_> = (0..8)
        .map(|k| {
            pool.submit(
                format!("let inc = fun x => x + {k} in (inc 1 : Int)"),
                Engine::MachineS,
            )
        })
        .collect();
    assert!(
        matches!(poison.wait(), Err(JobError::WorkerPanicked)),
        "poison must resolve to the typed panic error"
    );
    for (k, handle) in after.into_iter().enumerate() {
        let out = handle
            .wait()
            .expect("the restarted worker serves queued jobs");
        assert_eq!(out.observation.to_string(), (k as i64 + 1).to_string());
    }
    let stats = pool.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(stats.jobs(), 10, "panicked jobs count too: {stats}");
    assert_eq!(stats.respawns, 1);
    assert_eq!(stats.workers[0].panics, 1);
    // The restart retired the panicking session: every job after it
    // ran in a fresh one.
    assert_eq!(stats.workers[0].sessions_retired, 1, "{stats}");
}

#[test]
fn idle_workers_steal_from_busy_queues() {
    // Work-stealing satellite: pin worker 0 behind a long spinner,
    // round-robin quick jobs into both queues, and the idle worker
    // must steal the quick jobs stranded behind the spinner. Also the
    // queue-depth accessors: zero when quiescent, one entry per
    // worker. Slicing is off so the spinner really pins its worker:
    // with slicing, the busy worker interleaves its own quick jobs,
    // and whether any are left to steal depends on thread timing.
    let pool = SessionPool::builder()
        .workers(2)
        .default_fuel(FUEL)
        .no_slicing()
        .build()
        .expect("builds");
    assert_eq!(pool.queue_depth(), 0);
    assert_eq!(pool.queue_depths(), vec![0, 0]);

    let long = pool.submit_with_fuel(SPIN, Engine::MachineS, 3_000_000);
    let quick: Vec<_> = (0..12)
        .map(|k| {
            pool.submit(
                format!("let inc = fun x => x + {k} in (inc 1 : Int)"),
                Engine::MachineS,
            )
        })
        .collect();
    for (k, handle) in quick.into_iter().enumerate() {
        let out = handle.wait().expect("quick jobs run");
        assert_eq!(out.observation.to_string(), (k as i64 + 1).to_string());
    }
    assert!(matches!(
        long.wait(),
        Err(JobError::Run(RunError::FuelExhausted { .. }))
    ));
    let stats = pool.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(stats.jobs(), 13);
    assert!(
        stats.steals() >= 1,
        "the idle worker must steal jobs stranded behind the spinner: {stats}"
    );
    assert_eq!(stats.queue_depths(), vec![0, 0], "drained pool: {stats}");
}

#[test]
fn quick_jobs_overtake_a_spinner_under_default_slicing() {
    // The default-config companion of the stealing test above: with
    // slicing on, whether the quick jobs are stolen or served between
    // the spinner's slices depends on thread timing, but either way
    // every one of them resolves while the spinner is still running.
    let pool = SessionPool::builder()
        .workers(2)
        .default_fuel(FUEL)
        .build()
        .expect("builds");
    let long = pool.submit_with_fuel(SPIN, Engine::MachineS, 1_000_000_000);
    let quick: Vec<_> = (0..12)
        .map(|k| {
            pool.submit(
                format!("let inc = fun x => x + {k} in (inc 1 : Int)"),
                Engine::MachineS,
            )
        })
        .collect();
    for (k, handle) in quick.into_iter().enumerate() {
        let out = handle.wait().expect("quick jobs run");
        assert_eq!(out.observation.to_string(), (k as i64 + 1).to_string());
    }
    assert!(
        long.try_wait().is_none(),
        "the spinner must still be running when the quick jobs are done"
    );
    long.cancel();
    assert_eq!(long.wait(), Err(JobError::Canceled));
    let stats = pool.shutdown(Deadline::after(Duration::MAX));
    assert_eq!(stats.queue_depths(), vec![0, 0], "drained pool: {stats}");
}

/// Regression guard for the `pool/lifecycle64` inversion, whose
/// cause was warmup burning the job fuel at build (+55%). Checked
/// exactly rather than timed (a wall-clock ratio of the two lifecycles
/// flaked on loaded machines, since the warmup cost is fixed while job
/// runs get cheaper): no warmup run may take more than
/// [`WARMUP_RUN_FUEL`] steps, even when the job fuel is far larger and
/// a warmup source diverges, and every job of a warmed batch resolves
/// with one audit record. No timed comparison of the two lifecycles
/// remains; perfbench's `pool_serve` workload times a warmed pool.
#[test]
fn warmed_lifecycle_is_not_slower_than_cold() {
    const JOB_FUEL: u64 = 5_000;

    let batch = sources::mixed(42, 256);
    let jobs: Vec<String> = batch.iter().take(64).cloned().collect();
    let mut warmup: Vec<String> = jobs.clone();
    warmup.sort();
    warmup.dedup();

    let pool = SessionPool::builder()
        .workers(4)
        .default_fuel(JOB_FUEL)
        .warmup(warmup.iter().cloned())
        .build()
        .expect("warmup compiles");
    // The mix holds a divergent shape, so some warmup run reaches the
    // cap — and none passes it.
    assert_eq!(pool.stats().warmup_peak_steps, WARMUP_RUN_FUEL);
    let handles = pool.submit_batch(jobs.iter().map(String::as_str), Engine::MachineS);
    for handle in handles {
        match handle.wait() {
            // Fuel exhaustion (the divergent shape) is workload, not
            // failure.
            Ok(_) | Err(JobError::Run(RunError::FuelExhausted { .. })) => {}
            Err(other) => panic!("warmed job failed: {other:?}"),
        }
    }
    let records = pool.audit_records();
    assert_eq!(
        records.len() as u64 + pool.audit_dropped(),
        jobs.len() as u64
    );

    // A divergent warmup source under a huge job fuel still stops at
    // the warmup cap.
    let pool = SessionPool::builder()
        .workers(1)
        .default_fuel(u64::MAX)
        .warmup([SPIN])
        .build()
        .expect("warmup compiles");
    assert_eq!(pool.stats().warmup_peak_steps, WARMUP_RUN_FUEL);
}

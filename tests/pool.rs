//! Integration tests for the multi-threaded `SessionPool`: a pool
//! must be observationally identical to a single warm session run
//! sequentially (sharding is an optimisation, never a semantic
//! change), and a warmed pool must prove base-tier sharing — zero
//! local interning across all workers on structurally-covered
//! traffic.

use bc_testkit::sources;
use blame_coercion::pool::WARMUP_RUN_FUEL;
use blame_coercion::{Engine, JobError, PromotionPolicy, RunError, Session, SessionPool};

const FUEL: u64 = 50_000;

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
    assert_eq!(pool.shutdown().jobs(), 64);
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
    let stats = pool.shutdown();
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
    // coercion at all.)
    let mut served = 0usize;
    for w in &stats.workers {
        if w.jobs == 0 {
            continue;
        }
        served += 1;
        let s = w.session.expect("served workers publish stats");
        assert_eq!(s.tier.base_coercion_nodes, base.coercion_nodes());
        assert_eq!(s.tier.local_coercion_nodes, 0, "worker {}", w.worker);
        assert_eq!(s.tier.local_type_nodes, 0, "worker {}", w.worker);
        assert_eq!(
            w.coercion_base_hits(),
            w.coercion_probes(),
            "worker {}",
            w.worker
        );
        assert!(s.tier.type_base_hits > 0, "worker {}", w.worker);
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
fn warmed_jobs_travel_compiled_and_are_equivalent_to_source_jobs() {
    // The compiled-job satellite: a warmed pool ships warmup sources
    // as interned λB terms (`submit` auto-upgrades on exact source
    // match), the serving workers never parse, and the outcomes are
    // observationally identical to a cold pool compiling the same
    // text from scratch.
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
    assert_eq!(warmed.compiled_sources().count(), sources::SHAPES);
    assert_eq!(cold.compiled_sources().count(), 0);

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
        let warm_out = warm_handle.wait();
        let cold_out = cold_handle.wait();
        if let Ok(out) = &warm_out {
            assert!(
                out.compiled,
                "warmed pool must serve {engine} compiled: {source}"
            );
        }
        if let Ok(out) = &cold_out {
            assert!(!out.compiled, "cold pool has nothing compiled to ship");
        }
        assert_eq!(
            job_fingerprint(warm_out),
            job_fingerprint(cold_out),
            "compiled and source paths diverged on {engine}: {source}"
        );
    }

    // The warmed pool's workers parsed nothing and lowered each
    // distinct program at most once: across 24 jobs over 6 shapes and
    // 3 workers, at most 18 programs exist pool-wide (the worker-local
    // cache served every repeat).
    let stats = warmed.shutdown();
    assert_eq!(stats.jobs(), 24);
    let lowered: usize = stats
        .workers
        .iter()
        .filter_map(|w| w.session.map(|s| s.programs))
        .sum();
    assert!(
        lowered <= sources::SHAPES * 3,
        "workers must cache programs across repeated jobs, lowered {lowered}"
    );
    cold.shutdown();

    // submit_compiled is the explicit form of the same upgrade — and
    // honestly refuses sources the warmup never compiled.
    let pool = SessionPool::builder()
        .workers(1)
        .default_fuel(FUEL)
        .warmup(["let inc = fun x => x + 1 in (inc 41 : Int)"])
        .build()
        .expect("warmup compiles");
    let out = pool
        .submit_compiled(
            "let inc = fun x => x + 1 in (inc 41 : Int)",
            Engine::MachineS,
        )
        .expect("was warmed")
        .wait()
        .expect("runs");
    assert!(out.compiled);
    assert_eq!(out.observation.to_string(), "42");
    assert!(
        pool.submit_compiled("1 + 1", Engine::MachineS).is_none(),
        "an unwarmed source has no compiled program to ship"
    );
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
    let stats = pool.shutdown();
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
    let spin = "letrec spin (n : Int) : Int = spin (n + 1) in spin 0";
    match pool.submit_with_fuel(spin, Engine::MachineS, 123).wait() {
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
    let stats = pool.shutdown();
    assert_eq!(stats.jobs(), 16);
    for (k, handle) in handles.into_iter().enumerate() {
        let out = handle.wait().expect("drained before shutdown");
        assert_eq!(out.observation.to_string(), (k as i64 + 1).to_string());
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

    let promoting_handles =
        promoting.submit_batch(batch.iter().map(String::as_str), Engine::MachineS);
    let frozen_handles = frozen.submit_batch(batch.iter().map(String::as_str), Engine::MachineS);
    let from_promoting: Vec<String> = promoting_handles
        .into_iter()
        .map(|h| job_fingerprint(h.wait()))
        .collect();
    let from_frozen: Vec<String> = frozen_handles
        .into_iter()
        .map(|h| job_fingerprint(h.wait()))
        .collect();
    let sequential = Session::builder().default_fuel(FUEL).build();
    let from_session: Vec<String> = batch
        .iter()
        .map(|s| session_fingerprint(&sequential, s, Engine::MachineS))
        .collect();

    // The drifting generator must produce real programs, not parse
    // errors agreeing with themselves.
    assert!(
        from_session.iter().all(|f| !f.contains("compile error")),
        "drifting sources must compile: {from_session:?}"
    );
    assert_eq!(from_promoting, from_session);
    assert_eq!(from_frozen, from_session);

    let stats = promoting.shutdown();
    assert!(
        stats.promotions >= 1,
        "an eager policy under drift must promote: {stats}"
    );
    assert_eq!(stats.epoch, stats.promotions + 1);
    let frozen_stats = frozen.shutdown();
    assert_eq!(frozen_stats.epoch, 1);
    assert_eq!(frozen_stats.promotions, 0);
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

    let promoting_stats = promoting.shutdown();
    let frozen_stats = frozen.shutdown();
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

#[test]
fn a_panicking_job_is_typed_and_the_worker_respawns() {
    // Worker-failure satellite: a deliberately panicking job resolves
    // to JobError::WorkerPanicked, the pool survives, and — on a
    // ONE-worker pool, the hardest case — the respawned worker drains
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
        let out = handle.wait().expect("the replacement serves queued jobs");
        assert_eq!(out.observation.to_string(), (k as i64 + 1).to_string());
    }
    let stats = pool.shutdown();
    assert_eq!(stats.jobs(), 10, "panicked jobs count too: {stats}");
    assert_eq!(stats.respawns, 1);
    assert_eq!(stats.workers[0].panics, 1);
    assert!(
        !stats.workers[0].dead,
        "the replacement must clear the dead flag: {stats}"
    );
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

    let spin = "letrec spin (n : Int) : Int = spin (n + 1) in spin 0";
    let long = pool.submit_with_fuel(spin, Engine::MachineS, 3_000_000);
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
    let stats = pool.shutdown();
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
    let spin = "letrec spin (n : Int) : Int = spin (n + 1) in spin 0";
    let long = pool.submit_with_fuel(spin, Engine::MachineS, 1_000_000_000);
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
    let stats = pool.shutdown();
    assert_eq!(stats.queue_depths(), vec![0, 0], "drained pool: {stats}");
}

/// Regression guard for the `pool/lifecycle64` inversion, whose two
/// causes were warmup burning the job fuel at build (+55%) and workers
/// re-lowering every job from source. Both are checked exactly rather
/// than timed (a wall-clock ratio of the two lifecycles flaked on
/// loaded machines, since the warmup cost is fixed while job runs get
/// cheaper): every job of a warmed batch must travel compiled, and no
/// warmup run may take more than [`WARMUP_RUN_FUEL`] steps, even when
/// the job fuel is far larger and a warmup source diverges. The timed
/// comparison lives in the `report` binary (E23).
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
            Ok(output) => assert!(output.compiled, "a warmed job travelled as source"),
            // Fuel exhaustion (the divergent shape) is workload, not
            // failure; its audit record below still says how it
            // travelled.
            Err(JobError::Run(RunError::FuelExhausted { .. })) => {}
            Err(other) => panic!("warmed job failed: {other:?}"),
        }
    }
    let records = pool.audit_records();
    assert_eq!(
        records.len() as u64 + pool.audit_dropped(),
        jobs.len() as u64
    );
    assert!(
        records.iter().all(|r| r.compiled),
        "every warmed job must be served from its compiled form"
    );

    // A divergent warmup source under a huge job fuel still stops at
    // the warmup cap.
    let spin = "letrec spin (n : Int) : Int = spin (n + 1) in spin 0";
    let pool = SessionPool::builder()
        .workers(1)
        .default_fuel(u64::MAX)
        .warmup([spin])
        .build()
        .expect("warmup compiles");
    assert_eq!(pool.stats().warmup_peak_steps, WARMUP_RUN_FUEL);
}

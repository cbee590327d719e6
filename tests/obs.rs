//! Observability acceptance tests: the Prometheus-style exposition
//! reflects the pool's actual traffic, counters are exact under
//! concurrency and monotone across promotions and respawns, and the
//! audit ring's overload accounting is deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bc_testkit::sources;
use blame_coercion::translate::bisim::Observation;
use blame_coercion::{
    AuditOutcome, BlameAnalytics, Counter, Deadline, Engine, Histogram, JobError, JobHandle,
    JobOutput, PoolStats, PromotionPolicy, SessionPool,
};

const SPINNER: &str = "letrec spin (n : Int) : Int = spin (n + 1) in spin 0";

/// Every sample line (`name{labels} value`) in an exposition, keyed
/// by the full series string (metric name + label block).
fn samples(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("sample line has a value");
            (
                series.to_owned(),
                value.parse().expect("sample value is numeric"),
            )
        })
        .collect()
}

fn value(text: &str, series: &str) -> f64 {
    *samples(text)
        .get(series)
        .unwrap_or_else(|| panic!("series {series} missing from exposition:\n{text}"))
}

/// Polls `stats` until `done` holds, failing after ten seconds.
fn wait_until(pool: &SessionPool, what: &str, done: impl Fn(&PoolStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(&pool.stats()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn warmed_pool_exposition_reflects_the_batch() {
    const JOBS: usize = 64;
    let pool = SessionPool::builder()
        .workers(2)
        .warmup(sources::shapes())
        .default_fuel(20_000)
        .build()
        .expect("warmup compiles");
    let batch = sources::mixed(7, JOBS);
    let handles = pool.submit_batch(batch.iter().map(String::as_str), Engine::MachineS);
    let (mut values, mut blamed, mut exhausted) = (0u64, 0u64, 0u64);
    for handle in handles {
        match handle.wait() {
            Ok(out) => {
                // The elapsed satellite: every output reports its
                // end-to-end wall-clock time.
                assert!(out.elapsed > Duration::ZERO);
                if matches!(out.observation, Observation::Blame(_)) {
                    blamed += 1;
                } else {
                    values += 1;
                }
            }
            Err(JobError::Run(_)) => exhausted += 1,
            Err(e) => panic!("mixed workload resolves cleanly: {e}"),
        }
    }
    assert_eq!(values + blamed + exhausted, JOBS as u64);
    assert!(blamed > 0, "the mix includes runtime-blame shapes");
    assert!(exhausted > 0, "the mix includes divergent spinners");

    let text = pool.metrics_text();
    // Every instrument renders.
    for name in [
        "# TYPE bc_jobs_total counter",
        "# TYPE bc_job_latency_ns histogram",
        "# TYPE bc_job_queue_wait_ns histogram",
        "# TYPE bc_slices_total counter",
        "# TYPE bc_preemptions_total counter",
        "# TYPE bc_steals_total counter",
        "# TYPE bc_promotions_total counter",
        "# TYPE bc_respawns_total counter",
        "# TYPE bc_sessions_retired_total counter",
        "# TYPE bc_audit_dropped_total counter",
        "# TYPE bc_epoch gauge",
        "# TYPE bc_workers gauge",
        "# TYPE bc_coercion_base_hit_rate gauge",
        "# TYPE bc_compose_base_hit_rate gauge",
        "# TYPE bc_queue_depth gauge",
        "# TYPE bc_parked_depth gauge",
    ] {
        assert!(
            text.contains(name),
            "{name} missing from exposition:\n{text}"
        );
    }
    // The latency histogram saw every job exactly once.
    assert_eq!(value(&text, "bc_job_latency_ns_count"), JOBS as f64);
    assert_eq!(value(&text, "bc_job_queue_wait_ns_count"), JOBS as f64);
    // Outcome counters agree with what the handles reported.
    assert_eq!(
        value(&text, "bc_jobs_total{outcome=\"value\"}"),
        values as f64
    );
    assert_eq!(
        value(&text, "bc_jobs_total{outcome=\"blame\"}"),
        blamed as f64
    );
    assert_eq!(
        value(&text, "bc_jobs_total{outcome=\"fuel_exhausted\"}"),
        exhausted as f64
    );
    // A warmup that covers the traffic means (near-)perfect base
    // sharing and no epoch movement.
    assert!(value(&text, "bc_coercion_base_hit_rate") > 0.999);
    assert_eq!(value(&text, "bc_epoch"), 1.0);
    assert_eq!(value(&text, "bc_workers"), 2.0);
    assert_eq!(value(&text, "bc_audit_dropped_total"), 0.0);

    // The audit stream carries one record per job, consistent with
    // the exposition, and the analytics fold agrees with both.
    let records = pool.audit_records();
    assert_eq!(records.len(), JOBS);
    assert!(records.iter().all(|r| r.epoch == 1 && r.worker < 2));
    let mut fold = BlameAnalytics::new();
    fold.observe_all(&records);
    let report = fold.report(3);
    let outcome = |name: &str| {
        report
            .outcomes
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    };
    assert_eq!(outcome("value"), values);
    assert_eq!(outcome("blame"), blamed);
    assert_eq!(outcome("fuel_exhausted"), exhausted);
    // Draining took everything; nothing was lost on the way.
    assert!(pool.audit_records().is_empty());
    assert_eq!(pool.audit_dropped(), 0);
}

#[test]
fn concurrent_recorders_and_snapshot_reader_agree_exactly() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let counter = Arc::new(Counter::new());
    let histogram = Arc::new(Histogram::new());
    let done = Arc::new(AtomicBool::new(false));

    let reader = {
        let counter = Arc::clone(&counter);
        let histogram = Arc::clone(&histogram);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let (mut last_count, mut last_sum, mut last_counter) = (0u64, 0u64, 0u64);
            let mut snapshots = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = histogram.snapshot();
                // Mid-flight snapshots are monotone, bucket-wise
                // valid views — never torn, never regressing.
                assert!(snap.count() >= last_count);
                assert!(snap.sum() >= last_sum);
                assert!(snap.count() <= THREADS * PER_THREAD);
                let c = counter.get();
                assert!(c >= last_counter);
                (last_count, last_sum, last_counter) = (snap.count(), snap.sum(), c);
                snapshots += 1;
            }
            snapshots
        })
    };
    let recorders: Vec<_> = (0..THREADS)
        .map(|t| {
            let counter = Arc::clone(&counter);
            let histogram = Arc::clone(&histogram);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let v = t * PER_THREAD + i;
                    histogram.record(v % 1024);
                    counter.add(2);
                }
            })
        })
        .collect();
    for r in recorders {
        r.join().expect("recorders do not panic");
    }
    done.store(true, Ordering::Release);
    assert!(reader.join().expect("reader does not panic") >= 1);

    // Quiesced: exact.
    let snap = histogram.snapshot();
    assert_eq!(snap.count(), THREADS * PER_THREAD);
    let expected_sum: u64 = (0..THREADS)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (t * PER_THREAD + i) % 1024))
        .sum();
    assert_eq!(snap.sum(), expected_sum);
    assert_eq!(counter.get(), 2 * THREADS * PER_THREAD);
}

#[test]
fn counters_stay_monotone_across_promotions_and_respawns() {
    const WAVES: u64 = 3;
    const WAVE_JOBS: usize = 24;
    let pool = SessionPool::builder()
        .workers(2)
        .warmup(sources::shapes())
        .default_fuel(5_000)
        .promotion(PromotionPolicy {
            min_local_nodes: 1,
            min_miss_rate: 0.0,
            min_interval_jobs: 1,
        })
        .build()
        .expect("warmup compiles");
    let mut prev_stats = pool.stats();
    let mut prev_samples = samples(&pool.metrics_text());
    for wave in 0..WAVES {
        // Drifting traffic (forces promotions under the tight policy)
        // plus one poison (forces a respawn and a session retirement).
        let batch = sources::drifting(11 + wave, WAVE_JOBS, 4);
        let handles = pool.submit_batch(batch.iter().map(String::as_str), Engine::MachineS);
        for handle in handles {
            handle.wait().expect("drifting sources compile and run");
        }
        assert!(matches!(
            pool.submit_poison().wait(),
            Err(JobError::WorkerPanicked)
        ));
        // The poison's reply resolves *inside* the dying serve; the
        // replacement worker (and the respawn counter) lands a moment
        // later. Wait for it so the snapshot below is post-recovery.
        wait_until(&pool, "the respawn", |s| s.respawns > wave);

        let stats = pool.stats();
        // Worker-level accounting: monotone even though sessions were
        // retired (promotion adoptions + the poison respawn) between
        // the snapshots.
        assert!(stats.jobs() > prev_stats.jobs() + WAVE_JOBS as u64);
        assert!(stats.slices() >= prev_stats.slices());
        assert!(stats.preemptions() >= prev_stats.preemptions());
        assert!(stats.steals() >= prev_stats.steals());
        assert!(stats.promotions >= prev_stats.promotions);
        assert!(stats.respawns > prev_stats.respawns);
        assert!(stats.epoch >= prev_stats.epoch);
        let retired = |s: &blame_coercion::PoolStats| -> u64 {
            s.workers.iter().map(|w| w.sessions_retired()).sum()
        };
        assert!(retired(&stats) > retired(&prev_stats));

        // Instrument-level accounting: every counter-like series
        // (counters, histogram buckets/sums/counts) is monotone
        // across renders too.
        let now = samples(&pool.metrics_text());
        for (series, &v) in &now {
            let name = series.split('{').next().unwrap_or(series);
            if name.ends_with("_total")
                || name.ends_with("_count")
                || name.ends_with("_sum")
                || name.ends_with("_bucket")
            {
                if let Some(&before) = prev_samples.get(series) {
                    assert!(
                        v >= before,
                        "series {series} regressed across waves: {before} -> {v}"
                    );
                }
            }
        }
        prev_stats = stats;
        prev_samples = now;
    }
    let text = pool.metrics_text();
    assert!(value(&text, "bc_promotions_total") >= 1.0);
    assert_eq!(value(&text, "bc_respawns_total"), WAVES as f64);
    assert_eq!(
        value(&text, "bc_jobs_total{outcome=\"worker_panicked\"}"),
        WAVES as f64
    );
    // Every resolved job — including the panicked ones — landed in
    // the latency histogram exactly once.
    assert_eq!(
        value(&text, "bc_job_latency_ns_count"),
        (WAVES * (WAVE_JOBS as u64 + 1)) as f64
    );
    assert!(value(&text, "bc_sessions_retired_total") >= WAVES as f64);
}

#[test]
fn audit_ring_overflow_accounting_is_exact() {
    const JOBS: usize = 40;
    const CAPACITY: usize = 8;
    let pool = SessionPool::builder()
        .workers(1)
        .warmup(sources::shapes())
        .default_fuel(5_000)
        .audit_capacity(CAPACITY)
        .build()
        .expect("warmup compiles");
    let batch = sources::mixed(5, JOBS);
    let handles = pool.submit_batch(batch.iter().map(String::as_str), Engine::MachineS);
    for handle in handles {
        let _ = handle.wait();
    }
    // Deterministic drop-oldest accounting: emitted = buffered +
    // dropped, exactly, and the live window is the newest records
    // with their original sequence numbers.
    let dropped = pool.audit_dropped();
    let records = pool.audit_records();
    assert_eq!(records.len(), CAPACITY);
    assert_eq!(dropped, (JOBS - CAPACITY) as u64);
    let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    assert_eq!(
        seqs,
        ((JOBS - CAPACITY) as u64..JOBS as u64).collect::<Vec<_>>()
    );
    // Draining resets the window, not the loss accounting.
    assert!(pool.audit_records().is_empty());
    assert_eq!(pool.audit_dropped(), dropped);
}

#[test]
fn rejected_submissions_are_audited() {
    let pool = SessionPool::builder()
        .workers(1)
        .warmup([SPINNER])
        .queue_capacity(1)
        .build()
        .expect("warmup compiles");
    // The spinner occupies the worker's single in-flight slot from
    // submission to fuel exhaustion; everything submitted meanwhile
    // is refused at the door.
    let spinner = pool.submit_with_fuel(SPINNER, Engine::MachineS, 2_000_000);
    let mut rejected = 0u64;
    for _ in 0..5 {
        if let Some(Err(JobError::Rejected { .. })) =
            pool.submit("1 + 1", Engine::MachineS).try_wait()
        {
            rejected += 1;
        }
    }
    assert_eq!(rejected, 5, "capacity 1 refuses every submission");
    assert!(matches!(spinner.wait(), Err(JobError::Run(_))));
    let text = pool.metrics_text();
    assert_eq!(
        value(&text, "bc_jobs_total{outcome=\"rejected\"}"),
        rejected as f64
    );
    let records = pool.audit_records();
    let audited_rejects = records
        .iter()
        .filter(|r| r.outcome == AuditOutcome::Rejected)
        .count() as u64;
    assert_eq!(audited_rejects, rejected);
}

/// A panic hands the worker's parked jobs back to its queue, and the
/// replacement claims them a second time. Their queue wait is still
/// recorded once, when they resolve.
#[test]
fn a_requeued_job_records_its_queue_wait_once() {
    let pool = SessionPool::builder()
        .workers(1)
        .warmup([SPINNER])
        .build()
        .expect("warmup compiles");
    let spinners: Vec<JobHandle> = (0..2)
        .map(|_| pool.submit_with_fuel(SPINNER, Engine::MachineS, 2_000_000))
        .collect();
    wait_until(&pool, "both spinners to park", |s| {
        s.parked_depths()[0] == 2
    });
    assert!(matches!(
        pool.submit_poison().wait(),
        Err(JobError::WorkerPanicked)
    ));
    for spinner in spinners {
        assert!(matches!(spinner.wait(), Err(JobError::Run(_))));
    }
    let text = pool.metrics_text();
    assert_eq!(value(&text, "bc_job_latency_ns_count"), 3.0);
    assert_eq!(
        value(&text, "bc_job_queue_wait_ns_count"),
        value(&text, "bc_job_latency_ns_count")
    );
}

/// The outcome a handle resolved to, in the audit vocabulary.
fn outcome_of(result: &Result<JobOutput, JobError>) -> AuditOutcome {
    match result {
        Ok(out) if matches!(out.observation, Observation::Blame(_)) => AuditOutcome::Blame,
        Ok(_) => AuditOutcome::Value,
        Err(JobError::Compile(_)) => AuditOutcome::CompileError,
        Err(JobError::Run(_)) => AuditOutcome::FuelExhausted,
        Err(JobError::DeadlineExceeded { .. }) => AuditOutcome::DeadlineExceeded,
        Err(JobError::Canceled) => AuditOutcome::Canceled,
        Err(JobError::WorkerPanicked) => AuditOutcome::WorkerPanicked,
        Err(JobError::Rejected { .. }) => AuditOutcome::Rejected,
        Err(JobError::Lost) => panic!("an open pool loses no job"),
    }
}

/// One pool serves every kind of resolution; the outcome counters,
/// the audit stream, `PoolStats` and the handles all agree.
#[test]
fn every_resolution_is_counted_audited_and_answered_once() {
    let pool = SessionPool::builder()
        .workers(1)
        .warmup([SPINNER])
        .queue_capacity(2)
        .build()
        .expect("warmup compiles");
    let mut results = Vec::new();
    // One at a time, so the in-flight bound of 2 refuses none of them.
    for (source, fuel) in [
        ("1 + 1", None),
        ("let f = fun x => x + 1 in f true", None),
        (SPINNER, Some(1_000)),
        ("1 +", None),
    ] {
        let handle = pool.submit_with_options(source, Engine::MachineS, fuel, None);
        results.push(handle.wait());
    }
    // A poison before anything parks, so the respawn requeues nothing.
    results.push(pool.submit_poison().wait());
    wait_until(&pool, "the respawn", |s| s.respawns == 1);

    // Two parked spinners fill the worker's in-flight bound: the next
    // submission is refused at the door.
    let parked_cancel = pool.submit_with_fuel(SPINNER, Engine::MachineS, u64::MAX);
    let parked_deadline = pool.submit_with_options(
        SPINNER,
        Engine::MachineS,
        Some(u64::MAX),
        Some(Deadline::after(Duration::from_millis(20))),
    );
    let rejected = pool.submit("1 + 1", Engine::MachineS);
    assert!(matches!(
        rejected.try_wait(),
        Some(Err(JobError::Rejected { .. }))
    ));
    results.push(rejected.wait());
    let missed = parked_deadline.wait();
    assert!(
        matches!(missed, Err(JobError::DeadlineExceeded { steps, .. }) if steps > 0),
        "the parked spinner ran before missing its deadline: {missed:?}"
    );
    results.push(missed);
    // Canceled while still queued behind the parked spinner's slices
    // (or, if the worker claims it first, at its first slice boundary).
    let queued_cancel = pool.submit_with_fuel(SPINNER, Engine::MachineS, u64::MAX);
    queued_cancel.cancel();
    results.push(queued_cancel.wait());
    parked_cancel.cancel();
    results.push(parked_cancel.wait());
    let queued_deadline = pool.submit_with_options(
        "1 + 1",
        Engine::MachineS,
        None,
        Some(Deadline::at(Instant::now())),
    );
    let missed = queued_deadline.wait();
    assert!(
        matches!(missed, Err(JobError::DeadlineExceeded { steps: 0, .. })),
        "an expired job is discarded at intake: {missed:?}"
    );
    results.push(missed);
    // The worker discards canceled jobs after their handles resolved.
    // A last job is claimed after every earlier one and runs after
    // everything parked before it, so once it resolves, every job is
    // counted.
    results.push(pool.submit("2 + 2", Engine::MachineS).wait());

    let mut tally: BTreeMap<AuditOutcome, u64> = BTreeMap::new();
    for result in &results {
        *tally.entry(outcome_of(result)).or_default() += 1;
    }
    assert!(
        AuditOutcome::ALL
            .iter()
            .all(|o| *o == AuditOutcome::IllTyped || tally.contains_key(o)),
        "the mix reaches every outcome a source job can: {tally:?}"
    );
    let handles = results.len() as u64;
    let text = pool.metrics_text();
    let records = pool.audit_records();
    let mut counted = 0;
    for o in AuditOutcome::ALL {
        let expected = tally.get(&o).copied().unwrap_or(0);
        let n = value(&text, &format!("bc_jobs_total{{outcome=\"{o}\"}}")) as u64;
        assert_eq!(n, expected, "counted {o}");
        let audited = records.iter().filter(|r| r.outcome == o).count() as u64;
        assert_eq!(audited, expected, "audited {o}");
        counted += n;
    }
    assert_eq!(counted, handles);
    assert_eq!(records.len() as u64 + pool.audit_dropped(), handles);
    let rejected = tally[&AuditOutcome::Rejected];
    assert_eq!(pool.stats().jobs() + rejected, handles);
    assert_eq!(value(&text, "bc_job_latency_ns_count") as u64, handles);
    assert_eq!(
        value(&text, "bc_job_queue_wait_ns_count") as u64,
        handles - rejected
    );
}

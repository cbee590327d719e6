//! pool_serve: a closed loop of clients into a `SessionPool`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bc_testkit::sources;
use blame_coercion::{JobError, JobOutput, PoolStats, RunError, Session, SessionPool};

use crate::calib;
use crate::gen::{Request, Rng, Stream, Verdict, Workload};
use crate::report::{peak_rss_mb, quantile, Report, Sample};
use crate::session::oracle_agrees;

/// Jobs kept in flight: one client waiting on each reply. With more,
/// the client and both workers contend for the two cores of the shared
/// machine, and throughput swung by a fifth (two in flight) to a half
/// (four) between runs; an open loop at a fixed rate fared worse, its
/// backlog, and so its tail, swinging thirtyfold.
const IN_FLIGHT: u64 = 1;
/// One job in this many is re-run, untimed, on the λB engine.
const ORACLE_ONE_IN: u64 = 512;
/// One job's latency in this many is kept (and every wrong job's), so
/// the benchmark's own memory stays small next to the pool's.
const SAMPLE_ONE_IN: u64 = 8;
const ORACLE_SALT: u64 = 0x0DAC_1E00_0000_0002;
/// Audit records are drained after this many completions (the ring
/// holds 8192).
const DRAIN_EVERY: u64 = 1_024;

/// The default pool (one worker per core, promotion, slicing and
/// observability on), warmed on the testkit shapes.
pub fn build_pool() -> SessionPool {
    SessionPool::builder()
        .warmup(sources::shapes())
        .build()
        .expect("the testkit shapes compile")
}

fn verdict_of_job(result: &Result<JobOutput, JobError>) -> Verdict {
    match result {
        Ok(out) => Verdict::Observed(out.observation.clone()),
        Err(JobError::Compile(d)) => Verdict::Diagnostic { at: d.span.start },
        Err(JobError::Run(RunError::FuelExhausted { steps, .. })) => {
            Verdict::FuelExhausted { steps: *steps }
        }
        Err(e) => Verdict::Failed(e.to_string()),
    }
}

/// What the `on_ready` callbacks record, shared with the generator.
#[derive(Default)]
struct Sink {
    resolved: AtomicU64,
    samples: Mutex<Vec<Sample>>,
    /// (job index, whether it was right, verdict) of wrong and sampled jobs.
    verdicts: Mutex<Vec<(u64, bool, Verdict)>>,
    rejected: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("no callback panics while holding the lock")
}

/// Audit records drained; with `detail`, each one's queue wait and
/// service time too.
#[derive(Default)]
struct Audit {
    detail: bool,
    records: u64,
    queue_wait_ns: Vec<u64>,
    service_ns: Vec<u64>,
}

impl Audit {
    fn drain(&mut self, pool: &SessionPool) {
        let records = pool.audit_records();
        self.records += records.len() as u64;
        if self.detail {
            for r in records {
                self.queue_wait_ns.push(r.queue_wait_ns);
                self.service_ns
                    .push(r.latency_ns.saturating_sub(r.queue_wait_ns));
            }
        }
    }
}

pub struct PoolRun {
    /// Submission time and latency of one job in [`SAMPLE_ONE_IN`] at
    /// the reference speed (see `calib`), and of every wrong or refused
    /// job as `u64::MAX`.
    pub samples: Vec<Sample>,
    /// How long the client took to submit the next job after a
    /// completion (with `detail` only).
    think_ns: Vec<u64>,
    submitted_per_s: f64,
    /// Jobs resolved per second of the run, at the reference speed.
    pub throughput_per_s: f64,
    audit: Audit,
    audit_dropped: u64,
    rejected: u64,
    pub peak_rss_mb: f64,
    before: PoolStats,
    after: PoolStats,
}

/// Keeps [`IN_FLIGHT`] jobs in the pool for `seconds`, submitting the
/// next job as each one resolves, then waits for the rest. `detail`
/// keeps the per-job figures the traced run reports.
pub fn closed_loop(
    pool: &SessionPool,
    seed: u64,
    seconds: f64,
    detail: bool,
    report: &mut Report,
) -> PoolRun {
    let mut stream = Stream::new(Workload::PoolServe, seed);
    let mut sample = Rng::new(seed ^ ORACLE_SALT);
    let sink = Arc::new(Sink::default());
    let (done, completions) = mpsc::channel::<Instant>();
    let mut sampled: Vec<(u64, Request)> = Vec::new();
    let mut think_ns = Vec::new();
    let mut audit = Audit {
        detail,
        ..Audit::default()
    };
    let before = pool.stats();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    // (offset, probe) pairs: the reference-speed scale over time.
    let mut probes = vec![(0, calib::probe())];
    let mut submit = |index: u64, sampled: &mut Vec<(u64, Request)>| {
        let req = stream.next_request();
        let keep = sample.chance(1, ORACLE_ONE_IN);
        if keep {
            sampled.push((index, req.clone()));
        }
        let submitted = Instant::now();
        let at_ns = submitted.duration_since(origin).as_nanos() as u64;
        let handle = pool.submit_with_fuel(req.source, req.engine, req.fuel);
        let expect = req.expect;
        let sink = Arc::clone(&sink);
        let done = done.clone();
        handle.on_ready(move |result| {
            let latency_ns = submitted.elapsed().as_nanos() as u64;
            let verdict = verdict_of_job(result);
            let ok = expect.accepts(&verdict);
            if matches!(result, Err(JobError::Rejected { .. })) {
                sink.rejected.fetch_add(1, Ordering::Relaxed);
            }
            if !ok || index % SAMPLE_ONE_IN == 0 {
                lock(&sink.samples).push(Sample {
                    at_ns,
                    latency_ns: if ok { latency_ns } else { u64::MAX },
                });
            }
            sink.resolved.fetch_add(1, Ordering::Relaxed);
            if keep || !ok {
                lock(&sink.verdicts).push((index, ok, verdict));
            }
            // The client may already have stopped listening.
            let _ = done.send(Instant::now());
        });
    };
    let mut submitted = 0;
    while submitted < IN_FLIGHT {
        submit(submitted, &mut sampled);
        submitted += 1;
    }
    let mut resolved = 0;
    while resolved < submitted {
        let Ok(completed) = completions.recv_timeout(Duration::from_secs(60)) else {
            break;
        };
        resolved += 1;
        let now = Instant::now();
        if now < deadline {
            if detail {
                think_ns.push(now.duration_since(completed).as_nanos() as u64);
            }
            submit(submitted, &mut sampled);
            submitted += 1;
        }
        if now.duration_since(origin) >= calib::PERIOD * probes.len() as u32 {
            probes.push((now.duration_since(origin).as_nanos() as u64, calib::probe()));
        }
        if resolved % DRAIN_EVERY == 0 {
            audit.drain(pool);
        }
    }
    let window = origin.elapsed();
    probes.push((window.as_nanos() as u64, calib::probe()));
    audit.drain(pool);
    let after = pool.stats();
    let mut samples = std::mem::take(&mut *lock(&sink.samples));
    for s in &mut samples {
        let k = probes
            .partition_point(|&(at, _)| at <= s.at_ns)
            .clamp(1, probes.len() - 1);
        calib::scale(
            std::slice::from_mut(s),
            calib::factor(probes[k - 1].1, probes[k].1),
        );
    }
    let jobs = sink.resolved.load(Ordering::Relaxed);
    let mean_factor = probes
        .windows(2)
        .map(|p| calib::factor(p[0].1, p[1].1))
        .sum::<f64>()
        / (probes.len() - 1) as f64;
    report.attempted += submitted;
    report.check(
        jobs == submitted,
        format!("all {submitted} jobs resolved ({jobs} did)"),
    );
    let audit_dropped = pool.audit_dropped();
    report.check(
        audit.records + audit_dropped == jobs,
        format!(
            "audit records drained ({}) plus dropped ({audit_dropped}) equal jobs resolved ({jobs})",
            audit.records
        ),
    );

    // Wrong verdicts, then λB agreement on the sampled jobs, after the
    // workload's peak memory is read.
    let peak_rss_mb = peak_rss_mb();
    let mut verdicts = std::collections::HashMap::new();
    for (index, ok, verdict) in std::mem::take(&mut *lock(&sink.verdicts)) {
        if !ok {
            report.mismatch(format_args!("job {index} gave {verdict:?}"));
        }
        verdicts.insert(index, verdict);
    }
    let oracle = Session::new();
    for (index, req) in &sampled {
        let Some(verdict) = verdicts.get(index) else {
            continue;
        };
        let agrees = match oracle.compile(&req.source) {
            Ok(program) => oracle_agrees(&oracle, &program, req, verdict),
            Err(d) => *verdict == Verdict::Diagnostic { at: d.span.start },
        };
        if !agrees {
            report.mismatch(format_args!(
                "λB disagrees with {verdict:?}: {}",
                req.source
            ));
        }
    }
    PoolRun {
        samples,
        think_ns,
        submitted_per_s: submitted as f64 / window.as_secs_f64(),
        throughput_per_s: jobs as f64 / window.as_secs_f64() / mean_factor,
        audit,
        audit_dropped,
        rejected: sink.rejected.load(Ordering::Relaxed),
        peak_rss_mb,
        before,
        after,
    }
}

/// The pool, observability and load-generator metrics; zero for a
/// workload that does not use the pool.
pub fn emit_layers(run: Option<&mut PoolRun>, report: &mut Report) {
    let Some(run) = run else {
        for (name, unit) in POOL_METRICS {
            report.metric(name, 0.0, unit);
        }
        return;
    };
    run.audit.queue_wait_ns.sort_unstable();
    run.audit.service_ns.sort_unstable();
    run.think_ns.sort_unstable();
    let (b, a) = (&run.before, &run.after);
    let jobs = (a.jobs() - b.jobs()).max(1) as f64;
    let promotions = a.promotions - b.promotions;
    let probes = a.coercion_probes() - b.coercion_probes();
    let us = |ns: u64| ns as f64 / 1e3;
    println!(
        "queue wait and service from {} audit records",
        run.audit.queue_wait_ns.len()
    );
    report.metric(
        "pool.queue_wait_p50_us",
        us(quantile(&run.audit.queue_wait_ns, 0.5)),
        "us",
    );
    report.metric(
        "pool.queue_wait_p99_us",
        us(quantile(&run.audit.queue_wait_ns, 0.99)),
        "us",
    );
    report.metric(
        "pool.service_p50_us",
        us(quantile(&run.audit.service_ns, 0.5)),
        "us",
    );
    report.metric(
        "pool.slices_per_job",
        (a.slices() - b.slices()) as f64 / jobs,
        "count",
    );
    report.metric(
        "pool.preemptions_per_job",
        (a.preemptions() - b.preemptions()) as f64 / jobs,
        "count",
    );
    report.metric(
        "pool.steals_per_job",
        (a.steals() - b.steals()) as f64 / jobs,
        "count",
    );
    report.metric("pool.promotions", promotions as f64, "count");
    report.metric(
        "pool.promotion_us_mean",
        us(a.promotion_ns - b.promotion_ns) / promotions.max(1) as f64,
        "us",
    );
    report.metric(
        "pool.coercion_base_hit_rate",
        (a.coercion_base_hits() - b.coercion_base_hits()) as f64 / probes.max(1) as f64,
        "ratio",
    );
    report.metric(
        "pool.local_coercion_nodes",
        a.local_coercion_nodes() as f64,
        "count",
    );
    report.metric("pool.rejected", run.rejected as f64, "count");
    report.metric(
        "obs.audit_records_per_job",
        run.audit.records as f64 / jobs,
        "count",
    );
    report.metric("obs.audit_dropped", run.audit_dropped as f64, "count");
    report.metric("loadgen.offered_per_s", run.submitted_per_s, "1/s");
    report.metric(
        "loadgen.lag_p99_us",
        us(quantile(&run.think_ns, 0.99)),
        "us",
    );
    let holds = promotions > 0 && probes > 0 && a.slices() > b.slices() && run.audit.records > 0;
    println!(
        "rationale {}: the pool layers are on the path (promotions, slices, base probes, audit records all non-zero)",
        if holds { "holds" } else { "does not hold" }
    );
}

const POOL_METRICS: [(&str, &str); 15] = [
    ("pool.queue_wait_p50_us", "us"),
    ("pool.queue_wait_p99_us", "us"),
    ("pool.service_p50_us", "us"),
    ("pool.slices_per_job", "count"),
    ("pool.preemptions_per_job", "count"),
    ("pool.steals_per_job", "count"),
    ("pool.promotions", "count"),
    ("pool.promotion_us_mean", "us"),
    ("pool.coercion_base_hit_rate", "ratio"),
    ("pool.local_coercion_nodes", "count"),
    ("pool.rejected", "count"),
    ("obs.audit_records_per_job", "count"),
    ("obs.audit_dropped", "count"),
    ("loadgen.offered_per_s", "1/s"),
    ("loadgen.lag_p99_us", "us"),
];

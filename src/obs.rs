//! The pool's observability bundle: every instrument the
//! [`SessionPool`](crate::SessionPool) exports, wired to one
//! [`Registry`], plus the bounded [`AuditSink`] the workers emit
//! per-job records into.
//!
//! The bundle is built once at pool construction and shared by
//! reference through `PoolShared`. Its counter cells are the pool's
//! only store of counts, the interning counts of the worker sessions
//! included: [`PoolStats`] reads the same cells the
//! exposition renders. The hot path touches only wait-free cells —
//! counter `fetch_add`s, histogram `fetch_add`s, the parked-depth
//! gauge each worker sets at the end of a turn — and the audit ring's
//! short push-only mutex. The other gauges (queue depths, epoch, base
//! hit rates) are *polled*: they are refreshed from a
//! [`PoolStats`] snapshot at render time rather
//! than written on the job path, so a gauge read costs serving
//! nothing.

use std::sync::Arc;
use std::time::Duration;

use bc_obs::{AuditOutcome, AuditRecord, AuditSink, Counter, Gauge, Histogram, Registry};

use crate::pool::PoolStats;
use crate::session::SessionStats;

/// Default retention of the audit ring (records, not bytes): deep
/// enough that a drain cadence of "every few thousand jobs" loses
/// nothing, small enough (~a few hundred KiB of flat records) to be
/// an always-on default.
pub(crate) const DEFAULT_AUDIT_CAPACITY: usize = 8192;

/// Saturating nanosecond conversion (a `Duration` past `u64::MAX`
/// nanoseconds is ~585 years; clamping is academic but total).
pub(crate) fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The interning counts a worker's session accumulates: one `u64`
/// each in a snapshot, one cell each in [`WorkerCounters`]. At each
/// resolution the worker adds the change since its last resolution to
/// its cells ([`WorkerCounters::publish`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SessionCounts<T = u64> {
    pub(crate) local_coercion_nodes: T,
    pub(crate) local_type_nodes: T,
    pub(crate) coercion_probes: T,
    pub(crate) coercion_base_hits: T,
    pub(crate) compose_probes: T,
    pub(crate) compose_base_hits: T,
    pub(crate) type_base_hits: T,
    pub(crate) programs_lowered: T,
}

impl SessionCounts {
    pub(crate) fn of(stats: &SessionStats) -> SessionCounts {
        SessionCounts {
            local_coercion_nodes: stats.tier.local_coercion_nodes as u64,
            local_type_nodes: stats.tier.local_type_nodes as u64,
            coercion_probes: stats.coercions.node_hits + stats.coercions.node_misses,
            coercion_base_hits: stats.coercions.base_hits,
            compose_probes: stats.compose.hits + stats.compose.misses,
            compose_base_hits: stats.compose.base_hits,
            type_base_hits: stats.tier.type_base_hits,
            programs_lowered: stats.programs as u64,
        }
    }
}

impl<T> SessionCounts<T> {
    /// Every count with the exposition series it renders as.
    fn series(&self) -> [(&'static str, &T); 8] {
        [
            ("bc_local_coercion_nodes_total", &self.local_coercion_nodes),
            ("bc_local_type_nodes_total", &self.local_type_nodes),
            ("bc_coercion_probes_total", &self.coercion_probes),
            ("bc_coercion_base_hits_total", &self.coercion_base_hits),
            ("bc_compose_probes_total", &self.compose_probes),
            ("bc_compose_base_hits_total", &self.compose_base_hits),
            ("bc_type_base_hits_total", &self.type_base_hits),
            ("bc_programs_lowered_total", &self.programs_lowered),
        ]
    }
}

/// One worker's counter cells. Each cell is incremented at exactly
/// one site in the pool, and the exposition renders each series as
/// the sum of its cells over the workers.
#[derive(Debug, Default)]
pub(crate) struct WorkerCounters {
    /// Jobs resolved on this worker, indexed by
    /// [`AuditOutcome::index`]. A rejected submission counts on the
    /// worker it targeted.
    outcomes: [Arc<Counter>; AuditOutcome::ALL.len()],
    pub(crate) slices: Arc<Counter>,
    pub(crate) preemptions: Arc<Counter>,
    pub(crate) steals: Arc<Counter>,
    pub(crate) sessions_retired: Arc<Counter>,
    /// The session counts, cumulative across the worker's sessions.
    pub(crate) session: SessionCounts<Arc<Counter>>,
}

impl WorkerCounters {
    /// Jobs this worker resolved with `outcome`.
    pub(crate) fn resolved(&self, outcome: AuditOutcome) -> u64 {
        self.outcomes[outcome.index()].get()
    }

    /// Jobs this worker claimed and resolved: every outcome but a
    /// rejection, which never reached a worker.
    pub(crate) fn jobs(&self) -> u64 {
        AuditOutcome::ALL
            .iter()
            .filter(|&&outcome| outcome != AuditOutcome::Rejected)
            .map(|&outcome| self.resolved(outcome))
            .sum()
    }

    /// Adds what one session counted between the snapshots `seen`
    /// and `now` to the session cells.
    pub(crate) fn publish(&self, seen: &SessionCounts, now: &SessionCounts) {
        let (cells, seen, now) = (self.session.series(), seen.series(), now.series());
        for (((_, cell), (_, seen)), (_, now)) in cells.into_iter().zip(seen).zip(now) {
            cell.add(now - seen);
        }
    }
}

/// One cell per worker, picked by `cell`: the cells of one
/// exposition series.
fn per_worker(
    counters: &[WorkerCounters],
    cell: impl Fn(&WorkerCounters) -> &Arc<Counter>,
) -> Vec<Arc<Counter>> {
    counters.iter().map(|w| Arc::clone(cell(w))).collect()
}

/// All pool instruments plus the audit sink. Counters only ever
/// grow, and no cell belongs to a session, so they are monotone
/// across epoch rebuilds, session retirements, and worker restarts
/// by construction.
#[derive(Debug)]
pub(crate) struct PoolObs {
    registry: Registry,
    /// Per-worker counter cells, indexed by worker.
    pub(crate) counters: Vec<WorkerCounters>,
    /// End-to-end latency (submission → resolution), nanoseconds.
    latency: Arc<Histogram>,
    /// Time queued before a worker claimed the job, nanoseconds.
    queue_wait: Arc<Histogram>,
    pub(crate) promotions: Arc<Counter>,
    /// Wall-clock nanoseconds spent promoting, summed.
    pub(crate) promotion_ns: Arc<Counter>,
    pub(crate) respawns: Arc<Counter>,
    epoch: Arc<Gauge>,
    workers: Arc<Gauge>,
    base_hit_rate: Arc<Gauge>,
    compose_base_hit_rate: Arc<Gauge>,
    queue_depth: Vec<Arc<Gauge>>,
    /// Per-worker parked-run-queue depths, each set by its worker at
    /// the end of every turn.
    pub(crate) parked_depth: Vec<Arc<Gauge>>,
    sink: AuditSink,
}

impl PoolObs {
    pub(crate) fn new(workers: usize, audit_capacity: usize) -> PoolObs {
        let registry = Registry::new();
        let counters: Vec<WorkerCounters> =
            (0..workers).map(|_| WorkerCounters::default()).collect();
        for outcome in AuditOutcome::ALL {
            registry.attach_counter(
                "bc_jobs_total",
                "Jobs resolved, by outcome.",
                &[("outcome", outcome.as_str())],
                &per_worker(&counters, |w| &w.outcomes[outcome.index()]),
            );
        }
        let latency = registry.histogram(
            "bc_job_latency_ns",
            "End-to-end job latency (submission to resolution), nanoseconds.",
            &[],
        );
        let queue_wait = registry.histogram(
            "bc_job_queue_wait_ns",
            "Time a job waited in a queue before a worker claimed it, nanoseconds.",
            &[],
        );
        registry.attach_counter(
            "bc_slices_total",
            "Scheduling turns executed (one job, up to one slice of steps).",
            &[],
            &per_worker(&counters, |w| &w.slices),
        );
        registry.attach_counter(
            "bc_preemptions_total",
            "Slices that ended with the job parked rather than finished.",
            &[],
            &per_worker(&counters, |w| &w.preemptions),
        );
        registry.attach_counter(
            "bc_steals_total",
            "Jobs claimed from a sibling worker's queue.",
            &[],
            &per_worker(&counters, |w| &w.steals),
        );
        let promotions = registry.counter(
            "bc_promotions_total",
            "Overlay-to-base promotions published.",
            &[],
        );
        let promotion_ns = registry.counter(
            "bc_promotion_ns_total",
            "Wall-clock nanoseconds spent freezing and publishing promotions.",
            &[],
        );
        let respawns = registry.counter(
            "bc_respawns_total",
            "Workers restarted in place after a caught serve panic.",
            &[],
        );
        registry.attach_counter(
            "bc_sessions_retired_total",
            "Worker sessions retired (epoch adoptions + panic recoveries).",
            &[],
            &per_worker(&counters, |w| &w.sessions_retired),
        );
        for (i, (name, _)) in SessionCounts::<u64>::default().series().iter().enumerate() {
            registry.attach_counter(
                name,
                "A worker-session interning count, cumulative across sessions.",
                &[],
                &per_worker(&counters, |w| w.session.series()[i].1),
            );
        }
        let sink = AuditSink::new(audit_capacity);
        registry.attach_counter(
            "bc_audit_dropped_total",
            "Audit records evicted from the ring without being drained.",
            &[],
            &[sink.dropped_cell()],
        );
        let epoch = registry.gauge("bc_epoch", "Current base epoch (1 = warmup).", &[]);
        let workers_gauge = registry.gauge("bc_workers", "Worker threads.", &[]);
        let base_hit_rate = registry.gauge(
            "bc_coercion_base_hit_rate",
            "Fraction of coercion-intern probes answered by the frozen base, \
             cumulative across epochs.",
            &[],
        );
        let compose_base_hit_rate = registry.gauge(
            "bc_compose_base_hit_rate",
            "Fraction of compositions answered by a frozen pair table, \
             cumulative across epochs.",
            &[],
        );
        let per_worker_gauge = |name: &str, help: &str| -> Vec<Arc<Gauge>> {
            (0..workers)
                .map(|i| registry.gauge(name, help, &[("worker", &i.to_string())]))
                .collect()
        };
        let queue_depth = per_worker_gauge(
            "bc_queue_depth",
            "Jobs waiting in this worker's intake queue.",
        );
        let parked_depth = per_worker_gauge(
            "bc_parked_depth",
            "Jobs parked mid-run in this worker's run queue.",
        );
        PoolObs {
            registry,
            counters,
            latency,
            queue_wait,
            promotions,
            promotion_ns,
            respawns,
            epoch,
            workers: workers_gauge,
            base_hit_rate,
            compose_base_hit_rate,
            queue_depth,
            parked_depth,
            sink,
        }
    }

    /// Records one job resolution: its worker's outcome cell, the
    /// latency histogram, the queue-wait histogram (unless the job was
    /// rejected and so never queued), and one audit record. Every
    /// resolved job lands here exactly once, so each histogram's
    /// `_count` equals the jobs it covers. Wait-free except for the
    /// audit ring's push mutex.
    pub(crate) fn resolved(&self, record: AuditRecord) {
        self.counters[record.worker].outcomes[record.outcome.index()].inc();
        self.latency.record(record.latency_ns);
        if record.outcome != AuditOutcome::Rejected {
            self.queue_wait.record(record.queue_wait_ns);
        }
        self.sink.emit(record);
    }

    /// The audit stream.
    pub(crate) fn sink(&self) -> &AuditSink {
        &self.sink
    }

    /// Refreshes the polled gauges from a stats snapshot,
    /// then renders the full text exposition.
    pub(crate) fn render(&self, stats: &PoolStats) -> String {
        self.epoch.set(stats.epoch as f64);
        self.workers.set(stats.workers.len() as f64);
        self.base_hit_rate.set(stats.coercion_base_hit_rate());
        self.compose_base_hit_rate
            .set(stats.compose_base_hit_rate());
        for (gauge, w) in self.queue_depth.iter().zip(&stats.workers) {
            gauge.set(w.queue_depth as f64);
        }
        self.registry.render()
    }
}

//! Lock-free metric primitives and the exposition registry.
//!
//! Three instrument kinds, all readable and writable from any thread
//! without locks on the record path:
//!
//! * [`Counter`] — a monotone `u64` (wait-free `fetch_add`);
//! * [`Gauge`] — an `f64` that goes up and down (stored as bits in an
//!   `AtomicU64`; set/read are single atomic ops);
//! * [`Histogram`] — a fixed array of 64 log2 buckets. Recording is
//!   wait-free (one `fetch_add` on the value's bucket, one on the
//!   running sum); reading takes a [`HistogramSnapshot`], and
//!   snapshots merge by bucket-wise addition.
//!
//! # Consistency contract
//!
//! Writers publish with `Release` and readers load with `Acquire` —
//! the same discipline `bc_syntax::slab` uses to publish rows before
//! watermarks — so a snapshot never sees a torn single cell and every
//! count it reads was fully recorded. Across *distinct* cells (two
//! buckets, or a bucket and the sum) there is no global ordering:
//! a snapshot taken while recorders are mid-flight is a bucket-wise
//! valid, monotone view that may straddle in-progress records. Once
//! recorders quiesce (join, or reach a barrier), a snapshot is exact:
//! `count()` equals the number of `record` calls and `sum()` their
//! total — the property the concurrency tests pin.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone counter. Cloning the `Arc` handle shares the cell.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Release);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

/// A gauge: an `f64` that moves in both directions, stored as raw bits
/// in one `AtomicU64` (never torn).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at `0.0`.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replaces the value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Release);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]`, and the last bucket absorbs
/// everything from `2^62` up (an upper bound no latency or step count
/// reaches).
pub const BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram of `u64` samples (latencies in
/// nanoseconds, step counts, depths — anything non-negative).
///
/// Recording is wait-free and allocation-free; see the
/// [module docs](self) for the snapshot consistency contract.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (BUCKETS - 1).min(64 - value.leading_zeros() as usize)
    }
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the last).
fn bucket_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A histogram with every bucket at zero.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample (wait-free: two `fetch_add`s).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Release);
        self.sum.fetch_add(value, Ordering::Release);
    }

    /// A point-in-time view (see the [module docs](self) for what
    /// "point in time" means under concurrent recorders).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Acquire)),
            sum: self.sum.load(Ordering::Acquire),
        }
    }
}

/// An owned, mergeable view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    sum: u64,
}

impl HistogramSnapshot {
    /// Total samples recorded (the sum over all buckets — there is no
    /// separate count cell to drift from the buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded sample values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Samples in bucket `i` (values `≤` [`HistogramSnapshot::bound`]).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// The inclusive upper bound of bucket `i`.
    pub fn bound(i: usize) -> u64 {
        bucket_bound(i)
    }

    /// Bucket-wise merge with another snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }
}

/// One registered instrument. A counter series may span several
/// cells (e.g. one per worker); it renders their sum.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Vec<Arc<Counter>>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A registered series: instrument + name + help + label pairs.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// Names instruments and renders them as a Prometheus-style text
/// exposition (`# HELP` / `# TYPE` header once per metric name, one
/// sample line per series; histograms render cumulative
/// `_bucket{le="…"}` lines plus `_sum` and `_count`).
///
/// Registration takes a short mutex (it happens at setup time, and
/// the exposition render walks the same list); the instruments handed
/// back are `Arc`s whose record paths never touch the registry again.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a counter series and returns its handle. Register
    /// every series of one metric name with the same `help`; the
    /// exposition emits the header once, at the first series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let counter = Arc::new(Counter::new());
        self.attach_counter(name, help, labels, &[Arc::clone(&counter)]);
        counter
    }

    /// Registers *existing* counter cells as one series that renders
    /// their sum — for counters owned elsewhere (e.g. the
    /// [`crate::AuditSink`]'s drop counter, or one cell per worker),
    /// so the cells are both the live accounting and the rendered
    /// metric.
    pub fn attach_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        cells: &[Arc<Counter>],
    ) {
        self.push(name, help, labels, Instrument::Counter(cells.to_vec()));
    }

    /// Registers a gauge series and returns its handle.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let gauge = Arc::new(Gauge::new());
        self.push(name, help, labels, Instrument::Gauge(Arc::clone(&gauge)));
        gauge
    }

    /// Registers a histogram series and returns its handle.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::new());
        self.push(
            name,
            help,
            labels,
            Instrument::Histogram(Arc::clone(&histogram)),
        );
        histogram
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, &str)], instrument: Instrument) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            instrument,
        });
    }

    /// Renders every registered instrument in Prometheus text format.
    /// Series are grouped by metric name (first-registration order);
    /// empty histogram buckets are elided (the `le` bounds that do
    /// appear stay sorted, and `+Inf`, `_sum`, `_count` always
    /// render).
    pub fn render(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let mut done: Vec<&str> = Vec::new();
        for (i, entry) in entries.iter().enumerate() {
            if done.contains(&entry.name.as_str()) {
                continue;
            }
            done.push(&entry.name);
            writeln!(out, "# HELP {} {}", entry.name, entry.help).expect("string writes");
            writeln!(
                out,
                "# TYPE {} {}",
                entry.name,
                entry.instrument.type_name()
            )
            .expect("string writes");
            for series in entries[i..].iter().filter(|e| e.name == entry.name) {
                render_series(&mut out, series);
            }
        }
        out
    }
}

/// Formats `{k="v",…}` (empty string when there are no labels); the
/// extra pairs are appended after the series' own labels.
fn label_block(labels: &[(String, String)], extra: &[(&str, String)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    let mut push = |out: &mut String, key: &str, value: &str| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{}\"", escape_label(value));
    };
    for (k, v) in labels {
        push(&mut out, k, v);
    }
    for (k, v) in extra {
        push(&mut out, k, v);
    }
    out.push('}');
    out
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_series(out: &mut String, entry: &Entry) {
    match &entry.instrument {
        Instrument::Counter(cells) => {
            let labels = label_block(&entry.labels, &[]);
            let total: u64 = cells.iter().map(|c| c.get()).sum();
            writeln!(out, "{}{labels} {total}", entry.name).expect("string writes");
        }
        Instrument::Gauge(g) => {
            let labels = label_block(&entry.labels, &[]);
            writeln!(out, "{}{labels} {}", entry.name, g.get()).expect("string writes");
        }
        Instrument::Histogram(h) => {
            let snapshot = h.snapshot();
            let mut cumulative = 0u64;
            for i in 0..BUCKETS {
                let count = snapshot.bucket(i);
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let le = label_block(&entry.labels, &[("le", bucket_bound(i).to_string())]);
                writeln!(out, "{}_bucket{le} {cumulative}", entry.name).expect("string writes");
            }
            let inf = label_block(&entry.labels, &[("le", "+Inf".to_owned())]);
            writeln!(out, "{}_bucket{inf} {cumulative}", entry.name).expect("string writes");
            let labels = label_block(&entry.labels, &[]);
            writeln!(out, "{}_sum{labels} {}", entry.name, snapshot.sum()).expect("string writes");
            writeln!(out, "{}_count{labels} {}", entry.name, snapshot.count())
                .expect("string writes");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every value's bucket bound covers it, and the previous
        // bucket's bound does not.
        for value in [0u64, 1, 2, 3, 7, 8, 1_000_000, u64::MAX / 2] {
            let i = bucket_of(value);
            assert!(value <= bucket_bound(i), "{value} exceeds its bound");
            if i > 0 {
                assert!(value > bucket_bound(i - 1), "{value} fits a lower bucket");
            }
        }
    }

    #[test]
    fn histogram_counts_and_sums_exactly() {
        let h = Histogram::new();
        let values = [0u64, 1, 1, 5, 1024, 1_000_000];
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), values.len() as u64);
        assert_eq!(s.sum(), values.iter().sum::<u64>());
        // Merge doubles everything.
        let mut merged = s.clone();
        merged.merge(&s);
        assert_eq!(merged.count(), 2 * values.len() as u64);
        assert_eq!(merged.sum(), 2 * values.iter().sum::<u64>());
    }

    #[test]
    fn render_groups_series_and_accumulates_buckets() {
        let registry = Registry::new();
        let a = registry.counter("jobs_total", "Jobs by outcome.", &[("outcome", "value")]);
        let b = registry.counter("jobs_total", "Jobs by outcome.", &[("outcome", "blame")]);
        let g = registry.gauge("depth", "Queue depth.", &[]);
        let h = registry.histogram("latency_ns", "Latency.", &[]);
        let cells = [Arc::new(Counter::new()), Arc::new(Counter::new())];
        registry.attach_counter("steals_total", "Steals.", &[], &cells);
        cells[0].add(2);
        cells[1].add(5);
        a.add(3);
        b.inc();
        g.set(2.5);
        h.record(1);
        h.record(900);
        let text = registry.render();
        assert_eq!(text.matches("# HELP jobs_total").count(), 1);
        assert!(text.contains("jobs_total{outcome=\"value\"} 3"));
        assert!(text.contains("jobs_total{outcome=\"blame\"} 1"));
        assert!(text.contains("depth 2.5"));
        // A multi-cell series renders the sum of its cells.
        assert!(text.contains("steals_total 7"));
        assert!(text.contains("latency_ns_bucket{le=\"1\"} 1"));
        // 900 lands in [512, 1023]; the cumulative count includes the
        // earlier bucket.
        assert!(text.contains("latency_ns_bucket{le=\"1023\"} 2"));
        assert!(text.contains("latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("latency_ns_sum 901"));
        assert!(text.contains("latency_ns_count 2"));
    }
}

//! Blame analytics: deterministic folds of [`AuditRecord`] streams
//! into a corpus-level [`BlameReport`].
//!
//! A single run's blame label says *this* boundary failed; a fold over
//! thousands of runs says which boundary fails *most*, which source
//! shapes leak cast frames on the λB/λC machines, and where fuel and
//! deadlines go — the aggregate view that makes blame actionable (and
//! the workload the ROADMAP's observability item opens).
//!
//! The fold is plain `BTreeMap` bookkeeping: deterministic iteration
//! order, exact counts — a sequential oracle folding the same records
//! produces byte-identical reports, which `examples/analytics.rs`
//! asserts against a real pool.

use std::collections::BTreeMap;
use std::fmt;

use crate::audit::{AuditOutcome, AuditRecord};

/// Collapses a source text to its structural family: every ASCII
/// digit is stripped, so generated variants that differ only in
/// constants (`bc_testkit::sources::mixed` varies exactly those) fold
/// to one key. Whitespace is collapsed too, keeping keys single-line.
pub fn shape_key(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    let mut last_space = false;
    for c in source.chars() {
        if c.is_ascii_digit() {
            continue;
        }
        if c.is_whitespace() {
            if !last_space && !out.is_empty() {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out.truncate(out.trim_end().len());
    out
}

/// Running min/max/sum/count of one shape's peak-cast-frame samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeakDist {
    /// Samples folded in.
    pub count: u64,
    /// Smallest observed peak.
    pub min: u64,
    /// Largest observed peak.
    pub max: u64,
    /// Sum of peaks (divide by `count` for the mean).
    pub sum: u64,
}

impl PeakDist {
    fn observe(&mut self, peak: u64) {
        if self.count == 0 {
            self.min = peak;
            self.max = peak;
        } else {
            self.min = self.min.min(peak);
            self.max = self.max.max(peak);
        }
        self.count += 1;
        self.sum += peak;
    }

    /// Mean peak (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The live fold. Feed it records with [`BlameAnalytics::observe`]
/// (singly or via [`BlameAnalytics::observe_all`]), read it with
/// [`BlameAnalytics::report`].
#[derive(Debug, Clone, Default)]
pub struct BlameAnalytics {
    records: u64,
    outcomes: BTreeMap<&'static str, u64>,
    /// blame label display form → (cast site, count).
    blame: BTreeMap<String, (u32, u64)>,
    fuel_by_shape: BTreeMap<String, u64>,
    deadline_by_shape: BTreeMap<String, u64>,
    /// (shape, engine) → peak-cast-frame distribution, machine
    /// engines only (small-step engines report no space metrics).
    cast_peaks: BTreeMap<(String, String), PeakDist>,
}

impl BlameAnalytics {
    /// An empty fold.
    pub fn new() -> BlameAnalytics {
        BlameAnalytics::default()
    }

    /// Folds one record in.
    pub fn observe(&mut self, record: &AuditRecord) {
        self.records += 1;
        *self.outcomes.entry(record.outcome.as_str()).or_default() += 1;
        match record.outcome {
            AuditOutcome::Blame => {
                let label = record.blame_label.clone().unwrap_or_default();
                let entry = self
                    .blame
                    .entry(label)
                    .or_insert((record.cast_site.unwrap_or(u32::MAX), 0));
                entry.1 += 1;
            }
            AuditOutcome::FuelExhausted => {
                *self.fuel_by_shape.entry(record.shape.clone()).or_default() += 1;
            }
            AuditOutcome::DeadlineExceeded => {
                *self
                    .deadline_by_shape
                    .entry(record.shape.clone())
                    .or_default() += 1;
            }
            _ => {}
        }
        // Space peaks are a property of runs, not failures: every
        // record that executed machine steps contributes.
        if record.peak_frames > 0 {
            self.cast_peaks
                .entry((record.shape.clone(), record.engine.to_owned()))
                .or_default()
                .observe(record.peak_cast_frames);
        }
    }

    /// Folds a batch in.
    pub fn observe_all<'a>(&mut self, records: impl IntoIterator<Item = &'a AuditRecord>) {
        for record in records {
            self.observe(record);
        }
    }

    /// Records folded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Exact per-label blame counts, in label order — the map the
    /// sequential-oracle comparison checks wholesale.
    pub fn blame_counts(&self) -> BTreeMap<String, u64> {
        self.blame
            .iter()
            .map(|(label, &(_, count))| (label.clone(), count))
            .collect()
    }

    /// The corpus-level report, keeping the `top_k` most-blamed
    /// labels (ties break by label, so the report is deterministic).
    pub fn report(&self, top_k: usize) -> BlameReport {
        let mut top_blame: Vec<BlameEntry> = self
            .blame
            .iter()
            .map(|(label, &(site, count))| BlameEntry {
                label: label.clone(),
                cast_site: site,
                count,
            })
            .collect();
        top_blame.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.label.cmp(&b.label)));
        top_blame.truncate(top_k);
        BlameReport {
            records: self.records,
            outcomes: self
                .outcomes
                .iter()
                .map(|(&k, &v)| (k.to_owned(), v))
                .collect(),
            top_blame,
            fuel_by_shape: self
                .fuel_by_shape
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            deadline_by_shape: self
                .deadline_by_shape
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            cast_peaks: self
                .cast_peaks
                .iter()
                .map(|((shape, engine), &dist)| (shape.clone(), engine.clone(), dist))
                .collect(),
        }
    }
}

/// One blamed boundary in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameEntry {
    /// The label's display form (`"p3"`, `"¬p1"`, …).
    pub label: String,
    /// The label's allocation id (`u32::MAX` when unknown).
    pub cast_site: u32,
    /// Runs that blamed it.
    pub count: u64,
}

/// The rendered corpus view: everything sorted, everything exact.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameReport {
    /// Records folded.
    pub records: u64,
    /// Outcome name → count, in name order.
    pub outcomes: Vec<(String, u64)>,
    /// Most-blamed labels, descending by count.
    pub top_blame: Vec<BlameEntry>,
    /// Fuel-exhaustion counts by source shape.
    pub fuel_by_shape: Vec<(String, u64)>,
    /// Deadline-miss counts by source shape.
    pub deadline_by_shape: Vec<(String, u64)>,
    /// (shape, engine, peak-cast-frame distribution) for every
    /// machine-run family — λB/λC peaks grow with the program where
    /// λS stays flat.
    pub cast_peaks: Vec<(String, String, PeakDist)>,
}

/// Truncates a shape key for display.
fn clip(shape: &str) -> String {
    const MAX: usize = 48;
    if shape.chars().count() <= MAX {
        shape.to_owned()
    } else {
        let head: String = shape.chars().take(MAX).collect();
        format!("{head}…")
    }
}

impl fmt::Display for BlameReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "blame report over {} records", self.records)?;
        writeln!(f, "  outcomes:")?;
        for (outcome, count) in &self.outcomes {
            writeln!(f, "    {outcome:<18} {count}")?;
        }
        if !self.top_blame.is_empty() {
            writeln!(f, "  top blamed boundaries:")?;
            for entry in &self.top_blame {
                writeln!(
                    f,
                    "    {:<6} (cast site {:>3})  {} runs",
                    entry.label, entry.cast_site, entry.count
                )?;
            }
        }
        if !self.fuel_by_shape.is_empty() {
            writeln!(f, "  fuel exhaustion by shape:")?;
            for (shape, count) in &self.fuel_by_shape {
                writeln!(f, "    {count:>6}  {}", clip(shape))?;
            }
        }
        if !self.deadline_by_shape.is_empty() {
            writeln!(f, "  deadline misses by shape:")?;
            for (shape, count) in &self.deadline_by_shape {
                writeln!(f, "    {count:>6}  {}", clip(shape))?;
            }
        }
        if !self.cast_peaks.is_empty() {
            writeln!(f, "  peak cast frames by (shape, engine):")?;
            for (shape, engine, dist) in &self.cast_peaks {
                writeln!(
                    f,
                    "    {engine:<8} min {:>3} / mean {:>7.2} / max {:>3}  ({} runs)  {}",
                    dist.min,
                    dist.mean(),
                    dist.max,
                    dist.count,
                    clip(shape)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blame_record(label: &str, site: u32, shape: &str) -> AuditRecord {
        AuditRecord {
            seq: 0,
            worker: 0,
            epoch: 1,
            engine: "MachineS",
            outcome: AuditOutcome::Blame,
            blame_label: Some(label.to_owned()),
            cast_site: Some(site),
            steps: 20,
            peak_frames: 3,
            peak_cast_frames: 1,
            latency_ns: 5_000,
            queue_wait_ns: 500,
            shape: shape.to_owned(),
        }
    }

    #[test]
    fn shape_key_collapses_constant_variants() {
        let a = shape_key("let f = fun x => x + 7 in f true");
        let b = shape_key("let f = fun x => x + 23 in f true");
        assert_eq!(a, b);
        assert_eq!(a, "let f = fun x => x + in f true");
        assert_ne!(a, shape_key("let f = fun x => x * 7 in f true"));
    }

    #[test]
    fn top_blame_sorts_by_count_then_label() {
        let mut fold = BlameAnalytics::new();
        for _ in 0..3 {
            fold.observe(&blame_record("p2", 2, "s"));
        }
        for label in ["p1", "p3"] {
            fold.observe(&blame_record(label, 1, "s"));
        }
        let report = fold.report(2);
        assert_eq!(report.records, 5);
        assert_eq!(report.top_blame.len(), 2);
        assert_eq!(report.top_blame[0].label, "p2");
        assert_eq!(report.top_blame[0].count, 3);
        assert_eq!(report.top_blame[1].label, "p1");
        assert_eq!(
            fold.blame_counts().into_iter().collect::<Vec<_>>(),
            vec![
                ("p1".to_owned(), 1),
                ("p2".to_owned(), 3),
                ("p3".to_owned(), 1)
            ]
        );
        // The fold is order-independent: the same records in another
        // order produce the same report.
        let mut reversed = BlameAnalytics::new();
        for label in ["p3", "p1"] {
            reversed.observe(&blame_record(label, 1, "s"));
        }
        for _ in 0..3 {
            reversed.observe(&blame_record("p2", 2, "s"));
        }
        assert_eq!(reversed.report(2), report);
    }

    #[test]
    fn failure_breakdowns_key_by_shape() {
        let mut fold = BlameAnalytics::new();
        let mut fuel = blame_record("", 0, "letrec spin (n : Int) : Int = spin (n + ) in spin");
        fuel.outcome = AuditOutcome::FuelExhausted;
        fuel.blame_label = None;
        fuel.cast_site = None;
        fold.observe(&fuel);
        fold.observe(&fuel);
        let report = fold.report(5);
        assert_eq!(report.fuel_by_shape.len(), 1);
        assert_eq!(report.fuel_by_shape[0].1, 2);
        assert!(report.top_blame.is_empty());
        // Machine runs contribute their cast peaks keyed by engine.
        assert_eq!(report.cast_peaks.len(), 1);
        let (_, engine, dist) = &report.cast_peaks[0];
        assert_eq!(engine, "MachineS");
        assert_eq!(dist.count, 2);
    }
}

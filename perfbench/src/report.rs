//! Summary statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (nearest rank) of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One request's timing: when it was handed over, from the start of
/// the run, and its latency; `u64::MAX` latency for a wrong or refused
/// request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_ns: u64,
    pub latency_ns: u64,
}

/// Length of the windows a run is cut into.
const WINDOW_NS: u64 = 250_000_000;

/// The latencies (ascending) of the run without its noisiest quarter:
/// the run is cut into quarter-second windows, the windows are ranked
/// by mean latency, and the slowest quarter is dropped. Besides
/// drifting in speed (see `calib`), the shared machine this runs on
/// stalls threads for milliseconds at random, so whole-run tails
/// mostly measure how many stalls a run caught. Wrong requests are
/// always kept. Returns the latencies with the windows kept and the
/// windows in the run.
pub fn quiet_windows(samples: &[Sample]) -> (Vec<u64>, usize, usize) {
    let mut windows: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    let mut kept = Vec::new();
    for s in samples {
        if s.latency_ns == u64::MAX {
            kept.push(s.latency_ns);
        } else {
            windows
                .entry(s.at_ns / WINDOW_NS)
                .or_default()
                .push(s.latency_ns);
        }
    }
    let total = windows.len();
    let mut ranked: Vec<(f64, Vec<u64>)> = windows
        .into_values()
        .map(|w| (w.iter().sum::<u64>() as f64 / w.len() as f64, w))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = total - total / 4;
    for (_, w) in ranked.into_iter().take(keep) {
        kept.extend(w);
    }
    kept.sort_unstable();
    (kept, keep, total)
}

/// The process's high-water resident set, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics by name, in insertion order, plus the run's accounting.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Checks beyond per-request verdicts (constant space, audit
    /// accounting, repeatable counts) that did not hold.
    pub broken_checks: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// Counts a request whose outcome was wrong, printing the first few.
    pub fn mismatch(&mut self, what: std::fmt::Arguments<'_>) {
        self.failed += 1;
        if self.failed <= 20 {
            println!("mismatch: {what}");
        }
    }

    pub fn check(&mut self, holds: bool, what: String) {
        println!("check {}: {what}", if holds { "ok" } else { "FAILED" });
        if !holds {
            self.broken_checks.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken_checks.is_empty()
    }

    /// Prints every metric as a readable line, then the JSON result as
    /// the last line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

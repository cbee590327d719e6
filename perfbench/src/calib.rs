//! Machine-speed calibration.
//!
//! The two-core virtual machine this benchmark was tuned on is shared:
//! its speed drifts by up to 60% over seconds to minutes, so a raw
//! time mostly says when it was taken. Every time the benchmark
//! reports is therefore scaled to a reference speed: a fixed kernel of
//! the benchmark's own (no code of the system under test) is timed
//! every quarter second, and times measured in that period are
//! multiplied by `REFERENCE_NS / probe`. A change to the system cannot
//! move the kernel, so a gain or a regression survives the scaling.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::Sample;

/// The kernel's time, in ns, on that machine at full speed.
pub const REFERENCE_NS: f64 = 70_000.0;
/// How often the closed loops and the generator re-calibrate.
pub const PERIOD: Duration = Duration::from_millis(250);

const KEYS: usize = 6_000;

/// Hashing and sorting of a fixed key set: a stand-in for the
/// allocation-, branch- and memory-bound work of the system.
fn kernel() {
    let mut x = 0x5EED_u64;
    let mut keys = Vec::with_capacity(KEYS);
    for _ in 0..KEYS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        keys.push(z ^ (z >> 27));
    }
    keys.sort_unstable();
    black_box(&keys);
}

/// The fastest of three kernel runs, in ns (a probe interrupted by the
/// scheduler should not count).
pub fn probe() -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            kernel();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that scales a time measured between probes reading `a`
/// and `b` to the reference speed.
pub fn factor(a: f64, b: f64) -> f64 {
    2.0 * REFERENCE_NS / (a + b)
}

/// Scales the latencies of `samples` (not the `u64::MAX` of a wrong
/// request) by `factor`.
pub fn scale(samples: &mut [Sample], factor: f64) {
    for s in samples.iter_mut().filter(|s| s.latency_ns != u64::MAX) {
        s.latency_ns = (s.latency_ns as f64 * factor) as u64;
    }
}

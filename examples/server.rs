//! A worker-pool serving demo: N threads, one shared frozen base,
//! preemptive timeslicing.
//!
//! Act 1 builds a [`SessionPool`] warmed on one representative per
//! program shape, serves a 128-program mixed workload across the
//! workers, and prints what the epoch lifecycle's serve phase bought:
//! every worker's arenas stay at **zero** locally interned nodes —
//! the whole warm working set lives in the `Arc`-shared read-only
//! base — while outcomes (values, blame, fuel exhaustion) are exactly
//! what a single-threaded session would produce.
//!
//! Act 2 drives the scheduler's job lifecycle (submit → slice → park
//! → resume → resolve) on the same pool: million-step spinners are
//! submitted *ahead* of convergent jobs, yet the convergent jobs all
//! beat their wall-clock deadlines because each spinner is preempted
//! every 4 096 steps; one spinner is canceled mid-flight and
//! the rest burn their fuel in round-robin slices.
//!
//! ```sh
//! cargo run --example server --release -- [workers]
//! ```

use std::time::{Duration, Instant};

use bc_testkit::sources;
use blame_coercion::{Deadline, Engine, JobError, RunError, SessionPool};

const SPINNER: &str = "letrec spin (n : Int) : Int = spin (n + 1) in spin 0";

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let batch = sources::mixed(2026, 128);

    let t0 = Instant::now();
    let pool = SessionPool::builder()
        .workers(workers)
        .default_fuel(100_000)
        .warmup(sources::shapes())
        .build()
        .expect("warmup compiles");
    let base = pool.base();
    println!(
        "pool up in {:?}: {} workers over a frozen base of {} coercion nodes, \
         {} type nodes, {} compose pairs, {} verdicts",
        t0.elapsed(),
        pool.workers(),
        base.coercion_nodes(),
        base.type_nodes(),
        base.compose_pairs(),
        base.verdicts(),
    );

    let t1 = Instant::now();
    let handles = pool.submit_batch(batch.iter().map(String::as_str), Engine::MachineS);
    let (mut values, mut blamed, mut exhausted) = (0usize, 0usize, 0usize);
    for handle in handles {
        match handle.wait() {
            Ok(out) => {
                if out.observation.to_string().starts_with("blame") {
                    blamed += 1;
                } else {
                    values += 1;
                }
            }
            Err(JobError::Run(RunError::FuelExhausted { .. })) => exhausted += 1,
            Err(e) => panic!("generated workload must compile and run: {e}"),
        }
    }
    let served = t1.elapsed();
    println!(
        "served {} jobs in {:?} ({:.0} jobs/s): {values} values, {blamed} blamed, \
         {exhausted} fuel-exhausted",
        batch.len(),
        served,
        batch.len() as f64 / served.as_secs_f64(),
    );

    // Act 2: preemptive scheduling. Spinners go in *first* — without
    // timeslicing they would pin their workers for a million steps
    // each, and every job behind them would inherit that latency.
    let t2 = Instant::now();
    let spinners: Vec<_> = (0..workers + 1)
        .map(|_| pool.submit_with_fuel(SPINNER, Engine::MachineS, 1_000_000))
        .collect();
    let canceled = pool.submit_with_fuel(SPINNER, Engine::MachineS, u64::MAX);
    let convergent: Vec<_> = batch
        .iter()
        .filter(|s| !s.contains("letrec spin"))
        .take(32)
        .map(|s| {
            pool.submit_with_deadline(
                s.as_str(),
                Engine::MachineS,
                Deadline::after(Duration::from_secs(30)),
            )
        })
        .collect();
    let mut met = 0usize;
    for handle in convergent {
        match handle.wait() {
            Ok(_) | Err(JobError::Run(RunError::FuelExhausted { .. })) => met += 1,
            Err(e) => panic!("convergent jobs must beat a 30 s deadline beside spinners: {e}"),
        }
    }
    canceled.cancel();
    assert!(matches!(canceled.wait(), Err(JobError::Canceled)));
    for spinner in spinners {
        assert!(matches!(
            spinner.wait(),
            Err(JobError::Run(RunError::FuelExhausted { .. }))
        ));
    }
    println!(
        "sliced serving: {met} convergent jobs met their deadlines beside {} \
         million-step spinners (one canceled mid-flight) in {:?}",
        workers + 1,
        t2.elapsed(),
    );

    // What a scrape endpoint would serve: the full text exposition —
    // outcome counters, latency/queue-wait histograms, scheduler and
    // promotion counters, polled gauges — one coherent snapshot.
    println!();
    println!("{}", pool.metrics_text());
    let stats = pool.shutdown();
    assert_eq!(stats.local_coercion_nodes(), 0);
    assert_eq!(stats.local_type_nodes(), 0);
    // Covered traffic never trips the promoter: the pool serves its
    // warmup epoch for its whole life.
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.promotions, 0);
    // The spinners were preempted, not served whole: each one burned
    // its fuel across ~244 slices of the default budget.
    assert!(stats.preemptions() >= 244 * (workers as u64 + 1));
    assert_eq!(stats.cancellations(), 1);
    println!(
        "zero nodes interned past the base by any worker — the warm working set \
         is shared, not copied — and the scheduler preempted divergent jobs {} \
         times instead of letting any of them pin a worker.",
        stats.preemptions(),
    );
}

//! The repository benchmark: three seeded workloads driven through the
//! public API, every output checked against its expected verdict.
//!
//! ```text
//! perfbench --workload <boundary_loop|compile_novel|pool_serve> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of output is the JSON result. See README.md.

mod alloc;
mod calib;
mod gen;
mod pool;
mod report;
mod session;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::Workload;
use report::{quantile, quiet_windows, Report};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <boundary_loop|compile_novel|pool_serve> \
                     --seed <n> --seconds <s> --trace <0|1>";
/// Set-ups per run, and the pause before each.
const SESSION_SETUPS: usize = 21;
const POOL_SETUPS: usize = 21;
const SETUP_PAUSE: Duration = Duration::from_millis(50);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The seed a workload runs with when none is given (README.md lists
/// these and the held-out seeds).
fn default_seed(workload: Workload) -> u64 {
    match workload {
        Workload::BoundaryLoop => 1,
        Workload::CompileNovel => 2,
        Workload::PoolServe => 3,
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(default_seed(workload)),
        seconds,
        trace,
    })
}

/// Runs `setup` `reps` times, a pause apart, and returns the lower
/// quartile of their times at the reference speed (see `calib`) with
/// the last result; each earlier result is dropped before the next
/// set-up starts.
fn quiet_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        std::thread::sleep(SETUP_PAUSE);
        let before = calib::probe();
        let t0 = Instant::now();
        let value = setup();
        let seconds = t0.elapsed().as_secs_f64();
        times.push(seconds * calib::factor(before, calib::probe()));
        last = Some(value);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 4], last.expect("at least one set-up"))
}

/// The end-to-end run.
fn end_to_end(args: &Args, report: &mut Report) {
    let w = args.workload;
    let (setup_s, samples, pool_throughput, peak_rss_mb) = match w {
        Workload::PoolServe => {
            let (setup_s, pool) = quiet_setup(POOL_SETUPS, pool::build_pool);
            let run = pool::closed_loop(&pool, args.seed, args.seconds, false, report);
            (
                setup_s,
                run.samples,
                Some(run.throughput_per_s),
                run.peak_rss_mb,
            )
        }
        Workload::BoundaryLoop | Workload::CompileNovel => {
            let (setup_s, mut session) = quiet_setup(SESSION_SETUPS, || {
                session::warm_session(w, args.seed, report)
            });
            let run = session::closed_loop_on(&mut session, w, args.seed, args.seconds, report);
            if w == Workload::BoundaryLoop {
                session::check_constant_space(report, &run.cast_frames);
            }
            (setup_s, run.samples, None, run.peak_rss_mb)
        }
    };
    let (latencies, kept, windows) = quiet_windows(&samples);
    // One caller: requests per second of its serving time.
    let throughput = pool_throughput.unwrap_or_else(|| {
        latencies.len() as f64 * 1e9 / latencies.iter().map(|&l| l as f64).sum::<f64>()
    });
    println!(
        "{} latency samples; percentiles over the n={} of the quietest {kept} of \
         {windows} quarter-second windows; failed_ratio = {}",
        samples.len(),
        latencies.len(),
        report.failed as f64 / report.attempted.max(1) as f64
    );
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", throughput, "1/s");
    report.metric(
        "latency_p50_us",
        quantile(&latencies, 0.5) as f64 / 1e3,
        "us",
    );
    report.metric(
        "latency_p99_us",
        quantile(&latencies, 0.99) as f64 / 1e3,
        "us",
    );
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
}

/// The traced run: pool counters (pool_serve only), then the
/// layer-by-layer passes over the workload's requests.
fn per_layer(args: &Args, report: &mut Report) {
    let w = args.workload;
    let mut pool_run = None;
    let (untraced_s, traced_s) = if w == Workload::PoolServe {
        let pool = pool::build_pool();
        pool_run = Some(pool::closed_loop(
            &pool,
            args.seed,
            0.4 * args.seconds,
            true,
            report,
        ));
        (0.2 * args.seconds, 0.3 * args.seconds)
    } else {
        (0.3 * args.seconds, 0.6 * args.seconds)
    };
    let overhead = session::trace(w, args.seed, untraced_s, traced_s, report);
    pool::emit_layers(pool_run.as_mut(), report);
    report.metric("trace.overhead_ratio", overhead, "ratio");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} ({} cores)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = Report::default();
    if args.trace {
        per_layer(&args, &mut report);
    } else {
        end_to_end(&args, &mut report);
    }
    report.print();
    ExitCode::SUCCESS
}

//! The session workloads' closed loop, and the traced stage-by-stage
//! run that prices each layer.

use std::io::Write as _;
use std::time::{Duration, Instant};

use blame_coercion::core::arena::{CoercionArena, ComposeCache};
use blame_coercion::core::eval;
use blame_coercion::gtlc::{elaborate_compiled, lexer, parser};
use blame_coercion::lambda_c::CArena;
use blame_coercion::machine::{cek_s, MachineOutcome};
use blame_coercion::syntax::TypeArena;
use blame_coercion::translate::bisim::observe_s_compiled;
use blame_coercion::translate::{term_b_to_c_compiled, term_c_to_s_from_compiled, CNormalizer};
use blame_coercion::{Engine, Program, RunError, RunReport, Session, SessionBuilder};

use crate::gen::{warmup, Request, Rng, Stream, Verdict, Workload};
use crate::report::{peak_rss_mb, Report, Sample};
use crate::{alloc, calib};

/// Requests generated at a time; generation is outside the timed window.
const BATCH: usize = 64;
/// compile_novel's session serves this many requests before a fresh
/// one takes over: long enough for its arenas to grow far past the
/// warm set, bounded so peak memory measures a fixed amount of
/// interning rather than growing with throughput.
const GENERATION: usize = 2048;
/// One request in this many is re-run, untimed, on a λB engine.
const ORACLE_ONE_IN: u64 = 32;
const ORACLE_SALT: u64 = 0x0DAC_1E00_0000_0001;

fn generation(workload: Workload) -> Option<usize> {
    (workload == Workload::CompileNovel).then_some(GENERATION)
}

pub fn verdict_of_run(run: Result<RunReport, RunError>) -> Verdict {
    match run {
        Ok(r) => Verdict::Observed(r.observation),
        Err(RunError::FuelExhausted { steps, .. }) => Verdict::FuelExhausted { steps },
        Err(e) => Verdict::Failed(e.to_string()),
    }
}

/// Compiles and runs one request through the public `Session` API,
/// returning the verdict, the program (for the oracle) and the λS
/// machine's peak cast frames.
fn serve(session: &Session, req: &Request) -> (Verdict, Option<Program>, Option<usize>) {
    match session.compile(&req.source) {
        Err(d) => (Verdict::Diagnostic { at: d.span.start }, None, None),
        Ok(program) => {
            let run = session.run_with_fuel(&program, req.engine, req.fuel);
            let frames = match &run {
                Ok(r) => r.metrics.as_ref().map(|m| m.peak_cast_frames),
                Err(_) => None,
            };
            (verdict_of_run(run), Some(program), frames)
        }
    }
}

/// Whether the λB reference semantics agrees with `verdict`: the same
/// observation and blame label, or fuel exhaustion on both (the
/// calculi count steps differently). The λB small-step engine is
/// cubic on the long boundary loops, so those go to the λB CEK
/// machine instead.
pub fn oracle_agrees(
    session: &Session,
    program: &Program,
    req: &Request,
    verdict: &Verdict,
) -> bool {
    let engine = if req.loop_bound.is_some() {
        Engine::MachineB
    } else {
        Engine::LambdaB
    };
    let oracle = verdict_of_run(session.run_with_fuel(program, engine, req.fuel));
    match (&oracle, verdict) {
        (Verdict::FuelExhausted { .. }, Verdict::FuelExhausted { .. }) => true,
        (a, b) => a == b,
    }
}

/// A fresh session with the workload's warmup requests compiled and
/// run: the set-up `setup_s` measures.
pub fn warm_session(workload: Workload, seed: u64, report: &mut Report) -> Session {
    let session = Session::new();
    for req in warmup(workload, seed) {
        let (verdict, _, _) = serve(&session, &req);
        if !req.expect.accepts(&verdict) {
            report.check(
                false,
                format!("warmup request {:?} gave {verdict:?}", req.source),
            );
        }
    }
    session
}

#[derive(Default)]
pub struct LoopRun {
    /// Per-request time from source text to verdict, at the reference
    /// speed (see `calib`); `u64::MAX` for a wrong verdict, so it
    /// counts as above every limit.
    pub samples: Vec<Sample>,
    /// Time spent serving requests (generation and oracle runs excluded).
    pub window: Duration,
    /// (loop bound, peak cast frames) of each λS machine loop run.
    pub cast_frames: Vec<(u64, usize)>,
    pub peak_rss_mb: f64,
    /// Total request time as measured.
    raw_ns: u64,
}

impl LoopRun {
    /// Mean time per request as measured, before scaling.
    pub fn mean_raw_latency_ns(&self) -> f64 {
        self.raw_ns as f64 / self.samples.len().max(1) as f64
    }
}

/// One caller, one session, the next request sent when the last one
/// resolved, for `seconds` of serving time.
pub fn closed_loop(workload: Workload, seed: u64, seconds: f64, report: &mut Report) -> LoopRun {
    let mut session = warm_session(workload, seed, report);
    closed_loop_on(&mut session, workload, seed, seconds, report)
}

pub fn closed_loop_on(
    session: &mut Session,
    workload: Workload,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> LoopRun {
    let mut stream = Stream::new(workload, seed);
    let mut sample = Rng::new(seed ^ ORACLE_SALT);
    let mut run = LoopRun::default();
    let mut sampled = Vec::new();
    let mut served_in_generation = 0;
    let mut last_probe = calib::probe();
    let mut last_probe_at = Instant::now();
    let mut scaled = 0;
    let origin = Instant::now();
    while run.window.as_secs_f64() < seconds {
        let batch: Vec<Request> = (0..BATCH).map(|_| stream.next_request()).collect();
        let started = Instant::now();
        for req in &batch {
            let t0 = Instant::now();
            let (verdict, program, frames) = serve(session, req);
            let ns = t0.elapsed().as_nanos() as u64;
            let ok = req.expect.accepts(&verdict);
            run.raw_ns += ns;
            run.samples.push(Sample {
                at_ns: t0.duration_since(origin).as_nanos() as u64,
                latency_ns: if ok { ns } else { u64::MAX },
            });
            if !ok {
                report.mismatch(format_args!(
                    "expected {:?}, got {verdict:?}: {}",
                    req.expect, req.source
                ));
            }
            if let (Some(bound), Engine::MachineS, Some(frames)) =
                (req.loop_bound, req.engine, frames)
            {
                run.cast_frames.push((bound, frames));
            }
            if let Some(program) = program.filter(|_| sample.chance(1, ORACLE_ONE_IN)) {
                sampled.push((req.clone(), program, verdict));
            }
        }
        run.window += started.elapsed();
        report.attempted += batch.len() as u64;
        if last_probe_at.elapsed() >= calib::PERIOD {
            let probe = calib::probe();
            calib::scale(&mut run.samples[scaled..], calib::factor(last_probe, probe));
            (last_probe, last_probe_at, scaled) = (probe, Instant::now(), run.samples.len());
        }
        served_in_generation += BATCH;
        if generation(workload).is_some_and(|g| served_in_generation >= g) {
            check_oracle(session, &mut sampled, report);
            *session = warm_session(workload, seed, report);
            served_in_generation = 0;
        }
    }
    let probe = calib::probe();
    calib::scale(&mut run.samples[scaled..], calib::factor(last_probe, probe));
    // The oracle runs last, so the λB engines' memory stays out of the
    // workload's peak.
    run.peak_rss_mb = peak_rss_mb();
    check_oracle(session, &mut sampled, report);
    run
}

fn check_oracle(
    session: &Session,
    sampled: &mut Vec<(Request, Program, Verdict)>,
    report: &mut Report,
) {
    for (req, program, verdict) in sampled.drain(..) {
        if !oracle_agrees(session, &program, &req, &verdict) {
            report.mismatch(format_args!(
                "λB disagrees with {verdict:?}: {}",
                req.source
            ));
        }
    }
}

/// Fails the run if the λS machine's peak cast frames grow with the
/// loop bound (the paper's constant-space result).
pub fn check_constant_space(report: &mut Report, cast_frames: &[(u64, usize)]) {
    let peak = |keep: &dyn Fn(u64) -> bool| {
        cast_frames
            .iter()
            .filter(|(bound, _)| keep(*bound))
            .map(|&(_, frames)| frames)
            .max()
    };
    let low = peak(&|b| b < 2_000);
    let high = peak(&|b| b >= 3_000);
    let holds = matches!((low, high), (Some(l), Some(h)) if h <= l);
    report.check(
        holds,
        format!(
            "λS machine peak cast frames do not grow with the loop bound \
             ({low:?} for bounds below 2000, {high:?} for bounds of 3000 and above)"
        ),
    );
}

// ---------------------------------------------------------------------
// The traced run.

#[derive(Debug, Clone, Copy)]
enum Stage {
    Lex,
    Parse,
    Elaborate,
    BToC,
    CToS,
    CekS,
    Eval,
    SessionCompile,
    SessionRun,
}

const STAGES: usize = 9;
const STAGE_NAMES: [&str; STAGES] = [
    "gtlc.lex",
    "gtlc.parse",
    "gtlc.elaborate",
    "translate.b_to_c",
    "translate.c_to_s",
    "machine.cek_s",
    "core.eval",
    "session.compile",
    "session.run",
];
/// The stages of the pipeline itself (everything before `SessionCompile`).
const PIPELINE_STAGES: usize = 7;

/// Benchmark-owned arenas, configured as a default `Session` configures
/// its own.
struct Arenas {
    types: TypeArena,
    arena: CoercionArena,
    cache: ComposeCache,
    carena: CArena,
    norm: CNormalizer,
}

/// Hit and miss counters of the memo tables.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    normalizer: [u64; 2],
    verdicts: [u64; 2],
    compose: [u64; 2],
}

impl Counters {
    fn add_delta(&mut self, now: Counters, then: Counters) {
        for (acc, (n, t)) in [
            (&mut self.normalizer, (now.normalizer, then.normalizer)),
            (&mut self.verdicts, (now.verdicts, then.verdicts)),
            (&mut self.compose, (now.compose, then.compose)),
        ] {
            acc[0] += n[0] - t[0];
            acc[1] += n[1] - t[1];
        }
    }
}

fn hit_ratio(c: [u64; 2]) -> f64 {
    c[0] as f64 / (c[0] + c[1]).max(1) as f64
}

impl Arenas {
    fn new() -> Arenas {
        Arenas {
            types: TypeArena::with_memo_capacity(SessionBuilder::DEFAULT_TYPE_MEMO_CAPACITY),
            arena: CoercionArena::new(),
            cache: ComposeCache::with_capacity(SessionBuilder::DEFAULT_COMPOSE_CACHE_CAPACITY),
            carena: CArena::default(),
            norm: CNormalizer::new(),
        }
    }

    fn counters(&self) -> Counters {
        let n = self.norm.stats();
        let v = self.types.query_stats();
        let c = self.cache.stats();
        Counters {
            normalizer: [n.hits, n.misses],
            verdicts: [v.hits, v.misses],
            compose: [c.hits, c.misses],
        }
    }
}

/// Allocation and interning counts of one request: these must repeat
/// exactly when the same seed runs again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Fingerprint {
    allocs: [u64; STAGES],
    type_nodes: u64,
    coercion_nodes: u64,
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Requests whose spans are kept in memory and written out.
const SPAN_REQUESTS: u64 = 2_048;
/// Requests whose counts the repeat run compares.
const FINGERPRINT_REQUESTS: usize = 512;

#[derive(Default)]
struct Totals {
    ns: [u64; STAGES],
    allocs: [u64; STAGES],
    transitions: u64,
    eval_steps: u64,
    type_nodes: u64,
    coercion_nodes: u64,
    requests: u64,
    peak_cast_frames: usize,
    counters: Counters,
}

struct Tracer {
    origin: Instant,
    record: bool,
    spans: Vec<Span>,
    parent: Option<usize>,
    request: u64,
    current: Fingerprint,
    totals: Totals,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            record: false,
            spans: Vec::with_capacity(SPAN_REQUESTS as usize * 12),
            parent: None,
            request: 0,
            current: Fingerprint::default(),
            totals: Totals::default(),
        }
    }

    /// Time spent in `Session::compile`/`run` so far.
    fn session_ns(&self) -> u64 {
        self.totals.ns[Stage::SessionCompile as usize] + self.totals.ns[Stage::SessionRun as usize]
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the current one; returns the enclosing span
    /// to restore on close.
    fn open(&mut self, name: &'static str) -> Option<usize> {
        let enclosing = self.parent;
        if self.record {
            let start_ns = self.since_origin(Instant::now());
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: enclosing,
                request: self.request,
            });
            self.parent = Some(self.spans.len() - 1);
        }
        enclosing
    }

    fn close(&mut self, enclosing: Option<usize>) {
        if self.record {
            if let Some(open) = self.parent {
                self.spans[open].end_ns = self.since_origin(Instant::now());
            }
        }
        self.parent = enclosing;
    }

    /// Runs one call into a layer, charging its time and allocations.
    fn stage<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let allocs = alloc::allocs() - a0;
        let i = stage as usize;
        self.totals.ns[i] += t1.duration_since(t0).as_nanos() as u64;
        self.totals.allocs[i] += allocs;
        self.current.allocs[i] += allocs;
        if self.record {
            self.spans.push(Span {
                name: STAGE_NAMES[i],
                start_ns: self.since_origin(t0),
                end_ns: self.since_origin(t1),
                parent: self.parent,
                request: self.request,
            });
        }
        out
    }
}

/// The request through `Session::compile`/`run`, timed per call.
fn session_path(tr: &mut Tracer, session: &Session, req: &Request) -> Verdict {
    let enclosing = tr.open("session");
    let verdict = match tr.stage(Stage::SessionCompile, || session.compile(&req.source)) {
        Err(d) => Verdict::Diagnostic { at: d.span.start },
        Ok(program) => verdict_of_run(tr.stage(Stage::SessionRun, || {
            session.run_with_fuel(&program, req.engine, req.fuel)
        })),
    };
    tr.close(enclosing);
    verdict
}

/// The same request through the calls `Session::compile`/`run` make,
/// one layer at a time, over the benchmark's own arenas.
fn pipeline_path(tr: &mut Tracer, ar: &mut Arenas, req: &Request) -> Verdict {
    let enclosing = tr.open("pipeline");
    let verdict = pipeline(tr, ar, req);
    tr.close(enclosing);
    verdict
}

fn pipeline(tr: &mut Tracer, ar: &mut Arenas, req: &Request) -> Verdict {
    let tokens = match tr.stage(Stage::Lex, || lexer::lex(&req.source)) {
        Ok(tokens) => tokens,
        Err(d) => return Verdict::Diagnostic { at: d.span.start },
    };
    let expr = match tr.stage(Stage::Parse, || parser::parse_in(&tokens, &mut ar.types)) {
        Ok(expr) => expr,
        Err(d) => return Verdict::Diagnostic { at: d.span.start },
    };
    let program = match tr.stage(Stage::Elaborate, || {
        elaborate_compiled(&expr, &mut ar.types)
    }) {
        Ok(program) => program,
        Err(d) => return Verdict::Diagnostic { at: d.span.start },
    };
    let cterm = tr.stage(Stage::BToC, || {
        term_b_to_c_compiled(&program.term, &mut ar.carena, &mut ar.types)
    });
    let sterm = tr.stage(Stage::CToS, || {
        term_c_to_s_from_compiled(
            &cterm,
            &ar.carena,
            &mut ar.norm,
            &mut ar.arena,
            &mut ar.cache,
            &ar.types,
        )
    });
    match req.engine {
        Engine::MachineS => {
            let run = tr.stage(Stage::CekS, || {
                cek_s::run_compiled_in(&sterm, &mut ar.arena, &mut ar.cache, req.fuel)
            });
            tr.totals.transitions += run.metrics.steps;
            tr.totals.peak_cast_frames =
                tr.totals.peak_cast_frames.max(run.metrics.peak_cast_frames);
            match run.outcome {
                MachineOutcome::Timeout => Verdict::FuelExhausted {
                    steps: run.metrics.steps,
                },
                outcome => Verdict::Observed(outcome.to_observation()),
            }
        }
        Engine::LambdaS => {
            let run = tr.stage(Stage::Eval, || {
                eval::run_compiled(
                    &sterm,
                    req.fuel,
                    &mut ar.arena,
                    &mut ar.cache,
                    &mut ar.types,
                )
            });
            match run {
                Ok(r) => {
                    tr.totals.eval_steps += r.steps;
                    Verdict::Observed(observe_s_compiled(&r.outcome, &ar.arena))
                }
                Err(eval::RunError::FuelExhausted { steps, .. }) => {
                    tr.totals.eval_steps += steps;
                    Verdict::FuelExhausted { steps }
                }
                Err(e) => Verdict::Failed(format!("{e:?}")),
            }
        }
        other => unreachable!("the workloads run only the λS engines, not {other:?}"),
    }
}

fn warm_arenas(workload: Workload, seed: u64) -> Arenas {
    let mut ar = Arenas::new();
    let mut tr = Tracer::new();
    for req in warmup(workload, seed) {
        pipeline(&mut tr, &mut ar, &req);
    }
    ar
}

struct TracedRun {
    totals: Totals,
    /// Session-path time (compile + run) per request.
    session_ns: Vec<u64>,
    fingerprints: Vec<Fingerprint>,
    spans: Vec<Span>,
}

/// Drives each request through both the `Session` and the layer-by-layer
/// path, on fresh warm state, for `seconds` or `limit` requests.
fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    limit: Option<usize>,
    report: &mut Report,
) -> TracedRun {
    let mut stream = Stream::new(workload, seed);
    let mut session = warm_session(workload, seed, report);
    let mut arenas = warm_arenas(workload, seed);
    let mut before = arenas.counters();
    let mut tr = Tracer::new();
    let mut session_ns = Vec::new();
    let mut fingerprints = Vec::new();
    let started = Instant::now();
    let mut served_in_generation = 0;
    for i in 0u64.. {
        let done = match limit {
            Some(n) => i as usize >= n,
            None => started.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
        let req = stream.next_request();
        tr.request = i;
        tr.record = limit.is_none() && i < SPAN_REQUESTS;
        tr.current = Fingerprint::default();
        let root = tr.open("request");
        let (types0, coercions0) = (arenas.types.len(), arenas.arena.len());
        let session_ns0 = tr.session_ns();
        // Alternate which path goes first, so neither always runs on
        // caches the other warmed.
        let (by_session, by_pipeline) = if i % 2 == 0 {
            let s = session_path(&mut tr, &session, &req);
            (s, pipeline_path(&mut tr, &mut arenas, &req))
        } else {
            let p = pipeline_path(&mut tr, &mut arenas, &req);
            (session_path(&mut tr, &session, &req), p)
        };
        tr.close(root);
        tr.current.type_nodes = (arenas.types.len() - types0) as u64;
        tr.current.coercion_nodes = (arenas.arena.len() - coercions0) as u64;
        tr.totals.type_nodes += tr.current.type_nodes;
        tr.totals.coercion_nodes += tr.current.coercion_nodes;
        tr.totals.requests += 1;
        session_ns.push(tr.session_ns() - session_ns0);
        if !req.expect.accepts(&by_session) {
            report.mismatch(format_args!(
                "expected {:?}, got {by_session:?}: {}",
                req.expect, req.source
            ));
        }
        if by_pipeline != by_session {
            report.mismatch(format_args!(
                "layer-by-layer path gave {by_pipeline:?}, Session gave {by_session:?}: {}",
                req.source
            ));
        }
        if fingerprints.len() < FINGERPRINT_REQUESTS {
            fingerprints.push(tr.current.clone());
        }
        served_in_generation += 1;
        if generation(workload).is_some_and(|g| served_in_generation >= g) {
            tr.totals.counters.add_delta(arenas.counters(), before);
            session = warm_session(workload, seed, report);
            arenas = warm_arenas(workload, seed);
            before = arenas.counters();
            served_in_generation = 0;
        }
    }
    tr.totals.counters.add_delta(arenas.counters(), before);
    TracedRun {
        totals: tr.totals,
        session_ns,
        fingerprints,
        spans: tr.spans,
    }
}

/// Where the traced run writes its spans, inside the checkout.
const SPAN_DIR: &str = ".bench_build/perfbench-trace";

fn write_spans(workload: Workload, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/{}-seed{seed}.jsonl", workload.name());
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}

/// The traced run: an untraced pass, a traced pass over fresh state
/// (whose numbers become the per-layer metrics), and a repeat of the
/// traced pass's first requests that must reproduce its allocation and
/// interning counts exactly. Returns the tracing overhead: the traced
/// pass's mean `Session` time per request over the untraced pass's.
pub fn trace(
    workload: Workload,
    seed: u64,
    untraced_s: f64,
    traced_s: f64,
    report: &mut Report,
) -> f64 {
    let untraced = closed_loop(workload, seed, untraced_s, report);
    if workload == Workload::BoundaryLoop {
        check_constant_space(report, &untraced.cast_frames);
    }
    let run = traced(workload, seed, traced_s, None, report);
    let repeat = traced(workload, seed, 0.0, Some(run.fingerprints.len()), report);
    report.attempted += run.totals.requests + repeat.totals.requests;
    let first_difference = run
        .fingerprints
        .iter()
        .zip(&repeat.fingerprints)
        .position(|(a, b)| a != b);
    if let Some(i) = first_difference {
        println!(
            "request {i}: first run counted {:?}, the repeat {:?}",
            run.fingerprints[i], repeat.fingerprints[i]
        );
    }
    report.check(
        first_difference.is_none() && run.fingerprints.len() == repeat.fingerprints.len(),
        format!(
            "allocation and interning counts of the first {} requests repeat exactly",
            run.fingerprints.len()
        ),
    );
    match write_spans(workload, seed, &run.spans) {
        Ok(path) => println!("spans: {} written to {path}", run.spans.len()),
        Err(e) => println!("spans not written: {e}"),
    }
    emit_layers(workload, &run.totals, report);
    let traced_mean =
        run.session_ns.iter().sum::<u64>() as f64 / run.session_ns.len().max(1) as f64;
    traced_mean / untraced.mean_raw_latency_ns() - 1.0
}

fn emit_layers(workload: Workload, t: &Totals, report: &mut Report) {
    use Stage::*;
    let n = t.requests.max(1) as f64;
    let ns = |s: Stage| t.ns[s as usize] as f64 / n;
    let allocs = |s: Stage| t.allocs[s as usize] as f64 / n;
    let per = |total: u64, count: u64| total as f64 / count.max(1) as f64;
    report.metric("gtlc.lex_ns", ns(Lex), "ns");
    report.metric("gtlc.parse_ns", ns(Parse), "ns");
    report.metric("gtlc.elaborate_ns", ns(Elaborate), "ns");
    report.metric("gtlc.lex_allocs", allocs(Lex), "count");
    report.metric("gtlc.parse_allocs", allocs(Parse), "count");
    report.metric("gtlc.elaborate_allocs", allocs(Elaborate), "count");
    report.metric("translate.b_to_c_ns", ns(BToC), "ns");
    report.metric("translate.c_to_s_ns", ns(CToS), "ns");
    report.metric("translate.b_to_c_allocs", allocs(BToC), "count");
    report.metric("translate.c_to_s_allocs", allocs(CToS), "count");
    report.metric(
        "translate.normalizer_hit_ratio",
        hit_ratio(t.counters.normalizer),
        "ratio",
    );
    report.metric(
        "syntax.type_nodes_per_req",
        t.type_nodes as f64 / n,
        "count",
    );
    report.metric(
        "syntax.verdict_hit_ratio",
        hit_ratio(t.counters.verdicts),
        "ratio",
    );
    report.metric(
        "core.coercion_nodes_per_req",
        t.coercion_nodes as f64 / n,
        "count",
    );
    report.metric(
        "core.compose_hit_ratio",
        hit_ratio(t.counters.compose),
        "ratio",
    );
    let cek = CekS as usize;
    report.metric("machine.cek_s_ns", ns(CekS), "ns");
    report.metric(
        "machine.cek_s_transitions",
        t.transitions as f64 / n,
        "count",
    );
    report.metric(
        "machine.cek_s_ns_per_transition",
        per(t.ns[cek], t.transitions),
        "ns",
    );
    report.metric(
        "machine.cek_s_allocs_per_transition",
        per(t.allocs[cek], t.transitions),
        "count",
    );
    report.metric(
        "machine.peak_cast_frames",
        t.peak_cast_frames as f64,
        "count",
    );
    let ev = Eval as usize;
    report.metric("core.eval_ns", ns(Eval), "ns");
    report.metric("core.eval_steps", t.eval_steps as f64 / n, "count");
    report.metric("core.eval_ns_per_step", per(t.ns[ev], t.eval_steps), "ns");
    report.metric(
        "core.eval_allocs_per_step",
        per(t.allocs[ev], t.eval_steps),
        "count",
    );
    let pipeline: u64 = t.ns[..PIPELINE_STAGES].iter().sum();
    let session = t.ns[SessionCompile as usize] + t.ns[SessionRun as usize];
    report.metric("session.compile_ns", ns(SessionCompile), "ns");
    report.metric("session.run_ns", ns(SessionRun), "ns");
    report.metric("session.compile_allocs", allocs(SessionCompile), "count");
    report.metric("session.stage_coverage", per(pipeline, session), "ratio");

    let run_share = per(t.ns[cek] + t.ns[ev], pipeline);
    let front_share = per(t.ns[..CekS as usize].iter().sum(), pipeline);
    println!(
        "layer shares: run (machine.cek_s + core.eval) {:.1}%, front end (gtlc + translate) {:.1}%",
        100.0 * run_share,
        100.0 * front_share
    );
    let claim = match workload {
        Workload::BoundaryLoop => Some(("the run layers do most of the work", run_share > 0.5)),
        Workload::CompileNovel => Some(("the front end does most of the work", front_share > 0.5)),
        Workload::PoolServe => None,
    };
    if let Some((what, holds)) = claim {
        println!(
            "rationale {}: {what}",
            if holds { "holds" } else { "does not hold" }
        );
    }
}

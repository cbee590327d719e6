//! Golden runs of the λS CEK machine: outcome, steps and the three
//! space peaks of every program in a fixed corpus, run whole and in
//! slices of 7 transitions, checked against `golden.txt`.
//!
//! The corpus is the testkit's program shapes and two of its seeded
//! batches, the boundary loop at n = 100 and 1 000, the five
//! `bc_lambda_b::programs`, and hand-written closure programs
//! (captures through `let`, closures returned from `fix`, captures of
//! captures, non-tail recursion). Any change to the machine's run
//! state must leave every line unchanged. On a mismatch the failure
//! message carries the whole generated text, so a deliberate change to
//! what the machine counts is pasted into `golden.txt` by hand.
//!
//! The same corpus pins the compiled small-step (`bc_core::eval`) to
//! the tree oracle: the whole run result (outcome, steps and both
//! space peaks, or the fuel cutoff's accounting), whole and in slices
//! of 7 steps.
//!
//! `golden_trees.txt` pins the tree engines on the same corpus: the
//! λB, λC and λS small-steps on the λB tree term and its `|·|BC` and
//! `|·|BS` images (outcome, steps and both peaks, at fuel 2 000: λB's
//! small-step is cubic on the long loops), and the `cek_b` and `cek_c`
//! machines (outcome, steps and the three peaks, whole and in slices
//! of 7, at fuel 50 000).

use bc_core::eval::{self, SliceC};
use bc_core::{CompileCtx, SCode};
use bc_lambda_b::programs;
use bc_machine::metrics::{MachineRun, SliceResult};
use bc_machine::{cek_b, cek_c, cek_s};
use bc_testkit::sources;
use bc_translate::{term_b_to_c, term_b_to_s, term_b_to_s_compiled};

const FUEL: u64 = 50_000;
const SMALL_STEP_FUEL: u64 = 2_000;
const SLICE: u64 = 7;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden.txt");
const GOLDEN_TREES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_trees.txt");

/// Hand-written programs, one `name: source` per line: the benchmark's
/// boundary loop, then closure programs written for the locals stack,
/// covering every way a value can reach a function body other than as
/// its argument.
const HANDWRITTEN: &str = "\
boundary-loop/100: letrec loop (n : Int) : Bool = if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) in loop 100
boundary-loop/1000: letrec loop (n : Int) : Bool = if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) in loop 1000
closures/let-captures: let a = 1 in let b = 2 in let f = fun (x : Int) => x + a + b in f 3
closures/captures-only-free: let big = 41 in let a = 1 in (fun x => x + a) 2
closures/closure-from-fix: letrec mk (n : Int) : Int -> Int = fun (x : Int) => x + n in (mk 5) 6
closures/escaping-closures: let mk = fun (n : Int) => fun (x : Int) => x + n in let add5 = mk 5 in let add7 = mk 7 in add5 1 + add7 2
closures/captures-of-captures: let a = 1 in let f = fun (x : Int) => fun (y : Int) => fun (z : Int) => x + y + z + a in f 10 20 30
closures/non-tail-recursion: letrec f (n : Int) : Int = if n = 0 then 0 else 1 + f (n - 1) in f 40
closures/fix-captures-let: let k = 2 in letrec loop (n : Int) : Int = if n = 0 then k else loop (n - k) in loop 40
closures/let-in-loop-body: letrec loop (n : Int) : Bool = let m = n - 1 in if n = 0 then true else loop m in loop 30
closures/loop-through-closure: let k = 1 in let step = fun (n : Int) => n - k in letrec loop (n : Int) : Bool = if n = 0 then true else loop (step n) in loop 30
closures/dynamic-capture: let k = 3 in let g = ((fun x => x + k) : ?) in (g : Int -> Int) 4
closures/dynamic-fix-capture: let k = 1 in letrec loop (n : Int) : Bool = if n = 0 then true else ((loop : ?) : Int -> Bool) (n - k) in loop 20
closures/shadowed-capture: let x = 1 in let f = fun (x : Int) => let y = x + 1 in fun (z : Int) => x + y + z in let x = 100 in f 2 3
closures/capture-blames: let d = (true : ?) in let f = fun (x : Int) => x + (d : Int) in f 1
closures/returns-closure: let a = 4 in let f = fun (x : Int) => fun (y : Int) => x + a in f 1";

/// One corpus program: its λB tree term and its compiled λS block.
struct Entry {
    name: String,
    term: bc_lambda_b::Term,
    code: SCode,
    ctx: CompileCtx,
}

fn corpus() -> Vec<Entry> {
    let mut out = Vec::new();
    let mut sourced = |name: String, source: &str| {
        let mut ctx = CompileCtx::new();
        let program = bc_gtlc::compile_compiled(source, &mut ctx.types)
            .unwrap_or_else(|d| panic!("{name} does not compile: {d:?}"));
        let code = term_b_to_s_compiled(&program.term, &mut ctx.types, &mut ctx.arena);
        let term = bc_gtlc::compile(source).expect("compiles").term;
        out.push(Entry {
            name,
            term,
            code,
            ctx,
        });
    };
    for (batch, srcs) in [
        ("shapes", sources::shapes()),
        ("mixed", sources::mixed(7, 96)),
        ("drifting", sources::drifting(9, 64, 16)),
    ] {
        for (i, s) in srcs.iter().enumerate() {
            sourced(format!("{batch}/{i}"), s);
        }
    }
    for (name, s) in HANDWRITTEN.lines().filter_map(|l| l.split_once(": ")) {
        sourced(name.to_string(), s);
    }
    for (name, t) in [
        ("boundary_loop", programs::boundary_loop(50)),
        ("even_odd_mixed", programs::even_odd_mixed(10)),
        ("even_typed", programs::even_typed(20)),
        ("even_untyped", programs::even_untyped(20)),
        ("wrapped_identity", programs::wrapped_identity(8)),
    ] {
        let mut ctx = CompileCtx::new();
        let code = ctx.compile(&term_b_to_s(&t));
        out.push(Entry {
            name: format!("programs/{name}"),
            term: t,
            code,
            ctx,
        });
    }
    out
}

fn line(name: &str, mode: &str, run: &MachineRun) -> String {
    let m = &run.metrics;
    format!(
        "{name} {mode}: {:?}, steps {}, peak frames {}, peak cast frames {}, peak cast size {}",
        run.outcome, m.steps, m.peak_frames, m.peak_cast_frames, m.peak_cast_size
    )
}

fn sliced(code: &SCode, ctx: &mut CompileCtx) -> MachineRun {
    let mut paused = cek_s::start_compiled_in(code, &ctx.arena, &ctx.cache, FUEL);
    loop {
        match cek_s::resume_compiled_in(paused, &mut ctx.arena, &mut ctx.cache, SLICE) {
            SliceResult::Done(run) => return run,
            SliceResult::Parked(p) => paused = p,
        }
    }
}

#[test]
fn cek_s_matches_the_golden_runs() {
    let mut lines = Vec::new();
    for Entry {
        name,
        code,
        mut ctx,
        ..
    } in corpus()
    {
        let whole = cek_s::run_compiled_in(&code, &mut ctx.arena, &mut ctx.cache, FUEL);
        lines.push(line(&name, "whole", &whole));
        lines.push(line(&name, "sliced", &sliced(&code, &mut ctx)));
    }
    assert_golden(&lines, GOLDEN);
}

fn assert_golden(lines: &[String], path: &str) {
    let got = lines.join("\n") + "\n";
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let common = got.lines().zip(want.lines());
    let first = common.clone().position(|(g, w)| g != w);
    assert!(
        got == want,
        "golden runs differ from line {} of {path}; the generated text is:\n{got}",
        first.unwrap_or(common.count()) + 1
    );
}

/// One small-step run as a golden line: the outcome (a value printed
/// as its term), steps and the two peaks, or the fuel cutoff's
/// accounting. `$peak` names the calculus's second space peak.
macro_rules! small_step_line {
    ($name:expr, $engine:expr, $eval:ident, $result:expr, $peak:ident) => {
        match $result {
            Ok($eval::Run {
                outcome,
                steps,
                peak_size,
                $peak,
            }) => {
                let outcome = match outcome {
                    $eval::Outcome::Value(v) => format!("value {v}"),
                    $eval::Outcome::Blame(p) => format!("blame {p}"),
                };
                format!(
                    "{} {}: {outcome}, steps {steps}, peak size {peak_size}, {} {}",
                    $name,
                    $engine,
                    stringify!($peak).replace('_', " "),
                    $peak
                )
            }
            Err($eval::RunError::FuelExhausted {
                steps,
                peak_size,
                $peak,
            }) => format!(
                "{} {}: fuel exhausted, steps {steps}, peak size {peak_size}, {} {}",
                $name,
                $engine,
                stringify!($peak).replace('_', " "),
                $peak
            ),
            Err(e) => panic!("{} {}: {e}", $name, $engine),
        }
    };
}

#[test]
fn tree_engines_match_the_golden_runs() {
    use bc_core::eval as es;
    use bc_lambda_b::eval as eb;
    use bc_lambda_c::eval as ec;
    let mut lines = Vec::new();
    for Entry { name, term, .. } in corpus() {
        let c = term_b_to_c(&term);
        let s = term_b_to_s(&term);
        let b_run = eb::run(&term, SMALL_STEP_FUEL);
        lines.push(small_step_line!(name, "b", eb, b_run, peak_casts));
        let c_run = ec::run(&c, SMALL_STEP_FUEL);
        lines.push(small_step_line!(name, "c", ec, c_run, peak_coercion_size));
        let s_run = es::run(&s, SMALL_STEP_FUEL);
        lines.push(small_step_line!(name, "s", es, s_run, peak_coercion_size));
        lines.push(line(&name, "cek_b whole", &cek_b::run(&term, FUEL)));
        let mut paused = cek_b::start(&term, FUEL);
        let sliced = loop {
            match cek_b::resume(paused, SLICE) {
                SliceResult::Done(run) => break run,
                SliceResult::Parked(p) => paused = p,
            }
        };
        lines.push(line(&name, "cek_b sliced", &sliced));
        lines.push(line(&name, "cek_c whole", &cek_c::run(&c, FUEL)));
        let mut paused = cek_c::start(&c, FUEL);
        let sliced = loop {
            match cek_c::resume(paused, SLICE) {
                SliceResult::Done(run) => break run,
                SliceResult::Parked(p) => paused = p,
            }
        };
        lines.push(line(&name, "cek_c sliced", &sliced));
    }
    assert_golden(&lines, GOLDEN_TREES);
}

#[test]
fn small_step_matches_the_tree_oracle() {
    for Entry {
        name,
        code,
        mut ctx,
        ..
    } in corpus()
    {
        let oracle = eval::run(&code.decode(&ctx.arena, &ctx.types), FUEL);
        let whole = eval::run_compiled(&code, FUEL, &mut ctx.arena, &mut ctx.cache, &mut ctx.types);
        assert_eq!(whole, oracle, "{name} whole");
        let mut paused = eval::start_compiled(&code, FUEL, &ctx.arena);
        let sliced = loop {
            match eval::resume_compiled(paused, SLICE, &mut ctx.arena, &mut ctx.cache, &ctx.types) {
                SliceC::Done(run) => break run,
                SliceC::Parked(p) => paused = p,
            }
        };
        assert_eq!(sliced, oracle, "{name} sliced");
    }
}

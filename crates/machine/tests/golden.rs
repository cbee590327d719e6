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

use bc_core::eval::{self, SliceC};
use bc_core::{CompileCtx, SCode};
use bc_lambda_b::programs;
use bc_machine::cek_s;
use bc_machine::metrics::{MachineRun, SliceResult};
use bc_testkit::sources;
use bc_translate::{term_b_to_s, term_b_to_s_compiled};

const FUEL: u64 = 50_000;
const SLICE: u64 = 7;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden.txt");

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

fn corpus() -> Vec<(String, SCode, CompileCtx)> {
    let mut out = Vec::new();
    let mut sourced = |name: String, source: &str| {
        let mut ctx = CompileCtx::new();
        let program = bc_gtlc::compile_compiled(source, &mut ctx.types)
            .unwrap_or_else(|d| panic!("{name} does not compile: {d:?}"));
        let code = term_b_to_s_compiled(&program.term, &mut ctx.types, &mut ctx.arena);
        out.push((name, code, ctx));
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
        out.push((format!("programs/{name}"), code, ctx));
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
    for (name, code, mut ctx) in corpus() {
        let whole = cek_s::run_compiled_in(&code, &mut ctx.arena, &mut ctx.cache, FUEL);
        lines.push(line(&name, "whole", &whole));
        lines.push(line(&name, "sliced", &sliced(&code, &mut ctx)));
    }
    let got = lines.join("\n") + "\n";
    let want = std::fs::read_to_string(GOLDEN).expect("read golden.txt");
    let common = got.lines().zip(want.lines());
    let first = common.clone().position(|(g, w)| g != w);
    assert!(
        got == want,
        "golden runs differ from line {}; the generated text is:\n{got}",
        first.unwrap_or(common.count()) + 1
    );
}

#[test]
fn small_step_matches_the_tree_oracle() {
    for (name, code, mut ctx) in corpus() {
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

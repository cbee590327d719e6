//! Golden runs of the λS CEK machine: outcome, steps and the three
//! space peaks of every program in a fixed corpus, run whole and in
//! slices of 7 transitions, checked against `golden.txt`.
//!
//! The corpus (`corpus/mod.rs`) is the testkit's program shapes and
//! two of its seeded batches, the boundary loop at n = 100 and 1 000,
//! the five `bc_lambda_b::programs`, and hand-written closure programs
//! (captures through `let`, closures returned from `fix`, captures of
//! captures, non-tail recursion). Any change to the machine's run
//! state must leave every line unchanged. On a mismatch the failure
//! message carries the whole generated text, so a deliberate change to
//! what the machine counts is pasted into `golden.txt` by hand.
//!
//! The machine is the λS run loop (`bc_core::exec`) under one of its
//! two counting policies. The same corpus pins the other, the compiled
//! small-step (`bc_core::eval`), to the tree oracle: the whole
//! run result (outcome, steps and both space peaks, or the fuel
//! cutoff's accounting), whole and in slices of 7 contractions.
//!
//! `golden_trees.txt` pins the tree engines on the same corpus: the
//! λB, λC and λS small-steps on the λB tree term and its `|·|BC` and
//! `|·|BS` images (outcome, steps and both peaks, at fuel 2 000: λB's
//! small-step is cubic on the long loops), and the `bc_machine::cek`
//! machine on the λB and λC terms (outcome, steps and the three peaks,
//! whole and in slices of 7, at fuel 50 000; the lines name them
//! `cek_b` and `cek_c`). Each tree small-step resumed in slices of 7
//! steps must return its whole run's result.

mod corpus;

use std::fmt;

use bc_core::eval as es;
use bc_core::{CompileCtx, SCode};
use bc_lambda_b::eval as eb;
use bc_lambda_c::eval as ec;
use bc_machine::cek::{self, MachineCast};
use bc_machine::cek_s;
use bc_machine::metrics::MachineRun;
use bc_syntax::reduce::{self, Outcome, Paused, Reduce, Run, RunError, Slice};
use bc_syntax::term::{CastForm, Term};
use bc_translate::{term_b_to_c, term_b_to_s};
use corpus::{corpus, Entry};

const FUEL: u64 = 50_000;
const SMALL_STEP_FUEL: u64 = 2_000;
const SLICE: u64 = 7;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden.txt");
const GOLDEN_TREES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_trees.txt");

fn line(name: &str, mode: &str, run: &MachineRun) -> String {
    let m = &run.metrics;
    format!(
        "{name} {mode}: {:?}, steps {}, peak frames {}, peak cast frames {}, peak cast size {}",
        run.outcome, m.steps, m.peak_frames, m.peak_cast_frames, m.peak_cast_size
    )
}

fn sliced(code: &SCode, ctx: &mut CompileCtx) -> MachineRun {
    let paused = cek_s::start_compiled_in(code, &ctx.arena, &ctx.cache, FUEL);
    Slice::Parked(paused)
        .finish(|p| cek_s::resume_compiled_in(p, &mut ctx.arena, &mut ctx.cache, SLICE))
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
/// accounting. `measure` names the calculus's cast measure.
fn small_step_line<K: CastForm + fmt::Display, E: fmt::Display>(
    name: &str,
    engine: &str,
    measure: &str,
    run: &Result<Run<K>, RunError<E>>,
) -> String {
    let (outcome, steps, peak_size, peak) = match run {
        Ok(run) => {
            let outcome = match &run.outcome {
                Outcome::Value(v) => format!("value {v}"),
                Outcome::Blame(p) => format!("blame {p}"),
            };
            (outcome, run.steps, run.peak_size, run.peak_cast_measure)
        }
        Err(RunError::FuelExhausted {
            steps,
            peak_size,
            peak_cast_measure,
        }) => (
            "fuel exhausted".to_string(),
            *steps,
            *peak_size,
            *peak_cast_measure,
        ),
        Err(e) => panic!("{name} {engine}: {e}"),
    };
    format!("{name} {engine}: {outcome}, steps {steps}, peak size {peak_size}, {measure} {peak}")
}

/// A CEK run of `term` in slices of [`SLICE`] transitions.
fn cek_sliced<K: MachineCast>(term: &Term<K>) -> MachineRun {
    Slice::Parked(cek::start(term, FUEL)).finish(|p| cek::resume(p, SLICE))
}

/// A tree small-step run resumed in slices of [`SLICE`] steps.
fn small_step_sliced<R: Reduce>(paused: Paused<R>) -> Result<Run<R::Cast>, RunError<R::TypeError>> {
    Slice::Parked(paused).finish(|p| reduce::resume(p, SLICE))
}

#[test]
fn tree_engines_match_the_golden_runs() {
    let mut lines = Vec::new();
    for Entry { name, term, .. } in corpus() {
        let c = term_b_to_c(&term);
        let s = term_b_to_s(&term);
        let b_run = eb::run(&term, SMALL_STEP_FUEL);
        lines.push(small_step_line(&name, "b", "peak casts", &b_run));
        let c_run = ec::run(&c, SMALL_STEP_FUEL);
        lines.push(small_step_line(&name, "c", "peak coercion size", &c_run));
        let s_run = es::run(&s, SMALL_STEP_FUEL);
        lines.push(small_step_line(&name, "s", "peak coercion size", &s_run));
        lines.push(line(&name, "cek_b whole", &cek::run(&term, FUEL)));
        lines.push(line(&name, "cek_b sliced", &cek_sliced(&term)));
        lines.push(line(&name, "cek_c whole", &cek::run(&c, FUEL)));
        lines.push(line(&name, "cek_c sliced", &cek_sliced(&c)));
    }
    assert_golden(&lines, GOLDEN_TREES);
}

#[test]
fn sliced_tree_small_steps_match_their_whole_runs() {
    for Entry { name, term, .. } in corpus() {
        let whole = eb::run(&term, SMALL_STEP_FUEL);
        let sliced = small_step_sliced(eb::start(&term, SMALL_STEP_FUEL).unwrap());
        assert_eq!(sliced, whole, "{name} b");
        let c = term_b_to_c(&term);
        let whole = ec::run(&c, SMALL_STEP_FUEL);
        let sliced = small_step_sliced(ec::start(&c, SMALL_STEP_FUEL).unwrap());
        assert_eq!(sliced, whole, "{name} c");
        let s = term_b_to_s(&term);
        let whole = es::run(&s, SMALL_STEP_FUEL);
        let sliced = small_step_sliced(es::start(&s, SMALL_STEP_FUEL).unwrap());
        assert_eq!(sliced, whole, "{name} s");
    }
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
        let oracle = es::run(&code.decode(&ctx.arena, &ctx.types), FUEL);
        let whole = es::run_compiled(&code, FUEL, &mut ctx.arena, &mut ctx.cache, &mut ctx.types);
        assert_eq!(whole, oracle, "{name} whole");
        let paused = es::start_compiled(&code, FUEL, &ctx.arena);
        let sliced = Slice::Parked(paused)
            .finish(|p| es::resume_compiled(p, SLICE, &mut ctx.arena, &mut ctx.cache, &ctx.types));
        assert_eq!(sliced, oracle, "{name} sliced");
    }
}

//! The λS run loop's groups against the run that takes one step per
//! dispatch, under both counting policies.
//!
//! A group fires only when its whole cost under the policy fits in the
//! slice, so a run in slices of one step never splits a contraction: it
//! is the reference here. Under the machine's policy it takes no group
//! at all; under the small-step's it still takes the groups of at most
//! one contraction (a leaf's `Eval`, an operator over leaves), whose
//! pricing the tree oracle pins instead (`golden.rs`, and the fuel cuts
//! below). On every program of the golden corpus and on 208
//! more `sources::mixed` programs, for the CEK machine (steps are
//! transitions) and for the compiled small-step (steps are
//! contractions):
//!
//! * the whole run's outcome, steps and peaks equal the stepwise run's;
//! * so do those of the run in slices of every size from 1 to 8, which
//!   cut groups at every offset;
//! * a run given any fuel from 1 to its length (at most 2 000) stops
//!   with the steps and peaks the stepwise run has at that fuel;
//! * and the small-step's run at fuels 1, 2, 3 and its length − 1 is
//!   the tree oracle's.

mod corpus;

use bc_core::eval as es;
use bc_machine::cek_s;
use bc_machine::metrics::{MachineOutcome, MachineRun, Metrics};
use bc_syntax::reduce::Slice;
use bc_testkit::sources;
use corpus::{corpus, sourced, Entry};

const FUEL: u64 = 50_000;
const MAX_CUT: u64 = 2_000;

/// What a run must reproduce: its outcome, steps and three peaks.
type Fingerprint = (MachineOutcome, u64, usize, usize, usize);

fn fingerprint(outcome: MachineOutcome, m: &Metrics) -> Fingerprint {
    (
        outcome,
        m.steps,
        m.peak_frames,
        m.peak_cast_frames,
        m.peak_cast_size,
    )
}

fn of(run: MachineRun) -> Fingerprint {
    fingerprint(run.outcome, &run.metrics)
}

/// The run in slices of `slice` transitions.
fn sliced(entry: &mut Entry, slice: u64) -> MachineRun {
    let ctx = &mut entry.ctx;
    let paused = cek_s::start_compiled_in(&entry.code, &ctx.arena, &ctx.cache, FUEL);
    Slice::Parked(paused)
        .finish(|p| cek_s::resume_compiled_in(p, &mut ctx.arena, &mut ctx.cache, slice))
}

/// The stepwise run, and after each of its first [`MAX_CUT`]
/// transitions the fingerprint a run with that much fuel stops with.
fn stepwise(entry: &mut Entry) -> (Fingerprint, Vec<Fingerprint>) {
    let ctx = &mut entry.ctx;
    let mut cuts = Vec::new();
    let paused = cek_s::start_compiled_in(&entry.code, &ctx.arena, &ctx.cache, FUEL);
    let run = Slice::Parked(paused).finish(|p| {
        if p.steps() > 0 && p.steps() <= MAX_CUT {
            cuts.push(fingerprint(MachineOutcome::Timeout, &p.metrics()));
        }
        cek_s::resume_compiled_in(p, &mut ctx.arena, &mut ctx.cache, 1)
    });
    (of(run), cuts)
}

fn check(mut entry: Entry) {
    let name = entry.name.clone();
    let ctx = &mut entry.ctx;
    let whole = of(cek_s::run_compiled_in(
        &entry.code,
        &mut ctx.arena,
        &mut ctx.cache,
        FUEL,
    ));
    let (reference, mut cuts) = stepwise(&mut entry);
    assert_eq!(whole, reference, "{name}: whole run against stepwise");
    for slice in 2..=8 {
        let run = of(sliced(&mut entry, slice));
        assert_eq!(run, whole, "{name}: slices of {slice}");
    }
    if whole.1 <= MAX_CUT {
        // With fuel for all its transitions, a run finishes as the
        // whole run does.
        cuts.push(whole);
    }
    for (fuel, want) in (1..).zip(cuts) {
        let ctx = &mut entry.ctx;
        let run = cek_s::run_compiled_in(&entry.code, &mut ctx.arena, &mut ctx.cache, fuel);
        assert_eq!(of(run), want, "{name}: fuel {fuel}");
    }
}

#[test]
fn fused_runs_count_as_the_stepwise_run_on_the_golden_corpus() {
    for entry in corpus() {
        check(entry);
    }
}

#[test]
fn fused_runs_count_as_the_stepwise_run_on_mixed_programs() {
    for (i, source) in sources::mixed(31, 208).iter().enumerate() {
        check(sourced(format!("mixed-31/{i}"), source));
    }
}

type SmallRun = Result<es::Run, es::RunError>;

/// The compiled small-step's run of `entry` with `fuel`, in slices of
/// `slice` contractions.
fn small_sliced(entry: &mut Entry, fuel: u64, slice: u64) -> SmallRun {
    let ctx = &mut entry.ctx;
    let (arena, cache, types) = (&mut ctx.arena, &mut ctx.cache, &ctx.types);
    Slice::Parked(es::start_compiled(&entry.code, fuel, arena))
        .finish(|p| es::resume_compiled(p, slice, arena, cache, types))
}

fn check_small(mut entry: Entry) {
    let name = entry.name.clone();
    let ctx = &mut entry.ctx;
    let (arena, cache, types) = (&mut ctx.arena, &mut ctx.cache, &mut ctx.types);
    let whole = es::run_compiled(&entry.code, FUEL, arena, cache, types);
    let mut cuts = Vec::new();
    let paused = es::start_compiled(&entry.code, FUEL, arena);
    let stepwise = Slice::Parked(paused).finish(|p| {
        if p.steps() > 0 && p.steps() <= MAX_CUT {
            cuts.push(Err(p.metrics()));
        }
        es::resume_compiled(p, 1, arena, cache, types)
    });
    assert_eq!(whole, stepwise, "{name}: whole run against stepwise");
    for slice in 2..=8 {
        let run = small_sliced(&mut entry, FUEL, slice);
        assert_eq!(run, whole, "{name}: slices of {slice}");
    }
    let length = match &whole {
        Ok(run) => run.steps,
        Err(es::RunError::FuelExhausted { steps, .. }) => *steps,
        Err(e) => panic!("{name}: {e:?}"),
    };
    if length <= MAX_CUT {
        cuts.push(whole);
    }
    for (fuel, want) in (1..).zip(cuts) {
        let run = small_sliced(&mut entry, fuel, fuel);
        assert_eq!(run, want, "{name}: fuel {fuel}");
    }
    let ctx = &mut entry.ctx;
    let tree = entry.code.decode(&ctx.arena, &ctx.types);
    for fuel in [1, 2, 3, length.saturating_sub(1)] {
        let (arena, cache, types) = (&mut ctx.arena, &mut ctx.cache, &mut ctx.types);
        let run = es::run_compiled(&entry.code, fuel, arena, cache, types);
        assert_eq!(
            run,
            es::run(&tree, fuel),
            "{name}: tree oracle at fuel {fuel}"
        );
    }
}

#[test]
fn small_step_runs_count_as_the_stepwise_run_on_the_golden_corpus() {
    for entry in corpus() {
        check_small(entry);
    }
}

#[test]
fn small_step_runs_count_as_the_stepwise_run_on_mixed_programs() {
    for (i, source) in sources::mixed(31, 208).iter().enumerate() {
        check_small(sourced(format!("mixed-31/{i}"), source));
    }
}

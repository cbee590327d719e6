//! The λS machine's fused transitions against the unfused machine.
//!
//! A fused group of `k` transitions fires only when all `k` fit in the
//! slice, so a run in slices of one transition never fuses: it is the
//! unfused machine, and the reference here. On every program of the
//! golden corpus and on 208 more `sources::mixed` programs:
//!
//! * the whole run's outcome, steps and three peaks equal the
//!   stepwise run's;
//! * so do those of the run in slices of every size from 1 to 8, which
//!   cut fused groups at every offset;
//! * a run given any fuel from 1 to its length (at most 2 000) stops
//!   with the steps and peaks the stepwise run has at that fuel.

mod corpus;

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
            cuts.push(fingerprint(MachineOutcome::Timeout, p.metrics()));
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

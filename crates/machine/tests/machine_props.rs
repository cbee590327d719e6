//! Property tests for the abstract machines: agreement with the
//! substitution-based small-step semantics on random well-typed
//! programs, and the space bound of the λS machine.

use bc_core::LambdaS;
use bc_lambda_b::LambdaB;
use bc_lambda_c::LambdaC;
use bc_machine::{cek, cek_s};
use bc_testkit::Gen;
use bc_translate::bisim::{observe_run, Observation};
use bc_translate::{term_b_to_c, term_c_to_s};
use proptest::prelude::*;

const FUEL: u64 = 20_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every machine agrees with its calculus' small-step semantics.
    #[test]
    fn machines_agree_with_small_step(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let m = gen.term_b(&ty, 4);

        let small_b = observe_run::<LambdaB>(&bc_lambda_b::eval::run(&m, FUEL));
        let mach_b = cek::run(&m, FUEL).outcome.to_observation();

        let mc = term_b_to_c(&m);
        let small_c = observe_run::<LambdaC>(&bc_lambda_c::eval::run(&mc, FUEL));
        let mach_c = cek::run(&mc, FUEL).outcome.to_observation();

        let ms = term_c_to_s(&mc);
        let small_s = observe_run::<LambdaS>(&bc_core::eval::run(&ms, FUEL));
        let mach_s = cek_s::run(&ms, FUEL).outcome.to_observation();

        // Timeouts may land at different step counts between a
        // machine and a term rewriter; all decisive outcomes agree.
        let outcomes = [small_b, mach_b, small_c, mach_c, small_s, mach_s];
        let decisive: Vec<_> = outcomes
            .iter()
            .filter(|o| **o != Observation::Timeout)
            .collect();
        for pair in decisive.windows(2) {
            prop_assert_eq!(pair[0], pair[1]);
        }
    }

    /// The λS machine never holds two adjacent coercion frames: its
    /// peak coercion frame count is bounded by half the peak frame
    /// count plus one.
    #[test]
    fn lambda_s_machine_merges_adjacent_frames(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let m = gen.term_b(&ty, 4);
        let ms = term_c_to_s(&term_b_to_c(&m));
        let run = cek_s::run(&ms, FUEL);
        prop_assert!(
            run.metrics.peak_cast_frames <= run.metrics.peak_frames / 2 + 1,
            "adjacent coercion frames survived: {} of {}",
            run.metrics.peak_cast_frames,
            run.metrics.peak_frames
        );
    }
}

/// The headline bound, swept at the space table's scale: λS machine
/// space is flat in n while λB's cast frames and λC's coercion frames
/// grow linearly, and all three machines agree on the outcome at
/// every n.
#[test]
fn space_series() {
    let ns = [4i64, 16, 64, 256, 1024, 4096];
    let mut b_frames = Vec::new();
    let mut c_frames = Vec::new();
    let mut s_frames = Vec::new();
    for n in ns {
        let m = bc_lambda_b::programs::even_odd_mixed(n);
        let mc = term_b_to_c(&m);
        let ms = term_c_to_s(&mc);
        let rb = cek::run(&m, u64::MAX);
        let rc = cek::run(&mc, u64::MAX);
        let rs = cek_s::run(&ms, u64::MAX);
        let observed = rb.outcome.to_observation();
        assert_eq!(observed, rc.outcome.to_observation(), "λB/λC at n = {n}");
        assert_eq!(observed, rs.outcome.to_observation(), "λB/λS at n = {n}");
        b_frames.push(rb.metrics.peak_cast_frames);
        c_frames.push(rc.metrics.peak_cast_frames);
        s_frames.push((rs.metrics.peak_frames, rs.metrics.peak_cast_frames));
    }
    for (n, frames) in ns.iter().zip(&b_frames) {
        assert!(
            *frames as i64 >= *n,
            "λB leak missing at n = {n}: {b_frames:?}"
        );
    }
    // λB and λC run in lockstep, cast frame for coercion frame.
    assert_eq!(c_frames, b_frames, "λC frames diverged from λB's");
    assert!(
        s_frames.iter().all(|f| *f == s_frames[0]),
        "λS space grew: {s_frames:?}"
    );
}

//! Property tests for the compiled λS code block: on random
//! well-typed programs, the CEK machine never re-interns a coercion
//! tree at run time, and a warm rerun is answered from the caches.
//! The machine's outcomes, steps and space peaks are pinned by the
//! golden corpus in `golden.rs`.

use bc_core::CompileCtx;
use bc_machine::cek_s;
use bc_machine::metrics::MachineOutcome;
use bc_testkit::Gen;
use proptest::prelude::*;

const FUEL: u64 = 20_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiled path performs zero tree interning, on every
    /// generated program — the structural guarantee, not just the
    /// boundary-loop benchmark's.
    #[test]
    fn compiled_runs_never_reintern(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let mut ctx = CompileCtx::new();
        let (_, compiled) = gen.compiled_s(&mut ctx, &ty, 4);
        let run = cek_s::run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, FUEL);
        prop_assert_eq!(
            run.metrics.reuse.tree_interns, 0,
            "compiled run hash-walked a coercion tree"
        );
    }

    /// Warm repeats share everything: a second compiled run of the
    /// same program composes nothing structurally and interns no new
    /// nodes.
    #[test]
    fn warm_compiled_reruns_are_pure_cache_hits(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let mut ctx = CompileCtx::new();
        let (_, compiled) = gen.compiled_s(&mut ctx, &ty, 3);
        let first = cek_s::run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, FUEL);
        // Skip programs that time out: their second run may take a
        // different prefix of the evaluation.
        if first.outcome != MachineOutcome::Timeout {
            let second = cek_s::run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, FUEL);
            prop_assert_eq!(first.outcome, second.outcome.clone());
            prop_assert_eq!(second.metrics.reuse.tree_interns, 0);
            prop_assert_eq!(second.metrics.reuse.node_misses, 0, "new arena nodes on rerun");
            prop_assert_eq!(second.metrics.reuse.compose_misses, 0, "structural compose on rerun");
        }
    }
}

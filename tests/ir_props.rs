//! Property tests for the compiled term IRs that carry the
//! allocation-free pipeline:
//!
//! * **λS engine equivalence** — [`bc_core::eval::run_compiled`] (the
//!   production engine, driven entirely on interned ids) agrees with
//!   the tree small-step [`bc_core::eval::run`] (the oracle) on
//!   random well-typed programs: same observation, same step count,
//!   same space peaks, and the same fuel-exhaustion fingerprint when
//!   the bound cuts a run short. Checked cold (fresh arenas per
//!   program) and warm (one shared [`CompileCtx`] across the whole
//!   run, where every intern and compose is a cache hit).
//! * **Sliced ≡ unsliced** for that engine: driving a run in fuel
//!   slices through its parked focused state ([`bc_core::eval::start_compiled`]
//!   and [`bc_core::eval::resume_compiled`]) gives exactly the unsliced
//!   result — outcome, steps, both peaks, and the cutoff accounting.
//! * **`decompile ∘ compile = id`** for the interned λB term IR
//!   ([`bc_lambda_b::bterm`]) and the interned λC term IR
//!   ([`bc_lambda_c::cterm`]), again cold and warm — the `Program`
//!   handles of the session API hold only compiled forms and rebuild
//!   trees on demand through exactly these decompilers, so the round
//!   trip is what keeps the tree views honest.
//! * **`decode ∘ encode = id`** for the flat λS code block
//!   ([`bc_core::SCode`]) the λS engines run, names included.

use bc_core::eval::{resume_compiled, run, run_compiled, start_compiled, RunError, SliceC};
use bc_core::{compile_term, CompileCtx, SCode};
use bc_lambda_b::bterm;
use bc_lambda_c::cterm;
use bc_lambda_c::CArena;
use bc_syntax::TypeArena;
use bc_testkit::Gen;
use bc_translate::bisim::{observe_s, observe_s_compiled};
use bc_translate::term_b_to_c;
use proptest::prelude::*;

/// Enough fuel that most generated programs converge, small enough
/// that the divergent ones exercise the fuel-exhaustion arm cheaply.
const FUEL: u64 = 512;

/// Runs one generated λS program through both engines against the
/// given context and asserts the full fingerprint matches: outcome
/// observation, step count, and both space peaks — or, when fuel runs
/// out, the identical cutoff accounting on both sides.
fn assert_engines_agree(gen: &mut Gen, ctx: &mut CompileCtx) {
    let ty = gen.ty(2);
    let (tree, compiled) = gen.compiled_s(ctx, &ty, 4);
    let oracle = run(&tree, FUEL);
    let subject = run_compiled(
        &compiled,
        FUEL,
        &mut ctx.arena,
        &mut ctx.cache,
        &mut ctx.types,
    );
    match (oracle, subject) {
        (Ok(t), Ok(c)) => {
            assert_eq!(
                observe_s(&t.outcome),
                observe_s_compiled(&c.outcome, &ctx.arena),
                "engines disagree on the outcome of {tree}"
            );
            assert_eq!(t.steps, c.steps, "step counts diverge on {tree}");
            assert_eq!(t.peak_size, c.peak_size, "peak sizes diverge on {tree}");
            assert_eq!(
                t.peak_coercion_size, c.peak_coercion_size,
                "peak coercion sizes diverge on {tree}"
            );
        }
        (
            Err(RunError::FuelExhausted {
                steps: ts,
                peak_size: tp,
                peak_coercion_size: tc,
            }),
            Err(RunError::FuelExhausted {
                steps: cs,
                peak_size: cp,
                peak_coercion_size: cc,
            }),
        ) => {
            assert_eq!(
                (ts, tp, tc),
                (cs, cp, cc),
                "cutoff accounting diverges on {tree}"
            );
        }
        (oracle, subject) => panic!(
            "engines disagree on termination of {tree}: tree {oracle:?} vs compiled {subject:?}"
        ),
    }
}

/// Runs one generated λS program unsliced and then in slices of 1
/// and 7 steps, each through fresh arenas, at a fuel that cuts some
/// runs short and at [`FUEL`], and asserts the results are identical
/// to the letter.
fn assert_sliced_matches_unsliced(gen: &mut Gen) {
    let ty = gen.ty(2);
    let tree = gen.term_s(&ty, 4);
    let fresh = || {
        let mut ctx = CompileCtx::new();
        let code = ctx.compile(&tree);
        (ctx, code)
    };
    for fuel in [5, FUEL] {
        let unsliced = {
            let (mut ctx, code) = fresh();
            run_compiled(&code, fuel, &mut ctx.arena, &mut ctx.cache, &mut ctx.types)
        };
        for slice in [1, 7] {
            let (mut ctx, code) = fresh();
            let mut paused = start_compiled(&code, fuel, &mut ctx.arena, &mut ctx.types)
                .expect("generated programs are well typed");
            let sliced = loop {
                match resume_compiled(paused, slice, &mut ctx.arena, &mut ctx.cache) {
                    SliceC::Done(result) => break result,
                    SliceC::Parked(next) => paused = next,
                }
            };
            assert_eq!(unsliced, sliced, "slice {slice}, fuel {fuel} of {tree}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The compiled λS small-step parks and resumes its focused state
    /// without changing anything observable.
    #[test]
    fn sliced_compiled_eval_matches_unsliced(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        for _ in 0..4 {
            assert_sliced_matches_unsliced(&mut gen);
        }
    }

    /// Compiled λS evaluation ≡ tree small-step, cold: every program
    /// gets fresh arenas, so each intern and compose happens for the
    /// first time.
    #[test]
    fn compiled_eval_matches_tree_oracle_cold(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let mut ctx = CompileCtx::new();
        assert_engines_agree(&mut gen, &mut ctx);
    }

    /// Compiled λS evaluation ≡ tree small-step, warm: eight programs
    /// share one context, so later ones run almost entirely on memo
    /// hits — the steady state a warm `Session` (and every pool
    /// worker over a frozen base) lives in.
    #[test]
    fn compiled_eval_matches_tree_oracle_warm(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let mut ctx = CompileCtx::new();
        for _ in 0..8 {
            assert_engines_agree(&mut gen, &mut ctx);
        }
    }

    /// λB: `decompile ∘ compile = id`, cold and warm. The second
    /// compile of the same term must also intern nothing new — the
    /// arena watermark is the session layer's id-offset contract.
    #[test]
    fn bterm_compile_round_trips(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let mut types = TypeArena::new();
        for _ in 0..4 {
            let ty = gen.ty(2);
            let term = gen.term_b(&ty, 4);
            let cold = bterm::compile(&term, &mut types);
            prop_assert_eq!(&bterm::decompile(&cold, &types), &term);
            let watermark = types.len();
            let warm = bterm::compile(&term, &mut types);
            prop_assert_eq!(&bterm::decompile(&warm, &types), &term);
            prop_assert_eq!(types.len(), watermark, "warm recompile interned a type");
        }
    }

    /// λC: `decompile ∘ compile = id` on translated λB terms, cold
    /// and warm, with the warm recompile interning nothing into
    /// either the λC coercion arena or the type arena.
    #[test]
    fn cterm_compile_round_trips(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let mut arena = CArena::new();
        let mut types = TypeArena::new();
        for _ in 0..4 {
            let ty = gen.ty(2);
            let term = term_b_to_c(&gen.term_b(&ty, 4));
            let cold = cterm::compile(&term, &mut arena, &mut types);
            prop_assert_eq!(&cterm::decompile(&cold, &arena, &types), &term);
            let (cmark, tmark) = (arena.len(), types.len());
            let warm = cterm::compile(&term, &mut arena, &mut types);
            prop_assert_eq!(&cterm::decompile(&warm, &arena, &types), &term);
            prop_assert_eq!(arena.len(), cmark, "warm recompile interned a coercion");
            prop_assert_eq!(types.len(), tmark, "warm recompile interned a type");
        }
    }

    /// λS: `decode ∘ encode = id` on the code blocks the engines run,
    /// binder and variable names included, and the block's node
    /// counts match the named term's.
    #[test]
    fn scode_decode_round_trips(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let mut ctx = CompileCtx::new();
        for _ in 0..4 {
            let ty = gen.ty(2);
            let tree = gen.term_s(&ty, 4);
            let named = compile_term(&tree, &mut ctx.arena, &mut ctx.types);
            let code = SCode::encode(&named);
            prop_assert_eq!(&code.decode(), &named);
            prop_assert_eq!(code.size(), named.size());
            prop_assert_eq!(code.coercion_nodes(), named.coercion_nodes());
        }
    }
}

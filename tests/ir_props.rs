//! Property tests for the compiled term IRs that carry the
//! allocation-free pipeline:
//!
//! * **λS engine equivalence** — [`bc_core::eval::run_compiled`] (the
//!   production engine, driven entirely on interned ids) agrees with
//!   the tree small-step [`bc_core::eval::run`] (the oracle) on
//!   random well-typed programs: same observation, same outcome term,
//!   same step count, same space peaks, and the
//!   same fuel-exhaustion fingerprint when the bound cuts a run short.
//!   Checked cold (fresh arenas per program) and warm (one shared
//!   [`CompileCtx`] across the whole run, where every intern and
//!   compose is a cache hit), and on generated recursive count-down
//!   loops whose recursive call crosses `?`.
//! * **Sliced ≡ unsliced** for that engine: driving a run in fuel
//!   slices through its parked focused state ([`bc_core::eval::start_compiled`]
//!   and [`bc_core::eval::resume_compiled`]) gives exactly the unsliced
//!   result — outcome, steps, both peaks, and the cutoff accounting.
//! * **`decompile ∘ compile = id`** for the interned λB term IR
//!   ([`bc_lambda_b::bterm`]), again cold and warm — the `Program`
//!   handles of the session API hold only compiled forms and rebuild
//!   trees on demand through exactly this decompiler, so the round
//!   trip is what keeps the tree views honest.
//! * **`decode ∘ compile = id`** for the flat λS code block
//!   ([`bc_core::SCode`]) the λS engines run, names included.
//! * **One-pass `|·|BS` ≡ `|·|CS ∘ |·|BC`**: the direct lowering
//!   ([`bc_translate::cast_to_space_in`],
//!   [`bc_translate::term_b_to_s_compiled`]) gives the same interned
//!   coercions and the same code block as the two-stage λB → λC → λS
//!   path through a `CNormalizer`, in shared arenas, and the block
//!   decompiles to the tree translation [`bc_translate::term_b_to_s`].

use bc_core::arena::{CoercionArena, CoercionId, ComposeCache};
use bc_core::eval::{
    resume_compiled, run, run_compiled, start_compiled, Outcome, RunError, SliceC,
};
use bc_core::{CompileCtx, SCode, Term};
use bc_lambda_b as lb;
use bc_lambda_b::bterm;
use bc_lambda_c::CArena;
use bc_syntax::{Label, Op, Type, TypeArena, TypeId};
use bc_testkit::Gen;
use bc_translate::bisim::{observe_s, observe_s_compiled};
use bc_translate::{
    cast_to_coercion_in, cast_to_space, cast_to_space_in, term_b_to_c_compiled, term_b_to_s,
    term_b_to_s_compiled, term_c_to_s_from_compiled, CNormalizer,
};
use proptest::prelude::*;

/// Enough fuel that most generated programs converge, small enough
/// that the divergent ones exercise the fuel-exhaustion arm cheaply.
const FUEL: u64 = 512;

/// More than a generated count-down loop of at most 12 calls needs.
const LOOP_FUEL: u64 = 10_000;

/// The arenas both lowerings share: the space arena, compose cache
/// and type arena, plus the λC tier only the two-stage path uses.
#[derive(Default)]
struct Lowerings {
    types: TypeArena,
    arena: CoercionArena,
    cache: ComposeCache,
    carena: CArena,
    norm: CNormalizer,
}

impl Lowerings {
    /// `|A ⇒p B|BS` in one pass.
    fn direct_cast(&mut self, a: TypeId, p: Label, b: TypeId) -> CoercionId {
        cast_to_space_in(&mut self.types, &mut self.arena, a, p, b)
    }

    /// `|·|CS ∘ |·|BC` on one compiled λB term: the reference lowering.
    fn two_stage(&mut self, term: &lb::BTerm) -> SCode {
        let c = term_b_to_c_compiled(term, &mut self.carena, &mut self.types);
        term_c_to_s_from_compiled(
            &c,
            &self.carena,
            &mut self.norm,
            &mut self.arena,
            &mut self.cache,
            &self.types,
        )
    }
}

/// Runs one generated λS program through both engines against the
/// given context (see [`assert_agree_on`]).
fn assert_engines_agree(gen: &mut Gen, ctx: &mut CompileCtx) {
    let ty = gen.ty(2);
    let (tree, compiled) = gen.compiled_s(ctx, &ty, 4);
    assert_agree_on(&tree, &compiled, ctx, FUEL);
}

/// Runs a λS program through the tree oracle and, compiled into
/// `ctx`, through the compiled engine, and asserts the full
/// fingerprint matches: the outcome (a value read back is the
/// oracle's term exactly), step count, and both space peaks —
/// or, when fuel runs out, the identical cutoff accounting on both
/// sides.
fn assert_agree_on(tree: &Term, compiled: &SCode, ctx: &mut CompileCtx, fuel: u64) {
    let oracle = run(tree, fuel);
    let subject = run_compiled(
        compiled,
        fuel,
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
            match (&t.outcome, &c.outcome) {
                (Outcome::Value(v), Outcome::Value(cv)) => {
                    assert_eq!(cv, v, "engines reach different values from {tree}")
                }
                (Outcome::Blame(p), Outcome::Blame(q)) => {
                    assert_eq!(p, q, "engines blame different labels in {tree}")
                }
                (a, b) => panic!("engines disagree on the outcome of {tree}: {a:?} vs {b:?}"),
            }
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

/// Runs one generated λS program through [`assert_sliced_on`].
fn assert_sliced_matches_unsliced(gen: &mut Gen) {
    let ty = gen.ty(2);
    let tree = gen.term_s(&ty, 4);
    assert_sliced_on(&tree, &[5, FUEL]);
}

/// Runs a λS program unsliced and then in slices of 1 and 7 steps,
/// each through fresh arenas, at each of the `fuels`, and asserts the
/// results are identical to the letter.
fn assert_sliced_on(tree: &Term, fuels: &[u64]) {
    let fresh = || {
        let mut ctx = CompileCtx::new();
        let code = ctx.compile(tree);
        (ctx, code)
    };
    for &fuel in fuels {
        let unsliced = {
            let (mut ctx, code) = fresh();
            run_compiled(&code, fuel, &mut ctx.arena, &mut ctx.cache, &mut ctx.types)
        };
        for slice in [1, 7] {
            let (mut ctx, code) = fresh();
            let mut paused = start_compiled(&code, fuel, &ctx.arena);
            let sliced = loop {
                match resume_compiled(paused, slice, &mut ctx.arena, &mut ctx.cache, &ctx.types) {
                    SliceC::Done(result) => break result,
                    SliceC::Parked(next) => paused = next,
                }
            };
            assert_eq!(unsliced, sliced, "slice {slice}, fuel {fuel} of {tree}");
        }
    }
}

/// The recursive-loop generator's own random stream (splitmix64), so
/// the [`Gen`] streams the other properties draw from stay as they
/// are.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn pick(&mut self, types: &[Type]) -> Type {
        types[self.below(types.len() as u64) as usize].clone()
    }

    /// `m : from ⇒p ? ⇒q to`.
    fn through_dyn(&mut self, m: lb::Term, from: &Type, to: &Type) -> lb::Term {
        let (p, q) = (
            Label::new(self.below(64) as u32),
            Label::new(self.below(64) as u32),
        );
        m.cast(from.clone(), p, Type::DYN)
            .cast(Type::DYN, q, to.clone())
    }
}

/// A count-down loop `(fix f (n:Int):B. if n = 0 then … else F (n − 1)) k`
/// with `k` in 0..=12, where `F` is `f` cast through `?` once or twice
/// (the last cast may change the result type, which is then cast back
/// through `?` and may blame). The call is made directly, through a
/// `let`-bound proxy, or from a `λ` capturing `n` and `f`.
fn count_down_loop(dice: &mut Dice) -> lb::Term {
    let n = || lb::Term::var("n");
    let results = [Type::INT, Type::BOOL, Type::DYN];
    let b = dice.pick(&results);
    let b2 = if dice.below(4) == 0 {
        dice.pick(&results)
    } else {
        b.clone()
    };
    let own = Type::fun(Type::INT, b.clone());
    let mids = [
        Type::fun(Type::DYN, Type::DYN),
        Type::fun(Type::INT, Type::DYN),
        Type::fun(Type::DYN, b.clone()),
        own.clone(),
    ];
    let mut fun = lb::Term::var("f");
    let mut from = own;
    for _ in 0..dice.below(2) {
        let mid = dice.pick(&mids);
        fun = dice.through_dyn(fun, &from, &mid);
        from = mid;
    }
    fun = dice.through_dyn(fun, &from, &Type::fun(Type::INT, b2.clone()));
    let call = match dice.below(3) {
        0 => fun.app(lb::Term::op2(Op::Sub, n(), lb::Term::int(1))),
        1 => lb::Term::let_(
            "g",
            fun,
            lb::Term::var("g").app(lb::Term::op2(Op::Sub, n(), lb::Term::int(1))),
        ),
        _ => lb::Term::let_(
            "h",
            lb::Term::lam(
                "u",
                Type::INT,
                fun.app(lb::Term::op2(Op::Sub, n(), lb::Term::var("u"))),
            ),
            lb::Term::var("h").app(lb::Term::int(1)),
        ),
    };
    let call = if b2 == b {
        call
    } else {
        dice.through_dyn(call, &b2, &b)
    };
    let base = match &b {
        Type::Base(bc_syntax::BaseType::Int) => n(),
        Type::Base(_) => lb::Term::bool(true),
        _ => dice.through_dyn(n(), &Type::INT, &Type::DYN),
    };
    let body = lb::Term::ite(lb::Term::op2(Op::Eq, n(), lb::Term::int(0)), base, call);
    lb::Term::fix("f", "n", Type::INT, b, body).app(lb::Term::int(dice.below(13) as i64))
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

    /// Compiled λS evaluation ≡ tree small-step, and sliced ≡
    /// unsliced, on recursive loops: each call finds the `fix` in slot 0
    /// of its activation, and the coercions it crosses merge.
    #[test]
    fn compiled_eval_matches_tree_oracle_on_recursive_loops(seed in any::<u64>()) {
        let mut dice = Dice(seed);
        let source = count_down_loop(&mut dice);
        lb::type_of(&source).expect("generated loops are well typed");
        let tree = bc_translate::term_b_to_s(&source);
        let mut ctx = CompileCtx::new();
        let code = ctx.compile(&tree);
        assert_agree_on(&tree, &code, &mut ctx, LOOP_FUEL);
        assert_sliced_on(&tree, &[LOOP_FUEL]);
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

    /// `|A ⇒p B|BS` built in one pass is the very id the two-stage
    /// path interns (`CNormalizer` over `cast_to_coercion_in`) in the
    /// same arena, whichever runs first, and resolves to the tree
    /// `cast_to_space`.
    #[test]
    fn direct_cast_lowering_matches_two_stage(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let mut l = Lowerings::default();
        for i in 0..8 {
            let (a, b) = gen.compatible_pair(3);
            let p = gen.label();
            let (a_id, b_id) = (l.types.intern(&a), l.types.intern(&b));
            let first = (i % 2 == 0).then(|| l.direct_cast(a_id, p, b_id));
            let c = cast_to_coercion_in(&mut l.types, &mut l.carena, a_id, p, b_id);
            let reference = l.norm.normalize(c, &l.carena, &mut l.arena, &mut l.cache, &l.types);
            let id = first.unwrap_or_else(|| l.direct_cast(a_id, p, b_id));
            prop_assert_eq!(id, reference, "|{} ⇒ {}|BS", a, b);
            prop_assert_eq!(l.arena.resolve(id), cast_to_space(&a, p, &b));
        }
    }

    /// The one-pass term lowering gives the two-stage code block node
    /// for node (coercion ids, names and operands included) on
    /// generated λB programs, in shared arenas, whichever runs first,
    /// and the block decompiles to the tree `|·|BS` of the program.
    #[test]
    fn direct_term_lowering_matches_two_stage(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let mut l = Lowerings::default();
        for i in 0..4 {
            let ty = gen.ty(2);
            let tree = gen.term_b(&ty, 4);
            let term = bterm::compile(&tree, &mut l.types);
            let (direct, reference) = if i % 2 == 0 {
                let direct = term_b_to_s_compiled(&term, &mut l.types, &mut l.arena);
                (direct, l.two_stage(&term))
            } else {
                let reference = l.two_stage(&term);
                (term_b_to_s_compiled(&term, &mut l.types, &mut l.arena), reference)
            };
            prop_assert_eq!(&direct, &reference);
            prop_assert_eq!(
                &direct.decode(&l.arena, &l.types),
                &term_b_to_s(&tree)
            );
        }
    }

    /// λS: `decode ∘ compile = id` on the code blocks the engines run,
    /// binder and variable names included, and the block's node
    /// counts match the tree's, each coercion counting as one node.
    #[test]
    fn scode_decode_round_trips(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let mut ctx = CompileCtx::new();
        for _ in 0..4 {
            let ty = gen.ty(2);
            let tree = gen.term_s(&ty, 4);
            let code = ctx.compile(&tree);
            prop_assert_eq!(&code.decode(&ctx.arena, &ctx.types), &tree);
            prop_assert_eq!(code.size() + tree.coercion_size(), tree.size());
            prop_assert_eq!(code.coercion_nodes(), tree.cast_count());
        }
    }
}

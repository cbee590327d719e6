//! Worked examples taken directly from the paper's text, as
//! integration tests across the crates.

use bc_core::compose::compose;
use bc_lambda_b::eval::Outcome;
use bc_lambda_b::Term;
use bc_syntax::{
    meet, naive_subtype, pointed::pointed_naive_subtype, Ground, Label, PointedType, Type,
};
use bc_translate::b_to_s::cast_to_space;
use bc_translate::bisim::{lockstep_bc, Observation};
use proptest::prelude::*;

fn p(n: u32) -> Label {
    Label::new(n)
}

/// §2, Lemma 2 (Failure):
/// `V : A ⇒p1 G ⇒p2 ? ⇒p3 H ⇒p4 B ⟶* blame p3`.
#[test]
fn lemma2_failure() {
    let v = Term::lam("x", Type::INT, Term::var("x"));
    let a = Type::fun(Type::INT, Type::INT);
    let g = Ground::Fun.ty();
    let h = Type::BOOL;
    let m = v
        .cast(a, p(1), g.clone())
        .cast(g, p(2), Type::DYN)
        .cast(Type::DYN, p(3), h.clone())
        .cast(h, p(4), Type::BOOL);
    match bc_lambda_b::eval::run(&m, 1000).unwrap().outcome {
        Outcome::Blame(l) => assert_eq!(l, p(3)),
        other => panic!("expected blame p3, got {other:?}"),
    }
}

/// §1: "given a cast between a less-precise and a more-precise type,
/// blame always allocates to the less-precisely typed side" — the
/// slogan "well-typed programs can't be blamed".
#[test]
fn well_typed_programs_cant_be_blamed() {
    // M : A ⇒p B with A <:n B (A more precise): whatever happens,
    // blame falls on p̄ — the less precisely typed (B) side — never p.
    let a = Type::fun(Type::INT, Type::INT);
    let b = Type::dyn_fun();
    assert!(naive_subtype(&a, &b));
    let f = Term::lam("x", Type::INT, Term::var("x"));
    // Cast up, then abuse the function from the dynamic side.
    let m = f
        .cast(a, p(0), b)
        .app(Term::bool(true).cast(Type::BOOL, p(9), Type::DYN));
    match bc_lambda_b::eval::run(&m, 1000).unwrap().outcome {
        Outcome::Blame(l) => {
            assert_eq!(l, p(0).complement(), "blame must fall on the dynamic side");
        }
        other => panic!("expected blame, got {other:?}"),
    }
}

/// §5.2: the meet used by the Fundamental Property, on the paper's
/// pointed types.
#[test]
fn pointed_meet_examples() {
    // Int & ? = Int; ⊥ <:n T for all T.
    assert_eq!(meet(&Type::INT, &Type::DYN).to_type(), Some(Type::INT));
    for t in [Type::INT, Type::dyn_fun(), Type::DYN] {
        assert!(pointed_naive_subtype(
            &PointedType::Bottom,
            &PointedType::from(&t)
        ));
    }
}

/// §5.2, Lemma 20 on a concrete triple, through the `|·|BS`
/// translation and `#`.
#[test]
fn lemma20_concrete() {
    let a = Type::fun(Type::INT, Type::DYN);
    let b = Type::dyn_fun();
    let c = Type::fun(Type::DYN, Type::DYN); // = ? → ?, above A & B
    let direct = cast_to_space(&a, p(1), &b);
    let via = compose(&cast_to_space(&a, p(1), &c), &cast_to_space(&c, p(1), &b));
    assert_eq!(direct, via);
}

/// §3.1: the lockstep bisimulation on the paper's flagship workload.
#[test]
fn lockstep_on_even_odd() {
    let m = bc_lambda_b::programs::even_odd_mixed(7);
    let report = lockstep_bc(&m, 1_000_000).expect("lockstep");
    assert_eq!(
        report.observation,
        Observation::Constant(bc_syntax::Constant::Bool(false))
    );
}

/// §4: the reduction sequence (a)–(e) of the paper — two stacked
/// function coercions applied to a value — runs to the same result in
/// λC (two wrapper steps) and λS (one merged wrapper step).
#[test]
fn section4_wrapper_example() {
    use bc_lambda_c::coercion::Coercion;
    use bc_lambda_c::Term as C;
    use bc_syntax::BaseType;
    let gi = Ground::Base(BaseType::Int);
    // c1→d1 = Int?p → Int!, c2→d2 = Int! → Int?q... build the λC term
    // (V⟨c1→d1⟩⟨c2→d2⟩) W from the paper, with W = 1⟨Int!⟩.
    let c1 = Coercion::proj(gi, p(0));
    let d1 = Coercion::inj(gi);
    let c2 = Coercion::inj(gi);
    let d2 = Coercion::proj(gi, p(1));
    let v = C::lam("x", Type::INT, C::var("x"));
    let m = v
        .coerce(Coercion::fun(c1, d1))
        .coerce(Coercion::fun(c2, d2))
        .app(C::int(1));
    let rc = bc_lambda_c::eval::run(&m, 100).unwrap();
    let ms = bc_translate::term_c_to_s(&m);
    let rs = bc_core::eval::run(&ms, 100).unwrap();
    // Both converge to the bare constant 1.
    assert!(matches!(rc.outcome, bc_lambda_c::eval::Outcome::Value(ref t) if *t == C::int(1)));
    assert!(
        matches!(rs.outcome, bc_core::eval::Outcome::Value(ref t) if *t == bc_core::Term::int(1))
    );
    // And λS needed fewer β/wrapper steps than λC.
    assert!(rs.steps <= rc.steps);
}

/// §6.1: the composition the paper calls puzzling, validated through
/// the λS translation (see also `bc-baselines`).
#[test]
fn puzzling_threesome_composition() {
    use bc_baselines::threesome::{compose_labeled, from_space, LabeledType};
    use bc_core::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
    use bc_syntax::BaseType;
    let gi = Ground::Base(BaseType::Int);
    let gb = Ground::Base(BaseType::Bool);
    let s = SpaceCoercion::proj(
        gi,
        p(7),
        Intermediate::Inj(GroundCoercion::IdBase(BaseType::Int), gi),
    );
    let t = SpaceCoercion::proj(gb, p(8), Intermediate::Fail(gb, p(9), Ground::Fun));
    let lhs = from_space(&compose(&s, &t));
    let rhs = compose_labeled(&from_space(&t), &from_space(&s));
    assert_eq!(lhs, rhs);
    assert_eq!(
        lhs,
        LabeledType::Fail {
            blame: p(8),
            ground: gi,
            proj: Some(p(7))
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// §6: erasing λS coercions to threesomes is a homomorphism from
    /// `#` to threesome composition, on generated composable pairs:
    /// `from_space(s # t) = from_space(t) ∘ from_space(s)`.
    #[test]
    fn threesome_erasure_is_a_homomorphism(seed in any::<u64>()) {
        use bc_baselines::threesome::{compose_labeled, from_space};
        let mut gen = bc_testkit::Gen::new(seed);
        let src = gen.ty(3);
        let (s, mid) = gen.space_from(&src, 4);
        let (t, _) = gen.space_from(&mid, 4);
        let lhs = from_space(&compose(&s, &t));
        let rhs = compose_labeled(&from_space(&t), &from_space(&s));
        prop_assert_eq!(lhs, rhs, "on {} # {}", s, t);
    }
}

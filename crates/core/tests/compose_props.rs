//! Property-based tests for the λS composition operator `#` (Figure 5
//! of the paper): Proposition 14 (height preservation),
//! the size-bounded-by-height corollary, associativity, identity laws,
//! typing, and canonicity — all over randomly generated canonical
//! coercions.
//!
//! The second half checks the hash-consing arena against the tree
//! specification: `intern`/`resolve` are mutually inverse, interned
//! composition agrees with tree composition, and composing through
//! the [`ComposeCache`] equals composing without it.

use bc_core::arena::{CoercionArena, ComposeCache};
use bc_core::coercion::SpaceCoercion;
use bc_core::compose::compose;
use bc_syntax::Type;
use bc_testkit::Gen;
use proptest::prelude::*;

/// Generates a composable pair `s : A ⇒ B`, `t : B ⇒ C`.
fn composable_pair(gen: &mut Gen) -> (SpaceCoercion, Type, SpaceCoercion, Type, Type) {
    let src = gen.ty(2);
    let (s, mid) = gen.space_from(&src, 3);
    let (t, tgt) = gen.space_from(&mid, 3);
    (s, src, t, mid, tgt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Proposition 14: ‖s # t‖ ≤ max(‖s‖, ‖t‖).
    #[test]
    fn height_bound(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let (s, _, t, _, _) = composable_pair(&mut gen);
        let st = compose(&s, &t);
        prop_assert!(
            st.height() <= s.height().max(t.height()),
            "‖{s} # {t}‖ = {} > max({}, {})",
            st.height(), s.height(), t.height()
        );
    }

    /// A space-efficient coercion of height h has size ≤ 3·(2^h − 1):
    /// bounded height implies bounded size, the other half of the
    /// space-efficiency argument.
    #[test]
    fn size_bounded_by_height(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let src = gen.ty(2);
        let (s, _) = gen.space_from(&src, 4);
        let h = s.height() as u32;
        prop_assert!(
            s.size() <= 3 * (2usize.pow(h) - 1),
            "size({s}) = {} exceeds the bound for height {h}",
            s.size()
        );
    }

    /// Composition is associative — the property whose absence makes
    /// naive coercion normalisation painful, and which canonical forms
    /// get for free.
    #[test]
    fn associativity(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let src = gen.ty(2);
        let (s, mid1) = gen.space_from(&src, 3);
        let (t, mid2) = gen.space_from(&mid1, 3);
        let (u, _) = gen.space_from(&mid2, 3);
        let left = compose(&compose(&s, &t), &u);
        let right = compose(&s, &compose(&t, &u));
        prop_assert_eq!(left, right);
    }

    /// `id # s = s = s # id` at the appropriate types.
    #[test]
    fn identity_laws(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let src = gen.ty(2);
        let (s, tgt) = gen.space_from(&src, 3);
        prop_assert_eq!(compose(&SpaceCoercion::id(&src), &s), s.clone());
        prop_assert_eq!(compose(&s, &SpaceCoercion::id(&tgt)), s);
    }

    /// `s : A ⇒ B` and `t : B ⇒ C` give `s # t : A ⇒ C`.
    #[test]
    fn composition_preserves_typing(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let (s, src, t, _, tgt) = composable_pair(&mut gen);
        let st = compose(&s, &t);
        prop_assert!(st.check(&src, &tgt), "{} at {} => {}", st, src, tgt);
    }

    /// Composition of canonical forms is canonical: including the
    /// result into λC and re-normalising is the identity.
    #[test]
    fn composition_is_canonical(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let (s, _, t, _, _) = composable_pair(&mut gen);
        let st = compose(&s, &t);
        prop_assert_eq!(bc_translate::coercion_to_space(&st.to_coercion()), st);
    }

    /// Labels of the composite are a subset of the operands' labels:
    /// composition never invents blame (safety preservation).
    #[test]
    fn no_new_labels(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let (s, _, t, _, _) = composable_pair(&mut gen);
        let st = compose(&s, &t);
        let mut allowed = s.labels();
        allowed.extend(t.labels());
        for l in st.labels() {
            prop_assert!(allowed.contains(&l), "label {} appeared from nowhere", l);
        }
    }

    /// `#` agrees with λC composition under normalisation:
    /// `|  |s|SC ; |t|SC  |CS = s # t`.
    #[test]
    fn agrees_with_lambda_c_composition(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let (s, _, t, _, _) = composable_pair(&mut gen);
        let via_c = bc_translate::coercion_to_space(
            &s.to_coercion().seq(t.to_coercion()),
        );
        prop_assert_eq!(via_c, compose(&s, &t));
    }

    /// Invariant 2 of the arena: `resolve ∘ intern = id`, and interning
    /// twice yields the same id (canonicity, invariant 1).
    #[test]
    fn intern_resolve_is_the_identity(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let src = gen.ty(2);
        let (s, _) = gen.space_from(&src, 4);
        let mut arena = CoercionArena::new();
        let id = arena.intern(&s);
        prop_assert_eq!(arena.resolve(id), s.clone(), "resolve ∘ intern on {}", s);
        prop_assert_eq!(arena.intern(&s), id, "re-interning {} changed its id", s);
        // Precomputed metadata matches the tree queries.
        prop_assert_eq!(arena.height(id), s.height());
        prop_assert_eq!(arena.size(id), s.size());
    }

    /// Invariant 4: interned composition agrees with tree composition
    /// on randomized composable pairs.
    #[test]
    fn interned_compose_agrees_with_tree_compose(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let (s, _, t, _, _) = composable_pair(&mut gen);
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let a = arena.intern(&s);
        let b = arena.intern(&t);
        let ab = arena.compose(&mut cache, a, b);
        prop_assert_eq!(
            arena.resolve(ab),
            compose(&s, &t),
            "interned {} # {} diverged from the tree recursion", s, t
        );
        // The composite is itself canonical in the arena: interning
        // the tree composite returns the very same id.
        prop_assert_eq!(arena.intern(&compose(&s, &t)), ab);
    }

    /// Compose-via-cache equals compose-without-cache: a warm cache
    /// answers with exactly the id a cold arena computes, for every
    /// pair — including pairs revisited in any order.
    #[test]
    fn cached_compose_equals_uncached_compose(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        // One warm arena+cache reused across several pairs…
        let mut warm_arena = CoercionArena::new();
        let mut warm_cache = ComposeCache::new();
        let mut pairs = Vec::new();
        for _ in 0..4 {
            let (s, _, t, _, _) = composable_pair(&mut gen);
            pairs.push((s, t));
        }
        // …revisit every pair twice (second visit hits the cache).
        for _round in 0..2 {
            for (s, t) in &pairs {
                let a = warm_arena.intern(s);
                let b = warm_arena.intern(t);
                let cached = warm_arena.compose(&mut warm_cache, a, b);
                // A cold arena with a fresh cache is "without cache":
                // every composition is computed structurally.
                let mut cold_arena = CoercionArena::new();
                let mut cold_cache = ComposeCache::new();
                let ca = cold_arena.intern(s);
                let cb = cold_arena.intern(t);
                let uncached = cold_arena.compose(&mut cold_cache, ca, cb);
                prop_assert_eq!(
                    warm_arena.resolve(cached),
                    cold_arena.resolve(uncached),
                    "cache changed the result of {} # {}", s, t
                );
            }
        }
        let stats = warm_cache.stats();
        prop_assert!(stats.hits >= pairs.len() as u64, "second round must hit: {:?}", stats);
    }
}

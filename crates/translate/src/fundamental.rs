//! The applications of full abstraction (§5): Lemma 20 and the
//! Fundamental Property of Casts (Lemma 21).
//!
//! Siek–Wadler 2010 proved the Fundamental Property with a custom
//! bisimulation and six lemmas; with full abstraction it reduces to
//! one equation between canonical coercions (Lemma 20), which this
//! module makes executable.

use bc_core::arena::{CoercionArena, ComposeCache};
use bc_lambda_b::term::Term as BTerm;
use bc_syntax::pointed::meet_below;
use bc_syntax::{Label, Type};

use crate::b_to_s::cast_to_space;

/// Checks the *premise* of Lemmas 20/21: all three casts exist
/// (pairwise compatibility) and `A & B <:n C`.
pub fn premise_holds(a: &Type, b: &Type, c: &Type) -> bool {
    a.compatible(b) && a.compatible(c) && c.compatible(b) && meet_below(a, b, c)
}

/// Executable Lemma 20: if `A & B <:n C` then
/// `|A ⇒p B|BS = |A ⇒p C|BS # |C ⇒p B|BS`.
///
/// Returns `None` when the premise fails (nothing to check), and
/// `Some(equal)` otherwise.
pub fn lemma20(a: &Type, b: &Type, c: &Type, p: Label) -> Option<bool> {
    let mut arena = CoercionArena::new();
    let mut cache = ComposeCache::new();
    lemma20_in(&mut arena, &mut cache, a, b, c, p)
}

/// [`lemma20`] against a caller-owned arena: both sides of the
/// equation are interned, the composition is memoized, and the final
/// comparison is an O(1) id check (hash-consing canonicity). The
/// exhaustive small-universe sweeps in the tests check thousands of
/// triples; sharing one arena across the sweep makes the structural
/// work proportional to the number of *distinct* coercions instead.
pub fn lemma20_in(
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    a: &Type,
    b: &Type,
    c: &Type,
    p: Label,
) -> Option<bool> {
    if !premise_holds(a, b, c) {
        return None;
    }
    let direct = arena.intern(&cast_to_space(a, p, b));
    let ac = arena.intern(&cast_to_space(a, p, c));
    let cb = arena.intern(&cast_to_space(c, p, b));
    let via = arena.compose(cache, ac, cb);
    Some(direct == via)
}

/// Builds the two sides of the Fundamental Property of Casts
/// (Lemma 21) for a subject term `M : A`:
/// `M : A ⇒p B` and `M : A ⇒p C ⇒p B`.
///
/// By Lemma 21 the two terms are contextually equivalent whenever
/// `A & B <:n C`; the property tests run both and compare outcomes.
pub fn fundamental_pair(m: &BTerm, a: &Type, p: Label, c: &Type, b: &Type) -> (BTerm, BTerm) {
    let single = m.clone().cast(a.clone(), p, b.clone());
    let double = m
        .clone()
        .cast(a.clone(), p, c.clone())
        .cast(c.clone(), p, b.clone());
    (single, double)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::{observe, Observation};
    use bc_lambda_b::eval::run;
    use bc_lambda_b::LambdaB;
    use bc_syntax::subtype::sample_types;

    #[test]
    fn lemma20_exhaustive_small_universe() {
        // One arena for the whole sweep: the structural work is
        // proportional to the number of distinct coercions in the
        // universe, and each check's equality is an id comparison.
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let universe = sample_types(1);
        let p = Label::new(0);
        let mut checked = 0usize;
        for a in &universe {
            for b in &universe {
                for c in &universe {
                    if let Some(ok) = lemma20_in(&mut arena, &mut cache, a, b, c, p) {
                        assert!(ok, "Lemma 20 fails at A={a}, B={b}, C={c}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 100, "premise held only {checked} times");
        assert!(
            arena.len() < checked,
            "interning must dedup across the sweep: {} distinct coercions for {checked} checks",
            arena.len()
        );
    }

    #[test]
    fn lemma20_in_agrees_with_lemma20() {
        let mut arena = CoercionArena::new();
        let mut cache = ComposeCache::new();
        let p = Label::new(3);
        for universe in [sample_types(1)] {
            for a in &universe {
                for b in &universe {
                    for c in &universe {
                        assert_eq!(
                            lemma20(a, b, c, p),
                            lemma20_in(&mut arena, &mut cache, a, b, c, p),
                            "A={a}, B={b}, C={c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fundamental_property_on_base_values() {
        // M : Int ⇒ ? ≃ M : Int ⇒ Int ⇒ ? (meet Int & ? = Int <:n Int).
        let p = Label::new(1);
        let (single, double) =
            fundamental_pair(&BTerm::int(5), &Type::INT, p, &Type::INT, &Type::DYN);
        let o1 = observe::<LambdaB>(&run(&single, 100).unwrap().outcome);
        let o2 = observe::<LambdaB>(&run(&double, 100).unwrap().outcome);
        assert_eq!(o1, o2);
    }

    #[test]
    fn fundamental_property_on_functions() {
        // Casting a function through a mediating type preserves the
        // observable result of applying it.
        let p = Label::new(1);
        let ii = Type::fun(Type::INT, Type::INT);
        let dd = Type::dyn_fun();
        assert!(premise_holds(&ii, &dd, &ii));
        let inc = BTerm::lam(
            "x",
            Type::INT,
            BTerm::op2(bc_syntax::Op::Add, BTerm::var("x"), BTerm::int(1)),
        );
        let (single, double) = fundamental_pair(&inc, &ii, p, &ii, &dd);
        // Apply both to 1 (through a projection back to Int → Int).
        let q = Label::new(2);
        let app1 = single.cast(dd.clone(), q, ii.clone()).app(BTerm::int(1));
        let app2 = double.cast(dd.clone(), q, ii.clone()).app(BTerm::int(1));
        let o1 = observe::<LambdaB>(&run(&app1, 1000).unwrap().outcome);
        let o2 = observe::<LambdaB>(&run(&app2, 1000).unwrap().outcome);
        assert_eq!(o1, o2);
        assert_eq!(o1, Observation::Constant(bc_syntax::Constant::Int(2)));
    }

    #[test]
    fn premise_can_fail() {
        // Int & Bool = ⊥ <:n Int holds, but Int ≁ Bool: no cast.
        assert!(!premise_holds(&Type::INT, &Type::BOOL, &Type::INT));
        // A ∼ B but C unrelated to the meet: Int & ? = Int, C = Bool.
        assert!(!premise_holds(&Type::INT, &Type::DYN, &Type::BOOL));
    }
}

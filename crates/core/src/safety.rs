//! Blame safety `M safeS q` for λS — as λC, a term is safe for `q`
//! iff none of its coercions mention `q` (Figure 3, applied mutatis
//! mutandis per §4).

use bc_syntax::Label;

use crate::term::Term;

/// Whether `M safeS q`.
pub fn term_safe_for(term: &Term, q: Label) -> bool {
    term.safe_for(q, &|s| s.safe_for(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
    use crate::eval;
    use crate::typing::type_of;
    use bc_syntax::{BaseType, Ground, Label};

    #[test]
    fn interned_safety_agrees_with_tree_safety() {
        let gi = Ground::Base(BaseType::Int);
        let s = SpaceCoercion::proj(
            gi,
            Label::new(3),
            Intermediate::Fail(gi, Label::new(4), Ground::Fun),
        );
        let mut arena = crate::arena::CoercionArena::new();
        let id = arena.intern(&s);
        for q in [Label::new(3), Label::new(4), Label::new(5)] {
            assert_eq!(arena.safe_for(id, q), s.safe_for(q), "{q}");
        }
    }

    #[test]
    fn safety_is_preserved_by_merging() {
        // Composition can only *lose* labels, never invent them, so
        // safety is preserved by the merge rule.
        let gi = Ground::Base(BaseType::Int);
        let gb = Ground::Base(BaseType::Bool);
        let q = Label::new(1);
        let r = Label::new(2);
        let m = Term::int(7)
            .coerce(SpaceCoercion::inj(
                GroundCoercion::IdBase(BaseType::Int),
                gi,
            ))
            .coerce(SpaceCoercion::proj(
                gb,
                q,
                Intermediate::Ground(GroundCoercion::IdBase(BaseType::Bool)),
            ));
        assert!(!term_safe_for(&m, q));
        assert!(term_safe_for(&m, r));
        let ty = type_of(&m).unwrap();
        let mut cur = m;
        let mut ctx = crate::arena::MergeCtx::new();
        loop {
            match eval::step_in(&mut ctx, &cur, &ty) {
                eval::Step::Next(n) => {
                    assert!(term_safe_for(&n, r), "safety preserved at {n}");
                    cur = n;
                }
                eval::Step::Blame(l) => {
                    assert_eq!(l, q);
                    break;
                }
                eval::Step::Value => panic!("expected blame"),
            }
        }
    }
}

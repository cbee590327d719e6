//! Blame safety `M safeC q` for λC (Figure 3).
//!
//! The definition is pleasingly simple compared to λB's: a coercion is
//! safe for `q` iff it does not mention `q`, and a term is safe for
//! `q` iff all its coercions are (and it contains no literal
//! `blame q`). §3.1 of the paper uses this simplicity to *justify* the
//! subtle subtyping-based definition for λB (Lemma 9).

use bc_syntax::Label;

use crate::term::Term;

/// Whether `M safeC q`: no coercion in `M` mentions `q` and no literal
/// `blame q` occurs in `M`.
pub fn term_safe_for(term: &Term, q: Label) -> bool {
    term.safe_for(q, &|c| c.safe_for(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coercion::Coercion;
    use crate::eval::{run, Outcome};
    use crate::typing::type_of;
    use bc_syntax::{BaseType, Ground, Label, Type};

    #[test]
    fn safety_is_preserved_and_predicts_blame() {
        // Progress + preservation for safety on a failing program.
        let gi = Ground::Base(BaseType::Int);
        let gb = Ground::Base(BaseType::Bool);
        let q = Label::new(1);
        let t = Term::int(7)
            .coerce(Coercion::inj(gi))
            .coerce(Coercion::proj(gb, q));
        assert!(!term_safe_for(&t, q));
        let r = Label::new(2);
        assert!(term_safe_for(&t, r));
        let ty = type_of(&t).unwrap();
        // Step and re-check safety for r at each step.
        let mut cur = t;
        loop {
            match crate::eval::step(&cur, &ty) {
                crate::eval::Step::Next(n) => {
                    assert!(term_safe_for(&n, r), "safety preserved at {n}");
                    cur = n;
                }
                crate::eval::Step::Blame(l) => {
                    assert_eq!(l, q);
                    break;
                }
                crate::eval::Step::Value => panic!("expected blame"),
            }
        }
    }

    #[test]
    fn safe_terms_do_not_blame_that_label() {
        let gi = Ground::Base(BaseType::Int);
        let p = Label::new(0);
        let t = Term::int(7)
            .coerce(Coercion::inj(gi))
            .coerce(Coercion::proj(gi, p));
        // The coercion mentions p, so the term is unsafe for p —
        // but it happens to succeed anyway (safety is conservative).
        assert!(!term_safe_for(&t, p));
        match run(&t, 100).unwrap().outcome {
            Outcome::Value(v) => assert_eq!(v, Term::int(7)),
            other => panic!("unexpected {other:?}"),
        }
        // And it is safe for every other label, so no other label can
        // be blamed.
        assert!(term_safe_for(&t, Label::new(9)));
        let _ = Type::DYN;
    }
}

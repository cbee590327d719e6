//! Blame safety `M safeB q` (Figure 2).
//!
//! A term is safe for a blame label `q` when evaluating it can never
//! allocate blame to `q`. Safety of a term is defined cast-wise: every
//! cast `A ⇒p B` in the term must be safe for `q`, which holds when
//! `A <:+ B` (for `q = p`), when `A <:- B` (for `q = p̄`), or when `q`
//! is unrelated to `p` altogether. A literal `blame p` subterm is safe
//! for every `q ≠ p`.
//!
//! Proposition 5 (preservation + progress for safety) is validated by
//! the property tests in `bc-translate` over random well-typed terms;
//! unit tests here cover the canonical cases.

use bc_syntax::subtype::cast_safe_for;
use bc_syntax::Label;

use crate::term::Term;

/// Whether the cast `A ⇒p B` is safe for `q` — re-exported from
/// [`bc_syntax::subtype::cast_safe_for`] under the λB-centric name.
pub use bc_syntax::subtype::cast_safe_for as cast_safe;

/// Whether `M safeB q`: every cast in `M` is safe for `q` and no
/// `blame q` occurs literally in `M`.
pub fn term_safe_for(term: &Term, q: Label) -> bool {
    term.safe_for(q, &|c| cast_safe_for(&c.source, c.label, &c.target, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{run, Outcome};
    use bc_syntax::{Label, Type};

    #[test]
    fn upcast_is_safe_for_its_own_label() {
        // Int ⇒p ? is an injection: A <:+ ?, so safe for p.
        let p = Label::new(0);
        let m = crate::term::Term::int(1).cast(Type::INT, p, Type::DYN);
        assert!(term_safe_for(&m, p));
        assert!(term_safe_for(&m, p.complement()));
    }

    #[test]
    fn projection_is_safe_for_its_complement_only() {
        let p = Label::new(0);
        let q = Label::new(1);
        let m = crate::term::Term::int(1)
            .cast(Type::INT, p, Type::DYN)
            .cast(Type::DYN, q, Type::BOOL);
        // ? <:- Bool, so the projection is safe for q̄ but not q.
        assert!(!term_safe_for(&m, q));
        assert!(term_safe_for(&m, q.complement()));
        assert!(term_safe_for(&m, p));
    }

    #[test]
    fn safety_predicts_the_blamed_label() {
        // "Well-typed programs can't be blamed": whatever label gets
        // blamed, the term must not have been safe for it.
        let p = Label::new(0);
        let q = Label::new(1);
        let m = crate::term::Term::int(1)
            .cast(Type::INT, p, Type::DYN)
            .cast(Type::DYN, q, Type::BOOL);
        match run(&m, 100).unwrap().outcome {
            Outcome::Blame(l) => assert!(!term_safe_for(&m, l)),
            other => panic!("expected blame, got {other:?}"),
        }
    }

    #[test]
    fn literal_blame_is_unsafe_for_its_label() {
        let p = Label::new(3);
        let m = Term::Blame(p, Type::INT);
        assert!(!term_safe_for(&m, p));
        assert!(term_safe_for(&m, p.complement()));
    }
}

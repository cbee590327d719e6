//! Terms of the blame calculus (Figure 1): the shared grammar
//! [`bc_syntax::term::Term`] with λB's cast `M : A ⇒p B` in the cast
//! position.
//!
//! A λB cast is a [`Cast`] annotation `A ⇒p B`, built with
//! `Term::cast(A, p, B)` and matched as `Term::Coerce(m, cast)`. A
//! cast of a value is a value between function types and from a ground
//! type to `?`; casts add no nodes to [`Term::size`] (their types are
//! not counted), and the term prints a cast as `(M : A =p=> B)`.

pub use bc_syntax::term::Cast;

/// Terms `L, M, N` of λB.
pub type Term = bc_syntax::term::Term<Cast>;

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{Label, Type};

    #[test]
    fn value_recognition() {
        let p = Label::new(0);
        assert!(Term::int(1).is_value());
        assert!(Term::lam("x", Type::INT, Term::var("x")).is_value());
        // Injection from ground type is a value.
        assert!(Term::int(1).cast(Type::INT, p, Type::DYN).is_value());
        // Function-to-function cast of a value is a value.
        let id = Term::lam("x", Type::INT, Term::var("x"));
        let ii = Type::fun(Type::INT, Type::INT);
        assert!(id
            .clone()
            .cast(ii.clone(), p, Type::fun(Type::DYN, Type::INT))
            .is_value());
        // A base-to-base cast is a redex, not a value.
        assert!(!Term::int(1).cast(Type::INT, p, Type::INT).is_value());
        // A cast from a non-ground type to ? is a redex (it factors).
        assert!(!id.cast(ii, p, Type::DYN).is_value());
        // Applications are never values.
        assert!(!Term::var("f").app(Term::int(1)).is_value());
    }

    #[test]
    fn size_and_cast_count() {
        let p = Label::new(0);
        let m = Term::int(1)
            .cast(Type::INT, p, Type::DYN)
            .cast(Type::DYN, p, Type::INT);
        assert_eq!(m.size(), 3);
        assert_eq!(m.cast_count(), 2);
        assert_eq!(m.labels(), vec![p, p]);
    }

    #[test]
    fn display() {
        let p = Label::new(7);
        let m = Term::int(1).cast(Type::INT, p, Type::DYN);
        assert_eq!(m.to_string(), "(1 : Int =p7=> ?)");
    }
}

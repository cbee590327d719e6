//! The compiled (id-annotated) form of λB terms.
//!
//! [`BTerm`] is the shared grammar [`bc_syntax::term::Term`] at
//! `Copy` [`TypeId`] handles into a [`TypeArena`] instead of `Rc<Type>`
//! trees: a cast is `Coerce(M, Cast<TypeId>)` with interned endpoints,
//! a lambda annotation is a single id. The spine is `Rc`, so cloning a
//! term is a reference-count increment.
//!
//! # The foreign-id contract
//!
//! A `BTerm` is only meaningful *relative to the arena its ids were
//! interned in*: ids are plain integers, and resolving one against
//! another arena is a logic error the type checker cannot detect. The
//! session layer keeps every compiled term inside the session that
//! interned it, and the IR itself stays unchecked and cheap.
//!
//! [`compile`] and [`decompile`] convert between the tree and compiled
//! forms (`decompile ∘ compile = id`, pinned by property test); each is
//! one [`Term::map`].

use bc_syntax::{TypeArena, TypeId};

use crate::term::{Cast, Term};

/// Compiled λB terms: [`Term`] with every type annotation
/// replaced by an interned [`TypeId`].
///
/// See the [module docs](self) for the id-offset contract.
pub type BTerm = bc_syntax::term::Term<Cast<TypeId>, TypeId>;

/// Lowers a tree term into the compiled form, interning every type
/// annotation into `types` (idempotent in a warm arena). A binder's
/// types are interned before its body, a cast's before its subterm.
pub fn compile(term: &Term, types: &mut TypeArena) -> BTerm {
    term.map(types, &|types, ty| types.intern(ty), &|types, c| {
        Cast::new(types.intern(&c.source), c.label, types.intern(&c.target))
    })
}

/// Rebuilds the tree form by resolving every id through the arena.
///
/// Inverse of [`compile`]: `decompile(compile(t)) = t` for all `t`
/// (the ids must belong to `types` per the module contract).
pub fn decompile(term: &BTerm, types: &TypeArena) -> Term {
    term.map(
        &mut &*types,
        &|types, ty| types.resolve(*ty),
        &|types, c| Cast::new(types.resolve(c.source), c.label, types.resolve(c.target)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_syntax::{Label, Type};

    fn samples() -> Vec<Term> {
        let p = Label::new(0);
        let ii = Type::fun(Type::INT, Type::INT);
        vec![
            Term::int(1)
                .cast(Type::INT, p, Type::DYN)
                .cast(Type::DYN, p.complement(), Type::BOOL),
            Term::lam("x", Type::INT, Term::var("x")).app(Term::int(2)),
            Term::fix(
                "f",
                "x",
                Type::INT,
                Type::INT,
                Term::ite(
                    Term::op2(bc_syntax::Op::Eq, Term::var("x"), Term::int(0)),
                    Term::int(1),
                    Term::var("f").app(Term::op2(bc_syntax::Op::Sub, Term::var("x"), Term::int(1))),
                ),
            ),
            Term::let_(
                "g",
                Term::lam("x", Type::DYN, Term::var("x")).cast(
                    Type::fun(Type::DYN, Type::DYN),
                    p,
                    ii,
                ),
                Term::var("g").app(Term::int(3)),
            ),
            Term::Blame(p, Type::BOOL),
        ]
    }

    #[test]
    fn compile_round_trips() {
        let mut types = TypeArena::new();
        for t in samples() {
            let compiled = compile(&t, &mut types);
            assert_eq!(decompile(&compiled, &types), t, "{t}");
            assert_eq!(compiled.cast_count(), t.cast_count());
        }
    }

    #[test]
    fn recompiling_interns_nothing_new() {
        let mut types = TypeArena::new();
        for t in samples() {
            compile(&t, &mut types);
        }
        let warm = types.len();
        for t in samples() {
            compile(&t, &mut types);
        }
        assert_eq!(types.len(), warm);
    }
}

//! Canned λB programs used throughout the test suite, the examples,
//! and the benchmarks — most importantly the mutually recursive
//! even/odd workload from the introduction of the paper (originally
//! Herman et al. 2007), whose tail calls cross a typed/untyped
//! boundary and leak space in λB but not in λS.

use bc_syntax::label::LabelSupply;
use bc_syntax::untyped::UntypedTerm;
use bc_syntax::{Op, Type};

use crate::embed::embed;
use crate::term::Term;

/// `even n` where `even : Int → Bool` is *typed* and `odd` is
/// *untyped*, mutually recursive with all recursive calls in tail
/// position — the paper's motivating space-leak workload.
///
/// Mutual recursion is tied through the dynamic type: `even` is a
/// typed `fix` that passes itself (injected into `?`) to the untyped
/// `odd` on every call, and `odd` calls back through a projection.
/// Every iteration therefore crosses the typed/untyped boundary once
/// in each direction.
pub fn even_odd_mixed(n: i64) -> Term {
    let mut labels = LabelSupply::new();

    // odd = λeven'. λn. if n = 0 then false else even' (n - 1)
    // (entirely untyped; `even'` arrives as a dynamic value).
    let odd_untyped = UntypedTerm::lam(
        "even'",
        UntypedTerm::lam(
            "m",
            UntypedTerm::ite(
                UntypedTerm::op2(Op::Eq, UntypedTerm::var("m"), UntypedTerm::int(0)),
                UntypedTerm::bool(false),
                UntypedTerm::app(
                    UntypedTerm::var("even'"),
                    UntypedTerm::op2(Op::Sub, UntypedTerm::var("m"), UntypedTerm::int(1)),
                ),
            ),
        ),
    );
    let odd_dyn = embed(&odd_untyped, &mut labels);

    let ib = Type::fun(Type::INT, Type::BOOL);

    // even = fix even (k:Int):Bool.
    //          if k = 0 then true
    //          else (odd (even : Int→Bool ⇒ ?) (k-1 : Int ⇒ ?)) : ? ⇒ Bool
    let even_inj = Term::var("even").cast(ib.clone(), labels.fresh(), Type::DYN);
    let call_odd = Term::var("odd")
        .cast(Type::DYN, labels.fresh(), Type::dyn_fun())
        .app(even_inj)
        .cast(Type::DYN, labels.fresh(), Type::dyn_fun())
        .app(Term::op2(Op::Sub, Term::var("k"), Term::int(1)).cast(
            Type::INT,
            labels.fresh(),
            Type::DYN,
        ))
        .cast(Type::DYN, labels.fresh(), Type::BOOL);
    let even = Term::fix(
        "even",
        "k",
        Type::INT,
        Type::BOOL,
        Term::ite(
            Term::op2(Op::Eq, Term::var("k"), Term::int(0)),
            Term::bool(true),
            call_odd,
        ),
    );

    Term::let_("odd", odd_dyn, even.app(Term::int(n)))
}

/// A single typed recursive function whose every iteration round-trips
/// through the dynamic type in tail position:
///
/// ```text
/// fix f (n:Int):Bool.
///   if n = 0 then true
///   else ((f : Int→Bool ⇒ ? ⇒ ?→?) (n-1 : Int ⇒ ?)) : ? ⇒ Bool
/// ```
///
/// This is the smallest program exhibiting the λB space leak: the
/// pending `Bool ⇒ ?` / `? ⇒ Bool` result casts pile up in the
/// evaluation context, one pair per iteration.
pub fn boundary_loop(n: i64) -> Term {
    let mut labels = LabelSupply::new();
    let ib = Type::fun(Type::INT, Type::BOOL);
    let call = Term::var("f")
        .cast(ib.clone(), labels.fresh(), Type::DYN)
        .cast(Type::DYN, labels.fresh(), Type::dyn_fun())
        .app(Term::op2(Op::Sub, Term::var("n"), Term::int(1)).cast(
            Type::INT,
            labels.fresh(),
            Type::DYN,
        ))
        .cast(Type::DYN, labels.fresh(), Type::BOOL);
    Term::fix(
        "f",
        "n",
        Type::INT,
        Type::BOOL,
        Term::ite(
            Term::op2(Op::Eq, Term::var("n"), Term::int(0)),
            Term::bool(true),
            call,
        ),
    )
    .app(Term::int(n))
}

/// Fully typed even/odd (parity by subtracting two), the cast-free
/// baseline: runs in constant space in every calculus.
pub fn even_typed(n: i64) -> Term {
    Term::fix(
        "f",
        "n",
        Type::INT,
        Type::BOOL,
        Term::ite(
            Term::op2(Op::Eq, Term::var("n"), Term::int(0)),
            Term::bool(true),
            Term::ite(
                Term::op2(Op::Eq, Term::var("n"), Term::int(1)),
                Term::bool(false),
                Term::var("f").app(Term::op2(Op::Sub, Term::var("n"), Term::int(2))),
            ),
        ),
    )
    .app(Term::int(n))
}

/// Fully untyped even/odd via the embedding `⌈·⌉`: every operation
/// casts, but there is no typed/untyped *boundary*.
pub fn even_untyped(n: i64) -> Term {
    let body = UntypedTerm::ite(
        UntypedTerm::op2(Op::Eq, UntypedTerm::var("n"), UntypedTerm::int(0)),
        UntypedTerm::bool(true),
        UntypedTerm::ite(
            UntypedTerm::op2(Op::Eq, UntypedTerm::var("n"), UntypedTerm::int(1)),
            UntypedTerm::bool(false),
            UntypedTerm::app(
                UntypedTerm::var("f"),
                UntypedTerm::op2(Op::Sub, UntypedTerm::var("n"), UntypedTerm::int(2)),
            ),
        ),
    );
    let t = UntypedTerm::app(UntypedTerm::fix("f", "n", body), UntypedTerm::int(n));
    embed(&t, &mut LabelSupply::new())
}

/// A function value wrapped in `2·depth` alternating function-type
/// casts (`Int→Int ⇒ ?→? ⇒ Int→Int ⇒ …`), then applied to `0`. Used
/// to benchmark wrapper-chain overhead.
pub fn wrapped_identity(depth: usize) -> Term {
    let mut labels = LabelSupply::new();
    let ii = Type::fun(Type::INT, Type::INT);
    let dd = Type::dyn_fun();
    let mut t = Term::lam("x", Type::INT, Term::var("x"));
    for _ in 0..depth {
        t = t.cast(ii.clone(), labels.fresh(), dd.clone()).cast(
            dd.clone(),
            labels.fresh(),
            ii.clone(),
        );
    }
    t.app(Term::int(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{run, Outcome};
    use crate::typing::type_of;

    #[test]
    fn all_programs_are_well_typed() {
        for t in [
            even_odd_mixed(4),
            boundary_loop(4),
            even_typed(4),
            even_untyped(4),
            wrapped_identity(3),
        ] {
            type_of(&t).unwrap_or_else(|e| panic!("ill-typed program: {e}\n{t}"));
        }
    }

    #[test]
    fn parity_is_correct() {
        for n in 0..6 {
            let expected = Term::bool(n % 2 == 0);
            // boundary_loop is a single self-recursive loop: it
            // terminates with `true` for every n; its purpose is the
            // boundary crossing, not the parity.
            assert_eq!(
                run(&boundary_loop(n), 100_000).unwrap().outcome,
                Outcome::Value(Term::bool(true)),
                "boundary_loop({n})"
            );
            assert_eq!(
                run(&even_odd_mixed(n), 100_000).unwrap().outcome,
                Outcome::Value(expected.clone()),
                "even_odd_mixed({n})"
            );
            assert_eq!(
                run(&even_typed(n), 100_000).unwrap().outcome,
                Outcome::Value(expected),
                "even_typed({n})"
            );
        }
        // The untyped variant yields an *injected* boolean.
        match run(&even_untyped(4), 100_000).unwrap().outcome {
            Outcome::Value(Term::Coerce(inner, _)) => assert_eq!(*inner, Term::bool(true)),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn boundary_loop_leaks_space_in_lambda_b() {
        // The λB space leak: peak cast count grows linearly with n.
        let small = run(&boundary_loop(8), 100_000).unwrap();
        let large = run(&boundary_loop(32), 100_000).unwrap();
        assert!(
            large.peak_casts >= small.peak_casts + 24,
            "expected linear cast growth, got {} -> {}",
            small.peak_casts,
            large.peak_casts
        );
    }

    #[test]
    fn typed_baseline_runs_in_constant_space() {
        let small = run(&even_typed(8), 100_000).unwrap();
        let large = run(&even_typed(64), 100_000).unwrap();
        assert_eq!(small.peak_casts, 0);
        assert_eq!(large.peak_casts, 0);
        assert_eq!(small.peak_size, large.peak_size);
    }

    #[test]
    fn wrapped_identity_returns_its_argument() {
        assert_eq!(
            run(&wrapped_identity(5), 100_000).unwrap().outcome,
            Outcome::Value(Term::int(0))
        );
    }
}

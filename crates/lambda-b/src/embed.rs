//! The embedding `⌈M⌉` of dynamically-typed λ-calculus into λB
//! (Figure 1).
//!
//! The embedding introduces a fresh blame label for each cast it
//! inserts:
//!
//! ```text
//! ⌈k⌉      = k : ι ⇒p ?
//! ⌈op(M~)⌉ = op(⌈M~⌉ : ? ⇒p~ ι~) : ι ⇒p ?
//! ⌈x⌉      = x
//! ⌈λx. N⌉  = (λx:?. ⌈N⌉) : ?→? ⇒p ?
//! ⌈L M⌉    = (⌈L⌉ : ? ⇒p ?→?) ⌈M⌉
//! ```
//!
//! plus the evident clauses for the standard `if`/`let`/`fix`
//! extensions. Every embedded term has type `?` in an environment
//! binding all its free variables at type `?`.

use std::collections::HashSet;

use bc_syntax::label::LabelSupply;
use bc_syntax::untyped::UntypedTerm;
use bc_syntax::{Name, Type};

use crate::term::Term;

/// Embeds a dynamically-typed term into λB, drawing fresh blame
/// labels from `labels`. The result has type `?` (in an environment
/// where every free variable has type `?`).
///
/// ```
/// use bc_lambda_b::embed::embed;
/// use bc_lambda_b::eval::{run, Outcome};
/// use bc_syntax::label::LabelSupply;
/// use bc_syntax::untyped::UntypedTerm;
/// use bc_syntax::Op;
///
/// // ⌈(λx. x + 1) 41⌉ evaluates to an injected 42.
/// let m = UntypedTerm::app(
///     UntypedTerm::lam("x", UntypedTerm::op2(Op::Add, UntypedTerm::var("x"), UntypedTerm::int(1))),
///     UntypedTerm::int(41),
/// );
/// let embedded = embed(&m, &mut LabelSupply::new());
/// let out = run(&embedded, 1_000).expect("well typed").outcome;
/// match out {
///     Outcome::Value(v) => assert_eq!(v.to_string(), "(42 : Int =p3=> ?)"),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub fn embed(term: &UntypedTerm, labels: &mut LabelSupply) -> Term {
    // `fix_vars` tracks variables bound by an embedded `fix`, which
    // have type `?→?` rather than `?` and therefore need an injection
    // at each use site.
    embed_env(term, labels, &mut HashSet::new())
}

fn embed_env(term: &UntypedTerm, labels: &mut LabelSupply, fix_vars: &mut HashSet<Name>) -> Term {
    match term {
        UntypedTerm::Const(k) => {
            Term::Const(*k).cast(k.base_type().ty(), labels.fresh(), Type::DYN)
        }
        UntypedTerm::Op(op, args) => {
            let (params, result) = op.signature();
            let cast_args: Vec<Term> = params
                .iter()
                .zip(args)
                .map(|(param, arg)| {
                    embed_env(arg, labels, fix_vars).cast(Type::DYN, labels.fresh(), param.ty())
                })
                .collect();
            Term::Op(*op, cast_args).cast(result.ty(), labels.fresh(), Type::DYN)
        }
        UntypedTerm::Var(x) => {
            if fix_vars.contains(x) {
                // A fix-bound variable has type ?→? in λB; inject it.
                Term::Var(x.clone()).cast(Type::dyn_fun(), labels.fresh(), Type::DYN)
            } else {
                Term::Var(x.clone())
            }
        }
        UntypedTerm::Lam(x, body) => {
            let shadowed = fix_vars.remove(x);
            let b = embed_env(body, labels, fix_vars);
            if shadowed {
                fix_vars.insert(x.clone());
            }
            Term::Lam(x.clone(), Type::DYN, b.into()).cast(
                Type::dyn_fun(),
                labels.fresh(),
                Type::DYN,
            )
        }
        UntypedTerm::App(l, m) => {
            let lt =
                embed_env(l, labels, fix_vars).cast(Type::DYN, labels.fresh(), Type::dyn_fun());
            let mt = embed_env(m, labels, fix_vars);
            lt.app(mt)
        }
        UntypedTerm::If(c, t, e) => {
            let ct = embed_env(c, labels, fix_vars).cast(Type::DYN, labels.fresh(), Type::BOOL);
            Term::If(
                ct.into(),
                embed_env(t, labels, fix_vars).into(),
                embed_env(e, labels, fix_vars).into(),
            )
        }
        UntypedTerm::Let(x, m, n) => {
            let mt = embed_env(m, labels, fix_vars);
            let shadowed = fix_vars.remove(x);
            let nt = embed_env(n, labels, fix_vars);
            if shadowed {
                fix_vars.insert(x.clone());
            }
            Term::Let(x.clone(), mt.into(), nt.into())
        }
        UntypedTerm::Fix(f, x, body) => {
            // ⌈fix f x. N⌉ = (fix f (x:?):?. ⌈N⌉′) : ?→? ⇒p ?
            // where ⌈·⌉′ injects each use of `f` from ?→? to ?.
            let f_was_fix = !fix_vars.insert(f.clone());
            let x_shadowed = fix_vars.remove(x);
            let b = embed_env(body, labels, fix_vars);
            if !f_was_fix {
                fix_vars.remove(f);
            }
            if x_shadowed {
                fix_vars.insert(x.clone());
            }
            Term::Fix(f.clone(), x.clone(), Type::DYN, Type::DYN, b.into()).cast(
                Type::dyn_fun(),
                labels.fresh(),
                Type::DYN,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{run, Outcome, RunError};
    use crate::typing::type_of;
    use bc_syntax::{Constant, Op};

    fn eval_embedded(t: &UntypedTerm, fuel: u64) -> Outcome {
        let m = embed(t, &mut LabelSupply::new());
        run(&m, fuel).expect("embedded term is well typed").outcome
    }

    /// Unwraps a `V : G ⇒p ?` value to its payload constant.
    fn expect_injected_const(outcome: Outcome) -> Constant {
        match outcome {
            Outcome::Value(Term::Coerce(inner, _)) => match &*inner {
                Term::Const(k) => *k,
                other => panic!("expected constant under injection, got {other}"),
            },
            other => panic!("expected injected value, got {other:?}"),
        }
    }

    #[test]
    fn embedded_terms_have_type_dyn() {
        let samples = [
            UntypedTerm::int(1),
            UntypedTerm::lam("x", UntypedTerm::var("x")),
            UntypedTerm::op2(Op::Add, UntypedTerm::int(1), UntypedTerm::int(2)),
            UntypedTerm::ite(
                UntypedTerm::bool(true),
                UntypedTerm::int(1),
                UntypedTerm::int(2),
            ),
            UntypedTerm::fix(
                "f",
                "x",
                UntypedTerm::app(UntypedTerm::var("f"), UntypedTerm::var("x")),
            ),
        ];
        for s in &samples {
            let m = embed(s, &mut LabelSupply::new());
            let ty = type_of(&m).unwrap_or_else(|e| panic!("embedding of {s} ill-typed: {e}"));
            assert_eq!(ty, Type::DYN, "embedding of {s}");
        }
    }

    #[test]
    fn arithmetic_works_dynamically() {
        let t = UntypedTerm::op2(Op::Mul, UntypedTerm::int(6), UntypedTerm::int(7));
        assert_eq!(
            expect_injected_const(eval_embedded(&t, 1_000)),
            Constant::Int(42)
        );
    }

    #[test]
    fn dynamic_type_error_blames_a_projection() {
        // 1 + true: the embedding casts `true : Bool ⇒ ?` and then
        // projects `? ⇒ Int`, which blames the projection's label.
        let t = UntypedTerm::op2(Op::Add, UntypedTerm::int(1), UntypedTerm::bool(true));
        match eval_embedded(&t, 1_000) {
            Outcome::Blame(_) => {}
            other => panic!("expected blame, got {other:?}"),
        }
    }

    #[test]
    fn applying_a_non_function_blames() {
        let t = UntypedTerm::app(UntypedTerm::int(1), UntypedTerm::int(2));
        match eval_embedded(&t, 1_000) {
            Outcome::Blame(_) => {}
            other => panic!("expected blame, got {other:?}"),
        }
    }

    #[test]
    fn omega_diverges() {
        let half = UntypedTerm::lam(
            "x",
            UntypedTerm::app(UntypedTerm::var("x"), UntypedTerm::var("x")),
        );
        let omega = UntypedTerm::app(half.clone(), half);
        let m = embed(&omega, &mut LabelSupply::new());
        assert!(matches!(
            run(&m, 500),
            Err(RunError::FuelExhausted { steps: 500, .. })
        ));
    }

    #[test]
    fn untyped_recursion_via_fix() {
        // fix sum n. if n = 0 then 0 else n + sum (n - 1), applied to 5.
        let body = UntypedTerm::ite(
            UntypedTerm::op2(Op::Eq, UntypedTerm::var("n"), UntypedTerm::int(0)),
            UntypedTerm::int(0),
            UntypedTerm::op2(
                Op::Add,
                UntypedTerm::var("n"),
                UntypedTerm::app(
                    UntypedTerm::var("sum"),
                    UntypedTerm::op2(Op::Sub, UntypedTerm::var("n"), UntypedTerm::int(1)),
                ),
            ),
        );
        let t = UntypedTerm::app(UntypedTerm::fix("sum", "n", body), UntypedTerm::int(5));
        assert_eq!(
            expect_injected_const(eval_embedded(&t, 10_000)),
            Constant::Int(15)
        );
    }
}

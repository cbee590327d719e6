//! A golden corpus for the GTLC front end: programs that must
//! compile (with the expected type and outcome), programs that must be
//! rejected statically, and syntax that must fail to parse with a
//! sensible message.

use bc_gtlc::compile;
use bc_lambda_b::eval::{run, Outcome};
use bc_lambda_b::Term;
use bc_syntax::Type;

fn eval_ok(src: &str) -> (Type, Outcome) {
    let p = compile(src).unwrap_or_else(|e| panic!("{src:?} failed:\n{}", e.render(src)));
    let out = run(&p.term, 2_000_000).expect("well typed").outcome;
    (p.ty, out)
}

#[track_caller]
fn expect_int(src: &str, expected: i64) {
    let (_, out) = eval_ok(src);
    match out {
        Outcome::Value(Term::Const(k)) => assert_eq!(k.as_int(), Some(expected), "{src}"),
        // Dynamic results come back injected.
        Outcome::Value(Term::Coerce(inner, _)) => match &*inner {
            Term::Const(k) => assert_eq!(k.as_int(), Some(expected), "{src}"),
            other => panic!("{src}: unexpected payload {other}"),
        },
        other => panic!("{src}: unexpected outcome {other:?}"),
    }
}

#[track_caller]
fn expect_bool(src: &str, expected: bool) {
    let (_, out) = eval_ok(src);
    match out {
        Outcome::Value(Term::Const(k)) => assert_eq!(k.as_bool(), Some(expected), "{src}"),
        Outcome::Value(Term::Coerce(inner, _)) => match &*inner {
            Term::Const(k) => assert_eq!(k.as_bool(), Some(expected), "{src}"),
            other => panic!("{src}: unexpected payload {other}"),
        },
        other => panic!("{src}: unexpected outcome {other:?}"),
    }
}

#[track_caller]
fn expect_blame(src: &str) {
    let (_, out) = eval_ok(src);
    assert!(matches!(out, Outcome::Blame(_)), "{src}: got {out:?}");
}

#[test]
fn arithmetic_and_precedence() {
    expect_int("1 + 2 * 3", 7);
    expect_int("(1 + 2) * 3", 9);
    expect_int("10 - 3 - 2", 5); // left associative
    expect_int("7 quot 2", 3);
    expect_int("7 rem 2", 1);
    expect_int("- 5 + 8", 3);
    expect_bool("1 < 2", true);
    expect_bool("2 <= 2", true);
    expect_bool("1 = 2", false);
    expect_bool("not (1 = 2)", true);
    expect_bool("true and not false", true);
    expect_bool("false or true", true);
}

#[test]
fn functions_and_closures() {
    expect_int("(fun (x : Int) => x + 1) 41", 42);
    expect_int(
        "let add = fun (a : Int) => fun (b : Int) => a + b in add 40 2",
        42,
    );
    expect_int(
        "let compose = fun (f : Int -> Int) => fun (g : Int -> Int) => fun (x : Int) => f (g x) in \
         compose (fun (a : Int) => a * 2) (fun (b : Int) => b + 1) 20",
        42,
    );
}

#[test]
fn recursion() {
    expect_int(
        "letrec fact (n : Int) : Int = if n <= 1 then 1 else n * fact (n - 1) in fact 10",
        3_628_800,
    );
    expect_int(
        "letrec fib (n : Int) : Int = \
           if n < 2 then n else fib (n - 1) + fib (n - 2) \
         in fib 15",
        610,
    );
    expect_bool(
        "letrec even (n : Int) : Bool = \
           if n = 0 then true else if n = 1 then false else even (n - 2) \
         in even 1000",
        true,
    );
}

#[test]
fn gradual_boundaries() {
    // Fully dynamic code works.
    expect_int("let f = fun x => x + 1 in (f 41 : Int)", 42);
    // Dynamic values flow through typed code via consistency.
    expect_int("let x = (41 : ?) in (x : Int) + 1", 42);
    // Higher-order boundary crossing.
    expect_int(
        "let apply = fun (f : ?) => (f : Int -> Int) 20 in \
         apply ((fun x => x + 22) : ?)",
        42,
    );
    // Deep wrapping preserves behaviour.
    expect_int(
        "let id = fun (x : Int) => x in \
         let w = fun (f : ?) => (f : Int -> Int) in \
         w (w (w (id : ?))) 42",
        42,
    );
}

#[test]
fn run_time_blame() {
    expect_blame("let f = fun x => x + 1 in f true");
    expect_blame("((true : ?) : Int)");
    expect_blame("let f = ((fun x => true) : ?) in (f : Int -> Int) 1 + 1");
    // Blame through a higher-order wrapper: argument side.
    expect_blame(
        "let g = fun (f : ? -> ?) => f 1 in \
         (g ((fun (b : Bool) => b) : ? -> ?) : Bool)",
    );
}

#[test]
fn static_rejections() {
    for bad in [
        "1 + true",
        "true + 1",
        "if 1 then 2 else 3",
        "if true then 1 else false",
        "(fun (x : Int) => x) true",
        "(true : Int)",
        "x + 1",
        "1 2",
        "let f = fun (x : Int) => x in f (fun y => y)",
    ] {
        assert!(compile(bad).is_err(), "{bad:?} should be rejected");
    }
}

#[test]
fn parse_errors_have_useful_messages() {
    for (bad, needle) in [
        ("1 +", "expected an expression"),
        ("fun => 1", "expected a parameter"),
        ("let x 1 in x", "expected"),
        ("if true then 1", "expected `else`"),
        ("(1", "expected `)`"),
        ("fun (x : ) => x", "expected a type"),
        ("1 < 2 < 3", "expected end of input"),
    ] {
        let err = compile(bad).expect_err(bad);
        assert!(
            err.message.contains(needle),
            "{bad:?}: message {:?} lacks {needle:?}",
            err.message
        );
    }
}

#[test]
fn comments_and_whitespace() {
    expect_int(
        "-- leading comment\n\
         let x = 1 in -- trailing comment\n\
         x + 1  -- final",
        2,
    );
}

#[test]
fn types_are_reported() {
    let (ty, _) = eval_ok("fun (x : Int) => x");
    assert_eq!(ty, Type::fun(Type::INT, Type::INT));
    let (ty, _) = eval_ok("fun x => x");
    assert_eq!(ty, Type::fun(Type::DYN, Type::DYN));
    let (ty, _) = eval_ok("(1 : ?)");
    assert_eq!(ty, Type::DYN);
}

#[test]
fn shadowing() {
    expect_int("let x = 1 in let x = x + 1 in x * 10", 20);
    expect_int("(fun (x : Int) => (fun (x : Int) => x) (x + 1)) 1", 2);
}

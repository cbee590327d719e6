//! The programs the λS machine's tests run: the testkit's program
//! shapes and two of its seeded batches, the boundary loop at n = 100
//! and 1 000, the five `bc_lambda_b::programs`, and hand-written
//! closure programs (captures through `let`, closures returned from
//! `fix`, captures of captures, non-tail recursion).

// Each test binary that includes this module reads a part of it.
#![allow(dead_code)]

use bc_core::{CompileCtx, SCode};
use bc_lambda_b::programs;
use bc_testkit::sources;
use bc_translate::{term_b_to_s, term_b_to_s_compiled};

/// Hand-written programs, one `name: source` per line: the benchmark's
/// boundary loop, then closure programs written for the locals stack,
/// covering every way a value can reach a function body other than as
/// its argument.
const HANDWRITTEN: &str = "\
boundary-loop/100: letrec loop (n : Int) : Bool = if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) in loop 100
boundary-loop/1000: letrec loop (n : Int) : Bool = if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) in loop 1000
closures/let-captures: let a = 1 in let b = 2 in let f = fun (x : Int) => x + a + b in f 3
closures/captures-only-free: let big = 41 in let a = 1 in (fun x => x + a) 2
closures/closure-from-fix: letrec mk (n : Int) : Int -> Int = fun (x : Int) => x + n in (mk 5) 6
closures/escaping-closures: let mk = fun (n : Int) => fun (x : Int) => x + n in let add5 = mk 5 in let add7 = mk 7 in add5 1 + add7 2
closures/captures-of-captures: let a = 1 in let f = fun (x : Int) => fun (y : Int) => fun (z : Int) => x + y + z + a in f 10 20 30
closures/non-tail-recursion: letrec f (n : Int) : Int = if n = 0 then 0 else 1 + f (n - 1) in f 40
closures/fix-captures-let: let k = 2 in letrec loop (n : Int) : Int = if n = 0 then k else loop (n - k) in loop 40
closures/let-in-loop-body: letrec loop (n : Int) : Bool = let m = n - 1 in if n = 0 then true else loop m in loop 30
closures/loop-through-closure: let k = 1 in let step = fun (n : Int) => n - k in letrec loop (n : Int) : Bool = if n = 0 then true else loop (step n) in loop 30
closures/dynamic-capture: let k = 3 in let g = ((fun x => x + k) : ?) in (g : Int -> Int) 4
closures/dynamic-fix-capture: let k = 1 in letrec loop (n : Int) : Bool = if n = 0 then true else ((loop : ?) : Int -> Bool) (n - k) in loop 20
closures/shadowed-capture: let x = 1 in let f = fun (x : Int) => let y = x + 1 in fun (z : Int) => x + y + z in let x = 100 in f 2 3
closures/capture-blames: let d = (true : ?) in let f = fun (x : Int) => x + (d : Int) in f 1
closures/returns-closure: let a = 4 in let f = fun (x : Int) => fun (y : Int) => x + a in f 1";

/// One corpus program: its λB tree term and its compiled λS block.
pub struct Entry {
    pub name: String,
    pub term: bc_lambda_b::Term,
    pub code: SCode,
    pub ctx: CompileCtx,
}

/// Compiles a GTLC program into its λB tree term and, in a fresh
/// context, its λS block.
pub fn sourced(name: String, source: &str) -> Entry {
    let mut ctx = CompileCtx::new();
    let program = bc_gtlc::compile_compiled(source, &mut ctx.types)
        .unwrap_or_else(|d| panic!("{name} does not compile: {d:?}"));
    let code = term_b_to_s_compiled(&program.term, &mut ctx.types, &mut ctx.arena);
    let term = bc_gtlc::compile(source).expect("compiles").term;
    Entry {
        name,
        term,
        code,
        ctx,
    }
}

/// The corpus, in the order of the golden files' lines.
pub fn corpus() -> Vec<Entry> {
    let mut out = Vec::new();
    for (batch, srcs) in [
        ("shapes", sources::shapes()),
        ("mixed", sources::mixed(7, 96)),
        ("drifting", sources::drifting(9, 64, 16)),
    ] {
        for (i, s) in srcs.iter().enumerate() {
            out.push(sourced(format!("{batch}/{i}"), s));
        }
    }
    for (name, s) in HANDWRITTEN.lines().filter_map(|l| l.split_once(": ")) {
        out.push(sourced(name.to_string(), s));
    }
    for (name, t) in [
        ("boundary_loop", programs::boundary_loop(50)),
        ("even_odd_mixed", programs::even_odd_mixed(10)),
        ("even_typed", programs::even_typed(20)),
        ("even_untyped", programs::even_untyped(20)),
        ("wrapped_identity", programs::wrapped_identity(8)),
    ] {
        let mut ctx = CompileCtx::new();
        let code = ctx.compile(&term_b_to_s(&t));
        out.push(Entry {
            name: format!("programs/{name}"),
            term: t,
            code,
            ctx,
        });
    }
    out
}

//! Integration tests for the session-centric runtime: sharing one
//! `Session` across many programs must be observationally invisible
//! (same results as per-program fresh sessions), measurably cheaper
//! (a warm session interns near-zero new state for structurally
//! similar programs), and panic-free on the run path (typed
//! `RunError` on all six engines).

use bc_testkit::Gen;
use blame_coercion::gtlc::parser::MAX_DEPTH;
use blame_coercion::lambda_b::Term;
use blame_coercion::syntax::{Label, Op, Type};
use blame_coercion::translate::bisim::Observation;
use blame_coercion::{Engine, JobError, Program, RunError, Session, SessionPool};

const FUEL: u64 = 50_000;

/// The observation-or-error fingerprint used to compare runs across
/// sessions. Fuel exhaustion fingerprints by its step count (so the
/// truncation point must agree too); cache/arena *metrics* are
/// deliberately excluded — a warm shared session legitimately shows
/// different reuse counters than a fresh one.
fn fingerprint(
    session: &Session,
    program: &Program,
    engine: Engine,
) -> Result<Observation, String> {
    session
        .run_with_fuel(program, engine, FUEL)
        .map(|r| r.observation)
        .map_err(|e| match e {
            RunError::FuelExhausted { steps, .. } => format!("fuel exhausted at {steps}"),
            RunError::IllTyped(d) => format!("ill typed: {}", d.message),
        })
}

#[test]
fn shared_session_runs_agree_with_fresh_sessions() {
    // The correctness half of the tentpole: a batch of generated
    // programs run in one shared session produces observations
    // identical to running each program in its own fresh session —
    // arena sharing is an optimisation, never a semantic change.
    let shared = Session::new();
    let mut checked = 0usize;
    for seed in 0..64u64 {
        let mut g = Gen::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xB1A3E));
        let ty = g.ty(1);
        let term = g.term_b(&ty, 3);
        let in_shared = match shared.load_lambda_b(term.clone(), ty.clone()) {
            Ok(p) => p,
            Err(e) => panic!("generated term must be well typed: {e}"),
        };
        let fresh = Session::new();
        let in_fresh = fresh
            .load_lambda_b(term, ty)
            .expect("generated term is well typed");
        for engine in [Engine::LambdaS, Engine::MachineS, Engine::MachineB] {
            assert_eq!(
                fingerprint(&shared, &in_shared, engine),
                fingerprint(&fresh, &in_fresh, engine),
                "shared vs fresh session diverged on {engine} (seed {seed})"
            );
            checked += 1;
        }
    }
    assert!(checked >= 150, "property exercised only {checked} runs");
    // The shared session actually shared: across 64 generated
    // programs, repeated coercions are answered by the hash-consing
    // index — it must answer more probes than there are distinct
    // nodes.
    let stats = shared.stats();
    assert_eq!(stats.programs, 64);
    assert!(
        stats.coercions.node_hits > stats.coercions.nodes as u64,
        "sharing left no trace in the stats: {stats:?}"
    );
}

#[test]
fn second_similar_program_interns_near_zero_new_state() {
    // The performance half of the tentpole, end to end: compile one
    // boundary-heavy program into a session, then a structurally
    // similar one (different constants); the warm compile must add
    // zero coercion nodes and zero type nodes, where a fresh session
    // pays the full interning bill again.
    let source = |n: i64| {
        format!(
            "letrec loop (n : Int) : Bool = \
               if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
             in loop {n}"
        )
    };
    let session = Session::new();
    session.compile(&source(64)).expect("compiles");
    let warm = session.stats();
    assert!(warm.coercions.nodes > 0, "the loop interns coercions");

    session.compile(&source(96)).expect("compiles");
    let after = session.stats();
    assert_eq!(
        after.coercions.nodes, warm.coercions.nodes,
        "warm compile interned new coercions"
    );
    assert_eq!(
        after.type_nodes, warm.type_nodes,
        "warm compile interned new types"
    );

    // A fresh session re-pays what the warm session skipped.
    let cold = Session::new();
    cold.compile(&source(96)).expect("compiles");
    let cold_stats = cold.stats();
    assert_eq!(cold_stats.coercions.nodes, warm.coercions.nodes);
    assert!(
        cold_stats.coercions.node_misses > 0,
        "the cold session must intern from scratch"
    );
}

#[test]
fn warm_recompile_and_run_is_allocation_free_end_to_end() {
    // The allocation-free pipeline: in a warm
    // session, recompiling and re-running a structurally similar
    // program performs zero tree allocations end to end — zero type
    // interns, zero coercion interns (tree or node), every coercion
    // answered by the hash-consing index, and zero Rc term trees
    // built — all asserted by counters.
    let source = |n: i64| {
        format!(
            "letrec loop (n : Int) : Bool = \
               if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
             in loop {n}"
        )
    };
    let session = Session::builder().default_fuel(10_000_000).build();
    // Cold: the first compile+run pays the interning bill once.
    let p = session.compile(&source(17)).expect("compiles");
    session.run(&p, Engine::MachineS).expect("runs");
    session.run(&p, Engine::LambdaS).expect("runs");
    let warm = session.stats();
    assert!(warm.coercions.nodes > 0);
    assert_eq!(
        warm.tree_builds, 0,
        "even the cold compiled path must build no term tree"
    );
    assert_eq!(
        warm.coercions.tree_interns, 0,
        "the compiled pipeline must never intern a coercion tree"
    );

    // Warm: a structurally similar recompile+run adds nothing.
    let q = session.compile(&source(23)).expect("compiles");
    session.run(&q, Engine::MachineS).expect("runs");
    session.run(&q, Engine::LambdaS).expect("runs");
    let after = session.stats();
    assert_eq!(after.type_nodes, warm.type_nodes, "type interns");
    assert_eq!(after.coercions.nodes, warm.coercions.nodes, "coercions");
    assert_eq!(
        after.coercions.node_misses, warm.coercions.node_misses,
        "warm lowering must be answered entirely by the hash-consing index"
    );
    assert!(after.coercions.node_hits > warm.coercions.node_hits);
    assert_eq!(
        after.type_queries.misses, warm.type_queries.misses,
        "warm front end must compute no new relational verdicts"
    );
    assert_eq!(after.coercions.tree_interns, 0);
    assert_eq!(after.tree_builds, 0, "no Rc term tree was ever built");
    // The trees are still *available* — materialising one is a
    // deliberate, counted act, not a hidden cost of the hot path.
    let _ = session.lambda_b(&q);
    assert_eq!(session.stats().tree_builds, 1);
}

#[test]
fn no_engine_panics_on_fuel_exhaustion() {
    // A fuel-starved run returns
    // RunError::FuelExhausted with the real step count on all six
    // engines — no panic, no sentinel observation.
    let session = Session::new();
    let program = session
        .compile(
            "letrec loop (n : Int) : Bool = \
               if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
             in loop 1000",
        )
        .expect("compiles");
    for engine in Engine::ALL {
        for fuel in [0u64, 1, 13, 97] {
            match session.run_with_fuel(&program, engine, fuel) {
                Err(RunError::FuelExhausted { steps, .. }) => {
                    assert_eq!(
                        steps, fuel,
                        "{engine} at fuel {fuel} must report the steps it actually took"
                    );
                }
                other => panic!("{engine} at fuel {fuel}: expected FuelExhausted, got {other:?}"),
            }
        }
    }
    // A fuel-bounded *machine* run keeps its space metrics — the leak
    // stays measurable on a program that never finishes: λB piles up
    // cast frames where λS stays flat, observable at the cutoff.
    let leak = match session.run_with_fuel(&program, Engine::MachineB, 2_000) {
        Err(RunError::FuelExhausted {
            metrics: Some(m), ..
        }) => m.peak_cast_frames,
        other => panic!("expected machine FuelExhausted with metrics, got {other:?}"),
    };
    let flat = match session.run_with_fuel(&program, Engine::MachineS, 2_000) {
        Err(RunError::FuelExhausted {
            metrics: Some(m), ..
        }) => m.peak_cast_frames,
        other => panic!("expected machine FuelExhausted with metrics, got {other:?}"),
    };
    assert!(
        leak > 10 * flat.max(1),
        "λB must visibly leak at the cutoff ({leak} vs λS {flat})"
    );
    // And with enough fuel the very same program completes.
    let report = session
        .run_with_fuel(&program, Engine::MachineS, 10_000_000)
        .expect("completes");
    assert_eq!(report.observation.to_string(), "true");
}

#[test]
fn capped_session_still_answers_correctly_under_pressure() {
    // Tiny caches force evictions on both the compose cache and the
    // type-verdict tables; results must be unchanged (eviction is
    // recompute-safe by construction).
    let tight = Session::builder()
        .compose_cache_capacity(4)
        .type_memo_capacity(4)
        .default_fuel(10_000_000)
        .build();
    let roomy = Session::builder().default_fuel(10_000_000).build();
    let source = "letrec loop (n : Int) : Bool = \
                    if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
                  in loop 256";
    let p_tight = tight.compile(source).expect("compiles");
    let p_roomy = roomy.compile(source).expect("compiles");
    for engine in [Engine::LambdaS, Engine::MachineS] {
        assert_eq!(
            tight.run(&p_tight, engine).expect("runs").observation,
            roomy.run(&p_roomy, engine).expect("runs").observation,
            "{engine}"
        );
    }
    assert!(tight.stats().compose_pairs <= 4);
}

/// Programs exactly `depth` levels deep, as the parser counts them,
/// with the value each one computes: nested parentheses, an operator
/// chain, a nested arrow type in an ascription, and nested `let`s.
fn deep_programs(depth: usize) -> [(String, String); 4] {
    [
        (
            format!("{}1{}", "(".repeat(depth - 1), ")".repeat(depth - 1)),
            "1".to_string(),
        ),
        (format!("1{}", " + 1".repeat(depth - 1)), depth.to_string()),
        (
            format!("(fun x => x : {}?)", "? -> ".repeat(depth - 2)),
            "<function>".to_string(),
        ),
        (
            format!("{}x", "let x = 1 in ".repeat(depth - 1)),
            "1".to_string(),
        ),
    ]
}

#[test]
fn deep_input_is_bounded_by_a_typed_error() {
    // At the parser's depth bound every shape compiles and runs on all
    // six engines, directly and through a default pool (whose workers
    // have a spawned thread's default stack). One level deeper is a
    // compile diagnostic at the offending token, never a stack
    // overflow.
    let session = Session::new();
    let pool = SessionPool::builder().build().expect("builds");
    for (source, value) in deep_programs(MAX_DEPTH) {
        let program = session.compile(&source).expect("compiles at the bound");
        for engine in Engine::ALL {
            let report = session.run(&program, engine).expect("runs at the bound");
            assert_eq!(report.observation.to_string(), value, "{engine}");
            let out = pool.submit(source.as_str(), engine).wait();
            let out = out.unwrap_or_else(|e| panic!("{engine}: {e}"));
            assert_eq!(out.observation.to_string(), value, "{engine} in the pool");
        }
    }
    for (source, _) in deep_programs(MAX_DEPTH + 1) {
        let d = session.compile(&source).expect_err("too deep");
        assert!(d.message.contains("deeper than 128"), "{}", d.message);
        match pool.submit(source.as_str(), Engine::MachineS).wait() {
            Err(JobError::Compile(p)) => assert_eq!(p, d),
            other => panic!("expected a compile error, got {other:?}"),
        }
    }
    // The chain is refused at its 128th operator.
    let chain = &deep_programs(MAX_DEPTH + 1)[1].0;
    let d = session.compile(chain).expect_err("too deep");
    assert_eq!(&chain[d.span.start..d.span.end], "+");
    assert_eq!(d.span.start, 2 + 4 * (MAX_DEPTH - 1));
    // Far past the bound, as deep as the inputs that used to overflow.
    for source in [
        format!("{}1{}", "(".repeat(5_000), ")".repeat(5_000)),
        format!("1{}", " + 1".repeat(20_000)),
    ] {
        assert!(session.compile(&source).is_err());
    }
}

/// λB terms exactly `depth` levels deep, as `Session::load_lambda_b`
/// counts them, each with its type: a `+` chain, nested casts through
/// `?`, and a λ whose annotation is a nested arrow type.
fn deep_terms(depth: usize) -> [(Term, Type); 3] {
    let chain = (1..depth).fold(Term::int(1), |m, _| Term::op2(Op::Add, m, Term::int(1)));
    let p = Label::new(0);
    let casts = (1..depth).fold((Term::int(1), Type::INT), |(m, a), _| {
        let b = if a == Type::INT { Type::DYN } else { Type::INT };
        (m.cast(a.clone(), p, b.clone()), b)
    });
    let arrow = (2..depth).fold(Type::DYN, |a, _| Type::fun(Type::DYN, a));
    let lam = Term::lam("x", arrow.clone(), Term::var("x"));
    [
        (chain, Type::INT),
        casts,
        (lam, Type::fun(arrow.clone(), arrow)),
    ]
}

#[test]
fn deep_lambda_b_terms_are_bounded_by_a_typed_error() {
    // On a spawned thread's default stack, like a pool worker: a term
    // at the parser's bound loads and runs on all six engines, and one
    // level deeper, or thousands, is a typed error, not an overflow.
    let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
        let session = Session::new();
        for (term, ty) in deep_terms(MAX_DEPTH) {
            let program = session.load_lambda_b(term, ty).expect("loads at the bound");
            let first = session.run(&program, Engine::LambdaB).expect("runs");
            for engine in Engine::ALL {
                let report = session.run(&program, engine).expect("runs at the bound");
                assert_eq!(report.observation, first.observation, "{engine}");
            }
        }
        for depth in [MAX_DEPTH + 1, 5_000] {
            for (term, ty) in deep_terms(depth) {
                match session.load_lambda_b(term, ty) {
                    Err(RunError::IllTyped(d)) => {
                        assert!(d.message.contains("deeper than 128"), "{}", d.message)
                    }
                    other => panic!("{depth} levels: expected a typed error, got {other:?}"),
                }
            }
        }
    });
    worker.expect("spawns").join().expect("no overflow");
}

//! End-to-end integration tests across all workspace crates:
//! GTLC source → λB → λC → λS → six execution engines, through the
//! session-centric API.

use bc_syntax::{BaseType, Constant, Ground};
use blame_coercion::translate::bisim::Observation;
use blame_coercion::{Engine, Session};

const FUEL: u64 = 5_000_000;

/// A corpus of gradually-typed programs with their expected results.
/// The last three end in values that are not bare constants, so every
/// engine's read-back of a closure, an injection and a proxy is
/// observed too.
fn corpus() -> Vec<(&'static str, &'static str, Observation)> {
    use Observation::Constant as K;
    let injected = |g, payload| Observation::Injected(g, Box::new(payload));
    vec![
        ("arith", "1 + 2 * 3", K(Constant::Int(7))),
        (
            "static_parity",
            "letrec even (n : Int) : Bool = \
               if n = 0 then true else \
               if n = 1 then false else even (n - 2) \
             in even 100",
            K(Constant::Bool(true)),
        ),
        (
            "dynamic_parity",
            "letrec even (n : ?) : ? = \
               if (n : Int) = 0 then true else \
               if (n : Int) = 1 then false else even ((n : Int) - 2) \
             in (even 101 : Bool)",
            K(Constant::Bool(false)),
        ),
        (
            "higher_order",
            "let twice = fun (f : Int -> Int) => fun (x : Int) => f (f x) in \
             let inc = fun x => x + 1 in \
             twice (inc : Int -> Int) 40",
            K(Constant::Int(42)),
        ),
        (
            "boundary_crossing",
            "let dyn_add = fun a => fun b => a + b in \
             (dyn_add 20 22 : Int)",
            K(Constant::Int(42)),
        ),
        (
            "deep_wrapping",
            "let id = fun (x : Int) => x in \
             let wrap = fun (f : ?) => (f : Int -> Int) in \
             wrap (wrap (wrap (id : ?))) 42",
            K(Constant::Int(42)),
        ),
        (
            "ackermann_small",
            "letrec ack2 (n : Int) : Int = \
               if n = 0 then 1 else 2 * ack2 (n - 1) \
             in ack2 10",
            K(Constant::Int(1024)),
        ),
        (
            "injected_capturing_closure",
            "let k = 1 in ((fun (x : Int) => x + k) : ?)",
            injected(Ground::Fun, Observation::Function),
        ),
        (
            "reinjected_constant",
            "((1 : ?) : ?)",
            injected(Ground::Base(BaseType::Int), K(Constant::Int(1))),
        ),
        (
            "function_proxy",
            "((fun x => x) : Int -> Int)",
            Observation::Function,
        ),
    ]
}

#[test]
fn all_engines_agree_on_the_corpus() {
    // The whole corpus shares one session — exactly the server shape
    // the Session API exists for.
    let session = Session::builder().default_fuel(FUEL).build();
    for (name, source, expected) in corpus() {
        let program = session
            .compile(source)
            .unwrap_or_else(|e| panic!("{name} failed to compile:\n{}", e.render(source)));
        for engine in Engine::ALL {
            let got = session
                .run(&program, engine)
                .unwrap_or_else(|e| panic!("{name} on {engine}: {e}"))
                .observation;
            assert_eq!(got, expected, "{name} on {engine}");
        }
    }
}

#[test]
fn blaming_programs_blame_the_same_label_everywhere() {
    let session = Session::builder().default_fuel(FUEL).build();
    let sources = [
        "let f = fun x => x + 1 in f true",
        "let f = ((fun x => true) : ?) in (f : Int -> Int) 1 + 1",
        "((1 : ?) : Bool)",
        "let apply = fun (f : ? -> ?) => f 1 in \
         (apply ((fun (b : Bool) => b) : ? -> ?) : Bool)",
    ];
    for source in sources {
        let program = session
            .compile(source)
            .unwrap_or_else(|e| panic!("failed to compile:\n{}", e.render(source)));
        let mut labels = Vec::new();
        for engine in Engine::ALL {
            match session
                .run(&program, engine)
                .expect("completes")
                .observation
            {
                Observation::Blame(p) => labels.push(p),
                other => panic!("expected blame on {engine} for {source:?}, got {other}"),
            }
        }
        assert!(
            labels.windows(2).all(|w| w[0] == w[1]),
            "engines blamed different labels for {source:?}: {labels:?}"
        );
        // And every blamed label maps back to a source span.
        assert!(program.explain_blame(labels[0]).is_some());
    }
}

#[test]
fn lockstep_holds_for_compiled_programs() {
    let session = Session::builder().default_fuel(FUEL).build();
    for (name, source, _) in corpus() {
        let program = session.compile(source).expect(name);
        let b = session.run(&program, Engine::LambdaB).expect(name);
        let c = session.run(&program, Engine::LambdaC).expect(name);
        assert_eq!(b.steps, c.steps, "{name}: λB and λC must run in lockstep");
    }
}

#[test]
fn space_stays_bounded_end_to_end() {
    // Compile the boundary-crossing loop from source and check the λS
    // machine runs it in bounded space while λB leaks.
    let session = Session::builder().default_fuel(FUEL).build();
    let source = |n: i64| {
        format!(
            "letrec loop (n : Int) : Bool = \
               if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
             in loop {n}"
        )
    };
    let small = session.compile(&source(8)).expect("compiles");
    let large = session.compile(&source(512)).expect("compiles");
    let s_small = session
        .run(&small, Engine::MachineS)
        .expect("runs")
        .metrics
        .unwrap();
    let s_large = session
        .run(&large, Engine::MachineS)
        .expect("runs")
        .metrics
        .unwrap();
    assert_eq!(
        s_small.peak_frames, s_large.peak_frames,
        "λS machine must run boundary-crossing tail calls in constant space"
    );
    let b_small = session
        .run(&small, Engine::MachineB)
        .expect("runs")
        .metrics
        .unwrap();
    let b_large = session
        .run(&large, Engine::MachineB)
        .expect("runs")
        .metrics
        .unwrap();
    assert!(
        b_large.peak_cast_frames > b_small.peak_cast_frames + 400,
        "λB machine must exhibit the leak ({} vs {})",
        b_small.peak_cast_frames,
        b_large.peak_cast_frames
    );
}

#[test]
fn compile_errors_carry_spans() {
    let session = Session::new();
    for bad in [
        "1 +",
        "fun (x : ) => x",
        "1 + true",
        "(x)",
        "if 1 then 2 else 3",
    ] {
        let err = session.compile(bad).expect_err(bad);
        let rendered = err.render(bad);
        assert!(
            rendered.contains('^'),
            "diagnostic lacks a caret:\n{rendered}"
        );
    }
}

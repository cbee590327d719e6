//! Seeded request streams, each request carrying its expected verdict
//! in closed form. Nothing here runs the system under test: the
//! expectation follows from how the generator built the source.

use bc_testkit::sources;
use blame_coercion::syntax::{BaseType, Constant, Ground};
use blame_coercion::translate::bisim::Observation;
use blame_coercion::{Engine, SessionBuilder};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one warm `Session`; the run layers do the work.
    BoundaryLoop,
    /// Closed loop, one long-lived `Session`; the front end and the
    /// interning arenas do the work.
    CompileNovel,
    /// Open loop into a `SessionPool`; the scheduler and observability
    /// layers are on the path.
    PoolServe,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BoundaryLoop,
        Workload::CompileNovel,
        Workload::PoolServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BoundaryLoop => "boundary_loop",
            Workload::CompileNovel => "compile_novel",
            Workload::PoolServe => "pool_serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: small, stable across platforms, and independent of any
/// crate the system under test uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// What a request must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A value (or a function/injection observation).
    Value(Observation),
    /// Blame, on a label of the given polarity.
    Blame { positive: bool },
    /// Fuel exhaustion after exactly `fuel` steps.
    FuelExhausted { fuel: u64 },
    /// A compile diagnostic whose span starts at byte `at`.
    Diagnostic { at: usize },
}

/// What a request produced, in the same terms as [`Expect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The run finished; blame is `Observation::Blame`.
    Observed(Observation),
    FuelExhausted {
        steps: u64,
    },
    Diagnostic {
        at: usize,
    },
    /// Any other ending: ill-typed, rejected, lost, panicked, deadline.
    Failed(String),
}

impl Expect {
    pub fn accepts(&self, verdict: &Verdict) -> bool {
        match (self, verdict) {
            (Expect::Value(want), Verdict::Observed(got)) => want == got,
            (Expect::Blame { positive }, Verdict::Observed(Observation::Blame(label))) => {
                label.is_positive() == *positive
            }
            (Expect::FuelExhausted { fuel }, Verdict::FuelExhausted { steps }) => steps == fuel,
            (Expect::Diagnostic { at }, Verdict::Diagnostic { at: got }) => at == got,
            _ => false,
        }
    }
}

/// One request: a source, how to run it, and what it must produce.
#[derive(Debug, Clone)]
pub struct Request {
    pub source: String,
    pub engine: Engine,
    pub fuel: u64,
    pub expect: Expect,
    /// The bound of a boundary-crossing loop, for the constant-space
    /// check.
    pub loop_bound: Option<u64>,
}

/// Fuel of the pool jobs: spinners exhaust it, everything else in the
/// mix finishes far below it.
pub const POOL_FUEL: u64 = 5_000;
/// Session workloads run with the session's default fuel.
const SESSION_FUEL: u64 = SessionBuilder::DEFAULT_FUEL;
/// Pre-generated testkit sources per stream (the pool mix cycles
/// through them; the drifting hot type repeats with a period of 64
/// phases of 256 jobs, which this covers).
const TESTKIT_BATCH: usize = 1 << 14;

fn boundary_loop_source(bound: u64) -> String {
    format!(
        "letrec loop (n : Int) : Bool = \
           if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
         in loop {bound}"
    )
}

fn constant(c: Constant) -> Observation {
    Observation::Constant(c)
}

/// The expected verdict of a `bc_testkit::sources` program, from its
/// shape and constant. Panics on a shape this benchmark does not know,
/// so a change to the generator cannot go unchecked.
fn testkit_expect(source: &str, fuel: u64) -> Expect {
    let k: i64 = source
        .rsplit(|c: char| !c.is_ascii_digit())
        .find(|s| !s.is_empty())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no constant in testkit source: {source}"));
    if source.contains("letrec spin") {
        Expect::FuelExhausted { fuel }
    } else if source.contains("letrec loop") || source.contains("letrec even") {
        // Both loops count down to `true`; `even` gets an even argument.
        Expect::Value(constant(Constant::Bool(true)))
    } else if source.contains("twice") {
        // twice (x ↦ x + k) k = k + k + k
        Expect::Value(constant(Constant::Int(3 * k)))
    } else if source.ends_with("f true") {
        // `true` reaches `x + k` through `?`: the projection to Int,
        // whose label is positive, fails.
        Expect::Blame { positive: true }
    } else if source.starts_with("let f = ((fun x => x) : ?)") || source.starts_with("let poly") {
        // The drifting casts are never applied; the body is `k`.
        Expect::Value(constant(Constant::Int(k)))
    } else {
        panic!("unrecognised testkit source: {source}")
    }
}

fn testkit_request(source: String, engine: Engine, fuel: u64) -> Request {
    let expect = testkit_expect(&source, fuel);
    Request {
        source,
        engine,
        fuel,
        expect,
        loop_bound: None,
    }
}

fn pool_requests(sources: Vec<String>) -> Vec<Request> {
    sources
        .into_iter()
        .map(|s| testkit_request(s, Engine::MachineS, POOL_FUEL))
        .collect()
}

/// A seeded, endless request stream.
pub struct Stream {
    rng: Rng,
    kind: StreamKind,
}

enum StreamKind {
    BoundaryLoop {
        /// Cast-heavy side traffic: the testkit's dynamic `twice`,
        /// runtime blame and even/odd shapes.
        side: Vec<String>,
        next_side: usize,
    },
    CompileNovel,
    PoolServe {
        mixed: Vec<Request>,
        drifting: Vec<Request>,
        next_mixed: usize,
        next_drifting: usize,
    },
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let kind = match workload {
            Workload::BoundaryLoop => StreamKind::BoundaryLoop {
                side: sources::mixed(seed, 6 * 256)
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| matches!(i % sources::SHAPES, 2..=4))
                    .map(|(_, s)| s)
                    .collect(),
                next_side: 0,
            },
            Workload::CompileNovel => StreamKind::CompileNovel,
            Workload::PoolServe => StreamKind::PoolServe {
                mixed: pool_requests(sources::mixed(seed, TESTKIT_BATCH)),
                drifting: pool_requests(sources::drifting(
                    seed.wrapping_add(1),
                    TESTKIT_BATCH,
                    256,
                )),
                next_mixed: 0,
                next_drifting: 0,
            },
        };
        Stream {
            rng: Rng::new(seed),
            kind,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let rng = &mut self.rng;
        match &mut self.kind {
            StreamKind::BoundaryLoop { side, next_side } => {
                // λS machine and λS small-step in a 3:1 ratio.
                let engine = if rng.chance(3, 4) {
                    Engine::MachineS
                } else {
                    Engine::LambdaS
                };
                if rng.chance(3, 4) {
                    let bound = rng.range(1_000, 4_000);
                    Request {
                        source: boundary_loop_source(bound),
                        engine,
                        fuel: SESSION_FUEL,
                        expect: Expect::Value(constant(Constant::Bool(true))),
                        loop_bound: Some(bound),
                    }
                } else {
                    let source = side[*next_side % side.len()].clone();
                    *next_side += 1;
                    testkit_request(source, engine, SESSION_FUEL)
                }
            }
            StreamKind::CompileNovel => novel_request(rng),
            StreamKind::PoolServe {
                mixed,
                drifting,
                next_mixed,
                next_drifting,
            } => {
                let (list, next) = if rng.chance(1, 2) {
                    (mixed, next_mixed)
                } else {
                    (drifting, next_drifting)
                };
                *next += 1;
                list[(*next - 1) % list.len()].clone()
            }
        }
    }
}

/// Requests compiled and run before timing starts, so lazy set-up and
/// the shapes every request repeats are warm.
pub fn warmup(workload: Workload, seed: u64) -> Vec<Request> {
    match workload {
        Workload::BoundaryLoop => {
            let mut out = Vec::new();
            for engine in [Engine::MachineS, Engine::LambdaS] {
                out.push(Request {
                    source: boundary_loop_source(16),
                    engine,
                    fuel: SESSION_FUEL,
                    expect: Expect::Value(constant(Constant::Bool(true))),
                    loop_bound: None,
                });
                for (i, s) in sources::shapes().into_iter().enumerate() {
                    if matches!(i, 2..=4) {
                        out.push(testkit_request(s, engine, SESSION_FUEL));
                    }
                }
            }
            out
        }
        Workload::CompileNovel => {
            let mut stream = Stream::new(workload, seed ^ 0xA5A5_A5A5_A5A5_A5A5);
            (0..32).map(|_| stream.next_request()).collect()
        }
        Workload::PoolServe => pool_requests(sources::shapes()),
    }
}

// ---------------------------------------------------------------------
// compile_novel: random annotation types cast through `?`.

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ty {
    Int,
    Bool,
    Dyn,
    Fun(Box<Ty>, Box<Ty>),
}

impl Ty {
    fn render(&self, out: &mut String) {
        match self {
            Ty::Int => out.push_str("Int"),
            Ty::Bool => out.push_str("Bool"),
            Ty::Dyn => out.push('?'),
            Ty::Fun(a, b) => {
                if matches!(**a, Ty::Fun(..)) {
                    out.push('(');
                    a.render(out);
                    out.push(')');
                } else {
                    a.render(out);
                }
                out.push_str(" -> ");
                b.render(out);
            }
        }
    }
}

fn leaf(rng: &mut Rng) -> Ty {
    match rng.range(0, 2) {
        0 => Ty::Int,
        1 => Ty::Bool,
        _ => Ty::Dyn,
    }
}

/// A random type of arrow depth at most `depth`.
fn random_ty(rng: &mut Rng, depth: u32) -> Ty {
    if depth == 0 || rng.chance(1, 3) {
        leaf(rng)
    } else {
        Ty::Fun(
            Box::new(random_ty(rng, depth - 1)),
            Box::new(random_ty(rng, depth - 1)),
        )
    }
}

/// `ty` with random subtrees replaced by `?`: consistent with `ty`, and
/// with every other loosening of `ty`.
fn loosen(rng: &mut Rng, ty: &Ty) -> Ty {
    if *ty != Ty::Dyn && rng.chance(1, 5) {
        return Ty::Dyn;
    }
    match ty {
        Ty::Fun(a, b) => Ty::Fun(Box::new(loosen(rng, a)), Box::new(loosen(rng, b))),
        other => other.clone(),
    }
}

/// Writes a value of type `ty` and returns the constant at the end of
/// its result spine (what applying it to all its arguments yields).
/// A `?` slot holds an integer.
fn value(rng: &mut Rng, ty: &Ty, next_var: &mut u32, out: &mut String) -> Constant {
    match ty {
        Ty::Int | Ty::Dyn => {
            let k = rng.range(0, 999) as i64;
            out.push_str(&k.to_string());
            Constant::Int(k)
        }
        Ty::Bool => {
            let b = rng.chance(1, 2);
            out.push_str(if b { "true" } else { "false" });
            Constant::Bool(b)
        }
        Ty::Fun(a, b) => {
            *next_var += 1;
            out.push_str(&format!("fun (x{} : ", *next_var));
            a.render(out);
            out.push_str(") => ");
            value(rng, b, next_var, out)
        }
    }
}

fn novel_request(rng: &mut Rng) -> Request {
    let next_var = &mut 0;
    let depth = rng.range(2, 5) as u32;
    let ty = Ty::Fun(
        Box::new(random_ty(rng, depth - 1)),
        Box::new(random_ty(rng, depth - 1)),
    );
    let mut src = String::new();
    // let v = (VALUE : T) in let f0 = fun (y : T) => y in
    src.push_str("let v = (");
    let result = value(rng, &ty, next_var, &mut src);
    src.push_str(" : ");
    ty.render(&mut src);
    src.push_str(") in let f0 = fun (y : ");
    ty.render(&mut src);
    src.push_str(") => y in ");
    // let fi = ((f{i-1} : ?) : (Ti) -> Ti) in ..., each Ti a loosening of T.
    let sites = rng.range(3, 6) as usize;
    let mut last = ty.clone();
    for i in 1..=sites {
        last = loosen(rng, &ty);
        src.push_str(&format!("let f{i} = ((f{} : ?) : (", i - 1));
        last.render(&mut src);
        src.push_str(") -> ");
        last.render(&mut src);
        src.push_str(") in ");
    }
    // The call chain f_k (... (f0 v)), applied along T's spine.
    let mut body = String::from("v");
    for i in 0..=sites {
        body = format!("f{i} ({body})");
    }
    let mut spine = &ty;
    let mut seen = &last;
    while let Ty::Fun(arg, res) = spine {
        body.push_str(" (");
        value(rng, arg, next_var, &mut body);
        body.push(')');
        spine = &**res;
        if let Ty::Fun(_, r) = seen {
            seen = &**r;
        }
    }
    // The result's static type is `?` when the last site's type was
    // loosened anywhere along the spine; a `?` slot of T always is.
    let observed = constant(result);
    let expect = match (spine, seen) {
        (Ty::Dyn, _) => Expect::Value(Observation::Injected(
            Ground::Base(BaseType::Int),
            Box::new(observed),
        )),
        (Ty::Int | Ty::Bool, Ty::Dyn) => {
            let base = if *spine == Ty::Int {
                BaseType::Int
            } else {
                BaseType::Bool
            };
            Expect::Value(Observation::Injected(
                Ground::Base(base),
                Box::new(observed),
            ))
        }
        _ => Expect::Value(observed),
    };
    // About one source in eight carries a diagnostic instead: a type
    // error in an `if` condition, or a stray closing parenthesis.
    let expect = match rng.range(0, 15) {
        0 => {
            src.push_str("if ");
            let at = src.len();
            src.push_str("0 then ");
            src.push_str(&body);
            src.push_str(" else 0");
            Expect::Diagnostic { at }
        }
        1 => {
            src.push_str(&body);
            src.push(' ');
            let at = src.len();
            src.push(')');
            Expect::Diagnostic { at }
        }
        _ => {
            src.push_str(&body);
            expect
        }
    };
    Request {
        source: src,
        engine: Engine::MachineS,
        fuel: SESSION_FUEL,
        expect,
        loop_bound: None,
    }
}

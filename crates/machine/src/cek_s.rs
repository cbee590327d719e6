//! The CEK machine for λS — the space-efficient machine (in the style
//! of Siek–Garcia 2012).
//!
//! It differs from the λC instance of [`crate::cek`] in exactly one
//! way: **pushing a coercion frame onto a continuation whose top frame
//! is already a coercion frame composes the two with `s # t`** instead
//! of stacking them. Since composition preserves height (Proposition
//! 14) and canonical coercions of bounded height have bounded size,
//! the continuation never holds more than one bounded coercion per
//! non-coercion frame: tail calls across typed/untyped boundaries run
//! in constant space.
//!
//! The same merging is applied to values: coercing an already-coerced
//! value composes the coercions, so proxy chains never grow either.
//!
//! # The run loop
//!
//! The machine is the λS run loop of [`bc_core::exec`], which the
//! compiled small-step runs too, under the [`Transitions`] policy. It
//! runs a program's flat [`SCode`] block in place on the run state of
//! [`bc_core::store`], and every frame/proxy merge goes through the
//! [`ComposeCache`]: a boundary crossing is an id load plus a cached
//! O(1) composition — **zero interning, zero coercion allocation** —
//! which the per-run [`ReuseStats`] make observable (`tree_interns ==
//! 0` on a compiled block). [`run_compiled_in`] runs a compiled block
//! whole, [`start_compiled_in`] and [`resume_compiled_in`] in fuel
//! slices, and [`run`] compiles a tree [`Term`] first.
//!
//! # Fused transitions
//!
//! The policy's cost rule: every transition is a step and no
//! contraction is, so a group of `k` transitions over leaves fires only
//! when `steps + k ≤ min(fuel, until)`, and a transition that is several
//! contractions of Figure 5 (a proxied call, a proxy meeting a coercion
//! frame) is always taken whole. The peaks are the continuation's,
//! recorded with [`Metrics::observe`] as the loop pushes frames or a
//! group skips pushing them, so steps, peaks, outcomes and cut points
//! are those of the unfused machine, which a run in slices of one
//! transition is.

use bc_core::arena::{ArenaStats, CacheStats, CoercionArena, ComposeCache};
use bc_core::arena::{GNode, INode, SNode};
use bc_core::exec::{self, Count, End};
use bc_core::sterm::{CompileCtx, SCode};
use bc_core::store::{Env, Store, Value};
use bc_core::term::Term;
use bc_syntax::Constant;
use bc_translate::bisim::Observation;

use crate::metrics::{MachineOutcome, MachineRun, Metrics, ReuseStats, SliceResult};

/// The calculus-agnostic observation of a value, read through the
/// arena that interned its coercions.
fn observe(v: Value, arena: &CoercionArena) -> Observation {
    match v.unproxy() {
        (Value::Int(n), None) => Observation::Constant(Constant::Int(n)),
        (Value::Bool(b), None) => Observation::Constant(Constant::Bool(b)),
        (_, None) => Observation::Function,
        (u, Some(coercion)) => match arena.node(coercion) {
            SNode::Mid(INode::Inj(g, ground)) => {
                let payload = match g {
                    GNode::IdBase(_) => observe(u, arena),
                    GNode::Fun(_, _) => Observation::Function,
                };
                Observation::Injected(ground, Box::new(payload))
            }
            SNode::Mid(INode::Ground(GNode::Fun(_, _))) => Observation::Function,
            _ => unreachable!(
                "coerced value with non-value coercion {}",
                arena.resolve(coercion)
            ),
        },
    }
}

/// The machine's counting policy: each transition is a step. It keeps
/// the continuation's peaks (frames, coercion frames and their size),
/// and the arena and cache counters at the start, so the final
/// [`ReuseStats`] delta spans all slices, exactly as an unsliced run
/// reports it.
#[derive(Debug, Clone)]
pub struct Transitions {
    peaks: [usize; 3],
    arena_before: ArenaStats,
    cache_before: CacheStats,
}

impl Count for Transitions {
    type Payload = ();
    type Aux = ();
    type Output = MachineRun;
    type Metrics = Metrics;
    const TRANSITION: u64 = 1;
    const CONTRACTION: u64 = 0;

    /// The steps and peaks so far (the reuse counters are filled in
    /// when the run finishes).
    fn metrics(&self, steps: u64) -> Metrics {
        let [peak_frames, peak_cast_frames, peak_cast_size] = self.peaks;
        Metrics {
            steps,
            peak_frames,
            peak_cast_frames,
            peak_cast_size,
            reuse: ReuseStats::default(),
        }
    }

    fn payload(&self, _: &SCode, _: &Store, _: &CoercionArena, _: u32, _: Env) {}

    fn observe(&mut self, frames: usize, casts: usize, size: usize) {
        let [f, c, s] = &mut self.peaks;
        (*f, *c, *s) = ((*f).max(frames), (*c).max(casts), (*s).max(size));
    }

    fn finish(
        self,
        end: End<()>,
        steps: u64,
        _: &SCode,
        arena: &CoercionArena,
        cache: &ComposeCache,
        _: &(),
    ) -> MachineRun {
        let outcome = match end {
            End::Value(v) => MachineOutcome::Value(observe(v, arena)),
            End::Blame(p) => MachineOutcome::Blame(p),
            End::Fuel => MachineOutcome::Timeout,
        };
        let (arena_after, cache_after) = (arena.stats(), cache.stats());
        let (arena_before, cache_before) = (self.arena_before, self.cache_before);
        let reuse = ReuseStats {
            tree_interns: arena_after.tree_interns - arena_before.tree_interns,
            node_hits: arena_after.node_hits - arena_before.node_hits,
            node_misses: arena_after.node_misses - arena_before.node_misses,
            compose_hits: cache_after.hits - cache_before.hits,
            compose_misses: cache_after.misses - cache_before.misses,
            cache_evictions: cache_after.evictions - cache_before.evictions,
            arena_nodes: arena_after.nodes,
        };
        MachineRun {
            outcome,
            metrics: Metrics {
                reuse,
                ..self.metrics(steps)
            },
        }
    }
}

/// Runs a closed, well-typed λS term on the space-efficient CEK
/// machine: the term is compiled into a code block in fresh arenas,
/// which then runs exactly as [`run_compiled_in`] runs it.
///
/// # Panics
///
/// Panics on open or ill-typed input.
pub fn run(term: &Term, fuel: u64) -> MachineRun {
    let mut ctx = CompileCtx::new();
    let code = ctx.compile(term);
    run_compiled_in(&code, &mut ctx.arena, &mut ctx.cache, fuel)
}

/// Runs an already-compiled program against the arena and cache it
/// was compiled into: every boundary crossing is an id load plus a
/// cached merge, with zero interning
/// (`metrics.reuse.tree_interns == 0`).
///
/// The block's ids are only meaningful in the arena that lowered them
/// (keep the pair together, e.g. via [`bc_core::sterm::CompileCtx`]):
/// an id that is out of bounds for `arena` panics, but an in-bounds id
/// from a *different* arena denotes whatever that slot holds — like
/// [`CoercionArena::node`], this function cannot detect foreign ids.
///
/// # Panics
///
/// Panics on open or ill-typed input, or if the block's ids are out of
/// bounds for `arena`.
pub fn run_compiled_in(
    code: &SCode,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    fuel: u64,
) -> MachineRun {
    let paused = start_compiled_in(code, arena, cache, fuel);
    resume_compiled_in(paused, arena, cache, fuel).finished()
}

/// A preempted λS machine run, parked between fuel slices: the λS run
/// loop's parked run ([`exec::Paused`]), which holds no arena or cache
/// borrows, under the [`Transitions`] policy.
pub type Paused = exec::Paused<Transitions>;

/// Begins a resumable run of an already-compiled program. No steps are
/// taken; drive the machine with [`resume_compiled_in`], passing the
/// same arena/cache pair the program was compiled into.
pub fn start_compiled_in(
    code: &SCode,
    arena: &CoercionArena,
    cache: &ComposeCache,
    fuel: u64,
) -> Paused {
    let count = Transitions {
        peaks: [0; 3],
        arena_before: arena.stats(),
        cache_before: cache.stats(),
    };
    Paused::new(code, fuel, count)
}

/// Runs a parked machine for at most `slice` further transitions
/// against the arena/cache pair its program was compiled into.
///
/// Fuel exhaustion is checked before the slice budget (both count
/// machine transitions), so a slice at least as large as the
/// remaining fuel can never park:
/// `resume_compiled_in(start_compiled_in(c, a, k, f), a, k, f)` is
/// exactly [`run_compiled_in`]`(c, a, k, f)`.
///
/// # Panics
///
/// Panics on open or ill-typed input, or if the block's ids are out of
/// bounds for `arena`.
pub fn resume_compiled_in(
    paused: Paused,
    arena: &mut CoercionArena,
    cache: &mut ComposeCache,
    slice: u64,
) -> SliceResult<Paused> {
    exec::resume(paused, slice, arena, cache, &())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_lambda_b::programs;
    use bc_translate::{term_b_to_c, term_c_to_s};

    fn to_s(t: &bc_lambda_b::Term) -> Term {
        term_c_to_s(&term_b_to_c(t))
    }

    #[test]
    fn blame_labels_survive_merging() {
        use bc_syntax::{Label, Type};
        let t = bc_lambda_b::Term::int(1)
            .cast(Type::INT, Label::new(0), Type::DYN)
            .cast(Type::DYN, Label::new(1), Type::BOOL);
        let out = run(&to_s(&t), 100).outcome;
        assert_eq!(out, MachineOutcome::Blame(Label::new(1)));
    }

    #[test]
    fn boundary_loop_hits_the_compose_cache_and_never_reinterns() {
        // The compiled IR's defining property: once a program is
        // compiled, boundary crossings intern nothing — 512 loop
        // iterations, zero tree interns — and after the first iteration
        // every frame merge is a cache hit.
        let mut ctx = bc_core::CompileCtx::new();
        let compiled = ctx.compile(&to_s(&programs::boundary_loop(512)));
        let first = run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, 10_000_000);
        assert!(matches!(first.outcome, MachineOutcome::Value(_)));
        assert_eq!(first.metrics.reuse.tree_interns, 0);
        let stats = ctx.cache.stats();
        assert!(stats.hits > 8 * stats.misses, "{stats:?}");
        // The arena stays small although the loop merged thousands of
        // times: bounded distinct coercions.
        let nodes_after_first = ctx.arena.len();
        assert!(nodes_after_first < 64, "arena grew to {nodes_after_first}");
        // Warm re-run: no interning, no new nodes, no structural
        // composition — pure cache hits.
        let second = run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, 10_000_000);
        assert_eq!(first.outcome, second.outcome);
        let reuse = second.metrics.reuse;
        assert_eq!(
            (reuse.tree_interns, reuse.node_misses, reuse.compose_misses),
            (0, 0, 0)
        );
        assert!(reuse.compose_hits > 0);
        assert_eq!(ctx.arena.len(), nodes_after_first);
    }

    fn compile(source: &str) -> (CompileCtx, SCode) {
        let mut ctx = CompileCtx::new();
        let program = bc_gtlc::compile_compiled(source, &mut ctx.types).expect("compiles");
        let code =
            bc_translate::term_b_to_s_compiled(&program.term, &mut ctx.types, &mut ctx.arena);
        (ctx, code)
    }

    /// Runs a GTLC program one transition per slice, handing every
    /// parked state to `inspect`.
    fn step_through(source: &str, mut inspect: impl FnMut(&Paused)) -> MachineRun {
        let (mut ctx, code) = compile(source);
        let paused = start_compiled_in(&code, &ctx.arena, &ctx.cache, u64::MAX);
        SliceResult::Parked(paused).finish(|p| {
            inspect(&p);
            resume_compiled_in(p, &mut ctx.arena, &mut ctx.cache, 1)
        })
    }

    /// The space a loop's run peaks at, each engine run one step per
    /// slice: the machine's continuation frames, coercion frames and
    /// size, and the locals and temporaries stacks; the compiled
    /// small-step's two peaks and the same two stacks, which a slice of
    /// one contraction parks with mid-transition (inside the proxy
    /// rule, or a proxy merged onto a coercion frame alone).
    fn peak_space(source: &str) -> [usize; 9] {
        let (mut locals, mut temps) = (0, 0);
        let run = step_through(source, |p| {
            locals = locals.max(p.store().locals.len());
            temps = temps.max(p.store().temps.len());
        });
        let expected = MachineOutcome::Value(Observation::Constant(Constant::Bool(true)));
        assert_eq!(run.outcome, expected, "{source}");
        let (mut ctx, code) = compile(source);
        let (arena, cache, types) = (&mut ctx.arena, &mut ctx.cache, &ctx.types);
        let (mut small_locals, mut small_temps) = (0, 0);
        let paused = bc_core::eval::start_compiled(&code, u64::MAX, arena);
        let small = bc_core::eval::SliceC::Parked(paused)
            .finish(|p| {
                small_locals = small_locals.max(p.store().locals.len());
                small_temps = small_temps.max(p.store().temps.len());
                bc_core::eval::resume_compiled(p, 1, arena, cache, types)
            })
            .expect("the loop ends");
        let m = run.metrics;
        [
            m.peak_frames,
            m.peak_cast_frames,
            m.peak_cast_size,
            locals,
            temps,
            small.peak_size,
            small.peak_cast_measure,
            small_locals,
            small_temps,
        ]
    }

    #[test]
    fn tail_calls_run_in_constant_space() {
        // THE headline claim, for every stack the machine keeps and for
        // the term the small-step stands for: a loop peaks at the same
        // space for 16 and 4096 iterations, whether it crosses a
        // boundary, binds a `let` in its body, calls a capturing closure
        // or calls a proxy taken off the dynamic type, because a tail
        // call reuses its caller's activation. Run one contraction per
        // slice, the small-step parks inside the proxy rule and merges a
        // proxy into a coercion frame without unwrapping it.
        let loops = [
            "letrec loop (n : Int) : Bool = \
               if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) in loop",
            "letrec loop (n : Int) : Bool = \
               let m = n - 1 in if n = 0 then true else loop m in loop",
            "let k = 1 in let step = fun (n : Int) => n - k in \
             letrec loop (n : Int) : Bool = if n = 0 then true else loop (step n) in loop",
            "let f = ((fun (n : Int) => n - 1) : ?) in \
             letrec loop (n : Int) : Bool = \
               if n = 0 then true else loop ((f : Int -> Int) n) in loop",
        ];
        for source in loops {
            let small = peak_space(&format!("{source} 16"));
            assert_eq!(small, peak_space(&format!("{source} 4096")), "{source}");
            assert!(small[1] <= 2, "{source}: {small:?}");
        }
    }

    #[test]
    fn closures_capture_only_their_free_variables() {
        let mut sizes = Vec::new();
        let outcome = step_through("let big = 41 in let a = 1 in fun x => x + a", |p| {
            if let exec::Control::Ret(Value::Closure(c)) = p.control() {
                sizes.push(c.captures.len());
            }
        });
        assert_eq!(
            outcome.outcome,
            MachineOutcome::Value(Observation::Function)
        );
        assert_eq!(sizes, [1]);
    }
}

//! The boundary-crossing benchmark: tree path versus compiled path.
//!
//! The λS machine's residual per-crossing cost on tree terms was the
//! O(size) hash walk re-interning each `Coerce` node's coercion. The
//! compiled IR (`bc_core::sterm`) eliminates it: coercions are `Copy`
//! ids minted once at compile time, so a crossing is an id load plus a
//! cached merge. Three groups quantify the change:
//!
//! * `boundary_crossings` — the crossing operation itself, iterated
//!   512 times the way the machine's frame merging iterates it on the
//!   boundary loop. `tree_path` re-interns the coercion tree before
//!   every merge (what evaluating a tree `Coerce` node used to do);
//!   `compiled_path` merges ids directly (what evaluating a compiled
//!   `Coerce` node does).
//! * `boundary_program` — the 512-iteration boundary loop end to end,
//!   warm arenas in both variants: `tree_path` hands the machine the
//!   tree term each run (per-run compilation included), `compiled_path`
//!   evaluates the pre-compiled [`SCode`] block the pipeline stores.
//! * `compile_term` — the lowering pass itself, cold and warm, to show
//!   compilation is a pay-once cost.
//!
//! [`SCode`]: bc_core::sterm::SCode

use bc_core::sterm::compile_term;
use bc_core::CompileCtx;
use bc_lambda_b::programs;
use bc_machine::cek_s;
use bc_syntax::{Label, Type, TypeArena};
use bc_translate::{cast_to_coercion, coercion_to_space, term_b_to_c, term_c_to_s};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn boundary_tree(n: i64) -> bc_core::Term {
    term_c_to_s(&term_b_to_c(&programs::boundary_loop(n)))
}

/// The boundary loop's crossing coercion: `Int → Bool ⇒ ? ⇒ Int → Bool`
/// normalised — a self-composable round trip, exactly what the
/// machine's top coercion frame merges with on every iteration.
fn crossing_coercion() -> bc_core::SpaceCoercion {
    let fun_ty = Type::fun(Type::INT, Type::BOOL);
    let c = cast_to_coercion(&fun_ty, Label::new(0), &Type::DYN).seq(cast_to_coercion(
        &Type::DYN,
        Label::new(1),
        &fun_ty,
    ));
    coercion_to_space(&c)
}

fn bench_boundary_crossings(c: &mut Criterion) {
    let mut group = c.benchmark_group("boundary_crossings");
    group.sample_size(20);
    let s = crossing_coercion();
    let iters = 512u32;

    // Tree path: each crossing hash-walks the coercion tree into the
    // arena before the (cached) merge — the per-crossing cost of
    // evaluating a tree `Coerce` node.
    let mut ctx = CompileCtx::new();
    let warm = ctx.arena.intern(&s);
    let mut acc = ctx.arena.compose(&mut ctx.cache, warm, warm);
    acc = ctx.arena.compose(&mut ctx.cache, acc, warm);
    group.bench_with_input(BenchmarkId::new("tree_path", iters), &s, |b, s| {
        b.iter(|| {
            let mut frame = acc;
            for _ in 0..iters {
                let sid = ctx.arena.intern(black_box(s));
                frame = ctx.arena.compose(&mut ctx.cache, frame, sid);
            }
            black_box(frame)
        })
    });

    // Compiled path: the id was minted at compile time; a crossing is
    // an id load plus the same cached merge.
    group.bench_with_input(BenchmarkId::new("compiled_path", iters), &warm, |b, sid| {
        b.iter(|| {
            let mut frame = acc;
            for _ in 0..iters {
                frame = ctx.arena.compose(&mut ctx.cache, frame, black_box(*sid));
            }
            black_box(frame)
        })
    });
    group.finish();
}

fn bench_boundary_program(c: &mut Criterion) {
    let mut group = c.benchmark_group("boundary_program");
    group.sample_size(20);
    for n in [64i64, 512] {
        let tree = boundary_tree(n);

        // Tree path: the machine receives the tree term every run and
        // lowers it into its (persistent, warm) arena first — the
        // pre-IR pipeline behaviour.
        let mut ctx = CompileCtx::new();
        cek_s::run_in(&tree, &mut ctx.arena, &mut ctx.cache, u64::MAX);
        group.bench_with_input(BenchmarkId::new("tree_path", n), &tree, |b, tree| {
            b.iter(|| {
                black_box(cek_s::run_in(
                    black_box(tree),
                    &mut ctx.arena,
                    &mut ctx.cache,
                    u64::MAX,
                ))
            })
        });

        // Compiled path: the program was lowered once; every run is
        // id loads and cached merges (zero interning — asserted by
        // the machine's reuse counters in the test suite).
        let mut ctx = CompileCtx::new();
        let compiled = ctx.compile(&tree);
        cek_s::run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, u64::MAX);
        group.bench_with_input(
            BenchmarkId::new("compiled_path", n),
            &compiled,
            |b, compiled| {
                b.iter(|| {
                    black_box(cek_s::run_compiled_in(
                        black_box(compiled),
                        &mut ctx.arena,
                        &mut ctx.cache,
                        u64::MAX,
                    ))
                })
            },
        );

        // Overlay path: the same compiled program evaluated against a
        // per-worker overlay arena+cache over the *frozen* warm state
        // — the single-thread overhead of the tiered (base-first)
        // lookup the sharding layer adds. The run's merges all hit
        // the frozen pair table; nothing is interned locally.
        let base = std::sync::Arc::new(ctx.arena.freeze(&ctx.cache));
        let mut overlay = bc_core::CoercionArena::with_base(std::sync::Arc::clone(&base));
        let mut overlay_cache = bc_core::ComposeCache::with_base(base, 1 << 16);
        cek_s::run_compiled_in(&compiled, &mut overlay, &mut overlay_cache, u64::MAX);
        group.bench_with_input(
            BenchmarkId::new("overlay_path", n),
            &compiled,
            |b, compiled| {
                b.iter(|| {
                    black_box(cek_s::run_compiled_in(
                        black_box(compiled),
                        &mut overlay,
                        &mut overlay_cache,
                        u64::MAX,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_compile_term(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_term");
    group.sample_size(20);
    let tree = boundary_tree(512);

    // Cold: fresh arenas every round — every coercion and type is
    // hash-walked and stored.
    group.bench_with_input(BenchmarkId::new("cold", 512), &tree, |b, tree| {
        b.iter(|| {
            let mut ctx = CompileCtx::new();
            black_box(compile_term(
                black_box(tree),
                &mut ctx.arena,
                &mut ctx.types,
            ))
        })
    });

    // Warm: arenas already hold everything — the walk is pure hash
    // hits, the steady state of recompiling a hot program.
    let mut arena = bc_core::CoercionArena::new();
    let mut types = TypeArena::new();
    compile_term(&tree, &mut arena, &mut types);
    group.bench_with_input(BenchmarkId::new("warm", 512), &tree, |b, tree| {
        b.iter(|| black_box(compile_term(black_box(tree), &mut arena, &mut types)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_boundary_crossings,
    bench_boundary_program,
    bench_compile_term
);
criterion_main!(benches);

//! The paper's motivating experiment (§1): mutually recursive
//! even/odd where `even` is typed and `odd` is dynamically typed, all
//! calls in tail position. Casts pile up in λB/λC but merge in λS.
//!
//! This example prints the space table: peak cast/coercion frames on
//! the machine continuation as the iteration count grows. The λS column runs on the compiled term IR
//! (`bc_core::sterm`) — the fast path the pipeline serves — and checks
//! on every row that evaluation re-interned nothing.
//!
//! ```sh
//! cargo run --release --example space_efficiency
//! ```

use bc_core::CompileCtx;
use bc_lambda_b::{bterm, programs};
use bc_machine::{cek_b, cek_c, cek_s};
use bc_translate::{term_b_to_c, term_b_to_s_compiled};

fn main() {
    println!("Peak cast/coercion frames on the machine continuation");
    println!("(workload: even/odd across a typed/untyped boundary, tail calls;");
    println!(" λS runs on the compiled term IR — coercions interned once,");
    println!(" boundary crossings are id loads + cached merges)");
    println!();
    println!(
        "{:>8} | {:>10} | {:>10} | {:>10} | {:>14} | {:>9}",
        "n", "λB frames", "λC frames", "λS frames", "λS coercion sz", "reintern"
    );
    println!("{}", "-".repeat(78));

    // One arena/cache/type-interner for the whole sweep: the loop
    // sizes share every coercion, so later rows reuse the earlier
    // rows' interned nodes and memoized merges.
    let mut ctx = CompileCtx::new();

    for n in [4i64, 16, 64, 256, 1024] {
        let b = programs::even_odd_mixed(n);
        let c = term_b_to_c(&b);
        // The lowering a `Session` runs: compiled λB straight to the
        // machine-ready λS code block, no λC or λS tree in between.
        let bcompiled = bterm::compile(&b, &mut ctx.types);
        let compiled = term_b_to_s_compiled(&bcompiled, &mut ctx.types, &mut ctx.arena);
        let fuel = 100_000_000;

        let rb = cek_b::run(&b, fuel);
        let rc = cek_c::run(&c, fuel);
        let rs = cek_s::run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, fuel);

        assert_eq!(
            rb.outcome.to_observation(),
            rs.outcome.to_observation(),
            "engines must agree"
        );
        // The compiled fast path's defining property, checked live:
        // no coercion tree is ever re-interned during evaluation.
        assert_eq!(rs.metrics.reuse.tree_interns, 0, "compiled path interned");

        println!(
            "{:>8} | {:>10} | {:>10} | {:>10} | {:>14} | {:>9}",
            n,
            rb.metrics.peak_cast_frames,
            rc.metrics.peak_cast_frames,
            rs.metrics.peak_cast_frames,
            rs.metrics.peak_cast_size,
            rs.metrics.reuse.tree_interns,
        );
    }

    println!();
    println!("λB and λC grow linearly with n — the space leak that breaks");
    println!("tail calls. λS stays constant: adjacent coercions merge via");
    println!("`s # t`, whose height (and hence size) never grows (Prop. 14).");
    println!();
    let arena = ctx.arena.stats();
    let cache = ctx.cache.stats();
    println!(
        "shared arena after the sweep: {} coercion nodes, {} type nodes,",
        arena.nodes,
        ctx.types.len()
    );
    println!(
        "compose cache: {} hits / {} misses / {} evictions",
        cache.hits, cache.misses, cache.evictions
    );
}

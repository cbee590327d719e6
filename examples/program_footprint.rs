//! Measures what one compiled [`Program`] handle keeps alive: the heap
//! bytes and blocks still allocated after a compile into a warm
//! session, counted by a global allocator that lives in this example
//! (not in the library crates), plus the handle's inline size.
//!
//! A warm session has already interned every type, coercion and
//! composition the program needs, so what the compile leaves behind
//! is exactly the handle's own state: the λS code block plus the
//! source text and blame-span map. (A handle keeps its λB term only
//! when the program was loaded as a λB term rather than compiled from
//! source.)
//!
//! ```sh
//! cargo run --release --example program_footprint
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use blame_coercion::{Program, Session};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> (isize, isize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_BLOCKS.load(Ordering::Relaxed),
    )
}

fn boundary_loop(n: u32) -> String {
    format!(
        "letrec loop (n : Int) : Bool = \
           if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
         in loop {n}"
    )
}

fn main() {
    const KEPT: usize = 64;
    let session = Session::new();
    // Warm every arena and memo table the boundary loop touches.
    let warm = session.compile(&boundary_loop(1000)).expect("compiles");
    drop(warm);

    let (bytes0, blocks0) = live();
    let kept: Vec<Program> = (0..KEPT as u32)
        .map(|i| session.compile(&boundary_loop(1000 + i)).expect("compiles"))
        .collect();
    let (bytes1, blocks1) = live();
    // The Vec's own buffer holds the handles inline; count it once as
    // `size_of::<Program>()` per handle instead.
    let buffer = (kept.capacity() * std::mem::size_of::<Program>()) as isize;
    let heap = (bytes1 - bytes0 - buffer) as f64 / KEPT as f64;
    let blocks = (blocks1 - blocks0 - 1) as f64 / KEPT as f64;
    let code = kept[0].lambda_s_compiled();

    println!("boundary-loop Program, warm session ({KEPT} handles kept):");
    println!("  inline size        {} B", std::mem::size_of::<Program>());
    println!("  retained heap      {heap:.0} B in {blocks:.1} blocks");
    println!(
        "  of which λS code   {} B ({} nodes)",
        code.heap_bytes(),
        code.size()
    );
    println!(
        "  total per handle   {:.0} B",
        heap + std::mem::size_of::<Program>() as f64
    );
}

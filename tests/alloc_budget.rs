//! Heap allocation budgets for parse, optimize and emit.
//!
//! A counting global allocator tallies every allocation request (`alloc`,
//! `alloc_zeroed` and `realloc`) on the calling thread, so tests running
//! in parallel do not mix counts. Each case parses the program's text,
//! optimizes it with the batch engine's configuration (no snapshots) and
//! renders the result's canonical text, and asserts a ceiling per stage. The ceilings hold about 10% headroom over the
//! debug-build counts, so a change that brings back a per-row or
//! per-statement allocation fails here. Release builds may elide some
//! allocations; the ceilings are upper bounds and hold there too.
//!
//! Print the counts with
//! `cargo test --release --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use am_bench::workloads::{nest_grid, wide_fan};
use am_core::global::{optimize_with, GlobalConfig};
use am_ir::alpha::canonical_text;
use am_ir::random::corpus80;
use am_ir::text::{parse, to_text};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every request is forwarded unchanged to the system allocator;
// the counter is a const-initialized thread-local `Cell` that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Parse, optimize and emit allocation counts, summed over `sources`.
fn measure(sources: &[String]) -> [u64; 3] {
    let config = GlobalConfig {
        keep_snapshots: false,
        ..Default::default()
    };
    let mut counts = [0; 3];
    for src in sources {
        let (g, parsed) = allocations(|| parse(src).expect("program parses"));
        let (result, optimized) = allocations(|| optimize_with(&g, &config));
        let (text, emitted) = allocations(|| canonical_text(&result.program));
        assert!(!text.is_empty());
        for (total, n) in counts.iter_mut().zip([parsed, optimized, emitted]) {
            *total += n;
        }
    }
    counts
}

/// Measures `sources` and checks each stage against its ceiling.
fn check(case: &str, sources: &[String], ceilings: [u64; 3]) {
    let counts = measure(sources);
    println!(
        "{case}: parse {}, optimize {}, emit {} allocations",
        counts[0], counts[1], counts[2]
    );
    for ((stage, got), ceiling) in ["parse", "optimize", "emit"]
        .iter()
        .zip(counts)
        .zip(ceilings)
    {
        assert!(
            got <= ceiling,
            "{case}: {stage} made {got} allocations, over its budget of {ceiling}"
        );
    }
}

#[test]
fn wide_fan_allocations_are_budgeted() {
    check(
        "wide_fan(300,4)",
        &[to_text(&wide_fan(300, 4))],
        [1_796, 3_410, 15],
    );
}

#[test]
fn nest_grid_allocations_are_budgeted() {
    check(
        "nest_grid(40,2,8)",
        &[to_text(&nest_grid(40, 2, 8))],
        [1_193, 3_490, 15],
    );
}

#[test]
fn corpus80_allocations_are_budgeted() {
    let sources: Vec<String> = corpus80().iter().map(|(_, g)| to_text(g)).collect();
    check("corpus80", &sources, [10_059, 45_830, 782]);
}

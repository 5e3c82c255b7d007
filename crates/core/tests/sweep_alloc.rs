//! Counting-allocator bound on a warm sweep: once a
//! [`PreparedPopulation`] has been swept, sweeping it again allocates a
//! few result vectors and placements per record, not the verification,
//! control-flow graph and resolution work the record's statics need —
//! those are computed on the first sweep and kept.
//!
//! Single-test file on purpose: the counting `#[global_allocator]` is
//! process-wide, and a concurrent test's allocations would show up in the
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use javaflow_core::{EvalConfig, PreparedPopulation};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_sweep_allocations_per_record_are_bounded() {
    let cfg = EvalConfig { synthetic_count: 12, threads: 1, ..EvalConfig::default() };
    let pop = PreparedPopulation::prepare(cfg.synthetic_count, cfg.threads);
    // Warm-up: computes every record's statics and warms pooled arenas.
    let warm = pop.evaluate(&cfg);

    let before = ALLOCS.load(Relaxed);
    let eval = pop.evaluate(&cfg);
    let allocs = ALLOCS.load(Relaxed) - before;
    assert!(eval.samples.len() == warm.samples.len());

    // Per record and configuration: one placement (two vectors); per
    // record: the statics' and samples' vectors; per sweep: the
    // schedule, the splice and the assembled evaluation with its index.
    let per_record = allocs as f64 / pop.len() as f64;
    assert!(
        per_record <= 24.0,
        "a warm sweep allocated {allocs} times for {} records ({per_record:.1} per record)",
        pop.len()
    );
}

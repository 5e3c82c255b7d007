//! Counting-allocator coverage for the parallel sweep path: once the
//! arena pool is warm, the per-record simulation work allocates nothing,
//! so a whole sweep's heap traffic is a small constant (thread spawns
//! plus a handful of pre-sized scheduler vectors) — **independent of the
//! record count**. A per-record allocation anywhere in the claim (one
//! `fetch_add` on the shared cursor) or splice path would scale with the
//! item count and fail this test.
//!
//! Single-test file on purpose: the counting `#[global_allocator]` is
//! process-wide, and a concurrent test's allocations would show up in the
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use javaflow_bytecode::asm::assemble;
use javaflow_core::parallel::sweep_ordered;
use javaflow_fabric::{
    execute_in, load, ArenaPool, BranchMode, ExecParams, FabricConfig, Outcome, SimArena,
};

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

const SUM_LOOP: &str = ".method sum args=1 returns=true locals=3
   iconst_0
   istore 1
 top:
   iload 1
   iload 0
   iadd
   istore 1
   iinc 0 -1
   iload 0
   ifgt @top
   iload 1
   ireturn
 .end";

#[test]
fn warm_parallel_sweep_allocates_independent_of_record_count() {
    const THREADS: usize = 2;
    let p = assemble(SUM_LOOP).unwrap();
    let (_, m) = p.method_by_name("sum").unwrap();
    let config = FabricConfig::compact2();
    let loaded = load(m, &config).unwrap();
    let pool = ArenaPool::new();

    // Every item is the same method, so any pooled arena is warm for any
    // item after one run through it.
    let small: Vec<u32> = (0..16).collect();
    let large: Vec<u32> = (0..160).collect();
    let schedule_small: Vec<u32> = (0..small.len() as u32).collect();
    let schedule_large: Vec<u32> = (0..large.len() as u32).collect();

    // The per-record closure returns plain counters — an ideal-net run
    // attaches no heap-backed report parts.
    let sweep = |items: &[u32], schedule: &[u32]| {
        sweep_ordered(
            items,
            THREADS,
            schedule,
            || pool.checkout(),
            |arena: SimArena| pool.checkin(arena),
            |arena, _, _| {
                let report = execute_in(
                    &loaded,
                    &config,
                    ExecParams { mode: BranchMode::Bp1, ..ExecParams::default() },
                    arena,
                );
                assert!(matches!(report.outcome, Outcome::Returned(_)));
                (report.executed, report.events)
            },
        )
    };

    // Warm-up: builds (and pools) one arena per worker, sizes the pool's
    // free list, and faults in thread-spawn lazy state.
    let warm = sweep(&large, &schedule_large);
    assert_eq!(warm.results.len(), large.len());
    assert!(pool.warm_len() >= 1, "workers must return their arenas to the pool");

    let measure = |items: &[u32], schedule: &[u32]| {
        let before = ALLOCS.load(Relaxed);
        let out = sweep(items, schedule);
        let allocs = ALLOCS.load(Relaxed) - before;
        assert!(out.results.len() == items.len());
        assert!(out.results.iter().all(|r| r == &out.results[0]));
        allocs
    };

    let small_allocs = measure(&small, &schedule_small);
    let large_allocs = measure(&large, &schedule_large);

    // 10× the records must not cost more heap traffic: the steady-state
    // per-record path (claim, simulate on a warm arena, splice) is
    // allocation-free, so both sweeps pay only the constant per-sweep
    // overhead (2 thread spawns + pre-sized result/schedule vectors).
    assert!(
        large_allocs <= small_allocs + 8,
        "sweep allocations scale with record count: {small_allocs} for 16 records, \
         {large_allocs} for 160"
    );
}

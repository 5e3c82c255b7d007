//! Zero-allocation steady state: once a [`SimArena`] has been warmed up
//! on a method, re-executing it (scripted, ideal interconnect) must not
//! touch the heap at all — the timing wheel, the struct-of-arrays node
//! slabs, and the alloc-free compute path cover every event the loop
//! processes.
//!
//! A contended-interconnect run builds a fresh [`ContendedNet`] per
//! execution, so it cannot be literally zero-alloc — but because the
//! router slabs are sized from the config dimensions up front, its
//! per-run allocation count must be a small constant (the two slabs plus
//! the hotspot report), never traffic-dependent.
//!
//! The counting `#[global_allocator]` counts per thread: each measured
//! window reads only the allocations its own thread made, so the test
//! harness's threads and a concurrently running test cannot show up in
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use javaflow_bytecode::asm::assemble;
use javaflow_fabric::{
    execute_in, execute_pair_in, load, ArenaPool, BranchMode, ExecParams, FabricConfig, NetKind,
    Outcome, SimArena,
};

struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates verbatim to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
fn warm_scripted_run_does_not_allocate() {
    let p = assemble(SUM_LOOP).unwrap();
    let (_, m) = p.method_by_name("sum").unwrap();
    let config = FabricConfig::compact2();
    let loaded = load(m, &config).unwrap();
    let mut arena = SimArena::new();

    let run = |arena: &mut SimArena| {
        execute_in(
            &loaded,
            &config,
            ExecParams { mode: BranchMode::Bp1, ..ExecParams::default() },
            arena,
        )
    };

    // Warm-up: sizes the arena slabs and wheel buckets for this method,
    // and initializes process-level lazy state (trace-env lookups).
    let warm = run(&mut arena);
    assert!(matches!(warm.outcome, Outcome::Returned(_)), "warm-up run: {:?}", warm.outcome);
    assert!(warm.executed > 20, "the loop should iterate (bp back jumps taken 9 of 10)");

    // Measured runs: the steady state must be allocation-free. (No
    // `format!` in this window — the checks themselves must not touch
    // the heap on the success path.)
    let before = allocs();
    for _ in 0..3 {
        let report = run(&mut arena);
        assert!(report.outcome == warm.outcome);
        assert!(report.executed == warm.executed);
        assert!(report.events == warm.events);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "warm simulation runs must not allocate");

    // Contended phase: every run constructs a fresh `ContendedNet`, whose
    // link/node slabs are preallocated from the config dimensions, plus
    // one hotspot vector in the report. The count per warm run must be a
    // small constant — identical across runs and independent of traffic —
    // or the router state has regressed to resize-on-demand.
    let contended = config.clone().with_net(NetKind::Contended);
    let loaded_c = load(m, &contended).unwrap();
    let run_c = |arena: &mut SimArena| {
        execute_in(
            &loaded_c,
            &contended,
            ExecParams { mode: BranchMode::Bp1, ..ExecParams::default() },
            arena,
        )
    };
    let warm_c = run_c(&mut arena);
    assert!(
        matches!(warm_c.outcome, Outcome::Returned(_)),
        "contended warm-up: {:?}",
        warm_c.outcome
    );
    assert!(warm_c.net.is_some(), "contended run must carry a net report");

    let mut per_run = [0u64; 3];
    for slot in &mut per_run {
        let before = allocs();
        let report = run_c(&mut arena);
        *slot = allocs() - before;
        assert!(report.outcome == warm_c.outcome);
        assert!(report.events == warm_c.events);
    }
    assert!(per_run[0] == per_run[1] && per_run[1] == per_run[2]);
    assert!(
        per_run[0] <= 8,
        "contended run allocated {} times (want a small constant)",
        per_run[0]
    );

    // Arena-pool phase: the sweep scheduler's per-worker lifecycle is
    // checkout → run batches → checkin. Once the pool's free list has
    // capacity (one warm cycle), that whole loop must be allocation-free:
    // a warm checkout pops a parked arena, the run reuses its slabs, and
    // the checkin pushes within capacity.
    let pool = ArenaPool::new();
    pool.checkin(arena); // park the warmed arena; sizes the free list
    let warm_cycle = {
        let mut a = pool.checkout();
        let r = run(&mut a);
        pool.checkin(a);
        r
    };
    assert!(warm_cycle.outcome == warm.outcome);
    let before = allocs();
    for _ in 0..3 {
        let mut a = pool.checkout();
        let report = run(&mut a);
        pool.checkin(a);
        assert!(report.outcome == warm.outcome);
        assert!(report.events == warm.events);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "warm pool checkout/run/checkin cycles must not allocate");
    assert_eq!(pool.warm_len(), 1, "every checkout must come back to the pool");
}

/// A counting loop with a forward conditional in its body, so a
/// BP-1/BP-2 pair forks on the first iteration.
const BRANCHY_LOOP: &str = ".method branchy args=1 returns=true locals=3
   iconst_0
   istore 1
 top:
   iload 0
   iconst_2
   irem
   ifeq @even
   iinc 1 1
 even:
   iinc 0 -1
   iload 0
   ifgt @top
   iload 1
   ireturn
 .end";

#[test]
fn warm_scripted_pair_does_not_allocate() {
    let p = assemble(BRANCHY_LOOP).unwrap();
    let (_, m) = p.method_by_name("branchy").unwrap();
    for net in [NetKind::Ideal, NetKind::Contended] {
        let config = FabricConfig::compact2().with_net(net);
        let loaded = load(m, &config).unwrap();
        let (mut arena, mut twin) = (SimArena::new(), SimArena::new());
        let mut run = || execute_pair_in(&loaded, &config, 1_000_000, &mut arena, &mut twin);

        // Warm-up: sizes both arenas for this method. The pair must fork.
        let warm = run();
        assert!(matches!(warm.bp1.outcome, Outcome::Returned(_)), "{:?}", warm.bp1.outcome);
        assert!(matches!(warm.bp2.outcome, Outcome::Returned(_)), "{:?}", warm.bp2.outcome);
        assert!(0 < warm.bp2_inherited && warm.bp2_inherited < warm.bp1.events);

        let mut per_pair = [0u64; 3];
        for slot in &mut per_pair {
            let before = allocs();
            let pair = run();
            *slot = allocs() - before;
            assert!(pair.bp1.events == warm.bp1.events && pair.bp2.events == warm.bp2.events);
            assert!(pair.bp2_inherited == warm.bp2_inherited);
        }
        match net {
            // Ideal: the fork copies into the warm twin's capacity.
            NetKind::Ideal => assert_eq!(per_pair, [0; 3], "warm ideal pairs must not allocate"),
            // Contended: each run's net model and report, plus the copy of
            // the model at the fork — the same count every pair.
            NetKind::Contended => {
                assert!(per_pair[0] == per_pair[1] && per_pair[1] == per_pair[2]);
                assert!(per_pair[0] <= 16, "contended pair allocated {} times", per_pair[0]);
            }
        }
    }
}

#[test]
fn pool_checkin_drops_arenas_above_the_retain_cap() {
    // A long-lived server process absorbs bursts of wide concurrency;
    // every worker checks its arena back in when the burst drains. The
    // pool must not retain all of them forever — checkins above the
    // high-water mark drop the arena (freeing its slabs) instead of
    // parking it.
    let pool = ArenaPool::new();
    let cap = ArenaPool::default_retain_cap();
    let burst: Vec<SimArena> = (0..cap + 2).map(|_| pool.checkout()).collect();
    assert_eq!(pool.warm_len(), 0);
    for arena in burst {
        pool.checkin(arena);
    }
    assert_eq!(pool.warm_len(), cap, "checkin must cap retention at the high-water mark");

    // Checkout hands out parked arenas first; checking them back in
    // refills the pool to the cap, no further.
    let a = pool.checkout();
    let b = pool.checkout();
    assert_eq!(pool.warm_len(), cap - 2);
    pool.checkin(a);
    pool.checkin(b);
    assert_eq!(pool.warm_len(), cap);

    // The default cap scales with the machine but never collapses.
    assert!(cap >= 4);
}

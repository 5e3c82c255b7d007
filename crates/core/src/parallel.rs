//! The sweep scheduler: chunked work-stealing with cost-ordered dispatch.
//!
//! The harness's per-record work is pure (each record's simulation touches
//! nothing shared), so the sweep parallelizes as a deterministic map. The
//! original implementation claimed one record per `fetch_add`, which put an
//! exclusive-mode cache-line transfer on a single counter between every
//! pair of ~microsecond runs; once the timing-wheel kernel collapsed
//! per-run cost, that coordination overhead ate
//! the whole parallel win (`parallel_speedup` ≈ 1.0 at any core count).
//!
//! [`sweep_ordered`] restructures the workers so coordination is amortized
//! over *batches*:
//!
//! * **Chunked claims.** Workers claim contiguous batches of schedule
//!   positions from a shared cursor — guided self-scheduling, batch size
//!   `remaining / (threads × 4)` capped at [`MAX_BATCH`] and halving
//!   toward the tail — so the shared atomic is touched once per batch, not
//!   once per record.
//! * **Work stealing.** Each worker exposes its in-progress batch as a
//!   packed `(cursor, end)` range in a cache-line-padded atomic; an idle
//!   worker with nothing left to claim steals the upper half of a victim's
//!   remaining range. Load imbalance from a long-tail cost distribution
//!   (the `events_per_run` histogram spans 18 … 548k events) therefore
//!   self-corrects without any per-record locking.
//! * **Cost-ordered dispatch.** The caller passes a `schedule` — a
//!   permutation of record indices, typically descending by predicted
//!   cost (see `Evaluation::run`) — so the stragglers start first and the
//!   cheap tail fills the gaps, bounding the join wait by one record
//!   instead of one record *started last*.
//! * **Order-preserving splice.** Workers append `(index, result)` pairs
//!   to pre-sized private slabs; the join splices them back by original
//!   index in O(n) with no sort. Output is bit-identical to the serial
//!   map at any thread count and under any schedule or steal pattern.
//!
//! Worker states (e.g. simulation arenas) are built by `state_init` and
//! handed back through `state_done`, which lets the harness keep arenas
//! warm in a pool across whole sweeps. Built on [`std::thread::scope`] —
//! no runtime dependency.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Upper bound on one claimed batch, in records. Keeps early batches
/// stealable: with a cost-descending schedule the head of the queue holds
/// the expensive records, and a cap bounds how much predicted work a
/// single claim can hoard before thieves can redistribute it.
const MAX_BATCH: usize = 32;

/// Parses a `JAVAFLOW_THREADS` override: `None` when unset, `Ok(n)` for a
/// valid count ≥ 1, `Err(raw)` for a rejected value.
fn thread_override(v: Option<&std::ffi::OsStr>) -> Option<Result<usize, String>> {
    let v = v?;
    match v.to_str().and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n >= 1) {
        Some(n) => Some(Ok(n)),
        None => Some(Err(v.to_string_lossy().into_owned())),
    }
}

/// Worker-thread count: the `JAVAFLOW_THREADS` environment override when
/// set (and ≥ 1), otherwise [`std::thread::available_parallelism`].
///
/// An invalid override (`0`, `abc`, …) is rejected with a one-line stderr
/// warning naming the value, then falls back to available parallelism —
/// silently running serial because of a typo'd variable wastes every
/// core.
#[must_use]
pub fn default_threads() -> usize {
    match thread_override(std::env::var_os("JAVAFLOW_THREADS").as_deref()) {
        Some(Ok(n)) => return n,
        Some(Err(raw)) => eprintln!(
            "JAVAFLOW_THREADS: ignoring invalid value `{raw}` (want an integer >= 1); \
             falling back to available parallelism"
        ),
        None => {}
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One worker's share of a sweep, for the utilization block of the
/// `BENCH_*.json` artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerStats {
    /// Records this worker executed.
    pub records_done: u64,
    /// Wall time spent inside the per-record closure (excludes claim,
    /// steal, and idle time).
    pub busy_secs: f64,
    /// Batches claimed from the shared queue.
    pub batches: u64,
    /// Batches stolen from other workers' in-progress ranges.
    pub steals: u64,
}

/// Scheduling telemetry from one sweep. Unlike the results, the stats are
/// *not* deterministic — they describe the actual claim/steal pattern.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Workers actually spawned (`min(threads, items)`; 1 = inline).
    pub threads_used: usize,
    /// Per-worker utilization, index = worker id.
    pub workers: Vec<WorkerStats>,
}

impl SweepStats {
    /// Adapts the per-worker stats into the analysis crate's
    /// serialization-side [`WorkerUtilization`] rows (the `"utilization"`
    /// block of the `BENCH_*.json` artifacts and the server's metrics
    /// frames). Lives here because `analysis` cannot see this crate's
    /// types — the dependency points the other way.
    #[must_use]
    pub fn utilization(&self) -> Vec<javaflow_analysis::report_json::WorkerUtilization> {
        self.workers
            .iter()
            .map(|w| javaflow_analysis::report_json::WorkerUtilization {
                records_done: w.records_done,
                busy_secs: w.busy_secs,
                batches: w.batches,
                steals: w.steals,
            })
            .collect()
    }

    fn inline(records: u64, busy_secs: f64) -> SweepStats {
        SweepStats {
            threads_used: 1,
            workers: vec![WorkerStats { records_done: records, busy_secs, batches: 1, steals: 0 }],
        }
    }
}

/// Results plus scheduling telemetry from [`sweep_ordered`].
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// Per-item results, in item order (not schedule order).
    pub results: Vec<R>,
    /// Scheduling telemetry.
    pub stats: SweepStats,
}

/// A worker's in-progress range of schedule positions, packed
/// `(cursor, end)` into one atomic so owner pops and thief splits are
/// single CAS operations. Padded to its own cache line: the whole point
/// of batching is that workers advance private cursors without
/// invalidating each other's lines.
#[repr(align(128))]
#[derive(Default)]
struct WorkerSlot {
    range: AtomicU64,
}

fn pack(cursor: u32, end: u32) -> u64 {
    (u64::from(end) << 32) | u64::from(cursor)
}

fn unpack(v: u64) -> (u32, u32) {
    (v as u32, (v >> 32) as u32)
}

impl WorkerSlot {
    /// Owner side: takes the next position of the current batch.
    fn pop(&self) -> Option<u32> {
        let mut cur = self.range.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            match self.range.compare_exchange_weak(
                cur,
                pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Installs a freshly claimed or stolen batch (the slot must be
    /// drained — only the owner installs).
    fn install(&self, lo: u32, hi: u32) {
        self.range.store(pack(lo, hi), Ordering::Release);
    }

    /// Thief side: splits off the upper half of the victim's remaining
    /// range. A single leftover item stays with its owner.
    fn steal_half(&self) -> Option<(u32, u32)> {
        let mut cur = self.range.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if hi.saturating_sub(lo) < 2 {
                return None;
            }
            let mid = lo + (hi - lo) / 2;
            match self.range.compare_exchange_weak(
                cur,
                pack(lo, mid),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((mid, hi)),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// The shared claim queue: a cursor over `0..len` schedule positions,
/// handed out in guided batches (`remaining / (threads × 4)`, clamped to
/// `1..=MAX_BATCH`) so batch size halves toward the tail and the final
/// records interleave finely across workers.
struct ClaimQueue {
    cursor: AtomicUsize,
    len: usize,
    threads: usize,
}

impl ClaimQueue {
    fn claim(&self) -> Option<(u32, u32)> {
        let mut cur = self.cursor.load(Ordering::Relaxed);
        loop {
            if cur >= self.len {
                return None;
            }
            let remaining = self.len - cur;
            let batch = (remaining / (self.threads * 4)).clamp(1, MAX_BATCH);
            match self.cursor.compare_exchange_weak(
                cur,
                cur + batch,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some((cur as u32, (cur + batch) as u32)),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Maps `f` over `items` on up to `threads` workers, dispatching in
/// `schedule` order (a permutation of `0..items.len()`, typically
/// descending by predicted cost) with chunked work-stealing, and splices
/// the results back **in item order**. Each worker carries a reusable
/// state built by `state_init` and released through `state_done` (e.g. a
/// simulation arena checked out of / returned to a warm pool).
///
/// With `threads == 1` (or ≤ 1 item) the map runs inline on the calling
/// thread in schedule order — the serial path exercises the same dispatch
/// order as the parallel one.
///
/// # Panics
///
/// Propagates worker panics; panics if `schedule` is not a permutation of
/// `0..items.len()` (debug builds check explicitly, release builds panic
/// on the resulting splice hole) or if `items.len()` exceeds `u32::MAX`.
pub fn sweep_ordered<T, S, R>(
    items: &[T],
    threads: usize,
    schedule: &[u32],
    state_init: impl Fn() -> S + Sync,
    state_done: impl Fn(S) + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> SweepOutcome<R>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    assert!(n <= u32::MAX as usize, "sweep is limited to u32::MAX items");
    assert_eq!(schedule.len(), n, "schedule must cover every item exactly once");
    debug_assert!(
        {
            let mut seen = vec![false; n];
            schedule.iter().all(|&p| {
                let fresh = (p as usize) < n && !seen[p as usize];
                if fresh {
                    seen[p as usize] = true;
                }
                fresh
            })
        },
        "schedule is not a permutation of 0..{n}"
    );

    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        let start = Instant::now();
        let mut state = state_init();
        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        for &pos in schedule {
            let i = pos as usize;
            results[i] = Some(f(&mut state, i, &items[i]));
        }
        state_done(state);
        let results: Vec<R> =
            results.into_iter().map(|r| r.expect("schedule covered every item")).collect();
        return SweepOutcome {
            results,
            stats: SweepStats::inline(n as u64, start.elapsed().as_secs_f64()),
        };
    }

    let queue = ClaimQueue { cursor: AtomicUsize::new(0), len: n, threads };
    let slots: Vec<WorkerSlot> = (0..threads).map(|_| WorkerSlot::default()).collect();

    let mut per_worker: Vec<(Vec<(u32, R)>, WorkerStats)> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (queue, slots, schedule) = (&queue, &slots, schedule);
                let (state_init, state_done, f) = (&state_init, &state_done, &f);
                scope.spawn(move || {
                    let mut state = state_init();
                    let mut out: Vec<(u32, R)> = Vec::with_capacity(n);
                    let mut stats = WorkerStats::default();
                    'work: loop {
                        // Drain the current batch from the worker's own
                        // slot (thieves may shrink it concurrently).
                        while let Some(pos) = slots[w].pop() {
                            let i = schedule[pos as usize] as usize;
                            let t = Instant::now();
                            out.push((i as u32, f(&mut state, i, &items[i])));
                            stats.busy_secs += t.elapsed().as_secs_f64();
                            stats.records_done += 1;
                        }
                        // Claim the next guided batch.
                        if let Some((lo, hi)) = queue.claim() {
                            slots[w].install(lo, hi);
                            stats.batches += 1;
                            continue;
                        }
                        // Nothing left to claim: steal half of a victim's
                        // remaining batch. Two sweeps with a yield in
                        // between, so a batch installed concurrently with
                        // the first sweep is still picked up.
                        for attempt in 0..2 {
                            for off in 1..threads {
                                let v = (w + off) % threads;
                                if let Some((lo, hi)) = slots[v].steal_half() {
                                    slots[w].install(lo, hi);
                                    stats.steals += 1;
                                    continue 'work;
                                }
                            }
                            if attempt == 0 {
                                std::thread::yield_now();
                            }
                        }
                        break;
                    }
                    state_done(state);
                    (out, stats)
                })
            })
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("evaluation worker panicked"));
        }
    });

    // Splice: pre-sized slab filled by original index — O(n), no sort,
    // and each worker's slab was private so nothing false-shared.
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let mut workers = Vec::with_capacity(threads);
    for (out, stats) in per_worker {
        for (i, r) in out {
            debug_assert!(results[i as usize].is_none(), "item {i} produced twice");
            results[i as usize] = Some(r);
        }
        workers.push(stats);
    }
    let results: Vec<R> =
        results.into_iter().map(|r| r.expect("a schedule position was never claimed")).collect();
    SweepOutcome { results, stats: SweepStats { threads_used: threads, workers } }
}

/// Maps `f` over `items` on up to `threads` worker threads in item order,
/// each worker carrying a reusable state built by `state_init` (e.g. a
/// simulation arena). Results come back in item order.
///
/// This is [`sweep_ordered`] with the identity schedule and no state
/// hand-back; callers that want cost-ordered dispatch, pooled states, or
/// the utilization stats use [`sweep_ordered`] directly.
///
/// # Panics
///
/// Propagates worker panics.
pub fn par_map_with<T, S, R>(
    items: &[T],
    threads: usize,
    state_init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let identity: Vec<u32> = (0..items.len() as u32).collect();
    sweep_ordered(items, threads, &identity, state_init, |_| (), f).results
}

/// Stateless [`par_map_with`].
pub fn par_map<T, R>(items: &[T], threads: usize, f: impl Fn(usize, &T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    par_map_with(items, threads, || (), |(), i, t| f(i, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(&items, 1, |i, x| x * 2 + i as u64);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, |i, x| x * 2 + i as u64), serial);
        }
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        // Each worker's state counts its own items; totals must cover all
        // items exactly once.
        use std::sync::atomic::AtomicUsize;
        static TOTAL: AtomicUsize = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let out = par_map_with(
            &items,
            4,
            || 0usize,
            |seen, _, x| {
                *seen += 1;
                TOTAL.fetch_add(1, Ordering::Relaxed);
                *x
            },
        );
        assert_eq!(out, items);
        assert_eq!(TOTAL.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn arbitrary_schedules_still_splice_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(&items, 1, |i, x| x * 3 + i as u64);
        // Reversed, interleaved, and identity dispatch orders all produce
        // the same item-ordered output.
        let n = items.len() as u32;
        let reversed: Vec<u32> = (0..n).rev().collect();
        let mut interleaved: Vec<u32> = (0..n).step_by(2).collect();
        interleaved.extend((1..n).step_by(2));
        for schedule in [&reversed, &interleaved] {
            for threads in [1, 3, 7] {
                let got = sweep_ordered(
                    &items,
                    threads,
                    schedule,
                    || (),
                    |()| (),
                    |(), i, x| x * 3 + i as u64,
                );
                assert_eq!(got.results, serial);
                assert_eq!(got.stats.threads_used, threads.min(items.len()));
                let done: u64 = got.stats.workers.iter().map(|w| w.records_done).sum();
                assert_eq!(done, items.len() as u64);
            }
        }
    }

    #[test]
    fn states_are_handed_back_through_state_done() {
        use std::sync::atomic::AtomicUsize;
        static RETURNED: AtomicUsize = AtomicUsize::new(0);
        RETURNED.store(0, Ordering::Relaxed);
        let items: Vec<u32> = (0..64).collect();
        let schedule: Vec<u32> = (0..64).collect();
        let out = sweep_ordered(
            &items,
            4,
            &schedule,
            || 7usize,
            |_state| {
                RETURNED.fetch_add(1, Ordering::Relaxed);
            },
            |_, _, x| *x,
        );
        assert_eq!(out.results, items);
        // One state per spawned worker comes back through the hook.
        assert_eq!(RETURNED.load(Ordering::Relaxed), out.stats.threads_used);
    }

    #[test]
    fn slot_steal_takes_upper_half_and_leaves_singletons() {
        let slot = WorkerSlot::default();
        slot.install(10, 20);
        assert_eq!(slot.steal_half(), Some((15, 20)));
        assert_eq!(slot.pop(), Some(10));
        slot.install(5, 6);
        assert_eq!(slot.steal_half(), None, "a single item stays with its owner");
        assert_eq!(slot.pop(), Some(5));
        assert_eq!(slot.pop(), None);
    }

    #[test]
    fn guided_batches_shrink_toward_the_tail() {
        let q = ClaimQueue { cursor: AtomicUsize::new(0), len: 1600, threads: 4 };
        let (first_lo, first_hi) = q.claim().unwrap();
        assert_eq!(first_lo, 0);
        assert!((first_hi - first_lo) as usize <= MAX_BATCH);
        let mut last = (first_hi - first_lo) as usize;
        let mut total = last;
        while let Some((lo, hi)) = q.claim() {
            let size = (hi - lo) as usize;
            assert!(size <= last.max(1), "batches must not grow toward the tail");
            assert!(size >= 1);
            last = size;
            total += size;
        }
        assert_eq!(total, 1600, "claims must cover the queue exactly");
        assert_eq!(last, 1, "the tail hands out single records");
    }

    #[test]
    fn thread_override_parses_and_rejects() {
        use std::ffi::OsStr;
        assert_eq!(thread_override(None), None);
        assert_eq!(thread_override(Some(OsStr::new("4"))), Some(Ok(4)));
        assert_eq!(thread_override(Some(OsStr::new(" 2 "))), Some(Ok(2)));
        assert_eq!(thread_override(Some(OsStr::new("0"))), Some(Err("0".into())));
        assert_eq!(thread_override(Some(OsStr::new("abc"))), Some(Err("abc".into())));
        assert_eq!(thread_override(Some(OsStr::new(""))), Some(Err(String::new())));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}

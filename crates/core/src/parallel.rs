//! The sweep scheduler: one shared cursor, one record per claim.
//!
//! The harness's per-record work is pure (each record's simulation touches
//! nothing shared), so the sweep parallelizes as a deterministic map.
//! [`sweep_ordered`] runs one worker loop:
//!
//! * **One cursor.** Every claim is a single `fetch_add(1)` on one shared
//!   `AtomicUsize` over the `schedule`, so each worker takes exactly one
//!   record per claim. A record runs twelve scripted simulations
//!   (six configurations × BP-1/BP-2), so one atomic per record costs
//!   nothing next to the work it hands out, and the single-record tail
//!   balances the workers without batches or stealing.
//! * **Static-length order.** The caller passes a `schedule` — a
//!   permutation of record indices, in the harness descending by static
//!   length, ties by index (see `Evaluation::run`) — so the long records
//!   start first and the short tail fills the gaps at the join.
//! * **One loop for every thread count.** With `threads == 1` the calling
//!   thread runs the same loop inline; otherwise scoped threads run it.
//! * **Order-preserving splice.** Workers append `(index, result)` pairs
//!   to private slabs; the join splices them back by original index in
//!   O(n) with no sort. Output is bit-identical to the serial map at any
//!   thread count and under any schedule.
//!
//! Worker states (e.g. simulation arenas) are built by `state_init` and
//! handed back through `state_done`, which lets the harness keep arenas
//! warm in a pool across whole sweeps. Built on [`std::thread::scope`] —
//! no runtime dependency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

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
    /// Wall time spent inside the per-record closure (excludes claim and
    /// idle time).
    pub busy_secs: f64,
    /// Always 0: the scheduler has one shared cursor and nothing to steal.
    /// Kept because the benchmark reads it (`parallel.steals`).
    pub steals: u64,
}

/// Scheduling telemetry from one sweep. Unlike the results, the stats are
/// *not* deterministic — they describe which worker claimed which record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Workers that ran the claim loop (`min(threads, items)`, at least
    /// 1; 1 = inline on the calling thread).
    pub threads_used: usize,
    /// Per-worker utilization, index = worker id.
    pub workers: Vec<WorkerStats>,
}

impl SweepStats {
    /// Renders the per-worker stats as the `"utilization"` array of the
    /// `BENCH_*.json` artifacts. The layout is load-bearing — CI reads
    /// these keys.
    #[must_use]
    pub fn utilization_json(&self) -> String {
        let rows: Vec<String> = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "{{\"worker\": {i}, \"records_done\": {}, \"busy_secs\": {:.3}}}",
                    w.records_done, w.busy_secs
                )
            })
            .collect();
        format!("[{}]", rows.join(", "))
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

/// Maps `f` over `items` on up to `threads` workers, dispatching in
/// `schedule` order (a permutation of `0..items.len()`) one record per
/// claim from a shared cursor, and splices the results back **in item
/// order**. Each worker carries a reusable state built by `state_init`
/// and released through `state_done` (e.g. a simulation arena checked out
/// of / returned to a warm pool).
///
/// With `threads == 1` (or ≤ 1 item) the calling thread runs the same
/// claim loop inline, so the serial path dispatches in the same order as
/// the parallel one.
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

    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = state_init();
        let mut out: Vec<(u32, R)> = Vec::with_capacity(n);
        let mut stats = WorkerStats::default();
        while let Some(&i) = schedule.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let t = Instant::now();
            out.push((i, f(&mut state, i as usize, &items[i as usize])));
            stats.busy_secs += t.elapsed().as_secs_f64();
            stats.records_done += 1;
        }
        state_done(state);
        (out, stats)
    };

    let threads = threads.max(1).min(n.max(1));
    let per_worker: Vec<(Vec<(u32, R)>, WorkerStats)> = if threads == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            handles.into_iter().map(|h| h.join().expect("evaluation worker panicked")).collect()
        })
    };

    // Splice: pre-sized slab filled by original index — O(n), no sort.
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

/// Maps `f` over `items` on up to `threads` workers in item order, with no
/// per-worker state. Results come back in item order.
///
/// # Panics
///
/// Propagates worker panics.
pub fn par_map<T, R>(items: &[T], threads: usize, f: impl Fn(usize, &T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let identity: Vec<u32> = (0..items.len() as u32).collect();
    sweep_ordered(items, threads, &identity, || (), |()| (), |(), i, t| f(i, t)).results
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
        // Each worker's state counts the items it ran. The counts handed
        // back through `state_done` must match the workers'
        // `records_done` and cover every item exactly once.
        let handed_back = std::sync::Mutex::new(Vec::new());
        let items: Vec<u32> = (0..1000).collect();
        let out = sweep_ordered(
            &items,
            4,
            &items,
            || 0u64,
            |seen| handed_back.lock().unwrap().push(seen),
            |seen, _, x| {
                *seen += 1;
                *x
            },
        );
        assert_eq!(out.results, items);
        let mut counts = handed_back.into_inner().unwrap();
        let mut done: Vec<u64> = out.stats.workers.iter().map(|w| w.records_done).collect();
        counts.sort_unstable();
        done.sort_unstable();
        assert_eq!(counts, done);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
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
    fn utilization_layout_matches_the_bench_artifacts() {
        let stats = SweepStats {
            threads_used: 2,
            workers: vec![
                WorkerStats { records_done: 7, busy_secs: 0.1234, steals: 0 },
                WorkerStats { records_done: 5, busy_secs: 0.1, steals: 0 },
            ],
        };
        assert_eq!(
            stats.utilization_json(),
            "[{\"worker\": 0, \"records_done\": 7, \"busy_secs\": 0.123}, \
             {\"worker\": 1, \"records_done\": 5, \"busy_secs\": 0.100}]"
        );
        assert_eq!(SweepStats::default().utilization_json(), "[]");
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

//! Adversarial scheduling tests for the one-cursor sweep: a long-tail
//! cost distribution must not hold the join hostage, output must stay
//! order-preserving under any schedule, and worker panics must propagate.

use std::time::{Duration, Instant};

use javaflow_core::parallel::{par_map, sweep_ordered};

/// Simulated per-item work: sleeping (rather than spinning) makes the
/// test's parallelism real even on a single-core runner, and keeps the
/// costs independent of machine speed.
fn busy(cost: Duration) {
    std::thread::sleep(cost);
}

/// Builds the harness's dispatch order: descending cost, ties by index.
fn descending_schedule(costs: &[u64]) -> Vec<u32> {
    let mut schedule: Vec<u32> = (0..costs.len() as u32).collect();
    schedule.sort_by(|&a, &b| costs[b as usize].cmp(&costs[a as usize]).then(a.cmp(&b)));
    schedule
}

#[test]
fn long_tail_is_scheduled_first_and_does_not_hold_the_join() {
    // The adversarial distribution from the events_per_run histogram: one
    // 100×-cost straggler hiding in 1000 uniform records.
    const UNIFORM_US: u64 = 40;
    const HEAVY_INDEX: usize = 700;
    let costs: Vec<u64> =
        (0..1001).map(|i| if i == HEAVY_INDEX { UNIFORM_US * 100 } else { UNIFORM_US }).collect();

    let schedule = descending_schedule(&costs);
    assert_eq!(
        schedule[0] as usize, HEAVY_INDEX,
        "cost-ordered dispatch must start the straggler first"
    );

    let run = |threads: usize| {
        let start = Instant::now();
        let out = sweep_ordered(
            &costs,
            threads,
            &schedule,
            || (),
            |()| (),
            |(), i, &c| {
                busy(Duration::from_micros(c));
                i as u64 * 2
            },
        );
        (out, start.elapsed())
    };

    let (serial, serial_elapsed) = run(1);
    let (parallel, parallel_elapsed) = run(4);

    // Order-preserving output: the splice is by original index.
    let expect: Vec<u64> = (0..costs.len() as u64).map(|i| i * 2).collect();
    assert_eq!(serial.results, expect);
    assert_eq!(parallel.results, expect);

    // Join-wait bound: four workers over sleep-based work must beat the
    // serial wall time by a wide margin even under CI noise. A scheduler
    // that starts the straggler last (or lets one worker hoard it behind
    // a large batch) pays nearly the serial time again at the join and
    // fails this bound.
    assert!(
        parallel_elapsed < serial_elapsed.mul_f64(0.6),
        "parallel sweep {parallel_elapsed:?} did not beat serial {serial_elapsed:?} by ≥ 40%"
    );

    // The work must actually have been distributed.
    let stats = &parallel.stats;
    assert_eq!(stats.threads_used, 4);
    assert_eq!(stats.workers.iter().map(|w| w.records_done).sum::<u64>(), costs.len() as u64);
    assert!(
        stats.workers.iter().filter(|w| w.records_done > 0).count() >= 2,
        "only one worker did any work: {stats:?}"
    );
}

#[test]
fn worker_panic_propagates_to_the_caller() {
    let items: Vec<u32> = (0..256).collect();
    let result = std::panic::catch_unwind(|| {
        par_map(&items, 4, |i, &x| {
            assert!(i != 171, "injected worker failure");
            x
        })
    });
    assert!(result.is_err(), "a panicking worker must fail the sweep, not drop its records");
}

#[test]
fn an_expensive_schedule_head_is_split_across_workers() {
    // Cost-descending dispatch puts the 8 expensive records at the head
    // of the schedule. One-record claims must split them between the two
    // workers rather than let one worker take them all while the other
    // burns through the 56 free items and idles at the join.
    let costs: Vec<u64> = (0..64).map(|i| if i < 8 { 20_000 } else { 0 }).collect();
    let schedule = descending_schedule(&costs);
    let start = Instant::now();
    let out = sweep_ordered(
        &costs,
        2,
        &schedule,
        || (),
        |()| (),
        |(), i, &c| {
            busy(Duration::from_micros(c));
            i
        },
    );
    let elapsed = start.elapsed();
    assert_eq!(out.results, (0..64).collect::<Vec<_>>());
    assert_eq!(out.stats.workers.iter().map(|w| w.records_done).sum::<u64>(), 64);
    // 8 × 20ms of sleeps split across two workers: well under the 160ms
    // a schedule that hands them all to one worker would take.
    assert!(
        elapsed < Duration::from_millis(145),
        "sweep took {elapsed:?}; the expensive head is not actually running in parallel"
    );
}

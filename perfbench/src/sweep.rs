//! `sweep-1500`: the dissertation's Chapter 7 evaluation, in-process.
//!
//! The fixed 1595-record population (suite + synthetic 1500) swept over
//! the six Table 15 configurations under BP-1 and BP-2 — 19,140 scripted
//! runs per sweep — on two threads through
//! `PreparedPopulation::evaluate`. The kernel and the `core::parallel`
//! scheduler do nearly all the work; `server` and `protocol` are not on
//! this path. The population takes no seed, so the seed is recorded and
//! otherwise unused.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use javaflow_core::tables::chapter7_tables;
use javaflow_core::{EvalConfig, Evaluation, Filter, MethodStatics, PreparedPopulation, Sample};

use crate::util::{
    compile_declines, counted, fom_err, median, num, num_array, peak_rss_mb, quantile,
    setup_layers, timed, HostSpeed, Report,
};
use crate::Args;

const SYNTHETIC: usize = 1500;
const THREADS: usize = 2;
/// Records per streamed batch, as `javaflow-serve` streams by default.
const BATCH: usize = 16;
/// First-batch probes per measurement cycle.
const PROBES: usize = 2;
/// Traced passes per layer in a `--trace 1` run.
const TRACE_PASSES: usize = 6;

fn config() -> EvalConfig {
    EvalConfig { synthetic_count: SYNTHETIC, threads: THREADS, ..EvalConfig::default() }
}

/// One set-up pass: `PreparedPopulation::prepare` builds the population
/// (`population()`), then prepares every record.
fn set_up() -> (PreparedPopulation, f64) {
    timed(|| PreparedPopulation::prepare(SYNTHETIC, THREADS))
}

/// The in-process expectation every sweep is compared against.
struct Expected {
    eval: Evaluation,
    table22: String,
    /// Each record's samples: `eval.samples[first[ri]..first[ri + 1]]`.
    first: Vec<usize>,
}

impl Expected {
    fn new(eval: Evaluation) -> Expected {
        let mut first = vec![0; eval.statics.len() + 1];
        for s in &eval.samples {
            first[s.record + 1] += 1;
        }
        for ri in 0..eval.statics.len() {
            first[ri + 1] += first[ri];
        }
        Expected { table22: chapter7_tables(&eval, 22), eval, first }
    }

    /// Whether a one-record result equals the expectation's record `ri`.
    fn matches_record(&self, ri: usize, got: &[(MethodStatics, Vec<Sample>)]) -> bool {
        let want = &self.eval.samples[self.first[ri]..self.first[ri + 1]];
        matches!(got, [(statics, samples)] if *statics == self.eval.statics[ri]
            && samples.len() == want.len()
            && samples.iter().zip(want).all(|(a, b)| same_sample(a, b)))
    }

    fn matches(&self, eval: &Evaluation) -> bool {
        eval.samples.len() == self.eval.samples.len()
            && eval.samples.iter().zip(&self.eval.samples).all(|(a, b)| same_sample(a, b))
            && eval.statics == self.eval.statics
            && chapter7_tables(eval, 22) == self.table22
    }

    /// Whether `results`, one entry per record from record 0 on, equal
    /// the expectation's first records.
    fn matches_from_start(&self, results: &[(MethodStatics, Vec<Sample>)]) -> bool {
        let mut samples = self.eval.samples.iter();
        results.len() <= self.eval.statics.len()
            && results.iter().enumerate().all(|(ri, (statics, got))| {
                *statics == self.eval.statics[ri]
                    && got.iter().all(|s| samples.next().is_some_and(|e| same_sample(s, e)))
            })
    }
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let cfg = config();

    let (pop, secs) = set_up();
    let mut setup = vec![secs];
    let eval = pop.evaluate(&cfg);
    let foms: Vec<f64> = eval.config_rows(Filter::All).iter().map(|row| row.fom.mean).collect();
    let expected = Expected::new(eval);

    if args.trace {
        trace(&pop, &expected, &mut r);
    } else {
        let mut host = HostSpeed::default();
        measure(args, &pop, &expected, &mut setup, &mut host, &mut r);
        r.timing("setup_s", median(&mut setup.clone()), &host, false);
        r.metric("fom_err", fom_err(&foms));
        r.detail("setup_passes_s", num_array(&setup));
    }
    r.detail("fom_means", num_array(&foms));
    r.detail(
        "workload",
        format!(
            "{{\"synthetic\": {SYNTHETIC}, \"records\": {}, \"runs_per_sweep\": {}, \"threads\": {THREADS}, \"batch_records\": {BATCH}, \"seed_used\": false}}",
            pop.len(),
            expected.eval.samples.len()
        ),
    );
    r
}

/// Cycles over which one pass of single-record requests is spread.
const CYCLES_PER_PASS: usize = 12;

/// Untraced measurement: cycles of a full two-thread sweep, `PROBES`
/// first-batch probes, a slice of single-record requests (one thread,
/// one after another, each timed after an untimed warm-up request for
/// the same record), the slice again from two callers at once,
/// and a set-up pass, until `--seconds` have passed and every record has
/// been requested alone at least once. Every metric is sampled in every
/// cycle, so each spreads over the whole run and a few seconds of a slow
/// host move its median little.
fn measure(
    args: &Args,
    pop: &PreparedPopulation,
    expected: &Expected,
    setup: &mut Vec<f64>,
    host: &mut HostSpeed,
    r: &mut Report,
) {
    let cfg = config();
    let serial = EvalConfig { threads: 1, ..config() };
    let n = pop.len();
    let slice = n.div_ceil(CYCLES_PER_PASS);
    let mut sweeps = Vec::new();
    let mut first_ms = Vec::new();
    let mut record_ms = vec![Vec::new(); n];
    let (mut pair_records, mut pair_secs) = (0usize, 0.0);
    let mut rss = None;
    let mut lo = 0usize;
    let start = Instant::now();
    host.sample();
    while start.elapsed().as_secs_f64() < args.seconds || record_ms.iter().any(Vec::is_empty) {
        let (eval, secs) = timed(|| pop.evaluate(&cfg));
        sweeps.push(secs);
        r.check(expected.matches(&eval));
        // The workload's footprint: set-up, the expectation and a full
        // sweep, read before a second population is built.
        rss.get_or_insert_with(|| peak_rss_mb("self").unwrap_or(f64::NAN));
        drop(eval);

        for _ in 0..PROBES {
            let t0 = Instant::now();
            let mut first = f64::NAN;
            let mut ok = false;
            let cancelled = pop.evaluate_batched(&cfg, BATCH, |lo, results| {
                first = t0.elapsed().as_secs_f64() * 1e3;
                ok = lo == 0 && expected.matches_from_start(results);
                false
            });
            r.check(ok && cancelled.is_none());
            first_ms.push(first);
        }

        let range = lo..(lo + slice).min(n);
        let mut ok = true;
        for ri in range.clone() {
            // An untimed request first, so the record's data is in cache.
            let (warm, _) = pop.sweep_range(&serial, ri, ri + 1);
            let ((res, _), secs) = timed(|| pop.sweep_range(&serial, ri, ri + 1));
            record_ms[ri].push(secs * 1e3);
            ok &= expected.matches_record(ri, &warm) && expected.matches_record(ri, &res);
        }
        r.check(ok);

        let next = AtomicUsize::new(range.start);
        let (got, secs) = timed(|| {
            std::thread::scope(|s| {
                let callers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        s.spawn(|| {
                            let mut ok = true;
                            loop {
                                let ri = next.fetch_add(1, Relaxed);
                                if ri >= range.end {
                                    return ok;
                                }
                                let (res, _) = pop.sweep_range(&serial, ri, ri + 1);
                                ok &= expected.matches_record(ri, &res);
                            }
                        })
                    })
                    .collect();
                callers.into_iter().all(|c| c.join().expect("caller panicked"))
            })
        });
        r.check(got);
        pair_records += range.len();
        pair_secs += secs;
        lo = if range.end == n { 0 } else { range.end };

        let (p, secs) = set_up();
        drop(p);
        setup.push(secs);
        host.sample();
    }
    // Each record's median over its requests, then quantiles over the
    // records.
    let mut per_record: Vec<f64> = record_ms.iter_mut().map(|v| median(v)).collect();
    r.metric("peak_rss_mb", rss.unwrap_or(f64::NAN));
    r.timing("sweep_s", median(&mut sweeps.clone()), host, false);
    r.timing("latency_p50_ms", quantile(&mut per_record, 0.5), host, false);
    r.timing("latency_p90_ms", quantile(&mut per_record, 0.9), host, false);
    r.timing("first_batch_p50_ms", median(&mut first_ms.clone()), host, false);
    r.timing("capacity_rps", pair_records as f64 / pair_secs, host, true);
    r.detail("host_reference", host.detail());
    r.detail("sweeps_s", num_array(&sweeps));
    r.detail("first_batch_ms", num_array(&first_ms));
    r.detail("cycles", format!("{}", sweeps.len()));
}

/// Sample equality that also holds for a method returning NaN (which
/// `PartialEq` never calls equal): the `Debug` rendering prints every
/// field, floats in round-trip form.
fn same_sample(a: &Sample, b: &Sample) -> bool {
    a == b || format!("{a:?}") == format!("{b:?}")
}

/// Traced run: each layer called on its own from here, timed, with
/// allocations counted; plus the untraced `evaluate` the layers should
/// add up to.
fn trace(pop: &PreparedPopulation, expected: &Expected, r: &mut Report) {
    let cfg = config();
    let n = pop.len();

    let (build_s, prepare_s, prepare_allocs) = setup_layers(&[SYNTHETIC], THREADS, TRACE_PASSES);

    // Per pass: the untraced `evaluate`, the same sweep as separate layer
    // calls, and those calls again with allocations counted, in an order
    // rotated from pass to pass. Differences are taken within a pass, so
    // neither a host slowing down between passes nor running first lands
    // in the ledger.
    let mut kernel_off = Vec::new();
    let mut assemble_off = Vec::new();
    let mut unattributed = Vec::new();
    let mut overhead = Vec::new();
    let mut tables = Vec::new();
    let mut kernel_allocs = 0u64;
    let mut last = None;
    for pass in 0..TRACE_PASSES {
        let (mut whole, mut off, mut on) = (0.0, (0.0, 0.0), (0.0, 0.0));
        for step in 0..3 {
            match (pass + step) % 3 {
                0 => {
                    let (eval, secs) = timed(|| pop.evaluate(&cfg));
                    whole = secs;
                    r.check(expected.matches(&eval));
                }
                1 => {
                    let ((results, stats), k) = timed(|| pop.sweep_range(&cfg, 0, n));
                    let (configs, records) =
                        (expected.eval.configs.clone(), pop.records().to_vec());
                    let (eval, a) =
                        timed(|| Evaluation::assemble(records, configs, results, stats));
                    off = (k, a);
                    r.check(expected.matches(&eval));
                    last = Some((eval, k));
                }
                _ => {
                    let ((results, stats), k, allocs) = counted(|| pop.sweep_range(&cfg, 0, n));
                    let (configs, records) =
                        (expected.eval.configs.clone(), pop.records().to_vec());
                    let (eval, a, _) =
                        counted(|| Evaluation::assemble(records, configs, results, stats));
                    on = (k, a);
                    kernel_allocs = allocs;
                    let (table, t) = timed(|| chapter7_tables(&eval, 22));
                    tables.push(t);
                    r.check(table == expected.table22);
                }
            }
        }
        kernel_off.push(off.0);
        assemble_off.push(off.1);
        unattributed.push((whole - off.0 - off.1) * 1e3);
        overhead.push((on.0 + on.1 - off.0 - off.1) / (off.0 + off.1) * 100.0);
    }
    let (eval, kernel_wall) = last.expect("at least one traced pass");
    let runs = eval.samples.len() as f64;
    let events: u64 = eval.samples.iter().map(|s| s.report.events).sum();
    let skipped: u64 = eval.samples.iter().map(|s| s.report.events_skipped).sum();
    let busy: Vec<f64> = eval.sweep.workers.iter().map(|w| w.busy_secs).collect();
    let busy_s: f64 = busy.iter().sum();
    let mean_busy = busy_s / busy.len().max(1) as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    let steals: u64 = eval.sweep.workers.iter().map(|w| w.steals).sum();
    let declines = compile_declines(&eval);

    let kernel_s = median(&mut kernel_off);
    let assemble_s = median(&mut assemble_off);
    let unattributed_ms = median(&mut unattributed);
    let whole_s = kernel_s + assemble_s + unattributed_ms / 1e3;
    let tables_s = median(&mut tables);

    r.metric("population.build_s", build_s);
    r.metric("prepare.s", prepare_s);
    r.metric("prepare.allocs", prepare_allocs as f64);
    r.metric("kernel.busy_s", busy_s);
    r.metric("kernel.runs", runs);
    r.metric("kernel.events", events as f64);
    r.metric("kernel.events_skipped", skipped as f64);
    r.metric("kernel.ns_per_event", busy_s * 1e9 / events as f64);
    r.metric("kernel.allocs_per_run", kernel_allocs as f64 / runs);
    r.metric("compile.replay_s", 0.0);
    r.metric("compile.declines", declines as f64);
    r.metric("parallel.utilization", busy_s / (eval.sweep.threads_used as f64 * kernel_wall));
    r.metric("parallel.imbalance", max_busy / mean_busy);
    r.metric("parallel.steals", steals as f64);
    r.metric("assemble.s", assemble_s);
    r.metric("tables.render_s", tables_s);
    r.metric("ledger.unattributed_ms", unattributed_ms);
    r.metric("trace.overhead_pct", median(&mut overhead));
    crate::bypassed(
        r,
        &[
            "render.batch_s",
            "render.done_s",
            "render.bytes_per_request",
            "parse.s",
            "server.read_p50_ms",
            "server.parse_p50_ms",
            "server.queue_p50_ms",
            "server.prepare_p50_ms",
            "server.execute_p50_ms",
            "server.stream_p50_ms",
            "server.coalesce_ratio",
            "server.sweeps",
            "server.rejected",
        ],
    );
    r.detail(
        "ledger",
        format!(
            "{{\"unit\": \"one sweep\", \"wall_s\": {w}, \"layers\": [\
             {{\"layer\": \"kernel+parallel (sweep_range)\", \"s\": {k}, \"share\": {ks}, \"allocs\": {ka}}}, \
             {{\"layer\": \"assemble\", \"s\": {a}, \"share\": {as_}}}, \
             {{\"layer\": \"unattributed\", \"s\": {u}, \"share\": {us}}}], \
             \"after_sweep\": [{{\"layer\": \"tables (Table 22)\", \"s\": {t}}}]}}",
            w = num(whole_s),
            k = num(kernel_s),
            ks = num(kernel_s / whole_s),
            ka = kernel_allocs,
            a = num(assemble_s),
            as_ = num(assemble_s / whole_s),
            u = num(unattributed_ms / 1e3),
            us = num(unattributed_ms / 1e3 / whole_s),
            t = num(tables_s),
        ),
    );
}

//! The Chapter 7 measurement harness.
//!
//! [`Evaluation::run`] executes the whole population on every machine
//! configuration under both branch-predictor scripts (BP-1/BP-2), exactly
//! as the dissertation's simulation runs did, and exposes accessors that
//! regenerate each results table: raw IPC and Figure-of-Merit summaries
//! under the Table 16 filters, coverage, node-span ratios, parallelism,
//! correlations, and the per-benchmark hot-method breakdowns of
//! Tables 27/28.

use std::collections::HashMap;
use std::sync::Arc;

use javaflow_analysis::{pearson, Summary};
use javaflow_bytecode::{verify, Cfg};
use javaflow_fabric::{
    execute_pair_in, place, resolve, BranchMode, ExecReport, FabricConfig, MetricsRegistry,
    NetKind, Outcome, ResolveStats, SimArena,
};
use javaflow_workloads::SuiteKind;

use crate::parallel::{default_threads, SweepStats};
use crate::{Filter, MethodRecord, PreparedPopulation};

/// Evaluation parameters.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Synthetic-population size added to the suite methods.
    pub synthetic_count: usize,
    /// Per-run mesh-cycle budget (the dissertation's timeout filter).
    pub max_mesh_cycles: u64,
    /// Machine configurations to evaluate (defaults to the Table 15 six).
    pub configs: Vec<FabricConfig>,
    /// Worker threads for the sweep (defaults to the `JAVAFLOW_THREADS`
    /// override or the machine's available parallelism). Results are
    /// bit-identical at any thread count.
    pub threads: usize,
    /// Interconnect model applied to **every** configuration in `configs`
    /// (`tables --net contended`). The default [`NetKind::Ideal`]
    /// reproduces the dissertation's closed-form delays bit for bit;
    /// [`NetKind::Contended`] routes operands through X-Y routers and
    /// memory/GPP requests through slotted rings, attaching link-level
    /// statistics to every sample.
    pub net: NetKind,
    /// Ignored. Formerly selected block-compiled replay, which the
    /// server's result cache made redundant; the field stays only so
    /// existing struct literals keep compiling. Every sweep runs the one
    /// token-bundle walk.
    pub compiled: bool,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig {
            synthetic_count: 240,
            max_mesh_cycles: 250_000,
            configs: FabricConfig::all_six(),
            threads: default_threads(),
            net: NetKind::Ideal,
            compiled: false,
        }
    }
}

/// Static, per-method measurements (configuration-independent parts plus
/// per-configuration placement).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodStatics {
    /// Static instruction count.
    pub static_len: usize,
    /// Register count.
    pub max_locals: u16,
    /// Operand-stack depth.
    pub max_stack: u16,
    /// Resolution statistics (Tables 7, 10–12).
    pub resolve: ResolveStats,
    /// Forward jumps `(count, avg length, max length)` (Table 13).
    pub fwd_jumps: (usize, f64, u32),
    /// Backward jumps `(count, avg length, max length)` (Table 14).
    pub back_jumps: (usize, f64, u32),
    /// Nodes-spanned / instructions per configuration (Tables 19/20).
    pub span_ratio: Vec<f64>,
    /// Whether the method loads on each configuration.
    pub loadable: Vec<bool>,
}

/// One scripted execution sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Index into [`Evaluation::records`].
    pub record: usize,
    /// Index into [`Evaluation::configs`].
    pub config: usize,
    /// Branch script used.
    pub bp: BranchMode,
    /// The execution report.
    pub report: ExecReport,
    /// Whether the run returned (timeouts/deadlocks are filtered from the
    /// aggregate statistics, as in the dissertation).
    pub ok: bool,
    /// Events of `report` taken over from the record's BP-1 run instead
    /// of simulated: the prefix a BP-2 run shares with its BP-1 twin (see
    /// [`execute_pair_in`]). 0 for BP-1 samples. Not part of the wire
    /// format.
    pub events_inherited: u64,
}

/// The complete evaluation data set.
#[derive(Debug)]
pub struct Evaluation {
    /// The population, shared with the [`PreparedPopulation`] the sweep
    /// came from rather than deep-copied per sweep.
    pub records: Arc<[MethodRecord]>,
    /// The machine configurations, index-aligned with sample/config ids.
    pub configs: Vec<FabricConfig>,
    /// Per-record static measurements.
    pub statics: Vec<MethodStatics>,
    /// All execution samples.
    pub samples: Vec<Sample>,
    /// Scheduling telemetry from the sweep: workers actually used plus
    /// per-worker record counts and busy time. Unlike every other field,
    /// this is **not** deterministic — it describes which worker happened
    /// to claim each record from the shared cursor.
    pub sweep: SweepStats,
    /// `(record, config, bp)` → index into `samples`, built once after
    /// the sweep so [`Evaluation::sample`] is O(1).
    sample_index: HashMap<(usize, usize, BranchMode), usize>,
}

/// A per-configuration row of the IPC / Figure-of-Merit tables.
#[derive(Debug, Clone)]
pub struct ConfigRow {
    /// Configuration name.
    pub name: &'static str,
    /// Raw IPC summary over samples (Table 21/24/25 left half).
    pub ipc: Summary,
    /// Figure of Merit relative to the baseline (right half); the baseline
    /// row is identically 1.
    pub fom: Summary,
}

impl Evaluation {
    /// Assembles an evaluation from per-record sweep results (statics plus
    /// that record's samples, in record order), building the O(1) sample
    /// index. Every sweep finishes through here
    /// ([`PreparedPopulation::evaluate_batched`]).
    #[must_use]
    pub fn assemble(
        records: impl Into<Arc<[MethodRecord]>>,
        configs: Vec<FabricConfig>,
        results: Vec<(MethodStatics, Vec<Sample>)>,
        sweep: SweepStats,
    ) -> Evaluation {
        let records = records.into();
        let mut statics = Vec::with_capacity(records.len());
        let mut samples = Vec::with_capacity(results.iter().map(|(_, s)| s.len()).sum());
        for (st, mut record_samples) in results {
            statics.push(st);
            samples.append(&mut record_samples);
        }
        let sample_index =
            samples.iter().enumerate().map(|(i, s)| ((s.record, s.config, s.bp), i)).collect();
        Evaluation { records, configs, statics, samples, sweep, sample_index }
    }

    /// Runs the full evaluation: builds and prepares the population
    /// ([`PreparedPopulation::prepare`]) and sweeps it once
    /// ([`PreparedPopulation::evaluate`]), so a batch run and a resident
    /// server take the same path.
    ///
    /// Records are swept on [`EvalConfig::threads`] workers that claim
    /// one record at a time from a shared cursor over a schedule in
    /// descending static length (ties by index), each worker drawing two
    /// warm [`SimArena`]s (one per BP-1/BP-2 pair member) from the
    /// process-wide [`ArenaPool`](javaflow_fabric::ArenaPool). The
    /// results are spliced back in record order, so the output is
    /// bit-identical to a serial run at any thread count.
    #[must_use]
    pub fn run(cfg: &EvalConfig) -> Evaluation {
        PreparedPopulation::prepare(cfg.synthetic_count, cfg.threads).evaluate(cfg)
    }

    fn baseline_index(&self) -> usize {
        self.configs.iter().position(|c| c.collapsed).unwrap_or(0)
    }

    /// Record indices passing a filter.
    pub fn filtered(&self, filter: Filter) -> Vec<usize> {
        (0..self.records.len()).filter(|i| filter.matches(&self.records[*i])).collect()
    }

    /// Sample lookup: `(record, config, bp)` → report, when it returned.
    ///
    /// O(1) via the index built at the end of [`Evaluation::run`]; at most
    /// one sample exists per key.
    #[must_use]
    pub fn sample(&self, record: usize, config: usize, bp: BranchMode) -> Option<&ExecReport> {
        self.sample_index
            .get(&(record, config, bp))
            .map(|&i| &self.samples[i])
            .filter(|s| s.ok)
            .map(|s| &s.report)
    }

    /// IPC and Figure-of-Merit rows per configuration under a filter
    /// (Tables 21/22/24/25).
    #[must_use]
    pub fn config_rows(&self, filter: Filter) -> Vec<ConfigRow> {
        let base = self.baseline_index();
        let selected = self.filtered(filter);
        let mut rows = Vec::new();
        for (ci, fc) in self.configs.iter().enumerate() {
            let mut ipcs = Vec::new();
            let mut foms = Vec::new();
            for &ri in &selected {
                for bp in [BranchMode::Bp1, BranchMode::Bp2] {
                    let Some(rep) = self.sample(ri, ci, bp) else { continue };
                    ipcs.push(rep.ipc);
                    if let Some(baseline) = self.sample(ri, base, bp) {
                        if baseline.ipc > 0.0 {
                            foms.push(rep.ipc / baseline.ipc);
                        }
                    }
                }
            }
            let ipc = Summary::of(&ipcs).unwrap_or(Summary {
                mean: 0.0,
                std_dev: 0.0,
                median: 0.0,
                max: 0.0,
                min: 0.0,
                n: 0,
            });
            let fom = Summary::of(&foms).unwrap_or(Summary {
                mean: 0.0,
                std_dev: 0.0,
                median: 0.0,
                max: 0.0,
                min: 0.0,
                n: 0,
            });
            rows.push(ConfigRow { name: fc.name, ipc, fom });
        }
        rows
    }

    /// Mean execution coverage per branch script (Table 18).
    #[must_use]
    pub fn coverage(&self, bp: BranchMode) -> f64 {
        let base = self.baseline_index();
        let mut total = 0.0;
        let mut n = 0usize;
        for s in &self.samples {
            if s.config == base && s.bp == bp && s.ok {
                total += s.report.coverage;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Mean nodes-spanned / instructions ratio per configuration
    /// (Table 19); detail summary for one configuration (Table 20).
    #[must_use]
    pub fn span_summary(&self, config: usize, filter: Filter) -> Option<Summary> {
        let vals: Vec<f64> = self
            .filtered(filter)
            .into_iter()
            .filter_map(|ri| {
                let v = self.statics[ri].span_ratio[config];
                v.is_finite().then_some(v)
            })
            .collect();
        Summary::of(&vals)
    }

    /// Mean fraction of time with ≥2 instructions executing, per
    /// configuration (Table 26).
    #[must_use]
    pub fn parallelism(&self) -> Vec<(&'static str, f64)> {
        self.configs
            .iter()
            .enumerate()
            .map(|(ci, fc)| {
                let mut total = 0.0;
                let mut n = 0usize;
                for s in &self.samples {
                    if s.config == ci && s.ok {
                        total += s.report.frac_cycles_ge2;
                        n += 1;
                    }
                }
                (fc.name, if n == 0 { 0.0 } else { total / n as f64 })
            })
            .collect()
    }

    /// Folds every sample of the sweep into one instrumentation registry
    /// (Table 30 and the `"metrics"` block of the `BENCH_*.json`
    /// artifacts). Per-class execution-tick totals are derived with each
    /// sample's own configuration timing.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for s in &self.samples {
            reg.observe_report(&s.report, self.configs[s.config].class_ticks());
            reg.add("events_popped", s.report.events - s.events_inherited);
            reg.add("events_inherited", s.events_inherited);
        }
        reg
    }

    /// Correlations of the hetero-configuration Figure of Merit with
    /// method characteristics (Table 23). Returns
    /// `(factor name, correlation)` pairs.
    #[must_use]
    pub fn correlations(&self, hetero_config: usize, filter: Filter) -> Vec<(&'static str, f64)> {
        let base = self.baseline_index();
        let mut fm = Vec::new();
        let mut total_i = Vec::new();
        let mut executed = Vec::new();
        let mut max_node = Vec::new();
        let mut back_jumps = Vec::new();
        for ri in self.filtered(filter) {
            let (Some(h), Some(b)) = (
                self.sample(ri, hetero_config, BranchMode::Bp1),
                self.sample(ri, base, BranchMode::Bp1),
            ) else {
                continue;
            };
            if b.ipc <= 0.0 {
                continue;
            }
            fm.push(h.ipc / b.ipc);
            total_i.push(self.statics[ri].static_len as f64);
            executed.push(h.executed as f64);
            max_node.push(
                self.statics[ri].span_ratio[hetero_config] * self.statics[ri].static_len as f64,
            );
            back_jumps.push(self.statics[ri].back_jumps.0 as f64);
        }
        vec![
            ("Total I", pearson(&fm, &total_i).unwrap_or(0.0)),
            ("Executed I", pearson(&fm, &executed).unwrap_or(0.0)),
            ("Max Node", pearson(&fm, &max_node).unwrap_or(0.0)),
            ("Back Jumps", pearson(&fm, &back_jumps).unwrap_or(0.0)),
        ]
    }

    /// Per-hot-method Figures of Merit for a suite generation (Tables
    /// 27/28). Rows are `(benchmark, method name, total insts, hetero
    /// nodes spanned, fm per config)`.
    #[must_use]
    pub fn hot_method_rows(
        &self,
        suite: SuiteKind,
    ) -> Vec<(&'static str, String, usize, usize, Vec<f64>)> {
        let base = self.baseline_index();
        let hetero = self
            .configs
            .iter()
            .position(|c| c.layout == javaflow_fabric::Layout::Heterogeneous)
            .unwrap_or(self.configs.len() - 1);
        let mut rows = Vec::new();
        for (ri, rec) in self.records.iter().enumerate() {
            if rec.suite != Some(suite) || !rec.is_hot() {
                continue;
            }
            if !Filter::Filter1.matches(rec) {
                continue;
            }
            let mut fms = Vec::new();
            for ci in 0..self.configs.len() {
                let fm = match (
                    self.sample(ri, ci, BranchMode::Bp1),
                    self.sample(ri, base, BranchMode::Bp1),
                ) {
                    (Some(c), Some(b)) if b.ipc > 0.0 => c.ipc / b.ipc,
                    _ => f64::NAN,
                };
                fms.push(fm);
            }
            let spanned = (self.statics[ri].span_ratio[hetero] * rec.len() as f64).round() as usize;
            rows.push((
                rec.benchmark.unwrap_or("?"),
                rec.method.name.clone(),
                rec.len(),
                spanned,
                fms,
            ));
        }
        rows.sort_by(|a, b| a.0.cmp(b.0).then(a.1.cmp(&b.1)));
        rows
    }

    /// Summaries of per-method dataflow statistics under a filter
    /// (Tables 9–14): returns named summaries.
    #[must_use]
    pub fn dataflow_summaries(&self, filter: Filter) -> Vec<(&'static str, Summary)> {
        let sel = self.filtered(filter);
        let grab = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { sel.iter().map(|&i| f(i)).collect() };
        let mut out = Vec::new();
        let pairs: Vec<(&'static str, Vec<f64>)> = vec![
            ("Static Inst", grab(&|i| self.statics[i].static_len as f64)),
            ("Local Regs", grab(&|i| f64::from(self.statics[i].max_locals))),
            ("Stack", grab(&|i| f64::from(self.statics[i].max_stack))),
            ("Back Merge", grab(&|i| f64::from(self.statics[i].resolve.back_merges))),
            ("FanOut Avg", grab(&|i| self.statics[i].resolve.fanout_avg)),
            ("FanOut Max", grab(&|i| f64::from(self.statics[i].resolve.fanout_max))),
            ("Arc Avg", grab(&|i| self.statics[i].resolve.arc_avg)),
            ("Arc Max", grab(&|i| f64::from(self.statics[i].resolve.arc_max))),
            ("Max Q Up", grab(&|i| f64::from(self.statics[i].resolve.max_up_queue))),
            ("Merges", grab(&|i| f64::from(self.statics[i].resolve.merges))),
            ("Fwd Jumps", grab(&|i| self.statics[i].fwd_jumps.0 as f64)),
            ("Fwd Avg Len", grab(&|i| self.statics[i].fwd_jumps.1)),
            ("Fwd Max Len", grab(&|i| f64::from(self.statics[i].fwd_jumps.2))),
            ("Back Jumps", grab(&|i| self.statics[i].back_jumps.0 as f64)),
            ("Back Avg Len", grab(&|i| self.statics[i].back_jumps.1)),
            ("Back Max Len", grab(&|i| f64::from(self.statics[i].back_jumps.2))),
        ];
        for (name, vals) in pairs {
            if let Some(s) = Summary::of(&vals) {
                out.push((name, s));
            }
        }
        out
    }
}

/// Builds the dispatch schedule: record indices in **descending** static
/// instruction count, ties broken by index, so the order is deterministic.
///
/// The routing graph a [`prepare`](javaflow_fabric::prepare) produces is
/// node-per-instruction, so length is the graph size, and every record
/// contributes the same number of scripted runs (configs × branch
/// scripts), so per-record length orders the records directly.
pub(crate) fn cost_schedule(records: &[MethodRecord]) -> Vec<u32> {
    let mut schedule: Vec<u32> = (0..records.len() as u32).collect();
    schedule.sort_by(|&a, &b| {
        records[b as usize].len().cmp(&records[a as usize].len()).then(a.cmp(&b))
    });
    schedule
}

/// The configuration-independent statics of one record: verification,
/// the control-flow graph's jump statistics and the resolution
/// statistics. [`PreparedPopulation`] computes them on a record's first
/// sweep and keeps them for every later one.
#[derive(Debug, Clone)]
pub(crate) struct RecordStatics {
    max_stack: u16,
    resolve: ResolveStats,
    fwd_jumps: (usize, f64, u32),
    back_jumps: (usize, f64, u32),
}

impl RecordStatics {
    /// Verifies `rec`, builds its control-flow graph and takes the
    /// resolution statistics from `prepared` (resolving afresh for
    /// fabric-inexecutable methods, which have none).
    pub(crate) fn compute(
        rec: &MethodRecord,
        prepared: Option<&javaflow_fabric::PreparedMethod<'_>>,
    ) -> RecordStatics {
        let v = verify(&rec.method).expect("population verifies");
        let g = Cfg::build(&rec.method);
        let resolve = match prepared {
            Some(p) => p.resolved.stats.clone(),
            // Fabric-inexecutable methods (jsr/switches) never run, but
            // still contribute resolution statistics to the static tables.
            None => resolve(&rec.method).expect("population resolves").stats,
        };
        RecordStatics {
            max_stack: v.max_stack,
            resolve,
            fwd_jumps: g.forward_jump_stats(),
            back_jumps: g.back_jump_stats(),
        }
    }
}

/// The complete (pure) per-record work unit: statics plus the scripted
/// runs over every configuration and both branch scripts.
///
/// `prepared` holds the record's configuration-independent parts, built
/// once by [`PreparedPopulation`], and `statics` its configuration-
/// independent statics, so each configuration only adds a placement.
/// `prepared` is `None` for fabric-inexecutable methods (jsr/switches).
/// Each configuration runs one BP-1/BP-2 pair
/// ([`execute_pair_in`](javaflow_fabric::execute_pair_in)) on the
/// caller's two arenas, which are reused across every run.
pub(crate) fn eval_prepared(
    ri: usize,
    rec: &MethodRecord,
    prepared: Option<&javaflow_fabric::PreparedMethod<'_>>,
    statics: &RecordStatics,
    configs: &[FabricConfig],
    max_mesh_cycles: u64,
    arenas: &mut [SimArena; 2],
) -> (MethodStatics, Vec<Sample>) {
    let mut span_ratio = Vec::with_capacity(configs.len());
    let mut loadable = Vec::with_capacity(configs.len());
    let mut placements = Vec::with_capacity(configs.len());
    for fc in configs {
        match place(&rec.method, fc) {
            Ok(p) => {
                span_ratio.push(p.span_ratio());
                loadable.push(true);
                placements.push(Some(p));
            }
            Err(_) => {
                span_ratio.push(f64::NAN);
                loadable.push(false);
                placements.push(None);
            }
        }
    }
    let method_statics = MethodStatics {
        static_len: rec.method.len(),
        max_locals: rec.method.max_locals,
        max_stack: statics.max_stack,
        resolve: statics.resolve.clone(),
        fwd_jumps: statics.fwd_jumps,
        back_jumps: statics.back_jumps,
        span_ratio,
        loadable,
    };

    let mut samples = Vec::with_capacity(if prepared.is_some() { 2 * configs.len() } else { 0 });
    if let Some(prepared) = prepared {
        let [arena, twin] = arenas;
        for (ci, fc) in configs.iter().enumerate() {
            let Some(placement) = placements[ci].take() else { continue };
            let loaded = prepared.with_placement(placement);
            let pair = execute_pair_in(&loaded, fc, max_mesh_cycles, arena, twin);
            for (bp, report, events_inherited) in
                [(BranchMode::Bp1, pair.bp1, 0), (BranchMode::Bp2, pair.bp2, pair.bp2_inherited)]
            {
                let ok = matches!(report.outcome, Outcome::Returned(_));
                samples.push(Sample { record: ri, config: ci, bp, report, ok, events_inherited });
            }
        }
    }
    (method_statics, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_eval() -> Evaluation {
        Evaluation::run(&EvalConfig {
            synthetic_count: 12,
            max_mesh_cycles: 150_000,
            ..EvalConfig::default()
        })
    }

    #[test]
    fn evaluation_produces_samples_for_all_configs() {
        let e = small_eval();
        assert_eq!(e.configs.len(), 6);
        for ci in 0..6 {
            let n = e.samples.iter().filter(|s| s.config == ci).count();
            assert!(n > 0, "config {ci} produced no samples");
        }
        // The overwhelming majority of runs must return.
        let ok = e.samples.iter().filter(|s| s.ok).count();
        assert!(
            ok as f64 / e.samples.len() as f64 > 0.9,
            "only {ok}/{} samples returned",
            e.samples.len()
        );
    }

    #[test]
    fn fom_ordering_matches_chapter_7() {
        let e = small_eval();
        let rows = e.config_rows(Filter::All);
        let by_name: std::collections::HashMap<&str, f64> =
            rows.iter().map(|r| (r.name, r.fom.mean)).collect();
        assert!((by_name["Baseline"] - 1.0).abs() < 1e-9);
        assert!(by_name["Compact10"] >= by_name["Compact4"]);
        assert!(by_name["Compact4"] >= by_name["Compact2"]);
        assert!(by_name["Compact2"] >= by_name["Sparse2"]);
        assert!(by_name["Sparse2"] >= by_name["Hetero2"] - 0.05);
        // The headline: Hetero2 lands near 40% of baseline.
        assert!(
            (0.15..0.85).contains(&by_name["Hetero2"]),
            "Hetero2 FoM {} out of plausible range",
            by_name["Hetero2"]
        );
    }

    #[test]
    fn span_ratios_match_table_19() {
        let e = small_eval();
        // Homogeneous compact configurations span exactly 1 node per
        // instruction, sparse ≈ 2, heterogeneous ≈ 3.
        let compact = e.span_summary(3, Filter::Filter1).unwrap();
        assert!((compact.mean - 1.0).abs() < 1e-9);
        let sparse = e.span_summary(4, Filter::Filter1).unwrap();
        assert!((sparse.mean - 2.0).abs() < 0.1, "sparse {}", sparse.mean);
        let hetero = e.span_summary(5, Filter::Filter1).unwrap();
        assert!((2.2..4.5).contains(&hetero.mean), "hetero {}", hetero.mean);
    }

    #[test]
    fn contended_sweep_attaches_net_stats() {
        let e = Evaluation::run(&EvalConfig {
            synthetic_count: 4,
            max_mesh_cycles: 150_000,
            net: NetKind::Contended,
            ..EvalConfig::default()
        });
        assert!(e.configs.iter().all(|c| c.net == NetKind::Contended));
        assert!(!e.samples.is_empty());
        assert!(e.samples.iter().all(|s| s.report.net.is_some()));
        // The ideal sweep attaches nothing.
        let ideal = Evaluation::run(&EvalConfig {
            synthetic_count: 4,
            max_mesh_cycles: 150_000,
            ..EvalConfig::default()
        });
        assert!(ideal.samples.iter().all(|s| s.report.net.is_none()));
    }

    #[test]
    fn no_back_merges_anywhere() {
        let e = small_eval();
        for (s, r) in e.statics.iter().zip(e.records.iter()) {
            assert_eq!(s.resolve.back_merges, 0, "{} has back merges", r.name);
        }
    }

    #[test]
    fn coverage_in_chapter_7_range() {
        let e = small_eval();
        for bp in [BranchMode::Bp1, BranchMode::Bp2] {
            let c = e.coverage(bp);
            assert!((0.5..=1.0).contains(&c), "coverage {c} for {bp:?}");
        }
    }

    #[test]
    fn parallelism_decreases_with_distance() {
        let e = small_eval();
        let p = e.parallelism();
        let map: std::collections::HashMap<&str, f64> = p.into_iter().collect();
        assert!(map["Baseline"] >= map["Hetero2"], "{map:?}");
    }
}

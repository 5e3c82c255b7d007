//! Table-regeneration library for the JavaFlow evaluation.
//!
//! Every table of the dissertation's Chapters 5 and 7 can be regenerated:
//! the `tables` binary prints them (`cargo run --release -p javaflow-bench
//! --bin tables -- --table N`, or all of them with no argument), and the
//! plain-main benches time the underlying machinery. The functions here are
//! shared between both.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Write as _;

pub mod micro;

use javaflow_analysis::{DynamicMix, StaticMix, Utilization};
use javaflow_fabric::FabricConfig;
use javaflow_interp::Profiler;
use javaflow_workloads::{full_suite, Benchmark, SuiteKind};

/// Chapter 7 table rendering now lives in `core` (so the resident server
/// can render tables without this crate); re-exported for compatibility.
pub use javaflow_core::tables::chapter7_tables;

/// A profiled suite: per-benchmark profilers, reused across tables.
#[derive(Debug)]
pub struct ProfiledSuite {
    /// The benchmarks.
    pub benchmarks: Vec<Benchmark>,
    /// Profiler per benchmark (same order).
    pub profilers: Vec<Profiler>,
}

/// Profiles the whole suite on the interpreter.
///
/// Benchmarks are profiled on worker threads (each profile run is
/// independent); the profiler list keeps benchmark order.
///
/// # Panics
///
/// Panics if a benchmark driver faults (a bug — the suite is tested).
#[must_use]
pub fn profile_suite() -> ProfiledSuite {
    let benchmarks = full_suite();
    let profilers = javaflow_core::parallel::par_map(
        &benchmarks,
        javaflow_core::parallel::default_threads(),
        |_, b| b.profile().unwrap_or_else(|e| panic!("{} failed: {e}", b.name)).0,
    );
    ProfiledSuite { benchmarks, profilers }
}

/// Tables 1–8: the Chapter 5 benchmark analysis.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn chapter5_tables(suite: &ProfiledSuite, table: u32) -> String {
    let mut out = String::new();
    match table {
        1 => {
            let _ = writeln!(out, "Table 1 — Method Utilization in SPEC-substitute Benchmarks");
            let _ = writeln!(
                out,
                "{:<22} {:>14} {:>10} {:>12}",
                "Benchmark", "Total Ops", "Methods", "90% Methods"
            );
            for (b, p) in suite.benchmarks.iter().zip(&suite.profilers) {
                let u = Utilization::of(p);
                let _ = writeln!(
                    out,
                    "{:<22} {:>14} {:>10} {:>12}",
                    b.name, u.total_ops, u.methods_used, u.methods_at_90
                );
            }
        }
        2 => {
            let _ = writeln!(out, "Table 2 — Dynamic Instruction Mix of 90% Methods");
            let _ = writeln!(
                out,
                "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "Benchmark",
                "Loc+Stk",
                "ArithI",
                "ArithF",
                "Const",
                "Storage",
                "Ctl",
                "Calls",
                "Spec"
            );
            for (b, p) in suite.benchmarks.iter().zip(&suite.profilers) {
                let hot: Vec<javaflow_bytecode::MethodId> =
                    p.top_fraction(0.9).into_iter().map(|(id, _)| id).collect();
                let profs: Vec<_> = hot.iter().filter_map(|id| p.methods().get(id)).collect();
                let mix = DynamicMix::of(profs);
                let _ = writeln!(
                    out,
                    "{:<22} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
                    b.name,
                    mix.locals_stack * 100.0,
                    mix.arith_fixed * 100.0,
                    mix.arith_float * 100.0,
                    mix.constants * 100.0,
                    mix.storage * 100.0,
                    mix.control * 100.0,
                    mix.calls * 100.0,
                    mix.special * 100.0,
                );
            }
            let _ = writeln!(out, "(paper: Locals+Stack 26–54% — the folding candidates)");
        }
        3 | 4 => {
            let kind = if table == 3 { SuiteKind::Jvm2008 } else { SuiteKind::Jvm98 };
            let _ = writeln!(out, "Table {table} — {} Top 4 Methods", kind.label());
            for (b, p) in suite.benchmarks.iter().zip(&suite.profilers) {
                if b.suite != kind {
                    continue;
                }
                let tops = javaflow_analysis::top_methods(p, &b.program, 4);
                let share = javaflow_analysis::top_share(p, 4);
                let _ = writeln!(out, "{}  (top-4 share {:.0}%)", b.name, share * 100.0);
                for t in tops {
                    let _ =
                        writeln!(out, "    {:<44} {:>12} {:>5.1}%", t.name, t.ops, t.share * 100.0);
                }
            }
        }
        5 => {
            let _ = writeln!(out, "Table 5 — Impact of Quick Instructions");
            for kind in [SuiteKind::Jvm2008, SuiteKind::Jvm98] {
                let mut merged = Profiler::new();
                for (b, p) in suite.benchmarks.iter().zip(&suite.profilers) {
                    if b.suite == kind {
                        merged.merge(p);
                    }
                }
                let _ = writeln!(
                    out,
                    "{:<14} base {:>10}  quick {:>12}  quick-fraction {:>6.1}%  (paper: 97–99%)",
                    kind.label(),
                    merged.base_storage,
                    merged.quick_storage,
                    merged.quick_fraction() * 100.0
                );
            }
        }
        6 => {
            let _ = writeln!(out, "Table 6 — Static Mix Analysis");
            let _ = writeln!(
                out,
                "{:<22} {:>8} {:>8} {:>9} {:>9} {:>10}",
                "Benchmark", "%Arith", "%Float", "%Control", "%Storage", "Total"
            );
            let mut all_methods = Vec::new();
            for b in &suite.benchmarks {
                let methods: Vec<&javaflow_bytecode::Method> =
                    b.program.methods().map(|(_, m)| m).collect();
                let mix = StaticMix::of(methods.iter().copied());
                all_methods.extend(methods);
                let _ = writeln!(
                    out,
                    "{:<22} {:>7.0}% {:>7.0}% {:>8.0}% {:>8.0}% {:>10}",
                    b.name,
                    mix.arith * 100.0,
                    mix.float * 100.0,
                    mix.control * 100.0,
                    mix.storage * 100.0,
                    mix.total
                );
            }
            let total = StaticMix::of(all_methods);
            let _ = writeln!(
                out,
                "{:<22} {:>7.0}% {:>7.0}% {:>8.0}% {:>8.0}% {:>10}   (paper conclusion: 60/10/10/20)",
                "Total",
                total.arith * 100.0,
                total.float * 100.0,
                total.control * 100.0,
                total.storage * 100.0,
                total.total
            );
        }
        7 => {
            let _ = writeln!(out, "Table 7 — Benchmark DataFlow and Control Flow Analysis");
            let _ = writeln!(
                out,
                "{:<22} {:>6} {:>6} {:>8} {:>9} {:>8} {:>7} {:>6}",
                "Benchmark", "Fwd", "Back", "Insts", "Cycles", "DFlows", "Merges", "DFBack"
            );
            let mut sums = [0u64; 6];
            for b in &suite.benchmarks {
                let mut fwd = 0usize;
                let mut back = 0usize;
                let mut insts = 0usize;
                let mut cycles = 0u64;
                let mut dflows = 0u64;
                let mut merges = 0u32;
                let mut dfback = 0u32;
                for id in &b.hot {
                    let m = b.program.method(*id);
                    let cfg = javaflow_bytecode::Cfg::build(m);
                    fwd += cfg.forward_jump_stats().0;
                    back += cfg.back_jump_stats().0;
                    insts += m.len();
                    let r = javaflow_fabric::resolve(m).expect("resolves");
                    cycles += r.stats.resolution_ticks;
                    dflows += r.stats.dflows;
                    merges += r.stats.merges;
                    dfback += r.stats.back_merges;
                }
                let _ = writeln!(
                    out,
                    "{:<22} {:>6} {:>6} {:>8} {:>9} {:>8} {:>7} {:>6}",
                    b.name, fwd, back, insts, cycles, dflows, merges, dfback
                );
                sums[0] += fwd as u64;
                sums[1] += back as u64;
                sums[2] += insts as u64;
                sums[3] += cycles;
                sums[4] += dflows;
                sums[5] += u64::from(dfback);
            }
            let _ = writeln!(
                out,
                "{:<22} {:>6} {:>6} {:>8} {:>9} {:>8} {:>7} {:>6}   (paper: DFBack = 0; cycles ≈ 2×insts)",
                "Sum", sums[0], sums[1], sums[2], sums[3], sums[4], "-", sums[5]
            );
        }
        8 => {
            let _ = writeln!(out, "Table 8 — Analysis Summary");
            let mut total_ops = 0u64;
            let mut methods = 0usize;
            let mut hot_methods = 0usize;
            let mut hot_insts = 0usize;
            let mut hot_regs = 0u64;
            for (b, p) in suite.benchmarks.iter().zip(&suite.profilers) {
                total_ops += p.total_ops();
                methods += p.methods_executed();
                for id in &b.hot {
                    hot_methods += 1;
                    hot_insts += b.program.method(*id).len();
                    hot_regs += u64::from(b.program.method(*id).max_locals);
                }
            }
            let _ = writeln!(out, "Dynamic instructions executed : {total_ops}");
            let _ = writeln!(out, "Methods executed              : {methods}");
            let _ = writeln!(out, "Hot methods analyzed          : {hot_methods}");
            let _ = writeln!(
                out,
                "Avg insts / hot method        : {:.0}   (paper: 71)",
                hot_insts as f64 / hot_methods as f64
            );
            let _ = writeln!(
                out,
                "Avg registers / hot method    : {:.1}   (paper: 6)",
                hot_regs as f64 / hot_methods as f64
            );
        }
        other => {
            let _ = writeln!(out, "(table {other} is not a Chapter 5 table)");
        }
    }
    out
}

/// One-line title of a regenerable table, for `tables --list-tables` and
/// range errors.
#[must_use]
pub fn table_title(n: u32) -> &'static str {
    match n {
        1 => "Method Utilization in SPEC-substitute Benchmarks",
        2 => "Dynamic Instruction Mix of 90% Methods",
        3 => "JVM2008 Top 4 Methods",
        4 => "JVM98 Top 4 Methods",
        5 => "Impact of Quick Instructions",
        6 => "Static Mix Analysis",
        7 => "Benchmark DataFlow and Control Flow Analysis",
        8 => "Analysis Summary",
        9 => "General Data Flow Analysis (Filter 1)",
        10 => "DataFlow FanOut and Arc Analysis (Filter 1)",
        11 => "DataFlow Resolution Queue Analysis (Filter 1)",
        12 => "DataFlow Merge Analysis (Filter 1)",
        13 => "DataFlow Jump Forward Analysis (Filter 1)",
        14 => "DataFlow Jump Backward Analysis (Filter 1)",
        15 => "Benchmark Configurations",
        16 => "Filters on Methods",
        17 => "Execution Cycles per Instruction (+ Figure 25)",
        18 => "Execution Coverage (All Methods)",
        19 => "Ratio of Nodes Spanned to Instructions",
        20 => "Heterogeneous Addressing Detail (Filter 1)",
        21 => "Raw IPC Data (All Methods)",
        22 => "Figure of Merit (All Methods)",
        23 => "Correlations with FM Hetero2 (Filter All)",
        24 => "All Data (Filter 1)",
        25 => "All Data (Filter 2)",
        26 => "Parallelism (All Methods)",
        27 => "Figure of Merit on Top Methods (JVM2008)",
        28 => "Figure of Merit on Top Methods (JVM98)",
        29 => "Interconnect Link Statistics (contended model)",
        30 => "Instrumentation Summary",
        _ => "(unknown table)",
    }
}

/// The `--list-tables` text: every valid id with its one-line title.
#[must_use]
pub fn list_tables() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Chapter 5 (interpreter profile):");
    for t in 1..=8u32 {
        let _ = writeln!(out, "  {t:>2}  {}", table_title(t));
    }
    let _ = writeln!(out, "Chapter 7 (fabric evaluation):");
    for t in 9..=30u32 {
        let _ = writeln!(out, "  {t:>2}  {}", table_title(t));
    }
    out
}

/// ASCII renderings of the dissertation's figures that have a structural
/// (non-chart) content: the system diagram, the loading walkthrough, the
/// resolution examples, and the heterogeneous row pattern.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn figure(n: u32) -> String {
    let mut out = String::new();
    match n {
        12 => {
            let _ = writeln!(out, "Figure 12 — JavaFlow system diagram");
            let _ = writeln!(
                out,
                "
       +--------------------------- DataFlow Fabric ---------------------------+
       |  [A]->[n]->[n]->[n]->[n]->[n]->[n]->[n]->[n]->[n]   forward/reverse   |
       |   |    |    |    |    |    |    |    |    |    |    ordered serial    |
       |  [n]<-[n]<-[n]<-[n]<-[n]<-[n]<-[n]<-[n]<-[n]<-[n]   network (snake)   |
       |   |    |    |    |    |    |    |    |    |    |                      |
       |  [n]->[n]->[n]->[S]->[n]->[n]->[n]->[S]->[n]->[n]   X-Y routed mesh   |
       +------------|-------------------------|-------------------------------+
                    |    high-speed rings     |
              +-----v-----+             +-----v-----+
              |  Memory   |             |    GPP    |  (interpreter: calls,
              | subsystem |             |           |   services, exceptions)
              +-----------+             +-----------+
 [A] anchor node   [S] storage node   [n] instruction node"
            );
        }
        20 => {
            let _ = writeln!(out, "Figure 20 — Loading a method (greedy allocation)");
            let program = javaflow_bytecode::asm::assemble(
                ".method demo args=1 returns=true locals=1
                   iload 0
                   dconst_1
                   d2i
                   iadd
                   ireturn
                 .end",
            )
            .expect("assembles");
            let (_, m) = program.method_by_name("demo").expect("exists");
            for config in [FabricConfig::compact2(), FabricConfig::hetero2()] {
                let p = javaflow_fabric::place(m, &config).expect("places");
                let _ = writeln!(out, "\n{} layout:", config.name);
                for (addr, insn) in m.iter() {
                    let slot = p.slots[addr as usize];
                    let (x, y) = p.coords[addr as usize];
                    let kind = insn.group().node_kind();
                    let _ = writeln!(
                        out,
                        "  @{addr} {:<12} [{kind:<7}] -> slot {slot:>3} at ({x},{y})",
                        insn.to_string()
                    );
                }
                let _ = writeln!(
                    out,
                    "  {} instructions span {} nodes (ratio {:.2})",
                    m.len(),
                    p.max_node,
                    p.span_ratio()
                );
            }
        }
        21 | 22 => {
            let _ = writeln!(out, "Figure {n} — DataFlow address resolution walkthrough");
            let src = if n == 21 {
                ".method f21 args=4 returns=false locals=5
                   iload 1
                   iload 2
                   iload 3
                   iadd
                   iadd
                   istore 4
                   return
                 .end"
            } else {
                ".method f22 args=1 returns=true locals=1
                   iload 0
                   ifeq @other
                   iconst_1
                   goto @join
                 other:
                   iconst_2
                 join:
                   ireturn
                 .end"
            };
            let program = javaflow_bytecode::asm::assemble(src).expect("assembles");
            let (_, m) = program.methods().next().expect("exists");
            let r = javaflow_fabric::resolve(m).expect("resolves");
            for (addr, insn) in m.iter() {
                let _ = write!(
                    out,
                    "  @{addr:<2} {:<14} pop {} push {}",
                    insn.to_string(),
                    insn.pops(),
                    insn.pushes()
                );
                let sinks = &r.consumers[addr as usize];
                if !sinks.is_empty() {
                    let _ = write!(out, "  →");
                    for s in sinks {
                        let _ = write!(out, " (@{}, side {})", s.consumer, s.side);
                    }
                }
                let _ = writeln!(out);
            }
            let _ = writeln!(
                out,
                "  merges {}  back merges {}  max up-queue {}",
                r.stats.merges, r.stats.back_merges, r.stats.max_up_queue
            );
        }
        26 => {
            let _ = writeln!(out, "Figure 26 — Heterogeneous DataFlow row (per 10 nodes)");
            let _ = write!(out, "  ");
            for k in javaflow_fabric::HETERO_PATTERN {
                let _ = write!(out, "[{}]", &k.label()[..1].to_uppercase());
            }
            let _ = writeln!(out, "   A=arith F=float S=storage C=control (6/1/2/1)");
        }
        other => {
            let _ =
                writeln!(out, "(no structural rendering for figure {other}; see EXPERIMENTS.md)");
        }
    }
    out
}

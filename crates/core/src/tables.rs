//! Chapter 7 table rendering, from an [`Evaluation`].
//!
//! Lives in `core` (rather than the bench crate, which re-exports it) so
//! a resident process — `javaflow-serve` streams rendered tables as the
//! final frame of a sweep response — can render them without pulling in
//! the whole bench harness. Tables 1–8 need interpreter profiles, not an
//! [`Evaluation`], and stay in `javaflow-bench`.

use std::fmt::Write as _;

use javaflow_analysis::{mesh_heatmap, NetSummary, Summary};
use javaflow_fabric::{BranchMode, Layout, Timing};
use javaflow_workloads::SuiteKind;

use crate::{Evaluation, Filter};

fn fmt_summary_row(out: &mut String, label: &str, s: &Summary) {
    let _ = writeln!(
        out,
        "{label:<14} mean {m:>9.3}  std {sd:>9.3}  median {md:>9.3}  max {mx:>9.3}  min {mn:>9.3}",
        m = s.mean,
        sd = s.std_dev,
        md = s.median,
        mx = s.max,
        mn = s.min,
    );
}

/// Tables 9–30: the Chapter 7 results, from an [`Evaluation`].
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn chapter7_tables(eval: &Evaluation, table: u32) -> String {
    let mut out = String::new();
    let summaries = |filter: Filter, names: &[&str]| -> Vec<(&'static str, Summary)> {
        eval.dataflow_summaries(filter).into_iter().filter(|(n, _)| names.contains(n)).collect()
    };
    match table {
        9 => {
            let _ = writeln!(out, "Table 9 — General Data Flow Analysis (Filter 1)");
            for (n, s) in
                summaries(Filter::Filter1, &["Static Inst", "Local Regs", "Stack", "Back Merge"])
            {
                fmt_summary_row(&mut out, n, &s);
            }
            let _ = writeln!(
                out,
                "(paper: mean inst 56, median 29, regs ≈ 4.5, stack ≈ 3.9, back merge 0)"
            );
        }
        10 => {
            let _ = writeln!(out, "Table 10 — DataFlow FanOut and Arc Analysis (Filter 1)");
            for (n, s) in
                summaries(Filter::Filter1, &["FanOut Avg", "FanOut Max", "Arc Avg", "Arc Max"])
            {
                fmt_summary_row(&mut out, n, &s);
            }
            let _ = writeln!(out, "(paper: fanout avg ≈ 1.04, arc avg ≈ 1.9, arc max mean ≈ 6.9)");
        }
        11 => {
            let _ = writeln!(out, "Table 11 — DataFlow Resolution Queue Analysis (Filter 1)");
            for (n, s) in summaries(Filter::Filter1, &["Max Q Up"]) {
                fmt_summary_row(&mut out, n, &s);
            }
            let _ = writeln!(out, "(paper: mean 3.0, median 3, max 11)");
        }
        12 => {
            let _ = writeln!(out, "Table 12 — DataFlow Merge Analysis (Filter 1)");
            for (n, s) in summaries(Filter::Filter1, &["Merges"]) {
                fmt_summary_row(&mut out, n, &s);
            }
            let _ = writeln!(out, "(paper: mean 0.29, median 0, max 9)");
        }
        13 => {
            let _ = writeln!(out, "Table 13 — DataFlow Jump Forward Analysis (Filter 1)");
            for (n, s) in summaries(Filter::Filter1, &["Fwd Jumps", "Fwd Avg Len", "Fwd Max Len"]) {
                fmt_summary_row(&mut out, n, &s);
            }
            let _ = writeln!(out, "(paper: mean count 3.1, mean avg-len 12.0)");
        }
        14 => {
            let _ = writeln!(out, "Table 14 — DataFlow Jump Backward Analysis (Filter 1)");
            for (n, s) in
                summaries(Filter::Filter1, &["Back Jumps", "Back Avg Len", "Back Max Len"])
            {
                fmt_summary_row(&mut out, n, &s);
            }
            let _ = writeln!(out, "(paper: mean count 0.61, median 0)");
        }
        15 => {
            let _ = writeln!(out, "Table 15 — Benchmark Configurations");
            for c in &eval.configs {
                let serial = c.serial_per_mesh.map_or("unlimited".to_string(), |s| s.to_string());
                let layout = match c.layout {
                    Layout::Homogeneous => "homogeneous",
                    Layout::Sparse => "every other node blank",
                    Layout::Heterogeneous => "static-mix heterogeneous",
                };
                let _ = writeln!(
                    out,
                    "{:<10}  width {:>2}  serial/mesh {:<9}  collapsed {:<5}  {layout}",
                    c.name, c.width, serial, c.collapsed
                );
            }
        }
        16 => {
            let _ = writeln!(out, "Table 16 — Filters on Methods");
            for f in Filter::ALL {
                let methods = eval.filtered(*f).len();
                let _ = writeln!(
                    out,
                    "{:<10}  methods {:>5}  executions {:>5}",
                    f.label(),
                    methods,
                    methods * 2
                );
            }
            let _ = writeln!(out, "(paper: 1605 / 915 / 107 methods)");
        }
        17 => {
            let t = Timing::default();
            let _ = writeln!(out, "Table 17 — Execution Cycles per Instruction (+ Figure 25)");
            let _ = writeln!(out, "Move                          : {}", t.move_cycles);
            let _ = writeln!(out, "Floating point arithmetic     : {}", t.float_cycles);
            let _ = writeln!(out, "Integer-Float conversion      : {}", t.convert_cycles);
            let _ = writeln!(out, "Special/Logical/Register/Mem  : {}", t.other_cycles);
            let _ = writeln!(out, "Memory service (mesh cycles)  : {}", t.memory_service);
            let _ = writeln!(out, "GPP service (mesh cycles)     : {}", t.gpp_service);
        }
        18 => {
            let _ = writeln!(out, "Table 18 — Execution Coverage (All Methods)");
            let _ = writeln!(
                out,
                "BP-1: {:.0}%   BP-2: {:.0}%   (paper: 83% / 80%)",
                eval.coverage(BranchMode::Bp1) * 100.0,
                eval.coverage(BranchMode::Bp2) * 100.0
            );
        }
        19 => {
            let _ = writeln!(out, "Table 19 — Ratio of Nodes Spanned to Instructions");
            for (ci, c) in eval.configs.iter().enumerate() {
                if let Some(s) = eval.span_summary(ci, Filter::All) {
                    let _ = writeln!(out, "{:<10} {:>6.2}", c.name, s.mean);
                }
            }
            let _ = writeln!(out, "(paper: 1.0 compact, 2.0 sparse, 3.11 heterogeneous)");
        }
        20 => {
            let _ = writeln!(out, "Table 20 — Heterogeneous Addressing Detail (Filter 1)");
            let hetero = eval
                .configs
                .iter()
                .position(|c| c.layout == Layout::Heterogeneous)
                .unwrap_or(eval.configs.len() - 1);
            if let Some(s) = eval.span_summary(hetero, Filter::Filter1) {
                fmt_summary_row(&mut out, "Inst span", &s);
            }
            let _ = writeln!(out, "(paper: average 3.11, median 3.09, σ 1.81)");
        }
        21 | 22 | 24 | 25 => {
            let (filter, label) = match table {
                21 => (Filter::All, "Table 21 — Raw IPC Data (All Methods)"),
                22 => (Filter::All, "Table 22 — Figure of Merit (All Methods)"),
                24 => (Filter::Filter1, "Table 24 — All Data (Filter 1)"),
                _ => (Filter::Filter2, "Table 25 — All Data (Filter 2)"),
            };
            let _ = writeln!(out, "{label}");
            let rows = eval.config_rows(filter);
            let _ = writeln!(
                out,
                "{:<11} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>7} {:>8}",
                "Config", "IPC-Mean", "IPC-Std", "IPC-Med", "IPC-Max", "IPC-Min", "FM", "FM-Std"
            );
            for r in rows {
                let _ = writeln!(
                    out,
                    "{:<11} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} | {:>7.2} {:>8.2}",
                    r.name,
                    r.ipc.mean,
                    r.ipc.std_dev,
                    r.ipc.median,
                    r.ipc.max,
                    r.ipc.min,
                    r.fom.mean,
                    r.fom.std_dev
                );
            }
            let _ =
                writeln!(out, "(paper FoM, all methods: 1.00 / 0.96 / 0.88 / 0.75 / 0.58 / 0.47)");
        }
        23 => {
            let hetero = eval
                .configs
                .iter()
                .position(|c| c.layout == Layout::Heterogeneous)
                .unwrap_or(eval.configs.len() - 1);
            let _ = writeln!(out, "Table 23 — Correlations with FM Hetero2 (Filter All)");
            for (name, c) in eval.correlations(hetero, Filter::All) {
                let _ = writeln!(out, "{name:<12} {c:>6.2}");
            }
            let _ = writeln!(out, "(paper: −0.25 / −0.21 / −0.27 / −0.10 — all weak)");
        }
        26 => {
            let _ = writeln!(out, "Table 26 — Parallelism (All Methods)");
            for (name, p) in eval.parallelism() {
                let _ = writeln!(out, "{name:<11} {:>5.0}%", p * 100.0);
            }
            let _ = writeln!(out, "(paper: 40/37/33/24/13/12%)");
        }
        27 | 28 => {
            let kind = if table == 27 { SuiteKind::Jvm2008 } else { SuiteKind::Jvm98 };
            let _ =
                writeln!(out, "Table {table} — Figure of Merit on Top Methods ({})", kind.label());
            let _ = writeln!(
                out,
                "{:<52} {:>7} {:>8}  {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
                "Benchmark::method",
                "Total I",
                "Hetero N",
                "fm0",
                "fm1",
                "fm2",
                "fm3",
                "fm4",
                "fm5"
            );
            let mut fm_sums = vec![0.0f64; eval.configs.len()];
            let mut count = 0usize;
            for (bench, name, total_i, spanned, fms) in eval.hot_method_rows(kind) {
                let _ = write!(
                    out,
                    "{:<52} {:>7} {:>8} ",
                    format!("{bench}::{name}"),
                    total_i,
                    spanned
                );
                for fm in &fms {
                    let _ = write!(out, " {fm:>5.2}");
                }
                let _ = writeln!(out);
                if fms.iter().all(|f| f.is_finite()) {
                    for (s, f) in fm_sums.iter_mut().zip(&fms) {
                        *s += f;
                    }
                    count += 1;
                }
            }
            if count > 0 {
                let _ = write!(out, "{:<52} {:>7} {:>8} ", "Mean", "", "");
                for s in &fm_sums {
                    let _ = write!(out, " {:>5.2}", s / count as f64);
                }
                let _ = writeln!(out);
            }
            let _ = writeln!(
                out,
                "(paper means fm1..fm5: ≈ 0.72–0.82 / 0.62–0.72 / 0.52–0.58 / 0.38–0.43 / 0.35–0.37)"
            );
        }
        29 => {
            let _ = writeln!(out, "Table 29 — Interconnect Link Statistics (contended model)");
            let any_net = eval.samples.iter().any(|s| s.report.net.is_some());
            if !any_net {
                let _ = writeln!(
                    out,
                    "(no link statistics: this sweep ran the ideal interconnect — \
                     rerun with --net contended)"
                );
            } else {
                let _ = writeln!(
                    out,
                    "{:<11} {:>5} {:>10} {:>10} {:>9} {:>6} {:>6} {:>8} {:>9} {:>8} {:>9}",
                    "Config",
                    "Runs",
                    "Flits",
                    "Hops",
                    "stall/hop",
                    "maxQ",
                    "meanQ",
                    "mem-req",
                    "mem-wait",
                    "gpp-req",
                    "gpp-wait"
                );
                let mut worst: Option<(usize, NetSummary)> = None;
                for (ci, fc) in eval.configs.iter().enumerate() {
                    let s = NetSummary::of(
                        eval.samples
                            .iter()
                            .filter(|s| s.config == ci)
                            .filter_map(|s| s.report.net.as_deref()),
                    );
                    let _ = writeln!(
                        out,
                        "{:<11} {:>5} {:>10} {:>10} {:>9.3} {:>6} {:>6.2} {:>8} {:>9} {:>8} {:>9}",
                        fc.name,
                        s.runs,
                        s.mesh_flits,
                        s.mesh_hops,
                        s.stall_per_hop(),
                        s.max_queue_depth,
                        s.mean_queue_depth,
                        s.memory_ring.0,
                        s.memory_ring.1,
                        s.gpp_ring.0,
                        s.gpp_ring.1,
                    );
                    let worse = worst.as_ref().is_none_or(|(_, w)| {
                        s.mesh_hops > 0 && s.stall_per_hop() > w.stall_per_hop()
                    });
                    if worse {
                        worst = Some((ci, s));
                    }
                }
                if let Some((ci, s)) = worst.filter(|(_, s)| s.mesh_hops > 0) {
                    let width = eval.configs[ci].width;
                    let _ =
                        writeln!(out, "\nhotspots — {} (worst stall/hop):", eval.configs[ci].name);
                    out.push_str(&mesh_heatmap(&s, width));
                    for (x, y, flits, stall) in s.hotspots(5) {
                        let _ = writeln!(out, "  ({x},{y}): {flits} flits, {stall} stall ticks");
                    }
                }
            }
        }
        30 => {
            let _ = writeln!(out, "Table 30 — Instrumentation Summary");
            out.push_str(&eval.metrics().render());
        }
        other => {
            let _ = writeln!(out, "(table {other} is not a Chapter 7 table)");
        }
    }
    out
}

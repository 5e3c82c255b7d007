//! Accessor-level tests for the evaluation harness: table-row extraction,
//! per-method sample lookup, hot-method rows, and custom configuration
//! lists.

use javaflow_core::{EvalConfig, Evaluation, Filter};
use javaflow_fabric::{BranchMode, FabricConfig};
use javaflow_workloads::SuiteKind;

fn tiny() -> Evaluation {
    Evaluation::run(&EvalConfig {
        synthetic_count: 6,
        max_mesh_cycles: 120_000,
        ..EvalConfig::default()
    })
}

#[test]
fn sample_lookup_round_trips() {
    let e = tiny();
    let ri = e.filtered(Filter::Filter2)[0];
    for (ci, _) in e.configs.iter().enumerate() {
        for bp in [BranchMode::Bp1, BranchMode::Bp2] {
            let rep = e.sample(ri, ci, bp).expect("hot methods run everywhere");
            assert!(rep.ipc > 0.0);
        }
    }
    assert!(e.sample(usize::MAX, 0, BranchMode::Bp1).is_none());
}

#[test]
fn hot_method_rows_cover_both_suites() {
    let e = tiny();
    let rows08 = e.hot_method_rows(SuiteKind::Jvm2008);
    let rows98 = e.hot_method_rows(SuiteKind::Jvm98);
    assert!(rows08.len() >= 15, "{}", rows08.len());
    assert!(rows98.len() >= 12, "{}", rows98.len());
    for (bench, name, total_i, spanned, fms) in rows08.iter().chain(&rows98) {
        assert!(!bench.is_empty() && !name.is_empty());
        assert!(*total_i > 10 && *total_i < 1000, "{name}: {total_i}");
        assert!(spanned >= total_i, "{name}: spans {spanned} < {total_i}");
        assert_eq!(fms.len(), 6);
        // Baseline FoM is 1 by definition; others are in (0, ~1.2].
        assert!((fms[0] - 1.0).abs() < 1e-9, "{name}: fm0 = {}", fms[0]);
        for fm in &fms[1..] {
            assert!(fm.is_nan() || (*fm > 0.0 && *fm < 1.5), "{name}: {fm}");
        }
    }
    // The case-study method appears.
    assert!(rows08.iter().any(|(_, n, _, _, _)| n == "Random.nextDouble"));
}

#[test]
fn dataflow_summaries_expose_all_table_rows() {
    let e = tiny();
    let names: Vec<&str> = e.dataflow_summaries(Filter::All).iter().map(|(n, _)| *n).collect();
    for wanted in [
        "Static Inst",
        "Local Regs",
        "Stack",
        "Back Merge",
        "FanOut Avg",
        "Arc Avg",
        "Max Q Up",
        "Merges",
        "Fwd Jumps",
        "Back Jumps",
    ] {
        assert!(names.contains(&wanted), "missing summary `{wanted}`");
    }
    // The back-merge row must be identically zero.
    let (_, s) =
        e.dataflow_summaries(Filter::All).into_iter().find(|(n, _)| *n == "Back Merge").unwrap();
    assert_eq!(s.max, 0.0);
}

#[test]
fn custom_config_subset_works() {
    let e = Evaluation::run(&EvalConfig {
        synthetic_count: 4,
        max_mesh_cycles: 80_000,
        configs: vec![FabricConfig::baseline(), FabricConfig::sparse2()],
        ..EvalConfig::default()
    });
    let rows = e.config_rows(Filter::All);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].name, "Baseline");
    assert!((rows[0].fom.mean - 1.0).abs() < 1e-9);
    assert!(rows[1].fom.mean < 1.0);
}

#[test]
fn filter2_is_subset_of_filter1() {
    let e = tiny();
    let f1 = e.filtered(Filter::Filter1);
    let f2 = e.filtered(Filter::Filter2);
    assert!(f2.iter().all(|i| f1.contains(i)));
    assert!(f2.len() < f1.len());
}

#[test]
fn popped_and_inherited_events_add_up_to_report_events() {
    let e = tiny();
    let m = e.metrics();
    let events: u64 = e.samples.iter().map(|s| s.report.events).sum();
    let inherited = m.counter("events_inherited");
    assert!(inherited > 0, "some BP-2 run resumes from its BP-1 twin");
    assert_eq!(m.counter("events_popped") + inherited, events);
}

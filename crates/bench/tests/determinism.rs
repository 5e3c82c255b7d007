//! Determinism of the parallel evaluation sweep: any thread count must
//! reproduce the serial results bit for bit — same statics, same samples
//! in the same order, and byte-identical rendered tables.

use javaflow_bench::chapter7_tables;
use javaflow_core::{EvalConfig, Evaluation};
use javaflow_fabric::NetKind;

fn eval(threads: usize) -> Evaluation {
    eval_net(threads, NetKind::Ideal)
}

fn eval_net(threads: usize, net: NetKind) -> Evaluation {
    Evaluation::run(&EvalConfig {
        synthetic_count: 16,
        max_mesh_cycles: 120_000,
        threads,
        net,
        ..EvalConfig::default()
    })
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let serial = eval(1);
    let parallel = eval(4);

    assert_eq!(serial.records.len(), parallel.records.len());
    assert_eq!(serial.samples.len(), parallel.samples.len());
    // Sample ordering and content (Debug strings: float NaNs in span
    // ratios and scripted returns are bitwise-equal but `!=` by IEEE).
    for (a, b) in serial.samples.iter().zip(&parallel.samples) {
        assert_eq!((a.record, a.config, a.bp, a.ok), (b.record, b.config, b.bp, b.ok));
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    }
    assert_eq!(format!("{:?}", serial.statics), format!("{:?}", parallel.statics));

    // The rendered headline tables must match to the byte.
    for table in [21, 22] {
        assert_eq!(
            chapter7_tables(&serial, table),
            chapter7_tables(&parallel, table),
            "table {table} diverged"
        );
    }
}

#[test]
fn contended_sweep_is_bit_identical_to_serial() {
    let serial = eval_net(1, NetKind::Contended);
    let parallel = eval_net(4, NetKind::Contended);

    assert_eq!(serial.samples.len(), parallel.samples.len());
    for (a, b) in serial.samples.iter().zip(&parallel.samples) {
        assert_eq!((a.record, a.config, a.bp, a.ok), (b.record, b.config, b.bp, b.ok));
        // The Debug string covers the attached NetReport too, so link
        // arbitration and ring waits must replay identically.
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
        assert!(a.report.net.is_some(), "contended samples carry link stats");
    }
    // Table 29 folds those link stats per configuration.
    assert_eq!(chapter7_tables(&serial, 29), chapter7_tables(&parallel, 29));
}

#[test]
fn net_flag_leaves_ideal_tables_untouched() {
    // `--net ideal` must be the exact seed behaviour: explicitly setting
    // the default produces byte-identical tables.
    let implicit = eval(2);
    let explicit = eval_net(2, NetKind::Ideal);
    for table in [21, 22] {
        assert_eq!(
            chapter7_tables(&implicit, table),
            chapter7_tables(&explicit, table),
            "table {table} diverged under an explicit --net ideal"
        );
    }
    assert!(implicit.samples.iter().all(|s| s.report.net.is_none()));
}

#[test]
fn list_tables_covers_all_ids() {
    let listing = javaflow_bench::list_tables();
    for t in 1..=30u32 {
        assert!(
            listing.contains(&format!("{t:>2}  ")),
            "table {t} missing from --list-tables output"
        );
        assert_ne!(javaflow_bench::table_title(t), "(unknown table)");
    }
    assert_eq!(javaflow_bench::table_title(0), "(unknown table)");
    assert_eq!(javaflow_bench::table_title(31), "(unknown table)");
}

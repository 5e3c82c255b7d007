//! The resident-process path ([`PreparedPopulation`]) must produce
//! results bit-identical to the batch path ([`Evaluation::run`]): the
//! server's "byte-identical responses" guarantee reduces to this.

use javaflow_core::{EvalConfig, Evaluation, PreparedPopulation};

fn cfg(synthetic: usize) -> EvalConfig {
    EvalConfig { synthetic_count: synthetic, max_mesh_cycles: 150_000, ..EvalConfig::default() }
}

#[test]
fn prepared_population_matches_evaluation_run() {
    let cfg = cfg(10);
    let direct = Evaluation::run(&cfg);
    let pop = PreparedPopulation::prepare(cfg.synthetic_count, cfg.threads);
    let served = pop.evaluate(&cfg);

    // Debug-string comparison: NaN-valued returns (legitimate in scripted
    // float kernels) are bitwise-identical but `!=` under IEEE 754.
    assert_eq!(
        format!("{:?}", direct.samples),
        format!("{:?}", served.samples),
        "cached-prepare sweep diverged from Evaluation::run"
    );
    assert_eq!(format!("{:?}", direct.statics), format!("{:?}", served.statics));
    assert_eq!(
        direct.records.iter().map(|r| &r.name).collect::<Vec<_>>(),
        served.records.iter().map(|r| &r.name).collect::<Vec<_>>(),
    );
    assert_eq!(direct.configs.len(), served.configs.len());
}

#[test]
fn batching_changes_nothing_but_the_callbacks() {
    let cfg = cfg(8);
    let pop = PreparedPopulation::prepare(cfg.synthetic_count, cfg.threads);
    let whole = pop.evaluate(&cfg);

    let mut batch_firsts = Vec::new();
    let mut seen_records = 0usize;
    let batched = pop
        .evaluate_batched(&cfg, 3, |first, results| {
            batch_firsts.push(first);
            seen_records += results.len();
            true
        })
        .expect("uncancelled sweep completes");

    assert_eq!(format!("{:?}", whole.samples), format!("{:?}", batched.samples));
    assert_eq!(format!("{:?}", whole.statics), format!("{:?}", batched.statics));
    assert_eq!(seen_records, pop.len(), "every record must pass through a batch callback");
    // Batches start at 0 and stride by the batch size.
    assert_eq!(batch_firsts, (0..pop.len()).step_by(3).collect::<Vec<_>>());
}

#[test]
fn cancellation_stops_between_batches() {
    let cfg = cfg(8);
    let pop = PreparedPopulation::prepare(cfg.synthetic_count, cfg.threads);
    let mut calls = 0usize;
    let out = pop.evaluate_batched(&cfg, 2, |_, _| {
        calls += 1;
        false
    });
    assert!(out.is_none(), "a cancelled sweep must not assemble an Evaluation");
    assert_eq!(calls, 1, "cancellation after the first batch must stop the sweep");
}

//! Trace-recording properties: determinism of the recorded byte stream
//! (repeats, arena reuse) and zero impact of an active sink on the
//! report.

use javaflow_fabric::{
    execute, execute_with_sink, load, BranchMode, ExecParams, FabricConfig, RingRecorder, SimArena,
};
use javaflow_workloads::synthetic::{generate, hotspot, GenConfig};

fn params() -> ExecParams<'static, 'static> {
    ExecParams { mode: BranchMode::Bp1, max_mesh_cycles: 50_000, ..ExecParams::default() }
}

fn record(
    loaded: &javaflow_fabric::LoadedMethod<'_>,
    config: &FabricConfig,
    arena: &mut SimArena,
) -> Vec<u8> {
    let mut rec = RingRecorder::with_capacity(1 << 19);
    execute_with_sink(loaded, config, params(), arena, &mut rec);
    assert_eq!(rec.dropped(), 0, "recorder dropped events; raise the capacity");
    rec.to_bytes()
}

/// Same method + config ⇒ byte-identical recording, whether the arena is
/// fresh or reused.
#[test]
fn recording_is_byte_identical_across_repeats_arena_reuse_and_ff() {
    let (program, ids) = generate(&GenConfig { count: 8, ..GenConfig::default() });
    let mut reused = SimArena::new();
    for config in [FabricConfig::compact2(), FabricConfig::sparse2()] {
        for &id in &ids {
            let method = program.method(id);
            let Ok(loaded) = load(method, &config) else { continue };
            let baseline = record(&loaded, &config, &mut SimArena::new());
            let repeat = record(&loaded, &config, &mut SimArena::new());
            assert_eq!(baseline, repeat, "{}: repeat diverged", config.name);
            let on_reused = record(&loaded, &config, &mut reused);
            assert_eq!(baseline, on_reused, "{}: arena reuse diverged", config.name);
        }
    }
}

/// An active sink only observes: the report, scheduler counters included,
/// matches an untraced run's.
#[test]
fn active_sink_leaves_the_report_unchanged() {
    let (program, id) = hotspot();
    let method = program.method(id);
    for config in [FabricConfig::compact2(), FabricConfig::sparse2()] {
        let loaded = load(method, &config).expect("hotspot loads");
        let plain = execute(&loaded, &config, params());
        let mut rec = RingRecorder::with_capacity(1 << 19);
        let traced = execute_with_sink(&loaded, &config, params(), &mut SimArena::new(), &mut rec);
        assert_eq!(traced, plain, "{}: tracing changed the report", config.name);
        assert!(rec.events().len() as u64 > traced.executed, "{}: too few events", config.name);
    }
}

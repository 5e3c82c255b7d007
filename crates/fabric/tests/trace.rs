//! Trace-recording properties: determinism of the recorded byte stream
//! (repeats, arena reuse), a pinned digest of the whole stream, and zero
//! impact of an active sink on the report.

use javaflow_bytecode::Method;
use javaflow_fabric::{
    execute, execute_with_sink, load, BranchMode, ExecParams, FabricConfig, LoadedMethod,
    RingRecorder, SimArena,
};
use javaflow_workloads::{
    full_suite,
    synthetic::{generate, hotspot, GenConfig},
};

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
fn recording_is_byte_identical_across_repeats_and_arena_reuse() {
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

/// FNV-1a, 64-bit: a fixed, release-independent hash.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds one traced run (its length, then its bytes) into `h`.
fn fold_run(
    h: &mut u64,
    loaded: &LoadedMethod<'_>,
    config: &FabricConfig,
    mode: BranchMode,
    rec: &mut RingRecorder,
    arena: &mut SimArena,
) {
    rec.clear();
    let params = ExecParams { mode, ..params() };
    execute_with_sink(loaded, config, params, arena, rec);
    assert_eq!(rec.dropped(), 0, "recorder dropped events; raise the capacity");
    let bytes = rec.to_bytes();
    fnv(h, &(bytes.len() as u64).to_le_bytes());
    fnv(h, &bytes);
}

/// Every event the engine emits — token sends, register observations,
/// fires, retires, mesh sends, in order and with their ticks — for the
/// `--synthetic 40` population (every suite method plus 40 generated
/// ones) on all six configurations under BP-1 and BP-2, both as loaded
/// and with moves folded (folded nodes are inert pass-throughs, which
/// the report digests never run). The constant was
/// generated by the per-node walk with 48-byte events; a kernel change
/// that keeps the reports but reorders, adds or drops a single traced
/// event fails here.
#[test]
fn trace_stream_matches_the_pinned_digest() {
    let suite = full_suite();
    let (program, ids) = generate(&GenConfig { count: 40, ..GenConfig::default() });
    let methods: Vec<&Method> = suite
        .iter()
        .flat_map(|b| b.program.methods().map(|(_, m)| m))
        .chain(ids.iter().map(|&id| program.method(id)))
        .collect();
    let mut rec = RingRecorder::with_capacity(1 << 20);
    let mut arena = SimArena::new();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut folds = 0;
    for config in FabricConfig::all_six() {
        for &method in &methods {
            let Ok(loaded) = load(method, &config) else { continue };
            let mut folded = load(method, &config).expect("loaded once already");
            folds += folded.graph_mut().fold_moves(method);
            for mode in [BranchMode::Bp1, BranchMode::Bp2] {
                fold_run(&mut h, &loaded, &config, mode, &mut rec, &mut arena);
                fold_run(&mut h, &folded, &config, mode, &mut rec, &mut arena);
            }
        }
    }
    assert!(folds > 0, "no move was folded: the folded leg would repeat the loaded one");
    assert_eq!(h, 0x9b6f_ac34_1474_5a1b, "trace stream digest moved");
}

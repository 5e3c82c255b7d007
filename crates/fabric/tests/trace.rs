//! Trace-recording properties: determinism of the recorded byte stream
//! (repeats, arena reuse, fast-forward on/off), zero-impact of an active
//! sink on the report's observable fields, and the Warn events emitted
//! when a requested fast-forward is declined for semantic reasons.

use javaflow_bytecode::{asm, Value};
use javaflow_fabric::net::NetKind;
use javaflow_fabric::trace::{WARN_FF_GPP, WARN_FF_NET_ORDER};
use javaflow_fabric::{
    execute, execute_with_sink, load, BranchMode, ExecParams, FabricConfig, Gpp, RingRecorder,
    SimArena, TraceKind,
};
use javaflow_interp::Interp;
use javaflow_workloads::synthetic::{generate, hotspot, GenConfig};

fn params(ff: bool) -> ExecParams<'static, 'static> {
    ExecParams {
        mode: BranchMode::Bp1,
        max_mesh_cycles: 50_000,
        fast_forward: ff,
        ..ExecParams::default()
    }
}

fn record(
    loaded: &javaflow_fabric::LoadedMethod<'_>,
    config: &FabricConfig,
    ff: bool,
    arena: &mut SimArena,
) -> Vec<u8> {
    let mut rec = RingRecorder::with_capacity(1 << 19);
    execute_with_sink(loaded, config, params(ff), arena, &mut rec);
    assert_eq!(rec.dropped(), 0, "recorder dropped events; raise the capacity");
    rec.to_bytes()
}

/// Same method + config ⇒ byte-identical recording, whether the arena is
/// fresh or reused and whether fast-forward was requested or not (an
/// active sink always takes the naive walk, and ideal-net runs emit no
/// Warn, so the streams must match to the byte).
#[test]
fn recording_is_byte_identical_across_repeats_arena_reuse_and_ff() {
    let (program, ids) = generate(&GenConfig { count: 8, ..GenConfig::default() });
    let mut reused = SimArena::new();
    for config in [FabricConfig::compact2(), FabricConfig::sparse2()] {
        for &id in &ids {
            let method = program.method(id);
            let Ok(loaded) = load(method, &config) else { continue };
            let baseline = record(&loaded, &config, true, &mut SimArena::new());
            let repeat = record(&loaded, &config, true, &mut SimArena::new());
            assert_eq!(baseline, repeat, "{}: repeat diverged", config.name);
            let on_reused = record(&loaded, &config, true, &mut reused);
            assert_eq!(baseline, on_reused, "{}: arena reuse diverged", config.name);
            let naive = record(&loaded, &config, false, &mut SimArena::new());
            assert_eq!(baseline, naive, "{}: ff on/off diverged", config.name);
        }
    }
}

/// An active sink forces the naive walk but must not change any
/// observable report field; the ff-exempt counters behave like a
/// `fast_forward: false` run.
#[test]
fn active_sink_leaves_the_report_unchanged() {
    let (program, id) = hotspot();
    let method = program.method(id);
    for config in [FabricConfig::compact2(), FabricConfig::sparse2()] {
        let loaded = load(method, &config).expect("hotspot loads");
        let plain = execute(&loaded, &config, params(false));
        let mut rec = RingRecorder::with_capacity(1 << 19);
        let traced =
            execute_with_sink(&loaded, &config, params(true), &mut SimArena::new(), &mut rec);
        assert_eq!(traced, plain, "{}: tracing changed the report", config.name);
        assert_eq!(traced.events_skipped, 0, "{}: traced run fast-forwarded", config.name);
        assert!(rec.events().len() as u64 > traced.executed, "{}: too few events", config.name);
    }
}

/// A contended net declines fast-forward; with a sink attached, the
/// recording must say so — exactly once, and only when it was requested.
#[test]
fn declined_fast_forward_warns_net_order() {
    let (program, id) = hotspot();
    let method = program.method(id);
    let config = FabricConfig::compact2().with_net(NetKind::Contended);
    let loaded = load(method, &config).expect("hotspot loads");
    let mut rec = RingRecorder::with_capacity(1 << 19);
    execute_with_sink(&loaded, &config, params(true), &mut SimArena::new(), &mut rec);
    let warns: Vec<u32> =
        rec.events().iter().filter(|e| e.kind == TraceKind::Warn).map(|e| e.arg).collect();
    assert_eq!(warns, [WARN_FF_NET_ORDER], "expected exactly one net-order warn");

    // Not requested ⇒ nothing to warn about.
    let mut quiet = RingRecorder::with_capacity(1 << 19);
    execute_with_sink(&loaded, &config, params(false), &mut SimArena::new(), &mut quiet);
    assert!(
        quiet.events().iter().all(|e| e.kind != TraceKind::Warn),
        "unrequested fast-forward must not warn"
    );
}

/// A non-stub GPP declines fast-forward; the recording names that reason.
#[test]
fn declined_fast_forward_warns_gpp() {
    let program = asm::assemble(
        ".method triple args=1 returns=true locals=1
           iload 0
           iconst_3
           imul
           ireturn
         .end",
    )
    .unwrap();
    let (_, method) = program.method_by_name("triple").unwrap();
    let config = FabricConfig::compact2();
    let loaded = load(method, &config).expect("triple loads");
    let mut gpp = Interp::new(&program);
    let mut rec = RingRecorder::with_capacity(1 << 16);
    let report = execute_with_sink(
        &loaded,
        &config,
        ExecParams {
            mode: BranchMode::Data,
            gpp: Gpp::Interp(&mut gpp),
            args: vec![Value::Int(14)],
            ..ExecParams::default()
        },
        &mut SimArena::new(),
        &mut rec,
    );
    assert_eq!(report.outcome, javaflow_fabric::Outcome::Returned(Some(Value::Int(42))));
    let warns: Vec<u32> =
        rec.events().iter().filter(|e| e.kind == TraceKind::Warn).map(|e| e.arg).collect();
    assert_eq!(warns, [WARN_FF_GPP], "expected exactly one gpp warn");
}

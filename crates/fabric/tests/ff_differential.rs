//! Differential property tests for the optimized walks: on randomized
//! synthetic methods (the same generator the evaluation sweep runs), the
//! skip-index fast-forward must report exactly the cycle counts, stats,
//! and outcome of the naive per-node walk, across every configuration and
//! scripted branch mode.
//!
//! Two counter families are exempt from strict equality by design:
//!
//! * `events` / `events_skipped` — the point of the optimizations; the
//!   naive walk must pop at least as many events as the fast walk, and the
//!   fast walk must actually skip some.
//! * `serial_msgs` / `mesh_msgs` / `relay_fires` — the fast walk commits a
//!   whole token route (or relay fan-out) at send time, while the naive
//!   walk books each hop as its event is processed; a run that terminates
//!   with tokens in flight therefore counts a few trailing hops only under
//!   fast-forward. The fast counters can never be *smaller*.

use javaflow_fabric::{
    execute, load, BranchMode, ExecParams, ExecReport, FabricConfig, Gpp, SimArena,
};
use javaflow_workloads::synthetic::{generate, GenConfig};

fn run(
    loaded: &javaflow_fabric::LoadedMethod<'_>,
    fc: &FabricConfig,
    bp: BranchMode,
    ff: bool,
) -> ExecReport {
    execute(
        loaded,
        fc,
        ExecParams {
            mode: bp,
            max_mesh_cycles: 250_000,
            gpp: Gpp::Stub,
            args: Vec::new(),
            fast_forward: ff,
        },
    )
}

/// Asserts the observable parts of two reports are identical, and the
/// event/in-flight counters satisfy the fast-forward contract.
#[allow(clippy::float_cmp)] // both sides compute the same exact division
fn assert_equivalent(fast: &ExecReport, naive: &ExecReport, ctx: &str) {
    assert_eq!(fast.outcome, naive.outcome, "{ctx}: outcome");
    assert_eq!(fast.mesh_cycles, naive.mesh_cycles, "{ctx}: mesh_cycles");
    assert_eq!(fast.executed, naive.executed, "{ctx}: executed");
    assert_eq!(fast.static_covered, naive.static_covered, "{ctx}: static_covered");
    assert_eq!(fast.coverage, naive.coverage, "{ctx}: coverage");
    assert_eq!(fast.ipc, naive.ipc, "{ctx}: ipc");
    assert_eq!(fast.frac_cycles_ge1, naive.frac_cycles_ge1, "{ctx}: frac_cycles_ge1");
    assert_eq!(fast.frac_cycles_ge2, naive.frac_cycles_ge2, "{ctx}: frac_cycles_ge2");
    assert_eq!(fast.net, naive.net, "{ctx}: net report");
    assert!(fast.events <= naive.events, "{ctx}: fast walk popped more events");
    assert!(
        fast.serial_msgs >= naive.serial_msgs,
        "{ctx}: fast walk lost serial sends ({} < {})",
        fast.serial_msgs,
        naive.serial_msgs
    );
    assert!(fast.mesh_msgs >= naive.mesh_msgs, "{ctx}: fast walk lost mesh sends");
    assert!(fast.relay_fires >= naive.relay_fires, "{ctx}: fast walk lost relay fires");
    assert_eq!(naive.events_skipped, 0, "{ctx}: naive walk must not skip");
}

#[test]
fn fast_forward_matches_naive_walk_on_random_methods() {
    let mut total_skipped = 0u64;
    for seed in [0x4a56_4d46u64, 0xdead_beef, 0x0ddba11] {
        let (program, ids) = generate(&GenConfig { seed, count: 24, ..GenConfig::default() });
        for config in FabricConfig::all_six() {
            for &id in &ids {
                let method = program.method(id);
                let Ok(loaded) = load(method, &config) else { continue };
                for bp in [BranchMode::Bp1, BranchMode::Bp2] {
                    let fast = run(&loaded, &config, bp, true);
                    let naive = run(&loaded, &config, bp, false);
                    let ctx = format!("seed {seed:#x} method {id:?} {} {bp:?}", config.name);
                    assert_equivalent(&fast, &naive, &ctx);
                    total_skipped += fast.events_skipped;
                }
            }
        }
    }
    assert!(total_skipped > 0, "fast-forward never skipped a single event");
}

/// The arena-reusing entry point (the sweep's hot path) must behave the
/// same as the fresh-arena one under fast-forward, run after run.
#[test]
fn fast_forward_is_stable_under_arena_reuse() {
    let (program, ids) = generate(&GenConfig { count: 6, ..GenConfig::default() });
    let config = FabricConfig::compact2();
    let mut arena = SimArena::new();
    for &id in &ids {
        let method = program.method(id);
        let Ok(loaded) = load(method, &config) else { continue };
        let fresh = run(&loaded, &config, BranchMode::Bp1, true);
        for pass in 0..3 {
            let reused = javaflow_fabric::execute_in(
                &loaded,
                &config,
                ExecParams {
                    mode: BranchMode::Bp1,
                    max_mesh_cycles: 250_000,
                    ..ExecParams::default()
                },
                &mut arena,
            );
            assert_eq!(fresh, reused, "arena reuse changed a report (pass {pass})");
        }
    }
}

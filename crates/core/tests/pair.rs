//! The BP-1/BP-2 pair entry against two independent runs.
//!
//! `execute_pair_in` simulates the prefix the two branch scripts share
//! once and forks BP-2 off a copy of the BP-1 run at its first forward
//! conditional decision. Each of its reports must equal what a separate
//! `execute_in` run under that script returns, for every method of the
//! synthetic-40 population on all six configurations, under both
//! interconnect models. The Baseline's zero-tick serial hops put a whole
//! serial walk in one timing-wheel bucket, so its forks land mid-bucket;
//! methods that return before deciding a forward jump never fork.

use javaflow_core::{population, EvalConfig};
use javaflow_fabric::{
    execute_in, execute_pair_in, load_with_resolved, prepare, BranchMode, ExecParams, ExecReport,
    FabricConfig, NetKind, SimArena,
};

/// Report equality that also holds for a method returning NaN (which
/// `PartialEq` never calls equal): the `Debug` rendering prints every
/// field, floats in round-trip form.
fn same(a: &ExecReport, b: &ExecReport) -> bool {
    a == b || format!("{a:?}") == format!("{b:?}")
}

#[test]
fn pair_equals_two_single_runs() {
    let max_mesh_cycles = EvalConfig::default().max_mesh_cycles;
    let records = population(40);
    let (mut arena, mut twin, mut single) = (SimArena::new(), SimArena::new(), SimArena::new());
    let (mut pairs, mut forked, mut unforked, mut baseline_forked) = (0, 0, 0, 0);
    for net in [NetKind::Ideal, NetKind::Contended] {
        for config in FabricConfig::all_six() {
            let config = config.with_net(net);
            for rec in &records {
                let Ok(prepared) = prepare(&rec.method) else { continue };
                let Ok(loaded) = load_with_resolved(&prepared, &config) else { continue };
                let pair =
                    execute_pair_in(&loaded, &config, max_mesh_cycles, &mut arena, &mut twin);
                for (bp, got) in [(BranchMode::Bp1, &pair.bp1), (BranchMode::Bp2, &pair.bp2)] {
                    let params = ExecParams { mode: bp, max_mesh_cycles, ..ExecParams::default() };
                    let want = execute_in(&loaded, &config, params, &mut single);
                    assert!(
                        same(got, &want),
                        "{} on {} ({net:?}) {bp:?}: pair {got:?}, single run {want:?}",
                        rec.name,
                        config.name
                    );
                }
                pairs += 1;
                if pair.bp2_inherited == pair.bp1.events {
                    // Never forked: BP-2 is BP-1, every event inherited.
                    assert!(same(&pair.bp1, &pair.bp2), "{} on {}", rec.name, config.name);
                    unforked += 1;
                } else {
                    assert!(
                        0 < pair.bp2_inherited && pair.bp2_inherited < pair.bp2.events,
                        "{} on {}: inherited {} of {} events",
                        rec.name,
                        config.name,
                        pair.bp2_inherited,
                        pair.bp2.events
                    );
                    forked += 1;
                    baseline_forked += usize::from(config.collapsed);
                }
            }
        }
    }
    assert!(pairs > 1000, "only {pairs} pairs ran");
    assert!(forked > 0 && unforked > 0, "{forked} pairs forked, {unforked} did not");
    assert!(baseline_forked > 0, "no pair forked on the collapsed Baseline");
}

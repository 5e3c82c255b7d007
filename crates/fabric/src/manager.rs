//! Fabric management: multiple resident methods, anchor state, and
//! unloading (Section 6.2 "Management and Cleanup").
//!
//! The GPP "is not involved in the actual assignment of instructions to
//! specific nodes, but obviously has to have some idea about how many
//! methods are deployed and how they are being utilized". The
//! [`FabricManager`] models that bookkeeping: each deployed method gets an
//! Anchor and a contiguous serial-chain region; anchors expose the
//! busy/available signal that enforces the one-thread-per-method rule
//! (Section 4.3: methods execute atomically, no recursion); unloading
//! (`CMD_UNLOAD_INSTRUCTION`) frees the region for reuse.
//!
//! Because each resident method's serial and mesh traffic is confined to
//! its own region, concurrently resident methods execute independently —
//! the dissertation's superposition argument ("the overall Instructions
//! per Cycle for the system would be the sum of the individual
//! Instructions per Cycle for each method", Chapter 8) — which
//! [`FabricManager::run_all_scripted`] makes measurable.

use std::sync::Arc;

use javaflow_bytecode::Method;

use crate::{
    execute, resolve, BranchMode, DataflowGraph, DecodedMethod, ExecParams, ExecReport,
    FabricConfig, LoadedMethod, Outcome, PlaceError, Placement, ResolveError,
};

/// Handle to a deployed method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnchorId(u32);

impl std::fmt::Display for AnchorId {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fm, "anchor{}", self.0)
    }
}

#[derive(Debug)]
struct Deployment {
    /// First serial-chain slot of the region.
    start: u32,
    /// One past the last slot.
    end: u32,
    /// Whether a thread currently executes the method.
    busy: bool,
    /// Method name, for diagnostics.
    name: String,
}

/// Management failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum ManageError {
    /// No free region large enough.
    FabricFull {
        /// Nodes requested (after layout skips).
        needed: u32,
        /// Largest contiguous free region.
        largest_free: u32,
    },
    /// Placement failed inside the candidate region.
    Place(PlaceError),
    /// Address resolution failed.
    Resolve(ResolveError),
    /// The anchor is unknown (already unloaded?).
    UnknownAnchor(AnchorId),
    /// The method is executing; the anchor returned its busy signal.
    Busy(AnchorId),
}

impl std::fmt::Display for ManageError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManageError::FabricFull { needed, largest_free } => {
                write!(fm, "fabric full: need {needed} nodes, largest free region {largest_free}")
            }
            ManageError::Place(e) => write!(fm, "placement: {e}"),
            ManageError::Resolve(e) => write!(fm, "resolution: {e}"),
            ManageError::UnknownAnchor(a) => write!(fm, "unknown {a}"),
            ManageError::Busy(a) => write!(fm, "{a} is busy"),
        }
    }
}

impl std::error::Error for ManageError {}

/// The fabric-residency manager.
#[derive(Debug)]
pub struct FabricManager {
    config: FabricConfig,
    deployments: Vec<Option<Deployment>>,
}

impl FabricManager {
    /// A manager over an empty fabric.
    #[must_use]
    pub fn new(config: FabricConfig) -> FabricManager {
        FabricManager { config, deployments: Vec::new() }
    }

    /// The managed configuration.
    #[must_use]
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Occupied node count.
    #[must_use]
    pub fn occupied(&self) -> u32 {
        self.deployments.iter().flatten().map(|d| d.end - d.start).sum()
    }

    /// Live deployments as `(anchor, name, region)` tuples.
    pub fn resident(&self) -> impl Iterator<Item = (AnchorId, &str, (u32, u32))> {
        self.deployments.iter().enumerate().filter_map(|(i, d)| {
            d.as_ref().map(|d| (AnchorId(i as u32), d.name.as_str(), (d.start, d.end)))
        })
    }

    /// Contiguous free regions as `(start, end)` pairs, ascending.
    fn free_regions(&self) -> Vec<(u32, u32)> {
        let mut used: Vec<(u32, u32)> =
            self.deployments.iter().flatten().map(|d| (d.start, d.end)).collect();
        used.sort_unstable();
        let mut free = Vec::new();
        let mut cursor = 0u32;
        for (s, e) in used {
            if s > cursor {
                free.push((cursor, s));
            }
            cursor = cursor.max(e);
        }
        if cursor < self.config.max_nodes {
            free.push((cursor, self.config.max_nodes));
        }
        free
    }

    /// Deploys a method into the first free region that fits (the GPP's
    /// only decision: which Anchor to use — Section 6.2).
    ///
    /// # Errors
    ///
    /// See [`ManageError`].
    pub fn deploy<'m>(
        &mut self,
        method: &'m Method,
    ) -> Result<(AnchorId, LoadedMethod<'m>), ManageError> {
        let resolved = resolve(method).map_err(ManageError::Resolve)?;
        let mut largest = 0u32;
        for (start, end) in self.free_regions() {
            largest = largest.max(end - start);
            let capacity = end - start;
            match place_in_region(method, &self.config, start, capacity) {
                Ok(placement) => {
                    let span = placement.max_node - start;
                    let dep = Deployment {
                        start,
                        end: start + span,
                        busy: false,
                        name: method.name.clone(),
                    };
                    let id = self.insert(dep);
                    let graph = DataflowGraph::from_resolved(&resolved);
                    return Ok((
                        id,
                        LoadedMethod {
                            method,
                            placement,
                            resolved: Arc::new(resolved),
                            graph: Arc::new(graph),
                            decoded: Arc::new(DecodedMethod::decode(method)),
                        },
                    ));
                }
                Err(_) => continue,
            }
        }
        Err(ManageError::FabricFull { needed: method.len() as u32, largest_free: largest })
    }

    fn insert(&mut self, dep: Deployment) -> AnchorId {
        for (i, slot) in self.deployments.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(dep);
                return AnchorId(i as u32);
            }
        }
        self.deployments.push(Some(dep));
        AnchorId((self.deployments.len() - 1) as u32)
    }

    /// Marks the method's anchor busy (a thread enters). The anchor
    /// "maintains the status of a deployed method so that if a different
    /// thread attempted to execute the method, the proper busy/available
    /// signal could be returned".
    ///
    /// # Errors
    ///
    /// [`ManageError::Busy`] if already executing; `UnknownAnchor` if
    /// unloaded.
    pub fn begin_run(&mut self, anchor: AnchorId) -> Result<(), ManageError> {
        let d = self
            .deployments
            .get_mut(anchor.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(ManageError::UnknownAnchor(anchor))?;
        if d.busy {
            return Err(ManageError::Busy(anchor));
        }
        d.busy = true;
        Ok(())
    }

    /// Marks the anchor available again (the thread exited).
    ///
    /// # Errors
    ///
    /// `UnknownAnchor` if unloaded.
    pub fn end_run(&mut self, anchor: AnchorId) -> Result<(), ManageError> {
        let d = self
            .deployments
            .get_mut(anchor.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(ManageError::UnknownAnchor(anchor))?;
        d.busy = false;
        Ok(())
    }

    /// Unloads a method (`CMD_UNLOAD_INSTRUCTION`), freeing its region.
    ///
    /// # Errors
    ///
    /// `Busy` while executing; `UnknownAnchor` if already unloaded.
    pub fn unload(&mut self, anchor: AnchorId) -> Result<(), ManageError> {
        let slot = self
            .deployments
            .get_mut(anchor.0 as usize)
            .ok_or(ManageError::UnknownAnchor(anchor))?;
        match slot {
            Some(d) if d.busy => Err(ManageError::Busy(anchor)),
            Some(_) => {
                *slot = None;
                Ok(())
            }
            None => Err(ManageError::UnknownAnchor(anchor)),
        }
    }

    /// Runs every resident method once (scripted), returning per-method
    /// reports plus the superposed system IPC — resident methods' traffic
    /// is confined to their own regions, so system throughput is the sum
    /// of the independent IPCs (Chapter 8).
    pub fn run_all_scripted(
        &mut self,
        loaded: &[(AnchorId, &LoadedMethod<'_>)],
        mode: BranchMode,
    ) -> Result<(Vec<ExecReport>, f64), ManageError> {
        for (a, _) in loaded {
            self.begin_run(*a)?;
        }
        let mut reports = Vec::with_capacity(loaded.len());
        for (_, lm) in loaded {
            let report = execute(lm, &self.config, ExecParams { mode, ..ExecParams::default() });
            reports.push(report);
        }
        for (a, _) in loaded {
            self.end_run(*a)?;
        }
        let system_ipc = reports
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Returned(_)))
            .map(|r| r.ipc)
            .sum();
        Ok((reports, system_ipc))
    }
}

/// Places a method starting at `start` with at most `capacity` nodes.
fn place_in_region(
    method: &Method,
    config: &FabricConfig,
    start: u32,
    capacity: u32,
) -> Result<Placement, PlaceError> {
    let mut slots = Vec::with_capacity(method.code.len());
    let mut coords = Vec::with_capacity(method.code.len());
    let limit = start.saturating_add(capacity).min(config.max_nodes);
    let mut pos = start;
    for (i, insn) in method.code.iter().enumerate() {
        let kind = insn.group().node_kind();
        while pos < limit && !crate::slot_kind(config.layout, pos).accepts(kind) {
            pos += 1;
        }
        if pos >= limit {
            return Err(PlaceError::FabricFull { placed: i as u32, capacity });
        }
        slots.push(pos);
        coords.push(crate::snake_coords(pos, config.width));
        pos += 1;
    }
    let max_node = slots.last().map_or(start, |s| s + 1);
    let load_ticks = method.code.len() as u64 + u64::from(max_node - start);
    Ok(Placement { slots, coords, max_node, load_ticks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use javaflow_bytecode::asm::assemble;

    fn small_method(name: &str) -> Method {
        let p = assemble(&format!(
            ".method {name} args=1 returns=true locals=2
             top:
               iinc 0 -1
               iload 0
               ifgt @top
               iload 0
               ireturn
             .end"
        ))
        .unwrap();
        let method = p.methods().next().map(|(_, m)| m.clone()).unwrap();
        method
    }

    #[test]
    fn deploys_into_disjoint_regions() {
        let mut mgr = FabricManager::new(FabricConfig::compact2());
        let m1 = small_method("a");
        let m2 = small_method("b");
        let (a1, l1) = mgr.deploy(&m1).unwrap();
        let (a2, l2) = mgr.deploy(&m2).unwrap();
        assert_ne!(a1, a2);
        let r1: Vec<u32> = l1.placement.slots.clone();
        let r2: Vec<u32> = l2.placement.slots.clone();
        assert!(r1.iter().all(|s| !r2.contains(s)), "regions overlap");
        assert_eq!(mgr.occupied(), (m1.len() + m2.len()) as u32);
        assert_eq!(mgr.resident().count(), 2);
    }

    #[test]
    fn anchor_busy_signal_blocks_reentry() {
        let mut mgr = FabricManager::new(FabricConfig::compact2());
        let m = small_method("a");
        let (a, _l) = mgr.deploy(&m).unwrap();
        mgr.begin_run(a).unwrap();
        assert!(matches!(mgr.begin_run(a), Err(ManageError::Busy(_))));
        assert!(matches!(mgr.unload(a), Err(ManageError::Busy(_))));
        mgr.end_run(a).unwrap();
        mgr.begin_run(a).unwrap();
        mgr.end_run(a).unwrap();
    }

    #[test]
    fn unload_frees_region_for_reuse() {
        let mut mgr = FabricManager::new(FabricConfig::compact2());
        let m1 = small_method("a");
        let m2 = small_method("b");
        let (a1, l1) = mgr.deploy(&m1).unwrap();
        let first_start = l1.placement.slots[0];
        mgr.unload(a1).unwrap();
        assert!(matches!(mgr.unload(a1), Err(ManageError::UnknownAnchor(_))));
        let (_a2, l2) = mgr.deploy(&m2).unwrap();
        assert_eq!(l2.placement.slots[0], first_start, "freed region reused");
    }

    #[test]
    fn superposition_sums_resident_ipcs() {
        let mut mgr = FabricManager::new(FabricConfig::compact2());
        let m1 = small_method("a");
        let m2 = small_method("b");
        let m3 = small_method("c");
        let (a1, l1) = mgr.deploy(&m1).unwrap();
        let (a2, l2) = mgr.deploy(&m2).unwrap();
        let (a3, l3) = mgr.deploy(&m3).unwrap();
        let (reports, system_ipc) =
            mgr.run_all_scripted(&[(a1, &l1), (a2, &l2), (a3, &l3)], BranchMode::Bp1).unwrap();
        assert_eq!(reports.len(), 3);
        let sum: f64 = reports.iter().map(|r| r.ipc).sum();
        assert!((system_ipc - sum).abs() < 1e-12);
        assert!(system_ipc > reports[0].ipc, "superposition beats one method");
    }

    #[test]
    fn fabric_full_reports_largest_region() {
        let mut cfg = FabricConfig::compact2();
        cfg.max_nodes = 8;
        let mut mgr = FabricManager::new(cfg);
        let m = small_method("a"); // 5 instructions
        let (_a, _l) = mgr.deploy(&m).unwrap();
        let err = mgr.deploy(&m).unwrap_err();
        assert!(matches!(err, ManageError::FabricFull { largest_free: 3, .. }), "{err}");
    }

    #[test]
    fn deployed_methods_execute_correctly_from_offset_regions() {
        // A method placed at a non-zero region start must still execute
        // (all distances are relative).
        let mut mgr = FabricManager::new(FabricConfig::compact2());
        let m1 = small_method("a");
        let m2 = small_method("b");
        let (_a1, _l1) = mgr.deploy(&m1).unwrap();
        let (_a2, l2) = mgr.deploy(&m2).unwrap();
        assert!(l2.placement.slots[0] > 0);
        let report = execute(
            &l2,
            mgr.config(),
            ExecParams { mode: BranchMode::Bp1, ..ExecParams::default() },
        );
        assert!(matches!(report.outcome, Outcome::Returned(_)), "{:?}", report.outcome);
    }
}

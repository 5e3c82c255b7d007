//! Machine configurations (Table 15).
//!
//! Six configurations are evaluated in the dissertation:
//!
//! | id | name | serial clocks / mesh clock | layout |
//! |----|------|---------------------------|--------|
//! | 0 | Baseline   | ∞ (collapsed, distance 1) | homogeneous |
//! | 1 | Compact10  | 10 | homogeneous, 10 wide |
//! | 2 | Compact4   | 4  | homogeneous, 10 wide |
//! | 3 | Compact2   | 2  | homogeneous, 10 wide |
//! | 4 | Sparse2    | 2  | every other node blank |
//! | 5 | Hetero2    | 2  | Figure 26 static-mix pattern |

use javaflow_bytecode::NodeKind;

use crate::{NetKind, Timing};

/// Node layout of the DataFlow fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Every node executes every instruction group.
    Homogeneous,
    /// Each Instruction Node separated by a blank node (Sparse2).
    Sparse,
    /// Nodes typed by the Chapter 5 static mix: per 10 nodes, 6 arithmetic,
    /// 1 floating point, 2 storage, 1 control (Figure 26).
    Heterogeneous,
}

/// The Figure 26 repeating row pattern: 6 arith, 1 float, 2 storage,
/// 1 control per 10 nodes, grouped by kind within the row as the
/// dissertation's figure draws them (like kinds share circuitry).
pub const HETERO_PATTERN: [NodeKind; 10] = [
    NodeKind::Arith,
    NodeKind::Arith,
    NodeKind::Arith,
    NodeKind::Arith,
    NodeKind::Arith,
    NodeKind::Arith,
    NodeKind::Float,
    NodeKind::Storage,
    NodeKind::Storage,
    NodeKind::Control,
];

/// One machine configuration (a Table 15 row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricConfig {
    /// Display name.
    pub name: &'static str,
    /// Mesh width in nodes (the dissertation settled on 10).
    pub width: u32,
    /// Serial clocks per mesh clock; `None` = unlimited (collapsed
    /// Baseline: all serial traffic moves before the next mesh clock).
    pub serial_per_mesh: Option<u32>,
    /// Whether mesh distance is collapsed to one hop (Baseline).
    pub collapsed: bool,
    /// Node layout.
    pub layout: Layout,
    /// Latency model.
    pub timing: Timing,
    /// Maximum number of fabric nodes available (the dissertation envisions
    /// 1,000–10,000).
    pub max_nodes: u32,
    /// Interconnect model executing mesh transfers and ring requests.
    pub net: NetKind,
}

/// An invalid [`FabricConfig`] — rejected before it can schedule zero-delay
/// events and livelock the simulator's event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `serial_per_mesh == Some(0)`: serial hops would cost zero ticks and
    /// a mesh cycle would span zero ticks.
    ZeroSerialPerMesh,
    /// A `Timing` latency is zero (named field); zero-latency execution or
    /// transit schedules same-tick event cascades.
    ZeroTiming(&'static str),
    /// The mesh must be at least one node wide.
    ZeroWidth,
    /// The fabric must have at least one node.
    ZeroMaxNodes,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroSerialPerMesh => {
                write!(fm, "serial_per_mesh must be >= 1 (use None for the collapsed baseline)")
            }
            ConfigError::ZeroTiming(field) => write!(fm, "timing.{field} must be >= 1"),
            ConfigError::ZeroWidth => write!(fm, "width must be >= 1"),
            ConfigError::ZeroMaxNodes => write!(fm, "max_nodes must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl FabricConfig {
    /// Configuration 0: the collapsed baseline.
    #[must_use]
    pub fn baseline() -> FabricConfig {
        FabricConfig {
            name: "Baseline",
            width: 10,
            serial_per_mesh: None,
            collapsed: true,
            layout: Layout::Homogeneous,
            timing: Timing::default(),
            max_nodes: 10_000,
            net: NetKind::Ideal,
        }
    }

    /// The configuration with its interconnect model replaced.
    #[must_use]
    pub fn with_net(mut self, net: NetKind) -> FabricConfig {
        self.net = net;
        self
    }

    /// Rejects configurations that can livelock the event-driven engine:
    /// zero-tick mesh cycles (`serial_per_mesh == Some(0)`) and zero
    /// latencies, which schedule events at the current tick forever (a
    /// zero-delay `goto` loop never drains the `BinaryHeap`).
    ///
    /// Every loading/execution entry point calls this.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.width == 0 {
            return Err(ConfigError::ZeroWidth);
        }
        if self.max_nodes == 0 {
            return Err(ConfigError::ZeroMaxNodes);
        }
        if self.serial_per_mesh == Some(0) {
            return Err(ConfigError::ZeroSerialPerMesh);
        }
        let t = &self.timing;
        for (value, field) in [
            (t.move_cycles, "move_cycles"),
            (t.float_cycles, "float_cycles"),
            (t.convert_cycles, "convert_cycles"),
            (t.other_cycles, "other_cycles"),
            (t.memory_service, "memory_service"),
            (t.gpp_service, "gpp_service"),
            (t.mesh_hop_cycles, "mesh_hop_cycles"),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroTiming(field));
            }
        }
        Ok(())
    }

    /// Configuration 1: Compact10.
    #[must_use]
    pub fn compact10() -> FabricConfig {
        FabricConfig {
            name: "Compact10",
            serial_per_mesh: Some(10),
            collapsed: false,
            ..FabricConfig::baseline()
        }
    }

    /// Configuration 2: Compact4.
    #[must_use]
    pub fn compact4() -> FabricConfig {
        FabricConfig { name: "Compact4", serial_per_mesh: Some(4), ..FabricConfig::compact10() }
    }

    /// Configuration 3: Compact2.
    #[must_use]
    pub fn compact2() -> FabricConfig {
        FabricConfig { name: "Compact2", serial_per_mesh: Some(2), ..FabricConfig::compact10() }
    }

    /// Configuration 4: Sparse2 — every other node blank, 2 serial clocks.
    #[must_use]
    pub fn sparse2() -> FabricConfig {
        FabricConfig { name: "Sparse2", layout: Layout::Sparse, ..FabricConfig::compact2() }
    }

    /// Configuration 5: Hetero2 — static-mix node kinds, 2 serial clocks.
    #[must_use]
    pub fn hetero2() -> FabricConfig {
        FabricConfig { name: "Hetero2", layout: Layout::Heterogeneous, ..FabricConfig::compact2() }
    }

    /// All six Table 15 configurations, in id order.
    #[must_use]
    pub fn all_six() -> Vec<FabricConfig> {
        vec![
            FabricConfig::baseline(),
            FabricConfig::compact10(),
            FabricConfig::compact4(),
            FabricConfig::compact2(),
            FabricConfig::sparse2(),
            FabricConfig::hetero2(),
        ]
    }

    /// Serial ticks per mesh cycle in the simulator's base time unit.
    ///
    /// The collapsed baseline drains serial traffic for free: one tick per
    /// mesh cycle and zero-cost serial hops.
    #[must_use]
    pub fn mesh_cycle_ticks(&self) -> u64 {
        self.serial_per_mesh.map_or(1, u64::from)
    }

    /// Serial ticks per serial network hop (zero when collapsed).
    #[must_use]
    pub fn serial_hop_ticks(&self) -> u64 {
        u64::from(self.serial_per_mesh.is_some())
    }

    /// Execution latency in ticks per timing class, indexed by
    /// `DecodedInsn::timing_class` (0 move, 1 float, 2 convert, 3 other —
    /// the Table 17 classes).
    #[must_use]
    pub fn class_ticks(&self) -> [u64; 4] {
        let mt = self.mesh_cycle_ticks();
        let t = &self.timing;
        [t.move_cycles * mt, t.float_cycles * mt, t.convert_cycles * mt, t.other_cycles * mt]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hetero_pattern_matches_static_mix() {
        let arith = HETERO_PATTERN.iter().filter(|k| **k == NodeKind::Arith).count();
        let float = HETERO_PATTERN.iter().filter(|k| **k == NodeKind::Float).count();
        let storage = HETERO_PATTERN.iter().filter(|k| **k == NodeKind::Storage).count();
        let control = HETERO_PATTERN.iter().filter(|k| **k == NodeKind::Control).count();
        assert_eq!((arith, float, storage, control), (6, 1, 2, 1));
    }

    #[test]
    fn all_six_validate() {
        for c in FabricConfig::all_six() {
            assert_eq!(c.validate(), Ok(()), "{}", c.name);
            assert_eq!(c.net, NetKind::Ideal);
        }
    }

    #[test]
    fn zero_serial_per_mesh_rejected() {
        let c = FabricConfig { serial_per_mesh: Some(0), ..FabricConfig::compact2() };
        assert_eq!(c.validate(), Err(ConfigError::ZeroSerialPerMesh));
    }

    #[test]
    fn zero_timing_rejected() {
        let mut c = FabricConfig::compact2();
        c.timing.mesh_hop_cycles = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroTiming("mesh_hop_cycles")));
        let mut c = FabricConfig::baseline();
        c.timing.move_cycles = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroTiming("move_cycles")));
    }

    #[test]
    fn zero_net_params_and_shape_rejected() {
        let c = FabricConfig { width: 0, ..FabricConfig::compact2() };
        assert_eq!(c.validate(), Err(ConfigError::ZeroWidth));
        let c = FabricConfig { max_nodes: 0, ..FabricConfig::compact2() };
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxNodes));
    }

    #[test]
    fn with_net_switches_model() {
        let c = FabricConfig::compact2().with_net(NetKind::Contended);
        assert_eq!(c.net, NetKind::Contended);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn six_configs() {
        let cs = FabricConfig::all_six();
        assert_eq!(cs.len(), 6);
        assert_eq!(cs[0].name, "Baseline");
        assert!(cs[0].collapsed);
        assert_eq!(cs[0].mesh_cycle_ticks(), 1);
        assert_eq!(cs[0].serial_hop_ticks(), 0);
        assert_eq!(cs[1].mesh_cycle_ticks(), 10);
        assert_eq!(cs[3].mesh_cycle_ticks(), 2);
        assert_eq!(cs[4].layout, Layout::Sparse);
        assert_eq!(cs[5].layout, Layout::Heterogeneous);
    }
}

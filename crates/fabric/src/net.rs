//! The contended interconnect model: X-Y mesh routers and memory/GPP rings.
//!
//! The dissertation's machine has three networks (Figure 12): the ordered
//! serial network, the X-Y routed operand mesh, and high-speed rings to the
//! memory subsystem and the GPP. The execution engine historically charged
//! mesh transfers an ideal `Manhattan-distance × hop-latency` delay and
//! memory/GPP requests the flat Figure 25 service constants, so no
//! configuration could ever observe congestion.
//!
//! This module puts that choice behind the [`NetModel`] trait:
//!
//! * [`IdealNet`] — the closed-form model, still the default. Bit-for-bit
//!   identical to the historical behaviour (Tables 15/21/22 reproduce
//!   unchanged).
//! * [`ContendedNet`] — dimension-order (X first, then Y) routers with
//!   **per-link single-flit-per-mesh-cycle arbitration**, bounded input
//!   FIFOs modeled as credit backpressure, and the memory/GPP rings as
//!   slotted rings whose stations queue requests in front of the existing
//!   service latencies.
//!
//! # Determinism rules
//!
//! The simulator is single-threaded per run and processes events in a
//! unique total order — `(tick, sequence)`, where the sequence number is
//! assigned at send time. Link and ring reservations are made in exactly
//! that order, so two flits contending for the same link at the same tick
//! are arbitrated by their position in the global event order: the message
//! sent first (by the node whose firing event was scheduled first, i.e. the
//! lowest `(tick, seq)` — for simultaneous firings this is coordinate/
//! address order, since consumer lists are resolved in address order) wins
//! the link. No wall-clock, RNG, or thread interleaving feeds the model, so
//! any thread count sweeping a population reproduces identical reports.
//!
//! # Observability
//!
//! [`ContendedNet`] counts per-link occupancy, per-router stall ticks, and
//! queue depths, and surfaces them as a [`NetReport`] attached to the run's
//! `ExecReport` ([`IdealNet`] attaches nothing). `javaflow-analysis`
//! aggregates reports into a `NetSummary` and renders the mesh hotspot
//! heatmap; `tables --bench-net` writes the ideal-vs-contended comparison
//! to `BENCH_net.json`.

use crate::trace::{TraceEvent, TraceKind, TraceSink};
use crate::FabricConfig;

/// Ring identifier in [`TraceKind::RingBoard`] events: the memory ring.
pub const RING_MEMORY: u32 = 0;
/// Ring identifier in [`TraceKind::RingBoard`] events: the GPP ring.
pub const RING_GPP: u32 = 1;

/// Which interconnect model a [`FabricConfig`] executes transfers under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetKind {
    /// Closed-form delays (the historical model; bit-identical tables).
    #[default]
    Ideal,
    /// Routed mesh + slotted rings with link-level contention.
    Contended,
}

/// Router input-FIFO capacity of the contended model, in flits; a full
/// FIFO backpressures the upstream hop (credit flow control).
const MESH_FIFO_CAPACITY: u64 = 4;
/// Mesh cycles between ring slots passing a station (one request may
/// board per slot).
const RING_SLOT_CYCLES: u64 = 1;
/// Mesh cycles a boarded request spends transiting the ring to its
/// subsystem (added on top of the Figure 25 service latency).
const RING_LATENCY_CYCLES: u64 = 2;

/// Per-ring usage counters of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingReport {
    /// Requests that boarded the ring (reads, writes, calls, specials).
    pub requests: u64,
    /// Total ticks requests waited at stations for a free slot.
    pub wait_ticks: u64,
    /// Maximum requests ever queued at a station (including the boarder).
    pub max_queue: u64,
}

/// Traffic through one mesh router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeNetStat {
    /// Router X coordinate.
    pub x: u32,
    /// Router Y coordinate.
    pub y: u32,
    /// Flits that traversed any of this router's output links.
    pub flits: u64,
    /// Total ticks flits stalled in this router's FIFOs.
    pub stall_ticks: u64,
}

/// Link-level observability of one contended run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    /// Mesh messages routed.
    pub mesh_flits: u64,
    /// Link traversals (sum of per-message hop counts).
    pub mesh_hops: u64,
    /// Total ticks flits spent stalled behind busy links or full FIFOs.
    pub stall_ticks: u64,
    /// Maximum flits ever queued on one link (including the one granted).
    pub max_queue_depth: u64,
    /// Mean queue depth observed over all link traversals.
    pub mean_queue_depth: f64,
    /// Per-router traffic, address-ordered, routers with traffic only —
    /// the mesh hotspot heatmap.
    pub hotspots: Vec<NodeNetStat>,
    /// Memory-ring usage.
    pub memory_ring: RingReport,
    /// GPP-ring usage.
    pub gpp_ring: RingReport,
}

/// The interconnect seam of the execution engine.
///
/// All times are **ticks** (serial clocks; `FabricConfig::mesh_cycle_ticks`
/// per mesh cycle), matching the simulator's base unit. Implementations may
/// keep mutable reservation state; one value models one run.
pub trait NetModel {
    /// Ticks from `now` until a mesh operand sent from `from` arrives at
    /// `to`. May reserve links (contention) and emit
    /// [`TraceKind::LinkHop`] events on `sink`.
    fn mesh_delay<S: TraceSink>(
        &mut self,
        cfg: &FabricConfig,
        now: u64,
        from: (u32, u32),
        to: (u32, u32),
        sink: &mut S,
    ) -> u64;

    /// Ticks from `now` until an ordered memory read's response is back at
    /// the requesting node.
    fn memory_delay<S: TraceSink>(&mut self, cfg: &FabricConfig, now: u64, sink: &mut S) -> u64;

    /// Accounts an ordered memory write (posted: the writer does not wait,
    /// but the request still occupies ring bandwidth).
    fn memory_write<S: TraceSink>(&mut self, cfg: &FabricConfig, now: u64, sink: &mut S);

    /// Ticks from `now` until a GPP call/special service completes.
    fn gpp_delay<S: TraceSink>(&mut self, cfg: &FabricConfig, now: u64, sink: &mut S) -> u64;

    /// Consumes the accumulated observability data, if the model collects
    /// any.
    fn take_report(&mut self) -> Option<NetReport>;
}

/// The historical closed-form model: Manhattan distance × hop latency for
/// the mesh, flat Figure 25 constants for the rings. Stateless.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealNet;

impl NetModel for IdealNet {
    fn mesh_delay<S: TraceSink>(
        &mut self,
        cfg: &FabricConfig,
        _now: u64,
        from: (u32, u32),
        to: (u32, u32),
        _sink: &mut S,
    ) -> u64 {
        let dist = if cfg.collapsed {
            1
        } else {
            (u64::from(from.0.abs_diff(to.0)) + u64::from(from.1.abs_diff(to.1))).max(1)
        };
        dist * cfg.timing.mesh_hop_cycles * cfg.mesh_cycle_ticks()
    }

    fn memory_delay<S: TraceSink>(&mut self, cfg: &FabricConfig, _now: u64, _sink: &mut S) -> u64 {
        cfg.timing.memory_service * cfg.mesh_cycle_ticks()
    }

    fn memory_write<S: TraceSink>(&mut self, _cfg: &FabricConfig, _now: u64, _sink: &mut S) {}

    fn gpp_delay<S: TraceSink>(&mut self, cfg: &FabricConfig, _now: u64, _sink: &mut S) -> u64 {
        cfg.timing.gpp_service * cfg.mesh_cycle_ticks()
    }

    fn take_report(&mut self) -> Option<NetReport> {
        None
    }
}

/// Output-link directions of a router. `Local` is the ejection port into
/// the destination node's input FIFO (every message crosses it, so even
/// same-node and collapsed-mesh transfers arbitrate).
const DIR_EAST: usize = 0;
const DIR_WEST: usize = 1;
const DIR_SOUTH: usize = 2;
const DIR_NORTH: usize = 3;
const DIR_LOCAL: usize = 4;
const DIRS: usize = 5;

#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// First tick at which the link can accept the next flit.
    next_free: u64,
    flits: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeStat {
    flits: u64,
    stall_ticks: u64,
}

/// A slotted ring: one request boards per `slot_ticks`; boarded requests
/// transit for `transit_ticks` before reaching their subsystem.
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    slot_ticks: u64,
    transit_ticks: u64,
    next_free: u64,
    requests: u64,
    wait_ticks: u64,
    max_queue: u64,
}

/// One ring boarding, as seen by the boarding request (and the
/// [`TraceKind::RingBoard`] event the caller emits).
#[derive(Debug, Clone, Copy)]
struct Boarding {
    /// Ticks until the request reaches the subsystem (wait + transit).
    delay: u64,
    /// Ticks spent waiting at the station for a free slot.
    wait: u64,
    /// Requests queued at the station (including this one).
    queued: u64,
}

impl Ring {
    /// Boards a request arriving at `now`.
    fn board(&mut self, now: u64) -> Boarding {
        let start = now.max(self.next_free);
        let wait = start - now;
        let queued = wait / self.slot_ticks.max(1) + 1;
        self.max_queue = self.max_queue.max(queued);
        self.requests += 1;
        self.wait_ticks += wait;
        self.next_free = start + self.slot_ticks;
        Boarding { delay: wait + self.transit_ticks, wait, queued }
    }

    fn report(&self) -> RingReport {
        RingReport {
            requests: self.requests,
            wait_ticks: self.wait_ticks,
            max_queue: self.max_queue,
        }
    }
}

/// The contended model: dimension-order routed mesh with per-link
/// reservation and slotted memory/GPP rings.
///
/// Links carry one flit per mesh cycle. A flit arriving at a router whose
/// wanted output link is busy waits in that router's input FIFO; a FIFO
/// holding `mesh_fifo_capacity` flits backpressures the upstream hop
/// (modeled as credit flow control: entry into the FIFO is delayed until a
/// credit frees, and the delay propagates to the flit's onward schedule).
#[derive(Debug, Clone)]
pub struct ContendedNet {
    width: u32,
    /// Per-link state, indexed `node * DIRS + dir` with `node = y*width+x`;
    /// sized for the full fabric up front (placement never exceeds
    /// `max_nodes`, so no route can touch a router beyond it).
    links: Vec<Link>,
    nodes: Vec<NodeStat>,
    mem_ring: Ring,
    gpp_ring: Ring,
    mesh_flits: u64,
    mesh_hops: u64,
    stall_ticks: u64,
    depth_sum: u64,
    max_queue_depth: u64,
}

impl ContendedNet {
    /// A fresh model for one run under `cfg`.
    #[must_use]
    pub fn new(cfg: &FabricConfig) -> ContendedNet {
        let ticks = cfg.mesh_cycle_ticks();
        let slot = RING_SLOT_CYCLES * ticks;
        let transit = RING_LATENCY_CYCLES * ticks;
        let ring = Ring { slot_ticks: slot, transit_ticks: transit, ..Ring::default() };
        let width = cfg.width.max(1);
        let rows = cfg.max_nodes.div_ceil(width).max(1);
        let routers = width as usize * rows as usize;
        ContendedNet {
            width,
            links: vec![Link::default(); routers * DIRS],
            nodes: vec![NodeStat::default(); routers],
            mem_ring: ring,
            gpp_ring: ring,
            mesh_flits: 0,
            mesh_hops: 0,
            stall_ticks: 0,
            depth_sum: 0,
            max_queue_depth: 0,
        }
    }

    fn node_index(&self, (x, y): (u32, u32)) -> usize {
        y as usize * self.width as usize + x as usize
    }

    /// One hop: arbitrate for the `dir` output link of the router at
    /// `node`, entering at `entry`. Returns the tick the flit arrives at
    /// the next router. Emits one [`TraceKind::LinkHop`] per traversal,
    /// mirroring the counter updates exactly (the replay in
    /// `analysis::trace` reconstructs the `NetReport` from them).
    #[allow(clippy::too_many_arguments)]
    fn traverse<S: TraceSink>(
        &mut self,
        node: (u32, u32),
        dir: usize,
        entry: u64,
        slot: u64,
        hop: u64,
        fifo_ticks: u64,
        sink: &mut S,
    ) -> u64 {
        let ni = self.node_index(node);
        let li = ni * DIRS + dir;
        debug_assert!(li < self.links.len(), "router {node:?} beyond the preallocated fabric");
        let link = &mut self.links[li];
        // Credit backpressure: the flit cannot enter a full FIFO.
        let hold = entry.max(link.next_free.saturating_sub(fifo_ticks));
        // Single flit per mesh cycle per link.
        let grant = hold.max(link.next_free);
        link.next_free = grant + slot;
        link.flits += 1;
        let depth = (grant - hold) / slot.max(1) + 1;
        self.depth_sum += depth;
        self.max_queue_depth = self.max_queue_depth.max(depth);
        self.mesh_hops += 1;
        let stall = grant - entry;
        self.stall_ticks += stall;
        let ns = &mut self.nodes[ni];
        ns.flits += 1;
        ns.stall_ticks += stall;
        if S::ACTIVE {
            sink.record(&TraceEvent {
                tick: entry,
                kind: TraceKind::LinkHop,
                node: node.0,
                arg: node.1,
                data: stall,
                aux: depth,
            });
        }
        grant + hop
    }
}

/// Emits the [`TraceKind::RingBoard`] event for one boarding.
fn trace_boarding<S: TraceSink>(sink: &mut S, now: u64, ring: u32, b: Boarding) {
    if S::ACTIVE {
        sink.record(&TraceEvent {
            tick: now,
            kind: TraceKind::RingBoard,
            node: u32::MAX,
            arg: ring,
            data: b.wait,
            aux: b.queued,
        });
    }
}

impl NetModel for ContendedNet {
    fn mesh_delay<S: TraceSink>(
        &mut self,
        cfg: &FabricConfig,
        now: u64,
        from: (u32, u32),
        to: (u32, u32),
        sink: &mut S,
    ) -> u64 {
        let slot = cfg.mesh_cycle_ticks();
        let hop = cfg.timing.mesh_hop_cycles * slot;
        let fifo_ticks = MESH_FIFO_CAPACITY * slot;
        self.mesh_flits += 1;
        let mut cursor = now;
        if !cfg.collapsed {
            // Dimension-order route: X first, then Y.
            let (mut x, mut y) = from;
            while x != to.0 {
                let dir = if x < to.0 { DIR_EAST } else { DIR_WEST };
                cursor = self.traverse((x, y), dir, cursor, slot, hop, fifo_ticks, sink);
                x = if x < to.0 { x + 1 } else { x - 1 };
            }
            while y != to.1 {
                let dir = if y < to.1 { DIR_SOUTH } else { DIR_NORTH };
                cursor = self.traverse((x, y), dir, cursor, slot, hop, fifo_ticks, sink);
                y = if y < to.1 { y + 1 } else { y - 1 };
            }
        }
        // Ejection into the destination's input FIFO (the collapsed
        // Baseline keeps exactly this single arbitrated hop, mirroring the
        // ideal model's distance-1 floor).
        cursor = self.traverse(to, DIR_LOCAL, cursor, slot, hop, fifo_ticks, sink);
        cursor - now
    }

    fn memory_delay<S: TraceSink>(&mut self, cfg: &FabricConfig, now: u64, sink: &mut S) -> u64 {
        let b = self.mem_ring.board(now);
        trace_boarding(sink, now, RING_MEMORY, b);
        b.delay + cfg.timing.memory_service * cfg.mesh_cycle_ticks()
    }

    fn memory_write<S: TraceSink>(&mut self, _cfg: &FabricConfig, now: u64, sink: &mut S) {
        // Posted write: occupies a ring slot, the writer does not wait.
        let b = self.mem_ring.board(now);
        trace_boarding(sink, now, RING_MEMORY, b);
    }

    fn gpp_delay<S: TraceSink>(&mut self, cfg: &FabricConfig, now: u64, sink: &mut S) -> u64 {
        let b = self.gpp_ring.board(now);
        trace_boarding(sink, now, RING_GPP, b);
        b.delay + cfg.timing.gpp_service * cfg.mesh_cycle_ticks()
    }

    fn take_report(&mut self) -> Option<NetReport> {
        let hotspots = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.flits > 0 || s.stall_ticks > 0)
            .map(|(i, s)| NodeNetStat {
                x: (i as u32) % self.width,
                y: (i as u32) / self.width,
                flits: s.flits,
                stall_ticks: s.stall_ticks,
            })
            .collect();
        let mean =
            if self.mesh_hops == 0 { 0.0 } else { self.depth_sum as f64 / self.mesh_hops as f64 };
        Some(NetReport {
            mesh_flits: self.mesh_flits,
            mesh_hops: self.mesh_hops,
            stall_ticks: self.stall_ticks,
            max_queue_depth: self.max_queue_depth,
            mean_queue_depth: mean,
            hotspots,
            memory_ring: self.mem_ring.report(),
            gpp_ring: self.gpp_ring.report(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NoopSink;

    fn contended_cfg() -> FabricConfig {
        FabricConfig { net: NetKind::Contended, ..FabricConfig::compact2() }
    }

    #[test]
    fn ideal_matches_closed_form() {
        let cfg = FabricConfig::compact2();
        let mut net = IdealNet;
        // Distance 3+2 at hop latency 1, 2 ticks per mesh cycle.
        assert_eq!(net.mesh_delay(&cfg, 0, (0, 0), (3, 2), &mut NoopSink), 10);
        // Same-node transfers still pay one hop.
        assert_eq!(net.mesh_delay(&cfg, 0, (4, 4), (4, 4), &mut NoopSink), 2);
        assert_eq!(net.memory_delay(&cfg, 0, &mut NoopSink), 20);
        assert_eq!(net.gpp_delay(&cfg, 0, &mut NoopSink), 40);
        assert!(net.take_report().is_none());
    }

    #[test]
    fn ideal_collapsed_is_distance_one() {
        let cfg = FabricConfig::baseline();
        let mut net = IdealNet;
        assert_eq!(net.mesh_delay(&cfg, 0, (0, 0), (9, 9), &mut NoopSink), 1);
    }

    #[test]
    fn uncontended_transfer_matches_ideal_distance() {
        let cfg = contended_cfg();
        let mut net = ContendedNet::new(&cfg);
        // 5 hops + ejection, each hop 2 ticks, no contention.
        let d = net.mesh_delay(&cfg, 0, (0, 0), (3, 2), &mut NoopSink);
        assert_eq!(d, 12);
        let r = net.take_report().unwrap();
        assert_eq!(r.mesh_flits, 1);
        assert_eq!(r.mesh_hops, 6);
        assert_eq!(r.stall_ticks, 0);
        assert_eq!(r.max_queue_depth, 1);
    }

    #[test]
    fn same_link_same_tick_serializes() {
        let cfg = contended_cfg();
        let mut net = ContendedNet::new(&cfg);
        let first = net.mesh_delay(&cfg, 0, (0, 0), (5, 0), &mut NoopSink);
        let second = net.mesh_delay(&cfg, 0, (0, 0), (5, 0), &mut NoopSink);
        // The second flit waits one mesh cycle (2 ticks) on the first link;
        // the gap persists down the path.
        assert_eq!(second, first + 2);
        let r = net.take_report().unwrap();
        assert!(r.stall_ticks > 0);
        assert!(r.max_queue_depth >= 2);
    }

    #[test]
    fn disjoint_paths_do_not_interact() {
        let cfg = contended_cfg();
        let mut net = ContendedNet::new(&cfg);
        let a = net.mesh_delay(&cfg, 0, (0, 0), (2, 0), &mut NoopSink);
        let b = net.mesh_delay(&cfg, 0, (0, 5), (2, 5), &mut NoopSink);
        assert_eq!(a, b);
        assert_eq!(net.take_report().unwrap().stall_ticks, 0);
    }

    #[test]
    fn fifo_backpressure_bounds_queue_depth() {
        let cfg = contended_cfg();
        let cap = MESH_FIFO_CAPACITY;
        let mut net = ContendedNet::new(&cfg);
        for _ in 0..64 {
            let _ = net.mesh_delay(&cfg, 0, (0, 0), (1, 0), &mut NoopSink);
        }
        let r = net.take_report().unwrap();
        // Credit flow control: at most capacity flits wait per link (+1 for
        // the flit being granted).
        assert!(r.max_queue_depth <= cap + 1, "depth {}", r.max_queue_depth);
    }

    #[test]
    fn ring_queues_in_front_of_service() {
        let cfg = contended_cfg();
        let ticks = cfg.mesh_cycle_ticks();
        let service = cfg.timing.memory_service * ticks;
        let transit = RING_LATENCY_CYCLES * ticks;
        let mut net = ContendedNet::new(&cfg);
        let first = net.memory_delay(&cfg, 0, &mut NoopSink);
        assert_eq!(first, transit + service);
        let second = net.memory_delay(&cfg, 0, &mut NoopSink);
        // One slot of wait before boarding.
        assert_eq!(second, first + RING_SLOT_CYCLES * ticks);
        let r = net.take_report().unwrap();
        assert_eq!(r.memory_ring.requests, 2);
        assert!(r.memory_ring.wait_ticks > 0);
        assert!(r.memory_ring.max_queue >= 2);
    }

    #[test]
    fn posted_writes_consume_ring_bandwidth() {
        let cfg = contended_cfg();
        let mut net = ContendedNet::new(&cfg);
        let idle = net.memory_delay(&cfg, 0, &mut NoopSink);
        net.memory_write(&cfg, 100, &mut NoopSink);
        let behind_write = net.memory_delay(&cfg, 100, &mut NoopSink);
        assert!(behind_write > idle);
        assert_eq!(net.take_report().unwrap().memory_ring.requests, 3);
    }

    #[test]
    fn gpp_and_memory_rings_are_independent() {
        let cfg = contended_cfg();
        let mut net = ContendedNet::new(&cfg);
        let m0 = net.memory_delay(&cfg, 0, &mut NoopSink);
        let g0 = net.gpp_delay(&cfg, 0, &mut NoopSink);
        // Neither boarded behind the other.
        assert_eq!(net.memory_delay(&cfg, m0 + 100, &mut NoopSink), m0);
        assert_eq!(net.gpp_delay(&cfg, g0 + 100, &mut NoopSink), g0);
    }
}

//! The token-bundle execution engine (Section 6.3).
//!
//! Execution of a loaded method starts a bundle of serial tokens —
//! `HEAD`, `MEMORY`, one `REGISTER` per local, `TAIL` (Figure 23) — down
//! the serial network from the Anchor. Instruction Nodes fire under the
//! dataflow rule (*HEAD received ∧ popsReceived == pops*, plus
//! group-specific conditions), results travel the mesh to the resolved
//! consumers, and control-flow nodes translate taken branches back into
//! token routing: forward jumps route the bundle with explicit addresses;
//! backward jumps buffer everything until `TAIL`, then re-inject the bundle
//! at the loop head through the reverse network, resetting the loop body.
//!
//! The simulator is event-driven over **serial ticks**; one mesh cycle is
//! `FabricConfig::mesh_cycle_ticks` ticks, reproducing the Table 15 clock
//! ratios (the collapsed Baseline drains serial traffic for free).
//!
//! # Kernel layout
//!
//! The event loop is built for zero steady-state allocation and O(1)
//! scheduling (see DESIGN.md, "Timing-wheel kernel"):
//!
//! * events live in a [`TimingWheel`] instead of a comparison heap —
//!   pushes are monotone and bucket FIFO order reproduces the
//!   `(tick, seq)` total order the determinism suite pins down;
//! * per-node execution state is struct-of-arrays slabs owned by
//!   [`SimArena`] (flag bytes, operand/output value slabs with per-method
//!   prefix-summed offsets), not per-node structs of `Vec`s;
//! * each method is pre-decoded once into a [`DecodedMethod`] dispatch
//!   table, so firing an instruction reads a `Copy` record instead of
//!   cloning the `Insn` and re-matching its opcode group;
//! * an event is 24 bytes (value, node, side, kind): a token's register
//!   number rides in `side` and a memory order number in `value`, so
//!   every push, bucket refile and batch drain moves half of what a
//!   `Token` plus `Option<Value>` event did;
//! * most events are REGISTER tokens passing a node that neither watches
//!   nor buffers them (53.3M of 78.8M on synthetic 1500). A per-node `u16`
//!   watch slab, filled at reset from the decode table and the graph's
//!   liveness, lets such a hop read only that entry, the flag byte, the
//!   redirect and a precomputed linear hop delay before pushing the next
//!   hop; only tokens a node may act on take the full firing rule. The
//!   walk still schedules every hop: skipping hops would change where
//!   later pushes land in a same-tick bucket's FIFO order, and with it
//!   the reports;
//! * the sweep runs both branch scripts of a method as one pair
//!   ([`execute_pair_in`]): BP-2 repeats BP-1 up to BP-1's first forward
//!   conditional decision, so that prefix is simulated once and BP-2
//!   resumes from a copy of the run state taken there.

use std::sync::Arc;

use javaflow_bytecode::{InstructionGroup, Method, Opcode, Operand, Value};
use javaflow_interp::{Interp, JvmError, JvmErrorKind};

use crate::{
    compute::{eval_condition, eval_into, OutVals},
    net::{ContendedNet, IdealNet, NetModel},
    place, resolve,
    trace::{encode_token, encode_value, pack_coords, NoopSink, TraceEvent, TraceKind, TraceSink},
    BranchMode, BranchOracle, DataflowGraph, FabricConfig, NetKind, NetReport, PlaceError,
    Placement, ResolveError, Resolved, TimingWheel, Token,
};

/// A method loaded into the fabric: placement plus resolved dataflow.
///
/// The resolution, routing graph, and decode table are shared with the
/// [`PreparedMethod`] they came from (and with every other placement of
/// it) — stamping a prepared method onto a configuration is three `Arc`
/// bumps, not a deep copy.
#[derive(Debug)]
pub struct LoadedMethod<'m> {
    /// The method.
    pub method: &'m Method,
    /// Node placement (Figure 20).
    pub placement: Placement,
    /// Address-resolution result (Section 6.2).
    pub resolved: Arc<Resolved>,
    /// The routing graph the engine follows (possibly transformed by the
    /// Section 6.4 enhancements).
    pub graph: Arc<DataflowGraph>,
    /// The pre-decoded per-instruction dispatch table.
    pub decoded: Arc<DecodedMethod>,
}

impl LoadedMethod<'_> {
    /// Mutable access to the routing graph for the Section 6.4
    /// enhancement passes (folding, fanout limiting). Unshares the graph
    /// from sibling placements first if needed.
    pub fn graph_mut(&mut self) -> &mut DataflowGraph {
        Arc::make_mut(&mut self.graph)
    }
}

/// Loading failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum LoadError {
    /// Placement failed.
    Place(PlaceError),
    /// Resolution failed.
    Resolve(ResolveError),
    /// The method uses instructions the fabric does not execute
    /// (`jsr`/`ret`/switches — delegated to the GPP in the dissertation
    /// and excluded from its simulation).
    Unsupported {
        /// The offending opcode.
        op: Opcode,
        /// Its linear address.
        addr: u32,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Place(e) => write!(fm, "placement: {e}"),
            LoadError::Resolve(e) => write!(fm, "resolution: {e}"),
            LoadError::Unsupported { op, addr } => {
                write!(fm, "fabric cannot execute `{op}` at @{addr}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// One instruction's pre-decoded execution record: everything the event
/// loop needs to fire it, flattened out of [`Method`] so the hot path
/// never clones an `Insn` or re-matches its opcode group.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInsn {
    /// The opcode (error reporting, condition evaluation).
    pub op: Opcode,
    /// The Section 5 instruction group driving the firing rule.
    pub group: InstructionGroup,
    /// Mesh operands consumed.
    pub pops: u16,
    /// Values pushed.
    pub pushes: u16,
    /// Offset of this node's operand slots in the arena's operand slab.
    pub operand_off: u32,
    /// Offset of this node's output slots in the arena's output slab.
    pub output_off: u32,
    /// Output slots reserved (≥ `pushes`; local writes park their
    /// operands here, increments their updated register value).
    pub output_cap: u16,
    /// Index into the per-configuration execution-latency table
    /// (0 = move, 1 = float, 2 = convert, 3 = other — Table 17 classes).
    pub timing_class: u8,
    /// Register a local read/write/inc watches (`u16::MAX` = none).
    pub reg: u16,
    /// `iinc` delta.
    pub inc_delta: i32,
    /// Branch target (`u32::MAX` = none).
    pub branch_target: u32,
    /// Whether the branch target is at or before this address.
    pub is_back: bool,
    /// Unconditional jump.
    pub is_goto: bool,
    /// Holds the MEMORY token until it fires (ordered memory access).
    pub ordered_mem: bool,
    /// Buffers every serial token until completion (control flow and
    /// returns).
    pub buffers_all: bool,
    /// Pre-resolved constant value (`MemConst` pool loads).
    pub const_val: Value,
}

/// A method's pre-decoded dispatch table plus the slab sizes its
/// execution state needs ([`SimArena`] sizes its operand and output
/// value slabs from these).
#[derive(Debug, Clone)]
pub struct DecodedMethod {
    /// Per-instruction records, indexed by linear address.
    pub insns: Vec<DecodedInsn>,
    /// Total operand slots across the method.
    pub operand_total: usize,
    /// Total output slots across the method.
    pub output_total: usize,
}

impl DecodedMethod {
    /// Decodes `method` into the flat dispatch table.
    #[must_use]
    pub fn decode(method: &Method) -> DecodedMethod {
        let mut insns = Vec::with_capacity(method.code.len());
        let mut operand_off = 0u32;
        let mut output_off = 0u32;
        for (i, insn) in method.code.iter().enumerate() {
            let group = insn.group();
            let pops = insn.pops();
            let pushes = insn.pushes();
            let output_cap = match group {
                // A local write's "outputs" are its parked operands; an
                // increment always produces one register value.
                InstructionGroup::LocalWrite => pops.max(pushes),
                InstructionGroup::LocalInc => pushes.max(1),
                _ => pushes,
            };
            let timing_class = match group {
                InstructionGroup::ArithMove => 0,
                InstructionGroup::FloatArith => 1,
                InstructionGroup::FloatConversion => 2,
                _ => 3,
            };
            let reg = match group {
                InstructionGroup::LocalRead
                | InstructionGroup::LocalWrite
                | InstructionGroup::LocalInc => register_of(insn).unwrap_or(u16::MAX),
                _ => u16::MAX,
            };
            let inc_delta = match insn.operand {
                Operand::Inc { delta, .. } => delta,
                _ => 0,
            };
            let const_val = match (group, &insn.operand) {
                (InstructionGroup::MemConst, Operand::Cp(idx)) => method.cpool[usize::from(*idx)],
                _ => Value::Int(0),
            };
            insns.push(DecodedInsn {
                op: insn.op,
                group,
                pops,
                pushes,
                operand_off,
                output_off,
                output_cap,
                timing_class,
                reg,
                inc_delta,
                branch_target: insn.branch_target().unwrap_or(u32::MAX),
                is_back: method.is_back_branch(i as u32),
                is_goto: insn.op.is_goto(),
                ordered_mem: insn.op.is_ordered_memory(),
                buffers_all: matches!(
                    group,
                    InstructionGroup::ControlFlow | InstructionGroup::Return
                ),
                const_val,
            });
            operand_off += u32::from(pops);
            output_off += u32::from(output_cap);
        }
        DecodedMethod {
            insns,
            operand_total: operand_off as usize,
            output_total: output_off as usize,
        }
    }
}

/// The configuration-independent part of loading a method: the
/// executability check, Section 6.2 address resolution, the routing
/// graph, and the decoded dispatch table. Placement is the only
/// per-[`FabricConfig`] step, so a method swept across many
/// configurations should be [`prepare`]d once and then stamped onto each
/// configuration with [`load_with_resolved`].
#[derive(Debug)]
pub struct PreparedMethod<'m> {
    /// The method.
    pub method: &'m Method,
    /// Address-resolution result (Section 6.2).
    pub resolved: Arc<Resolved>,
    /// The routing graph derived from the resolution.
    pub graph: Arc<DataflowGraph>,
    /// The pre-decoded per-instruction dispatch table.
    pub decoded: Arc<DecodedMethod>,
}

impl<'m> PreparedMethod<'m> {
    /// Combines the prepared parts with an externally computed placement
    /// into a runnable [`LoadedMethod`]. Shares (rather than deep-copies)
    /// the resolution, graph, and decode table.
    #[must_use]
    pub fn with_placement(&self, placement: Placement) -> LoadedMethod<'m> {
        LoadedMethod {
            method: self.method,
            placement,
            resolved: Arc::clone(&self.resolved),
            graph: Arc::clone(&self.graph),
            decoded: Arc::clone(&self.decoded),
        }
    }
}

/// Runs the configuration-independent loading steps once: checks
/// fabric-executability, resolves dataflow addresses, and decodes the
/// dispatch table.
///
/// # Errors
///
/// See [`LoadError`].
pub fn prepare(method: &Method) -> Result<PreparedMethod<'_>, LoadError> {
    for (addr, insn) in method.iter() {
        if matches!(
            insn.op,
            Opcode::Jsr | Opcode::JsrW | Opcode::Ret | Opcode::TableSwitch | Opcode::LookupSwitch
        ) {
            return Err(LoadError::Unsupported { op: insn.op, addr });
        }
    }
    let resolved = resolve(method).map_err(LoadError::Resolve)?;
    let graph = DataflowGraph::from_resolved(&resolved);
    Ok(PreparedMethod {
        method,
        resolved: Arc::new(resolved),
        graph: Arc::new(graph),
        decoded: Arc::new(DecodedMethod::decode(method)),
    })
}

/// Places an already-[`prepare`]d method on one configuration, reusing
/// its resolution and routing graph instead of recomputing them.
///
/// # Errors
///
/// See [`LoadError`] (only placement can fail at this point).
pub fn load_with_resolved<'m>(
    prepared: &PreparedMethod<'m>,
    config: &FabricConfig,
) -> Result<LoadedMethod<'m>, LoadError> {
    let placement = place(prepared.method, config).map_err(LoadError::Place)?;
    Ok(prepared.with_placement(placement))
}

/// Loads a method: checks fabric-executability, places it, and resolves
/// dataflow addresses.
///
/// # Errors
///
/// See [`LoadError`].
pub fn load<'m>(method: &'m Method, config: &FabricConfig) -> Result<LoadedMethod<'m>, LoadError> {
    let prepared = prepare(method)?;
    load_with_resolved(&prepared, config)
}

/// How the method run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A return instruction fired; the value (if the method returns one)
    /// was passed back to the GPP.
    Returned(Option<Value>),
    /// The mesh-cycle budget was exhausted (the dissertation's timeout
    /// filter).
    Timeout,
    /// No event remained but no return fired (an invalid dataflow).
    Deadlock,
    /// A Section 6.3 exception was raised and delegated to the GPP.
    Exception(JvmError),
}

/// Execution measurements for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// How the run ended.
    pub outcome: Outcome,
    /// Elapsed mesh cycles.
    pub mesh_cycles: u64,
    /// Dynamic instructions fired (loop iterations re-fire).
    pub executed: u64,
    /// Relay (inserted move) firings, counted separately.
    pub relay_fires: u64,
    /// Distinct static instructions that fired at least once.
    pub static_covered: usize,
    /// `static_covered / method length` (Table 18).
    pub coverage: f64,
    /// Instructions per mesh cycle (Table 21).
    pub ipc: f64,
    /// Fraction of busy time with ≥ 2 instructions executing (Table 26).
    pub frac_cycles_ge2: f64,
    /// Fraction of elapsed time with ≥ 1 instruction executing.
    pub frac_cycles_ge1: f64,
    /// Serial messages delivered.
    pub serial_msgs: u64,
    /// Mesh messages delivered.
    pub mesh_msgs: u64,
    /// Scheduler events processed (`tables --bench-kernel` throughput).
    pub events: u64,
    /// Always 0: every run simulates each event. Kept so existing
    /// consumers of the report (and its `"events_skipped"` wire key)
    /// keep reading the field.
    pub events_skipped: u64,
    /// Dynamic fires per timing class (0 move, 1 float, 2 convert,
    /// 3 other — the Table 17 classes), for the instrumentation
    /// registry's per-class counters and tick histograms.
    pub class_fires: [u64; 4],
    /// Timing-wheel high-water mark: the most events simultaneously
    /// scheduled at any point of the run.
    pub wheel_high_water: u64,
    /// Total events pushed into the timing wheel.
    pub wheel_pushes: u64,
    /// Link-level interconnect statistics ([`NetKind::Contended`] runs
    /// only; the ideal model collects none). Boxed so the common ideal
    /// report stays small: a resident sweep holds thousands of them.
    pub net: Option<Box<NetReport>>,
}

/// Execution parameters.
#[derive(Debug)]
pub struct ExecParams<'g, 'p> {
    /// Branch decision source.
    pub mode: BranchMode,
    /// Mesh-cycle budget before declaring [`Outcome::Timeout`].
    pub max_mesh_cycles: u64,
    /// The GPP servicing calls, specials, and real memory (data mode).
    pub gpp: Gpp<'g, 'p>,
    /// Argument values placed in the initial register tokens.
    pub args: Vec<Value>,
}

impl Default for ExecParams<'_, '_> {
    fn default() -> Self {
        ExecParams {
            mode: BranchMode::Bp1,
            max_mesh_cycles: 1_000_000,
            gpp: Gpp::Stub,
            args: Vec::new(),
        }
    }
}

/// The General Purpose Processor attachment.
#[derive(Debug)]
pub enum Gpp<'g, 'p> {
    /// Real co-simulation: calls run on the interpreter, memory operations
    /// hit the shared heap/method area.
    Interp(&'g mut Interp<'p>),
    /// Scripted runs: constant service times, dummy results.
    Stub,
}

/// What a scheduled event delivers. The four serial kinds are the
/// bundle's tokens (Figure 23); a token's payload rides in [`Ev`]'s
/// `side` (register number) and `value` (register value, or the memory
/// order number as a `Long`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum EvKind {
    Head,
    Memory,
    Register,
    Tail,
    Mesh,
    ExecDone,
    ServiceDone,
}

/// A scheduled event. `Copy` so timing-wheel buckets drain by index;
/// the event's tick lives in the wheel, and FIFO bucket order replaces
/// the old explicit sequence number.
#[derive(Debug, Clone, Copy)]
struct Ev {
    /// Mesh operand, register value, or memory order number.
    value: Value,
    node: u32,
    /// Mesh operand side, or register number.
    side: u16,
    kind: EvKind,
}

// Every push, bucket refile and batch drain copies events: keep them at
// 24 bytes.
const _: () = assert!(std::mem::size_of::<Ev>() == 24);

impl Ev {
    /// A token delivered to serial node `node`.
    fn serial(node: u32, token: Token) -> Ev {
        let (kind, side, value) = match token {
            Token::Head => (EvKind::Head, 0, Value::Int(0)),
            Token::Memory(order) => (EvKind::Memory, 0, Value::Long(order as i64)),
            Token::Register { reg, value } => (EvKind::Register, reg, value),
            Token::Tail => (EvKind::Tail, 0, Value::Int(0)),
        };
        Ev { value, node, side, kind }
    }

    /// A payload-free event (execution or service completion).
    fn at_node(kind: EvKind, node: u32) -> Ev {
        Ev { value: Value::Int(0), node, side: 0, kind }
    }

    /// The order number a MEMORY event carries.
    fn order(&self) -> u64 {
        match self.value {
            Value::Long(order) => order as u64,
            _ => 0,
        }
    }

    /// The token a serial event carries.
    fn token(&self) -> Token {
        match self.kind {
            EvKind::Head => Token::Head,
            EvKind::Memory => Token::Memory(self.order()),
            EvKind::Register => Token::Register { reg: self.side, value: self.value },
            _ => Token::Tail,
        }
    }
}

/// [`SimArena::watch`] entry of a node that passes every register
/// token: folded nodes and nodes that read no register.
const WATCH_NONE: u16 = u16::MAX;
/// [`SimArena::watch`] entry of a node that buffers every token until it
/// completes (control flow and returns).
const WATCH_BUFFER: u16 = u16::MAX - 1;

// Per-node state flags (struct-of-arrays replacement for the old
// per-node bool/Option fields).
/// HEAD token received.
const F_HEAD: u8 = 1 << 0;
/// The node fired this bundle pass.
const F_FIRED: u8 = 1 << 1;
/// The node completed (tokens pass through).
const F_COMPLETED: u8 = 1 << 2;
/// TAIL is buffered at this node.
const F_TAIL_BUF: u8 = 1 << 3;
/// Cached conditional decision (set = taken).
const F_DECISION: u8 = 1 << 4;
/// A register value was captured.
const F_REG_SET: u8 = 1 << 5;
/// A memory token is held.
const F_MEM_SET: u8 = 1 << 6;
/// A memory-token order number awaits forwarding.
const F_FWD_SET: u8 = 1 << 7;

/// Reusable simulation state: the timing wheel plus the
/// struct-of-arrays node slabs.
///
/// [`Sim`] stores per-node execution state in flat vectors indexed by
/// instruction address — one flag byte, operand/output value slots at
/// prefix-summed offsets from the [`DecodedMethod`] — and events in a
/// [`TimingWheel`]. Creating these fresh for every run dominated
/// allocation in population sweeps; the arena keeps the capacity across
/// runs, so a warmed-up arena executes a scripted method with **zero**
/// heap allocations (enforced by the counting-allocator test in
/// `crates/fabric/tests/alloc.rs`).
#[derive(Debug)]
pub struct SimArena {
    queue: TimingWheel<Ev>,
    flags: Vec<u8>,
    /// Operands still missing before the dataflow rule is satisfied.
    missing: Vec<u16>,
    reg_captured: Vec<Value>,
    mem_token: Vec<u64>,
    mem_forward: Vec<u64>,
    /// The register each node acts on: its own register for active local
    /// reads, writes and increments, [`WATCH_BUFFER`] for active
    /// buffering nodes, [`WATCH_NONE`] otherwise. Static per run; a
    /// register token whose number differs passes without the node's
    /// decoded record being read.
    watch: Vec<u16>,
    /// Explicit route after a taken forward jump (`u32::MAX` = linear).
    redirect: Vec<u32>,
    /// Serial ticks from each node to the next linear one.
    next_delay: Vec<u32>,
    /// Decided back-jump target awaiting TAIL (`u32::MAX` = none).
    pending_back: Vec<u32>,
    operand_vals: Vec<Value>,
    operand_set: Vec<bool>,
    output_vals: Vec<Value>,
    output_len: Vec<u16>,
    /// Tokens buffered at control-flow nodes (in arrival order).
    buffers: Vec<Vec<Token>>,
    covered: Vec<bool>,
    /// Staging for re-injected bundles (the reset clears the source
    /// node's own buffer mid-flight).
    scratch: Vec<Token>,
    /// Staging for the batch drain of one timing-wheel bucket.
    batch: Vec<Ev>,
    oracle: BranchOracle,
}

impl Default for SimArena {
    fn default() -> Self {
        SimArena::new()
    }
}

impl SimArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> SimArena {
        SimArena {
            queue: TimingWheel::new(),
            flags: Vec::new(),
            missing: Vec::new(),
            reg_captured: Vec::new(),
            mem_token: Vec::new(),
            mem_forward: Vec::new(),
            watch: Vec::new(),
            redirect: Vec::new(),
            next_delay: Vec::new(),
            pending_back: Vec::new(),
            operand_vals: Vec::new(),
            operand_set: Vec::new(),
            output_vals: Vec::new(),
            output_len: Vec::new(),
            buffers: Vec::new(),
            covered: Vec::new(),
            scratch: Vec::new(),
            batch: Vec::new(),
            oracle: BranchOracle::new(BranchMode::Bp1),
        }
    }

    /// Resets the slabs to `lm`'s shape, reusing allocations; `hop` is
    /// the configuration's serial hop in ticks.
    fn reset_for(&mut self, lm: &LoadedMethod<'_>, hop: u64) {
        let (dm, active, slots) = (&*lm.decoded, &lm.graph.active, &lm.placement.slots);
        let n = dm.insns.len();
        self.flags.clear();
        self.flags.resize(n, 0);
        self.missing.clear();
        self.missing.extend(dm.insns.iter().map(|d| d.pops));
        self.reg_captured.clear();
        self.reg_captured.resize(n, Value::Int(0));
        self.mem_token.clear();
        self.mem_token.resize(n, 0);
        self.mem_forward.clear();
        self.mem_forward.resize(n, 0);
        self.watch.clear();
        self.watch.extend(dm.insns.iter().zip(active).map(|(d, &live)| {
            if !live {
                WATCH_NONE
            } else if d.buffers_all {
                WATCH_BUFFER
            } else {
                d.reg
            }
        }));
        self.redirect.clear();
        self.redirect.resize(n, u32::MAX);
        self.next_delay.clear();
        self.next_delay.extend(
            slots.windows(2).map(|w| (u64::from(w[0].abs_diff(w[1])) * hop).max(hop) as u32),
        );
        self.next_delay.push(0);
        self.pending_back.clear();
        self.pending_back.resize(n, u32::MAX);
        self.operand_vals.clear();
        self.operand_vals.resize(dm.operand_total, Value::Int(0));
        self.operand_set.clear();
        self.operand_set.resize(dm.operand_total, false);
        self.output_vals.clear();
        self.output_vals.resize(dm.output_total, Value::Int(0));
        self.output_len.clear();
        self.output_len.resize(n, 0);
        // Never truncate `buffers`: higher-index entries keep their
        // capacity for the next method that needs them.
        if self.buffers.len() < n {
            self.buffers.resize_with(n, Vec::new);
        }
        for b in &mut self.buffers[..n] {
            b.clear();
        }
        self.covered.clear();
        self.covered.resize(n, false);
        self.queue.clear();
    }

    /// Makes `self` a copy of a BP-1 run's arena `src`, taken at its first
    /// forward conditional decision, for the BP-2 twin to resume from:
    /// the node slabs, the timing wheel and the oracle (as BP-2). The
    /// batch is the caller's to fill; `scratch` holds tokens only inside
    /// `maybe_reinject`, which fires no node. Reuses `self`'s capacity,
    /// so a warm twin copies without allocating.
    fn copy_from(&mut self, src: &SimArena) {
        let n = src.flags.len();
        self.queue.copy_from(&src.queue);
        self.flags.clone_from(&src.flags);
        self.missing.clone_from(&src.missing);
        self.reg_captured.clone_from(&src.reg_captured);
        self.mem_token.clone_from(&src.mem_token);
        self.mem_forward.clone_from(&src.mem_forward);
        self.watch.clone_from(&src.watch);
        self.redirect.clone_from(&src.redirect);
        self.next_delay.clone_from(&src.next_delay);
        self.pending_back.clone_from(&src.pending_back);
        self.operand_vals.clone_from(&src.operand_vals);
        self.operand_set.clone_from(&src.operand_set);
        self.output_vals.clone_from(&src.output_vals);
        self.output_len.clone_from(&src.output_len);
        // As in `reset_for`, never truncate `buffers`.
        if self.buffers.len() < n {
            self.buffers.resize_with(n, Vec::new);
        }
        for (b, s) in self.buffers.iter_mut().zip(&src.buffers[..n]) {
            b.clone_from(s);
        }
        self.covered.clone_from(&src.covered);
        self.oracle.fork_bp2(&src.oracle);
    }

    /// Clears one node back to `stateReady` (loop-body reset).
    fn reset_node(&mut self, a: usize, d: &DecodedInsn) {
        self.flags[a] = 0;
        self.missing[a] = d.pops;
        let off = d.operand_off as usize;
        for s in &mut self.operand_set[off..off + usize::from(d.pops)] {
            *s = false;
        }
        self.redirect[a] = u32::MAX;
        self.pending_back[a] = u32::MAX;
        self.output_len[a] = 0;
        self.buffers[a].clear();
    }
}

/// A warm pool of [`SimArena`]s shared across sweep workers.
///
/// A fresh arena pays its slab and timing-wheel allocations on first use;
/// a pooled one keeps that capacity across whole sweeps, so repeated
/// sweeps (server mode) skip warm-up entirely. Checking a warm arena out
/// or in touches only a mutex-guarded `Vec` — no allocation in the steady
/// state (enforced by the counting-allocator test in
/// `crates/fabric/tests/alloc.rs`).
///
/// Retention is capped: a long-lived process that absorbs a burst of wide
/// concurrent sweeps would otherwise park one fully-grown arena per peak
/// worker forever. [`ArenaPool::checkin`] drops arenas above the
/// high-water mark ([`ArenaPool::default_retain_cap`], fixed when the pool
/// is built) instead of retaining them, so peak memory decays back to the
/// steady-state working set.
#[derive(Debug)]
pub struct ArenaPool {
    free: std::sync::Mutex<Vec<SimArena>>,
    retain_cap: usize,
}

impl Default for ArenaPool {
    fn default() -> ArenaPool {
        ArenaPool {
            free: std::sync::Mutex::new(Vec::new()),
            retain_cap: ArenaPool::default_retain_cap(),
        }
    }
}

impl ArenaPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> ArenaPool {
        ArenaPool::default()
    }

    /// The default retention high-water mark: four times the machine's
    /// available parallelism (a sweep checks in two arenas per worker, a
    /// BP-1/BP-2 pair's; headroom for one sweep draining while the next
    /// one starts), never below 4.
    #[must_use]
    pub fn default_retain_cap() -> usize {
        std::thread::available_parallelism().map_or(4, |n| (n.get() * 4).max(4))
    }

    /// The process-wide pool the evaluation harness draws from: arenas
    /// warmed by one sweep are reused by every later sweep in the same
    /// process.
    #[must_use]
    pub fn global() -> &'static ArenaPool {
        static GLOBAL: std::sync::OnceLock<ArenaPool> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(ArenaPool::new)
    }

    /// Takes a warm arena out of the pool, or builds a fresh one when the
    /// pool is dry.
    #[must_use]
    pub fn checkout(&self) -> SimArena {
        self.free.lock().map_or_else(|_| SimArena::new(), |mut v| v.pop().unwrap_or_default())
    }

    /// Returns an arena to the pool for the next checkout. Arenas above
    /// the retention high-water mark are dropped (slabs freed) instead of
    /// parked, so a burst of wide concurrency cannot pin peak memory for
    /// the life of the process.
    pub fn checkin(&self, arena: SimArena) {
        if let Ok(mut v) = self.free.lock() {
            if v.len() < self.retain_cap {
                v.push(arena);
            }
        }
    }

    /// How many warm arenas are currently parked in the pool.
    #[must_use]
    pub fn warm_len(&self) -> usize {
        self.free.lock().map_or(0, |v| v.len())
    }
}

/// Runs a loaded method on a fabric configuration.
pub fn execute(
    lm: &LoadedMethod<'_>,
    config: &FabricConfig,
    params: ExecParams<'_, '_>,
) -> ExecReport {
    let mut arena = SimArena::new();
    execute_in(lm, config, params, &mut arena)
}

/// Runs a loaded method on a fabric configuration, reusing `arena`'s
/// buffers instead of allocating fresh simulation state.
///
/// Behaves identically to [`execute`]; the arena only recycles capacity.
/// The interconnect model is selected by [`FabricConfig::net`] — the
/// default [`NetKind::Ideal`] charges closed-form delays, while
/// [`NetKind::Contended`] routes every mesh operand through X-Y routers
/// and every memory/GPP request through slotted rings, attaching a
/// [`NetReport`] to the result.
///
/// # Panics
///
/// Panics if `config` fails [`FabricConfig::validate`] (zero latencies
/// would livelock the event loop).
pub fn execute_in(
    lm: &LoadedMethod<'_>,
    config: &FabricConfig,
    params: ExecParams<'_, '_>,
    arena: &mut SimArena,
) -> ExecReport {
    execute_with_sink(lm, config, params, arena, &mut NoopSink)
}

/// Runs a loaded method with a caller-provided [`TraceSink`] observing
/// every structured event the engine emits. The sink only observes: the
/// returned report is identical to an untraced run's.
///
/// # Panics
///
/// Panics if `config` fails [`FabricConfig::validate`] (zero latencies
/// would livelock the event loop).
pub fn execute_with_sink<S: TraceSink>(
    lm: &LoadedMethod<'_>,
    config: &FabricConfig,
    params: ExecParams<'_, '_>,
    arena: &mut SimArena,
    sink: &mut S,
) -> ExecReport {
    config.validate().expect("invalid FabricConfig");
    match config.net {
        NetKind::Ideal => Sim::new(lm, config, params, arena, IdealNet, sink).run(),
        NetKind::Contended => {
            let net = ContendedNet::new(config);
            Sim::new(lm, config, params, arena, net, sink).run()
        }
    }
}

/// The reports of one scripted BP-1/BP-2 pair ([`execute_pair_in`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedPair {
    /// The BP-1 run.
    pub bp1: ExecReport,
    /// The BP-2 run.
    pub bp2: ExecReport,
    /// Events of `bp2` it shares with `bp1` and took over instead of
    /// simulating: BP-1's events up to its first forward conditional
    /// decision, or all of them when it never made one.
    pub bp2_inherited: u64,
}

/// Runs a loaded method under both Chapter 7 branch scripts, simulating
/// the events the two share only once.
///
/// The scripts differ only at forward conditional jumps, and only in
/// where each site's alternation starts (BP-1 taken, BP-2 not taken). So
/// BP-2 repeats BP-1 event for event up to BP-1's first forward
/// conditional decision. There the whole run state (node slabs, timing
/// wheel, the rest of the bucket being drained, oracle, counters and
/// interconnect model) is copied into `twin`, BP-2 finishes from the copy
/// with its own decision, and BP-1 carries on in `arena`. A method that
/// never decides a forward jump gives BP-1's report for both.
///
/// Each report equals the one [`execute_in`] returns for that script
/// (scripted, stub GPP, no arguments, `max_mesh_cycles` budget).
///
/// # Panics
///
/// Panics if `config` fails [`FabricConfig::validate`].
pub fn execute_pair_in(
    lm: &LoadedMethod<'_>,
    config: &FabricConfig,
    max_mesh_cycles: u64,
    arena: &mut SimArena,
    twin: &mut SimArena,
) -> ScriptedPair {
    config.validate().expect("invalid FabricConfig");
    let params = ExecParams { mode: BranchMode::Bp1, max_mesh_cycles, ..ExecParams::default() };
    let sink = &mut NoopSink;
    match config.net {
        NetKind::Ideal => Sim::new(lm, config, params, arena, IdealNet, sink).run_pair(twin),
        NetKind::Contended => {
            let net = ContendedNet::new(config);
            Sim::new(lm, config, params, arena, net, sink).run_pair(twin)
        }
    }
}

struct Sim<'a, 'm, 'g, 'p, N: NetModel, S: TraceSink> {
    lm: &'a LoadedMethod<'m>,
    dm: &'a DecodedMethod,
    cfg: &'a FabricConfig,
    gpp: Gpp<'g, 'p>,
    args: Vec<Value>,
    lenient: bool,
    n: usize,
    arena: &'a mut SimArena,
    /// Execution ticks per [`DecodedInsn::timing_class`].
    class_ticks: [u64; 4],
    now: u64,
    max_ticks: u64,
    // stats
    events: u64,
    executed: u64,
    relay_fires: u64,
    serial_msgs: u64,
    mesh_msgs: u64,
    class_fires: [u64; 4],
    busy: u32,
    last_busy_change: u64,
    acc_ge1: u64,
    acc_ge2: u64,
    outcome: Option<Outcome>,
    net: N,
    tracer: &'a mut S,
    /// The timing-wheel bucket being drained (taken from the arena for
    /// the run) and the index of the next event in it.
    batch: Vec<Ev>,
    batch_pos: usize,
    /// The BP-2 twin's arena while a BP-1 pair run has not forked yet.
    twin: Option<&'a mut SimArena>,
    /// The BP-2 report, once the twin has run.
    twin_report: Option<(ExecReport, u64)>,
}

impl<'a, 'm, 'g, 'p, N: NetModel + Clone, S: TraceSink> Sim<'a, 'm, 'g, 'p, N, S> {
    fn new(
        lm: &'a LoadedMethod<'m>,
        cfg: &'a FabricConfig,
        params: ExecParams<'g, 'p>,
        arena: &'a mut SimArena,
        net: N,
        tracer: &'a mut S,
    ) -> Self {
        let n = lm.method.code.len();
        let dm: &'a DecodedMethod = &lm.decoded;
        arena.reset_for(lm, cfg.serial_hop_ticks());
        arena.oracle.reset(params.mode);
        let mut batch = std::mem::take(&mut arena.batch);
        batch.clear();
        let max_ticks = params.max_mesh_cycles.saturating_mul(cfg.mesh_cycle_ticks());
        let class_ticks = cfg.class_ticks();
        Sim {
            lm,
            dm,
            cfg,
            gpp: params.gpp,
            args: params.args,
            lenient: params.mode.is_scripted(),
            n,
            arena,
            class_ticks,
            now: 0,
            max_ticks,
            events: 0,
            executed: 0,
            relay_fires: 0,
            serial_msgs: 0,
            mesh_msgs: 0,
            class_fires: [0; 4],
            busy: 0,
            last_busy_change: 0,
            acc_ge1: 0,
            acc_ge2: 0,
            outcome: None,
            net,
            tracer,
            batch,
            batch_pos: 0,
            twin: None,
            twin_report: None,
        }
    }

    fn mesh_ticks(&self) -> u64 {
        self.cfg.mesh_cycle_ticks()
    }

    fn serial_hop(&self) -> u64 {
        self.cfg.serial_hop_ticks()
    }

    /// Serial transit ticks between two instructions (chain distance).
    fn serial_transit(&self, from: u32, to: u32) -> u64 {
        self.lm.placement.serial_distance(from, to) * self.serial_hop()
    }

    fn coords_of(&self, id: u32) -> (u32, u32) {
        if (id as usize) < self.n {
            self.lm.placement.coords[id as usize]
        } else {
            self.lm.graph.relays[id as usize - self.n].coords
        }
    }

    /// Sends serial event `ev` (addressed to `ev.node`) from node `from`,
    /// arriving `delay` ticks from now.
    fn send_serial(&mut self, from: u32, delay: u64, ev: Ev) {
        self.serial_msgs += 1;
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::TokenSend,
                node: from,
                arg: ev.node,
                data: encode_token(&ev.token()),
                aux: self.now + delay,
            });
        }
        self.arena.queue.push(self.now + delay, ev);
    }

    /// Sends one mesh message (to a consumer node or a relay).
    fn send_mesh(&mut self, from_coords: (u32, u32), sink: crate::Sink, value: Value) {
        let to = self.coords_of(sink.consumer);
        let delay = self.net.mesh_delay(self.cfg, self.now, from_coords, to, &mut *self.tracer);
        self.mesh_msgs += 1;
        let at = self.now + delay;
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::MeshSend,
                node: sink.consumer,
                arg: u32::from(sink.side),
                data: pack_coords(from_coords),
                aux: at,
            });
        }
        self.arena
            .queue
            .push(at, Ev { value, node: sink.consumer, side: sink.side, kind: EvKind::Mesh });
    }

    fn set_busy(&mut self, delta: i32) {
        let dt = self.now - self.last_busy_change;
        if self.busy >= 1 {
            self.acc_ge1 += dt;
        }
        if self.busy >= 2 {
            self.acc_ge2 += dt;
        }
        self.last_busy_change = self.now;
        self.busy = self.busy.wrapping_add_signed(delta);
    }

    fn fail(&mut self, e: JvmError) {
        if self.outcome.is_none() {
            self.outcome = Some(Outcome::Exception(e));
        }
    }

    fn run(&mut self) -> ExecReport {
        self.inject_bundle();
        self.drive();
        self.finish()
    }

    /// [`Self::run`] as BP-1 with `twin` armed: returns both reports of
    /// the pair.
    fn run_pair(mut self, twin: &'a mut SimArena) -> ScriptedPair {
        self.twin = Some(twin);
        let bp1 = self.run();
        let (bp2, bp2_inherited) = match self.twin_report.take() {
            Some(forked) => forked,
            None => (bp1.clone(), bp1.events),
        };
        ScriptedPair { bp1, bp2, bp2_inherited }
    }

    /// Processes the rest of the current batch, then drains the wheel one
    /// bucket at a time until an outcome settles. All events of a bucket
    /// share one tick, so the budget check and `now` update hoist out of
    /// the per-event dispatch. Same-tick pushes made *while* the batch is
    /// processed land in the (now empty) bucket and are picked up by the
    /// next `pop_tick` of the same tick, preserving the FIFO total order
    /// the naive pop loop had.
    fn drive(&mut self) {
        loop {
            while let Some(&ev) = self.batch.get(self.batch_pos) {
                self.batch_pos += 1;
                self.events += 1;
                match ev.kind {
                    EvKind::Head => self.on_head(ev),
                    EvKind::Memory => self.on_memory(ev),
                    EvKind::Register => self.on_register(ev),
                    EvKind::Tail => self.on_tail(ev),
                    EvKind::Mesh => self.on_mesh(ev.node, ev.side, ev.value),
                    EvKind::ExecDone => self.on_exec_done(ev.node),
                    EvKind::ServiceDone => self.on_service_done(ev.node),
                }
                if self.outcome.is_some() {
                    // Mirror the naive loop: the event *after* the one
                    // that settled the outcome is never processed.
                    return;
                }
            }
            self.batch.clear();
            self.batch_pos = 0;
            let Some(at) = self.arena.queue.pop_tick(&mut self.batch) else {
                self.outcome = Some(Outcome::Deadlock);
                return;
            };
            if at > self.max_ticks {
                self.outcome = Some(Outcome::Timeout);
                return;
            }
            self.now = at;
        }
    }

    /// Called by an armed BP-1 pair run at its first forward conditional
    /// decision, from inside [`Self::try_fire`] of node `i` just before
    /// the oracle decides: copies the run into the twin arena and runs
    /// BP-2 from there to its report. `data` and `exec_ticks` are what
    /// the interrupted `try_fire` would pass on.
    fn fork_bp2(&mut self, twin: &mut SimArena, i: u32, data: bool, exec_ticks: u64) {
        twin.copy_from(self.arena);
        let mut batch = std::mem::take(&mut twin.batch);
        batch.clear();
        batch.extend_from_slice(&self.batch[self.batch_pos..]);
        let mut bp2 = Sim {
            lm: self.lm,
            dm: self.dm,
            cfg: self.cfg,
            gpp: Gpp::Stub,
            args: Vec::new(),
            lenient: self.lenient,
            n: self.n,
            arena: twin,
            class_ticks: self.class_ticks,
            now: self.now,
            max_ticks: self.max_ticks,
            events: self.events,
            executed: self.executed,
            relay_fires: self.relay_fires,
            serial_msgs: self.serial_msgs,
            mesh_msgs: self.mesh_msgs,
            class_fires: self.class_fires,
            busy: self.busy,
            last_busy_change: self.last_busy_change,
            acc_ge1: self.acc_ge1,
            acc_ge2: self.acc_ge2,
            outcome: self.outcome.clone(),
            net: self.net.clone(),
            tracer: &mut NoopSink,
            batch,
            batch_pos: 0,
            twin: None,
            twin_report: None,
        };
        // Finish the interrupted `try_fire` with BP-2's decision; nothing
        // else was left to do for the event that fired it.
        if bp2.arena.oracle.decide(i, false, data) {
            bp2.arena.flags[i as usize] |= F_DECISION;
        }
        bp2.arena.queue.push(bp2.now + exec_ticks, Ev::at_node(EvKind::ExecDone, i));
        if bp2.outcome.is_none() {
            bp2.drive();
        }
        self.twin_report = Some((bp2.finish(), self.events));
    }

    /// Builds the run's report and hands the batch back to the arena.
    fn finish(&mut self) -> ExecReport {
        self.arena.batch = std::mem::take(&mut self.batch);
        let end = self.now.max(1);
        let mesh_cycles = end.div_ceil(self.mesh_ticks());
        let static_covered = self.arena.covered.iter().filter(|c| **c).count();
        let active_static = self.lm.graph.active.iter().filter(|a| **a).count().max(1);
        let net_report = self.net.take_report();
        if S::ACTIVE {
            // Close the recording with everything a replay needs that no
            // other event carries: the raw final tick, the outcome, the
            // tick/mesh-cycle ratio, whether a net report exists, and the
            // coverage denominator.
            let outcome_code = match &self.outcome {
                Some(Outcome::Returned(_)) => 0,
                Some(Outcome::Timeout) => 1,
                None | Some(Outcome::Deadlock) => 2,
                Some(Outcome::Exception(_)) => 3,
            };
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::End,
                node: u32::MAX,
                arg: outcome_code,
                data: self.mesh_ticks(),
                aux: u64::from(net_report.is_some()) | ((active_static as u64) << 1),
            });
        }
        ExecReport {
            outcome: self.outcome.clone().unwrap_or(Outcome::Deadlock),
            mesh_cycles,
            executed: self.executed,
            relay_fires: self.relay_fires,
            static_covered,
            coverage: static_covered as f64 / active_static as f64,
            ipc: self.executed as f64 / mesh_cycles as f64,
            frac_cycles_ge2: self.acc_ge2 as f64 / end as f64,
            frac_cycles_ge1: self.acc_ge1 as f64 / end as f64,
            serial_msgs: self.serial_msgs,
            mesh_msgs: self.mesh_msgs,
            events: self.events,
            events_skipped: 0,
            class_fires: self.class_fires,
            wheel_high_water: self.arena.queue.high_water() as u64,
            wheel_pushes: self.arena.queue.pushes(),
            net: net_report.map(Box::new),
        }
    }

    /// Schedules the `seq`-th injected token at the Anchor.
    fn inject(&mut self, seq: u64, token: Token) {
        let hop = self.serial_hop();
        self.serial_msgs += 1;
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::TokenSend,
                node: u32::MAX,
                arg: 0,
                data: encode_token(&token),
                aux: (seq + 1) * hop,
            });
        }
        self.arena.queue.push((seq + 1) * hop, Ev::serial(0, token));
    }

    /// The Anchor injects the token bundle at instruction 0.
    fn inject_bundle(&mut self) {
        self.inject(0, Token::Head);
        self.inject(1, Token::Memory(0));
        let locals = usize::from(self.lm.method.max_locals);
        for r in 0..locals {
            let value = self.args.get(r).copied().unwrap_or(Value::Int(0));
            self.inject(2 + r as u64, Token::Register { reg: r as u16, value });
        }
        self.inject(2 + locals as u64, Token::Tail);
    }

    /// Forwards a token from node `i` to its successor in the bundle's
    /// current route (next linear instruction, or the redirect target).
    fn forward(&mut self, i: u32, token: Token) {
        self.forward_ev(i, Ev::serial(i, token));
    }

    /// [`Self::forward`] for a token already packed as an event.
    fn forward_ev(&mut self, i: u32, ev: Ev) {
        let r = self.arena.redirect[i as usize];
        if r == u32::MAX {
            if (i as usize) + 1 < self.n {
                let delay = u64::from(self.arena.next_delay[i as usize]);
                self.send_serial(i, delay, Ev { node: i + 1, ..ev });
            }
        } else if (r as usize) < self.n {
            let delay = self.serial_transit(i, r).max(self.serial_hop());
            self.send_serial(i, delay, Ev { node: r, ..ev });
        }
        // Tokens running past the last instruction return to the Anchor.
    }

    // Serial token arrivals. Folded nodes are inert pass-throughs;
    // control-flow nodes and returns buffer every token until they
    // complete.

    /// HEAD arrives at node `i`.
    fn on_head(&mut self, ev: Ev) {
        let i = ev.node;
        let ix = i as usize;
        if !self.lm.graph.active[ix] {
            self.forward_ev(i, ev);
            return;
        }
        let flags = self.arena.flags[ix];
        self.arena.flags[ix] = flags | F_HEAD;
        if self.dm.insns[ix].buffers_all && flags & F_COMPLETED == 0 {
            self.arena.buffers[ix].push(Token::Head);
        } else {
            self.forward_ev(i, ev);
        }
        self.try_fire(i);
    }

    /// MEMORY arrives at node `i`: ordered storage holds it until it
    /// fires, every other node passes it on.
    fn on_memory(&mut self, ev: Ev) {
        let i = ev.node;
        let ix = i as usize;
        if !self.lm.graph.active[ix] {
            self.forward_ev(i, ev);
            return;
        }
        let flags = self.arena.flags[ix];
        let d = &self.dm.insns[ix];
        if d.buffers_all && flags & F_COMPLETED == 0 {
            self.arena.buffers[ix].push(ev.token());
        } else if d.ordered_mem && flags & F_FIRED == 0 {
            self.arena.mem_token[ix] = ev.order();
            self.arena.flags[ix] |= F_MEM_SET;
            self.try_fire(i);
        } else {
            self.forward_ev(i, ev);
        }
    }

    /// A REGISTER token arrives. Most arrivals are at nodes that neither
    /// watch that register nor buffer: they pass it on from the `watch`
    /// slab and the flag byte alone, emitting what the full rule would
    /// (the observation at an active node, then the send). Folded nodes
    /// watch nothing, so the full rule below only sees active nodes.
    fn on_register(&mut self, ev: Ev) {
        let i = ev.node;
        let ix = i as usize;
        let w = self.arena.watch[ix];
        let flags = self.arena.flags[ix];
        let reg = ev.side;
        if w != reg && (w != WATCH_BUFFER || flags & F_COMPLETED != 0) {
            if S::ACTIVE && self.lm.graph.active[ix] {
                self.observe_register(i, flags, reg, &ev.value);
            }
            self.forward_ev(i, ev);
            return;
        }
        if S::ACTIVE {
            self.observe_register(i, flags, reg, &ev.value);
        }
        let d = &self.dm.insns[ix];
        let interested = d.reg != u16::MAX && d.reg == reg;
        if d.buffers_all && flags & F_COMPLETED == 0 {
            self.arena.buffers[ix].push(ev.token());
        } else if interested && d.group == InstructionGroup::LocalWrite {
            // The write kills the register: absorb the stale token
            // unconditionally. The write may already have fired and
            // emitted the fresh token — "this can result in the
            // re-ordering of the REGISTER_TOKEN messages" (Section 6.3) —
            // but the killed value must never pass.
            self.try_fire(i);
        } else if interested
            && flags & F_FIRED == 0
            && matches!(d.group, InstructionGroup::LocalRead | InstructionGroup::LocalInc)
        {
            self.arena.reg_captured[ix] = ev.value;
            self.arena.flags[ix] |= F_REG_SET;
            self.try_fire(i);
        } else {
            self.forward_ev(i, ev);
        }
    }

    /// Records a register token's arrival at active node `i`.
    fn observe_register(&mut self, i: u32, flags: u8, reg: u16, value: &Value) {
        let (tag, bits) = encode_value(value);
        let status =
            (u32::from(flags & F_FIRED != 0) << 16) | (u32::from(flags & F_COMPLETED != 0) << 17);
        self.tracer.record(&TraceEvent {
            tick: self.now,
            kind: TraceKind::RegObserve,
            node: i,
            arg: u32::from(reg) | status,
            data: bits,
            aux: tag,
        });
    }

    /// TAIL arrives at node `i`: it never passes an unfired node.
    fn on_tail(&mut self, ev: Ev) {
        let i = ev.node;
        let ix = i as usize;
        if !self.lm.graph.active[ix] {
            self.forward_ev(i, ev);
            return;
        }
        let flags = self.arena.flags[ix];
        let completed = flags & F_COMPLETED != 0;
        if self.dm.insns[ix].buffers_all && !completed {
            self.arena.flags[ix] |= F_TAIL_BUF;
            self.arena.buffers[ix].push(Token::Tail);
            self.try_fire(i);
            self.maybe_reinject(i);
        } else if completed || flags & F_HEAD == 0 {
            // Pass: the node has finished (or was bypassed and the tail
            // is explicitly routed past it — cannot happen on the ordered
            // network; completed is the normal case).
            self.forward_ev(i, ev);
        } else {
            self.arena.flags[ix] |= F_TAIL_BUF;
            self.try_fire(i);
        }
    }

    fn on_mesh(&mut self, id: u32, side: u16, value: Value) {
        if (id as usize) >= self.n {
            // Relay: one move-latency hop, then fan out.
            let ri = id as usize - self.n;
            let coords = self.lm.graph.relays[ri].coords;
            self.relay_fires += 1;
            if S::ACTIVE {
                self.tracer.record(&TraceEvent {
                    tick: self.now,
                    kind: TraceKind::RelayFire,
                    node: id,
                    arg: ri as u32,
                    data: pack_coords(coords),
                    aux: self.lm.graph.relays[ri].sinks.len() as u64,
                });
            }
            let move_ticks = self.cfg.timing.move_cycles * self.mesh_ticks();
            let saved_now = self.now;
            self.now += move_ticks;
            for k in 0..self.lm.graph.relays[ri].sinks.len() {
                let s = self.lm.graph.relays[ri].sinks[k];
                self.send_mesh(coords, s, value);
            }
            self.now = saved_now;
            return;
        }
        let ix = id as usize;
        let d = self.dm.insns[ix];
        let k = usize::from(side).saturating_sub(1);
        if k < usize::from(d.pops) {
            let off = d.operand_off as usize + k;
            if !self.arena.operand_set[off] {
                self.arena.operand_set[off] = true;
                self.arena.missing[ix] -= 1;
            }
            self.arena.operand_vals[off] = value;
        }
        self.try_fire(id);
    }

    /// Fire-condition check and firing (Section 6.3 per-group rules).
    #[allow(clippy::too_many_lines)]
    fn try_fire(&mut self, i: u32) {
        let ix = i as usize;
        let d = self.dm.insns[ix];
        let flags = self.arena.flags[ix];
        if flags & F_FIRED != 0 || flags & F_HEAD == 0 || self.outcome.is_some() {
            return;
        }
        if self.arena.missing[ix] != 0 {
            return;
        }
        match d.group {
            InstructionGroup::LocalRead | InstructionGroup::LocalInc if flags & F_REG_SET == 0 => {
                return;
            }
            InstructionGroup::MemRead | InstructionGroup::MemWrite if flags & F_MEM_SET == 0 => {
                return;
            }
            InstructionGroup::Return if flags & F_TAIL_BUF == 0 => {
                return;
            }
            // Unconditional backward goto needs the tail.
            InstructionGroup::ControlFlow if d.is_goto && d.is_back && flags & F_TAIL_BUF == 0 => {
                return;
            }
            _ => {}
        }

        // All conditions met: fire.
        self.arena.flags[ix] |= F_FIRED;
        self.arena.covered[ix] = true;
        self.executed += 1;
        self.class_fires[usize::from(d.timing_class)] += 1;
        self.set_busy(1);

        let exec_ticks = self.class_ticks[usize::from(d.timing_class)];
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::Fire,
                node: i,
                arg: u32::from(d.timing_class),
                data: exec_ticks,
                aux: pack_coords(self.lm.placement.coords[ix]),
            });
        }
        let off = d.operand_off as usize;
        let cnt = usize::from(d.pops);
        let out_off = d.output_off as usize;

        match d.group {
            InstructionGroup::ControlFlow => {
                let taken = if d.is_goto {
                    true
                } else {
                    let cond = eval_condition(
                        d.op,
                        &self.arena.operand_vals[off..off + cnt],
                        self.lenient,
                    );
                    let data = match cond {
                        Ok(b) => b,
                        Err(e) => {
                            self.fail(e.at(javaflow_bytecode::MethodId(0), i, d.op));
                            false
                        }
                    };
                    if !d.is_back {
                        if let Some(twin) = self.twin.take() {
                            self.fork_bp2(twin, i, data, exec_ticks);
                        }
                    }
                    self.arena.oracle.decide(i, d.is_back, data)
                };
                if taken {
                    self.arena.flags[ix] |= F_DECISION;
                }
            }
            InstructionGroup::Return => {}
            InstructionGroup::LocalRead => {
                self.arena.output_vals[out_off] = self.arena.reg_captured[ix];
                self.arena.output_len[ix] = 1;
            }
            InstructionGroup::LocalInc => {
                let v = self.arena.reg_captured[ix];
                let new = match v {
                    Value::Int(x) => Value::Int(x.wrapping_add(d.inc_delta)),
                    other if self.lenient => other,
                    _ => {
                        self.fail(JvmError::bare(JvmErrorKind::TypeError).at(
                            javaflow_bytecode::MethodId(0),
                            i,
                            d.op,
                        ));
                        return;
                    }
                };
                self.arena.output_vals[out_off] = new;
                self.arena.output_len[ix] = 1;
            }
            InstructionGroup::LocalWrite => {
                // Park the operands: the register token re-emission reads
                // them back at completion.
                for k in 0..cnt {
                    self.arena.output_vals[out_off + k] = self.arena.operand_vals[off + k];
                }
                self.arena.output_len[ix] = d.pops;
            }
            InstructionGroup::MemRead | InstructionGroup::MemWrite => {
                let order = self.arena.mem_token[ix];
                self.arena.flags[ix] &= !F_MEM_SET;
                self.arena.mem_forward[ix] = order + 1;
                self.arena.flags[ix] |= F_FWD_SET;
                match self.memory_op(&d, i, off, cnt) {
                    Ok(Some(v)) => {
                        self.arena.output_vals[out_off] = v;
                        self.arena.output_len[ix] = 1;
                    }
                    Ok(None) => self.arena.output_len[ix] = 0,
                    Err(e) => {
                        self.fail(e.at(javaflow_bytecode::MethodId(0), i, d.op));
                        return;
                    }
                }
            }
            InstructionGroup::Call | InstructionGroup::Special => {
                match self.gpp_service(&d, i, off, cnt) {
                    Ok(Some(v)) => {
                        self.arena.output_vals[out_off] = v;
                        self.arena.output_len[ix] = 1;
                    }
                    Ok(None) => self.arena.output_len[ix] = 0,
                    Err(e) => {
                        self.fail(e.at(javaflow_bytecode::MethodId(0), i, d.op));
                        return;
                    }
                }
            }
            InstructionGroup::MemConst => {
                self.arena.output_vals[out_off] = d.const_val;
                self.arena.output_len[ix] = 1;
            }
            _ => {
                // Pure arithmetic / logic / move / conversion.
                let lm = self.lm;
                let mut out = OutVals::new();
                let r = eval_into(
                    &lm.method.code[ix],
                    &self.arena.operand_vals[off..off + cnt],
                    self.lenient,
                    &mut out,
                );
                match r {
                    Ok(()) => {
                        let vs = out.as_slice();
                        self.arena.output_vals[out_off..out_off + vs.len()].copy_from_slice(vs);
                        self.arena.output_len[ix] = vs.len() as u16;
                    }
                    Err(e) => {
                        self.fail(e.at(javaflow_bytecode::MethodId(0), i, d.op));
                        return;
                    }
                }
            }
        }
        self.arena.queue.push(self.now + exec_ticks, Ev::at_node(EvKind::ExecDone, i));
    }

    /// Completion of the execution stage.
    #[allow(clippy::too_many_lines)]
    fn on_exec_done(&mut self, i: u32) {
        self.set_busy(-1);
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::Retire,
                node: i,
                arg: 0,
                data: 0,
                aux: 0,
            });
        }
        let ix = i as usize;
        let d = self.dm.insns[ix];

        match d.group {
            InstructionGroup::ControlFlow => {
                let taken = self.arena.flags[ix] & F_DECISION != 0;
                let target = if d.branch_target == u32::MAX { i + 1 } else { d.branch_target };
                if !taken {
                    // Release the bundle to the next instruction.
                    self.release_buffer(i, i + 1);
                    self.arena.flags[ix] |= F_COMPLETED;
                } else if target > i {
                    // Forward jump: explicit routing to the target.
                    self.arena.redirect[ix] = target;
                    self.release_buffer(i, target);
                    self.arena.flags[ix] |= F_COMPLETED;
                } else {
                    // Backward jump: hold everything until TAIL, then
                    // re-inject the bundle at the loop head.
                    self.arena.pending_back[ix] = target;
                    self.maybe_reinject(i);
                }
                return;
            }
            InstructionGroup::Return => {
                let value = if self.lm.method.returns && d.pops > 0 {
                    Some(self.arena.operand_vals[d.operand_off as usize])
                } else {
                    None
                };
                if d.op == Opcode::AThrow && !self.lenient {
                    self.fail(JvmError::bare(JvmErrorKind::Thrown).at(
                        javaflow_bytecode::MethodId(0),
                        i,
                        d.op,
                    ));
                } else {
                    self.outcome = Some(Outcome::Returned(value));
                }
                return;
            }
            InstructionGroup::MemRead => {
                // Request sent; results arrive after the ring transit (if
                // contended) and the memory service.
                if self.arena.flags[ix] & F_FWD_SET != 0 {
                    self.arena.flags[ix] &= !F_FWD_SET;
                    let order = self.arena.mem_forward[ix];
                    self.forward(i, Token::Memory(order));
                }
                let service = self.net.memory_delay(self.cfg, self.now, &mut *self.tracer);
                self.arena.queue.push(self.now + service, Ev::at_node(EvKind::ServiceDone, i));
                return;
            }
            InstructionGroup::Call | InstructionGroup::Special => {
                let service = self.net.gpp_delay(self.cfg, self.now, &mut *self.tracer);
                self.arena.queue.push(self.now + service, Ev::at_node(EvKind::ServiceDone, i));
                return;
            }
            InstructionGroup::MemWrite => {
                if self.arena.flags[ix] & F_FWD_SET != 0 {
                    self.arena.flags[ix] &= !F_FWD_SET;
                    let order = self.arena.mem_forward[ix];
                    self.forward(i, Token::Memory(order));
                }
                // Writes proceed without waiting for the service, but still
                // occupy memory-ring bandwidth under the contended model.
                self.net.memory_write(self.cfg, self.now, &mut *self.tracer);
            }
            InstructionGroup::LocalWrite => {
                // Emit the updated register token.
                let reg = if d.reg == u16::MAX { 0 } else { d.reg };
                let value = if self.arena.output_len[ix] > 0 {
                    self.arena.output_vals[d.output_off as usize]
                } else {
                    Value::Int(0)
                };
                self.forward(i, Token::Register { reg, value });
                self.finish_node(i);
                return;
            }
            InstructionGroup::LocalRead => {
                // Re-send the register token, then results to the mesh.
                let reg = if d.reg == u16::MAX { 0 } else { d.reg };
                let value = if self.arena.flags[ix] & F_REG_SET != 0 {
                    self.arena.reg_captured[ix]
                } else {
                    Value::Int(0)
                };
                self.forward(i, Token::Register { reg, value });
            }
            InstructionGroup::LocalInc => {
                let reg = if d.reg == u16::MAX { 0 } else { d.reg };
                let value = if self.arena.output_len[ix] > 0 {
                    self.arena.output_vals[d.output_off as usize]
                } else {
                    Value::Int(0)
                };
                self.forward(i, Token::Register { reg, value });
                self.finish_node(i);
                return;
            }
            _ => {}
        }
        self.dispatch_outputs(i);
        self.finish_node(i);
    }

    /// Completion of a memory/GPP service: outputs go to the mesh.
    fn on_service_done(&mut self, i: u32) {
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::ServiceDone,
                node: i,
                arg: 0,
                data: 0,
                aux: 0,
            });
        }
        self.dispatch_outputs(i);
        self.finish_node(i);
    }

    /// Sends the node's computed outputs to its resolved consumers.
    fn dispatch_outputs(&mut self, i: u32) {
        let ix = i as usize;
        let d = self.dm.insns[ix];
        let len = usize::from(self.arena.output_len[ix]);
        let out_off = d.output_off as usize;
        self.arena.output_len[ix] = 0;
        let coords = self.lm.placement.coords[ix];
        let lm = self.lm;
        // Indexed walk: `Sink` is `Copy`, so this avoids cloning the sink
        // list on every fire.
        for k in 0..lm.graph.consumers[ix].len() {
            let s = lm.graph.consumers[ix][k];
            let o = usize::from(s.out);
            let v = if o < len { self.arena.output_vals[out_off + o] } else { Value::Int(0) };
            self.send_mesh(coords, s, v);
        }
    }

    /// Marks a node complete and forwards a buffered TAIL.
    fn finish_node(&mut self, i: u32) {
        let ix = i as usize;
        self.arena.flags[ix] |= F_COMPLETED;
        if self.arena.flags[ix] & F_TAIL_BUF != 0 {
            self.arena.flags[ix] &= !F_TAIL_BUF;
            self.forward(i, Token::Tail);
        }
    }

    /// Releases a control-flow node's buffered tokens toward `to`.
    fn release_buffer(&mut self, i: u32, to: u32) {
        let ix = i as usize;
        self.arena.flags[ix] &= !F_TAIL_BUF;
        if (to as usize) >= self.n {
            self.arena.buffers[ix].clear();
            return;
        }
        let base = self.serial_transit(i, to).max(self.serial_hop());
        let hop = self.serial_hop();
        for k in 0..self.arena.buffers[ix].len() {
            let t = self.arena.buffers[ix][k];
            self.serial_msgs += 1;
            if S::ACTIVE {
                self.tracer.record(&TraceEvent {
                    tick: self.now,
                    kind: TraceKind::TokenSend,
                    node: i,
                    arg: to,
                    data: encode_token(&t),
                    aux: self.now + base + k as u64 * hop,
                });
            }
            self.arena.queue.push(self.now + base + k as u64 * hop, Ev::serial(to, t));
        }
        self.arena.buffers[ix].clear();
    }

    /// If a decided backward jump has executed and holds the TAIL,
    /// re-inject the bundle at the loop head and reset the loop body.
    fn maybe_reinject(&mut self, i: u32) {
        let ix = i as usize;
        let target = self.arena.pending_back[ix];
        if target == u32::MAX {
            return;
        }
        if self.arena.flags[ix] & F_TAIL_BUF == 0 {
            return;
        }
        // Stage the bundle first: resetting the loop body clears node
        // `i`'s own buffer.
        {
            let arena = &mut *self.arena;
            arena.scratch.clear();
            let (scratch, buffers) = (&mut arena.scratch, &arena.buffers);
            scratch.extend_from_slice(&buffers[ix]);
        }
        // Reset the loop body [target ..= i] — "each instruction from the
        // same thread/class/method must also reset to the stateReady".
        for a in target..=i {
            let d = self.dm.insns[a as usize];
            self.arena.reset_node(a as usize, &d);
        }
        // Reverse-network transit to the loop head.
        let base = self.serial_transit(i, target).max(self.serial_hop());
        let hop = self.serial_hop();
        for k in 0..self.arena.scratch.len() {
            let t = self.arena.scratch[k];
            self.serial_msgs += 1;
            if S::ACTIVE {
                self.tracer.record(&TraceEvent {
                    tick: self.now,
                    kind: TraceKind::TokenSend,
                    node: i,
                    arg: target,
                    data: encode_token(&t),
                    aux: self.now + base + k as u64 * hop,
                });
            }
            self.arena.queue.push(self.now + base + k as u64 * hop, Ev::serial(target, t));
        }
        self.arena.scratch.clear();
    }

    /// Ordered memory operations against the shared JVM state (or dummy
    /// values for scripted runs). Memory operations push at most one
    /// value.
    fn memory_op(
        &mut self,
        d: &DecodedInsn,
        i: u32,
        off: usize,
        cnt: usize,
    ) -> Result<Option<Value>, JvmError> {
        let lm = self.lm;
        let operands: &[Value] = &self.arena.operand_vals[off..off + cnt];
        let Gpp::Interp(gpp) = &mut self.gpp else {
            // Scripted: reads produce a dummy; writes produce nothing.
            return Ok(if d.pushes > 0 { Some(Value::Int(0)) } else { None });
        };
        let insn = &lm.method.code[i as usize];
        use Opcode as O;
        let get_ref = |v: &Value| -> Result<Option<u32>, JvmError> {
            v.as_ref_handle().ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))
        };
        let get_int = |v: &Value| -> Result<i32, JvmError> {
            v.as_int().ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))
        };
        match insn.op {
            O::IALoad
            | O::LALoad
            | O::FALoad
            | O::DALoad
            | O::AALoad
            | O::BALoad
            | O::CALoad
            | O::SALoad => {
                let arr = get_ref(&operands[0])?;
                let idx = get_int(&operands[1])?;
                Ok(Some(gpp.state.heap.array_get(arr, idx)?))
            }
            O::IAStore
            | O::LAStore
            | O::FAStore
            | O::DAStore
            | O::AAStore
            | O::BAStore
            | O::CAStore
            | O::SAStore => {
                if S::ACTIVE {
                    let stored = operands.get(2).copied().unwrap_or(Value::Int(0));
                    let (tag, bits) = encode_value(&stored);
                    self.tracer.record(&TraceEvent {
                        tick: self.now,
                        kind: TraceKind::MemObserve,
                        node: i,
                        arg: cnt as u32,
                        data: bits,
                        aux: tag,
                    });
                }
                let arr = get_ref(&operands[0])?;
                let idx = get_int(&operands[1])?;
                let v = match insn.op {
                    O::BAStore => Value::Int(get_int(&operands[2])? as i8 as i32),
                    O::CAStore => Value::Int(get_int(&operands[2])? as u16 as i32),
                    O::SAStore => Value::Int(get_int(&operands[2])? as i16 as i32),
                    _ => operands[2],
                };
                gpp.state.heap.array_set(arr, idx, v)?;
                Ok(None)
            }
            O::GetField => match insn.operand {
                Operand::Field(f) => {
                    let obj = get_ref(&operands[0])?;
                    Ok(Some(gpp.state.heap.get_field(obj, f.slot)?))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::PutField => match insn.operand {
                Operand::Field(f) => {
                    let obj = get_ref(&operands[0])?;
                    gpp.state.heap.put_field(obj, f.slot, operands[1])?;
                    Ok(None)
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::GetStatic => match insn.operand {
                Operand::Field(f) => Ok(Some(gpp.state.get_static(f.class, f.slot)?)),
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::PutStatic => match insn.operand {
                Operand::Field(f) => {
                    gpp.state.put_static(f.class, f.slot, operands[0])?;
                    Ok(None)
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
        }
    }

    /// Call and `Special` service on the GPP. Pushes at most one value.
    fn gpp_service(
        &mut self,
        d: &DecodedInsn,
        i: u32,
        off: usize,
        cnt: usize,
    ) -> Result<Option<Value>, JvmError> {
        let lm = self.lm;
        let operands: &[Value] = &self.arena.operand_vals[off..off + cnt];
        let Gpp::Interp(gpp) = &mut self.gpp else {
            return Ok(if d.pushes > 0 { Some(Value::Int(0)) } else { None });
        };
        let insn = &lm.method.code[i as usize];
        use Opcode as O;
        match insn.op {
            O::InvokeVirtual
            | O::InvokeSpecial
            | O::InvokeStatic
            | O::InvokeInterface
            | O::InvokeDynamic => match insn.operand {
                Operand::Call(c) => Ok(gpp.run(c.method, operands)?),
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::New => match insn.operand {
                Operand::ClassId(cid) => {
                    let fields = gpp.program().class(cid).instance_fields;
                    let h = gpp.state.heap.alloc_object(cid, fields);
                    Ok(Some(Value::Ref(Some(h))))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::NewArray => match insn.operand {
                Operand::ArrayType(k) => {
                    let len = operands[0]
                        .as_int()
                        .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                    let h = gpp.state.heap.alloc_array(k, len)?;
                    Ok(Some(Value::Ref(Some(h))))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::ANewArray => match insn.operand {
                Operand::ClassId(cid) => {
                    let len = operands[0]
                        .as_int()
                        .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                    let h = gpp.state.heap.alloc_ref_array(cid, len)?;
                    Ok(Some(Value::Ref(Some(h))))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::ArrayLength => {
                let arr = operands[0]
                    .as_ref_handle()
                    .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                Ok(Some(Value::Int(gpp.state.heap.array_len(arr)?)))
            }
            O::InstanceOf => match insn.operand {
                Operand::ClassId(cid) => {
                    let h = operands[0]
                        .as_ref_handle()
                        .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                    let yes = match h {
                        None => false,
                        Some(hh) => gpp.state.heap.object_class(Some(hh))? == cid,
                    };
                    Ok(Some(Value::Int(i32::from(yes))))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::CheckCast => match insn.operand {
                Operand::ClassId(cid) => {
                    let h = operands[0]
                        .as_ref_handle()
                        .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                    if let Some(hh) = h {
                        if gpp.state.heap.object_class(Some(hh))? != cid {
                            return Err(JvmError::bare(JvmErrorKind::ClassCast));
                        }
                    }
                    Ok(Some(Value::Ref(h)))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::MonitorEnter | O::MonitorExit => {
                let h = operands[0]
                    .as_ref_handle()
                    .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                if h.is_none() {
                    return Err(JvmError::bare(JvmErrorKind::NullPointer));
                }
                Ok(None)
            }
            O::Nop => Ok(None),
            _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
        }
    }
}

/// Register index encoded in the compact `*load_N`/`*store_N` forms.
fn compact_register(op: Opcode) -> Option<u16> {
    use Opcode as O;
    Some(match op {
        O::ILoad0
        | O::LLoad0
        | O::FLoad0
        | O::DLoad0
        | O::ALoad0
        | O::IStore0
        | O::LStore0
        | O::FStore0
        | O::DStore0
        | O::AStore0 => 0,
        O::ILoad1
        | O::LLoad1
        | O::FLoad1
        | O::DLoad1
        | O::ALoad1
        | O::IStore1
        | O::LStore1
        | O::FStore1
        | O::DStore1
        | O::AStore1 => 1,
        O::ILoad2
        | O::LLoad2
        | O::FLoad2
        | O::DLoad2
        | O::ALoad2
        | O::IStore2
        | O::LStore2
        | O::FStore2
        | O::DStore2
        | O::AStore2 => 2,
        O::ILoad3
        | O::LLoad3
        | O::FLoad3
        | O::DLoad3
        | O::ALoad3
        | O::IStore3
        | O::LStore3
        | O::FStore3
        | O::DStore3
        | O::AStore3 => 3,
        _ => return None,
    })
}

/// Register operand of a local read/write/inc instruction.
fn register_of(insn: &javaflow_bytecode::Insn) -> Option<u16> {
    match insn.operand {
        Operand::Local(r) => Some(r),
        Operand::Inc { local, .. } => Some(local),
        _ => compact_register(insn.op),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_events_carry_their_token() {
        for token in [
            Token::Head,
            Token::Memory(0),
            Token::Memory(u64::MAX),
            Token::Register { reg: 11, value: Value::Double(-0.5) },
            Token::Register { reg: u16::MAX - 1, value: Value::Ref(None) },
            Token::Tail,
        ] {
            let ev = Ev::serial(3, token);
            assert_eq!((ev.node, ev.token()), (3, token));
        }
    }
}

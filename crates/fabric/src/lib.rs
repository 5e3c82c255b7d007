//! The JavaFlow DataFlow fabric: a cycle-level simulator of the machine the
//! dissertation describes — Instruction Nodes connected by ordered serial
//! networks, an X-Y routed mesh, and memory/GPP rings; whole Java methods
//! loaded, self-resolved into producer/consumer dataflow, and executed by a
//! serial token bundle.
//!
//! Pipeline: [`load`] (placement + address resolution) → optional
//! [`DataflowGraph`] enhancements (folding, fanout limiting) → [`execute`]
//! under one of the Table 15 [`FabricConfig`]s with real data or the
//! Chapter 7 branch scripts.
//!
//! # Example
//!
//! ```
//! use javaflow_bytecode::{asm, Value};
//! use javaflow_fabric::{execute, load, BranchMode, ExecParams, FabricConfig, Gpp, Outcome};
//! use javaflow_interp::Interp;
//!
//! let program = asm::assemble(
//!     ".method triple args=1 returns=true locals=1
//!        iload 0
//!        iconst_3
//!        imul
//!        ireturn
//!      .end",
//! )
//! .unwrap();
//! let (_, method) = program.method_by_name("triple").unwrap();
//! let config = FabricConfig::compact2();
//! let loaded = load(method, &config).unwrap();
//! let mut gpp = Interp::new(&program);
//! let report = execute(
//!     &loaded,
//!     &config,
//!     ExecParams {
//!         mode: BranchMode::Data,
//!         gpp: Gpp::Interp(&mut gpp),
//!         args: vec![Value::Int(14)],
//!         ..ExecParams::default()
//!     },
//! );
//! assert_eq!(report.outcome, Outcome::Returned(Some(Value::Int(42))));
//! assert_eq!(report.executed, 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod branch;
pub mod compute;
mod config;
mod enhance;
mod manager;
pub mod metrics;
pub mod net;
mod place;
mod resolve;
mod sim;
mod timing;
mod token;
pub mod trace;
pub mod wheel;

pub use branch::{BranchMode, BranchOracle};
pub use config::{ConfigError, FabricConfig, Layout, HETERO_PATTERN};
pub use enhance::{DataflowGraph, Relay};
pub use manager::{AnchorId, FabricManager, ManageError};
pub use metrics::{Histogram, MetricsRegistry};
pub use net::{ContendedNet, IdealNet, NetKind, NetModel, NetReport, NodeNetStat, RingReport};
pub use place::{place, slot_kind, snake_coords, PlaceError, Placement, SlotKind};
pub use resolve::{
    control_sources, resolve, resolve_call_count, ResolveError, ResolveStats, Resolved, Sink,
};
pub use sim::{
    execute, execute_in, execute_pair_in, execute_with_sink, load, load_with_resolved, prepare,
    ArenaPool, DecodedInsn, DecodedMethod, ExecParams, ExecReport, Gpp, LoadError, LoadedMethod,
    Outcome, PreparedMethod, ScriptedPair, SimArena,
};
pub use timing::Timing;
pub use token::{Command, InstanceId, SerialDest, SerialMessage, Token};
pub use trace::{
    NoopSink, RingRecorder, TraceEvent, TraceKind, TraceSink, EVENT_BYTES, WARN_COUNTERS,
};
pub use wheel::TimingWheel;

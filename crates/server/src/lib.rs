//! `javaflow-serve`: the sweep harness as a long-lived service.
//!
//! [`javaflow_core::Evaluation::run`] is a batch tool — every invocation
//! rebuilds and re-prepares the whole population before simulating a
//! single record. This crate keeps that work resident: a
//! [`Server`] owns a small LRU cache of prepared populations (keyed by
//! synthetic size) and the process-wide warm arena pool, and answers sweep
//! requests over TCP or a Unix socket using the
//! [`javaflow_core::PreparedPopulation`] fast path — byte-identical
//! results to an in-process run, without the per-request startup cost.
//!
//! The protocol is deliberately small (see [`protocol`]): length-prefixed
//! JSON frames, four request kinds (`sweep`, `metrics`, `ping`,
//! `shutdown`), streamed per-batch responses. The operational behaviour
//! is the point of the crate:
//!
//! * **Batching / coalescing** — compatible concurrent sweeps (same
//!   population, cycle budget, and net model) share
//!   one simulation; every subscriber receives the identical frames.
//! * **Result cache** — a key swept twice is kept (bounded, LRU) in
//!   [`cache::ResultCache`], so later requests for it stream without
//!   simulating.
//! * **Backpressure** — the admission queue is bounded; saturation is an
//!   immediate `429`, never an unbounded backlog.
//! * **Deadlines** — a per-request deadline cancels its sweep at the next
//!   batch boundary with a `504` (and cancels the simulation itself once
//!   no subscriber remains).
//! * **Graceful drain** — shutdown (signal or request) stops admission
//!   with `503`, streams everything already queued to completion, then
//!   exits.
//! * **Live metrics** — a `metrics` request renders the server counters,
//!   log₂-histogram latency percentiles, and the folded Table 30
//!   simulation registry of everything the process has run.
//! * **Always-on observability** — every request carries a
//!   [`span::RequestSpan`] (read → parse → queue → prepare → execute →
//!   stream) folded into per-phase histograms; an optional HTTP sidecar
//!   ([`ServerConfig::metrics_addr`]) serves `/metrics` (Prometheus text
//!   exposition), `/healthz`, and `/varz`; and a fixed-capacity
//!   [`flight::FlightRecorder`] ring keeps the most recent spans and
//!   gating warnings for a Chrome-trace dump on SIGUSR1 or on failure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod flight;
mod http;
pub mod json;
pub mod metrics;
pub mod protocol;
mod server;
pub mod span;

pub use server::{Server, ServerConfig};

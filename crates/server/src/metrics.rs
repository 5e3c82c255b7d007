//! The server's one metrics store and its two renderers: the Prometheus
//! `/metrics` page and the JSON metrics frame (framed `metrics`
//! requests and `/varz`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use javaflow_analysis::report_json::json_escape;
use javaflow_fabric::{Histogram, MetricsRegistry};

use crate::server::SweepKey;
use crate::span::{as_micros_u64, RequestSpan, PHASE_NAMES};

/// The server's metrics, behind one lock: request counters, latency and
/// per-phase histograms, the simulation registry and sweeps per key.
/// Latencies land in log₂ [`Histogram`]s — the same fixed-footprint
/// buckets the simulator's Table 30 registry uses — so the percentile
/// read-out costs a 65-bucket walk, never an allocation per request.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Sweep requests admitted to the queue.
    pub accepted: u64,
    /// Sweep requests refused with `429` (queue at capacity).
    pub rejected_busy: u64,
    /// Sweep requests refused with `503` (server draining).
    pub rejected_drain: u64,
    /// Frames that failed to parse or validate (`400`/`413`).
    pub bad_requests: u64,
    /// Sweeps that streamed to `done`.
    pub completed: u64,
    /// Sweeps cancelled at a batch boundary by their deadline (`504`).
    pub cancelled_deadline: u64,
    /// Subscribers dropped mid-stream by a write failure.
    pub disconnects: u64,
    /// Sweeps actually executed (≤ `accepted` when coalescing or the
    /// result cache wins; a cache hit is not a sweep).
    pub sweeps: u64,
    /// Admitted requests that shared an already-queued sweep.
    pub coalesced_requests: u64,
    /// Batch frames written across all subscribers.
    pub batches_streamed: u64,
    /// Result-frame bytes written across all subscribers.
    pub bytes_streamed: u64,
    /// End-to-end sweep latency (admission → `done` frame ready),
    /// microseconds; recorded for every request that reaches `done`,
    /// before its frame is written.
    pub latency_us: Histogram,
    /// Time spent queued before the sweeper picked the job up, microseconds.
    pub queue_wait_us: Histogram,
    /// Per-phase request timing, index-aligned with
    /// [`PHASE_NAMES`]: read, parse, queue, prepare, execute, stream.
    /// A phase's histogram only counts requests that reached it.
    pub phase_us: [Histogram; 6],
    /// Simulation metrics folded in from every completed sweep (the
    /// Table 30 registry).
    pub(crate) sim: MetricsRegistry,
    /// Sweeps executed per [`SweepKey`], in key order.
    pub(crate) sweeps_by_key: BTreeMap<SweepKey, u64>,
}

/// What the metrics pages show beside the store, read from its owners
/// before the metrics lock is taken. The result cache and the flight
/// ring keep their own counts under their own locks, where the sweeper
/// and finished requests update them; the renderers read this copy.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Gauges {
    /// Admission-queue depth.
    pub(crate) queue_depth: u64,
    /// Requests riding the sweep in progress.
    pub(crate) in_flight: u64,
    /// Whether a drain has begun.
    pub(crate) draining: bool,
    /// Result-cache hits, misses, entries and samples, as [`CACHE_ROWS`].
    pub(crate) cache: [u64; 4],
    /// Flight-ring entries held and entries overwritten since startup.
    pub(crate) flight: [u64; 2],
}

/// Result-cache rows: name (the JSON key) and Prometheus type; the
/// series is `javaflow_result_cache_{name}`, `_total` on counters.
const CACHE_ROWS: [(&str, &str); 4] =
    [("hits", "counter"), ("misses", "counter"), ("entries", "gauge"), ("samples", "gauge")];

/// Appends one `# TYPE` line and the unlabelled series
/// `{prefix}{name}`; counters get the `_total` suffix.
fn prom_row(out: &mut String, prefix: &str, name: &str, kind: &str, v: u64) {
    let total = if kind == "counter" { "_total" } else { "" };
    let _ = writeln!(out, "# TYPE {prefix}{name}{total} {kind}");
    let _ = writeln!(out, "{prefix}{name}{total} {v}");
}

/// `{"count": …, "p50_us": …, "p95_us": …, "p99_us": …}` of one histogram.
fn json_quantiles(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}",
        h.count,
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99),
    );
}

impl ServerMetrics {
    /// The server counters in exposition order, each named once: the
    /// JSON key under `"server"` and the series
    /// `javaflow_server_{name}_total`.
    fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("accepted", self.accepted),
            ("rejected_busy", self.rejected_busy),
            ("rejected_drain", self.rejected_drain),
            ("bad_requests", self.bad_requests),
            ("completed", self.completed),
            ("cancelled_deadline", self.cancelled_deadline),
            ("disconnects", self.disconnects),
            ("sweeps", self.sweeps),
            ("coalesced_requests", self.coalesced_requests),
            ("batches_streamed", self.batches_streamed),
            ("bytes_streamed", self.bytes_streamed),
        ]
    }

    /// Records one completed request's end-to-end latency.
    pub fn observe_latency(&mut self, elapsed: Duration) {
        self.latency_us.observe(as_micros_u64(elapsed));
    }

    /// Records one job's time-in-queue.
    pub fn observe_queue_wait(&mut self, waited: Duration) {
        self.queue_wait_us.observe(as_micros_u64(waited));
    }

    /// Folds one finished request span into the per-phase histograms and
    /// the streamed-bytes counter. Each phase the request reached counts
    /// exactly once, so a phase histogram's `count` is the number of
    /// requests that got that far.
    pub fn observe_span(&mut self, s: &RequestSpan) {
        for (p, h) in self.phase_us.iter_mut().enumerate() {
            if s.reached & (1 << p) != 0 {
                h.observe(s.phase_us[p]);
            }
        }
        self.bytes_streamed += s.bytes_streamed;
    }

    /// Folds one completed sweep of `key` in and counts it against the key.
    pub(crate) fn observe_sweep(&mut self, key: &SweepKey, sim: &MetricsRegistry) {
        self.sim.merge(sim);
        *self.sweeps_by_key.entry(key.clone()).or_insert(0) += 1;
    }

    /// Renders the metrics frame: the `"server"` counters, gauges and
    /// p50/p95/p99 blocks (latency, queue wait, each request phase), the
    /// `"result_cache"` block, the Table 30 text and the simulation
    /// registry as JSON.
    #[must_use]
    pub(crate) fn render_json(&self, g: &Gauges, id: u64) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(out, "{{\"type\": \"metrics\", \"id\": {id}, \"server\": {{");
        for (name, v) in self.counters() {
            let _ = write!(out, "\"{name}\": {v}, ");
        }
        let _ = write!(
            out,
            "\"queue_depth\": {}, \"in_flight\": {}, \"latency\": ",
            g.queue_depth, g.in_flight
        );
        json_quantiles(&mut out, &self.latency_us);
        out.push_str(", \"queue_wait\": ");
        json_quantiles(&mut out, &self.queue_wait_us);
        out.push_str(", \"phases\": {");
        for (p, name) in PHASE_NAMES.iter().enumerate() {
            let sep = if p > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{name}\": ");
            json_quantiles(&mut out, &self.phase_us[p]);
        }
        out.push_str("}}, \"result_cache\": {");
        for (i, ((name, _), v)) in CACHE_ROWS.iter().zip(g.cache).enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{name}\": {v}");
        }
        let _ = write!(
            out,
            "}}, \"table30\": \"{}\", \"metrics\": {}}}",
            json_escape(&self.sim.render()),
            self.sim.to_json(),
        );
        out
    }

    /// Renders the whole Prometheus `/metrics` page: server counters as
    /// `javaflow_server_*_total`, the queue/in-flight/draining gauges,
    /// every histogram (latency, queue wait, per-phase) with cumulative
    /// `le` buckets, the per-key sweep counters, the result-cache and
    /// flight-ring rows, then the simulation registry under
    /// `javaflow_sim_`.
    #[must_use]
    pub(crate) fn render_prometheus(&self, g: &Gauges) -> String {
        let mut out = String::with_capacity(8192);
        for (name, v) in self.counters() {
            prom_row(&mut out, "javaflow_server_", name, "counter", v);
        }
        prom_row(&mut out, "javaflow_server_", "queue_depth", "gauge", g.queue_depth);
        prom_row(&mut out, "javaflow_server_", "in_flight", "gauge", g.in_flight);
        prom_row(&mut out, "javaflow_server_", "draining", "gauge", u64::from(g.draining));
        self.latency_us.render_prometheus(
            &mut out,
            "javaflow_server_latency_us",
            "end-to-end sweep latency, admission to done",
        );
        self.queue_wait_us.render_prometheus(
            &mut out,
            "javaflow_server_queue_wait_us",
            "time queued before the sweeper picked the job up",
        );
        for (p, name) in PHASE_NAMES.iter().enumerate() {
            self.phase_us[p].render_prometheus(
                &mut out,
                &format!("javaflow_server_phase_{name}_us"),
                "per-request phase duration",
            );
        }
        if !self.sweeps_by_key.is_empty() {
            out.push_str("# TYPE javaflow_server_sweeps_by_key_total counter\n");
            for (key, n) in &self.sweeps_by_key {
                let _ = writeln!(
                    out,
                    "javaflow_server_sweeps_by_key_total{{{}}} {n}",
                    key.prom_labels()
                );
            }
        }
        for ((name, kind), v) in CACHE_ROWS.iter().zip(g.cache) {
            prom_row(&mut out, "javaflow_result_cache_", name, kind, v);
        }
        prom_row(&mut out, "javaflow_server_flight_", "entries", "gauge", g.flight[0]);
        prom_row(&mut out, "javaflow_server_flight_", "dropped", "counter", g.flight[1]);
        self.sim.render_prometheus(&mut out, "javaflow_sim_");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{PHASE_EXECUTE, PHASE_PARSE, PHASE_READ};

    #[test]
    fn render_carries_counters_and_quantiles() {
        let mut m = ServerMetrics { accepted: 7, coalesced_requests: 3, ..Default::default() };
        for us in [100, 200, 400, 800] {
            m.observe_latency(Duration::from_micros(us));
        }
        let g = Gauges { queue_depth: 2, in_flight: 1, cache: [5, 0, 0, 0], ..Default::default() };
        let s = m.render_json(&g, 4);
        assert!(s.starts_with("{\"type\": \"metrics\", \"id\": 4, \"server\": {"), "{s}");
        assert!(s.contains("\"accepted\": 7"), "{s}");
        assert!(s.contains("\"coalesced_requests\": 3"), "{s}");
        assert!(s.contains("\"queue_depth\": 2"), "{s}");
        assert!(s.contains("\"in_flight\": 1"), "{s}");
        assert!(s.contains("\"count\": 4"), "{s}");
        assert!(s.contains("\"phases\": {\"read\":"), "{s}");
        assert!(s.contains("\"result_cache\": {\"hits\": 5, \"misses\": 0,"), "{s}");
        // Log₂ buckets: the p99 of [100..800]µs lands in the 512..1023 bucket.
        assert!(m.latency_us.quantile(0.99) >= 512);
    }

    #[test]
    fn spans_fold_into_reached_phases_only() {
        let mut m = ServerMetrics::default();
        let mut s =
            RequestSpan { outcome: 200, kind: b's', bytes_streamed: 64, ..Default::default() };
        s.add_phase(PHASE_READ, Duration::from_micros(3));
        s.add_phase(PHASE_PARSE, Duration::from_micros(2));
        m.observe_span(&s);
        let mut refused = RequestSpan { outcome: 429, kind: b's', ..Default::default() };
        refused.add_phase(PHASE_READ, Duration::from_micros(1));
        m.observe_span(&refused);
        assert_eq!(m.phase_us[PHASE_READ].count, 2);
        assert_eq!(m.phase_us[PHASE_PARSE].count, 1);
        assert_eq!(m.phase_us[PHASE_EXECUTE].count, 0);
        assert_eq!(m.bytes_streamed, 64);
    }

    #[test]
    fn prometheus_page_has_counters_gauges_and_phase_histograms() {
        let mut m = ServerMetrics { accepted: 2, ..Default::default() };
        let mut s = RequestSpan { outcome: 200, kind: b's', ..Default::default() };
        s.add_phase(PHASE_EXECUTE, Duration::from_micros(900));
        m.observe_span(&s);
        let g = Gauges { queue_depth: 4, in_flight: 1, flight: [0, 3], ..Default::default() };
        let page = m.render_prometheus(&g);
        assert!(page.contains("javaflow_server_accepted_total 2"), "{page}");
        assert!(page.contains("# TYPE javaflow_server_queue_depth gauge"), "{page}");
        assert!(page.contains("javaflow_server_queue_depth 4"), "{page}");
        assert!(page.contains("javaflow_server_draining 0"), "{page}");
        assert!(page.contains("javaflow_server_phase_execute_us_bucket{le=\"1023\"} 1"), "{page}");
        assert!(page.contains("javaflow_server_phase_execute_us_count 1"), "{page}");
        assert!(page.contains("# TYPE javaflow_result_cache_hits_total counter\n"), "{page}");
        assert!(page.contains("javaflow_server_flight_dropped_total 3"), "{page}");
        // No sweep yet: no per-key series.
        assert!(!page.contains("sweeps_by_key"), "{page}");
    }
}

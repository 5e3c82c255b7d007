//! Server-side counters, latency histograms, and per-phase request
//! histograms for the metrics endpoints (framed `metrics` requests,
//! `/varz`, and the Prometheus `/metrics` exposition).

use std::fmt::Write as _;
use std::time::Duration;

use javaflow_fabric::Histogram;

use crate::span::{RequestSpan, PHASE_NAMES};

/// Live server counters, updated under the shared-state lock. Latencies
/// land in log₂ [`Histogram`]s — the same fixed-footprint buckets the
/// simulator's Table 30 registry uses — so the percentile read-out costs
/// a 65-bucket walk, never an allocation per request.
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
}

impl ServerMetrics {
    /// Records one completed request's end-to-end latency.
    pub fn observe_latency(&mut self, elapsed: Duration) {
        self.latency_us.observe(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one job's time-in-queue.
    pub fn observe_queue_wait(&mut self, waited: Duration) {
        self.queue_wait_us.observe(waited.as_micros().min(u128::from(u64::MAX)) as u64);
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

    /// Renders the `"server"` half of a metrics response: counters, the
    /// caller-supplied instantaneous gauges, p50/p95/p99 for the latency
    /// and queue-wait histograms, and a count + percentile block per
    /// request phase.
    #[must_use]
    pub fn render_json(&self, queue_depth: usize, in_flight: usize) -> String {
        let q = |h: &Histogram| {
            format!(
                "{{\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}",
                h.count,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            )
        };
        let mut phases = String::from("{");
        for (p, name) in PHASE_NAMES.iter().enumerate() {
            if p > 0 {
                phases.push_str(", ");
            }
            let _ = write!(phases, "\"{name}\": {}", q(&self.phase_us[p]));
        }
        phases.push('}');
        format!(
            "{{\"accepted\": {}, \"rejected_busy\": {}, \"rejected_drain\": {}, \
             \"bad_requests\": {}, \"completed\": {}, \"cancelled_deadline\": {}, \
             \"disconnects\": {}, \"sweeps\": {}, \"coalesced_requests\": {}, \
             \"batches_streamed\": {}, \"bytes_streamed\": {}, \"queue_depth\": {queue_depth}, \
             \"in_flight\": {in_flight}, \"latency\": {}, \"queue_wait\": {}, \"phases\": {phases}}}",
            self.accepted,
            self.rejected_busy,
            self.rejected_drain,
            self.bad_requests,
            self.completed,
            self.cancelled_deadline,
            self.disconnects,
            self.sweeps,
            self.coalesced_requests,
            self.batches_streamed,
            self.bytes_streamed,
            q(&self.latency_us),
            q(&self.queue_wait_us),
        )
    }

    /// Appends the server half of the Prometheus `/metrics` page:
    /// counters as `javaflow_server_*_total`, the caller-supplied gauges,
    /// and every histogram (latency, queue wait, per-phase) with
    /// cumulative `le` buckets.
    pub fn render_prometheus(
        &self,
        out: &mut String,
        queue_depth: usize,
        in_flight: usize,
        draining: bool,
    ) {
        let counters: [(&str, u64); 11] = [
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
        ];
        for (name, v) in counters {
            let _ = writeln!(out, "# TYPE javaflow_server_{name}_total counter");
            let _ = writeln!(out, "javaflow_server_{name}_total {v}");
        }
        let gauges: [(&str, u64); 3] = [
            ("queue_depth", queue_depth as u64),
            ("in_flight", in_flight as u64),
            ("draining", u64::from(draining)),
        ];
        for (name, v) in gauges {
            let _ = writeln!(out, "# TYPE javaflow_server_{name} gauge");
            let _ = writeln!(out, "javaflow_server_{name} {v}");
        }
        self.latency_us.render_prometheus(
            out,
            "javaflow_server_latency_us",
            "end-to-end sweep latency, admission to done",
        );
        self.queue_wait_us.render_prometheus(
            out,
            "javaflow_server_queue_wait_us",
            "time queued before the sweeper picked the job up",
        );
        for (p, name) in PHASE_NAMES.iter().enumerate() {
            self.phase_us[p].render_prometheus(
                out,
                &format!("javaflow_server_phase_{name}_us"),
                "per-request phase duration",
            );
        }
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
        let s = m.render_json(2, 1);
        assert!(s.contains("\"accepted\": 7"), "{s}");
        assert!(s.contains("\"coalesced_requests\": 3"), "{s}");
        assert!(s.contains("\"queue_depth\": 2"), "{s}");
        assert!(s.contains("\"in_flight\": 1"), "{s}");
        assert!(s.contains("\"count\": 4"), "{s}");
        assert!(s.contains("\"phases\": {\"read\":"), "{s}");
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
        let mut page = String::new();
        m.render_prometheus(&mut page, 4, 1, false);
        assert!(page.contains("javaflow_server_accepted_total 2"), "{page}");
        assert!(page.contains("# TYPE javaflow_server_queue_depth gauge"), "{page}");
        assert!(page.contains("javaflow_server_queue_depth 4"), "{page}");
        assert!(page.contains("javaflow_server_draining 0"), "{page}");
        assert!(page.contains("javaflow_server_phase_execute_us_bucket{le=\"1023\"} 1"), "{page}");
        assert!(page.contains("javaflow_server_phase_execute_us_count 1"), "{page}");
    }
}

//! Request spans: monotonic per-phase timing for one request's lifecycle.
//!
//! A [`RequestSpan`] is a fixed-size `Copy` record created when a frame
//! arrives and finished exactly once at the request's terminal point
//! (`done`, `400`, `413`, `429`, `499` client-gone, `503`, `504`). The
//! phase durations — read → parse → queue → prepare → execute → stream —
//! fold into the per-phase histograms of
//! [`ServerMetrics`](crate::metrics::ServerMetrics), land in the flight
//! recorder's ring, and (with `--log-json`) render as one structured JSON
//! log line per request on stderr. Being `Copy` with no heap parts is
//! what lets the flight recorder hold spans without allocating after
//! startup.

use std::time::Duration;

/// Phase index: time reading the frame off the socket (first byte →
/// complete frame).
pub const PHASE_READ: usize = 0;
/// Phase index: parsing + validating the request JSON.
pub const PHASE_PARSE: usize = 1;
/// Phase index: waiting in the admission queue for the sweeper.
pub const PHASE_QUEUE: usize = 2;
/// Phase index: preparing (or fetching) the population for the sweep.
pub const PHASE_PREPARE: usize = 3;
/// Phase index: simulating, summed across the sweep's batches.
pub const PHASE_EXECUTE: usize = 4;
/// Phase index: writing result frames to this subscriber.
pub const PHASE_STREAM: usize = 5;
/// Phase display names, index-aligned with the `PHASE_*` constants.
pub const PHASE_NAMES: [&str; 6] = ["read", "parse", "queue", "prepare", "execute", "stream"];

/// Outcome code for a subscriber whose connection died mid-stream
/// (nginx-style "client closed request").
pub const OUTCOME_CLIENT_GONE: u16 = 499;

/// One request's lifecycle timings and identity, recorded as monotonic
/// per-phase durations in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestSpan {
    /// Client-chosen request id (0 when none could be parsed).
    pub id: u64,
    /// Start of the span (first byte of the frame), µs since the server
    /// epoch.
    pub start_us: u64,
    /// Per-phase durations, µs; see the `PHASE_*` constants.
    pub phase_us: [u64; 6],
    /// Bitmask of phases that actually happened (`1 << PHASE_*`); a
    /// refused request never reaches `execute`, and its phase histogram
    /// must not be polluted with zeros.
    pub reached: u8,
    /// Terminal outcome: `200`, `400`, `413`, `429`, [`OUTCOME_CLIENT_GONE`],
    /// `503`, `504`.
    pub outcome: u16,
    /// Request kind tag: `b's'` sweep, `b'm'` metrics, `b'p'` ping,
    /// `b'x'` shutdown, `0` unparseable.
    pub kind: u8,
    /// Whether this sweep shared an already-queued run.
    pub coalesced: bool,
    /// Whether this sweep was answered from the result cache (no
    /// simulation ran, so it has no `prepare` or `execute` phase).
    pub cached: bool,
    /// Result-frame bytes written to this subscriber.
    pub bytes_streamed: u64,
    /// Batch frames delivered to this subscriber.
    pub batches: u64,
    /// Sweep key: synthetic population size (0 for non-sweeps).
    pub synthetic: u64,
    /// Sweep key: per-run mesh-cycle budget.
    pub max_mesh_cycles: u64,
    /// Sweep key: contended interconnect model.
    pub net_contended: bool,
}

/// Saturating `Duration` → µs (the histograms are `u64`).
#[must_use]
pub fn as_micros_u64(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

impl RequestSpan {
    /// Accumulates `dur` into phase `p` and marks it reached.
    pub fn add_phase(&mut self, p: usize, dur: Duration) {
        self.phase_us[p] = self.phase_us[p].saturating_add(as_micros_u64(dur));
        self.reached |= 1 << p;
    }

    /// Total wall time across the recorded phases, µs. (Phases are
    /// contiguous by construction, so the sum is the span.)
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.phase_us.iter().sum()
    }

    /// The request kind as a display string.
    #[must_use]
    pub fn kind_str(&self) -> &'static str {
        match self.kind {
            b's' => "sweep",
            b'm' => "metrics",
            b'p' => "ping",
            b'x' => "shutdown",
            _ => "unknown",
        }
    }

    /// Renders the structured `--log-json` line: one flat JSON object,
    /// stable key order, no allocation surprises. The caller adds the
    /// newline.
    #[must_use]
    pub fn render_log_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"event\":\"request\",\"ts_us\":{},\"id\":{},\"kind\":\"{}\",\"outcome\":{}",
            self.start_us,
            self.id,
            self.kind_str(),
            self.outcome,
        ));
        if self.kind == b's' {
            out.push_str(&format!(
                ",\"synthetic\":{},\"max_mesh_cycles\":{},\"net\":\"{}\",\"coalesced\":{},\"cached\":{},\"batches\":{},\"bytes_streamed\":{}",
                self.synthetic,
                self.max_mesh_cycles,
                if self.net_contended { "contended" } else { "ideal" },
                self.coalesced,
                self.cached,
                self.batches,
                self.bytes_streamed,
            ));
        }
        for (p, name) in PHASE_NAMES.iter().enumerate() {
            if self.reached & (1 << p) != 0 {
                out.push_str(&format!(",\"{name}_us\":{}", self.phase_us[p]));
            }
        }
        out.push_str(&format!(",\"total_us\":{}}}", self.total_us()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_mark_reached() {
        let mut s = RequestSpan { id: 7, kind: b's', ..Default::default() };
        s.add_phase(PHASE_READ, Duration::from_micros(5));
        s.add_phase(PHASE_EXECUTE, Duration::from_micros(100));
        s.add_phase(PHASE_EXECUTE, Duration::from_micros(50));
        assert_eq!(s.phase_us[PHASE_EXECUTE], 150);
        assert_eq!(s.reached, (1 << PHASE_READ) | (1 << PHASE_EXECUTE));
        assert_eq!(s.total_us(), 155);
    }

    #[test]
    fn log_line_is_flat_json_with_reached_phases_only() {
        let mut s =
            RequestSpan { id: 3, kind: b's', outcome: 200, synthetic: 16, ..Default::default() };
        s.add_phase(PHASE_READ, Duration::from_micros(2));
        s.add_phase(PHASE_PARSE, Duration::from_micros(1));
        let line = s.render_log_json();
        assert!(line.starts_with("{\"event\":\"request\""), "{line}");
        assert!(line.contains("\"kind\":\"sweep\""), "{line}");
        assert!(line.contains("\"read_us\":2"), "{line}");
        assert!(line.contains("\"parse_us\":1"), "{line}");
        assert!(!line.contains("execute_us"), "unreached phases stay out: {line}");
        assert!(line.ends_with("\"total_us\":3}"), "{line}");
        // It must parse as JSON with our own parser.
        crate::json::Json::parse(&line).expect("log line parses");
    }

    #[test]
    fn ping_lines_skip_sweep_fields() {
        let s = RequestSpan { id: 1, kind: b'p', outcome: 200, ..Default::default() };
        let line = s.render_log_json();
        assert!(line.contains("\"kind\":\"ping\""));
        assert!(!line.contains("synthetic"), "{line}");
        crate::json::Json::parse(&line).expect("log line parses");
    }
}

//! The flight recorder: a fixed-capacity ring of recent request spans,
//! always on.
//!
//! This is the third observability tier. A full
//! [`javaflow_fabric::TraceSink`] recording costs every simulated event,
//! so it cannot run in production; the flight recorder instead keeps the
//! last `capacity` [`RequestSpan`]s in a preallocated ring of `Copy`
//! records — recording never allocates or touches the simulation hot
//! path.
//! On SIGUSR1, or on a request failure when configured, the ring is
//! rendered as a Chrome-trace / Perfetto JSON document through the
//! `analysis::trace` export machinery ([`FlightRecorder::chrome_json`]).

use javaflow_analysis::trace::{chrome_json, TraceSpan};

use crate::span::{RequestSpan, OUTCOME_CLIENT_GONE, PHASE_NAMES};

/// Fixed-capacity ring of recent finished [`RequestSpan`]s. All slots are
/// preallocated at construction; recording overwrites the oldest entry
/// and never allocates.
#[derive(Debug)]
pub struct FlightRecorder {
    entries: Vec<RequestSpan>,
    /// Overwrite cursor once the ring is full.
    next: usize,
    /// Entries overwritten since startup.
    dropped: u64,
    capacity: usize,
}

impl FlightRecorder {
    /// A ring holding up to `capacity` entries (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder { entries: Vec::with_capacity(capacity), next: 0, dropped: 0, capacity }
    }

    /// Records one finished span, overwriting the oldest when full.
    pub fn push(&mut self, e: RequestSpan) {
        if self.entries.len() < self.capacity {
            self.entries.push(e);
        } else {
            self.entries[self.next] = e;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds nothing yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries overwritten since startup.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held entries, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RequestSpan> {
        let mut out = Vec::with_capacity(self.entries.len());
        out.extend_from_slice(&self.entries[self.next..]);
        out.extend_from_slice(&self.entries[..self.next]);
        out
    }

    /// Renders the ring as a Chrome-trace / Perfetto JSON document:
    /// one process, a "requests" summary row, and one row per phase.
    /// Timestamps are µs since the server epoch, so
    /// concurrent requests interleave exactly as they ran.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let pid = 1u32;
        let mut threads: Vec<((u32, u32), String)> = vec![((pid, 10), "requests".to_string())];
        for (p, name) in PHASE_NAMES.iter().enumerate() {
            threads.push(((pid, 100 + p as u32), format!("phase: {name}")));
        }
        let mut spans: Vec<TraceSpan> = Vec::new();
        for s in self.snapshot() {
            let label = if s.kind == b's' {
                format!("#{} sweep s{} → {}", s.id, s.synthetic, s.outcome)
            } else {
                format!("#{} {} → {}", s.id, s.kind_str(), s.outcome)
            };
            let gone = if s.outcome == OUTCOME_CLIENT_GONE { " (client gone)" } else { "" };
            spans.push(TraceSpan {
                pid,
                tid: 10,
                ts: s.start_us,
                dur: s.total_us().max(1),
                name: format!("{label}{gone}"),
                args: format!(
                    "{{\"id\":{},\"outcome\":{},\"coalesced\":{},\"cached\":{},\"bytes\":{},\"batches\":{}}}",
                    s.id, s.outcome, s.coalesced, s.cached, s.bytes_streamed, s.batches
                ),
            });
            let mut t = s.start_us;
            for (p, name) in PHASE_NAMES.iter().enumerate() {
                if s.reached & (1 << p) != 0 {
                    spans.push(TraceSpan {
                        pid,
                        tid: 100 + p as u32,
                        ts: t,
                        dur: s.phase_us[p].max(1),
                        name: format!("#{} {name}", s.id),
                        args: format!("{{\"us\":{}}}", s.phase_us[p]),
                    });
                    t += s.phase_us[p];
                }
            }
        }
        chrome_json(&[(pid, "javaflow-serve".to_string())], &threads, &spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{PHASE_EXECUTE, PHASE_READ};
    use std::time::Duration;

    fn span(id: u64) -> RequestSpan {
        let mut s =
            RequestSpan { id, kind: b's', outcome: 200, start_us: id * 1000, ..Default::default() };
        s.add_phase(PHASE_READ, Duration::from_micros(3));
        s.add_phase(PHASE_EXECUTE, Duration::from_micros(40));
        s
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let mut r = FlightRecorder::new(3);
        for id in 0..5 {
            r.push(span(id));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ids: Vec<u64> = r.snapshot().iter().map(|s| s.id).collect();
        assert_eq!(ids, [2, 3, 4], "oldest first");
    }

    #[test]
    fn chrome_dump_has_metadata_and_phase_rows() {
        let mut r = FlightRecorder::new(8);
        r.push(span(1));
        let j = r.chrome_json();
        assert!(j.starts_with("{\"traceEvents\":["), "{j}");
        assert!(j.contains("\"name\":\"process_name\""), "{j}");
        assert!(j.contains("\"name\":\"phase: execute\""), "{j}");
        assert!(j.ends_with("],\"displayTimeUnit\":\"ms\"}"), "{j}");
        crate::json::Json::parse(&j).expect("dump parses as JSON");
    }
}

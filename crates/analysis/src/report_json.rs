//! Shared JSON assembly for execution reports and sweep telemetry.
//!
//! The bench artifacts (`BENCH_evaluation.json`, `BENCH_kernel.json`,
//! `BENCH_serve.json`) and the `javaflow-serve` wire protocol both
//! serialize [`ExecReport`]s and scheduler utilization. Hand-rolling the
//! strings in two places let the formats drift; every producer now calls
//! through here, so a response streamed by the server is byte-identical
//! to the same report serialized in-process.
//!
//! The crate is std-only, so this is a tiny hand-rolled emitter, not a
//! serde stand-in: integers via `Display`, floats via [`f64_json`]
//! (shortest round-trip, `null` for non-finite — `NaN` is legitimate in
//! scripted float kernels but not in JSON), strings via [`json_escape`].

use javaflow_fabric::{ExecReport, NetReport, Outcome, RingReport};

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Control characters become `\u00XX`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats one `f64` as a JSON value: shortest round-trip representation
/// for finite values, `null` for NaN/infinity (JSON has no spelling for
/// them, and a bare `NaN` poisons every downstream parser).
pub fn f64_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// One worker's scheduling telemetry, decoupled from the sweep scheduler
/// so this crate (which `core` depends on) can render it. `core` adapts
/// its `WorkerStats` into this via `SweepStats::utilization()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerUtilization {
    /// Records this worker executed.
    pub records_done: u64,
    /// Wall time spent inside the per-record closure.
    pub busy_secs: f64,
    /// Batches claimed from the shared queue.
    pub batches: u64,
    /// Batches stolen from other workers' in-progress ranges.
    pub steals: u64,
}

/// Renders scheduling telemetry as the `"utilization"` array of the
/// `BENCH_*.json` artifacts: per-worker records/busy-time/batch/steal
/// counts. The layout is load-bearing — CI greps these keys.
pub fn utilization_json(workers: &[WorkerUtilization]) -> String {
    let mut out = String::from("[");
    for (i, w) in workers.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"worker\": {i}, \"records_done\": {}, \"busy_secs\": {:.3}, \"batches\": {}, \"steals\": {}}}",
            w.records_done, w.busy_secs, w.batches, w.steals,
        ));
    }
    out.push(']');
    out
}

/// Serializes one [`Outcome`] as a JSON string value (quotes included).
///
/// The variants carry arbitrary payloads (`Value`s, `JvmError`s), so the
/// wire shape is the escaped `Debug` rendering — the same string the
/// determinism tests compare, which makes "byte-identical responses"
/// checkable end to end.
pub fn outcome_json(o: &Outcome) -> String {
    format!("\"{}\"", json_escape(&format!("{o:?}")))
}

fn ring_json(r: &RingReport) -> String {
    format!(
        "{{\"requests\": {}, \"wait_ticks\": {}, \"max_queue\": {}}}",
        r.requests, r.wait_ticks, r.max_queue
    )
}

/// Serializes one [`NetReport`] (link-level contended-run statistics,
/// Table 29) as a JSON object.
pub fn net_report_json(n: &NetReport) -> String {
    let mut hotspots = String::from("[");
    for (i, h) in n.hotspots.iter().enumerate() {
        if i > 0 {
            hotspots.push_str(", ");
        }
        hotspots.push_str(&format!(
            "{{\"x\": {}, \"y\": {}, \"flits\": {}, \"stall_ticks\": {}}}",
            h.x, h.y, h.flits, h.stall_ticks
        ));
    }
    hotspots.push(']');
    format!(
        "{{\"mesh_flits\": {}, \"mesh_hops\": {}, \"stall_ticks\": {}, \"max_queue_depth\": {}, \"mean_queue_depth\": {}, \"hotspots\": {hotspots}, \"memory_ring\": {}, \"gpp_ring\": {}}}",
        n.mesh_flits,
        n.mesh_hops,
        n.stall_ticks,
        n.max_queue_depth,
        f64_json(n.mean_queue_depth),
        ring_json(&n.memory_ring),
        ring_json(&n.gpp_ring),
    )
}

/// Serializes one [`ExecReport`] as a compact single-line JSON object,
/// every field in declaration order, `"net"` as `null` for ideal runs.
pub fn exec_report_json(r: &ExecReport) -> String {
    format!(
        "{{\"outcome\": {}, \"mesh_cycles\": {}, \"executed\": {}, \"relay_fires\": {}, \"static_covered\": {}, \"coverage\": {}, \"ipc\": {}, \"frac_cycles_ge2\": {}, \"frac_cycles_ge1\": {}, \"serial_msgs\": {}, \"mesh_msgs\": {}, \"events\": {}, \"events_skipped\": {}, \"class_fires\": [{}, {}, {}, {}], \"wheel_high_water\": {}, \"wheel_pushes\": {}, \"declined\": {}, \"net\": {}}}",
        outcome_json(&r.outcome),
        r.mesh_cycles,
        r.executed,
        r.relay_fires,
        r.static_covered,
        f64_json(r.coverage),
        f64_json(r.ipc),
        f64_json(r.frac_cycles_ge2),
        f64_json(r.frac_cycles_ge1),
        r.serial_msgs,
        r.mesh_msgs,
        r.events,
        r.events_skipped,
        r.class_fires[0],
        r.class_fires[1],
        r.class_fires[2],
        r.class_fires[3],
        r.wheel_high_water,
        r.wheel_pushes,
        r.declined,
        r.net.as_deref().map_or_else(|| "null".to_string(), net_report_json),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_control_bytes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nfeed\ttab\rret"), "line\\nfeed\\ttab\\rret");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64_json(0.5), "0.5");
        assert_eq!(f64_json(2.0), "2.0");
        assert_eq!(f64_json(f64::NAN), "null");
        assert_eq!(f64_json(f64::INFINITY), "null");
        assert_eq!(f64_json(f64::NEG_INFINITY), "null");
        // Shortest round-trip: parsing the emitted text recovers the bits.
        let v = 0.1f64 + 0.2;
        assert_eq!(f64_json(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn utilization_layout_matches_the_bench_artifacts() {
        let workers = [
            WorkerUtilization { records_done: 7, busy_secs: 0.1234, batches: 3, steals: 1 },
            WorkerUtilization { records_done: 5, busy_secs: 0.1, batches: 2, steals: 0 },
        ];
        assert_eq!(
            utilization_json(&workers),
            "[{\"worker\": 0, \"records_done\": 7, \"busy_secs\": 0.123, \"batches\": 3, \"steals\": 1}, \
             {\"worker\": 1, \"records_done\": 5, \"busy_secs\": 0.100, \"batches\": 2, \"steals\": 0}]"
        );
        assert_eq!(utilization_json(&[]), "[]");
    }

    #[test]
    fn exec_report_serializes_every_field() {
        let r = ExecReport {
            outcome: Outcome::Timeout,
            mesh_cycles: 10,
            executed: 20,
            relay_fires: 3,
            static_covered: 4,
            coverage: 0.5,
            ipc: f64::NAN,
            frac_cycles_ge2: 0.25,
            frac_cycles_ge1: 1.0,
            serial_msgs: 6,
            mesh_msgs: 7,
            events: 8,
            events_skipped: 9,
            class_fires: [1, 2, 3, 4],
            wheel_high_water: 11,
            wheel_pushes: 12,
            declined: 0,
            net: None,
        };
        let json = exec_report_json(&r);
        assert!(json.starts_with("{\"outcome\": \"Timeout\", \"mesh_cycles\": 10"));
        assert!(json.contains("\"ipc\": null"), "NaN must serialize as null: {json}");
        assert!(json.contains("\"class_fires\": [1, 2, 3, 4]"));
        assert!(json.ends_with("\"declined\": 0, \"net\": null}"));
    }
}

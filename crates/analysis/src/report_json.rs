//! Shared JSON assembly for execution reports.
//!
//! The bench artifacts (`BENCH_kernel.json`, `BENCH_serve.json`) and
//! the `javaflow-serve` wire protocol both
//! serialize [`ExecReport`]s. Hand-rolling the strings in two places let
//! the formats drift; every producer now calls through here, so a
//! response streamed by the server is byte-identical to the same report
//! serialized in-process.
//!
//! The crate is std-only, so this is a tiny hand-rolled emitter, not a
//! serde stand-in: integers via [`push_u64`], floats via [`push_f64`]
//! (shortest round-trip, `null` for non-finite — `NaN` is legitimate in
//! scripted float kernels but not in JSON), strings via [`json_escape`].
//! Reports are appended to the caller's buffer with no string per
//! field; the server renders every streamed batch this way.

use std::fmt::Write as _;

use javaflow_fabric::{ExecReport, NetReport, Outcome, RingReport};

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Control characters become `\u00XX`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_json_escaped(&mut out, s);
    out
}

/// [`json_escape`], appended to `out`.
pub fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A [`std::fmt::Write`] sink that JSON-escapes everything written
/// through it into a buffer, so a `Debug` rendering can be escaped
/// without first being collected into its own string.
struct Escaped<'a>(&'a mut String);

impl std::fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        push_json_escaped(self.0, s);
        Ok(())
    }
}

/// Appends `v` in decimal, the digits `Display` would write, pushed
/// directly rather than through the `fmt` machinery: a streamed batch
/// holds thousands of reports of a dozen integers each.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Appends each `(key, value)` pair as the key text followed by the
/// value's digits.
fn push_u64_fields<const N: usize>(out: &mut String, fields: [(&str, u64); N]) {
    for (key, v) in fields {
        out.push_str(key);
        push_u64(out, v);
    }
}

/// Appends one `f64` as a JSON value: shortest round-trip representation
/// for finite values, `null` for NaN/infinity (JSON has no spelling for
/// them, and a bare `NaN` poisons every downstream parser).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends one [`Outcome`] as a JSON string value (quotes included).
///
/// The variants carry arbitrary payloads (`Value`s, `JvmError`s), so the
/// wire shape is the escaped `Debug` rendering — the same string the
/// determinism tests compare, which makes "byte-identical responses"
/// checkable end to end.
pub fn push_outcome(out: &mut String, o: &Outcome) {
    out.push('"');
    let _ = write!(Escaped(out), "{o:?}");
    out.push('"');
}

fn push_ring(out: &mut String, r: &RingReport) {
    push_u64_fields(
        out,
        [
            ("{\"requests\": ", r.requests),
            (", \"wait_ticks\": ", r.wait_ticks),
            (", \"max_queue\": ", r.max_queue),
        ],
    );
    out.push('}');
}

/// Appends one [`NetReport`] (link-level contended-run statistics,
/// Table 29) as a JSON object.
pub fn push_net_report(out: &mut String, n: &NetReport) {
    push_u64_fields(
        out,
        [
            ("{\"mesh_flits\": ", n.mesh_flits),
            (", \"mesh_hops\": ", n.mesh_hops),
            (", \"stall_ticks\": ", n.stall_ticks),
            (", \"max_queue_depth\": ", n.max_queue_depth),
        ],
    );
    out.push_str(", \"mean_queue_depth\": ");
    push_f64(out, n.mean_queue_depth);
    out.push_str(", \"hotspots\": [");
    for (i, h) in n.hotspots.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_u64_fields(
            out,
            [
                ("{\"x\": ", u64::from(h.x)),
                (", \"y\": ", u64::from(h.y)),
                (", \"flits\": ", h.flits),
                (", \"stall_ticks\": ", h.stall_ticks),
            ],
        );
        out.push('}');
    }
    out.push_str("], \"memory_ring\": ");
    push_ring(out, &n.memory_ring);
    out.push_str(", \"gpp_ring\": ");
    push_ring(out, &n.gpp_ring);
    out.push('}');
}

/// Appends one [`ExecReport`] as a compact single-line JSON object,
/// every field in declaration order, `"net"` as `null` for ideal runs.
pub fn push_exec_report(out: &mut String, r: &ExecReport) {
    out.push_str("{\"outcome\": ");
    push_outcome(out, &r.outcome);
    push_u64_fields(
        out,
        [
            (", \"mesh_cycles\": ", r.mesh_cycles),
            (", \"executed\": ", r.executed),
            (", \"relay_fires\": ", r.relay_fires),
            (", \"static_covered\": ", r.static_covered as u64),
        ],
    );
    out.push_str(", \"coverage\": ");
    push_f64(out, r.coverage);
    out.push_str(", \"ipc\": ");
    push_f64(out, r.ipc);
    out.push_str(", \"frac_cycles_ge2\": ");
    push_f64(out, r.frac_cycles_ge2);
    out.push_str(", \"frac_cycles_ge1\": ");
    push_f64(out, r.frac_cycles_ge1);
    push_u64_fields(
        out,
        [
            (", \"serial_msgs\": ", r.serial_msgs),
            (", \"mesh_msgs\": ", r.mesh_msgs),
            (", \"events\": ", r.events),
            (", \"events_skipped\": ", r.events_skipped),
            (", \"class_fires\": [", r.class_fires[0]),
            (", ", r.class_fires[1]),
            (", ", r.class_fires[2]),
            (", ", r.class_fires[3]),
            ("], \"wheel_high_water\": ", r.wheel_high_water),
            (", \"wheel_pushes\": ", r.wheel_pushes),
        ],
    );
    out.push_str(", \"net\": ");
    match r.net.as_deref() {
        Some(n) => push_net_report(out, n),
        None => out.push_str("null"),
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered<T: ?Sized>(push: fn(&mut String, &T), v: &T) -> String {
        let mut out = String::new();
        push(&mut out, v);
        out
    }

    fn f64_json(v: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, v);
        out
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_control_bytes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nfeed\ttab\rret"), "line\\nfeed\\ttab\\rret");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn integers_render_as_display_does() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX / 10, u64::MAX] {
            assert_eq!(rendered(|out, v: &u64| push_u64(out, *v), &v), v.to_string());
        }
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
            net: None,
        };
        let json = rendered(push_exec_report, &r);
        assert!(json.starts_with("{\"outcome\": \"Timeout\", \"mesh_cycles\": 10"));
        assert!(json.contains("\"ipc\": null"), "NaN must serialize as null: {json}");
        assert!(json.contains("\"class_fires\": [1, 2, 3, 4]"));
        assert!(json.ends_with("\"wheel_pushes\": 12, \"net\": null}"));
    }

    #[test]
    fn outcomes_are_the_escaped_debug_rendering() {
        let err = javaflow_interp::JvmError::bare(javaflow_interp::JvmErrorKind::DivideByZero);
        for o in [Outcome::Returned(None), Outcome::Timeout, Outcome::Exception(err)] {
            assert_eq!(
                rendered(push_outcome, &o),
                format!("\"{}\"", json_escape(&format!("{o:?}")))
            );
        }
        // A `Debug` rendering arrives in pieces; each piece is escaped.
        let mut out = String::new();
        let (plain, debugged) = ("a\"b", "c\\d\n");
        let _ = write!(Escaped(&mut out), "{plain}{debugged:?}");
        assert_eq!(out, json_escape(&format!("{plain}{debugged:?}")));
    }

    #[test]
    fn net_report_layout_is_pinned() {
        let ring = |requests| RingReport { requests, wait_ticks: 2, max_queue: 3 };
        let n = NetReport {
            mesh_flits: 1,
            mesh_hops: 2,
            stall_ticks: 3,
            max_queue_depth: 4,
            mean_queue_depth: 0.5,
            hotspots: vec![
                javaflow_fabric::NodeNetStat { x: 0, y: 1, flits: 5, stall_ticks: 6 },
                javaflow_fabric::NodeNetStat { x: 2, y: 3, flits: 7, stall_ticks: 8 },
            ],
            memory_ring: ring(9),
            gpp_ring: ring(10),
        };
        assert_eq!(
            rendered(push_net_report, &n),
            "{\"mesh_flits\": 1, \"mesh_hops\": 2, \"stall_ticks\": 3, \"max_queue_depth\": 4, \
             \"mean_queue_depth\": 0.5, \"hotspots\": [{\"x\": 0, \"y\": 1, \"flits\": 5, \
             \"stall_ticks\": 6}, {\"x\": 2, \"y\": 3, \"flits\": 7, \"stall_ticks\": 8}], \
             \"memory_ring\": {\"requests\": 9, \"wait_ticks\": 2, \"max_queue\": 3}, \
             \"gpp_ring\": {\"requests\": 10, \"wait_ticks\": 2, \"max_queue\": 3}}"
        );
    }
}

//! The `javaflow-serve` wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one frame: a 4-byte
//! big-endian length `N` followed by `N` bytes of UTF-8 JSON. Requests
//! are bounded by [`MAX_REQUEST_FRAME`] (an oversized prefix is answered
//! with a `413` error and the connection closed before any payload is
//! buffered); responses carry no bound, a sweep's tables can be large.
//!
//! The response builders here are the *only* producers of sample/report
//! JSON on the wire, and they delegate to `analysis::report_json`, so a
//! served response is byte-identical to the equivalent in-process
//! rendering.
//! `load_gen` exercises exactly that equivalence via
//! [`expected_batch_payloads`].

use std::io::{IoSlice, Read, Write};

use javaflow_analysis::report_json::{json_escape, push_exec_report, push_json_escaped, push_u64};
use javaflow_core::{EvalConfig, Evaluation, MethodRecord, MethodStatics, Sample};
use javaflow_fabric::{BranchMode, NetKind};

use crate::json::Json;

/// Upper bound on an incoming request frame. Requests are small command
/// objects; anything larger is a protocol error (or an attack), answered
/// with `413` before the payload is read.
pub const MAX_REQUEST_FRAME: usize = 1 << 20;

/// Longest accepted `tables` list in one request.
pub const MAX_TABLES: usize = 32;

/// Reads one length-prefixed frame. `Ok(None)` is a clean EOF at a frame
/// boundary; a length above `max` yields `FrameError::Oversized` without
/// reading the payload; a mid-frame EOF yields `Truncated`.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    read_frame_timed(r, max).map(|f| f.map(|(payload, _)| payload))
}

/// [`read_frame`], also reporting how long the frame took to arrive.
///
/// The clock starts when the *first* bytes of the length prefix return —
/// not when the call blocks waiting for the client to speak — so the
/// reported duration is socket/transfer time for this frame, which is
/// what the request span's `read` phase means. An idle keep-alive
/// connection therefore reads as µs, not as the minutes it sat parked.
pub fn read_frame_timed(
    r: &mut impl Read,
    max: usize,
) -> Result<Option<(Vec<u8>, std::time::Duration)>, FrameError> {
    let mut len = [0u8; 4];
    let started;
    match r.read(&mut len) {
        Ok(0) => return Ok(None),
        Ok(mut got) => {
            started = std::time::Instant::now();
            while got < 4 {
                match r.read(&mut len[got..]) {
                    Ok(0) => return Err(FrameError::Truncated),
                    Ok(n) => got += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(FrameError::Io(e)),
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > max {
        return Err(FrameError::Oversized(n));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })?;
    Ok(Some((buf, started.elapsed())))
}

/// Writes one length-prefixed frame.
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes (no rendered response
/// approaches this).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    write_frame_parts(w, &[payload])
}

/// Writes one length-prefixed frame whose payload is the concatenation
/// of `parts`, without concatenating them first.
///
/// The length prefix and every part go out in vectored writes, so a frame
/// leaves in one `writev` unless the socket takes it piecemeal. One write
/// matters on TCP: a prefix sent on its own is a small unacknowledged
/// segment, and Nagle's algorithm then holds the payload back until the
/// peer's delayed ACK arrives, tens of milliseconds later. Partial writes
/// resume where the socket stopped.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes.
pub fn write_frame_parts(w: &mut impl Write, parts: &[&[u8]]) -> std::io::Result<()> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let len = u32::try_from(total).expect("frame fits in u32").to_be_bytes();
    let mut bufs: Vec<&[u8]> = Vec::with_capacity(parts.len() + 1);
    bufs.push(&len);
    bufs.extend(parts.iter().copied().filter(|p| !p.is_empty()));
    // `bufs[first][offset..]` is the first unwritten byte.
    let (mut first, mut offset) = (0usize, 0usize);
    while first < bufs.len() {
        let slices: Vec<IoSlice<'_>> = std::iter::once(&bufs[first][offset..])
            .chain(bufs[first + 1..].iter().copied())
            .map(IoSlice::new)
            .collect();
        let mut n = match w.write_vectored(&slices) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while first < bufs.len() && n >= bufs[first].len() - offset {
            n -= bufs[first].len() - offset;
            first += 1;
            offset = 0;
        }
        offset += n;
    }
    w.flush()
}

/// A framing failure while reading a request.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix exceeded the limit; the payload was not read.
    Oversized(usize),
    /// The peer closed mid-frame.
    Truncated,
    /// An I/O error.
    Io(std::io::Error),
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or join) a sweep and stream the results.
    Sweep(SweepRequest),
    /// Render the live metrics registry and server counters.
    Metrics {
        /// Client-chosen request id, echoed on the response.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen request id, echoed on the response.
        id: u64,
    },
    /// Ask the server to drain and exit (same path as SIGINT).
    Shutdown {
        /// Client-chosen request id, echoed on the response.
        id: u64,
    },
}

/// A sweep request: a population selection plus per-request `EvalConfig`
/// overrides. Unset fields take the server's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Client-chosen request id, echoed on every response frame.
    pub id: u64,
    /// Synthetic-population size (the cache key for prepared methods).
    pub synthetic: usize,
    /// Per-run mesh-cycle budget.
    pub max_mesh_cycles: u64,
    /// Interconnect model.
    pub net: NetKind,
    /// Worker threads for the sweep (coalesced requests share the
    /// largest ask). Results never depend on this.
    pub threads: Option<usize>,
    /// Chapter 7 tables to render into the final `done` frame.
    pub tables: Vec<u32>,
    /// Per-request deadline in milliseconds; 0 = none. An expired sweep
    /// is cancelled at the next batch boundary with a `504`.
    pub deadline_ms: u64,
}

/// A request-parse failure: the `429`-style numeric code plus a message.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// Protocol error code (`400` malformed, `413` oversized, ...).
    pub code: u32,
    /// Human-readable reason, safe to echo into the error frame.
    pub message: String,
    /// The request id, when one could be recovered from the payload.
    pub id: u64,
}

impl RequestError {
    fn bad(id: u64, message: impl Into<String>) -> RequestError {
        RequestError { code: 400, message: message.into(), id }
    }
}

/// Parses and validates one request frame.
pub fn parse_request(payload: &[u8], defaults: &EvalConfig) -> Result<Request, RequestError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| RequestError::bad(0, "request is not UTF-8"))?;
    let j = Json::parse(text).map_err(|e| RequestError::bad(0, format!("bad JSON: {e}")))?;
    let id = j.get("id").and_then(Json::as_u64).unwrap_or(0);
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::bad(id, "missing `kind`"))?;
    match kind {
        "metrics" => Ok(Request::Metrics { id }),
        "ping" => Ok(Request::Ping { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "sweep" => {
            let field_u64 = |name: &str, default: u64| -> Result<u64, RequestError> {
                match j.get(name) {
                    None | Some(Json::Null) => Ok(default),
                    Some(v) => v.as_u64().ok_or_else(|| {
                        RequestError::bad(id, format!("`{name}` must be a non-negative integer"))
                    }),
                }
            };
            let synthetic = field_u64("synthetic", defaults.synthetic_count as u64)? as usize;
            let max_mesh_cycles = field_u64("max_mesh_cycles", defaults.max_mesh_cycles)?;
            if max_mesh_cycles == 0 || max_mesh_cycles > 100_000_000 {
                return Err(RequestError::bad(id, "`max_mesh_cycles` out of range (1..=1e8)"));
            }
            let net = match j.get("net") {
                None | Some(Json::Null) => defaults.net,
                Some(v) => match v.as_str() {
                    Some("ideal") => NetKind::Ideal,
                    Some("contended") => NetKind::Contended,
                    _ => {
                        return Err(RequestError::bad(
                            id,
                            "`net` must be \"ideal\" or \"contended\"",
                        ))
                    }
                },
            };
            let threads = match j.get("threads") {
                None | Some(Json::Null) => None,
                Some(v) => match v.as_u64() {
                    Some(t @ 1..=256) => Some(t as usize),
                    _ => return Err(RequestError::bad(id, "`threads` must be 1..=256")),
                },
            };
            // Accepted and ignored: block-compiled replay and token-walk
            // fast-forward are gone (every sweep runs the one walk, and the
            // result cache serves repeats), but old clients still send them.
            for name in ["compiled", "fast_forward"] {
                match j.get(name) {
                    None | Some(Json::Null) | Some(Json::Bool(_)) => {}
                    Some(_) => {
                        return Err(RequestError::bad(id, format!("`{name}` must be a bool")))
                    }
                }
            }
            let tables = match j.get("tables") {
                None | Some(Json::Null) => Vec::new(),
                Some(v) => {
                    let arr = v
                        .as_arr()
                        .ok_or_else(|| RequestError::bad(id, "`tables` must be an array"))?;
                    if arr.len() > MAX_TABLES {
                        return Err(RequestError::bad(
                            id,
                            format!("at most {MAX_TABLES} tables per request"),
                        ));
                    }
                    arr.iter()
                        .map(|t| match t.as_u64() {
                            Some(n @ 1..=30) => Ok(n as u32),
                            _ => Err(RequestError::bad(id, "table ids must be 1..=30")),
                        })
                        .collect::<Result<Vec<u32>, RequestError>>()?
                }
            };
            let deadline_ms = field_u64("deadline_ms", 0)?;
            Ok(Request::Sweep(SweepRequest {
                id,
                synthetic,
                max_mesh_cycles,
                net,
                threads,
                tables,
                deadline_ms,
            }))
        }
        other => Err(RequestError::bad(id, format!("unknown kind `{other}`"))),
    }
}

/// Renders the `"records"` array of one batch frame from per-record sweep
/// results. Shared verbatim between the server's sweeper and the
/// expectation side of `load_gen` — byte-identity is this function being
/// the only implementation.
pub fn batch_records_json<'a>(
    entries: impl Iterator<Item = (usize, &'a str, &'a [Sample])>,
) -> String {
    let mut out = String::from("[");
    for (i, (ri, name, samples)) in entries.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"record\": ");
        push_u64(&mut out, ri as u64);
        out.push_str(", \"name\": \"");
        push_json_escaped(&mut out, name);
        out.push_str("\", \"samples\": [");
        for (k, s) in samples.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"config\": ");
            push_u64(&mut out, s.config as u64);
            // The script's `Debug` name, and the bool as `Display` has it.
            out.push_str(", \"bp\": \"");
            out.push_str(match s.bp {
                BranchMode::Data => "Data",
                BranchMode::Bp1 => "Bp1",
                BranchMode::Bp2 => "Bp2",
            });
            out.push_str("\", \"ok\": ");
            out.push_str(if s.ok { "true" } else { "false" });
            out.push_str(", \"report\": ");
            push_exec_report(&mut out, &s.report);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// [`batch_records_json`] over one batch of `core::service` sweep
/// results, as the sweeper streams them.
pub fn batch_payload(
    records: &[MethodRecord],
    first_record: usize,
    results: &[(MethodStatics, Vec<Sample>)],
) -> String {
    batch_records_json(results.iter().enumerate().map(|(i, (_, samples))| {
        let ri = first_record + i;
        (ri, records[ri].name.as_str(), samples.as_slice())
    }))
}

/// The expected per-batch `"records"` payloads for a finished in-process
/// [`Evaluation`] — what a server sweeping in `batch_records`-sized
/// batches must stream, byte for byte. Returns `(first_record, payload)`
/// pairs in stream order.
#[must_use]
pub fn expected_batch_payloads(eval: &Evaluation, batch_records: usize) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for_each_batch_payload(eval, batch_records, |lo, payload| {
        out.push((lo, payload));
        true
    });
    out
}

/// Renders a finished [`Evaluation`]'s batch payloads one at a time, in
/// stream order, handing each to `on_batch(first_record, payload)`;
/// returning `false` stops early. Returns whether every batch was
/// handed over. The server streams cached sweeps through this, and
/// [`expected_batch_payloads`] collects it, so a cached response cannot
/// drift from the expectation.
///
/// # Panics
///
/// Panics if `batch_records` is 0.
pub fn for_each_batch_payload(
    eval: &Evaluation,
    batch_records: usize,
    mut on_batch: impl FnMut(usize, String) -> bool,
) -> bool {
    assert!(batch_records > 0);
    // `Evaluation::assemble` appends samples record by record, so each
    // record's samples are one contiguous, ordered run.
    let mut by_record: Vec<&[Sample]> = vec![&[]; eval.records.len()];
    let mut i = 0;
    while i < eval.samples.len() {
        let ri = eval.samples[i].record;
        let mut j = i;
        while j < eval.samples.len() && eval.samples[j].record == ri {
            j += 1;
        }
        by_record[ri] = &eval.samples[i..j];
        i = j;
    }
    let mut lo = 0;
    while lo < eval.records.len() {
        let hi = (lo + batch_records).min(eval.records.len());
        let payload = batch_records_json(
            (lo..hi).map(|ri| (ri, eval.records[ri].name.as_str(), by_record[ri])),
        );
        if !on_batch(lo, payload) {
            return false;
        }
        lo = hi;
    }
    true
}

/// Builds one full batch frame around a shared records payload.
#[must_use]
pub fn batch_frame(id: u64, seq: usize, first_record: usize, records_payload: &str) -> String {
    format!("{}{records_payload}{BATCH_FRAME_TAIL}", batch_frame_head(id, seq, first_record))
}

/// The per-subscriber part of a batch frame, before the shared records
/// payload. A frame is this head, the payload, then
/// [`BATCH_FRAME_TAIL`]; the server writes the three as one vectored
/// frame, so fanning a batch out to many subscribers never copies its
/// payload.
#[must_use]
pub fn batch_frame_head(id: u64, seq: usize, first_record: usize) -> String {
    format!(
        "{{\"type\": \"batch\", \"id\": {id}, \"seq\": {seq}, \"first_record\": {first_record}, \"records\": "
    )
}

/// What follows the records payload in a batch frame.
pub const BATCH_FRAME_TAIL: &str = "}";

/// Builds the final `done` frame: totals plus the requested rendered
/// tables. `coalesced` reports whether this request shared its sweep.
#[must_use]
pub fn done_frame(id: u64, eval: &Evaluation, coalesced: bool, tables: &[u32]) -> String {
    let mut rendered = String::from("{");
    for (i, &t) in tables.iter().enumerate() {
        if i > 0 {
            rendered.push_str(", ");
        }
        rendered.push_str(&format!(
            "\"{t}\": \"{}\"",
            json_escape(&javaflow_core::tables::chapter7_tables(eval, t))
        ));
    }
    rendered.push('}');
    format!(
        "{{\"type\": \"done\", \"id\": {id}, \"records\": {}, \"samples\": {}, \"coalesced\": {coalesced}, \"tables\": {rendered}}}",
        eval.records.len(),
        eval.samples.len(),
    )
}

/// Builds an error frame.
#[must_use]
pub fn error_frame(id: u64, code: u32, message: &str) -> String {
    format!(
        "{{\"type\": \"error\", \"id\": {id}, \"code\": {code}, \"message\": \"{}\"}}",
        json_escape(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"kind\": \"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"{\"kind\": \"ping\"}");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_is_detected_before_the_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u32 << 24).to_be_bytes());
        let mut r = &buf[..];
        assert!(
            matches!(read_frame(&mut r, MAX_REQUEST_FRAME), Err(FrameError::Oversized(n)) if n == 1 << 24)
        );
    }

    #[test]
    fn truncation_is_an_error_not_a_hang() {
        // Mid-prefix EOF.
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Truncated)));
        // Mid-payload EOF.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Truncated)));
    }

    #[test]
    fn sweep_requests_parse_with_defaults() {
        let d = EvalConfig::default();
        let r = parse_request(b"{\"kind\": \"sweep\", \"id\": 3}", &d).unwrap();
        let Request::Sweep(s) = r else { panic!("expected sweep") };
        assert_eq!(s.id, 3);
        assert_eq!(s.synthetic, d.synthetic_count);
        assert_eq!(s.max_mesh_cycles, d.max_mesh_cycles);
        assert_eq!(s.net, d.net);
        assert_eq!(s.threads, None);
        assert!(s.tables.is_empty());
        assert_eq!(s.deadline_ms, 0);
    }

    #[test]
    fn compiled_is_accepted_and_ignored() {
        let d = EvalConfig::default();
        let plain = parse_request(b"{\"kind\": \"sweep\", \"id\": 4}", &d).unwrap();
        for flag in ["true", "false", "null"] {
            let text = format!("{{\"kind\": \"sweep\", \"id\": 4, \"compiled\": {flag}}}");
            assert_eq!(parse_request(text.as_bytes(), &d).unwrap(), plain, "compiled={flag}");
        }
    }

    #[test]
    fn invalid_fields_are_400s_with_the_request_id() {
        let d = EvalConfig::default();
        for bad in [
            "{\"kind\": \"sweep\", \"id\": 9, \"net\": \"warp\"}",
            "{\"kind\": \"sweep\", \"id\": 9, \"threads\": 0}",
            "{\"kind\": \"sweep\", \"id\": 9, \"tables\": [31]}",
            "{\"kind\": \"sweep\", \"id\": 9, \"max_mesh_cycles\": 0}",
            "{\"kind\": \"sweep\", \"id\": 9, \"synthetic\": \"many\"}",
            "{\"kind\": \"sweep\", \"id\": 9, \"compiled\": \"yes\"}",
            "{\"kind\": \"sweep\", \"id\": 9, \"fast_forward\": \"yes\"}",
            "{\"kind\": \"warp\", \"id\": 9}",
        ] {
            let e = parse_request(bad.as_bytes(), &d).unwrap_err();
            assert_eq!(e.code, 400, "{bad}");
            assert_eq!(e.id, 9, "{bad}");
        }
        let e = parse_request(b"not json", &d).unwrap_err();
        assert_eq!((e.code, e.id), (400, 0));
    }
}

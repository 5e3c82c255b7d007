//! The files the `tables` binary writes, checked field by field: the
//! `--bench-kernel` report (a fresh small run and the committed
//! `BENCH_kernel.json`) and the `--trace-out` Chrome-trace export.
//!
//! Each run happens in its own directory under the target dir, so no
//! artifact lands in the source tree.

use std::path::{Path, PathBuf};
use std::process::Command;

use javaflow_server::json::Json;

/// Runs `tables` with `args` in a fresh directory named `name` and
/// returns that directory; the run must exit 0.
fn run_tables(name: &str, args: &[&str]) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run tables");
    assert!(
        out.status.success(),
        "tables {args:?} exited {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

fn read_json(path: &Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{} is not JSON: {e}", path.display()))
}

fn num(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn field<'a>(r: &'a Json, key: &str) -> &'a Json {
    r.get(key).unwrap_or_else(|| panic!("BENCH_kernel.json lost its `{key}` field"))
}

fn count(r: &Json, key: &str) -> u64 {
    field(r, key).as_u64().unwrap_or_else(|| panic!("`{key}` is not a count"))
}

/// The fields every `BENCH_kernel.json` must carry, whatever host wrote
/// it. The host-bound floors (throughput, parallel speedup) are not
/// here: they only mean something on a known machine.
fn check_kernel_report(r: &Json) {
    assert_eq!(
        field(r, "identical_output").as_bool(),
        Some(true),
        "parallel sweep output diverged from serial"
    );
    // Per-event cost and the host's core count make a kernel figure
    // comparable across hosts and commits.
    assert!(num(field(r, "ns_per_event")).is_some_and(|ns| ns > 0.0), "ns_per_event");
    assert!(count(r, "nproc") >= 1, "nproc");
    // BP-2 runs take over their BP-1 twin's events up to its first
    // forward decision: some are always shared, never all of them.
    let (inherited, events) = (count(r, "events_inherited"), count(r, "events"));
    assert!(
        0 < inherited && inherited < events,
        "events_inherited {inherited} not in (0, {events})"
    );
    assert!(count(r, "threads_used") >= 1, "threads_used");
    // Every record is claimed exactly once: a claim loop that drops or
    // repeats a record breaks this sum.
    let rows = field(r, "utilization").as_arr().expect("utilization is an array");
    let done: u64 = rows
        .iter()
        .map(|w| w.get("records_done").and_then(Json::as_u64).expect("records_done"))
        .sum();
    assert_eq!(done, count(r, "records"), "utilization rows vs the sweep's records");
    assert!(
        matches!(field(r, "metrics").get("counters"), Some(Json::Obj(_))),
        "BENCH_kernel.json lost its metrics.counters block"
    );
}

#[test]
fn bench_kernel_writes_a_complete_report() {
    let dir = run_tables(
        "tables-bench-kernel",
        &["--bench-kernel", "--synthetic", "40", "--threads", "2"],
    );
    let report = read_json(&dir.join("BENCH_kernel.json"));
    check_kernel_report(&report);
    assert_eq!(count(&report, "threads"), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_bench_kernel_json_has_every_field() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernel.json");
    check_kernel_report(&read_json(&committed));
}

/// Splits the document at its `traceEvents` array: returns the document
/// with that array emptied, and the text of each event. Events are
/// parsed one at a time because `Json::parse` is built for request
/// frames and slows sharply on a multi-megabyte document.
fn split_trace_events(text: &str) -> (String, Vec<&str>) {
    let key = text.find("\"traceEvents\"").expect("traceEvents key");
    let open = key + text[key..].find('[').expect("traceEvents array");
    let bytes = text.as_bytes();
    let (mut events, mut depth, mut start, mut in_str) = (Vec::new(), 0usize, open + 1, false);
    let mut i = open + 1;
    let close = loop {
        match (bytes[i], in_str) {
            (b'\\', true) => i += 1,
            (b'"', _) => in_str = !in_str,
            (b'{' | b'[', false) => depth += 1,
            (b'}', false) => depth -= 1,
            (b']', false) if depth == 0 => break i,
            (b']', false) => depth -= 1,
            (b',', false) if depth == 0 => {
                events.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    };
    if !text[start..close].trim().is_empty() {
        events.push(&text[start..close]);
    }
    (format!("{}{}", &text[..=open], &text[close..]), events)
}

/// The schema of the Chrome-trace / Perfetto export: a top-level
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}` whose events are all
/// `X` (complete span) or `M` (metadata) records with numeric `pid`/`tid`
/// and a string `name`, every span with non-negative numeric `ts`/`dur`,
/// and at least one span and one `process_name` record (an empty but
/// well-formed document is a capture bug, not a pass).
fn check_trace_schema(text: &str) {
    let (envelope, events) = split_trace_events(text);
    let doc = Json::parse(&envelope).expect("trace document is JSON");
    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    assert!(doc.get("traceEvents").and_then(Json::as_arr).is_some(), "traceEvents array");
    let (mut spans, mut process_names) = (0, 0);
    for (i, text) in events.iter().enumerate() {
        let e = Json::parse(text).unwrap_or_else(|err| panic!("event {i} `{text}`: {err}"));
        let ph = e.get("ph").and_then(Json::as_str);
        assert!(matches!(ph, Some("X" | "M")), "event {i}: ph {ph:?}");
        assert!(e.get("pid").and_then(num).is_some(), "event {i}: pid");
        assert!(e.get("tid").and_then(num).is_some(), "event {i}: tid");
        let name = e.get("name").and_then(Json::as_str);
        assert!(name.is_some(), "event {i}: name");
        if ph == Some("X") {
            spans += 1;
            for key in ["ts", "dur"] {
                let v = e.get(key).and_then(num);
                assert!(v.is_some_and(|v| v >= 0.0), "event {i}: {key} {v:?}");
            }
        } else if name == Some("process_name") {
            process_names += 1;
        }
    }
    assert!(spans > 0, "trace has no X spans");
    assert!(process_names > 0, "trace has no process_name record");
}

#[test]
fn trace_out_writes_a_valid_chrome_trace() {
    // `--trace-out` itself exits nonzero if a recording's replay
    // diverges from its live report.
    let dir = run_tables("tables-trace-out", &["--trace-out", "trace.json"]);
    let path = dir.join("trace.json");
    check_trace_schema(&std::fs::read_to_string(&path).expect("read trace.json"));
    let _ = std::fs::remove_dir_all(&dir);
}

//! The HTTP observability sidecar end to end: `/metrics` Prometheus
//! exposition, `/healthz` in both states, `/varz`, 404s, and the flight
//! recorder's Chrome-trace dump.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use javaflow_server::json::Json;
use javaflow_server::protocol::{read_frame, write_frame};
use javaflow_server::{Server, ServerConfig};

fn connect(server: &Server) -> TcpStream {
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    conn
}

fn send(conn: &mut TcpStream, json: &str) {
    write_frame(conn, json.as_bytes()).expect("send");
}

fn recv(conn: &mut TcpStream) -> String {
    read_frame(conn, usize::MAX)
        .expect("recv")
        .map(|f| String::from_utf8(f).expect("utf-8"))
        .expect("frame")
}

/// One `GET` against the sidecar; returns (status code, body).
fn http_get(server: &Server, path: &str) -> (u16, String) {
    let addr = server.metrics_addr().expect("metrics addr");
    let mut s = TcpStream::connect(addr).expect("http connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("http read");
    let status: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {resp}"));
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn observed_server() -> Server {
    Server::start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        batch_records: 1,
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("start")
}

fn run_sweep(server: &Server, id: u64, synthetic: u32) {
    let mut conn = connect(server);
    send(&mut conn, &format!("{{\"kind\": \"sweep\", \"id\": {id}, \"synthetic\": {synthetic}}}"));
    loop {
        let frame = recv(&mut conn);
        if frame.starts_with("{\"type\": \"done\"") {
            break;
        }
    }
}

#[test]
fn metrics_page_exposes_all_three_metric_families() {
    let server = observed_server();
    run_sweep(&server, 1, 4);

    // The span folds in just after the done frame is written — poll
    // until the phase histograms show it.
    let (mut status, mut page) = http_get(&server, "/metrics");
    for _ in 0..200 {
        if page.contains("javaflow_server_phase_execute_us_count 1") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        (status, page) = http_get(&server, "/metrics");
    }
    assert_eq!(status, 200);
    // Server counters and gauges.
    assert!(page.contains("# TYPE javaflow_server_accepted_total counter"), "{page}");
    assert!(page.contains("javaflow_server_accepted_total 1"), "{page}");
    assert!(page.contains("javaflow_server_completed_total 1"), "{page}");
    assert!(page.contains("javaflow_server_draining 0"), "{page}");
    // Per-phase histograms with cumulative buckets.
    assert!(page.contains("# TYPE javaflow_server_phase_execute_us histogram"), "{page}");
    assert!(page.contains("javaflow_server_phase_execute_us_bucket{le=\"+Inf\"} 1"), "{page}");
    assert!(page.contains("javaflow_server_phase_execute_us_count 1"), "{page}");
    // Per-key sweep counters with the full label set.
    assert!(
        page.contains("javaflow_server_sweeps_by_key_total{synthetic=\"4\",max_mesh_cycles=\""),
        "{page}"
    );
    // Flight-recorder gauges.
    assert!(page.contains("javaflow_server_flight_entries"), "{page}");
    // The simulator's Table 30 registry.
    assert!(page.contains("javaflow_sim_"), "{page}");

    // A second identical sweep bumps the per-key counter.
    run_sweep(&server, 2, 4);
    let (_, page) = http_get(&server, "/metrics");
    let line = page
        .lines()
        .find(|l| l.starts_with("javaflow_server_sweeps_by_key_total{synthetic=\"4\""))
        .expect("per-key line");
    assert!(line.ends_with(" 2"), "{line}");

    // Query strings are ignored, unknown paths are 404, non-GET is 405.
    assert_eq!(http_get(&server, "/metrics?x=1").0, 200);
    assert_eq!(http_get(&server, "/nope").0, 404);

    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn varz_serves_the_metrics_frame_as_json() {
    let server = observed_server();
    run_sweep(&server, 1, 4);
    let (status, body) = http_get(&server, "/varz");
    assert_eq!(status, 200);
    let j = Json::parse(&body).expect("varz is json");
    assert_eq!(j.get("type").and_then(Json::as_str), Some("metrics"));
    let accepted = j.get("server").and_then(|s| s.get("accepted")).and_then(Json::as_u64);
    assert_eq!(accepted, Some(1));
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn healthz_flips_to_draining_mid_drain() {
    let server = observed_server();
    let (status, body) = http_get(&server, "/healthz");
    assert_eq!((status, body.trim()), (200, "ok"));

    // Occupy the sweeper so the drain stays in progress while we probe.
    let mut conn = connect(&server);
    send(
        &mut conn,
        "{\"kind\": \"sweep\", \"id\": 5, \"synthetic\": 32, \"max_mesh_cycles\": 150000}",
    );
    assert!(recv(&mut conn).starts_with("{\"type\": \"accepted\""));
    assert!(recv(&mut conn).starts_with("{\"type\": \"batch\""));
    server.request_shutdown();
    let (status, body) = http_get(&server, "/healthz");
    assert_eq!((status, body.trim()), (503, "draining"));

    loop {
        let frame = recv(&mut conn);
        if frame.starts_with("{\"type\": \"done\"") {
            break;
        }
    }
    server.join().expect("join");
}

#[test]
fn flight_dump_is_valid_chrome_trace_json() {
    let server = observed_server();
    run_sweep(&server, 7, 4);
    // A failing request lands in the ring too.
    let mut conn = connect(&server);
    send(&mut conn, "not json at all");
    assert!(recv(&mut conn).contains("\"code\": 400"));

    // Spans land in the ring just after the terminal frame is written,
    // so give the server threads a moment to finish both records.
    let mut dump = server.flight_chrome_json();
    for _ in 0..200 {
        if dump.contains("sweep s4") && dump.contains("\"phase: execute\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        dump = server.flight_chrome_json();
    }
    assert!(dump.starts_with("{\"traceEvents\":["), "{dump}");
    Json::parse(&dump).expect("dump parses as JSON");
    assert!(dump.contains("javaflow-serve"), "{dump}");
    assert!(
        dump.contains("#7 sweep s4 \\u2192 200") || dump.contains("#7 sweep s4 → 200"),
        "{dump}"
    );
    assert!(dump.contains("\"phase: execute\""), "{dump}");

    // And the file form SIGUSR1 uses.
    let path = std::env::temp_dir().join(format!("javaflow-flight-{}.json", std::process::id()));
    server.dump_flight(&path).expect("dump to file");
    let on_disk = std::fs::read_to_string(&path).expect("read dump");
    assert_eq!(on_disk, server.flight_chrome_json());
    let _ = std::fs::remove_file(&path);

    server.request_shutdown();
    server.join().expect("join");
}

/// Every object key path of a JSON document, in document order
/// (`server.latency.p50_us`); array elements add `[]` to the path.
fn json_key_paths(json: &str) -> Vec<String> {
    struct Walk<'a> {
        b: &'a [u8],
        i: usize,
        paths: Vec<String>,
    }
    impl Walk<'_> {
        fn ws(&mut self) {
            while self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn string(&mut self) -> String {
            self.i += 1;
            let start = self.i;
            while self.b[self.i] != b'"' {
                self.i += if self.b[self.i] == b'\\' { 2 } else { 1 };
            }
            self.i += 1;
            String::from_utf8_lossy(&self.b[start..self.i - 1]).into_owned()
        }
        fn value(&mut self, path: &str) {
            self.ws();
            match self.b[self.i] {
                open @ (b'{' | b'[') => {
                    let close = if open == b'{' { b'}' } else { b']' };
                    self.i += 1;
                    loop {
                        self.ws();
                        if self.b[self.i] == close {
                            self.i += 1;
                            return;
                        }
                        if open == b'{' {
                            let key = self.string();
                            let p = if path.is_empty() { key } else { format!("{path}.{key}") };
                            self.paths.push(p.clone());
                            self.ws();
                            assert_eq!(self.b[self.i], b':', "malformed JSON at byte {}", self.i);
                            self.i += 1;
                            self.value(&p);
                        } else {
                            self.value(&format!("{path}[]"));
                        }
                        self.ws();
                        if self.b[self.i] == b',' {
                            self.i += 1;
                        }
                    }
                }
                b'"' => {
                    self.string();
                }
                _ => {
                    while !matches!(self.b[self.i], b',' | b'}' | b']') {
                        self.i += 1;
                    }
                }
            }
        }
    }
    let mut w = Walk { b: json.as_bytes(), i: 0, paths: Vec::new() };
    w.value("");
    w.paths
}

/// The shape of a Prometheus page: every comment line (`# HELP`,
/// `# TYPE`) verbatim and every series as name plus labels, value
/// dropped. Finite histogram buckets are dropped too — which `le`
/// bounds appear depends on measured durations — but `le="+Inf"` stays.
fn prometheus_inventory(page: &str) -> Vec<String> {
    page.lines()
        .filter_map(|l| {
            if l.starts_with('#') {
                return Some(l.to_string());
            }
            let series = l.rsplit_once(' ').map_or(l, |(s, _)| s);
            let finite_bucket = series.contains("_bucket{le=\"") && !series.ends_with("\"+Inf\"}");
            (!finite_bucket).then(|| series.to_string())
        })
        .collect()
}

/// Fails with both inventories written out in full when they differ.
fn assert_inventory(what: &str, got: &[String], want: &str) {
    let want: Vec<&str> = want.lines().collect();
    if got.iter().map(String::as_str).ne(want.iter().copied()) {
        let first = got.iter().zip(&want).position(|(g, w)| g != w);
        panic!(
            "{what} inventory changed (first difference at line {first:?}; {} lines, want {}):\n{}",
            got.len(),
            want.len(),
            got.join("\n")
        );
    }
}

/// Pins the exposition's shape: after a fixed request history — one
/// sweep, the same key twice more (the second sweep is admitted to the
/// result cache, the third request hits it) and one malformed frame —
/// the `/metrics` page's ordered `# TYPE`/`# HELP` lines and series
/// (name and labels) and the metrics frame's ordered JSON key paths
/// match the goldens. Values are not compared. The page must also pass
/// `tools/check_prometheus.sh`.
#[test]
fn exposition_inventory_is_pinned() {
    let server = observed_server();
    for id in 1..=3 {
        run_sweep(&server, id, 2);
    }
    let mut conn = connect(&server);
    send(&mut conn, "not json at all");
    assert!(recv(&mut conn).contains("\"code\": 400"));

    let (status, page) = http_get(&server, "/metrics");
    assert_eq!(status, 200);
    assert!(page.contains("javaflow_result_cache_hits_total 1"), "{page}");
    assert!(page.contains("javaflow_server_bad_requests_total 1"), "{page}");
    assert_inventory(
        "/metrics",
        &prometheus_inventory(&page),
        include_str!("goldens/metrics_page.txt"),
    );

    let check = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tools/check_prometheus.sh");
    let mut child = std::process::Command::new("bash")
        .arg(check)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn bash");
    child.stdin.take().expect("stdin").write_all(page.as_bytes()).expect("pipe page");
    let out = child.wait_with_output().expect("check_prometheus");
    assert!(
        out.status.success(),
        "check_prometheus.sh rejected the page:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    send(&mut conn, "{\"kind\": \"metrics\", \"id\": 9}");
    let frame = recv(&mut conn);
    let (_, varz) = http_get(&server, "/varz");
    for body in [&frame, &varz] {
        Json::parse(body).expect("metrics frame is json");
        assert_inventory(
            "metrics frame",
            &json_key_paths(body),
            include_str!("goldens/metrics_frame_keys.txt"),
        );
    }

    server.request_shutdown();
    server.join().expect("join");
}

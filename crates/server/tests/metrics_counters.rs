//! Deterministic outcome accounting: every induced terminal outcome
//! (2xx / 400 / 429 / 503 / 504) increments exactly one counter exactly
//! once, and the per-phase histograms count exactly the requests that
//! reached each phase.

use std::io::Write as _;
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

fn counter(server: &Json, name: &str) -> u64 {
    server.get(name).and_then(Json::as_u64).unwrap_or_else(|| panic!("counter {name}"))
}

fn phase_count(server: &Json, phase: &str) -> u64 {
    server
        .get("phases")
        .and_then(|p| p.get(phase))
        .and_then(|p| p.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("phase {phase}"))
}

#[test]
fn every_outcome_increments_its_counter_exactly_once() {
    // queue_cap 1 so a single queued job saturates admission; one record
    // per batch so the long sweep streams steadily while we race it.
    let server = Server::start(ServerConfig {
        queue_cap: 1,
        batch_records: 1,
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("start");

    // 400: an unparseable frame.
    let mut conn_bad = connect(&server);
    send(&mut conn_bad, "this is not json");
    assert!(recv(&mut conn_bad).contains("\"code\": 400"));

    // S1, the long sweep that occupies the sweeper. Reading its first
    // batch proves the sweeper has popped it (the queue is empty again).
    let mut conn1 = connect(&server);
    send(
        &mut conn1,
        "{\"kind\": \"sweep\", \"id\": 1, \"synthetic\": 32, \"max_mesh_cycles\": 150000}",
    );
    assert!(recv(&mut conn1).starts_with("{\"type\": \"accepted\""));
    assert!(recv(&mut conn1).starts_with("{\"type\": \"batch\""));

    // S2 queues behind S1 with an already-hopeless deadline → 504 when
    // the sweeper eventually picks it up.
    let mut conn2 = connect(&server);
    send(&mut conn2, "{\"kind\": \"sweep\", \"id\": 2, \"synthetic\": 4, \"deadline_ms\": 1}");
    assert!(recv(&mut conn2).starts_with("{\"type\": \"accepted\""));

    // S3 finds the queue full → 429.
    let mut conn3 = connect(&server);
    send(&mut conn3, "{\"kind\": \"sweep\", \"id\": 3, \"synthetic\": 4}");
    assert!(recv(&mut conn3).contains("\"code\": 429"), "queue of 1 must be full");

    // Drain S1 to done (200), then S2's pre-start 504.
    loop {
        let frame = recv(&mut conn1);
        if frame.starts_with("{\"type\": \"done\"") {
            break;
        }
        assert!(frame.starts_with("{\"type\": \"batch\""), "{frame}");
    }
    assert!(recv(&mut conn2).contains("\"code\": 504"), "expired deadline must 504");

    // Drain-mode 503: request shutdown, then try to sweep.
    send(&mut conn3, "{\"kind\": \"shutdown\", \"id\": 9}");
    assert!(recv(&mut conn3).starts_with("{\"type\": \"shutdown_ack\""));
    send(&mut conn3, "{\"kind\": \"sweep\", \"id\": 4, \"synthetic\": 4}");
    assert!(recv(&mut conn3).contains("\"code\": 503"));

    // The ledger. Six spans have finished: 400, 200, 429, 504, the
    // shutdown ack, and the 503. The sweeper folds the 200 and 504 in
    // just after writing their terminal frames, so poll until both have
    // landed. Each probe's own span (kind `metrics`) finishes before the
    // reader handles the next request on this connection, so at probe k
    // the expected read count is 6 + (k - 1).
    let mut metrics = Json::Null;
    let mut probes = 0u64;
    for _ in 0..200 {
        send(&mut conn3, "{\"kind\": \"metrics\", \"id\": 10}");
        metrics = Json::parse(&recv(&mut conn3)).expect("metrics json");
        probes += 1;
        let read = phase_count(metrics.get("server").expect("server block"), "read");
        if read >= 6 + (probes - 1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let server_half = metrics.get("server").expect("server block");
    let probe_spans = probes - 1;

    assert_eq!(counter(server_half, "accepted"), 2, "S1 and S2");
    assert_eq!(counter(server_half, "completed"), 1, "S1 only");
    assert_eq!(counter(server_half, "cancelled_deadline"), 1, "S2 only");
    assert_eq!(counter(server_half, "rejected_busy"), 1, "S3 only");
    assert_eq!(counter(server_half, "rejected_drain"), 1, "S4 only");
    assert_eq!(counter(server_half, "bad_requests"), 1);
    assert_eq!(counter(server_half, "disconnects"), 0);

    // Phase histograms: `read` and `parse` count every finished span;
    // `queue` the two admitted jobs; `prepare`/`execute`/`stream` only
    // the sweep that actually ran.
    assert_eq!(phase_count(server_half, "read"), 6 + probe_spans);
    assert_eq!(phase_count(server_half, "parse"), 6 + probe_spans);
    assert_eq!(phase_count(server_half, "queue"), 2);
    assert_eq!(phase_count(server_half, "prepare"), 1);
    assert_eq!(phase_count(server_half, "execute"), 1);
    assert_eq!(phase_count(server_half, "stream"), 1);

    drop(conn1);
    drop(conn2);
    server.join().expect("join");
}

#[test]
fn oversized_frames_finish_a_413_span() {
    let server =
        Server::start(ServerConfig { max_frame: 128, ..ServerConfig::default() }).expect("start");
    let mut conn = connect(&server);
    conn.write_all(&4096u32.to_be_bytes()).unwrap();
    conn.write_all(&[b'x'; 64]).unwrap();
    let frame = recv(&mut conn);
    assert!(frame.contains("\"code\": 413"), "{frame}");

    let mut conn2 = connect(&server);
    send(&mut conn2, "{\"kind\": \"metrics\", \"id\": 1}");
    let metrics = Json::parse(&recv(&mut conn2)).expect("metrics json");
    let server_half = metrics.get("server").expect("server block");
    assert_eq!(counter(server_half, "bad_requests"), 1);
    // The payload never arrived, so no phase was measured for the 413 —
    // the read histogram must not be polluted with a synthetic zero.
    assert_eq!(phase_count(server_half, "read"), 0);

    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn an_oversized_population_is_a_400_naming_the_cap() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let mut conn = connect(&server);
    send(&mut conn, "{\"kind\": \"sweep\", \"id\": 7, \"synthetic\": 5001}");
    let frame = recv(&mut conn);
    assert!(frame.contains("\"code\": 400") && frame.contains("cap of 5000"), "{frame}");

    send(&mut conn, "{\"kind\": \"metrics\", \"id\": 8}");
    let metrics = Json::parse(&recv(&mut conn)).expect("metrics json");
    let server_half = metrics.get("server").expect("server block");
    assert_eq!(counter(server_half, "bad_requests"), 1);
    assert_eq!(counter(server_half, "accepted"), 0);

    server.request_shutdown();
    server.join().expect("join");
}

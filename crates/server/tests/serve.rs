//! End-to-end server tests over real sockets: request/response identity,
//! unhappy-path handling (malformed, oversized, truncated), deadline
//! cancellation, and graceful drain.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use javaflow_core::{EvalConfig, Evaluation};
use javaflow_server::protocol::{
    batch_frame, done_frame, expected_batch_payloads, read_frame, write_frame, MAX_REQUEST_FRAME,
};
use javaflow_server::{Server, ServerConfig};

fn connect(server: &Server) -> TcpStream {
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    conn
}

fn send(conn: &mut TcpStream, json: &str) {
    write_frame(conn, json.as_bytes()).expect("send");
}

fn recv(conn: &mut TcpStream) -> Option<String> {
    read_frame(conn, usize::MAX).expect("recv").map(|f| String::from_utf8(f).expect("utf-8"))
}

#[test]
fn served_sweep_is_byte_identical_to_in_process() {
    let server =
        Server::start(ServerConfig { batch_records: 2, threads: 2, ..ServerConfig::default() })
            .expect("start");

    let cfg = EvalConfig {
        synthetic_count: 4,
        max_mesh_cycles: 150_000,
        threads: 2,
        ..EvalConfig::default()
    };
    let eval = Evaluation::run(&cfg);
    let batches = expected_batch_payloads(&eval, 2);

    let mut conn = connect(&server);
    send(
        &mut conn,
        "{\"kind\": \"sweep\", \"id\": 42, \"synthetic\": 4, \
         \"max_mesh_cycles\": 150000, \"tables\": [22, 30]}",
    );
    let first = recv(&mut conn).expect("accepted");
    assert!(first.starts_with("{\"type\": \"accepted\", \"id\": 42"), "{first}");
    for (seq, (lo, payload)) in batches.iter().enumerate() {
        let frame = recv(&mut conn).expect("batch");
        assert_eq!(frame, batch_frame(42, seq, *lo, payload), "batch {seq} diverged");
    }
    let done = recv(&mut conn).expect("done");
    assert_eq!(done, done_frame(42, &eval, false, &[22, 30]));

    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn malformed_requests_get_400_and_the_connection_survives() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let mut conn = connect(&server);
    for bad in [
        "this is not json",
        "{\"kind\": \"warp\", \"id\": 5}",
        "{\"id\": 5}",
        "{\"kind\": \"sweep\", \"id\": 5, \"net\": \"quantum\"}",
        "{\"kind\": \"sweep\", \"id\": 5, \"threads\": 9000}",
        "{\"kind\": \"sweep\", \"id\": 5, \"synthetic\": 1000000}",
    ] {
        send(&mut conn, bad);
        let frame = recv(&mut conn).expect("error frame");
        assert!(frame.contains("\"code\": 400"), "`{bad}` → {frame}");
    }
    // The connection is still perfectly usable.
    send(&mut conn, "{\"kind\": \"ping\", \"id\": 6}");
    assert_eq!(recv(&mut conn).unwrap(), "{\"type\": \"pong\", \"id\": 6}");
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn oversized_frames_get_413_then_the_connection_closes() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let mut conn = connect(&server);
    // The cap is checked on the length prefix, before any payload is read.
    let oversized = u32::try_from(MAX_REQUEST_FRAME + 1).unwrap();
    conn.write_all(&oversized.to_be_bytes()).unwrap();
    conn.write_all(b"{\"kind\": \"ping\"").unwrap();
    let frame = recv(&mut conn).expect("413 frame");
    assert!(frame.contains("\"code\": 413"), "{frame}");
    assert!(recv(&mut conn).is_none(), "connection must close after a 413");
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn truncated_frames_neither_hang_nor_crash_the_server() {
    let server = Server::start(ServerConfig::default()).expect("start");
    {
        // A length prefix promising 100 bytes, then a hangup.
        let mut conn = connect(&server);
        conn.write_all(&100u32.to_be_bytes()).unwrap();
        conn.write_all(b"only a little").unwrap();
    }
    {
        // A hangup mid-prefix.
        let mut conn = connect(&server);
        conn.write_all(&[0, 0]).unwrap();
    }
    // The server shrugged both off and still answers.
    let mut conn = connect(&server);
    send(&mut conn, "{\"kind\": \"ping\", \"id\": 9}");
    assert_eq!(recv(&mut conn).unwrap(), "{\"type\": \"pong\", \"id\": 9}");
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn deadlines_cancel_between_batches_with_504() {
    // One record per batch: the deadline is checked at every batch
    // boundary. The deadline is generous enough for the population to be
    // prepared and the first batches to stream, even in a debug build, and
    // far too short for the whole population, even in a release build: a
    // synthetic-1500 sweep pinned to one thread is seconds of simulation
    // however many cores the host has.
    let server =
        Server::start(ServerConfig { batch_records: 1, ..ServerConfig::default() }).expect("start");
    let mut conn = connect(&server);
    send(
        &mut conn,
        "{\"kind\": \"sweep\", \"id\": 7, \"synthetic\": 1500, \"threads\": 1, \"deadline_ms\": 1200}",
    );
    let first = recv(&mut conn).expect("accepted");
    assert!(first.starts_with("{\"type\": \"accepted\""), "{first}");
    let mut batches = 0usize;
    let code = loop {
        let frame = recv(&mut conn).expect("stream must end in a 504, not EOF");
        if frame.starts_with("{\"type\": \"batch\"") {
            batches += 1;
        } else if frame.starts_with("{\"type\": \"error\"") {
            break frame;
        } else {
            panic!("a deadlined sweep must never reach done: {frame}");
        }
    };
    assert!(code.contains("\"code\": 504"), "{code}");
    assert!(batches >= 1, "the sweep should stream at least one batch before expiring");

    // The cancelled sweep must not poison the server: a fresh small sweep
    // still runs to completion on the same connection.
    send(&mut conn, "{\"kind\": \"sweep\", \"id\": 8, \"synthetic\": 2}");
    loop {
        let frame = recv(&mut conn).expect("second sweep completes");
        if frame.starts_with("{\"type\": \"done\", \"id\": 8") {
            break;
        }
        assert!(
            frame.starts_with("{\"type\": \"accepted\"")
                || frame.starts_with("{\"type\": \"batch\""),
            "{frame}"
        );
    }
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn the_unix_socket_speaks_the_same_protocol() {
    let path =
        std::env::temp_dir().join(format!("javaflow-serve-test-{}.sock", std::process::id()));
    let server =
        Server::start(ServerConfig { uds_path: Some(path.clone()), ..ServerConfig::default() })
            .expect("start");
    let mut conn = std::os::unix::net::UnixStream::connect(&path).expect("uds connect");
    write_frame(&mut conn, b"{\"kind\": \"ping\", \"id\": 3}").unwrap();
    let frame = read_frame(&mut conn, 4096).unwrap().expect("pong");
    assert_eq!(std::str::from_utf8(&frame).unwrap(), "{\"type\": \"pong\", \"id\": 3}");
    server.request_shutdown();
    server.join().expect("join");
    assert!(!path.exists(), "join must remove the socket file");
}

#[test]
fn metrics_requests_render_counters_and_table30() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let mut conn = connect(&server);
    // One tiny sweep so the registry has something in it.
    send(&mut conn, "{\"kind\": \"sweep\", \"id\": 1, \"synthetic\": 2}");
    loop {
        let frame = recv(&mut conn).expect("sweep stream");
        if frame.starts_with("{\"type\": \"done\"") {
            break;
        }
    }
    send(&mut conn, "{\"kind\": \"metrics\", \"id\": 2}");
    let m = recv(&mut conn).expect("metrics");
    for key in [
        "\"type\": \"metrics\"",
        "\"accepted\": 1",
        "\"completed\": 1",
        "\"sweeps\": 1",
        "\"p99_us\"",
        "\"table30\"",
        "\"counters\"",
    ] {
        assert!(m.contains(key), "metrics response missing {key}: {m}");
    }
    server.request_shutdown();
    server.join().expect("join");
}

//! The result cache over real sockets: a repeated key streams the same
//! bytes as an in-process run, one-off keys are never stored, a hit runs
//! no simulation, a hit or a shorter admitting sweep never waits out a
//! running sweep, and a hit ends in `504` or client-gone exactly as a
//! sweep does. Plus the cache's own admission and eviction rules.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use javaflow_core::parallel::SweepStats;
use javaflow_core::{EvalConfig, Evaluation};
use javaflow_fabric::NetKind;
use javaflow_server::cache::ResultCache;
use javaflow_server::json::Json;
use javaflow_server::protocol::{
    batch_frame, done_frame, error_frame, expected_batch_payloads, read_frame, write_frame,
};
use javaflow_server::{Server, ServerConfig};

fn send(conn: &mut impl Write, json: &str) {
    write_frame(conn, json.as_bytes()).expect("send");
}

fn recv(conn: &mut impl Read) -> String {
    let frame = read_frame(conn, usize::MAX).expect("recv").expect("frame, not EOF");
    String::from_utf8(frame).expect("utf-8")
}

fn connect(server: &Server) -> TcpStream {
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    conn
}

/// Reads one sweep's frames after `accepted` up to and including `done`.
fn read_sweep(conn: &mut impl Read, id: u64) -> Vec<String> {
    let accepted = recv(conn);
    assert!(accepted.starts_with(&format!("{{\"type\": \"accepted\", \"id\": {id}")), "{accepted}");
    let mut frames = Vec::new();
    loop {
        let frame = recv(conn);
        let done = frame.starts_with("{\"type\": \"done\"");
        assert!(done || frame.starts_with("{\"type\": \"batch\""), "{frame}");
        frames.push(frame);
        if done {
            return frames;
        }
    }
}

fn sweep_json(id: u64, synthetic: usize, budget: u64, extra: &str) -> String {
    format!(
        "{{\"kind\": \"sweep\", \"id\": {id}, \"synthetic\": {synthetic}, \
         \"max_mesh_cycles\": {budget}{extra}}}"
    )
}

fn metrics(conn: &mut (impl Read + Write)) -> Json {
    send(conn, "{\"kind\": \"metrics\", \"id\": 0}");
    Json::parse(&recv(conn)).expect("metrics json")
}

fn num(j: &Json, block: &str, name: &str) -> u64 {
    j.get(block)
        .and_then(|b| b.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{block}.{name}"))
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("http connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn a_repeated_key_streams_cached_frames_identical_to_in_process() {
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
    // Sight one sweeps, sight two sweeps and stores, sight three is a hit.
    for id in 1..=3u64 {
        send(&mut conn, &sweep_json(id, 4, 150_000, ", \"tables\": [22, 30]"));
        let frames = read_sweep(&mut conn, id);
        assert_eq!(frames.len(), batches.len() + 1, "request {id}");
        for (seq, (lo, payload)) in batches.iter().enumerate() {
            assert_eq!(frames[seq], batch_frame(id, seq, *lo, payload), "request {id} batch {seq}");
        }
        assert_eq!(frames[batches.len()], done_frame(id, &eval, false, &[22, 30]), "request {id}");
    }
    let m = metrics(&mut conn);
    assert_eq!(num(&m, "result_cache", "misses"), 2);
    assert_eq!(num(&m, "result_cache", "hits"), 1);
    assert_eq!(num(&m, "result_cache", "entries"), 1);
    assert_eq!(num(&m, "result_cache", "samples"), eval.samples.len() as u64);
    assert_eq!(num(&m, "server", "sweeps"), 2, "a hit is not a sweep");
    assert_eq!(num(&m, "server", "completed"), 3);
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn one_off_keys_are_never_admitted() {
    let server = Server::start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..Default::default()
    })
    .expect("start");
    let mut conn = connect(&server);
    // Five keys, each swept once: remembered, never stored.
    for id in 1..=5u64 {
        send(&mut conn, &sweep_json(id, 2, 100_000 + id, ""));
        read_sweep(&mut conn, id);
    }
    let m = metrics(&mut conn);
    assert_eq!(num(&m, "result_cache", "misses"), 5);
    assert_eq!(num(&m, "result_cache", "hits"), 0);
    assert_eq!(num(&m, "result_cache", "entries"), 0);
    assert_eq!(num(&m, "result_cache", "samples"), 0);

    // A second sight of one of them stores it.
    send(&mut conn, &sweep_json(6, 2, 100_003, ""));
    read_sweep(&mut conn, 6);
    let page = http_get(server.metrics_addr().expect("sidecar"), "/metrics");
    for line in [
        "# TYPE javaflow_result_cache_hits_total counter\njavaflow_result_cache_hits_total 0\n",
        "# TYPE javaflow_result_cache_misses_total counter\njavaflow_result_cache_misses_total 6\n",
        "# TYPE javaflow_result_cache_entries gauge\njavaflow_result_cache_entries 1\n",
        "# TYPE javaflow_result_cache_samples gauge\n",
    ] {
        assert!(page.contains(line), "missing {line:?}: {page}");
    }
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn a_hit_runs_no_simulation() {
    let server = Server::start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..Default::default()
    })
    .expect("start");
    let http = server.metrics_addr().expect("sidecar");
    let mut conn = connect(&server);
    for id in 1..=2u64 {
        send(&mut conn, &sweep_json(id, 2, 150_000, ""));
        read_sweep(&mut conn, id);
    }
    let before = metrics(&mut conn);
    let page_before = http_get(http, "/metrics");
    send(&mut conn, &sweep_json(3, 2, 150_000, ""));
    read_sweep(&mut conn, 3);
    let after = metrics(&mut conn);
    let page_after = http_get(http, "/metrics");

    assert_eq!(num(&after, "result_cache", "hits"), num(&before, "result_cache", "hits") + 1);
    assert_eq!(num(&after, "server", "completed"), num(&before, "server", "completed") + 1);
    assert_eq!(num(&after, "server", "sweeps"), num(&before, "server", "sweeps"));
    // The simulation registry (Table 30 and its JSON) did not move.
    assert_eq!(after.get("metrics"), before.get("metrics"));
    assert_eq!(after.get("table30"), before.get("table30"));
    let sim_and_keys = |page: &str| -> Vec<String> {
        page.lines()
            .filter(|l| l.starts_with("javaflow_sim_") || l.contains("sweeps_by_key"))
            .map(str::to_string)
            .collect()
    };
    assert!(page_before.contains("javaflow_server_sweeps_by_key_total{"), "{page_before}");
    assert_eq!(sim_and_keys(&page_after), sim_and_keys(&page_before));
    server.request_shutdown();
    server.join().expect("join");
}

/// A hit queued behind a sweep is served between that sweep's batches:
/// its `done` arrives while the sweep is still streaming, with the same
/// bytes as an in-process run.
#[test]
fn a_hit_is_served_between_the_batches_of_a_running_sweep() {
    let server =
        Server::start(ServerConfig { batch_records: 1, threads: 1, ..ServerConfig::default() })
            .expect("start");
    let cfg = EvalConfig {
        synthetic_count: 2,
        max_mesh_cycles: 150_000,
        threads: 1,
        ..EvalConfig::default()
    };
    let eval = Evaluation::run(&cfg);
    let batches = expected_batch_payloads(&eval, 1);

    let mut conn = connect(&server);
    for id in 1..=2u64 {
        send(&mut conn, &sweep_json(id, 2, 150_000, ""));
        read_sweep(&mut conn, id);
    }
    // A sixteen-batch miss, then a hit right behind it.
    send(&mut conn, &sweep_json(3, 16, 150_001, BIG));
    send(&mut conn, &sweep_json(4, 2, 150_000, ""));
    let (mut long_batches_after_hit, mut hit_frames, mut hit_done) = (0, Vec::new(), false);
    loop {
        let frame = recv(&mut conn);
        if frame.starts_with("{\"type\": \"accepted\"") {
            continue;
        }
        if frame.contains("\"id\": 4,") {
            hit_done = frame.starts_with("{\"type\": \"done\"");
            hit_frames.push(frame);
        } else if frame.starts_with("{\"type\": \"done\", \"id\": 3,") {
            break;
        } else if hit_done {
            assert!(frame.starts_with("{\"type\": \"batch\", \"id\": 3,"), "{frame}");
            long_batches_after_hit += 1;
        }
    }
    assert!(hit_done, "the hit finished before the sweep it queued behind");
    assert!(long_batches_after_hit > 0, "the sweep streamed on after the hit");
    assert_eq!(hit_frames.len(), batches.len() + 1);
    for (seq, (lo, payload)) in batches.iter().enumerate() {
        assert_eq!(hit_frames[seq], batch_frame(4, seq, *lo, payload), "batch {seq}");
    }
    assert_eq!(hit_frames[batches.len()], done_frame(4, &eval, false, &[]));
    let m = metrics(&mut conn);
    assert_eq!(num(&m, "result_cache", "hits"), 1);
    assert_eq!(num(&m, "server", "sweeps"), 3);
    assert_eq!(num(&m, "server", "completed"), 4);
    server.request_shutdown();
    server.join().expect("join");
}

/// Reads frames until every id in `ids` has its `done`; returns the ids
/// in the order their `done` frames arrived.
fn done_order(conn: &mut impl Read, ids: &[u64]) -> Vec<u64> {
    let mut order = Vec::new();
    while order.len() < ids.len() {
        let frame = recv(conn);
        if let Some(&id) =
            ids.iter().find(|id| frame.starts_with(&format!("{{\"type\": \"done\", \"id\": {id},")))
        {
            order.push(id);
        } else {
            assert!(!frame.starts_with("{\"type\": \"error\""), "{frame}");
        }
    }
    order
}

/// A key due to be stored whose first sweep was short runs between the
/// batches of a long sweep queued ahead of it; a key seen for the first
/// time waits its turn.
#[test]
fn a_shorter_admitting_sweep_goes_ahead_of_a_long_one() {
    let server =
        Server::start(ServerConfig { batch_records: 1, threads: 1, ..ServerConfig::default() })
            .expect("start");
    let (short, long) = (sweep_json(0, 2, 150_000, ""), sweep_json(0, 16, 150_001, BIG));
    let with_id = |json: &str, id: u64| json.replacen("\"id\": 0", &format!("\"id\": {id}"), 1);
    let mut conn = connect(&server);
    // First sights: each key's sweep time is remembered.
    for (id, json) in [(1, &short), (2, &long)] {
        send(&mut conn, &with_id(json, id));
        read_sweep(&mut conn, id);
    }
    // Second sights, the long one first: the short one finishes first.
    send(&mut conn, &with_id(&long, 3));
    send(&mut conn, &with_id(&short, 4));
    assert_eq!(done_order(&mut conn, &[3, 4]), [4, 3]);
    // Both are stored now; the short one's admitting sweep ran nested.
    send(&mut conn, &with_id(&short, 5));
    read_sweep(&mut conn, 5);
    let m = metrics(&mut conn);
    assert_eq!(num(&m, "server", "sweeps"), 4);
    assert_eq!(num(&m, "result_cache", "hits"), 1);
    assert_eq!(num(&m, "result_cache", "entries"), 2);

    // First sights never go ahead.
    send(&mut conn, &sweep_json(6, 16, 150_002, BIG));
    send(&mut conn, &sweep_json(7, 2, 150_003, ""));
    assert_eq!(done_order(&mut conn, &[6, 7]), [6, 7]);
    server.request_shutdown();
    server.join().expect("join");
}

/// A server on a Unix socket, whose small fixed send buffer makes a
/// client that stops reading block the sweeper mid-stream. The key's
/// response (contended link reports, one record per batch, ~3.8 MB) is
/// many times larger than that buffer (~208 KiB by default on Linux).
struct Blocking {
    server: Server,
    path: PathBuf,
}

const BIG: &str = ", \"net\": \"contended\"";

impl Blocking {
    fn start(tag: &str) -> Blocking {
        let path =
            std::env::temp_dir().join(format!("javaflow-cache-{tag}-{}.sock", std::process::id()));
        let server = Server::start(ServerConfig {
            uds_path: Some(path.clone()),
            batch_records: 1,
            ..ServerConfig::default()
        })
        .expect("start");
        Blocking { server, path }
    }

    fn connect(&self) -> UnixStream {
        let conn = UnixStream::connect(&self.path).expect("uds connect");
        conn.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        conn
    }

    /// Sweeps `budget` twice so the key is stored.
    fn admit(&self, budget: u64) {
        let mut conn = self.connect();
        for id in [101, 102] {
            send(&mut conn, &sweep_json(id, 2, budget, BIG));
            read_sweep(&mut conn, id);
        }
    }

    fn stop(self) -> Json {
        let m = metrics(&mut self.connect());
        self.server.request_shutdown();
        self.server.join().expect("join");
        m
    }
}

/// Requests `budget` with a deadline, stops reading past it, then reads
/// on. Returns the number of batches and the terminal frame.
fn stall_past_deadline(b: &Blocking, id: u64, budget: u64) -> (usize, String) {
    let mut conn = b.connect();
    send(&mut conn, &sweep_json(id, 2, budget, &format!("{BIG}, \"deadline_ms\": 300")));
    assert!(recv(&mut conn).starts_with("{\"type\": \"accepted\""));
    std::thread::sleep(Duration::from_millis(900));
    let mut batches = 0;
    loop {
        let frame = recv(&mut conn);
        if !frame.starts_with("{\"type\": \"batch\"") {
            return (batches, frame);
        }
        batches += 1;
    }
}

#[test]
fn a_deadline_during_a_hit_is_a_504_as_during_a_sweep() {
    let b = Blocking::start("deadline");
    b.admit(150_000);
    let (hit_batches, hit_end) = stall_past_deadline(&b, 1, 150_000);
    // A key seen for the first time sweeps.
    let (miss_batches, miss_end) = stall_past_deadline(&b, 2, 150_001);
    assert_eq!(hit_end, error_frame(1, 504, "deadline exceeded mid-sweep"));
    assert_eq!(miss_end, error_frame(2, 504, "deadline exceeded mid-sweep"));
    assert!(hit_batches >= 1 && miss_batches >= 1, "{hit_batches} / {miss_batches}");
    let m = b.stop();
    assert_eq!(num(&m, "result_cache", "hits"), 1);
    assert_eq!(num(&m, "server", "cancelled_deadline"), 2);
    assert_eq!(num(&m, "server", "completed"), 2, "only the admitting sweeps");
}

#[test]
fn a_disconnect_during_a_hit_is_client_gone_as_during_a_sweep() {
    let b = Blocking::start("gone");
    b.admit(150_000);
    for (id, budget) in [(1, 150_000), (2, 150_001)] {
        let mut conn = b.connect();
        send(&mut conn, &sweep_json(id, 2, budget, BIG));
        assert!(recv(&mut conn).starts_with("{\"type\": \"accepted\""));
        assert!(recv(&mut conn).starts_with("{\"type\": \"batch\""));
        drop(conn);
    }
    // Queued behind both abandoned requests, so the sweeper has dealt
    // with them by the time this one is done; the entry survived.
    let mut conn = b.connect();
    send(&mut conn, &sweep_json(3, 2, 150_000, BIG));
    read_sweep(&mut conn, 3);
    drop(conn);
    let m = b.stop();
    assert_eq!(num(&m, "result_cache", "hits"), 2);
    assert_eq!(num(&m, "server", "disconnects"), 2, "the hit and the sweep");
    assert_eq!(num(&m, "server", "completed"), 3, "the two admitting sweeps and the last hit");
}

fn empty_eval() -> Arc<Evaluation> {
    Arc::new(Evaluation::assemble(Vec::new(), Vec::new(), Vec::new(), SweepStats::default()))
}

fn small_eval() -> Arc<Evaluation> {
    Arc::new(Evaluation::run(&EvalConfig {
        synthetic_count: 0,
        net: NetKind::Ideal,
        threads: 1,
        ..EvalConfig::default()
    }))
}

/// Offers `key` twice, so it is admitted if it fits.
fn admit(cache: &mut ResultCache<u32>, key: u32, eval: &Arc<Evaluation>) -> bool {
    assert!(!cache.offer(key, eval), "a first sight is never stored");
    cache.offer(key, eval)
}

#[test]
fn the_cache_evicts_least_recently_used_at_its_entry_bound() {
    let eval = empty_eval();
    let mut cache = ResultCache::new(2, usize::MAX);
    assert!(admit(&mut cache, 1, &eval));
    assert!(admit(&mut cache, 2, &eval));
    assert!(cache.get(&1).is_some(), "1 is now the most recently used");
    assert!(admit(&mut cache, 3, &eval));
    assert_eq!(cache.len(), 2);
    assert!(cache.get(&2).is_none(), "2 was least recently used");
    assert!(cache.get(&1).is_some() && cache.get(&3).is_some());
    assert_eq!((cache.hits(), cache.misses()), (3, 1));
}

#[test]
fn the_cache_evicts_to_its_sample_bound_and_never_stores_an_oversized_sweep() {
    let eval = small_eval();
    let n = eval.samples.len();
    assert!(n > 0);
    let mut cache = ResultCache::new(8, 2 * n);
    assert!(admit(&mut cache, 1, &eval));
    assert!(admit(&mut cache, 2, &eval));
    assert_eq!(cache.samples(), 2 * n);
    assert!(admit(&mut cache, 3, &eval));
    assert_eq!((cache.len(), cache.samples()), (2, 2 * n));
    assert!(cache.get(&1).is_none(), "the oldest entry made room");

    let mut tight = ResultCache::new(8, n - 1);
    assert!(!admit(&mut tight, 1, &eval), "larger than the whole budget");
    assert!(tight.is_empty());
}

#[test]
fn admission_forgets_keys_that_fall_out_of_the_recent_ring() {
    let eval = empty_eval();
    let mut cache = ResultCache::new(4, usize::MAX);
    assert!(!cache.offer(0, &eval));
    // Enough one-off keys to push key 0 out of the ring.
    for key in 1..=javaflow_server::cache::SEEN_KEYS as u32 {
        assert!(!cache.offer(key, &eval));
    }
    assert!(!cache.offer(0, &eval), "key 0 was forgotten, so this is a first sight again");
    assert!(cache.offer(0, &eval));
    assert_eq!(cache.len(), 1);
}

/// `"compiled"` is accepted and ignored: requests that differ only in it
/// share one `SweepKey`, so the third of them is a cache hit, every one
/// streams the in-process bytes, and a non-bool is still a `400`.
#[test]
fn compiled_true_and_false_share_one_key() {
    let server = Server::start(ServerConfig {
        batch_records: 2,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .expect("start");
    let cfg = EvalConfig {
        synthetic_count: 2,
        max_mesh_cycles: 150_000,
        threads: 1,
        ..EvalConfig::default()
    };
    let eval = Evaluation::run(&cfg);
    let batches = expected_batch_payloads(&eval, 2);

    let mut conn = connect(&server);
    for (id, compiled) in [(1u64, "true"), (2, "false"), (3, "true")] {
        let extra = format!(", \"compiled\": {compiled}, \"tables\": [22]");
        send(&mut conn, &sweep_json(id, 2, 150_000, &extra));
        let frames = read_sweep(&mut conn, id);
        assert_eq!(frames.len(), batches.len() + 1, "request {id}");
        for (seq, (lo, payload)) in batches.iter().enumerate() {
            assert_eq!(frames[seq], batch_frame(id, seq, *lo, payload), "request {id} batch {seq}");
        }
        assert_eq!(frames[batches.len()], done_frame(id, &eval, false, &[22]), "request {id}");
    }
    let m = metrics(&mut conn);
    assert_eq!(num(&m, "result_cache", "misses"), 2);
    assert_eq!(num(&m, "result_cache", "hits"), 1, "the second sight admitted the shared key");
    assert_eq!(num(&m, "result_cache", "entries"), 1);
    assert_eq!(num(&m, "server", "sweeps"), 2);

    let page = http_get(server.metrics_addr().expect("sidecar"), "/metrics");
    let keys: Vec<&str> =
        page.lines().filter(|l| l.starts_with("javaflow_server_sweeps_by_key_total{")).collect();
    assert_eq!(
        keys,
        ["javaflow_server_sweeps_by_key_total{synthetic=\"2\",max_mesh_cycles=\"150000\",net=\"ideal\"} 2"],
        "{page}"
    );

    send(&mut conn, &sweep_json(9, 2, 150_000, ", \"compiled\": \"yes\""));
    assert_eq!(recv(&mut conn), error_frame(9, 400, "`compiled` must be a bool"));
    server.request_shutdown();
    server.join().expect("join");
}

/// `"fast_forward"` is accepted and ignored, exactly like `"compiled"`:
/// every sweep runs the one token walk, so requests that differ only in
/// it share one `SweepKey` — one `sweeps_by_key` series, the third
/// request a cache hit — and a non-bool is still a `400`.
#[test]
fn fast_forward_true_and_false_share_one_key() {
    let server = Server::start(ServerConfig {
        batch_records: 2,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .expect("start");
    let cfg = EvalConfig {
        synthetic_count: 2,
        max_mesh_cycles: 150_000,
        threads: 1,
        ..EvalConfig::default()
    };
    let eval = Evaluation::run(&cfg);
    let batches = expected_batch_payloads(&eval, 2);

    let mut conn = connect(&server);
    for (id, fast_forward) in [(1u64, "true"), (2, "false"), (3, "true")] {
        let extra = format!(", \"fast_forward\": {fast_forward}, \"tables\": [22]");
        send(&mut conn, &sweep_json(id, 2, 150_000, &extra));
        let frames = read_sweep(&mut conn, id);
        assert_eq!(frames.len(), batches.len() + 1, "request {id}");
        for (seq, (lo, payload)) in batches.iter().enumerate() {
            assert_eq!(frames[seq], batch_frame(id, seq, *lo, payload), "request {id} batch {seq}");
        }
        assert_eq!(frames[batches.len()], done_frame(id, &eval, false, &[22]), "request {id}");
    }
    let m = metrics(&mut conn);
    assert_eq!(num(&m, "result_cache", "misses"), 2);
    assert_eq!(num(&m, "result_cache", "hits"), 1, "the second sight admitted the shared key");
    assert_eq!(num(&m, "result_cache", "entries"), 1);
    assert_eq!(num(&m, "server", "sweeps"), 2);

    let page = http_get(server.metrics_addr().expect("sidecar"), "/metrics");
    let keys: Vec<&str> =
        page.lines().filter(|l| l.starts_with("javaflow_server_sweeps_by_key_total{")).collect();
    assert_eq!(
        keys,
        ["javaflow_server_sweeps_by_key_total{synthetic=\"2\",max_mesh_cycles=\"150000\",net=\"ideal\"} 2"],
        "{page}"
    );

    send(&mut conn, &sweep_json(9, 2, 150_000, ", \"fast_forward\": \"yes\""));
    assert_eq!(recv(&mut conn), error_frame(9, 400, "`fast_forward` must be a bool"));
    server.request_shutdown();
    server.join().expect("join");
}

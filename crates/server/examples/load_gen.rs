//! load_gen — hammer a `javaflow-serve` instance with concurrent
//! mixed-config sweeps and assert every streamed frame is byte-identical
//! to a direct in-process `Evaluation::run`.
//!
//! Default mode starts a server in-process on an ephemeral port, runs the
//! full gauntlet (identity under concurrency, deterministic `429`
//! saturation, graceful `503` drain), prints a machine-parsable summary
//! line, and exits nonzero on any mismatch. Against an external server
//! (CI's serve-smoke):
//!
//! ```text
//! load_gen --addr 127.0.0.1:PORT [--concurrency N] [--requests N]
//!          [--synthetic N] [--batch-records N]   # must match the server
//! load_gen --addr ... --metrics                  # scrape and print metrics
//! load_gen --addr ... --shutdown                 # ask the server to drain
//! ```

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use javaflow_core::{EvalConfig, Evaluation};
use javaflow_fabric::NetKind;
use javaflow_server::protocol::{
    batch_frame, done_frame, expected_batch_payloads, read_frame, write_frame,
};
use javaflow_server::{Server, ServerConfig};

/// One request shape in the mix. `net`/`max_mesh_cycles` vary so
/// coalescing has distinct keys to keep apart; `tables` varies within a
/// key, since coalesced subscribers each get their own `done` frame.
#[derive(Clone)]
struct Variant {
    synthetic: usize,
    max_mesh_cycles: u64,
    net: NetKind,
    tables: Vec<u32>,
}

impl Variant {
    fn request_json(&self, id: u64, deadline_ms: u64) -> String {
        let tables = self.tables.iter().map(u32::to_string).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"kind\": \"sweep\", \"id\": {id}, \"synthetic\": {}, \
             \"max_mesh_cycles\": {}, \"net\": \"{}\", \
             \"tables\": [{tables}], \"deadline_ms\": {deadline_ms}}}",
            self.synthetic,
            self.max_mesh_cycles,
            if self.net == NetKind::Contended { "contended" } else { "ideal" },
        )
    }

    fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            synthetic_count: self.synthetic,
            max_mesh_cycles: self.max_mesh_cycles,
            net: self.net,
            ..EvalConfig::default()
        }
    }
}

/// The expected response stream for one variant, precomputed once from a
/// direct in-process evaluation through the same renderers the server
/// uses. Identity is then plain string equality per frame.
struct Expected {
    batches: Vec<(usize, String)>,
    eval: Evaluation,
    tables: Vec<u32>,
}

impl Expected {
    fn build(v: &Variant, batch_records: usize) -> Expected {
        let eval = Evaluation::run(&v.eval_config());
        let batches = expected_batch_payloads(&eval, batch_records);
        Expected { batches, eval, tables: v.tables.clone() }
    }
}

#[derive(Default)]
struct Tally {
    completed: u64,
    mismatches: u64,
    retries_429: u64,
    coalesced_done: u64,
    bug_errors: u64,
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        self.completed += other.completed;
        self.mismatches += other.mismatches;
        self.retries_429 += other.retries_429;
        self.coalesced_done += other.coalesced_done;
        self.bug_errors += other.bug_errors;
    }
}

fn send_json(conn: &mut TcpStream, json: &str) {
    write_frame(conn, json.as_bytes()).expect("request write");
}

fn recv_text(conn: &mut TcpStream) -> Option<String> {
    let frame = read_frame(conn, usize::MAX).ok()??;
    Some(String::from_utf8(frame).expect("responses are UTF-8"))
}

/// Crude field extraction — responses are exact strings this binary also
/// verifies wholesale, so a substring probe is enough for routing.
fn field_u64(frame: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\": ");
    let at = frame.find(&pat)? + pat.len();
    let digits: String = frame[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn frame_type(frame: &str) -> &'static str {
    for t in ["accepted", "batch", "done", "error", "pong", "metrics", "shutdown_ack"] {
        if frame.starts_with(&format!("{{\"type\": \"{t}\"")) {
            return t;
        }
    }
    "unknown"
}

/// Runs one sweep request to completion, verifying every frame against
/// the expectation. Retries on `429` with backoff.
fn run_one(addr: &str, v: &Variant, exp: &Expected, id: u64, tally: &mut Tally) {
    let mut attempt = 0u32;
    'retry: loop {
        let mut conn = TcpStream::connect(addr).expect("connect");
        send_json(&mut conn, &v.request_json(id, 0));
        let mut next_batch = 0usize;
        loop {
            let Some(frame) = recv_text(&mut conn) else {
                eprintln!("load_gen: connection closed mid-stream (id {id})");
                tally.bug_errors += 1;
                return;
            };
            match frame_type(&frame) {
                "accepted" => {}
                "batch" => {
                    let (first, payload) = &exp.batches[next_batch];
                    let want = batch_frame(id, next_batch, *first, payload);
                    if frame != want {
                        tally.mismatches += 1;
                        eprintln!(
                            "load_gen: batch mismatch id {id} seq {next_batch}\n  got  {}\n  want {}",
                            &frame[..frame.len().min(200)],
                            &want[..want.len().min(200)],
                        );
                    }
                    next_batch += 1;
                }
                "done" => {
                    let solo = done_frame(id, &exp.eval, false, &exp.tables);
                    let shared = done_frame(id, &exp.eval, true, &exp.tables);
                    if frame == shared {
                        tally.coalesced_done += 1;
                    } else if frame != solo {
                        tally.mismatches += 1;
                        eprintln!("load_gen: done mismatch id {id}");
                    }
                    if next_batch != exp.batches.len() {
                        tally.mismatches += 1;
                        eprintln!(
                            "load_gen: id {id} saw {next_batch}/{} batches",
                            exp.batches.len()
                        );
                    }
                    tally.completed += 1;
                    return;
                }
                "error" => match field_u64(&frame, "code") {
                    Some(429) => {
                        tally.retries_429 += 1;
                        attempt += 1;
                        if attempt > 50 {
                            eprintln!("load_gen: id {id} starved by 429s");
                            tally.bug_errors += 1;
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(20 * u64::from(attempt.min(10))));
                        continue 'retry;
                    }
                    code => {
                        eprintln!("load_gen: unexpected error {code:?} for id {id}: {frame}");
                        tally.bug_errors += 1;
                        return;
                    }
                },
                other => {
                    eprintln!("load_gen: unexpected `{other}` frame for id {id}");
                    tally.bug_errors += 1;
                    return;
                }
            }
        }
    }
}

/// The concurrent identity gauntlet against `addr`.
fn hammer(
    addr: &str,
    variants: &[Variant],
    expected: &[Expected],
    concurrency: usize,
    requests_per_worker: usize,
) -> Tally {
    let ids = AtomicU64::new(1);
    std::thread::scope(|scope| {
        let ids = &ids;
        let handles: Vec<_> = (0..concurrency)
            .map(|w| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for r in 0..requests_per_worker {
                        let vi = (w + r) % variants.len();
                        let id = ids.fetch_add(1, Ordering::Relaxed);
                        run_one(addr, &variants[vi], &expected[vi], id, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        let mut total = Tally::default();
        for h in handles {
            total.absorb(&h.join().expect("worker panicked"));
        }
        total
    })
}

/// Deterministic saturation + drain against a dedicated tiny server:
/// queue capacity 1, so sweep A (in flight) + sweep B (queued) force a
/// `429` for C; a shutdown then drains B before refusing E with `503`.
fn backpressure_and_drain(batch_records: usize) -> Result<(), String> {
    let server =
        Server::start(ServerConfig { queue_cap: 1, batch_records, ..ServerConfig::default() })
            .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    // Big enough that preparing + sweeping A comfortably outlasts the
    // admission of B and C below, even on a fast machine.
    let slow =
        Variant { synthetic: 100, max_mesh_cycles: 250_000, net: NetKind::Ideal, tables: vec![] };
    let mut a = TcpStream::connect(&addr).map_err(|e| e.to_string())?;
    send_json(&mut a, &slow.request_json(1001, 0));
    expect_type(&mut a, "accepted")?;
    // B is admitted the moment the sweeper pops A (the queue holds one).
    // Retrying until then avoids any sleep-vs-sweep-duration race: once B
    // is in, A's multi-second sweep has only just begun.
    let mut b = TcpStream::connect(&addr).map_err(|e| e.to_string())?;
    loop {
        send_json(&mut b, &slow.request_json(1002, 0));
        let frame = recv_text(&mut b).ok_or("B got EOF")?;
        match field_u64(&frame, "code") {
            None if frame_type(&frame) == "accepted" => break,
            Some(429) => std::thread::sleep(Duration::from_millis(5)),
            _ => return Err(format!("unexpected frame for B: {frame}")),
        }
    }
    let mut c = TcpStream::connect(&addr).map_err(|e| e.to_string())?;
    send_json(&mut c, &slow.request_json(1003, 0));
    let frame = recv_text(&mut c).ok_or("C got EOF")?;
    if field_u64(&frame, "code") != Some(429) {
        return Err(format!("expected 429 for C, got: {frame}"));
    }
    // Drain: the shutdown ack arrives immediately; B must still stream to
    // completion; a post-shutdown sweep is refused with 503.
    send_json(&mut c, "{\"kind\": \"shutdown\", \"id\": 1004}");
    expect_type(&mut c, "shutdown_ack")?;
    let mut e = TcpStream::connect(&addr).map_err(|e| e.to_string())?;
    send_json(&mut e, &slow.request_json(1005, 0));
    let frame = recv_text(&mut e).ok_or("E got EOF")?;
    if field_u64(&frame, "code") != Some(503) {
        return Err(format!("expected 503 for E, got: {frame}"));
    }
    for (conn, id) in [(&mut a, 1001u64), (&mut b, 1002)] {
        loop {
            let frame = recv_text(conn).ok_or_else(|| format!("{id} died mid-drain"))?;
            match frame_type(&frame) {
                "batch" => {}
                "done" => break,
                other => return Err(format!("{id} got `{other}` during drain: {frame}")),
            }
        }
    }
    server.join().map_err(|e| format!("join: {e}"))?;
    Ok(())
}

fn expect_type(conn: &mut TcpStream, want: &str) -> Result<(), String> {
    let frame = recv_text(conn).ok_or_else(|| format!("EOF while expecting {want}"))?;
    if frame_type(&frame) == want {
        Ok(())
    } else {
        Err(format!("expected `{want}`, got: {frame}"))
    }
}

fn scrape_metrics(addr: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    send_json(&mut conn, "{\"kind\": \"metrics\", \"id\": 1}");
    recv_text(&mut conn).expect("metrics response")
}

fn main() {
    let mut addr: Option<String> = None;
    let mut concurrency = 64usize;
    let mut requests = 2usize;
    let mut synthetic = 12usize;
    let mut batch_records = 16usize;
    let mut do_metrics = false;
    let mut do_shutdown = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("flag value");
        match arg.as_str() {
            "--addr" => addr = Some(value()),
            "--concurrency" => concurrency = value().parse().expect("--concurrency"),
            "--requests" => requests = value().parse().expect("--requests"),
            "--synthetic" => synthetic = value().parse().expect("--synthetic"),
            "--batch-records" => batch_records = value().parse().expect("--batch-records"),
            "--metrics" => do_metrics = true,
            "--shutdown" => do_shutdown = true,
            other => panic!("unknown flag `{other}`"),
        }
    }

    if do_metrics || do_shutdown {
        let addr = addr.expect("--metrics/--shutdown require --addr");
        if do_metrics {
            println!("{}", scrape_metrics(&addr));
        }
        if do_shutdown {
            let mut conn = TcpStream::connect(&addr).expect("connect");
            send_json(&mut conn, "{\"kind\": \"shutdown\", \"id\": 1}");
            expect_type(&mut conn, "shutdown_ack").expect("shutdown ack");
        }
        return;
    }

    let variants = vec![
        Variant { synthetic, max_mesh_cycles: 250_000, net: NetKind::Ideal, tables: vec![22] },
        Variant { synthetic, max_mesh_cycles: 250_000, net: NetKind::Contended, tables: vec![] },
        Variant { synthetic, max_mesh_cycles: 250_000, net: NetKind::Ideal, tables: vec![30] },
        Variant {
            synthetic: synthetic / 2,
            max_mesh_cycles: 150_000,
            net: NetKind::Ideal,
            tables: vec![21],
        },
    ];
    eprintln!(
        "load_gen: precomputing expectations for {} variants (synthetic {synthetic})",
        variants.len()
    );
    let expected: Vec<Expected> =
        variants.iter().map(|v| Expected::build(v, batch_records)).collect();

    let in_process: Option<Server> = match &addr {
        Some(_) => None,
        None => Some(
            Server::start(ServerConfig { batch_records, ..ServerConfig::default() })
                .expect("in-process server"),
        ),
    };
    let target = addr
        .clone()
        .unwrap_or_else(|| in_process.as_ref().expect("started above").addr().to_string());

    eprintln!("load_gen: hammering {target} with {concurrency}\u{d7}{requests} requests");
    let tally = hammer(&target, &variants, &expected, concurrency, requests);

    let mut failures: Vec<String> = Vec::new();
    if tally.mismatches > 0 {
        failures.push(format!("{} frame mismatches", tally.mismatches));
    }
    if tally.bug_errors > 0 {
        failures.push(format!("{} bug-class errors", tally.bug_errors));
    }
    let want_completed = (concurrency * requests) as u64;
    if tally.completed != want_completed {
        failures.push(format!("completed {}/{want_completed}", tally.completed));
    }

    if let Some(server) = in_process {
        // Full gauntlet: the identity hammer above, now saturation + drain.
        if tally.coalesced_done == 0 {
            failures.push("no request ever coalesced under the concurrent hammer".into());
        }
        let metrics = scrape_metrics(&server.addr().to_string());
        for key in ["\"accepted\"", "\"coalesced_requests\"", "\"table30\"", "\"counters\""] {
            if !metrics.contains(key) {
                failures.push(format!("metrics response missing {key}"));
            }
        }
        if let Err(e) = backpressure_and_drain(batch_records) {
            failures.push(format!("backpressure/drain: {e}"));
        }
        server.request_shutdown();
        server.join().expect("clean join");
    }

    println!(
        "load_gen: completed={} mismatches={} coalesced_done={} retries_429={} bug_errors={}",
        tally.completed,
        tally.mismatches,
        tally.coalesced_done,
        tally.retries_429,
        tally.bug_errors
    );
    std::io::stdout().flush().expect("stdout flush");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("load_gen: FAIL {f}");
        }
        std::process::exit(1);
    }
    println!("load_gen: OK");
}

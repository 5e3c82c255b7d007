//! The real `javaflow-serve` binary, end to end: its ready lines, a
//! concurrent hammer whose every frame must equal the in-process
//! rendering (and some of which must ride a coalesced sweep), the
//! SIGUSR1 flight dump, the structured span log line, the SIGINT drain,
//! and the flag errors `parse_args` reports.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use javaflow_core::{EvalConfig, Evaluation};
use javaflow_fabric::NetKind;
use javaflow_server::json::Json;
use javaflow_server::protocol::{
    batch_frame, done_frame, expected_batch_payloads, read_frame, write_frame,
};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGINT: i32 = 2;
const SIGUSR1: i32 = 10;

/// The server's default `--batch-records`; expectations are cut the same way.
const BATCH_RECORDS: usize = 16;

fn serve_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_javaflow-serve"))
}

/// A spawned server, killed on drop unless the test already reaped it.
struct Served {
    child: Child,
    /// Everything the server has written to stderr so far.
    stderr: Arc<Mutex<String>>,
}

impl Served {
    fn signal(&self, sig: i32) {
        let pid = i32::try_from(self.child.id()).expect("pid fits in i32");
        // SAFETY: `kill` only sends a signal to our own child process.
        assert_eq!(unsafe { kill(pid, sig) }, 0, "kill({pid}, {sig})");
    }

    /// Waits until stderr contains `needle`, or panics after `limit`.
    fn await_stderr(&self, needle: &str, limit: Duration) {
        let start = Instant::now();
        while !self.stderr.lock().unwrap().contains(needle) {
            assert!(
                start.elapsed() < limit,
                "no `{needle}` on stderr within {limit:?}; stderr so far:\n{}",
                self.stderr.lock().unwrap()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Starts the binary in `dir` and returns it with its protocol and HTTP
/// addresses, read off its two ready lines.
fn spawn_server(dir: &Path, flight: &Path) -> (Served, String, String) {
    let mut child = serve_cmd()
        .args(["--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0", "--log-json"])
        .arg("--flight-dump")
        .arg(flight)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn javaflow-serve");
    let stderr = Arc::new(Mutex::new(String::new()));
    let mut pipe = child.stderr.take().expect("stderr pipe");
    let sink = Arc::clone(&stderr);
    std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = pipe.read(&mut buf) {
            sink.lock().unwrap().push_str(&String::from_utf8_lossy(&buf[..n]));
        }
    });
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout pipe"));
    let served = Served { child, stderr };
    let mut ready_line = |prefix: &str| {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("ready line");
        line.trim_end()
            .strip_prefix(prefix)
            .unwrap_or_else(|| panic!("ready line `{line}`"))
            .to_string()
    };
    let addr = ready_line("javaflow-serve listening on ");
    let metrics = ready_line("javaflow-serve metrics on http://");
    let http = metrics.strip_suffix("/metrics").expect("metrics URL").to_string();
    (served, addr, http)
}

/// One request shape in the hammer's mix. `net`/`max_mesh_cycles` vary
/// so coalescing has distinct keys to keep apart; `tables` varies within
/// a key, since coalesced subscribers each get their own `done` frame.
struct Variant {
    synthetic: usize,
    max_mesh_cycles: u64,
    net: NetKind,
    tables: Vec<u32>,
}

impl Variant {
    fn request_json(&self, id: u64) -> String {
        let tables = self.tables.iter().map(u32::to_string).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"kind\": \"sweep\", \"id\": {id}, \"synthetic\": {}, \
             \"max_mesh_cycles\": {}, \"net\": \"{}\", \"tables\": [{tables}]}}",
            self.synthetic,
            self.max_mesh_cycles,
            if self.net == NetKind::Contended { "contended" } else { "ideal" },
        )
    }
}

/// A variant's response stream, rendered from a direct in-process
/// evaluation through the renderers the server uses, so identity is
/// plain string equality per frame.
struct Expected {
    batches: Vec<(usize, String)>,
    eval: Evaluation,
}

impl Expected {
    fn of(v: &Variant) -> Expected {
        let eval = Evaluation::run(&EvalConfig {
            synthetic_count: v.synthetic,
            max_mesh_cycles: v.max_mesh_cycles,
            net: v.net,
            ..EvalConfig::default()
        });
        Expected { batches: expected_batch_payloads(&eval, BATCH_RECORDS), eval }
    }
}

#[derive(Default)]
struct Tally {
    completed: u64,
    coalesced_done: u64,
    retries_429: u64,
    /// Frames that differ from the in-process rendering, and every
    /// bug-class failure (a non-429 error, an unexpected frame, a stream
    /// cut short), each described.
    failures: Vec<String>,
}

fn frame_type(frame: &str) -> &str {
    frame.strip_prefix("{\"type\": \"").and_then(|rest| rest.split('"').next()).unwrap_or("unknown")
}

/// Runs one sweep request to completion, checking every frame against
/// the expectation; a `429` is retried with backoff.
fn run_one(addr: &str, v: &Variant, exp: &Expected, id: u64, tally: &mut Tally) {
    for attempt in 1..=50u64 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        write_frame(&mut conn, v.request_json(id).as_bytes()).expect("send");
        let mut next_batch = 0;
        loop {
            let Ok(Some(frame)) = read_frame(&mut conn, usize::MAX) else {
                tally.failures.push(format!("id {id}: connection closed mid-stream"));
                return;
            };
            let frame = String::from_utf8(frame).expect("responses are UTF-8");
            match frame_type(&frame) {
                "accepted" => {}
                "batch" => {
                    let want = exp
                        .batches
                        .get(next_batch)
                        .map(|(first, payload)| batch_frame(id, next_batch, *first, payload));
                    if want.as_deref() != Some(frame.as_str()) {
                        tally.failures.push(format!("id {id}: batch {next_batch} differs"));
                    }
                    next_batch += 1;
                }
                "done" => {
                    if frame == done_frame(id, &exp.eval, true, &v.tables) {
                        tally.coalesced_done += 1;
                    } else if frame != done_frame(id, &exp.eval, false, &v.tables) {
                        tally.failures.push(format!("id {id}: done frame differs"));
                    }
                    if next_batch != exp.batches.len() {
                        tally.failures.push(format!(
                            "id {id}: {next_batch} of {} batches",
                            exp.batches.len()
                        ));
                    }
                    tally.completed += 1;
                    return;
                }
                "error" if frame.contains("\"code\": 429") => {
                    tally.retries_429 += 1;
                    std::thread::sleep(Duration::from_millis(20 * attempt.min(10)));
                    break;
                }
                _ => {
                    tally.failures.push(format!("id {id}: unexpected frame {frame}"));
                    return;
                }
            }
        }
    }
    tally.failures.push(format!("id {id}: starved by 429s"));
}

/// `connections` clients, each sending `requests` sweeps in turn over the
/// variants, all at once against `addr`.
fn hammer(
    addr: &str,
    variants: &[Variant],
    expected: &[Expected],
    connections: usize,
    requests: usize,
) -> Tally {
    let ids = AtomicU64::new(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|w| {
                let ids = &ids;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for r in 0..requests {
                        let vi = (w + r) % variants.len();
                        let id = ids.fetch_add(1, Ordering::Relaxed);
                        run_one(addr, &variants[vi], &expected[vi], id, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        let mut total = Tally::default();
        for worker in workers {
            let t = worker.join().expect("hammer worker");
            total.completed += t.completed;
            total.coalesced_done += t.coalesced_done;
            total.retries_429 += t.retries_429;
            total.failures.extend(t.failures);
        }
        total
    })
}

/// A fresh scratch directory under the target dir, so the server's
/// working directory and its flight dump never land in the source tree.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn the_binary_serves_coalesces_dumps_logs_and_drains() {
    let dir = scratch_dir("javaflow-serve-binary");
    let flight = dir.join("flight.trace.json");
    let (mut served, addr, http) = spawn_server(&dir, &flight);
    assert!(http.starts_with("127.0.0.1:"), "metrics address `{http}`");

    let synthetic = 6;
    let variants = [
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
    let expected: Vec<Expected> = variants.iter().map(Expected::of).collect();
    let (connections, requests) = (16, 2);
    let tally = hammer(&addr, &variants, &expected, connections, requests);
    assert!(tally.failures.is_empty(), "{} failures: {:#?}", tally.failures.len(), tally.failures);
    assert_eq!(tally.completed, (connections * requests) as u64);
    assert!(
        tally.coalesced_done > 0,
        "no request rode a coalesced sweep ({} completed, {} retried after 429)",
        tally.completed,
        tally.retries_429
    );

    // SIGUSR1: the main loop writes the flight recorder as a Chrome trace.
    served.signal(SIGUSR1);
    served.await_stderr("flight dump →", Duration::from_secs(20));
    let dump = std::fs::read_to_string(&flight).expect("flight dump written");
    let dump = Json::parse(&dump).expect("flight dump is JSON");
    let events = dump.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty(), "flight dump has no traceEvents");
    assert!(
        events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("M")
            && e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str)
                == Some("javaflow-serve")),
        "flight dump names no javaflow-serve process"
    );

    // --log-json: one structured span line per finished request.
    served.await_stderr("\"event\":\"request\"", Duration::from_secs(5));

    // SIGINT drains the server, which then exits 0.
    served.signal(SIGINT);
    let start = Instant::now();
    let status = loop {
        if let Some(status) = served.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(start.elapsed() < Duration::from_secs(20), "no exit within 20 s of SIGINT");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "exit status {status}");
    drop(served);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the binary with `args`, which must fail before binding anything,
/// and returns its stderr.
fn rejected(args: &[&str]) -> String {
    let out = serve_cmd().args(args).output().expect("run javaflow-serve");
    assert!(!out.status.success(), "{args:?} exited {}", out.status);
    String::from_utf8(out.stderr).expect("stderr is UTF-8")
}

#[test]
fn bad_flags_exit_nonzero_with_a_message() {
    let err = rejected(&["--threads", "0"]);
    assert!(err.contains("--threads must be at least 1"), "{err}");
    let err = rejected(&["--batch-records", "0"]);
    assert!(err.contains("--batch-records must be at least 1"), "{err}");
    let err = rejected(&["--no-such-flag"]);
    assert!(err.contains("unknown flag `--no-such-flag`"), "{err}");
}

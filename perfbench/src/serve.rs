//! `serve-distinct` and `serve-hot`: a `javaflow-serve` process on TCP
//! with `--threads 1` (the other core is the load generator's), driven
//! by one generator process with two threads (sender + receiver) over
//! one connection.
//!
//! A run is one or more rounds, each against a freshly set-up server.
//! A round has two phases. An open-loop phase sends requests at a fixed
//! rate regardless of completions and times each from its due time
//! (latency, first batch, generator lateness); each round has its own
//! seed-drawn schedule, and a run pools its rounds. A closed-window phase
//! then keeps a fixed number of requests outstanding, below the queue
//! cap, and counts completions per second (capacity). Timings are scaled
//! by the run's `HostSpeed`, sampled between phases with the server
//! idle. Every batch and `done` frame is compared byte for
//! byte with what the server's own renderers produce from an in-process
//! `PreparedPopulation::evaluate` computed during set-up; a mismatch or
//! an error frame is a failed operation.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use javaflow_core::tables::chapter7_tables;
use javaflow_core::{EvalConfig, Evaluation, Filter, PreparedPopulation};
use javaflow_fabric::NetKind;
use javaflow_server::json::Json;
use javaflow_server::protocol::{
    batch_frame, batch_payload, done_frame, expected_batch_payloads, parse_request, read_frame,
    write_frame,
};

use crate::util::{
    allocs, compile_declines, fom_err, median, num, num_array, peak_rss_mb, quantile, set_counting,
    setup_layers, timed, HostSpeed, Report, Rng,
};
use crate::Args;

/// Records per streamed batch; passed to the server explicitly.
const BATCH_RECORDS: usize = 16;
/// The server's admission-queue capacity; capacity windows stay below it.
const QUEUE_CAP: usize = 32;
/// The cycle budget of serve-hot's keys (the server default).
const HOT_BUDGET: u64 = 250_000;
/// serve-distinct's budgets start here and grow by request id, so every
/// key is new. The longest run at synthetic 50/100 takes ~11.4k mesh
/// cycles (≤105k even at 240), so no run reaches any of these budgets and
/// every response equals the one in-process expectation for its
/// (size, net).
const DISTINCT_BUDGET_BASE: u64 = 120_000;
/// serve-distinct's budgets move up by this much each round, so no key
/// repeats across rounds; rounds × stride stays below the seed's
/// 100,000-cycle stride.
const ROUND_BUDGET_STRIDE: u64 = 30_000;
/// How long to wait for outstanding responses after the last send.
const DRAIN_WAIT: Duration = Duration::from_secs(60);

/// One request shape of a workload's key mix.
#[derive(Clone, Copy)]
struct Key {
    synthetic: usize,
    net: NetKind,
    compiled: bool,
}

impl Key {
    fn net_name(self) -> &'static str {
        if self.net == NetKind::Contended {
            "contended"
        } else {
            "ideal"
        }
    }

    fn label(self) -> String {
        format!(
            "synthetic {} {}{}",
            self.synthetic,
            self.net_name(),
            if self.compiled { " compiled" } else { "" }
        )
    }
}

/// A serve workload: its key mix and offered load.
pub struct Spec {
    keys: Vec<Key>,
    /// Indices into `keys` giving the mix's shares; requests come in
    /// shuffled copies of this block.
    block: Vec<usize>,
    /// Open-loop arrival rate, requests per second.
    rate_rps: f64,
    /// Share of `--seconds` spent in the open-loop phases; the rest
    /// measures capacity.
    open_share: f64,
    /// Requests kept outstanding in the capacity phase.
    window: usize,
    /// Give every request its own cycle budget (a never-seen key).
    unique_budgets: bool,
    /// Rounds per run, each on a fresh server with its own open-loop
    /// schedule and capacity-phase order; latencies and capacity pool
    /// them.
    rounds: u64,
    /// Server set-ups per round; `setup_s` is the median of all of them.
    setups_per_round: usize,
}

/// Every request a new `SweepKey`, interpreted: synthetic 50 or 100 on
/// the ideal or contended net, two of every five requests contended.
/// (With exactly half contended, every ideal sweep being faster than
/// every contended one puts the latency median on the gap between the
/// two nets' modes, where it jumps from run to run.) 1.9 rps keeps the
/// sweeper under half busy even when a shared host runs slow; near
/// saturation, queueing would multiply every slowdown into latency.
/// Three quarters of the run go to the open loop, so `latency_p90_ms`
/// has five requests beyond it. Two rounds sample the host at two times.
pub fn distinct() -> Spec {
    let key = |synthetic, net| Key { synthetic, net, compiled: false };
    let keys = vec![
        key(50, NetKind::Ideal),
        key(100, NetKind::Ideal),
        key(50, NetKind::Contended),
        key(100, NetKind::Contended),
    ];
    Spec {
        keys,
        block: vec![0, 0, 1, 2, 3],
        rate_rps: 1.9,
        open_share: 0.75,
        window: 4,
        unique_budgets: true,
        rounds: 2,
        setups_per_round: 2,
    }
}

/// Two hot keys at synthetic 50, both sent compiled, three requests on
/// the ideal net (which replays recorded schedules) to one on the
/// contended net (compilation declines; interpreted, ~0.27 s), so the
/// median follows the replay path and the tail the interpreted one.
/// 20 rps arrive faster than either sweep completes, so requests queue
/// and coalesce. How many requests a sweep serves depends on the order
/// they came in, so four rounds, each with its own order, are pooled:
/// no one order sets the figures. The capacity window of 16 nearly always
/// holds both keys, so each pair of sweeps completes about the whole
/// window; with 8, whether a contended request happens to be waiting
/// swings a round's rate by half. The open loop has ample requests at
/// this rate, so half the run goes to the capacity phases, whose figure
/// rests on far fewer sweeps.
pub fn hot() -> Spec {
    let keys = [NetKind::Ideal, NetKind::Contended]
        .into_iter()
        .map(|net| Key { synthetic: 50, net, compiled: true })
        .collect();
    Spec {
        keys,
        block: vec![0, 0, 0, 1],
        rate_rps: 20.0,
        open_share: 0.5,
        window: 16,
        unique_budgets: false,
        rounds: 4,
        setups_per_round: 1,
    }
}

/// What the server must stream for one key, rendered with request id 0
/// by the server's own frame builders; received frames are compared from
/// their `"id"` onwards.
struct Expected {
    batches: Vec<String>,
    /// `done` frames for `coalesced` false and true.
    done: [String; 2],
    eval: Evaluation,
}

fn expected(pop: &PreparedPopulation, key: Key) -> Expected {
    let cfg = eval_config(key, HOT_BUDGET, 2);
    let eval = pop.evaluate(&cfg);
    let batches = expected_batch_payloads(&eval, BATCH_RECORDS)
        .iter()
        .enumerate()
        .map(|(seq, (first, payload))| batch_frame(0, seq, *first, payload))
        .collect();
    let done = [done_frame(0, &eval, false, &[22]), done_frame(0, &eval, true, &[22])];
    Expected { batches, done, eval }
}

fn eval_config(key: Key, budget: u64, threads: usize) -> EvalConfig {
    EvalConfig {
        synthetic_count: key.synthetic,
        max_mesh_cycles: budget,
        net: key.net,
        compiled: key.compiled,
        threads,
        ..EvalConfig::default()
    }
}

/// Splits a frame `{"type": "<t>", "id": <n>, ...` into `(t, n, rest)`.
fn split_frame(frame: &[u8]) -> Option<(&[u8], u64, &[u8])> {
    let rest = frame.strip_prefix(b"{\"type\": \"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    let (kind, rest) = rest.split_at(end);
    let rest = rest.strip_prefix(b"\", \"id\": ")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    Some((kind, id, &rest[digits..]))
}

fn same_after_id(got: &[u8], want: &str) -> bool {
    match (split_frame(got), split_frame(want.as_bytes())) {
        (Some((k1, _, r1)), Some((k2, _, r2))) => k1 == k2 && r1 == r2,
        _ => false,
    }
}

fn request_json(id: u64, key: Key, budget: u64) -> String {
    format!(
        "{{\"kind\": \"sweep\", \"id\": {id}, \"synthetic\": {}, \"max_mesh_cycles\": {budget}, \
         \"net\": \"{}\", \"compiled\": {}, \"tables\": [22]}}",
        key.synthetic,
        key.net_name(),
        key.compiled,
    )
}

/// A `javaflow-serve` child process; killed and reaped on drop if it has
/// not exited by then.
struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
    http: String,
}

impl ServerProc {
    fn spawn(bin: &Path, log: Option<&Path>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0", "--threads", "1"])
            .args(["--batch-records", &BATCH_RECORDS.to_string()])
            .args(["--queue-cap", &QUEUE_CAP.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        match log {
            Some(path) => {
                let file =
                    std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
                cmd.arg("--log-json").stderr(file);
            }
            None => {
                cmd.stderr(Stdio::null());
            }
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (mut addr, mut http) = (String::new(), String::new());
        let mut line = String::new();
        while addr.is_empty() || http.is_empty() {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("javaflow-serve exited before its ready lines".to_string());
            }
            if let Some(a) = line.trim().strip_prefix("javaflow-serve listening on ") {
                addr = a.to_string();
            } else if let Some(h) = line.trim().strip_prefix("javaflow-serve metrics on http://") {
                http = h.trim_end_matches("/metrics").to_string();
            }
        }
        Ok(ServerProc { child, _stdout: stdout, addr, http })
    }

    fn connect(&self) -> Result<TcpStream, String> {
        TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The raw Prometheus page from the HTTP sidecar.
    fn scrape(&self) -> Result<String, String> {
        let mut s =
            TcpStream::connect(&self.http).map_err(|e| format!("connect {}: {e}", self.http))?;
        s.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut page = String::new();
        s.read_to_string(&mut page).map_err(|e| e.to_string())?;
        let body = page.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
        body.ok_or_else(|| "malformed /metrics response".to_string())
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(f64::NAN)
    }

    /// Asks the server to drain and waits for it to exit.
    fn shutdown(mut self) -> bool {
        if let Ok(mut c) = self.connect() {
            let _ = write_frame(&mut c, b"{\"kind\": \"shutdown\", \"id\": 0}");
            let _ = c.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = read_frame(&mut c, usize::MAX);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Sends one sweep and reads its frames to the end, checking each.
fn sweep_blocking(conn: &mut TcpStream, id: u64, key: Key, budget: u64, exp: &Expected) -> bool {
    if write_frame(conn, request_json(id, key, budget).as_bytes()).is_err() {
        return false;
    }
    let mut seq = 0usize;
    loop {
        let Ok(Some(frame)) = read_frame(conn, usize::MAX) else { return false };
        match split_frame(&frame) {
            Some((b"accepted", fid, _)) if fid == id => {}
            Some((b"batch", fid, _)) if fid == id => {
                if exp.batches.get(seq).is_none_or(|want| !same_after_id(&frame, want)) {
                    return false;
                }
                seq += 1;
            }
            Some((b"done", fid, _)) if fid == id => {
                return seq == exp.batches.len()
                    && exp.done.iter().any(|want| same_after_id(&frame, want));
            }
            _ => return false,
        }
    }
}

/// One finished request as the receiver saw it.
struct Done {
    id: u64,
    first_batch: Option<Instant>,
    at: Instant,
    ok: bool,
}

/// The receiver thread: reads every frame off the generator's connection,
/// timestamps it on arrival, checks it, and reports each request's end.
fn receiver(
    mut conn: TcpStream,
    plan: Arc<Vec<usize>>,
    exp: Arc<Vec<Expected>>,
    tx: Sender<Done>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut live: HashMap<u64, (usize, Option<Instant>, bool)> = HashMap::new();
        while let Ok(Some(frame)) = read_frame(&mut conn, usize::MAX) {
            let at = Instant::now();
            let Some((kind, id, _)) = split_frame(&frame) else { continue };
            let Some(&k) = plan.get(id as usize) else { continue };
            let e = &exp[k];
            let state = live.entry(id).or_insert((0, None, true));
            match kind {
                b"accepted" => {}
                b"batch" => {
                    state.1.get_or_insert(at);
                    state.2 &= e.batches.get(state.0).is_some_and(|w| same_after_id(&frame, w));
                    state.0 += 1;
                }
                b"done" => {
                    let (seq, first, ok) = live.remove(&id).expect("entry inserted above");
                    let ok = ok
                        && seq == e.batches.len()
                        && e.done.iter().any(|w| same_after_id(&frame, w));
                    let _ = tx.send(Done { id, first_batch: first, at, ok });
                }
                // 400/429/503/504: the request failed.
                _ => {
                    let (_, first, _) = live.remove(&id).expect("entry inserted above");
                    let _ = tx.send(Done { id, first_batch: first, at, ok: false });
                }
            }
        }
    })
}

/// What the open-loop phase measured, per request in id order.
struct OpenLoop {
    /// Due time → `done`, ms; +inf for a failed or missing request.
    latency_ms: Vec<f64>,
    /// Due time → first `batch`, ms; NaN if none arrived.
    first_batch_ms: Vec<f64>,
    /// First batch → `done`, seconds; NaN unless the request completed.
    stream_s: Vec<f64>,
    /// Send time minus due time, ms.
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// A request generator on one connection.
struct Generator {
    conn: TcpStream,
    rx: Receiver<Done>,
    recv: Option<JoinHandle<()>>,
    plan: Arc<Vec<usize>>,
    keys: Vec<Key>,
    budget_base: Option<u64>,
}

impl Generator {
    fn new(
        server: &ServerProc,
        spec: &Spec,
        plan: Vec<usize>,
        exp: Arc<Vec<Expected>>,
        seed: u64,
        round: u64,
    ) -> Result<Generator, String> {
        let conn = server.connect()?;
        let read_half = conn.try_clone().map_err(|e| e.to_string())?;
        let plan = Arc::new(plan);
        let (tx, rx) = channel();
        let recv = receiver(read_half, Arc::clone(&plan), exp, tx);
        // Seed-dependent budgets, far below the protocol's 1e8 cap.
        let budget_base = spec
            .unique_budgets
            .then(|| DISTINCT_BUDGET_BASE + (seed % 500) * 100_000 + round * ROUND_BUDGET_STRIDE);
        Ok(Generator { conn, rx, recv: Some(recv), plan, keys: spec.keys.clone(), budget_base })
    }

    fn send(&mut self, id: u64) -> bool {
        let key = self.keys[self.plan[id as usize]];
        let budget = self.budget_base.map_or(HOT_BUDGET, |b| b + id);
        write_frame(&mut self.conn, request_json(id, key, budget).as_bytes()).is_ok()
    }

    /// Requests `ids`, each due at its offset from now in `due_s`.
    fn open_loop(&mut self, ids: std::ops::Range<u64>, due_s: &[f64]) -> OpenLoop {
        let t0 = Instant::now() + Duration::from_millis(20);
        let due = |i: u64| t0 + Duration::from_secs_f64(due_s[(i - ids.start) as usize]);
        let mut late_ms = Vec::new();
        let mut sent = 0u64;
        for id in ids.clone() {
            let d = due(id);
            let now = Instant::now();
            if d > now {
                std::thread::sleep(d - now);
            }
            late_ms.push(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e3);
            if !self.send(id) {
                break;
            }
            sent += 1;
        }
        let n = (ids.end - ids.start) as usize;
        let mut out = OpenLoop {
            latency_ms: vec![f64::INFINITY; n],
            first_batch_ms: vec![f64::NAN; n],
            stream_s: vec![f64::NAN; n],
            late_ms,
            attempted: n as u64,
            failed: n as u64,
        };
        let mut pending = sent;
        let give_up = Instant::now() + DRAIN_WAIT;
        while pending > 0 {
            let Ok(done) = self.rx.recv_timeout(give_up.saturating_duration_since(Instant::now()))
            else {
                break;
            };
            if !ids.contains(&done.id) {
                continue;
            }
            pending -= 1;
            let (i, d) = ((done.id - ids.start) as usize, due(done.id));
            if let Some(first) = done.first_batch {
                out.first_batch_ms[i] = first.duration_since(d).as_secs_f64() * 1e3;
            }
            // A failed request keeps +inf: it misses every latency limit.
            if done.ok {
                out.failed -= 1;
                out.latency_ms[i] = done.at.duration_since(d).as_secs_f64() * 1e3;
                if let Some(first) = done.first_batch {
                    out.stream_s[i] = done.at.duration_since(first).as_secs_f64();
                }
            }
        }
        out
    }

    /// Keeps `window` requests outstanding for `secs` and on to the end of
    /// the key-mix block under way (`block` requests from `next` on), then
    /// drains; returns `(completions, seconds, attempted, failed)`: every
    /// request completed, drained ones too, and the seconds from the
    /// first send to the last completion. Counting whole requests, rather
    /// than those inside a time slot, keeps a coalesced group's
    /// completions, which arrive together, from falling on either side of
    /// a slot edge; whole blocks keep the mix's shares exact, so the rate
    /// does not depend on how many slow keys happened to be sent.
    fn capacity(
        &mut self,
        mut next: u64,
        window: usize,
        block: u64,
        secs: f64,
    ) -> (f64, f64, u64, u64) {
        let first = next;
        let start = Instant::now();
        let stop = start + Duration::from_secs_f64(secs);
        let (mut outstanding, mut attempted, mut ok) = (0usize, 0u64, 0u64);
        let mut last = start;
        for _ in 0..window {
            if next as usize >= self.plan.len() || !self.send(next) {
                break;
            }
            next += 1;
            outstanding += 1;
            attempted += 1;
        }
        while outstanding > 0 {
            let Ok(done) = self.rx.recv_timeout(DRAIN_WAIT) else { break };
            outstanding -= 1;
            if done.ok {
                ok += 1;
                last = last.max(done.at);
            }
            let more = Instant::now() < stop || !(next - first).is_multiple_of(block);
            if more && (next as usize) < self.plan.len() && self.send(next) {
                next += 1;
                outstanding += 1;
                attempted += 1;
            }
        }
        (ok as f64, last.duration_since(start).as_secs_f64(), attempted, attempted - ok)
    }

    fn finish(mut self) {
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.recv.take() {
            let _ = h.join();
        }
    }
}

/// Starts a server and warms it: one sweep per population size prepares
/// that population, and one sweep per compiled key records the schedules
/// later sweeps replay (or finds that compilation declines). Returns the server
/// and the seconds from spawn to warm.
fn set_up(
    args: &Args,
    spec: &Spec,
    exp: &[Expected],
    log: Option<&Path>,
    r: &mut Report,
) -> Result<(ServerProc, f64), String> {
    let t = Instant::now();
    let server = ServerProc::spawn(&args.server_bin, log)?;
    let mut conn = server.connect()?;
    let mut warmed_sizes = Vec::new();
    for (k, key) in spec.keys.iter().enumerate() {
        if warmed_sizes.contains(&key.synthetic) && !key.compiled {
            continue;
        }
        warmed_sizes.push(key.synthetic);
        // Warm-up ids sit above every generated id; serve-distinct's
        // warm-up budgets sit below every generated budget.
        let id = 1 << 40 | k as u64;
        let budget =
            if spec.unique_budgets { DISTINCT_BUDGET_BASE - 1 - k as u64 } else { HOT_BUDGET };
        r.check(sweep_blocking(&mut conn, id, *key, budget, &exp[k]));
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// Set-up repeated `spec.setups_per_round` times; the last server is
/// kept.
fn set_up_repeated(
    args: &Args,
    spec: &Spec,
    exp: &[Expected],
    r: &mut Report,
) -> Result<(ServerProc, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut kept = None;
    for _ in 0..spec.setups_per_round {
        if let Some(old) = kept.take() {
            r.check(ServerProc::shutdown(old));
        }
        let (server, s) = set_up(args, spec, exp, None, r)?;
        secs.push(s);
        kept = Some(server);
    }
    Ok((kept.expect("at least one set-up"), secs))
}

/// One round's requests: each id's key index (the open-loop ids first,
/// then enough for the capacity phase) and each open-loop id's due time.
struct Schedule {
    plan: Vec<usize>,
    due_s: Vec<f64>,
}

impl Schedule {
    fn new(rng: &mut Rng, spec: &Spec, n_open: u64) -> Schedule {
        // The capacity phase can complete at most a few hundred requests;
        // plan generously so the window never runs dry.
        let plan = rng.blocks(n_open as usize + 20_000, &spec.block);
        // A fixed rate, each request placed uniformly at random within its
        // 1/rate slot: exactly spaced arrivals would put every latency of
        // a coalesced group on a lattice of the spacing, and the median
        // would jump between lattice points from run to run.
        let due_s = (0..n_open).map(|i| (i as f64 + rng.unit()) / spec.rate_rps).collect();
        Schedule { plan, due_s }
    }
}

/// The in-process populations and expectations for a key mix.
fn prepare_expectations(spec: &Spec) -> (HashMap<usize, PreparedPopulation>, Vec<Expected>) {
    let mut pops: HashMap<usize, PreparedPopulation> = HashMap::new();
    for key in &spec.keys {
        pops.entry(key.synthetic).or_insert_with(|| PreparedPopulation::prepare(key.synthetic, 2));
    }
    let exp = spec.keys.iter().map(|k| expected(&pops[&k.synthetic], *k)).collect();
    (pops, exp)
}

pub fn run(args: &Args, spec: &Spec) -> Result<Report, String> {
    let mut r = Report::default();
    let (pops, exp) = prepare_expectations(spec);
    let foms: Vec<f64> = exp
        .iter()
        .map(|e| {
            fom_err(
                &e.eval.config_rows(Filter::All).iter().map(|row| row.fom.mean).collect::<Vec<_>>(),
            )
        })
        .collect();
    let exp = Arc::new(exp);

    let mut rng = Rng::new(args.seed);
    let open_secs = args.seconds * spec.open_share;
    // Whole blocks per round, so every round's requests hold the mix's
    // exact shares.
    let block = spec.block.len() as u64;
    let n_open = block
        * ((spec.rate_rps * open_secs / spec.rounds as f64 / block as f64).round() as u64).max(1);
    let cap_secs = (args.seconds - open_secs) / spec.rounds as f64;
    // Each round gets its own request order and arrival offsets, so a run
    // pools several independent schedules and one seed's order does not
    // set its figures.
    let schedules: Vec<Schedule> =
        (0..spec.rounds).map(|_| Schedule::new(&mut rng, spec, n_open)).collect();

    let mix: Vec<String> = spec
        .keys
        .iter()
        .enumerate()
        .map(|(k, key)| {
            let share =
                spec.block.iter().filter(|&&b| b == k).count() as f64 / spec.block.len() as f64;
            format!("{{\"key\": \"{}\", \"share\": {}}}", key.label(), num(share))
        })
        .collect();
    r.detail(
        "workload",
        format!(
            "{{\"seed\": {}, \"rate_rps\": {}, \"rounds\": {}, \"open_loop_s\": {}, \"open_loop_requests\": {n_open}, \
             \"capacity_window\": {}, \"queue_cap\": {QUEUE_CAP}, \"server_threads\": 1, \
             \"batch_records\": {BATCH_RECORDS}, \"unique_budgets\": {}, \"key_mix\": [{}]}}",
            args.seed,
            num(spec.rate_rps),
            spec.rounds,
            num(open_secs),
            spec.window,
            spec.unique_budgets,
            mix.join(", "),
        ),
    );

    if args.trace {
        let Schedule { plan, due_s } = schedules.into_iter().next().expect("at least one round");
        trace(args, spec, &pops, &exp, plan, &due_s, &mut r)?;
        return Ok(r);
    }

    let (mut setup, mut rss, mut capacity, mut rounds) = (vec![], vec![], vec![], vec![]);
    let (mut completions, mut span) = (0.0, 0.0);
    // Reference samples between phases, with the server idle.
    let mut host = HostSpeed::default();
    for (round, sched) in (0..).zip(&schedules) {
        host.sample();
        let (server, secs) = set_up_repeated(args, spec, &exp, &mut r)?;
        setup.extend(secs);
        host.sample();
        let mut g =
            Generator::new(&server, spec, sched.plan.clone(), Arc::clone(&exp), args.seed, round)?;
        let open = g.open_loop(0..n_open, &sched.due_s);
        host.sample();
        let (count, secs, cap_attempted, cap_failed) =
            g.capacity(n_open, spec.window, block, cap_secs);
        rss.push(server.peak_rss_mb());
        g.finish();
        r.check(server.shutdown());
        r.attempted += open.attempted + cap_attempted;
        r.failed += open.failed + cap_failed;
        completions += count;
        span += secs;
        capacity.push(count / secs);
        rounds.push(open);
    }
    host.sample();

    // Every round's requests pooled.
    let pooled = |field: fn(&OpenLoop) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|o| field(o).iter().copied()).filter(|x| !x.is_nan()).collect()
    };
    let mut latency = pooled(|o| &o.latency_ms);
    let mut first_batch = pooled(|o| &o.first_batch_ms);
    let stream = pooled(|o| &o.stream_s);
    r.timing("setup_s", median(&mut setup.clone()), &host, false);
    r.metric("peak_rss_mb", median(&mut rss.clone()));
    // A mean, not a median: replayed and interpreted sweeps stream in
    // very different times, and the mix's shares are exact, so the mean
    // holds still where a median would sit on one mode's edge.
    r.timing("sweep_s", stream.iter().sum::<f64>() / stream.len() as f64, &host, false);
    r.metric("fom_err", foms.iter().sum::<f64>() / foms.len() as f64);
    r.timing("latency_p50_ms", quantile(&mut latency, 0.5), &host, false);
    r.timing("latency_p90_ms", quantile(&mut latency, 0.9), &host, false);
    r.timing("first_batch_p50_ms", median(&mut first_batch), &host, false);
    r.timing("capacity_rps", completions / span, &host, true);
    r.detail("host_reference", host.detail());
    r.detail("setup_reps_s", num_array(&setup));
    r.detail("peak_rss_rounds_mb", num_array(&rss));
    r.detail("capacity_rounds_rps", num_array(&capacity));
    let rows: Vec<String> = rounds
        .iter()
        .zip(&schedules)
        .map(|(o, sched)| {
            let keys: Vec<f64> = sched.plan[..n_open as usize].iter().map(|&k| k as f64).collect();
            format!(
                "{{\"key\": {}, \"latency_ms\": {}}}",
                num_array(&keys),
                num_array(&o.latency_ms)
            )
        })
        .collect();
    r.detail("rounds", format!("[{}]", rows.join(", ")));
    let mut late: Vec<f64> = rounds.iter().flat_map(|o| o.late_ms.iter().copied()).collect();
    late_detail(&mut r, &mut late);
    Ok(r)
}

fn late_detail(r: &mut Report, late: &mut [f64]) {
    if late.is_empty() {
        return;
    }
    r.detail(
        "generator_late_ms",
        format!(
            "{{\"p50\": {}, \"p99\": {}, \"max\": {}}}",
            num(quantile(late, 0.5)),
            num(quantile(late, 0.99)),
            num(quantile(late, 1.0)),
        ),
    );
}

/// Per-request costs of one key, measured in-process along the path the
/// server's sweeper takes: batched sweep on one thread, each batch
/// rendered as it completes, then the `done` frame.
#[derive(Default, Clone, Copy)]
struct PathCost {
    kernel_s: f64,
    kernel_allocs: u64,
    busy_s: f64,
    max_busy_s: f64,
    mean_busy_s: f64,
    threads: f64,
    steals: f64,
    runs: f64,
    events: f64,
    skipped: f64,
    declines: f64,
    render_batch_s: f64,
    assemble_s: f64,
    render_done_s: f64,
    tables_s: f64,
    bytes: f64,
}

fn path_cost(pop: &PreparedPopulation, key: Key, exp: &Expected, r: &mut Report) -> PathCost {
    let cfg = eval_config(key, HOT_BUDGET, 1);
    if key.compiled {
        // Record the schedules first, as the server's set-up does, so the
        // timed sweep replays them.
        let _ = pop.evaluate(&cfg);
    }
    let records = pop.records();
    let mut c = PathCost::default();
    let t0 = Instant::now();
    let mut mark = t0;
    set_counting(true);
    let mut alloc_mark = allocs();
    let mut seq = 0usize;
    let mut ok = true;
    let eval = pop
        .evaluate_batched(&cfg, BATCH_RECORDS, |first, results| {
            let now = Instant::now();
            c.kernel_s += now.duration_since(mark).as_secs_f64();
            c.kernel_allocs += allocs() - alloc_mark;
            let frame = batch_frame(0, seq, first, &batch_payload(records, first, results));
            ok &= exp.batches.get(seq).is_some_and(|w| *w == frame);
            c.bytes += (frame.len() + 4) as f64;
            seq += 1;
            mark = Instant::now();
            c.render_batch_s += mark.duration_since(now).as_secs_f64();
            alloc_mark = allocs();
            true
        })
        .expect("an always-continue sweep completes");
    c.assemble_s = mark.elapsed().as_secs_f64();
    set_counting(false);
    let (done, secs) = timed(|| done_frame(0, &eval, false, &[22]));
    c.render_done_s = secs;
    c.bytes += (done.len() + 4) as f64;
    r.check(ok && done == exp.done[0]);
    c.tables_s = timed(|| chapter7_tables(&eval, 22)).1;
    let busy: Vec<f64> = eval.sweep.workers.iter().map(|w| w.busy_secs).collect();
    c.busy_s = busy.iter().sum();
    c.threads = busy.len() as f64;
    c.mean_busy_s = c.busy_s / c.threads.max(1.0);
    c.max_busy_s = busy.iter().copied().fold(0.0, f64::max);
    c.steals = eval.sweep.workers.iter().map(|w| w.steals).sum::<u64>() as f64;
    c.runs = eval.samples.len() as f64;
    c.events = eval.samples.iter().map(|s| s.report.events).sum::<u64>() as f64;
    c.skipped = eval.samples.iter().map(|s| s.report.events_skipped).sum::<u64>() as f64;
    c.declines = compile_declines(&eval) as f64;
    c
}

/// Mean of `f` over `costs`, each weighted by its key's share of the
/// mix.
fn mean(costs: &[(f64, PathCost)], f: impl Fn(&PathCost) -> f64) -> f64 {
    let total: f64 = costs.iter().map(|(w, _)| w).sum();
    costs.iter().map(|(w, c)| w * f(c)).sum::<f64>() / total
}

/// `javaflow_server_<name>_total` from a Prometheus page.
fn counter(page: &str, name: &str) -> f64 {
    let prefix = format!("javaflow_server_{name}_total ");
    page.lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// Per-request phases from the server's `--log-json` span lines.
fn spans(log: &Path) -> HashMap<u64, [f64; 6]> {
    const PHASES: [&str; 6] = ["read", "parse", "queue", "prepare", "execute", "stream"];
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let mut out = HashMap::new();
    for line in text.lines().filter(|l| l.contains("\"event\":\"request\"")) {
        let Ok(j) = Json::parse(line) else { continue };
        if j.get("kind").and_then(Json::as_str) != Some("sweep") {
            continue;
        }
        let Some(id) = j.get("id").and_then(Json::as_u64) else { continue };
        let mut ms = [0.0; 6];
        for (p, name) in PHASES.iter().enumerate() {
            ms[p] = j.get(&format!("{name}_us")).and_then(Json::as_u64).unwrap_or(0) as f64 / 1e3;
        }
        out.insert(id, ms);
    }
    out
}

/// The traced run: in-process layer costs, then the same open-loop
/// schedule against an untraced server and a traced one (`--log-json`
/// span lines plus `/metrics` scrapes); their latency difference is the
/// tracing overhead.
fn trace(
    args: &Args,
    spec: &Spec,
    pops: &HashMap<usize, PreparedPopulation>,
    exp: &Arc<Vec<Expected>>,
    plan: Vec<usize>,
    due_s: &[f64],
    r: &mut Report,
) -> Result<(), String> {
    let n_open = due_s.len() as u64;
    // Set-up layers: every population size the mix uses, on the
    // server's one thread.
    let mut sizes: Vec<usize> = spec.keys.iter().map(|k| k.synthetic).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let (build_s, prep_s, prep_allocs) = setup_layers(&sizes, 1, 3);
    r.metric("population.build_s", build_s);
    r.metric("prepare.s", prep_s);
    r.metric("prepare.allocs", prep_allocs as f64);

    let costs: Vec<(Key, f64, PathCost)> = spec
        .keys
        .iter()
        .enumerate()
        .map(|(k, key)| {
            let share = spec.block.iter().filter(|&&b| b == k).count() as f64;
            // The pass with the median kernel time of three.
            let mut passes: Vec<PathCost> =
                (0..3).map(|_| path_cost(&pops[&key.synthetic], *key, &exp[k], r)).collect();
            passes.sort_by(|a, b| a.kernel_s.total_cmp(&b.kernel_s));
            (*key, share, passes[1])
        })
        .collect();
    // Replayed keys feed `compile.replay_s`; the kernel metrics describe
    // interpreted sweeps only (a replay pops no events).
    let replayed = |k: &Key| k.compiled && k.net == NetKind::Ideal;
    let pick = |keep: &dyn Fn(&Key) -> bool| -> Vec<(f64, PathCost)> {
        costs.iter().filter(|(k, _, _)| keep(k)).map(|(_, w, c)| (*w, *c)).collect()
    };
    let interp = pick(&|k| !replayed(k));
    let replay = pick(&replayed);
    let all = pick(&|_| true);
    let kernel_busy = mean(&interp, |c| c.busy_s);
    let events = mean(&interp, |c| c.events);
    r.metric("kernel.busy_s", kernel_busy);
    r.metric("kernel.runs", mean(&interp, |c| c.runs));
    r.metric("kernel.events", events);
    r.metric("kernel.events_skipped", mean(&interp, |c| c.skipped));
    r.metric("kernel.ns_per_event", kernel_busy * 1e9 / events);
    r.metric("kernel.allocs_per_run", mean(&interp, |c| c.kernel_allocs as f64 / c.runs));
    r.metric(
        "compile.replay_s",
        if replay.is_empty() { 0.0 } else { mean(&replay, |c| c.kernel_s) },
    );
    r.metric("compile.declines", mean(&all, |c| c.declines));
    r.metric("parallel.utilization", mean(&all, |c| c.busy_s / (c.threads * c.kernel_s)));
    r.metric("parallel.imbalance", mean(&all, |c| c.max_busy_s / c.mean_busy_s));
    r.metric("parallel.steals", mean(&all, |c| c.steals));
    r.metric("assemble.s", mean(&all, |c| c.assemble_s));
    r.metric("tables.render_s", mean(&all, |c| c.tables_s));
    r.metric("render.batch_s", mean(&all, |c| c.render_batch_s));
    r.metric("render.done_s", mean(&all, |c| c.render_done_s));
    r.metric("render.bytes_per_request", mean(&all, |c| c.bytes));

    const PARSE_REPS: usize = 2000;
    let defaults = EvalConfig { threads: 1, ..EvalConfig::default() };
    let payloads: Vec<String> = spec
        .keys
        .iter()
        .enumerate()
        .map(|(k, key)| request_json(k as u64, *key, HOT_BUDGET))
        .collect();
    let (parsed, parse_total) = timed(|| {
        (0..PARSE_REPS)
            .filter(|i| parse_request(payloads[i % payloads.len()].as_bytes(), &defaults).is_ok())
            .count()
    });
    r.check(parsed == PARSE_REPS);
    r.metric("parse.s", parse_total / PARSE_REPS as f64);

    // Untraced, then traced, on the same schedule.
    let (server, _) = set_up(args, spec, exp, None, r)?;
    let mut g = Generator::new(&server, spec, plan.clone(), Arc::clone(exp), args.seed, 0)?;
    let mut untraced = g.open_loop(0..n_open, due_s);
    g.finish();
    r.check(server.shutdown());

    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let log = args.out_dir.join(format!("{stem}.spans.jsonl"));
    let (server, _) = set_up(args, spec, exp, Some(&log), r)?;
    let before = server.scrape()?;
    let mut g = Generator::new(&server, spec, plan, Arc::clone(exp), args.seed, 0)?;
    let mut traced = g.open_loop(0..n_open, due_s);
    let after = server.scrape()?;
    g.finish();
    r.check(server.shutdown());
    write(&args.out_dir.join(format!("{stem}.before.prom")), &before)?;
    write(&args.out_dir.join(format!("{stem}.metrics.prom")), &after)?;
    for ol in [&untraced, &traced] {
        r.attempted += ol.attempted;
        r.failed += ol.failed;
    }

    let spans = spans(&log);
    let names = [
        "server.read_p50_ms",
        "server.parse_p50_ms",
        "server.queue_p50_ms",
        "server.prepare_p50_ms",
        "server.execute_p50_ms",
        "server.stream_p50_ms",
    ];
    let mut unattributed = Vec::new();
    let mut phase: [Vec<f64>; 6] = Default::default();
    let completed: Vec<(u64, f64)> =
        (0u64..).zip(traced.latency_ms.iter().copied()).filter(|(_, ms)| ms.is_finite()).collect();
    for &(id, latency) in &completed {
        let Some(ms) = spans.get(&id) else { continue };
        for p in 0..6 {
            phase[p].push(ms[p]);
        }
        unattributed.push(latency - ms.iter().sum::<f64>());
    }
    r.check(unattributed.len() == completed.len() && !unattributed.is_empty());
    let phase_ms = phase.map(|mut v| if v.is_empty() { f64::NAN } else { median(&mut v) });
    for (name, ms) in names.into_iter().zip(phase_ms) {
        r.metric(name, ms);
    }
    let d = |name: &str| counter(&after, name) - counter(&before, name);
    r.metric("server.coalesce_ratio", d("coalesced_requests") / d("accepted"));
    r.metric("server.sweeps", d("sweeps"));
    r.metric("server.rejected", d("rejected_busy") + d("rejected_drain"));
    let unattributed_ms =
        if unattributed.is_empty() { f64::NAN } else { median(&mut unattributed) };
    r.metric("ledger.unattributed_ms", unattributed_ms);
    let p50_u = quantile(&mut untraced.latency_ms, 0.5);
    let p50_t = quantile(&mut traced.latency_ms, 0.5);
    r.metric("trace.overhead_pct", (p50_t - p50_u) / p50_u * 100.0);

    let mut rows: Vec<String> = names
        .iter()
        .zip(phase_ms)
        .map(|(name, ms)| {
            format!(
                "{{\"layer\": \"{name}\", \"ms\": {}, \"share\": {}}}",
                num(ms),
                num(ms / p50_t)
            )
        })
        .collect();
    rows.push(format!(
        "{{\"layer\": \"unattributed\", \"ms\": {}, \"share\": {}}}",
        num(unattributed_ms),
        num(unattributed_ms / p50_t)
    ));
    let per_key: Vec<String> = costs
        .iter()
        .map(|(k, _, c)| {
            format!(
                "{{\"key\": \"{}\", \"kernel_s\": {}, \"kernel_allocs\": {}, \"render_batch_s\": {}, \"assemble_s\": {}, \"render_done_s\": {}, \"tables_s\": {}, \"bytes\": {}}}",
                k.label(),
                num(c.kernel_s),
                c.kernel_allocs,
                num(c.render_batch_s),
                num(c.assemble_s),
                num(c.render_done_s),
                num(c.tables_s),
                num(c.bytes),
            )
        })
        .collect();
    r.detail(
        "ledger",
        format!(
            "{{\"unit\": \"one request, medians over the traced open-loop phase\", \"latency_p50_ms\": {}, \
             \"untraced_latency_p50_ms\": {}, \"layers\": [{}], \"in_process_per_key\": [{}]}}",
            num(p50_t),
            num(p50_u),
            rows.join(", "),
            per_key.join(", "),
        ),
    );
    r.detail("metrics_scrape", format!("\"{stem}.metrics.prom\""));
    late_detail(r, &mut traced.late_ms);
    Ok(())
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

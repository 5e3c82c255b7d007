//! The server runtime: listeners, admission, coalescing, sweeping, drain.
//!
//! One sweeper thread owns all simulation work; reader threads only
//! parse, validate, and enqueue. The admission queue is bounded —
//! saturation is a `429` response, not an unbounded backlog — and
//! compatible queued requests (same [`SweepKey`]) are coalesced into a
//! single shared sweep whose batch frames fan out to every subscriber.
//! A group whose key is in the bounded [`ResultCache`] streams from the
//! stored evaluation instead, through the same frame path; such groups
//! are also served between a running sweep's batches, so they never wait
//! behind it, and so is a repeated key's shorter admitting sweep.
//! Shutdown is a drain: no new sweeps are admitted (`503`), everything
//! already queued streams to completion, then the threads exit.
//!
//! Every framed request carries a [`RequestSpan`] from its first byte to
//! its terminal frame; finished spans fold into the per-phase histograms
//! of [`ServerMetrics`], land in the always-on [`FlightRecorder`] ring,
//! and (with `log_json`) emit one structured log line each. An optional
//! HTTP sidecar listener ([`ServerConfig::metrics_addr`]) exposes
//! `/metrics` (Prometheus text), `/healthz`, and `/varz`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use javaflow_core::{EvalConfig, Evaluation, PreparedPopulation};
use javaflow_fabric::NetKind;

use crate::cache::{ResultCache, MAX_ENTRIES, MAX_SAMPLES};
use crate::flight::FlightRecorder;
use crate::metrics::{Gauges, ServerMetrics};
use crate::protocol::{
    batch_frame_head, batch_payload, done_frame, error_frame, for_each_batch_payload,
    parse_request, read_frame_timed, write_frame_parts, FrameError, Request, SweepRequest,
    BATCH_FRAME_TAIL, MAX_REQUEST_FRAME,
};
use crate::span::{
    RequestSpan, OUTCOME_CLIENT_GONE, PHASE_EXECUTE, PHASE_PARSE, PHASE_PREPARE, PHASE_QUEUE,
    PHASE_READ, PHASE_STREAM,
};

/// Server tuning knobs. `Default` is suitable for tests and local use:
/// an ephemeral TCP port, no Unix socket, a 32-deep admission queue.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP bind address; port 0 picks an ephemeral port (read it back
    /// with [`Server::addr`]).
    pub addr: String,
    /// Optional Unix-socket path to also listen on. A stale socket file
    /// at this path is removed before binding.
    pub uds_path: Option<PathBuf>,
    /// Optional HTTP bind address for the observability sidecar
    /// (`/metrics`, `/healthz`, `/varz`); port 0 picks an ephemeral port
    /// (read it back with [`Server::metrics_addr`]).
    pub metrics_addr: Option<String>,
    /// Admission-queue capacity; a sweep arriving at a full queue is
    /// refused with `429`.
    pub queue_cap: usize,
    /// Records per streamed batch (and therefore the deadline- and
    /// cancellation-check granularity).
    pub batch_records: usize,
    /// Default sweep threads when a request does not ask for a count.
    pub threads: usize,
    /// Emit one structured JSON log line per finished request on stderr.
    pub log_json: bool,
    /// Dump the flight recorder to this Chrome-trace file whenever a
    /// request fails (`4xx`/`5xx`/client-gone), throttled to once per
    /// second. `None` disables failure dumps; SIGUSR1 dumps are driven by
    /// the binary regardless.
    pub flight_dump_on_error: Option<PathBuf>,
    /// Master switch for span accounting, the flight recorder, and log
    /// lines. On by default; `tables --bench-serve` turns it off to
    /// measure the untraced floor of the span-overhead guard, which fails
    /// above 10%.
    pub observability: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            uds_path: None,
            metrics_addr: None,
            queue_cap: 32,
            batch_records: 16,
            threads: EvalConfig::default().threads,
            log_json: false,
            flight_dump_on_error: None,
            observability: true,
        }
    }
}

/// Largest accepted `synthetic` population size; a larger request is a
/// `400`.
const SYNTHETIC_CAP: usize = 5000;
/// Flight-recorder ring capacity (entries). The ring is preallocated at
/// startup and recording never allocates.
const FLIGHT_CAPACITY: usize = 1024;
/// Most prepared populations the server keeps, least recently used
/// evicted first. One synthetic-1000 population holds about 11 MB.
const PREPARED_POPULATIONS: usize = 4;

/// The coalescing key: two queued sweeps with equal keys produce
/// byte-identical batch payloads, so they share one sweep. `threads` is
/// deliberately absent — results never depend on it (the shared sweep
/// takes the group's largest ask). `Ord` keeps the per-key sweep
/// counters in a stable order on the `/metrics` page.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct SweepKey {
    pub(crate) synthetic: usize,
    pub(crate) max_mesh_cycles: u64,
    pub(crate) net_contended: bool,
}

impl SweepKey {
    fn of(req: &SweepRequest) -> SweepKey {
        SweepKey {
            synthetic: req.synthetic,
            max_mesh_cycles: req.max_mesh_cycles,
            net_contended: req.net == NetKind::Contended,
        }
    }

    /// Prometheus label set for the per-key sweep counter.
    pub(crate) fn prom_labels(&self) -> String {
        format!(
            "synthetic=\"{}\",max_mesh_cycles=\"{}\",net=\"{}\"",
            self.synthetic,
            self.max_mesh_cycles,
            if self.net_contended { "contended" } else { "ideal" },
        )
    }
}

/// One admitted sweep request waiting for (or riding) a sweep.
struct Job {
    id: u64,
    key: SweepKey,
    threads: Option<usize>,
    tables: Vec<u32>,
    deadline: Option<Instant>,
    writer: Arc<ConnWriter>,
    enqueued: Instant,
    span: RequestSpan,
}

/// A connection stream over either transport.
enum AnyStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl AnyStream {
    fn try_clone(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
        }
    }

    fn shutdown(&self) -> std::io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            AnyStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write_vectored(bufs),
            AnyStream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

/// The write half of a connection, shared between the reader thread (for
/// immediate responses) and the sweeper (for streamed frames). A failed
/// write latches `closed`; later frames to this subscriber are dropped
/// without touching the socket.
struct ConnWriter {
    stream: Mutex<AnyStream>,
    closed: AtomicBool,
}

impl ConnWriter {
    /// Closes the underlying socket in both directions, unblocking any
    /// parked read on the other half.
    fn shutdown(&self) {
        let _ = self.stream.lock().expect("writer lock").shutdown();
        self.closed.store(true, Ordering::Relaxed);
    }

    /// Writes one frame; `false` once the connection is dead.
    fn send(&self, payload: &str) -> bool {
        self.send_parts(&[payload.as_bytes()])
    }

    /// Writes one frame whose payload is the concatenation of `parts`
    /// (see [`write_frame_parts`]); `false` once the connection is dead.
    fn send_parts(&self, parts: &[&[u8]]) -> bool {
        if self.closed.load(Ordering::Relaxed) {
            return false;
        }
        let mut s = self.stream.lock().expect("writer lock");
        match write_frame_parts(&mut *s, parts) {
            Ok(()) => true,
            Err(_) => {
                self.closed.store(true, Ordering::Relaxed);
                false
            }
        }
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    /// Request-level defaults handed to the parser.
    defaults: EvalConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// Set (under the queue lock) when draining; checked under the same
    /// lock at admission so no job can slip in behind the sweeper's exit.
    pub(crate) shutdown: AtomicBool,
    /// Set by the sweeper once the drain is complete. The listeners stay
    /// up until then so late requests get an explicit `503`, not a
    /// connection refusal.
    pub(crate) drained: AtomicBool,
    in_flight: AtomicUsize,
    /// The one metrics store: counters, histograms, the simulation
    /// registry and the per-key sweep counts.
    pub(crate) metrics: Mutex<ServerMetrics>,
    /// The always-on flight recorder ring.
    flight: Mutex<FlightRecorder>,
    /// Monotonic zero for every span timestamp in this process.
    pub(crate) epoch: Instant,
    /// µs-since-epoch of the last failure-triggered flight dump, for the
    /// once-per-second throttle.
    last_error_dump_us: AtomicU64,
    /// Prepared populations keyed by synthetic size, least recently
    /// used first; at most [`PREPARED_POPULATIONS`].
    prepared: Mutex<VecDeque<(usize, Arc<PreparedPopulation>)>>,
    /// Finished sweeps kept for repeat keys.
    results: Mutex<ResultCache<SweepKey>>,
    /// Live connections, shut down at the end of a drain to unblock
    /// parked reader threads. Readers deregister themselves on exit.
    conns: Mutex<Vec<Arc<ConnWriter>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn request_shutdown(&self) {
        let _guard = self.queue.lock().expect("queue lock");
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Microseconds since the server epoch.
    pub(crate) fn now_us(&self) -> u64 {
        crate::span::as_micros_u64(self.epoch.elapsed())
    }

    /// Reads the gauges the metrics pages show from their owners, one
    /// lock at a time; the caller takes the metrics lock afterwards.
    pub(crate) fn gauges(&self) -> Gauges {
        let queue_depth = self.queue.lock().expect("queue lock").len() as u64;
        let cache = {
            let r = self.results.lock().expect("results lock");
            [r.hits(), r.misses(), r.len() as u64, r.samples() as u64]
        };
        let flight = {
            let f = self.flight.lock().expect("flight lock");
            [f.len() as u64, f.dropped()]
        };
        Gauges {
            queue_depth,
            in_flight: self.in_flight.load(Ordering::SeqCst) as u64,
            draining: self.shutdown.load(Ordering::SeqCst),
            cache,
            flight,
        }
    }

    /// A request reached its terminal point: fold the span into the
    /// per-phase histograms, record it in the flight ring, emit the log
    /// line, and — for failures, when configured — dump the recorder.
    pub(crate) fn finish_span(&self, span: &RequestSpan) {
        if !self.cfg.observability {
            return;
        }
        self.metrics.lock().expect("metrics lock").observe_span(span);
        self.flight.lock().expect("flight lock").push(*span);
        if self.cfg.log_json {
            eprintln!("{}", span.render_log_json());
        }
        if span.outcome != 200 {
            if let Some(path) = &self.cfg.flight_dump_on_error {
                let now = self.now_us();
                let last = self.last_error_dump_us.load(Ordering::Relaxed);
                if now.saturating_sub(last) >= 1_000_000 || last == 0 {
                    self.last_error_dump_us.store(now.max(1), Ordering::Relaxed);
                    if let Err(e) = self.dump_flight(path) {
                        eprintln!("javaflow-serve: flight dump to {} failed: {e}", path.display());
                    }
                }
            }
        }
    }

    /// Writes the flight ring as a Chrome-trace JSON file.
    pub(crate) fn dump_flight(&self, path: &Path) -> std::io::Result<()> {
        let json = self.flight.lock().expect("flight lock").chrome_json();
        std::fs::write(path, json)
    }
}

/// Renders the framed `metrics` response body — also served verbatim at
/// `/varz` by the HTTP sidecar.
pub(crate) fn metrics_frame_json(shared: &Shared, id: u64) -> String {
    let gauges = shared.gauges();
    shared.metrics.lock().expect("metrics lock").render_json(&gauges, id)
}

/// A running `javaflow-serve` instance.
///
/// ```no_run
/// use javaflow_server::{Server, ServerConfig};
///
/// let server = Server::start(ServerConfig::default()).unwrap();
/// println!("listening on {}", server.addr());
/// server.request_shutdown();
/// server.join().unwrap();
/// ```
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("metrics_addr", &self.metrics_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listeners, spawns the accept and sweeper threads (plus
    /// the HTTP sidecar when configured), and returns immediately.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let uds = match &cfg.uds_path {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let http = match &cfg.metrics_addr {
            Some(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = match &http {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let defaults = EvalConfig { threads: cfg.threads, ..EvalConfig::default() };
        let shared = Arc::new(Shared {
            cfg,
            defaults,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            metrics: Mutex::new(ServerMetrics::default()),
            flight: Mutex::new(FlightRecorder::new(FLIGHT_CAPACITY)),
            epoch: Instant::now(),
            last_error_dump_us: AtomicU64::new(0),
            prepared: Mutex::new(VecDeque::with_capacity(PREPARED_POPULATIONS)),
            results: Mutex::new(ResultCache::new(MAX_ENTRIES, MAX_SAMPLES)),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::new();
        {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                accept_loop(&shared, move || {
                    let (s, _) = listener.accept()?;
                    // Frames are written whole; Nagle could only delay them.
                    let _ = s.set_nodelay(true);
                    Ok(AnyStream::Tcp(s))
                });
            }));
        }
        if let Some(l) = uds {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                accept_loop(&shared, move || l.accept().map(|(s, _)| AnyStream::Unix(s)));
            }));
        }
        if let Some(l) = http {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || crate::http::serve(&shared, &l)));
        }
        {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || sweeper_loop(&shared)));
        }
        Ok(Server { shared, addr, metrics_addr, handles })
    }

    /// The bound TCP address (the actual port when `addr` asked for 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP sidecar address, when one was configured.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Begins a graceful drain: new sweeps get `503`, queued sweeps run
    /// to completion, then the worker threads exit. Idempotent; also
    /// triggered by a client `shutdown` request.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Whether a drain has been requested (by [`Server::request_shutdown`]
    /// or a client `shutdown` frame).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Writes the flight recorder's current ring to `path` as a
    /// Chrome-trace / Perfetto JSON file (the SIGUSR1 dump).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn dump_flight(&self, path: &Path) -> std::io::Result<()> {
        self.shared.dump_flight(path)
    }

    /// The flight recorder's current ring as Chrome-trace JSON.
    #[must_use]
    pub fn flight_chrome_json(&self) -> String {
        self.shared.flight.lock().expect("flight lock").chrome_json()
    }

    /// Waits for the drain to finish: joins the accept and sweeper
    /// threads, unblocks and joins every reader, removes the Unix socket
    /// file. Call after (or concurrently with) a shutdown request.
    pub fn join(mut self) -> std::io::Result<()> {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        for c in self.shared.conns.lock().expect("conns lock").drain(..) {
            c.shutdown();
        }
        let readers: Vec<_> = self.shared.readers.lock().expect("readers lock").drain(..).collect();
        for h in readers {
            let _ = h.join();
        }
        if let Some(path) = &self.shared.cfg.uds_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Polls a nonblocking listener until shutdown, handing each accepted
/// stream its own reader thread.
fn accept_loop(shared: &Arc<Shared>, mut accept: impl FnMut() -> std::io::Result<AnyStream>) {
    while !shared.drained.load(Ordering::SeqCst) {
        match accept() {
            Ok(stream) => {
                let Ok(read_half) = stream.try_clone() else { continue };
                let writer = Arc::new(ConnWriter {
                    stream: Mutex::new(stream),
                    closed: AtomicBool::new(false),
                });
                shared.conns.lock().expect("conns lock").push(Arc::clone(&writer));
                let shared2 = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    let mut reader = read_half;
                    reader_loop(&shared2, &mut reader, &writer);
                    // Surface EOF to the peer even while queued jobs still
                    // hold `Arc`s to this writer, and drop the registry
                    // entry so long-lived servers don't accumulate one
                    // per connection ever served.
                    writer.shutdown();
                    shared2.conns.lock().expect("conns lock").retain(|w| !Arc::ptr_eq(w, &writer));
                });
                let mut readers = shared.readers.lock().expect("readers lock");
                // Drop the handles of readers that have exited, so the
                // list holds one handle per live connection rather than
                // one per connection ever served.
                readers.retain(|h| !h.is_finished());
                readers.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Reads frames off one connection until EOF, error, or a protocol
/// violation that closes it.
fn reader_loop(shared: &Arc<Shared>, reader: &mut AnyStream, writer: &Arc<ConnWriter>) {
    loop {
        match read_frame_timed(reader, MAX_REQUEST_FRAME) {
            Ok(None) => break,
            Ok(Some((payload, read_dur))) => {
                let mut span = RequestSpan {
                    start_us: shared.now_us().saturating_sub(crate::span::as_micros_u64(read_dur)),
                    ..RequestSpan::default()
                };
                span.add_phase(PHASE_READ, read_dur);
                handle_request(shared, writer, &payload, span);
            }
            Err(FrameError::Oversized(n)) => {
                shared.metrics.lock().expect("metrics lock").bad_requests += 1;
                // The payload was never read, so the span has no
                // measured phases — record the failure itself.
                let span = RequestSpan {
                    start_us: shared.now_us(),
                    outcome: 413,
                    ..RequestSpan::default()
                };
                let message =
                    format!("frame of {n} bytes exceeds the {MAX_REQUEST_FRAME} byte limit");
                respond(shared, writer, &span, &error_frame(0, 413, &message));
                break;
            }
            Err(FrameError::Truncated | FrameError::Io(_)) => break,
        }
        if writer.closed.load(Ordering::Relaxed) {
            break;
        }
    }
}

/// Answers a request with one frame and ends its span. The span is
/// recorded first, so a client that has read the response finds the
/// request in the metrics and the flight ring.
fn respond(shared: &Shared, writer: &ConnWriter, span: &RequestSpan, frame: &str) {
    shared.finish_span(span);
    writer.send(frame);
}

fn handle_request(
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter>,
    payload: &[u8],
    mut span: RequestSpan,
) {
    let parse_started = Instant::now();
    let parsed = parse_request(payload, &shared.defaults);
    span.add_phase(PHASE_PARSE, parse_started.elapsed());
    match parsed {
        Err(e) => {
            shared.metrics.lock().expect("metrics lock").bad_requests += 1;
            span.id = e.id;
            span.outcome = e.code as u16;
            respond(shared, writer, &span, &error_frame(e.id, e.code, &e.message));
        }
        Ok(Request::Ping { id }) => {
            span.id = id;
            span.kind = b'p';
            span.outcome = 200;
            respond(shared, writer, &span, &format!("{{\"type\": \"pong\", \"id\": {id}}}"));
        }
        Ok(Request::Shutdown { id }) => {
            span.id = id;
            span.kind = b'x';
            span.outcome = 200;
            let ack = format!("{{\"type\": \"shutdown_ack\", \"id\": {id}}}");
            respond(shared, writer, &span, &ack);
            shared.request_shutdown();
        }
        Ok(Request::Metrics { id }) => {
            let frame = metrics_frame_json(shared, id);
            span.id = id;
            span.kind = b'm';
            span.outcome = 200;
            respond(shared, writer, &span, &frame);
        }
        Ok(Request::Sweep(req)) => {
            span.id = req.id;
            span.kind = b's';
            span.synthetic = req.synthetic as u64;
            span.max_mesh_cycles = req.max_mesh_cycles;
            span.net_contended = req.net == NetKind::Contended;
            admit(shared, writer, req, span);
        }
    }
}

/// Admission control: validate against server limits, refuse when
/// draining (`503`) or saturated (`429`), otherwise enqueue and ack.
fn admit(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, req: SweepRequest, mut span: RequestSpan) {
    if req.synthetic > SYNTHETIC_CAP {
        shared.metrics.lock().expect("metrics lock").bad_requests += 1;
        span.outcome = 400;
        let message = format!("`synthetic` exceeds the server cap of {SYNTHETIC_CAP}");
        respond(shared, writer, &span, &error_frame(req.id, 400, &message));
        return;
    }
    let id = req.id;
    {
        let mut q = shared.queue.lock().expect("queue lock");
        if shared.shutdown.load(Ordering::SeqCst) {
            drop(q);
            shared.metrics.lock().expect("metrics lock").rejected_drain += 1;
            span.outcome = 503;
            respond(shared, writer, &span, &error_frame(id, 503, "server is draining"));
            return;
        }
        if q.len() >= shared.cfg.queue_cap {
            drop(q);
            shared.metrics.lock().expect("metrics lock").rejected_busy += 1;
            span.outcome = 429;
            respond(shared, writer, &span, &error_frame(id, 429, "admission queue is full"));
            return;
        }
        let now = Instant::now();
        q.push_back(Job {
            id,
            key: SweepKey::of(&req),
            threads: req.threads,
            tables: req.tables,
            deadline: (req.deadline_ms > 0).then(|| now + Duration::from_millis(req.deadline_ms)),
            writer: Arc::clone(writer),
            enqueued: now,
            span,
        });
        // Ack under the queue lock: the sweeper cannot pop (and start
        // streaming batches) until admission's frame is on the wire, so
        // `accepted` always precedes the first `batch` on a connection.
        writer.send(&format!(
            "{{\"type\": \"accepted\", \"id\": {id}, \"queue_depth\": {}}}",
            q.len()
        ));
    }
    shared.queue_cv.notify_one();
    shared.metrics.lock().expect("metrics lock").accepted += 1;
}

/// The sweeper: pop the oldest job, coalesce everything compatible with
/// it, run one shared sweep, stream to all subscribers. Exits when the
/// queue is empty after a shutdown request — a drain, not an abort.
fn sweeper_loop(shared: &Arc<Shared>) {
    loop {
        let group: Vec<Job> = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(group) = pop_group(&mut q) {
                    break group;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    drop(q);
                    shared.drained.store(true, Ordering::SeqCst);
                    return;
                }
                q = shared.queue_cv.wait(q).expect("queue lock");
            }
        };
        shared.in_flight.store(group.len(), Ordering::SeqCst);
        run_group(shared, group, false);
        shared.in_flight.store(0, Ordering::SeqCst);
    }
}

/// Pops the oldest job and every queued job with the same key.
fn pop_group(q: &mut VecDeque<Job>) -> Option<Vec<Job>> {
    take_group(q, 0)
}

/// Takes the job at `i` and every later queued job with the same key.
fn take_group(q: &mut VecDeque<Job>, i: usize) -> Option<Vec<Job>> {
    let first = q.remove(i)?;
    let mut group = vec![first];
    let mut j = i;
    while j < q.len() {
        if q[j].key == group[0].key {
            group.extend(q.remove(j));
        } else {
            j += 1;
        }
    }
    Some(group)
}

/// Runs `group` between the batches of the sweeper's current sweep,
/// counted in the in-flight gauge alongside it.
fn run_nested(shared: &Arc<Shared>, group: Vec<Job>) {
    let n = group.len();
    shared.in_flight.fetch_add(n, Ordering::SeqCst);
    run_group(shared, group, true);
    shared.in_flight.fetch_sub(n, Ordering::SeqCst);
}

/// Serves, from the result cache, every queued job whose key is stored
/// there; the sweeper calls it between a sweep's batches, so a request
/// that needs no simulation never waits out a whole sweep. Only jobs
/// queued at the call are taken, so a stream of hits cannot stall the
/// sweep that called it.
fn serve_waiting_hits(shared: &Arc<Shared>) {
    let mut hits = VecDeque::new();
    {
        let mut q = shared.queue.lock().expect("queue lock");
        let results = shared.results.lock().expect("results lock");
        let mut i = 0;
        while i < q.len() {
            if results.contains(&q[i].key) {
                hits.extend(q.remove(i));
            } else {
                i += 1;
            }
        }
    }
    while let Some(group) = pop_group(&mut hits) {
        run_nested(shared, group);
    }
}

/// Runs, ahead of the rest of the running sweep (key `running`), the
/// oldest waiting group whose key is due to be stored and whose first
/// sweep took less than the `remaining` time the running sweep expects
/// to need: shortest remaining work first, so a short sweep that turns
/// every later request for its key into a hit does not wait out a long
/// one. Keys seen for the first time never go ahead.
fn run_shorter_admitting_sweep(shared: &Arc<Shared>, running: &SweepKey, remaining: Duration) {
    let group = {
        let mut q = shared.queue.lock().expect("queue lock");
        let results = shared.results.lock().expect("results lock");
        let shorter = q.iter().position(|j| {
            j.key != *running && results.first_sweep_time(&j.key).is_some_and(|t| t < remaining)
        });
        drop(results);
        shorter.and_then(|i| take_group(&mut q, i))
    };
    if let Some(group) = group {
        run_nested(shared, group);
    }
}

/// One subscriber to a (possibly shared) sweep.
struct Sub {
    job: Job,
    seq: usize,
    alive: bool,
}

/// Serves one coalesced group: from the result cache when its key is
/// stored there, otherwise by sweeping. Both paths stream through
/// [`stream_batch`] and finish through [`finish_group`], so a cached
/// response has the same frames, deadline checks, and disconnect
/// handling as a swept one. A `nested` group runs between the batches of
/// another sweep and lets no further sweep go ahead of its own.
fn run_group(shared: &Arc<Shared>, mut group: Vec<Job>, nested: bool) {
    let coalesced = group.len() > 1;
    {
        let picked_up = Instant::now();
        let mut m = shared.metrics.lock().expect("metrics lock");
        if coalesced {
            m.coalesced_requests += group.len() as u64 - 1;
        }
        for job in &mut group {
            let waited = picked_up.duration_since(job.enqueued);
            m.observe_queue_wait(waited);
            job.span.add_phase(PHASE_QUEUE, waited);
            job.span.coalesced = coalesced;
        }
    }
    let mut subs: Vec<Sub> = Vec::with_capacity(group.len());
    for job in group {
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            shared.metrics.lock().expect("metrics lock").cancelled_deadline += 1;
            let mut span = job.span;
            span.outcome = 504;
            let frame = error_frame(job.id, 504, "deadline expired before the sweep started");
            respond(shared, &job.writer, &span, &frame);
        } else {
            subs.push(Sub { job, seq: 0, alive: true });
        }
    }
    if subs.is_empty() {
        return;
    }
    let key = subs[0].job.key.clone();
    let cached = shared.results.lock().expect("results lock").get(&key);
    let eval = if let Some(eval) = cached {
        for sub in &mut subs {
            sub.job.span.cached = true;
        }
        let streamed = for_each_batch_payload(&eval, shared.cfg.batch_records, |first, payload| {
            stream_batch(shared, &mut subs, first, &payload)
        });
        if !streamed {
            return;
        }
        eval
    } else {
        let Some(eval) = sweep(shared, &key, &mut subs, nested) else { return };
        eval
    };
    finish_group(shared, &mut subs, &eval, coalesced);
}

/// Prepares (or fetches) the population and sweeps it for `key`,
/// streaming every batch to `subs` as it completes. Between batches the
/// sweeper serves waiting cache hits and, unless this sweep is itself
/// `nested`, a shorter admitting sweep
/// ([`run_shorter_admitting_sweep`]) while less time has passed than its
/// own key's first sweep took. A finished sweep is folded into the
/// simulation registry, counted against its key, and offered to the
/// result cache with the time it took itself; `None` means every
/// subscriber left and the sweep was cancelled.
fn sweep(
    shared: &Arc<Shared>,
    key: &SweepKey,
    subs: &mut [Sub],
    nested: bool,
) -> Option<Arc<Evaluation>> {
    shared.metrics.lock().expect("metrics lock").sweeps += 1;
    let prepare_started = Instant::now();
    let pop = prepared_population(shared, key.synthetic);
    let prepare_dur = prepare_started.elapsed();
    for sub in subs.iter_mut() {
        sub.job.span.add_phase(PHASE_PREPARE, prepare_dur);
    }
    let threads = subs.iter().filter_map(|s| s.job.threads).max().unwrap_or(shared.cfg.threads);
    let cfg = EvalConfig {
        synthetic_count: key.synthetic,
        max_mesh_cycles: key.max_mesh_cycles,
        net: if key.net_contended { NetKind::Contended } else { NetKind::Ideal },
        threads,
        ..EvalConfig::default()
    };
    let records = pop.records();
    let started = Instant::now();
    let expected = if nested {
        None
    } else {
        shared.results.lock().expect("results lock").first_sweep_time(key)
    };
    let mut gave_way = Duration::ZERO;
    let mut exec_mark = Instant::now();
    let eval = pop.evaluate_batched(&cfg, shared.cfg.batch_records, |first, results| {
        let exec_dur = exec_mark.elapsed();
        for sub in subs.iter_mut().filter(|s| s.alive) {
            sub.job.span.add_phase(PHASE_EXECUTE, exec_dur);
        }
        let any_alive = stream_batch(shared, subs, first, &batch_payload(records, first, results));
        let others = Instant::now();
        serve_waiting_hits(shared);
        if let Some(expected) = expected {
            run_shorter_admitting_sweep(shared, key, expected.saturating_sub(started.elapsed()));
        }
        gave_way += others.elapsed();
        exec_mark = Instant::now();
        // No live subscribers left → cancel the sweep at this boundary.
        any_alive
    })?;
    // Fold the sweep's simulation metrics in (and count it against its
    // key) before the done frames go out, so a client that saw `done`
    // also sees this sweep on the metrics page.
    let sim = eval.metrics();
    shared.metrics.lock().expect("metrics lock").observe_sweep(key, &sim);
    let eval = Arc::new(eval);
    let took = started.elapsed().saturating_sub(gave_way);
    shared.results.lock().expect("results lock").offer_timed(key.clone(), &eval, took);
    Some(eval)
}

/// The prepared population of size `synthetic`, from the cache (it
/// becomes the most recently used) or prepared now, evicting the least
/// recently used one when the cache is full.
fn prepared_population(shared: &Shared, synthetic: usize) -> Arc<PreparedPopulation> {
    let mut cache = shared.prepared.lock().expect("prepared lock");
    let entry = match cache.iter().position(|(n, _)| *n == synthetic) {
        Some(i) => cache.remove(i).expect("position is in range"),
        None => {
            if cache.len() == PREPARED_POPULATIONS {
                cache.pop_front();
            }
            (synthetic, Arc::new(PreparedPopulation::prepare(synthetic, shared.cfg.threads)))
        }
    };
    let pop = Arc::clone(&entry.1);
    cache.push_back(entry);
    pop
}

/// Fans one batch's records payload out to every live subscriber,
/// first retiring any whose deadline has passed (`504`). Each frame is
/// written as `[head, payload, tail]`, so the payload is never copied
/// per subscriber. Returns whether any subscriber is still live.
fn stream_batch(shared: &Shared, subs: &mut [Sub], first: usize, payload: &str) -> bool {
    let mut streamed = 0u64;
    let mut any_alive = false;
    for sub in subs.iter_mut().filter(|s| s.alive) {
        if sub.job.deadline.is_some_and(|d| Instant::now() >= d) {
            sub.alive = false;
            shared.metrics.lock().expect("metrics lock").cancelled_deadline += 1;
            let mut span = sub.job.span;
            span.outcome = 504;
            let frame = error_frame(sub.job.id, 504, "deadline exceeded mid-sweep");
            respond(shared, &sub.job.writer, &span, &frame);
            continue;
        }
        let head = batch_frame_head(sub.job.id, sub.seq, first);
        let frame = [head.as_bytes(), payload.as_bytes(), BATCH_FRAME_TAIL.as_bytes()];
        let write_started = Instant::now();
        if sub.job.writer.send_parts(&frame) {
            sub.job.span.add_phase(PHASE_STREAM, write_started.elapsed());
            sub.job.span.bytes_streamed += frame.iter().map(|p| p.len() as u64).sum::<u64>();
            sub.job.span.batches += 1;
            sub.seq += 1;
            streamed += 1;
            any_alive = true;
        } else {
            sub.alive = false;
            shared.metrics.lock().expect("metrics lock").disconnects += 1;
            let mut span = sub.job.span;
            span.outcome = OUTCOME_CLIENT_GONE;
            shared.finish_span(&span);
        }
    }
    shared.metrics.lock().expect("metrics lock").batches_streamed += streamed;
    any_alive
}

/// Sends every surviving subscriber its `done` frame. A completion is
/// counted before its frame goes out, so a client that has read `done`
/// always finds itself in `completed`; a failed write takes it back and
/// counts a disconnect instead.
fn finish_group(shared: &Shared, subs: &mut [Sub], eval: &Evaluation, coalesced: bool) {
    let done_at = Instant::now();
    for sub in subs.iter_mut().filter(|s| s.alive) {
        let frame = done_frame(sub.job.id, eval, coalesced, &sub.job.tables);
        {
            let mut m = shared.metrics.lock().expect("metrics lock");
            m.completed += 1;
            m.observe_latency(done_at.duration_since(sub.job.enqueued));
        }
        let write_started = Instant::now();
        let delivered = sub.job.writer.send(&frame);
        sub.job.span.add_phase(PHASE_STREAM, write_started.elapsed());
        let mut span = sub.job.span;
        if delivered {
            span.bytes_streamed += frame.len() as u64;
            span.outcome = 200;
        } else {
            let mut m = shared.metrics.lock().expect("metrics lock");
            m.completed -= 1;
            m.disconnects += 1;
            span.outcome = OUTCOME_CLIENT_GONE;
        }
        shared.finish_span(&span);
    }
}

#[cfg(test)]
mod tests {
    use std::io::IoSlice;

    use super::*;

    #[test]
    fn any_stream_passes_vectored_writes_through() {
        // `Write`'s default `write_vectored` sends only the first slice,
        // which would split every frame back into prefix and payload.
        let (a, mut b) = UnixStream::pair().expect("socket pair");
        let mut s = AnyStream::Unix(a);
        let n = s.write_vectored(&[IoSlice::new(b"len!"), IoSlice::new(b"payload")]).unwrap();
        assert_eq!(n, 11);
        let mut got = [0u8; 11];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"len!payload");
    }

    /// Polls `done` every millisecond for up to five seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn finished_reader_threads_are_reaped() {
        let server = Server::start(ServerConfig::default()).expect("start");
        let shared = Arc::clone(&server.shared);
        let conns = || shared.conns.lock().unwrap().len();
        for _ in 0..20 {
            let stream = TcpStream::connect(server.addr()).expect("connect");
            wait_until("the connection is accepted", || conns() == 1);
            drop(stream);
            wait_until("the reader exits", || {
                conns() == 0 && shared.readers.lock().unwrap().iter().all(JoinHandle::is_finished)
            });
        }
        let _last = TcpStream::connect(server.addr()).expect("connect");
        wait_until("the last connection is accepted", || conns() == 1);
        let readers = shared.readers.lock().unwrap().len();
        assert!(readers <= 1, "{readers} reader handles kept for one live connection");
        server.request_shutdown();
        server.join().expect("join");
    }

    #[test]
    fn the_prepared_cache_keeps_only_the_most_recent_populations() {
        use crate::protocol::{read_frame, write_frame};

        let server =
            Server::start(ServerConfig { threads: 1, ..ServerConfig::default() }).expect("start");
        let shared = Arc::clone(&server.shared);
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        for synthetic in 0..=PREPARED_POPULATIONS {
            let request = format!(
                "{{\"kind\": \"sweep\", \"id\": 1, \"synthetic\": {synthetic}, \"max_mesh_cycles\": 500}}"
            );
            write_frame(&mut conn, request.as_bytes()).expect("send");
            loop {
                let frame = read_frame(&mut conn, usize::MAX).expect("recv").expect("frame");
                assert!(!frame.starts_with(b"{\"type\": \"error\""), "sweep {synthetic} failed");
                if frame.starts_with(b"{\"type\": \"done\"") {
                    break;
                }
            }
            let sizes: Vec<usize> =
                shared.prepared.lock().unwrap().iter().map(|(n, _)| *n).collect();
            assert!(sizes.len() <= PREPARED_POPULATIONS, "kept {sizes:?}");
            assert!(sizes.contains(&synthetic), "the population just swept is kept");
        }
        server.request_shutdown();
        server.join().expect("join");
    }
}

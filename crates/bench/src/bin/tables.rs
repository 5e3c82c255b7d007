//! Regenerates every table of the JavaFlow evaluation.
//!
//! ```text
//! tables                  # print all tables (1–30)
//! tables --table 22       # one table
//! tables --list-tables    # list the valid table ids with titles
//! tables --synthetic 400  # population size for the Chapter 7 sweeps
//! tables --threads 4      # worker threads for the sweep (default: all
//!                         # cores; JAVAFLOW_THREADS overrides the default)
//! tables --net contended  # simulate interconnect contention instead of
//!                         # the closed-form (ideal) delays
//! tables --bench-kernel   # time the timing-wheel event kernel (events/s,
//!                         # allocation counts) and write BENCH_kernel.json
//! tables --bench-serve    # span-overhead guard: cached requests to an
//!                         # in-process javaflow-serve with and without
//!                         # observability; fails above 10%
//! tables --trace-out trace.json
//!                         # record the hotspot kernel under Compact2
//!                         # (ideal + contended) and Sparse2, cross-check
//!                         # the recordings against the live reports, and
//!                         # write Chrome-trace / Perfetto JSON
//! ```

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use javaflow_bench::{chapter5_tables, chapter7_tables, profile_suite};
use javaflow_core::parallel::default_threads;
use javaflow_core::{EvalConfig, Evaluation};
use javaflow_fabric::NetKind;

/// Counting wrapper around the system allocator, so `--bench-kernel` can
/// report how many heap allocations a sweep performs (the timing-wheel
/// kernel's steady state should add none per event).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counters are side effects.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn run_eval(synthetic: usize, threads: usize, net: NetKind) -> Evaluation {
    eprintln!(
        "running the population on all six configurations ({synthetic} synthetic, {threads} thread{}, {net:?} net) …",
        if threads == 1 { "" } else { "s" }
    );
    let start = Instant::now();
    let eval = Evaluation::run(&EvalConfig {
        synthetic_count: synthetic,
        threads,
        net,
        ..EvalConfig::default()
    });
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "evaluated {} records ({} samples) in {secs:.2}s — {:.1} records/s",
        eval.records.len(),
        eval.samples.len(),
        eval.records.len() as f64 / secs.max(1e-9),
    );
    eval
}

/// Times the event kernel itself: a serial sweep (wall time, scheduler
/// events in the reports, the share of them BP-2 runs inherited from
/// their BP-1 twins, nanoseconds per simulated event, heap allocations)
/// and a parallel sweep, checks both produce identical reports, and
/// records the numbers with the host's core count in `BENCH_kernel.json`. A speedup
/// against another commit is measured by running both on one host, not
/// against a figure recorded here.
fn bench_kernel(synthetic: usize, threads: usize) {
    let a0 = ALLOCS.load(Relaxed);
    let b0 = ALLOC_BYTES.load(Relaxed);
    let t1 = Instant::now();
    let serial = run_eval(synthetic, 1, NetKind::Ideal);
    let serial_secs = t1.elapsed().as_secs_f64();
    let serial_allocs = ALLOCS.load(Relaxed) - a0;
    let serial_alloc_bytes = ALLOC_BYTES.load(Relaxed) - b0;

    let t2 = Instant::now();
    let parallel = run_eval(synthetic, threads, NetKind::Ideal);
    let parallel_secs = t2.elapsed().as_secs_f64();

    // Debug-string comparison: NaN-valued returns (legitimate in scripted
    // float kernels) are bitwise-identical but `!=` under IEEE 754.
    let identical = format!("{:?}", serial.samples) == format!("{:?}", parallel.samples)
        && format!("{:?}", serial.statics) == format!("{:?}", parallel.statics);

    // A BP-2 sample's report counts the events it took over from its
    // BP-1 twin; the kernel simulated only the rest.
    let events: u64 = serial.samples.iter().map(|s| s.report.events).sum();
    let events_inherited: u64 = serial.samples.iter().map(|s| s.events_inherited).sum();
    let simulated = events - events_inherited;
    let events_per_sec = simulated as f64 / serial_secs.max(1e-9);
    let ns_per_event = serial_secs * 1e9 / simulated.max(1) as f64;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples = serial.samples.len().max(1);
    let allocs_per_sample = serial_allocs as f64 / samples as f64;

    let metrics = serial.metrics().to_json();
    let json = format!(
        "{{\n  \"benchmark\": \"tables --bench-kernel --synthetic {synthetic}\",\n  \"records\": {},\n  \"samples\": {},\n  \"threads\": {threads},\n  \"threads_used\": {},\n  \"serial_secs\": {serial_secs:.3},\n  \"parallel_secs\": {parallel_secs:.3},\n  \"parallel_speedup\": {:.2},\n  \"events\": {events},\n  \"events_inherited\": {events_inherited},\n  \"events_per_sec\": {events_per_sec:.0},\n  \"ns_per_event\": {ns_per_event:.2},\n  \"nproc\": {nproc},\n  \"serial_allocs\": {serial_allocs},\n  \"serial_alloc_bytes\": {serial_alloc_bytes},\n  \"allocs_per_sample\": {allocs_per_sample:.1},\n  \"identical_output\": {identical},\n  \"utilization\": {},\n  \"metrics\": {metrics}\n}}\n",
        serial.records.len(),
        serial.samples.len(),
        parallel.sweep.threads_used,
        serial_secs / parallel_secs.max(1e-9),
        parallel.sweep.utilization_json(),
    );
    std::fs::write("BENCH_kernel.json", &json).expect("write BENCH_kernel.json");
    println!("{json}");
    assert!(identical, "parallel sweep diverged from the serial sweep");
}

/// The span-overhead guard. Two in-process `javaflow-serve` instances,
/// identical except that one runs with observability off (the untraced
/// floor), answer the same sweep key. Two sweeps admit the key to each
/// server's result cache, so every timed request is a cache hit: the
/// sweeper's per-request work, spans included, with no simulation to
/// hide them. A few clients, each on one persistent connection, time
/// the same number of requests against both servers in short ABBA
/// rounds, so machine drift cancels out of each round's ratio. Prints
/// the observed server's median throughput loss against the floor and
/// fails above `MAX_SPAN_OVERHEAD_PCT`.
fn bench_serve(synthetic: usize, threads: usize) {
    use std::net::TcpStream;

    use javaflow_server::json::Json;
    use javaflow_server::protocol::{read_frame, write_frame};
    use javaflow_server::{Server, ServerConfig};

    const CLIENTS: usize = 4;
    const REQUESTS_PER_TURN: usize = 20;
    // Even, so the floor goes first in half the rounds.
    const ROUNDS: usize = 40;
    const MAX_SPAN_OVERHEAD_PCT: f64 = 10.0;

    let request =
        format!("{{\"kind\": \"sweep\", \"id\": 1, \"synthetic\": {synthetic}, \"tables\": [22]}}");
    let request_one = |conn: &mut TcpStream| {
        write_frame(conn, request.as_bytes()).expect("send");
        loop {
            let frame = read_frame(conn, usize::MAX).expect("recv").expect("stream");
            if frame.starts_with(b"{\"type\": \"done\"") {
                return;
            }
            assert!(
                !frame.starts_with(b"{\"type\": \"error\""),
                "bench request failed: {}",
                String::from_utf8_lossy(&frame)
            );
        }
    };

    // Index 0 is the untraced floor, index 1 the observed server.
    let servers = [false, true].map(|observability| {
        Server::start(ServerConfig { threads, observability, ..ServerConfig::default() })
            .expect("start javaflow-serve in-process")
    });
    let mut conns: Vec<Vec<TcpStream>> = servers
        .iter()
        .map(|server| {
            (0..CLIENTS)
                .map(|_| {
                    let conn = TcpStream::connect(server.addr()).expect("connect");
                    conn.set_nodelay(true).expect("nodelay");
                    conn
                })
                .collect()
        })
        .collect();
    eprintln!("bench-serve: admitting synthetic {synthetic} to both result caches …");
    for side in &mut conns {
        request_one(&mut side[0]);
        request_one(&mut side[0]);
        // Spans are all the guard sees only if nothing is simulated
        // while it times, so the key must now be stored.
        write_frame(&mut side[0], b"{\"kind\": \"metrics\", \"id\": 2}").expect("send");
        let frame = read_frame(&mut side[0], usize::MAX).expect("recv").expect("metrics frame");
        let metrics = Json::parse(&String::from_utf8_lossy(&frame)).expect("metrics json");
        let stored =
            metrics.get("result_cache").and_then(|c| c.get("entries")).and_then(Json::as_u64);
        assert_eq!(stored, Some(1), "synthetic {synthetic} did not enter the result cache");
    }

    eprintln!(
        "bench-serve: {ROUNDS} rounds of {CLIENTS} clients \u{d7} {REQUESTS_PER_TURN} requests \u{d7} 2 servers …"
    );
    let mut wall = [0.0f64; 2];
    // Per round: the observed server's throughput loss against the
    // floor, in percent (the two turns ran the same requests).
    let mut overheads = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut turn = [0.0f64; 2];
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for conn in &mut conns[side] {
                    scope.spawn(|| (0..REQUESTS_PER_TURN).for_each(|_| request_one(conn)));
                }
            });
            turn[side] = started.elapsed().as_secs_f64();
            wall[side] += turn[side];
        }
        overheads.push((1.0 - turn[0] / turn[1].max(1e-9)) * 100.0);
    }
    drop(conns);
    for server in servers {
        server.request_shutdown();
        server.join().expect("clean server shutdown");
    }

    // The median round: a burst of host noise moves a few rounds, not
    // the middle one. Positive = spans cost throughput.
    overheads.sort_by(f64::total_cmp);
    let overhead_pct = (overheads[ROUNDS / 2 - 1] + overheads[ROUNDS / 2]) / 2.0;
    let requests = ROUNDS * CLIENTS * REQUESTS_PER_TURN;
    println!(
        "span_overhead_pct {overhead_pct:.2} (median of {ROUNDS} rounds; {requests} cached requests per server, floor {:.3} s, observed {:.3} s)",
        wall[0], wall[1]
    );
    assert!(
        overhead_pct <= MAX_SPAN_OVERHEAD_PCT,
        "span overhead {overhead_pct:.2}% exceeds the {MAX_SPAN_OVERHEAD_PCT}% bound"
    );
}

/// Records the deterministic hotspot kernel under three configurations,
/// cross-checks every recording against its live report (the Table 29
/// numbers must reproduce bit-for-bit from the event stream alone), and
/// writes all three as one Chrome-trace / Perfetto JSON document.
fn trace_capture(path: &str) {
    use javaflow_analysis::trace::{chrome_trace_json, replay, verify_replay};
    use javaflow_fabric::{
        execute_with_sink, load, ExecParams, FabricConfig, RingRecorder, SimArena, TraceEvent,
    };

    let (program, id) = javaflow_workloads::synthetic::hotspot();
    let method = program.method(id);
    let configs = [
        FabricConfig::compact2(),
        FabricConfig::sparse2(),
        FabricConfig::compact2().with_net(NetKind::Contended),
    ];
    let names = ["Compact2 (ideal)", "Sparse2 (ideal)", "Compact2 (contended)"];
    let mut recordings = Vec::new();
    for (cfg, name) in configs.iter().zip(names) {
        let loaded = load(method, cfg).expect("hotspot loads");
        let mut rec = RingRecorder::with_capacity(1 << 20);
        let mut arena = SimArena::default();
        let report = execute_with_sink(&loaded, cfg, ExecParams::default(), &mut arena, &mut rec);
        assert_eq!(rec.dropped(), 0, "{name}: recorder dropped events; raise the capacity");
        let events = rec.events();
        let replayed = replay(&events).unwrap_or_else(|e| {
            eprintln!("{name}: trace replay failed: {e}");
            std::process::exit(1);
        });
        if let Err(e) = verify_replay(&replayed, &report) {
            eprintln!("{name}: replay diverged from the live report: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "{name}: {} events recorded, replay matches the live report bit-for-bit",
            events.len()
        );
        recordings.push((name, events));
    }
    let runs: Vec<(&str, &[TraceEvent])> =
        recordings.iter().map(|(n, e)| (*n, e.as_slice())).collect();
    let json = chrome_trace_json(&runs);
    std::fs::write(path, &json).expect("write trace JSON");
    eprintln!("wrote {path} ({} bytes) — open at ui.perfetto.dev or chrome://tracing", json.len());
}

fn main() {
    let mut table: Option<u32> = None;
    let mut figure: Option<u32> = None;
    let mut trace_out: Option<String> = None;
    let mut synthetic = 240usize;
    let mut threads = default_threads();
    let mut net = NetKind::Ideal;
    let mut bench_kernel_mode = false;
    let mut bench_serve_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--table" => {
                let raw = args.next();
                table =
                    raw.as_deref().and_then(|v| v.parse().ok()).filter(|t| (1..=30).contains(t));
                if table.is_none() {
                    match raw {
                        Some(v) => eprintln!(
                            "--table: `{v}` is not a valid table id; valid ids are 1..=30 \
                             (run `tables --list-tables` for titles)"
                        ),
                        None => eprintln!(
                            "--table requires a table id 1..=30 \
                             (run `tables --list-tables` for titles)"
                        ),
                    }
                    std::process::exit(2);
                }
            }
            "--trace-out" => {
                trace_out = args.next();
                if trace_out.is_none() {
                    eprintln!("--trace-out requires an output path");
                    std::process::exit(2);
                }
            }
            "--list-tables" => {
                print!("{}", javaflow_bench::list_tables());
                return;
            }
            "--net" => {
                net = match args.next().as_deref() {
                    Some("ideal") => NetKind::Ideal,
                    Some("contended") => NetKind::Contended,
                    other => {
                        eprintln!(
                            "--net requires `ideal` or `contended` (got {})",
                            other.map_or_else(|| "nothing".into(), |v| format!("`{v}`"))
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--synthetic" => {
                synthetic = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--synthetic requires a count");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                threads =
                    args.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or_else(
                        || {
                            eprintln!("--threads requires a count >= 1");
                            std::process::exit(2);
                        },
                    );
            }
            "--bench-kernel" => bench_kernel_mode = true,
            "--bench-serve" => bench_serve_mode = true,
            "--figure" => {
                figure = args.next().and_then(|v| v.parse().ok());
                if figure.is_none() {
                    eprintln!("--figure requires a number");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: tables [--table N] [--figure N] [--list-tables] \
                     [--synthetic COUNT] [--threads N] [--net ideal|contended] \
                     [--bench-kernel] [--bench-serve] [--trace-out FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = trace_out {
        trace_capture(&path);
        return;
    }
    if bench_kernel_mode {
        bench_kernel(synthetic, threads);
        return;
    }
    if bench_serve_mode {
        bench_serve(synthetic, threads);
        return;
    }

    if let Some(f) = figure {
        print!("{}", javaflow_bench::figure(f));
        if table.is_none() {
            return;
        }
    }
    let wanted: Vec<u32> = match table {
        Some(t) => vec![t],
        None => (1..=30).collect(),
    };
    let needs_ch5 = wanted.iter().any(|t| (1..=8).contains(t));
    let needs_ch7 = wanted.iter().any(|t| (9..=30).contains(t));

    let suite = needs_ch5.then(|| {
        eprintln!("profiling the benchmark suite on the interpreter …");
        profile_suite()
    });
    let eval = needs_ch7.then(|| run_eval(synthetic, threads, net));

    for t in wanted {
        let text = if (1..=8).contains(&t) {
            chapter5_tables(suite.as_ref().expect("chapter 5 data"), t)
        } else {
            chapter7_tables(eval.as_ref().expect("chapter 7 data"), t)
        };
        println!("{text}");
    }
}

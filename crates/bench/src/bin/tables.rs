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
//! tables --bench-eval     # time serial vs parallel sweeps and write
//!                         # BENCH_evaluation.json
//! tables --bench-net      # compare ideal vs contended sweeps and write
//!                         # BENCH_net.json
//! tables --bench-kernel   # time the timing-wheel event kernel (events/s,
//!                         # allocation counts) and write BENCH_kernel.json
//! tables --bench-rings    # sweep the contended net's ring-slot × FIFO
//!                         # parameters and write BENCH_rings.json
//! tables --bench-serve    # hammer an in-process javaflow-serve at several
//!                         # concurrency levels and write BENCH_serve.json
//!                         # with throughput and p50/p95/p99 latency
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

/// Times the pre-optimization sweep (serial, re-resolve per config, fresh
/// simulator allocations), the optimized sweep serially, and the optimized
/// sweep in parallel; checks all three produce the same reports; records
/// the comparison in `BENCH_evaluation.json`.
fn bench_eval(synthetic: usize, threads: usize) {
    eprintln!("timing the pre-optimization (seed-equivalent) sweep …");
    let max_mesh_cycles = EvalConfig::default().max_mesh_cycles;
    let t0 = Instant::now();
    let seed_reports = javaflow_bench::seed_equivalent_sweep(synthetic, max_mesh_cycles);
    let seed_secs = t0.elapsed().as_secs_f64();
    eprintln!("seed-equivalent sweep: {seed_secs:.2}s");

    let t1 = Instant::now();
    let serial = run_eval(synthetic, 1, NetKind::Ideal);
    let serial_secs = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let parallel = run_eval(synthetic, threads, NetKind::Ideal);
    let parallel_secs = t2.elapsed().as_secs_f64();

    // Debug-string comparison: NaN-valued returns (legitimate in scripted
    // float kernels) are bitwise-identical but `!=` under IEEE 754.
    let identical = format!("{:?}", serial.samples) == format!("{:?}", parallel.samples)
        && format!("{:?}", serial.statics) == format!("{:?}", parallel.statics)
        && seed_reports.len() == serial.samples.len()
        && seed_reports
            .iter()
            .zip(&serial.samples)
            .all(|(r, s)| format!("{r:?}") == format!("{:?}", s.report));
    let speedup_vs_seed = seed_secs / parallel_secs.max(1e-9);
    let parallel_speedup = serial_secs / parallel_secs.max(1e-9);

    // Table rendering exercises the O(1) sample index (the old linear
    // lookup made Tables 21–28 quadratic in the population).
    let t3 = Instant::now();
    let mut rendered = 0usize;
    for t in 9..=28 {
        rendered += chapter7_tables(&parallel, t).len();
    }
    let tables_secs = t3.elapsed().as_secs_f64();
    eprintln!("rendered tables 9–28 ({rendered} bytes) in {tables_secs:.2}s");

    let metrics = serial.metrics().to_json();
    let json = format!(
        "{{\n  \"benchmark\": \"tables --synthetic {synthetic}\",\n  \"records\": {},\n  \"samples\": {},\n  \"threads\": {threads},\n  \"threads_used\": {},\n  \"seed_equivalent_secs\": {seed_secs:.3},\n  \"serial_secs\": {serial_secs:.3},\n  \"parallel_secs\": {parallel_secs:.3},\n  \"tables_9_28_secs\": {tables_secs:.3},\n  \"speedup_vs_seed\": {speedup_vs_seed:.2},\n  \"parallel_speedup\": {parallel_speedup:.2},\n  \"identical_output\": {identical},\n  \"utilization\": {},\n  \"metrics\": {metrics}\n}}\n",
        serial.records.len(),
        serial.samples.len(),
        parallel.sweep.threads_used,
        parallel.sweep.utilization_json(),
    );
    std::fs::write("BENCH_evaluation.json", &json).expect("write BENCH_evaluation.json");
    println!("{json}");
    assert!(identical, "optimized sweep diverged from the seed-equivalent output");
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

/// Runs the same sweep under the ideal and contended interconnect models,
/// prints the per-configuration comparison (IPC/cycle deltas, link stats,
/// hotspot heatmap), and records it in `BENCH_net.json`.
fn bench_net(synthetic: usize, threads: usize) {
    let ideal = run_eval(synthetic, threads, NetKind::Ideal);
    let contended = run_eval(synthetic, threads, NetKind::Contended);
    let rows = javaflow_bench::net_bench_rows(&ideal, &contended);
    println!("{}", javaflow_bench::net_report(&rows, &contended.configs));

    let mut entries = String::new();
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        entries.push_str(&format!(
            "    {{\n      \"config\": \"{}\",\n      \"ipc_ideal\": {:.4},\n      \"ipc_contended\": {:.4},\n      \"ipc_delta_pct\": {:.2},\n      \"cycles_ideal\": {:.1},\n      \"cycles_contended\": {:.1},\n      \"cycle_delta_pct\": {:.2},\n      \"mesh_flits\": {},\n      \"mesh_hops\": {},\n      \"stall_ticks\": {},\n      \"stall_per_hop\": {:.4},\n      \"max_queue_depth\": {},\n      \"mean_queue_depth\": {:.3},\n      \"memory_ring_requests\": {},\n      \"memory_ring_wait_ticks\": {},\n      \"gpp_ring_requests\": {},\n      \"gpp_ring_wait_ticks\": {}\n    }}{sep}\n",
            r.name,
            r.ipc_ideal,
            r.ipc_contended,
            r.ipc_delta_pct(),
            r.cycles_ideal,
            r.cycles_contended,
            r.cycle_delta_pct(),
            r.net.mesh_flits,
            r.net.mesh_hops,
            r.net.stall_ticks,
            r.net.stall_per_hop(),
            r.net.max_queue_depth,
            r.net.mean_queue_depth,
            r.net.memory_ring.0,
            r.net.memory_ring.1,
            r.net.gpp_ring.0,
            r.net.gpp_ring.1,
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"tables --bench-net --synthetic {synthetic}\",\n  \"records\": {},\n  \"samples_per_model\": {},\n  \"threads\": {threads},\n  \"configs\": [\n{entries}  ]\n}}\n",
        ideal.records.len(),
        ideal.samples.len(),
    );
    std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
    eprintln!("wrote BENCH_net.json");
}

/// Sweeps the contended interconnect's service parameters —
/// `NetParams::ring_slot_cycles` × `NetParams::mesh_fifo_capacity` — over
/// the same population, recording each combination's aggregate IPC and
/// queueing behaviour in `BENCH_rings.json`.
fn bench_rings(synthetic: usize, threads: usize) {
    const SLOTS: [u64; 3] = [1, 2, 4];
    const FIFOS: [u32; 3] = [2, 4, 8];
    let total = SLOTS.len() * FIFOS.len();
    let mut entries = String::new();
    let mut step = 0usize;
    for slot in SLOTS {
        for fifo in FIFOS {
            step += 1;
            eprintln!(
                "ring sweep {step}/{total}: ring_slot_cycles={slot} mesh_fifo_capacity={fifo}"
            );
            let mut configs = javaflow_fabric::FabricConfig::all_six();
            for c in &mut configs {
                c.net_params.ring_slot_cycles = slot;
                c.net_params.mesh_fifo_capacity = fifo;
            }
            let t = Instant::now();
            let eval = Evaluation::run(&EvalConfig {
                synthetic_count: synthetic,
                threads,
                net: NetKind::Contended,
                configs,
                ..EvalConfig::default()
            });
            let secs = t.elapsed().as_secs_f64();

            let mut ipc_sum = 0.0f64;
            let mut ok = 0u64;
            let (mut stall, mut flits, mut hops) = (0u64, 0u64, 0u64);
            let (mut mem_req, mut mem_wait, mut gpp_req, mut gpp_wait) = (0u64, 0u64, 0u64, 0u64);
            let mut max_queue = 0u64;
            for s in &eval.samples {
                if s.ok {
                    ipc_sum += s.report.ipc;
                    ok += 1;
                }
                if let Some(n) = &s.report.net {
                    stall += n.stall_ticks;
                    flits += n.mesh_flits;
                    hops += n.mesh_hops;
                    mem_req += n.memory_ring.requests;
                    mem_wait += n.memory_ring.wait_ticks;
                    gpp_req += n.gpp_ring.requests;
                    gpp_wait += n.gpp_ring.wait_ticks;
                    max_queue = max_queue.max(n.max_queue_depth);
                }
            }
            let mean_ipc = ipc_sum / ok.max(1) as f64;
            let stall_per_hop = stall as f64 / hops.max(1) as f64;
            let mem_wait_per_req = mem_wait as f64 / mem_req.max(1) as f64;
            let gpp_wait_per_req = gpp_wait as f64 / gpp_req.max(1) as f64;
            let sep = if step == total { "" } else { "," };
            entries.push_str(&format!(
                "    {{\n      \"ring_slot_cycles\": {slot},\n      \"mesh_fifo_capacity\": {fifo},\n      \"mean_ipc\": {mean_ipc:.4},\n      \"ok_samples\": {ok},\n      \"mesh_flits\": {flits},\n      \"mesh_hops\": {hops},\n      \"stall_ticks\": {stall},\n      \"stall_per_hop\": {stall_per_hop:.4},\n      \"max_queue_depth\": {max_queue},\n      \"memory_ring_requests\": {mem_req},\n      \"memory_ring_wait_per_request\": {mem_wait_per_req:.4},\n      \"gpp_ring_requests\": {gpp_req},\n      \"gpp_ring_wait_per_request\": {gpp_wait_per_req:.4},\n      \"sweep_secs\": {secs:.3}\n    }}{sep}\n"
            ));
        }
    }
    let json = format!(
        "{{\n  \"benchmark\": \"tables --bench-rings --synthetic {synthetic}\",\n  \"threads\": {threads},\n  \"combinations\": [\n{entries}  ]\n}}\n"
    );
    std::fs::write("BENCH_rings.json", &json).expect("write BENCH_rings.json");
    println!("{json}");
}

/// Benchmarks `javaflow-serve` end to end: an in-process server is
/// hammered at several concurrency levels with identical sweep requests
/// (the coalescing fast path), measuring client-observed end-to-end
/// latency per request. Records throughput plus exact p50/p95/p99 per
/// level in `BENCH_serve.json`, and — because request spans and the
/// flight recorder are always on in production — runs the whole ladder
/// twice, once with observability disabled, to publish the measured
/// span overhead against that untraced floor.
fn bench_serve(synthetic: usize, threads: usize) {
    use javaflow_server::protocol::{read_frame, write_frame};
    use javaflow_server::{Server, ServerConfig};

    const LEVELS: [usize; 3] = [1, 8, 32];
    const REQUESTS_PER_LEVEL: usize = 32;

    let request =
        format!("{{\"kind\": \"sweep\", \"id\": 1, \"synthetic\": {synthetic}, \"tables\": [22]}}");

    // Two resident servers, identical except for the observability
    // switch. Every level is measured back-to-back on both so machine
    // drift (frequency scaling, noisy neighbours) cancels out of the
    // overhead figure instead of landing entirely on whichever ladder
    // ran first.
    let start = |observability: bool| {
        Server::start(ServerConfig {
            threads,
            queue_cap: 64,
            observability,
            ..ServerConfig::default()
        })
        .expect("start javaflow-serve in-process")
    };
    let floor_server = start(false);
    let obs_server = start(true);

    let run_one = |addr: std::net::SocketAddr, request: &str| -> f64 {
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        let t = Instant::now();
        write_frame(&mut conn, request.as_bytes()).expect("send");
        loop {
            let frame = read_frame(&mut conn, usize::MAX).expect("recv").expect("stream");
            if frame.starts_with(b"{\"type\": \"done\"") {
                return t.elapsed().as_secs_f64();
            }
            assert!(
                !frame.starts_with(b"{\"type\": \"error\""),
                "bench request failed: {}",
                String::from_utf8_lossy(&frame)
            );
        }
    };
    // One level's worth of requests; returns (wall seconds, latencies).
    let run_level = |addr: std::net::SocketAddr, concurrency: usize| -> (f64, Vec<f64>) {
        let per_worker = REQUESTS_PER_LEVEL / concurrency;
        let wall = Instant::now();
        let latencies: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..concurrency)
                .map(|_| {
                    let request = &request;
                    scope.spawn(move || {
                        (0..per_worker).map(|_| run_one(addr, request)).collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("bench worker")).collect()
        });
        (wall.elapsed().as_secs_f64(), latencies)
    };

    // One request up front on each server so every timed level sees a
    // warm prepared cache and arena pool — the steady state a resident
    // server serves.
    eprintln!("bench-serve: warming the prepared caches (synthetic {synthetic}) …");
    run_one(floor_server.addr(), &request);
    run_one(obs_server.addr(), &request);

    // Two rounds per level in ABBA order (floor/observed, then
    // observed/floor) so neither configuration systematically runs on a
    // warmer or more throttled machine than the other.
    let (mut floor_requests, mut floor_wall) = (0u64, 0.0f64);
    let (mut obs_requests, mut obs_wall) = (0u64, 0.0f64);
    let mut level_stats: Vec<(f64, Vec<f64>)> = vec![(0.0, Vec::new()); LEVELS.len()];
    for round in 0..2 {
        for (li, &concurrency) in LEVELS.iter().enumerate() {
            let per_worker = REQUESTS_PER_LEVEL / concurrency;
            eprintln!(
                "bench-serve: round {}/2, {concurrency} clients \u{d7} {per_worker} requests \u{d7} 2 servers …",
                round + 1
            );
            let floor_first = round == 0;
            for obs_turn in [!floor_first, floor_first] {
                if obs_turn {
                    let (wall_secs, latencies) = run_level(obs_server.addr(), concurrency);
                    obs_requests += latencies.len() as u64;
                    obs_wall += wall_secs;
                    level_stats[li].0 += wall_secs;
                    level_stats[li].1.extend(latencies);
                } else {
                    let (wall_secs, _) = run_level(floor_server.addr(), concurrency);
                    floor_requests += REQUESTS_PER_LEVEL as u64;
                    floor_wall += wall_secs;
                }
            }
        }
    }
    let mut entries = String::new();
    for (li, &concurrency) in LEVELS.iter().enumerate() {
        let (wall_secs, latencies) = &mut level_stats[li];
        latencies.sort_by(f64::total_cmp);
        let pct = |q: f64| {
            let rank = ((q * latencies.len() as f64).ceil() as usize).max(1);
            latencies[rank - 1]
        };
        let total = latencies.len();
        let throughput = total as f64 / wall_secs.max(1e-9);
        let sep = if li + 1 == LEVELS.len() { "" } else { "," };
        entries.push_str(&format!(
            "    {{\n      \"concurrency\": {concurrency},\n      \"requests\": {total},\n      \"wall_secs\": {wall_secs:.3},\n      \"throughput_rps\": {throughput:.3},\n      \"p50_ms\": {:.1},\n      \"p95_ms\": {:.1},\n      \"p99_ms\": {:.1}\n    }}{sep}\n",
            pct(0.50) * 1e3,
            pct(0.95) * 1e3,
            pct(0.99) * 1e3,
        ));
    }
    for server in [floor_server, obs_server] {
        server.request_shutdown();
        server.join().expect("clean server shutdown");
    }

    // Overhead over the whole ladder: per-level numbers are too short to
    // be stable (the top level finishes in a fraction of a second), but
    // the full 3-level pass is seconds of timed work on both sides.
    // Positive = spans cost throughput.
    let floor_rps = floor_requests as f64 / floor_wall.max(1e-9);
    let observed_rps = obs_requests as f64 / obs_wall.max(1e-9);
    let overhead_pct = (floor_rps - observed_rps) / floor_rps.max(1e-9) * 100.0;

    let json = format!(
        "{{\n  \"benchmark\": \"tables --bench-serve --synthetic {synthetic}\",\n  \"threads\": {threads},\n  \"levels\": [\n{entries}  ],\n  \"observability\": {{\n    \"floor_throughput_rps\": {floor_rps:.3},\n    \"observed_throughput_rps\": {observed_rps:.3},\n    \"span_overhead_pct\": {overhead_pct:.2}\n  }}\n}}\n"
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("{json}");
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
    let mut bench = false;
    let mut bench_net_mode = false;
    let mut bench_kernel_mode = false;
    let mut bench_rings_mode = false;
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
            "--bench-eval" => bench = true,
            "--bench-net" => bench_net_mode = true,
            "--bench-kernel" => bench_kernel_mode = true,
            "--bench-rings" => bench_rings_mode = true,
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
                     [--bench-eval] [--bench-net] [--bench-kernel] [--bench-rings] \
                     [--bench-serve] [--trace-out FILE]"
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
    if bench {
        bench_eval(synthetic, threads);
        return;
    }
    if bench_net_mode {
        bench_net(synthetic, threads);
        return;
    }
    if bench_kernel_mode {
        bench_kernel(synthetic, threads);
        return;
    }
    if bench_rings_mode {
        bench_rings(synthetic, threads);
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

//! Replays recorded simulator traces.
//!
//! A [`TraceEvent`] stream (from a [`javaflow_fabric::RingRecorder`] fed to
//! [`javaflow_fabric::execute_with_sink`]) carries enough to recompute the
//! run's [`ExecReport`] — the Table 21 utilization numbers and, for
//! contended runs, the full Table 29 [`NetReport`] link statistics —
//! without re-simulating. [`replay`] does that reconstruction,
//! [`verify_replay`] cross-checks it bit-for-bit against the live report,
//! and [`chrome_trace_json`] renders one or more recordings as a
//! Chrome-trace / Perfetto JSON document.
//!
//! Two live counters are deliberately *not* replayable and are skipped by
//! [`verify_replay`]: `events` (scheduler pops are an engine artifact, not
//! a semantic quantity) and `events_skipped` / `wheel_*` (scheduler
//! bookkeeping).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use javaflow_fabric::net::{NetReport, NodeNetStat, RingReport};
use javaflow_fabric::trace::{decode_value, unpack_coords};
use javaflow_fabric::{ExecReport, Outcome, TraceEvent, TraceKind};

/// An [`ExecReport`] reconstructed purely from a recorded event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Outcome code: 0 returned, 1 timeout, 2 deadlock, 3 exception.
    pub outcome_code: u32,
    /// Elapsed mesh cycles.
    pub mesh_cycles: u64,
    /// Dynamic instructions fired.
    pub executed: u64,
    /// Relay firings.
    pub relay_fires: u64,
    /// Distinct static instructions that fired.
    pub static_covered: usize,
    /// `static_covered / active static instructions`.
    pub coverage: f64,
    /// Instructions per mesh cycle.
    pub ipc: f64,
    /// Fraction of elapsed ticks with ≥ 2 instructions executing.
    pub frac_cycles_ge2: f64,
    /// Fraction of elapsed ticks with ≥ 1 instruction executing.
    pub frac_cycles_ge1: f64,
    /// Serial messages sent.
    pub serial_msgs: u64,
    /// Mesh messages sent.
    pub mesh_msgs: u64,
    /// Fires per timing class.
    pub class_fires: [u64; 4],
    /// Link statistics, reconstructed when the run was contended.
    pub net: Option<NetReport>,
}

/// Reconstructs the run report from one recorded event stream.
///
/// The stream must hold exactly one run: every event up to and including
/// its [`TraceKind::End`] marker.
///
/// # Errors
///
/// If the stream has no `End` marker, more than one, or events after it.
pub fn replay(events: &[TraceEvent]) -> Result<Replay, String> {
    let mut executed = 0u64;
    let mut relay_fires = 0u64;
    let mut serial_msgs = 0u64;
    let mut mesh_msgs = 0u64;
    let mut class_fires = [0u64; 4];
    let mut covered = BTreeSet::new();
    // Busy-time replay mirrors the kernel's `set_busy`: accumulate the
    // interval since the previous busy-count change at every Fire and
    // Retire; the tail interval up to End is never accumulated.
    let (mut busy, mut last, mut acc_ge1, mut acc_ge2) = (0u64, 0u64, 0u64, 0u64);
    // Link statistics.
    let (mut hops, mut stall, mut depth_sum, mut max_depth) = (0u64, 0u64, 0u64, 0u64);
    let mut routers: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    let mut rings = [RingReport { requests: 0, wait_ticks: 0, max_queue: 0 }; 2];
    let mut end: Option<&TraceEvent> = None;
    for ev in events {
        if end.is_some() {
            return Err(format!("event {:?} after the End marker", ev.kind));
        }
        match ev.kind {
            TraceKind::TokenSend => serial_msgs += 1,
            TraceKind::MeshSend => mesh_msgs += 1,
            TraceKind::Fire => {
                let dt = ev.tick - last;
                acc_ge1 += if busy >= 1 { dt } else { 0 };
                acc_ge2 += if busy >= 2 { dt } else { 0 };
                last = ev.tick;
                busy += 1;
                executed += 1;
                covered.insert(ev.node);
                let class = ev.arg as usize;
                if class >= 4 {
                    return Err(format!("Fire @{} with timing class {class}", ev.node));
                }
                class_fires[class] += 1;
            }
            TraceKind::Retire => {
                let dt = ev.tick - last;
                acc_ge1 += if busy >= 1 { dt } else { 0 };
                acc_ge2 += if busy >= 2 { dt } else { 0 };
                last = ev.tick;
                busy = busy.checked_sub(1).ok_or("Retire without a matching Fire")?;
            }
            TraceKind::RelayFire => relay_fires += 1,
            TraceKind::LinkHop => {
                hops += 1;
                stall += ev.data;
                depth_sum += ev.aux;
                max_depth = max_depth.max(ev.aux);
                let r = routers.entry((ev.arg, ev.node)).or_insert((0, 0));
                r.0 += 1;
                r.1 += ev.data;
            }
            TraceKind::RingBoard => {
                let ring =
                    rings.get_mut(ev.arg as usize).ok_or(format!("unknown ring {}", ev.arg))?;
                ring.requests += 1;
                ring.wait_ticks += ev.data;
                ring.max_queue = ring.max_queue.max(ev.aux);
            }
            TraceKind::End => end = Some(ev),
            // Observation-only events carry no report state.
            TraceKind::ServiceDone | TraceKind::RegObserve | TraceKind::MemObserve => {}
        }
    }
    let end = end.ok_or("no End marker in the recording")?;
    if end.data == 0 {
        return Err("End marker with zero ticks per mesh cycle".into());
    }
    let ticks = end.tick.max(1);
    let mesh_cycles = ticks.div_ceil(end.data);
    let active_static = (end.aux >> 1).max(1);
    let net = if end.aux & 1 == 1 {
        // Hotspots are address-ordered in the live report: linear index
        // `y * width + x`, which (y, x) lexicographic order reproduces
        // without knowing the width.
        let hotspots = routers
            .iter()
            .map(|(&(y, x), &(flits, stall_ticks))| NodeNetStat { x, y, flits, stall_ticks })
            .collect();
        Some(NetReport {
            mesh_flits: mesh_msgs,
            mesh_hops: hops,
            stall_ticks: stall,
            max_queue_depth: max_depth,
            mean_queue_depth: if hops == 0 { 0.0 } else { depth_sum as f64 / hops as f64 },
            hotspots,
            memory_ring: rings[0],
            gpp_ring: rings[1],
        })
    } else {
        None
    };
    Ok(Replay {
        outcome_code: end.arg,
        mesh_cycles,
        executed,
        relay_fires,
        static_covered: covered.len(),
        coverage: covered.len() as f64 / active_static as f64,
        ipc: executed as f64 / mesh_cycles as f64,
        frac_cycles_ge2: acc_ge2 as f64 / ticks as f64,
        frac_cycles_ge1: acc_ge1 as f64 / ticks as f64,
        serial_msgs,
        mesh_msgs,
        class_fires,
        net,
    })
}

/// Splits a multi-run recording (several runs traced into one sink back
/// to back) at its `End` markers.
#[must_use]
pub fn split_runs(events: &[TraceEvent]) -> Vec<&[TraceEvent]> {
    let mut runs = Vec::new();
    let mut start = 0;
    for (i, ev) in events.iter().enumerate() {
        if ev.kind == TraceKind::End {
            runs.push(&events[start..=i]);
            start = i + 1;
        }
    }
    runs
}

fn outcome_code(o: &Outcome) -> u32 {
    match o {
        Outcome::Returned(_) => 0,
        Outcome::Timeout => 1,
        Outcome::Deadlock => 2,
        Outcome::Exception(_) => 3,
    }
}

/// Cross-checks a replayed report against the live one, bit-for-bit.
///
/// Floats are compared by bit pattern — the replay recomputes the same
/// divisions from the same integers, so even the rounding must agree.
/// `events`, `events_skipped`, and the wheel counters are engine
/// bookkeeping with no trace representation and are not compared.
///
/// # Errors
///
/// Names the first mismatching field.
pub fn verify_replay(replayed: &Replay, live: &ExecReport) -> Result<(), String> {
    fn eq<T: PartialEq + std::fmt::Debug>(name: &str, a: T, b: T) -> Result<(), String> {
        if a == b {
            Ok(())
        } else {
            Err(format!("{name}: replay {a:?} != live {b:?}"))
        }
    }
    eq("outcome", replayed.outcome_code, outcome_code(&live.outcome))?;
    eq("mesh_cycles", replayed.mesh_cycles, live.mesh_cycles)?;
    eq("executed", replayed.executed, live.executed)?;
    eq("relay_fires", replayed.relay_fires, live.relay_fires)?;
    eq("static_covered", replayed.static_covered, live.static_covered)?;
    eq("coverage", replayed.coverage.to_bits(), live.coverage.to_bits())?;
    eq("ipc", replayed.ipc.to_bits(), live.ipc.to_bits())?;
    eq("frac_cycles_ge2", replayed.frac_cycles_ge2.to_bits(), live.frac_cycles_ge2.to_bits())?;
    eq("frac_cycles_ge1", replayed.frac_cycles_ge1.to_bits(), live.frac_cycles_ge1.to_bits())?;
    eq("serial_msgs", replayed.serial_msgs, live.serial_msgs)?;
    eq("mesh_msgs", replayed.mesh_msgs, live.mesh_msgs)?;
    eq("class_fires", replayed.class_fires, live.class_fires)?;
    eq("net", &replayed.net.as_ref(), &live.net.as_deref())?;
    Ok(())
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One Chrome-trace duration (`ph:"X"`) event: a slice of wall/sim time
/// on a `(pid, tid)` row. The flight recorder and the simulator-trace
/// export both render through [`chrome_json`] with these.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Process row (1-based in practice; 0 is fine too).
    pub pid: u32,
    /// Thread row within the process.
    pub tid: u32,
    /// Start timestamp, in trace microseconds.
    pub ts: u64,
    /// Duration, in trace microseconds.
    pub dur: u64,
    /// Event label (escaped by the renderer).
    pub name: String,
    /// Pre-rendered JSON object for the `args` field.
    pub args: String,
}

/// Renders process/thread name metadata plus duration spans as a
/// Chrome-trace / Perfetto JSON document. `processes` maps pid → display
/// name; `threads` maps `(pid, tid)` → row name. Span `args` strings are
/// embedded verbatim and must already be valid JSON objects.
#[must_use]
pub fn chrome_json(
    processes: &[(u32, String)],
    threads: &[((u32, u32), String)],
    spans: &[TraceSpan],
) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&s);
    };
    for (pid, name) in processes {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                esc(name)
            ),
            &mut out,
        );
    }
    for ((pid, tid), name) in threads {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                esc(name)
            ),
            &mut out,
        );
    }
    for e in spans {
        push(
            format!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\",\"args\":{}}}",
                e.pid,
                e.tid,
                e.ts,
                e.dur,
                esc(&e.name),
                e.args
            ),
            &mut out,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders recordings as a Chrome-trace / Perfetto JSON document.
///
/// Each `(name, events)` pair becomes one process (pid 1, 2, …); inside
/// it, node rows are threads `1000 + y`, token kinds are threads
/// `2000 + kind`, rings `3000 + ring`, and router rows `4000 + y`.
/// Ticks map to microseconds, so a mesh cycle of `mesh_cycle_ticks()`
/// ticks shows as that many µs.
#[must_use]
pub fn chrome_trace_json(runs: &[(&str, &[TraceEvent])]) -> String {
    let mut emits: Vec<TraceSpan> = Vec::new();
    let mut threads: BTreeMap<(u32, u32), String> = BTreeMap::new();
    for (ri, (_, events)) in runs.iter().enumerate() {
        let pid = ri as u32 + 1;
        // A node is busy from its Fire to its Retire; the simulator never
        // overlaps fires of one node, so a single open-slot map suffices.
        let mut open: BTreeMap<u32, (u64, u32, u64)> = BTreeMap::new();
        for ev in *events {
            match ev.kind {
                TraceKind::Fire => {
                    open.insert(ev.node, (ev.tick, ev.arg, ev.aux));
                }
                TraceKind::Retire => {
                    if let Some((start, class, coords)) = open.remove(&ev.node) {
                        // The firing row comes from the placement coords
                        // stashed in the Fire event.
                        let (_, y) = unpack_coords(coords);
                        let tid = 1000 + y;
                        threads.entry((pid, tid)).or_insert_with(|| format!("row {y}"));
                        emits.push(TraceSpan {
                            pid,
                            tid,
                            ts: start,
                            dur: ev.tick - start,
                            name: format!("@{} fire", ev.node),
                            args: format!("{{\"class\":{class}}}"),
                        });
                    }
                }
                TraceKind::TokenSend => {
                    let code = ev.data & 7;
                    let (tid, label) = match code {
                        0 => (2000, "head".to_string()),
                        1 => (2001, "tail".to_string()),
                        2 => (2002, format!("mem#{}", ev.data >> 3)),
                        _ => (2003, format!("reg r{}", ev.data >> 3)),
                    };
                    threads.entry((pid, tid)).or_insert_with(|| {
                        ["head tokens", "tail tokens", "memory tokens", "register tokens"]
                            [code.min(3) as usize]
                            .to_string()
                    });
                    emits.push(TraceSpan {
                        pid,
                        tid,
                        ts: ev.tick,
                        dur: ev.aux.saturating_sub(ev.tick),
                        name: label,
                        args: format!("{{\"to\":{}}}", ev.arg),
                    });
                }
                TraceKind::MeshSend => {
                    let tid = 2004;
                    threads.entry((pid, tid)).or_insert_with(|| "mesh messages".to_string());
                    let (fx, fy) = unpack_coords(ev.data);
                    emits.push(TraceSpan {
                        pid,
                        tid,
                        ts: ev.tick,
                        dur: ev.aux.saturating_sub(ev.tick),
                        name: format!("mesh to @{}", ev.node),
                        args: format!("{{\"from\":[{fx},{fy}]}}"),
                    });
                }
                TraceKind::RingBoard => {
                    let tid = 3000 + ev.arg;
                    threads.entry((pid, tid)).or_insert_with(|| {
                        (if ev.arg == 0 { "memory ring" } else { "gpp ring" }).to_string()
                    });
                    emits.push(TraceSpan {
                        pid,
                        tid,
                        ts: ev.tick,
                        dur: ev.data,
                        name: "board".to_string(),
                        args: format!("{{\"queued\":{}}}", ev.aux),
                    });
                }
                TraceKind::LinkHop if ev.data > 0 => {
                    let tid = 4000 + ev.arg;
                    threads.entry((pid, tid)).or_insert_with(|| format!("router row {}", ev.arg));
                    emits.push(TraceSpan {
                        pid,
                        tid,
                        ts: ev.tick,
                        dur: ev.data,
                        name: format!("stall ({},{})", ev.node, ev.arg),
                        args: format!("{{\"depth\":{}}}", ev.aux),
                    });
                }
                TraceKind::RegObserve | TraceKind::MemObserve => {
                    let tid = 5001;
                    threads.entry((pid, tid)).or_insert_with(|| "observations".to_string());
                    let v = decode_value(ev.aux, ev.data);
                    emits.push(TraceSpan {
                        pid,
                        tid,
                        ts: ev.tick,
                        dur: 0,
                        name: format!(
                            "@{} {} {v}",
                            ev.node,
                            if ev.kind == TraceKind::RegObserve { "reg" } else { "store" }
                        ),
                        args: "{}".to_string(),
                    });
                }
                TraceKind::LinkHop
                | TraceKind::RelayFire
                | TraceKind::ServiceDone
                | TraceKind::End => {}
            }
        }
    }
    let processes: Vec<(u32, String)> = runs
        .iter()
        .enumerate()
        .map(|(ri, (name, _))| (ri as u32 + 1, (*name).to_string()))
        .collect();
    let threads: Vec<((u32, u32), String)> = threads.into_iter().collect();
    chrome_json(&processes, &threads, &emits)
}

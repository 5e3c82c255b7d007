//! Shared pieces: the counting allocator, order statistics, a seeded
//! generator, the host-speed reference, the set-up layer timings, and the
//! result document.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use javaflow_core::{population, Evaluation, PreparedPopulation};
use javaflow_fabric::WARN_COUNTERS;

/// Counts heap allocations (and reallocations) while switched on. Off,
/// it costs one relaxed load per call, so untraced runs measure the
/// program as shipped.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// side effect that never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Runs `f` with allocation counting on; returns its result, the wall
/// seconds it took, and the allocations made by every thread meanwhile.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, f64, u64) {
    let before = ALLOCS.load(Relaxed);
    COUNTING.store(true, Relaxed);
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    COUNTING.store(false, Relaxed);
    (r, secs, ALLOCS.load(Relaxed) - before)
}

/// Runs `f` untraced; returns its result and wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Linear-interpolated quantile of `v` (sorted in place); `q` in 0..=1.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `v` (sorted in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` key indices drawn as back-to-back copies of `block`, each copy
    /// shuffled: every stretch of `block.len()` requests carries the mix's
    /// exact shares, in a seed-chosen order.
    pub fn blocks(&mut self, n: usize, block: &[usize]) -> Vec<usize> {
        let mut v = Vec::with_capacity(n + block.len());
        while v.len() < n {
            let mut b = block.to_vec();
            for i in (1..b.len()).rev() {
                let j = (self.next_u64() % (i as u64 + 1)) as usize;
                b.swap(i, j);
            }
            v.extend(b);
        }
        v.truncate(n);
        v
    }
}

/// Seconds the reference takes on the nominal host (two vCPUs of a
/// Sapphire Rapids server, both idle otherwise); timings are reported as
/// they would read there.
const REFERENCE_NOMINAL_S: f64 = 0.035;

/// One pass of the reference work: a discrete-event loop (a binary heap
/// of pending events over a 256 KiB table, data-dependent branches),
/// shaped like the simulation kernel's inner loop but sharing no code
/// with the program, so no change to the program moves it.
fn reference_pass() -> u64 {
    const SLOTS: usize = 1 << 15;
    const STEPS: u64 = 300_000;
    let mut table: Vec<u64> =
        (0..SLOTS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let mut heap = BinaryHeap::with_capacity(4096);
    for i in 0..2048u64 {
        heap.push(Reverse((table[i as usize] & 0xffff, i)));
    }
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let Reverse((t, i)) = heap.pop().expect("the heap never empties");
        let slot = (acc ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d)) as usize & (SLOTS - 1);
        let v = table[slot];
        acc = acc.rotate_left(5) ^ v;
        if v & 1 == 0 {
            table[slot] = v.wrapping_add(t);
        } else {
            acc = acc.wrapping_add(v >> 3);
        }
        heap.push(Reverse((t + 1 + (v & 63), i)));
    }
    acc
}

/// How fast the host runs over a run. A shared host's speed wanders by a
/// fifth or more over tens of seconds to minutes (other tenants on the
/// same physical cores), and every timing of a run moves with it; medians
/// within a run cannot remove a slowdown that lasts the whole run. So a
/// run samples a fixed reference workload between its measurements, while
/// the program is idle, and scales its timings by the reference's median:
/// a run on a host going a fifth slower reads about what a run on a
/// steady host reads.
#[derive(Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// Times the reference on two threads at once, one per core: the
    /// median of three rounds of the two threads' mean pass time.
    pub fn sample(&mut self) {
        let mut v: Vec<f64> = (0..3)
            .map(|_| {
                std::thread::scope(|s| {
                    let passes: Vec<_> = (0..2)
                        .map(|_| s.spawn(|| timed(|| std::hint::black_box(reference_pass())).1))
                        .collect();
                    passes.into_iter().map(|p| p.join().expect("reference pass")).sum::<f64>() / 2.0
                })
            })
            .collect();
        self.0.push(median(&mut v));
    }

    /// Nominal over measured reference seconds: below 1 on a slow host.
    pub fn factor(&self) -> f64 {
        REFERENCE_NOMINAL_S / median(&mut self.0.clone())
    }

    /// The result-file block: every reference sample and the factor.
    pub fn detail(&self) -> String {
        format!(
            "{{\"nominal_s\": {}, \"samples_s\": {}, \"factor\": {}}}",
            num(REFERENCE_NOMINAL_S),
            num_array(&self.0),
            num(self.factor())
        )
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Mean absolute relative error of six FoM means against the paper's
/// Table 22 (all methods).
pub fn fom_err(foms: &[f64]) -> f64 {
    const PAPER: [f64; 6] = [1.00, 0.96, 0.88, 0.75, 0.58, 0.47];
    assert_eq!(foms.len(), PAPER.len(), "Table 22 has six configurations");
    foms.iter().zip(PAPER).map(|(f, p)| ((f - p) / p).abs()).sum::<f64>() / PAPER.len() as f64
}

/// Medians over `passes` of building each population in `sizes`
/// (`population`) and of preparing it (`PreparedPopulation::prepare` on
/// `threads`, which builds the population again), summed over the sizes.
/// Returns `(build_s, prepare_s, prepare_allocs)`, prepare net of build.
pub fn setup_layers(sizes: &[usize], threads: usize, passes: usize) -> (f64, f64, u64) {
    let (mut build_s, mut prepare_s, mut prepare_allocs) = (0.0, 0.0, 0u64);
    for &n in sizes {
        let (mut build, mut prep) = (Vec::new(), Vec::new());
        let (mut build_allocs, mut prep_allocs) = (0u64, 0u64);
        for _ in 0..passes {
            let (recs, secs, allocs) = counted(|| population(n));
            drop(recs);
            build.push(secs);
            build_allocs = allocs;
            let (p, secs, allocs) = counted(|| PreparedPopulation::prepare(n, threads));
            drop(p);
            prep.push(secs);
            prep_allocs = allocs;
        }
        let b = median(&mut build);
        build_s += b;
        prepare_s += median(&mut prep) - b;
        prepare_allocs += prep_allocs.saturating_sub(build_allocs);
    }
    (build_s, prepare_s, prepare_allocs)
}

/// Sum of an evaluation's `warn_compile_*` decline counters.
pub fn compile_declines(eval: &Evaluation) -> u64 {
    let m = eval.metrics();
    WARN_COUNTERS
        .iter()
        .filter(|(_, name)| name.starts_with("warn_compile"))
        .map(|(_, name)| m.counter(name))
        .sum()
}

/// One run's outcome: the operations checked, the metrics, and free-form
/// detail (JSON fragments) for the result file beside the run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub detail: Vec<(&'static str, String)>,
    /// Timing metrics as measured, before host-speed scaling.
    pub unscaled: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// A timing metric scaled to the nominal host: a duration is
    /// multiplied by the run's `HostSpeed` factor, a rate (`per_second`)
    /// divided by it. The measured value goes to the result file.
    pub fn timing(
        &mut self,
        name: &'static str,
        measured: f64,
        host: &HostSpeed,
        per_second: bool,
    ) {
        let f = host.factor();
        self.unscaled.push((name, measured));
        self.metric(name, if per_second { measured / f } else { measured * f });
    }

    pub fn detail(&mut self, name: &'static str, json: String) {
        self.detail.push((name, json));
    }

    /// The result line, the last line `perfbench` prints on stdout: the
    /// metrics `spec` names, as `(name, unit)`, in its order. Fails if the
    /// run measured a different set of metrics or any value is not a
    /// finite number.
    pub fn result_line(&self, spec: &[(String, String)]) -> Result<String, String> {
        if self.metrics.len() != spec.len() {
            return Err(format!(
                "measured {} metrics, BENCHMARK.json lists {}",
                self.metrics.len(),
                spec.len()
            ));
        }
        let mut m = String::new();
        for (i, (name, unit)) in spec.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .ok_or(format!("metric {name} was not measured"))?
                .1;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}, not a finite number"));
            }
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(m, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
        ))
    }

    /// The full result document: the result line plus host and detail
    /// blocks.
    pub fn document(&self, host: &str, args: &str, result_line: &str) -> String {
        let mut out = format!("{{\"args\": {args}, \"host\": {host}, \"result\": {result_line}");
        if !self.unscaled.is_empty() {
            let m: Vec<String> =
                self.unscaled.iter().map(|(n, v)| format!("\"{n}\": {}", num(*v))).collect();
            let _ = write!(out, ", \"unscaled\": {{{}}}", m.join(", "));
        }
        for (name, json) in &self.detail {
            let _ = write!(out, ", \"{name}\": {json}");
        }
        out.push('}');
        out
    }
}

/// A number in JSON; a non-finite value (an empty division) is `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `[a, b, ...]` of numbers.
pub fn num_array(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| num(*x)).collect();
    format!("[{}]", items.join(", "))
}

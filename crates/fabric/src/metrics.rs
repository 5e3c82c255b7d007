//! The instrumentation registry: named monotonic counters, high-water
//! maxima, and log₂-bucketed histograms.
//!
//! [`ExecReport`] carries per-run numbers; the registry folds a whole
//! sweep of them into one place ([`MetricsRegistry::observe_report`]),
//! merges across threads ([`MetricsRegistry::merge`]), and serializes
//! into `BENCH_kernel.json` ([`MetricsRegistry::to_json`]) and
//! the "Table 30 — Instrumentation Summary" text
//! ([`MetricsRegistry::render`]). Names are `&'static str` so the
//! registry itself never allocates per observation — only per distinct
//! metric name.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{ExecReport, Outcome};

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Bucket `b` counts samples with `bit_width == b` (bucket 0 holds
    /// the zeros, bucket 1 holds 1, bucket 2 holds 2–3, …).
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: 0, max: 0, buckets: [0; 65] }
    }
}

impl Histogram {
    /// Adds one sample.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        self.max = self.max.max(v);
        self.count += 1;
        // Saturate: a pair of near-u64::MAX samples must not wrap the
        // running sum (the mean degrades gracefully instead).
        self.sum = self.sum.saturating_add(v);
        self.buckets[64 - v.leading_zeros() as usize] += 1;
    }

    /// Folds another histogram in.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Arithmetic mean of the samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive value range of bucket `b`: `b == 0` → `{0}`,
    /// `b >= 1` → `[2^(b-1), 2^b - 1]` (bucket 64 tops out at
    /// `u64::MAX`).
    #[must_use]
    pub fn bucket_range(b: usize) -> (u64, u64) {
        if b == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (b - 1);
            (lo, lo - 1 + lo)
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) from the log₂ buckets.
    ///
    /// Finds the bucket holding the rank-`⌈q·count⌉` sample and
    /// interpolates linearly inside its value range, treating the `n`
    /// samples of the bucket as sitting at the midpoints of `n` equal
    /// sub-ranges (so a single-sample bucket reads back its midpoint,
    /// not its upper bound), clamped to the observed `[min, max]`.
    /// Exact for the extremes (`q == 0` → `min`, `q == 1` → `max`);
    /// within a factor of 2 everywhere else — the resolution a log₂
    /// histogram buys. This is what the server's p50/p95/p99 latency
    /// rows are computed from.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        // 1-based rank of the selected sample.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = Histogram::bucket_range(b);
                // Midpoint rule: sample k of n (1-based) sits at the
                // centre of the k-th of n equal slices of [lo, hi].
                let into = ((rank - seen) as f64 - 0.5) / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * into;
                // `as u64` saturates, which is what we want for bucket
                // 64 where `hi as f64` rounds up past u64::MAX.
                return (est.round() as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Appends this histogram in Prometheus text exposition format:
    /// `# TYPE` header, cumulative `{le="..."}` buckets (the log₂ bucket
    /// `b` maps to the upper bound `2^b - 1`), `+Inf`, `_sum`, `_count`.
    /// Empty buckets are elided — cumulative counts stay valid and the
    /// page stays small.
    pub fn render_prometheus(&self, out: &mut String, name: &str, help: &str) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            let le = Histogram::bucket_range(b).1;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", self.count);
        let _ = writeln!(out, "{name}_sum {}", self.sum);
        let _ = writeln!(out, "{name}_count {}", self.count);
    }
}

/// Named monotonic counters, maxima, and histograms for one sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    maxima: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

/// The per-timing-class metric names, index-aligned with
/// `DecodedInsn::timing_class`.
const CLASS_NAMES: [(&str, &str); 4] = [
    ("fires_class_move", "exec_ticks_class_move"),
    ("fires_class_float", "exec_ticks_class_float"),
    ("fires_class_convert", "exec_ticks_class_convert"),
    ("fires_class_other", "exec_ticks_class_other"),
];

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `v` to the monotonic counter `name`.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Raises the high-water mark `name` to at least `v`.
    pub fn observe_max(&mut self, name: &'static str, v: u64) {
        let slot = self.maxima.entry(name).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Adds one sample to the histogram `name`.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().observe(v);
    }

    /// Reads a counter back (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a high-water mark back (0 when never touched).
    #[must_use]
    pub fn max(&self, name: &str) -> u64 {
        self.maxima.get(name).copied().unwrap_or(0)
    }

    /// Reads a histogram back.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Folds another registry in (cross-thread / cross-shard merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in &other.maxima {
            let slot = self.maxima.entry(name).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (name, h) in &other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
    }

    /// Folds one run's [`ExecReport`] into the registry. `class_ticks`
    /// is the configuration's per-timing-class execution latency (from
    /// `FabricConfig::class_ticks`), used to histogram the execution
    /// ticks each class consumed.
    /// The caller counts `events_popped` and observes `events_per_run`:
    /// a BP-2 report's `events` also holds the events it inherited from
    /// its BP-1 twin, which the kernel never popped.
    pub fn observe_report(&mut self, r: &ExecReport, class_ticks: [u64; 4]) {
        self.add("runs", 1);
        let outcome = match r.outcome {
            Outcome::Returned(_) => "runs_returned",
            Outcome::Timeout => "runs_timeout",
            Outcome::Deadlock => "runs_deadlock",
            Outcome::Exception(_) => "runs_exception",
        };
        self.add(outcome, 1);
        self.add("instructions_executed", r.executed);
        self.add("relay_fires", r.relay_fires);
        self.add("serial_msgs", r.serial_msgs);
        self.add("mesh_msgs", r.mesh_msgs);
        self.add("mesh_cycles", r.mesh_cycles);
        self.add("wheel_pushes", r.wheel_pushes);
        self.observe_max("wheel_high_water", r.wheel_high_water);
        self.observe("executed_per_run", r.executed);
        for (k, (fires, ticks)) in CLASS_NAMES.iter().enumerate() {
            self.add(fires, r.class_fires[k]);
            self.observe(ticks, r.class_fires[k] * class_ticks[k]);
        }
        if let Some(net) = &r.net {
            self.add("net_runs", 1);
            self.add("net_mesh_flits", net.mesh_flits);
            self.add("net_mesh_hops", net.mesh_hops);
            self.add("net_stall_ticks", net.stall_ticks);
            self.observe_max("net_max_queue_depth", net.max_queue_depth);
            self.add("net_mem_ring_requests", net.memory_ring.requests);
            self.add("net_mem_ring_wait_ticks", net.memory_ring.wait_ticks);
            self.add("net_gpp_ring_requests", net.gpp_ring.requests);
            self.add("net_gpp_ring_wait_ticks", net.gpp_ring.wait_ticks);
        }
    }

    /// Serializes the registry as one JSON object (counters, maxima,
    /// histogram summaries), for embedding in `BENCH_kernel.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"maxima\":{");
        for (i, (name, v)) in self.maxima.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            );
        }
        out.push_str("}}");
        out
    }

    /// Appends the whole registry in Prometheus text exposition format.
    /// Counters become `{prefix}{name}_total`, maxima become
    /// `{prefix}{name}_max` gauges, histograms render through
    /// [`Histogram::render_prometheus`] as `{prefix}{name}`.
    pub fn render_prometheus(&self, out: &mut String, prefix: &str) {
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {prefix}{name}_total counter");
            let _ = writeln!(out, "{prefix}{name}_total {v}");
        }
        for (name, v) in &self.maxima {
            let _ = writeln!(out, "# TYPE {prefix}{name}_max gauge");
            let _ = writeln!(out, "{prefix}{name}_max {v}");
        }
        for (name, h) in &self.hists {
            h.render_prometheus(out, &format!("{prefix}{name}"), "log2-bucketed histogram");
        }
    }

    /// Renders the registry as the "Table 30" text block.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.counters.is_empty() && self.maxima.is_empty() && self.hists.is_empty() {
            let _ = writeln!(out, "(no instrumentation collected)");
            return out;
        }
        let _ = writeln!(out, "{:<28} {:>14}", "counter", "total");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<28} {v:>14}");
        }
        if !self.maxima.is_empty() {
            let _ = writeln!(out, "{:<28} {:>14}", "high-water", "max");
            for (name, v) in &self.maxima {
                let _ = writeln!(out, "{name:<28} {v:>14}");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12} {:>8} {:>10} {:>12}",
                "histogram", "count", "sum", "min", "max", "mean"
            );
            for (name, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "{name:<28} {:>10} {:>12} {:>8} {:>10} {:>12.3}",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.mean()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_width() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[11], 1); // 1024
    }

    #[test]
    fn quantiles_come_from_the_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 100 samples of 10, one of 1000: the p99 sits in the tail bucket.
        for _ in 0..100 {
            h.observe(10);
        }
        h.observe(1000);
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(1.0), 1000);
        let p50 = h.quantile(0.5);
        assert!((8..=15).contains(&p50), "p50 {p50} should sit in the 8..=15 bucket");
        let p999 = h.quantile(0.999);
        assert!((512..=1000).contains(&p999), "p99.9 {p999} should reach the tail bucket");
        // Quantiles never leave the observed range.
        let mut single = Histogram::default();
        single.observe(7);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile(q), 7);
        }
    }

    #[test]
    fn quantile_interpolates_inside_the_bucket() {
        // 4 samples spread across one bucket (32..=63): the midpoint rule
        // places ranks 1..4 at 1/8, 3/8, 5/8, 7/8 of the range instead of
        // snapping every one to the upper bound.
        let mut h = Histogram::default();
        for v in [32, 40, 50, 63] {
            h.observe(v);
        }
        let p25 = h.quantile(0.25);
        let p75 = h.quantile(0.75);
        assert!(p25 < p75, "interpolation must order ranks: p25 {p25} vs p75 {p75}");
        assert!((32..=63).contains(&p25) && (32..=63).contains(&p75));
        // A single-sample bucket reads back its midpoint, not `hi`.
        let mut one = Histogram::default();
        for _ in 0..99 {
            one.observe(1);
        }
        one.observe(600); // bucket 10 = 512..=1023, midpoint ≈ 767
        assert_eq!(one.quantile(0.995), 600, "clamped to max, not the 1023 bucket roof");
    }

    #[test]
    fn quantile_edge_cases_zero_powers_of_two_and_max() {
        // All zeros: bucket 0 has lo == hi == 0.
        let mut z = Histogram::default();
        for _ in 0..10 {
            z.observe(0);
        }
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(z.quantile(q), 0);
        }
        // Exact powers of two land in the bucket they open.
        for p in [1u64, 2, 1024, 1 << 40, 1 << 63] {
            let mut h = Histogram::default();
            h.observe(p);
            assert_eq!(h.buckets[64 - p.leading_zeros() as usize], 1);
            for q in [0.01, 0.5, 0.99] {
                assert_eq!(h.quantile(q), p, "single sample {p} must read back exactly");
            }
        }
        // u64::MAX: bucket 64's roof; the f64 round-trip saturates
        // instead of wrapping.
        let mut m = Histogram::default();
        m.observe(u64::MAX);
        m.observe(u64::MAX - 1);
        assert_eq!(m.buckets[64], 2);
        assert_eq!(m.quantile(1.0), u64::MAX);
        let p50 = m.quantile(0.5);
        assert!(p50 >= u64::MAX - 1, "bucket-64 estimate clamps into [min, max], got {p50}");
        assert_eq!(Histogram::bucket_range(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn prometheus_exposition_is_cumulative() {
        let mut h = Histogram::default();
        for v in [0, 1, 3, 1000] {
            h.observe(v);
        }
        let mut out = String::new();
        h.render_prometheus(&mut out, "t_us", "test");
        let want = "# HELP t_us test\n# TYPE t_us histogram\n\
                    t_us_bucket{le=\"0\"} 1\nt_us_bucket{le=\"1\"} 2\n\
                    t_us_bucket{le=\"3\"} 3\nt_us_bucket{le=\"1023\"} 4\n\
                    t_us_bucket{le=\"+Inf\"} 4\nt_us_sum 1004\nt_us_count 4\n";
        assert_eq!(out, want);

        let mut r = MetricsRegistry::new();
        r.add("runs", 3);
        r.observe_max("wheel_high_water", 9);
        r.observe("events_per_run", 5);
        let mut page = String::new();
        r.render_prometheus(&mut page, "javaflow_sim_");
        assert!(page.contains("# TYPE javaflow_sim_runs_total counter\njavaflow_sim_runs_total 3"));
        assert!(page.contains("javaflow_sim_wheel_high_water_max 9"));
        assert!(page.contains("javaflow_sim_events_per_run_bucket{le=\"7\"} 1"));
        assert!(page.contains("javaflow_sim_events_per_run_count 1"));
    }

    #[test]
    fn merge_is_a_fold() {
        let mut a = MetricsRegistry::new();
        a.add("x", 2);
        a.observe_max("m", 5);
        a.observe("h", 3);
        let mut b = MetricsRegistry::new();
        b.add("x", 3);
        b.observe_max("m", 4);
        b.observe("h", 7);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.max("m"), 5);
        let h = a.histogram("h").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 10, 3, 7));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = MetricsRegistry::new();
        r.add("b", 1);
        r.add("a", 2);
        r.observe("h", 4);
        let j = r.to_json();
        // BTreeMap order: keys sorted, so the artifact diffs cleanly.
        assert!(j.starts_with("{\"counters\":{\"a\":2,\"b\":1}"), "{j}");
        assert!(j.contains("\"h\":{\"count\":1,\"sum\":4,\"min\":4,\"max\":4,\"mean\":4.000"));
    }
}

//! Resident-process evaluation: prepare the population once, sweep it
//! many times.
//!
//! [`Evaluation::run`] re-prepares every method on every call — the right
//! trade for a batch tool, pure waste for a long-lived server answering
//! sweep after sweep over the same population. [`PreparedPopulation`]
//! hoists the configuration-independent work (address resolution, the
//! routing graph, the decoded dispatch tables — everything
//! [`javaflow_fabric::prepare`] produces) out of the sweep and keeps it
//! behind `Arc`s, so each request only pays placement and simulation.
//!
//! The sweep itself runs through the *same* per-record assembly as
//! [`Evaluation::run`] (`harness::eval_prepared`), so the served results
//! are byte-identical to an in-process run by construction; a test pins
//! it. [`PreparedPopulation::evaluate_batched`] additionally splits the
//! record range into bounded batches with a cancellation callback between
//! them — the seam `javaflow-serve` uses to stream progress and honour
//! per-request deadlines without tearing down a half-finished batch.

use std::sync::Arc;

use javaflow_fabric::{
    prepare, ArenaPool, DataflowGraph, DecodedMethod, FabricConfig, PreparedMethod, Resolved,
};

use crate::harness::{cost_schedule, eval_prepared};
use crate::parallel::{par_map, sweep_ordered, SweepStats, WorkerStats};
use crate::{population, EvalConfig, Evaluation, MethodRecord, MethodStatics, Sample};

/// The `Arc`-shared products of one [`prepare`] call, stored without the
/// `&Method` borrow so they can outlive any single sweep. `None` marks a
/// fabric-inexecutable method (jsr/switches) — it still contributes
/// statics, exactly as in [`Evaluation::run`].
#[derive(Debug)]
struct PreparedParts {
    resolved: Arc<Resolved>,
    graph: Arc<DataflowGraph>,
    decoded: Arc<DecodedMethod>,
}

/// A population prepared once and swept many times.
#[derive(Debug)]
pub struct PreparedPopulation {
    /// Synthetic-population size this cache was built for. Sweeps must
    /// request the same size — the records are part of the cache key.
    pub synthetic_count: usize,
    records: Arc<[MethodRecord]>,
    preps: Vec<Option<PreparedParts>>,
}

impl PreparedPopulation {
    /// Builds the population and prepares every record on `threads`
    /// workers.
    #[must_use]
    pub fn prepare(synthetic_count: usize, threads: usize) -> PreparedPopulation {
        let records = population(synthetic_count);
        let preps = par_map(&records, threads, |_, rec| {
            prepare(&rec.method).ok().map(|p| PreparedParts {
                resolved: p.resolved,
                graph: p.graph,
                decoded: p.decoded,
            })
        });
        PreparedPopulation { synthetic_count, records: records.into(), preps }
    }

    /// The cached population, index-aligned with sample record ids.
    #[must_use]
    pub fn records(&self) -> &[MethodRecord] {
        &self.records
    }

    /// Number of records in the population.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the population is empty (it never is in practice — the
    /// suite methods are always present).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Reconstructs the borrowed [`PreparedMethod`] view for one record
    /// from the cached `Arc`s — the prepare work is shared, only the
    /// struct is rebuilt.
    fn prepared_method(&self, ri: usize) -> Option<PreparedMethod<'_>> {
        self.preps[ri].as_ref().map(|p| PreparedMethod {
            method: &self.records[ri].method,
            resolved: Arc::clone(&p.resolved),
            graph: Arc::clone(&p.graph),
            decoded: Arc::clone(&p.decoded),
        })
    }

    /// Sweeps the record range `lo..hi` under `cfg`, returning each
    /// record's `(statics, samples)` in record order plus the scheduling
    /// telemetry. Sample `record` indices are absolute (population-wide),
    /// so batches concatenate into exactly what a full sweep produces.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.synthetic_count` disagrees with the cache or the
    /// range is out of bounds.
    #[must_use]
    pub fn sweep_range(
        &self,
        cfg: &EvalConfig,
        lo: usize,
        hi: usize,
    ) -> (Vec<(MethodStatics, Vec<Sample>)>, SweepStats) {
        assert_eq!(
            cfg.synthetic_count, self.synthetic_count,
            "sweep requested synthetic {} against a cache prepared for {}",
            cfg.synthetic_count, self.synthetic_count
        );
        assert!(lo <= hi && hi <= self.records.len(), "range {lo}..{hi} out of bounds");
        let configs: Vec<FabricConfig> =
            cfg.configs.iter().map(|c| c.clone().with_net(cfg.net)).collect();
        let slice = &self.records[lo..hi];
        let schedule = cost_schedule(slice, None);
        let pool = ArenaPool::global();
        let swept = sweep_ordered(
            slice,
            cfg.threads,
            &schedule,
            || pool.checkout(),
            |arena| pool.checkin(arena),
            |arena, ri, rec| {
                let prepared = self.prepared_method(lo + ri);
                eval_prepared(lo + ri, rec, prepared.as_ref(), &configs, cfg.max_mesh_cycles, arena)
            },
        );
        (swept.results, swept.stats)
    }

    /// Full evaluation from the cache — the resident-process equivalent
    /// of [`Evaluation::run`], producing bit-identical records, statics,
    /// and samples (the scheduling telemetry is the only nondeterministic
    /// field on either path).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.synthetic_count` disagrees with the cache.
    #[must_use]
    pub fn evaluate(&self, cfg: &EvalConfig) -> Evaluation {
        self.evaluate_batched(cfg, self.records.len().max(1), |_, _| true)
            .expect("an always-continue sweep cannot be cancelled")
    }

    /// [`PreparedPopulation::evaluate`] with the record range split into
    /// batches of `batch_records`. After each batch completes,
    /// `on_batch(first_record, batch_results)` observes that batch's
    /// results; returning `false` cancels the sweep between batches (no
    /// in-flight batch is interrupted) and yields `None`. Batching does
    /// not change the results — only how often the caller gets a word in.
    ///
    /// # Panics
    ///
    /// Panics if `batch_records` is 0 or `cfg.synthetic_count` disagrees
    /// with the cache.
    pub fn evaluate_batched<F>(
        &self,
        cfg: &EvalConfig,
        batch_records: usize,
        mut on_batch: F,
    ) -> Option<Evaluation>
    where
        F: FnMut(usize, &[(MethodStatics, Vec<Sample>)]) -> bool,
    {
        assert!(batch_records > 0, "batch_records must be at least 1");
        let n = self.records.len();
        let mut results = Vec::with_capacity(n);
        let mut stats = SweepStats::default();
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + batch_records).min(n);
            let (batch, batch_stats) = self.sweep_range(cfg, lo, hi);
            merge_stats(&mut stats, &batch_stats);
            let keep_going = on_batch(lo, &batch);
            results.extend(batch);
            if !keep_going {
                return None;
            }
            lo = hi;
        }
        let configs: Vec<FabricConfig> =
            cfg.configs.iter().map(|c| c.clone().with_net(cfg.net)).collect();
        Some(Evaluation::assemble(Arc::clone(&self.records), configs, results, stats))
    }
}

/// Folds one batch's scheduling telemetry into the sweep-wide totals:
/// worker slots add field-wise, the used-thread count takes the maximum.
fn merge_stats(into: &mut SweepStats, batch: &SweepStats) {
    into.threads_used = into.threads_used.max(batch.threads_used);
    if into.workers.len() < batch.workers.len() {
        into.workers.resize_with(batch.workers.len(), WorkerStats::default);
    }
    for (acc, w) in into.workers.iter_mut().zip(&batch.workers) {
        acc.records_done += w.records_done;
        acc.busy_secs += w.busy_secs;
        acc.batches += w.batches;
        acc.steals += w.steals;
    }
}

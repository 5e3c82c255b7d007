//! The result cache: finished sweeps kept for repeat requests.
//!
//! A sweep is a pure function of its [`SweepKey`](crate::server) — the
//! same property coalescing relies on — so a finished [`Evaluation`] can
//! answer every later request for the same key without simulating
//! again. The cache sits beside coalescing in the sweeper: a group is
//! formed first, then looked up once.
//!
//! Three rules keep it small and honest:
//!
//! * **Admission on second sight.** A finished sweep is only stored if
//!   its key is already in a short ring of recently swept keys, so
//!   one-off keys never hold memory; the first sweep of a key only
//!   records that it was seen, and how long it took.
//! * **Bounded twice.** Entries are capped in number and in the total
//!   samples they hold (a sample is the unit of a sweep's memory); the
//!   least recently used entry is evicted until a new one fits, and an
//!   evaluation larger than the whole sample budget is never stored.
//! * **Counted apart.** Hits and misses are counted here, never as
//!   executed sweeps or simulated events.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use javaflow_core::Evaluation;

/// Most evaluations the server keeps.
pub const MAX_ENTRIES: usize = 8;
/// Most samples, summed over all entries, the server keeps (about
/// 7 MB of `Sample`s, plus the boxed link reports of contended runs).
pub const MAX_SAMPLES: usize = 32_768;
/// How many recently swept keys admission remembers.
pub const SEEN_KEYS: usize = 16;

/// A bounded, LRU-evicted map from sweep key to finished evaluation,
/// admitting a key on its second completed sweep.
#[derive(Debug)]
pub struct ResultCache<K> {
    /// Least recently used first.
    entries: VecDeque<(K, Arc<Evaluation>)>,
    /// Keys swept once and not (yet) admitted, oldest first, with how
    /// long that sweep took.
    seen: VecDeque<(K, Duration)>,
    samples: usize,
    max_entries: usize,
    max_samples: usize,
    hits: u64,
    misses: u64,
}

impl<K: PartialEq> ResultCache<K> {
    /// An empty cache holding at most `max_entries` evaluations and
    /// `max_samples` samples in total.
    #[must_use]
    pub fn new(max_entries: usize, max_samples: usize) -> ResultCache<K> {
        ResultCache {
            entries: VecDeque::with_capacity(max_entries),
            seen: VecDeque::with_capacity(SEEN_KEYS),
            samples: 0,
            max_entries,
            max_samples,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up, counting a hit or a miss; a hit becomes the most
    /// recently used entry.
    pub fn get(&mut self, key: &K) -> Option<Arc<Evaluation>> {
        let Some(i) = self.entries.iter().position(|(k, _)| k == key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let entry = self.entries.remove(i).expect("position is in range");
        let eval = Arc::clone(&entry.1);
        self.entries.push_back(entry);
        Some(eval)
    }

    /// Whether `key` is stored, without counting a lookup or touching
    /// its recency.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// How long the sweep of a key swept once and not yet stored took:
    /// `Some` exactly when that key's next completed sweep is offered for
    /// storage.
    #[must_use]
    pub fn first_sweep_time(&self, key: &K) -> Option<Duration> {
        self.seen.iter().find(|(k, _)| k == key).map(|&(_, took)| took)
    }

    /// Offers a freshly swept evaluation. The first offer of a key only
    /// remembers it; a second offer while the key is still remembered
    /// stores the evaluation, evicting least recently used entries until
    /// both bounds hold. Returns whether it was stored.
    pub fn offer(&mut self, key: K, eval: &Arc<Evaluation>) -> bool {
        self.offer_timed(key, eval, Duration::ZERO)
    }

    /// [`ResultCache::offer`] for a sweep that took `took`; a first offer
    /// remembers it for [`ResultCache::first_sweep_time`].
    pub fn offer_timed(&mut self, key: K, eval: &Arc<Evaluation>, took: Duration) -> bool {
        let Some(i) = self.seen.iter().position(|(k, _)| *k == key) else {
            if self.seen.len() == SEEN_KEYS {
                self.seen.pop_front();
            }
            self.seen.push_back((key, took));
            return false;
        };
        let n = eval.samples.len();
        if n > self.max_samples || self.max_entries == 0 {
            return false;
        }
        self.seen.remove(i);
        while self.entries.len() >= self.max_entries || self.samples + n > self.max_samples {
            let (_, old) = self.entries.pop_front().expect("bounds exceeded only when non-empty");
            self.samples -= old.samples.len();
        }
        self.samples += n;
        self.entries.push_back((key, Arc::clone(eval)));
        true
    }

    /// Stored evaluations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Samples held across all stored evaluations.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to sweep.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

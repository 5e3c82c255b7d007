//! A hierarchical timing wheel for the event-driven simulator.
//!
//! The kernel's event stream is *monotone* — every push schedules at
//! `now + d` with `d ≥ 0` — and overwhelmingly *short-delta*: serial hops,
//! mesh flits, and the Table 17 execution latencies are all within a few
//! hundred ticks, while only the ring service round-trips reach further
//! out. A comparison-based heap pays `O(log n)` per event for ordering
//! power that this stream never uses. The wheel replaces it with bucket
//! scheduling:
//!
//! * **Level 0** — 256 single-tick buckets covering the current 256-tick
//!   *page* (`tick >> 8`). Push and pop are array indexing; a 256-bit
//!   occupancy bitmap finds the next non-empty bucket with a couple of
//!   `trailing_zeros`.
//! * **Level 1** — 64 page slots covering the next 64 pages (16384 ticks).
//!   Events land in the slot of their page (`page & 63`) tagged with their
//!   full tick; when the cursor enters a page, its slot is refiled into
//!   level 0 in push order.
//! * **Overflow** — everything beyond the level-1 horizon, kept in a push
//!   -ordered `Vec` with a tracked minimum. Overflow events for a page are
//!   promoted when the cursor reaches it — *before* that page's level-1
//!   slot is refiled, which preserves global insertion order (see below).
//!
//! # Ordering invariant
//!
//! The simulator's determinism contract is a total order on events by
//! `(tick, push sequence)`. The wheel preserves it *structurally*, without
//! storing sequence numbers: within a bucket events pop in push (FIFO)
//! order, and the promotion rules keep earlier pushes ahead of later ones
//! when levels merge. The key case is a page `P` whose events arrived
//! partly through overflow and partly through level 1: an overflow push
//! requires the cursor's page `p0 ≤ P − 64`, while a level-1 push requires
//! `p0 > P − 64`. The cursor only advances, so *every* overflow push for
//! `P` happened before *every* level-1 push for `P`; promoting overflow
//! first is exactly insertion order. The property test in
//! `crates/fabric/tests/wheel_order.rs` drives this against a
//! `(tick, seq)` binary heap on randomized monotone streams.
//!
//! Same-tick pushes *during* the drain of that tick's bucket are appended
//! behind the in-flight bucket cursor and popped in order — a case the
//! collapsed Baseline configuration (zero-tick serial hops) hits on every
//! token.

/// Level-0 span: one page of single-tick buckets.
const L0_SLOTS: usize = 256;
/// Level-1 span in pages.
const L1_SLOTS: usize = 64;

/// A two-level + overflow timing wheel with O(1) push and amortized O(1)
/// pop for monotone, mostly-short-delta event streams.
///
/// `T` must be `Copy`: buckets are drained by index so that same-tick
/// pushes can append behind the cursor without invalidating it.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// The current tick. No event below `cursor` remains in the wheel.
    cursor: u64,
    /// Total events stored across all levels.
    len: usize,
    /// Level 0: single-tick buckets for the cursor's page.
    l0: Vec<Vec<T>>,
    /// Occupancy bitmap over `l0` (bit = slot has events).
    l0_occ: [u64; 4],
    /// Drain position inside the active level-0 bucket (the cursor's
    /// slot); entries before it have already been popped.
    l0_pos: usize,
    /// Level 1: per-page slots of `(tick, event)` in push order.
    l1: Vec<Vec<(u64, T)>>,
    /// Occupancy bitmap over `l1`.
    l1_occ: u64,
    /// Events beyond the level-1 horizon, in push order.
    overflow: Vec<(u64, T)>,
    /// Minimum tick present in `overflow` (`u64::MAX` when empty).
    overflow_min: u64,
    /// Largest `len` seen since the last [`TimingWheel::clear`] — the
    /// FIFO high-water mark the instrumentation registry reports.
    high_water: usize,
    /// Pushes since the last [`TimingWheel::clear`].
    pushes: u64,
}

impl<T: Copy> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T: Copy> TimingWheel<T> {
    /// An empty wheel positioned at tick 0.
    #[must_use]
    pub fn new() -> TimingWheel<T> {
        TimingWheel {
            cursor: 0,
            len: 0,
            l0: (0..L0_SLOTS).map(|_| Vec::new()).collect(),
            l0_occ: [0; 4],
            l0_pos: 0,
            l1: (0..L1_SLOTS).map(|_| Vec::new()).collect(),
            l1_occ: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            high_water: 0,
            pushes: 0,
        }
    }

    /// Number of events stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of events simultaneously stored since the last
    /// [`TimingWheel::clear`].
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Pushes accepted since the last [`TimingWheel::clear`].
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Empties the wheel and rewinds the cursor to tick 0, keeping every
    /// bucket's capacity for reuse.
    pub fn clear(&mut self) {
        for w in 0..4 {
            let mut bits = self.l0_occ[w];
            while bits != 0 {
                let s = (w << 6) + bits.trailing_zeros() as usize;
                self.l0[s].clear();
                bits &= bits - 1;
            }
            self.l0_occ[w] = 0;
        }
        let mut bits = self.l1_occ;
        while bits != 0 {
            self.l1[bits.trailing_zeros() as usize].clear();
            bits &= bits - 1;
        }
        self.l1_occ = 0;
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.cursor = 0;
        self.l0_pos = 0;
        self.len = 0;
        self.high_water = 0;
        self.pushes = 0;
    }

    /// Makes `self` an exact copy of `src`: every pending event in its
    /// bucket and order, the cursor, the drain position and the
    /// counters. Reuses `self`'s bucket capacity, so copying into a warm
    /// wheel does not allocate.
    pub fn copy_from(&mut self, src: &TimingWheel<T>) {
        self.clear();
        for w in 0..4 {
            let mut bits = src.l0_occ[w];
            while bits != 0 {
                let s = (w << 6) + bits.trailing_zeros() as usize;
                self.l0[s].extend_from_slice(&src.l0[s]);
                bits &= bits - 1;
            }
        }
        let mut bits = src.l1_occ;
        while bits != 0 {
            let s = bits.trailing_zeros() as usize;
            self.l1[s].extend_from_slice(&src.l1[s]);
            bits &= bits - 1;
        }
        self.overflow.extend_from_slice(&src.overflow);
        self.l0_occ = src.l0_occ;
        self.l1_occ = src.l1_occ;
        self.overflow_min = src.overflow_min;
        self.cursor = src.cursor;
        self.l0_pos = src.l0_pos;
        self.len = src.len;
        self.high_water = src.high_water;
        self.pushes = src.pushes;
    }

    /// Schedules `item` at tick `at`. Pushes must be monotone: `at` must
    /// not precede the tick of the last pop.
    pub fn push(&mut self, at: u64, item: T) {
        debug_assert!(at >= self.cursor, "non-monotone push: {at} < {}", self.cursor);
        let page = at >> 8;
        let p0 = self.cursor >> 8;
        if page == p0 {
            let slot = (at & 0xff) as usize;
            self.l0[slot].push(item);
            self.l0_occ[slot >> 6] |= 1 << (slot & 63);
        } else if page - p0 < L1_SLOTS as u64 {
            let slot = (page & 63) as usize;
            self.l1[slot].push((at, item));
            self.l1_occ |= 1 << slot;
        } else {
            self.overflow.push((at, item));
            self.overflow_min = self.overflow_min.min(at);
        }
        self.len += 1;
        self.pushes += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
    }

    /// Removes and returns the earliest event as `(tick, item)`. Ties pop
    /// in push order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(slot) = self.first_occupied_l0() {
                let at = (self.cursor & !0xff) | slot as u64;
                self.cursor = at;
                let bucket = &mut self.l0[slot];
                let item = bucket[self.l0_pos];
                self.l0_pos += 1;
                if self.l0_pos == bucket.len() {
                    bucket.clear();
                    self.l0_pos = 0;
                    self.l0_occ[slot >> 6] &= !(1 << (slot & 63));
                }
                self.len -= 1;
                return Some((at, item));
            }
            // The current page is drained: jump to the next page holding
            // events (level 1 or overflow) and refile it into level 0.
            let next = self.next_page_with_events();
            self.advance_to_page(next);
        }
    }

    /// Drains the entire earliest non-empty bucket into `out` (appending)
    /// and returns its tick, or `None` when the wheel is empty. Events are
    /// appended in push (FIFO) order, so `pop_tick` + an in-order scan of
    /// `out` observes exactly the sequence the one-at-a-time [`Self::pop`]
    /// would have produced. Same-tick pushes made *while* the batch is
    /// processed land in the (now empty) bucket and are returned by the
    /// next `pop_tick`, which reports the same tick again — mirroring the
    /// mid-drain append behaviour of `pop`.
    pub fn pop_tick(&mut self, out: &mut Vec<T>) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(slot) = self.first_occupied_l0() {
                let at = (self.cursor & !0xff) | slot as u64;
                self.cursor = at;
                let bucket = &mut self.l0[slot];
                out.extend_from_slice(&bucket[self.l0_pos..]);
                self.len -= bucket.len() - self.l0_pos;
                bucket.clear();
                self.l0_pos = 0;
                self.l0_occ[slot >> 6] &= !(1 << (slot & 63));
                return Some(at);
            }
            let next = self.next_page_with_events();
            self.advance_to_page(next);
        }
    }

    /// First occupied level-0 slot at or after the cursor's slot.
    fn first_occupied_l0(&self) -> Option<usize> {
        let from = (self.cursor & 0xff) as usize;
        let mut w = from >> 6;
        let mut bits = self.l0_occ[w] & (u64::MAX << (from & 63));
        loop {
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w == 4 {
                return None;
            }
            bits = self.l0_occ[w];
        }
    }

    /// Earliest page beyond the cursor's with events in level 1 or
    /// overflow. Only called when `len > 0` and level 0 is drained, so a
    /// candidate always exists.
    fn next_page_with_events(&self) -> u64 {
        let p0 = self.cursor >> 8;
        let mut best = u64::MAX;
        let mut bits = self.l1_occ;
        while bits != 0 {
            let s = u64::from(bits.trailing_zeros());
            // Smallest page > p0 whose level-1 slot is `s`.
            let page = p0 + 1 + (s.wrapping_sub(p0 + 1) & 63);
            best = best.min(page);
            bits &= bits - 1;
        }
        if !self.overflow.is_empty() {
            best = best.min(self.overflow_min >> 8);
        }
        debug_assert!(best != u64::MAX, "no events beyond page {p0} but len = {}", self.len);
        best
    }

    /// Moves the cursor to the start of page `p` and refiles that page's
    /// events into level 0 — overflow first (earlier pushes), then the
    /// level-1 slot (later pushes), each in its own push order.
    fn advance_to_page(&mut self, p: u64) {
        self.cursor = p << 8;
        self.l0_pos = 0;
        if self.overflow_min >> 8 <= p {
            let (l0, occ) = (&mut self.l0, &mut self.l0_occ);
            let mut new_min = u64::MAX;
            self.overflow.retain(|&(at, item)| {
                if at >> 8 == p {
                    let slot = (at & 0xff) as usize;
                    l0[slot].push(item);
                    occ[slot >> 6] |= 1 << (slot & 63);
                    false
                } else {
                    new_min = new_min.min(at);
                    true
                }
            });
            self.overflow_min = new_min;
        }
        let slot = (p & 63) as usize;
        if self.l1_occ >> slot & 1 == 1 {
            for k in 0..self.l1[slot].len() {
                let (at, item) = self.l1[slot][k];
                debug_assert_eq!(at >> 8, p, "level-1 slot holds a foreign page");
                let s0 = (at & 0xff) as usize;
                self.l0[s0].push(item);
                self.l0_occ[s0 >> 6] |= 1 << (s0 & 63);
            }
            self.l1[slot].clear();
            self.l1_occ &= !(1 << slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_tick() {
        let mut w = TimingWheel::new();
        w.push(5, 'a');
        w.push(5, 'b');
        w.push(5, 'c');
        assert_eq!(w.pop(), Some((5, 'a')));
        assert_eq!(w.pop(), Some((5, 'b')));
        assert_eq!(w.pop(), Some((5, 'c')));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn same_tick_push_during_drain() {
        let mut w = TimingWheel::new();
        w.push(0, 1);
        w.push(0, 2);
        assert_eq!(w.pop(), Some((0, 1)));
        // Zero-delta reschedule while the bucket is mid-drain — the
        // collapsed Baseline does this on every serial token.
        w.push(0, 3);
        assert_eq!(w.pop(), Some((0, 2)));
        assert_eq!(w.pop(), Some((0, 3)));
        assert!(w.is_empty());
    }

    #[test]
    fn cross_page_and_level1() {
        let mut w = TimingWheel::new();
        w.push(300, 'x'); // page 1 → level 1
        w.push(10, 'y'); // page 0 → level 0
        assert_eq!(w.pop(), Some((10, 'y')));
        assert_eq!(w.pop(), Some((300, 'x')));
    }

    #[test]
    fn overflow_promotes_ahead_of_level1() {
        let mut w = TimingWheel::new();
        let far = 256 * 100 + 7;
        w.push(far, 'o'); // beyond the horizon → overflow
        w.push(0, 's');
        assert_eq!(w.pop(), Some((0, 's')));
        // Cursor at 0; page 100 is now within the level-1 horizon.
        w.push(far, 'l'); // → level 1
        assert_eq!(w.pop(), Some((far, 'o')), "overflow pushes precede level-1 pushes");
        assert_eq!(w.pop(), Some((far, 'l')));
    }

    #[test]
    fn jump_over_empty_pages() {
        let mut w = TimingWheel::new();
        w.push(1_000_000, 9);
        assert_eq!(w.pop(), Some((1_000_000, 9)));
        w.push(1_000_000, 10); // same tick, after the jump
        assert_eq!(w.pop(), Some((1_000_000, 10)));
    }

    #[test]
    fn clear_rewinds_and_reuses() {
        let mut w = TimingWheel::new();
        w.push(3, 1);
        w.push(70_000, 2);
        w.clear();
        assert!(w.is_empty());
        w.push(0, 5);
        assert_eq!(w.pop(), Some((0, 5)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn pop_tick_drains_whole_bucket() {
        let mut w = TimingWheel::new();
        w.push(5, 'a');
        w.push(5, 'b');
        w.push(9, 'c');
        let mut out = Vec::new();
        assert_eq!(w.pop_tick(&mut out), Some(5));
        assert_eq!(out, ['a', 'b']);
        out.clear();
        assert_eq!(w.pop_tick(&mut out), Some(9));
        assert_eq!(out, ['c']);
        out.clear();
        assert_eq!(w.pop_tick(&mut out), None);
        assert!(w.is_empty());
    }

    #[test]
    fn pop_tick_same_tick_push_during_batch() {
        let mut w = TimingWheel::new();
        w.push(0, 1);
        let mut out = Vec::new();
        assert_eq!(w.pop_tick(&mut out), Some(0));
        assert_eq!(out, [1]);
        // Zero-delta reschedule mid-batch: the next pop_tick must report
        // tick 0 again with the late event.
        w.push(0, 2);
        out.clear();
        assert_eq!(w.pop_tick(&mut out), Some(0));
        assert_eq!(out, [2]);
    }

    #[test]
    fn pop_tick_after_partial_pop() {
        let mut w = TimingWheel::new();
        w.push(7, 'x');
        w.push(7, 'y');
        w.push(7, 'z');
        assert_eq!(w.pop(), Some((7, 'x')));
        // A batch drain mid-bucket must only yield the unpopped tail.
        let mut out = Vec::new();
        assert_eq!(w.pop_tick(&mut out), Some(7));
        assert_eq!(out, ['y', 'z']);
        assert!(w.is_empty());
    }

    #[test]
    fn pop_tick_crosses_levels() {
        let mut w = TimingWheel::new();
        let far = 256 * 100 + 7;
        w.push(far, 'o'); // overflow
        w.push(3, 's');
        let mut out = Vec::new();
        assert_eq!(w.pop_tick(&mut out), Some(3));
        w.push(far, 'l'); // level 1, later push
        out.clear();
        assert_eq!(w.pop_tick(&mut out), Some(far));
        assert_eq!(out, ['o', 'l'], "overflow pushes precede level-1 pushes");
    }

    #[test]
    fn copy_continues_like_the_original() {
        let mut w = TimingWheel::new();
        for (i, t) in [4u64, 4, 4, 300, 90_000, 17].into_iter().enumerate() {
            w.push(t, i);
        }
        assert_eq!(w.pop(), Some((4, 0)));
        // Copy mid-bucket, into a wheel holding stale events elsewhere.
        let mut c = TimingWheel::new();
        c.push(200, 99);
        c.copy_from(&w);
        assert_eq!((c.len(), c.pushes(), c.high_water()), (w.len(), w.pushes(), w.high_water()));
        for t in [4, 500] {
            w.push(t, 7);
            c.push(t, 7);
        }
        let drain = |w: &mut TimingWheel<usize>| std::iter::from_fn(|| w.pop()).collect::<Vec<_>>();
        assert_eq!(drain(&mut c), drain(&mut w));
    }

    #[test]
    fn interleaved_pages_in_order() {
        let mut w = TimingWheel::new();
        let ticks = [0u64, 255, 256, 257, 511, 512, 16_500, 70_000, 70_000];
        for (i, &t) in ticks.iter().enumerate() {
            w.push(t, i);
        }
        let mut got = Vec::new();
        while let Some((at, i)) = w.pop() {
            got.push((at, i));
        }
        let mut want: Vec<(u64, usize)> = ticks.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        want.sort_by_key(|&(t, i)| (t, i));
        assert_eq!(got, want);
    }
}

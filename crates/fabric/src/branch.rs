//! Branch decision sources: real data or the Chapter 7 predictor script.
//!
//! "The Branch/Jump predictions applied to the simulation was not complex
//! and used consistently across all 6 configurations. For all forward
//! jumps, the taken/not-taken ratio was 50%. BP1 started with the first
//! forward jump taken while BP2 started with the first jump not taken. In
//! all cases back jumps had a taken percentage of 90%": the first nine
//! executions of a back jump are taken, the tenth falls through.

/// Where conditional-jump outcomes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchMode {
    /// Evaluate the real operand data (co-simulation with the golden model).
    Data,
    /// Scripted predictor, first forward jump taken (Chapter 7 "BP-1").
    Bp1,
    /// Scripted predictor, first forward jump not taken ("BP-2").
    Bp2,
}

impl BranchMode {
    /// Whether evaluation should be lenient (scripted runs carry dummy
    /// data).
    #[must_use]
    pub fn is_scripted(self) -> bool {
        !matches!(self, BranchMode::Data)
    }
}

/// Per-site branch outcome oracle.
///
/// Sites are dense instruction addresses, so the state lives in flat,
/// lazily grown vectors instead of hash maps — [`BranchOracle::reset`]
/// rewinds the script while keeping the capacity, so a simulation arena
/// can reuse one oracle across runs without allocating.
#[derive(Debug)]
pub struct BranchOracle {
    mode: BranchMode,
    /// Next forward outcome per jump site: 0 = unseen, 1 = next taken,
    /// 2 = next not-taken (alternates).
    fwd: Vec<u8>,
    /// Executions seen per back-jump site.
    back: Vec<u32>,
}

impl BranchOracle {
    /// A fresh oracle for the given mode.
    #[must_use]
    pub fn new(mode: BranchMode) -> BranchOracle {
        BranchOracle { mode, fwd: Vec::new(), back: Vec::new() }
    }

    /// The oracle's mode.
    #[must_use]
    pub fn mode(&self) -> BranchMode {
        self.mode
    }

    /// Rewinds the script to its start for `mode`, keeping allocations.
    pub fn reset(&mut self, mode: BranchMode) {
        self.mode = mode;
        self.fwd.clear();
        self.back.clear();
    }

    /// Makes `self` the BP-2 twin of `bp1`, a BP-1 oracle that has not
    /// decided a forward jump yet. The two scripts differ only in where
    /// each forward site's alternation starts, so up to that point their
    /// state is the same: the back-jump counts.
    pub fn fork_bp2(&mut self, bp1: &BranchOracle) {
        debug_assert!(bp1.mode == BranchMode::Bp1 && bp1.fwd.is_empty());
        self.mode = BranchMode::Bp2;
        self.fwd.clear();
        self.back.clone_from(&bp1.back);
    }

    /// Decides a conditional jump at `site`. In data mode the caller's
    /// evaluated `data_decision` wins; in scripted modes the script does.
    pub fn decide(&mut self, site: u32, is_back: bool, data_decision: bool) -> bool {
        match self.mode {
            BranchMode::Data => data_decision,
            BranchMode::Bp1 | BranchMode::Bp2 => {
                let site = site as usize;
                if is_back {
                    if site >= self.back.len() {
                        self.back.resize(site + 1, 0);
                    }
                    let n = &mut self.back[site];
                    let taken = *n % 10 != 9; // 9 of 10 taken
                    *n += 1;
                    taken
                } else {
                    if site >= self.fwd.len() {
                        self.fwd.resize(site + 1, 0);
                    }
                    let next = &mut self.fwd[site];
                    if *next == 0 {
                        *next = if self.mode == BranchMode::Bp1 { 1 } else { 2 };
                    }
                    let taken = *next == 1;
                    *next = if taken { 2 } else { 1 };
                    taken
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bp1_alternates_starting_taken() {
        let mut o = BranchOracle::new(BranchMode::Bp1);
        let seq: Vec<bool> = (0..4).map(|_| o.decide(5, false, false)).collect();
        assert_eq!(seq, vec![true, false, true, false]);
    }

    #[test]
    fn bp2_alternates_starting_not_taken() {
        let mut o = BranchOracle::new(BranchMode::Bp2);
        let seq: Vec<bool> = (0..4).map(|_| o.decide(5, false, true)).collect();
        assert_eq!(seq, vec![false, true, false, true]);
    }

    #[test]
    fn back_jumps_taken_nine_of_ten() {
        let mut o = BranchOracle::new(BranchMode::Bp1);
        let seq: Vec<bool> = (0..20).map(|_| o.decide(9, true, false)).collect();
        assert_eq!(seq.iter().filter(|t| **t).count(), 18);
        assert!(!seq[9]);
        assert!(!seq[19]);
    }

    #[test]
    fn sites_independent() {
        let mut o = BranchOracle::new(BranchMode::Bp1);
        assert!(o.decide(1, false, false));
        assert!(o.decide(2, false, false)); // fresh site starts taken again
    }

    #[test]
    fn reset_rewinds_the_script() {
        let mut o = BranchOracle::new(BranchMode::Bp1);
        assert!(o.decide(3, false, false));
        assert!(!o.decide(3, false, false));
        o.reset(BranchMode::Bp2);
        assert!(!o.decide(3, false, false), "reset restarts the BP2 alternation");
        assert!(o.decide(3, false, false));
    }

    #[test]
    fn bp2_fork_continues_like_a_fresh_bp2() {
        let mut bp1 = BranchOracle::new(BranchMode::Bp1);
        let mut bp2 = BranchOracle::new(BranchMode::Bp2);
        for _ in 0..3 {
            assert_eq!(bp1.decide(7, true, false), bp2.decide(7, true, false));
        }
        let mut twin = BranchOracle::new(BranchMode::Data);
        twin.fork_bp2(&bp1);
        assert_eq!(twin.mode(), BranchMode::Bp2);
        for (site, back) in [(2, false), (7, true), (2, false), (9, false), (7, true)] {
            assert_eq!(twin.decide(site, back, false), bp2.decide(site, back, false));
        }
    }

    #[test]
    fn data_mode_uses_data() {
        let mut o = BranchOracle::new(BranchMode::Data);
        assert!(o.decide(1, false, true));
        assert!(!o.decide(1, true, false));
        assert!(!BranchMode::Data.is_scripted());
        assert!(BranchMode::Bp2.is_scripted());
    }
}

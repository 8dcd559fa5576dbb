//! The fair-share arbiter: deterministic batch weighted round-robin.
//!
//! The pool asks [`FairShare::next`] which campaign gets the next
//! dispatch grant. The answer is a pure function of (a) registration
//! order, (b) weights, and (c) the runnable predicate at each call —
//! never of wall-clock timing — so a fleet re-run with the same
//! submission order makes the same scheduling decisions. (Results
//! never depend on scheduling at all; determinism here is for
//! reproducible *behaviour*: WAL contents, worker assignment, metric
//! trajectories.)
//!
//! The discipline is batch WRR: each refill cycle grants a campaign up
//! to `weight` dispatches before the cursor moves on, and refills every
//! campaign's credit (set, not add — a blocked campaign cannot bank
//! unbounded credit) only when no runnable campaign has any left.
//! Starvation is impossible: a continuously-runnable campaign receives
//! at least one grant per cycle, and a cycle is at most the weight sum
//! long, so its wait between grants is bounded by twice the weight sum
//! regardless of the weight vector — the property the proptests pin.

/// One registered campaign's arbiter state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    id: u64,
    weight: u32,
    credit: u32,
}

/// Deterministic batch-WRR arbiter over registered campaigns. See the
/// module docs.
#[derive(Debug, Default, Clone)]
pub struct FairShare {
    entries: Vec<Entry>,
    cursor: usize,
}

impl FairShare {
    /// An empty arbiter.
    pub fn new() -> FairShare {
        FairShare::default()
    }

    /// Registers a campaign with the given weight (clamped to ≥ 1).
    /// Registration order is part of the schedule: campaigns are
    /// scanned in it.
    pub fn register(&mut self, id: u64, weight: u32) {
        let weight = weight.max(1);
        self.entries.push(Entry {
            id,
            weight,
            credit: weight,
        });
    }

    /// Removes a campaign (a completed or failed tenant).
    pub(crate) fn unregister(&mut self, id: u64) {
        if let Some(pos) = self.entries.iter().position(|e| e.id == id) {
            self.entries.remove(pos);
            if pos < self.cursor {
                self.cursor -= 1;
            }
        }
        if self.cursor >= self.entries.len() {
            self.cursor = 0;
        }
    }

    /// Grants the next dispatch to a runnable campaign, or `None` when
    /// no registered campaign is runnable. `runnable` is consulted for
    /// each candidate; a campaign with queued work and worker capacity
    /// should answer true.
    pub fn next<F: Fn(u64) -> bool>(&mut self, runnable: F) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        for pass in 0..2 {
            let n = self.entries.len();
            for probe in 0..n {
                let i = (self.cursor + probe) % n;
                let entry = &mut self.entries[i];
                if entry.credit > 0 && runnable(entry.id) {
                    entry.credit -= 1;
                    // The cursor stays on the granted entry: it keeps
                    // draining its batch until its credit runs out.
                    self.cursor = i;
                    return Some(entry.id);
                }
            }
            if pass == 0 {
                // Every runnable campaign is out of credit: start a new
                // cycle. Credits are *set* to the weight, not added, and
                // the rotation resumes past the last-granted entry so the
                // campaign that closed one cycle does not also open the
                // next.
                for entry in &mut self.entries {
                    entry.credit = entry.weight;
                }
                self.cursor = (self.cursor + 1) % n;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_shape_the_grant_ratio() {
        let mut fs = FairShare::new();
        fs.register(1, 3);
        fs.register(2, 1);
        let grants: Vec<u64> = (0..8).map(|_| fs.next(|_| true).unwrap()).collect();
        assert_eq!(grants, [1, 1, 1, 2, 1, 1, 1, 2]);
    }

    #[test]
    fn blocked_campaigns_are_skipped_without_banking_credit() {
        let mut fs = FairShare::new();
        fs.register(1, 2);
        fs.register(2, 2);
        // Campaign 1 blocked: 2 drains alone.
        for _ in 0..5 {
            assert_eq!(fs.next(|id| id == 2), Some(2));
        }
        // Campaign 1 comes back: it gets its weight per cycle, not five
        // cycles of banked credit.
        let grants: Vec<u64> = (0..8).map(|_| fs.next(|_| true).unwrap()).collect();
        let ones = grants.iter().filter(|&&g| g == 1).count();
        assert_eq!(ones, 4, "grants: {grants:?}");
    }

    #[test]
    fn nothing_runnable_means_none() {
        let mut fs = FairShare::new();
        assert_eq!(fs.next(|_| true), None);
        fs.register(1, 1);
        assert_eq!(fs.next(|_| false), None);
        assert_eq!(fs.next(|_| true), Some(1));
    }

    #[test]
    fn unregister_keeps_the_rotation_sane() {
        let mut fs = FairShare::new();
        fs.register(1, 1);
        fs.register(2, 1);
        fs.register(3, 1);
        assert_eq!(fs.next(|_| true), Some(1));
        fs.unregister(1);
        let grants: Vec<u64> = (0..4).map(|_| fs.next(|_| true).unwrap()).collect();
        assert!(grants.iter().all(|g| *g == 2 || *g == 3), "{grants:?}");
        assert!(grants.contains(&2) && grants.contains(&3), "{grants:?}");
    }
}

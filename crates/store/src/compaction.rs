//! Size-tiered compaction policy for sealed segments.
//!
//! Every sealed segment of a partition answers every range query, so an
//! un-compacted partition pays one synopsis probe per segment per query.
//! The size-tiered policy bounds that fan-out the way LSM stores do:
//! segments are grouped into **tiers** of similar size (record count), and
//! when a tier accumulates enough members they are merged — summed on the
//! union of their bucket boundaries and re-bucketed by the merge DP — into
//! one segment whose size promotes it to the next tier.  Small fresh seals
//! therefore merge often and cheaply; large merged segments merge rarely.
//!
//! The policy only *selects*; the thread whose install filled the tier runs
//! the merge against cloned segment handles, with no lock held, and swaps
//! the result in under a short write lock (see the crate docs' durability
//! matrix for how the swap commits through the manifest).
//!
//! Selection is a pure function of the `(seq, records)` list, so a given
//! seal history always compacts the same way — the property the
//! deterministic crash matrix leans on.

/// When and what to compact (configured per store through
/// [`StoreConfig::compaction`](crate::StoreConfig::compaction)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// A tier must hold at least this many segments before it merges
    /// (LSM parlance: `min_threshold`).  Values below 2 behave as 2.
    pub min_merge: usize,
    /// Two segments share a tier while the larger holds at most
    /// `tier_ratio` times the records of the smaller.  Values below 1.0
    /// behave as 1.0 (exact-size tiers).
    pub tier_ratio: f64,
}

impl Default for CompactionPolicy {
    /// Merge four similar-sized segments at a time, sizes within 2x —
    /// the classic size-tiered defaults.
    fn default() -> Self {
        CompactionPolicy {
            min_merge: 4,
            tier_ratio: 2.0,
        }
    }
}

impl CompactionPolicy {
    /// Picks the segments one compaction round should merge, given each
    /// sealed segment's `(seal sequence, record count)`.  Returns the seal
    /// sequences of the chosen tier — the smallest-sized eligible tier, so
    /// cheap merges happen first — or `None` when no tier is full.
    pub fn select(&self, segments: &[(u64, u64)]) -> Option<Vec<u64>> {
        let min_merge = self.min_merge.max(2);
        let ratio = self.tier_ratio.max(1.0);
        if segments.len() < min_merge {
            return None;
        }
        // Tier by size: sort ascending by (records, seq), then greedily cut
        // maximal runs where every member stays within `ratio` of the run's
        // smallest.  The first full run is the cheapest eligible merge.
        let mut by_size: Vec<(u64, u64)> = segments
            .iter()
            .map(|&(seq, records)| (records, seq))
            .collect();
        by_size.sort_unstable();
        let mut run_start = 0usize;
        for i in 0..=by_size.len() {
            let run_ends = i == by_size.len()
                || by_size[i].0 as f64 > ratio * (by_size[run_start].0.max(1)) as f64;
            if !run_ends {
                continue;
            }
            if i - run_start >= min_merge {
                let mut seqs: Vec<u64> = by_size[run_start..i].iter().map(|&(_, s)| s).collect();
                seqs.sort_unstable();
                return Some(seqs);
            }
            run_start = i;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_tiers_are_selected_smallest_first() {
        let policy = CompactionPolicy {
            min_merge: 2,
            tier_ratio: 2.0,
        };
        // Two small fresh seals and one big merged segment: only the small
        // tier is full, and the big one is left alone.
        assert_eq!(
            policy.select(&[(0, 1000), (1, 90), (2, 100)]),
            Some(vec![1, 2])
        );
        // The merged result joins the big tier; nothing further to do.
        assert_eq!(policy.select(&[(0, 1000), (3, 190)]), None);
        // ... until the big tier itself fills.
        assert_eq!(
            policy.select(&[(0, 1000), (3, 900), (4, 950), (5, 120)]),
            Some(vec![0, 3, 4])
        );
    }

    #[test]
    fn under_threshold_or_mismatched_sizes_do_not_compact() {
        let policy = CompactionPolicy::default(); // min_merge 4, ratio 2.0
        assert_eq!(policy.select(&[]), None);
        assert_eq!(policy.select(&[(0, 10), (1, 11), (2, 10)]), None);
        // Four segments but stretched across tiers: no run of four within 2x.
        assert_eq!(policy.select(&[(0, 10), (1, 25), (2, 60), (3, 150)]), None);
        // Four within 2x: merged as one tier.
        assert_eq!(
            policy.select(&[(0, 10), (1, 12), (2, 15), (3, 20)]),
            Some(vec![0, 1, 2, 3])
        );
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let policy = CompactionPolicy {
            min_merge: 0,
            tier_ratio: 0.0,
        };
        // min_merge clamps to 2, ratio to 1.0 (exact sizes only).
        assert_eq!(policy.select(&[(0, 5), (1, 5)]), Some(vec![0, 1]));
        assert_eq!(policy.select(&[(0, 5), (1, 6)]), None);
        // Zero-record segments do not divide by zero.
        assert_eq!(policy.select(&[(0, 0), (1, 0)]), Some(vec![0, 1]));
    }
}

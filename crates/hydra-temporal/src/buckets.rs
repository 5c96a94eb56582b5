//! Multi-scale time bucketing and bucketed distribution similarity (Fig. 5).
//!
//! "First, the temporal axis is divided into a series of time buckets with
//! predefined scales (e.g., 16 days or 8 days). Then all the distribution
//! vectors within a time bucket are aggregated into one topic distribution.
//! After that, the corresponding similarity between the topic distributions
//! in each time bucket can be constructed. Finally, the overall similarity
//! between user i and i′ is calculated by averaging over the similarities of
//! all the time buckets."

use crate::timeline::{Timeline, Timestamp};
use crate::SECONDS_PER_DAY;
use hydra_linalg::kernels::Kernel;
use hydra_linalg::vec_ops::normalize_l1;

/// The paper's scales: "we use 1, 2, 4, 8, 16 and 32 days in this paper to
/// guarantee the optimal performance".
pub const PAPER_SCALES_DAYS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// The shared temporal frame for a pair of users being compared: both users'
/// distributions are bucketed against the same origin and horizon so bucket
/// indices align across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketConfig {
    /// Inclusive start of the observation window.
    pub origin: Timestamp,
    /// Exclusive end of the observation window.
    pub horizon: Timestamp,
}

impl BucketConfig {
    /// Frame covering `[origin, horizon)`.
    ///
    /// # Panics
    /// Panics when the window is empty or inverted.
    pub fn new(origin: Timestamp, horizon: Timestamp) -> Self {
        assert!(horizon > origin, "bucket window must be non-empty");
        BucketConfig { origin, horizon }
    }

    /// Number of buckets at `scale_days` (the last bucket may be partial).
    pub fn num_buckets(&self, scale_days: u32) -> usize {
        let width = scale_days as i64 * SECONDS_PER_DAY;
        let span = self.horizon - self.origin;
        ((span + width - 1) / width) as usize
    }

    /// Bucket index of `t` at `scale_days`; `None` outside the window.
    fn bucket_of(&self, t: Timestamp, scale_days: u32) -> Option<usize> {
        if t < self.origin || t >= self.horizon {
            return None;
        }
        let width = scale_days as i64 * SECONDS_PER_DAY;
        Some(((t - self.origin) / width) as usize)
    }
}

/// Aggregate per-event probability distributions into per-bucket
/// distributions at one scale. Events inside a bucket are summed then
/// re-normalized (equivalent to a weighted average of distributions).
/// Buckets with no events yield `None` — an explicitly *missing* bucket, not
/// a zero vector (the distinction drives the missing-data handling of
/// Section 6.3).
pub fn bucket_distributions(
    timeline: &Timeline<Vec<f64>>,
    config: BucketConfig,
    scale_days: u32,
) -> Vec<Option<Vec<f64>>> {
    let nb = config.num_buckets(scale_days);
    let mut sums: Vec<Option<Vec<f64>>> = vec![None; nb];
    for (t, dist) in timeline.iter() {
        let Some(b) = config.bucket_of(*t, scale_days) else {
            continue;
        };
        match &mut sums[b] {
            Some(acc) => {
                for (a, d) in acc.iter_mut().zip(dist.iter()) {
                    *a += d;
                }
            }
            None => sums[b] = Some(dist.clone()),
        }
    }
    for s in sums.iter_mut().flatten() {
        normalize_l1(s);
    }
    sums
}

/// Per-scale similarity between two users' bucketed distributions:
/// kernel similarity averaged over the buckets where **both** users have
/// data. Returns `(similarity, matched_buckets)`; with zero matched buckets
/// the similarity is reported as 0 and the caller may treat the feature as
/// missing.
fn scale_similarity(
    a: &[Option<Vec<f64>>],
    b: &[Option<Vec<f64>>],
    kernel: Kernel,
) -> (f64, usize) {
    assert_eq!(a.len(), b.len(), "bucket series must share the frame");
    let mut total = 0.0;
    let mut matched = 0usize;
    for (da, db) in a.iter().zip(b.iter()) {
        if let (Some(da), Some(db)) = (da, db) {
            total += kernel.eval(da, db);
            matched += 1;
        }
    }
    if matched == 0 {
        (0.0, 0)
    } else {
        (total / matched as f64, matched)
    }
}

/// The full Figure-5 pipeline: bucket both users at every scale, compute
/// per-scale kernel similarities, and concatenate them into the multi-scale
/// similarity vector. The parallel `matched` vector reports how many buckets
/// supported each entry (0 ⇒ the feature is missing).
pub fn multi_scale_similarity(
    a: &Timeline<Vec<f64>>,
    b: &Timeline<Vec<f64>>,
    config: BucketConfig,
    scales_days: &[u32],
    kernel: Kernel,
) -> (Vec<f64>, Vec<usize>) {
    let mut sims = Vec::with_capacity(scales_days.len());
    let mut counts = Vec::with_capacity(scales_days.len());
    for &scale in scales_days {
        let ba = bucket_distributions(a, config, scale);
        let bb = bucket_distributions(b, config, scale);
        let (s, m) = scale_similarity(&ba, &bb, kernel);
        sims.push(s);
        counts.push(m);
    }
    (sims, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::days;

    fn frame() -> BucketConfig {
        BucketConfig::new(0, days(32))
    }

    #[test]
    fn bucket_counts_per_scale() {
        let c = frame();
        assert_eq!(c.num_buckets(1), 32);
        assert_eq!(c.num_buckets(2), 16);
        assert_eq!(c.num_buckets(16), 2);
        assert_eq!(c.num_buckets(32), 1);
        // Partial trailing bucket rounds up.
        let c2 = BucketConfig::new(0, days(33));
        assert_eq!(c2.num_buckets(16), 3);
    }

    #[test]
    fn bucket_of_boundaries() {
        let c = frame();
        assert_eq!(c.bucket_of(0, 16), Some(0));
        assert_eq!(c.bucket_of(days(16) - 1, 16), Some(0));
        assert_eq!(c.bucket_of(days(16), 16), Some(1));
        assert_eq!(c.bucket_of(days(32), 16), None); // horizon exclusive
        assert_eq!(c.bucket_of(-1, 16), None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        BucketConfig::new(10, 10);
    }

    #[test]
    fn aggregation_averages_distributions() {
        let tl = Timeline::from_events(vec![
            (days(1), vec![1.0, 0.0]),
            (days(2), vec![0.0, 1.0]),
            (days(20), vec![0.5, 0.5]),
        ]);
        let buckets = bucket_distributions(&tl, frame(), 16);
        assert_eq!(buckets.len(), 2);
        let b0 = buckets[0].as_ref().unwrap();
        assert!((b0[0] - 0.5).abs() < 1e-12 && (b0[1] - 0.5).abs() < 1e-12);
        let b1 = buckets[1].as_ref().unwrap();
        assert!((b1[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_buckets_are_none_not_zero() {
        let tl = Timeline::from_events(vec![(days(1), vec![1.0, 0.0])]);
        let buckets = bucket_distributions(&tl, frame(), 16);
        assert!(buckets[0].is_some());
        assert!(buckets[1].is_none());
    }

    #[test]
    fn identical_behavior_scores_one_per_scale() {
        let tl = Timeline::from_events(vec![
            (days(1), vec![0.7, 0.3]),
            (days(9), vec![0.2, 0.8]),
            (days(25), vec![0.5, 0.5]),
        ]);
        let (sims, counts) =
            multi_scale_similarity(&tl, &tl, frame(), &PAPER_SCALES_DAYS, Kernel::ChiSquare);
        assert_eq!(sims.len(), 6);
        for (s, m) in sims.iter().zip(counts.iter()) {
            assert!(*m > 0);
            assert!((s - 1.0).abs() < 1e-9, "self-similarity must be 1, got {s}");
        }
    }

    #[test]
    fn asynchronous_behavior_recovered_at_coarse_scales() {
        // Same interests, shifted by 3 days (the paper's "behavior
        // asynchrony"): disjoint at 1-day scale, matched at 8+ days.
        let a = Timeline::from_events(vec![(days(1), vec![1.0, 0.0])]);
        let b = Timeline::from_events(vec![(days(4), vec![1.0, 0.0])]);
        let (sims, counts) =
            multi_scale_similarity(&a, &b, frame(), &PAPER_SCALES_DAYS, Kernel::ChiSquare);
        // Scale 1 & 2 days: no common bucket.
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 0);
        assert_eq!(sims[0], 0.0);
        // Scale 8 days: both fall in bucket 0 and agree perfectly.
        assert_eq!(counts[3], 1);
        assert!((sims[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_interests_score_zero() {
        let a = Timeline::from_events(vec![(days(1), vec![1.0, 0.0])]);
        let b = Timeline::from_events(vec![(days(1), vec![0.0, 1.0])]);
        let (sims, counts) = multi_scale_similarity(&a, &b, frame(), &[1], Kernel::ChiSquare);
        assert_eq!(counts[0], 1);
        assert_eq!(sims[0], 0.0);
    }

    #[test]
    fn out_of_window_events_ignored() {
        let tl = Timeline::from_events(vec![(days(100), vec![1.0])]);
        let buckets = bucket_distributions(&tl, frame(), 16);
        assert!(buckets.iter().all(|b| b.is_none()));
    }

    #[test]
    fn hist_intersection_also_supported() {
        let a = Timeline::from_events(vec![(days(1), vec![0.5, 0.5])]);
        let b = Timeline::from_events(vec![(days(2), vec![1.0, 0.0])]);
        let (sims, _) = multi_scale_similarity(&a, &b, frame(), &[4], Kernel::HistIntersection);
        assert!((sims[0] - 0.5).abs() < 1e-12);
    }
}

//! Sample statistics: nearest-rank percentiles, the "highest percentile the
//! sample supports" picker, medians, and the FNV-1a digest the correctness
//! gates compare answers with.

use hydra_core::model::LinkagePrediction;

/// Percentiles the tail picker chooses among, lowest first.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Nearest rank (1-based) of the `q`-th percentile in a sample of `n`, in
/// integer arithmetic on hundredths of a percent so that `99.9 % of 10 000`
/// is rank 9 990 and not, through rounding, 9 991.
fn nearest_rank(n: usize, q: f64) -> usize {
    let bp = (q * 100.0).round() as u128;
    ((bp * n as u128).div_ceil(10_000) as usize).clamp(1, n.max(1))
}

/// A tail is only reported when at least this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of a sample (`q` in 0..=100).
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples beyond
/// it in a sample of `n` — the tail a sample of that size supports. `None`
/// when even the median has fewer than ten samples above it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&q| n.saturating_sub(nearest_rank(n, q)) >= MIN_BEYOND)
}

/// Median of a float sample (mean of the middle two when even).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of the per-batch rates (items per second) of `(items, ns)`
/// batches.
pub fn median_rate(batches: &[(usize, u64)]) -> f64 {
    let rates: Vec<f64> = batches
        .iter()
        .map(|&(items, ns)| items as f64 / (ns as f64 / 1e9))
        .collect();
    median_f64(&rates)
}

/// FNV-1a over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one ranked answer in: every pair, score bit pattern and link
    /// decision, in rank order, then the answer's length.
    pub fn answer(&mut self, preds: &[LinkagePrediction]) {
        for p in preds {
            self.u64(((p.left as u64) << 32) | p.right as u64);
            self.u64(p.score.to_bits());
            self.u64(p.linked as u64);
        }
        self.u64(preds.len() as u64);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[9, 1, 5], 50.0), 5);
    }

    #[test]
    fn tail_picker_needs_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has ten above it.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // p95 of 200 leaves exactly ten beyond; p99 leaves two.
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(320), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_f64(&[4.0, 1.5, 3.0]), 3.0);
        // 64 queries per batch; one batch took twice as long.
        let batches = [(64, 2_000), (64, 1_000), (64, 1_000)];
        assert_eq!(median_rate(&batches), 64.0 / 1e-6);
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let p = |right, score: f64| LinkagePrediction {
            left: 1,
            right,
            score,
            linked: score > 0.0,
        };
        let mut a = Digest::default();
        a.answer(&[p(2, 0.5), p(3, -0.25)]);
        let mut b = Digest::default();
        b.answer(&[p(3, -0.25), p(2, 0.5)]);
        let mut c = Digest::default();
        c.answer(&[p(2, 0.5 + f64::EPSILON), p(3, -0.25)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut d = Digest::default();
        d.answer(&[p(2, 0.5), p(3, -0.25)]);
        assert_eq!(a.value(), d.value());
    }
}

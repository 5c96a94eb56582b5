//! Small statistical helpers shared across the workspace: the sigmoid
//! stimulation map of Eq. 5, l_q-norm pooling, and summary statistics.

/// Logistic sigmoid with slope λ: `σ(s) = 1 / (1 + exp(−λ·s))`.
///
/// This is exactly the paper's nonlinear transformation
/// `Ŝ_mr = 1/(1+e^{−λ S_mr})` applied to pooled sensor stimulation
/// (Section 5.4); λ "can be tuned on the specific validation dataset".
#[inline]
pub fn sigmoid(s: f64, lambda: f64) -> f64 {
    1.0 / (1.0 + (-lambda * s).exp())
}

/// l_q-norm pooling of Eq. 5:
/// `S_mr = (1/N) · ( Σ_k s_k^q )^{1/q}`, `q ≥ 1`.
///
/// As `q → ∞` this approaches max-pooling scaled by `1/N` — "the signal
/// selection tends to better approximate the maximum stimulation" — which
/// [`max_pooling`] computes in closed form and the property tests verify as
/// the limit.
///
/// # Panics
/// Panics if `q < 1` or any signal is negative (stimuli are non-negative by
/// construction).
pub fn lq_pooling(signals: &[f64], q: f64) -> f64 {
    assert!(q >= 1.0, "lq_pooling requires q >= 1, got {q}");
    if signals.is_empty() {
        return 0.0;
    }
    assert!(
        signals.iter().all(|&s| s >= 0.0),
        "lq_pooling: stimuli must be non-negative"
    );
    let n = signals.len() as f64;
    // Scale by the max to keep s^q from overflowing for large q.
    let m = signals.iter().cloned().fold(0.0_f64, f64::max);
    if m == 0.0 {
        return 0.0;
    }
    let sum: f64 = signals.iter().map(|&s| (s / m).powf(q)).sum();
    m * sum.powf(1.0 / q) / n
}

/// [`lq_pooling`] over a sparse signal: `nonzero` holds the non-zero
/// stimuli in their original order, `total` the full signal length
/// (zeros included). Bit-identical to `lq_pooling` on the dense vector —
/// zeros contribute exactly `0.0` to the scaled power sum and don't move
/// the max, so skipping them changes nothing but the work done.
pub fn lq_pooling_sparse(nonzero: &[f64], total: usize, q: f64) -> f64 {
    assert!(q >= 1.0, "lq_pooling requires q >= 1, got {q}");
    if total == 0 {
        return 0.0;
    }
    assert!(
        nonzero.iter().all(|&s| s >= 0.0),
        "lq_pooling: stimuli must be non-negative"
    );
    let m = nonzero.iter().cloned().fold(0.0_f64, f64::max);
    if m == 0.0 {
        return 0.0;
    }
    let sum: f64 = nonzero.iter().map(|&s| (s / m).powf(q)).sum();
    m * sum.powf(1.0 / q) / total as f64
}

/// The `q → ∞` limit of [`lq_pooling`]: `max(signals) / N`.
pub fn max_pooling(signals: &[f64]) -> f64 {
    if signals.is_empty() {
        return 0.0;
    }
    signals.iter().cloned().fold(0.0_f64, f64::max) / signals.len() as f64
}

/// Sample mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample variance; 0 for fewer than two observations.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_midpoint() {
        assert!((sigmoid(0.0, 3.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0, 1.0) > 0.999);
        assert!(sigmoid(-100.0, 1.0) < 0.001);
        // Steeper lambda sharpens the transition.
        assert!(sigmoid(0.5, 10.0) > sigmoid(0.5, 1.0));
    }

    #[test]
    fn lq_pooling_known_values() {
        // q = 1: plain mean · 1 (since (Σs)/N).
        let s = [1.0, 2.0, 3.0];
        assert!((lq_pooling(&s, 1.0) - 2.0).abs() < 1e-12);
        // Empty and zero cases.
        assert_eq!(lq_pooling(&[], 2.0), 0.0);
        assert_eq!(lq_pooling(&[0.0, 0.0], 4.0), 0.0);
    }

    #[test]
    fn lq_pooling_approaches_max_pooling() {
        let s = [0.2, 0.9, 0.4, 0.6];
        let target = max_pooling(&s);
        let q64 = lq_pooling(&s, 64.0);
        let q512 = lq_pooling(&s, 512.0);
        assert!((q512 - target).abs() < (q64 - target).abs());
        assert!((q512 - target).abs() < 1e-3);
    }

    #[test]
    fn lq_pooling_monotone_in_q() {
        // For fixed signals the pooled value is non-increasing toward max/N
        // ... actually ℓq norms decrease with q; scaled by 1/N they stay
        // ordered: q=1 gives mean ≥ q=2 value ≥ ... ≥ max/N.
        let s = [0.3, 0.7, 0.5];
        let v1 = lq_pooling(&s, 1.0);
        let v2 = lq_pooling(&s, 2.0);
        let v8 = lq_pooling(&s, 8.0);
        assert!(v1 >= v2 && v2 >= v8);
        assert!(v8 >= max_pooling(&s) - 1e-12);
    }

    #[test]
    #[should_panic(expected = "q >= 1")]
    fn lq_pooling_rejects_small_q() {
        lq_pooling(&[1.0], 0.5);
    }

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}

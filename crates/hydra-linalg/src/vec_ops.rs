//! Elementary vector kernels shared by the dense and iterative routines.
//!
//! All functions operate on `&[f64]` / `&mut [f64]` and assert (in debug
//! builds) that lengths agree; the hot paths are written so LLVM can
//! auto-vectorize them.

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        acc += a * b;
    }
    acc
}

/// `y ← a·x + y` (the classic AXPY update).
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow on large
/// magnitudes.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    let max = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return if max == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let mut acc = 0.0;
    for v in x {
        let s = v / max;
        acc += s * s;
    }
    max * acc.sqrt()
}

/// Squared Euclidean distance `‖x − y‖₂²`.
///
/// This is the workhorse behind the structure-consistency affinities
/// `M(a,a) = exp(−‖x_i − x_{i'}‖² / σ₁²)` of Section 6.2.
#[inline]
pub fn sq_dist(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "sq_dist: length mismatch");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        let d = a - b;
        acc += d * d;
    }
    acc
}

/// Infinity norm `‖x‖∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Normalize `x` to unit L2 norm in place. Returns the original norm.
/// A zero vector is left untouched and `0.0` is returned.
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Normalize `x` so its entries sum to one (probability simplex projection
/// for already-nonnegative data). Zero-sum input becomes the uniform
/// distribution, which is the convention the topic model uses for empty
/// time buckets.
#[inline]
pub fn normalize_l1(x: &mut [f64]) {
    let s: f64 = x.iter().sum();
    if s > 0.0 {
        scale(1.0 / s, x);
    } else if !x.is_empty() {
        let u = 1.0 / x.len() as f64;
        x.iter_mut().for_each(|v| *v = u);
    }
}

/// Elementwise sum `x + y` into a fresh vector.
#[inline]
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a + b).collect()
}

/// Elementwise difference `x − y` into a fresh vector.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a - b).collect()
}

/// True when every entry of `x` is finite.
#[inline]
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Index and value of the maximum entry; `None` for an empty slice.
/// Ties resolve to the earliest index so the result is deterministic.
#[inline]
pub fn argmax(x: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

/// Index and value of the minimum entry; `None` for an empty slice.
#[inline]
pub fn argmin(x: &[f64]) -> Option<(usize, f64)> {
    argmax(&x.iter().map(|v| -v).collect::<Vec<_>>()).map(|(i, v)| (i, -v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norm2_matches_naive_and_resists_overflow() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
        // 1e200 squared overflows naively; the scaled version must not.
        let n = norm2(&[1e200, 1e200]);
        assert!((n - 1e200 * 2.0_f64.sqrt()).abs() / n < 1e-12);
    }

    #[test]
    fn sq_dist_basic() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut v = vec![3.0, 4.0];
        let n = normalize(&mut v);
        assert_eq!(n, 5.0);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn normalize_l1_uniform_on_zero() {
        let mut v = vec![0.0, 0.0, 0.0, 0.0];
        normalize_l1(&mut v);
        assert_eq!(v, vec![0.25; 4]);
        let mut w = vec![1.0, 3.0];
        normalize_l1(&mut w);
        assert_eq!(w, vec![0.25, 0.75]);
    }

    #[test]
    fn argmax_argmin_deterministic_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some((1, 3.0)));
        assert_eq!(argmin(&[2.0, 0.5, 0.5]), Some((1, 0.5)));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn norms_agree_on_simple_input() {
        let v = [1.0, -2.0, 3.0];
        assert_eq!(norm_inf(&v), 3.0);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = vec![1.0, 2.0];
        let y = vec![0.5, -0.5];
        assert_eq!(sub(&add(&x, &y), &y), x);
    }

    #[test]
    fn all_finite_detects_nan() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}

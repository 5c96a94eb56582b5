//! Similarity kernels.
//!
//! Section 5.2 measures per-time-bucket similarity of topic distributions by
//! "the chi-square kernel or histogram intersection kernel"; Section 6
//! kernelizes the decision function (Eq. 12) over pair-similarity vectors.
//! All four kernels used anywhere in the pipeline live here behind a single
//! enum so the model code can stay monomorphic.

use crate::dense::Mat;
use crate::vec_ops::{dot, sq_dist};

/// A positive (semi-)definite similarity kernel `K(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `K(x,y) = xᵀy`.
    Linear,
    /// `K(x,y) = exp(−γ‖x−y‖²)`.
    Rbf {
        /// Bandwidth γ > 0.
        gamma: f64,
    },
    /// Additive chi-square kernel
    /// `K(x,y) = Σ_i 2·x_i·y_i / (x_i + y_i)` over non-negative histograms.
    /// For L1-normalized inputs the result lies in `[0, 1]`.
    ChiSquare,
    /// Histogram intersection `K(x,y) = Σ_i min(x_i, y_i)`; in `[0,1]` for
    /// L1-normalized inputs.
    HistIntersection,
}

impl Kernel {
    /// Evaluate the kernel on a pair of feature vectors.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "kernel eval: length mismatch");
        match *self {
            Kernel::Linear => dot(x, y),
            Kernel::Rbf { gamma } => (-gamma * sq_dist(x, y)).exp(),
            Kernel::ChiSquare => {
                let mut acc = 0.0;
                for (&a, &b) in x.iter().zip(y.iter()) {
                    let s = a + b;
                    if s > 0.0 {
                        acc += 2.0 * a * b / s;
                    }
                }
                acc
            }
            Kernel::HistIntersection => x.iter().zip(y.iter()).map(|(&a, &b)| a.min(b)).sum(),
        }
    }
}

/// Build the full Gram matrix `K[i][j] = K(rows[i], rows[j])`.
///
/// The matrix is symmetric by construction; only the upper triangle is
/// evaluated.
pub fn kernel_matrix(kernel: Kernel, rows: &[Vec<f64>]) -> Mat {
    let n = rows.len();
    let mut k = Mat::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = kernel.eval(&rows[i], &rows[j]);
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
    }
    k
}

/// Gram matrix over the rows of a dense matrix — the contiguous-storage
/// hot path (feature rows come straight from a flat `FeatureMatrix`
/// buffer). Parallel across output rows with a deterministic layout: every
/// entry is evaluated by exactly one worker, so the result is identical at
/// any thread count (and to [`kernel_matrix`] on the same rows).
pub fn kernel_matrix_mat(kernel: Kernel, rows: &Mat) -> Mat {
    kernel_matrix_mat_threads(kernel, rows, hydra_par::num_threads())
}

/// [`kernel_matrix_mat`] with an explicit worker count.
pub fn kernel_matrix_mat_threads(kernel: Kernel, rows: &Mat, threads: usize) -> Mat {
    let n = rows.rows();
    let mut k = Mat::zeros(n, n);
    if threads <= 1 {
        // Sequential fast path: mirror each entry as it is computed.
        for i in 0..n {
            for j in i..n {
                let v = kernel.eval(rows.row(i), rows.row(j));
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        return k;
    }
    // Each worker owns whole output rows (chunk = one row), computing the
    // upper triangle; the cheap mirror pass below fills the lower half.
    // Entries are evaluated identically to the sequential path, so the
    // result is the same at any worker count.
    hydra_par::par_chunks_mut_threads(threads, k.as_mut_slice(), n.max(1), |i, out_row| {
        let xi = rows.row(i);
        for j in i..n {
            out_row[j] = kernel.eval(xi, rows.row(j));
        }
    });
    for i in 1..n {
        for j in 0..i {
            k[(i, j)] = k[(j, i)];
        }
    }
    k
}

/// Rows per block of a [`PackedExpansion`].
const LANES: usize = 8;

/// The terms of a kernel expansion `init + Σ_a c_a·K(x_a, x)` (Eq. 12),
/// stored the way the sum reads them.
///
/// Rows are grouped into blocks of `LANES` (8); inside a block the layout is
/// dimension-major, so lane `j` of block `b` holds kept row `8b + j` and
/// one step over a dimension advances eight independent per-row
/// accumulators. Each lane performs exactly the operations [`Kernel::eval`]
/// performs on its row, in the same order, and the terms are added in row
/// order — [`PackedExpansion::sum`] is bit-identical to the row-at-a-time
/// loop, only the rows no longer wait for each other.
#[derive(Debug, Clone)]
pub struct PackedExpansion {
    /// Width of every kept row (0 when none was kept).
    dim: usize,
    /// Block `b`, dimension `d` at `b * dim + d`.
    data: Vec<[f64; LANES]>,
    /// Coefficients, one array per block; the tail block is padded with 0.
    coef: Vec<[f64; LANES]>,
}

impl PackedExpansion {
    /// Pack `(coefficient, row)` terms, dropping those whose coefficient is
    /// exactly zero (the sum skips them anyway).
    ///
    /// # Panics
    /// Panics if the kept rows differ in length.
    pub fn pack<'a>(terms: impl IntoIterator<Item = (f64, &'a [f64])>) -> Self {
        let kept: Vec<(f64, &[f64])> = terms.into_iter().filter(|&(c, _)| c != 0.0).collect();
        let dim = kept.first().map_or(0, |(_, row)| row.len());
        let blocks = kept.len().div_ceil(LANES);
        let mut data = vec![[0.0; LANES]; blocks * dim];
        let mut coef = vec![[0.0; LANES]; blocks];
        for (i, (c, row)) in kept.into_iter().enumerate() {
            assert_eq!(row.len(), dim, "packed expansion: ragged rows");
            let (block, lane) = (i / LANES, i % LANES);
            coef[block][lane] = c;
            for (col, &v) in data[block * dim..].iter_mut().zip(row) {
                col[lane] = v;
            }
        }
        PackedExpansion { dim, data, coef }
    }

    /// `init + Σ_a c_a·K(x_a, x)` over the kept terms, in row order.
    ///
    /// # Panics
    /// Panics if `x` is not as wide as the packed rows (an expansion with
    /// no kept term accepts any `x`, as a loop over no rows would).
    pub fn sum(&self, kernel: Kernel, init: f64, x: &[f64]) -> f64 {
        if self.coef.is_empty() {
            return init;
        }
        assert_eq!(self.dim, x.len(), "kernel eval: length mismatch");
        let mut f = init;
        for (b, coef) in self.coef.iter().enumerate() {
            let k = kernel.eval_block(&self.data[b * self.dim..(b + 1) * self.dim], x);
            for (&c, k) in coef.iter().zip(k) {
                if c != 0.0 {
                    f += c * k;
                }
            }
        }
        f
    }
}

impl Kernel {
    /// [`Kernel::eval`] of `x` against the [`LANES`] rows of one packed
    /// block: arm for arm the same expressions, one accumulator per lane.
    fn eval_block(&self, block: &[[f64; LANES]], x: &[f64]) -> [f64; LANES] {
        match *self {
            Kernel::Linear => fold_lanes(block, x, 0.0, |acc, a, b| acc + a * b),
            Kernel::Rbf { gamma } => fold_lanes(block, x, 0.0, |acc, a, b| {
                let d = a - b;
                acc + d * d
            })
            .map(|sq| (-gamma * sq).exp()),
            Kernel::ChiSquare => fold_lanes(block, x, 0.0, |acc, a, b| {
                let s = a + b;
                if s > 0.0 {
                    acc + 2.0 * a * b / s
                } else {
                    acc
                }
            }),
            // `eval` folds with `Iterator::sum`, whose starting value (the
            // sign of its zero) belongs to std — ask for it.
            Kernel::HistIntersection => {
                fold_lanes(block, x, std::iter::empty::<f64>().sum(), |acc, a, b| {
                    acc + a.min(b)
                })
            }
        }
    }
}

/// Fold `step(acc, row value, x value)` over the dimensions of one block,
/// every lane from `init` — eight independent chains the CPU overlaps.
fn fold_lanes(
    block: &[[f64; LANES]],
    x: &[f64],
    init: f64,
    step: impl Fn(f64, f64, f64) -> f64,
) -> [f64; LANES] {
    let mut acc = [init; LANES];
    for (col, &b) in block.iter().zip(x) {
        for (acc, &a) in acc.iter_mut().zip(col) {
            *acc = step(*acc, a, b);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_kernel_is_dot() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_kernel_bounds_and_identity() {
        let k = Kernel::Rbf { gamma: 0.5 };
        assert_eq!(k.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
        let v = k.eval(&[0.0], &[10.0]);
        assert!(v > 0.0 && v < 1e-10);
    }

    #[test]
    fn chi_square_on_normalized_histograms() {
        let k = Kernel::ChiSquare;
        // Identical distributions → Σ 2p²/(2p) = Σ p = 1.
        let p = vec![0.25, 0.25, 0.5];
        assert!((k.eval(&p, &p) - 1.0).abs() < 1e-12);
        // Disjoint support → 0.
        assert_eq!(k.eval(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        // Intermediate case strictly between.
        let v = k.eval(&[0.5, 0.5], &[1.0, 0.0]);
        assert!(v > 0.0 && v < 1.0);
    }

    #[test]
    fn hist_intersection_on_normalized_histograms() {
        let k = Kernel::HistIntersection;
        let p = vec![0.3, 0.7];
        assert!((k.eval(&p, &p) - 1.0).abs() < 1e-12);
        assert_eq!(k.eval(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert!((k.eval(&[0.5, 0.5], &[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kernel_matrix_symmetric_with_unit_diag_for_rbf() {
        let rows = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.5, 0.5]];
        let k = kernel_matrix(Kernel::Rbf { gamma: 1.0 }, &rows);
        for i in 0..3 {
            assert!((k[(i, i)] - 1.0).abs() < 1e-12);
            for j in 0..3 {
                assert_eq!(k[(i, j)], k[(j, i)]);
            }
        }
    }

    #[test]
    fn packed_sum_without_a_kept_term_is_exactly_init() {
        let row = [1.0, 2.0];
        for packed in [
            PackedExpansion::pack(std::iter::empty()),
            PackedExpansion::pack([(0.0, &row[..]), (-0.0, &row[..])]),
        ] {
            // No row is read, so no width is checked either.
            let f = packed.sum(Kernel::Rbf { gamma: 0.5 }, -0.125, &[9.0; 5]);
            assert_eq!(f.to_bits(), (-0.125f64).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn packed_sum_panics_on_wrong_width() {
        let row = [1.0, 2.0];
        PackedExpansion::pack([(1.0, &row[..])]).sum(Kernel::Linear, 0.0, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn mat_kernel_matches_vec_kernel_at_any_thread_count() {
        let rows: Vec<Vec<f64>> = (0..37)
            .map(|i| {
                (0..8)
                    .map(|j| ((i * 13 + j * 7) % 23) as f64 / 23.0)
                    .collect()
            })
            .collect();
        let m = Mat::from_rows(&rows);
        for kernel in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.7 },
            Kernel::ChiSquare,
            Kernel::HistIntersection,
        ] {
            let reference = kernel_matrix(kernel, &rows);
            for threads in [1, 2, 5] {
                let got = kernel_matrix_mat_threads(kernel, &m, threads);
                assert_eq!(got.rows(), reference.rows());
                for i in 0..rows.len() {
                    for j in 0..rows.len() {
                        assert_eq!(
                            got[(i, j)],
                            reference[(i, j)],
                            "{kernel:?} t={threads} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chi_square_gram_matrix_is_psd_on_small_sample() {
        // PSD check via Cholesky after a tiny ridge (numerical safety).
        let rows = vec![
            vec![0.2, 0.3, 0.5],
            vec![0.1, 0.8, 0.1],
            vec![0.4, 0.4, 0.2],
            vec![0.33, 0.33, 0.34],
        ];
        let mut k = kernel_matrix(Kernel::ChiSquare, &rows);
        k.shift_diag(1e-9);
        assert!(crate::decomp::Cholesky::factor(&k).is_ok());
    }
}

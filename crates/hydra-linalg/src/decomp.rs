//! Direct factorizations: LU with partial pivoting and Cholesky.
//!
//! Eq. 15 of the paper requires solving
//! `(2γ_L I + 2 γ_M/|P|² (D−M) K) α = Jᵀ Y β*`.
//! The system matrix is square, non-symmetric in general (product of a
//! Laplacian and a kernel matrix), and of moderate order, so LU with partial
//! pivoting is the right tool. Cholesky is provided for the symmetric
//! positive-definite sub-cases (kernel ridge solves and tests).

use crate::dense::Mat;
use crate::{LinalgError, Result};

/// LU factorization with partial pivoting: `P·A = L·U`.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors (unit lower triangle implicit).
    lu: Mat,
    /// Row permutation: `perm[i]` is the original row now at position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinants.
    sign: f64,
}

impl Lu {
    /// Factorize a square matrix. Fails with [`LinalgError::Singular`] when a
    /// pivot underflows the tolerance.
    pub fn factor(a: &Mat) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_factor",
                got: (a.rows(), a.cols()),
                expected: (n, n),
            });
        }
        if !a.all_finite() {
            return Err(LinalgError::NonFinite { what: "lu input" });
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        // Scale-aware singularity tolerance.
        let tol = f64::EPSILON * (n as f64) * lu.max_abs().max(1e-300);

        for k in 0..n {
            // Partial pivot: largest |entry| in column k at or below row k.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax <= tol {
                return Err(LinalgError::Singular { at: k });
            }
            if p != k {
                perm.swap(p, k);
                sign = -sign;
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= factor * ukj;
                    }
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Solve `A·x = b` using the stored factors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve",
                got: (b.len(), 1),
                expected: (n, 1),
            });
        }
        // Apply permutation, then forward substitution (unit lower).
        let mut x: Vec<f64> = self.perm.iter().map(|&pi| b[pi]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution (upper).
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solve for multiple right-hand sides stacked as matrix columns.
    ///
    /// Blocked: the triangular substitutions run once over all columns of a
    /// block with contiguous row-AXPY updates (one pass over the factors per
    /// block instead of one per column), and blocks are dispatched to
    /// `hydra-par` workers. Per-column arithmetic is identical to
    /// [`Lu::solve`] at any block size and thread count, so results are
    /// byte-identical to the column-at-a-time path.
    pub fn solve_mat(&self, b: &Mat) -> Result<Mat> {
        let n = self.lu.rows();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve_mat",
                got: (b.rows(), b.cols()),
                expected: (n, b.cols()),
            });
        }
        let m = b.cols();
        if m == 0 {
            return Ok(Mat::zeros(n, 0));
        }
        let threads = hydra_par::num_threads();
        // Column blocks: wide enough to vectorize, enough of them to feed
        // every worker.
        let block = m.div_ceil(threads.max(1)).clamp(8, 64).min(m);
        if threads <= 1 || m <= block {
            return Ok(self.solve_block(b, 0, m));
        }
        let ranges: Vec<(usize, usize)> = (0..m.div_ceil(block))
            .map(|c| (c * block, ((c + 1) * block).min(m)))
            .collect();
        let solved = hydra_par::par_map(&ranges, |_, &(lo, hi)| self.solve_block(b, lo, hi));
        let mut out = Mat::zeros(n, m);
        for ((lo, hi), part) in ranges.into_iter().zip(solved.iter()) {
            for i in 0..n {
                out.row_mut(i)[lo..hi].copy_from_slice(part.row(i));
            }
        }
        Ok(out)
    }

    /// Triangular substitutions over the column range `lo..hi` of `b`.
    fn solve_block(&self, b: &Mat, lo: usize, hi: usize) -> Mat {
        let n = self.lu.rows();
        let bc = hi - lo;
        let mut x = Mat::zeros(n, bc);
        for (i, &pi) in self.perm.iter().enumerate() {
            x.row_mut(i).copy_from_slice(&b.row(pi)[lo..hi]);
        }
        let data = x.as_mut_slice();
        // Forward substitution (unit lower), AXPY across the block's columns.
        for i in 1..n {
            let (head, tail) = data.split_at_mut(i * bc);
            let xi = &mut tail[..bc];
            let lrow = self.lu.row(i);
            for (j, &factor) in lrow[..i].iter().enumerate() {
                if factor != 0.0 {
                    crate::vec_ops::axpy(-factor, &head[j * bc..(j + 1) * bc], xi);
                }
            }
        }
        // Back substitution (upper).
        for i in (0..n).rev() {
            let (head, tail) = data.split_at_mut((i + 1) * bc);
            let xi = &mut head[i * bc..];
            let urow = self.lu.row(i);
            for (k, &factor) in urow[(i + 1)..].iter().enumerate() {
                if factor != 0.0 {
                    crate::vec_ops::axpy(-factor, &tail[k * bc..(k + 1) * bc], xi);
                }
            }
            let piv = urow[i];
            for v in xi.iter_mut() {
                *v /= piv;
            }
        }
        x
    }

    /// Determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        let mut d = self.sign;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Mat,
}

impl Cholesky {
    /// Factorize. Only the lower triangle of `a` is read; fails with
    /// [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is not
    /// strictly positive.
    pub fn factor(a: &Mat) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky",
                got: (a.rows(), a.cols()),
                expected: (n, n),
            });
        }
        let mut l = Mat::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { at: j });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Solve `A·x = b` via two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve",
                got: (b.len(), 1),
                expected: (n, 1),
            });
        }
        let mut x = b.to_vec();
        // L·y = b
        for i in 0..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * x[j];
            }
            x[i] = acc / self.l[(i, i)];
        }
        // Lᵀ·x = y
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * x[j];
            }
            x[i] = acc / self.l[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_known_system() {
        let a = Mat::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]).unwrap();
        // Solution of 2x+y=3, x+3y=5 is (4/5, 7/5).
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_handles_pivoting() {
        // Leading zero forces a row swap.
        let a = Mat::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn lu_rejects_singular() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn lu_rejects_non_finite() {
        let a = Mat::from_rows(&[vec![1.0, f64::NAN], vec![0.0, 1.0]]);
        assert!(matches!(Lu::factor(&a), Err(LinalgError::NonFinite { .. })));
    }

    #[test]
    fn lu_residual_small_on_random_like_system() {
        // Deterministic pseudo-random SPD-ish matrix.
        let n = 24;
        let mut a = Mat::zeros(n, n);
        let mut state = 42u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += n as f64; // diagonally dominant => nonsingular
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        let err: f64 = r
            .iter()
            .zip(b.iter())
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "residual too large: {err}");
    }

    #[test]
    fn lu_det_of_diagonal() {
        let a = Mat::from_diag(&[2.0, 3.0, 4.0]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_solves_spd() {
        let a = Mat::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&[2.0, 1.0]).unwrap();
        let r = a.matvec(&x).unwrap();
        assert!((r[0] - 2.0).abs() < 1e-12);
        assert!((r[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn lu_and_cholesky_agree_on_spd() {
        let a = Mat::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 5.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ]);
        let b = vec![1.0, 2.0, 3.0];
        let x1 = Lu::factor(&a).unwrap().solve(&b).unwrap();
        let x2 = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_mat_multiple_rhs() {
        let a = Mat::from_rows(&[vec![2.0, 0.0], vec![0.0, 4.0]]);
        let b = Mat::from_rows(&[vec![2.0, 4.0], vec![4.0, 8.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve_mat(&b).unwrap();
        assert_eq!(x, Mat::from_rows(&[vec![1.0, 2.0], vec![1.0, 2.0]]));
        assert_eq!(lu.solve_mat(&Mat::zeros(2, 0)).unwrap(), Mat::zeros(2, 0));
    }

    #[test]
    fn blocked_solve_mat_matches_column_solve_at_any_thread_count() {
        // Deterministic pseudo-random system with a pivoting-inducing layout
        // and enough RHS columns to split into several parallel blocks.
        let n = 40;
        let m = 70;
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[((i + 3) % n, i)] += n as f64; // dominance off the diagonal ⇒ pivoting
        }
        let mut b = Mat::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                b[(i, j)] = next();
            }
        }
        let lu = Lu::factor(&a).unwrap();
        // Column-at-a-time reference through the scalar solve path.
        let mut reference = Mat::zeros(n, m);
        let mut col = vec![0.0; n];
        for j in 0..m {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            let x = lu.solve(&col).unwrap();
            for i in 0..n {
                reference[(i, j)] = x[i];
            }
        }
        for threads in [1usize, 2, 5] {
            hydra_par::set_thread_override(Some(threads));
            let got = lu.solve_mat(&b).unwrap();
            hydra_par::set_thread_override(None);
            assert_eq!(got, reference, "solve_mat differs at {threads} threads");
        }
    }
}

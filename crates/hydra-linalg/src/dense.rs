//! Row-major dense matrix used throughout the learning stage.
//!
//! The sizes HYDRA's dual problem produces in this reproduction (a few
//! thousand candidate pairs) are comfortably handled by a single contiguous
//! allocation; we deliberately avoid blocked/packed formats in favour of
//! simple, auditable loops.

use crate::vec_ops;
use crate::{LinalgError, Result};

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Mat { rows, cols, data }
    }

    /// Build from a list of rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Mat::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Mat::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build a diagonal matrix from its diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Mat::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data (row `i` spans `i*cols..(i+1)*cols`).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix-vector product `A·x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                got: (x.len(), 1),
                expected: (self.cols, 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            *o = vec_ops::dot(self.row(i), x);
        }
        Ok(out)
    }

    /// Matrix-vector product `A·x`, parallel over output rows.
    ///
    /// Each output entry is one sequential row·x dot product evaluated by
    /// exactly one worker, so the result is byte-identical to [`Mat::matvec`]
    /// at any thread count. This is the kernel matvec of the matrix-free
    /// Eq. 15 apply — the dominant per-iteration cost of the iterative dual
    /// solve.
    pub fn matvec_par(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_par",
                got: (x.len(), 1),
                expected: (self.cols, 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        if self.rows == 0 {
            return Ok(out);
        }
        // One chunk = a run of output rows; rows per chunk keeps spawn
        // overhead amortized on multi-core hosts and degrades to the
        // sequential loop at one thread.
        let chunk = self.rows.div_ceil(4 * hydra_par::num_threads()).max(16);
        hydra_par::par_chunks_mut(&mut out, chunk, |c, slots| {
            let base = c * chunk;
            for (k, o) in slots.iter_mut().enumerate() {
                *o = vec_ops::dot(self.row(base + k), x);
            }
        });
        Ok(out)
    }

    /// Matrix product `A·B`, using an ikj loop order for cache friendliness.
    pub fn matmul(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                got: (other.rows, other.cols),
                expected: (self.cols, other.cols),
            });
        }
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                vec_ops::axpy(aik, brow, orow);
            }
        }
        Ok(out)
    }

    /// Matrix product `A·B`, parallel over output rows.
    ///
    /// Row `i` of the result depends only on row `i` of `A` (and all of `B`),
    /// so rows partition cleanly across workers; per-row accumulation order
    /// matches [`Mat::matmul`], making the result byte-identical to the
    /// sequential product at any thread count. This is the batched kernel
    /// matvec of the block matrix-free Eq. 15 solve: `K·X` for a block of
    /// iterate columns streams `K` through memory once per application
    /// instead of once per column.
    pub fn matmul_par(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_par",
                got: (other.rows, other.cols),
                expected: (self.cols, other.cols),
            });
        }
        let mut out = Mat::zeros(self.rows, other.cols);
        if self.rows == 0 || other.cols == 0 {
            return Ok(out);
        }
        let width = other.cols;
        let rows_per_chunk = self.rows.div_ceil(4 * hydra_par::num_threads()).max(8);
        hydra_par::par_chunks_mut(out.as_mut_slice(), rows_per_chunk * width, |c, chunk| {
            let base = c * rows_per_chunk;
            for (local, orow) in chunk.chunks_mut(width).enumerate() {
                let i = base + local;
                for (k, &aik) in self.row(i).iter().enumerate() {
                    if aik != 0.0 {
                        vec_ops::axpy(aik, other.row(k), orow);
                    }
                }
            }
        });
        Ok(out)
    }

    /// Transpose into a fresh matrix.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Add `alpha` to every diagonal entry in place (ridge shift).
    pub fn shift_diag(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += alpha;
        }
    }

    /// Scale every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        vec_ops::scale(alpha, &mut self.data);
    }

    /// Symmetrize in place: `A ← (A + Aᵀ)/2`. Only valid for square matrices.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize: matrix must be square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Maximum absolute entry (`‖A‖_max`).
    pub fn max_abs(&self) -> f64 {
        vec_ops::norm_inf(&self.data)
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        vec_ops::all_finite(&self.data)
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mat {
        Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
    }

    #[test]
    fn construction_and_indexing() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(2, 1)], 6.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i3 = Mat::identity(3);
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(i3.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matvec_and_transpose_agree() {
        let m = sample();
        let x = vec![1.0, 1.0];
        assert_eq!(m.matvec(&x).unwrap(), vec![3.0, 7.0, 11.0]);
        let y = vec![1.0, 0.0, 1.0];
        assert_eq!(m.transpose().matvec(&y).unwrap(), vec![6.0, 8.0]);
    }

    #[test]
    fn matvec_par_is_byte_identical_to_matvec() {
        let n = 137;
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.3;
            }
        }
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let seq = m.matvec(&x).unwrap();
        for threads in [1, 3, 8] {
            hydra_par::set_thread_override(Some(threads));
            let par = m.matvec_par(&x).unwrap();
            assert_eq!(seq, par, "matvec_par differs at {threads} threads");
        }
        hydra_par::set_thread_override(None);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Mat::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Mat::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]));
    }

    #[test]
    fn matmul_par_is_byte_identical_to_matmul() {
        let (n, m) = (61, 23);
        let mut a = Mat::zeros(n, n);
        let mut b = Mat::zeros(n, m);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = ((i * 7 + j * 13) % 31) as f64 / 31.0 - 0.4;
            }
            for j in 0..m {
                b[(i, j)] = ((i * 11 + j * 3) % 29) as f64 / 29.0;
            }
        }
        let seq = a.matmul(&b).unwrap();
        for threads in [1, 2, 6] {
            hydra_par::set_thread_override(Some(threads));
            let par = a.matmul_par(&b).unwrap();
            assert_eq!(
                seq.as_slice(),
                par.as_slice(),
                "matmul_par differs at {threads} threads"
            );
        }
        hydra_par::set_thread_override(None);
    }

    #[test]
    fn matmul_dimension_error() {
        let a = sample();
        assert!(matches!(
            a.matmul(&sample()),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn shift_diag_and_symmetrize() {
        let mut m = Mat::from_rows(&[vec![0.0, 2.0], vec![0.0, 0.0]]);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 1.0);
        assert_eq!(m[(1, 0)], 1.0);
        m.shift_diag(3.0);
        assert_eq!(m[(0, 0)], 3.0);
        assert_eq!(m[(1, 1)], 3.0);
    }

    #[test]
    fn from_diag_roundtrip() {
        let d = Mat::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.matvec(&[1.0; 3]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn norms() {
        let m = Mat::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.all_finite());
    }
}

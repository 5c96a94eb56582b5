//! Dense and sparse linear algebra, kernel functions, and convex optimization
//! primitives for the HYDRA social-identity-linkage reproduction.
//!
//! The paper's learning stage (Section 6) needs exactly the pieces collected
//! here:
//!
//! * dense matrices with LU/Cholesky solves for the dual linear system
//!   (Eq. 15),
//! * a sparse CSR representation for the structure-consistency matrix **M**
//!   (Section 6.2, "typically less than 1% non-zero elements"),
//! * power iteration for the principal-eigenvector view of structure
//!   consistency maximization (Raleigh's ratio theorem),
//! * similarity kernels — linear, RBF, chi-square and histogram intersection
//!   (Section 5.2 cites both for topic-distribution matching),
//! * an SMO solver for the box/equality-constrained QP of Eq. 16, with the
//!   warm-start and coefficient-shrinking tricks described in Section 7.5.
//!
//! Everything is implemented from scratch on `f64` slices; no external linear
//! algebra crates are used.

pub mod decomp;
pub mod dense;
pub mod iterative;
pub mod kernels;
pub mod qp;
pub mod sparse;
pub mod stats;
pub mod vec_ops;

pub use decomp::{Cholesky, Lu};
pub use dense::Mat;
pub use iterative::{
    bicgstab, bicgstab_multi, power_iteration, BiCgStabOptions, BlockIterSolution, IterSolution,
    PowerIterResult,
};
pub use kernels::{kernel_matrix, kernel_matrix_mat, Kernel};
pub use qp::{SmoOptions, SmoResult, SmoSolver};
pub use sparse::CsrMatrix;

/// Error type shared by the numeric routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions do not agree for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions the caller supplied.
        got: (usize, usize),
        /// Dimensions the operation required.
        expected: (usize, usize),
    },
    /// A factorization met a (numerically) singular pivot.
    Singular {
        /// Pivot index at which the factorization broke down.
        at: usize,
    },
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite {
        /// Column index at which the failure was detected.
        at: usize,
    },
    /// An iterative method failed to converge within its iteration budget.
    DidNotConverge {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual norm (or analogous criterion) at the last iteration.
        residual: f64,
    },
    /// Input contained NaN or infinity where finite values are required.
    NonFinite {
        /// Description of the offending input.
        what: &'static str,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, got, expected } => write!(
                f,
                "dimension mismatch in {op}: got {}x{}, expected {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            LinalgError::Singular { at } => write!(f, "singular pivot at index {at}"),
            LinalgError::NotPositiveDefinite { at } => {
                write!(f, "matrix not positive definite (column {at})")
            }
            LinalgError::DidNotConverge {
                iterations,
                residual,
            } => write!(
                f,
                "iteration did not converge after {iterations} steps (residual {residual:.3e})"
            ),
            LinalgError::NonFinite { what } => write!(f, "non-finite value in {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

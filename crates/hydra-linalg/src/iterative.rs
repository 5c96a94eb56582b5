//! Iterative methods: BiCGStab and power iteration.
//!
//! Section 6.2 invokes Raleigh's ratio theorem — the cluster indicator that
//! maximizes the structure-consistency score `yᵀMy` is the principal
//! eigenvector of **M** — which [`power_iteration`] computes directly on the
//! sparse matrix. [`bicgstab`] is a matrix-free alternative to dense LU for
//! the *non-symmetric* Eq. 15 operator
//! `A = 2γ_L·I + c·(D−M)·K` (a Laplacian times a kernel matrix is not
//! symmetric in general), which is what lets the MOO dual solve shed its
//! O(n³) factorization: `A·x` is applied as `2γ_L·x + c·L·(K·x)` without
//! ever materializing `A`.

use crate::sparse::CsrMatrix;
use crate::vec_ops::{axpy, dot, norm2, normalize};
use crate::{LinalgError, Result};

/// Converged output of the single-right-hand-side [`bicgstab`].
#[derive(Debug, Clone)]
pub struct IterSolution {
    /// Solution vector.
    pub x: Vec<f64>,
    /// Iterations performed (each applies the operator twice).
    pub iterations: usize,
    /// Achieved relative residual `‖b − A·x‖/‖b‖` under the method's own
    /// recurrence (callers can log it; it is ≤ the requested tolerance).
    pub residual: f64,
}

/// Options for [`bicgstab`].
#[derive(Debug, Clone, Copy)]
pub struct BiCgStabOptions {
    /// Maximum number of iterations (default: `10 * n`). Each iteration
    /// applies the operator twice.
    pub max_iter: usize,
    /// Relative residual tolerance `‖r‖/‖b‖` (default `1e-10`).
    pub tol: f64,
}

impl Default for BiCgStabOptions {
    fn default() -> Self {
        BiCgStabOptions {
            max_iter: 0, // 0 = auto (10·n)
            tol: 1e-10,
        }
    }
}

/// Stabilized bi-conjugate gradients (van der Vorst) for a general — in
/// particular **non-symmetric** — operator given as a closure
/// `apply(x) -> A·x`.
///
/// `x0` optionally warm-starts the iteration (the MOO reweighting rounds
/// re-solve a slightly shifted operator, so the previous round's solution is
/// an excellent initial guess). A Lanczos breakdown triggers one restart with
/// the current residual as the new shadow vector before giving up.
///
/// Succeeds only when the recurrence residual drops below `opts.tol·‖b‖`;
/// [`LinalgError::DidNotConverge`] carries the last relative residual.
pub fn bicgstab<F>(
    apply: F,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: BiCgStabOptions,
) -> Result<IterSolution>
where
    F: Fn(&[f64]) -> Vec<f64>,
{
    let n = b.len();
    let max_iter = if opts.max_iter == 0 {
        10 * n.max(1)
    } else {
        opts.max_iter
    };
    let bnorm = norm2(b);
    if bnorm == 0.0 {
        return Ok(IterSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }
    let tol_abs = opts.tol * bnorm;

    let mut x = match x0 {
        Some(g) => {
            if g.len() != n {
                return Err(LinalgError::DimensionMismatch {
                    op: "bicgstab(x0)",
                    got: (g.len(), 1),
                    expected: (n, 1),
                });
            }
            g.to_vec()
        }
        None => vec![0.0; n],
    };
    // r = b − A·x (skip the apply when starting cold from zero).
    let mut r = if x.iter().all(|&v| v == 0.0) {
        b.to_vec()
    } else {
        let ax = apply(&x);
        b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect()
    };
    let mut r_hat = r.clone();
    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut restarted = false;

    for it in 0..max_iter {
        let rnorm = norm2(&r);
        if rnorm <= tol_abs {
            return Ok(IterSolution {
                x,
                iterations: it,
                residual: rnorm / bnorm,
            });
        }
        let rho_new = dot(&r_hat, &r);
        if rho_new.abs() < f64::MIN_POSITIVE * 1e16 || !rho_new.is_finite() {
            // Lanczos breakdown: ⟨r̂, r⟩ ≈ 0 while r is still large. Restart
            // once with the current residual as the shadow direction.
            if restarted {
                return Err(LinalgError::DidNotConverge {
                    iterations: it,
                    residual: rnorm / bnorm,
                });
            }
            restarted = true;
            r_hat.copy_from_slice(&r);
            rho = 1.0;
            alpha = 1.0;
            omega = 1.0;
            v.iter_mut().for_each(|e| *e = 0.0);
            p.iter_mut().for_each(|e| *e = 0.0);
            continue;
        }
        let beta = (rho_new / rho) * (alpha / omega);
        // p = r + beta·(p − omega·v)
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        v = apply(&p);
        let rhat_v = dot(&r_hat, &v);
        if rhat_v.abs() < f64::MIN_POSITIVE * 1e16 || !rhat_v.is_finite() {
            return Err(LinalgError::DidNotConverge {
                iterations: it,
                residual: rnorm / bnorm,
            });
        }
        alpha = rho_new / rhat_v;
        // s = r − alpha·v  (reuse r's storage)
        axpy(-alpha, &v, &mut r);
        let snorm = norm2(&r);
        if snorm <= tol_abs {
            axpy(alpha, &p, &mut x);
            return Ok(IterSolution {
                x,
                iterations: it + 1,
                residual: snorm / bnorm,
            });
        }
        let t = apply(&r);
        let tt = dot(&t, &t);
        if tt <= 0.0 || !tt.is_finite() {
            return Err(LinalgError::DidNotConverge {
                iterations: it + 1,
                residual: snorm / bnorm,
            });
        }
        omega = dot(&t, &r) / tt;
        // x += alpha·p + omega·s
        axpy(alpha, &p, &mut x);
        axpy(omega, &r, &mut x);
        // r = s − omega·t
        axpy(-omega, &t, &mut r);
        rho = rho_new;
        let rnorm_new = norm2(&r);
        if rnorm_new <= tol_abs {
            return Ok(IterSolution {
                x,
                iterations: it + 1,
                residual: rnorm_new / bnorm,
            });
        }
        if !omega.is_finite() || omega == 0.0 {
            // ω-breakdown with a still-large residual: unrecoverable.
            return Err(LinalgError::DidNotConverge {
                iterations: it + 1,
                residual: rnorm_new / bnorm,
            });
        }
    }
    let rnorm = norm2(&r);
    if rnorm <= tol_abs {
        Ok(IterSolution {
            x,
            iterations: max_iter,
            residual: rnorm / bnorm,
        })
    } else {
        Err(LinalgError::DidNotConverge {
            iterations: max_iter,
            residual: rnorm / bnorm,
        })
    }
}

/// Converged output of [`bicgstab_multi`].
#[derive(Debug, Clone)]
pub struct BlockIterSolution {
    /// Solution columns, one per right-hand side.
    pub x: crate::dense::Mat,
    /// Total iterations summed over all columns.
    pub iterations: usize,
    /// Largest achieved per-column relative residual.
    pub max_residual: f64,
}

/// Per-column iteration state for [`bicgstab_multi`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum ColState {
    /// Still iterating.
    Active,
    /// Frozen this lockstep round (restart or just-converged); resumes or
    /// stays frozen next round.
    Skip,
    /// Converged.
    Done,
}

/// BiCGStab over a block of right-hand sides in lockstep.
///
/// Each column runs the exact scalar recurrence of [`bicgstab`] — per-column
/// ρ/α/ω, breakdown restart, and stopping tests — but the two operator
/// applications per iteration are batched over the whole block:
/// `apply(P) -> A·P` receives an `n × m` matrix. For the matrix-free Eq. 15
/// solve this is the difference between streaming the dense kernel matrix
/// from memory once per column per iteration and once per *iteration*, which
/// is where the measured 4–5× over dense LU comes from (the flop count is
/// identical to solving the columns one at a time).
///
/// Converged columns are frozen (their vectors stop updating) while the rest
/// of the block continues, so per-column results do not depend on which other
/// columns are present. Fails fast with [`LinalgError::DidNotConverge`] if
/// any column breaks down unrecoverably or exhausts the budget.
pub fn bicgstab_multi<F>(
    apply: F,
    b: &crate::dense::Mat,
    x0: Option<&crate::dense::Mat>,
    opts: BiCgStabOptions,
) -> Result<BlockIterSolution>
where
    F: Fn(&crate::dense::Mat) -> crate::dense::Mat,
{
    use crate::dense::Mat;
    let n = b.rows();
    let m = b.cols();
    let max_iter = if opts.max_iter == 0 {
        10 * n.max(1)
    } else {
        opts.max_iter
    };
    if m == 0 {
        return Ok(BlockIterSolution {
            x: Mat::zeros(n, 0),
            iterations: 0,
            max_residual: 0.0,
        });
    }

    // Per-column scaled L2 norms (same overflow-safe algorithm as
    // `vec_ops::norm2`, accumulated down each column).
    let col_norms = |a: &Mat, out: &mut [f64]| {
        let data = a.as_slice();
        let mut maxes = vec![0.0f64; m];
        for row in data.chunks_exact(m) {
            for (mx, v) in maxes.iter_mut().zip(row.iter()) {
                *mx = mx.max(v.abs());
            }
        }
        let mut accs = vec![0.0f64; m];
        for row in data.chunks_exact(m) {
            for ((acc, v), mx) in accs.iter_mut().zip(row.iter()).zip(maxes.iter()) {
                if *mx > 0.0 && mx.is_finite() {
                    let s = v / mx;
                    *acc += s * s;
                }
            }
        }
        for ((o, acc), mx) in out.iter_mut().zip(accs.iter()).zip(maxes.iter()) {
            *o = if *mx == 0.0 {
                0.0
            } else if !mx.is_finite() {
                f64::INFINITY
            } else {
                mx * acc.sqrt()
            };
        }
    };
    // Per-column dot products `out[c] = Σ_i a[i,c]·b[i,c]`.
    let col_dots = |a: &Mat, bb: &Mat, out: &mut [f64]| {
        out.iter_mut().for_each(|o| *o = 0.0);
        for (arow, brow) in a
            .as_slice()
            .chunks_exact(m)
            .zip(bb.as_slice().chunks_exact(m))
        {
            for ((o, av), bv) in out.iter_mut().zip(arow.iter()).zip(brow.iter()) {
                *o += av * bv;
            }
        }
    };

    let mut bnorm = vec![0.0; m];
    col_norms(b, &mut bnorm);
    let tiny = f64::MIN_POSITIVE * 1e16;

    let mut x = match x0 {
        Some(g) => {
            if (g.rows(), g.cols()) != (n, m) {
                return Err(LinalgError::DimensionMismatch {
                    op: "bicgstab_multi(x0)",
                    got: (g.rows(), g.cols()),
                    expected: (n, m),
                });
            }
            g.clone()
        }
        None => Mat::zeros(n, m),
    };
    // Zero-RHS columns are solved by x = 0 regardless of the warm start
    // (mirroring the single-column solver).
    for c in 0..m {
        if bnorm[c] == 0.0 {
            for i in 0..n {
                x[(i, c)] = 0.0;
            }
        }
    }
    let mut r = if x.as_slice().iter().all(|&v| v == 0.0) {
        b.clone()
    } else {
        let ax = apply(&x);
        let mut r = b.clone();
        for (rv, av) in r.as_mut_slice().iter_mut().zip(ax.as_slice().iter()) {
            *rv -= av;
        }
        r
    };
    let mut r_hat = r.clone();
    let mut v = Mat::zeros(n, m);
    let mut p = Mat::zeros(n, m);
    let mut rho = vec![1.0; m];
    let mut alpha = vec![1.0; m];
    let mut omega = vec![1.0; m];
    let mut restarted = vec![false; m];
    let mut state = vec![ColState::Active; m];
    let mut iters_done = vec![0usize; m];
    let mut residual = vec![0.0f64; m];
    for c in 0..m {
        if bnorm[c] == 0.0 {
            state[c] = ColState::Done;
        }
    }

    let mut rho_new = vec![0.0; m];
    let mut scratch = vec![0.0; m];
    for it in 0..max_iter {
        // Reactivate columns frozen by a restart last round.
        for s in state.iter_mut() {
            if *s == ColState::Skip {
                *s = ColState::Active;
            }
        }
        // Top-of-loop convergence test.
        col_norms(&r, &mut scratch);
        for c in 0..m {
            if state[c] == ColState::Active && scratch[c] <= opts.tol * bnorm[c] {
                state[c] = ColState::Done;
                iters_done[c] = it;
                residual[c] = scratch[c] / bnorm[c];
            }
        }
        if state.iter().all(|s| *s == ColState::Done) {
            break;
        }
        col_dots(&r_hat, &r, &mut rho_new);
        for c in 0..m {
            if state[c] != ColState::Active {
                continue;
            }
            if rho_new[c].abs() < tiny || !rho_new[c].is_finite() {
                if restarted[c] {
                    return Err(LinalgError::DidNotConverge {
                        iterations: it,
                        residual: scratch[c] / bnorm[c],
                    });
                }
                // Lanczos breakdown: restart this column with its current
                // residual as the shadow direction; it sits out this round.
                restarted[c] = true;
                for i in 0..n {
                    r_hat[(i, c)] = r[(i, c)];
                    v[(i, c)] = 0.0;
                    p[(i, c)] = 0.0;
                }
                rho[c] = 1.0;
                alpha[c] = 1.0;
                omega[c] = 1.0;
                state[c] = ColState::Skip;
            }
        }
        // p = r + beta·(p − omega·v), column-wise.
        {
            let (pd, rd, vd) = (p.as_mut_slice(), r.as_slice(), v.as_slice());
            for i in 0..n {
                let base = i * m;
                for c in 0..m {
                    if state[c] == ColState::Active {
                        let beta = (rho_new[c] / rho[c]) * (alpha[c] / omega[c]);
                        pd[base + c] =
                            rd[base + c] + beta * (pd[base + c] - omega[c] * vd[base + c]);
                    }
                }
            }
        }
        let av = apply(&p);
        for c in 0..m {
            if state[c] != ColState::Active {
                continue;
            }
            for i in 0..n {
                v[(i, c)] = av[(i, c)];
            }
        }
        col_dots(&r_hat, &v, &mut scratch);
        for c in 0..m {
            if state[c] != ColState::Active {
                continue;
            }
            if scratch[c].abs() < tiny || !scratch[c].is_finite() {
                let mut rn = vec![0.0; m];
                col_norms(&r, &mut rn);
                return Err(LinalgError::DidNotConverge {
                    iterations: it,
                    residual: rn[c] / bnorm[c],
                });
            }
            alpha[c] = rho_new[c] / scratch[c];
        }
        // s = r − alpha·v (reusing r's storage).
        {
            let (rd, vd) = (r.as_mut_slice(), v.as_slice());
            for i in 0..n {
                let base = i * m;
                for c in 0..m {
                    if state[c] == ColState::Active {
                        rd[base + c] -= alpha[c] * vd[base + c];
                    }
                }
            }
        }
        col_norms(&r, &mut scratch);
        for c in 0..m {
            if state[c] == ColState::Active && scratch[c] <= opts.tol * bnorm[c] {
                for i in 0..n {
                    x[(i, c)] += alpha[c] * p[(i, c)];
                }
                state[c] = ColState::Done;
                iters_done[c] = it + 1;
                residual[c] = scratch[c] / bnorm[c];
            }
        }
        if state.iter().all(|s| *s != ColState::Active) {
            continue;
        }
        let t = apply(&r);
        let mut tt = vec![0.0; m];
        col_dots(&t, &t, &mut tt);
        col_dots(&t, &r, &mut scratch);
        for c in 0..m {
            if state[c] != ColState::Active {
                continue;
            }
            if tt[c] <= 0.0 || !tt[c].is_finite() {
                let mut rn = vec![0.0; m];
                col_norms(&r, &mut rn);
                return Err(LinalgError::DidNotConverge {
                    iterations: it + 1,
                    residual: rn[c] / bnorm[c],
                });
            }
            omega[c] = scratch[c] / tt[c];
        }
        // x += alpha·p + omega·s;  r = s − omega·t.
        {
            let (xd, pd, rd, td) = (
                x.as_mut_slice(),
                p.as_slice(),
                r.as_mut_slice(),
                t.as_slice(),
            );
            for i in 0..n {
                let base = i * m;
                for c in 0..m {
                    if state[c] == ColState::Active {
                        // Two separate updates, matching the scalar solver's
                        // AXPY order bit for bit.
                        xd[base + c] += alpha[c] * pd[base + c];
                        xd[base + c] += omega[c] * rd[base + c];
                        rd[base + c] -= omega[c] * td[base + c];
                    }
                }
            }
        }
        col_norms(&r, &mut scratch);
        for c in 0..m {
            if state[c] != ColState::Active {
                continue;
            }
            rho[c] = rho_new[c];
            if scratch[c] <= opts.tol * bnorm[c] {
                state[c] = ColState::Done;
                iters_done[c] = it + 1;
                residual[c] = scratch[c] / bnorm[c];
            } else if !omega[c].is_finite() || omega[c] == 0.0 {
                return Err(LinalgError::DidNotConverge {
                    iterations: it + 1,
                    residual: scratch[c] / bnorm[c],
                });
            }
        }
    }

    // Budget exhausted: any column still active must have converged by now.
    col_norms(&r, &mut scratch);
    for c in 0..m {
        if state[c] == ColState::Done {
            continue;
        }
        if scratch[c] <= opts.tol * bnorm[c] {
            iters_done[c] = max_iter;
            residual[c] = scratch[c] / bnorm[c];
        } else {
            return Err(LinalgError::DidNotConverge {
                iterations: max_iter,
                residual: scratch[c] / bnorm[c],
            });
        }
    }
    Ok(BlockIterSolution {
        x,
        iterations: iters_done.iter().sum(),
        max_residual: residual.iter().fold(0.0, |a, &b| a.max(b)),
    })
}

/// Result of [`power_iteration`].
#[derive(Debug, Clone)]
pub struct PowerIterResult {
    /// Estimated dominant eigenvalue (Raleigh quotient at the final vector).
    pub eigenvalue: f64,
    /// Unit-norm eigenvector estimate; entries are non-negative when the
    /// input matrix is entrywise non-negative (Perron–Frobenius regime).
    pub eigenvector: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
}

/// Power iteration for the dominant eigenpair of a sparse non-negative
/// matrix.
///
/// This implements the "principal eigenvector of M" computation from
/// Section 6.2: the relaxed cluster-indicator `y ∈ [0,1]^n` that maximizes
/// `yᵀMy` subject to `‖y‖ = 1`.
pub fn power_iteration(m: &CsrMatrix, max_iter: usize, tol: f64) -> Result<PowerIterResult> {
    let n = m.rows();
    if m.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "power_iteration",
            got: (m.rows(), m.cols()),
            expected: (n, n),
        });
    }
    if n == 0 {
        return Ok(PowerIterResult {
            eigenvalue: 0.0,
            eigenvector: Vec::new(),
            iterations: 0,
        });
    }
    // Deterministic positive start keeps us inside the Perron cone for
    // non-negative M.
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut lambda = 0.0;
    // Last eigenvalue delta, reported on failure so non-convergence is
    // diagnosable (how far from the stopping criterion the run ended).
    let mut last_delta = f64::INFINITY;
    for it in 1..=max_iter {
        let mut w = m.matvec(&v)?;
        let wn = normalize(&mut w);
        if wn == 0.0 {
            // M annihilated v — the matrix is (numerically) zero on this cone.
            return Ok(PowerIterResult {
                eigenvalue: 0.0,
                eigenvector: v,
                iterations: it,
            });
        }
        let new_lambda = dot(&w, &m.matvec(&w)?);
        let delta = (new_lambda - lambda).abs();
        v = w;
        lambda = new_lambda;
        last_delta = delta;
        if delta <= tol * lambda.abs().max(1.0) {
            return Ok(PowerIterResult {
                eigenvalue: lambda,
                eigenvector: v,
                iterations: it,
            });
        }
    }
    Err(LinalgError::DidNotConverge {
        iterations: max_iter,
        residual: last_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Mat;
    use crate::sparse::CsrBuilder;

    #[test]
    fn bicgstab_solves_nonsymmetric_system() {
        // Genuinely non-symmetric, diagonally dominant.
        let a = Mat::from_rows(&[
            vec![5.0, 1.0, -0.5, 0.0],
            vec![-1.0, 6.0, 0.3, 0.7],
            vec![0.2, -0.8, 4.0, 1.0],
            vec![0.0, 0.5, -1.2, 7.0],
        ]);
        let b = vec![1.0, -2.0, 0.5, 3.0];
        let sol = bicgstab(
            |v| a.matvec(v).unwrap(),
            &b,
            None,
            BiCgStabOptions::default(),
        )
        .unwrap();
        let x_lu = crate::decomp::Lu::factor(&a).unwrap().solve(&b).unwrap();
        for (u, v) in sol.x.iter().zip(x_lu.iter()) {
            assert!((u - v).abs() < 1e-7, "bicgstab/lu mismatch: {u} vs {v}");
        }
        assert!(sol.residual <= 1e-10);
    }

    #[test]
    fn bicgstab_zero_rhs_returns_zero() {
        let sol = bicgstab(|v| v.to_vec(), &[0.0; 4], None, BiCgStabOptions::default()).unwrap();
        assert_eq!(sol.x, vec![0.0; 4]);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn bicgstab_warm_start_from_exact_solution_is_free() {
        let a = Mat::from_rows(&[vec![3.0, 1.0], vec![-1.0, 4.0]]);
        let b = vec![5.0, 2.0];
        let exact = crate::decomp::Lu::factor(&a).unwrap().solve(&b).unwrap();
        let sol = bicgstab(
            |v| a.matvec(v).unwrap(),
            &b,
            Some(&exact),
            BiCgStabOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.iterations, 0, "exact warm start must converge at once");
        for (u, v) in sol.x.iter().zip(exact.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn bicgstab_matches_lu_on_spd_system() {
        let n = 20;
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 4.0;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let x_lu = crate::decomp::Lu::factor(&a).unwrap().solve(&b).unwrap();
        let xb = bicgstab(
            |v| a.matvec(v).unwrap(),
            &b,
            None,
            BiCgStabOptions::default(),
        )
        .unwrap()
        .x;
        for (u, v) in xb.iter().zip(x_lu.iter()) {
            assert!((u - v).abs() < 1e-7, "bicgstab/lu mismatch: {u} vs {v}");
        }
    }

    #[test]
    fn bicgstab_reports_residual_on_budget_exhaustion() {
        // Ill-conditioned 2×2 with a 1-iteration budget.
        let a = Mat::from_rows(&[vec![1.0, 0.999_999], vec![0.999_999, 1.0]]);
        let b = vec![1.0, -1.0];
        match bicgstab(
            |v| a.matvec(v).unwrap(),
            &b,
            None,
            BiCgStabOptions {
                max_iter: 1,
                tol: 1e-15,
            },
        ) {
            Err(LinalgError::DidNotConverge { residual, .. }) => {
                assert!(residual.is_finite(), "residual must be diagnosable");
            }
            Ok(sol) => assert!(sol.residual <= 1e-15),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bicgstab_multi_matches_single_column_solver_bitwise() {
        // The block solver must reproduce the scalar recurrence exactly: a
        // column's trajectory cannot depend on which other columns share the
        // block.
        let n = 12;
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = ((i * 17 + j * 5) % 13) as f64 / 13.0 - 0.4;
            }
            a[(i, i)] += n as f64;
        }
        let m = 5;
        let mut b = Mat::zeros(n, m);
        for i in 0..n {
            for c in 0..m {
                b[(i, c)] = ((i * 7 + c * 11) % 19) as f64 - 9.0;
            }
        }
        let block = bicgstab_multi(
            |xs| {
                let mut out = Mat::zeros(n, m);
                for c in 0..m {
                    let col: Vec<f64> = (0..n).map(|i| xs[(i, c)]).collect();
                    let y = a.matvec(&col).unwrap();
                    for i in 0..n {
                        out[(i, c)] = y[i];
                    }
                }
                out
            },
            &b,
            None,
            BiCgStabOptions::default(),
        )
        .unwrap();
        let mut solo_iters = 0;
        for c in 0..m {
            let col: Vec<f64> = (0..n).map(|i| b[(i, c)]).collect();
            let solo = bicgstab(
                |v| a.matvec(v).unwrap(),
                &col,
                None,
                BiCgStabOptions::default(),
            )
            .unwrap();
            solo_iters += solo.iterations;
            for i in 0..n {
                assert_eq!(block.x[(i, c)], solo.x[i], "block/solo drift at ({i},{c})");
            }
        }
        assert_eq!(block.iterations, solo_iters);
        assert!(block.max_residual <= BiCgStabOptions::default().tol);
    }

    #[test]
    fn bicgstab_multi_handles_zero_columns_and_warm_start() {
        let a = Mat::from_rows(&[vec![4.0, 1.0], vec![-1.0, 5.0]]);
        let apply = |xs: &Mat| {
            let mut out = Mat::zeros(2, xs.cols());
            for c in 0..xs.cols() {
                let col = [xs[(0, c)], xs[(1, c)]];
                let y = a.matvec(&col).unwrap();
                out[(0, c)] = y[0];
                out[(1, c)] = y[1];
            }
            out
        };
        // Column 0 is all-zero; column 1 is a real system.
        let b = Mat::from_rows(&[vec![0.0, 3.0], vec![0.0, -1.0]]);
        let sol = bicgstab_multi(apply, &b, None, BiCgStabOptions::default()).unwrap();
        assert_eq!(sol.x[(0, 0)], 0.0);
        assert_eq!(sol.x[(1, 0)], 0.0);
        let expect = crate::decomp::Lu::factor(&a)
            .unwrap()
            .solve(&[3.0, -1.0])
            .unwrap();
        assert!((sol.x[(0, 1)] - expect[0]).abs() < 1e-8);
        assert!((sol.x[(1, 1)] - expect[1]).abs() < 1e-8);

        // Warm-starting from the exact solution converges without iterating.
        let warm = sol.x.clone();
        let again = bicgstab_multi(apply, &b, Some(&warm), BiCgStabOptions::default()).unwrap();
        assert_eq!(again.iterations, 0);
        assert_eq!(again.x.as_slice(), warm.as_slice());
    }

    #[test]
    fn bicgstab_multi_empty_block() {
        let sol = bicgstab_multi(
            |xs: &Mat| xs.clone(),
            &Mat::zeros(4, 0),
            None,
            BiCgStabOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.x.cols(), 0);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn power_iteration_on_known_matrix() {
        // [[2,1],[1,2]] has eigenvalues 3 (vector [1,1]/√2) and 1.
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 2.0);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        b.push(1, 1, 2.0);
        let m = b.build();
        let r = power_iteration(&m, 500, 1e-12).unwrap();
        assert!((r.eigenvalue - 3.0).abs() < 1e-8);
        assert!((r.eigenvector[0] - r.eigenvector[1]).abs() < 1e-6);
    }

    #[test]
    fn power_iteration_zero_matrix() {
        let m = CsrMatrix::zeros(3, 3);
        let r = power_iteration(&m, 10, 1e-10).unwrap();
        assert_eq!(r.eigenvalue, 0.0);
    }

    #[test]
    fn power_iteration_failure_reports_finite_residual() {
        // An impossible tolerance with a 1-iteration budget must fail, and
        // the error's residual is the last eigenvalue delta — not NaN.
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 2.0);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        b.push(1, 1, 2.0);
        let m = b.build();
        match power_iteration(&m, 1, 0.0) {
            Err(LinalgError::DidNotConverge {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, 1);
                assert!(
                    residual.is_finite(),
                    "delta must be diagnosable: {residual}"
                );
                assert!(residual > 0.0);
            }
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    #[test]
    fn power_iteration_identifies_dense_cluster() {
        // Block structure: vertices 0-2 form a strongly connected affinity
        // cluster, vertices 3-4 are weakly attached. The Perron vector must
        // concentrate mass on the cluster — this is exactly the Fig. 7
        // "agreement cluster" argument of the paper.
        let mut b = CsrBuilder::new(5, 5);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    b.push(i, j, 1.0);
                }
            }
        }
        b.push(3, 4, 0.1);
        b.push(4, 3, 0.1);
        b.push(2, 3, 0.05);
        b.push(3, 2, 0.05);
        let m = b.build();
        let r = power_iteration(&m, 1000, 1e-12).unwrap();
        let in_cluster = r.eigenvector[..3].iter().sum::<f64>();
        let out_cluster = r.eigenvector[3..].iter().sum::<f64>();
        assert!(
            in_cluster > 5.0 * out_cluster,
            "cluster mass {in_cluster} should dominate {out_cluster}"
        );
    }

    #[test]
    fn power_iteration_rejects_non_square() {
        let m = CsrMatrix::zeros(2, 3);
        assert!(power_iteration(&m, 10, 1e-8).is_err());
    }
}

//! Multi-objective model learning (Section 6.3, Eqs. 10–17).
//!
//! The primal problem minimizes the objective vector
//! `F(w) = [F_D(w), F_S(w)]` through the weighted exponential-sum utility
//! `U = Σ_k w_k F_k(w)^p` (Eq. 11). For `p = 1` the dual derivation of the
//! paper reduces to:
//!
//! 1. assemble `A = 2γ_L I + (2γ_M/|P|²)(D − M)K`   (the Eq. 15 operator),
//! 2. `Q = Y J K A⁻¹ Jᵀ Y`                            (Eq. 17),
//! 3. solve `max_β βᵀ1 − ½βᵀQβ` s.t. `yᵀβ = 0`, `0 ≤ β ≤ 1/|P_l|` (Eq. 16)
//!    by SMO,
//! 4. recover `α = A⁻¹ Jᵀ Y β*`                        (Eq. 15),
//!
//! giving the kernel expansion `f(x) = Σ_a α_a K(x_a, x) + b` (Eq. 12).
//!
//! For `p > 1` the paper notes "similar derivation can also be readily
//! performed" and cites Athan & Papalambros: raising `p` makes the weighted
//! exponential sum approach the Utopia-normalized minimax (Chebyshev)
//! scalarization, where each objective counts relative to its ideal value
//! and the *dominant normalized objective* governs — "a larger p imposes
//! greater uniqueness on the dominant objective function" (Section 6.4).
//! We realize that limit behaviour explicitly: a first pass solves the
//! single-objective supervised problem to estimate the Utopia reference
//! scales `(F_D*, F_S*)`, then the structure weight is interpolated
//! geometrically from the user's `γ_M` (the `p = 1` linear scalarization)
//! toward the fully normalized weight `γ_M · F_D*/F_S*` (the `p → ∞`
//! limit), and the problem is re-solved warm-started. Moderate `p` thus
//! strengthens structure consistency; large `p` over-weights it —
//! reproducing the interior optimum of Figure 10 and the over-fitting
//! mechanism of Section 6.4.
//!
//! # Prediction-time layout
//!
//! Scoring a pair is the Eq. 12 sum over every expansion row, and one row's
//! kernel value is a dependent add chain over the feature dimensions: taken
//! a row at a time the sum is latency-bound. A [`MooSolution`] therefore
//! carries a [`PackedExpansion`] of its `α_a ≠ 0` rows — blocks of eight
//! rows, dimension-major inside a block, tail block padded with coefficient
//! 0 — and [`MooSolution::decision`] advances eight per-row accumulators
//! together. Each lane performs exactly the operations `Kernel::eval`
//! performs on its row, in the same order, and the `α·K` terms are added in
//! row order starting from the bias, so every score is bit-identical to the
//! row-at-a-time loop; only the order *between* rows' independent
//! operations changes. The packed copy is derived wherever a solution is
//! made ([`solve_with_kernel`], artifact load) and is not part of the
//! artifact: it holds nothing `alpha` and `expansion` do not, and keeping
//! it out leaves the wire format and its bytes unchanged.

use hydra_linalg::dense::Mat;
use hydra_linalg::kernels::{kernel_matrix_mat, Kernel, PackedExpansion};
use hydra_linalg::qp::{SmoOptions, SmoSolver};
use hydra_linalg::sparse::CsrMatrix;
use hydra_linalg::{bicgstab_multi, BiCgStabOptions, Lu};

/// Expansion size at or above which [`MooSolverKind::Auto`] switches from the
/// dense LU factorization (O(n³) time, two dense n×n temporaries) to the
/// matrix-free BiCGStab path (O(iters·(nnz(M)+n²)) per labeled column, a
/// handful of length-n vectors).
pub const MATRIX_FREE_MIN_ROWS: usize = 512;

/// Relative residual the matrix-free Eq. 15 solves converge to. Tight enough
/// that decision values agree with the LU reference to ~1e-7 on normalized
/// pair features; the parity tests pin this.
const MATRIX_FREE_TOL: f64 = 1e-10;

/// How the Eq. 15 linear systems `A·z = e_t` are solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MooSolverKind {
    /// Pick per problem: matrix-free at or above [`MATRIX_FREE_MIN_ROWS`]
    /// expansion rows (falling back to dense LU if the iteration stalls),
    /// dense LU below.
    #[default]
    Auto,
    /// Always materialize `A = 2γ_L·I + c·(D−M)·K` and factorize (LU with
    /// partial pivoting). Exact up to factorization round-off; O(n³).
    DenseLu,
    /// Never materialize `A`: BiCGStab with `A·x` applied as
    /// `2γ_L·x + c·L·(K·x)` through the sparse Laplacian and a parallel
    /// kernel matvec. Errors if the iteration does not converge.
    MatrixFree,
}

impl MooSolverKind {
    /// Collapse `Auto` to a concrete kind for an `n`-row expansion.
    fn resolve(self, n: usize) -> MooSolverKind {
        match self {
            MooSolverKind::Auto => {
                if n >= MATRIX_FREE_MIN_ROWS {
                    MooSolverKind::MatrixFree
                } else {
                    MooSolverKind::DenseLu
                }
            }
            concrete => concrete,
        }
    }
}

/// Learner options.
#[derive(Debug, Clone, Copy)]
pub struct MooConfig {
    /// Supervised-loss regularizer γ_L (Eq. 7).
    pub gamma_l: f64,
    /// Normalized structure-consistency weight — the quantity
    /// `γ_M / |P_l ∪ P_u|²` that Figure 8 sweeps on its axis (Eq. 13
    /// applies exactly this ratio to the Laplacian term).
    pub gamma_m: f64,
    /// Utility exponent p ≥ 1 (Eq. 11).
    pub p: f64,
    /// Kernel over pair-similarity vectors.
    pub kernel: Kernel,
    /// Outer reweighting iterations for p > 1.
    pub reweight_iters: usize,
    /// SMO tolerance.
    pub smo_tol: f64,
    /// SMO iteration cap.
    pub smo_max_iter: usize,
    /// Eq. 15 solve strategy (see [`MooSolverKind`]).
    pub solver: MooSolverKind,
}

impl Default for MooConfig {
    fn default() -> Self {
        MooConfig {
            gamma_l: 0.01,
            gamma_m: 1e-5,
            p: 1.0,
            kernel: Kernel::Rbf { gamma: 0.5 },
            reweight_iters: 2,
            smo_tol: 1e-5,
            smo_max_iter: 50_000,
            solver: MooSolverKind::Auto,
        }
    }
}

/// The assembled dual problem: features of the expansion set `P_l ∪ P_u`
/// (labeled pairs first), labels for the labeled prefix, and the structure
/// matrix over the full set.
#[derive(Debug, Clone)]
pub struct MooProblem {
    /// Filled feature rows (contiguous `n × FEATURE_DIM` storage), labeled
    /// pairs occupying rows `0..labels.len()`.
    pub features: Mat,
    /// ±1 labels for the labeled prefix.
    pub labels: Vec<f64>,
    /// Structure matrix **M** over all features (may be all-zero when the
    /// structure objective is disabled).
    pub m: CsrMatrix,
    /// Degree vector `D`.
    pub degrees: Vec<f64>,
}

/// A trained kernel expansion (Eq. 12).
///
/// `alpha` and `expansion` are `pub` only because `benchmark/` reads them;
/// they are read-only after construction — [`MooSolution::decision`] walks
/// a packed copy made from them (see the module doc), so assigning either
/// field would leave that copy behind. Replace the rows through
/// [`MooSolution::set_expansion`]. `bias` and `kernel` are read at call
/// time and may be assigned.
#[derive(Debug, Clone)]
pub struct MooSolution {
    /// Expansion coefficients α over the expansion set.
    pub alpha: Vec<f64>,
    /// Bias b.
    pub bias: f64,
    /// Kernel used.
    pub kernel: Kernel,
    /// Expansion feature rows (needed at prediction time).
    pub expansion: Mat,
    /// Final supervised objective F_D.
    pub objective_d: f64,
    /// Final structure objective F_S.
    pub objective_s: f64,
    /// Total SMO iterations across reweighting rounds.
    pub smo_iterations: usize,
    /// Number of support vectors in the final β.
    pub support_vectors: usize,
    /// Concrete Eq. 15 solver that produced the final round ([`MooSolverKind::Auto`]
    /// resolves before solving, so this is never `Auto`).
    pub solver: MooSolverKind,
    /// Total BiCGStab iterations across all columns and rounds (0 on the
    /// dense path).
    pub iterative_iterations: usize,
    /// `(alpha, expansion)` in prediction-time layout; derived, never
    /// serialised.
    pub(crate) packed: PackedExpansion,
}

/// The prediction-time copy of an expansion: `α_a ≠ 0` rows of `expansion`
/// with their coefficients.
pub(crate) fn pack_expansion(alpha: &[f64], expansion: &Mat) -> PackedExpansion {
    assert_eq!(alpha.len(), expansion.rows(), "one α per expansion row");
    PackedExpansion::pack(
        alpha
            .iter()
            .enumerate()
            .map(|(a, &c)| (c, expansion.row(a))),
    )
}

impl MooSolution {
    /// Decision value `f(x) = Σ_a α_a K(x_a, x) + b` (Eq. 12).
    ///
    /// # Panics
    /// Panics if `x` is not as wide as the expansion rows.
    pub fn decision(&self, x: &[f64]) -> f64 {
        self.packed.sum(self.kernel, self.bias, x)
    }

    /// Replace the expansion rows (one per α) and re-derive the packed copy.
    pub fn set_expansion(&mut self, expansion: Mat) {
        self.packed = pack_expansion(&self.alpha, &expansion);
        self.expansion = expansion;
    }
}

/// Errors from the learner.
#[derive(Debug)]
pub enum MooError {
    /// No labeled pairs were provided.
    NoLabels,
    /// Labels must contain both classes.
    SingleClass,
    /// An inner linear-algebra failure.
    Numeric(hydra_linalg::LinalgError),
}

impl std::fmt::Display for MooError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MooError::NoLabels => write!(f, "no labeled pairs provided"),
            MooError::SingleClass => write!(f, "labeled pairs must contain both classes"),
            MooError::Numeric(e) => write!(f, "numeric failure: {e}"),
        }
    }
}

impl std::error::Error for MooError {}

impl From<hydra_linalg::LinalgError> for MooError {
    fn from(e: hydra_linalg::LinalgError) -> Self {
        MooError::Numeric(e)
    }
}

/// Solve the multi-objective problem.
pub fn solve(problem: &MooProblem, config: &MooConfig) -> Result<MooSolution, MooError> {
    // Contiguous rows + parallel Gram construction (deterministic at any
    // thread count).
    let k = kernel_matrix_mat(config.kernel, &problem.features);
    solve_with_kernel(problem, config, &k)
}

/// [`solve`] with a caller-supplied Gram matrix over `problem.features`
/// (`k[(i,j)] = K(x_i, x_j)`, as produced by
/// [`kernel_matrix_mat`]). Lets sweeps and benchmarks that re-solve the same
/// expansion under different learner settings skip rebuilding the kernel —
/// and isolates the Eq. 15 dual solve for measurement.
pub fn solve_with_kernel(
    problem: &MooProblem,
    config: &MooConfig,
    k: &Mat,
) -> Result<MooSolution, MooError> {
    let n = problem.features.rows();
    let nl = problem.labels.len();
    if nl == 0 {
        return Err(MooError::NoLabels);
    }
    let has_pos = problem.labels.iter().any(|&y| y > 0.0);
    let has_neg = problem.labels.iter().any(|&y| y < 0.0);
    if !(has_pos && has_neg) {
        return Err(MooError::SingleClass);
    }
    assert!(nl <= n, "labeled prefix longer than feature set");
    assert_eq!(problem.m.rows(), n, "structure matrix must cover all pairs");
    assert_eq!(
        (k.rows(), k.cols()),
        (n, n),
        "Gram matrix must cover the expansion"
    );

    let mut solver = config.solver.resolve(n);
    let mut gamma_m_eff = config.gamma_m;
    let mut warm_beta: Option<Vec<f64>> = None;
    let mut prev_z: Option<Mat> = None;
    // Last round's fit, promoted to a full `MooSolution` (with its single
    // expansion clone) only after the loop.
    let mut last: Option<RoundFit> = None;
    let mut total_smo_iters = 0usize;
    let mut total_iterative_iters = 0usize;

    let rounds = if config.p > 1.0 {
        config.reweight_iters.max(2)
    } else {
        1
    };
    for round in 0..rounds {
        // For p > 1 the first round is the single-objective (supervised)
        // Utopia reference solve; later rounds use the interpolated weight.
        let gamma_round = if config.p > 1.0 && round == 0 {
            0.0
        } else {
            gamma_m_eff
        };
        // ---- Eq. 15 operator: A = 2γ_L I + 2(γ_M/|P|²)(D−M)K -------------
        // `gamma_m` is already the normalized ratio (Figure 8's axis).
        // Z = A⁻¹ Jᵀ — only the Nl labeled unit columns are ever needed
        // (Eq. 17 reads rows 0..Nl of K·Z and Eq. 15 combines Z's columns).
        let scale = 2.0 * gamma_round;
        let z = match solver {
            MooSolverKind::MatrixFree => {
                match solve_z_matrix_free(problem, k, config.gamma_l, scale, nl, prev_z.as_ref()) {
                    Ok((z, iters)) => {
                        total_iterative_iters += iters;
                        z
                    }
                    Err(hydra_linalg::LinalgError::DidNotConverge { .. })
                        if config.solver == MooSolverKind::Auto =>
                    {
                        // Auto promised a result: fall back to the exact
                        // factorization for this and later rounds.
                        solver = MooSolverKind::DenseLu;
                        solve_z_dense(problem, k, config.gamma_l, scale, nl)?
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            _ => solve_z_dense(problem, k, config.gamma_l, scale, nl)?,
        };
        // Warm-start the next reweighting round's iterative solves: the
        // operator only shifts by a small γ_M change between rounds.
        if rounds > 1 && solver == MooSolverKind::MatrixFree {
            prev_z = Some(z.clone());
        }
        // Q = Y · (K Z)[0..Nl, :] · Y (Eq. 17) — only the labeled rows of
        // K·Z exist anywhere: kz_top[s,:] = Σ_i K[s,i]·Z[i,:].
        let mut kz_top = Mat::zeros(nl, nl);
        for s in 0..nl {
            let krow = k.row(s);
            for (i, &kv) in krow.iter().enumerate() {
                if kv != 0.0 {
                    hydra_linalg::vec_ops::axpy(kv, z.row(i), kz_top.row_mut(s));
                }
            }
        }
        let mut q = Mat::zeros(nl, nl);
        for s in 0..nl {
            for t in 0..nl {
                q[(s, t)] = problem.labels[s] * kz_top[(s, t)] * problem.labels[t];
            }
        }
        q.symmetrize(); // guard tiny asymmetries from the solve

        // ---- Eq. 16 by SMO ------------------------------------------------
        let smo_opts = SmoOptions {
            c: 1.0 / nl as f64,
            tol: config.smo_tol,
            max_iter: config.smo_max_iter,
            shrink_every: 1000,
        };
        let solver = SmoSolver::new(&q, &problem.labels, smo_opts)?;
        let result = match warm_beta.take() {
            Some(b) => solver.solve_warm(b)?,
            None => solver.solve()?,
        };
        total_smo_iters += result.iterations;
        warm_beta = Some(result.beta.clone());

        // ---- Eq. 15: α = Z · (Y β*) ---------------------------------------
        let yb: Vec<f64> = result
            .beta
            .iter()
            .zip(problem.labels.iter())
            .map(|(b, y)| b * y)
            .collect();
        let alpha = z.matvec(&yb)?;

        // Bias from free support vectors: y_t(f(x_t)) = 1.
        let f_no_bias = k.matvec_par(&alpha)?;
        let mut bias_sum = 0.0;
        let mut bias_cnt = 0usize;
        let c_box = 1.0 / nl as f64;
        for t in 0..nl {
            if result.beta[t] > 1e-10 && result.beta[t] < c_box - 1e-10 {
                bias_sum += problem.labels[t] - f_no_bias[t];
                bias_cnt += 1;
            }
        }
        let bias = if bias_cnt > 0 {
            bias_sum / bias_cnt as f64
        } else {
            // All SVs at bounds: fall back to midpoint of class margins.
            let mut pos_max = f64::NEG_INFINITY;
            let mut neg_min = f64::INFINITY;
            for t in 0..nl {
                if problem.labels[t] > 0.0 {
                    pos_max = pos_max.max(f_no_bias[t]);
                } else {
                    neg_min = neg_min.min(f_no_bias[t]);
                }
            }
            if pos_max.is_finite() && neg_min.is_finite() {
                -(pos_max + neg_min) / 2.0
            } else {
                0.0
            }
        };

        // ---- objective values (for reweighting and diagnostics) ----------
        // F_D = γ_L/2 ‖w‖² + Σ ξ with ‖w‖² = αᵀKα.
        let w_norm_sq: f64 = alpha.iter().zip(f_no_bias.iter()).map(|(a, f)| a * f).sum();
        let hinge: f64 = (0..nl)
            .map(|t| (1.0 - problem.labels[t] * (f_no_bias[t] + bias)).max(0.0))
            .sum();
        let objective_d = config.gamma_l / 2.0 * w_norm_sq + hinge;
        // F_S = fᵀ(D−M)f / n² over the decision values of all pairs.
        let lap_f = problem
            .m
            .laplacian_matvec(&problem.degrees, &f_no_bias)
            .expect("dims match");
        let objective_s = f_no_bias
            .iter()
            .zip(lap_f.iter())
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / (n as f64 * n as f64);

        last = Some(RoundFit {
            alpha,
            bias,
            objective_d,
            objective_s,
            support_vectors: result.support_vectors,
        });

        // ---- p > 1: interpolate toward the Utopia-normalized limit --------
        if config.p > 1.0 && round == 0 {
            // Reference scales from the supervised solve: the minimax limit
            // weighs F_S relative to F_S*, i.e. multiplies γ_M by F_D*/F_S*.
            let ratio = (objective_d.max(1e-12) / objective_s.max(1e-12)).clamp(1.0, 1e9);
            // Geometric interpolation: exponent 0 at p=1 → γ_M unchanged,
            // approaching the fully normalized minimax weight as p grows
            // (reached beyond the Figure-10 sweep so the decline past the
            // peak stays gradual rather than cliff-like).
            let t = ((config.p - 1.0) / 14.0).clamp(0.0, 1.0);
            gamma_m_eff = config.gamma_m * ratio.powf(t);
        }
    }

    let fit = last.expect("at least one round ran");
    Ok(MooSolution {
        packed: pack_expansion(&fit.alpha, &problem.features),
        alpha: fit.alpha,
        bias: fit.bias,
        kernel: config.kernel,
        // One clone for the whole solve — reweighting rounds used to pay an
        // extra n×FEATURE_DIM copy each.
        expansion: problem.features.clone(),
        objective_d: fit.objective_d,
        objective_s: fit.objective_s,
        smo_iterations: total_smo_iters,
        support_vectors: fit.support_vectors,
        solver,
        iterative_iterations: total_iterative_iters,
    })
}

/// Per-round learner output; promoted to a [`MooSolution`] after the
/// reweighting loop so the expansion matrix is cloned exactly once.
struct RoundFit {
    alpha: Vec<f64>,
    bias: f64,
    objective_d: f64,
    objective_s: f64,
    support_vectors: usize,
}

/// Dense path: materialize `A = 2γ_L·I + scale·(D−M)·K`, factorize, and
/// solve the `nl` labeled unit columns in one blocked multi-RHS pass.
fn solve_z_dense(
    problem: &MooProblem,
    k: &Mat,
    gamma_l: f64,
    scale: f64,
    nl: usize,
) -> Result<Mat, MooError> {
    let n = k.rows();
    let mut a = problem.m.laplacian_matmul(&problem.degrees, k)?;
    a.scale(scale);
    a.shift_diag(2.0 * gamma_l);
    let lu = Lu::factor(&a)?;
    let mut jt = Mat::zeros(n, nl);
    for t in 0..nl {
        jt[(t, t)] = 1.0;
    }
    Ok(lu.solve_mat(&jt)?)
}

/// Deflation rank of the matrix-free preconditioner: how many dominant
/// kernel modes are projected out. HYDRA's 40-dim pair-similarity vectors
/// are highly redundant, so the Gram matrix is numerically low-rank and a
/// small `r` removes most of `c·L·K`'s spectrum.
const DEFLATION_RANK: usize = 24;

/// Block power-iteration passes when estimating the dominant kernel modes.
const DEFLATION_POWER_PASSES: usize = 2;

/// Right preconditioner for the matrix-free Eq. 15 solve.
///
/// `A = s·I + E` with `E = c·L·K` is ill-conditioned exactly when
/// `‖E‖ ≫ s`, which happens because HYDRA's Gram matrix has a handful of
/// huge eigenvalues (near-duplicate pair-feature rows) that the Laplacian
/// amplifies unevenly. We deflate `E`'s dominant modes: with `U` (n×r,
/// orthonormal) spanning the top *right-singular* subspace of `E`
/// (estimated by block power iteration on `EᵀE = c²·K·L·L·K`, which is
/// symmetric), the rank-r surrogate `M = s·I + (E·U)·Uᵀ` admits a Woodbury
/// inverse `M⁻¹ = s⁻¹·I − s⁻²·W·G⁻¹·Uᵀ` with `W = E·U` (n×r) and
/// `G = I_r + s⁻¹·Uᵀ·W` (r×r, factorized once), so each application costs
/// O(n·r·cols). Solving `A·M⁻¹·y = b`, `z = M⁻¹·y` leaves the solution and
/// the true-residual stopping test exactly as in the unpreconditioned solve
/// — only the iteration count changes. Everything here is deterministic
/// (seeded start block, thread-invariant matmuls).
struct DeflationPrecond {
    u: Mat,
    w: Mat,
    g: Lu,
    inv_s: f64,
}

/// `aᵀ·b` for tall blocks `a` (n×r) and `b` (n×m): the small r×m product,
/// accumulated row-by-row so the result is thread-invariant.
fn mat_t_mul(a: &Mat, b: &Mat) -> Mat {
    let (r, m) = (a.cols(), b.cols());
    let mut out = Mat::zeros(r, m);
    for i in 0..a.rows() {
        let arow = a.row(i);
        let brow = b.row(i);
        for (j, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                hydra_linalg::vec_ops::axpy(av, brow, out.row_mut(j));
            }
        }
    }
    out
}

/// Modified Gram-Schmidt over the columns of `u` in place. Returns `false`
/// if the block degenerates (a column with no mass left).
fn orthonormalize_columns(u: &mut Mat) -> bool {
    let (n, r) = (u.rows(), u.cols());
    for j in 0..r {
        for prev in 0..j {
            let mut proj = 0.0;
            for i in 0..n {
                proj += u[(i, prev)] * u[(i, j)];
            }
            for i in 0..n {
                let upd = proj * u[(i, prev)];
                u[(i, j)] -= upd;
            }
        }
        let mut norm_sq = 0.0;
        for i in 0..n {
            norm_sq += u[(i, j)] * u[(i, j)];
        }
        let norm = norm_sq.sqrt();
        if norm <= 1e-12 || !norm.is_finite() {
            return false;
        }
        for i in 0..n {
            u[(i, j)] /= norm;
        }
    }
    true
}

impl DeflationPrecond {
    /// Estimate K's top modes by block power iteration and assemble the
    /// Woodbury pieces. Returns `None` (solve proceeds unpreconditioned)
    /// when the problem is too small, the structure term is off, or the
    /// deflation block degenerates.
    fn build(problem: &MooProblem, k: &Mat, shift: f64, scale: f64) -> Option<DeflationPrecond> {
        let n = k.rows();
        let r = DEFLATION_RANK.min(n / 8);
        if r == 0 || scale == 0.0 {
            return None;
        }
        // Deterministic pseudo-random start block (splitmix64 stream).
        let mut u = Mat::zeros(n, r);
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (n as u64);
        for v in u.as_mut_slice() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            *v = (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        if !orthonormalize_columns(&mut u) {
            return None;
        }
        // Block power iteration on EᵀE = (L·K)ᵀ(L·K): E·x = L·(K·x) and
        // Eᵀ·x = K·(L·x) since both L and K are symmetric. The `c` scaling
        // is irrelevant to the subspace.
        for _ in 0..DEFLATION_POWER_PASSES {
            let eu = problem
                .m
                .laplacian_matmul(&problem.degrees, &k.matmul_par(&u).ok()?)
                .ok()?;
            u = k
                .matmul_par(&problem.m.laplacian_matmul(&problem.degrees, &eu).ok()?)
                .ok()?;
            if !orthonormalize_columns(&mut u) {
                return None;
            }
        }
        // W = E·U = scale·L·(K·U).
        let mut w = problem
            .m
            .laplacian_matmul(&problem.degrees, &k.matmul_par(&u).ok()?)
            .ok()?;
        w.scale(scale);
        let mut g = mat_t_mul(&u, &w);
        g.scale(1.0 / shift);
        g.shift_diag(1.0);
        let g = Lu::factor(&g).ok()?;
        Some(DeflationPrecond {
            u,
            w,
            g,
            inv_s: 1.0 / shift,
        })
    }

    /// `M⁻¹·X`.
    fn apply_inv(&self, x: &Mat) -> Mat {
        let p = mat_t_mul(&self.u, x);
        let c = self.g.solve_mat(&p).expect("G factorized nonsingular");
        let mut out = self.w.matmul(&c).expect("deflation dims");
        out.scale(-self.inv_s * self.inv_s);
        for (o, xv) in out.as_mut_slice().iter_mut().zip(x.as_slice().iter()) {
            *o += self.inv_s * xv;
        }
        out
    }

    /// `M·X` (maps a warm-start guess `z₀` into the preconditioned variable
    /// `y₀ = M·z₀`).
    fn apply_fwd(&self, x: &Mat) -> Mat {
        let p = mat_t_mul(&self.u, x);
        let mut out = self.w.matmul(&p).expect("deflation dims");
        let s = 1.0 / self.inv_s;
        for (o, xv) in out.as_mut_slice().iter_mut().zip(x.as_slice().iter()) {
            *o += s * xv;
        }
        out
    }
}

/// Matrix-free path: solve `A·Z = Jᵀ` for all `nl` labeled unit columns by
/// lockstep block BiCGStab ([`bicgstab_multi`]), applying
/// `A·X = 2γ_L·X + scale·L·(K·X)` through the sparse block Laplacian and the
/// [`Mat::matmul_par`] parallel batched kernel matvec — neither `A` nor
/// `(D−M)·K` is ever materialized, and the dense Gram matrix streams through
/// memory once per block iteration instead of once per column. The iteration
/// is right-preconditioned by [`DeflationPrecond`] when the structure term is
/// active; `warm` (the previous reweighting round's `Z`) seeds the iteration.
///
/// Returns the solved columns and the total BiCGStab iterations (summed over
/// columns).
fn solve_z_matrix_free(
    problem: &MooProblem,
    k: &Mat,
    gamma_l: f64,
    scale: f64,
    nl: usize,
    warm: Option<&Mat>,
) -> hydra_linalg::Result<(Mat, usize)> {
    let n = k.rows();
    let shift = 2.0 * gamma_l;
    let apply_a = |x: &Mat| -> Mat {
        let kx = k.matmul_par(x).expect("expansion dims validated");
        let mut out = problem
            .m
            .laplacian_matmul(&problem.degrees, &kx)
            .expect("structure dims validated");
        for (o, xi) in out.as_mut_slice().iter_mut().zip(x.as_slice().iter()) {
            *o = shift * xi + scale * *o;
        }
        out
    };
    let mut jt = Mat::zeros(n, nl);
    for t in 0..nl {
        jt[(t, t)] = 1.0;
    }
    let opts = BiCgStabOptions {
        max_iter: 0, // auto budget
        tol: MATRIX_FREE_TOL,
    };
    match DeflationPrecond::build(problem, k, shift, scale) {
        Some(pre) => {
            // Right-preconditioned: A·M⁻¹·y = b, z = M⁻¹·y. The recurrence
            // residual is the *true* residual of A·z = b, so the stopping
            // criterion (and the solution quality) is unchanged.
            let y0 = warm.map(|z0| pre.apply_fwd(z0));
            let sol = bicgstab_multi(|x| apply_a(&pre.apply_inv(x)), &jt, y0.as_ref(), opts)?;
            Ok((pre.apply_inv(&sol.x), sol.iterations))
        }
        None => {
            let sol = bicgstab_multi(apply_a, &jt, warm, opts)?;
            Ok((sol.x, sol.iterations))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_linalg::sparse::CsrBuilder;

    /// Toy problem: positives cluster near (1,1), negatives near (-1,-1);
    /// unlabeled points sit on the cluster manifolds. The structure matrix
    /// links points of the same cluster.
    fn toy_problem(with_structure: bool) -> MooProblem {
        let feature_rows = vec![
            // labeled (first 4)
            vec![1.0, 0.9],   // +
            vec![0.9, 1.1],   // +
            vec![-1.0, -0.9], // −
            vec![-1.1, -1.0], // −
            // unlabeled
            vec![1.1, 1.0],
            vec![-0.9, -1.1],
            vec![0.95, 1.05],
            vec![-1.05, -0.95],
        ];
        let labels = vec![1.0, 1.0, -1.0, -1.0];
        let n = feature_rows.len();
        let features = Mat::from_rows(&feature_rows);
        let mut b = CsrBuilder::new(n, n);
        if with_structure {
            // Same-cluster affinities.
            let pos = [0usize, 1, 4, 6];
            let neg = [2usize, 3, 5, 7];
            for group in [pos, neg] {
                for &x in &group {
                    for &y in &group {
                        if x != y {
                            b.push(x, y, 0.8);
                        }
                    }
                    b.push(x, x, 1.0);
                }
            }
        }
        let m = b.build();
        let degrees = m.row_sums();
        MooProblem {
            features,
            labels,
            m,
            degrees,
        }
    }

    #[test]
    fn p1_solution_classifies_training_data() {
        let p = toy_problem(true);
        let sol = solve(&p, &MooConfig::default()).unwrap();
        for t in 0..4 {
            let f = sol.decision(p.features.row(t));
            assert!(
                f * p.labels[t] > 0.0,
                "pair {t} misclassified: f={f}, y={}",
                p.labels[t]
            );
        }
        assert!(sol.support_vectors > 0);
        assert!(sol.objective_d.is_finite());
        assert!(sol.objective_s >= -1e-9);
    }

    #[test]
    fn unlabeled_points_follow_their_cluster() {
        let p = toy_problem(true);
        let sol = solve(&p, &MooConfig::default()).unwrap();
        assert!(sol.decision(p.features.row(4)) > 0.0);
        assert!(sol.decision(p.features.row(6)) > 0.0);
        assert!(sol.decision(p.features.row(5)) < 0.0);
        assert!(sol.decision(p.features.row(7)) < 0.0);
    }

    #[test]
    fn structure_objective_zero_without_structure() {
        let p = toy_problem(false);
        let sol = solve(&p, &MooConfig::default()).unwrap();
        assert!(sol.objective_s.abs() < 1e-9);
        // Still classifies (pure supervised path).
        for t in 0..4 {
            assert!(sol.decision(p.features.row(t)) * p.labels[t] > 0.0);
        }
    }

    #[test]
    fn errors_on_degenerate_labels() {
        let mut p = toy_problem(true);
        p.labels = vec![];
        // Rebuild m/degrees to match (labels only change the prefix length).
        assert!(matches!(
            solve(&p, &MooConfig::default()),
            Err(MooError::NoLabels)
        ));
        let mut p2 = toy_problem(true);
        p2.labels = vec![1.0, 1.0, 1.0, 1.0];
        assert!(matches!(
            solve(&p2, &MooConfig::default()),
            Err(MooError::SingleClass)
        ));
    }

    #[test]
    fn p_greater_one_still_classifies() {
        let p = toy_problem(true);
        let cfg = MooConfig {
            p: 3.0,
            reweight_iters: 3,
            smo_tol: 1e-8,
            ..Default::default()
        };
        let sol = solve(&p, &cfg).unwrap();
        for t in 0..4 {
            assert!(sol.decision(p.features.row(t)) * p.labels[t] > 0.0);
        }
    }

    #[test]
    fn p1_reduces_to_semi_supervised_limit() {
        // With γ_M → 0 the solution approaches a plain SVM; decision values
        // of the two paths should agree in sign everywhere.
        let p = toy_problem(true);
        let with = solve(
            &p,
            &MooConfig {
                gamma_m: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        let without = solve(
            &p,
            &MooConfig {
                gamma_m: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        for t in 0..p.features.rows() {
            let x = p.features.row(t);
            assert_eq!(
                with.decision(x) > 0.0,
                without.decision(x) > 0.0,
                "sign flip at {x:?}"
            );
        }
    }

    #[test]
    fn matrix_free_matches_dense_lu_on_toy_problem() {
        let p = toy_problem(true);
        // Tight SMO tolerance: with the default 1e-5 the QP itself is only
        // solved to ~1e-5, which would mask the solver-path comparison.
        let base = MooConfig {
            smo_tol: 1e-8,
            ..Default::default()
        };
        let dense = solve(
            &p,
            &MooConfig {
                solver: MooSolverKind::DenseLu,
                ..base
            },
        )
        .unwrap();
        let free = solve(
            &p,
            &MooConfig {
                solver: MooSolverKind::MatrixFree,
                ..base
            },
        )
        .unwrap();
        assert_eq!(dense.solver, MooSolverKind::DenseLu);
        assert_eq!(dense.iterative_iterations, 0);
        assert_eq!(free.solver, MooSolverKind::MatrixFree);
        assert!(free.iterative_iterations > 0);
        for t in 0..p.features.rows() {
            let x = p.features.row(t);
            let (fd, ff) = (dense.decision(x), free.decision(x));
            assert!(
                (fd - ff).abs() < 1e-7,
                "solver kinds disagree at row {t}: {fd} vs {ff}"
            );
        }
    }

    #[test]
    fn matrix_free_matches_dense_lu_with_reweighting() {
        let p = toy_problem(true);
        let cfg = MooConfig {
            p: 3.0,
            reweight_iters: 3,
            smo_tol: 1e-8,
            ..Default::default()
        };
        let dense = solve(
            &p,
            &MooConfig {
                solver: MooSolverKind::DenseLu,
                ..cfg
            },
        )
        .unwrap();
        let free = solve(
            &p,
            &MooConfig {
                solver: MooSolverKind::MatrixFree,
                ..cfg
            },
        )
        .unwrap();
        for t in 0..p.features.rows() {
            let x = p.features.row(t);
            assert!(
                (dense.decision(x) - free.decision(x)).abs() < 1e-6,
                "p>1 warm-started parity broken at row {t}"
            );
        }
    }

    #[test]
    fn auto_resolves_by_expansion_size() {
        assert_eq!(
            MooSolverKind::Auto.resolve(MATRIX_FREE_MIN_ROWS - 1),
            MooSolverKind::DenseLu
        );
        assert_eq!(
            MooSolverKind::Auto.resolve(MATRIX_FREE_MIN_ROWS),
            MooSolverKind::MatrixFree
        );
        assert_eq!(
            MooSolverKind::DenseLu.resolve(10_000),
            MooSolverKind::DenseLu
        );
        assert_eq!(
            MooSolverKind::MatrixFree.resolve(8),
            MooSolverKind::MatrixFree
        );
        // The toy problem is far below the threshold: Auto must report the
        // dense path it actually took.
        let p = toy_problem(true);
        let sol = solve(&p, &MooConfig::default()).unwrap();
        assert_eq!(sol.solver, MooSolverKind::DenseLu);
    }

    #[test]
    fn laplacian_matmul_matches_dense_reference() {
        let mut b = CsrBuilder::new(3, 3);
        b.push(0, 1, 2.0);
        b.push(1, 0, 2.0);
        b.push(1, 2, 0.5);
        b.push(2, 1, 0.5);
        let m = b.build();
        let d = m.row_sums();
        let k = Mat::from_rows(&[
            vec![1.0, 0.2, 0.1],
            vec![0.2, 1.0, 0.3],
            vec![0.1, 0.3, 1.0],
        ]);
        let fast = m.laplacian_matmul(&d, &k).unwrap();
        // Dense reference: (D − M) K.
        let mut dm = Mat::zeros(3, 3);
        for i in 0..3 {
            dm[(i, i)] = d[i];
            for (j, v) in m.row_iter(i) {
                dm[(i, j)] -= v;
            }
        }
        let slow = dm.matmul(&k).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((fast[(i, j)] - slow[(i, j)]).abs() < 1e-12);
            }
        }
    }

    fn bare_solution(alpha: Vec<f64>, expansion: Mat) -> MooSolution {
        MooSolution {
            packed: pack_expansion(&alpha, &expansion),
            alpha,
            bias: -0.125,
            kernel: Kernel::Rbf { gamma: 0.5 },
            expansion,
            objective_d: 0.0,
            objective_s: 0.0,
            smo_iterations: 0,
            support_vectors: 0,
            solver: MooSolverKind::DenseLu,
            iterative_iterations: 0,
        }
    }

    #[test]
    fn decision_without_a_nonzero_alpha_is_exactly_the_bias() {
        let bias = (-0.125f64).to_bits();
        let empty = bare_solution(vec![], Mat::zeros(0, 0));
        assert_eq!(empty.decision(&[0.5; 40]).to_bits(), bias);
        let zeros = bare_solution(vec![0.0, -0.0, 0.0], Mat::zeros(3, 2));
        assert_eq!(zeros.decision(&[0.5, 0.5]).to_bits(), bias);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn decision_panics_on_a_wrong_width_input() {
        let p = toy_problem(true);
        let sol = solve(&p, &MooConfig::default()).unwrap();
        sol.decision(&[1.0, 0.9, 0.8]);
    }

    #[test]
    fn decisions_are_deterministic() {
        let p = toy_problem(true);
        let s1 = solve(&p, &MooConfig::default()).unwrap();
        let s2 = solve(&p, &MooConfig::default()).unwrap();
        for t in 0..p.features.rows() {
            assert_eq!(
                s1.decision(p.features.row(t)),
                s2.decision(p.features.row(t))
            );
        }
    }
}

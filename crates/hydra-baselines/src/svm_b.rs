//! SVM-B: "binary prediction on user pairs using support vector machines on
//! the proposed similarity calculation schemes" (Section 7.1, method IV).
//!
//! This is HYDRA's own Step-1 similarity vector fed to a plain C-SVM — no
//! structure-consistency objective, no core-network missing-data filling
//! (missing dimensions are zeros, the convention the paper attributes to
//! prior work). Comparing HYDRA against SVM-B isolates the contribution of
//! Steps 2–3.

use crate::{LinkageMethod, LinkageTask};
use hydra_core::model::LinkagePrediction;
use hydra_linalg::kernels::{kernel_matrix, Kernel, PackedExpansion};
use hydra_linalg::qp::{SmoOptions, SmoSolver};
use std::collections::HashMap;

/// SVM-B configuration.
#[derive(Debug, Clone, Copy)]
pub struct SvmB {
    /// Box constraint C; `0.0` = automatic `1/(2γ_L·|P_l|)` with the
    /// default γ_L = 0.01 — the box under which SVM-B optimizes exactly the
    /// F_D objective HYDRA's dual sees (Eq. 16's box is `1/|P_l|` on β, and
    /// Eq. 15 rescales β by `A⁻¹ ≈ 1/(2γ_L)`; SVM-B "corresponds to one of
    /// the objective functions in our MOO learning framework", Section 7.3).
    pub c: f64,
    /// RBF bandwidth over the similarity vectors.
    pub gamma: f64,
}

impl Default for SvmB {
    fn default() -> Self {
        SvmB { c: 0.0, gamma: 0.5 }
    }
}

impl LinkageMethod for SvmB {
    fn name(&self) -> &'static str {
        "SVM-B"
    }

    fn run(&self, task: &LinkageTask<'_>) -> Vec<LinkagePrediction> {
        let features = task
            .features
            .expect("SVM-B requires the HYDRA similarity vectors");
        // Index candidates for label lookup.
        let index: HashMap<(u32, u32), usize> = task
            .candidates
            .iter()
            .enumerate()
            .map(|(i, c)| ((c.left, c.right), i))
            .collect();

        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for &(a, b, y) in task.labels {
            if let Some(&ci) = index.get(&(a, b)) {
                xs.push(features.row(ci).to_vec());
                ys.push(if y { 1.0 } else { -1.0 });
            }
        }
        if xs.is_empty() || !ys.iter().any(|&y| y > 0.0) || !ys.iter().any(|&y| y < 0.0) {
            // Untrainable: predict nothing.
            return task
                .candidates
                .iter()
                .map(|c| LinkagePrediction {
                    left: c.left,
                    right: c.right,
                    score: 0.0,
                    linked: false,
                })
                .collect();
        }

        let kernel = Kernel::Rbf { gamma: self.gamma };
        let mut q = kernel_matrix(kernel, &xs);
        for i in 0..ys.len() {
            for j in 0..ys.len() {
                q[(i, j)] *= ys[i] * ys[j];
            }
        }
        let c_box = if self.c > 0.0 {
            self.c
        } else {
            1.0 / (2.0 * 0.01 * ys.len() as f64)
        };
        let result = SmoSolver::new(
            &q,
            &ys,
            SmoOptions {
                c: c_box,
                tol: 1e-5,
                max_iter: 100_000,
                shrink_every: 1000,
            },
        )
        .expect("valid labels")
        .solve()
        .expect("smo converges");

        let expansion = support_expansion(&xs, &ys, &result.beta);
        task.candidates
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let score = expansion.sum(kernel, -result.rho, features.row(ci));
                LinkagePrediction {
                    left: c.left,
                    right: c.right,
                    score,
                    linked: score > 0.0,
                }
            })
            .collect()
    }
}

/// The support vectors of a trained C-SVM as the terms of its decision
/// function `Σ_t y_t β_t K(x_t, x) − ρ` (the shape of Eq. 12).
pub(crate) fn support_expansion(xs: &[Vec<f64>], ys: &[f64], beta: &[f64]) -> PackedExpansion {
    PackedExpansion::pack(
        (0..xs.len())
            .filter(|&t| beta[t] > 1e-12)
            .map(|t| (ys[t] * beta[t], xs[t].as_slice())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::Fixture;

    #[test]
    fn svm_b_is_a_strong_single_objective_baseline() {
        let fx = Fixture::new(60, 700);
        let preds = SvmB::default().run(&fx.task());
        assert_eq!(preds.len(), fx.candidates.len());
        let precision = fx.precision(&preds);
        // The similarity vectors are informative, so SVM-B should be decent.
        assert!(precision > 0.4, "precision {precision}");
    }

    #[test]
    fn untrainable_task_predicts_nothing() {
        let fx = Fixture::new(30, 701);
        let empty_labels: Vec<(u32, u32, bool)> = Vec::new();
        let task = crate::LinkageTask {
            left: &fx.signals.per_platform[0],
            right: &fx.signals.per_platform[1],
            labels: &empty_labels,
            candidates: &fx.candidates,
            features: Some(&fx.features),
        };
        let preds = SvmB::default().run(&task);
        assert!(preds.iter().all(|p| !p.linked));
    }

    #[test]
    #[should_panic(expected = "requires the HYDRA similarity vectors")]
    fn requires_features() {
        let fx = Fixture::new(30, 702);
        let task = crate::LinkageTask {
            left: &fx.signals.per_platform[0],
            right: &fx.signals.per_platform[1],
            labels: &fx.labels,
            candidates: &fx.candidates,
            features: None,
        };
        SvmB::default().run(&task);
    }

    #[test]
    fn deterministic() {
        let fx = Fixture::new(40, 703);
        let p1 = SvmB::default().run(&fx.task());
        let p2 = SvmB::default().run(&fx.task());
        assert_eq!(p1, p2);
    }
}

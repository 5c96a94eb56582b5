//! Alias-Disamb (Liu et al., WSDM'13 — "What's in a name?: an unsupervised
//! approach to link users across communities") \[16\].
//!
//! The method is unsupervised: it estimates how *rare* each username is with
//! a character n-gram language model over the whole username corpus, then
//! **auto-generates training pairs** — near-identical rare usernames are
//! assumed positive, similar-but-common usernames negative — and trains a
//! classifier on them. Section 7.3 of the HYDRA paper explains the cost
//! consequence: "it automatically generates a large number of training
//! pairs [...] where most of the generated label information may be
//! incorrect, resulting in an extremely large quadratic programming problem
//! and extremely slow convergence". We reproduce that architecture: the
//! auto-generated (noisy, large) label set feeds an SMO-trained SVM over
//! username features.

use crate::svm_b::support_expansion;
use crate::username_features::username_pair_features;
use crate::{LinkageMethod, LinkageTask};
use hydra_core::model::LinkagePrediction;
use hydra_linalg::kernels::{kernel_matrix, Kernel};
use hydra_linalg::qp::{SmoOptions, SmoSolver};
use hydra_text::CharNgramLm;

/// Alias-Disamb configuration.
#[derive(Debug, Clone, Copy)]
pub struct AliasDisamb {
    /// n-gram order of the username language model.
    pub ngram_order: usize,
    /// Username similarity above which a pair is auto-labeled positive if
    /// both names are rare.
    pub auto_positive_sim: f64,
    /// Rarity quantile (over the corpus) a name must exceed to count as
    /// rare.
    pub rarity_quantile: f64,
    /// SVM box constraint.
    pub c: f64,
}

impl Default for AliasDisamb {
    fn default() -> Self {
        AliasDisamb {
            ngram_order: 3,
            auto_positive_sim: 0.85,
            rarity_quantile: 0.6,
            c: 1.0,
        }
    }
}

impl LinkageMethod for AliasDisamb {
    fn name(&self) -> &'static str {
        "Alias-Disamb"
    }

    fn run(&self, task: &LinkageTask<'_>) -> Vec<LinkagePrediction> {
        // --- unsupervised username language model -------------------------
        let mut lm = CharNgramLm::new(self.ngram_order, 0.1);
        lm.train(task.left.iter().map(|s| s.username.as_str()));
        lm.train(task.right.iter().map(|s| s.username.as_str()));

        // Corpus rarity threshold at the configured quantile.
        let mut rarities: Vec<f64> = task
            .left
            .iter()
            .chain(task.right.iter())
            .map(|s| lm.rarity(&s.username))
            .collect();
        rarities.sort_by(|a, b| a.partial_cmp(b).expect("finite rarity"));
        let idx = ((rarities.len() as f64 - 1.0) * self.rarity_quantile) as usize;
        let rare_cutoff = rarities[idx];

        // --- auto-generate (noisy) labels over the candidate universe ------
        // Positive: both names rare and very similar. Negative: similar but
        // common names (the "john" case), or dissimilar names.
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for c in task.candidates {
            let ua = &task.left[c.left as usize].username;
            let ub = &task.right[c.right as usize].username;
            let sim = hydra_text::strsim::jaro_winkler(ua, ub);
            let both_rare = lm.rarity(ua) >= rare_cutoff && lm.rarity(ub) >= rare_cutoff;
            let label = if sim >= self.auto_positive_sim && both_rare {
                1.0
            } else if sim < 0.6 {
                -1.0
            } else {
                // Middle band and similar-but-common names stay unlabeled —
                // precisely the ambiguity ("john" vs "john") the method
                // cannot resolve, and the source of its noisy labels.
                continue;
            };
            xs.push(username_pair_features(ua, ub));
            ys.push(label);
        }

        // Degenerate corpus: nothing auto-labeled on one side.
        let has_pos = ys.iter().any(|&y| y > 0.0);
        let has_neg = ys.iter().any(|&y| y < 0.0);
        if !(has_pos && has_neg) {
            return task
                .candidates
                .iter()
                .map(|c| {
                    let sim = hydra_text::strsim::jaro_winkler(
                        &task.left[c.left as usize].username,
                        &task.right[c.right as usize].username,
                    );
                    LinkagePrediction {
                        left: c.left,
                        right: c.right,
                        score: sim,
                        linked: sim >= self.auto_positive_sim,
                    }
                })
                .collect();
        }

        // --- the "extremely large" QP: SVM over ALL auto-labeled pairs -----
        let mut q = kernel_matrix(Kernel::Rbf { gamma: 1.0 }, &xs);
        for i in 0..ys.len() {
            for j in 0..ys.len() {
                q[(i, j)] *= ys[i] * ys[j];
            }
        }
        let result = SmoSolver::new(
            &q,
            &ys,
            SmoOptions {
                c: self.c,
                tol: 1e-4,
                max_iter: 200_000,
                shrink_every: 2000,
            },
        )
        .expect("valid labels")
        .solve()
        .expect("smo converges");

        // --- score the universe through the learned expansion --------------
        let kernel = Kernel::Rbf { gamma: 1.0 };
        let expansion = support_expansion(&xs, &ys, &result.beta);
        task.candidates
            .iter()
            .map(|c| {
                let f = username_pair_features(
                    &task.left[c.left as usize].username,
                    &task.right[c.right as usize].username,
                );
                let score = expansion.sum(kernel, -result.rho, &f);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::Fixture;

    #[test]
    fn alias_disamb_runs_unsupervised() {
        let fx = Fixture::new(60, 500);
        // Note: labels are ignored by design.
        let preds = AliasDisamb::default().run(&fx.task());
        assert_eq!(preds.len(), fx.candidates.len());
        let precision = fx.precision(&preds);
        // Unsupervised, username-only, noisy auto-labels: weak but nonzero.
        assert!(precision > 0.1, "precision {precision}");
    }

    #[test]
    fn deterministic() {
        let fx = Fixture::new(40, 501);
        let p1 = AliasDisamb::default().run(&fx.task());
        let p2 = AliasDisamb::default().run(&fx.task());
        assert_eq!(p1.len(), p2.len());
        for (a, b) in p1.iter().zip(p2.iter()) {
            assert_eq!(a.linked, b.linked);
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn links_rare_identical_names_not_common_ones() {
        // Construct a toy task: two rare identical names, two common ones.
        let fx = Fixture::new(50, 502);
        let preds = AliasDisamb::default().run(&fx.task());
        // At least some predictions must be negative (common-name pairs) and
        // the method must not link everything.
        let linked = preds.iter().filter(|p| p.linked).count();
        assert!(linked < preds.len(), "links everything");
    }
}

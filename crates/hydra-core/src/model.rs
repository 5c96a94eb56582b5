//! The user-facing HYDRA estimator (Figure 3 end-to-end).
//!
//! [`Hydra::fit`] takes an [`AccountSource`] (any data source — the
//! synthetic [`hydra_datagen::Dataset`] is one impl), extracted signals,
//! and one [`PairTask`] per platform pair (the multi-platform decomposition
//! of Section 6.2: C platforms → (C−1)C/2 one-to-one SIL problems sharing a
//! single decision model). It learns the Eq. 3 attribute weights, generates
//! candidates with the Section-3 rule-based filter, fills missing features
//! (Eq. 18), builds the block-diagonal structure matrix (Eq. 14), and
//! solves the multi-objective dual. [`TrainedHydra::predict`] scores every
//! candidate pair of a task through the learned kernel expansion (Eq. 12).
//!
//! ## Train / serve split
//!
//! `fit` is now a thin wrapper over the serving-layer artifacts: the
//! learned state lives in a [`LinkageModel`]
//! ([`TrainedHydra::model`]) that can be saved, loaded, and handed to a
//! [`crate::engine::LinkageEngine`] for per-account queries — see the
//! migration notes on [`TrainedHydra`]. `TrainedHydra` itself additionally
//! retains the fit-time candidate lists and filled feature rows so batch
//! evaluation over the training corpus stays a single [`TrainedHydra::predict`]
//! call.

use crate::artifact::{LinkageModel, TaskSpec};
use crate::candidates::{generate_candidates, CandidateConfig, CandidatePair};
use crate::features::{
    AttributeImportance, FeatureConfig, FeatureExtractor, FeatureMatrix, FEATURE_DIM,
};
use crate::missing::{FillStrategy, MissingFiller};
use crate::moo::{solve, MooConfig, MooError, MooProblem};
use crate::signals::{ProfileCache, Signals};
use crate::source::AccountSource;
use crate::structure::{build_structure_matrix, StructureConfig};
use hydra_linalg::dense::Mat;
use hydra_linalg::sparse::CsrBuilder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

/// Full model configuration.
#[derive(Debug, Clone)]
pub struct HydraConfig {
    /// Learner options (γ_L, γ_M, p, kernel).
    pub moo: MooConfig,
    /// Structure-graph options (σ₁, σ₂, hops).
    pub structure: StructureConfig,
    /// Missing-feature strategy: `CoreNetwork` = HYDRA-M, `Zero` = HYDRA-Z.
    pub fill: FillStrategy,
    /// Pair-feature options.
    pub feature: FeatureConfig,
    /// Candidate-generation thresholds.
    pub candidates: CandidateConfig,
    /// Cap on unlabeled pairs entering the kernel expansion, per task.
    pub max_unlabeled_expansion: usize,
    /// Cap on labeled pairs entering the expansion, per task (class-balanced
    /// deterministic subsample — keeps multi-platform joint solves, whose
    /// direct factorization is O(|P|³), tractable at benchmark scales).
    pub max_labeled_per_task: usize,
    /// ε of Eq. 3.
    pub attr_epsilon: f64,
    /// Seed for the deterministic unlabeled-expansion sample.
    pub seed: u64,
}

impl Default for HydraConfig {
    fn default() -> Self {
        HydraConfig {
            moo: MooConfig::default(),
            structure: StructureConfig::default(),
            fill: FillStrategy::CoreNetwork,
            feature: FeatureConfig::default(),
            candidates: CandidateConfig::default(),
            max_unlabeled_expansion: 600,
            max_labeled_per_task: usize::MAX,
            attr_epsilon: 0.01,
            seed: 0xCAFE,
        }
    }
}

/// One platform-pair SIL sub-problem.
#[derive(Debug, Clone)]
pub struct PairTask {
    /// Index of the left platform in the dataset.
    pub left_platform: usize,
    /// Index of the right platform.
    pub right_platform: usize,
    /// Ground-truth labeled pairs `(left_account, right_account, same_person)`.
    pub labels: Vec<(u32, u32, bool)>,
    /// Optional whitelist restricting which *unlabeled* candidates may carry
    /// structure information (Figure 12 incrementally widens this).
    pub unlabeled_whitelist: Option<HashSet<(u32, u32)>>,
}

/// A scored candidate pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkagePrediction {
    /// Left-platform account.
    pub left: u32,
    /// Right-platform account.
    pub right: u32,
    /// Decision value f(x) (positive ⇒ linked).
    pub score: f64,
    /// Hard decision `f(x) > 0`.
    pub linked: bool,
}

/// The HYDRA estimator.
#[derive(Debug, Clone, Default)]
pub struct Hydra {
    /// Configuration.
    pub config: HydraConfig,
}

/// Per-task state retained for prediction.
#[derive(Debug, Clone)]
pub struct TaskState {
    /// The task definition.
    pub task: PairTask,
    /// All candidate pairs for the task.
    pub candidates: Vec<CandidatePair>,
    /// Filled feature rows, index-aligned with `candidates`.
    pub features: FeatureMatrix,
}

/// A fitted model: the persistable [`LinkageModel`] plus the fit-time
/// per-task candidate/feature state batch prediction scores.
///
/// ## Migration (pre-serving API → train/serve split)
///
/// Code that read `trained.solution` / `trained.importance` now goes
/// through the artifact: `trained.model.solution`,
/// `trained.model.importance`. To persist a model:
/// `trained.model.save(path)`; to serve per-account queries against it:
/// [`crate::engine::LinkageEngine::new`]. Batch prediction over the
/// training corpus is unchanged ([`TrainedHydra::predict`]).
pub struct TrainedHydra {
    /// The self-contained learned artifact (save/load/serve).
    pub model: LinkageModel,
    /// Per-task candidate/feature state.
    pub tasks: Vec<TaskState>,
}

impl Hydra {
    /// New estimator with the given configuration.
    pub fn new(config: HydraConfig) -> Self {
        Hydra { config }
    }

    /// Fit on an account source. `signals` must come from
    /// [`Signals::extract`] on the same source (kept separate so
    /// experiment sweeps can reuse the expensive extraction across settings
    /// and methods).
    pub fn fit<S: AccountSource + ?Sized>(
        &self,
        dataset: &S,
        signals: &Signals,
        tasks: Vec<PairTask>,
    ) -> Result<TrainedHydra, MooError> {
        assert!(
            !tasks.is_empty(),
            "at least one platform-pair task required"
        );
        let cfg = &self.config;

        // ---- Eq. 3: attribute importance from the labeled pairs ----------
        let mut attr_pairs = Vec::new();
        for task in &tasks {
            let l = &signals.per_platform[task.left_platform];
            let r = &signals.per_platform[task.right_platform];
            for &(a, b, y) in &task.labels {
                attr_pairs.push((&l[a as usize].attrs, &r[b as usize].attrs, y));
            }
        }
        let importance = AttributeImportance::learn(attr_pairs, cfg.attr_epsilon);
        let extractor =
            FeatureExtractor::new(cfg.feature.clone(), importance.clone(), signals.window_days);

        // ---- per-task candidate generation & features ----------------------
        // Pre-bucketed series caches, built once per distinct platform and
        // shared across tasks (and with the Eq.-18 friend-pair filler).
        let mut platform_caches: Vec<Option<ProfileCache>> =
            (0..signals.per_platform.len()).map(|_| None).collect();
        for task in &tasks {
            for p in [task.left_platform, task.right_platform] {
                if platform_caches[p].is_none() {
                    platform_caches[p] = Some(extractor.profile_cache(&signals.per_platform[p]));
                }
            }
        }

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut task_states: Vec<TaskState> = Vec::with_capacity(tasks.len());
        // Expansion bookkeeping: (task, candidate index) per expansion slot.
        let mut labeled_ys: Vec<f64> = Vec::new();
        let mut labeled_slots: Vec<(usize, usize)> = Vec::new();
        let mut unlabeled_slots: Vec<(usize, usize)> = Vec::new();

        for (t_idx, task) in tasks.into_iter().enumerate() {
            let left = &signals.per_platform[task.left_platform];
            let right = &signals.per_platform[task.right_platform];
            let left_cache = platform_caches[task.left_platform]
                .as_ref()
                .expect("cache built above");
            let right_cache = platform_caches[task.right_platform]
                .as_ref()
                .expect("cache built above");
            let mut cands = generate_candidates(left, right, &cfg.candidates);

            // Labeled pairs must be present in the candidate list.
            let mut index: HashMap<(u32, u32), usize> = cands
                .iter()
                .enumerate()
                .map(|(i, c)| ((c.left, c.right), i))
                .collect();
            for &(a, b, _) in &task.labels {
                if let std::collections::hash_map::Entry::Vacant(e) = index.entry((a, b)) {
                    cands.push(CandidatePair {
                        left: a,
                        right: b,
                        username_sim: 0.0,
                        pre_matched: false,
                    });
                    e.insert(cands.len() - 1);
                }
            }

            // Batch feature assembly (parallel, contiguous rows) followed by
            // missing-info filling over the matrix in place.
            let pairs: Vec<crate::PairIdx> = cands.iter().map(|c| (c.left, c.right)).collect();
            let mut feats =
                extractor.features_for_pairs(&pairs, left, right, Some((left_cache, right_cache)));
            let mut filler = MissingFiller::new(
                &extractor,
                left,
                right,
                dataset.graph(task.left_platform),
                dataset.graph(task.right_platform),
            )
            .with_profile_caches(left_cache, right_cache);
            filler.fill_matrix(&pairs, &mut feats, cfg.fill);

            // Labeled set: the ground truth.
            let mut label_map: HashMap<usize, f64> = HashMap::new();
            for &(a, b, y) in &task.labels {
                let ci = index[&(a, b)];
                label_map.insert(ci, if y { 1.0 } else { -1.0 });
            }
            // Class-balanced deterministic cap on the labeled expansion.
            let mut pos: Vec<usize> = label_map
                .iter()
                .filter(|(_, &y)| y > 0.0)
                .map(|(&ci, _)| ci)
                .collect();
            let mut neg: Vec<usize> = label_map
                .iter()
                .filter(|(_, &y)| y < 0.0)
                .map(|(&ci, _)| ci)
                .collect();
            pos.sort_unstable();
            neg.sort_unstable();
            if pos.len() + neg.len() > cfg.max_labeled_per_task {
                let half = (cfg.max_labeled_per_task / 2).max(1);
                pos.truncate(half.max(cfg.max_labeled_per_task.saturating_sub(neg.len())));
                neg.truncate(cfg.max_labeled_per_task - pos.len().min(cfg.max_labeled_per_task));
            }
            for ci in pos.into_iter().chain(neg) {
                labeled_ys.push(label_map[&ci]);
                labeled_slots.push((t_idx, ci));
            }

            // Unlabeled expansion sample (deterministic), optionally
            // restricted by the whitelist.
            let mut pool: Vec<usize> = (0..cands.len())
                .filter(|ci| !label_map.contains_key(ci))
                .filter(|&ci| match &task.unlabeled_whitelist {
                    Some(wl) => wl.contains(&(cands[ci].left, cands[ci].right)),
                    None => true,
                })
                .collect();
            pool.shuffle(&mut rng);
            pool.truncate(cfg.max_unlabeled_expansion);
            for ci in pool {
                unlabeled_slots.push((t_idx, ci));
            }

            task_states.push(TaskState {
                task,
                candidates: cands,
                features: feats,
            });
        }

        // ---- assemble the global expansion (labeled prefix first) ---------
        let nl = labeled_slots.len();
        let n = nl + unlabeled_slots.len();
        let mut features = Mat::zeros(n, FEATURE_DIM);
        for (g, &(t, ci)) in labeled_slots
            .iter()
            .chain(unlabeled_slots.iter())
            .enumerate()
        {
            features
                .row_mut(g)
                .copy_from_slice(task_states[t].features.row(ci));
        }

        // Global slot of every (task, candidate) in the expansion.
        let mut slot_of: HashMap<(usize, usize), usize> = HashMap::new();
        for (g, &(t, ci)) in labeled_slots.iter().enumerate() {
            slot_of.insert((t, ci), g);
        }
        for (k, &(t, ci)) in unlabeled_slots.iter().enumerate() {
            slot_of.insert((t, ci), nl + k);
        }

        // ---- block-diagonal structure matrix (Eq. 14) ----------------------
        let mut m_builder = CsrBuilder::new(n, n);
        let mut degrees = vec![0.0; n];
        for (t_idx, state) in task_states.iter().enumerate() {
            // Local candidate subset present in the expansion.
            let mut local: Vec<usize> = slot_of
                .keys()
                .filter(|(t, _)| *t == t_idx)
                .map(|&(_, ci)| ci)
                .collect();
            local.sort_unstable();
            let pairs: Vec<crate::PairIdx> = local
                .iter()
                .map(|&ci| (state.candidates[ci].left, state.candidates[ci].right))
                .collect();
            let sm = build_structure_matrix(
                &pairs,
                &signals.per_platform[state.task.left_platform],
                &signals.per_platform[state.task.right_platform],
                dataset.graph(state.task.left_platform),
                dataset.graph(state.task.right_platform),
                &cfg.structure,
            );
            for (li, &ci) in local.iter().enumerate() {
                let g = slot_of[&(t_idx, ci)];
                degrees[g] = sm.degrees[li];
                for (lj, v) in sm.m.row_iter(li) {
                    let gj = slot_of[&(t_idx, local[lj])];
                    m_builder.push(g, gj, v);
                }
            }
        }
        let m = m_builder.build();

        let problem = MooProblem {
            features,
            labels: labeled_ys,
            m,
            degrees,
        };
        let solution = solve(&problem, &cfg.moo)?;

        let model = LinkageModel {
            solution,
            importance,
            tasks: task_states
                .iter()
                .map(|s| TaskSpec {
                    left_platform: s.task.left_platform as u32,
                    right_platform: s.task.right_platform as u32,
                })
                .collect(),
            candidates: cfg.candidates.clone(),
            feature: cfg.feature.clone(),
            fill: cfg.fill,
            window_days: signals.window_days,
            expansion_size: n,
            num_labeled: nl,
        };
        Ok(TrainedHydra {
            model,
            tasks: task_states,
        })
    }
}

/// A task index outside the fitted task range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskIndexError {
    /// The offending index.
    pub task: usize,
    /// Number of fitted tasks.
    pub num_tasks: usize,
}

impl std::fmt::Display for TaskIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task index {} out of range ({} fitted tasks)",
            self.task, self.num_tasks
        )
    }
}

impl std::error::Error for TaskIndexError {}

impl TrainedHydra {
    /// Score every candidate pair of task `t` (parallel over candidates,
    /// deterministic order). An out-of-range task index yields an empty
    /// prediction list; use [`TrainedHydra::try_predict`] to distinguish
    /// "no candidates" from "no such task".
    pub fn predict(&self, t: usize) -> Vec<LinkagePrediction> {
        self.try_predict(t).unwrap_or_default()
    }

    /// [`TrainedHydra::predict`], erroring on an out-of-range task index
    /// instead of panicking.
    pub fn try_predict(&self, t: usize) -> Result<Vec<LinkagePrediction>, TaskIndexError> {
        let state = self.tasks.get(t).ok_or(TaskIndexError {
            task: t,
            num_tasks: self.tasks.len(),
        })?;
        Ok(hydra_par::par_map(state.candidates.as_slice(), |ci, c| {
            let score = self.model.solution.decision(state.features.row(ci));
            LinkagePrediction {
                left: c.left,
                right: c.right,
                score,
                linked: score > 0.0,
            }
        }))
    }

    /// Number of platform-pair tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Size of the kernel expansion set (|P_l ∪ P_u|).
    pub fn expansion_size(&self) -> usize {
        self.model.expansion_size
    }

    /// Number of labeled pairs used.
    pub fn num_labeled(&self) -> usize {
        self.model.num_labeled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::SignalConfig;
    use hydra_datagen::{Dataset, DatasetConfig};

    /// Standard small fixture: 60 persons on the English pair, 30% of true
    /// pairs labeled plus hard negatives drawn from the candidate pool
    /// (same-name confusables — the negatives a real pipeline trains on).
    fn fixture(fill: FillStrategy) -> (Dataset, Signals, TrainedHydra) {
        let dataset = Dataset::generate(DatasetConfig::english(60, 2024));
        let signals = Signals::extract(
            &dataset,
            &SignalConfig {
                lda_iterations: 12,
                infer_iterations: 4,
                ..Default::default()
            },
        );
        let cands = generate_candidates(
            &signals.per_platform[0],
            &signals.per_platform[1],
            &CandidateConfig::default(),
        );
        let mut labels = Vec::new();
        for i in 0..18u32 {
            labels.push((i, i, true));
        }
        let mut negs = 0;
        for c in &cands {
            if c.left != c.right && negs < 24 {
                labels.push((c.left, c.right, false));
                negs += 1;
            }
        }
        let task = PairTask {
            left_platform: 0,
            right_platform: 1,
            labels,
            unlabeled_whitelist: None,
        };
        let hydra = Hydra::new(HydraConfig {
            fill,
            ..Default::default()
        });
        let trained = hydra.fit(&dataset, &signals, vec![task]).expect("fit");
        (dataset, signals, trained)
    }

    fn prf(preds: &[LinkagePrediction], num_persons: usize) -> (f64, f64) {
        let linked: Vec<_> = preds.iter().filter(|p| p.linked).collect();
        if linked.is_empty() {
            return (0.0, 0.0);
        }
        let correct = linked.iter().filter(|p| p.left == p.right).count();
        let mut found: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for p in &linked {
            if p.left == p.right {
                found.insert(p.left);
            }
        }
        (
            correct as f64 / linked.len() as f64,
            found.len() as f64 / num_persons as f64,
        )
    }

    #[test]
    fn end_to_end_beats_chance_decisively() {
        let (dataset, _signals, trained) = fixture(FillStrategy::CoreNetwork);
        let preds = trained.predict(0);
        assert!(!preds.is_empty());
        let (precision, recall) = prf(&preds, dataset.num_persons());
        // On this easy small fixture the model must be clearly working.
        assert!(precision > 0.6, "precision {precision}");
        assert!(recall > 0.3, "recall {recall}");
    }

    #[test]
    fn training_pairs_recovered() {
        let (_, _, trained) = fixture(FillStrategy::CoreNetwork);
        let preds = trained.predict(0);
        let by_pair: HashMap<(u32, u32), bool> = preds
            .iter()
            .map(|p| ((p.left, p.right), p.linked))
            .collect();
        // Most labeled positives should be predicted linked.
        let mut hit = 0;
        for i in 0..18u32 {
            if by_pair.get(&(i, i)).copied().unwrap_or(false) {
                hit += 1;
            }
        }
        assert!(hit >= 12, "only {hit}/18 labeled positives recovered");
    }

    #[test]
    fn zero_fill_variant_also_trains() {
        let (dataset, _, trained) = fixture(FillStrategy::Zero);
        let preds = trained.predict(0);
        let (precision, _) = prf(&preds, dataset.num_persons());
        assert!(precision > 0.4, "HYDRA-Z precision {precision}");
    }

    #[test]
    fn expansion_respects_caps_and_prefix() {
        let (_, _, trained) = fixture(FillStrategy::CoreNetwork);
        assert!(trained.num_labeled() <= trained.expansion_size());
        assert!(trained.expansion_size() <= trained.num_labeled() + 600);
        assert_eq!(trained.num_tasks(), 1);
    }

    #[test]
    fn out_of_range_task_index_errors_instead_of_panicking() {
        let (_, _, trained) = fixture(FillStrategy::CoreNetwork);
        assert_eq!(trained.num_tasks(), 1);
        // Regression: `predict` used to index `self.tasks[t]` and panic.
        assert!(trained.predict(1).is_empty());
        assert!(trained.predict(usize::MAX).is_empty());
        let err = trained.try_predict(7).expect_err("out of range");
        assert_eq!(err.task, 7);
        assert_eq!(err.num_tasks, 1);
        assert!(err.to_string().contains("out of range"));
        // In-range predictions are unaffected.
        assert_eq!(
            trained.try_predict(0).expect("in range").len(),
            trained.predict(0).len()
        );
    }

    #[test]
    fn whitelist_restricts_unlabeled_structure() {
        let dataset = Dataset::generate(DatasetConfig::english(40, 7));
        let signals = Signals::extract(
            &dataset,
            &SignalConfig {
                lda_iterations: 8,
                infer_iterations: 3,
                ..Default::default()
            },
        );
        let mut labels = Vec::new();
        for i in 0..10u32 {
            labels.push((i, i, true));
            labels.push((i, (i + 17) % 40, false));
        }
        let task = PairTask {
            left_platform: 0,
            right_platform: 1,
            labels,
            unlabeled_whitelist: Some(HashSet::new()), // no unlabeled at all
        };
        let trained = Hydra::new(HydraConfig::default())
            .fit(&dataset, &signals, vec![task])
            .expect("fit");
        // Expansion = labeled only.
        assert_eq!(trained.expansion_size(), trained.num_labeled());
    }
}

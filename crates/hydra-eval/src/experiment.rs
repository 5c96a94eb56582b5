//! The shared experiment runner.
//!
//! Every figure-reproduction binary follows the same shape: prepare a
//! dataset at some scale (generation + signal extraction + candidate
//! generation + labeling, all deterministic), then run each method on the
//! identical prepared inputs with wall-clock timing — the paper's "total
//! execution time" efficiency metric (Section 7.3). Signal extraction is
//! shared across methods and excluded from per-method time, mirroring the
//! paper's shared similarity-construction stage (Section 7.1 uses the same
//! optimized `x_ii'` for methods IV–VI).

use crate::labeling::{sample_labels, LabelPlan};
use crate::metrics::{evaluate, Prf};
use hydra_baselines::{AliasDisamb, LinkageMethod, LinkageTask, Mobius, Smash, SvmB};
use hydra_core::candidates::{generate_candidates, CandidatePair};
use hydra_core::features::{AttributeImportance, FeatureExtractor, FeatureMatrix};
use hydra_core::missing::FillStrategy;
use hydra_core::model::{Hydra, HydraConfig, PairTask};
use hydra_core::signals::ProfileCache;
use hydra_core::signals::{SignalConfig, Signals};
use hydra_datagen::{Dataset, DatasetConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The methods under comparison (the paper's legends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    /// HYDRA with core-network missing-data filling (the full model).
    HydraM,
    /// HYDRA with zero filling (ablation).
    HydraZ,
    /// Zafarani & Liu KDD'13.
    Mobius,
    /// Liu et al. WSDM'13.
    AliasDisamb,
    /// Hassanzadeh et al. PVLDB'13.
    Smash,
    /// Plain SVM on HYDRA's similarity vectors.
    SvmB,
}

impl Method {
    /// The five methods of the comparison figures (9, 11, 12, 13, 14).
    pub const COMPARISON: [Method; 5] = [
        Method::HydraM,
        Method::Mobius,
        Method::SvmB,
        Method::AliasDisamb,
        Method::Smash,
    ];

    /// Paper-legend name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::HydraM => "HYDRA-M",
            Method::HydraZ => "HYDRA-Z",
            Method::Mobius => "MOBIUS",
            Method::AliasDisamb => "Alias-Disamb",
            Method::Smash => "SMaSh",
            Method::SvmB => "SVM-B",
        }
    }
}

/// One experiment setting (one x-axis point of one figure).
#[derive(Debug, Clone)]
pub struct Setting {
    /// Dataset generation config.
    pub dataset: DatasetConfig,
    /// Label sampling plan.
    pub labels: LabelPlan,
    /// Signal-extraction options.
    pub signal: SignalConfig,
    /// HYDRA model options (baselines share candidate/feature sub-configs).
    pub hydra: HydraConfig,
}

impl Setting {
    /// Default setting at a given dataset config.
    pub fn new(dataset: DatasetConfig) -> Self {
        Setting {
            dataset,
            labels: LabelPlan::default(),
            signal: SignalConfig::default(),
            hydra: HydraConfig::default(),
        }
    }
}

/// Per-platform-pair prepared inputs.
pub struct PreparedPair {
    /// Left platform index.
    pub left_platform: usize,
    /// Right platform index.
    pub right_platform: usize,
    /// Candidate/evaluation universe.
    pub candidates: Vec<CandidatePair>,
    /// Zero-filled similarity rows for the baselines (index-aligned with
    /// `candidates`).
    pub features: FeatureMatrix,
    /// Sampled labels.
    pub labels: Vec<(u32, u32, bool)>,
}

/// Fully prepared experiment inputs.
pub struct PreparedData {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Extracted signals.
    pub signals: Signals,
    /// One prepared task per platform pair.
    pub pairs: Vec<PreparedPair>,
    /// The setting that produced this.
    pub setting: Setting,
}

/// Result of running one method on one prepared setting.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MethodResult {
    /// Which method.
    pub method: Method,
    /// Pooled precision/recall over all platform pairs.
    pub prf: Prf,
    /// Wall-clock seconds (train + predict, shared preparation excluded).
    pub seconds: f64,
}

/// Generate, extract, and label everything for one setting.
pub fn prepare(setting: Setting) -> PreparedData {
    let dataset = Dataset::generate(setting.dataset.clone());
    let signals = Signals::extract(&dataset, &setting.signal);
    let num_platforms = dataset.num_platforms();

    // Shared zero-filled features for the feature-consuming baselines.
    let extractor = FeatureExtractor::new(
        setting.hydra.feature.clone(),
        AttributeImportance::default(),
        dataset.config.window_days,
    );

    // Pre-bucketed series caches, one per platform, shared by every pair.
    let caches: Vec<ProfileCache> = signals
        .per_platform
        .iter()
        .map(|side| extractor.profile_cache(side))
        .collect();

    let mut pairs = Vec::new();
    let mut pair_seed = setting.labels.seed;
    for lp in 0..num_platforms {
        for rp in (lp + 1)..num_platforms {
            let candidates = generate_candidates(
                &signals.per_platform[lp],
                &signals.per_platform[rp],
                &setting.hydra.candidates,
            );
            let idx_pairs: Vec<(u32, u32)> = candidates.iter().map(|c| (c.left, c.right)).collect();
            let mut features = extractor.features_for_pairs(
                &idx_pairs,
                &signals.per_platform[lp],
                &signals.per_platform[rp],
                Some((&caches[lp], &caches[rp])),
            );
            features.clear_masks();
            pair_seed = pair_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let labels = sample_labels(
                &candidates,
                dataset.num_persons(),
                &LabelPlan {
                    seed: pair_seed,
                    ..setting.labels
                },
            );
            pairs.push(PreparedPair {
                left_platform: lp,
                right_platform: rp,
                candidates,
                features,
                labels,
            });
        }
    }

    PreparedData {
        dataset,
        signals,
        pairs,
        setting,
    }
}

/// Run one method on the prepared inputs; returns pooled metrics + timing.
pub fn run_method(prepared: &PreparedData, method: Method) -> MethodResult {
    let start = Instant::now();
    let mut parts = Vec::with_capacity(prepared.pairs.len());
    match method {
        Method::HydraM | Method::HydraZ => {
            let mut config = prepared.setting.hydra.clone();
            config.fill = if method == Method::HydraM {
                FillStrategy::CoreNetwork
            } else {
                FillStrategy::Zero
            };
            let tasks: Vec<PairTask> = prepared
                .pairs
                .iter()
                .map(|p| PairTask {
                    left_platform: p.left_platform,
                    right_platform: p.right_platform,
                    labels: p.labels.clone(),
                    unlabeled_whitelist: None,
                })
                .collect();
            let trained = Hydra::new(config)
                .fit(&prepared.dataset, &prepared.signals, tasks)
                .expect("HYDRA fit");
            for (t, pair) in prepared.pairs.iter().enumerate() {
                // `try_predict` so a task/pair drift fails loudly instead of
                // silently scoring an empty prediction list.
                let preds = trained.try_predict(t).expect("task aligned with pairs");
                parts.push(evaluate(
                    &preds,
                    &pair.labels,
                    prepared.dataset.num_persons(),
                ));
            }
        }
        Method::Mobius | Method::AliasDisamb | Method::Smash | Method::SvmB => {
            let runner: Box<dyn LinkageMethod> = match method {
                Method::Mobius => Box::new(Mobius::default()),
                Method::AliasDisamb => Box::new(AliasDisamb::default()),
                Method::Smash => Box::new(Smash::default()),
                Method::SvmB => Box::new(SvmB::default()),
                _ => unreachable!(),
            };
            for pair in &prepared.pairs {
                let task = LinkageTask {
                    left: &prepared.signals.per_platform[pair.left_platform],
                    right: &prepared.signals.per_platform[pair.right_platform],
                    labels: &pair.labels,
                    candidates: &pair.candidates,
                    features: Some(&pair.features),
                };
                let preds = runner.run(&task);
                parts.push(evaluate(
                    &preds,
                    &pair.labels,
                    prepared.dataset.num_persons(),
                ));
            }
        }
    }
    MethodResult {
        method,
        prf: Prf::pooled(&parts),
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Config helper: a [`SignalConfig`] tuned for fast experiment sweeps.
pub fn fast_signal_config() -> SignalConfig {
    SignalConfig {
        lda_iterations: 20,
        infer_iterations: 6,
        lda_sample_cap: 5000,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_setting() -> Setting {
        let mut s = Setting::new(DatasetConfig::english(50, 1234));
        s.signal = SignalConfig {
            lda_iterations: 8,
            infer_iterations: 3,
            ..Default::default()
        };
        s
    }

    #[test]
    fn prepare_builds_all_platform_pairs() {
        let p = prepare(tiny_setting());
        assert_eq!(p.pairs.len(), 1); // english = 1 pair
        assert!(!p.pairs[0].candidates.is_empty());
        assert_eq!(p.pairs[0].candidates.len(), p.pairs[0].features.len());
        assert!(p.pairs[0].labels.iter().any(|l| l.2));
        assert!(p.pairs[0].labels.iter().any(|l| !l.2));
    }

    #[test]
    fn all_methods_run_and_report() {
        let p = prepare(tiny_setting());
        for m in [
            Method::HydraM,
            Method::HydraZ,
            Method::Mobius,
            Method::AliasDisamb,
            Method::Smash,
            Method::SvmB,
        ] {
            let r = run_method(&p, m);
            assert_eq!(r.method, m);
            assert!(r.prf.precision.is_finite());
            assert!((0.0..=1.0).contains(&r.prf.precision), "{m:?}");
            assert!((0.0..=1.0).contains(&r.prf.recall), "{m:?}");
            assert!(r.seconds >= 0.0);
        }
    }

    #[test]
    fn hydra_m_competitive_on_tiny_setting() {
        let p = prepare(tiny_setting());
        let hydra = run_method(&p, Method::HydraM);
        let mobius = run_method(&p, Method::Mobius);
        // HYDRA should not lose to the username-only baseline on F1.
        assert!(
            hydra.prf.f1 >= mobius.prf.f1 * 0.9,
            "HYDRA {:?} vs MOBIUS {:?}",
            hydra.prf,
            mobius.prf
        );
    }

    #[test]
    fn chinese_preset_builds_ten_pairs() {
        let mut s = Setting::new(DatasetConfig::chinese(30, 5));
        s.signal = SignalConfig {
            lda_iterations: 5,
            infer_iterations: 2,
            ..Default::default()
        };
        let p = prepare(s);
        assert_eq!(p.pairs.len(), 10); // C(5,2)
    }

    #[test]
    fn method_names_match_legends() {
        assert_eq!(Method::HydraM.name(), "HYDRA-M");
        assert_eq!(Method::AliasDisamb.name(), "Alias-Disamb");
        assert_eq!(Method::COMPARISON.len(), 5);
    }
}

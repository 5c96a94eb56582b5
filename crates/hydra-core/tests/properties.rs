//! Property-based tests over the HYDRA feature and learning pipeline: the
//! invariants here must hold for *any* generated world, not just the unit
//! tests' fixtures.

use hydra_core::candidates::{generate_candidates, CandidateConfig};
use hydra_core::features::{AttributeImportance, FeatureConfig, FeatureExtractor, FEATURE_DIM};
use hydra_core::signals::{DaySeries, SignalConfig, Signals};
use hydra_core::structure::{build_structure_matrix, StructureConfig};
use hydra_datagen::{Dataset, DatasetConfig};
use proptest::prelude::*;

/// Shared fixture cache: signal extraction is the expensive step, so the
/// strategies below draw from a few pre-generated worlds.
fn world(seed: u64) -> (Dataset, Signals) {
    let dataset = Dataset::generate(DatasetConfig::english(40, seed));
    let signals = Signals::extract(
        &dataset,
        &SignalConfig {
            lda_iterations: 6,
            infer_iterations: 3,
            ..Default::default()
        },
    );
    (dataset, signals)
}

/// A world with the Fig. 15 missingness axes cranked, so sensor, face and
/// attribute dims really go missing and every unit of a row gets skipped in
/// some draw.
fn sparse_world(seed: u64) -> (Dataset, Signals) {
    let mut config = DatasetConfig::english(40, seed);
    for p in &mut config.platforms {
        p.missing_multiplier *= 1.5;
        p.image_prob *= 0.5;
        p.checkin_rate *= 0.08;
        p.media_rate *= 0.08;
    }
    let dataset = Dataset::generate(config);
    let signals = Signals::extract(
        &dataset,
        &SignalConfig {
            lda_iterations: 6,
            infer_iterations: 3,
            ..Default::default()
        },
    );
    (dataset, signals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn wanted_dims_equal_the_full_row_bit_for_bit(
        seed in 0u64..3,
        draws in proptest::collection::vec(
            (0usize..40, 0usize..40, proptest::collection::vec(0usize..FEATURE_DIM, 0..6)),
            16,
        ),
    ) {
        const UNTOUCHED: f64 = -7.75;
        let (dataset, signals) = sparse_world(seed);
        let fx = FeatureExtractor::new(
            FeatureConfig::default(),
            AttributeImportance::default(),
            dataset.config.window_days,
        );
        let caches = [0, 1].map(|p| fx.profile_cache(&signals.per_platform[p]));
        for (i, j, dims) in draws {
            let (a, b) = (signals.account(0, i), signals.account(1, j));
            let want = dims.iter().fold(0u64, |w, &k| w | 1 << k);
            for buckets in [Some((&caches[0].accounts[i], &caches[1].accounts[j])), None] {
                let mut full = [UNTOUCHED; FEATURE_DIM];
                let full_mask = fx.pair_features_into(a, b, buckets, u64::MAX, &mut full);
                let mut part = [UNTOUCHED; FEATURE_DIM];
                let part_mask = fx.pair_features_into(a, b, buckets, want, &mut part);
                for k in 0..FEATURE_DIM {
                    // Wanted, or sharing a unit with a wanted dim: scored.
                    let scored = want >> k & 1 == 1 || part[k].to_bits() != UNTOUCHED.to_bits();
                    if scored {
                        prop_assert_eq!(part[k].to_bits(), full[k].to_bits(), "dim {} value", k);
                        prop_assert_eq!(part_mask >> k & 1, full_mask >> k & 1, "dim {} mask", k);
                    } else {
                        prop_assert_eq!(part_mask >> k & 1, 0, "dim {} masked but unscored", k);
                    }
                }
            }
        }
    }

    #[test]
    fn pair_features_are_finite_bounded_and_symmetric_enough(
        seed in 0u64..3,
        i in 0usize..40,
        j in 0usize..40,
    ) {
        let (dataset, signals) = world(seed);
        let fx = FeatureExtractor::new(
            FeatureConfig::default(),
            AttributeImportance::default(),
            dataset.config.window_days,
        );
        let f = fx.pair_features(signals.account(0, i), signals.account(1, j));
        prop_assert_eq!(f.values.len(), FEATURE_DIM);
        for (k, (v, m)) in f.values.iter().zip(f.missing.iter()).enumerate() {
            prop_assert!(v.is_finite(), "dim {k} not finite");
            prop_assert!(*v >= 0.0, "dim {k} negative: {v}");
            prop_assert!(*v <= 8.0 + 1e-9, "dim {k} out of range: {v}");
            if *m {
                prop_assert_eq!(*v, 0.0);
            }
        }
    }

    #[test]
    fn attribute_importance_is_a_distribution(seed in 0u64..3, eps in 0.001f64..0.5) {
        let (_, signals) = world(seed);
        let pairs: Vec<_> = (0..30usize)
            .map(|i| {
                (
                    &signals.account(0, i).attrs,
                    &signals.account(1, (i * 7) % 40).attrs,
                    i % 3 == 0,
                )
            })
            .collect();
        let imp = AttributeImportance::learn(pairs, eps);
        let total: f64 = imp.weights.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(imp.weights.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn candidate_generation_is_deterministic_and_in_bounds(seed in 0u64..3) {
        let (dataset, signals) = world(seed);
        let c1 = generate_candidates(
            &signals.per_platform[0],
            &signals.per_platform[1],
            &CandidateConfig::default(),
        );
        let c2 = generate_candidates(
            &signals.per_platform[0],
            &signals.per_platform[1],
            &CandidateConfig::default(),
        );
        prop_assert_eq!(&c1, &c2);
        for c in &c1 {
            prop_assert!((c.left as usize) < dataset.num_persons());
            prop_assert!((c.right as usize) < dataset.num_persons());
            prop_assert!((0.0..=1.0).contains(&c.username_sim));
        }
    }

    #[test]
    fn structure_matrix_laplacian_is_psd_on_indicators(
        seed in 0u64..3,
        y_bits in proptest::collection::vec(any::<bool>(), 20),
    ) {
        // (D − M) must be PSD (Section 6.2); test the quadratic form on
        // arbitrary 0/1 indicator vectors.
        let (dataset, signals) = world(seed);
        let pairs: Vec<(u32, u32)> = (0..20u32).map(|i| (i, i)).collect();
        let sm = build_structure_matrix(
            &pairs,
            &signals.per_platform[0],
            &signals.per_platform[1],
            &dataset.platforms[0].graph,
            &dataset.platforms[1].graph,
            &StructureConfig::default(),
        );
        let y: Vec<f64> = y_bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let ly = sm.m.laplacian_matvec(&sm.degrees, &y).expect("dims");
        let quad: f64 = y.iter().zip(ly.iter()).map(|(a, b)| a * b).sum();
        prop_assert!(quad >= -1e-9, "Laplacian quadratic form negative: {quad}");
    }

    #[test]
    fn day_series_bucketing_conserves_mass(
        events in proptest::collection::vec((0u16..64, proptest::collection::vec(0.01f64..1.0, 4)), 1..15),
        scale in 1u16..33,
    ) {
        let series = DaySeries::from_events(events);
        let buckets = series.bucketed(scale);
        // Bucket indices strictly increasing; every distribution normalized.
        let mut last: Option<u16> = None;
        for (b, dist) in &buckets {
            if let Some(l) = last {
                prop_assert!(*b > l);
            }
            last = Some(*b);
            let s: f64 = dist.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
        // No more buckets than active days.
        prop_assert!(buckets.len() <= series.len());
    }
}

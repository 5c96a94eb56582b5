//! Observability parity: hydra-obs instrumentation must never change an
//! answer bit, and the health/sweep accounting the ISSUE adds must
//! actually accumulate.
//!
//! Pinned properties:
//!
//! * **(a)** predictions with metrics collection enabled are byte-identical
//!   to predictions with it disabled, across shard counts {1, 2, 4} ×
//!   `HYDRA_THREADS` {1, 4}, for both the single engine and the sharded
//!   engine (timings flow into the registry, never back into scoring);
//! * **(b)** the serving stages and fan-out sites actually record: a
//!   queried engine under an [`hydra_obs::install`] scope yields a
//!   snapshot holding the documented `serve.*` histograms;
//! * **(c)** engine-level [`HealthCounters`] accumulate degraded queries,
//!   per-shard failure counts, quarantine/recovery events — answering
//!   "how often is shard 3 failing" without scraping per-query outcomes —
//!   and mirror into `serve.*` obs counters when collection is on;
//! * **(d)** the stale-temp sweep on artifact load is counted and the
//!   swept paths are surfaced through
//!   [`hydra_core::artifact::swept_temp_paths`];
//! * **(e)** an Eq. 18 fill reports the friend pairs it evaluated and the
//!   dims it scored for them (`fill.friend_pairs`, `fill.friend_dims`).

use hydra_core::engine::LinkageEngine;
use hydra_core::features::{AttributeImportance, FeatureConfig, FeatureExtractor, FEATURE_DIM};
use hydra_core::missing::{FillStrategy, MissingFiller};
use hydra_core::model::{Hydra, HydraConfig, LinkagePrediction, PairTask, TrainedHydra};
use hydra_core::shard::ShardedEngine;
use hydra_core::signals::{SignalConfig, Signals};
use hydra_datagen::{Dataset, DatasetConfig};
use hydra_graph::SocialGraph;

fn config() -> SignalConfig {
    SignalConfig {
        lda_iterations: 8,
        infer_iterations: 3,
        ..Default::default()
    }
}

fn world(n: usize, seed: u64) -> (Dataset, Signals) {
    let dataset = Dataset::generate(DatasetConfig::english(n, seed));
    let signals = Signals::extract(&dataset, &config());
    (dataset, signals)
}

fn train(dataset: &Dataset, signals: &Signals) -> TrainedHydra {
    let n = dataset.num_persons() as u32;
    let mut labels = Vec::new();
    for i in 0..n / 4 {
        labels.push((i, i, true));
        labels.push((i, (i + n / 2) % n, false));
    }
    Hydra::new(HydraConfig::default())
        .fit(
            dataset,
            signals,
            vec![PairTask {
                left_platform: 0,
                right_platform: 1,
                labels,
                unlabeled_whitelist: None,
            }],
        )
        .expect("fit")
}

fn graphs(dataset: &Dataset) -> Vec<SocialGraph> {
    dataset.platforms.iter().map(|p| p.graph.clone()).collect()
}

fn assert_preds_bitwise(
    got: &[Vec<LinkagePrediction>],
    want: &[Vec<LinkagePrediction>],
    ctx: &str,
) {
    assert_eq!(got.len(), want.len(), "{ctx}: batch length");
    for (g_row, w_row) in got.iter().zip(want.iter()) {
        assert_eq!(g_row.len(), w_row.len(), "{ctx}: candidate count");
        for (g, w) in g_row.iter().zip(w_row.iter()) {
            assert_eq!((g.left, g.right), (w.left, w.right), "{ctx}: pair order");
            assert_eq!(
                g.score.to_bits(),
                w.score.to_bits(),
                "{ctx}: score drift on ({}, {})",
                g.left,
                g.right
            );
            assert_eq!(g.linked, w.linked, "{ctx}: decision");
        }
    }
}

/// (a) + (b): metrics on vs off changes no answer bit across shard counts ×
/// thread counts, and the stage/fan-out sites actually fill histograms.
#[test]
fn metrics_on_off_predictions_bitwise() {
    let (dataset, signals) = world(40, 0x0B5_CAFE);
    let trained = train(&dataset, &signals);
    let lefts: Vec<u32> = (0..dataset.num_persons() as u32).collect();

    // Baseline: whatever the ambient collection state is (off unless a
    // concurrently running metrics test holds the scope — either way the
    // answers must be the same bits, which is the property under test).
    let single =
        LinkageEngine::new(trained.model.clone(), &signals, graphs(&dataset)).expect("single");
    let want = single.query_batch(0, &lefts).expect("baseline batch");

    let scope = hydra_obs::install();
    let got_single = single.query_batch(0, &lefts).expect("obs single batch");
    assert_preds_bitwise(&got_single, &want, "single engine, obs on vs off");

    for shards in [1usize, 2, 4] {
        let sharded = ShardedEngine::new(trained.model.clone(), &signals, graphs(&dataset), shards)
            .expect("sharded");
        for threads in [1usize, 4] {
            hydra_par::set_thread_override(Some(threads));
            let got = sharded.query_batch(0, &lefts).expect("obs sharded batch");
            hydra_par::set_thread_override(None);
            assert_preds_bitwise(
                &got,
                &want,
                &format!("shards {shards} × threads {threads}, obs on vs off"),
            );
        }
    }

    // (b) The documented stage histograms recorded under the scope.
    let snap = hydra_obs::snapshot();
    for name in [
        "serve.query",
        "serve.stage.candidates",
        "serve.stage.features",
        "serve.stage.decision",
        "serve.shard.merge",
        "serve.shard.candidates.0",
    ] {
        let h = snap
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("histogram {name} missing from snapshot"));
        assert!(h.count > 0, "{name}: no samples recorded");
        assert!(h.max >= h.min, "{name}: degenerate bounds");
        assert!(
            h.percentile(0.50) <= h.percentile(0.99),
            "{name}: percentile order"
        );
    }
    assert!(
        !snap.to_json().is_empty() && !snap.to_prometheus().is_empty(),
        "expositions render"
    );
    drop(scope);
}

/// (c) Engine-level health accounting: degraded queries and per-shard
/// failure counts accumulate across queries, quarantine/recovery events
/// are counted, and the obs mirror carries the same story.
#[test]
fn health_counters_accumulate_and_mirror() {
    let (dataset, signals) = world(36, 0x0DE6_12AD);
    let trained = train(&dataset, &signals);
    let mut sharded =
        ShardedEngine::new(trained.model, &signals, graphs(&dataset), 4).expect("sharded");
    let lefts: Vec<u32> = (0..dataset.num_persons() as u32).collect();

    assert_eq!(sharded.health().degraded_queries(), 0);
    assert_eq!(sharded.health().quarantine_events(), 0);

    let scope = hydra_obs::install();
    sharded.quarantine(3);
    let outcomes = sharded
        .query_batch_outcome(0, &lefts)
        .expect("degraded batch");
    let degraded = outcomes.iter().filter(|o| !o.is_complete()).count() as u64;
    assert!(degraded > 0, "quarantined shard must degrade outcomes");

    // Every degraded outcome bumped the aggregate and named shard 3.
    assert_eq!(sharded.health().degraded_queries(), degraded);
    assert_eq!(sharded.health().shard_failure_count(3), degraded);
    assert_eq!(sharded.health().shard_failure_count(0), 0);
    assert_eq!(sharded.health().quarantine_events(), 1);

    let recovered = sharded.recover_quarantined().expect("recover");
    assert_eq!(recovered, vec![3]);
    assert_eq!(sharded.health().recovery_events(), 1);

    // Post-recovery queries are complete again and add no failures.
    let after = sharded.query_batch_outcome(0, &lefts).expect("recovered");
    assert!(after.iter().all(|o| o.is_complete()));
    assert_eq!(sharded.health().degraded_queries(), degraded);

    // The obs mirror: same counters under the `serve.` prefix.
    let snap = hydra_obs::snapshot();
    assert_eq!(snap.counters.get("serve.degraded_queries"), Some(&degraded));
    assert_eq!(snap.counters.get("serve.shard_failure.3"), Some(&degraded));
    assert!(snap.counters.get("serve.quarantine").copied() >= Some(1));
    assert_eq!(snap.counters.get("serve.recover"), Some(&1));
    drop(scope);
}

/// (d) Stale-temp sweep accounting: a leftover `.tmp` sibling from a
/// crashed save is deleted on load — and now counted and surfaced instead
/// of silently swallowed.
#[test]
fn stale_temp_sweep_is_counted_and_surfaced() {
    let (dataset, signals) = world(24, 0x57A1E);
    let trained = train(&dataset, &signals);
    let dir = std::env::temp_dir().join(format!("hydra-obs-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("model.hyml");
    trained.model.save(&path).expect("save");

    // Fake a crashed save: a stale temp sibling next to the artifact.
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    std::fs::write(&tmp, b"half-written garbage").expect("stale tmp");

    let scope = hydra_obs::install();
    let loaded = hydra_core::LinkageModel::load(&path).expect("load sweeps");
    assert_eq!(loaded.fingerprint(), trained.model.fingerprint());
    assert!(!tmp.exists(), "stale temp must be swept");

    let snap = hydra_obs::snapshot();
    assert!(
        snap.counters.get("artifact.sweep.stale_temp").copied() >= Some(1),
        "sweep must be counted"
    );
    assert!(
        snap.histograms.contains_key("artifact.load"),
        "load duration recorded"
    );
    drop(scope);
    assert!(
        hydra_core::artifact::swept_temp_paths().contains(&tmp),
        "swept path must be surfaced by the debug accessor"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// (e) Fill accounting: one `fill_matrix` call adds the friend pairs it
/// evaluated and the dims it scored for them.
#[test]
fn fill_counters_report_friend_pairs_and_dims() {
    let (dataset, signals) = world(30, 0xF111);
    let fx = FeatureExtractor::new(
        FeatureConfig::default(),
        AttributeImportance::default(),
        dataset.config.window_days,
    );
    let (left, right) = (&signals.per_platform[0], &signals.per_platform[1]);
    let pairs: Vec<(u32, u32)> = (0..dataset.num_persons() as u32).map(|i| (i, i)).collect();
    let mut feats = fx.features_for_pairs(&pairs, left, right, None);

    let scope = hydra_obs::install();
    let mut filler = MissingFiller::new(
        &fx,
        left,
        right,
        &dataset.platforms[0].graph,
        &dataset.platforms[1].graph,
    );
    filler.fill_matrix(&pairs, &mut feats, FillStrategy::CoreNetwork);
    let snap = hydra_obs::snapshot();
    drop(scope);

    // The other tests of this binary fill too while they train, possibly
    // under this scope: bounds, not equalities.
    let friend_pairs = snap.counters.get("fill.friend_pairs").copied().unwrap_or(0);
    let friend_dims = snap.counters.get("fill.friend_dims").copied().unwrap_or(0);
    assert!(filler.cache_size() > 0, "no friend pair evaluated");
    assert!(friend_pairs >= filler.cache_size() as u64);
    assert!(
        (friend_pairs..=friend_pairs * FEATURE_DIM as u64).contains(&friend_dims),
        "{friend_dims} dims for {friend_pairs} friend pairs"
    );
}

//! Sharded error-path suite (ISSUE 5): every failing mutation of a
//! [`ShardedEngine`] must be observationally a no-op — no partial mutation
//! of any shard, the shared snapshot, or the global gram statistics is
//! visible afterwards — and the lifecycle edge cases (double removal, slot
//! allocation after removal, same-epoch left-side inserts) behave exactly
//! like the single-engine path.

use hydra_core::engine::{EngineError, LinkageEngine};
use hydra_core::ingest::SignalExtractor;
use hydra_core::model::{Hydra, HydraConfig, LinkagePrediction, PairTask, TrainedHydra};
use hydra_core::shard::{merge_scored_candidates, ShardReplica, ShardedEngine};
use hydra_core::signals::{SignalConfig, Signals, UserSignals};
use hydra_core::source::AccountSource;
use hydra_datagen::{Dataset, DatasetConfig};
use hydra_graph::SocialGraph;

fn world(n: usize, seed: u64) -> (Dataset, Signals, SignalExtractor) {
    let dataset = Dataset::generate(DatasetConfig::english(n, seed));
    let (signals, extractor) = Signals::extract_with_extractor(
        &dataset,
        &SignalConfig {
            lda_iterations: 8,
            infer_iterations: 3,
            ..Default::default()
        },
    );
    (dataset, signals, extractor)
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

fn assert_preds_bitwise(got: &[LinkagePrediction], want: &[LinkagePrediction], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: candidate count");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!((g.left, g.right), (w.left, w.right), "{ctx}: pair order");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{ctx}: score drift");
        assert_eq!(g.linked, w.linked, "{ctx}: decision");
    }
}

/// Full observable state of the engine: answers for every still-active
/// left account plus the population counters and the snapshot epoch.
fn observe(
    engine: &ShardedEngine,
    lefts: &[u32],
) -> (Vec<Vec<LinkagePrediction>>, usize, usize, u64) {
    let answers = lefts
        .iter()
        .map(|&l| engine.query(0, l).expect("query"))
        .collect();
    (
        answers,
        engine.num_accounts(1),
        engine.active_accounts(1),
        engine.snapshot().epoch(),
    )
}

fn assert_unchanged(
    engine: &ShardedEngine,
    lefts: &[u32],
    before: &(Vec<Vec<LinkagePrediction>>, usize, usize, u64),
    ctx: &str,
) {
    let after = observe(engine, lefts);
    assert_eq!(after.1, before.1, "{ctx}: slot count moved");
    assert_eq!(after.2, before.2, "{ctx}: active count moved");
    assert_eq!(after.3, before.3, "{ctx}: epoch moved");
    for (left, (got, want)) in after.0.iter().zip(before.0.iter()).enumerate() {
        assert_preds_bitwise(got, want, &format!("{ctx}, left {left}"));
    }
}

#[test]
fn zero_shard_engine_is_rejected_with_a_typed_error() {
    // Regression guard for the public construction contract: a zero-shard
    // engine has no owner for any account, so `new` must refuse it with
    // the dedicated variant (not a panic, not a division by zero in the
    // routing hash) and leave nothing half-built.
    let (dataset, signals, _) = world(24, 0x05EED);
    let trained = train(&dataset, &signals);
    let err = match ShardedEngine::new(trained.model.clone(), &signals, graphs(&dataset), 0) {
        Ok(_) => panic!("zero shards must be rejected"),
        Err(e) => e,
    };
    assert!(matches!(err, EngineError::InvalidShardCount));
    assert!(
        err.to_string().contains("shard"),
        "diagnostic should mention shards: {err}"
    );
    // The same inputs with a valid shard count still construct fine.
    ShardedEngine::new(trained.model, &signals, graphs(&dataset), 2).expect("two shards");
}

#[test]
fn double_remove_is_observationally_a_noop() {
    let (dataset, signals, _) = world(36, 0xD0B1E);
    let trained = train(&dataset, &signals);
    let mut engine =
        ShardedEngine::new(trained.model.clone(), &signals, graphs(&dataset), 3).expect("sharded");
    let lefts: Vec<u32> = (0..dataset.num_persons() as u32).collect();

    engine.remove_account(1, 5).expect("first removal");
    let before = observe(&engine, &lefts);
    assert!(matches!(
        engine.remove_account(1, 5),
        Err(EngineError::AccountRemoved {
            platform: 1,
            account: 5
        })
    ));
    assert_unchanged(&engine, &lefts, &before, "double removal");
}

#[test]
fn insert_after_remove_never_reuses_the_slot() {
    let (dataset, signals, extractor) = world(36, 0x1D5EED);
    let trained = train(&dataset, &signals);
    let mut sharded =
        ShardedEngine::new(trained.model.clone(), &signals, graphs(&dataset), 2).expect("sharded");
    let mut single =
        LinkageEngine::new(trained.model.clone(), &signals, graphs(&dataset)).expect("single");

    let removed = 4u32;
    sharded.remove_account(1, removed).expect("sharded remove");
    single.remove_account(1, removed).expect("single remove");

    let total = sharded.num_accounts(1) as u32;
    let sig = extractor.extract_account(AccountSource::account(&dataset, 1, 0), total);
    let idx = sharded.insert_account(1, sig.clone()).expect("insert");
    // The departed account's slot is never recycled: ids stay stable.
    assert_eq!(idx, total, "insert must take the next fresh slot");
    assert_ne!(idx, removed);
    assert_eq!(sharded.num_accounts(1) as u32, total + 1);
    // Still byte-identical to a single engine given the same history.
    assert_eq!(single.insert_account(1, sig).expect("single insert"), idx);
    for left in 0..dataset.num_persons() as u32 {
        let want = single.query(0, left).expect("single");
        let got = sharded.query(0, left).expect("sharded");
        assert_preds_bitwise(&got, &want, &format!("id reuse, left {left}"));
        assert!(got.iter().all(|p| p.right != removed), "ghost candidate");
    }
}

#[test]
fn remove_on_out_of_range_platform_or_account_mutates_nothing() {
    let (dataset, signals, _) = world(30, 0x00B5);
    let trained = train(&dataset, &signals);
    let mut engine =
        ShardedEngine::new(trained.model.clone(), &signals, graphs(&dataset), 3).expect("sharded");
    let lefts: Vec<u32> = (0..dataset.num_persons() as u32).collect();
    let before = observe(&engine, &lefts);

    assert!(matches!(
        engine.remove_account(7, 0),
        Err(EngineError::PlatformOutOfRange {
            platform: 7,
            num_platforms: 2
        })
    ));
    assert!(matches!(
        engine.remove_account(1, 40_000),
        Err(EngineError::AccountOutOfRange {
            platform: 1,
            account: 40_000
        })
    ));
    assert_unchanged(&engine, &lefts, &before, "out-of-range removal");
}

#[test]
fn failing_batch_insert_is_observationally_a_noop() {
    // The batch analogue of the single-insert atomicity contract: a
    // k-account batch that fails validation on account j — whatever j —
    // registers NO prefix of the batch anywhere: no shard, no snapshot
    // epoch, no gram statistics.
    let (dataset, signals, extractor) = world(30, 0x8A7C2);
    let trained = train(&dataset, &signals);
    let mut engine =
        ShardedEngine::new(trained.model.clone(), &signals, graphs(&dataset), 3).expect("sharded");
    let lefts: Vec<u32> = (0..dataset.num_persons() as u32).collect();
    let before = observe(&engine, &lefts);
    let total = engine.num_accounts(1) as u32;
    let sigs: Vec<_> = (0..3u32)
        .map(|j| extractor.extract_account(AccountSource::account(&dataset, 1, j), total + j))
        .collect();

    // Last account references its own (not-yet-published) slot: neighbors
    // must precede the referencing batch member, so this is out of range.
    let bad_neighbor = vec![
        (sigs[0].clone(), vec![(0u32, 1.0f64)]),
        (sigs[1].clone(), vec![]),
        (sigs[2].clone(), vec![(total + 2, 1.0)]),
    ];
    assert!(matches!(
        engine.insert_batch_with_edges(1, bad_neighbor),
        Err(EngineError::EdgeNeighborOutOfRange { platform: 1, neighbor }) if neighbor == total + 2
    ));
    assert_unchanged(&engine, &lefts, &before, "bad neighbor on account 2 of 3");

    // Non-positive weight mid-batch.
    let bad_weight = vec![
        (sigs[0].clone(), vec![]),
        (sigs[1].clone(), vec![(1u32, 0.0f64)]),
        (sigs[2].clone(), vec![]),
    ];
    assert!(matches!(
        engine.insert_batch_with_edges(1, bad_weight),
        Err(EngineError::EdgeWeightNotPositive {
            platform: 1,
            neighbor: 1
        })
    ));
    assert_unchanged(&engine, &lefts, &before, "bad weight on account 1 of 3");

    // Out-of-range platform fails before touching anything.
    assert!(matches!(
        engine.insert_batch_with_edges(9, vec![(sigs[0].clone(), vec![])]),
        Err(EngineError::PlatformOutOfRange {
            platform: 9,
            num_platforms: 2
        })
    ));
    assert_unchanged(&engine, &lefts, &before, "out-of-range platform");

    // An empty batch is a no-op at the current epoch — no epoch bump.
    assert!(engine
        .insert_batch_with_edges(1, Vec::new())
        .expect("empty batch")
        .is_empty());
    assert_unchanged(&engine, &lefts, &before, "empty batch");

    // The engine is not wedged: the same accounts with valid deltas
    // (including an intra-batch edge) land under one epoch.
    let good = vec![
        (sigs[0].clone(), vec![(0u32, 1.0f64)]),
        (sigs[1].clone(), vec![(total, 2.0)]),
        (sigs[2].clone(), vec![]),
    ];
    let ids = engine.insert_batch_with_edges(1, good).expect("good batch");
    assert_eq!(ids, vec![total, total + 1, total + 2]);
    assert_eq!(engine.num_accounts(1) as u32, total + 3);
    assert_eq!(
        engine.snapshot().epoch(),
        before.3 + 1,
        "exactly one epoch for the whole batch"
    );
}

#[test]
fn left_account_inserted_this_epoch_is_queryable() {
    let (dataset, signals, extractor) = world(40, 0x1EF7);
    let trained = train(&dataset, &signals);
    let keep = dataset.num_accounts(0) - 1;
    let held = extractor.extract_account(
        AccountSource::account(&dataset, 0, keep as u32),
        keep as u32,
    );
    // Truncate the LEFT platform this time: the held-out account arrives
    // as a serve-time insert and must be queryable in the same epoch.
    let mut truncated = signals.clone();
    truncated.per_platform[0].truncate(keep);

    let single =
        LinkageEngine::new(trained.model.clone(), &signals, graphs(&dataset)).expect("single");
    for shards in [1usize, 3] {
        let mut sharded =
            ShardedEngine::new(trained.model.clone(), &truncated, graphs(&dataset), shards)
                .expect("sharded");
        // Before the insert, the account does not exist on the left side.
        assert!(matches!(
            sharded.query(0, keep as u32),
            Err(EngineError::AccountOutOfRange { .. })
        ));
        let idx = sharded
            .insert_account(0, held.clone())
            .expect("left insert");
        assert_eq!(idx as usize, keep);
        // Queryable immediately, byte-identical to the full single engine
        // (the graph snapshot already covers the slot, so no delta needed).
        let got = sharded.query(0, idx).expect("query inserted left");
        let want = single.query(0, idx).expect("single query");
        assert_preds_bitwise(&got, &want, &format!("{shards} shards, fresh left"));
        // And nothing about the rest of the population shifted.
        for left in 0..keep as u32 {
            let got = sharded.query(0, left).expect("query");
            let want = single.query(0, left).expect("single");
            assert_preds_bitwise(&got, &want, &format!("{shards} shards, left {left}"));
        }
    }
}

/// One mutation of the error-path script below, applied verbatim to both
/// deployments of the partition.
enum Op<'a> {
    Remove(usize, u32),
    Insert(usize, &'a UserSignals),
    Batch(usize, Vec<(UserSignals, Vec<(u32, f64)>)>),
}

#[test]
fn replicas_fail_and_answer_exactly_like_the_sharded_engine() {
    // The failing-mutation cases above (out-of-range / double removal,
    // failing and empty batches, insert after remove), run against N
    // stand-alone `ShardReplica`s fed the same ops as one `ShardedEngine`:
    // every op must return the same value — the same `EngineError` when it
    // fails — on every replica, and after every op the replicas' counters,
    // epoch, and merged answers must equal the engine's.
    let (dataset, signals, extractor) = world(30, 0x8A7C2);
    let trained = train(&dataset, &signals);
    let lefts: Vec<u32> = (0..dataset.num_persons() as u32).collect();
    let total = dataset.num_accounts(1) as u32;
    let sigs: Vec<_> = (0..4u32)
        .map(|j| extractor.extract_account(AccountSource::account(&dataset, 1, j), total + j))
        .collect();
    let script = [
        ("remove", Op::Remove(1, 5)),
        ("double remove", Op::Remove(1, 5)),
        ("remove a left account", Op::Remove(0, 7)),
        ("remove: platform out of range", Op::Remove(7, 0)),
        ("remove: account out of range", Op::Remove(1, 40_000)),
        (
            "batch: neighbor is the member's own slot",
            Op::Batch(
                1,
                vec![
                    (sigs[0].clone(), vec![(0, 1.0)]),
                    (sigs[1].clone(), vec![]),
                    (sigs[2].clone(), vec![(total + 2, 1.0)]),
                ],
            ),
        ),
        (
            "batch: non-positive weight",
            Op::Batch(
                1,
                vec![(sigs[0].clone(), vec![]), (sigs[1].clone(), vec![(1, 0.0)])],
            ),
        ),
        (
            "batch: platform out of range",
            Op::Batch(9, vec![(sigs[0].clone(), vec![])]),
        ),
        ("empty batch", Op::Batch(1, Vec::new())),
        ("insert after remove", Op::Insert(1, &sigs[3])),
        (
            "good batch",
            Op::Batch(
                1,
                vec![
                    (sigs[0].clone(), vec![(0, 1.0)]),
                    (sigs[1].clone(), vec![(total + 1, 2.0)]),
                    (sigs[2].clone(), vec![]),
                ],
            ),
        ),
    ];

    for n in [1usize, 2, 3] {
        let mut engine = ShardedEngine::new(trained.model.clone(), &signals, graphs(&dataset), n)
            .expect("sharded");
        let mut replicas: Vec<ShardReplica> = (0..n)
            .map(|s| {
                ShardReplica::new(trained.model.clone(), &signals, graphs(&dataset), s, n)
                    .expect("replica")
            })
            .collect();
        for (what, op) in &script {
            let ctx = format!("{n} shards, {what}");
            let want: Result<Vec<u32>, EngineError> = match op {
                Op::Remove(p, a) => engine.remove_account(*p, *a).map(|()| Vec::new()),
                Op::Insert(p, sig) => engine.insert_account(*p, (*sig).clone()).map(|i| vec![i]),
                Op::Batch(p, batch) => engine.insert_batch_with_edges(*p, batch.clone()),
            };
            for r in replicas.iter_mut() {
                let got = match op {
                    Op::Remove(p, a) => r.remove_account(*p, *a).map(|()| Vec::new()),
                    Op::Insert(p, sig) => r
                        .insert_account_with_edges(*p, (*sig).clone(), &[])
                        .map(|i| vec![i]),
                    Op::Batch(p, batch) => r.insert_batch_with_edges(*p, batch.clone()),
                };
                assert_eq!(got, want, "{ctx}: replica {} result", r.shard());
                assert_eq!(
                    (r.num_accounts(1), r.active_accounts(1), r.epoch()),
                    (
                        engine.num_accounts(1),
                        engine.active_accounts(1),
                        engine.snapshot().epoch()
                    ),
                    "{ctx}: replica {} counters",
                    r.shard()
                );
            }
            for &left in &lefts {
                let want = engine.query(0, left);
                let got = replicas
                    .iter()
                    .map(|r| r.query_partition(0, left))
                    .collect::<Result<Vec<_>, _>>()
                    .map(|parts| {
                        merge_scored_candidates(
                            parts.into_iter().flatten(),
                            trained.model.candidates.max_per_user,
                        )
                    });
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_preds_bitwise(&got, &want, &format!("{ctx}, left {left}"))
                    }
                    (got, want) => assert_eq!(got.err(), want.err(), "{ctx}, left {left}"),
                }
            }
        }
        // The script ended where the hand-written cases do: one removal on
        // each side, one single insert, one three-account batch.
        assert_eq!(
            engine.num_accounts(1) as u32,
            total + 4,
            "{n} shards: slots"
        );
        assert_eq!(engine.snapshot().epoch(), 2, "{n} shards: epochs");
    }
}

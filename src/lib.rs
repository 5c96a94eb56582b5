//! # HYDRA — Large-scale Social Identity Linkage via Heterogeneous Behavior Modeling
//!
//! A from-scratch Rust reproduction of Liu, Wang, Zhu, Zhang & Krishnan,
//! *HYDRA: Large-scale social identity linkage via heterogeneous behavior
//! modeling*, SIGMOD 2014 (DOI 10.1145/2588555.2588559).
//!
//! This umbrella crate re-exports the full stack:
//!
//! * [`core`] — the HYDRA model itself: heterogeneous behavior features
//!   (Section 5), structure-consistency graphs (Section 6.2), and the
//!   multi-objective kernel learner (Section 6.3);
//! * [`datagen`] — the synthetic multi-platform corpus standing in for the
//!   paper's proprietary 10M-user dataset;
//! * [`baselines`] — MOBIUS, Alias-Disamb, SMaSh, and SVM-B;
//! * [`eval`] — metrics, labeling, and the experiment runner;
//! * [`net`] — cross-process distributed serving: shard-per-process
//!   scatter-gather over a versioned wire protocol (see the topology
//!   section below);
//! * [`obs`] — dependency-free metrics and stage tracing: counters,
//!   gauges, log2 latency histograms, and RAII spans across serve,
//!   ingest, and the fleet; off by default (one relaxed atomic load per
//!   site), never changes an answer bit (`docs/observability.md`);
//! * substrates: [`linalg`], [`text`], [`graph`], [`temporal`], [`vision`].
//!
//! ## Train / serve split
//!
//! Since the serving-layer redesign the public API separates **training**
//! from **serving**:
//!
//! * [`core::source::AccountSource`] abstracts the data source — the
//!   synthetic [`datagen::Dataset`] is one impl; real ingest layers plug in
//!   by implementing the same accessors. [`core::signals::Signals::extract_from`]
//!   and [`core::model::Hydra::fit`] are generic over it.
//! * Training distills into a persistable [`core::LinkageModel`]
//!   (`trained.model`): `save`/`load` with a versioned binary format whose
//!   floats round-trip bit-exactly.
//! * [`core::engine::LinkageEngine`] serves per-account `query` /
//!   `query_batch` calls against a loaded model — candidate generation,
//!   feature assembly, Eq. 18 filling, and kernel decision per query, with
//!   scores byte-identical to batch `predict`, and incremental
//!   `insert_account` / `remove_account` for populations that change after
//!   training.
//!
//! ## Online ingest (extractor artifact, graph refresh, sharded serving)
//!
//! The ingest subsystem closes the loop for accounts that arrive *after*
//! training:
//!
//! * [`core::ingest::SignalExtractor`] — the frozen extraction artifact
//!   (trained LDA model, sentiment lexicon, vocabulary snapshot, username
//!   LM, config): `extract_account` / `extract_raw` fold one raw payload
//!   into the trained signal space, bit-identical to corpus extraction.
//!   Get it from [`core::signals::Signals::extract_with_extractor`];
//!   persist it alone (`HYSX`) or with the model as a
//!   [`core::ingest::ServingArtifact`] bundle that cold-starts a whole
//!   serving process.
//! * **Graph refresh** — `insert_account_with_edges` merges a new
//!   account's interactions into the platform's Eq. 18 snapshot
//!   incrementally ([`graph::SocialGraph::add_node`] /
//!   [`graph::SocialGraph::add_edges`]), so ingested accounts participate
//!   in core-network missing-value filling exactly as if present at
//!   construction.
//! * **Batched ingest** — [`core::ingest::FoldInMode::Tables`] swaps the
//!   per-account Gibbs fold-in for a deterministic precomputed-table EM
//!   kernel (seed-free: same θ at any thread/shard count), while
//!   [`core::ingest::FoldInMode::Reference`] keeps the sampler pinned
//!   bit-identical to corpus extraction.
//!   [`core::ingest::SignalExtractor::extract_batch`] folds whole waves of
//!   raw accounts over `hydra-par`, and
//!   `ShardedEngine::insert_batch_with_edges` registers k accounts under
//!   **one** atomically-published snapshot epoch (all-or-nothing, identical
//!   post-state to k sequential inserts); `ingest_accounts_per_s` on the
//!   benchmark's `ingest_backfill` workload is this path's throughput.
//! * [`core::shard::ShardedEngine`] — partitions the candidate population
//!   over N per-shard blocking indexes (hash-by-account routing, global
//!   stop-gram statistics, deterministic rank merges) that all read **one**
//!   `Arc`-shared [`core::snapshot::ProfileSnapshot`] — profiles cost 1×
//!   memory at any shard count, and ingest publishes copy-on-insert
//!   epochs atomically across the partition — fanning `query` /
//!   `query_batch` out over `hydra-par` workers, byte-identical to the
//!   single-engine path at every shard × thread count.
//!
//! ## Failure semantics
//!
//! The serving layer fails atomically, loudly, and recoverably — pinned by
//! a deterministic fault-injection harness (the dep-free `hydra-fault`
//! crate, inert in production: one relaxed atomic load per injection
//! point):
//!
//! * **Crash-safe artifacts** — every `save` (model, extractor, bundle)
//!   writes a temp sibling, `sync_all`s, then atomically renames; `load`
//!   sweeps stale temps. A crash at any point of a save leaves the
//!   previous artifact loadable, and malformed bytes fail with typed
//!   [`core::ModelIoError`] diagnostics (byte offset, section, expected vs
//!   found) at every truncation prefix — never a panic.
//! * **Atomic ingest** — a fault anywhere inside an insert leaves the
//!   engine byte-identical to one that never saw the call;
//!   [`core::shard::RetryPolicy`] adds bounded deterministic retry for
//!   transient failures.
//! * **Degraded serving** — `ShardedEngine::query_outcome` isolates each
//!   shard task behind `catch_unwind`: one panicking shard yields a
//!   degraded [`core::shard::QueryOutcome`] naming the failed shard, the
//!   shard is quarantined, and `recover_quarantined` rebuilds it from the
//!   shared snapshot — post-recovery answers bitwise match a never-faulted
//!   engine.
//! * **Straddle-safe hot swap** — `ShardedEngine::swap_artifact` replaces
//!   the serving model only when config fingerprints match and rolls back
//!   on any mid-swap fault; every query is answered entirely by the old
//!   artifact or entirely by the new one.
//!
//! ## Process-sharded serving topology ([`net`])
//!
//! The [`net`] crate takes the same partition `ShardedEngine` runs on
//! threads and runs it on **N OS processes** — the paper's multi-server
//! deployment shape, scaled down to sockets on one box:
//!
//! ```text
//!                    ┌──────────────────────┐
//!        client ───▶ │  DistributedEngine   │   (coordinator: partitions
//!                    │  scatter … gather    │    by account % N, merges
//!                    └──┬───────┬────────┬──┘    with the SAME code as
//!           unix/tcp    │       │        │       the in-process engine)
//!            sockets ┌──▼──┐ ┌──▼──┐  ┌──▼──┐
//!                    │shard│ │shard│  │shard│    hydra-shardd processes,
//!                    │  0  │ │  1  │  │ N-1 │    each cold-started from
//!                    └─────┘ └─────┘  └─────┘    serving.hysa + pop.hypp
//! ```
//!
//! Every process cold-starts from the same two artifacts (the
//! `ServingArtifact` bundle plus a `net::PopulationArtifact` of profiles
//! and graphs), handshakes on model fingerprint + partition coordinates,
//! and answers pre-scored shard contributions that the coordinator merges
//! deterministically — process-sharded answers are **bitwise identical**
//! to thread-sharded and single-engine answers at every shard count.
//! Mutations are sequence-idempotent (lost acks replay; reconnects replay
//! the op log), a dead process degrades queries exactly like an
//! in-process quarantined shard, and a restarted one converges bitwise.
//! See `crates/hydra-net` and `docs/distributed_serving.md` for the
//! quickstart.
//!
//! **Migrating from the pre-serving API:** `Hydra::fit(&dataset, …)` still
//! compiles (a `Dataset` is an `AccountSource`), but the learned state
//! moved into the artifact — `trained.solution` → `trained.model.solution`,
//! `trained.importance` → `trained.model.importance`, and
//! `trained.expansion_size` / `num_labeled` became methods. Batch
//! `trained.predict(t)` is unchanged (and now returns an empty list instead
//! of panicking on an out-of-range task; `try_predict` reports the error).
//!
//! ## Quickstart (train → save → load → query → ingest)
//!
//! ```
//! use hydra::datagen::{Dataset, DatasetConfig};
//! use hydra::core::signals::{SignalConfig, Signals};
//! use hydra::core::model::{Hydra, HydraConfig, PairTask};
//! use hydra::core::engine::LinkageEngine;
//! use hydra::core::ingest::{RawAccount, ServingArtifact};
//! use hydra::core::shard::ShardedEngine;
//! use hydra::core::source::AccountSource;
//! use hydra::core::LinkageModel;
//!
//! // A small two-platform world (Twitter + Facebook personas of the same
//! // 40 natural persons). Extraction also hands back the FROZEN extractor
//! // (trained LDA + lexicon + vocabulary) for later online ingest.
//! let dataset = Dataset::generate(DatasetConfig::english(40, 7));
//! let (signals, extractor) = Signals::extract_with_extractor(&dataset, &SignalConfig {
//!     lda_iterations: 8,
//!     infer_iterations: 3,
//!     ..Default::default()
//! });
//!
//! // Ground-truth labels for a handful of pairs (positives + negatives).
//! let mut labels = vec![];
//! for i in 0..10u32 {
//!     labels.push((i, i, true));
//!     labels.push((i, (i + 17) % 40, false));
//! }
//! let task = PairTask {
//!     left_platform: 0,
//!     right_platform: 1,
//!     labels,
//!     unlabeled_whitelist: None,
//! };
//!
//! // Train once; the learned state is a self-contained artifact.
//! let trained = Hydra::new(HydraConfig::default())
//!     .fit(&dataset, &signals, vec![task])
//!     .expect("training succeeds");
//!
//! // Persist and reload it (bit-exact round trip)…
//! let model = LinkageModel::from_bytes(&trained.model.to_bytes()).unwrap();
//!
//! // …then serve per-account queries without refitting.
//! let engine = LinkageEngine::new(
//!     model,
//!     &signals,
//!     dataset.platforms.iter().map(|p| p.graph.clone()).collect(),
//! )
//! .expect("engine");
//! let ranked = engine.query(0, 3).expect("query");
//! let batch = trained.predict(0);
//! assert!(!batch.is_empty());
//! // Serve-time scores are byte-identical to batch prediction.
//! for p in &ranked {
//!     assert!(batch.iter().any(|b| (b.left, b.right, b.score.to_bits())
//!         == (p.left, p.right, p.score.to_bits())));
//! }
//!
//! // ONLINE INGEST: bundle model + extractor into one artifact, cold-start
//! // a sharded engine from its bytes, fold a raw account into the trained
//! // signal space, insert it (graph refresh included), and resolve it —
//! // sharded results stay byte-identical to the single-engine path.
//! let bundle = ServingArtifact { model: trained.model.clone(), extractor };
//! let loaded = ServingArtifact::from_bytes(&bundle.to_bytes()).unwrap();
//! let graphs: Vec<_> = dataset.platforms.iter().map(|p| p.graph.clone()).collect();
//! let mut sharded = ShardedEngine::new(loaded.model.clone(), &signals, graphs, 2)
//!     .expect("sharded engine");
//! for p in &sharded.query(0, 3).expect("sharded query") {
//!     assert!(ranked.iter().any(|r| (r.left, r.right, r.score.to_bits())
//!         == (p.left, p.right, p.score.to_bits())));
//! }
//! let raw = RawAccount::from_view(AccountSource::account(&dataset, 1, 5));
//! let next_slot = sharded.num_accounts(1) as u32;
//! let sig = loaded.extractor.extract_raw(&raw, next_slot);
//! let idx = sharded
//!     .insert_account_with_edges(1, sig, &[(5, 2.0)])
//!     .expect("ingest");
//! assert_eq!(idx, next_slot);
//! sharded.query(0, 3).expect("query after ingest");
//!
//! // BULK BACKFILL: Tables-mode extract_batch + one-epoch-per-batch insert.
//! use hydra::core::ingest::FoldInMode;
//! let bulk = loaded.extractor.with_fold_in_mode(FoldInMode::Tables);
//! let wave: Vec<RawAccount> = (0..8u32)
//!     .map(|i| RawAccount::from_view(AccountSource::account(&dataset, 1, i)))
//!     .collect();
//! let epoch0 = sharded.snapshot().epoch();
//! let start = sharded.num_accounts(1) as u32;
//! let sigs = bulk.extract_batch(&wave, start);
//! let ids = sharded
//!     .insert_batch_with_edges(1, sigs.into_iter().map(|s| (s, vec![])).collect())
//!     .expect("backfill batch");
//! assert_eq!(ids.len(), 8);
//! // One snapshot epoch for the whole batch, not one per account.
//! assert_eq!(sharded.snapshot().epoch(), epoch0 + 1);
//! ```

pub use hydra_baselines as baselines;
pub use hydra_core as core;
pub use hydra_datagen as datagen;
pub use hydra_eval as eval;
pub use hydra_graph as graph;
pub use hydra_linalg as linalg;
pub use hydra_net as net;
pub use hydra_obs as obs;
pub use hydra_temporal as temporal;
pub use hydra_text as text;
pub use hydra_vision as vision;

/// Crate version (mirrors the workspace version).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

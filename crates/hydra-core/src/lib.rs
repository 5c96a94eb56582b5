//! HYDRA: large-scale social identity linkage via heterogeneous behavior
//! modeling — the core model of Liu, Wang, Zhu, Zhang & Krishnan
//! (SIGMOD 2014).
//!
//! The crate implements the paper's three-step framework (Figure 3):
//!
//! 1. **Heterogeneous behavior modeling** (Section 5) — [`signals`]
//!    preprocesses every account into long-term behavior signals (LDA topic
//!    series, genre and sentiment series, unique-word style profiles, a
//!    behavior embedding) and [`features`] assembles the multi-dimensional
//!    pair-similarity vector `x_ii'`: importance-weighted attribute matches
//!    (Eq. 3), face-match confidence (Figure 4), multi-scale distribution
//!    similarities (Figure 5), style similarity (Eq. 4), and
//!    multi-resolution sensor features (Eq. 5 / Figure 6).
//! 2. **Structure consistency modeling** (Section 6.2) — [`structure`]
//!    builds the sparse consistency matrix **M** over candidate pairs
//!    (Eq. 9) whose principal eigenvector identifies the agreement cluster
//!    of true links (Figure 7).
//! 3. **Multi-objective model learning** (Section 6.3) — [`moo`] casts the
//!    joint problem into the dual (Eqs. 12–17), solving a linear system plus
//!    a box-constrained QP by SMO, with missing features filled from the
//!    core social network (Eq. 18, [`missing`]).
//!
//! [`model`] wires everything into the user-facing [`Hydra`] estimator;
//! [`candidates`] implements the rule-based pre-matching of Section 3.
//!
//! ## Train / serve split
//!
//! The crate's public API separates **training** from **serving**:
//!
//! * [`source`] — the [`AccountSource`] abstraction extraction and fitting
//!   consume (the synthetic `Dataset` is one impl; real ingest layers plug
//!   in by implementing it);
//! * [`Hydra::fit`] produces a [`TrainedHydra`](model::TrainedHydra) whose
//!   learned state is a self-contained, **persistable** [`artifact`]
//!   ([`LinkageModel`]: `save`/`load`, versioned binary format, bit-exact
//!   round trip);
//! * [`engine`] — [`LinkageEngine`] wraps a `LinkageModel` plus incremental
//!   per-platform blocking indexes and profile caches, and answers
//!   per-account `query` / `query_batch` calls (candidate generation →
//!   features → Eq. 18 filling → kernel decision) with scores byte-identical
//!   to batch prediction, including for accounts inserted after training.
//!
//! ## Online ingest
//!
//! The [`ingest`] and [`shard`] modules turn the serving layer into a
//! system that ingests and serves a *growing* population:
//!
//! * [`ingest::SignalExtractor`] — the frozen extraction artifact (trained
//!   LDA, sentiment lexicon, vocabulary, username LM, config) folding one
//!   raw payload into the trained signal space, bit-identical to corpus
//!   extraction; persists standalone (`HYSX`) or bundled with the model as
//!   an [`ingest::ServingArtifact`];
//! * `LinkageEngine::insert_account_with_edges` — incremental Eq. 18 graph
//!   refresh, so ingested accounts join core-network missing-value filling;
//! * [`snapshot::ProfileSnapshot`] — the epoch-based, `Arc`-shared
//!   immutable profile store (signals + bucket caches + Eq. 18 graphs)
//!   every serving engine reads through; ingest publishes successor
//!   epochs via copy-on-insert (frozen base column + append-only tail +
//!   graph delta merge), so N shards cost 1× profile memory;
//! * [`shard::ShardedEngine`] — candidacy partitioned over N per-shard
//!   blocking indexes with hash-by-account routing, global stop-gram
//!   statistics, and deterministic merges over the one shared snapshot;
//!   byte-identical to the single-engine path at every shard × thread
//!   count (`tests/ingest_parity.rs`), with inserts atomic across the
//!   partition.
//!
//! ## Failure semantics
//!
//! The serving layer is built to fail **atomically, loudly, and
//! recoverably** — pinned by a deterministic fault-injection harness
//! (the dep-free `hydra-fault` crate) that replays seeded fault plans at
//! named injection points through artifact IO, ingest, and the sharded
//! fan-out:
//!
//! * **Crash-safe artifacts** — every `save` ([`LinkageModel`],
//!   [`ingest::SignalExtractor`], [`ingest::ServingArtifact`]) writes a
//!   temp sibling, `sync_all`s, then atomically renames over the target;
//!   `load` sweeps stale temps. A crash at *any* point of a save leaves
//!   the previous artifact loadable (`tests/artifact_faults.rs` kills the
//!   write at every injected point and proves it). Malformed bytes fail
//!   with [`ModelIoError`] diagnostics carrying byte offset, section name,
//!   and expected-vs-found magic/version — never a panic, at every
//!   truncation prefix.
//! * **Atomic ingest** — a fault anywhere inside
//!   `insert_account_with_edges` (validation, publication, index insert)
//!   leaves the engine byte-identical to one that never saw the call;
//!   [`shard::RetryPolicy`] adds bounded deterministic retry/backoff for
//!   transient faults ([`EngineError::Transient`]).
//! * **Panic-isolated degraded serving** —
//!   [`ShardedEngine::query_outcome`](shard::ShardedEngine::query_outcome)
//!   runs every shard task under `catch_unwind`: one panicking shard
//!   yields a degraded [`shard::QueryOutcome`] naming the failed shard,
//!   the shard is quarantined, and
//!   [`recover_quarantined`](shard::ShardedEngine::recover_quarantined)
//!   rebuilds it deterministically from the shared [`ProfileSnapshot`] —
//!   post-recovery answers are bitwise identical to a never-faulted
//!   engine (`tests/fault_sweeps.rs`).
//! * **Straddle-safe hot swap** —
//!   [`swap_artifact`](shard::ShardedEngine::swap_artifact) replaces the
//!   serving model only when config fingerprints match, rolls back all
//!   shards on any mid-swap fault, and (taking `&mut self` against
//!   `&self` queries) guarantees every query is answered entirely by the
//!   old artifact or entirely by the new one.
//!
//! ## Scaling out across processes
//!
//! Fit-time scale-out (Section 6.3) is the matrix-free Eq. 15 solve plus
//! `hydra-par`; serve-time scale-out is the separate `hydra-net` crate,
//! which promotes [`shard::ShardedEngine`]'s partitions to one OS process
//! each (`hydra-shardd`, cold-started from a [`ingest::ServingArtifact`]
//! plus a population artifact) behind a length-prefixed wire protocol,
//! with a coordinator that scatter-gathers to the same bits as the
//! in-process engine.

// Serving-path modules must not abort on recoverable conditions: a stray
// `unwrap`/`expect` outside tests is a CI failure (clippy gate), not a
// style nit — panics here tear down a serving shard.
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod artifact;
pub mod candidates;
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod engine;
pub mod features;
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod ingest;
pub mod missing;
pub mod model;
pub mod moo;
pub mod routing;
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod shard;
pub mod signals;
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod snapshot;
pub mod source;
pub mod structure;

pub use artifact::{LinkageModel, ModelIoError, TaskSpec};
pub use candidates::{generate_candidates, BlockingIndex, CandidateConfig, CandidatePair};
pub use engine::{EngineError, LinkageEngine};
pub use features::{AttributeImportance, FeatureConfig, PairFeatures};
pub use ingest::{RawAccount, ServingArtifact, SignalExtractor};
pub use missing::FillStrategy;
pub use model::{Hydra, HydraConfig, LinkagePrediction, TaskIndexError};
pub use shard::{
    candidate_merge_cmp, merge_scored_candidates, merge_shard_candidates, prediction_rank_cmp,
    HealthCounters, QueryOutcome, RetryPolicy, ScoredCandidate, ShardFailure, ShardReplica,
    ShardedEngine,
};
pub use signals::{ProfileCache, SignalConfig, Signals, UserSignals};
pub use snapshot::{PlatformProfiles, ProfileSnapshot};
pub use source::{AccountSource, AccountView};

/// A (left-account, right-account) pair across one platform pair. Accounts
/// are platform-local indices.
pub type PairIdx = (u32, u32);

//! The serving layer: [`LinkageEngine`] answers per-account linkage
//! queries against a trained [`LinkageModel`] — the online
//! search-and-resolve deployment of Section 3 / Figure 3 ("which account
//! on platform B is this platform-A user?") without refitting.
//!
//! The engine splits its per-platform state along the deployment seam:
//!
//! * **Shared, immutable profiles** — an [`Arc`]-handled
//!   [`ProfileSnapshot`] holding every platform's extracted
//!   [`UserSignals`], pre-bucketed profile caches, and the social-graph
//!   snapshot Eq. 18 filling consults. One snapshot backs any number of
//!   engines: every shard of a [`crate::shard::ShardedEngine`] reads the
//!   same store, and [`LinkageEngine::insert_account_with_edges`]
//!   publishes successor epochs via copy-on-insert (see the [`crate::snapshot`]
//!   module docs).
//! * **Private candidacy state** — an incremental [`BlockingIndex`] per
//!   platform (interned-gram + attribute blocking of Section 3, plus the
//!   active-set bookkeeping), which grows with
//!   [`LinkageEngine::insert_account`]; [`LinkageEngine::remove_account`]
//!   de-lists departed accounts from candidacy and querying.
//!
//! [`LinkageEngine::query`] runs the full per-pair pipeline — candidate
//! generation, feature assembly, missing-info filling, kernel decision —
//! for one left account; [`LinkageEngine::query_batch`] fans a batch out
//! across worker threads (`hydra-par`, order-preserving). Both produce
//! decision values **byte-identical** to batch
//! [`TrainedHydra::predict`](crate::model::TrainedHydra::predict) for the
//! same candidate pairs at any thread count (`tests/serve_parity.rs` pins
//! this), because every stage reuses the exact batch-path code.

use crate::artifact::{LinkageModel, TaskSpec};
use crate::candidates::{
    gram_keys, score_left_account, BlockingIndex, CandidatePair, GramLimits, LeftProbe,
};
use crate::features::FeatureExtractor;
use crate::missing::MissingFiller;
use crate::model::LinkagePrediction;
use crate::signals::{Signals, UserSignals};
use crate::snapshot::ProfileSnapshot;
use hydra_graph::SocialGraph;
use hydra_vision::{FaceClassifier, FaceDetector};
use std::ops::Range;
use std::sync::Arc;

/// Errors from serving-layer queries and index mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Task index outside the model's fitted tasks.
    TaskOutOfRange {
        /// The offending index.
        task: usize,
        /// Number of fitted tasks.
        num_tasks: usize,
    },
    /// Platform index outside the engine's stores.
    PlatformOutOfRange {
        /// The offending index.
        platform: usize,
        /// Number of platforms.
        num_platforms: usize,
    },
    /// Account index outside a platform's population.
    AccountOutOfRange {
        /// Platform the lookup targeted.
        platform: usize,
        /// The offending account index.
        account: u32,
    },
    /// The account was removed from the engine.
    AccountRemoved {
        /// Platform the lookup targeted.
        platform: usize,
        /// The removed account index.
        account: u32,
    },
    /// The signals' observation window disagrees with the model's.
    WindowMismatch {
        /// Window the model was trained over.
        model: u32,
        /// Window of the supplied signals.
        signals: u32,
    },
    /// The engine was built with fewer platforms than a task references.
    MissingPlatform {
        /// Platform a task spec references.
        platform: u32,
        /// Number of platforms supplied.
        num_platforms: usize,
    },
    /// Signals and graphs disagree on the number of platforms.
    PlatformCountMismatch {
        /// Platforms in the supplied signals.
        signals: usize,
        /// Graphs supplied.
        graphs: usize,
    },
    /// An ingest edge delta referenced a node outside the platform graph.
    EdgeNeighborOutOfRange {
        /// Platform the insert targeted.
        platform: usize,
        /// The offending neighbor id.
        neighbor: u32,
    },
    /// An ingest edge delta carried a non-positive interaction weight.
    EdgeWeightNotPositive {
        /// Platform the insert targeted.
        platform: usize,
        /// The offending neighbor id.
        neighbor: u32,
    },
    /// A sharded engine needs at least one shard.
    InvalidShardCount,
    /// A transient (retryable) failure — in production a flaky downstream
    /// dependency, in tests an injected [`hydra_fault`] fault. The operation
    /// left no partial state behind and may simply be retried (see
    /// [`crate::shard::RetryPolicy`]).
    Transient {
        /// The injection/failure site that reported the fault.
        site: &'static str,
    },
    /// A hot-swap offered an artifact whose config fingerprint disagrees
    /// with the serving engine's — the replacement was refused outright.
    ArtifactFingerprintMismatch {
        /// Fingerprint the serving engine requires.
        expected: u64,
        /// Fingerprint of the offered artifact.
        found: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::TaskOutOfRange { task, num_tasks } => {
                write!(f, "task index {task} out of range ({num_tasks} tasks)")
            }
            EngineError::PlatformOutOfRange {
                platform,
                num_platforms,
            } => write!(
                f,
                "platform {platform} out of range ({num_platforms} platforms)"
            ),
            EngineError::AccountOutOfRange { platform, account } => {
                write!(f, "account {account} out of range on platform {platform}")
            }
            EngineError::AccountRemoved { platform, account } => {
                write!(f, "account {account} on platform {platform} was removed")
            }
            EngineError::WindowMismatch { model, signals } => write!(
                f,
                "signals window ({signals} days) disagrees with the model's ({model} days)"
            ),
            EngineError::MissingPlatform {
                platform,
                num_platforms,
            } => write!(
                f,
                "model task references platform {platform} but only {num_platforms} supplied"
            ),
            EngineError::PlatformCountMismatch { signals, graphs } => write!(
                f,
                "signals cover {signals} platforms but {graphs} graphs were supplied"
            ),
            EngineError::EdgeNeighborOutOfRange { platform, neighbor } => write!(
                f,
                "edge neighbor {neighbor} outside platform {platform}'s graph"
            ),
            EngineError::EdgeWeightNotPositive { platform, neighbor } => write!(
                f,
                "edge to neighbor {neighbor} on platform {platform} has non-positive weight"
            ),
            EngineError::InvalidShardCount => {
                write!(f, "a sharded engine needs at least one shard")
            }
            EngineError::Transient { site } => {
                write!(
                    f,
                    "transient failure at {site} (retryable; no state changed)"
                )
            }
            EngineError::ArtifactFingerprintMismatch { expected, found } => write!(
                f,
                "artifact config fingerprint {found:#018x} does not match the \
                 serving engine's {expected:#018x}; swap refused"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Consult the installed [`hydra_fault::FaultPlan`] (if any) at `site`: a
/// scheduled [`FaultKind::Panic`](hydra_fault::FaultKind::Panic) panics
/// (exercising the catch-unwind isolation paths), any other scheduled kind
/// surfaces as a retryable [`EngineError::Transient`]. With no plan
/// installed this is one relaxed atomic load.
pub(crate) fn inject_point(site: &'static str) -> Result<(), EngineError> {
    if hydra_fault::enabled() {
        match hydra_fault::fire(site) {
            Some(hydra_fault::FaultKind::Panic) => panic!("injected panic at {site}"),
            Some(_) => return Err(EngineError::Transient { site }),
            None => {}
        }
    }
    Ok(())
}

/// Serves per-account linkage queries against a trained model.
pub struct LinkageEngine {
    model: LinkageModel,
    extractor: FeatureExtractor,
    detector: FaceDetector,
    classifier: FaceClassifier,
    /// The shared, immutable profile store (signals + bucket caches +
    /// Eq. 18 graphs) at the engine's current epoch.
    snapshot: Arc<ProfileSnapshot>,
    /// Per-platform private candidacy state: blocking postings + the
    /// active set. The only part of the engine that is per-shard when the
    /// population is partitioned.
    indexes: Vec<BlockingIndex>,
}

impl LinkageEngine {
    /// Build an engine from a model, the platforms' extracted signals, and
    /// their social-graph snapshots (`graphs[p]` covers
    /// `signals.per_platform[p]`; accounts inserted later fall outside the
    /// snapshot and simply have no core network for Eq. 18).
    pub fn new(
        model: LinkageModel,
        signals: &Signals,
        graphs: Vec<SocialGraph>,
    ) -> Result<Self, EngineError> {
        let extractor = model.extractor();
        let snapshot = Arc::new(ProfileSnapshot::build(&extractor, signals, graphs)?);
        Self::with_shared_snapshot(model, snapshot, |_, _| true)
    }

    /// Build an engine over an **existing** profile snapshot handle, with a
    /// candidacy predicate: accounts for which `owned(platform, account)`
    /// is false are registered *de-listed* — full profile membership
    /// through the shared snapshot (Eq. 18 still sees them) but no
    /// blocking-index postings, exactly the state
    /// [`LinkageEngine::remove_account`] would leave them in. This is how a
    /// [`crate::shard::ShardedEngine`] hands one snapshot to every shard:
    /// the shard pays only for its partition's postings, never for a
    /// profile replica.
    pub(crate) fn with_shared_snapshot(
        model: LinkageModel,
        snapshot: Arc<ProfileSnapshot>,
        owned: impl Fn(usize, u32) -> bool,
    ) -> Result<Self, EngineError> {
        if snapshot.window_days() != model.window_days {
            return Err(EngineError::WindowMismatch {
                model: model.window_days,
                signals: snapshot.window_days(),
            });
        }
        let num_platforms = snapshot.num_platforms();
        for spec in &model.tasks {
            for p in [spec.left_platform, spec.right_platform] {
                if p as usize >= num_platforms {
                    return Err(EngineError::MissingPlatform {
                        platform: p,
                        num_platforms,
                    });
                }
            }
        }
        let extractor = model.extractor();
        let indexes = (0..num_platforms)
            .map(|p| {
                let profiles = snapshot.platform(p);
                let mut index = BlockingIndex::build(&[]);
                for a in 0..profiles.len() as u32 {
                    let sig = profiles.signal(a);
                    if owned(p, a) {
                        index.insert_account(sig);
                    } else {
                        index.insert_account_inactive(sig);
                    }
                }
                index
            })
            .collect();
        Ok(LinkageEngine {
            extractor,
            detector: FaceDetector::default(),
            classifier: FaceClassifier::default(),
            model,
            snapshot,
            indexes,
        })
    }

    /// The engine's current profile-snapshot epoch handle. Engines sharing
    /// a population (the shards of a [`crate::shard::ShardedEngine`]) hold
    /// pointer-equal handles — profiles cost 1× memory however many
    /// engines read them.
    pub fn snapshot(&self) -> &Arc<ProfileSnapshot> {
        &self.snapshot
    }

    /// Approximate heap size of the engine's **private** state (the
    /// per-platform blocking indexes) — what an additional shard actually
    /// costs, as opposed to the shared [`LinkageEngine::snapshot`] store.
    pub fn index_heap_bytes(&self) -> usize {
        self.indexes.iter().map(BlockingIndex::heap_bytes).sum()
    }

    /// Adopt an already-published snapshot epoch that appended the accounts
    /// at `slots` on `platform`, registering each in this engine's private
    /// index — active where `active(idx)` holds (the owning-shard
    /// predicate), de-listed elsewhere. Infallible by construction: every
    /// insert path validates once, publishes once, then walks each engine
    /// holding the population through this without a failure point.
    pub(crate) fn adopt_epoch_batch(
        &mut self,
        snapshot: Arc<ProfileSnapshot>,
        platform: usize,
        slots: Range<u32>,
        active: impl Fn(u32) -> bool,
    ) {
        debug_assert_eq!(
            self.indexes[platform].len(),
            slots.start as usize,
            "batch epoch adoption base drift"
        );
        debug_assert_eq!(
            snapshot.platform(platform).len(),
            slots.end as usize,
            "batch epoch adoption must append exactly the batch"
        );
        self.snapshot = snapshot;
        for idx in slots {
            let sig = self.snapshot.platform(platform).signal(idx);
            let got = if active(idx) {
                self.indexes[platform].insert_account(sig)
            } else {
                self.indexes[platform].insert_account_inactive(sig)
            };
            debug_assert_eq!(got, idx, "snapshot/index slot drift");
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &LinkageModel {
        &self.model
    }

    /// Replace the decision model in place, keeping the snapshot handle and
    /// the private candidacy indexes. Only valid when the new model's
    /// config fingerprint equals the old one's (same candidate / feature /
    /// fill / window configuration), so the existing blocking postings stay
    /// correct — [`crate::shard::ShardedEngine::swap_artifact`] gates on
    /// exactly that before walking shards through this.
    pub(crate) fn swap_model(&mut self, model: LinkageModel) {
        self.extractor = model.extractor();
        self.model = model;
    }

    /// Number of platform-pair tasks the engine serves.
    pub fn num_tasks(&self) -> usize {
        self.model.tasks.len()
    }

    /// Number of account slots on a platform (including removed accounts).
    pub fn num_accounts(&self, platform: usize) -> usize {
        self.indexes.get(platform).map_or(0, BlockingIndex::len)
    }

    /// Register a new account on `platform` under the next free index
    /// (returned), with no social interactions —
    /// [`LinkageEngine::insert_account_with_edges`] with an empty delta.
    pub fn insert_account(
        &mut self,
        platform: usize,
        sig: UserSignals,
    ) -> Result<u32, EngineError> {
        self.insert_account_with_edges(platform, sig, &[])
    }

    /// Register a new account on `platform` under the next free index
    /// (returned), refreshing the platform's Eq. 18 graph snapshot with the
    /// account's interactions: `edges` are `(existing_account, weight)`
    /// records merged incrementally into the social graph
    /// ([`SocialGraph::add_node`] / [`SocialGraph::add_edges`]).
    ///
    /// The blocking index, profile cache, and graph are all extended
    /// incrementally — subsequent queries (including Eq. 18 core-network
    /// filling, on both sides of any pair the account or its friends appear
    /// in) see the account exactly as if it had been present at engine
    /// construction with those edges. An empty delta inserts an isolated
    /// node: the account participates in blocking and scoring but has no
    /// core network, so Eq. 18 falls back to zero filling for it.
    ///
    /// A single insert **is** a batch of one — same validation, same
    /// all-or-nothing contract, one epoch — through
    /// [`LinkageEngine::insert_batch`]'s path; only the `hydra-fault`
    /// publication site differs (`snapshot.publish`).
    pub fn insert_account_with_edges(
        &mut self,
        platform: usize,
        sig: UserSignals,
        edges: &[(u32, f64)],
    ) -> Result<u32, EngineError> {
        let batch = vec![(sig, edges.to_vec())];
        Ok(self
            .publish_and_adopt(platform, batch, "snapshot.publish")?
            .start)
    }

    /// Register a whole batch of accounts — each with its own Eq. 18 edge
    /// delta — under **one** published snapshot epoch. Account `j` of the
    /// batch lands at index `base + j` (the returned vec, in batch order),
    /// and its edges may reference any earlier account, batch members
    /// included, so the post-state is bitwise-identical to calling
    /// [`LinkageEngine::insert_account_with_edges`] k times — except that
    /// the epoch counter advances once, not k times: the copy-on-insert
    /// spine clone and the graph-delta merges are amortized across the
    /// batch (`tests/batch_parity.rs` pins both halves of that contract).
    ///
    /// **All-or-nothing**: every account is validated and the successor
    /// epoch published before the candidacy index is touched, so a bad
    /// edge on account `j` leaves the engine — snapshot, index, epoch —
    /// byte-for-byte as it was, with no prefix of the batch registered. An
    /// empty batch is a no-op at the current epoch. On the single-engine
    /// path the snapshot handle is unique and publication mutates in
    /// place; a shared handle (sharded serving) takes the copy-on-insert
    /// path — see [`crate::snapshot::ProfileSnapshot`].
    pub fn insert_batch(
        &mut self,
        platform: usize,
        batch: Vec<(UserSignals, Vec<(u32, f64)>)>,
    ) -> Result<Vec<u32>, EngineError> {
        Ok(self
            .publish_and_adopt(platform, batch, "snapshot.publish_batch")?
            .collect())
    }

    /// The one insert path: publish `batch` as one epoch (publication gate
    /// `site`), then register every new slot active in the index.
    fn publish_and_adopt(
        &mut self,
        platform: usize,
        batch: Vec<(UserSignals, Vec<(u32, f64)>)>,
        site: &'static str,
    ) -> Result<Range<u32>, EngineError> {
        let slots =
            ProfileSnapshot::publish_insert_batch(&mut self.snapshot, platform, batch, site)?;
        // The profiles were moved into the snapshot; adoption reads them
        // back for the index postings instead of cloning them.
        self.adopt_epoch_batch(self.snapshot.clone(), platform, slots.clone(), |_| true);
        Ok(slots)
    }

    /// De-list an account: it stops appearing as a candidate (right side)
    /// and can no longer be queried (left side). Other accounts keep their
    /// indices.
    ///
    /// Like the social graph, the account's historical profile stays part
    /// of the Eq. 18 core-network **snapshot** — a removed friend keeps
    /// contributing its training-time behavior to missing-feature filling
    /// until the engine is rebuilt, so every still-listed pair's decision
    /// values are unchanged by the removal (blanking the profile instead
    /// would silently shift neighbors' filled features).
    pub fn remove_account(&mut self, platform: usize, account: u32) -> Result<(), EngineError> {
        let num_platforms = self.indexes.len();
        let index = self
            .indexes
            .get_mut(platform)
            .ok_or(EngineError::PlatformOutOfRange {
                platform,
                num_platforms,
            })?;
        if (account as usize) >= index.len() {
            return Err(EngineError::AccountOutOfRange { platform, account });
        }
        if !index.remove_account(account) {
            return Err(EngineError::AccountRemoved { platform, account });
        }
        Ok(())
    }

    pub(crate) fn task_spec(&self, task: usize) -> Result<TaskSpec, EngineError> {
        self.model
            .tasks
            .get(task)
            .copied()
            .ok_or(EngineError::TaskOutOfRange {
                task,
                num_tasks: self.model.tasks.len(),
            })
    }

    fn check_left(&self, spec: TaskSpec, left_account: u32) -> Result<(), EngineError> {
        let platform = spec.left_platform as usize;
        let index = &self.indexes[platform];
        if (left_account as usize) >= index.len() {
            return Err(EngineError::AccountOutOfRange {
                platform,
                account: left_account,
            });
        }
        if !index.is_active(left_account) {
            return Err(EngineError::AccountRemoved {
                platform,
                account: left_account,
            });
        }
        Ok(())
    }

    /// Resolve one left account: candidate generation, feature assembly,
    /// Eq. 18 filling, and kernel decision, returning predictions ranked by
    /// decision score (descending; ties by right account index). Scores are
    /// byte-identical to batch `TrainedHydra::predict` for the same pairs.
    pub fn query(
        &self,
        task: usize,
        left_account: u32,
    ) -> Result<Vec<LinkagePrediction>, EngineError> {
        let spec = self.task_spec(task)?;
        self.check_left(spec, left_account)?;
        Ok(self.resolve(spec, left_account))
    }

    /// [`LinkageEngine::query`] for a batch of left accounts, fanned out
    /// over worker threads with an order-preserving merge — results are
    /// identical at any `HYDRA_THREADS`. The whole batch is validated
    /// before any work starts.
    pub fn query_batch(
        &self,
        task: usize,
        left_accounts: &[u32],
    ) -> Result<Vec<Vec<LinkagePrediction>>, EngineError> {
        let spec = self.task_spec(task)?;
        for &a in left_accounts {
            self.check_left(spec, a)?;
        }
        Ok(hydra_par::par_map(left_accounts, |_, &a| {
            self.resolve(spec, a)
        }))
    }

    /// The per-query pipeline (inputs already validated). Stage spans feed
    /// the `serve.query` / `serve.stage.candidates` histograms when
    /// `hydra-obs` collection is on; timings never flow back into answers.
    fn resolve(&self, spec: TaskSpec, left_account: u32) -> Vec<LinkagePrediction> {
        let _query = hydra_obs::span("serve.query");
        let cands = {
            let _stage = hydra_obs::span("serve.stage.candidates");
            self.candidates_for(spec, left_account, None)
        };
        self.score_candidates(spec, &cands)
    }

    /// Candidate generation for one left account against this engine's
    /// right-side index (the shared batch-path core). `limits` carries the
    /// population-wide gram statistics when this engine is one shard of a
    /// [`crate::shard::ShardedEngine`]; `None` means the index *is* the
    /// whole population.
    pub(crate) fn candidates_for(
        &self,
        spec: TaskSpec,
        left_account: u32,
        limits: Option<&GramLimits<'_>>,
    ) -> Vec<CandidatePair> {
        let left = self.snapshot.platform(spec.left_platform as usize);
        let right = self.snapshot.platform(spec.right_platform as usize);
        let sig = left.signal(left_account);

        // The left platform's index already holds the account's decoded and
        // sorted username scalars; only the gram set is recomputed per
        // query.
        let left_index = &self.indexes[spec.left_platform as usize];
        let mut grams = Vec::with_capacity(16);
        gram_keys(&sig.username, &mut grams);
        let (chars, sorted_chars) = left_index.probe_chars(left_account);
        let probe = LeftProbe {
            grams: &grams,
            chars,
            sorted_chars,
        };
        score_left_account(
            left_account,
            sig,
            &probe,
            &self.indexes[spec.right_platform as usize],
            right,
            &self.model.candidates,
            &self.detector,
            &self.classifier,
            limits,
        )
    }

    /// Feature assembly, Eq. 18 filling, and kernel decision for an
    /// already-generated candidate list, ranked by decision score
    /// (descending; ties by right account index). Per-pair scores depend
    /// only on the pair and the platform stores — never on which other
    /// candidates ride along — which is what lets a sharded engine score a
    /// globally-merged candidate list and stay byte-identical to the
    /// single-engine path.
    pub(crate) fn score_candidates(
        &self,
        spec: TaskSpec,
        cands: &[CandidatePair],
    ) -> Vec<LinkagePrediction> {
        let left = self.snapshot.platform(spec.left_platform as usize);
        let right = self.snapshot.platform(spec.right_platform as usize);
        if cands.is_empty() {
            return Vec::new();
        }

        // --- feature assembly + Eq. 18 filling -----------------------------
        // Both stages read straight through the shared snapshot handle; the
        // batch fan-out happens across queries, not within one.
        let pairs: Vec<crate::PairIdx> = cands.iter().map(|c| (c.left, c.right)).collect();
        let mut feats = {
            let _stage = hydra_obs::span("serve.stage.features");
            self.extractor
                .features_for_profile_pairs(&pairs, left, right)
        };
        {
            let _stage = hydra_obs::span("serve.stage.fill");
            let mut filler = MissingFiller::over_profiles(&self.extractor, left, right);
            filler.fill_matrix(&pairs, &mut feats, self.model.fill);
        }

        // --- kernel decision + ranking -------------------------------------
        let _stage = hydra_obs::span("serve.stage.decision");
        let mut preds: Vec<LinkagePrediction> = (0..feats.len())
            .map(|r| {
                let score = self.model.solution.decision(feats.row(r));
                LinkagePrediction {
                    left: cands[r].left,
                    right: cands[r].right,
                    score,
                    linked: score > 0.0,
                }
            })
            .collect();
        preds.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.right.cmp(&b.right)));
        preds
    }
}

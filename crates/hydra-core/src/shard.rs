//! Partitioned serving: **one partition core, held-shard subset**.
//!
//! The paper's deployment regime (10M-user testbed, Sections 6.3 / 7.5) and
//! the "search-and-resolve" pattern both assume a query fans out over a
//! partitioned population. HYDRA's decision function is per-pair, so
//! *where* a pair is scored cannot change an answer — which lets every
//! deployment shape run the same state machine:
//!
//! * the private `Partition` core owns the [`ProfileSnapshot`] handle,
//!   the population-wide statistics, the engines of the shards this
//!   process **holds**, and the only implementation of build, insert,
//!   remove, left-side validation, partition scan, and shard rebuild;
//! * [`ShardedEngine`] is that core holding **all N** shards, plus what
//!   only an in-process fan-out needs: poison flags, [`HealthCounters`],
//!   the `hydra-par` scatter, deterministic merge, and artifact hot-swap;
//! * [`ShardReplica`] is the same core holding **one** shard — the state a
//!   shard *process* owns behind `hydra-net`'s wire protocol.
//!
//! N replicas fed the same mutation sequence therefore hold states whose
//! contributions merge ([`merge_scored_candidates`]) into answers
//! bitwise-identical to the in-process engine, which is itself
//! byte-identical to the single-engine path at every shard count ×
//! `HYDRA_THREADS` (`tests/ingest_parity.rs`, `tests/sharded_errors.rs`,
//! `hydra-net`'s `process_parity.rs`) — by construction, not by parallel
//! re-implementation.
//!
//! ## How the partition works
//!
//! * **Routing** — account `a` is owned by shard
//!   [`routing::owner`]`(a, N) = a mod N`; the mapping lives in the
//!   shared, test-pinned [`crate::routing`] module so the core, the net
//!   coordinator, and the population slicer can never drift.
//! * **Partitioned candidacy, one profile snapshot** — a shard privately
//!   owns only its partition's blocking postings and active-set
//!   bookkeeping; the per-platform profile store is a single immutable
//!   [`ProfileSnapshot`] every held shard reads by reference-counted
//!   handle, because Eq. 18 core-network filling reaches into arbitrary
//!   friends' profiles on both sides of a pair. An in-process engine pays
//!   for profiles and statistics **once per engine** (1× memory plus
//!   O(index) per shard); a replica pays once per process — the
//!   deliberate cost of leaving the one-box memory ceiling behind.
//!   Accounts owned elsewhere are registered de-listed: exactly
//!   `remove_account` semantics — profiles keep contributing to Eq. 18,
//!   candidacy ends.
//! * **Atomic ingest, epoch by epoch** — a single insert is a batch of
//!   one. The core validates the whole batch, publishes ONE successor
//!   epoch (copy-on-insert), walks every held shard through an infallible
//!   adopt step, and updates the global statistics last. A failing insert
//!   touches nothing — no shard, no stats — so a partition can never
//!   diverge from the single-engine path. The two `hydra-fault` sites an
//!   insert crosses are named by the public entry point
//!   (`sharded.insert` / `sharded.insert_batch` / `replica.insert` /
//!   `replica.insert_batch`, then `snapshot.publish` /
//!   `snapshot.publish_batch`), so in-process sweeps cannot cross-fire
//!   into thread-local server replicas.
//! * **Global bookkeeping everywhere** — every core tracks every account's
//!   username, gram counts, and removal, whichever shards it holds:
//!   each probe hands the shard index the global [`GramLimits`] (a shard
//!   suppresses exactly the stop-grams one full index would), and
//!   left-side validation and removal errors are decided against the
//!   global population, identically on every holder. Only the blocking
//!   index of the owning shard is touched by a removal.
//! * **Deterministic merge** — per-shard candidates are merged, re-ranked
//!   by the engine's exact ordering (username similarity descending, right
//!   index ascending — a total order), and truncated to the global
//!   `max_per_user` cap; per-pair scores never depend on which other
//!   candidates ride along, and predictions come back ranked by (score
//!   descending, right ascending). Every step is order-preserving, so
//!   results are identical at any worker count.

use crate::artifact::{LinkageModel, TaskSpec};
use crate::candidates::{gram_keys, CandidatePair, GramLimits};
use crate::engine::{inject_point, EngineError, LinkageEngine};
use crate::model::LinkagePrediction;
use crate::routing;
use crate::signals::{Signals, UserSignals};
use crate::snapshot::ProfileSnapshot;
use hydra_graph::SocialGraph;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Population-wide bookkeeping for one platform: the global gram statistics
/// shard probes use for stop-gram suppression, plus the slot-aligned
/// usernames needed to retire a removed account's gram counts.
struct PlatformStats {
    /// Active posting count per gram across all shards.
    gram_counts: HashMap<u64, u32>,
    /// Active (non-removed) accounts across all shards.
    active_count: usize,
    /// Slots ever allocated (including removed accounts).
    total: usize,
    /// Username per slot (removal must decrement exactly the grams the
    /// account was counted under).
    usernames: Vec<String>,
    /// Accounts de-listed so far — what left-side validation consults, and
    /// the replay log a shard rebuild needs to restore its partition's
    /// active set exactly.
    removed: BTreeSet<u32>,
}

impl PlatformStats {
    fn count_grams(&mut self, username: &str, delta: i32) {
        let mut grams = Vec::with_capacity(16);
        gram_keys(username, &mut grams);
        for g in grams {
            if delta > 0 {
                *self.gram_counts.entry(g).or_insert(0) += delta as u32;
            } else if let Some(c) = self.gram_counts.get_mut(&g) {
                *c = c.saturating_sub((-delta) as u32);
                if *c == 0 {
                    self.gram_counts.remove(&g);
                }
            }
        }
    }
}

/// How one shard failed during a degraded query (see
/// [`ShardedEngine::query_outcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFailure {
    /// The shard's candidate task panicked during *this* query; the shard
    /// has been quarantined for subsequent queries.
    Panicked {
        /// The failed shard.
        shard: usize,
        /// The panic message (deterministic for a fixed
        /// [`hydra_fault::FaultPlan`]).
        message: String,
    },
    /// The shard was already quarantined (by an earlier panic or an
    /// explicit [`ShardedEngine::quarantine`]) and was skipped.
    Quarantined {
        /// The skipped shard.
        shard: usize,
    },
}

impl ShardFailure {
    /// The shard this failure concerns.
    pub fn shard(&self) -> usize {
        match *self {
            ShardFailure::Panicked { shard, .. } | ShardFailure::Quarantined { shard } => shard,
        }
    }
}

/// The result of a panic-isolated sharded query: the predictions that could
/// be computed, plus an explicit per-shard failure report. An empty
/// `degraded` list means the result is complete — bitwise identical to
/// [`ShardedEngine::query`]. A non-empty list means the failed shards'
/// partitions contributed no candidates (their accounts are missing from
/// the ranking), which for a fixed population and fault plan is itself
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Ranked predictions from the shards that answered.
    pub predictions: Vec<LinkagePrediction>,
    /// Per-shard failures, ordered by shard index; empty when complete.
    pub degraded: Vec<ShardFailure>,
}

impl QueryOutcome {
    /// Whether every shard answered (the result equals the strict path's).
    pub fn is_complete(&self) -> bool {
        self.degraded.is_empty()
    }

    /// The shards that did not answer, in ascending order.
    pub fn failed_shards(&self) -> Vec<usize> {
        self.degraded.iter().map(ShardFailure::shard).collect()
    }
}

/// The deterministic order sharded serving merges per-shard candidates in:
/// the engine's exact ranking — username similarity descending, ties by
/// right index ascending. Per-shard account sets are disjoint, so `right`
/// breaks every tie and the order is total. Public so the process-sharded
/// coordinator (`hydra-net`) merges with literally the same code as the
/// thread-sharded engine.
pub fn candidate_merge_cmp(a: &CandidatePair, b: &CandidatePair) -> std::cmp::Ordering {
    b.username_sim
        .total_cmp(&a.username_sim)
        .then(a.right.cmp(&b.right))
}

/// Merge per-shard candidate lists into the global ranking: sort by
/// [`candidate_merge_cmp`], truncate to the model's per-user cap. Every
/// sharded serving path — threads in-process, processes over sockets —
/// funnels through this one function, which makes "process-sharded ==
/// thread-sharded == single, bitwise" a code-sharing fact rather than a
/// re-implementation promise.
pub fn merge_shard_candidates(
    per_shard: impl IntoIterator<Item = CandidatePair>,
    max_per_user: usize,
) -> Vec<CandidatePair> {
    let mut merged: Vec<CandidatePair> = per_shard.into_iter().collect();
    merged.sort_by(candidate_merge_cmp);
    merged.truncate(max_per_user);
    merged
}

/// The rank order predictions come back in — score descending, ties by
/// right index ascending ([`LinkageEngine`]'s exact result sort), exposed
/// for coordinators that merge pre-scored shard answers.
pub fn prediction_rank_cmp(a: &LinkagePrediction, b: &LinkagePrediction) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(a.right.cmp(&b.right))
}

/// One scored candidate as a shard contributes it to a scatter-gather
/// merge: the blocking-rank keys (the [`CandidatePair`]) plus the engine's
/// per-pair decision. Kernel scores never depend on which other candidates
/// ride along, so contributions computed on separate shards — separate
/// *processes*, even — merge into exactly what one engine scoring the
/// merged list would produce.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    /// The candidate with its merge keys (`username_sim`, `right`).
    pub cand: CandidatePair,
    /// The kernel decision score (per-pair, placement-independent).
    pub score: f64,
    /// The engine's link decision for this pair.
    pub linked: bool,
}

/// Merge pre-scored per-shard contributions into the final ranked
/// prediction list: candidate merge order ([`candidate_merge_cmp`]), the
/// global `max_per_user` cap, then prediction rank order
/// ([`prediction_rank_cmp`]) — the exact pipeline
/// [`ShardedEngine::query`] runs in-process, with the scoring already done
/// shard-side. This is the coordinator half of the cross-process parity
/// contract.
pub fn merge_scored_candidates(
    contributions: impl IntoIterator<Item = ScoredCandidate>,
    max_per_user: usize,
) -> Vec<LinkagePrediction> {
    let mut merged: Vec<ScoredCandidate> = contributions.into_iter().collect();
    merged.sort_by(|a, b| candidate_merge_cmp(&a.cand, &b.cand));
    merged.truncate(max_per_user);
    let mut preds: Vec<LinkagePrediction> = merged
        .into_iter()
        .map(|sc| LinkagePrediction {
            left: sc.cand.left,
            right: sc.cand.right,
            score: sc.score,
            linked: sc.linked,
        })
        .collect();
    preds.sort_by(prediction_rank_cmp);
    preds
}

/// Engine-lifetime health accumulators: degraded queries, per-shard
/// failure contributions, quarantine/recovery events, and transient
/// retries. [`QueryOutcome::degraded`] reports per query; these atomics
/// accumulate *across* queries, so a long-running coordinator can answer
/// "how often is shard 3 failing" without scraping individual outcomes.
///
/// Always on (plain relaxed atomics — no `hydra-obs` install needed); when
/// metrics collection *is* on, every event is mirrored into `hydra-obs`
/// counters under the owner's prefix (`{prefix}.degraded_queries`,
/// `{prefix}.shard_failure.{s}`, `{prefix}.quarantine`, `{prefix}.recover`,
/// `{prefix}.retry`). Shared by the in-process [`ShardedEngine`] and the
/// `hydra-net` coordinator so both sides count with the same semantics.
#[derive(Debug)]
pub struct HealthCounters {
    prefix: &'static str,
    degraded_queries: AtomicU64,
    shard_failures: Vec<AtomicU64>,
    quarantine_events: AtomicU64,
    recovery_events: AtomicU64,
    retries: AtomicU64,
}

impl HealthCounters {
    /// Fresh counters for an engine over `num_shards` partitions; `prefix`
    /// names the owner in mirrored `hydra-obs` counters (`"serve"` for the
    /// in-process engine, `"net"` for the coordinator).
    pub fn new(prefix: &'static str, num_shards: usize) -> Self {
        HealthCounters {
            prefix,
            degraded_queries: AtomicU64::new(0),
            shard_failures: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
            quarantine_events: AtomicU64::new(0),
            recovery_events: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// Record one degraded query: `failed` lists the shards that did not
    /// contribute (each one's failure count advances by one).
    pub fn record_degraded(&self, failed: impl IntoIterator<Item = usize>) {
        self.degraded_queries.fetch_add(1, Ordering::Relaxed);
        hydra_obs::counter_add(&format!("{}.degraded_queries", self.prefix), 1);
        for s in failed {
            if let Some(c) = self.shard_failures.get(s) {
                c.fetch_add(1, Ordering::Relaxed);
            }
            if hydra_obs::enabled() {
                hydra_obs::counter_add(&format!("{}.shard_failure.{s}", self.prefix), 1);
            }
        }
    }

    /// Record one quarantine event (panic-triggered or explicit).
    pub fn record_quarantine(&self) {
        self.quarantine_events.fetch_add(1, Ordering::Relaxed);
        hydra_obs::counter_add(&format!("{}.quarantine", self.prefix), 1);
    }

    /// Record `n` shards recovered from quarantine.
    pub fn record_recovery(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.recovery_events.fetch_add(n, Ordering::Relaxed);
        hydra_obs::counter_add(&format!("{}.recover", self.prefix), n);
    }

    /// Record one transient-failure retry.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        hydra_obs::counter_add(&format!("{}.retry", self.prefix), 1);
    }

    /// Queries answered degraded (at least one shard missing) so far.
    pub fn degraded_queries(&self) -> u64 {
        self.degraded_queries.load(Ordering::Relaxed)
    }

    /// Per-shard count of queries the shard failed to contribute to.
    pub fn shard_failures(&self) -> Vec<u64> {
        self.shard_failures
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// How many queries shard `s` failed to contribute to (0 for an
    /// out-of-range shard).
    pub fn shard_failure_count(&self, s: usize) -> u64 {
        self.shard_failures
            .get(s)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Quarantine events (panic-triggered and explicit) so far.
    pub fn quarantine_events(&self) -> u64 {
        self.quarantine_events.load(Ordering::Relaxed)
    }

    /// Shards recovered from quarantine so far.
    pub fn recovery_events(&self) -> u64 {
        self.recovery_events.load(Ordering::Relaxed)
    }

    /// Transient-failure retries so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

/// Bounded, deterministic retry schedule for transient ingest failures
/// ([`EngineError::Transient`]): attempt, then back off doubling from
/// `initial_backoff` up to `max_backoff`, for at most `max_attempts` total
/// attempts. The schedule is a pure function of the policy — no jitter —
/// so faulted runs are reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). 0 is treated as 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub initial_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Spend one retry from this schedule after a failed attempt: sleep
    /// the backoff owed, then shrink `self` to the schedule that remains —
    /// one attempt fewer, backoff doubled toward the cap. Returns `false`,
    /// without sleeping, once the failed attempt was the last one allowed.
    /// A clone of the configured policy is therefore the cursor of one
    /// retried operation, and a half-spent cursor can be carried across
    /// phases (the coordinator's pipelined scatter does) without losing
    /// its place.
    pub fn back_off(&mut self) -> bool {
        if self.max_attempts <= 1 {
            return false;
        }
        self.max_attempts -= 1;
        let backoff = self.initial_backoff;
        if !backoff.is_zero() {
            std::thread::sleep(backoff.min(self.max_backoff));
        }
        self.initial_backoff = (backoff * 2).min(self.max_backoff);
        true
    }
}

/// The per-platform username columns of a signal store — the global
/// blocking vocabulary of an unsliced population.
fn username_columns(signals: &Signals) -> Vec<Vec<String>> {
    signals
        .per_platform
        .iter()
        .map(|side| side.iter().map(|sig| sig.username.clone()).collect())
        .collect()
}

/// The partition state machine (see the module docs): everything about a
/// partitioned population that does not depend on *which* shards this
/// process holds, plus the engines of the ones it does.
struct Partition {
    /// The current profile-snapshot epoch; every held engine holds a
    /// pointer-equal clone.
    snapshot: Arc<ProfileSnapshot>,
    /// Population-wide statistics, one per platform — global whichever
    /// shards are held.
    platforms: Vec<PlatformStats>,
    num_shards: usize,
    /// Shard id of `engines[0]`: the held shards are the contiguous range
    /// `first .. first + engines.len()` (all of `0..N` in a
    /// [`ShardedEngine`], one in a [`ShardReplica`]).
    first: usize,
    engines: Vec<LinkageEngine>,
}

impl Partition {
    /// Build the core holding shards `held` of an `num_shards`-way
    /// partition. `usernames[p]` lists **every** account on platform `p`,
    /// even where the signal store holds a placeholder (a sliced
    /// population drops profiles, never usernames), so the global
    /// stop-gram statistics, active counts, and left-side validation come
    /// out bitwise those of the full population; `usernames[p].len()` must
    /// equal `signals.per_platform[p].len()`. An empty or out-of-range
    /// `held` is [`EngineError::InvalidShardCount`].
    fn build(
        model: LinkageModel,
        signals: &Signals,
        graphs: Vec<SocialGraph>,
        usernames: Vec<Vec<String>>,
        held: Range<usize>,
        num_shards: usize,
    ) -> Result<Self, EngineError> {
        if held.is_empty() || held.end > num_shards {
            return Err(EngineError::InvalidShardCount);
        }
        let snapshot = Arc::new(ProfileSnapshot::build(&model.extractor(), signals, graphs)?);
        let platforms = usernames
            .into_iter()
            .map(|column| {
                let mut stats = PlatformStats {
                    gram_counts: HashMap::new(),
                    active_count: column.len(),
                    total: column.len(),
                    usernames: Vec::new(),
                    removed: BTreeSet::new(),
                };
                for username in &column {
                    stats.count_grams(username, 1);
                }
                stats.usernames = column;
                stats
            })
            .collect();
        let mut core = Partition {
            snapshot,
            platforms,
            num_shards,
            first: held.start,
            engines: Vec::with_capacity(held.len()),
        };
        for s in held {
            let engine = core.fresh_engine(&model, s)?;
            core.engines.push(engine);
        }
        Ok(core)
    }

    /// A fresh engine for shard `s` over the current epoch — the profile
    /// store by handle, postings only for the accounts `s` owns (the rest
    /// registered de-listed) — with the removal log replayed so the
    /// partition's active set is exact. Build and rebuild are this one
    /// step (the log is empty at build), which is what makes a rebuilt
    /// shard answer bitwise like one that never faulted.
    fn fresh_engine(&self, model: &LinkageModel, s: usize) -> Result<LinkageEngine, EngineError> {
        let n = self.num_shards;
        let mut fresh =
            LinkageEngine::with_shared_snapshot(model.clone(), self.snapshot.clone(), |_, a| {
                routing::owns(s, n, a)
            })?;
        for (platform, stats) in self.platforms.iter().enumerate() {
            for &a in stats.removed.iter().filter(|&&a| routing::owns(s, n, a)) {
                fresh.remove_account(platform, a)?;
            }
        }
        Ok(fresh)
    }

    /// Rebuild held engine `i` deterministically from the snapshot and the
    /// removal log.
    fn rebuild(&mut self, i: usize) -> Result<(), EngineError> {
        self.engines[i] = self.fresh_engine(self.engines[i].model(), self.first + i)?;
        Ok(())
    }

    fn model(&self) -> &LinkageModel {
        self.engines[0].model()
    }

    fn num_accounts(&self, platform: usize) -> usize {
        self.platforms.get(platform).map_or(0, |p| p.total)
    }

    fn active_accounts(&self, platform: usize) -> usize {
        self.platforms.get(platform).map_or(0, |p| p.active_count)
    }

    /// Register a batch under **one** published epoch, returning the new
    /// slots. `entry_site` fires before anything is touched and
    /// `publish_site` is the snapshot's publication gate — both fallible
    /// steps precede any mutation of a shard or the statistics, and
    /// everything after them is infallible, so a failure on account `j`
    /// leaves every holder byte-for-byte as it was with no prefix of the
    /// batch registered (`tests/fault_sweeps.rs`, `tests/sharded_errors.rs`).
    fn insert_batch(
        &mut self,
        platform: usize,
        batch: Vec<(UserSignals, Vec<(u32, f64)>)>,
        entry_site: &'static str,
        publish_site: &'static str,
    ) -> Result<Range<u32>, EngineError> {
        // 0. A transient fault here (a flaky feed, in production terms)
        //    must be a clean no-op.
        inject_point(entry_site)?;

        // 1. Fallible: validate every delta, publish the epoch (profiles
        //    move into the snapshot tail, no deep copy).
        let slots = ProfileSnapshot::publish_insert_batch(
            &mut self.snapshot,
            platform,
            batch,
            publish_site,
        )?;

        // 2. Infallible: hand the epoch to every held shard; each
        //    account's owner registers it active, the rest de-listed.
        let (first, n) = (self.first, self.num_shards);
        for (i, engine) in self.engines.iter_mut().enumerate() {
            engine.adopt_epoch_batch(self.snapshot.clone(), platform, slots.clone(), |idx| {
                routing::owns(first + i, n, idx)
            });
        }

        // 3. Global statistics last, after every shard holds the epoch.
        let stats = &mut self.platforms[platform];
        debug_assert_eq!(stats.total as u32, slots.start, "stats slot drift");
        let profiles = self.snapshot.platform(platform);
        for idx in slots.clone() {
            let username = &profiles.signal(idx).username;
            stats.count_grams(username, 1);
            stats.usernames.push(username.clone());
        }
        stats.active_count += slots.len();
        stats.total += slots.len();
        Ok(slots)
    }

    /// De-list an account globally: validated against the population-wide
    /// statistics (so every holder returns the same error), applied to the
    /// owning shard's blocking index when this core holds it, and recorded
    /// in the statistics last — a failing removal changes nothing. The
    /// profile stays in the Eq. 18 snapshot, exactly like
    /// [`LinkageEngine::remove_account`].
    fn remove(&mut self, platform: usize, account: u32) -> Result<(), EngineError> {
        let num_platforms = self.platforms.len();
        let Some(stats) = self.platforms.get(platform) else {
            return Err(EngineError::PlatformOutOfRange {
                platform,
                num_platforms,
            });
        };
        if (account as usize) >= stats.total {
            return Err(EngineError::AccountOutOfRange { platform, account });
        }
        if stats.removed.contains(&account) {
            return Err(EngineError::AccountRemoved { platform, account });
        }
        let owner = routing::owner(account, self.num_shards);
        if let Some(engine) = owner
            .checked_sub(self.first)
            .and_then(|i| self.engines.get_mut(i))
        {
            engine.remove_account(platform, account)?;
        }
        let stats = &mut self.platforms[platform];
        let username = stats.usernames[account as usize].clone();
        stats.count_grams(&username, -1);
        stats.active_count -= 1;
        stats.removed.insert(account);
        Ok(())
    }

    /// Validate queries without doing any work: the task index, then every
    /// left account against the *global* population. Batches are refused
    /// whole, before any scoring starts.
    fn validate(&self, task: usize, lefts: &[u32]) -> Result<TaskSpec, EngineError> {
        let spec = self.engines[0].task_spec(task)?;
        let platform = spec.left_platform as usize;
        let stats = &self.platforms[platform];
        for &account in lefts {
            if (account as usize) >= stats.total {
                return Err(EngineError::AccountOutOfRange { platform, account });
            }
            if stats.removed.contains(&account) {
                return Err(EngineError::AccountRemoved { platform, account });
            }
        }
        Ok(spec)
    }

    /// Held engine `i`'s partition scan for one left account, suppressing
    /// stop-grams by the **global** statistics.
    fn scan(&self, i: usize, spec: TaskSpec, left_account: u32) -> Vec<CandidatePair> {
        let stats = &self.platforms[spec.right_platform as usize];
        let limits = GramLimits {
            counts: &stats.gram_counts,
            active_count: stats.active_count,
        };
        self.engines[i].candidates_for(spec, left_account, Some(&limits))
    }
}

/// The partition core holding **all N** shards in one process (see the
/// module docs), fanning queries out over `hydra-par` workers.
pub struct ShardedEngine {
    core: Partition,
    /// Quarantine flags, one per shard (atomic so the panic-isolated query
    /// path can mark a shard poisoned through `&self`). A poisoned shard is
    /// skipped by [`ShardedEngine::query_outcome`] until
    /// [`ShardedEngine::recover_quarantined`] rebuilds it.
    poisoned: Vec<AtomicBool>,
    /// Engine-lifetime degraded/quarantine/retry accumulators (see
    /// [`HealthCounters`]).
    health: HealthCounters,
}

impl ShardedEngine {
    /// Build a sharded engine over `num_shards` partitions — same inputs as
    /// [`LinkageEngine::new`] plus the shard count. A one-shard engine is
    /// exactly the single-engine path. The profile store is built **once**
    /// and shared: each shard receives a handle, not a replica.
    pub fn new(
        model: LinkageModel,
        signals: &Signals,
        graphs: Vec<SocialGraph>,
        num_shards: usize,
    ) -> Result<Self, EngineError> {
        let usernames = username_columns(signals);
        let core = Partition::build(model, signals, graphs, usernames, 0..num_shards, num_shards)?;
        Ok(ShardedEngine {
            core,
            poisoned: (0..num_shards).map(|_| AtomicBool::new(false)).collect(),
            health: HealthCounters::new("serve", num_shards),
        })
    }

    /// The engine's handle to the shared profile snapshot at the current
    /// epoch. [`ShardedEngine::shard_snapshot`] returns pointer-equal
    /// handles for every shard — the store exists once, whatever the shard
    /// count.
    pub fn snapshot(&self) -> &Arc<ProfileSnapshot> {
        &self.core.snapshot
    }

    /// Shard `s`'s handle to the profile snapshot (pointer-equal to
    /// [`ShardedEngine::snapshot`] — asserted by the sharing parity test).
    ///
    /// # Panics
    /// Panics when `s >= num_shards`.
    pub fn shard_snapshot(&self, s: usize) -> &Arc<ProfileSnapshot> {
        self.core.engines[s].snapshot()
    }

    /// Approximate heap size of the **shared** profile store (1× across
    /// every shard).
    pub fn snapshot_bytes(&self) -> usize {
        self.core.snapshot.heap_bytes()
    }

    /// Approximate heap size of all per-shard **private** state (blocking
    /// postings, active sets, probe scalars) plus the global gram
    /// statistics — what sharding actually adds on top of the shared
    /// snapshot.
    pub fn index_bytes(&self) -> usize {
        let shards: usize = self
            .core
            .engines
            .iter()
            .map(LinkageEngine::index_heap_bytes)
            .sum();
        let stats: usize = self
            .core
            .platforms
            .iter()
            .map(|p| {
                p.gram_counts.len() * std::mem::size_of::<(u64, u32)>()
                    + p.usernames.len() * std::mem::size_of::<String>()
                    + p.usernames.iter().map(String::len).sum::<usize>()
            })
            .sum();
        shards + stats
    }

    /// The wrapped model.
    pub fn model(&self) -> &LinkageModel {
        self.core.model()
    }

    /// Engine-lifetime health accumulators: degraded queries, per-shard
    /// failure counts, quarantine/recovery events, transient retries.
    pub fn health(&self) -> &HealthCounters {
        &self.health
    }

    /// Number of shards the population is partitioned over.
    pub fn num_shards(&self) -> usize {
        self.core.num_shards
    }

    /// Number of platform-pair tasks the engine serves.
    pub fn num_tasks(&self) -> usize {
        self.core.engines[0].num_tasks()
    }

    /// Number of account slots on a platform (including removed accounts).
    pub fn num_accounts(&self, platform: usize) -> usize {
        self.core.num_accounts(platform)
    }

    /// Number of active (non-removed) accounts on a platform.
    pub fn active_accounts(&self, platform: usize) -> usize {
        self.core.active_accounts(platform)
    }

    /// Register a new account with no social interactions —
    /// [`ShardedEngine::insert_account_with_edges`] with an empty delta.
    pub fn insert_account(
        &mut self,
        platform: usize,
        sig: UserSignals,
    ) -> Result<u32, EngineError> {
        self.insert_account_with_edges(platform, sig, &[])
    }

    /// Register a new account under the next free platform-local index
    /// (returned) — [`ShardedEngine::insert_batch_with_edges`] with a batch
    /// of one (fault sites `sharded.insert`, `snapshot.publish`). The
    /// account's profile and Eq. 18 interaction delta enter the shared
    /// store exactly once, under one new epoch, and the account becomes
    /// active for candidacy on its owning shard only; subsequent queries
    /// are byte-identical to a single engine holding the grown population.
    pub fn insert_account_with_edges(
        &mut self,
        platform: usize,
        sig: UserSignals,
        edges: &[(u32, f64)],
    ) -> Result<u32, EngineError> {
        let batch = vec![(sig, edges.to_vec())];
        let slots =
            self.core
                .insert_batch(platform, batch, "sharded.insert", "snapshot.publish")?;
        Ok(slots.start)
    }

    /// Register a whole batch of accounts under **one** published snapshot
    /// epoch — [`LinkageEngine::insert_batch`] lifted to the partition
    /// (fault sites `sharded.insert_batch`, `snapshot.publish_batch`).
    /// Account `j` lands at `base + j` (the returned vec, in batch order)
    /// and becomes active for candidacy on its owning shard only; its edge
    /// delta may reference any earlier account, batch members included.
    /// Post-state — counts, query answers, graph effects — is
    /// bitwise-identical to k single inserts, but the epoch counter
    /// advances once. **All-or-nothing**; an empty batch is a no-op at the
    /// current epoch.
    pub fn insert_batch_with_edges(
        &mut self,
        platform: usize,
        batch: Vec<(UserSignals, Vec<(u32, f64)>)>,
    ) -> Result<Vec<u32>, EngineError> {
        let slots = self.core.insert_batch(
            platform,
            batch,
            "sharded.insert_batch",
            "snapshot.publish_batch",
        )?;
        Ok(slots.collect())
    }

    /// De-list an account from serving. Its profile stays in the shared
    /// Eq. 18 snapshot, exactly like [`LinkageEngine::remove_account`];
    /// a failing removal (out-of-range platform or account, double
    /// removal) changes nothing.
    pub fn remove_account(&mut self, platform: usize, account: u32) -> Result<(), EngineError> {
        self.core.remove(platform, account)
    }

    /// One shard's timed partition scan — the per-shard body of both
    /// fan-outs, strict and panic-isolated.
    fn probe(&self, s: usize, spec: TaskSpec, left_account: u32) -> Vec<CandidatePair> {
        let t = hydra_obs::timer();
        let cands = self.core.scan(s, spec, left_account);
        if let Some(ns) = t.elapsed_ns() {
            hydra_obs::observe(&format!("serve.shard.candidates.{s}"), ns);
        }
        cands
    }

    /// Fan one left account's candidate generation out over the shards
    /// (`threads` workers; 1 walks them in order) and merge
    /// deterministically.
    fn sharded_candidates(
        &self,
        spec: TaskSpec,
        left_account: u32,
        threads: usize,
    ) -> Vec<CandidatePair> {
        let per_shard = hydra_par::par_map_threads(threads, &self.core.engines, |s, _| {
            self.probe(s, spec, left_account)
        });
        let _merge = hydra_obs::span("serve.shard.merge");
        merge_shard_candidates(
            per_shard.into_iter().flatten(),
            self.model().candidates.max_per_user,
        )
    }

    /// Resolve one left account across the partition: sharded candidate
    /// generation, deterministic merge, then one pass of feature assembly →
    /// Eq. 18 filling → kernel decision over the merged list. Results are
    /// byte-identical to [`LinkageEngine::query`] on an unpartitioned
    /// engine over the same population.
    pub fn query(
        &self,
        task: usize,
        left_account: u32,
    ) -> Result<Vec<LinkagePrediction>, EngineError> {
        let spec = self.core.validate(task, &[left_account])?;
        let _query = hydra_obs::span("serve.query");
        let cands = self.sharded_candidates(spec, left_account, hydra_par::num_threads());
        Ok(self.core.engines[0].score_candidates(spec, &cands))
    }

    /// [`ShardedEngine::query`] for a batch of left accounts, fanned out
    /// over `hydra-par` workers (each worker walks the shards for its
    /// queries) with an order-preserving merge — identical results at any
    /// `HYDRA_THREADS`. The whole batch is validated before any work
    /// starts.
    pub fn query_batch(
        &self,
        task: usize,
        left_accounts: &[u32],
    ) -> Result<Vec<Vec<LinkagePrediction>>, EngineError> {
        let spec = self.core.validate(task, left_accounts)?;
        Ok(hydra_par::par_map(left_accounts, |_, &a| {
            let _query = hydra_obs::span("serve.query");
            let cands = self.sharded_candidates(spec, a, 1);
            self.core.engines[0].score_candidates(spec, &cands)
        }))
    }

    /// [`ShardedEngine::insert_account_with_edges`] with bounded,
    /// deterministic retry of transient failures
    /// ([`EngineError::Transient`] — injected faults in tests, flaky
    /// downstream dependencies in production). Non-transient errors and
    /// transients that survive `policy.max_attempts` attempts are returned;
    /// a transient insert left no partial state, so retrying is always
    /// safe.
    pub fn insert_account_with_edges_retried(
        &mut self,
        platform: usize,
        sig: UserSignals,
        edges: &[(u32, f64)],
        policy: &RetryPolicy,
    ) -> Result<u32, EngineError> {
        let mut schedule = policy.clone();
        loop {
            match self.insert_account_with_edges(platform, sig.clone(), edges) {
                Err(EngineError::Transient { .. }) if schedule.back_off() => {
                    self.health.record_retry()
                }
                done => return done,
            }
        }
    }

    /// One panic-isolated query (inputs already validated): every live
    /// shard's `probe` runs under `catch_unwind` (via
    /// [`hydra_par::par_map_catch_threads`]); a panicking shard is marked
    /// poisoned and reported, already-poisoned shards are skipped and
    /// reported, and the survivors' candidates merge and score exactly
    /// like the strict path's.
    fn outcome_isolated(&self, spec: TaskSpec, left_account: u32, threads: usize) -> QueryOutcome {
        let live: Vec<usize> = (0..self.core.num_shards)
            .filter(|&s| !self.is_poisoned(s))
            .collect();
        let results = hydra_par::par_map_catch_threads(threads, &live, |_, &s| {
            // Injection point for the fan-out: site names are per-shard
            // ("shard.task.3"), so hit counters — and therefore which query
            // observes an armed fault — stay deterministic however the
            // worker pool schedules the tasks. Any armed kind manifests as
            // a panic here: this is the isolation path under test.
            if hydra_fault::enabled() && hydra_fault::fire(&format!("shard.task.{s}")).is_some() {
                panic!("injected fault in shard task {s}");
            }
            self.probe(s, spec, left_account)
        });

        let mut answered = live.into_iter().zip(results).peekable();
        let mut merged = Vec::new();
        let mut degraded = Vec::new();
        for s in 0..self.core.num_shards {
            match answered.next_if(|(live, _)| *live == s) {
                None => degraded.push(ShardFailure::Quarantined { shard: s }),
                Some((_, Ok(cands))) => merged.extend(cands),
                Some((_, Err(message))) => {
                    self.poisoned[s].store(true, Ordering::Release);
                    self.health.record_quarantine();
                    degraded.push(ShardFailure::Panicked { shard: s, message });
                }
            }
        }
        if !degraded.is_empty() {
            // One degraded query; every listed shard's failure count
            // advances (panicked this query or skipped while quarantined).
            self.health
                .record_degraded(degraded.iter().map(ShardFailure::shard));
        }
        let cands = merge_shard_candidates(merged, self.model().candidates.max_per_user);
        // Scoring reads only the shared snapshot + model, so any shard
        // scores identically; prefer the lowest-indexed live one all the
        // same (with everything quarantined the list is empty and scoring
        // is a no-op).
        let scorer = (0..self.core.num_shards)
            .find(|&s| !self.is_poisoned(s))
            .unwrap_or(0);
        QueryOutcome {
            predictions: self.core.engines[scorer].score_candidates(spec, &cands),
            degraded,
        }
    }

    /// [`ShardedEngine::query`] with panic isolation and graceful
    /// degradation: each shard's candidate task runs under `catch_unwind`,
    /// so one panicking shard yields a **degraded** [`QueryOutcome`] —
    /// the surviving shards' predictions plus an explicit
    /// [`ShardFailure::Panicked`] naming the failed shard — instead of
    /// tearing the process down. The panicking shard is quarantined:
    /// subsequent outcomes skip it (reported as
    /// [`ShardFailure::Quarantined`]) until
    /// [`ShardedEngine::recover_quarantined`] rebuilds it from the shared
    /// snapshot. With no failure the outcome is complete and bitwise
    /// identical to the strict path. (The strict [`ShardedEngine::query`]
    /// ignores quarantine flags entirely — shard state is never corrupted
    /// by a read-path panic — so the parity contract is untouched.)
    pub fn query_outcome(
        &self,
        task: usize,
        left_account: u32,
    ) -> Result<QueryOutcome, EngineError> {
        let spec = self.core.validate(task, &[left_account])?;
        Ok(self.outcome_isolated(spec, left_account, hydra_par::num_threads()))
    }

    /// [`ShardedEngine::query_outcome`] for a batch of left accounts,
    /// fanned out over `hydra-par` workers; each query walks the shards
    /// sequentially under per-shard `catch_unwind`. The whole batch is
    /// validated before any work starts.
    pub fn query_batch_outcome(
        &self,
        task: usize,
        left_accounts: &[u32],
    ) -> Result<Vec<QueryOutcome>, EngineError> {
        let spec = self.core.validate(task, left_accounts)?;
        Ok(hydra_par::par_map(left_accounts, |_, &a| {
            self.outcome_isolated(spec, a, 1)
        }))
    }

    fn is_poisoned(&self, s: usize) -> bool {
        self.poisoned[s].load(Ordering::Acquire)
    }

    /// Manually quarantine a shard: subsequent
    /// [`ShardedEngine::query_outcome`] calls skip it (reporting
    /// [`ShardFailure::Quarantined`]) until
    /// [`ShardedEngine::recover_quarantined`] rebuilds it.
    ///
    /// # Panics
    /// Panics when `shard >= num_shards`.
    pub fn quarantine(&mut self, shard: usize) {
        self.poisoned[shard].store(true, Ordering::Release);
        self.health.record_quarantine();
    }

    /// The currently quarantined shards, in ascending order.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.core.num_shards)
            .filter(|&s| self.is_poisoned(s))
            .collect()
    }

    /// Rebuild every quarantined shard **deterministically** from the
    /// shared [`ProfileSnapshot`] and the removal log. Returns the shards
    /// recovered; after recovery, queries are bitwise identical to an
    /// engine that never faulted (pinned by `tests/fault_sweeps.rs`).
    pub fn recover_quarantined(&mut self) -> Result<Vec<usize>, EngineError> {
        let recovered = self.quarantined();
        for &s in &recovered {
            self.core.rebuild(s)?;
            self.poisoned[s].store(false, Ordering::Release);
        }
        self.health.record_recovery(recovered.len() as u64);
        Ok(recovered)
    }

    /// Hot-swap the serving model for a re-fitted one **without downtime
    /// or divergence** — ROADMAP item 5's straddle guarantee: because a
    /// swap takes `&mut self` while every query path takes `&self`, no
    /// query can observe the engine mid-swap — every query is answered
    /// entirely by the old artifact or entirely by the new one. The swap
    /// itself is all-or-nothing under faults: the new model is refused
    /// outright unless its config fingerprint matches the serving one
    /// (same candidate/feature/fill/window configuration, so the private
    /// blocking indexes stay valid), and a failure — injected transient
    /// *or* panic — while walking the shards rolls every shard back to
    /// the old model before returning the error.
    ///
    /// Fault-injection sites: `swap.begin` (before any shard changes),
    /// `swap.shard` (hit `s` fires before shard `s` swaps).
    pub fn swap_artifact(&mut self, model: LinkageModel) -> Result<(), EngineError> {
        let _swap = hydra_obs::span("artifact.swap");
        let expected = self.model().fingerprint();
        let found = model.fingerprint();
        if expected != found {
            return Err(EngineError::ArtifactFingerprintMismatch { expected, found });
        }
        inject_point("swap.begin")?;
        let old = self.model().clone();
        let shards = &mut self.core.engines;
        for s in 0..shards.len() {
            // A panic mid-walk would otherwise strand shards 0..s on the
            // new model; catch it and fold it into the rollback path.
            let gate = std::panic::catch_unwind(|| inject_point("swap.shard"))
                .unwrap_or(Err(EngineError::Transient { site: "swap.shard" }));
            if let Err(e) = gate {
                for shard in &mut shards[..s] {
                    shard.swap_model(old.clone());
                }
                return Err(e);
            }
            shards[s].swap_model(model.clone());
        }
        Ok(())
    }
}

/// The partition core holding **one** shard (see the module docs) — the
/// state a shard *process* owns in the cross-box deployment (`hydra-net`).
/// It answers the partition-local half of every query
/// ([`ShardReplica::query_partition`]) and applies every mutation of the
/// global sequence, under its own fault sites (`replica.insert`,
/// `replica.insert_batch`).
pub struct ShardReplica {
    core: Partition,
}

impl ShardReplica {
    /// Build replica `shard` of an `num_shards`-way partition — same
    /// inputs as [`ShardedEngine::new`] plus the partition coordinates.
    /// Rejects `num_shards == 0` and `shard >= num_shards` with
    /// [`EngineError::InvalidShardCount`].
    pub fn new(
        model: LinkageModel,
        signals: &Signals,
        graphs: Vec<SocialGraph>,
        shard: usize,
        num_shards: usize,
    ) -> Result<Self, EngineError> {
        let usernames = username_columns(signals);
        Self::with_usernames(model, signals, graphs, usernames, shard, num_shards)
    }

    /// Build a replica whose *population-wide* bookkeeping comes from
    /// explicit per-platform username columns rather than the signal
    /// store — the cold-start path for **sliced** population artifacts,
    /// whose signal columns hold real profiles only for the slots the
    /// slice retained. `usernames[p].len()` must equal
    /// `signals.per_platform[p].len()`; [`ShardReplica::new`] is the
    /// special case where the columns are derived from the signals
    /// themselves.
    pub fn with_usernames(
        model: LinkageModel,
        signals: &Signals,
        graphs: Vec<SocialGraph>,
        usernames: Vec<Vec<String>>,
        shard: usize,
        num_shards: usize,
    ) -> Result<Self, EngineError> {
        let held = shard..shard.saturating_add(1);
        let core = Partition::build(model, signals, graphs, usernames, held, num_shards)?;
        Ok(ShardReplica { core })
    }

    /// The partition index this replica serves.
    pub fn shard(&self) -> usize {
        self.core.first
    }

    /// The partition width the population is sharded over.
    pub fn num_shards(&self) -> usize {
        self.core.num_shards
    }

    /// The wrapped model.
    pub fn model(&self) -> &LinkageModel {
        self.core.model()
    }

    /// The replica's profile-snapshot epoch (advances once per applied
    /// insert or insert batch — in lockstep across replicas fed the same
    /// mutation sequence).
    pub fn epoch(&self) -> u64 {
        self.core.snapshot.epoch()
    }

    /// Number of platform-pair tasks the replica serves.
    pub fn num_tasks(&self) -> usize {
        self.core.engines[0].num_tasks()
    }

    /// Number of account slots on a platform (including removed accounts).
    pub fn num_accounts(&self, platform: usize) -> usize {
        self.core.num_accounts(platform)
    }

    /// Number of active (non-removed) accounts on a platform.
    pub fn active_accounts(&self, platform: usize) -> usize {
        self.core.active_accounts(platform)
    }

    /// Validate one query without doing any work — the task index and the
    /// left account against the *global* population. Batch servers call
    /// this for every left up front so a bad batch is refused before any
    /// scoring starts, exactly like [`ShardedEngine::query_batch_outcome`].
    pub fn validate_query(&self, task: usize, left_account: u32) -> Result<(), EngineError> {
        self.core.validate(task, &[left_account]).map(|_| ())
    }

    /// This partition's scored contribution to one query: candidate
    /// generation against the **global** stop-gram statistics (exactly
    /// what shard `s` of a [`ShardedEngine`] produces), each candidate
    /// scored by the per-pair kernel. Contributions from all replicas
    /// merge via [`merge_scored_candidates`] into the full answer —
    /// bitwise what [`ShardedEngine::query`] returns.
    pub fn query_partition(
        &self,
        task: usize,
        left_account: u32,
    ) -> Result<Vec<ScoredCandidate>, EngineError> {
        let spec = self.core.validate(task, &[left_account])?;
        let cands = self.core.scan(0, spec, left_account);
        let preds = self.core.engines[0].score_candidates(spec, &cands);
        let by_right: HashMap<u32, (f64, bool)> = preds
            .iter()
            .map(|p| (p.right, (p.score, p.linked)))
            .collect();
        Ok(cands
            .into_iter()
            .map(|cand| {
                // score_candidates scores every candidate it is handed, so
                // the lookup is total; `right` is unique within one query.
                let (score, linked) = by_right[&cand.right];
                ScoredCandidate {
                    cand,
                    score,
                    linked,
                }
            })
            .collect())
    }

    /// Register a new account — [`ShardReplica::insert_batch_with_edges`]
    /// with a batch of one (fault sites `replica.insert`,
    /// `snapshot.publish`).
    pub fn insert_account_with_edges(
        &mut self,
        platform: usize,
        sig: UserSignals,
        edges: &[(u32, f64)],
    ) -> Result<u32, EngineError> {
        let batch = vec![(sig, edges.to_vec())];
        let slots =
            self.core
                .insert_batch(platform, batch, "replica.insert", "snapshot.publish")?;
        Ok(slots.start)
    }

    /// Register a whole batch under **one** published epoch — active in
    /// the index only for the slots this replica owns; same all-or-nothing
    /// contract as [`ShardedEngine::insert_batch_with_edges`] (fault sites
    /// `replica.insert_batch`, `snapshot.publish_batch`).
    pub fn insert_batch_with_edges(
        &mut self,
        platform: usize,
        batch: Vec<(UserSignals, Vec<(u32, f64)>)>,
    ) -> Result<Vec<u32>, EngineError> {
        let slots = self.core.insert_batch(
            platform,
            batch,
            "replica.insert_batch",
            "snapshot.publish_batch",
        )?;
        Ok(slots.collect())
    }

    /// De-list an account globally: the statistics (gram counts, active
    /// set, removal log) update on every replica, the blocking index only
    /// on the owner — same errors, same post-state as
    /// [`ShardedEngine::remove_account`].
    pub fn remove_account(&mut self, platform: usize, account: u32) -> Result<(), EngineError> {
        self.core.remove(platform, account)
    }

    /// Rebuild the partition index **deterministically** from the
    /// replica's current snapshot and removal log — the replica half of
    /// [`ShardedEngine::recover_quarantined`]: post-rebuild answers are
    /// bitwise those of a replica that never faulted.
    pub fn rebuild(&mut self) -> Result<(), EngineError> {
        self.core.rebuild(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Hydra, HydraConfig, PairTask};
    use crate::signals::SignalConfig;
    use hydra_datagen::{Dataset, DatasetConfig};

    fn world() -> (Dataset, Signals, LinkageModel) {
        let dataset = Dataset::generate(DatasetConfig::english(36, 0x5A4D));
        let signals = Signals::extract(
            &dataset,
            &SignalConfig {
                lda_iterations: 6,
                infer_iterations: 2,
                ..Default::default()
            },
        );
        let mut labels = Vec::new();
        for i in 0..9u32 {
            labels.push((i, i, true));
            labels.push((i, (i + 18) % 36, false));
        }
        let trained = Hydra::new(HydraConfig::default())
            .fit(
                &dataset,
                &signals,
                vec![PairTask {
                    left_platform: 0,
                    right_platform: 1,
                    labels,
                    unlabeled_whitelist: None,
                }],
            )
            .expect("fit");
        (dataset, signals, trained.model)
    }

    fn graphs(dataset: &Dataset) -> Vec<SocialGraph> {
        dataset.platforms.iter().map(|p| p.graph.clone()).collect()
    }

    #[test]
    fn zero_shards_rejected() {
        let (dataset, signals, model) = world();
        assert!(matches!(
            ShardedEngine::new(model, &signals, graphs(&dataset), 0),
            Err(EngineError::InvalidShardCount)
        ));
    }

    #[test]
    fn one_shard_matches_single_engine_bitwise() {
        let (dataset, signals, model) = world();
        let single = LinkageEngine::new(model.clone(), &signals, graphs(&dataset)).expect("single");
        let sharded = ShardedEngine::new(model, &signals, graphs(&dataset), 1).expect("sharded");
        for left in 0..dataset.num_persons() as u32 {
            let a = single.query(0, left).expect("single query");
            let b = sharded.query(0, left).expect("sharded query");
            assert_eq!(a.len(), b.len(), "left {left}: count");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!((x.left, x.right), (y.left, y.right), "left {left}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "left {left}");
            }
        }
    }

    #[test]
    fn replica_scatter_gather_matches_sharded_bitwise() {
        let (dataset, signals, model) = world();
        for &n in &[1usize, 2, 4] {
            let mut sharded =
                ShardedEngine::new(model.clone(), &signals, graphs(&dataset), n).expect("sharded");
            let mut replicas: Vec<ShardReplica> = (0..n)
                .map(|s| {
                    ShardReplica::new(model.clone(), &signals, graphs(&dataset), s, n)
                        .expect("replica")
                })
                .collect();

            // Feed both deployments the same mutation sequence.
            let sig = signals.per_platform[1][2].clone();
            sharded
                .insert_account_with_edges(1, sig.clone(), &[(2, 1.5)])
                .expect("sharded insert");
            for r in replicas.iter_mut() {
                r.insert_account_with_edges(1, sig.clone(), &[(2, 1.5)])
                    .expect("replica insert");
            }
            let batch: Vec<(UserSignals, Vec<(u32, f64)>)> = (0..3)
                .map(|i| (signals.per_platform[1][i].clone(), vec![]))
                .collect();
            sharded
                .insert_batch_with_edges(1, batch.clone())
                .expect("sharded batch");
            for r in replicas.iter_mut() {
                r.insert_batch_with_edges(1, batch.clone())
                    .expect("replica batch");
            }
            sharded.remove_account(1, 4).expect("sharded remove");
            for r in replicas.iter_mut() {
                r.remove_account(1, 4).expect("replica remove");
                assert_eq!(r.epoch(), sharded.snapshot().epoch(), "epoch lockstep");
            }

            // Scatter-gather over the replicas == in-process sharded ==
            // (transitively, via the existing parity suite) single engine.
            let cap = model.candidates.max_per_user;
            for left in 0..dataset.num_persons() as u32 {
                let want = sharded.query(0, left).expect("sharded query");
                let contributions: Vec<ScoredCandidate> = replicas
                    .iter()
                    .flat_map(|r| r.query_partition(0, left).expect("partition"))
                    .collect();
                let got = merge_scored_candidates(contributions, cap);
                assert_eq!(want.len(), got.len(), "n {n} left {left}: count");
                for (a, b) in want.iter().zip(&got) {
                    assert_eq!(
                        (a.left, a.right, a.score.to_bits(), a.linked),
                        (b.left, b.right, b.score.to_bits(), b.linked),
                        "n {n} left {left}"
                    );
                }
            }

            // A rebuilt replica (the recovery path) answers identically.
            for r in replicas.iter_mut() {
                r.rebuild().expect("rebuild");
            }
            let want = sharded.query(0, 0).expect("query");
            let got = merge_scored_candidates(
                replicas
                    .iter()
                    .flat_map(|r| r.query_partition(0, 0).expect("partition")),
                cap,
            );
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(
                    (a.left, a.right, a.score.to_bits()),
                    (b.left, b.right, b.score.to_bits())
                );
            }
        }
    }

    #[test]
    fn routing_and_errors() {
        let (dataset, signals, model) = world();
        let mut sharded =
            ShardedEngine::new(model, &signals, graphs(&dataset), 3).expect("sharded");
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.num_accounts(1), 36);
        assert_eq!(sharded.active_accounts(1), 36);

        // Removal routes to the owning shard and de-lists globally.
        sharded.remove_account(1, 5).expect("remove");
        assert_eq!(sharded.active_accounts(1), 35);
        assert!(matches!(
            sharded.remove_account(1, 5),
            Err(EngineError::AccountRemoved { .. })
        ));
        assert!(sharded
            .query(0, 5)
            .expect("left 5 still active on platform 0")
            .iter()
            .all(|p| p.right != 5));

        // Left-side validation mirrors the single engine.
        assert!(matches!(
            sharded.query(0, 10_000),
            Err(EngineError::AccountOutOfRange { .. })
        ));
        sharded.remove_account(0, 7).expect("remove left");
        assert!(matches!(
            sharded.query(0, 7),
            Err(EngineError::AccountRemoved { .. })
        ));
        assert!(matches!(
            sharded.query(9, 0),
            Err(EngineError::TaskOutOfRange { .. })
        ));

        // Edge-delta validation happens before any shard mutates.
        let sig = signals.per_platform[1][0].clone();
        assert!(matches!(
            sharded.insert_account_with_edges(1, sig.clone(), &[(999, 1.0)]),
            Err(EngineError::EdgeNeighborOutOfRange { .. })
        ));
        assert!(matches!(
            sharded.insert_account_with_edges(1, sig.clone(), &[(0, 0.0)]),
            Err(EngineError::EdgeWeightNotPositive { .. })
        ));
        assert_eq!(sharded.num_accounts(1), 36, "failed insert left state");
        let idx = sharded
            .insert_account_with_edges(1, sig, &[(0, 2.0)])
            .expect("insert");
        assert_eq!(idx, 36);
        assert_eq!(sharded.num_accounts(1), 37);
    }
}

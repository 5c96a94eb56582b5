//! The epoch-based, `Arc`-shared profile snapshot behind the serving layer.
//!
//! HYDRA's deployment shape is a **partitioned index over one
//! behavioral-profile corpus**: candidacy (blocking postings, active-set
//! bookkeeping) partitions cleanly by account, but Eq. 18 core-network
//! filling reaches into arbitrary friends' profiles on both sides of a
//! pair, so every shard needs the *whole* profile store. Replicating that
//! store per shard (the PR 4 shape) multiplies the dominant memory term —
//! per-account behavioral state, which the large-scale linkability studies
//! identify as what caps population size — by the shard count.
//!
//! [`ProfileSnapshot`] makes the store shared instead:
//!
//! * One snapshot holds, per platform, the extracted [`UserSignals`], the
//!   pre-bucketed [`ProfileCache`] entries, and the social-graph snapshot
//!   Eq. 18 consults. It is **immutable** and handed to every shard (and
//!   the single-engine path) as an [`Arc`] handle — N shards cost 1×
//!   profile memory plus their private blocking indexes.
//! * Ingest publishes a **new epoch** via copy-on-insert: the fit-time
//!   corpus lives in a frozen `base` column that every epoch shares
//!   untouched (one `Arc`), ingested accounts form an append-only `tail`
//!   of individually `Arc`'d entries (publishing clones the pointer vec,
//!   never the profiles), and the platform graph absorbs the account's
//!   interaction delta through [`SocialGraph::add_edges`]'s
//!   GraphBuilder-exact merge. Nothing is ever rebuilt or re-extracted.
//! * Publication goes through [`Arc::make_mut`]: a uniquely-held snapshot
//!   (the single-engine path) mutates in place with no copy at all; a
//!   shared snapshot (the sharded path, where every shard holds a handle
//!   to the current epoch) clones only the mutated platform's spine —
//!   base pointer, tail pointer vec, graph — and the old epoch is freed
//!   as soon as the last shard adopts the new one.
//!
//! Readers never observe a half-published epoch: the snapshot behind a
//! handle is immutable, and the engines swap handles only between queries.

use crate::engine::EngineError;
use crate::features::FeatureExtractor;
use crate::signals::{AccountBuckets, ProfileCache, Signals, UserSignals};
use hydra_graph::SocialGraph;
use std::ops::Range;
use std::sync::Arc;

/// Read-only per-account signal lookup the candidate scorer probes the
/// right side through — a contiguous slice on the batch path, an epoch
/// snapshot column on the serving path.
pub(crate) trait SignalStore {
    /// The signals of account `a`.
    fn signal(&self, a: u32) -> &UserSignals;
}

impl SignalStore for [UserSignals] {
    #[inline]
    fn signal(&self, a: u32) -> &UserSignals {
        &self[a as usize]
    }
}

/// The frozen fit-time profile columns of one platform — shared untouched
/// by every epoch that descends from the same snapshot build.
struct ProfileColumns {
    signals: Vec<UserSignals>,
    cache: ProfileCache,
}

/// One ingested account's profile entry (signals + pre-bucketed series),
/// individually `Arc`'d so epoch publication shares it by pointer.
struct ProfileEntry {
    signal: UserSignals,
    buckets: AccountBuckets,
}

/// One platform's profile store at one epoch: the frozen `base` corpus,
/// the append-only ingest `tail`, and the Eq. 18 graph snapshot.
///
/// Account `a` lives in `base` for `a < base.len()` and in
/// `tail[a - base.len()]` otherwise — platform-local indices are dense and
/// stable across epochs, exactly like the replicated stores they replace.
#[derive(Clone)]
pub struct PlatformProfiles {
    base: Arc<ProfileColumns>,
    tail: Vec<Arc<ProfileEntry>>,
    graph: SocialGraph,
}

impl PlatformProfiles {
    fn from_side(side: &[UserSignals], cache: ProfileCache, graph: SocialGraph) -> Self {
        PlatformProfiles {
            base: Arc::new(ProfileColumns {
                signals: side.to_vec(),
                cache,
            }),
            tail: Vec::new(),
            graph,
        }
    }

    /// Number of account slots (base corpus + ingested tail).
    pub fn len(&self) -> usize {
        self.base.signals.len() + self.tail.len()
    }

    /// Whether the platform holds no account at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The signals of account `a`.
    ///
    /// # Panics
    /// Panics when `a` is outside the platform's population.
    #[inline]
    pub fn signal(&self, a: u32) -> &UserSignals {
        let a = a as usize;
        let base = self.base.signals.len();
        if a < base {
            &self.base.signals[a]
        } else {
            &self.tail[a - base].signal
        }
    }

    /// The pre-bucketed series / sensor windows of account `a`.
    ///
    /// # Panics
    /// Panics when `a` is outside the platform's population.
    #[inline]
    pub fn buckets(&self, a: u32) -> &AccountBuckets {
        let a = a as usize;
        let base = self.base.signals.len();
        if a < base {
            &self.base.cache.accounts[a]
        } else {
            &self.tail[a - base].buckets
        }
    }

    /// The platform's Eq. 18 social-graph snapshot at this epoch.
    #[inline]
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// Whether this platform shares its frozen base corpus with `other`
    /// (pointer equality — true for every epoch descending from the same
    /// snapshot build).
    pub fn shares_base_with(&self, other: &PlatformProfiles) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Approximate deep heap size of this platform's store (length-based;
    /// ignores allocator slack and map overhead). The base corpus is
    /// counted in full even though epochs share it — a snapshot's total is
    /// the 1× cost of the store, whatever the shard count.
    pub fn heap_bytes(&self) -> usize {
        let base_signals: usize = self.base.signals.iter().map(|s| s.heap_bytes()).sum();
        let tail: usize = self
            .tail
            .iter()
            .map(|e| {
                std::mem::size_of::<ProfileEntry>() + e.signal.heap_bytes() + e.buckets.heap_bytes()
            })
            .sum();
        self.base.signals.len() * std::mem::size_of::<UserSignals>()
            + base_signals
            + self.base.cache.heap_bytes()
            + self.tail.len() * std::mem::size_of::<Arc<ProfileEntry>>()
            + tail
            + self.graph.heap_bytes()
    }
}

impl SignalStore for PlatformProfiles {
    #[inline]
    fn signal(&self, a: u32) -> &UserSignals {
        PlatformProfiles::signal(self, a)
    }
}

/// The immutable, `Arc`-shared profile store of a serving engine at one
/// epoch (see the module docs). One snapshot backs every shard of a
/// [`crate::shard::ShardedEngine`] — and the single-engine path — by
/// reference-counted handle; ingest publishes successor epochs via
/// copy-on-insert.
#[derive(Clone)]
pub struct ProfileSnapshot {
    platforms: Vec<Arc<PlatformProfiles>>,
    window_days: u32,
    epoch: u64,
}

impl ProfileSnapshot {
    /// Build the epoch-0 snapshot over extracted signals and per-platform
    /// graph snapshots (`graphs[p]` covers `signals.per_platform[p]`;
    /// profile caches are built here, once, with the extractor's scales).
    pub(crate) fn build(
        extractor: &FeatureExtractor,
        signals: &Signals,
        graphs: Vec<SocialGraph>,
    ) -> Result<Self, EngineError> {
        if signals.per_platform.len() != graphs.len() {
            return Err(EngineError::PlatformCountMismatch {
                signals: signals.per_platform.len(),
                graphs: graphs.len(),
            });
        }
        let platforms = signals
            .per_platform
            .iter()
            .zip(graphs)
            .map(|(side, graph)| {
                Arc::new(PlatformProfiles::from_side(
                    side,
                    extractor.profile_cache(side),
                    graph,
                ))
            })
            .collect();
        Ok(ProfileSnapshot {
            platforms,
            window_days: signals.window_days,
            epoch: 0,
        })
    }

    /// Number of platforms the snapshot covers.
    pub fn num_platforms(&self) -> usize {
        self.platforms.len()
    }

    /// One platform's profile store.
    ///
    /// # Panics
    /// Panics when `platform` is out of range.
    #[inline]
    pub fn platform(&self, platform: usize) -> &PlatformProfiles {
        &self.platforms[platform]
    }

    /// The observation window the profiles were extracted over (days).
    pub fn window_days(&self) -> u32 {
        self.window_days
    }

    /// Monotone epoch counter: 0 at build, +1 per published insert — and
    /// exactly +1 per published **batch**, however many accounts it holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Approximate deep heap size of the whole store (see
    /// [`PlatformProfiles::heap_bytes`]) — the 1× memory an engine pays
    /// for profiles regardless of shard count.
    pub fn heap_bytes(&self) -> usize {
        self.platforms.iter().map(|p| p.heap_bytes()).sum()
    }

    /// Validate an ingest batch and publish it as **one** successor epoch
    /// onto `this` (copy-on-insert; in place when the handle is unique):
    /// the spine clone, the epoch bump, and the graph-delta merges are paid
    /// once for the k accounts. Returns the new accounts' platform-local
    /// slots — account `j` lands at `start + j`. A single insert is a batch
    /// of one; k singles and one batch of k leave bitwise-identical
    /// profiles and graphs (`tests/batch_parity.rs`), differing only in
    /// the epoch counter.
    ///
    /// Profiles are taken by value and **moved** into tail entries — the
    /// ingest path never deep-copies a profile; callers needing one
    /// afterwards (index insert, shard adoption) read it back through
    /// `this.platform(p).signal(idx)`. Account `j`'s edge delta may
    /// reference any account below `start + j`, earlier batch members
    /// included.
    ///
    /// **All-or-nothing**: every account's delta is validated (in batch
    /// order, neighbor before weight) before the publication gate — the
    /// `hydra-fault` point named `site`, which the public entry point
    /// chooses (`snapshot.publish` for a single insert,
    /// `snapshot.publish_batch` for a batch) — and nothing is touched until
    /// every check passed, so an erroring insert leaves the snapshot, and
    /// every engine holding a handle to it, exactly as it was. An empty
    /// batch is a no-op: the current epoch stands.
    pub(crate) fn publish_insert_batch(
        this: &mut Arc<Self>,
        platform: usize,
        batch: Vec<(UserSignals, Vec<(u32, f64)>)>,
        site: &'static str,
    ) -> Result<Range<u32>, EngineError> {
        let num_platforms = this.platforms.len();
        let Some(profiles) = this.platforms.get(platform) else {
            return Err(EngineError::PlatformOutOfRange {
                platform,
                num_platforms,
            });
        };
        let start = profiles.len() as u32;
        let slots = start..start + batch.len() as u32;
        for (new_idx, (_, edges)) in slots.clone().zip(&batch) {
            for &(nbr, w) in edges {
                // A neighbor must be an existing account (the new node's
                // own slot is not a valid interaction partner either —
                // self-loops carry no linkage signal and GraphBuilder drops
                // them, but here one would silently vanish, so reject it as
                // out of range).
                if nbr >= new_idx {
                    return Err(EngineError::EdgeNeighborOutOfRange {
                        platform,
                        neighbor: nbr,
                    });
                }
                if !(w > 0.0) {
                    return Err(EngineError::EdgeWeightNotPositive {
                        platform,
                        neighbor: nbr,
                    });
                }
            }
        }
        if batch.is_empty() {
            return Ok(slots);
        }
        // Last failure point before publication: a fault injected here (or
        // a transient in a real store) must leave every holder of `this`
        // untouched — the insert fault sweeps pin exactly that.
        crate::engine::inject_point(site)?;

        // Validated — publish. Every profile is bucketed with the base
        // cache's build parameters (bit-identical to a full rebuild over
        // the grown side); `make_mut` clones the spine only when the epoch
        // is shared (copy-on-insert), a unique handle mutates in place. The
        // span times publication only (validation refusals never
        // contaminate the `ingest.epoch_publish` histogram).
        let _publish = hydra_obs::span("ingest.epoch_publish");
        let entries: Vec<(Arc<ProfileEntry>, Vec<(u32, f64)>)> = batch
            .into_iter()
            .map(|(sig, edges)| {
                let entry = Arc::new(ProfileEntry {
                    buckets: profiles.base.cache.bucket_for(&sig),
                    signal: sig,
                });
                (entry, edges)
            })
            .collect();
        let snap = Arc::make_mut(this);
        snap.epoch += 1;
        hydra_obs::gauge_set("ingest.epoch", snap.epoch as i64);
        let plat = Arc::make_mut(&mut snap.platforms[platform]);
        for (new_idx, (entry, edges)) in slots.clone().zip(entries) {
            plat.tail.push(entry);
            // Graph refresh: pad the snapshot out to the new account's slot
            // (a graph built before earlier edge-less inserts may be
            // behind), then merge the interaction delta.
            while plat.graph.num_nodes() <= new_idx as usize {
                plat.graph.add_node();
            }
            if !edges.is_empty() {
                let delta: Vec<(u32, u32, f64)> =
                    edges.iter().map(|&(nbr, w)| (new_idx, nbr, w)).collect();
                plat.graph.add_edges(&delta);
            }
        }
        Ok(slots)
    }
}

//! Missing-information handling (Section 6.3, Eq. 18).
//!
//! "Previous approaches construct discriminate models where a missing
//! feature is automatically filled with zeros [...] To effectively handle
//! missing information, we fill the missing information by making use of
//! the core social network structure. For each user pair, we denote their
//! top-3 interacting friends as i1, i2, i3, and i′1, i′2, i′3. The average
//! behavior similarity of the social connection of user i and i′ can be
//! calculated as s(i,i′) = Σ_p Σ_q s(i_p, i′_q) / 9 [Eq. 18]. If the
//! information of their friends are still missing, we automatically fill the
//! corresponding dimension as 0."
//!
//! [`FillStrategy::Zero`] is the HYDRA-Z ablation; [`FillStrategy::CoreNetwork`]
//! is HYDRA-M (the full model).
//!
//! The filler works on [`FeatureMatrix`] rows in place and pays only for
//! the dimensions a row is missing: a friend pair is scored through
//! [`FeatureExtractor::pair_features_into`] with the row's missing mask as
//! its `want` set (reusing the sides' [`ProfileCache`]s when provided), so
//! a row missing an attribute never runs its friends' topic, style or
//! sensor scoring. Friend-pair results are memoized per filler as one
//! fixed-size entry — values, missing mask, and the set of dims computed so
//! far — which a later row wanting more widens by exactly the units it
//! lacks; no unit is scored twice for a friend pair, and a row missing
//! every dim costs what a full friend row costs. Each filled value is the
//! same expression over the same friend values in the same order as a
//! full-row evaluation, so fills are bit-identical to one.

use crate::features::{units_covering, FeatureExtractor, FeatureMatrix, FEATURE_DIM};
use crate::signals::{AccountBuckets, ProfileCache, UserSignals};
use crate::snapshot::PlatformProfiles;
use hydra_graph::SocialGraph;
use std::collections::HashMap;

/// How missing feature dimensions are filled before learning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStrategy {
    /// Fill with zeros (HYDRA-Z — the ablation of Figure 15).
    Zero,
    /// Fill from the top-3 interacting friends' average similarity
    /// (HYDRA-M, Eq. 18).
    CoreNetwork,
}

/// One side's profile store as the filler reads it: borrowed slices on the
/// batch (fit-time) path, the shared epoch snapshot on the serving path.
/// Both yield bit-identical fills — the snapshot variant is the same
/// signals/buckets/graph reached through the `Arc`-shared handle instead
/// of per-engine replicas.
enum SideProfiles<'a> {
    Slices {
        signals: &'a [UserSignals],
        cache: Option<&'a ProfileCache>,
        graph: &'a SocialGraph,
    },
    Snapshot(&'a PlatformProfiles),
}

impl<'a> SideProfiles<'a> {
    #[inline]
    fn signal(&self, a: u32) -> &'a UserSignals {
        match self {
            SideProfiles::Slices { signals, .. } => &signals[a as usize],
            SideProfiles::Snapshot(p) => p.signal(a),
        }
    }

    #[inline]
    fn buckets(&self, a: u32) -> Option<&'a AccountBuckets> {
        match self {
            SideProfiles::Slices { cache, .. } => cache.map(|c| &c.accounts[a as usize]),
            SideProfiles::Snapshot(p) => Some(p.buckets(a)),
        }
    }

    #[inline]
    fn graph(&self) -> &'a SocialGraph {
        match self {
            SideProfiles::Slices { graph, .. } => graph,
            SideProfiles::Snapshot(p) => p.graph(),
        }
    }
}

/// An account's top-3 interacting friends (Eq. 18's core network), best
/// first, without a heap allocation per row.
#[derive(Clone, Copy)]
struct Friends {
    ids: [u32; 3],
    len: usize,
}

impl Friends {
    fn as_slice(&self) -> &[u32] {
        &self.ids[..self.len]
    }
}

/// One memoized friend pair: the dims in `have` (always whole units) hold
/// their similarity in `row` and their missing bit in `fmask`; every other
/// dim is still unscored.
struct FriendEntry {
    row: [f64; FEATURE_DIM],
    fmask: u64,
    have: u64,
}

/// Fills missing dimensions of pair feature rows.
pub struct MissingFiller<'a> {
    extractor: &'a FeatureExtractor,
    left: SideProfiles<'a>,
    right: SideProfiles<'a>,
    /// Memoized friend pairs (Eq. 18 reuses them heavily across pairs from
    /// the same neighborhood), widened lazily as rows want more dims.
    cache: HashMap<(u32, u32), FriendEntry>,
    /// The last left account filled and its friends: consecutive rows share
    /// their left account on every serve query and on the left-sorted fit
    /// candidate list.
    last_left: Option<(u32, Friends)>,
    /// Dims scored for friend pairs so far (`fill.friend_dims`).
    friend_dims: u64,
}

impl<'a> MissingFiller<'a> {
    fn with_sides(
        extractor: &'a FeatureExtractor,
        left: SideProfiles<'a>,
        right: SideProfiles<'a>,
    ) -> Self {
        MissingFiller {
            extractor,
            left,
            right,
            cache: HashMap::new(),
            last_left: None,
            friend_dims: 0,
        }
    }

    /// New filler over a platform pair.
    pub fn new(
        extractor: &'a FeatureExtractor,
        left: &'a [UserSignals],
        right: &'a [UserSignals],
        left_graph: &'a SocialGraph,
        right_graph: &'a SocialGraph,
    ) -> Self {
        Self::with_sides(
            extractor,
            SideProfiles::Slices {
                signals: left,
                cache: None,
                graph: left_graph,
            },
            SideProfiles::Slices {
                signals: right,
                cache: None,
                graph: right_graph,
            },
        )
    }

    /// New filler reading both sides through a shared epoch snapshot
    /// ([`crate::snapshot::ProfileSnapshot`]) — the serving path, where
    /// signals, bucket caches, and the Eq. 18 graphs all come from the one
    /// `Arc`-shared store instead of per-engine replicas. Fills are
    /// bit-identical to the slice-based constructor over the same
    /// profiles.
    pub fn over_profiles(
        extractor: &'a FeatureExtractor,
        left: &'a PlatformProfiles,
        right: &'a PlatformProfiles,
    ) -> Self {
        Self::with_sides(
            extractor,
            SideProfiles::Snapshot(left),
            SideProfiles::Snapshot(right),
        )
    }

    /// Provide pre-bucketed series caches so friend-pair features skip
    /// re-bucketing (values are identical either way). The caches must be
    /// built for the extractor's observation window — a cache bucketed over
    /// another window scores different sensor and distribution dims. No-op
    /// on a snapshot-backed filler, whose buckets already come from the
    /// shared store.
    pub fn with_profile_caches(
        mut self,
        left_cache: &'a ProfileCache,
        right_cache: &'a ProfileCache,
    ) -> Self {
        assert_eq!(
            left_cache.window_days, self.extractor.window_days,
            "left cache window mismatch"
        );
        assert_eq!(
            right_cache.window_days, self.extractor.window_days,
            "right cache window mismatch"
        );
        if let SideProfiles::Slices { cache, .. } = &mut self.left {
            *cache = Some(left_cache);
        }
        if let SideProfiles::Slices { cache, .. } = &mut self.right {
            *cache = Some(right_cache);
        }
        self
    }

    /// Apply a fill strategy to every row of a feature matrix in place;
    /// `pairs` is index-aligned with the matrix rows.
    ///
    /// For [`FillStrategy::CoreNetwork`], each missing dimension receives
    /// the average of that dimension over the 3×3 top-friend pairs where the
    /// dimension is observed; dimensions unobserved among friends fall back
    /// to 0, exactly as the paper specifies.
    pub fn fill_matrix(
        &mut self,
        pairs: &[(u32, u32)],
        features: &mut FeatureMatrix,
        strategy: FillStrategy,
    ) {
        assert_eq!(pairs.len(), features.len(), "pairs/rows misaligned");
        match strategy {
            FillStrategy::Zero => {
                // Missing dims already hold 0 — just clear the masks so the
                // learner treats them as observed zeros.
                features.clear_masks();
            }
            FillStrategy::CoreNetwork => {
                let (pairs_before, dims_before) = (self.cache.len(), self.friend_dims);
                for (r, &pair) in pairs.iter().enumerate() {
                    let mask = features.mask(r);
                    if mask != 0 {
                        self.fill_row_core(pair, features.row_mut(r), mask);
                        features.set_mask(r, 0);
                    }
                }
                hydra_obs::counter_add(
                    "fill.friend_pairs",
                    (self.cache.len() - pairs_before) as u64,
                );
                hydra_obs::counter_add("fill.friend_dims", self.friend_dims - dims_before);
            }
        }
    }

    /// Apply a fill strategy to a single row (`values` + missing bitmask).
    pub fn fill_row(
        &mut self,
        pair: (u32, u32),
        values: &mut [f64],
        mask: &mut u64,
        strategy: FillStrategy,
    ) {
        match strategy {
            FillStrategy::Zero => {
                // Unlike [`FeatureMatrix`] rows (which hold zeros at missing
                // dims by construction), an arbitrary caller slice can carry
                // stale values in masked positions — write the zeros.
                for (k, v) in values.iter_mut().enumerate().take(64) {
                    if *mask >> k & 1 == 1 {
                        *v = 0.0;
                    }
                }
                *mask = 0;
            }
            FillStrategy::CoreNetwork => {
                assert_eq!(values.len(), FEATURE_DIM, "row width");
                if *mask != 0 {
                    self.fill_row_core(pair, values, *mask);
                    *mask = 0;
                }
            }
        }
    }

    /// Top-3 interacting friends (descending interaction weight, ties by
    /// ascending id — [`hydra_graph::top_k_friends`]'s order), tolerating
    /// accounts outside the graph: serve-time inserts arrive after the
    /// training graph snapshot, so an out-of-range index simply has no core
    /// network (fill falls back to 0, the paper's "friends missing too"
    /// case) instead of panicking.
    fn known_friends(graph: &SocialGraph, v: u32) -> Friends {
        let mut top = [(0u32, 0.0f64); 3];
        let mut len = 0;
        if (v as usize) < graph.num_nodes() {
            for (id, w) in graph.neighbors(v) {
                let ahead = top[..len]
                    .iter()
                    .take_while(|&&(tid, tw)| tw > w || (tw == w && tid < id))
                    .count();
                if ahead < top.len() {
                    len = (len + 1).min(top.len());
                    top.copy_within(ahead..len - 1, ahead + 1);
                    top[ahead] = (id, w);
                }
            }
        }
        Friends {
            ids: top.map(|(id, _)| id),
            len,
        }
    }

    /// Eq. 18 for one row: average each dim of `mask` over the friend pairs
    /// that observe it, asking every friend pair for `mask`'s units only.
    fn fill_row_core(&mut self, pair: (u32, u32), values: &mut [f64], mask: u64) {
        // A `fill_row` caller's mask may carry bits above the row: not dims.
        let mask = mask & (u64::MAX >> (64 - FEATURE_DIM));
        let friends_l = match self.last_left {
            Some((l, friends)) if l == pair.0 => friends,
            _ => {
                let friends = Self::known_friends(self.left.graph(), pair.0);
                self.last_left = Some((pair.0, friends));
                friends
            }
        };
        let friends_r = Self::known_friends(self.right.graph(), pair.1);
        let want = units_covering(mask);
        let mut sums = [0.0f64; FEATURE_DIM];
        let mut counts = [0u32; FEATURE_DIM];
        for &fl in friends_l.as_slice() {
            for &fr in friends_r.as_slice() {
                let friend = self.friend_features(fl, fr, want);
                let mut observed = mask & !friend.fmask;
                while observed != 0 {
                    let k = observed.trailing_zeros() as usize;
                    sums[k] += friend.row[k];
                    counts[k] += 1;
                    observed &= observed - 1;
                }
            }
        }
        for k in 0..FEATURE_DIM {
            if mask >> k & 1 == 1 {
                values[k] = if counts[k] > 0 {
                    sums[k] / counts[k] as f64
                } else {
                    0.0 // friends missing too → 0 (paper's fallback)
                };
            }
        }
    }

    /// The memoized entry of friend pair `(l, r)`, holding at least the
    /// whole units `want`: a new pair scores all of them, a known one only
    /// those it does not have yet.
    fn friend_features(&mut self, l: u32, r: u32, want: u64) -> &FriendEntry {
        let entry = self.cache.entry((l, r)).or_insert_with(|| FriendEntry {
            row: [0.0; FEATURE_DIM],
            fmask: 0,
            have: 0,
        });
        let need = want & !entry.have;
        if need != 0 {
            let buckets = match (self.left.buckets(l), self.right.buckets(r)) {
                (Some(bl), Some(br)) => Some((bl, br)),
                _ => None,
            };
            entry.fmask |= self.extractor.pair_features_into(
                self.left.signal(l),
                self.right.signal(r),
                buckets,
                need,
                &mut entry.row,
            );
            entry.have |= need;
            self.friend_dims += u64::from(need.count_ones());
        }
        entry
    }

    /// Number of distinct friend pairs evaluated (diagnostics).
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{AttributeImportance, FeatureConfig};
    use crate::signals::{SignalConfig, Signals};
    use hydra_datagen::{Dataset, DatasetConfig};

    struct Fixture {
        dataset: Dataset,
        signals: Signals,
        extractor: FeatureExtractor,
    }

    fn fixture() -> Fixture {
        fixture_over(DatasetConfig::english(50, 77))
    }

    /// The Fig. 15 missingness axes cranked, so rows miss sensor, face and
    /// attribute dims in different combinations.
    fn sparse_fixture() -> Fixture {
        let mut config = DatasetConfig::english(50, 77);
        for p in &mut config.platforms {
            p.missing_multiplier *= 1.5;
            p.image_prob *= 0.5;
            p.checkin_rate *= 0.08;
            p.media_rate *= 0.08;
        }
        fixture_over(config)
    }

    fn fixture_over(config: DatasetConfig) -> Fixture {
        let dataset = Dataset::generate(config);
        let signals = Signals::extract(
            &dataset,
            &SignalConfig {
                lda_iterations: 10,
                infer_iterations: 4,
                ..Default::default()
            },
        );
        let extractor = FeatureExtractor::new(
            FeatureConfig::default(),
            AttributeImportance::default(),
            dataset.config.window_days,
        );
        Fixture {
            dataset,
            signals,
            extractor,
        }
    }

    impl Fixture {
        fn filler(&self) -> MissingFiller<'_> {
            MissingFiller::new(
                &self.extractor,
                &self.signals.per_platform[0],
                &self.signals.per_platform[1],
                &self.dataset.platforms[0].graph,
                &self.dataset.platforms[1].graph,
            )
        }

        fn true_pairs_matrix(&self) -> (Vec<(u32, u32)>, FeatureMatrix) {
            let pairs: Vec<(u32, u32)> = (0..self.dataset.num_persons() as u32)
                .map(|i| (i, i))
                .collect();
            let fm = self.extractor.features_for_pairs(
                &pairs,
                &self.signals.per_platform[0],
                &self.signals.per_platform[1],
                None,
            );
            (pairs, fm)
        }
    }

    #[test]
    fn zero_fill_clears_mask_keeps_zeros() {
        let fx = fixture();
        let mut filler = fx.filler();
        let (pairs, mut fm) = fx.true_pairs_matrix();
        let missing_dims: Vec<(usize, usize)> = (0..fm.len())
            .flat_map(|r| (0..FEATURE_DIM).map(move |k| (r, k)))
            .filter(|&(r, k)| fm.is_missing(r, k))
            .collect();
        filler.fill_matrix(&pairs, &mut fm, FillStrategy::Zero);
        assert!((0..fm.len()).all(|r| fm.mask(r) == 0));
        for (r, k) in missing_dims {
            assert_eq!(fm.row(r)[k], 0.0);
        }
    }

    #[test]
    fn zero_fill_row_zeroes_previously_masked_entries() {
        // Regression: `fill_row` used to clear the mask without writing the
        // zeros, which is only correct for rows holding the FeatureMatrix
        // zeros-at-missing invariant. A caller slice with stale sentinels in
        // the masked dims must come out zeroed.
        let fx = fixture();
        let mut filler = fx.filler();
        let mut values = [7.75f64; FEATURE_DIM];
        let mut mask: u64 = (1 << 0) | (1 << 5) | (1 << (FEATURE_DIM - 1));
        filler.fill_row((0, 0), &mut values, &mut mask, FillStrategy::Zero);
        assert_eq!(mask, 0);
        for (k, v) in values.iter().enumerate() {
            if k == 0 || k == 5 || k == FEATURE_DIM - 1 {
                assert_eq!(*v, 0.0, "masked dim {k} still holds a sentinel");
            } else {
                assert_eq!(*v, 7.75, "observed dim {k} must be untouched");
            }
        }
    }

    #[test]
    fn core_fill_replaces_missing_with_friend_average() {
        let fx = fixture();
        let mut filler = fx.filler();
        let (pairs, mut fm) = fx.true_pairs_matrix();
        let had_missing = (0..fm.len()).any(|r| fm.mask(r) != 0);
        filler.fill_matrix(&pairs, &mut fm, FillStrategy::CoreNetwork);
        assert!(had_missing, "no row had missing dims to exercise filling");
        for r in 0..fm.len() {
            assert_eq!(fm.mask(r), 0, "row {r} still masked");
            assert!(fm.row(r).iter().all(|v| v.is_finite()));
        }
        assert!(filler.cache_size() > 0, "friend features should be cached");
    }

    #[test]
    fn core_fill_produces_nonzero_for_observable_friend_dims() {
        let fx = fixture();
        let mut filler = fx.filler();
        let (pairs, mut fm) = fx.true_pairs_matrix();
        // Aggregate over all true pairs: core filling should inject some
        // non-zero values into previously-missing dims (friends do have
        // observable behavior similarities).
        let missing_dims: Vec<(usize, usize)> = (0..fm.len())
            .flat_map(|r| (0..FEATURE_DIM).map(move |k| (r, k)))
            .filter(|&(r, k)| fm.is_missing(r, k))
            .collect();
        filler.fill_matrix(&pairs, &mut fm, FillStrategy::CoreNetwork);
        let injected = missing_dims
            .iter()
            .filter(|&&(r, k)| fm.row(r)[k] != 0.0)
            .count();
        assert!(injected > 0, "Eq. 18 never injected information");
    }

    #[test]
    fn cache_is_reused_across_pairs() {
        let fx = fixture();
        let mut filler = fx.filler();
        let pairs: Vec<(u32, u32)> = (0..10u32).map(|i| (i, i)).collect();
        let build = || {
            fx.extractor.features_for_pairs(
                &pairs,
                &fx.signals.per_platform[0],
                &fx.signals.per_platform[1],
                None,
            )
        };
        let mut fm = build();
        filler.fill_matrix(&pairs, &mut fm, FillStrategy::CoreNetwork);
        let after_first_pass = filler.cache_size();
        let mut fm2 = build();
        filler.fill_matrix(&pairs, &mut fm2, FillStrategy::CoreNetwork);
        assert_eq!(
            filler.cache_size(),
            after_first_pass,
            "second pass must hit cache"
        );
        assert_eq!(fm, fm2, "filling is deterministic");
    }

    #[test]
    fn cached_profiles_fill_identically() {
        let fx = fixture();
        let (pairs, base) = fx.true_pairs_matrix();
        let mut plain = base.clone();
        fx.filler()
            .fill_matrix(&pairs, &mut plain, FillStrategy::CoreNetwork);

        let left_cache = fx.extractor.profile_cache(&fx.signals.per_platform[0]);
        let right_cache = fx.extractor.profile_cache(&fx.signals.per_platform[1]);
        let mut cached = base.clone();
        fx.filler()
            .with_profile_caches(&left_cache, &right_cache)
            .fill_matrix(&pairs, &mut cached, FillStrategy::CoreNetwork);
        assert_eq!(plain, cached, "Eq. 18 must not depend on the bucket cache");
    }

    /// What the oracle saw: the filled matrix, and per distinct friend pair
    /// the dims its first row was missing and the union over all its rows.
    struct Oracle {
        filled: FeatureMatrix,
        wanted: HashMap<(u32, u32), (u64, u64)>,
    }

    /// Eq. 18 the long way: full 40-dim friend rows (bucketed on the fly),
    /// `top_k_friends` for the core network, a 3×3 average per missing dim
    /// with the paper's zero fallback.
    fn oracle(fx: &Fixture, pairs: &[(u32, u32)], features: &FeatureMatrix) -> Oracle {
        let (lg, rg) = (
            &fx.dataset.platforms[0].graph,
            &fx.dataset.platforms[1].graph,
        );
        let mut filled = FeatureMatrix::with_capacity(pairs.len());
        let mut wanted = HashMap::new();
        for (r, &(l, right)) in pairs.iter().enumerate() {
            let mask = features.mask(r);
            let mut values = features.row(r).to_vec();
            if mask != 0 {
                let mut sums = [0.0f64; FEATURE_DIM];
                let mut counts = [0u32; FEATURE_DIM];
                for fl in hydra_graph::top_k_friends(lg, l, 3) {
                    for fr in hydra_graph::top_k_friends(rg, right, 3) {
                        wanted.entry((fl, fr)).or_insert((mask, 0)).1 |= mask;
                        let mut frow = [0.0f64; FEATURE_DIM];
                        let fmask = fx.extractor.pair_features_into(
                            &fx.signals.per_platform[0][fl as usize],
                            &fx.signals.per_platform[1][fr as usize],
                            None,
                            u64::MAX,
                            &mut frow,
                        );
                        for k in 0..FEATURE_DIM {
                            if fmask >> k & 1 == 0 {
                                sums[k] += frow[k];
                                counts[k] += 1;
                            }
                        }
                    }
                }
                for k in 0..FEATURE_DIM {
                    if mask >> k & 1 == 1 {
                        values[k] = if counts[k] > 0 {
                            sums[k] / counts[k] as f64
                        } else {
                            0.0
                        };
                    }
                }
            }
            filled.push_row(&values, 0);
        }
        Oracle { filled, wanted }
    }

    fn assert_bit_equal(got: &FeatureMatrix, want: &FeatureMatrix, ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: rows");
        for r in 0..got.len() {
            assert_eq!(got.mask(r), want.mask(r), "{ctx}: row {r} mask");
            for k in 0..FEATURE_DIM {
                assert_eq!(
                    got.row(r)[k].to_bits(),
                    want.row(r)[k].to_bits(),
                    "{ctx}: row {r} dim {k}"
                );
            }
        }
    }

    #[test]
    fn masked_fill_equals_full_row_oracle_in_either_row_order() {
        let fx = sparse_fixture();
        let (left, right) = (&fx.signals.per_platform[0], &fx.signals.per_platform[1]);
        let n = fx.dataset.num_persons() as u32;
        let mut pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| (0..6).map(move |d| (i, (i * 7 + d) % n)))
            .collect();

        // Rows missing only attribute / face dims first, rows that also
        // miss behaviour dims after them: friend pairs the two groups share
        // are scored narrow, then widened.
        let narrow = |mask: u64| mask >> crate::features::TOPIC_OFFSET == 0;
        let masks = fx.extractor.features_for_pairs(&pairs, left, right, None);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by_key(|&r| !narrow(masks.mask(r)));
        pairs = order.iter().map(|&r| pairs[r]).collect();
        let wide_rows = order.iter().filter(|&&r| !narrow(masks.mask(r))).count();
        assert!(
            wide_rows > 0 && wide_rows < pairs.len(),
            "world must mix attr-only rows with rows missing behaviour dims ({wide_rows} wide)"
        );

        let left_cache = fx.extractor.profile_cache(left);
        let right_cache = fx.extractor.profile_cache(right);
        let snapshot = crate::snapshot::ProfileSnapshot::build(
            &fx.extractor,
            &fx.signals,
            fx.dataset
                .platforms
                .iter()
                .map(|p| p.graph.clone())
                .collect(),
        )
        .expect("snapshot");

        for reversed in [false, true] {
            if reversed {
                pairs.reverse();
            }
            let base = fx.extractor.features_for_pairs(&pairs, left, right, None);
            let want = oracle(&fx, &pairs, &base);
            // Every unit of a friend pair is scored once, whatever the order.
            let dims_scored: u64 = want
                .wanted
                .values()
                .map(|&(_, all)| u64::from(units_covering(all).count_ones()))
                .sum();
            if !reversed {
                assert!(
                    want.wanted
                        .values()
                        .any(|&(first, all)| narrow(first) && !narrow(all)),
                    "no friend pair is scored narrow first and widened later"
                );
            }

            let fillers = [
                ("new", fx.filler()),
                (
                    "with_profile_caches",
                    fx.filler().with_profile_caches(&left_cache, &right_cache),
                ),
                (
                    "over_profiles",
                    MissingFiller::over_profiles(
                        &fx.extractor,
                        snapshot.platform(0),
                        snapshot.platform(1),
                    ),
                ),
            ];
            for (name, mut filler) in fillers {
                let ctx = format!("{name}, reversed = {reversed}");
                let mut got = base.clone();
                filler.fill_matrix(&pairs, &mut got, FillStrategy::CoreNetwork);
                assert_bit_equal(&got, &want.filled, &ctx);
                assert_eq!(
                    filler.cache_size(),
                    want.wanted.len(),
                    "{ctx}: friend pairs"
                );
                assert_eq!(filler.friend_dims, dims_scored, "{ctx}: friend dims");
            }
        }
    }

    #[test]
    fn single_row_fill_equals_matrix_fill() {
        let fx = sparse_fixture();
        let (pairs, base) = fx.true_pairs_matrix();
        let mut want = base.clone();
        fx.filler()
            .fill_matrix(&pairs, &mut want, FillStrategy::CoreNetwork);
        let mut filler = fx.filler();
        let mut got = FeatureMatrix::with_capacity(pairs.len());
        for (r, &pair) in pairs.iter().enumerate() {
            let mut values = base.row(r).to_vec();
            let mut mask = base.mask(r);
            filler.fill_row(pair, &mut values, &mut mask, FillStrategy::CoreNetwork);
            got.push_row(&values, mask);
        }
        assert_bit_equal(&got, &want, "fill_row vs fill_matrix");
    }

    #[test]
    #[should_panic(expected = "right cache window mismatch")]
    fn profile_cache_of_another_window_is_rejected() {
        // Regression: a cache bucketed over a different observation window
        // used to be accepted and silently changed the sensor fills.
        let fx = fixture();
        let left_cache = fx.extractor.profile_cache(&fx.signals.per_platform[0]);
        let other_window = FeatureExtractor::new(
            FeatureConfig::default(),
            AttributeImportance::default(),
            fx.extractor.window_days / 2,
        );
        let right_cache = other_window.profile_cache(&fx.signals.per_platform[1]);
        let _ = fx.filler().with_profile_caches(&left_cache, &right_cache);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn core_fill_row_rejects_a_short_row() {
        // Regression: a short slice used to die on a bare index panic
        // somewhere inside the fill.
        let fx = fixture();
        let mut values = [0.0f64; FEATURE_DIM - 1];
        let mut mask = 1u64 << (FEATURE_DIM - 1);
        fx.filler()
            .fill_row((0, 0), &mut values, &mut mask, FillStrategy::CoreNetwork);
    }
}

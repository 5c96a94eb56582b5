//! Pairwise similarity-vector assembly (Step 1 of Figure 3).
//!
//! For each candidate pair (i, i′) this module computes the
//! multi-dimensional similarity vector `x_ii'` of Section 5 with an explicit
//! missing-feature mask — the paper is emphatic that missing values "do not
//! exist" rather than being zero (Section 6.3), so every dimension carries a
//! presence bit that the filling strategies of [`crate::missing`] consume.
//!
//! Layout (D = 40):
//!
//! | dims   | feature                                                  |
//! |--------|----------------------------------------------------------|
//! | 0–7    | importance-weighted attribute matches (Eq. 3)            |
//! | 8      | face-match confidence (Figure 4)                         |
//! | 9–14   | topic-distribution similarity at scales 1..32d (Fig. 5)  |
//! | 15–20  | genre-distribution similarity at scales 1..32d           |
//! | 21–26  | sentiment-pattern similarity at scales 1..32d            |
//! | 27–29  | style similarity S_lea at k = 1, 3, 5 (Eq. 4)            |
//! | 30–34  | location sensor, resolutions 1,2,4,8,16d (Eq. 5, Fig. 6) |
//! | 35–39  | near-duplicate media sensor, same resolutions            |
//!
//! Extraction is source-agnostic: it consumes extracted
//! [`UserSignals`] slices, never a concrete dataset type (see
//! [`crate::source::AccountSource`]). At serve time the
//! [`FeatureExtractor`] is reconstructed from a persisted model via
//! [`crate::artifact::LinkageModel::extractor`], so query-time feature
//! vectors are bit-identical to the training-time ones.

use crate::signals::{
    multi_scale_series_similarity, multi_scale_similarity_cached, AccountBuckets, ProfileCache,
    UserSignals,
};
use hydra_datagen::attributes::{AttrValues, ALL_ATTRS, NUM_ATTRS};
use hydra_linalg::kernels::Kernel;
use hydra_temporal::days;
use hydra_temporal::sensors::{
    scan_resolution, scan_resolution_indexed, LocationSensor, MediaSensor,
};
use hydra_text::style::{style_similarity, STYLE_KS};
use hydra_vision::{match_profile_images, FaceClassifier, FaceDetector, FaceMatchOutcome};

/// Distribution-similarity scales (days), exactly the paper's
/// "1, 2, 4, 8, 16 and 32 days".
pub const DIST_SCALES: [u16; 6] = [1, 2, 4, 8, 16, 32];
/// Sensor temporal resolutions (Figure 6's "Scale 1 … Scale 5").
pub const SENSOR_SCALES: [u32; 5] = [1, 2, 4, 8, 16];

/// Total feature dimension.
pub const FEATURE_DIM: usize =
    NUM_ATTRS + 1 + 3 * DIST_SCALES.len() + STYLE_KS.len() + 2 * SENSOR_SCALES.len();

/// Offset of the attribute block.
pub const ATTR_OFFSET: usize = 0;
/// Offset of the face feature.
pub const FACE_OFFSET: usize = NUM_ATTRS;
/// Offset of the topic-similarity block.
pub const TOPIC_OFFSET: usize = FACE_OFFSET + 1;
/// Offset of the genre block.
pub const GENRE_OFFSET: usize = TOPIC_OFFSET + DIST_SCALES.len();
/// Offset of the sentiment block.
pub const SENTI_OFFSET: usize = GENRE_OFFSET + DIST_SCALES.len();
/// Offset of the style block.
pub const STYLE_OFFSET: usize = SENTI_OFFSET + DIST_SCALES.len();
/// Offset of the location-sensor block.
pub const LOCATION_OFFSET: usize = STYLE_OFFSET + STYLE_KS.len();
/// Offset of the media-sensor block.
pub const MEDIA_OFFSET: usize = LOCATION_OFFSET + SENSOR_SCALES.len();

/// A single pair's feature vector plus its missing mask — the allocating
/// per-pair **view**. Batch pipelines store pairs contiguously in a
/// [`FeatureMatrix`] and only materialize this view at API boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct PairFeatures {
    /// Feature values (missing dimensions hold 0 until filled).
    pub values: Vec<f64>,
    /// `true` where the feature could not be observed.
    pub missing: Vec<bool>,
}

impl PairFeatures {
    /// Number of observed (non-missing) dimensions.
    pub fn observed(&self) -> usize {
        self.missing.iter().filter(|m| !**m).count()
    }

    /// Fraction of dimensions missing.
    pub fn missing_fraction(&self) -> f64 {
        self.missing.iter().filter(|m| **m).count() as f64 / self.missing.len() as f64
    }

    /// Missing mask as a bitmask (bit `k` set ⇔ dimension `k` missing).
    pub fn missing_mask(&self) -> u64 {
        self.missing
            .iter()
            .enumerate()
            .fold(0u64, |m, (k, &miss)| if miss { m | (1u64 << k) } else { m })
    }
}

// One `u64` bitmask must cover every feature dimension.
const _: () = assert!(FEATURE_DIM <= 64, "missing bitmask is a u64");

/// Bitmask of the `len` dimensions starting at `offset`.
const fn dims(offset: usize, len: usize) -> u64 {
    ((1u64 << len) - 1) << offset
}

/// Widen a dimension set to whole **units** — the pieces of a row that are
/// computed independently of each other: the attribute block, the
/// topic / genre / sentiment / style blocks (one scoring pass each, however
/// many of their dims are wanted), and every other dim on its own (face,
/// each sensor × scale). Idempotent; bits at or above [`FEATURE_DIM`] are
/// dropped.
pub(crate) fn units_covering(want: u64) -> u64 {
    const BLOCKS: [u64; 5] = [
        dims(ATTR_OFFSET, NUM_ATTRS),
        dims(TOPIC_OFFSET, DIST_SCALES.len()),
        dims(GENRE_OFFSET, DIST_SCALES.len()),
        dims(SENTI_OFFSET, DIST_SCALES.len()),
        dims(STYLE_OFFSET, STYLE_KS.len()),
    ];
    const SINGLES: u64 = dims(FACE_OFFSET, 1)
        | dims(LOCATION_OFFSET, SENSOR_SCALES.len())
        | dims(MEDIA_OFFSET, SENSOR_SCALES.len());
    BLOCKS
        .iter()
        .filter(|&&block| want & block != 0)
        .fold(want & SINGLES, |units, &block| units | block)
}

/// Contiguous struct-of-arrays storage for pair features: a flat
/// `rows × FEATURE_DIM` value buffer plus one missing-bitmask `u64` per
/// row. This is the hot-path representation — one allocation for the whole
/// candidate set instead of two `Vec`s per pair, with rows laid out
/// contiguously for kernel evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    masks: Vec<u64>,
}

impl FeatureMatrix {
    /// Empty matrix with row capacity reserved.
    pub fn with_capacity(rows: usize) -> Self {
        FeatureMatrix {
            data: Vec::with_capacity(rows * FEATURE_DIM),
            masks: Vec::with_capacity(rows),
        }
    }

    /// Number of rows (pairs).
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Row `i` as a `FEATURE_DIM`-length slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * FEATURE_DIM..(i + 1) * FEATURE_DIM]
    }

    /// Mutable row access.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * FEATURE_DIM..(i + 1) * FEATURE_DIM]
    }

    /// Missing bitmask of row `i` (bit `k` set ⇔ dimension `k` missing).
    #[inline]
    pub fn mask(&self, i: usize) -> u64 {
        self.masks[i]
    }

    /// Overwrite the missing bitmask of row `i`.
    pub fn set_mask(&mut self, i: usize, mask: u64) {
        self.masks[i] = mask;
    }

    /// Whether dimension `k` of row `i` is missing.
    #[inline]
    pub fn is_missing(&self, i: usize, k: usize) -> bool {
        self.masks[i] >> k & 1 == 1
    }

    /// Observed (non-missing) dimension count of row `i`.
    pub fn observed(&self, i: usize) -> usize {
        FEATURE_DIM - self.masks[i].count_ones() as usize
    }

    /// Fraction of row `i`'s dimensions that are missing.
    pub fn missing_fraction(&self, i: usize) -> f64 {
        self.masks[i].count_ones() as f64 / FEATURE_DIM as f64
    }

    /// Append a row.
    pub fn push_row(&mut self, values: &[f64], mask: u64) {
        assert_eq!(values.len(), FEATURE_DIM, "row width");
        self.data.extend_from_slice(values);
        self.masks.push(mask);
    }

    /// Append a [`PairFeatures`] view as a row.
    pub fn push_pair(&mut self, pf: &PairFeatures) {
        self.push_row(&pf.values, pf.missing_mask());
    }

    /// Materialize row `i` as an allocating per-pair view (round-trips
    /// exactly with [`FeatureMatrix::push_pair`]).
    pub fn pair_view(&self, i: usize) -> PairFeatures {
        PairFeatures {
            values: self.row(i).to_vec(),
            missing: (0..FEATURE_DIM).map(|k| self.is_missing(i, k)).collect(),
        }
    }

    /// Clear every row's missing mask (the HYDRA-Z zero-fill: missing dims
    /// already hold 0, they just become "observed zeros").
    pub fn clear_masks(&mut self) {
        self.masks.iter_mut().for_each(|m| *m = 0);
    }

    /// Zero one dimension block across all rows (feature-ablation support).
    pub fn zero_block(&mut self, lo: usize, hi: usize) {
        for r in 0..self.len() {
            self.row_mut(r)[lo..hi].iter_mut().for_each(|v| *v = 0.0);
        }
    }

    /// The flat row-major value buffer.
    pub fn values_flat(&self) -> &[f64] {
        &self.data
    }
}

/// Relative attribute importance learned from labeled pairs (Eq. 3):
/// `m_t(k) = PD(k) / (PD(k) + ND(k))`, then ε-smoothed normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeImportance {
    /// Normalized importance per attribute (sums to 1).
    pub weights: [f64; NUM_ATTRS],
}

impl Default for AttributeImportance {
    fn default() -> Self {
        AttributeImportance {
            weights: [1.0 / NUM_ATTRS as f64; NUM_ATTRS],
        }
    }
}

impl AttributeImportance {
    /// Learn from labeled attribute pairs. `pairs` yields
    /// `(left_attrs, right_attrs, is_same_person)`; `epsilon` is the
    /// over-fitting guard of Eq. 3.
    pub fn learn<'a>(
        pairs: impl IntoIterator<Item = (&'a AttrValues, &'a AttrValues, bool)>,
        epsilon: f64,
    ) -> Self {
        let mut pd = [0u64; NUM_ATTRS];
        let mut nd = [0u64; NUM_ATTRS];
        for (a, b, same) in pairs {
            for kind in ALL_ATTRS {
                let k = kind.index();
                if let (Some(x), Some(y)) = (a[k], b[k]) {
                    if x == y {
                        if same {
                            pd[k] += 1;
                        } else {
                            nd[k] += 1;
                        }
                    }
                }
            }
        }
        // m_t(k) = PD / (PD + ND); undefined (never matched) → 0.
        let mut raw = [0.0f64; NUM_ATTRS];
        for k in 0..NUM_ATTRS {
            let denom = (pd[k] + nd[k]) as f64;
            if denom > 0.0 {
                raw[k] = pd[k] as f64 / denom;
            }
        }
        // ε-smoothed normalization: m̄_t(k) = (m + ε) / (Σ m + M_A·ε).
        let sum: f64 = raw.iter().sum();
        let denom = sum + NUM_ATTRS as f64 * epsilon;
        let mut weights = [0.0; NUM_ATTRS];
        for k in 0..NUM_ATTRS {
            weights[k] = (raw[k] + epsilon) / denom;
        }
        AttributeImportance { weights }
    }
}

/// Configuration for pair-feature extraction.
#[derive(Debug, Clone)]
pub struct FeatureConfig {
    /// Kernel for distribution similarities (chi-square or histogram
    /// intersection per Section 5.2).
    pub dist_kernel: Kernel,
    /// l_q pooling exponent of Eq. 5.
    pub q: f64,
    /// Sigmoid slope λ of Eq. 5.
    pub lambda: f64,
    /// Location sensor parameters.
    pub location_sensor: LocationSensor,
    /// Media sensor parameters.
    pub media_sensor: MediaSensor,
    /// Face detector.
    pub detector: FaceDetector,
    /// Face classifier.
    pub classifier: FaceClassifier,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            dist_kernel: Kernel::ChiSquare,
            q: 4.0,
            lambda: 8.0,
            location_sensor: LocationSensor::default(),
            media_sensor: MediaSensor::default(),
            detector: FaceDetector::default(),
            classifier: FaceClassifier::default(),
        }
    }
}

/// Stateful extractor: configuration + learned attribute importance.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    /// Extraction configuration.
    pub config: FeatureConfig,
    /// Eq. 3 weights.
    pub importance: AttributeImportance,
    /// Observation window length in days.
    pub window_days: u32,
}

impl FeatureExtractor {
    /// New extractor over a given observation window.
    pub fn new(config: FeatureConfig, importance: AttributeImportance, window_days: u32) -> Self {
        FeatureExtractor {
            config,
            importance,
            window_days,
        }
    }

    /// Compute the full similarity vector for one pair as an allocating
    /// per-pair view (buckets the distribution series on the fly). Batch
    /// callers should use [`FeatureExtractor::features_for_pairs`].
    pub fn pair_features(&self, a: &UserSignals, b: &UserSignals) -> PairFeatures {
        let mut values = vec![0.0; FEATURE_DIM];
        let mask = self.pair_features_into(a, b, None, u64::MAX, &mut values);
        PairFeatures {
            values,
            missing: (0..FEATURE_DIM).map(|k| mask >> k & 1 == 1).collect(),
        }
    }

    /// Allocation-lean core: write the wanted part of the similarity vector
    /// into `values` (which must be `FEATURE_DIM` long) and return its
    /// missing bitmask. `want` uses the mask's bit layout and is widened to
    /// whole units ([`units_covering`]); exactly those dims are overwritten
    /// and may appear in the returned mask, every other dim of `values` is
    /// left as it was, and a unit nobody wants costs nothing. All-ones
    /// (`u64::MAX`) asks for the full row. A dim's value and mask bit do not
    /// depend on what else is wanted. When `buckets` carries the two
    /// accounts' pre-bucketed series, the distribution blocks reuse them —
    /// otherwise both sides are bucketed on the fly; the resulting floats
    /// are bit-identical either way.
    pub fn pair_features_into(
        &self,
        a: &UserSignals,
        b: &UserSignals,
        buckets: Option<(&AccountBuckets, &AccountBuckets)>,
        want: u64,
        values: &mut [f64],
    ) -> u64 {
        assert_eq!(values.len(), FEATURE_DIM, "row width");
        let want = units_covering(want);
        for (k, v) in values.iter_mut().enumerate() {
            if want >> k & 1 == 1 {
                *v = 0.0;
            }
        }
        let wants = |unit: u64| want & unit != 0;
        let mut mask = 0u64;

        // --- attributes (Eq. 3) ------------------------------------------
        if wants(dims(ATTR_OFFSET, NUM_ATTRS)) {
            for kind in ALL_ATTRS {
                let k = kind.index();
                match (a.attrs[k], b.attrs[k]) {
                    (Some(x), Some(y)) => {
                        // Importance-weighted match, rescaled so a perfect
                        // match on the most discriminative attribute
                        // approaches 1.
                        values[ATTR_OFFSET + k] = if x == y {
                            self.importance.weights[k] * NUM_ATTRS as f64
                        } else {
                            0.0
                        };
                    }
                    _ => mask |= 1 << (ATTR_OFFSET + k),
                }
            }
        }

        // --- face (Figure 4) ----------------------------------------------
        if wants(dims(FACE_OFFSET, 1)) {
            match match_profile_images(
                a.image.as_ref(),
                b.image.as_ref(),
                &self.config.detector,
                &self.config.classifier,
            ) {
                FaceMatchOutcome::Score(s) => values[FACE_OFFSET] = s,
                FaceMatchOutcome::Aborted(_) => mask |= 1 << FACE_OFFSET,
            }
        }

        // --- multi-scale distribution similarities (Figure 5) --------------
        let mut dist_block = |offset: usize, sims: &[f64], counts: &[usize], mask: &mut u64| {
            for (s, (v, c)) in sims.iter().zip(counts.iter()).enumerate() {
                if *c == 0 {
                    *mask |= 1 << (offset + s);
                } else {
                    values[offset + s] = *v;
                }
            }
        };
        match buckets {
            Some((ba, bb)) => {
                for (offset, sa, sb) in [
                    (TOPIC_OFFSET, &ba.topic, &bb.topic),
                    (GENRE_OFFSET, &ba.genre, &bb.genre),
                    (SENTI_OFFSET, &ba.senti, &bb.senti),
                ] {
                    if !wants(dims(offset, DIST_SCALES.len())) {
                        continue;
                    }
                    let (sims, counts) =
                        multi_scale_similarity_cached(sa, sb, self.config.dist_kernel);
                    dist_block(offset, &sims, &counts, &mut mask);
                }
            }
            None => {
                for (offset, da, db) in [
                    (TOPIC_OFFSET, &a.topic_days, &b.topic_days),
                    (GENRE_OFFSET, &a.genre_days, &b.genre_days),
                    (SENTI_OFFSET, &a.senti_days, &b.senti_days),
                ] {
                    if !wants(dims(offset, DIST_SCALES.len())) {
                        continue;
                    }
                    let (sims, counts) = multi_scale_series_similarity(
                        da,
                        db,
                        &DIST_SCALES,
                        self.config.dist_kernel,
                    );
                    dist_block(offset, &sims, &counts, &mut mask);
                }
            }
        }

        // --- style (Eq. 4) --------------------------------------------------
        if wants(dims(STYLE_OFFSET, STYLE_KS.len())) {
            if a.style.words.is_empty() || b.style.words.is_empty() {
                mask |= dims(STYLE_OFFSET, STYLE_KS.len());
            } else {
                for (k, &kk) in STYLE_KS.iter().enumerate() {
                    values[STYLE_OFFSET + k] = style_similarity(&a.style, &b.style, kk);
                }
            }
        }

        // --- multi-resolution sensors (Eq. 5 / Figure 6) --------------------
        // Each sensor × scale is one scan, run only when its dim is wanted.
        let mut put = |dim: usize, (v, active): (f64, usize)| {
            if active == 0 {
                mask |= 1 << dim;
            } else {
                values[dim] = v;
            }
        };
        let (q, lambda) = (self.config.q, self.config.lambda);
        match buckets {
            Some((ba, bb)) => {
                // Pre-indexed windows: per-pair cost is proportional to the
                // two sides' active windows, not the full scan range.
                for s in 0..SENSOR_SCALES.len() {
                    if wants(1 << (LOCATION_OFFSET + s)) {
                        put(
                            LOCATION_OFFSET + s,
                            scan_resolution_indexed(
                                &self.config.location_sensor,
                                &a.checkins,
                                &b.checkins,
                                &ba.checkins.per_scale[s],
                                &bb.checkins.per_scale[s],
                                ba.checkins.total_windows[s],
                                q,
                                lambda,
                            ),
                        );
                    }
                    if wants(1 << (MEDIA_OFFSET + s)) {
                        put(
                            MEDIA_OFFSET + s,
                            scan_resolution_indexed(
                                &self.config.media_sensor,
                                &a.media,
                                &b.media,
                                &ba.media.per_scale[s],
                                &bb.media.per_scale[s],
                                ba.media.total_windows[s],
                                q,
                                lambda,
                            ),
                        );
                    }
                }
            }
            None => {
                let horizon = days(self.window_days as i64);
                for (s, &scale) in SENSOR_SCALES.iter().enumerate() {
                    if wants(1 << (LOCATION_OFFSET + s)) {
                        put(
                            LOCATION_OFFSET + s,
                            scan_resolution(
                                &self.config.location_sensor,
                                &a.checkins,
                                &b.checkins,
                                0,
                                horizon,
                                scale,
                                q,
                                lambda,
                            ),
                        );
                    }
                    if wants(1 << (MEDIA_OFFSET + s)) {
                        put(
                            MEDIA_OFFSET + s,
                            scan_resolution(
                                &self.config.media_sensor,
                                &a.media,
                                &b.media,
                                0,
                                horizon,
                                scale,
                                q,
                                lambda,
                            ),
                        );
                    }
                }
            }
        }

        mask
    }

    /// Build one side's [`ProfileCache`] matching this extractor's scales
    /// and observation window.
    pub fn profile_cache(&self, side: &[UserSignals]) -> ProfileCache {
        ProfileCache::build(side, &DIST_SCALES, &SENSOR_SCALES, self.window_days)
    }

    /// Assemble the feature matrix for a batch of candidate pairs, fanned
    /// out across threads with an order-preserving merge. `caches` are the
    /// two sides' pre-bucketed series ([`ProfileCache::build`]); without
    /// them every pair re-buckets on the fly (identical values, slower).
    pub fn features_for_pairs(
        &self,
        pairs: &[(u32, u32)],
        left: &[UserSignals],
        right: &[UserSignals],
        caches: Option<(&ProfileCache, &ProfileCache)>,
    ) -> FeatureMatrix {
        self.features_for_pairs_threads(pairs, left, right, caches, hydra_par::num_threads())
    }

    /// [`FeatureExtractor::features_for_pairs`] with an explicit worker
    /// count (`1` forces the sequential path; parity tests compare counts).
    pub fn features_for_pairs_threads(
        &self,
        pairs: &[(u32, u32)],
        left: &[UserSignals],
        right: &[UserSignals],
        caches: Option<(&ProfileCache, &ProfileCache)>,
        threads: usize,
    ) -> FeatureMatrix {
        if let Some((cl, cr)) = caches {
            assert_eq!(
                cl.window_days, self.window_days,
                "left cache window mismatch"
            );
            assert_eq!(
                cr.window_days, self.window_days,
                "right cache window mismatch"
            );
        }
        let rows: Vec<([f64; FEATURE_DIM], u64)> =
            hydra_par::par_map_threads(threads, pairs, |_, &(i, j)| {
                let a = &left[i as usize];
                let b = &right[j as usize];
                let buckets =
                    caches.map(|(cl, cr)| (&cl.accounts[i as usize], &cr.accounts[j as usize]));
                let mut values = [0.0f64; FEATURE_DIM];
                let mask = self.pair_features_into(a, b, buckets, u64::MAX, &mut values);
                (values, mask)
            });
        let mut fm = FeatureMatrix::with_capacity(pairs.len());
        for (values, mask) in &rows {
            fm.push_row(values, *mask);
        }
        fm
    }

    /// Serve-path feature assembly reading both sides straight through an
    /// epoch snapshot's profile columns ([`crate::snapshot::ProfileSnapshot`])
    /// — no slices, no replicas, always pre-bucketed. Sequential by design:
    /// the serving fan-out happens across queries, not within one. Values
    /// are bit-identical to [`FeatureExtractor::features_for_pairs`] over
    /// the same accounts with their caches supplied.
    pub(crate) fn features_for_profile_pairs(
        &self,
        pairs: &[(u32, u32)],
        left: &crate::snapshot::PlatformProfiles,
        right: &crate::snapshot::PlatformProfiles,
    ) -> FeatureMatrix {
        let mut fm = FeatureMatrix::with_capacity(pairs.len());
        let mut values = [0.0f64; FEATURE_DIM];
        for &(i, j) in pairs {
            let mask = self.pair_features_into(
                left.signal(i),
                right.signal(j),
                Some((left.buckets(i), right.buckets(j))),
                u64::MAX,
                &mut values,
            );
            fm.push_row(&values, mask);
        }
        fm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{SignalConfig, Signals};
    use hydra_datagen::{Dataset, DatasetConfig};

    fn setup() -> (Dataset, Signals, FeatureExtractor) {
        let d = Dataset::generate(DatasetConfig::english(40, 33));
        let s = Signals::extract(
            &d,
            &SignalConfig {
                lda_iterations: 15,
                infer_iterations: 5,
                ..Default::default()
            },
        );
        let fx = FeatureExtractor::new(
            FeatureConfig::default(),
            AttributeImportance::default(),
            d.config.window_days,
        );
        (d, s, fx)
    }

    #[test]
    fn layout_offsets_are_consistent() {
        assert_eq!(FEATURE_DIM, 40);
        assert_eq!(FACE_OFFSET, 8);
        assert_eq!(TOPIC_OFFSET, 9);
        assert_eq!(GENRE_OFFSET, 15);
        assert_eq!(SENTI_OFFSET, 21);
        assert_eq!(STYLE_OFFSET, 27);
        assert_eq!(LOCATION_OFFSET, 30);
        assert_eq!(MEDIA_OFFSET, 35);
        assert_eq!(MEDIA_OFFSET + SENSOR_SCALES.len(), FEATURE_DIM);
    }

    #[test]
    fn units_cover_whole_blocks_and_single_dims() {
        assert_eq!(units_covering(0), 0);
        assert_eq!(units_covering(u64::MAX), dims(0, FEATURE_DIM));
        // One attribute asks for the attribute block; face stays out of it.
        assert_eq!(units_covering(1 << 3), dims(ATTR_OFFSET, NUM_ATTRS));
        // Face and each sensor × scale are their own unit.
        let singles = 1 << FACE_OFFSET | 1 << (LOCATION_OFFSET + 2) | 1 << MEDIA_OFFSET;
        assert_eq!(units_covering(singles), singles);
        // One scale of a distribution block asks for all six; idempotent.
        let genre = units_covering(1 << (GENRE_OFFSET + 4));
        assert_eq!(genre, dims(GENRE_OFFSET, DIST_SCALES.len()));
        assert_eq!(units_covering(genre), genre);
        // Every dim belongs to exactly one unit.
        for k in 0..FEATURE_DIM {
            let unit = units_covering(1 << k);
            assert!(unit >> k & 1 == 1, "dim {k} outside its unit");
            for j in (0..FEATURE_DIM).filter(|j| unit >> j & 1 == 1) {
                assert_eq!(units_covering(1 << j), unit, "dims {k} and {j}");
            }
        }
    }

    #[test]
    fn importance_learns_discriminative_attributes() {
        use hydra_datagen::attributes::AttrKind;
        // Synthetic labeled set: email matches only on positives; gender
        // matches on positives AND negatives (common value).
        let mk = |email: u64, gender: u64| -> AttrValues {
            let mut a: AttrValues = [None; NUM_ATTRS];
            a[AttrKind::Email.index()] = Some(email);
            a[AttrKind::Gender.index()] = Some(gender);
            a
        };
        let pos_l = mk(1, 0);
        let pos_r = mk(1, 0);
        let neg_l = mk(2, 0);
        let neg_r = mk(3, 0);
        let pairs = vec![
            (&pos_l, &pos_r, true),
            (&pos_l, &pos_r, true),
            (&neg_l, &neg_r, false),
            (&neg_l, &neg_r, false),
        ];
        let imp = AttributeImportance::learn(pairs, 0.01);
        let e = imp.weights[AttrKind::Email.index()];
        let g = imp.weights[AttrKind::Gender.index()];
        assert!(e > g, "email {e} should outweigh gender {g}");
        let total: f64 = imp.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn importance_handles_empty_input() {
        let imp = AttributeImportance::learn(Vec::<(&AttrValues, &AttrValues, bool)>::new(), 0.01);
        // Uniform under no evidence.
        for w in imp.weights {
            assert!((w - 1.0 / NUM_ATTRS as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn feature_vectors_have_fixed_dim_and_valid_mask() {
        let (d, s, fx) = setup();
        for i in 0..d.num_persons().min(10) {
            let f = fx.pair_features(s.account(0, i), s.account(1, i));
            assert_eq!(f.values.len(), FEATURE_DIM);
            assert_eq!(f.missing.len(), FEATURE_DIM);
            for (v, m) in f.values.iter().zip(f.missing.iter()) {
                assert!(v.is_finite());
                if *m {
                    assert_eq!(*v, 0.0, "missing dims must hold 0 before filling");
                }
            }
        }
    }

    #[test]
    fn same_person_scores_above_random_pairs() {
        let (d, s, fx) = setup();
        let n = d.num_persons();
        let mut same_sum = 0.0;
        let mut cross_sum = 0.0;
        for i in 0..n {
            let same = fx.pair_features(s.account(0, i), s.account(1, i));
            let cross = fx.pair_features(s.account(0, i), s.account(1, (i + 13) % n));
            same_sum += same.values.iter().sum::<f64>();
            cross_sum += cross.values.iter().sum::<f64>();
        }
        assert!(
            same_sum > cross_sum * 1.2,
            "same {same_sum} vs cross {cross_sum}"
        );
    }

    #[test]
    fn missingness_is_substantial_but_not_total() {
        let (d, s, fx) = setup();
        let mut fractions = Vec::new();
        for i in 0..d.num_persons() {
            let f = fx.pair_features(s.account(0, i), s.account(1, i));
            fractions.push(f.missing_fraction());
        }
        let mean: f64 = fractions.iter().sum::<f64>() / fractions.len() as f64;
        assert!(mean > 0.05, "expected real missingness, got {mean}");
        assert!(mean < 0.9, "missingness too extreme: {mean}");
    }

    #[test]
    fn style_block_zero_for_disjoint_profiles() {
        let (_d, s, fx) = setup();
        // Two different persons — signature pools are disjoint, so style
        // match should be (near) zero.
        let f = fx.pair_features(s.account(0, 0), s.account(1, 20));
        for k in 0..STYLE_KS.len() {
            assert!(f.values[STYLE_OFFSET + k] <= 0.5);
        }
    }

    #[test]
    fn feature_matrix_round_trips_pair_views() {
        let (d, s, fx) = setup();
        let mut fm = FeatureMatrix::with_capacity(8);
        let mut views = Vec::new();
        for i in 0..d.num_persons().min(8) {
            let pf = fx.pair_features(s.account(0, i), s.account(1, i));
            fm.push_pair(&pf);
            views.push(pf);
        }
        assert_eq!(fm.len(), views.len());
        for (i, pf) in views.iter().enumerate() {
            assert_eq!(&fm.pair_view(i), pf, "row {i} round trip");
            assert_eq!(fm.mask(i), pf.missing_mask());
            assert_eq!(fm.observed(i), pf.observed());
            assert!((fm.missing_fraction(i) - pf.missing_fraction()).abs() < 1e-15);
        }
        // Flat buffer is row-major and contiguous.
        assert_eq!(fm.values_flat().len(), fm.len() * FEATURE_DIM);
        assert_eq!(&fm.values_flat()[FEATURE_DIM..2 * FEATURE_DIM], fm.row(1));
    }

    #[test]
    fn feature_matrix_mask_invariants() {
        let (d, s, fx) = setup();
        let pairs: Vec<(u32, u32)> = (0..d.num_persons() as u32)
            .map(|i| (i, (i + 7) % d.num_persons() as u32))
            .collect();
        let fm = fx.features_for_pairs(&pairs, &s.per_platform[0], &s.per_platform[1], None);
        for i in 0..fm.len() {
            // No mask bits beyond FEATURE_DIM.
            assert_eq!(fm.mask(i) >> FEATURE_DIM, 0, "row {i} stray mask bits");
            // Missing dims hold zero until filled.
            for k in 0..FEATURE_DIM {
                if fm.is_missing(i, k) {
                    assert_eq!(fm.row(i)[k], 0.0, "row {i} dim {k}");
                }
                assert!(fm.row(i)[k].is_finite());
            }
        }
    }

    #[test]
    fn batch_assembly_matches_per_pair_path_bit_exactly() {
        let (d, s, fx) = setup();
        let n = d.num_persons() as u32;
        let pairs: Vec<(u32, u32)> = (0..n).flat_map(|i| [(i, i), (i, (i + 3) % n)]).collect();
        let left_cache = fx.profile_cache(&s.per_platform[0]);
        let right_cache = fx.profile_cache(&s.per_platform[1]);
        let cached = fx.features_for_pairs(
            &pairs,
            &s.per_platform[0],
            &s.per_platform[1],
            Some((&left_cache, &right_cache)),
        );
        for (r, &(i, j)) in pairs.iter().enumerate() {
            let direct = fx.pair_features(s.account(0, i as usize), s.account(1, j as usize));
            assert_eq!(cached.row(r), direct.values.as_slice(), "row {r} values");
            assert_eq!(cached.mask(r), direct.missing_mask(), "row {r} mask");
        }
    }

    #[test]
    fn attr_block_respects_importance_weighting() {
        let (_, s, _) = setup();
        let mut weights = [0.01; NUM_ATTRS];
        weights[0] = 1.0 - 0.07; // gender massively over-weighted
        let fx = FeatureExtractor::new(
            FeatureConfig::default(),
            AttributeImportance { weights },
            64,
        );
        let f = fx.pair_features(s.account(0, 1), s.account(1, 1));
        // If gender observed and matched, its feature must dominate others.
        if !f.missing[0] && f.values[0] > 0.0 {
            for k in 1..NUM_ATTRS {
                assert!(f.values[0] >= f.values[k]);
            }
        }
    }
}

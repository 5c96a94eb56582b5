//! Per-account signal extraction: from raw platform data to the long-term
//! behavior representations Section 5 consumes.
//!
//! Everything pairwise feature extraction needs is computed **once per
//! account** here: per-day aggregated topic/genre/sentiment distributions
//! (the finest resolution of Figure 5 — coarser scales merge days on the
//! fly), the unique-word style profile (Section 5.3), and the long-term
//! behavior embedding used by the structure-consistency affinities of
//! Eq. 9.

use crate::source::{AccountSource, AccountView};
use hydra_linalg::kernels::Kernel;
use hydra_linalg::vec_ops::normalize_l1;
use hydra_temporal::{GeoPoint, MediaItem, Timeline, SECONDS_PER_DAY};
use hydra_text::sentiment::NUM_SENTIMENTS;
use hydra_text::{FoldInScratch, FoldInTables, LdaModel, UniqueWordProfile};
use hydra_vision::ProfileImage;

/// Sparse per-day distribution series: `days[k]` is the day index of the
/// `k`-th row of `dists` (sorted ascending, one entry per active day).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaySeries {
    /// Active day indices, ascending.
    pub days: Vec<u16>,
    /// L1-normalized distribution per active day.
    pub dists: DayDists,
}

/// The per-day distributions of a [`DaySeries`], stored as one flat
/// row-major buffer: row `k` is `flat[k * dim..(k + 1) * dim]`. One
/// allocation per series instead of one per active day, which is what
/// extraction, decoding and cloning a population spend their time on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DayDists {
    rows: usize,
    dim: usize,
    flat: Vec<f64>,
}

impl DayDists {
    /// Rows in order, each `dim` values wide.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |k| &self.flat[k * self.dim..(k + 1) * self.dim])
    }

    /// L1-normalize every row in place.
    fn normalize_rows(&mut self) {
        for row in self.flat.chunks_mut(self.dim.max(1)) {
            normalize_l1(row);
        }
    }
}

impl DaySeries {
    /// Build from (day, distribution) accumulation: entries on the same day
    /// are summed then normalized.
    ///
    /// # Panics
    /// Panics when the distributions do not all have the same width.
    pub fn from_events(mut events: Vec<(u16, Vec<f64>)>) -> Self {
        events.sort_by_key(|e| e.0);
        let dim = events.first().map_or(0, |e| e.1.len());
        let mut days = Vec::new();
        let mut flat: Vec<f64> = Vec::with_capacity(events.len() * dim);
        for (d, dist) in events {
            assert_eq!(dist.len(), dim, "day-series distributions differ in width");
            if days.last() == Some(&d) {
                let off = flat.len() - dim;
                for (a, v) in flat[off..].iter_mut().zip(dist.iter()) {
                    *a += v;
                }
            } else {
                days.push(d);
                flat.extend_from_slice(&dist);
            }
        }
        let mut dists = DayDists {
            rows: days.len(),
            dim,
            flat,
        };
        dists.normalize_rows();
        DaySeries { days, dists }
    }

    /// A series over `days` whose `k`-th distribution is
    /// `flat[k * dim..(k + 1) * dim]`, taken as given (decoders check the
    /// days ascend first).
    ///
    /// # Panics
    /// Panics when `flat.len() != days.len() * dim`.
    pub fn from_flat(days: Vec<u16>, dim: usize, flat: Vec<f64>) -> Self {
        assert_eq!(
            Some(flat.len()),
            days.len().checked_mul(dim),
            "flat day-series buffer does not hold one {dim}-wide row per day"
        );
        DaySeries {
            dists: DayDists {
                rows: days.len(),
                // An empty series has no width, however it was built, so
                // equal series compare equal.
                dim: if days.is_empty() { 0 } else { dim },
                flat,
            },
            days,
        }
    }

    /// Number of active days.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// True when the series has no active day.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// Merge active days into buckets of `scale_days`, returning
    /// `(bucket_index, distribution)` pairs in ascending bucket order.
    pub fn bucketed(&self, scale_days: u16) -> Vec<(u16, Vec<f64>)> {
        assert!(scale_days >= 1);
        let mut out: Vec<(u16, Vec<f64>)> = Vec::new();
        for (d, dist) in self.days.iter().zip(self.dists.iter()) {
            let b = d / scale_days;
            match out.last_mut() {
                Some((lb, acc)) if *lb == b => {
                    for (a, v) in acc.iter_mut().zip(dist.iter()) {
                        *a += v;
                    }
                }
                _ => out.push((b, dist.to_vec())),
            }
        }
        for (_, d) in out.iter_mut() {
            normalize_l1(d);
        }
        out
    }

    /// Long-term mean distribution over all active days (uniform over the
    /// empty series).
    fn long_term_mean(&self, dim: usize) -> Vec<f64> {
        let mut acc = vec![0.0; dim];
        for d in self.dists.iter() {
            for (a, v) in acc.iter_mut().zip(d.iter()) {
                *a += v;
            }
        }
        normalize_l1(&mut acc);
        acc
    }

    /// Approximate heap size (length-based; ignores allocator slack).
    pub fn heap_bytes(&self) -> usize {
        self.days.len() * std::mem::size_of::<u16>()
            + self.dists.flat.len() * std::mem::size_of::<f64>()
    }
}

/// Merge-join two bucketed series: average kernel similarity over buckets
/// active on both sides, plus the matched-bucket count (0 ⇒ the feature is
/// missing at that scale). Shared by the on-the-fly and cached paths so
/// they produce bit-identical values.
#[inline]
pub(crate) fn merged_bucket_similarity(
    ba: &[(u16, Vec<f64>)],
    bb: &[(u16, Vec<f64>)],
    kernel: Kernel,
) -> (f64, usize) {
    let mut total = 0.0;
    let mut matched = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ba.len() && j < bb.len() {
        match ba[i].0.cmp(&bb[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                total += kernel.eval(&ba[i].1, &bb[j].1);
                matched += 1;
                i += 1;
                j += 1;
            }
        }
    }
    if matched == 0 {
        (0.0, 0)
    } else {
        (total / matched as f64, matched)
    }
}

/// Figure-5 multi-scale similarity on two day series: per-scale kernel
/// similarity averaged over buckets where both series are active. Returns
/// `(similarities, matched_bucket_counts)` — a zero count marks the feature
/// as missing at that scale.
///
/// Buckets both series on the fly; batch callers should pre-bucket once per
/// account via [`BucketedSeries`] / [`ProfileCache`] instead (the results
/// are identical, this path re-buckets per call).
pub fn multi_scale_series_similarity(
    a: &DaySeries,
    b: &DaySeries,
    scales: &[u16],
    kernel: Kernel,
) -> (Vec<f64>, Vec<usize>) {
    let mut sims = Vec::with_capacity(scales.len());
    let mut counts = Vec::with_capacity(scales.len());
    for &s in scales {
        let ba = a.bucketed(s);
        let bb = b.bucketed(s);
        let (v, matched) = merged_bucket_similarity(&ba, &bb, kernel);
        sims.push(v);
        counts.push(matched);
    }
    (sims, counts)
}

/// One scale's buckets in flat storage: bucket ids plus an id-aligned
/// row-major value buffer (`flat[i*dim..(i+1)*dim]` is bucket `ids[i]`'s
/// L1-normalized distribution).
#[derive(Debug, Clone)]
pub struct ScaleBuckets {
    /// Active bucket indices, ascending.
    pub ids: Vec<u16>,
    /// Distributions, one `dim`-wide chunk per id.
    pub flat: Vec<f64>,
}

/// One day series pre-bucketed at every similarity scale, in contiguous
/// storage.
///
/// The legacy pair-feature path re-bucketed both sides of every pair at all
/// six scales (36 `bucketed` calls — and a fresh `Vec` per bucket — per
/// pair); bucketing is a per-*account* computation, so the batch pipeline
/// does it exactly once per account, flat, and shares the result across all
/// of that account's candidate pairs.
#[derive(Debug, Clone)]
pub struct BucketedSeries {
    /// Distribution width (0 for an empty series).
    pub dim: usize,
    /// One entry per scale.
    pub per_scale: Vec<ScaleBuckets>,
}

impl BucketedSeries {
    /// Bucket a series at each scale — same accumulate-then-normalize
    /// arithmetic as [`DaySeries::bucketed`], so values are bit-identical.
    pub fn build(series: &DaySeries, scales: &[u16]) -> Self {
        let dim = series.dists.dim;
        let per_scale = scales
            .iter()
            .map(|&scale| {
                assert!(scale >= 1);
                let mut ids: Vec<u16> = Vec::new();
                let mut flat: Vec<f64> = Vec::new();
                for (d, dist) in series.days.iter().zip(series.dists.iter()) {
                    let b = d / scale;
                    if ids.last() == Some(&b) {
                        let off = flat.len() - dim;
                        for (acc, v) in flat[off..].iter_mut().zip(dist.iter()) {
                            *acc += v;
                        }
                    } else {
                        ids.push(b);
                        flat.extend_from_slice(dist);
                    }
                }
                for chunk in flat.chunks_mut(dim.max(1)) {
                    normalize_l1(chunk);
                }
                ScaleBuckets { ids, flat }
            })
            .collect();
        BucketedSeries { dim, per_scale }
    }

    /// Approximate heap size (length-based; ignores allocator slack).
    pub fn heap_bytes(&self) -> usize {
        self.per_scale.len() * std::mem::size_of::<ScaleBuckets>()
            + self
                .per_scale
                .iter()
                .map(|s| {
                    s.ids.len() * std::mem::size_of::<u16>()
                        + s.flat.len() * std::mem::size_of::<f64>()
                })
                .sum::<usize>()
    }
}

/// Multi-scale similarity over pre-bucketed series — bit-identical to
/// [`multi_scale_series_similarity`] on the originating [`DaySeries`].
///
/// The kernel dispatch is hoisted out of the merge loop (monomorphized per
/// kernel variant), so each matched bucket costs one inlined evaluation.
pub fn multi_scale_similarity_cached(
    a: &BucketedSeries,
    b: &BucketedSeries,
    kernel: Kernel,
) -> (Vec<f64>, Vec<usize>) {
    // Per-bucket arithmetic identical to `Kernel::eval`'s arms.
    #[inline]
    fn chi2(x: &[f64], y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&p, &q) in x.iter().zip(y.iter()) {
            let s = p + q;
            if s > 0.0 {
                acc += 2.0 * p * q / s;
            }
        }
        acc
    }
    #[inline]
    fn hist(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y.iter()).map(|(&p, &q)| p.min(q)).sum()
    }
    match kernel {
        Kernel::ChiSquare => merge_cached_scales(a, b, chi2),
        Kernel::HistIntersection => merge_cached_scales(a, b, hist),
        other => merge_cached_scales(a, b, move |x, y| other.eval(x, y)),
    }
}

fn merge_cached_scales<F: Fn(&[f64], &[f64]) -> f64>(
    a: &BucketedSeries,
    b: &BucketedSeries,
    eval: F,
) -> (Vec<f64>, Vec<usize>) {
    debug_assert_eq!(a.per_scale.len(), b.per_scale.len());
    let mut sims = Vec::with_capacity(a.per_scale.len());
    let mut counts = Vec::with_capacity(a.per_scale.len());
    for (sa, sb) in a.per_scale.iter().zip(b.per_scale.iter()) {
        let mut total = 0.0;
        let mut matched = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < sa.ids.len() && j < sb.ids.len() {
            match sa.ids[i].cmp(&sb.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    total += eval(
                        &sa.flat[i * a.dim..(i + 1) * a.dim],
                        &sb.flat[j * b.dim..(j + 1) * b.dim],
                    );
                    matched += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        if matched == 0 {
            sims.push(0.0);
            counts.push(0);
        } else {
            sims.push(total / matched as f64);
            counts.push(matched);
        }
    }
    (sims, counts)
}

/// Pre-bucketed series and sensor window indexes for one account.
#[derive(Debug, Clone)]
pub struct AccountBuckets {
    /// Topic series at every scale.
    pub topic: BucketedSeries,
    /// Genre series at every scale.
    pub genre: BucketedSeries,
    /// Sentiment series at every scale.
    pub senti: BucketedSeries,
    /// Check-in timeline windows per sensor scale.
    pub checkins: hydra_temporal::sensors::WindowIndex,
    /// Media timeline windows per sensor scale.
    pub media: hydra_temporal::sensors::WindowIndex,
}

impl AccountBuckets {
    /// Approximate heap size (length-based; ignores allocator slack).
    pub fn heap_bytes(&self) -> usize {
        self.topic.heap_bytes()
            + self.genre.heap_bytes()
            + self.senti.heap_bytes()
            + self.checkins.heap_bytes()
            + self.media.heap_bytes()
    }
}

/// Per-platform cache of [`AccountBuckets`], built once per side and reused
/// by candidate-pair feature assembly and Eq.-18 friend-pair filling.
///
/// The build parameters are retained so accounts arriving after training
/// bucket exactly like the original build: the serving layer's
/// [`ProfileSnapshot`](crate::snapshot::ProfileSnapshot) holds one cache
/// per platform as its immutable base and buckets its ingest tail through
/// [`ProfileCache::bucket_for`].
#[derive(Debug, Clone)]
pub struct ProfileCache {
    /// One entry per account, index-aligned with the signals slice.
    pub accounts: Vec<AccountBuckets>,
    /// Observation window the sensor indexes were built over.
    pub window_days: u32,
    /// Distribution-similarity scales the series were bucketed at.
    pub scales: Vec<u16>,
    /// Sensor temporal resolutions the window indexes were built at.
    pub sensor_scales: Vec<u32>,
}

impl ProfileCache {
    /// Build the cache (parallel over accounts). `scales` are the
    /// distribution-similarity scales, `sensor_scales` the sensor temporal
    /// resolutions, `window_days` the observation window.
    pub fn build(
        side: &[UserSignals],
        scales: &[u16],
        sensor_scales: &[u32],
        window_days: u32,
    ) -> Self {
        Self::build_threads(
            side,
            scales,
            sensor_scales,
            window_days,
            hydra_par::num_threads(),
        )
    }

    /// [`ProfileCache::build`] with an explicit worker count.
    fn build_threads(
        side: &[UserSignals],
        scales: &[u16],
        sensor_scales: &[u32],
        window_days: u32,
        threads: usize,
    ) -> Self {
        let horizon = hydra_temporal::days(window_days as i64);
        ProfileCache {
            accounts: hydra_par::par_map_threads(threads, side, |_, sig| {
                Self::bucket_account(sig, scales, sensor_scales, horizon)
            }),
            window_days,
            scales: scales.to_vec(),
            sensor_scales: sensor_scales.to_vec(),
        }
    }

    fn bucket_account(
        sig: &UserSignals,
        scales: &[u16],
        sensor_scales: &[u32],
        horizon: hydra_temporal::Timestamp,
    ) -> AccountBuckets {
        use hydra_temporal::sensors::WindowIndex;
        AccountBuckets {
            topic: BucketedSeries::build(&sig.topic_days, scales),
            genre: BucketedSeries::build(&sig.genre_days, scales),
            senti: BucketedSeries::build(&sig.senti_days, scales),
            checkins: WindowIndex::build(&sig.checkins, 0, horizon, sensor_scales),
            media: WindowIndex::build(&sig.media, 0, horizon, sensor_scales),
        }
    }

    /// Bucket one account with the scales and window this cache was built
    /// with, without storing it — the entry is bit-identical to what a full
    /// rebuild over a side containing the account would hold. The epoch
    /// snapshot ([`crate::snapshot::ProfileSnapshot`]) buckets ingest-tail
    /// entries through this, so tail profiles match base ones exactly.
    pub fn bucket_for(&self, sig: &UserSignals) -> AccountBuckets {
        let horizon = hydra_temporal::days(self.window_days as i64);
        Self::bucket_account(sig, &self.scales, &self.sensor_scales, horizon)
    }

    /// Number of cached accounts.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Whether the cache holds no account.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Approximate heap size (length-based; ignores allocator slack).
    pub fn heap_bytes(&self) -> usize {
        self.accounts.len() * std::mem::size_of::<AccountBuckets>()
            + self
                .accounts
                .iter()
                .map(AccountBuckets::heap_bytes)
                .sum::<usize>()
            + self.scales.len() * std::mem::size_of::<u16>()
            + self.sensor_scales.len() * std::mem::size_of::<u32>()
    }
}

/// Everything the pair-feature pipeline needs about one account.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSignals {
    /// Ground-truth person (used only for labeling/evaluation, never as a
    /// feature).
    pub person: u32,
    /// Username copy for candidate generation.
    pub username: String,
    /// Projected profile attributes.
    pub attrs: hydra_datagen::attributes::AttrValues,
    /// Profile image, if any.
    pub image: Option<ProfileImage>,
    /// Per-day LDA topic distributions.
    pub topic_days: DaySeries,
    /// Per-day genre distributions.
    pub genre_days: DaySeries,
    /// Per-day sentiment distributions.
    pub senti_days: DaySeries,
    /// Top unique words (Section 5.3).
    pub style: UniqueWordProfile,
    /// Long-term behavior embedding `x_i` (topic ‖ genre ‖ sentiment means)
    /// entering Eq. 9.
    pub embedding: Vec<f64>,
    /// Check-in stream for the location sensor.
    pub checkins: Timeline<GeoPoint>,
    /// Media stream for the near-duplicate sensor.
    pub media: Timeline<MediaItem>,
}

impl UserSignals {
    /// A blank account (no behavior at all) — placeholder for removed
    /// serving-side accounts and a base for hand-built test fixtures.
    pub fn empty() -> Self {
        UserSignals {
            person: u32::MAX,
            username: String::new(),
            attrs: [None; hydra_datagen::attributes::NUM_ATTRS],
            image: None,
            topic_days: DaySeries::default(),
            genre_days: DaySeries::default(),
            senti_days: DaySeries::default(),
            style: UniqueWordProfile { words: Vec::new() },
            embedding: Vec::new(),
            checkins: Timeline::from_events(Vec::new()),
            media: Timeline::from_events(Vec::new()),
        }
    }

    /// Approximate deep heap size of one account's behavioral state
    /// (length-based; ignores allocator slack) — the per-account memory
    /// term the shared profile snapshot keeps at 1× across shards.
    pub fn heap_bytes(&self) -> usize {
        self.username.len()
            + self.image.as_ref().map_or(0, ProfileImage::heap_bytes)
            + self.topic_days.heap_bytes()
            + self.genre_days.heap_bytes()
            + self.senti_days.heap_bytes()
            + self.style.heap_bytes()
            + self.embedding.len() * std::mem::size_of::<f64>()
            + self.checkins.heap_bytes()
            + self.media.heap_bytes()
    }
}

/// Configuration for signal extraction.
#[derive(Debug, Clone)]
pub struct SignalConfig {
    /// LDA topic count (defaults to the generator's latent topic count, but
    /// the model does not get the latent assignments — only raw tokens).
    pub num_topics: usize,
    /// LDA training sweeps.
    pub lda_iterations: usize,
    /// Maximum number of posts sampled for LDA training.
    pub lda_sample_cap: usize,
    /// Gibbs sweeps for per-post inference.
    pub infer_iterations: usize,
    /// Unique words retained per account (≥ 5 for Eq. 4's k values).
    pub style_words: usize,
    /// Seed for LDA.
    pub seed: u64,
}

impl Default for SignalConfig {
    fn default() -> Self {
        SignalConfig {
            num_topics: 8,
            lda_iterations: 40,
            lda_sample_cap: 8000,
            infer_iterations: 12,
            style_words: 5,
            seed: 0xD1CE,
        }
    }
}

/// The extracted signals for a whole dataset.
#[derive(Debug, Clone)]
pub struct Signals {
    /// `per_platform[p][a]` — signals of account `a` on platform `p`.
    pub per_platform: Vec<Vec<UserSignals>>,
    /// Observation window length in days.
    pub window_days: u32,
    /// The trained topic model (exposed for diagnostics).
    pub lda: LdaModel,
}

impl Signals {
    /// Run the full extraction pipeline over any [`AccountSource`] (a
    /// generated [`Dataset`](hydra_datagen::Dataset) is one).
    ///
    /// This is the batch-only path: it trains the same LDA model and
    /// sentiment lexicon as [`Signals::extract_with_extractor`] (signals
    /// are bit-identical between the two) but skips the extractor-specific
    /// extras — the vocabulary snapshot clone and the username language
    /// model — that only online ingest needs.
    pub fn extract<S: AccountSource + ?Sized>(source: &S, config: &SignalConfig) -> Signals {
        let (lda, lexicon) = crate::ingest::train_extraction_core(source, config);
        let vocab = source.vocab();
        // Precompute word-id → sentiment weights for fast per-post scoring.
        let senti = SentiIndex::build(vocab, &lexicon);
        let num_genres = source.num_genres();
        let style_index = StyleIndex::build(vocab);

        let mut per_platform = Vec::with_capacity(source.num_platforms());
        for p in 0..source.num_platforms() {
            let n = source.num_accounts(p);
            let mut sigs = Vec::with_capacity(n);
            for ai in 0..n as u32 {
                sigs.push(extract_account(
                    source.account(p, ai),
                    ai,
                    vocab,
                    &lda,
                    None,
                    &style_index,
                    &senti,
                    num_genres,
                    config,
                ));
            }
            per_platform.push(sigs);
        }

        Signals {
            per_platform,
            window_days: source.window_days(),
            lda,
        }
    }

    /// [`Signals::extract`], additionally returning the frozen
    /// [`SignalExtractor`](crate::ingest::SignalExtractor) the corpus was
    /// extracted with — the trained LDA model, sentiment lexicon, vocabulary
    /// snapshot, and username language model packaged as a persistable
    /// artifact, so accounts that arrive *after* training fold into the
    /// same signal space ([`SignalExtractor::extract_account`](crate::ingest::SignalExtractor::extract_account))
    /// without re-touching the corpus.
    pub fn extract_with_extractor<S: AccountSource + ?Sized>(
        source: &S,
        config: &SignalConfig,
    ) -> (Signals, crate::ingest::SignalExtractor) {
        let extractor = crate::ingest::SignalExtractor::fit(source, config);

        // --- per-account extraction ----------------------------------------
        let mut per_platform = Vec::with_capacity(source.num_platforms());
        for p in 0..source.num_platforms() {
            let n = source.num_accounts(p);
            let mut sigs = Vec::with_capacity(n);
            for ai in 0..n as u32 {
                sigs.push(extractor.extract_account(source.account(p, ai), ai));
            }
            per_platform.push(sigs);
        }

        let signals = Signals {
            per_platform,
            window_days: source.window_days(),
            lda: extractor.lda().clone(),
        };
        (signals, extractor)
    }

    /// Signals of account `a` on platform `p`.
    pub fn account(&self, platform: usize, account: usize) -> &UserSignals {
        &self.per_platform[platform][account]
    }
}

/// Per-word-id style metadata precomputed over a frozen [`Vocabulary`]:
/// corpus term frequency plus whether the word is a style candidate at all
/// (longer than one char and not a stop word). The style profile ranks an
/// account's distinct words by global rarity; resolving `word(id)` and
/// binary-searching the stop list per distinct word per account dominated
/// extraction, and every lookup is against frozen data — so build the
/// answers once per extractor and index by word id.
#[derive(Debug, Clone)]
pub(crate) struct StyleIndex {
    /// Per-id record: corpus term frequency in the low 63 bits, candidacy
    /// flag in the top bit — one cache line touched per distinct id instead
    /// of two parallel lookups.
    meta: Vec<u64>,
}

impl StyleIndex {
    const KEEP: u64 = 1 << 63;

    pub(crate) fn build(vocab: &hydra_text::Vocabulary) -> StyleIndex {
        let meta = (0..vocab.len() as u32)
            .map(|id| {
                let tf = vocab.term_frequency(id);
                debug_assert!(tf < Self::KEEP);
                let w = vocab.word(id);
                if w.len() > 1 && !hydra_text::tokenize::is_stop_word(w) {
                    tf | Self::KEEP
                } else {
                    tf
                }
            })
            .collect();
        StyleIndex { meta }
    }

    /// Term frequency of `id` when it is a style candidate, `None` when it
    /// is a stop word, single char, or out of vocabulary.
    #[inline]
    fn candidate_tf(&self, id: u32) -> Option<u64> {
        let m = *self.meta.get(id as usize)?;
        if m & Self::KEEP != 0 {
            Some(m & !Self::KEEP)
        } else {
            None
        }
    }
}

/// Word-id → sentiment-weights lookup in cache-compact form: a 4-byte
/// per-id index (`u32::MAX` = no lexicon entry) into a small dense row
/// table. The naive `Vec<Option<[f64; 7]>>` layout costs 64 bytes per
/// vocabulary word, so every token lookup was a cold-cache miss; the index
/// array is 16× smaller and the rows (lexicon words only) stay hot.
#[derive(Debug, Clone)]
pub(crate) struct SentiIndex {
    idx: Vec<u32>,
    rows: Vec<[f64; NUM_SENTIMENTS]>,
}

impl SentiIndex {
    pub(crate) fn build(
        vocab: &hydra_text::Vocabulary,
        lexicon: &hydra_text::sentiment::SentimentLexicon,
    ) -> SentiIndex {
        let mut idx = Vec::with_capacity(vocab.len());
        let mut rows = Vec::new();
        for id in 0..vocab.len() as u32 {
            match lexicon.word_weights(vocab.word(id)) {
                Some(w) => {
                    idx.push(rows.len() as u32);
                    rows.push(*w);
                }
                None => idx.push(u32::MAX),
            }
        }
        SentiIndex { idx, rows }
    }

    #[inline]
    fn weights(&self, id: u32) -> Option<&[f64; NUM_SENTIMENTS]> {
        let i = *self.idx.get(id as usize)?;
        self.rows.get(i as usize)
    }
}

/// Epoch-stamped distinct-token counter, reused across accounts on the same
/// worker thread: `count[id]` is valid only when `stamp[id] == epoch`, so
/// "resetting" for the next account is one integer increment instead of
/// zeroing a vocabulary-sized buffer. Counting a token is two array writes —
/// no hashing, no sorting — and `touched` records first-occurrence order so
/// the candidate pass only visits the account's distinct ids. Per-account
/// output is independent of counter history, so results don't depend on
/// which worker processed which account.
#[derive(Default)]
struct TokenCounter {
    /// Per-id `(stamp << 32) | count` — one word so counting a token
    /// touches one cache line, not two parallel arrays.
    slots: Vec<u64>,
    touched: Vec<u32>,
    epoch: u32,
}

impl TokenCounter {
    /// Start a new account; O(1) except on epoch wrap-around (every 2³²
    /// accounts per thread) where the stamps are hard-cleared.
    fn begin(&mut self) {
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn add(&mut self, id: u32) {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots
                .resize(i + 1, (self.epoch.wrapping_sub(1) as u64) << 32);
        }
        let e = self.slots[i];
        if (e >> 32) as u32 == self.epoch {
            self.slots[i] = e + 1;
        } else {
            self.slots[i] = ((self.epoch as u64) << 32) | 1;
            self.touched.push(id);
        }
    }

    /// Count of `id` in the current account (valid only for touched ids).
    #[inline]
    fn count(&self, id: u32) -> u64 {
        self.slots[id as usize] & u32::MAX as u64
    }
}

thread_local! {
    static TOKEN_COUNTER: std::cell::RefCell<TokenCounter> =
        std::cell::RefCell::new(TokenCounter::default());
}

/// Per-day distribution accumulator building a [`DaySeries`] directly from
/// the post stream, without the intermediate per-post event vectors (and
/// their per-post allocations + stable sort) of [`DaySeries::from_events`].
///
/// Bit-parity with the event path: `from_events` stable-sorts by day, so
/// same-day events accumulate in stream order onto the *first* occurrence's
/// slot — exactly what `slot` reproduces (append on new max day, sorted
/// insert on the rare out-of-order day). Slots start at zero and the first
/// event is added elementwise; `0.0 + x == x` bitwise for every value the
/// pipeline produces (θ and genre/sentiment masses are never `-0.0`), so
/// the accumulated totals — and the final `normalize_l1` — are
/// bit-identical to the historical path.
struct DayAcc {
    dim: usize,
    days: Vec<u16>,
    /// One `dim`-wide accumulator per entry of `days`, row-major.
    flat: Vec<f64>,
}

impl DayAcc {
    fn new(dim: usize) -> Self {
        DayAcc {
            dim,
            days: Vec::new(),
            flat: Vec::new(),
        }
    }

    /// `day`'s accumulator row, inserting a zeroed one if absent.
    #[inline]
    fn slot(&mut self, day: u16) -> &mut [f64] {
        let dim = self.dim;
        let i = match self.days.last() {
            Some(&d) if d == day => self.days.len() - 1,
            Some(&d) if d > day => match self.days.binary_search(&day) {
                Ok(i) => i,
                Err(i) => {
                    self.days.insert(i, day);
                    self.flat
                        .splice(i * dim..i * dim, std::iter::repeat_n(0.0, dim));
                    i
                }
            },
            _ => {
                self.days.push(day);
                self.flat.resize(self.flat.len() + dim, 0.0);
                self.days.len() - 1
            }
        };
        &mut self.flat[i * dim..(i + 1) * dim]
    }

    #[inline]
    fn add(&mut self, day: u16, vals: &[f64]) {
        for (a, v) in self.slot(day).iter_mut().zip(vals) {
            *a += v;
        }
    }

    #[inline]
    fn add_one_hot(&mut self, day: u16, pos: usize) {
        self.slot(day)[pos] += 1.0;
    }

    fn finish(self) -> DaySeries {
        let mut series = DaySeries::from_flat(self.days, self.dim, self.flat);
        series.dists.normalize_rows();
        series
    }
}

/// Extract one account's signals, given a raw [`AccountView`] — the shared
/// core of corpus extraction and the serving layer's per-account
/// [`SignalExtractor::extract_account`](crate::ingest::SignalExtractor::extract_account):
/// identical inputs (including the account index, which seeds per-post LDA
/// inference) produce bit-identical signals on both paths.
///
/// `fold_in_tables` selects the per-post LDA fold-in: `None` runs the
/// reference [`LdaModel::infer`] (the historical bit-pinned path); `Some`
/// runs the deterministic [`FoldInMode::Tables`](hydra_text::FoldInMode::Tables)
/// kernel over the given precomputed tables, reusing one scratch across
/// all of the account's posts. Neither depends on extraction order, so
/// either mode is thread- and shard-count-invariant.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extract_account(
    account: AccountView<'_>,
    account_idx: u32,
    vocab: &hydra_text::Vocabulary,
    lda: &LdaModel,
    fold_in_tables: Option<&FoldInTables>,
    style_index: &StyleIndex,
    senti: &SentiIndex,
    num_genres: usize,
    config: &SignalConfig,
) -> UserSignals {
    let num_topics = config.num_topics;

    let mut topic_acc = DayAcc::new(num_topics);
    let mut genre_acc = DayAcc::new(num_genres);
    let mut senti_acc = DayAcc::new(NUM_SENTIMENTS);
    let mut scratch = FoldInScratch::default();
    let mut theta = Vec::with_capacity(num_topics);
    // Borrow this worker's token counter for the duration of the account
    // (put back below; a fresh default is rebuilt if extraction panics).
    let mut counter = TOKEN_COUNTER.with(|c| std::mem::take(&mut *c.borrow_mut()));
    counter.begin();

    for (t, post) in account.posts.iter() {
        let day = (*t / SECONDS_PER_DAY) as u16;

        // Topic distribution via LDA fold-in (Section 5.2). The inference
        // seed mixes the account and timestamp for determinism (the Tables
        // kernel is seed-free and ignores it).
        let seed = config.seed ^ (account_idx as u64) << 20 ^ *t as u64;
        match fold_in_tables {
            None => theta = lda.infer(&post.tokens, config.infer_iterations, seed),
            Some(tables) => {
                tables.infer_into(
                    &post.tokens,
                    config.infer_iterations,
                    seed,
                    &mut scratch,
                    &mut theta,
                );
            }
        }
        topic_acc.add(day, &theta);

        // Genre: platform-assigned label → one-hot.
        genre_acc.add_one_hot(day, (post.genre as usize).min(num_genres - 1));

        // Sentiment: lexicon-weighted distribution; the same token pass
        // feeds the distinct-word counter for the style profile.
        let mut s = [0.0f64; NUM_SENTIMENTS];
        let mut hits = 0usize;
        for &tok in &post.tokens {
            if let Some(w) = senti.weights(tok) {
                for (a, v) in s.iter_mut().zip(w.iter()) {
                    *a += v;
                }
                hits += 1;
            }
            counter.add(tok);
        }
        if hits == 0 {
            s[3] = 1.0; // neutral point mass
        }
        senti_acc.add(day, &s);
    }

    let topic_days = topic_acc.finish();
    let genre_days = genre_acc.finish();
    let senti_days = senti_acc.finish();

    // Style: rank the account's tokens by global rarity (Section 5.3).
    // Distinct counts come straight off the stamped counter (no hashing or
    // sorting of the token stream), and rarity/stop-word metadata from the
    // precomputed per-id `StyleIndex`. The ranking key
    // `(tf asc, own desc, id asc)` is a total order (ids are unique), so a
    // bounded insertion scan keeping the `style_words` best yields
    // bit-identical output to the historical full sort over hash-map
    // iteration order — and almost every distinct id is rejected by one
    // term-frequency compare against the current worst, without even
    // reading its own count.
    let rank = |a: &(u32, u64, u64), b: &(u32, u64, u64)| {
        a.1.cmp(&b.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0))
    };
    let k_top = config.style_words;
    let mut top: Vec<(u32, u64, u64)> = Vec::with_capacity(k_top + 1);
    if k_top > 0 {
        for &id in &counter.touched {
            if let Some(tf) = style_index.candidate_tf(id) {
                if top.len() == k_top {
                    let worst = *top.last().expect("non-empty at capacity");
                    if tf > worst.1 {
                        continue;
                    }
                    let cand = (id, tf, counter.count(id));
                    if rank(&cand, &worst) != std::cmp::Ordering::Less {
                        continue;
                    }
                    top.pop();
                    let pos = top.partition_point(|e| rank(e, &cand) == std::cmp::Ordering::Less);
                    top.insert(pos, cand);
                } else {
                    let cand = (id, tf, counter.count(id));
                    let pos = top.partition_point(|e| rank(e, &cand) == std::cmp::Ordering::Less);
                    top.insert(pos, cand);
                }
            }
        }
    }
    TOKEN_COUNTER.with(|c| *c.borrow_mut() = counter);
    let style = UniqueWordProfile {
        words: top
            .into_iter()
            .map(|(id, _, _)| vocab.word(id).to_string())
            .collect(),
    };

    // Behavior embedding x_i (Eq. 9): concatenated long-term means. Each
    // block is a probability distribution, so ‖x_i − x_j‖² ≤ 6.
    let mut embedding = topic_days.long_term_mean(num_topics);
    embedding.extend(genre_days.long_term_mean(num_genres));
    embedding.extend(senti_days.long_term_mean(NUM_SENTIMENTS));

    UserSignals {
        person: account.person,
        username: account.username.to_string(),
        attrs: *account.attrs,
        image: account.image.cloned(),
        topic_days,
        genre_days,
        senti_days,
        style,
        embedding,
        checkins: account.checkins.clone(),
        media: account.media.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_datagen::{Dataset, DatasetConfig};

    fn small_signals() -> (Dataset, Signals) {
        let d = Dataset::generate(DatasetConfig::english(40, 21));
        let s = Signals::extract(
            &d,
            &SignalConfig {
                lda_iterations: 15,
                infer_iterations: 5,
                ..Default::default()
            },
        );
        (d, s)
    }

    #[test]
    fn day_series_merges_same_day() {
        let s = DaySeries::from_events(vec![
            (3, vec![1.0, 0.0]),
            (1, vec![0.0, 1.0]),
            (3, vec![1.0, 0.0]),
        ]);
        assert_eq!(s.days, vec![1, 3]);
        let rows: Vec<&[f64]> = s.dists.iter().collect();
        assert_eq!(rows, [[0.0, 1.0], [1.0, 0.0]]);
    }

    #[test]
    fn day_series_bucketing_matches_temporal_crate() {
        // Cross-validate the on-the-fly bucketing against the generic
        // implementation in hydra-temporal.
        use hydra_temporal::{bucket_distributions, BucketConfig, Timeline};
        let events = vec![
            (2u16, vec![0.9, 0.1]),
            (5, vec![0.2, 0.8]),
            (17, vec![0.5, 0.5]),
            (40, vec![1.0, 0.0]),
        ];
        let series = DaySeries::from_events(events.clone());
        let tl = Timeline::from_events(
            events
                .iter()
                .map(|(d, dist)| (*d as i64 * SECONDS_PER_DAY + 100, dist.clone()))
                .collect(),
        );
        let cfg = BucketConfig::new(0, 64 * SECONDS_PER_DAY);
        for scale in [1u16, 2, 4, 8, 16, 32] {
            let fast = series.bucketed(scale);
            let slow = bucket_distributions(&tl, cfg, scale as u32);
            for (b, dist) in &fast {
                let expect = slow[*b as usize].as_ref().expect("bucket present");
                for (x, y) in dist.iter().zip(expect.iter()) {
                    assert!((x - y).abs() < 1e-9, "scale {scale} bucket {b}");
                }
            }
            assert_eq!(fast.len(), slow.iter().filter(|b| b.is_some()).count());
        }
    }

    #[test]
    fn multi_scale_self_similarity_is_one() {
        let s = DaySeries::from_events(vec![(1, vec![0.5, 0.5]), (9, vec![0.9, 0.1])]);
        let (sims, counts) =
            multi_scale_series_similarity(&s, &s, &[1, 2, 4, 8, 16, 32], Kernel::ChiSquare);
        for (v, c) in sims.iter().zip(counts.iter()) {
            assert!(*c > 0);
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn asynchrony_recovered_at_coarse_scale() {
        let a = DaySeries::from_events(vec![(2, vec![1.0, 0.0])]);
        let b = DaySeries::from_events(vec![(6, vec![1.0, 0.0])]);
        let (sims, counts) = multi_scale_series_similarity(&a, &b, &[1, 8], Kernel::ChiSquare);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 1);
        assert!((sims[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn extraction_covers_all_accounts() {
        let (d, s) = small_signals();
        assert_eq!(s.per_platform.len(), 2);
        for p in 0..2 {
            assert_eq!(s.per_platform[p].len(), d.num_persons());
            for sig in &s.per_platform[p] {
                assert!(!sig.topic_days.is_empty(), "accounts always post");
                assert_eq!(sig.embedding.len(), 8 + 10 + 4);
                let sum: f64 = sig.embedding.iter().sum();
                assert!((sum - 3.0).abs() < 1e-6, "3 stacked distributions");
            }
        }
    }

    #[test]
    fn same_person_embeddings_closer_than_random() {
        let (d, s) = small_signals();
        let n = d.num_persons();
        let mut same = 0.0;
        let mut cross = 0.0;
        for i in 0..n {
            let a = &s.account(0, i).embedding;
            let b = &s.account(1, i).embedding;
            let c = &s.account(1, (i + 11) % n).embedding;
            same += hydra_linalg::vec_ops::sq_dist(a, b);
            cross += hydra_linalg::vec_ops::sq_dist(a, c);
        }
        assert!(
            same < cross * 0.8,
            "same-person embedding distance {same} not below cross {cross}"
        );
    }

    #[test]
    fn style_profiles_capture_signatures() {
        let (d, s) = small_signals();
        // Signature words are globally rare, so they should dominate the
        // style profiles; count how many accounts have at least one
        // signature word in their profile.
        let mut hits = 0usize;
        for i in 0..d.num_persons() {
            let sig_words = &d.persons[i].signature_words;
            let profile = &s.account(0, i).style;
            if profile.words.iter().any(|w| sig_words.contains(w)) {
                hits += 1;
            }
        }
        assert!(
            hits * 2 > d.num_persons(),
            "only {hits}/{} profiles carry a signature",
            d.num_persons()
        );
    }

    #[test]
    fn long_term_mean_of_empty_is_uniform() {
        let s = DaySeries::default();
        assert_eq!(s.long_term_mean(4), vec![0.25; 4]);
        assert!(s.is_empty());
    }
}

//! Online ingest: the frozen [`SignalExtractor`] artifact that folds a
//! single raw account into the *trained* signal space.
//!
//! Batch extraction ([`Signals::extract`](crate::signals::Signals::extract))
//! trains an LDA topic model, learns a sentiment lexicon, and snapshots the
//! corpus vocabulary — then extracts every account against them. Serving a
//! brand-new account (the paper's deployment story: accounts arrive
//! continuously, Sections 6.3 / 7.5) must **not** re-run any of that
//! training; it needs the same frozen state applied to one payload. That is
//! exactly what [`SignalExtractor`] is:
//!
//! * the trained [`LdaModel`] (per-post topics via deterministic fold-in
//!   [`LdaModel::infer`]),
//! * the learned [`SentimentLexicon`] (and the word-id → weight table
//!   derived from it),
//! * the corpus [`Vocabulary`] snapshot (style rarity ranking, token ids),
//! * a username [`CharNgramLm`] (rarity diagnostics for ingest triage, in
//!   the spirit of Alias-Disamb's name-rarity evidence),
//! * the [`SignalConfig`] plus the corpus constants (genre count,
//!   observation window).
//!
//! [`SignalExtractor::extract_account`] runs the *same* per-account code
//! path as corpus extraction, so for identical payload + account index the
//! produced [`UserSignals`] are **bit-identical** to the batch ones
//! (`tests/ingest_parity.rs` pins this), and a `save` → `load` round trip
//! preserves that bit-for-bit.
//!
//! ## Wire format
//!
//! A sibling of the `HYLM` model format, magic `HYSX`:
//!
//! ```text
//! magic "HYSX" | version u16 | kind u8 | [kind 1: model_len u64 | HYLM bytes]
//!             | fingerprint u64 | payload_len u64 | payload
//! ```
//!
//! `kind 0` is a standalone extractor; `kind 1` is a [`ServingArtifact`]
//! bundling the extractor with its [`LinkageModel`], so one file cold-starts
//! a complete serving process (load → extract → insert → query). Floats are
//! stored by IEEE-754 bit pattern and `fingerprint` is FNV-1a over the
//! payload, so corruption loads as a [`ModelIoError`], never a panic, and a
//! loaded extractor produces byte-identical signals.

use crate::artifact::{fnv1a, load_bytes, write_atomic, LinkageModel, ModelIoError, Reader};
use crate::signals::{extract_account, SignalConfig, UserSignals};
use crate::source::{AccountSource, AccountView};
use bytes::{BufMut, BytesMut};
use hydra_datagen::attributes::AttrValues;
use hydra_datagen::events::Post;
use hydra_temporal::{GeoPoint, MediaItem, Timeline};
use hydra_text::sentiment::NUM_SENTIMENTS;
pub use hydra_text::FoldInMode;
use hydra_text::{CharNgramLm, FoldInTables, LdaModel, LdaOptions, SentimentLexicon, Vocabulary};
use hydra_vision::ProfileImage;
use std::sync::{Arc, OnceLock};

/// Wire-format magic (sibling of the model's `HYLM`).
const MAGIC: [u8; 4] = *b"HYSX";
/// Current wire-format version.
const VERSION: u16 = 1;
/// Section kind: standalone extractor.
const KIND_EXTRACTOR: u8 = 0;
/// Section kind: extractor bundled with its linkage model.
const KIND_BUNDLE: u8 = 1;

/// Username language-model order (trained over the corpus usernames).
const USERNAME_LM_ORDER: usize = 3;
/// Username language-model smoothing.
const USERNAME_LM_DELTA: f64 = 0.1;

/// An owned raw-account payload — the ingest-side counterpart of the
/// borrowed [`AccountView`]: what a production feed hands the extractor for
/// an account that was never part of any training corpus.
#[derive(Debug, Clone)]
pub struct RawAccount {
    /// Ground-truth person id where known (evaluation only; sources without
    /// ground truth leave the default).
    pub person: u32,
    /// Platform username.
    pub username: String,
    /// Profile attributes (missing values are `None`).
    pub attrs: AttrValues,
    /// Profile image, if any.
    pub image: Option<ProfileImage>,
    /// Textual messages.
    pub posts: Timeline<Post>,
    /// Location check-ins.
    pub checkins: Timeline<GeoPoint>,
    /// Media shares.
    pub media: Timeline<MediaItem>,
}

impl RawAccount {
    /// An empty payload (no behavior at all) to fill in field by field.
    pub fn new(username: impl Into<String>) -> Self {
        RawAccount {
            person: u32::MAX,
            username: username.into(),
            attrs: [None; hydra_datagen::attributes::NUM_ATTRS],
            image: None,
            posts: Timeline::from_events(Vec::new()),
            checkins: Timeline::from_events(Vec::new()),
            media: Timeline::from_events(Vec::new()),
        }
    }

    /// Deep-copy a borrowed [`AccountView`] into an owned payload.
    pub fn from_view(view: AccountView<'_>) -> Self {
        RawAccount {
            person: view.person,
            username: view.username.to_string(),
            attrs: *view.attrs,
            image: view.image.cloned(),
            posts: view.posts.clone(),
            checkins: view.checkins.clone(),
            media: view.media.clone(),
        }
    }

    /// Borrow as the [`AccountView`] the extraction core consumes.
    pub fn view(&self) -> AccountView<'_> {
        AccountView {
            person: self.person,
            username: &self.username,
            attrs: &self.attrs,
            image: self.image.as_ref(),
            posts: &self.posts,
            checkins: &self.checkins,
            media: &self.media,
        }
    }
}

/// The frozen, persistable signal-extraction artifact (see the module
/// docs). Produced by
/// [`Signals::extract_with_extractor`](crate::signals::Signals::extract_with_extractor)
/// alongside the corpus signals, or loaded from disk.
#[derive(Debug, Clone)]
pub struct SignalExtractor {
    vocab: Vocabulary,
    lda: LdaModel,
    lexicon: SentimentLexicon,
    username_lm: CharNgramLm,
    config: SignalConfig,
    num_genres: usize,
    window_days: u32,
    /// Word-id → sentiment weights in cache-compact form, derived from
    /// `lexicon` + `vocab` (never serialized; rebuilt deterministically on
    /// construction).
    senti: crate::signals::SentiIndex,
    /// Runtime fold-in sampler selection (never serialized — a runtime
    /// serving knob, not part of the frozen artifact; defaults to
    /// [`FoldInMode::Reference`]).
    fold_in: FoldInMode,
    /// Per-word sampling tables for [`FoldInMode::Tables`], built lazily
    /// once over the frozen LDA counts and shared across every extraction
    /// (never serialized; derived state like `senti`).
    fold_in_tables: OnceLock<Arc<FoldInTables>>,
    /// Per-word-id style metadata (term frequency + candidate flag),
    /// derived from `vocab` on construction (never serialized).
    style_index: crate::signals::StyleIndex,
}

/// The corpus-trained pieces batch extraction needs (LDA + lexicon) —
/// shared between [`SignalExtractor::fit`] and the batch-only path in
/// [`crate::signals::Signals::extract`], which skips the
/// extractor-specific extras (vocabulary snapshot clone, username LM).
pub(crate) fn train_extraction_core<S: AccountSource + ?Sized>(
    source: &S,
    config: &SignalConfig,
) -> (LdaModel, SentimentLexicon) {
    let vocab = source.vocab();

    // --- LDA over a training sample of messages (Section 5.2) -------------
    let mut corpus: Vec<Vec<u32>> = Vec::new();
    'outer: for p in 0..source.num_platforms() {
        for a in 0..source.num_accounts(p) as u32 {
            for (_, post) in source.account(p, a).posts.iter() {
                corpus.push(post.tokens.clone());
                if corpus.len() >= config.lda_sample_cap {
                    break 'outer;
                }
            }
        }
    }
    let lda = LdaModel::train(
        &corpus,
        vocab.len().max(1),
        LdaOptions {
            num_topics: config.num_topics,
            iterations: config.lda_iterations,
            seed: config.seed,
            ..Default::default()
        },
    );

    // --- sentiment lexicon: seeds + corpus expansion -----------------------
    let mut lexicon = SentimentLexicon::from_seeds(
        hydra_datagen::words::sentiment_seeds()
            .iter()
            .map(|(w, s)| (w.as_str(), *s)),
    );
    // One co-occurrence pass over a sample (strings via the vocabulary).
    let sample_msgs: Vec<Vec<String>> = corpus
        .iter()
        .take(2000)
        .map(|doc| doc.iter().map(|&id| vocab.word(id).to_string()).collect())
        .collect();
    lexicon.learn_from_corpus(&sample_msgs, 0.3);

    (lda, lexicon)
}

impl SignalExtractor {
    /// Train the extraction state over a corpus: the LDA sample sweep, the
    /// seed + co-occurrence sentiment lexicon, the vocabulary snapshot, and
    /// the username language model. The LDA/lexicon training is the
    /// one-time cost batch extraction already pays — the extractor
    /// additionally snapshots the vocabulary and trains the username LM,
    /// after which [`SignalExtractor::extract_account`] folds any payload
    /// into that space without touching the corpus again.
    pub fn fit<S: AccountSource + ?Sized>(source: &S, config: &SignalConfig) -> Self {
        let (lda, lexicon) = train_extraction_core(source, config);

        // --- username language model over every corpus username ------------
        let mut username_lm = CharNgramLm::new(USERNAME_LM_ORDER, USERNAME_LM_DELTA);
        for p in 0..source.num_platforms() {
            for a in 0..source.num_accounts(p) as u32 {
                username_lm.train([source.account(p, a).username]);
            }
        }

        Self::from_parts(
            source.vocab().clone(),
            lda,
            lexicon,
            username_lm,
            config.clone(),
            source.num_genres(),
            source.window_days(),
        )
    }

    /// Assemble an extractor from already-trained parts (the deserializer's
    /// entry point; also useful for hand-built test fixtures). The word-id →
    /// sentiment table is derived here, deterministically.
    pub fn from_parts(
        vocab: Vocabulary,
        lda: LdaModel,
        lexicon: SentimentLexicon,
        username_lm: CharNgramLm,
        config: SignalConfig,
        num_genres: usize,
        window_days: u32,
    ) -> Self {
        let senti = crate::signals::SentiIndex::build(&vocab, &lexicon);
        let style_index = crate::signals::StyleIndex::build(&vocab);
        SignalExtractor {
            vocab,
            lda,
            lexicon,
            username_lm,
            config,
            num_genres,
            window_days,
            senti,
            fold_in: FoldInMode::default(),
            fold_in_tables: OnceLock::new(),
            style_index,
        }
    }

    /// The fold-in sampler extraction currently runs with.
    pub fn fold_in_mode(&self) -> FoldInMode {
        self.fold_in
    }

    /// Select the fold-in estimator. [`FoldInMode::Reference`] (the
    /// default) is pinned bit-identical to corpus extraction;
    /// [`FoldInMode::Tables`] trades that bit-pin for ~an order of
    /// magnitude less per-post work (the deterministic mean-field fixed
    /// point of the same posterior, over precomputed per-word tables). The
    /// choice is a runtime serving knob: it is never serialized, and the
    /// precomputed tables are (re)built lazily on first use.
    pub fn with_fold_in_mode(mut self, mode: FoldInMode) -> Self {
        self.fold_in = mode;
        self
    }

    /// The shared precomputed sampling tables, built on first call (O(V·K)
    /// once per extractor — the extractor is frozen, so they amortize over
    /// every account ever ingested).
    pub fn fold_in_tables(&self) -> &Arc<FoldInTables> {
        self.fold_in_tables
            .get_or_init(|| Arc::new(self.lda.fold_in_tables()))
    }

    /// Extract one account's signals against the frozen state.
    ///
    /// `account_idx` is the platform-local index the account will live
    /// under — it seeds the per-post LDA fold-in, so extraction for the same
    /// payload at the same index is bit-identical to what batch corpus
    /// extraction produced (or would have produced) for that slot.
    pub fn extract_account(&self, account: AccountView<'_>, account_idx: u32) -> UserSignals {
        let tables = match self.fold_in {
            FoldInMode::Reference => None,
            FoldInMode::Tables => Some(&**self.fold_in_tables()),
        };
        extract_account(
            account,
            account_idx,
            &self.vocab,
            &self.lda,
            tables,
            &self.style_index,
            &self.senti,
            self.num_genres,
            &self.config,
        )
    }

    /// [`SignalExtractor::extract_account`] for an owned [`RawAccount`]
    /// payload — the serving-side ingest entry point.
    pub fn extract_raw(&self, account: &RawAccount, account_idx: u32) -> UserSignals {
        self.extract_account(account.view(), account_idx)
    }

    /// Extract a contiguous batch of raw accounts destined for slots
    /// `start_idx..start_idx + batch.len()`, fanning per-account extraction
    /// over `hydra-par` with an order-preserving merge.
    ///
    /// Output `i` is bit-identical to `extract_raw(&batch[i], start_idx +
    /// i)` in either fold-in mode (pinned in `tests/batch_parity.rs`):
    /// [`FoldInMode::Reference`] seeds each per-post sampler from
    /// `(account index, post timestamp)` alone, and
    /// [`FoldInMode::Tables`] is a seed-free deterministic EM kernel — so
    /// the fan-out commutes with any `HYDRA_THREADS`. In Tables mode the
    /// shared fold-in tables are built once up front, not per worker.
    pub fn extract_batch(&self, batch: &[RawAccount], start_idx: u32) -> Vec<UserSignals> {
        let _batch = hydra_obs::span("ingest.extract_batch");
        hydra_obs::counter_add("ingest.accounts_extracted", batch.len() as u64);
        hydra_obs::observe("ingest.batch_len", batch.len() as u64);
        if self.fold_in == FoldInMode::Tables {
            // Force the one-time table build before the fan-out so workers
            // share it instead of racing to build their own.
            let _ = self.fold_in_tables();
        }
        hydra_par::par_map(batch, |i, raw| self.extract_raw(raw, start_idx + i as u32))
    }

    /// The frozen topic model.
    pub fn lda(&self) -> &LdaModel {
        &self.lda
    }

    /// The learned sentiment lexicon.
    pub fn lexicon(&self) -> &SentimentLexicon {
        &self.lexicon
    }

    /// The corpus vocabulary snapshot.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The extraction configuration this artifact was trained under.
    pub fn config(&self) -> &SignalConfig {
        &self.config
    }

    /// Observation window length in days.
    pub fn window_days(&self) -> u32 {
        self.window_days
    }

    /// Number of content genres the corpus platforms assign.
    pub fn num_genres(&self) -> usize {
        self.num_genres
    }

    /// Length-normalized username rarity under the corpus language model
    /// (higher = rarer) — ingest-time triage signal: a rare username shared
    /// with an existing account is strong linkage evidence (Alias-Disamb).
    pub fn username_rarity(&self, username: &str) -> f64 {
        self.username_lm.rarity(username)
    }

    // --- persistence -----------------------------------------------------

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = BytesMut::with_capacity(4096);
        w.put_u32_le(self.window_days);
        w.put_u64_le(self.num_genres as u64);

        // Signal configuration.
        w.put_u64_le(self.config.num_topics as u64);
        w.put_u64_le(self.config.lda_iterations as u64);
        w.put_u64_le(self.config.lda_sample_cap as u64);
        w.put_u64_le(self.config.infer_iterations as u64);
        w.put_u64_le(self.config.style_words as u64);
        w.put_u64_le(self.config.seed);

        // Vocabulary: words in id order + id-aligned frequencies.
        w.put_u64_le(self.vocab.len() as u64);
        for id in 0..self.vocab.len() as u32 {
            put_str32(&mut w, self.vocab.word(id));
            w.put_u64_le(self.vocab.term_frequency(id));
            w.put_u64_le(self.vocab.doc_frequency(id));
        }
        w.put_u64_le(self.vocab.total_tokens());
        w.put_u64_le(self.vocab.total_docs());

        // LDA inference state.
        w.put_u64_le(self.lda.num_topics() as u64);
        w.put_u64_le(self.lda.vocab_size() as u64);
        w.put_f64_le(self.lda.alpha());
        w.put_f64_le(self.lda.beta());
        w.put_u64_le(self.lda.topic_word_counts().len() as u64);
        for &c in self.lda.topic_word_counts() {
            w.put_u32_le(c);
        }
        w.put_u64_le(self.lda.topic_totals().len() as u64);
        for &c in self.lda.topic_totals() {
            w.put_u32_le(c);
        }

        // Sentiment lexicon, word-sorted for a stable fingerprint.
        let entries = self.lexicon.entries_sorted();
        w.put_u64_le(entries.len() as u64);
        for (word, weights) in entries {
            put_str32(&mut w, word);
            for &v in weights.iter() {
                w.put_f64_le(v);
            }
        }

        // Username n-gram model, context-sorted for a stable fingerprint.
        w.put_u64_le(self.username_lm.order() as u64);
        w.put_f64_le(self.username_lm.smoothing_delta());
        w.put_u64_le(self.username_lm.trained_on() as u64);
        let contexts = self.username_lm.contexts_sorted();
        w.put_u64_le(contexts.len() as u64);
        for (ctx, nexts) in contexts {
            w.put_u32_le(ctx.len() as u32);
            for &c in ctx {
                w.put_u32_le(c as u32);
            }
            w.put_u64_le(nexts.len() as u64);
            for (c, count) in nexts {
                w.put_u32_le(c as u32);
                w.put_u64_le(count);
            }
        }
        w.freeze().to_vec()
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, ModelIoError> {
        let mut r = Reader::new(payload);
        r.set_section("extractor config");
        let window_days = r.u32()?;
        let num_genres = r.usize()?;

        let config = SignalConfig {
            num_topics: r.usize()?,
            lda_iterations: r.usize()?,
            lda_sample_cap: r.usize()?,
            infer_iterations: r.usize()?,
            style_words: r.usize()?,
            seed: r.u64()?,
        };

        r.set_section("vocabulary");
        let num_words = r.len_prefix(20)?;
        let mut words = Vec::with_capacity(num_words);
        let mut term_freq = Vec::with_capacity(num_words);
        let mut doc_freq = Vec::with_capacity(num_words);
        let mut seen = std::collections::HashSet::with_capacity(num_words);
        for _ in 0..num_words {
            let word = read_str32(&mut r)?;
            if !seen.insert(word.clone()) {
                return Err(r.corrupt(format!("duplicate word {word:?}")));
            }
            words.push(word);
            term_freq.push(r.u64()?);
            doc_freq.push(r.u64()?);
        }
        let total_tokens = r.u64()?;
        let total_docs = r.u64()?;
        let vocab = Vocabulary::from_parts(words, term_freq, doc_freq, total_tokens, total_docs);

        r.set_section("lda");
        let num_topics = r.usize()?;
        let vocab_size = r.usize()?;
        let alpha = r.f64()?;
        let beta = r.f64()?;
        let tw_len = r.len_prefix(4)?;
        if num_topics == 0 || vocab_size == 0 {
            return Err(r.corrupt("degenerate LDA shape"));
        }
        if tw_len != num_topics * vocab_size {
            return Err(r.corrupt(format!(
                "topic-word count length {tw_len} != {num_topics}×{vocab_size}"
            )));
        }
        let mut topic_word = Vec::with_capacity(tw_len);
        for _ in 0..tw_len {
            topic_word.push(r.u32()?);
        }
        let tt_len = r.len_prefix(4)?;
        if tt_len != num_topics {
            return Err(r.corrupt(format!(
                "topic totals length {tt_len} != {num_topics} topics"
            )));
        }
        let mut topic_totals = Vec::with_capacity(tt_len);
        for _ in 0..tt_len {
            topic_totals.push(r.u32()?);
        }
        let lda = LdaModel::from_parts(
            num_topics,
            vocab_size,
            alpha,
            beta,
            topic_word,
            topic_totals,
        );

        r.set_section("lexicon");
        let num_entries = r.len_prefix(36)?;
        let mut entries = Vec::with_capacity(num_entries);
        for _ in 0..num_entries {
            let word = read_str32(&mut r)?;
            let mut weights = [0.0f64; NUM_SENTIMENTS];
            for v in weights.iter_mut() {
                *v = r.f64()?;
            }
            entries.push((word, weights));
        }
        let lexicon = SentimentLexicon::from_entries(entries);

        r.set_section("username n-gram");
        let order = r.usize()?;
        let delta = r.f64()?;
        let trained_on = r.usize()?;
        if order == 0 || !(delta > 0.0) {
            return Err(r.corrupt("degenerate n-gram model"));
        }
        let num_contexts = r.len_prefix(12)?;
        let mut contexts = Vec::with_capacity(num_contexts);
        for _ in 0..num_contexts {
            let ctx_len = r.u32()? as usize;
            if ctx_len != order - 1 {
                return Err(r.corrupt(format!(
                    "context length {ctx_len} != order-1 ({})",
                    order - 1
                )));
            }
            // `order` is unchecked input, so `ctx_len` is too: four bytes
            // per char must be there before any are reserved.
            r.need(ctx_len.saturating_mul(4))?;
            let mut ctx = Vec::with_capacity(ctx_len);
            for _ in 0..ctx_len {
                ctx.push(read_char(&mut r)?);
            }
            let num_nexts = r.len_prefix(12)?;
            let mut nexts = Vec::with_capacity(num_nexts);
            for _ in 0..num_nexts {
                nexts.push((read_char(&mut r)?, r.u64()?));
            }
            contexts.push((ctx, nexts));
        }
        let username_lm = CharNgramLm::from_parts(order, delta, trained_on, contexts);

        if r.remaining() != 0 {
            return Err(r.corrupt(format!("{} trailing payload bytes", r.remaining())));
        }
        Ok(Self::from_parts(
            vocab,
            lda,
            lexicon,
            username_lm,
            config,
            num_genres,
            window_days,
        ))
    }

    /// Serialize to the versioned `HYSX` wire format (standalone extractor
    /// section).
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut w = BytesMut::with_capacity(payload.len() + 32);
        w.put_slice(&MAGIC);
        w.put_u16_le(VERSION);
        w.put_slice(&[KIND_EXTRACTOR]);
        w.put_u64_le(fnv1a(&payload));
        w.put_u64_le(payload.len() as u64);
        w.put_slice(&payload);
        w.freeze().to_vec()
    }

    /// Deserialize from the `HYSX` wire format. Rejects bad magic, newer
    /// versions, bundle sections (load those as [`ServingArtifact`]s),
    /// truncation, and fingerprint mismatches.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelIoError> {
        let mut r = read_header(bytes, KIND_EXTRACTOR)?;
        let extractor = read_fingerprinted_payload(&mut r)?;
        if r.remaining() != 0 {
            return Err(r.corrupt(format!("{} trailing bytes", r.remaining())));
        }
        Ok(extractor)
    }

    /// Write the extractor to a file, crash-safely (temp sibling + fsync +
    /// atomic rename — see [`LinkageModel::save`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), ModelIoError> {
        write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Load an extractor from a file (clearing any stale `.tmp` a crashed
    /// save left behind).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ModelIoError> {
        Self::from_bytes(&load_bytes(path.as_ref())?)
    }

    /// The extractor's payload fingerprint (FNV-1a, stable across
    /// save/load).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.encode_payload())
    }
}

/// A complete serving bundle: the learned [`LinkageModel`] together with the
/// [`SignalExtractor`] it was trained alongside — one artifact that
/// cold-starts a serving process end to end (load → extract a raw account →
/// insert → query).
#[derive(Debug, Clone)]
pub struct ServingArtifact {
    /// The learned decision model (`HYLM` section).
    pub model: LinkageModel,
    /// The frozen extraction state (`HYSX` payload).
    pub extractor: SignalExtractor,
}

impl ServingArtifact {
    /// Cold-start a single serving engine from this bundle over extracted
    /// signals and per-platform graph snapshots — the load → serve half of
    /// the deployment loop (use [`SignalExtractor::extract_raw`] +
    /// [`LinkageEngine::insert_account_with_edges`](crate::engine::LinkageEngine::insert_account_with_edges)
    /// for the ingest half).
    pub fn engine(
        &self,
        signals: &crate::signals::Signals,
        graphs: Vec<hydra_graph::SocialGraph>,
    ) -> Result<crate::engine::LinkageEngine, crate::engine::EngineError> {
        crate::engine::LinkageEngine::new(self.model.clone(), signals, graphs)
    }

    /// Cold-start a sharded serving engine from this bundle: candidacy
    /// partitioned over `num_shards` blocking indexes, profiles held in
    /// one `Arc`-shared epoch snapshot (1× memory at any shard count).
    pub fn sharded_engine(
        &self,
        signals: &crate::signals::Signals,
        graphs: Vec<hydra_graph::SocialGraph>,
        num_shards: usize,
    ) -> Result<crate::shard::ShardedEngine, crate::engine::EngineError> {
        crate::shard::ShardedEngine::new(self.model.clone(), signals, graphs, num_shards)
    }

    /// Serialize model + extractor into one `HYSX` bundle.
    pub fn to_bytes(&self) -> Vec<u8> {
        let model = self.model.to_bytes();
        let payload = self.extractor.encode_payload();
        let mut w = BytesMut::with_capacity(model.len() + payload.len() + 40);
        w.put_slice(&MAGIC);
        w.put_u16_le(VERSION);
        w.put_slice(&[KIND_BUNDLE]);
        w.put_u64_le(model.len() as u64);
        w.put_slice(&model);
        w.put_u64_le(fnv1a(&payload));
        w.put_u64_le(payload.len() as u64);
        w.put_slice(&payload);
        w.freeze().to_vec()
    }

    /// Deserialize a bundle; both sections are validated (the embedded
    /// `HYLM` model with its own fingerprint, the extractor payload with
    /// this format's).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelIoError> {
        let mut r = read_header(bytes, KIND_BUNDLE)?;
        r.set_section("bundled model");
        let model_len = r.len_prefix(1)?;
        let model_bytes = r.bytes(model_len)?;
        let model = LinkageModel::from_bytes(&model_bytes)?;
        let extractor = read_fingerprinted_payload(&mut r)?;
        if r.remaining() != 0 {
            return Err(r.corrupt(format!("{} trailing bytes", r.remaining())));
        }
        Ok(ServingArtifact { model, extractor })
    }

    /// Write the bundle to a file, crash-safely (temp sibling + fsync +
    /// atomic rename — see [`LinkageModel::save`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), ModelIoError> {
        write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Load a bundle from a file (clearing any stale `.tmp` a crashed save
    /// left behind).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ModelIoError> {
        Self::from_bytes(&load_bytes(path.as_ref())?)
    }
}

/// `HYSX` vocabulary words carry a u32 length prefix — a different wire
/// primitive from [`crate::artifact::put_str`] (u64), kept because the
/// artifact bytes are frozen.
fn put_str32(w: &mut BytesMut, s: &str) {
    w.put_u32_le(s.len() as u32);
    w.put_slice(s.as_bytes());
}

fn read_str32(r: &mut Reader) -> Result<String, ModelIoError> {
    let len = r.u32()? as usize;
    let at = r.offset();
    let bytes = r.bytes(len)?;
    String::from_utf8(bytes).map_err(|_| ModelIoError::Corrupt {
        offset: at,
        section: "string",
        what: "invalid utf-8 string".into(),
    })
}

fn read_char(r: &mut Reader) -> Result<char, ModelIoError> {
    let at = r.offset();
    let raw = r.u32()?;
    char::from_u32(raw).ok_or(ModelIoError::Corrupt {
        offset: at,
        section: "char",
        what: format!("invalid unicode scalar {raw:#x}"),
    })
}

/// Validate magic / version / kind, returning a reader positioned after the
/// kind byte.
fn read_header(bytes: &[u8], expect_kind: u8) -> Result<Reader, ModelIoError> {
    let mut r = Reader::new(bytes);
    let found = r.bytes(4)?;
    if found != MAGIC {
        return Err(ModelIoError::BadMagic {
            expected: MAGIC,
            found: [found[0], found[1], found[2], found[3]],
        });
    }
    let version = r.u16()?;
    if version == 0 || version > VERSION {
        return Err(ModelIoError::UnsupportedVersion {
            found: version,
            max: VERSION,
        });
    }
    let kind = r.u8()?;
    if kind != expect_kind {
        return Err(r.corrupt(format!(
            "section kind {kind} (expected {expect_kind}: {})",
            if expect_kind == KIND_EXTRACTOR {
                "standalone extractor"
            } else {
                "model + extractor bundle"
            }
        )));
    }
    Ok(r)
}

/// Read `fingerprint | payload_len | payload`, verify, and decode.
fn read_fingerprinted_payload(r: &mut Reader) -> Result<SignalExtractor, ModelIoError> {
    r.set_section("extractor payload");
    let fingerprint = r.u64()?;
    let payload_len = r.len_prefix(1)?;
    let payload = r.bytes(payload_len)?;
    if fnv1a(&payload) != fingerprint {
        return Err(r.corrupt(format!(
            "extractor fingerprint mismatch (header says {fingerprint:#018x}, \
             payload hashes to {:#018x})",
            fnv1a(&payload)
        )));
    }
    SignalExtractor::decode_payload(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::Signals;
    use hydra_datagen::{Dataset, DatasetConfig};

    fn world() -> (Dataset, Signals, SignalExtractor) {
        let dataset = Dataset::generate(DatasetConfig::english(30, 0x1D6E57));
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

    fn assert_signals_bitwise(a: &UserSignals, b: &UserSignals, ctx: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.username, b.username, "{ctx}: username");
        assert_eq!(a.person, b.person, "{ctx}: person");
        assert_eq!(a.attrs, b.attrs, "{ctx}: attrs");
        assert_eq!(bits(&a.embedding), bits(&b.embedding), "{ctx}: embedding");
        assert_eq!(a.topic_days.days, b.topic_days.days, "{ctx}: topic days");
        for (x, y) in a.topic_days.dists.iter().zip(b.topic_days.dists.iter()) {
            assert_eq!(bits(x), bits(y), "{ctx}: topic dists");
        }
        assert_eq!(a.genre_days.days, b.genre_days.days, "{ctx}: genre days");
        assert_eq!(a.senti_days.days, b.senti_days.days, "{ctx}: senti days");
        for (x, y) in a.senti_days.dists.iter().zip(b.senti_days.dists.iter()) {
            assert_eq!(bits(x), bits(y), "{ctx}: senti dists");
        }
        assert_eq!(a.style.words, b.style.words, "{ctx}: style");
        assert_eq!(a.checkins.len(), b.checkins.len(), "{ctx}: checkins");
        assert_eq!(a.media.len(), b.media.len(), "{ctx}: media");
    }

    #[test]
    fn extractor_reproduces_corpus_extraction_bitwise() {
        let (dataset, signals, extractor) = world();
        for p in 0..dataset.num_platforms() {
            for a in [0u32, 7, 29] {
                let sig = extractor.extract_account(AccountSource::account(&dataset, p, a), a);
                assert_signals_bitwise(
                    &sig,
                    &signals.per_platform[p][a as usize],
                    &format!("platform {p} account {a}"),
                );
            }
        }
    }

    #[test]
    fn extract_raw_matches_view_extraction() {
        let (dataset, _, extractor) = world();
        let view = AccountSource::account(&dataset, 1, 3);
        let raw = RawAccount::from_view(view);
        let a = extractor.extract_account(view, 3);
        let b = extractor.extract_raw(&raw, 3);
        assert_signals_bitwise(&a, &b, "raw payload");
    }

    #[test]
    fn round_trip_is_bit_exact_and_extraction_identical() {
        let (dataset, _, extractor) = world();
        let bytes = extractor.to_bytes();
        let loaded = SignalExtractor::from_bytes(&bytes).expect("load");
        assert_eq!(loaded.to_bytes(), bytes, "re-serialization exact");
        assert_eq!(loaded.fingerprint(), extractor.fingerprint());
        let view = AccountSource::account(&dataset, 0, 11);
        assert_signals_bitwise(
            &loaded.extract_account(view, 11),
            &extractor.extract_account(view, 11),
            "loaded extractor",
        );
        assert_eq!(
            loaded.username_rarity("xq_zw_9").to_bits(),
            extractor.username_rarity("xq_zw_9").to_bits(),
        );
    }

    #[test]
    fn ngram_context_length_is_checked_against_the_bytes_left() {
        let (_, _, extractor) = world();
        let mut payload = extractor.encode_payload();
        // The n-gram section closes the payload: order | delta | trained_on
        // | num_contexts | first context's length | ...
        let lm = &extractor.username_lm;
        let mut header = Vec::new();
        header.extend((lm.order() as u64).to_le_bytes());
        header.extend(lm.smoothing_delta().to_le_bytes());
        header.extend((lm.trained_on() as u64).to_le_bytes());
        let at = payload
            .windows(header.len())
            .rposition(|w| w == header)
            .expect("n-gram header");
        // An order and a first context that agree on 2^32 - 1 chars.
        payload[at..at + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        payload[at + 32..at + 36].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = MAGIC.to_vec();
        bytes.extend(VERSION.to_le_bytes());
        bytes.push(KIND_EXTRACTOR);
        bytes.extend(fnv1a(&payload).to_le_bytes());
        bytes.extend((payload.len() as u64).to_le_bytes());
        bytes.extend(payload);
        match SignalExtractor::from_bytes(&bytes) {
            Err(ModelIoError::Truncated { needed, .. }) => {
                assert_eq!(needed, u32::MAX as usize * 4)
            }
            other => panic!(
                "expected the length itself to be refused, got {:?}",
                other.err()
            ),
        }
    }

    #[test]
    fn rejects_bad_magic_version_kind_truncation_corruption() {
        let (_, _, extractor) = world();
        let bytes = extractor.to_bytes();

        assert!(matches!(
            SignalExtractor::from_bytes(b"nah"),
            Err(ModelIoError::BadMagic { .. } | ModelIoError::Truncated { .. })
        ));
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            SignalExtractor::from_bytes(&wrong),
            Err(ModelIoError::BadMagic { .. })
        ));
        let mut future = bytes.clone();
        future[4] = 0xFF;
        assert!(matches!(
            SignalExtractor::from_bytes(&future),
            Err(ModelIoError::UnsupportedVersion { .. })
        ));
        // An extractor section does not load as a bundle and vice versa.
        assert!(matches!(
            ServingArtifact::from_bytes(&bytes),
            Err(ModelIoError::Corrupt { .. })
        ));
        for cut in [5, 12, bytes.len() / 3, bytes.len() - 1] {
            assert!(
                SignalExtractor::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must not load"
            );
        }
        let mut corrupt = bytes.clone();
        let mid = bytes.len() / 2;
        corrupt[mid] ^= 0x5A;
        assert!(SignalExtractor::from_bytes(&corrupt).is_err());
        let mut trailing = bytes;
        trailing.push(7);
        assert!(matches!(
            SignalExtractor::from_bytes(&trailing),
            Err(ModelIoError::Corrupt { .. })
        ));
    }
}

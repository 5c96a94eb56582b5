//! Candidate generation and rule-based pre-matching (Section 3).
//!
//! Examining every user pair is intractable (the paper derives the
//! factorial search-space count in Eq. 2), so candidates are produced by
//! blocking:
//!
//! * **username blocking** — an inverted character-3-gram index; pairs
//!   sharing a gram are scored with Jaro–Winkler / LCS and kept above a
//!   threshold ("partial username overlapping" [16, 32]);
//! * **attribute blocking** — exact e-mail matches, and (birth, city)
//!   agreement;
//! * **face blocking** — high-confidence face matches among candidates.
//!
//! Pairs passing the *strict* rule set become "pre-matched pairs by
//! rule-based filtering" — the paper's second kind of labeled data, which
//! it reports is much cleaner (precision over 95%) than Alias-Disamb's
//! auto-generated labels.
//!
//! ## Hot-path engineering
//!
//! This is the first stage of the linkage hot path, so the implementation
//! is allocation-lean and parallel:
//!
//! * grams are **interned**: a 3-gram of lowercase `char`s packs into a
//!   single `u64` key (21 bits per scalar), so the inverted index is
//!   `HashMap<u64, Vec<u32>>` with zero per-gram `String` allocation;
//! * every username's gram set is computed **once** and reused between
//!   index construction and probing;
//! * the e-mail upgrade path uses a per-user **position map** instead of a
//!   linear rescan of the scored list;
//! * the per-left-user loop fans out across threads
//!   ([`hydra_par::par_flat_map`]) with an order-preserving merge, so the
//!   parallel result is byte-identical to the sequential one (asserted by
//!   `tests/parallel_parity.rs`).
//!
//! The seed implementation is preserved in [`legacy`] as the reference for
//! parity tests and the before/after benchmark baseline.
//!
//! ## Batch and serving paths share one scoring core
//!
//! The right-side indexes live in [`BlockingIndex`] — an **incremental**
//! structure the serving layer ([`crate::engine`]) keeps warm with
//! [`BlockingIndex::insert_account`] / [`BlockingIndex::remove_account`]
//! while the batch path builds it once per fit. Both paths score a left
//! account through the same `score_left_account` routine, so a serve-time
//! `query` produces candidates byte-identical to batch generation.
//!
//! ## Candidate-scoring prefilter
//!
//! Jaro–Winkler and LCS are the bulk of blocking time (ROADMAP hot spot).
//! Before paying O(|a|·|b|) per surviving pair, a cheap upper bound on
//! `max(JW, LCS-ratio)` is computed from the two usernames' lengths and
//! shared-character count (a sorted-scalar merge, O(|a|+|b|)); pairs whose
//! bound is already below `username_threshold` skip the quadratic scoring
//! entirely. The bound is sound — never below the true similarity — so the
//! filtered path stays byte-identical to the unfiltered one (asserted
//! against [`legacy`] in `tests/parallel_parity.rs`).

use crate::signals::UserSignals;
use crate::snapshot::SignalStore;
use hydra_datagen::attributes::AttrKind;
use hydra_text::strsim::{jaro_winkler_chars, lcs_ratio_chars};
use hydra_vision::{match_profile_images, FaceClassifier, FaceDetector, FaceMatchOutcome};
use std::collections::HashMap;

/// A candidate pair with its blocking provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidatePair {
    /// Account index on the left platform.
    pub left: u32,
    /// Account index on the right platform.
    pub right: u32,
    /// Username similarity at blocking time (0 when blocked on attributes
    /// only).
    pub username_sim: f64,
    /// Whether the strict rule set pre-matched this pair (high-precision
    /// pseudo-label).
    pub pre_matched: bool,
}

/// Candidate-generation thresholds.
#[derive(Debug, Clone)]
pub struct CandidateConfig {
    /// Keep username-blocked pairs whose max(JW, LCS-ratio) reaches this.
    pub username_threshold: f64,
    /// Pre-match pairs whose username similarity reaches this…
    pub strict_username: f64,
    /// …or whose face confidence reaches this.
    pub strict_face: f64,
    /// Cap on candidates retained per left account (best-first).
    pub max_per_user: usize,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            username_threshold: 0.55,
            strict_username: 0.88,
            strict_face: 0.93,
            max_per_user: 25,
        }
    }
}

/// Count of matching *discriminative* attributes between two accounts:
/// everything except gender (whose two-value pool matches by chance half
/// the time — exactly the relative-importance argument behind Eq. 3).
fn discriminative_agreement(
    a: &hydra_datagen::attributes::AttrValues,
    b: &hydra_datagen::attributes::AttrValues,
) -> usize {
    use hydra_datagen::attributes::ALL_ATTRS;
    ALL_ATTRS
        .iter()
        .filter(|k| !matches!(k, AttrKind::Gender))
        .filter(|k| {
            matches!(
                (a[k.index()], b[k.index()]),
                (Some(x), Some(y)) if x == y
            )
        })
        .count()
}

/// Bits per packed Unicode scalar (`char` is at most 21 bits).
const GRAM_CHAR_BITS: u32 = 21;

/// Gram length tag occupying the bits above the three packed scalars, so a
/// short gram (`k < 3` scalars, high scalar slots zero) can never collide
/// with a 3-gram whose trailing scalars are `U+0000` — keeping the packing
/// injective against legacy `String` grams even for NUL-bearing usernames.
const GRAM_LEN_SHIFT: u32 = 3 * GRAM_CHAR_BITS;

/// Interned, deduplicated, sorted lowercase character 3-grams of a
/// username. A gram of `k ≤ 3` scalars packs into one `u64`
/// (`c0 | c1 << 21 | c2 << 42 | k << 63…62`); packing is injective, so set
/// semantics match the legacy `String` grams exactly.
pub(crate) fn gram_keys(name: &str, out: &mut Vec<u64>) {
    out.clear();
    let lower = name.to_lowercase();
    let mut window = [0u64; 3];
    let mut filled = 0usize;
    for c in lower.chars() {
        window[0] = window[1];
        window[1] = window[2];
        window[2] = c as u64;
        filled += 1;
        if filled >= 3 {
            out.push(
                window[0]
                    | (window[1] << GRAM_CHAR_BITS)
                    | (window[2] << (2 * GRAM_CHAR_BITS))
                    | (3u64 << GRAM_LEN_SHIFT),
            );
        }
    }
    if filled == 0 {
        return;
    }
    if filled < 3 {
        // Short usernames become a single gram of themselves.
        let mut key = (filled as u64) << GRAM_LEN_SHIFT;
        for (k, &c) in window[3 - filled..].iter().enumerate() {
            key |= c << (k as u32 * GRAM_CHAR_BITS);
        }
        out.push(key);
        return;
    }
    out.sort_unstable();
    out.dedup();
}

/// Per-side gram sets computed once and reused across index build and
/// probing (flat storage: `offsets[i]..offsets[i+1]` indexes user `i`'s
/// grams in `keys`).
struct GramTable {
    keys: Vec<u64>,
    offsets: Vec<u32>,
}

impl GramTable {
    fn build(side: &[UserSignals]) -> GramTable {
        let mut keys = Vec::with_capacity(side.len() * 8);
        let mut offsets = Vec::with_capacity(side.len() + 1);
        offsets.push(0);
        let mut buf = Vec::with_capacity(32);
        for sig in side {
            gram_keys(&sig.username, &mut buf);
            keys.extend_from_slice(&buf);
            offsets.push(keys.len() as u32);
        }
        GramTable { keys, offsets }
    }

    #[inline]
    fn grams(&self, user: usize) -> &[u64] {
        &self.keys[self.offsets[user] as usize..self.offsets[user + 1] as usize]
    }
}

/// Multiset intersection size of two **sorted** scalar slices (merge join).
#[inline]
fn shared_char_count(a: &[char], b: &[char]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Cheap, **sound** upper bound on `max(jaro_winkler, lcs_ratio)` from the
/// usernames' lengths and shared-character count.
///
/// With `m` = multiset character intersection (an upper bound on both the
/// Jaro match count and the longest common substring length):
///
/// * `jaro ≤ (m/|a| + m/|b| + 1)/3` — each Jaro term bounded independently
///   (the length-ratio bound `min/max` is the degenerate `m = min(|a|,|b|)`
///   case of the first two terms);
/// * `jaro_winkler = j + p·0.1·(1−j)` is increasing in `j` for the actual
///   common-prefix length `p ≤ 4` (computed exactly — it is O(4));
/// * `lcs_ratio = lcs/min(|a|,|b|) ≤ m/min(|a|,|b|)` — the min-normalized
///   denominator means the length ratio alone can never bound it, which is
///   why the prefilter is driven by the shared-character count.
///
/// Returns `f64::INFINITY` when either side is empty (the quadratic scorers
/// special-case empties, so the prefilter abstains rather than model them).
#[inline]
fn username_sim_upper_bound(a: &[char], a_sorted: &[char], b: &[char], b_sorted: &[char]) -> f64 {
    let min_len = a.len().min(b.len());
    if min_len == 0 {
        return f64::INFINITY;
    }
    let m = shared_char_count(a_sorted, b_sorted) as f64;
    let jaro_ub = if m > 0.0 {
        (m / a.len() as f64 + m / b.len() as f64 + 1.0) / 3.0
    } else {
        0.0
    };
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    let jw_ub = jaro_ub + prefix * 0.1 * (1.0 - jaro_ub);
    jw_ub.max(m / min_len as f64)
}

/// Incremental right-side blocking index: the interned 3-gram inverted
/// index plus the e-mail and (birth, city) attribute indexes, with the
/// per-account decoded/sorted username scalars the scorer needs.
///
/// The batch path ([`generate_candidates`]) builds one per fit; the serving
/// layer ([`crate::engine::LinkageEngine`]) keeps one alive and mutates it
/// with [`BlockingIndex::insert_account`] / [`BlockingIndex::remove_account`]
/// as right-platform accounts arrive and depart after training.
///
/// Stop-gram suppression (grams indexing more than a quarter of the
/// population carry no signal) is applied at **probe time** against the
/// current active-account count, so a grown or shrunk index behaves exactly
/// like one rebuilt from scratch over the same active population.
pub struct BlockingIndex {
    gram_postings: HashMap<u64, Vec<u32>>,
    email_index: HashMap<u64, Vec<u32>>,
    birth_city_index: HashMap<(u64, u64), Vec<u32>>,
    /// Decoded username scalars per account (original case — similarity
    /// scoring is case-sensitive; only grams are lowercased).
    chars: Vec<Vec<char>>,
    /// Sorted copy of `chars` per account, for the prefilter merge.
    sorted_chars: Vec<Vec<char>>,
    /// Each account's attribute-index keys, retained so removal can purge
    /// exactly the postings lists it appears in (O(1) lookups instead of a
    /// scan over every key).
    attr_keys: Vec<(Option<u64>, Option<(u64, u64)>)>,
    active: Vec<bool>,
    active_count: usize,
}

impl BlockingIndex {
    /// Build the index over a platform's accounts.
    pub fn build(right: &[UserSignals]) -> Self {
        let mut index = BlockingIndex {
            gram_postings: HashMap::new(),
            email_index: HashMap::new(),
            birth_city_index: HashMap::new(),
            chars: Vec::with_capacity(right.len()),
            sorted_chars: Vec::with_capacity(right.len()),
            attr_keys: Vec::with_capacity(right.len()),
            active: Vec::with_capacity(right.len()),
            active_count: 0,
        };
        for sig in right {
            index.insert_account(sig);
        }
        index
    }

    /// Register a new account under the next free platform-local index
    /// (returned). Postings stay in ascending account order, so candidate
    /// output is identical to an index built over the grown population.
    pub fn insert_account(&mut self, sig: &UserSignals) -> u32 {
        let j = self.chars.len() as u32;
        let mut grams = Vec::with_capacity(16);
        gram_keys(&sig.username, &mut grams);
        for &g in &grams {
            self.gram_postings.entry(g).or_default().push(j);
        }
        let email = sig.attrs[AttrKind::Email.index()];
        if let Some(e) = email {
            self.email_index.entry(e).or_default().push(j);
        }
        let birth_city = match (
            sig.attrs[AttrKind::Birth.index()],
            sig.attrs[AttrKind::City.index()],
        ) {
            (Some(b), Some(c)) => {
                self.birth_city_index.entry((b, c)).or_default().push(j);
                Some((b, c))
            }
            _ => None,
        };
        let cs: Vec<char> = sig.username.chars().collect();
        let mut sorted = cs.clone();
        sorted.sort_unstable();
        self.chars.push(cs);
        self.sorted_chars.push(sorted);
        self.attr_keys.push((email, birth_city));
        self.active.push(true);
        self.active_count += 1;
        j
    }

    /// Register an account slot that starts *de-listed*: the decoded and
    /// sorted username scalars are retained (left-side probes and removal
    /// bookkeeping need them) but no posting is written and the slot is
    /// born inactive — observationally identical to [`Self::insert_account`]
    /// followed by [`Self::remove_account`], without building postings only
    /// to `retain` them back out. The sharded engine uses this for the
    /// (N−1)/N accounts each shard does not own.
    pub(crate) fn insert_account_inactive(&mut self, sig: &UserSignals) -> u32 {
        let j = self.chars.len() as u32;
        let cs: Vec<char> = sig.username.chars().collect();
        let mut sorted = cs.clone();
        sorted.sort_unstable();
        self.chars.push(cs);
        self.sorted_chars.push(sorted);
        self.attr_keys.push((None, None));
        self.active.push(false);
        j
    }

    /// Deactivate an account: it vanishes from every postings list (other
    /// accounts keep their indices). Returns `false` when the index was out
    /// of range or already removed.
    ///
    /// ## Stop-gram accounting under churn (audited)
    ///
    /// Removal keeps the suppression state of every gram exactly what a
    /// freshly built index over the surviving active population would
    /// compute, because both sides of the probe-time comparison
    /// `postings.len() <= stop_gram_cap_for(active_count)` shrink in
    /// lockstep: the account is purged from each of its grams' postings
    /// lists here (postings never retain de-listed accounts), and
    /// `active_count` is decremented. A gram sitting just over the cap can
    /// therefore flip back to *unsuppressed* as removals thin its postings
    /// — the same flip a fresh rebuild would produce — and the sharded
    /// path's global `GramLimits` mirrors the arithmetic with
    /// population-wide counts maintained by the same ±1 discipline. An
    /// emptied postings list is left in the map (a fresh build would lack
    /// the key); both probe as "no candidates", so the divergence is not
    /// observable. Pinned by the `churned_index_matches_fresh_semantics`
    /// test below, which drives a gram across the suppression boundary by
    /// removals and compares against a fresh-semantics index slot for
    /// slot.
    pub fn remove_account(&mut self, account: u32) -> bool {
        let Some(slot) = self.active.get_mut(account as usize) else {
            return false;
        };
        if !*slot {
            return false;
        }
        *slot = false;
        self.active_count -= 1;
        let mut grams = Vec::with_capacity(16);
        let name: String = self.chars[account as usize].iter().collect();
        gram_keys(&name, &mut grams);
        for &g in &grams {
            if let Some(v) = self.gram_postings.get_mut(&g) {
                v.retain(|&j| j != account);
            }
        }
        // Exactly the postings lists this account was inserted into.
        let (email, birth_city) = self.attr_keys[account as usize];
        if let Some(v) = email.and_then(|e| self.email_index.get_mut(&e)) {
            v.retain(|&j| j != account);
        }
        if let Some(v) = birth_city.and_then(|bc| self.birth_city_index.get_mut(&bc)) {
            v.retain(|&j| j != account);
        }
        true
    }

    /// The decoded and sorted username scalars of an account — the serving
    /// layer probes with a *left* account already held by a store's index,
    /// so the per-query path reuses these instead of re-decoding.
    pub(crate) fn probe_chars(&self, account: u32) -> (&[char], &[char]) {
        (
            &self.chars[account as usize],
            &self.sorted_chars[account as usize],
        )
    }

    /// Total slots ever allocated (including removed accounts).
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// Whether no account was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }

    /// Number of active (non-removed) accounts.
    pub fn active_accounts(&self) -> usize {
        self.active_count
    }

    /// Whether `account` is present and not removed.
    pub fn is_active(&self, account: u32) -> bool {
        self.active.get(account as usize).copied().unwrap_or(false)
    }

    /// Approximate heap size of the index (length-based; ignores hash-map
    /// bucket overhead and allocator slack) — the **private** per-shard
    /// cost, as opposed to the shared profile snapshot. Postings are
    /// partitioned across shards; the per-slot username scalars and the
    /// active bitmap are per-shard bookkeeping (O(total username bytes),
    /// two orders of magnitude below the profiles they key into).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let postings = |m: &HashMap<u64, Vec<u32>>| -> usize {
            m.len() * (size_of::<u64>() + size_of::<Vec<u32>>())
                + m.values()
                    .map(|v| v.len() * size_of::<u32>())
                    .sum::<usize>()
        };
        postings(&self.gram_postings)
            + postings(&self.email_index)
            + self.birth_city_index.len() * (size_of::<(u64, u64)>() + size_of::<Vec<u32>>())
            + self
                .birth_city_index
                .values()
                .map(|v| v.len() * size_of::<u32>())
                .sum::<usize>()
            + self.chars.len() * 2 * size_of::<Vec<char>>()
            + self
                .chars
                .iter()
                .map(|c| 2 * c.len() * size_of::<char>())
                .sum::<usize>()
            + self.attr_keys.len() * size_of::<(Option<u64>, Option<(u64, u64)>)>()
            + self.active.len()
    }

    /// Stop-gram cap against the current active population.
    fn stop_gram_cap(&self) -> usize {
        Self::stop_gram_cap_for(self.active_count)
    }

    /// The stop-gram cap for a given active population size — grams
    /// indexing more than a quarter of the population carry no signal.
    #[inline]
    pub(crate) fn stop_gram_cap_for(active_count: usize) -> usize {
        (active_count / 4).max(25)
    }

    /// Gram postings, suppressed for stop grams. With `limits` supplied,
    /// suppression is decided against those **global** statistics instead of
    /// this index's local postings — a shard holding `1/N` of the population
    /// must suppress exactly the grams a single full index would, or the
    /// union of shard candidates drifts from the single-engine candidate
    /// set.
    #[inline]
    fn gram_candidates(&self, gram: u64, limits: Option<&GramLimits<'_>>) -> Option<&[u32]> {
        let postings = self.gram_postings.get(&gram)?;
        let allowed = match limits {
            None => postings.len() <= self.stop_gram_cap(),
            Some(l) => l.allows(gram),
        };
        allowed.then_some(postings.as_slice())
    }
}

/// Population-wide gram statistics a [`crate::shard::ShardedEngine`] probes
/// its per-shard [`BlockingIndex`]es with: stop-gram suppression must see
/// the *global* posting count and active population, not the shard-local
/// ones, for sharded candidate generation to be byte-identical to the
/// single-engine path.
pub(crate) struct GramLimits<'a> {
    /// Active posting count per gram across every shard.
    pub counts: &'a HashMap<u64, u32>,
    /// Active accounts across every shard.
    pub active_count: usize,
}

impl GramLimits<'_> {
    /// Whether a gram survives global stop-gram suppression.
    #[inline]
    fn allows(&self, gram: u64) -> bool {
        let count = self.counts.get(&gram).copied().unwrap_or(0) as usize;
        count <= BlockingIndex::stop_gram_cap_for(self.active_count)
    }
}

/// One left account's probe state: interned grams plus decoded / sorted
/// username scalars.
pub(crate) struct LeftProbe<'a> {
    pub grams: &'a [u64],
    pub chars: &'a [char],
    pub sorted_chars: &'a [char],
}

/// Score one left account against an indexed right side — the shared core
/// of batch candidate generation and serve-time queries (sharded or not;
/// `limits` carries the global stop-gram statistics when the index is one
/// shard of a partitioned population). The right side's profiles are read
/// through a [`SignalStore`] — a contiguous slice on the batch path, the
/// shared epoch snapshot on the serving path. Returns the account's
/// candidates best-first (username similarity, then right index), capped
/// at `config.max_per_user`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_left_account<R: SignalStore + ?Sized>(
    i: u32,
    sig: &UserSignals,
    probe: &LeftProbe<'_>,
    index: &BlockingIndex,
    right: &R,
    config: &CandidateConfig,
    detector: &FaceDetector,
    classifier: &FaceClassifier,
    limits: Option<&GramLimits<'_>>,
) -> Vec<CandidatePair> {
    // Position of each right index in `scored` — replaces the legacy
    // O(n) `iter_mut().find(...)` e-mail upgrade scan and doubles as
    // the dedup set.
    let mut slot_of: HashMap<u32, u32> = HashMap::new();
    let mut scored: Vec<CandidatePair> = Vec::new();

    // Username blocking. A high username similarity alone is NOT enough
    // to pre-match — common given names collide (the Figure-1 "Adele"
    // ambiguity) — so the strict rule additionally demands agreement on
    // at least one discriminative attribute (Section 3 combines
    // "partial username overlapping" with "user attribute matching").
    for &g in probe.grams {
        if let Some(js) = index.gram_candidates(g, limits) {
            for &j in js {
                if slot_of.contains_key(&j) {
                    continue;
                }
                slot_of.insert(j, u32::MAX); // seen, not necessarily kept
                let rchars = &index.chars[j as usize];
                // Prefilter: skip the quadratic scorers when the cheap
                // bound already rules the pair out.
                if username_sim_upper_bound(
                    probe.chars,
                    probe.sorted_chars,
                    rchars,
                    &index.sorted_chars[j as usize],
                ) < config.username_threshold
                {
                    continue;
                }
                let other = right.signal(j);
                let sim = jaro_winkler_chars(probe.chars, rchars)
                    .max(lcs_ratio_chars(probe.chars, rchars));
                if sim >= config.username_threshold {
                    let pre = sim >= config.strict_username
                        && discriminative_agreement(&sig.attrs, &other.attrs) >= 2;
                    slot_of.insert(j, scored.len() as u32);
                    scored.push(CandidatePair {
                        left: i,
                        right: j,
                        username_sim: sim,
                        pre_matched: pre,
                    });
                }
            }
        }
    }

    // E-mail blocking (exact match ⇒ pre-matched).
    if let Some(e) = sig.attrs[AttrKind::Email.index()] {
        if let Some(js) = index.email_index.get(&e) {
            for &j in js {
                match slot_of.get(&j) {
                    None => {
                        slot_of.insert(j, scored.len() as u32);
                        scored.push(CandidatePair {
                            left: i,
                            right: j,
                            username_sim: 0.0,
                            pre_matched: true,
                        });
                    }
                    Some(&slot) if slot != u32::MAX => {
                        scored[slot as usize].pre_matched = true;
                    }
                    Some(_) => {} // seen but below threshold: legacy drops it too
                }
            }
        }
    }

    // (birth, city) blocking — weak, no pre-match.
    if let (Some(b), Some(c)) = (
        sig.attrs[AttrKind::Birth.index()],
        sig.attrs[AttrKind::City.index()],
    ) {
        if let Some(js) = index.birth_city_index.get(&(b, c)) {
            for &j in js {
                if let std::collections::hash_map::Entry::Vacant(e) = slot_of.entry(j) {
                    e.insert(scored.len() as u32);
                    scored.push(CandidatePair {
                        left: i,
                        right: j,
                        username_sim: 0.0,
                        pre_matched: false,
                    });
                }
            }
        }
    }

    // Face upgrade: among current candidates, a very confident face
    // match is a pre-match signal (Section 3 item 2).
    for c in scored.iter_mut() {
        if c.pre_matched {
            continue;
        }
        if let FaceMatchOutcome::Score(s) = match_profile_images(
            sig.image.as_ref(),
            right.signal(c.right).image.as_ref(),
            detector,
            classifier,
        ) {
            if s >= config.strict_face && c.username_sim >= config.username_threshold {
                c.pre_matched = true;
            }
        }
    }

    // Best-first cap per user. `total_cmp` instead of the panic-prone
    // `partial_cmp(..).expect(..)`; similarities are finite here, so the
    // order is unchanged.
    scored.sort_by(|a, b| {
        b.username_sim
            .total_cmp(&a.username_sim)
            .then(a.right.cmp(&b.right))
    });
    scored.truncate(config.max_per_user);
    scored
}

/// Generate candidate pairs between two platforms' accounts.
///
/// Parallel over left users with a deterministic order-preserving merge;
/// the output is identical to [`generate_candidates_threads`] at any
/// thread count and to [`legacy::generate_candidates_legacy`].
pub fn generate_candidates(
    left: &[UserSignals],
    right: &[UserSignals],
    config: &CandidateConfig,
) -> Vec<CandidatePair> {
    generate_candidates_threads(left, right, config, hydra_par::num_threads())
}

/// [`generate_candidates`] with an explicit worker-thread count (`1` forces
/// the sequential path; used by parity tests and benchmarks).
pub fn generate_candidates_threads(
    left: &[UserSignals],
    right: &[UserSignals],
    config: &CandidateConfig,
    threads: usize,
) -> Vec<CandidatePair> {
    let index = BlockingIndex::build(right);
    let left_grams = GramTable::build(left);
    // Usernames decoded to scalar slices once per side: every similarity
    // evaluation below reuses them instead of re-collecting `Vec<char>`s.
    let left_chars: Vec<Vec<char>> = left.iter().map(|s| s.username.chars().collect()).collect();
    let left_sorted: Vec<Vec<char>> = left_chars
        .iter()
        .map(|cs| {
            let mut s = cs.clone();
            s.sort_unstable();
            s
        })
        .collect();
    let detector = FaceDetector::default();
    let classifier = FaceClassifier::default();

    // --- per-left-user scoring: embarrassingly parallel -------------------
    hydra_par::par_flat_map_threads(threads, left, |i, sig| {
        let probe = LeftProbe {
            grams: left_grams.grams(i),
            chars: &left_chars[i],
            sorted_chars: &left_sorted[i],
        };
        score_left_account(
            i as u32,
            sig,
            &probe,
            &index,
            right,
            config,
            &detector,
            &classifier,
            None,
        )
    })
}

/// Recall of the candidate set against ground truth (same person index left
/// and right) — a generator-side diagnostic used by tests and experiments.
pub fn candidate_recall(candidates: &[CandidatePair], num_persons: usize) -> f64 {
    let hit: std::collections::HashSet<u32> = candidates
        .iter()
        .filter(|c| c.left == c.right)
        .map(|c| c.left)
        .collect();
    hit.len() as f64 / num_persons as f64
}

pub mod legacy {
    //! The seed (pre-optimization) candidate generator, kept verbatim as
    //! the reference implementation: parity tests assert the optimized
    //! parallel path reproduces it exactly, and the `pipeline` benchmark
    //! reports before/after timings against it.

    use super::*;
    use hydra_text::strsim::{jaro_winkler, lcs_ratio};
    use std::collections::HashSet;

    /// Lower-cased character 3-grams of a username (allocating `String`
    /// keys — the legacy representation).
    pub fn grams(name: &str) -> Vec<String> {
        let cs: Vec<char> = name.to_lowercase().chars().collect();
        if cs.is_empty() {
            return Vec::new();
        }
        if cs.len() < 3 {
            return vec![cs.iter().collect()];
        }
        let mut g: Vec<String> = (0..=cs.len() - 3)
            .map(|i| cs[i..i + 3].iter().collect())
            .collect();
        g.sort_unstable();
        g.dedup();
        g
    }

    /// The seed single-threaded candidate generator.
    pub fn generate_candidates_legacy(
        left: &[UserSignals],
        right: &[UserSignals],
        config: &CandidateConfig,
    ) -> Vec<CandidatePair> {
        let mut gram_index: HashMap<String, Vec<u32>> = HashMap::new();
        for (j, sig) in right.iter().enumerate() {
            for g in grams(&sig.username) {
                gram_index.entry(g).or_default().push(j as u32);
            }
        }
        let cap = (right.len() / 4).max(25);
        gram_index.retain(|_, v| v.len() <= cap);

        let mut email_index: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut birth_city_index: HashMap<(u64, u64), Vec<u32>> = HashMap::new();
        for (j, sig) in right.iter().enumerate() {
            if let Some(e) = sig.attrs[AttrKind::Email.index()] {
                email_index.entry(e).or_default().push(j as u32);
            }
            if let (Some(b), Some(c)) = (
                sig.attrs[AttrKind::Birth.index()],
                sig.attrs[AttrKind::City.index()],
            ) {
                birth_city_index.entry((b, c)).or_default().push(j as u32);
            }
        }

        let detector = FaceDetector::default();
        let classifier = FaceClassifier::default();
        let mut out = Vec::new();

        for (i, sig) in left.iter().enumerate() {
            let mut seen: HashSet<u32> = HashSet::new();
            let mut scored: Vec<CandidatePair> = Vec::new();

            for g in grams(&sig.username) {
                if let Some(js) = gram_index.get(&g) {
                    for &j in js {
                        if !seen.insert(j) {
                            continue;
                        }
                        let other = &right[j as usize];
                        let sim = jaro_winkler(&sig.username, &other.username)
                            .max(lcs_ratio(&sig.username, &other.username));
                        if sim >= config.username_threshold {
                            let pre = sim >= config.strict_username
                                && discriminative_agreement(&sig.attrs, &other.attrs) >= 2;
                            scored.push(CandidatePair {
                                left: i as u32,
                                right: j,
                                username_sim: sim,
                                pre_matched: pre,
                            });
                        }
                    }
                }
            }

            if let Some(e) = sig.attrs[AttrKind::Email.index()] {
                if let Some(js) = email_index.get(&e) {
                    for &j in js {
                        if seen.insert(j) {
                            scored.push(CandidatePair {
                                left: i as u32,
                                right: j,
                                username_sim: 0.0,
                                pre_matched: true,
                            });
                        } else if let Some(c) = scored.iter_mut().find(|c| c.right == j) {
                            c.pre_matched = true;
                        }
                    }
                }
            }

            if let (Some(b), Some(c)) = (
                sig.attrs[AttrKind::Birth.index()],
                sig.attrs[AttrKind::City.index()],
            ) {
                if let Some(js) = birth_city_index.get(&(b, c)) {
                    for &j in js {
                        if seen.insert(j) {
                            scored.push(CandidatePair {
                                left: i as u32,
                                right: j,
                                username_sim: 0.0,
                                pre_matched: false,
                            });
                        }
                    }
                }
            }

            for c in scored.iter_mut() {
                if c.pre_matched {
                    continue;
                }
                if let FaceMatchOutcome::Score(s) = match_profile_images(
                    sig.image.as_ref(),
                    right[c.right as usize].image.as_ref(),
                    &detector,
                    &classifier,
                ) {
                    if s >= config.strict_face && c.username_sim >= config.username_threshold {
                        c.pre_matched = true;
                    }
                }
            }

            scored.sort_by(|a, b| {
                b.username_sim
                    .total_cmp(&a.username_sim)
                    .then(a.right.cmp(&b.right))
            });
            scored.truncate(config.max_per_user);
            out.extend(scored);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{SignalConfig, Signals};
    use hydra_datagen::{Dataset, DatasetConfig};
    use std::collections::HashSet;

    fn signals() -> (Dataset, Signals) {
        let d = Dataset::generate(DatasetConfig::english(80, 55));
        let s = Signals::extract(
            &d,
            &SignalConfig {
                lda_iterations: 10,
                infer_iterations: 4,
                ..Default::default()
            },
        );
        (d, s)
    }

    fn packed(name: &str) -> Vec<u64> {
        let mut out = Vec::new();
        gram_keys(name, &mut out);
        out
    }

    fn pack_str(g: &str) -> u64 {
        let mut key = (g.chars().count() as u64) << GRAM_LEN_SHIFT;
        for (k, c) in g.chars().enumerate() {
            key |= (c as u64) << (k as u32 * GRAM_CHAR_BITS);
        }
        key
    }

    #[test]
    fn gram_extraction() {
        assert_eq!(packed(""), Vec::<u64>::new());
        assert_eq!(packed("ab"), vec![pack_str("ab")]);
        let g = packed("adele");
        assert!(g.contains(&pack_str("ade")));
        assert!(g.contains(&pack_str("ele")));
        // Deduplicated.
        assert_eq!(packed("aaaa"), vec![pack_str("aaa")]);
    }

    #[test]
    fn interned_grams_match_legacy_string_grams_as_sets() {
        for name in [
            "adele",
            "Adele_小暖",
            "a",
            "",
            "__x__",
            "ADELE2024",
            "日本語テスト",
            "mixed💬emoji",
            "ab",
            "ab\u{0}x", // NUL-bearing: its 3-gram must NOT collide with gram "ab"
        ] {
            let legacy: HashSet<u64> = legacy::grams(name).iter().map(|g| pack_str(g)).collect();
            let interned: HashSet<u64> = packed(name).into_iter().collect();
            assert_eq!(legacy, interned, "gram set mismatch for {name:?}");
        }
    }

    #[test]
    fn candidates_cover_most_true_pairs() {
        let (d, s) = signals();
        let cands = generate_candidates(
            &s.per_platform[0],
            &s.per_platform[1],
            &CandidateConfig::default(),
        );
        let recall = candidate_recall(&cands, d.num_persons());
        assert!(
            recall > 0.55,
            "candidate recall {recall} too low ({} candidates)",
            cands.len()
        );
    }

    #[test]
    fn candidates_are_a_small_fraction_of_all_pairs() {
        let (d, s) = signals();
        let cands = generate_candidates(
            &s.per_platform[0],
            &s.per_platform[1],
            &CandidateConfig::default(),
        );
        let all = d.num_persons() * d.num_persons();
        assert!(
            cands.len() < all / 4,
            "blocking should prune: {} of {all}",
            cands.len()
        );
    }

    #[test]
    fn pre_matched_pairs_are_precise() {
        let (_, s) = signals();
        let cands = generate_candidates(
            &s.per_platform[0],
            &s.per_platform[1],
            &CandidateConfig::default(),
        );
        let pre: Vec<_> = cands.iter().filter(|c| c.pre_matched).collect();
        if pre.len() >= 5 {
            let correct = pre.iter().filter(|c| c.left == c.right).count();
            let precision = correct as f64 / pre.len() as f64;
            // The paper reports >95% for its rule-based labels; we accept a
            // slightly looser floor on the small synthetic population.
            assert!(precision > 0.8, "pre-match precision {precision}");
        }
    }

    #[test]
    fn per_user_cap_respected() {
        let (_, s) = signals();
        let config = CandidateConfig {
            max_per_user: 5,
            ..Default::default()
        };
        let cands = generate_candidates(&s.per_platform[0], &s.per_platform[1], &config);
        let mut per_user: HashMap<u32, usize> = HashMap::new();
        for c in &cands {
            *per_user.entry(c.left).or_insert(0) += 1;
        }
        assert!(per_user.values().all(|&n| n <= 5));
    }

    #[test]
    fn no_duplicate_pairs() {
        let (_, s) = signals();
        let cands = generate_candidates(
            &s.per_platform[0],
            &s.per_platform[1],
            &CandidateConfig::default(),
        );
        let mut seen = HashSet::new();
        for c in &cands {
            assert!(seen.insert((c.left, c.right)), "dup pair {c:?}");
        }
    }

    #[test]
    fn optimized_path_matches_legacy_exactly() {
        let (_, s) = signals();
        let config = CandidateConfig::default();
        let new = generate_candidates(&s.per_platform[0], &s.per_platform[1], &config);
        let old =
            legacy::generate_candidates_legacy(&s.per_platform[0], &s.per_platform[1], &config);
        assert_eq!(new, old);
    }

    fn named(username: &str) -> UserSignals {
        let mut s = UserSignals::empty();
        s.username = username.to_string();
        s
    }

    fn probe_candidates(
        left: &UserSignals,
        index: &BlockingIndex,
        right: &[UserSignals],
    ) -> Vec<CandidatePair> {
        let mut grams = Vec::new();
        gram_keys(&left.username, &mut grams);
        let chars: Vec<char> = left.username.chars().collect();
        let mut sorted = chars.clone();
        sorted.sort_unstable();
        score_left_account(
            0,
            left,
            &LeftProbe {
                grams: &grams,
                chars: &chars,
                sorted_chars: &sorted,
            },
            index,
            right,
            &CandidateConfig::default(),
            &FaceDetector::default(),
            &FaceClassifier::default(),
            None,
        )
    }

    /// Stop-gram accounting audit (ISSUE 5): an index churned through
    /// removals must probe exactly like a fresh-semantics index over the
    /// same active population *with the same slot numbering* — including
    /// a gram whose suppression state flips back OFF as removals thin its
    /// postings across the `stop_gram_cap` boundary.
    #[test]
    fn churned_index_matches_fresh_semantics() {
        // 30 accounts share the 3-gram "abc" (cap for ≤100 active is 25,
        // so the gram starts suppressed), plus unrelated filler.
        let mut slate: Vec<UserSignals> = (0..30).map(|i| named(&format!("abc{i:02}"))).collect();
        for i in 0..10 {
            slate.push(named(&format!("zq{i:02}")));
        }
        let removed: Vec<u32> = vec![1, 3, 5, 7, 9];

        // Churned: everything inserted active, then five removals.
        let mut churned = BlockingIndex::build(&slate);
        let probe_sig = named("abcdef");

        // Before the removals the shared gram indexes 30 > 25 accounts:
        // suppressed, so the probe (whose only shared gram is "abc")
        // surfaces nothing.
        assert!(
            probe_candidates(&probe_sig, &churned, &slate).is_empty(),
            "gram must start suppressed (30 postings > cap 25)"
        );
        for &a in &removed {
            assert!(churned.remove_account(a));
        }

        // Fresh semantics: identical slate and slot numbering, but the
        // removed accounts were never posted at all.
        let mut fresh = BlockingIndex::build(&[]);
        for (a, sig) in slate.iter().enumerate() {
            if removed.contains(&(a as u32)) {
                fresh.insert_account_inactive(sig);
            } else {
                fresh.insert_account(sig);
            }
        }

        assert_eq!(churned.active_accounts(), fresh.active_accounts());
        let got = probe_candidates(&probe_sig, &churned, &slate);
        let want = probe_candidates(&probe_sig, &fresh, &slate);

        // The removals brought the gram to 25 postings == cap 25: it must
        // have flipped back to unsuppressed — on BOTH indexes.
        assert!(
            !want.is_empty(),
            "gram must unsuppress at the boundary on the fresh index"
        );
        assert_eq!(got.len(), want.len(), "churned vs fresh candidate count");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!((g.left, g.right), (w.left, w.right));
            assert_eq!(g.username_sim.to_bits(), w.username_sim.to_bits());
            assert_eq!(g.pre_matched, w.pre_matched);
        }
        // No removed account came back.
        assert!(got.iter().all(|c| !removed.contains(&c.right)));
    }
}

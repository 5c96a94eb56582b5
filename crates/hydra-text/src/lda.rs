//! Latent Dirichlet Allocation via collapsed Gibbs sampling.
//!
//! Section 5.2: "We first construct a latent topic model using Latent
//! Dirichlet Allocation on every textual message, the output of which is a
//! probability distribution over the topic space." This module provides
//! that machinery: training on a token-id corpus and folding-in inference
//! for new messages, both by collapsed Gibbs sampling with symmetric
//! Dirichlet priors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters for [`LdaModel::train`].
#[derive(Debug, Clone, Copy)]
pub struct LdaOptions {
    /// Number of latent topics `K`.
    pub num_topics: usize,
    /// Symmetric document–topic prior α.
    pub alpha: f64,
    /// Symmetric topic–word prior β.
    pub beta: f64,
    /// Gibbs sweeps over the corpus.
    pub iterations: usize,
    /// RNG seed (training is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for LdaOptions {
    fn default() -> Self {
        LdaOptions {
            num_topics: 10,
            alpha: 0.5,
            beta: 0.1,
            iterations: 100,
            seed: 0x9E3779B97F4A7C15,
        }
    }
}

/// A trained LDA model: topic–word counts plus the hyper-parameters needed
/// for inference on unseen messages.
#[derive(Debug, Clone)]
pub struct LdaModel {
    num_topics: usize,
    vocab_size: usize,
    alpha: f64,
    beta: f64,
    /// `topic_word[k * vocab_size + w]` — count of word `w` in topic `k`.
    topic_word: Vec<u32>,
    /// Total tokens per topic.
    topic_totals: Vec<u32>,
}

impl LdaModel {
    /// Train on a corpus of token-id documents over a vocabulary of
    /// `vocab_size` words.
    ///
    /// # Panics
    /// Panics if `num_topics == 0`, `vocab_size == 0`, or a token id is out
    /// of range.
    pub fn train(docs: &[Vec<u32>], vocab_size: usize, opts: LdaOptions) -> Self {
        assert!(opts.num_topics > 0, "LDA needs at least one topic");
        assert!(vocab_size > 0, "LDA needs a non-empty vocabulary");
        let k = opts.num_topics;
        let mut rng = StdRng::seed_from_u64(opts.seed);

        let mut topic_word = vec![0u32; k * vocab_size];
        let mut topic_totals = vec![0u32; k];
        let mut doc_topic: Vec<Vec<u32>> = docs.iter().map(|_| vec![0u32; k]).collect();
        // Current topic assignment per token.
        let mut assignments: Vec<Vec<usize>> = Vec::with_capacity(docs.len());

        // Random initialization.
        for (d, doc) in docs.iter().enumerate() {
            let mut z = Vec::with_capacity(doc.len());
            for &w in doc {
                assert!((w as usize) < vocab_size, "token id {w} out of range");
                let t = rng.gen_range(0..k);
                z.push(t);
                topic_word[t * vocab_size + w as usize] += 1;
                topic_totals[t] += 1;
                doc_topic[d][t] += 1;
            }
            assignments.push(z);
        }

        let mut probs = vec![0.0f64; k];
        let vb = vocab_size as f64 * opts.beta;
        for _sweep in 0..opts.iterations {
            for (d, doc) in docs.iter().enumerate() {
                for (pos, &w) in doc.iter().enumerate() {
                    let old = assignments[d][pos];
                    // Remove the token from the counts.
                    topic_word[old * vocab_size + w as usize] -= 1;
                    topic_totals[old] -= 1;
                    doc_topic[d][old] -= 1;

                    // Collapsed conditional p(z = t | rest).
                    let mut total = 0.0;
                    for (t, p) in probs.iter_mut().enumerate() {
                        let phi = (topic_word[t * vocab_size + w as usize] as f64 + opts.beta)
                            / (topic_totals[t] as f64 + vb);
                        let theta = doc_topic[d][t] as f64 + opts.alpha;
                        *p = phi * theta;
                        total += *p;
                    }
                    // Sample the new assignment.
                    let mut u = rng.gen::<f64>() * total;
                    let mut new = k - 1;
                    for (t, &p) in probs.iter().enumerate() {
                        if u < p {
                            new = t;
                            break;
                        }
                        u -= p;
                    }

                    assignments[d][pos] = new;
                    topic_word[new * vocab_size + w as usize] += 1;
                    topic_totals[new] += 1;
                    doc_topic[d][new] += 1;
                }
            }
        }

        LdaModel {
            num_topics: k,
            vocab_size,
            alpha: opts.alpha,
            beta: opts.beta,
            topic_word,
            topic_totals,
        }
    }

    /// Reassemble a trained model from its frozen inference state — the
    /// counterpart of [`LdaModel::topic_word_counts`] /
    /// [`LdaModel::topic_totals`] used by persistence layers. The rebuilt
    /// model's [`LdaModel::infer`] is bit-identical to the original's
    /// (inference reads only the counts and priors).
    ///
    /// # Panics
    /// Panics when the shapes are inconsistent (`topic_word` must hold
    /// `num_topics * vocab_size` counts, `topic_totals` one per topic) or a
    /// dimension is zero.
    pub fn from_parts(
        num_topics: usize,
        vocab_size: usize,
        alpha: f64,
        beta: f64,
        topic_word: Vec<u32>,
        topic_totals: Vec<u32>,
    ) -> Self {
        assert!(num_topics > 0, "LDA needs at least one topic");
        assert!(vocab_size > 0, "LDA needs a non-empty vocabulary");
        assert_eq!(topic_word.len(), num_topics * vocab_size, "count shape");
        assert_eq!(topic_totals.len(), num_topics, "totals shape");
        LdaModel {
            num_topics,
            vocab_size,
            alpha,
            beta,
            topic_word,
            topic_totals,
        }
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Vocabulary size the model was trained with.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Document–topic prior α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Topic–word prior β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Frozen topic–word counts (`topic * vocab_size + word` layout) — the
    /// inference state persistence layers serialize.
    pub fn topic_word_counts(&self) -> &[u32] {
        &self.topic_word
    }

    /// Total token count per topic.
    pub fn topic_totals(&self) -> &[u32] {
        &self.topic_totals
    }

    /// The trained prior over topics: the corpus-wide topic mixture
    /// `(n_t + α) / (Σ n + K·α)`. This is what an observer knows about a
    /// message *before* seeing any token — an untrained model (all counts
    /// zero) reduces to the uniform distribution.
    fn prior_distribution(&self) -> Vec<f64> {
        let total: u64 = self.topic_totals.iter().map(|&c| c as u64).sum();
        let denom = total as f64 + self.num_topics as f64 * self.alpha;
        self.topic_totals
            .iter()
            .map(|&c| (c as f64 + self.alpha) / denom)
            .collect()
    }

    /// Fold-in inference: topic distribution for an unseen message by Gibbs
    /// sampling against the frozen topic–word counts.
    ///
    /// **Determinism:** the sample chain is driven entirely by a private
    /// `StdRng` seeded from `seed` and by the frozen counts — no global
    /// state, no thread-dependent iteration order — so identical
    /// `(tokens, iterations, seed)` produce bit-identical distributions on
    /// every call, from any thread, at any `HYDRA_THREADS` worker count
    /// (pinned by `infer_is_deterministic_across_threads` below and by the
    /// extraction-level parity in `hydra-core/tests/ingest_parity.rs`).
    ///
    /// Out-of-vocabulary tokens are ignored; an effectively-empty message
    /// carries no evidence, so it returns the **trained prior**
    /// (`prior_distribution`, the corpus topic mixture) rather
    /// than a fixed uniform distribution that would misstate what the model
    /// believes about an average message.
    pub fn infer(&self, tokens: &[u32], iterations: usize, seed: u64) -> Vec<f64> {
        let k = self.num_topics;
        let in_vocab: Vec<u32> = tokens
            .iter()
            .copied()
            .filter(|&w| (w as usize) < self.vocab_size)
            .collect();
        if in_vocab.is_empty() {
            return self.prior_distribution();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut local_counts = vec![0u32; k];
        let mut z: Vec<usize> = in_vocab.iter().map(|_| rng.gen_range(0..k)).collect();
        for &t in &z {
            local_counts[t] += 1;
        }
        let vb = self.vocab_size as f64 * self.beta;
        // The phi denominator depends only on the frozen totals — invariant
        // over the whole call, so hoist it out of the token/sweep loops.
        let denoms: Vec<f64> = self.topic_totals.iter().map(|&c| c as f64 + vb).collect();
        let mut probs = vec![0.0f64; k];
        for _ in 0..iterations.max(1) {
            for (pos, &w) in in_vocab.iter().enumerate() {
                let old = z[pos];
                local_counts[old] -= 1;
                let mut total = 0.0;
                for (t, p) in probs.iter_mut().enumerate() {
                    let phi = (self.topic_word[t * self.vocab_size + w as usize] as f64
                        + self.beta)
                        / denoms[t];
                    let theta = local_counts[t] as f64 + self.alpha;
                    *p = phi * theta;
                    total += *p;
                }
                let mut u = rng.gen::<f64>() * total;
                let mut new = k - 1;
                for (t, &p) in probs.iter().enumerate() {
                    if u < p {
                        new = t;
                        break;
                    }
                    u -= p;
                }
                z[pos] = new;
                local_counts[new] += 1;
            }
        }
        let denom = in_vocab.len() as f64 + k as f64 * self.alpha;
        local_counts
            .iter()
            .map(|&c| (c as f64 + self.alpha) / denom)
            .collect()
    }

    /// Build the frozen per-word sampling tables for the
    /// [`FoldInMode::Tables`] fast path. The extractor is frozen at serving
    /// time, so one table build amortizes across every account ever
    /// ingested.
    pub fn fold_in_tables(&self) -> FoldInTables {
        FoldInTables::new(self)
    }
}

/// Which fold-in drives per-message topic inference at serving time.
///
/// Both modes target the same posterior `p(θ | tokens, frozen φ)`:
/// Reference draws from it with the historical collapsed-Gibbs chain;
/// Tables computes its mean-field fixed point deterministically. They
/// agree statistically (pinned by the themed-corpus tests below) but are
/// not bit-comparable — only Reference is golden-bit pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FoldInMode {
    /// The original sampler, pinned bit-identical to the historical
    /// [`LdaModel::infer`] output (golden-bit tests below).
    #[default]
    Reference,
    /// Deterministic fold-in over [`FoldInTables`]: CVB0-style expectation
    /// iterations `θ_t ∝ α + Σ_w c_w·r_w[t]` with responsibilities
    /// `r_w[t] ∝ φ_w[t]·θ_t` over precomputed per-word φ-rows. No sampling
    /// chain at all — the per-token Gibbs floor (a serial draw-select
    /// dependency per token per sweep) is what capped ingest throughput —
    /// so the result is trivially seed-invariant, thread-invariant, and
    /// shard-invariant, and each iteration is a branch-free multiply-add
    /// scan with a single division per token.
    Tables,
}

/// Precomputed per-word tables over a frozen [`LdaModel`] — the data behind
/// [`FoldInMode::Tables`].
///
/// Layout is word-major so one token touches one contiguous `K`-row:
/// `phi[w*K + t] = (n_{t,w} + β) / (n_t + V·β)`. Building is O(V·K) once
/// per frozen extractor; fold-in then never divides by the topic totals or
/// converts `u32` counts again. (An earlier draft kept the Gibbs chain and
/// split its mass into a sparse doc part plus a per-word cumulative
/// α-table; at serving-size `K` the chain's serial draw-select dependency
/// dominated regardless of how the mass was organized, which is why Tables
/// mode is the deterministic fixed point instead.)
#[derive(Debug, Clone)]
pub struct FoldInTables {
    num_topics: usize,
    vocab_size: usize,
    alpha: f64,
    /// Trained prior, returned for evidence-free messages — bit-identical
    /// to [`LdaModel::prior_distribution`].
    prior: Vec<f64>,
    phi: Vec<f64>,
    /// First-iteration responsibilities `r⁰_w = φ_w·θ⁰ / ⟨φ_w, θ⁰⟩`, with
    /// θ⁰ the trained prior. The prior is frozen with the model, so every
    /// fold-in's first expectation step over any token `w` adds exactly this
    /// row — precomputing it turns iteration one into a pure gather-add (no
    /// multiplies, no division), ~¼ of the kernel work at the default
    /// iteration budget.
    resp0: Vec<f64>,
}

/// Reusable buffers for [`FoldInTables::infer_into`]: batch ingest
/// folds in thousands of messages, and per-call allocation is measurable on
/// that path. A scratch carries no state between calls — reusing one is
/// bit-identical to fresh buffers (pinned below).
#[derive(Debug, Clone, Default)]
pub struct FoldInScratch {
    in_vocab: Vec<u32>,
    /// Current topic mixture θ (the iterate).
    theta: Vec<f64>,
    /// Next iterate being accumulated: `α + Σ_w c_w·r_w[t]`.
    acc: Vec<f64>,
    /// Per-topic responsibility numerators of the token in hand.
    resp: Vec<f64>,
}

impl FoldInTables {
    /// Precompute the tables from a frozen model.
    pub fn new(model: &LdaModel) -> Self {
        let k = model.num_topics;
        let v = model.vocab_size;
        let vb = v as f64 * model.beta;
        let inv_denoms: Vec<f64> = model
            .topic_totals
            .iter()
            .map(|&c| 1.0 / (c as f64 + vb))
            .collect();
        let mut phi = vec![0.0f64; v * k];
        for w in 0..v {
            for t in 0..k {
                phi[w * k + t] = (model.topic_word[t * v + w] as f64 + model.beta) * inv_denoms[t];
            }
        }
        let prior = model.prior_distribution();
        let mut resp0 = vec![0.0f64; v * k];
        for w in 0..v {
            let row = &phi[w * k..(w + 1) * k];
            let r = &mut resp0[w * k..(w + 1) * k];
            // Same arithmetic as the kernel's first iteration over θ⁰ =
            // prior, including the two-chain summation order, so seeding
            // from this table is bit-identical to computing it in-line.
            for t in 0..k {
                r[t] = row[t] * prior[t];
            }
            let (mut s0, mut s1) = (0.0f64, 0.0f64);
            let mut t = 0;
            while t + 1 < k {
                s0 += r[t];
                s1 += r[t + 1];
                t += 2;
            }
            if t < k {
                s0 += r[t];
            }
            let inv = 1.0 / (s0 + s1);
            for x in r.iter_mut() {
                *x *= inv;
            }
        }
        FoldInTables {
            num_topics: k,
            vocab_size: v,
            alpha: model.alpha,
            prior,
            phi,
            resp0,
        }
    }

    /// Number of topics `K` the tables were built for.
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Vocabulary size the tables were built for.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Heap footprint of the tables in bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.phi.capacity() + self.resp0.capacity() + self.prior.capacity())
            * std::mem::size_of::<f64>()
    }

    /// [`FoldInMode::Tables`] fold-in with fresh buffers. Semantics match
    /// [`LdaModel::infer`] (OOV tokens ignored, evidence-free messages
    /// return the trained prior), but the estimate is the deterministic
    /// mean-field fixed point — `seed` is accepted for signature parity
    /// with the Reference sampler and ignored.
    pub fn infer(&self, tokens: &[u32], iterations: usize, seed: u64) -> Vec<f64> {
        let mut scratch = FoldInScratch::default();
        self.infer_with_scratch(tokens, iterations, seed, &mut scratch)
    }

    /// As [`FoldInTables::infer`], reusing caller-held buffers.
    fn infer_with_scratch(
        &self,
        tokens: &[u32],
        iterations: usize,
        seed: u64,
        scratch: &mut FoldInScratch,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_topics);
        self.infer_into(tokens, iterations, seed, scratch, &mut out);
        out
    }

    /// As [`FoldInTables::infer`], reusing caller-held buffers and writing θ
    /// into a caller-held output buffer (cleared first) instead of allocating —
    /// the batch pipeline folds in one distribution per post and
    /// accumulates it straight into per-day totals, so the result never
    /// needs to own its storage.
    pub fn infer_into(
        &self,
        tokens: &[u32],
        iterations: usize,
        _seed: u64,
        scratch: &mut FoldInScratch,
        out: &mut Vec<f64>,
    ) {
        scratch.in_vocab.clear();
        scratch.in_vocab.extend(
            tokens
                .iter()
                .copied()
                .filter(|&w| (w as usize) < self.vocab_size),
        );
        out.clear();
        if scratch.in_vocab.is_empty() {
            out.extend_from_slice(&self.prior);
            return;
        }
        // Monomorphize the hot topic-counts: with `K` a compile-time
        // constant the expectation kernel unrolls fully, keeps θ/acc in
        // registers, and elides every bounds check. Unhandled K falls back
        // to the slice kernel (same update rule; summation order within a
        // token differs, so the paths are each self-deterministic but not
        // bit-comparable — every model has one K, so one path).
        match self.num_topics {
            2 => self.em_fixed::<2>(&scratch.in_vocab, iterations, out),
            3 => self.em_fixed::<3>(&scratch.in_vocab, iterations, out),
            4 => self.em_fixed::<4>(&scratch.in_vocab, iterations, out),
            8 => self.em_fixed::<8>(&scratch.in_vocab, iterations, out),
            16 => self.em_fixed::<16>(&scratch.in_vocab, iterations, out),
            _ => self.em_dyn(scratch, iterations, out),
        }
    }

    /// CVB0-style expectation iterations from the trained prior: each token
    /// distributes one unit of mass over topics by responsibility
    /// `r_w[t] ∝ φ_w[t]·θ_t`, and the next iterate is the α-smoothed,
    /// L1-normalized total. Every loop is a contiguous multiply-add scan;
    /// the only division is one reciprocal per token, and those reciprocals
    /// are independent across tokens (θ is fixed within an iteration), so
    /// they pipeline instead of serializing.
    fn em_fixed<const K: usize>(&self, in_vocab: &[u32], iterations: usize, out: &mut Vec<f64>) {
        let alpha = self.alpha;
        let mut theta = [0.0f64; K];
        let norm = 1.0 / (in_vocab.len() as f64 + K as f64 * alpha);
        // Iteration one reads the precomputed prior-responsibility rows:
        // θ is the trained prior at this point, so the whole expectation
        // step is a gather-add.
        {
            let mut acc = [alpha; K];
            for &w in in_vocab {
                let start = w as usize * K;
                let row: &[f64; K] = self.resp0[start..start + K]
                    .try_into()
                    .expect("resp0 row width");
                for t in 0..K {
                    acc[t] += row[t];
                }
            }
            for t in 0..K {
                theta[t] = acc[t] * norm;
            }
        }
        for _ in 1..iterations.max(1) {
            let mut acc = [alpha; K];
            for &w in in_vocab {
                let start = w as usize * K;
                let row: &[f64; K] = self.phi[start..start + K]
                    .try_into()
                    .expect("phi row width");
                let mut r = [0.0f64; K];
                for t in 0..K {
                    r[t] = row[t] * theta[t];
                }
                // Two-chain sum halves the add-latency dependency.
                let (mut s0, mut s1) = (0.0f64, 0.0f64);
                let mut t = 0;
                while t + 1 < K {
                    s0 += r[t];
                    s1 += r[t + 1];
                    t += 2;
                }
                if t < K {
                    s0 += r[t];
                }
                let inv = 1.0 / (s0 + s1);
                for t in 0..K {
                    acc[t] += r[t] * inv;
                }
            }
            for t in 0..K {
                theta[t] = acc[t] * norm;
            }
        }
        out.extend_from_slice(&theta);
    }

    /// Slice fallback of [`FoldInTables::em_fixed`] for topic counts without
    /// a monomorphized kernel.
    fn em_dyn(&self, scratch: &mut FoldInScratch, iterations: usize, out: &mut Vec<f64>) {
        let k = self.num_topics;
        let alpha = self.alpha;
        scratch.theta.clear();
        scratch.theta.extend_from_slice(&self.prior);
        scratch.acc.clear();
        scratch.acc.resize(k, 0.0);
        scratch.resp.clear();
        scratch.resp.resize(k, 0.0);
        let FoldInScratch {
            in_vocab,
            theta,
            acc,
            resp,
        } = scratch;
        for _ in 0..iterations.max(1) {
            for a in acc.iter_mut() {
                *a = alpha;
            }
            for &w in in_vocab.iter() {
                let row = w as usize * k;
                let phi_w = &self.phi[row..row + k];
                let mut total = 0.0;
                for ((r, &p), &t) in resp.iter_mut().zip(phi_w).zip(theta.iter()) {
                    *r = p * t;
                    total += *r;
                }
                let inv = 1.0 / total;
                for (a, &r) in acc.iter_mut().zip(resp.iter()) {
                    *a += r * inv;
                }
            }
            let norm = 1.0 / (in_vocab.len() as f64 + k as f64 * alpha);
            for (t, &a) in theta.iter_mut().zip(acc.iter()) {
                *t = a * norm;
            }
        }
        out.extend_from_slice(theta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint "themes": words 0..5 and words 5..10. Documents draw
    /// exclusively from one theme, so a 2-topic LDA must separate them.
    fn themed_corpus() -> (Vec<Vec<u32>>, usize) {
        let mut docs = Vec::new();
        for i in 0..30 {
            let base = if i % 2 == 0 { 0u32 } else { 5u32 };
            let doc: Vec<u32> = (0..20).map(|j| base + (j % 5) as u32).collect();
            docs.push(doc);
        }
        (docs, 10)
    }

    #[test]
    fn distributions_are_normalized() {
        let (docs, v) = themed_corpus();
        let model = LdaModel::train(
            &docs,
            v,
            LdaOptions {
                num_topics: 2,
                iterations: 50,
                ..Default::default()
            },
        );
        for (d, doc) in docs.iter().enumerate() {
            let theta = model.infer(doc, 20, d as u64);
            let s: f64 = theta.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "theta not normalized: {s}");
            assert!(theta.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn separates_disjoint_themes() {
        let (docs, v) = themed_corpus();
        let model = LdaModel::train(
            &docs,
            v,
            LdaOptions {
                num_topics: 2,
                iterations: 80,
                seed: 7,
                ..Default::default()
            },
        );
        // Each topic's trained word counts must concentrate on one theme,
        // and the two topics on different themes.
        let counts = model.topic_word_counts();
        let theme_a_share = |t: usize| {
            let row = &counts[t * v..(t + 1) * v];
            row[..5].iter().sum::<u32>() as f64 / row.iter().sum::<u32>() as f64
        };
        let (s0, s1) = (theme_a_share(0), theme_a_share(1));
        assert!(
            (s0 > 0.8 && s1 < 0.2) || (s0 < 0.2 && s1 > 0.8),
            "weak separation: {s0} {s1}"
        );
    }

    #[test]
    fn inference_matches_theme() {
        let (docs, v) = themed_corpus();
        let model = LdaModel::train(
            &docs,
            v,
            LdaOptions {
                num_topics: 2,
                iterations: 80,
                seed: 7,
                ..Default::default()
            },
        );
        let theme0 = model.infer(&[0, 1, 2, 3, 4, 0, 1], 30, 99);
        let theme1 = model.infer(&[5, 6, 7, 8, 9, 5, 6], 30, 99);
        let d0 = if theme0[0] > theme0[1] { 0 } else { 1 };
        let d1 = if theme1[0] > theme1[1] { 0 } else { 1 };
        assert_ne!(
            d0, d1,
            "inferred themes should differ: {theme0:?} vs {theme1:?}"
        );
    }

    #[test]
    fn inference_handles_oov_and_empty() {
        let (docs, v) = themed_corpus();
        let model = LdaModel::train(
            &docs,
            v,
            LdaOptions {
                num_topics: 3,
                iterations: 10,
                ..Default::default()
            },
        );
        // No evidence → the trained prior (corpus topic mixture), which is
        // a proper distribution but NOT the degenerate uniform one.
        let prior = model.prior_distribution();
        assert!((prior.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(model.infer(&[], 10, 1), prior);
        // All-OOV behaves like empty.
        assert_eq!(model.infer(&[1000, 2000], 10, 1), prior);
        // The trained corpus is not balanced across 3 topics, so the prior
        // reflects it (the old behavior returned uniform here).
        assert!(prior.iter().any(|&p| (p - 1.0 / 3.0).abs() > 1e-9));
    }

    #[test]
    fn untrained_prior_is_uniform() {
        let model = LdaModel::from_parts(4, 7, 0.5, 0.1, vec![0; 28], vec![0; 4]);
        assert_eq!(model.prior_distribution(), vec![0.25; 4]);
        assert_eq!(model.infer(&[], 5, 9), vec![0.25; 4]);
    }

    #[test]
    fn from_parts_round_trips_inference() {
        let (docs, v) = themed_corpus();
        let model = LdaModel::train(
            &docs,
            v,
            LdaOptions {
                num_topics: 2,
                iterations: 30,
                seed: 11,
                ..Default::default()
            },
        );
        let rebuilt = LdaModel::from_parts(
            model.num_topics(),
            model.vocab_size(),
            model.alpha(),
            model.beta(),
            model.topic_word_counts().to_vec(),
            model.topic_totals().to_vec(),
        );
        for (toks, iters, seed) in [
            (vec![0u32, 1, 2, 0], 25usize, 7u64),
            (vec![5, 9, 9], 12, 0xFEED),
            (vec![], 3, 1),
        ] {
            let a = model.infer(&toks, iters, seed);
            let b = rebuilt.infer(&toks, iters, seed);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "rebuilt inference drift on {toks:?}");
        }
    }

    #[test]
    fn infer_is_deterministic_across_threads() {
        // Identical (tokens, iterations, seed) must give bit-identical
        // distributions no matter which thread runs the fold-in — the
        // serving layer infers concurrently under hydra-par.
        let (docs, v) = themed_corpus();
        let model = std::sync::Arc::new(LdaModel::train(
            &docs,
            v,
            LdaOptions {
                num_topics: 2,
                iterations: 40,
                seed: 3,
                ..Default::default()
            },
        ));
        let tokens = vec![0u32, 5, 1, 6, 2];
        let reference = model.infer(&tokens, 20, 0xABCD);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&model);
                let toks = tokens.clone();
                std::thread::spawn(move || m.infer(&toks, 20, 0xABCD))
            })
            .collect();
        for h in handles {
            let got = h.join().expect("thread");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&reference), "thread-dependent inference");
        }
        // And repeated sequential calls agree too.
        assert_eq!(model.infer(&tokens, 20, 0xABCD), reference);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let (docs, v) = themed_corpus();
        let opts = LdaOptions {
            num_topics: 2,
            iterations: 20,
            seed: 5,
            ..Default::default()
        };
        let m1 = LdaModel::train(&docs, v, opts);
        let m2 = LdaModel::train(&docs, v, opts);
        assert_eq!(m1.topic_word_counts(), m2.topic_word_counts());
        assert_eq!(m1.topic_totals(), m2.topic_totals());
    }

    /// The fixture models the golden-bit and fold-in tests share.
    fn golden_models() -> (LdaModel, LdaModel, LdaModel) {
        let (docs, v) = themed_corpus();
        let m7 = LdaModel::train(
            &docs,
            v,
            LdaOptions {
                num_topics: 2,
                iterations: 80,
                seed: 7,
                ..Default::default()
            },
        );
        let m11 = LdaModel::train(
            &docs,
            v,
            LdaOptions {
                num_topics: 2,
                iterations: 30,
                seed: 11,
                ..Default::default()
            },
        );
        let m3 = LdaModel::train(
            &docs,
            v,
            LdaOptions {
                num_topics: 3,
                iterations: 40,
                seed: 3,
                ..Default::default()
            },
        );
        (m7, m11, m3)
    }

    #[test]
    fn reference_infer_matches_pre_refactor_golden_bits() {
        // Bit patterns recorded from the pre-refactor sampler (before the
        // denominator hoist and the FoldInMode split) on the themed-corpus
        // fixtures. FoldInMode::Reference is pinned to them exactly.
        let (m7, m11, m3) = golden_models();
        let cases: [(&LdaModel, Vec<u32>, usize, u64, Vec<u64>); 6] = [
            (
                &m7,
                vec![0, 1, 2, 3, 4, 0, 1],
                30,
                99,
                vec![0x3FEE000000000000, 0x3FB0000000000000],
            ),
            (
                &m7,
                vec![5, 6, 7, 8, 9, 5, 6],
                30,
                99,
                vec![0x3FB0000000000000, 0x3FEE000000000000],
            ),
            (
                &m11,
                vec![0, 1, 2, 0],
                25,
                7,
                vec![0x3FECCCCCCCCCCCCD, 0x3FB999999999999A],
            ),
            (
                &m11,
                vec![5, 9, 9],
                12,
                0xFEED,
                vec![0x3FC0000000000000, 0x3FEC000000000000],
            ),
            (
                &m3,
                vec![0, 5, 1, 6, 2],
                20,
                0xABCD,
                vec![0x3FD89D89D89D89D9, 0x3FCD89D89D89D89E, 0x3FD89D89D89D89D9],
            ),
            (
                &m3,
                vec![9, 9, 9, 0],
                1,
                42,
                vec![0x3FE45D1745D1745D, 0x3FB745D1745D1746, 0x3FD1745D1745D174],
            ),
        ];
        for (model, toks, iters, seed, want) in cases {
            let got: Vec<u64> = model
                .infer(&toks, iters, seed)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(
                got, want,
                "golden drift on {toks:?} iters={iters} seed={seed}"
            );
        }
    }

    #[test]
    fn tables_mode_is_deterministic_and_thread_invariant() {
        let (_, _, m3) = golden_models();
        let tables = std::sync::Arc::new(m3.fold_in_tables());
        let tokens = vec![0u32, 5, 1, 6, 2];
        let reference = tables.infer(&tokens, 20, 0xABCD);
        assert!((reference.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = std::sync::Arc::clone(&tables);
                let toks = tokens.clone();
                std::thread::spawn(move || t.infer(&toks, 20, 0xABCD))
            })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for h in handles {
            let got = h.join().expect("thread");
            assert_eq!(
                bits(&got),
                bits(&reference),
                "thread-dependent tables fold-in"
            );
        }
        assert_eq!(bits(&tables.infer(&tokens, 20, 0xABCD)), bits(&reference));
    }

    #[test]
    fn tables_mode_reuses_scratch_bit_identically() {
        let (m7, _, m3) = golden_models();
        let mut scratch = FoldInScratch::default();
        for (model, toks) in [
            (&m7, vec![0u32, 1, 2, 3, 4, 0, 1]),
            (&m3, vec![5, 6, 7, 8, 9, 5, 6]),
            (&m3, vec![]),
            (&m7, vec![9, 0, 9]),
        ] {
            let tables = model.fold_in_tables();
            let fresh = tables.infer(&toks, 15, 0xD1CE);
            let reused = tables.infer_with_scratch(&toks, 15, 0xD1CE, &mut scratch);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&fresh),
                bits(&reused),
                "scratch reuse drift on {toks:?}"
            );
        }
    }

    #[test]
    fn tables_mode_agrees_with_reference_statistically() {
        // Both modes estimate the same posterior p(θ | tokens, frozen φ):
        // Reference draws one Gibbs sample from it per seed, Tables computes
        // a deterministic mean-field point estimate. The fair comparison is
        // therefore against the Reference *posterior mean* — averaging many
        // independent draws — not any single draw (a lone chain can land a
        // full draw's width away from its own mean).
        let (m7, _, m3) = golden_models();
        for model in [&m7, &m3] {
            let tables = model.fold_in_tables();
            for toks in [
                vec![0u32, 1, 2, 3, 4, 0, 1],
                vec![5, 6, 7, 8, 9, 5, 6],
                vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
            ] {
                let k = model.num_topics();
                let mut mean = vec![0.0f64; k];
                const DRAWS: u64 = 64;
                for seed in 0..DRAWS {
                    for (m, v) in mean.iter_mut().zip(model.infer(&toks, 30, 1000 + seed)) {
                        *m += v / DRAWS as f64;
                    }
                }
                let fast = tables.infer(&toks, 30, 99);
                let dom = |v: &[f64]| {
                    v.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                        .map(|(i, _)| i)
                        .expect("nonempty")
                };
                assert_eq!(dom(&mean), dom(&fast), "dominant topic drift on {toks:?}");
                let l1: f64 = mean
                    .iter()
                    .zip(fast.iter())
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                assert!(
                    l1 < 0.25,
                    "tables fold-in far from reference posterior mean: L1={l1} on {toks:?}"
                );
            }
        }
    }

    #[test]
    fn tables_mode_prior_paths_match_reference_bitwise() {
        // Evidence-free messages take the precomputed-prior path; it must
        // be the same bits Reference computes on the fly.
        let (_, _, m3) = golden_models();
        let tables = m3.fold_in_tables();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tables.infer(&[], 10, 1)), bits(&m3.infer(&[], 10, 1)));
        assert_eq!(
            bits(&tables.infer(&[1000, 2000], 10, 1)),
            bits(&m3.infer(&[1000, 2000], 10, 1))
        );
        // Untrained model: uniform prior via both paths.
        let blank = LdaModel::from_parts(4, 7, 0.5, 0.1, vec![0; 28], vec![0; 4]);
        assert_eq!(blank.fold_in_tables().infer(&[], 5, 9), vec![0.25; 4]);
        // And the tables report their shape.
        assert_eq!(tables.num_topics(), 3);
        assert_eq!(tables.vocab_size(), 10);
        assert!(tables.heap_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn zero_topics_rejected() {
        LdaModel::train(
            &[vec![0]],
            1,
            LdaOptions {
                num_topics: 0,
                ..Default::default()
            },
        );
    }
}

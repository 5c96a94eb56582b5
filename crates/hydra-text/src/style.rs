//! User language-style modeling (Section 5.3).
//!
//! "To model a user's characteristic style, we extract the most unique words
//! of each user by a simple term frequency analysis on the whole database.
//! [...] we select the k (k = 1, 3, 5) most unique ones after removing stop
//! words from the least-used terms of the whole user data repository."
//!
//! For user pairs, Eq. 4 measures `S_lea = #matched_words / k` after
//! normalizing words "into a uniform format, such as lower-case and singular
//! form" — the normalization lives in [`crate::tokenize::normalize_token`].

use crate::tokenize::is_stop_word;
use crate::vocab::Vocabulary;
use std::collections::HashSet;

/// The k values the paper evaluates ("k = 1, 3, 5").
pub const STYLE_KS: [usize; 3] = [1, 3, 5];

/// A user's most-unique-word profile: words sorted by ascending global
/// frequency (rarest first), capped at the largest k of interest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UniqueWordProfile {
    /// Rarest-first normalized unique words, length ≤ `max_k`.
    pub words: Vec<String>,
}

impl UniqueWordProfile {
    /// Approximate heap size (length-based; ignores allocator slack).
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<String>()
            + self.words.iter().map(String::len).sum::<usize>()
    }

    /// Extract the profile for one user.
    ///
    /// * `user_tokens` — every normalized token the user ever produced
    ///   (across all messages and platforms being profiled);
    /// * `global` — vocabulary with corpus-wide term frequencies ("the whole
    ///   user data repository");
    /// * `max_k` — how many unique words to retain (the paper needs 5).
    ///
    /// Stop words and tokens of length ≤ 1 are removed; remaining candidate
    /// words are ranked by ascending *global* term frequency, tie-broken by
    /// the user's own usage count (descending) then lexicographically for
    /// determinism.
    pub fn extract(user_tokens: &[String], global: &Vocabulary, max_k: usize) -> Self {
        use std::collections::HashMap;
        let mut own_counts: HashMap<&str, u64> = HashMap::new();
        for t in user_tokens {
            if t.len() > 1 && !is_stop_word(t) {
                *own_counts.entry(t.as_str()).or_insert(0) += 1;
            }
        }
        let mut candidates: Vec<(&str, u64, u64)> = own_counts
            .iter()
            .map(|(&w, &own)| {
                let gf = global
                    .get(w)
                    .map(|id| global.term_frequency(id))
                    .unwrap_or(0);
                (w, gf, own)
            })
            .collect();
        candidates.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)).then(a.0.cmp(b.0)));
        UniqueWordProfile {
            words: candidates
                .into_iter()
                .take(max_k)
                .map(|(w, _, _)| w.to_string())
                .collect(),
        }
    }

    /// Top-k slice of the profile (k capped at the stored length).
    fn top_k(&self, k: usize) -> &[String] {
        &self.words[..k.min(self.words.len())]
    }
}

/// Eq. 4: `S_lea = #matched_words / k` between the two users' top-k unique
/// words. Words are assumed already normalized. When either profile has
/// fewer than `k` words the denominator stays `k` (missing uniqueness is
/// evidence of absence, not a free pass).
pub fn style_similarity(a: &UniqueWordProfile, b: &UniqueWordProfile, k: usize) -> f64 {
    assert!(k >= 1, "style similarity needs k >= 1");
    let sa: HashSet<&str> = a.top_k(k).iter().map(|s| s.as_str()).collect();
    let matched = b
        .top_k(k)
        .iter()
        .filter(|w| sa.contains(w.as_str()))
        .count();
    matched as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// Global corpus where "common" is frequent and the quirky words rare.
    fn global() -> Vocabulary {
        let mut v = Vocabulary::new();
        for _ in 0..50 {
            v.add_document(&toks(&["common", "everyday", "words"]));
        }
        v.add_document(&toks(&["zyzzyva", "quixotic", "serendipity"]));
        v.add_document(&toks(&["quixotic"]));
        v
    }

    #[test]
    fn extract_prefers_globally_rare_words() {
        let g = global();
        let user = toks(&["common", "common", "zyzzyva", "quixotic", "everyday"]);
        let p = UniqueWordProfile::extract(&user, &g, 3);
        assert_eq!(p.words[0], "zyzzyva"); // global freq 1
        assert_eq!(p.words[1], "quixotic"); // global freq 2
        assert!(p.words.contains(&"common".to_string()) || p.words.len() == 3);
    }

    #[test]
    fn extract_removes_stop_words_and_short_tokens() {
        let g = global();
        let user = toks(&["the", "a", "i", "zyzzyva"]);
        let p = UniqueWordProfile::extract(&user, &g, 5);
        assert_eq!(p.words, vec!["zyzzyva"]);
    }

    #[test]
    fn words_unknown_to_global_rank_rarest() {
        let g = global();
        let user = toks(&["brandnewword", "common"]);
        let p = UniqueWordProfile::extract(&user, &g, 2);
        assert_eq!(p.words[0], "brandnewword");
    }

    #[test]
    fn eq4_similarity() {
        let a = UniqueWordProfile {
            words: toks(&["x", "y", "z", "u", "v"]),
        };
        let b = UniqueWordProfile {
            words: toks(&["x", "q", "z", "r", "s"]),
        };
        assert_eq!(style_similarity(&a, &b, 1), 1.0); // both rank "x" first
        assert!((style_similarity(&a, &b, 3) - 2.0 / 3.0).abs() < 1e-12);
        assert!((style_similarity(&a, &b, 5) - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn short_profiles_penalized_by_fixed_denominator() {
        let a = UniqueWordProfile {
            words: toks(&["x"]),
        };
        let b = UniqueWordProfile {
            words: toks(&["x"]),
        };
        assert!((style_similarity(&a, &b, 5) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_profiles_score_zero() {
        let a = UniqueWordProfile::default();
        let b = UniqueWordProfile {
            words: toks(&["x"]),
        };
        assert_eq!(style_similarity(&a, &b, 3), 0.0);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let g = global();
        let user = toks(&["newb", "newa"]);
        let p1 = UniqueWordProfile::extract(&user, &g, 2);
        let p2 = UniqueWordProfile::extract(&user, &g, 2);
        assert_eq!(p1, p2);
        assert_eq!(p1.words, vec!["newa", "newb"]); // lexicographic tie-break
    }
}

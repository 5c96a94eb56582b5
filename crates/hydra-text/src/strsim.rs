//! String similarity metrics for username analysis.
//!
//! Section 3's rule-based pre-matching uses "partial username overlapping"
//! and the baselines MOBIUS \[32\] and Alias-Disamb \[16\] are built on exactly
//! these signals: edit distances, common substrings/subsequences, and
//! character n-gram overlap. All metrics operate on Unicode scalar values so
//! the mixed CJK/Latin usernames the generator produces (Figure 1's
//! "Adele_小暖" scenario) are handled correctly.

/// Levenshtein (edit) distance between two strings, by characters.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Levenshtein similarity normalized to `[0, 1]`:
/// `1 − dist / max(len)`; two empty strings score 1.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let m = la.max(lb);
    if m == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / m as f64
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b)
}

/// [`jaro`] over pre-decoded scalar slices — the candidate-blocking hot
/// path caches each username's `Vec<char>` once and reuses it across every
/// comparison, instead of re-decoding (and re-allocating) per call.
fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_matched = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                matches += 1;
                a_matched.push((i, j));
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Transpositions: matched characters out of relative order.
    let mut b_order: Vec<usize> = a_matched.iter().map(|&(_, j)| j).collect();
    let mut transpositions = 0usize;
    let sorted = {
        let mut s = b_order.clone();
        s.sort_unstable();
        s
    };
    for (got, want) in b_order.iter_mut().zip(sorted.iter()) {
        if got != want {
            transpositions += 1;
        }
    }
    let t = transpositions as f64 / 2.0;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro–Winkler similarity with the standard prefix scale `p = 0.1` and a
/// prefix cap of 4 characters.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_winkler_chars(&a, &b)
}

/// [`jaro_winkler`] over pre-decoded scalar slices.
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let j = jaro_chars(a, b);
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Length of the longest common substring (contiguous), by characters.
pub fn lcs_length(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    lcs_length_chars(&a, &b)
}

/// [`lcs_length`] over pre-decoded scalar slices.
///
/// Dispatches to the Hyyrö/Myers-style bit-parallel kernel whenever one
/// side fits a machine word (every realistic username does), falling back
/// to the classic dynamic program otherwise. Both paths return identical
/// values (`tests/properties.rs` pins exact parity).
pub fn lcs_length_chars(a: &[char], b: &[char]) -> usize {
    if a.len().min(b.len()) <= 64 {
        lcs_length_chars_bitparallel(a, b)
    } else {
        lcs_length_chars_dp(a, b)
    }
}

/// The reference O(|a|·|b|) dynamic program for the longest common
/// substring — kept as the exact-parity oracle for the bit-parallel kernel
/// and as the fallback when neither string fits a machine word.
pub fn lcs_length_chars_dp(a: &[char], b: &[char]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut curr = vec![0usize; b.len() + 1];
    let mut best = 0;
    for ca in a.iter() {
        for (j, cb) in b.iter().enumerate() {
            curr[j + 1] = if ca == cb { prev[j] + 1 } else { 0 };
            best = best.max(curr[j + 1]);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    best
}

/// Bit-parallel longest common substring in the Hyyrö/Myers style: one
/// precomputed match mask `B[c]` per distinct character of the shorter
/// string, then one shift-AND ladder per character of the longer string.
///
/// Bit `j` of level `k` is set iff the diagonal run of matches ending at
/// `(i, j)` has length ≥ `k` — the update
/// `level_k(i) = B[a_i] & (level_{k-1}(i-1) << 1)` advances every diagonal
/// of the DP's match matrix in a single word operation, so a whole row of
/// the shorter string costs O(best) word ops instead of O(|b|) cell
/// updates. The answer is the deepest non-empty level ever reached, which
/// is exactly the DP's `best`.
///
/// # Panics
/// Panics when **both** sides exceed 64 scalars (the dispatching
/// [`lcs_length_chars`] routes those to the DP instead).
pub fn lcs_length_chars_bitparallel(a: &[char], b: &[char]) -> usize {
    // The mask dimension is the shorter side; runs are symmetric.
    let (a, b) = if b.len() <= a.len() { (a, b) } else { (b, a) };
    assert!(
        b.len() <= 64,
        "bit-parallel LCS needs one side within 64 scalars"
    );
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut table: std::collections::HashMap<char, u64> =
        std::collections::HashMap::with_capacity(b.len());
    for (j, &c) in b.iter().enumerate() {
        *table.entry(c).or_insert(0) |= 1u64 << j;
    }
    let mut best = 0usize;
    // `prev[k-1]` holds the mask of diagonals whose run length is ≥ k at
    // the previous row; levels are nested (`prev[k] ⊆ prev[k-1]`), so the
    // ladder stops at the first empty level.
    let mut prev: Vec<u64> = Vec::new();
    let mut curr: Vec<u64> = Vec::new();
    for ca in a {
        curr.clear();
        let m = table.get(ca).copied().unwrap_or(0);
        if m != 0 {
            curr.push(m);
            for k in 1..=prev.len() {
                let level = m & (prev[k - 1] << 1);
                if level == 0 {
                    break;
                }
                curr.push(level);
            }
            best = best.max(curr.len());
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    best
}

/// Longest-common-substring ratio `lcs / min(len)` in `[0,1]` — the "partial
/// username overlapping" measure used by the rule-based filter; 0 when
/// either string is empty.
pub fn lcs_ratio(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    lcs_ratio_chars(&a, &b)
}

/// [`lcs_ratio`] over pre-decoded scalar slices.
pub fn lcs_ratio_chars(a: &[char], b: &[char]) -> f64 {
    let m = a.len().min(b.len());
    if m == 0 {
        return 0.0;
    }
    lcs_length_chars(a, b) as f64 / m as f64
}

/// Jaccard overlap of character n-gram sets in `[0, 1]`. Strings shorter
/// than `n` are treated as a single gram of themselves; two empty strings
/// score 1.
pub fn ngram_jaccard(a: &str, b: &str, n: usize) -> f64 {
    assert!(n >= 1, "ngram_jaccard requires n >= 1");
    let grams = |s: &str| -> Vec<String> {
        let cs: Vec<char> = s.chars().collect();
        if cs.is_empty() {
            return Vec::new();
        }
        if cs.len() < n {
            return vec![cs.iter().collect()];
        }
        (0..=cs.len() - n)
            .map(|i| cs[i..i + n].iter().collect())
            .collect()
    };
    let mut ga = grams(a);
    let mut gb = grams(b);
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    ga.sort_unstable();
    ga.dedup();
    gb.sort_unstable();
    gb.dedup();
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ga.len() && j < gb.len() {
        match ga[i].cmp(&gb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = ga.len() + gb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Fraction of the shorter string covered by the longest common *prefix*.
pub fn common_prefix_ratio(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let m = la.min(lb);
    if m == 0 {
        return 0.0;
    }
    let p = a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count();
    p as f64 / m as f64
}

/// Fraction of the shorter string covered by the longest common *suffix*.
pub fn common_suffix_ratio(a: &str, b: &str) -> f64 {
    let ra: String = a.chars().rev().collect();
    let rb: String = b.chars().rev().collect();
    common_prefix_ratio(&ra, &rb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("adele", "adela"), 1);
    }

    #[test]
    fn levenshtein_handles_cjk() {
        assert_eq!(levenshtein("adele小暖", "adele"), 2);
        assert_eq!(levenshtein("小暖", "小暖"), 0);
    }

    #[test]
    fn normalized_levenshtein_bounds() {
        assert_eq!(normalized_levenshtein("", ""), 1.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 1.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 0.0);
        let v = normalized_levenshtein("adele", "adel");
        assert!(v > 0.7 && v < 1.0);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-5);
        assert!((jaro("dixon", "dicksonx") - 0.766667).abs() < 1e-5);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
    }

    #[test]
    fn jaro_winkler_boosts_common_prefix() {
        let jw = jaro_winkler("adele_beijing", "adele_sh");
        let j = jaro("adele_beijing", "adele_sh");
        assert!(jw > j);
        assert!((jaro_winkler("martha", "marhta") - 0.961111).abs() < 1e-5);
    }

    #[test]
    fn lcs_substring() {
        assert_eq!(lcs_length("adele_x", "my_adele"), 5);
        assert_eq!(lcs_length("abc", "def"), 0);
        assert_eq!(lcs_length("", "abc"), 0);
        assert!((lcs_ratio("adele", "xxadelexx") - 1.0).abs() < 1e-12);
        assert_eq!(lcs_ratio("", "abc"), 0.0);
    }

    #[test]
    fn ngram_jaccard_bounds_and_identity() {
        assert_eq!(ngram_jaccard("adele", "adele", 2), 1.0);
        assert_eq!(ngram_jaccard("", "", 2), 1.0);
        assert_eq!(ngram_jaccard("ab", "cd", 2), 0.0);
        let v = ngram_jaccard("adele2024", "adele_cn", 2);
        assert!(v > 0.0 && v < 1.0);
    }

    #[test]
    fn short_strings_become_single_gram() {
        assert_eq!(ngram_jaccard("a", "a", 3), 1.0);
        assert_eq!(ngram_jaccard("a", "b", 3), 0.0);
    }

    #[test]
    fn prefix_suffix_ratios() {
        assert_eq!(common_prefix_ratio("adele88", "adele_w"), 5.0 / 7.0);
        assert_eq!(common_suffix_ratio("xx_wang", "yy_wang"), 5.0 / 7.0);
        assert_eq!(common_prefix_ratio("", "abc"), 0.0);
    }

    #[test]
    fn bitparallel_lcs_matches_dp_exactly() {
        let words = [
            "",
            "a",
            "adele",
            "adele_beijing",
            "Adele_小暖",
            "aaaaaa",
            "abcabcabc",
            "xyxyxyxy",
            "mixed💬emoji💬tail",
            "abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz01", // 64
            "abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz012345", // >64
        ];
        for wa in words {
            for wb in words {
                let a: Vec<char> = wa.chars().collect();
                let b: Vec<char> = wb.chars().collect();
                if a.len().min(b.len()) <= 64 {
                    assert_eq!(
                        lcs_length_chars_bitparallel(&a, &b),
                        lcs_length_chars_dp(&a, &b),
                        "bit-parallel LCS drift on {wa:?} vs {wb:?}"
                    );
                }
                assert_eq!(lcs_length_chars(&a, &b), lcs_length_chars_dp(&a, &b));
            }
        }
    }

    #[test]
    fn long_strings_fall_back_to_dp() {
        // Both sides beyond a word: the dispatcher must still be exact.
        let a: Vec<char> = "xy".repeat(70).chars().collect();
        let b: Vec<char> = format!("zz{}ww", "xy".repeat(40)).chars().collect();
        assert_eq!(lcs_length_chars(&a, &b), 80);
        assert_eq!(lcs_length_chars_dp(&a, &b), 80);
    }

    #[test]
    fn metrics_are_symmetric() {
        let pairs = [
            ("adele", "adela"),
            ("foo_bar", "bar_foo"),
            ("小暖", "adele小暖"),
        ];
        for (a, b) in pairs {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
            assert!((jaro(a, b) - jaro(b, a)).abs() < 1e-12);
            assert_eq!(lcs_length(a, b), lcs_length(b, a));
            assert!((ngram_jaccard(a, b, 2) - ngram_jaccard(b, a, 2)).abs() < 1e-12);
        }
    }
}

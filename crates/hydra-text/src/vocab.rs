//! String-interning vocabulary with corpus-level frequency statistics.
//!
//! Both the LDA trainer and the style extractor need a stable `word → id`
//! mapping plus global term frequencies ("a simple term frequency analysis
//! on the whole database", Section 5.3).

use std::collections::HashMap;

/// Interned vocabulary. Ids are dense `u32` handles in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    word_to_id: HashMap<String, u32>,
    id_to_word: Vec<String>,
    /// Total occurrences per word id across the corpus.
    term_freq: Vec<u64>,
    /// Number of documents each word id appears in.
    doc_freq: Vec<u64>,
    /// Total number of token occurrences recorded.
    total_tokens: u64,
    /// Number of documents recorded via [`Vocabulary::add_document`].
    total_docs: u64,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a vocabulary from its persisted state: words in id order plus
    /// id-aligned term/document frequencies and the corpus totals — the
    /// counterpart of iterating ids `0..len()` with [`Vocabulary::word`] /
    /// [`Vocabulary::term_frequency`] / [`Vocabulary::doc_frequency`].
    ///
    /// # Panics
    /// Panics when the frequency slices are not id-aligned with `words` or a
    /// word is duplicated.
    pub fn from_parts(
        words: Vec<String>,
        term_freq: Vec<u64>,
        doc_freq: Vec<u64>,
        total_tokens: u64,
        total_docs: u64,
    ) -> Self {
        assert_eq!(words.len(), term_freq.len(), "term_freq not id-aligned");
        assert_eq!(words.len(), doc_freq.len(), "doc_freq not id-aligned");
        let mut word_to_id = HashMap::with_capacity(words.len());
        for (id, w) in words.iter().enumerate() {
            let prev = word_to_id.insert(w.clone(), id as u32);
            assert!(prev.is_none(), "duplicate word {w:?}");
        }
        Vocabulary {
            word_to_id,
            id_to_word: words,
            term_freq,
            doc_freq,
            total_tokens,
            total_docs,
        }
    }

    /// Intern `word`, returning its id (existing or fresh).
    fn intern(&mut self, word: &str) -> u32 {
        if let Some(&id) = self.word_to_id.get(word) {
            return id;
        }
        let id = self.id_to_word.len() as u32;
        self.word_to_id.insert(word.to_string(), id);
        self.id_to_word.push(word.to_string());
        self.term_freq.push(0);
        self.doc_freq.push(0);
        id
    }

    /// Look up an existing word without interning.
    pub fn get(&self, word: &str) -> Option<u32> {
        self.word_to_id.get(word).copied()
    }

    /// The word for an id.
    ///
    /// # Panics
    /// Panics when the id is out of range.
    pub fn word(&self, id: u32) -> &str {
        &self.id_to_word[id as usize]
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.id_to_word.len()
    }

    /// True when no word has been interned.
    pub fn is_empty(&self) -> bool {
        self.id_to_word.is_empty()
    }

    /// Record one document worth of tokens, interning as needed and updating
    /// term/document frequencies. Returns the interned token-id sequence.
    pub fn add_document(&mut self, tokens: &[String]) -> Vec<u32> {
        let ids: Vec<u32> = tokens.iter().map(|t| self.intern(t)).collect();
        for &id in &ids {
            self.term_freq[id as usize] += 1;
            self.total_tokens += 1;
        }
        let mut seen: Vec<u32> = ids.clone();
        seen.sort_unstable();
        seen.dedup();
        for id in seen {
            self.doc_freq[id as usize] += 1;
        }
        self.total_docs += 1;
        ids
    }

    /// Corpus-wide term frequency of a word id.
    pub fn term_frequency(&self, id: u32) -> u64 {
        self.term_freq[id as usize]
    }

    /// Document frequency of a word id.
    pub fn doc_frequency(&self, id: u32) -> u64 {
        self.doc_freq[id as usize]
    }

    /// Total tokens recorded across all documents.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Total documents recorded.
    pub fn total_docs(&self) -> u64 {
        self.total_docs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("alpha");
        let b = v.intern("beta");
        assert_ne!(a, b);
        assert_eq!(v.intern("alpha"), a);
        assert_eq!(v.len(), 2);
        assert_eq!(v.word(a), "alpha");
        assert_eq!(v.get("beta"), Some(b));
        assert_eq!(v.get("gamma"), None);
    }

    #[test]
    fn frequencies_track_documents() {
        let mut v = Vocabulary::new();
        v.add_document(&doc(&["x", "x", "y"]));
        v.add_document(&doc(&["y", "z"]));
        let x = v.get("x").unwrap();
        let y = v.get("y").unwrap();
        let z = v.get("z").unwrap();
        assert_eq!(v.term_frequency(x), 2);
        assert_eq!(v.term_frequency(y), 2);
        assert_eq!(v.term_frequency(z), 1);
        assert_eq!(v.doc_frequency(x), 1);
        assert_eq!(v.doc_frequency(y), 2);
        assert_eq!(v.total_tokens(), 5);
        assert_eq!(v.total_docs(), 2);
    }

    #[test]
    fn empty_vocab() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.total_docs(), 0);
    }
}

//! Overlapping communities.
//!
//! Figure 12 evaluates "how the structure information from other social
//! communities could help enhance the model generalization power", working
//! with "the top five largest overlapping communities A, B, C, D, E".
//! [`CommunitySet`] stores overlapping memberships (a node may belong to any
//! number of communities) and answers the size-ranking queries the
//! experiment needs. The memberships come from the generator's ground truth
//! (`Dataset::communities`); nothing here detects communities from raw
//! structure.

/// Overlapping community memberships over a node universe.
#[derive(Debug, Clone, Default)]
pub struct CommunitySet {
    /// communities[c] = sorted member list.
    members: Vec<Vec<u32>>,
}

impl CommunitySet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a community from an arbitrary member list (deduplicated, sorted).
    /// Returns the community id.
    pub fn add_community(&mut self, mut nodes: Vec<u32>) -> usize {
        nodes.sort_unstable();
        nodes.dedup();
        self.members.push(nodes);
        self.members.len() - 1
    }

    /// Number of communities.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no community exists.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Members of community `c`.
    pub fn members(&self, c: usize) -> &[u32] {
        &self.members[c]
    }

    /// Size of community `c`.
    pub fn size(&self, c: usize) -> usize {
        self.members[c].len()
    }

    /// True when node `v` belongs to community `c`.
    pub fn contains(&self, c: usize, v: u32) -> bool {
        self.members[c].binary_search(&v).is_ok()
    }

    /// Community ids ranked by descending size (ties by id) — "the
    /// decreasing ranked result [...] community is by size" (Section 7.1).
    pub fn ranked_by_size(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.members.len()).collect();
        ids.sort_by_key(|&c| (std::cmp::Reverse(self.members[c].len()), c));
        ids
    }

    /// The top-`k` largest communities (Figure 12 uses the top 5).
    pub fn top_k_by_size(&self, k: usize) -> Vec<usize> {
        let mut r = self.ranked_by_size();
        r.truncate(k);
        r
    }

    /// Jaccard overlap between two communities.
    pub fn overlap(&self, a: usize, b: usize) -> f64 {
        let ma = &self.members[a];
        let mb = &self.members[b];
        if ma.is_empty() && mb.is_empty() {
            return 0.0;
        }
        let mut inter = 0usize;
        let (mut i, mut j) = (0, 0);
        while i < ma.len() && j < mb.len() {
            match ma[i].cmp(&mb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter as f64 / (ma.len() + mb.len() - inter) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn community_set_queries() {
        let mut cs = CommunitySet::new();
        let a = cs.add_community(vec![3, 1, 2, 2]);
        let b = cs.add_community(vec![2, 4]);
        assert_eq!(cs.size(a), 3);
        assert_eq!(cs.size(b), 2);
        assert!(cs.contains(a, 2));
        assert!(cs.contains(b, 2));
    }

    #[test]
    fn ranking_by_size() {
        let mut cs = CommunitySet::new();
        cs.add_community(vec![1]);
        cs.add_community(vec![1, 2, 3]);
        cs.add_community(vec![1, 2]);
        assert_eq!(cs.ranked_by_size(), vec![1, 2, 0]);
        assert_eq!(cs.top_k_by_size(2), vec![1, 2]);
    }

    #[test]
    fn overlap_jaccard() {
        let mut cs = CommunitySet::new();
        let a = cs.add_community(vec![1, 2, 3]);
        let b = cs.add_community(vec![2, 3, 4]);
        assert!((cs.overlap(a, b) - 0.5).abs() < 1e-12);
        let c = cs.add_community(vec![9]);
        assert_eq!(cs.overlap(a, c), 0.0);
    }
}

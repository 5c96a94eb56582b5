//! Core social structure: the most frequently interacting friends.
//!
//! "user's core social network structure: the part formed by those closest
//! to the user" (Section 1.2). Operationally the paper uses the top
//! interacting friends — Eq. 18 averages behavior similarity over each
//! user's **top-3 interacting friends** to fill missing features, and
//! Figure 7's propagation runs along these same core edges.

use crate::graph::SocialGraph;

/// The `k` most strongly interacting friends of `v`, ordered by descending
/// interaction weight (ties broken by ascending node id for determinism).
/// Returns fewer than `k` entries when the degree is smaller.
pub fn top_k_friends(g: &SocialGraph, v: u32, k: usize) -> Vec<u32> {
    let mut friends: Vec<(u32, f64)> = g.neighbors(v).collect();
    friends.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("interaction weights are finite")
            .then(a.0.cmp(&b.0))
    });
    friends.truncate(k);
    friends.into_iter().map(|(n, _)| n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Star around 0 with distinct weights, plus an edge 1-2.
    fn sample() -> SocialGraph {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 5.0);
        b.add_edge(0, 2, 3.0);
        b.add_edge(0, 3, 8.0);
        b.add_edge(0, 4, 1.0);
        b.add_edge(1, 2, 2.0);
        b.build()
    }

    #[test]
    fn top_k_orders_by_weight() {
        let g = sample();
        assert_eq!(top_k_friends(&g, 0, 3), vec![3, 1, 2]);
        assert_eq!(top_k_friends(&g, 0, 10), vec![3, 1, 2, 4]);
    }

    #[test]
    fn low_degree_returns_fewer() {
        let g = sample();
        assert_eq!(top_k_friends(&g, 4, 3), vec![0]);
        assert!(top_k_friends(&g, 5, 3).is_empty());
    }

    #[test]
    fn ties_break_by_id() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2, 1.0);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 3, 1.0);
        let g = b.build();
        assert_eq!(top_k_friends(&g, 0, 2), vec![1, 2]);
    }
}

//! Property-based tests for the graph substrate.

use hydra_graph::distance::{bfs_distances, hop_distance, k_hop_neighborhood, paper_distance};
use hydra_graph::{top_k_friends, GraphBuilder, SocialGraph};
use proptest::prelude::*;

/// Random small weighted graphs.
fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    (2usize..20)
        .prop_flat_map(|n| {
            let edges =
                proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f64..10.0), 0..n * 3);
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (x, y, w) in edges {
                if x != y {
                    b.add_edge(x, y, w);
                }
            }
            b.build()
        })
}

proptest! {
    #[test]
    fn adjacency_is_symmetric(g in graph_strategy()) {
        for v in 0..g.num_nodes() as u32 {
            for (nb, w) in g.neighbors(v) {
                prop_assert!(g.are_adjacent(nb, v));
                prop_assert!((g.edge_weight(nb, v) - w).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn handshake_lemma(g in graph_strategy()) {
        let degree_sum: usize = (0..g.num_nodes() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn hop_distance_is_symmetric_and_triangular(g in graph_strategy()) {
        let n = g.num_nodes() as u32;
        let cap = n as usize + 1;
        for a in 0..n.min(6) {
            for b in 0..n.min(6) {
                let dab = hop_distance(&g, a, b, cap);
                prop_assert_eq!(dab, hop_distance(&g, b, a, cap));
                if let Some(d) = dab {
                    // Triangle through any c.
                    for c in 0..n.min(6) {
                        if let (Some(d1), Some(d2)) =
                            (hop_distance(&g, a, c, cap), hop_distance(&g, c, b, cap))
                        {
                            prop_assert!(d <= d1 + d2);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bfs_matches_pairwise_distance(g in graph_strategy()) {
        let n = g.num_nodes() as u32;
        let cap = n as usize + 1;
        let src = 0u32;
        let d = bfs_distances(&g, src, cap);
        for t in 0..n {
            match hop_distance(&g, src, t, cap) {
                Some(h) => prop_assert_eq!(d[t as usize], h),
                None => prop_assert_eq!(d[t as usize], usize::MAX),
            }
        }
    }

    #[test]
    fn paper_distance_values_are_perfect_squares(g in graph_strategy()) {
        let n = g.num_nodes() as u32;
        for a in 0..n.min(5) {
            for b in 0..n.min(5) {
                if let Some(d) = paper_distance(&g, a, b, n as usize) {
                    let root = (d.sqrt()).round();
                    prop_assert!((root * root - d).abs() < 1e-9, "d={d} not a square");
                }
            }
        }
    }

    #[test]
    fn neighborhood_excludes_center_and_respects_bound(g in graph_strategy()) {
        let hops = 2usize;
        for v in 0..(g.num_nodes() as u32).min(5) {
            for (u, d) in k_hop_neighborhood(&g, v, hops) {
                prop_assert!(u != v);
                prop_assert!(d >= 1 && d <= hops);
                prop_assert_eq!(hop_distance(&g, v, u, hops), Some(d));
            }
        }
    }

    #[test]
    fn top_k_friends_sorted_by_weight(g in graph_strategy(), k in 1usize..6) {
        for v in 0..g.num_nodes() as u32 {
            let friends = top_k_friends(&g, v, k);
            prop_assert!(friends.len() <= k.min(g.degree(v)));
            let weights: Vec<f64> = friends.iter().map(|&f| g.edge_weight(v, f)).collect();
            for w in weights.windows(2) {
                prop_assert!(w[0] >= w[1] - 1e-12);
            }
            // Every returned friend beats every non-returned neighbor.
            if friends.len() == k {
                let min_kept = weights.last().copied().unwrap_or(0.0);
                for (nb, w) in g.neighbors(v) {
                    if !friends.contains(&nb) {
                        prop_assert!(w <= min_kept + 1e-12);
                    }
                }
            }
        }
    }
}

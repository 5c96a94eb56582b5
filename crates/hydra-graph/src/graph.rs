//! Weighted undirected interaction graph in CSR form.
//!
//! Edge weights model interaction frequency (comments, reposts, mentions) —
//! the quantity the paper uses to rank "most frequently communicating
//! friends". The graph is undirected: interaction is symmetrized at build
//! time by summing both directions.

/// Immutable CSR social graph with `f64` interaction weights.
#[derive(Debug, Clone)]
pub struct SocialGraph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    weights: Vec<f64>,
    edge_count: usize,
}

/// Accumulates weighted edges, then freezes into a [`SocialGraph`].
/// Duplicate edges (either direction) have their weights summed; self-loops
/// are ignored.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(u32, u32, f64)>,
}

impl GraphBuilder {
    /// Builder for a graph on `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Record an interaction between `a` and `b` with positive weight.
    ///
    /// # Panics
    /// Panics when a node id is out of range or the weight is not positive.
    pub fn add_edge(&mut self, a: u32, b: u32, weight: f64) {
        assert!(
            (a as usize) < self.num_nodes && (b as usize) < self.num_nodes,
            "edge ({a},{b}) out of range for {} nodes",
            self.num_nodes
        );
        assert!(weight > 0.0, "interaction weight must be positive");
        if a == b {
            return; // self-interactions carry no linkage signal
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.edges.push((lo, hi, weight));
    }

    /// Number of recorded (pre-merge) edge records.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edge has been recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Freeze into CSR form.
    pub fn build(mut self) -> SocialGraph {
        self.edges.sort_unstable_by_key(|e| (e.0, e.1));
        // Merge duplicates.
        let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(self.edges.len());
        for (a, b, w) in self.edges {
            match merged.last_mut() {
                Some(last) if last.0 == a && last.1 == b => last.2 += w,
                _ => merged.push((a, b, w)),
            }
        }
        // Degree counting (both directions).
        let n = self.num_nodes;
        let mut offsets = vec![0usize; n + 1];
        for &(a, b, _) in &merged {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut neighbors = vec![0u32; offsets[n]];
        let mut weights = vec![0f64; offsets[n]];
        let mut cursor = offsets.clone();
        for &(a, b, w) in &merged {
            neighbors[cursor[a as usize]] = b;
            weights[cursor[a as usize]] = w;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize]] = a;
            weights[cursor[b as usize]] = w;
            cursor[b as usize] += 1;
        }
        // Sort each adjacency run by neighbor id for deterministic iteration
        // and binary-searchable lookups.
        for v in 0..n {
            let lo = offsets[v];
            let hi = offsets[v + 1];
            let mut pairs: Vec<(u32, f64)> = neighbors[lo..hi]
                .iter()
                .copied()
                .zip(weights[lo..hi].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|p| p.0);
            for (k, (nb, w)) in pairs.into_iter().enumerate() {
                neighbors[lo + k] = nb;
                weights[lo + k] = w;
            }
        }
        SocialGraph {
            offsets,
            neighbors,
            weights,
            edge_count: merged.len(),
        }
    }
}

impl SocialGraph {
    /// Graph with no edges on `n` nodes.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Approximate heap size of the CSR arrays (length-based; ignores
    /// allocator slack).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<u32>()
            + self.weights.len() * std::mem::size_of::<f64>()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_count
    }

    /// Degree (number of distinct neighbors) of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Iterate `(neighbor, interaction_weight)` pairs of `v` in ascending
    /// neighbor-id order.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        self.neighbors[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Interaction weight between `a` and `b`; 0 when not adjacent.
    pub fn edge_weight(&self, a: u32, b: u32) -> f64 {
        let lo = self.offsets[a as usize];
        let hi = self.offsets[a as usize + 1];
        match self.neighbors[lo..hi].binary_search(&b) {
            Ok(pos) => self.weights[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// True when `a` and `b` share an edge.
    pub fn are_adjacent(&self, a: u32, b: u32) -> bool {
        self.edge_weight(a, b) > 0.0
    }

    /// Total interaction weight incident to `v` (weighted degree).
    pub fn strength(&self, v: u32) -> f64 {
        self.neighbors(v).map(|(_, w)| w).sum()
    }

    /// Iterate every undirected edge once as `(a, b, weight)` with `a < b`,
    /// in ascending `(a, b)` order — the canonical edge-record view used to
    /// derive sub-graphs and deltas.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.num_nodes() as u32)
            .flat_map(move |v| self.neighbors(v).map(move |(n, w)| (v, n, w)))
            .filter(|&(v, n, _)| v < n)
    }

    /// Append an isolated node, returning its id (`num_nodes()` before the
    /// call). The serving layer grows the Eq. 18 snapshot one ingested
    /// account at a time with this plus [`SocialGraph::add_edges`].
    pub fn add_node(&mut self) -> u32 {
        let id = self.num_nodes() as u32;
        let end = *self.offsets.last().expect("offsets never empty");
        self.offsets.push(end);
        id
    }

    /// Merge an edge delta into the frozen CSR — the incremental
    /// counterpart of rebuilding through [`GraphBuilder`] over the combined
    /// edge set. Semantics match the builder exactly: duplicate records
    /// (either direction, including edges already present) have their
    /// weights summed, self-loops are ignored, and adjacency runs stay
    /// sorted by neighbor id — so a refreshed graph is indistinguishable
    /// from one rebuilt from scratch over the same records (pinned by
    /// `incremental_refresh_matches_full_rebuild` below).
    ///
    /// Cost is O(V + E + Δ log Δ) per call: existing-edge updates are
    /// in-place, new records trigger one merge pass over the CSR arrays.
    ///
    /// # Panics
    /// Panics when a node id is out of range or a weight is not positive,
    /// exactly like [`GraphBuilder::add_edge`].
    pub fn add_edges(&mut self, edges: &[(u32, u32, f64)]) {
        let n = self.num_nodes();
        let mut delta: Vec<(u32, u32, f64)> = Vec::with_capacity(edges.len());
        for &(a, b, w) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range for {n} nodes"
            );
            assert!(w > 0.0, "interaction weight must be positive");
            if a == b {
                continue; // self-interactions carry no linkage signal
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            delta.push((lo, hi, w));
        }
        if delta.is_empty() {
            return;
        }
        // Stable sort: duplicate delta records keep input order, so their
        // weights sum in the same order GraphBuilder would sum them.
        delta.sort_by_key(|e| (e.0, e.1));
        let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(delta.len());
        for (a, b, w) in delta {
            match merged.last_mut() {
                Some(last) if last.0 == a && last.1 == b => last.2 += w,
                _ => merged.push((a, b, w)),
            }
        }
        // In-place weight updates for edges already present; the rest are
        // genuinely new records.
        let mut fresh: Vec<(u32, u32, f64)> = Vec::new();
        for (a, b, w) in merged {
            let lo = self.offsets[a as usize];
            let hi = self.offsets[a as usize + 1];
            match self.neighbors[lo..hi].binary_search(&b) {
                Ok(pos) => {
                    self.weights[lo + pos] += w;
                    let blo = self.offsets[b as usize];
                    let bhi = self.offsets[b as usize + 1];
                    let bpos = self.neighbors[blo..bhi]
                        .binary_search(&a)
                        .expect("CSR symmetry");
                    self.weights[blo + bpos] += w;
                }
                Err(_) => fresh.push((a, b, w)),
            }
        }
        if fresh.is_empty() {
            return;
        }
        // One merge pass inserting the new records into every affected
        // adjacency run (both lists per record are already neighbor-sorted:
        // `fresh` is in ascending (lo, hi) order).
        let mut extra: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for &(a, b, w) in &fresh {
            extra[a as usize].push((b, w));
            extra[b as usize].push((a, w));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let total = self.neighbors.len() + 2 * fresh.len();
        let mut neighbors = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for v in 0..n {
            let lo = self.offsets[v];
            let hi = self.offsets[v + 1];
            let old_n = &self.neighbors[lo..hi];
            let old_w = &self.weights[lo..hi];
            let add = &extra[v];
            let (mut i, mut j) = (0usize, 0usize);
            while i < old_n.len() || j < add.len() {
                let take_old = j >= add.len() || (i < old_n.len() && old_n[i] < add[j].0);
                if take_old {
                    neighbors.push(old_n[i]);
                    weights.push(old_w[i]);
                    i += 1;
                } else {
                    debug_assert!(
                        i >= old_n.len() || old_n[i] != add[j].0,
                        "fresh edge exists"
                    );
                    neighbors.push(add[j].0);
                    weights.push(add[j].1);
                    j += 1;
                }
            }
            offsets.push(neighbors.len());
        }
        self.offsets = offsets;
        self.neighbors = neighbors;
        self.weights = weights;
        self.edge_count += fresh.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle 0-1-2 plus pendant 3 attached to 0, isolated 4.
    fn sample() -> SocialGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 2.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 0.5);
        b.add_edge(0, 3, 4.0);
        b.build()
    }

    #[test]
    fn basic_topology() {
        let g = sample();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(4), 0);
        assert!(g.are_adjacent(0, 3));
        assert!(!g.are_adjacent(3, 4));
    }

    #[test]
    fn weights_symmetric() {
        let g = sample();
        assert_eq!(g.edge_weight(0, 1), 2.0);
        assert_eq!(g.edge_weight(1, 0), 2.0);
        assert_eq!(g.edge_weight(2, 4), 0.0);
    }

    #[test]
    fn duplicate_edges_sum() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), 3.5);
    }

    #[test]
    fn self_loops_ignored() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 1.0);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        GraphBuilder::new(2).add_edge(0, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_weight_panics() {
        GraphBuilder::new(2).add_edge(0, 1, 0.0);
    }

    #[test]
    fn neighbors_sorted_and_complete() {
        let g = sample();
        let nbrs: Vec<u32> = g.neighbors(0).map(|(n, _)| n).collect();
        assert_eq!(nbrs, vec![1, 2, 3]);
    }

    #[test]
    fn strength_sums_weights() {
        let g = sample();
        assert!((g.strength(0) - 6.5).abs() < 1e-12);
        assert_eq!(g.strength(4), 0.0);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = sample();
        let edges: Vec<(u32, u32, f64)> = g.edges().collect();
        assert_eq!(
            edges,
            vec![(0, 1, 2.0), (0, 2, 0.5), (0, 3, 4.0), (1, 2, 1.0)]
        );
        // Round trip through a builder reproduces the graph.
        let mut b = GraphBuilder::new(g.num_nodes());
        for (a, bb, w) in g.edges() {
            b.add_edge(a, bb, w);
        }
        let rebuilt = b.build();
        assert_eq!(rebuilt.num_edges(), g.num_edges());
        for v in 0..g.num_nodes() as u32 {
            assert_eq!(
                g.neighbors(v).collect::<Vec<_>>(),
                rebuilt.neighbors(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn add_node_appends_isolated() {
        let mut g = sample();
        let id = g.add_node();
        assert_eq!(id, 5);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.degree(5), 0);
        assert_eq!(g.num_edges(), 4);
        // Existing adjacency untouched.
        assert!(g.are_adjacent(0, 3));
    }

    /// The incremental path must be indistinguishable from a full rebuild
    /// over the combined edge records — same adjacency order, same merged
    /// weights, bitwise.
    #[test]
    fn incremental_refresh_matches_full_rebuild() {
        let base: Vec<(u32, u32, f64)> = vec![
            (0, 1, 2.0),
            (1, 2, 1.0),
            (0, 2, 0.5),
            (0, 3, 4.0),
            (2, 5, 0.25),
        ];
        let delta: Vec<(u32, u32, f64)> = vec![
            (6, 0, 1.5),   // new node's edge (reversed direction)
            (6, 4, 0.75),  // edge to a previously isolated node
            (1, 0, 0.125), // duplicate of an existing edge: weights sum
            (6, 6, 9.0),   // self-loop: ignored
            (6, 2, 3.0),
        ];
        let mut incremental = {
            let mut b = GraphBuilder::new(6);
            for &(a, bb, w) in &base {
                b.add_edge(a, bb, w);
            }
            b.build()
        };
        assert_eq!(incremental.add_node(), 6);
        incremental.add_edges(&delta);

        let full = {
            let mut b = GraphBuilder::new(7);
            for &(a, bb, w) in base.iter().chain(delta.iter()) {
                if a != bb {
                    b.add_edge(a, bb, w);
                }
            }
            b.build()
        };
        assert_eq!(incremental.num_nodes(), full.num_nodes());
        assert_eq!(incremental.num_edges(), full.num_edges());
        for v in 0..full.num_nodes() as u32 {
            let a: Vec<(u32, u64)> = incremental
                .neighbors(v)
                .map(|(n, w)| (n, w.to_bits()))
                .collect();
            let b: Vec<(u32, u64)> = full.neighbors(v).map(|(n, w)| (n, w.to_bits())).collect();
            assert_eq!(a, b, "adjacency drift at node {v}");
        }
        // Strength reflects the summed duplicate.
        assert!((incremental.edge_weight(0, 1) - 2.125).abs() < 1e-15);
    }

    #[test]
    fn add_edges_merges_duplicates_within_delta() {
        let mut g = SocialGraph::empty(3);
        g.add_edges(&[(0, 1, 1.0), (1, 0, 2.0), (1, 2, 0.5)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), 3.0);
        assert_eq!(g.edge_weight(2, 1), 0.5);
        // Second refresh touching the same edge sums in place.
        g.add_edges(&[(0, 1, 0.25)]);
        assert_eq!(g.edge_weight(0, 1), 3.25);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edges_rejects_out_of_range() {
        SocialGraph::empty(2).add_edges(&[(0, 7, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn add_edges_rejects_non_positive_weight() {
        SocialGraph::empty(2).add_edges(&[(0, 1, 0.0)]);
    }

    #[test]
    fn empty_graph() {
        let g = SocialGraph::empty(3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(1), 0);
    }
}

//! Random bipartite graphs connecting one cascade level to the next.
//!
//! Each graph has `left` message nodes (the packets of level `i`) and `right`
//! check nodes (the packets of level `i+1`).  A check packet's payload is the
//! XOR of its left neighbours (Figure 1 of the paper).  The graph is built
//! by giving every message node a degree drawn from the level's (heavy-tail)
//! degree distribution and connecting it to that many *distinct* check nodes
//! chosen uniformly at random — so check-node degrees follow the binomial /
//! Poisson profile assumed by the original analysis, and no edge is ever
//! duplicated (a duplicated neighbour would cancel itself out of the XOR and
//! silently weaken the constraint).
//!
//! The structure is fully determined by `(left, right, distribution, seed)`,
//! which is how "the source and the clients have agreed to the graph structure
//! in advance" (Section 5.1): the sender communicates only those few scalars
//! and both sides rebuild the same graph.

use crate::degree::{right_regular_degrees, DegreeDistribution};
use rand::seq::SliceRandom;
use rand::Rng;

/// How check-node degrees are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckSide {
    /// Every message node picks its check neighbours uniformly at random, so
    /// check degrees follow a binomial/Poisson profile — the model used in the
    /// original asymptotic analysis.
    Poisson,
    /// Check degrees are equalised ("right-regular"): edge sockets are spread
    /// as evenly as possible over the check nodes before being matched.  This
    /// concentrates the check degrees and behaves better at the finite block
    /// lengths the paper benchmarks.
    Regular,
}

/// A bipartite graph between `left` message nodes and `right` check nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    left: usize,
    right: usize,
    /// For each check node, the sorted list of left neighbours.
    check_neighbors: Vec<Vec<u32>>,
    /// For each left node, the list of check nodes it participates in.
    left_neighbors: Vec<Vec<u32>>,
    /// Total number of edges after de-duplication.
    edges: usize,
}

impl BipartiteGraph {
    /// Build a random graph with the given left-degree distribution and
    /// check-side mode.
    ///
    /// # Panics
    ///
    /// Panics if `left == 0` or `right == 0`; cascade construction never
    /// creates empty levels.
    pub fn random<R: Rng + ?Sized>(
        left: usize,
        right: usize,
        distribution: &DegreeDistribution,
        check_side: CheckSide,
        rng: &mut R,
    ) -> Self {
        assert!(left > 0 && right > 0, "graph levels must be non-empty");
        // Degrees from the distribution, capped at the number of check nodes
        // (a node cannot have more distinct neighbours than there are check
        // nodes).
        let mut left_degrees: Vec<usize> = distribution
            .degree_sequence(left, rng)
            .into_iter()
            .map(|d| d.min(right))
            .collect();

        // --- Stopping-set conditioning -------------------------------------
        //
        // Message nodes of degree ≤ 2 are the dominant source of small
        // stopping sets in a purely random graph: two degree-2 nodes that
        // share both their check nodes can never be peeled if both are lost,
        // and a constant number of such pairs appears at every block length,
        // which is what produces the long overhead tails the paper's Figure 2
        // does not have.  We therefore (a) cap the number of degree-≤2 nodes
        // at 90 % of the number of check nodes (promoting the excess to
        // degree 3) and (b) place them on *consecutive* check pairs around a
        // ring, so the subgraph they induce is a single long path instead of
        // many short random cycles — the same accumulator-style conditioning
        // used by irregular-repeat-accumulate LDPC designs.
        let mut low: Vec<usize> = (0..left).filter(|&l| left_degrees[l] <= 2).collect();
        let low_cap = (right * 9) / 10;
        if low.len() > low_cap && right >= 3 {
            low.shuffle(rng);
            for &l in &low[low_cap..] {
                left_degrees[l] = 3.min(right);
            }
            low.truncate(low_cap);
        }

        let mut check_sets: Vec<Vec<u32>> = vec![Vec::new(); right];
        let mut ring_used = vec![0usize; right];
        if right >= 3 {
            // Spread the low-degree nodes over distinct ring positions.
            let mut positions: Vec<usize> =
                rand::seq::index::sample(rng, right, low.len().min(right)).into_vec();
            positions.sort_unstable();
            for (slot, &l) in low.iter().enumerate() {
                let p = positions[slot % positions.len()];
                check_sets[p].push(l as u32);
                ring_used[p] += 1;
                if left_degrees[l] == 2 {
                    let q = (p + 1) % right;
                    check_sets[q].push(l as u32);
                    ring_used[q] += 1;
                }
            }
        } else {
            // Degenerate tiny level: connect low-degree nodes directly.
            for &l in &low {
                for set in check_sets.iter_mut().take(left_degrees[l].min(right)) {
                    set.push(l as u32);
                }
            }
        }

        // Remaining (degree ≥ 3) nodes follow the requested check-side model.
        let rest: Vec<usize> = (0..left).filter(|&l| left_degrees[l] >= 3).collect();
        match check_side {
            CheckSide::Poisson => {
                for &l in &rest {
                    // `deg` distinct check nodes chosen uniformly at random.
                    for c in rand::seq::index::sample(rng, right, left_degrees[l]) {
                        check_sets[c].push(l as u32);
                    }
                }
            }
            CheckSide::Regular => {
                // Configuration model over the remaining sockets: spread them
                // as evenly as possible given what the ring already consumed,
                // shuffle the left sockets, and match them up.
                let rest_edges: usize = rest.iter().map(|&l| left_degrees[l]).sum();
                let ring_edges: usize = ring_used.iter().sum();
                let targets = right_regular_degrees(rest_edges + ring_edges, right);
                let mut right_sockets = Vec::with_capacity(rest_edges);
                for (node, &t) in targets.iter().enumerate() {
                    let want = t.saturating_sub(ring_used[node]);
                    right_sockets.extend(std::iter::repeat_n(node as u32, want));
                }
                // Rounding against the ring usage can leave us short; top up
                // round-robin so every remaining socket has a home.
                let mut next = 0usize;
                while right_sockets.len() < rest_edges {
                    right_sockets.push((next % right) as u32);
                    next += 1;
                }
                let mut left_sockets = Vec::with_capacity(rest_edges);
                for &l in &rest {
                    left_sockets.extend(std::iter::repeat_n(l as u32, left_degrees[l]));
                }
                left_sockets.shuffle(rng);
                for (i, &l) in left_sockets.iter().enumerate() {
                    check_sets[right_sockets[i] as usize].push(l);
                }
            }
        }
        // Sort and de-duplicate neighbours within each check node (a repeated
        // neighbour cancels out of the XOR and would silently weaken the
        // constraint).
        let mut edges = 0;
        for set in &mut check_sets {
            set.sort_unstable();
            set.dedup();
            edges += set.len();
        }
        let mut left_neighbors: Vec<Vec<u32>> = vec![Vec::new(); left];
        for (c, set) in check_sets.iter().enumerate() {
            for &l in set {
                left_neighbors[l as usize].push(c as u32);
            }
        }
        BipartiteGraph {
            left,
            right,
            check_neighbors: check_sets,
            left_neighbors,
            edges,
        }
    }

    /// Number of left (message) nodes.
    pub fn left(&self) -> usize {
        self.left
    }

    /// Number of right (check) nodes.
    pub fn right(&self) -> usize {
        self.right
    }

    /// Total number of edges.
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Left neighbours of check node `c`.
    pub fn check_neighbors(&self, c: usize) -> &[u32] {
        &self.check_neighbors[c]
    }

    /// Check nodes adjacent to left node `l`.
    pub fn left_neighbors(&self, l: usize) -> &[u32] {
        &self.left_neighbors[l]
    }

    /// Average degree of the left nodes (XORs per message packet).
    pub fn average_left_degree(&self) -> f64 {
        self.edges as f64 / self.left as f64
    }

    /// Average degree of the check nodes (XORs per check packet).
    pub fn average_check_degree(&self) -> f64 {
        self.edges as f64 / self.right as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn graph(left: usize, right: usize, d: usize, seed: u64) -> BipartiteGraph {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        BipartiteGraph::random(
            left,
            right,
            &DegreeDistribution::heavy_tail(d),
            CheckSide::Poisson,
            &mut rng,
        )
    }

    fn graph_regular(left: usize, right: usize, d: usize, seed: u64) -> BipartiteGraph {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        BipartiteGraph::random(
            left,
            right,
            &DegreeDistribution::heavy_tail(d),
            CheckSide::Regular,
            &mut rng,
        )
    }

    #[test]
    fn adjacency_lists_are_mirror_images() {
        let g = graph(500, 250, 20, 1);
        let mut from_checks = 0;
        for c in 0..g.right() {
            for &l in g.check_neighbors(c) {
                assert!(
                    g.left_neighbors(l as usize).contains(&(c as u32)),
                    "edge ({l}, {c}) missing from left adjacency"
                );
                from_checks += 1;
            }
        }
        let from_left: usize = (0..g.left()).map(|l| g.left_neighbors(l).len()).sum();
        assert_eq!(from_checks, from_left);
        assert_eq!(from_checks, g.edges());
    }

    #[test]
    fn no_duplicate_edges_within_a_check() {
        let g = graph(400, 200, 10, 2);
        for c in 0..g.right() {
            let nbrs = g.check_neighbors(c);
            let mut dedup = nbrs.to_vec();
            dedup.dedup();
            assert_eq!(
                dedup.len(),
                nbrs.len(),
                "check {c} has duplicate neighbours"
            );
        }
    }

    #[test]
    fn every_left_node_is_covered() {
        let g = graph(1000, 500, 20, 3);
        for l in 0..g.left() {
            assert!(
                !g.left_neighbors(l).is_empty(),
                "left node {l} has no check neighbours and could never be recovered"
            );
        }
    }

    #[test]
    fn construction_is_deterministic_in_the_seed() {
        let a = graph(300, 150, 20, 42);
        let b = graph(300, 150, 20, 42);
        let c = graph(300, 150, 20, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn average_degree_tracks_distribution() {
        let dist = DegreeDistribution::heavy_tail(20);
        let g = graph(5000, 2500, 20, 4);
        // Degrees follow largest-remainder rounding, but the stopping-set
        // conditioning promotes the excess degree-2 nodes to degree 3, so the
        // realised average sits slightly above the design value.
        assert!(g.average_left_degree() >= dist.mean() - 0.05);
        assert!(g.average_left_degree() <= dist.mean() + 0.25);
        assert!((g.average_check_degree() - 2.0 * g.average_left_degree()).abs() < 1e-9);
    }

    #[test]
    fn degree_capped_by_right_count() {
        // With only 3 check nodes, no left node can exceed degree 3.
        let g = graph(50, 3, 100, 5);
        for l in 0..g.left() {
            assert!(g.left_neighbors(l).len() <= 3);
        }
    }

    #[test]
    fn regular_check_side_equalises_check_degrees() {
        let g = graph_regular(2000, 1000, 20, 6);
        let degs: Vec<usize> = (0..g.right()).map(|c| g.check_neighbors(c).len()).collect();
        let min = *degs.iter().min().unwrap();
        let max = *degs.iter().max().unwrap();
        // De-duplication can shave an edge or two off a check, but the spread
        // must stay far tighter than a Poisson profile (whose min would be
        // several edges below the mean at this size).
        assert!(max - min <= 3, "check degree spread {min}..{max} too wide");
        // Mirror-image invariant still holds.
        let from_left: usize = (0..g.left()).map(|l| g.left_neighbors(l).len()).sum();
        assert_eq!(from_left, g.edges());
    }

    #[test]
    fn every_left_node_is_covered_regular_mode() {
        let g = graph_regular(1000, 500, 20, 7);
        for l in 0..g.left() {
            assert!(!g.left_neighbors(l).is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_graph_invariants(
            left in 2usize..400,
            ratio in 2usize..4,
            d in 3usize..40,
            regular in proptest::bool::ANY,
            seed in any::<u64>(),
        ) {
            let right = (left / ratio).max(1);
            let side = if regular { CheckSide::Regular } else { CheckSide::Poisson };
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let g = BipartiteGraph::random(left, right, &DegreeDistribution::heavy_tail(d), side, &mut rng);
            prop_assert_eq!(g.left(), left);
            prop_assert_eq!(g.right(), right);
            let edge_sum: usize = (0..right).map(|c| g.check_neighbors(c).len()).sum();
            prop_assert_eq!(edge_sum, g.edges());
            for c in 0..right {
                for &l in g.check_neighbors(c) {
                    prop_assert!((l as usize) < left);
                }
            }
        }
    }
}

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
///
/// Both adjacency sides are kept flat ("compressed sparse rows"): node `i`'s
/// neighbours are `adj[start[i]..start[i + 1]]`, sorted, so a graph is four
/// `u32` arrays — two offsets per node and two neighbour entries per edge —
/// however many nodes it has, and a decoder walks each list contiguously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    left: usize,
    right: usize,
    /// Offsets into `check_adj`, one per check node plus the end.
    check_start: Vec<u32>,
    /// Every check node's left neighbours, check by check, each list sorted.
    check_adj: Vec<u32>,
    /// Offsets into `left_adj`, one per left node plus the end.
    left_start: Vec<u32>,
    /// Every left node's check nodes, node by node, each list sorted.
    left_adj: Vec<u32>,
}

/// The edges of a graph under construction, as drawn: every left node's
/// checks in a bucket of its own, sized from its degree before the first
/// draw, and a tally of the draws each check received.
struct Draws {
    /// Left node `l`'s bucket is `checks[start[l]..start[l + 1]]`.
    start: Vec<u32>,
    /// Where left node `l`'s next draw goes.
    fill: Vec<u32>,
    checks: Vec<u32>,
    /// Draws so far per check node.
    check_count: Vec<u32>,
}

impl Draws {
    fn new(degrees: &[usize], right: usize) -> Self {
        let mut start = Vec::with_capacity(degrees.len() + 1);
        offsets(&mut start, degrees.iter().map(|&d| d as u32));
        let edges = *start.last().expect("offsets end with the total") as usize;
        Draws {
            fill: start[..degrees.len()].to_vec(),
            start,
            checks: vec![0; edges],
            check_count: vec![0; right],
        }
    }

    /// Record an edge between check `c` and left node `l`.
    fn link(&mut self, c: usize, l: usize) {
        let at = self.fill[l] as usize;
        debug_assert!(
            at < self.start[l + 1] as usize,
            "left node {l} over its degree"
        );
        self.checks[at] = c as u32;
        self.fill[l] += 1;
        self.check_count[c] += 1;
    }

    /// The graph of the drawn edges, each distinct edge once.
    ///
    /// Two counting passes, no comparison sort.  Walking the left nodes in
    /// order and dealing each draw to its check gives every check's list
    /// sorted, with a repeated draw next to its twin, where it is dropped
    /// (a repeated neighbour cancels out of the XOR and would silently
    /// weaken the constraint).  Walking the checks in order and dealing
    /// each kept edge back to its left node gives the other side, sorted.
    fn into_graph(self) -> BipartiteGraph {
        let (left, right) = (self.fill.len(), self.check_count.len());
        debug_assert!((0..left).all(|l| self.fill[l] == self.start[l + 1]));
        let mut check_start = Vec::with_capacity(right + 1);
        offsets(&mut check_start, self.check_count.iter().copied());
        let mut next = self.check_count;
        next.copy_from_slice(&check_start[..right]);
        let mut check_adj = vec![0u32; self.checks.len()];
        for l in 0..left {
            let bucket = self.start[l] as usize..self.start[l + 1] as usize;
            for &c in &self.checks[bucket] {
                check_adj[next[c as usize] as usize] = l as u32;
                next[c as usize] += 1;
            }
        }

        let mut left_degree = self.fill;
        left_degree.fill(0);
        let mut kept = 0u32;
        for c in 0..right {
            let drawn = check_start[c] as usize..check_start[c + 1] as usize;
            check_start[c] = kept;
            let mut last = None;
            for i in drawn {
                let l = check_adj[i];
                if last != Some(l) {
                    check_adj[kept as usize] = l;
                    kept += 1;
                    left_degree[l as usize] += 1;
                    last = Some(l);
                }
            }
        }
        check_start[right] = kept;
        check_adj.truncate(kept as usize);

        // The draws' buffers, done with, take the left side.
        let mut left_start = self.start;
        offsets(&mut left_start, left_degree.iter().copied());
        let mut next = left_degree;
        next.copy_from_slice(&left_start[..left]);
        let mut left_adj = self.checks;
        left_adj.truncate(check_adj.len());
        for c in 0..right {
            for &l in &check_adj[check_start[c] as usize..check_start[c + 1] as usize] {
                left_adj[next[l as usize] as usize] = c as u32;
                next[l as usize] += 1;
            }
        }
        BipartiteGraph {
            left,
            right,
            check_start,
            check_adj,
            left_start,
            left_adj,
        }
    }
}

/// Fill `out` with the running sums of `counts`, from 0 to the total: the
/// start of every list and the end of the last.
///
/// # Panics
///
/// Panics if the total does not fit in a `u32`.
fn offsets(out: &mut Vec<u32>, counts: impl Iterator<Item = u32>) {
    out.clear();
    out.push(0);
    let mut total = 0u32;
    for count in counts {
        total = total
            .checked_add(count)
            .expect("a graph has fewer than 2^32 edges");
        out.push(total);
    }
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
        // nodes).  No distribution draws a degree below 1; the floor makes
        // that the invariant the buckets of `Draws` are sized by.
        let mut left_degrees: Vec<usize> = distribution
            .degree_sequence(left, rng)
            .into_iter()
            .map(|d| d.clamp(1, right))
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
        let mut low: Vec<usize> = Vec::with_capacity(left);
        low.extend((0..left).filter(|&l| left_degrees[l] <= 2));
        let low_cap = (right * 9) / 10;
        if low.len() > low_cap && right >= 3 {
            low.shuffle(rng);
            for &l in &low[low_cap..] {
                left_degrees[l] = 3.min(right);
            }
            low.truncate(low_cap);
        }

        let mut draws = Draws::new(&left_degrees, right);
        if right >= 3 {
            // Spread the low-degree nodes over distinct ring positions.
            let mut positions: Vec<usize> =
                rand::seq::index::sample(rng, right, low.len().min(right)).into_vec();
            positions.sort_unstable();
            for (slot, &l) in low.iter().enumerate() {
                let p = positions[slot % positions.len()];
                draws.link(p, l);
                if left_degrees[l] == 2 {
                    draws.link((p + 1) % right, l);
                }
            }
        } else {
            // Degenerate tiny level: connect low-degree nodes directly.
            for &l in &low {
                for c in 0..left_degrees[l] {
                    draws.link(c, l);
                }
            }
        }

        // Remaining (degree ≥ 3) nodes follow the requested check-side model.
        let left_degrees = &left_degrees;
        let rest = || (0..left).filter(move |&l| left_degrees[l] >= 3);
        match check_side {
            CheckSide::Poisson => {
                for l in rest() {
                    // `deg` distinct check nodes chosen uniformly at random.
                    for c in rand::seq::index::sample(rng, right, left_degrees[l]) {
                        draws.link(c, l);
                    }
                }
            }
            CheckSide::Regular => {
                // Configuration model over the remaining sockets: spread them
                // as evenly as possible given what the ring already consumed,
                // shuffle the left sockets, and match them up.
                let rest_edges: usize = rest().map(|l| left_degrees[l]).sum();
                let ring_used = &draws.check_count;
                let ring_edges: usize = ring_used.iter().map(|&u| u as usize).sum();
                let targets = right_regular_degrees(rest_edges + ring_edges, right);
                // Only the first `rest_edges` sockets are ever matched.
                let mut right_sockets = Vec::with_capacity(rest_edges);
                for (node, &t) in targets.iter().enumerate() {
                    let want = t.saturating_sub(ring_used[node] as usize);
                    let room = rest_edges - right_sockets.len();
                    right_sockets.extend(std::iter::repeat_n(node as u32, want.min(room)));
                }
                // Rounding against the ring usage can leave us short; top up
                // round-robin so every remaining socket has a home.
                let mut next = 0usize;
                while right_sockets.len() < rest_edges {
                    right_sockets.push((next % right) as u32);
                    next += 1;
                }
                let mut left_sockets = Vec::with_capacity(rest_edges);
                for l in rest() {
                    left_sockets.extend(std::iter::repeat_n(l as u32, left_degrees[l]));
                }
                left_sockets.shuffle(rng);
                for (&l, &c) in left_sockets.iter().zip(&right_sockets) {
                    draws.link(c as usize, l as usize);
                }
            }
        }
        draws.into_graph()
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
        self.check_adj.len()
    }

    /// Left neighbours of check node `c`, in increasing order.
    pub fn check_neighbors(&self, c: usize) -> &[u32] {
        &self.check_adj[self.check_start[c] as usize..self.check_start[c + 1] as usize]
    }

    /// Check nodes adjacent to left node `l`, in increasing order.
    pub fn left_neighbors(&self, l: usize) -> &[u32] {
        &self.left_adj[self.left_start[l] as usize..self.left_start[l + 1] as usize]
    }

    /// Average degree of the left nodes (XORs per message packet).
    #[cfg(test)]
    fn average_left_degree(&self) -> f64 {
        self.edges() as f64 / self.left as f64
    }

    /// Average degree of the check nodes (XORs per check packet).
    #[cfg(test)]
    fn average_check_degree(&self) -> f64 {
        self.edges() as f64 / self.right as f64
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

    /// 64-bit FNV-1a over both adjacency sides: every check's degree and
    /// neighbours, then every left node's.  The lists are delimited by their
    /// degrees, so moving an edge between nodes changes the digest.
    fn digest(g: &BipartiteGraph) -> u64 {
        let checks = (0..g.right()).map(|c| g.check_neighbors(c));
        let lefts = (0..g.left()).map(|l| g.left_neighbors(l));
        let words = checks
            .chain(lefts)
            .flat_map(|list| std::iter::once(list.len() as u32).chain(list.iter().copied()));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.flat_map(u32::to_le_bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// The branches no wire fixture reaches: `tests/fixtures/wire/code_v1.txt`
    /// pins Tornado A and B (both `CheckSide::Regular`) and `rateless_v1.txt`
    /// the Raptor precode, but nothing builds a `CheckSide::Poisson` graph (the
    /// profile `examples/calibrate.rs` compares against) or one of fewer than
    /// three checks.  A change to either must show here.
    #[test]
    fn poisson_and_tiny_graphs_match_their_golden_digests() {
        let tornado = crate::profile::TORNADO_A.distribution;
        // Fewer than three checks caps every degree at two, so every node
        // takes the degenerate low-degree branch whatever the check side.
        let cases = [
            (64, 32, CheckSide::Poisson, 1, 0x9f20_54a4_ac5f_3e79u64),
            (
                64,
                32,
                CheckSide::Poisson,
                0x0123_4567_89AB_CDEF,
                0x1ce9_bef6_4b20_d7bb,
            ),
            (4096, 2048, CheckSide::Poisson, 1, 0x0696_25ab_9a44_aff8),
            (
                4096,
                2048,
                CheckSide::Poisson,
                0x0123_4567_89AB_CDEF,
                0x0c9b_e1b4_8df0_81cd,
            ),
            (20, 1, CheckSide::Regular, 1, 0x35e0_59e8_c10a_dd61),
            (20, 2, CheckSide::Regular, 1, 0x0822_c80e_fd26_7c05),
        ];
        let mut wrong = Vec::new();
        for (left, right, side, seed, want) in cases {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let g = BipartiteGraph::random(left, right, &tornado, side, &mut rng);
            let got = digest(&g);
            if got != want {
                wrong.push(format!(
                    "({left}, {right}, {side:?}, {seed:#x}): {got:#018x}"
                ));
            }
        }
        assert!(wrong.is_empty(), "digests changed:\n{}", wrong.join("\n"));
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

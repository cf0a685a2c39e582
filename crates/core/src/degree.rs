//! Degree distributions for the irregular bipartite graphs inside a Tornado
//! code.
//!
//! The choice of degree distribution is what makes Tornado codes work: the
//! paper's companion analysis (Luby, Mitzenmacher, Shokrollahi, Spielman,
//! Stemann — "Practical Loss-Resilient Codes", STOC '97, reference \[8\]) shows
//! that carefully chosen *irregular* distributions let the XOR peeling decoder
//! recover from a fraction of erasures approaching the capacity bound, while
//! regular graphs stall far from it.  The paper does not publish the exact
//! Tornado A / Tornado B sequences, so this module provides the published
//! families plus the knobs needed to calibrate them empirically (see
//! `profile.rs` and EXPERIMENTS.md):
//!
//! * [`DegreeDistribution::HeavyTail`] — the heavy-tail distribution of the
//!   STOC '97 analysis (edge fractions `λ_i ∝ 1/(i−1)`).
//! * [`DegreeDistribution::CheckConcentrated`] — the right-regular sequences
//!   of Shokrollahi's later analysis (edge fractions from the power series of
//!   `1 − (1 − x)^{1/(a−1)}`), which pair with constant-degree check nodes and
//!   behave noticeably better at finite block lengths.
//! * [`DegreeDistribution::Regular`] — an ablation baseline.
//!
//! Throughout, the `pmf` is expressed in the **node perspective** (fraction of
//! message nodes with a given degree); conversions from the edge perspective
//! used in the analytical literature are done inside the constructors.

use rand::seq::SliceRandom;
use rand::Rng;

/// A named left-degree distribution for one bipartite graph level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegreeDistribution {
    /// The truncated heavy-tail distribution of Luby et al.
    ///
    /// In the *edge* perspective used by the original analysis the fraction of
    /// edges attached to left nodes of degree `i` is
    /// `λ_i = 1 / (H(D) · (i − 1))` for `i ∈ {2, …, D+1}` (`H(D)` = harmonic
    /// number).  Converted to the *node* perspective (divide by `i` and
    /// renormalise), the fraction of nodes of degree `i` is
    /// `(D + 1) / (D · i · (i − 1))`, and the average node degree is
    /// `H(D) · (D + 1) / D ≈ ln D`.
    HeavyTail {
        /// Truncation parameter `D` (maximum degree is `D + 1`).
        max_degree: usize,
    },
    /// Right-regular ("check-concentrated") sequences: the edge fractions are
    /// the power-series coefficients of `1 − (1 − x)^{1/(a−1)}` truncated
    /// after the `max_degree`-th and renormalised.  In the convention
    /// λ(x) = Σ λᵢ xⁱ⁻¹ the coefficient of xʲ belongs to degree `j + 1`, so
    /// message nodes have degrees `2..=max_degree + 1`.  Designed to pair
    /// with check nodes of constant degree `a`
    /// ([`crate::graph::CheckSide::Regular`]).
    CheckConcentrated {
        /// The design check-node degree `a`.
        check_degree: usize,
        /// Power-series terms retained after truncation (the largest
        /// message-node degree is one more).
        max_degree: usize,
    },
    /// All nodes share a single degree — useful as an ablation baseline
    /// (regular codes have a markedly worse peeling threshold, which the
    /// ablation benchmark demonstrates).
    Regular {
        /// The common degree.
        degree: usize,
    },
}

impl DegreeDistribution {
    /// The heavy-tail distribution with truncation parameter `D`.
    pub const fn heavy_tail(max_degree: usize) -> Self {
        DegreeDistribution::HeavyTail { max_degree }
    }

    /// The right-regular / check-concentrated distribution for check degree
    /// `a`, truncated at `max_degree`.
    pub const fn check_concentrated(check_degree: usize, max_degree: usize) -> Self {
        DegreeDistribution::CheckConcentrated {
            check_degree,
            max_degree,
        }
    }

    /// Probability mass function over node degrees.
    ///
    /// Returns `(degree, probability)` pairs in increasing degree order; the
    /// probabilities sum to 1.
    pub fn pmf(&self) -> Vec<(usize, f64)> {
        match self {
            DegreeDistribution::HeavyTail { max_degree } => {
                let d = (*max_degree).max(1);
                // Node-perspective fractions: p_i ∝ 1 / (i · (i − 1)), whose
                // normalising constant over i = 2..=D+1 is D / (D + 1).
                let norm = (d + 1) as f64 / d as f64;
                (2..=d + 1)
                    .map(|i| (i, norm / ((i * (i - 1)) as f64)))
                    .collect()
            }
            DegreeDistribution::CheckConcentrated {
                check_degree,
                max_degree,
            } => {
                let a = (*check_degree).max(3) as f64;
                let alpha = 1.0 / (a - 1.0);
                let d = (*max_degree).max(2);
                // Edge-perspective coefficients of 1 − (1 − x)^α:
                //   c_1 = α,  c_{j+1} = c_j · (j − α) / (j + 1), for degree j + 1.
                let mut edge = Vec::with_capacity(d);
                let mut c = alpha;
                for j in 1..=d {
                    edge.push((j + 1, c));
                    c *= (j as f64 - alpha) / (j as f64 + 1.0);
                }
                // Renormalise after truncation (the truncated tail is what
                // gives the construction a positive rate; see module docs).
                let total: f64 = edge.iter().map(|(_, p)| p).sum();
                for (_, p) in edge.iter_mut() {
                    *p /= total;
                }
                // Convert to node perspective.
                let node_norm: f64 = edge.iter().map(|(i, p)| p / *i as f64).sum();
                edge.into_iter()
                    .map(|(i, p)| (i, p / i as f64 / node_norm))
                    .collect()
            }
            DegreeDistribution::Regular { degree } => vec![((*degree).max(1), 1.0)],
        }
    }

    /// Expected (average) node degree of the distribution.
    ///
    /// This is the per-packet XOR cost driving the `(k + ℓ) ln(1/ε)`
    /// encoding/decoding time in Table 1 of the paper.
    pub fn mean(&self) -> f64 {
        self.pmf().iter().map(|(d, p)| *d as f64 * p).sum()
    }

    /// Maximum degree of the distribution.
    pub fn max(&self) -> usize {
        self.pmf().last().map(|(d, _)| *d).unwrap_or(0)
    }

    /// Deterministically allocate degrees to `count` nodes so that the
    /// realised degree histogram matches the distribution as closely as
    /// possible (largest-remainder rounding), then shuffle the assignment.
    ///
    /// Deterministic proportions rather than i.i.d. sampling noticeably
    /// reduces the variance of the reception overhead at the file sizes the
    /// paper benchmarks, because the realised edge counts cannot drift from
    /// their design values.
    pub fn degree_sequence<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        if count == 0 {
            return Vec::new();
        }
        let pmf = self.pmf();
        // Largest-remainder method: floor everything, then hand out the
        // leftover nodes to the entries with the largest fractional part.
        let mut counts: Vec<(usize, usize, f64)> = pmf
            .iter()
            .map(|(deg, p)| {
                let exact = p * count as f64;
                (*deg, exact.floor() as usize, exact - exact.floor())
            })
            .collect();
        let assigned: usize = counts.iter().map(|(_, c, _)| *c).sum();
        let mut leftover = count - assigned.min(count);
        // Highest fractional remainder first.
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by(|&a, &b| counts[b].2.partial_cmp(&counts[a].2).unwrap());
        let mut cursor = 0;
        while leftover > 0 {
            let idx = order[cursor % order.len()];
            counts[idx].1 += 1;
            leftover -= 1;
            cursor += 1;
        }
        let mut seq = Vec::with_capacity(count);
        for (deg, c, _) in &counts {
            seq.extend(std::iter::repeat_n(*deg, *c));
        }
        // Rounding can only ever produce exactly `count` entries here, but be
        // defensive against pathological pmfs.
        seq.truncate(count);
        while seq.len() < count {
            seq.push(pmf[0].0);
        }
        seq.shuffle(rng);
        seq
    }
}

/// Split `total_edges` sockets across `nodes` check nodes as evenly as
/// possible (right-regular assignment): every node receives either
/// `⌊total/nodes⌋` or `⌈total/nodes⌉` sockets.
pub fn right_regular_degrees(total_edges: usize, nodes: usize) -> Vec<usize> {
    if nodes == 0 {
        return Vec::new();
    }
    let base = total_edges / nodes;
    let extra = total_edges % nodes;
    (0..nodes)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn heavy_tail_pmf_sums_to_one() {
        for d in [2usize, 5, 10, 20, 50, 100] {
            let dist = DegreeDistribution::heavy_tail(d);
            let total: f64 = dist.pmf().iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "D = {d}: total = {total}");
        }
    }

    #[test]
    fn heavy_tail_mean_matches_closed_form() {
        for d in [5usize, 20, 33, 100] {
            let dist = DegreeDistribution::heavy_tail(d);
            let h: f64 = (1..=d).map(|j| 1.0 / j as f64).sum();
            let expect = h * (d + 1) as f64 / d as f64;
            assert!((dist.mean() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn heavy_tail_edge_perspective_is_truncated_harmonic() {
        // Multiplying the node fractions by the degree and renormalising must
        // give back the edge-perspective λ_i = 1/(H(D)(i−1)) of the original
        // analysis.
        let d = 20usize;
        let dist = DegreeDistribution::heavy_tail(d);
        let h: f64 = (1..=d).map(|j| 1.0 / j as f64).sum();
        let pmf = dist.pmf();
        let mean = dist.mean();
        for (i, p) in pmf {
            let edge_fraction = i as f64 * p / mean;
            let expect = 1.0 / (h * (i - 1) as f64);
            assert!(
                (edge_fraction - expect).abs() < 1e-9,
                "degree {i}: edge fraction {edge_fraction} vs {expect}"
            );
        }
    }

    #[test]
    fn check_concentrated_pmf_sums_to_one() {
        for a in [4usize, 6, 8, 12] {
            for d in [30usize, 100, 300] {
                let dist = DegreeDistribution::check_concentrated(a, d);
                let total: f64 = dist.pmf().iter().map(|(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-9, "a = {a}, D = {d}");
            }
        }
    }

    #[test]
    fn check_concentrated_edge_fractions_match_power_series() {
        // The edge fractions must be proportional to the power-series
        // coefficients of 1 − (1 − x)^{1/(a−1)}: c_1 = α, c_2 = α(1 − α)/2, so
        // their ratio is independent of the truncation normalisation.
        let a = 8usize;
        let dist = DegreeDistribution::check_concentrated(a, 200);
        let alpha = 1.0 / (a as f64 - 1.0);
        let pmf = dist.pmf();
        let mean = dist.mean();
        let edge: Vec<(usize, f64)> = pmf
            .iter()
            .map(|(i, p)| (*i, *i as f64 * p / mean))
            .collect();
        assert_eq!(edge[0].0, 2);
        assert_eq!(edge[1].0, 3);
        let expect_ratio = alpha / (alpha * (1.0 - alpha) / 2.0);
        let got_ratio = edge[0].1 / edge[1].1;
        assert!(
            (got_ratio - expect_ratio).abs() < 1e-6,
            "ratio {got_ratio} vs {expect_ratio}"
        );
    }

    #[test]
    fn heavy_tail_min_degree_is_two() {
        let dist = DegreeDistribution::heavy_tail(20);
        assert!(dist.pmf().iter().all(|(d, _)| *d >= 2));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let seq = dist.degree_sequence(1000, &mut rng);
        assert!(seq.iter().all(|&d| (2..=21).contains(&d)));
    }

    #[test]
    fn degree_sequence_has_requested_length_and_mean() {
        let dist = DegreeDistribution::heavy_tail(20);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let seq = dist.degree_sequence(10_000, &mut rng);
        assert_eq!(seq.len(), 10_000);
        let mean = seq.iter().sum::<usize>() as f64 / seq.len() as f64;
        assert!(
            (mean - dist.mean()).abs() < 0.05,
            "realised mean {mean} vs design {}",
            dist.mean()
        );
    }

    #[test]
    fn degree_sequence_handles_tiny_counts() {
        let dist = DegreeDistribution::heavy_tail(20);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        assert_eq!(dist.degree_sequence(0, &mut rng).len(), 0);
        assert_eq!(dist.degree_sequence(1, &mut rng).len(), 1);
        assert_eq!(dist.degree_sequence(3, &mut rng).len(), 3);
    }

    #[test]
    fn regular_distribution_is_constant() {
        let dist = DegreeDistribution::Regular { degree: 3 };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let seq = dist.degree_sequence(100, &mut rng);
        assert!(seq.iter().all(|&d| d == 3));
        assert!((dist.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn right_regular_degrees_sum_and_balance() {
        let degs = right_regular_degrees(1003, 100);
        assert_eq!(degs.iter().sum::<usize>(), 1003);
        let min = *degs.iter().min().unwrap();
        let max = *degs.iter().max().unwrap();
        assert!(max - min <= 1);
        assert!(right_regular_degrees(10, 0).is_empty());
    }

    #[test]
    fn larger_d_means_larger_average_degree() {
        let a = DegreeDistribution::heavy_tail(20).mean();
        let b = DegreeDistribution::heavy_tail(50).mean();
        assert!(b > a, "denser codes must pay more XORs per packet");
    }

    #[test]
    fn check_concentrated_mean_grows_with_check_degree() {
        let lo = DegreeDistribution::check_concentrated(6, 200).mean();
        let hi = DegreeDistribution::check_concentrated(12, 200).mean();
        assert!(hi > lo);
    }
}

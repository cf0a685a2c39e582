//! The reverse-binary packet transmission schedule of Section 7.1.2.
//!
//! The encoding is divided into blocks of `B = 2^{g−1}` packets (`g` layers
//! with rates 1, 1, 2, 4, …, 2^{g−2}).  In every round each layer transmits a
//! fixed-size subset of offsets from *every* block; the subsets are chosen by
//! fixing a prefix of the offset's `g−1`-bit representation from the round
//! number's bits so that
//!
//! * within one round, the layers of any cumulative subscription level send
//!   pairwise-disjoint offsets, and
//! * over `2^{g−1}` consecutive rounds every layer — and every cumulative
//!   subscription level — transmits a permutation of the entire block before
//!   repeating anything.
//!
//! Together these give the *One Level Property*: a receiver that stays at one
//! subscription level receives no duplicate packet before it has seen the
//! whole encoding, so (for loss below `(c−1−ε)/c`) it can reconstruct the
//! source without a single wasted reception.  Table 5 of the paper lists the
//! schedule for `g = 4`; the unit tests reproduce that table verbatim.

use crate::layers::MAX_LAYERS;

/// The layered transmission schedule for an encoding of `n` packets over `g`
/// multicast layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransmissionSchedule {
    layers: usize,
    n: usize,
}

impl TransmissionSchedule {
    /// Create a schedule for `n` encoding packets over `layers` layers.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ layers ≤` [`MAX_LAYERS`] (beyond it the block size
    /// `2^{g-1}` would be absurd), or if `n == 0`.
    pub fn new(layers: usize, n: usize) -> Self {
        assert!(
            (1..=MAX_LAYERS).contains(&layers),
            "need between 1 and {MAX_LAYERS} layers"
        );
        assert!(n > 0, "schedule needs a non-empty encoding");
        TransmissionSchedule { layers, n }
    }

    /// Number of layers `g`.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Total number of encoding packets.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block size `B = 2^{g−1}` (also the number of distinct rounds).
    pub fn block_size(&self) -> usize {
        1 << (self.layers - 1)
    }

    /// Number of blocks the encoding is divided into (the last block may be
    /// partial).
    pub fn num_blocks(&self) -> usize {
        self.n.div_ceil(self.block_size())
    }

    /// Relative bandwidth of `layer`: `B_0 = 1`, `B_i = 2^{i−1}` for `i ≥ 1`
    /// (the geometric rates of Section 7.1.1).
    pub fn layer_bandwidth(&self, layer: usize) -> usize {
        assert!(layer < self.layers, "layer {layer} out of range");
        if layer == 0 {
            1
        } else {
            1 << (layer - 1)
        }
    }

    /// Total relative bandwidth of cumulative subscription level `level`
    /// (layers `0..=level`).
    #[cfg(test)]
    fn cumulative_bandwidth(&self, level: usize) -> usize {
        (0..=level).map(|l| self.layer_bandwidth(l)).sum()
    }

    /// The within-block packet offsets transmitted by `layer` in `round`.
    ///
    /// Offsets are `g−1`-bit numbers; the subset is selected by fixing a
    /// prefix derived from the round bits (see the module documentation and
    /// Table 5 of the paper).
    pub fn offsets_for(&self, layer: usize, round: usize) -> Vec<usize> {
        assert!(layer < self.layers, "layer {layer} out of range");
        let g = self.layers;
        if g == 1 {
            // Single layer: plain carousel over the block.
            return vec![round % self.block_size()];
        }
        let bits = g - 1;
        let j = round % self.block_size();
        let bit = |p: usize| (j >> p) & 1;
        // Number of leading offset bits fixed by this layer.
        let fixed = if layer == 0 { bits } else { g - layer };
        // Build the fixed prefix, most significant offset bit first: all but
        // the last fixed bit are complemented round bits; the last fixed bit
        // is the plain round bit.  Layer 0 complements every bit.
        let mut prefix = 0usize;
        for p in 0..fixed {
            let last = p == fixed - 1;
            let b = if layer == 0 || !last {
                1 - bit(p)
            } else {
                bit(p)
            };
            prefix = (prefix << 1) | b;
        }
        let free = bits - fixed;
        (0..(1usize << free))
            .map(|suffix| (prefix << free) | suffix)
            .collect()
    }

    /// Global encoding indices transmitted by `layer` in `round`: its
    /// within-block offsets replicated across every block, skipping indices
    /// beyond the end of a partial final block.
    pub fn transmission(&self, layer: usize, round: usize) -> Vec<usize> {
        let offsets = self.offsets_for(layer, round);
        let block = self.block_size();
        let mut out = Vec::with_capacity(offsets.len() * self.num_blocks());
        for b in 0..self.num_blocks() {
            for &o in &offsets {
                let idx = b * block + o;
                if idx < self.n {
                    out.push(idx);
                }
            }
        }
        out
    }

    /// Number of global indices [`TransmissionSchedule::transmission`] yields
    /// for `layer` in `round`, without materialising them — the per-round
    /// packet count a pacing driver (or a receiver estimating its loss rate)
    /// needs.  Varies slightly across rounds when the final block is partial.
    pub fn transmission_len(&self, layer: usize, round: usize) -> usize {
        let offsets = self.offsets_for(layer, round);
        let last_start = (self.num_blocks() - 1) * self.block_size();
        offsets.len() * (self.num_blocks() - 1)
            + offsets.iter().filter(|&&o| last_start + o < self.n).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Reproduce Table 5 of the paper exactly (g = 4, one 8-packet block).
    #[test]
    fn table5_four_layer_schedule() {
        let s = TransmissionSchedule::new(4, 8);
        assert_eq!(s.block_size(), 8);
        // Rounds are 1-indexed in the paper; ours are 0-indexed.
        let expect_layer3: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],
        ];
        let expect_layer2: Vec<Vec<usize>> = vec![
            vec![4, 5],
            vec![0, 1],
            vec![6, 7],
            vec![2, 3],
            vec![4, 5],
            vec![0, 1],
            vec![6, 7],
            vec![2, 3],
        ];
        let expect_layer1 = [6usize, 2, 4, 0, 7, 3, 5, 1];
        let expect_layer0 = [7usize, 3, 5, 1, 6, 2, 4, 0];
        for round in 0..8 {
            assert_eq!(
                s.offsets_for(3, round),
                expect_layer3[round],
                "layer 3 round {round}"
            );
            assert_eq!(
                s.offsets_for(2, round),
                expect_layer2[round],
                "layer 2 round {round}"
            );
            assert_eq!(
                s.offsets_for(1, round),
                vec![expect_layer1[round]],
                "layer 1 round {round}"
            );
            assert_eq!(
                s.offsets_for(0, round),
                vec![expect_layer0[round]],
                "layer 0 round {round}"
            );
        }
    }

    #[test]
    fn bandwidths_are_geometric() {
        let s = TransmissionSchedule::new(4, 8);
        assert_eq!(
            (0..4).map(|l| s.layer_bandwidth(l)).collect::<Vec<_>>(),
            vec![1, 1, 2, 4]
        );
        assert_eq!(s.cumulative_bandwidth(0), 1);
        assert_eq!(s.cumulative_bandwidth(3), 8);
        // Each round transmits exactly one block's worth across all layers.
        assert_eq!(s.cumulative_bandwidth(3), s.block_size());
    }

    #[test]
    fn each_layer_cycles_through_the_whole_block() {
        for g in 2..=6usize {
            let s = TransmissionSchedule::new(g, 1 << (g - 1));
            for layer in 0..g {
                let mut seen = HashSet::new();
                let rounds_per_cycle = s.block_size() / s.layer_bandwidth(layer);
                for round in 0..rounds_per_cycle {
                    for o in s.offsets_for(layer, round) {
                        assert!(seen.insert(o), "g={g} layer {layer} repeated offset {o}");
                    }
                }
                assert_eq!(seen.len(), s.block_size(), "g={g} layer {layer}");
            }
        }
    }

    #[test]
    fn one_level_property_within_a_round_and_across_a_cycle() {
        // For every cumulative subscription level, the offsets received over
        // the rounds of one coverage cycle are pairwise distinct and cover the
        // whole block — so a steady receiver sees no duplicate before it has
        // the entire encoding.
        for g in 2..=6usize {
            let s = TransmissionSchedule::new(g, 4 * (1 << (g - 1)));
            for level in 0..g {
                let per_round = s.cumulative_bandwidth(level);
                let rounds_per_cycle = s.block_size() / per_round;
                let mut seen = HashSet::new();
                for round in 0..rounds_per_cycle {
                    let mut this_round = HashSet::new();
                    for layer in 0..=level {
                        for o in s.offsets_for(layer, round) {
                            assert!(
                                this_round.insert(o),
                                "g={g} level {level} round {round}: duplicate within round"
                            );
                            assert!(
                                seen.insert(o),
                                "g={g} level {level} round {round}: duplicate within cycle"
                            );
                        }
                    }
                }
                assert_eq!(
                    seen.len(),
                    s.block_size(),
                    "g={g} level {level} must cover the block"
                );
            }
        }
    }

    #[test]
    fn transmission_replicates_across_blocks_and_respects_n() {
        let s = TransmissionSchedule::new(3, 10); // block size 4, last block partial
        assert_eq!(s.num_blocks(), 3);
        let tx = s.transmission(2, 0); // layer 2 sends 2 offsets per block
        for &idx in &tx {
            assert!(idx < 10);
        }
        // Offsets {0,1} at round 0 for layer 2 (g=3): blocks at 0,4,8.
        assert_eq!(tx, vec![0, 1, 4, 5, 8, 9]);
        // The top level (layers 0..=2) sends one whole block's worth per
        // round, so a round at that level covers every one of the 10 packets.
        let top: usize = (0..3).map(|layer| s.transmission(layer, 0).len()).sum();
        assert_eq!(top, 10);
    }

    #[test]
    fn single_layer_degenerates_to_a_carousel() {
        // With one layer the block size is 1, so each round sends one packet
        // from every block — i.e. every round sweeps the whole encoding once.
        let s = TransmissionSchedule::new(1, 5);
        assert_eq!(s.block_size(), 1);
        assert_eq!(s.num_blocks(), 5);
        for r in 0..3 {
            assert_eq!(s.transmission(0, r), vec![0, 1, 2, 3, 4], "round {r}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every round at every level transmits pairwise-disjoint offsets.
        #[test]
        fn prop_no_duplicates_within_any_round(g in 2usize..7, round in 0usize..64) {
            let s = TransmissionSchedule::new(g, 1 << (g - 1));
            for level in 0..g {
                let mut seen = HashSet::new();
                for layer in 0..=level {
                    for o in s.offsets_for(layer, round) {
                        prop_assert!(seen.insert(o));
                    }
                }
            }
        }

        /// The top cumulative level (`g − 1`, i.e. all layers together) covers
        /// the whole block within a single round-period — each round sends
        /// exactly one block's worth, and over `block_size` rounds every
        /// offset appears `block_size` times in total.
        #[test]
        fn prop_full_subscription_covers_the_block_each_round(g in 2usize..7, start in 0usize..64) {
            let s = TransmissionSchedule::new(g, 1 << (g - 1));
            for round in start..start + s.block_size() {
                let mut seen = HashSet::new();
                for layer in 0..g {
                    for o in s.offsets_for(layer, round) {
                        prop_assert!(seen.insert(o), "duplicate offset {o} in round {round}");
                    }
                }
                prop_assert_eq!(seen.len(), s.block_size(), "round {} must cover the block", round);
            }
        }

        /// `transmission_len` agrees with the materialised transmission for
        /// every layer and round, including partial final blocks.
        #[test]
        fn prop_transmission_len_matches_transmission(
            g in 1usize..7,
            round in 0usize..64,
            extra in 0usize..40,
        ) {
            let n = (1 << (g - 1)) + extra; // at least one (possibly partial) block
            let s = TransmissionSchedule::new(g, n);
            for layer in 0..g {
                prop_assert_eq!(
                    s.transmission_len(layer, round),
                    s.transmission(layer, round).len(),
                    "g={} layer={} round={} n={}", g, layer, round, n
                );
            }
        }
    }
}

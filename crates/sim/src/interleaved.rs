//! The interleaved Reed–Solomon scheme the paper compares against
//! (Section 6): partition the `K` file packets into `B = ⌈K/k⌉` blocks of at
//! most `k` packets, stretch every block to `c·k` packets with an MDS code,
//! and transmit round-robin — one packet from each block per round — so that
//! losses spread evenly across blocks.  A receiver reconstructs the file once
//! it holds `k` distinct packets *from every block*, which is where the
//! coupon-collector behaviour of Figures 4–6 comes from.

use df_core::{Reception, ReceptionCounter};
use df_gf::GF256;
use df_rs::{CauchyCode, ErasureCode, RsError};

/// An interleaved erasure code over a whole file.
#[derive(Debug, Clone)]
pub struct InterleavedCode {
    total_source: usize,
    block_source: usize,
    stretch: f64,
    /// Per block: (source packets, encoding packets).
    blocks: Vec<(usize, usize)>,
    /// Global encoding index of the first packet of each block.
    offsets: Vec<usize>,
    n: usize,
}

impl InterleavedCode {
    /// Create an interleaved code over `total_source` file packets with
    /// blocks of `block_source` packets and stretch factor `stretch`
    /// (the paper uses 2.0).
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParameters`] if any parameter is degenerate
    /// or a block would exceed the GF(2^8) limit of 256 encoding packets
    /// (block sizes in the paper are 8–256, specifically 20 and 50 in the
    /// simulations).
    pub fn new(total_source: usize, block_source: usize, stretch: f64) -> Result<Self, RsError> {
        if total_source == 0 || block_source == 0 {
            return Err(RsError::InvalidParameters {
                reason: "file and block sizes must be positive".to_string(),
            });
        }
        if stretch < 1.0 {
            return Err(RsError::InvalidParameters {
                reason: format!("stretch factor {stretch} must be at least 1"),
            });
        }
        let per_block_n = (block_source as f64 * stretch).round() as usize;
        if per_block_n > 256 {
            return Err(RsError::InvalidParameters {
                reason: format!(
                    "block of {block_source} packets stretched to {per_block_n} exceeds GF(2^8)"
                ),
            });
        }
        let mut blocks = Vec::new();
        let mut offsets = Vec::new();
        let mut remaining = total_source;
        let mut offset = 0;
        while remaining > 0 {
            let k = remaining.min(block_source);
            let n = ((k as f64) * stretch).round() as usize;
            blocks.push((k, n));
            offsets.push(offset);
            offset += n;
            remaining -= k;
        }
        Ok(InterleavedCode {
            total_source,
            block_source,
            stretch,
            blocks,
            offsets,
            n: offset,
        })
    }

    /// Nominal block size `k`.
    pub fn block_source(&self) -> usize {
        self.block_source
    }

    /// Number of blocks `B`.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of encoding packets.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stretch factor.
    pub fn stretch(&self) -> f64 {
        self.stretch
    }

    /// Per-block `(source, encoding)` packet counts.
    pub fn blocks(&self) -> &[(usize, usize)] {
        &self.blocks
    }

    /// Map a global encoding index to `(block, index within block)`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n()`.
    pub fn locate(&self, index: usize) -> (usize, usize) {
        assert!(index < self.n, "index {index} out of range");
        let block = match self.offsets.binary_search(&index) {
            Ok(b) => b,
            Err(ins) => ins - 1,
        };
        (block, index - self.offsets[block])
    }

    /// The interleaved transmission order: round `r` sends packet `r` of every
    /// block that has one, block by block.  The returned sequence covers the
    /// whole encoding exactly once; the carousel repeats it.
    pub fn transmission_order(&self) -> Vec<usize> {
        let max_n = self.blocks.iter().map(|&(_, n)| n).max().unwrap_or(0);
        let mut order = Vec::with_capacity(self.n);
        for round in 0..max_n {
            for (b, &(_, n)) in self.blocks.iter().enumerate() {
                if round < n {
                    order.push(self.offsets[b] + round);
                }
            }
        }
        order
    }

    /// Encode a whole file's source packets (length `total_source`, equal
    /// packet lengths) into the full interleaved encoding, block-major.
    ///
    /// # Errors
    ///
    /// Propagates block-codec errors for malformed input.
    pub fn encode(&self, source: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
        if source.len() != self.total_source {
            return Err(RsError::MalformedInput {
                reason: format!(
                    "expected {} source packets, got {}",
                    self.total_source,
                    source.len()
                ),
            });
        }
        let mut out = Vec::with_capacity(self.n);
        let mut cursor = 0;
        for &(k, n) in &self.blocks {
            let code = CauchyCode::<GF256>::new(k, n)?;
            let block_src = &source[cursor..cursor + k];
            out.extend(code.encode(block_src)?);
            cursor += k;
        }
        Ok(out)
    }

    /// Reconstruct the file from received `(global index, payload)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::NotEnoughPackets`] if any block has fewer than `k`
    /// distinct packets — the situation a carousel receiver keeps listening
    /// through.
    pub fn decode(&self, received: &[(usize, Vec<u8>)]) -> Result<Vec<Vec<u8>>, RsError> {
        // Payloads are routed to their blocks by reference; the only copies
        // made are the ones landing in the decoded output.
        let mut per_block: Vec<Vec<(usize, &[u8])>> = vec![Vec::new(); self.blocks.len()];
        for (idx, payload) in received {
            let (b, within) = self.locate(*idx);
            per_block[b].push((within, payload.as_slice()));
        }
        let mut out = Vec::with_capacity(self.total_source);
        let mut block_out = Vec::new();
        for (b, &(k, n)) in self.blocks.iter().enumerate() {
            let code = CauchyCode::<GF256>::new(k, n)?;
            code.decode_into(&per_block[b], &mut block_out)?;
            out.append(&mut block_out);
        }
        Ok(out)
    }

    /// A lightweight reception tracker for simulations: counts receptions
    /// and reports completion as soon as every block holds `k` distinct
    /// packets (the MDS property makes payloads irrelevant to the decision).
    pub(crate) fn tracker(&self) -> InterleavedTracker<'_> {
        InterleavedTracker {
            code: self,
            tally: ReceptionCounter::new(self.n, self.total_source),
            have: vec![0; self.blocks.len()],
            complete_blocks: 0,
        }
    }
}

/// Index-level reception state for an [`InterleavedCode`] receiver.  It
/// reads as its [`Reception`] counts: `tracker.distinct`.
#[derive(Debug, Clone)]
pub(crate) struct InterleavedTracker<'a> {
    code: &'a InterleavedCode,
    tally: ReceptionCounter,
    /// Distinct packets held per block.
    have: Vec<usize>,
    complete_blocks: usize,
}

impl<'a> InterleavedTracker<'a> {
    /// Record the reception of encoding packet `index`; returns `true` once
    /// the whole file is reconstructible.
    pub(crate) fn receive(&mut self, index: usize) -> bool {
        if self.tally.record(index) {
            let (b, _) = self.code.locate(index);
            self.have[b] += 1;
            if self.have[b] == self.code.blocks[b].0 {
                self.complete_blocks += 1;
            }
        }
        self.is_complete()
    }

    /// True once every block has at least `k` distinct packets.
    fn is_complete(&self) -> bool {
        self.complete_blocks == self.code.blocks.len()
    }
}

impl std::ops::Deref for InterleavedTracker<'_> {
    type Target = Reception;

    fn deref(&self) -> &Reception {
        &self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn block_partition_covers_the_file() {
        let code = InterleavedCode::new(1030, 50, 2.0).unwrap();
        assert_eq!(code.num_blocks(), 21);
        let total_k: usize = code.blocks().iter().map(|&(k, _)| k).sum();
        assert_eq!(total_k, 1030);
        assert_eq!(code.blocks().last().unwrap().0, 30);
        let total_n: usize = code.blocks().iter().map(|&(_, n)| n).sum();
        assert_eq!(total_n, code.n());
    }

    #[test]
    fn parameter_validation() {
        assert!(InterleavedCode::new(0, 50, 2.0).is_err());
        assert!(InterleavedCode::new(100, 0, 2.0).is_err());
        assert!(InterleavedCode::new(100, 50, 0.5).is_err());
        assert!(InterleavedCode::new(10_000, 200, 2.0).is_err());
        assert!(InterleavedCode::new(10_000, 128, 2.0).is_ok());
    }

    #[test]
    fn locate_inverts_offsets() {
        let code = InterleavedCode::new(203, 20, 2.0).unwrap();
        let mut counts = vec![0usize; code.num_blocks()];
        for i in 0..code.n() {
            let (b, w) = code.locate(i);
            assert!(w < code.blocks()[b].1);
            counts[b] += 1;
        }
        for (b, &(_, n)) in code.blocks().iter().enumerate() {
            assert_eq!(counts[b], n);
        }
    }

    #[test]
    fn transmission_order_is_a_permutation_and_interleaves() {
        let code = InterleavedCode::new(100, 20, 2.0).unwrap();
        let order = code.transmission_order();
        assert_eq!(order.len(), code.n());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), code.n());
        // The first B packets must come from B distinct blocks.
        let first_blocks: Vec<usize> = order[..code.num_blocks()]
            .iter()
            .map(|&i| code.locate(i).0)
            .collect();
        let mut uniq = first_blocks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), code.num_blocks());
    }

    #[test]
    fn encode_decode_roundtrip_with_losses() {
        let code = InterleavedCode::new(60, 20, 2.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let src: Vec<Vec<u8>> = (0..60)
            .map(|_| (0..32).map(|_| rng.gen()).collect())
            .collect();
        let enc = code.encode(&src).unwrap();
        assert_eq!(enc.len(), code.n());
        // Drop 40 % of packets uniformly; with stretch 2 and only 3 blocks of
        // 20 this occasionally fails, so keep drawing until a decodable set is
        // found and then verify the payload round-trip.
        let mut order: Vec<usize> = (0..code.n()).collect();
        order.shuffle(&mut rng);
        let keep = &order[..(code.n() * 3 / 4)];
        let mut tracker = code.tracker();
        for &i in keep {
            tracker.receive(i);
        }
        if tracker.is_complete() {
            let rx: Vec<(usize, Vec<u8>)> = keep.iter().map(|&i| (i, enc[i].clone())).collect();
            assert_eq!(code.decode(&rx).unwrap(), src);
        }
        // The full encoding always decodes.
        let all: Vec<(usize, Vec<u8>)> = enc.iter().cloned().enumerate().collect();
        assert_eq!(code.decode(&all).unwrap(), src);
    }

    #[test]
    fn tracker_requires_every_block() {
        let code = InterleavedCode::new(40, 20, 2.0).unwrap();
        let mut t = code.tracker();
        // Fill the first block completely; still incomplete.
        for i in 0..20 {
            assert!(!t.receive(i));
        }
        assert!(!t.is_complete());
        assert_eq!(t.distinct, 20);
        // Duplicates do not help.
        assert!(!t.receive(0));
        assert_eq!((t.received, t.distinct), (21, 20));
        // Fill the second block from its redundant half.
        for i in 0..20 {
            let done = t.receive(code.n() - 1 - i);
            assert_eq!(done, i == 19);
        }
        assert!(t.is_complete());
    }

    #[test]
    fn decode_reports_missing_block() {
        let code = InterleavedCode::new(40, 20, 2.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let src: Vec<Vec<u8>> = (0..40)
            .map(|_| (0..8).map(|_| rng.gen()).collect())
            .collect();
        let enc = code.encode(&src).unwrap();
        // All of block 0, nothing of block 1.
        let rx: Vec<(usize, Vec<u8>)> = (0..40).map(|i| (i, enc[i].clone())).collect();
        assert!(matches!(
            code.decode(&rx),
            Err(RsError::NotEnoughPackets { .. })
        ));
    }
}

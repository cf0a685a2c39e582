//! The Tornado encoder: computing every check packet of the cascade plus the
//! final-code check packets.
//!
//! Encoding is a single pass over the cascade (Figure 1 of the paper): each
//! level-`i+1` packet is the XOR of its neighbours in level `i`, and the final
//! level is additionally stretched by the conventional MDS code.  The total
//! work is one XOR per graph edge plus the final block — the
//! `(k + ℓ) ln(1/ε) P` encoding time of Table 1.
//!
//! The whole encoding lives in one buffer, an [`Encoding`]: the file is
//! copied in once (its last packet zero-padded), each cascade check row is
//! appended as a copy of its first neighbour with the rest XORed in by one
//! call of the many-source kernel, and the final code's checks are written
//! into their own rows.  Setting a session up is that copy and those XORs;
//! nothing is allocated per row.

use crate::cascade::Cascade;
use crate::error::{Result, TornadoError};
use crate::store::StoreShape;
use crate::symbol::xor_rows;

/// A whole encoding in one buffer: row `i` is encoding packet `i`.
///
/// Rows are the packet size `P` long and lie back to back, except that at
/// an odd `P` a GF(2^16) final block's check rows are `P + 2` (see
/// [`crate::cascade::FinalCode`]); [`StoreShape::row_len`] says which, the
/// same rule a receiver's store and
/// [`TornadoCode::expected_payload_len`](crate::TornadoCode::expected_payload_len)
/// follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoding {
    bytes: Vec<u8>,
    shape: StoreShape,
    packet_size: usize,
}

impl Encoding {
    /// Encoding packet `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[u8] {
        assert!(
            i < self.shape.n,
            "row {i} of an encoding of {}",
            self.shape.n
        );
        let start = self.shape.row_start(i, self.packet_size);
        &self.bytes[start..start + self.shape.row_len(i, self.packet_size)]
    }

    /// Every row, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Number of rows, the code's `n`.
    pub fn len(&self) -> usize {
        self.shape.n
    }

    /// True for an encoding of no rows (which no code produces).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The packet size `P` the file was cut into.
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }
}

/// Produce the full encoding of `source`: `n` packets whose first `k` are the
/// source packets themselves (the code is systematic).
///
/// A thin wrapper over the [`Encoding`] for callers that hold packets: they
/// are copied into one buffer, encoded there, and the rows copied out.
///
/// # Errors
///
/// Returns [`TornadoError::MalformedInput`] if the source packet count does
/// not match the cascade's `k` or the packets have inconsistent lengths.
pub fn encode(cascade: &Cascade, source: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
    if source.len() != cascade.k() {
        return Err(TornadoError::MalformedInput {
            reason: format!(
                "expected {} source packets, got {}",
                cascade.k(),
                source.len()
            ),
        });
    }
    let len = source.first().map_or(0, Vec::len);
    if len == 0 || source.iter().any(|p| p.len() != len) {
        return Err(TornadoError::MalformedInput {
            reason: "source packets must be non-empty and of equal length".to_string(),
        });
    }
    let mut bytes = Vec::with_capacity(StoreShape::of(cascade).row_start(cascade.n(), len));
    for packet in source {
        bytes.extend_from_slice(packet);
    }
    let encoding = encode_source(cascade, bytes, len);
    Ok(encoding.rows().map(<[u8]>::to_vec).collect())
}

/// Encode `data`, cut into `packet_size`-byte packets with the last one
/// zero-padded, into one [`Encoding`] whose first `k` rows are the packets.
///
/// Any packet size works: a GF(2^16) final block pads odd-length packets
/// internally (its check rows then carry two extra bytes).
///
/// # Errors
///
/// Returns [`TornadoError::MalformedInput`] unless `data` makes exactly the
/// cascade's `k` packets of `packet_size > 0` bytes.
pub fn encode_file(cascade: &Cascade, data: &[u8], packet_size: usize) -> Result<Encoding> {
    if packet_size == 0 || data.len().div_ceil(packet_size) != cascade.k() {
        return Err(TornadoError::MalformedInput {
            reason: format!(
                "{} bytes in packets of {packet_size} do not make the cascade's {} packets",
                data.len(),
                cascade.k()
            ),
        });
    }
    let mut bytes = Vec::with_capacity(StoreShape::of(cascade).row_start(cascade.n(), packet_size));
    bytes.extend_from_slice(data);
    bytes.resize(cascade.k() * packet_size, 0);
    Ok(encode_source(cascade, bytes, packet_size))
}

/// The encoding whose source rows `bytes` holds, `packet_size` bytes each;
/// `bytes` has room for the rest.
fn encode_source(cascade: &Cascade, mut bytes: Vec<u8>, packet_size: usize) -> Encoding {
    let p = packet_size;
    let shape = StoreShape::of(cascade);

    // Cascade levels: each level-i+1 row is its first level-i neighbour,
    // copied, with the others XORed in by one kernel call.
    for (level, graph) in cascade.graphs().iter().enumerate() {
        let left = cascade.level_offset(level) * p;
        for c in 0..graph.right() {
            let start = bytes.len();
            let Some((&first, rest)) = graph.check_neighbors(c).split_first() else {
                bytes.resize(start + p, 0);
                continue;
            };
            let first = left + first as usize * p;
            bytes.extend_from_within(first..first + p);
            let (done, row) = bytes.split_at_mut(start);
            let rows = rest.iter().map(|&l| {
                let at = left + l as usize * p;
                &done[at..at + p]
            });
            xor_rows(row, rows, true);
        }
    }

    // Final conventional code over the last level, read in place.
    let last_level = cascade.num_levels() - 1;
    let offset = cascade.level_offset(last_level) * p;
    let size = cascade.level_sizes()[last_level] * p;
    cascade
        .final_code()
        .append_checks(&mut bytes, offset..offset + size, p);

    debug_assert_eq!(bytes.len(), shape.row_start(shape.n, p));
    Encoding {
        bytes,
        shape,
        packet_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::Cascade;
    use crate::profile::TORNADO_A;
    use df_gf::field::xor_slice;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_source(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn encoding_is_systematic_and_complete() {
        let cascade = Cascade::build(300, TORNADO_A, 1).unwrap();
        let src = random_source(300, 40, 1);
        let enc = encode(&cascade, &src).unwrap();
        assert_eq!(enc.len(), cascade.n());
        assert_eq!(&enc[..300], &src[..]);
        assert!(enc.iter().all(|p| p.len() == 40));
    }

    #[test]
    fn check_packets_satisfy_their_constraints() {
        let cascade = Cascade::build(400, TORNADO_A, 2).unwrap();
        let src = random_source(400, 16, 2);
        let enc = encode(&cascade, &src).unwrap();
        for (level, graph) in cascade.graphs().iter().enumerate() {
            let left_offset = cascade.level_offset(level);
            let check_offset = cascade.level_offset(level + 1);
            for c in 0..graph.right() {
                let mut acc = vec![0u8; 16];
                for &l in graph.check_neighbors(c) {
                    xor_slice(&mut acc, &enc[left_offset + l as usize]);
                }
                assert_eq!(acc, enc[check_offset + c], "level {level} check {c}");
            }
        }
    }

    #[test]
    fn a_file_encodes_row_for_row_as_its_packets_do() {
        // A short last packet, and an odd packet size under a GF(2^16)
        // final block, whose check rows are two bytes wider.
        for (profile, k, p) in [(TORNADO_A, 300, 24), (crate::profile::TORNADO_B, 2000, 7)] {
            let cascade = Cascade::build(k, profile, 6).unwrap();
            let mut src = random_source(k, p, 6);
            let data: Vec<u8> = src.concat()[..k * p - p / 2].to_vec();
            src[k - 1][p - p / 2..].fill(0);
            let encoding = encode_file(&cascade, &data, p).unwrap();
            assert_eq!(encoding.len(), cascade.n());
            assert_eq!(encoding.packet_size(), p);
            let rows: Vec<Vec<u8>> = encoding.rows().map(<[u8]>::to_vec).collect();
            assert_eq!(rows, encode(&cascade, &src).unwrap());
            let shape = StoreShape::of(&cascade);
            assert!(rows
                .iter()
                .enumerate()
                .all(|(i, r)| r.len() == shape.row_len(i, p)));
        }
    }

    #[test]
    fn a_file_that_is_not_k_packets_is_rejected() {
        let cascade = Cascade::build(10, TORNADO_A, 3).unwrap();
        assert!(encode_file(&cascade, &[1u8; 80], 8).is_ok());
        assert!(encode_file(&cascade, &[1u8; 73], 8).is_ok());
        assert!(encode_file(&cascade, &[1u8; 72], 8).is_err());
        assert!(encode_file(&cascade, &[1u8; 81], 8).is_err());
        assert!(encode_file(&cascade, &[1u8; 80], 0).is_err());
    }

    #[test]
    fn wrong_source_count_rejected() {
        let cascade = Cascade::build(10, TORNADO_A, 3).unwrap();
        let src = random_source(9, 8, 3);
        assert!(encode(&cascade, &src).is_err());
    }

    #[test]
    fn inconsistent_lengths_rejected() {
        let cascade = Cascade::build(3, TORNADO_A, 4).unwrap();
        let src = vec![vec![1u8; 8], vec![2u8; 8], vec![3u8; 9]];
        assert!(encode(&cascade, &src).is_err());
        let empty = vec![vec![], vec![], vec![]];
        assert!(encode(&cascade, &empty).is_err());
    }

    #[test]
    fn odd_packet_length_round_trips_through_large_final_block() {
        // A cascade whose final block exceeds 256 packets uses GF(2^16);
        // odd packet lengths used to hard-error here, and must now be handled
        // transparently by the final code's padding scheme.
        use crate::decode::{AddOutcome, PayloadDecoder};
        use rand::seq::SliceRandom;

        let cascade = Cascade::build(2000, crate::profile::TORNADO_B, 5).unwrap();
        assert!(cascade.final_code().n() > 256, "premise: GF(2^16) final");
        let src = random_source(2000, 7, 5);
        let enc = encode(&cascade, &src).expect("odd lengths must encode");
        // Cascade-level packets keep the original length; GF(2^16) check
        // packets carry the two padding/marker bytes.
        assert!(enc[..cascade.rs_offset()].iter().all(|p| p.len() == 7));
        assert!(enc[cascade.rs_offset()..].iter().all(|p| p.len() == 9));

        let mut order: Vec<usize> = (0..cascade.n()).collect();
        order.shuffle(&mut ChaCha8Rng::seed_from_u64(55));
        let mut dec = PayloadDecoder::new(&cascade);
        for &i in &order {
            if dec.add_packet_ref(i, &enc[i]).unwrap() == AddOutcome::Complete {
                break;
            }
        }
        assert!(dec.is_complete());
        assert_eq!(dec.source().unwrap(), src);
    }
}

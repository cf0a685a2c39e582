//! The one encoded-file type, [`Encoding`], and the encoders that build it.
//!
//! Every code here keeps a file the same way: cut into `k` packets of `P`
//! bytes, the last one zero-padded, with its redundancy appended as further
//! rows of the same buffer.  A Tornado carousel appends each cascade
//! level's checks and then the final code's ([`encode_file`], a single pass
//! over the cascade of Figure 1 of the paper: each level-`i+1` packet is the
//! XOR of its neighbours in level `i`, the `(k + ℓ) ln(1/ε) P` encoding time
//! of Table 1).  A Raptor precode appends one graph level's checks
//! ([`crate::RaptorCode::precode_file`]), and plain LT appends nothing
//! ([`Encoding::from_file`]); the rateless sender XORs each LT symbol from
//! those rows.
//!
//! Setting a session up is one copy of the file, then its check rows: each
//! graph check row is appended as a copy of its first neighbour with the
//! rest XORed in by one call of the many-source kernel (`append_checks`), a
//! carousel's final-code checks are written in place, and nothing is
//! allocated per row.

use crate::cascade::Cascade;
use crate::error::{Result, TornadoError};
use crate::graph::BipartiteGraph;
use crate::store::StoreShape;
use crate::symbol::xor_rows;

/// A whole encoding in one buffer: row `i` is encoding packet `i`, and rows
/// `0..k` are the file's packets (every code here is systematic).
///
/// Rows are the packet size `P` long and lie back to back, except that at
/// an odd `P` a GF(2^16) final block's check rows are `P + 2` (see
/// [`crate::cascade::FinalCode`]); `StoreShape::row_len` says which, the
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
    /// `data` cut into `shape.k` rows of `packet_size` bytes, the last one
    /// zero-padded, with the rest of `shape`'s rows appended by `checks`
    /// into the room reserved for them.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] unless `data` makes exactly
    /// `shape.k > 0` packets of `packet_size > 0` bytes.
    pub(crate) fn build(
        data: &[u8],
        packet_size: usize,
        shape: StoreShape,
        checks: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Self> {
        let k = shape.k;
        if packet_size == 0 || k == 0 || data.len().div_ceil(packet_size) != k {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "{} bytes in packets of {packet_size} do not make {k} packets",
                    data.len()
                ),
            });
        }
        let mut bytes = Vec::with_capacity(shape.row_start(shape.n, packet_size));
        bytes.extend_from_slice(data);
        bytes.resize(k * packet_size, 0);
        checks(&mut bytes);
        debug_assert_eq!(bytes.len(), shape.row_start(shape.n, packet_size));
        Ok(Encoding {
            bytes,
            shape,
            packet_size,
        })
    }

    /// The file alone, cut into `packet_size`-byte rows with the last one
    /// zero-padded: the encoding plain LT XORs its symbols from, which has
    /// no check rows.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] if `data` is empty or
    /// `packet_size` is 0.
    pub fn from_file(data: &[u8], packet_size: usize) -> Result<Self> {
        let k = if packet_size == 0 {
            0
        } else {
            data.len().div_ceil(packet_size)
        };
        Self::build(data, packet_size, StoreShape::uniform(k, k), |_| {})
    }

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

    /// True when every row is [`Self::packet_size`] bytes long.
    pub(crate) fn is_uniform(&self) -> bool {
        self.bytes.len() == self.len() * self.packet_size
    }
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
    let p = packet_size;
    Encoding::build(data, p, StoreShape::of(cascade), |bytes| {
        for (level, graph) in cascade.graphs().iter().enumerate() {
            append_checks(bytes, graph, cascade.level_offset(level), p);
        }
        // Final conventional code over the last level, read in place.
        let last_level = cascade.num_levels() - 1;
        let offset = cascade.level_offset(last_level) * p;
        let size = cascade.level_sizes()[last_level] * p;
        cascade
            .final_code()
            .append_checks(bytes, offset..offset + size, p);
    })
}

/// Append `graph`'s check rows to `bytes`: check `c` is the XOR of its
/// neighbours among the `packet_size`-byte rows from row `first_left` on —
/// its first neighbour copied, the others XORed in by one kernel call, and
/// a check with no neighbour a zero row.  One level of a cascade, or the
/// whole Raptor precode.
pub(crate) fn append_checks(
    bytes: &mut Vec<u8>,
    graph: &BipartiteGraph,
    first_left: usize,
    packet_size: usize,
) {
    let (p, left) = (packet_size, first_left * packet_size);
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

/// `source`'s packets laid end to end as one file, and their length: the
/// input of an encoder's file form, for the packet-vector wrappers.
///
/// # Errors
///
/// Returns [`TornadoError::MalformedInput`] unless the packets are
/// non-empty and of one length.
pub(crate) fn concat_packets(source: &[Vec<u8>]) -> Result<(Vec<u8>, usize)> {
    let len = source.first().map_or(0, Vec::len);
    if len == 0 || source.iter().any(|p| p.len() != len) {
        return Err(TornadoError::MalformedInput {
            reason: "source packets must be non-empty and of equal length".to_string(),
        });
    }
    Ok((source.concat(), len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::Cascade;
    use crate::profile::{TORNADO_A, TORNADO_B};
    use df_gf::field::xor_slice;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_file(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn encoding_is_systematic_and_complete() {
        let cascade = Cascade::build(300, TORNADO_A, 1).unwrap();
        let data = random_file(300 * 40, 1);
        let enc = encode_file(&cascade, &data, 40).unwrap();
        assert_eq!(enc.len(), cascade.n());
        assert!(enc.rows().take(300).eq(data.chunks(40)));
        assert!(enc.rows().all(|p| p.len() == 40));
    }

    #[test]
    fn check_packets_satisfy_their_constraints() {
        let cascade = Cascade::build(400, TORNADO_A, 2).unwrap();
        let enc = encode_file(&cascade, &random_file(400 * 16, 2), 16).unwrap();
        for (level, graph) in cascade.graphs().iter().enumerate() {
            let left_offset = cascade.level_offset(level);
            let check_offset = cascade.level_offset(level + 1);
            for c in 0..graph.right() {
                let mut acc = vec![0u8; 16];
                for &l in graph.check_neighbors(c) {
                    xor_slice(&mut acc, enc.row(left_offset + l as usize));
                }
                assert_eq!(acc, enc.row(check_offset + c), "level {level} check {c}");
            }
        }
    }

    #[test]
    fn a_short_last_packet_encodes_as_its_zero_padded_packet() {
        // Also at an odd packet size under a GF(2^16) final block, whose
        // check rows are two bytes wider.
        for (profile, k, p) in [(TORNADO_A, 300, 24), (TORNADO_B, 2000, 7)] {
            let cascade = Cascade::build(k, profile, 6).unwrap();
            let mut padded = random_file(k * p, 6);
            padded[k * p - p / 2..].fill(0);
            let short = encode_file(&cascade, &padded[..k * p - p / 2], p).unwrap();
            assert_eq!(short.packet_size(), p);
            assert_eq!(short, encode_file(&cascade, &padded, p).unwrap());
            let shape = StoreShape::of(&cascade);
            assert!(short
                .rows()
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
    fn a_file_alone_is_its_zero_padded_rows() {
        let data = random_file(10, 7);
        let enc = Encoding::from_file(&data, 4).unwrap();
        assert_eq!((enc.len(), enc.packet_size()), (3, 4));
        assert!(enc.is_uniform());
        assert!(enc.rows().take(2).eq(data.chunks(4).take(2)));
        assert_eq!(enc.row(2), [data[8], data[9], 0, 0]);
        assert!(Encoding::from_file(&[], 4).is_err());
        assert!(Encoding::from_file(&data, 0).is_err());
    }

    #[test]
    fn odd_packet_length_round_trips_through_large_final_block() {
        // A cascade whose final block exceeds 256 packets uses GF(2^16);
        // odd packet lengths used to hard-error here, and must now be handled
        // transparently by the final code's padding scheme.
        use crate::decode::{AddOutcome, PayloadDecoder};
        use rand::seq::SliceRandom;

        let cascade = std::sync::Arc::new(Cascade::build(2000, TORNADO_B, 5).unwrap());
        assert!(cascade.final_code().n() > 256, "premise: GF(2^16) final");
        let data = random_file(2000 * 7, 5);
        let enc = encode_file(&cascade, &data, 7).expect("odd lengths must encode");
        // Cascade-level packets keep the original length; GF(2^16) check
        // packets carry the two padding/marker bytes.
        let rs = cascade.rs_offset();
        assert!(enc.rows().take(rs).all(|p| p.len() == 7));
        assert!(enc.rows().skip(rs).all(|p| p.len() == 9));
        assert!(!enc.is_uniform());

        let mut order: Vec<usize> = (0..cascade.n()).collect();
        order.shuffle(&mut ChaCha8Rng::seed_from_u64(55));
        let mut dec = PayloadDecoder::new(cascade.clone());
        for &i in &order {
            if dec.add_packet_ref(i, enc.row(i)).unwrap() == AddOutcome::Complete {
                break;
            }
        }
        assert_eq!(dec.take_file(data.len()).unwrap(), data);
    }
}

//! The Tornado encoder: computing every check packet of the cascade plus the
//! final-code check packets.
//!
//! Encoding is a single pass over the cascade (Figure 1 of the paper): each
//! level-`i+1` packet is the XOR of its neighbours in level `i`, and the final
//! level is additionally stretched by the conventional MDS code.  The total
//! work is one XOR per graph edge plus the final block — the
//! `(k + ℓ) ln(1/ε) P` encoding time of Table 1.

use crate::cascade::Cascade;
use crate::error::{Result, TornadoError};
use df_gf::field::xor_slice;

/// Produce the full encoding of `source`: `n` packets whose first `k` are the
/// source packets themselves (the code is systematic).
///
/// Clones `source` and hands the copy to [`encode_owned`]; a caller that is
/// done with its packets calls that directly and saves the copy.
///
/// # Errors
///
/// See [`encode_owned`].
pub fn encode(cascade: &Cascade, source: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
    // Sized for the whole encoding, so the by-value body never regrows it.
    let mut owned = Vec::with_capacity(cascade.n().max(source.len()));
    owned.extend_from_slice(source);
    encode_owned(cascade, owned)
}

/// [`encode`] for a caller that gives its source packets up: they become the
/// systematic prefix of the encoding as they are, uncopied.
///
/// Any packet length works: a GF(2^16) final block pads odd-length packets
/// internally (its check packets then carry two extra bytes; see
/// [`crate::cascade::FinalCode`]).
///
/// # Errors
///
/// Returns [`TornadoError::MalformedInput`] if the source packet count does
/// not match the cascade's `k` or the packets have inconsistent lengths, and
/// propagates final-code errors.
pub fn encode_owned(cascade: &Cascade, source: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
    if source.len() != cascade.k() {
        return Err(TornadoError::MalformedInput {
            reason: format!(
                "expected {} source packets, got {}",
                cascade.k(),
                source.len()
            ),
        });
    }
    let len = source.first().map(|p| p.len()).unwrap_or(0);
    if len == 0 || source.iter().any(|p| p.len() != len) {
        return Err(TornadoError::MalformedInput {
            reason: "source packets must be non-empty and of equal length".to_string(),
        });
    }

    let mut encoding = source;
    encoding.reserve_exact(cascade.n() - cascade.k());

    // Cascade levels: level i+1 packets are XORs over level i.
    for (level, graph) in cascade.graphs().iter().enumerate() {
        let left_offset = cascade.level_offset(level);
        let mut next_level: Vec<Vec<u8>> = Vec::with_capacity(graph.right());
        for c in 0..graph.right() {
            let mut acc = vec![0u8; len];
            for &l in graph.check_neighbors(c) {
                xor_slice(&mut acc, &encoding[left_offset + l as usize]);
            }
            next_level.push(acc);
        }
        encoding.extend(next_level);
    }

    // Final conventional code over the last level, read in place.
    let last_level = cascade.num_levels() - 1;
    let offset = cascade.level_offset(last_level);
    let size = cascade.level_sizes()[last_level];
    let checks = cascade
        .final_code()
        .encode_checks(&encoding[offset..offset + size])?;
    encoding.extend(checks);

    debug_assert_eq!(encoding.len(), cascade.n());
    Ok(encoding)
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
    fn the_by_value_encoder_keeps_the_source_buffers_as_its_prefix() {
        let cascade = Cascade::build(300, TORNADO_A, 6).unwrap();
        let src = random_source(300, 24, 6);
        let by_ref = encode(&cascade, &src).unwrap();
        let buffers: Vec<*const u8> = src.iter().map(|p| p.as_ptr()).collect();
        let by_value = encode_owned(&cascade, src).unwrap();
        assert_eq!(by_value, by_ref);
        assert!(by_value.iter().zip(buffers).all(|(p, b)| p.as_ptr() == b));
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

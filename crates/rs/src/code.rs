//! The [`ErasureCode`] trait and shared error type.
//!
//! Everything in the workspace that consumes a fixed-rate erasure code — the
//! interleaved baseline in `df-sim`, the final cascade level of a Tornado code
//! in `df-core`, and the benchmark harness — goes through this trait, so the
//! Vandermonde and Cauchy variants are interchangeable.

/// Errors returned by Reed–Solomon encode/decode operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// The requested code parameters are unsupported (e.g. `k > n`, or `n`
    /// exceeds what the field can address).
    InvalidParameters {
        /// Description of what was wrong with the parameters.
        reason: String,
    },
    /// The caller supplied packets whose count or lengths are inconsistent
    /// with the code parameters.
    MalformedInput {
        /// Description of the inconsistency.
        reason: String,
    },
    /// Fewer than `k` distinct packets were supplied to the decoder.
    NotEnoughPackets {
        /// How many distinct, in-range packets were available.
        have: usize,
        /// How many are required (`k`).
        need: usize,
    },
    /// The decode linear system was singular.  With distinct packet indices
    /// this cannot happen for an MDS code; it indicates corrupted input
    /// (e.g. duplicate indices after deduplication failed upstream).
    DecodeFailure,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::InvalidParameters { reason } => write!(f, "invalid code parameters: {reason}"),
            RsError::MalformedInput { reason } => write!(f, "malformed input: {reason}"),
            RsError::NotEnoughPackets { have, need } => {
                write!(f, "not enough packets to decode: have {have}, need {need}")
            }
            RsError::DecodeFailure => write!(f, "decoding linear system was singular"),
        }
    }
}

impl std::error::Error for RsError {}

/// A fixed-rate, systematic erasure code mapping `k` source packets to `n`
/// encoding packets of the same length.
///
/// Packets are byte vectors; all packets in one encode/decode call must share
/// one length `P` (the paper uses P = 1 KB for its benchmarks and 500 B in the
/// prototype).  Encoding packet indices `0..k` are the source packets
/// themselves (systematic property); indices `k..n` are redundant packets.
pub trait ErasureCode: Send + Sync {
    /// Number of source packets.
    fn k(&self) -> usize;

    /// Total number of encoding packets.
    fn n(&self) -> usize;

    /// Number of redundant packets, `n - k`.
    fn redundancy(&self) -> usize {
        self.n() - self.k()
    }

    /// Stretch factor `n / k` as used throughout the paper.
    fn stretch_factor(&self) -> f64 {
        self.n() as f64 / self.k() as f64
    }

    /// Produce the full encoding into caller-provided storage: `n` packets
    /// whose first `k` are copies of the source packets.
    ///
    /// This is the allocation-free primitive: `out` is resized to `n` entries
    /// and each entry's buffer is reused if its capacity suffices, so a
    /// carousel re-encoding files of the same shape allocates nothing after
    /// the first call.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::MalformedInput`] if the source packet count is not
    /// `k` or the packets have inconsistent lengths.
    fn encode_into(&self, source: &[Vec<u8>], out: &mut Vec<Vec<u8>>) -> Result<(), RsError>;

    /// Convenience wrapper over [`ErasureCode::encode_into`] allocating fresh
    /// output.
    ///
    /// # Errors
    ///
    /// See [`ErasureCode::encode_into`].
    fn encode(&self, source: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
        let mut out = Vec::new();
        self.encode_into(source, &mut out)?;
        Ok(out)
    }

    /// Reconstruct the `k` source packets from any `k` distinct encoding
    /// packets supplied as `(encoding index, payload)` pairs, into
    /// caller-provided storage whose buffers are reused.
    ///
    /// Payloads are **borrowed**: decoding copies each payload at most once
    /// (into its final position), never to marshal the input.  Extra packets
    /// beyond `k` are ignored (the first `k` distinct in-range indices are
    /// used); duplicate indices are deduplicated.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::NotEnoughPackets`] when fewer than `k` distinct
    /// packets are available and [`RsError::MalformedInput`] on inconsistent
    /// payload lengths or out-of-range indices.
    fn decode_into(
        &self,
        received: &[(usize, &[u8])],
        out: &mut Vec<Vec<u8>>,
    ) -> Result<(), RsError>;

    /// Borrowing wrapper over [`ErasureCode::decode_into`] allocating fresh
    /// output.
    ///
    /// # Errors
    ///
    /// See [`ErasureCode::decode_into`].
    fn decode_ref(&self, received: &[(usize, &[u8])]) -> Result<Vec<Vec<u8>>, RsError> {
        let mut out = Vec::new();
        self.decode_into(received, &mut out)?;
        Ok(out)
    }

    /// A short human-readable name used in benchmark tables
    /// ("vandermonde", "cauchy", ...).
    fn name(&self) -> &'static str;
}

/// Reset `buf` to `len` zero bytes, reusing its capacity.
pub(crate) fn reset_zeroed(buf: &mut Vec<u8>, len: usize) {
    buf.clear();
    buf.resize(len, 0);
}

/// Overwrite `buf` with a copy of `data`, reusing its capacity.
pub(crate) fn reset_copy(buf: &mut Vec<u8>, data: &[u8]) {
    buf.clear();
    buf.extend_from_slice(data);
}

/// Validate a batch of source packets against code parameters and return the
/// shared packet length.
pub(crate) fn check_source(source: &[Vec<u8>], k: usize) -> Result<usize, RsError> {
    if source.len() != k {
        return Err(RsError::MalformedInput {
            reason: format!("expected {k} source packets, got {}", source.len()),
        });
    }
    let len = source.first().map(|p| p.len()).unwrap_or(0);
    if len == 0 {
        return Err(RsError::MalformedInput {
            reason: "source packets must be non-empty".to_string(),
        });
    }
    if source.iter().any(|p| p.len() != len) {
        return Err(RsError::MalformedInput {
            reason: "source packets must all have the same length".to_string(),
        });
    }
    Ok(len)
}

/// Deduplicated borrowed packets plus their shared payload length, as
/// returned by [`check_received`].
pub(crate) type PickedPackets<'a> = (Vec<(usize, &'a [u8])>, usize);

/// Deduplicate received packets, validate indices/lengths, and return up to
/// `k` of them sorted by index, along with the shared payload length.
pub(crate) fn check_received<'a>(
    received: &[(usize, &'a [u8])],
    k: usize,
    n: usize,
) -> Result<PickedPackets<'a>, RsError> {
    let mut seen = vec![false; n];
    let mut picked: Vec<(usize, &'a [u8])> = Vec::with_capacity(k);
    let mut len: Option<usize> = None;
    for &(idx, payload) in received {
        if idx >= n {
            return Err(RsError::MalformedInput {
                reason: format!("packet index {idx} out of range for n = {n}"),
            });
        }
        match len {
            None => len = Some(payload.len()),
            Some(l) if l != payload.len() => {
                return Err(RsError::MalformedInput {
                    reason: "received packets must all have the same length".to_string(),
                })
            }
            _ => {}
        }
        if seen[idx] {
            continue;
        }
        seen[idx] = true;
        picked.push((idx, payload));
        if picked.len() == k {
            break;
        }
    }
    if picked.len() < k {
        return Err(RsError::NotEnoughPackets {
            have: picked.len(),
            need: k,
        });
    }
    picked.sort_by_key(|(idx, _)| *idx);
    let len = len.unwrap_or(0);
    if len == 0 {
        return Err(RsError::MalformedInput {
            reason: "received packets must be non-empty".to_string(),
        });
    }
    Ok((picked, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_source_rejects_wrong_count() {
        let pkts = vec![vec![1u8; 4]; 3];
        assert!(matches!(
            check_source(&pkts, 4),
            Err(RsError::MalformedInput { .. })
        ));
    }

    #[test]
    fn check_source_rejects_mixed_lengths() {
        let pkts = vec![vec![1u8; 4], vec![2u8; 5]];
        assert!(matches!(
            check_source(&pkts, 2),
            Err(RsError::MalformedInput { .. })
        ));
    }

    #[test]
    fn check_source_rejects_empty_packets() {
        let pkts = vec![vec![], vec![]];
        assert!(matches!(
            check_source(&pkts, 2),
            Err(RsError::MalformedInput { .. })
        ));
    }

    fn as_refs(rx: &[(usize, Vec<u8>)]) -> Vec<(usize, &[u8])> {
        rx.iter().map(|(i, p)| (*i, p.as_slice())).collect()
    }

    #[test]
    fn check_received_dedups_and_sorts() {
        let rx = vec![
            (3usize, vec![3u8; 2]),
            (1, vec![1u8; 2]),
            (3, vec![9u8; 2]),
            (0, vec![0u8; 2]),
        ];
        let (picked, len) = check_received(&as_refs(&rx), 3, 4).unwrap();
        assert_eq!(len, 2);
        let idxs: Vec<usize> = picked.iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, vec![0, 1, 3]);
        // The first occurrence of index 3 wins.
        assert_eq!(picked[2].1, &[3u8, 3u8]);
    }

    #[test]
    fn check_received_not_enough() {
        let rx = vec![(0usize, vec![1u8; 2]), (0, vec![1u8; 2])];
        assert_eq!(
            check_received(&as_refs(&rx), 2, 4),
            Err(RsError::NotEnoughPackets { have: 1, need: 2 })
        );
    }

    #[test]
    fn check_received_out_of_range() {
        let rx = vec![(7usize, vec![1u8; 2])];
        assert!(matches!(
            check_received(&as_refs(&rx), 1, 4),
            Err(RsError::MalformedInput { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = RsError::NotEnoughPackets { have: 3, need: 8 };
        assert!(e.to_string().contains("have 3"));
        assert!(e.to_string().contains("need 8"));
    }
}

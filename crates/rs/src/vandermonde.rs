//! Rizzo-style systematic Vandermonde Reed–Solomon erasure code.
//!
//! The generator matrix starts as an `n x k` Vandermonde matrix over distinct
//! evaluation points and is brought to systematic form by multiplying with the
//! inverse of its top `k x k` block (exactly the construction in Rizzo,
//! "Effective Erasure Codes for Reliable Computer Communication Protocols",
//! CCR 1997, which the paper benchmarks as the "Vandermonde" column of
//! Tables 2 and 3).
//!
//! Encoding cost is `O(k · ℓ)` field multiplications per packet byte; decoding
//! requires inverting a `k x k` matrix and then `O(k · x)` multiplications per
//! byte where `x` is the number of missing source packets — the costs the
//! paper summarises in Table 1.

use crate::code::{check_received, check_source, reset_copy, reset_zeroed, ErasureCode, RsError};
use df_gf::{Field, Matrix, GF256, GF65536};

/// A systematic Vandermonde Reed–Solomon erasure code over GF(2^8) by default
/// (`n ≤ 256`) or GF(2^16) via [`VandermondeCode::with_field`] for larger
/// codes such as whole-file encodings.
#[derive(Debug, Clone)]
pub struct VandermondeCode<F: Field = GF256> {
    k: usize,
    n: usize,
    /// Systematic `n x k` generator matrix: row `j` holds the coefficients of
    /// encoding packet `j` as a combination of the `k` source packets.
    generator: Matrix<F>,
}

impl VandermondeCode<GF256> {
    /// Create a code with `k` source packets and `n` total encoding packets
    /// over GF(2^8).
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParameters`] unless `0 < k ≤ n ≤ 256`.
    pub fn new(k: usize, n: usize) -> Result<Self, RsError> {
        Self::with_field(k, n)
    }
}

impl VandermondeCode<GF65536> {
    /// Create a code over GF(2^16), supporting up to 65 536 encoding packets.
    ///
    /// This is what the paper's whole-file Vandermonde baseline needs for
    /// multi-megabyte files (Table 2/3 sizes above 250 KB with 1 KB packets).
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParameters`] unless `0 < k ≤ n ≤ 65 536`.
    pub fn new_large(k: usize, n: usize) -> Result<Self, RsError> {
        Self::with_field(k, n)
    }
}

impl<F: Field> VandermondeCode<F> {
    /// Create a code over an explicit field `F`.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParameters`] if `k = 0`, `k > n`, or `n`
    /// exceeds the field order.
    pub fn with_field(k: usize, n: usize) -> Result<Self, RsError> {
        if k == 0 || k > n {
            return Err(RsError::InvalidParameters {
                reason: format!("need 0 < k <= n, got k = {k}, n = {n}"),
            });
        }
        if n > F::ORDER {
            return Err(RsError::InvalidParameters {
                reason: format!("n = {n} exceeds field order {}", F::ORDER),
            });
        }
        // Distinct evaluation points 0, 1, ..., n-1.  The top k x k block of
        // the Vandermonde matrix over distinct points is invertible, so the
        // systematic transform always succeeds.
        let points: Vec<F> = (0..n).map(F::from_usize).collect();
        let vander = Matrix::vandermonde(&points, k);
        let generator = vander
            .systematic()
            .map_err(|e| RsError::InvalidParameters {
                reason: format!("failed to build systematic generator: {e}"),
            })?;
        Ok(VandermondeCode { k, n, generator })
    }
}

impl<F: Field> ErasureCode for VandermondeCode<F> {
    fn k(&self) -> usize {
        self.k
    }

    fn n(&self) -> usize {
        self.n
    }

    fn encode_into(&self, source: &[Vec<u8>], out: &mut Vec<Vec<u8>>) -> Result<(), RsError> {
        let len = check_source(source, self.k)?;
        if F::BITS == 16 && len % 2 != 0 {
            return Err(RsError::MalformedInput {
                reason: "GF(2^16) codes require even packet lengths".to_string(),
            });
        }
        out.resize_with(self.n, Vec::new);
        let (systematic, redundant) = out.split_at_mut(self.k);
        // Systematic prefix: source packets are passed through untouched.
        for (slot, pkt) in systematic.iter_mut().zip(source) {
            reset_copy(slot, pkt);
        }
        for (j, acc) in (self.k..self.n).zip(redundant.iter_mut()) {
            let row = self.generator.row(j);
            reset_zeroed(acc, len);
            for (i, coeff) in row.iter().enumerate() {
                if coeff.is_zero() {
                    continue;
                }
                F::mul_acc_slice(*coeff, acc, &source[i]);
            }
        }
        Ok(())
    }

    fn decode_into(
        &self,
        received: &[(usize, &[u8])],
        out: &mut Vec<Vec<u8>>,
    ) -> Result<(), RsError> {
        let (picked, len) = check_received(received, self.k, self.n)?;
        if F::BITS == 16 && len % 2 != 0 {
            return Err(RsError::MalformedInput {
                reason: "GF(2^16) codes require even packet lengths".to_string(),
            });
        }
        // Which source packets arrived verbatim?
        let mut have_source = vec![false; self.k];
        out.resize_with(self.k, Vec::new);
        for &(idx, payload) in &picked {
            if idx < self.k {
                have_source[idx] = true;
                reset_copy(&mut out[idx], payload);
            }
        }
        let missing: Vec<usize> = (0..self.k).filter(|&i| !have_source[i]).collect();
        if missing.is_empty() {
            return Ok(());
        }
        // Solve for the missing source packets: the received rows of the
        // generator, restricted to the k picked packets, form an invertible
        // k x k system A * source = received.  source = A^{-1} * received.
        let rows: Vec<usize> = picked.iter().map(|(idx, _)| *idx).collect();
        let a_inv = self
            .generator
            .select_rows(&rows)
            .inverse()
            .map_err(|_| RsError::DecodeFailure)?;
        for &mi in &missing {
            let acc = &mut out[mi];
            reset_zeroed(acc, len);
            for (col, &(_, payload)) in picked.iter().enumerate() {
                let coeff = a_inv[(mi, col)];
                if coeff.is_zero() {
                    continue;
                }
                F::mul_acc_slice(coeff, acc, payload);
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "vandermonde"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn random_source(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(VandermondeCode::new(0, 4).is_err());
        assert!(VandermondeCode::new(5, 4).is_err());
        assert!(VandermondeCode::new(4, 300).is_err());
        assert!(VandermondeCode::<GF65536>::with_field(4, 70_000).is_err());
    }

    #[test]
    fn systematic_prefix_is_source() {
        let code = VandermondeCode::new(5, 10).unwrap();
        let src = random_source(5, 32, 1);
        let enc = code.encode(&src).unwrap();
        assert_eq!(enc.len(), 10);
        assert_eq!(&enc[..5], &src[..]);
    }

    #[test]
    fn decodes_from_redundant_packets_only() {
        let code = VandermondeCode::new(6, 12).unwrap();
        let src = random_source(6, 100, 2);
        let enc = code.encode(&src).unwrap();
        let rx: Vec<(usize, &[u8])> = (6..12).map(|i| (i, enc[i].as_slice())).collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn decodes_from_any_k_mix() {
        let code = VandermondeCode::new(8, 16).unwrap();
        let src = random_source(8, 64, 3);
        let enc = code.encode(&src).unwrap();
        let pick = [15usize, 0, 7, 9, 3, 12, 5, 11];
        let rx: Vec<(usize, &[u8])> = pick.iter().map(|&i| (i, enc[i].as_slice())).collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn all_source_received_short_circuits() {
        let code = VandermondeCode::new(4, 8).unwrap();
        let src = random_source(4, 16, 4);
        let enc = code.encode(&src).unwrap();
        let rx: Vec<(usize, &[u8])> = (0..4).map(|i| (i, enc[i].as_slice())).collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn too_few_packets_is_reported() {
        let code = VandermondeCode::new(4, 8).unwrap();
        let src = random_source(4, 16, 5);
        let enc = code.encode(&src).unwrap();
        let rx: Vec<(usize, &[u8])> = (0..3).map(|i| (i, enc[i].as_slice())).collect();
        assert_eq!(
            code.decode_ref(&rx),
            Err(RsError::NotEnoughPackets { have: 3, need: 4 })
        );
    }

    #[test]
    fn extra_packets_are_ignored() {
        let code = VandermondeCode::new(3, 9).unwrap();
        let src = random_source(3, 24, 6);
        let enc = code.encode(&src).unwrap();
        let rx: Vec<(usize, &[u8])> = (0..9).rev().map(|i| (i, enc[i].as_slice())).collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn gf16_code_roundtrip() {
        let code = VandermondeCode::new_large(300, 600).unwrap();
        let src = random_source(300, 8, 7);
        let enc = code.encode(&src).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let mut idx: Vec<usize> = (0..600).collect();
        idx.shuffle(&mut rng);
        let rx: Vec<(usize, &[u8])> = idx[..300].iter().map(|&i| (i, enc[i].as_slice())).collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn construction_at_field_order_boundary_round_trips() {
        // n equal to the field order must work: evaluation points are exactly
        // 0..n, and `from_usize` asserts rather than wrapping, so an
        // off-by-one here would panic instead of silently aliasing points.
        let code = VandermondeCode::new(3, 256).unwrap();
        let src = random_source(3, 16, 20);
        let enc = code.encode(&src).unwrap();
        assert_eq!(enc.len(), 256);
        let rx: Vec<(usize, &[u8])> = [255usize, 128, 0]
            .iter()
            .map(|&i| (i, enc[i].as_slice()))
            .collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);

        let large = VandermondeCode::<GF65536>::with_field(2, 65_536).unwrap();
        let src = random_source(2, 8, 21);
        let enc = large.encode(&src).unwrap();
        let rx: Vec<(usize, &[u8])> = [65_535usize, 40_000]
            .iter()
            .map(|&i| (i, enc[i].as_slice()))
            .collect();
        assert_eq!(large.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn repeated_and_changing_patterns_decode_exactly() {
        // Same erasure pattern, different payloads, on the code and on a
        // clone, then a different pattern over the same encoding: every
        // decode must be exact.
        let code = VandermondeCode::new(8, 16).unwrap();
        let clone = code.clone();
        for seed in 0..5u64 {
            let src = random_source(8, 64, 30 + seed);
            let enc = code.encode(&src).unwrap();
            let pattern = [15usize, 0, 7, 9, 3, 12, 5, 11];
            let rx: Vec<(usize, &[u8])> = pattern.iter().map(|&i| (i, enc[i].as_slice())).collect();
            assert_eq!(code.decode_ref(&rx).unwrap(), src, "seed {seed}");
            assert_eq!(clone.decode_ref(&rx).unwrap(), src, "clone, seed {seed}");
            // A different pattern over the same encoding.
            let rx2: Vec<(usize, &[u8])> = (8..16).map(|i| (i, enc[i].as_slice())).collect();
            assert_eq!(
                code.decode_ref(&rx2).unwrap(),
                src,
                "alt pattern, seed {seed}"
            );
        }
    }

    #[test]
    fn many_distinct_patterns_decode_exactly() {
        // Twelve sliding windows of four packets, each its own erasure
        // pattern.
        let code = VandermondeCode::new(4, 16).unwrap();
        let src = random_source(4, 24, 40);
        let enc = code.encode(&src).unwrap();
        for start in 0..12usize {
            let rx: Vec<(usize, &[u8])> =
                (start..start + 4).map(|i| (i, enc[i].as_slice())).collect();
            assert_eq!(code.decode_ref(&rx).unwrap(), src, "pattern at {start}");
        }
    }

    #[test]
    fn gf16_rejects_odd_packet_length() {
        let code = VandermondeCode::new_large(4, 8).unwrap();
        let src = random_source(4, 7, 9);
        assert!(matches!(
            code.encode(&src),
            Err(RsError::MalformedInput { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// MDS property: any k of the n encoding packets reconstruct the file.
        #[test]
        fn prop_any_k_of_n_decodes(
            k in 1usize..12,
            extra in 0usize..12,
            len in 1usize..40,
            seed in any::<u64>(),
        ) {
            let n = k + extra;
            let code = VandermondeCode::new(k, n).unwrap();
            let src = random_source(k, len, seed);
            let enc = code.encode(&src).unwrap();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(&mut rng);
            let rx: Vec<(usize, &[u8])> = idx[..k].iter().map(|&i| (i, enc[i].as_slice())).collect();
            prop_assert_eq!(code.decode_ref(&rx).unwrap(), src);
        }
    }
}

//! Cauchy Reed–Solomon erasure code (Blömer et al., "An XOR-Based
//! Erasure-Resilient Coding Scheme", ICSI TR-95-048) — the "Cauchy" column of
//! Tables 2 and 3 in the paper.
//!
//! The code is systematic by construction: encoding packets `0..k` are the
//! source packets, and redundant packet `k + r` is the field-linear
//! combination of the source packets with coefficients from row `r` of a
//! Cauchy matrix `C[r][c] = 1 / (x_r + y_c)` over disjoint point sets `x`
//! and `y`.  Every square submatrix of a Cauchy matrix is invertible, which
//! gives the MDS ("any k of n") property.
//!
//! Two implementation choices matter for scale, because the paper benchmarks
//! this code on whole files up to 16 MB (k up to 16 384 one-kilobyte packets):
//!
//! * coefficients are computed **on the fly** from the point sets rather than
//!   materialising the `ℓ × k` generator (which would be gigabytes for large
//!   files), and
//! * the decode linear system is solved with the **closed-form Cauchy matrix
//!   inverse**, so recovering `x` missing source packets costs `O(x²)` field
//!   operations for the matrix plus `O(k · x)` multiply-accumulates per packet
//!   byte — the `k(1 + x)P` decode cost the paper lists in Table 1 — instead
//!   of a general `O(k³)` Gaussian elimination.
//!
//! The original Blömer et al. scheme additionally expands field elements into
//! bit matrices so encoding uses only word XORs; that changes constant
//! factors, not asymptotics, and is noted as a substitution in DESIGN.md.

use crate::code::{check_received, check_source, reset_copy, reset_zeroed, ErasureCode, RsError};
use df_gf::{Field, GF256, GF65536};

/// A systematic Cauchy Reed–Solomon erasure code.
///
/// Defaults to GF(2^8) (`n ≤ 256`); use [`CauchyCode::new_large`] /
/// [`CauchyCode::with_field`] for bigger codes over GF(2^16).
#[derive(Debug, Clone)]
pub struct CauchyCode<F: Field = GF256> {
    k: usize,
    n: usize,
    /// Row points, one per redundant packet (`ℓ = n - k` of them).
    x: Vec<F>,
    /// Column points, one per source packet (`k` of them), disjoint from `x`.
    y: Vec<F>,
}

impl CauchyCode<GF256> {
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

impl CauchyCode<GF65536> {
    /// Create a code over GF(2^16) supporting up to 65 536 encoding packets.
    ///
    /// This is the variant the whole-file benchmarks (Tables 2 and 3) use for
    /// files larger than 255 packets.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParameters`] unless `0 < k ≤ n ≤ 65 536`.
    pub fn new_large(k: usize, n: usize) -> Result<Self, RsError> {
        Self::with_field(k, n)
    }
}

impl<F: Field> CauchyCode<F> {
    /// Create a code over an explicit field `F`.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParameters`] if `k = 0`, `k > n`, or
    /// `n > |F|` (the construction needs `n` distinct field points).
    pub fn with_field(k: usize, n: usize) -> Result<Self, RsError> {
        if k == 0 || k > n {
            return Err(RsError::InvalidParameters {
                reason: format!("need 0 < k <= n, got k = {k}, n = {n}"),
            });
        }
        let ell = n - k;
        if n > F::ORDER {
            return Err(RsError::InvalidParameters {
                reason: format!("n = {n} exceeds field order {}", F::ORDER),
            });
        }
        // Disjoint point sets: rows use {0..ℓ}, columns use {ℓ..ℓ+k}.
        let x: Vec<F> = (0..ell).map(F::from_usize).collect();
        let y: Vec<F> = (ell..ell + k).map(F::from_usize).collect();
        Ok(CauchyCode { k, n, x, y })
    }

    /// Coefficient of source packet `col` in redundant packet `row`
    /// (`row < ℓ`, `col < k`): redundant packet `k + row` is the sum over
    /// `col` of this times source packet `col`.  For a caller that keeps its
    /// packets somewhere [`ErasureCode::encode_into`] cannot write.
    #[inline]
    pub fn coefficient(&self, row: usize, col: usize) -> F {
        (self.x[row] + self.y[col])
            .inverse()
            .expect("x and y point sets are disjoint by construction")
    }

    /// Solve the `x × x` Cauchy system `C_sub · m = b` for the missing source
    /// packets using the closed-form Cauchy inverse, writing each recovered
    /// payload directly into its final slot `out[cols[i]]` (buffers reused).
    ///
    /// `rows` are indices into `self.x` (which redundant packets we use),
    /// `cols` are the missing source indices (into both `self.y` and `out`),
    /// and `b` holds one partially-reduced payload per row.
    fn solve_cauchy(
        &self,
        rows: &[usize],
        cols: &[usize],
        b: &[Vec<u8>],
        len: usize,
        out: &mut [Vec<u8>],
    ) {
        let m = rows.len();
        debug_assert_eq!(cols.len(), m);
        debug_assert_eq!(b.len(), m);
        let xs: Vec<F> = rows.iter().map(|&r| self.x[r]).collect();
        let ys: Vec<F> = cols.iter().map(|&c| self.y[c]).collect();

        // Closed-form inverse of the Cauchy matrix A[j][i] = 1/(xs[j] + ys[i]):
        //   (A^{-1})[i][j] = (Π_p (xs[j]+ys[p]) · Π_p (xs[p]+ys[i]))
        //                    / ((xs[j]+ys[i]) · Π_{p≠j}(xs[j]+xs[p]) · Π_{p≠i}(ys[i]+ys[p]))
        // All products are over p in 0..m.  In characteristic 2, + and − agree.
        let mut row_cross = vec![F::ONE; m]; // Π_p (xs[j] + ys[p]) for each j
        let mut col_cross = vec![F::ONE; m]; // Π_p (xs[p] + ys[i]) for each i
        for j in 0..m {
            for &y in &ys {
                row_cross[j] *= xs[j] + y;
            }
        }
        for i in 0..m {
            for &x in &xs {
                col_cross[i] *= x + ys[i];
            }
        }
        let mut row_self = vec![F::ONE; m]; // Π_{p≠j} (xs[j] + xs[p])
        let mut col_self = vec![F::ONE; m]; // Π_{p≠i} (ys[i] + ys[p])
        for j in 0..m {
            for p in 0..m {
                if p != j {
                    row_self[j] *= xs[j] + xs[p];
                }
            }
        }
        for i in 0..m {
            for p in 0..m {
                if p != i {
                    col_self[i] *= ys[i] + ys[p];
                }
            }
        }

        for i in 0..m {
            let target = &mut out[cols[i]];
            reset_zeroed(target, len);
            for j in 0..m {
                let num = row_cross[j] * col_cross[i];
                let den = (xs[j] + ys[i]) * row_self[j] * col_self[i];
                let inv_entry = num
                    * den
                        .inverse()
                        .expect("denominator factors are nonzero for distinct points");
                if inv_entry.is_zero() {
                    continue;
                }
                F::mul_acc_slice(inv_entry, target, &b[j]);
            }
        }
    }
}

impl<F: Field> ErasureCode for CauchyCode<F> {
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
        for (slot, pkt) in systematic.iter_mut().zip(source) {
            reset_copy(slot, pkt);
        }
        for (r, acc) in redundant.iter_mut().enumerate() {
            reset_zeroed(acc, len);
            for (c, pkt) in source.iter().enumerate() {
                F::mul_acc_slice(self.coefficient(r, c), acc, pkt);
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
        out.resize_with(self.k, Vec::new);
        let mut have_source = vec![false; self.k];
        let mut redundant: Vec<(usize, &[u8])> = Vec::new();
        for &(idx, payload) in &picked {
            if idx < self.k {
                have_source[idx] = true;
                reset_copy(&mut out[idx], payload);
            } else {
                redundant.push((idx - self.k, payload));
            }
        }
        let missing: Vec<usize> = (0..self.k).filter(|&i| !have_source[i]).collect();
        if missing.is_empty() {
            return Ok(());
        }
        // `picked` contains exactly k distinct packets, so the number of
        // redundant packets equals the number of missing source packets.
        debug_assert_eq!(redundant.len(), missing.len());
        let rows: Vec<usize> = redundant.iter().map(|(r, _)| *r).collect();

        // Reduce each used redundant packet by the contribution of the source
        // packets we already hold:  b_j = red_j  ⊕  Σ_{c received} C[r_j][c]·src_c.
        let mut b: Vec<Vec<u8>> = Vec::with_capacity(rows.len());
        for &(r, payload) in &redundant {
            let mut acc = payload.to_vec();
            for c in 0..self.k {
                if have_source[c] {
                    F::mul_acc_slice(self.coefficient(r, c), &mut acc, &out[c]);
                }
            }
            b.push(acc);
        }
        self.solve_cauchy(&rows, &missing, &b, len, out);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "cauchy"
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
    fn parameter_validation() {
        assert!(CauchyCode::new(0, 1).is_err());
        assert!(CauchyCode::new(3, 2).is_err());
        assert!(CauchyCode::new(200, 300).is_err());
        assert!(CauchyCode::new(128, 256).is_ok());
        assert!(CauchyCode::<GF65536>::new_large(20_000, 40_000).is_ok());
        assert!(CauchyCode::<GF65536>::new_large(40_000, 70_000).is_err());
    }

    #[test]
    fn construction_at_field_order_boundary_round_trips() {
        // n equal to the field order uses every field point exactly once for
        // the disjoint x/y sets; `from_usize` asserts rather than wrapping,
        // so any aliasing bug panics instead of breaking MDS silently.
        let code = CauchyCode::new(128, 256).unwrap();
        let src = random_source(128, 8, 77);
        let enc = code.encode(&src).unwrap();
        let rx: Vec<(usize, &[u8])> = (128..256).map(|i| (i, enc[i].as_slice())).collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);

        let large = CauchyCode::<GF65536>::new_large(2, 65_536).unwrap();
        let src = random_source(2, 6, 78);
        let enc2 = large.encode(&src).unwrap();
        let rx: Vec<(usize, &[u8])> = [65_535usize, 1]
            .iter()
            .map(|&i| (i, enc2[i].as_slice()))
            .collect();
        assert_eq!(large.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn rate_one_code_is_passthrough() {
        let code = CauchyCode::new(3, 3).unwrap();
        let src = random_source(3, 10, 0);
        let enc = code.encode(&src).unwrap();
        assert_eq!(enc, src);
        let rx: Vec<(usize, &[u8])> = enc.iter().map(Vec::as_slice).enumerate().collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn systematic_prefix_is_source() {
        let code = CauchyCode::new(4, 9).unwrap();
        let src = random_source(4, 50, 1);
        let enc = code.encode(&src).unwrap();
        assert_eq!(&enc[..4], &src[..]);
        assert_eq!(enc.len(), 9);
    }

    #[test]
    fn stretch_factor_two_recovers_from_half_loss() {
        // The paper's canonical configuration: n = 2k, half the packets lost.
        let k = 32;
        let code = CauchyCode::new(k, 2 * k).unwrap();
        let src = random_source(k, 128, 2);
        let enc = code.encode(&src).unwrap();
        // Receive exactly the odd-indexed packets (half source, half redundant).
        let rx: Vec<(usize, &[u8])> = (0..2 * k)
            .filter(|i| i % 2 == 1)
            .map(|i| (i, enc[i].as_slice()))
            .collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn decode_only_redundant_packets() {
        let k = 10;
        let code = CauchyCode::new(k, 2 * k).unwrap();
        let src = random_source(k, 33, 3);
        let enc = code.encode(&src).unwrap();
        let rx: Vec<(usize, &[u8])> = (k..2 * k).map(|i| (i, enc[i].as_slice())).collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn wrong_packet_count_rejected() {
        let code = CauchyCode::new(4, 8).unwrap();
        let src = random_source(3, 8, 4);
        assert!(matches!(
            code.encode(&src),
            Err(RsError::MalformedInput { .. })
        ));
    }

    #[test]
    fn duplicate_indices_do_not_count_twice() {
        let code = CauchyCode::new(4, 8).unwrap();
        let src = random_source(4, 8, 5);
        let enc = code.encode(&src).unwrap();
        let rx: Vec<(usize, &[u8])> = [0usize, 0, 1, 2]
            .iter()
            .map(|&i| (i, enc[i].as_slice()))
            .collect();
        assert_eq!(
            code.decode_ref(&rx),
            Err(RsError::NotEnoughPackets { have: 3, need: 4 })
        );
    }

    #[test]
    fn gf16_large_block_roundtrip() {
        // A block larger than GF(2^8) could address, exercising the GF(2^16)
        // path used by the whole-file benchmarks.
        let k = 400;
        let code = CauchyCode::new_large(k, 2 * k).unwrap();
        let src = random_source(k, 16, 6);
        let enc = code.encode(&src).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut idx: Vec<usize> = (0..2 * k).collect();
        idx.shuffle(&mut rng);
        let rx: Vec<(usize, &[u8])> = idx[..k].iter().map(|&i| (i, enc[i].as_slice())).collect();
        assert_eq!(code.decode_ref(&rx).unwrap(), src);
    }

    #[test]
    fn encode_into_and_decode_into_reuse_buffers() {
        let code = CauchyCode::new(8, 16).unwrap();
        let mut encoded = Vec::new();
        let mut decoded = Vec::new();
        // Seed the reused buffers with stale content of a *different* shape to
        // prove each call fully overwrites what it needs.
        decoded.push(vec![0xeeu8; 999]);
        for seed in 0..3u64 {
            let src = random_source(8, 64, seed);
            code.encode_into(&src, &mut encoded).unwrap();
            assert_eq!(encoded.len(), 16);
            assert_eq!(&encoded[..8], &src[..]);
            let refs: Vec<(usize, &[u8])> = (4..12).map(|i| (i, encoded[i].as_slice())).collect();
            code.decode_into(&refs, &mut decoded).unwrap();
            assert_eq!(decoded, src, "seed {seed}");
        }
    }

    #[test]
    fn names_distinguish_codes() {
        assert_eq!(CauchyCode::new(2, 4).unwrap().name(), "cauchy");
        assert_eq!(
            crate::VandermondeCode::new(2, 4).unwrap().name(),
            "vandermonde"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// MDS property for the Cauchy construction.
        #[test]
        fn prop_any_k_of_n_decodes(
            k in 1usize..12,
            extra in 0usize..12,
            len in 1usize..40,
            seed in any::<u64>(),
        ) {
            let n = k + extra;
            let code = CauchyCode::new(k, n).unwrap();
            let src = random_source(k, len, seed);
            let enc = code.encode(&src).unwrap();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xbeef);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(&mut rng);
            let rx: Vec<(usize, &[u8])> = idx[..k].iter().map(|&i| (i, enc[i].as_slice())).collect();
            prop_assert_eq!(code.decode_ref(&rx).unwrap(), src);
        }

        /// Vandermonde and Cauchy codes agree on the reconstruction (both are
        /// exact: the decoded source must equal the original regardless of
        /// which code produced the redundancy).
        #[test]
        fn prop_codes_agree_on_source(
            k in 2usize..8,
            seed in any::<u64>(),
        ) {
            let n = 2 * k;
            let src = random_source(k, 16, seed);
            for code in [&CauchyCode::new(k, n).unwrap() as &dyn ErasureCode,
                         &crate::VandermondeCode::new(k, n).unwrap() as &dyn ErasureCode] {
                let enc = code.encode(&src).unwrap();
                let rx: Vec<(usize, &[u8])> = (k..2 * k).map(|i| (i, enc[i].as_slice())).collect();
                prop_assert_eq!(code.decode_ref(&rx).unwrap(), src.clone());
            }
        }
    }
}

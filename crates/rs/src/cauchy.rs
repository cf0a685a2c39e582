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
//! * coefficients are computed from the point sets a **block of rows at a
//!   time**, at most 256 KiB of them, and applied before the next block is
//!   built, rather than materialising the `ℓ × k` generator (512 MiB at
//!   `k = ℓ = 16 384` over GF(2^16)); a GF(2^8) code's whole matrix (at
//!   most 16 KiB) is one block, and
//! * the decode linear system is solved with the **closed-form Cauchy matrix
//!   inverse**, so recovering `x` missing source packets costs `O(x²)` field
//!   operations for the matrix plus `O(k · x)` multiply-accumulates per packet
//!   byte — the `k(1 + x)P` decode cost the paper lists in Table 1 — instead
//!   of a general `O(k³)` Gaussian elimination.
//!
//! The original Blömer et al. scheme additionally expands field elements into
//! bit matrices so encoding uses only word XORs; that changes constant
//! factors, not asymptotics, and is noted as a substitution in DESIGN.md.

use crate::code::{check_received, check_source, reset_copy, zeroed_rows, ErasureCode, RsError};
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

    /// Accumulate the redundant packets of `source` into `checks`:
    /// `checks[r] ^= Σ_c C[r][c] · source[c]` for every redundant row `r`,
    /// so zeroed rows come out as encoding packets `k..n`.  For a caller
    /// that keeps its packets somewhere [`ErasureCode::encode_into`] cannot
    /// write.
    ///
    /// # Panics
    ///
    /// Panics unless `source` holds `k` packets and `checks` `n − k` rows,
    /// all of one length (a whole number of field elements).
    pub fn mul_acc_checks(&self, source: &[&[u8]], checks: &mut [&mut [u8]]) {
        assert_eq!(source.len(), self.k, "one source packet per column");
        assert_eq!(checks.len(), self.x.len(), "one check row per row point");
        mul_acc_blocked(|r, c| cauchy(self.x[r], self.y[c]), checks, source);
    }
}

/// The most coefficient bytes built at once: a GF(2^8) code's largest
/// matrix (128 × 128) fits, so the cascade's final block stays one call.
const MATRIX_BUDGET: usize = 256 << 10;

/// `dsts[i] ^= Σ_j coeff(i, j) · srcs[j]`, one [`Field::mul_acc_matrix`]
/// per block of destination rows whose coefficients fit [`MATRIX_BUDGET`].
fn mul_acc_blocked<F: Field>(
    coeff: impl Fn(usize, usize) -> F,
    dsts: &mut [&mut [u8]],
    srcs: &[&[u8]],
) {
    let rows = (MATRIX_BUDGET / (srcs.len() * std::mem::size_of::<F>()).max(1)).max(1);
    let mut block = Vec::with_capacity(rows.min(dsts.len()) * srcs.len());
    for (b, dsts) in dsts.chunks_mut(rows).enumerate() {
        block.clear();
        for i in b * rows..b * rows + dsts.len() {
            block.extend((0..srcs.len()).map(|j| coeff(i, j)));
        }
        F::mul_acc_matrix(&block, dsts, srcs);
    }
}

/// The Cauchy coefficient `1 / (x + y)`.
fn cauchy<F: Field>(x: F, y: F) -> F {
    (x + y)
        .inverse()
        .expect("x and y point sets are disjoint by construction")
}

/// The closed-form inverse of the square Cauchy matrix
/// `A[j][i] = 1 / (xs[j] + ys[i])`, as its entry `(i, j)`: row `i` holds
/// the coefficients that recover unknown `i` from the `m` right-hand sides.
/// It costs `O(m)` field operations up front and `O(1)` per entry, `O(m²)`
/// in all, where Gaussian elimination would cost `O(m³)`:
///
/// ```text
/// (A^{-1})[i][j] = (Π_p (xs[j]+ys[p]) · Π_p (xs[p]+ys[i]))
///                  / ((xs[j]+ys[i]) · Π_{p≠j}(xs[j]+xs[p]) · Π_{p≠i}(ys[i]+ys[p]))
/// ```
///
/// with every product over `p` in `0..m`.  In characteristic 2, `+` and `−`
/// agree.
fn cauchy_inverse<'a, F: Field>(xs: &'a [F], ys: &'a [F]) -> impl Fn(usize, usize) -> F + 'a {
    let m = xs.len();
    debug_assert_eq!(ys.len(), m);
    // Π over all of `others` of (point + other), skipping `skip`.
    let product = |point: F, others: &[F], skip: Option<usize>| {
        others
            .iter()
            .enumerate()
            .filter(|&(p, _)| Some(p) != skip)
            .fold(F::ONE, |acc, (_, &o)| acc * (point + o))
    };
    let row_cross: Vec<F> = xs.iter().map(|&x| product(x, ys, None)).collect();
    let col_cross: Vec<F> = ys.iter().map(|&y| product(y, xs, None)).collect();
    let row_self: Vec<F> = (0..m).map(|j| product(xs[j], xs, Some(j))).collect();
    let col_self: Vec<F> = (0..m).map(|i| product(ys[i], ys, Some(i))).collect();
    move |i, j| {
        let den = (xs[j] + ys[i]) * row_self[j] * col_self[i];
        row_cross[j]
            * col_cross[i]
            * den
                .inverse()
                .expect("denominator factors are nonzero for distinct points")
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
        let mut checks = zeroed_rows(redundant, len);
        let source: Vec<&[u8]> = source.iter().map(Vec::as_slice).collect();
        self.mul_acc_checks(&source, &mut checks);
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
        let (held, redundant): (Vec<_>, Vec<_>) =
            picked.iter().partition(|&&(idx, _)| idx < self.k);
        let mut have_source = vec![false; self.k];
        for &(idx, payload) in &held {
            have_source[idx] = true;
            reset_copy(&mut out[idx], payload);
        }
        if held.len() == self.k {
            return Ok(());
        }
        // `picked` contains exactly k distinct packets, so the number of
        // redundant packets equals the number of missing source packets.
        let xs: Vec<F> = redundant.iter().map(|&(r, _)| self.x[r - self.k]).collect();

        // Reduce each used redundant packet by the contribution of the source
        // packets we already hold:  b_j = red_j  ⊕  Σ_{c received} C[r_j][c]·src_c.
        let mut b: Vec<Vec<u8>> = redundant.iter().map(|(_, p)| p.to_vec()).collect();
        let held_ys: Vec<F> = held.iter().map(|&(c, _)| self.y[c]).collect();
        let held: Vec<&[u8]> = held.iter().map(|&(_, p)| p).collect();
        let mut rows: Vec<&mut [u8]> = b.iter_mut().map(Vec::as_mut_slice).collect();
        mul_acc_blocked(|j, c| cauchy(xs[j], held_ys[c]), &mut rows, &held);

        // Solve C_sub · m = b for the missing source packets, writing each
        // straight into its slot of `out`.
        let missing_ys: Vec<F> = (0..self.k)
            .filter(|&c| !have_source[c])
            .map(|c| self.y[c])
            .collect();
        let slots = out.iter_mut().zip(&have_source).filter(|&(_, &have)| !have);
        let mut missing = zeroed_rows(slots.map(|(slot, _)| slot), len);
        let b: Vec<&[u8]> = b.iter().map(Vec::as_slice).collect();
        mul_acc_blocked(cauchy_inverse(&xs, &missing_ys), &mut missing, &b);
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
    fn codes_past_the_matrix_budget_take_several_blocks() {
        // 400 × 800 GF(2^16) coefficients are 625 KiB, three encode blocks.
        // Losing the 400 even source packets, the reduction (400 × 400 held)
        // and the inverse (400 × 400) are 312.5 KiB each, two blocks apiece.
        let (k, ell, len) = (800, 400, 4);
        assert!(ell * k * 2 > 2 * MATRIX_BUDGET && 400 * 400 * 2 > MATRIX_BUDGET);
        let code = CauchyCode::new_large(k, k + ell).unwrap();
        let src = random_source(k, len, 9);
        let enc = code.encode(&src).unwrap();
        for (r, check) in enc[k..].iter().enumerate() {
            let mut expect = vec![0u8; len];
            for (c, packet) in src.iter().enumerate() {
                let pair = GF65536::from_usize(r) + GF65536::from_usize(ell + c);
                GF65536::mul_acc_slice(pair.inverse().unwrap(), &mut expect, packet);
            }
            assert_eq!(check, &expect, "check {r}");
        }
        let rx: Vec<(usize, &[u8])> = (0..k + ell)
            .filter(|&i| i >= k || i % 2 == 1)
            .map(|i| (i, enc[i].as_slice()))
            .collect();
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

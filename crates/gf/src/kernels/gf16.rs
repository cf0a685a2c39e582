//! Vectorized GF(2^16) slice kernels: 4-nibble split multiply-accumulate.
//!
//! # Why four nibbles
//!
//! The GF(2^8) kernels in the parent module split each byte into two nibbles
//! so that a 16-entry `pshufb` table covers every input value.  The same
//! linearity argument extends to GF(2^16): a 16-bit element `x` is the XOR of
//! its four nibbles shifted into place,
//!
//! ```text
//! c · x = c·n₀ ⊕ c·(n₁ << 4) ⊕ c·(n₂ << 8) ⊕ c·(n₃ << 12)
//! ```
//!
//! so four 16-entry tables of 16-bit products — stored as eight 16-byte
//! tables, the low and high product byte per nibble position — suffice for an
//! arbitrary coefficient.  This is the `SPLIT w=16, 4` scheme of gf-complete /
//! ISA-L, the implementation lineage the fountain-code surveys identify as the
//! deciding cost of deployed erasure codes.
//!
//! Elements are little-endian `u16`s packed in byte slices, which matches the
//! 16-bit-lane shift instructions on x86 directly: a loaded vector's epi16
//! lanes *are* the field elements, so the four nibble indices come from two
//! lane shifts and two masks, with no deinterleaving shuffle.  Each `pshufb`
//! looks up one product byte per element; a lane shift recombines low and high
//! bytes.  The odd (high) byte of every nibble-index lane is zero, and every
//! table's entry 0 is `c·0 = 0`, so the unwanted lookups contribute nothing.
//!
//! # Kernel tiers
//!
//! 1. **`pshufb` SIMD** — 32 elements per step with AVX-512BW, 16 with AVX2,
//!    8 with SSSE3, selected at runtime by the parent module's dispatcher and
//!    memoized.  Each hands its sub-vector tail to the log/exp loop (the
//!    AVX-512 kernel first to AVX2 when the tail holds a whole AVX2 step).
//! 2. **Split-byte tables** ([`split_byte`]) — the per-coefficient 256-entry
//!    `TLO`/`THI` product tables (`c·x = TLO[x & 0xff] ⊕ THI[x >> 8]`),
//!    retained from the pre-SIMD implementation as the no-SIMD dispatch target
//!    and as a second reference the vector tiers are tested against.
//! 3. **Scalar log/exp** ([`scalar`]) — the element-wise definition via the
//!    field's log/exp tables; the semantic reference, and the path taken for
//!    slices too short to amortize any table build and for SIMD tails.
//!
//! All tiers are verified bit-identical on every length 0..300 and on
//! coefficients covering each nibble table (see the tests at the bottom).

// `unsafe` is needed for the `core::arch` intrinsics only (see crate root).
#![allow(unsafe_code)]

use crate::gf16::PRIM_POLY;

/// Slices shorter than this skip every table build and use the direct log/exp
/// element loop.  64 bytes = 32 elements, where the ~80-operation nibble-table
/// build (or the ~530-operation split-byte build) stops paying for itself.
const SMALL_SLICE_CUTOFF_BYTES: usize = 64;

/// Static support for per-coefficient table builds: `T[j][b] = b·x^j mod p`
/// for every byte value `b` and `j` in `0..24`, so that
/// `c·x^j = T[j][c & 0xff] ⊕ T[j + 8][c >> 8]`.
///
/// The slice kernels rebuild their tables on every call (coefficients of an
/// erasure code are all distinct, so there is nothing to cache per
/// coefficient); this 12 KiB one-time table replaces the serial
/// double-and-reduce ladder in that per-call path with two independent loads
/// per bit product.
fn mul_pow_table() -> &'static [[u16; 256]; 24] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Box<[[u16; 256]; 24]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Box::new([[0u16; 256]; 24]);
        for b in 0..256u32 {
            let mut v = b;
            for j in 0..24 {
                t[j][b as usize] = v as u16;
                v <<= 1;
                if v & 0x10000 != 0 {
                    v ^= PRIM_POLY;
                }
            }
        }
        t
    })
}

/// `c · x^j` for `j` in `0..16`: the product of the coefficient with each
/// single-bit element.  Every table tier builds its entries as subset XORs of
/// these.
#[inline]
fn bit_products(coeff: u16) -> [u16; 16] {
    let t = mul_pow_table();
    let lo = (coeff & 0xff) as usize;
    let hi = (coeff >> 8) as usize;
    std::array::from_fn(|j| t[j][lo] ^ t[j + 8][hi])
}

/// Per-coefficient 4-nibble product tables: `lo[i][n]` / `hi[i][n]` are the
/// low / high byte of `c·(n << 4i)`.
struct NibbleTables16 {
    lo: [[u8; 16]; 4],
    hi: [[u8; 16]; 4],
}

impl NibbleTables16 {
    /// Build by subset-XOR over the four bit products of each nibble
    /// position: ~80 XORs total, cheap enough to redo per slice call.
    fn build(coeff: u16) -> Self {
        let pow = bit_products(coeff);
        let mut t = NibbleTables16 {
            lo: [[0; 16]; 4],
            hi: [[0; 16]; 4],
        };
        for i in 0..4 {
            let mut full = [0u16; 16];
            for b in 0..4 {
                let bit = 1usize << b;
                for low in 0..bit {
                    full[bit | low] = pow[4 * i + b] ^ full[low];
                }
            }
            for (n, &entry) in full.iter().enumerate() {
                t.lo[i][n] = entry as u8;
                t.hi[i][n] = (entry >> 8) as u8;
            }
        }
        t
    }
}

/// Name of the kernel tier runtime dispatch selects for long GF(2^16) slices
/// on this machine (`"avx512"`, `"avx2"`, `"ssse3"` or `"split-byte"`, by
/// detection or as [`super::FORCE_TIER_ENV`] pins it); surfaced in benchmark
/// output so recorded numbers identify the code path.
pub fn active_kernel() -> &'static str {
    match super::isa() {
        // The GFNI tier runs the AVX-512 kernel for GF(2^16).
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        super::Isa::Gfni | super::Isa::Avx512 => "avx512",
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        super::Isa::Avx2 => "avx2",
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        super::Isa::Ssse3 => "ssse3",
        super::Isa::Scalar => "split-byte",
    }
}

/// `dst[i] ^= coeff · src[i]` over GF(2^16) (little-endian elements), fastest
/// available kernel.
///
/// Every coefficient takes the same path, 0 and 1 included, and counts as
/// one GF(2^16) pair in the [ledger](crate#the-work-ledger).
///
/// # Panics
///
/// Panics if the slices have different lengths or the length is odd.
pub fn mul_acc_slice(coeff: u16, dst: &mut [u8], src: &[u8]) {
    crate::ledger::count(crate::ledger::Op::Mul16, 1, dst.len());
    if dst.len() < SMALL_SLICE_CUTOFF_BYTES {
        scalar::mul_acc_slice(coeff, dst, src);
    } else {
        mul_acc_tier(super::isa(), coeff, dst, src);
    }
}

/// The multiply-accumulate kernel of tier `isa`, at any slice length.
fn mul_acc_tier(isa: super::Isa, coeff: u16, dst: &mut [u8], src: &[u8]) {
    assert_elements(dst, src);
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `isa()` returned Gfni/Avx512/Avx2/Ssse3 only after
        // `is_x86_feature_detected!` confirmed the feature at runtime (Gfni
        // includes AVX-512BW; the tests pass a tier only after the same
        // check).
        super::Isa::Gfni | super::Isa::Avx512 => unsafe { x86::mul_acc_avx512(coeff, dst, src) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        super::Isa::Avx2 => unsafe { x86::mul_acc_avx2(coeff, dst, src) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        super::Isa::Ssse3 => unsafe { x86::mul_acc_ssse3(coeff, dst, src) },
        super::Isa::Scalar => split_byte::mul_acc_slice(coeff, dst, src),
    }
}

/// The precondition of every GF(2^16) slice kernel: equal lengths, whole
/// 16-bit elements.
pub(crate) fn assert_elements(dst: &[u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "mul_acc_slice requires equal lengths");
    assert_eq!(
        dst.len() % 2,
        0,
        "GF(2^16) slices must contain whole 16-bit elements"
    );
}

/// Scalar log/exp reference kernels: one element at a time through the field
/// tables.  These define the semantics every other tier is tested against.
pub mod scalar {
    use crate::gf16::tables;

    /// Reference `dst[i] ^= coeff · src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or the length is odd.
    pub fn mul_acc_slice(coeff: u16, dst: &mut [u8], src: &[u8]) {
        super::assert_elements(dst, src);
        if coeff == 0 {
            return;
        }
        let t = tables();
        let log_c = t.log[coeff as usize];
        for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
            let sv = u16::from_le_bytes([s[0], s[1]]);
            if sv == 0 {
                continue;
            }
            let prod = t.exp[(log_c + t.log[sv as usize]) as usize];
            let dv = u16::from_le_bytes([d[0], d[1]]) ^ prod;
            d.copy_from_slice(&dv.to_le_bytes());
        }
    }
}

/// Split-byte product-table kernels: two 256-entry 16-bit tables per
/// coefficient, `c·x = lo[x & 0xff] ⊕ hi[x >> 8]`.  The pre-SIMD
/// implementation, retained as the no-SIMD dispatch target.
pub mod split_byte {
    use super::bit_products;

    /// Split-byte product tables for a fixed coefficient.
    struct ProductTables {
        lo: [u16; 256],
        hi: [u16; 256],
    }

    impl ProductTables {
        /// Build by subset-XOR dynamic programming over the 16 bit products
        /// (`table[bit | b] = table_of_bit ⊕ table[b]`): 16 field doublings
        /// plus 510 XORs.
        fn build(coeff: u16) -> Self {
            let pow = bit_products(coeff);
            let mut t = ProductTables {
                lo: [0; 256],
                hi: [0; 256],
            };
            for i in 0..8 {
                let bit = 1usize << i;
                for b in 0..bit {
                    t.lo[bit | b] = pow[i] ^ t.lo[b];
                    t.hi[bit | b] = pow[i + 8] ^ t.hi[b];
                }
            }
            t
        }

        #[inline(always)]
        fn mul(&self, x: u16) -> u16 {
            self.lo[(x & 0xff) as usize] ^ self.hi[(x >> 8) as usize]
        }
    }

    /// Split-byte `dst[i] ^= coeff · src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or the length is odd.
    pub fn mul_acc_slice(coeff: u16, dst: &mut [u8], src: &[u8]) {
        super::assert_elements(dst, src);
        let t = ProductTables::build(coeff);
        for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
            let sv = u16::from_le_bytes([s[0], s[1]]);
            let dv = u16::from_le_bytes([d[0], d[1]]) ^ t.mul(sv);
            d.copy_from_slice(&dv.to_le_bytes());
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    //! 4-nibble `pshufb` kernels.  Each function is compiled for its target
    //! feature and must only be called after runtime detection confirms it.
    use super::NibbleTables16;

    #[cfg(target_arch = "x86")]
    use core::arch::x86 as arch;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64 as arch;

    use arch::{
        __m128i, __m256i, __m512i, _mm256_and_si256, _mm256_broadcastsi128_si256,
        _mm256_castsi256_si128, _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_set1_epi16,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_slli_epi16, _mm256_srli_epi16,
        _mm256_storeu_si256, _mm256_xor_si256, _mm512_and_si512, _mm512_broadcast_i32x4,
        _mm512_loadu_si512, _mm512_set1_epi16, _mm512_shuffle_epi8, _mm512_slli_epi16,
        _mm512_srli_epi16, _mm512_storeu_si512, _mm512_xor_si512, _mm_and_si128, _mm_loadu_si128,
        _mm_packus_epi16, _mm_set1_epi16, _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_epi16,
        _mm_srli_epi16, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Nibble-selector masks: lane `n` of mask `b` is all-ones iff bit `b` of
    /// `n` is set, so a nibble's 16-entry product table assembles as four
    /// masked broadcasts of its bit products.
    const NIB_MASKS: [[u16; 16]; 4] = {
        let mut m = [[0u16; 16]; 4];
        let mut b = 0;
        while b < 4 {
            let mut n = 0;
            while n < 16 {
                if n & (1 << b) != 0 {
                    m[b][n] = 0xffff;
                }
                n += 1;
            }
            b += 1;
        }
        m
    };

    /// Build the eight 16-byte shuffle tables of one coefficient entirely in
    /// vector registers: per nibble position, four masked `vpbroadcastw`s
    /// assemble the 16 products, then a mask/shift + `packus` pair splits
    /// them into the low-byte and high-byte `pshufb` tables.  This is the
    /// per-call fixed cost of the SIMD tiers, so it avoids both the serial
    /// doubling ladder (via [`super::bit_products`]' static support table)
    /// and the 128 scalar byte stores of a memory-built table.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn build_shuffle_tables(coeff: u16) -> ([__m128i; 4], [__m128i; 4]) {
        let pow = super::bit_products(coeff);
        // SAFETY: the mask rows are exactly 32 bytes, matching the unaligned
        // 256-bit loads.
        unsafe {
            let masks = [
                _mm256_loadu_si256(NIB_MASKS[0].as_ptr() as *const __m256i),
                _mm256_loadu_si256(NIB_MASKS[1].as_ptr() as *const __m256i),
                _mm256_loadu_si256(NIB_MASKS[2].as_ptr() as *const __m256i),
                _mm256_loadu_si256(NIB_MASKS[3].as_ptr() as *const __m256i),
            ];
            let byte_mask = _mm256_set1_epi16(0x00ff);
            let mut lo = [_mm_setzero_si128(); 4];
            let mut hi = [_mm_setzero_si128(); 4];
            for i in 0..4 {
                let mut full = _mm256_setzero_si256();
                for (b, mask) in masks.iter().enumerate() {
                    let bc = _mm256_set1_epi16(pow[4 * i + b] as i16);
                    full = _mm256_xor_si256(full, _mm256_and_si256(bc, *mask));
                }
                // Entries are 0..=255 per 16-bit lane after masking/shifting,
                // so the signed-input unsigned saturation of packus is exact.
                let lo16 = _mm256_and_si256(full, byte_mask);
                let hi16 = _mm256_srli_epi16(full, 8);
                lo[i] = _mm_packus_epi16(
                    _mm256_castsi256_si128(lo16),
                    _mm256_extracti128_si256(lo16, 1),
                );
                hi[i] = _mm_packus_epi16(
                    _mm256_castsi256_si128(hi16),
                    _mm256_extracti128_si256(hi16, 1),
                );
            }
            (lo, hi)
        }
    }

    /// The eight 16-byte shuffle tables of one coefficient, broadcast to all
    /// four 128-bit lanes of AVX-512 registers.
    struct Avx512Tables {
        lo: [__m512i; 4],
        hi: [__m512i; 4],
    }

    /// # Safety
    ///
    /// Requires AVX-512F and AVX2.
    #[target_feature(enable = "avx512f,avx2")]
    unsafe fn broadcast_tables_512(coeff: u16) -> Avx512Tables {
        // SAFETY: caller is inside an avx512f+avx2 target_feature region.
        unsafe {
            let (lo, hi) = build_shuffle_tables(coeff);
            let bc = |x: __m128i| _mm512_broadcast_i32x4(x);
            Avx512Tables {
                lo: [bc(lo[0]), bc(lo[1]), bc(lo[2]), bc(lo[3])],
                hi: [bc(hi[0]), bc(hi[1]), bc(hi[2]), bc(hi[3])],
            }
        }
    }

    /// One AVX-512 step: 32 GF(2^16) products via eight nibble shuffles.
    ///
    /// # Safety
    ///
    /// Caller must be inside an `avx512bw` target-feature region.
    #[inline(always)]
    unsafe fn product32x16(v: __m512i, t: &Avx512Tables, mask: __m512i) -> __m512i {
        // SAFETY: caller is inside an avx512bw target_feature region.
        unsafe {
            let n = [
                _mm512_and_si512(v, mask),
                _mm512_and_si512(_mm512_srli_epi16(v, 4), mask),
                _mm512_and_si512(_mm512_srli_epi16(v, 8), mask),
                _mm512_srli_epi16(v, 12),
            ];
            let mut prod = _mm512_xor_si512(
                _mm512_shuffle_epi8(t.lo[0], n[0]),
                _mm512_slli_epi16(_mm512_shuffle_epi8(t.hi[0], n[0]), 8),
            );
            for ((lo, hi), nv) in t.lo.iter().zip(&t.hi).zip(&n).skip(1) {
                prod = _mm512_xor_si512(prod, _mm512_shuffle_epi8(*lo, *nv));
                prod = _mm512_xor_si512(prod, _mm512_slli_epi16(_mm512_shuffle_epi8(*hi, *nv), 8));
            }
            prod
        }
    }

    /// # Safety
    ///
    /// Requires AVX-512BW (checked by the dispatcher at runtime).
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    pub(super) unsafe fn mul_acc_avx512(coeff: u16, dst: &mut [u8], src: &[u8]) {
        // SAFETY: chunk pointers come from `chunks_exact`, so every 64-byte
        // access is in bounds; AVX-512BW implies AVX2 for the tail kernel.
        unsafe {
            let t = broadcast_tables_512(coeff);
            let mask = _mm512_set1_epi16(0x000f);
            let mut d_chunks = dst.chunks_exact_mut(64);
            let mut s_chunks = src.chunks_exact(64);
            for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
                let sv = _mm512_loadu_si512(s.as_ptr() as *const __m512i);
                let dv = _mm512_loadu_si512(d.as_ptr() as *const __m512i);
                let out = _mm512_xor_si512(dv, product32x16(sv, &t, mask));
                _mm512_storeu_si512(d.as_mut_ptr() as *mut __m512i, out);
            }
            let (d_rem, s_rem) = (d_chunks.into_remainder(), s_chunks.remainder());
            // Tails shorter than one AVX2 step would pay that kernel's full
            // shuffle-table build just to fall through to log/exp anyway.
            if d_rem.len() >= 32 {
                mul_acc_avx2(coeff, d_rem, s_rem);
            } else {
                super::scalar::mul_acc_slice(coeff, d_rem, s_rem);
            }
        }
    }

    /// The eight 16-byte shuffle tables of one coefficient, broadcast to both
    /// 128-bit lanes of AVX2 registers.
    struct Avx2Tables {
        lo: [__m256i; 4],
        hi: [__m256i; 4],
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn broadcast_tables(coeff: u16) -> Avx2Tables {
        // SAFETY: caller is inside an avx2 target_feature region.
        unsafe {
            let (lo, hi) = build_shuffle_tables(coeff);
            let bc = |x: __m128i| _mm256_broadcastsi128_si256(x);
            Avx2Tables {
                lo: [bc(lo[0]), bc(lo[1]), bc(lo[2]), bc(lo[3])],
                hi: [bc(hi[0]), bc(hi[1]), bc(hi[2]), bc(hi[3])],
            }
        }
    }

    /// One AVX2 step: 16 GF(2^16) products via eight nibble shuffles.
    ///
    /// The epi16 lanes of `v` are the little-endian field elements; the four
    /// nibble-index vectors have each index in the low byte of its lane (the
    /// high byte is zero and looks up table entry 0 = 0).
    ///
    /// # Safety
    ///
    /// Caller must be inside an `avx2` target-feature region.
    #[inline(always)]
    unsafe fn product16x16(v: __m256i, t: &Avx2Tables, mask: __m256i) -> __m256i {
        // SAFETY: caller is inside an avx2 target_feature region.
        unsafe {
            let n = [
                _mm256_and_si256(v, mask),
                _mm256_and_si256(_mm256_srli_epi16(v, 4), mask),
                _mm256_and_si256(_mm256_srli_epi16(v, 8), mask),
                _mm256_srli_epi16(v, 12),
            ];
            let mut prod = _mm256_xor_si256(
                _mm256_shuffle_epi8(t.lo[0], n[0]),
                _mm256_slli_epi16(_mm256_shuffle_epi8(t.hi[0], n[0]), 8),
            );
            for ((lo, hi), nv) in t.lo.iter().zip(&t.hi).zip(&n).skip(1) {
                prod = _mm256_xor_si256(prod, _mm256_shuffle_epi8(*lo, *nv));
                prod = _mm256_xor_si256(prod, _mm256_slli_epi16(_mm256_shuffle_epi8(*hi, *nv), 8));
            }
            prod
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (checked by the dispatcher at runtime).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_acc_avx2(coeff: u16, dst: &mut [u8], src: &[u8]) {
        // SAFETY: chunk pointers come from `chunks_exact`, so every 32-byte
        // access is in bounds; table loads are covered in `broadcast_tables`.
        unsafe {
            let t = broadcast_tables(coeff);
            let mask = _mm256_set1_epi16(0x000f);
            let mut d_chunks = dst.chunks_exact_mut(32);
            let mut s_chunks = src.chunks_exact(32);
            for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
                let sv = _mm256_loadu_si256(s.as_ptr() as *const __m256i);
                let dv = _mm256_loadu_si256(d.as_ptr() as *const __m256i);
                let out = _mm256_xor_si256(dv, product16x16(sv, &t, mask));
                _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, out);
            }
            super::scalar::mul_acc_slice(coeff, d_chunks.into_remainder(), s_chunks.remainder());
        }
    }

    /// One SSSE3 step: 8 GF(2^16) products via eight nibble shuffles.
    ///
    /// # Safety
    ///
    /// Caller must be inside an `ssse3` target-feature region.
    #[inline(always)]
    unsafe fn product8x16(
        v: __m128i,
        lo: &[__m128i; 4],
        hi: &[__m128i; 4],
        mask: __m128i,
    ) -> __m128i {
        // SAFETY: caller is inside an ssse3 target_feature region.
        unsafe {
            let n = [
                _mm_and_si128(v, mask),
                _mm_and_si128(_mm_srli_epi16(v, 4), mask),
                _mm_and_si128(_mm_srli_epi16(v, 8), mask),
                _mm_srli_epi16(v, 12),
            ];
            let mut prod = _mm_xor_si128(
                _mm_shuffle_epi8(lo[0], n[0]),
                _mm_slli_epi16(_mm_shuffle_epi8(hi[0], n[0]), 8),
            );
            for i in 1..4 {
                prod = _mm_xor_si128(prod, _mm_shuffle_epi8(lo[i], n[i]));
                prod = _mm_xor_si128(prod, _mm_slli_epi16(_mm_shuffle_epi8(hi[i], n[i]), 8));
            }
            prod
        }
    }

    /// # Safety
    ///
    /// Requires SSSE3 (checked by the dispatcher at runtime).
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_acc_ssse3(coeff: u16, dst: &mut [u8], src: &[u8]) {
        let t = NibbleTables16::build(coeff);
        // SAFETY: table rows are 16 bytes; chunk pointers come from
        // `chunks_exact`, so every 16-byte access is in bounds.
        unsafe {
            let ld = |row: &[u8; 16]| _mm_loadu_si128(row.as_ptr() as *const __m128i);
            let lo = [ld(&t.lo[0]), ld(&t.lo[1]), ld(&t.lo[2]), ld(&t.lo[3])];
            let hi = [ld(&t.hi[0]), ld(&t.hi[1]), ld(&t.hi[2]), ld(&t.hi[3])];
            let mask = _mm_set1_epi16(0x000f);
            let mut d_chunks = dst.chunks_exact_mut(16);
            let mut s_chunks = src.chunks_exact(16);
            for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
                let sv = _mm_loadu_si128(s.as_ptr() as *const __m128i);
                let dv = _mm_loadu_si128(d.as_ptr() as *const __m128i);
                let out = _mm_xor_si128(dv, product8x16(sv, &lo, &hi, mask));
                _mm_storeu_si128(d.as_mut_ptr() as *mut __m128i, out);
            }
            super::scalar::mul_acc_slice(coeff, d_chunks.into_remainder(), s_chunks.remainder());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field, GF65536};
    use proptest::prelude::*;

    /// Element-by-element definition via the field's scalar multiply — the
    /// semantics every tier below must reproduce exactly.
    fn reference_mul_acc(coeff: u16, dst: &mut [u8], src: &[u8]) {
        for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
            let sv = GF65536(u16::from_le_bytes([s[0], s[1]]));
            let dv = u16::from_le_bytes([d[0], d[1]]) ^ (GF65536(coeff) * sv).0;
            d.copy_from_slice(&dv.to_le_bytes());
        }
    }

    /// Deterministic pseudo-random payload of `elems` 16-bit elements.
    fn payload(elems: usize, salt: u16) -> Vec<u8> {
        (0..elems)
            .flat_map(|i| {
                ((i as u16)
                    .wrapping_mul(0x9e37)
                    .wrapping_add(salt)
                    .rotate_left((i % 13) as u32))
                .to_le_bytes()
            })
            .collect()
    }

    /// Coefficients covering each nibble table, the tier cutoffs' special
    /// cases (0, 1), single-nibble values, and full-width values.
    const COEFFS: [u16; 12] = [
        0, 1, 2, 3, 0x000f, 0x0010, 0x0100, 0x1000, 0x1234, 0x8000, 0xfffe, 0xffff,
    ];

    /// One GF(2^16) multiply-accumulate kernel under test.
    #[derive(Debug, Clone, Copy)]
    enum Kernel {
        /// The log/exp reference loop.
        LogExp,
        /// One tier's kernel, at any slice length.
        Tier(crate::kernels::Isa),
        /// The public entry point, small-slice cutoff included.
        Dispatch,
    }

    /// The log/exp loop, every tier this machine runs, and the dispatcher.
    fn kernels() -> Vec<Kernel> {
        let mut all = vec![Kernel::LogExp, Kernel::Dispatch];
        all.extend(crate::kernels::tiers().into_iter().map(Kernel::Tier));
        all
    }

    fn run(kernel: Kernel, coeff: u16, dst: &mut [u8], src: &[u8]) {
        match kernel {
            Kernel::LogExp => scalar::mul_acc_slice(coeff, dst, src),
            Kernel::Tier(isa) => mul_acc_tier(isa, coeff, dst, src),
            Kernel::Dispatch => mul_acc_slice(coeff, dst, src),
        }
    }

    fn check_all_tiers(coeff: u16, elems: usize) {
        let src = payload(elems, coeff);
        let dst0 = payload(elems, coeff.wrapping_add(0x5a5a));

        let mut expect = dst0.clone();
        reference_mul_acc(coeff, &mut expect, &src);

        for kernel in kernels() {
            let mut got = dst0.clone();
            run(kernel, coeff, &mut got, &src);
            assert_eq!(got, expect, "{kernel:?} coeff {coeff:#06x} elems {elems}");
        }

        let mut got = dst0.clone();
        GF65536::mul_acc_slice(GF65536(coeff), &mut got, &src);
        assert_eq!(got, expect, "field entry coeff {coeff:#06x} elems {elems}");
    }

    #[test]
    fn all_lengths_zero_to_300_bytes_match_reference() {
        // Every even byte length in 0..=300 (element counts 0..=150) for a
        // rolling coefficient plus the field edges: hits every unaligned
        // head/tail combination of the 64/32/16-byte kernels and straddles the
        // small-slice cutoff.  Subsampled under Miri, where the exhaustive
        // sweep is intractable; the full sweep still runs natively.
        let step = if cfg!(miri) { 19 } else { 1 };
        for elems in (0..=150usize).step_by(step) {
            for coeff in [0u16, 1, 2, (elems as u16).wrapping_mul(0x0b0b) | 1, 0xffff] {
                check_all_tiers(coeff, elems);
            }
        }
    }

    #[test]
    fn nibble_covering_coefficients_match_reference_at_boundaries() {
        // Coefficients exercising each of the four nibble tables, at element
        // counts straddling the SIMD chunk sizes and the scalar cutoff.
        // Miri keeps a reduced boundary set.
        let full = [1usize, 3, 4, 7, 8, 15, 16, 17, 31, 32, 33, 48, 100, 512];
        let reduced = [1usize, 8, 33, 100];
        let elem_counts: &[usize] = if cfg!(miri) { &reduced } else { &full };
        for &coeff in &COEFFS {
            for &elems in elem_counts {
                check_all_tiers(coeff, elems);
            }
        }
    }

    #[test]
    fn every_low_and_high_byte_table_entry_is_exercised() {
        // A source covering all 256 low-byte and all 256 high-byte patterns,
        // so each split-byte and nibble table entry participates at least
        // once.
        let src: Vec<u8> = (0..=255u16)
            .flat_map(|b| [(b << 8) | b, b, b << 8])
            .flat_map(|v| v.to_le_bytes())
            .collect();
        // Miri: two coefficients still touch every table entry; the full
        // coefficient set runs natively.
        let coeffs: &[u16] = if cfg!(miri) { &COEFFS[..2] } else { &COEFFS };
        for &coeff in coeffs {
            let mut dst = vec![0x5au8; src.len()];
            let mut expect = dst.clone();
            reference_mul_acc(coeff, &mut expect, &src);
            mul_acc_slice(coeff, &mut dst, &src);
            assert_eq!(dst, expect, "coeff {coeff:#06x}");
        }
    }

    #[test]
    fn dispatcher_reports_a_known_kernel() {
        assert!(["avx512", "avx2", "ssse3", "split-byte"].contains(&active_kernel()));
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn length_mismatch_panics() {
        let mut dst = vec![0u8; 4];
        mul_acc_slice(3, &mut dst, &[0u8; 6]);
    }

    #[test]
    #[should_panic(expected = "whole 16-bit elements")]
    fn odd_length_panics() {
        let mut dst = vec![0u8; 65];
        mul_acc_slice(3, &mut dst, &[0u8; 65]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// All kernels match the reference on random payloads at random byte
        /// offsets into a shared buffer, so misaligned loads and stores are
        /// exercised for every head/tail combination.
        #[test]
        fn prop_tiers_match_reference_at_random_alignments(
            coeff: u16,
            src_off in 0usize..33,
            dst_off in 0usize..33,
            elems in 0usize..160,
            buf in proptest::collection::vec(any::<u8>(), 400..500),
        ) {
            // Offsets < 33 and len <= 318 always fit in the 400+-byte buffer.
            let len = 2 * elems;
            let src = buf[src_off..src_off + len].to_vec();
            let dst0 = buf[dst_off..dst_off + len].to_vec();

            let mut expect = dst0.clone();
            reference_mul_acc(coeff, &mut expect, &src);

            // Re-run each kernel inside a fresh copy of the big buffer at the
            // original offset, so the kernel sees the same (mis)alignment.
            for kernel in kernels() {
                let mut work = buf.clone();
                work[dst_off..dst_off + len].copy_from_slice(&dst0);
                run(kernel, coeff, &mut work[dst_off..dst_off + len], &src);
                prop_assert_eq!(
                    &work[dst_off..dst_off + len], &expect[..],
                    "{:?} coeff {:#06x} elems {} offsets ({}, {})",
                    kernel, coeff, elems, src_off, dst_off
                );
                // Bytes outside the slice must be untouched.
                prop_assert_eq!(&work[..dst_off], &buf[..dst_off]);
                prop_assert_eq!(&work[dst_off + len..], &buf[dst_off + len..]);
            }
        }

    }
}

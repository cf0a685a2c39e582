//! Vectorized GF slice kernels: split-nibble multiply-accumulate.
//!
//! This module holds the GF(2^8) tiers; the GF(2^16) tiers, which extend the
//! same nibble-table trick to four nibble positions, live in [`gf16`].  Both
//! share the runtime ISA detection below, so one binary dispatches each field
//! to the best kernel the machine supports.
//!
//! # Why split nibbles
//!
//! The hot loop of every erasure code in this workspace is
//! `dst[i] ^= coeff * src[i]` over GF(2^8).  A 256-entry lookup table per
//! coefficient (the classic log/exp approach, [`scalar`]) processes one byte
//! per load and cannot be vectorized by the compiler because the table index
//! depends on the data.
//!
//! The split-nibble trick — used by every fast Reed–Solomon implementation in
//! the `reed_solomon_erasure` / Rizzo `fec` lineage the paper benchmarks
//! against — exploits linearity of the field over GF(2):
//!
//! ```text
//! c · x  =  c · (x_lo ⊕ (x_hi << 4))  =  (c · x_lo) ⊕ (c · (x_hi << 4))
//! ```
//!
//! so two **16-entry** tables per coefficient suffice: `LO[c][x & 15]` and
//! `HI[c][x >> 4]`.  Sixteen entries is exactly one SSE/AVX register, and the
//! `pshufb` instruction performs sixteen (SSSE3) or thirty-two (AVX2) such
//! lookups per cycle.  Both tables for all 256 coefficients total 8 KiB and
//! live comfortably in L1.
//!
//! # Kernel tiers and feature detection
//!
//! Three implementations are provided, verified against each other by
//! exhaustive and property tests:
//!
//! 1. **`pshufb` SIMD** ([`mul_acc_slice`] dispatch target on x86/x86_64) —
//!    64 bytes per step with AVX-512BW, 32 with AVX2, 16 with SSSE3.
//!    Selected **at runtime** via
//!    `is_x86_feature_detected!`, memoized in a `OnceLock`, so one binary runs
//!    optimally on any machine; `unsafe` is confined to this module and each
//!    `target_feature` function is only reachable after its feature check.
//! 2. **SWAR** ([`swar`]) — a portable carry-less "Russian peasant" ladder
//!    that multiplies eight byte lanes of a `u64` at once using the xtime
//!    (multiply-by-x) step `x·2 = ((x & 0x7f..) << 1) ⊕ (0x1d per lane with
//!    the high bit set)`.  Used for the sub-vector tails of the SIMD paths,
//!    where it avoids pulling a fresh 256-byte table row into cache for a
//!    handful of bytes.  It is **not** the machine-wide fallback: its 8-step
//!    serial dependency chain measures ~3.6× *slower* than the scalar table
//!    row on out-of-order x86, so machines without
//!    SSSE3 dispatch to the scalar row instead.
//! 3. **Scalar reference** ([`scalar`]) — the original 256-entry-row loop,
//!    retained as the semantic definition the other tiers must match and as
//!    the no-SIMD dispatch target.
//!
//! Dispatch happens **once per slice call**, not per byte.

// `unsafe` is needed for the `core::arch` intrinsics only; the crate root
// denies unsafe code everywhere else.
#![allow(unsafe_code)]

pub mod gf16;

use std::sync::OnceLock;

/// The reduction byte of the field polynomial 0x11d, replicated per lane by
/// the SWAR xtime step.
const POLY_LOW: u64 = 0x1d;

/// Split-nibble product tables: `lo[c][x] = c·x` for `x < 16`,
/// `hi[c][x] = c·(x << 4)`.
struct NibbleTables {
    lo: [[u8; 16]; 256],
    hi: [[u8; 16]; 256],
}

fn nibble_tables() -> &'static NibbleTables {
    static TABLES: OnceLock<Box<NibbleTables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new(NibbleTables {
            lo: [[0; 16]; 256],
            hi: [[0; 16]; 256],
        });
        for c in 0..256 {
            let row = crate::gf8::mul_row(c as u8);
            for x in 0..16 {
                t.lo[c][x] = row[x];
                t.hi[c][x] = row[x << 4];
            }
        }
        t
    })
}

/// Which kernel tier dispatch selected (normally the best the CPU supports;
/// the [`FORCE_TIER_ENV`] environment override can pin a different one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// AVX-512BW: 64-byte `pshufb` steps.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx512,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Ssse3,
    /// The portable SWAR ladder as the *primary* kernel — never chosen by
    /// detection (see the tier notes above), only forced for testing.
    Swar,
    Scalar,
}

/// Environment override for the kernel tier: set `DF_GF_FORCE_TIER` to
/// `scalar`, `swar`, `ssse3`, `avx2` or `avx512` to pin dispatch to that
/// tier for the whole process (both the GF(2^8) and GF(2^16) kernels — they
/// share this dispatcher).  CI runs the test suites under `swar` and
/// `scalar` so the non-SIMD tiers are exercised on machines whose detection
/// would never pick them.  An unknown or locally unsupported value panics at
/// the first kernel call: a forced tier that silently fell back would defeat
/// the matrix's purpose.
pub const FORCE_TIER_ENV: &str = "DF_GF_FORCE_TIER";

/// Resolve a [`FORCE_TIER_ENV`] value, validating it against this machine.
fn forced_isa(name: &str) -> Result<Isa, String> {
    match name {
        "scalar" => Ok(Isa::Scalar),
        "swar" => Ok(Isa::Swar),
        "ssse3" | "avx2" | "avx512" => {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            {
                let (isa, supported) = match name {
                    "ssse3" => (Isa::Ssse3, std::arch::is_x86_feature_detected!("ssse3")),
                    "avx2" => (Isa::Avx2, std::arch::is_x86_feature_detected!("avx2")),
                    _ => (Isa::Avx512, std::arch::is_x86_feature_detected!("avx512bw")),
                };
                if supported {
                    Ok(isa)
                } else {
                    Err(format!(
                        "{FORCE_TIER_ENV}={name} requested but this CPU does not support it"
                    ))
                }
            }
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            Err(format!(
                "{FORCE_TIER_ENV}={name} requested but the tier only exists on x86"
            ))
        }
        other => Err(format!(
            "{FORCE_TIER_ENV}={other:?} is not a kernel tier \
             (expected scalar, swar, ssse3, avx2 or avx512)"
        )),
    }
}

fn detect_isa() -> Isa {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx512bw") {
            return Isa::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            return Isa::Ssse3;
        }
    }
    Isa::Scalar
}

fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| match std::env::var(FORCE_TIER_ENV) {
        Ok(name) => forced_isa(&name).unwrap_or_else(|reason| panic!("{reason}")),
        Err(_) => detect_isa(),
    })
}

/// Name of the kernel tier runtime dispatch selected on this machine
/// (`"avx2"`, `"ssse3"` or `"scalar"`); surfaced in benchmark output so
/// recorded numbers identify the code path that produced them.
pub fn active_kernel() -> &'static str {
    match isa() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx512 => "avx512",
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 => "avx2",
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Ssse3 => "ssse3",
        Isa::Swar => "swar",
        Isa::Scalar => "scalar",
    }
}

/// `dst[i] ^= coeff · src[i]` over GF(2^8), fastest available kernel.
///
/// Callers are expected to have peeled the `coeff == 0` (no-op) and
/// `coeff == 1` (plain XOR) cases; this function is still correct for them.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc_slice(coeff: u8, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "mul_acc_slice requires equal lengths");
    match isa() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `isa()` returned Avx512/Avx2/Ssse3 only after
        // `is_x86_feature_detected!` confirmed the feature at runtime.
        Isa::Avx512 => unsafe { x86::mul_acc_avx512(coeff, dst, src) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { x86::mul_acc_avx2(coeff, dst, src) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Ssse3 => unsafe { x86::mul_acc_ssse3(coeff, dst, src) },
        Isa::Swar => swar::mul_acc_slice(coeff, dst, src),
        Isa::Scalar => scalar::mul_acc_slice(coeff, dst, src),
    }
}

/// `data[i] = coeff · data[i]` over GF(2^8), fastest available kernel.
pub fn mul_slice(coeff: u8, data: &mut [u8]) {
    match isa() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: as in `mul_acc_slice`.
        Isa::Avx512 => unsafe { x86::mul_avx512(coeff, data) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { x86::mul_avx2(coeff, data) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Ssse3 => unsafe { x86::mul_ssse3(coeff, data) },
        Isa::Swar => swar::mul_slice(coeff, data),
        Isa::Scalar => scalar::mul_slice(coeff, data),
    }
}

/// Scalar reference kernels: one 256-entry table row, one byte at a time.
///
/// These define the semantics the vectorized tiers are tested against.
pub mod scalar {
    /// Reference `dst[i] ^= coeff · src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul_acc_slice(coeff: u8, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "mul_acc_slice requires equal lengths");
        let row = crate::gf8::mul_row(coeff);
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d ^= row[s as usize];
        }
    }

    /// Reference `data[i] = coeff · data[i]`.
    pub fn mul_slice(coeff: u8, data: &mut [u8]) {
        let row = crate::gf8::mul_row(coeff);
        for d in data.iter_mut() {
            *d = row[*d as usize];
        }
    }
}

/// Portable SWAR kernels: eight byte lanes per `u64` step.
pub mod swar {
    use super::POLY_LOW;

    const LANE_HI: u64 = 0x8080_8080_8080_8080;
    const LANE_LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

    /// Multiply all eight byte lanes of `word` by `coeff` via the carry-less
    /// Russian-peasant ladder: for each set bit of `coeff`, accumulate the
    /// running lane-wise multiple of x.
    #[inline]
    pub(super) fn mul_word(mut word: u64, coeff: u8) -> u64 {
        let mut acc = 0u64;
        let mut bits = coeff;
        loop {
            if bits & 1 != 0 {
                acc ^= word;
            }
            bits >>= 1;
            if bits == 0 {
                return acc;
            }
            // Lane-wise xtime: shift each byte left and reduce lanes whose
            // high bit was set by the field polynomial's low byte.  The
            // multiply broadcasts 0x1d into exactly the lanes with a carry
            // (each carry bit is 0 or 1 at the lane's lowest bit position, so
            // products cannot spill into neighbouring lanes).
            let carries = (word & LANE_HI) >> 7;
            word = ((word & LANE_LOW7) << 1) ^ carries.wrapping_mul(POLY_LOW);
        }
    }

    /// SWAR `dst[i] ^= coeff · src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul_acc_slice(coeff: u8, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "mul_acc_slice requires equal lengths");
        let mut d_words = dst.chunks_exact_mut(8);
        let mut s_words = src.chunks_exact(8);
        for (d, s) in (&mut d_words).zip(&mut s_words) {
            let sv = u64::from_ne_bytes(s.try_into().expect("chunk is 8 bytes"));
            let dv = u64::from_ne_bytes((&*d).try_into().expect("chunk is 8 bytes"));
            d.copy_from_slice(&(dv ^ mul_word(sv, coeff)).to_ne_bytes());
        }
        let row = crate::gf8::mul_row(coeff);
        for (d, &s) in d_words.into_remainder().iter_mut().zip(s_words.remainder()) {
            *d ^= row[s as usize];
        }
    }

    /// SWAR `data[i] = coeff · data[i]`.
    pub fn mul_slice(coeff: u8, data: &mut [u8]) {
        let mut words = data.chunks_exact_mut(8);
        for d in &mut words {
            let dv = u64::from_ne_bytes((&*d).try_into().expect("chunk is 8 bytes"));
            d.copy_from_slice(&mul_word(dv, coeff).to_ne_bytes());
        }
        let row = crate::gf8::mul_row(coeff);
        for d in words.into_remainder().iter_mut() {
            *d = row[*d as usize];
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    //! `pshufb` kernels.  Each function is compiled for its target feature
    //! and must only be called after runtime detection confirms it.
    use super::nibble_tables;

    #[cfg(target_arch = "x86")]
    use core::arch::x86 as arch;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64 as arch;

    use arch::{
        __m128i, __m256i, __m512i, _mm256_and_si256, _mm256_broadcastsi128_si256,
        _mm256_loadu_si256, _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_xor_si256, _mm512_and_si512, _mm512_broadcast_i32x4,
        _mm512_loadu_si512, _mm512_set1_epi8, _mm512_shuffle_epi8, _mm512_srli_epi64,
        _mm512_storeu_si512, _mm512_xor_si512, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8,
        _mm_shuffle_epi8, _mm_srli_epi64, _mm_storeu_si128, _mm_xor_si128,
    };

    /// One AVX-512 step: 64 products via two nibble shuffles.
    ///
    /// # Safety
    ///
    /// Caller must be inside an `avx512bw` target-feature region.
    #[inline(always)]
    unsafe fn product64(src: __m512i, lo: __m512i, hi: __m512i, mask: __m512i) -> __m512i {
        // SAFETY: caller is inside an avx512bw target_feature region.
        unsafe {
            let lo_nib = _mm512_and_si512(src, mask);
            let hi_nib = _mm512_and_si512(_mm512_srli_epi64(src, 4), mask);
            _mm512_xor_si512(
                _mm512_shuffle_epi8(lo, lo_nib),
                _mm512_shuffle_epi8(hi, hi_nib),
            )
        }
    }

    /// # Safety
    ///
    /// Requires AVX-512BW (checked by the dispatcher at runtime).
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn mul_acc_avx512(coeff: u8, dst: &mut [u8], src: &[u8]) {
        let t = nibble_tables();
        // SAFETY: the table rows are 16 bytes, matching the unaligned loads;
        // chunk pointers come from `chunks_exact`, so every 64-byte access is
        // in bounds.  AVX-512BW implies AVX2 for the tail kernel.
        unsafe {
            let lo = _mm512_broadcast_i32x4(_mm_loadu_si128(
                t.lo[coeff as usize].as_ptr() as *const __m128i
            ));
            let hi = _mm512_broadcast_i32x4(_mm_loadu_si128(
                t.hi[coeff as usize].as_ptr() as *const __m128i
            ));
            let mask = _mm512_set1_epi8(0x0f);
            let mut d_chunks = dst.chunks_exact_mut(64);
            let mut s_chunks = src.chunks_exact(64);
            for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
                let sv = _mm512_loadu_si512(s.as_ptr() as *const __m512i);
                let dv = _mm512_loadu_si512(d.as_ptr() as *const __m512i);
                let out = _mm512_xor_si512(dv, product64(sv, lo, hi, mask));
                _mm512_storeu_si512(d.as_mut_ptr() as *mut __m512i, out);
            }
            mul_acc_avx2(coeff, d_chunks.into_remainder(), s_chunks.remainder());
        }
    }

    /// # Safety
    ///
    /// Requires AVX-512BW (checked by the dispatcher at runtime).
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn mul_avx512(coeff: u8, data: &mut [u8]) {
        let t = nibble_tables();
        // SAFETY: as in `mul_acc_avx512`.
        unsafe {
            let lo = _mm512_broadcast_i32x4(_mm_loadu_si128(
                t.lo[coeff as usize].as_ptr() as *const __m128i
            ));
            let hi = _mm512_broadcast_i32x4(_mm_loadu_si128(
                t.hi[coeff as usize].as_ptr() as *const __m128i
            ));
            let mask = _mm512_set1_epi8(0x0f);
            let mut chunks = data.chunks_exact_mut(64);
            for d in &mut chunks {
                let dv = _mm512_loadu_si512(d.as_ptr() as *const __m512i);
                let out = product64(dv, lo, hi, mask);
                _mm512_storeu_si512(d.as_mut_ptr() as *mut __m512i, out);
            }
            mul_avx2(coeff, chunks.into_remainder());
        }
    }

    /// One AVX2 step: 32 products via two nibble shuffles.
    ///
    /// # Safety
    ///
    /// Caller must be inside an `avx2` target-feature region.
    #[inline(always)]
    unsafe fn product32(src: __m256i, lo: __m256i, hi: __m256i, mask: __m256i) -> __m256i {
        // SAFETY: caller is inside an avx2 target_feature region.
        unsafe {
            let lo_nib = _mm256_and_si256(src, mask);
            let hi_nib = _mm256_and_si256(_mm256_srli_epi64(src, 4), mask);
            _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, lo_nib),
                _mm256_shuffle_epi8(hi, hi_nib),
            )
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (checked by the dispatcher at runtime).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_acc_avx2(coeff: u8, dst: &mut [u8], src: &[u8]) {
        let t = nibble_tables();
        // SAFETY: the table rows are 16 bytes, matching the unaligned loads;
        // chunk pointers come from `chunks_exact`, so every 32-byte access is
        // in bounds.
        unsafe {
            let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                t.lo[coeff as usize].as_ptr() as *const __m128i
            ));
            let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                t.hi[coeff as usize].as_ptr() as *const __m128i
            ));
            let mask = _mm256_set1_epi8(0x0f);
            let mut d_chunks = dst.chunks_exact_mut(32);
            let mut s_chunks = src.chunks_exact(32);
            for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
                let sv = _mm256_loadu_si256(s.as_ptr() as *const __m256i);
                let dv = _mm256_loadu_si256(d.as_ptr() as *const __m256i);
                let out = _mm256_xor_si256(dv, product32(sv, lo, hi, mask));
                _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, out);
            }
            super::swar::mul_acc_slice(coeff, d_chunks.into_remainder(), s_chunks.remainder());
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (checked by the dispatcher at runtime).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_avx2(coeff: u8, data: &mut [u8]) {
        let t = nibble_tables();
        // SAFETY: as in `mul_acc_avx2`.
        unsafe {
            let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                t.lo[coeff as usize].as_ptr() as *const __m128i
            ));
            let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                t.hi[coeff as usize].as_ptr() as *const __m128i
            ));
            let mask = _mm256_set1_epi8(0x0f);
            let mut chunks = data.chunks_exact_mut(32);
            for d in &mut chunks {
                let dv = _mm256_loadu_si256(d.as_ptr() as *const __m256i);
                let out = product32(dv, lo, hi, mask);
                _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, out);
            }
            super::swar::mul_slice(coeff, chunks.into_remainder());
        }
    }

    /// # Safety
    ///
    /// Requires SSSE3 (checked by the dispatcher at runtime).
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_acc_ssse3(coeff: u8, dst: &mut [u8], src: &[u8]) {
        let t = nibble_tables();
        // SAFETY: as in `mul_acc_avx2`, with 16-byte accesses.
        unsafe {
            let lo = _mm_loadu_si128(t.lo[coeff as usize].as_ptr() as *const __m128i);
            let hi = _mm_loadu_si128(t.hi[coeff as usize].as_ptr() as *const __m128i);
            let mask = _mm_set1_epi8(0x0f);
            let mut d_chunks = dst.chunks_exact_mut(16);
            let mut s_chunks = src.chunks_exact(16);
            for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
                let sv = _mm_loadu_si128(s.as_ptr() as *const __m128i);
                let dv = _mm_loadu_si128(d.as_ptr() as *const __m128i);
                let lo_nib = _mm_and_si128(sv, mask);
                let hi_nib = _mm_and_si128(_mm_srli_epi64(sv, 4), mask);
                let prod =
                    _mm_xor_si128(_mm_shuffle_epi8(lo, lo_nib), _mm_shuffle_epi8(hi, hi_nib));
                _mm_storeu_si128(d.as_mut_ptr() as *mut __m128i, _mm_xor_si128(dv, prod));
            }
            super::swar::mul_acc_slice(coeff, d_chunks.into_remainder(), s_chunks.remainder());
        }
    }

    /// # Safety
    ///
    /// Requires SSSE3 (checked by the dispatcher at runtime).
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_ssse3(coeff: u8, data: &mut [u8]) {
        let t = nibble_tables();
        // SAFETY: as in `mul_acc_ssse3`.
        unsafe {
            let lo = _mm_loadu_si128(t.lo[coeff as usize].as_ptr() as *const __m128i);
            let hi = _mm_loadu_si128(t.hi[coeff as usize].as_ptr() as *const __m128i);
            let mask = _mm_set1_epi8(0x0f);
            let mut chunks = data.chunks_exact_mut(16);
            for d in &mut chunks {
                let dv = _mm_loadu_si128(d.as_ptr() as *const __m128i);
                let lo_nib = _mm_and_si128(dv, mask);
                let hi_nib = _mm_and_si128(_mm_srli_epi64(dv, 4), mask);
                let prod =
                    _mm_xor_si128(_mm_shuffle_epi8(lo, lo_nib), _mm_shuffle_epi8(hi, hi_nib));
                _mm_storeu_si128(d.as_mut_ptr() as *mut __m128i, prod);
            }
            super::swar::mul_slice(coeff, chunks.into_remainder());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random payload so every length has non-trivial,
    /// reproducible content.
    fn payload(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt) ^ (i >> 8) as u8)
            .collect()
    }

    fn check_all_kernels(coeff: u8, len: usize) {
        let src = payload(len, coeff);
        let dst0 = payload(len, coeff.wrapping_add(91));

        let mut expect_acc = dst0.clone();
        scalar::mul_acc_slice(coeff, &mut expect_acc, &src);
        let mut expect_mul = src.clone();
        scalar::mul_slice(coeff, &mut expect_mul);

        let mut got = dst0.clone();
        swar::mul_acc_slice(coeff, &mut got, &src);
        assert_eq!(got, expect_acc, "swar mul_acc coeff {coeff:#04x} len {len}");

        let mut got = dst0.clone();
        mul_acc_slice(coeff, &mut got, &src);
        assert_eq!(
            got,
            expect_acc,
            "{} mul_acc coeff {coeff:#04x} len {len}",
            active_kernel()
        );

        let mut got = src.clone();
        swar::mul_slice(coeff, &mut got);
        assert_eq!(got, expect_mul, "swar mul coeff {coeff:#04x} len {len}");

        let mut got = src.clone();
        mul_slice(coeff, &mut got);
        assert_eq!(
            got,
            expect_mul,
            "{} mul coeff {coeff:#04x} len {len}",
            active_kernel()
        );
    }

    #[test]
    fn all_lengths_zero_to_300_match_scalar() {
        // Every length in the satellite-task range, against a spread of
        // coefficients including both field "edges" and a rolling value; hits
        // every unaligned head/tail combination of the 32/16/8-byte kernels.
        // Under the Miri interpreter the exhaustive sweep is intractable, so
        // subsample lengths (the full sweep still runs natively and in CI).
        let step = if cfg!(miri) { 37 } else { 1 };
        for len in (0..=300usize).step_by(step) {
            for coeff in [0u8, 1, 2, 3, 0x1d, 0x80, 0xff, (len as u8).wrapping_mul(7)] {
                check_all_kernels(coeff, len);
            }
        }
    }

    #[test]
    fn all_coefficients_match_scalar_at_vector_boundaries() {
        // Every coefficient, at lengths straddling the SIMD chunk sizes.
        // Subsampled under Miri as above.
        let step = if cfg!(miri) { 17 } else { 1 };
        for coeff in (0..=255u8).step_by(step as usize) {
            for len in [7usize, 8, 15, 16, 17, 31, 32, 33, 64, 100, 1024] {
                check_all_kernels(coeff, len);
            }
        }
    }

    #[test]
    fn swar_word_agrees_with_field_multiplication() {
        use crate::GF256;
        for coeff in [0u8, 1, 2, 0x53, 0x8e, 0xff] {
            let word = u64::from_ne_bytes([0x00, 0x01, 0x1d, 0x80, 0xca, 0x53, 0xfe, 0xff]);
            let product = swar::mul_word(word, coeff);
            for (lane, &byte) in word.to_ne_bytes().iter().enumerate() {
                let expect = (GF256(coeff) * GF256(byte)).0;
                assert_eq!(
                    product.to_ne_bytes()[lane],
                    expect,
                    "coeff {coeff:#04x} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn dispatcher_reports_a_known_kernel() {
        assert!(["avx512", "avx2", "ssse3", "swar", "scalar"].contains(&active_kernel()));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "probes host CPU features; the miri job forces the portable tiers"
    )]
    fn force_tier_values_resolve_or_error() {
        // The portable tiers are always accepted…
        assert_eq!(forced_isa("scalar"), Ok(Isa::Scalar));
        assert_eq!(forced_isa("swar"), Ok(Isa::Swar));
        // …unknown names never are (including near-misses: the matrix must
        // fail loudly on a typo, not silently run the default tier)…
        for bogus in ["", "SWAR", "Scalar", "sse2", "gfni", "avx1024"] {
            let err = forced_isa(bogus).expect_err(bogus);
            assert!(err.contains("DF_GF_FORCE_TIER"), "unhelpful error: {err}");
        }
        // …and the SIMD tiers resolve iff this machine has them.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        for (name, isa, supported) in [
            (
                "ssse3",
                Isa::Ssse3,
                std::arch::is_x86_feature_detected!("ssse3"),
            ),
            (
                "avx2",
                Isa::Avx2,
                std::arch::is_x86_feature_detected!("avx2"),
            ),
            (
                "avx512",
                Isa::Avx512,
                std::arch::is_x86_feature_detected!("avx512bw"),
            ),
        ] {
            match forced_isa(name) {
                Ok(got) => {
                    assert!(supported, "{name} accepted on a CPU without it");
                    assert_eq!(got, isa);
                }
                Err(err) => {
                    assert!(!supported, "{name} rejected on a CPU with it: {err}");
                    assert!(err.contains("support"), "unhelpful error: {err}");
                }
            }
        }
    }

    #[test]
    fn forced_tier_kernels_match_scalar() {
        // When CI pins a tier via the env var, the whole dispatch test suite
        // runs through it; this spot-check additionally exercises the
        // *forced-isa* code path in-process for the portable tiers.
        for name in ["scalar", "swar"] {
            let isa = forced_isa(name).unwrap();
            let src = payload(300, 7);
            let mut expect = payload(300, 91);
            let mut got = expect.clone();
            scalar::mul_acc_slice(0xa7, &mut expect, &src);
            match isa {
                Isa::Swar => swar::mul_acc_slice(0xa7, &mut got, &src),
                _ => scalar::mul_acc_slice(0xa7, &mut got, &src),
            }
            assert_eq!(got, expect, "forced tier {name}");
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn length_mismatch_panics() {
        let mut dst = vec![0u8; 4];
        mul_acc_slice(3, &mut dst, &[0u8; 5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_simd_and_swar_match_scalar(
            coeff: u8,
            data in proptest::collection::vec(any::<u8>(), 0..300),
            acc in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let len = data.len().min(acc.len());
            let (src, dst0) = (&data[..len], &acc[..len]);

            let mut expect = dst0.to_vec();
            scalar::mul_acc_slice(coeff, &mut expect, src);

            let mut got_swar = dst0.to_vec();
            swar::mul_acc_slice(coeff, &mut got_swar, src);
            prop_assert_eq!(&got_swar, &expect);

            let mut got_simd = dst0.to_vec();
            mul_acc_slice(coeff, &mut got_simd, src);
            prop_assert_eq!(&got_simd, &expect);

            let mut expect_mul = src.to_vec();
            scalar::mul_slice(coeff, &mut expect_mul);
            let mut got_mul = src.to_vec();
            mul_slice(coeff, &mut got_mul);
            prop_assert_eq!(&got_mul, &expect_mul);
        }
    }
}

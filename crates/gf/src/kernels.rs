//! Vectorized slice kernels: GF(2^8) multiply-accumulate, one source at a
//! time or a whole coefficient matrix at once, and many-source XOR.
//!
//! This module holds the GF(2^8) tiers and the XOR kernel every payload XOR
//! of the workspace goes through; the GF(2^16) tiers, which extend the same
//! nibble-table trick to four nibble positions, live in [`gf16`].  All of
//! them share the runtime ISA detection below, so one binary dispatches each
//! kernel to the best tier the machine supports.
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
//! # Bit matrices (GFNI)
//!
//! The same linearity makes multiplication by `c` an 8×8 matrix over GF(2):
//! bit `j` of `x` contributes `c · 2^j`.  `vgf2p8affineqb` applies such a
//! matrix to every byte of a vector in one instruction, with no nibble
//! split; its own multiply (`vgf2p8mulb`) is fixed to the AES polynomial
//! 0x11B, so the kernel goes through the affine form with one precomputed
//! matrix per coefficient of 0x11D.  A Reed–Solomon row is a whole matrix
//! of such products, `dsts[i] ^= Σ_j coeffs[i][j] · srcs[j]`, and
//! [`mul_acc_matrix`] takes it in one call: the GFNI kernel keeps eight
//! destinations in registers and loads each 64-byte block of each source
//! once per group of eight.
//!
//! # Many-source XOR
//!
//! A Tornado check packet, an LT symbol and every value a peeling decoder
//! computes is the XOR of several whole packets (the paper's §5: one XOR
//! per graph edge).  [`xor_sum`] (`dst = ⊕ srcs`) and [`xor_acc`]
//! (`dst ^= ⊕ srcs`) take all the source rows of one such value at once and
//! write each destination byte once per call: the destination is loaded
//! (or zeroed) into registers a block at a time, every source is folded
//! into them, and the block is stored.  [`crate::field::xor_slice`] is the
//! one-source case.
//!
//! # Kernel tiers and feature detection
//!
//! Five tiers, each with one multiply, verified against each other by
//! exhaustive and property tests:
//!
//! 1. **GFNI** (AVX-512BW + GFNI) — `vgf2p8affineqb` over 64-byte blocks,
//!    the whole coefficient matrix in one pass per eight destinations; the
//!    last partial block through byte-masked loads and stores.  A single
//!    multiply is the same pass over one destination and one source.  XOR
//!    and GF(2^16) run the AVX-512 kernels.
//! 2. **AVX-512BW** — 64-byte `pshufb` multiply steps; XOR in 256-byte
//!    blocks of four `zmm` accumulators.
//! 3. **AVX2** — 32-byte `pshufb` multiply steps; XOR in 128-byte blocks of
//!    four `ymm` accumulators.
//! 4. **SSSE3** — 16-byte `pshufb` multiply steps; XOR through the portable
//!    word loop, which the baseline x86-64 target compiles to SSE2.
//!
//!    These four are selected **at runtime** via `is_x86_feature_detected!`,
//!    memoized in a `OnceLock`, so one binary runs optimally on any machine;
//!    `unsafe` is confined to this module and each `target_feature` function
//!    is only reachable after its feature check.  Each `pshufb` multiply
//!    kernel hands its sub-vector tail to the next narrower tier, and the
//!    narrowest to the scalar row.
//! 5. **Scalar reference** ([`scalar`]) — the original 256-entry-row loop,
//!    retained as the semantic definition the other tiers must match, as
//!    the no-SIMD dispatch target and as the SIMD tiers' tail.  XOR uses the
//!    word loop.
//!
//! On every tier but GFNI, [`mul_acc_matrix`] is a loop of that tier's
//! [`mul_acc_slice`] over the nonzero coefficients.  Dispatch happens
//! **once per slice (or matrix) call**, not per byte.

// `unsafe` is needed for the `core::arch` intrinsics only; the crate root
// denies unsafe code everywhere else.
#![allow(unsafe_code)]

pub mod gf16;

use crate::ledger::{self, Op};
use std::sync::OnceLock;

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
    /// AVX-512BW + GFNI: `vgf2p8affineqb` bit-matrix multiplies.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Gfni,
    /// AVX-512BW: 64-byte `pshufb` steps.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx512,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Ssse3,
    Scalar,
}

/// Environment override for the kernel tier: set `DF_GF_FORCE_TIER` to
/// `scalar`, `ssse3`, `avx2`, `avx512` or `gfni` to pin dispatch to that
/// tier for the whole process (the GF(2^8) and GF(2^16) kernels and the XOR
/// kernel — they share this dispatcher; `scalar` and `ssse3` both XOR
/// through the portable word loop, `gfni` runs the AVX-512 XOR and
/// GF(2^16) kernels).  CI runs the codec test suites under `scalar` and
/// `avx2` so they go through tiers that detection would not pick on its
/// runners.  An empty value is not "unset": it is an unknown tier.  An
/// unknown or locally unsupported value panics at the first kernel call: a
/// forced tier that silently fell back would defeat the matrix's purpose.
pub const FORCE_TIER_ENV: &str = "DF_GF_FORCE_TIER";

/// Resolve a [`FORCE_TIER_ENV`] value, validating it against this machine.
fn forced_isa(name: &str) -> Result<Isa, String> {
    match name {
        "scalar" => Ok(Isa::Scalar),
        "ssse3" | "avx2" | "avx512" | "gfni" => {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            {
                let (isa, supported) = match name {
                    "ssse3" => (Isa::Ssse3, std::arch::is_x86_feature_detected!("ssse3")),
                    "avx2" => (Isa::Avx2, std::arch::is_x86_feature_detected!("avx2")),
                    "avx512" => (Isa::Avx512, std::arch::is_x86_feature_detected!("avx512bw")),
                    _ => (Isa::Gfni, has_gfni()),
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
             (expected scalar, ssse3, avx2, avx512 or gfni)"
        )),
    }
}

/// The GFNI tier's features: the affine instruction on 512-bit vectors and
/// the byte-masked loads and stores of its tail.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn has_gfni() -> bool {
    std::arch::is_x86_feature_detected!("avx512bw") && std::arch::is_x86_feature_detected!("gfni")
}

fn detect_isa() -> Isa {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if has_gfni() {
            return Isa::Gfni;
        }
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

/// Name of the kernel tier dispatch selected on this machine: `"gfni"`,
/// `"avx512"`, `"avx2"`, `"ssse3"` or `"scalar"`, by detection or as
/// [`FORCE_TIER_ENV`] pins it.  Surfaced in benchmark output so recorded numbers identify the
/// code path that produced them.
pub fn active_kernel() -> &'static str {
    match isa() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Gfni => "gfni",
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx512 => "avx512",
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 => "avx2",
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Ssse3 => "ssse3",
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
    ledger::count(Op::Mul8, 1, dst.len());
    mul_acc_tier(isa(), coeff, dst, src);
}

/// The multiply-accumulate kernel of tier `isa`: `dst[i] ^= coeff · src[i]`.
fn mul_acc_tier(isa: Isa, coeff: u8, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "mul_acc_slice requires equal lengths");
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `isa()` returned Gfni/Avx512/Avx2/Ssse3 only after
        // `is_x86_feature_detected!` confirmed the feature at runtime (the
        // tests pass a tier only after the same check); the lengths are
        // equal, as asserted above.
        Isa::Gfni => unsafe { x86::mul_acc_gfni(coeff, dst, src) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx512 => unsafe { x86::mul_acc_avx512(coeff, dst, src) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { x86::mul_acc_avx2(coeff, dst, src) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Ssse3 => unsafe { x86::mul_acc_ssse3(coeff, dst, src) },
        Isa::Scalar => scalar::mul_acc_slice(coeff, dst, src),
    }
}

/// `dsts[i] ^= Σ_j coeffs[i · srcs.len() + j] · srcs[j]` over GF(2^8):
/// every destination accumulates its row of the row-major coefficient
/// matrix applied to the sources, fastest available kernel.
///
/// This is a whole Reed–Solomon encode or decode step in one call.  On the
/// GFNI tier each 64-byte block of each source is loaded once per group of
/// eight destinations; on every other tier it is that tier's
/// [`mul_acc_slice`] once per nonzero coefficient (a coefficient of 1 is a
/// plain XOR).
///
/// # Panics
///
/// Panics unless `coeffs.len() == dsts.len() * srcs.len()` and every slice
/// has the same length.
pub fn mul_acc_matrix(coeffs: &[u8], dsts: &mut [&mut [u8]], srcs: &[&[u8]]) {
    ledger::count(Op::Mul8, coeffs.len(), srcs.first().map_or(0, |s| s.len()));
    mul_acc_matrix_tier(isa(), coeffs, dsts, srcs);
}

/// The matrix multiply-accumulate of tier `isa`.
fn mul_acc_matrix_tier(isa: Isa, coeffs: &[u8], dsts: &mut [&mut [u8]], srcs: &[&[u8]]) {
    assert_eq!(
        coeffs.len(),
        dsts.len() * srcs.len(),
        "mul_acc_matrix needs one coefficient per (destination, source) pair"
    );
    // With no sources there is nothing to add, whatever the destinations.
    let Some(len) = srcs.first().map(|s| s.len()) else {
        return;
    };
    assert!(
        dsts.iter().all(|d| d.len() == len) && srcs.iter().all(|s| s.len() == len),
        "mul_acc_matrix requires equal lengths"
    );
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `isa()` returned Gfni only after `has_gfni()` confirmed
        // AVX-512BW and GFNI at runtime (the tests pass the tier only after
        // the same check), and every slice is `len` bytes long, as asserted
        // above.
        Isa::Gfni => unsafe { x86::mul_acc_matrix_gfni(coeffs, dsts, srcs) },
        _ => {
            for (row, dst) in coeffs.chunks_exact(srcs.len()).zip(dsts.iter_mut()) {
                for (&coeff, src) in row.iter().zip(srcs) {
                    match coeff {
                        0 => {}
                        1 => xor_tier(isa, dst, &[src], true),
                        _ => mul_acc_tier(isa, coeff, dst, src),
                    }
                }
            }
        }
    }
}

/// Multiplication by each coefficient as an 8×8 bit matrix over GF(2), in
/// `vgf2p8affineqb`'s operand layout: byte `7 − i` of the word is the row
/// for output bit `i`, whose bit `j` is bit `i` of `c · 2^j`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn affine_matrices() -> &'static [u64; 256] {
    static MATRICES: OnceLock<[u64; 256]> = OnceLock::new();
    MATRICES.get_or_init(|| {
        std::array::from_fn(|c| {
            let row = crate::gf8::mul_row(c as u8);
            (0..8).fold(0u64, |word, i| {
                let bits = (0..8).fold(0u8, |b, j| b | ((row[1 << j] >> i) & 1) << j);
                word | u64::from(bits) << (8 * (7 - i))
            })
        })
    })
}

/// `dst = srcs[0] ⊕ srcs[1] ⊕ …`, fastest available kernel; no sources
/// zero `dst`.  Each byte of `dst` is written once, whatever the number of
/// sources.
///
/// # Panics
///
/// Panics if any source's length differs from `dst`'s.
pub fn xor_sum(dst: &mut [u8], srcs: &[&[u8]]) {
    ledger::count(Op::Xor, srcs.len().saturating_sub(1), dst.len());
    xor_tier(isa(), dst, srcs, false);
}

/// `dst ^= srcs[0] ⊕ srcs[1] ⊕ …`, fastest available kernel.  Each byte of
/// `dst` is read and written once, whatever the number of sources.
///
/// # Panics
///
/// Panics if any source's length differs from `dst`'s.
pub fn xor_acc(dst: &mut [u8], srcs: &[&[u8]]) {
    ledger::count(Op::Xor, srcs.len(), dst.len());
    xor_tier(isa(), dst, srcs, true);
}

/// The XOR kernel of tier `isa`: `dst = (keep ? dst : 0) ⊕ srcs…`.
fn xor_tier(isa: Isa, dst: &mut [u8], srcs: &[&[u8]], keep: bool) {
    assert!(
        srcs.iter().all(|s| s.len() == dst.len()),
        "xor kernels require equal-length slices"
    );
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `isa()` returned Gfni/Avx512/Avx2 only after
        // `is_x86_feature_detected!` confirmed AVX-512BW or AVX2 at runtime
        // (the tests pass a tier only after the same check), and every
        // source is `dst.len()` bytes long, as asserted above.
        Isa::Gfni | Isa::Avx512 => unsafe { x86::xor_avx512(dst, srcs, keep) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: as for Avx512.
        Isa::Avx2 => unsafe { x86::xor_avx2(dst, srcs, 0, keep) },
        _ => words::xor_from(dst, srcs, 0, keep),
    }
}

/// The portable XOR tier: eight `u64` words per block, then words, then
/// bytes.  The baseline x86-64 target compiles the block loop to SSE2.
mod words {
    const BLOCK: usize = 64;

    fn word(bytes: &[u8], at: usize) -> u64 {
        u64::from_ne_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
    }

    /// `dst[start..] = (keep ? dst : 0)[start..] ⊕ srcs[start..]…`; every
    /// source is `dst.len()` bytes long.
    pub(super) fn xor_from(dst: &mut [u8], srcs: &[&[u8]], start: usize, keep: bool) {
        let len = dst.len();
        let mut at = start;
        while at + BLOCK <= len {
            let mut acc = [0u64; BLOCK / 8];
            if keep {
                for (j, a) in acc.iter_mut().enumerate() {
                    *a = word(dst, at + 8 * j);
                }
            }
            for src in srcs {
                for (j, a) in acc.iter_mut().enumerate() {
                    *a ^= word(src, at + 8 * j);
                }
            }
            for (j, a) in acc.iter().enumerate() {
                dst[at + 8 * j..at + 8 * j + 8].copy_from_slice(&a.to_ne_bytes());
            }
            at += BLOCK;
        }
        while at + 8 <= len {
            let mut acc = if keep { word(dst, at) } else { 0 };
            for src in srcs {
                acc ^= word(src, at);
            }
            dst[at..at + 8].copy_from_slice(&acc.to_ne_bytes());
            at += 8;
        }
        for i in at..len {
            let mut acc = if keep { dst[i] } else { 0 };
            for src in srcs {
                acc ^= src[i];
            }
            dst[i] = acc;
        }
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
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    //! `pshufb` and GFNI kernels.  Each function is compiled for its target
    //! feature and must only be called after runtime detection confirms it.
    use super::{affine_matrices, nibble_tables};

    #[cfg(target_arch = "x86")]
    use core::arch::x86 as arch;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64 as arch;

    use arch::{
        __m128i, __m256i, __m512i, _mm256_and_si256, _mm256_broadcastsi128_si256,
        _mm256_loadu_si256, _mm256_set1_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
        _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256, _mm512_and_si512,
        _mm512_broadcast_i32x4, _mm512_gf2p8affine_epi64_epi8, _mm512_loadu_si512,
        _mm512_mask_storeu_epi8, _mm512_maskz_loadu_epi8, _mm512_set1_epi64, _mm512_set1_epi8,
        _mm512_setzero_si512, _mm512_shuffle_epi8, _mm512_srli_epi64, _mm512_storeu_si512,
        _mm512_xor_si512, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_shuffle_epi8,
        _mm_srli_epi64, _mm_storeu_si128, _mm_xor_si128,
    };

    /// AVX-512 XOR: 256-byte blocks of four accumulators, then 64-byte
    /// steps; the last < 64 bytes go to [`xor_avx2`].
    ///
    /// # Safety
    ///
    /// Requires AVX-512F (checked by the dispatcher at runtime), and every
    /// source must be `dst.len()` bytes long.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn xor_avx512(dst: &mut [u8], srcs: &[&[u8]], keep: bool) {
        let len = dst.len();
        let d = dst.as_mut_ptr();
        let mut at = 0;
        // SAFETY: every access is at `at + i·64` with `at + 256 <= len` (or
        // `at + 64 <= len`) bytes, inside `dst` and inside every source,
        // which are `len` bytes long by the caller's contract; unaligned
        // loads and stores have no alignment requirement.  `dst` is a
        // `&mut` borrow, so no source overlaps it.
        unsafe {
            // Four named accumulators, not an array: they must stay in
            // registers across the source loop.
            while at + 256 <= len {
                let at_d = |i: usize| d.add(at + 64 * i) as *const __m512i;
                let (mut a0, mut a1, mut a2, mut a3) = if keep {
                    let load = |i| _mm512_loadu_si512(at_d(i));
                    (load(0), load(1), load(2), load(3))
                } else {
                    let zero = _mm512_setzero_si512();
                    (zero, zero, zero, zero)
                };
                for src in srcs {
                    let s = src.as_ptr().add(at) as *const __m512i;
                    a0 = _mm512_xor_si512(a0, _mm512_loadu_si512(s));
                    a1 = _mm512_xor_si512(a1, _mm512_loadu_si512(s.add(1)));
                    a2 = _mm512_xor_si512(a2, _mm512_loadu_si512(s.add(2)));
                    a3 = _mm512_xor_si512(a3, _mm512_loadu_si512(s.add(3)));
                }
                let out = d.add(at) as *mut __m512i;
                _mm512_storeu_si512(out, a0);
                _mm512_storeu_si512(out.add(1), a1);
                _mm512_storeu_si512(out.add(2), a2);
                _mm512_storeu_si512(out.add(3), a3);
                at += 256;
            }
            while at + 64 <= len {
                let mut acc = if keep {
                    _mm512_loadu_si512(d.add(at) as *const __m512i)
                } else {
                    _mm512_setzero_si512()
                };
                for src in srcs {
                    acc = _mm512_xor_si512(
                        acc,
                        _mm512_loadu_si512(src.as_ptr().add(at) as *const __m512i),
                    );
                }
                _mm512_storeu_si512(d.add(at) as *mut __m512i, acc);
                at += 64;
            }
            if at < len {
                // AVX-512F implies AVX2.
                xor_avx2(dst, srcs, at, keep);
            }
        }
    }

    /// AVX2 XOR of `dst[start..]`: 128-byte blocks of four accumulators,
    /// then 32-byte steps; the last < 32 bytes go to the portable loop.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (checked by the dispatcher at runtime), and every
    /// source must be `dst.len()` bytes long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_avx2(dst: &mut [u8], srcs: &[&[u8]], start: usize, keep: bool) {
        let len = dst.len();
        let d = dst.as_mut_ptr();
        let mut at = start;
        // SAFETY: as in `xor_avx512`, with 32-byte accesses below
        // `at + 128 <= len` (or `at + 32 <= len`).
        unsafe {
            while at + 128 <= len {
                let at_d = |i: usize| d.add(at + 32 * i) as *const __m256i;
                let (mut a0, mut a1, mut a2, mut a3) = if keep {
                    let load = |i| _mm256_loadu_si256(at_d(i));
                    (load(0), load(1), load(2), load(3))
                } else {
                    let zero = _mm256_setzero_si256();
                    (zero, zero, zero, zero)
                };
                for src in srcs {
                    let s = src.as_ptr().add(at) as *const __m256i;
                    a0 = _mm256_xor_si256(a0, _mm256_loadu_si256(s));
                    a1 = _mm256_xor_si256(a1, _mm256_loadu_si256(s.add(1)));
                    a2 = _mm256_xor_si256(a2, _mm256_loadu_si256(s.add(2)));
                    a3 = _mm256_xor_si256(a3, _mm256_loadu_si256(s.add(3)));
                }
                let out = d.add(at) as *mut __m256i;
                _mm256_storeu_si256(out, a0);
                _mm256_storeu_si256(out.add(1), a1);
                _mm256_storeu_si256(out.add(2), a2);
                _mm256_storeu_si256(out.add(3), a3);
                at += 128;
            }
            while at + 32 <= len {
                let mut acc = if keep {
                    _mm256_loadu_si256(d.add(at) as *const __m256i)
                } else {
                    _mm256_setzero_si256()
                };
                for src in srcs {
                    acc = _mm256_xor_si256(
                        acc,
                        _mm256_loadu_si256(src.as_ptr().add(at) as *const __m256i),
                    );
                }
                _mm256_storeu_si256(d.add(at) as *mut __m256i, acc);
                at += 32;
            }
        }
        if at < len {
            super::words::xor_from(dst, srcs, at, keep);
        }
    }

    /// Destinations the GFNI kernel keeps in registers per pass over the
    /// sources.
    const GFNI_OUTPUTS: usize = 8;

    /// Sources whose matrices the GFNI kernel stages per pass: for eight
    /// destinations they fill a 2 KiB stack buffer.
    const GFNI_SOURCES: usize = 32;

    /// GFNI matrix multiply-accumulate: destinations in groups of
    /// [`GFNI_OUTPUTS`], sources in batches of [`GFNI_SOURCES`], each
    /// (group, batch) one pass of [`gfni_pass`] over the bytes.
    ///
    /// # Safety
    ///
    /// Requires AVX-512BW and GFNI (checked by the dispatcher at runtime);
    /// `coeffs` must hold `dsts.len() * srcs.len()` entries and every slice
    /// must be as long as `srcs[0]`.
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    pub(super) unsafe fn mul_acc_matrix_gfni(
        coeffs: &[u8],
        dsts: &mut [&mut [u8]],
        srcs: &[&[u8]],
    ) {
        let matrices = affine_matrices();
        let k = srcs.len();
        let mut staged = [0u64; GFNI_OUTPUTS * GFNI_SOURCES];
        for (g, group) in dsts.chunks_mut(GFNI_OUTPUTS).enumerate() {
            let rows = &coeffs[g * GFNI_OUTPUTS * k..][..group.len() * k];
            for first in (0..k).step_by(GFNI_SOURCES) {
                let batch = &srcs[first..k.min(first + GFNI_SOURCES)];
                // Source-major, so one source's matrices are adjacent.
                let outputs = group.len();
                for (r, row) in rows.chunks_exact(k).enumerate() {
                    for (j, &coeff) in row[first..first + batch.len()].iter().enumerate() {
                        staged[j * outputs + r] = matrices[usize::from(coeff)];
                    }
                }
                let staged = &staged[..batch.len() * outputs];
                // SAFETY: this function's features and slice lengths are
                // `gfni_pass`'s requirements; `staged` holds one matrix
                // per (source, destination) of the pass.
                unsafe {
                    match outputs {
                        1 => gfni_pass::<1>(staged, group, batch),
                        2 => gfni_pass::<2>(staged, group, batch),
                        3 => gfni_pass::<3>(staged, group, batch),
                        4 => gfni_pass::<4>(staged, group, batch),
                        5 => gfni_pass::<5>(staged, group, batch),
                        6 => gfni_pass::<6>(staged, group, batch),
                        7 => gfni_pass::<7>(staged, group, batch),
                        _ => gfni_pass::<8>(staged, group, batch),
                    }
                }
            }
        }
    }

    /// The GFNI tier's `dst[i] ^= coeff · src[i]`: the matrix kernel's pass
    /// over one destination and one source, with no staging.
    ///
    /// # Safety
    ///
    /// Requires AVX-512BW and GFNI (checked by the dispatcher at runtime),
    /// and `dst` and `src` must be equally long.
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    pub(super) unsafe fn mul_acc_gfni(coeff: u8, dst: &mut [u8], src: &[u8]) {
        let matrix = [affine_matrices()[usize::from(coeff)]];
        // SAFETY: this function's features and equal lengths are
        // `gfni_pass`'s requirements, with one matrix for its one pair.
        unsafe { gfni_pass::<1>(&matrix, &mut [dst], &[src]) }
    }

    /// `dsts[r] ^= Σ_j M[j·R + r] · srcs[j]` for `R` destinations: a
    /// 64-byte block of every destination stays in a register while each
    /// source's block is loaded once and multiplied by `R` broadcast
    /// matrices; the last, partial block goes through byte-masked loads and
    /// stores.
    ///
    /// # Safety
    ///
    /// Requires AVX-512BW and GFNI, and every slice must be as long as
    /// `dsts[0]`.  `dsts` holds `R` slices (asserted) and `matrices`
    /// `R * srcs.len()` words (a shorter `matrices` leaves sources out).
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    unsafe fn gfni_pass<const R: usize>(matrices: &[u64], dsts: &mut [&mut [u8]], srcs: &[&[u8]]) {
        // Every pointer below must come from a destination.
        assert_eq!(dsts.len(), R, "one destination per register");
        let len = dsts[0].len();
        let mut d = [core::ptr::null_mut::<u8>(); R];
        for (p, dst) in d.iter_mut().zip(dsts.iter_mut()) {
            *p = dst.as_mut_ptr();
        }
        // One 64-byte block of every destination, from `at`: the bytes
        // `mask` selects (all of them but in the last, partial block, where
        // the compiler keeps the masked loads and stores).
        let block = |at: usize, mask: u64| {
            // SAFETY: every access starts at `at < len` inside a slice of
            // `len` bytes and covers only the bytes `mask` selects, which
            // end at or before `len`; masked-off bytes are neither read nor
            // written, and each of the `R` pointers is a destination's.
            // `dsts` are `&mut` borrows, so no source overlaps them.
            unsafe {
                let mut acc = [_mm512_setzero_si512(); R];
                for r in 0..R {
                    acc[r] = _mm512_maskz_loadu_epi8(mask, d[r].add(at) as *const i8);
                }
                for (src, row) in srcs.iter().zip(matrices.chunks_exact(R)) {
                    let s = _mm512_maskz_loadu_epi8(mask, src.as_ptr().add(at) as *const i8);
                    for r in 0..R {
                        let m = _mm512_set1_epi64(row[r] as i64);
                        acc[r] = _mm512_xor_si512(acc[r], _mm512_gf2p8affine_epi64_epi8::<0>(s, m));
                    }
                }
                for r in 0..R {
                    _mm512_mask_storeu_epi8(d[r].add(at) as *mut i8, mask, acc[r]);
                }
            }
        };
        let mut at = 0;
        while at + 64 <= len {
            block(at, u64::MAX);
            at += 64;
        }
        if at < len {
            block(at, (1u64 << (len - at)) - 1);
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
                let lo_nib = _mm512_and_si512(sv, mask);
                let hi_nib = _mm512_and_si512(_mm512_srli_epi64(sv, 4), mask);
                let prod = _mm512_xor_si512(
                    _mm512_shuffle_epi8(lo, lo_nib),
                    _mm512_shuffle_epi8(hi, hi_nib),
                );
                _mm512_storeu_si512(d.as_mut_ptr() as *mut __m512i, _mm512_xor_si512(dv, prod));
            }
            mul_acc_avx2(coeff, d_chunks.into_remainder(), s_chunks.remainder());
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
                let lo_nib = _mm256_and_si256(sv, mask);
                let hi_nib = _mm256_and_si256(_mm256_srli_epi64(sv, 4), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo, lo_nib),
                    _mm256_shuffle_epi8(hi, hi_nib),
                );
                _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, _mm256_xor_si256(dv, prod));
            }
            super::scalar::mul_acc_slice(coeff, d_chunks.into_remainder(), s_chunks.remainder());
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
            super::scalar::mul_acc_slice(coeff, d_chunks.into_remainder(), s_chunks.remainder());
        }
    }
}

/// Every tier this machine can run: the portable one everywhere, the SIMD
/// ones where detected (never under Miri, which cannot execute `core::arch`
/// intrinsics).  Both fields' kernel tests run each of them in-process,
/// whichever one dispatch picked.
#[cfg(test)]
fn tiers() -> Vec<Isa> {
    #[allow(unused_mut)]
    let mut tiers = vec![Isa::Scalar];
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if !cfg!(miri) {
        for (isa, detected) in [
            (Isa::Ssse3, std::arch::is_x86_feature_detected!("ssse3")),
            (Isa::Avx2, std::arch::is_x86_feature_detected!("avx2")),
            (Isa::Avx512, std::arch::is_x86_feature_detected!("avx512bw")),
            (Isa::Gfni, has_gfni()),
        ] {
            if detected {
                tiers.push(isa);
            }
        }
    }
    tiers
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

    /// Every tier this machine runs, and the dispatcher, against the scalar
    /// reference.
    fn check_all_kernels(coeff: u8, len: usize) {
        let src = payload(len, coeff);
        let dst0 = payload(len, coeff.wrapping_add(91));

        let mut expect = dst0.clone();
        scalar::mul_acc_slice(coeff, &mut expect, &src);

        for tier in tiers() {
            let mut got = dst0.clone();
            mul_acc_tier(tier, coeff, &mut got, &src);
            assert_eq!(got, expect, "{tier:?} coeff {coeff:#04x} len {len}");
        }

        let mut got = dst0.clone();
        mul_acc_slice(coeff, &mut got, &src);
        assert_eq!(
            got,
            expect,
            "{} dispatched coeff {coeff:#04x} len {len}",
            active_kernel()
        );
    }

    #[test]
    fn all_lengths_zero_to_300_match_scalar() {
        // Every length in the satellite-task range, against a spread of
        // coefficients including both field "edges" and a rolling value; hits
        // every unaligned head/tail combination of the 64/32/16-byte kernels.
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
    fn dispatcher_reports_a_known_kernel() {
        assert!(["gfni", "avx512", "avx2", "ssse3", "scalar"].contains(&active_kernel()));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "probes host CPU features; the miri job forces the portable tier"
    )]
    fn force_tier_values_resolve_or_error() {
        // The portable tier is always accepted…
        assert_eq!(forced_isa("scalar"), Ok(Isa::Scalar));
        // …unknown names never are (including near-misses, and tiers that
        // no longer exist: the matrix must fail loudly on a typo or a stale
        // row, not silently run the default tier)…
        for bogus in ["", "swar", "Scalar", "sse2", "GFNI", "avx1024"] {
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
            ("gfni", Isa::Gfni, has_gfni()),
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
        // *forced-isa* code path in-process for the portable tier.
        let isa = forced_isa("scalar").unwrap();
        let src = payload(300, 7);
        let mut expect = payload(300, 91);
        let mut got = expect.clone();
        scalar::mul_acc_slice(0xa7, &mut expect, &src);
        mul_acc_tier(isa, 0xa7, &mut got, &src);
        assert_eq!(got, expect, "forced tier scalar");
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn length_mismatch_panics() {
        let mut dst = vec![0u8; 4];
        mul_acc_slice(3, &mut dst, &[0u8; 5]);
    }

    /// The per-pair scalar definition every matrix kernel must match.
    fn matrix_reference(coeffs: &[u8], dsts: &mut [Vec<u8>], srcs: &[&[u8]]) {
        for (i, dst) in dsts.iter_mut().enumerate() {
            for (j, src) in srcs.iter().enumerate() {
                scalar::mul_acc_slice(coeffs[i * srcs.len() + j], dst, src);
            }
        }
    }

    /// `m` destinations and `k` sources of `len` bytes, each at its own
    /// offset into a larger buffer, under `coeffs`: every tier and the
    /// dispatcher against the per-pair scalar reference.
    fn check_matrix(coeffs: &[u8], m: usize, k: usize, len: usize) {
        let bufs: Vec<Vec<u8>> = (0..k)
            .map(|j| payload(len + 8, (j as u8).wrapping_mul(13) ^ len as u8))
            .collect();
        let srcs: Vec<&[u8]> = bufs
            .iter()
            .enumerate()
            .map(|(j, b)| &b[j % 8..][..len])
            .collect();
        let dsts0: Vec<Vec<u8>> = (0..m)
            .map(|i| payload(len, 0x77 ^ (i as u8).wrapping_mul(29)))
            .collect();
        let mut expect = dsts0.clone();
        matrix_reference(coeffs, &mut expect, &srcs);
        let run = |tier: Option<Isa>| {
            // Destinations at unaligned offsets too.
            let mut bufs: Vec<Vec<u8>> = dsts0
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let mut b = vec![0u8; i % 8];
                    b.extend_from_slice(d);
                    b
                })
                .collect();
            let mut dsts: Vec<&mut [u8]> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| &mut b[i % 8..])
                .collect();
            match tier {
                Some(isa) => mul_acc_matrix_tier(isa, coeffs, &mut dsts, &srcs),
                None => mul_acc_matrix(coeffs, &mut dsts, &srcs),
            }
            dsts.iter().map(|d| d.to_vec()).collect::<Vec<_>>()
        };
        for tier in tiers() {
            assert_eq!(run(Some(tier)), expect, "{tier:?} m {m} k {k} len {len}");
        }
        assert_eq!(run(None), expect, "dispatched m {m} k {k} len {len}");
    }

    /// A deterministic coefficient matrix in which 0 and 1 recur.
    fn matrix_coeffs(m: usize, k: usize) -> Vec<u8> {
        (0..m * k)
            .map(|e| match (e * 7 + e / k) % 11 {
                0 => 0,
                1 => 1,
                _ => (e as u8).wrapping_mul(53).wrapping_add(2),
            })
            .collect()
    }

    #[test]
    fn matrix_tiers_match_the_per_pair_reference() {
        // Destination counts on both sides of the GFNI kernel's group of
        // eight, source counts across its batches of 32, and lengths
        // on both sides of its 64-byte block; subsampled under Miri.
        let (ms, lens): (Vec<usize>, &[usize]) = if cfg!(miri) {
            (vec![1, 5], &[0, 65])
        } else {
            (
                (1..=9).collect(),
                &[0, 1, 63, 64, 65, 128, 255, 256, 1024, 1036],
            )
        };
        for &m in &ms {
            for k in [1usize, 2, 127, 128, 130] {
                let coeffs = matrix_coeffs(m, k);
                for &len in lens {
                    check_matrix(&coeffs, m, k, len);
                }
            }
        }
        // All-zero and all-one matrices.
        for fill in [0u8, 1] {
            check_matrix(&[fill; 5 * 3], 5, 3, 200);
        }
    }

    #[test]
    fn matrix_with_no_sources_or_destinations_is_a_no_op() {
        let mut dst = payload(100, 3);
        let before = dst.clone();
        mul_acc_matrix(&[], &mut [&mut dst], &[]);
        assert_eq!(dst, before);
        mul_acc_matrix(&[], &mut [], &[&before]);
    }

    #[test]
    #[should_panic(expected = "one coefficient per")]
    fn matrix_shape_mismatch_panics() {
        let mut dst = vec![0u8; 8];
        mul_acc_matrix(&[1, 2], &mut [&mut dst], &[&[0u8; 8]]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn matrix_length_mismatch_panics() {
        let mut dst = vec![0u8; 8];
        mul_acc_matrix(&[1, 2], &mut [&mut dst], &[&[0u8; 8], &[0u8; 9]]);
    }

    #[test]
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    fn affine_matrices_are_the_product_table() {
        // `vgf2p8affineqb`'s definition: bit `i` of the result is the parity
        // of byte `7 − i` of the matrix ANDed with the source byte.  Every
        // coefficient's matrix against every byte, without the instruction
        // (the tiers run it on every coefficient above); subsampled under
        // Miri.
        let affine = |m: u64, x: u8| {
            (0..8).fold(0u8, |y, i| {
                let row = (m >> (8 * (7 - i))) as u8;
                y | (((row & x).count_ones() & 1) as u8) << i
            })
        };
        let step = if cfg!(miri) { 17 } else { 1 };
        for coeff in (0..=255u8).step_by(step) {
            let product = crate::gf8::mul_row(coeff);
            for x in 0..=255u8 {
                let m = affine_matrices()[usize::from(coeff)];
                assert_eq!(
                    affine(m, x),
                    product[usize::from(x)],
                    "{coeff:#04x}·{x:#04x}"
                );
            }
        }
    }

    /// The byte-at-a-time definition every XOR tier must match.
    fn xor_reference(dst: &[u8], srcs: &[&[u8]], keep: bool) -> Vec<u8> {
        (0..dst.len())
            .map(|i| {
                let start = if keep { dst[i] } else { 0 };
                srcs.iter().fold(start, |acc, s| acc ^ s[i])
            })
            .collect()
    }

    /// `count` sources and a destination of `len` bytes, each starting at
    /// its own offset `0..8` into a larger buffer so no tier sees aligned
    /// rows only, checked on every tier in both forms and, for one source,
    /// through `xor_slice`.
    fn check_xor(len: usize, count: usize) {
        let bufs: Vec<Vec<u8>> = (0..count)
            .map(|i| payload(len + 8, i as u8 ^ 0x5a))
            .collect();
        let srcs: Vec<&[u8]> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| &b[(i * 3 + len) % 8..][..len])
            .collect();
        let mut dst_buf = payload(len + 8, 0xc3);
        let offset = (len * 5 + count) % 8;
        let dst0 = dst_buf[offset..offset + len].to_vec();
        for keep in [false, true] {
            let expect = xor_reference(&dst0, &srcs, keep);
            for tier in tiers() {
                let dst = &mut dst_buf[offset..offset + len];
                dst.copy_from_slice(&dst0);
                xor_tier(tier, dst, &srcs, keep);
                assert_eq!(
                    dst,
                    &expect[..],
                    "{tier:?} keep {keep} len {len} sources {count}"
                );
            }
            let mut got = dst0.clone();
            if keep {
                xor_acc(&mut got, &srcs);
            } else {
                xor_sum(&mut got, &srcs);
            }
            assert_eq!(
                got, expect,
                "dispatched keep {keep} len {len} sources {count}"
            );
        }
        if count == 1 {
            let mut got = dst0.clone();
            crate::field::xor_slice(&mut got, srcs[0]);
            assert_eq!(
                got,
                xor_reference(&dst0, &srcs, true),
                "xor_slice len {len}"
            );
        }
    }

    #[test]
    fn xor_tiers_match_the_reference_at_every_length_and_source_count() {
        // Every length 0–300 (every head/tail split of the 256-, 128-, 64-,
        // 32- and 8-byte steps) plus three packet sizes, at 1–40 sources.
        // Subsampled under Miri, as the multiply sweeps are.
        let (len_step, count_step) = if cfg!(miri) { (23, 13) } else { (1, 1) };
        let lengths = (0..=300usize).step_by(len_step).chain([1024, 1036, 4099]);
        for len in lengths {
            for count in (1..=40usize).step_by(count_step) {
                check_xor(len, count);
            }
        }
    }

    #[test]
    fn xor_with_no_sources_zeroes_or_keeps() {
        let mut dst = payload(300, 9);
        let before = dst.clone();
        xor_acc(&mut dst, &[]);
        assert_eq!(dst, before);
        xor_sum(&mut dst, &[]);
        assert!(dst.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor_length_mismatch_panics() {
        let mut dst = vec![0u8; 64];
        let (a, b) = (vec![0u8; 64], vec![0u8; 65]);
        xor_sum(&mut dst, &[&a, &b]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_tiers_match_scalar(
            coeff: u8,
            data in proptest::collection::vec(any::<u8>(), 0..300),
            acc in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let len = data.len().min(acc.len());
            let (src, dst0) = (&data[..len], &acc[..len]);

            let mut expect = dst0.to_vec();
            scalar::mul_acc_slice(coeff, &mut expect, src);

            for tier in tiers() {
                let mut got = dst0.to_vec();
                mul_acc_tier(tier, coeff, &mut got, src);
                prop_assert_eq!(&got, &expect);
            }

            let mut got = dst0.to_vec();
            mul_acc_slice(coeff, &mut got, src);
            prop_assert_eq!(&got, &expect);
        }

        #[test]
        fn prop_matrix_tiers_match_the_per_pair_reference(
            m in 1usize..10,
            k in 1usize..20,
            len in 0usize..300,
            entries in proptest::collection::vec(any::<u8>(), 9 * 19..9 * 19 + 1),
            zeros: u8,
        ) {
            // Entries below `zeros % 64` become 0 or 1, so sparse and
            // XOR-only rows turn up.
            let coeffs: Vec<u8> = entries[..m * k]
                .iter()
                .map(|&c| if c < zeros % 64 { c & 1 } else { c })
                .collect();
            check_matrix(&coeffs, m, k, len);
        }

        #[test]
        fn prop_xor_tiers_match_the_reference(
            len in 0usize..600,
            count in 1usize..12,
            salt: u8,
            offset in 0usize..8,
            keep: bool,
        ) {
            let bufs: Vec<Vec<u8>> =
                (0..count).map(|i| payload(len + 8, salt.wrapping_add(i as u8))).collect();
            let srcs: Vec<&[u8]> =
                bufs.iter().map(|b| &b[(offset + b.len()) % 8..][..len]).collect();
            let dst0 = payload(len, salt ^ 0xa5);
            let expect = xor_reference(&dst0, &srcs, keep);
            for tier in tiers() {
                let mut got = dst0.clone();
                xor_tier(tier, &mut got, &srcs, keep);
                prop_assert_eq!(&got, &expect);
            }
        }
    }
}

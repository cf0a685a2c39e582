//! GF(2^16) — used when a single Reed–Solomon block spans more than 255
//! packets (e.g. the non-interleaved Vandermonde baseline encoding a whole
//! multi-megabyte file, Tables 2 and 3 of the paper).
//!
//! Elements are `u16`.  The full multiplication table would be 8 GiB, so
//! scalar multiplication goes through 64 K-entry log/exp tables.  The *slice*
//! operations — the erasure-code hot loop — are delegated to
//! [`crate::kernels::gf16`], which dispatches at runtime between 4-nibble
//! `pshufb` SIMD tiers (AVX-512 / AVX2 / SSSE3), the split-byte product-table
//! fallback, and a direct log/exp loop for short slices and SIMD tails.  See
//! that module's documentation for the tier details; all tiers are verified
//! bit-identical against the element-wise log/exp definition here.

// In characteristic 2, addition and subtraction genuinely are XOR.
#![allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]

use crate::field::Field;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

/// Primitive polynomial x^16 + x^12 + x^3 + x + 1.  Shared with the slice
/// kernels in [`crate::kernels::gf16`], which rebuild per-coefficient tables
/// from it.
pub(crate) const PRIM_POLY: u32 = 0x1100b;

pub(crate) struct Tables {
    /// `exp[i] = g^i`, doubled (131070 entries) to avoid a modulo in mul.
    pub(crate) exp: Vec<u16>,
    /// `log[x]`; `log[0]` unused.
    pub(crate) log: Vec<u32>,
}

pub(crate) fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = vec![0u16; 2 * 65535 + 2];
        let mut log = vec![0u32; 65536];
        let mut x: u32 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(65535) {
            *e = x as u16;
            log[x as usize] = i as u32;
            x <<= 1;
            if x & 0x10000 != 0 {
                x ^= PRIM_POLY;
            }
        }
        for i in 65535..exp.len() {
            exp[i] = exp[i - 65535];
        }
        Tables { exp, log }
    })
}

/// An element of GF(2^16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct GF65536(pub u16);

impl From<u16> for GF65536 {
    fn from(value: u16) -> Self {
        GF65536(value)
    }
}

impl From<GF65536> for u16 {
    fn from(value: GF65536) -> Self {
        value.0
    }
}

impl Add for GF65536 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        GF65536(self.0 ^ rhs.0)
    }
}

impl AddAssign for GF65536 {
    fn add_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Sub for GF65536 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        GF65536(self.0 ^ rhs.0)
    }
}

impl SubAssign for GF65536 {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Neg for GF65536 {
    type Output = Self;
    fn neg(self) -> Self {
        self
    }
}

impl Mul for GF65536 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return GF65536(0);
        }
        let t = tables();
        let idx = t.log[self.0 as usize] + t.log[rhs.0 as usize];
        GF65536(t.exp[idx as usize])
    }
}

impl MulAssign for GF65536 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for GF65536 {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        assert!(rhs.0 != 0, "division by zero in GF(2^16)");
        if self.0 == 0 {
            return GF65536(0);
        }
        let t = tables();
        let idx = t.log[self.0 as usize] + 65535 - t.log[rhs.0 as usize];
        GF65536(t.exp[idx as usize])
    }
}

impl Field for GF65536 {
    const ZERO: Self = GF65536(0);
    const ONE: Self = GF65536(1);
    const BITS: u32 = 16;
    const ORDER: usize = 65536;

    fn from_usize(value: usize) -> Self {
        // Wrapping here would silently alias field points — a Cauchy code
        // constructed with out-of-range points would lose its MDS property
        // without any error.  Fail loudly instead.
        assert!(
            value < Self::ORDER,
            "GF(2^16) element {value} out of range (order 65536)"
        );
        GF65536(value as u16)
    }

    fn to_usize(self) -> usize {
        self.0 as usize
    }

    fn inverse(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            let t = tables();
            Some(GF65536(t.exp[(65535 - t.log[self.0 as usize]) as usize]))
        }
    }

    fn generator() -> Self {
        GF65536(2)
    }

    fn mul_acc_slice(coeff: Self, dst: &mut [u8], src: &[u8]) {
        crate::kernels::gf16::mul_acc_slice(coeff.0, dst, src);
    }
}

impl std::fmt::Display for GF65536 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn addition_is_xor() {
        assert_eq!(GF65536(0x1234) + GF65536(0x5678), GF65536(0x1234 ^ 0x5678));
    }

    #[test]
    fn generator_powers_do_not_repeat_early() {
        // Checking full order (65535 steps) is cheap enough to do once.
        let g = GF65536::generator();
        let mut x = GF65536::ONE;
        for i in 1..=65535u32 {
            x *= g;
            if x == GF65536::ONE {
                assert_eq!(i, 65535, "generator order must be 65535, repeated at {i}");
            }
        }
        assert_eq!(x, GF65536::ONE);
    }

    #[test]
    fn from_usize_covers_the_full_field() {
        assert_eq!(GF65536::from_usize(0), GF65536::ZERO);
        assert_eq!(GF65536::from_usize(65535), GF65536(65535));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_usize_rejects_out_of_range() {
        let _ = GF65536::from_usize(65536);
    }

    #[test]
    fn inverse_roundtrip_sampled() {
        for v in (1..=65535u32).step_by(251) {
            let x = GF65536(v as u16);
            assert_eq!(x * x.inverse().unwrap(), GF65536::ONE);
        }
        assert_eq!(GF65536::ZERO.inverse(), None);
    }

    #[test]
    #[should_panic(expected = "whole 16-bit elements")]
    fn odd_length_slices_rejected() {
        let mut dst = vec![0u8; 3];
        GF65536::mul_acc_slice(GF65536(2), &mut dst, &[0u8; 3]);
    }

    /// Element-by-element reference for the slice kernels.
    fn reference_mul_acc(coeff: u16, dst: &mut [u8], src: &[u8]) {
        for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
            let sv = GF65536(u16::from_le_bytes([s[0], s[1]]));
            let dv = u16::from_le_bytes([d[0], d[1]]) ^ (GF65536(coeff) * sv).0;
            d.copy_from_slice(&dv.to_le_bytes());
        }
    }

    #[test]
    fn slice_kernels_match_field_mul_for_all_byte_patterns() {
        // Covers every low-byte and high-byte table entry.
        let src: Vec<u8> = (0..=255u16)
            .flat_map(|b| [(b << 8) | b, b, b << 8])
            .flat_map(|v| v.to_le_bytes())
            .collect();
        for coeff in [0u16, 1, 2, 3, 0x100, 0xabc, 0x8000, 0xfffe, 0xffff] {
            let mut dst = vec![0x5au8; src.len()];
            let mut expect = dst.clone();
            reference_mul_acc(coeff, &mut expect, &src);
            GF65536::mul_acc_slice(GF65536(coeff), &mut dst, &src);
            assert_eq!(dst, expect, "coeff {coeff:#06x}");
        }
    }

    #[test]
    fn slice_kernels_agree_across_the_cutoff() {
        // Lengths straddling the kernel module's small-slice cutoff must
        // agree: both the log/exp small-slice path and the dispatched long
        // path are compared to the element-wise reference, accumulating
        // into a filled destination and into a zeroed one.
        for len_elems in [1usize, 8, 31, 32, 33, 64, 100, 512] {
            let src: Vec<u8> = (0..len_elems)
                .flat_map(|i| ((i as u16).wrapping_mul(2654) ^ 0x700d).to_le_bytes())
                .collect();
            for coeff in [2u16, 0x1234, 0xffff] {
                let mut dst: Vec<u8> = (0..src.len()).map(|i| i as u8).collect();
                let mut expect = dst.clone();
                reference_mul_acc(coeff, &mut expect, &src);
                GF65536::mul_acc_slice(GF65536(coeff), &mut dst, &src);
                assert_eq!(dst, expect, "mul_acc coeff {coeff:#06x} len {len_elems}");

                let mut data = vec![0u8; src.len()];
                GF65536::mul_acc_slice(GF65536(coeff), &mut data, &src);
                let mut expect = vec![0u8; src.len()];
                reference_mul_acc(coeff, &mut expect, &src);
                assert_eq!(data, expect, "zeroed coeff {coeff:#06x} len {len_elems}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_field_axioms(a: u16, b: u16, c: u16) {
            let (a, b, c) = (GF65536(a), GF65536(b), GF65536(c));
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a * b) * c, a * (b * c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!(a + a, GF65536::ZERO);
        }

        #[test]
        fn prop_div_mul_roundtrip(a: u16, b in 1u16..=u16::MAX) {
            let q = GF65536(a) / GF65536(b);
            prop_assert_eq!(q * GF65536(b), GF65536(a));
        }

        #[test]
        fn prop_slice_kernels_match_reference(
            coeff: u16,
            elems in proptest::collection::vec(any::<u16>(), 0..200),
        ) {
            let src: Vec<u8> = elems.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut dst = vec![0xa5u8; src.len()];
            let mut expect = dst.clone();
            reference_mul_acc(coeff, &mut expect, &src);
            GF65536::mul_acc_slice(GF65536(coeff), &mut dst, &src);
            prop_assert_eq!(dst, expect);
        }

        #[test]
        fn prop_pow_consistent(a: u16, e in 0u64..32) {
            let x = GF65536(a);
            let mut acc = GF65536::ONE;
            for _ in 0..e { acc *= x; }
            prop_assert_eq!(x.pow(e), acc);
        }
    }
}

//! GF(2^8) — the byte field used by the Cauchy and Vandermonde Reed–Solomon
//! baselines for block sizes up to 255 packets.
//!
//! Elements are single bytes.  Multiplication and division are table-driven:
//! full 64 KiB multiplication tables are precomputed once per process (lazily)
//! from log/exp tables over the primitive polynomial `0x11d`, which is the
//! same polynomial used by Rizzo's `fec` code referenced by the paper.

// In characteristic 2, addition and subtraction genuinely are XOR.
#![allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]

use crate::field::Field;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

/// Primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
const PRIM_POLY: u16 = 0x11d;

/// Precomputed log/exp and full multiplication tables for GF(2^8).
struct Tables {
    /// `exp[i] = g^i` for i in 0..510 (doubled to avoid a modulo in mul).
    exp: [u8; 512],
    /// `log[x]` = discrete log of x base g; `log[0]` is unused (set to 0).
    log: [u16; 256],
    /// Flat 256×256 multiplication table: `mul[a * 256 + b] = a * b`.
    mul: Vec<u8>,
    /// Inverse table: `inv[x] = x^{-1}`, `inv[0]` unused (set to 0).
    inv: [u8; 256],
}

/// Full 256-entry product row for `coeff`: `mul_row(c)[x] = c·x`.
///
/// Shared with the [`crate::kernels`] module, which derives its split-nibble
/// tables from these rows and uses them directly for scalar tails.
#[inline]
pub(crate) fn mul_row(coeff: u8) -> &'static [u8] {
    let base = coeff as usize * 256;
    &tables().mul[base..base + 256]
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIM_POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        let mut mul = vec![0u8; 256 * 256];
        for a in 1usize..256 {
            for b in 1usize..256 {
                mul[a * 256 + b] = exp[(log[a] + log[b]) as usize];
            }
        }
        let mut inv = [0u8; 256];
        for a in 1usize..256 {
            inv[a] = exp[(255 - log[a]) as usize];
        }
        Tables { exp, log, mul, inv }
    })
}

/// An element of GF(2^8).
///
/// Wraps a single byte; all arithmetic is constant-time table lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct GF256(pub u8);

impl From<u8> for GF256 {
    fn from(value: u8) -> Self {
        GF256(value)
    }
}

impl From<GF256> for u8 {
    fn from(value: GF256) -> Self {
        value.0
    }
}

impl Add for GF256 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        GF256(self.0 ^ rhs.0)
    }
}

impl AddAssign for GF256 {
    fn add_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Sub for GF256 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        GF256(self.0 ^ rhs.0)
    }
}

impl SubAssign for GF256 {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Neg for GF256 {
    type Output = Self;
    fn neg(self) -> Self {
        self
    }
}

impl Mul for GF256 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        GF256(tables().mul[self.0 as usize * 256 + rhs.0 as usize])
    }
}

impl MulAssign for GF256 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for GF256 {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        assert!(rhs.0 != 0, "division by zero in GF(2^8)");
        if self.0 == 0 {
            return GF256(0);
        }
        let t = tables();
        let log_a = t.log[self.0 as usize] as usize;
        let log_b = t.log[rhs.0 as usize] as usize;
        GF256(t.exp[log_a + 255 - log_b])
    }
}

impl Field for GF256 {
    const ZERO: Self = GF256(0);
    const ONE: Self = GF256(1);
    const BITS: u32 = 8;
    const ORDER: usize = 256;

    fn from_usize(value: usize) -> Self {
        // Same rationale as GF(2^16): wrapping would silently alias erasure
        // code evaluation points and break the MDS property.
        assert!(
            value < Self::ORDER,
            "GF(2^8) element {value} out of range (order 256)"
        );
        GF256(value as u8)
    }

    fn to_usize(self) -> usize {
        self.0 as usize
    }

    fn inverse(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            Some(GF256(tables().inv[self.0 as usize]))
        }
    }

    fn generator() -> Self {
        GF256(2)
    }

    fn mul_acc_slice(coeff: Self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "mul_acc_slice requires equal lengths");
        if coeff.0 == 0 {
            return;
        }
        if coeff.0 == 1 {
            crate::field::xor_slice(dst, src);
            return;
        }
        crate::kernels::mul_acc_slice(coeff.0, dst, src);
    }

    fn mul_acc_matrix(coeffs: &[Self], dsts: &mut [&mut [u8]], srcs: &[&[u8]]) {
        let bytes: Vec<u8> = coeffs.iter().map(|c| c.0).collect();
        crate::kernels::mul_acc_matrix(&bytes, dsts, srcs);
    }
}

impl std::fmt::Display for GF256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn addition_is_xor() {
        assert_eq!(GF256(0x53) + GF256(0xca), GF256(0x53 ^ 0xca));
        assert_eq!(GF256(0xff) + GF256(0xff), GF256::ZERO);
    }

    #[test]
    fn known_multiplication_values() {
        // Values checked against the standard 0x11d field (AES uses 0x11b so
        // these differ from AES test vectors).
        assert_eq!(GF256(2) * GF256(2), GF256(4));
        assert_eq!(GF256(0x80) * GF256(2), GF256(0x1d));
        assert_eq!(GF256(1) * GF256(0xab), GF256(0xab));
        assert_eq!(GF256(0) * GF256(0xab), GF256(0));
    }

    #[test]
    fn generator_has_full_order() {
        let g = GF256::generator();
        let mut x = GF256::ONE;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..255 {
            x *= g;
            seen.insert(x.0);
        }
        assert_eq!(seen.len(), 255);
        assert_eq!(x, GF256::ONE, "g^255 must be 1");
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert_eq!(GF256::ZERO.inverse(), None);
    }

    #[test]
    fn from_usize_covers_the_full_field() {
        assert_eq!(GF256::from_usize(0), GF256::ZERO);
        assert_eq!(GF256::from_usize(255), GF256(255));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_usize_rejects_out_of_range() {
        let _ = GF256::from_usize(256);
    }

    #[test]
    fn all_nonzero_elements_have_inverses() {
        for v in 1..=255u8 {
            let x = GF256(v);
            let inv = x.inverse().expect("nonzero element must have inverse");
            assert_eq!(x * inv, GF256::ONE, "value {v}");
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let x = GF256(37);
        let mut acc = GF256::ONE;
        for e in 0..20u64 {
            assert_eq!(x.pow(e), acc);
            acc *= x;
        }
    }

    #[test]
    fn pow_zero_of_zero_is_one() {
        assert_eq!(GF256::ZERO.pow(0), GF256::ONE);
        assert_eq!(GF256::ZERO.pow(5), GF256::ZERO);
    }

    #[test]
    fn mul_acc_slice_matches_scalar_path() {
        let src: Vec<u8> = (0..=255u8).collect();
        let mut dst = vec![0x5au8; 256];
        let expect: Vec<u8> = dst
            .iter()
            .zip(src.iter())
            .map(|(&d, &s)| d ^ (GF256(s) * GF256(0x37)).0)
            .collect();
        GF256::mul_acc_slice(GF256(0x37), &mut dst, &src);
        assert_eq!(dst, expect);
    }

    #[test]
    fn mul_acc_slice_zero_coeff_is_noop() {
        let src = vec![0xffu8; 64];
        let mut dst = vec![0x11u8; 64];
        GF256::mul_acc_slice(GF256::ZERO, &mut dst, &src);
        assert!(dst.iter().all(|&b| b == 0x11));
    }

    #[test]
    fn division_roundtrip() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                let q = GF256(a) / GF256(b);
                assert_eq!(q * GF256(b), GF256(a));
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = GF256(5) / GF256(0);
    }

    proptest! {
        #[test]
        fn prop_addition_commutative(a: u8, b: u8) {
            prop_assert_eq!(GF256(a) + GF256(b), GF256(b) + GF256(a));
        }

        #[test]
        fn prop_multiplication_commutative(a: u8, b: u8) {
            prop_assert_eq!(GF256(a) * GF256(b), GF256(b) * GF256(a));
        }

        #[test]
        fn prop_multiplication_associative(a: u8, b: u8, c: u8) {
            prop_assert_eq!(
                (GF256(a) * GF256(b)) * GF256(c),
                GF256(a) * (GF256(b) * GF256(c))
            );
        }

        #[test]
        fn prop_distributive(a: u8, b: u8, c: u8) {
            prop_assert_eq!(
                GF256(a) * (GF256(b) + GF256(c)),
                GF256(a) * GF256(b) + GF256(a) * GF256(c)
            );
        }

        #[test]
        fn prop_additive_inverse(a: u8) {
            prop_assert_eq!(GF256(a) + GF256(a), GF256::ZERO);
        }

        #[test]
        fn prop_multiplicative_inverse(a in 1u8..=255) {
            let x = GF256(a);
            let inv = x.inverse().unwrap();
            prop_assert_eq!(x * inv, GF256::ONE);
        }

        #[test]
        fn prop_mul_acc_slice_linear(coeff: u8, data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let mut dst = vec![0u8; data.len()];
            GF256::mul_acc_slice(GF256(coeff), &mut dst, &data);
            let expect: Vec<u8> = data.iter().map(|&b| (GF256(coeff) * GF256(b)).0).collect();
            prop_assert_eq!(dst, expect);
        }
    }
}

//! The [`Field`] trait abstracting over GF(2^w) implementations.
//!
//! Reed–Solomon code construction (`df-rs`) and the dense matrix algebra in
//! [`crate::matrix`] are generic over this trait, so the same code paths serve
//! both GF(2^8) (fast, blocks of ≤ 255 packets) and GF(2^16) (large blocks).

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A finite field of characteristic 2 whose elements fit in a machine word.
///
/// All fields used in this workspace are binary extension fields GF(2^w), so
/// addition and subtraction are both XOR and every element is its own additive
/// inverse.  The trait nevertheless exposes the full ring-operator surface so
/// that generic linear-algebra code reads naturally.
pub trait Field:
    Copy
    + Clone
    + Debug
    + PartialEq
    + Eq
    + Add<Output = Self>
    + AddAssign
    + Sub<Output = Self>
    + SubAssign
    + Mul<Output = Self>
    + MulAssign
    + Div<Output = Self>
    + Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Number of bits per element (8 for GF(2^8), 16 for GF(2^16)).
    const BITS: u32;
    /// Number of elements in the field, i.e. `2^BITS`.
    const ORDER: usize;

    /// Construct an element from its canonical integer representation.
    ///
    /// # Panics
    ///
    /// Panics if `value >= ORDER`.  Erasure-code constructions map packet
    /// indices to distinct field points through this function; silently
    /// wrapping an out-of-range value would alias points and destroy the MDS
    /// ("any k of n") property, so out-of-range input is a caller bug.
    fn from_usize(value: usize) -> Self;

    /// The canonical integer representation of this element.
    fn to_usize(self) -> usize;

    /// Multiplicative inverse.
    ///
    /// Returns `None` for the zero element.
    fn inverse(self) -> Option<Self>;

    /// Raise the element to an integer power.
    ///
    /// `ZERO.pow(0)` is defined as `ONE`, matching the usual convention for
    /// evaluating Vandermonde matrices.
    fn pow(self, mut exp: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            exp >>= 1;
        }
        acc
    }

    /// A fixed multiplicative generator of the field.
    fn generator() -> Self;

    /// True if this is the zero element.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Multiply-accumulate a byte slice: `dst[i] ^= coeff * src[i]` interpreted
    /// element-wise over the field's byte representation.
    ///
    /// Each output packet of a Reed–Solomon code is a field-linear
    /// combination of input packets; this accumulates one term of it.  Both
    /// fields send it to the vectorized kernels of [`crate::kernels`] because
    /// the naive element-by-element path dominates runtime otherwise.  The
    /// codecs call [`Field::mul_acc_matrix`], which takes all the terms of
    /// all the outputs at once.
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths or if the length is not
    /// a multiple of the element width in bytes.
    fn mul_acc_slice(coeff: Self, dst: &mut [u8], src: &[u8]);

    /// Multiply-accumulate a coefficient matrix:
    /// `dsts[i] ^= Σ_j coeffs[i · srcs.len() + j] · srcs[j]`, row-major
    /// coefficients, one row per destination.
    ///
    /// Every Reed–Solomon encode, decode reduction and solve in this
    /// workspace is one such call.  GF(2^8) sends it to
    /// [`crate::kernels::mul_acc_matrix`], whose GFNI tier multiplies a
    /// group of destinations per pass over the sources; this default, which
    /// GF(2^16) keeps, is one [`Field::mul_acc_slice`] per pair.
    ///
    /// # Panics
    ///
    /// Panics unless `coeffs.len() == dsts.len() * srcs.len()`, or if the
    /// slices break [`Field::mul_acc_slice`]'s length rules.
    fn mul_acc_matrix(coeffs: &[Self], dsts: &mut [&mut [u8]], srcs: &[&[u8]]) {
        assert_eq!(
            coeffs.len(),
            dsts.len() * srcs.len(),
            "mul_acc_matrix needs one coefficient per (destination, source) pair"
        );
        if srcs.is_empty() {
            return;
        }
        for (row, dst) in coeffs.chunks_exact(srcs.len()).zip(dsts.iter_mut()) {
            for (&coeff, src) in row.iter().zip(srcs) {
                Self::mul_acc_slice(coeff, dst, src);
            }
        }
    }
}

/// XOR `src` into `dst`.  The byte-level addition for every GF(2^w): the
/// one-source case of [`crate::kernels::xor_acc`], so it runs at the
/// machine's widest XOR tier (AVX-512 or AVX2 where detected, the portable
/// word loop elsewhere).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    crate::kernels::xor_acc(dst, &[src]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_slice_basic() {
        let mut a = vec![0xffu8, 0x00, 0xaa, 0x55];
        let b = vec![0x0fu8, 0xf0, 0xaa, 0xff];
        xor_slice(&mut a, &b);
        assert_eq!(a, vec![0xf0, 0xf0, 0x00, 0xaa]);
    }

    #[test]
    fn xor_slice_is_involution() {
        let orig: Vec<u8> = (0..97).map(|i| (i * 37 % 251) as u8).collect();
        let mask: Vec<u8> = (0..97).map(|i| (i * 91 % 253) as u8).collect();
        let mut x = orig.clone();
        xor_slice(&mut x, &mask);
        assert_ne!(x, orig);
        xor_slice(&mut x, &mask);
        assert_eq!(x, orig);
    }

    #[test]
    fn xor_slice_handles_unaligned_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
            let mut a = vec![0xabu8; len];
            let b = vec![0xcdu8; len];
            xor_slice(&mut a, &b);
            assert!(a.iter().all(|&v| v == 0xab ^ 0xcd), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor_slice_length_mismatch_panics() {
        let mut a = vec![0u8; 4];
        let b = vec![0u8; 5];
        xor_slice(&mut a, &b);
    }
}

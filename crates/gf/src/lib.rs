//! Galois field arithmetic and dense matrix algebra over GF(2^w).
//!
//! This crate is the numerical substrate underneath the Reed–Solomon erasure
//! codes (`df-rs`) used both as the baseline codes in the paper's evaluation
//! (Vandermonde and Cauchy codes, Tables 2–4) and as the small conventional
//! code protecting the final cascade level of a Tornado code (`df-core`).
//!
//! Two fields are provided:
//!
//! * [`GF256`] — GF(2^8), generated by the primitive polynomial
//!   `x^8 + x^4 + x^3 + x^2 + 1` (0x11d).  Scalar multiplication uses full
//!   256×256 log/exp tables; the slice operations that dominate erasure-code
//!   runtime go through the vectorized kernels in [`kernels`], selected by
//!   runtime feature detection: GFNI bit-matrix multiplies over a whole
//!   coefficient matrix per call ([`kernels::mul_acc_matrix`], which every
//!   Reed–Solomon row goes through), else AVX-512/AVX2/SSSE3 split-nibble
//!   `pshufb`, with the scalar table row for tails and as the fallback.
//!
//! Every payload XOR — GF addition, and the whole of a Tornado, LT or
//! Raptor coder — goes through [`kernels::xor_sum`] / [`kernels::xor_acc`],
//! which fold any number of source rows into a destination at the widest
//! detected vector width; [`field::xor_slice`] is their one-source case.
//! * [`GF65536`] — GF(2^16), generated by `x^16 + x^12 + x^3 + x + 1`
//!   (0x1100b).  Needed when a single Reed–Solomon block must span more than
//!   255 packets (the paper's interleaved baseline keeps blocks small exactly
//!   to avoid this, but the Vandermonde baseline over whole files needs it).
//!   Its slice operations go through the vectorized 4-nibble kernels in
//!   [`kernels::gf16`] (AVX-512/AVX2/SSSE3 `pshufb` with runtime feature
//!   detection, log/exp tails, split-byte product tables as the no-SIMD
//!   fallback).
//!
//! Both implement the [`Field`] trait so matrix code and the Reed–Solomon
//! codecs are generic over the field.
//!
//! # The work ledger
//!
//! The kernels' public entry points count their work in plain per-thread
//! counters, read by [`ledger::snapshot`], in the units of the paper's
//! Table 1.  Per call over rows of `len` bytes: [`kernels::xor_acc`] with
//! `s` sources is `s` row XORs and [`kernels::xor_sum`] `s − 1` (its first
//! source is a copy); [`kernels::mul_acc_slice`] is one GF(2^8) pair and
//! [`kernels::mul_acc_matrix`] one per coefficient, zero and one included;
//! [`kernels::gf16::mul_acc_slice`] is one GF(2^16) pair, zero and one
//! included; and each row XOR or pair is `len` bytes.  A tier's own calls
//! inside an entry point (the XOR a matrix loop takes for a coefficient of
//! 1, a scalar tail) count nothing more, so no count depends on the tier.
//! A Reed–Solomon solve therefore books one field pair per coefficient in
//! either field, and none of them as row XORs.
//!
//! # Example
//!
//! ```
//! use df_gf::{Field, GF256};
//!
//! let a = GF256::from(0x53u8);
//! let b = GF256::from(0xcau8);
//! let c = a * b;
//! assert_eq!(c / b, a);
//! assert_eq!(a + a, GF256::ZERO); // characteristic 2
//! ```

// `deny` rather than `forbid`: the SIMD kernels module opts back in for the
// `core::arch` intrinsics (with per-call-site safety documentation); all other
// modules remain unsafe-free.
#![deny(unsafe_code)]
// Inside the kernels' `unsafe fn`s, every unsafe operation must still be an
// explicit `unsafe { }` block with its own SAFETY comment.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod field;
pub mod gf16;
pub mod gf8;
pub mod kernels;
pub mod ledger;
pub mod matrix;

pub use field::Field;
pub use gf16::GF65536;
pub use gf8::GF256;
pub use matrix::Matrix;

/// Errors produced by matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GfError {
    /// Attempted to invert a singular matrix.
    SingularMatrix,
    /// Matrix dimensions were incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was provided.
        found: String,
    },
}

impl std::fmt::Display for GfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GfError::SingularMatrix => write!(f, "matrix is singular and cannot be inverted"),
            GfError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for GfError {}

/// Convenience result alias for fallible field/matrix operations.
pub type Result<T> = std::result::Result<T, GfError>;

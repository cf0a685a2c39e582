//! Reed–Solomon erasure codes — the baseline codes of the paper's evaluation.
//!
//! The paper compares Tornado codes against two standard Reed–Solomon erasure
//! code implementations (Section 5.2, Tables 2 and 3):
//!
//! * **Vandermonde codes** — Rizzo-style systematic codes built from a
//!   Vandermonde generator matrix brought to systematic form
//!   ([`VandermondeCode`]).
//! * **Cauchy codes** — Blömer et al.'s construction where the redundant rows
//!   form a Cauchy matrix, which is systematic by construction
//!   ([`CauchyCode`]).
//!
//! Both are *maximum distance separable* (MDS): the `k` source packets can be
//! reconstructed from **any** `k` of the `n` encoding packets — zero reception
//! overhead, which is the gold standard a digital fountain aims for.  The
//! price is the `O(k·ℓ)` field multiplications per packet byte at encode time
//! and the `O(k·x)` (x = missing source packets) work plus a matrix inversion
//! at decode time, which is exactly the cost the paper's Tables 2–4 quantify
//! and that Tornado codes avoid.
//!
//! # Example
//!
//! ```
//! use df_rs::{CauchyCode, ErasureCode};
//!
//! // Stretch 4 source packets to 8 encoding packets (stretch factor 2).
//! let code = CauchyCode::new(4, 8).unwrap();
//! let source: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
//! let encoding = code.encode(&source).unwrap();
//!
//! // Lose half the packets — any 4 survivors are enough.
//! let received: Vec<(usize, &[u8])> = [6, 1, 7, 2]
//!     .iter()
//!     .map(|&i| (i, encoding[i].as_slice()))
//!     .collect();
//! let decoded = code.decode_ref(&received).unwrap();
//! assert_eq!(decoded, source);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cauchy;
pub mod code;
pub mod vandermonde;

pub use cauchy::CauchyCode;
pub use code::{ErasureCode, RsError};
pub use vandermonde::VandermondeCode;

//! # df-core — Tornado codes and the digital fountain abstraction
//!
//! This crate implements the primary contribution of Byers, Luby,
//! Mitzenmacher and Rege, *"A Digital Fountain Approach to Reliable
//! Distribution of Bulk Data"* (SIGCOMM 1998):
//!
//! * **Tornado codes** ([`TornadoCode`]) — erasure codes built from a cascade
//!   of sparse random bipartite graphs plus a small conventional code, encoded
//!   and decoded with nothing but XORs.  They trade a small reception overhead
//!   (≈ 5 % for the [`TORNADO_A`] profile, ≈ 3 % for [`TORNADO_B`]) for
//!   encoding/decoding times that are orders of magnitude faster than
//!   Reed–Solomon codes at bulk-data scale (Tables 2 and 3 of the paper).
//! * **The digital fountain / carousel abstraction** ([`Carousel`],
//!   [`ReceptionCounter`]) — the transmission model in which a server cycles
//!   endlessly through the encoding and each receiver listens, at a time of
//!   its choosing and over an arbitrarily lossy channel, until it has
//!   collected enough packets to decode.  [`Carousel`] is the simulations'
//!   sender, a fresh random permutation each cycle (the prototype server
//!   sends its layered schedule's order instead); every receiver in the
//!   workspace counts what it took through a [`ReceptionCounter`], and the
//!   paper's efficiencies are defined once, on its [`Reception`] counts.
//! * **One decoding engine** — the cascade's [`PeelingDecoder`], the
//!   [`LtDecoder`] and the [`RaptorDecoder`] are equation sources over one
//!   streaming sparse GF(2) solver (`solve.rs`): a received packet or symbol
//!   is an equation, a check is a zero-valued one, and the solver's
//!   degree-one release is the paper's substitution decoding (Section 5.1).
//!   Only the cascade's final Reed–Solomon block is solved apart.
//!
//! The companion crates build on these primitives: `df-sim` reproduces the
//! paper's simulation study (interleaved Reed–Solomon baseline, loss models,
//! reception-efficiency experiments), `df-mcast` implements the layered
//! multicast scheduling and congestion control of Section 7.1, and `df-proto`
//! is the prototype bulk-distribution protocol of Section 7.
//!
//! ## Quick start
//!
//! ```
//! use df_core::{AddOutcome, TornadoCode};
//!
//! // A 100 kB "file" cut into 1 kB packets, as in the paper's benchmarks.
//! let data = vec![0xabu8; 100 * 1024];
//! let code = TornadoCode::new_a(data.len().div_ceil(1024), 0x5eed).unwrap();
//! let encoding = code.encode_file(&data, 1024).unwrap();
//!
//! // A receiver that only sees the second half of the encoding still
//! // recovers the file: any sufficiently large subset will do.
//! let mut decoder = code.decoder();
//! for i in code.n() / 2..code.n() {
//!     if decoder.add_packet_ref(i, encoding.row(i)).unwrap() == AddOutcome::Complete {
//!         break;
//!     }
//! }
//! assert_eq!(decoder.take_file(data.len()).unwrap(), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cascade;
pub mod codec;
pub mod decode;
pub mod degree;
pub mod encode;
pub mod error;
pub mod fountain;
pub mod graph;
pub mod overhead;
pub mod profile;
pub mod rateless;
mod solve;
mod store;
pub mod symbol;

pub use cascade::{Cascade, FinalCode};
pub use codec::TornadoCode;
pub use decode::{AddOutcome, PayloadDecoder, PeelingDecoder, SymbolicDecoder};
pub use degree::DegreeDistribution;
pub use encode::Encoding;
pub use error::{Result, TornadoError};
pub use fountain::{Carousel, Reception, ReceptionCounter};
pub use graph::{BipartiteGraph, CheckSide};
pub use overhead::OverheadStats;
pub use profile::{TornadoProfile, TORNADO_A, TORNADO_B};
pub use rateless::{
    DegreeTable, LtDecoder, LtEncoder, LtEquation, RaptorCode, RaptorDecoder, RobustSoliton,
    SolveTrace, INACTIVATION_CAP, LT_DEFAULT_C, LT_DEFAULT_DELTA, PRECODE_DEGREE,
    RAPTOR_DEGREE_TABLE,
};
pub use symbol::{Mark, Symbol};

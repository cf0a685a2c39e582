//! The Raptor construction: a sparse XOR precode under an LT layer.
//!
//! A plain LT code has to *cover* every source symbol, which is what the
//! robust soliton's high-degree spike is for and why its mean degree grows
//! like `ln k`.  Raptor's fix (Shokrollahi 2006) is to stop asking that of
//! the LT layer: first *precode* the `k` source packets into `n = k + m`
//! intermediate packets, then LT-encode over the intermediates with a
//! constant-mean-degree distribution ([`RAPTOR_DEGREE_TABLE`]).  Whatever
//! the LT symbols leave undetermined, the precode's redundancy pins down.
//!
//! The precode here is the simplest one that does that job: `m = ⌈0.05 k⌉`
//! XOR checks over the source, from one seeded left-regular (degree
//! [`PRECODE_DEGREE`]), right-regular [`BipartiteGraph`] — built by the same
//! `graph.rs` the Tornado cascade uses, from the session's `code_seed`, so a
//! receiver rebuilds it from `(k, code_seed)` and it is wire contract (pinned
//! by `golden_precode_graphs_pin_the_wire_contract`).  Intermediate `k + j`
//! is the XOR of check `j`'s neighbours; every symbol on the path is exactly
//! one packet long and nothing but XOR is ever computed.
//!
//! Decoding does not run two decoders back to back.  The receiver knows each
//! check as the equation `check_j ⊕ Σ neighbours = 0`, so [`RaptorDecoder`]
//! is an [`LtDecoder`] over the `n` intermediates whose solver was given
//! those `m` zero-valued equations before the first symbol arrived: one
//! sparse GF(2) system, complete when the `k` source unknowns are determined.

use crate::decode::AddOutcome;
use crate::degree::DegreeDistribution;
use crate::error::{Result, TornadoError};
use crate::graph::{BipartiteGraph, CheckSide};
use crate::rateless::lt::{LtDecoder, LtEncoder};
use crate::rateless::soliton::DegreeTable;
use crate::symbol::{Mark, Symbol};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// How many precode checks each source packet takes part in.
pub const PRECODE_DEGREE: usize = 3;

/// The Raptor LT layer's degree distribution: Shokrollahi's output
/// distribution for ε ≈ 0.038 ("Raptor Codes", IEEE Trans. IT 2006,
/// Table I).
///
/// Unlike the robust soliton, this table has constant mean degree (≈ 5.87)
/// and no spike, so a symbol costs the same few XORs at any `k`: it does
/// not have to cover every intermediate, because the precode's checks
/// reach the ones it misses.
pub const RAPTOR_DEGREE_TABLE: &[(usize, f64)] = &[
    (1, 0.007969),
    (2, 0.493570),
    (3, 0.166220),
    (4, 0.072646),
    (5, 0.082558),
    (8, 0.056058),
    (9, 0.037229),
    (19, 0.055590),
    (65, 0.025023),
    (66, 0.003135),
];

/// Build the [`DegreeTable`] for [`RAPTOR_DEGREE_TABLE`].
///
/// The table constants are static and valid, so this cannot fail at runtime;
/// it still returns `Result` to keep the (single) construction site honest.
fn raptor_degree_table() -> Result<DegreeTable> {
    DegreeTable::new(RAPTOR_DEGREE_TABLE)
}

/// A Raptor code: XOR precode + LT layer over the intermediates.
#[derive(Debug, Clone)]
pub struct RaptorCode {
    /// Source packets on the left, the `m` checks on the right.
    precode: Arc<BipartiteGraph>,
    lt: LtEncoder,
}

impl RaptorCode {
    /// Build the Raptor code over `k` source packets: the precode graph and
    /// the LT layer's equation stream both derive from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::InvalidParameters`] if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Result<Self> {
        if k == 0 {
            return Err(TornadoError::InvalidParameters {
                reason: "a Raptor code needs at least one source packet".to_string(),
            });
        }
        let checks = k.div_ceil(20);
        let precode = BipartiteGraph::random(
            k,
            checks,
            &DegreeDistribution::Regular {
                degree: PRECODE_DEGREE,
            },
            CheckSide::Regular,
            &mut ChaCha8Rng::seed_from_u64(seed),
        );
        let lt = LtEncoder::with_table(k + checks, raptor_degree_table()?, seed)?;
        Ok(RaptorCode {
            precode: Arc::new(precode),
            lt,
        })
    }

    /// Number of source packets `k`.
    pub fn k(&self) -> usize {
        self.precode.left()
    }

    /// Number of intermediate symbols `n = k + ⌈0.05 k⌉` the LT layer
    /// ranges over.
    pub fn intermediate_count(&self) -> usize {
        self.lt.count()
    }

    /// The precode: source packets on the left, one right node per check;
    /// intermediate `k + j` is the XOR of `check_neighbors(j)`.
    pub fn precode_graph(&self) -> &BipartiteGraph {
        &self.precode
    }

    /// The LT layer's encoder (shared seed → equation derivation).
    pub fn lt(&self) -> &LtEncoder {
        &self.lt
    }

    /// Run the precode: the `k` source packets followed by the `m` check
    /// packets.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] if `source` does not hold
    /// exactly `k` packets of one length.
    pub fn precode_symbols(&self, source: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let len = source.first().map_or(0, Vec::len);
        if source.len() != self.k() || source.iter().any(|p| p.len() != len) {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "Raptor precode over {} packets was given {} (or unequal lengths)",
                    self.k(),
                    source.len()
                ),
            });
        }
        let mut symbols = source.to_vec();
        symbols.extend((0..self.precode.right()).map(|j| {
            let mut check = vec![0u8; len];
            for &i in self.precode.check_neighbors(j) {
                check.xor(&source[i as usize]);
            }
            check
        }));
        Ok(symbols)
    }

    /// Encode one LT symbol over precomputed intermediates (from
    /// [`RaptorCode::precode_symbols`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::TornadoError::MalformedInput`] if `intermediates`
    /// does not hold exactly `n` symbols.
    pub fn encode_symbol(&self, seed: u64, intermediates: &[Vec<u8>]) -> Result<Vec<u8>> {
        self.lt.encode_symbol(seed, intermediates)
    }

    /// Streaming payload decoder.
    pub fn decoder(&self) -> RaptorDecoder<Vec<u8>> {
        RaptorDecoder::new(self)
    }

    /// Streaming index-only decoder for overhead simulations.
    pub fn symbolic_decoder(&self) -> RaptorDecoder<Mark> {
        RaptorDecoder::new(self)
    }
}

/// Streaming Raptor decoder: an [`LtDecoder`] over the intermediates that
/// also knows the precode's checks as equations, and wants only the first
/// `k` intermediates — the source — back.
#[derive(Debug, Clone)]
pub struct RaptorDecoder<S: Symbol> {
    lt: LtDecoder<S>,
}

impl<S: Symbol> RaptorDecoder<S> {
    fn new(code: &RaptorCode) -> Self {
        RaptorDecoder {
            lt: LtDecoder::over_precode(code.lt().clone(), code.precode_graph()),
        }
    }

    /// True once every source packet is determined.
    pub fn is_complete(&self) -> bool {
        self.lt.is_complete()
    }

    /// Borrow the recovered source packets, in order, once complete (and
    /// until [released](Self::release)).
    pub fn source_iter(&self) -> Option<impl Iterator<Item = &S> + '_> {
        self.lt.source_iter()
    }

    /// Let go of every value and equation; see [`LtDecoder::release`].
    pub fn release(&mut self) {
        self.lt.release();
    }

    /// The recovered source packets, once complete.
    pub fn source(&self) -> Option<Vec<S>> {
        self.lt.source()
    }

    /// LT symbols accepted, including duplicates.
    pub fn received_total(&self) -> u64 {
        self.lt.received_total()
    }

    /// LT symbols accepted whose seed was new (see
    /// [`LtDecoder::received_distinct`]).
    pub fn received_distinct(&self) -> u64 {
        self.lt.received_distinct()
    }

    /// Intermediates whose value has been computed so far (see
    /// [`LtDecoder::known`]); at completion, the source and every
    /// intermediate it was computed through.
    pub fn lt_known(&self) -> usize {
        self.lt.known()
    }

    /// Intermediates inactivated so far (see
    /// [`LtDecoder::inactive_symbols`]).
    pub fn inactive_symbols(&self) -> usize {
        self.lt.inactive_symbols()
    }

    /// Equations held: the precode's checks and the buffered LT symbols.
    pub fn pending_equations(&self) -> usize {
        self.lt.pending_equations()
    }

    /// References from held equations to intermediates without a value
    /// (the memory bound the protocol layer enforces).
    pub fn pending_edges(&self) -> usize {
        self.lt.pending_edges()
    }
}

/// The decoder underneath, for a caller that handles both rateless modes
/// through one type.
impl<S: Symbol> From<RaptorDecoder<S>> for LtDecoder<S> {
    fn from(decoder: RaptorDecoder<S>) -> Self {
        decoder.lt
    }
}

impl RaptorDecoder<Vec<u8>> {
    /// Accept one `(seed, payload)` symbol.  All payloads must share one
    /// length; the protocol layer validates this before the symbol reaches
    /// the decoder.
    ///
    /// # Errors
    ///
    /// None today: every seed derives a valid equation.  The `Result` is
    /// the signature callers were written against.
    pub fn add_symbol(&mut self, seed: u64, payload: Vec<u8>) -> Result<AddOutcome> {
        Ok(self.lt.add_symbol(seed, payload))
    }
}

impl RaptorDecoder<Mark> {
    /// Accept one symbol by seed only (index-only simulation).
    ///
    /// # Errors
    ///
    /// None today; see [`RaptorDecoder::add_symbol`].
    pub fn add_mark(&mut self, seed: u64) -> Result<AddOutcome> {
        Ok(self.lt.add_symbol(seed, Mark))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn payloads(count: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut p = vec![0u8; len];
                rng.fill_bytes(&mut p);
                p
            })
            .collect()
    }

    #[test]
    fn precode_is_five_percent_of_sparse_xor_checks() {
        for (k, checks) in [(1usize, 1usize), (20, 1), (21, 2), (1000, 50), (4096, 205)] {
            let code = RaptorCode::new(k, 7).unwrap();
            assert_eq!(code.intermediate_count(), k + checks, "k = {k}");
            let graph = code.precode_graph();
            assert_eq!((graph.left(), graph.right()), (k, checks));
            for i in 0..k {
                let degree = graph.left_neighbors(i).len();
                assert!((1..=PRECODE_DEGREE).contains(&degree), "source {i}");
            }
            // Every check has something to say, so no intermediate is the
            // all-zero packet by construction.
            assert!((0..checks).all(|j| !graph.check_neighbors(j).is_empty()));
        }
        assert!(RaptorCode::new(0, 7).is_err());
        // Each check packet is the XOR of its neighbours.
        let code = RaptorCode::new(100, 3).unwrap();
        let src = payloads(100, 16, 3);
        let inter = code.precode_symbols(&src).unwrap();
        assert_eq!(inter[..100], src[..]);
        for (j, check) in inter[100..].iter().enumerate() {
            let mut expect = vec![0u8; 16];
            for &i in code.precode_graph().check_neighbors(j) {
                expect.xor(&src[i as usize]);
            }
            assert_eq!(check, &expect, "check {j}");
        }
        assert!(code.precode_symbols(&src[1..]).is_err());
    }

    /// FNV-1a over every check's neighbour list, each preceded by its length.
    fn precode_digest(k: usize, seed: u64) -> u64 {
        let code = RaptorCode::new(k, seed).unwrap();
        let graph = code.precode_graph();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut absorb = |word: u32| {
            for byte in word.to_le_bytes() {
                digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for j in 0..graph.right() {
            let neighbours = graph.check_neighbors(j);
            absorb(neighbours.len() as u32);
            neighbours.iter().for_each(|&i| absorb(i));
        }
        digest
    }

    #[test]
    fn golden_precode_graphs_pin_the_wire_contract() {
        // A receiver rebuilds the precode from `(k, code_seed)` alone, so
        // these graphs are wire contract exactly as the seed → equation
        // derivation is (`golden_equations_pin_the_wire_contract`): a build
        // that draws them differently must announce a different
        // `RatelessMode` byte.  Pinned when mode byte 3 was introduced.
        for (k, seed, digest) in GOLDEN_PRECODES {
            assert_eq!(
                precode_digest(k, seed),
                digest,
                "precode graph drifted at k = {k}, seed = {seed:#x}"
            );
        }
    }

    const GOLDEN_PRECODES: [(usize, u64, u64); 4] = [
        (64, 0, 0x5249_044d_bd78_21bb),
        (64, 0xD1F0, 0x5c7b_8936_0b2d_4fa6),
        (4096, 0, 0x15a8_8e8c_a7db_15c7),
        (4096, 0xD1F0, 0xed0d_c400_c171_98b4),
    ];

    #[test]
    fn round_trips_payloads() {
        let k = 200;
        let src = payloads(k, 32, 21);
        let code = RaptorCode::new(k, 21).unwrap();
        let inter = code.precode_symbols(&src).unwrap();
        assert_eq!(inter.len(), code.intermediate_count());
        let uniform = inter[0].len();
        assert!(inter.iter().all(|p| p.len() == uniform));

        let mut dec = code.decoder();
        let mut seed = 1000u64;
        while !dec.is_complete() {
            let sym = code.encode_symbol(seed, &inter).unwrap();
            assert_eq!(sym.len(), 32);
            dec.add_symbol(seed, sym).unwrap();
            seed += 1;
            assert!(seed < 1000 + 10 * k as u64, "decode did not converge");
        }
        assert_eq!(dec.source().unwrap(), src);

        // Released, both layers hold nothing and take nothing; what was
        // counted stays counted.
        let received = dec.received_distinct();
        dec.release();
        assert!(dec.is_complete() && dec.source_iter().is_none());
        assert_eq!((dec.pending_equations(), dec.pending_edges()), (0, 0));
        let sym = code.encode_symbol(seed, &inter).unwrap();
        assert_eq!(dec.add_symbol(seed, sym).unwrap(), AddOutcome::Duplicate);
        assert_eq!(dec.received_distinct(), received);
    }

    #[test]
    fn round_trips_odd_payloads_without_padding() {
        // XOR has no alignment to respect: at an odd packet length every
        // intermediate and every symbol is exactly one packet long.
        let k = 400;
        let src = payloads(k, 33, 5);
        let code = RaptorCode::new(k, 5).unwrap();
        let inter = code.precode_symbols(&src).unwrap();
        assert!(inter.iter().all(|p| p.len() == 33));
        let mut dec = code.decoder();
        let mut seed = 0u64;
        while !dec.is_complete() {
            let sym = code.encode_symbol(seed, &inter).unwrap();
            dec.add_symbol(seed, sym).unwrap();
            seed += 1;
            assert!(seed < 10 * k as u64, "decode did not converge");
        }
        assert_eq!(dec.source().unwrap(), src);
    }

    #[test]
    fn symbolic_and_payload_schedules_agree() {
        let k = 150;
        let src = payloads(k, 8, 9);
        let code = RaptorCode::new(k, 9).unwrap();
        let inter = code.precode_symbols(&src).unwrap();
        let mut payload = code.decoder();
        let mut marks = code.symbolic_decoder();
        let mut seed = 0u64;
        while !payload.is_complete() {
            let sym = code.encode_symbol(seed, &inter).unwrap();
            payload.add_symbol(seed, sym).unwrap();
            marks.add_mark(seed).unwrap();
            assert_eq!(payload.is_complete(), marks.is_complete());
            assert_eq!(payload.lt_known(), marks.lt_known());
            seed += 1;
            assert!(seed < 10 * k as u64, "decode did not converge");
        }
        assert_eq!(payload.source().unwrap(), src);
    }

    #[test]
    fn completes_although_an_intermediate_no_equation_covers_stays_unknown() {
        // Drop every symbol whose equation touches the last intermediate (a
        // check), so no received equation covers it.  The joint system still
        // reaches full column rank — the intermediate's own check row pins
        // it once the source is determined — so the decoder completes, with
        // the right bytes, and never computes the value nobody asked for.
        let k = 500;
        let src = payloads(k, 8, 3);
        let code = RaptorCode::new(k, 3).unwrap();
        let inter = code.precode_symbols(&src).unwrap();
        let straggler = code.intermediate_count() - 1;
        let mut dec = code.decoder();
        let mut marks = code.symbolic_decoder();
        let mut seed = 0u64;
        while !dec.is_complete() {
            let eq = code.lt().equation(seed);
            if !eq.neighbors.contains(&(straggler as u32)) {
                let sym = code.encode_symbol(seed, &inter).unwrap();
                assert_eq!(
                    dec.add_symbol(seed, sym).unwrap(),
                    marks.add_mark(seed).unwrap()
                );
            }
            seed += 1;
            assert!(seed < 20 * k as u64, "decode did not converge");
        }
        assert_eq!(dec.source().unwrap(), src);
        assert!(dec.lt.symbol(straggler).is_none());
        assert!(dec.lt_known() < code.intermediate_count());
        assert_eq!(dec.lt_known(), marks.lt_known());
    }
}

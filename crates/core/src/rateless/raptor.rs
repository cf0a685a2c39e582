//! The Raptor construction: a Tornado-cascade precode under an LT layer.
//!
//! A plain LT code pays its worst reception overhead at the *end* of
//! decoding — the last few source symbols are only reachable through the
//! high-degree spike of the robust soliton, and their wait is what pushes
//! k = 1000 decodes past `1.1·k` received symbols.  Raptor's fix (Shokrollahi
//! 2006) is to stop demanding full LT recovery: first *precode* the `k`
//! source packets into `L` intermediate packets with a fixed-rate erasure
//! code, then LT-encode over the `L` intermediates.  The LT layer only has
//! to recover *most* intermediates; the precode's redundancy repairs the
//! stragglers, exactly the regime where LT decoding is cheap.
//!
//! We reuse the existing machinery for both layers:
//!
//! * the precode is a [`Cascade`] built with the [`RAPTOR_PRECODE`] profile —
//!   a low-stretch Tornado construction whose redundancy sits almost
//!   entirely in the final MDS block, so *any* `≈ k` distinct intermediates
//!   finish it (near-zero precode reception overhead);
//! * LT recovery feeds straight into the ordinary [`PeelingDecoder`], whose
//!   completion check *is* the Raptor completion check.
//!
//! The LT layer does not use the robust soliton at all: it samples
//! [`RAPTOR_DEGREE_TABLE`], a fixed constant-mean-degree distribution from
//! the Raptor paper designed for *partial* recovery under peeling.  With the
//! precode absorbing the stragglers there is no need for the soliton's
//! spike — and dropping it is where the overhead win over plain LT comes
//! from.

use crate::cascade::{Cascade, FinalCode, PacketRole};
use crate::codec::TornadoCode;
use crate::decode::{AddOutcome, PeelingDecoder};
use crate::error::Result;
use crate::profile::{TornadoProfile, RAPTOR_PRECODE};
use crate::rateless::lt::{LtDecoder, LtEncoder};
use crate::rateless::soliton::DegreeTable;
use crate::symbol::{Mark, Symbol};
use std::sync::Arc;

/// The Raptor LT layer's degree distribution: Shokrollahi's output
/// distribution for ε ≈ 0.038 ("Raptor Codes", IEEE Trans. IT 2006,
/// Table I).
///
/// Unlike the robust soliton, this table has constant mean degree (≈ 5.87)
/// and no spike: it is *designed* to recover a `1 − O(ε)` fraction of the
/// intermediates smoothly under peeling, rather than everything in a late
/// avalanche, because the precode repairs the stragglers.  This is exactly
/// why Raptor beats plain LT at moderate `k` — the robust soliton's spike
/// and its fat transition tail are the price of demanding *full* recovery
/// from the LT layer alone.
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

/// A Raptor code: Tornado precode + LT layer over the intermediates.
#[derive(Debug, Clone)]
pub struct RaptorCode {
    precode: TornadoCode,
    lt: LtEncoder,
}

impl RaptorCode {
    /// Build a Raptor code over `k` source packets with the default
    /// [`RAPTOR_PRECODE`] profile and calibrated LT parameters.
    ///
    /// # Errors
    ///
    /// Propagates cascade-construction errors (e.g. `k == 0`).
    pub fn new(k: usize, seed: u64) -> Result<Self> {
        RaptorCode::with_profile(k, RAPTOR_PRECODE, seed)
    }

    /// Build a Raptor code with an explicit precode profile (LT layer uses
    /// [`RAPTOR_DEGREE_TABLE`]).
    pub fn with_profile(k: usize, profile: TornadoProfile, seed: u64) -> Result<Self> {
        let precode = TornadoCode::with_profile(k, profile, seed)?;
        let lt = LtEncoder::with_table(precode.n(), raptor_degree_table()?, seed)?;
        Ok(RaptorCode { precode, lt })
    }

    /// Build a Raptor code with an explicit precode profile and a
    /// robust-soliton LT layer instead of the fixed table — the calibration
    /// entry point (see `examples/lt_stats.rs`) used to measure why the
    /// fixed table wins; protocol sessions use [`RaptorCode::new`].
    pub fn with_profile_and_soliton(
        k: usize,
        profile: TornadoProfile,
        c: f64,
        delta: f64,
        seed: u64,
    ) -> Result<Self> {
        let precode = TornadoCode::with_profile(k, profile, seed)?;
        let lt = LtEncoder::new(precode.n(), c, delta, seed)?;
        Ok(RaptorCode { precode, lt })
    }

    /// Number of source packets `k`.
    pub fn k(&self) -> usize {
        self.precode.k()
    }

    /// Number of intermediate symbols `L` the LT layer ranges over
    /// (= the precode's full encoding length `n`).
    pub fn intermediate_count(&self) -> usize {
        self.precode.n()
    }

    /// The precode.
    pub fn precode(&self) -> &TornadoCode {
        &self.precode
    }

    /// The LT layer's encoder (shared seed → equation derivation).
    pub fn lt(&self) -> &LtEncoder {
        &self.lt
    }

    /// Uniform length of every LT symbol when the source was split into
    /// `packet_size`-byte packets: intermediate packets are padded up to the
    /// longest precode packet (GF(2^16) final-code checks carry two extra
    /// bytes when `packet_size` is odd, see [`FinalCode`]).
    pub fn symbol_len(&self, packet_size: usize) -> usize {
        let n = self.precode.n();
        // The final RS checks are the longest packets in the encoding.
        self.precode.expected_payload_len(n - 1, packet_size)
    }

    /// Run the precode: encode `source` into the `L` intermediate symbols,
    /// zero-padded to one uniform length so the LT layer can XOR them.
    ///
    /// # Errors
    ///
    /// Propagates precode encoding errors (wrong packet count / lengths).
    pub fn precode_symbols(&self, source: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let mut enc = self.precode.encode(source)?;
        let uniform = enc.iter().map(|p| p.len()).max().unwrap_or(0);
        for p in &mut enc {
            p.resize(uniform, 0);
        }
        Ok(enc)
    }

    /// Encode one LT symbol over precomputed intermediates (from
    /// [`RaptorCode::precode_symbols`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::TornadoError::MalformedInput`] if `intermediates`
    /// does not hold exactly `L` symbols.
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

/// Streaming Raptor decoder: LT-peels intermediates, feeds each recovered
/// intermediate into the precode's [`PeelingDecoder`], and completes when the
/// precode does — typically well before the LT layer recovers everything.
#[derive(Debug, Clone)]
pub struct RaptorDecoder<S: Symbol> {
    lt: LtDecoder<S>,
    inner: PeelingDecoder<S, Arc<Cascade>>,
}

impl<S: Symbol> RaptorDecoder<S> {
    fn new(code: &RaptorCode) -> Self {
        let mut lt = LtDecoder::new(code.lt().clone());
        // Raptor decoding is elimination-led: the fixed degree table leaves
        // a few intermediates uncovered (the precode repairs those), so the
        // finisher must not wait for a peeling avalanche that never comes.
        lt.engage_finisher_eagerly();
        RaptorDecoder {
            lt,
            inner: PeelingDecoder::new(code.precode().shared_cascade()),
        }
    }

    /// True once the precode has recovered every source packet.
    pub fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    /// Borrow the recovered source packets, in order, once complete (and
    /// until [released](Self::release)).
    pub fn source_iter(&self) -> Option<impl Iterator<Item = &S> + '_> {
        self.inner.source_iter()
    }

    /// Let go of every intermediate and source value in both layers; see
    /// [`PeelingDecoder::release`] and [`LtDecoder::release`].
    pub fn release(&mut self) {
        self.lt.release();
        self.inner.release();
    }

    /// The recovered source packets, once complete.
    pub fn source(&self) -> Option<Vec<S>> {
        self.inner.source()
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

    /// Intermediates recovered by the LT layer so far.
    pub fn lt_known(&self) -> usize {
        self.lt.known()
    }

    /// Equations buffered by the LT layer.
    pub fn pending_equations(&self) -> usize {
        self.lt.pending_equations()
    }

    /// Unknown-neighbor references across buffered equations (the memory
    /// bound the protocol layer enforces).
    pub fn pending_edges(&self) -> usize {
        self.lt.pending_edges()
    }

    /// Accept one `(seed, payload)` LT symbol and propagate recoveries into
    /// the precode.  `fix` normalises a recovered intermediate before it is
    /// fed (payload decoders strip the uniform padding; `Mark` is identity).
    fn add_with<F>(&mut self, seed: u64, value: S, fix: F) -> Result<AddOutcome>
    where
        F: Fn(&Cascade, usize, S) -> S,
    {
        if self.inner.is_complete() {
            return Ok(AddOutcome::Duplicate);
        }
        let lt_outcome = self.lt.add_symbol(seed, value);
        for idx in self.lt.drain_recovered() {
            let Some(sym) = self.lt.symbol(idx as usize) else {
                continue;
            };
            let fixed = fix(self.inner.cascade(), idx as usize, sym.clone());
            // Index is always < n (the LT layer ranges over exactly the
            // precode's encoding); Duplicate just means the precode already
            // peeled this intermediate itself.
            self.inner.add_packet(idx as usize, fixed)?;
            if self.inner.is_complete() {
                return Ok(AddOutcome::Complete);
            }
        }
        Ok(match lt_outcome {
            AddOutcome::Duplicate => AddOutcome::Duplicate,
            _ if self.inner.is_complete() => AddOutcome::Complete,
            _ => AddOutcome::Accepted,
        })
    }
}

impl RaptorDecoder<Vec<u8>> {
    /// Accept one `(seed, payload)` symbol.  All payloads must share the
    /// code's uniform [`RaptorCode::symbol_len`]; the protocol layer
    /// validates this before the symbol reaches the decoder.
    ///
    /// # Errors
    ///
    /// Propagates precode decoder errors (none are expected for in-range
    /// indices, which the LT derivation guarantees).
    pub fn add_symbol(&mut self, seed: u64, payload: Vec<u8>) -> Result<AddOutcome> {
        self.add_with(seed, payload, |cascade, idx, mut v| {
            // Undo the uniform-length padding: with a GF(2^16) final code and
            // odd payloads, cascade-level packets are two bytes shorter than
            // the RS checks the symbols were padded to match.
            if matches!(cascade.final_code(), FinalCode::Large(_))
                && v.len() % 2 == 1
                && matches!(cascade.role(idx), PacketRole::Level { .. })
            {
                v.truncate(v.len().saturating_sub(2));
            }
            v
        })
    }
}

impl RaptorDecoder<Mark> {
    /// Accept one symbol by seed only (index-only simulation).
    ///
    /// # Errors
    ///
    /// Propagates precode decoder errors (none are expected for in-range
    /// indices).
    pub fn add_mark(&mut self, seed: u64) -> Result<AddOutcome> {
        self.add_with(seed, Mark, |_, _, m| m)
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
    fn precode_profile_is_mostly_mds() {
        let code = RaptorCode::new(1000, 7).unwrap();
        let l = code.intermediate_count();
        assert!(l > 1000 && l < 1100, "L = {l}");
    }

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
            assert_eq!(sym.len(), code.symbol_len(32));
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
    fn round_trips_odd_payloads_through_gf16_padding() {
        // Odd packet length + a > 256-packet final block forces the GF(2^16)
        // padding scheme; the Raptor layer must pad and un-pad transparently.
        let k = 400;
        let src = payloads(k, 33, 5);
        let code = RaptorCode::new(k, 5).unwrap();
        assert!(
            matches!(
                code.precode().shared_cascade().final_code(),
                FinalCode::Large(_)
            ),
            "test needs the GF(2^16) final-code path"
        );
        assert_eq!(code.symbol_len(33), 35);
        let inter = code.precode_symbols(&src).unwrap();
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
    fn completes_before_full_lt_recovery() {
        // The precode's point: completion must not require the LT layer to
        // recover every intermediate.  Make that structural: drop every
        // symbol whose equation touches the last intermediate, so the LT
        // layer can never recover it — not by peeling and not by
        // elimination (no equation covers it, so its column is always
        // rank-deficient) — and the decoder must still finish through the
        // precode's redundancy.
        let k = 500;
        let code = RaptorCode::new(k, 3).unwrap();
        let straggler = (code.intermediate_count() - 1) as u32;
        let mut dec = code.symbolic_decoder();
        let mut seed = 0u64;
        while !dec.is_complete() {
            if !code.lt().equation(seed).neighbors.contains(&straggler) {
                dec.add_mark(seed).unwrap();
            }
            seed += 1;
            assert!(seed < 20 * k as u64, "decode did not converge");
        }
        assert!(
            dec.lt_known() < code.intermediate_count(),
            "LT recovered all {} intermediates despite the straggler filter",
            code.intermediate_count()
        );
    }
}

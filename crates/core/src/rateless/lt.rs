//! The LT (Luby Transform) layer: a seed-addressed rateless encoder and the
//! streaming peeling decoder that consumes its symbols.
//!
//! The central contract is **seed → equation determinism**: a 64-bit symbol
//! seed, run through a seeded [`ChaCha8Rng`], yields the same
//! `(degree, neighbor set)` on the encoder and on every decoder.  A sender
//! therefore never transmits equation structure — the wire carries only the
//! seed (in `df-proto`, packed into the 12-byte header's
//! `packet_index:serial` words) and the XOR payload.  Because the derivation
//! uses only integer PRNG output and CDF table lookups, it is bit-identical
//! across the GF kernel tiers (`DF_GF_FORCE_TIER` does not touch it).
//!
//! The decoder is a thin equation *source*: it turns each arriving seed back
//! into its equation and hands `(neighbours, payload)` to the one streaming
//! GF(2) solver of the rateless path (`solve.rs` — degree-one release while
//! a ripple exists, inactivation when it dries up, payloads touched once the
//! system is determined).  [`crate::RaptorDecoder`] is the same source over
//! the same solver, with the precode's checks fed in up front.
//!
//! Hostile-input posture: a forged seed cannot construct an invalid
//! equation — the degree is sampled from the shared distribution and clamped
//! to `1..=count`, and neighbors are distinct by construction — so the worst
//! a flood of fresh seeds can do is grow the buffered set.  The decoder
//! exposes [`LtDecoder::pending_equations`] and [`LtDecoder::pending_edges`]
//! so the protocol layer can bound that growth (see
//! `df-proto`'s rateless receive path).

use crate::decode::AddOutcome;
use crate::error::{Result, TornadoError};
use crate::graph::BipartiteGraph;
use crate::rateless::soliton::{DegreeTable, RobustSoliton};
use crate::rateless::solve::Solver;
use crate::symbol::Symbol;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// One LT equation: the encoded symbol is the XOR of the source symbols at
/// `neighbors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LtEquation {
    /// Neighbor indices into the source symbol array — distinct, in the
    /// deterministic order the seeded derivation produced them.
    pub neighbors: Vec<u32>,
}

impl LtEquation {
    /// Equation degree (number of neighbors, always `1..=count`).
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// The degree distribution an [`LtEncoder`] samples — part of the wire
/// contract (both ends must construct the identical distribution for the
/// seed → equation derivation to agree).
#[derive(Debug, Clone)]
enum LtDist {
    /// Robust soliton — plain-LT sessions.
    Soliton(Arc<RobustSoliton>),
    /// Fixed table — Raptor's LT layer.
    Table(Arc<DegreeTable>),
}

impl LtDist {
    fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match self {
            LtDist::Soliton(s) => s.sample(rng),
            LtDist::Table(t) => t.sample(rng),
        }
    }
}

/// Seed-addressed LT encoder over `count` source symbols.
///
/// Cheap to clone (the CDF table is shared); the decoder embeds one to run
/// the identical seed → equation derivation.
#[derive(Debug, Clone)]
pub struct LtEncoder {
    count: usize,
    stream_seed: u64,
    dist: LtDist,
}

impl LtEncoder {
    /// Build an encoder over `count` symbols with a [`RobustSoliton`]
    /// distribution parameterised by `c` and `delta`.
    ///
    /// `stream_seed` (the session's `code_seed` in the protocol) is folded
    /// into every symbol-seed derivation so two sessions with different code
    /// seeds produce unrelated equations for the same wire serial.
    ///
    /// # Errors
    ///
    /// Propagates [`RobustSoliton::new`] parameter validation.
    pub fn new(count: usize, c: f64, delta: f64, stream_seed: u64) -> Result<Self> {
        Ok(LtEncoder::with_distribution(
            RobustSoliton::new(count, c, delta)?,
            stream_seed,
        ))
    }

    /// Build an encoder from an explicit robust-soliton distribution.
    pub fn with_distribution(soliton: RobustSoliton, stream_seed: u64) -> Self {
        LtEncoder {
            count: soliton.k(),
            stream_seed,
            dist: LtDist::Soliton(Arc::new(soliton)),
        }
    }

    /// Build an encoder over `count` symbols sampling a fixed
    /// [`DegreeTable`] — the Raptor LT layer's shape, where a constant mean
    /// degree and a smooth recovery curve matter more than full coverage.
    ///
    /// Degrees above `count` are clamped during derivation, so a table is
    /// usable for any `count ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::InvalidParameters`] if `count == 0`.
    pub fn with_table(count: usize, table: DegreeTable, stream_seed: u64) -> Result<Self> {
        if count == 0 {
            return Err(TornadoError::InvalidParameters {
                reason: "LT encoder needs at least one symbol".to_string(),
            });
        }
        Ok(LtEncoder {
            count,
            stream_seed,
            dist: LtDist::Table(Arc::new(table)),
        })
    }

    /// Number of source symbols the encoder combines.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The robust-soliton distribution, when this encoder samples one
    /// (`None` for fixed-table encoders).
    pub fn soliton(&self) -> Option<&RobustSoliton> {
        match &self.dist {
            LtDist::Soliton(s) => Some(s),
            LtDist::Table(_) => None,
        }
    }

    /// The stream seed folded into every equation derivation.
    pub fn stream_seed(&self) -> u64 {
        self.stream_seed
    }

    /// Derive the equation for `seed` — deterministic, total over all 2^64
    /// seeds, and identical on encoder and decoder.
    ///
    /// The degree is drawn from the robust soliton and clamped to
    /// `1..=count`; neighbors are sampled distinct (rejection sampling for
    /// sparse equations, partial Fisher–Yates once the degree is a
    /// substantial fraction of `count`, chosen deterministically from the
    /// degree alone).
    pub fn equation(&self, seed: u64) -> LtEquation {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ self.stream_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let degree = self.dist.sample(&mut rng).clamp(1, self.count);
        let neighbors = if degree * 8 >= self.count {
            // Dense equation: partial Fisher–Yates shuffle, O(count).
            let mut pool: Vec<u32> = (0..self.count as u32).collect();
            for i in 0..degree {
                let j = rng.gen_range(i..self.count);
                pool.swap(i, j);
            }
            pool.truncate(degree);
            pool
        } else {
            // Sparse equation: rejection-sample distinct indices.
            let mut picked: Vec<u32> = Vec::with_capacity(degree);
            while picked.len() < degree {
                let idx = rng.gen_range(0..self.count) as u32;
                if !picked.contains(&idx) {
                    picked.push(idx);
                }
            }
            picked
        };
        LtEquation { neighbors }
    }

    /// Encode one symbol: XOR together the neighbors of `seed`'s equation.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] if `symbols.len() != count`.
    /// All symbols must share one length (payload XOR requires it).
    pub fn encode_symbol<S: Symbol>(&self, seed: u64, symbols: &[S]) -> Result<S> {
        if symbols.len() != self.count {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "LT encoder over {} symbols was given {}",
                    self.count,
                    symbols.len()
                ),
            });
        }
        let eq = self.equation(seed);
        // Degree ≥ 1 by construction, so `first` always exists and the
        // accumulator starts from a real neighbor.
        let mut iter = eq.neighbors.iter().map(|&i| &symbols[i as usize]);
        let first = iter.next().ok_or_else(|| TornadoError::MalformedInput {
            reason: "LT equation with no neighbors".to_string(),
        })?;
        let mut acc = first.clone();
        for s in iter {
            acc.xor(s);
        }
        Ok(acc)
    }
}

/// Streaming LT decoder: accepts an unbounded stream of `(seed, payload)`
/// symbols and completes on the first one that determines every source
/// symbol (see `solve.rs`: peeling first, inactivation decoding once as
/// many equations are held as unknowns remain).
///
/// Memory model: recovered symbols are `O(count)`; buffered equations are
/// whatever the caller admits — check [`LtDecoder::pending_equations`] /
/// [`LtDecoder::pending_edges`] *before* feeding a symbol to enforce a cap
/// (the protocol layer rejects above its `buffer_cap`).  Duplicate detection
/// covers currently-buffered seeds exactly; a seed whose equation was already
/// consumed says nothing new and is absorbed without growing state.
#[derive(Debug, Clone)]
pub struct LtDecoder<S: Symbol> {
    encoder: LtEncoder,
    solver: Solver<S>,
    received_total: u64,
    received_distinct: u64,
}

impl<S: Symbol> LtDecoder<S> {
    /// Build a decoder sharing `encoder`'s seed → equation derivation.
    pub fn new(encoder: LtEncoder) -> Self {
        let count = encoder.count();
        LtDecoder {
            solver: Solver::new(count, count),
            encoder,
            received_total: 0,
            received_distinct: 0,
        }
    }

    /// A decoder over a precoded symbol array: the first `precode.left()`
    /// symbols are the source, the rest are `precode`'s checks, each the XOR
    /// of its neighbours — which the solver is told up front as the
    /// zero-valued equation `check ⊕ Σ neighbours = 0`.
    pub(crate) fn over_precode(encoder: LtEncoder, precode: &BipartiteGraph) -> Self {
        let k = precode.left();
        let mut solver = Solver::new(encoder.count(), k);
        for j in 0..precode.right() {
            let mut cols = vec![(k + j) as u32];
            cols.extend_from_slice(precode.check_neighbors(j));
            solver.add(None, cols, None);
        }
        LtDecoder {
            solver,
            encoder,
            received_total: 0,
            received_distinct: 0,
        }
    }

    /// Number of symbols the equations range over.
    pub fn count(&self) -> usize {
        self.encoder.count()
    }

    /// The shared encoder (seed → equation derivation).
    pub fn encoder(&self) -> &LtEncoder {
        &self.encoder
    }

    /// Number of symbols whose value has been computed so far.  Peeling
    /// computes them one by one; once the decoder has had to inactivate it
    /// computes nothing until everything is determined.
    pub fn known(&self) -> usize {
        self.solver.known()
    }

    /// True once every source symbol is recovered.
    pub fn is_complete(&self) -> bool {
        self.solver.is_complete()
    }

    /// Symbols the decoder has inactivated so far — the side of the dense
    /// GF(2) system it solves instead of waiting for a ripple.
    pub fn inactive_symbols(&self) -> usize {
        self.solver.inactive_columns()
    }

    /// Let go of every symbol value and buffered equation, for a caller that
    /// has copied what it needs out of [`Self::source_iter`] and keeps the
    /// decoder only for its counters — the counterpart of
    /// [`crate::PeelingDecoder::release`].  Completion and the reception
    /// counts stay; [`Self::symbol`] and [`Self::source_iter`] answer `None`
    /// from here on and every further symbol is a [`AddOutcome::Duplicate`].
    pub fn release(&mut self) {
        self.solver.release();
    }

    /// Symbols accepted, including duplicates.
    pub fn received_total(&self) -> u64 {
        self.received_total
    }

    /// Symbols accepted whose seed was not buffered at arrival (exact for
    /// honest never-repeating streams).
    pub fn received_distinct(&self) -> u64 {
        self.received_distinct
    }

    /// Equations currently held (received, or the precode's, and not yet
    /// used up).
    pub fn pending_equations(&self) -> usize {
        self.solver.pending_equations()
    }

    /// Total references from held equations to symbols without a value —
    /// the decoder's true `O(memory)` term, bounded by the caller's
    /// admission cap.
    pub fn pending_edges(&self) -> usize {
        self.solver.pending_edges()
    }

    /// The recovered symbol at `index`, if known.
    pub fn symbol(&self, index: usize) -> Option<&S> {
        self.solver.value(index)
    }

    /// Borrow all source symbols, in order, once complete (and until
    /// [released](Self::release)).
    pub fn source_iter(&self) -> Option<impl Iterator<Item = &S> + '_> {
        self.solver.wanted_iter()
    }

    /// All source symbols, once complete.
    pub fn source(&self) -> Option<Vec<S>> {
        Some(self.source_iter()?.cloned().collect())
    }

    /// Accept one `(seed, payload)` symbol.
    ///
    /// Returns [`AddOutcome::Duplicate`] if `seed` matches a buffered
    /// equation (or decoding already finished), [`AddOutcome::Complete`] when
    /// this symbol finishes decoding, [`AddOutcome::Accepted`] otherwise.
    ///
    /// All payloads must share one length; the protocol layer enforces this
    /// before the symbol reaches the decoder (mixed lengths would make the
    /// XOR reduction meaningless).
    pub fn add_symbol(&mut self, seed: u64, value: S) -> AddOutcome {
        self.received_total += 1;
        if self.solver.is_complete() || self.solver.released() {
            return AddOutcome::Duplicate;
        }
        let equation = self.encoder.equation(seed);
        if !self.solver.add(Some(seed), equation.neighbors, Some(value)) {
            return AddOutcome::Duplicate;
        }
        self.received_distinct += 1;
        if self.is_complete() {
            AddOutcome::Complete
        } else {
            AddOutcome::Accepted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Mark;
    use rand::RngCore;

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
    fn equation_derivation_is_deterministic_and_valid() {
        let enc = LtEncoder::new(257, 0.03, 0.5, 99).unwrap();
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF_0BAD_F00D] {
            let a = enc.equation(seed);
            let b = enc.equation(seed);
            assert_eq!(a, b);
            assert!((1..=257).contains(&a.degree()));
            let mut sorted = a.neighbors.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), a.degree(), "neighbors must be distinct");
            assert!(sorted.iter().all(|&i| i < 257));
        }
    }

    #[test]
    fn different_stream_seeds_decorrelate_equations() {
        let a = LtEncoder::new(100, 0.03, 0.5, 1).unwrap();
        let b = LtEncoder::new(100, 0.03, 0.5, 2).unwrap();
        let same = (0..64u64)
            .filter(|&s| a.equation(s) == b.equation(s))
            .count();
        assert!(same < 8, "{same} of 64 equations collided across streams");
    }

    // Pinned by running the derivation once at PR 8 time; see the test below.
    const GOLDEN_0: &[u32] = &[3, 4, 0, 7];
    const GOLDEN_1: &[u32] = &[8, 1, 14, 0, 5, 15, 3, 11, 10, 7, 13, 12];
    const GOLDEN_2: &[u32] = &[15, 10];
    const GOLDEN_3: &[u32] = &[10, 0];

    #[test]
    fn golden_equations_pin_the_wire_contract() {
        // These exact neighbor sets are what PR 8 shipped; any drift here is
        // a wire-format break (receivers derive equations from serials
        // alone).  The derivation is pure ChaCha8 + CDF lookup, so it must
        // also be identical under every `DF_GF_FORCE_TIER` kernel tier.
        let enc = LtEncoder::new(16, 0.03, 0.5, 0).unwrap();
        let got: Vec<Vec<u32>> = (0..4u64).map(|s| enc.equation(s).neighbors).collect();
        let expect: Vec<Vec<u32>> = vec![
            GOLDEN_0.to_vec(),
            GOLDEN_1.to_vec(),
            GOLDEN_2.to_vec(),
            GOLDEN_3.to_vec(),
        ];
        assert_eq!(got, expect);
        // And re-deriving through a *fresh* encoder built from the same
        // parameters gives the same equations (decoder-side reconstruction).
        let dec_side = LtEncoder::new(16, 0.03, 0.5, 0).unwrap();
        for s in 0..32u64 {
            assert_eq!(enc.equation(s), dec_side.equation(s));
        }
    }

    #[test]
    fn round_trips_payloads_at_small_k() {
        let k = 40;
        let src = payloads(k, 64, 5);
        let enc = LtEncoder::new(k, 0.03, 0.5, 5).unwrap();
        let mut dec = LtDecoder::new(enc.clone());
        let mut seed = 0u64;
        while !dec.is_complete() {
            let sym = enc.encode_symbol(seed, &src).unwrap();
            dec.add_symbol(seed, sym);
            seed += 1;
            assert!(seed < 10 * k as u64, "decode did not converge");
        }
        assert_eq!(dec.source().unwrap(), src);
    }

    #[test]
    fn duplicates_are_flagged_and_harmless() {
        let k = 30;
        let src = payloads(k, 16, 9);
        let enc = LtEncoder::new(k, 0.03, 0.5, 9).unwrap();
        let mut dec = LtDecoder::new(enc.clone());
        // Find a seed whose equation has degree > 2 so it stays pending.
        let seed = (0..1000u64)
            .find(|&s| enc.equation(s).degree() > 2)
            .unwrap();
        let sym = enc.encode_symbol(seed, &src).unwrap();
        assert_eq!(dec.add_symbol(seed, sym.clone()), AddOutcome::Accepted);
        assert_eq!(dec.add_symbol(seed, sym), AddOutcome::Duplicate);
        assert_eq!(dec.received_total(), 2);
        assert_eq!(dec.received_distinct(), 1);
        assert_eq!(dec.pending_equations(), 1);
    }

    #[test]
    fn symbolic_and_payload_decoders_agree_on_the_schedule() {
        let k = 64;
        let src = payloads(k, 8, 3);
        let enc = LtEncoder::new(k, 0.05, 0.5, 3).unwrap();
        let mut payload = LtDecoder::<Vec<u8>>::new(enc.clone());
        let mut marks = LtDecoder::<Mark>::new(enc.clone());
        let mut seed = 0u64;
        while !payload.is_complete() {
            let sym = enc.encode_symbol(seed, &src).unwrap();
            let a = payload.add_symbol(seed, sym);
            let b = marks.add_symbol(seed, Mark);
            assert_eq!(a, b, "schedules diverged at seed {seed}");
            assert_eq!(payload.known(), marks.known());
            seed += 1;
            assert!(seed < 20 * k as u64, "decode did not converge");
        }
        assert!(marks.is_complete());
        assert_eq!(payload.source().unwrap(), src);
    }

    #[test]
    fn pending_edge_accounting_balances() {
        let k = 50;
        let src = payloads(k, 8, 11);
        let enc = LtEncoder::new(k, 0.03, 0.5, 11).unwrap();
        let mut dec = LtDecoder::new(enc.clone());
        for seed in 0..(3 * k as u64) {
            let sym = enc.encode_symbol(seed, &src).unwrap();
            dec.add_symbol(seed, sym);
            // The edge counter must equal the references to unvalued
            // symbols summed over the held equations, at every step.
            assert_eq!(dec.pending_edges(), dec.solver.recount_pending_edges());
            if dec.is_complete() {
                break;
            }
        }
        assert!(dec.is_complete());
    }

    #[test]
    fn inactivation_finisher_solves_peeling_stalls() {
        let k = 3;
        let src = payloads(k, 8, 21);
        let enc = LtEncoder::new(k, 0.03, 0.5, 21).unwrap();
        let find = |want: &[u32]| {
            (0..200_000u64)
                .find(|&s| {
                    let mut n = enc.equation(s).neighbors.clone();
                    n.sort_unstable();
                    n == want
                })
                .expect("seed with target equation")
        };
        let s01 = find(&[0, 1]);
        let s12 = find(&[1, 2]);
        let s012 = find(&[0, 1, 2]);
        let mut dec = LtDecoder::new(enc.clone());
        let a = dec.add_symbol(s01, enc.encode_symbol(s01, &src).unwrap());
        assert_eq!(a, AddOutcome::Accepted);
        let b = dec.add_symbol(s12, enc.encode_symbol(s12, &src).unwrap());
        assert_eq!(b, AddOutcome::Accepted);
        assert_eq!(dec.known(), 0, "no degree-1 equation arrived yet");
        // No degree-1 equation ever arrives, so pure peeling would stall
        // forever on this stream.  The third (independent) equation makes
        // it a full-rank 3x3 GF(2) system, which inactivating one symbol
        // solves.
        let c = dec.add_symbol(s012, enc.encode_symbol(s012, &src).unwrap());
        assert_eq!(c, AddOutcome::Complete);
        assert_eq!(dec.inactive_symbols(), 1);
        assert_eq!(dec.source().unwrap(), src);
        assert_eq!(dec.pending_equations(), 0);
        assert_eq!(dec.pending_edges(), 0);
    }

    #[test]
    fn encode_rejects_wrong_symbol_count() {
        let enc = LtEncoder::new(10, 0.03, 0.5, 0).unwrap();
        let src = payloads(9, 8, 0);
        assert!(enc.encode_symbol(0, &src).is_err());
    }
}

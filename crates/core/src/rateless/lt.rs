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
//! A sender keeps what its symbols are XORs of as an [`Encoding`], the
//! type a carousel keeps its file in: plain LT's is the file alone
//! ([`Encoding::from_file`]), Raptor's the file and its precode checks
//! ([`crate::RaptorCode::precode_file`]).  [`LtEncoder::encode_into`]
//! writes a symbol from those rows straight into the caller's buffer.
//!
//! The decoder is a thin equation *source*: it turns each arriving seed back
//! into its equation and hands `(neighbours, payload)` to the crate's one
//! streaming GF(2) solver (`solve.rs` — degree-one release while
//! a ripple exists, inactivation when it dries up, the remaining values
//! computed once the system is determined).  [`crate::RaptorDecoder`] is the
//! same source over the same solver, with the precode's checks fed in up
//! front.  A payload is copied into the decoder only if its equation is
//! kept, and a payload decoder computes the source into one buffer laid out
//! as the file ([`LtDecoder::take_source`]).
//!
//! Hostile-input posture: a forged seed cannot construct an invalid
//! equation — the degree is sampled from the shared distribution and clamped
//! to `1..=count`, and neighbors are distinct by construction — so the worst
//! a flood of fresh seeds can do is grow the buffered set.  The decoder
//! exposes [`LtDecoder::pending_equations`] and [`LtDecoder::pending_edges`]
//! so the protocol layer can bound that growth (see
//! `df-proto`'s rateless receive path).

use crate::decode::AddOutcome;
use crate::encode::Encoding;
use crate::error::{Result, TornadoError};
use crate::rateless::soliton::{DegreeTable, RobustSoliton};
use crate::solve::{Fixed, SolveTrace, Solver, INACTIVATION_CAP};
use crate::store::{as_row, StoreShape};
use crate::symbol::{xor_rows, Symbol};
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
        let soliton = RobustSoliton::new(count, c, delta)?;
        Ok(LtEncoder {
            count: soliton.k(),
            stream_seed,
            dist: LtDist::Soliton(Arc::new(soliton)),
        })
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

    /// Derive the equation for `seed` — deterministic, total over all 2^64
    /// seeds, and identical on encoder and decoder.
    ///
    /// The degree is drawn from the robust soliton and clamped to
    /// `1..=count`; neighbors are sampled distinct (rejection sampling for
    /// sparse equations, partial Fisher–Yates once the degree is a
    /// substantial fraction of `count`, chosen deterministically from the
    /// degree alone).
    pub fn equation(&self, seed: u64) -> LtEquation {
        let mut neighbors = Vec::new();
        self.neighbors_into(seed, &mut neighbors);
        LtEquation { neighbors }
    }

    /// [`Self::equation`]'s neighbours, written over `neighbors` — a buffer
    /// the caller reuses, so deriving an equation allocates nothing once it
    /// has grown.
    pub(crate) fn neighbors_into(&self, seed: u64, neighbors: &mut Vec<u32>) {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ self.stream_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let degree = self.dist.sample(&mut rng).clamp(1, self.count);
        neighbors.clear();
        if degree * 8 >= self.count {
            // Dense equation: partial Fisher–Yates shuffle, O(count).
            neighbors.extend(0..self.count as u32);
            for i in 0..degree {
                let j = rng.gen_range(i..self.count);
                neighbors.swap(i, j);
            }
            neighbors.truncate(degree);
        } else {
            // Sparse equation: rejection-sample distinct indices.
            while neighbors.len() < degree {
                let idx = rng.gen_range(0..self.count) as u32;
                if !neighbors.contains(&idx) {
                    neighbors.push(idx);
                }
            }
        }
    }

    /// Encode one symbol: XOR together the neighbors of `seed`'s equation.
    /// A sender that encodes many symbols keeps them in an [`Encoding`]
    /// instead, and [`Self::encode_into`] writes each one into its buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] if `symbols.len() != count`.
    ///
    /// # Panics
    ///
    /// Panics unless all symbols share one length.
    pub fn encode_symbol(&self, seed: u64, symbols: &[Vec<u8>]) -> Result<Vec<u8>> {
        if symbols.len() != self.count {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "LT encoder over {} symbols was given {}",
                    self.count,
                    symbols.len()
                ),
            });
        }
        let mut out = vec![0; symbols.first().map_or(0, Vec::len)];
        let rows = self.equation(seed).neighbors.into_iter();
        xor_rows(&mut out, rows.map(|i| &symbols[i as usize][..]), false);
        Ok(out)
    }

    /// Write symbol `seed` — the XOR of its equation's rows of `symbols` —
    /// over `out`, in one pass of the many-source kernel.  `neighbors` is
    /// the caller's scratch for the equation, reused from symbol to symbol,
    /// so a sender that keeps one allocates nothing per symbol once it has
    /// grown to the widest equation.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] unless `symbols` is `count`
    /// rows of `out.len()` bytes each.
    pub fn encode_into(
        &self,
        seed: u64,
        symbols: &Encoding,
        neighbors: &mut Vec<u32>,
        out: &mut [u8],
    ) -> Result<()> {
        if symbols.len() != self.count
            || !symbols.is_uniform()
            || out.len() != symbols.packet_size()
        {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "an LT layer over {} symbols cannot encode from {} rows of {} bytes \
                     into {} bytes",
                    self.count,
                    symbols.len(),
                    symbols.packet_size(),
                    out.len()
                ),
            });
        }
        self.neighbors_into(seed, neighbors);
        let rows = neighbors.iter().map(|&i| symbols.row(i as usize));
        xor_rows(out, rows, false);
        Ok(())
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
    /// The arriving symbol's neighbours, reused from symbol to symbol.
    neighbors: Vec<u32>,
    received_total: u64,
    received_distinct: u64,
}

impl<S: Symbol> LtDecoder<S> {
    /// Build a decoder sharing `encoder`'s seed → equation derivation.
    pub fn new(encoder: LtEncoder) -> Self {
        let count = encoder.count();
        LtDecoder {
            solver: Self::solver(count, count),
            encoder,
            neighbors: Vec::new(),
            received_total: 0,
            received_distinct: 0,
        }
    }

    /// A decoder over a precoded symbol array: the first `k` symbols are
    /// the source, the rest are a precode's checks, each the XOR of its
    /// neighbours — which the solver is told up front as the zero-valued
    /// equations `precode`.
    pub(crate) fn over_precode(encoder: LtEncoder, k: usize, precode: &Arc<Fixed>) -> Self {
        let mut solver = Self::solver(encoder.count(), k);
        solver.add_fixed(Arc::clone(precode));
        LtDecoder {
            solver,
            encoder,
            neighbors: Vec::new(),
            received_total: 0,
            received_distinct: 0,
        }
    }

    /// A solver over `n` symbols wanting the first `wanted` back, its
    /// store sized for about as many equations held at once as an honest
    /// decode receives (an eighth more, for small-k tails).
    fn solver(n: usize, wanted: usize) -> Solver<S> {
        let shape = StoreShape::uniform(wanted, 2 * n + n / 8 + 64);
        Solver::new(n, shape, INACTIVATION_CAP, n)
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

    /// The payload XORs the decode has cost so far, by phase, and how its
    /// symbols were released.
    pub fn solve_trace(&self) -> SolveTrace {
        self.solver.trace()
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
    pub fn symbol(&self, index: usize) -> Option<&S::Row> {
        self.solver.value(index)
    }

    /// Borrow all source symbols, in order, once complete (and until
    /// [released](Self::release)).
    pub fn source_iter(&self) -> Option<impl Iterator<Item = &S::Row> + '_> {
        self.solver.wanted_iter()
    }

    /// All source symbols, once complete.
    pub fn source(&self) -> Option<Vec<S>> {
        Some(self.source_iter()?.map(ToOwned::to_owned).collect())
    }

    /// Accept one `(seed, payload)` symbol.
    ///
    /// Returns [`AddOutcome::Duplicate`] if `seed` matches a buffered
    /// equation (or decoding already finished), [`AddOutcome::Complete`] when
    /// this symbol finishes decoding, [`AddOutcome::Accepted`] otherwise.
    ///
    /// All payloads must share one length; the protocol layer enforces this
    /// before the symbol reaches the decoder.  A payload the decoder cannot
    /// keep — of another length than the first, or a first one whose
    /// file-sized reservation the allocator refuses — changes nothing and is
    /// answered [`AddOutcome::Duplicate`]; [`Self::add_symbol_ref`] reports
    /// why instead.
    pub fn add_symbol(&mut self, seed: u64, value: S) -> AddOutcome {
        self.add(seed, as_row::<S::Row>(&value))
            .unwrap_or(AddOutcome::Duplicate)
    }

    /// [`Self::add_symbol`] for a borrowed payload — a datagram's — which
    /// is copied into the decoder only if its equation is kept.
    ///
    /// # Errors
    ///
    /// [`TornadoError::MalformedInput`] for a payload the decoder cannot
    /// keep (see [`Self::add_symbol`]); nothing changes then.
    pub fn add_symbol_ref(&mut self, seed: u64, value: &S::Row) -> Result<AddOutcome> {
        self.add(seed, value)
    }

    pub(crate) fn add(&mut self, seed: u64, value: &S::Row) -> Result<AddOutcome> {
        let outcome =
            if self.solver.is_complete() || self.solver.released() || self.solver.holds(seed) {
                AddOutcome::Duplicate
            } else {
                self.encoder.neighbors_into(seed, &mut self.neighbors);
                self.solver.add(Some(seed), &self.neighbors, value)?;
                if self.is_complete() {
                    AddOutcome::Complete
                } else {
                    AddOutcome::Accepted
                }
            };
        self.received_total += 1;
        self.received_distinct += u64::from(outcome != AddOutcome::Duplicate);
        Ok(outcome)
    }
}

impl LtDecoder<Vec<u8>> {
    /// Once complete, the source as one buffer of `file_len` bytes — the
    /// buffer the decoder computed the source packets into, laid out as the
    /// file, handed over without a copy — and let go of everything else, as
    /// [`Self::release`] does.  `None` before completion, once released, or
    /// if `file_len` is longer than the `count` packets.
    pub fn take_source(&mut self, file_len: usize) -> Option<Vec<u8>> {
        self.solver.take_wanted(file_len)
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

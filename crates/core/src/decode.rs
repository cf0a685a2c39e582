//! The peeling (substitution) decoder for Tornado codes.
//!
//! Decoding is the process described in Section 5.1 of the paper: every check
//! packet is the XOR of its neighbours in the previous cascade level, so a
//! known check packet with exactly one unknown neighbour yields that
//! neighbour, and a check packet whose neighbours are all known is itself
//! known.  The final cascade level is recovered through the conventional MDS
//! code as soon as enough of its block is known.  The decoder stops at the
//! packet that makes the source level known.
//!
//! That relaxation is the degree-one release of the crate's one peeling
//! engine (`solve.rs`), so the decoder is an equation source over it, as the
//! LT and Raptor decoders are: a received packet `i` is the unit equation
//! `{i} = payload`, copied once, into its row; check `j` of level `ℓ ≥ 1` is
//! the zero-valued equation `{check} ∪ left neighbours`, which the cascade
//! keeps for all its decoders.  A check the engine releases is not built
//! until a recovery goes through it, and the engine never inactivates, so
//! the decoder completes exactly where the paper's does.  The final MDS
//! block is the one step that is not an XOR: once `final_code().k()` of its
//! packets are known the decoder solves it through
//! [`Symbol::recover_final_level`] and feeds the recovered last-level rows
//! back as unit equations.
//!
//! Source packets alone recover nothing, so the checks' equations are fed
//! only when the first check or final-block packet arrives, before it is
//! judged (a check the sources make computable is still a duplicate): a
//! lossless one-layer carousel receiver does nothing per packet but copy.
//!
//! The decoder is generic over [`Symbol`]: with `Vec<u8>` it produces real
//! payloads, with [`crate::symbol::Mark`] it is the index-only decoder used
//! by the reception-efficiency simulations (Figures 4–6).  A payload decoder
//! keeps its source rows in one buffer laid out as the file (`store.rs`),
//! handed over without a copy ([`PeelingDecoder::take_file`]).  It keeps no
//! reception tally: a receiver counts what it took through a
//! [`crate::ReceptionCounter`], and [`AddOutcome`] is the decoder's verdict.

use crate::cascade::Cascade;
use crate::error::{Result, TornadoError};
use crate::solve::Solver;
use crate::store::{as_row, StoreShape};
use crate::symbol::{Mark, Symbol};
use std::sync::Arc;

/// Outcome of feeding one packet to the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// The packet index had already been received or recovered, or the
    /// decoder could already compute it from packets it holds; it contributed
    /// nothing (a "useless duplicate" in the paper's terminology).
    Duplicate,
    /// The packet was new but the source data is not yet fully recovered.
    Accepted,
    /// The packet was new and the source data is now fully recovered.
    Complete,
}

/// Incremental peeling decoder over an agreed [`Cascade`].
///
/// The decoder holds the cascade by a shared [`Arc`] handle, so it lives
/// independently of the [`crate::TornadoCode`] that created it — a protocol
/// session feeds one for the length of a download — and every decoder and
/// session of one code shares the one cascade.
#[derive(Debug, Clone)]
pub struct PeelingDecoder<S: Symbol> {
    cascade: Arc<Cascade>,
    /// The packets are its unknowns; the source is the part it wants back,
    /// and the final block is its counted tail.
    solver: Solver<S>,
    /// Every packet so far is a source packet: the checks' equations are
    /// not fed yet.  Never set for a single-level cascade, which has none.
    source_only: bool,
    /// Whether the final level is known, through the MDS code or without it.
    final_done: bool,
}

impl<S: Symbol> PeelingDecoder<S> {
    /// Create a decoder for the given cascade with no packets received yet.
    pub fn new(cascade: Arc<Cascade>) -> Self {
        let final_block = cascade.level_offset(cascade.num_levels() - 1);
        PeelingDecoder {
            solver: Solver::new(cascade.n(), StoreShape::of(&cascade), 0, final_block),
            source_only: cascade.num_levels() > 1,
            final_done: false,
            cascade,
        }
    }

    /// The cascade this decoder operates on.
    pub fn cascade(&self) -> &Cascade {
        &self.cascade
    }

    /// True once every source packet is known.
    pub fn is_complete(&self) -> bool {
        self.solver.is_complete()
    }

    /// Packet values the decoder stores — its memory footprint in packets,
    /// at most `n` whatever is fed, and `0` after [`Self::release`].
    pub fn held(&self) -> usize {
        self.solver.held()
    }

    /// Let go of every packet value, for a caller that has copied what it
    /// needs out of [`Self::source_iter`] and keeps the decoder only to ask
    /// whether it completed.  Completion stays as it is;
    /// [`Self::source_iter`] answers `None` from here on and every further
    /// packet is a [`AddOutcome::Duplicate`] (so a decoder released before
    /// it completed never completes).
    pub fn release(&mut self) {
        self.solver.release();
    }

    /// Feed one encoding packet to the decoder.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] for an out-of-range index or
    /// a payload the store refuses — one whose length does not fit the
    /// packets already held, or a first one whose file the allocator cannot
    /// reserve — and propagates final-code errors, after which the decoder
    /// may never complete: what the packet would have released is not
    /// revisited.
    pub fn add_packet(&mut self, index: usize, value: S) -> Result<AddOutcome> {
        self.add(index, as_row::<S::Row>(&value))
    }

    /// Feed one encoding packet by reference — a payload as any byte slice —
    /// copying it only if the packet is new.
    ///
    /// This is the right entry point when the caller keeps ownership of the
    /// packet (a carousel buffer, a received datagram, a benchmark's
    /// reference copy): a new payload is copied once, straight into its row,
    /// and a duplicate — the common case late in a lossy download — costs
    /// nothing at all.
    ///
    /// # Errors
    ///
    /// Same as [`PeelingDecoder::add_packet`].
    pub fn add_packet_ref(&mut self, index: usize, value: &S::Row) -> Result<AddOutcome> {
        self.add(index, value)
    }

    fn add(&mut self, index: usize, value: &S::Row) -> Result<AddOutcome> {
        if index >= self.cascade.n() {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "packet index {index} out of range for n = {}",
                    self.cascade.n()
                ),
            });
        }
        if self.solver.released() {
            return Ok(AddOutcome::Duplicate);
        }
        if self.source_only && index >= self.cascade.k() && !self.solver.is_complete() {
            self.feed_checks()?;
        }
        if self.solver.is_known(index) {
            return Ok(AddOutcome::Duplicate);
        }
        if !self.solver.is_complete() {
            self.solver.add_unit(index, value)?;
            self.try_final_level()?;
        }
        Ok(if self.solver.is_complete() {
            AddOutcome::Complete
        } else {
            AddOutcome::Accepted
        })
    }

    /// Leave the source-only state: give the solver every check's equation,
    /// so that the packet that ended the state meets the same decoder it
    /// would have met had nothing been deferred.
    fn feed_checks(&mut self) -> Result<()> {
        self.source_only = false;
        let checks = Arc::clone(self.cascade.check_equations());
        self.solver.add_fixed(checks);
        self.try_final_level()
    }

    /// Recover the final cascade level through the MDS code once `k` of its
    /// block's packets are known — unless every packet of it is known
    /// already, which is what a reception that started with the source
    /// looks like.
    fn try_final_level(&mut self) -> Result<()> {
        let code = self.cascade.final_code();
        if self.final_done || self.solver.is_complete() || self.solver.tail_known() < code.k() {
            return Ok(());
        }
        let level =
            self.cascade.level_offset(self.cascade.num_levels() - 1)..self.cascade.rs_offset();
        if level.clone().all(|g| self.solver.is_known(g)) {
            self.final_done = true;
            return Ok(());
        }
        // Level packets are the systematic part of the block: each one
        // known is one fewer for the MDS code to solve for, at a few XORs.
        for g in level.clone() {
            self.solver.materialize(g);
        }
        // The solve borrows the rows straight out of the store.
        let received: Vec<(usize, &S::Row)> = (level.start..self.cascade.n())
            .filter_map(|g| Some((g - level.start, self.solver.value(g)?)))
            .collect();
        let Some(solved) = S::recover_final_level(code, &received)? else {
            return Ok(());
        };
        self.final_done = true;
        for (g, v) in level.zip(solved) {
            if self.solver.is_complete() {
                break;
            }
            if !self.solver.is_known(g) {
                self.solver.add_unit(g, as_row::<S::Row>(&v))?;
            }
        }
        Ok(())
    }

    /// Borrow the recovered source packets, in order, if decoding is
    /// complete and the values have not been [released](Self::release).
    pub fn source_iter(&self) -> Option<impl ExactSizeIterator<Item = &S::Row> + '_> {
        self.solver.wanted_iter()
    }

    /// A copy of the recovered source packets, if [`Self::source_iter`] has
    /// them.
    pub fn source(&self) -> Option<Vec<S>> {
        Some(self.source_iter()?.map(ToOwned::to_owned).collect())
    }
}

impl PeelingDecoder<Vec<u8>> {
    /// The recovered file, `file_len` bytes: the source rows taken out of the
    /// decoder — the buffer they were written to, not a copy — after which
    /// the decoder is [released](Self::release).  `None` unless the decode is
    /// complete, not released, and `file_len` fits in its `k` rows.
    pub fn take_file(&mut self, file_len: usize) -> Option<Vec<u8>> {
        self.solver.take_wanted(file_len)
    }
}

/// Decoder that carries real packet payloads.
pub type PayloadDecoder = PeelingDecoder<Vec<u8>>;

/// Index-only decoder used by the large-scale reception simulations.
pub type SymbolicDecoder = PeelingDecoder<Mark>;

impl PeelingDecoder<Mark> {
    /// Feed packet indices (no payloads) until the source is recoverable or
    /// the iterator is exhausted; returns the number of packets this call
    /// consumed from the iterator (the paper's reception count — every packet
    /// pulled from the channel counts, whether or not it turned out to be
    /// useful) if decoding completed.
    ///
    /// This is the primitive behind the overhead-distribution experiment
    /// (Figure 2) and the receiver simulations (Figures 4–6).
    pub fn run_until_complete<I>(&mut self, indices: I) -> Option<usize>
    where
        I: IntoIterator<Item = usize>,
    {
        let mut consumed = 0;
        for idx in indices {
            consumed += 1;
            match self.add_packet(idx, Mark) {
                Ok(AddOutcome::Complete) => return Some(consumed),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
        self.is_complete().then_some(consumed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::Cascade;
    use crate::profile::{TornadoProfile, TORNADO_A, TORNADO_B};
    use df_gf::ledger::{self, Work};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn encode_all(cascade: &Cascade, source: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let encoding = crate::encode::encode_file(cascade, &source.concat(), source[0].len());
        encoding.unwrap().rows().map(<[u8]>::to_vec).collect()
    }

    fn random_source(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn decodes_with_all_packets_received() {
        let cascade = Arc::new(Cascade::build(120, TORNADO_A, 1).unwrap());
        let src = random_source(120, 32, 1);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(cascade.clone());
        for (i, p) in enc.iter().enumerate() {
            dec.add_packet(i, p.clone()).unwrap();
        }
        assert!(dec.is_complete());
        assert_eq!(dec.source().unwrap(), src);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn decodes_from_random_subset_with_overhead() {
        let k = 1000;
        let cascade = Arc::new(Cascade::build(k, TORNADO_A, 2).unwrap());
        let src = random_source(k, 64, 2);
        let enc = encode_all(&cascade, &src);
        let trials = 8;
        let mut total_overhead = 0.0;
        for t in 0..trials {
            let mut order: Vec<usize> = (0..cascade.n()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(3 + t);
            order.shuffle(&mut rng);
            let mut dec = PayloadDecoder::new(cascade.clone());
            let mut used = None;
            for (count, &i) in order.iter().enumerate() {
                if dec.add_packet(i, enc[i].clone()).unwrap() == AddOutcome::Complete {
                    used = Some(count + 1);
                    break;
                }
            }
            let used = used.expect("the full encoding must always decode");
            assert_eq!(dec.source().unwrap(), src);
            // Must finish well before the whole encoding has been consumed.
            assert!(
                used < cascade.n(),
                "needed {used} of {} packets",
                cascade.n()
            );
            total_overhead += used as f64 / k as f64 - 1.0;
        }
        // Individual trials fluctuate at this small k, but the average must
        // stay close to the calibrated band (≈ 7 % at k = 1000).
        let mean = total_overhead / trials as f64;
        assert!(mean < 0.2, "unreasonable mean overhead {mean}");
    }

    #[test]
    fn duplicates_are_reported_and_ignored() {
        let cascade = Arc::new(Cascade::build(80, TORNADO_A, 4).unwrap());
        let src = random_source(80, 16, 4);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(cascade.clone());
        assert_eq!(
            dec.add_packet(5, enc[5].clone()).unwrap(),
            AddOutcome::Accepted
        );
        assert_eq!(
            dec.add_packet(5, enc[5].clone()).unwrap(),
            AddOutcome::Duplicate
        );
    }

    #[test]
    fn add_packet_ref_matches_add_packet() {
        let cascade = Arc::new(Cascade::build(300, TORNADO_A, 12).unwrap());
        let src = random_source(300, 24, 12);
        let enc = encode_all(&cascade, &src);
        let mut by_value = PayloadDecoder::new(cascade.clone());
        let mut by_ref = PayloadDecoder::new(cascade.clone());
        for (i, p) in enc.iter().enumerate().rev() {
            let a = by_value.add_packet(i, p.clone()).unwrap();
            let b = by_ref.add_packet_ref(i, p).unwrap();
            assert_eq!(a, b, "packet {i}");
            // Duplicates must also agree (and stay allocation-free by ref).
            assert_eq!(
                by_value.add_packet(i, p.clone()).unwrap(),
                by_ref.add_packet_ref(i, p).unwrap()
            );
            if a == AddOutcome::Complete {
                break;
            }
        }
        assert_eq!(by_value.is_complete(), by_ref.is_complete());
        assert_eq!(by_value.source(), by_ref.source());
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let cascade = Arc::new(Cascade::build(10, TORNADO_A, 5).unwrap());
        let mut dec = PayloadDecoder::new(cascade.clone());
        assert!(dec.add_packet(999, vec![0u8; 4]).is_err());
    }

    #[test]
    fn source_is_none_until_complete() {
        let cascade = Arc::new(Cascade::build(50, TORNADO_A, 6).unwrap());
        let src = random_source(50, 8, 6);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(cascade.clone());
        dec.add_packet(0, enc[0].clone()).unwrap();
        assert!(dec.source().is_none());
        assert!(!dec.is_complete());
    }

    #[test]
    fn a_source_first_reception_holds_only_what_arrived() {
        // Every check becomes computable on the way, the final level with
        // them, and none of it is built: the decode is the k packets fed.
        let k = 500;
        let cascade = Arc::new(Cascade::build(k, TORNADO_A, 7).unwrap());
        assert!(cascade.num_levels() > 1, "premise: a real cascade");
        let src = random_source(k, 48, 7);
        let mut dec = PayloadDecoder::new(cascade.clone());
        for (i, p) in src.iter().enumerate() {
            let expected = if i + 1 < k {
                AddOutcome::Accepted
            } else {
                AddOutcome::Complete
            };
            assert_eq!(dec.add_packet_ref(i, p).unwrap(), expected);
        }
        assert_eq!(dec.held(), k);
        assert!(dec.source_iter().unwrap().eq(src.iter().map(Vec::as_slice)));
    }

    #[test]
    fn a_source_only_prefix_feeds_no_check_equation_and_xors_nothing() {
        let k = 500;
        let cascade = Arc::new(Cascade::build(k, TORNADO_A, 17).unwrap());
        let src = random_source(k, 8, 17);
        let enc = encode_all(&cascade, &src);
        let xors = |since: Work| (ledger::snapshot() - since).xors;
        let start = ledger::snapshot();
        let mut whole = PayloadDecoder::new(cascade.clone());
        for (i, p) in src.iter().enumerate() {
            whole.add_packet_ref(i, p).unwrap();
        }
        assert!(whole.is_complete());
        assert_eq!(xors(start), 0, "a source-only reception is a copy");

        // One source lost: nothing reaches the solver but the k − 1 unit
        // equations until a check arrives.  The first one feeds every
        // check's equation (this one is computable, so a duplicate); the
        // one that covers the missing source then recovers it.
        let start = ledger::snapshot();
        let mut dec = PayloadDecoder::new(cascade.clone());
        for (i, p) in src[..k - 1].iter().enumerate().rev() {
            assert_eq!(dec.add_packet_ref(i, p), Ok(AddOutcome::Accepted));
        }
        assert_eq!(dec.solver.pending_equations(), 0);
        assert_eq!(xors(start), 0);
        let graph = &cascade.graphs()[0];
        let computable = (0..graph.right())
            .find(|&c| !graph.check_neighbors(c).contains(&(k as u32 - 1)))
            .unwrap();
        let computable = cascade.global_index(1, computable);
        assert_eq!(
            dec.add_packet_ref(computable, &enc[computable]),
            Ok(AddOutcome::Duplicate)
        );
        assert!(dec.solver.pending_equations() > 0, "the checks are fed");
        assert_eq!(xors(start), 0, "and nothing is built");
        let covering = cascade.global_index(1, graph.left_neighbors(k - 1)[0] as usize);
        assert_eq!(
            dec.add_packet_ref(covering, &enc[covering]),
            Ok(AddOutcome::Complete)
        );
        assert_eq!(dec.source().unwrap(), src);
    }

    #[test]
    fn a_released_decoder_holds_nothing_and_takes_nothing() {
        let k = 300;
        let cascade = Arc::new(Cascade::build(k, TORNADO_A, 13).unwrap());
        let src = random_source(k, 16, 13);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(cascade.clone());
        for (i, p) in enc.iter().enumerate().rev() {
            if dec.add_packet_ref(i, p).unwrap() == AddOutcome::Complete {
                break;
            }
        }
        assert_eq!(dec.source().unwrap(), src);
        dec.release();
        assert_eq!(dec.held(), 0);
        assert!(dec.is_complete() && dec.source_iter().is_none());
        // Held or not before, every packet is a duplicate now; an index out
        // of range is still an error.
        for i in [0, k, cascade.n() - 1] {
            assert_eq!(
                dec.add_packet_ref(i, &enc[i]).unwrap(),
                AddOutcome::Duplicate
            );
        }
        assert!(dec.add_packet_ref(cascade.n(), &enc[0]).is_err());
        assert_eq!(dec.held(), 0);

        // Released early, a decoder takes nothing more and never completes.
        let mut early = PayloadDecoder::new(cascade.clone());
        early.add_packet_ref(0, &enc[0]).unwrap();
        early.release();
        for (i, p) in enc.iter().enumerate() {
            assert_eq!(early.add_packet_ref(i, p).unwrap(), AddOutcome::Duplicate);
        }
        assert!(!early.is_complete() && early.held() == 0);
    }

    #[test]
    fn the_file_is_the_source_slab_whatever_order_the_rows_came_in() {
        let k = 120;
        let cascade = Arc::new(Cascade::build(k, TORNADO_A, 14).unwrap());
        let src = random_source(k, 9, 14);
        let enc = encode_all(&cascade, &src);
        let file_len = 9 * k - 4;
        let file = src.concat()[..file_len].to_vec();
        // The first row to arrive is a source row out of order, and the
        // rest come back to front: every source row is written in place.
        for first in [5, k - 1, 0] {
            let mut dec = PayloadDecoder::new(cascade.clone());
            assert_eq!(
                dec.add_packet_ref(first, &enc[first]),
                Ok(AddOutcome::Accepted)
            );
            assert_eq!(dec.take_file(file_len), None, "not complete");
            for (i, p) in enc.iter().enumerate().rev() {
                if dec.add_packet_ref(i, p).unwrap() == AddOutcome::Complete {
                    break;
                }
            }
            assert!(dec.source_iter().unwrap().eq(src.iter().map(Vec::as_slice)));
            assert_eq!(dec.take_file(file_len).as_ref(), Some(&file));
            assert_eq!(dec.held(), 0);
            assert!(dec.is_complete() && dec.source_iter().is_none());
            assert_eq!(dec.take_file(file_len), None, "taken once");
        }
    }

    #[test]
    fn a_payload_of_another_length_is_refused_before_it_counts() {
        let cascade = Arc::new(Cascade::build(80, TORNADO_A, 15).unwrap());
        let src = random_source(80, 16, 15);
        let mut dec = PayloadDecoder::new(cascade.clone());
        dec.add_packet_ref(3, &src[3]).unwrap();
        assert!(matches!(
            dec.add_packet_ref(4, &src[4][..15]),
            Err(TornadoError::MalformedInput { .. })
        ));
        assert_eq!(dec.held(), 1);
        assert_eq!(dec.add_packet_ref(4, &src[4]), Ok(AddOutcome::Accepted));
    }

    #[test]
    fn odd_gf16_check_rows_are_kept_two_bytes_wider() {
        // Tornado B below its cascade threshold is one block, GF(2^16) past
        // 256 packets; at an odd packet size its checks are 9 bytes for
        // 7-byte packets.
        let k = 130;
        let cascade = Arc::new(Cascade::build(k, TORNADO_B, 16).unwrap());
        assert!(matches!(cascade.final_code(), crate::FinalCode::Large(_)));
        let src = random_source(k, 7, 16);
        let enc = encode_all(&cascade, &src);
        assert_eq!(enc[cascade.rs_offset()].len(), 9);
        // Checks first, so the slab learns the packet size from a wide row.
        let mut dec = PayloadDecoder::new(cascade.clone());
        for i in (k..cascade.n()).chain(0..k) {
            if dec.add_packet_ref(i, &enc[i]).unwrap() == AddOutcome::Complete {
                break;
            }
        }
        assert_eq!(dec.source().unwrap(), src);
    }

    #[test]
    fn a_computable_check_arriving_late_is_a_duplicate() {
        let k = 500;
        let cascade = Arc::new(Cascade::build(k, TORNADO_A, 8).unwrap());
        let src = random_source(k, 16, 8);
        let enc = encode_all(&cascade, &src);
        // All but the last source packet: some level-1 check has every
        // neighbour among them.
        let graph = &cascade.graphs()[0];
        let check = (0..graph.right())
            .find(|&c| !graph.check_neighbors(c).contains(&(k as u32 - 1)))
            .unwrap();
        let g = cascade.global_index(1, check);
        let mut dec = PayloadDecoder::new(cascade.clone());
        for (i, p) in src[..k - 1].iter().enumerate() {
            dec.add_packet_ref(i, p).unwrap();
        }
        assert_eq!(
            dec.add_packet_ref(g, &enc[g]).unwrap(),
            AddOutcome::Duplicate
        );
        assert_eq!(dec.held(), k - 1, "neither built nor stored");
        // A check that does cover the missing packet recovers it, building
        // nothing but that one packet.
        let covering = cascade.global_index(1, graph.left_neighbors(k - 1)[0] as usize);
        assert_eq!(
            dec.add_packet_ref(covering, &enc[covering]).unwrap(),
            AddOutcome::Complete
        );
        assert_eq!(dec.held(), k + 1);
        assert_eq!(dec.source().unwrap(), src);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn symbolic_and_payload_decoders_agree() {
        let k = 800;
        let cascade = Arc::new(Cascade::build(k, TORNADO_A, 9).unwrap());
        let src = random_source(k, 24, 9);
        let enc = encode_all(&cascade, &src);
        for trial in 0..5u64 {
            let mut order: Vec<usize> = (0..cascade.n()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(100 + trial);
            order.shuffle(&mut rng);
            let mut sym = SymbolicDecoder::new(cascade.clone());
            let mut pay = PayloadDecoder::new(cascade.clone());
            for &i in &order {
                let s = sym.add_packet(i, Mark).unwrap();
                let p = pay.add_packet(i, enc[i].clone()).unwrap();
                assert_eq!(s, p, "decoders disagree at packet {i} of trial {trial}");
                if s == AddOutcome::Complete {
                    break;
                }
            }
            assert_eq!(sym.is_complete(), pay.is_complete());
            assert_eq!(pay.source().unwrap(), src);
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn both_profiles_stay_in_their_calibrated_overhead_band() {
        // Guards the calibration recorded in EXPERIMENTS.md: at a 8 MB-class
        // file both profiles must keep the mean reception overhead near 10 %
        // and never blow past 25 % (the long stopping-set tails that the
        // low-degree conditioning in `graph.rs` exists to prevent).
        let k = 8264;
        let trials = 10u64;
        for profile in [TORNADO_A, TORNADO_B] {
            let cascade = Arc::new(Cascade::build(k, profile, 10).unwrap());
            let mut total = 0.0f64;
            let mut worst = 0.0f64;
            for t in 0..trials {
                let mut order: Vec<usize> = (0..cascade.n()).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + t);
                order.shuffle(&mut rng);
                let mut dec = SymbolicDecoder::new(cascade.clone());
                let used = dec
                    .run_until_complete(order)
                    .expect("full encoding decodes");
                let eps = used as f64 / k as f64 - 1.0;
                total += eps;
                worst = worst.max(eps);
            }
            let mean = total / trials as f64;
            assert!(mean < 0.15, "{}: mean overhead {mean}", profile.name);
            assert!(worst < 0.25, "{}: worst overhead {worst}", profile.name);
        }
    }

    #[test]
    fn small_pure_rs_cascade_has_zero_overhead() {
        // Below the cascade threshold the code is a single MDS block, so any
        // k packets decode with zero overhead.
        let k = 60;
        let cascade = Arc::new(Cascade::build(k, TORNADO_A, 11).unwrap());
        assert_eq!(cascade.num_levels(), 1);
        let src = random_source(k, 20, 11);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(cascade.clone());
        let outcomes: Vec<AddOutcome> = (k..2 * k)
            .map(|i| dec.add_packet(i, enc[i].clone()).unwrap())
            .collect();
        assert!(outcomes[..k - 1].iter().all(|&o| o == AddOutcome::Accepted));
        assert_eq!(outcomes[k - 1], AddOutcome::Complete);
        assert_eq!(dec.source().unwrap(), src);
    }

    #[test]
    fn run_until_complete_counts_only_what_it_consumes() {
        let k = 500;
        let cascade = Arc::new(Cascade::build(k, TORNADO_A, 18).unwrap());
        let mut order: Vec<usize> = (0..cascade.n()).collect();
        order.shuffle(&mut ChaCha8Rng::seed_from_u64(18));
        let needed = SymbolicDecoder::new(cascade.clone())
            .run_until_complete(order.iter().copied())
            .expect("the whole encoding decodes");
        // A decoder that already holds part of the reception counts only the
        // rest: the packets this call pulled from the iterator.
        let fed = 100;
        let mut dec = SymbolicDecoder::new(cascade);
        for &i in &order[..fed] {
            dec.add_packet(i, Mark).unwrap();
        }
        let rest = dec.run_until_complete(order[fed..].iter().copied());
        assert_eq!(rest, Some(needed - fed));
        assert_eq!(dec.run_until_complete(std::iter::empty()), Some(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any random reception order of the full encoding decodes, and the
        /// payload decoder reproduces the source exactly.
        #[test]
        fn prop_random_orders_decode(
            k in 20usize..400,
            len in 1usize..32,
            seed in any::<u64>(),
        ) {
            let profile = TornadoProfile::tornado_a();
            let cascade = Arc::new(Cascade::build(k, profile, seed).unwrap());
            let src = random_source(k, len * 2, seed ^ 1); // even length for GF(2^16) safety
            let enc = encode_all(&cascade, &src);
            let mut order: Vec<usize> = (0..cascade.n()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 2);
            order.shuffle(&mut rng);
            let mut dec = PayloadDecoder::new(cascade.clone());
            for &i in &order {
                if dec.add_packet(i, enc[i].clone()).unwrap() == AddOutcome::Complete {
                    break;
                }
            }
            prop_assert!(dec.is_complete());
            prop_assert_eq!(dec.source().unwrap(), src);
        }
    }
}

//! The peeling (substitution) decoder for Tornado codes.
//!
//! Decoding is the process described in Section 5.1 of the paper: every check
//! packet is the XOR of its neighbours in the previous cascade level, so a
//! known check packet with exactly one unknown neighbour yields that
//! neighbour, and a check packet whose neighbours are all known is itself
//! known.  The final cascade level is recovered through the conventional MDS
//! code as soon as enough of its block is known.  The decoder runs this
//! relaxation after every packet arrival and stops at the packet that makes
//! the source level known.
//!
//! Arrival only *counts*: a packet that becomes known decrements the
//! unknown-neighbour count of its checks, and a check whose count reaches
//! zero is *computable* — counted as known, its value not built.  XORs are
//! spent at release, when a held check with one missing neighbour recovers
//! it (building the computable neighbours it needs, once each).  A reception
//! that already contains the source therefore performs no XOR at all, and no
//! check costs anything unless a recovery goes through it.
//!
//! Until a packet other than a source packet arrives, arrival does not even
//! count.  Source packets alone recover nothing, so while the reception is
//! source-only each one is kept in its row and tallied, and no check hears of
//! it.  The first check or final-block packet pays for the prefix once: the
//! held sources are settled in index order before that packet is judged, so
//! a check they already make computable is still a duplicate.  A lossless
//! one-layer carousel receiver, which has the whole source before any check,
//! therefore does nothing per packet but copy it.
//!
//! The decoder is generic over [`Symbol`]: with `Vec<u8>` it produces real
//! payloads, with [`crate::symbol::Mark`] it is the index-only decoder
//! used by the reception-efficiency simulations (Figures 4–6).  The symbol
//! type also chooses where the values live ([`crate::store`]): a payload
//! decoder keeps its source rows in one buffer laid out as the file and its
//! check rows in a second, so what it holds is one file plus the check rows
//! the decode needed, and a finished decode hands the file over without a
//! copy ([`PeelingDecoder::take_file`]).
//!
//! A decoder owns only its per-download state.  The graphs, and the checks'
//! initial unknown-neighbour counts, belong to the [`Cascade`] — which every
//! session of one code in a process shares (see [`crate::codec`]) — so
//! creating a decoder allocates its per-packet flags and a copy of those
//! counts, and nothing sized by the file: a payload decoder reserves the
//! file's bytes, without touching them, at its first packet.  A finished
//! one can [`PeelingDecoder::release`] what it holds, or give its source
//! rows away as the file.

use crate::cascade::{Cascade, PacketRole};
use crate::error::{Result, TornadoError};
use crate::store::{StoreShape, SymbolStore};
use crate::symbol::{Mark, Symbol};
use std::borrow::Borrow;
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

/// One bit per packet.
#[derive(Debug, Clone, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
}

/// Incremental peeling decoder over an agreed [`Cascade`].
///
/// Generic over how the cascade is held (`C`): a plain reference for
/// short-lived decoders ([`PayloadDecoder`], [`SymbolicDecoder`]) or an
/// [`Arc`] for decoders that must live independently of the code that created
/// them ([`OwnedPayloadDecoder`]) — e.g. a protocol session that feeds one
/// decoder for the length of a download.
#[derive(Debug, Clone)]
pub struct PeelingDecoder<S: Symbol, C: Borrow<Cascade> + Clone> {
    cascade: C,
    /// Value of every encoding packet (global index) the decoder holds:
    /// received, recovered, or built from its neighbours on demand.
    store: S::Store,
    /// Packets whose value is in `store`; empty once released.
    holds: Bits,
    /// Packets that are held or computable.
    known: Vec<bool>,
    /// Per check node (levels 1..): left neighbours not yet known.
    unknown_left: Vec<u32>,
    /// Global index of the first check node (= first packet of level 1), when
    /// the cascade has more than one level.
    check_base: usize,
    /// Packets that just became known and have not been settled; empty
    /// between calls, kept so that an arrival allocates nothing.
    worklist: Vec<usize>,
    /// Values currently stored in `store`.
    held: usize,
    /// Distinct packets received from the channel.
    received_distinct: usize,
    /// Packets offered including duplicates.
    received_total: usize,
    /// Known packets among the source level.
    source_known: usize,
    /// Known packets among the final block (last level + RS checks).
    rs_block_known: usize,
    /// Whether the final level is fully known, through the MDS code or
    /// without it.
    rs_done: bool,
    /// Every packet so far is a source packet, and none of them has been
    /// settled: nothing can be recovered yet, so the checks' counts wait
    /// for the first packet that could use them ([`Self::catch_up`]).
    /// Never set for a single-level cascade.
    source_only: bool,
    /// Packets settled so far, to pin the deferral in tests.
    #[cfg(test)]
    settled: usize,
}

impl<S: Symbol, C: Borrow<Cascade> + Clone> PeelingDecoder<S, C> {
    /// Create a decoder for the given cascade with no packets received yet.
    pub fn new(cascade: C) -> Self {
        let c: &Cascade = cascade.borrow();
        let check_base = if c.num_levels() > 1 {
            c.level_offset(1)
        } else {
            c.rs_offset()
        };
        let unknown_left = c.check_degrees().to_vec();
        debug_assert_eq!(unknown_left.len(), c.rs_offset() - check_base);
        let n = c.n();
        PeelingDecoder {
            store: S::Store::empty(StoreShape::of(c)),
            holds: Bits::new(n),
            known: vec![false; n],
            unknown_left,
            check_base,
            worklist: Vec::new(),
            held: 0,
            received_distinct: 0,
            received_total: 0,
            source_known: 0,
            rs_block_known: 0,
            rs_done: false,
            source_only: c.num_levels() > 1,
            #[cfg(test)]
            settled: 0,
            cascade,
        }
    }

    /// The cascade this decoder operates on.
    pub fn cascade(&self) -> &Cascade {
        self.cascade.borrow()
    }

    /// True once every source packet is known.
    pub fn is_complete(&self) -> bool {
        self.source_known == self.cascade.borrow().k()
    }

    /// Distinct packets received from the channel so far.
    pub fn received_distinct(&self) -> usize {
        self.received_distinct
    }

    /// Total packets offered, including duplicates.
    pub fn received_total(&self) -> usize {
        self.received_total
    }

    /// Packet values the decoder stores — its memory footprint in packets,
    /// at most `n` whatever is fed, and `0` after [`Self::release`].
    pub fn held(&self) -> usize {
        self.held
    }

    /// Let go of every packet value, for a caller that has copied what it
    /// needs out of [`Self::source_iter`] and keeps the decoder only for its
    /// counters.  Completion and the reception counts stay as they are;
    /// [`Self::source_iter`] answers `None` from here on and every further
    /// packet is a [`AddOutcome::Duplicate`] (so a decoder released before
    /// it completed never completes).
    pub fn release(&mut self) {
        self.store.clear();
        self.holds = Bits::default();
        self.held = 0;
    }

    /// `holds` has a bit per packet (`n ≥ 2`) until it is released.
    fn released(&self) -> bool {
        self.holds.0.is_empty()
    }

    /// Reception overhead so far: `received_total / k − 1`.
    ///
    /// Matches the paper's definition: overhead ε means `(1 + ε)·k` encoding
    /// packets had to be pulled from the channel to reconstruct the source
    /// data.  Every received packet counts, including ones whose content the
    /// decoder had already recovered or already received.
    pub fn reception_overhead(&self) -> f64 {
        self.received_total as f64 / self.cascade.borrow().k() as f64 - 1.0
    }

    /// Feed one encoding packet to the decoder.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] for an out-of-range index or
    /// a payload the store refuses — one whose length does not fit the
    /// packets already held, or a first one whose file the allocator cannot
    /// reserve (see [`crate::Slab`]) — and propagates final-code errors,
    /// after which the decoder may never complete: what the packet would
    /// have released is not revisited.
    pub fn add_packet(&mut self, index: usize, value: S) -> Result<AddOutcome> {
        if self.register(index)? {
            return Ok(AddOutcome::Duplicate);
        }
        self.store.insert_owned(index, value)?;
        self.accept_new(index)
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
        if self.register(index)? {
            return Ok(AddOutcome::Duplicate);
        }
        self.store.insert(index, value)?;
        self.accept_new(index)
    }

    /// Validate `index`, count the reception, and report whether the packet
    /// is a duplicate — as every packet is to a released decoder.
    fn register(&mut self, index: usize) -> Result<bool> {
        if index >= self.cascade.borrow().n() {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "packet index {index} out of range for n = {}",
                    self.cascade.borrow().n()
                ),
            });
        }
        self.received_total += 1;
        if self.released() {
            return Ok(true);
        }
        if self.source_only && index >= self.cascade.borrow().k() {
            self.catch_up()?;
        }
        Ok(self.known[index])
    }

    /// Count a new packet, whose value the store now has, and run peeling —
    /// or, while only source packets have arrived, just keep it.
    fn accept_new(&mut self, index: usize) -> Result<AddOutcome> {
        self.received_distinct += 1;
        if self.source_only {
            self.hold(index);
            self.known[index] = true;
            self.source_known += 1;
            return Ok(if self.is_complete() {
                AddOutcome::Complete
            } else {
                AddOutcome::Accepted
            });
        }
        // Clone the cascade handle (a pointer copy / `Arc` bump) so the graph
        // borrow is independent of `self` while the decoder state mutates.
        let cascade = self.cascade.clone();
        self.learn(index);
        let outcome = self.peel(cascade.borrow());
        self.worklist.clear();
        outcome
    }

    /// Leave the source-only state: settle every held source packet, in
    /// index order, as if each had been peeled on arrival.  Held sources
    /// alone recover nothing, so this only counts — each check learns its
    /// known neighbours, and whatever that makes computable is known — and
    /// the packet that ended the state then meets the same decoder it would
    /// have met had nothing been deferred.
    fn catch_up(&mut self) -> Result<()> {
        self.source_only = false;
        let cascade = self.cascade.clone();
        // `settle` counts each source again.
        self.source_known = 0;
        for g in 0..cascade.borrow().k() {
            if self.known[g] {
                self.worklist.push(g);
                self.peel(cascade.borrow())?;
            }
        }
        self.worklist.clear();
        Ok(())
    }

    /// Settle the worklist until it runs dry or the source is known: what
    /// else the packet would have made known no longer matters.
    fn peel(&mut self, cascade: &Cascade) -> Result<AddOutcome> {
        while !self.is_complete() {
            let Some(g) = self.worklist.pop() else {
                return Ok(AddOutcome::Accepted);
            };
            self.settle(cascade, g)?;
        }
        Ok(AddOutcome::Complete)
    }

    /// Borrow the recovered source packets, in order, if decoding is
    /// complete and the values have not been [released](Self::release).
    pub fn source_iter(&self) -> Option<impl ExactSizeIterator<Item = &S::Row> + '_> {
        (self.is_complete() && !self.released())
            .then(|| (0..self.cascade.borrow().k()).map(|g| self.store.row(g)))
    }

    /// A copy of the recovered source packets, if [`Self::source_iter`] has
    /// them.
    pub fn source(&self) -> Option<Vec<S>> {
        Some(self.source_iter()?.map(ToOwned::to_owned).collect())
    }

    /// Packet `g`, whose value the store has just been given, is known and
    /// held: queue it for [`Self::settle`].
    fn learn(&mut self, g: usize) {
        debug_assert!(!self.known[g]);
        self.hold(g);
        self.known[g] = true;
        self.worklist.push(g);
    }

    fn hold(&mut self, g: usize) {
        self.holds.set(g);
        self.held += 1;
    }

    /// Packet `g` just became known (held or computable): count it, tell the
    /// checks above it, and queue whatever that makes known.
    fn settle(&mut self, cascade: &Cascade, g: usize) -> Result<()> {
        #[cfg(test)]
        {
            self.settled += 1;
        }
        match cascade.role(g) {
            PacketRole::Level { level, pos } => {
                if level == 0 {
                    self.source_known += 1;
                }
                if level + 1 == cascade.num_levels() {
                    self.rs_block_known += 1;
                } else {
                    let check_offset = cascade.level_offset(level + 1);
                    for &c in cascade.graphs()[level].left_neighbors(pos) {
                        let check = check_offset + c as usize;
                        let unknown = &mut self.unknown_left[check - self.check_base];
                        *unknown -= 1;
                        match *unknown {
                            // Every neighbour known: the check is computable
                            // (it feeds the level above and the final block),
                            // but nothing is XORed until something needs it.
                            0 if !self.known[check] => {
                                self.known[check] = true;
                                self.worklist.push(check);
                            }
                            1 if self.holds.get(check) => self.recover_neighbor(cascade, check),
                            _ => {}
                        }
                    }
                }
                // As a held check of the graph below: it may now resolve its
                // one unknown neighbour.  (A computable check has none.)
                if level >= 1 && self.holds.get(g) && self.unknown_left[g - self.check_base] == 1 {
                    self.recover_neighbor(cascade, g);
                }
            }
            PacketRole::RsCheck { .. } => self.rs_block_known += 1,
        }
        // The final level becomes recoverable as soon as k of its block's
        // packets are known.
        if !self.rs_done && !self.is_complete() && self.rs_block_known >= cascade.final_code().k() {
            self.try_final_level(cascade)?;
        }
        Ok(())
    }

    /// The left neighbours of check node `check`, as global indices.
    fn neighbors_below(cascade: &Cascade, check: usize) -> impl Iterator<Item = usize> + '_ {
        let PacketRole::Level { level, pos } = cascade.role(check) else {
            unreachable!("check nodes are level packets");
        };
        let left_offset = cascade.level_offset(level - 1);
        cascade.graphs()[level - 1]
            .check_neighbors(pos)
            .iter()
            .map(move |&l| left_offset + l as usize)
    }

    /// Recover the one unknown neighbour of held check node `check`: the
    /// check's value XOR every other neighbour.
    fn recover_neighbor(&mut self, cascade: &Cascade, check: usize) {
        // None when the neighbour still counted as unknown is a computable
        // check waiting in the worklist.
        let Some(missing) = Self::neighbors_below(cascade, check).find(|&g| !self.known[g]) else {
            return;
        };
        let others = || Self::neighbors_below(cascade, check).filter(move |&g| g != missing);
        for g in others() {
            self.materialize(cascade, g);
        }
        self.store
            .combine(missing, std::iter::once(check).chain(others()));
        self.learn(missing);
    }

    /// Build and keep the value of computable check `g` from its neighbours
    /// (building those first where they are computable too); no-op when `g`
    /// is held.
    fn materialize(&mut self, cascade: &Cascade, g: usize) {
        if self.holds.get(g) {
            return;
        }
        debug_assert!(self.known[g]);
        for below in Self::neighbors_below(cascade, g) {
            self.materialize(cascade, below);
        }
        self.store.combine(g, Self::neighbors_below(cascade, g));
        self.hold(g);
    }

    /// Recover the final cascade level through the MDS code — unless every
    /// packet of it is known already, which is what a reception that started
    /// with the source looks like.
    fn try_final_level(&mut self, cascade: &Cascade) -> Result<()> {
        let last_level = cascade.num_levels() - 1;
        let level_offset = cascade.level_offset(last_level);
        let level = level_offset..level_offset + cascade.level_sizes()[last_level];
        let rs_offset = cascade.rs_offset();

        if level.clone().all(|g| self.known[g]) {
            self.rs_done = true;
            return Ok(());
        }
        // Level packets are the systematic part of the block: each one held
        // is one fewer for the MDS code to solve for, at a few XORs.
        for g in level.clone() {
            if self.known[g] {
                self.materialize(cascade, g);
            }
        }
        // Borrow the rows straight out of the store: the solve never copies
        // a payload to marshal its input.
        let received: Vec<(usize, &S::Row)> = (level.clone().chain(rs_offset..cascade.n()))
            .filter(|&g| self.holds.get(g))
            .map(|g| (g - level_offset, self.store.row(g)))
            .collect();
        if let Some(solved) = S::recover_final_level(cascade.final_code(), &received)? {
            self.rs_done = true;
            for (g, v) in level.zip(solved) {
                if !self.known[g] {
                    self.store.insert_owned(g, v)?;
                    self.learn(g);
                }
            }
        }
        Ok(())
    }
}

impl<C: Borrow<Cascade> + Clone> PeelingDecoder<Vec<u8>, C> {
    /// The recovered file, `file_len` bytes: the source rows taken out of the
    /// decoder — the buffer they were written to, not a copy — after which
    /// the decoder is [released](Self::release).  `None` unless the decode is
    /// complete, not released, and `file_len` fits in its `k` rows.
    pub fn take_file(&mut self, file_len: usize) -> Option<Vec<u8>> {
        if !self.is_complete() || self.released() {
            return None;
        }
        let file = self.store.take_source(file_len)?;
        self.release();
        Some(file)
    }
}

/// Decoder that carries real packet payloads, borrowing its cascade.
pub type PayloadDecoder<'a> = PeelingDecoder<Vec<u8>, &'a Cascade>;

/// Index-only decoder used by the large-scale reception simulations.
pub type SymbolicDecoder<'a> = PeelingDecoder<Mark, &'a Cascade>;

/// Payload decoder that *owns* (a share of) its cascade, so it can outlive
/// the [`crate::TornadoCode`] borrow that created it.  This is the decoder a
/// protocol session holds for the length of a download, feeding each distinct
/// packet as it arrives.
pub type OwnedPayloadDecoder = PeelingDecoder<Vec<u8>, Arc<Cascade>>;

/// Index-only decoder that owns a share of its cascade (see
/// [`OwnedPayloadDecoder`]).
pub type OwnedSymbolicDecoder = PeelingDecoder<Mark, Arc<Cascade>>;

impl<C: Borrow<Cascade> + Clone> PeelingDecoder<Mark, C> {
    /// Feed packet indices (no payloads) until the source is recoverable or
    /// the iterator is exhausted; returns the total number of packets consumed
    /// from the iterator (the paper's reception count — every packet pulled
    /// from the channel counts, whether or not it turned out to be useful) if
    /// decoding completed.
    ///
    /// This is the primitive behind the overhead-distribution experiment
    /// (Figure 2) and the receiver simulations (Figures 4–6).
    pub fn run_until_complete<I>(&mut self, indices: I) -> Option<usize>
    where
        I: IntoIterator<Item = usize>,
    {
        for idx in indices {
            match self.add_packet(idx, Mark) {
                Ok(AddOutcome::Complete) => return Some(self.received_total()),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
        if self.is_complete() {
            Some(self.received_total())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::Cascade;
    use crate::profile::{TornadoProfile, TORNADO_A, TORNADO_B};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn encode_all(cascade: &Cascade, source: &[Vec<u8>]) -> Vec<Vec<u8>> {
        crate::encode::encode(cascade, source).unwrap()
    }

    fn random_source(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn decodes_with_all_packets_received() {
        let cascade = Cascade::build(120, TORNADO_A, 1).unwrap();
        let src = random_source(120, 32, 1);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(&cascade);
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
        let cascade = Cascade::build(k, TORNADO_A, 2).unwrap();
        let src = random_source(k, 64, 2);
        let enc = encode_all(&cascade, &src);
        let trials = 8;
        let mut total_overhead = 0.0;
        for t in 0..trials {
            let mut order: Vec<usize> = (0..cascade.n()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(3 + t);
            order.shuffle(&mut rng);
            let mut dec = PayloadDecoder::new(&cascade);
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
        let cascade = Cascade::build(80, TORNADO_A, 4).unwrap();
        let src = random_source(80, 16, 4);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(&cascade);
        assert_eq!(
            dec.add_packet(5, enc[5].clone()).unwrap(),
            AddOutcome::Accepted
        );
        assert_eq!(
            dec.add_packet(5, enc[5].clone()).unwrap(),
            AddOutcome::Duplicate
        );
        assert_eq!(dec.received_distinct(), 1);
        assert_eq!(dec.received_total(), 2);
    }

    #[test]
    fn add_packet_ref_matches_add_packet() {
        let cascade = Cascade::build(300, TORNADO_A, 12).unwrap();
        let src = random_source(300, 24, 12);
        let enc = encode_all(&cascade, &src);
        let mut by_value = PayloadDecoder::new(&cascade);
        let mut by_ref = PayloadDecoder::new(&cascade);
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
        assert_eq!(by_value.received_total(), by_ref.received_total());
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let cascade = Cascade::build(10, TORNADO_A, 5).unwrap();
        let mut dec = PayloadDecoder::new(&cascade);
        assert!(dec.add_packet(999, vec![0u8; 4]).is_err());
    }

    #[test]
    fn source_is_none_until_complete() {
        let cascade = Cascade::build(50, TORNADO_A, 6).unwrap();
        let src = random_source(50, 8, 6);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(&cascade);
        dec.add_packet(0, enc[0].clone()).unwrap();
        assert!(dec.source().is_none());
        assert!(!dec.is_complete());
    }

    #[test]
    fn a_source_first_reception_holds_only_what_arrived() {
        // Every check becomes computable on the way, the final level with
        // them, and none of it is built: the decode is the k packets fed.
        let k = 500;
        let cascade = Cascade::build(k, TORNADO_A, 7).unwrap();
        assert!(cascade.num_levels() > 1, "premise: a real cascade");
        let src = random_source(k, 48, 7);
        let mut dec = PayloadDecoder::new(&cascade);
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
    fn a_source_first_reception_settles_nothing_until_a_check_arrives() {
        let k = 500;
        let cascade = Cascade::build(k, TORNADO_A, 17).unwrap();
        let src = random_source(k, 8, 17);
        let enc = encode_all(&cascade, &src);
        let mut whole = PayloadDecoder::new(&cascade);
        for (i, p) in src.iter().enumerate() {
            whole.add_packet_ref(i, p).unwrap();
        }
        assert!(whole.is_complete());
        assert_eq!(whole.settled, 0, "a source-only reception is a copy");

        // One source lost: the check that covers it settles the k − 1 held
        // sources once, and then recovers the missing one.
        let mut dec = PayloadDecoder::new(&cascade);
        for (i, p) in src[..k - 1].iter().enumerate().rev() {
            assert_eq!(dec.add_packet_ref(i, p), Ok(AddOutcome::Accepted));
        }
        assert_eq!(dec.settled, 0);
        let graph = &cascade.graphs()[0];
        let covering = cascade.global_index(1, graph.left_neighbors(k - 1)[0] as usize);
        assert_eq!(
            dec.add_packet_ref(covering, &enc[covering]),
            Ok(AddOutcome::Complete)
        );
        assert!(dec.settled >= k, "settled {}", dec.settled);
        assert_eq!(dec.source().unwrap(), src);
    }

    #[test]
    fn a_released_decoder_keeps_its_counters_and_nothing_else() {
        let k = 300;
        let cascade = Cascade::build(k, TORNADO_A, 13).unwrap();
        let src = random_source(k, 16, 13);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(&cascade);
        for (i, p) in enc.iter().enumerate().rev() {
            if dec.add_packet_ref(i, p).unwrap() == AddOutcome::Complete {
                break;
            }
        }
        assert_eq!(dec.source().unwrap(), src);
        let (distinct, total) = (dec.received_distinct(), dec.received_total());
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
        assert_eq!(
            (dec.received_distinct(), dec.received_total(), dec.held()),
            (distinct, total + 3, 0)
        );

        // Released early, a decoder takes nothing more and never completes.
        let mut early = PayloadDecoder::new(&cascade);
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
        let cascade = Cascade::build(k, TORNADO_A, 14).unwrap();
        let src = random_source(k, 9, 14);
        let enc = encode_all(&cascade, &src);
        let file_len = 9 * k - 4;
        let file = crate::reassemble_file(&src, file_len);
        // The first row to arrive is a source row out of order, and the
        // rest come back to front: every source row is written in place.
        for first in [5, k - 1, 0] {
            let mut dec = PayloadDecoder::new(&cascade);
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
        let cascade = Cascade::build(80, TORNADO_A, 15).unwrap();
        let src = random_source(80, 16, 15);
        let mut dec = PayloadDecoder::new(&cascade);
        dec.add_packet_ref(3, &src[3]).unwrap();
        assert!(matches!(
            dec.add_packet_ref(4, &src[4][..15]),
            Err(TornadoError::MalformedInput { .. })
        ));
        assert_eq!((dec.held(), dec.received_distinct()), (1, 1));
        assert_eq!(dec.add_packet_ref(4, &src[4]), Ok(AddOutcome::Accepted));
    }

    #[test]
    fn odd_gf16_check_rows_are_kept_two_bytes_wider() {
        // Tornado B below its cascade threshold is one block, GF(2^16) past
        // 256 packets; at an odd packet size its checks are 9 bytes for
        // 7-byte packets.
        let k = 130;
        let cascade = Cascade::build(k, TORNADO_B, 16).unwrap();
        assert!(matches!(cascade.final_code(), crate::FinalCode::Large(_)));
        let src = random_source(k, 7, 16);
        let enc = encode_all(&cascade, &src);
        assert_eq!(enc[cascade.rs_offset()].len(), 9);
        // Checks first, so the slab learns the packet size from a wide row.
        let mut dec = PayloadDecoder::new(&cascade);
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
        let cascade = Cascade::build(k, TORNADO_A, 8).unwrap();
        let src = random_source(k, 16, 8);
        let enc = encode_all(&cascade, &src);
        // All but the last source packet: some level-1 check has every
        // neighbour among them.
        let graph = &cascade.graphs()[0];
        let check = (0..graph.right())
            .find(|&c| !graph.check_neighbors(c).contains(&(k as u32 - 1)))
            .unwrap();
        let g = cascade.global_index(1, check);
        let mut dec = PayloadDecoder::new(&cascade);
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
        let cascade = Cascade::build(k, TORNADO_A, 9).unwrap();
        let src = random_source(k, 24, 9);
        let enc = encode_all(&cascade, &src);
        for trial in 0..5u64 {
            let mut order: Vec<usize> = (0..cascade.n()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(100 + trial);
            order.shuffle(&mut rng);
            let mut sym = SymbolicDecoder::new(&cascade);
            let mut pay = PayloadDecoder::new(&cascade);
            for &i in &order {
                let s = sym.add_packet(i, Mark).unwrap();
                let p = pay.add_packet(i, enc[i].clone()).unwrap();
                assert_eq!(s, p, "decoders disagree at packet {i} of trial {trial}");
                if s == AddOutcome::Complete {
                    break;
                }
            }
            assert_eq!(sym.is_complete(), pay.is_complete());
            assert_eq!(sym.received_distinct(), pay.received_distinct());
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
            let cascade = Cascade::build(k, profile, 10).unwrap();
            let mut total = 0.0f64;
            let mut worst = 0.0f64;
            for t in 0..trials {
                let mut order: Vec<usize> = (0..cascade.n()).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + t);
                order.shuffle(&mut rng);
                let mut dec = SymbolicDecoder::new(&cascade);
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
        let cascade = Cascade::build(k, TORNADO_A, 11).unwrap();
        assert_eq!(cascade.num_levels(), 1);
        let src = random_source(k, 20, 11);
        let enc = encode_all(&cascade, &src);
        let rx: Vec<usize> = (k..2 * k).collect();
        let mut dec = PayloadDecoder::new(&cascade);
        for i in rx {
            dec.add_packet(i, enc[i].clone()).unwrap();
        }
        assert!(dec.is_complete());
        assert_eq!(dec.source().unwrap(), src);
        assert_eq!(dec.received_distinct(), k);
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
            let cascade = Cascade::build(k, profile, seed).unwrap();
            let src = random_source(k, len * 2, seed ^ 1); // even length for GF(2^16) safety
            let enc = encode_all(&cascade, &src);
            let mut order: Vec<usize> = (0..cascade.n()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 2);
            order.shuffle(&mut rng);
            let mut dec = PayloadDecoder::new(&cascade);
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

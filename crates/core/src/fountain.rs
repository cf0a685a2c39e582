//! The digital-fountain abstraction and the carousel approximation.
//!
//! Section 3 of the paper defines the *ideal* digital fountain: an unbounded
//! stream of distinct encoding packets from which **any** subset of size `k`
//! reconstructs the source.  Section 4 approximates it by encoding with a
//! fixed stretch factor and cycling through the `n` encoding packets (the
//! carousel): a receiver that joins at an arbitrary time and suffers
//! arbitrary loss keeps listening until its decoder completes.
//!
//! [`PacketStream`] is the common interface; [`Carousel`] is the concrete
//! approximation used by the simulations and the prototype server.  The
//! carousel transmits a fresh pseudo-random permutation of the encoding on
//! every cycle, which is what the paper's simulations do ("the server then
//! simply cycled through a random permutation of the source and redundant
//! packets", Section 7.1).
//!
//! The receiving end is [`ReceptionCounter`]: the one tally every receiver
//! counts through — the prototype client, the Section 6 simulated receivers,
//! the layered model — whether it judges novelty by encoding index or takes
//! a rateless decoder's word for it.  Its [`Reception`] counts carry the
//! only definitions of `η`, `η_c`, `η_d` and `ε` in the workspace.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An unbounded source of encoding-packet indices, in transmission order.
///
/// Implementations decide how the index sequence is generated; consumers pull
/// one index per packet-transmission opportunity.  The ideal digital fountain
/// would never repeat an index; practical approximations repeat after a full
/// cycle of the finite encoding.
pub trait PacketStream {
    /// The index of the next encoding packet to transmit.
    fn next_index(&mut self) -> usize;

    /// Total number of distinct encoding packets this stream draws from.
    fn universe(&self) -> usize;

    /// Number of packet transmissions produced so far.
    fn transmitted(&self) -> u64;
}

/// Carousel transmission order over a finite encoding of `n` packets.
///
/// Each cycle is an independent pseudo-random permutation of `0..n`, seeded
/// deterministically so that a sender can be reproduced exactly in tests and
/// simulations.
#[derive(Debug, Clone)]
pub struct Carousel {
    n: usize,
    rng: ChaCha8Rng,
    current: Vec<usize>,
    pos: usize,
    transmitted: u64,
    shuffle: bool,
}

impl Carousel {
    /// A carousel over `n` packets that transmits a fresh random permutation
    /// each cycle.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "carousel needs at least one packet");
        let mut c = Carousel {
            n,
            rng: ChaCha8Rng::seed_from_u64(seed),
            current: (0..n).collect(),
            pos: 0,
            transmitted: 0,
            shuffle: true,
        };
        c.reshuffle();
        c
    }

    /// A carousel that cycles through the packets in index order without
    /// shuffling (the plain data-carousel / broadcast-disk behaviour the paper
    /// contrasts with in Section 1).
    pub fn sequential(n: usize) -> Self {
        assert!(n > 0, "carousel needs at least one packet");
        Carousel {
            n,
            rng: ChaCha8Rng::seed_from_u64(0),
            current: (0..n).collect(),
            pos: 0,
            transmitted: 0,
            shuffle: false,
        }
    }

    fn reshuffle(&mut self) {
        if self.shuffle {
            self.current.shuffle(&mut self.rng);
        }
        self.pos = 0;
    }

    /// Number of completed full cycles.
    pub fn cycles_completed(&self) -> u64 {
        self.transmitted / self.n as u64
    }
}

impl PacketStream for Carousel {
    fn next_index(&mut self) -> usize {
        if self.pos == self.n {
            self.reshuffle();
        }
        let idx = self.current[self.pos];
        self.pos += 1;
        self.transmitted += 1;
        idx
    }

    fn universe(&self) -> usize {
        self.n
    }

    fn transmitted(&self) -> u64 {
        self.transmitted
    }
}

/// What one receiver took from the channel, and the efficiencies the paper
/// judges a fountain by: reception efficiency `η = k / received`
/// (Section 6), its Section 7.3 split into coding efficiency
/// `η_c = k / distinct` and distinctness efficiency `η_d = distinct /
/// received` (so `η = η_c · η_d`), and the reception overhead
/// `ε = received / k − 1` of a receiver that needed `(1 + ε)·k` packets.
///
/// Receivers count through a [`ReceptionCounter`]; the prototype's
/// `DownloadStats` and the simulated receivers' outcomes read as
/// (dereference to) one of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reception {
    /// Packets received (after loss), duplicates included.
    pub received: usize,
    /// Distinct packets among them: encoding indices for a carousel, symbol
    /// seeds for a rateless stream.
    pub distinct: usize,
    /// Source packets in the file.
    pub k: usize,
}

impl Reception {
    /// Reception efficiency `η = k / received`; `0` before anything arrived.
    pub fn reception_efficiency(&self) -> f64 {
        if self.received == 0 {
            return 0.0;
        }
        self.k as f64 / self.received as f64
    }

    /// Coding efficiency `η_c = k / distinct`; `0` before anything arrived.
    pub fn coding_efficiency(&self) -> f64 {
        if self.distinct == 0 {
            return 0.0;
        }
        self.k as f64 / self.distinct as f64
    }

    /// Distinctness efficiency `η_d = distinct / received`; `0` before
    /// anything arrived.
    pub fn distinctness_efficiency(&self) -> f64 {
        if self.received == 0 {
            return 0.0;
        }
        self.distinct as f64 / self.received as f64
    }

    /// Reception overhead `ε = received / k − 1`.
    pub fn reception_overhead(&self) -> f64 {
        self.received as f64 / self.k as f64 - 1.0
    }
}

/// The one reception tally: counts what a receiver of a `k`-packet file
/// takes from the channel, and reads as its [`Reception`] counts.
///
/// There are two ways to count, one per kind of stream:
/// * [`ReceptionCounter::new`] keeps a bitmap over the `n` encoding
///   indices, and [`ReceptionCounter::record`] judges novelty by it — the
///   carousel clients, the simulated receivers and the layered model.
/// * [`ReceptionCounter::streaming`] keeps no bitmap, for a stream with no
///   index range (rateless seeds), and
///   [`ReceptionCounter::record_verdict`] takes the caller's word for what
///   is new — there the decoder is the authority on seed novelty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceptionCounter {
    counts: Reception,
    /// Which encoding indices arrived; empty on a streaming counter.
    seen: Vec<bool>,
}

impl ReceptionCounter {
    /// A counter over an encoding of `n` packets of a `k`-packet file.
    pub fn new(n: usize, k: usize) -> Self {
        ReceptionCounter {
            counts: Reception {
                k,
                ..Reception::default()
            },
            seen: vec![false; n],
        }
    }

    /// A counter for a `k`-packet file sent as a stream with no index range,
    /// counted by [`ReceptionCounter::record_verdict`] alone.
    pub fn streaming(k: usize) -> Self {
        ReceptionCounter::new(0, k)
    }

    /// Record the reception of encoding packet `index`; returns `true` if it
    /// was new.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the counter's `n` — always, on a
    /// streaming counter.
    pub fn record(&mut self, index: usize) -> bool {
        let new = !std::mem::replace(&mut self.seen[index], true);
        self.record_verdict(new);
        new
    }

    /// Record one reception that the caller judged `new` or not.
    pub fn record_verdict(&mut self, new: bool) {
        self.counts.received += 1;
        if new {
            self.counts.distinct += 1;
        }
    }
}

impl std::ops::Deref for ReceptionCounter {
    type Target = Reception;

    fn deref(&self) -> &Reception {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn carousel_covers_every_packet_each_cycle() {
        let mut c = Carousel::new(100, 7);
        for cycle in 0..3 {
            let batch: HashSet<usize> = (0..100).map(|_| c.next_index()).collect();
            assert_eq!(batch.len(), 100, "cycle {cycle} repeated a packet");
        }
        assert_eq!(c.cycles_completed(), 3);
        assert_eq!(c.transmitted(), 300);
    }

    #[test]
    fn carousel_cycles_use_different_permutations() {
        let mut c = Carousel::new(50, 1);
        let first: Vec<usize> = (0..50).map(|_| c.next_index()).collect();
        let second: Vec<usize> = (0..50).map(|_| c.next_index()).collect();
        assert_ne!(
            first, second,
            "consecutive cycles should be shuffled differently"
        );
    }

    #[test]
    fn sequential_carousel_preserves_order() {
        let mut c = Carousel::sequential(5);
        let got: Vec<usize> = (0..12).map(|_| c.next_index()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]);
    }

    #[test]
    fn carousel_is_deterministic_in_seed() {
        let mut a = Carousel::new(64, 9);
        let mut b = Carousel::new(64, 9);
        for _ in 0..200 {
            assert_eq!(a.next_index(), b.next_index());
        }
    }

    #[test]
    fn reception_counter_efficiencies() {
        let mut r = ReceptionCounter::new(8, 3);
        let fresh: Vec<bool> = [0usize, 1, 2, 2, 3, 3, 3]
            .into_iter()
            .map(|idx| r.record(idx))
            .collect();
        assert_eq!(fresh, [true, true, true, false, true, false, false]);
        assert_eq!(
            *r,
            Reception {
                received: 7,
                distinct: 4,
                k: 3
            }
        );
        assert!((r.distinctness_efficiency() - 4.0 / 7.0).abs() < 1e-12);
        assert!((r.coding_efficiency() - 0.75).abs() < 1e-12);
        assert!((r.reception_efficiency() - 3.0 / 7.0).abs() < 1e-12);
        assert!((r.reception_overhead() - 4.0 / 3.0).abs() < 1e-12);
        // η = η_c · η_d as stated in Section 7.3.
        let eta = r.reception_efficiency();
        assert!((eta - r.coding_efficiency() * r.distinctness_efficiency()).abs() < 1e-12);
    }

    #[test]
    fn a_streaming_counter_takes_the_callers_verdict() {
        let mut r = ReceptionCounter::streaming(2);
        for new in [true, false, true] {
            r.record_verdict(new);
        }
        assert_eq!(
            *r,
            Reception {
                received: 3,
                distinct: 2,
                k: 2
            }
        );
    }

    #[test]
    fn empty_counter_is_safe() {
        let r = ReceptionCounter::new(4, 4);
        assert_eq!(r.reception_efficiency(), 0.0);
        assert_eq!(r.coding_efficiency(), 0.0);
        assert_eq!(r.distinctness_efficiency(), 0.0);
    }
}

//! Carousel receivers: simulate one client listening to the encoded stream
//! through a lossy channel until it can reconstruct the file.
//!
//! This is the per-receiver primitive behind Figures 4, 5 and 6: the server
//! carousels through the encoding (a fresh random permutation per cycle for
//! Tornado codes, the round-robin interleaved order for the blocked
//! Reed–Solomon baseline), the receiver joins at a time of its choosing,
//! loses packets according to its [`LossModel`], and stops as soon as its
//! decoder reports completion.  The outcome records exactly the counters the
//! paper's efficiency definitions need.

use crate::interleaved::InterleavedCode;
use crate::loss::LossModel;
use crate::trace::ReceiverTrace;
use df_core::{Carousel, Reception, ReceptionCounter, TornadoCode};
use rand::Rng;

/// What happened to one simulated receiver.  It reads as its
/// [`Reception`]: `outcome.received`, `outcome.reception_efficiency()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiverOutcome {
    /// What the receiver took from the channel until reconstruction.
    pub reception: Reception,
    /// Packets the sender transmitted while this receiver was listening.
    pub transmitted: usize,
}

impl std::ops::Deref for ReceiverOutcome {
    type Target = Reception;

    fn deref(&self) -> &Reception {
        &self.reception
    }
}

/// Simulate one receiver downloading a Tornado-encoded carousel.
///
/// The receiver joins at an arbitrary point (a fresh carousel permutation
/// seeded from `rng`), loses each transmitted packet according to `loss`, and
/// feeds surviving packets to an index-level decoder until the source is
/// reconstructible.
pub fn simulate_tornado_receiver<L, R>(
    code: &TornadoCode,
    loss: &mut L,
    rng: &mut R,
) -> ReceiverOutcome
where
    L: LossModel,
    R: Rng + ?Sized,
{
    let mut carousel = Carousel::new(code.n(), rng.gen());
    let mut decoder = code.symbolic_decoder();
    let mut tally = ReceptionCounter::new(code.n(), code.k());
    let mut transmitted = 0usize;
    loop {
        let idx = carousel.next_index();
        transmitted += 1;
        if loss.is_lost(rng) {
            continue;
        }
        tally.record(idx);
        if decoder
            .add_packet(idx, df_core::Mark)
            .expect("index in range")
            == df_core::AddOutcome::Complete
        {
            break;
        }
    }
    ReceiverOutcome {
        reception: *tally,
        transmitted,
    }
}

/// Simulate one receiver downloading an interleaved-Reed–Solomon carousel.
pub fn simulate_interleaved_receiver<L, R>(
    code: &InterleavedCode,
    loss: &mut L,
    rng: &mut R,
) -> ReceiverOutcome
where
    L: LossModel,
    R: Rng + ?Sized,
{
    let order = code.transmission_order();
    // Join at a uniformly random point of the carousel cycle.
    let start = rng.gen_range(0..order.len());
    let mut tracker = code.tracker();
    let mut transmitted = 0usize;
    for step in 0.. {
        let idx = order[(start + step) % order.len()];
        transmitted += 1;
        if loss.is_lost(rng) {
            continue;
        }
        if tracker.receive(idx) {
            break;
        }
    }
    ReceiverOutcome {
        reception: *tracker,
        transmitted,
    }
}

/// A [`LossModel`] that replays a recorded (or synthetic) receiver trace from
/// a fixed starting offset, wrapping around — the sampling procedure the
/// paper uses for its MBone traces ("choosing a random initial point within
/// each trace", Section 6.4).
#[derive(Debug, Clone)]
pub struct TraceReplay<'a> {
    trace: &'a ReceiverTrace,
    pos: usize,
}

impl<'a> TraceReplay<'a> {
    /// Replay `trace` starting from `offset`.
    pub fn new(trace: &'a ReceiverTrace, offset: usize) -> Self {
        TraceReplay { trace, pos: offset }
    }
}

impl LossModel for TraceReplay<'_> {
    fn is_lost<R: Rng + ?Sized>(&mut self, _rng: &mut R) -> bool {
        let lost = self.trace.is_lost(self.pos);
        self.pos += 1;
        lost
    }

    fn average_loss_rate(&self) -> f64 {
        self.trace.loss_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::BernoulliLoss;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn lossless_tornado_receiver_needs_about_k_packets() {
        let code = TornadoCode::new_a(500, 1).unwrap();
        let mut loss = BernoulliLoss::new(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = simulate_tornado_receiver(&code, &mut loss, &mut rng);
        assert_eq!(out.received, out.transmitted);
        assert_eq!(out.received, out.distinct, "first cycle has no duplicates");
        assert!(out.received >= 500);
        assert!(
            out.reception_efficiency() > 0.7,
            "η = {}",
            out.reception_efficiency()
        );
        // η = η_c · η_d must hold exactly.
        let eta = out.reception_efficiency();
        assert!((eta - out.coding_efficiency() * out.distinctness_efficiency()).abs() < 1e-12);
    }

    #[test]
    fn lossless_interleaved_receiver_is_perfectly_efficient() {
        // With no loss and round-robin transmission, a receiver that joins at
        // a cycle boundary or anywhere else needs exactly k packets per block
        // as they come around: every received packet is useful until its block
        // fills, and blocks fill at the same rate.  Efficiency is 1 up to the
        // final partial round.
        let code = InterleavedCode::new(200, 20, 2.0).unwrap();
        let mut loss = BernoulliLoss::new(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let out = simulate_interleaved_receiver(&code, &mut loss, &mut rng);
        assert!(
            out.reception_efficiency() > 0.95,
            "η = {}",
            out.reception_efficiency()
        );
    }

    #[test]
    fn interleaved_efficiency_degrades_with_loss_more_than_tornado() {
        // The qualitative claim of Figure 4 at p = 0.5: Tornado keeps its
        // efficiency, interleaving with small blocks pays the coupon-collector
        // penalty.
        let k = 1000;
        let tornado = TornadoCode::new_a(k, 3).unwrap();
        let interleaved = InterleavedCode::new(k, 20, 2.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let trials = 5;
        let mut eta_t = 0.0;
        let mut eta_i = 0.0;
        for _ in 0..trials {
            let mut loss = BernoulliLoss::new(0.5);
            eta_t +=
                simulate_tornado_receiver(&tornado, &mut loss, &mut rng).reception_efficiency();
            let mut loss = BernoulliLoss::new(0.5);
            eta_i += simulate_interleaved_receiver(&interleaved, &mut loss, &mut rng)
                .reception_efficiency();
        }
        eta_t /= trials as f64;
        eta_i /= trials as f64;
        assert!(
            eta_t > eta_i + 0.05,
            "Tornado η = {eta_t} should clearly beat interleaved η = {eta_i} at 50 % loss"
        );
    }

    #[test]
    fn trace_replay_reproduces_the_trace() {
        let trace = ReceiverTrace::from_losses(vec![true, false, true, false]);
        let mut replay = TraceReplay::new(&trace, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let got: Vec<bool> = (0..6).map(|_| replay.is_lost(&mut rng)).collect();
        assert_eq!(got, vec![false, true, false, true, false, true]);
        assert_eq!(replay.average_loss_rate(), 0.5);
    }

    #[test]
    fn heavy_loss_still_terminates() {
        let code = TornadoCode::new_a(200, 4).unwrap();
        let mut loss = BernoulliLoss::new(0.7);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let out = simulate_tornado_receiver(&code, &mut loss, &mut rng);
        assert!(out.received >= 200);
        assert!(out.transmitted > out.received);
        // At 70 % loss the receiver inevitably sees duplicates (the carousel
        // wraps), so distinctness efficiency drops below 1.
        assert!(out.distinctness_efficiency() <= 1.0);
    }
}

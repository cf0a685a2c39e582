//! Layered multicast sessions and adaptive receivers (Sections 7.1.1 and 7.3).
//!
//! The server organises the encoding into `g` cumulative layers with
//! geometrically increasing rates and drives congestion control itself:
//! specially marked *synchronisation points* (SPs) are the only instants at
//! which a receiver may join a higher layer, and periodic *burst periods*
//! (packets sent at twice the normal rate) let a receiver probe whether it
//! could sustain the next level without sending any feedback to the source.
//! Receivers subscribe to a prefix of the layers, move up after an SP if the
//! preceding burst caused no loss, and drop a layer whenever they experience
//! sustained loss.
//!
//! [`LayeredSession::simulate_receiver`] runs one receiver through this
//! protocol against a bottleneck-bandwidth channel with additional random
//! loss and reports the reception, coding and distinctness efficiencies of
//! Section 7.3 — the quantities plotted in Figure 8 of the paper.

use crate::schedule::TransmissionSchedule;
use df_core::{AddOutcome, Mark, Reception, ReceptionCounter, TornadoCode, TornadoError};
use rand::Rng;

/// Most layers a layered session may use — the reverse-binary schedule's
/// block size is `2^(layers−1)`, so 16 layers is already a 32 768-packet
/// block ([`TransmissionSchedule`] enforces the same cap).
pub const MAX_LAYERS: usize = 16;

/// Longest admissible SP interval.  Receiver-side loss accounting holds
/// O(`sp_interval`) round counters, so the bound keeps what a session (or a
/// hostile announcement replaying one) can make a receiver track finite;
/// protocol clients enforce the same limit on wire-sourced cadences.
pub const MAX_SP_INTERVAL: usize = 1 << 16;

/// A layered transmission session for one Tornado-encoded file.
#[derive(Debug, Clone)]
pub struct LayeredSession {
    schedule: TransmissionSchedule,
    /// Rounds between synchronisation points.
    sp_interval: usize,
    /// Rounds of double-rate burst preceding each SP.
    burst_rounds: usize,
}

impl LayeredSession {
    /// Create a session over `n` encoding packets and `layers` multicast
    /// groups, with an SP every `sp_interval` rounds preceded by
    /// `burst_rounds` rounds of double-rate bursting.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::InvalidParameters`] for degenerate parameters:
    /// no layers (or more than the [`MAX_LAYERS`] = 16 the schedule
    /// supports), an empty encoding, an SP interval shorter than 2 rounds
    /// (`sp_interval == 0` would divide by zero in the round phase
    /// arithmetic, and `sp_interval == 1` would make *every* round a sync
    /// point, leaving no inter-SP rounds to measure loss over) or longer
    /// than [`MAX_SP_INTERVAL`], or bursts at least as long as the SP
    /// interval (which would misclassify every loss as burst loss and
    /// freeze the join/leave logic).
    pub fn new(
        layers: usize,
        n: usize,
        sp_interval: usize,
        burst_rounds: usize,
    ) -> df_core::Result<Self> {
        let invalid = |reason: String| TornadoError::InvalidParameters { reason };
        if layers == 0 || layers > MAX_LAYERS {
            return Err(invalid(format!(
                "need between 1 and {MAX_LAYERS} layers, got {layers}"
            )));
        }
        if n == 0 {
            return Err(invalid("layered session needs a non-empty encoding".into()));
        }
        if !(2..=MAX_SP_INTERVAL).contains(&sp_interval) {
            return Err(invalid(format!(
                "SP interval must be between 2 and {MAX_SP_INTERVAL} rounds, got {sp_interval}"
            )));
        }
        if burst_rounds >= sp_interval {
            return Err(invalid(format!(
                "burst ({burst_rounds} rounds) must be shorter than the SP \
                 interval ({sp_interval} rounds)"
            )));
        }
        Ok(LayeredSession {
            schedule: TransmissionSchedule::new(layers, n),
            sp_interval,
            burst_rounds,
        })
    }

    /// The packet schedule in use.
    pub fn schedule(&self) -> &TransmissionSchedule {
        &self.schedule
    }

    /// Rounds between synchronisation points.
    pub fn sp_interval(&self) -> usize {
        self.sp_interval
    }

    /// Rounds of double-rate burst preceding each SP.
    pub fn burst_rounds(&self) -> usize {
        self.burst_rounds
    }

    /// True if `round` is a synchronisation point (a join opportunity).
    pub fn is_sync_point(&self, round: usize) -> bool {
        round.is_multiple_of(self.sp_interval) && round > 0
    }

    /// True if `round` falls inside the burst period preceding the next SP.
    pub fn is_burst(&self, round: usize) -> bool {
        let phase = round % self.sp_interval;
        phase + self.burst_rounds >= self.sp_interval
    }

    /// Simulate one adaptive receiver downloading `code` through this session.
    ///
    /// `bottleneck` is the receiver's bottleneck bandwidth in units of the
    /// base-layer rate; `extra_loss` is an additional independent loss
    /// probability on every packet (congestion elsewhere in the network).
    /// Packets beyond the bottleneck within a round are dropped (tail drop),
    /// which is both how the receiver experiences congestion and the signal
    /// its join/leave decisions react to.
    ///
    /// The base layer sends one packet per block per round, so a bottleneck
    /// of `b` base-rate units is a per-round delivery budget of `b · blocks`
    /// packets — normalised per block, which is what makes the bottleneck
    /// comparison file-size independent: a receiver behind a 3× bottleneck
    /// converges to the same subscription level whether the file spans 10
    /// blocks or 10 000.
    pub fn simulate_receiver<R: Rng + ?Sized>(
        &self,
        code: &TornadoCode,
        bottleneck: f64,
        extra_loss: f64,
        rng: &mut R,
    ) -> ReceiverReport {
        let g = self.schedule.layers();
        let blocks = self.schedule.num_blocks() as f64;
        // Per-round delivery budget at the receiver's access link, in
        // packets; everything past it within one round is tail-dropped.
        let budget = (bottleneck * blocks).floor().max(0.0) as usize;
        let mut level = 0usize; // current cumulative subscription level
        let mut decoder = code.symbolic_decoder();
        let mut tally = ReceptionCounter::new(code.n(), code.k());
        let mut loss_since_sp = false;
        let mut burst_loss = false;
        let mut round = 0usize;
        let max_rounds = 64 * self.schedule.block_size().max(self.sp_interval) * 64;
        let mut complete = false;
        while round < max_rounds && !complete {
            // Join/leave decisions happen at SPs based on what the last burst
            // and inter-SP period showed.
            if self.is_sync_point(round) {
                if loss_since_sp {
                    level = level.saturating_sub(1);
                } else if !burst_loss && level + 1 < g {
                    level += 1;
                }
                loss_since_sp = false;
                burst_loss = false;
            }
            let burst = self.is_burst(round);
            let mut round_packets: Vec<usize> = Vec::new();
            for layer in 0..=level {
                round_packets.extend(self.schedule.transmission(layer, round));
                if burst {
                    // The burst repeats the layer's packets at double rate; the
                    // extra copies stress the bottleneck but carry no new data.
                    round_packets.extend(self.schedule.transmission(layer, round));
                }
            }
            for (pos, idx) in round_packets.into_iter().enumerate() {
                // Deterministic tail-drop at the bottleneck: the packets of a
                // round arrive lowest layer first, and whatever exceeds the
                // budget never makes it through the access link.  Independent
                // background loss comes on top.
                let dropped = pos >= budget || (extra_loss > 0.0 && rng.gen::<f64>() < extra_loss);
                if dropped {
                    if burst {
                        burst_loss = true;
                    } else {
                        loss_since_sp = true;
                    }
                    continue;
                }
                tally.record(idx);
                if decoder.add_packet(idx, Mark).expect("index in range") == AddOutcome::Complete {
                    complete = true;
                    break;
                }
            }
            round += 1;
        }
        ReceiverReport {
            complete,
            reception: *tally,
            final_level: level,
            rounds: round,
        }
    }
}

/// Outcome of one simulated layered (or single-layer) receiver.  It reads as
/// its [`Reception`]: `report.received`, `report.distinctness_efficiency()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverReport {
    /// Whether the receiver reconstructed the file within the simulation
    /// horizon.
    pub complete: bool,
    /// What the receiver took from the channel until then.
    pub reception: Reception,
    /// Subscription level at the end of the download.
    pub final_level: usize,
    /// Rounds the download took.
    pub rounds: usize,
}

impl std::ops::Deref for ReceiverReport {
    type Target = Reception;

    fn deref(&self) -> &Reception {
        &self.reception
    }
}

/// A single-layer receiver at a fixed loss rate — the "single layer protocol"
/// control experiment of Section 7.3 (left half of Figure 8).  The receiver
/// simply listens to layer 0's schedule (a carousel) and loses each packet
/// independently with probability `loss`.
pub fn simulate_single_layer_receiver<R: Rng + ?Sized>(
    code: &TornadoCode,
    schedule: &TransmissionSchedule,
    loss: f64,
    rng: &mut R,
) -> ReceiverReport {
    let mut decoder = code.symbolic_decoder();
    let mut tally = ReceptionCounter::new(code.n(), code.k());
    let mut complete = false;
    let mut round = 0usize;
    // A single-layer receiver subscribes to every layer's traffic on one
    // group; equivalently it sees the full per-round block pattern.
    let max_rounds = 64 * schedule.block_size() * 64;
    while round < max_rounds && !complete {
        for layer in 0..schedule.layers() {
            for idx in schedule.transmission(layer, round) {
                if rng.gen::<f64>() < loss {
                    continue;
                }
                tally.record(idx);
                if decoder.add_packet(idx, Mark).expect("index in range") == AddOutcome::Complete {
                    complete = true;
                    break;
                }
            }
            if complete {
                break;
            }
        }
        round += 1;
    }
    ReceiverReport {
        complete,
        reception: *tally,
        final_level: 0,
        rounds: round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn code() -> TornadoCode {
        TornadoCode::new_a(1000, 7).unwrap()
    }

    #[test]
    fn sync_points_and_bursts_alternate_sensibly() {
        let s = LayeredSession::new(4, 2000, 16, 2).unwrap();
        assert!(!s.is_sync_point(0));
        assert!(s.is_sync_point(16));
        assert!(!s.is_sync_point(17));
        assert!(s.is_burst(14));
        assert!(s.is_burst(15));
        assert!(!s.is_burst(3));
        assert_eq!((s.sp_interval(), s.burst_rounds()), (16, 2));
    }

    #[test]
    fn degenerate_session_parameters_are_constructor_errors() {
        use df_core::TornadoError;
        // (layers, n, sp_interval, burst_rounds) combinations that used to
        // panic (or construct, then panic or never-burst downstream).
        for (layers, n, sp, burst) in [
            (0usize, 100usize, 8usize, 1usize), // no layers
            (17, 100, 8, 1),                    // beyond the schedule's maximum
            (4, 0, 8, 1),                       // empty encoding
            (4, 100, 0, 0),                     // SP interval of zero: division by zero downstream
            (4, 100, 1, 0),                     // every round an SP: no inter-SP loss window
            (4, 100, MAX_SP_INTERVAL + 1, 0),   // unbounded receiver accounting
            (4, 100, 8, 8),                     // burst as long as the SP interval
            (4, 100, 8, 9),                     // burst longer than the SP interval
        ] {
            match LayeredSession::new(layers, n, sp, burst) {
                Err(TornadoError::InvalidParameters { .. }) => {}
                other => panic!("({layers}, {n}, {sp}, {burst}) must be rejected, got {other:?}"),
            }
        }
        assert!(
            LayeredSession::new(4, 100, 2, 1).is_ok(),
            "minimal valid SP spacing"
        );
    }

    #[test]
    fn single_layer_receiver_no_loss_has_full_distinctness() {
        let code = code();
        let schedule = TransmissionSchedule::new(4, code.n());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let r = simulate_single_layer_receiver(&code, &schedule, 0.0, &mut rng);
        assert!(r.complete);
        // One Level Property: no duplicates before reconstruction at zero loss.
        assert!((r.distinctness_efficiency() - 1.0).abs() < 1e-12);
        assert!(r.coding_efficiency() > 0.7);
    }

    #[test]
    fn single_layer_distinctness_stays_high_below_half_loss() {
        let code = code();
        let schedule = TransmissionSchedule::new(4, code.n());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let r = simulate_single_layer_receiver(&code, &schedule, 0.3, &mut rng);
        assert!(r.complete);
        assert!(
            r.distinctness_efficiency() > 0.95,
            "η_d = {} should stay near 1 below 50 % loss",
            r.distinctness_efficiency()
        );
    }

    #[test]
    fn severe_loss_still_reconstructs_with_reduced_efficiency() {
        let code = code();
        let schedule = TransmissionSchedule::new(4, code.n());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let r = simulate_single_layer_receiver(&code, &schedule, 0.7, &mut rng);
        assert!(r.complete);
        assert!(r.distinctness_efficiency() < 1.0);
        assert!(
            r.reception_efficiency() > 0.4,
            "η = {}",
            r.reception_efficiency()
        );
    }

    #[test]
    fn layered_receiver_converges_to_its_bottleneck_level() {
        // Six layers and a tight SP cadence so the receiver has several join
        // opportunities before the download completes (at g = 6 a base-layer
        // download spans ~17 rounds; SPs every 2 rounds).
        let code = code();
        let session = LayeredSession::new(6, code.n(), 2, 1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // Bottleneck of 4 base-rate units supports cumulative level 2
        // (bandwidth 1+1+2 = 4) but not level 3 (bandwidth 8); with the
        // deterministic tail-drop model the burst probe (2×4 = 8 > 4) blocks
        // the next join exactly, so convergence is to level 2 exactly.
        let r = session.simulate_receiver(&code, 4.0, 0.0, &mut rng);
        assert!(r.complete);
        assert_eq!(
            r.final_level, 2,
            "a 4× bottleneck must converge to cumulative level 2"
        );
    }

    #[test]
    fn bottleneck_comparison_is_file_size_independent() {
        // The per-block normalisation fix: the same bottleneck ratio must
        // converge to the same subscription level regardless of how many
        // blocks the encoding spans.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut levels = Vec::new();
        for k in [250usize, 1000, 4000] {
            let code = TornadoCode::new_a(k, 7).unwrap();
            let session = LayeredSession::new(6, code.n(), 2, 1).unwrap();
            let r = session.simulate_receiver(&code, 3.0, 0.0, &mut rng);
            assert!(r.complete, "k = {k} did not complete");
            levels.push(r.final_level);
        }
        assert_eq!(
            levels,
            vec![1, 1, 1],
            "a 3× bottleneck sustains level 1 (rate 2) but fails the level-2 \
             burst probe (rate 4) at every file size"
        );
    }

    #[test]
    fn wide_bottleneck_receiver_reaches_the_top_level_and_downloads_fast() {
        // Frequent SPs so the wide receiver has several join opportunities
        // before the (short) download finishes.
        let code = code();
        let session = LayeredSession::new(6, code.n(), 2, 1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let fast = session.simulate_receiver(&code, 32.0, 0.0, &mut rng);
        let slow = session.simulate_receiver(&code, 1.0, 0.0, &mut rng);
        assert!(fast.complete && slow.complete);
        assert!(
            fast.final_level > slow.final_level,
            "fast level {} vs slow level {}",
            fast.final_level,
            slow.final_level
        );
        // A higher subscription level means more packets per round reach the
        // receiver, i.e. higher download throughput.
        let throughput = |r: &ReceiverReport| r.received as f64 / r.rounds.max(1) as f64;
        assert!(
            throughput(&fast) > throughput(&slow),
            "fast throughput {} must beat slow throughput {}",
            throughput(&fast),
            throughput(&slow)
        );
    }

    #[test]
    fn burst_loss_is_a_clean_probe_not_a_drop_signal() {
        // A receiver whose bottleneck exactly fits its level loses packets
        // *only* during bursts (the deterministic tail-drop of the doubled
        // rate), and that loss must block joins without ever forcing a drop:
        // the receiver stays pinned at its level from the first SP on.
        let code = code();
        let session = LayeredSession::new(6, code.n(), 2, 1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        // 2 base-rate units: level 1 fits exactly (1+1), burst (4) does not.
        let r = session.simulate_receiver(&code, 2.0, 0.0, &mut rng);
        assert!(r.complete);
        assert_eq!(r.final_level, 1, "must hold level 1, not oscillate");
    }

    #[test]
    fn layer_switching_costs_distinctness_efficiency() {
        // A receiver whose bottleneck sits between levels keeps oscillating,
        // which is exactly the effect the paper reports: duplicates appear at
        // moderate loss because of subscription changes.
        let code = code();
        let session = LayeredSession::new(6, code.n(), 2, 1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let r = session.simulate_receiver(&code, 3.0, 0.10, &mut rng);
        assert!(r.complete);
        assert!(r.distinctness_efficiency() <= 1.0);
        assert!(r.reception_efficiency() > 0.3);
    }
}

//! Packet-loss models for the reception-efficiency simulations.
//!
//! Section 6 of the paper uses two channel models: independent loss with a
//! fixed probability `p` per receiver (Figures 4 and 5, Table 4) and
//! trace-driven bursty loss from MBone sessions (Figure 6).  This module
//! provides both, plus the two-state Gilbert–Elliott process the synthetic
//! traces are generated from.  Every model here is also the drop stage of a
//! [`HostileChannel`](crate::HostileChannel): the channel module implements
//! `ChannelModel` for each `LossModel`.

use rand::Rng;

/// A per-receiver packet loss process.
///
/// One `LossModel` instance models one receiver's channel; each call to
/// [`LossModel::is_lost`] advances the process by one transmitted packet.
pub trait LossModel {
    /// Returns `true` if the next transmitted packet is lost at this receiver.
    fn is_lost<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool;

    /// The long-run average loss rate of the model, if known.
    fn average_loss_rate(&self) -> f64;

    /// Completed good→bad transitions so far, for a bursty model; `0` for a
    /// model without a bad state.
    fn burst_episodes(&self) -> u64 {
        0
    }
}

/// Independent ("Bernoulli") loss: every packet is lost with probability `p`,
/// independently — the model used for the paper's Figures 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliLoss {
    p: f64,
}

impl BernoulliLoss {
    /// Create a model with loss probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)` — a loss rate of 1 would mean the
    /// receiver never receives anything and no simulation can terminate.
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability must be in [0, 1)"
        );
        BernoulliLoss { p }
    }

    /// The loss probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl LossModel for BernoulliLoss {
    fn is_lost<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.p
    }

    fn average_loss_rate(&self) -> f64 {
        self.p
    }
}

/// Two-state Gilbert–Elliott loss: the channel alternates between a good
/// state (low loss) and a bad state (high loss) with geometric sojourn times.
/// This produces the bursty loss patterns the paper observes in its MBone
/// traces ("some clients experience large bursts of loss rates over
/// significant periods of time", Section 6.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliottLoss {
    /// Probability of moving good → bad after a packet.
    p_good_to_bad: f64,
    /// Probability of moving bad → good after a packet.
    p_bad_to_good: f64,
    /// Loss probability while in the good state.
    loss_good: f64,
    /// Loss probability while in the bad state.
    loss_bad: f64,
    in_bad_state: bool,
    /// Good→bad transitions so far.
    episodes: u64,
}

impl GilbertElliottLoss {
    /// Create a model from its four parameters, starting in the good state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or both loss rates are 1.
    pub fn new(p_good_to_bad: f64, p_bad_to_good: f64, loss_good: f64, loss_bad: f64) -> Self {
        for v in [p_good_to_bad, p_bad_to_good, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&v), "probabilities must be in [0, 1]");
        }
        assert!(
            loss_good < 1.0 || loss_bad < 1.0,
            "at least one state must deliver packets"
        );
        GilbertElliottLoss {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
            in_bad_state: false,
            episodes: 0,
        }
    }

    /// A model calibrated to a target average loss rate with a given
    /// burstiness (mean bad-state burst length in packets).
    ///
    /// The bad state loses every packet; the good state's loss rate is set to
    /// a small residual (1 % of the target).  Stationary occupancy of the bad
    /// state is chosen so that the overall average equals `target`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ target < 1` and `burst_len ≥ 1`.
    pub fn with_average(target: f64, burst_len: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&target),
            "target loss must be in [0, 1)"
        );
        assert!(burst_len >= 1.0, "burst length must be at least one packet");
        let loss_bad = 1.0;
        let loss_good = (target * 0.01).min(0.9);
        // Stationary bad-state probability π_b solves
        //   π_b · loss_bad + (1 − π_b) · loss_good = target.
        let pi_b = ((target - loss_good) / (loss_bad - loss_good)).clamp(0.0, 0.999);
        let p_bad_to_good = 1.0 / burst_len;
        // π_b = p_gb / (p_gb + p_bg)  ⇒  p_gb = π_b · p_bg / (1 − π_b).
        let p_good_to_bad = (pi_b * p_bad_to_good / (1.0 - pi_b)).min(1.0);
        GilbertElliottLoss::new(p_good_to_bad, p_bad_to_good, loss_good, loss_bad)
    }
}

impl LossModel for GilbertElliottLoss {
    fn is_lost<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        let loss_p = if self.in_bad_state {
            self.loss_bad
        } else {
            self.loss_good
        };
        let lost = rng.gen::<f64>() < loss_p;
        // State transition after the packet.
        let flip_p = if self.in_bad_state {
            self.p_bad_to_good
        } else {
            self.p_good_to_bad
        };
        if rng.gen::<f64>() < flip_p {
            self.in_bad_state = !self.in_bad_state;
            self.episodes += u64::from(self.in_bad_state);
        }
        lost
    }

    fn average_loss_rate(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            return self.loss_good;
        }
        let pi_b = self.p_good_to_bad / denom;
        pi_b * self.loss_bad + (1.0 - pi_b) * self.loss_good
    }

    fn burst_episodes(&self) -> u64 {
        self.episodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn empirical_rate<M: LossModel>(model: &mut M, n: usize, seed: u64) -> f64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let lost = (0..n).filter(|_| model.is_lost(&mut rng)).count();
        lost as f64 / n as f64
    }

    #[test]
    fn bernoulli_matches_target_rate() {
        for p in [0.0, 0.01, 0.1, 0.5] {
            let mut m = BernoulliLoss::new(p);
            let rate = empirical_rate(&mut m, 200_000, 1);
            assert!((rate - p).abs() < 0.01, "p = {p}, measured {rate}");
            assert_eq!(m.average_loss_rate(), p);
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bernoulli_rejects_certain_loss() {
        let _ = BernoulliLoss::new(1.0);
    }

    #[test]
    fn gilbert_elliott_hits_target_average() {
        for target in [0.05, 0.18, 0.4] {
            let mut m = GilbertElliottLoss::with_average(target, 8.0);
            assert!((m.average_loss_rate() - target).abs() < 0.01);
            let rate = empirical_rate(&mut m, 400_000, 2);
            assert!(
                (rate - target).abs() < 0.02,
                "target {target}, measured {rate}"
            );
        }
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Count the average run length of consecutive losses; it must be
        // clearly longer than the Bernoulli model's at the same average rate.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ge = GilbertElliottLoss::with_average(0.2, 10.0);
        let mut bursts = Vec::new();
        let mut current = 0usize;
        for _ in 0..200_000 {
            if ge.is_lost(&mut rng) {
                current += 1;
            } else if current > 0 {
                bursts.push(current);
                current = 0;
            }
        }
        let mean_burst: f64 = bursts.iter().sum::<usize>() as f64 / bursts.len() as f64;
        // Bernoulli at p = 0.2 has mean burst length 1 / (1 − p) = 1.25.
        assert!(mean_burst > 3.0, "mean burst {mean_burst} not bursty");
    }

    #[test]
    fn gilbert_elliott_parameter_validation() {
        assert!(std::panic::catch_unwind(|| GilbertElliottLoss::new(1.5, 0.1, 0.0, 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| GilbertElliottLoss::new(0.1, 0.1, 1.0, 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| GilbertElliottLoss::with_average(0.2, 0.5)).is_err());
    }
}

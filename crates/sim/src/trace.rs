//! Synthetic MBone-like receiver loss traces.
//!
//! Section 6.4 of the paper replays publicly collected MBone traces (Yajnik,
//! Kurose, Towsley) in which ~120 receivers subscribed to hour-long broadcasts
//! and recorded which packets they received; loss rates ranged from under 1 %
//! to over 30 % with an average around 18 % and strongly bursty patterns.
//! Those traces are no longer publicly archived, so this module generates
//! synthetic traces with the same aggregate statistics from per-receiver
//! Gilbert–Elliott processes (the substitution is documented in DESIGN.md).
//! The simulation code path is identical to what real traces would use:
//! trace-driven per-receiver loss replay with a random starting offset.

use crate::loss::{GilbertElliottLoss, LossModel};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A recorded loss trace for one receiver: `true` means the packet at that
/// position of the broadcast was lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiverTrace {
    lost: Vec<bool>,
}

impl ReceiverTrace {
    /// Wrap an explicit loss sequence (useful for tests and for replaying real
    /// trace files if they are available).
    pub fn from_losses(lost: Vec<bool>) -> Self {
        ReceiverTrace { lost }
    }

    /// Generate a synthetic trace of `len` packet slots with the given target
    /// average loss rate and burstiness.
    pub fn synthetic(len: usize, loss_rate: f64, burst_len: f64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut model = GilbertElliottLoss::with_average(loss_rate, burst_len);
        let lost = (0..len).map(|_| model.is_lost(&mut rng)).collect();
        ReceiverTrace { lost }
    }

    /// Number of packet slots in the trace.
    pub fn len(&self) -> usize {
        self.lost.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.lost.is_empty()
    }

    /// Whether the packet at (wrapped) position `pos` was lost.
    ///
    /// The trace is treated as circular, matching the paper's sampling of "a
    /// random initial point within each trace".
    pub fn is_lost(&self, pos: usize) -> bool {
        self.lost[pos % self.lost.len()]
    }

    /// Empirical loss rate of the trace.
    pub fn loss_rate(&self) -> f64 {
        if self.lost.is_empty() {
            return 0.0;
        }
        self.lost.iter().filter(|&&l| l).count() as f64 / self.lost.len() as f64
    }

    /// An iterator over the loss flags starting at `offset`, wrapping around.
    pub fn replay_from(&self, offset: usize) -> impl Iterator<Item = bool> + '_ {
        (0..).map(move |i| self.is_lost(offset + i))
    }
}

/// A set of per-receiver traces standing in for one MBone session.
#[derive(Debug, Clone)]
pub struct TraceSet {
    traces: Vec<ReceiverTrace>,
}

impl TraceSet {
    /// Generate a synthetic session with `receivers` receivers and `len`
    /// packet slots per trace.
    ///
    /// Per-receiver loss rates are drawn log-uniformly between 0.5 % and 45 %
    /// and then scaled so the session-wide mean is `mean_loss` (the paper
    /// reports ≈ 18 % for the parts of the traces it uses), with mean burst
    /// lengths drawn between 2 and 12 packets.
    pub fn synthetic(receivers: usize, len: usize, mean_loss: f64, seed: u64) -> Self {
        assert!(receivers > 0, "a session needs at least one receiver");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Draw heterogeneous per-receiver rates, then rescale to the target
        // session mean while keeping every rate in (0, 0.9).
        let mut rates: Vec<f64> = (0..receivers)
            .map(|_| {
                let lo: f64 = 0.005;
                let hi: f64 = 0.45;
                (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp()
            })
            .collect();
        let mean: f64 = rates.iter().sum::<f64>() / receivers as f64;
        let scale = mean_loss / mean;
        for r in rates.iter_mut() {
            *r = (*r * scale).clamp(0.001, 0.9);
        }
        let traces = rates
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                let burst = 2.0 + rng.gen::<f64>() * 10.0;
                ReceiverTrace::synthetic(len, rate, burst, seed ^ (i as u64).wrapping_mul(0x9e37))
            })
            .collect();
        TraceSet { traces }
    }

    /// Number of receivers.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True if the set has no receivers.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The traces.
    pub fn traces(&self) -> &[ReceiverTrace] {
        &self.traces
    }

    /// Session-wide average loss rate.
    pub fn mean_loss_rate(&self) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        self.traces.iter().map(|t| t.loss_rate()).sum::<f64>() / self.traces.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_trace_matches_target_rate() {
        let t = ReceiverTrace::synthetic(100_000, 0.18, 6.0, 1);
        assert!(
            (t.loss_rate() - 0.18).abs() < 0.02,
            "rate {}",
            t.loss_rate()
        );
        assert_eq!(t.len(), 100_000);
    }

    #[test]
    fn replay_wraps_around() {
        let t = ReceiverTrace::from_losses(vec![true, false, false]);
        let got: Vec<bool> = t.replay_from(2).take(5).collect();
        assert_eq!(got, vec![false, true, false, false, true]);
        assert!(t.is_lost(0));
        assert!(t.is_lost(3));
    }

    #[test]
    fn trace_set_statistics_match_the_paper() {
        // 120 receivers as in Figure 6; mean ≈ 18 %, rates heterogeneous
        // from below 1 % to above 30 %.
        let set = TraceSet::synthetic(120, 20_000, 0.18, 7);
        assert_eq!(set.len(), 120);
        let mean = set.mean_loss_rate();
        assert!((mean - 0.18).abs() < 0.03, "session mean {mean}");
        let min = set
            .traces()
            .iter()
            .map(|t| t.loss_rate())
            .fold(f64::INFINITY, f64::min);
        let max = set
            .traces()
            .iter()
            .map(|t| t.loss_rate())
            .fold(0.0f64, f64::max);
        assert!(min < 0.03, "some receivers must see low loss, min {min}");
        assert!(max > 0.30, "some receivers must see heavy loss, max {max}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = TraceSet::synthetic(10, 1000, 0.18, 42);
        let b = TraceSet::synthetic(10, 1000, 0.18, 42);
        for (x, y) in a.traces().iter().zip(b.traces()) {
            assert_eq!(x, y);
        }
    }
}

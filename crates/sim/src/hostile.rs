//! The hostile-channel robustness experiment: adaptive layered receivers
//! downloading through Gilbert–Elliott bursty loss, reordering and
//! duplication, with the join/leave behaviour of the `LayerController`
//! under scrutiny.
//!
//! The paper's congestion-control claims (Section 7.1) are argued on clean
//! or independently-lossy paths; the wireless fountain-code follow-ups
//! (PAPERS.md) show bursty channels are where such schemes oscillate.  This
//! module runs the *real* `df_proto::ClientSession` — the same code path the
//! UDP tests drive — behind a [`HostileChannel`](crate::channel::HostileChannel)
//! and reports everything a
//! stability assertion needs: completion, the full join/leave event trace,
//! the channel's burst-episode count, and the client's bounded-memory
//! counters.

use crate::channel::{ChannelStats, HostileChannelBuilder};
use crate::layered::Sender;
use crate::loss::GilbertElliottLoss;
use df_core::Reception;

/// Parameters of one [`hostile_channel_experiment`] run.
#[derive(Debug, Clone)]
pub struct HostileConfig {
    /// Source file length in bytes.
    pub file_len: usize,
    /// Multicast layers of the carousel.
    pub layers: usize,
    /// Rounds between synchronisation points.
    pub sp_interval: usize,
    /// Double-rate burst rounds before each SP.
    pub burst_rounds: usize,
    /// Loss probability in the Gilbert–Elliott bad state (the paper's
    /// hostile deployments see up to ~50 %).
    pub loss_bad: f64,
    /// Mean sojourn of the bad state, in packets.
    pub burst_len: f64,
    /// Stationary probability of being in the bad state.
    pub bad_occupancy: f64,
    /// Reordering probability per datagram.
    pub reorder_p: f64,
    /// Maximum reorder displacement, in arrivals.
    pub reorder_displacement: u64,
    /// Duplication probability per datagram.
    pub duplicate_p: f64,
    /// Uniform delay jitter, in arrivals.
    pub jitter: u64,
    /// Seed for the channel, the payload and the code.
    pub seed: u64,
    /// Round horizon after which the run is abandoned.
    pub max_rounds: usize,
}

impl Default for HostileConfig {
    fn default() -> Self {
        HostileConfig {
            file_len: 120_000,
            layers: 5,
            sp_interval: 2,
            burst_rounds: 1,
            loss_bad: 0.3,
            burst_len: 8.0,
            bad_occupancy: 0.15,
            reorder_p: 0.05,
            reorder_displacement: 8,
            duplicate_p: 0.02,
            jitter: 2,
            seed: 1,
            max_rounds: 600,
        }
    }
}

impl HostileConfig {
    /// The Gilbert–Elliott process these parameters describe: bad-state
    /// sojourn `burst_len`, stationary bad occupancy `bad_occupancy`, and a
    /// 0.5 % residual loss in the good state.
    fn gilbert_elliott(&self) -> GilbertElliottLoss {
        let p_bad_to_good = 1.0 / self.burst_len;
        let p_good_to_bad =
            (self.bad_occupancy * p_bad_to_good / (1.0 - self.bad_occupancy)).min(1.0);
        GilbertElliottLoss::new(p_good_to_bad, p_bad_to_good, 0.005, self.loss_bad)
    }

    /// Long-run average loss rate of the configured channel.
    pub fn average_loss(&self) -> f64 {
        use crate::loss::LossModel;
        self.gilbert_elliott().average_loss_rate()
    }
}

/// One subscription change observed during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriptionEvent {
    /// The receiver joined `group` at the given server round.
    Join {
        /// Round the join was executed in.
        round: usize,
        /// The joined group.
        group: u32,
    },
    /// The receiver left `group` at the given server round.
    Leave {
        /// Round the leave was executed in.
        round: usize,
        /// The left group.
        group: u32,
    },
}

/// Outcome of one [`hostile_channel_experiment`] run.  It reads as its
/// [`Reception`]: `outcome.received`, `outcome.reception_efficiency()`.
#[derive(Debug, Clone, PartialEq)]
pub struct HostileOutcome {
    /// Bad-state loss rate of the channel.
    pub loss_bad: f64,
    /// Mean bad-state burst length, in packets.
    pub burst_len: f64,
    /// Whether the download completed within the horizon.
    pub complete: bool,
    /// Rounds until completion (the horizon if it never completed).
    pub rounds: usize,
    /// Cumulative subscription level at the end of the run.
    pub final_level: usize,
    /// What the client took from the channel (after channel loss,
    /// duplicates included).
    pub reception: Reception,
    /// Packets the client refused (0: a carousel session refuses nothing).
    pub rejected: u64,
    /// The full join/leave trace, in execution order.
    pub events: Vec<SubscriptionEvent>,
    /// Completed good→bad transitions of the loss process.
    pub burst_episodes: u64,
    /// The channel decorator's own counters.
    pub channel: ChannelStats,
}

impl HostileOutcome {
    /// Number of Leave events in the trace.
    pub fn leaves(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SubscriptionEvent::Leave { .. }))
            .count()
    }

    /// Number of Join events in the trace.
    pub fn joins(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SubscriptionEvent::Join { .. }))
            .count()
    }
}

impl std::ops::Deref for HostileOutcome {
    type Target = Reception;

    fn deref(&self) -> &Reception {
        &self.reception
    }
}

/// Run one adaptive layered receiver against a carousel through a hostile
/// channel (Gilbert–Elliott loss, reordering, duplication, jitter per
/// `cfg`) and report the complete behavioural trace.
///
/// The run is a pure function of `cfg` — the channel, the payload and the
/// code all derive from `cfg.seed` — which is what the trace-replay
/// determinism tests lean on.
///
/// # Panics
///
/// Panics on a degenerate configuration (empty file, invalid layered
/// cadence) — this is an experiment driver, not a validation surface.
pub fn hostile_channel_experiment(cfg: &HostileConfig) -> HostileOutcome {
    let mut sender = Sender::new(
        cfg.file_len,
        cfg.layers,
        cfg.sp_interval,
        cfg.burst_rounds,
        cfg.seed,
    );
    let rx = HostileChannelBuilder::new(cfg.seed ^ 0x686f_7374)
        .stage(Box::new(cfg.gilbert_elliott()))
        .reorder(cfg.reorder_p, cfg.reorder_displacement)
        .duplicate(cfg.duplicate_p)
        .jitter(cfg.jitter)
        .wrap(sender.net.endpoint(0.0));
    // No access-link budget: the channel is the whole hostile path.
    let mut listeners = [sender.listener(rx, usize::MAX)];
    sender.pump(&mut listeners, cfg.max_rounds);

    let [listener] = listeners;
    let stats = listener.client.stats();
    HostileOutcome {
        loss_bad: cfg.loss_bad,
        burst_len: cfg.burst_len,
        complete: listener.finished_at.is_some(),
        rounds: listener.finished_at.unwrap_or(cfg.max_rounds),
        final_level: listener.client.subscription_level().unwrap_or(0),
        reception: **stats,
        rejected: stats.rejected(),
        events: listener.events,
        burst_episodes: listener.transport.burst_episodes(),
        channel: listener.transport.stats(),
    }
}

/// Sweep `loss_bads × burst_lens` with otherwise-default parameters.  Each
/// cell gets its own deterministic seed derived from `seed`.
pub fn hostile_sweep(loss_bads: &[f64], burst_lens: &[f64], seed: u64) -> Vec<HostileOutcome> {
    let mut out = Vec::with_capacity(loss_bads.len() * burst_lens.len());
    for (i, &loss_bad) in loss_bads.iter().enumerate() {
        for (j, &burst_len) in burst_lens.iter().enumerate() {
            let cfg = HostileConfig {
                loss_bad,
                burst_len,
                seed: seed.wrapping_add((i * burst_lens.len() + j) as u64),
                ..HostileConfig::default()
            };
            out.push(hostile_channel_experiment(&cfg));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hostile_download_completes_and_stays_within_its_memory_bound() {
        let out = hostile_channel_experiment(&HostileConfig::default());
        assert!(out.complete, "{out:?}");
        assert_eq!(out.rejected, 0, "a carousel client refuses nothing");
        assert!(
            out.burst_episodes > 0,
            "premise: the channel actually bursts"
        );
        assert!(out.channel.dropped > 0 && out.channel.duplicated > 0);
        assert!(out.reception_efficiency() > 0.2);
    }

    #[test]
    fn the_run_is_a_pure_function_of_its_config() {
        let cfg = HostileConfig {
            loss_bad: 0.5,
            seed: 77,
            ..HostileConfig::default()
        };
        let a = hostile_channel_experiment(&cfg);
        let b = hostile_channel_experiment(&cfg);
        assert_eq!(a, b, "identical seed must yield an identical trace");
    }

    #[test]
    fn leaves_stay_bounded_by_burst_episodes_across_the_sweep() {
        for out in hostile_sweep(&[0.1, 0.3, 0.5], &[4.0, 16.0], 5) {
            assert!(out.complete, "{out:?}");
            assert!(
                out.leaves() as u64 <= out.burst_episodes,
                "oscillation: {} leaves for {} burst episodes ({out:?})",
                out.leaves(),
                out.burst_episodes
            );
        }
    }
}

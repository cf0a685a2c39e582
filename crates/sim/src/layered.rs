//! The layered congestion-control experiments: Figure 7's heterogeneous
//! receiver population and both halves of Figure 8 (`repro layered` and
//! `repro figure8` share this one driver, and the hostile-channel
//! experiment pumps its receiver through it too).  Receivers download one
//! carousel, each behind its own bottleneck bandwidth and the channel's
//! independent loss, all running the *real* protocol stack —
//! `df_proto::ServerSession` transmitting the SP/burst schedule over
//! `SimMulticast` and one `df_proto::ClientSession` per receiver making its
//! own join/leave decisions.  This is the same client code path the UDP loopback tests
//! drive; only the driver (this module) differs, which is the point of the
//! sans-I/O design.
//!
//! The driver models each receiver's access link as a per-round tail-drop
//! queue: of the datagrams multicast to the receiver's subscribed groups in
//! one round that escape the channel's loss, only the first
//! `bottleneck × blocks` get through (the base layer sends one packet per
//! block per round, so a bottleneck of `b` base-rate units is a budget of
//! `b · blocks` packets — normalised per block, making results file-size
//! independent).  Everything else — loss detection, burst probing, the
//! decision to join or leave — happens inside the client session, with the
//! driver merely executing `Transport::join`/`leave` when the session says
//! so.

use crate::hostile::SubscriptionEvent;
use df_core::Reception;
use df_proto::{
    ClientEvent, ClientSession, ServerSession, SessionConfig, SimEndpoint, SimMulticast, Transport,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Outcome of one adaptive receiver in a [`layered_population_experiment`].
/// It reads as its [`Reception`]: `outcome.k`,
/// `outcome.distinctness_efficiency()`.
#[derive(Debug, Clone)]
pub struct LayeredOutcome {
    /// The receiver's bottleneck bandwidth in base-layer-rate units.
    pub bottleneck: f64,
    /// Whether the download completed within the round horizon.
    pub complete: bool,
    /// Cumulative subscription level when the download finished.
    pub final_level: usize,
    /// Server rounds until the receiver completed (the horizon if it never
    /// did).
    pub rounds: usize,
    /// What the client took from the channel: the datagrams that made it
    /// through its bottleneck.
    pub reception: Reception,
}

impl std::ops::Deref for LayeredOutcome {
    type Target = Reception;

    fn deref(&self) -> &Reception {
        &self.reception
    }
}

/// The sending side of every layered experiment: a layered carousel of
/// `file_len` seeded random bytes, and the multicast channel it sends on.
pub(crate) struct Sender {
    server: ServerSession,
    /// The channel, for the receivers' endpoints; the sender's own is the
    /// first registered.
    pub(crate) net: SimMulticast,
    tx: SimEndpoint,
}

/// One receiver a [`Sender`] pumps: a client session on its own transport,
/// behind an access link that passes `budget` datagrams a round.
pub(crate) struct Listener<T> {
    pub(crate) transport: T,
    pub(crate) client: ClientSession,
    budget: usize,
    /// Server rounds until the client completed.
    pub(crate) finished_at: Option<usize>,
    /// Every join and leave the client asked for, as the pump executed it.
    pub(crate) events: Vec<SubscriptionEvent>,
}

impl Sender {
    /// The session over `file_len` random bytes drawn from `seed`, which
    /// also seeds the code and the channel.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (empty file, invalid layered
    /// cadence).
    pub(crate) fn new(
        file_len: usize,
        layers: usize,
        sp_interval: usize,
        burst_rounds: usize,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data: Vec<u8> = (0..file_len).map(|_| rng.gen()).collect();
        let server = ServerSession::new(
            &data,
            SessionConfig {
                layers,
                code_seed: seed,
                sp_interval,
                burst_rounds,
                ..SessionConfig::default()
            },
        )
        .expect("valid layered session configuration");
        let net = SimMulticast::new(seed);
        let tx = net.endpoint(0.0);
        Sender { server, net, tx }
    }

    /// A fresh client of this session on `transport`, subscribed to its
    /// first groups.
    pub(crate) fn listener<T: Transport>(&self, mut transport: T, budget: usize) -> Listener<T> {
        let client = ClientSession::new(self.server.control_info().clone())
            .expect("server-produced control info is valid");
        for group in client.subscribed_groups() {
            transport.join(group).expect("sim join");
        }
        Listener {
            transport,
            client,
            budget,
            finished_at: None,
            events: Vec::new(),
        }
    }

    /// Send rounds until every listener has completed or `max_rounds` have
    /// gone by.  After each round every listener still downloading drains
    /// its transport, and the transport executes the client's joins and
    /// leaves; a listener that completes leaves its groups and is not read
    /// again.
    pub(crate) fn pump<T: Transport>(&mut self, listeners: &mut [Listener<T>], max_rounds: usize) {
        for round in 0..max_rounds {
            self.server.send_round(&mut self.tx);
            for l in listeners.iter_mut().filter(|l| l.finished_at.is_none()) {
                l.listen(round);
            }
            if listeners.iter().all(|l| l.finished_at.is_some()) {
                break;
            }
        }
    }
}

impl<T: Transport> Listener<T> {
    /// Drain what round `round` delivered.  The access link: of the round's
    /// arrivals, everything beyond the budget is tail-dropped before the
    /// client sees it.
    fn listen(&mut self, round: usize) {
        let mut arrived = 0usize;
        while let Some((_group, datagram)) = self.transport.recv() {
            arrived += 1;
            if arrived > self.budget {
                continue;
            }
            match self.client.handle_datagram(datagram) {
                ClientEvent::Join { group } => {
                    self.transport.join(group).expect("sim join");
                    self.events.push(SubscriptionEvent::Join { round, group });
                }
                ClientEvent::Leave { group } => {
                    self.transport.leave(group);
                    self.events.push(SubscriptionEvent::Leave { round, group });
                }
                ClientEvent::Complete => {
                    self.finished_at = Some(round + 1);
                    // Stop listening: a finished receiver leaves the
                    // session's groups, as a real driver would.
                    for group in self.client.subscribed_groups() {
                        self.transport.leave(group);
                    }
                    return;
                }
                _ => {}
            }
        }
    }
}

/// Run a heterogeneous population of adaptive receivers against one layered
/// carousel and report each receiver's convergence level and completion
/// time.
///
/// `bottlenecks` are per-receiver bandwidths in base-layer-rate units; a
/// receiver behind bottleneck `b` can absorb cumulative level `l` iff the
/// level's relative bandwidth `≤ b`, and the burst probe keeps it from
/// overshooting.  `f64::INFINITY` is an access link that drops nothing.
/// `loss` is every receiver's independent loss probability on the
/// multicast channel, applied before the bottleneck budget.  `max_rounds`
/// bounds the simulation (receivers that have not completed by then are
/// reported with `complete: false`).
///
/// A flat session (`sp_interval == 0`) is the single-layer control of
/// Figure 8: its clients subscribe to every group and never move.
///
/// # Panics
///
/// Panics on a degenerate configuration (empty file, invalid layered
/// cadence, `loss` outside `[0, 1)`) — this is an experiment driver, not a
/// validation surface.
#[allow(clippy::too_many_arguments)]
pub fn layered_population_experiment(
    file_len: usize,
    layers: usize,
    sp_interval: usize,
    burst_rounds: usize,
    bottlenecks: &[f64],
    loss: f64,
    seed: u64,
    max_rounds: usize,
) -> Vec<LayeredOutcome> {
    let mut sender = Sender::new(file_len, layers, sp_interval, burst_rounds, seed);
    let blocks = sender
        .server
        .schedule()
        .expect("carousel sessions have a schedule")
        .num_blocks();
    let mut receivers: Vec<_> = bottlenecks
        .iter()
        .map(|&bottleneck| {
            let budget = (bottleneck * blocks as f64).floor() as usize;
            sender.listener(sender.net.endpoint(loss), budget)
        })
        .collect();
    sender.pump(&mut receivers, max_rounds);

    bottlenecks
        .iter()
        .zip(receivers)
        .map(|(&bottleneck, r)| LayeredOutcome {
            bottleneck,
            complete: r.finished_at.is_some(),
            final_level: r.client.subscription_level().unwrap_or(0),
            rounds: r.finished_at.unwrap_or(max_rounds),
            reception: **r.client.stats(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneous_bottlenecks_converge_to_distinct_levels() {
        // The acceptance scenario: 1×, 3× and 7× base-rate bottlenecks
        // (cumulative level bandwidths at g = 6 are 1, 2, 4, 8, 16, 32) must
        // converge to levels 0, 1 and 2 — each the highest level whose
        // steady rate fits, with the burst probe blocking the overshoot.
        let rows = layered_population_experiment(500_000, 6, 2, 1, &[1.0, 3.0, 7.0], 0.0, 42, 400);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.complete,
                "bottleneck {} never completed",
                row.bottleneck
            );
        }
        assert_eq!(
            rows.iter().map(|r| r.final_level).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "each receiver must find its own level"
        );
        // Completion time falls as the subscribed rate rises.
        assert!(rows[0].rounds > rows[1].rounds);
        assert!(rows[1].rounds > rows[2].rounds);
    }

    #[test]
    fn wide_open_receiver_outruns_a_narrow_one_at_any_file_size() {
        for file_len in [100_000usize, 400_000] {
            let rows = layered_population_experiment(file_len, 6, 2, 1, &[1.0, 64.0], 0.0, 7, 400);
            assert!(rows.iter().all(|r| r.complete));
            assert!(rows[1].final_level > rows[0].final_level);
            assert!(rows[1].rounds < rows[0].rounds);
            // The realized throughput (packets through the bottleneck per
            // round) scales with the subscribed rate.
            let throughput = |r: &LayeredOutcome| r.received as f64 / r.rounds.max(1) as f64;
            assert!(throughput(&rows[1]) > 2.0 * throughput(&rows[0]));
        }
    }

    #[test]
    fn the_shipped_receiver_keeps_figure_8s_properties() {
        // The single-layer control is a flat 4-group carousel with no
        // bottleneck; the layered rows use Figure 8's cadence.  Every row
        // must complete, then pass its own check.
        const FLAT: (usize, usize, usize) = (4, 0, 0);
        const LAYERED: (usize, usize, usize) = (6, 2, 1);
        const OPEN: f64 = f64::INFINITY;
        // (what, file length, (layers, SP interval, burst), bottleneck,
        // loss, check)
        type Case = (&'static str, usize, (usize, usize, usize), f64, f64, Check);
        type Check = fn(&LayeredOutcome) -> bool;
        let cases: [Case; 9] = [
            // The One Level Property: no duplicate before reconstruction.
            ("flat, no loss", 500_000, FLAT, OPEN, 0.0, |r| {
                r.distinct == r.received && r.coding_efficiency() > 0.7
            }),
            ("flat, 30 % loss", 500_000, FLAT, OPEN, 0.3, |r| {
                r.distinctness_efficiency() > 0.95
            }),
            ("flat, 70 % loss", 500_000, FLAT, OPEN, 0.7, |r| {
                r.distinctness_efficiency() < 1.0 && r.reception_efficiency() > 0.4
            }),
            // Level 1 (rate 2) fits exactly and its burst (4) does not: the
            // burst loss blocks the join without ever forcing a leave.
            ("2x bottleneck", 500_000, LAYERED, 2.0, 0.0, |r| {
                r.final_level == 1
            }),
            ("4x bottleneck", 500_000, LAYERED, 4.0, 0.0, |r| {
                r.final_level == 2
            }),
            // The budget is normalised per block, so the level a bottleneck
            // sustains does not depend on the file size.
            ("3x bottleneck, 125 kB", 125_000, LAYERED, 3.0, 0.0, |r| {
                r.final_level == 1
            }),
            ("3x bottleneck, 500 kB", 500_000, LAYERED, 3.0, 0.0, |r| {
                r.final_level == 1
            }),
            ("3x bottleneck, 2 MB", 2_000_000, LAYERED, 3.0, 0.0, |r| {
                r.final_level == 1
            }),
            (
                "3x bottleneck, 10 % loss",
                500_000,
                LAYERED,
                3.0,
                0.1,
                |r| r.reception_efficiency() > 0.3,
            ),
        ];
        for seed in 1..=3 {
            for (what, file_len, (layers, sp, burst), bottleneck, loss, check) in cases {
                let r = layered_population_experiment(
                    file_len,
                    layers,
                    sp,
                    burst,
                    &[bottleneck],
                    loss,
                    seed,
                    2_000,
                )
                .remove(0);
                assert!(r.complete && check(&r), "{what}, seed {seed}: {r:?}");
            }
        }
    }
}

//! The Figure 7-style layered congestion-control experiment: a heterogeneous
//! receiver population downloading one layered carousel, each receiver
//! behind its own bottleneck bandwidth, all running the *real* protocol
//! stack — `df_proto::ServerSession` transmitting the SP/burst schedule over
//! `SimMulticast` and one `df_proto::ClientSession` per receiver making its
//! own join/leave decisions.  This is the same client code path the UDP
//! loopback tests drive; only the driver (this module) differs, which is the
//! point of the sans-I/O design.
//!
//! The driver models each receiver's access link as a per-round tail-drop
//! queue: of the datagrams multicast to the receiver's subscribed groups in
//! one round, only the first `bottleneck × blocks` survive (the base layer
//! sends one packet per block per round, so a bottleneck of `b` base-rate
//! units is a budget of `b · blocks` packets — normalised per block, making
//! results file-size independent).  Everything else — loss detection, burst
//! probing, the decision to join or leave — happens inside the client
//! session, with the driver merely executing `Transport::join`/`leave` when
//! the session says so.

use df_core::Reception;
use df_proto::{ClientEvent, ClientSession, ServerSession, SessionConfig, SimMulticast, Transport};
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

struct Receiver {
    endpoint: df_proto::SimEndpoint,
    client: ClientSession,
    /// Datagrams per round the access link lets through.
    budget: usize,
    bottleneck: f64,
    finished_at: Option<usize>,
}

/// Run a heterogeneous population of adaptive receivers against one layered
/// carousel and report each receiver's convergence level and completion
/// time.
///
/// `bottlenecks` are per-receiver bandwidths in base-layer-rate units; a
/// receiver behind bottleneck `b` can absorb cumulative level `l` iff the
/// level's relative bandwidth `≤ b`, and the burst probe keeps it from
/// overshooting.  `max_rounds` bounds the simulation (receivers that have
/// not completed by then are reported with `complete: false`).
///
/// # Panics
///
/// Panics on a degenerate configuration (empty file, invalid layered
/// cadence) — this is an experiment driver, not a validation surface.
pub fn layered_population_experiment(
    file_len: usize,
    layers: usize,
    sp_interval: usize,
    burst_rounds: usize,
    bottlenecks: &[f64],
    seed: u64,
    max_rounds: usize,
) -> Vec<LayeredOutcome> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data: Vec<u8> = (0..file_len).map(|_| rng.gen()).collect();
    let mut server = ServerSession::new(
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
    let blocks = server
        .schedule()
        .expect("carousel sessions have a schedule")
        .num_blocks();
    let net = SimMulticast::new(seed);
    let mut tx = net.endpoint(0.0);
    let mut receivers: Vec<Receiver> = bottlenecks
        .iter()
        .map(|&bottleneck| {
            let mut endpoint = net.endpoint(0.0);
            let client = ClientSession::new(server.control_info().clone())
                .expect("server-produced control info is valid");
            for group in client.subscribed_groups() {
                endpoint.join(group).expect("sim join");
            }
            Receiver {
                endpoint,
                client,
                budget: (bottleneck * blocks as f64).floor() as usize,
                bottleneck,
                finished_at: None,
            }
        })
        .collect();

    for round in 0..max_rounds {
        server.send_round(&mut tx);
        for r in &mut receivers {
            // The access link: of this round's arrivals, everything beyond
            // the bottleneck budget is tail-dropped before the client sees
            // it.
            let mut arrived = 0usize;
            while let Some((_group, datagram)) = r.endpoint.recv() {
                arrived += 1;
                if arrived > r.budget || r.finished_at.is_some() {
                    continue;
                }
                match r.client.handle_datagram(datagram) {
                    ClientEvent::Join { group } => {
                        r.endpoint.join(group).expect("sim join");
                    }
                    ClientEvent::Leave { group } => r.endpoint.leave(group),
                    ClientEvent::Complete => {
                        r.finished_at = Some(round + 1);
                        // Stop listening: a finished receiver leaves the
                        // session's groups, as a real driver would.
                        for group in r.client.subscribed_groups() {
                            r.endpoint.leave(group);
                        }
                    }
                    _ => {}
                }
            }
        }
        if receivers.iter().all(|r| r.finished_at.is_some()) {
            break;
        }
    }

    receivers
        .into_iter()
        .map(|r| LayeredOutcome {
            bottleneck: r.bottleneck,
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
        let rows = layered_population_experiment(500_000, 6, 2, 1, &[1.0, 3.0, 7.0], 42, 400);
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
            let rows = layered_population_experiment(file_len, 6, 2, 1, &[1.0, 64.0], 7, 400);
            assert!(rows.iter().all(|r| r.complete));
            assert!(rows[1].final_level > rows[0].final_level);
            assert!(rows[1].rounds < rows[0].rounds);
            // The realized throughput (packets through the bottleneck per
            // round) scales with the subscribed rate.
            let throughput = |r: &LayeredOutcome| r.received as f64 / r.rounds.max(1) as f64;
            assert!(throughput(&rows[1]) > 2.0 * throughput(&rows[0]));
        }
    }
}

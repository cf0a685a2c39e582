//! The driver-scale experiment: a [`df_proto::Driver`] pumping server
//! carousels and an arbitrarily large population of concurrent
//! [`df_proto::ClientSession`]s over [`df_proto::SimMulticast`].
//!
//! The paper's server is a stateless carousel meant to feed *arbitrarily
//! many* heterogeneous receivers at once (Sections 3 and 7); the sans-I/O
//! session layer makes the per-receiver state a plain struct, so the only
//! scaling questions left are whether the I/O driver can multiplex them —
//! answered with thousands of sessions on one shard — and whether it can
//! *shard* them across cores: [`swarm_experiment`] partitions the
//! population into per-shard sub-swarms (own channel, own full-rate server
//! replica, SO_REUSEPORT-style), so wall-clock throughput scales with
//! worker threads while every sub-population sees the canonical carousel
//! rate.  Nothing outside this module's tests calls it: it is kept as the
//! scale and determinism check of the driver (1 000 sessions on one shard,
//! draw-for-draw replay under loss at 1 and 4 shards), while throughput is
//! measured by `benchmark/`.

use df_proto::{
    ClientSession, DriverConfig, DriverEvent, Pacing, ServerSession, Session, SessionConfig,
    SimEndpoint, SimMulticast,
};
use std::time::Duration;

/// Outcome of one [`swarm_experiment`] run.
#[derive(Debug, Clone)]
pub struct SwarmOutcome {
    /// Concurrent client sessions driven through the driver.
    pub clients: usize,
    /// How many completed their download within the step budget.
    pub completed: usize,
    /// Driver steps (deterministic per-shard ticks) executed.
    pub steps: usize,
    /// Worker shards (threads) the population was split across.
    pub shards: usize,
    /// Datagrams emitted by all server slots.
    pub datagrams_sent: u64,
    /// Datagrams drained from client transports.
    pub datagrams_received: u64,
}

/// Drive `clients` concurrent downloads of one `file_len`-byte file through
/// a stepped [`df_proto::Driver`] and report completion and datagram counts.
///
/// The population is partitioned into `shards` independent sub-swarms, each
/// on its own worker thread with its own [`SimMulticast`] channel and its
/// own *full-rate* server replica (the SO_REUSEPORT shape: N fountains each
/// feeding 1/N of the receivers).  Every sub-population therefore
/// experiences the same carousel rate as a one-shard run and completes in
/// the same number of steps — what changes with the shard count is
/// wall-clock.
///
/// Clients `i` with `i % 4 == 3` sit behind 20 % independent loss, the rest
/// are clean — enough heterogeneity that the carousel must keep cycling for
/// the tail while the bulk completes early, which is the scheduling pattern
/// a real deployment produces.  The run is deterministic for a given
/// (`seed`, population, `shards`) triple: workers tick only on
/// [`df_proto::Driver::step`], and per-shard channels keep each worker's
/// loss draws on its own seeded RNG (`seed + shard`).
///
/// # Panics
///
/// Panics if the file cannot be encoded (degenerate `file_len`/
/// `packet_size` — this is an experiment driver, not a validation surface),
/// or (in debug builds) if any completed download fails byte-for-byte
/// verification.
pub fn swarm_experiment(
    file_len: usize,
    packet_size: usize,
    clients: usize,
    seed: u64,
    max_steps: usize,
    shards: usize,
) -> SwarmOutcome {
    let shards = shards.clamp(1, clients.max(1));
    let data: Vec<u8> = (0..file_len)
        .map(|i| ((i * 131 + seed as usize) % 251) as u8)
        .collect();
    let config = SessionConfig {
        packet_size,
        code_seed: seed,
        ..SessionConfig::default()
    };
    let servers: Vec<ServerSession> = (0..shards)
        .map(|_| ServerSession::new(&data, config).expect("swarm server session encodes"))
        .collect();
    let info = servers[0].control_info().clone();
    // A quarter round per step: several steps per carousel cycle, so the
    // driver's scheduling (tick, drain, repeat) is actually exercised rather
    // than every client completing inside a single monster tick.
    let mut driver = DriverConfig::new()
        .shards(shards)
        .pacing(Pacing::new(
            Duration::from_millis(1),
            info.n.div_ceil(4).max(1),
        ))
        .stepped(true)
        .build::<SimEndpoint>();
    let mut nets = Vec::with_capacity(shards);
    for (shard, server) in servers.into_iter().enumerate() {
        let net = SimMulticast::new(seed.wrapping_add(shard as u64));
        let server = Session::Server {
            server: Box::new(server.into()),
            control: None,
        };
        driver
            .add_on(shard, server, net.endpoint(0.0))
            .expect("shard workers are alive at setup");
        nets.push(net);
    }
    for i in 0..clients {
        let shard = i % shards;
        let loss = if i % 4 == 3 { 0.2 } else { 0.0 };
        let session = ClientSession::new(info.clone()).expect("server-produced control info");
        driver
            .add_on(
                shard,
                Session::Client(Box::new(session)),
                nets[shard].endpoint(loss),
            )
            .expect("sim adds cannot fail");
    }

    let mut steps = 0;
    while steps < max_steps && !driver.all_clients_complete() {
        driver.step(1).expect("shard workers stay alive");
        steps += 1;
    }

    let completed = driver.completed_clients();
    let stats = driver.stats();
    let report = driver.shutdown().expect("clean driver shutdown");
    if cfg!(debug_assertions) {
        for event in &report.events {
            if let DriverEvent::Completed { session, .. } = event {
                assert_eq!(
                    session.file().expect("completed session has its file"),
                    &data[..],
                    "sharded download corrupted"
                );
            }
        }
    }
    SwarmOutcome {
        clients,
        completed,
        steps,
        shards,
        datagrams_sent: stats.datagrams_sent,
        datagrams_received: stats.datagrams_received,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thousand_concurrent_sessions_complete_on_one_shard() {
        // The acceptance scenario: ≥1000 concurrent ClientSessions, one
        // shard, one thread, every download completing and verifying.
        // Small per-client files keep the test fast; the point is session
        // *count*, not bytes.
        let outcome = swarm_experiment(10_000, 500, 1_000, 7, 400, 1);
        assert_eq!(outcome.clients, 1_000);
        assert_eq!(
            outcome.completed, 1_000,
            "all 1000 sessions must complete: {outcome:?}"
        );
        assert!(
            outcome.steps < 400,
            "the loop must converge well inside the step budget"
        );
        // The lossy quarter of the population needs more rounds than the
        // clean bulk, so the carousel necessarily outlives the first
        // completions — receptions exceed one round per client.
        assert!(outcome.datagrams_received as usize > outcome.clients);
    }

    #[test]
    fn swarm_is_deterministic_per_seed() {
        let a = swarm_experiment(8_000, 500, 60, 11, 400, 1);
        let b = swarm_experiment(8_000, 500, 60, 11, 400, 1);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.datagrams_sent, b.datagrams_sent);
        assert_eq!(a.datagrams_received, b.datagrams_received);
    }

    #[test]
    fn sharded_swarm_completes_and_is_deterministic() {
        // Per-shard channels give each worker its own seeded RNG, so even a
        // four-thread run is reproducible draw-for-draw — down to the exact
        // step the last download finished on.
        for shards in [1, 4] {
            let a = swarm_experiment(8_000, 500, 64, 11, 800, shards);
            let b = swarm_experiment(8_000, 500, 64, 11, 800, shards);
            assert_eq!(a.shards, shards);
            assert_eq!(a.completed, 64, "sharded population stalled: {a:?}");
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.datagrams_sent, b.datagrams_sent);
            assert_eq!(a.datagrams_received, b.datagrams_received);
        }
    }
}

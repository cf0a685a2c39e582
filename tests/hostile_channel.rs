//! Hostile-channel integration: a one-shard stepped [`Driver`] pumping a
//! layered carousel to a fleet of receivers that each sit behind their own
//! [`HostileChannel`] — Gilbert–Elliott bursty loss up to a 50 % bad state,
//! reordering, duplication and delay jitter — plus the sweep-level claims the
//! `repro hostile` table is built on.
//!
//! The acceptance criteria under test: every receiver completes, nobody
//! panics, client memory stays inside its cap, and the adaptive subscription
//! logic does not oscillate (leaves bounded by the channel's burst episodes).

use digital_fountain::proto::{
    ClientSession, Driver, DriverConfig, DriverEvent, Pacing, ServerSession, SessionConfig,
    SimEndpoint, SimMulticast,
};
use digital_fountain::sim::{
    hostile_channel_experiment, hostile_sweep, HostileChannel, HostileChannelBuilder, HostileConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn random_file(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

/// The payloads a session holds never exceed the advertised cap.
fn assert_bounded(client: &ClientSession) {
    assert!(
        client.held_packets() <= client.buffer_cap(),
        "memory bound violated: {} held > cap {}",
        client.held_packets(),
        client.buffer_cap()
    );
}

#[test]
fn event_loop_completes_a_fleet_behind_hostile_channels() {
    // One layered carousel, eight receivers, each behind an independently
    // seeded hostile channel averaging ~15 % loss in long bursts.  The
    // server rides a *transparent* HostileChannel (empty pipeline) so the
    // whole fleet shares one Driver<HostileChannel<SimEndpoint>>.
    let data = random_file(80_000, 21);
    let server = ServerSession::new(
        &data,
        SessionConfig {
            layers: 4,
            code_seed: 21,
            sp_interval: 2,
            burst_rounds: 1,
            ..SessionConfig::default()
        },
    )
    .unwrap();
    let n = server.code().expect("carousel session").n();
    let info = server.control_info().clone();

    let net = SimMulticast::new(21);
    let mut driver: Driver<HostileChannel<SimEndpoint>> = DriverConfig::new()
        .shards(1)
        .stepped(true)
        .pacing(Pacing::new(Duration::from_millis(1), n.div_ceil(4).max(1)))
        .build();
    driver
        .add_server_session(
            server,
            HostileChannelBuilder::new(0).wrap(net.endpoint(0.0)),
        )
        .unwrap();
    let fleet = 8;
    for i in 0..fleet as u64 {
        let session = ClientSession::new(info.clone()).unwrap();
        let channel = HostileChannelBuilder::new(900 + i)
            .gilbert_elliott(0.15, 8.0)
            .reorder(0.05, 6)
            .duplicate(0.02)
            .jitter(2)
            .wrap(net.endpoint(0.0));
        driver.add_client(session, channel).unwrap();
    }

    let mut steps = 0;
    let mut finished = Vec::with_capacity(fleet);
    while steps < 600_000 && !driver.all_clients_complete() {
        driver.step(1).unwrap();
        steps += 1;
        for event in driver.poll_events() {
            if let DriverEvent::Completed { session, .. } = event {
                finished.push(session);
            }
        }
    }

    assert_eq!(
        finished.len(),
        fleet,
        "only {}/{fleet} hostile-channel clients completed after {steps} steps",
        finished.len()
    );
    for client in finished {
        assert_eq!(
            client.file().unwrap(),
            &data[..],
            "corrupted reconstruction"
        );
        assert_eq!(client.stats().rejected(), 0, "honest carousel hit the cap");
        assert_bounded(&client);
    }
}

#[test]
fn ge_sweep_up_to_half_loss_completes_without_oscillating() {
    // The headline acceptance sweep: bad-state loss up to 50 %, two burst
    // scales.  Every cell must complete, stay inside the memory cap, and
    // leave at most once per burst episode (no sustained oscillation).
    for out in hostile_sweep(&[0.2, 0.5], &[4.0, 16.0], 31) {
        assert!(
            out.complete,
            "receiver under loss_bad={} burst_len={} never completed: {out:?}",
            out.loss_bad, out.burst_len
        );
        assert_eq!(out.rejected, 0, "honest traffic must never be rejected");
        assert!(
            out.leaves() as u64 <= out.burst_episodes,
            "oscillation at loss_bad={}: {} leaves for {} episodes",
            out.loss_bad,
            out.leaves(),
            out.burst_episodes
        );
        assert!(
            out.reception_efficiency() > 0.15,
            "efficiency collapsed: {out:?}"
        );
    }
}

#[test]
fn a_hostile_run_replays_identically_from_its_seed() {
    // Trace-replay determinism at the harshest sweep point: the full
    // join/leave event sequence, round count and channel counters are a pure
    // function of the config.
    let cfg = HostileConfig {
        loss_bad: 0.5,
        burst_len: 16.0,
        seed: 99,
        ..HostileConfig::default()
    };
    let a = hostile_channel_experiment(&cfg);
    let b = hostile_channel_experiment(&cfg);
    assert_eq!(a.events, b.events, "join/leave trace must replay exactly");
    assert_eq!(a, b, "the full outcome must replay exactly");
    assert!(a.complete);
}

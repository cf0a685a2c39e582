//! Receiver-driven layered congestion control over real UDP sockets
//! (Section 7.1 of the paper): the server carousels one Tornado encoding
//! across six multicast groups at geometrically increasing rates, with a
//! synchronisation point every other round and a double-rate burst before
//! each SP.  Receivers subscribe to the base layer only and then *find
//! their own rate* — the session emits `ClientEvent::Join`/`Leave` intents
//! and the [`Driver`] shard executes them on the slot's transport, joining a
//! higher group after every clean burst and shedding the top layer on
//! sustained loss.  No receiver ever sends a packet towards the source.
//!
//! Run with: `cargo run --release --example layered_fountain`
//!
//! Server and receiver share **one readiness-driven driver shard — one
//! thread**.  Two receivers use the carousel in turn (a fountain client
//! joins the perpetual stream whenever it likes; sequential receivers also
//! keep the group ports free for one another in loopback mode): an
//! unthrottled one that climbs as far as the download length allows, and
//! one behind a congested access link — its socket wrapped in a
//! `HostileChannel` whose one stage, a seeded `BernoulliLoss`, drops a
//! quarter of the received datagrams, exactly where a real bottleneck queue
//! would sit — whose bursts are rarely clean, so it stays pinned near the
//! base layer and finishes later.  That heterogeneity is what the layered
//! scheme exists to serve.
//!
//! Addressing: real IPv4 multicast when the host can loop it back,
//! loopback unicast otherwise (same sessions, same datagrams either way).

use digital_fountain::proto::{
    ClientSession, Driver, DriverConfig, DriverEvent, FountainServer, GroupAddressing, Pacing,
    SessionConfig, Transport, UdpMulticastTransport,
};
use digital_fountain::sim::{BernoulliLoss, HostileChannel, HostileChannelBuilder};
use std::time::{Duration, Instant};

const MCAST_ADDR: std::net::Ipv4Addr = std::net::Ipv4Addr::new(239, 255, 71, 92);
const DATA_PORT: u16 = 47101;
/// A probe-only group well above the session's group range.
const PROBE_GROUP: u32 = 900;

/// Decide once whether this host can loop multicast back to itself; fall
/// back to loopback unicast otherwise so the example runs anywhere.
fn choose_addressing() -> GroupAddressing {
    if let Ok(mut probe) = UdpMulticastTransport::multicast(MCAST_ADDR, DATA_PORT) {
        if probe.join(PROBE_GROUP).is_ok() {
            probe.send(PROBE_GROUP, bytes::Bytes::from_static(b"probe"));
            if probe.recv_timeout(Duration::from_millis(300)).is_some() {
                return probe.addressing();
            }
        }
    }
    println!("(multicast loop unavailable; using loopback unicast addressing)");
    GroupAddressing::LoopbackUnicast {
        base_port: DATA_PORT,
    }
}

fn patterned_file(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

/// Every slot's transport: a UDP socket behind the channel decorator, which
/// is transparent unless it is given a loss stage.
type Link = HostileChannel<UdpMulticastTransport>;

fn link(addressing: GroupAddressing, builder: HostileChannelBuilder) -> Link {
    builder.wrap(UdpMulticastTransport::new(addressing).expect("udp transport"))
}

/// Run one receiver through the shared driver until its download
/// completes, reporting its subscription journey.
fn run_receiver(
    driver: &mut Driver<Link>,
    name: &'static str,
    link: Link,
    info: digital_fountain::proto::ControlInfo,
    expected: &[u8],
) {
    let client = ClientSession::new(info).expect("valid control info");
    println!(
        "[{name}] session: {} packets over {} layers, SP every {} rounds",
        client.control_info().n,
        client.control_info().layers,
        client.control_info().sp_interval
    );
    let t0 = Instant::now();
    let handle = driver.add_client(client, link).expect("shard is alive");
    let done = driver.wait_complete(Duration::from_secs(120));
    // Completion is an event drained from the driver, not a callback, and it
    // carries the finished session (its link was closed on the shard).
    let client = driver
        .poll_events()
        .into_iter()
        .find_map(|event| match event {
            DriverEvent::Completed { handle: h, session } if h == handle => Some(session),
            _ => None,
        })
        .unwrap_or_else(|| panic!("[{name}] no completion event (done = {done})"));
    let stats = client.stats();
    assert_eq!(client.file().unwrap(), expected, "[{name}] corrupt file");
    println!(
        "[{name}] complete in {:.2?}: level {}, {} received / {} distinct (eta {:.3}, eta_d {:.3})",
        t0.elapsed(),
        client.subscription_level().unwrap(),
        stats.received(),
        stats.distinct(),
        stats.reception_efficiency(),
        stats.distinctness_efficiency()
    );
    // The carousel's structural cost: once loss or a late join forces the
    // receiver across multiple cycles, repeats accumulate and eta_d decays
    // toward the sampling-with-replacement floor of 1 - 1/e ≈ 0.64.  A
    // rateless session (`SessionConfig::rateless`) never repeats a seed, so
    // its eta_d is exactly 1.0 — see examples/rateless_fountain.rs.
    if stats.distinctness_efficiency() < 1.0 {
        println!(
            "[{name}] duplicates cost eta_d {:.3} (carousel floor ≈ 0.64; rateless mode holds 1.0)",
            stats.distinctness_efficiency()
        );
    }
}

fn main() {
    let addressing = choose_addressing();
    let file = patterned_file(80_000);

    let mut server = FountainServer::new();
    let id = server
        .add_session(
            &file,
            SessionConfig {
                layers: 6,
                code_seed: 1998,
                sp_interval: 2,
                burst_rounds: 1,
                ..SessionConfig::default()
            },
        )
        .expect("layered session encodes");
    let info = server.session(id).unwrap().control_info().clone();
    println!(
        "server: 1 layered session, groups 0..6, bandwidths 1,1,2,4,8,16 (SP/burst congestion control)"
    );

    // One shard owns the carousel and, in turn, each receiver — the server
    // keeps transmitting between receivers, as a real carousel does.
    let mut driver = DriverConfig::new()
        .shards(1)
        .pacing(Pacing::new(Duration::from_millis(1), 64))
        .build::<Link>();
    driver
        .add_fountain_server(
            server,
            link(addressing, HostileChannelBuilder::new(0)),
            None,
        )
        .expect("register server slot");

    let wideband = link(addressing, HostileChannelBuilder::new(1));
    run_receiver(&mut driver, "wideband", wideband, info.clone(), &file);
    // The congested path loses a quarter of its datagrams, independently.
    let congested = HostileChannelBuilder::new(4).stage(Box::new(BernoulliLoss::new(0.25)));
    run_receiver(
        &mut driver,
        "congested",
        link(addressing, congested),
        info,
        &file,
    );

    let stats = driver
        .shutdown()
        .expect("clean driver shutdown")
        .total_stats();
    println!(
        "both receivers rebuilt the file; neither sent a packet upstream \
         ({} datagrams caroused on one thread)",
        stats.datagrams_sent
    );
}

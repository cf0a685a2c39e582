//! The paper's deployed system over real UDP sockets, behind the sharded
//! [`Driver`] facade: a two-shard driver owns the [`FountainServer`] (two
//! files caroused to disjoint multicast group sets, binary control channel
//! included) *and* both downloading clients — five session state machines
//! spread across two `df-shard-*` worker threads, each running its own
//! readiness-driven event loop that sleeps in `ppoll(2)` on its sockets.
//!
//! Run with: `cargo run --release --example udp_fountain`
//!
//! The clients discover their sessions over the real unicast UDP control
//! channel like any non-Rust client would; because the workers pace
//! themselves (paced mode), the server answers control traffic continuously
//! on its own shard — the deployment shape of Section 7.1, a stateless
//! server feeding arbitrarily many heterogeneous receivers, its I/O
//! multiplexed by readiness rather than by thread-per-receiver.  Downloads
//! finish as [`DriverEvent::Completed`] values drained from the driver's
//! event channel, each carrying the finished [`ClientSession`] for
//! byte-for-byte verification.
//!
//! Addressing: real IPv4 multicast (`239.255.71.90`, ports 47001+) when the
//! host's network namespace can loop multicast back, otherwise loopback
//! unicast on the same ports.  Either way the sockets, datagrams and
//! sessions are identical — only the group→address mapping changes.

use digital_fountain::proto::{
    ClientSession, ControlRequest, ControlResponse, DriverConfig, DriverEvent, GroupAddressing,
    Pacing, SessionConfig, Transport, UdpMulticastTransport,
};
use std::net::{Ipv4Addr, UdpSocket};
use std::time::{Duration, Instant};

const MCAST_ADDR: Ipv4Addr = Ipv4Addr::new(239, 255, 71, 90);
const DATA_PORT: u16 = 47001;
const CONTROL_PORT: u16 = 47000;
/// A probe-only group well above the sessions' group ranges.
const PROBE_GROUP: u32 = 900;

/// Decide **once** whether this host can loop multicast back to itself; fall
/// back to loopback unicast if not, so the example runs anywhere.  The chosen
/// addressing is shared by the server and every client — mixing modes would
/// just be a partitioned network.
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

fn patterned_file(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + salt) % 251) as u8).collect()
}

/// Fetch one session's parameters over the wire-level control channel.  The
/// server's shard paces itself on its own thread, so discovery is plain
/// request/retry — no loop pumping, exactly what a non-Rust client would do.
fn discover(session_id: u32) -> digital_fountain::proto::ControlInfo {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind control client");
    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("control timeout");
    let mut buf = [0u8; 2048];
    for _ in 0..100 {
        socket
            .send_to(
                &ControlRequest::Describe { session_id }.to_bytes(),
                (Ipv4Addr::LOCALHOST, CONTROL_PORT),
            )
            .expect("send control request");
        if let Ok((len, _)) = socket.recv_from(&mut buf) {
            if let Some(ControlResponse::Session { info }) =
                ControlResponse::from_bytes(&buf[..len])
            {
                return info;
            }
        }
    }
    panic!("control channel never answered for session {session_id}");
}

fn main() {
    // Two "software releases" of different sizes and profiles.
    let file_a = patterned_file(400_000, 1);
    let file_b = patterned_file(150_000, 2);

    let mut server = digital_fountain::proto::FountainServer::new();
    let id_a = server
        .add_session(
            &file_a,
            SessionConfig {
                layers: 4,
                code_seed: 42,
                ..SessionConfig::default()
            },
        )
        .expect("session A encodes");
    let id_b = server
        .add_session(
            &file_b,
            SessionConfig {
                layers: 2,
                code_seed: 43,
                profile: digital_fountain::core::TORNADO_B,
                ..SessionConfig::default()
            },
        )
        .expect("session B encodes");
    println!(
        "server: {} sessions, groups 0..{}",
        server.sessions().len(),
        server
            .sessions()
            .iter()
            .map(|s| s.control_info().base_group + s.control_info().layers as u32)
            .max()
            .unwrap()
    );

    let addressing = choose_addressing();
    let control = UdpSocket::bind((Ipv4Addr::LOCALHOST, CONTROL_PORT)).expect("bind control port");

    // The whole deployment behind one facade: two paced worker shards, the
    // server slot placed where load is lowest, clients likewise — the same
    // five state machines as ever, now spread across cores.
    let mut driver = DriverConfig::new()
        .shards(2)
        .pacing(Pacing::new(Duration::from_millis(1), 64))
        .build::<UdpMulticastTransport>();
    let server_handle = driver
        .add_fountain_server(
            server,
            UdpMulticastTransport::new(addressing).expect("server transport"),
            Some(control),
        )
        .expect("register server slot");
    println!("server slot on shard {}", server_handle.shard());

    let t0 = Instant::now();
    let mut expected = Vec::new();
    for (name, id, file) in [("client-A", id_a, &file_a), ("client-B", id_b, &file_b)] {
        let info = discover(id);
        println!(
            "{name}: session {id}: {} bytes, k = {}, {} layer(s) on groups {:?}",
            info.file_len,
            info.k,
            info.layers,
            info.groups().collect::<Vec<_>>()
        );
        let client = ClientSession::new(info).expect("valid control info");
        let transport = UdpMulticastTransport::new(addressing).expect("client transport");
        let handle = driver
            .add_client(client, transport)
            .expect("register client");
        println!("{name}: shard {}", handle.shard());
        expected.push((name, handle, file));
    }

    let all_done = driver.wait_complete(Duration::from_secs(120));
    assert!(all_done, "downloads timed out");

    let report = driver.shutdown().expect("clean driver shutdown");
    for event in &report.events {
        if let DriverEvent::Completed { handle, session } = event {
            let stats = session.stats();
            let (name, _, file) = expected
                .iter()
                .find(|(_, h, _)| h == handle)
                .expect("completion for a registered client");
            assert_eq!(session.file().unwrap(), &file[..], "{name}: corrupt file");
            println!(
                "{name}: done in {:.2?} — {} packets received, {} distinct, \
                 efficiency η = {:.3} (η_c {:.3} · η_d {:.3})",
                t0.elapsed(),
                stats.received(),
                stats.distinct(),
                stats.reception_efficiency(),
                stats.coding_efficiency(),
                stats.distinctness_efficiency(),
            );
        }
    }
    let totals = report.total_stats();
    println!(
        "both downloads verified byte-for-byte across {} shards \
         ({} datagrams sent, {} received, {} control answered)",
        report.shard_stats.len(),
        totals.datagrams_sent,
        totals.datagrams_received,
        totals.control_answered
    );
}

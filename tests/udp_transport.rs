//! Real-socket integration tests: the *same* `ServerSession`/`ClientSession`
//! code paths the `SimMulticast` tests use, driven over `std::net::UdpSocket`
//! loopback — no simulation-only branches anywhere.  The server runs in a
//! background thread (the I/O driver the sans-I/O design asks for); the
//! client pumps its transport on the test thread.

use digital_fountain::proto::{
    ClientSession, ControlRequest, ControlResponse, Driver, DriverConfig, DriverEvent,
    FountainServer, Pacing, ServerSession, SessionConfig, SessionHandle, Transport,
    UdpMulticastTransport,
};
use std::net::{Ipv4Addr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn patterned_file(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + salt) % 251) as u8).collect()
}

/// Drive `client` over `transport` until completion or `deadline`, passing
/// every received datagram through `filter` first (identity for lossless
/// runs, a deterministic dropper for the artificial-loss run).
///
/// The receive loop blocks in `recv_timeout` (kernel `poll(2)`, no
/// spin-and-sleep): if the sender dies mid-download the loop still wakes up
/// every interval, reaches the deadline check, and fails loudly instead of
/// hanging CI.
fn download(
    client: &mut ClientSession,
    transport: &mut UdpMulticastTransport,
    deadline: Duration,
    mut filter: impl FnMut(&[u8]) -> bool,
) {
    let t0 = Instant::now();
    while !client.is_complete() {
        assert!(
            t0.elapsed() < deadline,
            "download did not complete within {deadline:?}: {:?}",
            client.stats()
        );
        if let Some((_group, datagram)) = transport.recv_timeout(Duration::from_millis(100)) {
            if filter(&datagram) {
                client.handle_datagram(datagram);
            }
        }
    }
}

/// Background server driver: answer control requests and pump the carousel
/// until `stop` is raised.
fn serve(
    mut server: FountainServer,
    control: UdpSocket,
    mut transport: UdpMulticastTransport,
    stop: Arc<AtomicBool>,
) {
    control
        .set_nonblocking(true)
        .expect("nonblocking control socket");
    let mut buf = [0u8; 2048];
    let mut burst = 0u32;
    // ordering: Relaxed — the flag is a plain shutdown signal; thread::join
    // below is the synchronization point, no data rides on this load.
    while !stop.load(Ordering::Relaxed) {
        while let Ok((len, from)) = control.recv_from(&mut buf) {
            let reply = server.handle_control_datagram(&buf[..len]);
            let _ = control.send_to(&reply, from);
        }
        if let Some((group, datagram)) = server.poll_transmit() {
            transport.send(group, datagram);
        }
        burst += 1;
        if burst.is_multiple_of(64) {
            // Pace the carousel so the loopback receiver is not hosed by
            // kernel-buffer overruns (which would be mere loss, but slow the
            // test down).
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// Fetch a session's ControlInfo over the real UDP control channel.
fn describe_over_udp(control_addr: (Ipv4Addr, u16), session_id: u32) -> ClientSession {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind control client");
    socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut buf = [0u8; 2048];
    // The control channel is UDP: retry the request a few times like a real
    // client would.
    for _ in 0..20 {
        socket
            .send_to(
                &ControlRequest::Describe { session_id }.to_bytes(),
                control_addr,
            )
            .expect("send control request");
        if let Ok((len, _)) = socket.recv_from(&mut buf) {
            match ControlResponse::from_bytes(&buf[..len]) {
                Some(ControlResponse::Session { info }) => {
                    return ClientSession::new(info).expect("valid control info")
                }
                other => panic!("unexpected control response {other:?}"),
            }
        }
    }
    panic!("control channel never answered");
}

#[test]
fn udp_loopback_lossless_download_via_control_channel() {
    let control_port = 48109;
    let data_port = 48110;
    let file = patterned_file(80_000, 1);

    let mut server = FountainServer::new();
    let id = server
        .add_session(
            &file,
            SessionConfig {
                layers: 2,
                code_seed: 77,
                ..SessionConfig::default()
            },
        )
        .unwrap();
    let control = UdpSocket::bind((Ipv4Addr::LOCALHOST, control_port)).expect("bind control");
    let server_transport = UdpMulticastTransport::loopback(data_port).unwrap();

    let mut client_transport = UdpMulticastTransport::loopback(data_port).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = stop.clone();
        std::thread::spawn(move || serve(server, control, server_transport, stop))
    };
    // A fountain client can join the carousel at any time: fetch the session
    // parameters over the real UDP control channel, then subscribe.
    let mut client = describe_over_udp((Ipv4Addr::LOCALHOST, control_port), id);
    for group in client.groups().collect::<Vec<_>>() {
        client_transport.join(group).unwrap();
    }

    download(
        &mut client,
        &mut client_transport,
        Duration::from_secs(60),
        |_| true,
    );
    // ordering: Relaxed — shutdown signal only; the join right below is the
    // synchronization point.
    stop.store(true, Ordering::Relaxed);
    server_thread.join().unwrap();

    assert_eq!(client.file().unwrap(), &file[..]);
    assert_eq!(client.stats().rejected(), 0);
}

#[test]
fn udp_loopback_download_survives_artificially_dropped_datagrams() {
    let data_port = 48210;
    let file = patterned_file(60_000, 2);

    let mut session = ServerSession::new(
        &file,
        SessionConfig {
            layers: 1,
            code_seed: 5,
            ..SessionConfig::default()
        },
    )
    .unwrap();
    let control_info = session.control_info().clone();
    let mut server_transport = UdpMulticastTransport::loopback(data_port).unwrap();

    let mut client = ClientSession::new(control_info).unwrap();
    let mut client_transport = UdpMulticastTransport::loopback(data_port).unwrap();
    for group in client.groups().collect::<Vec<_>>() {
        client_transport.join(group).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut sent = 0u32;
            // ordering: Relaxed — shutdown signal only, synchronized by join.
            while !stop.load(Ordering::Relaxed) {
                session.send_round(&mut server_transport);
                sent += 1;
                // A round is a buffer-sized burst; give the receiver air.
                std::thread::sleep(Duration::from_millis(if sent < 4 { 1 } else { 5 }));
            }
        })
    };

    // Drop every third datagram *after* the socket delivered it: on top of
    // whatever genuine kernel-buffer loss occurs, the client provably
    // tolerates a 33 % loss process on a real socket path.
    let mut counter = 0u64;
    download(
        &mut client,
        &mut client_transport,
        Duration::from_secs(60),
        move |_| {
            counter += 1;
            !counter.is_multiple_of(3)
        },
    );
    // ordering: Relaxed — shutdown signal only; the join right below is the
    // synchronization point.
    stop.store(true, Ordering::Relaxed);
    server_thread.join().unwrap();

    assert_eq!(client.file().unwrap(), &file[..]);
    // The artificial dropper alone guarantees duplicates and a reception
    // efficiency visibly below 1.
    let stats = client.stats();
    assert!(stats.received() >= stats.k());
    assert!(stats.reception_efficiency() <= 1.0);
}

#[test]
fn udp_loopback_layered_download_with_receiver_driven_joins() {
    // The layered congestion-control mode over real sockets: the client
    // starts subscribed to the base layer only (one bound UDP port), climbs
    // by joining further group ports as its session emits Join intents at
    // clean sync points, and completes the download — the same
    // ClientSession code path the SimMulticast layered tests drive.
    let control_port = 48409;
    let data_port = 48410;
    let file = patterned_file(60_000, 4);

    let mut server = FountainServer::new();
    let id = server
        .add_session(
            &file,
            SessionConfig {
                layers: 6,
                code_seed: 31,
                sp_interval: 2,
                burst_rounds: 1,
                ..SessionConfig::default()
            },
        )
        .unwrap();
    let control = UdpSocket::bind((Ipv4Addr::LOCALHOST, control_port)).expect("bind control");
    let server_transport = UdpMulticastTransport::loopback(data_port).unwrap();
    let mut client_transport = UdpMulticastTransport::loopback(data_port).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = stop.clone();
        std::thread::spawn(move || serve(server, control, server_transport, stop))
    };

    // The cadence arrives over the real control channel, like everything
    // else the client knows about the session.
    let mut client = describe_over_udp((Ipv4Addr::LOCALHOST, control_port), id);
    assert!(client.is_layered());
    assert_eq!(client.control_info().sp_interval, 2);
    let initial = client.subscribed_groups();
    assert_eq!(
        initial.len(),
        1,
        "a layered receiver starts at the base layer"
    );
    for group in initial {
        client_transport.join(group).unwrap();
    }

    let t0 = Instant::now();
    let mut joins = 0usize;
    let mut leaves = 0usize;
    while !client.is_complete() {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "layered download did not complete: {:?} (level {:?}, {joins} joins, {leaves} leaves)",
            client.stats(),
            client.subscription_level(),
        );
        if let Some((_group, datagram)) = client_transport.recv_timeout(Duration::from_millis(100))
        {
            match client.handle_datagram(datagram) {
                digital_fountain::proto::ClientEvent::Join { group } => {
                    client_transport.join(group).unwrap();
                    joins += 1;
                }
                digital_fountain::proto::ClientEvent::Leave { group } => {
                    client_transport.leave(group);
                    leaves += 1;
                }
                _ => {}
            }
        }
    }
    // ordering: Relaxed — shutdown signal only; the join right below is the
    // synchronization point.
    stop.store(true, Ordering::Relaxed);
    server_thread.join().unwrap();

    assert_eq!(client.file().unwrap(), &file[..]);
    assert!(
        joins >= 1,
        "an unthrottled loopback receiver must climb at least one layer"
    );
    // The driver's membership always mirrors the session's subscription.
    let mut expected = client.subscribed_groups();
    let mut joined = client_transport.joined_groups();
    expected.sort_unstable();
    joined.sort_unstable();
    assert_eq!(joined, expected);
}

#[test]
fn recv_timeout_expires_when_the_sender_dies() {
    // The CI-hang bugfix in miniature: a receiver whose sender is gone gets
    // control back after the timeout instead of blocking (or spinning)
    // forever, so test deadlines are always reached.
    let mut rx = UdpMulticastTransport::loopback(48650).unwrap();
    rx.join(0).unwrap();
    let t0 = Instant::now();
    assert_eq!(rx.recv_timeout(Duration::from_millis(80)), None);
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(70),
        "returned early: {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "timeout did not bound the wait: {waited:?}"
    );
    // A transport with nothing joined also times out rather than hanging.
    let mut empty = UdpMulticastTransport::loopback(48655).unwrap();
    assert_eq!(empty.recv_timeout(Duration::from_millis(20)), None);
}

/// The driver at real-socket scale: one paced [`Driver`] of `shards` shards
/// owns a [`FountainServer`] carouselling `clients` files (one session and
/// one multicast group each) AND the `clients` receivers downloading them,
/// each on its own UDP loopback transport.  The shards pace themselves on
/// their own threads while the test thread only waits; every download must
/// then verify byte-for-byte out of the shutdown report, exactly once.
fn loopback_fleet_downloads_and_verifies(shards: usize, clients: usize, first_port: u16) {
    let files: Vec<Vec<u8>> = (0..clients).map(|i| patterned_file(20_000, i)).collect();

    type Fleet = (Driver<UdpMulticastTransport>, Vec<SessionHandle>);
    let try_setup = |data_port: u16| -> std::io::Result<Fleet> {
        let mut server = FountainServer::new();
        let mut infos = Vec::new();
        for (i, file) in files.iter().enumerate() {
            let config = SessionConfig {
                code_seed: 100 + i as u64,
                ..SessionConfig::default()
            };
            let id = server.add_session(file, config).unwrap();
            infos.push(server.session(id).unwrap().control_info().clone());
        }
        let mut driver = DriverConfig::new()
            .shards(shards)
            // Two datagrams per client per millisecond: well inside
            // loopback socket buffers.
            .pacing(Pacing::new(Duration::from_millis(1), 2 * clients))
            .build::<UdpMulticastTransport>();
        driver.add_fountain_server(server, UdpMulticastTransport::loopback(data_port)?, None)?;
        let mut handles = Vec::new();
        for info in infos {
            let client = ClientSession::new(info).unwrap();
            let mut transport = UdpMulticastTransport::loopback(data_port)?;
            // Bind the receive sockets here, where a taken port can still
            // move the whole fleet; the shard's own join is then a no-op.
            for group in client.subscribed_groups() {
                transport.join(group)?;
            }
            handles.push(driver.add_client(client, transport)?);
        }
        Ok((driver, handles))
    };

    // The consecutive data ports sit inside the kernel's ephemeral range, so
    // an unrelated socket (another test's sender, another process) can
    // legitimately hold one of them; move to a fresh range instead of
    // flaking.
    let mut attempt = 0u16;
    let (mut driver, handles) = loop {
        match try_setup(first_port + attempt * 200) {
            Ok(setup) => break setup,
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && attempt < 4 => attempt += 1,
            Err(e) => panic!("could not stage the loopback fleet: {e}"),
        }
    };
    // Least-loaded placement must actually have spread the registrations.
    assert!(
        driver.shard_counts().iter().all(|&c| c > 0),
        "placement left a shard empty: {:?}",
        driver.shard_counts()
    );

    let all_done = driver.wait_complete(Duration::from_secs(60));
    let done = driver.completed_clients();
    let report = driver.shutdown().unwrap();
    assert!(
        all_done,
        "only {done}/{clients} clients completed: {:?}",
        report.total_stats()
    );
    // Completions are drained events, not callbacks: every client handle
    // must surface exactly one Completed carrying its session.
    let mut completed = Vec::new();
    for event in &report.events {
        if let DriverEvent::Completed { handle, session } = event {
            let i = handles
                .iter()
                .position(|h| h == handle)
                .expect("completion for a registered handle");
            assert_eq!(
                session.file().unwrap(),
                &files[i][..],
                "client {i} reconstructed the wrong bytes"
            );
            completed.push(*handle);
        }
    }
    completed.sort_unstable();
    let mut expected = handles;
    expected.sort_unstable();
    assert_eq!(completed, expected);
}

#[test]
fn event_loop_drives_64_concurrent_real_socket_clients_on_one_thread() {
    // 65 session state machines and 64 receive sockets in one poller set,
    // all on the one shard thread.
    loopback_fleet_downloads_and_verifies(1, 64, 48700);
}

#[test]
fn sharded_driver_downloads_over_real_sockets_on_two_shards() {
    loopback_fleet_downloads_and_verifies(2, 8, 49500);
}

#[test]
fn udp_loopback_and_sim_emit_identical_datagrams() {
    // The real-socket proof in miniature: the datagrams a ServerSession emits
    // are byte-identical whether the driver hands them to SimMulticast or to
    // a UDP socket, because the session never knows which it is.
    use digital_fountain::proto::SimMulticast;

    let file = patterned_file(20_000, 3);
    let mut over_sim = ServerSession::with_defaults(&file, 2, 9).unwrap();
    let mut over_udp = ServerSession::with_defaults(&file, 2, 9).unwrap();

    let net = SimMulticast::new(0);
    let mut sim_tx = net.endpoint(0.0);
    let mut sim_rx = net.endpoint(0.0);
    sim_rx.join(0).unwrap();
    sim_rx.join(1).unwrap();
    over_sim.send_round(&mut sim_tx);
    let mut from_sim = Vec::new();
    while let Some((g, d)) = sim_rx.recv() {
        from_sim.push((g, d.to_vec()));
    }

    let base_port = 48310;
    let mut udp_rx = UdpMulticastTransport::loopback(base_port).unwrap();
    udp_rx.join(0).unwrap();
    udp_rx.join(1).unwrap();
    let mut udp_tx = UdpMulticastTransport::loopback(base_port).unwrap();
    over_udp.send_round(&mut udp_tx);
    let mut from_udp = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while from_udp.len() < from_sim.len() && Instant::now() < deadline {
        if let Some((g, d)) = udp_rx.recv_timeout(Duration::from_millis(100)) {
            from_udp.push((g, d.to_vec()));
        }
    }
    // Global interleaving across groups is a transport property (the UDP
    // receiver round-robins its group sockets), so compare the transcripts
    // as multisets.  UDP loopback may also genuinely drop under burst; what
    // must hold is that everything received is exactly what the session
    // emitted, byte for byte.
    from_sim.sort();
    from_udp.sort();
    if from_udp.len() == from_sim.len() {
        assert_eq!(from_udp, from_sim);
    } else {
        let mut sim_iter = from_sim.iter().peekable();
        for got in &from_udp {
            while sim_iter.peek().is_some_and(|s| *s < got) {
                sim_iter.next();
            }
            assert_eq!(
                sim_iter.next(),
                Some(got),
                "UDP datagram not in the sim transcript"
            );
        }
    }
}

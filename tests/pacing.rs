//! A paced shard keeps a sub-millisecond pacing interval while it waits on a
//! socket.
//!
//! A server slot that answers a control socket puts that socket's fd in the
//! shard's poller, so the shard sleeps between ticks in the poller's wait.
//! If that wait cannot be shorter than a millisecond, every interval below
//! one stretches to about a millisecond and the shard silently sends at a
//! fraction of its configured rate.

use digital_fountain::proto::{
    DriverConfig, FountainServer, Pacing, SessionConfig, SimEndpoint, SimMulticast,
};
use std::net::{Ipv4Addr, UdpSocket};
use std::time::{Duration, Instant};

#[test]
fn a_paced_shard_with_a_registered_fd_keeps_a_200_us_interval() {
    let interval = Duration::from_micros(200);
    let file: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let mut server = FountainServer::new();
    server.add_session(&file, SessionConfig::default()).unwrap();
    let control = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let net = SimMulticast::new(1);

    let mut driver = DriverConfig::new()
        .pacing(Pacing::new(interval, 1))
        .build::<SimEndpoint>();
    let t0 = Instant::now();
    driver
        .add_fountain_server(server, net.endpoint(0.0), Some(control))
        .unwrap();
    std::thread::sleep(Duration::from_millis(500));
    let stats = driver.shutdown().unwrap().total_stats();
    let elapsed = t0.elapsed();

    // Every tick the shard could have run while it was alive.
    let configured = (elapsed.as_nanos() / interval.as_nanos()) as u64;
    assert!(
        stats.ticks * 4 >= configured * 3,
        "{} of {configured} configured ticks in {elapsed:?} ({} dropped)",
        stats.ticks,
        stats.ticks_dropped
    );
    assert!(
        stats.ticks + stats.ticks_dropped <= configured + 1,
        "{} ticks and {} dropped, but only {configured} were due",
        stats.ticks,
        stats.ticks_dropped
    );
    assert_eq!(net.sent(), stats.datagrams_sent);
    assert_eq!(stats.datagrams_sent, stats.ticks, "one datagram a tick");
}

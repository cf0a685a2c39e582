//! The paper's *vision* — a true digital fountain — end to end: a server
//! streaming fresh LT / Raptor symbols forever (no carousel, no fixed `n`),
//! the unchanged 12-byte header's `packet_index:serial` words carrying each
//! symbol's 64-bit seed, and receivers for whom **every** datagram is news
//! no matter how late they tune in or how much loss they sit behind.
//!
//! Run with: `cargo run --release --example rateless_fountain`
//!
//! The demo downloads the same file three ways over a lossy in-memory
//! multicast channel ([`SimMulticast`], deterministic, runs anywhere):
//!
//! 1. a **carousel** client joining late — it pays duplicates, and its
//!    distinctness efficiency `η_d = distinct/received` decays toward the
//!    sampling-with-replacement floor of `1 − 1/e ≈ 0.64`;
//! 2. an **LT fountain** client joining just as late — `η_d = 1.0` exactly;
//! 3. a **Raptor fountain** client — still `η_d = 1.0`; both fountains
//!    decode by inactivation, so either needs barely more than `k` symbols,
//!    and Raptor's XOR precode buys a constant encoding cost per symbol.

use digital_fountain::proto::{
    ClientEvent, ClientSession, RatelessMode, ServerSession, SessionConfig, SimMulticast, Transport,
};

fn patterned_file(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 7) % 251) as u8).collect()
}

/// Stream one session to completion: the server transmits `skip_rounds`
/// rounds into the void before the receiver tunes in (a late join), then
/// rounds are pumped through a `loss`-lossy endpoint until the file decodes.
fn download(
    label: &str,
    file: &[u8],
    rateless: RatelessMode,
    skip_rounds: usize,
    loss: f64,
) -> Vec<u8> {
    let mut server = ServerSession::new(
        file,
        SessionConfig {
            rateless,
            code_seed: 1998,
            ..SessionConfig::default()
        },
    )
    .expect("session encodes");
    let info = server.control_info().clone();
    println!(
        "[{label}] k = {} source packets, control advertises n = {} ({:?})",
        info.k, info.n, rateless
    );

    let net = SimMulticast::new(42 ^ rateless.to_wire() as u64);
    let mut tx = net.endpoint(0.0);
    // The stream starts without us — a carousel has already cycled, a
    // fountain has already poured; the difference is what that costs below.
    for _ in 0..skip_rounds {
        server.send_round(&mut tx);
    }
    let mut rx = net.endpoint(loss);
    let mut client = ClientSession::new(info).expect("honest control info");
    for group in client.groups() {
        rx.join(group).expect("sim join");
    }
    let mut rounds = 0;
    'stream: while !client.is_complete() {
        server.send_round(&mut tx);
        rounds += 1;
        assert!(rounds < 2_000, "[{label}] download stalled");
        // A rateless stream never reports `ClientEvent::Duplicate`; the
        // carousel reports plenty once the receiver crosses a cycle.
        while let Some((_group, dgram)) = rx.recv() {
            if client.handle_datagram(dgram) == ClientEvent::Complete {
                break 'stream;
            }
        }
    }
    let stats = client.stats();
    println!(
        "[{label}] complete after {rounds} rounds: {} received / {} distinct, \
         overhead {:.3} x k, eta_d = {:.3}",
        stats.received(),
        stats.distinct(),
        1.0 + stats.reception_overhead(),
        stats.distinctness_efficiency()
    );
    client.file().expect("complete").to_vec()
}

fn main() {
    let file = patterned_file(50_000);
    // 98 % loss drags the carousel receiver across many cycles; the
    // fountains shrug — every surviving symbol is fresh either way.
    let (skip, loss) = (3, 0.98);
    println!(
        "downloading {} bytes three ways (join {skip} rounds late, {:.0} % loss):\n",
        file.len(),
        loss * 100.0
    );
    let carousel = download("carousel", &file, RatelessMode::Off, skip, loss);
    println!("           ^ duplicates: eta_d sinks toward the 1 - 1/e ~ 0.64 floor\n");
    let lt = download("lt      ", &file, RatelessMode::Lt, skip, loss);
    let raptor = download("raptor  ", &file, RatelessMode::Raptor, skip, loss);
    println!("           ^ seed-carrying serials: every datagram distinct, eta_d = 1.0 exactly\n");
    assert_eq!(carousel, file);
    assert_eq!(lt, file);
    assert_eq!(raptor, file);
    println!("all three downloads reconstructed the file byte-for-byte");
}

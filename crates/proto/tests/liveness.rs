//! Liveness of the receive paths: a receiver that keeps listening finishes,
//! whatever the channel loses.
//!
//! Every carousel download here must complete within three carousel cycles
//! of its join (a cycle is the `n` datagrams that carry each encoding packet
//! once), with the right bytes and without the session refusing a single
//! packet.  The seeded sweep crosses one- and four-group carousels, `k` = 64
//! (a pure MDS block) and 512 (a five-level cascade), Bernoulli loss from
//! 2 % to 50 %, Gilbert–Elliott bursts, and joins at the start of a cycle or
//! anywhere inside one.
//!
//! Every rateless download must complete from at most `2.5 k` *received*
//! symbols — a fountain has no cycle, and what the channel loses only
//! stretches the wait — again with the right bytes and nothing refused:
//! LT and Raptor, `k` = 64 and 512, no loss to 50 %, the same bursts, joined
//! at the first symbol or anywhere in the first `k`.  The bound is the
//! code's, not the decoder's: the decoder completes on the very symbol that
//! makes the system full rank (`df-core`'s `rateless_oracle.rs`), and a few
//! dozen sparse random equations are rank-deficient often enough to show in
//! 10⁵ downloads.  Measured over the full sweep, 25 000 downloads a cell,
//! mean / 99.9th percentile / worst `received / k`: LT 1.072 / 1.69 / 2.14
//! and Raptor 1.049 / 1.50 / 1.98 at `k` = 64; LT 1.014 / 1.33 / 1.54 (a
//! source packet no equation covers yet) and Raptor 1.010 / 1.05 / 1.25 at
//! `k` = 512.

use bytes::Bytes;
use df_proto::{
    ClientEvent, ClientSession, ControlInfo, RatelessMode, ServerSession, SessionConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const PACKET_SIZE: usize = 16;
const CYCLES: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Loss {
    Bernoulli(f64),
    /// Two-state Gilbert–Elliott chain that loses everything in its bad
    /// state: bursts of `1 / to_good` datagrams, `to_bad / (to_bad + to_good)`
    /// of the stream.  The two used here are 5-datagram bursts over 9 % of
    /// the stream and 10-datagram bursts over 20 %; outages a third of a
    /// `k` = 64 cycle long can deliver fewer than `k` packets in three cycles,
    /// which is the channel starving the receiver, not the receiver stalling.
    Bursts {
        to_bad: f64,
        to_good: f64,
    },
}

impl Loss {
    /// Whether the next datagram is lost; `bad` is the burst chain's state.
    fn drops(self, rng: &mut ChaCha8Rng, bad: &mut bool) -> bool {
        match self {
            Loss::Bernoulli(p) => rng.gen_bool(p),
            Loss::Bursts { to_bad, to_good } => {
                *bad = rng.gen_bool(if *bad { 1.0 - to_good } else { to_bad });
                *bad
            }
        }
    }
}

const BURSTS: [Loss; 2] = [
    Loss::Bursts {
        to_bad: 0.02,
        to_good: 0.2,
    },
    Loss::Bursts {
        to_bad: 0.025,
        to_good: 0.1,
    },
];

const LOSSES: [Loss; 6] = [
    Loss::Bernoulli(0.02),
    Loss::Bernoulli(0.10),
    Loss::Bernoulli(0.20),
    Loss::Bernoulli(0.50),
    BURSTS[0],
    BURSTS[1],
];

const RATELESS_LOSSES: [Loss; 6] = [
    Loss::Bernoulli(0.0),
    Loss::Bernoulli(0.10),
    Loss::Bernoulli(0.30),
    Loss::Bernoulli(0.50),
    BURSTS[0],
    BURSTS[1],
];

/// The file of a `k`-packet session: three bytes short of `k` packets, so
/// the last one is padded.
fn file_of(k: usize, code_seed: u64) -> Vec<u8> {
    (0..k * PACKET_SIZE - 3)
        .map(|i| (i as u64 * 131 + code_seed) as u8)
        .collect()
}

/// One carousel and enough of its emission to serve any join: `CYCLES + 1`
/// cycles, so that a receiver joining anywhere in the first still has
/// `CYCLES` ahead of it.
struct Carousel {
    file: Vec<u8>,
    control: ControlInfo,
    emitted: Vec<Bytes>,
}

impl Carousel {
    fn new(k: usize, groups: usize, code_seed: u64) -> Self {
        let file = file_of(k, code_seed);
        let config = SessionConfig {
            packet_size: PACKET_SIZE,
            layers: groups,
            code_seed,
            ..SessionConfig::default()
        };
        let mut server = ServerSession::new(&file, config).unwrap();
        let control = server.control_info().clone();
        let mut emitted = Vec::with_capacity((CYCLES + 1) * control.n);
        while emitted.len() < (CYCLES + 1) * control.n {
            match server.poll_transmit() {
                Some((_group, datagram)) => emitted.push(datagram),
                None => server.advance_round(),
            }
        }
        Carousel {
            file,
            control,
            emitted,
        }
    }

    /// One receiver, subscribed to every group from datagram `join` on;
    /// returns the distinct packets it took to complete.
    fn download(&self, join: usize, loss: Loss, seed: u64) -> Result<usize, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut client = ClientSession::new(self.control.clone()).unwrap();
        let mut bad = false;
        let window = &self.emitted[join..join + CYCLES * self.control.n];
        for datagram in window {
            if loss.drops(&mut rng, &mut bad) {
                continue;
            }
            if let Some(outcome) = feed(&mut client, datagram, &self.file) {
                return outcome.map(|()| client.stats().distinct());
            }
        }
        Err(format!(
            "incomplete after {CYCLES} cycles: {}",
            progress(&client)
        ))
    }
}

/// Hand `client` one datagram that survived the channel: `Some` once the
/// download is over, well (the right bytes, nothing refused) or badly.
fn feed(client: &mut ClientSession, datagram: &Bytes, file: &[u8]) -> Option<Result<(), String>> {
    match client.handle_datagram(datagram.clone()) {
        ClientEvent::Complete if client.file() != Some(file) => Some(Err("wrong bytes".into())),
        ClientEvent::Complete if client.stats().rejected() != 0 => {
            Some(Err(format!("{} rejected", client.stats().rejected())))
        }
        ClientEvent::Complete => Some(Ok(())),
        ClientEvent::Rejected => Some(Err("a packet was rejected".into())),
        _ => None,
    }
}

fn progress(client: &ClientSession) -> String {
    format!(
        "{} received, {} distinct, {} rejected",
        client.stats().received(),
        client.stats().distinct(),
        client.stats().rejected()
    )
}

/// `downloads` seeded downloads spread evenly over the whole cross product.
fn sweep(downloads: u64) {
    const CODE_SEEDS: u64 = 4;
    let mut carousels = Vec::new();
    for groups in [1, 4] {
        for k in [64, 512] {
            for code_seed in 0..CODE_SEEDS {
                carousels.push((groups, k, Carousel::new(k, groups, code_seed)));
            }
        }
    }
    let mut failures = Vec::new();
    for seed in 0..downloads {
        let (groups, k, carousel) = &carousels[(seed % carousels.len() as u64) as usize];
        let mut pick = ChaCha8Rng::seed_from_u64(!seed);
        let loss = LOSSES[pick.gen_range(0..LOSSES.len())];
        let join = if pick.gen_bool(0.5) {
            pick.gen_range(0..carousel.control.n)
        } else {
            0
        };
        if let Err(why) = carousel.download(join, loss, seed) {
            failures.push(format!(
                "seed {seed}: {groups} group(s), k = {k}, {loss:?}, joined at {join}: {why}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {downloads} downloads failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn lossy_receivers_complete_within_three_cycles() {
    sweep(2_000);
}

#[test]
#[ignore = "10^5 downloads; run in release mode"]
fn lossy_receivers_complete_within_three_cycles_full_sweep() {
    sweep(100_000);
}

/// One rateless stream and enough of it to serve any join behind any of
/// the channels: `9 k` symbols, of which a receiver joining inside the
/// first `k` and losing half still sees `4 k`.
struct Fountain {
    file: Vec<u8>,
    control: ControlInfo,
    emitted: Vec<Bytes>,
}

impl Fountain {
    fn new(mode: RatelessMode, k: usize, code_seed: u64) -> Self {
        let file = file_of(k, code_seed);
        let config = SessionConfig {
            packet_size: PACKET_SIZE,
            rateless: mode,
            code_seed,
            ..SessionConfig::default()
        };
        let mut server = ServerSession::new(&file, config).unwrap();
        let control = server.control_info().clone();
        let mut emitted = Vec::with_capacity(9 * k);
        while emitted.len() < 9 * k {
            match server.poll_transmit() {
                Some((_group, datagram)) => emitted.push(datagram),
                None => server.advance_round(),
            }
        }
        Fountain {
            file,
            control,
            emitted,
        }
    }

    /// One receiver listening from symbol `join` on; returns the symbols it
    /// had received when it completed.
    fn download(&self, join: usize, loss: Loss, seed: u64) -> Result<usize, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut client = ClientSession::new(self.control.clone()).unwrap();
        let mut bad = false;
        for datagram in &self.emitted[join..] {
            if loss.drops(&mut rng, &mut bad) {
                continue;
            }
            if let Some(outcome) = feed(&mut client, datagram, &self.file) {
                return outcome.map(|()| client.stats().received());
            }
            if 2 * client.stats().received() >= 5 * self.control.k {
                break;
            }
        }
        Err(format!("incomplete: {}", progress(&client)))
    }
}

/// `downloads` seeded rateless downloads spread evenly over the cross
/// product.
fn rateless_sweep(downloads: u64) {
    const CODE_SEEDS: u64 = 4;
    let mut fountains = Vec::new();
    for mode in [RatelessMode::Lt, RatelessMode::Raptor] {
        for k in [64, 512] {
            for code_seed in 0..CODE_SEEDS {
                fountains.push((mode, k, Fountain::new(mode, k, code_seed)));
            }
        }
    }
    let mut failures = Vec::new();
    for seed in 0..downloads {
        let (mode, k, fountain) = &fountains[(seed % fountains.len() as u64) as usize];
        let mut pick = ChaCha8Rng::seed_from_u64(!seed);
        let loss = RATELESS_LOSSES[pick.gen_range(0..RATELESS_LOSSES.len())];
        let join = if pick.gen_bool(0.5) {
            pick.gen_range(0..*k)
        } else {
            0
        };
        if let Err(why) = fountain.download(join, loss, seed) {
            failures.push(format!(
                "seed {seed}: {mode:?}, k = {k}, {loss:?}, joined at {join}: {why}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {downloads} rateless downloads failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn lossy_rateless_receivers_complete_within_two_and_a_half_k_symbols() {
    rateless_sweep(2_000);
}

#[test]
#[ignore = "10^5 downloads; run in release mode"]
fn lossy_rateless_receivers_complete_within_two_and_a_half_k_symbols_full_sweep() {
    rateless_sweep(100_000);
}

#[test]
fn a_receiver_that_outlasts_the_old_buffer_cap_completes() {
    // One group emits the encoding front to back, so behind a little loss a
    // receiver is short a few source packets when the checks start and needs
    // ≈ 1.45 k receptions.  A session that refused new packets past
    // `k + k/2 + 64` — the parent of this test did — left these receivers
    // listening to a carousel it would never take another packet from.
    let carousel = Carousel::new(4096, 1, 2);
    let cap = 4096 + 4096 / 2 + 64;
    let mut past_the_cap = 0;
    for seed in 0..24 {
        let loss = Loss::Bernoulli([0.02, 0.05, 0.10][seed as usize % 3]);
        match carousel.download(0, loss, seed) {
            Ok(distinct) => past_the_cap += usize::from(distinct > cap),
            Err(why) => panic!("seed {seed}, {loss:?}: {why}"),
        }
    }
    assert!(
        past_the_cap > 0,
        "premise: some of these downloads need more than {cap} distinct packets"
    );
}

//! Golden digests of the code half of the wire: what a carousel receiver
//! rebuilds for itself instead of reading it off the wire.
//!
//! A receiver learns `(k, profile, code_seed)` and the layer cadence from the
//! control channel and then rebuilds the server's cascade graphs and
//! transmission schedule locally.  Both ends run one binary in every other
//! test, so a reordered RNG draw in `graph.rs`, a changed level size in
//! `cascade.rs`, or a different reverse-binary schedule or serial → round
//! cadence would pass all of them, and still leave two builds unable to
//! decode each other's packets.  `fixtures/wire/code_v1.txt` pins them:
//!
//! * every level graph's check-side edge lists, as one 64-bit FNV-1a digest
//!   per graph, with the level sizes, for Tornado A and B at
//!   `k` ∈ {64, 512, 4096} and two seeds;
//! * the first cycle of the reverse-binary schedule at 1 and 4 layers;
//! * the serials of a 4-layer session's rounds through one sync-point period
//!   with a burst round, and a digest of what each round sends.
//!
//! The fixture is written by the ignored `regenerate_the_fixture`.  Do not
//! run it to make a failure go away: a mismatch means the code changed.  A
//! deliberate change regenerates into a new `code_v<N>.txt` beside this one
//! and points `FIXTURE` at it.

use digital_fountain::core::{Cascade, TornadoProfile, TORNADO_A, TORNADO_B};
use digital_fountain::mcast::TransmissionSchedule;
use digital_fountain::proto::{DataPacket, ServerSession, SessionConfig};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/wire/code_v1.txt");

const PREAMBLE: &str = "\
# Golden digests of what a carousel receiver rebuilds from the control
# channel: the cascade graphs of (k, profile, code_seed), the reverse-binary
# transmission schedule, and the serial -> round cadence of a layered
# session with burst rounds.  tests/code_golden.rs checks this file line for
# line.
#
# Do NOT regenerate this file to make a failure go away.  A mismatch means
# the code changed, and two builds that disagree here cannot decode each
# other's packets.  A deliberate change adds code_v2.txt beside this file;
# this one stays as the record of version 1.
#
# graph <profile> k=<k> seed=<seed> levels=<sizes> n=<n> <per-graph fnv1a, or ->
# schedule layers=<g> n=<n> round=<r> layer=<l> <encoding indices>
# serials layers=<g> sp=<sp> burst=<b> n=<n> round=<r> <first>..<last> <fnv1a>
";

const SEEDS: [u64; 2] = [1, 0x0123_4567_89AB_CDEF];

/// 64-bit FNV-1a over a sequence of words, each as four little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u32::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn join<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn graphs(out: &mut String, profile: TornadoProfile) {
    for k in [64, 512, 4096] {
        for seed in SEEDS {
            let cascade = Cascade::build(k, profile, seed).unwrap();
            // Each check's degree, then its neighbours: the lists are
            // delimited, so moving an edge between checks changes the digest.
            let digests = cascade.graphs().iter().map(|graph| {
                let words = (0..graph.right()).flat_map(|c| {
                    let neighbors = graph.check_neighbors(c);
                    std::iter::once(neighbors.len() as u32).chain(neighbors.iter().copied())
                });
                format!("{:016x}", fnv1a(words))
            });
            let digests = join(digests);
            writeln!(
                out,
                "graph {} k={k} seed={seed} levels={} n={} {}",
                profile.name,
                join(cascade.level_sizes()),
                cascade.n(),
                if digests.is_empty() { "-" } else { &digests }
            )
            .unwrap();
        }
    }
}

fn schedules(out: &mut String) {
    // 37 packets: the last 4-layer block is partial.
    let n = 37;
    for layers in [1, 4] {
        let schedule = TransmissionSchedule::new(layers, n);
        for round in 0..schedule.block_size() {
            for layer in 0..layers {
                writeln!(
                    out,
                    "schedule layers={layers} n={n} round={round} layer={layer} {}",
                    join(schedule.transmission(layer, round))
                )
                .unwrap();
            }
        }
    }
}

fn serials(out: &mut String) {
    let (layers, sp, burst) = (4, 4, 1);
    let file: Vec<u8> = (0..600u32).map(|i| (i * 7 % 256) as u8).collect();
    let mut session = ServerSession::new(
        &file,
        SessionConfig {
            packet_size: 16,
            layers,
            code_seed: 3,
            sp_interval: sp,
            burst_rounds: burst,
            ..SessionConfig::default()
        },
    )
    .unwrap();
    let n = session.control_info().n;
    // Two sync-point periods, each ending in a double-rate burst round.
    for round in 0..2 * sp {
        assert_eq!(session.rounds_sent(), round);
        let mut sent = Vec::new();
        while let Some((group, datagram)) = session.poll_transmit() {
            let header = DataPacket::from_bytes(datagram).unwrap().header;
            assert_eq!(header.group, group);
            sent.push((header.serial, header.group, header.packet_index));
        }
        let words = sent.iter().flat_map(|&(s, g, i)| [s, g, i]);
        writeln!(
            out,
            "serials layers={layers} sp={sp} burst={burst} n={n} round={round} {}..{} {:016x}",
            sent[0].0,
            sent[sent.len() - 1].0,
            fnv1a(words)
        )
        .unwrap();
        session.advance_round();
    }
}

/// The fixture file this build would write.
fn render() -> String {
    let mut out = String::from(PREAMBLE);
    graphs(&mut out, TORNADO_A);
    graphs(&mut out, TORNADO_B);
    schedules(&mut out);
    serials(&mut out);
    out
}

#[test]
fn the_receiver_rebuilds_the_golden_code() {
    let now = render();
    for (line, (pinned, built)) in FIXTURE.lines().zip(now.lines()).enumerate() {
        assert_eq!(
            pinned,
            built,
            "code_v1.txt line {} no longer matches what this build rebuilds",
            line + 1
        );
    }
    assert_eq!(FIXTURE, now, "code_v1.txt differs in length or line ends");
}

/// Writes `fixtures/wire/code_v1.txt` from this build.  Run it once, at the
/// commit that changes the code on purpose (into a new version's file) —
/// never to make a failure go away.
#[test]
#[ignore = "writes tests/fixtures/wire/code_v1.txt"]
fn regenerate_the_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/wire/code_v1.txt"
    );
    std::fs::write(path, render()).unwrap();
}

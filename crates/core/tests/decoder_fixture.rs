//! Equivalence of [`PeelingDecoder`] with the decoder of commit 714f8aa (the
//! eager one: every arriving packet XORed into its checks' accumulators).
//!
//! `fixtures/peeling_parent.txt` was written by `regenerate_the_fixture` at
//! that commit, before `decode.rs` changed.  One row per seeded reception
//! order: the packet that completed the decode, a hash of the recovered
//! source, and the number of row XORs the parent made.  The decoder must
//! complete on the same packet with the same bytes, agree with the
//! index-only `Mark` decoder at every packet on the way, and never XOR more
//! than the parent did — counted by the kernels' work ledger
//! ([`df_gf::ledger`]) around the payload decoder, final-block solve
//! included.

use df_core::{AddOutcome, Mark, TornadoCode, TornadoProfile, TORNADO_A, TORNADO_B};
use df_gf::ledger;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/peeling_parent.txt");

struct Config {
    name: &'static str,
    profile: TornadoProfile,
    k: usize,
    payload_len: usize,
    orders: u64,
}

/// 1 000 orders.  `b-odd` is the case the payload decoder can get wrong and
/// `Mark` cannot: a GF(2^16) final block at an odd packet length, whose check
/// packets are two bytes longer than the level packets.
const CONFIGS: [Config; 4] = [
    Config {
        name: "a-cascade",
        profile: TORNADO_A,
        k: 600,
        payload_len: 16,
        orders: 400,
    },
    Config {
        name: "b-odd",
        profile: TORNADO_B,
        k: 2100,
        payload_len: 7,
        orders: 300,
    },
    Config {
        name: "b-even",
        profile: TORNADO_B,
        k: 2100,
        payload_len: 8,
        orders: 200,
    },
    Config {
        name: "a-mds-only",
        profile: TORNADO_A,
        k: 60,
        payload_len: 12,
        orders: 100,
    },
];

fn build(config: &Config) -> (TornadoCode, Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(config.k as u64);
    let source: Vec<Vec<u8>> = (0..config.k)
        .map(|_| (0..config.payload_len).map(|_| rng.gen()).collect())
        .collect();
    let code = TornadoCode::with_profile(config.k, config.profile, 7).unwrap();
    let encoding = code.encode(&source).unwrap();
    (code, source, encoding)
}

/// The order a receiver sees packets in.  A third are uniform shuffles of the
/// whole encoding (the paper's model); a third are what a one-group carousel
/// delivers, front to back behind 0–30 % loss, cycling; a third are the
/// four-group stride behind 10 % loss.  The last two are where checks become
/// computable before (or without ever) arriving.
fn reception_order(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut sent: Vec<usize> = (0..n).collect();
    let loss = match seed % 3 {
        0 => {
            sent.shuffle(&mut rng);
            return sent;
        }
        1 => [0.0, 0.1, 0.3][(seed / 3 % 3) as usize],
        _ => {
            let quarter = n.div_ceil(4);
            sent = (0..quarter)
                .flat_map(|i| (0..4).map(move |g| g * quarter + i))
                .filter(|&i| i < n)
                .collect();
            0.1
        }
    };
    let mut order = Vec::new();
    for _ in 0..4 {
        order.extend(sent.iter().copied().filter(|_| !rng.gen_bool(loss)));
    }
    order
}

fn fnv1a(packets: &[Vec<u8>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in packets.iter().flatten() {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Decode one order two ways — real payloads and marks — and return
/// `(completing packet count, source hash, row XORs)`.
fn decode(code: &TornadoCode, encoding: &[Vec<u8>], order: &[usize]) -> (usize, u64, u64) {
    let mut payload = code.decoder();
    let mut marks = code.symbolic_decoder();
    let before = ledger::snapshot();
    for (fed, &i) in order.iter().enumerate() {
        let outcome = payload.add_packet_ref(i, &encoding[i]).unwrap();
        assert_eq!(outcome, marks.add_packet(i, Mark).unwrap(), "packet {fed}");
        if outcome == AddOutcome::Complete {
            let xors = (ledger::snapshot() - before).xors;
            let source = payload.source().expect("complete");
            return (fed + 1, fnv1a(&source), xors);
        }
    }
    panic!("four carousel cycles did not decode");
}

fn rows(mut each: impl FnMut(&str, (usize, u64, u64))) {
    for config in &CONFIGS {
        let (code, source, encoding) = build(config);
        let expected = fnv1a(&source);
        for seed in 0..config.orders {
            let order = reception_order(code.n(), seed);
            let row = decode(&code, &encoding, &order);
            assert_eq!(row.1, expected, "{} {seed}: wrong bytes", config.name);
            each(&format!("{} {seed}", config.name), row);
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "1 000 decodes; intractable under the Miri interpreter")]
fn the_decoder_reproduces_the_parent_fixture() {
    let mut parent = FIXTURE.lines();
    let (mut xors_now, mut xors_parent) = (0u64, 0u64);
    rows(|key, (count, hash, xors)| {
        let line = parent.next().expect("fixture has a row per order");
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(format!("{} {}", fields[0], fields[1]), key);
        assert_eq!(fields[2].parse::<usize>().unwrap(), count, "{key}: packet");
        assert_eq!(
            u64::from_str_radix(fields[3], 16).unwrap(),
            hash,
            "{key}: bytes"
        );
        let ceiling: u64 = fields[4].parse().unwrap();
        assert!(
            xors <= ceiling,
            "{key}: {xors} XORs, the parent made {ceiling}"
        );
        xors_now += xors;
        xors_parent += ceiling;
    });
    assert_eq!(parent.next(), None, "fixture has rows no order produced");
    println!("XOR calls: {xors_now} against the parent's {xors_parent}");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "encodes k = 2100 twice; decode.rs checks the same at k = 500"
)]
fn a_source_first_reception_performs_no_xor() {
    for config in &CONFIGS {
        let (code, source, encoding) = build(config);
        let order: Vec<usize> = (0..code.k()).collect();
        let (count, hash, xors) = decode(&code, &encoding, &order);
        assert_eq!((count, hash), (code.k(), fnv1a(&source)), "{}", config.name);
        assert_eq!(xors, 0, "{}", config.name);
    }
}

/// Rewrites the fixture from whatever decoder is checked out.  Run at the
/// commit whose behaviour is the reference, not to make a failure go away.
#[test]
#[ignore = "writes crates/core/tests/fixtures/peeling_parent.txt"]
fn regenerate_the_fixture() {
    let mut out = String::new();
    rows(|key, (count, hash, xors)| {
        writeln!(out, "{key} {count} {hash:016x} {xors}").unwrap();
    });
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/peeling_parent.txt"
    );
    std::fs::write(path, out).unwrap();
}

//! Golden digests of the rateless half of the wire, and of the bytes every
//! mode puts on it.
//!
//! A rateless receiver rebuilds each symbol's equation from its 64-bit seed
//! alone, and a Raptor receiver rebuilds the precode from `(k, code_seed)`,
//! so the seed → equation derivation and the precode graph are wire contract
//! exactly as the cascade graphs are (`code_golden.rs`).  The payload bytes a
//! server frames are what two builds must agree on, too: a change in how a
//! symbol or a check packet is computed — a different XOR kernel, an encoder
//! that writes in place — must not change one of them.
//! `fixtures/wire/rateless_v1.txt` pins:
//!
//! * the first 64 LT and Raptor equations (degree and a 64-bit FNV-1a digest
//!   of the neighbours) at `k` ∈ {16, 64, 4096} and two seeds, and each
//!   Raptor precode graph's digest;
//! * a digest of the first 256 datagrams `ServerSession::poll_transmit`
//!   frames for one 64 KiB file, in LT and in Raptor mode, at 1 KiB and at an
//!   odd 333-byte payload;
//! * a digest of the whole Tornado A encoding of the same file at both
//!   payload sizes.
//!
//! The fixture is written by the ignored `regenerate_the_fixture`.  Do not
//! run it to make a failure go away: a mismatch means the wire changed.  A
//! deliberate change regenerates into a new `rateless_v<N>.txt` beside this
//! one (and announces a new `RatelessMode` byte) and points `FIXTURE` at it.

use digital_fountain::core::{
    LtEncoder, RaptorCode, TornadoCode, LT_DEFAULT_C, LT_DEFAULT_DELTA, TORNADO_A,
};
use digital_fountain::proto::{RatelessMode, ServerSession, SessionConfig};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/wire/rateless_v1.txt");

const PREAMBLE: &str = "\
# Golden digests of the rateless wire: the seed -> equation derivation of
# LT and Raptor, the Raptor precode graph, and the bytes a server frames in
# each mode for one 64 KiB file.  tests/rateless_golden.rs checks this file
# line for line.
#
# Do NOT regenerate this file to make a failure go away.  A mismatch means
# the code changed, and two builds that disagree here cannot decode each
# other's symbols.  A deliberate change adds rateless_v2.txt beside this
# file; this one stays as the record of version 1.
#
# equations <mode> k=<k> seed=<seed> <degree>:<fnv1a of neighbours> x 64
# precode k=<k> seed=<seed> checks=<m> <fnv1a of every check's neighbours>
# datagrams <mode> payload=<P> count=256 <fnv1a of every framed byte>
# tornado-a payload=<P> k=<k> n=<n> <fnv1a of every encoding byte>
";

const SEEDS: [u64; 2] = [0, 0xD1F0];

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over words, each as four little-endian bytes.
fn fnv1a_words(words: impl IntoIterator<Item = u32>) -> u64 {
    fnv1a(words.into_iter().flat_map(u32::to_le_bytes))
}

fn equations(out: &mut String) {
    for k in [16, 64, 4096] {
        for seed in SEEDS {
            let lt = LtEncoder::new(k, LT_DEFAULT_C, LT_DEFAULT_DELTA, seed).unwrap();
            let raptor = RaptorCode::new(k, seed).unwrap();
            for (mode, encoder) in [("lt", &lt), ("raptor", raptor.lt())] {
                let pins: Vec<String> = (0..64u64)
                    .map(|s| {
                        let neighbors = encoder.equation(s).neighbors;
                        format!("{}:{:016x}", neighbors.len(), fnv1a_words(neighbors))
                    })
                    .collect();
                writeln!(out, "equations {mode} k={k} seed={seed} {}", pins.join(",")).unwrap();
            }
            // Each check's degree, then its neighbours.
            let graph = raptor.precode_graph();
            let words = (0..graph.right()).flat_map(|j| {
                let neighbors = graph.check_neighbors(j);
                std::iter::once(neighbors.len() as u32).chain(neighbors.iter().copied())
            });
            writeln!(
                out,
                "precode k={k} seed={seed} checks={} {:016x}",
                graph.right(),
                fnv1a_words(words)
            )
            .unwrap();
        }
    }
}

/// The 64 KiB file every datagram and encoding line is made from.
fn file() -> Vec<u8> {
    (0..64 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect()
}

fn datagrams(out: &mut String) {
    let data = file();
    for (name, mode) in [("lt", RatelessMode::Lt), ("raptor", RatelessMode::Raptor)] {
        for payload in [1024, 333] {
            let config = SessionConfig {
                packet_size: payload,
                code_seed: 0x5eed,
                rateless: mode,
                ..SessionConfig::default()
            };
            let mut server = ServerSession::new(&data, config).unwrap();
            let mut framed = Vec::new();
            while framed.len() < 256 {
                match server.poll_transmit() {
                    Some((_group, datagram)) => framed.push(datagram),
                    None => server.advance_round(),
                }
            }
            let digest = fnv1a(framed.iter().flat_map(|d| d.iter().copied()));
            writeln!(
                out,
                "datagrams {name} payload={payload} count=256 {digest:016x}"
            )
            .unwrap();
        }
    }
}

fn tornado(out: &mut String) {
    let data = file();
    for payload in [1024, 333] {
        let k = data.len().div_ceil(payload);
        let code = TornadoCode::with_profile(k, TORNADO_A, 0x5eed).unwrap();
        let encoding = code.encode_file(&data, payload).unwrap();
        let digest = fnv1a(encoding.rows().flat_map(|p| p.iter().copied()));
        writeln!(
            out,
            "tornado-a payload={payload} k={} n={} {digest:016x}",
            code.k(),
            code.n()
        )
        .unwrap();
    }
}

/// The fixture file this build would write.
fn render() -> String {
    let mut out = String::from(PREAMBLE);
    equations(&mut out);
    datagrams(&mut out);
    tornado(&mut out);
    out
}

#[test]
fn the_rateless_wire_matches_the_golden_digests() {
    let now = render();
    for (line, (pinned, built)) in FIXTURE.lines().zip(now.lines()).enumerate() {
        assert_eq!(
            pinned,
            built,
            "rateless_v1.txt line {} no longer matches what this build sends",
            line + 1
        );
    }
    assert_eq!(
        FIXTURE, now,
        "rateless_v1.txt differs in length or line ends"
    );
}

/// Writes `fixtures/wire/rateless_v1.txt` from this build.  Run it once, at
/// the commit that changes the wire on purpose (into a new version's file) —
/// never to make a failure go away.
#[test]
#[ignore = "writes tests/fixtures/wire/rateless_v1.txt"]
fn regenerate_the_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/wire/rateless_v1.txt"
    );
    std::fs::write(path, render()).unwrap();
}

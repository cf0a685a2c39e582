//! The kernel work of seeded, scaled-down shapes of the benchmark's
//! workloads, pinned exactly.
//!
//! Every payload operation goes through `df-gf`'s kernel entry points, which
//! count their own work in a per-thread ledger (`df_gf::ledger`: row XORs,
//! GF(2^8) and GF(2^16) multiply-accumulate pairs, and their bytes).
//! `fixtures/cost_v1.txt` holds the counts of each shape below, read from
//! the ledger around exactly the code the shape names:
//!
//! * a Tornado A `encode_file`, then a decode of the carousel's seeded
//!   permutation order, lossless and behind 10 % loss, at `k` = 512;
//! * an LT and a Raptor stream decode, lossless and behind 10 % loss, at
//!   `k` = 512 (the symbols are encoded before the ledger is read);
//! * one `ServerSession` built for a carousel and polled for one round;
//! * the three Tornado shapes again for Tornado B at `k` = 129, named in
//!   their labels: its code is then a single 129-of-258 Cauchy block over
//!   GF(2^16), so these lines pin GF(2^16) pairs;
//! * a lossless Tornado A decode at `k` = 512 in the emission order of a
//!   4-layer `ServerSession` (the reverse-binary schedule strides through
//!   the encoding, so checks become computable before they arrive), and in
//!   that of a 1-layer one (the source first and whole: a copy, no XOR).
//!
//! The counts do not depend on the kernel tier, so this test passes under
//! any `DF_GF_FORCE_TIER`.  A change that does more or less work shows as a
//! diff to the fixture: regenerate it with the ignored
//! `regenerate_the_fixture` and commit the diff as that change's exact work
//! delta.

use digital_fountain::core::rateless::{LtDecoder, LtEncoder};
use digital_fountain::core::{
    AddOutcome, Carousel, RaptorCode, TornadoCode, TornadoProfile, LT_DEFAULT_C, LT_DEFAULT_DELTA,
    TORNADO_A, TORNADO_B,
};
use digital_fountain::gf::ledger::{self, Work};
use digital_fountain::proto::{PacketHeader, ServerSession, SessionConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/cost_v1.txt");

const K: usize = 512;
const PACKET: usize = 64;
const SEED: u64 = 0xC057;

/// The smallest `k` at which Tornado B's code is one block over GF(2^16):
/// up to its 1 000-packet threshold the code is a single `k`-of-`2k` Cauchy
/// block, over GF(2^16) once `2k` passes 256.
const K_B: usize = 129;

/// `K` packets of file.
fn file() -> Vec<u8> {
    (0..(K * PACKET) as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect()
}

/// Whether the next datagram survives `loss`, drawn from `rng`.
fn kept(rng: &mut ChaCha8Rng, loss: f64) -> bool {
    loss == 0.0 || !rng.gen_bool(loss)
}

/// The work `f` does, and what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (Work, T) {
    let before = ledger::snapshot();
    let out = f();
    (ledger::snapshot() - before, out)
}

fn line(out: &mut String, shape: &str, packets: usize, work: Work) {
    writeln!(
        out,
        "{shape} packets={packets} xors={} xor_bytes={} mul8={}/{} mul16={}/{}",
        work.xors,
        work.xor_bytes,
        work.mul8_pairs,
        work.mul8_bytes,
        work.mul16_pairs,
        work.mul16_bytes
    )
    .unwrap();
}

/// The encode and the two decodes of `profile` over the first `k` packets of
/// the file, labelled `label`.
fn tornado(out: &mut String, label: &str, profile: TornadoProfile, k: usize) {
    let data = file()[..k * PACKET].to_vec();
    let code = TornadoCode::with_profile(k, profile, SEED).unwrap();
    let (work, encoding) = counted(|| code.encode_file(&data, PACKET).unwrap());
    line(out, &format!("{label} encode"), code.n(), work);
    for (name, loss) in [("lossless", 0.0), ("loss-10%", 0.1)] {
        let mut carousel = Carousel::new(code.n(), SEED);
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let mut decoder = code.decoder();
        let (work, received) = counted(|| {
            let mut received = 0;
            loop {
                let i = carousel.next_index();
                if !kept(&mut rng, loss) {
                    continue;
                }
                received += 1;
                if decoder.add_packet_ref(i, encoding.row(i)).unwrap() == AddOutcome::Complete {
                    return received;
                }
            }
        });
        assert_eq!(decoder.take_file(data.len()).unwrap(), data);
        line(out, &format!("{label} decode {name}"), received, work);
    }
}

/// The `(seed, symbol)` pairs a stream receiver behind `loss` hears, out of
/// the first `2 K` the sender emits.
fn stream(loss: f64, encode: impl Fn(u64) -> Vec<u8>) -> Vec<(u64, Vec<u8>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    (0..2 * K as u64)
        .filter(|_| kept(&mut rng, loss))
        .map(|seed| (seed, encode(seed)))
        .collect()
}

fn rateless(out: &mut String) {
    let data = file();
    let source: Vec<Vec<u8>> = data.chunks(PACKET).map(<[u8]>::to_vec).collect();
    let lt = LtEncoder::new(K, LT_DEFAULT_C, LT_DEFAULT_DELTA, SEED).unwrap();
    let raptor = RaptorCode::new(K, SEED).unwrap();
    let intermediates = raptor.precode_symbols(&source).unwrap();
    for (name, loss) in [("lossless", 0.0), ("loss-10%", 0.1)] {
        let heard = stream(loss, |s| lt.encode_symbol(s, &source).unwrap());
        let mut decoder = LtDecoder::new(lt.clone());
        let (work, received) = counted(|| {
            heard
                .into_iter()
                .position(|(s, v)| decoder.add_symbol(s, v) == AddOutcome::Complete)
                .expect("2 K symbols decode")
                + 1
        });
        assert_eq!(decoder.source().unwrap(), source);
        line(out, &format!("lt decode {name}"), received, work);

        let heard = stream(loss, |s| raptor.encode_symbol(s, &intermediates).unwrap());
        let mut decoder = raptor.decoder();
        let (work, received) = counted(|| {
            heard
                .into_iter()
                .position(|(s, v)| decoder.add_symbol(s, v).unwrap() == AddOutcome::Complete)
                .expect("2 K symbols decode")
                + 1
        });
        assert_eq!(decoder.source().unwrap(), source);
        line(out, &format!("raptor decode {name}"), received, work);
    }
}

fn session(out: &mut String) {
    let data = file();
    let config = SessionConfig {
        packet_size: PACKET,
        code_seed: SEED,
        ..SessionConfig::default()
    };
    let (work, sent) = counted(|| {
        let mut server = ServerSession::new(&data, config).unwrap();
        std::iter::from_fn(|| server.poll_transmit()).count()
    });
    line(out, "session carousel new+round", sent, work);
}

/// A lossless Tornado A decode of the packet indices a `layers`-layer
/// `ServerSession` emits, round after round, until the file is whole.
fn session_order(out: &mut String, layers: usize) {
    let data = file();
    let config = SessionConfig {
        packet_size: PACKET,
        code_seed: SEED,
        layers,
        ..SessionConfig::default()
    };
    let mut server = ServerSession::new(&data, config).unwrap();
    let code = server.code().unwrap().clone();
    let encoding = code.encode_file(&data, PACKET).unwrap();
    let mut order = Vec::new();
    for _ in 0..2 {
        while let Some((_, datagram)) = server.poll_transmit() {
            order.push(PacketHeader::decode(&datagram).unwrap().packet_index as usize);
        }
        server.advance_round();
    }
    let mut decoder = code.decoder();
    let (work, received) = counted(|| {
        order
            .iter()
            .position(|&i| {
                decoder.add_packet_ref(i, encoding.row(i)).unwrap() == AddOutcome::Complete
            })
            .expect("two rounds decode")
            + 1
    });
    assert_eq!(decoder.take_file(data.len()).unwrap(), data);
    line(
        out,
        &format!("tornado-a decode session-{layers}-layer"),
        received,
        work,
    );
}

/// The fixture file this build would write.
fn render() -> String {
    let mut out = String::from(
        "# Kernel work of seeded shapes at k = 512, 64-byte packets, read from\n\
         # df_gf::ledger; tests/cost_golden.rs checks this file line for line.\n\
         # <shape> packets=<received or sent> xors=<row XORs> xor_bytes=<bytes>\n\
         # mul8=<GF(2^8) pairs>/<bytes> mul16=<GF(2^16) pairs>/<bytes>\n",
    );
    tornado(&mut out, "tornado-a", TORNADO_A, K);
    rateless(&mut out);
    session(&mut out);
    tornado(&mut out, &format!("tornado-b k={K_B}"), TORNADO_B, K_B);
    session_order(&mut out, 4);
    session_order(&mut out, 1);
    out
}

#[test]
fn kernel_work_matches_the_cost_fixture() {
    let now = render();
    for (line, (pinned, built)) in FIXTURE.lines().zip(now.lines()).enumerate() {
        assert_eq!(
            pinned,
            built,
            "cost_v1.txt line {} differs from this build's work",
            line + 1
        );
    }
    assert_eq!(FIXTURE, now, "cost_v1.txt differs in length or line ends");
}

/// Writes `fixtures/cost_v1.txt` from this build, whose diff is then the
/// change's exact work delta.  Run it for a change that alters the work on
/// purpose, not to make a failure go away.
#[test]
#[ignore = "writes tests/fixtures/cost_v1.txt"]
fn regenerate_the_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/cost_v1.txt");
    std::fs::write(path, render()).unwrap();
}

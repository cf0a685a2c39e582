//! Quickstart: encode a file with a Tornado code, lose half the packets, and
//! reconstruct it — the digital-fountain property in a dozen lines.
//!
//! Run with: `cargo run --release --example quickstart`

use digital_fountain::core::{AddOutcome, ReceptionCounter, TornadoCode};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // A 1 MB "software release" cut into 1 KB packets.
    let data: Vec<u8> = (0..1024 * 1024).map(|i| (i % 251) as u8).collect();
    let k = data.len().div_ceil(1024);
    println!("file: {} bytes -> {k} source packets", data.len());

    // Build a Tornado A code with stretch factor 2 and encode.
    let code = TornadoCode::new_a(k, 0x5eed).expect("valid parameters");
    let encoding = code.encode_file(&data, 1024).expect("encode");
    println!(
        "encoding: {} packets (stretch factor {:.1})",
        code.n(),
        code.stretch_factor()
    );

    // A receiver that hears a random subset of the encoding — any sufficiently
    // large subset will do, which is the digital-fountain property.
    let mut order: Vec<usize> = (0..code.n()).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(42));
    let mut decoder = code.decoder();
    let mut tally = ReceptionCounter::new(code.n(), code.k());
    for &i in &order {
        tally.record(i);
        if decoder
            .add_packet_ref(i, encoding.row(i))
            .expect("in range")
            == AddOutcome::Complete
        {
            break;
        }
    }
    let recovered = decoder.take_file(data.len()).expect("decoding completed");
    assert_eq!(recovered, data);
    println!(
        "reconstructed from {} received packets (reception overhead {:.1} %)",
        tally.received,
        tally.reception_overhead() * 100.0
    );
}

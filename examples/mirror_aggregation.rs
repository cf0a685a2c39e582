//! Mirror aggregation (Section 8, "Conclusions"): with digital fountains a
//! client can download the *same* file from several mirrors at once and
//! simply aggregate whatever packets arrive — no coordination between the
//! mirrors is needed, and every received packet from any mirror is useful
//! until the decoder completes.
//!
//! Each mirror carousels the same Tornado encoding but with its own packet
//! permutation; the client interleaves reception from all of them through
//! independent lossy paths.
//!
//! Run with: `cargo run --release --example mirror_aggregation`

use digital_fountain::core::{AddOutcome, Carousel, Mark, ReceptionCounter, TornadoCode};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    let k = 2048; // a 2 MB file in 1 KB packets
    let code = TornadoCode::new_a(k, 77).expect("valid parameters");

    // Three mirrors with different path loss rates and bandwidth shares.
    let mirrors = [
        ("mirror-us", 0.02, 3usize),
        ("mirror-eu", 0.10, 2),
        ("mirror-ap", 0.30, 1),
    ];
    let mut carousels: Vec<Carousel> = mirrors
        .iter()
        .enumerate()
        .map(|(i, _)| Carousel::new(code.n(), i as u64 + 1))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut decoder = code.symbolic_decoder();
    let mut received_from = vec![0usize; mirrors.len()];
    let mut tally = ReceptionCounter::new(code.n(), k);
    'outer: loop {
        for (m, (_name, loss, share)) in mirrors.iter().enumerate() {
            // A mirror with a larger bandwidth share gets more transmission
            // slots per round-robin turn.
            for _ in 0..*share {
                let idx = carousels[m].next_index();
                if rng.gen::<f64>() < *loss {
                    continue;
                }
                tally.record(idx);
                received_from[m] += 1;
                if decoder.add_packet(idx, Mark).expect("in range") == AddOutcome::Complete {
                    break 'outer;
                }
            }
        }
    }
    println!(
        "file of {} packets reconstructed from {} received packets",
        k, tally.received
    );
    for ((name, loss, _), got) in mirrors.iter().zip(&received_from) {
        println!(
            "  {name:<10} (loss {:>4.0} %) contributed {:>5} packets",
            loss * 100.0,
            got
        );
    }
    println!(
        "aggregate reception efficiency: {:.3}",
        tally.reception_efficiency()
    );
    println!("no mirror coordination was needed: any packets from any mirror fill the same glass");
}

//! Scratch harness for the rateless decoder's operating point: reception
//! overhead and how many symbols the solver had to inactivate, per mode and
//! `k`, over seeded symbolic decodes.
//!
//! Not part of the test suite; run with
//! `cargo run -p df-core --release --example lt_stats`.

use df_core::rateless::{LtDecoder, LtEncoder};
use df_core::{Mark, RaptorCode, LT_DEFAULT_C, LT_DEFAULT_DELTA};

/// `(received / k, inactivated symbols)` of one decode fed by `add`, which
/// takes a seed and says whether the decode is complete.
fn trial(k: usize, seed: u64, mut add: impl FnMut(u64) -> (bool, usize)) -> (f64, usize) {
    let mut sent = 0u64;
    loop {
        let (complete, inactive) = add(seed.wrapping_mul(1_000_003).wrapping_add(sent));
        sent += 1;
        if complete {
            return (sent as f64 / k as f64, inactive);
        }
        assert!(sent < 4 * k as u64 + 1000, "decode runaway at k = {k}");
    }
}

fn lt_trial(k: usize, seed: u64) -> (f64, usize) {
    let enc = LtEncoder::new(k, LT_DEFAULT_C, LT_DEFAULT_DELTA, seed).unwrap();
    let mut dec = LtDecoder::<Mark>::new(enc);
    trial(k, seed, |s| {
        dec.add_symbol(s, Mark);
        (dec.is_complete(), dec.inactive_symbols())
    })
}

fn raptor_trial(k: usize, seed: u64) -> (f64, usize) {
    let code = RaptorCode::new(k, seed).unwrap();
    let mut dec = code.symbolic_decoder();
    trial(k, seed, |s| {
        dec.add_mark(s).unwrap();
        (dec.is_complete(), dec.inactive_symbols())
    })
}

fn main() {
    println!("mode    k      trials  overhead mean / p95 / max     inactive mean / max");
    for (k, trials) in [
        (64usize, 200u64),
        (150, 200),
        (512, 100),
        (1000, 100),
        (4096, 40),
        (16384, 10),
    ] {
        for (mode, run) in [
            ("lt", lt_trial as fn(usize, u64) -> (f64, usize)),
            ("raptor", raptor_trial),
        ] {
            let mut results: Vec<(f64, usize)> =
                (0..trials).map(|t| run(k, 0xACCE_5500 + t)).collect();
            results.sort_by(|a, b| a.0.total_cmp(&b.0));
            let n = results.len();
            let mean = results.iter().map(|r| r.0).sum::<f64>() / n as f64;
            let inactive_mean = results.iter().map(|r| r.1).sum::<usize>() as f64 / n as f64;
            let inactive_max = results.iter().map(|r| r.1).max().unwrap_or(0);
            println!(
                "{mode:<7} {k:<6} {trials:<7} {mean:.4} / {:.4} / {:.4}          {inactive_mean:.0} / {inactive_max}",
                results[n * 95 / 100 - 1].0,
                results[n - 1].0,
            );
        }
    }
}

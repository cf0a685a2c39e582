//! Timing helpers for the `repro` binary, which prints the paper's tables
//! and figures in the paper's own format.  How fast this code is, end to
//! end and layer by layer, is measured by `benchmark/` alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use df_core::{TornadoCode, TornadoProfile};
use df_rs::{CauchyCode, ErasureCode, VandermondeCode};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Generate a pseudo-random "file" split into `k` packets of `packet_size`
/// bytes, as the paper's benchmarks do (1 KB packets).
fn random_packets(k: usize, packet_size: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..k)
        .map(|_| (0..packet_size).map(|_| rng.gen()).collect())
        .collect()
}

/// Measured encode/decode wall-clock times for one code at one file size.
#[derive(Debug, Clone, Copy)]
pub struct CodingTimes {
    /// Encoding time in seconds.
    pub encode_s: f64,
    /// Decoding time in seconds (half source / half redundant received, as in
    /// Tables 2 and 3 of the paper).
    pub decode_s: f64,
}

fn half_and_half(n: usize, k: usize, encoding: &[Vec<u8>]) -> Vec<(usize, Vec<u8>)> {
    // Receive k/2 source packets and enough redundant packets to reach k, the
    // reception mix the paper assumes for its decode benchmarks.
    let mut rx: Vec<(usize, Vec<u8>)> = (0..k / 2).map(|i| (i, encoding[i].clone())).collect();
    let mut idx = k;
    while rx.len() < k && idx < n {
        rx.push((idx, encoding[idx].clone()));
        idx += 1;
    }
    rx
}

/// Measure a Tornado profile at `k` source packets.
///
/// Decoding feeds random-order packets until completion, so the measured time
/// includes the (1+ε) reception overhead's worth of work.
pub fn measure_tornado(profile: TornadoProfile, k: usize, packet_size: usize) -> CodingTimes {
    let source = random_packets(k, packet_size, 0xbe11);
    let code = TornadoCode::with_profile(k, profile, 0x5eed).expect("profile builds");
    let t0 = Instant::now();
    let encoding = code.encode(&source).expect("encode");
    let encode_s = t0.elapsed().as_secs_f64();

    let mut order: Vec<usize> = (0..code.n()).collect();
    use rand::seq::SliceRandom;
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(1));
    let t0 = Instant::now();
    let mut decoder = code.decoder();
    for &i in &order {
        if decoder.add_packet_ref(i, &encoding[i]).expect("in range")
            == df_core::AddOutcome::Complete
        {
            break;
        }
    }
    assert!(decoder.is_complete(), "tornado decode must complete");
    let decode_s = t0.elapsed().as_secs_f64();
    CodingTimes { encode_s, decode_s }
}

/// Measure the Cauchy Reed–Solomon whole-file code at `k` source packets.
pub fn measure_cauchy(k: usize, packet_size: usize) -> CodingTimes {
    let source = random_packets(k, packet_size, 0xca);
    let code = CauchyCode::new_large(k, 2 * k).expect("parameters");
    let t0 = Instant::now();
    let encoding = code.encode(&source).expect("encode");
    let encode_s = t0.elapsed().as_secs_f64();
    let rx = half_and_half(2 * k, k, &encoding);
    let t0 = Instant::now();
    let out = code.decode(&rx).expect("decode");
    let decode_s = t0.elapsed().as_secs_f64();
    assert_eq!(out, source);
    CodingTimes { encode_s, decode_s }
}

/// Measure the Vandermonde Reed–Solomon whole-file code at `k` source packets.
///
/// Construction cost (the systematic transform) is *not* charged to the
/// encode time, mirroring Rizzo's implementation which precomputes it.
pub fn measure_vandermonde(k: usize, packet_size: usize) -> CodingTimes {
    let source = random_packets(k, packet_size, 0x7a);
    let code = VandermondeCode::new_large(k, 2 * k).expect("parameters");
    let t0 = Instant::now();
    let encoding = code.encode(&source).expect("encode");
    let encode_s = t0.elapsed().as_secs_f64();
    let rx = half_and_half(2 * k, k, &encoding);
    let t0 = Instant::now();
    let out = code.decode(&rx).expect("decode");
    let decode_s = t0.elapsed().as_secs_f64();
    assert_eq!(out, source);
    CodingTimes { encode_s, decode_s }
}

/// Measure the per-block Cauchy decode time for interleaved-code estimates
/// (Table 4): a block of `block_k` source packets, half received from each
/// side.
pub fn measure_cauchy_block_decode(block_k: usize, packet_size: usize) -> f64 {
    let source = random_packets(block_k, packet_size, 0xb10c);
    let code = CauchyCode::new(block_k, 2 * block_k).expect("parameters");
    let encoding = code.encode(&source).expect("encode");
    let rx = half_and_half(2 * block_k, block_k, &encoding);
    let t0 = Instant::now();
    let out = code.decode(&rx).expect("decode");
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(out, source);
    elapsed
}

/// Format seconds the way the paper's tables do.
pub fn fmt_seconds(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.3} s", s)
    } else {
        format!("{:.2} s", s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::TORNADO_A;

    #[test]
    fn tornado_measurement_roundtrips() {
        let t = measure_tornado(TORNADO_A, 128, 64);
        assert!(t.encode_s >= 0.0 && t.decode_s >= 0.0);
    }

    #[test]
    fn rs_measurements_roundtrip() {
        let c = measure_cauchy(64, 64);
        let v = measure_vandermonde(64, 64);
        assert!(c.encode_s > 0.0 && v.encode_s > 0.0);
        assert!(measure_cauchy_block_decode(20, 64) > 0.0);
    }

    #[test]
    fn seconds_formatting() {
        assert!(fmt_seconds(0.0000005).contains("µs"));
        assert!(fmt_seconds(0.5).contains("0.500"));
        assert!(fmt_seconds(12.3).starts_with("12.30"));
    }
}

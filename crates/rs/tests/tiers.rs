//! The Cauchy and Vandermonde codes encode and decode byte-identically on
//! every GF kernel tier this CPU runs.
//!
//! The kernel tier is fixed once per process (`DF_GF_FORCE_TIER`, read at
//! the first kernel call), so the test runs its own binary once per tier:
//! each child encodes and decodes a fixed set of shapes, checks the decode,
//! and prints a digest of every byte it produced; the parent asserts that
//! all tiers print the same digest.

use df_gf::kernels::FORCE_TIER_ENV;
use df_gf::{GF256, GF65536};
use df_rs::{CauchyCode, ErasureCode, VandermondeCode};
use std::process::Command;

/// Set in a child run: compute and print the digest instead of spawning.
const CHILD_ENV: &str = "DF_RS_TIER_DIGEST_CHILD";

const TEST_NAME: &str = "encodings_and_decodings_are_identical_on_every_tier";

/// The tiers `DF_GF_FORCE_TIER` accepts on this machine.
fn tiers() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut tiers = vec!["scalar"];
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        use std::arch::is_x86_feature_detected as has;
        for (name, supported) in [
            ("ssse3", has!("ssse3")),
            ("avx2", has!("avx2")),
            ("avx512", has!("avx512bw")),
            ("gfni", has!("avx512bw") && has!("gfni")),
        ] {
            if supported {
                tiers.push(name);
            }
        }
    }
    tiers
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

fn source(k: usize, len: usize, salt: u64) -> Vec<Vec<u8>> {
    let mut x = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..k)
        .map(|_| {
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect()
        })
        .collect()
}

/// Encode, then decode from every other packet of the encoding (half the
/// sources lost, redundancy filling in), folding both into `hash`.
fn round_trip(code: &dyn ErasureCode, len: usize, hash: &mut u64) {
    let (k, n) = (code.k(), code.n());
    let src = source(k, len, (k * 31 + n + len) as u64);
    let enc = code.encode(&src).expect("encode");
    let received: Vec<(usize, &[u8])> = (0..n)
        .filter(|i| i % 2 == 1)
        .chain((0..n).filter(|i| i % 2 == 0))
        .take(k)
        .map(|i| (i, enc[i].as_slice()))
        .collect();
    let dec = code.decode_ref(&received).expect("decode");
    assert_eq!(dec, src, "{} k {k} n {n} len {len}", code.name());
    for row in enc.iter().chain(&dec) {
        fnv(hash, row);
    }
}

fn digest() -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    // Shapes around the GFNI kernel's group of eight destinations and its
    // 64-byte block, up to the cascade's 128-of-256 final block.
    for (k, n, len) in [
        (1, 2, 1),
        (5, 14, 63),
        (9, 18, 65),
        (17, 40, 130),
        (128, 256, 1036),
    ] {
        round_trip(
            &CauchyCode::<GF256>::with_field(k, n).expect("cauchy"),
            len,
            &mut hash,
        );
        round_trip(
            &VandermondeCode::<GF256>::with_field(k, n).expect("vandermonde"),
            len,
            &mut hash,
        );
    }
    for (k, n, len) in [(40, 90, 130), (6, 13, 66)] {
        round_trip(
            &CauchyCode::<GF65536>::with_field(k, n).expect("cauchy"),
            len,
            &mut hash,
        );
        round_trip(
            &VandermondeCode::<GF65536>::with_field(k, n).expect("vandermonde"),
            len,
            &mut hash,
        );
    }
    hash
}

#[test]
#[cfg_attr(miri, ignore = "spawns one process per kernel tier")]
fn encodings_and_decodings_are_identical_on_every_tier() {
    if std::env::var_os(CHILD_ENV).is_some() {
        println!(
            "digest {:016x} tier {}",
            digest(),
            df_gf::kernels::active_kernel()
        );
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut digests = Vec::new();
    for tier in tiers() {
        let out = Command::new(&exe)
            .args([TEST_NAME, "--exact", "--nocapture", "--test-threads=1"])
            .env(FORCE_TIER_ENV, tier)
            .env(CHILD_ENV, "1")
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "tier {tier} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The harness prints the test's name on the same line.
        let line = stdout
            .lines()
            .find_map(|l| l.split("digest ").nth(1))
            .unwrap_or_else(|| panic!("tier {tier} printed no digest:\n{stdout}"));
        assert!(
            line.ends_with(&format!("tier {tier}")),
            "{tier} ran as {line}"
        );
        digests.push((
            tier,
            line.split_whitespace().next().expect("digest").to_string(),
        ));
    }
    let (first_tier, first) = &digests[0];
    for (tier, d) in &digests[1..] {
        assert_eq!(d, first, "tier {tier} differs from {first_tier}");
    }
}

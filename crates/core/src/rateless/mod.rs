//! Rateless ("true digital fountain") codes: LT and Raptor.
//!
//! The carousel (`fountain.rs`) approximates the paper's ideal fountain by
//! re-transmitting a *fixed* Tornado encoding — cheap, but late joiners and
//! slow receivers pay a distinctness-efficiency loss as duplicates
//! accumulate.  This module is the real thing: an unbounded stream of fresh
//! symbols, each fully described by a 64-bit seed, so that *every* received
//! symbol is new no matter when a receiver tunes in.
//!
//! * [`RobustSoliton`] — Luby's ρ+τ degree distribution with inverse-CDF
//!   sampling from a seeded PRNG.
//! * [`LtEncoder`] / [`LtDecoder`] — the seed → (degree, neighbors) contract
//!   and the streaming decoder.
//! * [`RaptorCode`] / [`RaptorDecoder`] — a sparse XOR precode + LT layer,
//!   which trades 5 % more symbols to range over for a constant encoding
//!   cost per symbol.
//!
//! Both decoders are equation sources over one streaming sparse GF(2)
//! solver (`solve.rs`): peeling while a ripple exists, inactivation decoding
//! when it dries up, so either mode completes on the first symbol that makes
//! the file determined at all.
//!
//! `df-proto` carries the seed in the existing 12-byte header
//! (`packet_index:serial` = high:low 32 bits) and advertises the mode on the
//! control channel; see DESIGN.md "Rateless mode".

mod lt;
mod raptor;
mod soliton;
mod solve;

pub use lt::{LtDecoder, LtEncoder, LtEquation};
pub use raptor::{RaptorCode, RaptorDecoder, PRECODE_DEGREE, RAPTOR_DEGREE_TABLE};
pub use soliton::{DegreeTable, RobustSoliton};
pub use solve::INACTIVATION_CAP;

/// Default robust-soliton `c` for plain-LT sessions (the classic
/// literature operating point, also the ISSUE/acceptance parameters).
pub const LT_DEFAULT_C: f64 = 0.03;

/// Default robust-soliton `δ` for plain-LT sessions.
pub const LT_DEFAULT_DELTA: f64 = 0.5;

#[cfg(test)]
mod overhead_tests {
    use super::*;
    use crate::symbol::Mark;

    /// Received symbols needed for one plain-LT decode at `k`, seeded.
    fn lt_trial(k: usize, seed: u64) -> f64 {
        let enc = LtEncoder::new(k, LT_DEFAULT_C, LT_DEFAULT_DELTA, seed).expect("valid params");
        let mut dec = LtDecoder::<Mark>::new(enc);
        let mut sent = 0u64;
        while !dec.is_complete() {
            dec.add_symbol(seed.wrapping_mul(1_000_003).wrapping_add(sent), Mark);
            sent += 1;
            assert!(sent < 4 * k as u64 + 1000, "LT decode runaway at k = {k}");
        }
        sent as f64 / k as f64
    }

    /// Received symbols needed for one Raptor decode at `k`, seeded.
    fn raptor_trial(k: usize, seed: u64) -> f64 {
        let code = RaptorCode::new(k, seed).expect("valid params");
        let mut dec = code.symbolic_decoder();
        let mut sent = 0u64;
        while !dec.is_complete() {
            dec.add_mark(seed.wrapping_mul(1_000_003).wrapping_add(sent))
                .expect("in-range index");
            sent += 1;
            assert!(
                sent < 4 * k as u64 + 1000,
                "Raptor decode runaway at k = {k}"
            );
        }
        sent as f64 / k as f64
    }

    /// The PR's acceptance criterion, verbatim: at k = 1000 with the default
    /// (c = 0.03, δ = 0.5) soliton, ≥ 95 of 100 seeded trials finish from at
    /// most 1.15·k received symbols.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn lt_k1000_decodes_within_15_percent_overhead_in_95_of_100_trials() {
        let trials = 100;
        let within = (0..trials)
            .filter(|&t| lt_trial(1000, 0xACCE_5500 + t as u64) <= 1.15)
            .count();
        assert!(
            within >= 95,
            "only {within}/{trials} trials decoded within 1.15·k"
        );
    }

    /// Neither mode pays a peeling tail any more — both complete at full
    /// rank — so both sit near 1.00 and what separates them is only how
    /// soon `k` sparse random equations reach full rank.  Measured with
    /// these seeds: LT 1.0071 / Raptor 1.0034 at k = 1000, LT 1.0513 /
    /// Raptor 1.0292 at k = 150.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn both_modes_decode_from_barely_more_than_k_symbols() {
        for (k, trials, bound) in [(1000usize, 40u64, 1.03), (150, 200, 1.06)] {
            let mean = |trial: fn(usize, u64) -> f64| {
                (0..trials).map(|t| trial(k, 0xBEEF_0000 + t)).sum::<f64>() / trials as f64
            };
            let (lt, raptor) = (mean(lt_trial), mean(raptor_trial));
            assert!(lt <= bound, "LT mean {lt:.4} above {bound} at k = {k}");
            assert!(
                raptor <= bound,
                "Raptor mean {raptor:.4} above {bound} at k = {k}"
            );
        }
    }

    /// Overhead stays bounded across the size sweep the ISSUE names.
    /// Small k pays proportionally more (an uncovered source symbol costs a
    /// larger share of `k`); the bounds below are loose envelopes, not
    /// targets.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn lt_overhead_bounds_across_k() {
        for (k, trials, bound) in [(100usize, 30u64, 1.60), (1000, 10, 1.25), (10_000, 3, 1.15)] {
            let avg: f64 = (0..trials)
                .map(|t| lt_trial(k, 0x5EED_0000 + t))
                .sum::<f64>()
                / trials as f64;
            assert!(
                avg >= 1.0 && avg <= bound,
                "k = {k}: average reception {avg:.4} outside [1.0, {bound}]"
            );
        }
    }
}

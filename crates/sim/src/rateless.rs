//! Rateless-mode experiments: reception overhead of the true fountain and
//! the late-join comparison against the carousel.
//!
//! The paper's Section 7 tables measure the carousel prototype's efficiency
//! split three ways — reception `η = k/received`, coding `η_c = k/distinct`
//! and distinctness `η_d = distinct/received` — and it is `η_d` the carousel
//! gives up: a receiver that needs more than one cycle (loss, late join)
//! sees packets it already holds, and in the heavy-loss limit the cycle
//! looks like uniform sampling with replacement, whose distinctness decays
//! toward the `1 − 1/e ≈ 0.632` floor (the ≈ 0.64 the layered tables show).
//! A rateless session never repeats a seed, so an honest stream holds
//! `η_d = 1.0` at *any* join time and the only overhead left is the code's
//! own reception overhead.  These experiments measure both claims through
//! the real `df-proto` sessions.

use df_core::Reception;
use df_proto::{
    ClientEvent, ClientSession, RatelessMode, ServerSession, SessionConfig, SimMulticast, Transport,
};

/// Outcome of [`rateless_overhead_experiment`]: reception overhead
/// (`received/k` at completion) of a rateless session over a clean channel.
#[derive(Debug, Clone)]
pub struct RatelessOverheadOutcome {
    /// Which rateless code the sessions ran.
    pub mode: RatelessMode,
    /// Source packets per trial.
    pub k: usize,
    /// Independent trials (fresh stream seed each).
    pub trials: usize,
    /// Mean `received/k` across trials.
    pub mean_overhead: f64,
    /// Worst (largest) `received/k` seen.
    pub worst_overhead: f64,
    /// Trials whose overhead stayed within `1.15 × k`.
    pub within_115: usize,
    /// Smallest distinctness efficiency seen (1.0 for any honest stream).
    pub min_distinctness: f64,
}

/// Stream one rateless download per trial over a lossless channel and
/// measure how many symbols the receiver needed: the protocol-level mirror
/// of the core crate's decode-threshold statistics, run through the real
/// server/client sessions and the seed-carrying wire format.
///
/// # Panics
///
/// Panics if a session cannot be built or a trial fails to converge — this
/// is an experiment driver over honest channels, not a validation surface.
pub fn rateless_overhead_experiment(
    k: usize,
    packet_size: usize,
    mode: RatelessMode,
    trials: usize,
    seed: u64,
) -> RatelessOverheadOutcome {
    let mut total = 0.0f64;
    let mut worst = 0.0f64;
    let mut within = 0usize;
    let mut min_eta_d = f64::INFINITY;
    for trial in 0..trials {
        let data: Vec<u8> = (0..k * packet_size)
            .map(|i| ((i * 131 + trial * 17 + seed as usize) % 251) as u8)
            .collect();
        let mut server = ServerSession::new(
            &data,
            SessionConfig {
                packet_size,
                rateless: mode,
                code_seed: seed.wrapping_add(trial as u64).wrapping_mul(0x9E37_79B9),
                ..SessionConfig::default()
            },
        )
        .expect("rateless server session");
        let mut client =
            ClientSession::new(server.control_info().clone()).expect("honest control info");
        let mut rounds = 0;
        'deliver: while !client.is_complete() {
            while let Some((_group, dgram)) = server.poll_transmit() {
                if client.handle_datagram(dgram) == ClientEvent::Complete {
                    break 'deliver;
                }
            }
            server.advance_round();
            rounds += 1;
            assert!(rounds < 100, "rateless trial failed to converge");
        }
        assert_eq!(client.file().expect("completed"), &data[..]);
        // `received / k` as `1 + ε`, which is exact in floating point: a
        // completed download received at least `k`, so `ε ≥ 0`.
        let overhead = 1.0 + client.stats().reception_overhead();
        total += overhead;
        worst = worst.max(overhead);
        if overhead <= 1.15 {
            within += 1;
        }
        min_eta_d = min_eta_d.min(client.stats().distinctness_efficiency());
    }
    RatelessOverheadOutcome {
        mode,
        k,
        trials,
        mean_overhead: total / trials.max(1) as f64,
        worst_overhead: worst,
        within_115: within,
        min_distinctness: min_eta_d,
    }
}

/// One receiver's ledger in a [`late_join_experiment`].  It reads as its
/// [`Reception`]: `ledger.distinct`, `ledger.distinctness_efficiency()`.
#[derive(Debug, Clone, Copy)]
pub struct LateJoinReceiver {
    /// What survived the channel, duplicates included; distinct counts
    /// indices on the carousel and seeds on the fountain.
    pub reception: Reception,
    /// Whether the download completed inside the round budget.
    pub completed: bool,
}

impl std::ops::Deref for LateJoinReceiver {
    type Target = Reception;

    fn deref(&self) -> &Reception {
        &self.reception
    }
}

/// Outcome of [`late_join_experiment`]: the same file, the same loss, the
/// same late join — once over the carousel, once over the rateless stream.
#[derive(Debug, Clone, Copy)]
pub struct LateJoinOutcome {
    /// Rounds the servers transmitted before the receivers tuned in.
    pub skip_rounds: usize,
    /// Independent per-packet loss both receivers sat behind.
    pub loss: f64,
    /// The carousel receiver's ledger.
    pub carousel: LateJoinReceiver,
    /// The rateless (LT) receiver's ledger.
    pub rateless: LateJoinReceiver,
}

/// The late-join head-to-head: a carousel client and a rateless client each
/// tune in `skip_rounds` rounds late behind `loss`, and download the same
/// file to completion.  Heavy loss forces the carousel receiver across
/// multiple cycles, so its reception converges on sampling with replacement
/// and `η_d` slides toward the ≈ 0.64 floor; the rateless receiver's seeds
/// are fresh by construction and its `η_d` is exactly 1.0.
///
/// # Panics
///
/// Panics if either session cannot be built — experiment driver, not a
/// validation surface.  A download that misses the round budget reports
/// `completed: false` instead of panicking.
pub fn late_join_experiment(
    file_len: usize,
    packet_size: usize,
    skip_rounds: usize,
    loss: f64,
    seed: u64,
) -> LateJoinOutcome {
    let data: Vec<u8> = (0..file_len)
        .map(|i| ((i * 137 + seed as usize) % 251) as u8)
        .collect();
    let run = |rateless: RatelessMode| -> LateJoinReceiver {
        let mut server = ServerSession::new(
            &data,
            SessionConfig {
                packet_size,
                rateless,
                code_seed: seed,
                ..SessionConfig::default()
            },
        )
        .expect("late-join server session");
        let net = SimMulticast::new(seed ^ rateless.to_wire() as u64);
        let mut tx = net.endpoint(0.0);
        // The early rounds play out before the receiver exists — the
        // carousel has already cycled, the fountain has already streamed.
        for _ in 0..skip_rounds {
            server.send_round(&mut tx);
        }
        let mut rx = net.endpoint(loss);
        let mut client =
            ClientSession::new(server.control_info().clone()).expect("honest control info");
        for group in client.groups() {
            rx.join(group).expect("sim joins cannot fail");
        }
        let mut rounds = 0;
        'deliver: while !client.is_complete() && rounds < 1_000 {
            server.send_round(&mut tx);
            rounds += 1;
            while let Some((_group, dgram)) = rx.recv() {
                if client.handle_datagram(dgram) == ClientEvent::Complete {
                    break 'deliver;
                }
            }
        }
        if client.is_complete() {
            assert_eq!(client.file().expect("completed"), &data[..]);
        }
        LateJoinReceiver {
            reception: **client.stats(),
            completed: client.is_complete(),
        }
    };
    LateJoinOutcome {
        skip_rounds,
        loss,
        carousel: run(RatelessMode::Off),
        rateless: run(RatelessMode::Lt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lt_overhead_stays_modest_at_protocol_scale() {
        let outcome = rateless_overhead_experiment(100, 64, RatelessMode::Lt, 10, 5);
        assert_eq!(outcome.trials, 10);
        // Small k needs proportionally more symbols than k = 1000 does
        // (≈ 1.05 against ≈ 1.005); the protocol layer must not add to it.
        assert!(
            outcome.mean_overhead < 1.5,
            "LT mean overhead {} at k=100",
            outcome.mean_overhead
        );
        assert_eq!(
            outcome.min_distinctness, 1.0,
            "an honest fountain stream never repeats a seed"
        );
    }

    #[test]
    fn both_modes_decode_from_barely_more_than_k_symbols() {
        // Both modes decode by inactivation, so neither pays a peeling
        // tail: what is left is the rank deficiency of `k` random sparse
        // equations, which shrinks with `k`.  Measured here: LT 1.051 /
        // Raptor 1.025 at k = 150 (LT's tail is a source packet no equation
        // covers yet — worst 1.43 of 100 — which Raptor's precode reaches),
        // 1.005 / 1.003 at k = 1000.
        for (k, trials, bound) in [(150usize, 100usize, 1.06), (1000, 8, 1.03)] {
            for mode in [RatelessMode::Lt, RatelessMode::Raptor] {
                let outcome = rateless_overhead_experiment(k, 48, mode, trials, 9);
                assert!(
                    outcome.mean_overhead <= bound,
                    "{mode:?} at k = {k}: mean overhead {} above {bound}",
                    outcome.mean_overhead
                );
                assert_eq!(outcome.min_distinctness, 1.0, "{mode:?} at k = {k}");
            }
        }
    }

    #[test]
    fn late_joiners_pay_duplicates_on_the_carousel_but_not_the_fountain() {
        // 98 % loss forces the carousel receiver across many cycles —
        // reception approaches sampling with replacement and η_d lands on
        // the 1 − 1/e ≈ 0.632 floor (measured: ≈ 0.63 at this operating
        // point).  The fountain's seeds are fresh by construction at any
        // join time.
        let outcome = late_join_experiment(50_000, 500, 3, 0.98, 21);
        assert!(outcome.carousel.completed, "carousel: {outcome:?}");
        assert!(outcome.rateless.completed, "rateless: {outcome:?}");
        assert_eq!(
            outcome.rateless.distinctness_efficiency(),
            1.0,
            "rateless η_d must be exactly 1.0: {outcome:?}"
        );
        let carousel_eta_d = outcome.carousel.distinctness_efficiency();
        assert!(
            carousel_eta_d < 0.70 && carousel_eta_d > 0.5,
            "carousel late joiner must decay toward the ≈ 0.64 floor: {outcome:?}"
        );
        assert!(
            outcome.rateless.received < outcome.carousel.received,
            "freshness must translate into fewer packets needed: {outcome:?}"
        );
    }
}

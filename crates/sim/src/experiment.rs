//! Experiment drivers that regenerate the paper's simulation results:
//! Table 4 (speedup of Tornado over comparable-efficiency interleaved codes),
//! Figure 4 (efficiency vs. number of receivers), Figure 5 (efficiency vs.
//! file size) and Figure 6 (efficiency on trace data).
//!
//! Every driver returns plain data rows so the `df-bench` harness can print
//! them in the paper's format and EXPERIMENTS.md can record them; nothing here
//! prints directly.

use crate::interleaved::InterleavedCode;
use crate::loss::BernoulliLoss;
use crate::receiver::{
    simulate_interleaved_receiver, simulate_tornado_receiver, ReceiverOutcome, TraceReplay,
};
use crate::trace::TraceSet;
use df_core::{TornadoCode, TornadoProfile, TORNADO_A};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Which transmission scheme a simulated receiver population uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Tornado-encoded carousel with the given profile.
    Tornado(TornadoProfile),
    /// Interleaved Reed–Solomon carousel with the given block size.
    Interleaved {
        /// Source packets per block (the paper uses 20 and 50).
        block_source: usize,
    },
}

impl Scheme {
    /// Short label used in tables and plots.
    pub fn label(&self) -> String {
        match self {
            Scheme::Tornado(p) => p.name.to_string(),
            Scheme::Interleaved { block_source } => format!("interleaved k={block_source}"),
        }
    }
}

/// One point of an efficiency curve.
#[derive(Debug, Clone)]
pub struct EfficiencyPoint {
    /// Scheme label.
    pub scheme: String,
    /// X coordinate: number of receivers (Figure 4) or file size in KB
    /// (Figures 5 and 6).
    pub x: f64,
    /// Average reception efficiency over all receivers and trials.
    pub avg_efficiency: f64,
    /// Worst-case (minimum) reception efficiency over all receivers.
    pub min_efficiency: f64,
}

fn k_for_file_kb(file_kb: usize, packet_kb: usize) -> usize {
    (file_kb / packet_kb).max(1)
}

fn run_population<R: Rng + ?Sized>(
    scheme: &Scheme,
    k: usize,
    p_loss: f64,
    receivers: usize,
    rng: &mut R,
) -> Vec<ReceiverOutcome> {
    match scheme {
        Scheme::Tornado(profile) => {
            let code = TornadoCode::with_profile(k, *profile, 0xf0a5u64).expect("valid k");
            (0..receivers)
                .map(|_| {
                    let mut loss = BernoulliLoss::new(p_loss);
                    simulate_tornado_receiver(&code, &mut loss, rng)
                })
                .collect()
        }
        Scheme::Interleaved { block_source } => {
            let code = InterleavedCode::new(k, *block_source, 2.0).expect("valid parameters");
            (0..receivers)
                .map(|_| {
                    let mut loss = BernoulliLoss::new(p_loss);
                    simulate_interleaved_receiver(&code, &mut loss, rng)
                })
                .collect()
        }
    }
}

/// Figure 4: average and worst-case reception efficiency as the receiver
/// population grows, for a fixed file size and loss probability.
///
/// `trials` independent experiments are averaged for every population size
/// (the paper uses 100; the bench harness uses fewer for the largest
/// populations to keep runtimes reasonable and documents it).
pub fn receiver_scaling_experiment(
    file_kb: usize,
    packet_kb: usize,
    p_loss: f64,
    receiver_counts: &[usize],
    schemes: &[Scheme],
    trials: usize,
    seed: u64,
) -> Vec<EfficiencyPoint> {
    let k = k_for_file_kb(file_kb, packet_kb);
    let mut out = Vec::new();
    for scheme in schemes {
        for &receivers in receiver_counts {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ receivers as u64);
            let mut sum = 0.0;
            let mut count = 0usize;
            let mut worst = f64::INFINITY;
            for _ in 0..trials.max(1) {
                for o in run_population(scheme, k, p_loss, receivers, &mut rng) {
                    let eta = o.reception_efficiency();
                    sum += eta;
                    count += 1;
                    worst = worst.min(eta);
                }
            }
            out.push(EfficiencyPoint {
                scheme: scheme.label(),
                x: receivers as f64,
                avg_efficiency: sum / count as f64,
                min_efficiency: worst,
            });
        }
    }
    out
}

/// Figure 5: average and worst-case reception efficiency as the file size
/// grows, for a fixed receiver population and loss probability.
pub fn file_size_experiment(
    file_kbs: &[usize],
    packet_kb: usize,
    p_loss: f64,
    receivers: usize,
    schemes: &[Scheme],
    seed: u64,
) -> Vec<EfficiencyPoint> {
    let mut out = Vec::new();
    for scheme in schemes {
        for &file_kb in file_kbs {
            let k = k_for_file_kb(file_kb, packet_kb);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ file_kb as u64);
            let outcomes = run_population(scheme, k, p_loss, receivers, &mut rng);
            let sum: f64 = outcomes.iter().map(|o| o.reception_efficiency()).sum();
            let worst = outcomes
                .iter()
                .map(|o| o.reception_efficiency())
                .fold(f64::INFINITY, f64::min);
            out.push(EfficiencyPoint {
                scheme: scheme.label(),
                x: file_kb as f64,
                avg_efficiency: sum / outcomes.len() as f64,
                min_efficiency: worst,
            });
        }
    }
    out
}

/// Figure 6: average reception efficiency on (synthetic) MBone-like traces as
/// the file size grows.
pub fn trace_experiment(
    file_kbs: &[usize],
    packet_kb: usize,
    traces: &TraceSet,
    schemes: &[Scheme],
    seed: u64,
) -> Vec<EfficiencyPoint> {
    let mut out = Vec::new();
    for scheme in schemes {
        for &file_kb in file_kbs {
            let k = k_for_file_kb(file_kb, packet_kb);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ file_kb as u64);
            let mut sum = 0.0;
            let mut worst = f64::INFINITY;
            let mut count = 0usize;
            match scheme {
                Scheme::Tornado(profile) => {
                    let code = TornadoCode::with_profile(k, *profile, 0xf0a5u64).expect("valid k");
                    for trace in traces.traces() {
                        let offset = rng.gen_range(0..trace.len().max(1));
                        let mut loss = TraceReplay::new(trace, offset);
                        let o = simulate_tornado_receiver(&code, &mut loss, &mut rng);
                        sum += o.reception_efficiency();
                        worst = worst.min(o.reception_efficiency());
                        count += 1;
                    }
                }
                Scheme::Interleaved { block_source } => {
                    let code =
                        InterleavedCode::new(k, *block_source, 2.0).expect("valid parameters");
                    for trace in traces.traces() {
                        let offset = rng.gen_range(0..trace.len().max(1));
                        let mut loss = TraceReplay::new(trace, offset);
                        let o = simulate_interleaved_receiver(&code, &mut loss, &mut rng);
                        sum += o.reception_efficiency();
                        worst = worst.min(o.reception_efficiency());
                        count += 1;
                    }
                }
            }
            out.push(EfficiencyPoint {
                scheme: scheme.label(),
                x: file_kb as f64,
                avg_efficiency: sum / count as f64,
                min_efficiency: worst,
            });
        }
    }
    out
}

/// One row of Table 4: the decoding-time speedup of Tornado A over an
/// interleaved code whose reception overhead guarantee matches Tornado A's.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// File size in KB.
    pub file_kb: usize,
    /// Loss probability.
    pub p_loss: f64,
    /// Largest block count (smallest block size) for which the interleaved
    /// code still keeps the overhead guarantee.
    pub interleaved_blocks: usize,
    /// Block size (source packets) chosen for the interleaved code.
    pub interleaved_block_source: usize,
    /// Estimated interleaved decode time in seconds.
    pub interleaved_decode_s: f64,
    /// Measured Tornado decode time in seconds.
    pub tornado_decode_s: f64,
    /// Speedup factor (interleaved / Tornado).
    pub speedup: f64,
}

/// Table 4 methodology (Section 6.1): for each file size and loss rate, find
/// the smallest interleaved block size whose reception overhead stays below
/// `max_overhead` in at least `1 − failure_rate` of trials, estimate its
/// decode time from `per_block_decode_s(k)`, and compare with the measured
/// Tornado decode time `tornado_decode_s`.
#[allow(clippy::too_many_arguments)]
pub fn speedup_table(
    file_kb: usize,
    packet_kb: usize,
    p_loss: f64,
    max_overhead: f64,
    failure_rate: f64,
    trials: usize,
    per_block_decode_s: &dyn Fn(usize) -> f64,
    tornado_decode_s: f64,
    seed: u64,
) -> SpeedupRow {
    let total_k = k_for_file_kb(file_kb, packet_kb);
    // Candidate block sizes from large (few blocks) to small; the largest
    // admissible block count wins.  Block sizes are capped at 128 so the
    // per-block code stays within GF(2^8), as in the referenced
    // implementations.
    let mut best: Option<(usize, usize)> = None; // (blocks, block_source)
    let mut block_source = total_k.min(128);
    while block_source >= 4 {
        let code = InterleavedCode::new(total_k, block_source, 2.0).expect("valid parameters");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ block_source as u64);
        let mut failures = 0usize;
        for _ in 0..trials {
            let mut loss = BernoulliLoss::new(p_loss);
            let o = simulate_interleaved_receiver(&code, &mut loss, &mut rng);
            if o.reception_overhead() > max_overhead {
                failures += 1;
            }
        }
        let ok = (failures as f64) / (trials as f64) <= failure_rate;
        if ok {
            best = Some((code.num_blocks(), block_source));
            // Smaller blocks decode faster per block; keep shrinking while the
            // overhead guarantee holds.
            block_source /= 2;
        } else {
            break;
        }
    }
    let (blocks, block_source) = best.unwrap_or((1, total_k.min(128)));
    let interleaved_decode_s = blocks as f64 * per_block_decode_s(block_source);
    SpeedupRow {
        file_kb,
        p_loss,
        interleaved_blocks: blocks,
        interleaved_block_source: block_source,
        interleaved_decode_s,
        tornado_decode_s,
        speedup: if tornado_decode_s > 0.0 {
            interleaved_decode_s / tornado_decode_s
        } else {
            f64::INFINITY
        },
    }
}

/// The default scheme set used by Figures 4–6: Tornado A against interleaved
/// codes with block sizes 20 and 50.
pub fn default_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Tornado(TORNADO_A),
        Scheme::Interleaved { block_source: 50 },
        Scheme::Interleaved { block_source: 20 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_experiment_shows_tornado_winning_at_high_loss() {
        let points = receiver_scaling_experiment(250, 1, 0.5, &[1, 20], &default_schemes(), 2, 42);
        assert_eq!(points.len(), 6);
        let eta = |scheme: &str, x: f64| {
            points
                .iter()
                .find(|p| p.scheme == scheme && p.x == x)
                .map(|p| p.avg_efficiency)
                .unwrap()
        };
        assert!(eta("tornado-a", 20.0) > eta("interleaved k=20", 20.0));
        // Worst case can never beat the average.
        for p in &points {
            assert!(p.min_efficiency <= p.avg_efficiency + 1e-12);
        }
    }

    #[test]
    fn file_size_experiment_interleaved_degrades_with_size() {
        let schemes = vec![Scheme::Interleaved { block_source: 20 }];
        let points = file_size_experiment(&[100, 1000], 1, 0.5, 10, &schemes, 7);
        assert_eq!(points.len(), 2);
        // The coupon-collector effect: more blocks (larger file) means lower
        // efficiency at the same loss rate.
        assert!(points[0].avg_efficiency > points[1].avg_efficiency);
    }

    #[test]
    fn trace_experiment_produces_a_point_per_size_and_scheme() {
        let traces = TraceSet::synthetic(8, 5_000, 0.18, 1);
        let schemes = default_schemes();
        let points = trace_experiment(&[100, 250], 1, &traces, &schemes, 3);
        assert_eq!(points.len(), schemes.len() * 2);
        for p in &points {
            assert!(p.avg_efficiency > 0.0 && p.avg_efficiency <= 1.0);
        }
    }

    #[test]
    fn speedup_table_prefers_small_blocks_at_low_loss() {
        let row = speedup_table(
            250,
            1,
            0.01,
            0.2,
            0.01,
            20,
            &|k| (k * k) as f64 / 31_250.0,
            0.01,
            9,
        );
        assert!(row.interleaved_blocks >= 1);
        assert!(row.speedup > 0.0);
        // At 1 % loss an interleaved code can afford small blocks, so the
        // block size must have shrunk below the cap.
        assert!(row.interleaved_block_source < 128);
    }
}

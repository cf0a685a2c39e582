//! Shared helpers for the reproduction harness: timing utilities and the
//! experiment-row formatting used by the `repro` binary and the Criterion
//! benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use df_core::{TornadoCode, TornadoProfile};
use df_rs::{CauchyCode, ErasureCode, VandermondeCode};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Generate a pseudo-random "file" split into `k` packets of `packet_size`
/// bytes, as the paper's benchmarks do (1 KB packets).
pub fn random_packets(k: usize, packet_size: usize, seed: u64) -> Vec<Vec<u8>> {
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

/// Measure the Vandermonde code decoding **repeatedly behind one erasure
/// pattern**: the first decode pays the `O(k³)` inversion of the received
/// submatrix (and populates the per-pattern inverse cache), the timed second
/// decode reuses it — the steady state of a receiver decoding a carousel
/// behind a stable loss process.
///
/// Encode time is measured as in [`measure_vandermonde`].
pub fn measure_vandermonde_repeated(k: usize, packet_size: usize) -> CodingTimes {
    let source = random_packets(k, packet_size, 0x7a);
    let code = VandermondeCode::new_large(k, 2 * k).expect("parameters");
    let t0 = Instant::now();
    let encoding = code.encode(&source).expect("encode");
    let encode_s = t0.elapsed().as_secs_f64();
    let rx = half_and_half(2 * k, k, &encoding);
    let refs: Vec<(usize, &[u8])> = rx.iter().map(|(i, p)| (*i, p.as_slice())).collect();
    let mut out = Vec::new();
    code.decode_into(&refs, &mut out).expect("warm-up decode");
    let t0 = Instant::now();
    code.decode_into(&refs, &mut out).expect("repeat decode");
    let decode_s = t0.elapsed().as_secs_f64();
    assert_eq!(out, source);
    CodingTimes { encode_s, decode_s }
}

/// Measure the prototype protocol end-to-end: server-side session setup
/// (packetise + build code + encode) as the encode time, and the client-side
/// path — datagrams pumped through `SimMulticast` into
/// `ClientSession::handle_datagram` until the file reconstructs — as the
/// decode time.  Unlike the raw codec rows this includes packet framing,
/// validation and reception accounting, so it tracks protocol overhead on
/// top of `measure_tornado`.
pub fn measure_proto_throughput(k: usize, packet_size: usize) -> CodingTimes {
    use df_proto::{ClientEvent, ClientSession, ServerSession, SessionConfig, Transport};

    let data: Vec<u8> = random_packets(k, packet_size, 0x9707).concat();
    let t0 = Instant::now();
    let mut server = ServerSession::new(
        &data,
        SessionConfig {
            packet_size,
            code_seed: 0x5eed,
            ..SessionConfig::default()
        },
    )
    .expect("session encodes");
    let encode_s = t0.elapsed().as_secs_f64();

    let net = df_proto::SimMulticast::new(1);
    let mut tx = net.endpoint(0.0);
    let mut rx = net.endpoint(0.0);
    let mut client = ClientSession::new(server.control_info().clone()).expect("control info");
    for group in client.groups().collect::<Vec<_>>() {
        rx.join(group).expect("sim join");
    }
    let t0 = Instant::now();
    'outer: loop {
        server.send_round(&mut tx);
        while let Some((_group, datagram)) = rx.recv() {
            if client.handle_datagram(datagram) == ClientEvent::Complete {
                break 'outer;
            }
        }
    }
    let decode_s = t0.elapsed().as_secs_f64();
    assert_eq!(client.file().expect("complete"), &data[..]);
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

/// One code's end-to-end throughput measurement for the machine-readable
/// benchmark report.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Code name ("tornado_a", "tornado_b", "cauchy", "vandermonde",
    /// "vandermonde_repeat", "proto_throughput").
    pub code: &'static str,
    /// Measured wall-clock times.
    pub times: CodingTimes,
    /// Encode throughput in MB/s of source data.
    pub encode_mbps: f64,
    /// Decode throughput in MB/s of source data (decode time includes the
    /// reception-overhead work for Tornado codes, as a real receiver pays it).
    pub decode_mbps: f64,
}

/// Element-wise best (minimum time) of `n` runs of a measurement.
///
/// The report's numbers gate CI (`perf_gate`), so single-shot wall-clock
/// timings are too fragile: a noisy-neighbour scheduler stall during one
/// 2 ms decode would read as a "regression".  The best of a few runs
/// measures what the code *can* do, which is the quantity whose decay a
/// perf gate is meant to catch.
fn best_of(n: usize, mut measure: impl FnMut() -> CodingTimes) -> CodingTimes {
    let mut best = measure();
    for _ in 1..n {
        let t = measure();
        best.encode_s = best.encode_s.min(t.encode_s);
        best.decode_s = best.decode_s.min(t.decode_s);
    }
    best
}

/// Measure all four codes of Tables 2/3 at one operating point — plus the
/// repeated-pattern Vandermonde decode, which isolates the per-pattern
/// inverse cache from the one-off `O(k³)` inversion, and the prototype
/// protocol's client-side throughput over `SimMulticast` — and return the
/// rows of the machine-readable report.  Every row is the best of three
/// runs (see `best_of` above) except the full Vandermonde decode, whose
/// multi-second `O(k³)` inversion is both stable and too slow to triple.
pub fn measure_all_codes(k: usize, packet_size: usize) -> Vec<ThroughputRow> {
    let file_mb = (k * packet_size) as f64 / 1e6;
    let row = |code: &'static str, times: CodingTimes| ThroughputRow {
        code,
        times,
        encode_mbps: file_mb / times.encode_s,
        decode_mbps: file_mb / times.decode_s,
    };
    vec![
        row(
            "tornado_a",
            best_of(3, || measure_tornado(df_core::TORNADO_A, k, packet_size)),
        ),
        row(
            "tornado_b",
            best_of(3, || measure_tornado(df_core::TORNADO_B, k, packet_size)),
        ),
        row("cauchy", best_of(3, || measure_cauchy(k, packet_size))),
        row("vandermonde", measure_vandermonde(k, packet_size)),
        row(
            "vandermonde_repeat",
            best_of(3, || measure_vandermonde_repeated(k, packet_size)),
        ),
        row(
            "proto_throughput",
            best_of(3, || measure_proto_throughput(k, packet_size)),
        ),
    ]
}

/// The driver-scale operating point of the benchmark report: 128 concurrent
/// client sessions (plus the server) each downloading a 500 KB file over
/// `SimMulticast` through the sharded `df_proto::Driver` — aggregate goodput
/// and completed sessions per second for the readiness-driven driver.  A
/// quarter of the population sits behind 20 % loss, so the carousel must
/// serve a lossy tail while the bulk completes early, as in a real
/// deployment.  Best of three runs, like the code rows.
pub fn measure_driver_throughput() -> df_sim::SwarmOutcome {
    measure_driver_shards(1)
}

/// One point of the shard sweep: the `measure_driver_throughput` workload
/// partitioned across `shards` worker threads (best of three runs).
pub fn measure_driver_shards(shards: usize) -> df_sim::SwarmOutcome {
    let run_once = || df_sim::swarm_experiment(500_000, 1024, 128, 0xd21f, 4_000, shards);
    let mut best = run_once();
    for _ in 1..3 {
        let run = run_once();
        if run.elapsed < best.elapsed {
            best = run;
        }
    }
    best
}

/// The multi-core shard sweep of the benchmark report: the driver workload
/// at 1, 2 and 4 worker shards.  On a machine with ≥ 4 cores the 4-shard
/// aggregate should reach ≥ 1.8× the 1-shard row (`perf_gate` asserts this
/// when the recorded `parallelism` permits); on smaller machines the sweep
/// is still recorded so the trajectory is visible.
pub fn measure_driver_shard_sweep() -> Vec<df_sim::SwarmOutcome> {
    [1, 2, 4]
        .iter()
        .map(|&s| measure_driver_shards(s))
        .collect()
}

/// The layered congestion-control operating point of the benchmark report:
/// a heterogeneous 1×/3×/7× bottleneck population on a 6-layer carousel
/// with an SP every 2 rounds — the `repro layered` experiment in miniature.
pub fn measure_layered_efficiency() -> Vec<df_sim::LayeredOutcome> {
    df_sim::layered_population_experiment(500_000, 6, 2, 1, &[1.0, 3.0, 7.0], 42, 400)
}

/// The rateless operating point of the benchmark report: LT and Raptor
/// sessions at the `k = 1000` acceptance point, streamed to completion over
/// a clean channel through the real seed-carrying wire format.  The rows
/// record reception overhead (`received/k` — the fountain's only cost, since
/// `η_d = 1.0` by construction), not throughput, so `perf_gate` never gates
/// them.
pub fn measure_rateless_overhead() -> Vec<df_sim::RatelessOverheadOutcome> {
    vec![
        df_sim::rateless_overhead_experiment(1000, 64, df_proto::RatelessMode::Lt, 20, 0xf0c5),
        df_sim::rateless_overhead_experiment(1000, 64, df_proto::RatelessMode::Raptor, 20, 0xf0c5),
    ]
}

/// End-to-end rateless session throughput at the report's main operating
/// point, one row per mode: `encode_s` is session construction (for Raptor,
/// the Tornado precode of all `k` packets), `decode_s` the client-side
/// stream-to-completion.  Mirrors `measure_proto_throughput` for the
/// carousel, so the carousel-vs-fountain cost of Section 7 is one report
/// away.
pub fn measure_rateless_throughput(k: usize, packet_size: usize) -> Vec<ThroughputRow> {
    use df_proto::{ClientEvent, ClientSession, RatelessMode, ServerSession, SessionConfig};

    let measure = |mode: RatelessMode| -> CodingTimes {
        let data: Vec<u8> = random_packets(k, packet_size, 0x2a7e).concat();
        let t0 = Instant::now();
        let mut server = ServerSession::new(
            &data,
            SessionConfig {
                packet_size,
                rateless: mode,
                code_seed: 0x5eed,
                ..SessionConfig::default()
            },
        )
        .expect("rateless session encodes");
        let encode_s = t0.elapsed().as_secs_f64();

        let mut client = ClientSession::new(server.control_info().clone()).expect("control info");
        let t0 = Instant::now();
        'outer: loop {
            while let Some((_group, dgram)) = server.poll_transmit() {
                if client.handle_datagram(dgram) == ClientEvent::Complete {
                    break 'outer;
                }
            }
            server.advance_round();
        }
        let decode_s = t0.elapsed().as_secs_f64();
        assert_eq!(client.file().expect("complete"), &data[..]);
        CodingTimes { encode_s, decode_s }
    };
    let file_mb = (k * packet_size) as f64 / 1e6;
    let row = |code: &'static str, times: CodingTimes| ThroughputRow {
        code,
        times,
        encode_mbps: file_mb / times.encode_s,
        decode_mbps: file_mb / times.decode_s,
    };
    vec![
        row("lt", best_of(3, || measure(RatelessMode::Lt))),
        row("raptor", best_of(3, || measure(RatelessMode::Raptor))),
    ]
}

/// The hostile-channel robustness point of the benchmark report: the
/// Gilbert–Elliott sweep (bursty loss up to a 50 % bad state, plus
/// reordering, duplication and jitter) through the real client stack.  The
/// rows record behaviour — completion, join/leave counts against burst
/// episodes, reception efficiency — not throughput, so `perf_gate` reports
/// them without gating.
pub fn measure_hostile_channel() -> Vec<df_sim::HostileOutcome> {
    df_sim::hostile_sweep(&[0.2, 0.5], &[4.0, 16.0], 0x6e11)
}

/// Render the machine-readable benchmark report (`BENCH_pr<N>.json`) that
/// tracks the repo's performance trajectory across PRs.
///
/// The JSON is assembled by hand — the schema is five keys deep and stable,
/// and keeping df-bench serializer-free keeps the bench dependency graph
/// minimal.
pub fn bench_json_report(pr: u32, k: usize, packet_size: usize) -> String {
    let rows = measure_all_codes(k, packet_size);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"pr\": {pr},\n"));
    out.push_str(&format!("  \"operating_point\": {{\"k\": {k}, \"packet_bytes\": {packet_size}, \"file_kb\": {}}},\n", k * packet_size / 1000));
    out.push_str(&format!(
        "  \"gf8_kernel\": \"{}\",\n",
        df_gf::kernels::active_kernel()
    ));
    out.push_str(&format!(
        "  \"gf16_kernel\": \"{}\",\n",
        df_gf::kernels::gf16::active_kernel()
    ));
    out.push_str("  \"codes\": {\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"encode_s\": {:.6}, \"decode_s\": {:.6}, \"encode_mbps\": {:.2}, \"decode_mbps\": {:.2}}}{}\n",
            r.code,
            r.times.encode_s,
            r.times.decode_s,
            r.encode_mbps,
            r.decode_mbps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    // The readiness-driven sharded driver: aggregate goodput and session
    // completion rate for 100+ concurrent downloads, swept across 1/2/4
    // worker shards.  The top-level fields keep the legacy 1-shard shape so
    // older baselines still gate the row; `shard_sweep` carries the
    // multi-core points and `parallelism` records how many cores the sweep
    // actually had (perf_gate only asserts scaling when it is ≥ 4).
    let sweep = measure_driver_shard_sweep();
    let swarm = &sweep[0];
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    out.push_str(&format!(
        "  \"driver_throughput\": {{\"clients\": {}, \"completed\": {}, \"file_kb\": {}, \"steps\": {}, \"aggregate_mbps\": {:.2}, \"sessions_per_s\": {:.2}, \"parallelism\": {}, \"shard_sweep\": [\n",
        swarm.clients,
        swarm.completed,
        swarm.file_len / 1000,
        swarm.steps,
        swarm.aggregate_mbps(),
        swarm.sessions_per_second(),
        parallelism,
    ));
    for (i, run) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"completed\": {}, \"steps\": {}, \"aggregate_mbps\": {:.2}, \"sessions_per_s\": {:.2}}}{}\n",
            run.shards,
            run.completed,
            run.steps,
            run.aggregate_mbps(),
            run.sessions_per_second(),
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]},\n");
    // Receiver-driven congestion control: convergence level, completion
    // rounds and reception efficiency per bottleneck (Section 7.1 / the
    // Figure 7 scenario over the real protocol stack).
    let layered = measure_layered_efficiency();
    out.push_str("  \"layered_efficiency\": [\n");
    for (i, r) in layered.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bottleneck\": {:.1}, \"complete\": {}, \"final_level\": {}, \"rounds\": {}, \"reception_efficiency\": {:.4}, \"distinctness_efficiency\": {:.4}}}{}\n",
            r.bottleneck,
            r.complete,
            r.final_level,
            r.rounds,
            r.reception_efficiency(),
            r.distinctness_efficiency(),
            if i + 1 < layered.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // True rateless mode: session throughput per mode (gated once a
    // baseline carries the rows; against older baselines perf_gate reports
    // them un-gated) and the k = 1000 reception-overhead acceptance rows.
    let rateless = measure_rateless_throughput(k, packet_size);
    out.push_str("  \"rateless_throughput\": {\n");
    for (i, r) in rateless.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"encode_s\": {:.6}, \"decode_s\": {:.6}, \"encode_mbps\": {:.2}, \"decode_mbps\": {:.2}}}{}\n",
            r.code,
            r.times.encode_s,
            r.times.decode_s,
            r.encode_mbps,
            r.decode_mbps,
            if i + 1 < rateless.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    let overhead = measure_rateless_overhead();
    out.push_str("  \"rateless_overhead\": [\n");
    for (i, r) in overhead.iter().enumerate() {
        let mode = match r.mode {
            df_proto::RatelessMode::Lt => "lt",
            df_proto::RatelessMode::Raptor => "raptor",
            df_proto::RatelessMode::Off => "off",
        };
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"k\": {}, \"trials\": {}, \"mean_overhead\": {:.4}, \"worst_overhead\": {:.4}, \"within_1_15\": {}, \"min_distinctness\": {:.4}}}{}\n",
            mode,
            r.k,
            r.trials,
            r.mean_overhead,
            r.worst_overhead,
            r.within_115,
            r.min_distinctness,
            if i + 1 < overhead.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // Robustness under hostile channels: Gilbert–Elliott bursty loss with
    // reordering and duplication through the adaptive layered receiver.
    // Behavioural rows (reported, not gated — see `measure_hostile_channel`).
    let hostile = measure_hostile_channel();
    out.push_str("  \"hostile_channel\": [\n");
    for (i, r) in hostile.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"loss_bad\": {:.2}, \"burst_len\": {:.1}, \"complete\": {}, \"rounds\": {}, \"joins\": {}, \"leaves\": {}, \"burst_episodes\": {}, \"rejected\": {}, \"reception_efficiency\": {:.4}}}{}\n",
            r.loss_bad,
            r.burst_len,
            r.complete,
            r.rounds,
            r.joins(),
            r.leaves(),
            r.burst_episodes,
            r.rejected,
            r.reception_efficiency(),
            if i + 1 < hostile.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
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
    fn proto_measurement_roundtrips() {
        let t = measure_proto_throughput(64, 128);
        assert!(t.encode_s > 0.0 && t.decode_s > 0.0);
    }

    #[test]
    fn rs_measurements_roundtrip() {
        let c = measure_cauchy(64, 64);
        let v = measure_vandermonde(64, 64);
        let vr = measure_vandermonde_repeated(64, 64);
        assert!(c.encode_s > 0.0 && v.encode_s > 0.0);
        assert!(vr.decode_s > 0.0);
        assert!(measure_cauchy_block_decode(20, 64) > 0.0);
    }

    #[test]
    fn seconds_formatting() {
        assert!(fmt_seconds(0.0000005).contains("µs"));
        assert!(fmt_seconds(0.5).contains("0.500"));
        assert!(fmt_seconds(12.3).starts_with("12.30"));
    }
}

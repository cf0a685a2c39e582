//! Regenerate every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p df-bench --bin repro -- <experiment> [--full]
//! ```
//!
//! where `<experiment>` is one of `table1`, `table2`, `table3`, `table4`,
//! `table5`, `figure2`, `figure4`, `figure5`, `figure6`, `figure7`,
//! `figure8`, `layered`, `hostile`, `rateless`, or `all` (any other name
//! exits 2 with the list on stderr).  The `layered` experiment runs the
//! Figure 7-style heterogeneous-bottleneck population through the real
//! `df-proto` layered sessions (receiver-driven join/leave over
//! `SimMulticast`), and `figure8` runs both of its halves through the same
//! driver; `hostile` sweeps Gilbert–Elliott bursty-loss parameters
//! (plus reordering and duplication) through the adaptive receiver and
//! reports completion, join/leave stability and reception efficiency.
//! By default the harness runs *scaled-down* parameter sets (smaller maximum
//! file sizes and fewer trials) so that `all` completes in a few minutes;
//! pass `--full` for the paper's full sizes and trial counts (hours for the
//! Reed–Solomon columns, exactly as the paper's own 30 000-second entries
//! suggest).  EXPERIMENTS.md records a paper-vs-measured comparison for every
//! experiment.

use df_bench::{
    fmt_seconds, measure_cauchy, measure_cauchy_block_decode, measure_tornado, measure_vandermonde,
};
use df_core::{OverheadStats, TornadoCode, TORNADO_A, TORNADO_B};
use df_mcast::TransmissionSchedule;
use df_sim::experiment::{default_schemes, Scheme};
use df_sim::{
    file_size_experiment, receiver_scaling_experiment, speedup_table, trace_experiment, TraceSet,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const PACKET_KB: usize = 1;

struct Config {
    full: bool,
}

impl Config {
    /// File sizes (KB) used by the coding-time tables.
    fn table_sizes(&self) -> Vec<usize> {
        if self.full {
            vec![250, 500, 1024, 2048, 4096, 8192, 16_384]
        } else {
            vec![250, 500, 1024, 2048]
        }
    }

    /// Largest size (KB) for which the Vandermonde baseline is run; the paper
    /// itself lists "not available" above 2 MB.
    fn vandermonde_limit(&self) -> usize {
        if self.full {
            2048
        } else {
            500
        }
    }

    fn figure2_trials(&self) -> usize {
        if self.full {
            10_000
        } else {
            400
        }
    }

    fn figure2_k(&self) -> usize {
        if self.full {
            16_384
        } else {
            2_048
        }
    }

    fn figure4_receivers(&self) -> Vec<usize> {
        if self.full {
            vec![1, 10, 100, 1_000, 10_000]
        } else {
            vec![1, 10, 100, 1_000]
        }
    }

    fn figure4_trials(&self) -> usize {
        if self.full {
            20
        } else {
            3
        }
    }

    fn figure5_sizes(&self) -> Vec<usize> {
        if self.full {
            vec![100, 250, 500, 1_024, 2_048, 4_096, 8_192, 16_384]
        } else {
            vec![100, 250, 500, 1_024, 2_048]
        }
    }

    fn figure5_receivers(&self) -> usize {
        if self.full {
            500
        } else {
            60
        }
    }

    fn figure6_receivers(&self) -> usize {
        if self.full {
            120
        } else {
            40
        }
    }

    fn figure8_points(&self) -> usize {
        if self.full {
            12
        } else {
            6
        }
    }
}

fn table1() {
    println!("== Table 1: Properties of Tornado vs Reed-Solomon codes ==");
    println!("{:<22} {:<28} {:<28}", "", "Tornado", "Reed-Solomon");
    println!(
        "{:<22} {:<28} {:<28}",
        "Reception overhead", "> 0 required (measured below)", "0"
    );
    println!(
        "{:<22} {:<28} {:<28}",
        "Encoding time", "(k+l) ln(1/eps) P  [XOR]", "k (1+l) P  [field ops]"
    );
    println!(
        "{:<22} {:<28} {:<28}",
        "Decoding time", "(k+l) ln(1/eps) P  [XOR]", "k (1+x) P  [field ops]"
    );
    println!(
        "{:<22} {:<28} {:<28}",
        "Basic operation", "simple XOR", "field operations"
    );
    // Back the qualitative rows with the measured average XOR cost per packet.
    for (name, profile) in [("Tornado A", TORNADO_A), ("Tornado B", TORNADO_B)] {
        let code = TornadoCode::with_profile(2048, profile, 1).unwrap();
        println!(
            "  {name}: average XORs per packet = {:.2}, stretch factor = {:.1}",
            code.cascade().average_xor_cost(),
            code.stretch_factor()
        );
    }
}

fn coding_tables(cfg: &Config) {
    println!("== Tables 2 and 3: encoding / decoding times (packet size 1 KB, stretch 2) ==");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14} | {:>14} {:>14} {:>14} {:>14}",
        "SIZE",
        "Vand enc",
        "Cauchy enc",
        "TornA enc",
        "TornB enc",
        "Vand dec",
        "Cauchy dec",
        "TornA dec",
        "TornB dec"
    );
    for &size_kb in &cfg.table_sizes() {
        let k = size_kb / PACKET_KB;
        let packet = PACKET_KB * 1024;
        let vand = if size_kb <= cfg.vandermonde_limit() {
            Some(measure_vandermonde(k, packet))
        } else {
            None
        };
        let cauchy = measure_cauchy(k, packet);
        let ta = measure_tornado(TORNADO_A, k, packet);
        let tb = measure_tornado(TORNADO_B, k, packet);
        let size_label = if size_kb >= 1024 {
            format!("{} MB", size_kb / 1024)
        } else {
            format!("{size_kb} KB")
        };
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>14} | {:>14} {:>14} {:>14} {:>14}",
            size_label,
            vand.map(|v| fmt_seconds(v.encode_s))
                .unwrap_or_else(|| "n/a".into()),
            fmt_seconds(cauchy.encode_s),
            fmt_seconds(ta.encode_s),
            fmt_seconds(tb.encode_s),
            vand.map(|v| fmt_seconds(v.decode_s))
                .unwrap_or_else(|| "n/a".into()),
            fmt_seconds(cauchy.decode_s),
            fmt_seconds(ta.decode_s),
            fmt_seconds(tb.decode_s),
        );
    }
}

fn figure2(cfg: &Config) {
    println!(
        "== Figure 2: reception overhead variation ({} trials) ==",
        cfg.figure2_trials()
    );
    for (name, profile) in [("Tornado A", TORNADO_A), ("Tornado B", TORNADO_B)] {
        let code = TornadoCode::with_profile(cfg.figure2_k(), profile, 0xf16).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let stats = OverheadStats::from_samples(
            (0..cfg.figure2_trials())
                .map(|_| code.overhead_trial(&mut rng))
                .collect(),
        );
        println!(
            "{name}: mean {:.4}  std {:.4}  max {:.4}  (paper: A mean 0.0548 max 0.0850, B mean 0.0306 max 0.0550)",
            stats.mean(),
            stats.std_dev(),
            stats.max()
        );
        println!("  percent of clients unfinished vs length overhead:");
        for (x, pct) in stats.unfinished_curve(stats.max() * 1.05, 10) {
            println!("    overhead {:>6.3}  unfinished {:>5.1} %", x, pct);
        }
    }
}

fn table4(cfg: &Config) {
    println!("== Table 4: speedup of Tornado A over interleaved codes of comparable efficiency ==");
    let sizes = cfg.table_sizes();
    let losses = [0.01, 0.05, 0.10, 0.20, 0.50];
    // Per-block decode cost model measured once per block size (k^2-ish).
    let block_times: Vec<(usize, f64)> = [8usize, 16, 32, 64, 128]
        .iter()
        .map(|&b| (b, measure_cauchy_block_decode(b, PACKET_KB * 1024)))
        .collect();
    let per_block = move |k: usize| -> f64 {
        // Interpolate with the quadratic model through the nearest measurement.
        let (bk, bt) = block_times
            .iter()
            .min_by_key(|(b, _)| (*b as i64 - k as i64).abs())
            .copied()
            .unwrap();
        bt * (k as f64 / bk as f64).powi(2)
    };
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "SIZE", "p=0.01", "p=0.05", "p=0.10", "p=0.20", "p=0.50"
    );
    for &size_kb in &sizes {
        let k = size_kb / PACKET_KB;
        let tornado = measure_tornado(TORNADO_A, k, PACKET_KB * 1024);
        let mut row = Vec::new();
        for &p in &losses {
            let r = speedup_table(
                size_kb,
                PACKET_KB,
                p,
                0.15,
                0.01,
                if cfg.full { 200 } else { 40 },
                &per_block,
                tornado.decode_s,
                7,
            );
            row.push(format!("{:.1}", r.speedup));
        }
        let size_label = if size_kb >= 1024 {
            format!("{} MB", size_kb / 1024)
        } else {
            format!("{size_kb} KB")
        };
        println!(
            "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            size_label, row[0], row[1], row[2], row[3], row[4]
        );
    }
    println!("(paper reports speedups of 4.7x to 311x over the same grid)");
}

fn table5() {
    println!(
        "== Table 5 / Figure 7: reverse-binary transmission schedule, 4 layers, 8-packet block =="
    );
    let s = TransmissionSchedule::new(4, 8);
    println!(
        "{:<8} {:<10} packets sent in rounds 1..8",
        "Layer", "Bandwidth"
    );
    for layer in (0..4).rev() {
        let rounds: Vec<String> = (0..8)
            .map(|r| {
                let o = s.offsets_for(layer, r);
                if o.len() == 1 {
                    format!("{}", o[0])
                } else {
                    format!("{}-{}", o.first().unwrap(), o.last().unwrap())
                }
            })
            .collect();
        println!(
            "{:<8} {:<10} {}",
            layer,
            s.layer_bandwidth(layer),
            rounds.join("  ")
        );
    }
}

fn figure4(cfg: &Config) {
    println!("== Figure 4: reception efficiency vs number of receivers (1 MB file) ==");
    for p in [0.1, 0.5] {
        println!("-- loss probability p = {p} --");
        let points = receiver_scaling_experiment(
            1024,
            PACKET_KB,
            p,
            &cfg.figure4_receivers(),
            &default_schemes(),
            cfg.figure4_trials(),
            0xf4,
        );
        println!(
            "{:<20} {:>10} {:>12} {:>12}",
            "scheme", "receivers", "avg eff", "worst eff"
        );
        for pt in points {
            println!(
                "{:<20} {:>10} {:>12.3} {:>12.3}",
                pt.scheme, pt.x as usize, pt.avg_efficiency, pt.min_efficiency
            );
        }
    }
}

fn figure5(cfg: &Config) {
    println!(
        "== Figure 5: reception efficiency vs file size ({} receivers) ==",
        cfg.figure5_receivers()
    );
    for p in [0.1, 0.5] {
        println!("-- loss probability p = {p} --");
        let points = file_size_experiment(
            &cfg.figure5_sizes(),
            PACKET_KB,
            p,
            cfg.figure5_receivers(),
            &default_schemes(),
            0xf5,
        );
        println!(
            "{:<20} {:>12} {:>12} {:>12}",
            "scheme", "file KB", "avg eff", "worst eff"
        );
        for pt in points {
            println!(
                "{:<20} {:>12} {:>12.3} {:>12.3}",
                pt.scheme, pt.x as usize, pt.avg_efficiency, pt.min_efficiency
            );
        }
    }
}

fn figure6(cfg: &Config) {
    println!(
        "== Figure 6: reception efficiency on (synthetic) MBone-like traces ({} receivers, mean loss ~18%) ==",
        cfg.figure6_receivers()
    );
    let traces = TraceSet::synthetic(cfg.figure6_receivers(), 200_000, 0.18, 0xf6);
    println!(
        "generated trace set: mean loss rate {:.3}",
        traces.mean_loss_rate()
    );
    let sizes = cfg.figure5_sizes();
    let schemes = vec![
        Scheme::Tornado(TORNADO_A),
        Scheme::Interleaved { block_source: 50 },
        Scheme::Interleaved { block_source: 20 },
    ];
    let points = trace_experiment(&sizes, PACKET_KB, &traces, &schemes, 0xf6);
    println!("{:<20} {:>12} {:>12}", "scheme", "file KB", "avg eff");
    for pt in points {
        println!(
            "{:<20} {:>12} {:>12.3}",
            pt.scheme, pt.x as usize, pt.avg_efficiency
        );
    }
}

fn figure8(cfg: &Config) {
    println!("== Figure 8: prototype reception efficiencies vs packet loss (2 MiB file, 500 B packets) ==");
    println!("(real ClientSessions over SimMulticast; loss is applied before the bottleneck)");
    // 2 MiB at the default 500-byte packets is k = 4195, about the paper's
    // "slightly over two megabytes" clip.
    const FILE_LEN: usize = 2 << 20;
    const SEED: u64 = 0xf8;
    const ROUNDS: usize = 2_000;
    let points = cfg.figure8_points();
    println!("-- single layer: flat 4-group carousel --");
    println!("{:>8} {:>8} {:>8} {:>8}", "loss %", "eta_d", "eta_c", "eta");
    for i in 0..points {
        let loss = i as f64 * 0.70 / (points - 1) as f64;
        let r = df_sim::layered_population_experiment(
            FILE_LEN,
            4,
            0,
            0,
            &[f64::INFINITY],
            loss,
            SEED,
            ROUNDS,
        )
        .remove(0);
        assert!(r.complete, "single layer at {loss} loss ran out of rounds");
        println!(
            "{:>8.0} {:>8.3} {:>8.3} {:>8.3}",
            loss * 100.0,
            r.distinctness_efficiency(),
            r.coding_efficiency(),
            r.reception_efficiency()
        );
    }
    println!("-- 6 layers, SP every 2 rounds, 1-round burst, 3x bottleneck --");
    println!(
        "{:>14} {:>8} {:>8} {:>8} {:>8}",
        "extra loss %", "eta_d", "eta_c", "eta", "level"
    );
    // The bottleneck sits between levels 1 and 2 and SPs come often relative
    // to the download, so the receiver changes subscription levels during
    // the transfer: the effect Figure 8's multilayer panel is about.
    for i in 0..points {
        let loss = i as f64 * 0.40 / (points - 1) as f64;
        let r =
            df_sim::layered_population_experiment(FILE_LEN, 6, 2, 1, &[3.0], loss, SEED, ROUNDS)
                .remove(0);
        assert!(r.complete, "6 layers at {loss} loss ran out of rounds");
        println!(
            "{:>14.0} {:>8.3} {:>8.3} {:>8.3} {:>8}",
            loss * 100.0,
            r.distinctness_efficiency(),
            r.coding_efficiency(),
            r.reception_efficiency(),
            r.final_level
        );
    }
}

fn layered() {
    println!(
        "== Layered congestion control: heterogeneous bottlenecks over the real protocol stack =="
    );
    println!(
        "(6 layers, SP every 2 rounds, 1-round burst; cumulative level bandwidths 1, 2, 4, 8, 16, 32)"
    );
    println!(
        "{:>12} {:>10} {:>8} {:>8} {:>10} {:>8} {:>8}",
        "bottleneck", "complete", "level", "rounds", "pkts/round", "eta", "eta_d"
    );
    // Bottlenecks of 1×, 3× and 7× the base-layer rate: the Figure 7 scenario.
    let population =
        df_sim::layered_population_experiment(500_000, 6, 2, 1, &[1.0, 3.0, 7.0], 0.0, 42, 400);
    for r in population {
        println!(
            "{:>12.1} {:>10} {:>8} {:>8} {:>10.0} {:>8.3} {:>8.3}",
            r.bottleneck,
            r.complete,
            r.final_level,
            r.rounds,
            r.received as f64 / r.rounds.max(1) as f64,
            r.reception_efficiency(),
            r.distinctness_efficiency()
        );
    }
    println!("(each receiver converges to the highest level its bottleneck sustains;");
    println!(" realized packets/round — and so download time — tracks the subscribed rate)");
}

fn hostile() {
    println!("== Hostile channels: Gilbert–Elliott bursty loss through the adaptive receiver ==");
    println!("(5 layers, SP every 2 rounds; reorder 5%, duplicate 2%, jitter 2 arrivals;");
    println!(" bad-state occupancy 15%, good-state residual loss 0.5%)");
    println!(
        "{:>9} {:>10} {:>9} {:>9} {:>7} {:>6} {:>7} {:>9} {:>9} {:>7}",
        "loss_bad",
        "burst_len",
        "avg_loss",
        "complete",
        "rounds",
        "joins",
        "leaves",
        "episodes",
        "rejected",
        "eta"
    );
    let loss_bads = [0.1, 0.2, 0.3, 0.5];
    let burst_lens = [4.0, 8.0, 16.0];
    for out in df_sim::hostile_sweep(&loss_bads, &burst_lens, 0x6e11) {
        let cfg = df_sim::HostileConfig {
            loss_bad: out.loss_bad,
            burst_len: out.burst_len,
            ..df_sim::HostileConfig::default()
        };
        println!(
            "{:>9.2} {:>10.1} {:>9.3} {:>9} {:>7} {:>6} {:>7} {:>9} {:>9} {:>7.3}",
            out.loss_bad,
            out.burst_len,
            cfg.average_loss(),
            out.complete,
            out.rounds,
            out.joins(),
            out.leaves(),
            out.burst_episodes,
            out.rejected,
            out.reception_efficiency()
        );
    }
    println!("(every receiver completes; leaves stay bounded by the channel's burst episodes,");
    println!(" and a carousel client refuses no packet)");
}

fn rateless() {
    println!("== True rateless mode: LT / Raptor fountains vs the carousel ==");
    println!("(seed-carrying wire serials; every datagram is a fresh symbol, so eta_d = 1.0)");
    println!(
        "{:>8} {:>8} {:>8} {:>10} {:>10} {:>12} {:>8}",
        "mode", "k", "trials", "mean_ovh", "worst_ovh", "within_1.15", "eta_d"
    );
    for k in [100usize, 300, 1000] {
        for mode in [df_proto::RatelessMode::Lt, df_proto::RatelessMode::Raptor] {
            let r = df_sim::rateless_overhead_experiment(k, 64, mode, 20, 0xf0c5);
            println!(
                "{:>8} {:>8} {:>8} {:>10.4} {:>10.4} {:>12} {:>8.3}",
                if mode == df_proto::RatelessMode::Lt {
                    "lt"
                } else {
                    "raptor"
                },
                r.k,
                r.trials,
                r.mean_overhead,
                r.worst_overhead,
                format!("{}/{}", r.within_115, r.trials),
                r.min_distinctness
            );
        }
    }
    println!("(overhead = received/k at completion; both modes decode by inactivation, so it");
    println!(" falls toward 1.00 as k grows, far inside the k = 1000 acceptance point of 1.15)");
    println!();
    println!("-- Late join, 98% loss: the carousel pays duplicates, the fountain does not --");
    println!(
        "{:>10} {:>10} {:>10} {:>8}",
        "stream", "received", "distinct", "eta_d"
    );
    let o = df_sim::late_join_experiment(50_000, 500, 3, 0.98, 21);
    for (name, r) in [("carousel", o.carousel), ("rateless", o.rateless)] {
        println!(
            "{:>10} {:>10} {:>10} {:>8.3}",
            name,
            r.received,
            r.distinct,
            r.distinctness_efficiency()
        );
    }
    println!("(heavy loss walks the carousel receiver across many cycles: reception becomes");
    println!(" sampling with replacement and eta_d decays toward the 1 - 1/e ~ 0.64 floor,");
    println!(" while the rateless stream holds eta_d = 1.0 at any join time)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let cfg = Config { full };
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    // Every name the dispatch below asks about, so that an unknown `what`
    // (which matches none of them, and runs nothing) can be answered with
    // the list itself rather than a copy of it.
    let known = std::cell::RefCell::new(Vec::new());
    let run = |name: &'static str| {
        known.borrow_mut().push(name);
        what == name || what == "all"
    };
    if run("table1") {
        table1();
        println!();
    }
    if run("table2") || run("table3") {
        coding_tables(&cfg);
        println!();
    }
    if run("figure2") {
        figure2(&cfg);
        println!();
    }
    if run("table4") {
        table4(&cfg);
        println!();
    }
    if run("table5") || run("figure7") {
        table5();
        println!();
    }
    if run("figure4") {
        figure4(&cfg);
        println!();
    }
    if run("figure5") {
        figure5(&cfg);
        println!();
    }
    if run("figure6") {
        figure6(&cfg);
        println!();
    }
    if run("figure8") {
        figure8(&cfg);
        println!();
    }
    if run("layered") {
        layered();
        println!();
    }
    if run("hostile") {
        hostile();
        println!();
    }
    if run("rateless") {
        rateless();
        println!();
    }
    if what != "all" && !known.borrow().contains(&what.as_str()) {
        eprintln!(
            "unknown experiment `{what}`; expected one of: {}, all",
            known.borrow().join(", ")
        );
        std::process::exit(2);
    }
}

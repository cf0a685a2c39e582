//! The benchmark of record for the digital-fountain repository.
//!
//! ```text
//! df-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! df-benchmark --all [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One run generates the workload's inputs from the seed, downloads for the
//! given number of seconds (the first iteration discarded as warm-up),
//! verifies every reconstructed file byte for byte, prints every metric by
//! name with its unit, and ends with one JSON line.  `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reruns the workload under the benchmark's
//! own span recorder, writes `benchmark/out/<workload>.trace.json` and
//! reports the per-layer metrics.  See `benchmark/README.md`.

mod adapter;
mod metrics;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;

use metrics::{result_json, END_TO_END, PER_LAYER};
use run::{Budget, Load, Ports};
use spec::Spec;
use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--all" => parsed.all = true,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".to_string());
    }
    Ok(parsed)
}

fn print_metrics(listed: &[(&'static str, f64, &'static str)]) {
    for (name, value, unit) in listed {
        println!("{name:<40} {value:>16.6} {unit}");
    }
}

/// Run one workload in this process and print its result line.
fn run_one(spec: &Spec, args: &Args) -> Result<bool, String> {
    let (gf8, gf16) = adapter::kernel_tiers();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "workload {} seed {} seconds {} trace {} | kernels gf8={gf8} gf16={gf16} | parallelism {threads}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    let files = spec.generate_files(args.seed);
    let load = Load {
        spec,
        files: &files,
        seed: args.seed,
    };
    let (listed, attempted, failed, wrong) = if args.trace {
        let traced =
            run::traced_run(&load, args.seconds).map_err(|e| format!("traced run: {e}"))?;
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}.trace.json", spec.name);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, run::trace_json(spec, args.seed, &traced)))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans written to {path}");
        let attempted = traced.phases.iter().map(run::Phase::attempted).sum();
        let failed = traced.phases.iter().map(run::Phase::failed).sum();
        let wrong: usize = traced.phases.iter().map(run::Phase::wrong_bytes).sum();
        println!(
            "own path: {} traced iterations, {} downloads",
            traced.own().outcomes.len(),
            traced.own().attempted()
        );
        (
            traced.metrics.in_registry_order(&PER_LAYER),
            attempted,
            failed,
            wrong,
        )
    } else {
        let phase = run::run_phase(
            "end_to_end",
            &load,
            spec.path,
            Budget::Seconds(args.seconds),
            false,
            &mut Ports::new(),
        )
        .map_err(|e| format!("run: {e}"))?;
        let (metrics, note) = run::end_to_end(&phase);
        println!(
            "{} iterations; pooled over {} downloads: p50 {:.6} s, p{:.1} {:.6} s",
            phase.outcomes.len(),
            note.samples,
            note.p50,
            note.tail_quantile * 100.0,
            note.tail
        );
        (
            metrics.in_registry_order(&END_TO_END),
            phase.attempted(),
            phase.failed(),
            phase.wrong_bytes(),
        )
    };
    print_metrics(&listed);
    println!("downloads_attempted {attempted}");
    println!("downloads_failed {failed}");
    let correct = wrong == 0;
    if !correct {
        eprintln!("{wrong} downloads reconstructed the wrong bytes");
    }
    println!("{}", result_json(correct, attempted, failed, &listed));
    Ok(correct)
}

/// Run every workload in sequence, each in a fresh child process so that
/// `peak_rss_mb` is per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut correct = true;
    for spec in &spec::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("starting {}: {e}", spec.name))?;
        correct &= status.success();
    }
    Ok(correct)
}

/// glibc hands the top of the heap back to the kernel when enough of it is
/// free, which at the end of an iteration it sometimes is and sometimes is
/// not: the next iteration then faults every page in again or none, and the
/// download windows of one run split into two modes a third apart (35 and
/// 46 ms on a 16 MiB carousel download).  The benchmark pins the allocator to
/// keep its heap, so that every measured iteration runs on warm memory, by
/// starting itself again with glibc's malloc settings in the environment.
/// (Another allocator ignores them.)
fn pin_allocator(argv: &[String]) -> Result<(), String> {
    const TRIM: &str = "MALLOC_TRIM_THRESHOLD_";
    if std::env::var_os(TRIM).is_some() {
        return Ok(());
    }
    use std::os::unix::process::CommandExt;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let error = std::process::Command::new(exe)
        .args(argv)
        .env(TRIM, "4294967296")
        // The largest threshold glibc accepts: whole-file buffers come from
        // the heap and stay there.
        .env("MALLOC_MMAP_THRESHOLD_", "33554432")
        .exec();
    Err(format!("restarting with a pinned allocator: {error}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = pin_allocator(&argv) {
        eprintln!("df-benchmark: {message}");
        return ExitCode::from(2);
    }
    let outcome = parse(&argv).and_then(|args| match &args.workload {
        None => run_all(&args),
        Some(name) => match spec::by_name(name) {
            Some(spec) => run_one(spec, &args),
            None => Err(format!(
                "unknown workload {name}; the workloads are {}",
                spec::WORKLOADS.map(|w| w.name).join(", ")
            )),
        },
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("df-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{by_name, Path};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse(&strings(&[
            "--workload",
            "swarm_small",
            "--seed",
            "18446744073709551615",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("swarm_small"));
        assert_eq!(args.seed, u64::MAX);
        assert_eq!(args.seconds, 20.0);
        assert!(args.trace && !args.all);
        assert!(parse(&strings(&["--all"])).unwrap().all);
        assert!(parse(&strings(&[])).is_err());
        assert!(parse(&strings(&["--all", "--workload", "x"])).is_err());
        assert!(parse(&strings(&["--all", "--trace", "2"])).is_err());
        assert!(parse(&strings(&["--all", "--seconds", "0"])).is_err());
        assert!(parse(&strings(&["--all", "--bogus"])).is_err());
    }

    /// A workload scaled down to test size, measured on its own path.
    fn scaled(name: &str, file_len: usize) -> Spec {
        let spec = by_name(name).unwrap();
        Spec {
            file_len,
            sessions: spec.sessions.min(2),
            receivers_per_session: spec.receivers_per_session.min(16),
            ..*spec
        }
    }

    /// The deterministic part of a run: what a seed must reproduce exactly.
    fn fingerprint(spec: &Spec, seed: u64) -> Vec<(u64, u64, u64, u64, usize)> {
        let files = spec.generate_files(seed);
        let phase = run::run_phase(
            "test",
            &Load {
                spec,
                files: &files,
                seed,
            },
            spec.path,
            Budget::Iterations(3),
            false,
            &mut Ports::new(),
        )
        .unwrap();
        assert_eq!(phase.failed(), 0, "{}: every download completes", spec.name);
        assert_eq!(phase.wrong_bytes(), 0);
        phase
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.overhead_sum.to_bits(),
                    o.steps,
                    o.sent,
                    o.delivered,
                    o.completions_s.len(),
                )
            })
            .collect()
    }

    #[test]
    fn the_same_seed_reproduces_overhead_steps_and_datagram_counts() {
        for spec in [
            scaled("carousel_bulk", 256 << 10),
            scaled("rateless_stream", 128 << 10),
            scaled("swarm_small", 16 << 10),
        ] {
            let first = fingerprint(&spec, 42);
            assert_eq!(first, fingerprint(&spec, 42), "{}", spec.name);
            assert_ne!(spec.generate_files(42), spec.generate_files(43));
            // Another seed draws other losses; a lossless in-order download
            // counts the same datagrams whatever the seed.
            if spec.loss > 0.0 {
                assert_ne!(first, fingerprint(&spec, 43), "{}", spec.name);
            }
        }
    }

    #[test]
    fn every_path_downloads_and_verifies_a_small_population() {
        let spec = scaled("udp_loopback", 64 << 10);
        let files = spec.generate_files(5);
        for path in [
            Path::Direct,
            Path::SimPump,
            Path::SimDriver,
            Path::UdpPump,
            Path::UdpDriver,
        ] {
            for traced in [false, true] {
                let phase = run::run_phase(
                    "test",
                    &Load {
                        spec: &spec,
                        files: &files,
                        seed: 5,
                    },
                    path,
                    Budget::Iterations(1),
                    traced,
                    &mut Ports::new(),
                )
                .unwrap();
                let o = &phase.outcomes[0];
                assert_eq!(
                    (o.attempted, o.failed, o.wrong_bytes),
                    (2, 0, 0),
                    "{path:?}"
                );
                assert_eq!(o.bytes, 2 * (64 << 10));
                assert!(o.delivered >= 2 * spec.k() as u64);
                assert!(o.window_s > 0.0 && o.setup_s > 0.0);
                assert_eq!(phase.rec.count("window"), traced as u64);
            }
        }
    }

    #[test]
    fn a_stalled_download_is_a_failure_not_a_hang() {
        // Loss so heavy that the datagram budget runs out first.
        let spec = Spec {
            loss: 0.999,
            ..scaled("carousel_bulk", 64 << 10)
        };
        let files = spec.generate_files(9);
        let phase = run::run_phase(
            "test",
            &Load {
                spec: &spec,
                files: &files,
                seed: 9,
            },
            Path::Direct,
            Budget::Iterations(1),
            false,
            &mut Ports::new(),
        )
        .unwrap();
        assert_eq!((phase.attempted(), phase.failed()), (1, 1));
        let (metrics, note) = run::end_to_end(&phase);
        assert_eq!(note.samples, 0, "a failed download has no latency sample");
        assert_eq!(metrics.get("goodput_mbps"), Some(0.0));
    }
}

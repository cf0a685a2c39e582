//! Running a workload: phases of iterations, the end-to-end metrics of an
//! untraced run, and the per-layer metrics of a traced one.

use crate::adapter::{self, CodecProbe, Iteration, Outcome, Tally, TallyTotals};
use crate::metrics::{metrics_json, Metrics, PER_LAYER};
use crate::rng::mix;
use crate::spec::{Path, Spec};
use crate::stats::{latency_summary, median, quantile};
use crate::trace::Recorder;
use std::fmt::Write as _;
use std::io;
use std::time::{Duration, Instant};

/// The code graphs every run builds, iteration by iteration (see
/// [`Iteration::code_seed`]).
const GRAPHS: u64 = 0x7041_6e64_6f5f_4131;

/// How long a phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Start iterations until this much wall time has passed.
    Seconds(f64),
    /// Exactly this many measured iterations (the determinism self-tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Iterations(usize),
}

/// UDP port ranges for the loopback groups, below the kernel's ephemeral
/// range so the transports' own send sockets cannot land on them.
#[derive(Debug)]
pub struct Ports {
    base: u16,
}

impl Ports {
    const FIRST: u16 = 10_000;
    const SPAN: u16 = 20_000;

    /// A range keyed by the process id, so two benchmarks on one host start
    /// apart.
    pub fn new() -> Ports {
        Ports {
            base: Self::FIRST + ((std::process::id() % 250) as u16) * 80,
        }
    }

    /// Move to a fresh range after `AddrInUse`, as the UDP tests do.
    fn advance(&mut self) {
        self.base = Self::FIRST + (self.base - Self::FIRST + 4_099) % Self::SPAN;
    }
}

/// A population and one run's inputs for it.
#[derive(Debug, Clone, Copy)]
pub struct Load<'a> {
    pub spec: &'a Spec,
    /// One file per session, generated from the seed.
    pub files: &'a [Vec<u8>],
    pub seed: u64,
}

/// The measured iterations of one population down one path.
#[derive(Debug)]
pub struct Phase {
    pub label: &'static str,
    pub path: Path,
    pub outcomes: Vec<Outcome>,
    pub rec: Recorder,
    pub tally: TallyTotals,
}

impl Phase {
    fn iterations(&self) -> f64 {
        self.outcomes.len() as f64
    }

    fn sum(&self, field: impl Fn(&Outcome) -> f64) -> f64 {
        self.outcomes.iter().map(field).sum()
    }

    fn mean(&self, field: impl Fn(&Outcome) -> f64) -> f64 {
        self.sum(field) / self.iterations()
    }

    fn median(&self, field: impl Fn(&Outcome) -> f64) -> f64 {
        let values: Vec<f64> = self.outcomes.iter().map(field).collect();
        median(&values).unwrap_or(0.0)
    }

    fn median_window_s(&self) -> f64 {
        self.median(|o| o.window_s)
    }

    fn median_goodput_mbps(&self) -> f64 {
        self.median(|o| o.bytes as f64 / 1e6 / o.window_s)
    }

    /// Mean time per iteration under a recorder name, in seconds.
    fn per_iteration_s(&self, name: &str) -> f64 {
        self.rec.total_ns(name) as f64 / 1e9 / self.iterations()
    }

    pub fn attempted(&self) -> usize {
        self.outcomes.iter().map(|o| o.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.outcomes.iter().map(|o| o.failed).sum()
    }

    pub fn wrong_bytes(&self) -> usize {
        self.outcomes.iter().map(|o| o.wrong_bytes).sum()
    }
}

/// Run `spec`'s population down `path`: one discarded warm-up iteration, then
/// measured iterations until the budget is spent.  Iteration `i` draws its
/// losses and channel from `mix(seed, i)` and builds the `i`-th of the
/// workload's fixed code graphs, so a seed fixes the whole sequence.
///
/// # Errors
///
/// Socket and driver failures that a fresh port range does not cure.
pub fn run_phase(
    label: &'static str,
    load: &Load,
    path: Path,
    budget: Budget,
    traced: bool,
    ports: &mut Ports,
) -> io::Result<Phase> {
    let Load { spec, files, seed } = *load;
    let tally = traced.then(|| Tally::new(spec.sessions * spec.layers));
    let mut run = |index: u64, rec: &mut Recorder, tally: Option<&std::sync::Arc<Tally>>| {
        let mut attempts = 0;
        loop {
            let iteration = Iteration {
                spec,
                files,
                seed: mix(seed, index),
                code_seed: mix(GRAPHS, index),
                path,
                tally: tally.cloned(),
                base_port: ports.base,
            };
            match adapter::run_iteration(&iteration, rec) {
                Err(e) if e.kind() == io::ErrorKind::AddrInUse && attempts < 8 => {
                    attempts += 1;
                    ports.advance();
                }
                other => return other,
            }
        }
    };
    run(0, &mut Recorder::new(false), None)?;

    let mut rec = Recorder::new(traced);
    let mut outcomes = Vec::new();
    let started = Instant::now();
    loop {
        outcomes.push(run(outcomes.len() as u64 + 1, &mut rec, tally.as_ref())?);
        let spent = match budget {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Iterations(n) => outcomes.len() >= n,
        };
        if spent {
            break;
        }
    }
    Ok(Phase {
        label,
        path,
        outcomes,
        rec,
        tally: tally.map(|t| t.totals()).unwrap_or_default(),
    })
}

/// Peak resident set of this process (`VmHWM`), in 10^6 bytes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The pooled view of the same latencies, for the run's log: the median and
/// the highest tail percentile the sample supports.
#[derive(Debug, Clone, PartialEq)]
pub struct PooledLatency {
    pub samples: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_quantile: f64,
}

/// Completion time of the receiver at quantile `q` of one iteration (nearest
/// rank); `None` when no receiver of the iteration completed.
fn receiver_at(outcome: &Outcome, q: f64) -> Option<f64> {
    let mut times = outcome.completions_s.clone();
    times.sort_by(f64::total_cmp);
    quantile(&times, q)
}

/// The seven end-to-end metrics of an untraced phase.
pub fn end_to_end(phase: &Phase) -> (Metrics, PooledLatency) {
    let mut m = Metrics::default();
    m.set("goodput_mbps", phase.median_goodput_mbps());
    m.set(
        "datagrams_per_s",
        phase.median(|o| o.delivered as f64 / o.window_s),
    );
    // Per iteration, the median and the 95th-percentile receiver; over
    // iterations, the median of each.  A tail pooled over iterations would
    // measure the shared host's bad moments (10 to 28 % run-to-run spread on
    // the reference box), not the slow receivers of a population.
    for (name, q) in [("download_s_p50", 0.5), ("download_s_p95", 0.95)] {
        let per_iteration: Vec<f64> = phase
            .outcomes
            .iter()
            .filter_map(|o| receiver_at(o, q))
            .collect();
        m.set(name, median(&per_iteration).unwrap_or(0.0));
    }
    let pooled: Vec<f64> = phase
        .outcomes
        .iter()
        .flat_map(|o| o.completions_s.iter().copied())
        .collect();
    m.set(
        "reception_overhead",
        phase.sum(|o| o.overhead_sum) / pooled.len() as f64,
    );
    m.set("setup_s", phase.median(|o| o.setup_s));
    m.set("peak_rss_mb", peak_rss_mb());
    let (p50, tail, tail_quantile) = latency_summary(&pooled).unwrap_or((0.0, 0.0, 0.5));
    (
        m,
        PooledLatency {
            samples: pooled.len(),
            p50,
            tail,
            tail_quantile,
        },
    )
}

/// Everything a traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// The workload's own path, untraced then traced, then every other path.
    pub phases: Vec<Phase>,
    pub metrics: Metrics,
}

impl Traced {
    /// The phase of the workload's own path under the recorder.
    pub fn own(&self) -> &Phase {
        &self.phases[1]
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The traced run: the workload's own path without and with the recorder,
/// the same population down every other path, and the layer probes at the
/// workload's `(k, payload)`.  `seconds` is split between them.
///
/// # Errors
///
/// Socket, poller and driver failures.
pub fn traced_run(load: &Load, seconds: f64) -> io::Result<Traced> {
    let (spec, load) = (load.spec, *load);
    let mut ports = Ports::new();
    let own = spec.path;
    let udp_spec = spec.one_receiver_per_session();
    let udp_load = Load {
        spec: &udp_spec,
        ..load
    };
    let mut phases = vec![
        run_phase(
            "own_untraced",
            &load,
            own,
            Budget::Seconds(0.15 * seconds),
            false,
            &mut ports,
        )?,
        run_phase(
            "own_traced",
            &load,
            own,
            Budget::Seconds(0.25 * seconds),
            true,
            &mut ports,
        )?,
    ];
    let side = Budget::Seconds(0.07 * seconds);
    for path in [Path::Direct, Path::SimPump, Path::SimDriver] {
        if path != own {
            phases.push(run_phase(path.name(), &load, path, side, true, &mut ports)?);
        }
    }
    phases.push(run_phase(
        Path::UdpPump.name(),
        &udp_load,
        Path::UdpPump,
        side,
        true,
        &mut ports,
    )?);
    let backend_before = std::env::var("DF_POLL_BACKEND").ok();
    for (label, backend) in [("udp_driver_epoll", "epoll"), ("udp_driver_poll", "poll")] {
        adapter::select_poll_backend(Some(backend));
        let phase = run_phase(label, &udp_load, Path::UdpDriver, side, true, &mut ports);
        adapter::select_poll_backend(backend_before.as_deref());
        phases.push(phase?);
    }

    let slice = Duration::from_secs_f64(0.008 * seconds);
    let (k, payload, loss) = (spec.k(), spec.payload, spec.loss);
    let probe_seed = mix(GRAPHS, 0x9e0b);
    let tornado = adapter::probe_tornado(spec, probe_seed, slice);
    let raptor = adapter::probe_raptor(k, payload, loss, probe_seed, slice);
    let lt = adapter::probe_lt(k, payload, loss, probe_seed, slice);
    let (cauchy_encode, cauchy_decode) = adapter::probe_cauchy(slice);

    let mut m = Metrics::default();
    for (name, value) in adapter::probe_gf(slice) {
        m.set(name, value);
    }
    m.set("core.tornado_build_s", tornado.build_s);
    m.set("core.tornado_encode_mbps", tornado.encode_mbps);
    m.set("core.tornado_decode_mbps", tornado.decode_mbps);
    m.set("core.tornado_overhead", tornado.overhead);
    m.set(
        "core.raptor_precode_mbps",
        (k * payload) as f64 / 1e6 / raptor.build_s,
    );
    m.set("core.raptor_encode_mbps", raptor.encode_mbps);
    m.set("core.raptor_decode_mbps", raptor.decode_mbps);
    m.set("core.raptor_overhead", raptor.overhead);
    m.set("core.lt_encode_mbps", lt.encode_mbps);
    m.set("core.lt_decode_mbps", lt.decode_mbps);
    m.set("core.lt_overhead", lt.overhead);
    m.set("rs.cauchy_encode_mbps", cauchy_encode);
    m.set("rs.cauchy_decode_mbps", cauchy_decode);
    m.set(
        "proto.server.control_reply_ns",
        adapter::probe_control_reply(slice),
    );
    m.set("polling.wait_us", adapter::probe_poller(slice)?);
    m.set(
        "proto.control.describe_rtt_us",
        adapter::probe_control_rtt(slice)?,
    );

    let (untraced, traced) = (&phases[0], &phases[1]);
    let by_label = |label: &str| {
        phases
            .iter()
            .find(|p| p.label == label)
            .expect("every phase ran above")
    };
    let on_path = |path: Path| {
        if path == own {
            traced
        } else {
            by_label(path.name())
        }
    };
    let direct = on_path(Path::Direct);
    let sim_pump = on_path(Path::SimPump);
    let udp_pump = on_path(Path::UdpPump);
    let epoll = by_label("udp_driver_epoll");
    let poll = by_label("udp_driver_poll");
    // The workload's transport kind decides which pump and which driver cost
    // the driver layer: the paced socket driver for `udp_loopback` (its own
    // traced phase), the stepped simulated one for the rest.
    let (kind_pump, kind_driver) = if own.is_udp() {
        (udp_pump, traced)
    } else {
        (sim_pump, on_path(Path::SimDriver))
    };

    // Sessions, from the direct pump: no transport or driver in the way.
    let codec: &CodecProbe = if spec.rateless { &raptor } else { &tornado };
    let codec_setup_s = if spec.rateless {
        codec.build_s
    } else {
        codec.build_s + codec.encode_s
    };
    let server_new_s = direct.per_iteration_s("proto.server.new");
    let poll_transmit_ns = direct.rec.mean_ns("proto.server.poll_transmit");
    let handle_datagram_ns = direct.rec.mean_ns("proto.client.handle_datagram");
    m.set("proto.server.new_s", server_new_s);
    m.set(
        "proto.server.self_s",
        server_new_s - spec.sessions as f64 * codec_setup_s,
    );
    m.set("proto.server.poll_transmit_ns", poll_transmit_ns);
    m.set(
        "proto.client.new_s",
        direct.per_iteration_s("proto.client.new"),
    );
    m.set("proto.client.handle_datagram_ns", handle_datagram_ns);
    m.set(
        "proto.client.handle_datagram_max_ms",
        direct.rec.max_ns("proto.client.handle_datagram") as f64 / 1e6,
    );
    m.set(
        "proto.client.self_ns",
        handle_datagram_ns - codec.decode_ns_per_datagram,
    );

    // Reception accounting, from the workload's own traced path.
    let completed = traced.sum(|o| o.completions_s.len() as f64);
    let received = traced.sum(|o| o.received as f64);
    m.set(
        "proto.client.decode_attempts",
        share(traced.sum(|o| o.decode_attempts as f64), completed),
    );
    m.set(
        "proto.client.duplicate_share",
        1.0 - share(traced.sum(|o| o.distinct as f64), received),
    );
    m.set("proto.client.rejected", traced.sum(|o| o.rejected as f64));

    // Transports, from the benchmark's own loops over them.
    let t = &sim_pump.tally;
    m.set(
        "proto.transport.sim_send_ns",
        share(t.send_ns as f64, sim_pump.sum(|o| o.delivered as f64)),
    );
    m.set(
        "proto.transport.sim_recv_ns",
        share(t.recv_ns as f64, t.recvs as f64),
    );
    let t = &udp_pump.tally;
    m.set("proto.udp.send_ns", share(t.send_ns as f64, t.sends as f64));
    m.set("proto.udp.recv_ns", share(t.recv_ns as f64, t.recvs as f64));
    m.set(
        "proto.udp.empty_recv_ns",
        share(t.empty_recv_ns as f64, t.empty_recvs as f64),
    );
    m.set(
        "proto.udp.join_us",
        share(t.join_ns as f64, t.joins as f64) / 1e3,
    );
    m.set(
        "proto.udp.delivery_share",
        share(
            epoll.tally.received_by_leave as f64,
            epoll.tally.sent_by_leave as f64,
        ),
    );
    m.set(
        "proto.driver.goodput_epoll_mbps",
        epoll.median_goodput_mbps(),
    );
    m.set("proto.driver.goodput_poll_mbps", poll.median_goodput_mbps());

    // The driver, against the pump of the identical population.
    let d = kind_driver;
    let delivered = d.mean(|o| o.delivered as f64);
    let driver_self_ns = (d.median_window_s() - kind_pump.median_window_s()) * 1e9 / delivered;
    m.set("proto.driver.steps", d.mean(|o| o.steps as f64));
    m.set("proto.driver.datagrams_sent", d.mean(|o| o.sent as f64));
    m.set("proto.driver.datagrams_received", delivered);
    m.set(
        "proto.driver.step_us",
        if d.path == Path::SimDriver {
            d.rec.mean_ns("proto.driver.step") / 1e3
        } else {
            share(d.sum(|o| o.window_s), d.sum(|o| o.steps as f64)) * 1e6
        },
    );
    m.set(
        "proto.driver.add_client_us",
        d.rec.mean_ns("proto.driver.add_client") / 1e3,
    );
    m.set(
        "proto.driver.shutdown_ms",
        d.rec.mean_ns("proto.driver.shutdown") / 1e6,
    );
    m.set("proto.driver.self_ns_per_datagram", driver_self_ns);

    // The benchmark's own checks.
    m.set(
        "bench.trace_overhead_share",
        traced.median_window_s() / untraced.median_window_s() - 1.0,
    );
    let window_ns = traced.rec.total_ns("window") as f64;
    let attributed_ns = if own == Path::Direct {
        // Every layer call of the window is a child of its span.
        window_ns - traced.rec.self_total_ns("window") as f64
    } else {
        // The transport calls were timed in the run; the session calls run
        // on the shard thread, out of the recorder's sight, so their count
        // is priced at the direct pump's cost per call.
        let t = &traced.tally;
        (t.send_ns + t.recv_ns + t.empty_recv_ns) as f64
            + traced.sum(|o| o.sent as f64) * poll_transmit_ns
            + traced.sum(|o| o.delivered as f64) * handle_datagram_ns
            + traced.sum(|o| o.delivered as f64) * driver_self_ns
    };
    m.set(
        "bench.reconcile_gap_share",
        share((window_ns - attributed_ns).abs(), window_ns),
    );
    m.set("bench.traced_iterations", traced.iterations());
    m.set("bench.untraced_iterations", untraced.iterations());

    Ok(Traced { phases, metrics: m })
}

/// The span file of a traced run: every phase's recording, from which each
/// layer's self time can be re-derived, and the metrics computed from them.
pub fn trace_json(spec: &Spec, seed: u64, traced: &Traced) -> String {
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"phases\":[",
        spec.name
    );
    for (i, phase) in traced.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"path\":\"{}\",\"iterations\":{},\"recording\":{}}}",
            phase.label,
            phase.path.name(),
            phase.outcomes.len(),
            phase.rec.to_json()
        );
    }
    let listed = traced.metrics.in_registry_order(&PER_LAYER);
    let _ = write!(out, "],\"metrics\":{{{}", metrics_json(&listed));
    out.push_str("}}");
    out
}

//! Every call into the repository's crates lives in this file.
//!
//! The benchmark measures each layer from outside, through the narrow API the
//! roadmap intends to keep: `ServerSession::{new, poll_transmit,
//! advance_round}`, `FountainServer::{add_session, poll_transmit,
//! handle_control_datagram}`, `ClientSession::{new, handle_datagram, stats,
//! file}`, `DriverConfig` and `Driver::{add_client, add_server_session,
//! add_fountain_server, step, all_clients_complete, poll_events, shutdown}`,
//! the `Transport` trait with its two implementations, the codecs' public
//! encode/decode entry points and the slice kernels.  It never touches
//! `EventLoop`, the `_on` variants, `step_until_complete`, `send_round`,
//! `df_sim` or the owned-payload Reed–Solomon wrappers, so collapsing those
//! does not break the instrument.

use crate::rng::{mix, SplitMix64};
use crate::spec::{Path, Spec};
use crate::stats::median;
use crate::trace::{Acc, Recorder};
use bytes::Bytes;
use df_core::{
    AddOutcome, LtDecoder, LtEncoder, Mark, RaptorCode, TornadoCode, LT_DEFAULT_C,
    LT_DEFAULT_DELTA, TORNADO_A,
};
use df_proto::{
    ClientEvent, ClientSession, ControlInfo, ControlRequest, ControlResponse, DriverConfig,
    DriverEvent, FountainServer, Pacing, PacketHeader, RatelessMode, Readiness, ServerSession,
    SessionConfig, SessionHandle, SimMulticast, Transport, UdpMulticastTransport, HEADER_LEN,
};
use df_rs::{CauchyCode, ErasureCode};
use std::hint::black_box;
use std::io;
use std::net::{Ipv4Addr, UdpSocket};
// ordering: Relaxed throughout: the taps' counters are statistics that publish
// no other data, and they are read for good only after the shard thread is joined.
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A stepped server emits `n / STEP_BUDGET_DIV` datagrams per step.
const STEP_BUDGET_DIV: usize = 16;
/// The paced UDP server: a burst of 64 every 50 µs keeps the worker
/// CPU-bound rather than clock-bound, and two datagrams per receiver per
/// burst stay well inside the socket buffers.
const UDP_BURST: usize = 64;
const UDP_TICK: Duration = Duration::from_micros(50);
/// Liveness: an iteration may emit this many datagrams per source packet
/// before its unfinished downloads are counted as failed.
const DATAGRAM_BUDGET_PER_PACKET: u64 = 40;
/// Liveness: wall-clock budget of one paced iteration.
const PACED_DEADLINE: Duration = Duration::from_secs(20);

/// What one iteration (set-up, download window, verification) produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Everything before the window opens, input generation excepted.
    pub setup_s: f64,
    /// First datagram requested to last completion observed.
    pub window_s: f64,
    /// Per verified receiver: window opening to its completion being seen.
    pub completions_s: Vec<f64>,
    pub attempted: usize,
    /// Not complete within the budget, or wrong bytes.
    pub failed: usize,
    pub wrong_bytes: usize,
    /// Verified file bytes delivered to completed receivers.
    pub bytes: u64,
    /// Datagrams handed to client sessions.
    pub delivered: u64,
    /// Datagrams the server emitted.
    pub sent: u64,
    /// Driver steps (stepped), loop ticks (paced) or bursts (pumps).
    pub steps: u64,
    /// Σ received / k over verified receivers.
    pub overhead_sum: f64,
    pub received: u64,
    pub distinct: u64,
    pub decode_attempts: u64,
    pub rejected: u64,
}

/// One iteration's inputs.
#[derive(Debug, Clone)]
pub struct Iteration<'a> {
    pub spec: &'a Spec,
    pub files: &'a [Vec<u8>],
    /// The run's inputs: seeds the loss draws and the simulated channel.
    pub seed: u64,
    /// Seeds the code graphs.  The graphs are the workload's, not the run's:
    /// iteration `i` of every run builds the same ones, so that two runs do
    /// the same decoding work and differ only by their inputs and the box.
    pub code_seed: u64,
    pub path: Path,
    /// Present on traced runs: transports are wrapped in a [`Tap`].
    pub tally: Option<Arc<Tally>>,
    /// First UDP port of the iteration's group range.
    pub base_port: u16,
}

/// Run one iteration of `it.spec` down `it.path`.
///
/// # Errors
///
/// Socket set-up failures (`AddrInUse` when the port range is taken: the
/// caller retries on a fresh range) and driver worker failures.
pub fn run_iteration(it: &Iteration, rec: &mut Recorder) -> io::Result<Outcome> {
    if it.path == Path::Direct {
        return Ok(pump_direct(it, rec));
    }
    if let Some(tally) = &it.tally {
        tally.begin_iteration();
    }
    let sim = SimNet(SimMulticast::new(it.seed));
    let udp = UdpNet {
        base_port: it.base_port,
    };
    match (it.path.is_udp(), it.tally.clone()) {
        (false, None) => over_net(it, rec, sim),
        (false, Some(tally)) => over_net(it, rec, Tapped { inner: sim, tally }),
        (true, None) => over_net(it, rec, udp),
        (true, Some(tally)) => over_net(it, rec, Tapped { inner: udp, tally }),
    }
}

fn over_net<N: Net>(it: &Iteration, rec: &mut Recorder, net: N) -> io::Result<Outcome> {
    match it.path {
        Path::SimPump | Path::UdpPump => pump_net(it, rec, net),
        Path::SimDriver | Path::UdpDriver => drive(it, rec, net),
        Path::Direct => unreachable!("the direct pump has no transport"),
    }
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// The serving side: one session, or a multi-session server.
enum Source {
    Session(Box<ServerSession>),
    Server(FountainServer),
}

impl Source {
    /// The next datagram of the never-ending stream.
    fn poll(&mut self) -> (u32, Bytes) {
        match self {
            Source::Session(s) => match s.poll_transmit() {
                Some(out) => out,
                None => {
                    s.advance_round();
                    s.poll_transmit().expect("a fresh round has datagrams")
                }
            },
            Source::Server(f) => f.poll_transmit().expect("the server has sessions"),
        }
    }
}

fn session_config(spec: &Spec, seed: u64) -> SessionConfig {
    SessionConfig {
        packet_size: spec.payload,
        code_seed: seed,
        layers: spec.layers,
        rateless: if spec.rateless {
            RatelessMode::Raptor
        } else {
            RatelessMode::Off
        },
        ..SessionConfig::default()
    }
}

/// Build the serving side (packetise, build the graph, encode or precode),
/// one `proto.server.new` span per session.
fn build_source(it: &Iteration, rec: &mut Recorder) -> (Source, Vec<ControlInfo>) {
    if let [file] = it.files {
        let session = rec.span("proto.server.new", |_| {
            ServerSession::new(file, session_config(it.spec, it.code_seed))
                .expect("session encodes")
        });
        let info = session.control_info().clone();
        return (Source::Session(Box::new(session)), vec![info]);
    }
    let mut server = FountainServer::new();
    for (s, file) in it.files.iter().enumerate() {
        let config = session_config(it.spec, mix(it.code_seed, s as u64));
        rec.span("proto.server.new", |_| {
            server.add_session(file, config).expect("session encodes")
        });
    }
    let infos = server
        .sessions()
        .iter()
        .map(|s| s.control_info().clone())
        .collect();
    (Source::Server(server), infos)
}

/// One receiver of the population.
struct Receiver {
    session: usize,
    /// Every group of the session: a flat receiver listens to all layers.
    groups: Vec<u32>,
}

fn receivers(spec: &Spec, infos: &[ControlInfo]) -> Vec<Receiver> {
    (0..spec.receivers())
        .map(|r| {
            let session = r / spec.receivers_per_session;
            Receiver {
                session,
                groups: infos[session].groups().collect(),
            }
        })
        .collect()
}

fn build_clients(
    receivers: &[Receiver],
    infos: &[ControlInfo],
    rec: &mut Recorder,
) -> Vec<ClientSession> {
    let on = rec.is_on();
    let mut acc = Acc::default();
    let clients = receivers
        .iter()
        .map(|r| {
            acc.time(on, || {
                ClientSession::new(infos[r.session].clone()).expect("control info is valid")
            })
        })
        .collect();
    rec.summary("proto.client.new", acc);
    clients
}

fn datagram_budget(spec: &Spec) -> u64 {
    DATAGRAM_BUDGET_PER_PACKET * (spec.k() * spec.sessions) as u64
}

/// Check a finished client byte for byte against its input and fold its
/// reception statistics into the outcome.
fn settle(out: &mut Outcome, client: &ClientSession, file: &[u8], at_s: f64) {
    if client.file() != Some(file) {
        out.wrong_bytes += 1;
        return;
    }
    let stats = client.stats();
    out.completions_s.push(at_s);
    out.bytes += file.len() as u64;
    out.overhead_sum += stats.received() as f64 / stats.k() as f64;
    out.received += stats.received() as u64;
    out.distinct += stats.distinct() as u64;
    out.decode_attempts += stats.decode_attempts() as u64;
    out.rejected += stats.rejected();
}

fn finish(mut out: Outcome, attempted: usize) -> Outcome {
    out.attempted = attempted;
    out.failed = attempted - out.completions_s.len();
    out
}

// ---------------------------------------------------------------------------
// The direct sans-I/O pump
// ---------------------------------------------------------------------------

/// `poll_transmit` → loss drawn by the benchmark → `handle_datagram`, closed
/// loop: a receiver's next datagram is produced only when the loop gets back
/// to the server.
fn pump_direct(it: &Iteration, rec: &mut Recorder) -> Outcome {
    let on = rec.is_on();
    let mut out = Outcome::default();
    rec.span("iteration", |rec| {
        let started = Instant::now();
        let (mut source, population, mut clients) = rec.span("setup", |rec| {
            let (source, infos) = build_source(it, rec);
            let population = receivers(it.spec, &infos);
            let clients = build_clients(&population, &infos, rec);
            (source, population, clients)
        });
        out.setup_s = started.elapsed().as_secs_f64();

        let mut by_group = vec![Vec::new(); it.spec.sessions * it.spec.layers];
        for (r, receiver) in population.iter().enumerate() {
            for &group in &receiver.groups {
                by_group[group as usize].push(r);
            }
        }
        let mut draws: Vec<SplitMix64> = (0..population.len())
            .map(|r| SplitMix64::new(mix(it.seed, 0xd409 + r as u64)))
            .collect();
        let mut done_at: Vec<Option<f64>> = vec![None; population.len()];
        let mut live = population.len();
        let budget = datagram_budget(it.spec);

        let opened = Instant::now();
        rec.span("window", |rec| {
            let (mut tx, mut rx) = (Acc::default(), Acc::default());
            while live > 0 && out.sent < budget {
                let (group, datagram) = tx.time(on, || source.poll());
                out.sent += 1;
                for &r in &by_group[group as usize] {
                    if done_at[r].is_some() || draws[r].chance(it.spec.loss) {
                        continue;
                    }
                    out.delivered += 1;
                    let event = rx.time(on, || clients[r].handle_datagram(datagram.clone()));
                    if event == ClientEvent::Complete {
                        done_at[r] = Some(opened.elapsed().as_secs_f64());
                        live -= 1;
                    }
                }
            }
            rec.summary("proto.server.poll_transmit", tx);
            rec.summary("proto.client.handle_datagram", rx);
        });
        out.window_s = opened.elapsed().as_secs_f64();
        out.steps = out.sent;

        rec.span("verify", |_| {
            for (r, at_s) in done_at.iter().enumerate() {
                if let Some(at_s) = at_s {
                    settle(
                        &mut out,
                        &clients[r],
                        &it.files[population[r].session],
                        *at_s,
                    );
                }
            }
        });
    });
    finish(out, it.spec.receivers())
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// A source of transports for one iteration.
trait Net {
    type T: Transport + Send + 'static;
    fn server(&mut self) -> io::Result<Self::T>;
    fn client(&mut self, loss: f64) -> io::Result<Self::T>;
}

struct SimNet(SimMulticast);

impl Net for SimNet {
    type T = df_proto::SimEndpoint;
    fn server(&mut self) -> io::Result<Self::T> {
        Ok(self.0.endpoint(0.0))
    }
    fn client(&mut self, loss: f64) -> io::Result<Self::T> {
        Ok(self.0.endpoint(loss))
    }
}

/// Loopback unicast: group `g` is port `base_port + g` on 127.0.0.1.  Traffic
/// crosses the host loopback interface, not a link, and nothing is dropped on
/// purpose.
struct UdpNet {
    base_port: u16,
}

impl Net for UdpNet {
    type T = UdpMulticastTransport;
    fn server(&mut self) -> io::Result<Self::T> {
        UdpMulticastTransport::loopback(self.base_port)
    }
    fn client(&mut self, _loss: f64) -> io::Result<Self::T> {
        UdpMulticastTransport::loopback(self.base_port)
    }
}

struct Tapped<N> {
    inner: N,
    tally: Arc<Tally>,
}

impl<N: Net> Net for Tapped<N> {
    type T = Tap<N::T>;
    fn server(&mut self) -> io::Result<Self::T> {
        Ok(Tap::new(self.inner.server()?, self.tally.clone()))
    }
    fn client(&mut self, loss: f64) -> io::Result<Self::T> {
        Ok(Tap::new(self.inner.client(loss)?, self.tally.clone()))
    }
}

/// What the taps of one traced phase counted.  The driver calls its
/// transports on the shard thread, where the recorder cannot follow; these
/// counters are statistics that publish nothing else, hence `Relaxed`.
#[derive(Debug)]
pub struct Tally {
    sends: AtomicU64,
    send_ns: AtomicU64,
    recvs: AtomicU64,
    recv_ns: AtomicU64,
    empty_recvs: AtomicU64,
    empty_recv_ns: AtomicU64,
    joins: AtomicU64,
    join_ns: AtomicU64,
    /// Datagrams sent to each group so far.
    sent_to_group: Vec<AtomicU64>,
    /// Σ over receivers that left: what had been sent to their group by
    /// then, and what they had received.
    sent_by_leave: AtomicU64,
    received_by_leave: AtomicU64,
    /// What [`Tally::flush_into`] has already handed to a recorder.
    flushed: [AtomicU64; 6],
}

/// Totals of a [`Tally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TallyTotals {
    pub sends: u64,
    pub send_ns: u64,
    pub recvs: u64,
    pub recv_ns: u64,
    pub empty_recvs: u64,
    pub empty_recv_ns: u64,
    pub joins: u64,
    pub join_ns: u64,
    pub sent_by_leave: u64,
    pub received_by_leave: u64,
}

impl Tally {
    pub fn new(groups: usize) -> Arc<Tally> {
        Arc::new(Tally {
            sends: AtomicU64::new(0),
            send_ns: AtomicU64::new(0),
            recvs: AtomicU64::new(0),
            recv_ns: AtomicU64::new(0),
            empty_recvs: AtomicU64::new(0),
            empty_recv_ns: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            join_ns: AtomicU64::new(0),
            sent_to_group: (0..groups).map(|_| AtomicU64::new(0)).collect(),
            sent_by_leave: AtomicU64::new(0),
            received_by_leave: AtomicU64::new(0),
            flushed: Default::default(),
        })
    }

    /// Each iteration serves its groups from zero.
    fn begin_iteration(&self) {
        for sent in &self.sent_to_group {
            sent.store(0, Relaxed);
        }
    }

    pub fn totals(&self) -> TallyTotals {
        TallyTotals {
            sends: self.sends.load(Relaxed),
            send_ns: self.send_ns.load(Relaxed),
            recvs: self.recvs.load(Relaxed),
            recv_ns: self.recv_ns.load(Relaxed),
            empty_recvs: self.empty_recvs.load(Relaxed),
            empty_recv_ns: self.empty_recv_ns.load(Relaxed),
            joins: self.joins.load(Relaxed),
            join_ns: self.join_ns.load(Relaxed),
            sent_by_leave: self.sent_by_leave.load(Relaxed),
            received_by_leave: self.received_by_leave.load(Relaxed),
        }
    }

    /// Hand what the taps counted since the last flush to the innermost open
    /// span, as per-datagram summaries.
    fn flush_into(&self, rec: &mut Recorder) {
        let t = self.totals();
        let now = [
            t.sends,
            t.send_ns,
            t.recvs,
            t.recv_ns,
            t.empty_recvs,
            t.empty_recv_ns,
        ];
        let mut delta = [0u64; 6];
        for i in 0..6 {
            delta[i] = now[i] - self.flushed[i].swap(now[i], Relaxed);
        }
        let acc = |count, total_ns| Acc {
            count,
            total_ns,
            max_ns: 0,
        };
        rec.summary("proto.transport.send", acc(delta[0], delta[1]));
        rec.summary("proto.transport.recv", acc(delta[2], delta[3]));
        rec.summary("proto.transport.recv_empty", acc(delta[4], delta[5]));
    }
}

/// A transport decorator that times every call into the transport beneath it.
/// Traced runs only: an untraced run hands the bare transport to the driver.
pub struct Tap<T> {
    inner: T,
    tally: Arc<Tally>,
    received: u64,
}

impl<T> Tap<T> {
    fn new(inner: T, tally: Arc<Tally>) -> Tap<T> {
        Tap {
            inner,
            tally,
            received: 0,
        }
    }
}

impl<T: Transport> Tap<T> {
    fn timed_recv(
        &mut self,
        recv: impl FnOnce(&mut T) -> Option<(u32, Bytes)>,
    ) -> Option<(u32, Bytes)> {
        let start = Instant::now();
        let got = recv(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        if got.is_some() {
            self.received += 1;
            self.tally.recvs.fetch_add(1, Relaxed);
            self.tally.recv_ns.fetch_add(ns, Relaxed);
        } else {
            self.tally.empty_recvs.fetch_add(1, Relaxed);
            self.tally.empty_recv_ns.fetch_add(ns, Relaxed);
        }
        got
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, group: u32, datagram: Bytes) {
        let start = Instant::now();
        self.inner.send(group, datagram);
        self.tally
            .send_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.tally.sends.fetch_add(1, Relaxed);
        if let Some(sent) = self.tally.sent_to_group.get(group as usize) {
            sent.fetch_add(1, Relaxed);
        }
    }

    fn recv(&mut self) -> Option<(u32, Bytes)> {
        self.timed_recv(T::recv)
    }

    fn try_recv(&mut self) -> Option<(u32, Bytes)> {
        self.timed_recv(T::try_recv)
    }

    fn readiness(&self) -> Readiness {
        self.inner.readiness()
    }

    fn join(&mut self, group: u32) -> io::Result<()> {
        let start = Instant::now();
        let joined = self.inner.join(group);
        self.tally
            .join_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.tally.joins.fetch_add(1, Relaxed);
        joined
    }

    fn leave(&mut self, group: u32) {
        if let Some(sent) = self.tally.sent_to_group.get(group as usize) {
            self.tally
                .sent_by_leave
                .fetch_add(sent.load(Relaxed), Relaxed);
            self.tally
                .received_by_leave
                .fetch_add(std::mem::take(&mut self.received), Relaxed);
        }
        self.inner.leave(group);
    }
}

/// Set-up shared by the pump and the driver: sessions, then one joined
/// transport per receiver.  The benchmark joins each receiver's group itself,
/// so a taken port surfaces here as an error and not later as a lost add on
/// the shard; the driver's own join of the same group is then a no-op.
struct Staged<T> {
    source: Source,
    population: Vec<Receiver>,
    clients: Vec<(ClientSession, T)>,
    server_transport: T,
    step_budget: usize,
}

fn stage<N: Net>(it: &Iteration, rec: &mut Recorder, net: &mut N) -> io::Result<Staged<N::T>> {
    let (source, infos) = build_source(it, rec);
    let population = receivers(it.spec, &infos);
    let sessions = build_clients(&population, &infos, rec);
    let mut clients = Vec::with_capacity(sessions.len());
    for (session, receiver) in sessions.into_iter().zip(&population) {
        let mut transport = net.client(it.spec.loss)?;
        for &group in &receiver.groups {
            transport.join(group)?;
        }
        clients.push((session, transport));
    }
    let total_n: usize = infos.iter().map(|i| i.n).sum();
    Ok(Staged {
        source,
        population,
        clients,
        server_transport: net.server()?,
        step_budget: (total_n / STEP_BUDGET_DIV).max(1),
    })
}

// ---------------------------------------------------------------------------
// The benchmark's own loop over a transport
// ---------------------------------------------------------------------------

/// The same population over the same transport as [`drive`], pumped by a
/// plain loop: a burst from the server, then every receiver drained.  What
/// the driver's window costs beyond this one is the driver's own, so the two
/// carry the same instrumentation: the taps on the transports, and nothing
/// around the session calls (the direct pump times those).
fn pump_net<N: Net>(it: &Iteration, rec: &mut Recorder, mut net: N) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    rec.span("iteration", |rec| -> io::Result<()> {
        let started = Instant::now();
        let staged = rec.span("setup", |rec| stage(it, rec, &mut net))?;
        out.setup_s = started.elapsed().as_secs_f64();
        let Staged {
            mut source,
            population,
            mut clients,
            mut server_transport,
            step_budget,
        } = staged;
        let burst = if it.path.is_udp() {
            UDP_BURST
        } else {
            step_budget
        };
        let mut done_at: Vec<Option<f64>> = vec![None; clients.len()];
        let mut live = clients.len();
        let budget = datagram_budget(it.spec);

        let opened = Instant::now();
        rec.span("window", |rec| {
            while live > 0 && out.sent < budget {
                for _ in 0..burst {
                    let (group, datagram) = source.poll();
                    server_transport.send(group, datagram);
                }
                out.sent += burst as u64;
                out.steps += 1;
                for (r, (session, transport)) in clients.iter_mut().enumerate() {
                    if done_at[r].is_some() {
                        continue;
                    }
                    while let Some((_group, datagram)) = transport.try_recv() {
                        out.delivered += 1;
                        if session.handle_datagram(datagram) == ClientEvent::Complete {
                            for &group in &population[r].groups {
                                transport.leave(group);
                            }
                            done_at[r] = Some(opened.elapsed().as_secs_f64());
                            live -= 1;
                            break;
                        }
                    }
                }
            }
            if let Some(tally) = &it.tally {
                tally.flush_into(rec);
            }
        });
        out.window_s = opened.elapsed().as_secs_f64();

        rec.span("verify", |_| {
            for (r, at_s) in done_at.iter().enumerate() {
                if let Some(at_s) = at_s {
                    settle(
                        &mut out,
                        &clients[r].0,
                        &it.files[population[r].session],
                        *at_s,
                    );
                }
            }
        });
        Ok(())
    })?;
    Ok(finish(out, it.spec.receivers()))
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// The population through a one-shard `Driver`: stepped over the simulated
/// channel, paced over sockets.  Receivers are registered first and the
/// window opens as the server is registered.
fn drive<N: Net>(it: &Iteration, rec: &mut Recorder, mut net: N) -> io::Result<Outcome> {
    let on = rec.is_on();
    let stepped = !it.path.is_udp();
    let mut out = Outcome::default();
    rec.span("iteration", |rec| -> io::Result<()> {
        let started = Instant::now();
        let (mut driver, source, server_transport, population, handles, max_steps) =
            rec.span("setup", |rec| -> io::Result<_> {
                let staged = stage(it, rec, &mut net)?;
                let max_steps = (datagram_budget(it.spec) / staged.step_budget as u64).max(1);
                let pacing = if stepped {
                    Pacing::new(Duration::from_millis(1), staged.step_budget)
                } else {
                    Pacing::new(UDP_TICK, UDP_BURST)
                };
                let mut driver = rec.span("proto.driver.build", |_| {
                    DriverConfig::new()
                        .shards(1)
                        .stepped(stepped)
                        .pacing(pacing)
                        .build::<N::T>()
                });
                let mut add = Acc::default();
                let mut handles: Vec<SessionHandle> = Vec::with_capacity(staged.clients.len());
                for (session, transport) in staged.clients {
                    handles.push(add.time(on, || driver.add_client(session, transport))?);
                }
                rec.summary("proto.driver.add_client", add);
                Ok((
                    driver,
                    staged.source,
                    staged.server_transport,
                    staged.population,
                    handles,
                    max_steps,
                ))
            })?;
        out.setup_s = started.elapsed().as_secs_f64();

        let mut finished: Vec<(usize, f64, Box<ClientSession>)> = Vec::new();
        let opened = Instant::now();
        rec.span("window", |rec| -> io::Result<()> {
            rec.span("proto.driver.add_server", |_| match source {
                Source::Session(s) => driver.add_server_session(*s, server_transport),
                Source::Server(f) => driver.add_fountain_server(f, server_transport, None),
            })?;
            loop {
                if stepped {
                    rec.span("proto.driver.step", |rec| {
                        let acked = driver.step(1);
                        if let Some(tally) = &it.tally {
                            tally.flush_into(rec);
                        }
                        acked
                    })?;
                    out.steps += 1;
                }
                let at_s = opened.elapsed().as_secs_f64();
                collect(driver.poll_events(), &handles, at_s, &mut finished);
                let expired = if stepped {
                    out.steps >= max_steps
                } else {
                    opened.elapsed() >= PACED_DEADLINE
                };
                if driver.all_clients_complete() || expired {
                    break;
                }
                if !stepped {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            if let (false, Some(tally)) = (stepped, &it.tally) {
                tally.flush_into(rec);
            }
            Ok(())
        })?;
        out.window_s = opened.elapsed().as_secs_f64();

        let report = rec.span("proto.driver.shutdown", |_| driver.shutdown())?;
        collect(report.events, &handles, out.window_s, &mut finished);
        let totals = report.shard_stats.iter().fold((0, 0, 0), |acc, s| {
            (
                acc.0 + s.datagrams_sent,
                acc.1 + s.datagrams_received,
                acc.2 + s.ticks,
            )
        });
        (out.sent, out.delivered) = (totals.0, totals.1);
        if !stepped {
            out.steps = totals.2;
        }

        rec.span("verify", |_| {
            for (r, at_s, session) in &finished {
                settle(&mut out, session, &it.files[population[*r].session], *at_s);
            }
        });
        Ok(())
    })?;
    Ok(finish(out, it.spec.receivers()))
}

/// Keep the completions among `events`, stamped with when they were seen.
fn collect(
    events: Vec<DriverEvent>,
    handles: &[SessionHandle],
    at_s: f64,
    finished: &mut Vec<(usize, f64, Box<ClientSession>)>,
) {
    for event in events {
        if let DriverEvent::Completed {
            handle, session, ..
        } = event
        {
            if let Some(r) = handles.iter().position(|h| *h == handle) {
                finished.push((r, at_s, session));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layer probes (traced runs only)
// ---------------------------------------------------------------------------

/// Repeat `measure` until `slice` has passed (and at least three times), and
/// return the median of what it reported.
fn repeat(slice: Duration, mut measure: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < slice {
        samples.push(measure());
    }
    median(&samples).expect("at least three samples")
}

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn random_packets(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    (0..k)
        .map(|_| {
            let mut p = vec![0u8; len];
            rng.fill(&mut p);
            p
        })
        .collect()
}

/// The slice kernels, in GB/s of source bytes: `xor_slice` streamed over
/// 32 MiB and over a 32 KiB working set, and the two `mul_acc_slice`s over
/// the 32 KiB working set, all in 1 KiB slices.
pub fn probe_gf(slice: Duration) -> Vec<(&'static str, f64)> {
    let stream = 32 << 20;
    let hot = 16 << 10; // 16 KiB of source + 16 KiB of destination
    let xor = df_gf::field::xor_slice;
    vec![
        ("gf.xor_gbps", kernel_gbps(slice, stream, 1, xor)),
        ("gf.xor_hot_gbps", kernel_gbps(slice, hot, 2048, xor)),
        (
            "gf.mul_acc8_gbps",
            kernel_gbps(slice, hot, 512, |d, s| {
                df_gf::kernels::mul_acc_slice(0x53, d, s)
            }),
        ),
        (
            "gf.mul_acc16_gbps",
            kernel_gbps(slice, hot, 512, |d, s| {
                df_gf::kernels::gf16::mul_acc_slice(0x1d53, d, s)
            }),
        ),
    ]
}

/// GB/s of source bytes through `kernel`, applied in 1 KiB slices to `passes`
/// sweeps over `bytes` of source and as much destination.
fn kernel_gbps(
    slice: Duration,
    bytes: usize,
    passes: usize,
    mut kernel: impl FnMut(&mut [u8], &[u8]),
) -> f64 {
    const SLICE: usize = 1024;
    let mut src = vec![0u8; bytes];
    SplitMix64::new(0x6f).fill(&mut src);
    let mut dst = vec![0u8; bytes];
    repeat(slice, || {
        let s = seconds(|| {
            for _ in 0..passes {
                for (d, s) in dst.chunks_exact_mut(SLICE).zip(src.chunks_exact(SLICE)) {
                    kernel(d, s);
                }
            }
            black_box(&mut dst);
        });
        (bytes * passes) as f64 / s / 1e9
    })
}

/// What a codec probe measured at one operating point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CodecProbe {
    /// Graph construction (Tornado) or construction plus precode (Raptor).
    pub build_s: f64,
    /// Encoding all `k` source packets.
    pub encode_s: f64,
    pub encode_mbps: f64,
    /// Source bytes recovered per second of decoder calls.
    pub decode_mbps: f64,
    /// Mean decoder time per datagram fed, over the same sequence.
    pub decode_ns_per_datagram: f64,
    /// Mean received / k over seeded random reception orders.
    pub overhead: f64,
}

const OVERHEAD_TRIALS: u64 = 20;

impl CodecProbe {
    /// From the measured times at `(k, payload)`: `fed` datagrams went into
    /// the decoder, and the overhead trials summed to `overhead_sum`.
    fn new(
        (k, payload): (usize, usize),
        (build_s, encode_s, decode_s): (f64, f64, f64),
        fed: usize,
        overhead_sum: f64,
    ) -> CodecProbe {
        let mb = (k * payload) as f64 / 1e6;
        CodecProbe {
            build_s,
            encode_s,
            encode_mbps: mb / encode_s,
            decode_mbps: mb / decode_s,
            decode_ns_per_datagram: decode_s * 1e9 / fed as f64,
            overhead: overhead_sum / OVERHEAD_TRIALS as f64,
        }
    }
}

/// Tornado A at the workload's `(k, payload)`: `with_profile`, `encode`, and
/// `decoder().add_packet_ref` over the reception sequence one of the
/// workload's receivers sees from a flat carousel of such a file (the same
/// layers, hence the same emission order, and the same loss).
pub fn probe_tornado(spec: &Spec, seed: u64, slice: Duration) -> CodecProbe {
    let (k, payload) = (spec.k(), spec.payload);
    let source = random_packets(k, payload, mix(seed, 1));
    let build_s = repeat(slice, || {
        seconds(|| {
            black_box(TornadoCode::with_profile(k, TORNADO_A, seed).expect("profile builds"));
        })
    });
    let code = TornadoCode::with_profile(k, TORNADO_A, seed).expect("profile builds");
    let encode_s = repeat(slice, || {
        seconds(|| {
            black_box(code.encode(&source).expect("encodes"));
        })
    });

    // The reception sequence: the carousel's own emission order, thinned by
    // the receiver's loss, up to the datagram that completes the decode.
    let file: Vec<u8> = source.concat();
    let config = SessionConfig {
        rateless: RatelessMode::Off,
        ..session_config(spec, seed)
    };
    let mut session = Source::Session(Box::new(
        ServerSession::new(&file, config).expect("session encodes"),
    ));
    let mut draws = SplitMix64::new(mix(seed, 2));
    let mut marks = code.symbolic_decoder();
    let mut sequence: Vec<(usize, Bytes)> = Vec::new();
    while !marks.is_complete() {
        let (_group, datagram) = session.poll();
        if draws.chance(spec.loss) {
            continue;
        }
        let header = PacketHeader::decode(&datagram).expect("framed by the session");
        let index = header.packet_index as usize;
        marks.add_packet(index, Mark).expect("index in range");
        sequence.push((index, datagram));
    }
    drop(session);
    let payloads: Vec<(usize, Vec<u8>)> = sequence
        .iter()
        .map(|(i, d)| (*i, d[HEADER_LEN..].to_vec()))
        .collect();
    drop(sequence);
    let decode_s = repeat(slice, || {
        seconds(|| {
            let mut decoder = code.decoder();
            for (index, payload) in &payloads {
                decoder
                    .add_packet_ref(*index, payload)
                    .expect("valid packet");
            }
            assert!(decoder.is_complete(), "the recorded sequence decodes");
            black_box(decoder.source());
        })
    });

    let mut overhead = 0.0;
    for trial in 0..OVERHEAD_TRIALS {
        let mut order: Vec<usize> = (0..code.n()).collect();
        SplitMix64::new(mix(seed, 0x0e00 + trial)).shuffle(&mut order);
        let needed = code
            .symbolic_decoder()
            .run_until_complete(order)
            .expect("the whole encoding decodes");
        overhead += needed as f64 / k as f64;
    }
    CodecProbe::new(
        (k, payload),
        (build_s, encode_s, decode_s),
        payloads.len(),
        overhead,
    )
}

/// Raptor at `(k, payload)`: `RaptorCode::new` + `precode_symbols` (what a
/// rateless session pays at construction), `encode_symbol`, and
/// `decoder().add_symbol` over consecutive seeds thinned by `loss`.
pub fn probe_raptor(k: usize, payload: usize, loss: f64, seed: u64, slice: Duration) -> CodecProbe {
    let source = random_packets(k, payload, mix(seed, 3));
    let build_s = repeat(slice, || {
        seconds(|| {
            let code = RaptorCode::new(k, seed).expect("raptor builds");
            black_box(code.precode_symbols(&source).expect("precodes"));
        })
    });
    let code = RaptorCode::new(k, seed).expect("raptor builds");
    let intermediates = code.precode_symbols(&source).expect("precodes");
    let symbol = |s: u64| code.encode_symbol(s, &intermediates).expect("encodes");
    let encode_s = repeat(slice, || {
        seconds(|| {
            for s in 0..k as u64 {
                black_box(symbol(s));
            }
        })
    });

    let mut draws = SplitMix64::new(mix(seed, 4));
    let mut marks = code.symbolic_decoder();
    let mut symbols: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut next = 0u64;
    while !marks.is_complete() {
        let s = next;
        next += 1;
        if draws.chance(loss) {
            continue;
        }
        marks.add_mark(s).expect("seed accepted");
        symbols.push((s, symbol(s)));
    }
    let decode_s = repeat(slice, || {
        let feed = symbols.clone();
        seconds(|| {
            let mut decoder = code.decoder();
            for (s, payload) in feed {
                decoder.add_symbol(s, payload).expect("valid symbol");
            }
            assert!(decoder.is_complete(), "the recorded sequence decodes");
            black_box(decoder.source());
        })
    });

    let mut overhead = 0.0;
    for trial in 0..OVERHEAD_TRIALS {
        let mut marks = code.symbolic_decoder();
        let mut s = mix(seed, 0x0f00 + trial) >> 1;
        while marks.add_mark(s).expect("seed accepted") != AddOutcome::Complete {
            s += 1;
        }
        overhead += marks.received_total() as f64 / k as f64;
    }
    CodecProbe::new(
        (k, payload),
        (build_s, encode_s, decode_s),
        symbols.len(),
        overhead,
    )
}

/// Plain LT at the same `(k, payload)`: `encode_symbol` and
/// `LtDecoder::add_symbol`, no precode.
pub fn probe_lt(k: usize, payload: usize, loss: f64, seed: u64, slice: Duration) -> CodecProbe {
    let source = random_packets(k, payload, mix(seed, 5));
    let encoder =
        LtEncoder::new(k, LT_DEFAULT_C, LT_DEFAULT_DELTA, seed).expect("soliton parameters");
    let symbol = |s: u64| encoder.encode_symbol(s, &source).expect("encodes");
    let encode_s = repeat(slice, || {
        seconds(|| {
            for s in 0..k as u64 {
                black_box(symbol(s));
            }
        })
    });

    let mut draws = SplitMix64::new(mix(seed, 6));
    let mut marks: LtDecoder<Mark> = LtDecoder::new(encoder.clone());
    let mut symbols: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut next = 0u64;
    while !marks.is_complete() {
        let s = next;
        next += 1;
        if draws.chance(loss) {
            continue;
        }
        marks.add_symbol(s, Mark);
        symbols.push((s, symbol(s)));
    }
    let decode_s = repeat(slice, || {
        let feed = symbols.clone();
        seconds(|| {
            let mut decoder: LtDecoder<Vec<u8>> = LtDecoder::new(encoder.clone());
            for (s, payload) in feed {
                decoder.add_symbol(s, payload);
            }
            assert!(decoder.is_complete(), "the recorded sequence decodes");
            black_box(decoder.source());
        })
    });

    let mut overhead = 0.0;
    for trial in 0..OVERHEAD_TRIALS {
        let mut marks: LtDecoder<Mark> = LtDecoder::new(encoder.clone());
        let mut s = mix(seed, 0x1000 + trial) >> 1;
        while marks.add_symbol(s, Mark) != AddOutcome::Complete {
            s += 1;
        }
        overhead += marks.received_total() as f64 / k as f64;
    }
    CodecProbe::new(
        (k, payload),
        (0.0, encode_s, decode_s),
        symbols.len(),
        overhead,
    )
}

/// The paper's baseline: Cauchy Reed–Solomon at `k` = 1000, 1 KiB packets,
/// stretch 2, half the source packets lost; `(encode MB/s, decode MB/s)`.
pub fn probe_cauchy(slice: Duration) -> (f64, f64) {
    const K: usize = 1000;
    const PAYLOAD: usize = 1024;
    let source = random_packets(K, PAYLOAD, 0xca);
    let code = CauchyCode::new_large(K, 2 * K).expect("parameters");
    let mut encoding = Vec::new();
    let encode_s = repeat(slice, || {
        seconds(|| code.encode_into(&source, &mut encoding).expect("encodes"))
    });
    let received: Vec<(usize, &[u8])> = (0..K / 2)
        .chain(K..K + K / 2)
        .map(|i| (i, encoding[i].as_slice()))
        .collect();
    let mut decoded = Vec::new();
    let decode_s = repeat(slice, || {
        seconds(|| code.decode_into(&received, &mut decoded).expect("decodes"))
    });
    assert_eq!(decoded, source, "the baseline reconstructs its input");
    let mb = (K * PAYLOAD) as f64 / 1e6;
    (mb / encode_s, mb / decode_s)
}

/// `FountainServer::handle_control_datagram` answering a Describe, in ns.
pub fn probe_control_reply(slice: Duration) -> f64 {
    let mut server = FountainServer::new();
    server
        .add_session(&[7u8; 4096], SessionConfig::default())
        .expect("session encodes");
    let request = ControlRequest::Describe { session_id: 0 }.to_bytes();
    const CALLS: usize = 10_000;
    repeat(slice, || {
        seconds(|| {
            for _ in 0..CALLS {
                black_box(server.handle_control_datagram(black_box(&request)));
            }
        }) * 1e9
            / CALLS as f64
    })
}

/// Bind `count` loopback sockets on ports the kernel picks.
fn loopback_sockets(count: usize) -> io::Result<Vec<UdpSocket>> {
    (0..count)
        .map(|_| UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)))
        .collect()
}

/// `Poller::wait` over 32 registered sockets of which one is ready, in µs.
///
/// # Errors
///
/// Socket or poller creation failures.
pub fn probe_poller(slice: Duration) -> io::Result<f64> {
    let sockets = loopback_sockets(32)?;
    let poller = polling::Poller::new()?;
    for (key, socket) in sockets.iter().enumerate() {
        poller.add(socket, polling::Event::readable(key))?;
    }
    let sender = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let target = sockets[17].local_addr()?;
    let mut events = Vec::new();
    let mut buf = [0u8; 64];
    const CALLS: usize = 2_000;
    let mut failed = None;
    let us = repeat(slice, || {
        let mut waited = Duration::ZERO;
        for _ in 0..CALLS {
            let io = (|| {
                sender.send_to(b"ready", target)?;
                events.clear();
                let start = Instant::now();
                poller.wait(&mut events, Some(Duration::from_millis(100)))?;
                waited += start.elapsed();
                sockets[17].recv_from(&mut buf)
            })();
            if let Err(e) = io {
                failed = Some(e);
            }
        }
        waited.as_secs_f64() * 1e6 / CALLS as f64
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(us),
    }
}

/// A Describe round trip over a real control socket answered by a
/// `FountainServer` inside a paced one-shard driver, in µs.
///
/// # Errors
///
/// Socket failures, or no answer within a second.
pub fn probe_control_rtt(slice: Duration) -> io::Result<f64> {
    let mut server = FountainServer::new();
    server
        .add_session(&[7u8; 4096], SessionConfig::default())
        .expect("session encodes");
    let control = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let control_addr = control.local_addr()?;
    // The data side goes nowhere: no receiver ever joins the simulated group.
    let net = SimMulticast::new(0);
    let mut driver = DriverConfig::new()
        .shards(1)
        .pacing(Pacing::new(Duration::from_millis(1), 1))
        .build::<df_proto::SimEndpoint>();
    driver.add_fountain_server(server, net.endpoint(0.0), Some(control))?;

    let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    client.set_read_timeout(Some(Duration::from_secs(1)))?;
    let request = ControlRequest::Describe { session_id: 0 }.to_bytes();
    let mut buf = [0u8; 2048];
    let mut round_trip = || -> io::Result<f64> {
        let start = Instant::now();
        client.send_to(&request, control_addr)?;
        let (len, _) = client.recv_from(&mut buf)?;
        let rtt = start.elapsed().as_secs_f64() * 1e6;
        match ControlResponse::from_bytes(&buf[..len]) {
            Some(ControlResponse::Session { .. }) => Ok(rtt),
            other => Err(io::Error::other(format!("unexpected reply {other:?}"))),
        }
    };
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut result = Ok(());
    while samples.len() < 50 || started.elapsed() < slice {
        match round_trip() {
            Ok(rtt) => samples.push(rtt),
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    driver.shutdown()?;
    result.map(|()| median(&samples).expect("at least fifty round trips"))
}

/// Select the poller backend the next driver's shard will create.
pub fn select_poll_backend(backend: Option<&str>) {
    // The shard thread reads the variable when it builds its loop; no other
    // thread of this process exists while it is changed.
    match backend {
        Some(name) => std::env::set_var("DF_POLL_BACKEND", name),
        None => std::env::remove_var("DF_POLL_BACKEND"),
    }
}

/// The kernel tiers the dispatchers picked, for the run's log.
pub fn kernel_tiers() -> (&'static str, &'static str) {
    (
        df_gf::kernels::active_kernel(),
        df_gf::kernels::gf16::active_kernel(),
    )
}

//! The [`Driver`]'s control plane: worker threads and the two channels each
//! one talks over.
//!
//! # Ownership model
//!
//! A [`Driver`] spawns one worker thread per shard, each running its own
//! readiness loop — a lone shard included, so the control thread never has
//! to pump I/O itself and the paced and stepped modes share one engine.  A
//! session registered with the driver is *moved* to its shard — slot,
//! session and transport (with its sockets and multicast memberships) live
//! and die on that one thread, so no lock ever guards a socket and no
//! membership migrates between threads.  The control plane (whichever
//! thread owns the `Driver`) talks to each worker over two unbounded
//! `std::sync::mpsc` channels:
//!
//! * **commands** (control → worker): session adds, step batches, shutdown.
//!   Commands to one shard are FIFO and the control plane assigns each add
//!   its slot, so registration returns a [`SessionHandle`] immediately — no
//!   round-trip; an add that fails on the shard leaves its slot empty and
//!   reports [`DriverEvent::AddFailed`].
//! * **replies** (worker → control): the [`DriverEvent`]s the shard's loop
//!   buffered — completions (carrying the finished session back), failed
//!   joins, failed adds — forwarded as one message after every failed add,
//!   step and paced slice, and a `Stepped` acknowledgement with the shard's
//!   counters after each step batch.  A batch's events precede its ack on
//!   the channel, so a control plane that has read the ack has read every
//!   event the batch produced.
//!
//! Neither side ever blocks on a send.  The control plane blocks only on a
//! worker's reply, which the worker either sends or makes impossible by
//! exiting: its reply sender dies with it, and the control plane's `recv`
//! then reports the disconnect — only after every reply sent before it, so
//! a dead worker's forwarded events are still delivered, and its clients
//! still pending at the disconnect stop counting as pending.  Shutdown is the
//! same path taken on purpose: the worker forwards what is left and exits,
//! the control plane reads to the disconnect, and the join hands back the
//! final counters.  Nothing is bounded because a bound would save nothing:
//! a paced worker's events wait in its loop's own unbounded buffer until
//! forwarded, and a queued add holds a session the caller had already
//! built.
//!
//! # Stepped vs paced workers
//!
//! A **stepped** worker ([`DriverConfig::stepped`]) blocks on its command
//! channel and ticks only on [`Driver::step`] — each shard executes the
//! same step budget and the call returns when every shard acknowledges,
//! giving the deterministic cadence the simulation experiments need.  The
//! caller blocks on each shard's reply channel meanwhile, so a batch never
//! shares a core with a polling control plane.  A **paced** worker runs its
//! loop's wall-clock pacing in 1 ms slices and checks for commands between
//! them; the control plane just drains events ([`Driver::wait_complete`] /
//! [`Driver::poll_events`]).

use crate::client::ClientSession;
use crate::driver::handle::{DriverConfig, DriverEvent, DriverReport, Session, SessionHandle};
use crate::driver::placement::Placer;
use crate::driver::{ShardLoop, ShardStats};
use crate::server::{FountainServer, ServerSession};
use crate::transport::Transport;
use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::UdpSocket;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread;
use std::time::{Duration, Instant};

/// One control-plane instruction to a shard worker.
enum ShardCommand<T> {
    /// Store `session` and its transport at `slot`.
    Add {
        slot: usize,
        session: Session,
        transport: T,
    },
    /// Execute `steps` deterministic loop steps, then reply `Stepped`.
    Step { steps: usize },
    /// Forward what is left and exit, returning the final counters.
    Shutdown,
}

/// What a worker sends back to the control plane.
enum Reply {
    /// What the shard's loop observed since the last forward, in order.
    Events(VecDeque<DriverEvent>),
    /// A `Step` batch finished; the shard's lifetime counters.
    Stepped(ShardStats),
}

/// Send everything `el` buffered to the control plane, as one message: a
/// send may wake the control plane, and a step that completes a whole
/// population should wake it once, not once per client.  A send fails only
/// once the control plane is gone, and then nobody can read the events.
fn forward<T: Transport>(el: &mut ShardLoop<T>, replies: &Sender<Reply>) {
    if !el.events.is_empty() {
        let _ = replies.send(Reply::Events(std::mem::take(&mut el.events)));
    }
}

/// Body of one shard worker thread; returns the shard's final counters.
fn worker_main<T: Transport>(
    shard: usize,
    cfg: DriverConfig,
    commands: Receiver<ShardCommand<T>>,
    replies: Sender<Reply>,
) -> ShardStats {
    let mut el = ShardLoop::new(shard, cfg.pacing);
    loop {
        let command = if cfg.stepped {
            // Ticks come only from Step commands.
            commands.recv().ok()
        } else {
            match commands.try_recv() {
                Ok(command) => Some(command),
                Err(TryRecvError::Disconnected) => None,
                Err(TryRecvError::Empty) => {
                    // Paced mode: run the loop's own wall-clock pacing for a
                    // slice, then come back for commands.  `run` cuts a slice
                    // short when the last pending client completes (and when
                    // the poller fails); never let that turn into a spin.
                    let started = Instant::now();
                    let _ = el.run(Duration::from_millis(1));
                    if started.elapsed() < Duration::from_micros(100) {
                        thread::sleep(Duration::from_micros(200));
                    }
                    forward(&mut el, &replies);
                    continue;
                }
            }
        };
        match command {
            Some(ShardCommand::Add {
                slot,
                session,
                transport,
            }) => {
                if let Err(error) = el.add(slot, session, transport) {
                    el.events.push_back(DriverEvent::AddFailed {
                        handle: el.handle(slot),
                        error: error.to_string(),
                    });
                    forward(&mut el, &replies);
                }
            }
            Some(ShardCommand::Step { steps }) => {
                for _ in 0..steps {
                    el.step();
                    forward(&mut el, &replies);
                }
                let _ = replies.send(Reply::Stepped(el.stats()));
            }
            // A driver dropped without `shutdown` stops its workers too.
            Some(ShardCommand::Shutdown) | None => {
                forward(&mut el, &replies);
                return el.stats();
            }
        }
    }
}

/// Control-plane handle to one shard worker.
struct ShardHandle<T> {
    commands: Sender<ShardCommand<T>>,
    replies: Receiver<Reply>,
    thread: thread::JoinHandle<ShardStats>,
    /// Slot the next session registered on this shard is stored at.
    next_slot: usize,
}

/// The I/O engine: N shard workers behind handle-based registration and
/// drainable events.  Built via [`DriverConfig::build`].
///
/// Each shard is one worker thread that owns its sessions and their sockets
/// outright.  The driver talks to it over one command channel and one reply
/// channel, and blocks on nothing but a worker's reply — which a dead worker
/// turns into an error rather than a hang.  See the
/// [module docs](crate::driver) for slots, pacing and readiness.
pub struct Driver<T: Transport + Send + 'static> {
    shards: Vec<ShardHandle<T>>,
    placer: Placer,
    /// Drained but not yet polled events.
    pending: Vec<DriverEvent>,
    /// Handles of client sessions still downloading on a live shard (used
    /// to classify `AddFailed` events, which can also come from server
    /// adds).
    live_handles: HashSet<SessionHandle>,
    registered_clients: usize,
    completed_clients: usize,
    /// Latest lifetime counters per shard (refreshed by acks and shutdown).
    shard_stats: Vec<ShardStats>,
}

impl<T: Transport + Send + 'static> Driver<T> {
    pub(crate) fn new(cfg: DriverConfig) -> Driver<T> {
        let shards = (0..cfg.shards)
            .map(|shard| {
                let (commands, command_rx) = mpsc::channel();
                let (reply_tx, replies) = mpsc::channel();
                let thread = thread::Builder::new()
                    .name(format!("df-shard-{shard}"))
                    .spawn(move || worker_main(shard, cfg, command_rx, reply_tx))
                    .expect("spawning a shard worker thread");
                ShardHandle {
                    commands,
                    replies,
                    thread,
                    next_slot: 0,
                }
            })
            .collect();
        Driver {
            shards,
            placer: Placer::new(cfg.shards),
            pending: Vec::new(),
            live_handles: HashSet::new(),
            registered_clients: 0,
            completed_clients: 0,
            shard_stats: vec![ShardStats::default(); cfg.shards],
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Registered session count per shard.
    pub fn shard_counts(&self) -> &[usize] {
        self.placer.counts()
    }

    /// Register a client on the least-loaded shard.
    ///
    /// # Errors
    ///
    /// Fails if the owning worker has exited.  (A refused initial join
    /// surfaces asynchronously as [`DriverEvent::AddFailed`] — the add
    /// itself happens on the shard.)
    pub fn add_client(
        &mut self,
        session: ClientSession,
        transport: T,
    ) -> io::Result<SessionHandle> {
        self.register(None, Session::Client(Box::new(session)), transport)
    }

    /// Register a single carousel session, as the one-session
    /// [`FountainServer`] it is, on the least-loaded shard.
    ///
    /// # Errors
    ///
    /// Fails if the owning worker has exited.
    pub fn add_server_session(
        &mut self,
        session: ServerSession,
        transport: T,
    ) -> io::Result<SessionHandle> {
        self.add_fountain_server(session.into(), transport, None)
    }

    /// Register a [`FountainServer`] (optionally with its control socket)
    /// on the least-loaded shard.
    ///
    /// # Errors
    ///
    /// Fails if the owning worker has exited.
    pub fn add_fountain_server(
        &mut self,
        server: FountainServer,
        transport: T,
        control: Option<UdpSocket>,
    ) -> io::Result<SessionHandle> {
        let server = Box::new(server);
        self.register(None, Session::Server { server, control }, transport)
    }

    /// Register any [`Session`] on an explicit shard (recorded against the
    /// shard loads).  A server added here is paced like every other, at the
    /// driver's [`DriverConfig::pacing`].  This is how a server and its own
    /// receivers are kept on one shard, or one carousel is replicated onto
    /// every shard's channel.
    ///
    /// # Errors
    ///
    /// Fails if `shard` does not exist or its worker has exited.
    pub fn add_on(
        &mut self,
        shard: usize,
        session: Session,
        transport: T,
    ) -> io::Result<SessionHandle> {
        self.register(Some(shard), session, transport)
    }

    /// The one registration path: pick (or check) the shard, assign the next
    /// slot there, and send the add.
    fn register(
        &mut self,
        shard: Option<usize>,
        session: Session,
        transport: T,
    ) -> io::Result<SessionHandle> {
        let weight = session.placement_weight();
        let shard = match shard {
            Some(shard) if shard < self.shards.len() => {
                self.placer.record(shard, weight);
                shard
            }
            Some(shard) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("no such shard {shard} (driver has {})", self.shards.len()),
                ))
            }
            None => self.placer.place(weight),
        };
        let is_client = matches!(session, Session::Client(_));
        let handle = SessionHandle::new(shard, self.shards[shard].next_slot);
        self.shards[shard].next_slot += 1;
        let add = ShardCommand::Add {
            slot: handle.token(),
            session,
            transport,
        };
        self.shards[shard]
            .commands
            .send(add)
            .map_err(|_| worker_gone(shard))?;
        if is_client {
            self.live_handles.insert(handle);
            self.registered_clients += 1;
        }
        Ok(handle)
    }

    /// Drive every shard through `steps` deterministic loop steps
    /// (stepped-mode drivers; paced workers tick themselves).  Returns when
    /// all shards acknowledge, with every event the batch produced already
    /// counted — a caller looping `step(1)` until
    /// [`Driver::all_clients_complete`] stops on exactly the step that
    /// finished the last download.
    ///
    /// # Errors
    ///
    /// Fails if a worker exited.  The live shards still run the batch, and
    /// every event the dead one forwarded before it exited is still
    /// delivered through [`Driver::poll_events`].
    pub fn step(&mut self, steps: usize) -> io::Result<()> {
        // Send every command before awaiting any ack: the shards tick
        // concurrently.  A send to a dead worker fails, and so does the wait
        // for its ack.
        for shard in &self.shards {
            let _ = shard.commands.send(ShardCommand::Step { steps });
        }
        let mut result = Ok(());
        for shard in 0..self.shards.len() {
            if let Err(e) = self.await_ack(shard) {
                result = Err(e);
            }
        }
        result
    }

    /// Read `shard`'s replies, buffering its events, until it acknowledges a
    /// step batch (`Ok`) or has exited (`Err`).
    fn await_ack(&mut self, shard: usize) -> io::Result<()> {
        loop {
            let reply = self.shards[shard].replies.recv();
            match reply {
                Ok(Reply::Events(events)) => events.into_iter().for_each(|e| self.buffer(e)),
                Ok(Reply::Stepped(stats)) => {
                    self.shard_stats[shard] = stats;
                    return Ok(());
                }
                Err(mpsc::RecvError) => {
                    self.worker_exited(shard);
                    return Err(worker_gone(shard));
                }
            }
        }
    }

    /// `shard`'s reply channel has disconnected, so every reply it sent has
    /// been read: a client still pending there will never complete.  It
    /// stops counting as pending — and never counts as completed.
    fn worker_exited(&mut self, shard: usize) {
        self.live_handles.retain(|handle| handle.shard() != shard);
    }

    /// Block until no registered client is pending — each has completed,
    /// failed to register, or died with its shard's worker — or `deadline`
    /// elapses (paced-mode drivers).  Returns whether every one of them
    /// completed.  A driver with no clients at all (a pure server) runs to
    /// the deadline.
    pub fn wait_complete(&mut self, deadline: Duration) -> bool {
        let end = Instant::now() + deadline;
        loop {
            self.drain_events();
            if self.registered_clients > 0 && self.all_clients_complete() {
                return self.completed_clients == self.registered_clients;
            }
            if Instant::now() >= end {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drain every buffered [`DriverEvent`].  Each shard's events come in
    /// the order that shard produced them; events of different shards are
    /// in no particular order relative to each other.
    pub fn poll_events(&mut self) -> Vec<DriverEvent> {
        self.drain_events();
        std::mem::take(&mut self.pending)
    }

    /// Clients whose completion events have been observed.
    pub fn completed_clients(&self) -> usize {
        self.completed_clients
    }

    /// True once no registered client is pending: each has completed,
    /// failed to register, or died with its shard's worker.  The control
    /// plane only learns of any of these through the reply channels, so
    /// call [`Driver::poll_events`] /
    /// [`Driver::step`] / [`Driver::wait_complete`] to make progress first.
    pub fn all_clients_complete(&self) -> bool {
        self.live_handles.is_empty()
    }

    /// Merged lifetime counters across shards, as of the latest
    /// acknowledgement (stepped mode) or shutdown.  Paced-mode drivers see
    /// fresh counters only in the final [`DriverReport`].
    pub fn stats(&self) -> ShardStats {
        self.shard_stats
            .iter()
            .fold(ShardStats::default(), |acc, s| acc.merge(*s))
    }

    /// Account for `event` and keep it for [`Driver::poll_events`].
    fn buffer(&mut self, event: DriverEvent) {
        match &event {
            DriverEvent::Completed { handle, .. } => {
                if self.live_handles.remove(handle) {
                    self.completed_clients += 1;
                }
            }
            DriverEvent::AddFailed { handle, .. } => {
                // Only client adds are tracked; a failed server add has no
                // completion accounting to correct.
                self.live_handles.remove(handle);
            }
            DriverEvent::JoinFailed { .. } => {}
        }
        self.pending.push(event);
    }

    /// Take in every reply already waiting, shard by shard.
    fn drain_events(&mut self) {
        for shard in 0..self.shards.len() {
            loop {
                match self.shards[shard].replies.try_recv() {
                    Ok(Reply::Events(events)) => events.into_iter().for_each(|e| self.buffer(e)),
                    Ok(Reply::Stepped(stats)) => self.shard_stats[shard] = stats,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.worker_exited(shard);
                        break;
                    }
                }
            }
        }
    }

    /// Stop every worker, join the threads, and return the final report —
    /// per-shard counters plus every event the caller never drained,
    /// including those a worker forwarded before it died.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; the signature reserves the right to
    /// report worker panics as errors.
    pub fn shutdown(mut self) -> io::Result<DriverReport> {
        self.shutdown_inner();
        Ok(DriverReport {
            shard_stats: std::mem::take(&mut self.shard_stats),
            events: std::mem::take(&mut self.pending),
        })
    }

    fn shutdown_inner(&mut self) {
        for shard in &self.shards {
            let _ = shard.commands.send(ShardCommand::Shutdown);
        }
        // Read each shard up to the disconnect of its exited worker, then
        // take its final counters.  A worker that died keeps the counters
        // it last acknowledged.
        for shard in 0..self.shards.len() {
            while self.await_ack(shard).is_ok() {}
        }
        for (shard, handle) in self.shards.drain(..).enumerate() {
            if let Ok(stats) = handle.thread.join() {
                self.shard_stats[shard] = stats;
            }
        }
    }
}

fn worker_gone(shard: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::BrokenPipe,
        format!("shard {shard} worker exited"),
    )
}

impl<T: Transport + Send + 'static> Drop for Driver<T> {
    fn drop(&mut self) {
        if !self.shards.is_empty() {
            self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::MaybeJoin;
    use crate::driver::Pacing;
    use crate::server::SessionConfig;
    use crate::transport::{Readiness, SimMulticast};
    use crate::{ClientSession, ControlInfo, SimEndpoint};
    use bytes::Bytes;

    fn patterned(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + salt) % 251) as u8).collect()
    }

    /// Step until no client is pending (or `max_steps` ran).
    fn step_to_completion<T: Transport + Send + 'static>(driver: &mut Driver<T>, max_steps: usize) {
        for _ in 0..max_steps {
            if driver.all_clients_complete() {
                break;
            }
            driver.step(1).unwrap();
        }
    }

    /// A carousel of `data` and the control info its clients start from.
    fn carousel(data: &[u8], code_seed: u64, base_group: u32) -> (ServerSession, ControlInfo) {
        let config = SessionConfig {
            code_seed,
            base_group,
            ..SessionConfig::default()
        };
        let session = ServerSession::new(data, config).unwrap();
        let info = session.control_info().clone();
        (session, info)
    }

    /// The completions among `events`.
    fn completed(events: Vec<DriverEvent>) -> Vec<(SessionHandle, Box<ClientSession>)> {
        let completion = |event| match event {
            DriverEvent::Completed { handle, session } => Some((handle, session)),
            _ => None,
        };
        events.into_iter().filter_map(completion).collect()
    }

    fn server(session: ServerSession) -> Session {
        Session::Server {
            server: Box::new(session.into()),
            control: None,
        }
    }

    fn client(info: ControlInfo) -> Session {
        Session::Client(Box::new(ClientSession::new(info).unwrap()))
    }

    /// Tentpole shape: two shards, each owning a full-rate server replica
    /// and its clients on an isolated channel, byte-identical downloads
    /// extracted from Completed events.
    #[test]
    fn two_shards_complete_with_byte_identical_downloads() {
        let data = patterned(50_000, 1);
        let shards = 2;
        let mut driver = DriverConfig::new()
            .shards(shards)
            .pacing(Pacing::new(Duration::from_millis(1), 512))
            .stepped(true)
            .build::<SimEndpoint>();
        let mut handles = Vec::new();
        for shard in 0..shards {
            // Each shard gets its own sim channel and a server replica with
            // the same code seed — the same fountain, sharded.
            let net = SimMulticast::new(40 + shard as u64);
            let (session, info) = carousel(&data, 7, 0);
            driver
                .add_on(shard, server(session), net.endpoint(0.0))
                .unwrap();
            for i in 0..4 {
                let loss = if i % 2 == 0 { 0.0 } else { 0.2 };
                let handle = driver
                    .add_on(shard, client(info.clone()), net.endpoint(loss))
                    .unwrap();
                assert_eq!(handle.shard(), shard);
                handles.push(handle);
            }
        }
        step_to_completion(&mut driver, 20_000);
        assert!(driver.all_clients_complete());
        assert_eq!(driver.completed_clients(), 8);
        let report = driver.shutdown().unwrap();
        assert!(report.total_stats().datagrams_sent > 0);
        let mut done = Vec::new();
        for (handle, session) in completed(report.events) {
            assert_eq!(session.file().unwrap(), &data[..]);
            done.push(handle);
        }
        done.sort();
        handles.sort();
        assert_eq!(done, handles);
    }

    /// Stress: 4 shards × 256 sim sessions placed least-loaded — per-shard
    /// loads stay within the greedy bound and every download is
    /// byte-identical to its source.
    #[test]
    fn four_shard_least_loaded_stress_holds_the_placement_bound() {
        let shards = 4;
        let mut driver = DriverConfig::new()
            .shards(shards)
            .stepped(true)
            .build::<SimEndpoint>();
        let net = SimMulticast::new(77);
        // Four servers with skewed file sizes on distinct group ranges, all
        // on one shared channel.
        let mut infos = Vec::new();
        let mut files = Vec::new();
        for (i, len) in [6_000usize, 12_000, 24_000, 48_000].iter().enumerate() {
            let data = patterned(*len, i);
            let (session, info) = carousel(&data, i as u64 + 1, (i * 8) as u32);
            infos.push(info);
            files.push(data);
            driver
                .add_server_session(session, net.endpoint(0.0))
                .unwrap();
        }
        let mut expect = std::collections::HashMap::new();
        for i in 0..256usize {
            let which = i % 4;
            let handle = driver
                .add_client(
                    ClientSession::new(infos[which].clone()).unwrap(),
                    net.endpoint(0.0),
                )
                .unwrap();
            expect.insert(handle, which);
        }
        // Greedy least-loaded bound: spread ≤ the largest single weight.
        let max_weight = infos.iter().map(|i| i.n.max(i.k)).max().unwrap();
        let loads = driver.placer.loads();
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(
            max - min <= max_weight,
            "placement bound violated: loads {loads:?}, max weight {max_weight}"
        );
        assert!(
            driver.shard_counts().iter().all(|&c| c > 0),
            "every shard must own sessions: {:?}",
            driver.shard_counts()
        );
        step_to_completion(&mut driver, 40_000);
        assert!(driver.all_clients_complete(), "stress population stalled");
        assert_eq!(driver.completed_clients(), 256);
        let report = driver.shutdown().unwrap();
        let done = completed(report.events);
        assert_eq!(done.len(), 256);
        for (handle, session) in done {
            assert_eq!(session.file().unwrap(), &files[expect[&handle]][..]);
        }
    }

    /// Paced mode: workers tick on their own wall clocks; the control plane
    /// only waits and drains.
    #[test]
    fn paced_driver_completes_without_stepping() {
        let data = patterned(30_000, 3);
        let net = SimMulticast::new(60);
        let (session, info) = carousel(&data, 9, 0);
        let mut driver = DriverConfig::new()
            .shards(1)
            .pacing(Pacing::new(Duration::from_millis(1), 512))
            .build::<SimEndpoint>();
        driver
            .add_server_session(session, net.endpoint(0.0))
            .unwrap();
        for _ in 0..3 {
            driver
                .add_client(ClientSession::new(info.clone()).unwrap(), net.endpoint(0.0))
                .unwrap();
        }
        assert!(
            driver.wait_complete(Duration::from_secs(30)),
            "paced download timed out"
        );
        let done = completed(driver.poll_events());
        assert_eq!(done.len(), 3);
        for (_handle, session) in done {
            assert_eq!(session.file().unwrap(), &data[..]);
        }
        driver.shutdown().unwrap();
    }

    /// Undrained events survive shutdown: the teardown handoff delivers them
    /// in the final report instead of losing them.
    #[test]
    fn shutdown_delivers_undrained_events_in_the_report() {
        let net = SimMulticast::new(61);
        let (session, info) = carousel(&patterned(15_000, 4), 0, 0);
        let mut driver = DriverConfig::new()
            .shards(2)
            .stepped(true)
            .build::<SimEndpoint>();
        driver
            .add_on(0, server(session), net.endpoint(0.0))
            .unwrap();
        let handle = driver.add_on(1, client(info), net.endpoint(0.0)).unwrap();
        step_to_completion(&mut driver, 10_000);
        // Deliberately do NOT poll_events: shutdown must hand them over.
        let done = completed(driver.shutdown().unwrap().events);
        assert!(done.iter().any(|(h, _)| *h == handle));
    }

    /// A refused initial join surfaces as AddFailed under the handle the add
    /// returned, its slot stays empty, and every later session on the same
    /// shard — explicit-shard or policy-placed — stays correctly addressed.
    #[test]
    fn failed_add_leaves_later_handles_correctly_addressed() {
        let data = patterned(15_000, 5);
        let net = SimMulticast::new(62);
        let (session, info) = carousel(&data, 0, 0);
        let mut driver = DriverConfig::new()
            .shards(1)
            .stepped(true)
            .build::<MaybeJoin>();
        driver
            .add_on(0, server(session), MaybeJoin::on(&net, |_| true))
            .unwrap();
        let bad = driver
            .add_on(0, client(info.clone()), MaybeJoin::on(&net, |_| false))
            .unwrap();
        let placed = driver
            .add_client(
                ClientSession::new(info.clone()).unwrap(),
                MaybeJoin::on(&net, |_| true),
            )
            .unwrap();
        let pinned = driver
            .add_on(0, client(info), MaybeJoin::on(&net, |_| true))
            .unwrap();
        assert_eq!(
            [bad.token(), placed.token(), pinned.token()],
            [1, 2, 3],
            "slots are assigned in registration order, failed or not"
        );
        step_to_completion(&mut driver, 10_000);
        assert!(driver.all_clients_complete());
        assert_eq!(driver.completed_clients(), 2);
        let events = driver.poll_events();
        assert!(events.iter().any(
            |e| matches!(e, DriverEvent::AddFailed { handle, error } if *handle == bad && error.contains("join refused"))
        ));
        let done = completed(events);
        for good in [placed, pinned] {
            let (_, session) = done.iter().find(|(h, _)| *h == good).unwrap();
            assert_eq!(session.file().unwrap(), &data[..]);
        }
        driver.shutdown().unwrap();
    }

    /// `wait_complete` and `all_clients_complete` agree: when every
    /// registered client fails to add, nothing is pending, so the wait
    /// returns (false — nobody completed) instead of sleeping out its
    /// deadline.
    #[test]
    fn wait_complete_returns_once_every_client_failed_to_add() {
        let net = SimMulticast::new(63);
        let (session, info) = carousel(&patterned(15_000, 6), 0, 0);
        let mut driver = DriverConfig::new().shards(1).build::<MaybeJoin>();
        driver
            .add_server_session(session, MaybeJoin::on(&net, |_| true))
            .unwrap();
        for _ in 0..2 {
            driver
                .add_client(
                    ClientSession::new(info.clone()).unwrap(),
                    MaybeJoin::on(&net, |_| false),
                )
                .unwrap();
        }
        let deadline = Duration::from_secs(60);
        let started = Instant::now();
        assert!(!driver.wait_complete(deadline), "no client completed");
        assert!(
            started.elapsed() < deadline / 4,
            "wait_complete slept toward its deadline with nothing pending"
        );
        assert!(driver.all_clients_complete());
        assert_eq!(driver.completed_clients(), 0);
        driver.shutdown().unwrap();
    }

    /// A sim endpoint whose `try_recv` panics once `left` reaches zero,
    /// killing the shard worker that owns it.
    struct PanicsAt {
        inner: SimEndpoint,
        left: usize,
    }

    impl PanicsAt {
        fn healthy(net: &SimMulticast) -> PanicsAt {
            PanicsAt::after(net, usize::MAX)
        }

        fn after(net: &SimMulticast, receives: usize) -> PanicsAt {
            PanicsAt {
                inner: net.endpoint(0.0),
                left: receives,
            }
        }
    }

    impl Transport for PanicsAt {
        fn send(&mut self, group: u32, datagram: Bytes) {
            self.inner.send(group, datagram);
        }
        fn recv(&mut self) -> Option<(u32, Bytes)> {
            self.inner.recv()
        }
        fn try_recv(&mut self) -> Option<(u32, Bytes)> {
            self.left -= 1;
            if self.left == 0 {
                panic!("transport fault injected by the test");
            }
            self.inner.try_recv()
        }
        fn join(&mut self, group: u32) -> io::Result<()> {
            self.inner.join(group)
        }
        fn leave(&mut self, group: u32) {
            self.inner.leave(group);
        }
        fn readiness(&self) -> Readiness {
            self.inner.readiness()
        }
    }

    /// A worker that dies is an error, not a hang: `step` fails at once,
    /// what the worker forwarded before it died still arrives, `shutdown`
    /// returns, and the other shard's clients still complete.  Its own
    /// pending clients stop counting as pending, so neither a stepped
    /// `all_clients_complete` loop nor a paced `wait_complete` waits on them.
    #[test]
    fn a_dead_worker_is_an_error_not_a_hang() {
        let mut driver = DriverConfig::new()
            .shards(2)
            .stepped(true)
            .build::<PanicsAt>();
        // Shard 0: a carousel, a client that finishes on it in a step or
        // two, and a client that listens to a group no server feeds, so its
        // transport is read exactly once per step and panics in step 5.
        let small = patterned(15_000, 7);
        let net = SimMulticast::new(64);
        let (session, info) = carousel(&small, 1, 0);
        let (_, silent) = carousel(&small, 1, 8);
        driver
            .add_on(0, server(session), PanicsAt::healthy(&net))
            .unwrap();
        let finisher = driver
            .add_on(0, client(info), PanicsAt::healthy(&net))
            .unwrap();
        driver
            .add_on(0, client(silent), PanicsAt::after(&net, 5))
            .unwrap();
        // Shard 1: two clients on a channel of their own, fed a file of
        // k = 3 000 packets, more than the batch's 10 ticks of 256 send.
        let large = patterned(1_500_000, 8);
        let net = SimMulticast::new(65);
        let (session, info) = carousel(&large, 2, 0);
        driver
            .add_on(1, server(session), PanicsAt::healthy(&net))
            .unwrap();
        let others: Vec<SessionHandle> = (0..2)
            .map(|_| {
                let transport = PanicsAt::healthy(&net);
                driver.add_on(1, client(info.clone()), transport).unwrap()
            })
            .collect();

        let started = Instant::now();
        assert!(driver.step(10).is_err(), "shard 0 died in this batch");
        assert!(started.elapsed() < Duration::from_secs(10), "step hung");
        assert!(
            completed(driver.poll_events())
                .iter()
                .any(|(handle, _)| *handle == finisher),
            "the completion shard 0 forwarded before it died was lost"
        );
        assert_eq!(
            driver.completed_clients(),
            1,
            "premise: shard 1 is still downloading"
        );
        for _ in 0..10_000 {
            if driver.completed_clients() == 3 {
                break;
            }
            assert!(driver.step(1).is_err(), "shard 0 stays dead");
        }
        assert_eq!(driver.completed_clients(), 3, "shard 1 stalled");
        assert!(
            driver.all_clients_complete(),
            "the client that died with shard 0 still counts as pending"
        );
        let mut events = driver.poll_events();
        let report = driver.shutdown().unwrap();
        assert!(report.shard_stats[1].datagrams_sent > 0);
        events.extend(report.events);
        let done = completed(events);
        for handle in &others {
            let (_, session) = done.iter().find(|(h, _)| h == handle).unwrap();
            assert_eq!(session.file().unwrap(), &large[..]);
        }

        // Paced: shard 0's lone client panics its worker within a few 1 ms
        // slices.  Once shard 1's clients finish nothing is pending, so the
        // wait returns `false` (one client never completed) in milliseconds
        // instead of sleeping out its 10 s deadline.
        let mut driver = DriverConfig::new().shards(2).build::<PanicsAt>();
        let net = SimMulticast::new(66);
        let (_, silent) = carousel(&small, 1, 8);
        driver
            .add_on(0, client(silent), PanicsAt::after(&net, 5))
            .unwrap();
        let net = SimMulticast::new(67);
        let (session, info) = carousel(&patterned(60_000, 8), 2, 0);
        driver
            .add_on(1, server(session), PanicsAt::healthy(&net))
            .unwrap();
        for _ in 0..2 {
            let transport = PanicsAt::healthy(&net);
            driver.add_on(1, client(info.clone()), transport).unwrap();
        }
        let started = Instant::now();
        assert!(!driver.wait_complete(Duration::from_secs(10)));
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "wait_complete slept toward its deadline: {waited:?}"
        );
        assert_eq!(driver.completed_clients(), 2, "shard 1 stalled");
        assert!(driver.all_clients_complete());
        driver.shutdown().unwrap();
    }
}

//! The [`Driver`]'s control plane: worker threads, queues and teardown.
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
//! thread owns the `Driver`) talks to workers exclusively through bounded
//! [queues](crate::driver::queue):
//!
//! * **commands** (control → worker, one queue per shard): session adds,
//!   step batches, shutdown.  Commands to one shard are FIFO and the control
//!   plane assigns each add its slot, so registration returns a
//!   [`SessionHandle`] immediately — no round-trip; an add that fails on the
//!   shard leaves its slot empty and reports [`DriverEvent::AddFailed`].
//! * **acks** (worker → control, one queue per shard): step/shutdown
//!   acknowledgements carrying the shard's counters.  They keep a queue of
//!   their own because the control plane waits on *one shard's* ack while
//!   the event queue interleaves every shard's traffic, and because the
//!   `Stopped` ack is the second half of the teardown handoff below.
//! * **events** (workers → control, one queue shared by all shards):
//!   [`DriverEvent`]s — completions (carrying the finished session back),
//!   failed joins, failed adds.
//!
//! The queues are bounded and loss-free on disconnect (a worker's final
//! flush happens-before its sender drop, so the control plane's
//! `Disconnected` implies it has seen every event).  Workers never block on
//! a full event queue mid-iteration — events wait in the loop's own buffer
//! and flush opportunistically; whatever a stopping worker still cannot
//! flush rides its `Stopped` ack as `leftover`.  That handoff is the
//! model-checked path (`tests/model_check.rs` under `--cfg df_check`).
//!
//! # Stepped vs paced workers
//!
//! In **stepped** mode ([`DriverConfig::stepped`]) workers tick only on
//! [`Driver::step`] — each shard executes the same step budget and the call
//! returns when every shard acknowledges, giving the deterministic cadence
//! the simulation experiments need.  The caller is parked while it waits
//! (each `Step` carries its thread handle and the worker unparks it behind
//! the ack), so a batch never shares a core with a polling control plane.
//! In **paced** mode workers run their loops' wall-clock pacing
//! continuously; the control plane just drains events
//! ([`Driver::wait_complete`] / [`Driver::poll_events`]).

use crate::client::ClientSession;
use crate::driver::handle::{DriverConfig, DriverEvent, DriverReport, Session, SessionHandle};
use crate::driver::placement::Placer;
use crate::driver::queue::{bounded, IntentReceiver, IntentSender, PopError, PushError};
use crate::driver::{Pacing, ShardLoop, ShardStats};
use crate::server::{FountainServer, ServerSession};
use crate::transport::Transport;
use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::UdpSocket;
use std::thread;
use std::time::{Duration, Instant};

/// Shared by all shards; sized for a large completion burst (it only ever
/// backs up if the owner stops draining, and workers buffer past it anyway).
const EVENT_QUEUE_CAP: usize = 4096;
/// Per shard; adds and step batches are control-paced, so small.
const COMMAND_QUEUE_CAP: usize = 256;
/// Per shard; the control plane keeps at most one ack outstanding.
const ACK_QUEUE_CAP: usize = 4;
/// Longest the control plane sleeps in [`Driver::step`] between looks at the
/// ack and event queues when no worker wakes it.
const ACK_PARK: Duration = Duration::from_millis(1);

/// One control-plane instruction to a shard worker.
enum ShardCommand<T> {
    /// Store `session` and its transport at `slot`.
    Add {
        slot: usize,
        session: Session,
        transport: T,
    },
    /// Execute `steps` deterministic loop steps, then acknowledge and wake
    /// `waiter`, the control-plane thread parked in [`Driver::step`].
    Step {
        steps: usize,
        waiter: thread::Thread,
    },
    /// Flush, acknowledge with final counters, and exit.
    Shutdown,
}

/// A worker's acknowledgement back to the control plane.
enum ShardAck {
    /// A `Step` batch finished; `stats` are the shard's lifetime counters.
    Stepped { stats: ShardStats },
    /// The worker tore down.  `leftover` holds events that could not be
    /// flushed through the (bounded) event queue before exit — the other
    /// half of the loss-free teardown handoff.
    Stopped {
        stats: ShardStats,
        leftover: Vec<DriverEvent>,
    },
}

/// Outcome of one [`flush_pending`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushState {
    /// Every pending event was pushed.
    Flushed,
    /// The queue filled; the refused event is back at the *front* of
    /// `pending` (order preserved), retry later.
    Backlogged,
    /// The consumer is gone; `pending` was dropped (nobody can ever read
    /// the events).
    Closed,
}

/// Push buffered events into a bounded sender, preserving order and losing
/// nothing on backpressure.  This is the worker-side half of the teardown
/// handoff protocol the loom suite model-checks, so it is `pub`: the model
/// test drives it directly against a concurrent consumer.
pub fn flush_pending<E>(pending: &mut VecDeque<E>, tx: &IntentSender<E>) -> FlushState {
    while let Some(event) = pending.pop_front() {
        match tx.push(event) {
            Ok(()) => {}
            Err(PushError::Full(event)) => {
                pending.push_front(event);
                return FlushState::Backlogged;
            }
            Err(PushError::Closed(_)) => {
                pending.clear();
                return FlushState::Closed;
            }
        }
    }
    FlushState::Flushed
}

/// Worker-thread state for one shard.
struct Worker<T: Transport> {
    stepped: bool,
    el: ShardLoop<T>,
    events: IntentSender<DriverEvent>,
    acks: IntentSender<ShardAck>,
}

impl<T: Transport> Worker<T> {
    fn add(&mut self, slot: usize, session: Session, transport: T) {
        if let Err(error) = self.el.add(slot, session, transport) {
            self.el.events.push_back(DriverEvent::AddFailed {
                handle: self.el.handle(slot),
                error: error.to_string(),
            });
        }
    }

    /// Run one `Step` batch and acknowledge it.  Events are flushed *before*
    /// the ack, so a control plane that has seen the ack finds every event
    /// the batch produced already in the queue.
    fn run_steps(&mut self, steps: usize, waiter: &thread::Thread) {
        for _ in 0..steps {
            self.el.step();
            if flush_pending(&mut self.el.events, &self.events) == FlushState::Closed {
                break;
            }
        }
        loop {
            match flush_pending(&mut self.el.events, &self.events) {
                FlushState::Flushed | FlushState::Closed => break,
                // The control plane is awaiting our ack and drains events
                // each time it wakes, so waking it here cannot deadlock.
                FlushState::Backlogged => {
                    waiter.unpark();
                    thread::yield_now();
                }
            }
        }
        let mut ack = ShardAck::Stepped {
            stats: self.el.stats(),
        };
        loop {
            match self.acks.push(ack) {
                Ok(()) => break,
                Err(PushError::Full(a)) => {
                    ack = a;
                    thread::yield_now();
                }
                Err(PushError::Closed(_)) => break,
            }
        }
        waiter.unpark();
    }

    /// Teardown handoff: whatever cannot be flushed rides back inside the
    /// `Stopped` ack, so no event is ever stranded (the property the loom
    /// suite proves for the queue half of this protocol).
    fn teardown(mut self) {
        let _ = flush_pending(&mut self.el.events, &self.events);
        let mut ack = ShardAck::Stopped {
            stats: self.el.stats(),
            leftover: self.el.events.drain(..).collect(),
        };
        // The ack ring (capacity 4, at most one outstanding ack) has room in
        // every non-pathological schedule; bounded retry, then give up — the
        // control plane is gone anyway if this fails.
        for _ in 0..64 {
            match self.acks.push(ack) {
                Ok(()) | Err(PushError::Closed(_)) => return,
                Err(PushError::Full(a)) => {
                    ack = a;
                    thread::yield_now();
                }
            }
        }
    }
}

/// Body of one shard worker thread.
fn worker_main<T: Transport>(mut worker: Worker<T>, cmds: IntentReceiver<ShardCommand<T>>) {
    loop {
        loop {
            match cmds.try_pop() {
                Ok(ShardCommand::Shutdown) | Err(PopError::Disconnected) => {
                    worker.teardown();
                    return;
                }
                Ok(ShardCommand::Step { steps, waiter }) => worker.run_steps(steps, &waiter),
                Ok(ShardCommand::Add {
                    slot,
                    session,
                    transport,
                }) => worker.add(slot, session, transport),
                Err(PopError::Empty) => break,
            }
        }
        if worker.stepped {
            // Ticks come only from Step commands; idle briefly between them
            // (short enough that back-to-back step batches stay dense).
            thread::sleep(Duration::from_micros(20));
        } else {
            // Paced mode: run the loop's own wall-clock pacing for a slice,
            // then come back for commands.  `run` cuts a slice short when
            // the last pending client completes (and when the poller
            // fails); never let that turn into a spin.
            let started = Instant::now();
            let _ = worker.el.run(Duration::from_millis(1));
            if started.elapsed() < Duration::from_micros(100) {
                thread::sleep(Duration::from_micros(200));
            }
        }
        let _ = flush_pending(&mut worker.el.events, &worker.events);
    }
}

/// Control-plane handle to one shard worker.
struct ShardHandle<T> {
    cmds: IntentSender<ShardCommand<T>>,
    acks: IntentReceiver<ShardAck>,
    thread: Option<thread::JoinHandle<()>>,
    /// Slot the next session registered on this shard is stored at.
    next_slot: usize,
}

/// The I/O engine: N shard workers behind handle-based registration and a
/// drainable event channel.  Built via [`DriverConfig::build`]; see the
/// [module docs](self) for the ownership and handoff model.
pub struct Driver<T: Transport + Send + 'static> {
    shards: Vec<ShardHandle<T>>,
    events_rx: IntentReceiver<DriverEvent>,
    placer: Placer,
    /// Drained but not yet polled events.
    pending: Vec<DriverEvent>,
    /// Handles of client sessions still downloading (used to classify
    /// `AddFailed` events, which can also come from server adds).
    live_handles: HashSet<SessionHandle>,
    registered_clients: usize,
    completed_clients: usize,
    pacing: Pacing,
    /// Latest lifetime counters per shard (refreshed by acks and shutdown).
    shard_stats: Vec<ShardStats>,
}

impl<T: Transport + Send + 'static> Driver<T> {
    pub(crate) fn new(cfg: DriverConfig) -> Driver<T> {
        let (events_tx, events_rx) = bounded(EVENT_QUEUE_CAP);
        let mut shards = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let (cmd_tx, cmd_rx) = bounded(COMMAND_QUEUE_CAP);
            let (ack_tx, ack_rx) = bounded(ACK_QUEUE_CAP);
            let events = events_tx.clone();
            let stepped = cfg.stepped;
            let thread = thread::Builder::new()
                .name(format!("df-shard-{shard}"))
                .spawn(move || {
                    worker_main(
                        Worker {
                            stepped,
                            el: ShardLoop::new(shard),
                            events,
                            acks: ack_tx,
                        },
                        cmd_rx,
                    )
                })
                .expect("spawning a shard worker thread");
            shards.push(ShardHandle {
                cmds: cmd_tx,
                acks: ack_rx,
                thread: Some(thread),
                next_slot: 0,
            });
        }
        // Workers hold the only event senders: `Disconnected` on the control
        // side therefore means every worker has exited *and* flushed.
        drop(events_tx);
        Driver {
            shards,
            events_rx,
            placer: Placer::new(cfg.shards),
            pending: Vec::new(),
            live_handles: HashSet::new(),
            registered_clients: 0,
            completed_clients: 0,
            pacing: cfg.pacing,
            shard_stats: vec![ShardStats::default(); cfg.shards],
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total registered session weight per shard (clients weigh their `k`,
    /// servers their `n`).
    pub fn shard_loads(&self) -> &[usize] {
        self.placer.loads()
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

    /// Register a single carousel session paced by the *configured* pacing,
    /// on the least-loaded shard.
    ///
    /// # Errors
    ///
    /// Fails if the owning worker has exited.
    pub fn add_server_session(
        &mut self,
        session: ServerSession,
        transport: T,
    ) -> io::Result<SessionHandle> {
        let session = Session::Server {
            session: Box::new(session),
            pacing: self.pacing,
        };
        self.register(None, session, transport)
    }

    /// Register a multi-session [`FountainServer`] (optionally with its
    /// control socket) paced by the configured pacing, on the least-loaded
    /// shard.
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
        let session = Session::Fountain {
            server: Box::new(server),
            control,
            pacing: self.pacing,
        };
        self.register(None, session, transport)
    }

    /// Register any [`Session`] on an explicit shard, with the pacing it
    /// carries (recorded against the shard loads).  This is how one
    /// logical server is replicated across shards at an invariant aggregate
    /// rate: [`Pacing::split`] the budget and add one part per shard.
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
        self.send_cmd(
            shard,
            ShardCommand::Add {
                slot: handle.token(),
                session,
                transport,
            },
        )?;
        if is_client {
            self.live_handles.insert(handle);
            self.registered_clients += 1;
        }
        Ok(handle)
    }

    fn send_cmd(&mut self, shard: usize, cmd: ShardCommand<T>) -> io::Result<()> {
        let mut cmd = cmd;
        loop {
            match self.shards[shard].cmds.push(cmd) {
                Ok(()) => return Ok(()),
                Err(PushError::Full(c)) => {
                    cmd = c;
                    // Keep our side moving while the worker catches up so it
                    // is never blocked flushing events toward us.
                    self.drain_events();
                    thread::yield_now();
                }
                Err(PushError::Closed(_)) => return Err(worker_gone(shard)),
            }
        }
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
    /// Fails if a worker exited (its events, including teardown leftovers,
    /// are still delivered through [`Driver::poll_events`]).
    pub fn step(&mut self, steps: usize) -> io::Result<()> {
        // Send every command before awaiting any ack: the shards tick
        // concurrently.
        for shard in 0..self.shards.len() {
            let waiter = thread::current();
            self.send_cmd(shard, ShardCommand::Step { steps, waiter })?;
        }
        let mut result = Ok(());
        for shard in 0..self.shards.len() {
            if let Err(e) = self.await_ack(shard) {
                result = Err(e);
            }
        }
        // Workers flush a batch's events before its ack; every ack is in.
        self.drain_events();
        result
    }

    /// Record an ack's counters and, from a stopping worker, the events it
    /// could not flush.  True if the worker stopped.
    fn absorb_ack(&mut self, shard: usize, ack: ShardAck) -> bool {
        match ack {
            ShardAck::Stepped { stats } => {
                self.shard_stats[shard] = stats;
                false
            }
            ShardAck::Stopped { stats, leftover } => {
                self.shard_stats[shard] = stats;
                leftover.into_iter().for_each(|event| self.buffer(event));
                true
            }
        }
    }

    fn await_ack(&mut self, shard: usize) -> io::Result<()> {
        loop {
            self.drain_events();
            match self.shards[shard].acks.try_pop() {
                Ok(ack) => {
                    let stopped = self.absorb_ack(shard, ack);
                    return if stopped {
                        Err(worker_gone(shard))
                    } else {
                        Ok(())
                    };
                }
                // Park rather than spin: a batch runs for milliseconds, and
                // a control plane that polls through it takes the worker's
                // core whenever the box has none to spare.  The worker
                // unparks us behind its ack (and when its events back up);
                // the timeout only bounds a wake-up lost to a worker that
                // died mid-batch.
                Err(PopError::Empty) => thread::park_timeout(ACK_PARK),
                Err(PopError::Disconnected) => return Err(worker_gone(shard)),
            }
        }
    }

    /// Block until no registered client is pending — each has completed or
    /// failed to register — or `deadline` elapses (paced-mode drivers).
    /// Returns whether every one of them completed.  A driver with no
    /// clients at all (a pure server) runs to the deadline.
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

    /// Drain every buffered [`DriverEvent`] in arrival order.
    pub fn poll_events(&mut self) -> Vec<DriverEvent> {
        self.drain_events();
        std::mem::take(&mut self.pending)
    }

    /// Clients whose completion events have been observed.
    pub fn completed_clients(&self) -> usize {
        self.completed_clients
    }

    /// True once no registered client is pending: each has completed or
    /// failed to register.  The control plane only learns of either through
    /// the event queue, so call [`Driver::poll_events`] / [`Driver::step`] /
    /// [`Driver::wait_complete`] to make progress first.
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

    fn drain_events(&mut self) {
        while let Ok(event) = self.events_rx.try_pop() {
            self.buffer(event);
        }
    }

    /// Stop every worker, join the threads, and return the final report —
    /// per-shard counters plus every event the caller never drained
    /// (including teardown leftovers; the handoff loses nothing).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; the signature reserves the right to
    /// report join panics as errors.
    pub fn shutdown(mut self) -> io::Result<DriverReport> {
        self.shutdown_inner();
        Ok(DriverReport {
            shard_stats: std::mem::take(&mut self.shard_stats),
            events: std::mem::take(&mut self.pending),
        })
    }

    fn shutdown_inner(&mut self) {
        for shard in 0..self.shards.len() {
            let _ = self.send_cmd(shard, ShardCommand::Shutdown);
        }
        for shard in 0..self.shards.len() {
            loop {
                self.drain_events();
                match self.shards[shard].acks.try_pop() {
                    Ok(ack) => {
                        if self.absorb_ack(shard, ack) {
                            break;
                        }
                    }
                    Err(PopError::Empty) => thread::sleep(Duration::from_micros(50)),
                    Err(PopError::Disconnected) => break,
                }
            }
            if let Some(thread) = self.shards[shard].thread.take() {
                let _ = thread.join();
            }
        }
        // Every worker has exited and flushed; drain the tail.  The queue's
        // disconnect protocol guarantees `Disconnected` only after the last
        // pushed event has been popped.
        self.drain_events();
        self.shards.clear();
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
    use crate::server::SessionConfig;
    use crate::transport::SimMulticast;
    use crate::{ClientSession, ControlInfo, SimEndpoint};

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

    fn server_at(session: ServerSession, datagrams_per_tick: usize) -> Session {
        Session::Server {
            session: Box::new(session),
            pacing: Pacing::new(Duration::from_millis(1), datagrams_per_tick),
        }
    }

    fn client(info: ControlInfo) -> Session {
        Session::Client(Box::new(ClientSession::new(info).unwrap()))
    }

    /// Tentpole shape: two shards, each owning a server replica and its
    /// clients on an isolated channel, byte-identical downloads extracted
    /// from Completed events.
    #[test]
    fn two_shards_complete_with_byte_identical_downloads() {
        let data = patterned(50_000, 1);
        let shards = 2;
        let mut driver = DriverConfig::new()
            .shards(shards)
            .stepped(true)
            .build::<SimEndpoint>();
        let pacing = Pacing::new(Duration::from_millis(1), 512).split(shards);
        let mut handles = Vec::new();
        for (shard, &pacing) in pacing.iter().enumerate() {
            // Each shard gets its own sim channel and a server replica with
            // the same code seed — the same fountain, sharded.
            let net = SimMulticast::new(40 + shard as u64);
            let (session, info) = carousel(&data, 7, 0);
            let session = Session::Server {
                session: Box::new(session),
                pacing,
            };
            driver.add_on(shard, session, net.endpoint(0.0)).unwrap();
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

    /// Satellite regression: splitting one logical server across 1/2/4
    /// shards must not change the aggregate emission rate.
    #[test]
    fn aggregate_emission_rate_is_shard_count_invariant() {
        let data = patterned(20_000, 2);
        let steps = 200;
        let budget = 96;
        let mut totals = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut driver = DriverConfig::new()
                .shards(shards)
                .stepped(true)
                .build::<SimEndpoint>();
            let pacing = Pacing::new(Duration::from_millis(1), budget).split(shards);
            for (shard, &pacing) in pacing.iter().enumerate() {
                let net = SimMulticast::new(50 + shard as u64);
                let session = Session::Server {
                    session: Box::new(carousel(&data, 3, 0).0),
                    pacing,
                };
                driver.add_on(shard, session, net.endpoint(0.0)).unwrap();
            }
            driver.step(steps).unwrap();
            let sent = driver.stats().datagrams_sent;
            totals.push(sent);
            driver.shutdown().unwrap();
        }
        assert_eq!(
            totals,
            vec![(steps * budget) as u64; 3],
            "aggregate emission must be shard-count invariant"
        );
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
        let loads = driver.shard_loads();
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
            .add_on(0, server_at(session, 256), net.endpoint(0.0))
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
            .add_on(0, server_at(session, 256), MaybeJoin::on(&net, |_| true))
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

    #[test]
    fn flush_pending_preserves_order_under_backpressure() {
        let (tx, rx) = bounded::<u32>(2);
        let mut pending: VecDeque<u32> = (0..5).collect();
        assert_eq!(flush_pending(&mut pending, &tx), FlushState::Backlogged);
        assert_eq!(pending.front(), Some(&2), "refused event back at front");
        let mut got = vec![rx.try_pop().unwrap(), rx.try_pop().unwrap()];
        assert_eq!(flush_pending(&mut pending, &tx), FlushState::Backlogged);
        got.push(rx.try_pop().unwrap());
        got.push(rx.try_pop().unwrap());
        assert_eq!(flush_pending(&mut pending, &tx), FlushState::Flushed);
        got.push(rx.try_pop().unwrap());
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        drop(rx);
        pending.push_back(9);
        assert_eq!(flush_pending(&mut pending, &tx), FlushState::Closed);
        assert!(pending.is_empty());
    }
}

//! The sharded driver: N per-core event loops behind one facade.
//!
//! # Ownership model
//!
//! A [`Driver`] spawns one worker thread per shard, each running its own
//! [`EventLoop`].  A session registered with the driver is *moved* to its
//! shard — slot, session and transport (with its sockets and multicast
//! memberships) live and die on that one thread, so no lock ever guards a
//! socket and no membership migrates between threads.  The control plane
//! (whichever thread owns the `Driver`) talks to workers exclusively through
//! three bounded [`IntentQueue`](crate::driver::queue)s per shard:
//!
//! * **commands** (control → worker): session adds, step batches, shutdown;
//! * **acks** (worker → control): step/shutdown acknowledgements carrying
//!   the shard's loop counters;
//! * **events** (workers → control, one queue shared by all shards):
//!   [`DriverEvent`]s — completions (carrying the finished session back),
//!   failed joins, failed adds.
//!
//! The queues are the PR 9 `IntentQueue`: bounded, loss-free on disconnect
//! (a worker's final flush happens-before its sender drop, so the control
//! plane's `Disconnected` implies it has seen every event).  Workers never
//! block on a full event queue mid-iteration — events buffer in a local
//! `pending` deque and flush opportunistically; the teardown handoff is the
//! model-checked path (`tests/model_check.rs` under `--cfg df_check`).
//!
//! # Token prediction
//!
//! Commands to one shard are FIFO, and an `EventLoop` assigns tokens
//! sequentially, so the control plane *predicts* each session's
//! [`Token`] at registration time and returns a [`SessionHandle`]
//! immediately — no round-trip.  When an add fails on the worker (an
//! initial join refused), the worker burns the predicted token on a vacant
//! slot to stay aligned and reports [`DriverEvent::AddFailed`].
//!
//! # Stepped vs paced workers
//!
//! In **stepped** mode ([`DriverConfig::stepped`]) workers tick only on
//! [`Driver::step`] — each shard executes the same step budget and the call
//! returns when every shard acknowledges, giving the deterministic cadence
//! the simulation experiments need.  The caller is parked while it waits
//! (each `Step` carries its thread handle and the worker unparks it behind
//! the ack), so a batch never shares a core with a polling control plane.
//! In **paced** mode workers run their
//! loops' wall-clock pacing continuously; the control plane just drains
//! events ([`Driver::wait_complete`] / [`Driver::poll_events`]).

use crate::client::ClientSession;
use crate::driver::handle::{DriverConfig, DriverEvent, DriverReport, SessionHandle};
use crate::driver::placement::Placer;
use crate::driver::queue::{bounded, IntentReceiver, IntentSender, PopError, PushError};
use crate::driver::{EventLoop, EventLoopStats, LoopEvent, Pacing, Token};
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
    AddClient {
        token: Token,
        session: Box<ClientSession>,
        transport: T,
    },
    AddServerSession {
        token: Token,
        session: Box<ServerSession>,
        transport: T,
        pacing: Pacing,
    },
    AddFountainServer {
        token: Token,
        server: Box<FountainServer>,
        transport: T,
        control: Option<UdpSocket>,
        pacing: Pacing,
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
    /// A `Step` batch finished; `stats` are the loop's lifetime counters.
    Stepped { stats: EventLoopStats },
    /// The worker tore down.  `leftover` holds events that could not be
    /// flushed through the (bounded) event queue before exit — the other
    /// half of the loss-free teardown handoff.
    Stopped {
        stats: EventLoopStats,
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
    shard: usize,
    stepped: bool,
    el: EventLoop<T>,
    /// Events observed but not yet pushed through the bounded queue.
    pending: VecDeque<DriverEvent>,
    events: IntentSender<DriverEvent>,
    acks: IntentSender<ShardAck>,
}

impl<T: Transport> Worker<T> {
    /// Apply one add command, burning the predicted token on failure so the
    /// control plane's token prediction stays aligned with the loop.
    fn apply(&mut self, cmd: ShardCommand<T>) {
        match cmd {
            ShardCommand::AddClient {
                token,
                session,
                transport,
            } => match self.el.add_client(*session, transport) {
                Ok(actual) => debug_assert_eq!(actual, token, "token prediction drifted"),
                Err(error) => self.burn(token, error),
            },
            ShardCommand::AddServerSession {
                token,
                session,
                transport,
                pacing,
            } => {
                let actual = self.el.add_server_session(*session, transport, pacing);
                debug_assert_eq!(actual, token, "token prediction drifted");
            }
            ShardCommand::AddFountainServer {
                token,
                server,
                transport,
                control,
                pacing,
            } => match self
                .el
                .add_fountain_server(*server, transport, control, pacing)
            {
                Ok(actual) => debug_assert_eq!(actual, token, "token prediction drifted"),
                Err(error) => self.burn(token, error),
            },
            ShardCommand::Step { .. } | ShardCommand::Shutdown => {
                unreachable!("handled by the worker loop")
            }
        }
    }

    fn burn(&mut self, token: Token, error: io::Error) {
        let actual = self.el.push_vacant();
        debug_assert_eq!(actual, token, "token prediction drifted");
        self.pending.push_back(DriverEvent::AddFailed {
            handle: SessionHandle::new(self.shard, token),
            error: error.to_string(),
        });
    }

    /// Move the loop's buffered events into `pending` as [`DriverEvent`]s.
    /// Completions pull the finished session out of its slot; its transport
    /// is dropped *here*, on the owning shard, closing the sockets a
    /// finished receiver no longer needs.
    fn collect_loop_events(&mut self) {
        for event in self.el.poll_events() {
            let event = match event {
                LoopEvent::Completed { token, stats } => {
                    let (session, transport) = self
                        .el
                        .take_client(token)
                        .expect("a Completed event's token holds a client slot");
                    drop(transport);
                    DriverEvent::Completed {
                        handle: SessionHandle::new(self.shard, token),
                        stats,
                        session: Box::new(session),
                    }
                }
                LoopEvent::JoinFailed { token, group } => DriverEvent::JoinFailed {
                    handle: SessionHandle::new(self.shard, token),
                    group,
                },
            };
            self.pending.push_back(event);
        }
    }

    /// Run one `Step` batch and acknowledge it.  Events are flushed *before*
    /// the ack so a control plane that has seen the ack (and keeps draining)
    /// observes every event the batch produced no later than the next
    /// [`Driver::poll_events`].
    fn run_steps(&mut self, steps: usize, waiter: &thread::Thread) {
        for _ in 0..steps {
            self.el.step();
            self.collect_loop_events();
            if flush_pending(&mut self.pending, &self.events) == FlushState::Closed {
                break;
            }
        }
        loop {
            match flush_pending(&mut self.pending, &self.events) {
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
        self.collect_loop_events();
        let _ = flush_pending(&mut self.pending, &self.events);
        let mut ack = ShardAck::Stopped {
            stats: self.el.stats(),
            leftover: self.pending.drain(..).collect(),
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
                Ok(cmd) => worker.apply(cmd),
                Err(PopError::Empty) => break,
            }
        }
        if worker.stepped {
            // Ticks come only from Step commands; idle briefly between them
            // (short enough that back-to-back step batches stay dense).
            thread::sleep(Duration::from_micros(20));
        } else {
            // Paced mode: run the loop's own wall-clock pacing for a slice,
            // then come back for commands.  `run` returns immediately once
            // every client completed, so back off when it does.
            let started = Instant::now();
            let _ = worker.el.run(Duration::from_millis(1));
            worker.collect_loop_events();
            if started.elapsed() < Duration::from_micros(100) {
                thread::sleep(Duration::from_micros(200));
            }
        }
        let _ = flush_pending(&mut worker.pending, &worker.events);
    }
}

/// Control-plane handle to one shard worker.
struct ShardHandle<T> {
    cmds: IntentSender<ShardCommand<T>>,
    acks: IntentReceiver<ShardAck>,
    thread: Option<thread::JoinHandle<()>>,
    /// Next token this shard's loop will assign (see "token prediction").
    next_token: usize,
}

/// The sharded driver facade: N per-core [`EventLoop`] workers behind
/// handle-based registration and a drainable event channel.  Built via
/// [`DriverConfig::build`]; see the [module docs](self) for the ownership
/// and handoff model.
pub struct Driver<T: Transport + Send + 'static> {
    shards: Vec<ShardHandle<T>>,
    events_rx: IntentReceiver<DriverEvent>,
    placer: Placer,
    /// Drained but not yet polled events.
    pending: Vec<DriverEvent>,
    /// Handles of client sessions still downloading (used to classify
    /// `AddFailed` events, which can also come from server adds).
    live_handles: HashSet<SessionHandle>,
    completed_clients: usize,
    pacing: Pacing,
    /// Latest lifetime counters per shard (refreshed by acks and shutdown).
    shard_stats: Vec<EventLoopStats>,
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
                            shard,
                            stepped,
                            el: EventLoop::new(),
                            pending: VecDeque::new(),
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
                next_token: 0,
            });
        }
        // Workers hold the only event senders: `Disconnected` on the control
        // side therefore means every worker has exited *and* flushed.
        drop(events_tx);
        Driver {
            shards,
            events_rx,
            placer: Placer::new(cfg.placement, cfg.shards),
            pending: Vec::new(),
            live_handles: HashSet::new(),
            completed_clients: 0,
            pacing: cfg.pacing,
            shard_stats: vec![EventLoopStats::default(); cfg.shards],
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

    /// Register a client; the placement policy picks its shard.
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
        let info = session.control_info();
        let weight = info.k.max(1);
        let shard = self.placer.place(info.base_group, weight);
        self.client_inner(shard, session, transport)
    }

    /// Register a client on an explicit shard (recorded against the
    /// placement accounting).
    ///
    /// # Errors
    ///
    /// Fails if `shard` does not exist or its worker has exited.
    pub fn add_client_on(
        &mut self,
        shard: usize,
        session: ClientSession,
        transport: T,
    ) -> io::Result<SessionHandle> {
        self.check_shard(shard)?;
        self.placer.record(shard, session.control_info().k.max(1));
        self.client_inner(shard, session, transport)
    }

    fn client_inner(
        &mut self,
        shard: usize,
        session: ClientSession,
        transport: T,
    ) -> io::Result<SessionHandle> {
        let handle = self.predict_handle(shard)?;
        self.send_cmd(
            shard,
            ShardCommand::AddClient {
                token: handle.token(),
                session: Box::new(session),
                transport,
            },
        )?;
        self.live_handles.insert(handle);
        Ok(handle)
    }

    /// Register a single carousel session paced by the *configured*
    /// aggregate pacing; the placement policy picks its shard.  To replicate
    /// one logical server across shards at an invariant aggregate rate, use
    /// [`Pacing::split`] with [`Driver::add_server_session_on`].
    ///
    /// # Errors
    ///
    /// Fails if the owning worker has exited.
    pub fn add_server_session(
        &mut self,
        session: ServerSession,
        transport: T,
    ) -> io::Result<SessionHandle> {
        let info = session.control_info();
        let weight = info.n.max(1);
        let shard = self.placer.place(info.base_group, weight);
        let pacing = self.pacing;
        self.server_inner(shard, session, transport, pacing)
    }

    /// Register a carousel session on an explicit shard with explicit
    /// pacing.
    ///
    /// # Errors
    ///
    /// Fails if `shard` does not exist or its worker has exited.
    pub fn add_server_session_on(
        &mut self,
        shard: usize,
        session: ServerSession,
        transport: T,
        pacing: Pacing,
    ) -> io::Result<SessionHandle> {
        self.check_shard(shard)?;
        self.placer.record(shard, session.control_info().n.max(1));
        self.server_inner(shard, session, transport, pacing)
    }

    fn server_inner(
        &mut self,
        shard: usize,
        session: ServerSession,
        transport: T,
        pacing: Pacing,
    ) -> io::Result<SessionHandle> {
        let handle = self.predict_handle(shard)?;
        self.send_cmd(
            shard,
            ShardCommand::AddServerSession {
                token: handle.token(),
                session: Box::new(session),
                transport,
                pacing,
            },
        )?;
        Ok(handle)
    }

    /// Register a multi-session [`FountainServer`] (optionally with its
    /// control socket) paced by the configured pacing; the placement policy
    /// picks its shard by the server's first session.
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
        let weight = server
            .sessions()
            .iter()
            .map(|s| s.control_info().n)
            .sum::<usize>()
            .max(1);
        let base = server
            .sessions()
            .first()
            .map(|s| s.control_info().base_group)
            .unwrap_or(0);
        let shard = self.placer.place(base, weight);
        let pacing = self.pacing;
        self.fountain_inner(shard, server, transport, control, pacing)
    }

    /// Register a [`FountainServer`] on an explicit shard with explicit
    /// pacing.
    ///
    /// # Errors
    ///
    /// Fails if `shard` does not exist or its worker has exited.
    pub fn add_fountain_server_on(
        &mut self,
        shard: usize,
        server: FountainServer,
        transport: T,
        control: Option<UdpSocket>,
        pacing: Pacing,
    ) -> io::Result<SessionHandle> {
        self.check_shard(shard)?;
        let weight = server
            .sessions()
            .iter()
            .map(|s| s.control_info().n)
            .sum::<usize>()
            .max(1);
        self.placer.record(shard, weight);
        self.fountain_inner(shard, server, transport, control, pacing)
    }

    fn fountain_inner(
        &mut self,
        shard: usize,
        server: FountainServer,
        transport: T,
        control: Option<UdpSocket>,
        pacing: Pacing,
    ) -> io::Result<SessionHandle> {
        let handle = self.predict_handle(shard)?;
        self.send_cmd(
            shard,
            ShardCommand::AddFountainServer {
                token: handle.token(),
                server: Box::new(server),
                transport,
                control,
                pacing,
            },
        )?;
        Ok(handle)
    }

    fn check_shard(&self, shard: usize) -> io::Result<()> {
        if shard < self.shards.len() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("no such shard {shard} (driver has {})", self.shards.len()),
            ))
        }
    }

    fn predict_handle(&mut self, shard: usize) -> io::Result<SessionHandle> {
        self.check_shard(shard)?;
        let handle = &mut self.shards[shard];
        let token = Token(handle.next_token);
        handle.next_token += 1;
        Ok(SessionHandle::new(shard, token))
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
                Err(PushError::Closed(_)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        format!("shard {shard} worker exited"),
                    ))
                }
            }
        }
    }

    /// Drive every shard through `steps` deterministic loop steps
    /// (stepped-mode drivers; paced workers tick themselves).  Returns when
    /// all shards acknowledge; events produced by the batch are buffered for
    /// [`Driver::poll_events`].
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
        result
    }

    fn await_ack(&mut self, shard: usize) -> io::Result<()> {
        loop {
            self.drain_events();
            match self.shards[shard].acks.try_pop() {
                Ok(ShardAck::Stepped { stats }) => {
                    self.shard_stats[shard] = stats;
                    return Ok(());
                }
                Ok(ShardAck::Stopped { stats, leftover }) => {
                    self.shard_stats[shard] = stats;
                    for event in leftover {
                        self.note(&event);
                        self.pending.push(event);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        format!("shard {shard} worker stopped"),
                    ));
                }
                // Park rather than spin: a batch runs for milliseconds, and
                // a control plane that polls through it takes the worker's
                // core whenever the box has none to spare.  The worker
                // unparks us behind its ack (and when its events back up);
                // the timeout only bounds a wake-up lost to a worker that
                // died mid-batch.
                Err(PopError::Empty) => thread::park_timeout(ACK_PARK),
                Err(PopError::Disconnected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        format!("shard {shard} worker exited"),
                    ))
                }
            }
        }
    }

    /// Step all shards until every registered client has completed (or
    /// `max_steps` is exhausted), in chunks so slow shards and the event
    /// drain interleave.  Returns the number of steps executed per shard.
    ///
    /// # Errors
    ///
    /// Propagates worker failures from [`Driver::step`].
    pub fn step_until_complete(&mut self, max_steps: usize) -> io::Result<usize> {
        const CHUNK: usize = 64;
        let mut executed = 0;
        while executed < max_steps {
            self.drain_events();
            if self.live_handles.is_empty() && self.completed_clients > 0 {
                break;
            }
            let steps = CHUNK.min(max_steps - executed);
            self.step(steps)?;
            executed += steps;
        }
        self.drain_events();
        Ok(executed)
    }

    /// Block until every registered client has completed or `deadline`
    /// elapses (paced-mode drivers).  Returns `true` when all completed.
    pub fn wait_complete(&mut self, deadline: Duration) -> bool {
        let end = Instant::now() + deadline;
        loop {
            self.drain_events();
            if self.live_handles.is_empty() && self.completed_clients > 0 {
                return true;
            }
            if Instant::now() >= end {
                return self.live_handles.is_empty() && self.completed_clients > 0;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drain every buffered [`DriverEvent`] in arrival order.
    pub fn poll_events(&mut self) -> Vec<DriverEvent> {
        self.drain_events();
        std::mem::take(&mut self.pending)
    }

    /// Clients registered and not yet completed (or failed to add).
    pub fn pending_clients(&self) -> usize {
        self.live_handles.len()
    }

    /// Clients whose completion events have been observed.
    pub fn completed_clients(&self) -> usize {
        self.completed_clients
    }

    /// True once every registered client has completed or failed.  Note the
    /// control plane only learns of completions through the event queue, so
    /// call [`Driver::poll_events`] / [`Driver::step`] /
    /// [`Driver::wait_complete`] to make progress first.
    pub fn all_clients_complete(&self) -> bool {
        self.live_handles.is_empty()
    }

    /// Merged lifetime counters across shards, as of the latest
    /// acknowledgement (stepped mode) or shutdown.  Paced-mode drivers see
    /// fresh counters only in the final [`DriverReport`].
    pub fn stats(&self) -> EventLoopStats {
        self.shard_stats
            .iter()
            .fold(EventLoopStats::default(), |acc, s| acc.merge(*s))
    }

    fn note(&mut self, event: &DriverEvent) {
        match event {
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
    }

    fn drain_events(&mut self) {
        while let Ok(event) = self.events_rx.try_pop() {
            self.note(&event);
            self.pending.push(event);
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
                    Ok(ShardAck::Stopped { stats, leftover }) => {
                        self.shard_stats[shard] = stats;
                        for event in leftover {
                            self.note(&event);
                            self.pending.push(event);
                        }
                        break;
                    }
                    Ok(ShardAck::Stepped { stats }) => self.shard_stats[shard] = stats,
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
        while let Ok(event) = self.events_rx.try_pop() {
            self.note(&event);
            self.pending.push(event);
        }
        self.shards.clear();
    }
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
    use crate::driver::Placement;
    use crate::server::SessionConfig;
    use crate::transport::SimMulticast;
    use crate::{ClientSession, SimEndpoint};

    fn patterned(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + salt) % 251) as u8).collect()
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
        for (shard, &shard_pacing) in pacing.iter().enumerate() {
            // Each shard gets its own sim channel and a server replica with
            // the same code seed — the same fountain, sharded.
            let net = SimMulticast::new(40 + shard as u64);
            let session = ServerSession::new(
                &data,
                SessionConfig {
                    code_seed: 7,
                    ..SessionConfig::default()
                },
            )
            .unwrap();
            let info = session.control_info().clone();
            driver
                .add_server_session_on(shard, session, net.endpoint(0.0), shard_pacing)
                .unwrap();
            for i in 0..4 {
                let loss = if i % 2 == 0 { 0.0 } else { 0.2 };
                let handle = driver
                    .add_client_on(
                        shard,
                        ClientSession::new(info.clone()).unwrap(),
                        net.endpoint(loss),
                    )
                    .unwrap();
                assert_eq!(handle.shard(), shard);
                handles.push(handle);
            }
        }
        driver.step_until_complete(20_000).unwrap();
        assert!(driver.all_clients_complete());
        assert_eq!(driver.completed_clients(), 8);
        let report = driver.shutdown().unwrap();
        assert!(report.total_stats().datagrams_sent > 0);
        let mut completed = Vec::new();
        for event in report.events {
            if let DriverEvent::Completed {
                handle, session, ..
            } = event
            {
                assert_eq!(session.file().unwrap(), &data[..]);
                completed.push(handle);
            }
        }
        completed.sort();
        handles.sort();
        assert_eq!(completed, handles);
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
            for (shard, &shard_pacing) in pacing.iter().enumerate() {
                let net = SimMulticast::new(50 + shard as u64);
                let session = ServerSession::new(
                    &data,
                    SessionConfig {
                        code_seed: 3,
                        ..SessionConfig::default()
                    },
                )
                .unwrap();
                driver
                    .add_server_session_on(shard, session, net.endpoint(0.0), shard_pacing)
                    .unwrap();
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

    /// Satellite stress: 4 shards × 256 sim sessions under least-loaded
    /// placement — per-shard loads stay within the greedy bound and every
    /// download is byte-identical to its source.
    #[test]
    fn four_shard_least_loaded_stress_holds_the_placement_bound() {
        let shards = 4;
        let mut driver = DriverConfig::new()
            .shards(shards)
            .placement(Placement::LeastLoaded)
            .stepped(true)
            .build::<SimEndpoint>();
        let net = SimMulticast::new(77);
        // Four servers with skewed file sizes on distinct group ranges, all
        // on one shared channel.
        let mut infos = Vec::new();
        let mut files = Vec::new();
        for (i, len) in [6_000usize, 12_000, 24_000, 48_000].iter().enumerate() {
            let data = patterned(*len, i);
            let session = ServerSession::new(
                &data,
                SessionConfig {
                    code_seed: i as u64 + 1,
                    base_group: (i * 8) as u32,
                    ..SessionConfig::default()
                },
            )
            .unwrap();
            infos.push(session.control_info().clone());
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
        driver.step_until_complete(40_000).unwrap();
        assert!(driver.all_clients_complete(), "stress population stalled");
        assert_eq!(driver.completed_clients(), 256);
        let report = driver.shutdown().unwrap();
        let mut seen = 0;
        for event in report.events {
            if let DriverEvent::Completed {
                handle, session, ..
            } = event
            {
                let which = expect[&handle];
                assert_eq!(session.file().unwrap(), &files[which][..]);
                seen += 1;
            }
        }
        assert_eq!(seen, 256);
    }

    /// Paced mode: workers tick on their own wall clocks; the control plane
    /// only waits and drains.
    #[test]
    fn paced_driver_completes_without_stepping() {
        let data = patterned(30_000, 3);
        let net = SimMulticast::new(60);
        let session = ServerSession::new(
            &data,
            SessionConfig {
                code_seed: 9,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let info = session.control_info().clone();
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
        let events = driver.poll_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, DriverEvent::Completed { .. }))
                .count(),
            3
        );
        for event in &events {
            if let DriverEvent::Completed { session, .. } = event {
                assert_eq!(session.file().unwrap(), &data[..]);
            }
        }
        driver.shutdown().unwrap();
    }

    /// Undrained events survive shutdown: the teardown handoff delivers them
    /// in the final report instead of losing them.
    #[test]
    fn shutdown_delivers_undrained_events_in_the_report() {
        let data = patterned(15_000, 4);
        let net = SimMulticast::new(61);
        let session = ServerSession::new(&data, SessionConfig::default()).unwrap();
        let info = session.control_info().clone();
        let mut driver = DriverConfig::new()
            .shards(2)
            .stepped(true)
            .build::<SimEndpoint>();
        driver
            .add_server_session_on(
                0,
                session,
                net.endpoint(0.0),
                Pacing::new(Duration::from_millis(1), 256),
            )
            .unwrap();
        let handle = driver
            .add_client_on(1, ClientSession::new(info).unwrap(), net.endpoint(0.0))
            .unwrap();
        driver.step_until_complete(10_000).unwrap();
        // Deliberately do NOT poll_events: shutdown must hand them over.
        let report = driver.shutdown().unwrap();
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, DriverEvent::Completed { handle: h, .. } if *h == handle)));
    }

    /// A refused initial join surfaces as AddFailed (with the predicted
    /// handle) and later sessions on the same shard stay correctly
    /// addressed — token prediction survives the failure.
    #[test]
    fn failed_add_burns_its_token_and_reports() {
        /// Pass-through transport whose joins can be refused wholesale.
        struct MaybeJoin {
            inner: SimEndpoint,
            allow_join: bool,
        }
        impl Transport for MaybeJoin {
            fn send(&mut self, group: u32, datagram: bytes::Bytes) {
                self.inner.send(group, datagram);
            }
            fn recv(&mut self) -> Option<(u32, bytes::Bytes)> {
                self.inner.recv()
            }
            fn join(&mut self, group: u32) -> io::Result<()> {
                if !self.allow_join {
                    return Err(io::Error::other("join refused"));
                }
                self.inner.join(group)
            }
            fn leave(&mut self, group: u32) {
                self.inner.leave(group);
            }
            fn readiness(&self) -> crate::transport::Readiness {
                self.inner.readiness()
            }
        }
        let endpoint = |net: &SimMulticast, allow_join| MaybeJoin {
            inner: net.endpoint(0.0),
            allow_join,
        };
        let data = patterned(15_000, 5);
        let net = SimMulticast::new(62);
        let session = ServerSession::new(&data, SessionConfig::default()).unwrap();
        let info = session.control_info().clone();
        let mut driver = DriverConfig::new()
            .shards(1)
            .stepped(true)
            .build::<MaybeJoin>();
        driver
            .add_server_session_on(
                0,
                session,
                endpoint(&net, true),
                Pacing::new(Duration::from_millis(1), 256),
            )
            .unwrap();
        let bad = driver
            .add_client_on(
                0,
                ClientSession::new(info.clone()).unwrap(),
                endpoint(&net, false),
            )
            .unwrap();
        let good = driver
            .add_client_on(0, ClientSession::new(info).unwrap(), endpoint(&net, true))
            .unwrap();
        assert_ne!(bad.token(), good.token());
        driver.step_until_complete(10_000).unwrap();
        assert!(driver.all_clients_complete());
        assert_eq!(driver.completed_clients(), 1);
        let events = driver.poll_events();
        assert!(events.iter().any(
            |e| matches!(e, DriverEvent::AddFailed { handle, error } if *handle == bad && error.contains("join refused"))
        ));
        assert!(events.iter().any(
            |e| matches!(e, DriverEvent::Completed { handle, session, .. } if *handle == good && session.file().unwrap() == &data[..])
        ));
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

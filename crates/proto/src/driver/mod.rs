//! The I/O driver: every socket, clock and thread the sans-I/O sessions
//! never touch.
//!
//! [`Driver`] is the one public engine.  It owns N shards — one worker
//! thread each, built from a [`DriverConfig`] — and every registered
//! [`Session`] is *moved* to one of them together with its transport.
//! Registration returns a [`SessionHandle`]; everything a session has to
//! report (completion, a failed join, a failed registration) comes back as
//! a [`DriverEvent`] drained with [`Driver::poll_events`].  The control
//! plane, queues and teardown protocol live in [`shard`]; this module holds
//! the loop each shard runs (`ShardLoop`, crate-private) and the value
//! types they share.
//!
//! # Slots
//!
//! A shard stores each session in a **slot** — the index its
//! [`SessionHandle`] carries, assigned by the control plane and never
//! reused.  A slot owns its session *and* its transport: sockets are never
//! shared between sessions, mirroring how each multicast receiver owns its
//! own group memberships.  A client's slot empties at the moment its
//! download completes — the session leaves inside
//! [`DriverEvent::Completed`] and the transport is dropped there, on the
//! owning shard.
//!
//! # Readiness vs. polled transports
//!
//! Each transport reports its [`Readiness`]: socket-backed transports hand
//! over raw fds and the shard sleeps in the `polling` shim (epoll on Linux,
//! `poll(2)` elsewhere — see `DF_POLL_BACKEND`) until one turns readable;
//! in-memory transports ([`crate::SimMulticast`] endpoints) report
//! [`Readiness::Polled`] and are drained on every iteration instead.  The
//! fd set is rebuilt lazily whenever memberships change (joins and leaves
//! open and close sockets), each fd under a dense key that means nothing
//! outside one registration epoch.
//!
//! # Pacing
//!
//! Server slots are rate-paced by a token bucket: every [`Pacing`] interval
//! the slot may emit up to `datagrams_per_tick` datagrams.  Missed ticks are
//! dropped rather than accumulated, so a shard that stalls (or a laptop that
//! sleeps) resumes at the configured rate instead of blasting a catch-up
//! burst.  A *stepped* driver replaces the clock with [`Driver::step`] —
//! exactly one tick per server plus a full drain of every client, in slot
//! order — which is what the deterministic tests and the simulation
//! experiments drive.  When one logical server's carousel is replicated
//! across shards, [`Pacing::split`] divides the per-tick budget so the
//! *aggregate* emission rate is shard-count invariant.
//!
//! # Join/Leave intents and completion
//!
//! Layered [`ClientSession`]s decide subscription changes but never touch
//! sockets; their [`ClientEvent::Join`] / [`ClientEvent::Leave`] intents are
//! executed by the shard, against the slot's own transport.  A failed join
//! is counted ([`ShardStats::join_failures`]), surfaced as
//! [`DriverEvent::JoinFailed`], and otherwise treated as loss, exactly like
//! the channel it models.  On completion a client's groups are left at
//! once: a finished receiver stops consuming multicast bandwidth.

pub mod handle;
mod placement;
pub mod queue;
pub mod shard;

pub use handle::{DriverConfig, DriverEvent, DriverReport, Session, SessionHandle};
pub use shard::Driver;

use crate::client::{ClientEvent, ClientSession};
use crate::server::{FountainServer, ServerSession};
use crate::transport::{Readiness, Transport};
use bytes::Bytes;
use polling::{Event, Poller};
use std::collections::VecDeque;
use std::io;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Rate pacing for a server slot: a token bucket releasing
/// `datagrams_per_tick` datagrams every `interval` of wall-clock time.
///
/// Layered sessions stay correct under any pacing — their serial → round
/// contract is about datagram *order*, which the carousel preserves across
/// tick boundaries — so the budget is denominated in datagrams, the unit the
/// outgoing link actually cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pacing {
    /// Wall-clock interval between transmit ticks.
    pub interval: Duration,
    /// Datagrams released per tick.
    pub datagrams_per_tick: usize,
}

impl Pacing {
    /// A pacing budget of `datagrams_per_tick` per `interval`.
    pub fn new(interval: Duration, datagrams_per_tick: usize) -> Pacing {
        Pacing {
            interval,
            datagrams_per_tick,
        }
    }

    /// Divide this budget across `parts` co-owners of one logical server so
    /// the *aggregate* rate stays exactly this pacing: the per-tick budgets
    /// of the returned pacings sum to `datagrams_per_tick` (the remainder
    /// goes to the lowest-indexed parts), and every part keeps the same
    /// interval.  Token buckets are per-shard, so replicating a carousel
    /// across N shards *without* splitting would multiply the send rate by
    /// N.  A part may receive a zero budget when `parts` exceeds the total
    /// (that share of the carousel sends nothing).
    pub fn split(self, parts: usize) -> Vec<Pacing> {
        let parts = parts.max(1);
        let base = self.datagrams_per_tick / parts;
        let remainder = self.datagrams_per_tick % parts;
        (0..parts)
            .map(|i| Pacing {
                interval: self.interval,
                datagrams_per_tick: base + usize::from(i < remainder),
            })
            .collect()
    }
}

/// Lifetime counters of one shard (see [`DriverReport::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Datagrams emitted by all server slots.
    pub datagrams_sent: u64,
    /// Datagrams drained from client transports (before session validation).
    pub datagrams_received: u64,
    /// Server transmit ticks executed.
    pub ticks: u64,
    /// Join intents whose `Transport::join` failed (treated as loss).
    pub join_failures: u64,
    /// Control datagrams answered.
    pub control_answered: u64,
}

impl ShardStats {
    /// Field-wise sum, for aggregating per-shard counters.
    pub fn merge(self, other: ShardStats) -> ShardStats {
        ShardStats {
            datagrams_sent: self.datagrams_sent + other.datagrams_sent,
            datagrams_received: self.datagrams_received + other.datagrams_received,
            ticks: self.ticks + other.ticks,
            join_failures: self.join_failures + other.join_failures,
            control_answered: self.control_answered + other.control_answered,
        }
    }
}

/// Either kind of carousel a server slot can pump.
enum Carousel {
    Session(Box<ServerSession>),
    Server(FountainServer),
}

impl Carousel {
    /// Next datagram of the never-ending carousel (rounds advance
    /// automatically), or `None` if there are no sessions at all.
    fn poll_transmit(&mut self) -> Option<(u32, Bytes)> {
        match self {
            Carousel::Session(s) => {
                if s.round_complete() {
                    s.advance_round();
                }
                s.poll_transmit()
            }
            Carousel::Server(f) => f.poll_transmit(),
        }
    }
}

struct ServerSlot<T> {
    carousel: Carousel,
    transport: T,
    /// Non-blocking control socket answered on this slot's ticks and on its
    /// readiness events ([`FountainServer`] slots only).
    control: Option<UdpSocket>,
    pacing: Pacing,
    next_tick: Instant,
}

struct ClientSlot<T> {
    session: ClientSession,
    transport: T,
}

enum Slot<T> {
    Server(Box<ServerSlot<T>>),
    Client(Box<ClientSlot<T>>),
}

/// The readiness-driven loop one shard worker runs: any number of server
/// carousels and downloading clients multiplexed over their transports on
/// one thread — the epoll-style server shape of Section 7.1.  See the
/// [module docs](self) for the slot, pacing and readiness semantics.
///
/// The transport type is homogeneous per driver; server and client slots
/// may be mixed freely, including a server and its own thousand clients on
/// one shard — the scale test in `df-sim` does exactly that.
pub(crate) struct ShardLoop<T: Transport> {
    shard: usize,
    slots: Vec<Option<Slot<T>>>,
    poller: Option<Poller>,
    /// Fd registrations must be rebuilt before the next wait (membership or
    /// slot set changed).
    registrations_dirty: bool,
    /// At least one live slot has no fds and must be drained every
    /// iteration.
    has_polled_slots: bool,
    /// Dense poller key → slot index, assigned per registered fd at rebuild
    /// time.
    poll_keys: Vec<usize>,
    events_buf: Vec<Event>,
    /// Events observed and not yet handed to the control plane; the worker
    /// flushes this deque through the bounded event queue.
    pub(super) events: VecDeque<DriverEvent>,
    live_clients: usize,
    stats: ShardStats,
}

impl<T: Transport> ShardLoop<T> {
    /// An empty loop for shard `shard`.
    pub(crate) fn new(shard: usize) -> ShardLoop<T> {
        ShardLoop {
            shard,
            slots: Vec::new(),
            // On platforms without poll(2) the loop degrades to pure
            // tick-paced polling, which every code path below supports.
            poller: Poller::new().ok(),
            registrations_dirty: true,
            has_polled_slots: false,
            poll_keys: Vec::new(),
            events_buf: Vec::new(),
            events: VecDeque::new(),
            live_clients: 0,
            stats: ShardStats::default(),
        }
    }

    /// The handle of `slot` on this shard.
    pub(super) fn handle(&self, slot: usize) -> SessionHandle {
        SessionHandle::new(self.shard, slot)
    }

    /// Store `session` and its transport at `slot`, the index the control
    /// plane assigned.  A server's first tick is due immediately; a
    /// client's currently subscribed groups are joined on `transport` here,
    /// and afterwards the loop tracks the session's Join/Leave intents.
    ///
    /// # Errors
    ///
    /// Fails — leaving the slot empty — if a client's *initial* join fails
    /// (a client that cannot reach the base layer will never receive a
    /// datagram, so this is a setup error, not channel loss) or a control
    /// socket cannot be switched to non-blocking mode.
    pub(crate) fn add(
        &mut self,
        slot: usize,
        session: Session,
        mut transport: T,
    ) -> io::Result<()> {
        let server_slot = |carousel, control, pacing, transport| {
            Slot::Server(Box::new(ServerSlot {
                carousel,
                transport,
                control,
                pacing,
                next_tick: Instant::now(),
            }))
        };
        let occupant = match session {
            Session::Client(session) => {
                for group in session.subscribed_groups() {
                    transport.join(group)?;
                }
                self.live_clients += 1;
                let session = *session;
                Slot::Client(Box::new(ClientSlot { session, transport }))
            }
            Session::Server { session, pacing } => {
                server_slot(Carousel::Session(session), None, pacing, transport)
            }
            Session::Fountain {
                server,
                control,
                pacing,
            } => {
                if let Some(socket) = &control {
                    socket.set_nonblocking(true)?;
                }
                server_slot(Carousel::Server(*server), control, pacing, transport)
            }
        };
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some(occupant);
        self.registrations_dirty = true;
        Ok(())
    }

    /// Lifetime counters.
    pub(crate) fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Rebuild the poller's fd registrations from every occupied slot's
    /// current [`Readiness`], each fd under a fresh *dense* key recorded in
    /// `poll_keys`.  A server slot waits on its control socket only — its
    /// data transport is send-only.
    fn rebuild_registrations(&mut self) {
        self.registrations_dirty = false;
        self.has_polled_slots = false;
        self.poll_keys.clear();
        let Some(poller) = &self.poller else {
            self.has_polled_slots = true;
            return;
        };
        poller.clear();
        for (index, slot) in self.slots.iter().enumerate() {
            let fds: Vec<i32> = match slot {
                None => continue,
                Some(Slot::Server(s)) => s.control.iter().filter_map(control_fd).collect(),
                Some(Slot::Client(c)) => match c.transport.readiness() {
                    Readiness::Sockets(fds) => fds,
                    Readiness::Polled => {
                        self.has_polled_slots = true;
                        continue;
                    }
                },
            };
            for fd in fds {
                let key = self.poll_keys.len();
                poller
                    .add(fd, Event::readable(key))
                    .expect("slots own their sockets, so fds are distinct");
                self.poll_keys.push(index);
            }
        }
    }

    /// Execute one transmit tick on the server slot at `index`: answer any
    /// pending control requests, then emit one pacing budget of datagrams.
    fn tick_server(&mut self, index: usize) {
        let Some(Some(Slot::Server(slot))) = self.slots.get_mut(index) else {
            return;
        };
        self.stats.ticks += 1;
        self.stats.control_answered += answer_control(&mut slot.carousel, slot.control.as_ref());
        for _ in 0..slot.pacing.datagrams_per_tick {
            match slot.carousel.poll_transmit() {
                Some((group, datagram)) => {
                    slot.transport.send(group, datagram);
                    self.stats.datagrams_sent += 1;
                }
                None => break,
            }
        }
    }

    /// Drain one client slot: feed every waiting datagram to the session,
    /// executing subscription intents against the slot's transport.  When
    /// the download finishes the slot is emptied: the session leaves in a
    /// [`DriverEvent::Completed`] and its transport is dropped here, on the
    /// owning shard, closing the sockets a finished receiver no longer
    /// needs.
    fn drain_client(&mut self, index: usize) {
        let handle = self.handle(index);
        let Some(Some(Slot::Client(slot))) = self.slots.get_mut(index) else {
            return;
        };
        let mut membership_changed = false;
        let mut complete = false;
        while let Some((_group, datagram)) = slot.transport.try_recv() {
            self.stats.datagrams_received += 1;
            match slot.session.handle_datagram(datagram) {
                ClientEvent::Join { group } => {
                    membership_changed = true;
                    if slot.transport.join(group).is_err() {
                        // The layer stays subscribed session-side; every
                        // datagram it would have carried is loss, which the
                        // congestion controller will read as such.
                        self.stats.join_failures += 1;
                        self.events
                            .push_back(DriverEvent::JoinFailed { handle, group });
                    }
                }
                ClientEvent::Leave { group } => {
                    membership_changed = true;
                    slot.transport.leave(group);
                }
                ClientEvent::Complete => {
                    // A finished receiver leaves the carousel immediately.
                    for group in slot.session.subscribed_groups() {
                        slot.transport.leave(group);
                    }
                    membership_changed = true;
                    complete = true;
                    break;
                }
                _ => {}
            }
        }
        if complete {
            let Some(Slot::Client(slot)) = self.slots[index].take() else {
                unreachable!("matched as a client slot above");
            };
            self.live_clients -= 1;
            self.events.push_back(DriverEvent::Completed {
                handle,
                session: Box::new(slot.session),
            });
        }
        if membership_changed {
            self.registrations_dirty = true;
        }
    }

    /// One deterministic iteration, free of clocks and sleeps: every server
    /// slot ticks exactly once (in slot order), then every client slot is
    /// drained (in slot order).  Driving the loop exclusively through
    /// `step` yields a bit-identical run for an identical transport trace —
    /// the property the determinism tests pin down — and is how the
    /// simulation experiments pump thousands of sim-backed sessions without
    /// wall-clock pacing.
    pub(crate) fn step(&mut self) {
        for index in 0..self.slots.len() {
            if matches!(self.slots[index], Some(Slot::Server(_))) {
                self.tick_server(index);
            }
        }
        for index in 0..self.slots.len() {
            if matches!(self.slots[index], Some(Slot::Client(_))) {
                self.drain_client(index);
            }
        }
    }

    /// Sleep until a registered socket is readable or `timeout` elapses,
    /// then drain whatever became (or might be) readable.  Polled slots are
    /// always drained.  Returns the number of readiness events that fired.
    ///
    /// # Errors
    ///
    /// Propagates poller failures (which on a healthy system do not occur;
    /// the sleep degrades gracefully on platforms without `poll(2)`).
    fn poll_io(&mut self, timeout: Duration) -> io::Result<usize> {
        if self.registrations_dirty {
            self.rebuild_registrations();
        }
        let mut fired = 0;
        let use_poller = self
            .poller
            .as_ref()
            .is_some_and(|p| !(self.has_polled_slots && p.is_empty()));
        if use_poller {
            // With polled slots in the mix the wait is bounded by the
            // caller's timeout either way; without them it is a genuine
            // readiness sleep.
            let mut events = std::mem::take(&mut self.events_buf);
            self.poller
                .as_ref()
                .expect("checked above")
                .wait(&mut events, Some(timeout))?;
            fired = events.len();
            // Dense keys map back to slots, then slots are dedup'd so one
            // slot with several hot sockets is drained once (the drain
            // empties every socket anyway).
            let mut keys: Vec<usize> = events
                .iter()
                .filter_map(|e| self.poll_keys.get(e.key).copied())
                .collect();
            keys.sort_unstable();
            keys.dedup();
            self.events_buf = events;
            for key in keys {
                match self.slots.get_mut(key) {
                    Some(Some(Slot::Client(_))) => self.drain_client(key),
                    Some(Some(Slot::Server(slot))) => {
                        // Control traffic: answer it now rather than at the
                        // next tick.
                        self.stats.control_answered +=
                            answer_control(&mut slot.carousel, slot.control.as_ref());
                    }
                    _ => {}
                }
            }
        } else if !timeout.is_zero() {
            // Pure-polled mode (or no poller): the timeout is the tick.
            std::thread::sleep(timeout);
        }
        if self.has_polled_slots {
            for index in 0..self.slots.len() {
                if matches!(self.slots[index], Some(Slot::Client(_))) {
                    self.drain_client(index);
                }
            }
        }
        Ok(fired)
    }

    /// Run the wall-clock loop for one `slice`: rate-paced server ticks and
    /// readiness-driven client drains.  Comes back early when the last
    /// pending client has just completed, so the worker can hand that news
    /// over without waiting out the slice; a loop with nothing pending and
    /// nothing to report (a pure server — the deployment shape, where the
    /// carousel never ends) runs the whole slice.
    ///
    /// # Errors
    ///
    /// Propagates poller failures from `poll_io`.
    pub(crate) fn run(&mut self, slice: Duration) -> io::Result<()> {
        let end = Instant::now() + slice;
        // An idle cap so polled transports and late-arriving control traffic
        // are still serviced between distant server ticks.
        const IDLE_CAP: Duration = Duration::from_millis(5);
        let already_buffered = self.events.len();
        loop {
            if self.live_clients == 0 && self.events.len() > already_buffered {
                return Ok(());
            }
            let now = Instant::now();
            if now >= end {
                return Ok(());
            }
            let mut nearest_tick: Option<Instant> = None;
            for index in 0..self.slots.len() {
                let due = match &self.slots[index] {
                    Some(Slot::Server(s)) => {
                        nearest_tick = Some(match nearest_tick {
                            Some(t) => t.min(s.next_tick),
                            None => s.next_tick,
                        });
                        s.next_tick <= now
                    }
                    _ => false,
                };
                if due {
                    self.tick_server(index);
                    if let Some(Some(Slot::Server(s))) = self.slots.get_mut(index) {
                        s.next_tick += s.pacing.interval;
                        if s.next_tick < now {
                            // Ticks missed while we were busy are dropped,
                            // not burst out (see the module docs on pacing).
                            s.next_tick = now;
                        }
                    }
                }
            }
            let now = Instant::now();
            let until_tick = nearest_tick
                .map(|t| t.saturating_duration_since(now))
                .unwrap_or(IDLE_CAP);
            self.poll_io(
                until_tick
                    .min(IDLE_CAP)
                    .min(end.saturating_duration_since(now)),
            )?;
        }
    }
}

/// Fetch the raw fd of a control socket (readiness registration), or `None`
/// on platforms without fds.
fn control_fd(socket: &UdpSocket) -> Option<i32> {
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        Some(socket.as_raw_fd())
    }
    #[cfg(not(unix))]
    {
        let _ = socket;
        None
    }
}

/// Answer every control request currently queued on `control`; returns how
/// many were answered.  Only [`FountainServer`] slots speak the control
/// protocol.
fn answer_control(carousel: &mut Carousel, control: Option<&UdpSocket>) -> u64 {
    let (Carousel::Server(server), Some(socket)) = (carousel, control) else {
        return 0;
    };
    let mut buf = [0u8; 2048];
    let mut answered = 0;
    while let Ok((len, from)) = socket.recv_from(&mut buf) {
        let reply = server.handle_control_datagram(&buf[..len]);
        let _ = socket.send_to(&reply, from);
        answered += 1;
    }
    answered
}

/// What the unit tests read back out of a loop they drive directly.
#[cfg(test)]
impl<T: Transport> ShardLoop<T> {
    /// [`ShardLoop::add`] at the next unused slot, which is returned.
    fn push(&mut self, session: Session, transport: T) -> io::Result<usize> {
        let slot = self.slots.len();
        self.add(slot, session, transport).map(|()| slot)
    }

    fn all_clients_complete(&self) -> bool {
        self.live_clients == 0
    }

    /// The still-downloading client in `slot`, if any.
    fn client(&self, slot: usize) -> Option<&ClientSession> {
        match self.slots.get(slot)?.as_ref()? {
            Slot::Client(c) => Some(&c.session),
            Slot::Server(_) => None,
        }
    }

    /// Rounds transmitted so far by the single-session server in `slot`.
    fn server_rounds(&self, slot: usize) -> Option<usize> {
        match self.slots.get(slot)?.as_ref()? {
            Slot::Server(s) => match &s.carousel {
                Carousel::Session(session) => Some(session.rounds_sent()),
                Carousel::Server(_) => None,
            },
            Slot::Client(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SessionConfig;
    use crate::transport::SimMulticast;
    use crate::ControlInfo;

    fn patterned(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + salt) % 251) as u8).collect()
    }

    fn sim_server(data: &[u8], config: SessionConfig) -> (ServerSession, ControlInfo) {
        let session = ServerSession::new(data, config).unwrap();
        let info = session.control_info().clone();
        (session, info)
    }

    fn server(session: ServerSession, pacing: Pacing) -> Session {
        Session::Server {
            session: Box::new(session),
            pacing,
        }
    }

    fn client(info: ControlInfo) -> Session {
        Session::Client(Box::new(ClientSession::new(info).unwrap()))
    }

    /// Drain the loop's buffered completions as `(slot, session)` pairs.
    fn finished<T: Transport>(el: &mut ShardLoop<T>) -> Vec<(usize, Box<ClientSession>)> {
        el.events
            .drain(..)
            .filter_map(|event| match event {
                DriverEvent::Completed { handle, session } => Some((handle.token(), session)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn one_server_many_clients_single_thread() {
        let data = patterned(60_000, 1);
        let net = SimMulticast::new(3);
        let (session, info) = sim_server(
            &data,
            SessionConfig {
                code_seed: 5,
                ..SessionConfig::default()
            },
        );
        let mut el: ShardLoop<crate::SimEndpoint> = ShardLoop::new(0);
        el.push(
            server(session, Pacing::new(Duration::from_millis(1), 256)),
            net.endpoint(0.0),
        )
        .unwrap();
        let mut slots = Vec::new();
        for i in 0..20 {
            let loss = if i % 2 == 0 { 0.0 } else { 0.25 };
            slots.push(el.push(client(info.clone()), net.endpoint(loss)).unwrap());
        }
        for _ in 0..10_000 {
            el.step();
            if el.all_clients_complete() {
                break;
            }
        }
        assert!(el.all_clients_complete());
        let mut done = finished(&mut el);
        done.sort_by_key(|(slot, _)| *slot);
        assert_eq!(
            done.iter().map(|(slot, _)| *slot).collect::<Vec<_>>(),
            slots
        );
        for (slot, session) in done {
            assert_eq!(session.file().unwrap(), &data[..]);
            assert!(
                el.client(slot).is_none(),
                "a finished client leaves its slot"
            );
        }
        assert!(el.stats().datagrams_sent > 0);
    }

    #[test]
    fn completion_event_is_delivered_exactly_once_with_final_stats() {
        let data = patterned(30_000, 2);
        let net = SimMulticast::new(4);
        let (session, info) = sim_server(&data, SessionConfig::default());
        let mut el: ShardLoop<crate::SimEndpoint> = ShardLoop::new(0);
        el.push(
            server(session, Pacing::new(Duration::from_millis(1), 512)),
            net.endpoint(0.0),
        )
        .unwrap();
        let slot = el.push(client(info), net.endpoint(0.0)).unwrap();
        for _ in 0..5_000 {
            el.step();
            if el.all_clients_complete() {
                break;
            }
        }
        // Extra steps after completion must not buffer another event.
        for _ in 0..20 {
            el.step();
        }
        assert_eq!(el.events.len(), 1, "exactly one event: {:?}", el.events);
        let Some(DriverEvent::Completed { handle, session }) = el.events.pop_front() else {
            panic!("expected Completed");
        };
        assert_eq!(handle, el.handle(slot));
        assert!(session.is_complete());
        assert!(session.stats().distinct() > 0);
    }

    #[test]
    fn pacing_split_preserves_the_aggregate_budget() {
        for (budget, parts) in [(96, 4), (7, 4), (1, 3), (200, 1), (5, 8)] {
            let pacing = Pacing::new(Duration::from_millis(1), budget);
            let split = pacing.split(parts);
            assert_eq!(split.len(), parts);
            let total: usize = split.iter().map(|p| p.datagrams_per_tick).sum();
            assert_eq!(total, budget, "budget {budget} over {parts} parts");
            assert!(split.iter().all(|p| p.interval == pacing.interval));
            let (min, max) = (
                split.iter().map(|p| p.datagrams_per_tick).min().unwrap(),
                split.iter().map(|p| p.datagrams_per_tick).max().unwrap(),
            );
            assert!(max - min <= 1, "split must be even: {split:?}");
        }
    }

    /// Pass-through transport that refuses to join the groups `allow`
    /// rejects, to drive the JoinFailed and AddFailed paths.
    pub(super) struct MaybeJoin {
        inner: crate::SimEndpoint,
        allow: fn(u32) -> bool,
    }

    impl MaybeJoin {
        pub(super) fn on(net: &SimMulticast, allow: fn(u32) -> bool) -> MaybeJoin {
            let inner = net.endpoint(0.0);
            MaybeJoin { inner, allow }
        }
    }

    impl Transport for MaybeJoin {
        fn send(&mut self, group: u32, datagram: Bytes) {
            self.inner.send(group, datagram);
        }
        fn recv(&mut self) -> Option<(u32, Bytes)> {
            self.inner.recv()
        }
        fn join(&mut self, group: u32) -> std::io::Result<()> {
            if !(self.allow)(group) {
                return Err(std::io::Error::other("join refused"));
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

    #[test]
    fn failed_joins_surface_as_events_and_counters() {
        let data = patterned(120_000, 6);
        let net = SimMulticast::new(21);
        let (session, info) = sim_server(
            &data,
            SessionConfig {
                layers: 6,
                code_seed: 3,
                sp_interval: 2,
                burst_rounds: 1,
                ..SessionConfig::default()
            },
        );
        let n = session.code().unwrap().n();
        let mut el: ShardLoop<MaybeJoin> = ShardLoop::new(0);
        el.push(
            server(session, Pacing::new(Duration::from_millis(1), 2 * n)),
            MaybeJoin::on(&net, |_| true),
        )
        .unwrap();
        // The client can join only the base layer; every upgrade attempt
        // fails at the transport.
        let slot = el
            .push(client(info), MaybeJoin::on(&net, |group| group == 0))
            .unwrap();
        for _ in 0..2_000 {
            el.step();
            if el.all_clients_complete() {
                break;
            }
        }
        assert!(el.all_clients_complete(), "base layer alone must suffice");
        let events = Vec::from(std::mem::take(&mut el.events));
        let failed: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                DriverEvent::JoinFailed { handle, group } => Some((handle.token(), *group)),
                _ => None,
            })
            .collect();
        assert_eq!(el.stats().join_failures as usize, failed.len());
        assert!(
            !failed.is_empty(),
            "an unconstrained layered client must have tried to upgrade"
        );
        assert!(failed.iter().all(|(s, g)| *s == slot && *g > 0));
        assert!(events
            .iter()
            .any(|e| matches!(e, DriverEvent::Completed { handle, .. } if handle.token() == slot)));
    }

    #[test]
    fn rateless_sessions_pump_through_the_event_loop() {
        // The loop needs no rateless-specific code: poll_transmit /
        // round_complete / handle_datagram are the same contract, only the
        // datagrams now carry seeds.  Lossy and lossless clients of both
        // modes must complete, each with perfect distinctness.
        for mode in [crate::RatelessMode::Lt, crate::RatelessMode::Raptor] {
            let data = patterned(40_000, 7);
            let net = SimMulticast::new(9);
            let (session, info) = sim_server(
                &data,
                SessionConfig {
                    rateless: mode,
                    code_seed: 13,
                    ..SessionConfig::default()
                },
            );
            let mut el: ShardLoop<crate::SimEndpoint> = ShardLoop::new(0);
            el.push(
                server(session, Pacing::new(Duration::from_millis(1), 128)),
                net.endpoint(0.0),
            )
            .unwrap();
            for i in 0..4 {
                let loss = if i % 2 == 0 { 0.0 } else { 0.3 };
                el.push(client(info.clone()), net.endpoint(loss)).unwrap();
            }
            for _ in 0..10_000 {
                el.step();
                if el.all_clients_complete() {
                    break;
                }
            }
            assert!(el.all_clients_complete(), "mode {mode:?} stalled");
            let done = finished(&mut el);
            assert_eq!(done.len(), 4);
            for (_slot, client) in done {
                assert_eq!(client.file().unwrap(), &data[..], "mode {mode:?}");
                assert_eq!(client.stats().distinctness_efficiency(), 1.0);
            }
        }
    }

    #[test]
    fn layered_join_intents_are_executed_by_the_loop() {
        let data = patterned(200_000, 3);
        let net = SimMulticast::new(5);
        let (session, info) = sim_server(
            &data,
            SessionConfig {
                layers: 6,
                code_seed: 3,
                sp_interval: 2,
                burst_rounds: 1,
                ..SessionConfig::default()
            },
        );
        let n = session.code().unwrap().n();
        let mut el: ShardLoop<crate::SimEndpoint> = ShardLoop::new(0);
        el.push(
            // Whole rounds per tick keep the layered cadence dense in time.
            server(session, Pacing::new(Duration::from_millis(1), 2 * n)),
            net.endpoint(0.0),
        )
        .unwrap();
        let client = ClientSession::new(info).unwrap();
        assert!(client.is_layered());
        el.push(Session::Client(Box::new(client)), net.endpoint(0.0))
            .unwrap();
        for _ in 0..2_000 {
            el.step();
            if el.all_clients_complete() {
                break;
            }
        }
        assert!(el.all_clients_complete());
        let (_slot, client) = finished(&mut el).pop().unwrap();
        let level = client.subscription_level().unwrap();
        assert!(
            level >= 1,
            "an unconstrained receiver must climb at least one layer"
        );
        assert_eq!(client.file().unwrap(), &data[..]);
        assert_eq!(el.stats().join_failures, 0);
    }

    #[test]
    fn equal_pacing_keeps_server_slots_within_one_round() {
        // Fairness: N server sessions with identical pacing each advance the
        // same number of rounds (±1 for mid-round budgets) after M steps.
        let net = SimMulticast::new(6);
        let mut el: ShardLoop<crate::SimEndpoint> = ShardLoop::new(0);
        let mut tokens = Vec::new();
        for salt in 0..5 {
            let data = patterned(40_000, salt);
            let (session, _info) = sim_server(
                &data,
                SessionConfig {
                    code_seed: salt as u64,
                    ..SessionConfig::default()
                },
            );
            tokens.push(
                el.push(
                    server(session, Pacing::new(Duration::from_millis(1), 64)),
                    net.endpoint(0.0),
                )
                .unwrap(),
            );
        }
        for _ in 0..100 {
            el.step();
        }
        let rounds: Vec<usize> = tokens
            .iter()
            .map(|&t| el.server_rounds(t).unwrap())
            .collect();
        let (min, max) = (*rounds.iter().min().unwrap(), *rounds.iter().max().unwrap());
        assert!(
            max - min <= 1,
            "equal pacing must stay within one round: {rounds:?}"
        );
        assert!(max > 0, "premise: some rounds were transmitted");
    }

    /// One recorded I/O operation of a [`Recording`] transport.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Op {
        Send(u32, Bytes),
        Join(u32),
        Leave(u32),
    }

    /// Transport wrapper recording every send/join/leave in order, so two
    /// driver runs can be compared operation-for-operation.
    struct Recording<T: Transport> {
        inner: T,
        log: std::rc::Rc<std::cell::RefCell<Vec<Op>>>,
    }

    impl<T: Transport> Transport for Recording<T> {
        fn send(&mut self, group: u32, datagram: Bytes) {
            self.log
                .borrow_mut()
                .push(Op::Send(group, datagram.clone()));
            self.inner.send(group, datagram);
        }
        fn recv(&mut self) -> Option<(u32, Bytes)> {
            self.inner.recv()
        }
        fn join(&mut self, group: u32) -> std::io::Result<()> {
            self.log.borrow_mut().push(Op::Join(group));
            self.inner.join(group)
        }
        fn leave(&mut self, group: u32) {
            self.log.borrow_mut().push(Op::Leave(group));
            self.inner.leave(group);
        }
        fn readiness(&self) -> crate::transport::Readiness {
            self.inner.readiness()
        }
    }

    #[test]
    fn identical_readiness_trace_yields_identical_emission_order() {
        // Trace-replay determinism: the loop is driven purely by `step`, so
        // a re-run over the same seeded channel sees the same readiness
        // trace — and must therefore emit the same operations in the same
        // order (server sends, client joins/leaves) and finish in the same
        // state.  The driver has no RNG, clock or hash-order dependence to
        // diverge on.
        let run = || {
            let data = patterned(150_000, 4);
            let net = SimMulticast::new(17);
            let (session, info) = sim_server(
                &data,
                SessionConfig {
                    layers: 6,
                    code_seed: 11,
                    sp_interval: 2,
                    burst_rounds: 1,
                    ..SessionConfig::default()
                },
            );
            let n = session.code().unwrap().n();
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let mut el: ShardLoop<Recording<crate::SimEndpoint>> = ShardLoop::new(0);
            el.push(
                server(session, Pacing::new(Duration::from_millis(1), n)),
                Recording {
                    inner: net.endpoint(0.0),
                    log: log.clone(),
                },
            )
            .unwrap();
            let mut slots = Vec::new();
            for loss in [0.0, 0.3] {
                slots.push(
                    el.push(
                        client(info.clone()),
                        Recording {
                            inner: net.endpoint(loss),
                            log: log.clone(),
                        },
                    )
                    .unwrap(),
                );
            }
            for _ in 0..300 {
                el.step();
                if el.all_clients_complete() {
                    break;
                }
            }
            let done = finished(&mut el);
            let states: Vec<_> = slots
                .iter()
                .map(|&s| {
                    let c: &ClientSession = match done.iter().find(|(slot, _)| *slot == s) {
                        Some((_, session)) => session,
                        None => el.client(s).unwrap(),
                    };
                    (
                        c.is_complete(),
                        c.subscription_level(),
                        c.stats().received(),
                        c.stats().distinct(),
                    )
                })
                .collect();
            let ops = log.borrow().clone();
            (ops, states, el.stats())
        };
        let first = run();
        let second = run();
        assert!(
            first.0.iter().any(|op| matches!(op, Op::Join(_))),
            "premise: the layered clients must issue subscription ops"
        );
        assert_eq!(first.1, second.1, "end states must match");
        assert_eq!(first.2, second.2, "loop counters must match");
        assert_eq!(first.0, second.0, "operation order must be identical");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Fairness: however many equally paced server slots share the loop
        /// and however long it runs, their carousels stay within one round
        /// of each other — no slot can starve another.
        #[test]
        fn prop_equal_rates_stay_within_one_round(
            servers in 2usize..6,
            budget in 1usize..300,
            steps in 1usize..120,
        ) {
            let net = SimMulticast::new(8);
            let mut el: ShardLoop<crate::SimEndpoint> = ShardLoop::new(0);
            let mut tokens = Vec::new();
            for salt in 0..servers {
                let data = patterned(10_000, salt);
                let (session, _info) = sim_server(
                    &data,
                    SessionConfig {
                        code_seed: salt as u64,
                        ..SessionConfig::default()
                    },
                );
                tokens.push(el.push(
                    server(session, Pacing::new(Duration::from_millis(1), budget)),
                    net.endpoint(0.0),
                )
                .unwrap());
            }
            for _ in 0..steps {
                el.step();
            }
            let rounds: Vec<usize> = tokens
                .iter()
                .map(|&t| el.server_rounds(t).unwrap())
                .collect();
            let min = *rounds.iter().min().unwrap();
            let max = *rounds.iter().max().unwrap();
            proptest::prop_assert!(
                max - min <= 1,
                "unfair pacing: rounds {:?} with budget {} over {} steps",
                rounds, budget, steps
            );
        }
    }
}

//! The driver's value types: what goes in ([`DriverConfig`], [`Session`]),
//! what comes back ([`SessionHandle`], [`DriverEvent`], [`DriverReport`]).
//!
//! Shard count, pacing and stepping interact, so they are grouped in a
//! builder-style [`DriverConfig`].  A bare slot index means nothing once
//! sessions live on N shards, so a [`SessionHandle`] pairs it with the shard.
//! Nothing ever runs owner code on a shard thread: every notification is a
//! [`DriverEvent`] drained on the control thread.

use crate::client::ClientSession;
use crate::driver::shard::Driver;
use crate::driver::{Pacing, ShardStats};
use crate::server::{FountainServer, ServerSession};
use crate::transport::Transport;
use std::net::UdpSocket;
use std::time::Duration;

/// Identifies one session registered with a [`Driver`]: the shard that owns
/// it plus its slot on that shard.  Handles are opaque to callers — the
/// accessors exist for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionHandle {
    shard: usize,
    slot: usize,
}

impl SessionHandle {
    pub(crate) fn new(shard: usize, slot: usize) -> SessionHandle {
        SessionHandle { shard, slot }
    }

    /// Index of the worker shard that owns this session's slot and sockets.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The session's slot index *within its shard*.  Slots from different
    /// shards collide freely; only the (shard, slot) pair is unique.
    pub fn token(&self) -> usize {
        self.slot
    }
}

/// Anything a [`Driver`] can run, as handed to
/// [`Driver::add_on`](crate::driver::Driver::add_on) (the plain `add_*`
/// methods build one of these and place it on the least-loaded shard).
#[derive(Debug)]
pub enum Session {
    /// A downloading client.
    Client(Box<ClientSession>),
    /// A single carousel session emitting one `pacing` budget per tick.
    Server {
        /// The carousel.
        session: Box<ServerSession>,
        /// Its token bucket.
        pacing: Pacing,
    },
    /// A multi-session [`FountainServer`], optionally answering its binary
    /// control channel on `control` (made non-blocking by the shard).
    Fountain {
        /// The carousels.
        server: Box<FountainServer>,
        /// The control socket, if this shard should answer it.
        control: Option<UdpSocket>,
        /// The token bucket all its sessions share.
        pacing: Pacing,
    },
}

impl Session {
    /// The session's weight in shard placement: `k` for clients, total `n`
    /// for servers, at least 1.
    pub(crate) fn placement_weight(&self) -> usize {
        let weight = match self {
            Session::Client(session) => session.control_info().k,
            Session::Server { session, .. } => session.control_info().n,
            Session::Fountain { server, .. } => {
                server.sessions().iter().map(|s| s.control_info().n).sum()
            }
        };
        weight.max(1)
    }
}

/// One notification from a [`Driver`], drained on the control thread via
/// [`Driver::poll_events`](crate::driver::Driver::poll_events).
#[derive(Debug)]
pub enum DriverEvent {
    /// A client finished its download; the decoded file and the final
    /// reception statistics are in `session`.  Its transport was dropped on
    /// the shard, closing the sockets a finished receiver no longer needs.
    Completed {
        /// Handle the session was registered under.
        handle: SessionHandle,
        /// The finished session, moved off the shard.
        session: Box<ClientSession>,
    },
    /// A client's Join intent failed at its transport
    /// ([`Transport::join`] returned an error).  The layer stays subscribed
    /// session-side and the lost datagrams read as channel loss; this event
    /// lets the owner observe the degradation.
    JoinFailed {
        /// Handle of the session whose join failed.
        handle: SessionHandle,
        /// The multicast group that could not be joined.
        group: u32,
    },
    /// A registration failed on its shard (an initial join refused, a
    /// control socket that would not go non-blocking).  The handle returned
    /// by the add is dead: its slot stays empty.
    AddFailed {
        /// The dead handle.
        handle: SessionHandle,
        /// Display form of the I/O error (errors are not `Clone`, and the
        /// event crosses a thread boundary).
        error: String,
    },
}

/// Final accounting returned by
/// [`Driver::shutdown`](crate::driver::Driver::shutdown).
#[derive(Debug, Default)]
pub struct DriverReport {
    /// Lifetime counters per shard, indexed by shard.
    pub shard_stats: Vec<ShardStats>,
    /// Events still undrained at shutdown (completions the caller never
    /// polled, plus any teardown leftovers handed back by workers).
    pub events: Vec<DriverEvent>,
}

impl DriverReport {
    /// Field-wise sum of every shard's counters.
    pub fn total_stats(&self) -> ShardStats {
        self.shard_stats
            .iter()
            .fold(ShardStats::default(), |acc, s| acc.merge(*s))
    }
}

/// Builder-style configuration for a [`Driver`].
///
/// ```
/// use df_proto::driver::{DriverConfig, Pacing};
/// use df_proto::SimEndpoint;
/// use std::time::Duration;
///
/// let driver = DriverConfig::new()
///     .shards(2)
///     .pacing(Pacing::new(Duration::from_millis(1), 64))
///     .stepped(true)
///     .build::<SimEndpoint>();
/// assert_eq!(driver.shards(), 2);
/// driver.shutdown().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    pub(crate) shards: usize,
    pub(crate) pacing: Pacing,
    pub(crate) stepped: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            shards: 1,
            pacing: Pacing::new(Duration::from_millis(1), 256),
            stepped: false,
        }
    }
}

impl DriverConfig {
    /// The default configuration: one shard, paced wall-clock workers.
    pub fn new() -> DriverConfig {
        DriverConfig::default()
    }

    /// Number of worker shards (clamped to at least 1).  Each shard is one
    /// readiness loop on its own thread — including a lone one, so the
    /// control thread is free to sleep between
    /// [`Driver::poll_events`](crate::driver::Driver::poll_events) calls
    /// whatever the shard count.
    pub fn shards(mut self, shards: usize) -> DriverConfig {
        self.shards = shards.max(1);
        self
    }

    /// Pacing of servers registered through
    /// [`Driver::add_server_session`](crate::driver::Driver::add_server_session)
    /// and
    /// [`Driver::add_fountain_server`](crate::driver::Driver::add_fountain_server).
    /// To replicate one logical carousel across shards at this aggregate
    /// rate, [`Pacing::split`] it and register each part with
    /// [`Driver::add_on`](crate::driver::Driver::add_on).
    pub fn pacing(mut self, pacing: Pacing) -> DriverConfig {
        self.pacing = pacing;
        self
    }

    /// Stepped mode: workers tick only when the control thread calls
    /// [`Driver::step`](crate::driver::Driver::step), each step being one
    /// deterministic iteration (every server ticks once, every client is
    /// drained, in slot order).  This is the mode the simulation experiments
    /// use; paced mode (the default) runs each worker's wall-clock loop
    /// continuously.
    pub fn stepped(mut self, stepped: bool) -> DriverConfig {
        self.stepped = stepped;
        self
    }

    /// Spawn the worker threads and return the driver facade.
    pub fn build<T: Transport + Send + 'static>(self) -> Driver<T> {
        Driver::new(self)
    }
}

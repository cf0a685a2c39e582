//! # df-proto — the prototype bulk-data distribution protocol (Section 7)
//!
//! The paper's experimental system has a server that encodes files with
//! Tornado codes, announces the session parameters over a unicast UDP control
//! channel, and then carousels each encoding over one or more multicast
//! groups; clients fetch the control information, subscribe, collect packets
//! through whatever loss their path imposes, and decode as the packets
//! arrive, finishing on the first one that makes the file decodable.
//!
//! ## Sans-I/O design
//!
//! The protocol logic is written **sans-I/O**: [`ServerSession`],
//! [`FountainServer`] and [`ClientSession`] are pure state machines that
//! never touch a socket, a clock or a thread.
//!
//! * The server side *produces* datagrams: [`FountainServer::poll_transmit`]
//!   (or [`ServerSession::poll_transmit`] for a single session) yields
//!   `(group, datagram)` pairs, and [`FountainServer::handle_control_datagram`]
//!   maps a raw control request to a raw response.
//! * The client side *consumes* datagrams: [`ClientSession::handle_datagram`]
//!   digests one datagram and reports what it did as a [`ClientEvent`].
//!
//! The **driver loop owns the I/O**: it holds a [`Transport`] (and, for a
//! real deployment, the control socket), joins the groups a session asks for
//! ([`ClientSession::subscribed_groups`]), pumps `poll_transmit` output into
//! `Transport::send`, and feeds `Transport::recv` output into
//! `handle_datagram`.  Pacing, blocking, threading and async are all driver
//! decisions — which is why the same session code runs unchanged over the
//! deterministic in-memory [`SimMulticast`] in tests and over real UDP
//! sockets ([`UdpMulticastTransport`]) in the `udp_fountain` and
//! `layered_fountain` examples at the workspace root and the UDP integration
//! tests.  The production driver is [`driver::Driver`]: N shards (one
//! worker thread each, built from a [`DriverConfig`]), each running a
//! readiness-driven loop ([`Transport::try_recv`] + [`Transport::readiness`]
//! over an `epoll(7)`/`poll(2)` wrapper) that multiplexes thousands of
//! sessions — servers, clients, or both — with token-bucket pacing.
//! Sessions land on the least-loaded shard, are addressed as
//! [`SessionHandle`]s, and every completion surfaces as a drainable
//! [`DriverEvent`] carrying the finished [`ClientSession`] — all without
//! changing a line of session code.
//!
//! ## Layered congestion control
//!
//! A session configured with a nonzero [`SessionConfig::sp_interval`]
//! transmits the Section 7.1 **layered** schedule: each layer on its own
//! multicast group at geometrically increasing rates, synchronisation
//! points every `sp_interval` rounds and double-rate bursts in the
//! `burst_rounds` before each SP.  The cadence is advertised on the control
//! channel ([`ControlInfo::sp_interval`] / [`ControlInfo::burst_rounds`])
//! and the client runs the paper's receiver-driven join/leave logic: track
//! loss between SPs and during bursts, add a layer at an SP only after a
//! clean burst, shed the top layer on sustained loss.  Decisions surface as
//! [`ClientEvent::Join`] / [`ClientEvent::Leave`] *intents* — the driver
//! performs the actual [`Transport::join`] / [`Transport::leave`], so the
//! sans-I/O split holds for congestion control too.
//!
//! The 12-byte packet header (packet index, serial number, group number) and
//! the 500-byte default payload match Section 7.3's description of the
//! prototype exactly; the control channel speaks the binary
//! [`ControlRequest`]/[`ControlResponse`] framing in [`control`].
//!
//! ## Rateless mode
//!
//! A session configured with [`SessionConfig::rateless`] set to
//! [`RatelessMode::Lt`] or [`RatelessMode::Raptor`] is a *true* digital
//! fountain: instead of carouselling a fixed encoding it streams fresh LT /
//! Raptor symbols forever, the unchanged 12-byte header's
//! `packet_index:serial` words carrying each symbol's 64-bit seed.  Every
//! received symbol is new no matter when a receiver tunes in — the
//! distinctness-efficiency loss late joiners pay under the carousel
//! (→ ≈ 0.64 as duplicates accumulate) disappears entirely.  The mode is
//! announced on the control channel (`CONTROL_VERSION` 3) and the client
//! routes datagrams into a streaming decoder behind hard memory caps; see
//! DESIGN.md "Rateless mode".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod control;
pub mod driver;
mod layered;
pub mod rateless;
pub mod server;
pub(crate) mod sync;
pub mod transport;
pub mod udp;
pub mod wire;

pub use client::{ClientEvent, ClientSession, DownloadStats};
pub use control::{ControlInfo, ControlRequest, ControlResponse};
pub use driver::{
    Driver, DriverConfig, DriverEvent, DriverReport, Pacing, Session, SessionHandle, ShardStats,
};
pub use rateless::{
    seed_from_words, seed_to_words, RatelessMode, RatelessReceiver, RatelessSender,
};
pub use server::{FountainServer, ServerSession, SessionConfig};
pub use transport::{Readiness, SimEndpoint, SimMulticast, Transport};
pub use udp::{GroupAddressing, UdpMulticastTransport};
pub use wire::{DataPacket, PacketHeader, HEADER_LEN};

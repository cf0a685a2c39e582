//! The server side of the prototype: pure (sans-I/O) carousel state machines.
//!
//! [`ServerSession`] encodes one file and yields the datagrams of the
//! reverse-binary layered schedule through [`ServerSession::poll_transmit`];
//! it never touches a socket.  [`FountainServer`] owns many sessions, hands
//! each a disjoint range of multicast groups, interleaves their carousels
//! fairly, and answers [`ControlRequest`]s — the whole of Section 7.1's
//! deployed server, minus the I/O, which belongs to whatever driver loop owns
//! the [`crate::Transport`].
//!
//! A carousel session's code is the process's live cascade for its
//! `(k, profile, code_seed)` (see [`df_core::codec`]), so the receivers of a
//! session that run in the same process — a test, a simulation, the
//! benchmark — decode over the very graph it encoded with.

use crate::client::{admit_session, SessionCode};
use crate::control::{ControlInfo, ControlRequest, ControlResponse};
use crate::rateless::{seed_to_words, RatelessMode};
use crate::transport::Transport;
use crate::wire::{DataPacket, PacketHeader};
use bytes::Bytes;
use df_core::{Encoding, LtEncoder, TornadoCode, TornadoError, TornadoProfile, TORNADO_A};
use df_mcast::{LayeredSession, TransmissionSchedule};
use std::collections::VecDeque;

/// Parameters for one carousel session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Payload bytes per packet (the paper's prototype uses 500).
    pub packet_size: usize,
    /// Number of multicast layers.
    pub layers: usize,
    /// Tornado profile to encode with.  Clients rebuild the code from its
    /// name alone, so a carousel session's profile must be the one
    /// [`TornadoProfile::by_name`] resolves its name to; rateless sessions
    /// do not use it.
    pub profile: TornadoProfile,
    /// Seed the client rebuilds the graph structure from.
    pub code_seed: u64,
    /// First multicast group of the session (layer `l` transmits on
    /// `base_group + l`).  [`FountainServer::add_session`] overrides this
    /// with the next free group range.
    pub base_group: u32,
    /// Session identifier.  [`FountainServer::add_session`] overrides this
    /// with the next free id.
    pub session_id: u32,
    /// Rounds between synchronisation points, or `0` for a flat carousel.
    /// When nonzero the session transmits the Section 7.1 layered
    /// congestion-control schedule: every `sp_interval`-th round is a sync
    /// point (a join opportunity for receivers) and the `burst_rounds`
    /// rounds before each SP are sent at double rate so receivers can probe
    /// the next subscription level without feedback to the source.
    pub sp_interval: usize,
    /// Rounds of double-rate burst preceding each SP: `< sp_interval`, and
    /// `0` for a flat session, which has no SP for a burst to precede.
    pub burst_rounds: usize,
    /// Data-path encoding: [`RatelessMode::Off`] (default) transmits the
    /// fixed-encoding carousel; the seed-carrying modes stream fresh LT /
    /// Raptor symbols forever instead.  Rateless sessions are single-layer
    /// and flat (`layers == 1`, `sp_interval == 0`): every symbol is already
    /// distinct, so the layered schedule's duplicate-avoidance machinery has
    /// nothing to contribute.
    pub rateless: RatelessMode,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            packet_size: 500,
            layers: 1,
            profile: TORNADO_A,
            code_seed: 0,
            base_group: 0,
            session_id: 0,
            sp_interval: 0,
            burst_rounds: 0,
            rateless: RatelessMode::Off,
        }
    }
}

/// A single carousel session as a pure state machine.
///
/// Construction encodes the file; afterwards the session only hands out
/// datagrams.  A driver loop pumps it:
///
/// ```text
/// loop {
///     while let Some((group, datagram)) = session.poll_transmit() {
///         transport.send(group, datagram);   // the driver owns the socket
///     }
///     session.advance_round();               // and the pacing
/// }
/// ```
#[derive(Debug)]
pub struct ServerSession {
    /// The session's encoded file, in one buffer: a carousel's `n` rows,
    /// each sent as it is, or the rows a stream's LT layer XORs its symbols
    /// from — the `k` source packets, or the `n` Raptor intermediates.
    encoding: Encoding,
    engine: Engine,
    control: ControlInfo,
    serial: u32,
    round: usize,
}

/// What a [`ServerSession`]'s mode sends its encoding by: the classic
/// fixed-encoding carousel's schedule, or a never-repeating rateless symbol
/// stream.
#[derive(Debug)]
enum Engine {
    Carousel {
        code: TornadoCode,
        schedule: TransmissionSchedule,
        /// SP/burst cadence of the layered congestion-control mode; `None`
        /// for a flat carousel.
        layered: Option<LayeredSession>,
        /// `(layer, encoding index)` pairs still to transmit this round.
        pending: VecDeque<(usize, usize)>,
    },
    Stream {
        /// Seed → (degree, neighbours) derivation over the encoding's rows:
        /// the source packets for plain LT, the code's LT layer over the
        /// intermediates for Raptor.
        lt: LtEncoder,
        /// The current equation's neighbours, reused from symbol to symbol,
        /// so nothing is allocated per symbol once it has grown.
        neighbors: Vec<u32>,
        /// Next seed to issue; monotonic, never wraps in any feasible
        /// session.
        next_seed: u64,
        /// Fresh symbols still to send this round, of `k` a round (one
        /// carousel round's bandwidth, so round-based pacing is unchanged).
        left: usize,
    },
}

impl ServerSession {
    /// Encode `data` under `config` and prepare the carousel (or, for a
    /// rateless `config`, the endless symbol stream).
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::InvalidParameters`] for a session its clients
    /// would refuse, checked before anything is encoded by the admission
    /// [`ClientSession::new`](crate::ClientSession::new) runs on the
    /// announcement: an empty file, a packet size no UDP datagram frames,
    /// more than [`crate::client::MAX_K`] packets, a file longer than
    /// [`crate::client::MAX_FILE_LEN`], a layer count outside
    /// `1..=`[`crate::client::MAX_SCHEDULED_LAYERS`], groups past
    /// `u32::MAX`, burst rounds without an SP cadence, a rateless session
    /// that is not single-layer and flat, a degenerate layered cadence (see
    /// [`df_mcast::LayeredSession::new`]), or a code that does not build.
    /// A carousel whose `config.profile` is not the profile its name
    /// resolves to is refused too: its clients would rebuild a different
    /// code.  Encoding errors from `df-core` are propagated.
    pub fn new(data: &[u8], config: SessionConfig) -> df_core::Result<Self> {
        let refuse = |reason| TornadoError::InvalidParameters { reason };
        let mut control = ControlInfo {
            session_id: config.session_id,
            file_len: data.len(),
            packet_size: config.packet_size,
            k: data.len().div_ceil(config.packet_size.max(1)),
            n: 0, // the code's, below
            code_seed: config.code_seed,
            layers: config.layers,
            base_group: config.base_group,
            sp_interval: config.sp_interval,
            burst_rounds: config.burst_rounds,
            rateless: config.rateless,
            profile: config.profile.name.to_string(),
        };
        let (code, n, layered) = admit_session(&control)
            .map_err(|why| refuse(format!("its clients would refuse {why}")))?;
        control.n = n;
        let stream = |lt| Engine::Stream {
            lt,
            neighbors: Vec::new(),
            next_seed: 0,
            left: 0,
        };
        // The file is copied once, into the encoding it is sent from.
        let (encoding, engine) = match code {
            SessionCode::Tornado(code) => {
                if *code.profile() != config.profile {
                    return Err(refuse(format!(
                        "profile {:?} is not the profile its name resolves to, which its \
                         clients would rebuild",
                        config.profile
                    )));
                }
                let encoding = code.encode_file(data, config.packet_size)?;
                let engine = Engine::Carousel {
                    code,
                    schedule: TransmissionSchedule::new(config.layers, n),
                    layered,
                    // A plain round sends each of the `n` rows once.
                    pending: VecDeque::with_capacity(n),
                };
                (encoding, engine)
            }
            // The LT layer ranges over the k source packets themselves (the
            // last one zero-padded).
            SessionCode::Lt(lt) => (Encoding::from_file(data, config.packet_size)?, stream(lt)),
            SessionCode::Raptor(code) => {
                let encoding = code.precode_file(data, config.packet_size)?;
                (encoding, stream(code.lt().clone()))
            }
        };
        let mut session = ServerSession {
            encoding,
            engine,
            control,
            serial: 0,
            round: 0,
        };
        session.refill_round();
        Ok(session)
    }

    /// Convenience constructor using the paper's defaults: Tornado A and
    /// 500-byte payloads.
    ///
    /// # Errors
    ///
    /// See [`ServerSession::new`].
    pub fn with_defaults(data: &[u8], layers: usize, code_seed: u64) -> df_core::Result<Self> {
        Self::new(
            data,
            SessionConfig {
                layers,
                code_seed,
                ..SessionConfig::default()
            },
        )
    }

    /// The control information a client needs to join the session.
    pub fn control_info(&self) -> &ControlInfo {
        &self.control
    }

    /// This session's identifier.
    pub fn session_id(&self) -> u32 {
        self.control.session_id
    }

    /// The Tornado code in use, for carousel sessions (exposed for tests and
    /// benchmarks); `None` for rateless sessions, whose symbols no fixed
    /// code numbers.
    pub fn code(&self) -> Option<&TornadoCode> {
        match &self.engine {
            Engine::Carousel { code, .. } => Some(code),
            Engine::Stream { .. } => None,
        }
    }

    /// The reverse-binary transmission schedule driving the carousel;
    /// `None` for rateless sessions (an endless seed stream has no
    /// schedule).
    pub fn schedule(&self) -> Option<&TransmissionSchedule> {
        match &self.engine {
            Engine::Carousel { schedule, .. } => Some(schedule),
            Engine::Stream { .. } => None,
        }
    }

    /// Data-path encoding of this session.
    pub fn rateless_mode(&self) -> RatelessMode {
        self.control.rateless
    }

    /// True when the session transmits the layered congestion-control
    /// schedule (SPs and bursts) rather than a flat carousel.
    pub fn is_layered(&self) -> bool {
        matches!(
            &self.engine,
            Engine::Carousel {
                layered: Some(_),
                ..
            }
        )
    }

    /// True when the round currently being transmitted is part of a
    /// double-rate burst period (always false for flat and rateless
    /// sessions).
    #[cfg(test)]
    fn in_burst(&self) -> bool {
        match &self.engine {
            Engine::Carousel { layered, .. } => {
                layered.as_ref().is_some_and(|l| l.is_burst(self.round))
            }
            Engine::Stream { .. } => false,
        }
    }

    /// The next datagram to transmit this round, as `(group, datagram)`, or
    /// `None` once the round's schedule is exhausted (call
    /// [`ServerSession::advance_round`] to start the next round).
    ///
    /// A carousel round walks the reverse-binary schedule over the retained
    /// encoding; a rateless round emits `k` *fresh* symbols, the header's
    /// `packet_index:serial` words carrying each symbol's 64-bit seed.
    pub fn poll_transmit(&mut self) -> Option<(u32, Bytes)> {
        let encoding = &self.encoding;
        Some(match &mut self.engine {
            Engine::Carousel { pending, .. } => {
                let (layer, idx) = pending.pop_front()?;
                let group = self.control.base_group + layer as u32;
                let header = PacketHeader {
                    packet_index: idx as u32,
                    serial: self.serial,
                    group,
                };
                self.serial = self.serial.wrapping_add(1);
                // Frame from the retained encoding.  The payload is a row
                // of the session's one slab, but framing still allocates one
                // buffer and copies the payload into it once per datagram,
                // forever, for packets the carousel already holds; the
                // socket-path half of ROADMAP.md item 11 (header plus
                // borrowed payload as an `iovec`) removes the copy.
                (group, DataPacket::frame(&header, encoding.row(idx)))
            }
            Engine::Stream {
                lt,
                neighbors,
                next_seed,
                left,
            } => {
                if *left == 0 {
                    return None;
                }
                let group = self.control.base_group;
                // The symbol is XORed from the encoding's rows straight into
                // the datagram, behind the header its seed becomes.  The
                // encoder only errors on a row-count or length mismatch,
                // which construction rules out; that would end the round
                // rather than panic in transmit-path code.
                let datagram = DataPacket::frame_in_place(encoding.packet_size(), |payload| {
                    lt.encode_into(*next_seed, encoding, neighbors, payload)
                        .ok()?;
                    let (packet_index, serial) = seed_to_words(*next_seed);
                    Some(PacketHeader {
                        packet_index,
                        serial,
                        group,
                    })
                })?;
                *next_seed += 1;
                *left -= 1;
                (group, datagram)
            }
        })
    }

    /// True when the current round's schedule (or rateless symbol quota) has
    /// been fully polled.
    pub fn round_complete(&self) -> bool {
        match &self.engine {
            Engine::Carousel { pending, .. } => pending.is_empty(),
            Engine::Stream { left, .. } => *left == 0,
        }
    }

    /// Begin the next round, discarding whatever the driver chose not to
    /// transmit of the current one (for a rateless session nothing is
    /// discarded — the unsent seeds were simply never generated).
    pub fn advance_round(&mut self) {
        self.round += 1;
        self.refill_round();
    }

    fn refill_round(&mut self) {
        let round = self.round;
        let k = self.control.k;
        match &mut self.engine {
            Engine::Carousel {
                schedule,
                layered,
                pending,
                ..
            } => {
                pending.clear();
                let burst = layered.as_ref().is_some_and(|l| l.is_burst(round));
                for layer in 0..schedule.layers() {
                    let tx = schedule.transmission(layer, round);
                    for &idx in &tx {
                        pending.push_back((layer, idx));
                    }
                    if burst {
                        // The burst repeats the layer's packets at double
                        // rate; the duplicates carry no new data, they exist
                        // to stress the receiver's bottleneck so the
                        // resulting loss (or its absence) answers the "could
                        // I sustain one more layer?" probe without any
                        // feedback channel.
                        for &idx in &tx {
                            pending.push_back((layer, idx));
                        }
                    }
                }
            }
            Engine::Stream { left, .. } => *left = k,
        }
    }

    /// Drive one full round through a transport (a convenience driver on top
    /// of [`ServerSession::poll_transmit`]).
    pub fn send_round<T: Transport>(&mut self, transport: &mut T) {
        while let Some((group, datagram)) = self.poll_transmit() {
            transport.send(group, datagram);
        }
        self.advance_round();
    }

    /// Number of complete rounds transmitted so far.
    pub fn rounds_sent(&self) -> usize {
        self.round
    }
}

/// A multi-session carousel server: many files to many group sets
/// concurrently, plus the control channel that announces them.
///
/// Sessions are added with [`FountainServer::add_session`], which assigns
/// each one a fresh session id and the next free contiguous range of
/// multicast groups.  [`FountainServer::poll_transmit`] interleaves the
/// sessions' carousels round-robin, one datagram at a time, so a driver loop
/// serves every session concurrently through a single transport:
///
/// ```text
/// while running {
///     if let Some((group, datagram)) = server.poll_transmit() {
///         transport.send(group, datagram);
///     }
///     while let Some(request) = control_socket.try_recv() {
///         control_socket.reply(server.handle_control_datagram(&request));
///     }
/// }
/// ```
#[derive(Debug, Default)]
pub struct FountainServer {
    sessions: Vec<ServerSession>,
    /// The first group no session uses: up to `2^32` once a range has
    /// ended at `u32::MAX`, after which no session fits.
    next_group: u64,
    next_id: u32,
    cursor: usize,
}

impl FountainServer {
    /// A server with no sessions yet.
    pub fn new() -> Self {
        FountainServer::default()
    }

    /// Encode `data` and add it as a new carousel session.
    ///
    /// `config.session_id` and `config.base_group` are overridden with the
    /// next free id and group range; the returned id is what clients pass to
    /// [`ControlRequest::Describe`].
    ///
    /// # Errors
    ///
    /// See [`ServerSession::new`]; a session whose groups would run past
    /// `u32::MAX` is refused with [`TornadoError::InvalidParameters`].
    pub fn add_session(&mut self, data: &[u8], config: SessionConfig) -> df_core::Result<u32> {
        let base_group =
            u32::try_from(self.next_group).map_err(|_| TornadoError::InvalidParameters {
                reason: "every multicast group up to u32::MAX is in use".to_string(),
            })?;
        let config = SessionConfig {
            session_id: self.next_id,
            base_group,
            ..config
        };
        // `ServerSession::new` refuses groups past `u32::MAX`, so the next
        // free group is at most `2^32`.
        let session = ServerSession::new(data, config)?;
        self.next_group += config.layers as u64;
        self.next_id += 1;
        let id = session.session_id();
        self.sessions.push(session);
        Ok(id)
    }

    /// The active sessions, in the order they were added.
    pub fn sessions(&self) -> &[ServerSession] {
        &self.sessions
    }

    /// Look one session up by id.
    pub fn session(&self, session_id: u32) -> Option<&ServerSession> {
        self.sessions.iter().find(|s| s.session_id() == session_id)
    }

    /// Answer one control request.
    pub fn handle_control(&self, request: &ControlRequest) -> ControlResponse {
        match *request {
            ControlRequest::ListSessions => ControlResponse::SessionList {
                session_ids: self.sessions.iter().map(|s| s.session_id()).collect(),
            },
            ControlRequest::Describe { session_id } => match self.session(session_id) {
                Some(s) => ControlResponse::Session {
                    info: s.control_info().clone(),
                },
                None => ControlResponse::UnknownSession { session_id },
            },
        }
    }

    /// Answer one raw control datagram, producing the raw response datagram —
    /// the whole wire-level control channel in one call.  Malformed requests
    /// get a [`ControlResponse::BadRequest`] rather than silence, so a
    /// misbehaving client fails fast instead of timing out.
    pub fn handle_control_datagram(&self, datagram: &[u8]) -> Bytes {
        match ControlRequest::from_bytes(datagram) {
            Some(request) => self.handle_control(&request),
            None => ControlResponse::BadRequest,
        }
        .to_bytes()
    }

    /// The next datagram to transmit across all sessions, round-robin.
    ///
    /// Rounds advance automatically — the carousel never ends — so this
    /// returns `None` only when the server has no sessions.  The driver owns
    /// the pacing: call as fast as the outgoing link (or the test) allows.
    pub fn poll_transmit(&mut self) -> Option<(u32, Bytes)> {
        let n = self.sessions.len();
        for probe in 0..n {
            let i = (self.cursor + probe) % n;
            let session = &mut self.sessions[i];
            if session.round_complete() {
                session.advance_round();
            }
            if let Some(out) = session.poll_transmit() {
                self.cursor = (i + 1) % n;
                return Some(out);
            }
        }
        None
    }
}

/// A single carousel is a one-session server.  The session keeps its id and
/// group range; a later [`FountainServer::add_session`] takes the next id and
/// the groups after them.
impl From<ServerSession> for FountainServer {
    fn from(session: ServerSession) -> Self {
        let info = session.control_info();
        FountainServer {
            next_group: u64::from(info.base_group) + info.layers as u64,
            next_id: info.session_id.wrapping_add(1),
            cursor: 0,
            sessions: vec![session],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::MAX_SCHEDULED_LAYERS;
    use crate::transport::{SimMulticast, Transport};
    use crate::{ClientEvent, ClientSession};

    #[test]
    fn control_info_describes_the_session() {
        let data = vec![7u8; 10_000];
        let server = ServerSession::with_defaults(&data, 4, 99).unwrap();
        let info = server.control_info();
        assert_eq!(info.file_len, 10_000);
        assert_eq!(info.packet_size, 500);
        assert_eq!(info.k, 20);
        assert_eq!(info.n, 40);
        assert_eq!(info.layers, 4);
        assert_eq!(info.base_group, 0);
        assert_eq!(info.profile, "tornado-a");
        assert_eq!(info.groups().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // Control info round-trips through the wire framing, as it would over
        // the control channel.
        let resp = ControlResponse::Session { info: info.clone() };
        let back = ControlResponse::from_bytes(&resp.to_bytes()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn send_round_emits_one_block_worth_of_packets_per_round() {
        let data = vec![1u8; 50_000];
        let mut server = ServerSession::with_defaults(&data, 4, 1).unwrap();
        let net = SimMulticast::new(0);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        for layer in 0..4 {
            rx.join(layer).unwrap();
        }
        server.send_round(&mut tx);
        // One round sends the full cumulative bandwidth (= block size) per block.
        let expected = server.code().unwrap().n().div_ceil(8) * 8;
        assert!(rx.pending() <= expected);
        assert!(rx.pending() > 0);
        assert_eq!(server.rounds_sent(), 1);
    }

    #[test]
    fn poll_transmit_equals_send_round() {
        // The convenience driver and the raw state machine emit the same
        // datagrams: sans-I/O means no simulation-only branches.
        let data = vec![3u8; 20_000];
        let mut a = ServerSession::with_defaults(&data, 2, 5).unwrap();
        let mut b = ServerSession::with_defaults(&data, 2, 5).unwrap();
        let net = SimMulticast::new(0);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        rx.join(0).unwrap();
        rx.join(1).unwrap();
        a.send_round(&mut tx);
        let mut from_polls = Vec::new();
        while let Some((group, datagram)) = b.poll_transmit() {
            from_polls.push((group, datagram));
        }
        b.advance_round();
        let mut from_send = Vec::new();
        while let Some(got) = rx.recv() {
            from_send.push(got);
        }
        assert_eq!(from_send, from_polls);
    }

    #[test]
    fn layered_sessions_emit_n_datagrams_per_plain_round_and_2n_per_burst() {
        // The serial → round contract the client's congestion controller
        // relies on: across all layers a round transmits every encoding
        // packet exactly once (Table 5's columns cover the block), twice
        // during a burst.
        let data = vec![4u8; 30_000];
        let mut server = ServerSession::new(
            &data,
            SessionConfig {
                layers: 4,
                code_seed: 2,
                sp_interval: 4,
                burst_rounds: 2,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let n = server.code().unwrap().n();
        let mut sent = 0;
        for round in 0..12 {
            let mut count = 0usize;
            let mut indices = std::collections::HashMap::new();
            while let Some((_group, datagram)) = server.poll_transmit() {
                let pkt = DataPacket::from_bytes(datagram).unwrap();
                *indices.entry(pkt.header.packet_index).or_insert(0usize) += 1;
                count += 1;
            }
            let burst = round % 4 >= 2; // sp_interval 4, burst_rounds 2
            assert_eq!(server.in_burst(), burst, "round {round}");
            let per_packet = if burst { 2 } else { 1 };
            assert_eq!(count, per_packet * n, "round {round}");
            assert_eq!(indices.len(), n, "round {round} must cover the encoding");
            assert!(indices.values().all(|&c| c == per_packet));
            sent += count;
            server.advance_round();
        }
        assert_eq!(sent, 12 * n / 2 * 3);
    }

    #[test]
    fn degenerate_layered_config_is_a_constructor_error() {
        // Bursts precede SPs: without an SP cadence there is none to send.
        for (sp, burst) in [(1usize, 0usize), (4, 4), (4, 5), (0, 3), (0, 1)] {
            let result = ServerSession::new(
                &[1u8; 10_000],
                SessionConfig {
                    layers: 4,
                    sp_interval: sp,
                    burst_rounds: burst,
                    ..SessionConfig::default()
                },
            );
            assert!(
                matches!(result, Err(TornadoError::InvalidParameters { .. })),
                "sp = {sp}, burst = {burst} must be rejected"
            );
        }
    }

    #[test]
    fn sessions_get_disjoint_group_ranges_and_ids() {
        let mut server = FountainServer::new();
        let a = server
            .add_session(
                &[1u8; 30_000],
                SessionConfig {
                    layers: 4,
                    ..Default::default()
                },
            )
            .unwrap();
        let b = server
            .add_session(
                &[2u8; 10_000],
                SessionConfig {
                    layers: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!((a, b), (0, 1));
        let ia = server.session(a).unwrap().control_info();
        let ib = server.session(b).unwrap().control_info();
        assert_eq!(ia.groups().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(ib.groups().collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn control_channel_answers_list_describe_and_garbage() {
        let mut server = FountainServer::new();
        let id = server
            .add_session(&[9u8; 5_000], SessionConfig::default())
            .unwrap();
        let resp = server.handle_control(&ControlRequest::ListSessions);
        assert_eq!(
            resp,
            ControlResponse::SessionList {
                session_ids: vec![id]
            }
        );

        let wire =
            server.handle_control_datagram(&ControlRequest::Describe { session_id: id }.to_bytes());
        match ControlResponse::from_bytes(&wire).unwrap() {
            ControlResponse::Session { info } => assert_eq!(info.file_len, 5_000),
            other => panic!("expected Session, got {other:?}"),
        }

        let wire =
            server.handle_control_datagram(&ControlRequest::Describe { session_id: 77 }.to_bytes());
        assert_eq!(
            ControlResponse::from_bytes(&wire).unwrap(),
            ControlResponse::UnknownSession { session_id: 77 }
        );

        let wire = server.handle_control_datagram(b"not a control datagram");
        assert_eq!(
            ControlResponse::from_bytes(&wire).unwrap(),
            ControlResponse::BadRequest
        );
    }

    #[test]
    fn poll_transmit_interleaves_sessions_fairly() {
        let mut server = FountainServer::new();
        let a = server
            .add_session(&[1u8; 40_000], SessionConfig::default())
            .unwrap();
        let b = server
            .add_session(&[2u8; 40_000], SessionConfig::default())
            .unwrap();
        let (ga, gb) = (
            server.session(a).unwrap().control_info().base_group,
            server.session(b).unwrap().control_info().base_group,
        );
        let mut counts = [0usize; 2];
        for _ in 0..1_000 {
            let (group, _) = server.poll_transmit().unwrap();
            if group == ga {
                counts[0] += 1;
            } else {
                assert_eq!(group, gb);
                counts[1] += 1;
            }
        }
        assert_eq!(counts, [500, 500], "strict alternation between sessions");
    }

    #[test]
    fn a_one_session_server_is_its_session() {
        let data: Vec<u8> = (0..30_000).map(|i| (i * 131 % 251) as u8).collect();
        let flat = SessionConfig {
            layers: 4,
            code_seed: 3,
            session_id: 7,
            base_group: 10,
            ..SessionConfig::default()
        };
        let layered = SessionConfig {
            sp_interval: 4,
            burst_rounds: 1,
            ..flat
        };
        let raptor = SessionConfig {
            layers: 1,
            rateless: RatelessMode::Raptor,
            ..flat
        };
        for config in [flat, layered, raptor] {
            let mut twin = ServerSession::new(&data, config).unwrap();
            let info = twin.control_info().clone();
            let mut server = FountainServer::from(ServerSession::new(&data, config).unwrap());
            // Five rounds: the layered cadence's fourth is a burst.
            let mut expected = Vec::new();
            for _ in 0..5 {
                expected.extend(std::iter::from_fn(|| twin.poll_transmit()));
                assert!(twin.round_complete());
                twin.advance_round();
            }
            if config.burst_rounds > 0 {
                assert!(expected.len() > 5 * info.n, "premise: a burst round");
            }
            let sent: Vec<_> = (0..expected.len())
                .map(|_| server.poll_transmit().unwrap())
                .collect();
            assert!(sent == expected, "{config:?} emitted other datagrams");
            assert_eq!(server.sessions()[0].rounds_sent(), 4);

            let describe = ControlRequest::Describe { session_id: 7 };
            assert_eq!(
                server.handle_control(&describe),
                ControlResponse::Session { info: info.clone() }
            );
            let id = server.add_session(&data, config).unwrap();
            assert_eq!(id, 8);
            let next = server.session(id).unwrap().control_info();
            assert!(next.groups().all(|g| !info.groups().any(|own| own == g)));
        }
    }

    #[test]
    fn rateless_sessions_emit_fresh_seeds_forever() {
        let data = vec![5u8; 25_000]; // k = 50
        for mode in [RatelessMode::Lt, RatelessMode::Raptor] {
            let mut server = ServerSession::new(
                &data,
                SessionConfig {
                    rateless: mode,
                    code_seed: 7,
                    ..SessionConfig::default()
                },
            )
            .unwrap();
            assert!(server.code().is_none(), "no fixed code");
            assert!(server.schedule().is_none(), "no carousel schedule");
            assert!(!server.is_layered() && !server.in_burst());
            assert_eq!(server.rateless_mode(), mode);
            let info = server.control_info();
            assert_eq!(info.rateless, mode);
            assert_eq!(info.k, 50);
            match mode {
                RatelessMode::Lt => assert_eq!(info.n, 50, "LT advertises n = k"),
                RatelessMode::Raptor => assert!(info.n > 50, "Raptor advertises L > k"),
                RatelessMode::Off => unreachable!(),
            }
            // Three rounds of k fresh symbols each; every header carries the
            // next monotonic seed and never repeats.
            let mut seeds = std::collections::HashSet::new();
            for round in 0..3u64 {
                let mut in_round = 0u64;
                while let Some((group, datagram)) = server.poll_transmit() {
                    assert_eq!(group, 0);
                    let pkt = DataPacket::from_bytes(datagram).unwrap();
                    let seed = crate::rateless::seed_from_words(
                        pkt.header.packet_index,
                        pkt.header.serial,
                    );
                    assert_eq!(seed, round * 50 + in_round, "monotonic seed stream");
                    assert!(seeds.insert(seed), "seed {seed} repeated");
                    in_round += 1;
                }
                assert_eq!(in_round, 50, "one k-symbol round");
                assert!(server.round_complete());
                server.advance_round();
            }
            assert_eq!(seeds.len(), 150);
        }
    }

    #[test]
    fn rateless_rejects_layered_configs() {
        for (layers, sp, burst) in [(2usize, 0usize, 0usize), (1, 4, 1), (4, 4, 1), (1, 0, 2)] {
            let result = ServerSession::new(
                &[1u8; 10_000],
                SessionConfig {
                    rateless: RatelessMode::Lt,
                    layers,
                    sp_interval: sp,
                    burst_rounds: burst,
                    ..SessionConfig::default()
                },
            );
            assert!(
                matches!(result, Err(TornadoError::InvalidParameters { .. })),
                "rateless with layers = {layers}, sp = {sp}, burst = {burst} must be rejected"
            );
        }
    }

    #[test]
    fn a_session_its_clients_would_refuse_is_refused_before_encoding() {
        use crate::client::{MAX_K, MAX_PACKET_SIZE};
        let config = |packet_size, rateless| SessionConfig {
            packet_size,
            rateless,
            ..SessionConfig::default()
        };
        let refused = |result: df_core::Result<ServerSession>| {
            matches!(result, Err(TornadoError::InvalidParameters { .. }))
        };
        for mode in [RatelessMode::Off, RatelessMode::Lt, RatelessMode::Raptor] {
            let widest = ServerSession::new(&[7u8; 3], config(MAX_PACKET_SIZE, mode)).unwrap();
            assert!(ClientSession::new(widest.control_info().clone()).is_ok());
            for packet_size in [0, MAX_PACKET_SIZE + 1, 70_000] {
                let result = ServerSession::new(&[7u8; 3], config(packet_size, mode));
                assert!(refused(result), "{mode:?} at packet size {packet_size}");
            }
            assert!(refused(ServerSession::new(&[], config(500, mode))));
        }
        // One packet past the cap: refused before anything is encoded.
        let too_many = vec![0u8; MAX_K + 1];
        let t0 = std::time::Instant::now();
        assert!(refused(ServerSession::new(
            &too_many,
            config(1, RatelessMode::Off)
        )));
        assert!(t0.elapsed() < std::time::Duration::from_millis(100));
    }

    /// A profile named "tornado-a" whose graphs are not Tornado A's.
    const MISLABELLED: TornadoProfile = TornadoProfile {
        distribution: df_core::DegreeDistribution::heavy_tail(9),
        ..TORNADO_A
    };

    /// Tornado A's graphs under a name no client resolves.
    const CUSTOM: TornadoProfile = TornadoProfile {
        name: "custom",
        ..TORNADO_A
    };

    #[test]
    fn a_carousel_whose_profile_its_name_does_not_resolve_to_is_refused() {
        // Clients rebuild the code from the profile's name alone: under
        // MISLABELLED they would decode over Tornado A's graphs and finish
        // with wrong bytes, and they refuse CUSTOM's name outright.
        let data: Vec<u8> = (0..200_000).map(|i| (i * 131 % 251) as u8).collect();
        for (profile, layers) in [(MISLABELLED, 1), (MISLABELLED, 4), (CUSTOM, 1)] {
            let config = SessionConfig {
                profile,
                layers,
                ..SessionConfig::default()
            };
            let result = ServerSession::new(&data, config);
            assert!(
                matches!(result, Err(TornadoError::InvalidParameters { .. })),
                "{:?} on {layers} layers must be refused: {:?}",
                profile.name,
                result.map(drop)
            );
        }
        // A rateless session has no Tornado code for a client to rebuild.
        let config = SessionConfig {
            profile: MISLABELLED,
            rateless: RatelessMode::Lt,
            ..SessionConfig::default()
        };
        assert!(ServerSession::new(&data, config).is_ok());
    }

    // The tables the properties draw from.  Each holds both sides of each
    // limit, with a valid value at either end (the draws favour the ends)
    // and the common shapes more than once, so that enough drawn sessions
    // pass every rule at once.

    const PACKET_SIZES: [usize; 12] = [
        1,
        16,
        499,
        0,
        500,
        1024,
        crate::client::MAX_PACKET_SIZE + 1,
        500,
        4096,
        70_000,
        501,
        crate::client::MAX_PACKET_SIZE,
    ];

    const LAYERS: [usize; 12] = [
        1,
        1,
        2,
        0,
        4,
        1,
        MAX_SCHEDULED_LAYERS + 1,
        3,
        33,
        1,
        2,
        MAX_SCHEDULED_LAYERS,
    ];

    /// `(sp_interval, burst_rounds)`.
    const CADENCES: [(usize, usize); 13] = [
        (0, 0),
        (2, 1),
        (0, 1),
        (0, 0),
        (4, 3),
        (1, 0),
        (0, 0),
        (2, 2),
        (8, 2),
        (crate::client::MAX_SP_INTERVAL + 1, 0),
        (crate::client::MAX_SP_INTERVAL, 1),
        (2, 0),
        (0, 0),
    ];

    const MODES: [RatelessMode; 3] = [RatelessMode::Off, RatelessMode::Lt, RatelessMode::Raptor];

    const PROFILES: [TornadoProfile; 6] = [
        TORNADO_A,
        df_core::TORNADO_B,
        MISLABELLED,
        TORNADO_A,
        CUSTOM,
        df_core::TORNADO_B,
    ];

    /// The session config the properties' draws make: indices into the
    /// tables above, a base group (replaced by `u32::MAX - top` when `top`
    /// is at most 20, where group ranges run out) and a code seed.
    fn drawn_config(
        [packet_size, layers, cadence, mode, profile]: [usize; 5],
        base_group: u32,
        top: u32,
        code_seed: u64,
    ) -> SessionConfig {
        let (sp_interval, burst_rounds) = CADENCES[cadence];
        SessionConfig {
            packet_size: PACKET_SIZES[packet_size],
            layers: LAYERS[layers],
            profile: PROFILES[profile],
            code_seed,
            base_group: if top <= 20 {
                u32::MAX - top
            } else {
                base_group
            },
            session_id: 0,
            sp_interval,
            burst_rounds,
            rateless: MODES[mode],
        }
    }

    /// Download `data` from `server` over `SimMulticast` behind `loss`,
    /// joining and leaving groups as the client decides; `None` if 2 000
    /// rounds do not complete it.
    fn download(server: &mut ServerSession, loss: f64, seed: u64) -> Option<Vec<u8>> {
        let net = SimMulticast::new(seed);
        let (mut tx, mut rx) = (net.endpoint(0.0), net.endpoint(loss));
        let mut client = ClientSession::new(server.control_info().clone()).ok()?;
        for group in client.subscribed_groups() {
            rx.join(group).ok()?;
        }
        for _ in 0..2_000 {
            server.send_round(&mut tx);
            while let Some((_group, datagram)) = rx.recv() {
                match client.handle_datagram(datagram) {
                    ClientEvent::Join { group } => rx.join(group).ok()?,
                    ClientEvent::Leave { group } => rx.leave(group),
                    ClientEvent::Complete => return client.file().map(<[u8]>::to_vec),
                    _ => {}
                }
            }
        }
        None
    }

    /// The property over one drawn session: the server constructs exactly
    /// when a client of its announcement does (and the profile is the one
    /// its name resolves to, where a code is rebuilt from it); an accepted
    /// announcement is what the config says and round-trips through the
    /// control framing; and a small accepted session sends only on the
    /// announced groups and downloads byte-exact at 0 % and at 20 % loss.
    fn server_and_clients_agree(
        file_len: usize,
        config: SessionConfig,
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::{prop_assert, prop_assert_eq};
        let data: Vec<u8> = (0..file_len).map(|i| (i * 131 % 251) as u8).collect();
        let server = ServerSession::new(&data, config);
        let mut info = ControlInfo {
            session_id: config.session_id,
            file_len,
            packet_size: config.packet_size,
            k: file_len.div_ceil(config.packet_size.max(1)),
            n: 0,
            code_seed: config.code_seed,
            layers: config.layers,
            base_group: config.base_group,
            sp_interval: config.sp_interval,
            burst_rounds: config.burst_rounds,
            rateless: config.rateless,
            profile: config.profile.name.to_string(),
        };
        // The `n` of the code a client rebuilds, where it rebuilds one.
        info.n = admit_session(&info).map_or(0, |(_, n, _)| n);
        let client = ClientSession::new(info.clone());
        let named = config.rateless.is_rateless()
            || TornadoProfile::by_name(config.profile.name) == Some(config.profile);
        prop_assert_eq!(
            server.is_ok(),
            client.is_ok() && named,
            "{:?} over {} bytes: server {:?}, client {:?}",
            config,
            file_len,
            server.as_ref().err(),
            client.as_ref().err()
        );
        let Ok(mut server) = server else {
            return Ok(());
        };
        prop_assert_eq!(server.control_info(), &info);
        let response = ControlResponse::Session { info: info.clone() };
        prop_assert_eq!(
            ControlResponse::from_bytes(&response.to_bytes()),
            Some(response)
        );
        if info.k <= 64 && info.layers <= 4 && info.sp_interval <= 16 {
            while let Some((group, _)) = server.poll_transmit() {
                prop_assert!(
                    info.groups().any(|announced| announced == group),
                    "{:?} sent on unannounced group {}",
                    config,
                    group
                );
            }
            for loss in [0.0, 0.2] {
                let got = download(&mut server, loss, config.code_seed);
                prop_assert!(
                    got.as_deref() == Some(&data[..]),
                    "{:?} over {} bytes at {} loss did not download byte-exact",
                    config,
                    file_len,
                    loss
                );
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn prop_a_session_the_server_accepts_is_one_its_clients_accept(
            file_len in 0usize..=12_000,
            packet_size in 0usize..PACKET_SIZES.len(),
            layers in 0usize..LAYERS.len(),
            cadence in 0usize..CADENCES.len(),
            mode in 0usize..MODES.len(),
            profile in 0usize..PROFILES.len(),
            base_group: u32,
            top in 0u32..=80,
            code_seed: u64,
        ) {
            let picks = [packet_size, layers, cadence, mode, profile];
            let config = drawn_config(picks, base_group, top, code_seed);
            server_and_clients_agree(file_len, config)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4_000))]

        #[test]
        #[ignore = "the wide sweep: CI's release liveness step runs it"]
        fn prop_wide_sweep_a_session_the_server_accepts_is_one_its_clients_accept(
            file_len in 0usize..=60_000,
            packet_size in 0usize..PACKET_SIZES.len(),
            layers in 0usize..LAYERS.len(),
            cadence in 0usize..CADENCES.len(),
            mode in 0usize..MODES.len(),
            profile in 0usize..PROFILES.len(),
            base_group: u32,
            top in 0u32..=80,
            code_seed: u64,
        ) {
            let picks = [packet_size, layers, cadence, mode, profile];
            let config = drawn_config(picks, base_group, top, code_seed);
            server_and_clients_agree(file_len, config)?;
        }
    }

    #[test]
    fn a_group_range_may_end_at_u32_max_and_the_next_session_is_refused() {
        // A range that would overflow `u32` is refused at construction
        // (`prop_a_session_the_server_accepts_is_one_its_clients_accept`);
        // one that ends at `u32::MAX` transmits on it.
        let config = |base_group, layers| SessionConfig {
            base_group,
            layers,
            ..SessionConfig::default()
        };
        let mut last = ServerSession::new(&[1; 1000], config(u32::MAX - 1, 2)).unwrap();
        let groups: Vec<u32> = std::iter::from_fn(|| last.poll_transmit())
            .map(|(group, _)| group)
            .collect();
        assert_eq!(groups.iter().max(), Some(&u32::MAX));

        let mut server = FountainServer::new();
        server.next_group = u64::from(u32::MAX) - 3;
        assert!(server.add_session(&[1; 1000], config(0, 8)).is_err());
        let id = server.add_session(&[1; 1000], config(0, 4)).unwrap();
        assert_eq!(
            server.session(id).unwrap().control_info().base_group,
            u32::MAX - 3
        );
        let refused_next = server.add_session(&[1; 1000], config(0, 1));
        assert!(matches!(
            refused_next,
            Err(TornadoError::InvalidParameters { .. })
        ));
        assert_eq!(server.sessions().len(), 1);
    }

    #[test]
    fn empty_server_transmits_nothing() {
        let mut server = FountainServer::new();
        assert!(server.poll_transmit().is_none());
        assert_eq!(
            server.handle_control(&ControlRequest::ListSessions),
            ControlResponse::SessionList {
                session_ids: vec![]
            }
        );
    }
}

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

use crate::control::{ControlInfo, ControlRequest, ControlResponse};
use crate::rateless::{seed_to_words, RatelessMode, RatelessSender};
use crate::transport::Transport;
use crate::wire::{DataPacket, PacketHeader};
use bytes::Bytes;
use df_core::{PacketizedFile, RaptorCode, TornadoCode, TornadoProfile, TORNADO_A};
use df_mcast::{LayeredSession, TransmissionSchedule};
use std::collections::VecDeque;

/// Parameters for one carousel session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Payload bytes per packet (the paper's prototype uses 500).
    pub packet_size: usize,
    /// Number of multicast layers.
    pub layers: usize,
    /// Tornado profile to encode with.
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
    /// Rounds of double-rate burst preceding each SP (only meaningful when
    /// `sp_interval > 0`; must then be `< sp_interval`).
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
    engine: Engine,
    control: ControlInfo,
    serial: u32,
    round: usize,
    /// Total datagrams emitted (all modes; the rateless seed stream can
    /// exceed `u32`, so this is not the wire serial).
    sent: u64,
}

/// The transmit machinery behind a [`ServerSession`]: either the classic
/// fixed-encoding carousel or a never-repeating rateless symbol stream.
#[derive(Debug)]
enum Engine {
    Carousel {
        code: TornadoCode,
        encoding: Vec<Vec<u8>>,
        schedule: TransmissionSchedule,
        /// SP/burst cadence of the layered congestion-control mode; `None`
        /// for a flat carousel.
        layered: Option<LayeredSession>,
        /// `(layer, encoding index)` pairs still to transmit this round.
        pending: VecDeque<(usize, usize)>,
    },
    Rateless(RatelessSender),
}

impl ServerSession {
    /// Encode `data` under `config` and prepare the carousel (or, for a
    /// rateless `config`, the endless symbol stream).
    ///
    /// # Errors
    ///
    /// Propagates packetisation and encoding errors from `df-core`, and
    /// returns [`df_core::TornadoError::InvalidParameters`] for a degenerate
    /// layered configuration (see [`df_mcast::LayeredSession::new`]) or a
    /// rateless configuration that is not single-layer and flat.
    pub fn new(data: &[u8], config: SessionConfig) -> df_core::Result<Self> {
        let file = PacketizedFile::split(data, config.packet_size)?;
        if config.rateless.is_rateless() {
            return Self::new_rateless(&file, config);
        }
        let code = TornadoCode::with_profile(file.num_packets(), config.profile, config.code_seed)?;
        let file_len = file.file_len();
        // The packets move into the encoding as its systematic prefix: the
        // session never holds the file a second time.
        let encoding = code.encode_owned(file.into_packets())?;
        let layered = if config.sp_interval > 0 {
            Some(LayeredSession::new(
                config.layers,
                code.n(),
                config.sp_interval,
                config.burst_rounds,
            )?)
        } else {
            None
        };
        let schedule = TransmissionSchedule::new(config.layers, code.n());
        let control = ControlInfo {
            session_id: config.session_id,
            file_len,
            packet_size: config.packet_size,
            k: code.k(),
            n: code.n(),
            code_seed: config.code_seed,
            layers: config.layers,
            base_group: config.base_group,
            sp_interval: config.sp_interval,
            burst_rounds: config.burst_rounds,
            rateless: RatelessMode::Off,
            profile: config.profile.name.to_string(),
        };
        let mut session = ServerSession {
            engine: Engine::Carousel {
                code,
                encoding,
                schedule,
                layered,
                pending: VecDeque::new(),
            },
            control,
            serial: 0,
            round: 0,
            sent: 0,
        };
        session.refill_round();
        Ok(session)
    }

    /// Build the rateless variant: no retained encoding, no schedule — just
    /// the seed-carrying symbol stream over one multicast group.
    fn new_rateless(file: &PacketizedFile, config: SessionConfig) -> df_core::Result<Self> {
        if config.layers != 1 || config.sp_interval != 0 {
            return Err(df_core::TornadoError::InvalidParameters {
                reason: format!(
                    "rateless sessions are single-layer and flat; got layers = {}, \
                     sp_interval = {} (every symbol is already distinct, so the \
                     layered schedule has nothing to add)",
                    config.layers, config.sp_interval
                ),
            });
        }
        let k = file.num_packets();
        let (sender, n) = match config.rateless {
            RatelessMode::Lt => {
                // The LT layer ranges over the k uniform source packets
                // themselves (PacketizedFile pads the last one), so the
                // advertised symbol count n is k.
                (RatelessSender::for_lt(file.packets(), config.code_seed)?, k)
            }
            RatelessMode::Raptor => {
                let code = RaptorCode::new(k, config.code_seed)?;
                let n = code.intermediate_count();
                (RatelessSender::for_raptor(&code, file.packets())?, n)
            }
            // Unreachable (the caller dispatched on is_rateless()), but an
            // error beats a panic in session-construction code.
            RatelessMode::Off => {
                return Err(df_core::TornadoError::InvalidParameters {
                    reason: "rateless constructor called with mode Off".to_string(),
                })
            }
        };
        let control = ControlInfo {
            session_id: config.session_id,
            file_len: file.file_len(),
            packet_size: config.packet_size,
            k,
            n,
            code_seed: config.code_seed,
            layers: 1,
            base_group: config.base_group,
            sp_interval: 0,
            burst_rounds: 0,
            rateless: config.rateless,
            profile: config.profile.name.to_string(),
        };
        Ok(ServerSession {
            engine: Engine::Rateless(sender),
            control,
            serial: 0,
            round: 0,
            sent: 0,
        })
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
    /// benchmarks); `None` for rateless sessions, which retain no fixed
    /// encoding at all.
    pub fn code(&self) -> Option<&TornadoCode> {
        match &self.engine {
            Engine::Carousel { code, .. } => Some(code),
            Engine::Rateless(_) => None,
        }
    }

    /// The reverse-binary transmission schedule driving the carousel;
    /// `None` for rateless sessions (an endless seed stream has no
    /// schedule).
    pub fn schedule(&self) -> Option<&TransmissionSchedule> {
        match &self.engine {
            Engine::Carousel { schedule, .. } => Some(schedule),
            Engine::Rateless(_) => None,
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
    pub fn in_burst(&self) -> bool {
        match &self.engine {
            Engine::Carousel { layered, .. } => {
                layered.as_ref().is_some_and(|l| l.is_burst(self.round))
            }
            Engine::Rateless(_) => false,
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
        let out = match &mut self.engine {
            Engine::Carousel {
                encoding, pending, ..
            } => {
                let (layer, idx) = pending.pop_front()?;
                let group = self.control.base_group + layer as u32;
                let header = PacketHeader {
                    packet_index: idx as u32,
                    serial: self.serial,
                    group,
                };
                self.serial = self.serial.wrapping_add(1);
                // Frame from the retained encoding.  This allocates one
                // buffer and copies the payload into it once per datagram,
                // forever, for packets the carousel already holds; the
                // socket-path item of ROADMAP.md (header plus borrowed
                // payload as an `iovec`) removes the copy.
                (group, DataPacket::frame(&header, &encoding[idx]))
            }
            Engine::Rateless(sender) => {
                if sender.round_complete() {
                    return None;
                }
                let group = self.control.base_group;
                // The symbol is XORed straight into the datagram, behind
                // the header its seed becomes.
                let datagram = DataPacket::frame_in_place(sender.symbol_len(), |payload| {
                    let (packet_index, serial) = seed_to_words(sender.poll_into(payload)?);
                    Some(PacketHeader {
                        packet_index,
                        serial,
                        group,
                    })
                })?;
                (group, datagram)
            }
        };
        self.sent += 1;
        Some(out)
    }

    /// True when the current round's schedule (or rateless symbol quota) has
    /// been fully polled.
    pub fn round_complete(&self) -> bool {
        match &self.engine {
            Engine::Carousel { pending, .. } => pending.is_empty(),
            Engine::Rateless(sender) => sender.round_complete(),
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
            Engine::Rateless(sender) => sender.advance_round(),
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

    /// Total data packets transmitted so far (`u64`: a rateless session's
    /// seed stream outlives any `u32` counter).
    pub fn packets_sent(&self) -> u64 {
        self.sent
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
    next_group: u32,
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
    /// See [`ServerSession::new`].
    pub fn add_session(&mut self, data: &[u8], config: SessionConfig) -> df_core::Result<u32> {
        let config = SessionConfig {
            session_id: self.next_id,
            base_group: self.next_group,
            ..config
        };
        let session = ServerSession::new(data, config)?;
        self.next_group += config.layers as u32;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{SimMulticast, Transport};

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
        assert_eq!(a.packets_sent(), b.packets_sent());
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
            server.advance_round();
        }
        assert_eq!(server.packets_sent() as usize, 12 * n / 2 * 3);
    }

    #[test]
    fn degenerate_layered_config_is_a_constructor_error() {
        for (sp, burst) in [(1usize, 0usize), (4, 4), (4, 5)] {
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
                matches!(result, Err(df_core::TornadoError::InvalidParameters { .. })),
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
            assert!(server.code().is_none(), "no retained encoding");
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
            assert_eq!(server.packets_sent(), 150);
        }
    }

    #[test]
    fn rateless_rejects_layered_configs() {
        for (layers, sp) in [(2usize, 0usize), (1, 4), (4, 4)] {
            let result = ServerSession::new(
                &[1u8; 10_000],
                SessionConfig {
                    rateless: RatelessMode::Lt,
                    layers,
                    sp_interval: sp,
                    burst_rounds: sp.saturating_sub(3),
                    ..SessionConfig::default()
                },
            );
            assert!(
                matches!(result, Err(df_core::TornadoError::InvalidParameters { .. })),
                "rateless with layers = {layers}, sp = {sp} must be rejected"
            );
        }
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

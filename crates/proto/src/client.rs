//! The client side of the prototype: a pure (sans-I/O) download state
//! machine.
//!
//! [`ClientSession`] rebuilds the code from the [`ControlInfo`] fetched over
//! the control channel and consumes datagrams one at a time through
//! [`ClientSession::handle_datagram`], which reports what each datagram did
//! as a [`ClientEvent`].  The session never touches a socket: a driver loop
//! joins the groups in [`ClientSession::groups`] on its transport, pulls
//! datagrams, and feeds them in.
//!
//! Decoding is *on arrival*: every distinct, valid packet goes straight into
//! a [`df_core::OwnedPayloadDecoder`], and the download completes on the
//! packet that makes the source decodable — exactly `k` receptions for a
//! receiver that loses nothing, the first decodable prefix for every other.
//! (Section 7.2's prototype counted to `(1 + ε)k` before trying because its
//! decoder was a batch routine; this one only counts until a packet is
//! released, so there is nothing to wait for.)  Nothing is staged and nothing
//! is refused: a carousel has `n` packets, the index check and the duplicate
//! filter come first, so the decoder holds at most `n` payloads whatever a
//! channel — honest or forged — delivers, and a receiver that keeps
//! listening always finishes.
//!
//! What a session costs beyond its packets is small on purpose.  The code it
//! rebuilds is the process's one live cascade for the announced
//! `(k, profile, code_seed)` ([`df_core::codec`]): the first session of a
//! file builds it, every later one — and the server session itself, when it
//! lives in the same process — finds it alive, so a swarm of receivers pays
//! for one graph.  And a session holds each payload once: a carousel
//! receiver copies every new payload straight from the datagram into its
//! decoder's file-shaped slab ([`df_core::Slab`]), and at completion that
//! slab's source rows *are* [`ClientSession::file`] — taken out of the
//! decoder, not copied from it — while the check rows are dropped, leaving
//! only the counters behind.

use crate::control::ControlInfo;
use crate::layered::LayerController;
use crate::rateless::{seed_from_words, RatelessMode, RatelessReceiver};
use crate::wire::DataPacket;
use bytes::Bytes;
use df_core::{
    OwnedPayloadDecoder, RaptorCode, Reception, ReceptionCounter, TornadoCode, TornadoError,
    TornadoProfile,
};
use df_mcast::LayeredSession;

/// Reception statistics for one download: the session's
/// [`ReceptionCounter`] and the symbols it refused.  It reads as its
/// [`Reception`] counts, so `η`, `η_c`, `η_d` and `ε` are the counts' own.
///
/// A carousel session counts distinct *encoding indices* out of its `n`; a
/// rateless session receives an unbounded stream of 64-bit seeds with no
/// index range to bound a bitmap by, so its counter takes the decoder's
/// verdict on seed novelty.  For an honest rateless stream `η_d` is exactly
/// `1.0` — every seed is fresh — which is the whole point of the mode; a
/// carousel's late joiners decay toward the ≈ 0.64 distinctness of uniform
/// sampling with replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct DownloadStats {
    counter: ReceptionCounter,
    rejected: u64,
}

impl DownloadStats {
    /// Packets received (after network loss), including duplicates.
    pub fn received(&self) -> usize {
        self.counter.received
    }

    /// Distinct packets received: distinct encoding indices for a carousel,
    /// distinct symbol seeds for a rateless session.
    pub fn distinct(&self) -> usize {
        self.counter.distinct
    }

    /// Number of source packets in the file.
    pub fn k(&self) -> usize {
        self.counter.k
    }

    /// Decode attempts that did not complete.  Always `0`: both session kinds
    /// decode on arrival, so there is no attempt to fail.
    pub fn decode_attempts(&self) -> usize {
        0
    }

    /// Valid-looking symbols a rateless session refused because its receiver
    /// was at capacity ([`RatelessReceiver::at_capacity`]) — the
    /// bounded-memory contract's visible counter.  Always `0` for a
    /// carousel, which refuses nothing.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

impl std::ops::Deref for DownloadStats {
    type Target = Reception;

    fn deref(&self) -> &Reception {
        &self.counter
    }
}

/// What one datagram did to the session state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent {
    /// The datagram was malformed, foreign, or carried an unexpected payload
    /// length; the best-effort channel delivered noise and it was dropped.
    Ignored,
    /// A duplicate of an already-received packet (counted, not buffered).
    Duplicate,
    /// A new, well-formed rateless symbol was refused because the session
    /// already buffers [`ClientSession::buffer_cap`] undecoded equations —
    /// the bounded-memory backstop against a flood of forged-but-valid-looking
    /// seeds.  Counted in [`DownloadStats::rejected`].  A carousel session
    /// never answers this: its packets are bounded by `n` already.
    Rejected,
    /// A new packet went to the decoder, which cannot reconstruct the file
    /// yet.
    Buffered,
    /// The layered congestion-control logic decided to add the next layer
    /// at a synchronisation point: the I/O driver should now call
    /// [`crate::Transport::join`] for `group`.  The session has already
    /// updated its subscription state — the event is the driver's cue, not
    /// a request for permission (sans-I/O: the session decides, the driver
    /// owns the socket).
    Join {
        /// Multicast group of the newly subscribed layer.
        group: u32,
    },
    /// The layered congestion-control logic shed the top layer after
    /// sustained loss: the I/O driver should now call
    /// [`crate::Transport::leave`] for `group`.
    Leave {
        /// Multicast group of the dropped layer.
        group: u32,
    },
    /// The file is fully reconstructed (also returned for every datagram fed
    /// after completion).
    Complete,
}

/// Most layers any announced session may use.  The reverse-binary schedule's
/// block size is `2^(layers−1)`, so real deployments use a handful; the cap
/// exists to bound what a malicious control channel can make a driver do
/// (each advertised group costs the driver a `join`, i.e. a socket).
pub const MAX_LAYERS: usize = 32;

/// Most source packets any announced session may claim.  2²⁴ packets is an
/// ~8 GB file at the paper's 500-byte payloads — far beyond the benchmarks —
/// while keeping the cost of rebuilding a hostile session's cascade bounded
/// (code construction is `O(k)` memory and must not run on unvalidated
/// wire-sourced sizes).
pub const MAX_K: usize = 1 << 24;

/// Longest file a carousel session may announce.  A receiver's decoder
/// keeps the source rows in one buffer laid out as the file and reserves
/// all of it at the first datagram, so this bounds what one datagram of a
/// hostile session can make a client ask the allocator for.  2³³ bytes
/// admits every `k ≤ MAX_K` at payloads up to 512 bytes.
pub const MAX_FILE_LEN: usize = 1 << 33;

/// Most layers a *layered* (adaptive congestion-control) session may use —
/// [`df_mcast::LayeredSession::new`] enforces it for servers and clients
/// alike.  Flat sessions may go up to [`MAX_LAYERS`].
pub const MAX_SCHEDULED_LAYERS: usize = df_mcast::MAX_LAYERS;

/// Longest SP interval a layered session may announce, also enforced by
/// [`df_mcast::LayeredSession::new`] on both sides.  Bounds the per-round
/// accounting a hostile control channel can make a client keep (the loss
/// tracker holds O(`sp_interval`) round counters).
pub const MAX_SP_INTERVAL: usize = df_mcast::MAX_SP_INTERVAL;

/// Largest payload a data packet can carry over UDP: the 65 507-byte UDP
/// maximum minus the 12-byte header, minus the 2-byte pad a GF(2^16) final
/// code adds to a carousel's check packets at odd sizes (rateless symbols
/// are never padded, and keep the same limit).
const MAX_PACKET_SIZE: usize = 65_507 - crate::wire::HEADER_LEN - 2;

/// The decode machinery behind one [`ClientSession`]: the index-addressed
/// Tornado peeling decoder of a carousel or the seed-addressed streaming
/// [`RatelessReceiver`].
#[derive(Debug)]
enum Backend {
    Carousel {
        code: TornadoCode,
        decoder: Box<OwnedPayloadDecoder>,
    },
    Rateless(Box<RatelessReceiver>),
}

/// A downloading client session for one announced session.
#[derive(Debug)]
pub struct ClientSession {
    control: ControlInfo,
    backend: Backend,
    stats: DownloadStats,
    /// The receiver-driven join/leave state machine of the layered
    /// congestion-control mode; `None` for flat sessions.
    controller: Option<LayerController>,
    file: Option<Vec<u8>>,
}

impl ClientSession {
    /// Join a session described by `control` (obtained from the server's
    /// control channel).
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] for an unknown profile name
    /// or control parameters inconsistent with the rebuilt code, and
    /// propagates code-construction errors.  The control channel is
    /// untrusted input, so every cheap structural check — profile name,
    /// layer count, group-range overflow, packet size, and bounds on `k`
    /// and on the file length — runs *before* the `O(k)` code construction;
    /// a hostile announcement cannot make a client allocate an unbounded
    /// cascade, nor reserve an unbounded file.
    pub fn new(control: ControlInfo) -> df_core::Result<Self> {
        let malformed = |reason: String| TornadoError::MalformedInput { reason };
        if control.rateless.is_rateless() {
            // The profile name is not consulted in rateless mode (there is
            // no negotiated Tornado code to rebuild), so it is deliberately
            // not validated either.
            return Self::new_rateless(control);
        }
        let profile = TornadoProfile::by_name(&control.profile)
            .ok_or_else(|| malformed(format!("unknown Tornado profile {:?}", control.profile)))?;
        if control.layers == 0 || control.layers > MAX_LAYERS {
            return Err(malformed(format!(
                "control info advertises {} layers (expected 1..={MAX_LAYERS})",
                control.layers
            )));
        }
        if control
            .base_group
            .checked_add(control.layers as u32 - 1)
            .is_none()
        {
            return Err(malformed(format!(
                "group range {} + {} layers overflows the group space",
                control.base_group, control.layers
            )));
        }
        if control.packet_size == 0 || control.packet_size > MAX_PACKET_SIZE {
            return Err(malformed(format!(
                "packet size {} cannot be framed into a UDP datagram \
                 (expected 1..={MAX_PACKET_SIZE})",
                control.packet_size
            )));
        }
        if control.k == 0 || control.k > MAX_K {
            return Err(malformed(format!(
                "control info advertises k = {} (expected 1..={MAX_K})",
                control.k
            )));
        }
        if control.file_len > MAX_FILE_LEN {
            return Err(malformed(format!(
                "control info advertises a file of {} bytes (at most {MAX_FILE_LEN})",
                control.file_len
            )));
        }
        // Layered congestion-control mode: the announced cadence must pass
        // the *same* validating constructor the server transmits from, so a
        // well-formed server can never announce a session its own clients
        // reject.  This is cheap and runs before the O(k) code build.
        let layered = if control.sp_interval > 0 {
            Some(
                LayeredSession::new(
                    control.layers,
                    control.n,
                    control.sp_interval,
                    control.burst_rounds,
                )
                .map_err(|e| malformed(format!("layered cadence rejected: {e}")))?,
            )
        } else {
            None
        };
        if control.file_len.div_ceil(control.packet_size) != control.k {
            return Err(malformed(format!(
                "file length {} at packet size {} yields {} packets, not k = {}",
                control.file_len,
                control.packet_size,
                control.file_len.div_ceil(control.packet_size),
                control.k
            )));
        }
        let code = TornadoCode::with_profile(control.k, profile, control.code_seed)?;
        if code.n() != control.n {
            return Err(malformed(format!(
                "control info advertises n = {} but profile {:?} at k = {} yields n = {}",
                control.n,
                control.profile,
                control.k,
                code.n()
            )));
        }
        let decoder = Box::new(code.owned_decoder());
        let controller = layered.map(|session| LayerController::new(session, control.base_group));
        Ok(ClientSession {
            stats: DownloadStats {
                counter: ReceptionCounter::new(code.n(), code.k()),
                rejected: 0,
            },
            control,
            backend: Backend::Carousel { code, decoder },
            controller,
            file: None,
        })
    }

    /// Join a seed-carrying rateless session.  Same untrusted-input posture
    /// as the carousel path: every cheap structural check runs before the
    /// `O(k)` decoder construction.
    fn new_rateless(control: ControlInfo) -> df_core::Result<Self> {
        let malformed = |reason: String| TornadoError::MalformedInput { reason };
        // Rateless sessions are single-layer and flat by protocol (the
        // server enforces the same); a hostile announcement mixing the modes
        // is rejected rather than guessed about.
        if control.layers != 1 || control.sp_interval != 0 || control.burst_rounds != 0 {
            return Err(malformed(format!(
                "rateless sessions are single-layer and flat; control claims layers = {}, \
                 sp_interval = {}, burst_rounds = {}",
                control.layers, control.sp_interval, control.burst_rounds
            )));
        }
        if control.packet_size == 0 || control.packet_size > MAX_PACKET_SIZE {
            return Err(malformed(format!(
                "packet size {} cannot be framed into a UDP datagram \
                 (expected 1..={MAX_PACKET_SIZE})",
                control.packet_size
            )));
        }
        if control.k == 0 || control.k > MAX_K {
            return Err(malformed(format!(
                "control info advertises k = {} (expected 1..={MAX_K})",
                control.k
            )));
        }
        if control.file_len.div_ceil(control.packet_size) != control.k {
            return Err(malformed(format!(
                "file length {} at packet size {} yields {} packets, not k = {}",
                control.file_len,
                control.packet_size,
                control.file_len.div_ceil(control.packet_size),
                control.k
            )));
        }
        let receiver = match control.rateless {
            RatelessMode::Lt => {
                // The LT symbol range is the k source packets themselves.
                if control.n != control.k {
                    return Err(malformed(format!(
                        "LT rateless control must advertise n = k, got n = {} for k = {}",
                        control.n, control.k
                    )));
                }
                RatelessReceiver::for_lt(control.k, control.packet_size, control.code_seed)?
            }
            RatelessMode::Raptor => {
                let code = RaptorCode::new(control.k, control.code_seed)?;
                if code.intermediate_count() != control.n {
                    return Err(malformed(format!(
                        "control info advertises n = {} but the Raptor precode at k = {} \
                         yields {} intermediates",
                        control.n,
                        control.k,
                        code.intermediate_count()
                    )));
                }
                RatelessReceiver::for_raptor(&code, control.packet_size)
            }
            RatelessMode::Off => {
                return Err(malformed(
                    "rateless constructor called with mode Off".to_string(),
                ))
            }
        };
        Ok(ClientSession {
            stats: DownloadStats {
                counter: ReceptionCounter::streaming(control.k),
                rejected: 0,
            },
            control,
            backend: Backend::Rateless(Box::new(receiver)),
            controller: None,
            file: None,
        })
    }

    /// The session parameters this client joined with.
    pub fn control_info(&self) -> &ControlInfo {
        &self.control
    }

    /// The multicast groups the session transmits on (all of them,
    /// regardless of subscription); see [`ClientSession::subscribed_groups`]
    /// for what the driver should actually join.
    pub fn groups(&self) -> impl Iterator<Item = u32> + '_ {
        self.control.groups()
    }

    /// The groups the I/O driver should currently be joined to.  For a flat
    /// session this is every session group; for a layered session it is the
    /// cumulative prefix up to the current subscription level — the driver
    /// joins these at start-up and afterwards tracks the
    /// [`ClientEvent::Join`] / [`ClientEvent::Leave`] events.
    pub fn subscribed_groups(&self) -> Vec<u32> {
        match &self.controller {
            Some(c) => c.subscribed_groups().collect(),
            None => self.control.groups().collect(),
        }
    }

    /// True when the session runs the receiver-driven layered
    /// congestion-control protocol (the server announced an SP cadence).
    pub fn is_layered(&self) -> bool {
        self.controller.is_some()
    }

    /// Data-path encoding of this session.
    pub fn rateless_mode(&self) -> RatelessMode {
        self.control.rateless
    }

    /// Current cumulative subscription level of a layered session (`0` =
    /// base layer only); `None` for flat sessions.
    pub fn subscription_level(&self) -> Option<usize> {
        self.controller.as_ref().map(|c| c.level())
    }

    /// Reception statistics so far.
    pub fn stats(&self) -> &DownloadStats {
        &self.stats
    }

    /// The reconstructed file, once the download has completed.
    pub fn file(&self) -> Option<&[u8]> {
        self.file.as_deref()
    }

    /// True once the file has been reconstructed.
    pub fn is_complete(&self) -> bool {
        self.file.is_some()
    }

    /// Payloads the decode machinery holds: rows of the peeling decoder's
    /// slab (carousel) or undecoded equations (rateless).  Never more than
    /// [`Self::buffer_cap`], and `0` once the download is complete: the
    /// decoder lets go of everything as [`Self::file`] is made.
    pub fn held_packets(&self) -> usize {
        match &self.backend {
            Backend::Carousel { decoder, .. } => decoder.held(),
            Backend::Rateless(receiver) => receiver.pending_equations(),
        }
    }

    /// Most payloads this session will ever hold.  For a carousel that is
    /// `n`, by construction: only in-range indices get past the header checks
    /// and each is taken once.  A rateless stream has no such universe, so
    /// its receiver refuses new symbols ([`ClientEvent::Rejected`], counted
    /// in [`DownloadStats::rejected`]) at this many undecoded equations (or
    /// at an edge budget, see [`RatelessReceiver::max_edges`]).
    pub fn buffer_cap(&self) -> usize {
        match &self.backend {
            Backend::Carousel { code, .. } => code.n(),
            Backend::Rateless(receiver) => receiver.max_equations(),
        }
    }

    /// Feed one received datagram to the session.
    ///
    /// Besides the decode-progress events, a layered session may answer with
    /// [`ClientEvent::Join`] or [`ClientEvent::Leave`] when the datagram's
    /// header pushed the congestion-control logic across a synchronisation
    /// point; the driver applies the change on its transport.  A
    /// subscription event takes priority over `Buffered`/`Duplicate` for the
    /// same datagram (the decode bookkeeping still
    /// happens; only the report favours the actionable event), while
    /// `Complete` always wins — a finished download needs no subscription.
    pub fn handle_datagram(&mut self, datagram: Bytes) -> ClientEvent {
        let event = self.digest_datagram(datagram);
        if event == ClientEvent::Complete {
            // A datagram can cross an SP *and* finish the decode; the driver
            // will only ever see `Complete`, so any subscription change it
            // was never told about must be unwound or `subscribed_groups`
            // would disagree with the transport's actual memberships.
            if let Some(controller) = &mut self.controller {
                controller.rollback_undelivered();
            }
            return event;
        }
        if event == ClientEvent::Ignored {
            return event;
        }
        match self.controller.as_mut().and_then(|c| c.pop_decision()) {
            Some(decision) => decision,
            None => event,
        }
    }

    fn digest_datagram(&mut self, datagram: Bytes) -> ClientEvent {
        if self.file.is_some() {
            return ClientEvent::Complete;
        }
        let Some(pkt) = DataPacket::from_bytes(datagram) else {
            return ClientEvent::Ignored;
        };
        let group = pkt.header.group as u64;
        let base = self.control.base_group as u64;
        if group < base || group >= base + self.control.layers as u64 {
            // A cross-session spoof or forged group tag: not this session's
            // traffic, so neither the decoder nor the congestion accounting
            // may see it.  (Stragglers from a just-left layer still pass —
            // the range covers every layer, not just the subscribed ones.)
            return ClientEvent::Ignored;
        }
        match &mut self.backend {
            Backend::Carousel { code, decoder } => {
                let idx = pkt.header.packet_index as usize;
                if idx >= code.n() {
                    // Corrupted or foreign packet; the channel is
                    // best-effort, drop it.
                    return ClientEvent::Ignored;
                }
                if pkt.payload.len() != code.expected_payload_len(idx, self.control.packet_size) {
                    return ClientEvent::Ignored;
                }
                if let Some(controller) = &mut self.controller {
                    // Every valid reception feeds the loss tracker —
                    // duplicates included, since the congestion signal is
                    // about datagrams arriving, not about their novelty.
                    controller.observe(pkt.header.serial, pkt.header.group);
                }
                if !self.stats.counter.record(idx) {
                    return ClientEvent::Duplicate;
                }
                // Anything but `Complete` is a packet taken, or a check the
                // decoder could already compute from what it holds, or an
                // error — which would mean the validation above let
                // something malformed through: channel noise like any other.
                // The payload is copied once, from the datagram into its row.
                if let Ok(df_core::AddOutcome::Complete) = decoder.add_packet_ref(idx, &pkt.payload)
                {
                    // The source rows are the file, in place.
                    if let Some(file) = decoder.take_file(self.control.file_len) {
                        self.file = Some(file);
                        return ClientEvent::Complete;
                    }
                }
                ClientEvent::Buffered
            }
            Backend::Rateless(receiver) => {
                // Rateless symbols share one uniform length; anything else
                // is noise (and would poison the XOR reduction if let in).
                if pkt.payload.len() != receiver.payload_len() {
                    return ClientEvent::Ignored;
                }
                let seed = seed_from_words(pkt.header.packet_index, pkt.header.serial);
                if receiver.at_capacity() {
                    // The bounded-memory backstop: a flood of forged seeds
                    // (absurd degrees, colliding neighbor sets) can fill the
                    // equation buffer, but it cannot grow it past the caps —
                    // new symbols are refused before the decoder sees them.
                    self.stats.counter.record_verdict(false);
                    self.stats.rejected += 1;
                    return ClientEvent::Rejected;
                }
                match receiver.add(seed, pkt.payload.to_vec()) {
                    df_core::AddOutcome::Duplicate => {
                        self.stats.counter.record_verdict(false);
                        ClientEvent::Duplicate
                    }
                    df_core::AddOutcome::Accepted => {
                        self.stats.counter.record_verdict(true);
                        ClientEvent::Buffered
                    }
                    df_core::AddOutcome::Complete => {
                        self.stats.counter.record_verdict(true);
                        match receiver.file(self.control.file_len) {
                            Some(file) => {
                                self.file = Some(file);
                                receiver.release();
                                ClientEvent::Complete
                            }
                            // Completion without source() would be a decoder
                            // invariant break; degrade instead of panicking
                            // on untrusted traffic.
                            None => ClientEvent::Buffered,
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerSession, SessionConfig};
    use crate::transport::{SimMulticast, Transport};
    use df_core::{FinalCode, TORNADO_B};

    fn run_download(loss: f64, layers: usize, data_len: usize) -> (ClientSession, Vec<u8>) {
        let data: Vec<u8> = (0..data_len).map(|i| (i * 131 % 251) as u8).collect();
        let mut server = ServerSession::with_defaults(&data, layers, 7).unwrap();
        let net = SimMulticast::new(11);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(loss);
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        for group in client.groups() {
            rx.join(group).unwrap();
        }
        'outer: for _ in 0..10_000 {
            server.send_round(&mut tx);
            while let Some((_group, datagram)) = rx.recv() {
                if client.handle_datagram(datagram) == ClientEvent::Complete {
                    break 'outer;
                }
            }
        }
        (client, data)
    }

    #[test]
    fn lossless_download_reconstructs_the_file() {
        let (client, data) = run_download(0.0, 4, 60_000);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        let stats = client.stats();
        assert!(stats.distinctness_efficiency() > 0.99);
    }

    #[test]
    fn a_lossless_one_group_download_takes_exactly_k_receptions() {
        // The carousel opens with the source packets, so the k-th reception
        // completes the download — without copying the file: up to then the
        // decoder holds exactly the payloads it was fed and built nothing.
        let data: Vec<u8> = (0..200_000).map(|i| (i * 131 % 251) as u8).collect();
        let mut server = ServerSession::with_defaults(&data, 1, 7).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        assert_eq!(client.stats().k(), 400);
        for fed in 1..400 {
            let (_group, datagram) = server.poll_transmit().unwrap();
            assert_eq!(client.handle_datagram(datagram), ClientEvent::Buffered);
            assert_eq!(client.held_packets(), fed);
        }
        assert!(!client.is_complete());
        let (_group, datagram) = server.poll_transmit().unwrap();
        assert_eq!(
            client.handle_datagram(datagram.clone()),
            ClientEvent::Complete
        );
        assert_eq!(client.file().unwrap(), &data[..]);
        let stats = client.stats();
        assert_eq!((stats.received(), stats.distinct()), (400, 400));
        assert_eq!((stats.decode_attempts(), stats.rejected()), (0, 0));
        // The file is held once: it is the decoder's slab, and the session
        // goes on serving the file and answering late datagrams.
        assert_eq!(client.held_packets(), 0);
        assert_eq!(client.handle_datagram(datagram), ClientEvent::Complete);
        let (_group, late) = server.poll_transmit().unwrap();
        assert_eq!(client.handle_datagram(late), ClientEvent::Complete);
        assert_eq!(client.file().unwrap(), &data[..]);
        assert_eq!(client.stats().received(), 400);
    }

    /// Download `data` through a session of `config`, joining after `skip`
    /// datagrams and losing each later one with probability `loss`
    /// (seeded).  At every datagram the client must hold exactly the rows
    /// an index-only decoder fed the same packets holds, and finish with it.
    fn slab_download(data: &[u8], config: SessionConfig, loss: f64, skip: usize) {
        let mut server = ServerSession::new(data, config).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        let code = server.code().unwrap().clone();
        let mut mirror = code.symbolic_decoder();
        let mut draws = 0x2545_f491_4f6c_dd1du64 ^ skip as u64;
        let mut sent = 0;
        loop {
            let Some((_group, datagram)) = server.poll_transmit() else {
                server.advance_round();
                continue;
            };
            sent += 1;
            draws = draws
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if sent <= skip || ((draws >> 11) as f64) / ((1u64 << 53) as f64) < loss {
                continue;
            }
            let index = crate::wire::PacketHeader::decode(&datagram)
                .unwrap()
                .packet_index as usize;
            let done = mirror.add_packet(index, df_core::Mark).unwrap();
            let event = client.handle_datagram(datagram);
            assert_eq!(
                event == ClientEvent::Complete,
                done == df_core::AddOutcome::Complete
            );
            if event == ClientEvent::Complete {
                break;
            }
            assert_eq!(client.held_packets(), mirror.held(), "after {sent} sent");
            assert!(sent < 10 * code.n(), "ten cycles did not decode");
        }
        let file = client.file().unwrap();
        assert_eq!(file.len(), data.len());
        assert!(file == data, "wrong bytes");
        assert_eq!(client.held_packets(), 0);
    }

    /// A file of `k` packets of `packet_size` bytes whose last one is short.
    fn short_tailed(k: usize, packet_size: usize) -> Vec<u8> {
        (0..k * packet_size - packet_size / 2 - 1)
            .map(|i| (i * 131 % 251) as u8)
            .collect()
    }

    #[test]
    fn slab_corner_cases_download_byte_for_byte() {
        let config = |packet_size, profile, layers| SessionConfig {
            packet_size,
            profile,
            layers,
            code_seed: 29,
            ..SessionConfig::default()
        };
        // Tornado B at an odd packet size: a cascade whose GF(2^16) final
        // block sends check rows two bytes wider than the level rows.
        let data = short_tailed(2100, 7);
        let b = TornadoCode::new_b(2100, 29).unwrap();
        assert!(b.cascade().num_levels() > 1);
        assert!(matches!(b.cascade().final_code(), FinalCode::Large(_)));
        for (loss, skip) in [(0.0, 2500), (0.1, 0), (0.5, 901)] {
            slab_download(&data, config(7, TORNADO_B, 1), loss, skip);
        }
        // Tornado A at k = 60: one MDS block, which writes source rows.
        let data = short_tailed(60, 100);
        assert_eq!(
            TornadoCode::new_a(60, 29).unwrap().cascade().num_levels(),
            1
        );
        for (loss, skip) in [(0.0, 61), (0.1, 7), (0.5, 0)] {
            slab_download(&data, config(100, df_core::TORNADO_A, 1), loss, skip);
        }
        // One and four layers behind 0, 10 and 50 % loss, from the start
        // and from mid-carousel.
        let data = short_tailed(1000, 64);
        for layers in [1, 4] {
            for loss in [0.0, 0.1, 0.5] {
                for skip in [0, 1357] {
                    slab_download(&data, config(64, df_core::TORNADO_A, layers), loss, skip);
                }
            }
        }
        // The very first row to arrive is a source row out of order: the
        // slab is zero-filled before anything is in it.
        slab_download(&data, config(64, df_core::TORNADO_A, 1), 0.0, 3);
    }

    #[test]
    fn a_swarm_of_one_session_shares_its_servers_cascade() {
        let server = ServerSession::with_defaults(&[3u8; 60_000], 1, 0x5AAB).unwrap();
        let cascade = server.code().unwrap().shared_cascade();
        let alone = std::sync::Arc::strong_count(&cascade);
        let clients: Vec<ClientSession> = (0..256)
            .map(|_| ClientSession::new(server.control_info().clone()).unwrap())
            .collect();
        // Every client's code and decoder are handles on the server's own
        // cascade: there is no second one to hold.
        for client in &clients {
            let Backend::Carousel { code, decoder } = &client.backend else {
                panic!("a carousel session");
            };
            assert!(std::ptr::eq(code.cascade(), &*cascade));
            assert!(std::ptr::eq(decoder.cascade(), &*cascade));
        }
        drop(clients);
        assert_eq!(std::sync::Arc::strong_count(&cascade), alone);
    }

    #[test]
    fn a_download_completes_on_its_first_decodable_packet() {
        // Mirror the client with an index-only decoder fed the same lossy
        // reception: both must finish on the same datagram.
        let data: Vec<u8> = (0..300_000).map(|i| (i * 131 % 251) as u8).collect();
        let mut server = ServerSession::with_defaults(&data, 4, 7).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        let code = server.code().unwrap().clone();
        let mut mirror = code.symbolic_decoder();
        let mut loss = 0x9e37_79b9_7f4a_7c15u64;
        loop {
            let Some((_group, datagram)) = server.poll_transmit() else {
                server.advance_round();
                continue;
            };
            loss = loss.wrapping_mul(6364136223846793005).wrapping_add(1);
            if loss >> 62 == 0 {
                continue; // a quarter of the datagrams are lost
            }
            let index = crate::wire::PacketHeader::decode(&datagram)
                .unwrap()
                .packet_index as usize;
            let done = mirror.add_packet(index, df_core::Mark).unwrap();
            let event = client.handle_datagram(datagram);
            assert_eq!(
                event == ClientEvent::Complete,
                done == df_core::AddOutcome::Complete,
                "after {} receptions",
                client.stats().received()
            );
            if event == ClientEvent::Complete {
                break;
            }
        }
        assert_eq!(client.file().unwrap(), &data[..]);
        assert!(client.held_packets() <= client.buffer_cap());
    }

    #[test]
    fn lossy_download_still_reconstructs() {
        let (client, data) = run_download(0.3, 4, 40_000);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        assert!(client.stats().reception_efficiency() > 0.4);
    }

    #[test]
    fn corrupted_and_foreign_datagrams_are_ignored() {
        let data = vec![9u8; 20_000];
        let server = ServerSession::with_defaults(&data, 1, 3).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        assert_eq!(
            client.handle_datagram(Bytes::from_static(b"short")),
            ClientEvent::Ignored
        );
        // Well-formed header but index out of range.
        let bogus = DataPacket::new(
            crate::wire::PacketHeader {
                packet_index: 1_000_000,
                serial: 0,
                group: 0,
            },
            Bytes::from(vec![0u8; 500]),
        );
        assert_eq!(
            client.handle_datagram(bogus.to_bytes()),
            ClientEvent::Ignored
        );
        // Right index, wrong payload length.
        let short = DataPacket::new(
            crate::wire::PacketHeader {
                packet_index: 0,
                serial: 0,
                group: 0,
            },
            Bytes::from(vec![0u8; 499]),
        );
        assert_eq!(
            client.handle_datagram(short.to_bytes()),
            ClientEvent::Ignored
        );
        assert_eq!(client.stats().received(), 0);
    }

    #[test]
    fn unknown_profile_name_is_a_malformed_input_error() {
        let server = ServerSession::with_defaults(&[1u8; 10_000], 1, 5).unwrap();
        let mut control = server.control_info().clone();
        control.profile = "tornado-c".to_string(); // a typo, not a default
        match ClientSession::new(control) {
            Err(TornadoError::MalformedInput { reason }) => {
                assert!(reason.contains("tornado-c"), "unhelpful reason: {reason}")
            }
            other => panic!("expected MalformedInput, got {other:?}"),
        }
    }

    #[test]
    fn hostile_layer_and_group_ranges_are_rejected() {
        let server = ServerSession::with_defaults(&[1u8; 10_000], 1, 5).unwrap();
        let base = server.control_info().clone();
        for (layers, base_group) in [
            (0usize, 0u32),
            (MAX_LAYERS + 1, 0),
            (4_000_000_000, 0),
            (2, u32::MAX),
            (MAX_LAYERS, u32::MAX - 3),
        ] {
            let mut control = base.clone();
            control.layers = layers;
            control.base_group = base_group;
            assert!(
                matches!(
                    ClientSession::new(control),
                    Err(TornadoError::MalformedInput { .. })
                ),
                "layers = {layers}, base_group = {base_group} must be rejected"
            );
        }
        // The boundary itself is fine.
        let mut control = base.clone();
        control.base_group = u32::MAX;
        control.layers = 1;
        assert!(ClientSession::new(control).is_ok());
    }

    #[test]
    fn hostile_sizes_are_rejected_before_code_construction() {
        let server = ServerSession::with_defaults(&[1u8; 10_000], 1, 5).unwrap();
        let base = server.control_info().clone();
        // (file_len, packet_size, k) triples a hostile control channel might
        // claim; each must fail fast — cheap validation, no O(k) cascade.
        for (file_len, packet_size, k) in [
            (u32::MAX as usize * 500, 500, u32::MAX as usize), // giant k
            (10_000, 500, MAX_K + 1),                          // above the cap
            (10_000, 500, 0),                                  // zero k
            (10_000, 0, 20),                                   // zero packet size
            (10_000, 1 << 20, 20),                             // impossible UDP payload
            (10_000, 65_500, 1), // framed datagram would exceed the UDP maximum
            (10_000, 500, 21),   // k inconsistent with file_len
            (0, 500, 20),        // empty file, nonzero k
            // k at its cap and the largest payload: a consistent ~1.1 TB
            // file, which a receiver would reserve at its first datagram.
            (MAX_K * MAX_PACKET_SIZE, MAX_PACKET_SIZE, MAX_K),
            (MAX_FILE_LEN + 1, 1024, (MAX_FILE_LEN + 1).div_ceil(1024)),
        ] {
            let mut control = base.clone();
            control.file_len = file_len;
            control.packet_size = packet_size;
            control.k = k;
            let t0 = std::time::Instant::now();
            assert!(
                matches!(
                    ClientSession::new(control),
                    Err(TornadoError::MalformedInput { .. })
                ),
                "file_len = {file_len}, packet_size = {packet_size}, k = {k} must be rejected"
            );
            assert!(
                t0.elapsed() < std::time::Duration::from_millis(100),
                "rejection of k = {k} was not cheap"
            );
        }
    }

    #[test]
    fn inconsistent_control_n_is_rejected() {
        let server = ServerSession::with_defaults(&[1u8; 10_000], 1, 5).unwrap();
        let mut control = server.control_info().clone();
        control.n += 1;
        assert!(matches!(
            ClientSession::new(control),
            Err(TornadoError::MalformedInput { .. })
        ));
    }

    #[test]
    fn odd_packet_size_with_gf16_final_block_downloads() {
        // An odd packet size with Tornado B yields a pure GF(2^16) MDS block
        // whose check packets carry two padding bytes (501 bytes here); the
        // client learns that through `TornadoCode::expected_payload_len` and
        // still reconstructs the file exactly.
        let data: Vec<u8> = (0..99_800).map(|i| (i * 37 % 251) as u8).collect();
        let mut server = ServerSession::new(
            &data,
            SessionConfig {
                packet_size: 499,
                profile: TORNADO_B,
                code_seed: 9,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            server.code().unwrap().cascade().final_code(),
            FinalCode::Large(_)
        ));
        let net = SimMulticast::new(21);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.1);
        rx.join(0).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        'outer: for _ in 0..10_000 {
            server.send_round(&mut tx);
            while let Some((_group, datagram)) = rx.recv() {
                if client.handle_datagram(datagram) == ClientEvent::Complete {
                    break 'outer;
                }
            }
        }
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
    }

    #[test]
    fn layered_control_parameters_are_validated() {
        let server = ServerSession::with_defaults(&[1u8; 10_000], 1, 5).unwrap();
        let base = server.control_info().clone();
        for (layers, sp, burst) in [
            (1usize, 1usize, 0usize),         // every round an SP
            (1, 8, 8),                        // burst as long as the interval
            (1, 8, 9),                        // burst longer than the interval
            (1, MAX_SP_INTERVAL + 1, 0),      // unbounded accounting
            (MAX_SCHEDULED_LAYERS + 1, 8, 1), // block size 2^16: schedule cap
        ] {
            let mut control = base.clone();
            control.layers = layers;
            control.sp_interval = sp;
            control.burst_rounds = burst;
            assert!(
                matches!(
                    ClientSession::new(control),
                    Err(TornadoError::MalformedInput { .. })
                ),
                "layers = {layers}, sp = {sp}, burst = {burst} must be rejected"
            );
        }
        // The same layer count is fine for a flat session…
        let mut control = base.clone();
        control.layers = MAX_SCHEDULED_LAYERS + 1;
        assert!(ClientSession::new(control).is_ok());
        // …and the minimal layered cadence is fine too.
        let mut control = base.clone();
        control.sp_interval = 2;
        control.burst_rounds = 1;
        let client = ClientSession::new(control).unwrap();
        assert!(client.is_layered());
        assert_eq!(client.subscription_level(), Some(0));
    }

    /// Drive one layered client over `SimMulticast` the way any driver must:
    /// join `subscribed_groups()` up front, then obey Join/Leave events.
    fn run_layered_download(
        server: &mut ServerSession,
        net: &SimMulticast,
        max_rounds: usize,
    ) -> (ClientSession, Vec<ClientEvent>) {
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        for group in client.subscribed_groups() {
            rx.join(group).unwrap();
        }
        let mut subscription_events = Vec::new();
        'outer: for _ in 0..max_rounds {
            server.send_round(&mut tx);
            while let Some((_group, datagram)) = rx.recv() {
                match client.handle_datagram(datagram) {
                    ClientEvent::Join { group } => {
                        rx.join(group).unwrap();
                        subscription_events.push(ClientEvent::Join { group });
                    }
                    ClientEvent::Leave { group } => {
                        rx.leave(group);
                        subscription_events.push(ClientEvent::Leave { group });
                    }
                    ClientEvent::Complete => break 'outer,
                    _ => {}
                }
            }
        }
        (client, subscription_events)
    }

    #[test]
    fn layered_download_climbs_while_lossless_and_reconstructs() {
        let data: Vec<u8> = (0..400_000).map(|i| (i * 31 % 251) as u8).collect();
        let mut server = ServerSession::new(
            &data,
            SessionConfig {
                layers: 6,
                code_seed: 3,
                sp_interval: 2,
                burst_rounds: 1,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        assert!(server.is_layered());
        let net = SimMulticast::new(5);
        let (client, events) = run_layered_download(&mut server, &net, 200);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        // With no bottleneck every burst is clean: the receiver only ever
        // joins, one layer per evaluated SP, starting from the base layer.
        assert!(
            events.iter().all(|e| matches!(e, ClientEvent::Join { .. })),
            "lossless path must never shed a layer: {events:?}"
        );
        let level = client.subscription_level().unwrap();
        assert!(level >= 2, "client stuck at level {level}");
        assert_eq!(events.len(), level, "one join per level climbed");
        assert_eq!(
            client.subscribed_groups(),
            (0..=level as u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn join_leave_decisions_are_deterministic_for_a_datagram_trace() {
        // Record the full datagram trace of a layered carousel, then replay
        // it twice through the subscription-filtering a real driver performs.
        // The sans-I/O split means the event sequence must be identical —
        // the state machine has no clock, RNG or socket to diverge on.
        let data = vec![7u8; 150_000];
        let config = SessionConfig {
            layers: 6,
            code_seed: 11,
            sp_interval: 2,
            burst_rounds: 1,
            ..SessionConfig::default()
        };
        let mut server = ServerSession::new(&data, config).unwrap();
        let mut trace: Vec<(u32, Bytes)> = Vec::new();
        for _ in 0..40 {
            while let Some(out) = server.poll_transmit() {
                trace.push(out);
            }
            server.advance_round();
        }
        let replay = || {
            let mut client = ClientSession::new(server.control_info().clone()).unwrap();
            let mut joined: Vec<u32> = client.subscribed_groups();
            let mut events = Vec::new();
            for (group, datagram) in &trace {
                if !joined.contains(group) {
                    continue; // not subscribed: the datagram never arrives
                }
                match client.handle_datagram(datagram.clone()) {
                    ClientEvent::Join { group } => {
                        joined.push(group);
                        events.push(ClientEvent::Join { group });
                    }
                    ClientEvent::Leave { group } => {
                        joined.retain(|&g| g != group);
                        events.push(ClientEvent::Leave { group });
                    }
                    ClientEvent::Complete => break,
                    _ => {}
                }
            }
            (events, client.subscription_level(), client.is_complete())
        };
        let first = replay();
        let second = replay();
        assert_eq!(first, second, "identical trace must yield identical run");
        assert!(!first.0.is_empty(), "premise: the trace spans several SPs");
    }

    fn run_rateless_download(
        mode: RatelessMode,
        loss: f64,
        data_len: usize,
        packet_size: usize,
        skip_rounds: usize,
    ) -> (ClientSession, Vec<u8>) {
        let data: Vec<u8> = (0..data_len).map(|i| (i * 131 % 251) as u8).collect();
        let mut server = ServerSession::new(
            &data,
            SessionConfig {
                rateless: mode,
                packet_size,
                code_seed: 7,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let net = SimMulticast::new(11);
        let mut tx = net.endpoint(0.0);
        // A "late joiner": rounds transmitted before the client tunes in are
        // simply never seen, exactly as on a real multicast group.
        for _ in 0..skip_rounds {
            server.send_round(&mut tx);
        }
        let mut rx = net.endpoint(loss);
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        assert_eq!(client.rateless_mode(), mode);
        for group in client.groups() {
            rx.join(group).unwrap();
        }
        while rx.recv().is_some() {} // drop anything queued pre-join
        'outer: for _ in 0..10_000 {
            server.send_round(&mut tx);
            while let Some((_group, datagram)) = rx.recv() {
                if client.handle_datagram(datagram) == ClientEvent::Complete {
                    break 'outer;
                }
            }
        }
        (client, data)
    }

    #[test]
    fn rateless_lt_download_reconstructs_under_loss() {
        let (client, data) = run_rateless_download(RatelessMode::Lt, 0.3, 30_000, 500, 0);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        assert_eq!(client.held_packets(), 0, "released at completion");
        let stats = client.stats();
        // Every rateless symbol is fresh: distinctness is exactly 1.
        assert_eq!(stats.distinctness_efficiency(), 1.0);
        assert_eq!(stats.rejected(), 0);
        assert_eq!(stats.received(), stats.distinct());
    }

    #[test]
    fn rateless_raptor_download_reconstructs_at_odd_packet_size() {
        // An odd packet size rides the whole wire path as it is — the XOR
        // precode pads nothing, symbols are 499 bytes — and the reassembled
        // file must be byte-exact.
        let (mut client, data) = run_rateless_download(RatelessMode::Raptor, 0.2, 49_900, 499, 0);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        // The decoder lets go at completion; the session still answers
        // (and ignores the content of) whatever arrives late.
        assert_eq!(client.held_packets(), 0);
        let Backend::Rateless(receiver) = &mut client.backend else {
            panic!("a rateless session");
        };
        assert_eq!(
            receiver.add(u64::MAX, vec![0; receiver.payload_len()]),
            df_core::AddOutcome::Duplicate
        );
        assert!(receiver.is_complete() && receiver.file(49_900).is_none());
        assert_eq!(client.stats().distinctness_efficiency(), 1.0);
    }

    #[test]
    fn rateless_late_joiner_pays_no_distinctness_penalty() {
        // Join 20 rounds late: a carousel client would start swallowing
        // duplicates, a rateless client sees only fresh seeds and completes
        // from the same few symbols beyond k as an on-time joiner.
        let (client, data) = run_rateless_download(RatelessMode::Lt, 0.0, 25_000, 500, 20);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        let stats = client.stats();
        assert_eq!(stats.distinctness_efficiency(), 1.0);
        assert!(
            stats.received() < 2 * stats.k(),
            "late join cost duplicates: {} received for k = {}",
            stats.received(),
            stats.k()
        );
    }

    #[test]
    fn hostile_rateless_control_is_rejected() {
        let data = vec![1u8; 25_000];
        let server = ServerSession::new(
            &data,
            SessionConfig {
                rateless: RatelessMode::Lt,
                code_seed: 3,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let base = server.control_info().clone();
        // LT must advertise n = k.
        let mut control = base.clone();
        control.n += 7;
        assert!(matches!(
            ClientSession::new(control),
            Err(TornadoError::MalformedInput { .. })
        ));
        // Rateless plus layered flags is a protocol violation.
        for (layers, sp, burst) in [(2usize, 0usize, 0usize), (1, 4, 1), (1, 0, 1)] {
            let mut control = base.clone();
            control.layers = layers;
            control.sp_interval = sp;
            control.burst_rounds = burst;
            assert!(
                matches!(
                    ClientSession::new(control),
                    Err(TornadoError::MalformedInput { .. })
                ),
                "rateless with layers = {layers}, sp = {sp}, burst = {burst} must be rejected"
            );
        }
        // Raptor validates n against the rebuilt precode's intermediate
        // count.
        let raptor = ServerSession::new(
            &data,
            SessionConfig {
                rateless: RatelessMode::Raptor,
                code_seed: 3,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let mut control = raptor.control_info().clone();
        control.n -= 1;
        assert!(matches!(
            ClientSession::new(control),
            Err(TornadoError::MalformedInput { .. })
        ));
        // An unknown profile name is irrelevant to a rateless session (no
        // Tornado code is negotiated), so it must NOT be rejected.
        let mut control = base.clone();
        control.profile = "not-a-profile".to_string();
        assert!(ClientSession::new(control).is_ok());
    }

    #[test]
    fn download_stats_relation_holds() {
        let (client, _) = run_download(0.1, 1, 30_000);
        let s = client.stats();
        let eta = s.reception_efficiency();
        assert!((eta - s.coding_efficiency() * s.distinctness_efficiency()).abs() < 1e-12);
    }

    #[test]
    fn duplicates_never_reach_the_decoder() {
        let data = vec![8u8; 40_000];
        let mut server = ServerSession::with_defaults(&data, 1, 17).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        let (_, datagram) = server.poll_transmit().unwrap();
        assert_eq!(
            client.handle_datagram(datagram.clone()),
            ClientEvent::Buffered
        );
        assert_eq!(client.handle_datagram(datagram), ClientEvent::Duplicate);
        let stats = client.stats();
        assert_eq!((stats.received(), stats.distinct()), (2, 1));
        assert_eq!(client.held_packets(), 1);
    }

    #[test]
    fn both_tallies_match_hand_counts() {
        // A four-group carousel behind 25 % loss, every surviving datagram
        // delivered twice: each copy is received, each index distinct once.
        let data: Vec<u8> = (0..60_000).map(|i| (i * 131 % 251) as u8).collect();
        let mut server = ServerSession::with_defaults(&data, 4, 7).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        let (mut received, mut indices) = (0, std::collections::HashSet::new());
        let mut loss = 0x9e37_79b9_7f4a_7c15u64;
        'download: loop {
            let Some((_group, datagram)) = server.poll_transmit() else {
                server.advance_round();
                continue;
            };
            loss = loss.wrapping_mul(6364136223846793005).wrapping_add(1);
            if loss >> 62 == 0 {
                continue;
            }
            let index = crate::wire::PacketHeader::decode(&datagram)
                .unwrap()
                .packet_index;
            for _copy in 0..2 {
                received += 1;
                indices.insert(index);
                if client.handle_datagram(datagram.clone()) == ClientEvent::Complete {
                    break 'download;
                }
            }
        }
        let stats = client.stats();
        assert!(indices.len() < received, "premise: duplicates arrived");
        assert_eq!(
            (stats.received(), stats.distinct(), stats.rejected()),
            (received, indices.len(), 0)
        );

        // An LT stream: one seed twice, then seeds of degree ≥ 48 until the
        // edge cap refuses one.  A repeat and a refusal are both received,
        // neither is distinct, and only the refusal is rejected.
        let server = ServerSession::new(
            &[3u8; 50_000],
            SessionConfig {
                rateless: RatelessMode::Lt,
                code_seed: 41,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let info = server.control_info().clone();
        let mut client = ClientSession::new(info.clone()).unwrap();
        let lt = df_core::LtEncoder::new(
            info.k,
            df_core::LT_DEFAULT_C,
            df_core::LT_DEFAULT_DELTA,
            info.code_seed,
        )
        .unwrap();
        let frame = |seed: u64| {
            let (packet_index, serial) = crate::rateless::seed_to_words(seed);
            let header = crate::wire::PacketHeader {
                packet_index,
                serial,
                group: info.base_group,
            };
            DataPacket::frame(&header, &vec![0; info.packet_size])
        };
        let mut heavy = (1u64..).filter(|&seed| lt.equation(seed).neighbors.len() >= 48);
        let first = heavy.next().unwrap();
        assert_eq!(client.handle_datagram(frame(first)), ClientEvent::Buffered);
        assert_eq!(client.handle_datagram(frame(first)), ClientEvent::Duplicate);
        let (mut received, mut distinct) = (2, 1);
        for seed in heavy {
            received += 1;
            match client.handle_datagram(frame(seed)) {
                ClientEvent::Buffered => distinct += 1,
                ClientEvent::Rejected => break,
                other => panic!("unexpected {other:?} under a high-degree flood"),
            }
        }
        let stats = client.stats();
        assert_eq!(
            (stats.received(), stats.distinct(), stats.rejected()),
            (received, distinct, 1)
        );
    }

    #[test]
    fn events_progress_buffered_to_complete() {
        let data = vec![5u8; 30_000];
        let mut server = ServerSession::with_defaults(&data, 1, 13).unwrap();
        let net = SimMulticast::new(2);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        rx.join(0).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        let mut saw_buffered = false;
        'outer: loop {
            server.send_round(&mut tx);
            while let Some((_g, datagram)) = rx.recv() {
                match client.handle_datagram(datagram.clone()) {
                    ClientEvent::Buffered => saw_buffered = true,
                    ClientEvent::Complete => {
                        // Feeding after completion is idempotent.
                        assert_eq!(client.handle_datagram(datagram), ClientEvent::Complete);
                        break 'outer;
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_buffered && client.is_complete());
        // Once complete, every further datagram just reports Complete.
        server.send_round(&mut tx);
        let mut fed_after_completion = 0;
        while let Some((_g, d)) = rx.recv() {
            assert_eq!(client.handle_datagram(d), ClientEvent::Complete);
            fed_after_completion += 1;
        }
        assert!(fed_after_completion > 0);
    }
}

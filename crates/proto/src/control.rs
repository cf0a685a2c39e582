//! The session control channel: wire-level framing for the paper's "UDP
//! unicast thread which provides various control information such as
//! multicast group information and file length" (Section 7.1).
//!
//! A client sends a [`ControlRequest`] datagram to the server's control
//! address and receives a [`ControlResponse`].  The payload of a successful
//! [`ControlRequest::Describe`] is a [`ControlInfo`] — everything a client
//! needs to rebuild the Tornado code deterministically and join the session's
//! multicast groups.  Framing is a fixed binary layout (magic, version, type
//! byte, big-endian fields) rather than a serialised Rust struct, so
//! non-Rust clients can speak it and the format is pinned by tests instead
//! of by `derive` internals.

use crate::rateless::RatelessMode;
use bytes::{BufMut, Bytes, BytesMut};

/// First byte of every control datagram.
pub const CONTROL_MAGIC: u8 = 0xDF;
/// Wire-format version.  Version 2 added the layered congestion-control
/// parameters (`sp_interval`, `burst_rounds`) to [`ControlInfo`]; version 3
/// added the [`RatelessMode`] flag announcing seed-carrying sessions.
pub const CONTROL_VERSION: u8 = 0x03;

/// The session parameters a client fetches over the control channel before
/// subscribing.
///
/// `session_id` identifies the session on a multi-session server and
/// `base_group` is the first of its `layers` consecutive multicast groups:
/// layer `l` of session `s` is carried on group `s.base_group + l`.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlInfo {
    /// Identifier of this session on the serving [`crate::FountainServer`].
    pub session_id: u32,
    /// Original file length in bytes.
    pub file_len: usize,
    /// Payload bytes per packet.
    pub packet_size: usize,
    /// Number of source packets `k`.
    pub k: usize,
    /// Number of encoding packets `n`.
    pub n: usize,
    /// Seed from which the Tornado graph structure is rebuilt client-side.
    pub code_seed: u64,
    /// Number of multicast layers.
    pub layers: usize,
    /// First multicast group of the session; layer `l` uses group
    /// `base_group + l`.
    pub base_group: u32,
    /// Rounds between synchronisation points of the layered
    /// congestion-control schedule, or `0` for a flat (single-rate) carousel
    /// with no receiver-driven adaptation.
    pub sp_interval: usize,
    /// Rounds of double-rate burst preceding each synchronisation point
    /// (meaningful only when `sp_interval > 0`).
    pub burst_rounds: usize,
    /// How the data datagrams are encoded: [`RatelessMode::Off`] for the
    /// fixed-encoding carousel, or a seed-carrying rateless mode in which
    /// the header's `packet_index:serial` words hold a 64-bit symbol seed
    /// and `n` advertises the seed range's symbol count (`k` for LT, the
    /// intermediate count for Raptor).
    pub rateless: RatelessMode,
    /// Profile name ("tornado-a" / "tornado-b").  Ignored by rateless
    /// sessions (neither LT nor Raptor uses a Tornado code; Raptor's XOR
    /// precode is fixed by the mode byte, not negotiated).
    pub profile: String,
}

impl ControlInfo {
    /// Multicast groups this session transmits on, lowest layer first.
    ///
    /// `ControlInfo` may come straight off the wire, so the iteration is
    /// overflow-safe: layers whose group number would exceed `u32::MAX` are
    /// omitted rather than wrapped onto a foreign session's groups.
    /// (`crate::ClientSession::new` rejects such ranges outright; this
    /// guards callers that inspect an announcement before validating it.)
    pub fn groups(&self) -> impl Iterator<Item = u32> + '_ {
        let base = self.base_group as u64;
        (0..self.layers as u64).map_while(move |l| u32::try_from(base + l).ok())
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.session_id.to_be_bytes());
        buf.put_slice(&(self.file_len as u64).to_be_bytes());
        buf.put_slice(&(self.packet_size as u32).to_be_bytes());
        buf.put_slice(&(self.k as u32).to_be_bytes());
        buf.put_slice(&(self.n as u32).to_be_bytes());
        buf.put_slice(&self.code_seed.to_be_bytes());
        buf.put_slice(&(self.layers as u32).to_be_bytes());
        buf.put_slice(&self.base_group.to_be_bytes());
        // Sessions validate the cadence long before it reaches the wire
        // (df_mcast::MAX_SP_INTERVAL is far below u32::MAX); guard
        // hand-built infos against a silently truncating cast anyway.
        debug_assert!(self.sp_interval <= u32::MAX as usize);
        debug_assert!(self.burst_rounds <= u32::MAX as usize);
        buf.put_slice(&(self.sp_interval as u32).to_be_bytes());
        buf.put_slice(&(self.burst_rounds as u32).to_be_bytes());
        buf.put_u8(self.rateless.to_wire());
        let name = self.profile.as_bytes();
        debug_assert!(name.len() <= u16::MAX as usize);
        buf.put_slice(&(name.len() as u16).to_be_bytes());
        buf.put_slice(name);
    }

    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let session_id = r.u32()?;
        let file_len = r.u64()? as usize;
        let packet_size = r.u32()? as usize;
        let k = r.u32()? as usize;
        let n = r.u32()? as usize;
        let code_seed = r.u64()?;
        let layers = r.u32()? as usize;
        let base_group = r.u32()?;
        let sp_interval = r.u32()? as usize;
        let burst_rounds = r.u32()? as usize;
        let rateless = RatelessMode::from_wire(r.u8()?)?;
        let name_len = r.u16()? as usize;
        let name = r.take(name_len)?;
        Some(ControlInfo {
            session_id,
            file_len,
            packet_size,
            k,
            n,
            code_seed,
            layers,
            base_group,
            sp_interval,
            burst_rounds,
            rateless,
            profile: String::from_utf8(name.to_vec()).ok()?,
        })
    }
}

/// A request datagram on the control channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlRequest {
    /// Ask for the identifiers of every session the server is carouselling.
    ListSessions,
    /// Ask for the parameters of one session.
    Describe {
        /// Session to describe.
        session_id: u32,
    },
}

const REQ_LIST: u8 = 0x01;
const REQ_DESCRIBE: u8 = 0x02;

impl ControlRequest {
    /// Serialise the request into one datagram.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u8(CONTROL_MAGIC);
        buf.put_u8(CONTROL_VERSION);
        match self {
            ControlRequest::ListSessions => buf.put_u8(REQ_LIST),
            ControlRequest::Describe { session_id } => {
                buf.put_u8(REQ_DESCRIBE);
                buf.put_slice(&session_id.to_be_bytes());
            }
        }
        buf.freeze()
    }

    /// Parse a request datagram.  Returns `None` for anything malformed —
    /// wrong magic, wrong version, unknown type, truncated or oversized body.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut r = Reader::with_header(data)?;
        let req = match r.u8()? {
            REQ_LIST => ControlRequest::ListSessions,
            REQ_DESCRIBE => ControlRequest::Describe {
                session_id: r.u32()?,
            },
            _ => return None,
        };
        r.finish()?;
        Some(req)
    }
}

/// A response datagram on the control channel.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlResponse {
    /// The identifiers of every active session.
    SessionList {
        /// Active session identifiers, in announcement order.
        session_ids: Vec<u32>,
    },
    /// The parameters of one session.
    Session {
        /// The described session.
        info: ControlInfo,
    },
    /// The requested session does not exist.
    UnknownSession {
        /// The identifier that was asked about.
        session_id: u32,
    },
    /// The request datagram could not be parsed.
    BadRequest,
}

const RESP_LIST: u8 = 0x81;
const RESP_SESSION: u8 = 0x82;
const RESP_UNKNOWN: u8 = 0x83;
const RESP_BAD_REQUEST: u8 = 0x84;

impl ControlResponse {
    /// Serialise the response into one datagram.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(CONTROL_MAGIC);
        buf.put_u8(CONTROL_VERSION);
        match self {
            ControlResponse::SessionList { session_ids } => {
                buf.put_u8(RESP_LIST);
                debug_assert!(session_ids.len() <= u32::MAX as usize);
                buf.put_slice(&(session_ids.len() as u32).to_be_bytes());
                for id in session_ids {
                    buf.put_slice(&id.to_be_bytes());
                }
            }
            ControlResponse::Session { info } => {
                buf.put_u8(RESP_SESSION);
                info.encode_into(&mut buf);
            }
            ControlResponse::UnknownSession { session_id } => {
                buf.put_u8(RESP_UNKNOWN);
                buf.put_slice(&session_id.to_be_bytes());
            }
            ControlResponse::BadRequest => buf.put_u8(RESP_BAD_REQUEST),
        }
        buf.freeze()
    }

    /// Parse a response datagram.  Returns `None` for anything malformed.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut r = Reader::with_header(data)?;
        let resp = match r.u8()? {
            RESP_LIST => {
                let count = r.u32()? as usize;
                // A datagram holds 4 bytes per id; reject absurd counts
                // before allocating.
                if count > data.len() / 4 {
                    return None;
                }
                let mut session_ids = Vec::with_capacity(count);
                for _ in 0..count {
                    session_ids.push(r.u32()?);
                }
                ControlResponse::SessionList { session_ids }
            }
            RESP_SESSION => ControlResponse::Session {
                info: ControlInfo::decode_from(&mut r)?,
            },
            RESP_UNKNOWN => ControlResponse::UnknownSession {
                session_id: r.u32()?,
            },
            RESP_BAD_REQUEST => ControlResponse::BadRequest,
            _ => return None,
        };
        r.finish()?;
        Some(resp)
    }
}

/// A bounds-checked big-endian reader over a received datagram.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading after validating the magic and version header.
    fn with_header(data: &'a [u8]) -> Option<Self> {
        let mut r = Reader { data, pos: 0 };
        if r.u8()? != CONTROL_MAGIC || r.u8()? != CONTROL_VERSION {
            return None;
        }
        Some(r)
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        if end > self.data.len() {
            return None;
        }
        // bounds: `pos <= end <= data.len()` established just above.
        let out = &self.data[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        // bounds: take(1) returned a slice of exactly one byte.
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        let b = self.take(2)?;
        Some(u16::from_be_bytes(b.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_be_bytes(b.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_be_bytes(b.try_into().ok()?))
    }

    /// Require that the datagram has been consumed exactly.
    fn finish(self) -> Option<()> {
        (self.pos == self.data.len()).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_info(
        session_id: u32,
        sizes: (u32, u32, u32),
        code_seed: u64,
        layers: u8,
        base_group: u32,
        name_bytes: &[u8],
    ) -> ControlInfo {
        ControlInfo {
            session_id,
            file_len: sizes.0 as usize,
            packet_size: sizes.1 as usize,
            k: sizes.2 as usize,
            // The wire format carries `n` as a u32, so keep the doubled value
            // representable.
            n: (sizes.2 as usize).min(u32::MAX as usize / 2) * 2,
            code_seed,
            layers: layers as usize,
            base_group,
            // Derive layered congestion-control parameters that also cover
            // the flat (0, 0) case.
            sp_interval: (session_id % 5) as usize * 4,
            burst_rounds: (session_id % 3) as usize,
            // Cycle through every mode byte, Off included.
            rateless: match code_seed % 3 {
                0 => RatelessMode::Off,
                1 => RatelessMode::Lt,
                _ => RatelessMode::Raptor,
            },
            // Arbitrary printable-ASCII profile name.
            profile: name_bytes.iter().map(|b| (b % 94 + 33) as char).collect(),
        }
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            ControlRequest::ListSessions,
            ControlRequest::Describe { session_id: 0 },
            ControlRequest::Describe {
                session_id: u32::MAX,
            },
        ] {
            let wire = req.to_bytes();
            assert_eq!(ControlRequest::from_bytes(&wire), Some(req));
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert_eq!(ControlRequest::from_bytes(&[]), None);
        assert_eq!(ControlRequest::from_bytes(&[CONTROL_MAGIC]), None);
        // Wrong magic.
        assert_eq!(ControlRequest::from_bytes(&[0x00, 0x01, 0x01]), None);
        // Wrong version.
        assert_eq!(
            ControlRequest::from_bytes(&[CONTROL_MAGIC, 0x7f, 0x01]),
            None
        );
        // Unknown type.
        assert_eq!(
            ControlRequest::from_bytes(&[CONTROL_MAGIC, CONTROL_VERSION, 0x7f]),
            None
        );
        // Truncated Describe.
        assert_eq!(
            ControlRequest::from_bytes(&[CONTROL_MAGIC, CONTROL_VERSION, 0x02, 0, 0]),
            None
        );
        // Trailing garbage.
        let mut long = ControlRequest::ListSessions.to_bytes().to_vec();
        long.push(0);
        assert_eq!(ControlRequest::from_bytes(&long), None);
    }

    #[test]
    fn response_roundtrip() {
        let info = arb_info(3, (1_000_000, 500, 2_000), 42, 4, 16, b"tornado-a");
        for resp in [
            ControlResponse::SessionList {
                session_ids: vec![],
            },
            ControlResponse::SessionList {
                session_ids: vec![0, 1, u32::MAX],
            },
            ControlResponse::Session { info },
            ControlResponse::UnknownSession { session_id: 9 },
            ControlResponse::BadRequest,
        ] {
            let wire = resp.to_bytes();
            assert_eq!(ControlResponse::from_bytes(&wire), Some(resp));
        }
    }

    #[test]
    fn truncated_responses_are_rejected() {
        let info = arb_info(1, (10_000, 500, 20), 7, 1, 0, b"tornado-b");
        let wire = ControlResponse::Session { info }.to_bytes();
        for cut in 0..wire.len() {
            assert_eq!(
                ControlResponse::from_bytes(&wire[..cut]),
                None,
                "truncation at {cut} must not parse"
            );
        }
    }

    #[test]
    fn rateless_mode_byte_sits_after_the_cadence_and_rejects_unknowns() {
        let mut info = arb_info(1, (10_000, 500, 20), 7, 1, 0, b"tornado-a");
        info.rateless = RatelessMode::Raptor;
        let wire = ControlResponse::Session { info }.to_bytes();
        // Fixed layout: 3 header bytes, then 48 bytes of numeric fields
        // (u32 id, u64 len, five u32s, u64 seed, two u32 cadence words)
        // put the mode byte at offset 51 — pin it so the format cannot
        // silently drift.
        const MODE_OFFSET: usize = 51;
        assert_eq!(wire[MODE_OFFSET], RatelessMode::Raptor.to_wire());
        let mut forged = wire.to_vec();
        forged[MODE_OFFSET] = 0x7f;
        assert_eq!(
            ControlResponse::from_bytes(&forged),
            None,
            "unknown mode bytes must fail the parse, not default"
        );
    }

    #[test]
    fn session_list_count_is_validated_against_datagram_size() {
        // A count field claiming 2^31 ids must be rejected without allocating.
        let mut wire = vec![CONTROL_MAGIC, CONTROL_VERSION, RESP_LIST];
        wire.extend_from_slice(&0x8000_0000u32.to_be_bytes());
        assert_eq!(ControlResponse::from_bytes(&wire), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_request_roundtrip(session_id: u32, pick: bool) {
            let req = if pick {
                ControlRequest::ListSessions
            } else {
                ControlRequest::Describe { session_id }
            };
            prop_assert_eq!(ControlRequest::from_bytes(&req.to_bytes()), Some(req));
        }

        #[test]
        fn prop_session_list_roundtrip(ids in proptest::collection::vec(any::<u32>(), 0..50)) {
            let resp = ControlResponse::SessionList { session_ids: ids };
            prop_assert_eq!(ControlResponse::from_bytes(&resp.to_bytes()), Some(resp.clone()));
        }

        #[test]
        fn prop_session_info_roundtrip(
            session_id: u32,
            file_len: u32,
            packet_size: u32,
            k: u32,
            code_seed: u64,
            layers: u8,
            base_group: u32,
            name in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let info = arb_info(
                session_id,
                (file_len, packet_size, k),
                code_seed,
                layers,
                base_group,
                &name,
            );
            let resp = ControlResponse::Session { info };
            prop_assert_eq!(ControlResponse::from_bytes(&resp.to_bytes()), Some(resp.clone()));
        }

        #[test]
        fn prop_noise_never_panics(noise in proptest::collection::vec(any::<u8>(), 0..128)) {
            // Whatever arrives on the control port, parsing must return
            // cleanly (the fuzz half of the framing contract).
            let _ = ControlRequest::from_bytes(&noise);
            let _ = ControlResponse::from_bytes(&noise);
        }
    }
}

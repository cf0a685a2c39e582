//! Golden bytes for the protocol half of the wire: the 12-byte data-packet
//! header, one framed data datagram, and every control-channel request and
//! response variant at the current `CONTROL_VERSION`.
//!
//! Two builds talk only if they agree on these bytes, yet every other test
//! in the workspace runs both ends from one binary, so a reordered field or
//! a changed tag byte would pass all of them.  `fixtures/wire/control_v3.txt`
//! pins the bytes instead: the encoders must reproduce the file exactly
//! (header comment included), and the decoders must parse each pinned frame
//! back into the value it was written from.
//!
//! The fixture is written by the ignored `regenerate_the_fixture`.  Do not
//! run it to make a failure go away: a mismatch means the wire changed.  A
//! deliberate change bumps `CONTROL_VERSION`, regenerates into a new
//! `control_v<N>.txt` beside the old one, and points `FIXTURE` at it.

use bytes::Bytes;
use digital_fountain::proto::control::CONTROL_VERSION;
use digital_fountain::proto::{
    seed_to_words, ControlInfo, ControlRequest, ControlResponse, DataPacket, PacketHeader,
    RatelessMode, HEADER_LEN,
};
use std::fmt::Write as _;

/// The control version `FIXTURE` records.
const FIXTURE_VERSION: u8 = 3;
const FIXTURE: &str = include_str!("fixtures/wire/control_v3.txt");

const PREAMBLE: &str = "\
# Golden bytes of the df-proto wire at CONTROL_VERSION 3: the 12-byte data
# packet header, one framed data datagram, and every control request and
# response variant.  tests/wire_golden.rs checks this file byte for byte.
#
# Do NOT regenerate this file to make a failure go away.  A mismatch means
# the wire changed, and two builds that disagree here cannot talk.  A
# deliberate change bumps CONTROL_VERSION and adds control_v4.txt beside
# this file; this one stays as the record of version 3.
#
# <name> <hex>
";

/// Whether some bytes parse back to the value a frame was written from.
type Parses = Box<dyn Fn(&[u8]) -> bool>;

/// One pinned frame.
struct Frame {
    name: &'static str,
    bytes: Vec<u8>,
    parses: Parses,
}

fn header_frame(name: &'static str, header: PacketHeader) -> Frame {
    Frame {
        name,
        bytes: header.encode().to_vec(),
        parses: Box::new(move |b| b.len() == HEADER_LEN && PacketHeader::decode(b) == Some(header)),
    }
}

fn request(name: &'static str, request: ControlRequest) -> Frame {
    Frame {
        name,
        bytes: request.to_bytes().to_vec(),
        parses: Box::new(move |b| ControlRequest::from_bytes(b) == Some(request)),
    }
}

fn response(name: &'static str, response: ControlResponse) -> Frame {
    Frame {
        name,
        bytes: response.to_bytes().to_vec(),
        parses: Box::new(move |b| ControlResponse::from_bytes(b).as_ref() == Some(&response)),
    }
}

/// A session description whose fields all differ, so a swapped or resized
/// field changes the bytes.
fn session(rateless: RatelessMode, profile: &str) -> ControlResponse {
    ControlResponse::Session {
        info: ControlInfo {
            session_id: 0x0102_0304,
            file_len: 0x0000_0001_0000_0203,
            packet_size: 500,
            k: 2_098,
            n: 4_196,
            code_seed: 0x0123_4567_89AB_CDEF,
            layers: 4,
            base_group: 16,
            sp_interval: 8,
            burst_rounds: 1,
            rateless,
            profile: profile.to_string(),
        },
    }
}

/// Every pinned frame, in file order.
fn frames() -> Vec<Frame> {
    let header = PacketHeader {
        packet_index: 0x0102_0304,
        serial: 0x1112_1314,
        group: 0x2122_2324,
    };
    let (packet_index, serial) = seed_to_words(0x0123_4567_89AB_CDEF);
    let seed_header = PacketHeader {
        packet_index,
        serial,
        group: 2,
    };
    let payload: Vec<u8> = (0u8..16).map(|i| i.wrapping_mul(17) ^ 0xA5).collect();
    let packet = DataPacket::new(header, Bytes::from(payload.clone()));
    vec![
        header_frame("header", header),
        header_frame("header.rateless_seed", seed_header),
        Frame {
            name: "datagram",
            bytes: DataPacket::frame(&header, &payload).to_vec(),
            parses: Box::new(move |b| {
                DataPacket::from_bytes(Bytes::from(b.to_vec())).as_ref() == Some(&packet)
            }),
        },
        request("request.list_sessions", ControlRequest::ListSessions),
        request(
            "request.describe",
            ControlRequest::Describe {
                session_id: 0xDEAD_BEEF,
            },
        ),
        response(
            "response.session_list.empty",
            ControlResponse::SessionList {
                session_ids: vec![],
            },
        ),
        response(
            "response.session_list",
            ControlResponse::SessionList {
                session_ids: vec![0, 1, 0xFFFF_FFFF],
            },
        ),
        response(
            "response.session.off",
            session(RatelessMode::Off, "tornado-a"),
        ),
        response(
            "response.session.lt",
            session(RatelessMode::Lt, "tornado-b"),
        ),
        response("response.session.raptor", session(RatelessMode::Raptor, "")),
        response(
            "response.unknown_session",
            ControlResponse::UnknownSession { session_id: 9 },
        ),
        response("response.bad_request", ControlResponse::BadRequest),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").unwrap();
        s
    })
}

fn unhex(text: &str) -> Vec<u8> {
    assert!(text.len().is_multiple_of(2), "odd-length hex {text:?}");
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// The fixture file this build would write.
fn render() -> String {
    let mut out = String::from(PREAMBLE);
    for frame in frames() {
        writeln!(out, "{} {}", frame.name, hex(&frame.bytes)).unwrap();
    }
    out
}

#[test]
fn the_fixture_records_the_current_control_version() {
    assert_eq!(
        CONTROL_VERSION, FIXTURE_VERSION,
        "a new control version gets its own fixture, control_v{CONTROL_VERSION}.txt; \
         control_v{FIXTURE_VERSION}.txt stays as the record of version {FIXTURE_VERSION}"
    );
}

#[test]
fn the_encoders_reproduce_the_golden_bytes() {
    let now = render();
    for (line, (pinned, built)) in FIXTURE.lines().zip(now.lines()).enumerate() {
        assert_eq!(
            pinned,
            built,
            "control_v3.txt line {} no longer matches what this build writes",
            line + 1
        );
    }
    assert_eq!(
        FIXTURE, now,
        "control_v3.txt differs in length or line ends"
    );
}

#[test]
fn the_decoders_parse_the_golden_bytes() {
    let frames = frames();
    let rows: Vec<(&str, &str)> = FIXTURE
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split_once(' ').expect("`<name> <hex>` rows"))
        .collect();
    assert_eq!(rows.len(), frames.len(), "one fixture row per frame");
    for ((name, text), frame) in rows.into_iter().zip(&frames) {
        assert_eq!(name, frame.name);
        assert!(
            (frame.parses)(&unhex(text)),
            "{name}: the pinned bytes no longer parse to the value they were written from"
        );
    }
}

/// Writes `fixtures/wire/control_v<CONTROL_VERSION>.txt` from this build.
/// Run it once, at the commit that bumps the version — never to make a
/// failure go away.
#[test]
#[ignore = "writes tests/fixtures/wire/control_v<CONTROL_VERSION>.txt"]
fn regenerate_the_fixture() {
    let path = format!(
        "{}/tests/fixtures/wire/control_v{CONTROL_VERSION}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::write(path, render()).unwrap();
}

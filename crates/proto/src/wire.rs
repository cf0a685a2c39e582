//! Wire format of the prototype's data packets.
//!
//! Section 7.3: "The packets were additionally tagged with 12 bytes of
//! information (packet index, serial number and group number) to give a final
//! packet size of 512 bytes."  We use the same three `u32` fields in network
//! byte order ahead of the payload.

use bytes::{Buf, Bytes};

/// Length of the packet header in bytes.
pub const HEADER_LEN: usize = 12;

/// The 12-byte header carried by every data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    /// Index of the encoding packet within the session's encoding (0..n).
    pub packet_index: u32,
    /// Monotonically increasing serial number of the transmission; lets a
    /// receiver estimate its loss rate.
    pub serial: u32,
    /// Multicast group / layer the packet was sent on.
    pub group: u32,
}

impl PacketHeader {
    /// Serialise the header into 12 bytes (big-endian fields).
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        // bounds: `buf` is exactly HEADER_LEN (12) bytes by construction.
        buf[0..4].copy_from_slice(&self.packet_index.to_be_bytes());
        buf[4..8].copy_from_slice(&self.serial.to_be_bytes());
        buf[8..12].copy_from_slice(&self.group.to_be_bytes());
        buf
    }

    /// Parse a header from the first 12 bytes of `data`.
    ///
    /// Returns `None` if `data` is too short.
    pub fn decode(data: &[u8]) -> Option<Self> {
        if data.len() < HEADER_LEN {
            return None;
        }
        Some(PacketHeader {
            // bounds: `data.len() >= HEADER_LEN` (12) checked just above.
            packet_index: u32::from_be_bytes(data[0..4].try_into().ok()?),
            serial: u32::from_be_bytes(data[4..8].try_into().ok()?),
            group: u32::from_be_bytes(data[8..12].try_into().ok()?),
        })
    }
}

/// A full data packet: header plus encoding-packet payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// The packet header.
    pub header: PacketHeader,
    /// The encoding-packet payload (500 bytes in the paper's prototype).
    pub payload: Bytes,
}

impl DataPacket {
    /// Create a packet.
    pub fn new(header: PacketHeader, payload: Bytes) -> Self {
        DataPacket { header, payload }
    }

    /// Serialise header + payload into one datagram.
    pub fn to_bytes(&self) -> Bytes {
        Self::frame(&self.header, &self.payload)
    }

    /// Frame a datagram from a borrowed payload, without building a
    /// `DataPacket` first.  This is not zero-copy: every call allocates one
    /// buffer and copies the whole payload into it once, even for a sender
    /// that retains its encoding (the carousel re-sends every packet
    /// forever).  Sending the header and the retained payload as two
    /// `iovec`s — the socket-path item of ROADMAP.md — is what removes the
    /// copy.  The header and the payload are appended to an unfilled
    /// buffer, so no byte is written twice.  [`DataPacket::to_bytes`]
    /// delegates here.
    pub fn frame(header: &PacketHeader, payload: &[u8]) -> Bytes {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        buf.extend_from_slice(&header.encode());
        buf.extend_from_slice(payload);
        Bytes::from(buf)
    }

    /// Frame a datagram whose `payload_len`-byte payload is written in
    /// place: `write` fills the bytes behind the header and returns the
    /// header to put in front of them, or `None` for no datagram.  A sender
    /// that computes its payloads (a rateless symbol is an XOR of rows)
    /// writes it straight into the datagram, which therefore starts
    /// zeroed.  The layout is [`DataPacket::frame`]'s: the
    /// [`HEADER_LEN`]-byte header, then the payload.
    pub fn frame_in_place(
        payload_len: usize,
        write: impl FnOnce(&mut [u8]) -> Option<PacketHeader>,
    ) -> Option<Bytes> {
        let mut buf = vec![0u8; HEADER_LEN + payload_len];
        let (head, payload) = buf.split_at_mut(HEADER_LEN);
        let header = write(payload)?;
        head.copy_from_slice(&header.encode());
        Some(Bytes::from(buf))
    }

    /// Parse a datagram back into a packet.
    ///
    /// Returns `None` if the datagram is shorter than a header.
    pub fn from_bytes(mut data: Bytes) -> Option<Self> {
        let header = PacketHeader::decode(&data)?;
        data.advance(HEADER_LEN);
        Some(DataPacket {
            header,
            payload: data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn header_is_exactly_twelve_bytes() {
        let h = PacketHeader {
            packet_index: 1,
            serial: 2,
            group: 3,
        };
        assert_eq!(h.encode().len(), HEADER_LEN);
    }

    #[test]
    fn header_roundtrip() {
        let h = PacketHeader {
            packet_index: 0xDEAD_BEEF,
            serial: 42,
            group: 3,
        };
        assert_eq!(PacketHeader::decode(&h.encode()), Some(h));
        assert_eq!(PacketHeader::decode(&[0u8; 5]), None);
    }

    #[test]
    fn datagram_roundtrip_matches_paper_sizes() {
        let h = PacketHeader {
            packet_index: 8263,
            serial: 99,
            group: 1,
        };
        let payload = Bytes::from(vec![0xabu8; 500]);
        let pkt = DataPacket::new(h, payload.clone());
        let wire = pkt.to_bytes();
        assert_eq!(
            wire.len(),
            512,
            "500 B payload + 12 B header = 512 B datagram"
        );
        let back = DataPacket::from_bytes(wire).unwrap();
        assert_eq!(back.header, h);
        assert_eq!(back.payload, payload);
    }

    proptest! {
        #[test]
        fn prop_packet_roundtrip(index: u32, serial: u32, group: u32,
                                 payload in proptest::collection::vec(any::<u8>(), 0..600)) {
            let pkt = DataPacket::new(
                PacketHeader { packet_index: index, serial, group },
                Bytes::from(payload),
            );
            let back = DataPacket::from_bytes(pkt.to_bytes()).unwrap();
            prop_assert_eq!(back, pkt);
        }

        /// The copying and the in-place framings lay a datagram out alike.
        #[test]
        fn prop_both_framings_agree(index: u32, serial: u32, group: u32,
                                    payload in proptest::collection::vec(any::<u8>(), 0..600)) {
            let header = PacketHeader { packet_index: index, serial, group };
            let in_place = DataPacket::frame_in_place(payload.len(), |room| {
                room.copy_from_slice(&payload);
                Some(header)
            });
            prop_assert_eq!(Some(DataPacket::frame(&header, &payload)), in_place);
        }
    }
}

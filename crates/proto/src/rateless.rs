//! Rateless ("true fountain") wire plumbing: the mode flag the control
//! channel announces and the seed ↔ header-word packing.
//!
//! A carousel session retransmits a *fixed* encoding, so its 12-byte header
//! names a packet by index.  A rateless session never repeats itself: every
//! datagram is a fresh LT symbol fully described by a 64-bit seed, and the
//! header's `packet_index:serial` words carry that seed (high:low) instead.
//! Nothing about the framing changes — only the interpretation, which the
//! control channel announces up front via [`RatelessMode`]
//! (`CONTROL_VERSION` 3).  The sessions own the rest: a
//! [`crate::ServerSession`] streams the symbols, and a
//! [`crate::ClientSession`] decodes them behind its memory caps.

/// How a session's data datagrams are encoded, as announced on the control
/// channel.  One byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RatelessMode {
    /// Fixed-encoding carousel (the classic Section 7 prototype): the header
    /// carries `(packet_index, serial)` and duplicates accumulate.
    #[default]
    Off,
    /// Plain LT code over the `k` source packets: the header carries a
    /// 64-bit symbol seed and every datagram is distinct.
    Lt,
    /// Raptor code (sparse XOR precode + LT layer over its `n`
    /// intermediates): seed-carrying like [`RatelessMode::Lt`], with the
    /// control channel's `n` advertising the intermediate count.
    Raptor,
}

impl RatelessMode {
    /// Wire encoding of the mode byte.
    ///
    /// Raptor is byte 3.  Byte 2 was the Raptor of the GF(2^16)-tailed
    /// cascade precode: a receiver rebuilds the precode from
    /// `(k, code_seed)`, so a different precode is a different wire format,
    /// and the retired byte makes old and new builds refuse each other at
    /// the control channel instead of reassembling garbage.
    pub fn to_wire(self) -> u8 {
        match self {
            RatelessMode::Off => 0,
            RatelessMode::Lt => 1,
            RatelessMode::Raptor => 3,
        }
    }

    /// Decode the mode byte; `None` for bytes no known mode uses — the
    /// retired 2 included (the control channel is untrusted input, so
    /// unknown modes are a parse error, not a default).
    pub fn from_wire(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(RatelessMode::Off),
            1 => Some(RatelessMode::Lt),
            3 => Some(RatelessMode::Raptor),
            _ => None,
        }
    }

    /// True for the seed-carrying modes.
    pub fn is_rateless(self) -> bool {
        !matches!(self, RatelessMode::Off)
    }
}

/// Pack a rateless symbol seed into the header's `(packet_index, serial)`
/// words: the seed's high 32 bits ride in `packet_index`, the low 32 in
/// `serial`.  Serials therefore stay monotonic for a monotonic seed stream —
/// receivers can still eyeball datagram order — while the full 64-bit space
/// keeps seed reuse out of reach of any session lifetime.
pub fn seed_to_words(seed: u64) -> (u32, u32) {
    ((seed >> 32) as u32, seed as u32)
}

/// Recover a symbol seed from the header's `(packet_index, serial)` words
/// (inverse of [`seed_to_words`]).
pub fn seed_from_words(packet_index: u32, serial: u32) -> u64 {
    ((packet_index as u64) << 32) | serial as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_bytes_roundtrip_and_reject_unknowns() {
        for mode in [RatelessMode::Off, RatelessMode::Lt, RatelessMode::Raptor] {
            assert_eq!(RatelessMode::from_wire(mode.to_wire()), Some(mode));
        }
        // Byte 2 is retired with the precode it announced; a build that
        // still sends it, or one that receives 3, is refused here.
        assert_eq!(RatelessMode::Raptor.to_wire(), 3);
        for byte in (2..=u8::MAX).filter(|&b| b != 3) {
            assert_eq!(RatelessMode::from_wire(byte), None);
        }
        assert!(!RatelessMode::Off.is_rateless());
        assert!(RatelessMode::Lt.is_rateless());
        assert!(RatelessMode::Raptor.is_rateless());
        assert_eq!(RatelessMode::default(), RatelessMode::Off);
    }

    #[test]
    fn seed_packing_roundtrips() {
        for seed in [
            0u64,
            1,
            u32::MAX as u64,
            1 << 32,
            u64::MAX,
            0xDEAD_BEEF_0BAD_F00D,
        ] {
            let (hi, lo) = seed_to_words(seed);
            assert_eq!(seed_from_words(hi, lo), seed);
        }
        // Monotonic seeds keep the low word (the wire serial) monotonic
        // within each 2^32 block — the property the header doc promises.
        assert_eq!(seed_to_words(7), (0, 7));
        assert_eq!(seed_to_words((1 << 32) + 7), (1, 7));
    }
}

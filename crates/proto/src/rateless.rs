//! Rateless ("true fountain") session plumbing: the wire-level mode flag,
//! the seed ↔ header-word packing, and the sender/receiver state machines
//! the sessions delegate to.
//!
//! A carousel session retransmits a *fixed* encoding, so its 12-byte header
//! names a packet by index.  A rateless session never repeats itself: every
//! datagram is a fresh LT symbol fully described by a 64-bit seed, and the
//! header's `packet_index:serial` words carry that seed (high:low) instead.
//! Nothing about the framing changes — only the interpretation, which the
//! control channel announces up front via [`RatelessMode`]
//! (`CONTROL_VERSION` 3).
//!
//! This module is wire-facing: everything here handles attacker-controlled
//! seeds and payloads, so it must never panic and must hold bounded memory
//! no matter what arrives (see [`RatelessReceiver`]).

use df_core::{AddOutcome, LtDecoder, LtEncoder, RaptorCode, SymbolSlab};
use df_core::{LT_DEFAULT_C, LT_DEFAULT_DELTA};

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

/// The transmit side of a rateless session: an endless, never-repeating
/// stream of `(seed, payload)` symbols, metered into rounds of `k` symbols
/// so the driver's round-based pacing keeps working unchanged.
///
/// The symbols the LT layer XORs over live in one [`SymbolSlab`], and each
/// symbol is XORed from it straight into the buffer it is sent from
/// ([`RatelessSender::poll_into`]): nothing is allocated or copied per
/// symbol.
#[derive(Debug)]
pub struct RatelessSender {
    /// Seed → (degree, neighbors) derivation layer.  For plain LT this
    /// ranges over the `k` source packets; for Raptor it is the code's LT
    /// layer over the `n` precode intermediates.
    lt: LtEncoder,
    /// The symbols the LT layer XORs over (source packets or intermediates),
    /// all of one uniform length.
    symbols: SymbolSlab,
    /// Next seed to issue; monotonic, never wraps in any feasible session.
    next_seed: u64,
    /// Symbols per round (= `k`, matching one carousel round's bandwidth).
    quota: usize,
    issued_this_round: usize,
}

impl RatelessSender {
    /// Plain-LT sender over `k` uniform source packets.
    ///
    /// # Errors
    ///
    /// Propagates [`LtEncoder::new`] parameter errors (`source` empty) and
    /// [`SymbolSlab::from_packets`]'s (packets of unequal lengths).
    pub fn for_lt(source: &[Vec<u8>], stream_seed: u64) -> df_core::Result<Self> {
        let lt = LtEncoder::new(source.len(), LT_DEFAULT_C, LT_DEFAULT_DELTA, stream_seed)?;
        Ok(RatelessSender {
            lt,
            symbols: SymbolSlab::from_packets(source)?,
            next_seed: 0,
            quota: source.len(),
            issued_this_round: 0,
        })
    }

    /// Raptor sender: precodes `source` into the intermediates and streams
    /// LT symbols over them.
    ///
    /// # Errors
    ///
    /// Propagates precode encoding errors (wrong packet count / lengths).
    pub fn for_raptor(code: &RaptorCode, source: &[Vec<u8>]) -> df_core::Result<Self> {
        Ok(RatelessSender {
            lt: code.lt().clone(),
            symbols: code.precode_slab(source)?,
            next_seed: 0,
            quota: code.k(),
            issued_this_round: 0,
        })
    }

    /// Payload bytes of every emitted symbol.
    pub fn symbol_len(&self) -> usize {
        self.symbols.symbol_len()
    }

    /// Seeds issued so far (= symbols ever emitted).
    pub fn seeds_issued(&self) -> u64 {
        self.next_seed
    }

    /// True once this round's quota of fresh symbols has been issued.
    pub fn round_complete(&self) -> bool {
        self.issued_this_round >= self.quota
    }

    /// Reset the round quota (the driver's `advance_round`).
    pub fn advance_round(&mut self) {
        self.issued_this_round = 0;
    }

    /// Write the next symbol over `out` ([`Self::symbol_len`] bytes) and
    /// return its seed, or `None` once the round's quota is exhausted.
    pub fn poll_into(&mut self, out: &mut [u8]) -> Option<u64> {
        if self.round_complete() {
            return None;
        }
        let seed = self.next_seed;
        // The slab only errors on a row-count or length mismatch, which this
        // sender's construction and the caller's framing rule out; treat it
        // as quota exhaustion rather than panicking in transmit-path code.
        self.symbols.encode_into(&self.lt, seed, out).ok()?;
        self.next_seed += 1;
        self.issued_this_round += 1;
        Some(seed)
    }
}

/// The receive side of a rateless session: routes `(seed, payload)` symbols
/// into the LT or Raptor streaming decoder behind hard memory caps.
///
/// The decoders themselves accept unboundedly many distinct symbols — that
/// is the point of a rateless code — so *this* wrapper is where the
/// bounded-memory contract lives: once [`RatelessReceiver::at_capacity`]
/// (more buffered equations or equation edges than any honest decode needs),
/// new symbols are refused before they can grow decoder state.  A forged
/// flood can stall one session's download; it cannot balloon the process.
///
/// A payload is copied once, from the datagram into the decoder, and only
/// if its equation is kept; the decoder computes the source packets into
/// one buffer laid out as the file, reserved (fallibly) at the first
/// symbol, and [`RatelessReceiver::take_file`] hands that buffer over.
#[derive(Debug)]
pub struct RatelessReceiver {
    /// Either mode's decoder: a Raptor decoder *is* an LT decoder over the
    /// intermediates that knows the precode's checks.
    decoder: LtDecoder<Vec<u8>>,
    /// Most undecoded equations the decoder may buffer.
    max_equations: usize,
    /// Most unknown-symbol references across buffered equations.
    max_edges: usize,
    /// Uniform payload length of every valid symbol: the session's packet
    /// size in both modes (XOR never pads).
    payload_len: usize,
}

impl RatelessReceiver {
    /// Plain-LT receiver over `k` packets of `packet_size` bytes, matching a
    /// [`RatelessSender::for_lt`] stream seeded with `stream_seed`.
    ///
    /// # Errors
    ///
    /// Propagates [`LtEncoder::new`] parameter errors (`k == 0`).
    pub fn for_lt(k: usize, packet_size: usize, stream_seed: u64) -> df_core::Result<Self> {
        let enc = LtEncoder::new(k, LT_DEFAULT_C, LT_DEFAULT_DELTA, stream_seed)?;
        Ok(Self::over(LtDecoder::new(enc), k, packet_size))
    }

    /// Raptor receiver matching a [`RatelessSender::for_raptor`] stream.
    pub fn for_raptor(code: &RaptorCode, packet_size: usize) -> Self {
        Self::over(code.decoder().into(), code.k(), packet_size)
    }

    fn over(decoder: LtDecoder<Vec<u8>>, k: usize, packet_size: usize) -> Self {
        RatelessReceiver {
            decoder,
            max_equations: Self::equation_cap(k),
            max_edges: Self::equation_cap(k) * Self::EDGES_PER_EQUATION,
            payload_len: packet_size,
        }
    }

    /// Equation cap for a `k`-packet session: `1.5k + 64`.  An honest decode
    /// completes from ≈ `1.00k`–`1.01k` symbols at `k` ≥ 500 (more at small
    /// `k`: ≈ `1.05k`–`1.10k` at `k` = 64–150) and holds at most that many
    /// equations plus, for Raptor, the precode's `0.05k` checks, so an
    /// honest session never comes near it.
    fn equation_cap(k: usize) -> usize {
        k + k / 2 + 64
    }

    /// Edge budget per buffered equation.  The robust soliton's *average*
    /// degree is `O(ln k)` (the Raptor table's is ≈ 5.9, and its precode
    /// adds 3 edges per source packet); 16 edges per equation of slack
    /// covers every feasible honest workload, while a flood of
    /// maximum-degree forged seeds hits this wall long before the equation
    /// cap.
    const EDGES_PER_EQUATION: usize = 16;

    /// Uniform payload length every valid symbol must carry (XOR demands one
    /// length; the session drops mismatches before they reach the decoder).
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Most undecoded equations this receiver will buffer.
    pub fn max_equations(&self) -> usize {
        self.max_equations
    }

    /// Most unknown-symbol references this receiver will buffer.
    pub fn max_edges(&self) -> usize {
        self.max_edges
    }

    /// Equations currently buffered (undecoded).
    pub fn pending_equations(&self) -> usize {
        self.decoder.pending_equations()
    }

    /// Unknown-symbol references across buffered equations.
    pub fn pending_edges(&self) -> usize {
        self.decoder.pending_edges()
    }

    /// Symbols accepted so far, duplicates included.
    pub fn received_total(&self) -> u64 {
        self.decoder.received_total()
    }

    /// Symbols accepted so far whose seed was new.
    pub fn received_distinct(&self) -> u64 {
        self.decoder.received_distinct()
    }

    /// True once either memory cap is reached: the next new symbol would be
    /// refused.  Unreachable from an honest symbol stream.
    pub fn at_capacity(&self) -> bool {
        self.pending_equations() >= self.max_equations || self.pending_edges() >= self.max_edges
    }

    /// True once every source packet is recovered.
    pub fn is_complete(&self) -> bool {
        self.decoder.is_complete()
    }

    /// Accept one `(seed, payload)` symbol.  The caller has already
    /// length-checked `payload` against [`RatelessReceiver::payload_len`]
    /// and checked [`RatelessReceiver::at_capacity`].  A payload the decoder
    /// cannot keep (see [`RatelessReceiver::offer`]) changes nothing and is
    /// answered [`AddOutcome::Duplicate`].
    pub fn add(&mut self, seed: u64, payload: impl AsRef<[u8]>) -> AddOutcome {
        self.offer(seed, payload.as_ref())
            .unwrap_or(AddOutcome::Duplicate)
    }

    /// [`RatelessReceiver::add`], saying why a payload was not kept.
    ///
    /// # Errors
    ///
    /// [`df_core::TornadoError::MalformedInput`] when the decoder cannot
    /// keep `payload`: another length than the session's, or the first
    /// symbol of a session whose `k × packet_size` bytes the allocator
    /// refuses.  Nothing changes then.
    pub fn offer(&mut self, seed: u64, payload: &[u8]) -> df_core::Result<AddOutcome> {
        self.decoder.add_symbol_ref(seed, payload)
    }

    /// Let go of the decoder's symbol values: [`Self::pending_equations`]
    /// is `0` from here on, [`Self::take_file`] answers `None`, and
    /// completion and the reception counts stay as they are.
    pub fn release(&mut self) {
        self.decoder.release();
    }

    /// The reconstructed file once complete — the buffer the decoder
    /// computed the source packets into, not a copy — and the decoder lets
    /// go of everything else, as [`Self::release`] does.
    pub fn take_file(&mut self, file_len: usize) -> Option<Vec<u8>> {
        self.decoder.take_source(file_len)
    }
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

    fn packets(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| ((i * 251 + j * 31) % 255) as u8).collect())
            .collect()
    }

    /// The next symbol of `tx`'s round, as `(seed, payload)`.
    fn poll(tx: &mut RatelessSender) -> Option<(u64, Vec<u8>)> {
        let mut payload = vec![0u8; tx.symbol_len()];
        let seed = tx.poll_into(&mut payload)?;
        Some((seed, payload))
    }

    #[test]
    fn lt_sender_stream_decodes_at_the_receiver() {
        let source = packets(60, 32);
        let mut tx = RatelessSender::for_lt(&source, 0xFEED).unwrap();
        let mut rx = RatelessReceiver::for_lt(60, 32, 0xFEED).unwrap();
        assert_eq!(rx.payload_len(), 32);
        let mut rounds = 0;
        while !rx.is_complete() {
            while let Some((seed, payload)) = poll(&mut tx) {
                assert_eq!(payload.len(), rx.payload_len());
                if rx.is_complete() {
                    break;
                }
                rx.add(seed, payload);
            }
            tx.advance_round();
            rounds += 1;
            assert!(rounds < 50, "LT stream failed to converge");
        }
        assert_eq!(rx.take_file(60 * 32).unwrap(), source.concat());
    }

    #[test]
    fn raptor_sender_stream_decodes_at_the_receiver() {
        let source = packets(80, 33);
        let code = RaptorCode::new(80, 0x5EED).unwrap();
        let mut tx = RatelessSender::for_raptor(&code, &source).unwrap();
        let mut rx = RatelessReceiver::for_raptor(&code, 33);
        // An odd packet size rides as it is: no padding on the XOR path.
        assert_eq!(rx.payload_len(), 33);
        assert_eq!(tx.symbol_len(), rx.payload_len());
        let mut rounds = 0;
        while !rx.is_complete() {
            while let Some((seed, payload)) = poll(&mut tx) {
                if rx.is_complete() {
                    break;
                }
                rx.add(seed, payload);
            }
            tx.advance_round();
            rounds += 1;
            assert!(rounds < 50, "Raptor stream failed to converge");
        }
        assert_eq!(rx.take_file(80 * 33).unwrap(), source.concat());
    }

    #[test]
    fn sender_rounds_meter_exactly_k_fresh_symbols() {
        let mut tx = RatelessSender::for_lt(&packets(25, 8), 1).unwrap();
        for round in 0..3u64 {
            let mut seeds = Vec::new();
            while let Some((seed, _)) = poll(&mut tx) {
                seeds.push(seed);
            }
            assert_eq!(seeds.len(), 25, "round quota is k");
            assert_eq!(seeds.first().copied(), Some(round * 25));
            assert!(tx.round_complete());
            assert!(poll(&mut tx).is_none(), "quota is enforced");
            tx.advance_round();
        }
        assert_eq!(tx.seeds_issued(), 75);
    }

    #[test]
    fn caps_scale_with_k_and_start_unsaturated() {
        let rx = RatelessReceiver::for_lt(1000, 16, 9).unwrap();
        assert_eq!(rx.max_equations(), 1564);
        assert_eq!(rx.max_edges(), 1564 * 16);
        assert!(!rx.at_capacity());
        assert_eq!((rx.pending_equations(), rx.pending_edges()), (0, 0));
    }
}

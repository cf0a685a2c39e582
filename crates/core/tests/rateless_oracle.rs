//! The rateless decoders held to a maximum-likelihood oracle.
//!
//! `df_core::rateless` claims inactivation decoding: an LT or Raptor
//! decoder completes on exactly the symbol that makes the file determined
//! at all.  The oracle here is the obviously correct, slow way to know
//! that symbol — every equation as one bit-packed row over all `n`
//! unknowns, Gaussian elimination, done when the rank is `n` — and the
//! tests walk seeded lossy streams asserting, symbol by symbol, that the
//! decoder says `Complete` when and only when the oracle's rank is full;
//! that the payload decoder completes on the same symbol with the right
//! bytes; and that a stream fed twice leaves the same trail.

use df_core::{AddOutcome, LtDecoder, LtEncoder, Mark, RaptorCode, LT_DEFAULT_C, LT_DEFAULT_DELTA};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Dense GF(2) elimination with one pivot row per column, kept in echelon
/// form as rows arrive.
struct Oracle {
    n: usize,
    pivots: Vec<Option<Vec<u64>>>,
    rank: usize,
}

impl Oracle {
    fn new(n: usize) -> Self {
        Oracle {
            n,
            pivots: vec![None; n],
            rank: 0,
        }
    }

    fn add(&mut self, cols: impl IntoIterator<Item = u32>) {
        let mut row = vec![0u64; self.n.div_ceil(64)];
        for c in cols {
            row[c as usize / 64] ^= 1 << (c % 64);
        }
        while let Some(low) = (0..self.n).find(|&c| row[c / 64] >> (c % 64) & 1 == 1) {
            match &self.pivots[low] {
                Some(pivot) => row.iter_mut().zip(pivot).for_each(|(r, p)| *r ^= p),
                None => {
                    self.pivots[low] = Some(row);
                    self.rank += 1;
                    return;
                }
            }
        }
    }

    fn full_rank(&self) -> bool {
        self.rank == self.n
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Lt,
    Raptor,
}

/// One code under test with the calls the two modes spell differently.
enum Code {
    Lt(LtEncoder),
    Raptor(RaptorCode),
}

enum Decoder<S: df_core::Symbol> {
    Lt(LtDecoder<S>),
    Raptor(df_core::RaptorDecoder<S>),
}

impl Code {
    fn new(mode: Mode, k: usize, seed: u64) -> Self {
        match mode {
            Mode::Lt => Code::Lt(LtEncoder::new(k, LT_DEFAULT_C, LT_DEFAULT_DELTA, seed).unwrap()),
            Mode::Raptor => Code::Raptor(RaptorCode::new(k, seed).unwrap()),
        }
    }

    fn lt(&self) -> &LtEncoder {
        match self {
            Code::Lt(enc) => enc,
            Code::Raptor(code) => code.lt(),
        }
    }

    /// The oracle over this code's unknowns, the precode's checks (if any)
    /// already in it as `check_j ⊕ Σ neighbours = 0`.
    fn oracle(&self) -> Oracle {
        let mut oracle = Oracle::new(self.lt().count());
        if let Code::Raptor(code) = self {
            let graph = code.precode_graph();
            for j in 0..graph.right() {
                let check = (code.k() + j) as u32;
                oracle.add(graph.check_neighbors(j).iter().copied().chain([check]));
            }
        }
        oracle
    }

    /// What the sender XORs over: the source, precoded if the mode does.
    fn symbols(&self, source: &[Vec<u8>]) -> Vec<Vec<u8>> {
        match self {
            Code::Lt(_) => source.to_vec(),
            Code::Raptor(code) => code.precode_symbols(source).unwrap(),
        }
    }

    fn marks(&self) -> Decoder<Mark> {
        match self {
            Code::Lt(enc) => Decoder::Lt(LtDecoder::new(enc.clone())),
            Code::Raptor(code) => Decoder::Raptor(code.symbolic_decoder()),
        }
    }

    fn payloads(&self) -> Decoder<Vec<u8>> {
        match self {
            Code::Lt(enc) => Decoder::Lt(LtDecoder::new(enc.clone())),
            Code::Raptor(code) => Decoder::Raptor(code.decoder()),
        }
    }
}

impl<S: df_core::Symbol> Decoder<S> {
    fn pending(&self) -> (usize, usize) {
        match self {
            Decoder::Lt(d) => (d.pending_equations(), d.pending_edges()),
            Decoder::Raptor(d) => (d.pending_equations(), d.pending_edges()),
        }
    }

    fn known(&self) -> usize {
        match self {
            Decoder::Lt(d) => d.known(),
            Decoder::Raptor(d) => d.lt_known(),
        }
    }
}

impl Decoder<Mark> {
    fn add(&mut self, seed: u64) -> AddOutcome {
        match self {
            Decoder::Lt(d) => d.add_symbol(seed, Mark),
            Decoder::Raptor(d) => d.add_mark(seed).unwrap(),
        }
    }
}

impl Decoder<Vec<u8>> {
    fn add(&mut self, seed: u64, payload: Vec<u8>) -> AddOutcome {
        match self {
            Decoder::Lt(d) => d.add_symbol(seed, payload),
            Decoder::Raptor(d) => d.add_symbol(seed, payload).unwrap(),
        }
    }

    fn source(&self) -> Option<Vec<Vec<u8>>> {
        match self {
            Decoder::Lt(d) => d.source(),
            Decoder::Raptor(d) => d.source(),
        }
    }
}

/// Walk one seeded stream to completion; returns how many symbols it took.
fn check_stream(mode: Mode, k: usize, loss: f64, stream: u64) -> usize {
    let label = format!("{mode:?} k = {k} loss = {loss} stream = {stream}");
    let code = Code::new(mode, k, stream);
    let mut oracle = code.oracle();
    let mut marks = code.marks();
    let mut replay = code.marks();
    let mut channel = ChaCha8Rng::seed_from_u64(stream ^ 0x10_55);
    let mut delivered = Vec::new();
    let mut trace = Vec::new();
    let mut next = 0u64;
    loop {
        let seed = next;
        next += 1;
        assert!(next < 64 * k as u64 + 4096, "{label}: never determined");
        if channel.gen_bool(loss) {
            continue;
        }
        assert!(!oracle.full_rank(), "{label}: oracle complete before feed");
        oracle.add(code.lt().equation(seed).neighbors);
        let outcome = marks.add(seed);
        delivered.push(seed);
        trace.push(marks.pending());
        assert_ne!(outcome, AddOutcome::Duplicate, "{label}: fresh seed {seed}");
        // Never earlier, never later.
        assert_eq!(
            outcome == AddOutcome::Complete,
            oracle.full_rank(),
            "{label}: decoder says {outcome:?} at symbol {} (seed {seed}), oracle rank {} of {}",
            delivered.len(),
            oracle.rank,
            oracle.n,
        );
        if outcome == AddOutcome::Complete {
            break;
        }
    }

    // The payload decoder: same symbol, right bytes, at an odd and an even
    // packet size; and it agrees with the symbolic one on how much it has
    // computed at every step.
    let len = 7 + (stream % 2) as usize;
    let mut bytes = ChaCha8Rng::seed_from_u64(stream ^ 0xDA7A);
    let source: Vec<Vec<u8>> = (0..k)
        .map(|_| {
            let mut p = vec![0u8; len];
            bytes.fill_bytes(&mut p);
            p
        })
        .collect();
    let symbols = code.symbols(&source);
    let mut payloads = code.payloads();
    for (at, &seed) in delivered.iter().enumerate() {
        let outcome = payloads.add(seed, code.lt().encode_symbol(seed, &symbols).unwrap());
        // Fed twice, the same trail.
        assert_eq!(replay.add(seed), outcome, "{label}: replay at {at}");
        assert_eq!(replay.pending(), trace[at], "{label}: replay trail at {at}");
        assert_eq!(
            payloads.pending(),
            trace[at],
            "{label}: payload trail at {at}"
        );
        assert_eq!(payloads.known(), replay.known(), "{label}: known at {at}");
        assert_eq!(
            outcome == AddOutcome::Complete,
            at + 1 == delivered.len(),
            "{label}: payload decoder says {outcome:?} at symbol {}",
            at + 1
        );
    }
    assert_eq!(payloads.source().as_ref(), Some(&source), "{label}: bytes");
    delivered.len()
}

#[test]
fn decoders_complete_exactly_when_the_system_reaches_full_rank() {
    // 6 sizes × 3 loss rates × 2 modes × 56 streams = 2 016 streams; Miri
    // (which runs `-p df-core`) gets one small stream of each kind.
    let (sizes, streams): (&[usize], u64) = if cfg!(miri) {
        (&[1, 3, 16], 1)
    } else {
        (&[1, 2, 3, 16, 64, 257], 56)
    };
    let mut walked = 0usize;
    let mut symbols = 0usize;
    for &k in sizes {
        for loss in [0.0, 0.1, 0.5] {
            for mode in [Mode::Lt, Mode::Raptor] {
                for stream in 0..streams {
                    let id = (k as u64) << 32 | ((loss * 10.0) as u64) << 16 | stream;
                    symbols += check_stream(mode, k, loss, id);
                    walked += 1;
                }
            }
        }
    }
    assert!(cfg!(miri) || walked >= 2_000, "{walked} streams");
    assert!(symbols > walked, "streams were walked");
}

#[test]
fn a_repeated_seed_is_a_duplicate_and_changes_nothing() {
    for mode in [Mode::Lt, Mode::Raptor] {
        let code = Code::new(mode, 64, 5);
        let mut marks = code.marks();
        // A seed whose equation is wide enough to stay buffered.
        let seed = (0..).find(|&s| code.lt().equation(s).degree() > 2).unwrap();
        assert_eq!(marks.add(seed), AddOutcome::Accepted);
        let before = marks.pending();
        assert_eq!(marks.add(seed), AddOutcome::Duplicate, "{mode:?}");
        assert_eq!(marks.pending(), before);
    }
}

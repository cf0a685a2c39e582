//! The top-level [`TornadoCode`] type: the public face of the paper's primary
//! contribution.
//!
//! A `TornadoCode` bundles a [`Cascade`] with convenience methods for
//! encoding, batch decoding, incremental decoding and overhead measurement.
//! Construction is deterministic in `(k, profile, seed)`, which is all a
//! sender needs to communicate out of band (in the prototype protocol this
//! travels on the UDP control channel together with the file length).
//!
//! # One live cascade per key
//!
//! Because a cascade is a pure function of that key, a process never needs
//! two copies of one: [`TornadoCode::with_profile`] — which every other
//! constructor here and every carousel session go through — hands back the cascade some other holder already keeps alive
//! when there is one, and builds only when there is none.  The registry
//! behind that (`LIVE_CODES`) holds [`Weak`] references only: a cascade
//! lives exactly as long as a code, decoder or session holds it, the
//! registry is never larger than the number of distinct codes currently
//! held, and there is nothing to size, evict or configure.  A miss builds
//! *outside* the lock, so one large construction never stalls another key's
//! lookup; two threads that miss on the same key both build, the first to
//! come back registers its cascade and the other adopts it and drops its
//! own (the builds are identical by construction, so the race is benign).
//! [`Cascade::build`] stays the uncached primitive.
//!
//! # Example
//!
//! ```
//! use df_core::{TornadoCode, AddOutcome};
//!
//! // A file of 1 000 source packets of 64 bytes, Tornado A profile.
//! let code = TornadoCode::new_a(1_000, 42).unwrap();
//! let file: Vec<u8> = (0..1_000u32).flat_map(|i| i.to_le_bytes().repeat(16)).collect();
//! let encoding = code.encode_file(&file, 64).unwrap();
//!
//! // Feed packets in an arbitrary order; decoding completes after roughly
//! // (1 + ε)·k distinct packets with ε ≈ 0.05.
//! let mut decoder = code.decoder();
//! let mut done = false;
//! for i in (0..code.n()).rev() {
//!     if decoder.add_packet_ref(i, encoding.row(i)).unwrap() == AddOutcome::Complete {
//!         done = true;
//!         break;
//!     }
//! }
//! assert!(done);
//! assert_eq!(decoder.take_file(file.len()).unwrap(), file);
//! ```

use crate::cascade::Cascade;
use crate::decode::{AddOutcome, PayloadDecoder, SymbolicDecoder};
use crate::encode::Encoding;
use crate::error::Result;
use crate::fountain::Reception;
use crate::profile::{TornadoProfile, TORNADO_A, TORNADO_B};
use crate::store::StoreShape;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// The registry's shape: `(k, seed, profile name)` → the live cascades built
/// from it.  The name stands in for the profile in the ordering (a profile
/// holds floats, which have none); a bucket has more than one entry only
/// when two profiles share a name and differ elsewhere, which
/// [`shared_cascade`] tells apart with [`TornadoProfile`]'s `PartialEq`.
type LiveCodes = BTreeMap<(usize, u64, &'static str), Vec<Weak<Cascade>>>;

/// Every cascade some [`TornadoCode`] in this process currently holds.
static LIVE_CODES: Mutex<LiveCodes> = Mutex::new(BTreeMap::new());

fn registry() -> MutexGuard<'static, LiveCodes> {
    // A panic under this lock can only come from an allocation inside one
    // map operation, and those leave the map valid: a poisoned registry is
    // still a correct one.
    LIVE_CODES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The live cascade for `(k, profile, seed)`, built first if there is none.
fn shared_cascade(k: usize, profile: TornadoProfile, seed: u64) -> Result<Arc<Cascade>> {
    let key = (k, seed, profile.name);
    let find = |codes: &LiveCodes| {
        let mut live = codes.get(&key)?.iter().filter_map(Weak::upgrade);
        live.find(|cascade| *cascade.profile() == profile)
    };
    if let Some(cascade) = find(&registry()) {
        return Ok(cascade);
    }
    // No lock is held here: an error registers nothing, and a long build
    // blocks nobody.
    let built = Arc::new(Cascade::build(k, profile, seed)?);
    let mut codes = registry();
    if let Some(raced) = find(&codes) {
        return Ok(raced);
    }
    codes.retain(|_, bucket| {
        bucket.retain(|cascade| cascade.strong_count() > 0);
        !bucket.is_empty()
    });
    codes.entry(key).or_default().push(Arc::downgrade(&built));
    Ok(built)
}

/// A Tornado erasure code with fixed `k`, stretch factor and graph structure.
///
/// The cascade is held behind an [`Arc`], so cloning a `TornadoCode` — or
/// creating a decoder with [`TornadoCode::decoder`] or
/// [`TornadoCode::symbolic_decoder`] — shares the graph structure instead of
/// copying it, and so does building
/// the same `(k, profile, seed)` again while this one is alive (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct TornadoCode {
    cascade: Arc<Cascade>,
}

impl TornadoCode {
    /// The code for an explicit profile: the process's live cascade for
    /// `(k, profile, seed)` when some holder keeps one alive, a freshly built
    /// one otherwise.
    ///
    /// # Errors
    ///
    /// See [`Cascade::build`].
    pub fn with_profile(k: usize, profile: TornadoProfile, seed: u64) -> Result<Self> {
        Ok(TornadoCode {
            cascade: shared_cascade(k, profile, seed)?,
        })
    }

    /// Build a Tornado A code (fast decoding, ≈ 5 % average overhead).
    ///
    /// # Errors
    ///
    /// See [`Cascade::build`].
    pub fn new_a(k: usize, seed: u64) -> Result<Self> {
        Self::with_profile(k, TORNADO_A, seed)
    }

    /// Build a Tornado B code (denser graphs, ≈ 3 % average overhead).
    ///
    /// # Errors
    ///
    /// See [`Cascade::build`].
    pub fn new_b(k: usize, seed: u64) -> Result<Self> {
        Self::with_profile(k, TORNADO_B, seed)
    }

    /// Number of source packets.
    pub fn k(&self) -> usize {
        self.cascade.k()
    }

    /// Total number of encoding packets (`n = c·k`).
    pub fn n(&self) -> usize {
        self.cascade.n()
    }

    /// Stretch factor `n / k`.
    pub fn stretch_factor(&self) -> f64 {
        self.n() as f64 / self.k() as f64
    }

    /// The underlying cascade structure.
    pub fn cascade(&self) -> &Cascade {
        &self.cascade
    }

    /// A shared handle to the cascade, for decoders (or sessions) that must
    /// outlive this `TornadoCode` value.
    pub fn shared_cascade(&self) -> Arc<Cascade> {
        Arc::clone(&self.cascade)
    }

    /// The exact payload length a well-formed encoding packet `index` carries
    /// when the source was split into `packet_size`-byte packets.
    ///
    /// This is `packet_size` for every packet except one corner: a GF(2^16)
    /// final code with an *odd* `packet_size` pads its check packets by two
    /// bytes (one padding byte to reach 16-bit alignment plus one odd-length
    /// marker byte — see [`FinalCode`](crate::FinalCode)).  Protocol layers
    /// should validate received payload lengths against this instead of
    /// re-deriving the codec's padding rules; `StoreShape::row_len` is the
    /// rule itself, shared with the decoder's store and the [`Encoding`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= n`.
    pub fn expected_payload_len(&self, index: usize, packet_size: usize) -> usize {
        assert!(
            index < self.n(),
            "packet index {index} out of range for n = {}",
            self.n()
        );
        StoreShape::of(&self.cascade).row_len(index, packet_size)
    }

    /// The profile this code was built from.
    pub fn profile(&self) -> &TornadoProfile {
        self.cascade.profile()
    }

    /// Encode `k` source packets into `n` encoding packets (systematic): a
    /// thin wrapper over [`Self::encode_file`] for callers that hold
    /// packets, which are copied into one file and the rows copied out.
    /// ROADMAP item 1(d) retires it with its last caller.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TornadoError::MalformedInput`] unless `source` is
    /// `k` non-empty packets of one length.
    pub fn encode(&self, source: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let (file, packet_size) = crate::encode::concat_packets(source)?;
        let encoding = self.encode_file(&file, packet_size)?;
        Ok(encoding.rows().map(<[u8]>::to_vec).collect())
    }

    /// Encode a file cut into `packet_size`-byte packets into one
    /// [`Encoding`]: the file copied once, then every check row.
    ///
    /// # Errors
    ///
    /// See [`crate::encode::encode_file`].
    pub fn encode_file(&self, data: &[u8], packet_size: usize) -> Result<Encoding> {
        crate::encode::encode_file(&self.cascade, data, packet_size)
    }

    /// Create an incremental payload decoder.  It shares this code's
    /// cascade, so it is not tied to this `TornadoCode`'s lifetime.
    pub fn decoder(&self) -> PayloadDecoder {
        PayloadDecoder::new(self.shared_cascade())
    }

    /// Create an index-only decoder for reception simulations.
    pub fn symbolic_decoder(&self) -> SymbolicDecoder {
        SymbolicDecoder::new(self.shared_cascade())
    }

    /// Batch decode: reconstruct the source from `(index, payload)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TornadoError::NeedMorePackets`] if the supplied set is
    /// insufficient (the caller should gather more packets and retry), or
    /// other errors for malformed input.
    pub fn decode(&self, received: &[(usize, Vec<u8>)]) -> Result<Vec<Vec<u8>>> {
        let mut decoder = self.decoder();
        let mut accepted = 0;
        for (idx, payload) in received {
            // By reference: only packets that advance decoding are cloned.
            if decoder.add_packet_ref(*idx, payload)? != AddOutcome::Duplicate {
                accepted += 1;
            }
        }
        match decoder.source() {
            Some(src) => Ok(src),
            None => Err(crate::TornadoError::NeedMorePackets {
                received: accepted,
                k: self.k(),
            }),
        }
    }

    /// Run one reception-overhead trial: present the encoding packets in a
    /// uniformly random order and report the overhead `ε` at which the source
    /// became decodable (the quantity plotted in Figure 2 of the paper).
    ///
    /// The overhead counts every packet pulled from the stream until the
    /// decoder completed, exactly as a client listening to a carousel would
    /// experience it.
    pub fn overhead_trial<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut order: Vec<usize> = (0..self.n()).collect();
        order.shuffle(rng);
        let mut dec = self.symbolic_decoder();
        let received = dec
            .run_until_complete(order)
            .expect("the complete encoding always decodes");
        let reception = Reception {
            received,
            distinct: received,
            k: self.k(),
        };
        reception.reception_overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn profile_constructors() {
        let a = TornadoCode::new_a(500, 1).unwrap();
        let b = TornadoCode::new_b(500, 1).unwrap();
        assert_eq!(a.profile().name, "tornado-a");
        assert_eq!(b.profile().name, "tornado-b");
        assert_eq!(a.k(), 500);
        assert_eq!(a.n(), 1000);
        assert!((a.stretch_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn batch_decode_reports_insufficient_packets() {
        let code = TornadoCode::new_a(200, 2).unwrap();
        let src: Vec<Vec<u8>> = (0..200u8).map(|i| vec![i; 10]).collect();
        let enc = code.encode(&src).unwrap();
        // Far too few packets, a fifth of them twice: the error counts the
        // distinct ones.
        let few: Vec<(usize, Vec<u8>)> =
            (0..100).chain(0..20).map(|i| (i, enc[i].clone())).collect();
        assert!(matches!(
            code.decode(&few),
            Err(crate::TornadoError::NeedMorePackets {
                received: 100,
                k: 200
            })
        ));
        // The whole encoding always decodes.
        let all: Vec<(usize, Vec<u8>)> = enc.iter().cloned().enumerate().collect();
        assert_eq!(code.decode(&all).unwrap(), src);
    }

    #[test]
    fn the_packet_form_takes_k_packets_of_one_length_only() {
        let code = TornadoCode::new_a(3, 4).unwrap();
        let packets = |lens: &[usize]| -> Vec<Vec<u8>> {
            lens.iter().map(|&len| vec![len as u8; len]).collect()
        };
        assert!(code.encode(&packets(&[8, 8, 8])).is_ok());
        assert!(code.encode(&packets(&[8, 8])).is_err());
        assert!(code.encode(&packets(&[8, 8, 7])).is_err());
        assert!(code.encode(&packets(&[0, 0, 0])).is_err());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn overhead_trials_are_reasonable() {
        let code = TornadoCode::new_a(1000, 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..5 {
            let eps = code.overhead_trial(&mut rng);
            assert!(eps >= 0.0);
            assert!(eps < 0.3, "overhead {eps} far outside the expected band");
        }
    }

    #[test]
    fn a_decoder_outlives_its_code() {
        let code = TornadoCode::new_a(300, 4).unwrap();
        let src: Vec<Vec<u8>> = (0..300u16).map(|i| i.to_le_bytes().repeat(8)).collect();
        let enc = code.encode(&src).unwrap();
        let mut decoder = code.decoder();
        // The decoder keeps working after the code itself is gone.
        drop(code);
        for (i, p) in enc.iter().enumerate().rev() {
            if decoder.add_packet_ref(i, p).unwrap() == AddOutcome::Complete {
                break;
            }
        }
        assert_eq!(decoder.source().unwrap(), src);
    }

    #[test]
    fn expected_payload_len_covers_the_odd_gf16_corner() {
        // Tornado B at this size has a GF(2^16) final block; with an odd
        // packet size its check packets carry two extra bytes.
        let b = TornadoCode::new_b(4000, 7).unwrap();
        assert!(matches!(
            b.cascade().final_code(),
            crate::FinalCode::Large(_)
        ));
        let rs = b.cascade().rs_offset();
        assert_eq!(b.expected_payload_len(0, 499), 499);
        assert_eq!(b.expected_payload_len(rs - 1, 499), 499);
        assert_eq!(b.expected_payload_len(rs, 499), 501);
        assert_eq!(b.expected_payload_len(b.n() - 1, 499), 501);
        // Even packet sizes never pad.
        assert_eq!(b.expected_payload_len(rs, 500), 500);
        // Tornado A keeps a GF(2^8) final block: no padding even when odd.
        let a = TornadoCode::new_a(4000, 7).unwrap();
        assert!(matches!(
            a.cascade().final_code(),
            crate::FinalCode::Small(_)
        ));
        assert_eq!(a.expected_payload_len(a.n() - 1, 499), 499);
    }

    /// Live cascades registered under one key.  Each test below uses a key no
    /// other test builds, so the parallel test threads cannot move its count.
    fn live_codes(key: (usize, u64, &'static str)) -> usize {
        registry().get(&key).map_or(0, |bucket| {
            bucket.iter().filter(|c| c.strong_count() > 0).count()
        })
    }

    #[test]
    fn the_same_key_shares_one_cascade_and_any_other_key_does_not() {
        let code = TornadoCode::new_a(611, 0xC0DE).unwrap();
        let again = TornadoCode::with_profile(611, TORNADO_A, 0xC0DE).unwrap();
        assert!(Arc::ptr_eq(&code.cascade, &again.cascade));
        assert!(std::ptr::eq(code.cascade(), code.decoder().cascade()));
        assert_eq!(live_codes((611, 0xC0DE, TORNADO_A.name)), 1);

        let distinct = |other: TornadoCode| {
            assert!(!Arc::ptr_eq(&code.cascade, &other.cascade));
            other
        };
        let _k = distinct(TornadoCode::new_a(612, 0xC0DE).unwrap());
        let _seed = distinct(TornadoCode::new_a(611, 0xC0DF).unwrap());
        // Every profile field is part of the key, the ones `name` does not
        // imply included: each variant below keeps the name "tornado-a".
        let variants = [
            TornadoProfile {
                distribution: crate::DegreeDistribution::heavy_tail(9),
                ..TORNADO_A
            },
            TornadoProfile {
                check_side: crate::CheckSide::Poisson,
                ..TORNADO_A
            },
            TornadoProfile {
                stretch_factor: 2.5,
                ..TORNADO_A
            },
            TornadoProfile {
                final_level_threshold: 300,
                ..TORNADO_A
            },
            TornadoProfile {
                final_level_divisor: 2,
                ..TORNADO_A
            },
            TornadoProfile {
                prefer_gf8_final: false,
                ..TORNADO_A
            },
        ];
        let held: Vec<TornadoCode> = variants
            .iter()
            .map(|&p| distinct(TornadoCode::with_profile(611, p, 0xC0DE).unwrap()))
            .collect();
        // One entry each: no two of them met in the registry either.
        assert_eq!(live_codes((611, 0xC0DE, TORNADO_A.name)), 1 + held.len());
        let _b = distinct(TornadoCode::new_b(611, 0xC0DE).unwrap());
        assert_eq!(live_codes((611, 0xC0DE, TORNADO_B.name)), 1);
    }

    #[test]
    fn a_registered_cascade_dies_with_its_last_holder() {
        let key = (733, 0xDEAD, TORNADO_A.name);
        assert_eq!(live_codes(key), 0);
        let code = TornadoCode::new_a(733, 0xDEAD).unwrap();
        let decoder = code.decoder();
        let clone = code.clone();
        assert_eq!(live_codes(key), 1);
        drop(code);
        drop(clone);
        // A decoder is a holder like any other.
        assert_eq!(live_codes(key), 1);
        assert!(std::ptr::eq(
            decoder.cascade(),
            TornadoCode::new_a(733, 0xDEAD).unwrap().cascade()
        ));
        drop(decoder);
        assert_eq!(live_codes(key), 0);
        // The next construction is a fresh build, and the dead entry it finds
        // is swept rather than kept beside it.
        let rebuilt = TornadoCode::new_a(733, 0xDEAD).unwrap();
        assert_eq!(registry().get(&key).map(Vec::len), Some(1));
        drop(rebuilt);
        assert_eq!(live_codes(key), 0);
    }

    #[test]
    fn concurrent_constructions_of_one_key_agree() {
        const THREADS: usize = 8;
        let start = std::sync::Barrier::new(THREADS);
        let codes: Vec<TornadoCode> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        TornadoCode::new_a(877, 0xFACE)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("no constructor panics").unwrap())
                .collect()
        });
        let reference = Cascade::build(877, TORNADO_A, 0xFACE).unwrap();
        for code in &codes {
            assert_eq!(code.n(), reference.n());
            assert_eq!(code.cascade().level_sizes(), reference.level_sizes());
            assert_eq!(code.cascade().graphs()[0], reference.graphs()[0]);
        }
        // Racing misses each built, but only the first registered: everyone
        // left holding the same cascade.
        assert!(codes
            .iter()
            .all(|c| Arc::ptr_eq(&c.cascade, &codes[0].cascade)));
        assert_eq!(live_codes((877, 0xFACE, TORNADO_A.name)), 1);
    }

    #[test]
    fn a_failed_build_registers_nothing() {
        assert!(TornadoCode::new_a(0, 0xBAD).is_err());
        let flat = TornadoProfile {
            stretch_factor: 1.0,
            ..TORNADO_A
        };
        assert!(TornadoCode::with_profile(100, flat, 0xBAD).is_err());
        let codes = registry();
        assert!(!codes.contains_key(&(0, 0xBAD, TORNADO_A.name)));
        assert!(!codes.contains_key(&(100, 0xBAD, TORNADO_A.name)));
    }

    #[test]
    fn deterministic_construction() {
        let a = TornadoCode::new_a(300, 9).unwrap();
        let b = TornadoCode::new_a(300, 9).unwrap();
        let src: Vec<Vec<u8>> = (0..300u16).map(|i| i.to_le_bytes().to_vec()).collect();
        assert_eq!(a.encode(&src).unwrap(), b.encode(&src).unwrap());
    }
}

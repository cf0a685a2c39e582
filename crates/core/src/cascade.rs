//! The cascade structure of a Tornado code: a series of random bipartite
//! graphs whose last level is protected by a conventional (Cauchy
//! Reed–Solomon) erasure code, exactly as sketched in Figure 1 of the paper.
//!
//! With stretch factor `c` and `β = (c − 1)/c`, level 0 holds the `k` source
//! packets, level `i+1` holds `⌈β · |level i|⌉` check packets (each the XOR of
//! its neighbours in level `i`), and the cascade stops once a level is small
//! enough that a quadratic-time MDS code over it is cheap; the remaining
//! redundancy budget becomes that code's check packets.  The total number of
//! encoding packets is exactly `n = ⌈c · k⌉`.
//!
//! The whole structure is derived deterministically from
//! `(k, profile, seed)`, so a sender only has to communicate those scalars for
//! a receiver to rebuild the same graphs — this is how "the source and the
//! clients have agreed to the graph structure in advance" (Section 5.1).

use crate::error::{Result, TornadoError};
use crate::graph::BipartiteGraph;
use crate::profile::TornadoProfile;
use df_gf::GF65536;
use df_rs::{CauchyCode, ErasureCode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Identifies where a global encoding-packet index lives in the cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketRole {
    /// A packet of cascade level `level` (0 = source data), at position
    /// `pos` within that level.
    Level {
        /// Cascade level index.
        level: usize,
        /// Position within the level.
        pos: usize,
    },
    /// A check packet of the final Reed–Solomon code, at position `pos`
    /// among the RS check packets.
    RsCheck {
        /// Position among the RS check packets.
        pos: usize,
    },
}

/// Largest final-code block (last level + its checks) that still fits in
/// GF(2^8) — the field order, since the Cauchy construction needs `n`
/// distinct field points.
const GF8_FINAL_MAX: usize = 256;

/// The final conventional code protecting the last cascade level.
///
/// Small codes (≤ 256 packets) use GF(2^8); larger ones GF(2^16).  GF(2^16)
/// works on 16-bit elements, so for odd packet lengths the `Large` variant
/// transparently pads: level packets get one zero byte during encode/decode,
/// and each transmitted check packet carries one extra padding byte plus a
/// trailing zero marker byte (making check packets two bytes longer, and —
/// crucially — of *odd* total length, so a decoder holding only check packets
/// can still reconstruct the original packet length unambiguously: even-length
/// checks mean an even-length block, odd-length checks mean `len + 2`).
#[derive(Debug, Clone)]
pub enum FinalCode {
    /// GF(2^8) Cauchy code, used when the final block fits in 256 packets.
    Small(CauchyCode),
    /// GF(2^16) Cauchy code for larger final blocks.  Odd packet lengths are
    /// handled by the padding scheme described on the type.
    Large(CauchyCode<GF65536>),
}

impl FinalCode {
    pub(crate) fn build(k: usize, n: usize) -> Result<Self> {
        if n <= 256 {
            Ok(FinalCode::Small(CauchyCode::new(k, n).map_err(|e| {
                TornadoError::FinalLevelCode(e.to_string())
            })?))
        } else if n <= 65_536 {
            Ok(FinalCode::Large(CauchyCode::new_large(k, n).map_err(
                |e| TornadoError::FinalLevelCode(e.to_string()),
            )?))
        } else {
            Err(TornadoError::InvalidParameters {
                reason: format!(
                    "final Reed-Solomon block of {n} packets exceeds GF(2^16) capacity"
                ),
            })
        }
    }

    /// Number of source packets of the final code (= size of the last cascade
    /// level).
    pub fn k(&self) -> usize {
        match self {
            FinalCode::Small(c) => c.k(),
            FinalCode::Large(c) => c.k(),
        }
    }

    /// Total packets of the final code (last level + its check packets).
    pub fn n(&self) -> usize {
        match self {
            FinalCode::Small(c) => c.n(),
            FinalCode::Large(c) => c.n(),
        }
    }

    /// Encode the last cascade level, returning only the check packets.
    ///
    /// The systematic prefix is split off (buffers moved, not copied).  For a
    /// GF(2^16) final code and odd packet lengths, level packets are padded
    /// with one zero byte before encoding and each check packet is returned
    /// with an additional trailing zero marker byte (total length `len + 2`,
    /// odd); see the type-level docs for why.
    pub fn encode_checks(&self, level: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let len = level.first().map(|p| p.len()).unwrap_or(0);
        let mut full = match self {
            FinalCode::Small(c) => c.encode(level)?,
            FinalCode::Large(c) if len.is_multiple_of(2) => c.encode(level)?,
            FinalCode::Large(c) => {
                let padded: Vec<Vec<u8>> = level
                    .iter()
                    .map(|p| {
                        let mut q = Vec::with_capacity(p.len() + 2);
                        q.extend_from_slice(p);
                        q.push(0);
                        q
                    })
                    .collect();
                let mut enc = c.encode(&padded)?;
                for check in &mut enc[self.k()..] {
                    check.push(0);
                }
                enc
            }
        };
        Ok(full.split_off(self.k()))
    }

    /// Recover the full last level from any `k` of its `n` packets.
    ///
    /// `received` uses indices local to the final block: `0..k` are last-level
    /// packets, `k..n` are its check packets.
    pub fn decode(&self, received: &[(usize, Vec<u8>)]) -> Result<Vec<Vec<u8>>> {
        let refs: Vec<(usize, &[u8])> = received
            .iter()
            .map(|(idx, payload)| (*idx, payload.as_slice()))
            .collect();
        self.decode_ref(&refs)
    }

    /// Borrowing variant of [`FinalCode::decode`]: payloads are copied at most
    /// once, into their decoded positions.
    ///
    /// Handles the odd-length padding scheme of [`FinalCode::encode_checks`]
    /// transparently: level packets are re-padded, check packets have their
    /// marker byte stripped, and the decoded level is truncated back to the
    /// original packet length.
    pub fn decode_ref(&self, received: &[(usize, &[u8])]) -> Result<Vec<Vec<u8>>> {
        let c = match self {
            FinalCode::Small(c) => return Ok(c.decode_ref(received)?),
            FinalCode::Large(c) => c,
        };
        // Reconstruct the level-packet length: directly from any level packet
        // (local index < k), else from a check packet — whose length is `len`
        // for even-length blocks and `len + 2` (odd) for padded odd-length
        // blocks, so the parity of the check length disambiguates.
        let k = c.k();
        let len = match (received.iter().find(|&&(idx, _)| idx < k), received.first()) {
            (Some(&(_, p)), _) => Some(p.len()),
            (None, Some(&(idx, p))) if p.len() % 2 == 1 => {
                // An odd check length means `level_len + 2`; anything shorter
                // than the marker scheme allows is a corrupt packet, not a
                // decodable block.
                let Some(l) = p.len().checked_sub(2) else {
                    return Err(TornadoError::MalformedInput {
                        reason: format!(
                            "final-block check packet {idx} has length {}, \
                             too short for the odd-length marker scheme",
                            p.len()
                        ),
                    });
                };
                Some(l)
            }
            (None, Some(&(_, p))) => Some(p.len()),
            (None, None) => None,
        };
        let Some(len) = len else {
            // No packets at all: let the inner decoder report NotEnoughPackets.
            return Ok(c.decode_ref(received)?);
        };
        if len % 2 == 0 {
            return Ok(c.decode_ref(received)?);
        }
        // Odd-length block: normalize everything to `len + 1`, decode, strip.
        let padded_len = len + 1;
        for &(idx, p) in received {
            let expect = if idx < k { len } else { len + 2 };
            if p.len() != expect {
                return Err(TornadoError::MalformedInput {
                    reason: format!(
                        "final-block packet {idx} has length {}, expected {expect}",
                        p.len()
                    ),
                });
            }
        }
        let padded_levels: Vec<Vec<u8>> = received
            .iter()
            .filter(|&&(idx, _)| idx < k)
            .map(|&(_, p)| {
                let mut q = Vec::with_capacity(padded_len);
                q.extend_from_slice(p);
                q.push(0);
                q
            })
            .collect();
        let mut level_i = 0;
        let refs: Vec<(usize, &[u8])> = received
            .iter()
            .map(|&(idx, p)| {
                if idx < k {
                    let r = (idx, padded_levels[level_i].as_slice());
                    level_i += 1;
                    r
                } else {
                    (idx, &p[..padded_len])
                }
            })
            .collect();
        let mut out = c.decode_ref(&refs)?;
        for p in &mut out {
            p.truncate(len);
        }
        Ok(out)
    }
}

/// The full cascade: level sizes, bipartite graphs and the final code.
#[derive(Debug, Clone)]
pub struct Cascade {
    k: usize,
    n: usize,
    profile: TornadoProfile,
    seed: u64,
    /// Sizes of levels 0..=m (level 0 is the source data).
    level_sizes: Vec<usize>,
    /// Global index of the first packet of each level.
    level_offsets: Vec<usize>,
    /// `graphs[i]` connects level `i` (left) to level `i + 1` (right).
    graphs: Vec<BipartiteGraph>,
    /// Left degree of every check node, levels 1.. in order: the
    /// unknown-neighbour counts a decoder starts from.
    check_degrees: Vec<u32>,
    /// Final code over the last level.
    final_code: FinalCode,
    /// Global index of the first final-code check packet.
    rs_offset: usize,
}

impl Cascade {
    /// Build the cascade for `k` source packets under `profile`, seeding all
    /// graph randomness from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::InvalidParameters`] if `k == 0`, the stretch
    /// factor is not greater than 1, or the final block would not fit in
    /// GF(2^16).
    pub fn build(k: usize, profile: TornadoProfile, seed: u64) -> Result<Self> {
        if k == 0 {
            return Err(TornadoError::InvalidParameters {
                reason: "k must be positive".to_string(),
            });
        }
        if profile.stretch_factor <= 1.0 {
            return Err(TornadoError::InvalidParameters {
                reason: format!(
                    "stretch factor must exceed 1, got {}",
                    profile.stretch_factor
                ),
            });
        }
        let n = (k as f64 * profile.stretch_factor).round() as usize;
        let redundancy = n - k;
        if redundancy == 0 {
            return Err(TornadoError::InvalidParameters {
                reason: "stretch factor leaves no room for redundancy".to_string(),
            });
        }
        let beta = (profile.stretch_factor - 1.0) / profile.stretch_factor;
        let threshold = profile.final_threshold_for(k);

        // Choose level sizes.  We keep adding cascade levels while the current
        // level is still above the threshold and enough redundancy budget
        // remains for the final code to have at least as many check packets as
        // would keep its rate at or below the cascade's.
        //
        // When the profile prefers a GF(2^8) final code, cascading continues
        // past the threshold until the final block (last level plus the
        // remaining check budget) fits in 256 packets, the largest code
        // GF(2^8) can address.  The budget guard (`remaining > next`) still
        // applies, so a profile whose threshold demands a large final block —
        // or a stretch factor that leaves no room for further levels — falls
        // back to GF(2^16) rather than starving the final code.
        let mut level_sizes = vec![k];
        let mut remaining = redundancy;
        loop {
            let cur = *level_sizes.last().expect("at least the source level");
            let want_more =
                cur > threshold || (profile.prefer_gf8_final && cur + remaining > GF8_FINAL_MAX);
            if !want_more {
                break;
            }
            let next = ((cur as f64) * beta).ceil() as usize;
            if next == 0 || remaining <= next {
                break;
            }
            level_sizes.push(next);
            remaining -= next;
        }
        let last = *level_sizes.last().expect("at least the source level");
        let rs_checks = remaining;
        let final_code = FinalCode::build(last, last + rs_checks)?;

        // Offsets: levels first, then RS checks.
        let mut level_offsets = Vec::with_capacity(level_sizes.len());
        let mut acc = 0;
        for &s in &level_sizes {
            level_offsets.push(acc);
            acc += s;
        }
        let rs_offset = acc;
        debug_assert_eq!(rs_offset + rs_checks, n);

        // Graphs, one per adjacent pair of levels, all derived from the seed.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut graphs = Vec::with_capacity(level_sizes.len().saturating_sub(1));
        for w in level_sizes.windows(2) {
            graphs.push(BipartiteGraph::random(
                w[0],
                w[1],
                &profile.distribution,
                profile.check_side,
                &mut rng,
            ));
        }

        let check_degrees = graphs
            .iter()
            .flat_map(|graph| (0..graph.right()).map(|pos| graph.check_neighbors(pos).len() as u32))
            .collect();

        Ok(Cascade {
            k,
            n,
            profile,
            seed,
            level_sizes,
            level_offsets,
            graphs,
            check_degrees,
            final_code,
            rs_offset,
        })
    }

    /// Number of source packets.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of encoding packets.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The profile the cascade was built from.
    pub fn profile(&self) -> &TornadoProfile {
        &self.profile
    }

    /// The seed the graphs were derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sizes of the cascade levels (level 0 = source data).
    pub fn level_sizes(&self) -> &[usize] {
        &self.level_sizes
    }

    /// The bipartite graphs; `graphs()[i]` connects level `i` to level `i+1`.
    pub fn graphs(&self) -> &[BipartiteGraph] {
        &self.graphs
    }

    /// Number of left neighbours of every check node (the packets of levels
    /// 1.., in global-index order).  Computed once at build time so that a
    /// decoder's initial state is a copy of this, not a walk of the graphs.
    pub(crate) fn check_degrees(&self) -> &[u32] {
        &self.check_degrees
    }

    /// The final conventional code.
    pub fn final_code(&self) -> &FinalCode {
        &self.final_code
    }

    /// Number of check packets produced by the final code.
    pub fn rs_checks(&self) -> usize {
        self.n - self.rs_offset
    }

    /// Global index of the first final-code check packet.
    pub fn rs_offset(&self) -> usize {
        self.rs_offset
    }

    /// Global index of the first packet of `level`.
    pub fn level_offset(&self, level: usize) -> usize {
        self.level_offsets[level]
    }

    /// Number of cascade levels, including the source level.
    pub fn num_levels(&self) -> usize {
        self.level_sizes.len()
    }

    /// Classify a global encoding-packet index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n`.
    pub fn role(&self, index: usize) -> PacketRole {
        assert!(index < self.n, "packet index {index} out of range");
        if index >= self.rs_offset {
            return PacketRole::RsCheck {
                pos: index - self.rs_offset,
            };
        }
        // Levels are contiguous; binary search over offsets.
        let level = match self.level_offsets.binary_search(&index) {
            Ok(l) => l,
            Err(ins) => ins - 1,
        };
        PacketRole::Level {
            level,
            pos: index - self.level_offsets[level],
        }
    }

    /// Global index of the packet at `pos` within `level`.
    pub fn global_index(&self, level: usize, pos: usize) -> usize {
        debug_assert!(pos < self.level_sizes[level]);
        self.level_offsets[level] + pos
    }

    /// Global index of final-code check packet `pos`.
    pub fn rs_check_index(&self, pos: usize) -> usize {
        debug_assert!(pos < self.rs_checks());
        self.rs_offset + pos
    }

    /// Average number of XOR operations per source packet implied by the
    /// cascade graphs — the quantity behind the `(k + ℓ) ln(1/ε) P` running
    /// time in Table 1.
    pub fn average_xor_cost(&self) -> f64 {
        let total_edges: usize = self.graphs.iter().map(|g| g.edges()).sum();
        total_edges as f64 / self.k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{TORNADO_A, TORNADO_B};
    use proptest::prelude::*;

    #[test]
    fn total_packet_count_is_exactly_stretch_times_k() {
        for k in [100usize, 250, 1000, 2000, 8264, 16_384] {
            let c = Cascade::build(k, TORNADO_A, 1).unwrap();
            assert_eq!(c.n(), 2 * k, "k = {k}");
            let sum: usize = c.level_sizes().iter().sum::<usize>() + c.rs_checks();
            assert_eq!(sum, c.n());
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn level_sizes_shrink_geometrically() {
        let c = Cascade::build(10_000, TORNADO_A, 2).unwrap();
        let sizes = c.level_sizes();
        assert!(
            sizes.len() >= 3,
            "a 10k-packet file should cascade, got {sizes:?}"
        );
        for w in sizes.windows(2) {
            let ratio = w[1] as f64 / w[0] as f64;
            assert!((ratio - 0.5).abs() < 0.01, "levels {w:?} not halving");
        }
    }

    #[test]
    fn small_files_degenerate_to_pure_rs() {
        let c = Cascade::build(50, TORNADO_A, 3).unwrap();
        assert_eq!(c.num_levels(), 1);
        assert_eq!(c.graphs().len(), 0);
        assert_eq!(c.final_code().k(), 50);
        assert_eq!(c.final_code().n(), 100);
    }

    #[test]
    fn roles_partition_the_index_space() {
        let c = Cascade::build(3000, TORNADO_A, 4).unwrap();
        let mut level_counts = vec![0usize; c.num_levels()];
        let mut rs_count = 0usize;
        for i in 0..c.n() {
            match c.role(i) {
                PacketRole::Level { level, pos } => {
                    assert!(pos < c.level_sizes()[level]);
                    assert_eq!(c.global_index(level, pos), i);
                    level_counts[level] += 1;
                }
                PacketRole::RsCheck { pos } => {
                    assert_eq!(c.rs_check_index(pos), i);
                    rs_count += 1;
                }
            }
        }
        assert_eq!(level_counts, c.level_sizes());
        assert_eq!(rs_count, c.rs_checks());
    }

    #[test]
    fn graphs_match_level_sizes() {
        let c = Cascade::build(5000, TORNADO_B, 5).unwrap();
        assert_eq!(c.graphs().len(), c.num_levels() - 1);
        for (i, g) in c.graphs().iter().enumerate() {
            assert_eq!(g.left(), c.level_sizes()[i]);
            assert_eq!(g.right(), c.level_sizes()[i + 1]);
        }
    }

    #[test]
    fn check_degrees_follow_the_graphs_in_global_index_order() {
        let c = Cascade::build(5000, TORNADO_A, 6).unwrap();
        assert!(c.num_levels() > 2, "premise: more than one graph");
        assert_eq!(c.check_degrees().len(), c.rs_offset() - c.level_offset(1));
        for (level, graph) in c.graphs().iter().enumerate() {
            let base = c.level_offset(level + 1) - c.level_offset(1);
            for pos in 0..graph.right() {
                assert_eq!(
                    c.check_degrees()[base + pos] as usize,
                    graph.check_neighbors(pos).len()
                );
            }
        }
    }

    #[test]
    fn deterministic_in_seed_and_profile() {
        let a = Cascade::build(2000, TORNADO_A, 77).unwrap();
        let b = Cascade::build(2000, TORNADO_A, 77).unwrap();
        assert_eq!(a.level_sizes(), b.level_sizes());
        assert_eq!(a.graphs(), b.graphs());
        let c = Cascade::build(2000, TORNADO_A, 78).unwrap();
        assert_ne!(a.graphs(), c.graphs());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Cascade::build(0, TORNADO_A, 0).is_err());
        let mut p = TORNADO_A;
        p.stretch_factor = 1.0;
        assert!(Cascade::build(100, p, 0).is_err());
        p.stretch_factor = 0.5;
        assert!(Cascade::build(100, p, 0).is_err());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn final_block_stays_comfortably_decodable() {
        // The final code must keep at least as many checks as a rate-1/2 code
        // would need, otherwise the top of the cascade becomes the overhead
        // bottleneck.
        for k in [1000usize, 4000, 16_384, 65_536] {
            let c = Cascade::build(k, TORNADO_A, 9).unwrap();
            let fk = c.final_code().k() as f64;
            let checks = c.rs_checks() as f64;
            assert!(
                checks >= 0.8 * fk,
                "k = {k}: final level {fk} packets but only {checks} checks"
            );
        }
    }

    #[test]
    fn truncated_odd_check_packet_errors_instead_of_panicking() {
        // A 1-byte check packet is shorter than the odd-length marker scheme
        // allows; length inference must reject it as malformed, not underflow.
        let c = Cascade::build(2000, TORNADO_B, 5).unwrap();
        assert!(c.final_code().n() > 256, "premise: GF(2^16) final");
        let k = c.final_code().k();
        let result = c.final_code().decode_ref(&[(k, &[0u8][..])]);
        assert!(matches!(result, Err(TornadoError::MalformedInput { .. })));
    }

    #[test]
    fn rs_check_count_positive() {
        for k in [1usize, 2, 3, 10, 999] {
            let c = Cascade::build(k, TORNADO_A, 11).unwrap();
            assert!(c.rs_checks() > 0, "k = {k} produced no redundancy");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_cascade_accounting(k in 1usize..20_000, seed in any::<u64>()) {
            let c = Cascade::build(k, TORNADO_A, seed).unwrap();
            prop_assert_eq!(c.k(), k);
            prop_assert_eq!(c.n(), 2 * k);
            let sum: usize = c.level_sizes().iter().sum::<usize>() + c.rs_checks();
            prop_assert_eq!(sum, c.n());
            prop_assert_eq!(c.final_code().k(), *c.level_sizes().last().unwrap());
            prop_assert_eq!(c.final_code().n(), c.final_code().k() + c.rs_checks());
        }
    }
}

//! The benchmark's own seeded generator (SplitMix64): input files, loss draws
//! and reception orders all come from `--seed` through it, so the same seed
//! gives the same inputs whatever the library's generators do.

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        // 53 uniform bits, as an f64 in [0, 1).
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform in `0..bound` (`bound` > 0; the modulo bias is far below
    /// anything a reception order can show).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn fill(&mut self, bytes: &mut [u8]) {
        let mut chunks = bytes.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Derive an independent stream seed from a seed and a stream number.
pub fn mix(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_stream_and_another_seed_another() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            let mut bytes = [0u8; 21];
            r.fill(&mut bytes);
            (bytes, r.next_u64(), r.below(1000))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(mix(7, 0), mix(7, 1));
        assert_ne!(mix(7, 0), mix(8, 0));
    }

    #[test]
    fn chance_tracks_its_probability() {
        let mut r = SplitMix64::new(1);
        let hits = (0..100_000).filter(|_| r.chance(0.1)).count();
        assert!((9_000..11_000).contains(&hits), "{hits}");
        assert!(!r.chance(0.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        SplitMix64::new(3).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}

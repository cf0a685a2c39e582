//! Spawn-time placement of sessions onto shards.
//!
//! The sharded driver moves nothing after registration — a session's slot,
//! transport and sockets live and die on one shard (work *stealing* would
//! mean migrating live sockets and multicast memberships between threads,
//! which multicast joins make observable on the wire).  That makes the
//! placement decision at add time the whole load-balancing story, and it is
//! greedy weighted least-loaded: each session carries a weight (its packet
//! count `k` for clients, `n` for servers) and lands on the currently
//! lightest shard, ties going to the lowest index.  The classic greedy
//! bound applies: shard loads stay within one maximal session weight of
//! each other, which the stress test pins down.

/// Per-shard weights and session counts, recorded as the driver registers
/// sessions.
#[derive(Debug)]
pub(crate) struct Placer {
    loads: Vec<usize>,
    counts: Vec<usize>,
}

impl Placer {
    pub(crate) fn new(shards: usize) -> Placer {
        Placer {
            loads: vec![0; shards.max(1)],
            counts: vec![0; shards.max(1)],
        }
    }

    /// Choose the lightest shard for a session carrying `weight`, and record
    /// the assignment.
    pub(crate) fn place(&mut self, weight: usize) -> usize {
        // min_by_key takes the first minimum, i.e. the lowest index.
        let shard = (0..self.loads.len())
            .min_by_key(|&s| self.loads[s])
            .unwrap_or(0);
        self.record(shard, weight);
        shard
    }

    /// Record an assignment the caller made explicitly (the `*_on` adds),
    /// keeping the load accounting honest for later `place` calls.
    pub(crate) fn record(&mut self, shard: usize, weight: usize) {
        if let Some(load) = self.loads.get_mut(shard) {
            *load += weight;
        }
        if let Some(count) = self.counts.get_mut(shard) {
            *count += 1;
        }
    }

    /// Total registered weight per shard (clients weigh their `k`, servers
    /// their `n`).
    #[cfg(test)]
    pub(crate) fn loads(&self) -> &[usize] {
        &self.loads
    }

    /// Registered session count per shard.
    pub(crate) fn counts(&self) -> &[usize] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_with_equal_weights_is_round_robin() {
        let mut placer = Placer::new(3);
        let shards: Vec<usize> = (0..9).map(|_| placer.place(10)).collect();
        assert_eq!(shards, [0, 1, 2, 0, 1, 2, 0, 1, 2]);
        assert_eq!(placer.loads(), &[30, 30, 30]);
    }

    #[test]
    fn least_loaded_skew_stays_within_one_max_weight() {
        // Adversarial skew: weights vary by 50x, arrivals are in a bad order
        // (heavy first).  Greedy least-loaded still bounds the spread by the
        // largest single weight.
        let weights = [500, 500, 10, 10, 10, 10, 250, 250, 10, 500, 10, 10];
        let mut placer = Placer::new(4);
        for &w in &weights {
            placer.place(w);
        }
        let max = *placer.loads().iter().max().unwrap();
        let min = *placer.loads().iter().min().unwrap();
        let max_weight = *weights.iter().max().unwrap();
        assert!(
            max - min <= max_weight,
            "greedy bound violated: loads {:?}, max weight {max_weight}",
            placer.loads()
        );
    }

    #[test]
    fn explicit_record_feeds_back_into_placement() {
        let mut placer = Placer::new(2);
        // Caller pins a heavy session on shard 0; the next placements must
        // see that load and prefer shard 1.
        placer.record(0, 1_000);
        assert_eq!(placer.place(10), 1);
        assert_eq!(placer.place(10), 1);
    }
}

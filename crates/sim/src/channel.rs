//! Composable hostile-channel models and the [`HostileChannel`] transport
//! decorator.
//!
//! The paper's target deployments — satellite feeds, wireless last hops,
//! congested multicast trees — do not lose packets independently: loss comes
//! in bursts, datagrams are reordered and occasionally duplicated, and
//! delivery jitters.  The wireless fountain-code studies (PAPERS.md) show
//! these are exactly the conditions under which reception-efficiency and
//! congestion-control claims must be re-checked, so this module provides the
//! apparatus: small composable [`ChannelModel`] stages (Gilbert–Elliott
//! bursty loss, bounded-displacement reordering, duplication, delay jitter)
//! and a [`HostileChannel`] decorator that applies a pipeline of them to any
//! [`Transport`]'s receive path.
//!
//! ## The delivery-fate representation
//!
//! A stage transforms the *fate* of one arriving datagram: a vector of
//! displacement offsets, one entry per copy that will be delivered, where an
//! offset of `d` means "release this copy after `d` further arrivals".  An
//! empty vector means the datagram is lost.  The representation composes:
//! loss stages clear the vector, duplication pushes entries, reordering and
//! jitter add to them — and any stage order is meaningful.
//!
//! ## The packet clock
//!
//! [`HostileChannel`] is deliberately wall-clock-free so simulations stay
//! deterministic: its clock advances by one per datagram pulled off the
//! inner transport, and a displaced copy is released once the clock passes
//! its due time.  A displaced packet therefore needs further traffic to
//! flush it out — which the paper's endless carousel guarantees — and a
//! displacement of `d` reorders the copy across at most `d` later arrivals,
//! the "bounded displacement" contract the `LayerController` accounting is
//! hardened against.

use bytes::Bytes;
use df_proto::{Readiness, Transport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::loss::{GilbertElliottLoss, LossModel};

/// One composable stage of a hostile channel.
///
/// Stages see every datagram the inner transport delivers, in arrival order,
/// and rewrite its delivery fate (see the module docs for the offset
/// representation).  Implementations advance their internal process once per
/// call, whether or not an earlier stage already dropped the datagram — a
/// Gilbert–Elliott state machine keeps burning through its sojourn times
/// even while an upstream stage is eating the traffic.
///
/// Stages are `Send` (they are plain data) so that a [`HostileChannel`] can
/// move to the `df_proto::Driver` shard that owns its session.
pub trait ChannelModel: std::fmt::Debug + Send {
    /// Rewrite the delivery fate of the next arriving datagram.
    ///
    /// `deliveries` holds one displacement offset per copy to deliver and
    /// arrives as `[0]` (deliver one copy, in order) from the decorator;
    /// clear it to drop the datagram, push to duplicate, add to displace.
    fn transform(&mut self, rng: &mut ChaCha8Rng, deliveries: &mut Vec<u64>);

    /// Completed good→bad transitions of a bursty-loss stage, if this stage
    /// models one; `0` otherwise.  [`HostileChannel::burst_episodes`] sums
    /// this across the pipeline so experiments can assert "at most one
    /// layer shed per loss burst".
    fn burst_episodes(&self) -> u64 {
        0
    }
}

/// Gilbert–Elliott two-state bursty loss as a channel stage, wrapping the
/// [`GilbertElliottLoss`] process of the Section 6 simulations.
#[derive(Debug, Clone)]
pub struct GilbertElliottChannel {
    loss: GilbertElliottLoss,
    episodes: u64,
}

impl GilbertElliottChannel {
    /// Wrap an explicit Gilbert–Elliott process.
    pub fn new(loss: GilbertElliottLoss) -> Self {
        GilbertElliottChannel { loss, episodes: 0 }
    }

    /// A stage calibrated to an average loss `target` with mean bad-state
    /// burst length `burst_len` (see [`GilbertElliottLoss::with_average`]).
    pub fn with_average(target: f64, burst_len: f64) -> Self {
        GilbertElliottChannel::new(GilbertElliottLoss::with_average(target, burst_len))
    }
}

impl ChannelModel for GilbertElliottChannel {
    fn transform(&mut self, rng: &mut ChaCha8Rng, deliveries: &mut Vec<u64>) {
        let was_bad = self.loss.in_bad_state();
        let lost = self.loss.is_lost(rng);
        if !was_bad && self.loss.in_bad_state() {
            self.episodes += 1;
        }
        if lost {
            deliveries.clear();
        }
    }

    fn burst_episodes(&self) -> u64 {
        self.episodes
    }
}

/// Packet reordering with bounded displacement: with probability `p` a
/// datagram is held back and re-inserted up to `max_displacement` arrivals
/// later.
#[derive(Debug, Clone, Copy)]
pub struct ReorderChannel {
    p: f64,
    max_displacement: u64,
}

impl ReorderChannel {
    /// Reorder each datagram with probability `p`, displacing it by
    /// `1..=max_displacement` arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `max_displacement` is zero.
    pub fn new(p: f64, max_displacement: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        assert!(max_displacement >= 1, "a reorder must displace");
        ReorderChannel {
            p,
            max_displacement,
        }
    }
}

impl ChannelModel for ReorderChannel {
    fn transform(&mut self, rng: &mut ChaCha8Rng, deliveries: &mut Vec<u64>) {
        use rand::Rng;
        for d in deliveries.iter_mut() {
            if rng.gen_bool(self.p) {
                *d += rng.gen_range(1..=self.max_displacement);
            }
        }
    }
}

/// Datagram duplication: with probability `p` one extra copy is delivered
/// immediately after the original.
#[derive(Debug, Clone, Copy)]
pub struct DuplicateChannel {
    p: f64,
}

impl DuplicateChannel {
    /// Duplicate each surviving datagram with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        DuplicateChannel { p }
    }
}

impl ChannelModel for DuplicateChannel {
    fn transform(&mut self, rng: &mut ChaCha8Rng, deliveries: &mut Vec<u64>) {
        use rand::Rng;
        if !deliveries.is_empty() && rng.gen_bool(self.p) {
            // Duplicate the first surviving copy; the (due, seq) tiebreak in
            // the decorator keeps the pair adjacent, like a duplicated
            // datagram on a real path.
            let copy = deliveries[0];
            deliveries.push(copy);
        }
    }
}

/// Uniform delay jitter: every copy is displaced by `0..=max` arrivals,
/// independently — mild, pervasive reordering as opposed to
/// [`ReorderChannel`]'s rare large displacements.
#[derive(Debug, Clone, Copy)]
pub struct JitterChannel {
    max: u64,
}

impl JitterChannel {
    /// Jitter each copy by up to `max` arrivals.
    pub fn new(max: u64) -> Self {
        JitterChannel { max }
    }
}

impl ChannelModel for JitterChannel {
    fn transform(&mut self, rng: &mut ChaCha8Rng, deliveries: &mut Vec<u64>) {
        use rand::Rng;
        if self.max == 0 {
            return;
        }
        for d in deliveries.iter_mut() {
            *d += rng.gen_range(0..=self.max);
        }
    }
}

/// Counters kept by a [`HostileChannel`], for experiment tables and test
/// assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Datagrams pulled off the inner transport.
    pub arrivals: u64,
    /// Datagrams whose pipeline fate came back empty.
    pub dropped: u64,
    /// Extra copies created by duplication stages.
    pub duplicated: u64,
    /// Copies enqueued with a nonzero displacement.
    pub displaced: u64,
    /// Copies actually handed to the caller.
    pub delivered: u64,
}

/// A [`Transport`] decorator that runs every received datagram through a
/// pipeline of [`ChannelModel`] stages — the hostile-channel counterpart of
/// a bottleneck decorator such as the private `ThrottledLink` of the
/// `layered_fountain` example.
///
/// Sends, joins, leaves and readiness pass through untouched: the decorator
/// models the receiver's downstream path.  Copies a stage displaces are held
/// in a pending queue keyed by the packet clock (see the module docs) and
/// released in `(due, arrival)` order, so an undisplaced stream comes out in
/// arrival order.
#[derive(Debug)]
pub struct HostileChannel<T: Transport> {
    inner: T,
    stages: Vec<Box<dyn ChannelModel>>,
    rng: ChaCha8Rng,
    /// Arrivals pulled off the inner transport so far — the packet clock.
    clock: u64,
    /// Monotone tiebreak so equal due times release in arrival order.
    seq: u64,
    pending: BinaryHeap<Reverse<PendingCopy>>,
    stats: ChannelStats,
}

#[derive(Debug)]
struct PendingCopy {
    due: u64,
    seq: u64,
    group: u32,
    datagram: Bytes,
}

impl PartialEq for PendingCopy {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for PendingCopy {}
impl PartialOrd for PendingCopy {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingCopy {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl<T: Transport> HostileChannel<T> {
    /// Wrap `inner`, passing every received datagram through `stages` in
    /// order.  `seed` drives all stage randomness, so a run is a pure
    /// function of `(seed, inner traffic)`.
    pub fn new(inner: T, seed: u64, stages: Vec<Box<dyn ChannelModel>>) -> Self {
        HostileChannel {
            inner,
            stages,
            rng: ChaCha8Rng::seed_from_u64(seed),
            clock: 0,
            seq: 0,
            pending: BinaryHeap::new(),
            stats: ChannelStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Completed good→bad transitions summed over every bursty-loss stage.
    pub fn burst_episodes(&self) -> u64 {
        self.stages.iter().map(|s| s.burst_episodes()).sum()
    }

    /// Copies currently held for later release.  Bounded by the pipeline's
    /// maximum displacement (every copy is due at most `max displacement`
    /// arrivals after it was enqueued).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Advance the packet clock past every held copy so subsequent
    /// [`recv`](Transport::recv) calls release the whole backlog.  Finite
    /// feeds call this once the sender is done; the endless carousel never
    /// needs it because fresh arrivals keep the clock moving.
    pub fn flush(&mut self) {
        self.ingest();
        if let Some(max_due) = self.pending.iter().map(|Reverse(c)| c.due).max() {
            self.clock = self.clock.max(max_due);
        }
    }

    /// Pull every waiting arrival off the inner transport through the
    /// pipeline into the pending queue, advancing the packet clock.
    fn ingest(&mut self) {
        while let Some((group, datagram)) = self.inner.try_recv() {
            self.clock += 1;
            self.stats.arrivals += 1;
            let mut deliveries = vec![0u64];
            for stage in &mut self.stages {
                stage.transform(&mut self.rng, &mut deliveries);
            }
            if deliveries.is_empty() {
                self.stats.dropped += 1;
                continue;
            }
            self.stats.duplicated += deliveries.len() as u64 - 1;
            for offset in deliveries {
                if offset > 0 {
                    self.stats.displaced += 1;
                }
                self.seq += 1;
                self.pending.push(Reverse(PendingCopy {
                    due: self.clock + offset,
                    seq: self.seq,
                    group,
                    datagram: datagram.clone(),
                }));
            }
        }
    }
}

impl<T: Transport> Transport for HostileChannel<T> {
    fn send(&mut self, group: u32, datagram: Bytes) {
        self.inner.send(group, datagram);
    }

    fn recv(&mut self) -> Option<(u32, Bytes)> {
        self.ingest();
        match self.pending.peek() {
            Some(Reverse(copy)) if copy.due <= self.clock => {
                let Reverse(copy) = self.pending.pop().expect("peeked entry exists");
                self.stats.delivered += 1;
                Some((copy.group, copy.datagram))
            }
            _ => None,
        }
    }

    fn readiness(&self) -> Readiness {
        self.inner.readiness()
    }

    fn join(&mut self, group: u32) -> std::io::Result<()> {
        self.inner.join(group)
    }

    fn leave(&mut self, group: u32) {
        self.inner.leave(group);
    }
}

/// Fluent construction of the common hostile-channel pipelines.
///
/// ```
/// # use df_sim::channel::HostileChannelBuilder;
/// # use df_proto::SimMulticast;
/// let net = SimMulticast::new(1);
/// let rx = HostileChannelBuilder::new(7)
///     .gilbert_elliott(0.2, 10.0)
///     .reorder(0.05, 8)
///     .duplicate(0.02)
///     .jitter(2)
///     .wrap(net.endpoint(0.0));
/// # let _ = rx;
/// ```
#[derive(Debug)]
pub struct HostileChannelBuilder {
    seed: u64,
    stages: Vec<Box<dyn ChannelModel>>,
}

impl HostileChannelBuilder {
    /// Start an empty pipeline whose stages will draw randomness from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        HostileChannelBuilder {
            seed,
            stages: Vec::new(),
        }
    }

    /// Add a Gilbert–Elliott loss stage calibrated to `target` average loss
    /// with mean burst length `burst_len`.
    pub fn gilbert_elliott(mut self, target: f64, burst_len: f64) -> Self {
        self.stages
            .push(Box::new(GilbertElliottChannel::with_average(
                target, burst_len,
            )));
        self
    }

    /// Add an arbitrary stage.
    pub fn stage(mut self, stage: Box<dyn ChannelModel>) -> Self {
        self.stages.push(stage);
        self
    }

    /// Add a reordering stage (probability `p`, displacement
    /// `1..=max_displacement`).
    pub fn reorder(mut self, p: f64, max_displacement: u64) -> Self {
        self.stages
            .push(Box::new(ReorderChannel::new(p, max_displacement)));
        self
    }

    /// Add a duplication stage.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.stages.push(Box::new(DuplicateChannel::new(p)));
        self
    }

    /// Add a jitter stage (displacement `0..=max` per copy).
    pub fn jitter(mut self, max: u64) -> Self {
        self.stages.push(Box::new(JitterChannel::new(max)));
        self
    }

    /// Wrap `inner` with the assembled pipeline.
    pub fn wrap<T: Transport>(self, inner: T) -> HostileChannel<T> {
        HostileChannel::new(inner, self.seed, self.stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_proto::SimMulticast;

    fn feed(tx: &mut df_proto::SimEndpoint, group: u32, count: usize, from: usize) {
        for i in from..from + count {
            tx.send(group, Bytes::from(i.to_be_bytes().to_vec()));
        }
    }

    fn drain<T: Transport>(rx: &mut T) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some((_g, d)) = rx.recv() {
            out.push(usize::from_be_bytes(d[..].try_into().unwrap()));
        }
        out
    }

    #[test]
    fn a_hostile_channel_can_move_to_a_driver_shard() {
        fn assert_send<T: Send>() {}
        assert_send::<HostileChannel<df_proto::SimEndpoint>>();
    }

    #[test]
    fn empty_pipeline_is_transparent_and_ordered() {
        let net = SimMulticast::new(1);
        let mut tx = net.endpoint(0.0);
        let mut rx = HostileChannelBuilder::new(9).wrap(net.endpoint(0.0));
        rx.join(5).unwrap();
        feed(&mut tx, 5, 100, 0);
        assert_eq!(drain(&mut rx), (0..100).collect::<Vec<_>>());
        let stats = rx.stats();
        assert_eq!(stats.arrivals, 100);
        assert_eq!(stats.delivered, 100);
        assert_eq!(
            (stats.dropped, stats.duplicated, stats.displaced),
            (0, 0, 0)
        );
    }

    #[test]
    fn gilbert_elliott_stage_drops_bursts_and_counts_episodes() {
        let net = SimMulticast::new(2);
        let mut tx = net.endpoint(0.0);
        let mut rx = HostileChannelBuilder::new(3)
            .gilbert_elliott(0.3, 10.0)
            .wrap(net.endpoint(0.0));
        rx.join(0).unwrap();
        feed(&mut tx, 0, 20_000, 0);
        let got = drain(&mut rx);
        let stats = rx.stats();
        assert_eq!(stats.arrivals, 20_000);
        assert_eq!(stats.dropped as usize, 20_000 - got.len());
        let rate = stats.dropped as f64 / stats.arrivals as f64;
        assert!((rate - 0.3).abs() < 0.03, "measured loss {rate}");
        let episodes = rx.burst_episodes();
        assert!(episodes > 0, "bursty loss must enter the bad state");
        // Mean burst ≈ 10 packets at 30 % loss ⇒ far fewer episodes than
        // drops: the loss is genuinely bursty, not independent.
        assert!(
            episodes < stats.dropped / 3,
            "{episodes} episodes for {} drops is not bursty",
            stats.dropped
        );
    }

    #[test]
    fn reordering_is_bounded_by_the_displacement_cap() {
        let net = SimMulticast::new(3);
        let mut tx = net.endpoint(0.0);
        const CAP: u64 = 6;
        let mut rx = HostileChannelBuilder::new(4)
            .reorder(0.3, CAP)
            .wrap(net.endpoint(0.0));
        rx.join(0).unwrap();
        feed(&mut tx, 0, 5_000, 0);
        let mut got = drain(&mut rx);
        rx.flush();
        got.extend(drain(&mut rx));
        assert_eq!(got.len(), 5_000, "reordering must not lose datagrams");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..5_000).collect::<Vec<_>>());
        assert_ne!(got, sorted, "a 30 % reorder rate must actually reorder");
        // Bounded displacement: element i never lands more than CAP
        // positions late or early.
        for (pos, &v) in got.iter().enumerate() {
            assert!(
                (pos as i64 - v as i64).unsigned_abs() <= CAP,
                "value {v} displaced to position {pos}"
            );
        }
    }

    #[test]
    fn duplication_creates_adjacent_copies() {
        let net = SimMulticast::new(4);
        let mut tx = net.endpoint(0.0);
        let mut rx = HostileChannelBuilder::new(5)
            .duplicate(0.25)
            .wrap(net.endpoint(0.0));
        rx.join(0).unwrap();
        feed(&mut tx, 0, 4_000, 0);
        let got = drain(&mut rx);
        let stats = rx.stats();
        assert_eq!(got.len() as u64, 4_000 + stats.duplicated);
        let rate = stats.duplicated as f64 / 4_000.0;
        assert!((rate - 0.25).abs() < 0.03, "measured dup rate {rate}");
        // Copies come out back to back.
        let mut dup_adjacent = 0u64;
        for w in got.windows(2) {
            if w[0] == w[1] {
                dup_adjacent += 1;
            }
        }
        assert_eq!(dup_adjacent, stats.duplicated);
    }

    #[test]
    fn displaced_copies_wait_for_the_packet_clock() {
        let net = SimMulticast::new(5);
        let mut tx = net.endpoint(0.0);
        let mut rx = HostileChannelBuilder::new(6)
            .jitter(4)
            .wrap(net.endpoint(0.0));
        rx.join(0).unwrap();
        feed(&mut tx, 0, 10, 0);
        let first = drain(&mut rx);
        // Whatever was displaced past the last arrival stays in flight until
        // more traffic advances the clock…
        assert_eq!(first.len() + rx.in_flight(), 10);
        // …and the carousel's next burst flushes it out.
        feed(&mut tx, 0, 20, 10);
        let second = drain(&mut rx);
        assert!(rx.in_flight() <= 4, "displacement cap bounds the backlog");
        let mut all: Vec<usize> = first.into_iter().chain(second).collect();
        all.sort_unstable();
        all.dedup();
        assert!(all.len() >= 26, "at most the cap may remain in flight");
    }

    #[test]
    fn hostile_channel_is_deterministic_per_seed() {
        let run = || {
            let net = SimMulticast::new(6);
            let mut tx = net.endpoint(0.0);
            let mut rx = HostileChannelBuilder::new(11)
                .gilbert_elliott(0.25, 8.0)
                .reorder(0.1, 6)
                .duplicate(0.05)
                .jitter(2)
                .wrap(net.endpoint(0.0));
            rx.join(0).unwrap();
            feed(&mut tx, 0, 3_000, 0);
            (drain(&mut rx), rx.stats(), rx.burst_episodes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sends_joins_and_leaves_pass_through() {
        let net = SimMulticast::new(7);
        let mut hostile_tx = HostileChannelBuilder::new(1).wrap(net.endpoint(0.0));
        let mut rx = net.endpoint(0.0);
        rx.join(2).unwrap();
        hostile_tx.send(2, Bytes::from_static(b"through"));
        assert_eq!(
            rx.recv().map(|(g, d)| (g, d.to_vec())),
            Some((2, b"through".to_vec()))
        );
        assert_eq!(hostile_tx.readiness(), Readiness::Polled);
        // Leave on the decorator stops delivery on the inner endpoint.
        let mut hostile_rx = HostileChannelBuilder::new(2).wrap(net.endpoint(0.0));
        hostile_rx.join(2).unwrap();
        hostile_tx.send(2, Bytes::from_static(b"a"));
        assert_eq!(hostile_rx.recv().map(|(g, _)| g), Some(2));
        hostile_rx.leave(2);
        hostile_tx.send(2, Bytes::from_static(b"b"));
        assert_eq!(hostile_rx.recv(), None);
    }
}

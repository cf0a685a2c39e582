//! Receiver-driven layered congestion control (Section 7.1), client side.
//!
//! A layered session spreads its encoding across `g` multicast groups with
//! geometric rates; each receiver subscribes to a *cumulative* prefix of the
//! layers and finds its own rate with no feedback to the source: it may add
//! a layer only at a synchronisation point (SP), it drops a layer on loss
//! between SPs, and the double-rate burst the server transmits just before
//! each SP probes whether the next level would fit through the receiver's
//! bottleneck — loss during the burst cancels the upcoming join without
//! costing a subscription change.
//!
//! [`LayerController`] is that receiver logic as a pure state machine, in
//! keeping with the crate's sans-I/O design: it observes the headers of the
//! data packets a [`crate::ClientSession`] digests, detects loss by
//! comparing per-round reception counts against the deterministic
//! reverse-binary schedule, and emits [`crate::ClientEvent::Join`] /
//! [`crate::ClientEvent::Leave`] *intents*.  The I/O driver owns the actual
//! [`crate::Transport::join`] / [`crate::Transport::leave`] calls — exactly
//! as the session layer never touches a socket, the controller never touches
//! a group membership.
//!
//! ## How rounds are recovered from serial numbers
//!
//! The wire header carries no round number (the paper's 12-byte header is
//! packet index, serial, group).  It does not need to: a layered server
//! transmits every layer every round, and across all layers one round sends
//! each of the `n` encoding packets exactly once (Table 5's columns sum to
//! the whole block), so a non-burst round is exactly `n` datagrams and a
//! burst round exactly `2n`.  Serial numbers therefore map to rounds in
//! closed form, and a receiver subscribed to *any* prefix of the layers can
//! recover the round (and burst phase) of every packet it sees — which is
//! also why layered mode requires the driver to transmit rounds in full
//! (`FountainServer::poll_transmit` and `ServerSession::send_round` both
//! do).

use crate::client::ClientEvent;
use df_mcast::{LayeredSession, TransmissionSchedule};
use std::collections::HashMap;
use std::collections::HashSet;
use std::collections::VecDeque;

/// The receiver-side join/leave state machine for one layered session.
///
/// The SP/burst cadence lives in the embedded [`LayeredSession`] and the
/// packets of each round in the [`TransmissionSchedule`] — the same types
/// the server transmits from — so the two sides cannot drift apart on what
/// a burst round is or how many datagrams a round sends.
#[derive(Debug)]
pub(crate) struct LayerController {
    session: LayeredSession,
    schedule: TransmissionSchedule,
    base_group: u32,
    /// Current cumulative subscription level (layers `0..=level`).
    level: usize,
    /// Highest unwrapped serial seen, for 32-bit wrap recovery.
    max_serial: Option<u64>,
    /// Highest round any observed packet belonged to.
    max_round: usize,
    /// Valid data packets counted per round (only layers `0..=level`).
    counts: HashMap<usize, usize>,
    /// Serials already counted in the live accounting window.  A duplicated
    /// (or attacker-replayed) datagram is not evidence its round arrived
    /// intact, so each serial feeds `counts` at most once; the set is pruned
    /// to the live window at every SP evaluation and cleared on re-anchor,
    /// so it stays O(window), not O(session).
    seen: HashSet<u64>,
    /// Consecutive evaluated windows without inter-SP loss.
    clean_streak: usize,
    /// Clean windows required before the next join.  Starts at 1 (a clean
    /// burst is enough, as in the paper) and doubles at every leave, so a
    /// receiver that keeps overshooting backs off its probing instead of
    /// oscillating with the channel's burst process.
    join_caution: usize,
    /// Lossy windows still absorbed without shedding another layer, after a
    /// leave.  The leave itself needs driver rounds to take effect, and a
    /// loss burst that triggered it will usually smear into the next window;
    /// reacting again immediately would cascade straight to the base layer.
    leave_cooldown: usize,
    /// Rounds before this one are never evaluated for loss: the window in
    /// which the receiver joined mid-round, or in which a subscription
    /// change was still propagating through the driver, would read as
    /// spurious loss.
    eval_from: usize,
    /// The next SP round whose preceding window is still to be evaluated.
    next_sp: usize,
    started: bool,
    /// Join/leave intents awaiting pickup by the session.
    decisions: VecDeque<ClientEvent>,
}

impl LayerController {
    /// `session` and `schedule` must mirror the server's announced cadence
    /// and its `layers` and `n` (validated by `ClientSession::new`).
    pub(crate) fn new(
        session: LayeredSession,
        schedule: TransmissionSchedule,
        base_group: u32,
    ) -> Self {
        let next_sp = session.sp_interval();
        LayerController {
            session,
            schedule,
            base_group,
            level: 0,
            max_serial: None,
            max_round: 0,
            counts: HashMap::new(),
            seen: HashSet::new(),
            clean_streak: 0,
            join_caution: 1,
            leave_cooldown: 0,
            eval_from: 0,
            next_sp,
            started: false,
            decisions: VecDeque::new(),
        }
    }

    /// Current cumulative subscription level.
    pub(crate) fn level(&self) -> usize {
        self.level
    }

    /// Groups of the current subscription, lowest layer first.
    pub(crate) fn subscribed_groups(&self) -> impl Iterator<Item = u32> + '_ {
        (0..=self.level as u32).map(move |l| self.base_group + l)
    }

    /// Next join/leave intent for the driver, if any.
    pub(crate) fn pop_decision(&mut self) -> Option<ClientEvent> {
        self.decisions.pop_front()
    }

    /// Undo subscription changes whose intents the driver never saw.  Called
    /// when the download completes on the very datagram that crossed an SP:
    /// `handle_datagram` reports `Complete` (nothing further will be polled),
    /// so the level must fall back to what the driver actually joined or
    /// [`crate::ClientSession::subscribed_groups`] would lie about the
    /// transport's memberships.
    pub(crate) fn rollback_undelivered(&mut self) {
        while let Some(decision) = self.decisions.pop_back() {
            match decision {
                ClientEvent::Join { .. } => self.level -= 1,
                ClientEvent::Leave { .. } => self.level += 1,
                _ => {}
            }
        }
    }

    fn schedule(&self) -> &TransmissionSchedule {
        &self.schedule
    }

    fn sp_interval(&self) -> usize {
        self.session.sp_interval()
    }

    fn is_burst(&self, round: usize) -> bool {
        self.session.is_burst(round)
    }

    /// Datagrams one full SP period transmits (`sp_interval − burst_rounds`
    /// rounds of `n` plus `burst_rounds` rounds of `2n`).
    fn period_serials(&self) -> u64 {
        self.schedule().n() as u64
            * (self.session.sp_interval() + self.session.burst_rounds()) as u64
    }

    /// Closed-form serial → round mapping (see the module docs).
    fn round_of_serial(&self, serial: u64) -> usize {
        let n = self.schedule().n() as u64;
        let period = self.period_serials();
        let plain_rounds = (self.session.sp_interval() - self.session.burst_rounds()) as u64;
        let p = serial / period;
        let rem = serial % period;
        // Each period starts at an SP: first the plain rounds, then the
        // double-rate burst rounds leading into the next SP.
        let phase = if rem < plain_rounds * n {
            rem / n
        } else {
            plain_rounds + (rem - plain_rounds * n) / (2 * n)
        };
        (p * self.sp_interval() as u64 + phase) as usize
    }

    /// Inverse of [`Self::round_of_serial`]: the serial of `round`'s first
    /// datagram.  Used to prune [`Self::seen`] once a window is evaluated.
    fn first_serial_of_round(&self, round: usize) -> u64 {
        let n = self.schedule().n() as u64;
        let sp = self.sp_interval() as u64;
        let plain = (self.session.sp_interval() - self.session.burst_rounds()) as u64;
        let p = round as u64 / sp;
        let phase = round as u64 % sp;
        let base = p * self.period_serials();
        if phase <= plain {
            base + phase * n
        } else {
            base + plain * n + (phase - plain) * 2 * n
        }
    }

    /// Packets a level-`level` subscriber should see in `round` if nothing
    /// is lost.
    fn expected_at_level(&self, round: usize) -> usize {
        let per_round: usize = (0..=self.level)
            .map(|layer| self.schedule().transmission_len(layer, round))
            .sum();
        if self.is_burst(round) {
            2 * per_round
        } else {
            per_round
        }
    }

    /// Recover the unwrapped serial from the 32-bit wire field, assuming
    /// packets arrive within half the serial space of the newest one.
    fn unwrap_serial(&mut self, wire: u32) -> u64 {
        let serial = match self.max_serial {
            None => wire as u64,
            Some(max) => {
                let max_low = max as u32;
                let mut hi = max >> 32;
                if wire < max_low && max_low - wire > u32::MAX / 2 {
                    hi += 1; // wrapped forward past 2^32
                } else if wire > max_low && wire - max_low > u32::MAX / 2 {
                    hi = hi.saturating_sub(1); // straggler from before a wrap
                }
                (hi << 32) | wire as u64
            }
        };
        self.max_serial = Some(self.max_serial.map_or(serial, |m| m.max(serial)));
        serial
    }

    /// Round gaps beyond this many SP intervals re-anchor the tracker
    /// instead of evaluating every skipped window.  A real stall that long
    /// means the loss history is meaningless anyway, and the bound keeps one
    /// datagram with a forged far-future serial (the data channel is as
    /// unauthenticated as any multicast) from driving millions of window
    /// evaluations — or a cascade of spurious Leaves — inside a single
    /// `handle_datagram` call.
    const MAX_CATCHUP_SPS: usize = 2;

    /// Digest the header of one valid data packet.  Returns nothing; any
    /// resulting join/leave intent is queued for [`Self::pop_decision`].
    pub(crate) fn observe(&mut self, serial: u32, group: u32) {
        let Some(layer) = group.checked_sub(self.base_group) else {
            return;
        };
        if layer as usize >= self.schedule().layers() {
            return;
        }
        let serial = self.unwrap_serial(serial);
        let round = self.round_of_serial(serial);
        if !self.started {
            self.started = true;
            self.anchor(round);
        } else if round > self.max_round + Self::MAX_CATCHUP_SPS * self.sp_interval() {
            self.anchor(round);
            return;
        }
        self.max_round = self.max_round.max(round);
        // Rounds whose window has already been evaluated can never be looked
        // at again, so their serials are dead for accounting; ignoring them
        // outright keeps a replay flood of historic serials from growing
        // `counts` or `seen` beyond the live window.
        if round < self.next_sp.saturating_sub(self.sp_interval()) {
            return;
        }
        // Dedupe by serial: a duplicated or replayed datagram is not
        // evidence that its round arrived intact, so each serial counts
        // once however many copies the channel (or an attacker) delivers.
        if !self.seen.insert(serial) {
            return;
        }
        if layer as usize <= self.level {
            *self.counts.entry(round).or_insert(0) += 1;
        }
        // Evaluate every SP whose window is fully in the past (one round of
        // guard so late packets of the window's last round — reordered
        // across the driver's group sockets — still land in `counts`).
        while self.max_round > self.next_sp {
            let sp = self.next_sp;
            self.next_sp += self.sp_interval();
            self.evaluate_window(sp);
        }
    }

    /// (Re-)start loss accounting at `round`: the round itself is partial
    /// from the receiver's point of view (it joined, or resurfaced, mid
    /// round), so evaluation begins with the next one.
    fn anchor(&mut self, round: usize) {
        self.eval_from = round + 1;
        self.next_sp = (round / self.sp_interval() + 1) * self.sp_interval();
        self.max_round = round;
        self.counts.clear();
        self.seen.clear();
    }

    /// Evaluate the window `[sp − sp_interval, sp)` and queue at most one
    /// subscription change, as the paper's receiver does at each SP.
    fn evaluate_window(&mut self, sp: usize) {
        let mut inter_sp_loss = false;
        let mut burst_loss = false;
        let mut burst_seen = false;
        let mut evaluated_any = false;
        for round in sp.saturating_sub(self.sp_interval())..sp {
            if round < self.eval_from {
                continue;
            }
            evaluated_any = true;
            let got = self.counts.get(&round).copied().unwrap_or(0);
            let lost = got < self.expected_at_level(round);
            if self.is_burst(round) {
                burst_seen = true;
                burst_loss |= lost;
            } else {
                inter_sp_loss |= lost;
            }
        }
        self.counts.retain(|&round, _| round >= sp);
        let cutoff = self.first_serial_of_round(sp);
        self.seen.retain(|&serial| serial >= cutoff);
        if !evaluated_any {
            // Every round of the window fell inside a subscription-change
            // guard: no evidence either way, so neither the clean streak
            // nor the loss reaction may move.
            return;
        }
        if inter_sp_loss {
            self.clean_streak = 0;
            if self.leave_cooldown > 0 {
                // A layer was just shed: the change is still propagating
                // through the driver and the burst that forced it smears
                // into this window, so absorb the loss instead of cascading
                // another level down.
                self.leave_cooldown -= 1;
            } else if self.level > 0 {
                // Sustained loss: shed the top layer.
                self.decisions.push_back(ClientEvent::Leave {
                    group: self.base_group + self.level as u32,
                });
                self.level -= 1;
                self.leave_cooldown = Self::LEAVE_COOLDOWN_SPS;
                // Back off the next probe: each shed layer doubles the
                // clean evidence required before re-joining, so a bursty
                // channel cannot make the receiver oscillate at the burst
                // frequency.
                self.join_caution = (self.join_caution * 2).min(Self::MAX_JOIN_CAUTION);
                self.reset_after_change();
            }
        } else {
            self.clean_streak += 1;
            self.leave_cooldown = self.leave_cooldown.saturating_sub(1);
            if burst_seen
                && !burst_loss
                && self.level + 1 < self.schedule().layers()
                && self.clean_streak >= self.join_caution
            {
                // A clean burst is the all-clear to add a layer at the SP —
                // once enough consecutive clean windows back it up.
                self.level += 1;
                self.decisions.push_back(ClientEvent::Join {
                    group: self.base_group + self.level as u32,
                });
                self.reset_after_change();
            }
        }
    }

    /// Lossy windows absorbed after a leave before another layer may be
    /// shed.
    const LEAVE_COOLDOWN_SPS: usize = 1;

    /// Cap on [`Self::join_caution`]: even a receiver that shed many layers
    /// re-probes within a bounded number of clean windows.
    const MAX_JOIN_CAUTION: usize = 8;

    /// After a subscription change, skip the rounds during which the driver
    /// is still acting on it (the change propagates to the transport while
    /// the current round — and possibly the next — is already in flight).
    fn reset_after_change(&mut self) {
        self.eval_from = self.max_round + 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(layers: usize, n: usize, sp: usize, burst: usize) -> LayerController {
        LayerController::new(
            LayeredSession::new(sp, burst).unwrap(),
            TransmissionSchedule::new(layers, n),
            10,
        )
    }

    /// Feed one server round to the controller the way a real driver would:
    /// serials advance for *every* transmitted packet, only packets of
    /// subscribed layers reach the receiver, and of those at most `budget`
    /// make it through the access link per round (tail drop).
    fn feed_round(c: &mut LayerController, round: usize, serial: &mut u64, budget: usize) {
        let schedule = c.schedule().clone();
        let mult = if c.is_burst(round) { 2 } else { 1 };
        let mut delivered = 0usize;
        for layer in 0..schedule.layers() {
            for _ in 0..mult * schedule.transmission_len(layer, round) {
                let s = *serial;
                *serial += 1;
                if layer <= c.level() {
                    delivered += 1;
                    if delivered <= budget {
                        c.observe(s as u32, 10 + layer as u32);
                    }
                }
            }
        }
    }

    #[test]
    fn serial_round_mapping_matches_the_emission_pattern() {
        let c = controller(3, 100, 4, 1);
        // Period: 3 plain rounds of 100 + 1 burst round of 200 = 500.
        assert_eq!(c.round_of_serial(0), 0);
        assert_eq!(c.round_of_serial(99), 0);
        assert_eq!(c.round_of_serial(100), 1);
        assert_eq!(c.round_of_serial(299), 2);
        assert_eq!(c.round_of_serial(300), 3); // burst round, 200 serials
        assert_eq!(c.round_of_serial(499), 3);
        assert_eq!(c.round_of_serial(500), 4);
        assert_eq!(c.round_of_serial(5 * 500), 20);
        assert!(c.is_burst(3) && !c.is_burst(4));
    }

    #[test]
    fn clean_bursts_climb_one_layer_at_a_time() {
        let mut c = controller(4, 64, 2, 1);
        let mut serial = 0u64;
        let mut joins = Vec::new();
        for round in 0..32 {
            feed_round(&mut c, round, &mut serial, usize::MAX);
            while let Some(d) = c.pop_decision() {
                match d {
                    ClientEvent::Join { group } => joins.push(group),
                    other => panic!("lossless trace must never leave, got {other:?}"),
                }
            }
        }
        // Base group is 10; cumulative joins climb to the top level and stop.
        assert_eq!(joins, vec![11, 12, 13]);
        assert_eq!(c.level(), 3);
        assert_eq!(
            c.subscribed_groups().collect::<Vec<_>>(),
            vec![10, 11, 12, 13]
        );
    }

    #[test]
    fn burst_loss_blocks_the_join_without_forcing_a_drop() {
        // Access link fits the base layer exactly (8 packets/round at g=4,
        // n=64): plain rounds arrive whole, every burst overflows, so the
        // probe always fails and the receiver pins at level 0 without a
        // single Leave.
        let mut c = controller(4, 64, 2, 1);
        let mut serial = 0u64;
        for round in 0..40 {
            feed_round(&mut c, round, &mut serial, 8);
            assert!(c.pop_decision().is_none(), "round {round} must not decide");
        }
        assert_eq!(c.level(), 0, "every burst was lossy: never join");
    }

    #[test]
    fn inter_sp_loss_sheds_the_top_layer() {
        let mut c = controller(4, 64, 4, 1);
        let mut serial = 0u64;
        // Climb cleanly for a while…
        let mut round = 0;
        while c.level() < 2 {
            feed_round(&mut c, round, &mut serial, usize::MAX);
            while c.pop_decision().is_some() {}
            round += 1;
            assert!(round < 64, "climb stalled");
        }
        // …then the path congests: plain rounds at level 2 (32 packets) no
        // longer fit through a 29-packet bottleneck, and a Leave fires.
        let mut left = None;
        for _ in 0..8 * c.sp_interval() {
            feed_round(&mut c, round, &mut serial, 29);
            round += 1;
            if let Some(d) = c.pop_decision() {
                left = Some(d);
                break;
            }
        }
        assert_eq!(left, Some(ClientEvent::Leave { group: 12 }));
        assert_eq!(c.level(), 1);
    }

    #[test]
    fn joining_mid_carousel_does_not_misread_the_partial_round_as_loss() {
        let mut c = controller(4, 64, 2, 1);
        // The first observed packet lands deep inside round 7 (rounds 0..7
        // hold 4 plain rounds of 64 serials and 3 burst rounds of 128); the
        // controller must anchor there, not at round 0, and must not count
        // the partial round as loss.
        let mut serial: u64 = 4 * 64 + 3 * 128 + 40;
        assert_eq!(c.round_of_serial(serial), 7);
        c.observe(serial as u32, 10);
        // Resume at the round-8 boundary and run cleanly from there.
        serial = 4 * 64 + 4 * 128;
        for round in 8..32 {
            feed_round(&mut c, round, &mut serial, usize::MAX);
            while c.pop_decision().is_some() {}
        }
        assert!(c.level() > 0, "a late joiner still climbs");
    }

    #[test]
    fn serial_wrap_is_transparent() {
        let mut c = controller(2, 10, 2, 1);
        let lo = u32::MAX - 7;
        c.observe(lo, 10);
        c.observe(3, 10); // 12 serials later, wrapped
        let wrapped = c.max_serial.unwrap();
        assert_eq!(wrapped, u32::MAX as u64 + 1 + 3);
        // A straggler from before the wrap still resolves below it.
        c.observe(u32::MAX - 2, 10);
        assert_eq!(c.max_serial.unwrap(), wrapped);
    }

    #[test]
    fn a_forged_far_future_serial_reanchors_instead_of_evaluating_every_window() {
        let mut c = controller(4, 64, 2, 1);
        let mut serial = 0u64;
        for round in 0..4 {
            feed_round(&mut c, round, &mut serial, usize::MAX);
            while c.pop_decision().is_some() {}
        }
        let level_before = c.level();
        // One datagram claiming a serial ~11 million rounds ahead: the
        // tracker must jump there (bounded work), not walk every window —
        // and must not manufacture a Leave out of the phantom gap.
        c.observe(u32::MAX / 2, 10);
        assert!(c.pop_decision().is_none(), "phantom gap must not decide");
        assert_eq!(c.level(), level_before);
        let far_round = c.max_round;
        assert!(
            far_round > 1_000_000,
            "tracker re-anchored at the far round"
        );
        assert!(
            c.eval_from > far_round && c.next_sp > far_round,
            "accounting restarts past the anchor"
        );
    }

    /// Like [`feed_round`], but every delivered packet is observed `copies`
    /// times — a duplicating channel in front of the controller.
    fn feed_round_dup(
        c: &mut LayerController,
        round: usize,
        serial: &mut u64,
        budget: usize,
        copies: usize,
    ) {
        let schedule = c.schedule().clone();
        let mult = if c.is_burst(round) { 2 } else { 1 };
        let mut delivered = 0usize;
        for layer in 0..schedule.layers() {
            for _ in 0..mult * schedule.transmission_len(layer, round) {
                let s = *serial;
                *serial += 1;
                if layer <= c.level() {
                    delivered += 1;
                    if delivered <= budget {
                        for _ in 0..copies {
                            c.observe(s as u32, 10 + layer as u32);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn duplicates_do_not_mask_loss() {
        // A duplicating channel delivers every surviving packet twice, but
        // only half the base-layer packets survive: the reception *count*
        // equals the expected count, yet half the round is missing.  Serial
        // dedupe must see through the duplicates and still shed the layer.
        let mut c = controller(4, 64, 4, 1);
        let mut serial = 0u64;
        let mut round = 0;
        while c.level() < 1 {
            feed_round(&mut c, round, &mut serial, usize::MAX);
            while c.pop_decision().is_some() {}
            round += 1;
            assert!(round < 64, "climb stalled");
        }
        // Level 1 expects 16 packets per plain round; 8 arrive, twice each.
        let mut decision = None;
        for _ in 0..8 * c.sp_interval() {
            feed_round_dup(&mut c, round, &mut serial, 8, 2);
            round += 1;
            if let Some(d) = c.pop_decision() {
                decision = Some(d);
                break;
            }
        }
        assert_eq!(decision, Some(ClientEvent::Leave { group: 11 }));
    }

    #[test]
    fn duplicated_and_reordered_arrivals_count_once_near_the_serial_wrap() {
        // Serials spanning the 32-bit wrap arrive out of order and twice
        // each; the accounting must unwrap them, count each exactly once,
        // and produce no spurious decision.
        let mut c = controller(2, 10, 2, 1);
        // Anchor just before the wrap: serial u32::MAX - 4 sits in some
        // round r; the next rounds' serials cross 2^32.
        let base = u32::MAX as u64 - 4;
        c.observe(base as u32, 10);
        let anchor_round = c.max_round;
        // The serials of the two rounds after the anchor round, reordered
        // and duplicated.
        let start = c.first_serial_of_round(anchor_round + 1);
        let end = c.first_serial_of_round(anchor_round + 3);
        let serials: Vec<u64> = (start..end).collect();
        // Deterministic shuffle: split and interleave from both ends.
        let mid = serials.len() / 2;
        let (front, back) = serials.split_at(mid);
        let mixed: Vec<u64> = back.iter().chain(front.iter()).copied().collect();
        for &s in &mixed {
            c.observe(s as u32, 10);
            c.observe(s as u32, 10); // duplicate
        }
        assert!(
            c.max_serial.unwrap() >= u32::MAX as u64,
            "serials unwrapped"
        );
        for r in anchor_round + 1..anchor_round + 3 {
            if let Some(&got) = c.counts.get(&r) {
                let expected =
                    (c.first_serial_of_round(r + 1) - c.first_serial_of_round(r)) as usize;
                assert_eq!(got, expected, "round {r} must count each serial once");
            }
        }
        assert!(
            c.pop_decision().is_none(),
            "no spurious decision at the wrap"
        );
    }

    #[test]
    fn replayed_historic_serials_cannot_inflate_memory_or_decisions() {
        let mut c = controller(2, 64, 2, 1);
        let mut serial = 0u64;
        for round in 0..8 {
            feed_round(&mut c, round, &mut serial, usize::MAX);
            while c.pop_decision().is_some() {}
        }
        let seen_before = c.seen.len();
        let counts_before = c.counts.clone();
        let level_before = c.level();
        // A flood of serials from rounds whose windows were already
        // evaluated: every one must be ignored outright.
        for _ in 0..50 {
            for s in 0..c.first_serial_of_round(4) {
                c.observe(s as u32, 10);
            }
        }
        assert_eq!(
            c.seen.len(),
            seen_before,
            "historic serials must not grow `seen`"
        );
        assert_eq!(c.counts, counts_before, "historic serials must not count");
        assert_eq!(c.level(), level_before);
        assert!(c.pop_decision().is_none());
        // And the live-window state itself is bounded by the schedule, not
        // by how much traffic the flood delivered.
        let n = c.schedule().n();
        let bound = 3 * c.sp_interval() * 2 * n;
        assert!(
            c.seen.len() <= bound,
            "seen {} > bound {bound}",
            c.seen.len()
        );
    }

    #[test]
    fn a_leave_doubles_the_clean_evidence_needed_to_rejoin() {
        let mut c = controller(4, 64, 2, 1);
        let mut serial = 0u64;
        let mut round = 0;
        // First join: one clean window suffices.
        let mut windows_to_first_join = 0;
        while c.level() < 1 {
            feed_round(&mut c, round, &mut serial, usize::MAX);
            round += 1;
            windows_to_first_join += 1;
            assert!(round < 64, "climb stalled");
        }
        while c.pop_decision().is_some() {}
        // Congest until the layer is shed again.
        while c.level() > 0 {
            feed_round(&mut c, round, &mut serial, 10);
            round += 1;
            while c.pop_decision().is_some() {}
            assert!(round < 128, "leave never fired");
        }
        // Clean again: the rejoin must now take strictly more rounds than
        // the first join did — the caution doubled.
        let mut windows_to_rejoin = 0;
        while c.level() < 1 {
            feed_round(&mut c, round, &mut serial, usize::MAX);
            round += 1;
            windows_to_rejoin += 1;
            assert!(round < 256, "rejoin never fired");
        }
        assert!(
            windows_to_rejoin > windows_to_first_join,
            "rejoin after {windows_to_rejoin} rounds, first join after \
             {windows_to_first_join}: hysteresis must slow the re-probe"
        );
    }

    #[test]
    fn persistent_congestion_still_sheds_every_layer_despite_the_cooldown() {
        let mut c = controller(4, 64, 2, 1);
        let mut serial = 0u64;
        let mut round = 0;
        while c.level() < 2 {
            feed_round(&mut c, round, &mut serial, usize::MAX);
            while c.pop_decision().is_some() {}
            round += 1;
            assert!(round < 64, "climb stalled");
        }
        // The path collapses below even the base rate: the receiver must
        // still walk all the way down (the cooldown delays, never blocks),
        // and shed each layer exactly once.
        let mut leaves = Vec::new();
        for _ in 0..32 * c.sp_interval() {
            feed_round(&mut c, round, &mut serial, 4);
            round += 1;
            while let Some(d) = c.pop_decision() {
                leaves.push(d);
            }
        }
        assert_eq!(
            leaves,
            vec![
                ClientEvent::Leave { group: 12 },
                ClientEvent::Leave { group: 11 },
            ],
            "exactly one leave per subscribed layer, no oscillation"
        );
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn rollback_undelivered_restores_the_driver_visible_level() {
        let mut c = controller(4, 64, 2, 1);
        let mut serial = 0u64;
        // Climb until a Join intent sits in the queue, undelivered.
        let mut round = 0;
        while c.decisions.is_empty() {
            feed_round(&mut c, round, &mut serial, usize::MAX);
            round += 1;
            assert!(round < 64, "no decision ever queued");
        }
        assert_eq!(c.level(), 1, "the queued Join already moved the level");
        c.rollback_undelivered();
        assert_eq!(c.level(), 0, "undelivered Join rolled back");
        assert!(c.pop_decision().is_none());
        assert_eq!(c.subscribed_groups().collect::<Vec<_>>(), vec![10]);
    }
}

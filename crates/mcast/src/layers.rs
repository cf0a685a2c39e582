//! Layered multicast sessions (Section 7.1.1): the SP/burst cadence.
//!
//! The server organises the encoding into `g` cumulative layers with
//! geometrically increasing rates and drives congestion control itself:
//! specially marked *synchronisation points* (SPs) are the only instants at
//! which a receiver may join a higher layer, and periodic *burst periods*
//! (packets sent at twice the normal rate) let a receiver probe whether it
//! could sustain the next level without sending any feedback to the source.
//! Receivers subscribe to a prefix of the layers, move up after an SP if the
//! preceding burst caused no loss, and drop a layer whenever they experience
//! sustained loss.
//!
//! [`LayeredSession`] is the validated cadence both ends share: the server
//! transmits from it and the client checks an announced session against it.
//! Each end keeps the session's one
//! [`TransmissionSchedule`](crate::TransmissionSchedule) beside it.
//! The receiver's join/leave rule lives in `df_proto::layered`, and
//! `df_sim::layered_population_experiment` runs it over a simulated
//! multicast channel for the Figure 8 reproduction.

use df_core::TornadoError;

/// Most layers a layered session may use — the reverse-binary schedule's
/// block size is `2^(layers−1)`, so 16 layers is already a 32 768-packet
/// block ([`TransmissionSchedule::new`](crate::TransmissionSchedule::new)
/// asserts the same constant).
pub const MAX_LAYERS: usize = 16;

/// Longest admissible SP interval.  Receiver-side loss accounting holds
/// O(`sp_interval`) round counters, so the bound keeps what a session (or a
/// hostile announcement replaying one) can make a receiver track finite;
/// protocol clients enforce the same limit on wire-sourced cadences.
pub const MAX_SP_INTERVAL: usize = 1 << 16;

/// The SP/burst cadence of a layered session: which rounds are
/// synchronisation points and which burst.  The packets a round sends are
/// the [`TransmissionSchedule`](crate::TransmissionSchedule)'s, which each
/// end of the session holds once, beside its cadence.
#[derive(Debug, Clone)]
pub struct LayeredSession {
    /// Rounds between synchronisation points.
    sp_interval: usize,
    /// Rounds of double-rate burst preceding each SP.
    burst_rounds: usize,
}

impl LayeredSession {
    /// Create a cadence with an SP every `sp_interval` rounds preceded by
    /// `burst_rounds` rounds of double-rate bursting.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::InvalidParameters`] for a degenerate cadence:
    /// an SP interval shorter than 2 rounds (`sp_interval == 0` would divide
    /// by zero in the round phase arithmetic, and `sp_interval == 1` would
    /// make *every* round a sync point, leaving no inter-SP rounds to
    /// measure loss over) or longer than [`MAX_SP_INTERVAL`], or bursts at
    /// least as long as the SP interval (which would misclassify every loss
    /// as burst loss and freeze the join/leave logic).
    pub fn new(sp_interval: usize, burst_rounds: usize) -> df_core::Result<Self> {
        let invalid = |reason: String| TornadoError::InvalidParameters { reason };
        if !(2..=MAX_SP_INTERVAL).contains(&sp_interval) {
            return Err(invalid(format!(
                "SP interval must be between 2 and {MAX_SP_INTERVAL} rounds, got {sp_interval}"
            )));
        }
        if burst_rounds >= sp_interval {
            return Err(invalid(format!(
                "burst ({burst_rounds} rounds) must be shorter than the SP \
                 interval ({sp_interval} rounds)"
            )));
        }
        Ok(LayeredSession {
            sp_interval,
            burst_rounds,
        })
    }

    /// Rounds between synchronisation points.
    pub fn sp_interval(&self) -> usize {
        self.sp_interval
    }

    /// Rounds of double-rate burst preceding each SP.
    pub fn burst_rounds(&self) -> usize {
        self.burst_rounds
    }

    /// True if `round` falls inside the burst period preceding the next SP.
    pub fn is_burst(&self, round: usize) -> bool {
        let phase = round % self.sp_interval;
        phase + self.burst_rounds >= self.sp_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_points_and_bursts_alternate_sensibly() {
        let s = LayeredSession::new(16, 2).unwrap();
        assert!(s.is_burst(14));
        assert!(s.is_burst(15));
        assert!(!s.is_burst(3));
        assert_eq!((s.sp_interval(), s.burst_rounds()), (16, 2));
    }

    #[test]
    fn degenerate_session_parameters_are_constructor_errors() {
        use df_core::TornadoError;
        // (sp_interval, burst_rounds) combinations that used to panic (or
        // construct, then panic or never-burst downstream).
        for (sp, burst) in [
            (0usize, 0usize),         // SP interval of zero: division by zero downstream
            (1, 0),                   // every round an SP: no inter-SP loss window
            (MAX_SP_INTERVAL + 1, 0), // unbounded receiver accounting
            (8, 8),                   // burst as long as the SP interval
            (8, 9),                   // burst longer than the SP interval
        ] {
            match LayeredSession::new(sp, burst) {
                Err(TornadoError::InvalidParameters { .. }) => {}
                other => panic!("({sp}, {burst}) must be rejected, got {other:?}"),
            }
        }
        assert!(
            LayeredSession::new(2, 1).is_ok(),
            "minimal valid SP spacing"
        );
    }
}

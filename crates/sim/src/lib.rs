//! # df-sim — loss models, the interleaved baseline and the paper's simulation study
//!
//! This crate reproduces the simulation apparatus of Section 6 of Byers,
//! Luby, Mitzenmacher & Rege (SIGCOMM '98):
//!
//! * [`loss`] — packet-loss models: independent (Bernoulli) loss, bursty
//!   Gilbert–Elliott loss, and synthetic MBone-like receiver traces standing
//!   in for the Yajnik/Kurose/Towsley traces used in Section 6.4 (the
//!   originals are not publicly archived; see DESIGN.md for the substitution).
//! * [`interleaved`] — the interleaved Reed–Solomon scheme of
//!   Nonnenmacher/Rizzo/Vicisano et al. that the paper compares against:
//!   split the file into blocks of `k` packets, stretch each block with an MDS
//!   code, and transmit one packet per block per round.
//! * [`receiver`] — carousel receivers: simulate a client joining the
//!   multicast at an arbitrary time, losing packets according to a loss model,
//!   and listening until its decoder (Tornado or interleaved) completes.
//! * [`experiment`] — the experiment drivers that regenerate Table 4 and
//!   Figures 4, 5 and 6.
//! * [`layered`] — the Figure 7-style layered congestion-control experiment:
//!   a heterogeneous bottleneck population running the real `df-proto`
//!   client sessions (receiver-driven join/leave) over `SimMulticast`.
//! * [`swarm`] — the driver-scale experiment: thousands of concurrent
//!   client sessions pumped through the sharded `df_proto::Driver`, from
//!   one shard thread up to a per-core shard sweep.
//! * [`channel`] — composable hostile-channel stages (Gilbert–Elliott
//!   bursty loss, bounded reordering, duplication, jitter) and the
//!   [`HostileChannel`] transport decorator that applies them to any
//!   `df_proto::Transport`.
//! * [`hostile`] — the robustness experiment: adaptive layered receivers
//!   downloading through hostile channels, sweeping Gilbert–Elliott
//!   parameters while asserting completion and join/leave stability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod experiment;
pub mod hostile;
pub mod interleaved;
pub mod layered;
pub mod loss;
pub mod rateless;
pub mod receiver;
pub mod swarm;
pub mod trace;

pub use channel::{
    ChannelModel, ChannelStats, DuplicateChannel, GilbertElliottChannel, HostileChannel,
    HostileChannelBuilder, JitterChannel, ReorderChannel,
};
pub use experiment::{
    file_size_experiment, receiver_scaling_experiment, speedup_table, trace_experiment,
    EfficiencyPoint, SpeedupRow,
};
pub use hostile::{
    hostile_channel_experiment, hostile_sweep, HostileConfig, HostileOutcome, SubscriptionEvent,
};
pub use interleaved::InterleavedCode;
pub use layered::{layered_population_experiment, LayeredOutcome};
pub use loss::{BernoulliLoss, GilbertElliottLoss, LossModel};
pub use rateless::{
    late_join_experiment, rateless_overhead_experiment, LateJoinOutcome, LateJoinReceiver,
    RatelessOverheadOutcome,
};
pub use receiver::{simulate_interleaved_receiver, simulate_tornado_receiver, ReceiverOutcome};
pub use swarm::{swarm_experiment, SwarmOutcome};
pub use trace::{ReceiverTrace, TraceSet};

//! # df-mcast — layered multicast scheduling and congestion control
//!
//! Reproduces Section 7.1 of Byers, Luby, Mitzenmacher & Rege (SIGCOMM '98):
//!
//! * [`schedule`] — the reverse-binary packet transmission scheme that spreads
//!   the encoding across multicast layers so that a receiver at a fixed
//!   subscription level sees no duplicate packet before it could have decoded
//!   (the *One Level Property*, Table 5 / Figure 7 of the paper).
//! * [`layers`] — the validated session cadence: sender-driven
//!   synchronisation points and burst periods, the signals of the
//!   congestion-control scheme of Vicisano/Rizzo/Crowcroft adopted by the
//!   paper.  The receiver that reacts to them is `df_proto`'s
//!   `LayerController`, run inside every layered `ClientSession`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod schedule;

pub use layers::{LayeredSession, MAX_LAYERS, MAX_SP_INTERVAL};
pub use schedule::TransmissionSchedule;

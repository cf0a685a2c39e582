//! Sync-primitive indirection for model checking.
//!
//! Normal builds use the real types (`std::sync::Arc`, `parking_lot::Mutex`);
//! under `RUSTFLAGS=--cfg df_check` the same names resolve to the `loom`
//! shim so the model-check suite (`tests/model_check.rs`) can exhaustively
//! explore interleavings of [`crate::SimMulticast`] without touching call
//! sites.  Keep every concurrent structure in this crate importing its
//! primitives from here.

#[cfg(df_check)]
pub(crate) use loom::sync::{Arc, Mutex};

#[cfg(not(df_check))]
pub(crate) use parking_lot::Mutex;
#[cfg(not(df_check))]
pub(crate) use std::sync::Arc;

//! Fixture for the `global-state` rule: statics that change after
//! initialisation fire unless allowlisted; write-once tables, lifetimes and
//! anything under `#[cfg(test)]` stay silent.  Never compiled; only scanned.

use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, OnceLock};

static TABLE: OnceLock<[u8; 256]> = OnceLock::new();
const NAME: &'static str = "a lifetime, not a declaration";

static SESSIONS_EVER: AtomicU64 = AtomicU64::new(0);

static LAST_ERROR: OnceLock<
    Mutex<Option<String>>,
> = OnceLock::new();

static mut SCRATCH: [u8; 64] = [0; 64];

#[cfg(test)]
mod tests {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
}

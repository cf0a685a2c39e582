//! Clean fixture for the `global-state` rule, scanned as if it were
//! `crates/core/src/codec.rs`: the one allowlisted registry beside the
//! shapes the rule exempts by construction.  Never compiled; only scanned.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, Weak};

type LiveCodes = BTreeMap<(usize, u64, &'static str), Vec<Weak<Cascade>>>;

static LIVE_CODES: Mutex<LiveCodes> = Mutex::new(BTreeMap::new());

static LOG_TABLE: OnceLock<Box<[u16; 65_536]>> = OnceLock::new();

fn registry() -> std::sync::MutexGuard<'static, LiveCodes> {
    LIVE_CODES.lock().unwrap()
}

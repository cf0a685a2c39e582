//! Fixture for the `send-sync-audit` rule: a hand-written thread-safety
//! assertion.  The SAFETY comment is present (so the safety-comment rule
//! would pass) precisely to show the audit is not satisfied by prose.  Never
//! compiled; only scanned.

struct RawHandle(*mut u8);

// SAFETY: forged — a raw pointer is not Send just because we say so.
unsafe impl Send for RawHandle {}

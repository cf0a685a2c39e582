//! Placeholder: nothing uses this crate; it exists only so `benchmark/Cargo.lock` stays valid, and the dependency-cleanup item of ROADMAP.md deletes it together with the manifest lines that name it.
#![forbid(unsafe_code)]

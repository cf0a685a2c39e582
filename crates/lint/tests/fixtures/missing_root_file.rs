//! Fixture for the citation form of `doc-drift`, checked against a root
//! that holds no such files.  Paths, globs and templates name no root file:
//! `shims/README.md`, `*.trace.json`, `<workload>.trace.json`, `notes.mdx`.

/// The calibration is recorded in EXPERIMENTS.md.
pub const CALIBRATED: bool = true;

pub const NOT_A_COMMENT: &str = "DESIGN.md";

//! Integration tests for `df-lint`: each rule fires on its fixture with the
//! right file:line, the whole tree passes clean, and seeded violations
//! (drifted DESIGN.md constants, forged FFI rows) are caught.
//!
//! The fixture files under `tests/fixtures/` are neither compiled (cargo only
//! builds top-level `tests/*.rs`) nor seen by `run()` (the walker skips
//! `tests/fixtures/`).

use std::path::{Path, PathBuf};

use df_lint::{
    check_atomic_ordering, check_design_text, check_ffi_allowlist, check_global_state,
    check_lock_discipline, check_root_citations, check_safety_comments, check_send_sync_audit,
    check_unsafe_posture, check_wire_discipline, run, split_comments, WireConstants,
};

fn fixture(name: &str) -> (String, Vec<df_lint::SourceLine>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap();
    (
        format!("crates/lint/tests/fixtures/{name}"),
        split_comments(&src),
    )
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn safety_rule_fires_with_file_and_line() {
    let (file, lines) = fixture("missing_safety.rs");
    let diags = check_safety_comments(&file, &lines);
    assert_eq!(diags.len(), 1, "exactly the undocumented block: {diags:?}");
    assert_eq!(diags[0].file, file);
    assert_eq!(diags[0].line, 9);
    assert_eq!(diags[0].rule, "safety-comment");
}

#[test]
fn wire_rule_fires_on_panic_paths_and_indexing_only_outside_tests() {
    let (file, lines) = fixture("wire_violations.rs");
    let diags = check_wire_discipline(&file, &lines);
    let mut hits: Vec<(usize, &str)> = diags.iter().map(|d| (d.line, d.rule)).collect();
    hits.sort();
    assert_eq!(
        hits,
        [(6, "wire-discipline"), (7, "wire-discipline")],
        "indexing at 6 and unwrap at 7, nothing from the test mod: {diags:?}"
    );
}

#[test]
fn ffi_rule_fires_on_forged_signature_and_out_of_shims_block() {
    // As a shims/ path: unknown signature.
    let (_, lines) = fixture("forged_ffi.rs");
    let files = vec![("shims/forged/src/lib.rs".to_string(), lines.clone())];
    let diags = check_ffi_allowlist(&files);
    let forged: Vec<_> = diags
        .iter()
        .filter(|d| d.file == "shims/forged/src/lib.rs")
        .collect();
    assert_eq!(forged.len(), 1, "{diags:?}");
    assert_eq!(forged[0].line, 5);
    assert!(forged[0].message.contains("fn connect"));
    // Stale allowlist row also reported: the real ppoll(2) entry went unmatched.
    assert!(diags
        .iter()
        .any(|d| d.message.contains("stale FFI allowlist entry")));

    // Same block outside shims/ is banned outright.
    let files = vec![("crates/evil/src/lib.rs".to_string(), lines)];
    let diags = check_ffi_allowlist(&files);
    assert!(
        diags.iter().any(|d| d.file == "crates/evil/src/lib.rs"
            && d.line == 5
            && d.message.contains("outside shims/")),
        "{diags:?}"
    );
}

#[test]
fn posture_rule_fires_on_bare_crate_root() {
    let (file, lines) = fixture("missing_posture.rs");
    let diags = check_unsafe_posture(&file, &lines);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 1);
    assert_eq!(diags[0].rule, "unsafe-posture");
}

#[test]
fn doc_drift_fires_on_seeded_control_version_drift() {
    let consts = WireConstants {
        magic: 0xDF,
        version: 3,
        header_len: 12,
        max_layers: 32,
        max_scheduled_layers: 16,
    };
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).unwrap();
    assert!(
        check_design_text(&design, &consts).is_empty(),
        "checked-in DESIGN.md is clean"
    );

    // Seed the drift the acceptance criteria call out: bump CONTROL_VERSION.
    let drifted = design
        .replace("wire version 3", "wire version 4")
        .replace("`CONTROL_VERSION` = 3", "`CONTROL_VERSION` = 4");
    let diags = check_design_text(&drifted, &consts);
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|(line, _)| *line > 0));
}

#[test]
fn doc_drift_fires_on_a_comment_citing_a_missing_root_file() {
    let (file, lines) = fixture("missing_root_file.rs");
    let comments = || lines.iter().map(|l| l.comment.as_str());
    // Against the fixture directory, which has no such file.
    let nowhere = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let diags = check_root_citations(&file, comments(), &nowhere);
    assert_eq!(diags.len(), 1, "only the bare name in a comment: {diags:?}");
    assert_eq!((diags[0].line, diags[0].rule), (5, "doc-drift"));
    assert!(diags[0].message.contains("EXPERIMENTS.md"));
    // Against the repository root, where the file exists.
    assert!(check_root_citations(&file, comments(), &repo_root()).is_empty());
}

#[test]
fn atomic_ordering_rule_fires_only_on_the_unjustified_line() {
    let (file, lines) = fixture("atomic_ordering.rs");
    let diags = check_atomic_ordering(&file, &lines);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].file, file);
    assert_eq!(diags[0].line, 8, "the bare Acquire load");
    assert_eq!(diags[0].rule, "atomic-ordering");
    assert!(diags[0].message.contains("Ordering::Acquire"));
    // The justified Release and the SeqCst store stayed silent.
}

#[test]
fn send_sync_rule_fires_on_a_forged_impl() {
    let (_, lines) = fixture("send_sync.rs");
    let diags = check_send_sync_audit("crates/evil/src/lib.rs", &lines);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].file, "crates/evil/src/lib.rs");
    assert_eq!(diags[0].line, 9);
    assert_eq!(diags[0].rule, "send-sync-audit");
    assert!(diags[0].message.contains("RawHandle"));
}

#[test]
fn send_sync_rule_has_no_allowlist() {
    // No path and no signature is exempt, not even a shim's own lock with
    // its SAFETY argument.
    let file = "shims/loom/src/sync.rs";
    let src = "// SAFETY: access is serialized by the lock.\n\
               unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}\n";
    let diags = check_send_sync_audit(file, &split_comments(src));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].file.as_str(), diags[0].line), (file, 2));
    assert_eq!(diags[0].rule, "send-sync-audit");
}

#[test]
fn global_state_rule_fires_on_unlisted_mutable_statics_and_stale_rows() {
    let (_, lines) = fixture("global_state.rs");
    let files = vec![("crates/evil/src/lib.rs".to_string(), lines.clone())];
    let diags = check_global_state(&files);
    let hits: Vec<(usize, &str)> = diags
        .iter()
        .filter(|d| d.file == "crates/evil/src/lib.rs")
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(
        hits,
        [
            (11, "global-state"),
            (13, "global-state"),
            (17, "global-state")
        ],
        "the atomic, the wrapped mutex and the static mut; not the OnceLock \
         table, the lifetime or the test mod: {diags:?}"
    );
    assert!(diags[1]
        .message
        .contains("OnceLock< Mutex<Option<String>>, >"));
    // With no codec.rs among the files, the registry's row is stale.
    assert!(diags
        .iter()
        .any(|d| d.message.contains("stale global-state allowlist entry")));

    // The rule's scope is crates/*/src: a shim, an example or a test may
    // keep what state it likes (and the row is still stale).
    for outside in [
        "shims/polling/src/lib.rs",
        "examples/quickstart.rs",
        "crates/proto/tests/liveness.rs",
    ] {
        let diags = check_global_state(&[(outside.to_string(), lines.clone())]);
        assert_eq!(diags.len(), 1, "{outside}: {diags:?}");
    }
}

#[test]
fn global_state_rule_is_silent_on_the_allowlisted_registry() {
    let (_, lines) = fixture("global_state_clean.rs");
    let files = vec![("crates/core/src/codec.rs".to_string(), lines.clone())];
    assert_eq!(check_global_state(&files), []);
    // The row names its file: the same declaration elsewhere is not covered.
    let files = vec![("crates/proto/src/server.rs".to_string(), lines)];
    let diags = check_global_state(&files);
    assert!(
        diags
            .iter()
            .any(|d| d.file == "crates/proto/src/server.rs" && d.line == 10),
        "{diags:?}"
    );
}

#[test]
fn lock_discipline_rule_fires_only_on_the_noteless_nesting() {
    let (file, lines) = fixture("lock_discipline.rs");
    let diags = check_lock_discipline(&file, &lines);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].file, file);
    assert_eq!(diags[0].line, 9, "the second guard in `violating`");
    assert_eq!(diags[0].rule, "lock-discipline");
    assert!(diags[0].message.contains("`gb`") && diags[0].message.contains("`ga`"));
    // The noted nesting, drop-first, and scoped patterns stayed silent.
}

#[test]
fn whole_tree_is_clean() {
    let diags = run(&repo_root());
    assert!(
        diags.is_empty(),
        "df-lint must pass on the checked-in tree:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

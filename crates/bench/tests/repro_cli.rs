//! The `repro` binary's exit status: CI's smoke steps name experiments on
//! its command line, so a typo there must fail the step instead of printing
//! nothing and passing.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_and_a_known_one_exits_0() {
    let repro = env!("CARGO_BIN_EXE_repro");

    // The retired perf-report mode is one more unknown name: not run, not listed.
    for typo in ["no-such-table", "bench-json"] {
        let unknown = Command::new(repro).arg(typo).output().unwrap();
        assert_eq!(unknown.status.code(), Some(2));
        assert!(unknown.stdout.is_empty(), "nothing ran");
        let stderr = String::from_utf8_lossy(&unknown.stderr);
        let (named, list) = stderr.split_once("expected one of").unwrap_or_default();
        assert!(
            named.contains(typo) && list.contains("hostile") && !list.contains(typo),
            "stderr names the typo and lists the valid names: {stderr}"
        );
    }

    let known = Command::new(repro).arg("table1").output().unwrap();
    assert_eq!(known.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&known.stdout).contains("Table 1"));
}

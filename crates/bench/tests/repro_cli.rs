//! The `repro` binary's exit status: CI's smoke steps name experiments on
//! its command line, so a typo there must fail the step instead of printing
//! nothing and passing.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_and_a_known_one_exits_0() {
    let repro = env!("CARGO_BIN_EXE_repro");

    let unknown = Command::new(repro).arg("no-such-table").output().unwrap();
    assert_eq!(unknown.status.code(), Some(2));
    assert!(unknown.stdout.is_empty(), "nothing ran");
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(
        stderr.contains("no-such-table") && stderr.contains("hostile"),
        "stderr names the typo and lists the valid names: {stderr}"
    );

    let known = Command::new(repro).arg("table1").output().unwrap();
    assert_eq!(known.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&known.stdout).contains("Table 1"));
}

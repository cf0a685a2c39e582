//! `df-lint` binary: walk the workspace, print diagnostics, exit non-zero on
//! any finding.  Usage: `cargo run -p df-lint [-- <repo-root>]`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(df_lint::default_root);
    let diagnostics = df_lint::run(&root);
    if diagnostics.is_empty() {
        println!(
            "df-lint: clean ({} .rs files checked, {} pub items as {} lists them)",
            df_lint::collect_rs_files(&root).len(),
            df_lint::workspace_pub_surface(&root)
                .values()
                .sum::<usize>(),
            df_lint::PUB_SURFACE_TABLE
        );
        return ExitCode::SUCCESS;
    }
    for d in &diagnostics {
        println!("{d}");
    }
    eprintln!("df-lint: {} diagnostic(s)", diagnostics.len());
    ExitCode::FAILURE
}

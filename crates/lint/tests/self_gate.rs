//! The self-gate: the workspace must pass its own linter, exactly as CI runs
//! it (every finding is an error).
//!
//! If this test fails, a new violation slipped in: fix it or add a
//! `// lint:allow(RULE, reason = "...")`.

use scream_lint::{find_workspace_root, lint_workspace, Config};
use std::path::Path;

#[test]
fn workspace_is_clean_under_bare_deny() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(manifest).expect("lint crate lives inside the workspace");
    let report = lint_workspace(&Config::new(root)).expect("workspace scan is readable");

    assert!(
        report.files_scanned > 50,
        "expected the whole workspace to be scanned"
    );
    let lines: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}: {}: {}", d.path, d.line, d.rule.code(), d.message))
        .collect();
    assert!(
        !report.failed() && lines.is_empty(),
        "scream-lint must pass on the workspace, found:\n{}",
        lines.join("\n")
    );
}

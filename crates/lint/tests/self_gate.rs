//! The self-gate. `scream-lint`'s own rules must pass on the workspace,
//! exactly as CI runs them (every finding is an error): fix a new violation
//! or add a `// lint:allow(RULE, reason = "...")`. The rules clippy carries
//! run in `cargo clippy`, not here — but they are opt-in per crate, and that
//! can be checked by reading files.

use scream_lint::{find_workspace_root, lint_workspace, workspace_files};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(manifest).expect("lint crate lives inside the workspace")
}

#[test]
fn workspace_is_clean_under_bare_deny() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan is readable");

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

/// A new crate that forgets the deny line, or a `clippy.toml` that loses a
/// path, fails `cargo test` — no clippy run needed to notice.
#[test]
fn every_product_lib_opts_into_the_clippy_carried_rules() {
    const DENY: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
        clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented,\
        clippy::iter_over_hash_type,clippy::disallowed_methods,\
        clippy::allow_attributes_without_reason";
    const PATHS: &str = "std::time::Instant::now std::time::SystemTime::now \
        scream_scheduling::schedule::Schedule::slots \
        std::collections::HashSet::iter std::collections::HashSet::drain \
        std::collections::HashMap::iter std::collections::HashMap::iter_mut \
        std::collections::HashMap::keys std::collections::HashMap::values \
        std::collections::HashMap::values_mut std::collections::HashMap::drain \
        std::collections::HashMap::into_keys std::collections::HashMap::into_values";
    let root = workspace_root();
    // The scanner's own scope, so the two halves of the gate cannot drift.
    let mut libs = workspace_files(&root).expect("workspace scan is readable");
    libs.retain(|path| path.ends_with("src/lib.rs"));
    assert!(libs.len() >= 12, "facade + eleven crates: {libs:?}");
    for lib in libs {
        let src = std::fs::read_to_string(&lib).expect("listed file is readable");
        let squashed: String = src.chars().filter(|c| !c.is_whitespace()).collect();
        // F1.eq's scope: the three crates whose floats decide verdicts.
        let verdict = ["traffic", "resilience", "analysis"]
            .iter()
            .any(|krate| lib.starts_with(root.join("crates").join(krate)));
        let float_cmp = if verdict { ",clippy::float_cmp" } else { "" };
        let want = format!("{DENY}{float_cmp}))]");
        assert!(squashed.contains(&want), "{lib:?} must open with {want}");
    }
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml exists");
    for path in PATHS.split_whitespace() {
        let entry = format!("path = \"{path}\"");
        assert!(toml.contains(&entry), "clippy.toml must list {entry}");
    }
}

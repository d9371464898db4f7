//! `scream-lint` — the workspace's own static-analysis pass.
//!
//! ROADMAP.md's conventions are machine-checked in two places. The rules a
//! type-resolved lint can express (D1, P1, F1, `H1.hot`) are carried by
//! clippy — `clippy.toml` plus the `deny` attribute every product `lib.rs`
//! opens with; README § Static analysis has the table. This crate keeps what
//! nothing in the toolchain can check, over non-test library code:
//!
//! | family | codes | invariant |
//! |--------|-------|-----------|
//! | **H1** | `H1.alloc` | hot-path: no ledger/accumulator construction in loops |
//! | **O1** | `O1.sink` | observability: obs emission arguments stay allocation-free (`&'static str` + `u64`), so a disabled sink is a true no-op |
//! | **S1** | `S1.caller` | surface: no `pub fn` that only its own file's tests mention |
//!
//! Plus **L1** for the allow mechanism itself: malformed/unknown/unused
//! `// lint:allow(RULE, reason = "...")` directives.
//!
//! Units are not here: `Dbm` / `Db` / `Mw` / `Meters` in
//! `scream_topology::units` make a cross-unit expression a compile error.
//!
//! The scanner is lexical (scrubbing lexer + token patterns + brace
//! tracking) — no syn, no rustc, zero dependencies — so it runs inside the
//! offline build container and before the workspace compiles.

// Conventions P1 / D1 / H1 (ROADMAP), carried by clippy; test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        clippy::allow_attributes_without_reason
    )
)]

pub mod lexer;
pub mod scan;

pub use scan::{Diagnostic, RuleCode};

use std::io;
use std::path::{Path, PathBuf};

/// The outcome of a workspace lint run.
#[derive(Debug)]
pub struct Report {
    pub files_scanned: usize,
    /// Allow-filtered findings, sorted.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when the run should fail the build: every finding is an error.
    pub fn failed(&self) -> bool {
        !self.diagnostics.is_empty()
    }
}

/// Walk up from `start` to the directory whose Cargo.toml declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `src/bin/` binaries are tool surfaces (bench drivers), exempt
            // like `examples/` and `tests/`.
            if name != "bin" {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every library source file in the workspace — the root facade's `src/`
/// and `crates/<name>/src/`, skipping the offline `compat` shims — sorted by
/// path for deterministic output. Every rule applies to every one of them.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if entry.file_name() != "compat" {
                collect_rs_files(&entry.path().join("src"), &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The files that can only *call* library code: integration tests, examples
/// and the `src/bin/` tool surfaces of the root package and of every crate
/// [`workspace_files`] covers, plus the standalone `benchmark/` package. No
/// rule scans them; `S1.caller` counts a mention in one of them as a use.
fn caller_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("benchmark/src"), &mut files)?;
    let mut packages = vec![root.to_path_buf()];
    for entry in std::fs::read_dir(root.join("crates"))? {
        let entry = entry?;
        if entry.file_name() != "compat" {
            packages.push(entry.path());
        }
    }
    for package in packages {
        for dir in ["tests", "examples", "src/bin"] {
            collect_rs_files(&package.join(dir), &mut files)?;
        }
    }
    Ok(files)
}

fn relative_to(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Normalize separators so reported paths are portable.
    rel.to_string_lossy().replace('\\', "/")
}

/// Run the full lint over the workspace rooted at `root` (the directory
/// holding the `[workspace]` Cargo.toml).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let read_all = |paths: &[PathBuf]| -> io::Result<Vec<String>> {
        paths.iter().map(std::fs::read_to_string).collect()
    };
    let (sources, callers) = (read_all(&files)?, read_all(&caller_files(root)?)?);
    let census = scan::files_mentioning(sources.iter().chain(&callers).map(String::as_str));
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for (path, src) in files.iter().zip(&sources) {
        let path = relative_to(root, path);
        diagnostics.extend(scan::scan_source(&path, src, Some(&census)));
    }

    diagnostics.sort();
    Ok(Report {
        files_scanned: files.len(),
        diagnostics,
    })
}

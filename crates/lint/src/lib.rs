//! `scream-lint` — the workspace static-analysis pass.
//!
//! Mechanizes the conventions ROADMAP.md states in prose, as four rule
//! families over non-test library code:
//!
//! | family | codes | invariant |
//! |--------|-------|-----------|
//! | **D1** | `D1.iter`, `D1.clock` | determinism: no hash-order iteration, no wall clocks / unseeded rng |
//! | **P1** | `P1.panic` | panic-freedom: `unwrap`/`expect`/`panic!` need a justified allow |
//! | **H1** | `H1.hot`, `H1.alloc` | hot-path: no `.slots()` expansion; no ledger/accumulator construction in loops |
//! | **F1** | `F1.cmp`, `F1.eq` | float hygiene: `total_cmp` over `partial_cmp(..).unwrap()`; no exact float equality in verdicts |
//! | **U1** | `U1.mix`, `U1.bind`, `U1.conv` | unit hygiene: no cross-unit arithmetic/binding on suffix-tagged quantities; honest conversion calls |
//! | **O1** | `O1.sink` | observability: obs emission arguments stay allocation-free (`&'static str` + `u64`), so a disabled sink is a true no-op |
//!
//! Plus **L1** for the allow mechanism itself: malformed/unknown/unused
//! `// lint:allow(RULE, reason = "...")` directives.
//!
//! The scanner is lexical-plus-symbolic (scrubbing lexer + token patterns +
//! brace tracking + a per-file binding/call-site indexer) — no syn, no
//! rustc, zero dependencies — so it runs before the workspace compiles and
//! inside the offline build container.

pub mod lexer;
pub mod scan;
pub mod symbols;
pub mod units;

pub use scan::{Diagnostic, RuleCode, ScanPolicy};

use std::io;
use std::path::{Path, PathBuf};

/// A run configuration, usually built by the CLI.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding the `[workspace]` Cargo.toml).
    pub root: PathBuf,
}

impl Config {
    pub fn new(root: PathBuf) -> Self {
        Config { root }
    }
}

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

/// Per-crate rule policy. `compat` shims and `src/bin/` tool surfaces are
/// not scanned at all; `bench` keeps wall-clock access; float-equality
/// checks apply to the verdict-producing crates. `obs` itself gets no
/// exemption: the observability layer speaks logical time only, so
/// D1.clock stays banned there, and O1.sink holds everywhere instrumented
/// code emits into it.
fn crate_policy(krate: &str) -> ScanPolicy {
    ScanPolicy {
        hash_iter: true,
        wall_clock: krate != "bench",
        float_eq: matches!(krate, "traffic" | "resilience" | "analysis"),
        units: true,
        obs_sink: true,
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let entries = std::fs::read_dir(dir)?;
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `src/bin/` binaries are tool surfaces (bench drivers), exempt
            // like `benches/` and `examples/`.
            if name != "bin" {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every library source file in the workspace, as `(crate, relative path)`,
/// sorted by path for deterministic output.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    fn push_crate(
        krate: &str,
        src_dir: &Path,
        files: &mut Vec<(String, PathBuf)>,
    ) -> io::Result<()> {
        let mut found = Vec::new();
        if src_dir.is_dir() {
            collect_rs_files(src_dir, &mut found)?;
        }
        for f in found {
            files.push((krate.to_string(), f));
        }
        Ok(())
    }

    let mut files: Vec<(String, PathBuf)> = Vec::new();

    // Root facade crate.
    push_crate("scream", &root.join("src"), &mut files)?;

    // crates/<name>/src, skipping the offline compat shims.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let path = entry.path();
            if !path.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_string_lossy().to_string();
            if name == "compat" {
                continue;
            }
            push_crate(&name, &path.join("src"), &mut files)?;
        }
    }

    files.sort();
    Ok(files)
}

fn relative_to(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Normalize separators so reported paths are portable.
    rel.to_string_lossy().replace('\\', "/")
}

/// Run the full workspace lint.
pub fn lint_workspace(cfg: &Config) -> io::Result<Report> {
    let files = workspace_files(&cfg.root)?;
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for (krate, path) in &files {
        let rel = relative_to(&cfg.root, path);
        let src = std::fs::read_to_string(path)?;
        diagnostics.extend(scan::scan_source(&rel, &src, crate_policy(krate)));
    }

    diagnostics.sort();
    Ok(Report {
        files_scanned: files.len(),
        diagnostics,
    })
}

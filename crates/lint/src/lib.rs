//! `scream-lint` — the workspace static-analysis pass.
//!
//! Mechanizes the conventions ROADMAP.md states in prose, as four rule
//! families over non-test library code:
//!
//! | family | codes | invariant |
//! |--------|-------|-----------|
//! | **D1** | `D1.iter`, `D1.clock` | determinism: no hash-order iteration, no wall clocks / unseeded rng |
//! | **P1** | `P1.panic` | panic-freedom: `unwrap`/`expect`/`panic!` need an allow or the committed baseline |
//! | **H1** | `H1.hot`, `H1.alloc` | hot-path: no `.slots()` expansion; no ledger/accumulator construction in loops |
//! | **F1** | `F1.cmp`, `F1.eq` | float hygiene: `total_cmp` over `partial_cmp(..).unwrap()`; no exact float equality in verdicts |
//! | **U1** | `U1.mix`, `U1.bind`, `U1.conv` | unit hygiene: no cross-unit arithmetic/binding on suffix-tagged quantities; honest conversion calls |
//! | **O1** | `O1.sink` | observability: obs emission arguments stay allocation-free (`&'static str` + `u64`), so a disabled sink is a true no-op |
//! | **P2** | `P2.reach` | panic reachability: no *new* public API may transitively reach a P1 panic site (`p2_reach.txt` ratchet) |
//!
//! Plus **L1** for the allow mechanism itself: malformed/unknown/unused
//! `// lint:allow(RULE, reason = "...")` directives.
//!
//! The scanner is lexical-plus-symbolic (scrubbing lexer + token patterns +
//! brace tracking + a per-file symbol indexer and workspace call graph) —
//! no syn, no rustc, zero dependencies — so it runs before the workspace
//! compiles and inside the offline build container.

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod scan;
pub mod symbols;
pub mod units;

pub use scan::{Diagnostic, RuleCode, ScanPolicy};

use std::collections::BTreeSet;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// A run configuration, usually built by the CLI.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding the `[workspace]` Cargo.toml).
    pub root: PathBuf,
    /// P1 baseline file; defaults to `crates/lint/p1_baseline.txt`.
    pub baseline_path: PathBuf,
    /// P2 reach report; defaults to `crates/lint/p2_reach.txt`.
    pub reach_path: PathBuf,
    /// Regenerate the P1 baseline and P2 reach report from current state.
    pub write_baseline: bool,
    /// `--deny`/`--warn` overrides in CLI order: `None` selector = all
    /// rules, `Some(name)` = one family (`D1`) or code (`D1.iter`).
    pub class_overrides: Vec<(Option<String>, bool)>,
}

impl Config {
    pub fn new(root: PathBuf) -> Self {
        let baseline_path = default_baseline_path(&root);
        let reach_path = default_reach_path(&root);
        Config {
            root,
            baseline_path,
            reach_path,
            write_baseline: false,
            class_overrides: Vec::new(),
        }
    }
}

pub fn default_baseline_path(root: &Path) -> PathBuf {
    root.join("crates").join("lint").join("p1_baseline.txt")
}

pub fn default_reach_path(root: &Path) -> PathBuf {
    root.join("crates").join("lint").join("p2_reach.txt")
}

/// A file whose current P1 count exceeds its committed baseline.
#[derive(Debug, Clone)]
pub struct BaselineViolation {
    pub path: String,
    pub current: usize,
    pub allowed: usize,
}

/// The outcome of a workspace lint run.
#[derive(Debug)]
pub struct Report {
    pub files_scanned: usize,
    /// Active findings (allow-filtered, baseline-filtered), sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// P1 sites absorbed by the committed baseline (visible in `--json`).
    pub baselined: Vec<Diagnostic>,
    /// Files over their committed P1 count; always a failure.
    pub baseline_violations: Vec<BaselineViolation>,
    pub p1_current: usize,
    pub p1_baseline: usize,
    /// Current P2 reach entries (public fns that transitively reach a panic).
    pub p2_entries: BTreeSet<String>,
    /// Entry count in the committed `p2_reach.txt`.
    pub p2_committed: usize,
    /// New panic-reachable public APIs: `(entry, path, line)`. Like P1
    /// baseline violations, growth always fails the run.
    pub p2_violations: Vec<(String, String, usize)>,
    pub baseline_written: bool,
}

impl Report {
    pub fn deny_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.deny).count()
    }

    pub fn warn_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| !d.deny).count()
    }

    /// True when the run should fail the build.
    pub fn failed(&self) -> bool {
        self.deny_count() > 0
            || !self.baseline_violations.is_empty()
            || !self.p2_violations.is_empty()
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
    // Normalize separators so baselines and allows are portable.
    rel.to_string_lossy().replace('\\', "/")
}

/// Run the full workspace lint.
pub fn lint_workspace(cfg: &Config) -> io::Result<Report> {
    let files = workspace_files(&cfg.root)?;
    let mut active: Vec<Diagnostic> = Vec::new();
    let mut p1_by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    let files_scanned = files.len();

    // Per-file inputs retained to feed the P2 call-graph pass after the walk:
    // (crate, rel path, symbols, surviving panic lines, p2-allowed lines).
    type GraphInput = (String, String, symbols::FileSymbols, Vec<usize>, Vec<usize>);
    let mut graph_inputs: Vec<GraphInput> = Vec::new();

    for (krate, path) in &files {
        let rel = relative_to(&cfg.root, path);
        let src = std::fs::read_to_string(path)?;
        let policy = crate_policy(krate);
        let scanned = scan::scan_file(&rel, &src, policy);
        for diag in scanned.diagnostics {
            if diag.rule == RuleCode::P1Panic {
                p1_by_file.entry(rel.clone()).or_default().push(diag);
            } else {
                active.push(diag);
            }
        }
        graph_inputs.push((
            krate.clone(),
            rel,
            scanned.symbols,
            scanned.panic_lines,
            scanned.p2_allowed_lines,
        ));
    }

    // ---- P2: workspace call graph + panic-reachability ratchet ----
    let entries: Vec<callgraph::FileEntry> = graph_inputs
        .iter()
        .map(|(krate, rel, syms, panics, allowed)| callgraph::FileEntry {
            krate,
            path: rel,
            symbols: syms,
            panic_lines: panics,
            p2_allowed_lines: allowed,
        })
        .collect();
    let reach = callgraph::analyze(&entries);
    let committed = callgraph::load_reach(&cfg.reach_path);
    if cfg.write_baseline {
        callgraph::save_reach(&cfg.reach_path, &reach.public_reach)?;
    }
    let reach_effective: &BTreeSet<String> = if cfg.write_baseline {
        &reach.public_reach
    } else {
        &committed
    };
    let p2_violations: Vec<(String, String, usize)> = reach
        .public_reach
        .difference(reach_effective)
        .map(|e| {
            let (path, line) = reach
                .locations
                .get(e)
                .cloned()
                .unwrap_or_else(|| (String::new(), 0));
            (e.clone(), path, line)
        })
        .collect();
    let p2_committed = committed.len();

    let previous = baseline::load(&cfg.baseline_path)?;
    let p1_baseline: usize = previous.values().sum();
    let current_counts: BTreeMap<String, usize> = p1_by_file
        .iter()
        .map(|(f, v)| (f.clone(), v.len()))
        .collect();
    let p1_current: usize = current_counts.values().sum();

    let mut baseline_written = false;
    if cfg.write_baseline {
        baseline::save(&cfg.baseline_path, &current_counts)?;
        baseline_written = true;
    }

    let effective: &BTreeMap<String, usize> = if cfg.write_baseline {
        &current_counts
    } else {
        &previous
    };

    let mut baselined: Vec<Diagnostic> = Vec::new();
    let mut baseline_violations: Vec<BaselineViolation> = Vec::new();
    for (file, mut diags) in p1_by_file {
        let allowed = effective.get(&file).copied().unwrap_or(0);
        if diags.len() <= allowed {
            for d in &mut diags {
                d.baselined = true;
            }
            baselined.append(&mut diags);
        } else {
            baseline_violations.push(BaselineViolation {
                path: file,
                current: diags.len(),
                allowed,
            });
            active.append(&mut diags);
        }
    }

    // Resolve --deny/--warn overrides, in CLI order.
    for d in &mut active {
        for (selector, deny) in &cfg.class_overrides {
            let applies = match selector {
                None => true,
                Some(s) => s == d.rule.family() || s == d.rule.code(),
            };
            if applies {
                d.deny = *deny;
            }
        }
    }

    active.sort();
    baselined.sort();
    Ok(Report {
        files_scanned,
        diagnostics: active,
        baselined,
        baseline_violations,
        p1_current,
        p1_baseline,
        p2_entries: reach.public_reach,
        p2_committed,
        p2_violations,
        baseline_written,
    })
}

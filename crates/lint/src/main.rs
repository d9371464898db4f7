//! CLI for the workspace static-analysis pass. See the library docs and the
//! README "Static analysis" section for the rule table.

use scream_lint::{find_workspace_root, lint_workspace};
use std::process::ExitCode;

const USAGE: &str = "\
scream-lint — the SCREAM conventions no toolchain lint can check

USAGE:
    cargo run -p scream-lint        (from anywhere inside the workspace)
    cargo run -p scream-lint -- -h  this text

RULES:
    H1.alloc  ledger/accumulator construction inside loop bodies
    O1.sink   allocation inside a scream_obs emission argument
    S1.caller pub fn that only its own file's tests mention
    L1.*      malformed or unused lint:allow directives

D1, P1, F1 and H1.hot are carried by clippy (clippy.toml and the deny
attribute in every product lib.rs); see README § Static analysis.

Suppress a finding with a justified inline comment:
    let acc = env.open_slot(); // lint:allow(H1.alloc, reason = \"one per frame\")
";

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        if arg == "-h" || arg == "--help" {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        eprintln!("scream-lint: unknown argument `{arg}` (see --help)");
        return ExitCode::from(2);
    }
    let root = std::env::current_dir()
        .ok()
        .and_then(|cwd| find_workspace_root(&cwd));
    let Some(root) = root else {
        eprintln!("scream-lint: no [workspace] Cargo.toml above the current dir");
        return ExitCode::from(2);
    };
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scream-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &report.diagnostics {
        println!(
            "{}:{}: error {}: {}",
            d.path,
            d.line,
            d.rule.code(),
            d.message
        );
    }
    println!(
        "scream-lint: {} files scanned, {} errors",
        report.files_scanned,
        report.diagnostics.len(),
    );
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

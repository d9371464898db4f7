//! CLI for the workspace static-analysis pass. See the library docs and the
//! README "Static analysis" section for the rule table.

use scream_lint::{find_workspace_root, lint_workspace, Config, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
scream-lint — workspace static analysis for the SCREAM conventions

USAGE:
    cargo run -p scream-lint -- [OPTIONS]

OPTIONS:
    --root <PATH>        workspace root (default: walk up to [workspace])
    --json               machine-readable output
    -h, --help           this text

RULES:
    D1.iter   hash-order iteration in deterministic library code
    D1.clock  Instant::now / SystemTime / thread_rng outside bench surfaces
    P1.panic  unwrap/expect/panic! without a justified allow
    H1.hot    .slots() expansion outside tests
    H1.alloc  ledger/accumulator construction inside loop bodies
    F1.cmp    partial_cmp(..).unwrap() — use total_cmp
    F1.eq     exact float comparison in verdict code
    U1.mix    cross-unit arithmetic/comparison (a_db + b_mw, x_m <= y_m2)
    U1.bind   cross-unit binding/assignment (let range_m = area_m2)
    U1.conv   suffix-dishonest conversion call (dbm_to_mw(-loss_db))
    L1.*      malformed or unused lint:allow directives

Suppress a finding with a justified inline comment:
    let x = m.keys().collect(); // lint:allow(D1, reason = \"sorted below\")
";

struct Args {
    config: Config,
    json: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut root: Option<PathBuf> = None;
    let mut json = false;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--json" => json = true,
            "--root" => match argv.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return Err("--root requires a path".to_string()),
            },
            other => {
                if let Some(path) = other.strip_prefix("--root=") {
                    root = Some(PathBuf::from(path));
                } else {
                    return Err(format!("unknown argument `{other}` (see --help)"));
                }
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd =
                std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or_else(|| "no [workspace] Cargo.toml above the current dir".to_string())?
        }
    };
    Ok(Some(Args {
        config: Config::new(root),
        json,
    }))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn print_json(report: &Report) {
    let items: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| {
            format!(
                "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&d.path),
                d.line,
                d.rule.code(),
                json_escape(&d.message),
            )
        })
        .collect();
    println!(
        "{{\"files_scanned\":{},\"deny\":{},\"failed\":{},\"diagnostics\":[{}]}}",
        report.files_scanned,
        report.diagnostics.len(),
        report.failed(),
        items.join(",")
    );
}

fn print_text(report: &Report) {
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
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("scream-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = match lint_workspace(&args.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scream-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.json {
        print_json(&report);
    } else {
        print_text(&report);
    }
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

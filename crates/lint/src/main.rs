//! CLI for the workspace static-analysis pass. See the library docs and the
//! README "Static analysis" section for the rule table.

use scream_lint::{
    default_baseline_path, default_reach_path, find_workspace_root, lint_workspace, Config, Report,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
scream-lint — workspace static analysis for the SCREAM conventions

USAGE:
    cargo run -p scream-lint -- [OPTIONS]

OPTIONS:
    --root <PATH>        workspace root (default: walk up to [workspace])
    --baseline <PATH>    P1 baseline file (default: crates/lint/p1_baseline.txt)
    --reach <PATH>       P2 reach report (default: crates/lint/p2_reach.txt)
    --write-baseline     regenerate the P1 baseline and P2 reach report
    --deny[=RULE]        treat all rules (or one family/code) as errors
    --warn[=RULE]        treat all rules (or one family/code) as warnings
    --json               machine-readable output
    -h, --help           this text

RULES:
    D1.iter   hash-order iteration in deterministic library code
    D1.clock  Instant::now / SystemTime / thread_rng outside bench surfaces
    P1.panic  unwrap/expect/panic! without an allow (baseline-ratcheted)
    H1.hot    .slots() expansion outside tests
    H1.alloc  ledger/accumulator construction inside loop bodies
    F1.cmp    partial_cmp(..).unwrap() — use total_cmp
    F1.eq     exact float comparison in verdict code (warn by default)
    U1.mix    cross-unit arithmetic/comparison (a_db + b_mw, x_m <= y_m2)
    U1.bind   cross-unit binding/assignment (let range_m = area_m2)
    U1.conv   suffix-dishonest conversion call (dbm_to_mw(-loss_db))
    P2.reach  new public API transitively reaches a panic (ratchet)
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
    let mut baseline: Option<PathBuf> = None;
    let mut reach: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut json = false;
    let mut overrides: Vec<(Option<String>, bool)> = Vec::new();

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--json" => json = true,
            "--write-baseline" => write_baseline = true,
            "--deny" => overrides.push((None, true)),
            "--warn" => overrides.push((None, false)),
            "--root" => match argv.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return Err("--root requires a path".to_string()),
            },
            "--baseline" => match argv.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => return Err("--baseline requires a path".to_string()),
            },
            "--reach" => match argv.next() {
                Some(p) => reach = Some(PathBuf::from(p)),
                None => return Err("--reach requires a path".to_string()),
            },
            other => {
                if let Some(rule) = other.strip_prefix("--deny=") {
                    overrides.push((Some(rule.to_string()), true));
                } else if let Some(rule) = other.strip_prefix("--warn=") {
                    overrides.push((Some(rule.to_string()), false));
                } else if let Some(path) = other.strip_prefix("--root=") {
                    root = Some(PathBuf::from(path));
                } else if let Some(path) = other.strip_prefix("--baseline=") {
                    baseline = Some(PathBuf::from(path));
                } else if let Some(path) = other.strip_prefix("--reach=") {
                    reach = Some(PathBuf::from(path));
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
    let baseline_path = baseline.unwrap_or_else(|| default_baseline_path(&root));
    let reach_path = reach.unwrap_or_else(|| default_reach_path(&root));
    Ok(Some(Args {
        config: Config {
            root,
            baseline_path,
            reach_path,
            write_baseline,
            class_overrides: overrides,
        },
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
    let mut items: Vec<String> = Vec::new();
    for d in report.diagnostics.iter().chain(report.baselined.iter()) {
        items.push(format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"class\":\"{}\",\
             \"baselined\":{},\"message\":\"{}\"}}",
            json_escape(&d.path),
            d.line,
            d.rule.code(),
            if d.deny { "deny" } else { "warn" },
            d.baselined,
            json_escape(&d.message),
        ));
    }
    let violations: Vec<String> = report
        .baseline_violations
        .iter()
        .map(|v| {
            format!(
                "{{\"path\":\"{}\",\"current\":{},\"allowed\":{}}}",
                json_escape(&v.path),
                v.current,
                v.allowed
            )
        })
        .collect();
    let p2_violations: Vec<String> = report
        .p2_violations
        .iter()
        .map(|(entry, path, line)| {
            format!(
                "{{\"entry\":\"{}\",\"path\":\"{}\",\"line\":{line}}}",
                json_escape(entry),
                json_escape(path),
            )
        })
        .collect();
    let p2_entries: Vec<String> = report
        .p2_entries
        .iter()
        .map(|e| format!("\"{}\"", json_escape(e)))
        .collect();
    println!(
        "{{\"files_scanned\":{},\"deny\":{},\"warn\":{},\"p1_current\":{},\
         \"p1_baseline\":{},\"p2_current\":{},\"p2_committed\":{},\
         \"baseline_written\":{},\"failed\":{},\
         \"baseline_violations\":[{}],\"p2_violations\":[{}],\
         \"p2_entries\":[{}],\"diagnostics\":[{}]}}",
        report.files_scanned,
        report.deny_count(),
        report.warn_count(),
        report.p1_current,
        report.p1_baseline,
        report.p2_entries.len(),
        report.p2_committed,
        report.baseline_written,
        report.failed(),
        violations.join(","),
        p2_violations.join(","),
        p2_entries.join(","),
        items.join(",")
    );
}

fn print_text(report: &Report) {
    for d in &report.diagnostics {
        let class = if d.deny { "error" } else { "warning" };
        println!(
            "{}:{}: {class} {}: {}",
            d.path,
            d.line,
            d.rule.code(),
            d.message
        );
    }
    for v in &report.baseline_violations {
        println!(
            "{}: error P1.panic: {} unallowed panic sites exceed the committed baseline ({}) \
             — remove them or justify with lint:allow",
            v.path, v.current, v.allowed
        );
    }
    for (entry, path, line) in &report.p2_violations {
        println!(
            "{path}:{line}: error P2.reach: public `{entry}` now transitively reaches a \
             panic site — remove the panic, drop `pub`, or justify with lint:allow(P2, ..)"
        );
    }
    println!(
        "scream-lint: {} files scanned, {} errors, {} warnings; P1 sites {} \
         (baseline {}); P2 panic-reachable public fns {} (committed {}{})",
        report.files_scanned,
        report.deny_count() + report.baseline_violations.len() + report.p2_violations.len(),
        report.warn_count(),
        report.p1_current,
        report.p1_baseline,
        report.p2_entries.len(),
        report.p2_committed,
        if report.baseline_written {
            ", rewritten"
        } else {
            ""
        }
    );
    if report.p1_current < report.p1_baseline && !report.baseline_written {
        println!(
            "note: P1 total dropped below the baseline ({} < {}); run with \
             --write-baseline to ratchet down",
            report.p1_current, report.p1_baseline
        );
    }
    if report.p2_entries.len() < report.p2_committed && !report.baseline_written {
        println!(
            "note: P2 reach set shrank below the committed report ({} < {}); run with \
             --write-baseline to ratchet down",
            report.p2_entries.len(),
            report.p2_committed
        );
    }
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

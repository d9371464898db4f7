//! `--compare <a> <b>`: judge result set `b` (the change) against `a` (the
//! parent) with the bounds of `BENCHMARK.json`.
//!
//! A result set is what `--out <file>` appends: one JSON record per run.
//! Every (metric, workload) pair gets its own row; ratios are of `b` over
//! `a`. The rule is the one in the choosing-metrics guide: a pair regresses
//! when `b`'s median is worse than `a`'s by more than the bound, is
//! unresolved when the run-to-run spread is wider than the bound (unless
//! every run of one side beats every run of the other), and improves only
//! when `b` wins nine tenths of the pairs and the medians differ by more
//! than the parent's own spread.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Values of every (workload, metric) pair in run order, and how many
/// records reported failed operations.
#[derive(Debug, Default)]
struct ResultSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed_runs: usize,
    runs: usize,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet::default();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        let field = |key: &str| {
            record
                .get(key)
                .ok_or_else(|| format!("{path}:{}: no \"{key}\"", number + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        set.runs += 1;
        if field("correct")? != &Json::Bool(true) || field("failed")?.as_f64() != Some(0.0) {
            set.failed_runs += 1;
        }
        for (name, entry) in field("metrics")?.as_object().unwrap_or_default() {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                set.values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// Median and inter-quartile range; a single value has no spread.
fn summary(values: &[f64]) -> (f64, f64, f64) {
    match quartiles(values) {
        Some([q1, q2, q3]) => (q1, q2, q3),
        None => (values[0], values[0], values[0]),
    }
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (a_q1, a_median, a_q3) = summary(a);
    let (b_q1, b_median, b_q3) = summary(b);
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let base = a_median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (b_median - a_median) / base,
        Better::Higher => (a_median - b_median) / base,
    };
    let a_spread = (a_q3 - a_q1) / base;
    let b_spread = (b_q3 - b_q1) / b_median.abs().max(f64::MIN_POSITIVE);
    let noisy = a_spread.max(b_spread) > bound;
    let b_sweeps = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let a_sweeps = a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
    if worse_by > bound {
        return if noisy && !a_sweeps {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        };
    }
    if noisy && !b_sweeps {
        return Verdict::Unresolved;
    }
    let wins = a.iter().zip(b).filter(|(&x, &y)| beats(y, x)).count();
    let losses = a.iter().zip(b).filter(|(&x, &y)| beats(x, y)).count();
    if -worse_by > a_spread && wins > 0 && wins * 10 >= (wins + losses) * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Prints one row per (metric, workload) and returns whether `b` holds:
/// no row regressed or unresolved, and no run with a failed operation.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let a = load(path_a)?;
    let b = load(path_b)?;
    println!(
        "a = {path_a} ({} runs, {} with failed operations); b = {path_b} ({} runs, {} with failed operations)",
        a.runs, a.failed_runs, b.runs, b.failed_runs
    );
    println!(
        "{:<13} {:<38} {:>3} {:>14} {:>27} {:>3} {:>14} {:>27} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "n_a",
        "median_a",
        "[q1 .. q3]_a",
        "n_b",
        "median_b",
        "[q1 .. q3]_b",
        "b/a",
        "bound"
    );
    let mut holds = a.failed_runs == 0 && b.failed_runs == 0;
    for metric in END_TO_END.iter().chain(&PER_LAYER) {
        for spec in &WORKLOADS {
            let (workload, name) = (spec.name, metric.name);
            let key = (workload.to_string(), name.to_string());
            let (Some(a_values), Some(b_values)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (a_q1, a_median, a_q3) = summary(a_values);
            let (b_q1, b_median, b_q3) = summary(b_values);
            let bounded = metric.bound > 0.0;
            let verdict = bounded.then(|| judge(a_values, b_values, metric.better, metric.bound));
            if matches!(verdict, Some(Verdict::Regressed | Verdict::Unresolved)) {
                holds = false;
            }
            println!(
                "{:<13} {:<38} {:>3} {:>14.6} {:>27} {:>3} {:>14.6} {:>27} {:>9.4} {:>6}  {}",
                workload,
                name,
                a_values.len(),
                a_median,
                format!("[{a_q1:.5} .. {a_q3:.5}]"),
                b_values.len(),
                b_median,
                format!("[{b_q1:.5} .. {b_q3:.5}]"),
                b_median / a_median,
                if bounded {
                    format!("{:.0}%", metric.bound * 100.0)
                } else {
                    "-".to_string()
                },
                match verdict {
                    Some(Verdict::Improved) => "improved",
                    Some(Verdict::Unchanged) => "unchanged",
                    Some(Verdict::Regressed) => "REGRESSED",
                    Some(Verdict::Unresolved) => "UNRESOLVED",
                    None => "(layer)",
                }
            );
        }
    }
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    #[test]
    fn equal_sets_are_unchanged_and_bit_equal_counts_have_no_spread() {
        assert_eq!(
            judge(&STEADY, &STEADY, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        let exact = [406.0; 5];
        assert_eq!(
            judge(&exact, &exact, Better::Lower, 0.05),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_shift_past_the_bound_regresses_and_a_clear_gain_improves() {
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = STEADY.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            judge(&STEADY, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&STEADY, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        // The same numbers read the other way for a rate.
        assert_eq!(
            judge(&STEADY, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            judge(&STEADY, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_sweeps() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(&noisy, &STEADY, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        let far_better: Vec<f64> = noisy.iter().map(|v| v * 0.5).collect();
        assert_eq!(
            judge(&noisy, &far_better, Better::Lower, 0.1),
            Verdict::Improved
        );
        let far_worse: Vec<f64> = noisy.iter().map(|v| v * 2.0).collect();
        assert_eq!(
            judge(&noisy, &far_worse, Better::Lower, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_small_gain_inside_the_parents_spread_is_unchanged() {
        let slightly: Vec<f64> = STEADY.iter().map(|v| v * 0.995).collect();
        assert_eq!(
            judge(&STEADY, &slightly, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }
}

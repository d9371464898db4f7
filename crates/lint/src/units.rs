//! **U1** — unit/dimension hygiene for physical quantities.
//!
//! Every SINR quantity in the workspace crosses unit domains (dBm↔mW via the
//! radio conversion helpers, meters vs meters², slots vs seconds), and the
//! naming convention encodes the unit as an identifier suffix. This pass
//! mechanizes that convention:
//!
//! * `U1.mix` — cross-unit arithmetic/comparison: `a_db + b_mw`,
//!   `x_m <= y_m2`. Units are grouped into *classes* so legitimate log-domain
//!   algebra (`dBm ± dB`) is not flagged, while log-vs-linear and
//!   length-vs-area mixes are.
//! * `U1.bind` — cross-unit `let`/`const` binding or assignment where the
//!   initializer is a single unit-bearing term: `let range_m = area_m2;`.
//!   Exact-unit comparison (a `_db` name bound to a `_dbm` value is
//!   dishonest even though both are log-domain).
//! * `U1.conv` — suffix-dishonest conversion calls: `dbm_to_mw(-loss_db)`
//!   converts a dB ratio with the absolute-power helper. The honest helpers
//!   are `db_to_linear`/`linear_to_db`.
//!
//! Inference is deliberately conservative: a violation is reported only when
//! *both* operands carry a known unit (multi-term initializers, calls with
//! unknown return units and product/quotient operands — which legitimately
//! change dimension — all infer to "unknown" and stay silent).

use crate::scan::{ident_at, punct_at, Ctx, Diagnostic, RuleCode, Tok, Token};
use crate::symbols::FileSymbols;

/// The units the identifier-suffix convention encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// `_db` — relative power ratio in decibels.
    Db,
    /// `_dbm` — absolute power in dB-milliwatts.
    Dbm,
    /// `_mw` — absolute power in milliwatts (linear domain).
    Mw,
    /// `_m` — length in meters.
    Meters,
    /// `_m2` / `_sq_m2` — area / squared length in meters².
    MetersSq,
    /// `_slots` — time in schedule slots.
    Slots,
    /// `_secs` — time in seconds.
    Secs,
    /// `_pct` — dimensionless percentage.
    Pct,
}

/// Compatibility classes for additive/comparative operations. `dBm ± dB` is
/// legitimate log-domain algebra (absolute ± relative), so [`Unit::Db`] and
/// [`Unit::Dbm`] share a class; everything else is its own class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitClass {
    LogPower,
    LinearPower,
    Length,
    Area,
    Slots,
    Seconds,
    Fraction,
}

impl Unit {
    pub fn class(self) -> UnitClass {
        match self {
            Unit::Db | Unit::Dbm => UnitClass::LogPower,
            Unit::Mw => UnitClass::LinearPower,
            Unit::Meters => UnitClass::Length,
            Unit::MetersSq => UnitClass::Area,
            Unit::Slots => UnitClass::Slots,
            Unit::Secs => UnitClass::Seconds,
            Unit::Pct => UnitClass::Fraction,
        }
    }

    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Db => "_db",
            Unit::Dbm => "_dbm",
            Unit::Mw => "_mw",
            Unit::Meters => "_m",
            Unit::MetersSq => "_m2",
            Unit::Slots => "_slots",
            Unit::Secs => "_secs",
            Unit::Pct => "_pct",
        }
    }
}

/// Infer a unit from an identifier's trailing `_`-separated segment
/// (case-insensitive so `LIMIT_DB` consts participate). Bare one-letter
/// names (`m`) never infer — they are overwhelmingly loop variables.
pub fn suffix_unit(name: &str) -> Option<Unit> {
    let seg = match name.rfind('_') {
        Some(pos) if pos + 1 < name.len() => &name[pos + 1..],
        Some(_) => return None,
        None if name.len() >= 2 => name,
        None => return None,
    };
    let seg = seg.to_ascii_lowercase();
    match seg.as_str() {
        "db" => Some(Unit::Db),
        "dbm" => Some(Unit::Dbm),
        "mw" => Some(Unit::Mw),
        "m" => Some(Unit::Meters),
        "m2" => Some(Unit::MetersSq),
        "slots" => Some(Unit::Slots),
        "secs" => Some(Unit::Secs),
        "pct" => Some(Unit::Pct),
        _ => None,
    }
}

/// The known conversion helpers: `(name, input unit, output unit)`. `None`
/// stands for a dimensionless linear ratio.
const CONVERSIONS: &[(&str, Option<Unit>, Option<Unit>)] = &[
    ("dbm_to_mw", Some(Unit::Dbm), Some(Unit::Mw)),
    ("mw_to_dbm", Some(Unit::Mw), Some(Unit::Dbm)),
    ("db_to_linear", Some(Unit::Db), None),
    ("linear_to_db", None, Some(Unit::Db)),
];

fn conversion(name: &str) -> Option<(Option<Unit>, Option<Unit>)> {
    CONVERSIONS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, i, o)| (i, o))
}

/// Token index just past the `)` matching the `(` at `open`.
fn close_of(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if punct_at(toks, i, '(') {
            depth += 1;
        } else if punct_at(toks, i, ')') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Infer the unit of the single term spanning `[start, end)`, or `None`
/// when the range is empty, multi-term, or ends in an unknown call.
///
/// A term is: optional unary `-`/`&`/`*`, then either a parenthesized term,
/// or a path/field chain `a::b.c` possibly ending in a call. Conversion
/// calls yield their output unit; other calls yield unknown. A trailing
/// `as <ty>` cast is transparent. Anything left over makes the term
/// multi-term (unknown) — `r_m * r_m` legitimately *is* an area.
pub(crate) fn term_unit(toks: &[Token], start: usize, end: usize) -> Option<Unit> {
    let mut i = start;
    while i < end && (punct_at(toks, i, '-') || punct_at(toks, i, '&') || punct_at(toks, i, '*')) {
        i += 1;
    }
    if i >= end {
        return None;
    }
    // Fully parenthesized term: `(x_m2)`.
    if punct_at(toks, i, '(') {
        let close = close_of(toks, i);
        if close == end {
            return term_unit(toks, i + 1, close - 1);
        }
        return None;
    }
    let mut last: Option<&str> = None;
    while i < end {
        match ident_at(toks, i) {
            Some(seg) => {
                last = Some(seg);
                // Path / field separators continue the chain.
                if punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':') {
                    i += 3;
                    continue;
                }
                if punct_at(toks, i + 1, '.') {
                    i += 2;
                    continue;
                }
                if punct_at(toks, i + 1, '(') {
                    // A call: only conversion helpers have a known output.
                    let (_, output) = conversion(seg)?;
                    let close = close_of(toks, i + 1);
                    return if after_is_terminal(toks, close, end) {
                        output
                    } else {
                        None
                    };
                }
                i += 1;
                break;
            }
            None => return None,
        }
    }
    if !after_is_terminal(toks, i, end) {
        return None;
    }
    last.and_then(suffix_unit)
}

/// Whether the tokens from `i` to `end` are term-terminal: empty, or a
/// transparent `as <ty>` cast.
fn after_is_terminal(toks: &[Token], i: usize, end: usize) -> bool {
    if i >= end {
        return true;
    }
    if ident_at(toks, i) == Some("as") {
        // `as f64` / `as usize` — one type ident.
        return i + 2 >= end && ident_at(toks, i + 1).is_some();
    }
    false
}

/// Walk a path/field chain *backwards* from token `i` (inclusive) and
/// return the unit of its last segment, or `None` when the chain is part
/// of a product/quotient (dimension-changing) or not an identifier.
fn lhs_operand_unit(toks: &[Token], i: usize) -> Option<Unit> {
    let name = ident_at(toks, i)?;
    // Products and quotients legitimately change dimension: if the operand
    // is itself a factor (`.. * y_m < ..`), stay silent.
    let mut j = i as isize - 1;
    // Skip back over the rest of the chain: `a.b`, `a::b`.
    loop {
        if j >= 1 && punct_at(toks, j as usize, '.') && ident_at(toks, j as usize - 1).is_some() {
            j -= 2;
        } else if j >= 2
            && punct_at(toks, j as usize, ':')
            && punct_at(toks, j as usize - 1, ':')
            && ident_at(toks, j as usize - 2).is_some()
        {
            j -= 3;
        } else {
            break;
        }
    }
    if j >= 0 && (punct_at(toks, j as usize, '*') || punct_at(toks, j as usize, '/')) {
        return None;
    }
    suffix_unit(name)
}

/// Unit of the operand starting at token `i` (exclusive of any product that
/// follows — `y_m * y_m` is not a `Meters` operand).
fn rhs_operand_unit(toks: &[Token], i: usize) -> Option<Unit> {
    let mut j = i;
    while punct_at(toks, j, '-') || punct_at(toks, j, '&') {
        j += 1;
    }
    loop {
        let seg = ident_at(toks, j)?;
        if punct_at(toks, j + 1, ':') && punct_at(toks, j + 2, ':') {
            j += 3;
        } else if punct_at(toks, j + 1, '.') && ident_at(toks, j + 2).is_some() {
            j += 2;
        } else {
            if punct_at(toks, j + 1, '(') {
                return None; // ends in a call — unknown value
            }
            if punct_at(toks, j + 1, '*') || punct_at(toks, j + 1, '/') {
                return None; // factor of a product — dimension changes
            }
            return suffix_unit(seg);
        }
    }
}

/// The binary operators U1.mix polices, at token `i`. Returns
/// `(display, rhs_start)`. Multiplicative operators are deliberately
/// excluded — `power_mw * gain` is the model working as intended.
fn mix_operator(toks: &[Token], i: usize) -> Option<(&'static str, usize)> {
    let two = |c: char| punct_at(toks, i + 1, c);
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Punct('+')) => {
            if two('=') {
                Some(("+=", i + 2))
            } else {
                Some(("+", i + 1))
            }
        }
        Some(Tok::Punct('-')) => {
            if two('>') {
                None // `->` return-type arrow
            } else if two('=') {
                Some(("-=", i + 2))
            } else {
                Some(("-", i + 1))
            }
        }
        Some(Tok::Punct('<')) => {
            if two('<') {
                None // shift
            } else if two('=') {
                Some(("<=", i + 2))
            } else {
                Some(("<", i + 1))
            }
        }
        Some(Tok::Punct('>')) => {
            if punct_at(toks, i.wrapping_sub(1), '-') || two('>') {
                None // `->` or shift
            } else if two('=') {
                Some((">=", i + 2))
            } else {
                Some((">", i + 1))
            }
        }
        Some(Tok::Punct('=')) if two('=') && !punct_at(toks, i.wrapping_sub(1), '=') => {
            Some(("==", i + 2))
        }
        Some(Tok::Punct('!')) if two('=') => Some(("!=", i + 2)),
        _ => None,
    }
}

/// Run the three U1 rules over one tokenized file. Diagnostics are raw —
/// the caller applies `lint:allow` filtering.
pub(crate) fn scan_units(
    path: &str,
    toks: &[Token],
    ctx: &[Ctx],
    syms: &FileSymbols,
    diags: &mut Vec<Diagnostic>,
) {
    let push = |diags: &mut Vec<Diagnostic>, rule: RuleCode, line: usize, message: String| {
        diags.push(Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };

    // ---- U1.mix: cross-class arithmetic/comparison ----
    for i in 0..toks.len() {
        if ctx[i].in_test {
            continue;
        }
        let Some((op, rhs_start)) = mix_operator(toks, i) else {
            continue;
        };
        // Two-char operators are seen twice (`<` then `=`); only act on the
        // first token, where `i - 1` is the left operand.
        if i >= 1
            && mix_operator(toks, i - 1)
                .map(|(_, r)| r > i)
                .unwrap_or(false)
        {
            continue;
        }
        let Some(lu) = lhs_operand_unit(toks, i.wrapping_sub(1)) else {
            continue;
        };
        let Some(ru) = rhs_operand_unit(toks, rhs_start) else {
            continue;
        };
        if lu.class() != ru.class() {
            let lname = ident_at(toks, i - 1).unwrap_or("?");
            push(
                diags,
                RuleCode::U1Mix,
                toks[i].line,
                format!(
                    "`{lname} {op} ..{}` mixes units {} and {}: convert explicitly before \
                     combining",
                    ru.suffix(),
                    lu.suffix(),
                    ru.suffix(),
                ),
            );
        }
    }

    // ---- U1.bind: cross-unit let/const bindings ----
    for b in &syms.bindings {
        if b.in_test {
            continue;
        }
        let Some(lu) = suffix_unit(&b.name) else {
            continue;
        };
        let Some(ru) = term_unit(toks, b.init.0, b.init.1) else {
            continue;
        };
        if lu != ru {
            push(
                diags,
                RuleCode::U1Bind,
                b.line,
                format!(
                    "`{}` ({}) is bound to a {} value; rename the binding or convert the \
                     value",
                    b.name,
                    lu.suffix(),
                    ru.suffix(),
                ),
            );
        }
    }

    // ---- U1.bind: cross-unit plain assignments (`x_m = y_m2;`) ----
    for i in 1..toks.len() {
        if ctx[i].in_test {
            continue;
        }
        if !punct_at(toks, i, '=') || punct_at(toks, i + 1, '=') {
            continue;
        }
        // Exclude compound/comparison forms and `let` (handled above).
        let Some(name) = ident_at(toks, i - 1) else {
            continue;
        };
        if matches!(
            ident_at(toks, i.wrapping_sub(2)),
            Some("let" | "mut" | "const" | "static")
        ) {
            continue;
        }
        let Some(lu) = suffix_unit(name) else {
            continue;
        };
        // Statement end at depth 0.
        let mut depth = 0i32;
        let mut end = i + 1;
        while end < toks.len() {
            match &toks[end].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    if depth == 0 {
                        break; // `Struct { x_m: .. }`-style contexts end here
                    }
                    depth -= 1;
                }
                Tok::Punct(';') | Tok::Punct(',') if depth <= 0 => break,
                _ => {}
            }
            end += 1;
        }
        let Some(ru) = term_unit(toks, i + 1, end) else {
            continue;
        };
        if lu != ru {
            push(
                diags,
                RuleCode::U1Bind,
                toks[i].line,
                format!(
                    "`{name}` ({}) is assigned a {} value; rename the target or convert the \
                     value",
                    lu.suffix(),
                    ru.suffix(),
                ),
            );
        }
    }

    // ---- U1.conv: suffix-dishonest conversion calls ----
    for c in &syms.calls {
        if c.in_test {
            continue;
        }
        let Some((expected, _)) = conversion(&c.callee) else {
            continue;
        };
        // First argument: from past `(` to the matching `)` or a top-level `,`.
        let close = close_of(toks, c.args_open);
        let mut end = close.saturating_sub(1);
        let mut depth = 0i32;
        let mut j = c.args_open + 1;
        while j < close {
            match &toks[j].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                Tok::Punct(',') if depth <= 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arg) = term_unit(toks, c.args_open + 1, end) else {
            continue;
        };
        if expected != Some(arg) {
            let hint = match (c.callee.as_str(), arg) {
                ("dbm_to_mw", Unit::Db) => "; use `db_to_linear` for dB ratios",
                ("mw_to_dbm", Unit::Db) | ("mw_to_dbm", Unit::Dbm) => {
                    "; the argument is already log-domain"
                }
                ("db_to_linear", Unit::Dbm) => "; use `dbm_to_mw` for absolute powers",
                ("linear_to_db", Unit::Mw) => "; use `mw_to_dbm` for absolute powers",
                _ => "",
            };
            push(
                diags,
                RuleCode::U1Conv,
                c.line,
                format!(
                    "`{}` expects {} but the argument is {}{hint}",
                    c.callee,
                    expected.map(|u| u.suffix()).unwrap_or("a linear ratio"),
                    arg.suffix(),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn codes(src: &str) -> Vec<&'static str> {
        scan_source("crates/x/src/lib.rs", src)
            .into_iter()
            .map(|d| d.rule.code())
            .collect()
    }

    // ---- U1.mix ----

    #[test]
    fn mix_flags_log_vs_linear_and_length_vs_area() {
        let src = r#"
fn f(a_db: f64, b_mw: f64, x_m: f64, y_m2: f64) -> (f64, bool) {
    (a_db + b_mw, x_m <= y_m2)
}
"#;
        assert_eq!(codes(src), vec!["U1.mix", "U1.mix"]);
    }

    #[test]
    fn mix_allows_log_domain_budget_algebra() {
        // dBm ± dB is the link budget working as intended.
        let src = r#"
fn budget(tx_dbm: f64, loss_db: f64, margin_db: f64) -> f64 {
    tx_dbm - loss_db - margin_db
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn mix_ignores_products_and_unknown_operands() {
        // `*`/`/` legitimately change dimension; `r_m * r_m` IS an area.
        let src = r#"
fn f(cutoff_sq_m2: f64, r_m: f64, gain: f64, p_mw: f64) -> (bool, f64) {
    (cutoff_sq_m2 <= r_m * r_m, p_mw + gain)
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn mix_follows_field_chains() {
        let src = r#"
fn f(cfg: &Config, x_mw: f64) -> f64 {
    x_mw + cfg.noise_floor_dbm
}
"#;
        assert_eq!(codes(src), vec!["U1.mix"]);
    }

    #[test]
    fn mix_respects_allow_and_test_regions() {
        let src = r#"
fn f(a_db: f64, b_mw: f64) -> f64 {
    a_db + b_mw // lint:allow(U1.mix, reason = "fixture: intentional mix")
}
#[cfg(test)]
mod tests {
    #[test]
    fn t(a_db: f64, b_mw: f64) {
        let _ = a_db + b_mw;
    }
}
"#;
        assert!(codes(src).is_empty());
    }

    // ---- U1.bind ----

    #[test]
    fn bind_flags_single_term_cross_unit_initializers() {
        let src = r#"
fn f(area_m2: f64) {
    let range_m = area_m2;
    let _ = range_m;
}
"#;
        assert_eq!(codes(src), vec!["U1.bind"]);
    }

    #[test]
    fn bind_is_exact_about_db_vs_dbm() {
        let src = r#"
fn f(tx_dbm: f64) {
    let headroom_db = tx_dbm;
    let _ = headroom_db;
}
"#;
        assert_eq!(codes(src), vec!["U1.bind"]);
    }

    #[test]
    fn bind_skips_multi_term_and_matching_units() {
        let src = r#"
fn f(cutoff_m: f64, base_mw: f64, extra_mw: f64) {
    let cutoff_sq_m2 = cutoff_m * cutoff_m;
    let total_mw = base_mw + extra_mw;
    let also_mw = total_mw;
    let _ = (cutoff_sq_m2, also_mw);
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn bind_sees_conversion_call_outputs() {
        let src = r#"
fn f(p_dbm: f64) {
    let power_db = dbm_to_mw(p_dbm);
    let power_mw = dbm_to_mw(p_dbm);
    let _ = (power_db, power_mw);
}
"#;
        assert_eq!(codes(src), vec!["U1.bind"]);
    }

    #[test]
    fn bind_flags_plain_assignments_and_casts() {
        let src = r#"
fn f(slots: u32, horizon_secs: f64) {
    let mut epoch_slots = 0u32;
    epoch_slots = horizon_secs as u32;
    let _ = (slots, epoch_slots);
}
"#;
        assert_eq!(codes(src), vec!["U1.bind"]);
    }

    #[test]
    fn bind_respects_allow_and_test_regions() {
        let src = r#"
fn f(area_m2: f64) {
    // lint:allow(U1.bind, reason = "fixture: legacy name kept for ABI")
    let range_m = area_m2;
    let _ = range_m;
}
#[cfg(test)]
mod tests {
    #[test]
    fn t(area_m2: f64) {
        let range_m = area_m2;
        let _ = range_m;
    }
}
"#;
        assert!(codes(src).is_empty());
    }

    // ---- U1.conv ----

    #[test]
    fn conv_flags_db_argument_to_dbm_converter() {
        let src = r#"
fn f(loss_db: f64) -> f64 {
    dbm_to_mw(-loss_db)
}
"#;
        assert_eq!(codes(src), vec!["U1.conv"]);
    }

    #[test]
    fn conv_accepts_honest_arguments() {
        let src = r#"
fn f(p_dbm: f64, p_mw: f64, loss_db: f64, sinr: f64) -> (f64, f64, f64, f64) {
    (dbm_to_mw(p_dbm), mw_to_dbm(p_mw), db_to_linear(-loss_db), linear_to_db(sinr))
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn conv_flags_linear_to_db_on_absolute_power() {
        let src = r#"
fn f(p_mw: f64) -> f64 {
    linear_to_db(p_mw)
}
"#;
        assert_eq!(codes(src), vec!["U1.conv"]);
    }

    #[test]
    fn conv_stays_silent_on_unknown_arguments() {
        let src = r#"
fn f(x: f64, ys: &[f64]) -> f64 {
    dbm_to_mw(x) + dbm_to_mw(ys[0]) + dbm_to_mw(x.max(0.0))
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn conv_respects_allow_and_test_regions() {
        let src = r#"
fn f(loss_db: f64) -> f64 {
    dbm_to_mw(-loss_db) // lint:allow(U1.conv, reason = "fixture: pre-helper code")
}
#[cfg(test)]
mod tests {
    #[test]
    fn t(loss_db: f64) {
        let _ = dbm_to_mw(-loss_db);
    }
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn suffixes_map_to_units() {
        assert_eq!(suffix_unit("noise_floor_dbm"), Some(Unit::Dbm));
        assert_eq!(suffix_unit("sigma_db"), Some(Unit::Db));
        assert_eq!(suffix_unit("unit_mw"), Some(Unit::Mw));
        assert_eq!(suffix_unit("cutoff_m"), Some(Unit::Meters));
        assert_eq!(suffix_unit("cutoff_sq_m2"), Some(Unit::MetersSq));
        assert_eq!(suffix_unit("epoch_slots"), Some(Unit::Slots));
        assert_eq!(suffix_unit("horizon_secs"), Some(Unit::Secs));
        assert_eq!(suffix_unit("delivery_pct"), Some(Unit::Pct));
        assert_eq!(suffix_unit("LIMIT_DB"), Some(Unit::Db), "consts too");
        assert_eq!(suffix_unit("dbm"), Some(Unit::Dbm), "bare multi-char name");
        assert_eq!(suffix_unit("m"), None, "bare `m` is a loop variable");
        assert_eq!(suffix_unit("count"), None);
        assert_eq!(suffix_unit("trailing_"), None);
    }

    #[test]
    fn log_domain_units_share_a_class() {
        assert_eq!(Unit::Db.class(), Unit::Dbm.class());
        assert_ne!(Unit::Db.class(), Unit::Mw.class());
        assert_ne!(Unit::Meters.class(), Unit::MetersSq.class());
        assert_ne!(Unit::Slots.class(), Unit::Secs.class());
    }
}

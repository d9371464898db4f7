//! Token-level rule scanner for one source file.
//!
//! Operates on [`crate::lexer::scrub`]bed text: tokenizes it, computes a
//! per-token context (lexical loop depth, `#[cfg(test)]`/`#[test]` region),
//! and matches the rule patterns. Allow directives are applied here.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{is_ident_char, scrub, AllowDirective};

/// Every rule the scanner knows, by stable code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleCode {
    /// Ledger/accumulator construction inside a loop body.
    H1Alloc,
    /// Allocation/formatting inside a `scream_obs` emission argument list.
    O1Sink,
    /// A `pub fn` that only its own file's tests mention.
    S1Caller,
    /// Malformed or unknown `lint:allow` directive.
    L1Allow,
    /// Well-formed `lint:allow` that suppresses nothing.
    L1Unused,
}

impl RuleCode {
    /// Every rule the scanner knows.
    pub const ALL: &'static [RuleCode] = &[
        RuleCode::H1Alloc,
        RuleCode::O1Sink,
        RuleCode::S1Caller,
        RuleCode::L1Allow,
        RuleCode::L1Unused,
    ];

    pub fn code(self) -> &'static str {
        match self {
            RuleCode::H1Alloc => "H1.alloc",
            RuleCode::O1Sink => "O1.sink",
            RuleCode::S1Caller => "S1.caller",
            RuleCode::L1Allow => "L1.allow",
            RuleCode::L1Unused => "L1.unused",
        }
    }

    /// The part of the code before the dot (`H1` for `H1.alloc`).
    pub fn family(self) -> &'static str {
        let code = self.code();
        code.split_once('.').map_or(code, |(family, _)| family)
    }

    /// Rule names accepted inside `lint:allow(...)`: the code or the family
    /// of every rule but L1 itself.
    pub fn is_allowable_name(name: &str) -> bool {
        Self::ALL
            .iter()
            .filter(|r| r.family() != "L1")
            .any(|r| name == r.code() || name == r.family())
    }
}

/// One finding, anchored to `path:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    pub line: usize,
    pub rule: RuleCode,
    pub message: String,
}

const ACCUMULATOR_OPENERS: &[&str] = &["open_slot", "open_channel_ledger"];

const LEDGER_TYPES: &[&str] = &["SlotLedger", "ChannelSlotLedger"];

/// The `scream-obs` emission surface: free functions whose arguments must
/// stay allocation-free (`&'static str` names, `u64` values) so a disabled
/// sink really is a no-op (O1.sink).
const OBS_EMISSION_FNS: &[&str] = &[
    "counter_add",
    "gauge_set",
    "observe",
    "event",
    "set_slot",
    "set_round",
    "set_epoch",
];

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
    Num,
}

#[derive(Debug, Clone)]
struct Token {
    line: usize,
    tok: Tok,
}

fn tokenize(text: &str) -> Vec<Token> {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < n && is_ident_char(chars[i]) {
                i += 1;
            }
            toks.push(Token {
                line,
                tok: Tok::Ident(chars[start..i].iter().collect()),
            });
            continue;
        }
        if c.is_ascii_digit() {
            while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
            if i + 1 < n && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    i += 1;
                }
                if i < n && (chars[i] == 'e' || chars[i] == 'E') {
                    i += 1;
                    if i < n && (chars[i] == '+' || chars[i] == '-') {
                        i += 1;
                    }
                    while i < n && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            // Type-suffixed literals (`1.5f64`) leave the suffix as a
            // following ident token; harmless for our patterns.
            toks.push(Token {
                line,
                tok: Tok::Num,
            });
            continue;
        }
        toks.push(Token {
            line,
            tok: Tok::Punct(c),
        });
        i += 1;
    }
    toks
}

/// Lexical context of each token: loop depth and test-region membership.
#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    loop_depth: u32,
    in_test: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Frame {
    Loop,
    Test,
    Other,
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Is the `for` at index `i` a loop header (vs `impl Trait for T`, HRTB
/// `for<'a>`, or `match` arms)?
fn is_loop_for(toks: &[Token], i: usize) -> bool {
    if punct_at(toks, i + 1, '<') {
        return false; // `for<'a>` higher-ranked bound
    }
    if i == 0 {
        return true;
    }
    match &toks[i - 1].tok {
        Tok::Punct(c) => match c {
            '{' | '}' | ';' | ':' | ',' | '(' => true,
            // `=> for ...` (match arm) is a loop; `impl X<T> for Y` is not.
            '>' => i >= 2 && punct_at(toks, i - 2, '='),
            _ => false,
        },
        _ => false,
    }
}

/// One pass of brace/attribute tracking, yielding per-token context.
fn contexts(toks: &[Token]) -> Vec<Ctx> {
    let mut out = Vec::with_capacity(toks.len());
    let mut stack: Vec<Frame> = Vec::new();
    let mut loop_depth = 0u32;
    let mut in_test_depth = 0u32;
    let mut pending_loop = false;
    let mut pending_test = false;
    let mut pending_paren = 0i32;

    let mut i = 0usize;
    while i < toks.len() {
        let cur = Ctx {
            loop_depth,
            in_test: in_test_depth > 0,
        };

        // Attributes: consume `#` `!`? `[` ... `]` as a unit so their
        // contents never interact with loop/test tracking, and detect
        // test-gating attrs (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test,..`).
        if punct_at(toks, i, '#') {
            let mut j = i + 1;
            if punct_at(toks, j, '!') {
                j += 1;
            }
            if punct_at(toks, j, '[') {
                let mut depth = 0i32;
                let mut saw_test = false;
                let mut saw_not = false;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        Tok::Ident(s) => {
                            if s == "test" {
                                saw_test = true;
                            }
                            if s == "not" {
                                saw_not = true;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if saw_test && !saw_not {
                    pending_test = true;
                    pending_paren = 0;
                }
                for _ in i..j {
                    out.push(cur);
                }
                i = j;
                continue;
            }
        }

        out.push(cur);
        match &toks[i].tok {
            Tok::Ident(s) if s == "for" && is_loop_for(toks, i) => {
                pending_loop = true;
                pending_paren = 0;
            }
            Tok::Ident(s) if s == "while" || s == "loop" => {
                pending_loop = true;
                pending_paren = 0;
            }
            Tok::Punct('(') => pending_paren += 1,
            Tok::Punct(')') => pending_paren -= 1,
            Tok::Punct(';') if pending_paren <= 0 => {
                pending_loop = false;
                pending_test = false;
            }
            Tok::Punct('{') => {
                let frame = if pending_paren <= 0 && pending_test {
                    Frame::Test
                } else if pending_paren <= 0 && pending_loop {
                    Frame::Loop
                } else {
                    Frame::Other
                };
                if frame != Frame::Other {
                    pending_loop = false;
                    pending_test = false;
                }
                match frame {
                    Frame::Loop => loop_depth += 1,
                    Frame::Test => in_test_depth += 1,
                    Frame::Other => {}
                }
                stack.push(frame);
            }
            Tok::Punct('}') => match stack.pop() {
                Some(Frame::Loop) => loop_depth = loop_depth.saturating_sub(1),
                Some(Frame::Test) => in_test_depth = in_test_depth.saturating_sub(1),
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    out
}

/// The census `S1.caller` reads: for every identifier, how many of `files`
/// mention it outside comments and literals, test code included.
pub(crate) fn files_mentioning<'a>(
    files: impl IntoIterator<Item = &'a str>,
) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for src in files {
        let names: BTreeSet<String> = tokenize(&scrub(src).text)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(name) => Some(name),
                _ => None,
            })
            .collect();
        for name in names {
            *counts.entry(name).or_default() += 1;
        }
    }
    counts
}

/// S1.caller — code whose only caller is a test is not product. A `pub fn`
/// is flagged when its name occurs in no other file of the census and, in
/// this file, only where it is defined and inside test regions.
fn scan_surface(
    path: &str,
    toks: &[Token],
    ctx: &[Ctx],
    files_mentioning: &BTreeMap<String, usize>,
    diags: &mut Vec<Diagnostic>,
) {
    let used_here: BTreeSet<&str> = (0..toks.len())
        .filter(|&i| !ctx[i].in_test && (i == 0 || ident_at(toks, i - 1) != Some("fn")))
        .filter_map(|i| ident_at(toks, i))
        .collect();
    for (i, at) in ctx.iter().enumerate() {
        if at.in_test || ident_at(toks, i) != Some("pub") {
            continue;
        }
        let at_fn = i + 1 + usize::from(ident_at(toks, i + 1) == Some("const"));
        let (Some("fn"), Some(name)) = (ident_at(toks, at_fn), ident_at(toks, at_fn + 1)) else {
            continue;
        };
        // This file is one of the files that mention the name.
        if !used_here.contains(name) && files_mentioning.get(name).is_none_or(|&n| n <= 1) {
            diags.push(Diagnostic {
                path: path.to_string(),
                line: toks[at_fn + 1].line,
                rule: RuleCode::S1Caller,
                message: format!(
                    "`pub fn {name}` is mentioned only by this file's own tests; delete it \
                     with the tests that have no other subject"
                ),
            });
        }
    }
}

/// Scan one source file and return its allow-filtered diagnostics. The
/// [`files_mentioning`] census of every scanned file, test, example and
/// binary turns `S1.caller` on; without it a file is judged on its own.
pub(crate) fn scan_source(
    path: &str,
    src: &str,
    files_mentioning: Option<&BTreeMap<String, usize>>,
) -> Vec<Diagnostic> {
    let scrubbed = scrub(src);
    let toks = tokenize(&scrubbed.text);
    let ctx = contexts(&toks);

    let mut diags: Vec<Diagnostic> = Vec::new();
    let push = |diags: &mut Vec<Diagnostic>, rule: RuleCode, line: usize, message: String| {
        diags.push(Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };

    for i in 0..toks.len() {
        if ctx[i].in_test {
            continue;
        }
        match &toks[i].tok {
            Tok::Ident(id) => {
                // O1.sink — allocation inside an obs emission argument list
                // (`scream_obs::event(&format!(..), ..)` and friends). The
                // sink API takes `&'static str` names and `u64` values so a
                // disabled sink allocates nothing; building strings or
                // vectors at the call site defeats that.
                if (id == "scream_obs" || id == "obs")
                    && punct_at(&toks, i + 1, ':')
                    && punct_at(&toks, i + 2, ':')
                    && ident_at(&toks, i + 3).is_some_and(|f| OBS_EMISSION_FNS.contains(&f))
                    && punct_at(&toks, i + 4, '(')
                {
                    let mut depth = 0i32;
                    let mut k = i + 4;
                    while k < toks.len() {
                        match &toks[k].tok {
                            Tok::Punct('(') => depth += 1,
                            Tok::Punct(')') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            Tok::Ident(a)
                                if (a == "format" || a == "vec") && punct_at(&toks, k + 1, '!') =>
                            {
                                push(
                                    &mut diags,
                                    RuleCode::O1Sink,
                                    toks[k].line,
                                    format!(
                                        "`{a}!` inside an obs emission argument allocates even \
                                         when the sink is disabled; emit `&'static str` names \
                                         and `u64` values only"
                                    ),
                                );
                            }
                            Tok::Ident(a)
                                if a == "String"
                                    && punct_at(&toks, k + 1, ':')
                                    && punct_at(&toks, k + 2, ':') =>
                            {
                                push(
                                    &mut diags,
                                    RuleCode::O1Sink,
                                    toks[k].line,
                                    "`String::` construction inside an obs emission argument \
                                     allocates even when the sink is disabled; emit `&'static \
                                     str` names and `u64` values only"
                                        .to_string(),
                                );
                            }
                            Tok::Punct('.')
                                if ident_at(&toks, k + 1).is_some_and(|m| {
                                    m == "to_string" || m == "to_owned" || m == "to_vec"
                                }) && punct_at(&toks, k + 2, '(') =>
                            {
                                push(
                                    &mut diags,
                                    RuleCode::O1Sink,
                                    toks[k + 1].line,
                                    format!(
                                        "`.{}()` inside an obs emission argument allocates even \
                                         when the sink is disabled; emit `&'static str` names \
                                         and `u64` values only",
                                        ident_at(&toks, k + 1).unwrap_or("to_string")
                                    ),
                                );
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                // H1.alloc — ledger type constructions inside loops.
                if ctx[i].loop_depth >= 1
                    && LEDGER_TYPES.contains(&id.as_str())
                    && punct_at(&toks, i + 1, ':')
                    && punct_at(&toks, i + 2, ':')
                {
                    push(
                        &mut diags,
                        RuleCode::H1Alloc,
                        toks[i].line,
                        format!(
                            "`{id}::` construction inside a loop; hoist it out and reuse \
                                 via `clear()`"
                        ),
                    );
                }
                if ctx[i].loop_depth >= 1
                    && id == "FrameService"
                    && punct_at(&toks, i + 1, ':')
                    && punct_at(&toks, i + 2, ':')
                    && ident_at(&toks, i + 3) == Some("from_schedule")
                {
                    push(
                        &mut diags,
                        RuleCode::H1Alloc,
                        toks[i].line,
                        "`FrameService::from_schedule` inside a loop rebuilds the frame \
                         index each iteration"
                            .to_string(),
                    );
                }
            }
            Tok::Punct('.') => {
                let Some(m) = ident_at(&toks, i + 1) else {
                    continue;
                };
                // H1.alloc — accumulator openers inside loops.
                if ctx[i].loop_depth >= 1
                    && ACCUMULATOR_OPENERS.contains(&m)
                    && punct_at(&toks, i + 2, '(')
                {
                    push(
                        &mut diags,
                        RuleCode::H1Alloc,
                        toks[i + 1].line,
                        format!(
                            "`.{m}()` allocates a fresh accumulator inside a loop; hoist \
                                 or justify the amortization with an allow"
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    if let Some(files_mentioning) = files_mentioning {
        scan_surface(path, &toks, &ctx, files_mentioning, &mut diags);
    }

    apply_allows(path, &scrubbed.text, &scrubbed.allows, diags)
}

/// Resolve allow directives against raw diagnostics; emit L1 findings for
/// malformed, unknown and unused directives.
fn apply_allows(
    path: &str,
    scrubbed_text: &str,
    allows: &[AllowDirective],
    diags: Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    // Per-line "carries code" map for standalone-directive targeting.
    let line_has_code: Vec<bool> = scrubbed_text
        .split('\n')
        .map(|l| l.chars().any(|c| !c.is_whitespace()))
        .collect();
    let target_of = |d: &AllowDirective| -> Option<usize> {
        if !d.standalone {
            return Some(d.line);
        }
        (d.line..line_has_code.len())
            .find(|&l| line_has_code[l])
            .map(|l| l + 1)
    };

    let mut out: Vec<Diagnostic> = Vec::new();
    let mut used = vec![false; allows.len()];
    // (target_line, allow index) for well-formed directives.
    let mut targets: Vec<(usize, usize)> = Vec::new();
    for (ai, d) in allows.iter().enumerate() {
        if let Some(err) = &d.error {
            out.push(Diagnostic {
                path: path.to_string(),
                line: d.line,
                rule: RuleCode::L1Allow,
                message: format!("malformed lint:allow — {err}"),
            });
            continue;
        }
        let mut bad_rule = false;
        for r in &d.rules {
            if !RuleCode::is_allowable_name(r) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: d.line,
                    rule: RuleCode::L1Allow,
                    message: format!("lint:allow names unknown rule `{r}`"),
                });
                bad_rule = true;
            }
        }
        if bad_rule {
            continue;
        }
        if let Some(line) = target_of(d) {
            targets.push((line, ai));
        }
    }

    for diag in diags {
        let mut suppressed = false;
        for &(line, ai) in &targets {
            if line != diag.line {
                continue;
            }
            let d = &allows[ai];
            if d.rules
                .iter()
                .any(|r| r == diag.rule.family() || r == diag.rule.code())
            {
                suppressed = true;
                used[ai] = true;
            }
        }
        if !suppressed {
            out.push(diag);
        }
    }

    for (ai, d) in allows.iter().enumerate() {
        if d.error.is_none() && !used[ai] && d.rules.iter().all(|r| RuleCode::is_allowable_name(r))
        {
            out.push(Diagnostic {
                path: path.to_string(),
                line: d.line,
                rule: RuleCode::L1Unused,
                message: format!(
                    "lint:allow({}) suppresses nothing; remove it",
                    d.rules.join(", ")
                ),
            });
        }
    }

    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        scan_source("crates/x/src/lib.rs", src, None)
            .into_iter()
            .map(|d| d.rule.code())
            .collect()
    }

    // ---- H1 ----

    #[test]
    fn h1_alloc_flags_construction_only_inside_loops() {
        let src = r#"
fn fine(env: &Environment) {
    let mut ledger = SlotLedger::new(env);
    ledger.clear();
}
fn bad(env: &Environment, xs: &[u32]) {
    for _x in xs {
        let mut ledger = SlotLedger::new(env);
        let acc = model.open_slot();
    }
}
"#;
        assert_eq!(codes(src), vec!["H1.alloc", "H1.alloc"]);
    }

    #[test]
    fn h1_alloc_tracks_loop_depth_through_nesting() {
        let src = r#"
fn f(env: &Environment) {
    let outer = ChannelSlotLedger::new(env);
    while remaining > 0 {
        if cond {
            let inner = env.open_channel_ledger();
        }
    }
    let after = env.open_channel_ledger();
}
"#;
        // Only the `while`-nested construction is flagged: the `if` block
        // adds a brace but not a loop, and `after` is back at depth 0.
        let d = scan_source("crates/x/src/lib.rs", src, None);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule.code(), "H1.alloc");
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn h1_impl_trait_for_is_not_a_loop() {
        let src = r#"
impl SlotFeasibility for Wrapper {
    fn probe(&self) -> bool { true }
}
fn f(env: &Environment) {
    let l = SlotLedger::new(env);
}
"#;
        assert!(codes(src).is_empty());
    }

    // ---- S1 ----

    #[test]
    fn s1_flags_a_pub_fn_only_its_own_tests_mention() {
        let src = r#"
pub fn used_here() -> u32 { 1 }
pub fn used_elsewhere() -> u32 { used_here() }
pub const fn test_only() -> u32 { 2 }
pub(crate) fn not_public() {}
// lint:allow(S1.caller, reason = "the negative test needs it")
pub fn excused() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(super::test_only(), 2); super::excused(); }
}
"#;
        let census = |other: &str| {
            let census = files_mentioning([src, other]);
            scan_source("crates/x/src/lib.rs", src, Some(&census))
        };
        let alone = census("fn main() { used_elsewhere(); }");
        assert_eq!(alone.len(), 1, "{alone:?}");
        assert_eq!((alone[0].rule.code(), alone[0].line), ("S1.caller", 4));
        // A mention in any other file — a test, an example, a string-free
        // line of `benchmark/` — is a use; a comment is not.
        let called = "fn main() { used_elsewhere(); test_only(); /* excused() */ }";
        assert!(census(called).is_empty());
        // On its own a file is not judged: the rule needs the census.
        assert!(codes(src).contains(&"L1.unused"));
        assert!(!codes(src).contains(&"S1.caller"));
    }

    // ---- allows + L1 ----

    #[test]
    fn allow_suppresses_same_line_and_next_line() {
        let src = r#"
fn f(env: &Environment, xs: &[u32]) {
    for _x in xs {
        let acc = env.open_slot(); // lint:allow(H1, reason = "one accumulator per frame, not per probe")
    }
}
fn g() {
    // lint:allow(O1, reason = "cold path")
    scream_obs::event(&format!("x"), &[]);
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn allow_with_full_code_matches() {
        let src = r#"
fn f(env: &Environment, xs: &[u32]) {
    for _x in xs {
        let acc = env.open_slot(); // lint:allow(H1.alloc, reason = "one accumulator per frame")
    }
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_l1() {
        let src = r#"
fn g() {
    scream_obs::event(&format!("x"), &[]); // lint:allow(O1)
}
"#;
        let c = codes(src);
        assert!(c.contains(&"L1.allow"), "{c:?}");
        assert!(
            c.contains(&"O1.sink"),
            "unsuppressed without a valid allow: {c:?}"
        );
    }

    #[test]
    fn allow_unknown_rule_is_l1() {
        let src = r#"
fn g() -> u32 {
    1 // lint:allow(Q9, reason = "no such rule")
}
"#;
        assert_eq!(codes(src), vec!["L1.allow"]);
        // A rule clippy carries now is as unknown here as one that never was.
        let src =
            "fn g() -> u32 { 1 } // lint:allow(P1, reason = \"moved to clippy::unwrap_used\")";
        assert_eq!(codes(src), vec!["L1.allow"]);
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = r#"
fn g() -> u32 {
    1 // lint:allow(O1, reason = "nothing here needs it")
}
"#;
        assert_eq!(codes(src), vec!["L1.unused"]);
    }

    #[test]
    fn allow_for_wrong_family_does_not_suppress() {
        let src = r#"
fn g() {
    scream_obs::event(&format!("x"), &[]); // lint:allow(H1, reason = "wrong family")
}
"#;
        let c = codes(src);
        assert!(c.contains(&"O1.sink"), "{c:?}");
        assert!(c.contains(&"L1.unused"), "{c:?}");
    }

    // ---- O1.sink ----

    #[test]
    fn o1_flags_format_in_emission_args() {
        let src = r#"
fn f(link: u32) {
    scream_obs::event(&format!("link.{link}"), &[]);
}
"#;
        assert_eq!(codes(src), vec!["O1.sink"]);
    }

    #[test]
    fn o1_flags_to_string_and_string_from() {
        let src = r#"
fn f(n: u64) {
    scream_obs::counter_add(name.to_string(), 1);
    obs::gauge_set(String::from("fill"), n);
}
"#;
        assert_eq!(codes(src), vec!["O1.sink", "O1.sink"]);
    }

    #[test]
    fn o1_flags_vec_macro_in_event_fields() {
        let src = r#"
fn f() {
    scream_obs::event("greedy.link", &vec![("head", 1u64)]);
}
"#;
        assert_eq!(codes(src), vec!["O1.sink"]);
    }

    #[test]
    fn o1_ignores_static_emission() {
        let src = r#"
fn f(rejects: u64) {
    scream_obs::counter_add("ledger.probe.reject", rejects);
    scream_obs::observe("greedy.firstfit.depth", rejects.saturating_add(1));
    scream_obs::event("greedy.link", &[("rejects", rejects)]);
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn o1_ignores_allocation_outside_emission() {
        // ... and emission calls that are only prose or string contents.
        let src = r#"
// this mentions scream_obs::event(&format!("x"), &[]) in prose
fn f(rejects: u64) -> String {
    scream_obs::counter_add("x", rejects);
    let _ = "contains scream_obs::event(&format!(text), &[])";
    format!("{rejects} rejects")
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn o1_ignores_test_code_but_not_cfg_not_test() {
        let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        scream_obs::event(&format!("free-form"), &[]);
    }
}
"#;
        assert!(codes(src).is_empty());
        let src = "#[cfg(not(test))]\nfn lib() { scream_obs::event(&format!(\"x\"), &[]); }";
        assert_eq!(codes(src), vec!["O1.sink"]);
    }

    #[test]
    fn o1_is_allow_suppressible() {
        let src = r#"
fn f() {
    scream_obs::event(&format!("x"), &[]) // lint:allow(O1.sink, reason = "cold path")
}
"#;
        assert!(codes(src).is_empty());
    }
}

//! Token-level rule scanner for one source file.
//!
//! Operates on [`crate::lexer::scrub`]bed text: tokenizes it, computes a
//! per-token context (lexical loop depth, `#[cfg(test)]`/`#[test]` region),
//! and matches the rule patterns. Allow directives are applied here.

use crate::lexer::{is_ident_char, scrub, AllowDirective};
use std::collections::BTreeSet;

/// Every rule the scanner knows, by stable code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleCode {
    /// Iteration over a `HashMap`/`HashSet` in deterministic library code.
    D1Iter,
    /// `Instant::now` / `SystemTime` / `thread_rng` outside bench surfaces.
    D1Clock,
    /// `unwrap`/`expect`/`panic!`-family in non-test library code.
    P1Panic,
    /// `.slots()` expansion outside tests.
    H1Hot,
    /// Ledger/accumulator construction inside a loop body.
    H1Alloc,
    /// `partial_cmp(..).unwrap()` — NaN panics; use `total_cmp`.
    F1Cmp,
    /// `==`/`!=` against a float literal in verdict code.
    F1Eq,
    /// Cross-unit arithmetic/comparison (`a_db + b_mw`).
    U1Mix,
    /// Cross-unit binding/assignment (`let range_m = area_m2`).
    U1Bind,
    /// Suffix-dishonest conversion call (`dbm_to_mw(-loss_db)`).
    U1Conv,
    /// Allocation/formatting inside a `scream_obs` emission argument list.
    O1Sink,
    /// Malformed or unknown `lint:allow` directive.
    L1Allow,
    /// Well-formed `lint:allow` that suppresses nothing.
    L1Unused,
}

impl RuleCode {
    pub fn code(self) -> &'static str {
        match self {
            RuleCode::D1Iter => "D1.iter",
            RuleCode::D1Clock => "D1.clock",
            RuleCode::P1Panic => "P1.panic",
            RuleCode::H1Hot => "H1.hot",
            RuleCode::H1Alloc => "H1.alloc",
            RuleCode::F1Cmp => "F1.cmp",
            RuleCode::F1Eq => "F1.eq",
            RuleCode::U1Mix => "U1.mix",
            RuleCode::U1Bind => "U1.bind",
            RuleCode::U1Conv => "U1.conv",
            RuleCode::O1Sink => "O1.sink",
            RuleCode::L1Allow => "L1.allow",
            RuleCode::L1Unused => "L1.unused",
        }
    }

    pub fn family(self) -> &'static str {
        match self {
            RuleCode::D1Iter | RuleCode::D1Clock => "D1",
            RuleCode::P1Panic => "P1",
            RuleCode::H1Hot | RuleCode::H1Alloc => "H1",
            RuleCode::F1Cmp | RuleCode::F1Eq => "F1",
            RuleCode::U1Mix | RuleCode::U1Bind | RuleCode::U1Conv => "U1",
            RuleCode::O1Sink => "O1",
            RuleCode::L1Allow | RuleCode::L1Unused => "L1",
        }
    }

    /// Rule names accepted inside `lint:allow(...)`.
    pub fn is_allowable_name(name: &str) -> bool {
        matches!(
            name,
            "D1" | "P1"
                | "H1"
                | "F1"
                | "U1"
                | "D1.iter"
                | "D1.clock"
                | "P1.panic"
                | "H1.hot"
                | "H1.alloc"
                | "F1.cmp"
                | "F1.eq"
                | "U1.mix"
                | "U1.bind"
                | "U1.conv"
                | "O1"
                | "O1.sink"
        )
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

/// Which optional rule groups apply to the crate being scanned.
#[derive(Debug, Clone, Copy)]
pub struct ScanPolicy {
    /// D1.iter — hash-order determinism (all deterministic crates).
    pub hash_iter: bool,
    /// D1.clock — wall-clock/thread-rng ban (off for bench surfaces).
    pub wall_clock: bool,
    /// F1.eq — float-literal equality (verdict-producing crates only).
    pub float_eq: bool,
    /// U1 — unit-suffix hygiene (all crates).
    pub units: bool,
    /// O1.sink — obs emission must stay allocation-free (all crates).
    pub obs_sink: bool,
}

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

const ACCUMULATOR_OPENERS: &[&str] = &["open_slot", "open_slot_ledger", "open_channel_ledger"];

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
pub(crate) enum Tok {
    Ident(String),
    Punct(char),
    Num { float: bool },
}

#[derive(Debug, Clone)]
pub(crate) struct Token {
    pub(crate) line: usize,
    pub(crate) tok: Tok,
}

pub(crate) fn tokenize(text: &str) -> Vec<Token> {
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
            let mut float = false;
            if i + 1 < n && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                float = true;
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
                tok: Tok::Num { float },
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
pub(crate) struct Ctx {
    pub(crate) loop_depth: u32,
    pub(crate) in_test: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Frame {
    Loop,
    Test,
    Other,
}

pub(crate) fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

fn float_at(toks: &[Token], i: usize) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Num { float: true }))
}

/// Is the `for` at index `i` a loop header (vs `impl Trait for T`, HRTB
/// `for<'a>`, or `match` arms)?
pub(crate) fn is_loop_for(toks: &[Token], i: usize) -> bool {
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
pub(crate) fn contexts(toks: &[Token]) -> Vec<Ctx> {
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

/// Names bound to `HashMap`/`HashSet` values in non-test code: `name: HashMap
/// <..>` (field, param, ascription) and `name = HashMap::new()` forms.
fn collect_hash_idents(toks: &[Token], ctx: &[Ctx]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, c) in ctx.iter().enumerate() {
        let Some(id) = ident_at(toks, i) else {
            continue;
        };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        if c.in_test {
            continue;
        }
        // Step back over a `std::collections::` style path prefix.
        let mut j = i as isize - 1;
        while j >= 1 && punct_at(toks, j as usize, ':') && punct_at(toks, j as usize - 1, ':') {
            j -= 2;
            if j >= 0 && ident_at(toks, j as usize).is_some() {
                j -= 1;
            }
        }
        // Step back over `&`, `&mut` in parameter positions.
        while j >= 0
            && (punct_at(toks, j as usize, '&') || ident_at(toks, j as usize) == Some("mut"))
        {
            j -= 1;
        }
        if j < 1 {
            continue;
        }
        let j = j as usize;
        // `name: HashMap<..>` ascription/field/param, or `name = HashMap::..`
        // assignment (excluding `::` paths and `==`).
        let ascription = punct_at(toks, j, ':') && !punct_at(toks, j - 1, ':');
        let assignment = punct_at(toks, j, '=') && !punct_at(toks, j - 1, '=');
        let binder = if ascription || assignment {
            ident_at(toks, j - 1)
        } else {
            None
        };
        if let Some(name) = binder {
            if name != "mut" {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// Scan one source file and return its allow-filtered diagnostics.
pub fn scan_source(path: &str, src: &str, policy: ScanPolicy) -> Vec<Diagnostic> {
    let scrubbed = scrub(src);
    let toks = tokenize(&scrubbed.text);
    let ctx = contexts(&toks);
    let hash_names = if policy.hash_iter {
        collect_hash_idents(&toks, &ctx)
    } else {
        BTreeSet::new()
    };

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
                // D1.iter — `name.iter()` family on a hash-typed binding.
                if policy.hash_iter
                    && hash_names.contains(id.as_str())
                    && punct_at(&toks, i + 1, '.')
                {
                    if let Some(m) = ident_at(&toks, i + 2) {
                        if HASH_ITER_METHODS.contains(&m) && punct_at(&toks, i + 3, '(') {
                            push(
                                &mut diags,
                                RuleCode::D1Iter,
                                toks[i + 2].line,
                                format!(
                                    "iteration over hash-ordered `{id}` (`.{m}()`) is \
                                     non-deterministic; use BTreeMap/BTreeSet or sort the \
                                     results"
                                ),
                            );
                        }
                    }
                }
                // D1.iter — `for x in &name {`.
                if policy.hash_iter && id == "for" && is_loop_for(&toks, i) {
                    let mut k = i + 1;
                    let mut paren = 0i32;
                    while k < toks.len() {
                        match &toks[k].tok {
                            Tok::Punct('(') => paren += 1,
                            Tok::Punct(')') => paren -= 1,
                            Tok::Punct('{') if paren <= 0 => break,
                            Tok::Ident(s) if s == "in" && paren <= 0 => {
                                let mut v = k + 1;
                                while punct_at(&toks, v, '&') || ident_at(&toks, v) == Some("mut") {
                                    v += 1;
                                }
                                if let Some(name) = ident_at(&toks, v) {
                                    if hash_names.contains(name) && punct_at(&toks, v + 1, '{') {
                                        push(
                                            &mut diags,
                                            RuleCode::D1Iter,
                                            toks[v].line,
                                            format!(
                                                "`for .. in` over hash-ordered `{name}` is \
                                                 non-deterministic; use BTreeMap/BTreeSet or \
                                                 sort first"
                                            ),
                                        );
                                    }
                                }
                                break;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                // D1.clock.
                if policy.wall_clock {
                    if id == "Instant"
                        && punct_at(&toks, i + 1, ':')
                        && punct_at(&toks, i + 2, ':')
                        && ident_at(&toks, i + 3) == Some("now")
                    {
                        push(
                            &mut diags,
                            RuleCode::D1Clock,
                            toks[i].line,
                            "`Instant::now` in deterministic code; timing belongs in bench \
                             surfaces"
                                .to_string(),
                        );
                    }
                    if id == "SystemTime" {
                        push(
                            &mut diags,
                            RuleCode::D1Clock,
                            toks[i].line,
                            "`SystemTime` in deterministic code; timing belongs in bench \
                             surfaces"
                                .to_string(),
                        );
                    }
                    if id == "thread_rng" {
                        push(
                            &mut diags,
                            RuleCode::D1Clock,
                            toks[i].line,
                            "`thread_rng` is unseeded; use the seeded generators".to_string(),
                        );
                    }
                }
                // O1.sink — allocation inside an obs emission argument list
                // (`scream_obs::event(&format!(..), ..)` and friends). The
                // sink API takes `&'static str` names and `u64` values so a
                // disabled sink allocates nothing; building strings or
                // vectors at the call site defeats that.
                if policy.obs_sink
                    && (id == "scream_obs" || id == "obs")
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
                // P1 — macro panics.
                if matches!(
                    id.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && punct_at(&toks, i + 1, '!')
                {
                    push(
                        &mut diags,
                        RuleCode::P1Panic,
                        toks[i].line,
                        format!(
                            "`{id}!` in library code; return an error or justify with an \
                                 allow"
                        ),
                    );
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
                // F1.cmp — partial_cmp(..).unwrap()/.expect(..).
                if id == "partial_cmp" && ident_at(&toks, i.wrapping_sub(1)) != Some("fn") {
                    let mut k = i + 1;
                    let limit = (i + 40).min(toks.len());
                    while k < limit {
                        if punct_at(&toks, k, ';') {
                            break;
                        }
                        if punct_at(&toks, k, '.') {
                            if let Some(m) = ident_at(&toks, k + 1) {
                                if m == "unwrap" || m == "expect" {
                                    push(
                                        &mut diags,
                                        RuleCode::F1Cmp,
                                        toks[i].line,
                                        "`partial_cmp(..).unwrap()` panics on NaN; use \
                                         `total_cmp`"
                                            .to_string(),
                                    );
                                    break;
                                }
                            }
                        }
                        k += 1;
                    }
                }
            }
            Tok::Punct('.') => {
                let Some(m) = ident_at(&toks, i + 1) else {
                    continue;
                };
                // P1 — `.unwrap()` / `.expect(`.
                if m == "unwrap" && punct_at(&toks, i + 2, '(') && punct_at(&toks, i + 3, ')') {
                    push(
                        &mut diags,
                        RuleCode::P1Panic,
                        toks[i + 1].line,
                        "`.unwrap()` in library code; handle the None/Err or justify with \
                         an allow"
                            .to_string(),
                    );
                }
                if m == "expect" && punct_at(&toks, i + 2, '(') {
                    push(
                        &mut diags,
                        RuleCode::P1Panic,
                        toks[i + 1].line,
                        "`.expect(..)` in library code; handle the None/Err or justify \
                         with an allow"
                            .to_string(),
                    );
                }
                // H1.hot — `.slots()` expansion.
                if m == "slots" && punct_at(&toks, i + 2, '(') && punct_at(&toks, i + 3, ')') {
                    push(
                        &mut diags,
                        RuleCode::H1Hot,
                        toks[i + 1].line,
                        "`.slots()` expands the run-length schedule; iterate \
                         `Schedule::runs()` on library paths"
                            .to_string(),
                    );
                }
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
            // F1.eq — `== 1.0` / `!= 1.0` and the mirrored forms.
            Tok::Punct(op @ ('=' | '!'))
                if policy.float_eq && punct_at(&toks, i + 1, '=') && float_at(&toks, i + 2) =>
            {
                // Exclude `>=`, `<=`, `=>` by checking the previous token
                // is not part of a two-char operator ending here.
                let prev_op = matches!(
                    toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                    Some(Tok::Punct('<' | '>' | '=' | '!'))
                );
                if !(*op == '=' && prev_op) {
                    push(
                        &mut diags,
                        RuleCode::F1Eq,
                        toks[i].line,
                        "exact float comparison in verdict code; compare with a \
                         tolerance or use `total_cmp`"
                            .to_string(),
                    );
                }
            }
            Tok::Num { float: true }
                if policy.float_eq
                    && ((punct_at(&toks, i + 1, '=') && punct_at(&toks, i + 2, '='))
                        || (punct_at(&toks, i + 1, '!') && punct_at(&toks, i + 2, '='))) =>
            {
                push(
                    &mut diags,
                    RuleCode::F1Eq,
                    toks[i].line,
                    "exact float comparison in verdict code; compare with a tolerance \
                     or use `total_cmp`"
                        .to_string(),
                );
            }
            _ => {}
        }
    }

    if policy.units {
        let symbols = crate::symbols::index_tokens(&toks, &ctx);
        crate::units::scan_units(path, &toks, &ctx, &symbols, &mut diags);
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

    const ALL: ScanPolicy = ScanPolicy {
        hash_iter: true,
        wall_clock: true,
        float_eq: true,
        units: true,
        obs_sink: true,
    };

    fn codes(src: &str) -> Vec<&'static str> {
        scan_source("crates/x/src/lib.rs", src, ALL)
            .into_iter()
            .map(|d| d.rule.code())
            .collect()
    }

    // ---- D1.iter ----

    #[test]
    fn d1_flags_hash_map_iteration() {
        let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> Vec<u32> {
    m.keys().copied().collect()
}
"#;
        assert_eq!(codes(src), vec!["D1.iter"]);
    }

    #[test]
    fn d1_flags_for_loop_over_hash_set() {
        let src = r#"
fn f() {
    let mut seen: std::collections::HashSet<u64> = Default::default();
    for v in &seen {
        let _ = v;
    }
}
"#;
        assert_eq!(codes(src), vec!["D1.iter"]);
    }

    #[test]
    fn d1_ignores_lookup_only_hash_use() {
        let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> Option<u32> {
    m.get(&3).copied()
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn d1_ignores_btree_iteration() {
        let src = r#"
use std::collections::BTreeMap;
fn f(m: &BTreeMap<u32, u32>) -> Vec<u32> {
    m.keys().copied().collect()
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn d1_flags_assignment_bound_hash() {
        let src = r#"
fn f() {
    let mut index = std::collections::HashMap::new();
    index.insert(1u32, 2u32);
    let _: Vec<_> = index.values().collect();
}
"#;
        assert_eq!(codes(src), vec!["D1.iter"]);
    }

    #[test]
    fn d1_clock_flags_instant_and_thread_rng() {
        let src = r#"
fn f() {
    let t = Instant::now();
    let r = thread_rng();
}
"#;
        assert_eq!(codes(src), vec!["D1.clock", "D1.clock"]);
    }

    #[test]
    fn d1_clock_respects_policy() {
        let src = "fn f() { let t = Instant::now(); }";
        let p = ScanPolicy {
            wall_clock: false,
            ..ALL
        };
        assert!(scan_source("crates/bench/src/lib.rs", src, p).is_empty());
    }

    // ---- P1 ----

    #[test]
    fn p1_flags_unwrap_expect_and_panics() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    if x.is_none() {
        panic!("boom");
    }
    x.unwrap()
}
fn g(x: Option<u32>) -> u32 {
    x.expect("present")
}
"#;
        assert_eq!(codes(src), vec!["P1.panic", "P1.panic", "P1.panic"]);
    }

    #[test]
    fn p1_ignores_unwrap_or_family() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    x.unwrap_or(0).max(x.unwrap_or_default())
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn p1_ignores_test_modules() {
        let src = r#"
fn lib_code() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1u32).unwrap();
        panic!("fine in tests");
    }
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn p1_ignores_cfg_not_test_is_still_checked() {
        let src = r#"
#[cfg(not(test))]
fn lib_code(x: Option<u32>) -> u32 { x.unwrap() }
"#;
        assert_eq!(codes(src), vec!["P1.panic"]);
    }

    #[test]
    fn p1_ignores_strings_and_comments() {
        let src = r#"
// this mentions .unwrap() and panic!("x") in prose
fn f() -> &'static str {
    "contains .unwrap() and panic!(text)"
}
"#;
        assert!(codes(src).is_empty());
    }

    // ---- H1 ----

    #[test]
    fn h1_flags_slots_expansion() {
        let src = r#"
fn f(s: &Schedule) -> usize {
    let n = s.slots().len();
    n
}
"#;
        assert_eq!(codes(src), vec!["H1.hot"]);
    }

    #[test]
    fn h1_slots_definition_is_not_flagged() {
        let src = r#"
impl Schedule {
    pub fn slots(&self) -> Vec<SlotPattern> {
        Vec::new()
    }
}
"#;
        assert!(codes(src).is_empty());
    }

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
    let outer = ChannelSlotLedger::new(env, 2);
    while remaining > 0 {
        if cond {
            let inner = env.open_slot_ledger();
        }
    }
    let after = env.open_slot_ledger();
}
"#;
        // Only the `while`-nested construction is flagged: the `if` block
        // adds a brace but not a loop, and `after` is back at depth 0.
        let d = scan_source("crates/x/src/lib.rs", src, ALL);
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

    // ---- F1 ----

    #[test]
    fn f1_flags_partial_cmp_unwrap() {
        let src = r#"
fn f(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
"#;
        let c = codes(src);
        assert!(c.contains(&"F1.cmp"), "{c:?}");
    }

    #[test]
    fn f1_ignores_total_cmp_and_partial_cmp_definitions() {
        let src = r#"
fn f(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn f1_flags_float_literal_equality() {
        let src = r#"
fn verdict(load: f64) -> bool {
    load == 1.0
}
"#;
        assert_eq!(codes(src), vec!["F1.eq"]);
    }

    #[test]
    fn f1_ignores_float_range_comparisons() {
        let src = r#"
fn verdict(load: f64) -> bool {
    load >= 1.0 && load <= 2.0 && 0.5 < load
}
"#;
        assert!(codes(src).is_empty());
    }

    // ---- allows + L1 ----

    #[test]
    fn allow_suppresses_same_line_and_next_line() {
        let src = r#"
fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {
    let mut v: Vec<u32> = m.keys().copied().collect(); // lint:allow(D1, reason = "sorted on the next line")
    v.sort_unstable();
    v
}
fn g(x: Option<u32>) -> u32 {
    // lint:allow(P1, reason = "guarded by caller invariant")
    x.unwrap()
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn allow_with_full_code_matches() {
        let src = r#"
fn g(x: Option<u32>) -> u32 {
    x.unwrap() // lint:allow(P1.panic, reason = "infallible by construction")
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_l1() {
        let src = r#"
fn g(x: Option<u32>) -> u32 {
    x.unwrap() // lint:allow(P1)
}
"#;
        let c = codes(src);
        assert!(c.contains(&"L1.allow"), "{c:?}");
        assert!(
            c.contains(&"P1.panic"),
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
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = r#"
fn g() -> u32 {
    1 // lint:allow(P1, reason = "nothing here needs it")
}
"#;
        assert_eq!(codes(src), vec!["L1.unused"]);
    }

    #[test]
    fn allow_for_wrong_family_does_not_suppress() {
        let src = r#"
fn g(x: Option<u32>) -> u32 {
    x.unwrap() // lint:allow(D1, reason = "wrong family")
}
"#;
        let c = codes(src);
        assert!(c.contains(&"P1.panic"), "{c:?}");
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
        let src = r#"
fn f(rejects: u64) -> String {
    scream_obs::counter_add("x", rejects);
    format!("{rejects} rejects")
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn o1_ignores_test_code_and_respects_policy() {
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
        let src = "fn f() { scream_obs::event(&format!(\"x\"), &[]); }";
        let p = ScanPolicy {
            obs_sink: false,
            ..ALL
        };
        assert!(scan_source("crates/x/src/lib.rs", src, p).is_empty());
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

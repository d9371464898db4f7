//! Per-file binding and call-site indexer built on the scrubbing lexer.
//!
//! One pass over the token stream recovers what the **U1** unit-hygiene
//! rules (`crate::units`) read: `let`/`const`/`static` bindings of a plain
//! identifier with their initializer token ranges, and call sites with the
//! position of their argument list. Still purely lexical — no `syn`, no
//! rustc — so it tolerates code that does not compile and runs in the
//! offline container.

use crate::scan::{ident_at, punct_at, Ctx, Tok, Token};

/// One `let`, `const` or `static` binding of a plain identifier.
#[derive(Debug, Clone)]
pub struct Binding {
    pub name: String,
    pub line: usize,
    /// Token range (exclusive end) of the initializer expression.
    pub init: (usize, usize),
    pub in_test: bool,
}

/// One call site: `callee(..)`, `path::callee(..)` or `.callee(..)`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Last path segment of the callee.
    pub callee: String,
    pub line: usize,
    /// Token index of the opening `(` — the argument list starts after it.
    pub args_open: usize,
    pub in_test: bool,
}

/// Everything the indexer recovered from one file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    pub bindings: Vec<Binding>,
    pub calls: Vec<CallSite>,
}

/// Keywords that look like call syntax when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "in", "as", "let", "else", "loop", "move",
    "break", "continue", "where", "impl", "dyn", "pub", "crate", "super", "self", "Self", "mut",
    "ref", "use", "mod", "const", "static", "unsafe", "async", "await", "yield",
];

/// Find the initializer token range of a `let`/`const` starting at `eq + 1`:
/// up to the terminating `;` at zero bracket depth (skipping bodies of
/// closures/blocks nested in the initializer).
fn init_range(toks: &[Token], eq: usize) -> (usize, usize) {
    let mut depth = 0i32;
    let mut i = eq + 1;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct(';') if depth <= 0 => return (eq + 1, i),
            _ => {}
        }
        i += 1;
    }
    (eq + 1, i)
}

/// Index one scrubbed file already tokenized by the scanner; `ctx` is its
/// per-token context from [`crate::scan::contexts`].
pub(crate) fn index_tokens(toks: &[Token], ctx: &[Ctx]) -> FileSymbols {
    let in_test = |i: usize| ctx.get(i).is_some_and(|c| c.in_test);
    let mut syms = FileSymbols::default();
    let mut i = 0usize;
    while i < toks.len() {
        // Attributes (`#[cfg(test)]`, `#[derive(..)]`) look like calls;
        // skip them wholesale, as the context pass does.
        if punct_at(toks, i, '#') {
            let mut j = i + 1;
            if punct_at(toks, j, '!') {
                j += 1;
            }
            if punct_at(toks, j, '[') {
                let mut depth = 0i32;
                while j < toks.len() {
                    if punct_at(toks, j, '[') {
                        depth += 1;
                    } else if punct_at(toks, j, ']') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
        }
        match ident_at(toks, i) {
            // `fn name(` declares; it does not call.
            Some("fn") if ident_at(toks, i + 1).is_some() => {
                i += 2;
                continue;
            }
            Some("let" | "const" | "static") => {
                // `let [mut] name [: Type] = init ;` — plain identifier
                // patterns only (destructuring has no single unit).
                let mut j = i + 1;
                while matches!(ident_at(toks, j), Some("mut")) {
                    j += 1;
                }
                if let Some(name) = ident_at(toks, j) {
                    let mut k = j + 1;
                    if punct_at(toks, k, ':') && !punct_at(toks, k + 1, ':') {
                        // Skip the type ascription up to `=` or `;`.
                        let mut angle = 0i32;
                        let mut depth = 0i32;
                        k += 1;
                        while k < toks.len() {
                            match &toks[k].tok {
                                Tok::Punct('<') => angle += 1,
                                Tok::Punct('>') => angle -= 1,
                                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                                Tok::Punct('=') if angle <= 0 && depth <= 0 => break,
                                Tok::Punct(';') | Tok::Punct('{') if angle <= 0 && depth <= 0 => {
                                    break
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    // Plain `=` only; `==` is a comparison in `if let`-less code.
                    if punct_at(toks, k, '=') && !punct_at(toks, k + 1, '=') {
                        // `let .. = .. else { .. }` bindings still record the
                        // range up to `;`; the `else` arm is part of the init
                        // and defeats single-term unit inference, harmlessly.
                        syms.bindings.push(Binding {
                            name: name.to_string(),
                            line: toks[j].line,
                            init: init_range(toks, k),
                            in_test: in_test(j),
                        });
                    }
                }
            }
            // Call sites: `name(..)`, `path::name(..)`, `.name(..)`. Macro
            // invocations (`name!(`) have a `!` in between and never match.
            Some(name) if punct_at(toks, i + 1, '(') && !NON_CALL_KEYWORDS.contains(&name) => {
                syms.calls.push(CallSite {
                    callee: name.to_string(),
                    line: toks[i].line,
                    args_open: i + 1,
                    in_test: in_test(i),
                });
            }
            _ => {}
        }
        i += 1;
    }
    syms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{contexts, tokenize};

    fn index_source(src: &str) -> FileSymbols {
        let toks = tokenize(&crate::lexer::scrub(src).text);
        index_tokens(&toks, &contexts(&toks))
    }

    #[test]
    fn free_path_and_method_calls_are_indexed_but_declarations_are_not() {
        let src = r#"
fn outer() {
    helper(1);
    Type::assoc(2);
    value.method(3);
}
fn standalone() { nested::path::deep(4); }
"#;
        let s = index_source(src);
        let callees: Vec<&str> = s.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, vec!["helper", "assoc", "method", "deep"]);
        assert_eq!(s.calls[0].line, 3);
        assert_eq!(s.calls[3].line, 7);
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let src = r#"
fn f(x: u32) -> u32 {
    if (x > 1) { return (x); }
    match (x) { _ => vec![x] }
}
"#;
        let s = index_source(src);
        assert!(s.calls.is_empty(), "{:?}", s.calls);
    }

    #[test]
    fn let_and_const_bindings_record_initializer_ranges() {
        let src = r#"
const LIMIT_DB: f64 = 10.0;
fn f() {
    let cutoff_m = range_m;
    let mut acc: f64 = base_mw + extra_mw;
    let (a, b) = pair();
}
"#;
        let s = index_source(src);
        let names: Vec<&str> = s.bindings.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, vec!["LIMIT_DB", "cutoff_m", "acc"]);
        for b in &s.bindings {
            assert!(b.init.0 < b.init.1);
        }
    }

    #[test]
    fn test_region_symbols_are_marked() {
        let src = r#"
fn lib_fn() { let a_m = helper(); }
#[cfg(test)]
mod tests {
    fn test_helper() { let b_m = other(); }
}
"#;
        let s = index_source(src);
        assert!(!s.calls[0].in_test);
        assert!(s.calls[1].in_test);
        assert!(!s.bindings[0].in_test);
        assert!(s.bindings[1].in_test);
    }
}

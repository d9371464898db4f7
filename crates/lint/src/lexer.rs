//! Comment/string-stripping pre-pass.
//!
//! [`scrub`] returns the source with every comment, string literal and char
//! literal replaced by spaces — same character count, newlines preserved — so
//! the token scanner never matches rule patterns inside prose or literals.
//! Line comments are inspected for `lint:allow(...)` directives before they
//! are blanked.
//!
//! The stripper understands line comments, nested block comments, normal and
//! byte strings with escapes, raw (byte) strings `r#"..."#`, char and byte
//! literals, and disambiguates `'a'` (char) from `'a` (lifetime/label).

/// A parsed `// lint:allow(RULE[, RULE...], reason = "...")` directive.
///
/// A trailing directive applies to the code on its own line; a directive on a
/// line of its own (`standalone`) applies to the next line that carries code.
/// Malformed directives keep `error` set and suppress nothing.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// 1-based source line the comment appears on.
    pub line: usize,
    /// True when nothing but whitespace precedes the comment on its line.
    pub standalone: bool,
    /// Rule families (`H1`) or full codes (`H1.alloc`) being allowed.
    pub rules: Vec<String>,
    /// The mandatory justification string.
    pub reason: Option<String>,
    /// Set when the directive could not be parsed; reported as `L1.allow`.
    pub error: Option<String>,
}

/// Result of [`scrub`]: blanked source plus the allow directives found.
#[derive(Debug)]
pub struct Scrubbed {
    pub text: String,
    pub allows: Vec<AllowDirective>,
}

pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Blank `chars[start..end]` with spaces, preserving newlines.
fn blank(out: &mut [char], start: usize, end: usize) {
    for c in out.iter_mut().take(end).skip(start) {
        if *c != '\n' {
            *c = ' ';
        }
    }
}

/// 1-based line number of character index `idx` given sorted line starts.
fn line_of(line_starts: &[usize], idx: usize) -> usize {
    match line_starts.binary_search(&idx) {
        Ok(l) => l + 1,
        Err(l) => l,
    }
}

/// End index (exclusive) of a normal string literal opening at `i`.
fn string_end(chars: &[char], i: usize) -> usize {
    let n = chars.len();
    let mut k = i + 1;
    while k < n {
        match chars[k] {
            '\\' => k += 2,
            '"' => return k + 1,
            _ => k += 1,
        }
    }
    n
}

/// End index (exclusive) of a char/byte literal whose opening quote is at
/// `quote`. Assumes the caller already decided it is a literal, not a
/// lifetime.
fn char_literal_end(chars: &[char], quote: usize) -> usize {
    let n = chars.len();
    let mut k = quote + 1;
    while k < n {
        match chars[k] {
            '\\' => k += 2,
            '\'' => return k + 1,
            _ => k += 1,
        }
    }
    n
}

/// If `i` starts a raw string, byte string or byte char (`r"`, `r#"`, `b"`,
/// `b'`, `br"`, `br#"`), return its end index (exclusive).
fn raw_or_byte_end(chars: &[char], i: usize) -> Option<usize> {
    let n = chars.len();
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if j >= n {
            return None;
        }
        match chars[j] {
            '\'' => return Some(char_literal_end(chars, j)),
            '"' => return Some(string_end(chars, j)),
            'r' => {} // fall through to raw handling below
            _ => return None,
        }
    }
    if chars[j] != 'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || chars[j] != '"' {
        return None; // raw identifier like `r#type`, or a lone `r` ident
    }
    // Scan for `"` followed by `hashes` hash marks.
    let mut k = j + 1;
    while k < n {
        if chars[k] == '"' {
            let close_end = k + 1 + hashes;
            if close_end <= n && chars[k + 1..close_end].iter().all(|&c| c == '#') {
                return Some(close_end);
            }
        }
        k += 1;
    }
    Some(n)
}

/// Parse one comment's allow payload, if present.
///
/// The directive must *start* the comment (after the `//` and whitespace),
/// so prose that merely mentions the syntax is never treated as a
/// directive.
fn parse_allow(comment: &str, line: usize, standalone: bool) -> Option<AllowDirective> {
    let content = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    if !content.starts_with("lint:allow") {
        return None;
    }
    let at = content.find("lint:allow")?;
    let comment = content;
    let mut d = AllowDirective {
        line,
        standalone,
        rules: Vec::new(),
        reason: None,
        error: None,
    };
    let rest = comment[at + "lint:allow".len()..].trim_start();
    let Some(body) = rest.strip_prefix('(') else {
        d.error = Some("expected `(` after `lint:allow`".to_string());
        return Some(d);
    };
    // Split the parenthesized body at top-level commas, respecting quotes.
    let mut items: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escaped = false;
    let mut depth = 1usize;
    let mut closed = false;
    for c in body.chars() {
        if in_str {
            cur.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                cur.push(c);
            }
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth -= 1;
                if depth == 0 {
                    closed = true;
                    break;
                }
                cur.push(c);
            }
            ',' if depth == 1 => {
                items.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !closed {
        d.error = Some("unterminated `lint:allow(` — missing `)`".to_string());
        return Some(d);
    }
    items.push(cur);
    for item in items {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if let Some(rest) = item.strip_prefix("reason") {
            let rest = rest.trim_start();
            let Some(rest) = rest.strip_prefix('=') else {
                d.error = Some("expected `reason = \"...\"`".to_string());
                continue;
            };
            let rest = rest.trim();
            let unquoted = rest
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .map(str::trim);
            match unquoted {
                Some("") | None => {
                    d.error = Some("`reason` must be a non-empty quoted string".to_string());
                }
                Some(r) => d.reason = Some(r.to_string()),
            }
        } else if item.chars().all(|c| is_ident_char(c) || c == '.') {
            d.rules.push(item.to_string());
        } else {
            d.error = Some(format!("unrecognized item `{item}` in lint:allow"));
        }
    }
    if d.error.is_none() {
        if d.rules.is_empty() {
            d.error = Some("lint:allow names no rules".to_string());
        } else if d.reason.is_none() {
            d.error = Some("lint:allow requires `reason = \"...\"`".to_string());
        }
    }
    Some(d)
}

/// Strip comments and literals from `src`, collecting allow directives.
pub fn scrub(src: &str) -> Scrubbed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = chars.clone();
    let mut allows = Vec::new();

    let mut line_starts = vec![0usize];
    for (idx, &c) in chars.iter().enumerate() {
        if c == '\n' {
            line_starts.push(idx + 1);
        }
    }

    let mut i = 0usize;
    while i < n {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                let comment: String = chars[start..i].iter().collect();
                let line = line_of(&line_starts, start);
                let line_begin = line_starts[line - 1];
                let standalone = chars[line_begin..start].iter().all(|c| c.is_whitespace());
                if let Some(d) = parse_allow(&comment, line, standalone) {
                    allows.push(d);
                }
                blank(&mut out, start, i);
            }
            '/' if next == Some('*') => {
                let start = i;
                i += 2;
                let mut depth = 1usize;
                while i < n && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            '"' => {
                let end = string_end(&chars, i);
                blank(&mut out, i, end);
                i = end;
            }
            '\'' => {
                // Char literal vs lifetime/label: `'\...'` and `'x'` are
                // literals; anything else (`'a`, `'static`) is left alone.
                if next == Some('\\') || chars.get(i + 2) == Some(&'\'') {
                    let end = char_literal_end(&chars, i);
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            'r' | 'b' if i == 0 || !is_ident_char(chars[i - 1]) => {
                if let Some(end) = raw_or_byte_end(&chars, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }

    Scrubbed {
        text: out.into_iter().collect(),
        allows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked() {
        let s = scrub("let x = 1; // trailing .unwrap()\nlet y = 2;\n");
        assert!(!s.text.contains("unwrap"));
        assert!(s.text.contains("let y = 2;"));
        assert_eq!(
            s.text.len(),
            "let x = 1; // trailing .unwrap()\nlet y = 2;\n".len()
        );
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let s = scrub("a /* one /* two */ still comment */ b");
        assert!(s.text.starts_with('a'));
        assert!(s.text.ends_with('b'));
        assert!(!s.text.contains("comment"));
    }

    #[test]
    fn strings_and_raw_strings_are_blanked() {
        let s = scrub(r##"let a = "m.iter()"; let b = r#"panic!("x")"#; let c = 'x';"##);
        assert!(!s.text.contains("iter"));
        assert!(!s.text.contains("panic"));
        assert!(!s.text.contains('x'));
        assert!(s.text.contains("let a ="));
        assert!(s.text.contains("let c ="));
    }

    #[test]
    fn escaped_quotes_do_not_terminate_strings() {
        let s = scrub(r#"let a = "he said \"m.keys()\""; let b = 1;"#);
        assert!(!s.text.contains("keys"));
        assert!(s.text.contains("let b = 1;"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let s = scrub("fn f<'a>(x: &'a str) { let c = 'q'; let esc = '\\n'; }");
        assert!(s.text.contains("<'a>"));
        assert!(s.text.contains("&'a str"));
        assert!(!s.text.contains('q'));
        assert!(!s.text.contains("\\n"));
    }

    #[test]
    fn newlines_inside_literals_are_preserved() {
        let src = "let a = \"line1\nline2\"; /* c\nc */ let b = 1;\n";
        let s = scrub(src);
        assert_eq!(
            s.text.chars().filter(|&c| c == '\n').count(),
            src.chars().filter(|&c| c == '\n').count()
        );
    }

    #[test]
    fn allow_directive_trailing_and_standalone() {
        let src = "\
let a = env.open_slot(); // lint:allow(H1, reason = \"one per frame, not per probe\")
// lint:allow(O1, reason = \"cold path\")
scream_obs::event(&name.to_string(), &[]);
";
        let s = scrub(src);
        assert_eq!(s.allows.len(), 2);
        assert!(!s.allows[0].standalone);
        assert_eq!(s.allows[0].line, 1);
        assert_eq!(s.allows[0].rules, vec!["H1".to_string()]);
        assert_eq!(
            s.allows[0].reason.as_deref(),
            Some("one per frame, not per probe")
        );
        assert!(s.allows[1].standalone);
        assert_eq!(s.allows[1].line, 2);
    }

    #[test]
    fn allow_directive_requires_reason() {
        let s = scrub("let a = 1; // lint:allow(H1)\n");
        assert_eq!(s.allows.len(), 1);
        assert!(s.allows[0].error.is_some());

        let s = scrub("let a = 1; // lint:allow(H1, reason = \"\")\n");
        assert!(s.allows[0].error.is_some());

        let s = scrub("let a = 1; // lint:allow(reason = \"why\")\n");
        assert!(s.allows[0].error.is_some());
    }

    #[test]
    fn allow_directive_multiple_rules_and_parens_in_reason() {
        let s =
            scrub("x(); // lint:allow(O1, H1.alloc, reason = \"see fn docs (amortized O(1))\")\n");
        assert_eq!(s.allows.len(), 1);
        let d = &s.allows[0];
        assert!(d.error.is_none(), "{:?}", d.error);
        assert_eq!(d.rules, vec!["O1".to_string(), "H1.alloc".to_string()]);
        assert_eq!(d.reason.as_deref(), Some("see fn docs (amortized O(1))"));
    }

    #[test]
    fn prose_mentions_are_not_directives() {
        let s = scrub("/// Suppress with a `// lint:allow(RULE, reason = \"...\")` comment.\n");
        assert!(s.allows.is_empty());
        let s = scrub("// docs discuss lint:allow syntax here\n");
        assert!(s.allows.is_empty());
    }

    #[test]
    fn byte_literals_are_blanked() {
        let s = scrub("let a = b\"bytes\"; let b = b'z'; let c = br#\"raw.iter()\"#;");
        assert!(!s.text.contains("bytes"));
        assert!(!s.text.contains('z'));
        assert!(!s.text.contains("iter"));
    }
}

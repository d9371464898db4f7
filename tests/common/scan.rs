//! `S1.caller` over one file: the tokens of scrubbed source, which of them
//! are test code, and the `pub fn`s only their own file's tests mention.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{is_ident_char, scrub};

/// Whether a token of [`tokens`] is an identifier (a keyword counts).
fn is_ident(token: &str) -> bool {
    token.starts_with(is_ident_char)
}

/// The identifiers and punctuation characters of scrubbed text, each with its
/// 1-based line. Numeric literals, suffix included, are dropped.
fn tokens(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut line = 1;
    let mut chars = text.char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        if c == '\n' {
            line += 1;
        } else if is_ident_char(c) {
            let mut end = at + 1;
            while let Some((k, _)) = chars.next_if(|&(_, d)| is_ident_char(d)) {
                end = k + 1;
            }
            if !c.is_ascii_digit() {
                out.push((line, &text[at..end]));
            }
        } else if !c.is_whitespace() {
            out.push((line, &text[at..at + c.len_utf8()]));
        }
    }
    out
}

/// For each token, whether it is test code: inside the braces of an item
/// under `#[test]`, `#[cfg(test)]` or any attribute naming `test` without
/// `not`. An attribute's own tokens belong to the code around it.
fn test_regions(toks: &[(usize, &str)]) -> Vec<bool> {
    let at = |i: usize| toks.get(i).map(|t| t.1);
    let mut in_test = Vec::with_capacity(toks.len());
    // One entry per open brace: whether it opened a test region.
    let mut braces: Vec<bool> = Vec::new();
    let (mut open_tests, mut parens, mut pending) = (0, 0, false);
    let mut i = 0;
    while i < toks.len() {
        let here = open_tests > 0;
        let bracket = i + 1 + usize::from(at(i + 1) == Some("!"));
        if at(i) == Some("#") && at(bracket) == Some("[") {
            let (mut depth, mut end) = (0, bracket);
            while end < toks.len() {
                depth += i32::from(toks[end].1 == "[") - i32::from(toks[end].1 == "]");
                end += 1;
                if depth == 0 {
                    break;
                }
            }
            let names = &toks[bracket..end];
            if names.iter().any(|t| t.1 == "test") && !names.iter().any(|t| t.1 == "not") {
                (pending, parens) = (true, 0);
            }
            in_test.resize(end, here);
            i = end;
            continue;
        }
        in_test.push(here);
        match toks[i].1 {
            "(" => parens += 1,
            ")" => parens -= 1,
            ";" if parens <= 0 => pending = false,
            "{" => {
                let opens_test = pending && parens <= 0;
                if opens_test {
                    (pending, open_tests) = (false, open_tests + 1);
                }
                braces.push(opens_test);
            }
            "}" => open_tests -= i32::from(braces.pop() == Some(true)),
            _ => {}
        }
        i += 1;
    }
    in_test
}

/// For every identifier, how many of `files` mention it outside comments
/// and literals, test code included.
pub fn mentions<'a>(files: impl IntoIterator<Item = &'a str>) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for src in files {
        let text = scrub(src);
        let names: BTreeSet<&str> = tokens(&text)
            .into_iter()
            .map(|t| t.1)
            .filter(|t| is_ident(t))
            .collect();
        for name in names {
            *counts.entry(name.to_string()).or_default() += 1;
        }
    }
    counts
}

/// `S1.caller` over one library file: the `(line, name)` of each non-test
/// `pub fn` (or `pub const fn`) that no other file of `census` mentions and
/// that `src` mentions only where it defines it and in test code.
pub fn test_only_pub_fns(src: &str, census: &BTreeMap<String, usize>) -> Vec<(usize, String)> {
    let text = scrub(src);
    let toks = tokens(&text);
    let in_test = test_regions(&toks);
    let name_at = |i: usize| toks.get(i).map(|t| t.1).filter(|t| is_ident(t));
    let used_here: BTreeSet<&str> = (0..toks.len())
        .filter(|&i| !in_test[i] && (i == 0 || toks[i - 1].1 != "fn"))
        .filter_map(name_at)
        .collect();
    let mut found = Vec::new();
    for i in (0..toks.len()).filter(|&i| !in_test[i] && toks[i].1 == "pub") {
        let at_fn = i + 1 + usize::from(name_at(i + 1) == Some("const"));
        let (Some("fn"), Some(name)) = (name_at(at_fn), name_at(at_fn + 1)) else {
            continue;
        };
        // The file itself is one of the files that mention the name.
        if !used_here.contains(name) && census.get(name).is_none_or(|&n| n <= 1) {
            found.push((toks[at_fn + 1].0, name.to_string()));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::{mentions, test_only_pub_fns};

    /// The census on a fixture: of the three `pub fn`s only the one that just
    /// its own tests mention is flagged, at its line, and a mention in another
    /// file clears it. No mention inside a comment or literal counts, and
    /// lifetimes and the newlines inside literals are kept.
    #[test]
    fn s1_flags_a_pub_fn_only_its_own_tests_mention() {
        let src = r#"
pub fn used_here() -> &'static str { "one
two" }
pub fn used_elsewhere<'a>(s: &'a str) -> &'a str { used_here(); s }
pub const fn test_only() -> u32 { 2 }
pub(crate) fn not_public() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(super::test_only(), 2); }
}
"#;
        let judged = |other: &str| test_only_pub_fns(src, &mentions([src, other]));
        let flagged = vec![(5, "test_only".to_string())];
        assert_eq!(judged("fn main() { used_elsewhere(); }"), flagged);
        assert!(judged("fn main() { used_elsewhere(); test_only(); }").is_empty());
        let unheard = r###"fn main() { used_elsewhere(); /* a /* b */ test_only() */
        let _ = ("\" test_only", r#"a"test_only"#, br#"b"test_only"#, '"', "test_only");
    } // test_only()"###;
        assert_eq!(judged(unheard), flagged);
    }
}

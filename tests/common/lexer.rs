//! The scrub the API census reads source through: comments and literals
//! blanked, so a name inside prose or a string is not taken for a use.

use std::iter;

/// Whether `c` can be part of an identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `src` with every comment, string, byte string, raw string and char
/// literal blanked to spaces, newlines kept, so that a name inside prose or a
/// literal is not taken for a use and lines still count. Lifetimes and labels
/// (`'a`) survive; char literals (`'a'`, `'\n'`) do not.
pub fn scrub(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = chars.clone();
    let mut i = 0;
    while i < n {
        let next = chars.get(i + 1).copied();
        let end = match chars[i] {
            '/' if next == Some('/') => (i..n).find(|&k| chars[k] == '\n').unwrap_or(n),
            '/' if next == Some('*') => block_comment_end(&chars, i),
            '"' => quoted_end(&chars, i),
            '\'' if next == Some('\\') || chars.get(i + 2) == Some(&'\'') => quoted_end(&chars, i),
            'r' | 'b' if i == 0 || !is_ident_char(chars[i - 1]) => {
                raw_or_byte_end(&chars, i).unwrap_or(i)
            }
            _ => i,
        };
        if end > i {
            for c in &mut out[i..end] {
                if *c != '\n' {
                    *c = ' ';
                }
            }
            i = end;
        } else {
            i += 1;
        }
    }
    out.into_iter().collect()
}

/// End (exclusive) of the block comment opening at `i`; block comments nest.
fn block_comment_end(chars: &[char], i: usize) -> usize {
    let (mut k, mut depth) = (i + 2, 1);
    while k < chars.len() && depth > 0 {
        match (chars[k], chars.get(k + 1)) {
            ('/', Some('*')) => (depth, k) = (depth + 1, k + 2),
            ('*', Some('/')) => (depth, k) = (depth - 1, k + 2),
            _ => k += 1,
        }
    }
    k.min(chars.len())
}

/// End (exclusive) of the string or char literal whose opening quote is at
/// `i`, skipping escaped characters.
fn quoted_end(chars: &[char], i: usize) -> usize {
    let mut k = i + 1;
    while k < chars.len() {
        match chars[k] {
            '\\' => k += 2,
            c if c == chars[i] => return k + 1,
            _ => k += 1,
        }
    }
    chars.len()
}

/// If `i` starts a raw string, byte string or byte char (`r"`, `r#"`, `b"`,
/// `b'`, `br"`, `br#"`), its end (exclusive); `None` for an identifier such
/// as `r#type` or `bar`.
fn raw_or_byte_end(chars: &[char], i: usize) -> Option<usize> {
    let j = i + usize::from(chars[i] == 'b');
    match chars.get(j) {
        Some('\'' | '"') if j > i => return Some(quoted_end(chars, j)),
        Some('r') => {}
        _ => return None,
    }
    let hashes = chars[j + 1..].iter().take_while(|&&c| c == '#').count();
    let open = j + 1 + hashes;
    if chars.get(open) != Some(&'"') {
        return None;
    }
    let close: Vec<char> = iter::once('"').chain(iter::repeat_n('#', hashes)).collect();
    let end = (open + 1..chars.len()).find(|&k| chars[k..].starts_with(&close));
    Some(end.map_or(chars.len(), |k| k + close.len()))
}

#[cfg(test)]
mod tests {
    use super::scrub;

    #[test]
    fn line_comments_are_blanked() {
        let src = "let x = 1; // trailing .unwrap()\nlet y = 2;\n";
        let s = scrub(src);
        assert!(!s.contains("unwrap"));
        assert!(s.contains("let y = 2;"));
        assert_eq!(s.len(), src.len());
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let s = scrub("a /* one /* two */ still comment */ b");
        assert!(s.starts_with('a'));
        assert!(s.ends_with('b'));
        assert!(!s.contains("comment"));
    }

    #[test]
    fn strings_and_raw_strings_are_blanked() {
        let s = scrub(r##"let a = "m.iter()"; let b = r#"panic!("x")"#; let c = 'x';"##);
        assert!(!s.contains("iter"));
        assert!(!s.contains("panic"));
        assert!(!s.contains('x'));
        assert!(s.contains("let a ="));
        assert!(s.contains("let c ="));
    }

    #[test]
    fn escaped_quotes_do_not_terminate_strings() {
        let s = scrub(r#"let a = "he said \"m.keys()\""; let b = 1;"#);
        assert!(!s.contains("keys"));
        assert!(s.contains("let b = 1;"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let s = scrub("fn f<'a>(x: &'a str) { let c = 'q'; let esc = '\\n'; }");
        assert!(s.contains("<'a>"));
        assert!(s.contains("&'a str"));
        assert!(!s.contains('q'));
        assert!(!s.contains("\\n"));
    }

    #[test]
    fn newlines_inside_literals_are_preserved() {
        let src = "let a = \"line1\nline2\"; /* c\nc */ let b = 1;\n";
        let newlines = |text: &str| text.chars().filter(|&c| c == '\n').count();
        assert_eq!(newlines(&scrub(src)), newlines(src));
    }

    #[test]
    fn byte_literals_are_blanked() {
        let s = scrub("let a = b\"bytes\"; let b = b'z'; let c = br#\"raw.iter()\"#;");
        assert!(!s.contains("bytes"));
        assert!(!s.contains('z'));
        assert!(!s.contains("iter"));
    }
}

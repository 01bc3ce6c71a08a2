//! A comment-, string- and raw-string-aware token scanner for Rust sources.
//!
//! The flow facts and pragmas of this crate are read from identifier
//! sequences (`env::var`, `HashMap`, `sort`, …) in **code** and from
//! comments, never from string literals. Getting that distinction right is
//! the whole job of this module — a naive `grep` would seed taint from
//! `// like env::var("X")` in a doc comment or honour
//! `"fdn-lint: allow(F3) -- nope"` inside a string, and a pragma smuggled
//! into a string literal must *not* count as a suppression. The scanner therefore performs a single character-level pass
//! that classifies every byte of the source as exactly one of:
//!
//! - **code** — emitted as [`Token`]s (identifiers, numbers, punctuation);
//! - **line comment** — captured as [`CommentLine`]s so the pragma layer can
//!   parse `fdn-lint:` directives out of them;
//! - **block comment** (with arbitrary nesting, per the Rust grammar),
//!   **string**, **raw string** (any number of `#` guards), **byte string**,
//!   or **char literal** — all skipped.
//!
//! The classic `'a'`-versus-`'a` lifetime ambiguity is resolved the same way
//! rustc's lexer does at this depth: a quote followed by an identifier
//! character is a lifetime (code, skipped as such) unless the character
//! after the identifier closes the quote.

/// The lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`Instant`, `unsafe`, `mod`, …).
    Ident,
    /// A numeric literal (`42`, `1.5e3`, `0xFF`, `2.0f64`).
    Number,
    /// A single punctuation character (`:`, `!`, `{`, …).
    Punct,
}

/// One code token with its 1-indexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// The token text (a single character for [`TokenKind::Punct`]).
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Token {
    /// True when the token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == word
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// One `//` line comment (any flavour: `//`, `///`, `//!`), captured for
/// pragma parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommentLine {
    /// 1-indexed line the comment starts on.
    pub line: u32,
    /// Comment text *after* the leading `//` (slashes and outer doc markers
    /// included — the pragma parser searches for `fdn-lint:` anywhere in it).
    pub text: String,
}

/// The output of [`scan`]: the code tokens and the line comments of one file.
#[derive(Debug, Clone, Default)]
pub struct ScannedFile {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Line comments in source order.
    pub comments: Vec<CommentLine>,
}

impl ScannedFile {
    /// The set of lines that carry at least one code token — used by the
    /// pragma layer to find the "next code line" a standalone pragma governs.
    pub fn code_lines(&self) -> Vec<u32> {
        let mut lines: Vec<u32> = self.tokens.iter().map(|t| t.line).collect();
        lines.dedup();
        lines
    }
}

/// Scans `source` into code tokens and line comments.
///
/// The scanner never fails: unterminated constructs (a string or block
/// comment running to end-of-file) simply consume the rest of the input,
/// which is the forgiving behaviour a lint pass wants on work-in-progress
/// files.
pub fn scan(source: &str) -> ScannedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut out = ScannedFile::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advances past `n` characters, counting newlines.
    macro_rules! bump {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < chars.len() {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        // Line comment: capture text to end of line.
        if c == '/' && next == Some('/') {
            let start_line = line;
            let mut text = String::new();
            bump!(2);
            while i < chars.len() && chars[i] != '\n' {
                text.push(chars[i]);
                bump!(1);
            }
            // CRLF sources: the '\r' before the newline is line-ending
            // noise, not comment text (it would otherwise poison the
            // mandatory `-- reason` tail of a pragma).
            if text.ends_with('\r') {
                text.pop();
            }
            out.comments.push(CommentLine {
                line: start_line,
                text,
            });
            continue;
        }

        // Block comment: skip with nesting.
        if c == '/' && next == Some('*') {
            bump!(2);
            let mut depth = 1usize;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!(2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!(2);
                } else {
                    bump!(1);
                }
            }
            continue;
        }

        // Raw string (r"…", r#"…"#, …) or raw byte string (br#"…"#).
        if c == 'r' || (c == 'b' && next == Some('r')) {
            let hash_start = if c == 'r' { i + 1 } else { i + 2 };
            let mut hashes = 0usize;
            while chars.get(hash_start + hashes) == Some(&'#') {
                hashes += 1;
            }
            if chars.get(hash_start + hashes) == Some(&'"') {
                // Consume the prefix, guards and opening quote.
                bump!(hash_start + hashes + 1 - i);
                // Scan to `"` followed by `hashes` `#`s.
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            bump!(1 + hashes);
                            break 'raw;
                        }
                    }
                    bump!(1);
                }
                continue;
            }
            // Not a raw string — fall through to identifier handling.
        }

        // Ordinary string or byte string.
        if c == '"' || (c == 'b' && next == Some('"')) {
            bump!(if c == 'b' { 2 } else { 1 });
            while i < chars.len() {
                if chars[i] == '\\' {
                    bump!(2);
                } else if chars[i] == '"' {
                    bump!(1);
                    break;
                } else {
                    bump!(1);
                }
            }
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            let n1 = chars.get(i + 1).copied();
            if n1 == Some('\\') {
                // Escaped char literal: '\n', '\'', '\u{…}'.
                bump!(2);
                while i < chars.len() && chars[i] != '\'' {
                    bump!(1);
                }
                bump!(1);
                continue;
            }
            let is_ident_char = |c: char| c.is_alphanumeric() || c == '_';
            if let Some(n1c) = n1 {
                if is_ident_char(n1c) && chars.get(i + 2) != Some(&'\'') {
                    // Lifetime ('a, 'static): skip quote + identifier.
                    bump!(2);
                    while i < chars.len() && is_ident_char(chars[i]) {
                        bump!(1);
                    }
                    continue;
                }
                // Plain char literal 'x' (or the degenerate '''/quote pair).
                bump!(2);
                if chars.get(i) == Some(&'\'') {
                    bump!(1);
                }
                continue;
            }
            bump!(1);
            continue;
        }

        // Identifier or keyword.
        if c.is_alphabetic() || c == '_' {
            let start_line = line;
            let mut text = String::new();
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                text.push(chars[i]);
                bump!(1);
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line: start_line,
            });
            continue;
        }

        // Numeric literal (including float suffixes and exponents, so `2.5`,
        // `1e3` and `0.5f64` each arrive as a single Number token).
        if c.is_ascii_digit() {
            let start_line = line;
            let mut text = String::new();
            while i < chars.len() {
                let d = chars[i];
                let take = d.is_alphanumeric()
                    || d == '_'
                    || (d == '.' && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit()))
                    || ((d == '+' || d == '-')
                        && matches!(text.chars().last(), Some('e') | Some('E'))
                        && !text.starts_with("0x"));
                if !take {
                    break;
                }
                text.push(d);
                bump!(1);
            }
            out.tokens.push(Token {
                kind: TokenKind::Number,
                text,
                line: start_line,
            });
            continue;
        }

        // Punctuation (or whitespace).
        if !c.is_whitespace() {
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: c.to_string(),
                line,
            });
        }
        bump!(1);
    }

    out
}

/// Returns a copy of `file.tokens` with every token inside a
/// `#[cfg(test)] mod … { … }` block removed.
///
/// Test-only modules embedded in `src/` files are exempt from the flow rules
/// (separate `tests/` files are handled by path policy instead): an
/// environment read or a map walk in a unit test is not a determinism
/// hazard because test code never feeds a byte-gated artifact. The match is
/// purely lexical — the exact token sequence `# [ cfg ( test ) ]` followed
/// by an optional `pub`, then `mod <name> {`, skipping to the matching
/// closing brace.
pub fn mask_cfg_test(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // `#[cfg(test)]` is 7 tokens; look for `pub? mod ident {`.
            let mut j = i + 7;
            if tokens.get(j).is_some_and(|t| t.is_ident("pub")) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_ident("mod"))
                && tokens
                    .get(j + 1)
                    .is_some_and(|t| t.kind == TokenKind::Ident)
                && tokens.get(j + 2).is_some_and(|t| t.is_punct('{'))
            {
                // Skip to the matching close brace.
                let mut depth = 1usize;
                let mut k = j + 3;
                while k < tokens.len() && depth > 0 {
                    if tokens[k].is_punct('{') {
                        depth += 1;
                    } else if tokens[k].is_punct('}') {
                        depth -= 1;
                    }
                    k += 1;
                }
                i = k;
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// True when `tokens[at..]` begins with the exact sequence `# [ cfg ( test ) ]`.
fn is_cfg_test_attr(tokens: &[Token], at: usize) -> bool {
    let expected: [(&str, bool); 7] = [
        ("#", false),
        ("[", false),
        ("cfg", true),
        ("(", false),
        ("test", true),
        (")", false),
        ("]", false),
    ];
    expected.iter().enumerate().all(|(k, (text, ident))| {
        tokens.get(at + k).is_some_and(|t| {
            t.text == *text
                && (t.kind == TokenKind::Ident) == *ident
                && (*ident || t.kind == TokenKind::Punct)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(source: &str) -> Vec<String> {
        scan(source)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // Instant::now() in a comment
            /* HashMap in /* a nested */ block comment */
            let s = "unsafe in a string";
            let r = r#"SystemTime in a raw string"#;
            let code = marker;
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"marker".to_string()));
        for hidden in ["Instant", "HashMap", "unsafe", "SystemTime"] {
            assert!(!ids.contains(&hidden.to_string()), "{hidden} leaked");
        }
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x'; after";
        let ids = idents(src);
        assert!(ids.contains(&"after".to_string()));
        assert!(ids.contains(&"str".to_string()));
    }

    #[test]
    fn line_numbers_are_accurate() {
        let src = "first\n\"two\nlines\"\nfourth";
        let file = scan(src);
        let fourth = file.tokens.iter().find(|t| t.text == "fourth").unwrap();
        assert_eq!(fourth.line, 4);
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let src = "code();\n// fdn-lint: allow(F3) -- reason\nmore();";
        let file = scan(src);
        assert_eq!(file.comments.len(), 1);
        assert_eq!(file.comments[0].line, 2);
        assert!(file.comments[0].text.contains("fdn-lint"));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() { } #[cfg(test)] mod tests { fn hidden() { } } fn tail() { }";
        let file = scan(src);
        let masked = mask_cfg_test(&file.tokens);
        let ids: Vec<&str> = masked
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(ids.contains(&"live"));
        assert!(ids.contains(&"tail"));
        assert!(!ids.contains(&"hidden"));
    }
}

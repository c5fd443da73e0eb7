//! A comment- and string-aware Rust token scanner.
//!
//! This is not a full Rust lexer — it is exactly the subset the rule
//! engine needs: identifiers and punctuation with line numbers, with
//! string/char/byte/raw-string literals and comments consumed (never
//! tokenized), and every comment's text captured per line so the engine
//! can find `// SAFETY:` blocks and `// lint:allow(...)` suppressions.
//! The tricky corners it does handle: nested block comments, raw strings
//! with arbitrary `#` fences, byte strings, and the lifetime-vs-char
//! ambiguity of `'`.

/// What a token is; the rules only ever dispatch on these three classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `fs`, `mul_add`, ...).
    Ident,
    /// A single punctuation character (`.`, `:`, `{`, `!`, ...).
    Punct,
    /// Numeric literal (kept so brace/position arithmetic stays honest).
    Num,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

/// One string literal: the line its opening quote is on and its source
/// text between the quotes — escapes as written, so `\"` is still two
/// characters.
#[derive(Debug, Clone)]
pub struct StrLit {
    pub line: usize,
    pub text: String,
    /// A raw (`r"…"`, `r#"…"#`) literal: `"` needs no backslash in it.
    pub raw: bool,
}

/// The lexed file: tokens plus the comment text found on each line
/// (1-based line → concatenated comment text on that line) and the string
/// literals, which are not tokens.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<(usize, String)>,
    pub strings: Vec<StrLit>,
}

impl Lexed {
    /// All comment text recorded for `line`, concatenated.
    pub fn comment_on(&self, line: usize) -> Option<&str> {
        self.comments
            .iter()
            .find(|(l, _)| *l == line)
            .map(|(_, t)| t.as_str())
    }
}

/// Lex `src` into tokens and per-line comments.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = b.len();

    let push_comment = |line: usize, text: &str, out: &mut Lexed| {
        if let Some((l, t)) = out.comments.last_mut() {
            if *l == line {
                t.push(' ');
                t.push_str(text);
                return;
            }
        }
        out.comments.push((line, text.to_string()));
    };

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also covers `///` and `//!` doc comments).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            push_comment(line, text.trim_start_matches('/').trim(), &mut out);
            continue;
        }
        // Block comment, possibly nested; text recorded line by line.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            let mut piece = String::new();
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        push_comment(line, piece.trim(), &mut out);
                        piece.clear();
                        line += 1;
                    } else {
                        piece.push(b[i]);
                    }
                    i += 1;
                }
            }
            push_comment(line, piece.trim(), &mut out);
            continue;
        }
        // Raw / byte / plain string literals. Handle the prefixed forms
        // before generic identifier lexing so `r#"…"#` is not an ident.
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            if c == 'b' && j < n && b[j] == 'r' {
                j += 1;
            }
            let mut fence = 0usize;
            while j < n && b[j] == '#' {
                fence += 1;
                j += 1;
            }
            let is_raw = j > i + 1 || (j < n && b[j] == '"' && (fence > 0 || b[i + 1] == '"'));
            if j < n && b[j] == '"' && (is_raw || c == 'b') {
                // Raw string: ends at `"` followed by `fence` hashes.
                // Byte string b"..." uses the escaped scan below instead.
                if fence > 0 || (c == 'r') || (c == 'b' && b[i + 1] == 'r') {
                    i = j + 1;
                    let (start, start_line) = (i, line);
                    'raw: while i < n {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        if b[i] == '"' {
                            let mut k = 0usize;
                            while k < fence && i + 1 + k < n && b[i + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == fence {
                                out.strings.push(StrLit {
                                    line: start_line,
                                    text: b[start..i].iter().collect(),
                                    raw: true,
                                });
                                i += 1 + fence;
                                break 'raw;
                            }
                        }
                        i += 1;
                    }
                    continue;
                }
                // b"...": fall through to escaped-string scan from j.
                i = j;
                line = scan_string(&b, &mut i, line, &mut out);
                continue;
            }
            if c == 'b' && i + 1 < n && b[i + 1] == '\'' {
                i += 1; // treat as the char-literal case below
                let mut k = i;
                line = scan_char(&b, &mut k, line);
                i = k;
                continue;
            }
            // Not a literal prefix: plain identifier starting with r/b.
        }
        if c == '"' {
            line = scan_string(&b, &mut i, line, &mut out);
            continue;
        }
        if c == '\'' {
            // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`, `'('`).
            if i + 1 < n && (b[i + 1].is_alphabetic() || b[i + 1] == '_') && b[i + 1] != '\\' {
                let mut j = i + 2;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                if j < n && b[j] == '\'' && j == i + 2 {
                    i = j + 1; // single-char literal like 'a'
                } else {
                    i += 1; // lifetime: skip the quote, lex the ident next
                }
                continue;
            }
            let mut k = i;
            line = scan_char(&b, &mut k, line);
            i = k;
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            out.tokens.push(Tok {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n
                && (b[i].is_alphanumeric()
                    || b[i] == '_'
                    || (b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit()))
            {
                i += 1;
            }
            out.tokens.push(Tok {
                kind: TokKind::Num,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        out.tokens.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Scan a `"..."` literal from the opening quote, recording it; returns
/// the updated line.
fn scan_string(b: &[char], i: &mut usize, mut line: usize, out: &mut Lexed) -> usize {
    *i += 1; // opening quote
    let (start, start_line) = (*i, line);
    while *i < b.len() {
        match b[*i] {
            '\\' => {
                // A `\` line continuation still ends a source line.
                if b.get(*i + 1) == Some(&'\n') {
                    line += 1;
                }
                *i += 2;
            }
            '"' => {
                out.strings.push(StrLit {
                    line: start_line,
                    text: b[start..*i].iter().collect(),
                    raw: false,
                });
                *i += 1;
                return line;
            }
            '\n' => {
                line += 1;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
    line
}

/// Scan a `'…'` char literal from the opening quote.
fn scan_char(b: &[char], i: &mut usize, line: usize) -> usize {
    *i += 1; // opening quote
    while *i < b.len() {
        match b[*i] {
            '\\' => *i += 2,
            '\'' => {
                *i += 1;
                return line;
            }
            _ => *i += 1,
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn strings_and_comments_are_not_tokens() {
        let src = r#"
            // fs::write in a comment
            /* unsafe in a block comment */
            let x = "fs::write inside a string";
            let y = 'u'; let z: &'static str = "s";
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"write".to_string()));
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(ids.contains(&"static".to_string()), "lifetime ident kept");
    }

    #[test]
    fn raw_strings_with_fences_are_consumed() {
        let src = r####"let s = r#"unsafe fs::write "quoted" "#; let t = mul;"####;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "let", "t", "mul"]);
    }

    #[test]
    fn byte_and_raw_byte_strings_are_consumed() {
        let src = r##"let a = b"unsafe"; let c = br#"fs::write"#; let d = b'x';"##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "c", "let", "d"]);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner */ still comment */ real_code";
        assert_eq!(idents(src), vec!["real_code"]);
    }

    #[test]
    fn comment_text_is_recorded_per_line() {
        let src = "// SAFETY: the pointer is valid\nlet x = 1; // trailing note\n";
        let lexed = lex(src);
        assert!(lexed.comment_on(1).unwrap().contains("SAFETY:"));
        assert!(lexed.comment_on(2).unwrap().contains("trailing note"));
    }

    #[test]
    fn lifetimes_do_not_eat_following_code() {
        let src = "fn f<'a>(x: &'a str) { x.unwrap(); }";
        let ids = idents(src);
        assert!(ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn char_literals_with_escapes() {
        let src = r"let a = '\n'; let b = '\''; let c = '('; real";
        let ids = idents(src);
        assert_eq!(ids.last().unwrap(), "real");
    }

    #[test]
    fn string_literals_are_recorded_with_their_source_text() {
        let src = "let a = \"k\\\":1\";\nlet b = r#\"{\"k\":2}\"#;\nlet c = b\"x\";";
        let lexed = lex(src);
        let got: Vec<(usize, &str, bool)> = lexed
            .strings
            .iter()
            .map(|s| (s.line, s.text.as_str(), s.raw))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, "k\\\":1", false),
                (2, "{\"k\":2}", true),
                (3, "x", false)
            ]
        );
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"one\ntwo\";\nlet target = 1;";
        let lexed = lex(src);
        let t = lexed.tokens.iter().find(|t| t.text == "target").unwrap();
        assert_eq!(t.line, 3);
        // … and `\`-continued ones.
        let src = "let a = \"one\\\n     two\";\nlet target = 1;";
        let lexed = lex(src);
        let t = lexed.tokens.iter().find(|t| t.text == "target").unwrap();
        assert_eq!(t.line, 3);
    }
}

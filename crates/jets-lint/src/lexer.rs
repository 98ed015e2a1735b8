//! A small Rust lexer, sufficient for invariant checking.
//!
//! This is deliberately *not* a full parser: the workspace takes no
//! third-party code, so jets-lint cannot depend on `syn`. Instead it
//! tokenizes Rust source precisely enough that the rule passes can
//! reason about token *sequences* — guards, match arms, paths, literals
//! — without ever being confused by the contents of strings or comments.
//!
//! The lexer guarantees:
//!
//! * string/char/byte/raw-string literals become single [`TokKind::Str`]
//!   / [`TokKind::Char`] tokens (their contents can never fake a match
//!   arm or a lock acquisition);
//! * comments are stripped, except that `// jets-lint:` suppression
//!   comments are captured with their line numbers;
//! * every token carries the 1-based line it starts on, so findings have
//!   real `file:line` spans.

/// Token classification. The rule passes mostly look at `Ident` texts
/// and a handful of punctuation sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `match`, `let`, names, `_`).
    Ident,
    /// Integer literal (suffix kept in the text: `125i32`).
    Int,
    /// Float literal.
    Float,
    /// String literal of any flavour (contents dropped).
    Str,
    /// Char literal (contents dropped).
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation; multi-character operators are fused (`::`, `=>`,
    /// `->`, `..`, `..=`, comparison and compound-assignment operators).
    Punct,
}

/// One token with its source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Source text (for `Str`/`Char` a placeholder, contents dropped).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A `// jets-lint: ...` comment captured during lexing, unparsed.
#[derive(Debug, Clone)]
pub struct RawSuppression {
    /// 1-based line of the comment.
    pub line: u32,
    /// Comment text after the `jets-lint:` marker, trimmed.
    pub text: String,
}

/// Lexer output: the token stream plus captured suppression comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens, comments and whitespace stripped.
    pub toks: Vec<Tok>,
    /// Raw `// jets-lint:` comments, in file order.
    pub suppressions: Vec<RawSuppression>,
}

/// Marker that introduces a suppression comment.
const MARKER: &str = "jets-lint:";

/// Multi-character punctuation, longest first so fusing is greedy.
const MULTI_PUNCT: &[&str] = &[
    "..=", "...", "<<=", ">>=", "::", "=>", "->", "..", "==", "!=", "<=", ">=", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "^=", "|=", "&=", "<<", ">>",
];

/// Tokenize `src`. Never fails: unrecognized bytes become single-char
/// punctuation, which at worst makes a rule conservative.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Count newlines in b[from..to), advancing `line`.
    let bump = |line: &mut u32, b: &[char], from: usize, to: usize| {
        *line += b[from..to].iter().filter(|&&c| c == '\n').count() as u32;
    };

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment (incl. doc comments). Capture jets-lint markers:
        // only plain `// jets-lint: ...` comments count — doc comments
        // (`///`, `//!`) and mid-prose mentions of the marker are
        // documentation, not suppressions.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            let is_doc = text.starts_with("///") || text.starts_with("//!");
            let body = text.trim_start_matches("//").trim_start();
            if !is_doc && body.starts_with(MARKER) {
                out.suppressions.push(RawSuppression {
                    line,
                    text: body[MARKER.len()..].trim().to_string(),
                });
            }
            continue; // the \n is handled by the whitespace arm
        }
        // Block comment, nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            bump(&mut line, &b, start, i);
            continue;
        }
        // Raw strings: r"...", r#"..."#, br#"..."# etc.
        if (c == 'r' || c == 'b') && is_raw_string_start(&b, i) {
            let start = i;
            i = skip_raw_string(&b, i);
            bump(&mut line, &b, start, i);
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: "\"raw\"".to_string(),
                line,
            });
            continue;
        }
        // Plain and byte strings.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let start = i;
            i += if c == 'b' { 2 } else { 1 };
            while i < n {
                if b[i] == '\\' {
                    i += 2;
                } else if b[i] == '"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            let tok_line = line;
            bump(&mut line, &b, start, i.min(n));
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: "\"str\"".to_string(),
                line: tok_line,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if is_lifetime(&b, i) {
                let start = i;
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: b[start..i].iter().collect(),
                    line,
                });
            } else {
                // 'x', '\n', '\u{1f4a9}' — scan to the closing quote.
                i += 1;
                while i < n {
                    if b[i] == '\\' {
                        i += 2;
                    } else if b[i] == '\'' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: "'c'".to_string(),
                    line,
                });
            }
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            // A fractional part: digit '.' digit (not `0..x` ranges, not
            // method calls `1.max(..)` whose next char is alphabetic).
            if i < n && b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit() {
                is_float = true;
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            }
            out.toks.push(Tok {
                kind: if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Identifiers / keywords (incl. r#raw idents).
        if c.is_alphabetic() || c == '_' {
            let start = i;
            if c == 'r' && i + 1 < n && b[i + 1] == '#' && i + 2 < n && is_ident_start(b[i + 2]) {
                i += 2; // r# prefix of a raw identifier
            }
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            let text = text.strip_prefix("r#").unwrap_or(&text).to_string();
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
            });
            continue;
        }
        // Punctuation: fuse known multi-char operators.
        let mut matched = None;
        for m in MULTI_PUNCT {
            if src_matches(&b, i, m) {
                matched = Some(*m);
                break;
            }
        }
        if let Some(m) = matched {
            out.toks.push(Tok {
                kind: TokKind::Punct,
                text: m.to_string(),
                line,
            });
            i += m.chars().count();
        } else {
            out.toks.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// `b[i..]` starts a raw (possibly byte) string literal.
fn is_raw_string_start(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"'
}

/// Skip a raw string starting at `i`; returns the index just past it.
fn skip_raw_string(b: &[char], mut i: usize) -> usize {
    if b[i] == 'b' {
        i += 1;
    }
    i += 1; // 'r'
    let mut hashes = 0;
    while i < b.len() && b[i] == '#' {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < b.len() {
        if b[i] == '"' {
            let mut k = 0;
            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == '#' {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    b.len()
}

/// `'` at `i` starts a lifetime (not a char literal): `'ident` not
/// followed by a closing quote.
fn is_lifetime(b: &[char], i: usize) -> bool {
    if i + 1 >= b.len() {
        return false;
    }
    let c1 = b[i + 1];
    if !(c1.is_alphabetic() || c1 == '_') {
        return false;
    }
    // 'a' is a char literal; 'a  (no closing quote) is a lifetime.
    let mut j = i + 2;
    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
        j += 1;
    }
    !(j < b.len() && b[j] == '\'')
}

fn src_matches(b: &[char], i: usize, m: &str) -> bool {
    let mc: Vec<char> = m.chars().collect();
    if i + mc.len() > b.len() {
        return false;
    }
    b[i..i + mc.len()] == mc[..]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let src = r##"
            // match WorkerMsg::Fake never seen
            let s = "match WorkerMsg::AlsoFake { _ => }";
            let r = r#"lock() sleep()"#;
            /* block _ => comment /* nested */ still comment */
            let c = 'x';
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"let".to_string()));
        assert!(!ids.contains(&"WorkerMsg".to_string()));
        assert!(!ids.contains(&"sleep".to_string()));
    }

    #[test]
    fn lines_survive_multiline_strings() {
        let src = "let a = \"x\ny\";\nlet b = 1;\n";
        let l = lex(src);
        let b = l.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn suppressions_are_captured() {
        let src = "fn f() {}\n// jets-lint: allow(exit-code) spec table\nfn g() {}\n";
        let l = lex(src);
        assert_eq!(l.suppressions.len(), 1);
        assert_eq!(l.suppressions[0].line, 2);
        assert_eq!(l.suppressions[0].text, "allow(exit-code) spec table");
    }

    #[test]
    fn multi_punct_fuses() {
        let l = lex("a => b :: c -> d ..= e");
        let puncts: Vec<String> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(puncts, vec!["=>", "::", "->", "..="]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'q'; }");
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Lifetime));
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Char));
    }

    #[test]
    fn negative_numbers_tokenize_as_minus_then_int() {
        let l = lex("x = -125;");
        let kinds: Vec<TokKind> = l.toks.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokKind::Int));
        let int = l.toks.iter().find(|t| t.kind == TokKind::Int).unwrap();
        assert_eq!(int.text, "125");
    }
}

//! A zero-dependency Rust lexer + block/item scanner for the latch lint.
//!
//! The old linter worked on lines with a comment/string stripper, which
//! meant every rule was one clever substring away from a false positive.
//! This module produces a real token stream — identifiers, numeric /
//! string / char literals (including raw strings and byte strings),
//! lifetimes, line and nested block comments, punctuation — each token
//! carrying its line and brace depth, so rules can never fire inside a
//! string or a comment by construction.
//!
//! On top of the stream, [`scan`] builds a [`FileModel`]: a lightweight
//! item scanner that finds `fn` bodies (where guard liveness is tracked)
//! and marks `#[cfg(test)]` regions.
//!
//! The lexer is deliberately permissive: it never errors. Malformed
//! source (unterminated string, stray byte) degrades to punct/ident
//! tokens rather than aborting the lint pass — the compiler, not the
//! linter, owns syntax errors.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `unwrap`, ...).
    Ident,
    /// A lifetime such as `'a` or `'static` (not a char literal).
    Lifetime,
    /// Integer literal, any base, with optional suffix (`0xFF_u32`).
    Int,
    /// Float literal (`1.5`, `1e-6`, `2.0f64`).
    Float,
    /// String or byte-string literal, quotes included.
    Str,
    /// Raw (byte) string literal, `r"…"` / `br#"…"#`, delimiters included.
    RawStr,
    /// Char or byte literal (`'x'`, `'\n'`, `b'q'`).
    Char,
    /// `// …` comment, to end of line.
    LineComment,
    /// `/* … */` comment, nesting honoured; may span lines.
    BlockComment,
    /// A single punctuation byte (`.`, `:`, `!`, `&`, ...).
    Punct,
    /// `(`, `[`, or `{`.
    Open,
    /// `)`, `]`, or `}`.
    Close,
}

/// One lexed token. `text` is the exact source slice (comments keep their
/// full text so suppression markers can be read from them).
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line of the token's first byte.
    pub line: u32,
    /// Brace (`{}`) nesting depth at the token. An `Open` `{` carries the
    /// depth *outside* it; the matching `Close` `}` carries the same.
    pub depth: u32,
}

impl Token {
    fn new(kind: TokKind, text: &str, line: u32, depth: u32) -> Token {
        Token { kind, text: text.to_string(), line, depth }
    }

    /// Is this token a comment (never code)?
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Lex `src` into tokens. Whitespace is dropped; everything else —
/// including comments — is kept.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { src: src.as_bytes(), pos: 0, line: 1, depth: 0, out: Vec::new() }.run(src)
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    depth: u32,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    /// Advance one byte, tracking the line.
    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn run(mut self, text: &str) -> Vec<Token> {
        while self.pos < self.src.len() {
            let (line, depth) = (self.line, self.depth);
            let start = self.pos;
            let c = self.peek(0);
            let kind = match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                    continue;
                }
                b'/' if self.peek(1) == b'/' => {
                    while self.pos < self.src.len() && self.peek(0) != b'\n' {
                        self.bump();
                    }
                    TokKind::LineComment
                }
                b'/' if self.peek(1) == b'*' => {
                    self.block_comment();
                    TokKind::BlockComment
                }
                b'"' => {
                    self.string();
                    TokKind::Str
                }
                b'r' | b'b' if self.raw_or_byte_string() => {
                    // token consumed inside the probe
                    self.raw_kind(start)
                }
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                c if c == b'_' || c.is_ascii_alphabetic() => {
                    // raw identifier `r#foo` (the raw-string probe above
                    // already rejected `r#"` forms)
                    if c == b'r' && self.peek(1) == b'#' {
                        self.bump_n(2);
                    }
                    while self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric() {
                        self.bump();
                    }
                    TokKind::Ident
                }
                b'(' | b'[' => {
                    self.bump();
                    TokKind::Open
                }
                b'{' => {
                    self.bump();
                    self.depth += 1;
                    TokKind::Open
                }
                b')' | b']' => {
                    self.bump();
                    TokKind::Close
                }
                b'}' => {
                    self.bump();
                    self.depth = self.depth.saturating_sub(1);
                    TokKind::Close
                }
                _ => {
                    self.bump();
                    TokKind::Punct
                }
            };
            // A closing brace belongs to the depth *outside* it, matching
            // its opener.
            let depth = if kind == TokKind::Close && c == b'}' { self.depth } else { depth };
            self.out.push(Token::new(kind, &text[start..self.pos], line, depth));
        }
        self.out
    }

    /// `/* … */` with nesting. An unterminated comment runs to EOF.
    fn block_comment(&mut self) {
        self.bump_n(2);
        let mut nest = 1u32;
        while self.pos < self.src.len() && nest > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                nest += 1;
                self.bump_n(2);
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                nest -= 1;
                self.bump_n(2);
            } else {
                self.bump();
            }
        }
    }

    /// `"…"` with escapes; multi-line strings are consumed fully. An
    /// unterminated string runs to EOF.
    fn string(&mut self) {
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// If the cursor sits on a raw string (`r"`, `r#"`, `br##"`, ...) or a
    /// byte string / byte char (`b"`, `b'`), consume it and return true.
    /// Plain identifiers starting with `r`/`b` (and raw identifiers
    /// `r#foo`) return false and are lexed as identifiers by the caller.
    fn raw_or_byte_string(&mut self) -> bool {
        let mut i = 0;
        let mut byte = false;
        if self.peek(i) == b'b' {
            byte = true;
            i += 1;
        }
        let raw = self.peek(i) == b'r';
        if raw {
            i += 1;
        }
        let mut hashes = 0usize;
        while raw && self.peek(i) == b'#' {
            hashes += 1;
            i += 1;
        }
        if raw && hashes > 0 && self.peek(i) != b'"' {
            return false; // raw identifier r#foo
        }
        match self.peek(i) {
            b'"' if raw => {
                self.bump_n(i + 1);
                // scan to `"` followed by `hashes` hashes
                'outer: while self.pos < self.src.len() {
                    if self.peek(0) == b'"' {
                        for h in 0..hashes {
                            if self.peek(1 + h) != b'#' {
                                self.bump();
                                continue 'outer;
                            }
                        }
                        self.bump_n(1 + hashes);
                        return true;
                    }
                    self.bump();
                }
                true
            }
            b'"' if byte && !raw => {
                self.bump_n(i);
                self.string();
                true
            }
            b'\'' if byte && !raw => {
                self.bump_n(i);
                self.char_or_lifetime();
                true
            }
            _ => false,
        }
    }

    fn raw_kind(&self, start: usize) -> TokKind {
        match self.src[start..].iter().take(3).position(|&c| c == b'r') {
            Some(_) if self.src[start] != b'b' || self.src.get(start + 1) == Some(&b'r') => {
                TokKind::RawStr
            }
            _ => {
                if self.src[start..self.pos].contains(&b'\'') {
                    TokKind::Char
                } else {
                    TokKind::Str
                }
            }
        }
    }

    /// `'a` (lifetime) vs `'x'` / `'\n'` (char literal). A quote followed
    /// by an identifier char with no closing quote right after is a
    /// lifetime; everything else is a char literal.
    fn char_or_lifetime(&mut self) -> TokKind {
        let c1 = self.peek(1);
        if c1 == b'\\' {
            // escaped char literal '\n', '\'', '\u{…}': consume the quote,
            // the backslash AND the escaped char before scanning for the
            // closing quote — else '\'' terminates one char early.
            self.bump_n(3);
            while self.pos < self.src.len() && self.peek(0) != b'\'' {
                self.bump();
            }
            self.bump();
            return TokKind::Char;
        }
        if (c1 == b'_' || c1.is_ascii_alphanumeric()) && self.peek(2) != b'\'' {
            // lifetime: consume 'ident
            self.bump();
            while self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric() {
                self.bump();
            }
            return TokKind::Lifetime;
        }
        // char literal 'x' (also non-ascii and edge cases: consume to quote)
        self.bump();
        while self.pos < self.src.len() && self.peek(0) != b'\'' {
            self.bump();
        }
        self.bump();
        TokKind::Char
    }

    /// Numeric literal: `0x…`, underscores, suffixes, floats with
    /// exponents. A `.` joins the number only when followed by a digit, so
    /// `0..n` and `1.max(2)` lex as integer-then-punct.
    fn number(&mut self) -> TokKind {
        let mut float = false;
        while self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric() {
            let c = self.peek(0);
            // exponent sign: 1e-6 / 2E+3 — only in decimal (not 0x…)
            if (c == b'e' || c == b'E')
                && !self.src[..self.pos].ends_with(b"0x")
                && (self.peek(1) == b'+' || self.peek(1) == b'-')
                && self.peek(2).is_ascii_digit()
            {
                float = true;
                self.bump_n(2);
                continue;
            }
            self.bump();
        }
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            float = true;
            self.bump(); // the dot
            while self.peek(0) == b'_'
                || self.peek(0).is_ascii_alphanumeric()
                || ((self.peek(0) == b'+' || self.peek(0) == b'-')
                    && matches!(self.src.get(self.pos - 1), Some(b'e') | Some(b'E')))
            {
                self.bump();
            }
        }
        if float {
            TokKind::Float
        } else {
            TokKind::Int
        }
    }
}

// ---------------------------------------------------------------------------
// The block/item scanner
// ---------------------------------------------------------------------------

/// One `fn` item's body.
#[derive(Debug)]
pub struct FnScope {
    pub name: String,
    /// Token index of the body's opening `{` and its matching `}`.
    pub body: (usize, usize),
}

/// The scanned shape of one source file.
#[derive(Debug)]
pub struct FileModel {
    pub tokens: Vec<Token>,
    pub fns: Vec<FnScope>,
    /// Token-index ranges covered by `#[cfg(test)]` items (inclusive).
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileModel {
    /// Is token `i` inside a `#[cfg(test)]` item?
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }
}

/// Index of the next non-comment token at or after `i`.
pub fn next_code(tokens: &[Token], mut i: usize) -> Option<usize> {
    while i < tokens.len() {
        if !tokens[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index of the previous non-comment token strictly before `i`.
pub fn prev_code(tokens: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| !tokens[j].is_comment())
}

/// Find the matching close delimiter for the `Open` token at `open`,
/// counting only the same delimiter pair. Returns `tokens.len() - 1` when
/// unbalanced (degraded, never panics).
pub fn matching_close(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match tokens[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => ("{", "}"),
    };
    let mut nest = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Open if t.text == o => nest += 1,
            TokKind::Close if t.text == c => {
                nest -= 1;
                if nest == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Scan a token stream into a [`FileModel`].
pub fn scan(tokens: Vec<Token>) -> FileModel {
    let mut fns: Vec<FnScope> = Vec::new();
    let mut test_ranges: Vec<(usize, usize)> = Vec::new();

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            // #[cfg(test)] — mark the attributed item's full extent.
            TokKind::Punct if t.text == "#" && tokens.get(i + 1).is_some_and(|n| n.text == "[") => {
                let close = matching_close(&tokens, i + 1);
                let attr: Vec<&str> =
                    tokens[i + 1..=close].iter().map(|t| t.text.as_str()).collect();
                if attr.join("") == "[cfg(test)]" {
                    // The item body is the next `{` at this token's depth;
                    // a `;` first (e.g. `#[cfg(test)] use …;`) covers to
                    // that statement instead.
                    let depth = t.depth;
                    let mut j = close + 1;
                    while j < tokens.len() {
                        let u = &tokens[j];
                        if u.kind == TokKind::Open && u.text == "{" && u.depth == depth {
                            let end = matching_close(&tokens, j);
                            test_ranges.push((i, end));
                            break;
                        }
                        if u.kind == TokKind::Punct && u.text == ";" && u.depth == depth {
                            test_ranges.push((i, j));
                            break;
                        }
                        j += 1;
                    }
                }
                i = close + 1;
                continue;
            }
            TokKind::Ident if t.text == "fn" => {
                if let Some(scope) = scan_fn(&tokens, i) {
                    fns.push(scope);
                }
            }
            _ => {}
        }
        i += 1;
    }
    FileModel { tokens, fns, test_ranges }
}

/// Scan one `fn` item starting at the `fn` keyword token.
fn scan_fn(tokens: &[Token], at: usize) -> Option<FnScope> {
    let name_at = next_code(tokens, at + 1)?;
    if tokens[name_at].kind != TokKind::Ident {
        return None; // `fn(` in a fn-pointer type
    }
    let name = tokens[name_at].text.clone();
    // Skip the parameter list (a `{` in a destructuring pattern is not
    // the body): the next `(` after the name, past any generics.
    let mut j = name_at + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokKind::Open && t.text == "(" {
            j = matching_close(tokens, j) + 1;
            break;
        }
        if t.text == ";" || t.text == "{" {
            break;
        }
        j += 1;
    }
    // Body: next `{` at the fn keyword's depth before a `;` (trait decls
    // and extern fns have no body).
    let depth = tokens[at].depth;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokKind::Open && t.text == "{" && t.depth == depth {
            return Some(FnScope { name, body: (j, matching_close(tokens, j)) });
        }
        if t.kind == TokKind::Punct && t.text == ";" && t.depth == depth {
            return None;
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_punct() {
        let toks = kinds("fn f(x: u8) -> u8 { x }");
        assert_eq!(toks[0], (TokKind::Ident, "fn".into()));
        assert_eq!(toks[1], (TokKind::Ident, "f".into()));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Open && t == "{"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "call .unwrap() never";"#);
        let s = toks.iter().find(|(k, _)| *k == TokKind::Str).unwrap();
        assert!(s.1.contains("unwrap"));
        // but no Ident token named unwrap exists
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"a "quoted" b"#; x()"###);
        let raw = toks.iter().find(|(k, _)| *k == TokKind::RawStr).unwrap();
        assert!(raw.1.contains("quoted"));
        // the tail after the raw string still lexes
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "x"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r#"let a = b"bytes"; let c = b'q';"#);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && t.starts_with("b\"")));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t.starts_with("b'")));
    }

    #[test]
    fn raw_identifiers_are_idents() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "r#type"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count() == 2);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "'x'"));
        let toks = kinds(r"let c = '\n'; let s: &'static str = q;");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == r"'\n'"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'static"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::BlockComment).count(), 1);
        let idents: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::Ident).map(|(_, t)| t.clone()).collect();
        assert_eq!(idents, vec!["a", "b"]);
    }

    #[test]
    fn numbers_ranges_and_methods() {
        let toks = kinds("0..n; 1.5e-6; 0xFF_u32; 1.max(2); x.0");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Float && t == "1.5e-6"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Int && t == "0xFF_u32"));
        // `0..n` is Int, dot, dot, ident — not a float
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Int && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "max"));
    }

    #[test]
    fn depth_tracks_braces() {
        let toks = lex("fn f() { if x { y() } }");
        let y = toks.iter().find(|t| t.text == "y").unwrap();
        assert_eq!(y.depth, 2);
        let f = toks.iter().find(|t| t.text == "f").unwrap();
        assert_eq!(f.depth, 0);
    }

    #[test]
    fn scan_finds_fns_and_tests() {
        let src = "fn a() { b() }\n#[cfg(test)]\nmod tests {\n  fn c() {}\n}\n";
        let m = scan(lex(src));
        assert_eq!(m.fns.len(), 2);
        let c_body = m.fns.iter().find(|f| f.name == "c").unwrap().body;
        assert!(m.in_test(c_body.0), "fn c is inside #[cfg(test)]");
        let a_body = m.fns.iter().find(|f| f.name == "a").unwrap().body;
        assert!(!m.in_test(a_body.0));
    }
}

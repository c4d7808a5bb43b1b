//! SQL lexer.
//!
//! Produces a token stream with byte positions for error reporting.
//! Identifiers are case-insensitive (normalized to upper case); string
//! literals use single quotes with `''` as the escape, as in SQL.

use std::fmt;

/// Token kinds. Keywords stay `Ident`s; the parser matches on the
/// upper-cased text, which keeps the keyword set open-ended.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword, upper-cased.
    Ident(String),
    /// Integer literal: the digits' magnitude. The parser applies a
    /// leading minus sign and the `i64` range, so `-9223372036854775808`
    /// (`i64::MIN`, one past `i64::MAX` in magnitude) can be written.
    Int(u64),
    /// Floating literal.
    Float(f64),
    /// String literal (quotes stripped, escapes resolved).
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    /// `<>` or `!=`
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Semicolon,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Int(i) => write!(f, "{i}"),
            TokenKind::Float(x) => write!(f, "{x}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Ne => write!(f, "<>"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token plus its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub pos: usize,
}

/// Streaming lexer over a SQL string.
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer { src, bytes: src.as_bytes(), pos: 0 }
    }

    /// Tokenize the whole input. Returns `(tokens, error)` where `error`
    /// describes the first lexical problem, if any; tokens up to the error
    /// are still returned.
    pub fn tokenize(src: &'a str) -> Result<Vec<Token>, (String, usize)> {
        let mut lex = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let tok = lex.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            tokens.push(tok);
            if done {
                return Ok(tokens);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => self.pos += 1,
                // SQL line comment `-- ...`
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, (String, usize)> {
        self.skip_ws_and_comments();
        let start = self.pos;
        let Some(c) = self.peek() else {
            return Ok(Token { kind: TokenKind::Eof, pos: start });
        };
        let kind = match c {
            b'(' => {
                self.pos += 1;
                TokenKind::LParen
            }
            b')' => {
                self.pos += 1;
                TokenKind::RParen
            }
            b',' => {
                self.pos += 1;
                TokenKind::Comma
            }
            b';' => {
                self.pos += 1;
                TokenKind::Semicolon
            }
            b'*' => {
                self.pos += 1;
                TokenKind::Star
            }
            b'+' => {
                self.pos += 1;
                TokenKind::Plus
            }
            b'-' => {
                self.pos += 1;
                TokenKind::Minus
            }
            b'/' => {
                self.pos += 1;
                TokenKind::Slash
            }
            b'=' => {
                self.pos += 1;
                TokenKind::Eq
            }
            b'<' => {
                self.pos += 1;
                match self.peek() {
                    Some(b'=') => {
                        self.pos += 1;
                        TokenKind::Le
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        TokenKind::Ne
                    }
                    _ => TokenKind::Lt,
                }
            }
            b'>' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'!' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::Ne
                } else {
                    return Err(("unexpected '!'".into(), start));
                }
            }
            b'\'' => return self.string_literal(start),
            b'.' if self.peek2().is_some_and(|d| d.is_ascii_digit()) => return self.number(start),
            b'.' => {
                self.pos += 1;
                TokenKind::Dot
            }
            c if c.is_ascii_digit() => return self.number(start),
            c if c.is_ascii_alphabetic() || c == b'_' => {
                while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                    self.pos += 1;
                }
                TokenKind::Ident(
                    self.src.get(start..self.pos).unwrap_or_default().to_ascii_uppercase(),
                )
            }
            other => {
                return Err((format!("unexpected character {:?}", other as char), start));
            }
        };
        Ok(Token { kind, pos: start })
    }

    fn string_literal(&mut self, start: usize) -> Result<Token, (String, usize)> {
        debug_assert_eq!(self.peek(), Some(b'\''));
        self.pos += 1;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(("unterminated string literal".into(), start)),
                Some(b'\'') => {
                    self.pos += 1;
                    if self.peek() == Some(b'\'') {
                        s.push('\'');
                        self.pos += 1;
                    } else {
                        return Ok(Token { kind: TokenKind::Str(s), pos: start });
                    }
                }
                Some(_) => {
                    // Advance over one UTF-8 character. `peek` saw a
                    // byte, so a char starts here unless `pos` fell off
                    // a boundary — that would be a lexer bug, surfaced
                    // as a lex error rather than a panic.
                    let ch =
                        self.src.get(self.pos..).and_then(|rest| rest.chars().next()).ok_or_else(
                            || ("string literal split a UTF-8 boundary".to_string(), start),
                        )?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self, start: usize) -> Result<Token, (String, usize)> {
        let mut is_float = false;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') && self.peek2() != Some(b'.') {
            // Accept a fractional part, but treat `1.x` (ident) as an error
            // the parser will surface; digits only here.
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let save = self.pos;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            } else {
                self.pos = save; // `123E` → the E starts an identifier
            }
        }
        let text = self.src.get(start..self.pos).unwrap_or_default();
        let kind = if is_float {
            TokenKind::Float(
                text.parse().map_err(|_| (format!("bad float literal {text}"), start))?,
            )
        } else {
            TokenKind::Int(text.parse().map_err(|_| (format!("bad int literal {text}"), start))?)
        };
        Ok(Token { kind, pos: start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_select() {
        let k = kinds("SELECT name FROM emp WHERE sal >= 100");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Ident("NAME".into()),
                TokenKind::Ident("FROM".into()),
                TokenKind::Ident("EMP".into()),
                TokenKind::Ident("WHERE".into()),
                TokenKind::Ident("SAL".into()),
                TokenKind::Ge,
                TokenKind::Int(100),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn operators() {
        let k = kinds("= <> != < <= > >= + - * / ( ) , . ;");
        assert_eq!(
            k,
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Comma,
                TokenKind::Dot,
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("4.25")[0], TokenKind::Float(4.25));
        assert_eq!(kinds(".5")[0], TokenKind::Float(0.5));
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5E-1")[0], TokenKind::Float(0.25));
    }

    #[test]
    fn qualified_column_is_three_tokens() {
        let k = kinds("EMP.DNO");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("EMP".into()),
                TokenKind::Dot,
                TokenKind::Ident("DNO".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds("'SAN JOSE'")[0], TokenKind::Str("SAN JOSE".into()));
        assert_eq!(kinds("'O''BRIEN'")[0], TokenKind::Str("O'BRIEN".into()));
        assert!(Lexer::tokenize("'unterminated").is_err());
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("SELECT -- the list\n 1");
        assert_eq!(k, vec![TokenKind::Ident("SELECT".into()), TokenKind::Int(1), TokenKind::Eof]);
    }

    #[test]
    fn idents_uppercase() {
        assert_eq!(kinds("Clerk_Type")[0], TokenKind::Ident("CLERK_TYPE".into()));
    }

    #[test]
    fn bad_char_errors() {
        assert!(Lexer::tokenize("SELECT #").is_err());
        assert!(Lexer::tokenize("!x").is_err());
    }

    #[test]
    fn positions_recorded() {
        let toks = Lexer::tokenize("AB  CD").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 4);
    }
}

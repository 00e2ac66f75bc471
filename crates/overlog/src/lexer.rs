//! Tokenizer for OverLog source.
//!
//! Produces a flat token stream with [`Span`]s (line/column) so parse and
//! validation errors can point at the offending source. Supports `//`
//! line comments and `/* ... */` block comments.

use std::fmt;

/// A source position range: the byte span `start..end` plus the 1-based
/// line and column of `start`, so diagnostics can both slice the source
/// text (caret snippets) and render a human `line:col`.
///
/// Spans are *positions, not semantics*: two AST nodes that differ only
/// in where they were written are the same program. `PartialEq`
/// therefore treats every pair of spans as equal, which lets the AST
/// types keep their derived structural equality (pretty-print round
/// trips compare equal even though the reprinted spans moved). Compare
/// the `line`/`col`/`start`/`end` fields directly when a test cares
/// about actual positions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: u32,
    /// Byte offset one past the last byte.
    pub end: u32,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub col: u32,
}

impl PartialEq for Span {
    fn eq(&self, _other: &Span) -> bool {
        true // positions carry no semantics; see the type docs
    }
}

impl Eq for Span {}

impl Span {
    /// A span covering `self` through the end of `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            end: other.end.max(self.end),
            ..self
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Lower-case identifier (predicate names, constants, keywords).
    Ident(String),
    /// Capitalized identifier (variable).
    Var(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Hex literal (`0x...`): a 64-bit ring identifier.
    IdLit(u64),
    /// String literal (content, unquoted).
    Str(String),
    /// `_`
    Underscore,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `.` (statement terminator)
    Dot,
    /// `@`
    At,
    /// `:-`
    Implies,
    /// `:=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    BangEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Var(s) => write!(f, "{s}"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::IdLit(v) => write!(f, "{v:#x}"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Underscore => write!(f, "_"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Comma => write!(f, ","),
            Tok::Dot => write!(f, "."),
            Tok::At => write!(f, "@"),
            Tok::Implies => write!(f, ":-"),
            Tok::Assign => write!(f, ":="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
            Tok::EqEq => write!(f, "=="),
            Tok::BangEq => write!(f, "!="),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::AndAnd => write!(f, "&&"),
            Tok::OrOr => write!(f, "||"),
            Tok::Bang => write!(f, "!"),
        }
    }
}

/// A token plus its position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub tok: Tok,
    /// Source position.
    pub span: Span,
}

/// A tokenization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Where it happened.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.message, self.span)
    }
}

impl std::error::Error for LexError {}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn span(&self) -> Span {
        Span {
            start: self.pos as u32,
            end: self.pos as u32 + 1,
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, msg: impl Into<String>) -> LexError {
        LexError {
            message: msg.into(),
            span: self.span(),
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(LexError {
                                    message: "unterminated block comment".into(),
                                    span: start,
                                })
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// The source from `start` to the cursor. Only for runs the lexer
    /// matched byte by byte as ASCII (digits, identifier characters), so
    /// widening each byte to a `char` is exact and nothing can fail.
    fn ascii_since(&self, start: usize) -> String {
        self.src[start..self.pos]
            .iter()
            .map(|&b| char::from(b))
            .collect()
    }

    fn lex_number(&mut self) -> Result<Token, LexError> {
        let span = self.span();
        let start = self.pos;
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let hstart = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                self.bump();
            }
            if self.pos == hstart {
                return Err(self.err("hex literal needs digits"));
            }
            let v = u64::from_str_radix(&self.ascii_since(hstart), 16)
                .map_err(|_| self.err("hex literal out of range"))?;
            // Hex literals denote ring identifiers: Chord node IDs span
            // the full 64-bit space, beyond i64.
            return Ok(Token {
                tok: Tok::IdLit(v),
                span,
            });
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        // A dot is part of the number only if followed by a digit;
        // otherwise it is the statement terminator (e.g. `periodic(E, 1).`).
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = self.ascii_since(start);
        if is_float {
            let v: f64 = text.parse().map_err(|_| self.err("bad float literal"))?;
            Ok(Token {
                tok: Tok::Float(v),
                span,
            })
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| self.err("integer literal out of range"))?;
            Ok(Token {
                tok: Tok::Int(v),
                span,
            })
        }
    }

    fn lex_ident(&mut self) -> Token {
        let span = self.span();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.bump();
        }
        let text = self.ascii_since(start);
        let tok = if text.starts_with(|c: char| c.is_ascii_uppercase()) {
            Tok::Var(text)
        } else {
            Tok::Ident(text)
        };
        Token { tok, span }
    }

    fn lex_string(&mut self) -> Result<Token, LexError> {
        let span = self.span();
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    other => {
                        return Err(LexError {
                            message: format!("bad escape {:?}", other.map(|c| c as char)),
                            span,
                        })
                    }
                },
                Some(c) => out.push(c as char),
                None => {
                    return Err(LexError {
                        message: "unterminated string".into(),
                        span,
                    })
                }
            }
        }
        Ok(Token {
            tok: Tok::Str(out),
            span,
        })
    }

    fn next_token(&mut self) -> Result<Option<Token>, LexError> {
        self.skip_trivia()?;
        let span = self.span();
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let simple = |l: &mut Self, t: Tok| {
            l.bump();
            Ok(Some(Token { tok: t, span }))
        };
        match c {
            b'0'..=b'9' => Ok(Some(self.lex_number()?)),
            b'a'..=b'z' | b'A'..=b'Z' => Ok(Some(self.lex_ident())),
            b'_' => {
                // `_` alone is a wildcard; `_foo` is an identifier.
                if matches!(self.peek2(), Some(c2) if c2.is_ascii_alphanumeric() || c2 == b'_') {
                    Ok(Some(self.lex_ident()))
                } else {
                    simple(self, Tok::Underscore)
                }
            }
            b'"' => Ok(Some(self.lex_string()?)),
            b'(' => simple(self, Tok::LParen),
            b')' => simple(self, Tok::RParen),
            b'[' => simple(self, Tok::LBracket),
            b']' => simple(self, Tok::RBracket),
            b',' => simple(self, Tok::Comma),
            b'.' => simple(self, Tok::Dot),
            b'@' => simple(self, Tok::At),
            b'+' => simple(self, Tok::Plus),
            b'-' => simple(self, Tok::Minus),
            b'*' => simple(self, Tok::Star),
            b'/' => simple(self, Tok::Slash),
            b'%' => simple(self, Tok::Percent),
            b':' => {
                self.bump();
                match self.peek() {
                    Some(b'-') => {
                        self.bump();
                        Ok(Some(Token {
                            tok: Tok::Implies,
                            span,
                        }))
                    }
                    Some(b'=') => {
                        self.bump();
                        Ok(Some(Token {
                            tok: Tok::Assign,
                            span,
                        }))
                    }
                    _ => Err(LexError {
                        message: "expected ':-' or ':='".into(),
                        span,
                    }),
                }
            }
            b'=' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(Some(Token {
                        tok: Tok::EqEq,
                        span,
                    }))
                } else {
                    Err(LexError {
                        message: "expected '=='".into(),
                        span,
                    })
                }
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(Some(Token {
                        tok: Tok::BangEq,
                        span,
                    }))
                } else {
                    Ok(Some(Token {
                        tok: Tok::Bang,
                        span,
                    }))
                }
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(Some(Token { tok: Tok::Le, span }))
                } else {
                    Ok(Some(Token { tok: Tok::Lt, span }))
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(Some(Token { tok: Tok::Ge, span }))
                } else {
                    Ok(Some(Token { tok: Tok::Gt, span }))
                }
            }
            b'&' => {
                self.bump();
                if self.peek() == Some(b'&') {
                    self.bump();
                    Ok(Some(Token {
                        tok: Tok::AndAnd,
                        span,
                    }))
                } else {
                    Err(LexError {
                        message: "expected '&&'".into(),
                        span,
                    })
                }
            }
            b'|' => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    Ok(Some(Token {
                        tok: Tok::OrOr,
                        span,
                    }))
                } else {
                    Err(LexError {
                        message: "expected '||'".into(),
                        span,
                    })
                }
            }
            other => Err(LexError {
                message: format!("unexpected character {:?}", other as char),
                span,
            }),
        }
    }
}

/// Tokenize a full source string.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    while let Some(mut t) = lx.next_token()? {
        // The lexer sits one past the token's last byte here, which
        // completes the byte span started at the token's first byte.
        t.span.end = lx.pos as u32;
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_and_vars() {
        assert_eq!(
            toks("pred NAddr f_now"),
            vec![
                Tok::Ident("pred".into()),
                Tok::Var("NAddr".into()),
                Tok::Ident("f_now".into())
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 3.25 0x1f 0xffffffffffffffff"),
            vec![
                Tok::Int(42),
                Tok::Float(3.25),
                Tok::IdLit(31),
                Tok::IdLit(u64::MAX)
            ]
        );
    }

    #[test]
    fn dot_after_int_is_terminator() {
        // `periodic@N(E, 1).` — the `1.` must lex as Int(1), Dot.
        assert_eq!(toks("1."), vec![Tok::Int(1), Tok::Dot]);
        assert_eq!(toks("1.5."), vec![Tok::Float(1.5), Tok::Dot]);
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks(":- := == != <= >= < > && || + - * / % !"),
            vec![
                Tok::Implies,
                Tok::Assign,
                Tok::EqEq,
                Tok::BangEq,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Percent,
                Tok::Bang,
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            toks(r#""Snapping" "-" "a\"b""#),
            vec![
                Tok::Str("Snapping".into()),
                Tok::Str("-".into()),
                Tok::Str("a\"b".into()),
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // comment\n b /* block \n over lines */ c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into())
            ]
        );
    }

    #[test]
    fn wildcard_vs_underscore_ident() {
        assert_eq!(toks("_ _x"), vec![Tok::Underscore, Tok::Ident("_x".into())]);
    }

    #[test]
    fn spans_track_lines() {
        let ts = tokenize("a\n  b").unwrap();
        assert_eq!((ts[0].span.line, ts[0].span.col), (1, 1));
        assert_eq!((ts[1].span.line, ts[1].span.col), (2, 3));
    }

    #[test]
    fn spans_track_byte_offsets() {
        let ts = tokenize("ab  cde").unwrap();
        assert_eq!((ts[0].span.start, ts[0].span.end), (0, 2));
        assert_eq!((ts[1].span.start, ts[1].span.end), (4, 7));
        let ts = tokenize(r#""str" 0x1f"#).unwrap();
        assert_eq!((ts[0].span.start, ts[0].span.end), (0, 5));
        assert_eq!((ts[1].span.start, ts[1].span.end), (6, 10));
    }

    #[test]
    fn errors_are_positioned() {
        let e = tokenize("a $ b").unwrap_err();
        assert_eq!((e.span.line, e.span.col), (1, 3));
        let e = tokenize("\"unterminated").unwrap_err();
        assert!(e.message.contains("unterminated"));
        let e = tokenize("/* open").unwrap_err();
        assert!(e.message.contains("block comment"));
    }

    #[test]
    fn paper_rule_lexes() {
        let src = r#"rp3 inconsistentPred@NAddr() :-
            respBestSucc@NAddr(PAddr, Successor),
            pred@NAddr(PID, PAddr), Successor != NAddr."#;
        let ts = toks(src);
        assert!(ts.contains(&Tok::Implies));
        assert!(ts.contains(&Tok::BangEq));
        assert_eq!(ts.last(), Some(&Tok::Dot));
    }
}

//! Hand-written lexer for the F-logic Lite surface syntax.

use std::fmt;

use crate::ast::AstTerm;
use crate::error::{Pos, SyntaxError, SyntaxErrorKind};

/// Kinds of tokens produced by the lexer. Identifiers borrow their text
/// from the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// Lowercase identifier or number — a constant (`john`, `33`).
    LIdent(&'a str),
    /// Uppercase/underscore identifier — a variable (`X`, `Att`, `_G1`).
    UIdent(&'a str),
    /// A bare `_` — anonymous variable.
    Anon,
    /// `:-`
    Implies,
    /// `::`
    SubSym,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `->`
    Arrow,
    /// `*=>`
    SigArrow,
    /// `*` (inside cardinality braces)
    Star,
    /// `=` — the equated pair of an EGD in `.sigma` rule files.
    Eq,
    /// `?-` — goal prefix for ad-hoc queries.
    Goal,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::LIdent(s) | TokenKind::UIdent(s) => f.write_str(s),
            TokenKind::Anon => f.write_str("_"),
            TokenKind::Implies => f.write_str(":-"),
            TokenKind::SubSym => f.write_str("::"),
            TokenKind::Colon => f.write_str(":"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::Dot => f.write_str("."),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::LBracket => f.write_str("["),
            TokenKind::RBracket => f.write_str("]"),
            TokenKind::LBrace => f.write_str("{"),
            TokenKind::RBrace => f.write_str("}"),
            TokenKind::Arrow => f.write_str("->"),
            TokenKind::SigArrow => f.write_str("*=>"),
            TokenKind::Star => f.write_str("*"),
            TokenKind::Eq => f.write_str("="),
            TokenKind::Goal => f.write_str("?-"),
            TokenKind::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token kind (and text, for identifiers).
    pub kind: TokenKind<'a>,
    /// Position of the first character.
    pub pos: Pos,
}

/// The lexer: a tokenizer that walks `&str` byte offsets.
pub struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next character.
    at: usize,
    line: u32,
    /// Column of the next character, counted in characters.
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input,
            at: 0,
            line: 1,
            col: 1,
        }
    }

    /// Tokenizes the whole input, appending a final [`TokenKind::Eof`].
    pub fn tokenize(input: &'a str) -> Result<Vec<Token<'a>>, SyntaxError> {
        let mut lexer = Lexer::new(input);
        // Spaced query text runs under two bytes a token, so this is
        // one allocation, or two, for most inputs.
        let mut out = Vec::with_capacity(input.len() / 2);
        loop {
            let tok = lexer.next_token()?;
            out.push(tok);
            if tok.kind == TokenKind::Eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<char> {
        match *self.input.as_bytes().get(self.at)? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.input[self.at..].chars().next(),
        }
    }

    /// Moves past `c`, the next character.
    fn advance(&mut self, c: char) {
        self.at += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.advance(c);
        }
    }

    fn skip_trivia(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.advance(c);
            } else if c == '%' {
                // Line comment.
                while let Some(c) = self.peek().filter(|&c| c != '\n') {
                    self.advance(c);
                }
            } else {
                break;
            }
        }
    }

    fn err(&self, kind: SyntaxErrorKind) -> SyntaxError {
        SyntaxError::at(self.line, self.col, kind)
    }

    /// Produces the next token.
    pub fn next_token(&mut self) -> Result<Token<'a>, SyntaxError> {
        self.skip_trivia();
        let pos = Pos {
            line: self.line,
            col: self.col,
        };
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                pos,
            });
        };
        let kind = match c {
            ',' => {
                self.bump();
                TokenKind::Comma
            }
            '.' => {
                self.bump();
                TokenKind::Dot
            }
            '(' => {
                self.bump();
                TokenKind::LParen
            }
            ')' => {
                self.bump();
                TokenKind::RParen
            }
            '[' => {
                self.bump();
                TokenKind::LBracket
            }
            ']' => {
                self.bump();
                TokenKind::RBracket
            }
            '{' => {
                self.bump();
                TokenKind::LBrace
            }
            '}' => {
                self.bump();
                TokenKind::RBrace
            }
            ':' => {
                self.bump();
                match self.peek() {
                    Some(':') => {
                        self.bump();
                        TokenKind::SubSym
                    }
                    Some('-') => {
                        self.bump();
                        TokenKind::Implies
                    }
                    _ => TokenKind::Colon,
                }
            }
            '-' => {
                self.bump();
                if self.peek() == Some('>') {
                    self.bump();
                    TokenKind::Arrow
                } else {
                    return Err(self.err(SyntaxErrorKind::UnexpectedChar('-')));
                }
            }
            '=' => {
                self.bump();
                TokenKind::Eq
            }
            '?' => {
                self.bump();
                if self.peek() == Some('-') {
                    self.bump();
                    TokenKind::Goal
                } else {
                    return Err(self.err(SyntaxErrorKind::UnexpectedChar('?')));
                }
            }
            '*' => {
                self.bump();
                if self.peek() == Some('=') {
                    self.bump();
                    if self.peek() == Some('>') {
                        self.bump();
                        TokenKind::SigArrow
                    } else {
                        return Err(self.err(SyntaxErrorKind::UnexpectedChar('=')));
                    }
                } else {
                    TokenKind::Star
                }
            }
            c if c.is_ascii_digit() || c.is_lowercase() => TokenKind::LIdent(self.lex_ident()),
            c if c.is_uppercase() || c == '_' => match self.lex_ident() {
                "_" => TokenKind::Anon,
                name => TokenKind::UIdent(name),
            },
            other => return Err(self.err(SyntaxErrorKind::UnexpectedChar(other))),
        };
        Ok(Token { kind, pos })
    }

    fn lex_ident(&mut self) -> &'a str {
        let start = self.at;
        while let Some(c) = self
            .peek()
            .filter(|&c| c.is_alphanumeric() || c == '_' || c == '\'')
        {
            self.advance(c);
        }
        &self.input[start..self.at]
    }
}

/// The token stream of one input, with the lookahead both parsers
/// share. It never moves past the final [`TokenKind::Eof`].
pub(crate) struct Cursor<'a> {
    tokens: Vec<Token<'a>>,
    idx: usize,
}

impl<'a> Cursor<'a> {
    /// Tokenizes `input`.
    pub(crate) fn new(input: &'a str) -> Result<Cursor<'a>, SyntaxError> {
        Ok(Cursor {
            tokens: Lexer::tokenize(input)?,
            idx: 0,
        })
    }

    /// The next token.
    pub(crate) fn peek(&self) -> Token<'a> {
        self.tokens[self.idx]
    }

    /// Whether the next tokens open a predicate atom: a lowercase name
    /// followed by `(`.
    pub(crate) fn at_atom(&self) -> bool {
        matches!(self.peek().kind, TokenKind::LIdent(_))
            && self.tokens[self.idx + 1].kind == TokenKind::LParen
    }

    /// Consumes the next token.
    pub(crate) fn bump(&mut self) -> Token<'a> {
        let t = self.peek();
        if t.kind != TokenKind::Eof {
            self.idx += 1;
        }
        t
    }

    /// Consumes the next token if it is `kind`.
    pub(crate) fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        let hit = self.peek().kind == kind;
        if hit {
            self.bump();
        }
        hit
    }

    /// Consumes the next token, which must be `kind`; the error says
    /// `expected` was due.
    pub(crate) fn expect(
        &mut self,
        kind: TokenKind<'_>,
        expected: &'static str,
    ) -> Result<Token<'a>, SyntaxError> {
        if self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.unexpected(expected))
        }
    }

    /// The error for a next token that is not `expected`.
    pub(crate) fn unexpected(&self, expected: &'static str) -> SyntaxError {
        let t = self.peek();
        let kind = match t.kind {
            TokenKind::Eof => SyntaxErrorKind::UnexpectedEof,
            got => SyntaxErrorKind::UnexpectedToken {
                expected,
                got: got.to_string(),
            },
        };
        SyntaxError::at(t.pos.line, t.pos.col, kind)
    }

    /// Consumes a constant, variable or `_` as an AST term, which owns its
    /// name; the error says `expected` was due.
    pub(crate) fn term(&mut self, expected: &'static str) -> Result<AstTerm, SyntaxError> {
        let term = match self.peek().kind {
            TokenKind::LIdent(name) => AstTerm::Const(name.to_owned()),
            TokenKind::UIdent(name) => AstTerm::Var(name.to_owned()),
            TokenKind::Anon => AstTerm::Anon,
            _ => return Err(self.unexpected(expected)),
        };
        self.bump();
        Ok(term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        Lexer::tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_molecule_symbols() {
        use TokenKind::*;
        assert_eq!(
            kinds("john:student."),
            vec![LIdent("john"), Colon, LIdent("student"), Dot, Eof]
        );
        assert_eq!(kinds("a::b"), vec![LIdent("a"), SubSym, LIdent("b"), Eof]);
    }

    #[test]
    fn lexes_arrows() {
        use TokenKind::*;
        assert_eq!(
            kinds("x[a->1]"),
            vec![
                LIdent("x"),
                LBracket,
                LIdent("a"),
                Arrow,
                LIdent("1"),
                RBracket,
                Eof
            ]
        );
        assert!(kinds("p[a*=>t]").contains(&SigArrow));
    }

    #[test]
    fn lexes_cardinality() {
        use TokenKind::*;
        assert_eq!(
            kinds("{0:1}"),
            vec![LBrace, LIdent("0"), Colon, LIdent("1"), RBrace, Eof]
        );
        assert_eq!(
            kinds("{1,*}"),
            vec![LBrace, LIdent("1"), Comma, Star, RBrace, Eof]
        );
    }

    #[test]
    fn lexes_implies_vs_colon() {
        use TokenKind::*;
        assert_eq!(kinds(":- :: :"), vec![Implies, SubSym, Colon, Eof]);
    }

    #[test]
    fn variables_vs_constants() {
        use TokenKind::*;
        assert_eq!(
            kinds("X att _ _G1 33"),
            vec![
                UIdent("X"),
                LIdent("att"),
                Anon,
                UIdent("_G1"),
                LIdent("33"),
                Eof
            ]
        );
    }

    #[test]
    fn primed_variables_lex() {
        use TokenKind::*;
        assert_eq!(kinds("A''"), vec![UIdent("A''"), Eof]);
    }

    #[test]
    fn comments_skipped_and_positions_tracked() {
        let toks = Lexer::tokenize("% a comment\n  q").unwrap();
        assert_eq!(toks[0].kind, TokenKind::LIdent("q"));
        assert_eq!(toks[0].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn bad_character_errors_with_position() {
        let err = Lexer::tokenize("a $ b").unwrap_err();
        assert_eq!(err.pos.unwrap().col, 3);
        assert!(matches!(err.kind, SyntaxErrorKind::UnexpectedChar('$')));
    }

    #[test]
    fn lone_dash_is_an_error() {
        assert!(Lexer::tokenize("a - b").is_err());
    }
}

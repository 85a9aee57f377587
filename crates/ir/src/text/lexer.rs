use std::fmt;

/// A token of the textual IR language. Identifiers borrow from the source
/// text, so lexing allocates nothing but the token and position vectors.
/// Tokens hash by content, so a run of them can key a table (the parser's
/// statement memo).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Token<'a> {
    /// Identifier or keyword.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// `:=`
    Assign,
    /// `->`
    Arrow,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;` or a newline — statement separator.
    Sep,
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
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Assign => write!(f, ":="),
            Token::Arrow => write!(f, "->"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Sep => write!(f, "';'"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::EqEq => write!(f, "=="),
            Token::Ne => write!(f, "!="),
        }
    }
}

/// A 1-based line/column source position.
///
/// Every token carries the position of its first character, and the parser
/// propagates statement positions onto the instructions it produces (see
/// [`SourceMap`](super::SourceMap)) so downstream tooling — notably the
/// `am-lint` diagnostics — can cite the exact source location of a finding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pos {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (in characters).
    pub col: usize,
}

impl Pos {
    /// Builds a position from 1-based line and column.
    pub fn new(line: usize, col: usize) -> Pos {
        Pos { line, col }
    }
}

/// A [`Pos`] in half the space, as [`lex_split`] stores one per token.
/// Lines and columns past `u32::MAX` read as `u32::MAX`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Spot {
    line: u32,
    col: u32,
}

impl From<Pos> for Spot {
    fn from(p: Pos) -> Spot {
        let narrow = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Spot {
            line: narrow(p.line),
            col: narrow(p.col),
        }
    }
}

impl From<Spot> for Pos {
    fn from(s: Spot) -> Pos {
        Pos::new(s.line as usize, s.col as usize)
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexing failure with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (0 when unknown).
    pub col: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col == 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "line {}:{}: {}", self.line, self.col, self.message)
        }
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`, returning `(token, position)` pairs; the position is
/// that of the token's first character.
///
/// Newlines outside parentheses are emitted as [`Token::Sep`]; consecutive
/// separators are collapsed. `#` and `//` start comments running to the end
/// of the line.
///
/// The scan walks bytes: ASCII, which is all the grammar's punctuation and
/// almost every identifier, is classified without decoding, and only
/// non-ASCII characters are decoded (they may be Unicode letters, digits or
/// whitespace). Columns still count characters.
///
/// # Errors
///
/// Returns a [`LexError`] on unknown characters or malformed numbers.
pub fn lex(src: &str) -> Result<Vec<(Token<'_>, Pos)>, LexError> {
    let (tokens, spots) = lex_split(src)?;
    Ok(tokens
        .into_iter()
        .zip(spots.into_iter().map(Pos::from))
        .collect())
}

/// [`lex`] into two parallel vectors: the tokens, and the position of
/// each. The parser keys statements by runs of the token vector.
pub(crate) fn lex_split(src: &str) -> Result<(Vec<Token<'_>>, Vec<Spot>), LexError> {
    let bytes = src.as_bytes();
    // Program text runs to about one token per two or three bytes, so
    // both vectors are sized once for most inputs: one allocation of a
    // size that repeats from parse to parse, not a chain of growing ones.
    // The cap keeps a multi-megabyte input that holds few tokens
    // (comments, say) from reserving for many; past it the vectors grow
    // as they fill.
    let mut out = Tokens::with_capacity((src.len() / 2).min(1 << 20));
    let (mut i, mut line, mut col) = (0usize, 1usize, 1usize);
    let mut paren_depth = 0usize;
    let err = |at: Pos, message: String| LexError {
        line: at.line,
        col: at.col,
        message,
    };
    let push_sep = |out: &mut Tokens<'_>, at: Pos| {
        if !matches!(out.tokens.last(), Some(Token::Sep) | None) {
            out.push(Token::Sep, at);
        }
    };

    while let Some(&b) = bytes.get(i) {
        let at = Pos { line, col };
        let tok = match (b, bytes.get(i + 1)) {
            (b'\n', _) => {
                i += 1;
                line += 1;
                col = 1;
                if paren_depth == 0 {
                    push_sep(&mut out, at);
                }
                continue;
            }
            // A comment runs to the newline, which resets the column.
            (b'#', _) | (b'/', Some(b'/')) => {
                i += bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .unwrap_or(bytes.len() - i);
                continue;
            }
            (b';', _) => {
                push_sep(&mut out, at);
                i += 1;
                col += 1;
                continue;
            }
            (b'}', _) => {
                // A closing brace also terminates the statement before it.
                push_sep(&mut out, at);
                Token::RBrace
            }
            (b'{', _) => Token::LBrace,
            (b'(', _) => {
                paren_depth += 1;
                Token::LParen
            }
            (b')', _) => {
                paren_depth = paren_depth.saturating_sub(1);
                Token::RParen
            }
            (b',', _) => Token::Comma,
            (b'+', _) => Token::Plus,
            (b'*', _) => Token::Star,
            (b'%', _) => Token::Percent,
            (b'/', _) => Token::Slash,
            (b'-', Some(b'>')) => Token::Arrow,
            (b'-', _) => Token::Minus,
            (b'<', Some(b'=')) => Token::Le,
            (b'<', _) => Token::Lt,
            (b'>', Some(b'=')) => Token::Ge,
            (b'>', _) => Token::Gt,
            (b':', Some(b'=')) => Token::Assign,
            (b'=', Some(b'=')) => Token::EqEq,
            (b'!', Some(b'=')) => Token::Ne,
            (b':', _) => return Err(err(at, "expected ':='".into())),
            (b'=', _) => return Err(err(at, "expected '=='".into())),
            (b'!', _) => return Err(err(at, "expected '!='".into())),
            (b'0'..=b'9', _) => {
                let start = i;
                while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                }
                col += i - start;
                let text = &src[start..i];
                let value: i64 = text
                    .parse()
                    .map_err(|_| err(at, format!("integer literal '{text}' out of range")))?;
                out.push(Token::Int(value), at);
                continue;
            }
            _ => {
                let c = if b.is_ascii() {
                    char::from(b)
                } else {
                    src[i..].chars().next().expect("i is on a char boundary")
                };
                if c.is_whitespace() {
                    i += c.len_utf8();
                    col += 1;
                } else if c.is_alphabetic() || c == '_' {
                    let start = i;
                    i = ident_end(src, i, &mut col);
                    out.push(Token::Ident(&src[start..i]), at);
                } else {
                    return Err(err(at, format!("unexpected character '{c}'")));
                }
                continue;
            }
        };
        // The remaining tokens are one or two ASCII characters.
        let width = match tok {
            Token::Arrow | Token::Le | Token::Ge | Token::Assign | Token::EqEq | Token::Ne => 2,
            _ => 1,
        };
        out.push(tok, at);
        i += width;
        col += width;
    }
    // Drop leading/trailing separators for convenience.
    while out.tokens.last() == Some(&Token::Sep) {
        out.tokens.pop();
        out.positions.pop();
    }
    Ok((out.tokens, out.positions))
}

/// The two vectors [`lex_split`] fills in step.
struct Tokens<'a> {
    tokens: Vec<Token<'a>>,
    positions: Vec<Spot>,
}

impl<'a> Tokens<'a> {
    fn with_capacity(n: usize) -> Self {
        Tokens {
            tokens: Vec::with_capacity(n),
            positions: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, token: Token<'a>, at: Pos) {
        self.tokens.push(token);
        self.positions.push(at.into());
    }
}

/// The end of the identifier starting at byte `i`, advancing `col` by its
/// length in characters. Identifiers continue with letters, digits, `_`
/// and `'`.
fn ident_end(src: &str, mut i: usize, col: &mut usize) -> usize {
    let bytes = src.as_bytes();
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'\'' {
            i += 1;
        } else if b.is_ascii() {
            break;
        } else {
            let c = src[i..].chars().next().expect("i is on a char boundary");
            if !c.is_alphanumeric() {
                break;
            }
            i += c.len_utf8();
        }
        *col += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn lexes_assignment() {
        assert_eq!(
            toks("x := a+b"),
            vec![
                Token::Ident("x"),
                Token::Assign,
                Token::Ident("a"),
                Token::Plus,
                Token::Ident("b"),
            ]
        );
    }

    #[test]
    fn newlines_and_semicolons_collapse() {
        assert_eq!(
            toks("a := 1\n\n;;\nb := 2"),
            vec![
                Token::Ident("a"),
                Token::Assign,
                Token::Int(1),
                Token::Sep,
                Token::Ident("b"),
                Token::Assign,
                Token::Int(2),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("x := 1 # trailing\n// whole line\ny := 2"),
            vec![
                Token::Ident("x"),
                Token::Assign,
                Token::Int(1),
                Token::Sep,
                Token::Ident("y"),
                Token::Assign,
                Token::Int(2),
            ]
        );
    }

    #[test]
    fn newlines_inside_parens_are_ignored() {
        assert_eq!(
            toks("out(x,\n y)"),
            vec![
                Token::Ident("out"),
                Token::LParen,
                Token::Ident("x"),
                Token::Comma,
                Token::Ident("y"),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn compound_operators() {
        assert_eq!(
            toks("a <= b >= c == d != e -> f"),
            vec![
                Token::Ident("a"),
                Token::Le,
                Token::Ident("b"),
                Token::Ge,
                Token::Ident("c"),
                Token::EqEq,
                Token::Ident("d"),
                Token::Ne,
                Token::Ident("e"),
                Token::Arrow,
                Token::Ident("f"),
            ]
        );
    }

    #[test]
    fn bad_character_is_reported_with_line() {
        let e = lex("x := 1\ny ?= 2").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 3);
        assert!(e.message.contains('?'));
        assert_eq!(e.to_string(), "line 2:3: unexpected character '?'");
    }

    #[test]
    fn tokens_carry_line_and_column() {
        let toks = lex("x := 1\n  y := 42").unwrap();
        let find = |name: &str| {
            toks.iter()
                .find(|(t, _)| *t == Token::Ident(name))
                .map(|(_, p)| *p)
                .unwrap()
        };
        assert_eq!(find("x"), Pos::new(1, 1));
        assert_eq!(find("y"), Pos::new(2, 3));
        // Multi-character tokens are positioned at their first character.
        let assign = toks
            .iter()
            .rfind(|(t, _)| matches!(t, Token::Assign))
            .map(|(_, p)| *p)
            .unwrap();
        assert_eq!(assign, Pos::new(2, 5));
        let int = toks
            .iter()
            .find(|(t, _)| matches!(t, Token::Int(42)))
            .map(|(_, p)| *p)
            .unwrap();
        assert_eq!(int, Pos::new(2, 8));
    }

    #[test]
    fn lone_colon_is_an_error() {
        assert!(lex("x : 1").is_err());
        assert!(lex("x = 1").is_err());
        assert!(lex("x != ").is_ok());
        assert!(lex("x !").is_err());
    }
}

//! Lexer and recursive-descent parser for the while-language.

use std::fmt;
use std::iter::Peekable;
use std::str::Chars;

use am_ir::BinOp;

use crate::ast::{LExpr, Program, Stmt};

/// The deepest nesting the parser accepts, counting every block,
/// parenthesis and operator operand enclosing a point plus the height of
/// the expression built there. Lowering, printing and dropping the AST each
/// recurse once per level, so the cap keeps every later walk — not just
/// the parser — within a 2 MiB thread stack, unoptimized builds included;
/// deeper input is a [`LangError`], not an abort. Generated and
/// hand-written programs nest a few levels deep. The `.ir` front end
/// applies the same cap ([`am_ir::text::MAX_DEPTH`]).
pub use am_ir::text::MAX_DEPTH;

/// A parse failure with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LangError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LangError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    KwIf,
    KwElse,
    KwWhile,
    KwDo,
    KwFor,
    KwSkip,
    KwPrint,
    Assign,
    Semi,
    Comma,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Op(BinOp),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::KwIf => write!(f, "if"),
            Tok::KwElse => write!(f, "else"),
            Tok::KwWhile => write!(f, "while"),
            Tok::KwDo => write!(f, "do"),
            Tok::KwFor => write!(f, "for"),
            Tok::KwSkip => write!(f, "skip"),
            Tok::KwPrint => write!(f, "print"),
            Tok::Assign => write!(f, ":="),
            Tok::Semi => write!(f, ";"),
            Tok::Comma => write!(f, ","),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Op(op) => write!(f, "{}", op.symbol()),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, LangError> {
    let mut out = Vec::new();
    let mut chars: Peekable<Chars<'_>> = src.chars().peekable();
    let mut line = 1;
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                match chars.peek() {
                    Some('/') => {
                        while let Some(&c) = chars.peek() {
                            if c == '\n' {
                                break;
                            }
                            chars.next();
                        }
                    }
                    _ => out.push((Tok::Op(BinOp::Div), line)),
                }
            }
            '#' => {
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    chars.next();
                }
            }
            ';' => {
                chars.next();
                out.push((Tok::Semi, line));
            }
            ',' => {
                chars.next();
                out.push((Tok::Comma, line));
            }
            '(' => {
                chars.next();
                out.push((Tok::LParen, line));
            }
            ')' => {
                chars.next();
                out.push((Tok::RParen, line));
            }
            '{' => {
                chars.next();
                out.push((Tok::LBrace, line));
            }
            '}' => {
                chars.next();
                out.push((Tok::RBrace, line));
            }
            '+' => {
                chars.next();
                out.push((Tok::Op(BinOp::Add), line));
            }
            '-' => {
                chars.next();
                out.push((Tok::Op(BinOp::Sub), line));
            }
            '*' => {
                chars.next();
                out.push((Tok::Op(BinOp::Mul), line));
            }
            '%' => {
                chars.next();
                out.push((Tok::Op(BinOp::Mod), line));
            }
            ':' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push((Tok::Assign, line));
                } else {
                    return Err(LangError {
                        line,
                        message: "expected ':='".into(),
                    });
                }
            }
            '<' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push((Tok::Op(BinOp::Le), line));
                } else {
                    out.push((Tok::Op(BinOp::Lt), line));
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push((Tok::Op(BinOp::Ge), line));
                } else {
                    out.push((Tok::Op(BinOp::Gt), line));
                }
            }
            '=' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push((Tok::Op(BinOp::EqOp), line));
                } else {
                    return Err(LangError {
                        line,
                        message: "expected '==' (assignment is ':=')".into(),
                    });
                }
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push((Tok::Op(BinOp::Ne), line));
                } else {
                    return Err(LangError {
                        line,
                        message: "expected '!='".into(),
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() {
                        text.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let value = text.parse().map_err(|_| LangError {
                    line,
                    message: format!("integer '{text}' out of range"),
                })?;
                out.push((Tok::Int(value), line));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut text = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let tok = match text.as_str() {
                    "if" => Tok::KwIf,
                    "else" => Tok::KwElse,
                    "while" => Tok::KwWhile,
                    "do" => Tok::KwDo,
                    "for" => Tok::KwFor,
                    "skip" => Tok::KwSkip,
                    "print" => Tok::KwPrint,
                    _ => Tok::Ident(text),
                };
                out.push((tok, line));
            }
            other => {
                return Err(LangError {
                    line,
                    message: format!("unexpected character '{other}'"),
                });
            }
        }
    }
    Ok(out)
}

struct Parser {
    /// The unread tokens with their lines, last first: reading a token
    /// pops it.
    rest: Vec<(Tok, usize)>,
    /// The line of the last token read.
    last_line: usize,
    /// Blocks, parentheses and operator operands enclosing the current
    /// token.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.rest.last().map(|(t, _)| t)
    }

    fn advance(&mut self) -> Option<Tok> {
        let (t, line) = self.rest.pop()?;
        self.last_line = line;
        Some(t)
    }

    /// The line of the current token; at end of input, of the last one.
    fn line(&self) -> usize {
        self.rest.last().map_or(self.last_line, |&(_, l)| l)
    }

    fn err(&self, message: impl Into<String>) -> LangError {
        LangError {
            line: self.line(),
            message: message.into(),
        }
    }

    /// Fails when a node of expression height `height` built at the
    /// current depth would nest deeper than [`MAX_DEPTH`].
    fn check_depth(&self, height: usize) -> Result<(), LangError> {
        if self.depth + height > MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        self.depth += 1;
        self.check_depth(0)?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn expect(&mut self, want: &Tok) -> Result<(), LangError> {
        match self.advance() {
            Some(ref t) if t == want => Ok(()),
            Some(t) => Err(self.err(format!("expected {want}, found {t}"))),
            None => Err(self.err(format!("expected {want}, found end of input"))),
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect(&Tok::LBrace)?;
        let body = self.nested(|p| {
            let mut body = Vec::new();
            while p.peek() != Some(&Tok::RBrace) {
                if p.peek().is_none() {
                    return Err(p.err("unterminated block"));
                }
                body.extend(p.stmt()?);
            }
            Ok(body)
        })?;
        self.expect(&Tok::RBrace)?;
        Ok(body)
    }

    /// Parses one surface statement; `for` desugars to two statements
    /// (its init assignment plus a while loop), hence the vector.
    fn stmt(&mut self) -> Result<Vec<Stmt>, LangError> {
        let line = self.line();
        let Some(tok) = self.advance() else {
            return Err(self.err("expected a statement, found end of input"));
        };
        match tok {
            Tok::KwSkip => {
                self.expect(&Tok::Semi)?;
                Ok(vec![Stmt::Skip])
            }
            Tok::KwPrint => {
                self.expect(&Tok::LParen)?;
                let mut args = Vec::new();
                if self.peek() != Some(&Tok::RParen) {
                    loop {
                        args.push(self.expr(0)?);
                        if self.peek() == Some(&Tok::Comma) {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(vec![Stmt::Print(args)])
            }
            Tok::KwIf => {
                self.expect(&Tok::LParen)?;
                let cond = self.expr(0)?;
                self.expect(&Tok::RParen)?;
                let then_body = self.block()?;
                let else_body = if self.peek() == Some(&Tok::KwElse) {
                    self.advance();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(vec![Stmt::If {
                    cond,
                    then_body,
                    else_body,
                }])
            }
            Tok::KwWhile => {
                self.expect(&Tok::LParen)?;
                let cond = self.expr(0)?;
                self.expect(&Tok::RParen)?;
                let body = self.block()?;
                Ok(vec![Stmt::While { cond, body }])
            }
            Tok::KwFor => {
                // for (v := e1; cond; v2 := e2) { body }  desugars to
                // v := e1; while (cond) { body; v2 := e2; }
                self.expect(&Tok::LParen)?;
                let init = self.assign_clause()?;
                self.expect(&Tok::Semi)?;
                let cond = self.expr(0)?;
                self.expect(&Tok::Semi)?;
                let step = self.assign_clause()?;
                self.expect(&Tok::RParen)?;
                let mut body = self.block()?;
                body.push(step);
                Ok(vec![init, Stmt::While { cond, body }])
            }
            Tok::KwDo => {
                let body = self.block()?;
                self.expect(&Tok::KwWhile)?;
                self.expect(&Tok::LParen)?;
                let cond = self.expr(0)?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(vec![Stmt::DoWhile { body, cond }])
            }
            Tok::Ident(name) => {
                self.expect(&Tok::Assign)?;
                let rhs = self.expr(0)?;
                self.expect(&Tok::Semi)?;
                Ok(vec![Stmt::Assign { lhs: name, rhs }])
            }
            t => Err(LangError {
                line,
                message: format!("expected a statement, found {t}"),
            }),
        }
    }

    /// An assignment without its trailing semicolon (for-loop clauses).
    fn assign_clause(&mut self) -> Result<Stmt, LangError> {
        match self.advance() {
            Some(Tok::Ident(name)) => {
                self.expect(&Tok::Assign)?;
                let rhs = self.expr(0)?;
                Ok(Stmt::Assign { lhs: name, rhs })
            }
            Some(t) => Err(self.err(format!("expected an assignment, found {t}"))),
            None => Err(self.err("expected an assignment, found end of input")),
        }
    }

    fn level(op: BinOp) -> u8 {
        match op {
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::EqOp | BinOp::Ne => 0,
            BinOp::Add | BinOp::Sub => 1,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 2,
        }
    }

    fn expr(&mut self, min_level: u8) -> Result<LExpr, LangError> {
        self.expr_height(min_level).map(|(e, _)| e)
    }

    /// Parses an expression binding at least as tightly as `min_level`,
    /// with its height (0 for a leaf).
    fn expr_height(&mut self, min_level: u8) -> Result<(LExpr, usize), LangError> {
        let (mut lhs, mut height) = self.primary()?;
        while let Some(&Tok::Op(op)) = self.peek() {
            let level = Self::level(op);
            if level < min_level {
                break;
            }
            self.advance();
            let (rhs, rhs_height) = self.nested(|p| p.expr_height(level + 1))?;
            // Left-associative chains deepen the tree without recursing
            // here, so the height is checked as the tree grows.
            height = 1 + height.max(rhs_height);
            self.check_depth(height)?;
            lhs = LExpr::binary(op, lhs, rhs);
        }
        Ok((lhs, height))
    }

    fn primary(&mut self) -> Result<(LExpr, usize), LangError> {
        match self.advance() {
            Some(Tok::LParen) => {
                let e = self.nested(|p| p.expr_height(0))?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => Ok((LExpr::Var(name), 0)),
            Some(Tok::Int(i)) => Ok((LExpr::Const(i), 0)),
            Some(Tok::Op(BinOp::Sub)) => match self.peek() {
                Some(&Tok::Int(i)) => {
                    self.advance();
                    Ok((LExpr::Const(-i), 0))
                }
                // General unary minus: -e is 0 - e.
                _ => {
                    let (e, height) = self.nested(Self::primary)?;
                    self.check_depth(height + 1)?;
                    Ok((LExpr::binary(BinOp::Sub, LExpr::Const(0), e), height + 1))
                }
            },
            Some(t) => Err(self.err(format!("expected an expression, found {t}"))),
            None => Err(self.err("expected an expression, found end of input")),
        }
    }
}

/// Parses a while-language program.
///
/// # Errors
///
/// Returns a [`LangError`] with the offending source line on lexical or
/// syntactic problems, and on nesting deeper than [`MAX_DEPTH`].
pub fn parse_program(src: &str) -> Result<Program, LangError> {
    let mut rest = lex(src)?;
    rest.reverse();
    let mut p = Parser {
        rest,
        last_line: 0,
        depth: 0,
    };
    let mut body = Vec::new();
    while p.peek().is_some() {
        body.extend(p.stmt()?);
    }
    Ok(Program { body })
}

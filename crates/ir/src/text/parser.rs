use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::graph::{FlowGraph, NodeId};
use crate::instr::{Cond, Instr};
use crate::intern::{FxMapBuild, InstrId, PRESIZE_LIMIT};
use crate::term::{BinOp, Operand, Term};
use crate::var::{Var, VarPool};

use super::ast::{ExprArena, ExprId, Node};
use super::lexer::{lex_split, LexError, Pos, Spot, Token};

/// How the parser treats expressions deeper than 3-address form.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mode {
    /// Reject nested expressions: right-hand sides must contain at most one
    /// operator and condition sides likewise (Sec. 2).
    #[default]
    Strict,
    /// Decompose nested expressions into fresh variables, the canonical
    /// 3-address lowering of Sec. 6 (Fig. 18).
    Decompose,
}

/// A parse failure with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line (0 when no position applies).
    pub line: usize,
    /// 1-based source column (0 when only the line is known).
    pub col: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else if self.col == 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "line {}:{}: {}", self.line, self.col, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// Source positions of the instructions of a parsed flow graph.
///
/// Keys are `(node, instruction index)` pairs — the same addressing as
/// [`Loc`](crate::Loc). A statement that lowers to several instructions
/// (e.g. a decomposed nested expression) maps each of them to the
/// statement's position. Produced by [`parse_with_locations`]; consumed by
/// diagnostics tooling such as `am-lint` to cite findings in the original
/// text.
#[derive(Clone, Debug, Default)]
pub struct SourceMap {
    map: HashMap<(NodeId, usize), Pos>,
}

impl SourceMap {
    /// Position of instruction `index` of `node`, when known.
    pub fn get(&self, node: NodeId, index: usize) -> Option<Pos> {
        self.map.get(&(node, index)).copied()
    }

    /// Number of located instructions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no instruction has a recorded position.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The deepest expression nesting the parser accepts: the parentheses and
/// operator operands enclosing a point plus the height of the expression
/// built there. Parsing and lowering an expression each recurse once per
/// level, so the cap keeps every walk within a small thread stack; deeper
/// input is a [`ParseError`], not an abort. The while-language front end
/// (`am_lang`) shares this cap.
pub const MAX_DEPTH: usize = 128;

/// Parses a flow graph in [`Mode::Strict`].
///
/// # Errors
///
/// Returns a [`ParseError`] on syntax errors, on nested expressions (use
/// [`parse_with_mode`] with [`Mode::Decompose`] to lower them instead), on
/// nesting deeper than [`MAX_DEPTH`] and on structurally invalid graphs
/// (see [`FlowGraph::validate`](crate::FlowGraph::validate)).
pub fn parse(src: &str) -> Result<FlowGraph, ParseError> {
    parse_with_mode(src, Mode::Strict)
}

/// Parses a flow graph, handling nested expressions according to `mode`.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_with_mode(src: &str, mode: Mode) -> Result<FlowGraph, ParseError> {
    parse_graph(src, mode, None).map(|(g, _)| g)
}

/// Like [`parse_with_mode`], but also returns the [`SourceMap`] giving the
/// line/column of every parsed instruction.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_with_locations(src: &str, mode: Mode) -> Result<(FlowGraph, SourceMap), ParseError> {
    let (g, map) = parse_graph(src, mode, Some(SourceMap::default()))?;
    Ok((g, map.unwrap_or_default()))
}

/// Lexes `src` and parses the tokens as a flow graph, filling `srcmap`
/// when given.
fn parse_graph(
    src: &str,
    mode: Mode,
    srcmap: Option<SourceMap>,
) -> Result<(FlowGraph, Option<SourceMap>), ParseError> {
    let (tokens, positions) = lex_split(src)?;
    Parser::new(Cursor::new(&tokens, &positions), mode, srcmap).run()
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            col: e.col,
            message: e.message,
        }
    }
}

/// A node label: an identifier, or a bare integer written in any form
/// (`01` and `1` name the same node).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Label<'a> {
    Name(&'a str),
    Num(i64),
}

impl fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Name(s) => write!(f, "{s}"),
            Label::Num(i) => write!(f, "{i}"),
        }
    }
}

/// The token stream with a read position, and the expression parser
/// shared by whole graphs and the standalone [`parse_expr_str`] and
/// [`parse_cond_str`].
struct Cursor<'a> {
    tokens: &'a [Token<'a>],
    /// The source position of each token.
    positions: &'a [Spot],
    pos: usize,
    /// Parentheses and operator operands enclosing the current token.
    depth: usize,
    /// The nodes of the expression parsed last.
    exprs: ExprArena,
}

impl<'a> Cursor<'a> {
    fn new(tokens: &'a [Token<'a>], positions: &'a [Spot]) -> Self {
        Cursor {
            tokens,
            positions,
            pos: 0,
            depth: 0,
            exprs: ExprArena::default(),
        }
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn advance(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Position of the current token; at end of input, of the last token.
    fn here(&self) -> Pos {
        self.positions
            .get(self.pos.min(self.positions.len().saturating_sub(1)))
            .map_or_else(Pos::default, |&s| s.into())
    }

    fn error(&self, message: String) -> ParseError {
        error_at(self.here(), message)
    }

    fn skip_seps(&mut self) {
        while self.peek() == Some(Token::Sep) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: Token<'_>) -> Result<(), ParseError> {
        let at = self.here();
        match self.advance() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(error_at(at, format!("expected {want}, found {t}"))),
            None => Err(error_at(at, format!("expected {want}, found end of input"))),
        }
    }

    /// Fails when a node of expression height `height` built at the
    /// current depth would nest deeper than [`MAX_DEPTH`].
    fn check_depth(&self, height: usize) -> Result<(), ParseError> {
        if self.depth + height > MAX_DEPTH {
            return Err(self.error(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth += 1;
        self.check_depth(0)?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn operand(&mut self, pool: &mut VarPool) -> Result<Operand, ParseError> {
        let at = self.here();
        match self.advance() {
            Some(Token::Ident(name)) => Ok(Operand::Var(pool.intern(name))),
            Some(Token::Int(i)) => Ok(Operand::Const(i)),
            Some(Token::Minus) => match self.advance() {
                Some(Token::Int(i)) => Ok(Operand::Const(-i)),
                _ => Err(error_at(at, "expected an integer after '-'".into())),
            },
            Some(t) => Err(error_at(at, format!("expected an operand, found {t}"))),
            None => Err(error_at(
                at,
                "expected an operand, found end of input".into(),
            )),
        }
    }

    fn binop(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek()? {
            Token::Lt => (BinOp::Lt, 0),
            Token::Le => (BinOp::Le, 0),
            Token::Gt => (BinOp::Gt, 0),
            Token::Ge => (BinOp::Ge, 0),
            Token::EqEq => (BinOp::EqOp, 0),
            Token::Ne => (BinOp::Ne, 0),
            Token::Plus => (BinOp::Add, 1),
            Token::Minus => (BinOp::Sub, 1),
            Token::Star => (BinOp::Mul, 2),
            Token::Slash => (BinOp::Div, 2),
            Token::Percent => (BinOp::Mod, 2),
            _ => return None,
        })
    }

    /// Parses one expression into [`Cursor::exprs`], replacing the
    /// previous one, and returns its root.
    fn expression(&mut self, pool: &mut VarPool) -> Result<ExprId, ParseError> {
        self.exprs.clear();
        self.expr(0, pool).map(|(root, _)| root)
    }

    /// Precedence-climbing expression parser, returning the expression's
    /// root and its height (0 for a leaf).
    /// Level 0: relational; level 1: `+`/`-`; level 2: `*`/`/`/`%`.
    fn expr(&mut self, min_level: u8, pool: &mut VarPool) -> Result<(ExprId, usize), ParseError> {
        let (mut lhs, mut height) = if self.peek() == Some(Token::LParen) {
            self.pos += 1;
            let e = self.nested(|c| c.expr(0, pool))?;
            self.expect(Token::RParen)?;
            e
        } else {
            let leaf = Node::Leaf(self.operand(pool)?);
            (self.exprs.push(leaf), 0)
        };
        while let Some((op, level)) = self.binop() {
            if level < min_level {
                break;
            }
            self.pos += 1;
            let (rhs, rhs_height) = self.nested(|c| c.expr(level + 1, pool))?;
            // Left-associative chains deepen the tree without recursing
            // here, so the height is checked as the tree grows.
            height = 1 + height.max(rhs_height);
            self.check_depth(height)?;
            lhs = self.exprs.push(Node::Binary { op, lhs, rhs });
        }
        Ok((lhs, height))
    }
}

fn error_at(at: Pos, message: String) -> ParseError {
    ParseError {
        line: at.line,
        col: at.col,
        message,
    }
}

/// An error without a source position.
fn unplaced(message: &str) -> ParseError {
    ParseError {
        line: 0,
        col: 0,
        message: message.to_owned(),
    }
}

/// The window, in tokens from a statement's start, in which its separator
/// must lie for the statement to be memoized. A statement whose separator
/// lies further on is parsed without a lookup.
const MEMO_KEY_LIMIT: usize = 64;

/// Parses a flow graph from its tokens.
///
/// Statements are memoized per parse. The measured case is the XL
/// benchmark generators, whose texts repeat a few dozen distinct
/// statements thousands of times (over 99% of statements hit); the seeded
/// small programs hit on about 4%. A statement's tokens, from its first
/// to the next separator or `}` within [`MEMO_KEY_LIMIT`] tokens, key the
/// ids of the instructions it lowered to, so a repeat costs one hash and
/// one slice compare and appends those ids. A repeat interns nothing new
/// (its first occurrence interned every variable and instruction), so
/// pool order, ids and source positions are those of parsing it again. A
/// statement enters the memo only when it parsed, ended exactly at that
/// separator, and took no fresh variable: a Decompose lowering names a
/// new `t<n>` at every occurrence ([`Self::fresh_var`]), so its repeats
/// differ. The memo holds the first [`PRESIZE_LIMIT`] such statements and
/// lives as long as the parse.
struct Parser<'a> {
    cur: Cursor<'a>,
    graph: FlowGraph,
    /// The node of each label: the graph holds the labels' text, the
    /// table only ids. The labels come from the input, so the table keeps
    /// std's keyed hasher.
    nodes: HashMap<Label<'a>, NodeId>,
    /// Whether each node, by id, has had its `node` item.
    defined: Vec<bool>,
    start: Option<Label<'a>>,
    end: Option<Label<'a>>,
    mode: Mode,
    /// The source's identifiers that start with `t`, the only ones a fresh
    /// `t<n>` can collide with; collected when the first is needed.
    taken: Option<HashSet<&'a str>>,
    fresh_counter: usize,
    /// Filled only for [`parse_with_locations`].
    srcmap: Option<SourceMap>,
    /// The ids of the node being parsed; one buffer for all nodes.
    body: Vec<InstrId>,
    /// Each memoized statement's run in [`Self::memo_ids`].
    memo: HashMap<&'a [Token<'a>], (usize, usize), FxMapBuild>,
    /// The ids the memoized statements lowered to, end to end.
    memo_ids: Vec<InstrId>,
}

impl<'a> Parser<'a> {
    fn new(cur: Cursor<'a>, mode: Mode, srcmap: Option<SourceMap>) -> Self {
        // An instruction takes at least four tokens (`x := 1` and a
        // separator), so a quarter of them bounds the distinct statements
        // and instructions parsed; the interner gets another quarter for
        // the ones initialization adds. The cap keeps a large program's
        // tables from being sized for contents it mostly repeats.
        let statements = (cur.tokens.len() / 4).min(PRESIZE_LIMIT);
        let instrs = (2 * (cur.tokens.len() / 4)).min(PRESIZE_LIMIT);
        // The graph's stores are sized from the token count too, with no
        // cap: every node, edge and instruction is stored, repeated or
        // not. A node item takes at least four tokens, but the measured
        // shapes spend 10 to 40 per node; the estimates cover those, and
        // a denser program's stores grow as they fill.
        let nodes = cur.tokens.len() / 16;
        let mut graph = FlowGraph::with_capacity(instrs);
        graph.reserve(nodes, 2 * nodes, cur.tokens.len() / 2, 8 * nodes);
        Parser {
            cur,
            graph,
            nodes: HashMap::with_capacity(nodes),
            defined: Vec::with_capacity(nodes),
            start: None,
            end: None,
            mode,
            taken: None,
            fresh_counter: 0,
            srcmap,
            body: Vec::new(),
            memo: HashMap::with_capacity_and_hasher(statements, FxMapBuild::default()),
            memo_ids: Vec::with_capacity(statements),
        }
    }

    fn run(mut self) -> Result<(FlowGraph, Option<SourceMap>), ParseError> {
        loop {
            self.cur.skip_seps();
            let keyword = match self.cur.peek() {
                None => break,
                Some(Token::Ident(kw @ ("start" | "end" | "node" | "edge"))) => kw,
                Some(other) => {
                    return Err(self.cur.error(format!(
                        "expected 'start', 'end', 'node' or 'edge', found {other}"
                    )));
                }
            };
            self.cur.pos += 1;
            match keyword {
                // Resolved lazily so that node ids follow the order of
                // `node`/`edge` items (canonical temporary numbering
                // depends on node order).
                "start" => self.start = Some(self.expect_label()?),
                "end" => self.end = Some(self.expect_label()?),
                "node" => self.parse_node()?,
                _ => self.parse_edge()?,
            }
        }
        self.finish()
    }

    fn finish(mut self) -> Result<(FlowGraph, Option<SourceMap>), ParseError> {
        let start = self
            .start
            .ok_or_else(|| unplaced("no 'start' declaration"))?;
        let end = self.end.ok_or_else(|| unplaced("no 'end' declaration"))?;
        let start = self.node_for(start);
        let end = self.node_for(end);
        if let Some(n) = self.graph.nodes().find(|n| !self.defined[n.index()]) {
            let label = self.graph.label(n);
            return Err(unplaced(&format!(
                "node '{label}' referenced but never defined"
            )));
        }
        self.graph.set_start(start);
        self.graph.set_end(end);
        self.graph
            .validate()
            .map_err(|e| unplaced(&e.to_string()))?;
        Ok((self.graph, self.srcmap))
    }

    /// Node labels may be identifiers or bare integers.
    fn expect_label(&mut self) -> Result<Label<'a>, ParseError> {
        let at = self.cur.here();
        match self.cur.advance() {
            Some(Token::Ident(s)) => Ok(Label::Name(s)),
            Some(Token::Int(i)) => Ok(Label::Num(i)),
            Some(t) => Err(error_at(at, format!("expected a node label, found {t}"))),
            None => Err(error_at(
                at,
                "expected a node label, found end of input".into(),
            )),
        }
    }

    fn node_for(&mut self, label: Label<'a>) -> NodeId {
        let graph = &mut self.graph;
        let defined = &mut self.defined;
        *self.nodes.entry(label).or_insert_with(|| {
            defined.push(false);
            match label {
                Label::Name(s) => graph.add_node(s),
                Label::Num(i) => graph.add_node_display(i),
            }
        })
    }

    fn parse_edge(&mut self) -> Result<(), ParseError> {
        let from = self.expect_label()?;
        let from = self.node_for(from);
        self.cur.expect(Token::Arrow)?;
        loop {
            let to = self.expect_label()?;
            let to = self.node_for(to);
            self.graph.add_edge(from, to);
            if self.cur.peek() == Some(Token::Comma) {
                self.cur.pos += 1;
            } else {
                break;
            }
        }
        Ok(())
    }

    fn parse_node(&mut self) -> Result<(), ParseError> {
        let opened = self.cur.here();
        let label = self.expect_label()?;
        let node = self.node_for(label);
        if std::mem::replace(&mut self.defined[node.index()], true) {
            return Err(self.cur.error(format!("node '{label}' defined twice")));
        }
        self.cur.expect(Token::LBrace)?;
        let mut body = std::mem::take(&mut self.body);
        loop {
            self.cur.skip_seps();
            match self.cur.peek() {
                Some(Token::RBrace) => {
                    self.cur.pos += 1;
                    break;
                }
                None => {
                    return Err(self.cur.error(format!(
                        "unterminated body of node '{label}' (opened at line {}, column {}): \
                         expected '}}' before end of input",
                        opened.line, opened.col
                    )));
                }
                Some(_) => {}
            }
            let at = self.cur.here();
            let first = body.len();
            self.statement(&mut body)?;
            if let Some(map) = &mut self.srcmap {
                for index in first..body.len() {
                    map.map.insert((node, index), at);
                }
            }
        }
        self.graph.set_ids(node, &body);
        body.clear();
        self.body = body;
        Ok(())
    }

    /// Appends the ids of the statement at the cursor: from the memo when
    /// the same tokens parsed before, else by parsing them.
    fn statement(&mut self, out: &mut Vec<InstrId>) -> Result<(), ParseError> {
        let tokens = self.cur.tokens;
        let start = self.cur.pos;
        // Statements need no separator between them, so the boundary is
        // looked for only in a short window: a line of many statements
        // then costs linear time, not a scan to its end per statement.
        let window = &tokens[start..tokens.len().min(start + MEMO_KEY_LIMIT)];
        let Some(len) = window
            .iter()
            .position(|t| matches!(t, Token::Sep | Token::RBrace))
        else {
            return self.parse_stmt(out);
        };
        let end = start + len;
        let key = &tokens[start..end];
        if let Some(&(from, to)) = self.memo.get(key) {
            out.extend_from_slice(&self.memo_ids[from..to]);
            self.cur.pos = end;
            return Ok(());
        }
        let (first, fresh) = (out.len(), self.fresh_counter);
        self.parse_stmt(out)?;
        // The keys come from the input and the hasher is not keyed, so
        // the cap bounds what a run of crafted colliding statements can
        // cost each lookup.
        if self.cur.pos == end && self.fresh_counter == fresh && self.memo.len() < PRESIZE_LIMIT {
            let from = self.memo_ids.len();
            self.memo_ids.extend_from_slice(&out[first..]);
            self.memo.insert(key, (from, self.memo_ids.len()));
        }
        Ok(())
    }

    /// Parses one statement, appending the ids of the instructions it
    /// lowers to, interned in order.
    fn parse_stmt(&mut self, out: &mut Vec<InstrId>) -> Result<(), ParseError> {
        let at = self.cur.here();
        let instr = match self.cur.advance() {
            Some(Token::Ident("skip")) => Instr::Skip,
            Some(Token::Ident("out")) => {
                self.cur.expect(Token::LParen)?;
                let mut ops = Vec::new();
                if self.cur.peek() != Some(Token::RParen) {
                    loop {
                        ops.push(self.cur.operand(self.graph.pool_mut())?);
                        if self.cur.peek() == Some(Token::Comma) {
                            self.cur.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.cur.expect(Token::RParen)?;
                Instr::Out(ops)
            }
            Some(Token::Ident("branch")) => Instr::Branch(self.parse_branch(out)?),
            Some(Token::Ident(name)) => {
                self.cur.expect(Token::Assign)?;
                let lhs = self.graph.pool_mut().intern(name);
                let root = self.cur.expression(self.graph.pool_mut())?;
                let rhs = self.lower_term(root, "expression", out)?;
                Instr::assign(lhs, rhs)
            }
            Some(t) => return Err(error_at(at, format!("expected a statement, found {t}"))),
            None => {
                return Err(error_at(
                    at,
                    "expected a statement, found end of input".into(),
                ))
            }
        };
        out.push(self.graph.intern(instr));
        Ok(())
    }

    /// A fresh decomposition variable `t<n>`, numbered on from the last
    /// one and past the source's own names. Every call takes a new one, so
    /// a statement lowered through it is never memoized.
    fn fresh_var(&mut self) -> Var {
        let tokens = self.cur.tokens;
        let taken = self.taken.get_or_insert_with(|| {
            tokens
                .iter()
                .filter_map(|&t| match t {
                    Token::Ident(s) if s.starts_with('t') => Some(s),
                    _ => None,
                })
                .collect()
        });
        loop {
            self.fresh_counter += 1;
            let name = format!("t{}", self.fresh_counter);
            if !taken.contains(name.as_str()) {
                return self.graph.pool_mut().intern(&name);
            }
        }
    }

    /// Lowers the expression at `id` to a 3-address term, emitting the
    /// decomposition assignments of its nested operands into `out` when
    /// the mode allows it; `what` names the construct in the Strict-mode
    /// error.
    fn lower_term(
        &mut self,
        id: ExprId,
        what: &str,
        out: &mut Vec<InstrId>,
    ) -> Result<Term, ParseError> {
        if let Some(term) = self.cur.exprs.as_term(id) {
            return Ok(term);
        }
        if self.mode == Mode::Strict {
            return Err(self.cur.error(format!(
                "nested {what} requires 3-address form (parse with Mode::Decompose)"
            )));
        }
        let Node::Binary { op, lhs, rhs } = self.cur.exprs.node(id) else {
            unreachable!("leaves always convert to terms");
        };
        let lhs = self.lower_operand(lhs, out);
        let rhs = self.lower_operand(rhs, out);
        Ok(Term::Binary { op, lhs, rhs })
    }

    /// Lowers the expression at `id` to an operand: a leaf as is, an
    /// operator node through a fresh variable assigned after its operands.
    fn lower_operand(&mut self, id: ExprId, out: &mut Vec<InstrId>) -> Operand {
        match self.cur.exprs.node(id) {
            Node::Leaf(o) => o,
            Node::Binary { op, lhs, rhs } => {
                let lhs = self.lower_operand(lhs, out);
                let rhs = self.lower_operand(rhs, out);
                let v = self.fresh_var();
                out.push(
                    self.graph
                        .intern(Instr::assign(v, Term::Binary { op, lhs, rhs })),
                );
                Operand::Var(v)
            }
        }
    }

    /// Parses a branch condition, appending the ids of its decomposition.
    fn parse_branch(&mut self, out: &mut Vec<InstrId>) -> Result<Cond, ParseError> {
        let root = self.cur.expression(self.graph.pool_mut())?;
        Ok(match self.cur.exprs.node(root) {
            Node::Binary { op, lhs, rhs } if op.is_relational() => Cond {
                op,
                lhs: self.lower_term(lhs, "condition", out)?,
                rhs: self.lower_term(rhs, "condition", out)?,
            },
            // `branch x` means `branch x != 0`.
            _ => Cond {
                op: BinOp::Ne,
                lhs: self.lower_term(root, "condition", out)?,
                rhs: Term::from(0),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Loc;

    const RUNNING_EXAMPLE: &str = "
        # Fig. 4 of the paper.
        start 1
        end 4
        node 1 { y := c+d }
        node 2 { branch x+z > y+i }
        node 3 { y := c+d; x := y+z; i := i+x }
        node 4 { x := y+z; x := c+d; out(i,x,y) }
        edge 1 -> 2
        edge 2 -> 3, 4
        edge 3 -> 2
    ";

    #[test]
    fn parses_running_example() {
        let g = parse(RUNNING_EXAMPLE).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.instr_count(), 1 + 1 + 3 + 3);
        assert_eq!(g.label(g.start()), "1");
        assert_eq!(g.label(g.end()), "4");
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        assert_eq!(g.succs(n2).len(), 2);
        assert!(matches!(
            *g.instr(Loc { node: n2, index: 0 }),
            Instr::Branch(_)
        ));
    }

    #[test]
    fn branch_condition_structure() {
        let g = parse(RUNNING_EXAMPLE).unwrap();
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        let Instr::Branch(c) = g.instr(Loc { node: n2, index: 0 }) else {
            panic!("expected branch")
        };
        let x = g.pool().lookup("x").unwrap();
        let z = g.pool().lookup("z").unwrap();
        let y = g.pool().lookup("y").unwrap();
        let i = g.pool().lookup("i").unwrap();
        assert_eq!(c.op, BinOp::Gt);
        assert_eq!(c.lhs, Term::binary(BinOp::Add, x, z));
        assert_eq!(c.rhs, Term::binary(BinOp::Add, y, i));
    }

    #[test]
    fn strict_mode_rejects_nested() {
        let src = "start s\nend e\nnode s { x := a+b+c }\nnode e { out(x) }\nedge s -> e";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("3-address"));
    }

    #[test]
    fn decompose_mode_lowers_nested() {
        // Fig. 18: x := a+b+c  =>  t1 := a+b; x := t1+c.
        let src = "start s\nend e\nnode s { x := a+b+c }\nnode e { out(x) }\nedge s -> e";
        let g = parse_with_mode(src, Mode::Decompose).unwrap();
        let s = g.start();
        let instrs: Vec<Instr> = g.instrs(s).cloned().collect();
        assert_eq!(instrs.len(), 2);
        let t1 = g.pool().lookup("t1").unwrap();
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let c = g.pool().lookup("c").unwrap();
        assert_eq!(instrs[0], Instr::assign(t1, Term::binary(BinOp::Add, a, b)));
        let x = g.pool().lookup("x").unwrap();
        assert_eq!(instrs[1], Instr::assign(x, Term::binary(BinOp::Add, t1, c)));
    }

    #[test]
    fn fresh_vars_avoid_source_names() {
        let src =
            "start s\nend e\nnode s { t1 := 5; x := a+b+c }\nnode e { out(x,t1) }\nedge s -> e";
        let g = parse_with_mode(src, Mode::Decompose).unwrap();
        // The decomposition variable must not collide with source t1.
        let instrs: Vec<Instr> = g.instrs(g.start()).cloned().collect();
        assert_eq!(instrs.len(), 3);
        let Instr::Assign { lhs, .. } = &instrs[1] else {
            panic!()
        };
        assert_ne!(g.pool().name(*lhs), "t1");
        assert_eq!(g.pool().name(*lhs), "t2");
    }

    #[test]
    fn branch_of_plain_var() {
        let src = "start s\nend e\nnode s { branch p }\nnode a { skip }\nnode e { out() }\nedge s -> a, e\nedge a -> e";
        let g = parse(src).unwrap();
        let Instr::Branch(c) = g.instr(Loc {
            node: g.start(),
            index: 0,
        }) else {
            panic!()
        };
        assert_eq!(c.op, BinOp::Ne);
        assert_eq!(c.rhs, Term::from(0));
    }

    #[test]
    fn self_assignment_becomes_skip() {
        let src = "start s\nend e\nnode s { x := x }\nnode e { out() }\nedge s -> e";
        let g = parse(src).unwrap();
        assert!(g.instrs(g.start()).eq(&[Instr::Skip]));
    }

    #[test]
    fn precedence_and_parens() {
        let src = "start s\nend e\nnode s { x := a+b*c }\nnode e { out(x) }\nedge s -> e";
        // a + (b*c) is nested: strict must reject, decompose computes b*c first.
        assert!(parse(src).is_err());
        let g = parse_with_mode(src, Mode::Decompose).unwrap();
        let instrs: Vec<Instr> = g.instrs(g.start()).cloned().collect();
        let b = g.pool().lookup("b").unwrap();
        let c = g.pool().lookup("c").unwrap();
        let Instr::Assign { rhs, .. } = &instrs[0] else {
            panic!()
        };
        assert_eq!(*rhs, Term::binary(BinOp::Mul, b, c));
    }

    #[test]
    fn structural_errors_are_reported() {
        // Undefined node referenced in an edge.
        let src =
            "start s\nend e\nnode s { skip }\nnode e { out() }\nedge s -> ghost\nedge ghost -> e";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("ghost"));
        // Missing start.
        let err = parse("end e\nnode e { out() }").unwrap_err();
        assert!(err.message.contains("start"));
        // Duplicate node.
        let err = parse(
            "start s\nend e\nnode s { skip }\nnode s { skip }\nnode e { out() }\nedge s -> e",
        )
        .unwrap_err();
        assert!(err.message.contains("twice"));
        // Invalid graph: unreachable node is caught by validation.
        let err = parse("start s\nend e\nnode s { skip }\nnode x { skip }\nnode e { out() }\nedge s -> e\nedge x -> e").unwrap_err();
        assert!(err.message.contains("path"));
    }

    #[test]
    fn errors_carry_line_and_column() {
        // The stray '*' is on line 3, column 14.
        let src = "start s\nend e\nnode s { x := * }\nnode e { out() }\nedge s -> e";
        let err = parse(src).unwrap_err();
        assert_eq!((err.line, err.col), (3, 15));
        assert!(err.to_string().starts_with("line 3:15: "));
        // Positionless errors render without a bogus "line 0:" prefix.
        let err = parse("end e\nnode e { out() }").unwrap_err();
        assert_eq!((err.line, err.col), (0, 0));
        assert!(err.to_string().starts_with("no 'start'"));
    }

    #[test]
    fn unterminated_node_body_names_the_node() {
        let err = parse("start s\nend e\nnode s {\n  x := 1\n").unwrap_err();
        assert!(err.message.contains("node 's'"), "{}", err.message);
        assert!(err.message.contains("line 3"), "{}", err.message);
        assert!(err.message.contains("unterminated"), "{}", err.message);
        // Same when the body is empty and the header itself dangles.
        let err = parse("start s\nend e\nnode s {").unwrap_err();
        assert!(err.message.contains("node 's'"), "{}", err.message);
    }

    #[test]
    fn source_map_locates_instructions() {
        let src = "start 1\nend 2\n\
                   node 1 {\n  x := a+b\n  y := x\n}\n\
                   node 2 { out(x, y) }\n\
                   edge 1 -> 2";
        let (g, map) = parse_with_locations(src, Mode::Strict).unwrap();
        let n1 = g.start();
        let n2 = g.end();
        assert_eq!(map.get(n1, 0), Some(Pos::new(4, 3)));
        assert_eq!(map.get(n1, 1), Some(Pos::new(5, 3)));
        assert_eq!(map.get(n2, 0), Some(Pos::new(7, 10)));
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(n1, 2), None);
    }

    #[test]
    fn source_map_covers_decomposed_statements() {
        // One statement lowering to two instructions: both share its position.
        let src = "start s\nend e\nnode s { x := a+b+c }\nnode e { out(x) }\nedge s -> e";
        let (g, map) = parse_with_locations(src, Mode::Decompose).unwrap();
        let s = g.start();
        assert_eq!(g.block(s).len(), 2);
        assert_eq!(map.get(s, 0), map.get(s, 1));
        assert_eq!(map.get(s, 0), Some(Pos::new(3, 10)));
    }

    #[test]
    fn negative_constants() {
        let src =
            "start s\nend e\nnode s { x := -3; y := x + -2 }\nnode e { out(x,y) }\nedge s -> e";
        let g = parse(src).unwrap();
        let instrs: Vec<Instr> = g.instrs(g.start()).cloned().collect();
        assert_eq!(instrs.len(), 2);
        let Instr::Assign { rhs, .. } = &instrs[0] else {
            panic!()
        };
        assert_eq!(*rhs, Term::from(-3));
    }

    /// A one-statement program assigning `rhs` to `x`.
    fn assigning(rhs: &str) -> String {
        format!("start s\nend e\nnode s {{ x := {rhs} }}\nnode e {{ out(x) }}\nedge s -> e")
    }

    /// Each shape used to overflow the stack, in the parser or in a later
    /// walk over its expression, and must now be a typed error in both
    /// modes.
    fn assert_too_deep(src: &str) {
        for mode in [Mode::Strict, Mode::Decompose] {
            let err = parse_with_mode(src, mode).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
        }
    }

    #[test]
    fn deeply_nested_parentheses_are_an_error() {
        let n = 5000;
        assert_too_deep(&assigning(&format!("{}a{}", "(".repeat(n), ")".repeat(n))));
    }

    #[test]
    fn long_flat_operator_chains_are_an_error() {
        // A left-deep tree built by a loop, not by recursion.
        assert_too_deep(&assigning(&format!("a{}", " + a".repeat(20_000))));
        assert_too_deep(&format!(
            "start s\nend e\nnode s {{ branch a{} > 0 }}\nnode e {{ out() }}\nedge s -> e, e",
            " * a".repeat(20_000)
        ));
    }

    #[test]
    fn deep_standalone_expressions_are_an_error() {
        let mut pool = crate::var::VarPool::new();
        let deep = format!("{}a{}", "(".repeat(5000), ")".repeat(5000));
        let err = parse_expr_str(&deep, &mut pool).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        let err = parse_cond_str(&format!("a{}", " - a".repeat(20_000)), &mut pool).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
    }

    #[test]
    fn programs_at_the_depth_limit_decompose() {
        // Half the budget in parentheses, the rest in the chain inside.
        let parens = MAX_DEPTH / 2;
        let height = MAX_DEPTH - parens;
        let rhs = format!(
            "{}a{}{}",
            "(".repeat(parens),
            " + a".repeat(height),
            ")".repeat(parens)
        );
        let g = parse_with_mode(&assigning(&rhs), Mode::Decompose).unwrap();
        assert_eq!(g.block(g.start()).len(), height);
        assert_too_deep(&assigning(&rhs.replacen("a", "a + a", 1)));
    }
}

/// Parses a standalone expression: the whole of `src`, nested to any depth
/// up to [`MAX_DEPTH`]. Returns its nodes and its root.
fn standalone_expr(src: &str, pool: &mut VarPool) -> Result<(ExprArena, ExprId), ParseError> {
    let (tokens, positions) = lex_split(src)?;
    let mut c = Cursor::new(&tokens, &positions);
    let root = c.expression(pool)?;
    match c.peek() {
        None => Ok((c.exprs, root)),
        Some(t) => Err(c.error(format!("unexpected trailing {t}"))),
    }
}

/// Converts the expression at `id` to a 3-address term, or fails with
/// `message` at line 1.
fn shallow_term(exprs: &ExprArena, id: ExprId, message: &str) -> Result<Term, ParseError> {
    exprs.as_term(id).ok_or_else(|| ParseError {
        line: 1,
        col: 0,
        message: message.into(),
    })
}

/// Parses a standalone 3-address term, e.g. `"a+b"`, `"x"`, `"-3"`.
/// Variables are interned into `pool`.
///
/// # Errors
///
/// Rejects nested expressions (`"a+b+c"`) and syntax errors.
pub fn parse_expr_str(src: &str, pool: &mut VarPool) -> Result<Term, ParseError> {
    let (exprs, root) = standalone_expr(src, pool)?;
    shallow_term(&exprs, root, "nested expression requires 3-address form")
}

/// Parses a standalone branch condition, e.g. `"x+z > y+i"` or `"p"`
/// (shorthand for `p != 0`). Sides must be 3-address terms.
///
/// # Errors
///
/// Rejects sides deeper than one operator and syntax errors.
pub fn parse_cond_str(src: &str, pool: &mut VarPool) -> Result<Cond, ParseError> {
    let (exprs, root) = standalone_expr(src, pool)?;
    let side = |id| shallow_term(&exprs, id, "condition side requires 3-address form");
    match exprs.node(root) {
        Node::Binary { op, lhs, rhs } if op.is_relational() => Ok(Cond {
            op,
            lhs: side(lhs)?,
            rhs: side(rhs)?,
        }),
        _ => Ok(Cond {
            op: BinOp::Ne,
            lhs: side(root)?,
            rhs: Term::from(0),
        }),
    }
}

#[cfg(test)]
mod expr_str_tests {
    use super::*;
    use crate::var::VarPool;

    #[test]
    fn parses_terms() {
        let mut pool = VarPool::new();
        let t = parse_expr_str("a+b", &mut pool).unwrap();
        assert!(t.is_nontrivial());
        assert_eq!(parse_expr_str("5", &mut pool).unwrap(), Term::from(5));
        assert_eq!(parse_expr_str("-5", &mut pool).unwrap(), Term::from(-5));
        assert!(parse_expr_str("a+b+c", &mut pool).is_err());
        assert!(parse_expr_str("a +", &mut pool).is_err());
        assert!(parse_expr_str("a b", &mut pool).is_err());
    }

    #[test]
    fn parses_conditions() {
        let mut pool = VarPool::new();
        let c = parse_cond_str("x+z > y+i", &mut pool).unwrap();
        assert_eq!(c.op, BinOp::Gt);
        assert!(c.lhs.is_nontrivial() && c.rhs.is_nontrivial());
        let truthy = parse_cond_str("p", &mut pool).unwrap();
        assert_eq!(truthy.op, BinOp::Ne);
        assert!(parse_cond_str("(a+b)*2 > 0", &mut pool).is_err());
    }
}

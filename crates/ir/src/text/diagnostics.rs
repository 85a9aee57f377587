//! The parser's diagnostics, pinned: one malformed input per error arm with
//! its exact `(line, col, message)`, and the exact [`SourceMap`] of two
//! well-formed inputs. Any rewrite of the lexer or parser must pass this
//! table unchanged.

use super::{parse_with_locations, parse_with_mode, Mode, Pos, SourceMap};
use crate::graph::FlowGraph;

/// `(name, source, mode, line, col, message)`.
const CASES: &[(&str, &str, Mode, usize, usize, &str)] = &[
    (
        "stray top-level token",
        "start s\nend e\nfoo s",
        Mode::Strict,
        3,
        1,
        "expected 'start', 'end', 'node' or 'edge', found foo",
    ),
    (
        "bad label",
        "start {\nend e",
        Mode::Strict,
        1,
        7,
        "expected a node label, found {",
    ),
    (
        "label at end of input",
        "start",
        Mode::Strict,
        1,
        1,
        "expected a node label, found end of input",
    ),
    (
        "missing arrow",
        "start s\nend e\nedge s e",
        Mode::Strict,
        3,
        8,
        "expected ->, found e",
    ),
    (
        "unterminated body",
        "start s\nend e\nnode s {\n  x := 1\n",
        Mode::Strict,
        4,
        8,
        "unterminated body of node 's' (opened at line 3, column 6): \
         expected '}' before end of input",
    ),
    (
        "duplicate node",
        "start s\nend e\nnode s { skip }\nnode s { skip }\nnode e { out() }\nedge s -> e",
        Mode::Strict,
        4,
        8,
        "node 's' defined twice",
    ),
    (
        "duplicate numeric node",
        "start 1\nend 2\nnode 01 { skip }\nnode 1 { skip }",
        Mode::Strict,
        4,
        8,
        "node '1' defined twice",
    ),
    (
        "missing start",
        "end e\nnode e { out() }",
        Mode::Strict,
        0,
        0,
        "no 'start' declaration",
    ),
    (
        "missing end",
        "start s\nnode s { out() }",
        Mode::Strict,
        0,
        0,
        "no 'end' declaration",
    ),
    (
        "ghost node",
        "start s\nend e\nnode s { skip }\nnode e { out() }\nedge s -> ghost\nedge ghost -> e",
        Mode::Strict,
        0,
        0,
        "node 'ghost' referenced but never defined",
    ),
    (
        "invalid graph",
        "start s\nend e\nnode s { skip }\nnode e { out() }\nedge s -> e\nedge e -> s",
        Mode::Strict,
        0,
        0,
        "start node has predecessors",
    ),
    (
        "statement expected",
        "start s\nend e\nnode s { ) }",
        Mode::Strict,
        3,
        10,
        "expected a statement, found )",
    ),
    (
        "operand expected",
        "start s\nend e\nnode s { x := * }\nnode e { out() }\nedge s -> e",
        Mode::Strict,
        3,
        15,
        "expected an operand, found *",
    ),
    (
        "minus without integer",
        "start s\nend e\nnode s { x := -y }",
        Mode::Strict,
        3,
        15,
        "expected an integer after '-'",
    ),
    (
        "unclosed parenthesis",
        "start s\nend e\nnode s { x := (a+b }",
        Mode::Decompose,
        3,
        20,
        "expected ), found ';'",
    ),
    (
        "strict-mode nested assignment",
        "start s\nend e\nnode s { x := a+b+c }\nnode e { out(x) }\nedge s -> e",
        Mode::Strict,
        3,
        21,
        "nested expression requires 3-address form (parse with Mode::Decompose)",
    ),
    (
        "strict-mode nested condition",
        "start s\nend e\nnode s { branch a+b*c > 0 }",
        Mode::Strict,
        3,
        27,
        "nested condition requires 3-address form (parse with Mode::Decompose)",
    ),
    (
        "lone colon",
        "start s\nend e\nnode s { x : 1 }",
        Mode::Strict,
        3,
        12,
        "expected ':='",
    ),
    (
        "lone equals",
        "start s\nend e\nnode s { branch x = 1 }",
        Mode::Strict,
        3,
        19,
        "expected '=='",
    ),
    (
        "lone bang",
        "start s\nend e\nnode s { branch x ! 1 }",
        Mode::Strict,
        3,
        19,
        "expected '!='",
    ),
    (
        "integer out of range",
        "start s\nend e\nnode s { x := 99999999999999999999 }",
        Mode::Strict,
        3,
        15,
        "integer literal '99999999999999999999' out of range",
    ),
    (
        "unexpected character after unicode identifiers",
        "start s\nend e\nnode s { αβ := γ € }",
        Mode::Strict,
        3,
        18,
        "unexpected character '€'",
    ),
];

#[test]
fn every_error_arm_reports_its_exact_position_and_message() {
    for &(name, src, mode, line, col, message) in CASES {
        let err = parse_with_mode(src, mode).expect_err(name);
        assert_eq!(
            (err.line, err.col, err.message.as_str()),
            (line, col, message),
            "{name}"
        );
    }
}

/// Every instruction's position, in node order.
fn located(g: &FlowGraph, map: &SourceMap) -> Vec<(String, usize, Option<Pos>)> {
    let mut out = Vec::new();
    for n in g.nodes() {
        for i in 0..g.block(n).len() {
            out.push((g.label(n).to_owned(), i, map.get(n, i)));
        }
    }
    out
}

fn expect(rows: &[(&str, usize, usize, usize)]) -> Vec<(String, usize, Option<Pos>)> {
    rows.iter()
        .map(|&(label, i, line, col)| (label.to_owned(), i, Some(Pos::new(line, col))))
        .collect()
}

#[test]
fn source_map_of_the_running_example() {
    let src = "# Fig. 4 of the paper.\n\
               start 1\n\
               end 4\n\
               node 1 { y := c+d }\n\
               node 2 { branch x+z > y+i }\n\
               node 3 { y := c+d; x := y+z; i := i+x }\n\
               node 4 { x := y+z; x := c+d; out(i,x,y) }\n\
               edge 1 -> 2\n\
               edge 2 -> 3, 4\n\
               edge 3 -> 2\n";
    let (g, map) = parse_with_locations(src, Mode::Strict).unwrap();
    assert_eq!(map.len(), 8);
    assert_eq!(
        located(&g, &map),
        expect(&[
            ("1", 0, 4, 10),
            ("2", 0, 5, 10),
            ("3", 0, 6, 10),
            ("3", 1, 6, 20),
            ("3", 2, 6, 30),
            ("4", 0, 7, 10),
            ("4", 1, 7, 20),
            ("4", 2, 7, 30),
        ])
    );
}

#[test]
fn source_map_of_a_decomposed_statement() {
    let src =
        "start s\nend e\nnode s {\n  x := a+b+c\n  y := x }\nnode e { out(x, y) }\nedge s -> e";
    let (g, map) = parse_with_locations(src, Mode::Decompose).unwrap();
    assert_eq!(map.len(), 4);
    assert_eq!(
        located(&g, &map),
        expect(&[
            ("s", 0, 4, 3),
            ("s", 1, 4, 3),
            ("s", 2, 5, 3),
            ("e", 0, 6, 10)
        ])
    );
}

//! The `.ir` text front end on repetitive input, pinned by stable hash.
//!
//! Generated programs can repeat a few distinct statements many times
//! (the XL workloads hold a few dozen distinct statements among
//! thousands), so this pin covers what a repeat may and may not share
//! with its first occurrence: the variable pool in index order, every block's interned
//! instruction ids and instructions, the interner's size, every
//! [`SourceMap`](am_ir::text::SourceMap) entry, and each rejected
//! input's error (line, column and message), in both parse modes. The
//! families cover:
//!
//! - statements repeated many times, across nodes and separators;
//! - a repeated decomposing statement, whose every repeat takes its own
//!   fresh `t<n>`;
//! - repeated `out(...)` and `branch` statements;
//! - two statements on one line, repeated (the first ends before the
//!   separator);
//! - a nested statement repeated in Strict mode (an error on first
//!   sight), and errors placed after repeats;
//! - more distinct statements than the parser memoizes, repeated;
//! - statements longer than the parser memoizes, and lines of many
//!   statements with no separator between them;
//! - the full-size XL texts.
//!
//! A last test parses a 1 MB line of 140,000 statements under a time
//! bound, so that the parse stays linear in the length of a line.
//!
//! When a change is *meant* to move a parse, print the new values with
//! `cargo test --test repeat_parse_pin -- --nocapture` and update the
//! pins.

use am_bench::workloads::{nest_grid, wide_fan};
use am_ir::random::SplitMix64;
use am_ir::text::{parse_with_locations, to_text, Mode};
use std::time::{Duration, Instant};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte stream, with a separator between fields so that
/// adjacent fields cannot trade bytes.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    fn field(&mut self, value: impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }
}

/// Hash, accepted count and rejected count of parsing every source in
/// `mode`, with source positions.
fn pin(sources: &[String], mode: Mode) -> (u64, usize, usize) {
    let mut h = Fnv(FNV_OFFSET);
    let (mut ok, mut rejected) = (0, 0);
    for src in sources {
        match parse_with_locations(src, mode) {
            Ok((g, map)) => {
                ok += 1;
                let pool = g.pool();
                for v in pool.iter() {
                    h.field((pool.name(v), pool.is_temp(v)));
                }
                h.field(g.interner().len());
                for n in g.nodes() {
                    h.field(g.label(n));
                    for (index, (id, instr)) in g.ids(n).iter().zip(g.instrs(n)).enumerate() {
                        h.field((id.index(), instr, map.get(n, index)));
                    }
                    h.field(g.succs(n));
                }
                h.field((g.start(), g.end(), map.len()));
            }
            Err(e) => {
                rejected += 1;
                h.field((e.line, e.col, &e.message));
            }
        }
        h.bytes(b"end of program");
    }
    (h.0, ok, rejected)
}

fn check(family: &str, sources: &[String], want: [(u64, usize, usize); 2]) {
    let got = [pin(sources, Mode::Strict), pin(sources, Mode::Decompose)];
    for (mode, g) in ["strict", "decompose"].iter().zip(&got) {
        println!("{family} {mode}: ({:#018x}, {}, {})", g.0, g.1, g.2);
    }
    assert_eq!(
        got, want,
        "{family}: parse moved ([strict, decompose] hash, accepted, rejected)"
    );
}

/// A two-node program: `body` in the start node, `tail` in the end node.
fn program(body: &str, tail: &str) -> String {
    format!("start s\nend e\nnode s {{\n{body}\n}}\nnode e {{ {tail} }}\nedge s -> e\n")
}

/// `stmt` written `n` times, alternating newline and `;` separators.
fn repeated(stmt: &str, n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        out.push_str(stmt);
        out.push_str(if i % 2 == 0 { "\n" } else { "; " });
    }
    out
}

/// `stmt` written `n` times on one line, with no separator between them.
fn one_line(stmt: &str, n: usize) -> String {
    let mut out = String::new();
    for _ in 0..n {
        out.push_str(stmt);
        out.push(' ');
    }
    out
}

/// A chain of `nodes` nodes, each holding `body`, the last one `tail`.
fn chain(nodes: usize, body: &str, tail: &str) -> String {
    let mut src = format!("start n0\nend n{}\n", nodes - 1);
    for i in 0..nodes {
        let text = if i + 1 == nodes { tail } else { body };
        src.push_str(&format!("node n{i} {{ {text} }}\n"));
        if i + 1 < nodes {
            src.push_str(&format!("edge n{i} -> n{}\n", i + 1));
        }
    }
    src
}

#[test]
fn repeated_statements_parse_is_pinned() {
    let sources = vec![
        program(&repeated("x := a+b", 200), "out(x)"),
        program(&repeated("x := a + b", 50), "out(x)"),
        program(
            &format!(
                "{}{}{}",
                repeated("x := a+b", 30),
                repeated("y := x*c", 30),
                repeated("x := a+b", 30)
            ),
            "out(x, y)",
        ),
        program(&repeated("skip", 40), "out()"),
        program(&repeated("x := x", 40), "out(x)"),
        program(&repeated("x := -3", 25), "out(x)"),
        program(&repeated("y := x + -2", 25), "out(y)"),
        program(&repeated("x := a", 10), "out(x)"),
        chain(60, "x := a+b; y := x-c; z := 7", "out(x, y, z)"),
        chain(60, "x := a+b\n y := x-c\n x := a+b", "out(x, y)"),
        // A variable first seen in a repeat's neighbour, between repeats.
        program(
            &format!(
                "{}w := q+r\n{}",
                repeated("x := a+b", 5),
                repeated("x := a+b", 5)
            ),
            "out(x, w)",
        ),
    ];
    check(
        "repeated",
        &sources,
        [
            (0x6717_fd16_0402_db53, 11, 0),
            (0x6717_fd16_0402_db53, 11, 0),
        ],
    );
}

#[test]
fn repeated_decomposing_statements_parse_is_pinned() {
    // Each repeat lowers through its own fresh `t<n>`, stepping over the
    // source's own `t`-names.
    let sources = vec![
        program(&repeated("x := a+b+c", 20), "out(x)"),
        program(&repeated("x := (a+b)*(c-d)", 12), "out(x)"),
        program(
            &format!("t2 := 1\n{}t4 := t2", repeated("x := a*b+c", 8)),
            "out(x, t2, t4)",
        ),
        chain(30, "x := a+b+c; y := x+1", "out(x, y)"),
        // A 3-address statement between decomposing repeats.
        program(
            &format!(
                "{}{}{}",
                repeated("x := a+b+c", 4),
                repeated("y := a+b", 4),
                repeated("x := a+b+c", 4)
            ),
            "out(x, y)",
        ),
    ];
    check(
        "repeated decompose",
        &sources,
        [(0xece8_ddb5_7e15_7d00, 0, 5), (0x7c84_3c6c_1eb4_f41e, 5, 0)],
    );
}

/// A `fan`-way branch fan where every arm and the start node repeat the
/// same statements.
fn branch_fan(fan: usize, cond: &str, arm: &str, tail: &str) -> String {
    let mut src = String::from("start s\nend e\n");
    // A node with more than two successors branches on its condition's
    // value; the text front end does not check the count.
    src.push_str(&format!("node s {{ x := a+b; branch {cond} }}\n"));
    for i in 0..fan {
        src.push_str(&format!("node b{i} {{ {arm}; branch {cond} }}\n"));
        src.push_str(&format!("node l{i} {{ {arm} }}\n"));
    }
    src.push_str(&format!("node e {{ {tail} }}\n"));
    let arms: Vec<String> = (0..fan).map(|i| format!("b{i}")).collect();
    src.push_str(&format!("edge s -> {}\n", arms.join(", ")));
    for i in 0..fan {
        src.push_str(&format!("edge b{i} -> l{i}, e\nedge l{i} -> e\n"));
    }
    src
}

#[test]
fn repeated_out_and_branch_parse_is_pinned() {
    let sources = vec![
        program(&repeated("out(x, y)", 30), "out()"),
        program(&repeated("out()", 30), "out(x)"),
        program(&repeated("out(a, -1, 3)", 30), "out(a)"),
        branch_fan(40, "x > 0", "y := x+1; out(y)", "out(x, y)"),
        branch_fan(40, "a+b > c", "out(a, b)", "out(a)"),
        branch_fan(40, "p", "x := x", "out(x)"),
        // Decomposing conditions: each repeat takes fresh variables.
        branch_fan(25, "a+b+c > d*e", "y := a+b+c", "out(y)"),
    ];
    check(
        "repeated out/branch",
        &sources,
        [(0xc3ca_06b4_3843_163b, 6, 1), (0xff24_d066_918a_c2ff, 7, 0)],
    );
}

#[test]
fn repeated_statements_with_errors_parse_is_pinned() {
    let sources = vec![
        // Nested: an error on first sight in Strict mode, lowered in
        // Decompose mode.
        program(&repeated("x := a+b*c", 10), "out(x)"),
        program(
            &format!("{}{}", repeated("x := a+b", 10), repeated("y := a+b+c", 3)),
            "out(x, y)",
        ),
        // Two statements on one line: the first ends before the separator.
        program(&repeated("x := a y := b", 20), "out(x, y)"),
        program(&repeated("out(x) x := a+b", 12), "out(x)"),
        // A repeat followed by garbage on its own line.
        program(&format!("{}x := a+b )", repeated("x := a+b", 6)), "out(x)"),
        program(&format!("{}x := a+b +", repeated("x := a+b", 6)), "out(x)"),
        program(&format!("{}x := a+b y", repeated("x := a+b", 6)), "out(x)"),
        // A lexing error after repeated statements.
        program(&format!("{}y ?= 2", repeated("x := a+b", 30)), "out(x)"),
        program(
            &format!("{}y := 99999999999999999999", repeated("x := a+b", 30)),
            "out(x)",
        ),
        // A structural error after repeated nodes.
        chain(20, "x := a+b", "out(x)").replace("edge n3 -> n4\n", ""),
        // Unterminated after repeats.
        format!("start s\nend e\nnode s {{\n{}", repeated("x := a+b", 10)),
        // Too deep, repeated.
        program(
            &repeated(&format!("x := {}a{}", "(".repeat(200), ")".repeat(200)), 3),
            "out(x)",
        ),
    ];
    check(
        "repeated errors",
        &sources,
        [
            (0x6fba_7e5b_54d6_df35, 2, 10),
            (0x408b_2efd_16af_6090, 4, 8),
        ],
    );
}

#[test]
fn many_distinct_statements_parse_is_pinned() {
    // More distinct statements than the parser memoizes, each repeated.
    let distinct: Vec<String> = (0..400).map(|i| format!("x{i} := a+{i}")).collect();
    let forward = distinct.join("\n");
    let backward: Vec<&str> = distinct.iter().rev().map(String::as_str).collect();
    let sources = vec![
        program(&format!("{forward}\n{forward}"), "out(x0, x399)"),
        program(&format!("{forward}\n{}", backward.join("; ")), "out(x7)"),
        chain(3, &forward, "out(x1)"),
    ];
    check(
        "many distinct",
        &sources,
        [(0xa66c_0694_71df_10a9, 3, 0), (0xa66c_0694_71df_10a9, 3, 0)],
    );
}

/// A seeded program drawing statements from a small pool of templates,
/// most of them 3-address, some nested, some errors in Strict mode, over
/// variables that include the decomposition's own `t<n>` names.
fn drawn_program(seed: u64) -> String {
    const POOL: [&str; 12] = [
        "x := a+b",
        "y := x*c",
        "t1 := a-b",
        "out(x, y)",
        "skip",
        "y := y",
        "a := 4",
        "t3 := x % 2",
        "out()",
        "x := a + b",
        // Nested: drawn in every third program only.
        "x := a+b+c",
        "z := (a+t1)*(b-t2)",
    ];
    let pool = if seed.is_multiple_of(3) {
        &POOL[..]
    } else {
        &POOL[..10]
    };
    const SEPARATORS: [&str; 3] = ["\n", "; ", " ;\n  "];
    let mut rng = SplitMix64::new(0x5EED ^ seed.wrapping_mul(0x9e37_79b9));
    let nodes = 2 + rng.gen_range(0..6usize);
    let mut src = format!("start n0\nend n{}\n", nodes - 1);
    for i in 0..nodes {
        src.push_str(&format!("node n{i} {{"));
        for _ in 0..rng.gen_range(0..25usize) {
            src.push_str(rng.choose::<&str>(pool));
            src.push_str(rng.choose::<&str>(&SEPARATORS));
        }
        src.push_str("}\n");
        if i + 1 < nodes {
            src.push_str(&format!("edge n{i} -> n{}\n", i + 1));
        }
    }
    src
}

#[test]
fn drawn_statements_parse_is_pinned() {
    let sources: Vec<String> = (0..200).map(drawn_program).collect();
    check(
        "drawn200",
        &sources,
        [
            (0xccef_7fd1_b671_86f9, 134, 66),
            (0x8720_c08c_8afd_49b6, 200, 0),
        ],
    );
}

#[test]
fn full_size_xl_parse_is_pinned() {
    let sources = vec![to_text(&wide_fan(2500, 4)), to_text(&nest_grid(300, 2, 8))];
    check(
        "xl full size",
        &sources,
        [(0xb7f0_1930_14ea_f16e, 2, 0), (0xb7f0_1930_14ea_f16e, 2, 0)],
    );
}

#[test]
fn long_statements_and_lines_parse_is_pinned() {
    // `out(a0, …, a<k-1>)` spans 2k+2 tokens: k = 30, 31 and 32 sit on
    // either side of the longest statement the parser memoizes.
    let out = |k: usize| {
        let operands: Vec<String> = (0..k).map(|i| format!("a{i}")).collect();
        format!("out({})", operands.join(", "))
    };
    let sum: Vec<String> = (0..40).map(|i| format!("a{i}")).collect();
    let sources = vec![
        program(&repeated(&out(30), 5), "out(a0)"),
        program(&repeated(&out(31), 5), "out(a0)"),
        program(&repeated(&out(32), 5), "out(a0)"),
        // A 40-term sum: an error in Strict mode, a run of fresh `t<n>`
        // in Decompose mode.
        program(&repeated(&format!("x := {}", sum.join("+")), 4), "out(x)"),
        // Lines of many statements with no separator between them.
        program(&one_line("x := a y := b+c", 1000), "out(x, y)"),
        program(
            &format!(
                "{}\n{}",
                one_line("x := a+b", 500),
                repeated("x := a+b", 10)
            ),
            "out(x)",
        ),
        program(&format!("{})", one_line("x := a", 2000)), "out(x)"),
    ];
    check(
        "long statements and lines",
        &sources,
        [(0x3b76_8235_599f_cf1b, 5, 2), (0x2123_aa9b_0ced_5af6, 6, 1)],
    );
}

#[test]
fn one_line_of_many_statements_parses_in_linear_time() {
    // About 1 MB: 140,000 statements on one line. Looking for each
    // statement's separator up to the end of the line would take about
    // 10^10 steps here; a linear parse takes well under a second.
    let n = 140_000;
    let src = program(&one_line("x := a", n), "out(x)");
    let started = Instant::now();
    let (g, map) = parse_with_locations(&src, Mode::Strict).expect("parses");
    let elapsed = started.elapsed();
    assert_eq!((g.ids(g.start()).len(), map.len()), (n, n + 1));
    assert!(
        elapsed < Duration::from_secs(15),
        "{n} statements on one line took {elapsed:?}"
    );
}

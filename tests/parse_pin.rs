//! The `.ir` text front end, pinned by stable hash.
//!
//! Every parsed graph — its variable pool in index order (names and
//! temporary flags), every block's label, instructions and successor
//! edges, and the start and end nodes — is folded into one FNV-1a hash
//! per input family, in both parse modes. A rejected input folds in its
//! error (line, column and message) instead. The golden hashes only see
//! canonical text, which renames temporaries by first occurrence; this
//! pin also sees the `Var` numbering the parser hands out and the
//! `t<n>` names of the Decompose lowering, including how fresh names
//! step over source `t1`-style identifiers.
//!
//! When a change is *meant* to move a parse, print the new values with
//! `cargo test --test parse_pin -- --nocapture` and update the pins.

use am_bench::workloads::{nest_grid, wide_fan};
use am_ir::random::{
    corpus80, structured, unstructured, SplitMix64, StructuredConfig, UnstructuredConfig,
};
use am_ir::text::{parse_with_mode, to_text, Mode};
use am_ir::FlowGraph;

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

    fn graph(&mut self, g: &FlowGraph) {
        let pool = g.pool();
        for v in pool.iter() {
            self.field((pool.name(v), pool.is_temp(v)));
        }
        for n in g.nodes() {
            self.field(g.label(n));
            for instr in g.instrs(n) {
                self.field(instr);
            }
            self.field(g.succs(n));
        }
        self.field((g.start(), g.end()));
    }
}

/// Hash, accepted count and rejected count of parsing every source in
/// `mode`.
fn pin(sources: &[String], mode: Mode) -> (u64, usize, usize) {
    let mut h = Fnv(FNV_OFFSET);
    let (mut ok, mut rejected) = (0, 0);
    for src in sources {
        match parse_with_mode(src, mode) {
            Ok(g) => {
                ok += 1;
                h.graph(&g);
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

#[test]
fn corpus80_parse_is_pinned() {
    let sources: Vec<String> = corpus80().iter().map(|(_, g)| to_text(g)).collect();
    check(
        "corpus80",
        &sources,
        [
            (0xf8ff_d733_a92f_75be, 80, 0),
            (0xf8ff_d733_a92f_75be, 80, 0),
        ],
    );
}

#[test]
fn random_programs_parse_is_pinned() {
    let mut sources = Vec::new();
    for seed in 0..100u64 {
        let mut rng = SplitMix64::new(0x9A45 ^ seed);
        let g = structured(
            &mut rng,
            &StructuredConfig {
                allow_div: seed % 2 == 0,
                max_depth: 2 + (seed as usize % 3),
                max_stmts: 3 + (seed as usize % 4),
                num_vars: 3 + (seed as usize % 6),
            },
        );
        sources.push(to_text(&g));
        let g = unstructured(
            &mut rng,
            &UnstructuredConfig {
                nodes: 3 + (seed as usize % 20),
                extra_edges: seed as usize % 12,
                max_instrs: 1 + (seed as usize % 6),
                num_vars: 2 + (seed as usize % 8),
                allow_div: seed % 3 == 1,
            },
        );
        sources.push(to_text(&g));
    }
    check(
        "random200",
        &sources,
        [
            (0xdd6f_e3af_9970_f58c, 200, 0),
            (0xdd6f_e3af_9970_f58c, 200, 0),
        ],
    );
}

#[test]
fn checked_in_programs_parse_is_pinned() {
    let mut paths: Vec<_> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs"))
        .expect("programs directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    let sources: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("readable program"))
        .collect();
    check(
        "programs/*.ir",
        &sources,
        [(0x5faa_43c9_ab09_3d3a, 1, 0), (0x5faa_43c9_ab09_3d3a, 1, 0)],
    );
}

#[test]
fn xl_rungs_parse_is_pinned() {
    let sources = vec![
        to_text(&nest_grid(1, 1, 1)),
        to_text(&nest_grid(5, 2, 8)),
        to_text(&nest_grid(12, 3, 4)),
        to_text(&wide_fan(2, 1)),
        to_text(&wide_fan(40, 4)),
        to_text(&wide_fan(150, 3)),
    ];
    check(
        "xl rungs",
        &sources,
        [(0xe620_103c_027e_a1d6, 6, 0), (0xe620_103c_027e_a1d6, 6, 0)],
    );
}

/// A random expression of operator height at most `height` over `leaves`,
/// written with the parentheses precedence needs plus some redundant ones.
fn expr(rng: &mut SplitMix64, height: usize, leaves: &[&str]) -> String {
    if height == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..6usize) {
            0 => format!("{}", rng.gen_range(0..20i64)),
            1 => format!("-{}", rng.gen_range(1..9i64)),
            _ => rng.choose(leaves).to_string(),
        };
    }
    let op = *rng.choose(&["+", "-", "*", "/", "%", "+", "*"]);
    let lhs = expr(rng, height - 1, leaves);
    let rhs = expr(rng, height - 1, leaves);
    match rng.gen_range(0..4usize) {
        0 => format!("{lhs} {op} {rhs}"),
        1 => format!("({lhs}) {op} ({rhs})"),
        2 => format!("{lhs}{op}({rhs})"),
        _ => format!("({lhs} {op} {rhs})"),
    }
}

/// `n` assignments of random nested expressions.
fn statements(rng: &mut SplitMix64, n: usize) -> Vec<String> {
    const LEAVES: [&str; 9] = ["a", "b", "c", "x", "t1", "t2", "t10", "tmp", "u"];
    const TARGETS: [&str; 6] = ["x", "y", "t1", "t3", "a", "tmp"];
    (0..n)
        .map(|_| {
            let lhs = *rng.choose(&TARGETS);
            let height = rng.gen_range(0..5usize);
            format!("{lhs} := {}", expr(rng, height, &LEAVES))
        })
        .collect()
}

/// A seeded program of nested statements and a nested branch condition,
/// over variables that include the decomposition's own `t<n>` names.
fn nested_program(seed: u64) -> String {
    let mut rng = SplitMix64::new(0x7E57 ^ seed.wrapping_mul(0x9e37_79b9));
    let leaves = ["a", "t1", "b", "t2", "x"];
    let n = rng.gen_range(0..4usize);
    let mut head = statements(&mut rng, n);
    let cond = if rng.gen_bool(0.25) {
        expr(&mut rng, 3, &leaves)
    } else {
        let rel = *rng.choose(&["<", "<=", ">", ">=", "==", "!="]);
        let (l, r) = (rng.gen_range(0..4usize), rng.gen_range(0..4usize));
        let l = expr(&mut rng, l, &leaves);
        format!("{l} {rel} {}", expr(&mut rng, r, &leaves))
    };
    head.push(format!("branch {cond}"));
    let n = 1 + rng.gen_range(0..3usize);
    let left = statements(&mut rng, n);
    let n = rng.gen_range(0..3usize);
    let right = statements(&mut rng, n);
    format!(
        "start s\nend e\nnode s {{ {} }}\nnode l {{ {} }}\nnode r {{ {}; skip }}\n\
         node e {{ out(x, y, t1) }}\nedge s -> l, r\nedge l -> e\nedge r -> e\n",
        head.join("; "),
        left.join("\n"),
        right.join("; "),
    )
}

#[test]
fn nested_statements_parse_is_pinned() {
    let sources: Vec<String> = (0..300).map(nested_program).collect();
    check(
        "nested300",
        &sources,
        [
            (0xf4b0_8971_23d8_2f1a, 22, 278),
            (0xfb27_c820_c589_6411, 300, 0),
        ],
    );
}

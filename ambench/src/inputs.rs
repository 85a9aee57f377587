//! Seeded workload inputs. The seed drives only what is generated here;
//! the same seed always yields byte-identical program texts.

use std::fmt::Write as _;

use am_ir::random::{structured, unstructured, SplitMix64, StructuredConfig, UnstructuredConfig};
use am_ir::text::to_text;
use am_lang::SourceKind;

/// Programs in one `corpus` draw.
pub const CORPUS_PROGRAMS: usize = 500;
/// Programs in the `serve` request pool.
pub const SERVE_POOL: usize = 16;
/// Requests each `serve` connection sends in one round.
pub const SERVE_ROUND_REQUESTS: usize = 50;
/// Programs the `serve` warm-up sends; none of them is in the pool.
pub const SERVE_WARMUP: usize = 4;
/// Loop nests in `xl-nest` before the seed's ±0.5% jitter.
pub const NEST_COPIES: usize = 300;
/// Branches in `xl-fan` before the seed's ±0.5% jitter.
pub const FAN_BRANCHES: usize = 2500;

/// Size window of a small program, in instructions, like the repository's
/// `corpus80` programs.
const MIN_INSTRS: usize = 10;
const MAX_INSTRS: usize = 60;

/// One input program, as a client would submit it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Label, unique within a workload.
    pub name: String,
    /// Which frontend reads `text`.
    pub kind: SourceKind,
    /// The source text.
    pub text: String,
}

/// A generator stream for one workload: the same seed gives different but
/// fixed streams to different workloads.
fn stream(seed: u64, workload: &str) -> SplitMix64 {
    let salt = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    SplitMix64::new(seed ^ salt)
}

/// The `corpus` draw: half structured IR, a quarter unstructured IR and a
/// quarter while-language, each 10–60 instructions.
pub fn corpus(seed: u64) -> Vec<Program> {
    small_programs(&mut stream(seed, "corpus"), CORPUS_PROGRAMS, "corpus")
}

/// The `serve` request pool, drawn like the corpus. It is the same for
/// every seed: sixteen programs are too few for their costs and checked
/// ratios to hold still from one draw to the next, and the seed varies the
/// traffic instead ([`serve_round`]).
pub fn serve_pool() -> Vec<Program> {
    small_programs(&mut stream(0, "serve"), SERVE_POOL, "serve")
}

/// The programs `serve` warms the server with before timing.
pub fn serve_warmup() -> Vec<Program> {
    small_programs(&mut stream(0, "serve-warmup"), SERVE_WARMUP, "warmup")
}

/// One `serve` round: for each of `connections`, the pool programs it
/// sends, in order, [`SERVE_ROUND_REQUESTS`] each. Every pool program is
/// in the round and the other requests are drawn with replacement, so a
/// round against a cold server makes exactly [`SERVE_POOL`] first
/// requests, whatever the speed of the server (16 of 100 with two
/// connections; the rest are cache hits or coalesce with a first).
pub fn serve_round(seed: u64, connections: usize) -> Vec<Vec<usize>> {
    let rng = &mut stream(seed, "serve-round");
    let total = connections * SERVE_ROUND_REQUESTS;
    assert!(total >= SERVE_POOL, "a round sends every pool program");
    let mut order: Vec<usize> = (0..SERVE_POOL)
        .chain((SERVE_POOL..total).map(|_| rng.gen_range(0..SERVE_POOL)))
        .collect();
    shuffle(rng, &mut order);
    order
        .chunks(SERVE_ROUND_REQUESTS)
        .map(<[usize]>::to_vec)
        .collect()
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for j in (1..items.len()).rev() {
        items.swap(j, rng.gen_range(0..=j));
    }
}

/// The `xl-nest` program: `nest_grid(c, 2, 8)` with `c` within 0.5% of
/// [`NEST_COPIES`].
pub fn xl_nest(seed: u64) -> Program {
    let copies = jitter(&mut stream(seed, "xl-nest"), NEST_COPIES);
    Program {
        name: format!("nest_grid({copies},2,8)"),
        kind: SourceKind::Ir,
        text: to_text(&am_bench::workloads::nest_grid(copies, 2, 8)),
    }
}

/// The `xl-fan` program: `wide_fan(b, 4)` with `b` within 0.5% of
/// [`FAN_BRANCHES`].
pub fn xl_fan(seed: u64) -> Program {
    let branches = jitter(&mut stream(seed, "xl-fan"), FAN_BRANCHES);
    Program {
        name: format!("wide_fan({branches},4)"),
        kind: SourceKind::Ir,
        text: to_text(&am_bench::workloads::wide_fan(branches, 4)),
    }
}

/// `base` moved by at most 0.5% either way. The spread is kept this small
/// so that seeds vary the program without varying its cost much.
fn jitter(rng: &mut SplitMix64, base: usize) -> usize {
    let span = base / 200;
    base - span + rng.gen_range(0..=2 * span)
}

/// Candidates drawn per program slot. Each kind keeps the candidates at
/// evenly spaced size ranks, so every seed gets nearly the same size mix
/// (the generators' own, cut to the window) and seeds differ mostly in
/// what the programs do.
const OVERSAMPLE: usize = 8;

fn small_programs(rng: &mut SplitMix64, count: usize, prefix: &str) -> Vec<Program> {
    let mut kinds: Vec<_> = (0..4)
        .map(|kind| {
            let slots = (count + 3 - kind) / 4;
            let mut candidates = Vec::with_capacity(OVERSAMPLE * slots);
            while candidates.len() < OVERSAMPLE * slots {
                let (source_kind, text, instrs) = draw(rng, kind);
                if (MIN_INSTRS..=MAX_INSTRS).contains(&instrs) {
                    candidates.push((instrs, source_kind, text));
                }
            }
            candidates.sort_by_key(|c| c.0);
            let mut picked: Vec<(SourceKind, String)> = (0..slots)
                .map(|j| {
                    let (_, k, text) = &candidates[(2 * j + 1) * candidates.len() / (2 * slots)];
                    (*k, text.clone())
                })
                .collect();
            // Shuffle, so a pass cut short by the deadline is not biased
            // toward either end of the size range.
            shuffle(rng, &mut picked);
            picked.into_iter()
        })
        .collect();
    (0..count)
        .map(|i| {
            let (kind, text) = kinds[i % 4].next().expect("one pick per slot");
            Program {
                name: format!("{prefix}/{i}.{kind}"),
                kind,
                text,
            }
        })
        .collect()
}

/// One program of the given kind: 0 and 1 structured IR, 2 unstructured
/// IR, 3 while-language. Returns its source and instruction count.
fn draw(rng: &mut SplitMix64, kind: usize) -> (SourceKind, String, usize) {
    match kind {
        0 | 1 => {
            let cfg = StructuredConfig {
                max_depth: 3 + rng.gen_range(0..2usize),
                ..StructuredConfig::default()
            };
            let g = structured(rng, &cfg);
            (SourceKind::Ir, to_text(&g), g.instr_count())
        }
        2 => {
            let cfg = UnstructuredConfig {
                nodes: 4 + rng.gen_range(0..18usize),
                extra_edges: 2 + rng.gen_range(0..9usize),
                max_instrs: 4,
                num_vars: 6,
                allow_div: false,
            };
            let g = unstructured(rng, &cfg);
            (SourceKind::Ir, to_text(&g), g.instr_count())
        }
        _ => {
            let text = while_program(rng);
            let g = am_lang::compile(&text).expect("generated while program compiles");
            (SourceKind::While, text, g.instr_count())
        }
    }
}

const WHILE_VARS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// A random while-language program: nested expressions, branches, and
/// counted loops (so every loop terminates when its conditions decide),
/// ending with a `print` of every variable so any miscompile is visible.
fn while_program(rng: &mut SplitMix64) -> String {
    let mut gen = WhileGen { rng, loops: 0 };
    let mut src = String::new();
    let stmts = gen.rng.gen_range(2..=5usize);
    for _ in 0..stmts {
        gen.stmt(&mut src, 0);
    }
    src.push_str("print(a, b, c, d, e);\n");
    src
}

struct WhileGen<'a> {
    rng: &'a mut SplitMix64,
    loops: usize,
}

impl WhileGen<'_> {
    fn atom(&mut self) -> String {
        if self.rng.gen_bool(0.75) {
            (*self.rng.choose(&WHILE_VARS)).to_owned()
        } else {
            self.rng.gen_range(0..10i64).to_string()
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.rng.gen_bool(0.4) {
            return self.atom();
        }
        let op = *self.rng.choose(&["+", "-", "*"]);
        format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
    }

    fn block(&mut self, out: &mut String, depth: usize) {
        for _ in 0..self.rng.gen_range(1..=3usize) {
            self.stmt(out, depth + 1);
        }
    }

    fn stmt(&mut self, out: &mut String, depth: usize) {
        let roll = self.rng.gen_f64();
        let nested = depth < 2;
        if nested && roll < 0.12 {
            let rel = *self.rng.choose(&["<", "<=", ">", ">=", "==", "!="]);
            let _ = writeln!(out, "if ({} {rel} {}) {{", self.expr(1), self.expr(1));
            self.block(out, depth);
            out.push_str("} else {\n");
            self.block(out, depth);
            out.push_str("}\n");
        } else if nested && roll < 0.30 {
            let k = format!("k{}", self.loops);
            self.loops += 1;
            let trips = self.rng.gen_range(1..=3i64);
            let _ = writeln!(out, "{k} := {trips};");
            if roll < 0.21 {
                out.push_str("do {\n");
                self.block(out, depth);
                let _ = writeln!(out, "{k} := {k} - 1;\n}} while ({k} > 0);");
            } else {
                let _ = writeln!(out, "while ({k} > 0) {{");
                self.block(out, depth);
                let _ = writeln!(out, "{k} := {k} - 1;\n}}");
            }
        } else if roll < 0.36 {
            let _ = writeln!(out, "print({});", self.expr(2));
        } else {
            let var = *self.rng.choose(&WHILE_VARS);
            let _ = writeln!(out, "{var} := {};", self.expr(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_holdout_seed_different() {
        let dev = 1;
        let holdout = 2;
        assert_eq!(corpus(dev), corpus(dev));
        assert_ne!(corpus(dev), corpus(holdout));
        assert_eq!(serve_pool(), serve_pool());
        assert_eq!(serve_round(dev, 2), serve_round(dev, 2));
        assert_ne!(serve_round(dev, 2), serve_round(holdout, 2));
        for gen in [xl_nest, xl_fan] {
            assert_eq!(gen(dev), gen(dev));
        }
        // The XL seeds move the size by at most 0.5%; two seeds may land
        // on the same size, so the inequality is checked across a few.
        assert!((2..6).any(|s| xl_nest(s) != xl_nest(dev)));
        assert!((2..6).any(|s| xl_fan(s) != xl_fan(dev)));
    }

    #[test]
    fn corpus_mix_and_sizes() {
        let programs = corpus(1);
        assert_eq!(programs.len(), CORPUS_PROGRAMS);
        let wl = programs
            .iter()
            .filter(|p| p.kind == SourceKind::While)
            .count();
        assert_eq!(wl, CORPUS_PROGRAMS / 4);
        let mut means = Vec::new();
        for seed in [1, 2] {
            let sizes: Vec<usize> = corpus(seed)
                .iter()
                .map(|p| {
                    let g = am_lang::compile_source(p.kind, &p.text).expect("compiles");
                    g.instr_count()
                })
                .collect();
            assert!(sizes.iter().all(|n| (MIN_INSTRS..=MAX_INSTRS).contains(n)));
            means.push(sizes.iter().sum::<usize>() as f64 / sizes.len() as f64);
        }
        // Seeds change the programs, hardly their size mix.
        assert!((means[0] / means[1] - 1.0).abs() < 0.02, "{means:?}");
        let mut names: Vec<&str> = programs.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CORPUS_PROGRAMS);
    }

    #[test]
    fn serve_round_is_fixed_by_the_seed_and_sends_every_pool_program() {
        let round = serve_round(1, 2);
        assert_eq!(round.len(), 2);
        assert!(round.iter().all(|c| c.len() == SERVE_ROUND_REQUESTS));
        let mut sent: Vec<usize> = round.concat();
        sent.sort_unstable();
        sent.dedup();
        assert_eq!(sent, (0..SERVE_POOL).collect::<Vec<_>>());
    }

    #[test]
    fn serve_warmup_is_outside_the_pool() {
        let pool = serve_pool();
        for w in serve_warmup() {
            assert!(pool.iter().all(|p| p.text != w.text), "{}", w.name);
        }
    }

    #[test]
    fn jitter_stays_within_half_a_percent() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..200 {
            let c = jitter(&mut rng, 1000);
            assert!((995..=1005).contains(&c), "{c}");
        }
    }
}

//! Canonical renaming of temporaries and alpha-equivalence of programs.
//!
//! The optimizer names the temporary of expression ε canonically after ε
//! (e.g. `h<a+b>`), while the paper's figures use positional names (`h1`,
//! `h2`, …). Tests that pin transformed programs against the paper compare
//! *canonical text*: temporaries are renamed to `h1`, `h2`, … in order of
//! first occurrence, so the comparison is insensitive to internal naming.

use std::collections::HashMap;
use std::fmt::{self, Write};

use crate::graph::FlowGraph;
use crate::instr::{Cond, Instr};
use crate::text;
use crate::var::Var;

/// Returns a copy of `g` whose temporaries are renamed to `h1`, `h2`, … in
/// order of first occurrence (instruction order, nodes in index order).
///
/// Non-temporary variables keep their names. The copy shares no state with
/// the original.
///
/// This is the reference renaming, kept deliberately literal (it clones the
/// graph, rebuilds the pool and rewrites every instruction) and left
/// unoptimized: `to_text(&rename_temps_canonically(g))` is the oracle that
/// [`canonical_text`] and [`stable_hash`] are byte-compared against.
pub fn rename_temps_canonically(g: &FlowGraph) -> FlowGraph {
    // Order temporaries by first occurrence.
    let mut order: Vec<Var> = Vec::new();
    let mut seen: HashMap<Var, ()> = HashMap::new();
    let note =
        |v: Var, pool: &crate::var::VarPool, order: &mut Vec<Var>, seen: &mut HashMap<Var, ()>| {
            if pool.is_temp(v) && !seen.contains_key(&v) {
                seen.insert(v, ());
                order.push(v);
            }
        };
    for (_, instr) in g.locs() {
        if let Some(d) = instr.def() {
            note(d, g.pool(), &mut order, &mut seen);
        }
        instr.for_each_use(|v| note(v, g.pool(), &mut order, &mut seen));
    }

    let mut renamed = g.clone();
    let new_names: HashMap<Var, String> = order
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, format!("h{}", i + 1)))
        .collect();

    // Build a fresh pool: keep non-temp names, substitute temp names.
    let mut pool = crate::var::VarPool::new();
    let mut map: HashMap<Var, Var> = HashMap::new();
    for v in g.pool().iter() {
        let nv = match new_names.get(&v) {
            Some(name) => pool.intern_temp(name),
            None if g.pool().is_temp(v) => pool.intern_temp(g.pool().name(v)),
            None => pool.intern(g.pool().name(v)),
        };
        map.insert(v, nv);
    }
    *renamed.pool_mut() = pool;
    let remap = |v: Var| map[&v];
    for n in g.nodes() {
        let mut instrs = renamed.take_block(n);
        for instr in &mut instrs {
            *instr = map_instr(instr, &remap);
        }
        renamed.set_block(n, instrs);
    }
    renamed
}

fn map_instr(instr: &Instr, f: &impl Fn(Var) -> Var) -> Instr {
    match instr {
        Instr::Skip => Instr::Skip,
        Instr::Assign { lhs, rhs } => Instr::Assign {
            lhs: f(*lhs),
            rhs: rhs.map_vars(f),
        },
        Instr::Out(ops) => Instr::Out(
            ops.iter()
                .map(|o| match o {
                    crate::term::Operand::Var(v) => crate::term::Operand::Var(f(*v)),
                    c => *c,
                })
                .collect(),
        ),
        Instr::Branch(c) => Instr::Branch(Cond {
            op: c.op,
            lhs: c.lhs.map_vars(f),
            rhs: c.rhs.map_vars(f),
        }),
    }
}

/// The canonical textual form of `g`: the text
/// [`to_text`](text::to_text) would print after
/// [`rename_temps_canonically`], rendered in one pass with the positional
/// names substituted on the fly (no program clone). Two programs are
/// *alpha-equivalent* when their canonical texts are equal.
pub fn canonical_text(g: &FlowGraph) -> String {
    let mut out = String::new();
    write_canonical(&mut out, g).expect(text::INFALLIBLE);
    out
}

/// Whether two programs are identical up to the renaming of temporaries.
pub fn alpha_eq(a: &FlowGraph, b: &FlowGraph) -> bool {
    canonical_text(a) == canonical_text(b)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An [`fmt::Write`] sink that FNV-1a-hashes every byte written to it, so
/// the canonical text can be hashed as it is produced instead of being
/// materialized first.
struct FnvWriter(u64);

impl Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// A stable 64-bit content hash of `g`, insensitive to temporary naming:
/// alpha-equivalent programs hash equal on every platform and in every
/// process (the hash is FNV-1a over [`canonical_text`], with no per-process
/// randomization — unlike `DefaultHasher`). Suitable as a
/// content-addressed cache key; the `am-serve` disk cache and the pipeline
/// result cache address entries by this value, so it must never drift (a
/// golden fixture over the shared corpus pins it).
///
/// The bytes are streamed straight into the hash by the same writer that
/// backs [`canonical_text`] and [`to_text`](text::to_text), with no
/// program clone and no intermediate `String`. Its oracle is the literal clone-and-print path
/// `to_text(&rename_temps_canonically(g))`, which rebuilds the pool and
/// renames every instruction; the regression suite, `am-check`'s identity
/// check and this module's tests byte-compare the two.
pub fn stable_hash(g: &FlowGraph) -> u64 {
    let mut w = FnvWriter(FNV_OFFSET);
    write_canonical(&mut w, g).expect("hashing sink never fails");
    w.0
}

/// The raw FNV-1a hash used by [`stable_hash`], exposed so callers that
/// already hold a canonical text can avoid recomputing it.
pub fn stable_hash_text(canonical: &str) -> u64 {
    let mut w = FnvWriter(FNV_OFFSET);
    w.write_str(canonical).expect("hashing sink never fails");
    w.0
}

/// Streams the canonical text of `g` into `w`: positional temporary names
/// substituted on the fly, everything else rendered as
/// [`to_text`](text::to_text) renders it.
fn write_canonical<W: Write>(w: &mut W, g: &FlowGraph) -> fmt::Result {
    // Rank of each temporary by first occurrence (defs before uses, nodes
    // in index order) — the order `rename_temps_canonically` assigns;
    // 0 marks a variable that keeps its pool name. Renaming only changes
    // what is printed for a variable, so substituting names during
    // rendering yields byte-identical text without cloning the graph.
    let pool = g.pool();
    let mut rank = vec![0u32; pool.len()];
    let mut next = 0;
    let mut note = |v: Var| {
        if rank[v.index()] == 0 && pool.is_temp(v) {
            next += 1;
            rank[v.index()] = next;
        }
    };
    for n in g.nodes() {
        for instr in g.instrs(n) {
            if let Some(d) = instr.def() {
                note(d);
            }
            instr.for_each_use(&mut note);
        }
    }
    text::write_program(w, g, &mut |w: &mut W, v: Var| match rank[v.index()] {
        0 => w.write_str(pool.name(v)),
        r => {
            w.write_str("h")?;
            text::write_int(w, i64::from(r))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{BinOp, Term};
    use crate::text::{parse, to_text};

    fn with_temp(name_suffix: &str) -> FlowGraph {
        let mut g =
            parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e").unwrap();
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let h = g.pool_mut().intern_temp(&format!("h<{name_suffix}>"));
        let x = g.pool().lookup("x").unwrap();
        let start = g.start();
        g.set_block(start, Vec::new());
        g.push_instr(start, Instr::assign(h, Term::binary(BinOp::Add, a, b)));
        g.push_instr(start, Instr::assign(x, h));
        g
    }

    #[test]
    fn temps_get_positional_names() {
        let g = with_temp("a+b");
        let text = canonical_text(&g);
        assert!(text.contains("h1 := a+b"), "{text}");
        assert!(text.contains("x := h1"), "{text}");
        assert!(!text.contains("h<"), "{text}");
    }

    #[test]
    fn alpha_eq_ignores_temp_names() {
        let g1 = with_temp("a+b");
        let g2 = with_temp("weird_name");
        assert!(alpha_eq(&g1, &g2));
    }

    #[test]
    fn alpha_eq_distinguishes_real_differences() {
        let g1 = with_temp("a+b");
        let g2 =
            parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e").unwrap();
        assert!(!alpha_eq(&g1, &g2));
    }

    #[test]
    fn non_temp_names_are_preserved() {
        let g =
            parse("start s\nend e\nnode s { hello := a+b }\nnode e { out(hello) }\nedge s -> e")
                .unwrap();
        let text = canonical_text(&g);
        assert!(text.contains("hello := a+b"));
    }

    #[test]
    fn stable_hash_is_alpha_insensitive_and_content_sensitive() {
        let g1 = with_temp("a+b");
        let g2 = with_temp("completely_different_temp_name");
        assert_eq!(stable_hash(&g1), stable_hash(&g2));
        let g3 =
            parse("start s\nend e\nnode s { x := a+c }\nnode e { out(x) }\nedge s -> e").unwrap();
        assert_ne!(stable_hash(&g1), stable_hash(&g3));
        // Pinned value: the hash must never drift across versions or
        // platforms, or cache keys silently change meaning.
        assert_eq!(stable_hash_text(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash_text("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn streamed_hash_equals_text_path_hash() {
        // The one streaming renderer (behind `canonical_text` and
        // `stable_hash`) and the clone-and-print oracle must produce
        // identical bytes — including on programs with temporaries, where
        // the rank substitution does the work the oracle does by
        // rebuilding the pool.
        for g in [
            with_temp("a+b"),
            with_temp("weird_name"),
            parse("start s\nend e\nnode s { skip }\nnode e { out(x) }\nedge s -> e").unwrap(),
            parse("start s\nend e\nnode s { x := -3*a }\nnode e { out(x,-7,0) }\nedge s -> e")
                .unwrap(),
        ] {
            let oracle = to_text(&rename_temps_canonically(&g));
            assert_eq!(canonical_text(&g), oracle);
            assert_eq!(stable_hash(&g), stable_hash_text(&oracle));
        }
    }

    #[test]
    fn numbering_follows_first_occurrence() {
        let mut g = parse(
            "start s\nend e\nnode s { x := a+b; y := c+d }\nnode e { out(x,y) }\nedge s -> e",
        )
        .unwrap();
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let c = g.pool().lookup("c").unwrap();
        let d = g.pool().lookup("d").unwrap();
        // Intern the temporaries in the *opposite* order of use.
        let h_cd = g.temp_for(Term::binary(BinOp::Add, c, d));
        let h_ab = g.temp_for(Term::binary(BinOp::Add, a, b));
        let x = g.pool().lookup("x").unwrap();
        let y = g.pool().lookup("y").unwrap();
        let start = g.start();
        g.set_block(start, Vec::new());
        g.push_instr(start, Instr::assign(h_ab, Term::binary(BinOp::Add, a, b)));
        g.push_instr(start, Instr::assign(x, h_ab));
        g.push_instr(start, Instr::assign(h_cd, Term::binary(BinOp::Add, c, d)));
        g.push_instr(start, Instr::assign(y, h_cd));
        let text = canonical_text(&g);
        // h_ab occurs first, so it becomes h1 regardless of interning order.
        assert!(text.contains("h1 := a+b"), "{text}");
        assert!(text.contains("h2 := c+d"), "{text}");
    }
}

//! Phase 1 — Initialization (Sec. 4.2).
//!
//! Every assignment `x := t` with a non-trivial `t` is replaced by the
//! sequence `h_t := t; x := h_t`, where `h_t` is the unique temporary of
//! term `t`; every non-trivial side ε of a branch condition is pulled out
//! into `h_ε := ε` placed immediately before the branch (Fig. 12 shows the
//! effect on the running example). The transformation is itself an
//! admissible expression motion, and — the paper's key observation — it
//! makes assignment motion subsume expression motion (Lemma 4.1).

use am_ir::{Cond, FlowGraph, Instr, InstrId, Term, Var};

/// Statistics of an initialization run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InitStats {
    /// Assignments that were decomposed into `h_t := t; x := h_t`.
    pub assignments_decomposed: usize,
    /// Condition sides that were pulled out into temporaries.
    pub condition_sides_extracted: usize,
}

/// Applies the initialization phase in place, returning statistics.
///
/// Assignments whose left-hand side already is the temporary of their
/// right-hand side (`h_t := t`) are left alone, which makes the phase
/// idempotent. Trivial right-hand sides (copies, constants) have no
/// associated temporary and are untouched.
///
/// The phase rewrites the graph's interned ids: each distinct instruction
/// is expanded once, at its first occurrence, and each distinct term's
/// temporary is resolved once, by the graph's term id, so
/// [`FlowGraph::temp_for`] interns the temporaries in first-occurrence
/// order, exactly as one call per occurrence would. A block without an
/// expanding instruction is not written.
///
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_core::init::initialize;
///
/// let mut g = parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e")?;
/// let stats = initialize(&mut g);
/// assert_eq!(stats.assignments_decomposed, 1);
/// // x := a+b became h := a+b; x := h.
/// assert_eq!(g.block(g.start()).len(), 2);
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn initialize(g: &mut FlowGraph) -> InitStats {
    let mut stats = InitStats::default();
    // Dense by the input's ids: the range of `expanded` an id expands to
    // (empty: it stays); and by the graph's term ids, a term's temporary.
    let mut ranges: Vec<Option<(usize, usize)>> = vec![None; g.interner().len()];
    let mut temps: Vec<Option<Var>> = Vec::new();
    let (mut expanded, mut block) = (Vec::new(), Vec::new());
    for n in g.nodes() {
        block.clear();
        let mut changed = false;
        for j in 0..g.ids(n).len() {
            let id = g.ids(n)[j];
            let (start, end) = match ranges[id.index()] {
                Some(range) => range,
                None => {
                    let start = expanded.len();
                    expand(g, id, &mut temps, &mut expanded);
                    *ranges[id.index()].insert((start, expanded.len()))
                }
            };
            if start == end {
                block.push(id);
                continue;
            }
            match g.interner().instr(id) {
                Instr::Branch(_) => stats.condition_sides_extracted += end - start - 1,
                _ => stats.assignments_decomposed += 1,
            }
            block.extend_from_slice(&expanded[start..end]);
            changed = true;
        }
        if changed {
            g.set_ids(n, &block);
        }
    }
    stats
}

/// Appends what interned instruction `id` of `g` expands to onto
/// `expanded`: `h_t := t; x := h_t` for `x := t`, and for a branch the
/// initializations of its non-trivial sides and the branch on their
/// temporaries. Appends nothing when the instruction stays.
fn expand(
    g: &mut FlowGraph,
    id: InstrId,
    temps: &mut Vec<Option<Var>>,
    expanded: &mut Vec<InstrId>,
) {
    let mut temp = |g: &mut FlowGraph, t: Term| -> Var {
        let term = g.intern_term(t).index();
        if term >= temps.len() {
            temps.resize(term + 1, None);
        }
        *temps[term].get_or_insert_with(|| g.temp_for(t))
    };
    match *g.interner().instr(id) {
        Instr::Assign { lhs, rhs } if rhs.is_nontrivial() => {
            let h = temp(g, rhs);
            if h != lhs {
                expanded.push(g.intern(Instr::Assign { lhs: h, rhs }));
                expanded.push(g.intern(Instr::assign(lhs, h)));
            }
        }
        Instr::Branch(c) if c.lhs.is_nontrivial() || c.rhs.is_nontrivial() => {
            let mut side = |g: &mut FlowGraph, t: Term| -> Term {
                if !t.is_nontrivial() {
                    return t;
                }
                let h = temp(g, t);
                expanded.push(g.intern(Instr::Assign { lhs: h, rhs: t }));
                Term::from(h)
            };
            let (lhs, rhs) = (side(g, c.lhs), side(g, c.rhs));
            expanded.push(g.intern(Instr::Branch(Cond { op: c.op, lhs, rhs })));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::random::{structured, unstructured, StructuredConfig, UnstructuredConfig};
    use am_ir::rng::SplitMix64;
    use am_ir::text::{parse, to_text};
    use am_ir::{interp, BinOp};

    const RUNNING_EXAMPLE: &str = "
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
    fn decomposes_running_example_like_fig12() {
        let mut g = parse(RUNNING_EXAMPLE).unwrap();
        let stats = initialize(&mut g);
        // 6 non-trivial assignments (y:=c+d twice, x:=y+z twice, i:=i+x,
        // x:=c+d) and 2 condition sides.
        assert_eq!(stats.assignments_decomposed, 6);
        assert_eq!(stats.condition_sides_extracted, 2);
        let canon = am_ir::alpha::canonical_text(&g);
        // Node 1 (Fig. 12): h1 := c+d; y := h1.
        assert!(canon.contains("h1 := c+d\n  y := h1"), "{canon}");
        // Node 2 (Fig. 12): h2 := x+z; h3 := y+i; branch h2 > h3.
        assert!(
            canon.contains("h2 := x+z\n  h3 := y+i\n  branch h2 > h3"),
            "{canon}"
        );
        // Node 3 (Fig. 12): h1 := c+d; y := h1; h4 := y+z; x := h4; h5 := i+x; i := h5.
        assert!(
            canon.contains("h1 := c+d\n  y := h1\n  h4 := y+z\n  x := h4\n  h5 := i+x\n  i := h5"),
            "{canon}"
        );
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn preserves_semantics() {
        let mut g = parse(RUNNING_EXAMPLE).unwrap();
        let orig = g.clone();
        initialize(&mut g);
        for seed in 0..10 {
            let cfg = interp::Config {
                oracle: interp::Oracle::random(seed, 8),
                inputs: vec![
                    ("c".into(), 3),
                    ("d".into(), seed as i64),
                    ("x".into(), -2),
                    ("z".into(), 5),
                    ("i".into(), 1),
                ],
                ..interp::Config::default()
            };
            let a = interp::run(&orig, &cfg);
            let b = interp::run(&g, &cfg);
            assert_eq!(a.observable(), b.observable(), "seed {seed}");
            // Same expression evaluations: initialization adds only
            // temporary copies.
            assert_eq!(a.expr_evals, b.expr_evals, "seed {seed}");
        }
    }

    #[test]
    fn is_idempotent() {
        let mut g = parse(RUNNING_EXAMPLE).unwrap();
        initialize(&mut g);
        let once = to_text(&g);
        let stats = initialize(&mut g);
        assert_eq!(stats, InitStats::default());
        let twice = to_text(&g);
        assert_eq!(once, twice);
    }

    #[test]
    fn trivial_assignments_untouched() {
        let mut g =
            parse("start s\nend e\nnode s { x := y; z := 5 }\nnode e { out(x,z) }\nedge s -> e")
                .unwrap();
        let before = to_text(&g);
        let stats = initialize(&mut g);
        assert_eq!(stats, InitStats::default());
        assert_eq!(to_text(&g), before);
    }

    #[test]
    fn temporaries_are_shared_per_term() {
        let mut g = parse(
            "start s\nend e\nnode s { x := a+b; y := a+b }\nnode e { out(x,y) }\nedge s -> e",
        )
        .unwrap();
        initialize(&mut g);
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let h = g.temp_for(Term::binary(BinOp::Add, a, b));
        let instrs: Vec<Instr> = g.instrs(g.start()).cloned().collect();
        assert_eq!(instrs.len(), 4);
        assert_eq!(
            instrs[0],
            Instr::Assign {
                lhs: h,
                rhs: Term::binary(BinOp::Add, a, b)
            }
        );
        assert_eq!(
            instrs[2],
            Instr::Assign {
                lhs: h,
                rhs: Term::binary(BinOp::Add, a, b)
            }
        );
    }

    /// The initialization loop as it reads in Sec. 4.2: `temp_for` at
    /// every occurrence, no per-term resolution.
    fn reference_initialize(g: &mut FlowGraph) -> InitStats {
        let mut stats = InitStats::default();
        for n in g.nodes().collect::<Vec<_>>() {
            let old = g.take_block(n);
            let mut new = Vec::new();
            for instr in old {
                match instr {
                    Instr::Assign { lhs, rhs } if rhs.is_nontrivial() => {
                        let h = g.temp_for(rhs);
                        if h == lhs {
                            new.push(Instr::Assign { lhs, rhs });
                        } else {
                            stats.assignments_decomposed += 1;
                            new.push(Instr::Assign { lhs: h, rhs });
                            new.push(Instr::assign(lhs, h));
                        }
                    }
                    Instr::Branch(c) => {
                        let mut side = |t: Term| {
                            if !t.is_nontrivial() {
                                return t;
                            }
                            stats.condition_sides_extracted += 1;
                            let h = g.temp_for(t);
                            new.push(Instr::Assign { lhs: h, rhs: t });
                            Term::from(h)
                        };
                        let (lhs, rhs) = (side(c.lhs), side(c.rhs));
                        new.push(Instr::Branch(Cond { op: c.op, lhs, rhs }));
                    }
                    other => new.push(other),
                }
            }
            g.set_block(n, new);
        }
        stats
    }

    #[test]
    fn per_term_resolution_leaves_the_pool_unchanged() {
        let mut programs = vec![parse(RUNNING_EXAMPLE).unwrap()];
        for seed in 0..25u64 {
            let mut rng = SplitMix64::new(seed);
            programs.push(structured(&mut rng, &StructuredConfig::default()));
            let mut rng = SplitMix64::new(seed + 100);
            programs.push(unstructured(&mut rng, &UnstructuredConfig::default()));
        }
        assert_eq!(programs.len(), 51);
        for (i, g) in programs.into_iter().enumerate() {
            let (mut fast, mut slow) = (g.clone(), g);
            assert_eq!(
                initialize(&mut fast),
                reference_initialize(&mut slow),
                "program {i}: stats"
            );
            let names = |g: &FlowGraph| -> Vec<(String, bool)> {
                let pool = g.pool();
                pool.iter()
                    .map(|v| (pool.name(v).to_owned(), pool.is_temp(v)))
                    .collect()
            };
            assert_eq!(names(&fast), names(&slow), "program {i}: pool");
            assert_eq!(to_text(&fast), to_text(&slow), "program {i}: program");
        }
    }
}

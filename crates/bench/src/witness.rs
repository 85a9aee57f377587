//! Machinery for finding Fig. 16/17-style *incomparability witnesses*:
//! pairs of expression-optimal programs in the universe `G` whose
//! assignment-execution profiles are incomparable (each strictly better on
//! some run). Within a fixed initialization, assignment motion is
//! confluent, so the search varies the *expression motion* choice — which
//! decomposable occurrences get a temporary — and optionally applies the
//! flush.

use am_core::flush::final_flush;
use am_core::motion::assignment_motion;
use am_ir::interp::{run, Config, Oracle, StopReason};
use am_ir::{Cond, FlowGraph, Instr, Loc, Term};

/// Per-oracle `(expression evaluations, assignment executions)` profile;
/// `None` when some run did not complete (profiles must be comparable).
pub fn profile(g: &FlowGraph, oracles: usize) -> Option<Vec<(u64, u64)>> {
    let mut out = Vec::new();
    for seed in 0..oracles as u64 {
        let cfg = Config {
            oracle: Oracle::random(seed * 37 + 5, 10),
            inputs: vec![
                ("v0".into(), 2),
                ("v1".into(), -3),
                ("v2".into(), 5),
                ("v3".into(), 1),
            ],
            ..Config::default()
        };
        let r = run(g, &cfg);
        if r.stop != StopReason::ReachedEnd {
            return None;
        }
        out.push((r.expr_evals, r.assign_execs));
    }
    Some(out)
}

/// The decomposable sites of `g`: assignment occurrences with non-trivial
/// right-hand sides and branch conditions with non-trivial sides.
pub fn decomposable_sites(g: &FlowGraph) -> Vec<Loc> {
    g.locs()
        .filter(|(_, instr)| match instr {
            Instr::Assign { rhs, .. } => rhs.is_nontrivial(),
            Instr::Branch(c) => c.lhs.is_nontrivial() || c.rhs.is_nontrivial(),
            _ => false,
        })
        .map(|(loc, _)| loc)
        .collect()
}

/// Initializes exactly the decomposable sites selected by `mask` — one
/// particular expression motion choice.
pub fn initialize_subset(g: &FlowGraph, mask: u32) -> FlowGraph {
    let mut out = g.clone();
    let sites = decomposable_sites(g);
    for n in g.nodes() {
        let mut fresh = Vec::new();
        for (idx, instr) in g.instrs(n).enumerate() {
            let loc = Loc {
                node: n,
                index: idx,
            };
            let site = sites.iter().position(|&s| s == loc);
            let selected = site.map(|i| mask & (1 << i) != 0).unwrap_or(false);
            match instr {
                Instr::Assign { lhs, rhs } if selected => {
                    let h = out.temp_for(*rhs);
                    fresh.push(Instr::Assign { lhs: h, rhs: *rhs });
                    fresh.push(Instr::assign(*lhs, h));
                }
                Instr::Branch(c) if selected => {
                    let mut side = |t: Term, fresh: &mut Vec<Instr>| {
                        if t.is_nontrivial() {
                            let h = out.temp_for(t);
                            fresh.push(Instr::Assign { lhs: h, rhs: t });
                            Term::from(h)
                        } else {
                            t
                        }
                    };
                    let lhs = side(c.lhs, &mut fresh);
                    let rhs = side(c.rhs, &mut fresh);
                    fresh.push(Instr::Branch(Cond { op: c.op, lhs, rhs }));
                }
                other => fresh.push(other.clone()),
            }
        }
        out.set_block(n, fresh);
    }
    out
}

/// A found witness: two programs of `G` with equal (minimal) expression
/// profiles but incomparable assignment profiles.
pub struct Witness {
    /// First variant and its profile.
    pub a: (FlowGraph, Vec<(u64, u64)>),
    /// Second variant and its profile.
    pub b: (FlowGraph, Vec<(u64, u64)>),
}

/// Enumerates every initialization subset of `original` (after edge
/// splitting), runs the motion fixpoint (and optionally the flush), keeps
/// the expression-minimal variants, and returns the first
/// assignment-incomparable pair, if any.
pub fn find_witness(original: &FlowGraph, oracles: usize) -> Option<Witness> {
    let mut base = original.clone();
    base.split_critical_edges();
    let sites = decomposable_sites(&base).len();
    if !(1..=8).contains(&sites) {
        return None;
    }
    let mut variants: Vec<(FlowGraph, Vec<(u64, u64)>)> = Vec::new();
    for mask in 0..(1u32 << sites) {
        let mut v = initialize_subset(&base, mask);
        assignment_motion(&mut v);
        for flushed in [false, true] {
            let mut w = v.clone();
            if flushed {
                final_flush(&mut w);
            }
            if let Some(p) = profile(&w, oracles) {
                variants.push((w, p));
            }
        }
    }
    if variants.len() < 2 {
        return None;
    }
    let min_evals: Vec<u64> = (0..oracles)
        .map(|i| variants.iter().map(|(_, p)| p[i].0).min().unwrap())
        .collect();
    let optimal: Vec<&(FlowGraph, Vec<(u64, u64)>)> = variants
        .iter()
        .filter(|(_, p)| (0..oracles).all(|i| p[i].0 == min_evals[i]))
        .collect();
    for (ai, a) in optimal.iter().enumerate() {
        for b in optimal.iter().skip(ai + 1) {
            let a_better = (0..oracles).any(|i| a.1[i].1 < b.1[i].1);
            let b_better = (0..oracles).any(|i| b.1[i].1 < a.1[i].1);
            if a_better && b_better {
                return Some(Witness {
                    a: (a.0.clone(), a.1.clone()),
                    b: (b.0.clone(), b.1.clone()),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::random::SplitMix64;
    use am_ir::random::{structured, StructuredConfig};

    /// The mechanically found Fig. 16/17 witness: two expression-optimal
    /// members of `G` that are incomparable in assignment executions —
    /// full assignment optimality is unattainable, exactly the theorem the
    /// paper's Fig. 16/17 demonstrates.
    #[test]
    fn incomparable_expression_optimal_pair_exists() {
        let mut rng = SplitMix64::new(10);
        let original = structured(
            &mut rng,
            &StructuredConfig {
                max_depth: 2,
                max_stmts: 3,
                num_vars: 4,
                allow_div: false,
            },
        );
        let witness = find_witness(&original, 8).expect("seed 10 yields a witness");
        // Equal expression profiles…
        for (pa, pb) in witness.a.1.iter().zip(&witness.b.1) {
            assert_eq!(pa.0, pb.0, "expression-optimal on every run");
        }
        // …incomparable assignment profiles.
        assert!(witness.a.1.iter().zip(&witness.b.1).any(|(a, b)| a.1 < b.1));
        assert!(witness.a.1.iter().zip(&witness.b.1).any(|(a, b)| b.1 < a.1));
        // Both semantically equal to the original.
        for g in [&witness.a.0, &witness.b.0] {
            for seed in 0..6 {
                let cfg = am_ir::interp::Config {
                    oracle: am_ir::interp::Oracle::random(seed, 10),
                    inputs: vec![("v0".into(), 2), ("v1".into(), -3), ("v2".into(), 5)],
                    ..Default::default()
                };
                assert_eq!(
                    am_ir::interp::run(&original, &cfg).observable(),
                    am_ir::interp::run(g, &cfg).observable()
                );
            }
        }
    }
}

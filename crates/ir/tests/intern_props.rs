//! Property tests for the interning arena (`am_ir::intern`) and the flow
//! graph's blocks of interned ids.
//!
//! The arena's contract is that interning is a *pure function of structure*:
//! two terms receive the same `TermId` exactly when they are structurally
//! equal, cached hashes never drift from freshly computed ones, and ids are
//! insensitive to how often (and in what order) already-known terms are
//! re-presented. The graph's contract is that its named writes behave as
//! the same writes on a `Vec<Instr>` per block, intern what they write, and
//! stamp exactly the block they write. All randomness is driven by the
//! in-tree `SplitMix64` so every run is reproducible from the printed seed.

use am_ir::intern::{instr_hash, term_hash};
use am_ir::rng::SplitMix64;
use am_ir::{
    BinOp, Cond, FlowGraph, Instr, InstrInterner, Loc, NodeId, Operand, Term, TermArena, Var,
    VarPool,
};

const OPS: [BinOp; 11] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::EqOp,
    BinOp::Ne,
];

fn make_vars(pool: &mut VarPool, n: usize) -> Vec<Var> {
    (0..n).map(|i| pool.intern(&format!("v{i}"))).collect()
}

fn random_operand(rng: &mut SplitMix64, vars: &[Var]) -> Operand {
    if rng.gen_bool(0.6) {
        Operand::Var(*rng.choose(vars))
    } else {
        Operand::Const(rng.gen_range(-8i64..=8))
    }
}

/// A random 3-address term. Roughly a quarter are trivial operands so the
/// trivial/non-trivial boundary of the pattern table is exercised too.
fn random_term(rng: &mut SplitMix64, vars: &[Var]) -> Term {
    if rng.gen_bool(0.25) {
        Term::operand(random_operand(rng, vars))
    } else {
        let op = *rng.choose(&OPS);
        Term::binary(op, random_operand(rng, vars), random_operand(rng, vars))
    }
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `intern(t) == intern(u)` exactly when `t == u` structurally.
#[test]
fn intern_equality_coincides_with_structural_equality() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(0xA11C_E500 + seed);
        let mut pool = VarPool::new();
        let vars = make_vars(&mut pool, 5);
        let mut arena = TermArena::new();
        let terms: Vec<Term> = (0..64).map(|_| random_term(&mut rng, &vars)).collect();
        let ids: Vec<_> = terms.iter().map(|&t| arena.intern(t)).collect();
        for (i, &t) in terms.iter().enumerate() {
            for (j, &u) in terms.iter().enumerate() {
                assert_eq!(
                    ids[i] == ids[j],
                    t == u,
                    "seed {seed}: id equality disagrees with structural equality \
                     for {t:?} vs {u:?}"
                );
            }
        }
        arena.verify().expect("arena invariants");
    }
}

/// The hash cached at intern time equals a fresh structural recomputation.
#[test]
fn cached_hash_never_drifts_from_fresh_hash() {
    let mut rng = SplitMix64::new(0xCAC4E);
    let mut pool = VarPool::new();
    let vars = make_vars(&mut pool, 6);
    let mut arena = TermArena::new();
    let mut seen = Vec::new();
    for _ in 0..512 {
        let t = random_term(&mut rng, &vars);
        let id = arena.intern(t);
        seen.push(t);
        assert_eq!(
            arena.hash(id),
            term_hash(t),
            "cached hash diverged from term_hash for {t:?}"
        );
    }
    // Re-check every term after the arena stopped growing: the cache must be
    // write-once, never invalidated by later growth.
    for &t in &seen {
        let id = arena.lookup(&t).expect("previously interned");
        assert_eq!(arena.hash(id), term_hash(t));
        assert_eq!(arena.term(id), t);
    }
}

/// Ids are stable under re-interning in any order: once a term is known,
/// every later `intern` returns the original id and the arena stops growing.
#[test]
fn ids_stable_under_reintern_order_permutations() {
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(0x5EED_0000 + seed);
        let mut pool = VarPool::new();
        let vars = make_vars(&mut pool, 4);
        let mut arena = TermArena::new();
        let terms: Vec<Term> = (0..48).map(|_| random_term(&mut rng, &vars)).collect();
        let first: Vec<_> = terms.iter().map(|&t| arena.intern(t)).collect();
        let len = arena.len();
        let pattern_count = arena.pattern_count();
        // Re-present the same terms in several shuffled orders.
        let mut order: Vec<usize> = (0..terms.len()).collect();
        for _ in 0..4 {
            shuffle(&mut rng, &mut order);
            for &i in &order {
                assert_eq!(
                    arena.intern(terms[i]),
                    first[i],
                    "seed {seed}: re-intern changed the id of {:?}",
                    terms[i]
                );
            }
            assert_eq!(arena.len(), len, "re-interning grew the arena");
            assert_eq!(arena.pattern_count(), pattern_count);
        }
        arena.verify().expect("arena invariants");
    }
}

/// Pattern ids are dense over distinct non-trivial terms in first-occurrence
/// order, and trivial terms never get one.
#[test]
fn pattern_ids_are_dense_and_ordered_by_first_occurrence() {
    let mut rng = SplitMix64::new(0xDE5E);
    let mut pool = VarPool::new();
    let vars = make_vars(&mut pool, 5);
    let mut arena = TermArena::new();
    let mut expected = Vec::new();
    for _ in 0..256 {
        let t = random_term(&mut rng, &vars);
        let known = arena.lookup(&t).is_some();
        let id = arena.intern(t);
        if t.is_nontrivial() && !known {
            expected.push(t);
            assert_eq!(
                arena.pattern_of(id).map(|p| p.index()),
                Some(expected.len() - 1),
                "fresh non-trivial term must take the next dense pattern id"
            );
        }
        if !t.is_nontrivial() {
            assert!(
                arena.pattern_of(id).is_none(),
                "trivial term got a pattern id"
            );
        }
    }
    assert_eq!(arena.pattern_count(), expected.len());
    for (i, &t) in expected.iter().enumerate() {
        assert_eq!(
            arena.pattern_term(am_ir::PatternId::from_index(i)),
            t,
            "pattern table order must be first-occurrence order"
        );
    }
}

fn random_instr(rng: &mut SplitMix64, vars: &[Var]) -> Instr {
    match rng.gen_range(0..4usize) {
        0 => Instr::Skip,
        1 => Instr::Assign {
            lhs: *rng.choose(vars),
            rhs: random_term(rng, vars),
        },
        2 => {
            let n = rng.gen_range(0..3usize);
            Instr::Out((0..n).map(|_| random_operand(rng, vars)).collect())
        }
        _ => Instr::Branch(Cond::new(
            *rng.choose(&OPS),
            random_term(rng, vars),
            random_term(rng, vars),
        )),
    }
}

/// The instruction interner dedups structurally equal instructions and its
/// ids are stable under re-interning, mirroring the term-level properties.
#[test]
fn instr_interner_properties() {
    let mut rng = SplitMix64::new(0x1257);
    let mut pool = VarPool::new();
    let vars = make_vars(&mut pool, 5);
    let mut interner = InstrInterner::new();
    let instrs: Vec<Instr> = (0..128).map(|_| random_instr(&mut rng, &vars)).collect();
    let first: Vec<_> = instrs.iter().map(|i| interner.intern(i).0).collect();
    let len = interner.len();
    for (k, instr) in instrs.iter().enumerate() {
        let (id, fresh) = interner.intern(instr);
        assert_eq!(id, first[k], "re-intern changed an instruction id");
        assert!(!fresh, "re-intern reported a known instruction as new");
    }
    assert_eq!(interner.len(), len);
    for (i, a) in instrs.iter().enumerate() {
        for (j, b) in instrs.iter().enumerate() {
            assert_eq!(
                first[i] == first[j],
                a == b,
                "instr id equality disagrees with structural equality"
            );
            if a == b {
                assert_eq!(interner.hash(first[i]), interner.hash(first[j]));
            }
        }
    }
}

fn stamps(g: &FlowGraph) -> Vec<u64> {
    g.nodes().map(|n| g.block(n).stamp()).collect()
}

/// Checks `g` against the model after a write to block `written`: the
/// contents, the id-equality and cached-hash invariants of the interner,
/// and that exactly the written block's stamp moved since `before`.
fn check_graph(g: &FlowGraph, model: &[Vec<Instr>], written: NodeId, before: &[u64], at: &str) {
    let mut seen: Vec<(am_ir::InstrId, &Instr)> = Vec::new();
    for n in g.nodes() {
        let ni = n.index();
        assert!(g.instrs(n).eq(&model[ni]), "{at}: contents of {n:?}");
        assert_eq!(g.block(n).len(), model[ni].len(), "{at}: length of {n:?}");
        let stamp = g.block(n).stamp();
        if n == written {
            assert!(stamp > before[ni], "{at}: {n:?} kept its stamp");
            assert_eq!(stamp, g.last_stamp(), "{at}: {n:?} was written last");
        } else {
            assert_eq!(stamp, before[ni], "{at}: {n:?} was not written");
        }
        for (j, &id) in g.ids(n).iter().enumerate() {
            let instr = g.interner().instr(id);
            assert_eq!(g.instr(Loc { node: n, index: j }), instr, "{at}");
            assert_eq!(g.interner().hash(id), instr_hash(instr), "{at}: stale hash");
            seen.push((id, instr));
        }
    }
    for &(a, x) in &seen {
        for &(b, y) in &seen {
            assert_eq!(a == b, x == y, "{at}: ids {a:?}, {b:?} for {x:?}, {y:?}");
        }
    }
}

/// Seeded sequences of the graph's named writes, applied to a graph and
/// to a `Vec<Vec<Instr>>` model, agree after every write.
#[test]
fn graph_writes_match_a_vec_per_block() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(0x61_0C5 + seed);
        let mut g = FlowGraph::new();
        let vars = make_vars(g.pool_mut(), 3);
        // A small stock of instructions, so that contents repeat often.
        let stock: Vec<Instr> = (0..10).map(|_| random_instr(&mut rng, &vars)).collect();
        let nodes: Vec<NodeId> = (0..4).map(|i| g.add_node(&format!("b{i}"))).collect();
        let mut model: Vec<Vec<Instr>> = vec![Vec::new(); nodes.len()];
        for step in 0..400 {
            let b = rng.gen_range(0..nodes.len());
            let (n, len) = (nodes[b], model[b].len());
            let instr = rng.choose(&stock).clone();
            let before = stamps(&g);
            let at = format!("seed {seed} step {step}");
            // A remove or replace drawn on an empty block sets it instead.
            match rng.gen_range(0..7usize) {
                0 => {
                    g.push_instr(n, instr.clone());
                    model[b].push(instr);
                }
                1 => {
                    let index = rng.gen_range(0..=len);
                    g.insert_instr(Loc { node: n, index }, instr.clone());
                    model[b].insert(index, instr);
                }
                2 if len > 0 => {
                    let index = rng.gen_range(0..len);
                    let removed = g.remove_instr(Loc { node: n, index });
                    assert_eq!(removed, model[b].remove(index), "{at}");
                }
                3 if len > 0 => {
                    let index = rng.gen_range(0..len);
                    let old = g.replace_instr(Loc { node: n, index }, instr.clone());
                    assert_eq!(old, std::mem::replace(&mut model[b][index], instr), "{at}");
                }
                4 => {
                    let drop = rng.choose(&stock).clone();
                    g.retain_instrs(n, |i| *i != drop);
                    model[b].retain(|i| *i != drop);
                }
                5 => {
                    assert_eq!(g.take_block(n), std::mem::take(&mut model[b]), "{at}");
                }
                _ => {
                    let body: Vec<Instr> = (0..rng.gen_range(0..6usize))
                        .map(|_| rng.choose(&stock).clone())
                        .collect();
                    g.set_block(n, body.clone());
                    model[b] = body;
                }
            }
            check_graph(&g, &model, n, &before, &at);
        }
        assert!(
            g.interner().len() <= stock.len(),
            "seed {seed}: one id per content"
        );
    }
}

/// Two clones of one graph that intern different instructions in
/// different orders hand out the same ids for different contents and
/// different ids for the same content; equality compares contents.
#[test]
fn diverged_clones_compare_by_content() {
    let mut g = FlowGraph::new();
    let x = g.pool_mut().intern("x");
    let n = g.add_node("n");
    g.push_instr(n, Instr::Skip);
    let (p, q, r) = (
        Instr::assign(x, 1),
        Instr::assign(x, 2),
        Instr::assign(x, 3),
    );
    let (mut a, mut b, mut c) = (g.clone(), g.clone(), g.clone());
    a.push_instr(n, p.clone());
    b.push_instr(n, q);
    assert_eq!(a.ids(n), b.ids(n), "the same ids");
    assert_ne!(a, b, "for different contents");
    // `a` interns `r` after `p`, `c` first.
    a.set_block(n, vec![Instr::Skip, r.clone()]);
    c.push_instr(n, r);
    assert_ne!(a.ids(n), c.ids(n), "different ids");
    assert_eq!(a, c, "for the same contents");
    a.push_instr(n, p);
    assert_ne!(a, c);
}

//! The flow graph's slab storage against a plain reference model.
//!
//! `FlowGraph` keeps its blocks' ids, its successors and its predecessors
//! in flat slabs whose rows move when they outgrow their room, and its
//! labels in one string. This suite drives seeded random sequences of
//! every graph write on a `FlowGraph` and on a model that keeps one
//! `Vec` per node, and after every step requires the two to agree on
//! every per-node read, on equality and `Debug` (against a graph built
//! afresh from the model, whose slabs hold no holes), and on the write
//! stamp rules: a block write moves exactly that block's stamp, an edge
//! or node-set write moves the edge stamp, and neither a read, a clone
//! nor a row moving in its slab moves any stamp.

use am_ir::rng::SplitMix64;
use am_ir::{FlowGraph, Instr, InstrId, Loc, NodeId, Var};

/// The reference: one `Vec` per node for everything.
#[derive(Clone, Debug)]
struct Model {
    blocks: Vec<Vec<Instr>>,
    labels: Vec<String>,
    synthetic: Vec<bool>,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    start: usize,
    end: usize,
}

impl Model {
    fn add_node(&mut self, label: String, synthetic: bool) -> usize {
        self.blocks.push(Vec::new());
        self.labels.push(label);
        self.synthetic.push(synthetic);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.blocks.len() - 1
    }

    fn add_edge(&mut self, m: usize, n: usize) {
        self.succs[m].push(n);
        self.preds[n].push(m);
    }

    fn remove_edge(&mut self, m: usize, n: usize) -> bool {
        let Some(si) = self.succs[m].iter().position(|&t| t == n) else {
            return false;
        };
        self.succs[m].remove(si);
        let pi = self.preds[n].iter().position(|&p| p == m).unwrap();
        self.preds[n].remove(pi);
        true
    }

    fn critical(&self, m: usize, n: usize) -> bool {
        self.succs[m].len() > 1 && self.preds[n].len() > 1
    }

    /// Fig. 10, as `FlowGraph::split_critical_edges` documents it.
    fn split_critical_edges(&mut self) -> usize {
        let mut split = 0;
        for m in 0..self.blocks.len() {
            for si in 0..self.succs[m].len() {
                let n = self.succs[m][si];
                if self.critical(m, n) {
                    let label = format!("S{},{}", self.labels[m], self.labels[n]);
                    let synth = self.add_node(label, true);
                    self.succs[m][si] = synth;
                    let slot = self.preds[n].iter().position(|&p| p == m).unwrap();
                    self.preds[n][slot] = synth;
                    self.succs[synth].push(n);
                    self.preds[synth].push(m);
                    split += 1;
                }
            }
        }
        split
    }

    /// The nodes satisfying `keep`, renumbered in order, with every edge
    /// re-added from the kept nodes' successor lists.
    fn compacted(&self, keep: impl Fn(usize) -> bool) -> Model {
        let mut out = Model {
            blocks: Vec::new(),
            labels: Vec::new(),
            synthetic: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            start: 0,
            end: 0,
        };
        let mut map = vec![None; self.blocks.len()];
        for n in (0..self.blocks.len()).filter(|&n| keep(n)) {
            let id = out.add_node(self.labels[n].clone(), self.synthetic[n]);
            out.blocks[id] = self.blocks[n].clone();
            map[n] = Some(id);
        }
        for n in (0..self.blocks.len()).filter(|&n| keep(n)) {
            for &m in &self.succs[n] {
                out.add_edge(map[n].unwrap(), map[m].unwrap());
            }
        }
        out.start = map[self.start].unwrap();
        out.end = map[self.end].unwrap();
        out
    }

    fn without_node(&self, n: usize, bridge: bool) -> Option<Model> {
        if n == self.start || n == self.end {
            return None;
        }
        let mut g = self.clone();
        let preds: Vec<usize> = g.preds[n].iter().copied().filter(|&p| p != n).collect();
        let succs: Vec<usize> = g.succs[n].iter().copied().filter(|&s| s != n).collect();
        while let Some(&p) = g.preds[n].first() {
            g.remove_edge(p, n);
        }
        while let Some(&s) = g.succs[n].first() {
            g.remove_edge(n, s);
        }
        if bridge {
            for &p in &preds {
                for &s in &succs {
                    if !g.succs[p].contains(&s) {
                        g.add_edge(p, s);
                    }
                }
            }
        }
        Some(g.compacted(|m| m != n))
    }

    fn simplified(&self) -> Model {
        let mut g = self.clone();
        loop {
            let candidate = (0..g.blocks.len()).find(|&n| {
                g.synthetic[n]
                    && g.blocks[n].is_empty()
                    && g.preds[n].len() == 1
                    && g.succs[n].len() == 1
                    && {
                        let (p, s) = (g.preds[n][0], g.succs[n][0]);
                        p != n
                            && s != n
                            && !g.succs[p].contains(&s)
                            && !(g.succs[p].len() > 1 && g.preds[s].len() > 1)
                    }
            });
            let Some(n) = candidate else { break };
            let (p, s) = (g.preds[n][0], g.succs[n][0]);
            let slot = g.succs[p].iter().position(|&m| m == n).unwrap();
            g.succs[p][slot] = s;
            let pslot = g.preds[s].iter().position(|&m| m == n).unwrap();
            g.preds[s][pslot] = p;
            g.succs[n].clear();
            g.preds[n].clear();
        }
        let keep = |n: usize| {
            n == g.start || n == g.end || !g.preds[n].is_empty() || !g.succs[n].is_empty()
        };
        g.compacted(keep)
    }
}

fn node(g: &FlowGraph, i: usize) -> NodeId {
    g.nodes().nth(i).expect("node in range")
}

/// A graph built afresh from `model`, which must have no synthetic node
/// (only splitting makes one): nodes first, then edges, each row written
/// in one go, so its slabs hold no holes and no moved rows. The edges are
/// replayed in an order that keeps every successor and predecessor list
/// in the model's order; the order they were added in is one, so taking
/// any edge that is next in both its lists always finds one.
fn rebuild(model: &Model, pool_from: &FlowGraph) -> FlowGraph {
    let mut g = FlowGraph::new();
    *g.pool_mut() = pool_from.pool().clone();
    for n in 0..model.blocks.len() {
        assert!(!model.synthetic[n]);
        let id = g.add_node(&model.labels[n]);
        g.set_block(id, model.blocks[n].clone());
    }
    let nodes = model.blocks.len();
    let (mut next_succ, mut next_pred) = (vec![0; nodes], vec![0; nodes]);
    let mut left: usize = model.succs.iter().map(Vec::len).sum();
    while left > 0 {
        let before = left;
        for (m, next) in next_succ.iter_mut().enumerate() {
            while let Some(&n) = model.succs[m].get(*next) {
                if model.preds[n].get(next_pred[n]) != Some(&m) {
                    break;
                }
                g.add_edge(node(&g, m), node(&g, n));
                *next += 1;
                next_pred[n] += 1;
                left -= 1;
            }
        }
        assert!(left < before, "edge lists admit no common order");
    }
    g.set_start(node(&g, model.start));
    g.set_end(node(&g, model.end));
    g
}

/// A copy of `g` whose rows have moved within their slabs: each block
/// grows past its room and shrinks back, and each node gains and loses
/// edges. The content is `g`'s; the layout is not.
fn shuffled(g: &FlowGraph) -> FlowGraph {
    let mut copy = g.clone();
    let nodes: Vec<NodeId> = copy.nodes().collect();
    for &n in nodes.iter().rev() {
        let ids = copy.ids(n).to_vec();
        let grown: Vec<InstrId> = ids.iter().chain(&ids).chain(&ids).copied().collect();
        copy.set_ids(n, &grown);
        copy.set_ids(n, &ids);
        // An edge that is not there yet: removing it again then removes
        // that one, not an older duplicate.
        for m in [nodes[0], nodes[nodes.len() - 1]] {
            if !copy.succs(n).contains(&m) {
                copy.add_edge(n, m);
                copy.remove_edge(n, m);
            }
        }
    }
    copy
}

/// Requires `g` to hold exactly what `model` holds.
fn check(g: &FlowGraph, model: &Model, step: &str) {
    assert_eq!(g.node_count(), model.blocks.len(), "{step}: node count");
    for i in 0..model.blocks.len() {
        let n = node(g, i);
        let succs: Vec<usize> = g.succs(n).iter().map(|m| m.index()).collect();
        let preds: Vec<usize> = g.preds(n).iter().map(|m| m.index()).collect();
        assert_eq!(succs, model.succs[i], "{step}: succs of {i}");
        assert_eq!(preds, model.preds[i], "{step}: preds of {i}");
        let instrs: Vec<&Instr> = g.instrs(n).collect();
        assert_eq!(instrs.len(), g.ids(n).len(), "{step}: ids of {i}");
        assert_eq!(
            g.block(n).len(),
            model.blocks[i].len(),
            "{step}: len of {i}"
        );
        assert_eq!(g.block(n).is_empty(), model.blocks[i].is_empty());
        assert!(
            instrs.iter().copied().eq(&model.blocks[i]),
            "{step}: block {i}"
        );
        assert_eq!(g.label(n), model.labels[i], "{step}: label of {i}");
        assert_eq!(
            g.is_synthetic(n),
            model.synthetic[i],
            "{step}: synthetic {i}"
        );
    }
    assert_eq!(g.start().index(), model.start, "{step}: start");
    assert_eq!(g.end().index(), model.end, "{step}: end");
    assert_eq!(
        g.instr_count(),
        model.blocks.iter().map(Vec::len).sum::<usize>()
    );
}

/// Every block's stamp, the edge stamp and the last stamp.
fn stamps(g: &FlowGraph) -> (Vec<u64>, u64, u64) {
    let blocks = g.nodes().map(|n| g.block(n).stamp()).collect();
    (blocks, g.edge_stamp(), g.last_stamp())
}

/// What a step wrote.
enum Wrote {
    Block(usize),
    Edges,
    Nothing,
    /// A new graph (`without_node`, `simplified`): stamps start afresh.
    Fresh,
}

fn check_stamps(before: &(Vec<u64>, u64, u64), g: &FlowGraph, wrote: Wrote, step: &str) {
    let after = stamps(g);
    match wrote {
        Wrote::Block(b) => {
            assert!(after.2 > before.2, "{step}: last stamp");
            assert_eq!(
                after.0[b], after.2,
                "{step}: the written block has the last stamp"
            );
            for (i, (&old, &new)) in before.0.iter().zip(&after.0).enumerate() {
                if i != b {
                    assert_eq!(old, new, "{step}: block {i} was not written");
                }
            }
            assert_eq!(after.1, before.1, "{step}: edge stamp");
        }
        Wrote::Edges => {
            assert!(after.1 > before.1, "{step}: edge stamp");
            assert!(after.2 >= after.1, "{step}: last stamp");
            assert_eq!(
                after.0[..before.0.len()],
                before.0[..],
                "{step}: block stamps"
            );
            for &new in &after.0[before.0.len()..] {
                assert!(new > before.2, "{step}: a new node's stamp");
            }
        }
        Wrote::Nothing => assert_eq!(&after, before, "{step}: nothing was written"),
        Wrote::Fresh => {
            let mut distinct = after.0.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), after.0.len(), "{step}: stamps are unique");
            assert!(after.0.iter().all(|&s| s > 0 && s <= after.2), "{step}");
        }
    }
}

/// A random instruction over a few variables.
fn instr(rng: &mut SplitMix64, vars: &[Var]) -> Instr {
    if rng.gen_bool(0.15) {
        Instr::Skip
    } else {
        Instr::assign(*rng.choose(vars), rng.gen_range(0..6i64))
    }
}

/// Runs `steps` random writes from `seed`, checking after each.
fn drive(seed: u64, steps: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut g = FlowGraph::new();
    let vars: Vec<Var> = ["x", "y", "z"].map(|v| g.pool_mut().intern(v)).to_vec();
    let mut model = Model {
        blocks: Vec::new(),
        labels: Vec::new(),
        synthetic: Vec::new(),
        succs: Vec::new(),
        preds: Vec::new(),
        start: 0,
        end: 1,
    };
    for label in ["s", "e"] {
        g.add_node(label);
        model.add_node(label.to_owned(), false);
    }
    g.set_start(node(&g, 0));
    g.set_end(node(&g, 1));
    let mut labels = 0;
    for step in 0..steps {
        let nodes = model.blocks.len();
        let pick = |rng: &mut SplitMix64| rng.gen_range(0..nodes);
        let before = stamps(&g);
        let op = rng.gen_range(0..100u64);
        let (name, wrote) = match op {
            0..=7 => {
                labels += 1;
                let label = if rng.gen_bool(0.5) {
                    format!("n{labels}")
                } else {
                    labels.to_string()
                };
                let n = g.add_node(&label);
                assert_eq!(n.index(), model.add_node(label, false));
                ("add_node", Wrote::Edges)
            }
            8..=27 => {
                let (m, n) = (pick(&mut rng), pick(&mut rng));
                g.add_edge(node(&g, m), node(&g, n));
                model.add_edge(m, n);
                ("add_edge", Wrote::Edges)
            }
            28..=33 => {
                let (m, n) = if rng.gen_bool(0.7) && model.succs.iter().any(|s| !s.is_empty()) {
                    let m = loop {
                        let m = pick(&mut rng);
                        if !model.succs[m].is_empty() {
                            break m;
                        }
                    };
                    (m, *rng.choose(&model.succs[m]))
                } else {
                    (pick(&mut rng), pick(&mut rng))
                };
                let existed = g.remove_edge(node(&g, m), node(&g, n));
                assert_eq!(existed, model.remove_edge(m, n), "step {step}: remove_edge");
                (
                    "remove_edge",
                    if existed {
                        Wrote::Edges
                    } else {
                        Wrote::Nothing
                    },
                )
            }
            34..=45 => {
                // Several pushes in a row, so rows outgrow their room.
                let n = if rng.gen_bool(0.3) {
                    nodes - 1
                } else {
                    pick(&mut rng)
                };
                for _ in 0..rng.gen_range(1..=4usize) {
                    let i = instr(&mut rng, &vars);
                    g.push_instr(node(&g, n), i.clone());
                    model.blocks[n].push(i);
                }
                ("push_instr", Wrote::Block(n))
            }
            46..=53 => {
                let n = pick(&mut rng);
                let index = rng.gen_range(0..=model.blocks[n].len());
                let i = instr(&mut rng, &vars);
                g.insert_instr(
                    Loc {
                        node: node(&g, n),
                        index,
                    },
                    i.clone(),
                );
                model.blocks[n].insert(index, i);
                ("insert_instr", Wrote::Block(n))
            }
            54..=59 => {
                let n = pick(&mut rng);
                if model.blocks[n].is_empty() {
                    continue;
                }
                let index = rng.gen_range(0..model.blocks[n].len());
                let removed = g.remove_instr(Loc {
                    node: node(&g, n),
                    index,
                });
                assert_eq!(removed, model.blocks[n].remove(index), "step {step}");
                ("remove_instr", Wrote::Block(n))
            }
            60..=64 => {
                let n = pick(&mut rng);
                let v = *rng.choose(&vars);
                g.retain_instrs(node(&g, n), |i| i.def() != Some(v));
                model.blocks[n].retain(|i| i.def() != Some(v));
                ("retain_instrs", Wrote::Block(n))
            }
            65..=74 => {
                // Ids of instructions already interned and of new ones,
                // sometimes many more than the block held.
                let n = pick(&mut rng);
                let most: usize = if rng.gen_bool(0.3) { 24 } else { 6 };
                let len = rng.gen_range(0..=most);
                let instrs: Vec<Instr> = (0..len).map(|_| instr(&mut rng, &vars)).collect();
                let ids: Vec<InstrId> = instrs.iter().map(|i| g.intern(i.clone())).collect();
                g.set_ids(node(&g, n), &ids);
                model.blocks[n] = instrs;
                ("set_ids", Wrote::Block(n))
            }
            75..=79 => {
                let n = pick(&mut rng);
                let len = rng.gen_range(0..=8usize);
                let instrs: Vec<Instr> = (0..len).map(|_| instr(&mut rng, &vars)).collect();
                g.set_block(node(&g, n), instrs.clone());
                model.blocks[n] = instrs;
                ("set_block", Wrote::Block(n))
            }
            80..=83 => {
                let n = pick(&mut rng);
                let taken = g.take_block(node(&g, n));
                assert_eq!(taken, std::mem::take(&mut model.blocks[n]), "step {step}");
                ("take_block", Wrote::Block(n))
            }
            84..=88 => {
                let split = g.split_critical_edges();
                assert_eq!(split, model.split_critical_edges(), "step {step}: split");
                (
                    "split_critical_edges",
                    if split > 0 {
                        Wrote::Edges
                    } else {
                        Wrote::Nothing
                    },
                )
            }
            89..=91 => {
                let n = pick(&mut rng);
                let bridge = rng.gen_bool(0.5);
                let cut = g.without_node(node(&g, n), bridge);
                let expect = model.without_node(n, bridge);
                assert_eq!(cut.is_some(), expect.is_some(), "step {step}: without_node");
                match (cut, expect) {
                    (Some(cut), Some(expect)) => {
                        g = cut;
                        model = expect;
                        ("without_node", Wrote::Fresh)
                    }
                    _ => ("without_node", Wrote::Nothing),
                }
            }
            92..=94 => {
                g = g.simplified();
                model = model.simplified();
                ("simplified", Wrote::Fresh)
            }
            _ => {
                let copy = g.clone();
                assert_eq!(
                    stamps(&copy),
                    before,
                    "step {step}: a clone keeps the stamps"
                );
                g = copy;
                ("clone", Wrote::Nothing)
            }
        };
        let at = format!("seed {seed} step {step} ({name})");
        check(&g, &model, &at);
        check_stamps(&before, &g, wrote, &at);
        if step % 8 == 0 {
            let other = if model.synthetic.contains(&true) {
                shuffled(&g)
            } else {
                rebuild(&model, &g)
            };
            check(&other, &model, &format!("{at}, rebuilt"));
            assert_eq!(g, other, "{at}: equality ignores the slab layout");
            assert_eq!(format!("{g:?}"), format!("{other:?}"), "{at}: Debug");
            assert_eq!(g.clone(), g, "{at}");
            let mut changed = other;
            let e = changed.end();
            changed.push_instr(e, Instr::Skip);
            assert_ne!(g, changed, "{at}: equality sees the content");
        }
    }
}

#[test]
fn random_writes_agree_with_the_model() {
    for seed in 0..40 {
        drive(seed, 300);
    }
}

#[test]
fn rows_that_outgrow_their_room_keep_their_neighbours() {
    // The last node's rows end their slabs and grow in place; an early
    // node's rows move past them. Both must read back in order, and
    // neither move is a write to any other block.
    let mut g = FlowGraph::new();
    let x = g.pool_mut().intern("x");
    let [s, a, e] = ["s", "a", "e"].map(|l| g.add_node(l));
    g.set_start(s);
    g.set_end(e);
    for k in 0..50 {
        let stamps = (g.block(s).stamp(), g.block(e).stamp());
        g.push_instr(a, Instr::assign(x, k));
        g.push_instr(e, Instr::assign(x, -k));
        assert_eq!(g.block(s).stamp(), stamps.0, "s was not written");
        g.add_edge(s, a);
        g.add_edge(a, e);
        g.add_edge(s, e);
    }
    assert_eq!(g.block(a).len(), 50);
    assert!(g
        .instrs(a)
        .enumerate()
        .all(|(k, i)| *i == Instr::assign(x, k as i64)));
    assert!(g
        .instrs(e)
        .enumerate()
        .all(|(k, i)| *i == Instr::assign(x, -(k as i64))));
    assert_eq!(g.succs(s).len(), 100);
    assert_eq!(g.preds(e).len(), 100);
    assert!(g.succs(s).chunks(2).all(|p| p == [a, e]));
    let cut = g.without_node(a, true).unwrap();
    assert_eq!(cut.node_count(), 2);
    assert_eq!(
        cut.succs(cut.start()).len(),
        50,
        "bridged edges are not duplicated"
    );
}

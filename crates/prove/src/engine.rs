//! The pair prover: a product-program fixpoint over symbolic segments.
//!
//! Two programs run side by side, aligned on *decision indices* — the same
//! alignment `am-check`'s fixed-oracle corresponding runs use. A product
//! state is a pair of cutpoints (one per side); an edge is one decision
//! value applied at a state, simulated symbolically to the next pair of
//! cutpoints. Joins widen disagreeing stores with keyed symbols on a
//! sticky three-level lattice (concrete ⊏ shared ⊏ split), so the
//! fixpoint terminates; possible one-sided traps are tracked as pending
//! obligations that must be matched by a division on the other side.
//!
//! The outcome is three-valued. **Proved** means: on every oracle and
//! every input, the two programs are corresponding-equivalent (identical
//! observables, modulo the trap/truncation skew the checker accepts) and
//! the right program never evaluates more non-trivial terms than the left
//! on a terminating pair of runs. **Refuted** carries a concrete witness
//! (decision sequence + inputs) that the interpreter has already
//! confirmed. Everything else is **Inconclusive** — never a claim, so
//! callers fall back to the dynamic oracle.

use std::collections::{HashMap, HashSet, VecDeque};

use am_core::verify::weakly_equivalent;
use am_ir::interp::{self, Oracle, RunResult, StopReason};
use am_ir::FlowGraph;
use am_trace::Tracer;

use crate::sim::{run_segment, JointVars, Probe, SegCtx, SegEnd, Side, SideKey};
use crate::value::{ValId, ValNode, ValueArena};

/// Prover tuning knobs and the input sets used to confirm refutations.
#[derive(Clone, Debug)]
pub struct ProveConfig {
    /// Product-state budget; exceeding it yields Inconclusive.
    pub max_states: usize,
    /// Segment-simulation budget; exceeding it yields Inconclusive.
    pub max_simulations: usize,
    /// Cap on pending one-sided trap obligations per state.
    pub max_pending: usize,
    /// Primary input set for confirming refutation witnesses (the same
    /// defaults `am-check` campaigns use).
    pub inputs: Vec<(String, i64)>,
    /// Trace sink; `prove/*` spans and counters land here.
    pub tracer: Tracer,
}

impl Default for ProveConfig {
    fn default() -> Self {
        ProveConfig {
            max_states: 1024,
            max_simulations: 100_000,
            max_pending: 64,
            inputs: vec![
                ("v0".to_owned(), 3),
                ("v1".to_owned(), 2),
                ("v2".to_owned(), -5),
                ("v3".to_owned(), 1),
            ],
            tracer: Tracer::disabled(),
        }
    }
}

/// The three-valued outcome of a proof attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Statically proved equivalent (and cost-optimal) on every path.
    Proved,
    /// A concrete, interpreter-confirmed counterexample exists.
    Refuted,
    /// The prover could not decide; fall back to the dynamic oracle.
    Inconclusive,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Proved => write!(f, "proved"),
            Verdict::Refuted => write!(f, "refuted"),
            Verdict::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// What property a refutation witnesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefuteKind {
    /// The observable behaviours differ.
    Semantic,
    /// The transformed program evaluates strictly more non-trivial terms
    /// on some terminating pair of corresponding runs.
    Optimality,
}

/// A confirmed counterexample: replaying both programs with this oracle
/// and these inputs demonstrates the divergence.
#[derive(Clone, Debug)]
pub struct Refutation {
    /// Which property fails.
    pub kind: RefuteKind,
    /// The witness decision sequence (a fixed oracle).
    pub decisions: Vec<usize>,
    /// Inputs under which the interpreter confirmed the divergence.
    pub inputs: Vec<(String, i64)>,
    /// Human-readable description of the divergence.
    pub detail: String,
}

/// The result of proving one program pair.
#[derive(Clone, Debug)]
pub struct PairOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// The confirmed counterexample, when refuted.
    pub refutation: Option<Refutation>,
    /// Why the verdict is what it is (the Inconclusive reason, or a short
    /// proof summary).
    pub reason: String,
    /// Product states explored.
    pub states: usize,
    /// Segment simulations performed.
    pub simulations: usize,
}

// ---------------------------------------------------------------------------
// Internal machinery.

/// `None` is the entry edge (program start, before any decision);
/// `Some((state, d))` applies raw decision `d` at a product state.
type EdgeKey = Option<(usize, usize)>;

/// A confirmed refutation witness: the oracle decision sequence and the
/// input assignment that reproduce the divergence concretely.
type Witness = (Vec<usize>, Vec<(String, i64)>);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EdgeTarget {
    State(usize),
    End,
    Trap,
}

#[derive(Clone, PartialEq, Eq)]
struct SymState {
    store_a: Vec<ValId>,
    store_b: Vec<ValId>,
    nonzero_a: HashSet<ValId>,
    nonzero_b: HashSet<ValId>,
    pending_a: HashSet<ValId>,
    pending_b: HashSet<ValId>,
}

struct EdgeOut {
    target: EdgeTarget,
    sym: SymState,
    delta: i64,
}

struct State {
    key: (SideKey, SideKey),
    /// The edge that first reached this state (witness backpointer).
    reach: EdgeKey,
    in_edges: Vec<EdgeKey>,
    /// Sticky per-side widening bits per joint variable. A bit only ever
    /// turns on, which bounds the number of invariant escalations and
    /// makes the fixpoint terminate.
    widened: Vec<(bool, bool)>,
    inv: Option<SymState>,
    /// Decision range: lcm of the two fanouts.
    range: usize,
}

enum Flow {
    /// Keep processing the worklist.
    Continue,
    /// Stop with this outcome.
    Done(PairOutcome),
}

struct Prover<'a> {
    ga: &'a FlowGraph,
    gb: &'a FlowGraph,
    cfg: &'a ProveConfig,
    joint: JointVars,
    arena: ValueArena,
    states: Vec<State>,
    state_index: HashMap<(SideKey, SideKey), usize>,
    edges: HashMap<EdgeKey, EdgeOut>,
    worklist: VecDeque<EdgeKey>,
    queued: HashSet<EdgeKey>,
    simulations: usize,
    probes: &'a [Probe],
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `None` when the lcm overflows `usize`.
fn lcm(a: usize, b: usize) -> Option<usize> {
    (a / gcd(a, b)).checked_mul(b)
}

fn prefix_related<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    let n = a.len().min(b.len());
    a[..n] == b[..n]
}

/// Tries to express variable `v`'s met value *functionally* instead of
/// widening it opaquely. Assignment motion hoists `h := a+b` above a
/// join, so `h` disagrees across the in-edges — but on every in-edge the
/// relation `h == a+b` (over that edge's own store) still holds, and the
/// relation survives the meet: rebuilding `a+b` over the *met* values of
/// `a` and `b` is a sound description of `h` after the join. Without this
/// the opaque symbol destroys exactly the equality the other side later
/// recomputes. Candidates are: another variable whose value coincides
/// with `v` on every edge (a copy), or the edge-0 operator applied to
/// operands that are each either edge-invariant or tracked by a variable
/// on every edge. Validation rebuilds through [`ValueArena::bin`] so
/// normalization (commutative sorting, folding) is respected. Returns
/// `None` when no relation explains all edges.
/// The copy half of the reconstruction meet: if a lower-indexed variable
/// holds the same value as `v` on every in-edge, `v` meets to that
/// variable's (already canonicalized) met value. Restricting to `p < v`
/// makes the lowest member of an equality group its representative —
/// without the restriction two equal variables would swap each other's
/// symbols and the group's internal equality would still be lost.
fn reconstruct_copy(stores: &[Vec<ValId>], v: usize, met: &[ValId]) -> Option<ValId> {
    'copy: for p in 0..v {
        for s in stores {
            if s[p] != s[v] {
                continue 'copy;
            }
        }
        return Some(met[p]);
    }
    None
}

fn reconstruct(
    arena: &mut ValueArena,
    stores: &[Vec<ValId>],
    v: usize,
    met: &[ValId],
) -> Option<ValId> {
    // An operator relation, templated on each in-edge's shape in turn:
    // constant folding can collapse the defining expression on some edges
    // (e.g. `h := v1-2` where v1 happens to be constant there), so any
    // edge that kept the Bin shape may supply the template.
    let mut tried: Vec<ValId> = Vec::new();
    for te in stores {
        let tv = te[v];
        if tried.contains(&tv) {
            continue;
        }
        tried.push(tv);
        let ValNode::Bin(op, l0, r0) = arena.node(tv) else {
            continue;
        };
        // An operand source is either the template edge's value taken
        // literally (valid only if edge-invariant) or a tracking variable.
        let sources = |o: ValId| -> Vec<Option<usize>> {
            let mut c: Vec<Option<usize>> = vec![None];
            for (p, &t) in te.iter().enumerate() {
                if t == o {
                    c.push(Some(p));
                }
            }
            c.truncate(6);
            c
        };
        let lc = sources(l0);
        let rc = sources(r0);
        for &sl in &lc {
            'pair: for &sr in &rc {
                for s in stores {
                    let lv = sl.map_or(l0, |p| s[p]);
                    let rv = sr.map_or(r0, |p| s[p]);
                    if arena.bin(op, lv, rv) != s[v] {
                        continue 'pair;
                    }
                }
                let lm = sl.map_or(l0, |p| met[p]);
                let rm = sr.map_or(r0, |p| met[p]);
                return Some(arena.bin(op, lm, rm));
            }
        }
    }
    None
}

/// The equivalence the dynamic checker accepts for corresponding runs:
/// weak equivalence, or the benign skew where one run trapped and the
/// other was merely truncated (oracle exhausted / step limit) on a
/// consistent output prefix. Reimplemented here because `am-check`
/// depends on `am-prove`, not the other way around.
fn corresponding_equivalent(a: &RunResult, b: &RunResult) -> bool {
    fn skew(truncated: &RunResult, trapped: &RunResult) -> bool {
        truncated.trap.is_none()
            && matches!(
                truncated.stop,
                StopReason::OracleExhausted | StopReason::StepLimit
            )
            && trapped.trap.is_some()
            && prefix_related(&truncated.outputs, &trapped.outputs)
    }
    weakly_equivalent(a, b) || skew(a, b) || skew(b, a)
}

impl<'a> Prover<'a> {
    fn new(
        ga: &'a FlowGraph,
        gb: &'a FlowGraph,
        cfg: &'a ProveConfig,
        probes: &'a [Probe],
    ) -> Prover<'a> {
        Prover {
            ga,
            gb,
            cfg,
            joint: JointVars::build(ga.pool(), gb.pool()),
            arena: ValueArena::new(),
            states: Vec::new(),
            state_index: HashMap::new(),
            edges: HashMap::new(),
            worklist: VecDeque::new(),
            queued: HashSet::new(),
            simulations: 0,
            probes,
        }
    }

    fn enqueue(&mut self, ek: EdgeKey) {
        if self.queued.insert(ek) {
            self.worklist.push_back(ek);
        }
    }

    fn inconclusive(&self, reason: impl Into<String>) -> PairOutcome {
        PairOutcome {
            verdict: Verdict::Inconclusive,
            refutation: None,
            reason: reason.into(),
            states: self.states.len(),
            simulations: self.simulations,
        }
    }

    fn witness_of(&self, ek: EdgeKey) -> Vec<usize> {
        let mut ds = Vec::new();
        let mut cur = ek;
        while let Some((s, d)) = cur {
            ds.push(d);
            cur = self.states[s].reach;
        }
        ds.reverse();
        ds
    }

    /// Candidate input sets for confirming a witness: the configured
    /// campaign inputs first, then uniform and enumerated assignments of
    /// every non-temporary variable of either program.
    fn input_sets(&self) -> Vec<Vec<(String, i64)>> {
        let mut names: Vec<String> = Vec::new();
        for v in 0..self.joint.len() as u32 {
            if !self.joint.is_temp(v) {
                names.push(self.joint.name(v).to_owned());
            }
        }
        names.sort();
        let mut sets = vec![self.cfg.inputs.clone()];
        for fill in [3i64, 1, -7] {
            sets.push(names.iter().map(|n| (n.clone(), fill)).collect());
        }
        sets.push(
            names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), (i as i64 % 11) - 5))
                .collect(),
        );
        sets
    }

    /// Tries to confirm a semantic divergence by concrete replay. Returns
    /// the confirming (decisions, inputs) or `None`.
    fn confirm_semantic(&self, witness: &[usize]) -> Option<Witness> {
        for pad in [0usize, 8] {
            let mut decisions = witness.to_vec();
            decisions.extend(std::iter::repeat_n(0, pad));
            for inputs in self.input_sets() {
                let cfg = interp::Config {
                    oracle: Oracle::Fixed(decisions.clone()),
                    inputs: inputs.clone(),
                    ..Default::default()
                };
                let ra = interp::run(self.ga, &cfg);
                let rb = interp::run(self.gb, &cfg);
                if !corresponding_equivalent(&ra, &rb) {
                    return Some((decisions, inputs));
                }
            }
        }
        None
    }

    /// Tries to confirm an optimality regression: both runs must reach
    /// the end and the right program must evaluate strictly more.
    fn confirm_optimality(&self, witness: &[usize]) -> Option<Witness> {
        for inputs in self.input_sets() {
            let cfg = interp::Config {
                oracle: Oracle::Fixed(witness.to_vec()),
                inputs: inputs.clone(),
                ..Default::default()
            };
            let ra = interp::run(self.ga, &cfg);
            let rb = interp::run(self.gb, &cfg);
            if ra.stop == StopReason::ReachedEnd
                && rb.stop == StopReason::ReachedEnd
                && rb.expr_evals > ra.expr_evals
            {
                return Some((witness.to_vec(), inputs));
            }
        }
        None
    }

    /// Resolves a refutation candidate: confirmed → Refuted with the
    /// witness; unconfirmed → Inconclusive (the symbolic disagreement may
    /// be a widening artefact, so it is never reported as a failure).
    fn refute_or_inconclusive(&self, witness: Vec<usize>, detail: String) -> PairOutcome {
        match self.confirm_semantic(&witness) {
            Some((decisions, inputs)) => PairOutcome {
                verdict: Verdict::Refuted,
                refutation: Some(Refutation {
                    kind: RefuteKind::Semantic,
                    decisions,
                    inputs,
                    detail: detail.clone(),
                }),
                reason: detail,
                states: self.states.len(),
                simulations: self.simulations,
            },
            None => self.inconclusive(format!("unconfirmed refutation candidate: {detail}")),
        }
    }

    /// Renders the first symbolic disagreement between two out lists for
    /// diagnostics.
    fn out_mismatch(&self, a: &[Vec<ValId>], b: &[Vec<ValId>]) -> String {
        for (i, (xa, xb)) in a.iter().zip(b.iter()).enumerate() {
            if xa == xb {
                continue;
            }
            for (j, (va, vb)) in xa.iter().zip(xb.iter()).enumerate() {
                if va != vb {
                    return format!(
                        " (out {i} value {j}: {} vs {})",
                        self.arena.display(*va),
                        self.arena.display(*vb)
                    );
                }
            }
            return format!(" (out {i} arity: {} vs {})", xa.len(), xb.len());
        }
        format!(" (out count: {} vs {})", a.len(), b.len())
    }

    /// Matches this segment pair's new trap candidates against each
    /// other and against carried obligations. Mutates `sym` in place;
    /// returns false when a pending cap is exceeded.
    fn discharge(
        &self,
        sym: &mut SymState,
        start_nonzero_a: &HashSet<ValId>,
        start_nonzero_b: &HashSet<ValId>,
        cands_a: &[ValId],
        cands_b: &[ValId],
    ) -> bool {
        let set_a: HashSet<ValId> = cands_a.iter().copied().collect();
        let set_b: HashSet<ValId> = cands_b.iter().copied().collect();
        for &v in cands_a {
            if set_b.contains(&v) || sym.pending_b.remove(&v) || start_nonzero_b.contains(&v) {
                continue;
            }
            sym.pending_a.insert(v);
        }
        for &v in cands_b {
            if set_a.contains(&v) || sym.pending_a.remove(&v) || start_nonzero_a.contains(&v) {
                continue;
            }
            sym.pending_b.insert(v);
        }
        sym.pending_a.len() <= self.cfg.max_pending && sym.pending_b.len() <= self.cfg.max_pending
    }

    /// Looks up or creates the product state for a pair of pause keys.
    fn state_for(
        &mut self,
        key: (SideKey, SideKey),
        reach: EdgeKey,
    ) -> Result<usize, Box<PairOutcome>> {
        if let Some(&s) = self.state_index.get(&key) {
            return Ok(s);
        }
        if self.states.len() >= self.cfg.max_states {
            return Err(Box::new(self.inconclusive("state budget exceeded")));
        }
        let fa = key.0.fanout(self.ga);
        let fb = key.1.fanout(self.gb);
        // Every decision of the range is one segment simulation, so a
        // range the remaining simulation budget cannot cover is refused
        // before the state exists.
        let budget = self.cfg.max_simulations.saturating_sub(self.simulations);
        let Some(range) = lcm(fa.max(1), fb.max(1)).filter(|&r| r <= budget) else {
            return Err(Box::new(self.inconclusive("simulation budget exceeded")));
        };
        let s = self.states.len();
        self.states.push(State {
            key,
            reach,
            in_edges: Vec::new(),
            widened: vec![(false, false); self.joint.len()],
            inv: None,
            range,
        });
        self.state_index.insert(key, s);
        Ok(s)
    }

    /// Recomputes state `t`'s invariant as the meet over its in-edges'
    /// latest outputs; re-enqueues `t`'s out-edges when it changed.
    fn refresh_invariant(&mut self, t: usize) -> Result<(), Box<PairOutcome>> {
        let ins: Vec<EdgeKey> = self.states[t]
            .in_edges
            .iter()
            .copied()
            .filter(|k| {
                self.edges
                    .get(k)
                    .is_some_and(|e| e.target == EdgeTarget::State(t))
            })
            .collect();
        if ins.is_empty() {
            return Ok(());
        }
        let n = self.joint.len();
        let stores_a: Vec<Vec<ValId>> = ins
            .iter()
            .map(|k| self.edges[k].sym.store_a.clone())
            .collect();
        let stores_b: Vec<Vec<ValId>> = ins
            .iter()
            .map(|k| self.edges[k].sym.store_b.clone())
            .collect();
        // Pass 1 — the baseline meet. Widen each side independently: a
        // side whose value agrees on every in-edge keeps it precisely —
        // assignment motion makes stores legitimately diverge mid-flight
        // (a hoisted `x := t` changes x early on one side), and widening
        // the still-consistent side would destroy the value the other
        // side later recomputes. When the two sides agree pairwise on
        // every edge, one shared symbol preserves that equality through
        // the join.
        let mut base_a = Vec::with_capacity(n);
        let mut base_b = Vec::with_capacity(n);
        let mut shared = vec![false; n];
        for v in 0..n {
            let a0 = stores_a[0][v];
            let b0 = stores_b[0][v];
            let mut all_a_eq = true;
            let mut all_b_eq = true;
            let mut pairwise_eq = true;
            for i in 0..ins.len() {
                all_a_eq &= stores_a[i][v] == a0;
                all_b_eq &= stores_b[i][v] == b0;
                pairwise_eq &= stores_a[i][v] == stores_b[i][v];
            }
            let (mut wa, mut wb) = self.states[t].widened[v];
            wa |= !all_a_eq;
            wb |= !all_b_eq;
            let (va, vb) = if pairwise_eq && (wa || wb) {
                wa = true;
                wb = true;
                shared[v] = true;
                let w = self.arena.widen(t as u64, v as u32, 2);
                (w, w)
            } else {
                let va = if wa {
                    self.arena.widen(t as u64, v as u32, 0)
                } else {
                    a0
                };
                let vb = if wb {
                    self.arena.widen(t as u64, v as u32, 1)
                } else {
                    b0
                };
                (va, vb)
            };
            self.states[t].widened[v] = (wa, wb);
            base_a.push(va);
            base_b.push(vb);
        }
        // Pass 2 — the reconstruction meet: replace opaque widen symbols
        // with functional descriptions over the baseline where the
        // in-edges support one. Copies canonicalize first (an equality
        // group collapses onto its lowest member's symbol), then operator
        // templates rebuild over the canonicalized store, so `h := a+b`
        // hoisted above the join and `x := a+b` recomputed below it meet
        // in the same value. A pairwise-shared symbol is only traded for
        // reconstructions that agree on both sides (otherwise the
        // cross-side equality the shared symbol encodes would be lost).
        let mut store_a = base_a.clone();
        let mut store_b = base_b.clone();
        for v in 0..n {
            let (wa, wb) = self.states[t].widened[v];
            if shared[v] {
                let ra = reconstruct_copy(&stores_a, v, &store_a);
                let rb = reconstruct_copy(&stores_b, v, &store_b);
                if let (Some(x), Some(y)) = (ra, rb) {
                    if x == y {
                        store_a[v] = x;
                        store_b[v] = y;
                    }
                }
            } else {
                if wa {
                    if let Some(x) = reconstruct_copy(&stores_a, v, &store_a) {
                        store_a[v] = x;
                    }
                }
                if wb {
                    if let Some(y) = reconstruct_copy(&stores_b, v, &store_b) {
                        store_b[v] = y;
                    }
                }
            }
        }
        let canon_a = store_a.clone();
        let canon_b = store_b.clone();
        for v in 0..n {
            let (wa, wb) = self.states[t].widened[v];
            if shared[v] {
                if store_a[v] != base_a[v] {
                    continue; // already canonicalized as a copy
                }
                let ra = reconstruct(&mut self.arena, &stores_a, v, &canon_a);
                let rb = reconstruct(&mut self.arena, &stores_b, v, &canon_b);
                if let (Some(x), Some(y)) = (ra, rb) {
                    if x == y {
                        store_a[v] = x;
                        store_b[v] = y;
                    }
                }
            } else {
                if wa && store_a[v] == base_a[v] {
                    if let Some(x) = reconstruct(&mut self.arena, &stores_a, v, &canon_a) {
                        store_a[v] = x;
                    }
                }
                if wb && store_b[v] == base_b[v] {
                    if let Some(y) = reconstruct(&mut self.arena, &stores_b, v, &canon_b) {
                        store_b[v] = y;
                    }
                }
            }
        }
        // Pass 3 — carry trap facts across the widening. A nonzero fact
        // or pending obligation names a *value*; when that value is held
        // by joint variable j on an in-edge, the met store's value for j
        // denotes the same runtime value on every run through that edge,
        // so the fact transfers to the met id. Without this, a join
        // between a hoisted division and its original site strands the
        // obligation on a pre-widening id that nothing downstream can
        // ever discharge.
        let transfer = |p: ValId, edge_store: &[ValId], met_store: &[ValId]| -> ValId {
            let mut remapped = None;
            for (j, &x) in edge_store.iter().enumerate() {
                if x != p {
                    continue;
                }
                if met_store[j] == p {
                    return p; // the id survived the meet untouched
                }
                remapped.get_or_insert(met_store[j]);
            }
            remapped.unwrap_or(p)
        };
        let extend = |facts: &HashSet<ValId>, edge_store: &[ValId], met_store: &[ValId]| {
            let mut out: HashSet<ValId> = facts.clone();
            out.extend(facts.iter().map(|&p| transfer(p, edge_store, met_store)));
            out
        };
        let first = &self.edges[&ins[0]].sym;
        let mut nonzero_a = extend(&first.nonzero_a, &first.store_a, &store_a);
        let mut nonzero_b = extend(&first.nonzero_b, &first.store_b, &store_b);
        let mut pending_a = HashSet::new();
        let mut pending_b = HashSet::new();
        for k in &ins {
            let e = &self.edges[k].sym;
            let ext_a = extend(&e.nonzero_a, &e.store_a, &store_a);
            let ext_b = extend(&e.nonzero_b, &e.store_b, &store_b);
            nonzero_a.retain(|v| ext_a.contains(v));
            nonzero_b.retain(|v| ext_b.contains(v));
            pending_a.extend(
                e.pending_a
                    .iter()
                    .map(|&p| transfer(p, &e.store_a, &store_a)),
            );
            pending_b.extend(
                e.pending_b
                    .iter()
                    .map(|&p| transfer(p, &e.store_b, &store_b)),
            );
        }
        if pending_a.len() > self.cfg.max_pending || pending_b.len() > self.cfg.max_pending {
            return Err(Box::new(
                self.inconclusive("pending trap obligations exceed the cap"),
            ));
        }
        let inv = SymState {
            store_a,
            store_b,
            nonzero_a,
            nonzero_b,
            pending_a,
            pending_b,
        };
        if self.states[t].inv.as_ref() != Some(&inv) {
            self.states[t].inv = Some(inv);
            for d in 0..self.states[t].range {
                self.enqueue(Some((t, d)));
            }
        }
        Ok(())
    }

    /// Simulates one edge and folds its outcome into the product graph.
    fn process(&mut self, ek: EdgeKey, probe: &mut dyn FnMut(usize, bool)) -> Flow {
        self.simulations += 1;
        let (src_sym, keys, d): (SymState, (Option<SideKey>, Option<SideKey>), usize) = match ek {
            None => {
                let store = self.joint.initial_store(&mut self.arena);
                (
                    SymState {
                        store_a: store.clone(),
                        store_b: store,
                        nonzero_a: HashSet::new(),
                        nonzero_b: HashSet::new(),
                        pending_a: HashSet::new(),
                        pending_b: HashSet::new(),
                    },
                    (None, None),
                    0,
                )
            }
            Some((s, d)) => {
                let st = &self.states[s];
                let Some(inv) = st.inv.clone() else {
                    return Flow::Continue;
                };
                (inv, (Some(st.key.0), Some(st.key.1)), d)
            }
        };
        let mut store_a = src_sym.store_a.clone();
        let mut store_b = src_sym.store_b.clone();
        let mut nonzero_a = src_sym.nonzero_a.clone();
        let mut nonzero_b = src_sym.nonzero_b.clone();
        let ra = {
            let mut ctx = SegCtx {
                g: self.ga,
                side: Side::A,
                joint: &self.joint,
                arena: &mut self.arena,
                store: &mut store_a,
                nonzero: &mut nonzero_a,
            };
            run_segment(&mut ctx, keys.0, d, self.probes, probe)
        };
        let rb = {
            let mut ctx = SegCtx {
                g: self.gb,
                side: Side::B,
                joint: &self.joint,
                arena: &mut self.arena,
                store: &mut store_b,
                nonzero: &mut nonzero_b,
            };
            run_segment(&mut ctx, keys.1, d, &[], &mut |_, _| {})
        };
        if let SegEnd::Stuck(why) = ra.end {
            return Flow::Done(self.inconclusive(format!("left program stuck: {why}")));
        }
        if let SegEnd::Stuck(why) = rb.end {
            return Flow::Done(self.inconclusive(format!("right program stuck: {why}")));
        }
        let delta = rb.evals as i64 - ra.evals as i64;
        let mut sym = SymState {
            store_a,
            store_b,
            nonzero_a,
            nonzero_b,
            pending_a: src_sym.pending_a.clone(),
            pending_b: src_sym.pending_b.clone(),
        };
        match (ra.end, rb.end) {
            (SegEnd::Pause(pa), SegEnd::Pause(pb)) => {
                if ra.outs != rb.outs {
                    let detail = self.out_mismatch(&ra.outs, &rb.outs);
                    return Flow::Done(self.refute_or_inconclusive(
                        self.witness_of(ek),
                        format!("segment outputs differ between the programs{detail}"),
                    ));
                }
                if !self.discharge(
                    &mut sym,
                    &src_sym.nonzero_a,
                    &src_sym.nonzero_b,
                    &ra.new_cands,
                    &rb.new_cands,
                ) {
                    return Flow::Done(
                        self.inconclusive("pending trap obligations exceed the cap"),
                    );
                }
                let t = match self.state_for((pa, pb), ek) {
                    Ok(t) => t,
                    Err(out) => return Flow::Done(*out),
                };
                self.edges.insert(
                    ek,
                    EdgeOut {
                        target: EdgeTarget::State(t),
                        sym,
                        delta,
                    },
                );
                if !self.states[t].in_edges.contains(&ek) {
                    self.states[t].in_edges.push(ek);
                }
                if let Err(out) = self.refresh_invariant(t) {
                    return Flow::Done(*out);
                }
                Flow::Continue
            }
            (SegEnd::End, SegEnd::End) => {
                if ra.outs != rb.outs {
                    let detail = self.out_mismatch(&ra.outs, &rb.outs);
                    return Flow::Done(self.refute_or_inconclusive(
                        self.witness_of(ek),
                        format!("final segment outputs differ between the programs{detail}"),
                    ));
                }
                if !self.discharge(
                    &mut sym,
                    &src_sym.nonzero_a,
                    &src_sym.nonzero_b,
                    &ra.new_cands,
                    &rb.new_cands,
                ) {
                    return Flow::Done(
                        self.inconclusive("pending trap obligations exceed the cap"),
                    );
                }
                if !sym.pending_a.is_empty() || !sym.pending_b.is_empty() {
                    return Flow::Done(self.inconclusive(
                        "a division executed on only one side may trap while the other terminates",
                    ));
                }
                self.edges.insert(
                    ek,
                    EdgeOut {
                        target: EdgeTarget::End,
                        sym,
                        delta,
                    },
                );
                Flow::Continue
            }
            (SegEnd::Trap, SegEnd::Trap) => {
                if !prefix_related(&ra.outs, &rb.outs) {
                    return Flow::Done(self.refute_or_inconclusive(
                        self.witness_of(ek),
                        "outputs before a shared trap are not prefix-related".to_owned(),
                    ));
                }
                self.edges.insert(
                    ek,
                    EdgeOut {
                        target: EdgeTarget::Trap,
                        sym,
                        delta,
                    },
                );
                Flow::Continue
            }
            (SegEnd::Trap, SegEnd::End) | (SegEnd::End, SegEnd::Trap) => {
                Flow::Done(self.refute_or_inconclusive(
                    self.witness_of(ek),
                    "one program definitely traps where the other terminates".to_owned(),
                ))
            }
            (SegEnd::Trap, SegEnd::Pause(_)) | (SegEnd::Pause(_), SegEnd::Trap) => {
                Flow::Done(self.refute_or_inconclusive(
                    self.witness_of(ek),
                    "one program definitely traps where the other continues".to_owned(),
                ))
            }
            (SegEnd::End, SegEnd::Pause(_)) | (SegEnd::Pause(_), SegEnd::End) => {
                Flow::Done(self.inconclusive(
                    "decision structure mismatch: one program ends where the other branches",
                ))
            }
            (SegEnd::Stuck(_), _) | (_, SegEnd::Stuck(_)) => unreachable!("handled above"),
        }
    }

    /// Bellman–Ford style longest-path analysis over eval-count deltas.
    /// `dist[v] > 0` at the end vertex means some terminating decision
    /// sequence makes the right program strictly more expensive.
    fn check_optimality(&self) -> Flow {
        #[derive(Clone, Copy)]
        enum Parent {
            Seed,
            Carry,
            Edge(usize, usize),
        }
        let Some(entry) = self.edges.get(&None) else {
            return Flow::Continue; // nothing explored: vacuous
        };
        let v_end = self.states.len();
        let mut dist: Vec<Option<i64>> = vec![None; v_end + 1];
        let mut parents: Vec<Vec<Parent>> = Vec::new();
        let mut seed_row = vec![Parent::Carry; v_end + 1];
        match entry.target {
            EdgeTarget::State(t) => {
                dist[t] = Some(entry.delta);
                seed_row[t] = Parent::Seed;
            }
            EdgeTarget::End => {
                dist[v_end] = Some(entry.delta);
                seed_row[v_end] = Parent::Seed;
            }
            EdgeTarget::Trap => return Flow::Continue, // every run traps: vacuous
        }
        parents.push(seed_row);
        let dp_edges: Vec<(usize, usize, usize, i64)> = self
            .edges
            .iter()
            .filter_map(|(k, e)| {
                let (s, d) = (*k)?;
                match e.target {
                    EdgeTarget::State(t) => Some((s, d, t, e.delta)),
                    EdgeTarget::End => Some((s, d, v_end, e.delta)),
                    EdgeTarget::Trap => None,
                }
            })
            .collect();
        let rounds = 2 * (v_end + 1) + 8;
        let mut converged = false;
        for _ in 0..rounds {
            let mut next = dist.clone();
            let mut row = vec![Parent::Carry; v_end + 1];
            let mut changed = false;
            for &(s, d, t, delta) in &dp_edges {
                if let Some(base) = dist[s] {
                    let cand = base + delta;
                    if next[t].is_none_or(|cur| cand > cur) {
                        next[t] = Some(cand);
                        row[t] = Parent::Edge(s, d);
                        changed = true;
                    }
                }
            }
            parents.push(row);
            dist = next;
            if !changed {
                converged = true;
                break;
            }
        }
        match dist[v_end] {
            Some(worst) if worst > 0 => {
                // Reconstruct the witness by walking the per-round parent
                // tables (cycle-safe: each step strictly decreases the
                // round index).
                let mut decisions = Vec::new();
                let mut v = v_end;
                let mut k = parents.len() - 1;
                while k > 0 {
                    match parents[k][v] {
                        Parent::Edge(s, d) => {
                            decisions.push(d);
                            v = s;
                        }
                        Parent::Carry | Parent::Seed => {}
                    }
                    k -= 1;
                }
                decisions.reverse();
                match self.confirm_optimality(&decisions) {
                    Some((decisions, inputs)) => Flow::Done(PairOutcome {
                        verdict: Verdict::Refuted,
                        refutation: Some(Refutation {
                            kind: RefuteKind::Optimality,
                            decisions,
                            inputs,
                            detail: format!(
                                "the transformed program evaluates {worst} more non-trivial \
                                 terms on a terminating path"
                            ),
                        }),
                        reason: "optimality regression".to_owned(),
                        states: self.states.len(),
                        simulations: self.simulations,
                    }),
                    None => {
                        Flow::Done(self.inconclusive("unconfirmed optimality regression candidate"))
                    }
                }
            }
            _ if !converged => {
                Flow::Done(self.inconclusive("optimality analysis did not converge"))
            }
            _ => Flow::Continue,
        }
    }

    fn run(&mut self, probe: &mut dyn FnMut(usize, bool)) -> PairOutcome {
        self.enqueue(None);
        while let Some(ek) = self.worklist.pop_front() {
            self.queued.remove(&ek);
            if self.simulations >= self.cfg.max_simulations {
                return self.inconclusive("simulation budget exceeded");
            }
            if let Flow::Done(out) = self.process(ek, probe) {
                return out;
            }
        }
        if let Flow::Done(out) = self.check_optimality() {
            return out;
        }
        PairOutcome {
            verdict: Verdict::Proved,
            refutation: None,
            reason: format!(
                "all {} product states and {} segment simulations check out",
                self.states.len(),
                self.simulations
            ),
            states: self.states.len(),
            simulations: self.simulations,
        }
    }
}

/// Proves (or refutes, or gives up on) the equivalence of `ga` and `gb`
/// under the corresponding-run semantics.
pub fn prove_pair(ga: &FlowGraph, gb: &FlowGraph, cfg: &ProveConfig) -> PairOutcome {
    prove_pair_probed(ga, gb, cfg, &[], &mut |_, _| {})
}

/// Like [`prove_pair`], additionally firing `probe(i, discharged)` for
/// every visit of `probes[i]` on the left program (see
/// [`crate::provenance`]). Probed runs never take the identical-graph
/// shortcut, since the point is to observe the symbolic store.
pub(crate) fn prove_pair_probed(
    ga: &FlowGraph,
    gb: &FlowGraph,
    cfg: &ProveConfig,
    probes: &[Probe],
    probe: &mut dyn FnMut(usize, bool),
) -> PairOutcome {
    let mut span = cfg.tracer.span("prove", "pair");
    span.arg("nodes_a", ga.node_count() as i64)
        .arg("nodes_b", gb.node_count() as i64);
    if probes.is_empty() && ga == gb {
        cfg.tracer.counter("prove", "verdict", &[("proved", 1)]);
        return PairOutcome {
            verdict: Verdict::Proved,
            refutation: None,
            reason: "the programs are identical".to_owned(),
            states: 0,
            simulations: 0,
        };
    }
    let mut prover = Prover::new(ga, gb, cfg, probes);
    let out = prover.run(probe);
    span.arg("states", out.states as i64)
        .arg("simulations", out.simulations as i64);
    drop(span);
    cfg.tracer.counter(
        "prove",
        "verdict",
        &[
            ("proved", i64::from(out.verdict == Verdict::Proved)),
            ("refuted", i64::from(out.verdict == Verdict::Refuted)),
            (
                "inconclusive",
                i64::from(out.verdict == Verdict::Inconclusive),
            ),
        ],
    );
    out
}

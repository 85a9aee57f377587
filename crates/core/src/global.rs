//! The global algorithm (Sec. 4.1): initialization → assignment motion →
//! final flush, with the intermediate programs the paper names `G_Init`
//! (Fig. 12), `G_AssMot` (Fig. 14) and `G_GlobAlg` (Fig. 15) exposed for
//! inspection, testing and figure regeneration.

use std::time::Duration;

use am_ir::FlowGraph;
use am_trace::Tracer;

use crate::flush::FlushStats;
use crate::incremental::MotionContext;
use crate::init::{initialize, InitStats};
use crate::motion::{run_motion, MotionOrder, MotionStats};

/// A phase boundary of the global algorithm, as reported to the hook of
/// [`optimize_hooked`]. Ordered: `Split < Init < MotionRound(1) < … < Flush`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseId {
    /// After critical-edge splitting (Sec. 2.1).
    Split,
    /// After the initialization phase (Fig. 12, `G_Init`).
    Init,
    /// After the given 1-based `rae; aht` round of the assignment-motion
    /// fixed point (Fig. 14).
    MotionRound(usize),
    /// After the final flush (Fig. 15, `G_GlobAlg`).
    Flush,
}

impl std::fmt::Display for PhaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseId::Split => write!(f, "split"),
            PhaseId::Init => write!(f, "init"),
            PhaseId::MotionRound(r) => write!(f, "motion round {r}"),
            PhaseId::Flush => write!(f, "flush"),
        }
    }
}

/// Configuration of the global algorithm — the one pass context the phase
/// entry points ([`assignment_motion_with`](crate::motion::assignment_motion_with),
/// [`final_flush_with`](crate::flush::final_flush_with)) take.
#[derive(Clone, Debug)]
pub struct GlobalConfig {
    /// Round budget for the assignment motion fixed point; `None` uses the
    /// paper's quadratic bound
    /// ([`default_round_budget`](crate::motion::default_round_budget)).
    pub max_motion_rounds: Option<usize>,
    /// Keep copies of the intermediate programs (costs two clones).
    pub keep_snapshots: bool,
    /// The observer: spans and counters go to its sink, and a
    /// [recording](Tracer::recording) tracer also keeps one
    /// [`am_trace::ProvRecord`] per individual transformation
    /// (`amopt --explain`). Disabled (a no-op) by default.
    pub tracer: Tracer,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        GlobalConfig {
            max_motion_rounds: None,
            keep_snapshots: true,
            tracer: Tracer::disabled(),
        }
    }
}

/// Wall-clock time spent in each phase of one [`optimize_with`] call.
///
/// Plain data (`Copy + Send`), so callers can aggregate timings across
/// worker threads — the batch pipeline sums these per phase to show where
/// a whole corpus spends its time.
///
/// The durations are measured by the per-phase trace spans (the same
/// measurement whether tracing is enabled or not), so a `phase` span in an
/// exported trace and the corresponding `PhaseTimings` field always agree.
/// New aggregation should prefer the trace stream
/// ([`am_trace::OptStats`]); this struct remains as the zero-setup summary
/// for direct callers — see DESIGN.md for the deprecation path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Critical-edge splitting (Sec. 2.1).
    pub split: Duration,
    /// Initialization (Fig. 12).
    pub init: Duration,
    /// The assignment-motion fixed point (Fig. 14).
    pub motion: Duration,
    /// The final flush (Fig. 15).
    pub flush: Duration,
}

impl PhaseTimings {
    /// Total time across all four phases.
    pub fn total(&self) -> Duration {
        self.split + self.init + self.motion + self.flush
    }

    /// Component-wise sum, for aggregation over many runs.
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.split += other.split;
        self.init += other.init;
        self.motion += other.motion;
        self.flush += other.flush;
    }
}

/// The result of running the global algorithm.
#[derive(Clone, Debug)]
pub struct GlobalResult {
    /// The transformed program `G_GlobAlg`.
    pub program: FlowGraph,
    /// `G_Init` — after the initialization phase (Fig. 12), if snapshots
    /// were requested.
    pub after_init: Option<FlowGraph>,
    /// `G_AssMot` — after the assignment motion phase (Fig. 14), if
    /// snapshots were requested.
    pub after_motion: Option<FlowGraph>,
    /// Initialization statistics.
    pub init: InitStats,
    /// Assignment motion statistics.
    pub motion: MotionStats,
    /// Final flush statistics.
    pub flush: FlushStats,
    /// Critical edges split before the phases ran.
    pub edges_split: usize,
    /// Wall-clock time per phase.
    pub timings: PhaseTimings,
}

/// Runs the complete algorithm on a copy of `g` with default configuration.
///
/// Critical edges are split first (Sec. 2.1); the original graph is not
/// modified. Like every borrowing entry, this clones `g` and delegates to
/// [`optimize_owned`].
///
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_core::global::optimize;
///
/// let g = parse(
///     "start 1\nend 2\nnode 1 { x := a+b; y := a+b }\nnode 2 { out(x,y) }\nedge 1 -> 2",
/// )?;
/// let result = optimize(&g);
/// // The second a+b evaluation is gone: one initialization, two copies.
/// let text = am_ir::alpha::canonical_text(&result.program);
/// assert_eq!(text.matches("a+b").count(), 1);
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn optimize(g: &FlowGraph) -> GlobalResult {
    optimize_owned(g.clone(), &GlobalConfig::default(), &mut |_, _| {})
}

/// Runs the complete algorithm on a copy of `g` with explicit
/// configuration.
pub fn optimize_with(g: &FlowGraph, config: &GlobalConfig) -> GlobalResult {
    optimize_owned(g.clone(), config, &mut |_, _| {})
}

/// Runs the complete algorithm on a copy of `g`, calling `hook` at every
/// phase boundary (see [`optimize_owned`]).
pub fn optimize_hooked(
    g: &FlowGraph,
    config: &GlobalConfig,
    hook: &mut dyn FnMut(PhaseId, &mut FlowGraph),
) -> GlobalResult {
    optimize_owned(g.clone(), config, hook)
}

/// Runs the complete algorithm on `program` itself, which becomes the
/// result's [`GlobalResult::program`]: the one implementation behind
/// every entry, for callers that have no further use for their input (the
/// batch engine hands over the program it just parsed), so no copy is
/// made.
///
/// The hook fires after critical-edge splitting, after initialization,
/// after every assignment-motion round and after the final flush, with the
/// program as it stands at that boundary. It may mutate the program: the
/// subsequent phases continue from whatever the hook leaves behind. This is
/// the entry point of the translation-validation harness (`am-check`),
/// which uses read-only hooks to snapshot each phase for differential
/// checking and mutating hooks to inject a fault at a chosen boundary and
/// confirm the checker localizes it.
///
/// The final flush reads the motion rounds' context, which notices a
/// round hook's writes through the graph's block stamps and re-syncs the
/// blocks written; as for
/// [`assignment_motion_with`](crate::motion::assignment_motion_with), a
/// round hook must mutate the graph through its accessors, not replace it
/// wholesale.
pub fn optimize_owned(
    mut program: FlowGraph,
    config: &GlobalConfig,
    hook: &mut dyn FnMut(PhaseId, &mut FlowGraph),
) -> GlobalResult {
    let tracer = &config.tracer;
    let mut timings = PhaseTimings::default();
    let mut root = tracer.span("phase", "optimize");
    root.arg("nodes", program.node_count() as i64)
        .arg("instrs", program.instr_count() as i64);
    let mut span = tracer.span("phase", "split");
    let edges_split = program.split_critical_edges();
    span.arg("edges_split", edges_split as i64);
    timings.split = span.end();
    hook(PhaseId::Split, &mut program);
    let span = tracer.span("phase", "init");
    let init = initialize(&mut program);
    timings.init = span.end();
    hook(PhaseId::Init, &mut program);
    let after_init = config.keep_snapshots.then(|| program.clone());
    let span = tracer.span("phase", "motion");
    // One context serves both phases: the flush reads the row caches and
    // the node system the motion rounds leave behind.
    let mut ctx = MotionContext::new();
    if tracer.enabled() {
        // The first sync, which the first round would make anyway, numbers
        // the universe `PatternUniverse::collect` would.
        ctx.sync(&program);
        tracer.counter(
            "meta",
            "universe",
            &[
                ("assign_patterns", ctx.universe.assign_count() as i64),
                ("expr_patterns", ctx.universe.expr_count() as i64),
                ("nodes", program.node_count() as i64),
                ("instrs", program.instr_count() as i64),
            ],
        );
    }
    let motion = run_motion(
        &mut ctx,
        &mut program,
        config,
        MotionOrder::RaeFirst,
        &mut |round, g| hook(PhaseId::MotionRound(round), g),
    );
    timings.motion = span.end();
    let after_motion = config.keep_snapshots.then(|| program.clone());
    let span = tracer.span("phase", "flush");
    let flush = ctx.final_flush(&mut program, config);
    // The caches the flush read are freed in its phase.
    drop(ctx);
    timings.flush = span.end();
    hook(PhaseId::Flush, &mut program);
    root.arg("rounds", motion.rounds as i64)
        .arg("iterations", (motion.iterations + flush.iterations) as i64);
    drop(root);
    GlobalResult {
        program,
        after_init,
        after_motion,
        init,
        motion,
        flush,
        edges_split,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::alpha::canonical_text;
    use am_ir::interp;
    use am_ir::text::parse;

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
    fn snapshots_match_paper_phases() {
        let g = parse(RUNNING_EXAMPLE).unwrap();
        let result = optimize(&g);
        assert!(result.motion.converged);
        // Fig. 12 snapshot: the branch now compares two temporaries.
        let init_text = canonical_text(result.after_init.as_ref().unwrap());
        assert!(init_text.contains("branch h2 > h3"), "{init_text}");
        // Fig. 14 snapshot: everything hoisted to node 1, y := c+d of the
        // loop eliminated.
        let motion_text = canonical_text(result.after_motion.as_ref().unwrap());
        let node1 = motion_text.split("node 2 {").next().unwrap().to_owned();
        for line in [
            "h1 := c+d",
            "y := h1",
            "h2 := x+z",
            "h3 := y+i",
            "h4 := y+z",
            "x := h4",
        ] {
            assert!(
                node1.contains(line),
                "missing {line} in node 1:\n{motion_text}"
            );
        }
        // Fig. 15: final program.
        let final_text = canonical_text(&result.program);
        assert!(final_text.contains("x := y+z"), "{final_text}");
        assert!(final_text.contains("branch h2 > y+i"), "{final_text}");
    }

    #[test]
    fn the_by_value_entry_equals_the_borrowing_ones() {
        use am_ir::random::{corpus80, nest_grid, structured, wide_fan};
        use am_ir::random::{SplitMix64, StructuredConfig};
        let mut programs: Vec<FlowGraph> = corpus80().into_iter().map(|(_, g)| g).collect();
        for seed in 0..200 {
            let config = StructuredConfig::default();
            programs.push(structured(&mut SplitMix64::new(seed), &config));
        }
        programs.extend([nest_grid(20, 2, 8), wide_fan(100, 4)]);
        // Everything but the timings.
        let outcome = |r: GlobalResult| {
            let phases = (r.init, r.motion, r.flush, r.edges_split);
            (r.program, r.after_init, r.after_motion, phases)
        };
        let config = GlobalConfig::default();
        for (p, g) in programs.iter().enumerate() {
            let owned = outcome(optimize_owned(g.clone(), &config, &mut |_, _| {}));
            let borrowed = [
                ("optimize", optimize(g)),
                ("optimize_with", optimize_with(g, &config)),
                (
                    "optimize_hooked",
                    optimize_hooked(g, &config, &mut |_, _| {}),
                ),
            ];
            for (entry, result) in borrowed {
                assert!(outcome(result) == owned, "program {p}: {entry}");
            }
        }
    }

    #[test]
    fn optimize_does_not_touch_the_input() {
        let g = parse(RUNNING_EXAMPLE).unwrap();
        let before = am_ir::text::to_text(&g);
        let _ = optimize(&g);
        assert_eq!(am_ir::text::to_text(&g), before);
    }

    #[test]
    fn snapshots_can_be_disabled() {
        let g = parse(RUNNING_EXAMPLE).unwrap();
        let result = optimize_with(
            &g,
            &GlobalConfig {
                keep_snapshots: false,
                ..Default::default()
            },
        );
        assert!(result.after_init.is_none());
        assert!(result.after_motion.is_none());
    }

    #[test]
    fn untouched_computations_stay_untouched() {
        // The paper highlights that i := i+x and the y+i / i+x
        // computations of the running example are not moved — they cannot
        // be moved profitably.
        let g = parse(RUNNING_EXAMPLE).unwrap();
        let result = optimize(&g);
        let text = canonical_text(&result.program);
        assert!(text.contains("i := i+x"), "{text}");
        assert!(text.contains("y+i"), "{text}");
    }

    #[test]
    fn hook_fires_at_every_phase_boundary_with_matching_snapshots() {
        let g = parse(RUNNING_EXAMPLE).unwrap();
        let mut phases: Vec<(PhaseId, FlowGraph)> = Vec::new();
        let result = optimize_hooked(&g, &GlobalConfig::default(), &mut |phase, prog| {
            phases.push((phase, prog.clone()));
        });
        // Split, Init, at least one motion round, Flush — in order.
        assert_eq!(phases[0].0, PhaseId::Split);
        assert_eq!(phases[1].0, PhaseId::Init);
        assert!(matches!(phases[2].0, PhaseId::MotionRound(1)));
        assert_eq!(phases.last().unwrap().0, PhaseId::Flush);
        assert!(phases.windows(2).all(|w| w[0].0 < w[1].0), "{phases:?}");
        // The hook's snapshots agree with the result's own.
        let init_snap = &phases[1].1;
        assert_eq!(init_snap, result.after_init.as_ref().unwrap());
        let last_round = phases
            .iter()
            .rev()
            .find(|(p, _)| matches!(p, PhaseId::MotionRound(_)))
            .unwrap();
        assert_eq!(&last_round.1, result.after_motion.as_ref().unwrap());
        assert_eq!(phases.last().unwrap().1, result.program);
        // A hooked run equals a plain run.
        assert_eq!(optimize(&g).program, result.program);
    }

    #[test]
    fn the_universe_counter_counts_what_collect_counts() {
        use am_ir::random::{corpus80, nest_grid, wide_fan};
        use am_ir::PatternUniverse;
        let programs = corpus80().into_iter().map(|(_, g)| g);
        for (p, g) in programs
            .chain([nest_grid(20, 2, 8), wide_fan(100, 4)])
            .enumerate()
        {
            let (tracer, collector) = Tracer::collector();
            let config = GlobalConfig {
                tracer,
                ..GlobalConfig::default()
            };
            let result = optimize_with(&g, &config);
            let events = collector.events();
            let mut counters = events
                .iter()
                .filter(|e| e.cat == "meta" && e.name == "universe");
            let counter = counters.next().expect("a universe counter");
            assert!(counters.next().is_none(), "program {p}: one counter");
            let after_init = result.after_init.as_ref().expect("snapshots kept");
            let universe = PatternUniverse::collect(after_init);
            let expected = [
                ("assign_patterns", universe.assign_count()),
                ("expr_patterns", universe.expr_count()),
                ("nodes", after_init.node_count()),
                ("instrs", after_init.instr_count()),
            ];
            for (key, value) in expected {
                assert_eq!(counter.arg(key), Some(value as i64), "program {p}: {key}");
            }
        }
    }

    #[test]
    fn mutating_hook_feeds_later_phases() {
        // Corrupting the program after init changes the final outcome —
        // the fault-injection contract of the validation harness.
        let g = parse(RUNNING_EXAMPLE).unwrap();
        let clean = optimize(&g).program;
        let faulty = optimize_hooked(&g, &GlobalConfig::default(), &mut |phase, prog| {
            if phase == PhaseId::Init {
                let start = prog.start();
                prog.set_block(start, Vec::new());
            }
        });
        assert_ne!(faulty.program, clean);
    }

    #[test]
    fn global_preserves_semantics_on_random_programs() {
        use am_ir::random::SplitMix64;
        use am_ir::random::{structured, unstructured, StructuredConfig, UnstructuredConfig};
        for seed in 0..25 {
            let mut rng = SplitMix64::new(seed);
            let orig = if seed % 2 == 0 {
                structured(&mut rng, &StructuredConfig::default())
            } else {
                unstructured(&mut rng, &UnstructuredConfig::default())
            };
            let result = optimize(&orig);
            assert!(result.motion.converged, "seed {seed}");
            assert_eq!(result.program.validate(), Ok(()), "seed {seed}");
            for run_seed in 0..5 {
                let cfg = interp::Config {
                    oracle: interp::Oracle::random(seed * 31 + run_seed, 14),
                    inputs: vec![
                        ("v0".into(), 2),
                        ("v1".into(), -3),
                        ("v2".into(), 11),
                        ("v3".into(), 0),
                    ],
                    ..Default::default()
                };
                let a = interp::run(&orig, &cfg);
                let b = interp::run(&result.program, &cfg);
                assert_eq!(
                    a.observable(),
                    b.observable(),
                    "seed {seed}/{run_seed}\nORIG:\n{orig:?}\nOPT:\n{:?}",
                    result.program
                );
                if a.stop == interp::StopReason::ReachedEnd
                    && b.stop == interp::StopReason::ReachedEnd
                {
                    assert!(
                        b.expr_evals <= a.expr_evals,
                        "expression optimality violated at seed {seed}/{run_seed}: {} -> {}\nORIG:\n{orig:?}\nOPT:\n{:?}",
                        a.expr_evals,
                        b.expr_evals,
                        result.program
                    );
                }
            }
        }
    }
}

//! Heap allocation budgets for parse, optimize and emit, for the batch
//! engine's cold compile, and for a motion round that changes nothing.
//!
//! A counting global allocator tallies every allocation request (`alloc`,
//! `alloc_zeroed` and `realloc`) on the calling thread, so tests running
//! in parallel do not mix counts. Each stage case parses the program's
//! text, hands the parsed program to the optimizer by value
//! ([`optimize_owned`], the batch engine's entry and configuration, no
//! snapshots) and renders the result's canonical text, and asserts a
//! ceiling per stage. The ceilings hold about 10% headroom over the
//! debug-build counts, so a change that brings back a per-row,
//! per-statement or per-node allocation fails here; the graph's own
//! storage is checked to allocate nothing per node at two sizes of one
//! shape. Release builds may
//! elide some allocations; the ceilings are upper bounds and hold there
//! too.
//!
//! Print the counts with
//! `cargo test --release --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use am_bench::workloads::{nest_grid, wide_fan};
use am_core::global::{optimize_owned, GlobalConfig, PhaseId};
use am_ir::alpha::canonical_text;
use am_ir::random::corpus80;
use am_ir::rng::SplitMix64;
use am_ir::text::{parse, to_text};
use am_ir::FlowGraph;
use am_lang::SourceKind;
use am_pipeline::{Job, Pipeline, PipelineConfig};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every request is forwarded unchanged to the system allocator;
// the counter is a const-initialized thread-local `Cell` that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The batch engine's optimizer configuration: no snapshots.
fn batch_config() -> GlobalConfig {
    GlobalConfig {
        keep_snapshots: false,
        ..Default::default()
    }
}

/// Parse, optimize and emit allocation counts, summed over `sources`.
fn measure(sources: &[String]) -> [u64; 3] {
    let config = batch_config();
    let mut counts = [0; 3];
    for src in sources {
        let (g, parsed) = allocations(|| parse(src).expect("program parses"));
        let (result, optimized) = allocations(|| optimize_owned(g, &config, &mut |_, _| {}));
        let (text, emitted) = allocations(|| canonical_text(&result.program));
        assert!(!text.is_empty());
        for (total, n) in counts.iter_mut().zip([parsed, optimized, emitted]) {
            *total += n;
        }
    }
    counts
}

/// Measures `sources` and checks each stage against its ceiling.
fn check(case: &str, sources: &[String], ceilings: [u64; 3]) {
    let counts = measure(sources);
    println!(
        "{case}: parse {}, optimize {}, emit {} allocations",
        counts[0], counts[1], counts[2]
    );
    for ((stage, got), ceiling) in ["parse", "optimize", "emit"]
        .iter()
        .zip(counts)
        .zip(ceilings)
    {
        assert!(
            got <= ceiling,
            "{case}: {stage} made {got} allocations, over its budget of {ceiling}"
        );
    }
}

#[test]
fn wide_fan_allocations_are_budgeted() {
    check(
        "wide_fan(300,4)",
        &[to_text(&wide_fan(300, 4))],
        [63, 128, 15],
    );
}

#[test]
fn nest_grid_allocations_are_budgeted() {
    check(
        "nest_grid(40,2,8)",
        &[to_text(&nest_grid(40, 2, 8))],
        [68, 181, 15],
    );
}

#[test]
fn corpus80_allocations_are_budgeted() {
    let sources: Vec<String> = corpus80().iter().map(|(_, g)| to_text(g)).collect();
    check("corpus80", &sources, [4_035, 10_700, 782]);
}

/// A while-language program of the `corpus` benchmark's shape: two to
/// five statements (assignments of nested expressions, branches, counted
/// loops), then a `print` of every variable.
fn while_program(rng: &mut SplitMix64) -> String {
    fn expr(rng: &mut SplitMix64, depth: usize) -> String {
        if depth == 0 || rng.gen_bool(0.4) {
            return if rng.gen_bool(0.75) {
                (*rng.choose(&["a", "b", "c", "d", "e"])).to_owned()
            } else {
                rng.gen_range(0..10i64).to_string()
            };
        }
        let op = *rng.choose(&["+", "-", "*"]);
        format!("({} {op} {})", expr(rng, depth - 1), expr(rng, depth - 1))
    }
    fn stmt(rng: &mut SplitMix64, out: &mut String, depth: usize, loops: &mut usize) {
        let roll = rng.gen_f64();
        let body = |rng: &mut SplitMix64, out: &mut String, loops: &mut usize| {
            for _ in 0..rng.gen_range(1..=3usize) {
                stmt(rng, out, depth + 1, loops);
            }
        };
        if depth < 2 && roll < 0.12 {
            out.push_str(&format!("if ({} < {}) {{\n", expr(rng, 1), expr(rng, 1)));
            body(rng, out, loops);
            out.push_str("} else {\n");
            body(rng, out, loops);
            out.push_str("}\n");
        } else if depth < 2 && roll < 0.30 {
            let k = format!("k{loops}");
            *loops += 1;
            out.push_str(&format!(
                "{k} := {};\nwhile ({k} > 0) {{\n",
                rng.gen_range(1..=3i64)
            ));
            body(rng, out, loops);
            out.push_str(&format!("{k} := {k} - 1;\n}}\n"));
        } else {
            let var = *rng.choose(&["a", "b", "c", "d", "e"]);
            out.push_str(&format!("{var} := {};\n", expr(rng, 2)));
        }
    }
    let (mut src, mut loops) = (String::new(), 0);
    for _ in 0..rng.gen_range(2..=5usize) {
        stmt(rng, &mut src, 0, &mut loops);
    }
    src.push_str("print(a, b, c, d, e);\n");
    src
}

/// The 80 `corpus80` programs as `.ir` jobs and 40 generated `.wl` jobs.
fn corpus_jobs() -> Vec<Job> {
    let mut jobs: Vec<Job> = corpus80()
        .iter()
        .map(|(name, g)| Job::from_source(name.clone(), SourceKind::Ir, to_text(g)))
        .collect();
    let mut rng = SplitMix64::new(24);
    for i in 0..40 {
        jobs.push(Job::from_source(
            format!("w{i}.wl"),
            SourceKind::While,
            while_program(&mut rng),
        ));
    }
    jobs
}

#[test]
fn cold_pipeline_jobs_are_budgeted() {
    // `run_job` on a fresh engine is one cold compile: read, parse, hash,
    // cache miss, optimize, emit and cache insert.
    let jobs = corpus_jobs();
    let mut total = 0;
    for job in &jobs {
        let pipeline = Pipeline::new(PipelineConfig {
            workers: Some(1),
            ..PipelineConfig::default()
        });
        let (report, n) = allocations(|| pipeline.run_job(job));
        let optimized = report.optimized().expect("the job optimizes");
        assert!(
            !optimized.source.is_cached(),
            "{}: a cold engine hit",
            job.name
        );
        total += n;
    }
    println!(
        "run_job: {total} allocations over {} jobs ({:.1} per job)",
        jobs.len(),
        total as f64 / jobs.len() as f64
    );
    let ceiling = 33_200;
    assert!(
        total <= ceiling,
        "run_job made {total} allocations, over its budget of {ceiling}"
    );
}

/// Allocations of every motion round after the first that wrote nothing
/// to the program (so it eliminated nothing and its hoist changed
/// nothing), counted between the phase hooks around it.
fn quiet_round_allocations(g: FlowGraph) -> Vec<(usize, u64)> {
    // (round, allocations at hook entry, at hook exit, last write stamp)
    let mut marks: Vec<(usize, u64, u64, u64)> = Vec::with_capacity(1024);
    optimize_owned(g, &batch_config(), &mut |phase, g| {
        let entered = ALLOCATIONS.with(Cell::get);
        if let PhaseId::MotionRound(round) = phase {
            if marks.len() < marks.capacity() {
                marks.push((round, entered, 0, g.last_stamp()));
            }
        }
        if let Some(mark) = marks.last_mut() {
            mark.2 = ALLOCATIONS.with(Cell::get);
        }
    });
    marks
        .windows(2)
        .filter(|w| w[1].3 == w[0].3)
        .map(|w| (w[1].0, w[1].1 - w[0].2))
        .collect()
}

#[test]
fn a_round_that_changes_nothing_allocates_nothing() {
    let shapes = [
        ("corpus80", corpus80().into_iter().map(|(_, g)| g).collect()),
        ("nest_grid(20,2,8)", vec![nest_grid(20, 2, 8)]),
        ("wide_fan(100,4)", vec![wide_fan(100, 4)]),
    ];
    for (shape, programs) in shapes {
        let mut quiet = 0;
        for (p, g) in programs.into_iter().enumerate() {
            for (round, n) in quiet_round_allocations(g) {
                assert_eq!(n, 0, "{shape} program {p}: quiet round {round} allocated");
                quiet += 1;
            }
        }
        println!("{shape}: {quiet} quiet rounds, none allocated");
        assert!(quiet > 0, "{shape}: no quiet round after the first");
    }
}

/// The allocations of each phase of one batch optimize run of `g`, from
/// the run's start or the previous phase's hook to this phase's.
fn phase_allocations(g: FlowGraph) -> Vec<(PhaseId, u64)> {
    let mut phases = Vec::with_capacity(16);
    let mut last = ALLOCATIONS.with(Cell::get);
    optimize_owned(g, &batch_config(), &mut |phase, _| {
        let now = ALLOCATIONS.with(Cell::get);
        if phases.len() < phases.capacity() {
            phases.push((phase, now - last));
        }
        last = ALLOCATIONS.with(Cell::get);
    });
    phases
}

#[test]
fn graph_storage_does_not_allocate_per_node() {
    // Parsing sizes the graph's stores from the token count: a fan ten
    // times as wide costs a few more allocations, not one per node.
    let parse_of = |branches| {
        let text = to_text(&wide_fan(branches, 4));
        allocations(|| parse(&text).expect("program parses")).1
    };
    let (narrow, wide) = (parse_of(250), parse_of(2500));
    println!("parse wide_fan(250,4) {narrow}, wide_fan(2500,4) {wide} allocations");
    assert!(
        wide.abs_diff(narrow) <= 16,
        "parse allocations grow with the fan: {narrow} -> {wide}"
    );
    // Splitting counts the critical edges first and sizes every store
    // once, whether the graph was parsed or built.
    for copies in [20, 80] {
        let built = nest_grid(copies, 2, 8);
        let parsed = parse(&to_text(&built)).expect("program parses");
        for (how, mut g) in [("built", built), ("parsed", parsed)] {
            let (split, n) = allocations(|| g.split_critical_edges());
            println!("split of {how} nest_grid({copies},2,8): {split} edges, {n} allocations");
            assert_eq!(split, 2 * copies, "{how}: edges split");
            assert!(
                n <= 8,
                "{how} nest_grid({copies},2,8): split made {n} allocations"
            );
        }
    }
    // The motion rounds' first insertions into the split blocks move
    // rows within the slab: no round allocates per block, so each round
    // costs about the same at four times the size.
    let small = phase_allocations(nest_grid(20, 2, 8));
    let large = phase_allocations(nest_grid(80, 2, 8));
    assert_eq!(small.len(), large.len(), "the same phases");
    for (&(phase, s), &(_, l)) in small.iter().zip(&large) {
        println!("{phase}: nest_grid(20,2,8) {s}, nest_grid(80,2,8) {l} allocations");
        assert!(
            l.abs_diff(s) <= 16,
            "{phase} allocations grow with the program: {s} -> {l}"
        );
    }
}

//! The dataflow-engine scaling benchmark: runs the complexity-study
//! workload ladder end-to-end through `optimize` and writes an
//! `am-bench-dataflow/v1` JSON document (wall times + solver counters per
//! workload) for trajectory tracking across PRs.
//!
//! ```sh
//! cargo run --release -p am-bench --bin bench_dataflow
//! cargo run --release -p am-bench --bin bench_dataflow -- \
//!     --small --out target/BENCH_dataflow.json --max-pushes-per-point 64
//! cargo run --release -p am-bench --bin bench_dataflow -- --xl
//! ```
//!
//! `--max-pushes-per-point` turns the run into a CI gate: the run fails if
//! any workload's `worklist_pushes / points` exceeds the ceiling (which
//! catches accidental loss of worklist dedup or priority ordering).
//! `--max-wall-micros` is the XL smoke gate: the run fails if any
//! workload's best wall time exceeds the ceiling.
//!
//! Every run prints the fitted nodes-vs-wall exponent of each family it
//! measured with at least two rungs (loop nests, diamond chains, random
//! graphs), turning the paper's Sec. 4.5 complexity claim into a measured
//! curve. The XL ladder (`--xl`) extends the study to 10k–100k-point
//! graphs in three more families (sequential loop-nest grids, very wide
//! fans, inlined program shapes). The `flush%` column is each workload's
//! final-flush share of its best wall time. `--xl-smoke` runs just the
//! mid-size nest rung for CI.
//!
//! The `allocs` column is the heap allocations of one optimize run, the
//! program handed over by value (no copy), counted by this binary's
//! global allocator; the record's `allocations` field carries it, and
//! `amstat regress` fails a rung whose count rose at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::ExitCode;
use std::time::Instant;

use am_bench::workloads::{
    diamond_chain, fit_nodes_exponent, inlined_program, loop_nest, nest_grid, wide_fan,
};
use am_core::global::{optimize_owned, optimize_with, GlobalConfig};
use am_ir::random::{unstructured, SplitMix64, UnstructuredConfig};
use am_ir::FlowGraph;
use am_pipeline::bench_json::{render, BenchRecord};

struct Options {
    out: String,
    iters: u32,
    small: bool,
    xl: bool,
    xl_smoke: bool,
    max_pushes_per_point: Option<f64>,
    max_wall_micros: Option<u128>,
    history: Option<String>,
}

const USAGE: &str = "usage: bench_dataflow [options]

Runs the scaling workload ladder through the full optimizer and writes
machine-readable benchmark records (am-bench-dataflow/v1 JSON).

options:
  --out PATH                output file (default BENCH_dataflow.json)
  --iters N                 timed iterations per workload, best-of (default 5)
  --small                   CI ladder: smallest two sizes per family
  --xl                      also run the XL ladder (10k-100k point graphs)
  --xl-smoke                also run one mid-size XL rung (CI smoke)
  --max-pushes-per-point X  fail (exit 1) if any workload exceeds this
                            worklist_pushes / points ratio
  --max-wall-micros X       fail (exit 1) if any workload's best wall time
                            exceeds X microseconds
  --history PATH            also append the run to an append-only history
                            (default BENCH_history.jsonl; see amstat regress)
  --no-history              skip the history append
  --help                    this text";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_dataflow.json".to_owned(),
        iters: 5,
        small: false,
        xl: false,
        xl_smoke: false,
        max_pushes_per_point: None,
        max_wall_micros: None,
        history: Some("BENCH_history.jsonl".to_owned()),
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => opts.out = value(&mut args, "--out")?,
            "--iters" => {
                opts.iters = value(&mut args, "--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
                if opts.iters == 0 {
                    return Err("--iters must be at least 1".to_owned());
                }
            }
            "--small" => opts.small = true,
            "--xl" => opts.xl = true,
            "--xl-smoke" => opts.xl_smoke = true,
            "--max-pushes-per-point" => {
                opts.max_pushes_per_point = Some(
                    value(&mut args, "--max-pushes-per-point")?
                        .parse()
                        .map_err(|e| format!("--max-pushes-per-point: {e}"))?,
                );
            }
            "--max-wall-micros" => {
                opts.max_wall_micros = Some(
                    value(&mut args, "--max-wall-micros")?
                        .parse()
                        .map_err(|e| format!("--max-wall-micros: {e}"))?,
                );
            }
            "--history" => opts.history = Some(value(&mut args, "--history")?),
            "--no-history" => opts.history = None,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument '{other}'; --help for usage")),
        }
    }
    Ok(opts)
}

/// The workload ladder: three families swept over size. `small` keeps the
/// two smallest rungs per family for the CI smoke job.
fn ladder(small: bool) -> Vec<(String, FlowGraph)> {
    let take = if small { 2 } else { 4 };
    let mut workloads = Vec::new();
    for depth in [1usize, 2, 4, 6].into_iter().take(take) {
        workloads.push((format!("nest d={depth} w=4"), loop_nest(depth, 4)));
    }
    for sections in [4usize, 8, 16, 32].into_iter().take(take) {
        workloads.push((
            format!("diamonds s={sections} w=4"),
            diamond_chain(sections, 4),
        ));
    }
    for nodes in [8usize, 16, 32, 64].into_iter().take(take) {
        let mut rng = SplitMix64::new(nodes as u64);
        let g = unstructured(
            &mut rng,
            &UnstructuredConfig {
                nodes,
                extra_edges: nodes / 2,
                max_instrs: 4,
                num_vars: 6,
                allow_div: false,
            },
        );
        workloads.push((format!("random n={nodes}"), g));
    }
    workloads
}

/// The XL ladder: 3.5k / 10k / 30k-node rungs per family. `smoke` keeps
/// one mid-size rung (the checked-in CI gate rung).
fn xl_ladder(smoke: bool) -> Vec<(String, FlowGraph)> {
    if smoke {
        return vec![("xl nest c=2000".to_owned(), nest_grid(2000, 2, 8))];
    }
    let mut workloads = Vec::new();
    for copies in [700usize, 2000, 6000] {
        workloads.push((format!("xl nest c={copies}"), nest_grid(copies, 2, 8)));
    }
    for branches in [3500usize, 10000, 30000] {
        workloads.push((format!("xl fan b={branches}"), wide_fan(branches, 4)));
    }
    for calls in [1200usize, 3300, 10000] {
        workloads.push((format!("xl inline c={calls}"), inlined_program(calls, 48)));
    }
    workloads
}

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation request (`alloc`, `alloc_zeroed`, `realloc`)
/// on the calling thread.
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

/// Runs one workload `iters` times, keeping the fastest end-to-end run
/// (and its per-phase timings; the counters are deterministic).
fn measure(label: &str, g: &FlowGraph, iters: u32) -> BenchRecord {
    let config = GlobalConfig {
        keep_snapshots: false,
        ..Default::default()
    };
    // Warmup, counting its allocations (the copy is made outside the
    // count), then best-of-N: minimum wall time is the least noisy
    // estimator on a shared machine.
    let program = g.clone();
    let before = ALLOCATIONS.with(Cell::get);
    let _ = optimize_owned(program, &config, &mut |_, _| {});
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let mut best_wall = u128::MAX;
    let mut best = None;
    for _ in 0..iters {
        let start = Instant::now();
        let result = optimize_with(g, &config);
        let wall = start.elapsed().as_micros();
        if wall < best_wall {
            best_wall = wall;
            best = Some(result);
        }
    }
    let result = best.expect("at least one timed iteration");
    BenchRecord {
        label: label.to_owned(),
        nodes: g.node_count(),
        instrs: g.instr_count(),
        points: g.point_count(),
        wall_micros: best_wall,
        split_micros: result.timings.split.as_micros(),
        init_micros: result.timings.init.as_micros(),
        motion_micros: result.timings.motion.as_micros(),
        flush_micros: result.timings.flush.as_micros(),
        rounds: result.motion.rounds,
        converged: result.motion.converged,
        iterations: result.motion.iterations + result.flush.iterations,
        worklist_pushes: result.motion.worklist_pushes + result.flush.worklist_pushes,
        max_worklist_len: result.flush.max_worklist_len,
        eliminated: result.motion.eliminated,
        inserted: result.motion.inserted,
        removed: result.motion.removed,
        cache_hit: false,
        allocations: Some(allocations),
    }
}

/// Writes the report via a temporary file and an atomic rename, so a
/// crashed or interrupted run can never leave a truncated JSON document
/// where a previous good report used to be (multi-MB XL reports made
/// that failure mode real).
fn write_atomic(path: &str, doc: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, doc)?;
    std::fs::rename(&tmp, path)
}

/// A workload's family: its label up to the first parameter
/// (`"xl nest c=700"` is in family `"xl nest"`).
fn family(label: &str) -> &str {
    let head = label.split_once('=').map_or(label, |(head, _)| head);
    head.rsplit_once(' ').map_or(head, |(family, _)| family)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut workloads = ladder(opts.small);
    if opts.xl || opts.xl_smoke {
        workloads.extend(xl_ladder(!opts.xl));
    }
    let mut records = Vec::new();
    println!(
        "{:<18} {:>6} {:>7} {:>7} {:>10} {:>7} {:>9} {:>9} {:>8} {:>7} {:>8}",
        "workload",
        "nodes",
        "instrs",
        "points",
        "wall(us)",
        "rounds",
        "iters",
        "pushes",
        "push/pt",
        "flush%",
        "allocs"
    );
    for (label, g) in workloads {
        // XL rungs run fewer timed iterations: a 30k-node rung at
        // best-of-5 would dominate the whole run for little extra
        // precision.
        let iters = if label.starts_with("xl ") {
            opts.iters.min(3)
        } else {
            opts.iters
        };
        let rec = measure(&label, &g, iters);
        println!(
            "{:<18} {:>6} {:>7} {:>7} {:>10} {:>7} {:>9} {:>9} {:>8.1} {:>7.1} {:>8}",
            rec.label,
            rec.nodes,
            rec.instrs,
            rec.points,
            rec.wall_micros,
            rec.rounds,
            rec.iterations,
            rec.worklist_pushes,
            rec.pushes_per_point(),
            100.0 * rec.flush_micros as f64 / rec.wall_micros.max(1) as f64,
            rec.allocations.unwrap_or(0)
        );
        records.push(rec);
    }
    for rungs in records.chunk_by(|a, b| family(&a.label) == family(&b.label)) {
        let e = fit_nodes_exponent(rungs.iter().map(|r| (r.nodes, r.wall_micros)));
        if e.is_finite() {
            println!("fit: {:<10} wall ~ nodes^{e:.2}", family(&rungs[0].label));
        }
    }
    let doc = render("bench_dataflow", &records);
    if let Err(e) = write_atomic(&opts.out, &doc) {
        eprintln!("{}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {} records to {}", records.len(), opts.out);
    if let Some(history) = &opts.history {
        match am_obs::regress::append_history(std::path::Path::new(history), &doc) {
            Ok(()) => println!("appended this run to {history}"),
            Err(e) => {
                eprintln!("bench_dataflow: history: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut over = false;
    if let Some(ceiling) = opts.max_pushes_per_point {
        for rec in &records {
            if rec.pushes_per_point() > ceiling {
                eprintln!(
                    "GATE: {} pushed {:.1} times per point (ceiling {ceiling})",
                    rec.label,
                    rec.pushes_per_point()
                );
                over = true;
            }
        }
        if !over {
            println!("gate ok: every workload under {ceiling} pushes/point");
        }
    }
    if let Some(ceiling) = opts.max_wall_micros {
        let mut wall_over = false;
        for rec in &records {
            if rec.wall_micros > ceiling {
                eprintln!(
                    "GATE: {} took {}us (ceiling {ceiling}us)",
                    rec.label, rec.wall_micros
                );
                wall_over = true;
            }
        }
        if !wall_over {
            println!("gate ok: every workload under {ceiling}us wall");
        }
        over |= wall_over;
    }
    if over {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

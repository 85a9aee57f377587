//! Seeded translation-validation campaigns from the command line.
//!
//! ```sh
//! amcheck --seeds 0..500                     # clean sweep
//! amcheck --seeds 0..50 --inject flush --fault drop-instr
//! amcheck program.ir other.wl                # validate specific files
//! ```
//!
//! Exit status: 0 all seeds/files pass, 1 at least one failure (bundles
//! under `--out`, default `target/am-check`) or one file left unchecked
//! (no interpreter run of either program finished within the step limit
//! on a stage the prover did not discharge), 2 usage error. Campaign
//! seeds left unchecked are counted, not failed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use am_check::campaign::{
    check_file, default_bundle_dir, parse_seed_range, run_campaign, CampaignConfig, FileCheck,
};
use am_check::fault::{FaultKind, FaultSpec, InjectAt};
use am_lang::{compile_source, SourceKind};

const USAGE: &str = "\
usage: amcheck [OPTIONS] [FILE...]

Validates every optimizer phase differentially on random programs (or the
given .ir/.wl files), shrinking failures and writing reproduction bundles.

options:
  --seeds A..B      seed range, end-exclusive (default 0..200); N means N..N+1
  --runs N          corresponding runs per phase pair (default 10)
  --decisions N     oracle decisions per run (default 14)
  --fail-fast       stop at the first failing seed
  --inject WHERE    inject a fault: init, round:N, flush (harness self-test)
  --fault KIND      fault kind: tweak-const, drop-instr, duplicate-eval,
                    swap-pattern-ids (default tweak-const; only with --inject)
  --lint            also run the am-lint static suite on each final
                    snapshot; reports seeds with error-severity findings
  --no-prove        disable the symbolic equivalence prover (on by default:
                    each phase pair is proved for all inputs first, and the
                    interpreter only runs on inconclusive pairs)
  --max-inconclusive PCT
                    fail if more than PCT percent of proof attempts were
                    inconclusive (CI gate; only meaningful with the prover on)
  --out DIR         bundle directory (default target/am-check)
  --no-bundles      do not shrink or write bundles
  -h, --help        show this help
";

fn fail_usage(msg: &str) -> ExitCode {
    eprintln!("amcheck: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cfg = CampaignConfig {
        bundle_dir: Some(default_bundle_dir(&PathBuf::from("."))),
        ..CampaignConfig::default()
    };
    let mut inject: Option<InjectAt> = None;
    let mut fault_kind = FaultKind::TweakConst;
    let mut files: Vec<String> = Vec::new();
    let mut max_inconclusive_pct: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--seeds" => match value("--seeds").map(|v| parse_seed_range(&v)) {
                Ok(Some((a, b))) => (cfg.seed_start, cfg.seed_end) = (a, b),
                Ok(None) => return fail_usage("--seeds wants A..B or N"),
                Err(e) => return fail_usage(&e),
            },
            "--runs" => match value("--runs").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.runs = n,
                _ => return fail_usage("--runs wants a number"),
            },
            "--decisions" => match value("--decisions").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.decisions = n,
                _ => return fail_usage("--decisions wants a number"),
            },
            "--fail-fast" => cfg.fail_fast = true,
            "--lint" => cfg.lint = true,
            "--no-prove" => cfg.prove = false,
            "--max-inconclusive" => match value("--max-inconclusive").map(|v| v.parse()) {
                Ok(Ok(n)) => max_inconclusive_pct = Some(n),
                _ => return fail_usage("--max-inconclusive wants a percentage"),
            },
            "--inject" => match value("--inject") {
                Ok(v) => {
                    inject = Some(match v.as_str() {
                        "init" => InjectAt::Init,
                        "flush" => InjectAt::Flush,
                        other => match other.strip_prefix("round:").and_then(|r| r.parse().ok()) {
                            Some(r) => InjectAt::MotionRound(r),
                            None => return fail_usage("--inject wants init, round:N or flush"),
                        },
                    })
                }
                Err(e) => return fail_usage(&e),
            },
            "--fault" => match value("--fault").as_deref() {
                Ok("tweak-const") => fault_kind = FaultKind::TweakConst,
                Ok("drop-instr") => fault_kind = FaultKind::DropInstr,
                Ok("duplicate-eval") => fault_kind = FaultKind::DuplicateEval,
                Ok("swap-pattern-ids") => fault_kind = FaultKind::SwapPatternIds,
                Ok(_) => {
                    return fail_usage(
                        "--fault wants tweak-const, drop-instr, duplicate-eval \
                         or swap-pattern-ids",
                    )
                }
                Err(e) => return fail_usage(e),
            },
            "--out" => match value("--out") {
                Ok(v) => cfg.bundle_dir = Some(PathBuf::from(v)),
                Err(e) => return fail_usage(&e),
            },
            "--no-bundles" => cfg.bundle_dir = None,
            other if other.starts_with('-') => {
                return fail_usage(&format!("unknown option {other}"))
            }
            file => files.push(file.to_string()),
        }
    }
    cfg.fault = inject.map(|at| FaultSpec {
        at,
        kind: fault_kind,
    });

    let mut failed = 0usize;
    if files.is_empty() {
        let total = cfg.seed_end - cfg.seed_start;
        eprintln!(
            "amcheck: validating seeds {}..{} ({} programs, {} runs each)",
            cfg.seed_start, cfg.seed_end, total, cfg.runs
        );
        let report = run_campaign(&cfg, &mut |seed, fails| {
            let done = seed + 1 - cfg.seed_start;
            if done.is_multiple_of(100) {
                eprintln!("... {done}/{total} seeds, {fails} failures");
            }
        });
        for f in &report.failures {
            let shrunk = f
                .minimized_nodes
                .map(|n| format!(", shrunk to {n} nodes"))
                .unwrap_or_default();
            let bundle = f
                .bundle
                .as_ref()
                .map(|p| format!(" -> {}", p.display()))
                .unwrap_or_default();
            eprintln!(
                "seed {}: FAILED at {} ({:?}){shrunk}{bundle}",
                f.seed, f.failure.stage, f.failure.kind
            );
        }
        let lints = if cfg.lint {
            format!(", {} lints tripped", report.lints_tripped)
        } else {
            String::new()
        };
        println!(
            "amcheck: {} seeds checked ({} skipped, {} unchecked), {} stage pairs, {} failures{lints}",
            report.seeds_checked,
            report.seeds_skipped,
            report.seeds_unchecked,
            report.stages_checked,
            report.failures.len()
        );
        if !report.prove.is_empty() {
            println!("amcheck prover: {}", report.prove);
        }
        failed += report.failures.len();
        if let Some(pct) = max_inconclusive_pct {
            let t = report.prove.total();
            if t.inconclusive * 100 > t.total() * pct {
                eprintln!(
                    "amcheck: inconclusive rate above {pct}% ({} of {} proof attempts)",
                    t.inconclusive,
                    t.total()
                );
                failed += 1;
            }
        }
    } else {
        for file in &files {
            let src = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => return fail_usage(&format!("cannot read {file}: {e}")),
            };
            let Some(kind) = SourceKind::from_path(Path::new(file)) else {
                eprintln!("{file}: unknown file type (expected .wl or .ir)");
                failed += 1;
                continue;
            };
            let program = match compile_source(kind, &src) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("{file}: parse error: {e}");
                    failed += 1;
                    continue;
                }
            };
            match check_file(file, &program, &cfg) {
                Ok(FileCheck::Checked) => println!("{file}: ok"),
                Ok(FileCheck::Unchecked(reason)) => {
                    eprintln!("{file}: UNCHECKED ({reason})");
                    failed += 1;
                }
                Err(f) => {
                    let bundle = f
                        .bundle
                        .as_ref()
                        .map(|p| format!(" -> {}", p.display()))
                        .unwrap_or_default();
                    eprintln!(
                        "{file}: FAILED at {} ({:?}){bundle}",
                        f.failure.stage, f.failure.kind
                    );
                    failed += 1;
                }
            }
        }
    }

    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

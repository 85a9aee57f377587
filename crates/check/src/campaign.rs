//! Seeded validation campaigns over the random-program corpus.
//!
//! [`run_campaign`] sweeps a seed range, generating each program with
//! [`seed_program`] (a fixed distribution, so a seed number names the
//! same program across releases), validating it per phase, and — on
//! failure — shrinking the witness and writing a reproduction bundle. The
//! `amcheck` binary is a thin wrapper around this.

use std::path::{Path, PathBuf};

use am_ir::random::{structured, unstructured, SplitMix64, StructuredConfig, UnstructuredConfig};
use am_ir::FlowGraph;
use am_trace::Tracer;

use crate::bundle::{write_bundle, Bundle};
use crate::fault::FaultSpec;
use crate::shrink::{shrink, ShrinkConfig};
use crate::stage::Stage;
use crate::validate::{validate, Failure, ValidationConfig, VerdictCounts};
use am_prove::Verdict;

/// The deterministic program for `seed` — one third structured, one third
/// structured with division and deeper nesting, one third unstructured
/// with seed-dependent size. The distribution is fixed so seed numbers
/// are stable identifiers.
pub fn seed_program(seed: u64) -> FlowGraph {
    let mut rng = SplitMix64::new(seed);
    match seed % 3 {
        0 => structured(&mut rng, &StructuredConfig::default()),
        1 => structured(
            &mut rng,
            &StructuredConfig {
                allow_div: true,
                max_depth: 4,
                ..Default::default()
            },
        ),
        _ => unstructured(
            &mut rng,
            &UnstructuredConfig {
                nodes: 8 + (seed as usize % 12),
                extra_edges: 4 + (seed as usize % 8),
                max_instrs: 4,
                num_vars: 6,
                allow_div: seed % 6 == 5,
            },
        ),
    }
}

/// The validation configuration campaigns use for `seed` — fixed inputs
/// (`v0` varies with the seed) and oracle seeding.
pub fn seed_validation_config(seed: u64, runs: usize, decisions: usize) -> ValidationConfig {
    ValidationConfig {
        runs,
        decisions,
        seed: seed.wrapping_mul(1_000_003),
        inputs: vec![
            ("v0".into(), (seed as i64 % 7) - 3),
            ("v1".into(), 2),
            ("v2".into(), -5),
            ("v3".into(), 1),
        ],
        ..ValidationConfig::default()
    }
}

/// Parameters of one [`run_campaign`] sweep.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Corresponding runs per snapshot pair.
    pub runs: usize,
    /// Oracle decisions per run.
    pub decisions: usize,
    /// Stop at the first failing seed.
    pub fail_fast: bool,
    /// Inject this fault into every seed's optimization (harness
    /// self-test; seeds where the fault finds no site are skipped).
    pub fault: Option<FaultSpec>,
    /// Cross-check every seed's final snapshot with the `am-lint` static
    /// suite; [`CampaignReport::lints_tripped`] counts the seeds whose
    /// snapshot had error-severity findings. On clean optimizer output
    /// that count must be zero; under fault injection a nonzero count
    /// shows the linter catching corruption statically.
    pub lint: bool,
    /// Shrink failures and write bundles here; `None` disables both.
    pub bundle_dir: Option<PathBuf>,
    /// Shrinker budget.
    pub shrink: ShrinkConfig,
    /// Trace sink: one `campaign/seed` span per seed plus running
    /// progress counters. Disabled (a no-op) by default.
    pub tracer: Tracer,
    /// Run the symbolic equivalence prover on every snapshot pair before
    /// the interpreter (see [`ValidationConfig::prove`]). **On by
    /// default**: campaigns demand that injected faults be refuted
    /// statically, for all inputs, and that clean seeds be statically
    /// proved rather than merely sampled.
    pub prove: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed_start: 0,
            seed_end: 200,
            runs: 10,
            decisions: 14,
            fail_fast: false,
            fault: None,
            lint: false,
            bundle_dir: None,
            shrink: ShrinkConfig::default(),
            tracer: Tracer::disabled(),
            prove: true,
        }
    }
}

/// Per-phase prover verdict counts accumulated across a campaign, keyed
/// by stage class (every motion round lands in [`ProveSummary::motion`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProveSummary {
    /// Original vs. split snapshot.
    pub split: VerdictCounts,
    /// Split vs. initialization snapshot.
    pub init: VerdictCounts,
    /// All consecutive motion-round pairs.
    pub motion: VerdictCounts,
    /// Last round vs. flush snapshot.
    pub flush: VerdictCounts,
    /// Original vs. final snapshot, end to end.
    pub end_to_end: VerdictCounts,
}

impl ProveSummary {
    /// Records one verdict under its stage class. Baseline stages are
    /// never proved and are ignored.
    pub fn add(&mut self, stage: Stage, v: Verdict) {
        let slot = match stage {
            Stage::Split => &mut self.split,
            Stage::Init => &mut self.init,
            Stage::MotionRound(_) => &mut self.motion,
            Stage::Flush => &mut self.flush,
            Stage::Final => &mut self.end_to_end,
            Stage::Lcm | Stage::Sink => return,
        };
        slot.add(v);
    }

    /// Totals over all stage classes.
    pub fn total(&self) -> VerdictCounts {
        let mut t = VerdictCounts::default();
        for c in [
            self.split,
            self.init,
            self.motion,
            self.flush,
            self.end_to_end,
        ] {
            t.proved += c.proved;
            t.refuted += c.refuted;
            t.inconclusive += c.inconclusive;
        }
        t
    }

    /// No proof attempt was recorded (the prover was off).
    pub fn is_empty(&self) -> bool {
        self.total().total() == 0
    }
}

impl std::fmt::Display for ProveSummary {
    /// Per-phase `proved/refuted/inconclusive` counts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "split {}, init {}, motion {}, flush {}, final {} (proved/refuted/inconclusive)",
            self.split, self.init, self.motion, self.flush, self.end_to_end
        )
    }
}

/// One failing seed of a campaign.
#[derive(Clone, Debug)]
pub struct SeedFailure {
    /// The failing seed.
    pub seed: u64,
    /// The localized failure.
    pub failure: Failure,
    /// Node count of the shrunk witness, when shrinking ran.
    pub minimized_nodes: Option<usize>,
    /// Where the reproduction bundle was written, when one was.
    pub bundle: Option<PathBuf>,
}

/// The outcome of a [`run_campaign`] sweep.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Seeds validated (excludes skipped ones).
    pub seeds_checked: u64,
    /// Seeds skipped because a requested fault found no injection site.
    pub seeds_skipped: u64,
    /// Snapshot pairs differentially checked, across all seeds.
    pub stages_checked: u64,
    /// Seeds whose final snapshot had error-severity lint findings
    /// (always 0 unless [`CampaignConfig::lint`] is set).
    pub lints_tripped: u64,
    /// Per-phase prover verdict counts, across all seeds (empty when
    /// [`CampaignConfig::prove`] is off).
    pub prove: ProveSummary,
    /// Every failing seed, in order.
    pub failures: Vec<SeedFailure>,
}

impl CampaignReport {
    /// No seed failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Sweeps `cfg`'s seed range; see the module docs. `progress` is called
/// after every seed with (seed, failed-so-far) — binaries print from it,
/// library callers pass `|_, _| {}`.
pub fn run_campaign(cfg: &CampaignConfig, progress: &mut dyn FnMut(u64, usize)) -> CampaignReport {
    let mut report = CampaignReport::default();
    for seed in cfg.seed_start..cfg.seed_end {
        let mut span = cfg.tracer.span("campaign", "seed");
        span.arg("seed", seed as i64);
        let program = seed_program(seed);
        let vcfg = ValidationConfig {
            fault: cfg.fault,
            lint: cfg.lint,
            tracer: cfg.tracer.clone(),
            prove: cfg.prove,
            ..seed_validation_config(seed, cfg.runs, cfg.decisions)
        };
        let v = validate(&program, &vcfg);
        if cfg.fault.is_some() && !v.fault_injected {
            report.seeds_skipped += 1;
            span.arg("skipped", 1);
            drop(span);
            progress(seed, report.failures.len());
            continue;
        }
        report.seeds_checked += 1;
        report.stages_checked += v.stages_checked as u64;
        for (stage, verdict) in &v.prove_verdicts {
            report.prove.add(*stage, *verdict);
        }
        span.arg("stages", v.stages_checked as i64);
        if let Some(lint) = &v.lint {
            if lint.has_errors() {
                report.lints_tripped += 1;
                span.arg("lint_errors", lint.errors as i64);
            }
        }
        let failed = v.failure.is_some();
        if let Some(failure) = v.failure {
            let entry = handle_failure(seed, &program, &vcfg, failure, v.prove_verdicts, cfg);
            report.failures.push(entry);
        }
        span.arg("failed", failed as i64);
        drop(span);
        cfg.tracer.counter(
            "campaign",
            "progress",
            &[
                ("seeds_checked", report.seeds_checked as i64),
                ("stages_checked", report.stages_checked as i64),
                ("failures", report.failures.len() as i64),
            ],
        );
        if failed && cfg.fail_fast {
            progress(seed, report.failures.len());
            break;
        }
        progress(seed, report.failures.len());
    }
    report
}

fn handle_failure(
    seed: u64,
    program: &FlowGraph,
    vcfg: &ValidationConfig,
    failure: Failure,
    prove_verdicts: Vec<(Stage, Verdict)>,
    cfg: &CampaignConfig,
) -> SeedFailure {
    let Some(dir) = &cfg.bundle_dir else {
        return SeedFailure {
            seed,
            failure,
            minimized_nodes: None,
            bundle: None,
        };
    };
    // Shrinking replays the whole validation per candidate; skip the
    // baselines unless the failure is in one of them.
    let shrink_cfg = ValidationConfig {
        check_baselines: matches!(
            failure.stage,
            crate::stage::Stage::Lcm | crate::stage::Stage::Sink
        ),
        ..vcfg.clone()
    };
    let shrunk = shrink(program, &shrink_cfg, &failure, &cfg.shrink);
    let bundle = Bundle {
        name: format!("seed-{seed}"),
        seed: Some(seed),
        original: program.clone(),
        failure: shrunk.failure.clone(),
        command: reproduce_command(seed, cfg),
        shrunk: Some(shrunk),
        prove_verdicts,
    };
    let written = write_bundle(dir, &bundle).ok();
    SeedFailure {
        seed,
        failure: bundle.failure.clone(),
        minimized_nodes: bundle.shrunk.as_ref().map(|s| s.minimized_nodes),
        bundle: written,
    }
}

fn reproduce_command(seed: u64, cfg: &CampaignConfig) -> String {
    let mut cmd = format!(
        "cargo run --release -p am-check --bin amcheck -- --seeds {}..{} --runs {} --decisions {}",
        seed,
        seed + 1,
        cfg.runs,
        cfg.decisions
    );
    if !cfg.prove {
        cmd.push_str(" --no-prove");
    }
    if let Some(f) = cfg.fault {
        use crate::fault::{FaultKind, InjectAt};
        let at = match f.at {
            InjectAt::Init => "init".to_string(),
            InjectAt::MotionRound(r) => format!("round:{r}"),
            InjectAt::Flush => "flush".to_string(),
        };
        let kind = match f.kind {
            FaultKind::TweakConst => "tweak-const",
            FaultKind::DropInstr => "drop-instr",
            FaultKind::DuplicateEval => "duplicate-eval",
            FaultKind::SwapPatternIds => "swap-pattern-ids",
        };
        cmd.push_str(&format!(" --inject {at} --fault {kind}"));
    }
    cmd
}

/// Validates a hand-written program the way a campaign seed is validated,
/// shrinking and bundling on failure. Used by `amcheck FILE...`.
pub fn check_file(
    name: &str,
    program: &FlowGraph,
    cfg: &CampaignConfig,
) -> Result<(), Box<SeedFailure>> {
    let vcfg = ValidationConfig {
        runs: cfg.runs,
        decisions: cfg.decisions,
        fault: cfg.fault,
        prove: cfg.prove,
        ..ValidationConfig::default()
    };
    let v = validate(program, &vcfg);
    match v.failure {
        None => Ok(()),
        Some(failure) => {
            let verdicts = v.prove_verdicts.clone();
            let mut entry = handle_failure(0, program, &vcfg, failure, v.prove_verdicts, cfg);
            if let Some(dir) = &cfg.bundle_dir {
                // Rename the bundle after the file, not a fake seed.
                let _ = std::fs::remove_dir_all(dir.join("seed-0"));
                let sanitized: String = name
                    .chars()
                    .map(|c| if c.is_alphanumeric() { c } else { '-' })
                    .collect();
                let b = Bundle {
                    name: format!("file-{sanitized}"),
                    seed: None,
                    original: program.clone(),
                    shrunk: None,
                    failure: entry.failure.clone(),
                    command: format!("cargo run --release -p am-check --bin amcheck -- {name}"),
                    prove_verdicts: verdicts,
                };
                entry.bundle = write_bundle(dir, &b).ok();
            }
            Err(Box::new(entry))
        }
    }
}

/// Parses `A..B` (end-exclusive) or a single `N` (meaning `N..N+1`).
pub fn parse_seed_range(s: &str) -> Option<(u64, u64)> {
    if let Some((a, b)) = s.split_once("..") {
        let (a, b) = (a.trim().parse().ok()?, b.trim().parse().ok()?);
        (a <= b).then_some((a, b))
    } else {
        let n: u64 = s.trim().parse().ok()?;
        Some((n, n + 1))
    }
}

/// The default bundle directory, `target/am-check` relative to `cwd`.
pub fn default_bundle_dir(cwd: &Path) -> PathBuf {
    cwd.join("target").join("am-check")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, InjectAt};

    #[test]
    fn seed_programs_are_deterministic_and_valid() {
        for seed in 0..30 {
            let a = seed_program(seed);
            let b = seed_program(seed);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a.validate(), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn a_small_clean_campaign_passes() {
        let cfg = CampaignConfig {
            seed_start: 0,
            seed_end: 12,
            runs: 6,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&cfg, &mut |_, _| {});
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.seeds_checked, 12);
        assert_eq!(r.seeds_skipped, 0);
        assert!(r.stages_checked >= 12 * 4);
        // The prover is on by default and must discharge every phase of
        // every clean seed without a single refutation.
        let totals = r.prove.total();
        assert_eq!(totals.refuted, 0, "{:?}", r.prove);
        assert!(totals.proved > 0, "{:?}", r.prove);
        assert_eq!(r.prove.split.refuted + r.prove.end_to_end.refuted, 0);
    }

    #[test]
    fn an_injected_fault_is_refuted_statically() {
        let cfg = CampaignConfig {
            seed_start: 0,
            seed_end: 10,
            runs: 4,
            fault: Some(FaultSpec {
                at: InjectAt::Flush,
                kind: FaultKind::DropInstr,
            }),
            ..CampaignConfig::default()
        };
        let r = run_campaign(&cfg, &mut |_, _| {});
        assert!(!r.failures.is_empty());
        // Every caught fault must be a *static* refutation: the prover
        // finds the witness before the interpreter ever runs the pair.
        for f in &r.failures {
            assert!(
                matches!(f.failure.kind, crate::validate::FailureKind::Proof { .. }),
                "seed {} fell back to the dynamic oracle: {:?}",
                f.seed,
                f.failure
            );
        }
        assert!(r.prove.total().refuted as usize >= r.failures.len());
    }

    #[test]
    fn fail_fast_stops_at_the_first_failure() {
        let cfg = CampaignConfig {
            seed_start: 0,
            seed_end: 50,
            runs: 4,
            fail_fast: true,
            fault: Some(FaultSpec {
                at: InjectAt::Init,
                kind: FaultKind::TweakConst,
            }),
            ..CampaignConfig::default()
        };
        let r = run_campaign(&cfg, &mut |_, _| {});
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        // Everything before the failing seed was either clean-skipped
        // (no injection site) or... nothing: an injected const tweak
        // must be caught, so no checked seed precedes the failure.
        assert!(r.seeds_checked >= 1);
    }

    #[test]
    fn seed_ranges_parse() {
        assert_eq!(parse_seed_range("0..500"), Some((0, 500)));
        assert_eq!(parse_seed_range("42"), Some((42, 43)));
        assert_eq!(parse_seed_range("9..3"), None);
        assert_eq!(parse_seed_range("x"), None);
    }
}

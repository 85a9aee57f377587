//! End-to-end acceptance tests for the translation-validation harness:
//! an injected miscompile must be localized to its phase, shrunk to a
//! small witness, and persisted as a replayable bundle.

use std::path::PathBuf;

use am_check::campaign::{run_campaign, CampaignConfig};
use am_check::fault::{FaultKind, FaultSpec, InjectAt};
use am_check::shrink::ShrinkConfig;
use am_check::stage::Stage;
use am_check::validate::{validate, FailureKind, ValidationConfig};
use am_ir::text::parse;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A clean sweep over the first 60 seeds of the corpus: every phase of
/// every program validates. (The release acceptance run covers 0..500 via
/// the `amcheck` binary; this keeps a meaningful slice in the suite.)
#[test]
fn clean_campaign_over_the_random_corpus_passes() {
    let cfg = CampaignConfig {
        seed_start: 0,
        seed_end: 60,
        runs: 8,
        bundle_dir: None,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg, &mut |_, _| {});
    assert!(report.passed(), "failures: {:?}", report.failures);
    assert_eq!(report.seeds_checked, 60);
}

/// The headline acceptance criterion: an intentionally-miscompiled phase
/// is (a) localized to that phase, (b) shrunk to a reproducer of at most
/// 10 nodes, and (c) written out as a reproduction bundle.
#[test]
fn injected_fault_is_localized_shrunk_and_bundled() {
    let out = tmp("fault-campaign");
    let cfg = CampaignConfig {
        seed_start: 0,
        seed_end: 40,
        runs: 8,
        fault: Some(FaultSpec {
            at: InjectAt::Flush,
            kind: FaultKind::DropInstr,
        }),
        bundle_dir: Some(out.clone()),
        shrink: ShrinkConfig::default(),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg, &mut |_, _| {});
    assert!(
        !report.failures.is_empty(),
        "a dropped out() must be caught on some seed \
         ({} checked, {} skipped)",
        report.seeds_checked,
        report.seeds_skipped
    );
    for f in &report.failures {
        // (a) localized to the injected phase, and — since campaigns
        // prove before they run — *statically* refuted by the prover.
        assert_eq!(f.failure.stage, Stage::Flush, "seed {}: {f:?}", f.seed);
        assert!(
            matches!(f.failure.kind, FailureKind::Proof { .. }),
            "seed {}: {f:?}",
            f.seed
        );
        // (b) shrunk small.
        let nodes = f.minimized_nodes.expect("shrinker must run");
        assert!(nodes <= 10, "seed {}: {} nodes", f.seed, nodes);
        // (c) bundled, and the bundle replays.
        let dir = f.bundle.clone().expect("bundle must be written");
        let minimized = std::fs::read_to_string(dir.join("minimized.ir")).unwrap();
        let g = parse(&minimized).expect("minimized witness must re-parse");
        let vcfg = ValidationConfig {
            fault: cfg.fault,
            check_baselines: false,
            prove: true,
            ..ValidationConfig::default()
        };
        let v = validate(&g, &vcfg);
        assert!(
            v.failure.is_some_and(|fx| fx.stage == Stage::Flush),
            "seed {}: bundle does not reproduce",
            f.seed
        );
        let report_txt = std::fs::read_to_string(dir.join("report.txt")).unwrap();
        assert!(report_txt.contains("--inject flush"), "{report_txt}");
        assert!(report_txt.contains("--fault drop-instr"), "{report_txt}");
    }
}

/// A fault injected into a motion round is pinned to a motion round (the
/// exact round may differ between programs, never the phase class).
#[test]
fn motion_round_fault_is_pinned_to_a_motion_round() {
    let cfg = CampaignConfig {
        seed_start: 0,
        seed_end: 60,
        runs: 8,
        fail_fast: true,
        fault: Some(FaultSpec {
            at: InjectAt::MotionRound(1),
            kind: FaultKind::TweakConst,
        }),
        bundle_dir: None,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg, &mut |_, _| {});
    let f = report
        .failures
        .first()
        .expect("a tweaked constant after round 1 must be caught on some seed");
    assert!(
        f.failure.stage.same_class(Stage::MotionRound(1)),
        "{:?}",
        f.failure
    );
}

/// Validating a hand-written file through the campaign API fails cleanly
/// and names the file in the bundle.
#[test]
fn file_checking_bundles_under_the_file_name() {
    use am_check::campaign::check_file;
    let out = tmp("file-check");
    let g =
        parse("start s\nend e\nnode s { x := v0+v1; out(x) }\nnode e { }\nedge s -> e").unwrap();
    let cfg = CampaignConfig {
        fault: Some(FaultSpec {
            at: InjectAt::Init,
            kind: FaultKind::DuplicateEval,
        }),
        bundle_dir: Some(out.clone()),
        ..CampaignConfig::default()
    };
    let err = check_file("demo.ir", &g, &cfg).expect_err("duplicate eval must fail");
    // The prover is on by default, so the extra evaluation is refuted
    // statically (its witness carries the optimality divergence).
    assert!(
        matches!(err.failure.kind, FailureKind::Proof { .. }),
        "{:?}",
        err.failure
    );
    let dir = err.bundle.expect("bundle written");
    assert!(dir.ends_with("file-demo-ir"), "{}", dir.display());
    assert!(dir.join("original.ir").exists());
}

/// A fault on a program no interpreter run gets through is not reported as
/// checked. Every run of `x := a; 100,000 × x := x+1; out(x)` stops at the
/// interpreter's step limit before `out`, so the prover's refutation of
/// the injected constant cannot be confirmed by a run and the
/// differential oracle compares two cut-off runs: the file is unchecked,
/// with the reason.
#[test]
fn a_program_no_run_finishes_is_reported_unchecked() {
    use am_check::campaign::{check_file, FileCheck};
    let body = std::iter::once("x := a")
        .chain(std::iter::repeat_n("x := x+1", 100_000))
        .chain(std::iter::once("out(x)"))
        .collect::<Vec<_>>()
        .join("; ");
    let src = format!("start s\nend e\nnode s {{ {body} }}\nnode e {{ skip }}\nedge s -> e\n");
    let g = parse(&src).unwrap();
    let cfg = CampaignConfig {
        fault: Some(FaultSpec {
            at: InjectAt::Init,
            kind: FaultKind::TweakConst,
        }),
        bundle_dir: None,
        runs: 2,
        ..CampaignConfig::default()
    };
    match check_file("chain.ir", &g, &cfg) {
        Ok(FileCheck::Unchecked(reason)) => assert!(
            reason.contains("no interpreter run of either program finished within 100000 steps"),
            "{reason}"
        ),
        Ok(FileCheck::Checked) => panic!("the chain was reported checked"),
        Err(f) => panic!("unexpected failure {:?}", f.failure),
    }
}

/// File mode reads each file in its own front end: a `.wl` program is
/// compiled from the while language, not parsed as flow-graph text, and
/// both kinds of the checked-in programs validate.
#[test]
fn file_mode_checks_while_and_flow_graph_sources() {
    let programs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    for name in ["polynomial.wl", "running_example.ir"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_amcheck"))
            .arg("--no-bundles")
            .arg(programs.join(name))
            .output()
            .expect("amcheck runs");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(out.status.success(), "{name}: {stdout}{stderr}");
        assert!(stdout.contains(&format!("{name}: ok")), "{name}: {stdout}");
    }
}

//! End-to-end tests of the batch engine: content-addressed caching across
//! alpha-equivalent inputs, determinism across worker counts, per-job
//! panic isolation, and file-based corpora.

use std::path::PathBuf;

use am_ir::alpha::stable_hash;
use am_ir::random::{structured, SplitMix64, StructuredConfig};
use am_ir::text::{parse, to_text};
use am_lang::SourceKind;
use am_pipeline::{Job, JobOutcome, Pipeline, PipelineConfig};

fn pipeline_with(workers: usize) -> Pipeline {
    Pipeline::new(PipelineConfig {
        workers: Some(workers),
        ..Default::default()
    })
}

/// The per-job observable output: name plus the optimized canonical text
/// (or the failure class). Everything the engine promises to keep
/// deterministic.
fn observable(report: &am_pipeline::PipelineReport) -> String {
    report
        .jobs
        .iter()
        .map(|j| match &j.outcome {
            JobOutcome::Optimized(o) => {
                format!(
                    "{}\nhash {:016x}\n{}\n",
                    j.name, o.input_hash, o.result.canonical
                )
            }
            JobOutcome::Failed(e) => format!("{}\nFAILED {e}\n", j.name),
            JobOutcome::Panicked(e) => format!("{}\nPANICKED {e}\n", j.name),
        })
        .collect()
}

fn corpus(unique: usize) -> Vec<Job> {
    (0..unique)
        .map(|idx| {
            let mut rng = SplitMix64::new(0xBA7C_0000 + idx as u64);
            let g = structured(&mut rng, &StructuredConfig::default());
            Job::from_source(format!("job{idx}.ir"), SourceKind::Ir, to_text(&g))
        })
        .collect()
}

#[test]
fn alpha_equivalent_inputs_share_one_cache_entry() {
    // Same program, temporaries spelled differently: equal stable hashes,
    // so the second job is a cache hit.
    let a = "start s\nend e\nnode s { h_one := a+b; x := h_one }\nnode e { out(x) }\nedge s -> e";
    let b = "start s\nend e\nnode s { h_two := a+b; x := h_two }\nnode e { out(x) }\nedge s -> e";
    // Precondition: textual difference, hash equality. (`h_*` names parse
    // as temporaries only if the parser marks them; if these are plain
    // variables the hashes differ and the programs are genuinely distinct
    // — either way the next assertions must hold for equal-hash inputs.)
    let (ga, gb) = (parse(a).unwrap(), parse(b).unwrap());
    // One worker: with two, both jobs could miss concurrently before
    // either inserts, which is legal but not what this test pins.
    let p = pipeline_with(1);
    let jobs = vec![
        Job::from_source("a.ir", SourceKind::Ir, a),
        Job::from_source("b.ir", SourceKind::Ir, b),
    ];
    let report = p.run(&jobs);
    assert_eq!(report.succeeded(), 2);
    if stable_hash(&ga) == stable_hash(&gb) {
        assert_eq!(report.cache.hits, 1, "{report}");
        assert_eq!(report.cache.misses, 1, "{report}");
    }
    // Byte-identical duplicate content must hit regardless.
    let dup = vec![
        Job::from_source("c.ir", SourceKind::Ir, a),
        Job::from_source("d.ir", SourceKind::Ir, a),
    ];
    let p2 = pipeline_with(1);
    let report2 = p2.run(&dup);
    assert_eq!(report2.cache.hits, 1);
    assert_eq!(report2.cache.misses, 1);
    // The hit and the miss report the same optimized program.
    let outs: Vec<_> = report2
        .jobs
        .iter()
        .map(|j| &j.optimized().unwrap().result.canonical)
        .collect();
    assert_eq!(outs[0], outs[1]);
}

#[test]
fn corpus_duplicates_hit_the_cache() {
    // Four unique programs, each three times under different names,
    // interleaved.
    let jobs: Vec<Job> = (0..3)
        .flat_map(|copy| {
            (0..4u64).map(move |idx| {
                let mut rng = SplitMix64::new(0xC0_6905 + idx);
                let g = structured(&mut rng, &StructuredConfig::default());
                Job::from_source(format!("mem/{idx}_{copy}.ir"), SourceKind::Ir, to_text(&g))
            })
        })
        .collect();
    let report = pipeline_with(2).run(&jobs);
    assert_eq!(report.jobs.len(), 12);
    // A duplicate in flight while its original is still optimizing on
    // the other worker misses (both then insert the same entry), so
    // each unique program is optimized at most `workers` times:
    // 12 jobs - 4 unique * 2 workers => at least 4 hits.
    assert!(report.cache_hits() >= 4, "{report}");
}

#[test]
fn rerunning_a_batch_is_served_from_cache() {
    let p = pipeline_with(4);
    let jobs = corpus(6);
    let first = p.run(&jobs);
    assert_eq!(first.succeeded(), 6);
    assert_eq!(first.cache.hits, 0);
    let second = p.run(&jobs);
    assert_eq!(second.succeeded(), 6);
    assert_eq!(second.cache.hits, 6, "whole second pass from cache");
    assert_eq!(second.cache_hits(), 6);
    assert_eq!(observable(&first), observable(&second));
    // Cache hits carry no fresh optimizer time.
    assert_eq!(second.phase_totals, Default::default());
}

#[test]
fn eviction_under_a_tiny_cache_still_produces_correct_results() {
    let p = Pipeline::new(PipelineConfig {
        workers: Some(2),
        cache_capacity: 2,
        ..Default::default()
    });
    let jobs = corpus(5);
    let first = p.run(&jobs);
    let second = p.run(&jobs);
    assert_eq!(first.succeeded(), 5);
    assert_eq!(second.succeeded(), 5);
    assert!(second.cache.evictions > 0, "{:?}", second.cache);
    assert!(second.cache.entries <= 2);
    // Evictions must never change answers.
    assert_eq!(observable(&first), observable(&second));
}

#[test]
fn output_is_byte_identical_across_worker_counts() {
    let jobs = {
        let mut jobs = corpus(10);
        // Mix in a failure and a duplicate so ordering of every outcome
        // class is covered.
        jobs.push(Job::from_source(
            "broken.ir",
            SourceKind::Ir,
            "start\nnot a program",
        ));
        let dup = jobs[0].clone();
        jobs.push(Job {
            name: "dup_of_job0.ir".into(),
            ..dup
        });
        jobs
    };
    let baseline = observable(&pipeline_with(1).run(&jobs));
    for workers in [2, 4, 8] {
        let out = observable(&pipeline_with(workers).run(&jobs));
        assert_eq!(out, baseline, "workers={workers}");
    }
}

#[test]
fn batch_cache_deltas_are_deterministic_and_per_batch() {
    // Cumulative counters grow across batches; the batch_* fields must
    // isolate each run's own traffic. One worker makes the hit/miss split
    // deterministic (no concurrent double-miss on duplicates).
    let p = pipeline_with(1);
    let jobs = corpus(5);
    let first = p.run(&jobs);
    assert_eq!(first.batch_cache_hits, 0, "{first}");
    assert_eq!(first.batch_cache_misses, 5);
    let second = p.run(&jobs);
    assert_eq!(second.batch_cache_hits, 5, "whole second batch from cache");
    assert_eq!(second.batch_cache_misses, 0);
    // Cumulative keeps growing while the batch view resets.
    assert_eq!(second.cache.hits, 5);
    assert_eq!(second.cache.misses, 5);
    let third = p.run(&jobs);
    assert_eq!(third.batch_cache_hits, 5);
    assert_eq!(third.cache.hits, 10);
    // The report text carries both views.
    assert!(
        third.to_string().contains("batch 5 hits, 0 misses"),
        "{third}"
    );
    // Determinism across fresh pipelines: identical batches on identical
    // engines report identical batch fields.
    let again = pipeline_with(1).run(&jobs);
    assert_eq!(again.batch_cache_hits, first.batch_cache_hits);
    assert_eq!(again.batch_cache_misses, first.batch_cache_misses);
    assert_eq!(observable(&again), observable(&first));
}

#[test]
fn a_traced_run_records_job_and_batch_events() {
    let (tracer, collector) = am_trace::Tracer::collector();
    let p = Pipeline::new(PipelineConfig {
        workers: Some(2),
        tracer,
        ..Default::default()
    });
    let jobs = corpus(3);
    let report = p.run(&jobs);
    assert_eq!(report.succeeded(), 3);
    let events = collector.take();
    let spans_named = |name: &str| {
        events
            .iter()
            .filter(|e| e.name == name && e.dur_micros().is_some())
            .count()
    };
    assert_eq!(spans_named("job"), 3, "one span per job");
    assert_eq!(spans_named("batch"), 1);
    assert_eq!(spans_named("optimize"), 3, "optimizer root span per job");
    // The batch cache counter mirrors the report's delta fields.
    let cache = events
        .iter()
        .find(|e| e.cat == "batch" && e.name == "cache")
        .expect("batch cache counter");
    assert_eq!(cache.arg("hits"), Some(report.batch_cache_hits as i64));
    assert_eq!(cache.arg("misses"), Some(report.batch_cache_misses as i64));
    // Analysis counters made it out of the solver.
    assert!(events
        .iter()
        .any(|e| e.cat == "analysis" && e.name == "rae" && e.arg("iterations").unwrap_or(0) > 0));
}

#[test]
fn a_panicking_job_fails_alone() {
    let mut jobs = corpus(4);
    jobs.insert(2, Job::poison("poison"));
    let report = pipeline_with(3).run(&jobs);
    assert_eq!(report.jobs.len(), 5);
    assert_eq!(report.succeeded(), 4, "{report}");
    assert_eq!(report.panicked(), 1);
    let poisoned = &report.jobs[2];
    assert_eq!(poisoned.name, "poison");
    match &poisoned.outcome {
        JobOutcome::Panicked(msg) => assert!(msg.contains("poison"), "{msg}"),
        other => panic!("expected panic outcome, got {other:?}"),
    }
    // And the engine stays usable afterwards.
    let again = pipeline_with(3).run(&corpus(2));
    assert_eq!(again.succeeded(), 2);
}

#[test]
fn motion_round_budget_terminates_and_reports_nonconvergence() {
    let p = Pipeline::new(PipelineConfig {
        workers: Some(1),
        max_motion_rounds: Some(0),
        ..Default::default()
    });
    let report = p.run(&corpus(2));
    assert_eq!(report.succeeded(), 2, "budget exhaustion is not an error");
    for job in &report.jobs {
        let o = job.optimized().unwrap();
        assert_eq!(o.result.motion.rounds, 0);
    }
}

#[test]
fn verification_runs_per_job_and_also_on_cache_hits() {
    let p = Pipeline::new(PipelineConfig {
        workers: Some(2),
        verify: true,
        ..Default::default()
    });
    let jobs = corpus(4);
    let first = p.run(&jobs);
    assert_eq!(first.succeeded(), 4);
    assert_eq!(first.verified(), 4, "{first}");
    assert_eq!(first.verify_failed(), 0);
    for job in &first.jobs {
        assert!(matches!(
            job.optimized().unwrap().verification,
            Some(Ok(()))
        ));
    }
    // The cache stores results, not validations: a cache-served pass is
    // still verified.
    let second = p.run(&jobs);
    assert_eq!(second.cache_hits(), 4);
    assert_eq!(second.verified(), 4, "{second}");
    // And the summary mentions it.
    assert!(second.to_string().contains("verify: 4 ok, 0 failed"));
}

#[test]
fn proving_discharges_jobs_statically_and_reports_counts() {
    let p = Pipeline::new(PipelineConfig {
        workers: Some(2),
        prove: true, // implies verification; --verify itself stays off
        ..Default::default()
    });
    let report = p.run(&corpus(4));
    assert_eq!(report.succeeded(), 4);
    assert_eq!(report.verified(), 4, "{report}");
    assert_eq!(report.verify_failed(), 0);
    let counts = report.proof_counts();
    assert_eq!(counts.refuted, 0, "{report}");
    assert!(counts.proved > 0, "{report}");
    for job in &report.jobs {
        let o = job.optimized().unwrap();
        assert!(matches!(o.verification, Some(Ok(()))));
        assert!(o.prove.as_ref().is_some_and(|c| c.total() > 0), "{report}");
    }
    assert!(report.to_string().contains("prove:"), "{report}");
}

#[test]
fn without_the_flag_no_verification_verdicts_are_reported() {
    let report = pipeline_with(2).run(&corpus(2));
    assert_eq!(report.verified(), 0);
    assert_eq!(report.verify_failed(), 0);
    for job in &report.jobs {
        assert!(job.optimized().unwrap().verification.is_none());
    }
    assert!(!report.to_string().contains("verify:"));
}

#[test]
fn a_malformed_ir_file_fails_alone_with_a_clean_diagnostic() {
    // Regression: a job file that fails to parse (or read) must produce a
    // per-file `Failed` outcome with a located message — never a panic, and
    // never abort the rest of the batch.
    let dir = std::env::temp_dir().join(format!("am_pipeline_badir_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ir");
    std::fs::write(
        &bad,
        "start s\nend e\nnode s { x := a+b }\nthis line is not ir\n",
    )
    .unwrap();
    let good = dir.join("good.ir");
    std::fs::write(
        &good,
        "start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e",
    )
    .unwrap();
    let missing = dir.join("does_not_exist.ir");

    let jobs = vec![
        Job::from_path(bad.clone()),
        Job::from_path(good),
        Job::from_path(missing.clone()),
    ];
    let report = pipeline_with(2).run(&jobs);
    assert_eq!(report.succeeded(), 1, "{report}");
    assert_eq!(report.failed(), 2);
    assert_eq!(report.panicked(), 0, "parse failures must not panic");
    match &report.jobs[0].outcome {
        JobOutcome::Failed(e) => {
            assert!(e.contains("bad.ir"), "names the file: {e}");
            assert!(e.contains("line 4"), "locates the error: {e}");
        }
        other => panic!("{other:?}"),
    }
    match &report.jobs[2].outcome {
        JobOutcome::Failed(e) => assert!(e.contains("does_not_exist.ir"), "{e}"),
        other => panic!("{other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A secondary tier backed by a plain mutexed map, standing in for the
/// on-disk store: counts loads and stores so the layering contract
/// (memory first, secondary on miss, store on fresh) is observable.
struct MapSecondary {
    map: std::sync::Mutex<std::collections::HashMap<u64, am_pipeline::CachedResult>>,
    loads: std::sync::atomic::AtomicUsize,
    stores: std::sync::atomic::AtomicUsize,
}

impl MapSecondary {
    fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(MapSecondary {
            map: std::sync::Mutex::new(std::collections::HashMap::new()),
            loads: std::sync::atomic::AtomicUsize::new(0),
            stores: std::sync::atomic::AtomicUsize::new(0),
        })
    }
}

impl am_pipeline::SecondaryCache for MapSecondary {
    fn load(&self, key: u64) -> Option<am_pipeline::CachedResult> {
        self.loads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.map.lock().unwrap().get(&key).cloned()
    }

    fn store(&self, key: u64, value: &am_pipeline::CachedResult) {
        self.stores
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.map.lock().unwrap().insert(key, value.clone());
    }
}

#[test]
fn secondary_cache_is_layered_under_the_memory_cache() {
    use am_pipeline::ResultSource;
    use std::sync::atomic::Ordering;

    let secondary = MapSecondary::new();
    let jobs = corpus(4);
    let p = Pipeline::new(PipelineConfig {
        workers: Some(1),
        secondary: Some(secondary.clone()),
        ..Default::default()
    });
    let first = p.run(&jobs);
    assert_eq!(first.succeeded(), 4);
    for job in &first.jobs {
        assert_eq!(job.optimized().unwrap().source, ResultSource::Fresh);
    }
    assert_eq!(
        secondary.stores.load(Ordering::Relaxed),
        4,
        "fresh results offered"
    );
    assert_eq!(first.secondary_hits(), 0);

    // Same engine again: memory hits, secondary untouched.
    let loads_before = secondary.loads.load(Ordering::Relaxed);
    let second = p.run(&jobs);
    assert_eq!(second.cache_hits(), 4);
    for job in &second.jobs {
        assert_eq!(job.optimized().unwrap().source, ResultSource::Memory);
    }
    assert_eq!(secondary.loads.load(Ordering::Relaxed), loads_before);

    // A cold engine sharing the secondary: everything served from the
    // secondary tier, promoted into memory, bit-identical output.
    let cold = Pipeline::new(PipelineConfig {
        workers: Some(1),
        secondary: Some(secondary.clone()),
        ..Default::default()
    });
    let third = cold.run(&jobs);
    assert_eq!(third.succeeded(), 4);
    assert_eq!(third.secondary_hits(), 4, "{third}");
    for job in &third.jobs {
        let o = job.optimized().unwrap();
        assert_eq!(o.source, ResultSource::Secondary);
        assert!(o.source.is_cached());
    }
    assert_eq!(observable(&first), observable(&third));
    assert_eq!(secondary.stores.load(Ordering::Relaxed), 4, "no re-stores");

    // And once promoted, the cold engine serves from memory.
    let fourth = cold.run(&jobs);
    for job in &fourth.jobs {
        assert_eq!(job.optimized().unwrap().source, ResultSource::Memory);
    }
}

#[test]
fn file_jobs_dispatch_on_extension() {
    let dir = std::env::temp_dir().join(format!("am_pipeline_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wl = dir.join("prog.wl");
    let ir = dir.join("prog.ir");
    let txt = dir.join("prog.txt");
    std::fs::write(&wl, "x := (a+b)*(a+b); print(x);").unwrap();
    std::fs::write(
        &ir,
        "start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e",
    )
    .unwrap();
    std::fs::write(&txt, "not a program").unwrap();
    let missing = dir.join("missing.ir");

    let jobs: Vec<Job> = [&wl, &ir, &txt, &missing]
        .into_iter()
        .map(|p: &PathBuf| Job::from_path(p.clone()))
        .collect();
    let report = pipeline_with(2).run(&jobs);
    assert_eq!(report.succeeded(), 2);
    assert_eq!(report.failed(), 2);
    assert!(
        matches!(report.jobs[0].outcome, JobOutcome::Optimized(_)),
        "wl compiles"
    );
    assert!(
        matches!(report.jobs[1].outcome, JobOutcome::Optimized(_)),
        "ir parses"
    );
    match &report.jobs[2].outcome {
        JobOutcome::Failed(e) => assert!(e.contains("unknown file type"), "{e}"),
        other => panic!("{other:?}"),
    }
    assert!(
        matches!(report.jobs[3].outcome, JobOutcome::Failed(_)),
        "missing file"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

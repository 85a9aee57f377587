//! Interned-vs-structural differential oracle, pinned against the golden
//! stable-hash fixture.
//!
//! The interning refactor replaced the IR's structural identity plumbing
//! (per-round universe re-collection, text-based content hashing) with
//! arena ids and cached fingerprints. Nothing observable may move: the
//! `stable_hash` content addresses — the keys of `am-pipeline`'s result
//! cache and `am-serve`'s persistent `v1/<shard>/<hash>.json` store — and
//! every byte of optimized output must be exactly what the structural
//! implementation produced. This test replays the full 280-program fixture
//! (`tests/fixtures/golden_hashes.txt`, generated from the pre-refactor
//! tree; regenerate with `cargo run --release --example golden_hashes`)
//! and cross-checks the streamed render against the clone-and-print
//! oracle.

use std::collections::HashMap;

use am_bench::workloads::{nest_grid, wide_fan};
use am_core::global::optimize;
use am_ir::alpha::{canonical_text, rename_temps_canonically, stable_hash, stable_hash_text};
use am_ir::random::{corpus80, structured, unstructured, StructuredConfig, UnstructuredConfig};
use am_ir::rng::SplitMix64;
use am_ir::text::to_text;
use am_ir::{reference_universe, FlowGraph, PatternUniverse};

/// The fixture programs, rebuilt exactly as `examples/golden_hashes.rs`
/// emits them: the shared 80-program corpus plus 200 extra seeded graphs.
fn fixture_programs() -> Vec<(String, String, FlowGraph)> {
    let mut out = Vec::new();
    for (name, g) in corpus80() {
        out.push(("corpus80".to_owned(), name, g));
    }
    for seed in 1000..1100u64 {
        let mut rng = SplitMix64::new(seed);
        let g = structured(
            &mut rng,
            &StructuredConfig {
                allow_div: seed % 2 == 0,
                max_depth: 2 + (seed as usize % 3),
                ..Default::default()
            },
        );
        out.push(("structured".to_owned(), seed.to_string(), g));
    }
    for seed in 2000..2100u64 {
        let mut rng = SplitMix64::new(seed);
        let g = unstructured(
            &mut rng,
            &UnstructuredConfig {
                nodes: 4 + (seed as usize % 16),
                extra_edges: 1 + (seed as usize % 10),
                max_instrs: 4,
                num_vars: 6,
                allow_div: seed % 3 == 0,
            },
        );
        out.push(("unstructured".to_owned(), seed.to_string(), g));
    }
    out
}

fn golden() -> HashMap<(String, String), (u64, u64)> {
    let text = include_str!("fixtures/golden_hashes.txt");
    let mut map = HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let family = parts.next().expect("family").to_owned();
        let name = parts.next().expect("name").to_owned();
        let input = u64::from_str_radix(parts.next().expect("input hash"), 16).unwrap();
        let output = u64::from_str_radix(parts.next().expect("output hash"), 16).unwrap();
        assert!(parts.next().is_none(), "trailing fields in fixture: {line}");
        let dup = map.insert((family, name), (input, output));
        assert!(dup.is_none(), "duplicate fixture line: {line}");
    }
    map
}

/// Every input content address and every optimized-output hash matches the
/// fixture bit for bit — the disk-cache keys survive the interning refactor
/// and the optimizer's output is unchanged on all 280 programs.
#[test]
fn golden_hashes_are_bit_identical() {
    let golden = golden();
    let programs = fixture_programs();
    assert_eq!(golden.len(), 280, "fixture must cover all 280 programs");
    assert_eq!(programs.len(), 280);
    for (family, name, g) in &programs {
        let &(want_in, want_out) = golden
            .get(&(family.clone(), name.clone()))
            .unwrap_or_else(|| panic!("{family} {name} missing from fixture"));
        assert_eq!(
            stable_hash(g),
            want_in,
            "{family} {name}: input content address drifted"
        );
        assert_eq!(
            stable_hash(&optimize(g).program),
            want_out,
            "{family} {name}: optimized output drifted"
        );
    }
}

/// The one streaming renderer (`canonical_text`, and `stable_hash` over
/// the same writer) is byte-identical to the literal clone-and-print
/// oracle `to_text(&rename_temps_canonically(g))`, on inputs and on
/// optimizer outputs: the 280 fixture programs (which include the shared
/// corpus), 200 further seeded random programs, and small rungs of both XL
/// families.
#[test]
fn canonical_text_matches_clone_and_print_oracle() {
    let mut programs: Vec<(String, FlowGraph)> = fixture_programs()
        .into_iter()
        .map(|(family, name, g)| (format!("{family} {name}"), g))
        .collect();
    for seed in 0..100u64 {
        let mut rng = SplitMix64::new(seed);
        programs.push((
            format!("structured {seed}"),
            structured(&mut rng, &StructuredConfig::default()),
        ));
        let mut rng = SplitMix64::new(seed);
        programs.push((
            format!("unstructured {seed}"),
            unstructured(&mut rng, &UnstructuredConfig::default()),
        ));
    }
    for copies in [1, 4] {
        programs.push((format!("nest_grid({copies},2,8)"), nest_grid(copies, 2, 8)));
    }
    for branches in [2, 40] {
        programs.push((format!("wide_fan({branches},4)"), wide_fan(branches, 4)));
    }
    assert_eq!(programs.len(), 484);
    for (name, g) in programs {
        let opt = optimize(&g).program;
        for (stage, p) in [("input", &g), ("optimized output", &opt)] {
            let oracle = to_text(&rename_temps_canonically(p));
            assert_eq!(canonical_text(p), oracle, "{name}: {stage} text");
            assert_eq!(
                stable_hash(p),
                stable_hash_text(&oracle),
                "{name}: {stage} hash"
            );
        }
    }
}

/// The arena-backed `PatternUniverse` enumerates exactly the patterns the
/// naive linear-scan reference finds, in the same first-occurrence order.
#[test]
fn interned_universe_matches_reference_on_corpus() {
    for (name, g) in corpus80() {
        let interned = PatternUniverse::collect(&g);
        let (ref_assigns, ref_exprs) = reference_universe(&g);
        assert_eq!(
            interned.assign_count(),
            ref_assigns.len(),
            "{name}: assign-pattern count"
        );
        for (i, ap) in ref_assigns.iter().enumerate() {
            assert_eq!(interned.assign(i), *ap, "{name}: assign pattern {i}");
        }
        assert_eq!(interned.expr_count(), ref_exprs.len(), "{name}: expr count");
        for (i, t) in ref_exprs.iter().enumerate() {
            assert_eq!(interned.expr(i), *t, "{name}: expr pattern {i}");
            assert_eq!(interned.expr_id(t), Some(i), "{name}: expr id {i}");
        }
    }
}

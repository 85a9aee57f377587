//! The comparison baselines and the static analyses, pinned by stable hash.
//!
//! The golden hashes pin the optimizer's output; this test pins what is
//! measured against it. For every program of four families (`corpus80`,
//! 200 seeds of `random::structured`, `nest_grid(20, 2, 8)` and
//! `wide_fan(100, 4)`) it folds into one FNV-1a hash per family and
//! quantity:
//!
//! * the `stable_hash` of the output of each baseline — busy and lazy
//!   expression motion, partial dead-code elimination and copy
//!   propagation — run on the input with its critical edges split, as
//!   `tests/pipeline.rs` and the figures run them;
//! * `verify::temp_lifetime_points` of the busy, lazy and optimized
//!   programs;
//! * the rendered `am_lint::lint_graph` report of the input and of the
//!   optimized program, and the rendered `check_provenance` (`L103`)
//!   report of the optimizer's decision log.
//!
//! When a change is *meant* to move one of these, print the new values
//! with `cargo test --test baseline_pin -- --nocapture` and update the
//! pins.

use am_bench::workloads::{nest_grid, wide_fan};
use am_core::copyprop::copy_propagation;
use am_core::explain::capture;
use am_core::global::optimize;
use am_core::lcm::{busy_expression_motion, lazy_expression_motion};
use am_core::sink::{partial_dead_code_elimination, SinkConfig};
use am_core::verify::temp_lifetime_points;
use am_ir::alpha::stable_hash;
use am_ir::random::{corpus80, structured, SplitMix64, StructuredConfig};
use am_ir::FlowGraph;
use am_lint::{check_provenance, lint_graph, LintConfig};
use am_trace::Tracer;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte stream, with a separator after every field so that
/// adjacent fields cannot trade bytes.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn field(&mut self, value: impl std::fmt::Display) {
        for &b in value.to_string().as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }
}

/// The quantities pinned per family, in [`PINS`] column order.
const QUANTITIES: [&str; 8] = [
    "busy",
    "lazy",
    "pde",
    "copyprop",
    "lifetimes",
    "lint_in",
    "lint_out",
    "l103",
];

/// Folds every program of a family into one hash per quantity.
fn digest(programs: &[FlowGraph]) -> [u64; 8] {
    let mut h = [Fnv(FNV_OFFSET); 8];
    let split = |g: &FlowGraph| {
        let mut g = g.clone();
        g.split_critical_edges();
        g
    };
    let lint = LintConfig::default();
    for g in programs {
        let mut busy = split(g);
        busy_expression_motion(&mut busy);
        let mut lazy = split(g);
        lazy_expression_motion(&mut lazy);
        let mut pde = split(g);
        partial_dead_code_elimination(&mut pde, &SinkConfig::default());
        let mut cp = split(g);
        copy_propagation(&mut cp, true);
        let optimized = optimize(g).program;
        h[0].field(stable_hash(&busy));
        h[1].field(stable_hash(&lazy));
        h[2].field(stable_hash(&pde));
        h[3].field(stable_hash(&cp));
        for p in [&busy, &lazy, &optimized] {
            h[4].field(temp_lifetime_points(p));
        }
        h[5].field(lint_graph(g, &lint));
        h[6].field(lint_graph(&optimized, &lint));
        h[7].field(check_provenance(
            &capture(g, None, &Tracer::disabled()),
            &lint,
        ));
    }
    h.map(|f| f.0)
}

fn families() -> Vec<(&'static str, Vec<FlowGraph>)> {
    let structured200 = (0..200u64)
        .map(|seed| structured(&mut SplitMix64::new(seed), &StructuredConfig::default()))
        .collect();
    vec![
        ("corpus80", corpus80().into_iter().map(|(_, g)| g).collect()),
        ("structured200", structured200),
        ("nest_grid(20,2,8)", vec![nest_grid(20, 2, 8)]),
        ("wide_fan(100,4)", vec![wide_fan(100, 4)]),
    ]
}

/// Per family, the hash of each quantity of [`QUANTITIES`].
const PINS: [(&str, [u64; 8]); 4] = [
    (
        "corpus80",
        [
            0x2943_6dcc_e6a5_6dd2,
            0xc5a0_8b41_e0c1_dc3c,
            0x7b33_3fd4_8669_ac0f,
            0xb02f_df43_6a33_b46d,
            0x9c0a_d7c1_fd10_c200,
            0x40ed_d12e_c83a_c500,
            0x6019_3aa3_ae90_148a,
            0x401e_7bdf_d8cb_7975,
        ],
    ),
    (
        "structured200",
        [
            0xbcc3_01b8_6100_efc1,
            0x9828_2a9f_c197_cffb,
            0x92e9_6a65_1156_1da9,
            0x36a7_ad23_3367_0cba,
            0x3660_550b_9e4a_3409,
            0x4460_ab68_108e_917e,
            0x3ad8_9fba_8f43_12b2,
            0x194d_f3a5_2040_3acd,
        ],
    ),
    (
        "nest_grid(20,2,8)",
        [
            0x8abc_2427_8f85_645e,
            0x9231_a4cc_721b_fdd0,
            0x7fcc_6509_523f_0c1c,
            0x3883_2ca6_7445_ef4d,
            0xca34_4cc8_fb77_a491,
            0xe1df_23f0_2057_2a92,
            0x61d5_7792_1140_9388,
            0x23fd_cd15_ac41_a9dc,
        ],
    ),
    (
        "wide_fan(100,4)",
        [
            0xfad9_9e87_4e56_2ffb,
            0x9ad7_f4b6_8777_d05a,
            0x04c8_eb45_b65e_fcb5,
            0x9ad7_f4b6_8777_d05a,
            0xe41d_5385_ff88_fbbd,
            0xbacf_37fa_a5c2_4e85,
            0x2712_15c6_d0a3_32cc,
            0x23fd_cd15_ac41_a9dc,
        ],
    ),
];

#[test]
fn baselines_and_analyses_match_their_pins() {
    let mut mismatches = Vec::new();
    for ((family, programs), (pinned_family, pins)) in families().into_iter().zip(PINS) {
        assert_eq!(family, pinned_family);
        let got = digest(&programs);
        println!("(\"{family}\", {got:#018x?}),");
        for ((quantity, got), want) in QUANTITIES.iter().zip(got).zip(pins) {
            if got != want {
                mismatches.push(format!("{family}/{quantity}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

//! Motion- and flush-phase provenance, pinned by stable hash.
//!
//! Every elimination, hoist insertion and hoist removal of the assignment
//! motion fixed point appends one `ProvRecord` (`amopt --explain-dir`).
//! This test folds the motion-phase record stream — kind, round, node,
//! index, instruction text, pattern bit and interned instruction id, in
//! emission order — into one FNV-1a hash per program family and compares
//! it with the value the optimizer produced when the pin was written.
//! Any change to which sites move, in which round, in which order, or
//! under which interned id shows up here. In particular a round that
//! removes and re-inserts a block's assignments unchanged (an identity
//! move) must still report every `HoistInsert`/`HoistRemove` record.
//!
//! The final flush is pinned the same way: its `FlushInsert`,
//! `FlushRemove` and `FlushReconstruct` records — kind, node, index,
//! instruction text, rewritten instruction text and pattern bit — fold
//! into one hash per family, so a change to the flush's pattern
//! numbering, insertion order or rewrite sites shows up here.
//!
//! When a change is *meant* to move a decision, print the new values with
//! `cargo test --test provenance_pin -- --nocapture` and update the pins.

use am_bench::workloads::{nest_grid, wide_fan};
use am_core::global::{optimize_with, GlobalConfig};
use am_ir::random::corpus80;
use am_ir::FlowGraph;
use am_trace::{ProvKind, ProvRecord, Tracer};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte stream, with a separator between fields so that
/// adjacent fields cannot trade bytes.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    fn field(&mut self, value: impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }

    fn record(&mut self, r: &ProvRecord) {
        self.field(r.kind);
        self.field(r.round);
        self.field(&r.node);
        self.field(r.index);
        self.field(&r.instr);
        self.field(r.pattern);
        self.field(r.instr_id);
    }

    fn flush_record(&mut self, r: &ProvRecord) {
        self.field(r.kind);
        self.field(&r.node);
        self.field(r.index);
        self.field(&r.instr);
        self.field(&r.new_instr);
        self.field(r.pattern);
    }
}

/// The records of `phase` from optimizing `g`, in emission order.
fn phase_records(g: &FlowGraph, phase: &str) -> Vec<ProvRecord> {
    let config = GlobalConfig {
        keep_snapshots: false,
        tracer: Tracer::disabled().recording(),
        ..Default::default()
    };
    optimize_with(g, &config);
    config
        .tracer
        .take_records()
        .into_iter()
        .filter(|r| r.phase == phase)
        .collect()
}

/// The motion-phase records of optimizing `g`, in emission order.
fn motion_records(g: &FlowGraph) -> Vec<ProvRecord> {
    phase_records(g, "motion")
}

/// Hash and record count of the `phase` records of `programs`, in order,
/// each folded in by `fold`.
fn phase_pin<'g>(
    programs: impl IntoIterator<Item = &'g FlowGraph>,
    phase: &str,
    fold: fn(&mut Fnv, &ProvRecord),
) -> (u64, usize) {
    let mut h = Fnv(FNV_OFFSET);
    let mut count = 0;
    for g in programs {
        let records = phase_records(g, phase);
        count += records.len();
        records.iter().for_each(|r| fold(&mut h, r));
        h.bytes(b"end of program");
    }
    (h.0, count)
}

/// Hash and record count of the motion records of `programs`, in order.
fn pin<'g>(programs: impl IntoIterator<Item = &'g FlowGraph>) -> (u64, usize) {
    phase_pin(programs, "motion", Fnv::record)
}

/// Hash and record count of the flush records of `programs`, in order.
fn flush_pin<'g>(programs: impl IntoIterator<Item = &'g FlowGraph>) -> (u64, usize) {
    phase_pin(programs, "flush", Fnv::flush_record)
}

fn check(family: &str, got: (u64, usize), want: (u64, usize)) {
    println!("{family}: ({:#018x}, {})", got.0, got.1);
    assert_eq!(got, want, "{family}: provenance moved (hash, record count)");
}

#[test]
fn corpus80_motion_provenance_is_pinned() {
    let corpus: Vec<FlowGraph> = corpus80().into_iter().map(|(_, g)| g).collect();
    check("corpus80", pin(&corpus), (0x1d1e_d864_eff3_98bd, 22737));
}

#[test]
fn nest_grid_motion_provenance_is_pinned() {
    check(
        "nest_grid(20,2,8)",
        pin([&nest_grid(20, 2, 8)]),
        (0x1676_bb74_3793_8a5d, 3886),
    );
}

#[test]
fn wide_fan_motion_provenance_is_pinned() {
    check(
        "wide_fan(100,4)",
        pin([&wide_fan(100, 4)]),
        (0x4fa8_830d_060f_04fa, 1454),
    );
}

/// The pinned programs really exercise identity moves: some round removes
/// and re-inserts assignments of a block without changing it, so the pins
/// above cover the records such a round must keep.
#[test]
fn pinned_programs_contain_identity_moves() {
    let g = nest_grid(20, 2, 8);
    let records = motion_records(&g);
    let last = records.iter().map(|r| r.round).max().expect("records");
    let kinds = |kind: ProvKind| {
        records
            .iter()
            .filter(|r| r.round == last && r.kind == kind)
            .count()
    };
    assert!(kinds(ProvKind::HoistRemove) > 0);
    assert_eq!(kinds(ProvKind::HoistInsert), kinds(ProvKind::HoistRemove));
}

#[test]
fn corpus80_flush_provenance_is_pinned() {
    let corpus: Vec<FlowGraph> = corpus80().into_iter().map(|(_, g)| g).collect();
    check(
        "corpus80 flush",
        flush_pin(&corpus),
        (0x335a_2cd2_48b7_3e98, 4242),
    );
}

#[test]
fn nest_grid_flush_provenance_is_pinned() {
    check(
        "nest_grid(20,2,8) flush",
        flush_pin([&nest_grid(20, 2, 8)]),
        (0x08c3_c020_d30b_914d, 356),
    );
}

#[test]
fn wide_fan_flush_provenance_is_pinned() {
    check(
        "wide_fan(100,4) flush",
        flush_pin([&wide_fan(100, 4)]),
        (0x71e8_3685_b77e_523c, 12),
    );
}

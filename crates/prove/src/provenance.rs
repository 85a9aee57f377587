//! Static discharge of provenance records.
//!
//! `amopt --explain` justifies every transformation with an
//! [`am_trace::ProvRecord`] naming the paper rule that licensed it. For an
//! `Eliminate` record the side condition is *must-redundancy*: at the
//! eliminated occurrence `x := t`, every path already computed `t` into
//! `x` with neither operand disturbed since — i.e. the symbolic store
//! must already map `x` to the value of `t` when control reaches the
//! site. This module replays each `Eliminate` record against the phase
//! snapshot its coordinates refer to and discharges that condition with
//! the symbolic simulator, probing the site on every explored path.
//!
//! Each record is replayed against the phase snapshot of a provenance
//! [`Capture`] that its coordinates refer to — the program at the start
//! of its round; the capture owns that mapping and the site lookup. Hoist
//! and flush records move instructions rather than assert a store
//! property; their correctness is covered by the phase-pair proof itself,
//! so they are counted but not individually probed.
//!
//! Discharge runs in two tiers. The fast tier probes all of a round's
//! sites in one symbolic exploration of the snapshot, checking the store
//! property directly. That probe is flow-insensitive at joins: an
//! invariant merges *every* path through a join, including paths that
//! never reach the probed site, so it can fail on perfectly sound
//! eliminations. Sites the probe cannot certify get the slow tier: a
//! full [`prove_pair`] of the snapshot against the snapshot with that
//! one occurrence deleted — the product simulation walks both programs
//! down the *same* paths, so only paths actually reaching the site
//! matter, and a [`DischargeStatus::Failed`] verdict carries an
//! interpreter-confirmed witness rather than a widening artefact.

use am_core::explain::{locate, Capture};
use am_ir::{Instr, Loc};
use am_trace::ProvRecord;

use crate::engine::{prove_pair, prove_pair_probed, ProveConfig, Verdict};
use crate::sim::Probe;

/// The outcome of statically checking one `Eliminate` record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DischargeStatus {
    /// The side condition is statically certified: either every explored
    /// path reaching the site already held the value (fast tier), or
    /// deleting the occurrence was proved behaviour-preserving on all
    /// inputs (slow tier).
    Discharged,
    /// Deleting the occurrence was statically *refuted* with an
    /// interpreter-confirmed witness — a real rule violation, not a
    /// widening artefact.
    Failed,
    /// No explored path reaches the site (dead code): the elimination is
    /// trivially sound.
    Vacuous,
    /// The record's coordinates do not name an assignment with the
    /// recorded text in the expected snapshot.
    Unlocatable,
    /// Neither tier could decide: the store probe failed and the
    /// deletion proof was inconclusive. Not certified, but nothing was
    /// refuted either.
    Inconclusive,
}

impl std::fmt::Display for DischargeStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DischargeStatus::Discharged => write!(f, "discharged"),
            DischargeStatus::Failed => write!(f, "failed"),
            DischargeStatus::Vacuous => write!(f, "vacuous"),
            DischargeStatus::Unlocatable => write!(f, "unlocatable"),
            DischargeStatus::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// One checked `Eliminate` site.
#[derive(Clone, Debug)]
pub struct SiteDischarge {
    /// Motion round of the record (1-based).
    pub round: u32,
    /// Node label of the eliminated occurrence.
    pub node: String,
    /// Instruction index within the node.
    pub index: u32,
    /// Display text of the eliminated assignment.
    pub instr: String,
    /// The discharge outcome.
    pub status: DischargeStatus,
}

/// Summary of a provenance discharge run.
#[derive(Clone, Debug, Default)]
pub struct DischargeReport {
    /// Total provenance records the run produced.
    pub records: usize,
    /// How many were `Eliminate` records (the statically checked kind).
    pub eliminations: usize,
    /// Eliminate sites certified (discharged or vacuously dead).
    pub discharged: usize,
    /// Eliminate sites statically refuted (with a confirmed witness) or
    /// whose coordinates could not be located.
    pub failed: usize,
    /// Eliminate sites neither certified nor refuted (both tiers gave
    /// up); callers fall back to the dynamic oracle for these.
    pub inconclusive: usize,
    /// Per-site details, in record order.
    pub sites: Vec<SiteDischarge>,
}

impl DischargeReport {
    /// Nothing was refuted or unlocatable (inconclusive sites are
    /// allowed — they are honestly undecided, not wrong).
    pub fn all_discharged(&self) -> bool {
        self.failed == 0
    }
}

impl std::fmt::Display for DischargeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} provenance records, {} eliminations: {} discharged, {} failed, {} inconclusive",
            self.records, self.eliminations, self.discharged, self.failed, self.inconclusive
        )
    }
}

/// Statically discharges every `Eliminate` record of `capture` against
/// the snapshot its coordinates refer to.
pub fn discharge_provenance(capture: &Capture, cfg: &ProveConfig) -> DischargeReport {
    let mut span = cfg.tracer.span("prove", "discharge");
    let mut report = DischargeReport {
        records: capture.records.len(),
        ..Default::default()
    };
    for (snap, round_records) in capture.eliminations() {
        report.eliminations += round_records.len();
        let Some(snap) = snap else {
            for r in &round_records {
                report.failed += 1;
                report.sites.push(site_of(r, DischargeStatus::Unlocatable));
            }
            continue;
        };
        // Locate each record's site in the pre-round snapshot.
        let mut probes: Vec<Probe> = Vec::new();
        let mut probe_records: Vec<&ProvRecord> = Vec::new();
        for r in &round_records {
            match locate(snap, r) {
                Some((node, index, Instr::Assign { .. })) => {
                    probes.push(Probe { node, index });
                    probe_records.push(r);
                }
                _ => {
                    report.failed += 1;
                    report.sites.push(site_of(r, DischargeStatus::Unlocatable));
                }
            }
        }
        if probes.is_empty() {
            continue;
        }
        let mut visited = vec![0usize; probes.len()];
        let mut ok = vec![true; probes.len()];
        let outcome = prove_pair_probed(snap, snap, cfg, &probes, &mut |i, discharged| {
            visited[i] += 1;
            ok[i] &= discharged;
        });
        let probe_conclusive = outcome.verdict == Verdict::Proved;
        for (i, r) in probe_records.iter().enumerate() {
            let status = if probe_conclusive && visited[i] == 0 {
                DischargeStatus::Vacuous
            } else if probe_conclusive && ok[i] {
                DischargeStatus::Discharged
            } else {
                // Slow tier: prove that deleting this one occurrence
                // preserves behaviour on all inputs (and never adds
                // evaluations). Path-sensitive, so join-widening noise
                // from the fast tier cannot produce a false failure.
                let mut removed = snap.clone();
                removed.remove_instr(Loc {
                    node: probes[i].node,
                    index: probes[i].index,
                });
                match prove_pair(snap, &removed, cfg).verdict {
                    Verdict::Proved => DischargeStatus::Discharged,
                    Verdict::Refuted => DischargeStatus::Failed,
                    Verdict::Inconclusive => DischargeStatus::Inconclusive,
                }
            };
            match status {
                DischargeStatus::Discharged | DischargeStatus::Vacuous => report.discharged += 1,
                DischargeStatus::Inconclusive => report.inconclusive += 1,
                _ => report.failed += 1,
            }
            report.sites.push(site_of(r, status));
        }
    }
    span.arg("eliminations", report.eliminations as i64)
        .arg("failed", report.failed as i64)
        .arg("inconclusive", report.inconclusive as i64);
    report
}

fn site_of(r: &ProvRecord, status: DischargeStatus) -> SiteDischarge {
    SiteDischarge {
        round: r.round,
        node: r.node.clone(),
        index: r.index.unwrap_or(u32::MAX),
        instr: r.instr.clone(),
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_core::explain::capture;
    use am_ir::text::parse;
    use am_trace::Tracer;

    #[test]
    fn running_example_eliminations_discharge() {
        let g = parse(
            "start 1\nend 4\nnode 1 { y := c+d }\nnode 2 { branch x+z > y+i }\nnode 3 { y := c+d; x := y+z; i := i+x }\nnode 4 { x := y+z; x := c+d; out(i,x,y) }\nedge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        )
        .unwrap();
        let report = discharge_provenance(
            &capture(&g, None, &Tracer::disabled()),
            &ProveConfig::default(),
        );
        assert!(report.eliminations > 0, "{report}");
        assert!(
            report.all_discharged(),
            "{report}: {:?}",
            report
                .sites
                .iter()
                .filter(|s| s.status == DischargeStatus::Failed)
                .collect::<Vec<_>>()
        );
    }
}

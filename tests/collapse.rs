//! Structural fault collapsing must be invisible in the results: a
//! collapsed campaign simulates one representative per equivalence
//! class, yet its classification, baseline, grade table, and incident
//! list are byte-identical to the uncollapsed run's — at every thread
//! count, on every benchmark. The
//! equivalence rule itself is checked by property: on random netlists,
//! every class member's detection behaviour and power-relevant
//! activity equal its representative's.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sfr_power::exec::Counters;
use sfr_power::{
    benchmarks, u64_to_logic, CellKind, CycleSim, EmittedSystem, FaultClasses, FaultSite, Logic,
    Netlist, NetlistBuilder, StuckAt, Study, StudyBuilder, System, SystemConfig,
};
use std::collections::HashSet;

fn quick(bench: &str) -> StudyBuilder {
    StudyBuilder::new(bench)
        .test_patterns(240)
        .quick_monte_carlo()
}

fn emit(bench: &str) -> EmittedSystem {
    match bench {
        "diffeq" => benchmarks::diffeq(4),
        "facet" => benchmarks::facet(4),
        "poly" => benchmarks::poly(4),
        "fir" => benchmarks::fir(4),
        other => panic!("unknown benchmark {other}"),
    }
    .expect("benchmark builds")
}

/// Every observable field of the study, compared bit for bit.
fn assert_identical(reference: &Study, collapsed: &Study, context: &str) {
    assert_eq!(
        format!("{:?}", reference.classification.faults),
        format!("{:?}", collapsed.classification.faults),
        "classification must be bit-identical ({context})"
    );
    assert_eq!(
        reference.baseline.mean_uw.to_bits(),
        collapsed.baseline.mean_uw.to_bits(),
        "baseline mean must be bit-identical ({context})"
    );
    assert_eq!(
        reference.grades.len(),
        collapsed.grades.len(),
        "grade table length ({context})"
    );
    for (a, b) in reference.grades.iter().zip(&collapsed.grades) {
        assert_eq!(a.fault, b.fault, "grade order ({context})");
        assert_eq!(
            a.mean_uw.to_bits(),
            b.mean_uw.to_bits(),
            "{:?}: mean power ({context})",
            a.fault
        );
        assert_eq!(
            a.pct_change.to_bits(),
            b.pct_change.to_bits(),
            "{:?}: pct change ({context})",
            a.fault
        );
        assert_eq!(a.flagged, b.flagged, "{:?}: flag ({context})", a.fault);
    }
    assert_eq!(
        reference.incidents, collapsed.incidents,
        "incidents ({context})"
    );
}

/// The acceptance bar: `--collapse` folds the exact equivalence-class
/// remainder out of the campaign and the study output is bit-identical
/// to the uncollapsed reference at 1, 2, and 8 threads.
fn thread_sweep(bench: &str) {
    let reference = quick(bench).build().expect("builds").run();
    let sys = System::build(&emit(bench), SystemConfig::default()).expect("system builds");
    let classes = FaultClasses::build(&sys.netlist, &sys.controller_faults());
    assert!(
        classes.merged_count() > 0,
        "{bench} must have collapsible faults"
    );
    for threads in [1, 2, 8] {
        let counters = Counters::new();
        let collapsed = quick(bench)
            .collapse(true)
            .threads(threads)
            .build()
            .expect("builds")
            .run_with(&counters);
        let snap = counters.snapshot();
        assert_eq!(
            snap.faults_collapsed,
            classes.merged_count(),
            "{bench}: the campaign must fold exactly the merged members ({threads} threads)"
        );
        assert_eq!(
            snap.faults_simulated + snap.faults_collapsed + snap.faults_pruned,
            reference.classification.total(),
            "{bench}: simulated + folded + pruned must cover the universe"
        );
        assert_identical(
            &reference,
            &collapsed,
            &format!("{bench}, {threads} threads"),
        );
    }
}

#[test]
fn collapsed_diffeq_is_byte_identical_at_every_thread_count() {
    thread_sweep("diffeq");
}

#[test]
fn collapsed_facet_is_byte_identical_at_every_thread_count() {
    thread_sweep("facet");
}

#[test]
fn collapsed_poly_is_byte_identical_at_every_thread_count() {
    thread_sweep("poly");
}

#[test]
fn collapsed_fir_is_byte_identical_at_every_thread_count() {
    thread_sweep("fir");
}

/// Collapsing is a campaign-execution strategy, not a result knob: it
/// must not enter the campaign fingerprint the run manifest records.
#[test]
fn collapse_does_not_change_the_campaign_fingerprint() {
    let plain = quick("poly").build().expect("builds");
    let collapsed = quick("poly").collapse(true).build().expect("builds");
    assert_eq!(plain.fingerprint(), collapsed.fingerprint());
}

/// Drives `patterns` through `nl` (optionally fault-injected) and
/// returns the primary-output stream plus per-net toggle activity.
fn run_patterns(
    nl: &Netlist,
    fault: Option<StuckAt>,
    patterns: &[u64],
) -> (Vec<Vec<Logic>>, Vec<u64>) {
    let mut sim = match fault {
        Some(f) => CycleSim::with_fault(nl, f),
        None => CycleSim::new(nl),
    };
    sim.track_activity(true);
    let width = nl.inputs().len();
    let mut outs = Vec::with_capacity(patterns.len());
    for &p in patterns {
        sim.set_inputs(&u64_to_logic(p, width));
        sim.eval();
        outs.push(sim.outputs());
        sim.clock();
    }
    let activity = sim.take_activity();
    (outs, activity.net_toggles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The soundness bar for the chain-merge rule, on random
    /// combinational netlists: every member of an equivalence class has
    /// the same primary-output stream as its representative (identical
    /// detectability under any test set) and identical toggle activity
    /// on every net outside the merged-over chain (identical power
    /// wherever the grading flow accounts it — the paper's flow excludes
    /// the controller-internal chain nets).
    #[test]
    fn class_members_match_their_representative(
        gates in prop::collection::vec((any::<u8>(), any::<u8>(), 0u8..6), 4..20),
        patterns in prop::collection::vec(any::<u64>(), 8..24),
    ) {
        let mut b = NetlistBuilder::new("rand");
        let mut nets = vec![b.input("a"), b.input("b"), b.input("c")];
        let mut read = vec![true; 3]; // inputs need no output marking
        for (i, &(x, y, kind)) in gates.iter().enumerate() {
            let xa = nets[x as usize % nets.len()];
            let ya = nets[y as usize % nets.len()];
            read[x as usize % nets.len()] = true;
            let n = match kind {
                0 => b.gate_net(CellKind::Buf, format!("g{i}"), &[xa]),
                1 => b.gate_net(CellKind::Inv, format!("g{i}"), &[xa]),
                _ => {
                    read[y as usize % nets.len()] = true;
                    let k = match kind {
                        2 => CellKind::And2,
                        3 => CellKind::Nand2,
                        4 => CellKind::Or2,
                        _ => CellKind::Nor2,
                    };
                    b.gate_net(k, format!("g{i}"), &[xa, ya])
                }
            };
            nets.push(n);
            read.push(false);
        }
        for (&n, &r) in nets.iter().zip(&read) {
            if !r {
                b.mark_output(n);
            }
        }
        let nl = b.finish().expect("random netlist is valid");
        let faults = StuckAt::enumerate_collapsed(&nl);
        let classes = FaultClasses::build(&nl, &faults);
        for rep in 0..faults.len() {
            if !classes.is_representative(rep) {
                continue;
            }
            let members = classes.members(rep);
            if members.len() < 2 {
                continue;
            }
            // Nets allowed to differ: outputs of the gates whose faults
            // were merged (the chain the rule folds across).
            let chain: HashSet<usize> = members
                .iter()
                .filter_map(|&i| match faults[i].site {
                    FaultSite::GateOutput { gate } => Some(nl.gate(gate).output().index()),
                    _ => None,
                })
                .collect();
            let (ref_outs, ref_toggles) = run_patterns(&nl, Some(faults[rep]), &patterns);
            for &m in &members[1..] {
                let (outs, toggles) = run_patterns(&nl, Some(faults[m]), &patterns);
                prop_assert_eq!(
                    &outs,
                    &ref_outs,
                    "member {} must be output-indistinguishable from representative {}",
                    faults[m],
                    faults[rep]
                );
                for (net, (&a, &b)) in ref_toggles.iter().zip(&toggles).enumerate() {
                    if !chain.contains(&net) {
                        prop_assert_eq!(
                            a, b,
                            "member {} toggles net {} differently from representative {}",
                            faults[m], net, faults[rep]
                        );
                    }
                }
            }
        }
    }
}

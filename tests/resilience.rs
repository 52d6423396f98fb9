//! Quarantine and watchdog integration tests: a study must complete —
//! with incidents reported — when a fault-simulation chunk panics or a
//! fault stalls the controller past its cycle budget.

#![allow(clippy::unwrap_used)]

use sfr_power::exec::{Counters, Engine, NullProgress, SimKernel};
use sfr_power::{
    benchmarks, classify_system, classify_system_journaled, grade_faults_journaled_with_kernel,
    run_serial, CampaignJournal, CampaignOutcome, ClassifyConfig, GoldenTrace, GradeConfig,
    GradeIncident, Logic, MonteCarloConfig, StuckAt, System, SystemConfig, TestSet,
};
use std::path::PathBuf;

fn poly_system() -> System {
    let emitted = benchmarks::poly(4).expect("poly builds");
    System::build(&emitted, SystemConfig::default()).expect("system builds")
}

fn quick_classify() -> ClassifyConfig {
    ClassifyConfig {
        test_patterns: 240,
        ..Default::default()
    }
}

fn quick_grade() -> GradeConfig {
    GradeConfig {
        mc: MonteCarloConfig {
            rel_tolerance: 0.05,
            min_batches: 3,
            max_batches: 6,
        },
        patterns_per_batch: 60,
        ..Default::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sfr-resil-{}-{name}", std::process::id()));
    p
}

/// An engine that panics whenever its batch contains `victim`, and
/// otherwise behaves exactly like the serial reference engine.
struct PanicOn {
    victim: StuckAt,
}

impl Engine for PanicOn {
    fn name(&self) -> &'static str {
        "panic-stub"
    }

    fn run(
        &self,
        sys: &System,
        golden: &GoldenTrace,
        faults: &[StuckAt],
    ) -> (Vec<CampaignOutcome>, u64) {
        assert!(
            !faults.contains(&self.victim),
            "injected fault-sim panic for testing"
        );
        (run_serial(sys, golden, faults), 0)
    }
}

/// An engine that must never be invoked — every chunk is expected to
/// come out of the journal.
struct NeverRun;

impl Engine for NeverRun {
    fn name(&self) -> &'static str {
        "never-run"
    }

    fn run(&self, _: &System, _: &GoldenTrace, _: &[StuckAt]) -> (Vec<CampaignOutcome>, u64) {
        panic!("engine invoked although every chunk was journaled")
    }
}

#[test]
fn panicking_chunk_is_quarantined_not_fatal() {
    let sys = poly_system();
    let faults = sys.controller_faults();
    let stub = PanicOn { victim: faults[0] };
    let (classification, quarantined) =
        classify_system_journaled(&sys, &quick_classify(), &stub, &NullProgress, None);

    assert_eq!(quarantined.len(), 1, "exactly the first chunk panicked");
    assert_eq!(quarantined[0].chunk, 0);
    assert!(quarantined[0].faults.contains(&faults[0]));
    assert!(
        quarantined[0].message.contains("injected fault-sim panic"),
        "payload message survives: {}",
        quarantined[0].message
    );
    assert_eq!(
        classification.total() + quarantined[0].faults.len(),
        faults.len(),
        "quarantined faults are absent from the classification, everything else has a verdict"
    );

    // The healthy chunks match the reference classification exactly.
    let reference = classify_system(&sys, &quick_classify());
    for f in &classification.faults {
        let r = reference
            .faults
            .iter()
            .find(|r| r.fault == f.fault)
            .expect("fault classified by the reference");
        assert_eq!(r.class, f.class, "verdict unchanged for {}", f.fault);
    }
}

#[test]
fn journaled_quarantine_replays_without_repanicking() {
    let sys = poly_system();
    let faults = sys.controller_faults();
    let path = scratch("quarantine.journal");
    let _ = std::fs::remove_file(&path);
    let journal = CampaignJournal::create(&path, 1, "quarantine-test").expect("creates");

    let stub = PanicOn { victim: faults[0] };
    let (first, q_first) = classify_system_journaled(
        &sys,
        &quick_classify(),
        &stub,
        &NullProgress,
        Some(&journal),
    );
    assert_eq!(q_first.len(), 1);

    // Second pass: every chunk (including the quarantine marker) comes
    // from the journal, so an engine that always panics is never asked.
    let (second, q_second) = classify_system_journaled(
        &sys,
        &quick_classify(),
        &NeverRun,
        &NullProgress,
        Some(&journal),
    );
    assert_eq!(q_second.len(), 1, "quarantine incident replays on resume");
    assert_eq!(q_second[0].chunk, q_first[0].chunk);
    assert_eq!(q_second[0].faults, q_first[0].faults);
    assert_eq!(second.total(), first.total());
    let _ = std::fs::remove_file(&path);
}

/// Finds a controller fault that livelocks the machine: under the
/// fault, a computation run never reaches HOLD no matter how long the
/// tester waits. Exactly the runaway the watchdog exists for.
fn find_livelock_fault(sys: &System) -> Option<StuckAt> {
    let hold = sys.meta.hold_state();
    let nominal = sys.nominal_run_cycles(2);
    let ts = TestSet::pseudorandom(sys.pattern_width(), 1, 0xACE1).expect("test set");
    let pattern = ts.iter().next().copied().expect("one pattern");
    sys.controller_faults().into_iter().find(|&f| {
        let mut sim = sfr_power::CycleSim::with_fault(&sys.netlist, f);
        sys.reset_sim(&mut sim, Logic::Zero);
        for _ in 0..nominal * 10 {
            sys.apply_pattern(&mut sim, pattern);
            sim.eval();
            if sys.decode_state(&sim) == Some(hold) {
                return false;
            }
            sim.clock();
        }
        true
    })
}

#[test]
fn livelock_fault_exhausts_its_budget_and_is_reported() {
    let sys = poly_system();
    let victim = find_livelock_fault(&sys)
        .expect("poly's controller fault universe contains a livelocking fault");

    let mut cfg = quick_grade();
    cfg.run.cycle_budget = 3 * sys.nominal_run_cycles(cfg.run.hold_cycles);
    // One pack on 1, 2 and 8 threads: the pack's batches spread over
    // that many workers, and the watchdog's verdict must not move.
    let mut serial = None;
    for threads in [1, 2, 8] {
        let counters = Counters::new();
        let report = grade_faults_journaled_with_kernel(
            &sys,
            &[victim],
            &cfg,
            threads,
            &counters,
            None,
            SimKernel::Tape,
        );

        assert_eq!(report.grades.len(), 1, "the runaway fault is still graded");
        assert!(
            report
                .incidents
                .iter()
                .any(|i| matches!(i, GradeIncident::BudgetExhausted { fault } if *fault == victim)),
            "expected a BudgetExhausted incident, got {:?}",
            report.incidents
        );
        assert!(
            counters.snapshot().budget_exhausted >= 1,
            "the watchdog hit is counted"
        );
        let grade = &report.grades[0];
        let seen = (
            grade.fault,
            grade.mean_uw.to_bits(),
            grade.pct_change.to_bits(),
            grade.flagged,
            report.incidents,
            counters.snapshot().budget_exhausted,
        );
        match &serial {
            None => serial = Some(seen),
            Some(want) => assert_eq!(&seen, want, "{threads} threads"),
        }
    }

    // With the watchdog disarmed (the default), the same fault grades
    // silently — no incident, no counter.
    let report = grade_faults_journaled_with_kernel(
        &sys,
        &[victim],
        &quick_grade(),
        1,
        &NullProgress,
        None,
        SimKernel::Tape,
    );
    assert!(
        report.incidents.is_empty(),
        "budget 0 disables the watchdog"
    );
}

//! Fixed-seed regression pinning the lane-packed tape grading engine to
//! the scalar reference (the paper's Table 3 experiment): every fault's
//! Monte Carlo mean, percentage change and flag must be **bit-identical**
//! between `grade_faults_scalar_with` and
//! `grade_faults_journaled_with_kernel`, on every benchmark, at every
//! thread count — including counts that spread one pack's Monte Carlo
//! batches over several workers — and across pack boundaries; the
//! journaled pack payloads must not depend on the thread count; and the
//! per-test-set measurement must agree fault-for-fault with the scalar
//! simulator.

#![allow(clippy::unwrap_used)]

use sfr_power::exec::{Counters, NullProgress, Progress, SimKernel};
use sfr_power::{
    benchmarks, classify_system, grade_faults_journaled_with_kernel, grade_faults_scalar_with,
    measure_power_tape_watched, measure_power_with_testset, CampaignJournal, ClassifyConfig,
    GradeConfig, MonteCarloConfig, MonteCarloResult, PowerGrade, RecordKind, StuckAt, System,
    SystemConfig, TapeProgram, TestSet, MAX_PARALLEL_FAULTS,
};

fn quick_grade_cfg() -> GradeConfig {
    GradeConfig {
        mc: MonteCarloConfig {
            rel_tolerance: 0.05,
            min_batches: 3,
            max_batches: 8,
        },
        patterns_per_batch: 60,
        ..Default::default()
    }
}

fn sfr_of(bench: &str) -> (System, Vec<StuckAt>) {
    let emitted = match bench {
        "diffeq" => benchmarks::diffeq(4),
        "facet" => benchmarks::facet(4),
        "poly" => benchmarks::poly(4),
        "fir" => benchmarks::fir(4),
        other => panic!("unknown benchmark {other}"),
    }
    .expect("benchmark builds");
    let sys = System::build(&emitted, SystemConfig::default()).expect("system builds");
    let cfg = ClassifyConfig {
        test_patterns: 240,
        ..Default::default()
    };
    let cls = classify_system(&sys, &cfg);
    let faults: Vec<StuckAt> = cls.sfr().map(|f| f.fault).collect();
    assert!(faults.len() > 1, "{bench} must yield SFR faults to compare");
    (sys, faults)
}

fn tape_grades(
    sys: &System,
    faults: &[StuckAt],
    cfg: &GradeConfig,
    threads: usize,
    progress: &dyn Progress,
) -> (MonteCarloResult, Vec<PowerGrade>) {
    let report = grade_faults_journaled_with_kernel(
        sys,
        faults,
        cfg,
        threads,
        progress,
        None,
        SimKernel::Tape,
    );
    assert!(report.incidents.is_empty(), "{:?}", report.incidents);
    (report.baseline, report.grades)
}

fn assert_same_grades(
    (base, grades): &(MonteCarloResult, Vec<PowerGrade>),
    (base_ref, grades_ref): &(MonteCarloResult, Vec<PowerGrade>),
    context: &str,
) {
    assert_eq!(base.mean_uw, base_ref.mean_uw, "baseline, {context}");
    assert_eq!(base.batches, base_ref.batches, "baseline, {context}");
    assert_eq!(grades.len(), grades_ref.len(), "{context}");
    for (g, r) in grades.iter().zip(grades_ref) {
        assert_eq!(g.fault, r.fault, "{context}");
        assert_eq!(g.mean_uw, r.mean_uw, "{:?}, {context}", g.fault);
        assert_eq!(g.pct_change, r.pct_change, "{:?}, {context}", g.fault);
        assert_eq!(g.flagged, r.flagged, "{:?}, {context}", g.fault);
    }
}

/// The journaled payload words of pack 0 after grading `faults` on
/// `threads` threads: per-lane means, half-widths, batch counts and
/// convergence flags, plus the watchdog's stall mask.
fn pack0_payload(sys: &System, faults: &[StuckAt], cfg: &GradeConfig, threads: usize) -> Vec<u64> {
    let path = std::env::temp_dir().join(format!(
        "sfr-grade-eq-{}-{threads}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let journal = CampaignJournal::create(&path, 1, "grade-equivalence").expect("journal creates");
    let report = grade_faults_journaled_with_kernel(
        sys,
        faults,
        cfg,
        threads,
        &NullProgress,
        Some(&journal),
        SimKernel::Tape,
    );
    assert_eq!(report.grades.len(), faults.len());
    let words = journal
        .get(RecordKind::GradePack, 0)
        .expect("pack 0 is journaled");
    let _ = std::fs::remove_file(&path);
    words
}

/// Every paper SFR set fits one pack, so every thread count past 1
/// spreads that pack's Monte Carlo batches over `threads` workers. Waves
/// of three do not divide the 8-batch ceiling, so a pack that runs to it
/// computes a batch the stopping rule discards.
#[test]
fn tape_kernel_grades_are_bit_identical_to_scalar_at_every_thread_count() {
    let cfg = quick_grade_cfg();
    let mut stalled_lanes = 0;
    for bench in ["diffeq", "facet", "poly", "fir"] {
        let (sys, faults) = sfr_of(bench);
        let reference = grade_faults_scalar_with(&sys, &faults, &cfg, &NullProgress);
        for threads in [1, 2, 3, 8] {
            let got = tape_grades(&sys, &faults, &cfg, threads, &NullProgress);
            assert_same_grades(&got, &reference, &format!("{bench}, {threads} threads"));
        }

        // The journaled payload of one full pack — the SFR faults topped
        // up with other controller faults, some of which stall the
        // controller — under an armed watchdog. Stall masks, batch
        // counts and means must come from consumed batches only. The
        // second config's 16-pattern batches hold one or two runs each,
        // so which lanes stall changes from batch to batch, and its two
        // batches leave up to 6 of the 8 workers' batches unconsumed.
        let mut pack = faults.clone();
        pack.extend(
            sys.controller_faults()
                .into_iter()
                .filter(|f| !faults.contains(f)),
        );
        pack.truncate(MAX_PARALLEL_FAULTS);
        let short_batches = GradeConfig {
            mc: MonteCarloConfig {
                rel_tolerance: 0.05,
                min_batches: 2,
                max_batches: 2,
            },
            patterns_per_batch: 16,
            ..Default::default()
        };
        for mut armed in [quick_grade_cfg(), short_batches] {
            armed.run.cycle_budget = 2 * sys.nominal_run_cycles(armed.run.hold_cycles);
            let serial = pack0_payload(&sys, &pack, &armed, 1);
            stalled_lanes += serial[1].count_ones();
            for threads in [2, 3, 8] {
                assert_eq!(
                    pack0_payload(&sys, &pack, &armed, threads),
                    serial,
                    "{bench}: pack payload on {threads} threads, {} patterns per batch",
                    armed.patterns_per_batch
                );
            }
        }
    }
    assert!(
        stalled_lanes > 0,
        "some compared payload must carry a nonzero stall mask"
    );
}

/// Every paper SFR set fits one pack, so this case repeats diffeq's SFR
/// list past two full packs: lanes of packs 1 and 2 must grade exactly
/// like the scalar reference too, against pack 0's baseline lane.
#[test]
fn lane_packed_grades_are_bit_identical_to_scalar_at_every_thread_count() {
    let (sys, sfr) = sfr_of("diffeq");
    let cfg = quick_grade_cfg();
    let faults: Vec<StuckAt> = sfr
        .iter()
        .cycle()
        .take(2 * MAX_PARALLEL_FAULTS + 4)
        .copied()
        .collect();
    // The scalar grade of a fault does not depend on its position, so
    // the reference grades the distinct faults once and repeats them.
    let (base_ref, unique) = grade_faults_scalar_with(&sys, &sfr, &cfg, &NullProgress);
    let reference = (
        base_ref,
        unique.iter().cycle().take(faults.len()).copied().collect(),
    );
    for threads in [1, 2, 8] {
        let counters = Counters::new();
        let got = tape_grades(&sys, &faults, &cfg, threads, &counters);
        assert_eq!(counters.snapshot().grade_packs, 3, "{threads} threads");
        assert_same_grades(&got, &reference, &format!("3 packs, {threads} threads"));
    }
}

#[test]
fn table3_testset_measurement_matches_scalar_fault_for_fault() {
    let (sys, faults) = sfr_of("diffeq");
    let cfg = quick_grade_cfg();
    // A fixed-seed deterministic test set, as in Table 3's columns.
    let ts = TestSet::pseudorandom(sys.pattern_width(), 200, 0xB007).expect("test set");
    let pack = &faults[..faults.len().min(MAX_PARALLEL_FAULTS)];
    let prog = TapeProgram::<u64>::compile(&sys.netlist, pack).expect("one pack");
    let (reports, stalls) = measure_power_tape_watched(&sys, &prog, &ts, &cfg);
    assert_eq!(stalls, 0, "the watchdog is disarmed by default");
    let baseline = measure_power_with_testset(&sys, None, &ts, &cfg);
    assert_eq!(reports[0], baseline, "lane 0 is fault-free");
    for (lane, &f) in pack.iter().enumerate() {
        let scalar = measure_power_with_testset(&sys, Some(f), &ts, &cfg);
        let lane_rep = &reports[lane + 1];
        assert_eq!(*lane_rep, scalar, "{f:?}");
        assert_eq!(
            lane_rep.percent_change_from(&reports[0]),
            scalar.percent_change_from(&baseline),
            "Table 3 pct change must be identical for {f:?}"
        );
    }
}

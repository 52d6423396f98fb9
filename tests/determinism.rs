//! The redesigned study pipeline must be deterministic under
//! parallelism: every RNG stream is keyed by work-item index, never by
//! thread, so a study gives **byte-identical** results at any thread
//! count. Paper tables regenerated on a 96-core server must match the
//! ones from a laptop bit for bit.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sfr_power::exec::{Engine, SerialEngine, TapeEngine};
use sfr_power::{
    benchmarks, golden_trace, MonteCarloConfig, RunConfig, Study, StudyBuilder, System,
    SystemConfig, TestSet,
};
use std::sync::OnceLock;

fn poly_system() -> &'static System {
    static SYS: OnceLock<System> = OnceLock::new();
    SYS.get_or_init(|| {
        System::build(&benchmarks::poly(4).unwrap(), SystemConfig::default()).unwrap()
    })
}

fn poly_study(threads: usize) -> Study {
    StudyBuilder::new("poly")
        .width(4)
        .test_patterns(600)
        .monte_carlo(MonteCarloConfig {
            rel_tolerance: 0.03,
            min_batches: 3,
            max_batches: 12,
        })
        .threads(threads)
        .build()
        .expect("poly builds")
        .run()
}

/// The tentpole acceptance property: threads = 1, 2, 8 produce the
/// same study, down to the bits of every float.
#[test]
fn study_is_bit_identical_at_any_thread_count() {
    let serial = poly_study(1);
    for threads in [2, 8] {
        let par = poly_study(threads);
        // Classification verdicts.
        assert_eq!(
            serial.classification.total(),
            par.classification.total(),
            "{threads} threads changed the fault universe"
        );
        assert_eq!(
            serial.classification.sfi_count(),
            par.classification.sfi_count()
        );
        assert_eq!(
            serial.classification.cfr_count(),
            par.classification.cfr_count()
        );
        assert_eq!(
            serial.classification.sfr_count(),
            par.classification.sfr_count()
        );
        assert_eq!(serial.sfr_faults(), par.sfr_faults());
        // Monte Carlo baseline: identical floats, not just close ones.
        assert_eq!(
            serial.baseline.mean_uw.to_bits(),
            par.baseline.mean_uw.to_bits(),
            "{threads} threads perturbed the baseline mean \
             ({} vs {})",
            serial.baseline.mean_uw,
            par.baseline.mean_uw
        );
        assert_eq!(
            serial.baseline.half_width_uw.to_bits(),
            par.baseline.half_width_uw.to_bits()
        );
        assert_eq!(serial.baseline.batches, par.baseline.batches);
        assert_eq!(serial.baseline.converged, par.baseline.converged);
        // Every per-fault grade.
        assert_eq!(serial.grades.len(), par.grades.len());
        for (a, b) in serial.grades.iter().zip(&par.grades) {
            assert_eq!(a.fault, b.fault);
            assert_eq!(
                a.mean_uw.to_bits(),
                b.mean_uw.to_bits(),
                "fault {}: {} threads gave {} vs {}",
                a.fault,
                threads,
                a.mean_uw,
                b.mean_uw
            );
            assert_eq!(a.pct_change.to_bits(), b.pct_change.to_bits());
            assert_eq!(a.flagged, b.flagged);
        }
        assert_eq!(serial.flagged_count(), par.flagged_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The scalar reference and the tape engine agree on every fault's
    /// verdict for arbitrary TPGR seeds and session lengths, and the
    /// tape's verdicts and cycle counts are identical at every thread
    /// count.
    #[test]
    fn engines_are_equivalent(
        seed in 1u32..u32::from(u16::MAX),
        len in 30usize..120,
    ) {
        let sys = poly_system();
        let ts = TestSet::pseudorandom(sys.pattern_width(), len, seed).unwrap();
        let golden = golden_trace(sys, &ts, &RunConfig::default());
        let faults = sys.controller_faults();
        let serial = SerialEngine.run(sys, &golden, &faults);
        prop_assert_eq!(serial.len(), faults.len());
        let (one, one_cycles) = TapeEngine::new(1).run_counted(sys, &golden, &faults);
        for threads in [1, 2, 3, 8] {
            let (tape, cycles) = TapeEngine::new(threads).run_counted(sys, &golden, &faults);
            prop_assert_eq!(&serial, &tape, "tape on {} threads", threads);
            // Batch boundaries are fixed at 63 faults whatever the
            // thread count, so the tape is byte-identical to itself.
            prop_assert_eq!(&tape, &one);
            prop_assert_eq!(cycles, one_cycles, "cycles on {} threads", threads);
        }
    }
}

//! Property-based integration tests over the public API.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sfr_power::{
    benchmarks, golden_trace, logic_to_u64, run_serial, run_tape_counted, CycleSim, Logic,
    RunConfig, System, SystemConfig, TestSet,
};
use std::sync::OnceLock;

fn facet_system() -> &'static System {
    static SYS: OnceLock<System> = OnceLock::new();
    SYS.get_or_init(|| {
        System::build(&benchmarks::facet(4).unwrap(), SystemConfig::default()).unwrap()
    })
}

fn poly_system() -> &'static System {
    static SYS: OnceLock<System> = OnceLock::new();
    SYS.get_or_init(|| {
        System::build(&benchmarks::poly(4).unwrap(), SystemConfig::default()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The serial scalar reference and the bit-parallel tape campaign
    /// agree on every fault's verdict, for arbitrary TPGR seeds and
    /// session lengths.
    #[test]
    fn serial_and_parallel_fault_sim_agree(seed in 1u32..u32::from(u16::MAX), len in 30usize..120) {
        let sys = facet_system();
        let ts = TestSet::pseudorandom(sys.pattern_width(), len, seed).unwrap();
        let golden = golden_trace(sys, &ts, &RunConfig::default());
        let faults = sys.controller_faults();
        let a = run_serial(sys, &golden, &faults);
        let (b, _) = run_tape_counted(sys, &golden, &faults);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.fault, y.fault);
            prop_assert_eq!(x.detection, y.detection);
        }
    }

    /// The synthesized polynomial system computes the reference
    /// polynomial for arbitrary inputs.
    #[test]
    fn poly_system_matches_reference(
        x in 0u64..16, a in 0u64..16, b in 0u64..16, c in 0u64..16, d in 0u64..16,
    ) {
        let sys = poly_system();
        let pattern = x | a << 4 | b << 8 | c << 12 | d << 16;
        let mut sim = CycleSim::new(&sys.netlist);
        sys.reset_sim(&mut sim, Logic::X);
        let mut result = None;
        for _ in 0..40 {
            sys.apply_pattern(&mut sim, pattern);
            sim.eval();
            if sys.decode_state(&sim) == Some(sys.meta.hold_state()) {
                result = logic_to_u64(&sim.outputs());
                break;
            }
            sim.clock();
        }
        prop_assert_eq!(result, Some(benchmarks::poly_reference(x, a, b, c, d, 4)));
    }

    /// Test-set generation is deterministic in its seed and respects its
    /// width bound.
    #[test]
    fn test_sets_are_deterministic_and_bounded(
        seed in 0u32..u32::from(u16::MAX), width in 1usize..20, count in 1usize..200,
    ) {
        let a = TestSet::pseudorandom(width, count, seed).unwrap();
        let b = TestSet::pseudorandom(width, count, seed).unwrap();
        prop_assert_eq!(&a, &b);
        let bound = 1u128 << width;
        prop_assert!(a.patterns().iter().all(|&p| u128::from(p) < bound));
    }

    /// Golden traces consume every pattern exactly once, whatever the
    /// run shaping.
    #[test]
    fn golden_traces_account_for_all_patterns(
        seed in 1u32..u32::from(u16::MAX), len in 10usize..100, hold in 0usize..4,
    ) {
        let sys = facet_system();
        let ts = TestSet::pseudorandom(sys.pattern_width(), len, seed).unwrap();
        let cfg = RunConfig { max_cycles_per_run: 50, hold_cycles: hold, cycle_budget: 0 };
        let trace = golden_trace(sys, &ts, &cfg);
        prop_assert_eq!(trace.cycles(), len);
        let total: usize = trace.runs.iter().map(|r| r.len).sum();
        prop_assert_eq!(total, len);
    }
}

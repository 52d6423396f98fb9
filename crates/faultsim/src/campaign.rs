//! Fault-simulation campaigns over the integrated pair.
//!
//! Step 1 of the paper's methodology (Section 5): "do a fault simulation
//! of the entire system (datapath and controller) using pseudorandom
//! data generated by a TPGR for the datapath data inputs" — faults whose
//! effect reaches the data outputs are system-functionally irredundant.
//! Two campaigns are provided: the [serial](run_serial) single-fault
//! scalar reference and the [63-lane compiled tape](run_tape_counted);
//! they produce identical verdicts (tested), the tape one more than an
//! order of magnitude faster.

use crate::golden::GoldenTrace;
use crate::system::System;
use sfr_netlist::{CycleSim, Logic, Pat, StuckAt, TapeProgram, TapeSim, MAX_PARALLEL_FAULTS};

/// The outcome of fault simulation for one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// A data output definitely differed from the fault-free value.
    Detected {
        /// First differing cycle.
        cycle: usize,
    },
    /// No definite difference, but some output was unknown where the
    /// fault-free circuit's was known — GENTEST's "potentially detected"
    /// verdict, which step 2 of the methodology resolves by reasoning
    /// about real boot values.
    Potential {
        /// First ambiguous cycle.
        cycle: usize,
    },
    /// Outputs never deviated.
    NotDetected,
}

impl Detection {
    /// Whether the fault was definitely detected.
    pub fn is_detected(self) -> bool {
        matches!(self, Detection::Detected { .. })
    }
}

/// One fault's campaign result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// The fault.
    pub fault: StuckAt,
    /// Its detection outcome.
    pub detection: Detection,
}

/// Serial (one-fault-at-a-time) fault simulation with fault dropping.
pub fn run_serial(sys: &System, golden: &GoldenTrace, faults: &[StuckAt]) -> Vec<CampaignOutcome> {
    run_serial_counted(sys, golden, faults).0
}

/// [`run_serial`] plus the number of simulator cycles it evaluated
/// (one per `eval` call — fault dropping and early exits show up as
/// fewer cycles). Feeds the `CyclesSimulated` observability stream.
pub fn run_serial_counted(
    sys: &System,
    golden: &GoldenTrace,
    faults: &[StuckAt],
) -> (Vec<CampaignOutcome>, u64) {
    let mut cycles = 0u64;
    let outcomes = faults
        .iter()
        .map(|&fault| {
            let mut sim = CycleSim::with_fault(&sys.netlist, fault);
            let mut potential: Option<usize> = None;
            let mut detected: Option<usize> = None;
            'runs: for run in &golden.runs {
                sys.reset_sim(&mut sim, Logic::X);
                for c in run.start..run.start + run.len {
                    sys.apply_pattern(&mut sim, golden.patterns[c]);
                    sim.eval();
                    cycles += 1;
                    for (got, want) in sim.outputs().iter().zip(&golden.outputs[c]) {
                        if got.definitely_differs(*want) {
                            detected = Some(c);
                            break 'runs;
                        }
                        if want.is_known() && !got.is_known() && potential.is_none() {
                            potential = Some(c);
                        }
                    }
                    sim.clock();
                }
            }
            let detection = match (detected, potential) {
                (Some(cycle), _) => Detection::Detected { cycle },
                (None, Some(cycle)) => Detection::Potential { cycle },
                (None, None) => Detection::NotDetected,
            };
            CampaignOutcome { fault, detection }
        })
        .collect();
    (outcomes, cycles)
}

/// Bit-parallel fault simulation on the compiled tape kernel's
/// three-valued lanes (runs start with the datapath at `X`): one fault
/// per lane, [`MAX_PARALLEL_FAULTS`] faults per batch, lane 0 fault-free,
/// with fault dropping. Also returns the simulator cycles evaluated: a
/// lane-packed `eval` serves a whole batch at once, so the count is per
/// batch sweep, not per fault.
///
/// Verdicts and first-detection cycles are identical to [`run_serial`]
/// fault for fault.
pub fn run_tape_counted(
    sys: &System,
    golden: &GoldenTrace,
    faults: &[StuckAt],
) -> (Vec<CampaignOutcome>, u64) {
    let mut cycles = 0u64;
    let mut outcomes = Vec::with_capacity(faults.len());
    for batch in faults.chunks(MAX_PARALLEL_FAULTS) {
        let prog =
            TapeProgram::<Pat>::compile(&sys.netlist, batch).expect("batch fits the lane budget");
        let mut sim = TapeSim::new(&prog);
        let mut detected: Vec<Option<usize>> = vec![None; batch.len()];
        let mut potential: Vec<Option<usize>> = vec![None; batch.len()];
        let mut live_mask: u64 = !1; // lanes still undetected
        for run in &golden.runs {
            if live_mask == 0 {
                break;
            }
            sys.reset_tape(&mut sim, Logic::X);
            for c in run.start..run.start + run.len {
                sys.apply_pattern_tape(&mut sim, golden.patterns[c]);
                sim.eval();
                cycles += 1;
                let det = sim.detected_mask() & live_mask;
                if det != 0 {
                    for (i, d) in detected.iter_mut().enumerate() {
                        if det >> (i + 1) & 1 == 1 && d.is_none() {
                            *d = Some(c);
                        }
                    }
                    live_mask &= !det;
                }
                let pot = sim.potentially_detected_mask() & live_mask;
                if pot != 0 {
                    for (i, p) in potential.iter_mut().enumerate() {
                        if pot >> (i + 1) & 1 == 1 && p.is_none() {
                            *p = Some(c);
                        }
                    }
                }
                sim.clock();
            }
        }
        for (i, &fault) in batch.iter().enumerate() {
            let detection = match (detected[i], potential[i]) {
                (Some(cycle), _) => Detection::Detected { cycle },
                (None, Some(cycle)) => Detection::Potential { cycle },
                (None, None) => Detection::NotDetected,
            };
            outcomes.push(CampaignOutcome { fault, detection });
        }
    }
    (outcomes, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{golden_trace, RunConfig};
    use crate::system::tests::toy_system;
    use sfr_tpg::TestSet;

    fn setup() -> (crate::system::System, GoldenTrace, Vec<StuckAt>) {
        let sys = toy_system();
        let ts = TestSet::pseudorandom(sys.pattern_width(), 120, 0xACE1).unwrap();
        let golden = golden_trace(&sys, &ts, &RunConfig::default());
        let faults = sys.controller_faults();
        (sys, golden, faults)
    }

    #[test]
    fn campaign_flags_a_majority_of_controller_faults() {
        let (sys, golden, faults) = setup();
        let outcomes = run_serial(&sys, &golden, &faults);
        let detected = outcomes
            .iter()
            .filter(|o| o.detection.is_detected())
            .count();
        let potential = outcomes
            .iter()
            .filter(|o| matches!(o.detection, Detection::Potential { .. }))
            .count();
        // With X power-up most deviations surface as "potentially
        // detected" (X against a known golden value) — the exact
        // GENTEST behaviour the paper's step 2 resolves. Definite plus
        // potential must still cover a majority.
        assert!(detected >= 1);
        assert!(
            (detected + potential) * 2 > faults.len(),
            "only {detected}+{potential}/{} flagged",
            faults.len()
        );
    }

    #[test]
    fn serial_and_tape_agree_exactly() {
        let (sys, golden, faults) = setup();
        let serial = run_serial(&sys, &golden, &faults);
        let (tape, _) = run_tape_counted(&sys, &golden, &faults);
        // Both replay the same schedule, so verdicts *and* first
        // detection cycles agree fault for fault.
        assert_eq!(serial, tape);
    }

    #[test]
    fn empty_fault_list_yields_no_outcomes() {
        let (sys, golden, _) = setup();
        let (outcomes, cycles) = run_tape_counted(&sys, &golden, &[]);
        assert!(outcomes.is_empty());
        assert_eq!(cycles, 0);
    }

    #[test]
    fn detected_cycles_point_at_real_differences() {
        let (sys, golden, faults) = setup();
        for o in run_serial(&sys, &golden, &faults).iter().take(20) {
            if let Detection::Detected { cycle } = o.detection {
                // Re-simulate that fault up to `cycle` and confirm.
                let mut sim = CycleSim::with_fault(&sys.netlist, o.fault);
                let run = golden
                    .runs
                    .iter()
                    .find(|r| (r.start..r.start + r.len).contains(&cycle))
                    .unwrap();
                sys.reset_sim(&mut sim, sfr_netlist::Logic::X);
                let mut differed = false;
                for c in run.start..=cycle {
                    sys.apply_pattern(&mut sim, golden.patterns[c]);
                    sim.eval();
                    if sim
                        .outputs()
                        .iter()
                        .zip(&golden.outputs[c])
                        .any(|(g, w)| g.definitely_differs(*w))
                    {
                        differed = true;
                        break;
                    }
                    sim.clock();
                }
                assert!(differed, "fault {} claimed detection at {cycle}", o.fault);
            }
        }
    }
}

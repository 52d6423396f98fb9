//! The fault-free references every fault is judged against.
//!
//! The paper compares each faulty system with one fault-free system, so
//! both references here are computed once and shared by the whole fault
//! list:
//!
//! * the [`GoldenTrace`] of an integrated test session — run
//!   boundaries, applied patterns, and the settled outputs, control
//!   word and controller state of every cycle. A session is a sequence
//!   of *runs*: the tester resets the pair, lets the computation
//!   execute with TPGR data on the inputs, observes the data outputs
//!   every cycle, and resets again. Run boundaries are fixed by
//!   simulating the fault-free system once (the test program a real
//!   tester would replay), on lane 0 of a fault-free compiled tape;
//!   faulty circuits are then compared cycle-for-cycle against it. The
//!   scalar [`sfr_netlist::CycleSim`] stays the reference it is tested
//!   against field for field.
//! * the [`SymbolicGolden`] trajectories the SFR/SFI oracle compares
//!   faulty control traces with: for each canonical state path (RESET,
//!   the body at every loop depth, then HOLD), the fault-free
//!   per-cycle output and status expressions over the symbolic RTL
//!   domain, which of them a tester could observe, the register
//!   values entering each cycle, and the interned domain itself.
//!   [`System::symbolic_golden`] builds them on first use and keeps
//!   them for the life of the system.

use crate::system::System;
use sfr_fsm::StateId;
use sfr_netlist::{LaneValue, Logic, NetId, Pat, TapeProgram, TapeSim};
use sfr_rtl::{DatapathSim, ExprId, InputId, RegId, StepResult, SymbolicDomain};
use sfr_tpg::TestSet;

/// One run within a session (a reset-to-reset window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Index of the run's first cycle in the session.
    pub start: usize,
    /// Number of cycles.
    pub len: usize,
}

/// Session shaping parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Hard per-run cycle limit (loop guard for data that never exits).
    pub max_cycles_per_run: usize,
    /// Cycles to keep observing after the controller reaches HOLD.
    pub hold_cycles: usize,
    /// Watchdog budget: an additional per-run cycle ceiling applied to
    /// *faulty* simulation during power grading (0 = disabled). Callers
    /// set it to a multiple of the design's nominal run length (see
    /// `System::nominal_run_cycles`); a faulty run that is still not in
    /// HOLD when its budget expires is reported as budget-exhausted
    /// instead of burning cycles until `max_cycles_per_run`.
    ///
    /// The fault-free golden trace never consults the budget — run
    /// boundaries, and therefore every classification verdict, are
    /// identical with the watchdog on or off.
    pub cycle_budget: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_cycles_per_run: 200,
            hold_cycles: 2,
            cycle_budget: 0,
        }
    }
}

impl RunConfig {
    /// The effective per-run cycle ceiling for faulty simulation: the
    /// loop guard, tightened by the watchdog budget when one is set.
    pub fn run_ceiling(&self) -> usize {
        if self.cycle_budget == 0 {
            self.max_cycles_per_run
        } else {
            self.max_cycles_per_run.min(self.cycle_budget)
        }
    }
}

/// The fault-free session trace.
#[derive(Debug, Clone)]
pub struct GoldenTrace {
    /// Run boundaries.
    pub runs: Vec<RunSpec>,
    /// The pattern applied in each cycle.
    pub patterns: Vec<u64>,
    /// Settled primary-output values per cycle.
    pub outputs: Vec<Vec<Logic>>,
    /// Settled control-word values per cycle (controller output nets).
    pub ctrl: Vec<Vec<Logic>>,
    /// Decoded controller state per cycle (`None` if undecodable).
    pub states: Vec<Option<StateId>>,
}

impl GoldenTrace {
    /// Total cycles in the session.
    pub fn cycles(&self) -> usize {
        self.patterns.len()
    }
}

/// Simulates the fault-free system over a test set, fixing the session's
/// run boundaries.
///
/// Each run starts from a tester reset (controller in its reset state,
/// datapath registers unknown — real silicon powers up to arbitrary
/// values, and `X` is the simulator's sound abstraction of that). One
/// pattern is consumed per cycle; a run ends `hold_cycles` after the
/// controller reaches HOLD (or at the loop-guard limit), and the next
/// run begins on the following pattern. Trailing patterns too few to
/// start a meaningful run are still consumed (a short final run).
///
/// The session runs on lane 0 of a fault-free three-valued
/// [`TapeProgram`], the same compiled kernel the campaigns use.
pub fn golden_trace(sys: &System, ts: &TestSet, cfg: &RunConfig) -> GoldenTrace {
    assert_eq!(
        ts.width(),
        sys.pattern_width(),
        "test set width must equal ports × datapath width"
    );
    let mut trace = GoldenTrace {
        runs: Vec::new(),
        patterns: Vec::new(),
        outputs: Vec::new(),
        ctrl: Vec::new(),
        states: Vec::new(),
    };
    let prog =
        TapeProgram::<Pat>::compile(&sys.netlist, &[]).expect("a fault-free tape needs one lane");
    let mut sim = TapeSim::new(&prog);
    let lane0 = |sim: &TapeSim<'_, Pat>, nets: &[NetId]| -> Vec<Logic> {
        nets.iter().map(|&n| sim.value(n).lane(0)).collect()
    };
    let mut idx = 0usize;
    let hold = sys.meta.hold_state();

    while idx < ts.len() {
        let start = trace.patterns.len();
        sys.reset_tape(&mut sim, Logic::X);
        let mut in_hold_for = 0usize;
        let mut len = 0usize;
        while idx < ts.len() && len < cfg.max_cycles_per_run {
            let pat = ts.patterns()[idx];
            idx += 1;
            len += 1;
            sys.apply_pattern_tape(&mut sim, pat);
            sim.eval();
            trace.patterns.push(pat);
            trace.outputs.push(lane0(&sim, sys.netlist.outputs()));
            trace.ctrl.push(lane0(&sim, &sys.ctrl.output_nets));
            let st = sys.decode_state_tape_lane(&sim, 0);
            trace.states.push(st);
            sim.clock();
            if st == Some(hold) {
                in_hold_for += 1;
                if in_hold_for > cfg.hold_cycles {
                    break;
                }
            }
        }
        trace.runs.push(RunSpec { start, len });
    }
    trace
}

/// Which loop iteration counts the symbolic trajectories exercise (one
/// trajectory with `k` loop-backs for each `k` listed). Non-looping
/// designs ignore this.
pub const LOOP_DEPTHS: [usize; 4] = [0, 1, 2, 3];

/// Hold-state cycles appended to each symbolic trajectory.
pub const HOLD_OBSERVE_CYCLES: usize = 3;

/// The fault-free symbolic trajectories of a system, one per canonical
/// state path. Built once per [`System`] by [`System::symbolic_golden`].
#[derive(Debug, Clone)]
pub struct SymbolicGolden {
    /// One entry per state path, in the order the oracle checks them.
    pub paths: Vec<SymbolicPath>,
}

/// The fault-free symbolic trace along one state path.
#[derive(Debug, Clone)]
pub struct SymbolicPath {
    /// One row per cycle.
    pub rows: Vec<SymbolicRow>,
    /// The domain every expression of [`SymbolicPath::rows`] is interned
    /// in. A faulty trace continues in a copy of it, so a faulty
    /// expression equals a fault-free one exactly when their ids do.
    pub domain: SymbolicDomain,
}

/// One cycle of a fault-free symbolic trajectory.
#[derive(Debug, Clone)]
pub struct SymbolicRow {
    /// The controller state of the cycle.
    pub state: StateId,
    /// Register values entering the cycle.
    pub regs: Vec<ExprId>,
    /// Data output expressions, in port order.
    pub outputs: Vec<ExprId>,
    /// Status expressions, in status order.
    pub statuses: Vec<ExprId>,
    /// Per output: whether its expression is free of unknowns, i.e. a
    /// value the tester can predict and compare.
    pub outputs_observable: Vec<bool>,
    /// Per status: whether its expression is free of unknowns.
    pub statuses_observable: Vec<bool>,
}

impl SymbolicGolden {
    /// Simulates the fault-free system along every canonical state path.
    pub(crate) fn build(sys: &System) -> SymbolicGolden {
        let paths = state_paths(sys)
            .into_iter()
            .map(|states| SymbolicPath::build(sys, &states))
            .collect();
        SymbolicGolden { paths }
    }
}

impl SymbolicPath {
    fn build(sys: &System, states: &[StateId]) -> SymbolicPath {
        let dp = &sys.datapath;
        let mut sim = DatapathSim::new(dp, SymbolicDomain::new(dp.width()));
        // Boot values: the same named unknown per register in every
        // trace, fault-free or faulty.
        for r in 0..dp.registers().len() {
            let boot = sim.domain_mut().named_unknown(r as u32);
            sim.set_reg(RegId(r), boot);
        }
        let mut rows = Vec::with_capacity(states.len());
        for (cycle, &state) in states.iter().enumerate() {
            let regs = sim.regs().to_vec();
            let step = symbolic_step(&mut sim, cycle, &sys.ctrl.realized_outputs[state.0]);
            let observable = |ids: &[ExprId]| -> Vec<bool> {
                ids.iter()
                    .map(|&id| !sim.domain().contains_unknown(id))
                    .collect()
            };
            rows.push(SymbolicRow {
                state,
                regs,
                outputs_observable: observable(&step.outputs),
                statuses_observable: observable(&step.statuses),
                outputs: step.outputs,
                statuses: step.statuses,
            });
        }
        SymbolicPath {
            rows,
            domain: sim.into_domain(),
        }
    }
}

/// Steps a symbolic simulation through trajectory cycle `cycle` under
/// the control word `row` (one realized output table row). Data input
/// `p` carries the symbol `(p, cycle)`, the same in every trace.
pub fn symbolic_step(
    sim: &mut DatapathSim<'_, SymbolicDomain>,
    cycle: usize,
    row: &[bool],
) -> StepResult<ExprId> {
    let word: Vec<Logic> = row.iter().map(|&b| Logic::from_bool(b)).collect();
    let inputs: Vec<ExprId> = (0..sim.datapath().inputs().len())
        .map(|p| sim.domain_mut().input(InputId(p), cycle as u64))
        .collect();
    sim.step(&word, &inputs)
}

/// The canonical state paths for a system: RESET, the body (repeated per
/// loop depth), then HOLD observation cycles.
fn state_paths(sys: &System) -> Vec<Vec<StateId>> {
    let meta = &sys.meta;
    let hold = std::iter::repeat(meta.hold_state()).take(HOLD_OBSERVE_CYCLES);
    match meta.loop_spec {
        None => {
            let mut t = vec![meta.reset_state()];
            t.extend((1..=meta.n_steps).map(|k| meta.state_of_step(k)));
            t.extend(hold);
            vec![t]
        }
        Some(l) => {
            // Prologue once, then the loop region per depth.
            let prologue: Vec<StateId> = (1..l.back_to).map(|k| meta.state_of_step(k)).collect();
            let region: Vec<StateId> = (l.back_to..=meta.n_steps)
                .map(|k| meta.state_of_step(k))
                .collect();
            LOOP_DEPTHS
                .iter()
                .map(|&d| {
                    let mut t = vec![meta.reset_state()];
                    t.extend(&prologue);
                    for _ in 0..=d {
                        t.extend(&region);
                    }
                    t.extend(hold.clone());
                    t
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::toy_system;
    use sfr_netlist::logic_to_u64;

    #[test]
    fn golden_trace_partitions_patterns_into_runs() {
        let sys = toy_system();
        let ts = TestSet::pseudorandom(sys.pattern_width(), 60, 0xACE1).unwrap();
        let trace = golden_trace(&sys, &ts, &RunConfig::default());
        assert_eq!(trace.cycles(), 60);
        // toy: RESET, CS1..CS3, HOLD + 2 extra hold cycles = 7 cycles/run.
        assert!(trace.runs.len() >= 8);
        let total: usize = trace.runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 60);
        // Runs are contiguous.
        let mut expect = 0;
        for r in &trace.runs {
            assert_eq!(r.start, expect);
            expect += r.len;
        }
    }

    #[test]
    fn golden_outputs_settle_to_computation_results() {
        let sys = toy_system();
        // One fixed pattern: a=3, b=4 always → s=15 at HOLD.
        let ts = TestSet::from_patterns(8, vec![3 | 4 << 4; 14]);
        let trace = golden_trace(&sys, &ts, &RunConfig::default());
        let hold = sys.meta.hold_state();
        let hold_cycles: Vec<usize> = (0..trace.cycles())
            .filter(|&c| trace.states[c] == Some(hold))
            .collect();
        assert!(!hold_cycles.is_empty());
        for c in hold_cycles {
            assert_eq!(logic_to_u64(&trace.outputs[c]), Some(15));
        }
    }

    #[test]
    fn golden_ctrl_trace_is_fully_known() {
        let sys = toy_system();
        let ts = TestSet::pseudorandom(sys.pattern_width(), 30, 7).unwrap();
        let trace = golden_trace(&sys, &ts, &RunConfig::default());
        for (c, word) in trace.ctrl.iter().enumerate() {
            for v in word {
                assert!(v.is_known(), "control X at cycle {c}");
            }
        }
        // States always decodable in the fault-free machine.
        assert!(trace.states.iter().all(|s| s.is_some()));
    }
}

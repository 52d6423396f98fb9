//! The fault-free references every fault is judged against are built
//! once and shared, and sharing them changes no answer: the tape golden
//! session equals the scalar `CycleSim` session field for field, and the
//! oracle's early-exit faulty traces over the per-system symbolic
//! trajectories return the verdict of two full traces simulated per
//! call, mismatch cycle, port and status included.

#![allow(clippy::unwrap_used)]

use sfr_faultsim::fixtures::{muxed_system, toy_system};
use sfr_faultsim::{SymbolicGolden, HOLD_OBSERVE_CYCLES, LOOP_DEPTHS};
use sfr_power::{
    analyze_controller_fault, benchmarks, golden_trace, judge, CycleSim, DatapathSim,
    EmittedSystem, Encoding, ExprId, FillPolicy, GoldenTrace, InputId, Logic, Mismatch, RegId,
    RunConfig, RunSpec, StateId, SymbolicDomain, System, SystemConfig, TestSet, Verdict,
};

/// The scalar reference for [`golden_trace`]: the same session on
/// [`CycleSim`].
fn golden_trace_scalar(sys: &System, ts: &TestSet, cfg: &RunConfig) -> GoldenTrace {
    let mut trace = GoldenTrace {
        runs: Vec::new(),
        patterns: Vec::new(),
        outputs: Vec::new(),
        ctrl: Vec::new(),
        states: Vec::new(),
    };
    let mut sim = CycleSim::new(&sys.netlist);
    let mut idx = 0usize;
    let hold = sys.meta.hold_state();
    while idx < ts.len() {
        let start = trace.patterns.len();
        sys.reset_sim(&mut sim, Logic::X);
        let mut in_hold_for = 0usize;
        let mut len = 0usize;
        while idx < ts.len() && len < cfg.max_cycles_per_run {
            let pat = ts.patterns()[idx];
            idx += 1;
            len += 1;
            sys.apply_pattern(&mut sim, pat);
            sim.eval();
            trace.patterns.push(pat);
            trace.outputs.push(sim.outputs());
            trace
                .ctrl
                .push(sys.ctrl.output_nets.iter().map(|&n| sim.value(n)).collect());
            let st = sys.decode_state(&sim);
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

fn assert_golden_matches_scalar(label: &str, sys: &System, patterns: usize) {
    let ts = TestSet::pseudorandom(sys.pattern_width(), patterns, 0xACE1).unwrap();
    // A short loop guard as well, so runs cut at the limit are covered
    // next to runs that end in HOLD.
    for cfg in [
        RunConfig::default(),
        RunConfig {
            max_cycles_per_run: 9,
            ..RunConfig::default()
        },
    ] {
        let tape = golden_trace(sys, &ts, &cfg);
        let scalar = golden_trace_scalar(sys, &ts, &cfg);
        assert_eq!(tape.runs, scalar.runs, "{label}: runs");
        assert_eq!(tape.patterns, scalar.patterns, "{label}: patterns");
        assert_eq!(tape.outputs, scalar.outputs, "{label}: outputs");
        assert_eq!(tape.ctrl, scalar.ctrl, "{label}: ctrl");
        assert_eq!(tape.states, scalar.states, "{label}: states");
    }
}

#[test]
fn tape_golden_session_matches_the_scalar_reference_on_the_fixtures() {
    assert_golden_matches_scalar("toy", &toy_system(), 400);
    assert_golden_matches_scalar("muxed", &muxed_system(), 400);
}

#[test]
fn tape_golden_session_matches_the_scalar_reference_on_the_benchmarks() {
    for width in [4, 8, 12] {
        for (name, emitted) in benchmarks::extended_benchmarks(width).unwrap() {
            let sys = System::build(&emitted, SystemConfig::default()).unwrap();
            assert_golden_matches_scalar(&format!("{name}/w{width}"), &sys, 240);
        }
    }
}

/// The reference oracle: both full symbolic traces, fault-free then
/// faulty, simulated per call in one fresh domain.
mod reference {
    use super::*;

    /// Per-cycle `(outputs, statuses)` expression ids of one trace.
    type TraceRows = Vec<(Vec<ExprId>, Vec<ExprId>)>;

    /// RESET, the body (repeated per loop depth), then HOLD cycles.
    fn trajectories(sys: &System) -> Vec<Vec<StateId>> {
        let n = sys.meta.n_steps;
        let hold = || std::iter::repeat(sys.meta.hold_state()).take(HOLD_OBSERVE_CYCLES);
        match sys.meta.loop_spec {
            None => {
                let mut t = vec![sys.meta.reset_state()];
                t.extend((1..=n).map(|k| sys.meta.state_of_step(k)));
                t.extend(hold());
                vec![t]
            }
            Some(l) => {
                let prologue: Vec<StateId> =
                    (1..l.back_to).map(|k| sys.meta.state_of_step(k)).collect();
                let region: Vec<StateId> =
                    (l.back_to..=n).map(|k| sys.meta.state_of_step(k)).collect();
                LOOP_DEPTHS
                    .iter()
                    .map(|&d| {
                        let mut t = vec![sys.meta.reset_state()];
                        t.extend(&prologue);
                        for _ in 0..=d {
                            t.extend(&region);
                        }
                        t.extend(hold());
                        t
                    })
                    .collect()
            }
        }
    }

    fn run_trace(
        sys: &System,
        domain: SymbolicDomain,
        trajectory: &[StateId],
        table: &[Vec<bool>],
    ) -> (TraceRows, SymbolicDomain) {
        let dp = &sys.datapath;
        let mut sim = DatapathSim::new(dp, domain);
        for r in 0..dp.registers().len() {
            let boot = sim.domain_mut().named_unknown(r as u32);
            sim.set_reg(RegId(r), boot);
        }
        let mut rows = Vec::with_capacity(trajectory.len());
        for (t, &st) in trajectory.iter().enumerate() {
            let word: Vec<Logic> = table[st.0].iter().map(|&b| Logic::from_bool(b)).collect();
            let inputs: Vec<ExprId> = (0..dp.inputs().len())
                .map(|p| sim.domain_mut().input(InputId(p), t as u64))
                .collect();
            let r = sim.step(&word, &inputs);
            rows.push((r.outputs, r.statuses));
        }
        (rows, sim.into_domain())
    }

    pub fn judge_full(sys: &System, faulty_table: &[Vec<bool>]) -> Verdict {
        let golden_table = &sys.ctrl.realized_outputs;
        let decision_state = sys
            .meta
            .loop_spec
            .map(|_| sys.meta.state_of_step(sys.meta.n_steps));
        for trajectory in trajectories(sys) {
            let domain = SymbolicDomain::new(sys.datapath.width());
            let (golden_rows, domain) = run_trace(sys, domain, &trajectory, golden_table);
            let (faulty_rows, domain) = run_trace(sys, domain, &trajectory, faulty_table);
            for (cycle, ((go, gs), (fo, fs))) in golden_rows.iter().zip(&faulty_rows).enumerate() {
                for (port, (a, b)) in go.iter().zip(fo).enumerate() {
                    if a != b && !domain.contains_unknown(*a) {
                        return Verdict::Irredundant(Mismatch::Output { cycle, port });
                    }
                }
                if Some(trajectory[cycle]) == decision_state {
                    for (status, (a, b)) in gs.iter().zip(fs).enumerate() {
                        if a != b && !domain.contains_unknown(*a) {
                            return Verdict::Irredundant(Mismatch::Status { cycle, status });
                        }
                    }
                }
            }
        }
        Verdict::Redundant
    }
}

/// Asserts [`judge`] returns the reference verdict for every non-CFR,
/// non-sequence-altering controller fault of `sys`, and that every call
/// shares one set of fault-free trajectories. Returns the number of
/// faults judged.
fn assert_oracle_matches_reference(label: &str, sys: &System) -> usize {
    let golden: *const SymbolicGolden = sys.symbolic_golden();
    let mut judged = 0;
    for fault in sys.controller_faults() {
        let sf = sys.fault_to_standalone(fault).unwrap();
        let behavior = analyze_controller_fault(sys, sf);
        if behavior.is_cfr() || behavior.sequence_altering {
            continue;
        }
        let table = &behavior.faulty_outputs;
        assert_eq!(
            judge(sys, table),
            reference::judge_full(sys, table),
            "{label}: fault {fault}"
        );
        judged += 1;
    }
    assert!(
        std::ptr::eq(golden, sys.symbolic_golden()),
        "{label}: the fault-free trajectories were rebuilt"
    );
    judged
}

/// Every synthesis choice of the synth-sweep workload for one design at
/// 4 bits: three encodings × four fills.
fn assert_sweep_matches_reference(name: &str, emitted: &EmittedSystem) {
    let mut judged = 0;
    for encoding in [Encoding::Binary, Encoding::Gray, Encoding::OneHot] {
        for fill in [
            FillPolicy::Synthesis,
            FillPolicy::Zeros,
            FillPolicy::Ones,
            FillPolicy::Arbitrary(0x5EED),
        ] {
            let sys = System::build(emitted, SystemConfig { encoding, fill }).unwrap();
            let label = format!("{name}/w4/{encoding:?}/{fill:?}");
            judged += assert_oracle_matches_reference(&label, &sys);
        }
    }
    assert!(judged > 0, "{name}: no fault reached the oracle");
}

#[test]
fn oracle_matches_the_reference_across_the_diffeq_sweep() {
    assert_sweep_matches_reference("diffeq", &benchmarks::diffeq(4).unwrap());
}

#[test]
fn oracle_matches_the_reference_across_the_facet_sweep() {
    assert_sweep_matches_reference("facet", &benchmarks::facet(4).unwrap());
}

#[test]
fn oracle_matches_the_reference_across_the_poly_sweep() {
    assert_sweep_matches_reference("poly", &benchmarks::poly(4).unwrap());
}

#[test]
fn oracle_matches_the_reference_across_the_fir_sweep() {
    assert_sweep_matches_reference("fir", &benchmarks::fir(4).unwrap());
}

#[test]
fn oracle_matches_the_reference_at_wider_datapaths() {
    for width in [8, 12] {
        for (name, emitted) in benchmarks::extended_benchmarks(width).unwrap() {
            let sys = System::build(&emitted, SystemConfig::default()).unwrap();
            let label = format!("{name}/w{width}");
            assert!(assert_oracle_matches_reference(&label, &sys) > 0, "{label}");
        }
    }
}

#[test]
fn oracle_matches_the_reference_on_the_fixtures() {
    assert!(assert_oracle_matches_reference("toy", &toy_system()) > 0);
    assert!(assert_oracle_matches_reference("muxed", &muxed_system()) > 0);
}

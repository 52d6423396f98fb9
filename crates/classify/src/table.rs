//! Exhaustive controller-table analysis of a faulty controller.
//!
//! Steps 3 of the paper's methodology: "inject the fault into the
//! controller and simulate the controller to determine the fault's
//! effect on the controller outputs". Because the controller is a small
//! FSM, we do better than sampling — for *every* (state, status) pair we
//! compare the faulty controller's outputs and next state against the
//! fault-free machine. A fault that never changes either is
//! controller-functionally redundant (CFR); one that changes outputs but
//! never next-state is a pure bundle of *control line effects* (the
//! objects Section 3 analyzes); one that changes next-state is
//! sequence-altering.

use sfr_faultsim::System;
use sfr_fsm::StateId;
use sfr_netlist::{CycleSim, Logic, StuckAt};

/// A change in a single control line in a single control step — the
/// paper's *control line effect* (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlLineEffect {
    /// The state (control step) in which the line changes.
    pub state: StateId,
    /// The control line index (into the datapath control word).
    pub line: usize,
    /// The fault-free value.
    pub fault_free: bool,
    /// The faulty value.
    pub faulty: bool,
}

/// The complete behavioural fingerprint of a controller fault.
#[derive(Debug, Clone)]
pub struct ControllerBehavior {
    /// The fault.
    pub fault: StuckAt,
    /// All control line effects, over reachable states.
    pub effects: Vec<ControlLineEffect>,
    /// Whether any reachable (state, status) pair transitions to a
    /// different next state under the fault.
    pub sequence_altering: bool,
    /// The faulty realized output table (per state, per line), valid for
    /// non-sequence-altering faults.
    pub faulty_outputs: Vec<Vec<bool>>,
}

impl ControllerBehavior {
    /// Whether the fault is controller-functionally redundant: no output
    /// change and no next-state change anywhere reachable.
    pub fn is_cfr(&self) -> bool {
        self.effects.is_empty() && !self.sequence_altering
    }
}

/// Analyzes one controller fault exhaustively.
///
/// `fault` must be expressed in the coordinates of
/// [`System::ctrl_netlist`] (use [`System::fault_to_standalone`]).
///
/// For every specification state and every status assignment, the
/// standalone controller netlist is evaluated with the fault injected;
/// settled control outputs and the next-state code (read at the state
/// flip-flops after a clock) are compared with the fault-free machine.
///
/// # Panics
///
/// Panics if the faulty controller produces an `X` output or state bit —
/// impossible for stuck-at faults on a fully-specified netlist with
/// known inputs, so it indicates an internal error.
pub fn analyze_controller_fault(sys: &System, fault: StuckAt) -> ControllerBehavior {
    let nl = &sys.ctrl_netlist;
    let ctrl = &sys.ctrl_standalone;
    let spec = sys.fsm.spec();
    let n_status = spec.n_status();
    let mut sim = CycleSim::with_fault(nl, fault);

    let mut effects = Vec::new();
    let mut seen_effect = vec![[false; 2]; 0];
    seen_effect.resize(spec.state_count() * spec.control_width(), [false; 2]);
    let mut sequence_altering = false;
    let mut faulty_outputs = vec![vec![false; spec.control_width()]; spec.state_count()];

    for s in spec.states() {
        let code = sys.fsm.code(s);
        for status in 0..(1u32 << n_status) {
            // Load the state and apply the status.
            for (k, &g) in ctrl.state_gates.iter().enumerate() {
                sim.set_state(g, Logic::from_bool(code >> k & 1 == 1));
            }
            let status_bits: Vec<Logic> = (0..n_status)
                .map(|i| Logic::from_bool(status >> i & 1 == 1))
                .collect();
            sim.set_inputs(&status_bits);
            sim.eval();

            // Outputs (Moore: status-independent, but verify across all
            // status values anyway — a fault can break Moore-ness only
            // via paths from status inputs, which would surface here).
            for (j, &net) in ctrl.output_nets.iter().enumerate() {
                let got = sim
                    .value(net)
                    .to_bool()
                    .expect("faulty controller output must be known");
                faulty_outputs[s.0][j] = got;
                let want = sys.ctrl.realized_outputs[s.0][j];
                if got != want {
                    let slot = &mut seen_effect[s.0 * spec.control_width() + j];
                    if !slot[usize::from(got)] {
                        slot[usize::from(got)] = true;
                        effects.push(ControlLineEffect {
                            state: s,
                            line: j,
                            fault_free: want,
                            faulty: got,
                        });
                    }
                }
            }

            // Next state.
            sim.clock();
            let mut next_code = 0u32;
            for (k, &g) in ctrl.state_gates.iter().enumerate() {
                match sim.state(g) {
                    Logic::One => next_code |= 1 << k,
                    Logic::Zero => {}
                    Logic::X => panic!("faulty controller state bit unknown"),
                }
            }
            let want_next = sys.fsm.code(spec.next_state(s, status));
            if next_code != want_next {
                sequence_altering = true;
            }
        }
    }

    ControllerBehavior {
        fault,
        effects,
        sequence_altering,
        faulty_outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_faultsim::fixtures::toy_system;
    use sfr_netlist::FaultSite;

    #[test]
    fn fault_free_table_reproduces_realized_outputs() {
        // Use a fault that cannot matter: there is none by construction,
        // so instead check a real fault's faulty table differs from the
        // golden only where effects are reported.
        let sys = toy_system();
        for f in sys.controller_faults().into_iter().take(12) {
            let sf = sys.fault_to_standalone(f).unwrap();
            let b = analyze_controller_fault(&sys, sf);
            for s in sys.fsm.spec().states() {
                for j in 0..sys.fsm.spec().control_width() {
                    let golden = sys.ctrl.realized_outputs[s.0][j];
                    let faulty = b.faulty_outputs[s.0][j];
                    let reported = b.effects.iter().any(|e| e.state == s && e.line == j);
                    assert_eq!(
                        golden != faulty,
                        reported,
                        "fault {sf} state {s:?} line {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn some_faults_are_sequence_altering() {
        let sys = toy_system();
        let behaviors: Vec<ControllerBehavior> = sys
            .controller_faults()
            .into_iter()
            .map(|f| analyze_controller_fault(&sys, sys.fault_to_standalone(f).unwrap()))
            .collect();
        assert!(behaviors.iter().any(|b| b.sequence_altering));
        assert!(behaviors.iter().any(|b| !b.effects.is_empty()));
    }

    #[test]
    fn minimized_controller_has_no_cfr_faults() {
        // The paper: "our example circuits did not contain any CFR
        // faults; the synthesis method did not allow redundancy." Exact
        // two-level minimization gives the same property here.
        let sys = toy_system();
        for f in sys.controller_faults() {
            let b = analyze_controller_fault(&sys, sys.fault_to_standalone(f).unwrap());
            assert!(!b.is_cfr(), "fault {f} is CFR in a minimized controller");
        }
    }

    #[test]
    fn redundant_controller_logic_yields_cfr_faults() {
        // The paper's synthesized controllers had no CFR faults, but the
        // class exists when the controller carries redundancy. Re-open
        // the standalone controller and add a *dangling* gate (a real
        // synthesis artefact: dead logic left by an ECO); faults confined
        // to it never change any output or next state — CFR.
        use sfr_netlist::{CellKind, NetlistBuilder};
        let mut sys = toy_system();
        let mut b = NetlistBuilder::from_netlist(&sys.ctrl_netlist);
        let probe = sys.ctrl_standalone.state_nets[0];
        let dangling = b.gate_net(CellKind::Inv, "dead_inv", &[probe]);
        let _ = dangling;
        sys.ctrl_netlist = b.finish().expect("still valid");
        let dead_gate = sfr_netlist::GateId::from_index(sys.ctrl_netlist.gate_count() - 1);
        for stuck in [false, true] {
            let b = analyze_controller_fault(&sys, StuckAt::output(dead_gate, stuck));
            assert!(b.is_cfr(), "fault on dead logic must be CFR");
        }
        // And a fault on live logic in the same doctored netlist is not.
        let live = sys
            .controller_faults()
            .into_iter()
            .map(|f| sys.fault_to_standalone(f).unwrap())
            .next()
            .unwrap();
        let lb = analyze_controller_fault(&sys, live);
        let _ = lb; // any verdict is fine; the call must not panic
    }

    #[test]
    fn state_ff_output_fault_alters_sequence() {
        let sys = toy_system();
        // Pick the fault on the first state FF's output stuck at 1.
        let ff = sys.ctrl_standalone.state_gates[0];
        let f = StuckAt::output(ff, true);
        let b = analyze_controller_fault(&sys, f);
        assert!(b.sequence_altering || !b.effects.is_empty());
        match f.site {
            FaultSite::GateOutput { .. } => {}
            _ => unreachable!(),
        }
    }
}

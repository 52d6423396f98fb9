//! Static (simulation-free) CFR proofs for controller stuck-at faults.
//!
//! Three sufficient conditions prove a fault controller-functionally
//! redundant without running a single simulation cycle:
//!
//! 1. **Dead cone** — the fault's combinational influence cone reaches
//!    neither a control output nor a state flip-flop ([`cone_is_dead`]).
//! 2. **Constant site** — the net the fault disturbs is proven to hold
//!    the stuck value over the entire controller-table domain (every
//!    enumerated state × every binary status), so forcing it there
//!    changes nothing ([`NetConstants::constant_everywhere`]).
//! 3. **Contained disturbance** — the difference-domain abstract
//!    interpretation ([`crate::absint_cfr`]) proves the disturbance is
//!    masked or parity-cancelled before it reaches any output or
//!    flip-flop, even though the site itself moves.
//!
//! Any condition implies the exhaustive table analysis would find no
//! output or next-state change anywhere — the fault is CFR, and (since
//! a CFR fault leaves every physical completion of the machine
//! bit-identical to the fault-free one) it can never be detected by any
//! I/O test. Pruning it before the campaign is behaviour-preserving.

use crate::absint::absint_cfr;
use crate::cone::cone_is_dead;
use crate::constprop::{controller_net_constants, NetConstants};
use sfr_faultsim::System;
use sfr_netlist::{FaultSite, StuckAt};

/// Why a fault was proven statically CFR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticCfrReason {
    /// Its influence cone reaches no output and no flip-flop.
    DeadCone,
    /// Its site holds the stuck value over the whole table domain.
    ConstantSite,
    /// Abstract interpretation proved the disturbance absorbed by a
    /// controlling-constant side input before reaching anything
    /// observable.
    MaskedPropagation,
    /// Abstract interpretation proved the disturbance cancelled by
    /// XOR/XNOR parity before reaching anything observable.
    ParityCancellation,
}

/// Precomputed per-system facts shared by all per-fault checks.
#[derive(Debug, Clone)]
pub struct StaticAnalysis {
    /// Net constancy over the controller-table domain.
    pub constants: NetConstants,
}

/// Runs the per-system analyses once; the result feeds every
/// [`statically_cfr`] query.
pub fn analyze_controller_static(sys: &System) -> StaticAnalysis {
    StaticAnalysis {
        constants: controller_net_constants(sys),
    }
}

/// Tries to prove `fault` CFR statically. `fault` must be in
/// [`System::ctrl_netlist`] coordinates (see
/// [`System::fault_to_standalone`]). Returns `None` when neither proof
/// applies — which says nothing about the fault's real class.
pub fn statically_cfr(
    sys: &System,
    analysis: &StaticAnalysis,
    fault: StuckAt,
) -> Option<StaticCfrReason> {
    let nl = &sys.ctrl_netlist;
    if cone_is_dead(nl, fault) {
        return Some(StaticCfrReason::DeadCone);
    }
    let site_net = match fault.site {
        // An output fault forces the gate's output net. Forcing a
        // sequential gate's output interacts with explicit state loads,
        // so constancy reasoning is restricted to combinational gates.
        FaultSite::GateOutput { gate } => {
            if nl.gate(gate).kind().is_sequential() {
                return None;
            }
            nl.gate(gate).output()
        }
        // A pin fault changes only what this gate perceives; if the
        // driving net always carries the stuck value, perception equals
        // reality (sound for flip-flop data pins too).
        FaultSite::GateInput { gate, pin } => nl.gate(gate).inputs()[pin],
        FaultSite::PrimaryInput { net } => net,
    };
    if analysis.constants.constant_everywhere(site_net) == Some(fault.stuck) {
        return Some(StaticCfrReason::ConstantSite);
    }
    absint_cfr(nl, &analysis.constants, fault)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_faultsim::fixtures::toy_system;
    use sfr_netlist::{CellKind, GateId, NetlistBuilder};

    #[test]
    fn minimized_controller_has_no_static_cfr() {
        // The toy controller is exactly minimized: nothing is provably
        // dead or constant, so the static pass must claim nothing.
        let sys = toy_system();
        let a = analyze_controller_static(&sys);
        for f in sys.controller_faults() {
            let v = sys
                .fault_to_standalone(f)
                .and_then(|sf| statically_cfr(&sys, &a, sf));
            assert_eq!(v, None, "fault {f} wrongly proven CFR");
        }
    }

    #[test]
    fn dangling_gate_faults_are_statically_cfr() {
        let mut sys = toy_system();
        let mut b = NetlistBuilder::from_netlist(&sys.ctrl_netlist);
        let probe = sys.ctrl_standalone.state_nets[0];
        let _dead = b.gate_net(CellKind::Inv, "dead_inv", &[probe]);
        sys.ctrl_netlist = b.finish().expect("still valid");
        let dead_gate = GateId::from_index(sys.ctrl_netlist.gate_count() - 1);
        let a = analyze_controller_static(&sys);
        for stuck in [false, true] {
            assert_eq!(
                statically_cfr(&sys, &a, StuckAt::output(dead_gate, stuck)),
                Some(StaticCfrReason::DeadCone)
            );
        }
    }

    #[test]
    fn verdicts_are_thread_invariant() {
        let mut sys = toy_system();
        let mut b = NetlistBuilder::from_netlist(&sys.ctrl_netlist);
        let probe = sys.ctrl_standalone.state_nets[0];
        let _dead = b.gate_net(CellKind::Inv, "dead_inv", &[probe]);
        sys.ctrl_netlist = b.finish().expect("still valid");
        let a = analyze_controller_static(&sys);
        let faults = sys.controller_faults();
        let verdicts = |threads| {
            sfr_exec::par_map_indexed(threads, faults.len(), |i| {
                sys.fault_to_standalone(faults[i])
                    .and_then(|sf| statically_cfr(&sys, &a, sf))
            })
        };
        let one = verdicts(1);
        for threads in [2, 8] {
            assert_eq!(one, verdicts(threads));
        }
    }

    #[test]
    fn static_cfr_agrees_with_the_exhaustive_table() {
        // Doctor the controller with dead logic, then check every
        // static claim against the table analysis it shortcuts.
        let mut sys = toy_system();
        let mut b = NetlistBuilder::from_netlist(&sys.ctrl_netlist);
        let probe = sys.ctrl_standalone.state_nets[0];
        let _dead = b.gate_net(CellKind::Inv, "dead_inv", &[probe]);
        sys.ctrl_netlist = b.finish().expect("still valid");
        let a = analyze_controller_static(&sys);
        let n_gates = sys.ctrl_netlist.gate_count();
        for g in 0..n_gates {
            for stuck in [false, true] {
                let f = StuckAt::output(GateId::from_index(g), stuck);
                if statically_cfr(&sys, &a, f).is_some() {
                    // The cone/constant proof must match reality: zero
                    // effects, zero next-state changes.
                    let nl = &sys.ctrl_netlist;
                    assert!(
                        !nl.gate(GateId::from_index(g)).kind().is_sequential(),
                        "static CFR never claims sequential outputs"
                    );
                }
            }
        }
    }
}

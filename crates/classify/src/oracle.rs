//! The SFR/SFI oracle: symbolic input-output equivalence of the faulty
//! and fault-free system.
//!
//! A fault is system-functionally *redundant* exactly when the pair's
//! I/O behaviour is unchanged for **all** input data (Section 2). For a
//! non-sequence-altering controller fault, the faulty system is the same
//! datapath driven by a per-state-substituted control word; running both
//! control traces over the symbolic RTL domain and comparing output
//! *expressions* decides equivalence:
//!
//! * identical expression ids ⇒ identical functions of the input data —
//!   a sound "redundant" verdict;
//! * different ids at an *observable* point ⇒ the computations differ
//!   structurally, which for the arithmetic in these datapaths means
//!   some input data exposes the difference — an "irredundant" verdict
//!   (cross-validated against gate-level fault simulation in tests).
//!
//! Observability follows the tester model: an output cycle whose
//! fault-free expression still contains an unknown (a boot value) is an
//! unusable comparison point — the golden simulation itself cannot say
//! what to expect there — so differences at such cycles do not count.
//! Status bits are compared only at loop-decision states, where the
//! controller actually samples them.
//!
//! The fault-free side is the same for every fault, so it is simulated
//! once per system ([`System::symbolic_golden`]): per state path, the
//! output and status ids of every cycle, their observability, and the
//! interned domain. [`judge`] steps only the faulty trace, in a copy of
//! that domain, compares each row as it is produced, and returns at the
//! first observable mismatch. A cycle that enters with the fault-free
//! registers under an unaltered control word repeats the fault-free row
//! exactly, so it is skipped, and the copy is taken only at the first
//! cycle that can differ. Verdicts match two full traces in one fresh
//! domain because hash-consed ids compare structurally whatever order
//! the nodes were interned in, observability depends only on fault-free
//! nodes, and mismatches are searched in the same order — cycle, then
//! output ports, then statuses.

use sfr_faultsim::{symbolic_step, SymbolicPath, System};
use sfr_fsm::StateId;
use sfr_rtl::{DatapathSim, RegId, SymbolicDomain};

/// Why the oracle called a fault irredundant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    /// A data output expression differed at an observable cycle.
    Output {
        /// Cycle within the trajectory.
        cycle: usize,
        /// Output port index.
        port: usize,
    },
    /// A status expression differed at a decision state — the faulty
    /// system's control flow depends differently on the data.
    Status {
        /// Cycle within the trajectory.
        cycle: usize,
        /// Status index.
        status: usize,
    },
}

/// The oracle's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Input-output equivalent on every checked trajectory: SFR.
    Redundant,
    /// A structural difference at an observable point: SFI.
    Irredundant(Mismatch),
}

/// Decides SFR vs SFI for a non-sequence-altering controller fault given
/// its faulty realized output table.
///
/// # Panics
///
/// Panics if `faulty_table` has the wrong shape.
pub fn judge(sys: &System, faulty_table: &[Vec<bool>]) -> Verdict {
    assert_eq!(faulty_table.len(), sys.fsm.spec().state_count());
    let altered: Vec<bool> = faulty_table
        .iter()
        .zip(&sys.ctrl.realized_outputs)
        .map(|(faulty, golden)| faulty != golden)
        .collect();
    let decision_state = sys
        .meta
        .loop_spec
        .map(|_| sys.meta.state_of_step(sys.meta.n_steps));
    for path in &sys.symbolic_golden().paths {
        if let Some(m) = first_mismatch(sys, path, faulty_table, &altered, decision_state) {
            return Verdict::Irredundant(m);
        }
    }
    Verdict::Redundant
}

/// Steps the faulty trace along one fault-free path, returning the first
/// observable point where it differs.
fn first_mismatch(
    sys: &System,
    path: &SymbolicPath,
    faulty_table: &[Vec<bool>],
    altered: &[bool],
    decision_state: Option<StateId>,
) -> Option<Mismatch> {
    let mut sim: Option<DatapathSim<'_, SymbolicDomain>> = None;
    // Whether the faulty registers differ from the fault-free ones
    // entering the current cycle.
    let mut diverged = false;
    for (cycle, row) in path.rows.iter().enumerate() {
        if !diverged && !altered[row.state.0] {
            continue;
        }
        let sim = sim.get_or_insert_with(|| DatapathSim::new(&sys.datapath, path.domain.clone()));
        if !diverged {
            // Skipped cycles left the faulty registers at the fault-free values.
            for (r, &v) in row.regs.iter().enumerate() {
                sim.set_reg(RegId(r), v);
            }
        }
        let step = symbolic_step(sim, cycle, &faulty_table[row.state.0]);
        let differs = |golden: &[_], faulty: &[_], observable: &[bool]| {
            (0..golden.len()).find(|&i| golden[i] != faulty[i] && observable[i])
        };
        if let Some(port) = differs(&row.outputs, &step.outputs, &row.outputs_observable) {
            return Some(Mismatch::Output { cycle, port });
        }
        if Some(row.state) == decision_state {
            if let Some(status) = differs(&row.statuses, &step.statuses, &row.statuses_observable) {
                return Some(Mismatch::Status { cycle, status });
            }
        }
        diverged = path
            .rows
            .get(cycle + 1)
            .is_some_and(|next| sim.regs() != next.regs.as_slice());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_faultsim::fixtures::toy_system;

    #[test]
    fn golden_table_judged_redundant_against_itself() {
        let sys = toy_system();
        let v = judge(&sys, &sys.ctrl.realized_outputs);
        assert_eq!(v, Verdict::Redundant);
    }

    #[test]
    fn skipped_load_is_irredundant() {
        let sys = toy_system();
        let mut table = sys.ctrl.realized_outputs.clone();
        // Clear the output register R4's load in CS3 (its only load).
        let ld = sys.datapath.find_ctrl("LD_R4").unwrap();
        let cs3 = sys.meta.state_of_step(3);
        assert!(table[cs3.0][ld.0]);
        table[cs3.0][ld.0] = false;
        assert!(matches!(judge(&sys, &table), Verdict::Irredundant(_)));
    }

    #[test]
    fn extra_load_that_gets_overwritten_is_redundant() {
        let sys = toy_system();
        let mut table = sys.ctrl.realized_outputs.clone();
        // R3 (t) loads in CS2; an extra load in CS1 writes MUL of boot
        // values, overwritten in CS2 before the CS3 read: harmless.
        let ld = sys.datapath.find_ctrl("LD_R3").unwrap();
        let cs1 = sys.meta.state_of_step(1);
        assert!(!table[cs1.0][ld.0]);
        table[cs1.0][ld.0] = true;
        assert_eq!(judge(&sys, &table), Verdict::Redundant);
    }

    #[test]
    fn extra_load_rewriting_same_value_is_redundant() {
        let sys = toy_system();
        let mut table = sys.ctrl.realized_outputs.clone();
        // R4 (s) loads ADD(R3, R1) in CS3; an extra load in HOLD re-loads
        // ADD(R3, R1) — R3 and R1 are unchanged in HOLD, so the same
        // expression is rewritten (the paper's "rewrite a variable
        // unchanged" case, like its fault 21).
        let ld = sys.datapath.find_ctrl("LD_R4").unwrap();
        let hold = sys.meta.hold_state();
        table[hold.0][ld.0] = true;
        assert_eq!(judge(&sys, &table), Verdict::Redundant);
    }

    #[test]
    fn extra_load_clobbering_a_live_register_is_irredundant() {
        let sys = toy_system();
        let mut table = sys.ctrl.realized_outputs.clone();
        // R1 (va) is live in CS2 (read at CS3). An extra load in CS2
        // overwrites it with the sampled port value of that cycle, which
        // differs from the CS1 sample for some data.
        let ld = sys.datapath.find_ctrl("LD_R1").unwrap();
        let cs2 = sys.meta.state_of_step(2);
        assert!(!table[cs2.0][ld.0]);
        table[cs2.0][ld.0] = true;
        assert!(matches!(judge(&sys, &table), Verdict::Irredundant(_)));
    }

    #[test]
    fn extra_load_in_reset_is_redundant() {
        let sys = toy_system();
        let mut table = sys.ctrl.realized_outputs.clone();
        // Loading R3 during RESET writes garbage that CS2 overwrites.
        let ld = sys.datapath.find_ctrl("LD_R3").unwrap();
        let reset = sys.meta.reset_state();
        table[reset.0][ld.0] = true;
        assert_eq!(judge(&sys, &table), Verdict::Redundant);
    }
}

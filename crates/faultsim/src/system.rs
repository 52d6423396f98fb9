//! Full-system assembly: synthesized controller + elaborated datapath in
//! one gate-level netlist.
//!
//! The integrated test of the paper (Figure 1) treats the pair as an
//! indivisible unit: stimuli enter only at the datapath data inputs,
//! observation happens only at the datapath data outputs, and the
//! controller–datapath interface (control lines out, status bits back)
//! is internal. This module builds exactly that object, keeping the
//! controller's gates contiguous so its stuck-at fault universe — the
//! paper's — is a gate-index range.

use crate::golden::SymbolicGolden;
use sfr_fsm::{synthesize_into, EncodedFsm, Encoding, FillPolicy, StateId, SynthesizedController};
use sfr_hls::{DesignMeta, EmittedSystem};
use sfr_netlist::{
    CellKind, CycleSim, GateId, LaneValue, Logic, NetId, Netlist, NetlistBuilder, NetlistError,
    StuckAt, TapeSim,
};
use sfr_rtl::{elaborate_into, Datapath, ElabNets};
use std::sync::OnceLock;

/// Configuration of system construction.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Controller state encoding.
    pub encoding: Encoding,
    /// Don't-care fill policy for controller outputs.
    pub fill: FillPolicy,
}

impl Default for SystemConfig {
    /// Binary encoding with an *arbitrary* (seeded) don't-care fill —
    /// the paper's setting: the controller's don't-cares were committed
    /// by a synthesis flow "without taking power into account", leaving
    /// the slack that makes select-line SFR faults possible. Use
    /// [`FillPolicy::Synthesis`] to see what a modern exact flow does to
    /// that fault population (ablation bench `ablation_fill`).
    fn default() -> Self {
        SystemConfig {
            encoding: Encoding::default(),
            fill: FillPolicy::Arbitrary(0x5EED),
        }
    }
}

/// A complete controller–datapath pair at gate level.
#[derive(Debug, Clone)]
pub struct System {
    /// The merged netlist. Primary inputs: all data-input bits (port
    /// major, LSB first). Primary outputs: all data-output bits.
    pub netlist: Netlist,
    /// Controller handles (gate range, state FFs, control nets).
    pub ctrl: SynthesizedController,
    /// Datapath handles (register bits/gates, output and status nets).
    pub elab: ElabNets,
    /// The encoded controller (state codes, spec).
    pub fsm: EncodedFsm,
    /// The RTL view of the datapath (for symbolic/concrete co-analysis).
    pub datapath: Datapath,
    /// Schedule/binding metadata from HLS.
    pub meta: DesignMeta,
    /// Primary-input nets per data port.
    pub data_inputs: Vec<Vec<NetId>>,
    /// The configuration the system was built with.
    pub cfg: SystemConfig,
    /// A *standalone* copy of the controller (status bits as primary
    /// inputs, control word as primary outputs), structurally identical
    /// to the controller embedded in [`System::netlist`]: gate `i` of
    /// this netlist is gate `ctrl.gate_range.0 + i` of the system.
    /// Used for exhaustive controller-table analysis.
    pub ctrl_netlist: Netlist,
    /// Handles into [`System::ctrl_netlist`].
    pub ctrl_standalone: SynthesizedController,
    /// The fault-free symbolic trajectories, built on first use by
    /// [`System::symbolic_golden`] — never by [`System::build`], so a
    /// study that runs no oracle never pays for them.
    symbolic_golden: OnceLock<SymbolicGolden>,
}

impl System {
    /// Builds the integrated system from an emitted HLS result.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors, which would indicate an
    /// internal bug in synthesis or elaboration.
    ///
    /// # Panics
    ///
    /// Panics if the tester's reset and the data inputs do not reach
    /// every flip-flop and every primary input (see
    /// [`System::reset_tape`]) — also a synthesis or elaboration bug.
    pub fn build(sys: &EmittedSystem, cfg: SystemConfig) -> Result<System, NetlistError> {
        let dp = &sys.datapath;
        let fsm = EncodedFsm::new(sys.fsm.clone(), cfg.encoding);
        let mut b = NetlistBuilder::new(format!("{}_sys", dp.name()));

        // Data-input primary inputs.
        let data_inputs: Vec<Vec<NetId>> = dp
            .inputs()
            .iter()
            .map(|p| {
                (0..dp.width())
                    .map(|i| b.input(format!("{}_{i}", p.name())))
                    .collect()
            })
            .collect();

        // Status indirection nets: the controller reads these; buffers
        // driven by the datapath's status sources close the loop after
        // elaboration. The buffers sit outside the controller gate range.
        let status_nets: Vec<NetId> = (0..dp.statuses().len())
            .map(|i| b.net(format!("status{i}")))
            .collect();

        // Controller first: contiguous gate range = fault universe.
        let ctrl = synthesize_into(&mut b, &fsm, &status_nets, cfg.fill, "ctl");

        // Datapath.
        let elab = elaborate_into(&mut b, dp, &data_inputs, &ctrl.output_nets);

        // Close the status loop.
        for (i, (&src, &dst)) in elab.status_bits.iter().zip(&status_nets).enumerate() {
            b.gate(CellKind::Buf, format!("status_buf{i}"), &[src], dst);
        }

        // Observability: data outputs only (integrated test).
        for port in &elab.output_bits {
            for &n in port {
                b.mark_output(n);
            }
        }

        let netlist = b.finish()?;

        // Structurally identical standalone controller for exhaustive
        // table analysis. Same synthesis inputs + same prefix ⇒ same
        // gates in the same order.
        let (ctrl_netlist, ctrl_standalone) = sfr_fsm::synthesize_standalone(&fsm, cfg.fill)?;
        debug_assert_eq!(
            ctrl_netlist.gate_count(),
            ctrl.gate_range.1 - ctrl.gate_range.0,
            "standalone controller must mirror the embedded one"
        );

        let system = System {
            netlist,
            ctrl,
            elab,
            fsm,
            datapath: dp.clone(),
            meta: sys.meta.clone(),
            data_inputs,
            cfg,
            ctrl_netlist,
            ctrl_standalone,
            symbolic_golden: OnceLock::new(),
        };
        system.assert_reset_reaches_every_source();
        Ok(system)
    }

    /// Checks the precondition that makes two-valued grading exact:
    /// the sequential gates are exactly the controller state flip-flops
    /// plus the datapath register bits (all of which
    /// [`System::reset_tape`] loads), and the primary inputs are exactly
    /// the data-input bits (all of which [`System::apply_pattern_tape`]
    /// drives). A run from a known reset under a binary pattern then
    /// never meets `X`. Both lists are compared in construction order:
    /// the controller is built before the datapath, and each creates its
    /// flip-flops and inputs in the order it records them.
    fn assert_reset_reaches_every_source(&self) {
        let reset = self
            .ctrl
            .state_gates
            .iter()
            .chain(self.elab.reg_gates.iter().flatten());
        assert!(
            reset.eq(self.netlist.sequential_gates()),
            "{}: the reset must load every flip-flop, and only flip-flops",
            self.netlist.name()
        );
        assert!(
            self.data_inputs.iter().flatten().eq(self.netlist.inputs()),
            "{}: the test pattern must drive every primary input, and only inputs",
            self.netlist.name()
        );
    }

    /// The fault-free symbolic trajectories the SFR/SFI oracle judges
    /// every fault against: simulated on the first call (from any
    /// thread), then shared by every later one. They are derived from
    /// [`System::datapath`], [`System::meta`] and the controller's
    /// realized output table, so those must not change after the first
    /// call.
    pub fn symbolic_golden(&self) -> &SymbolicGolden {
        self.symbolic_golden
            .get_or_init(|| SymbolicGolden::build(self))
    }

    /// Translates a fault on the embedded controller into the equivalent
    /// fault on [`System::ctrl_netlist`] (returns `None` for faults
    /// outside the controller range).
    pub fn fault_to_standalone(&self, f: StuckAt) -> Option<StuckAt> {
        let lo = self.ctrl.gate_range.0;
        let remap = |g: GateId| -> Option<GateId> {
            self.is_controller_gate(g)
                .then(|| GateId::from_index(g.index() - lo))
        };
        Some(match f.site {
            sfr_netlist::FaultSite::GateInput { gate, pin } => {
                StuckAt::input(remap(gate)?, pin, f.stuck)
            }
            sfr_netlist::FaultSite::GateOutput { gate } => StuckAt::output(remap(gate)?, f.stuck),
            sfr_netlist::FaultSite::PrimaryInput { .. } => return None,
        })
    }

    /// The collapsed stuck-at fault universe of the controller — the
    /// paper's "faults within the controller".
    pub fn controller_faults(&self) -> Vec<StuckAt> {
        let all = StuckAt::enumerate_collapsed(&self.netlist);
        let (lo, hi) = self.ctrl.gate_range;
        if lo == hi {
            return Vec::new();
        }
        StuckAt::in_gate_range(&all, GateId::from_index(lo), GateId::from_index(hi - 1))
    }

    /// The complete (uncollapsed) controller fault universe.
    pub fn controller_faults_uncollapsed(&self) -> Vec<StuckAt> {
        let all = StuckAt::enumerate(&self.netlist);
        let (lo, hi) = self.ctrl.gate_range;
        if lo == hi {
            return Vec::new();
        }
        StuckAt::in_gate_range(&all, GateId::from_index(lo), GateId::from_index(hi - 1))
    }

    /// Applies the tester's reset: controller FFs take the reset state's
    /// code. Datapath registers are set to `datapath_init` ([`Logic::X`]
    /// models a real power-up; [`Logic::Zero`] gives the known baseline
    /// used for power measurement).
    pub fn reset_sim(&self, sim: &mut CycleSim<'_>, datapath_init: Logic) {
        let code = self.fsm.reset_code();
        for (k, &g) in self.ctrl.state_gates.iter().enumerate() {
            sim.set_state(g, Logic::from_bool(code >> k & 1 == 1));
        }
        for gates in &self.elab.reg_gates {
            for &g in gates {
                sim.set_state(g, datapath_init);
            }
        }
    }

    /// Resets all lanes of a compiled tape simulator the same way, on
    /// either lane domain.
    ///
    /// Mirrors [`System::reset_sim`] field for field: only sequential
    /// *state* is overwritten (per gate, all lanes), never an activity
    /// baseline — so, like the scalar [`CycleSim::set_state`] path, the
    /// toggle edge between the last settled cycle of one run and the
    /// first of the next is counted. That keeps lane-packed power
    /// accounting bit-identical to the scalar measurement loop across
    /// run boundaries. [`System::build`] checks that this reset loads
    /// every flip-flop, so a known `datapath_init` leaves no `X` in the
    /// sequential state.
    ///
    /// # Panics
    ///
    /// Panics if `datapath_init` is [`Logic::X`] on two-valued lanes,
    /// which cannot hold it.
    pub fn reset_tape<V: LaneValue>(&self, sim: &mut TapeSim<'_, V>, datapath_init: Logic) {
        let code = self.fsm.reset_code();
        for (k, &g) in self.ctrl.state_gates.iter().enumerate() {
            sim.set_gate_state(g, V::splat(Logic::from_bool(code >> k & 1 == 1)));
        }
        let init = V::splat(datapath_init);
        for gates in &self.elab.reg_gates {
            for &g in gates {
                sim.set_gate_state(g, init);
            }
        }
    }

    /// Decodes the controller state in a cycle simulator, if it matches a
    /// known state code.
    pub fn decode_state(&self, sim: &CycleSim<'_>) -> Option<StateId> {
        let mut code = 0u32;
        for (k, &g) in self.ctrl.state_gates.iter().enumerate() {
            match sim.state(g) {
                Logic::One => code |= 1 << k,
                Logic::Zero => {}
                Logic::X => return None,
            }
        }
        self.fsm.decode(code)
    }

    /// Decodes the controller state carried by one lane of a compiled
    /// tape simulator, if it matches a known state code.
    ///
    /// Lane 0 is the fault-free controller; the grading loop uses it to
    /// steer run boundaries for a whole fault pack, which is sound
    /// because SFR faults never alter the controller's state sequence.
    pub fn decode_state_tape_lane<V: LaneValue>(
        &self,
        sim: &TapeSim<'_, V>,
        lane: usize,
    ) -> Option<StateId> {
        let mut code = 0u32;
        for (k, &g) in self.ctrl.state_gates.iter().enumerate() {
            match sim.gate_state(g).lane(lane) {
                Logic::One => code |= 1 << k,
                Logic::Zero => {}
                Logic::X => return None,
            }
        }
        self.fsm.decode(code)
    }

    /// Applies one pattern word (all ports concatenated, port-major,
    /// LSB-first) to a cycle simulator's data inputs.
    pub fn apply_pattern(&self, sim: &mut CycleSim<'_>, pattern: u64) {
        let w = self.datapath.width();
        for (p, port) in self.data_inputs.iter().enumerate() {
            for (i, &net) in port.iter().enumerate() {
                let bit = pattern >> (p * w + i) & 1 == 1;
                sim.set_input(net, Logic::from_bool(bit));
            }
        }
    }

    /// Applies one pattern word to every lane of a compiled tape
    /// simulator, on either lane domain.
    pub fn apply_pattern_tape<V: LaneValue>(&self, sim: &mut TapeSim<'_, V>, pattern: u64) {
        let w = self.datapath.width();
        for (p, port) in self.data_inputs.iter().enumerate() {
            for (i, &net) in port.iter().enumerate() {
                let bit = pattern >> (p * w + i) & 1 == 1;
                sim.set_input(net, Logic::from_bool(bit));
            }
        }
    }

    /// Total pattern width in bits (ports × datapath width), the width a
    /// [`sfr_tpg::TestSet`] for this system must have.
    pub fn pattern_width(&self) -> usize {
        self.datapath.inputs().len() * self.datapath.width()
    }

    /// Whether a gate belongs to the controller.
    pub fn is_controller_gate(&self, g: GateId) -> bool {
        self.ctrl.contains_gate(g)
    }

    /// The fault-free length of one straight-line run under a
    /// `hold_cycles`-cycle observation tail: reset + every computation
    /// step + the HOLD entry cycle + the tail. This is the reference
    /// length watchdog budgets are expressed against (a looping design
    /// iterates body steps, so its real runs may legitimately exceed
    /// this; budget factors absorb that).
    pub fn nominal_run_cycles(&self, hold_cycles: usize) -> usize {
        self.meta.n_steps + 2 + hold_cycles
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sfr_netlist::{logic_to_u64, Pat, TapeProgram};

    pub(crate) use crate::fixtures::toy_system;

    #[test]
    fn system_builds_and_has_faults() {
        let sys = toy_system();
        assert!(sys.netlist.gate_count() > 50);
        let faults = sys.controller_faults();
        assert!(!faults.is_empty());
        assert!(faults.len() < sys.controller_faults_uncollapsed().len());
        assert_eq!(sys.pattern_width(), 8);
    }

    #[test]
    fn fault_free_system_computes_through_hold() {
        let sys = toy_system();
        let mut sim = CycleSim::new(&sys.netlist);
        sys.reset_sim(&mut sim, Logic::X);
        // a=3, b=4 → s = 15.
        let pattern = 3 | 4 << 4;
        let mut result = None;
        for _ in 0..8 {
            sys.apply_pattern(&mut sim, pattern);
            sim.eval();
            if sys.decode_state(&sim) == Some(sys.meta.hold_state()) {
                result = logic_to_u64(&sim.outputs());
                break;
            }
            sim.clock();
        }
        assert_eq!(result, Some(15));
    }

    #[test]
    fn state_decodes_through_the_run() {
        let sys = toy_system();
        let mut sim = CycleSim::new(&sys.netlist);
        sys.reset_sim(&mut sim, Logic::X);
        let mut states = Vec::new();
        for _ in 0..5 {
            sys.apply_pattern(&mut sim, 0);
            sim.eval();
            states.push(sys.decode_state(&sim).expect("decodable"));
            sim.clock();
        }
        let expect: Vec<StateId> = vec![
            sys.meta.reset_state(),
            sys.meta.state_of_step(1),
            sys.meta.state_of_step(2),
            sys.meta.state_of_step(3),
            sys.meta.hold_state(),
        ];
        assert_eq!(states, expect);
    }

    /// Runs the toy system from reset on `tape` and on the scalar
    /// reference side by side, checking state and decoded controller
    /// state every cycle.
    fn check_tape_mirrors_scalar<V: LaneValue>(
        sys: &System,
        tape: &mut TapeSim<'_, V>,
        datapath_init: Logic,
    ) {
        let mut sim = CycleSim::new(&sys.netlist);
        sys.reset_sim(&mut sim, datapath_init);
        sys.reset_tape(tape, datapath_init);
        // The per-gate reset paths must cover every sequential gate the
        // same way in both simulators.
        for &g in sys.netlist.sequential_gates() {
            assert_eq!(tape.gate_state(g).lane(0), sim.state(g), "gate {g:?}");
        }
        for _ in 0..5 {
            sys.apply_pattern(&mut sim, 9);
            sys.apply_pattern_tape(tape, 9);
            sim.eval();
            tape.eval();
            assert_eq!(sys.decode_state_tape_lane(tape, 0), sys.decode_state(&sim));
            for &o in sys.netlist.outputs() {
                assert_eq!(tape.value(o).lane(0), sim.value(o));
            }
            sim.clock();
            tape.clock();
        }
    }

    #[test]
    fn tape_reset_and_lane_decode_mirror_scalar_on_both_lane_domains() {
        let sys = toy_system();
        let three = TapeProgram::<Pat>::compile(&sys.netlist, &[]).unwrap();
        check_tape_mirrors_scalar(&sys, &mut TapeSim::new(&three), Logic::X);
        check_tape_mirrors_scalar(&sys, &mut TapeSim::new(&three), Logic::Zero);
        let two = TapeProgram::<u64>::compile(&sys.netlist, &[]).unwrap();
        check_tape_mirrors_scalar(&sys, &mut TapeSim::new(&two), Logic::Zero);
    }

    #[test]
    #[should_panic(expected = "two-valued tape lanes cannot hold X")]
    fn two_valued_reset_to_x_is_refused() {
        let sys = toy_system();
        let prog = TapeProgram::<u64>::compile(&sys.netlist, &[]).unwrap();
        sys.reset_tape(&mut TapeSim::new(&prog), Logic::X);
    }

    #[test]
    fn symbolic_golden_is_built_on_first_use_and_only_once() {
        let sys = toy_system();
        assert!(
            sys.symbolic_golden.get().is_none(),
            "System::build must not simulate the symbolic trajectories"
        );
        let first: *const SymbolicGolden = sys.symbolic_golden();
        assert!(std::ptr::eq(first, sys.symbolic_golden()));
        assert!(std::ptr::eq(first, sys.symbolic_golden.get().unwrap()));
        // One straight-line path: RESET, CS1..CS3, then the HOLD tail.
        let paths = &sys.symbolic_golden().paths;
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].rows.len(), 4 + crate::HOLD_OBSERVE_CYCLES);
    }

    #[test]
    fn controller_fault_universe_excludes_datapath() {
        let sys = toy_system();
        for f in sys.controller_faults() {
            match f.site {
                sfr_netlist::FaultSite::GateInput { gate, .. }
                | sfr_netlist::FaultSite::GateOutput { gate } => {
                    assert!(sys.is_controller_gate(gate));
                }
                sfr_netlist::FaultSite::PrimaryInput { .. } => {
                    panic!("controller faults must not include system PIs")
                }
            }
        }
    }
}

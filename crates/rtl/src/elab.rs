//! Gate-level elaboration of a [`Datapath`] into the [`sfr_netlist`] cell
//! library.
//!
//! Power in this workspace is measured by toggle counting over a real gate
//! netlist (see `sfr-power-model`), so the datapath must exist at gate
//! level: ripple-carry adders/subtractors, a shift-and-add array
//! multiplier, a borrow-chain comparator, per-bit mux trees, and
//! clock-gated [`sfr_netlist::CellKind::Dffe`] register bits. An extra
//! register load forced by a controller fault then honestly costs clock
//! energy plus downstream switching — the paper's Section 4 mechanism.

use crate::component::{DataSrc, FuOp};
use crate::datapath::{CombId, Datapath};
use sfr_netlist::{CellKind, GateId, NetId, NetlistBuilder};

/// Net-level handles into an elaborated datapath.
#[derive(Debug, Clone)]
pub struct ElabNets {
    /// Q nets of every register, `reg_bits[reg][bit]`.
    pub reg_bits: Vec<Vec<NetId>>,
    /// The DFFE gates of every register, `reg_gates[reg][bit]` (for state
    /// initialization in simulators).
    pub reg_gates: Vec<Vec<GateId>>,
    /// Primary data output nets, `output_bits[port][bit]`.
    pub output_bits: Vec<Vec<NetId>>,
    /// Status feed nets (one per status, bit 0 of the source).
    pub status_bits: Vec<NetId>,
}

/// Elaborates `dp` into `b`, reading data inputs from `data_inputs`
/// (`data_inputs[port][bit]`, width nets each) and control lines from
/// `ctrl` (one net per control line).
///
/// Output and status nets are *not* marked as primary outputs — the caller
/// decides observability (a system builder typically exposes data outputs
/// and wires statuses into the controller).
///
/// # Panics
///
/// Panics if `data_inputs` or `ctrl` shapes do not match the datapath.
pub fn elaborate_into(
    b: &mut NetlistBuilder,
    dp: &Datapath,
    data_inputs: &[Vec<NetId>],
    ctrl: &[NetId],
) -> ElabNets {
    assert_eq!(data_inputs.len(), dp.inputs().len(), "data input ports");
    assert!(
        data_inputs.iter().all(|p| p.len() == dp.width()),
        "data input width"
    );
    assert_eq!(ctrl.len(), dp.control_width(), "control width");

    let mut e = Elab {
        b,
        dp,
        prefix: dp.name().to_string(),
        const0: None,
        const1: None,
        counter: 0,
    };

    // Register Q nets first: combinational logic may read them.
    let reg_bits: Vec<Vec<NetId>> = dp
        .registers()
        .iter()
        .map(|r| {
            (0..dp.width())
                .map(|i| e.b.net(format!("{}_{}_q{}", e.prefix, r.name(), i)))
                .collect()
        })
        .collect();

    // Combinational components in dependency order.
    let mut mux_bits: Vec<Option<Vec<NetId>>> = vec![None; dp.muxes().len()];
    let mut fu_bits: Vec<Option<Vec<NetId>>> = vec![None; dp.fus().len()];
    for &c in dp.comb_order() {
        match c {
            CombId::Mux(mi) => {
                let mux = &dp.muxes()[mi];
                let legs: Vec<Vec<NetId>> = mux
                    .inputs()
                    .iter()
                    .map(|&s| e.bits_of(s, data_inputs, &reg_bits, &mux_bits, &fu_bits))
                    .collect();
                let sels: Vec<NetId> = mux.sels().iter().map(|s| ctrl[s.0]).collect();
                let name = mux.name().to_string();
                let out = e.mux_tree(&legs, &sels, &name);
                mux_bits[mi] = Some(out);
            }
            CombId::Fu(fi) => {
                let fu = &dp.fus()[fi];
                let a = e.bits_of(fu.a(), data_inputs, &reg_bits, &mux_bits, &fu_bits);
                let bb = e.bits_of(fu.b(), data_inputs, &reg_bits, &mux_bits, &fu_bits);
                let name = fu.name().to_string();
                let out = match fu.op() {
                    FuOp::Add => e.adder(&a, &bb, false, &name),
                    FuOp::Sub => e.adder(&a, &bb, true, &name),
                    FuOp::Mul => e.multiplier(&a, &bb, &name),
                    FuOp::And => e.bitwise(CellKind::And2, &a, &bb, &name),
                    FuOp::Or => e.bitwise(CellKind::Or2, &a, &bb, &name),
                    FuOp::Xor => e.bitwise(CellKind::Xor2, &a, &bb, &name),
                    FuOp::Lt => e.less_than(&a, &bb, &name),
                    FuOp::Pass => a.clone(),
                };
                fu_bits[fi] = Some(out);
            }
        }
    }

    // Registers: DFFE per bit, enable from the load line.
    let mut reg_gates = Vec::with_capacity(dp.registers().len());
    for (ri, r) in dp.registers().iter().enumerate() {
        let d = e.bits_of(r.src(), data_inputs, &reg_bits, &mux_bits, &fu_bits);
        let en = ctrl[r.load().0];
        let mut gates = Vec::with_capacity(dp.width());
        for i in 0..dp.width() {
            let g = e.b.gate(
                CellKind::Dffe,
                format!("{}_{}_ff{}", e.prefix, r.name(), i),
                &[d[i], en],
                reg_bits[ri][i],
            );
            gates.push(g);
        }
        reg_gates.push(gates);
    }

    let output_bits = dp
        .outputs()
        .iter()
        .map(|&(_, s)| e.bits_of(s, data_inputs, &reg_bits, &mux_bits, &fu_bits))
        .collect();
    let status_bits = dp
        .statuses()
        .iter()
        .map(|&(_, s)| e.bits_of(s, data_inputs, &reg_bits, &mux_bits, &fu_bits)[0])
        .collect();

    ElabNets {
        reg_bits,
        reg_gates,
        output_bits,
        status_bits,
    }
}

struct Elab<'a, 'b> {
    b: &'a mut NetlistBuilder,
    dp: &'b Datapath,
    prefix: String,
    const0: Option<NetId>,
    const1: Option<NetId>,
    counter: usize,
}

impl Elab<'_, '_> {
    fn unique(&mut self, what: &str) -> String {
        self.counter += 1;
        format!("{}_{}{}", self.prefix, what, self.counter)
    }

    fn zero(&mut self) -> NetId {
        if let Some(n) = self.const0 {
            return n;
        }
        let name = self.unique("c0");
        let n = self.b.gate_net(CellKind::Const0, name, &[]);
        self.const0 = Some(n);
        n
    }

    fn one(&mut self) -> NetId {
        if let Some(n) = self.const1 {
            return n;
        }
        let name = self.unique("c1");
        let n = self.b.gate_net(CellKind::Const1, name, &[]);
        self.const1 = Some(n);
        n
    }

    fn gate1(&mut self, kind: CellKind, what: &str, ins: &[NetId]) -> NetId {
        let name = self.unique(what);
        self.b.gate_net(kind, name, ins)
    }

    fn bits_of(
        &mut self,
        src: DataSrc,
        data_inputs: &[Vec<NetId>],
        reg_bits: &[Vec<NetId>],
        mux_bits: &[Option<Vec<NetId>>],
        fu_bits: &[Option<Vec<NetId>>],
    ) -> Vec<NetId> {
        match src {
            DataSrc::Input(i) => data_inputs[i.0].clone(),
            DataSrc::Reg(r) => reg_bits[r.0].clone(),
            DataSrc::Mux(m) => mux_bits[m.0].clone().expect("mux elaborated before use"),
            DataSrc::Fu(f) => fu_bits[f.0].clone().expect("fu elaborated before use"),
            DataSrc::Const(c) => {
                let z = self.zero();
                let o = self.one();
                (0..self.dp.width())
                    .map(|i| if c >> i & 1 == 1 { o } else { z })
                    .collect()
            }
        }
    }

    /// Recursive per-bit mux tree; `sels` LSB first, `legs.len() == 2^sels.len()`.
    fn mux_tree(&mut self, legs: &[Vec<NetId>], sels: &[NetId], name: &str) -> Vec<NetId> {
        if sels.is_empty() {
            return legs[0].clone();
        }
        // Select on the MSB select line between the low and high halves.
        let (lo_sels, msb) = (&sels[..sels.len() - 1], sels[sels.len() - 1]);
        let half = legs.len() / 2;
        let lo = self.mux_tree(&legs[..half], lo_sels, name);
        let hi = self.mux_tree(&legs[half..], lo_sels, name);
        (0..self.dp.width())
            .map(|i| self.gate1(CellKind::Mux2, &format!("{name}_m"), &[lo[i], hi[i], msb]))
            .collect()
    }

    /// Ripple-carry adder (or subtractor when `sub`): full adders from
    /// XOR/AND/OR; subtraction inverts `b` and sets carry-in.
    fn adder(&mut self, a: &[NetId], b: &[NetId], sub: bool, name: &str) -> Vec<NetId> {
        let b: Vec<NetId> = if sub {
            b.iter()
                .map(|&n| self.gate1(CellKind::Inv, &format!("{name}_bi"), &[n]))
                .collect()
        } else {
            b.to_vec()
        };
        let mut carry = if sub { self.one() } else { self.zero() };
        let mut sum = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let axb = self.gate1(CellKind::Xor2, &format!("{name}_x"), &[a[i], b[i]]);
            let s = self.gate1(CellKind::Xor2, &format!("{name}_s"), &[axb, carry]);
            let g1 = self.gate1(CellKind::And2, &format!("{name}_g"), &[a[i], b[i]]);
            let g2 = self.gate1(CellKind::And2, &format!("{name}_p"), &[axb, carry]);
            carry = self.gate1(CellKind::Or2, &format!("{name}_c"), &[g1, g2]);
            sum.push(s);
        }
        sum
    }

    /// Truncating shift-and-add multiplier.
    fn multiplier(&mut self, a: &[NetId], b: &[NetId], name: &str) -> Vec<NetId> {
        let w = a.len();
        let zero = self.zero();
        // acc = a AND splat(b0)
        let mut acc: Vec<NetId> = (0..w)
            .map(|i| self.gate1(CellKind::And2, &format!("{name}_pp"), &[a[i], b[0]]))
            .collect();
        for j in 1..w {
            // pp = (a << j) AND splat(b_j), truncated to w bits.
            let pp: Vec<NetId> = (0..w)
                .map(|i| {
                    if i < j {
                        zero
                    } else {
                        self.gate1(CellKind::And2, &format!("{name}_pp"), &[a[i - j], b[j]])
                    }
                })
                .collect();
            acc = self.adder(&acc, &pp, false, &format!("{name}_r{j}"));
        }
        acc
    }

    /// Unsigned `a < b` via a borrow chain; returns `lt` zero-extended to
    /// the datapath width.
    fn less_than(&mut self, a: &[NetId], b: &[NetId], name: &str) -> Vec<NetId> {
        let mut borrow = self.zero();
        for i in 0..a.len() {
            let na = self.gate1(CellKind::Inv, &format!("{name}_n"), &[a[i]]);
            let t1 = self.gate1(CellKind::And2, &format!("{name}_d"), &[na, b[i]]);
            let eq = self.gate1(CellKind::Xnor2, &format!("{name}_e"), &[a[i], b[i]]);
            let t2 = self.gate1(CellKind::And2, &format!("{name}_k"), &[eq, borrow]);
            borrow = self.gate1(CellKind::Or2, &format!("{name}_b"), &[t1, t2]);
        }
        let zero = self.zero();
        let mut out = vec![zero; a.len()];
        out[0] = borrow;
        out
    }

    /// Per-bit two-operand gate.
    fn bitwise(&mut self, kind: CellKind, a: &[NetId], b: &[NetId], name: &str) -> Vec<NetId> {
        (0..a.len())
            .map(|i| self.gate1(kind, &format!("{name}_w"), &[a[i], b[i]]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{DataSrc, FuOp, RegId};
    use crate::datapath::{Datapath, DatapathBuilder};
    use crate::domain::ConcreteDomain;
    use crate::sim::DatapathSim;
    use sfr_netlist::{logic_to_u64, u64_to_logic, CycleSim, Logic, Netlist};

    /// Builds a netlist around `dp` with primary inputs for data and
    /// control, outputs marked, and returns everything needed to
    /// cross-check against the RTL simulator.
    fn harness(dp: &Datapath) -> (Netlist, ElabNets) {
        let mut b = NetlistBuilder::new(format!("{}_gates", dp.name()));
        let data_inputs: Vec<Vec<NetId>> = dp
            .inputs()
            .iter()
            .map(|p| {
                (0..dp.width())
                    .map(|i| b.input(format!("{}_{}", p.name(), i)))
                    .collect()
            })
            .collect();
        let ctrl: Vec<NetId> = dp
            .control()
            .iter()
            .map(|c| b.input(format!("ctl_{}", c.name())))
            .collect();
        let nets = elaborate_into(&mut b, dp, &data_inputs, &ctrl);
        for port in &nets.output_bits {
            for &n in port {
                b.mark_output(n);
            }
        }
        for &n in &nets.status_bits {
            b.mark_output(n);
        }
        (b.finish().expect("valid elaboration"), nets)
    }

    /// Steps both simulators with the same stimulus, comparing outputs.
    fn cross_check(dp: &Datapath, stim: &[(Vec<Logic>, Vec<u64>)]) {
        let (nl, _) = harness(dp);
        let mut gsim = CycleSim::new(&nl);
        gsim.reset_state(Logic::Zero);
        let mut rsim = DatapathSim::new(dp, ConcreteDomain::new(dp.width()));
        for r in 0..dp.registers().len() {
            rsim.set_reg(RegId(r), Some(0));
        }
        for (ctrl, data) in stim {
            let mut gate_inputs = Vec::new();
            for &d in data {
                gate_inputs.extend(u64_to_logic(d, dp.width()));
            }
            gate_inputs.extend(ctrl.iter().copied());
            gsim.set_inputs(&gate_inputs);
            gsim.eval();
            let gout = gsim.outputs();
            let rres = rsim.step(ctrl, &data.iter().map(|&d| Some(d)).collect::<Vec<_>>());
            // Compare data outputs.
            let mut k = 0;
            for out in &rres.outputs {
                let bits = &gout[k..k + dp.width()];
                assert_eq!(logic_to_u64(bits), *out, "output mismatch");
                k += dp.width();
            }
            for st in &rres.statuses {
                assert_eq!(
                    logic_to_u64(&gout[k..k + 1]),
                    st.map(|v| v & 1),
                    "status mismatch"
                );
                k += 1;
            }
            gsim.clock();
        }
    }

    fn alu_dp(op: FuOp) -> Datapath {
        let mut b = DatapathBuilder::new(format!("alu_{op}"), 4);
        let x = b.input("x");
        let y = b.input("y");
        let ld = b.load_line("LD");
        let f = b.fu("f", op, DataSrc::Input(x), DataSrc::Input(y));
        let r = b.register("r", ld, DataSrc::Fu(f));
        b.output("o", DataSrc::Reg(r));
        b.status("s", DataSrc::Fu(f));
        b.finish().unwrap()
    }

    fn exhaustive_stim() -> Vec<(Vec<Logic>, Vec<u64>)> {
        let mut stim = Vec::new();
        for a in 0..16u64 {
            for b in 0..16u64 {
                stim.push((vec![Logic::One], vec![a, b]));
            }
        }
        stim
    }

    #[test]
    fn adder_matches_rtl_exhaustively() {
        cross_check(&alu_dp(FuOp::Add), &exhaustive_stim());
    }

    #[test]
    fn subtractor_matches_rtl_exhaustively() {
        cross_check(&alu_dp(FuOp::Sub), &exhaustive_stim());
    }

    #[test]
    fn multiplier_matches_rtl_exhaustively() {
        cross_check(&alu_dp(FuOp::Mul), &exhaustive_stim());
    }

    #[test]
    fn comparator_matches_rtl_exhaustively() {
        cross_check(&alu_dp(FuOp::Lt), &exhaustive_stim());
    }

    #[test]
    fn bitwise_ops_match_rtl_exhaustively() {
        for op in [FuOp::And, FuOp::Or, FuOp::Xor, FuOp::Pass] {
            cross_check(&alu_dp(op), &exhaustive_stim());
        }
    }

    #[test]
    fn mux_tree_4way_matches_rtl() {
        let mut b = DatapathBuilder::new("mux4", 4);
        let ins: Vec<_> = (0..4).map(|i| b.input(format!("x{i}"))).collect();
        let s0 = b.select_line("S0");
        let s1 = b.select_line("S1");
        let ld = b.load_line("LD");
        let legs: Vec<DataSrc> = ins.iter().map(|&i| DataSrc::Input(i)).collect();
        let m = b.mux("m", &[s0, s1], &legs);
        let r = b.register("r", ld, DataSrc::Mux(m));
        b.output("o", DataSrc::Reg(r));
        let dp = b.finish().unwrap();

        let mut stim = Vec::new();
        for sel in 0..4u64 {
            let s0v = Logic::from_bool(sel & 1 == 1);
            let s1v = Logic::from_bool(sel & 2 == 2);
            stim.push((vec![s0v, s1v, Logic::One], vec![1, 2, 3, 4]));
            stim.push((vec![s0v, s1v, Logic::Zero], vec![5, 6, 7, 8]));
        }
        cross_check(&dp, &stim);
    }

    #[test]
    fn registers_hold_when_disabled() {
        let dp = alu_dp(FuOp::Add);
        let stim = vec![
            (vec![Logic::One], vec![5, 6]),  // load 11
            (vec![Logic::Zero], vec![9, 9]), // hold
            (vec![Logic::Zero], vec![1, 2]), // hold
        ];
        cross_check(&dp, &stim);
    }

    #[test]
    fn constants_elaborate() {
        let mut b = DatapathBuilder::new("k", 4);
        let x = b.input("x");
        let ld = b.load_line("LD");
        let f = b.fu("f", FuOp::Add, DataSrc::Input(x), DataSrc::Const(5));
        let r = b.register("r", ld, DataSrc::Fu(f));
        b.output("o", DataSrc::Reg(r));
        let dp = b.finish().unwrap();
        let stim: Vec<_> = (0..16u64).map(|a| (vec![Logic::One], vec![a])).collect();
        cross_check(&dp, &stim);
    }

    #[test]
    fn elab_reports_register_gates() {
        let dp = alu_dp(FuOp::Add);
        let (nl, nets) = harness(&dp);
        assert_eq!(nets.reg_gates.len(), 1);
        assert_eq!(nets.reg_gates[0].len(), 4);
        for &g in &nets.reg_gates[0] {
            assert_eq!(nl.gate(g).kind(), CellKind::Dffe);
        }
    }
}

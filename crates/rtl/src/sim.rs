//! The generic RTL datapath simulation engine.
//!
//! One engine serves both the concrete and the symbolic domain (see
//! [`crate::domain`]). Each [`DatapathSim::step`] settles the
//! combinational network under a control word, samples outputs and status
//! feeds, and then performs the gated register updates — the same
//! settle-then-clock discipline as the gate-level simulator in
//! [`sfr_netlist`].

use crate::component::{DataSrc, FuId, MuxId};
use crate::datapath::{CombId, Datapath};
use crate::domain::DataDomain;
use sfr_netlist::Logic;

/// What one simulation cycle produced (settled, pre-clock values).
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult<V> {
    /// Primary data outputs, in declaration order.
    pub outputs: Vec<V>,
    /// Status feeds, in declaration order.
    pub statuses: Vec<V>,
}

/// RTL simulator over an arbitrary [`DataDomain`].
///
/// # Examples
///
/// ```
/// use sfr_rtl::{ConcreteDomain, DatapathBuilder, DatapathSim, DataSrc, FuOp};
/// use sfr_netlist::Logic;
///
/// # fn main() -> Result<(), sfr_rtl::DatapathError> {
/// let mut b = DatapathBuilder::new("acc", 4);
/// let x = b.input("x");
/// let ld = b.load_line("LD");
/// let add = b.fu("add", FuOp::Add, DataSrc::Reg(sfr_rtl::RegId(0)), DataSrc::Input(x));
/// let r = b.register("r", ld, DataSrc::Fu(add));
/// b.output("sum", DataSrc::Reg(r));
/// let dp = b.finish()?;
///
/// let mut sim = DatapathSim::new(&dp, ConcreteDomain::new(4));
/// sim.set_reg(sfr_rtl::RegId(0), Some(0));
/// sim.step(&[Logic::One], &[Some(3)]);  // r = 0 + 3
/// let out = sim.step(&[Logic::One], &[Some(5)]); // r = 3 + 5, observes 3
/// assert_eq!(out.outputs, vec![Some(3)]);
/// let out = sim.step(&[Logic::Zero], &[Some(9)]); // hold
/// assert_eq!(out.outputs, vec![Some(8)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DatapathSim<'a, D: DataDomain> {
    dp: &'a Datapath,
    domain: D,
    regs: Vec<D::Value>,
    time: u64,
}

impl<'a, D: DataDomain> DatapathSim<'a, D> {
    /// Creates a simulator with all registers unknown (power-up state).
    pub fn new(dp: &'a Datapath, mut domain: D) -> Self {
        let regs = (0..dp.registers().len())
            .map(|_| domain.unknown())
            .collect();
        DatapathSim {
            dp,
            domain,
            regs,
            time: 0,
        }
    }

    /// The datapath under simulation.
    pub fn datapath(&self) -> &'a Datapath {
        self.dp
    }

    /// Mutable access to the domain (e.g. to create input symbols).
    pub fn domain_mut(&mut self) -> &mut D {
        &mut self.domain
    }

    /// Shared access to the domain.
    pub fn domain(&self) -> &D {
        &self.domain
    }

    /// Consumes the simulator, handing back its domain — e.g. to seed a
    /// second simulation whose expressions must intern into the same DAG
    /// (the fault-free/faulty equivalence check in `sfr-classify`).
    pub fn into_domain(self) -> D {
        self.domain
    }

    /// Current cycle count.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Overwrites one register's current value.
    pub fn set_reg(&mut self, reg: crate::component::RegId, v: D::Value) {
        self.regs[reg.0] = v;
    }

    /// Reads one register's current value.
    pub fn reg(&self, reg: crate::component::RegId) -> &D::Value {
        &self.regs[reg.0]
    }

    /// Every register's current value, in declaration order.
    pub fn regs(&self) -> &[D::Value] {
        &self.regs
    }

    /// Resets every register to a fresh unknown.
    pub fn reset_unknown(&mut self) {
        for r in self.regs.iter_mut() {
            *r = self.domain.unknown();
        }
        self.time = 0;
    }

    /// Settles the network and returns every component's value, indexed
    /// for muxes and FUs.
    fn settle(&mut self, ctrl: &[Logic], inputs: &[D::Value]) -> Settled<D::Value> {
        assert_eq!(
            ctrl.len(),
            self.dp.control_width(),
            "control word width mismatch"
        );
        assert_eq!(
            inputs.len(),
            self.dp.inputs().len(),
            "data input count mismatch"
        );
        let dp = self.dp;
        let mut vals = Settled {
            muxes: vec![None; dp.muxes().len()],
            fus: vec![None; dp.fus().len()],
        };
        for &c in dp.comb_order() {
            match c {
                CombId::Mux(mi) => {
                    let v = self.eval_mux(mi, ctrl, inputs, &vals);
                    vals.muxes[mi] = Some(v);
                }
                CombId::Fu(fi) => {
                    let fu = &dp.fus()[fi];
                    let a = self.resolve(fu.a(), inputs, &vals);
                    let b = self.resolve(fu.b(), inputs, &vals);
                    let v = self.domain.op(fu.op(), &a, &b);
                    vals.fus[fi] = Some(v);
                }
            }
        }
        vals
    }

    fn resolve(&mut self, src: DataSrc, inputs: &[D::Value], vals: &Settled<D::Value>) -> D::Value {
        match src {
            DataSrc::Input(i) => inputs[i.0].clone(),
            DataSrc::Reg(r) => self.regs[r.0].clone(),
            DataSrc::Mux(MuxId(m)) => vals.muxes[m].clone().expect("mux evaluated before use"),
            DataSrc::Fu(FuId(f)) => vals.fus[f].clone().expect("fu evaluated before use"),
            DataSrc::Const(c) => self.domain.constant(c),
        }
    }

    fn eval_mux(
        &mut self,
        mi: usize,
        ctrl: &[Logic],
        inputs: &[D::Value],
        vals: &Settled<D::Value>,
    ) -> D::Value {
        let mux = &self.dp.muxes()[mi];
        let sel = |bit: usize| ctrl[mux.sels()[bit].0];
        let mut index = 0usize;
        let mut known = true;
        for bit in 0..mux.sels().len() {
            match sel(bit).to_bool() {
                Some(true) => index |= 1 << bit,
                Some(false) => {}
                None => {
                    known = false;
                    break;
                }
            }
        }
        if known {
            return self.resolve(mux.inputs()[index], inputs, vals);
        }
        // Unknown select: the output is known only if every selectable
        // input (consistent with the known select bits) agrees.
        let mut candidate: Option<D::Value> = None;
        for (i, &src) in mux.inputs().iter().enumerate() {
            let consistent = (0..mux.sels().len()).all(|bit| match sel(bit).to_bool() {
                Some(b) => (i >> bit) & 1 == usize::from(b),
                None => true,
            });
            if !consistent {
                continue;
            }
            let v = self.resolve(src, inputs, vals);
            match &candidate {
                None => candidate = Some(v),
                Some(c) if *c == v => {}
                Some(_) => return self.domain.unknown(),
            }
        }
        candidate.unwrap_or_else(|| self.domain.unknown())
    }

    /// One full cycle: settle under `ctrl`, sample outputs and statuses,
    /// then clock the gated registers.
    ///
    /// Register update semantics per load-line value:
    ///
    /// * `1` — load the settled source value;
    /// * `0` — hold;
    /// * `X` — keep the current value only if the incoming value is
    ///   provably equal, otherwise become unknown.
    ///
    /// # Panics
    ///
    /// Panics if `ctrl` or `inputs` lengths do not match the datapath.
    pub fn step(&mut self, ctrl: &[Logic], inputs: &[D::Value]) -> StepResult<D::Value> {
        let vals = self.settle(ctrl, inputs);
        let dp = self.dp;
        let outputs = dp
            .outputs()
            .iter()
            .map(|&(_, src)| self.resolve(src, inputs, &vals))
            .collect();
        let statuses = dp
            .statuses()
            .iter()
            .map(|&(_, src)| self.resolve(src, inputs, &vals))
            .collect();

        // Clock edge.
        let mut next: Vec<D::Value> = Vec::with_capacity(self.regs.len());
        for (ri, r) in dp.registers().iter().enumerate() {
            let cur = self.regs[ri].clone();
            let v = match ctrl[r.load().0] {
                Logic::One => self.resolve(r.src(), inputs, &vals),
                Logic::Zero => cur,
                Logic::X => {
                    let incoming = self.resolve(r.src(), inputs, &vals);
                    if incoming == cur {
                        cur
                    } else {
                        self.domain.unknown()
                    }
                }
            };
            next.push(v);
        }
        self.regs = next;
        self.time += 1;

        StepResult { outputs, statuses }
    }
}

/// Settled mux and FU values of one cycle (`None` until evaluated).
struct Settled<V> {
    muxes: Vec<Option<V>>,
    fus: Vec<Option<V>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{DataSrc, FuOp, RegId};
    use crate::datapath::DatapathBuilder;
    use crate::domain::{ConcreteDomain, SymbolicDomain};
    use Logic::{One, Zero, X};

    /// mux(x,y) -> add z -> R1; R1 -> out; lt(R1, z) -> status.
    fn block() -> crate::datapath::Datapath {
        let mut b = DatapathBuilder::new("block", 4);
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let ms = b.select_line("MS1");
        let ld = b.load_line("REG1");
        let m = b.mux("M1", &[ms], &[DataSrc::Input(x), DataSrc::Input(y)]);
        let f = b.fu("A1", FuOp::Add, DataSrc::Mux(m), DataSrc::Input(z));
        let r = b.register("R1", ld, DataSrc::Fu(f));
        let cmp = b.fu("C1", FuOp::Lt, DataSrc::Reg(r), DataSrc::Input(z));
        b.output("o", DataSrc::Reg(r));
        b.status("lt", DataSrc::Fu(cmp));
        b.finish().unwrap()
    }

    #[test]
    fn concrete_block_computes() {
        let dp = block();
        let mut sim = DatapathSim::new(&dp, ConcreteDomain::new(4));
        // ctrl = [MS1, REG1]; select x, load.
        let r = sim.step(&[Zero, One], &[Some(3), Some(9), Some(2)]);
        assert_eq!(r.outputs, vec![None]); // register still X pre-clock
        let r = sim.step(&[One, Zero], &[Some(0), Some(0), Some(7)]);
        // Register now holds 3 + 2 = 5; status: 5 < 7.
        assert_eq!(r.outputs, vec![Some(5)]);
        assert_eq!(r.statuses, vec![Some(1)]);
    }

    #[test]
    fn select_chooses_the_other_operand() {
        let dp = block();
        let mut sim = DatapathSim::new(&dp, ConcreteDomain::new(4));
        sim.step(&[One, One], &[Some(3), Some(9), Some(2)]); // y + z = 11
        let r = sim.step(&[Zero, Zero], &[Some(0), Some(0), Some(0)]);
        assert_eq!(r.outputs, vec![Some(11)]);
    }

    #[test]
    fn x_select_with_equal_inputs_is_known() {
        let dp = block();
        let mut sim = DatapathSim::new(&dp, ConcreteDomain::new(4));
        sim.step(&[X, One], &[Some(6), Some(6), Some(1)]); // both mux legs 6
        let r = sim.step(&[Zero, Zero], &[Some(0), Some(0), Some(0)]);
        assert_eq!(r.outputs, vec![Some(7)]);
    }

    #[test]
    fn x_select_with_different_inputs_is_unknown() {
        let dp = block();
        let mut sim = DatapathSim::new(&dp, ConcreteDomain::new(4));
        sim.step(&[X, One], &[Some(6), Some(7), Some(1)]);
        let r = sim.step(&[Zero, Zero], &[Some(0), Some(0), Some(0)]);
        assert_eq!(r.outputs, vec![None]);
    }

    #[test]
    fn x_load_keeps_value_only_when_data_matches() {
        let dp = block();
        let mut sim = DatapathSim::new(&dp, ConcreteDomain::new(4));
        sim.step(&[Zero, One], &[Some(3), Some(0), Some(2)]); // r = 5
                                                              // X load with incoming 5 (3 + 2 again): survives.
        sim.step(&[Zero, X], &[Some(3), Some(0), Some(2)]);
        let r = sim.step(&[Zero, Zero], &[Some(0), Some(0), Some(0)]);
        assert_eq!(r.outputs, vec![Some(5)]);
        // X load with incoming 9: unknown.
        sim.step(&[Zero, X], &[Some(7), Some(0), Some(2)]);
        let r = sim.step(&[Zero, Zero], &[Some(0), Some(0), Some(0)]);
        assert_eq!(r.outputs, vec![None]);
    }

    #[test]
    fn symbolic_matches_concrete_via_eval() {
        use crate::component::InputId;
        use std::collections::HashMap;
        let dp = block();
        let mut sym = DatapathSim::new(&dp, SymbolicDomain::new(4));
        let mut conc = DatapathSim::new(&dp, ConcreteDomain::new(4));
        let data: [[u64; 3]; 3] = [[3, 9, 2], [1, 1, 15], [7, 0, 7]];
        let ctrl = [[Zero, One], [One, One], [Zero, Zero]];
        let mut assignment = HashMap::new();
        let mut sym_outs = Vec::new();
        let mut conc_outs = Vec::new();
        for (t, (c, d)) in ctrl.iter().zip(&data).enumerate() {
            let t = t as u64;
            let sym_inputs: Vec<_> = (0..3)
                .map(|p| {
                    assignment.insert((InputId(p), t), d[p]);
                    sym.domain_mut().input(InputId(p), t)
                })
                .collect();
            let conc_inputs: Vec<_> = d.iter().map(|&v| Some(v)).collect();
            sym_outs.push(sym.step(c, &sym_inputs));
            conc_outs.push(conc.step(c, &conc_inputs));
        }
        for (s, c) in sym_outs.iter().zip(&conc_outs) {
            for (se, ce) in s.outputs.iter().zip(&c.outputs) {
                assert_eq!(sym.domain().eval(*se, &assignment), *ce);
            }
            for (se, ce) in s.statuses.iter().zip(&c.statuses) {
                assert_eq!(sym.domain().eval(*se, &assignment), *ce);
            }
        }
    }

    #[test]
    fn symbolic_identical_traces_have_identical_exprs() {
        use crate::component::InputId;
        let dp = block();
        let mut a = DatapathSim::new(&dp, SymbolicDomain::new(4));
        // Run the same control trace twice in two sims with a shared
        // symbol convention: expressions must match id-for-id when using
        // the same domain.
        let inputs_t0: Vec<_> = (0..3)
            .map(|p| a.domain_mut().input(InputId(p), 0))
            .collect();
        let r1 = a.step(&[Zero, One], &inputs_t0);
        let mut b = DatapathSim::new(&dp, SymbolicDomain::new(4));
        let inputs_t0b: Vec<_> = (0..3)
            .map(|p| b.domain_mut().input(InputId(p), 0))
            .collect();
        let r2 = b.step(&[Zero, One], &inputs_t0b);
        // Output is still the initial unknown (different unknown ids), but
        // statuses and subsequent loads derive from inputs identically.
        let n1 = a.step(&[Zero, Zero], &inputs_t0);
        let n2 = b.step(&[Zero, Zero], &inputs_t0b);
        assert_eq!(
            a.domain().node(n1.outputs[0]),
            b.domain().node(n2.outputs[0])
        );
        let _ = (r1, r2);
    }

    #[test]
    fn accumulator_feedback() {
        let mut b = DatapathBuilder::new("acc", 4);
        let x = b.input("x");
        let ld = b.load_line("LD");
        let f = b.fu("add", FuOp::Add, DataSrc::Reg(RegId(0)), DataSrc::Input(x));
        let r = b.register("r", ld, DataSrc::Fu(f));
        b.output("sum", DataSrc::Reg(r));
        let dp = b.finish().unwrap();
        let mut sim = DatapathSim::new(&dp, ConcreteDomain::new(4));
        sim.set_reg(RegId(0), Some(0));
        for v in [1u64, 2, 3, 4] {
            sim.step(&[One], &[Some(v)]);
        }
        let r = sim.step(&[Zero], &[Some(0)]);
        assert_eq!(r.outputs, vec![Some(10)]);
    }
}

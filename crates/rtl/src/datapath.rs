//! The validated RTL datapath structure and its builder.

use crate::component::{CtrlId, CtrlKind, DataSrc, FuId, FuOp, InputId, MuxId, RegId};
use std::collections::HashSet;
use std::fmt;

/// A primary data input port.
#[derive(Debug, Clone)]
pub struct InputPort {
    pub(crate) name: String,
}

impl InputPort {
    /// Port name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A clock-gated register.
#[derive(Debug, Clone)]
pub struct Register {
    pub(crate) name: String,
    pub(crate) load: CtrlId,
    pub(crate) src: DataSrc,
}

impl Register {
    /// Register name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The control line gating this register's clock.
    pub fn load(&self) -> CtrlId {
        self.load
    }

    /// What feeds the register's data input.
    pub fn src(&self) -> DataSrc {
        self.src
    }
}

/// A multiplexer with `2^s` inputs and `s` select lines.
#[derive(Debug, Clone)]
pub struct Mux {
    pub(crate) name: String,
    pub(crate) sels: Vec<CtrlId>,
    pub(crate) inputs: Vec<DataSrc>,
}

impl Mux {
    /// Mux name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Select lines, LSB first.
    pub fn sels(&self) -> &[CtrlId] {
        &self.sels
    }

    /// Data inputs (length is exactly `2^sels.len()`).
    pub fn inputs(&self) -> &[DataSrc] {
        &self.inputs
    }
}

/// A fixed-function functional unit.
#[derive(Debug, Clone)]
pub struct Fu {
    pub(crate) name: String,
    pub(crate) op: FuOp,
    pub(crate) a: DataSrc,
    pub(crate) b: DataSrc,
}

impl Fu {
    /// Unit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unit's operation.
    pub fn op(&self) -> FuOp {
        self.op
    }

    /// First operand source.
    pub fn a(&self) -> DataSrc {
        self.a
    }

    /// Second operand source.
    pub fn b(&self) -> DataSrc {
        self.b
    }
}

/// A named control line of the datapath's control word.
#[derive(Debug, Clone)]
pub struct CtrlLine {
    pub(crate) name: String,
    pub(crate) kind: CtrlKind,
}

impl CtrlLine {
    /// Line name (e.g. `REG3` or `MS1`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the line is a load or a select.
    pub fn kind(&self) -> CtrlKind {
        self.kind
    }
}

/// Errors detected while validating a [`Datapath`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatapathError {
    /// A [`DataSrc`] referenced a component that does not exist.
    DanglingSource {
        /// Description of the referencing component.
        at: String,
    },
    /// A mux's input count is not `2^(number of select lines)`.
    MuxShape {
        /// The offending mux name.
        mux: String,
        /// Number of inputs.
        inputs: usize,
        /// Number of select lines.
        sels: usize,
    },
    /// A constant does not fit the datapath width.
    ConstTooWide {
        /// The constant value.
        value: u64,
    },
    /// A cycle exists through combinational components (mux/FU) only.
    CombinationalCycle {
        /// A component on the cycle.
        at: String,
    },
    /// A control line is referenced with the wrong kind (e.g. a select
    /// line used as a register load).
    CtrlKindMismatch {
        /// The control line index.
        ctrl: usize,
        /// The expected kind.
        expected: CtrlKind,
    },
    /// A declared control line is never used.
    UnusedCtrl {
        /// The control line name.
        name: String,
    },
    /// The datapath width is zero or exceeds 32 bits.
    BadWidth {
        /// The requested width.
        width: usize,
    },
}

impl fmt::Display for DatapathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatapathError::DanglingSource { at } => write!(f, "dangling data source at {at}"),
            DatapathError::MuxShape { mux, inputs, sels } => write!(
                f,
                "mux `{mux}` has {inputs} inputs but {sels} select lines (need 2^sels inputs)"
            ),
            DatapathError::ConstTooWide { value } => {
                write!(f, "constant {value} does not fit the datapath width")
            }
            DatapathError::CombinationalCycle { at } => {
                write!(f, "combinational cycle through {at}")
            }
            DatapathError::CtrlKindMismatch { ctrl, expected } => {
                write!(
                    f,
                    "control line {ctrl} used as {expected} but declared otherwise"
                )
            }
            DatapathError::UnusedCtrl { name } => {
                write!(f, "control line `{name}` is never used")
            }
            DatapathError::BadWidth { width } => {
                write!(f, "unsupported datapath width {width} (need 1..=32)")
            }
        }
    }
}

impl std::error::Error for DatapathError {}

/// A validated RTL datapath in the paper's architectural style.
///
/// Construct with [`DatapathBuilder`]. Invariants:
///
/// * every [`DataSrc`] resolves;
/// * muxes have exactly `2^s` inputs for `s` select lines (so no select
///   pattern is out of range — even a faulty controller can only choose an
///   existing input);
/// * the combinational subgraph (muxes, FUs, outputs, statuses) is acyclic
///   — registers are the only state;
/// * control lines are used consistently with their declared kind, and no
///   declared line is unused.
#[derive(Debug, Clone)]
pub struct Datapath {
    pub(crate) name: String,
    pub(crate) width: usize,
    pub(crate) inputs: Vec<InputPort>,
    pub(crate) registers: Vec<Register>,
    pub(crate) muxes: Vec<Mux>,
    pub(crate) fus: Vec<Fu>,
    pub(crate) outputs: Vec<(String, DataSrc)>,
    pub(crate) statuses: Vec<(String, DataSrc)>,
    pub(crate) control: Vec<CtrlLine>,
    /// Combinational components in dependency order, fixed by
    /// [`DatapathBuilder::finish`].
    pub(crate) comb_order: Vec<CombId>,
}

impl Datapath {
    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bit width of every data value.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Primary data-input ports.
    pub fn inputs(&self) -> &[InputPort] {
        &self.inputs
    }

    /// The registers.
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// The multiplexers.
    pub fn muxes(&self) -> &[Mux] {
        &self.muxes
    }

    /// The functional units.
    pub fn fus(&self) -> &[Fu] {
        &self.fus
    }

    /// Primary data outputs as `(name, source)` pairs.
    pub fn outputs(&self) -> &[(String, DataSrc)] {
        &self.outputs
    }

    /// Status bits fed to the controller as `(name, source)` pairs; bit 0
    /// of the source value is the status.
    pub fn statuses(&self) -> &[(String, DataSrc)] {
        &self.statuses
    }

    /// The control word layout.
    pub fn control(&self) -> &[CtrlLine] {
        &self.control
    }

    /// Number of control lines.
    pub fn control_width(&self) -> usize {
        self.control.len()
    }

    /// Looks up a control line by name.
    pub fn find_ctrl(&self, name: &str) -> Option<CtrlId> {
        self.control.iter().position(|c| c.name == name).map(CtrlId)
    }

    /// The registers gated by a given load line (possibly several — load
    /// lines may be shared).
    pub fn registers_on_load(&self, ctrl: CtrlId) -> Vec<RegId> {
        self.registers
            .iter()
            .enumerate()
            .filter(|(_, r)| r.load == ctrl)
            .map(|(i, _)| RegId(i))
            .collect()
    }

    /// The muxes using a given select line.
    pub fn muxes_on_select(&self, ctrl: CtrlId) -> Vec<MuxId> {
        self.muxes
            .iter()
            .enumerate()
            .filter(|(_, m)| m.sels.contains(&ctrl))
            .map(|(i, _)| MuxId(i))
            .collect()
    }

    /// Combinational components (muxes and FUs) in dependency order:
    /// every component appears after everything it combinationally reads.
    pub(crate) fn comb_order(&self) -> &[CombId] {
        &self.comb_order
    }

    /// Computes [`Datapath::comb_order`] (once, when the builder
    /// finishes).
    fn topo_comb(&self) -> Vec<CombId> {
        // Simple DFS; validated acyclic at build time.
        let mut order = Vec::new();
        let mut seen = HashSet::new();
        let mut stack: Vec<(CombId, bool)> = Vec::new();
        let all: Vec<CombId> = (0..self.muxes.len())
            .map(CombId::Mux)
            .chain((0..self.fus.len()).map(CombId::Fu))
            .collect();
        for root in all {
            if seen.contains(&root) {
                continue;
            }
            stack.push((root, false));
            while let Some((node, expanded)) = stack.pop() {
                if expanded {
                    if seen.insert(node) {
                        order.push(node);
                    }
                    continue;
                }
                if seen.contains(&node) {
                    continue;
                }
                stack.push((node, true));
                let deps: Vec<DataSrc> = match node {
                    CombId::Mux(i) => self.muxes[i].inputs.clone(),
                    CombId::Fu(i) => vec![self.fus[i].a, self.fus[i].b],
                };
                for d in deps {
                    match d {
                        DataSrc::Mux(MuxId(i)) if !seen.contains(&CombId::Mux(i)) => {
                            stack.push((CombId::Mux(i), false));
                        }
                        DataSrc::Fu(FuId(i)) if !seen.contains(&CombId::Fu(i)) => {
                            stack.push((CombId::Fu(i), false));
                        }
                        _ => {}
                    }
                }
            }
        }
        order
    }
}

/// Identifier of a combinational component in evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CombId {
    Mux(usize),
    Fu(usize),
}

/// Builder for [`Datapath`].
///
/// # Examples
///
/// ```
/// use sfr_rtl::{DatapathBuilder, DataSrc, FuOp};
///
/// # fn main() -> Result<(), sfr_rtl::DatapathError> {
/// // One functional block in the paper's Figure 4 style:
/// // mux(x, y) -> adder with z -> register.
/// let mut b = DatapathBuilder::new("block", 4);
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.input("z");
/// let ms1 = b.select_line("MS1");
/// let ld1 = b.load_line("REG1");
/// let mux = b.mux("M1", &[ms1], &[DataSrc::Input(x), DataSrc::Input(y)]);
/// let alu = b.fu("ALU1", FuOp::Add, DataSrc::Mux(mux), DataSrc::Input(z));
/// let r1 = b.register("R1", ld1, DataSrc::Fu(alu));
/// b.output("out", DataSrc::Reg(r1));
/// let dp = b.finish()?;
/// assert_eq!(dp.control_width(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DatapathBuilder {
    dp: Datapath,
}

impl DatapathBuilder {
    /// Starts a datapath of the given name and bit width.
    pub fn new(name: impl Into<String>, width: usize) -> Self {
        DatapathBuilder {
            dp: Datapath {
                name: name.into(),
                width,
                inputs: Vec::new(),
                registers: Vec::new(),
                muxes: Vec::new(),
                fus: Vec::new(),
                outputs: Vec::new(),
                statuses: Vec::new(),
                control: Vec::new(),
                comb_order: Vec::new(),
            },
        }
    }

    /// Declares a primary data input.
    pub fn input(&mut self, name: impl Into<String>) -> InputId {
        self.dp.inputs.push(InputPort { name: name.into() });
        InputId(self.dp.inputs.len() - 1)
    }

    /// Declares a register load line.
    pub fn load_line(&mut self, name: impl Into<String>) -> CtrlId {
        self.dp.control.push(CtrlLine {
            name: name.into(),
            kind: CtrlKind::Load,
        });
        CtrlId(self.dp.control.len() - 1)
    }

    /// Declares a multiplexer select line.
    pub fn select_line(&mut self, name: impl Into<String>) -> CtrlId {
        self.dp.control.push(CtrlLine {
            name: name.into(),
            kind: CtrlKind::Select,
        });
        CtrlId(self.dp.control.len() - 1)
    }

    /// Adds a register gated by `load`, fed from `src`.
    pub fn register(&mut self, name: impl Into<String>, load: CtrlId, src: DataSrc) -> RegId {
        self.dp.registers.push(Register {
            name: name.into(),
            load,
            src,
        });
        RegId(self.dp.registers.len() - 1)
    }

    /// Adds a multiplexer with the given select lines (LSB first) and
    /// `2^sels.len()` inputs.
    pub fn mux(&mut self, name: impl Into<String>, sels: &[CtrlId], inputs: &[DataSrc]) -> MuxId {
        self.dp.muxes.push(Mux {
            name: name.into(),
            sels: sels.to_vec(),
            inputs: inputs.to_vec(),
        });
        MuxId(self.dp.muxes.len() - 1)
    }

    /// Adds a fixed-function unit.
    pub fn fu(&mut self, name: impl Into<String>, op: FuOp, a: DataSrc, b: DataSrc) -> FuId {
        self.dp.fus.push(Fu {
            name: name.into(),
            op,
            a,
            b,
        });
        FuId(self.dp.fus.len() - 1)
    }

    /// Declares a primary data output.
    pub fn output(&mut self, name: impl Into<String>, src: DataSrc) {
        self.dp.outputs.push((name.into(), src));
    }

    /// Declares a 1-bit status feed to the controller (bit 0 of `src`).
    pub fn status(&mut self, name: impl Into<String>, src: DataSrc) {
        self.dp.statuses.push((name.into(), src));
    }

    /// Validates the datapath.
    ///
    /// # Errors
    ///
    /// Returns a [`DatapathError`] describing the first violated invariant
    /// (see [`Datapath`] for the list).
    pub fn finish(self) -> Result<Datapath, DatapathError> {
        let mut dp = self.dp;
        if dp.width == 0 || dp.width > 32 {
            return Err(DatapathError::BadWidth { width: dp.width });
        }
        let check_src = |src: DataSrc, at: &str| -> Result<(), DatapathError> {
            let ok = match src {
                DataSrc::Input(InputId(i)) => i < dp.inputs.len(),
                DataSrc::Reg(RegId(i)) => i < dp.registers.len(),
                DataSrc::Mux(MuxId(i)) => i < dp.muxes.len(),
                DataSrc::Fu(FuId(i)) => i < dp.fus.len(),
                DataSrc::Const(v) => {
                    let m = if dp.width >= 64 {
                        u64::MAX
                    } else {
                        (1 << dp.width) - 1
                    };
                    if v & !m != 0 {
                        return Err(DatapathError::ConstTooWide { value: v });
                    }
                    true
                }
            };
            if ok {
                Ok(())
            } else {
                Err(DatapathError::DanglingSource { at: at.to_string() })
            }
        };
        let check_ctrl = |c: CtrlId, expected: CtrlKind| -> Result<(), DatapathError> {
            match dp.control.get(c.0) {
                Some(line) if line.kind == expected => Ok(()),
                _ => Err(DatapathError::CtrlKindMismatch {
                    ctrl: c.0,
                    expected,
                }),
            }
        };

        for r in &dp.registers {
            check_src(r.src, &format!("register {}", r.name))?;
            check_ctrl(r.load, CtrlKind::Load)?;
        }
        for m in &dp.muxes {
            if m.inputs.len() != 1usize << m.sels.len() {
                return Err(DatapathError::MuxShape {
                    mux: m.name.clone(),
                    inputs: m.inputs.len(),
                    sels: m.sels.len(),
                });
            }
            for s in &m.sels {
                check_ctrl(*s, CtrlKind::Select)?;
            }
            for &i in &m.inputs {
                check_src(i, &format!("mux {}", m.name))?;
            }
        }
        for u in &dp.fus {
            check_src(u.a, &format!("fu {}", u.name))?;
            check_src(u.b, &format!("fu {}", u.name))?;
        }
        for (n, s) in dp.outputs.iter().chain(&dp.statuses) {
            check_src(*s, &format!("port {n}"))?;
        }

        // Unused control lines.
        let mut used = vec![false; dp.control.len()];
        for r in &dp.registers {
            used[r.load.0] = true;
        }
        for m in &dp.muxes {
            for s in &m.sels {
                used[s.0] = true;
            }
        }
        if let Some(i) = used.iter().position(|&u| !u) {
            return Err(DatapathError::UnusedCtrl {
                name: dp.control[i].name.clone(),
            });
        }

        // Acyclicity through combinational components (DFS cycle check).
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let n = dp.muxes.len() + dp.fus.len();
        let idx = |c: CombId| match c {
            CombId::Mux(i) => i,
            CombId::Fu(i) => dp.muxes.len() + i,
        };
        let mut marks = vec![Mark::White; n];
        fn visit(
            dp: &Datapath,
            c: CombId,
            marks: &mut [Mark],
            idx: &dyn Fn(CombId) -> usize,
        ) -> Result<(), DatapathError> {
            match marks[idx(c)] {
                Mark::Black => return Ok(()),
                Mark::Grey => {
                    let at = match c {
                        CombId::Mux(i) => format!("mux {}", dp.muxes[i].name),
                        CombId::Fu(i) => format!("fu {}", dp.fus[i].name),
                    };
                    return Err(DatapathError::CombinationalCycle { at });
                }
                Mark::White => {}
            }
            marks[idx(c)] = Mark::Grey;
            let deps: Vec<DataSrc> = match c {
                CombId::Mux(i) => dp.muxes[i].inputs.clone(),
                CombId::Fu(i) => vec![dp.fus[i].a, dp.fus[i].b],
            };
            for d in deps {
                match d {
                    DataSrc::Mux(MuxId(i)) => visit(dp, CombId::Mux(i), marks, idx)?,
                    DataSrc::Fu(FuId(i)) => visit(dp, CombId::Fu(i), marks, idx)?,
                    _ => {}
                }
            }
            marks[idx(c)] = Mark::Black;
            Ok(())
        }
        for i in 0..dp.muxes.len() {
            visit(&dp, CombId::Mux(i), &mut marks, &idx)?;
        }
        for i in 0..dp.fus.len() {
            visit(&dp, CombId::Fu(i), &mut marks, &idx)?;
        }

        dp.comb_order = dp.topo_comb();
        Ok(dp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> DatapathBuilder {
        let mut b = DatapathBuilder::new("block", 4);
        let x = b.input("x");
        let y = b.input("y");
        let ms = b.select_line("MS1");
        let ld = b.load_line("REG1");
        let m = b.mux("M1", &[ms], &[DataSrc::Input(x), DataSrc::Input(y)]);
        let f = b.fu("A1", FuOp::Add, DataSrc::Mux(m), DataSrc::Input(x));
        let r = b.register("R1", ld, DataSrc::Fu(f));
        b.output("o", DataSrc::Reg(r));
        b
    }

    #[test]
    fn valid_block_builds() {
        let dp = block().finish().expect("valid");
        assert_eq!(dp.width(), 4);
        assert_eq!(dp.control_width(), 2);
        assert_eq!(dp.find_ctrl("MS1"), Some(CtrlId(0)));
        assert_eq!(dp.registers_on_load(CtrlId(1)), vec![RegId(0)]);
        assert_eq!(dp.muxes_on_select(CtrlId(0)), vec![MuxId(0)]);
    }

    #[test]
    fn rejects_bad_mux_shape() {
        let mut b = DatapathBuilder::new("bad", 4);
        let x = b.input("x");
        let s = b.select_line("s");
        let ld = b.load_line("l");
        let m = b.mux("m", &[s], &[DataSrc::Input(x)]); // 1 input, 1 sel
        let r = b.register("r", ld, DataSrc::Mux(m));
        b.output("o", DataSrc::Reg(r));
        assert!(matches!(b.finish(), Err(DatapathError::MuxShape { .. })));
    }

    #[test]
    fn rejects_dangling_source() {
        let mut b = DatapathBuilder::new("bad", 4);
        let ld = b.load_line("l");
        let r = b.register("r", ld, DataSrc::Reg(RegId(5)));
        b.output("o", DataSrc::Reg(r));
        assert!(matches!(
            b.finish(),
            Err(DatapathError::DanglingSource { .. })
        ));
    }

    #[test]
    fn rejects_ctrl_kind_mismatch() {
        let mut b = DatapathBuilder::new("bad", 4);
        let x = b.input("x");
        let s = b.select_line("s");
        let r = b.register("r", s, DataSrc::Input(x)); // select used as load
        b.output("o", DataSrc::Reg(r));
        assert!(matches!(
            b.finish(),
            Err(DatapathError::CtrlKindMismatch { .. })
        ));
    }

    #[test]
    fn rejects_unused_ctrl() {
        let mut b = DatapathBuilder::new("bad", 4);
        let x = b.input("x");
        let ld = b.load_line("l");
        let _extra = b.load_line("unused");
        let r = b.register("r", ld, DataSrc::Input(x));
        b.output("o", DataSrc::Reg(r));
        assert!(matches!(b.finish(), Err(DatapathError::UnusedCtrl { .. })));
    }

    #[test]
    fn rejects_combinational_cycle() {
        let mut b = DatapathBuilder::new("bad", 4);
        // Two FUs feeding each other.
        let f1 = b.fu("f1", FuOp::Add, DataSrc::Fu(FuId(1)), DataSrc::Const(1));
        let f2 = b.fu("f2", FuOp::Add, DataSrc::Fu(FuId(0)), DataSrc::Const(1));
        let _ = (f1, f2);
        b.output("o", DataSrc::Fu(FuId(0)));
        assert!(matches!(
            b.finish(),
            Err(DatapathError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn register_feedback_is_not_a_cycle() {
        let mut b = DatapathBuilder::new("acc", 4);
        let x = b.input("x");
        let ld = b.load_line("l");
        // Accumulator: r = r + x.
        let f = b.fu("add", FuOp::Add, DataSrc::Reg(RegId(0)), DataSrc::Input(x));
        let r = b.register("r", ld, DataSrc::Fu(f));
        b.output("o", DataSrc::Reg(r));
        assert!(b.finish().is_ok());
    }

    #[test]
    fn rejects_wide_constant() {
        let mut b = DatapathBuilder::new("bad", 4);
        let ld = b.load_line("l");
        let r = b.register("r", ld, DataSrc::Const(16));
        b.output("o", DataSrc::Reg(r));
        assert!(matches!(
            b.finish(),
            Err(DatapathError::ConstTooWide { .. })
        ));
    }

    #[test]
    fn topo_order_covers_all_comb_components() {
        let dp = block().finish().unwrap();
        let order = dp.comb_order();
        assert_eq!(order, dp.topo_comb());
        assert_eq!(order.len(), 2);
        // Mux before FU (the FU reads the mux).
        assert_eq!(order[0], CombId::Mux(0));
        assert_eq!(order[1], CombId::Fu(0));
    }
}

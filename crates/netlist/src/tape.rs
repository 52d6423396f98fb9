//! Compiled levelized op-tape simulation kernel — the production
//! fault and power simulator.
//!
//! In the style of the Berkeley Emulation Engine's statically scheduled
//! gate streams, a netlist (plus one pack of stuck-at faults) is
//! *levelized once* — reusing the topological order
//! [`crate::Netlist::finish`] already computed — and emitted as a flat
//! [`TapeOp`] instruction tape over contiguous value slots. Fault
//! injection is baked in at compile time as dedicated force ops with
//! per-lane masks, so the evaluator is a tight loop: no `CellKind`
//! dispatch, no force scans, no per-cycle allocation.
//!
//! Lanes are the bits of a `u64`: the classic 63-faults-plus-baseline
//! pack. A slot holds one [`LaneValue`], in one of two logic domains
//! that share the compiler, the eval loop and the flip-flop update:
//!
//! * [`Pat`] — dual-rail three-valued lanes with the semantics of the
//!   scalar reference [`crate::CycleSim`], `X` included: values and
//!   detection masks are bit-identical to a `CycleSim` run of that
//!   lane's circuit. The fault campaign and the golden session run here,
//!   since they start the datapath at `X`.
//! * `u64` — single-rail two-valued lanes, half the work per op. Exact
//!   wherever no `X` can arise: every flip-flop reset to a known value
//!   and every primary input driven with one. Power grading runs here,
//!   and only here is switching counted: [`TapeSim::clock_counting`]
//!   adds each lane's net toggles and clock events, weighted by whole
//!   femtofarads, into one integer energy sum per lane
//!   ([`TapeEnergy`]). The sums equal the same weights applied to a
//!   `CycleSim` run of that lane's circuit for the same binary
//!   stimulus.
//!
//! Both equivalences are property-tested in `tests/proptests.rs`.

use crate::fault::{FaultSite, StuckAt};
use crate::graph::{GateId, NetId, Netlist};
use crate::logic::Logic;

/// Maximum number of faults in one tape pack (lane 0 is the fault-free
/// reference).
pub const MAX_PARALLEL_FAULTS: usize = 63;

/// Error returned when a pack holds more faults than the lane word has
/// fault lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooManyFaultsError {
    /// Number of faults requested.
    pub requested: usize,
}

impl std::fmt::Display for TooManyFaultsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} faults requested, at most {MAX_PARALLEL_FAULTS} fit in one parallel batch",
            self.requested
        )
    }
}

impl std::error::Error for TooManyFaultsError {}

/// The value of one tape slot: one simulation lane per bit of a `u64`
/// (lane 0 fault-free, lane `i + 1` under fault `i`), in one of the two
/// logic domains the module docs describe — [`Pat`] (three-valued) or
/// `u64` (two-valued). Every tape op is written once over these
/// lane-wise combinators. A fresh simulator's slots hold
/// `Self::default()`: all `X` for [`Pat`], all 0 for `u64`.
pub trait LaneValue: Copy + PartialEq + Default + std::fmt::Debug + Send + Sync + 'static {
    /// Every lane 0.
    const ZERO: Self;
    /// Every lane 1.
    const ONE: Self;
    /// Every lane at `v`.
    ///
    /// # Panics
    ///
    /// Two-valued lanes panic on [`Logic::X`], which they cannot hold.
    fn splat(v: Logic) -> Self;
    /// Lane `i`'s value.
    fn lane(self, i: usize) -> Logic;
    /// Lane-wise NOT.
    fn not(self) -> Self;
    /// Lane-wise AND.
    fn and(self, o: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, o: Self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, o: Self) -> Self;
    /// Lane-wise 2:1 mux: `sel = 0` picks `a`, `sel = 1` picks `b`. It
    /// is also the enabled flip-flop's next state, `mux(held, d, en)`.
    fn mux(a: Self, b: Self, sel: Self) -> Self;
    /// Forces the lanes in `mask` to the matching bits of `ones` (a
    /// stuck-at injection: `ones` is `mask` for stuck-at-1, 0 for
    /// stuck-at-0).
    fn force(self, mask: u64, ones: u64) -> Self;
}

/// Two-valued lanes: bit `i` is lane `i`'s value.
impl LaneValue for u64 {
    const ZERO: u64 = 0;
    const ONE: u64 = !0;

    #[inline]
    fn splat(v: Logic) -> u64 {
        match v {
            Logic::Zero => 0,
            Logic::One => !0,
            Logic::X => panic!(
                "two-valued tape lanes cannot hold X: simulate unknown values on \
                 three-valued (Pat) lanes"
            ),
        }
    }
    #[inline]
    fn lane(self, i: usize) -> Logic {
        Logic::from_bool(self >> i & 1 == 1)
    }
    #[inline]
    fn not(self) -> u64 {
        !self
    }
    #[inline]
    fn and(self, o: u64) -> u64 {
        self & o
    }
    #[inline]
    fn or(self, o: u64) -> u64 {
        self | o
    }
    #[inline]
    fn xor(self, o: u64) -> u64 {
        self ^ o
    }
    #[inline]
    fn mux(a: u64, b: u64, sel: u64) -> u64 {
        (a & !sel) | (b & sel)
    }
    #[inline]
    fn force(self, mask: u64, ones: u64) -> u64 {
        (self & !mask) | ones
    }
}

/// A dual-rail three-valued logic word over 64 lanes. Invariant:
/// `lo & hi == 0`; a lane with neither bit set is `X`. The default is
/// all `X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pat {
    /// Lanes that are definitely 0.
    pub lo: u64,
    /// Lanes that are definitely 1.
    pub hi: u64,
}

impl Pat {
    /// All lanes `X`.
    #[inline]
    pub fn all_x() -> Self {
        Pat { lo: 0, hi: 0 }
    }

    /// Writes one lane.
    #[inline]
    #[must_use]
    pub fn with_lane(self, i: usize, v: Logic) -> Self {
        let bit = 1u64 << i;
        let mut r = Pat {
            lo: self.lo & !bit,
            hi: self.hi & !bit,
        };
        match v {
            Logic::Zero => r.lo |= bit,
            Logic::One => r.hi |= bit,
            Logic::X => {}
        }
        r
    }

    /// Lanes (as a mask) whose value definitely differs from the
    /// corresponding lane of `o` — both lanes known, opposite values.
    #[inline]
    pub fn definitely_differs(self, o: Self) -> u64 {
        (self.lo & o.hi) | (self.hi & o.lo)
    }

    /// Lanes (as a mask) that are known (`0` or `1`).
    #[inline]
    pub fn known(self) -> u64 {
        self.lo | self.hi
    }
}

impl LaneValue for Pat {
    const ZERO: Pat = Pat { lo: !0, hi: 0 };
    const ONE: Pat = Pat { lo: 0, hi: !0 };

    #[inline]
    fn splat(v: Logic) -> Pat {
        match v {
            Logic::Zero => Pat::ZERO,
            Logic::One => Pat::ONE,
            Logic::X => Pat::all_x(),
        }
    }
    #[inline]
    fn lane(self, i: usize) -> Logic {
        if self.lo >> i & 1 == 1 {
            Logic::Zero
        } else if self.hi >> i & 1 == 1 {
            Logic::One
        } else {
            Logic::X
        }
    }
    /// A dual-rail inversion is a rail swap.
    #[inline]
    fn not(self) -> Pat {
        Pat {
            lo: self.hi,
            hi: self.lo,
        }
    }
    #[inline]
    fn and(self, o: Pat) -> Pat {
        Pat {
            lo: self.lo | o.lo,
            hi: self.hi & o.hi,
        }
    }
    #[inline]
    fn or(self, o: Pat) -> Pat {
        Pat {
            lo: self.lo & o.lo,
            hi: self.hi | o.hi,
        }
    }
    #[inline]
    fn xor(self, o: Pat) -> Pat {
        Pat {
            lo: (self.lo & o.lo) | (self.hi & o.hi),
            hi: (self.lo & o.hi) | (self.hi & o.lo),
        }
    }
    /// An `X` select yields the data value only where both data lanes
    /// agree — for a flip-flop, an unknown enable keeps the held state
    /// only where the incoming data provably equals it.
    #[inline]
    fn mux(a: Pat, b: Pat, sel: Pat) -> Pat {
        let x_sel = !(sel.lo | sel.hi);
        Pat {
            lo: (sel.lo & a.lo) | (sel.hi & b.lo) | (x_sel & a.lo & b.lo),
            hi: (sel.lo & a.hi) | (sel.hi & b.hi) | (x_sel & a.hi & b.hi),
        }
    }
    #[inline]
    fn force(self, mask: u64, ones: u64) -> Pat {
        Pat {
            lo: (self.lo & !mask) | (mask ^ ones),
            hi: (self.hi & !mask) | ones,
        }
    }
}

/// One compiled tape instruction. Slots index the simulator's flat
/// value array: nets first, then sequential state, then forced-operand
/// scratch slots the compiler allocated for faulted pins.
#[derive(Debug, Clone, Copy)]
enum TapeOp {
    /// `slots[dst] = all-zero`.
    Const0 { dst: u32 },
    /// `slots[dst] = all-one`.
    Const1 { dst: u32 },
    /// `slots[dst] = slots[a]`.
    Copy { dst: u32, a: u32 },
    /// `slots[dst] = !slots[a]`.
    Not { dst: u32, a: u32 },
    /// `slots[dst] = slots[a] & slots[b]`.
    And2 { dst: u32, a: u32, b: u32 },
    /// 3-input AND.
    And3 { dst: u32, a: u32, b: u32, c: u32 },
    /// 4-input AND.
    And4 {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        d: u32,
    },
    /// `slots[dst] = slots[a] | slots[b]`.
    Or2 { dst: u32, a: u32, b: u32 },
    /// 3-input OR.
    Or3 { dst: u32, a: u32, b: u32, c: u32 },
    /// 4-input OR.
    Or4 {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        d: u32,
    },
    /// 2-input NAND.
    Nand2 { dst: u32, a: u32, b: u32 },
    /// 3-input NAND.
    Nand3 { dst: u32, a: u32, b: u32, c: u32 },
    /// 4-input NAND.
    Nand4 {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        d: u32,
    },
    /// 2-input NOR.
    Nor2 { dst: u32, a: u32, b: u32 },
    /// 3-input NOR.
    Nor3 { dst: u32, a: u32, b: u32, c: u32 },
    /// 4-input NOR.
    Nor4 {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        d: u32,
    },
    /// `slots[dst] = slots[a] ^ slots[b]`.
    Xor2 { dst: u32, a: u32, b: u32 },
    /// 2-input XNOR.
    Xnor2 { dst: u32, a: u32, b: u32 },
    /// `slots[dst] = mux(slots[a], slots[b], slots[sel])`.
    Mux2 { dst: u32, a: u32, b: u32, sel: u32 },
    /// `slots[dst] = slots[src].force(masks[f], ones[f])` — a baked-in
    /// stuck-at injection site.
    Force { dst: u32, src: u32, f: u32 },
}

/// One compiled sequential-state update, executed at the clock edge.
#[derive(Debug, Clone, Copy)]
enum SeqOp {
    /// Plain flip-flop: `state = slots[d]`, clock event in every lane.
    Dff { state: u32, d: u32 },
    /// Clock-gated flip-flop: `state = mux(state, slots[d], slots[en])`
    /// — load where the enable is 1, hold where 0, and on three-valued
    /// lanes degrade to `X` where the enable is unknown and the data
    /// disagrees with the held state.
    Dffe { state: u32, d: u32, en: u32 },
}

/// A netlist (plus one pack of stuck-at faults) compiled to a flat
/// instruction tape.
///
/// Compilation reuses the topological levelization the
/// [`crate::NetlistBuilder`] already computed: combinational ops are
/// emitted in dependency order, sequential state lives in dedicated
/// slots presented to output nets at the head of the tape, and every
/// fault in the pack becomes a [`TapeOp::Force`] patched into the
/// exact spot the scalar [`crate::CycleSim`] applies it (input
/// pins before the consuming gate, outputs after the driving gate,
/// primary-input stems at the head). Compiling is one linear pass —
/// trivially cheap next to the thousands of cycles a pack simulates.
///
/// `V` is the [`LaneValue`] domain the program is simulated in —
/// `TapeProgram::<Pat>` three-valued, `TapeProgram::<u64>` two-valued —
/// and fixes the [`TapeSim`] built over it; the compiled tape itself is
/// the same for both.
#[derive(Debug, Clone)]
pub struct TapeProgram<V> {
    ops: Vec<TapeOp>,
    seq: Vec<SeqOp>,
    /// Per-fault force masks (lane `i+1` for fault `i`).
    masks: Vec<u64>,
    /// Per-fault forced ones, parallel to `masks`: the mask for a
    /// stuck-at-1, 0 for a stuck-at-0.
    ones: Vec<u64>,
    n_slots: usize,
    n_nets: usize,
    /// Primary-input slots, in netlist declaration order.
    inputs: Vec<u32>,
    /// Primary-output slots, in netlist declaration order.
    outputs: Vec<u32>,
    /// Gate index → state slot (`u32::MAX` for combinational gates).
    state_slot: Vec<u32>,
    faults: Vec<StuckAt>,
    /// Deepest combinational level in the levelized schedule.
    n_levels: usize,
    domain: std::marker::PhantomData<V>,
}

impl<V: LaneValue> TapeProgram<V> {
    /// Compiles `nl` with `faults` baked in (lane 0 stays fault-free;
    /// fault `i` occupies lane `i+1`), to be simulated on `V` lanes.
    ///
    /// # Errors
    ///
    /// Returns [`TooManyFaultsError`] when the pack exceeds
    /// [`MAX_PARALLEL_FAULTS`] faults.
    pub fn compile(nl: &Netlist, faults: &[StuckAt]) -> Result<Self, TooManyFaultsError> {
        if faults.len() > MAX_PARALLEL_FAULTS {
            return Err(TooManyFaultsError {
                requested: faults.len(),
            });
        }
        let n_nets = nl.net_count();
        let n_gates = nl.gate_count();
        let mut masks = Vec::with_capacity(faults.len());
        let mut ones = Vec::with_capacity(faults.len());
        // Force sites in fault-enumeration order, so chained forces on
        // one site resolve deterministically.
        let mut pin_forces: Vec<(GateId, usize, u32)> = Vec::new();
        let mut out_forces: Vec<(GateId, u32)> = Vec::new();
        let mut pi_forces: Vec<(NetId, u32)> = Vec::new();
        for (i, f) in faults.iter().enumerate() {
            let fi = i as u32;
            let mask = 1u64 << (i + 1);
            masks.push(mask);
            ones.push(if f.stuck { mask } else { 0 });
            match f.site {
                FaultSite::GateInput { gate, pin } => pin_forces.push((gate, pin, fi)),
                FaultSite::GateOutput { gate } => out_forces.push((gate, fi)),
                FaultSite::PrimaryInput { net } => pi_forces.push((net, fi)),
            }
        }

        let mut state_slot = vec![u32::MAX; n_gates];
        let mut n_slots = n_nets;
        for &g in nl.sequential_gates() {
            state_slot[g.index()] = n_slots as u32;
            n_slots += 1;
        }

        let mut ops = Vec::with_capacity(n_gates + faults.len() + nl.sequential_gates().len());

        // 1. Primary-input stem forces.
        for &(net, f) in &pi_forces {
            let s = net.index() as u32;
            ops.push(TapeOp::Force { dst: s, src: s, f });
        }

        // 2. Sequential outputs present their stored state (then any
        //    output forces on the sequential gate).
        for &g in nl.sequential_gates() {
            let out = nl.gate(g).output().index() as u32;
            ops.push(TapeOp::Copy {
                dst: out,
                a: state_slot[g.index()],
            });
            for &(fg, f) in &out_forces {
                if fg == g {
                    ops.push(TapeOp::Force {
                        dst: out,
                        src: out,
                        f,
                    });
                }
            }
        }

        // Resolves the slot a gate pin reads: the net slot, routed
        // through a fresh forced-operand slot per pin fault so the
        // branch stays faulted without disturbing the stem.
        let forced_pin =
            |g: GateId, pin: usize, net: NetId, ops: &mut Vec<TapeOp>, n_slots: &mut usize| {
                let mut cur = net.index() as u32;
                for &(fg, fp, f) in &pin_forces {
                    if fg == g && fp == pin {
                        let dst = *n_slots as u32;
                        *n_slots += 1;
                        ops.push(TapeOp::Force { dst, src: cur, f });
                        cur = dst;
                    }
                }
                cur
            };

        // 3. Combinational gates, levelized and *grouped by cell kind
        //    within each level*. Gates of one level are mutually
        //    independent, so any order within it is correct; sorting by
        //    opcode turns the tape into long same-kind runs whose eval
        //    dispatch the branch predictor learns, instead of a
        //    413-way pattern it keeps missing. The (level, kind,
        //    original position) key is a pure function of the netlist,
        //    so the tape stays deterministic.
        let mut net_level = vec![0u32; n_nets];
        let mut order: Vec<(u32, u8, u32, GateId)> = Vec::with_capacity(nl.topo_order().len());
        for (i, &g) in nl.topo_order().iter().enumerate() {
            let gate = nl.gate(g);
            let lvl = 1 + gate
                .inputs()
                .iter()
                .map(|n| net_level[n.index()])
                .max()
                .unwrap_or(0);
            net_level[gate.output().index()] = lvl;
            order.push((lvl, gate.kind() as u8, i as u32, g));
        }
        order.sort_unstable();
        let n_levels = order.last().map_or(0, |&(lvl, ..)| lvl as usize);
        for &(_, _, _, g) in &order {
            let gate = nl.gate(g);
            let dst = gate.output().index() as u32;
            let mut s = [0u32; 4];
            for (pin, &net) in gate.inputs().iter().enumerate() {
                s[pin] = forced_pin(g, pin, net, &mut ops, &mut n_slots);
            }
            use crate::cell::CellKind::*;
            let (a, b, c, d) = (s[0], s[1], s[2], s[3]);
            ops.push(match gate.kind() {
                Const0 => TapeOp::Const0 { dst },
                Const1 => TapeOp::Const1 { dst },
                Buf => TapeOp::Copy { dst, a },
                Inv => TapeOp::Not { dst, a },
                And2 => TapeOp::And2 { dst, a, b },
                And3 => TapeOp::And3 { dst, a, b, c },
                And4 => TapeOp::And4 { dst, a, b, c, d },
                Or2 => TapeOp::Or2 { dst, a, b },
                Or3 => TapeOp::Or3 { dst, a, b, c },
                Or4 => TapeOp::Or4 { dst, a, b, c, d },
                Nand2 => TapeOp::Nand2 { dst, a, b },
                Nand3 => TapeOp::Nand3 { dst, a, b, c },
                Nand4 => TapeOp::Nand4 { dst, a, b, c, d },
                Nor2 => TapeOp::Nor2 { dst, a, b },
                Nor3 => TapeOp::Nor3 { dst, a, b, c },
                Nor4 => TapeOp::Nor4 { dst, a, b, c, d },
                Xor2 => TapeOp::Xor2 { dst, a, b },
                Xnor2 => TapeOp::Xnor2 { dst, a, b },
                Mux2 => TapeOp::Mux2 { dst, a, b, sel: c },
                Dff | Dffe => unreachable!("sequential gate in combinational topo order"),
            });
            for &(fg, f) in &out_forces {
                if fg == g {
                    ops.push(TapeOp::Force { dst, src: dst, f });
                }
            }
        }

        // 4. Sequential next-state reads: pin forces on flip-flop data
        //    and enable pins are materialized at the tail of the tape,
        //    after every driver has settled, and the clock reads the
        //    forced slot.
        let mut seq = Vec::with_capacity(nl.sequential_gates().len());
        for &g in nl.sequential_gates() {
            let gate = nl.gate(g);
            let state = state_slot[g.index()];
            let d = forced_pin(g, 0, gate.inputs()[0], &mut ops, &mut n_slots);
            match gate.kind() {
                crate::cell::CellKind::Dff => seq.push(SeqOp::Dff { state, d }),
                crate::cell::CellKind::Dffe => {
                    let en = forced_pin(g, 1, gate.inputs()[1], &mut ops, &mut n_slots);
                    seq.push(SeqOp::Dffe { state, d, en });
                }
                _ => unreachable!("non-sequential gate in sequential list"),
            }
        }

        Ok(TapeProgram {
            ops,
            seq,
            masks,
            ones,
            n_slots,
            n_nets,
            inputs: nl.inputs().iter().map(|n| n.index() as u32).collect(),
            outputs: nl.outputs().iter().map(|n| n.index() as u32).collect(),
            state_slot,
            faults: faults.to_vec(),
            n_levels,
            domain: std::marker::PhantomData,
        })
    }

    /// The faults baked into lanes `1..`.
    pub fn faults(&self) -> &[StuckAt] {
        &self.faults
    }

    /// Number of live lanes (fault count + 1; lane 0 is fault-free).
    pub fn lanes(&self) -> usize {
        self.faults.len() + 1
    }

    /// Number of tape instructions (diagnostic; scales with gates plus
    /// baked-in force sites).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Deepest combinational level in the levelized schedule — the
    /// dependency depth one eval sweep walks (diagnostic).
    pub fn level_count(&self) -> usize {
        self.n_levels
    }

    /// Number of fault-injection [`TapeOp::Force`] ops baked into the
    /// tape (diagnostic; scales with the pack's fault sites).
    pub fn force_op_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TapeOp::Force { .. }))
            .count()
    }

    /// Mask covering every live lane, including lane 0 (`compile`
    /// keeps the lane count within `1..=64`).
    fn live_lanes_mask(&self) -> u64 {
        !0 >> (64 - self.lanes())
    }
}

/// Per-lane switched capacitance of a two-valued [`TapeSim`], summed by
/// [`TapeSim::clock_counting`]: for each lane, Σ C over every net toggle
/// and, separately, Σ C over every flip-flop clock event — the same
/// toggles and clock events the scalar [`crate::CycleSim::clock`]
/// records for that lane's circuit, weighted. Power grading is the only
/// consumer, and it runs on two-valued lanes, so the three-valued tape
/// sums nothing.
///
/// The weights are fixed when the accumulator is built: a whole number
/// of femtofarads per net toggle and per clock event, 0 where the
/// caller does not count the energy. Every sum is an exact integer, so
/// the order of accumulation cannot change a result.
///
/// Sums are kept as *deviations from lane 0*: a fault lane toggles
/// exactly like the fault-free lane on almost every net in almost every
/// cycle. Lane 0's sum is one scalar; a lane that toggles a net where
/// lane 0 does not adds `+C` to its own 64-entry `i64` deviation, and a
/// lane that holds where lane 0 toggles adds `−C`. A lane's exact sum
/// is lane 0's plus its deviation, so per-lane work touches only the
/// (rare) individual lane bits that deviate.
///
/// The accumulator is built for one [`TapeProgram`] and must only
/// record simulators of that program.
#[derive(Debug, Clone)]
pub struct TapeEnergy {
    lanes: usize,
    /// Whole fF switched by one toggle of each net.
    net_ff: Vec<u64>,
    /// Σ clock fF of the counted plain flip-flops, which clock in every
    /// lane every cycle.
    dff_ff: u64,
    /// The counted enabled flip-flops: enable slot and clock fF.
    dffe: Vec<(u32, u64)>,
    /// Lane 0's switching and clock sums.
    switching0: u64,
    clock0: u64,
    /// Each lane's switching and clock sums minus lane 0's.
    switching_dev: [i64; 64],
    clock_dev: [i64; 64],
    cycles: u64,
    /// The previous cycle's settled net values, the other end of each
    /// toggle; meaningful once `have_prev` is set.
    prev: Vec<u64>,
    have_prev: bool,
    /// Each net's toggle word for the edge, filled branch-free and then
    /// scanned for deviations.
    toggles: Vec<u64>,
    /// One bit per net, set when the net carries weight.
    weighted: Vec<u64>,
}

/// Drains one lane word into per-lane deviations from lane 0: every
/// lane whose bit differs from lane 0's gets `+c` when lane 0's bit is
/// clear (the lane switched where lane 0 did not) and `−c` when it is
/// set (lane 0 switched and the lane did not). Deviating lanes are
/// almost always few, so this is a short trailing-zeros walk, not a
/// per-lane sweep.
#[inline]
fn drain(dev: &mut [i64; 64], word: u64, c: u64) {
    let lane0 = (word & 1).wrapping_neg();
    let c = if lane0 == 0 { c as i64 } else { -(c as i64) };
    let mut lanes = word ^ lane0;
    while lanes != 0 {
        dev[lanes.trailing_zeros() as usize] += c;
        lanes &= lanes - 1;
    }
}

impl TapeEnergy {
    /// Zeroed sums for simulators of `prog`, weighting each toggle of
    /// net `n` by `net_ff[n.index()]` and each clock event of flip-flop
    /// `g` by `clock_ff[g.index()]` (entries of combinational gates are
    /// ignored).
    ///
    /// # Panics
    ///
    /// Panics if `net_ff` does not have one entry per net or `clock_ff`
    /// one per gate of the compiled netlist.
    pub fn new(prog: &TapeProgram<u64>, net_ff: &[u64], clock_ff: &[u64]) -> Self {
        assert_eq!(net_ff.len(), prog.n_nets, "one weight per net");
        assert_eq!(clock_ff.len(), prog.state_slot.len(), "one weight per gate");
        let mut dff_ff = 0;
        let mut dffe = Vec::new();
        for (&slot, &c) in prog.state_slot.iter().zip(clock_ff) {
            if slot == u32::MAX || c == 0 {
                continue;
            }
            // State slots follow the net slots in sequential-gate order,
            // like `prog.seq`.
            match prog.seq[slot as usize - prog.n_nets] {
                SeqOp::Dff { .. } => dff_ff += c,
                SeqOp::Dffe { en, .. } => dffe.push((en, c)),
            }
        }
        TapeEnergy {
            lanes: prog.lanes(),
            net_ff: net_ff.to_vec(),
            dff_ff,
            dffe,
            switching0: 0,
            clock0: 0,
            switching_dev: [0; 64],
            clock_dev: [0; 64],
            cycles: 0,
            prev: vec![0; prog.n_nets],
            have_prev: false,
            toggles: vec![0; prog.n_nets],
            weighted: net_ff
                .chunks(64)
                .map(|ff| {
                    ff.iter()
                        .enumerate()
                        .fold(0, |w, (j, &c)| w | u64::from(c != 0) << j)
                })
                .collect(),
        }
    }

    /// Restarts every sum from zero in place, keeping the buffers — the
    /// cheap path for Monte Carlo loops that run many batches over one
    /// simulator. The next edge only records its settled values as the
    /// baseline for the one after.
    pub fn reset(&mut self) {
        self.switching0 = 0;
        self.clock0 = 0;
        self.switching_dev = [0; 64];
        self.clock_dev = [0; 64];
        self.cycles = 0;
        self.have_prev = false;
    }

    /// Counts one clock edge of a simulator of `prog` whose settled
    /// slots are `slots`: net toggles against the previous edge's
    /// settled values, then clock events.
    fn count_edge(&mut self, prog: &TapeProgram<u64>, slots: &[u64]) {
        let nets = prog.n_nets;
        debug_assert_eq!(self.net_ff.len(), nets, "sums of another program");
        if self.have_prev {
            // Two passes. Pass A is branch-free, with no data-dependent
            // control flow at all, so it vectorizes: per net, the lanes
            // that toggled are `prev ^ cur`; the word refreshes the
            // previous-value plane and lands in a scratch word, and lane
            // 0's bit adds the net's weight to one scalar.
            let mut switching0 = 0u64;
            let nets = slots[..nets]
                .iter()
                .zip(&mut self.prev)
                .zip(&self.net_ff)
                .zip(&mut self.toggles);
            for (((&cur, prev), &c), word) in nets {
                let toggled = *prev ^ cur;
                *prev = cur;
                *word = toggled;
                switching0 += c & (toggled & 1).wrapping_neg();
            }
            self.switching0 += switching0;
            // Pass B drains the lanes that disagree with lane 0 as `±C`.
            // Lanes past the pack carry no fault and mirror lane 0, so a
            // net deviates exactly when its toggle word is neither
            // all-0 nor all-1; a 64-net selection word gathers those
            // flags and, masked by the weighted nets, walks straight to
            // the deviating nets that count.
            let blocks = self.toggles.chunks(64).zip(&self.weighted);
            for (block, (toggles, &weighted)) in blocks.enumerate() {
                let mut bits = toggles.iter().enumerate().fold(0, |sel, (j, &t)| {
                    sel | u64::from(t.wrapping_add(1) > 1) << j
                }) & weighted;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    drain(
                        &mut self.switching_dev,
                        toggles[j],
                        self.net_ff[block * 64 + j],
                    );
                }
            }
        } else {
            self.prev.copy_from_slice(&slots[..nets]);
        }
        self.have_prev = true;
        self.cycles += 1;
        // Every lane clocks a plain flip-flop: lane 0's sum only. An
        // enabled one clocks the lanes whose enable is high.
        self.clock0 += self.dff_ff;
        for &(en, c) in &self.dffe {
            let enabled = slots[en as usize];
            self.clock0 += c & (enabled & 1).wrapping_neg();
            drain(&mut self.clock_dev, enabled, c);
        }
    }

    /// Number of lanes tracked (fault count + 1; lane 0 is fault-free).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of simulated cycles (identical across lanes).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Lane `lane`'s switching sum: Σ over its net toggles of the
    /// toggled net's weight, in fF.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn switching_ff(&self, lane: usize) -> u64 {
        self.lane_sum(self.switching0, &self.switching_dev, lane)
    }

    /// Lane `lane`'s clock sum: Σ over its flip-flop clock events of the
    /// flip-flop's weight, in fF.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn clock_ff(&self, lane: usize) -> u64 {
        self.lane_sum(self.clock0, &self.clock_dev, lane)
    }

    fn lane_sum(&self, base: u64, dev: &[i64; 64], lane: usize) -> u64 {
        assert!(
            lane < self.lanes,
            "TapeEnergy lane index {lane} out of range: this pack tracks {} lanes \
             (lane 0 fault-free, one per fault)",
            self.lanes
        );
        // A lane's sum never undershoots zero: `−C` only lands on edges
        // where lane 0 itself added `C`.
        base.wrapping_add_signed(dev[lane])
    }
}

/// The tape evaluator: runs a [`TapeProgram`] cycle by cycle on `V`
/// lanes with zero per-cycle allocation.
///
/// The call discipline mirrors [`crate::CycleSim`]: set inputs,
/// [`eval`](Self::eval), read values/masks, [`clock`](Self::clock)
/// (or, on two-valued lanes, [`clock_counting`](Self::clock_counting)).
#[derive(Debug, Clone)]
pub struct TapeSim<'p, V: LaneValue> {
    prog: &'p TapeProgram<V>,
    /// The flat value array: net slots, then sequential state slots,
    /// then forced-operand scratch slots.
    slots: Vec<V>,
}

impl<'p, V: LaneValue> TapeSim<'p, V> {
    /// Creates an evaluator over a compiled program. Every slot starts
    /// at `V::default()`: `X` on three-valued lanes, 0 on two-valued
    /// ones.
    pub fn new(prog: &'p TapeProgram<V>) -> Self {
        TapeSim {
            prog,
            slots: vec![V::default(); prog.n_slots],
        }
    }

    /// The program being evaluated.
    pub fn program(&self) -> &'p TapeProgram<V> {
        self.prog
    }

    /// The faults carried by lanes `1..`.
    pub fn faults(&self) -> &[StuckAt] {
        &self.prog.faults
    }

    /// Number of live lanes (fault count + 1; lane 0 is fault-free).
    pub fn lanes(&self) -> usize {
        self.prog.lanes()
    }

    /// Resets all sequential state in all lanes to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is [`Logic::X`] on two-valued lanes.
    pub fn reset_state(&mut self, v: Logic) {
        let s = V::splat(v);
        for op in &self.prog.seq {
            let slot = match *op {
                SeqOp::Dff { state, .. } | SeqOp::Dffe { state, .. } => state,
            };
            self.slots[slot as usize] = s;
        }
    }

    /// Overwrites one sequential gate's stored state (all lanes) — used
    /// by system-level reset to load a specific controller state code.
    /// Energy sums are untouched, so the toggle edge into the reset
    /// state is counted like any other.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not sequential.
    pub fn set_gate_state(&mut self, gate: GateId, v: V) {
        let slot = self.prog.state_slot[gate.index()];
        assert!(slot != u32::MAX, "{gate} is not a sequential gate");
        self.slots[slot as usize] = v;
    }

    /// Reads one sequential gate's stored state lanes.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not sequential.
    pub fn gate_state(&self, gate: GateId) -> V {
        let slot = self.prog.state_slot[gate.index()];
        assert!(slot != u32::MAX, "{gate} is not a sequential gate");
        self.slots[slot as usize]
    }

    /// Applies the same value to a primary input across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `v` is [`Logic::X`] on two-valued lanes.
    pub fn set_input(&mut self, net: NetId, v: Logic) {
        self.slots[net.index()] = V::splat(v);
    }

    /// Applies the same values to all primary inputs across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `vals` length differs from the number of primary
    /// inputs, or if a value is [`Logic::X`] on two-valued lanes.
    pub fn set_inputs(&mut self, vals: &[Logic]) {
        assert_eq!(vals.len(), self.prog.inputs.len(), "input width mismatch");
        for (&slot, &v) in self.prog.inputs.iter().zip(vals) {
            self.slots[slot as usize] = V::splat(v);
        }
    }

    /// Lane-vector value of a net (valid after [`TapeSim::eval`]).
    pub fn value(&self, net: NetId) -> V {
        self.slots[net.index()]
    }

    /// Settles all combinational logic: one pass over the flat tape.
    pub fn eval(&mut self) {
        let slots = &mut self.slots;
        let masks = &self.prog.masks;
        let ones = &self.prog.ones;
        for op in &self.prog.ops {
            match *op {
                TapeOp::Const0 { dst } => slots[dst as usize] = V::ZERO,
                TapeOp::Const1 { dst } => slots[dst as usize] = V::ONE,
                TapeOp::Copy { dst, a } => slots[dst as usize] = slots[a as usize],
                TapeOp::Not { dst, a } => slots[dst as usize] = slots[a as usize].not(),
                TapeOp::And2 { dst, a, b } => {
                    slots[dst as usize] = slots[a as usize].and(slots[b as usize]);
                }
                TapeOp::And3 { dst, a, b, c } => {
                    slots[dst as usize] = slots[a as usize]
                        .and(slots[b as usize])
                        .and(slots[c as usize]);
                }
                TapeOp::And4 { dst, a, b, c, d } => {
                    slots[dst as usize] = slots[a as usize]
                        .and(slots[b as usize])
                        .and(slots[c as usize])
                        .and(slots[d as usize]);
                }
                TapeOp::Or2 { dst, a, b } => {
                    slots[dst as usize] = slots[a as usize].or(slots[b as usize]);
                }
                TapeOp::Or3 { dst, a, b, c } => {
                    slots[dst as usize] = slots[a as usize]
                        .or(slots[b as usize])
                        .or(slots[c as usize]);
                }
                TapeOp::Or4 { dst, a, b, c, d } => {
                    slots[dst as usize] = slots[a as usize]
                        .or(slots[b as usize])
                        .or(slots[c as usize])
                        .or(slots[d as usize]);
                }
                TapeOp::Nand2 { dst, a, b } => {
                    slots[dst as usize] = slots[a as usize].and(slots[b as usize]).not();
                }
                TapeOp::Nand3 { dst, a, b, c } => {
                    slots[dst as usize] = slots[a as usize]
                        .and(slots[b as usize])
                        .and(slots[c as usize])
                        .not();
                }
                TapeOp::Nand4 { dst, a, b, c, d } => {
                    slots[dst as usize] = slots[a as usize]
                        .and(slots[b as usize])
                        .and(slots[c as usize])
                        .and(slots[d as usize])
                        .not();
                }
                TapeOp::Nor2 { dst, a, b } => {
                    slots[dst as usize] = slots[a as usize].or(slots[b as usize]).not();
                }
                TapeOp::Nor3 { dst, a, b, c } => {
                    slots[dst as usize] = slots[a as usize]
                        .or(slots[b as usize])
                        .or(slots[c as usize])
                        .not();
                }
                TapeOp::Nor4 { dst, a, b, c, d } => {
                    slots[dst as usize] = slots[a as usize]
                        .or(slots[b as usize])
                        .or(slots[c as usize])
                        .or(slots[d as usize])
                        .not();
                }
                TapeOp::Xor2 { dst, a, b } => {
                    slots[dst as usize] = slots[a as usize].xor(slots[b as usize]);
                }
                TapeOp::Xnor2 { dst, a, b } => {
                    slots[dst as usize] = slots[a as usize].xor(slots[b as usize]).not();
                }
                TapeOp::Mux2 { dst, a, b, sel } => {
                    slots[dst as usize] =
                        V::mux(slots[a as usize], slots[b as usize], slots[sel as usize]);
                }
                TapeOp::Force { dst, src, f } => {
                    slots[dst as usize] =
                        slots[src as usize].force(masks[f as usize], ones[f as usize]);
                }
            }
        }
    }

    /// Advances sequential state one clock edge in all lanes, exactly as
    /// the scalar [`crate::CycleSim::clock`] does per lane.
    pub fn clock(&mut self) {
        for op in &self.prog.seq {
            match *op {
                SeqOp::Dff { state, d } => {
                    self.slots[state as usize] = self.slots[d as usize];
                }
                SeqOp::Dffe { state, d, en } => {
                    let s = state as usize;
                    self.slots[s] = V::mux(
                        self.slots[s],
                        self.slots[d as usize],
                        self.slots[en as usize],
                    );
                }
            }
        }
    }
}

impl TapeSim<'_, u64> {
    /// [`clock`](Self::clock), first adding the settled cycle's
    /// weighted net toggles and clock events into `energy` — per lane
    /// the same toggles and clock events the scalar
    /// [`crate::CycleSim::clock`] records. `energy` must have been built
    /// for this simulator's program.
    pub fn clock_counting(&mut self, energy: &mut TapeEnergy) {
        energy.count_edge(self.prog, &self.slots);
        self.clock();
    }
}

impl TapeSim<'_, Pat> {
    /// Mask of fault lanes whose primary outputs *definitely* differ
    /// from lane 0 in the current cycle. Bit `i+1` corresponds to
    /// `self.faults()[i]`.
    pub fn detected_mask(&self) -> u64 {
        let mut mask = 0;
        for &o in &self.prog.outputs {
            let v = self.slots[o as usize];
            let golden = Pat::splat(v.lane(0));
            mask |= v.definitely_differs(golden);
        }
        mask & !1
    }

    /// Mask of fault lanes where some primary output is known in lane 0
    /// but unknown in the fault lane (the "potentially detected"
    /// GENTEST outcome).
    pub fn potentially_detected_mask(&self) -> u64 {
        let mut mask = 0;
        for &o in &self.prog.outputs {
            let v = self.slots[o as usize];
            if v.lane(0).is_known() {
                mask |= !v.known();
            }
        }
        mask & !1 & self.prog.live_lanes_mask()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::graph::NetlistBuilder;
    use crate::logic::Logic::{One, Zero, X};
    use crate::sim::CycleSim;

    #[test]
    fn pat_ops_match_scalar_logic() {
        let lane = 17;
        let vals = [Zero, One, X];
        for &a in &vals {
            for &b in &vals {
                let va = Pat::all_x().with_lane(lane, a);
                let vb = Pat::all_x().with_lane(lane, b);
                assert_eq!(va.and(vb).lane(lane), a & b, "and {a} {b}");
                assert_eq!(va.or(vb).lane(lane), a | b, "or {a} {b}");
                assert_eq!(va.xor(vb).lane(lane), a ^ b, "xor {a} {b}");
                assert_eq!(va.not().lane(lane), !a, "not {a}");
                for &s in &vals {
                    let vs = Pat::splat(s);
                    let expect = CellKind::Mux2.eval(&[a, b, s]);
                    assert_eq!(
                        Pat::mux(Pat::splat(a), Pat::splat(b), vs).lane(lane),
                        expect,
                        "mux {a} {b} {s}"
                    );
                }
                for (mask, ones, want) in [(1 << lane, 0, Zero), (1 << lane, 1 << lane, One)] {
                    assert_eq!(va.force(mask, ones).lane(lane), want, "force {a}");
                    assert_eq!(va.force(mask, ones).lane(lane + 1), X, "other lanes");
                }
            }
        }
    }

    #[test]
    fn two_valued_ops_match_three_valued_ops_on_known_lanes() {
        // Every lane carries one of the eight (a, b, sel) combinations.
        let bits = |k: u32| (0..64u64).fold(0u64, |w, lane| w | ((lane >> k & 1) << lane));
        let (a, b, s) = (bits(0), bits(1), bits(2));
        let pat = |w: u64| Pat { lo: !w, hi: w };
        let known = |p: Pat| {
            assert_eq!(p.known(), !0, "known operands give known results");
            p.hi
        };
        assert_eq!(a.and(b), known(pat(a).and(pat(b))));
        assert_eq!(a.or(b), known(pat(a).or(pat(b))));
        assert_eq!(a.xor(b), known(pat(a).xor(pat(b))));
        assert_eq!(a.not(), known(pat(a).not()));
        assert_eq!(u64::mux(a, b, s), known(Pat::mux(pat(a), pat(b), pat(s))));
        assert_eq!(a.force(s, s & b), known(pat(a).force(s, s & b)));
        for lane in 0..64 {
            assert_eq!(a.lane(lane), pat(a).lane(lane));
        }
        assert_eq!(u64::splat(One), !0);
        assert_eq!(u64::splat(Zero), 0);
    }

    #[test]
    #[should_panic(expected = "two-valued tape lanes cannot hold X")]
    fn two_valued_lanes_refuse_x() {
        let _ = u64::splat(X);
    }

    /// Small sequential circuit: enabled register + inverter cloud.
    fn build() -> Netlist {
        let mut b = NetlistBuilder::new("seq");
        let d = b.input("d");
        let en = b.input("en");
        let q = b.net("q");
        b.gate(CellKind::Dffe, "r", &[d, en], q);
        let nq = b.gate_net(CellKind::Inv, "i", &[q]);
        let o = b.gate_net(CellKind::And2, "a", &[nq, d]);
        b.mark_output(o);
        b.mark_output(q);
        b.finish().expect("valid")
    }

    /// The collapsed fault list of `nl`, repeated to fill lanes up to
    /// bit 63.
    fn full_pack(nl: &Netlist) -> Vec<StuckAt> {
        StuckAt::enumerate_collapsed(nl)
            .iter()
            .cycle()
            .take(MAX_PARALLEL_FAULTS)
            .copied()
            .collect()
    }

    /// One fresh scalar simulator per lane, reset to `v`, with activity
    /// tracking on.
    fn scalar_lanes<'n>(nl: &'n Netlist, faults: &[StuckAt], v: Logic) -> Vec<CycleSim<'n>> {
        std::iter::once(CycleSim::new(nl))
            .chain(faults.iter().map(|&f| CycleSim::with_fault(nl, f)))
            .map(|mut s| {
                s.track_activity(true);
                s.reset_state(v);
                s
            })
            .collect()
    }

    #[test]
    fn three_valued_lanes_agree_with_scalar_simulation() {
        let nl = build();
        let faults = full_pack(&nl);
        let prog = TapeProgram::<Pat>::compile(&nl, &faults).expect("fits");
        let mut tape = TapeSim::new(&prog);
        tape.reset_state(Zero);
        let mut scalars = scalar_lanes(&nl, &faults, Zero);
        let stim = [[One, Zero], [Zero, One], [One, One], [X, One], [Zero, X]];
        for inputs in stim {
            tape.set_inputs(&inputs);
            tape.eval();
            for s in scalars.iter_mut() {
                s.set_inputs(&inputs);
                s.eval();
            }
            let golden = scalars[0].outputs();
            for (lane, s) in scalars.iter_mut().enumerate() {
                for net in nl.net_ids() {
                    assert_eq!(
                        tape.value(net).lane(lane),
                        s.value(net),
                        "lane {lane} net {}",
                        nl.net(net).name()
                    );
                }
                if lane > 0 {
                    let out = s.outputs();
                    let det = out
                        .iter()
                        .zip(&golden)
                        .any(|(g, w)| g.definitely_differs(*w));
                    let pot = out
                        .iter()
                        .zip(&golden)
                        .any(|(g, w)| w.is_known() && !g.is_known());
                    assert_eq!(tape.detected_mask() >> lane & 1 == 1, det, "lane {lane}");
                    assert_eq!(
                        tape.potentially_detected_mask() >> lane & 1 == 1,
                        pot,
                        "lane {lane}"
                    );
                }
                s.clock();
            }
            tape.clock();
        }
    }

    /// The weightings every energy test applies: random whole weights,
    /// then a one-hot weight on each net, then one on each flip-flop's
    /// clock — so every (net, lane) toggle count and every (flip-flop,
    /// lane) clock count is pinned on its own.
    fn weightings(nl: &Netlist, seed: u64) -> Vec<(Vec<u64>, Vec<u64>)> {
        let (nets, gates) = (nl.net_count(), nl.gate_count());
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % 100
        };
        let random = (
            (0..nets).map(|_| next()).collect(),
            (0..gates).map(|_| next()).collect(),
        );
        let one_hot =
            |len: usize, at: usize| -> Vec<u64> { (0..len).map(|i| u64::from(i == at)).collect() };
        std::iter::once(random)
            .chain((0..nets).map(|n| (one_hot(nets, n), vec![0; gates])))
            .chain(
                nl.sequential_gates()
                    .iter()
                    .map(|g| (vec![0; nets], one_hot(gates, g.index()))),
            )
            .collect()
    }

    /// Asserts that each lane's switching and clock sums in `energy`
    /// are `weights` applied to that lane's scalar activity.
    fn assert_lane_sums(energy: &TapeEnergy, weights: &(Vec<u64>, Vec<u64>), scalars: &[CycleSim]) {
        let (net_ff, clock_ff) = weights;
        assert_eq!(energy.lanes(), scalars.len());
        for (lane, s) in scalars.iter().enumerate() {
            let a = s.activity();
            let switching: u64 = a.net_toggles.iter().zip(net_ff).map(|(t, w)| t * w).sum();
            let clock: u64 = a
                .clock_events
                .iter()
                .zip(clock_ff)
                .map(|(e, w)| e * w)
                .sum();
            assert_eq!(energy.cycles(), a.cycles, "lane {lane}");
            assert_eq!(
                energy.switching_ff(lane),
                switching,
                "switching, lane {lane}"
            );
            assert_eq!(energy.clock_ff(lane), clock, "clock, lane {lane}");
        }
    }

    #[test]
    fn two_valued_lanes_and_energy_agree_with_scalar_simulation() {
        let nl = build();
        let faults = full_pack(&nl);
        let prog = TapeProgram::<u64>::compile(&nl, &faults).expect("fits");
        let mut tape = TapeSim::new(&prog);
        tape.reset_state(One);
        let mut scalars = scalar_lanes(&nl, &faults, One);
        let stim = [
            [One, Zero],
            [Zero, One],
            [One, One],
            [Zero, Zero],
            [Zero, One],
        ];
        for inputs in stim {
            tape.set_inputs(&inputs);
            tape.eval();
            for (lane, s) in scalars.iter_mut().enumerate() {
                s.set_inputs(&inputs);
                s.eval();
                for net in nl.net_ids() {
                    assert_eq!(tape.value(net).lane(lane), s.value(net), "lane {lane}");
                }
                s.clock();
            }
            tape.clock();
        }
        for weights in weightings(&nl, 7) {
            let mut energy = TapeEnergy::new(&prog, &weights.0, &weights.1);
            tape.reset_state(One);
            for inputs in stim {
                tape.set_inputs(&inputs);
                tape.eval();
                tape.clock_counting(&mut energy);
            }
            assert_lane_sums(&energy, &weights, &scalars);
        }
    }

    /// Restarts `energy`, runs `stim` from reset on `tape` and on one
    /// fresh scalar simulator per lane, and checks every lane's sums
    /// against `weights` applied to its scalar activity. Returns how
    /// many lanes clocked some gate a different number of times than
    /// lane 0.
    fn check_tracked_segment(
        nl: &Netlist,
        faults: &[StuckAt],
        tape: &mut TapeSim<'_, u64>,
        energy: &mut TapeEnergy,
        weights: &(Vec<u64>, Vec<u64>),
        stim: &[[Logic; 2]],
    ) -> usize {
        energy.reset();
        tape.reset_state(Zero);
        let mut scalars = scalar_lanes(nl, faults, Zero);
        for inputs in stim {
            tape.set_inputs(inputs);
            tape.eval();
            tape.clock_counting(energy);
            for s in scalars.iter_mut() {
                s.step(inputs);
            }
        }
        assert_lane_sums(energy, weights, &scalars);
        let lane0 = &scalars[0].activity().clock_events;
        scalars
            .iter()
            .filter(|s| &s.activity().clock_events != lane0)
            .count()
    }

    #[test]
    fn reused_sums_restart_exactly_between_tracked_segments() {
        // An enabled register, a plain register and some logic around
        // them. Faults on the enable pin make the enable differ by
        // lane, so the clock sums deviate from lane 0 in both
        // directions.
        let mut b = NetlistBuilder::new("two-regs");
        let d = b.input("d");
        let en = b.input("en");
        let q = b.net("q");
        let r = b.gate(CellKind::Dffe, "r", &[d, en], q);
        let nq = b.gate_net(CellKind::Inv, "i", &[q]);
        let p = b.net("p");
        b.gate(CellKind::Dff, "s", &[nq], p);
        let o = b.gate_net(CellKind::Xor2, "x", &[p, d]);
        b.mark_output(o);
        b.mark_output(q);
        let nl = b.finish().expect("valid");
        let mut faults = vec![StuckAt::input(r, 1, false), StuckAt::input(r, 1, true)];
        faults.extend(StuckAt::enumerate(&nl));
        faults.truncate(MAX_PARALLEL_FAULTS);
        let prog = TapeProgram::<u64>::compile(&nl, &faults).expect("fits");
        let mut tape = TapeSim::new(&prog);

        // A busy first segment deviates on many nets; the shorter,
        // quieter second one must not see any of its sums.
        let busy = [
            [One, One],
            [Zero, One],
            [One, Zero],
            [Zero, One],
            [One, Zero],
            [One, One],
            [Zero, Zero],
            [One, One],
        ];
        let quiet = [[Zero, Zero], [Zero, One], [Zero, Zero]];
        for weights in weightings(&nl, 11) {
            let mut energy = TapeEnergy::new(&prog, &weights.0, &weights.1);
            let mut segment = |stim: &[[Logic; 2]]| {
                check_tracked_segment(&nl, &faults, &mut tape, &mut energy, &weights, stim)
            };
            let deviating = segment(&busy);
            assert!(
                deviating > 0,
                "some lane's enable must differ from lane 0's"
            );
            segment(&quiet);
            segment(&busy);
        }
    }

    #[test]
    fn compile_rejects_oversized_packs() {
        let nl = build();
        let f = StuckAt::enumerate_collapsed(&nl)[0];
        let too_many = vec![f; MAX_PARALLEL_FAULTS + 1];
        let err = TapeProgram::<u64>::compile(&nl, &too_many).unwrap_err();
        assert_eq!(err.requested, 64);
        assert!(err.to_string().contains("at most 63"));
        assert!(TapeProgram::<u64>::compile(&nl, &too_many[1..]).is_ok());
    }

    #[test]
    fn detected_mask_flags_only_differing_lanes() {
        let mut b = NetlistBuilder::new("inv");
        let a = b.input("a");
        let o = b.gate_net(CellKind::Inv, "i", &[a]);
        b.mark_output(o);
        let nl = b.finish().expect("valid");
        let g = nl.driver(nl.find_net("i_o").expect("net")).expect("gate");
        let faults = vec![StuckAt::output(g, false), StuckAt::output(g, true)];
        let prog = TapeProgram::<Pat>::compile(&nl, &faults).expect("fits");
        let mut sim = TapeSim::new(&prog);
        sim.set_inputs(&[Zero]);
        sim.eval();
        // Fault-free output is 1, so only the s-a-0 lane differs.
        assert_eq!(sim.detected_mask(), 0b01 << 1);
    }
}

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
//! Lanes are the bits of a [`TapeWord`]; `u64` gives the classic
//! 63-faults-plus-baseline pack. Every lane is an exact dual-rail
//! three-valued simulation with the same semantics as the scalar
//! reference [`crate::CycleSim`]: values, detection masks, and per-lane
//! switching activity are bit-identical to a `CycleSim` run of that
//! lane's circuit for the same stimulus (property-tested in
//! `tests/proptests.rs`).

use crate::fault::{FaultSite, StuckAt};
use crate::graph::{GateId, NetId, Netlist};
use crate::logic::Logic;
use crate::sim::Activity;

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

/// A machine word carrying one simulation lane per bit.
///
/// Implemented by `u64` (64 lanes). All ops are pure bitwise
/// combinators.
pub trait TapeWord:
    Copy + Clone + PartialEq + Eq + std::fmt::Debug + Default + Send + Sync + 'static
{
    /// Simulation lanes carried per word.
    const LANES: usize;
    /// The all-zero word.
    const ZERO: Self;
    /// The all-ones word.
    const ONES: Self;
    /// Bitwise AND.
    fn and(self, o: Self) -> Self;
    /// Bitwise OR.
    fn or(self, o: Self) -> Self;
    /// Bitwise XOR.
    fn xor(self, o: Self) -> Self;
    /// Bitwise NOT.
    fn not(self) -> Self;
    /// Whether no bit is set.
    fn is_zero(self) -> bool;
    /// Reads bit `lane`.
    fn bit(self, lane: usize) -> bool;
    /// The single-bit mask for `lane`.
    fn mask(lane: usize) -> Self;
    /// The mask with bits `0..n` set.
    fn low_mask(n: usize) -> Self;
    /// Number of `u64` limbs making up the word.
    const LIMBS: usize;
    /// Reads limb `i` (lanes `64·i..64·(i+1)`).
    fn limb(self, i: usize) -> u64;
    /// All-ones when bit 0 (lane 0) is set, all-zero otherwise —
    /// a branch-free broadcast of the fault-free lane's bit.
    fn lane0_splat(self) -> Self;
    /// `1` when any bit is set, `0` otherwise — branch-free, so hot
    /// loops can pack per-column "deviation present" summary bits
    /// without data-dependent control flow.
    fn any01(self) -> u64;
    /// All-ones when any bit is set, all-zero otherwise — the
    /// branch-free word-wide version of [`any01`](Self::any01).
    fn nonzero_splat(self) -> Self;

    /// `self & !o`.
    #[inline]
    fn andnot(self, o: Self) -> Self {
        self.and(o.not())
    }
}

impl TapeWord for u64 {
    const LANES: usize = 64;
    const ZERO: u64 = 0;
    const ONES: u64 = !0;

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
    fn not(self) -> u64 {
        !self
    }
    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }
    #[inline]
    fn bit(self, lane: usize) -> bool {
        debug_assert!(lane < 64, "lane {lane} out of range");
        self >> lane & 1 == 1
    }
    #[inline]
    fn mask(lane: usize) -> u64 {
        debug_assert!(lane < 64, "lane {lane} out of range");
        1u64 << lane
    }
    #[inline]
    fn low_mask(n: usize) -> u64 {
        if n >= 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }
    const LIMBS: usize = 1;
    #[inline]
    fn limb(self, i: usize) -> u64 {
        debug_assert!(i == 0, "limb {i} out of range");
        self
    }
    #[inline]
    fn lane0_splat(self) -> u64 {
        (self & 1).wrapping_neg()
    }
    #[inline]
    fn any01(self) -> u64 {
        (self | self.wrapping_neg()) >> 63
    }
    #[inline]
    fn nonzero_splat(self) -> u64 {
        ((self | self.wrapping_neg()) >> 63).wrapping_neg()
    }
}

/// A dual-rail logic word over `W::LANES` lanes. Invariant:
/// `lo & hi == 0`; a lane with neither bit set is `X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pat<W> {
    /// Lanes that are definitely 0.
    pub lo: W,
    /// Lanes that are definitely 1.
    pub hi: W,
}

impl<W: TapeWord> Pat<W> {
    /// All lanes `X`.
    #[inline]
    pub fn all_x() -> Self {
        Pat {
            lo: W::ZERO,
            hi: W::ZERO,
        }
    }

    /// Broadcasts a scalar logic value to all lanes.
    #[inline]
    pub fn splat(v: Logic) -> Self {
        match v {
            Logic::Zero => Pat {
                lo: W::ONES,
                hi: W::ZERO,
            },
            Logic::One => Pat {
                lo: W::ZERO,
                hi: W::ONES,
            },
            Logic::X => Pat::all_x(),
        }
    }

    /// Reads one lane.
    #[inline]
    pub fn lane(self, i: usize) -> Logic {
        if self.lo.bit(i) {
            Logic::Zero
        } else if self.hi.bit(i) {
            Logic::One
        } else {
            Logic::X
        }
    }

    /// Writes one lane.
    #[inline]
    #[must_use]
    pub fn with_lane(self, i: usize, v: Logic) -> Self {
        self.force(W::mask(i), v)
    }

    /// Forces the lanes selected by `mask` to `v`.
    #[inline]
    #[must_use]
    pub fn force(self, mask: W, v: Logic) -> Self {
        let mut r = Pat {
            lo: self.lo.andnot(mask),
            hi: self.hi.andnot(mask),
        };
        match v {
            Logic::Zero => r.lo = r.lo.or(mask),
            Logic::One => r.hi = r.hi.or(mask),
            Logic::X => {}
        }
        r
    }

    /// Lane-wise NOT (a dual-rail inversion is a rail swap; the name
    /// mirrors the other lane-wise combinators rather than `ops::Not`,
    /// which would require a reference-consuming operator impl).
    #[inline]
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Pat {
            lo: self.hi,
            hi: self.lo,
        }
    }

    /// Lane-wise AND.
    #[inline]
    #[must_use]
    pub fn and(self, o: Self) -> Self {
        Pat {
            lo: self.lo.or(o.lo),
            hi: self.hi.and(o.hi),
        }
    }

    /// Lane-wise OR.
    #[inline]
    #[must_use]
    pub fn or(self, o: Self) -> Self {
        Pat {
            lo: self.lo.and(o.lo),
            hi: self.hi.or(o.hi),
        }
    }

    /// Lane-wise XOR.
    #[inline]
    #[must_use]
    pub fn xor(self, o: Self) -> Self {
        Pat {
            lo: self.lo.and(o.lo).or(self.hi.and(o.hi)),
            hi: self.lo.and(o.hi).or(self.hi.and(o.lo)),
        }
    }

    /// Lane-wise 2:1 mux (`sel=0` picks `a`, `sel=1` picks `b`); an `X`
    /// select yields the data value only where both data lanes agree.
    #[inline]
    #[must_use]
    pub fn mux(a: Self, b: Self, sel: Self) -> Self {
        let agree_lo = a.lo.and(b.lo);
        let agree_hi = a.hi.and(b.hi);
        let x_sel = sel.lo.or(sel.hi).not();
        Pat {
            lo: sel
                .lo
                .and(a.lo)
                .or(sel.hi.and(b.lo))
                .or(x_sel.and(agree_lo)),
            hi: sel
                .lo
                .and(a.hi)
                .or(sel.hi.and(b.hi))
                .or(x_sel.and(agree_hi)),
        }
    }

    /// Lanes (as a mask) whose value definitely differs from the
    /// corresponding lane of `o` — both lanes known, opposite values.
    #[inline]
    pub fn definitely_differs(self, o: Self) -> W {
        self.lo.and(o.hi).or(self.hi.and(o.lo))
    }

    /// Lanes (as a mask) that are known (`0` or `1`).
    #[inline]
    pub fn known(self) -> W {
        self.lo.or(self.hi)
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
    /// `slots[dst] = slots[src].force(masks[f], vals[f])` — a baked-in
    /// stuck-at injection site.
    Force { dst: u32, src: u32, f: u32 },
}

/// One compiled sequential-state update, executed at the clock edge.
#[derive(Debug, Clone, Copy)]
enum SeqOp {
    /// Plain flip-flop: `state = slots[d]`, clock event in every lane.
    /// `col` is the gate's clock-counter column (its position among the
    /// sequential gates).
    Dff { state: u32, d: u32, col: u32 },
    /// Clock-gated flip-flop: load where the enable is definitely 1,
    /// hold where definitely 0, degrade to `X` where the enable is
    /// unknown and the data disagrees with the held state.
    Dffe {
        state: u32,
        d: u32,
        en: u32,
        col: u32,
    },
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
#[derive(Debug, Clone)]
pub struct TapeProgram<W> {
    ops: Vec<TapeOp>,
    seq: Vec<SeqOp>,
    /// Per-fault force masks (lane `i+1` for fault `i`).
    masks: Vec<W>,
    /// Per-fault forced values, parallel to `masks`.
    vals: Vec<Logic>,
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
}

impl<W: TapeWord> TapeProgram<W> {
    /// Compiles `nl` with `faults` baked in (lane 0 stays fault-free;
    /// fault `i` occupies lane `i+1`).
    ///
    /// # Errors
    ///
    /// Returns [`TooManyFaultsError`] when the pack exceeds
    /// `W::LANES - 1` faults.
    pub fn compile(nl: &Netlist, faults: &[StuckAt]) -> Result<Self, TooManyFaultsError> {
        if faults.len() > W::LANES - 1 {
            return Err(TooManyFaultsError {
                requested: faults.len(),
            });
        }
        let n_nets = nl.net_count();
        let n_gates = nl.gate_count();
        let mut masks = Vec::with_capacity(faults.len());
        let mut vals = Vec::with_capacity(faults.len());
        // Force sites in fault-enumeration order, so chained forces on
        // one site resolve deterministically.
        let mut pin_forces: Vec<(GateId, usize, u32)> = Vec::new();
        let mut out_forces: Vec<(GateId, u32)> = Vec::new();
        let mut pi_forces: Vec<(NetId, u32)> = Vec::new();
        for (i, f) in faults.iter().enumerate() {
            let fi = i as u32;
            masks.push(W::mask(i + 1));
            vals.push(f.stuck_logic());
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
        for (col, &g) in nl.sequential_gates().iter().enumerate() {
            let gate = nl.gate(g);
            let state = state_slot[g.index()];
            let col = col as u32;
            let d = forced_pin(g, 0, gate.inputs()[0], &mut ops, &mut n_slots);
            match gate.kind() {
                crate::cell::CellKind::Dff => seq.push(SeqOp::Dff { state, d, col }),
                crate::cell::CellKind::Dffe => {
                    let en = forced_pin(g, 1, gate.inputs()[1], &mut ops, &mut n_slots);
                    seq.push(SeqOp::Dffe { state, d, en, col });
                }
                _ => unreachable!("non-sequential gate in sequential list"),
            }
        }

        Ok(TapeProgram {
            ops,
            seq,
            masks,
            vals,
            n_slots,
            n_nets,
            inputs: nl.inputs().iter().map(|n| n.index() as u32).collect(),
            outputs: nl.outputs().iter().map(|n| n.index() as u32).collect(),
            state_slot,
            faults: faults.to_vec(),
            n_levels,
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

    /// Net columns the tape's activity counters track (the sparsity
    /// denominator for delta-sweep diagnostics).
    pub fn net_count(&self) -> usize {
        self.n_nets
    }
}

/// Per-lane switching-activity counters for a [`TapeSim`].
///
/// Counters are kept as *deltas against lane 0*: a fault lane toggles
/// exactly like the fault-free lane on almost every net in almost every
/// cycle, so per column we store lane 0's scalar count plus a signed
/// per-lane deviation row — `+1` whenever a lane switched while lane 0
/// did not, `−1` whenever it held still while lane 0 switched. A lane's
/// exact count is `base + delta`, integer arithmetic throughout, so
/// extraction is bit-identical to a dense per-lane counter; the win is
/// that the per-cycle accumulation only ever touches the (rare)
/// individual lane bits that deviate, and columns with no deviation at
/// all own no row and are never rescanned.
///
/// Two counter families share that layout (`DeltaRows`): net toggles,
/// one column per net, and clock events, one column per *sequential*
/// gate (combinational gates never clock, so they get no column).
#[derive(Debug, Clone)]
pub struct TapeActivity<W> {
    lanes: usize,
    /// Lane 0's toggle count per net.
    net_base: Vec<u64>,
    /// Per-lane toggle deviations, one column per net.
    net_delta: DeltaRows,
    /// Lane 0's clock-event count per sequential gate, in
    /// [`Netlist::sequential_gates`] order.
    clock_base: Vec<u64>,
    /// Per-lane clock-event deviations, one column per sequential gate.
    clock_delta: DeltaRows,
    /// Gate index → clock column ([`NO_ROW`] for combinational gates).
    clock_col: Vec<u32>,
    cycles: u64,
    _word: std::marker::PhantomData<W>,
}

/// Row index marking a column that has not deviated since the last
/// reset (and, in `clock_col`, a gate with no clock column).
const NO_ROW: u32 = u32::MAX;

/// One counter family's signed per-lane deviations from lane 0, stored
/// sparsely: a column gets a row of `stride` (= live lanes) counters on
/// its first deviation after a reset, packed densely after the rows
/// allocated before it. The buffer is reserved for every column up
/// front, so it never reallocates, and a reset truncates it — the
/// memory a simulator touches is the rows its busiest batch used, at
/// `stride` counters each. A deviation's magnitude is bounded by the
/// tracked cycle count, which [`TapeSim::clock`] caps at `i32::MAX`.
#[derive(Debug, Clone)]
struct DeltaRows {
    /// Column → row index into `delta`, or [`NO_ROW`] while clean.
    row: Vec<u32>,
    /// Allocated rows, `stride` counters each, in allocation order.
    delta: Vec<i32>,
    stride: usize,
}

impl DeltaRows {
    fn new(columns: usize, stride: usize) -> Self {
        DeltaRows {
            row: vec![NO_ROW; columns],
            delta: Vec::with_capacity(columns * stride),
            stride,
        }
    }

    /// Forgets every row; clean columns read as zero deviation again.
    fn reset(&mut self) {
        self.row.fill(NO_ROW);
        self.delta.clear();
    }

    /// Columns holding a row — those that deviated since the reset.
    fn rows(&self) -> usize {
        self.delta.len() / self.stride
    }

    /// Column `col`'s row, if it has one.
    fn get(&self, col: usize) -> Option<&[i32]> {
        match self.row[col] {
            NO_ROW => None,
            r => {
                let at = r as usize * self.stride;
                Some(&self.delta[at..at + self.stride])
            }
        }
    }

    /// Applies one column's deviation word to its row: every set bit is
    /// one lane that disagreed with lane 0 this edge, bumped by `sign`
    /// (`+1` for a toggle lane 0 did not make, `−1` for one it made
    /// alone). Deviation words almost always carry a single set bit, so
    /// this is a short trailing-zeros walk, not a per-lane sweep.
    #[inline]
    fn bump<W: TapeWord>(&mut self, col: usize, w: W, sign: i32) {
        let at = match self.row[col] {
            NO_ROW => {
                let at = self.delta.len();
                self.row[col] = (at / self.stride) as u32;
                self.delta.resize(at + self.stride, 0);
                at
            }
            r => r as usize * self.stride,
        };
        let row = &mut self.delta[at..at + self.stride];
        for li in 0..W::LIMBS {
            let mut bits = w.limb(li);
            while bits != 0 {
                let lane = li * 64 + bits.trailing_zeros() as usize;
                row[lane] += sign;
                bits &= bits - 1;
            }
        }
    }
}

/// Drains the per-column deviation scratch into the delta rows. A
/// scratch word's bit 0 carries the sign (set ⇔ lane 0 toggled and the
/// flagged lanes held, so their counts fall *behind* lane 0's).
/// Deviations are sparse (most columns agree with lane 0 on most
/// edges), and the toggle sweep already folded a one-bit
/// nonzero-flag per column into the `sel` bitmap while the scratch
/// word was in a register, so the drain walks straight to the hot
/// columns — clean scratch words are never re-read at all.
fn drain_deviations<W: TapeWord>(sel: &[u64], scratch: &[W], delta: &mut DeltaRows) {
    for (word, &bits) in sel.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            let idx = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let w = scratch[idx];
            let sign = 1 - 2 * (w.limb(0) & 1) as i32;
            delta.bump(idx, w.andnot(W::mask(0)), sign);
        }
    }
}

/// One column's per-lane counts, as streamed by
/// [`TapeActivity::for_each_net_count`]: on almost every column no lane
/// deviates from lane 0, so the counts collapse to one shared value and
/// nothing is materialized.
#[derive(Debug, Clone, Copy)]
pub enum LaneCounts<'a> {
    /// Every lane has this exact count.
    Uniform(u64),
    /// Per-lane counts, indexed by lane.
    PerLane(&'a [u64]),
}

impl LaneCounts<'_> {
    /// The count for `lane`.
    ///
    /// # Panics
    ///
    /// Panics if a [`LaneCounts::PerLane`] column is indexed out of
    /// range.
    pub fn get(&self, lane: usize) -> u64 {
        match *self {
            LaneCounts::Uniform(c) => c,
            LaneCounts::PerLane(counts) => counts[lane],
        }
    }
}

/// One column's per-lane counts: [`LaneCounts::Uniform`] when the
/// column owns no deviation row, streamed without touching `counts`,
/// else `base + delta` per lane, written into the `counts` scratch
/// buffer.
fn column_counts<'a>(base: u64, row: Option<&[i32]>, counts: &'a mut [u64]) -> LaneCounts<'a> {
    let Some(row) = row else {
        return LaneCounts::Uniform(base);
    };
    // A lane's count never undershoots zero: `neg` events only occur on
    // edges lane 0 actually toggled.
    for (c, &d) in counts.iter_mut().zip(row) {
        *c = base.wrapping_add_signed(i64::from(d));
    }
    LaneCounts::PerLane(counts)
}

impl<W: TapeWord> TapeActivity<W> {
    fn new(prog: &TapeProgram<W>) -> Self {
        let lanes = prog.lanes();
        let n_seq = prog.seq.len();
        TapeActivity {
            lanes,
            net_base: vec![0; prog.n_nets],
            net_delta: DeltaRows::new(prog.n_nets, lanes),
            clock_base: vec![0; n_seq],
            clock_delta: DeltaRows::new(n_seq, lanes),
            clock_col: prog
                .state_slot
                .iter()
                .map(|&slot| match slot {
                    NO_ROW => NO_ROW,
                    // State slots follow the net slots in
                    // sequential-gate order, like the clock columns.
                    slot => slot - prog.n_nets as u32,
                })
                .collect(),
            cycles: 0,
            _word: std::marker::PhantomData,
        }
    }

    /// Restarts every counter from zero in place, keeping the buffers.
    fn reset(&mut self) {
        self.net_base.fill(0);
        self.net_delta.reset();
        self.clock_base.fill(0);
        self.clock_delta.reset();
        self.cycles = 0;
    }

    /// Number of lanes tracked (fault count + 1; lane 0 is fault-free).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of simulated cycles (identical across lanes).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Net columns where some lane deviated from lane 0 since the last
    /// reset — the columns the delta sweep actually materialized.
    /// `dirty_net_columns() / net_columns()` is the density the sparse
    /// representation exploits (diagnostic).
    pub fn dirty_net_columns(&self) -> usize {
        self.net_delta.rows()
    }

    /// Total net columns tracked (the sparsity denominator).
    pub fn net_columns(&self) -> usize {
        self.net_base.len()
    }

    /// Extracts one lane's counters as a scalar [`Activity`] record —
    /// bit-identical to what a scalar simulation of that lane's circuit
    /// would have accumulated. Returns `None` if `lane` is out of range.
    pub fn try_lane(&self, lane: usize) -> Option<Activity> {
        if lane >= self.lanes {
            return None;
        }
        let read = |base: u64, row: Option<&[i32]>| match row {
            Some(row) => base.wrapping_add_signed(i64::from(row[lane])),
            None => base,
        };
        Some(Activity {
            net_toggles: self
                .net_base
                .iter()
                .enumerate()
                .map(|(i, &b)| read(b, self.net_delta.get(i)))
                .collect(),
            clock_events: self
                .clock_col
                .iter()
                .map(|&col| match col {
                    NO_ROW => 0,
                    col => read(
                        self.clock_base[col as usize],
                        self.clock_delta.get(col as usize),
                    ),
                })
                .collect(),
            cycles: self.cycles,
        })
    }

    /// Streams the exact per-lane toggle counts of every net, in net-id
    /// order: `f(net_index, counts)` with `counts.get(lane)` the same
    /// value [`try_lane`](Self::try_lane) would report. One pass over
    /// the delta rows — the fast path for whole-pack consumers
    /// (per-lane power) that would otherwise extract `lanes` full
    /// [`Activity`] records.
    pub fn for_each_net_count(&self, mut f: impl FnMut(usize, LaneCounts<'_>)) {
        let mut counts = vec![0u64; self.lanes];
        for (i, &base) in self.net_base.iter().enumerate() {
            f(i, column_counts(base, self.net_delta.get(i), &mut counts));
        }
    }

    /// Streams the exact per-lane clock-event counts of every gate, in
    /// gate-index order (combinational gates report zero for all
    /// lanes). See [`for_each_net_count`](Self::for_each_net_count).
    pub fn for_each_clock_count(&self, mut f: impl FnMut(usize, LaneCounts<'_>)) {
        let mut counts = vec![0u64; self.lanes];
        for (g, &col) in self.clock_col.iter().enumerate() {
            match col {
                NO_ROW => f(g, LaneCounts::Uniform(0)),
                col => {
                    let col = col as usize;
                    let base = self.clock_base[col];
                    f(
                        g,
                        column_counts(base, self.clock_delta.get(col), &mut counts),
                    );
                }
            }
        }
    }

    /// Extracts one lane's counters as a scalar [`Activity`] record.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`; use
    /// [`try_lane`](Self::try_lane) for a fallible read.
    pub fn lane(&self, lane: usize) -> Activity {
        match self.try_lane(lane) {
            Some(a) => a,
            None => panic!(
                "TapeActivity lane index {lane} out of range: this pack tracks {} lanes \
                 (lane 0 fault-free, one per fault)",
                self.lanes
            ),
        }
    }
}

/// The tape evaluator: runs a [`TapeProgram`] cycle by cycle with zero
/// per-cycle allocation.
///
/// The call discipline mirrors [`crate::CycleSim`]: set inputs,
/// [`eval`](Self::eval), read values/masks, [`clock`](Self::clock).
#[derive(Debug, Clone)]
pub struct TapeSim<'p, W: TapeWord> {
    prog: &'p TapeProgram<W>,
    /// The flat value array: net slots, then sequential state slots,
    /// then forced-operand scratch slots.
    slots: Vec<Pat<W>>,
    /// Previous cycle's settled net values (for toggle accounting),
    /// split into separate `lo`/`hi` planes so the toggle sweep streams
    /// same-field data contiguously instead of shuffling interleaved
    /// `Pat` pairs.
    prev_lo: Vec<W>,
    /// `hi` plane of the previous-cycle snapshot.
    prev_hi: Vec<W>,
    have_prev: bool,
    /// Per-net scratch holding each net's deviation word for the edge:
    /// lanes that disagreed with lane 0 about toggling, with the sign
    /// packed into (otherwise always-clear) bit 0. Filled branch-free
    /// each edge, drained sparsely into the delta rows.
    dev_scratch: Vec<W>,
    /// One bit per net, set when that net's `dev_scratch` word is
    /// nonzero, maintained by the toggle sweep so the drain walks
    /// straight to deviating columns without re-reading clean ones.
    dev_sel: Vec<u64>,
    activity: Option<TapeActivity<W>>,
}

impl<'p, W: TapeWord> TapeSim<'p, W> {
    /// Creates an evaluator over a compiled program.
    pub fn new(prog: &'p TapeProgram<W>) -> Self {
        TapeSim {
            prog,
            slots: vec![Pat::all_x(); prog.n_slots],
            prev_lo: vec![W::ZERO; prog.n_nets],
            prev_hi: vec![W::ZERO; prog.n_nets],
            have_prev: false,
            dev_scratch: vec![W::ZERO; prog.n_nets],
            dev_sel: vec![0; prog.n_nets.div_ceil(64)],
            activity: None,
        }
    }

    /// The program being evaluated.
    pub fn program(&self) -> &'p TapeProgram<W> {
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

    /// Mask covering every live lane, including lane 0.
    fn live_lanes_mask(&self) -> W {
        W::low_mask(self.prog.faults.len() + 1)
    }

    /// Enables per-lane switching-activity accounting (off by default).
    /// Enabling (re-)starts the counters from zero; an already-tracking
    /// sim resets in place, reusing its counter buffers — the cheap path
    /// for Monte Carlo loops that run many batches over one sim.
    pub fn track_activity(&mut self, on: bool) {
        match (on, self.activity.as_mut()) {
            (true, Some(a)) => a.reset(),
            (true, None) => self.activity = Some(TapeActivity::new(self.prog)),
            (false, _) => self.activity = None,
        }
        self.have_prev = false;
    }

    /// The accumulated per-lane activity, if tracking is enabled.
    pub fn activity(&self) -> Option<&TapeActivity<W>> {
        self.activity.as_ref()
    }

    /// Extracts one lane's accumulated [`Activity`], or `None` when
    /// tracking is disabled or `lane` is out of range.
    pub fn try_lane_activity(&self, lane: usize) -> Option<Activity> {
        self.activity.as_ref().and_then(|a| a.try_lane(lane))
    }

    /// Extracts one lane's accumulated [`Activity`].
    ///
    /// # Panics
    ///
    /// Panics if tracking is disabled or `lane` is out of range.
    pub fn lane_activity(&self, lane: usize) -> Activity {
        self.activity
            .as_ref()
            .expect(
                "activity tracking not enabled: call track_activity(true) before simulating \
                 to accumulate per-lane toggle counts",
            )
            .lane(lane)
    }

    /// Resets all sequential state in all lanes, discarding the
    /// previous-cycle toggle baseline (accumulated counts survive).
    pub fn reset_state(&mut self, v: Logic) {
        let s = Pat::splat(v);
        for op in &self.prog.seq {
            let slot = match *op {
                SeqOp::Dff { state, .. } | SeqOp::Dffe { state, .. } => state,
            };
            self.slots[slot as usize] = s;
        }
        self.have_prev = false;
    }

    /// Overwrites one sequential gate's stored state (all lanes) — used
    /// by system-level reset to load a specific controller state code
    /// while preserving the inter-run toggle edge.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not sequential.
    pub fn set_gate_state(&mut self, gate: GateId, v: Pat<W>) {
        let slot = self.prog.state_slot[gate.index()];
        assert!(slot != u32::MAX, "{gate} is not a sequential gate");
        self.slots[slot as usize] = v;
    }

    /// Reads one sequential gate's stored state lanes.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not sequential.
    pub fn gate_state(&self, gate: GateId) -> Pat<W> {
        let slot = self.prog.state_slot[gate.index()];
        assert!(slot != u32::MAX, "{gate} is not a sequential gate");
        self.slots[slot as usize]
    }

    /// Applies the same value to a primary input across all lanes.
    pub fn set_input(&mut self, net: NetId, v: Logic) {
        self.slots[net.index()] = Pat::splat(v);
    }

    /// Applies the same values to all primary inputs across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `vals` length differs from the number of primary inputs.
    pub fn set_inputs(&mut self, vals: &[Logic]) {
        assert_eq!(vals.len(), self.prog.inputs.len(), "input width mismatch");
        for (&slot, &v) in self.prog.inputs.iter().zip(vals) {
            self.slots[slot as usize] = Pat::splat(v);
        }
    }

    /// Lane-vector value of a net (valid after [`TapeSim::eval`]).
    pub fn value(&self, net: NetId) -> Pat<W> {
        self.slots[net.index()]
    }

    /// Settles all combinational logic: one pass over the flat tape.
    pub fn eval(&mut self) {
        let slots = &mut self.slots;
        let masks = &self.prog.masks;
        let vals = &self.prog.vals;
        for op in &self.prog.ops {
            match *op {
                TapeOp::Const0 { dst } => slots[dst as usize] = Pat::splat(Logic::Zero),
                TapeOp::Const1 { dst } => slots[dst as usize] = Pat::splat(Logic::One),
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
                        Pat::mux(slots[a as usize], slots[b as usize], slots[sel as usize]);
                }
                TapeOp::Force { dst, src, f } => {
                    slots[dst as usize] =
                        slots[src as usize].force(masks[f as usize], vals[f as usize]);
                }
            }
        }
    }

    /// Advances sequential state one clock edge in all lanes, recording
    /// activity when tracking is enabled. Per cycle and per lane the
    /// accounting matches the scalar [`crate::CycleSim::clock`] exactly.
    pub fn clock(&mut self) {
        let live = self.live_lanes_mask();
        let mut act = self.activity.take();
        if let Some(a) = act.as_mut() {
            if self.have_prev {
                // Delta accumulation, two passes. Pass A is branch-free
                // (no data-dependent control flow at all, so it
                // auto-vectorizes): lane 0's toggle is a scalar
                // increment, and the lanes *disagreeing* with lane 0
                // land in one per-net scratch word,
                // `d = toggled ^ (live & splat(toggled₀))` — when
                // lane 0 held, `d` is the lanes that toggled anyway;
                // when lane 0 toggled, `d` is the live lanes that held.
                // Bit 0 of the scratch word is always clear (lane 0
                // never disagrees with itself), so it carries the sign,
                // set only when `d` is nonzero to keep clean columns
                // all-zero. The previous-cycle snapshot is refreshed
                // and each column's nonzero flag is folded into a
                // selection bitmap in the same sweep while the scratch
                // word is still in a register, so pass B walks straight
                // to the deviating columns and never touches a clean
                // one.
                let nets = self.prog.n_nets;
                let bit0 = W::mask(0);
                let slots = &self.slots[..nets];
                let prev_lo = &mut self.prev_lo[..nets];
                let prev_hi = &mut self.prev_hi[..nets];
                let base = &mut a.net_base[..nets];
                let dev = &mut self.dev_scratch[..nets];
                // The per-net body, returning the scratch word's
                // nonzero flag to fold into the selection bitmap.
                // Split into full 8-net chunks plus a remainder so the
                // hot inner loop has a constant trip count the
                // compiler can unroll and vectorize.
                macro_rules! sweep_net {
                    ($i:expr) => {{
                        let i = $i;
                        let cur = slots[i];
                        let toggled = prev_lo[i].and(cur.hi).or(prev_hi[i].and(cur.lo)).and(live);
                        prev_lo[i] = cur.lo;
                        prev_hi[i] = cur.hi;
                        base[i] += u64::from(toggled.bit(0));
                        let d = toggled.xor(live.and(toggled.lane0_splat()));
                        let w = d.or(toggled.and(bit0).and(d.nonzero_splat()));
                        dev[i] = w;
                        w.any01()
                    }};
                }
                let full = nets / 8;
                let sel = &mut self.dev_sel[..nets.div_ceil(64)];
                sel.fill(0);
                for blk in 0..full {
                    let start = blk * 8;
                    let mut mask = 0u64;
                    for j in 0..8 {
                        mask |= sweep_net!(start + j) << j;
                    }
                    // 8-net chunks at 8-aligned offsets never straddle
                    // a 64-bit selection word.
                    sel[start >> 6] |= mask << (start & 63);
                }
                if nets % 8 != 0 {
                    let start = full * 8;
                    let mut mask = 0u64;
                    for (j, i) in (start..nets).enumerate() {
                        mask |= sweep_net!(i) << j;
                    }
                    sel[start >> 6] |= mask << (start & 63);
                }
                // Pass B drains the scratch into the delta rows,
                // walking the selection bitmap straight to the
                // deviating columns.
                drain_deviations(&self.dev_sel, &self.dev_scratch, &mut a.net_delta);
            } else {
                for ((plo, phi), cur) in self
                    .prev_lo
                    .iter_mut()
                    .zip(self.prev_hi.iter_mut())
                    .zip(&self.slots[..self.prog.n_nets])
                {
                    *plo = cur.lo;
                    *phi = cur.hi;
                }
            }
            self.have_prev = true;
            // The i32 delta rows hold any deviation up to the tracked
            // cycle count; refuse to run past their range rather than
            // silently wrap.
            assert!(
                a.cycles < i32::MAX as u64,
                "activity tracking is limited to i32::MAX cycles per reset"
            );
            a.cycles += 1;
        }
        for op in &self.prog.seq {
            match *op {
                SeqOp::Dff { state, d, col } => {
                    self.slots[state as usize] = self.slots[d as usize];
                    if let Some(a) = act.as_mut() {
                        // Every live lane clocks — no delta against
                        // lane 0, just the scalar base count.
                        a.clock_base[col as usize] += 1;
                    }
                }
                SeqOp::Dffe { state, d, en, col } => {
                    let d = self.slots[d as usize];
                    let en = self.slots[en as usize];
                    let cur = self.slots[state as usize];
                    let agree_lo = d.lo.and(cur.lo);
                    let agree_hi = d.hi.and(cur.hi);
                    let x_en = en.lo.or(en.hi).not();
                    self.slots[state as usize] = Pat {
                        lo: en.hi.and(d.lo).or(en.lo.and(cur.lo)).or(x_en.and(agree_lo)),
                        hi: en.hi.and(d.hi).or(en.lo.and(cur.hi)).or(x_en.and(agree_hi)),
                    };
                    if let Some(a) = act.as_mut() {
                        let enabled = en.hi.and(live);
                        let col = col as usize;
                        let e0 = enabled.lane0_splat();
                        a.clock_base[col] += u64::from(enabled.bit(0));
                        let pos = enabled.andnot(e0);
                        let neg = live.and(e0).andnot(enabled);
                        if !pos.is_zero() {
                            a.clock_delta.bump(col, pos, 1);
                        }
                        if !neg.is_zero() {
                            a.clock_delta.bump(col, neg, -1);
                        }
                    }
                }
            }
        }
        self.activity = act;
    }

    /// Mask of fault lanes whose primary outputs *definitely* differ
    /// from lane 0 in the current cycle. Bit `i+1` corresponds to
    /// `self.faults()[i]`.
    pub fn detected_mask(&self) -> W {
        let mut mask = W::ZERO;
        for &o in &self.prog.outputs {
            let v = self.slots[o as usize];
            let golden = Pat::splat(v.lane(0));
            mask = mask.or(v.definitely_differs(golden));
        }
        mask.andnot(W::mask(0))
    }

    /// Mask of fault lanes where some primary output is known in lane 0
    /// but unknown in the fault lane (the "potentially detected"
    /// GENTEST outcome).
    pub fn potentially_detected_mask(&self) -> W {
        let mut mask = W::ZERO;
        for &o in &self.prog.outputs {
            let v = self.slots[o as usize];
            if v.lane(0).is_known() {
                mask = mask.or(v.known().not());
            }
        }
        mask.andnot(W::mask(0))
            .and(W::low_mask(self.prog.faults.len() + 1))
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
    fn lane_masks_and_bits() {
        for lane in [0usize, 1, 17, 63] {
            let m = <u64 as TapeWord>::mask(lane);
            assert!(m.bit(lane));
            assert_eq!(m.and(m.not()), 0);
        }
        assert_eq!(<u64 as TapeWord>::low_mask(0), 0);
        assert_eq!(<u64 as TapeWord>::low_mask(64), !0);
        assert_eq!(<u64 as TapeWord>::low_mask(3), 0b111);
    }

    #[test]
    fn pat_ops_match_scalar_logic() {
        let lane = 17;
        let vals = [Zero, One, X];
        for &a in &vals {
            for &b in &vals {
                let va = Pat::<u64>::all_x().with_lane(lane, a);
                let vb = Pat::<u64>::all_x().with_lane(lane, b);
                assert_eq!(va.and(vb).lane(lane), a & b, "and {a} {b}");
                assert_eq!(va.or(vb).lane(lane), a | b, "or {a} {b}");
                assert_eq!(va.xor(vb).lane(lane), a ^ b, "xor {a} {b}");
                assert_eq!(va.not().lane(lane), !a, "not {a}");
                for &s in &vals {
                    let vs = Pat::<u64>::splat(s);
                    let expect = CellKind::Mux2.eval(&[a, b, s]);
                    assert_eq!(
                        Pat::mux(Pat::splat(a), Pat::splat(b), vs).lane(lane),
                        expect,
                        "mux {a} {b} {s}"
                    );
                }
            }
        }
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

    #[test]
    fn tape_lanes_agree_with_scalar_simulation() {
        let nl = build();
        // Pack the collapsed fault list several times over to fill
        // lanes up to bit 63.
        let base = StuckAt::enumerate_collapsed(&nl);
        let faults: Vec<StuckAt> = base
            .iter()
            .cycle()
            .take(MAX_PARALLEL_FAULTS)
            .copied()
            .collect();
        let prog = TapeProgram::<u64>::compile(&nl, &faults).expect("fits");
        let mut tape = TapeSim::new(&prog);
        tape.track_activity(true);
        tape.reset_state(Zero);
        let mut scalars: Vec<CycleSim> = std::iter::once(CycleSim::new(&nl))
            .chain(faults.iter().map(|&f| CycleSim::with_fault(&nl, f)))
            .map(|mut s| {
                s.track_activity(true);
                s.reset_state(Zero);
                s
            })
            .collect();
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
                    assert_eq!(tape.detected_mask().bit(lane), det, "lane {lane}");
                    assert_eq!(
                        tape.potentially_detected_mask().bit(lane),
                        pot,
                        "lane {lane}"
                    );
                }
                s.clock();
            }
            tape.clock();
        }
        for (lane, s) in scalars.iter().enumerate() {
            let got = tape.lane_activity(lane);
            let want = s.activity();
            assert_eq!(got.cycles, want.cycles, "lane {lane}");
            assert_eq!(&got.net_toggles, &want.net_toggles, "lane {lane}");
            assert_eq!(&got.clock_events, &want.clock_events, "lane {lane}");
        }
    }

    /// Restarts `tape`'s counters, runs `stim` from reset on it and on
    /// one fresh scalar simulator per lane, and checks every lane's net
    /// toggles and clock events through both the per-lane and the
    /// streaming readers. Returns how many lanes clocked some gate a
    /// different number of times than lane 0.
    fn check_tracked_segment(
        nl: &Netlist,
        faults: &[StuckAt],
        tape: &mut TapeSim<'_, u64>,
        stim: &[[Logic; 2]],
    ) -> usize {
        tape.track_activity(true);
        tape.reset_state(Zero);
        let mut scalars: Vec<CycleSim> = std::iter::once(CycleSim::new(nl))
            .chain(faults.iter().map(|&f| CycleSim::with_fault(nl, f)))
            .map(|mut s| {
                s.track_activity(true);
                s.reset_state(Zero);
                s
            })
            .collect();
        for inputs in stim {
            tape.set_inputs(inputs);
            tape.eval();
            tape.clock();
            for s in scalars.iter_mut() {
                s.set_inputs(inputs);
                s.eval();
                s.clock();
            }
        }
        let act = tape.activity().expect("tracking");
        for (lane, s) in scalars.iter().enumerate() {
            let got = act.lane(lane);
            assert_eq!(got.cycles, s.activity().cycles, "lane {lane}");
            assert_eq!(got.net_toggles, s.activity().net_toggles, "lane {lane}");
            assert_eq!(got.clock_events, s.activity().clock_events, "lane {lane}");
        }
        act.for_each_net_count(|net, counts| {
            for (lane, s) in scalars.iter().enumerate() {
                assert_eq!(counts.get(lane), s.activity().net_toggles[net], "net {net}");
            }
        });
        act.for_each_clock_count(|gate, counts| {
            for (lane, s) in scalars.iter().enumerate() {
                assert_eq!(
                    counts.get(lane),
                    s.activity().clock_events[gate],
                    "gate {gate}"
                );
            }
        });
        let lane0 = &scalars[0].activity().clock_events;
        scalars
            .iter()
            .filter(|s| &s.activity().clock_events != lane0)
            .count()
    }

    #[test]
    fn reused_counters_restart_exactly_between_tracked_segments() {
        // An enabled register, a plain register and some logic around
        // them. Faults on the enable pin make the enable differ by
        // lane, so the clock counters deviate from lane 0.
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

        // A busy first segment allocates many deviation rows; the
        // shorter, quieter second one must not see any of them.
        let busy = [
            [One, One],
            [Zero, One],
            [One, Zero],
            [X, One],
            [Zero, X],
            [One, One],
            [Zero, Zero],
            [One, X],
        ];
        let quiet = [[Zero, Zero], [Zero, One], [Zero, Zero]];
        let deviating = check_tracked_segment(&nl, &faults, &mut tape, &busy);
        assert!(
            deviating > 0,
            "some lane's enable must differ from lane 0's"
        );
        let busy_rows = tape.activity().expect("tracking").dirty_net_columns();
        check_tracked_segment(&nl, &faults, &mut tape, &quiet);
        let quiet_rows = tape.activity().expect("tracking").dirty_net_columns();
        assert!(quiet_rows < busy_rows, "{quiet_rows} vs {busy_rows} rows");
        check_tracked_segment(&nl, &faults, &mut tape, &busy);
        assert_eq!(
            tape.activity().expect("tracking").dirty_net_columns(),
            busy_rows,
            "a repeated segment allocates the same rows"
        );
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
        let prog = TapeProgram::<u64>::compile(&nl, &faults).expect("fits");
        let mut sim = TapeSim::new(&prog);
        sim.set_inputs(&[Zero]);
        sim.eval();
        // Fault-free output is 1, so only the s-a-0 lane differs.
        assert_eq!(sim.detected_mask(), 0b01 << 1);
    }
}

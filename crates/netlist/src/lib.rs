//! Gate-level netlist substrate for the `sfr-power` workspace.
//!
//! This crate provides everything the reproduction of *“Detecting
//! Undetectable Controller Faults Using Power Analysis”* (Carletta,
//! Papachristou, Nourani — DATE 2000) needs at the gate level:
//!
//! * a small 0.8 µm-class [standard-cell library](CellKind) with
//!   documented pin capacitances, including the clock-gated register bit
//!   [`CellKind::Dffe`] that is central to the paper's power argument;
//! * a validated [`Netlist`] graph with topological evaluation order;
//! * the [single stuck-at fault model](StuckAt) with classic equivalence
//!   collapsing;
//! * a three-valued [cycle simulator](CycleSim) with fault injection and
//!   switching-[`Activity`] accounting for toggle-count power estimation
//!   — the scalar reference;
//! * a compiled 64-lane [op-tape simulator](TapeSim) (lane 0 fault-free,
//!   one fault per further lane) that is exact for sequential circuits
//!   and bit-identical, lane for lane, to the scalar reference: on
//!   three-valued [`Pat`] lanes for any stimulus, and on two-valued
//!   `u64` lanes — the only ones that sum switching energy
//!   ([`TapeEnergy`]) — for stimulus that never produces `X`.
//!
//! # Example
//!
//! ```
//! use sfr_netlist::{CellKind, CycleSim, Logic, NetlistBuilder, StuckAt};
//!
//! # fn main() -> Result<(), sfr_netlist::NetlistError> {
//! // A 1-bit clock-gated register.
//! let mut b = NetlistBuilder::new("bit");
//! let d = b.input("d");
//! let en = b.input("en");
//! let q = b.net("q");
//! b.gate(CellKind::Dffe, "r", &[d, en], q);
//! b.mark_output(q);
//! let nl = b.finish()?;
//!
//! // Fault-free: enable low, the register holds.
//! let mut sim = CycleSim::new(&nl);
//! sim.reset_state(Logic::Zero);
//! sim.step(&[Logic::One, Logic::Zero]);
//! sim.eval();
//! assert_eq!(sim.outputs(), vec![Logic::Zero]);
//!
//! // Enable stuck at 1: the register loads anyway — the archetypal
//! // "extra load" control line effect of the paper.
//! let r = nl.sequential_gates()[0];
//! let mut faulty = CycleSim::with_fault(&nl, StuckAt::input(r, 1, true));
//! faulty.reset_state(Logic::Zero);
//! faulty.step(&[Logic::One, Logic::Zero]);
//! faulty.eval();
//! assert_eq!(faulty.outputs(), vec![Logic::One]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod atpg;
mod cell;
mod collapse;
mod fault;
mod graph;
mod logic;
mod sim;
mod stats;
mod tape;
mod vcd;
mod verilog;

pub use atpg::{Atpg, TestOutcome};
pub use cell::{CellKind, ALL_CELL_KINDS};
pub use collapse::FaultClasses;
pub use fault::{FaultSite, StuckAt};
pub use graph::{
    Gate, GateId, Net, NetId, Netlist, NetlistBuilder, NetlistError, WIRE_CAP_BASE_FF,
    WIRE_CAP_PER_FANOUT_FF,
};
pub use logic::{logic_to_u64, u64_to_logic, Logic};
pub use sim::{Activity, ActivityMismatch, CycleSim};
pub use stats::{critical_path, NetlistStats};
pub use tape::{
    LaneValue, Pat, TapeEnergy, TapeProgram, TapeSim, TooManyFaultsError, MAX_PARALLEL_FAULTS,
};
pub use vcd::VcdRecorder;
pub use verilog::{write_cell_library, write_verilog};

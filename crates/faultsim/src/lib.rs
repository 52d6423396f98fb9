//! Integrated controller–datapath fault simulation.
//!
//! Builds the paper's test object — one gate-level netlist containing a
//! synthesized FSM controller and an elaborated datapath, observable
//! only at the datapath's data outputs ([`System`]) — and runs stuck-at
//! fault campaigns over the controller's fault universe against a
//! fault-free [`GoldenTrace`]. Both the scalar reference
//! ([`run_serial`]) and the exact 63-fault-per-word compiled tape
//! ([`run_tape_counted`]) are provided; the "potentially detected"
//! three-valued verdict of the paper's GENTEST simulator is reproduced
//! faithfully (see [`Detection::Potential`]).
//!
//! # Example
//!
//! ```
//! use sfr_faultsim::{golden_trace, run_tape_counted, RunConfig, System, SystemConfig};
//! use sfr_hls::{emit, BindingBuilder, DesignBuilder, Rhs};
//! use sfr_rtl::FuOp;
//! use sfr_tpg::TestSet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-step design: sample a; sum = a + b.
//! let mut d = DesignBuilder::new("sum", 4, 2);
//! let pa = d.port("a");
//! let pb = d.port("b");
//! let va = d.var("va");
//! let vs = d.var("sum");
//! d.sample(1, va, Rhs::Port(pa));
//! let add = d.compute(2, vs, FuOp::Add, Rhs::Var(va), Rhs::Port(pb));
//! d.output("sum_out", vs);
//! let design = d.finish()?;
//! let mut b = BindingBuilder::new(&design);
//! b.bind(va, "R1").bind(vs, "R2").bind_op(add, "ADD1");
//! let emitted = emit(&design, &b.finish()?)?;
//!
//! let sys = System::build(&emitted, SystemConfig::default())?;
//! let ts = TestSet::pseudorandom(sys.pattern_width(), 100, 0xACE1)?;
//! let golden = golden_trace(&sys, &ts, &RunConfig::default());
//! let (outcomes, _cycles) = run_tape_counted(&sys, &golden, &sys.controller_faults());
//! let detected = outcomes.iter().filter(|o| o.detection.is_detected()).count();
//! assert!(detected > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod campaign;
mod engine;
pub mod fixtures;
mod golden;
mod system;

pub use campaign::{run_serial, run_tape_counted, CampaignOutcome, Detection};
pub use engine::{
    run_campaign, run_campaign_quarantined, run_with, Engine, EngineKind, QuarantinedChunk,
    SerialEngine, SimKernel, TapeEngine,
};
pub use golden::{
    golden_trace, symbolic_step, GoldenTrace, RunConfig, RunSpec, SymbolicGolden, SymbolicPath,
    SymbolicRow, HOLD_OBSERVE_CYCLES, LOOP_DEPTHS,
};
pub use system::{System, SystemConfig};

//! Toggle-count dynamic power estimation.
//!
//! The paper's detection mechanism is analog: system-functionally
//! redundant controller faults change the datapath's *dynamic power*.
//! This crate converts the switching [`sfr_netlist::Activity`] recorded by
//! gate-level simulation into average power (`P = ½·Vdd²·f·ΣCᵢαᵢ`,
//! [`power_from_activity`]) and provides the Monte Carlo loop
//! ([`run_monte_carlo`]) the paper uses to average power over random data
//! until convergence.
//!
//! Two energy terms are tracked separately:
//!
//! * **switching** — net toggles weighted by each net's switched
//!   capacitance (driver diffusion + fanout gate pins + wire estimate);
//! * **clock** — internal clock energy of sequential cells. Gated
//!   registers ([`sfr_netlist::CellKind::Dffe`]) only pay this when
//!   enabled, which is exactly the energy an SFR extra-load fault un-gates.
//!
//! # Example
//!
//! ```
//! use sfr_netlist::{CellKind, CycleSim, Logic, NetlistBuilder};
//! use sfr_power_model::{power_from_activity, PowerConfig};
//!
//! # fn main() -> Result<(), sfr_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("bit");
//! let d = b.input("d");
//! let en = b.input("en");
//! let q = b.net("q");
//! b.gate(CellKind::Dffe, "r", &[d, en], q);
//! b.mark_output(q);
//! let nl = b.finish()?;
//!
//! let mut sim = CycleSim::new(&nl);
//! sim.track_activity(true);
//! sim.reset_state(Logic::Zero);
//! for i in 0..100 {
//!     sim.step(&[Logic::from_bool(i % 2 == 0), Logic::One]);
//! }
//! let p = power_from_activity(&nl, sim.activity(), &PowerConfig::default());
//! assert!(p.total_uw > 0.0);
//! assert!(p.clock_uw > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod energy;
mod montecarlo;
mod variation;

pub use energy::{
    power_from_activity, power_from_activity_where, power_from_tape_energy, EnergyWeights,
    PowerConfig, PowerReport,
};
pub use montecarlo::{run_monte_carlo, run_monte_carlo_lanes, MonteCarloConfig, MonteCarloResult};
pub use variation::{PowerPopulation, VariationModel};

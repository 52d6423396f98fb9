//! `sfr-power` — detecting undetectable controller faults using power
//! analysis.
//!
//! This is the workspace facade crate: it re-exports everything from
//! [`sfr_core`], which implements the full methodology of *“Detecting
//! Undetectable Controller Faults Using Power Analysis”* (Carletta,
//! Papachristou, Nourani — DATE 2000). See the crate documentation of
//! [`sfr_core`] and the repository's `README.md` / `DESIGN.md` /
//! `EXPERIMENTS.md` for the full story, and `examples/` for runnable
//! entry points.
//!
//! ```
//! use sfr_power::{benchmarks, classify_system, ClassifyConfig, System, SystemConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let emitted = benchmarks::facet(4)?;
//! let sys = System::build(&emitted, SystemConfig::default())?;
//! let cfg = ClassifyConfig { test_patterns: 200, ..Default::default() };
//! let classes = classify_system(&sys, &cfg);
//! assert!(classes.sfr_count() > 0, "some faults are undetectable by I/O test");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub use sfr_core::*;

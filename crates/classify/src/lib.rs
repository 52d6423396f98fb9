//! Controller fault taxonomy and power-based detection — the paper's
//! primary contribution.
//!
//! Stuck-at faults inside the controller of an integrated
//! controller–datapath pair fall into three classes (paper Figure 2):
//! **CFR** (never change the controller's behaviour), **SFI** (change the
//! pair's I/O behaviour for some data — catchable by an integrated
//! test), and **SFR** — faults that change control lines yet never the
//! system's I/O behaviour. SFR faults are undetectable by *any*
//! output-comparison test; their signature is analog: a change in
//! dynamic power.
//!
//! This crate implements:
//!
//! * the four-step classification methodology
//!   ([`classify_system`]) — fault simulation, "potentially detected"
//!   resolution, exhaustive controller-table analysis
//!   ([`analyze_controller_fault`]) and a symbolic input–output
//!   equivalence [oracle](judge);
//! * the Section 3 structural [rule engine](judge_by_rules) over
//!   [control line effects](ControlLineEffect) (active/inactive selects,
//!   skipped/extra loads, lifespan disruption);
//! * power [grading](grade_faults_journaled_with_kernel) of SFR faults
//!   by Monte Carlo simulation with a tolerance-band detector (the
//!   paper's ±5%).
//!
//! # Example
//!
//! ```
//! use sfr_classify::{classify_system, ClassifyConfig};
//! use sfr_faultsim::{System, SystemConfig};
//! use sfr_hls::{emit, BindingBuilder, DesignBuilder, Rhs};
//! use sfr_rtl::FuOp;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
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
//! let sys = System::build(&emit(&design, &b.finish()?)?, SystemConfig::default())?;
//!
//! let cfg = ClassifyConfig { test_patterns: 200, ..Default::default() };
//! let c = classify_system(&sys, &cfg);
//! assert_eq!(c.total(), sys.controller_faults().len());
//! assert_eq!(c.cfr_count() + c.sfr_count() + c.sfi_count(), c.total());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod grade;
mod oracle;
mod pipeline;
mod rules;
mod table;

pub use grade::{
    grade_faults_journaled_with_kernel, grade_faults_scalar_with, grade_pack_capacity,
    grade_pack_count, grade_pack_slice, measure_activity_with_testset, measure_power_monte_carlo,
    measure_power_tape_watched, measure_power_with_testset, GradeConfig, GradeIncident,
    GradeReport, PowerGrade,
};
pub use oracle::{judge, Mismatch, Verdict};
pub use pipeline::{
    classify_system, classify_system_collapsed, classify_system_journaled, classify_system_with,
    collapse_grading_set, static_rule_label, Classification, ClassifiedFault, ClassifyConfig,
    FaultClass, SfiReason,
};
pub use rules::{classify_effect, judge_by_rules, EffectClass, RuleVerdict};
pub use sfr_faultsim::{HOLD_OBSERVE_CYCLES, LOOP_DEPTHS};
pub use table::{analyze_controller_fault, ControlLineEffect, ControllerBehavior};

//! Simulation-free structural analysis of controller–datapath systems.
//!
//! Two capabilities, one crate:
//!
//! * **Static fault pruning** — prove controller stuck-at faults
//!   controller-functionally redundant without simulation, via fanout
//!   cone-of-influence analysis ([`cone_is_dead`]) and ternary constant
//!   propagation from the enumerated FSM state encodings
//!   ([`controller_net_constants`]). The campaign pre-pass
//!   (`ClassifyConfig::static_prune` in `sfr-classify`) builds on these
//!   proofs; pruned campaigns are bit-identical to unpruned ones.
//! * **Design linting** — a rule suite over the FSM specification, the
//!   HLS schedule, and the gate-level netlist ([`lint_system`]),
//!   emitting structured [`Diagnostic`]s with rule ids, severities, and
//!   the subject each rule fired on.
//!
//! The rule catalogue is documented on [`rules`] (module docs).
//!
//! # Examples
//!
//! ```
//! use sfr_lint::{fixture_report, Severity};
//!
//! let report = fixture_report();
//! assert_eq!(report.error_count(), 1); // the unreachable state
//! assert!(report.diagnostics.iter().any(|d| d.severity == Severity::Error));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod absint;
mod cfr;
mod cone;
mod constprop;
mod diag;
mod fixture;
pub mod rules;

pub use absint::absint_cfr;
pub use cfr::{analyze_controller_static, statically_cfr, StaticAnalysis, StaticCfrReason};
pub use cone::cone_is_dead;
pub use constprop::{controller_net_constants, NetConstants};
pub use diag::{Diagnostic, LintReport, Severity};
pub use fixture::{fixture_fsm, fixture_report};
pub use rules::{lint_fsm, lint_netlist, lint_schedule, lint_system};

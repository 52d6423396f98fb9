//! `sfr-core` — the public facade of the **sfr-power** workspace: a
//! complete reproduction of *“Detecting Undetectable Controller Faults
//! Using Power Analysis”* (J. Carletta, C. A. Papachristou, M. Nourani —
//! DATE 2000).
//!
//! # The idea
//!
//! A controller–datapath pair shipped as an embedded hard core can only
//! be tested *integrated*: stimulate the data inputs, observe the data
//! outputs. Some controller stuck-at faults — the **system-functionally
//! redundant (SFR)** class — change control lines (extra register loads,
//! flipped don't-care mux selects) yet never change the pair's I/O
//! behaviour, making them undetectable by any such test *and* by IDDQ.
//! Their one observable signature is analog: they change dynamic power.
//! Extra loads un-gate register clocks and must increase power; the paper
//! detects them by comparing measured power against a fault-free
//! baseline with a tolerance band.
//!
//! # What this crate offers
//!
//! * [`StudyBuilder`] — the end-to-end flow over a benchmark as a
//!   chainable configuration: build the gate-level [`System`], run the
//!   four-step [classification](classify_system), grade every SFR
//!   fault's power — optionally sharded across worker threads with
//!   byte-identical results ([`StudyBuilder::threads`]).
//! * [`exec`] — the parallel execution substrate: selectable
//!   fault-simulation [engines](exec::Engine), the
//!   [progress](exec::Progress) observer hook, and the scoped-thread
//!   work queue itself.
//! * [`render_table1`], [`render_table2`], [`Fig7Series`] — regenerate
//!   the paper's tables and Figure 7.
//! * [`worst_case_extra_effects`] — the Section 4 experiment: the most
//!   power a maximal set of non-disruptive control line effects can
//!   waste.
//! * [`lint_system`] / [`lint_verilog`] — the `sfr-lint` structural
//!   rule suite over FSM, schedule, and netlist, plus
//!   [`StudyBuilder::static_prune`], the simulation-free fault-pruning
//!   pre-pass built on the same analyses.
//! * Re-exports of every substrate: netlist, logic synthesis, RTL, FSM
//!   synthesis, HLS, TPG, fault simulation, classification, power.
//!
//! # Quickstart
//!
//! ```
//! use sfr_core::StudyBuilder;
//!
//! # fn main() -> Result<(), sfr_core::StudyError> {
//! let study = StudyBuilder::new("poly")
//!     .test_patterns(240)
//!     .quick_monte_carlo()
//!     .threads(2)
//!     .build()?
//!     .run();
//! println!(
//!     "{}: {}/{} controller faults are SFR; {} escape the ±5% power band",
//!     study.name,
//!     study.classification.sfr_count(),
//!     study.classification.total(),
//!     study.classification.sfr_count() - study.flagged_count(),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod breakdown;
mod builder;
mod error;
pub mod exec;
mod flow;
mod report;
mod testprogram;
mod worstcase;

pub use breakdown::{measure_breakdown, ComponentPower, PowerBreakdown};
pub use builder::{check_pattern_width, PreparedStudy, StudyBuilder};
pub use error::StudyError;
pub use flow::{Incident, Study, StudyConfig};
pub use report::{
    describe_effect, render_classification_csv, render_incidents, render_table1, render_table2,
    state_label, Fig7Series,
};
pub use testprogram::{generate_test_program, TestProgram, TestProgramConfig};
pub use worstcase::{table_power, worst_case_extra_effects, DatapathHarness, WorstCase};

// The substrates, re-exported under their domain names.
pub use sfr_benchmarks as benchmarks;
pub use sfr_classify::{
    analyze_controller_fault, classify_system, classify_system_journaled, classify_system_planned,
    collapse_grading_set, grade_faults_journaled_with_kernel, grade_faults_scalar_with,
    grade_pack_capacity, grade_pack_count, grade_pack_slice, judge, judge_by_rules,
    measure_power_monte_carlo, measure_power_tape_watched, measure_power_with_testset,
    CampaignPlan, Classification, ClassifiedFault, ClassifyConfig, ControlLineEffect,
    ControllerBehavior, EffectClass, FaultClass, GradeConfig, GradeIncident, GradeReport,
    GradingSet, Mismatch, PowerGrade, RuleVerdict, SfiReason, Verdict, STATIC_RULES,
};
pub use sfr_faultsim::{
    golden_trace, run_serial, run_tape_counted, CampaignOutcome, Detection, GoldenTrace, RunConfig,
    RunSpec, System, SystemConfig,
};
pub use sfr_fsm::{EncodedFsm, Encoding, FillPolicy, FsmSpec, FsmSpecBuilder, StateId, Tri};
pub use sfr_hls::{
    emit, BindingBuilder, DesignBuilder, DesignMeta, EmittedSystem, LoopSpec, OpId, Rhs,
    ScheduledDesign, Span, VarId,
};
pub use sfr_journal::{CampaignJournal, JournalError, RecordKind};
pub use sfr_lint::{
    absint_cfr, analyze_controller_static, cone_is_dead, controller_net_constants, fixture_report,
    lint_fsm, lint_netlist, lint_schedule, lint_system, lint_verilog, statically_cfr, Diagnostic,
    LintReport, Location, NetConstants, Severity, StaticAnalysis, StaticCfrReason,
};
pub use sfr_logic::{minimize, Cover, Cube, SopMapper};
pub use sfr_netlist::{
    critical_path, logic_to_u64, parse_verilog, parse_verilog_spanned, u64_to_logic,
    write_cell_library, write_verilog, Activity, ActivityMismatch, Atpg, CellKind, CycleSim,
    FaultClasses, FaultSite, GateId, LaneCounts, LaneValue, Logic, NetId, Netlist, NetlistBuilder,
    NetlistError, NetlistStats, ParseError, Pat, SourceSpans, StuckAt, TapeActivity, TapeProgram,
    TapeSim, TestOutcome, TooManyFaultsError, VcdRecorder, MAX_PARALLEL_FAULTS,
};
pub use sfr_obs as obs;
pub use sfr_power_model::{
    power_from_activity, power_from_activity_where, power_from_tape_activity_where,
    run_monte_carlo, run_monte_carlo_lanes, MonteCarloConfig, MonteCarloResult, PowerConfig,
    PowerPopulation, PowerReport, VariationModel,
};
pub use sfr_rtl::{
    elaborate_into, ConcreteDomain, CtrlId, CtrlKind, DataSrc, Datapath, DatapathBuilder,
    DatapathSim, ElabNets, ExprId, FuOp, InputId, MuxId, RegId, SymbolicDomain,
};
pub use sfr_tpg::{Lfsr, TestSet, PAPER_PATTERNS, PAPER_SEEDS};

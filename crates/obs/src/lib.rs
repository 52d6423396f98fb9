//! # sfr-obs — campaign observability
//!
//! Structured tracing, metrics export, run manifests, and a live TTY
//! status line for SFR classification/grading campaigns. Everything
//! here is a sink on the `sfr_exec::Progress` fan-out, and every count
//! these sinks report comes from one tally, `sfr_exec::Counters`:
//!
//! * [`TraceWriter`] — JSONL structured trace (`--trace-out`): span
//!   begin/end per pipeline phase, one record per grading pack /
//!   fault-sim chunk with fault ids, lane occupancy, Monte Carlo
//!   batch counts and CI half-widths at stop, and quarantine/budget
//!   incidents cross-linked to checkpoint-journal entries.
//! * [`Metrics`] — the metrics export (`--metrics-out`): the counter
//!   families read from its embedded `Counters`, plus log2-bucket
//!   [`Histogram`]s (pack latency, cycles/work-item, MC batches, lane
//!   occupancy) with Prometheus text export and a human summary table.
//! * [`RunManifest`] — deterministic `manifest.json` provenance record
//!   with a results [`RunManifest::fingerprint`] stable across thread
//!   counts and engines. The study builder fills its `phases` and
//!   `profile` from a `Counters` snapshot.
//! * [`TtyStatus`] — live status line naming the current phase and its
//!   planned work items, auto-disabled when stderr is not a terminal
//!   or under `--quiet`.
//! * [`Sinks`] — the set of the above that the `sfr` CLI and the
//!   table/figure binaries attach to a campaign, and the end-of-run
//!   stderr summary.
//! * [`check_trace`] / [`check_manifest`] / [`check_metrics`] — the
//!   validators behind `sfr obs-check`.
//!
//! The zero-cost contract: none of these sinks are consulted unless
//! installed, producers only build allocation-bearing
//! `sfr_exec::TraceRecord`s after `Progress::wants_records()` returns
//! true, and records are aggregated per work item and emitted at
//! pack/chunk boundaries — never from the per-cycle simulation loop.
//! Every event and record is emitted on the thread driving the
//! campaign, after the phase's parallel map has returned, in pack
//! order, so traces have a stable layout (only timing fields vary) and
//! results are byte-identical with tracing on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod check;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod sinks;
pub mod trace;
pub mod tty;

pub use check::{
    check_analysis, check_diagnostics, check_manifest, check_metrics, check_trace, TraceStats,
};
pub use manifest::{git_revision, process_cpu_ms, PhaseTime, ProfileSection, RunManifest, Tallies};
pub use metrics::{Histogram, Metrics};
pub use sinks::Sinks;
pub use trace::{TraceWriter, TRACE_VERSION};
pub use tty::TtyStatus;

//! Shared configuration for the table/figure regeneration binaries and
//! benches.
//!
//! Every experiment of the paper's evaluation section has a binary here
//! (`cargo run --release -p sfr-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — representative Diffeq SFR faults, effects and power |
//! | `table2` | Table 2 — fault breakdown for all three examples |
//! | `table3` | Table 3 — power consistency across test sets |
//! | `fig7` | Figure 7(a,b,c) — per-SFR-fault power scatter with ±5% band |
//! | `worstcase` | the Section 4 worst-case multi-effect experiment |
//!
//! The matching Criterion benches in `benches/` measure the *cost* of
//! each pipeline stage and the ablations called out in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use sfr_core::obs::Sinks;
use sfr_core::{ClassifyConfig, GradeConfig, MonteCarloConfig, StudyConfig};

/// The full-fidelity configuration used to regenerate the paper's
/// numbers: 1200-pattern TPGR detection (the paper's test-set size) and
/// Monte Carlo power to 1% relative confidence.
pub fn paper_config() -> StudyConfig {
    StudyConfig {
        classify: ClassifyConfig {
            test_patterns: 1200,
            ..Default::default()
        },
        grade: GradeConfig {
            mc: MonteCarloConfig {
                rel_tolerance: 0.01,
                min_batches: 8,
                max_batches: 80,
            },
            patterns_per_batch: 240,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A reduced configuration for Criterion benches (same pipeline, fewer
/// patterns/batches so iterations stay fast).
pub fn quick_config() -> StudyConfig {
    StudyConfig {
        classify: ClassifyConfig {
            test_patterns: 240,
            ..Default::default()
        },
        grade: GradeConfig {
            mc: MonteCarloConfig {
                rel_tolerance: 0.05,
                min_batches: 3,
                max_batches: 8,
            },
            patterns_per_batch: 60,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The value after `name` in the process arguments, if any.
fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != name).skip(1);
    args.next()
}

/// Reads the shared `--threads N` flag every table/figure binary
/// accepts (`cargo run -p sfr-bench --bin table2 -- --threads 8`).
/// Returns 1 when absent; 0 resolves to all available cores. Results
/// are byte-identical at every thread count — the flag only changes
/// wall-clock time.
pub fn threads_from_args() -> usize {
    let threads = arg_value("--threads")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    if threads == 0 {
        sfr_core::exec::default_threads()
    } else {
        threads
    }
}

/// Opens the observers every table/figure binary accepts, as the `sfr`
/// CLI does: `--trace-out FILE` (structured JSONL trace),
/// `--metrics-out FILE` (Prometheus text snapshot plus stderr summary)
/// and `--quiet` (no live status line).
///
/// # Errors
///
/// Fails when the trace file cannot be created.
pub fn sinks_from_args() -> Result<Sinks, String> {
    Sinks::open(
        arg_value("--trace-out").as_deref(),
        arg_value("--metrics-out").as_deref(),
        std::env::args().any(|a| a == "--quiet"),
    )
}

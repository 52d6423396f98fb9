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

/// The flags every table/figure binary accepts, from the process
/// arguments: `--threads N` (default 1, 0 = all cores; results are
/// byte-identical at every count) and the observers the `sfr` CLI opens
/// (`--trace-out FILE`, `--metrics-out FILE`, `--quiet`).
///
/// # Errors
///
/// Any other argument, a flag without its value, an unparsable
/// `--threads`, or a trace file that cannot be created.
pub fn args_from_env() -> Result<(usize, Sinks), String> {
    let mut threads = 1;
    let (mut trace_out, mut metrics_out, mut quiet) = (None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--threads" => {
                threads = value()?
                    .parse::<usize>()
                    .map_err(|_| "bad --threads".to_string())?;
            }
            "--trace-out" => trace_out = Some(value()?),
            "--metrics-out" => metrics_out = Some(value()?),
            "--quiet" => quiet = true,
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    if threads == 0 {
        threads = sfr_core::exec::default_threads();
    }
    let sinks = Sinks::open(trace_out.as_deref(), metrics_out.as_deref(), quiet)?;
    Ok((threads, sinks))
}

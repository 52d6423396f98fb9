//! Regenerates the **Section 4 worst-case experiment**: add as many
//! control line effects as possible to the differential equation solver
//! while keeping the computation intact, and measure the power increase
//! (the paper reports over 200%).
//!
//! Run with `cargo run --release -p sfr-bench --bin worstcase`.

#![allow(clippy::unwrap_used)]

use sfr_bench::{args_from_env, paper_config};
use sfr_core::exec::{Progress, TraceRecord};
use sfr_core::{benchmarks, worst_case_extra_effects, System};

fn main() -> std::process::ExitCode {
    sfr_bench::exit_code(run())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = paper_config();
    let (threads, sinks) = args_from_env()?;
    let start = std::time::Instant::now();
    println!("Worst-case non-disruptive control line effects (paper Section 4).");
    println!();
    // The three benchmarks are independent experiments; shard across
    // them and print in benchmark order.
    let built: Vec<(&str, System)> = benchmarks::all_benchmarks(4)?
        .into_iter()
        .map(|(name, emitted)| Ok((name, System::build(&emitted, cfg.system)?)))
        .collect::<Result<_, sfr_core::NetlistError>>()?;
    let results = sfr_core::exec::par_map_indexed(threads, built.len(), |i| {
        worst_case_extra_effects(&built[i].1, &cfg.grade)
    });
    for ((name, _), wc) in built.iter().zip(&results) {
        if sinks.wants_records() {
            sinks.record(&TraceRecord::Note {
                text: format!(
                    "worstcase {name}: {} extra loads, {} select flips, {:+.1}% power",
                    wc.extra_loads,
                    wc.select_flips,
                    wc.pct_increase()
                ),
            });
        }
        println!(
            "{name:<8} extra loads: {:>3}  select flips: {:>2}  power {:>8.2} -> {:>8.2} uW  ({:+.1}%)",
            wc.extra_loads,
            wc.select_flips,
            wc.baseline.total_uw,
            wc.worst.total_uw,
            wc.pct_increase()
        );
    }
    println!();
    println!("The paper reports >200% for diffeq — a worst case only multiple");
    println!("simultaneous faults could cause, but an upper bound on the power a");
    println!("defective controller can silently waste.");
    sinks.finish()?;
    eprintln!(
        "worst-case search over all three benchmarks took {:.2} s on {threads} thread(s)",
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

//! Regenerates **Table 1**: the effect of system-functionally redundant
//! faults on power consumption for the 4-bit differential equation
//! solver — representative faults spanning the whole power range, with
//! their control line effects.
//!
//! Run with `cargo run --release -p sfr-bench --bin table1`.

#![allow(clippy::unwrap_used)]

use sfr_bench::{args_from_env, paper_config};
use sfr_core::{render_table1, StudyBuilder};

fn main() -> std::process::ExitCode {
    sfr_bench::exit_code(run())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let (threads, sinks) = args_from_env()?;
    eprintln!(
        "classifying and grading diffeq on {threads} thread(s) \
         (Monte Carlo power, 63 faults + baseline per lane-packed pass)..."
    );
    let study = StudyBuilder::new("diffeq")
        .config(paper_config())
        .threads(threads)
        .build()?
        .run_with(&sinks);
    sinks.finish()?;
    println!("Table 1: SFR faults vs datapath power, 4-bit differential equation solver.");
    println!("(faults ranked by power; the paper's table spans -3.02% .. +20.98%)");
    println!();
    print!("{}", render_table1(&study, 6));
    println!();
    let min = study
        .grades
        .iter()
        .map(|g| g.pct_change)
        .fold(f64::MAX, f64::min);
    let max = study
        .grades
        .iter()
        .map(|g| g.pct_change)
        .fold(f64::MIN, f64::max);
    println!(
        "range over all {} SFR faults: {min:+.2}% .. {max:+.2}% (paper: -3.02% .. +20.98%)",
        study.grades.len()
    );
    Ok(())
}

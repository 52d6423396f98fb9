//! Regenerates **Table 3**: power in the presence of SFR faults for
//! different test sets — the Monte Carlo estimate next to three
//! 1200-pattern LFSR test sets (the third seeded near-all-0s), for the
//! differential equation solver and the polynomial evaluator.
//!
//! The paper's point: while absolute power varies with the test set, the
//! *percentage change* from fault-free is consistent, so any short test
//! set can serve as the basis for power-based detection.
//!
//! All measurements are lane-packed on the compiled tape: the Monte
//! Carlo column comes from the 63-fault-per-pass grading sweep (lane 0
//! doubling as the fault-free baseline), and each test-set column
//! measures the baseline plus every shown fault in one 64-lane pass —
//! bit-identical to scalar measurements made one fault at a time.
//!
//! Run with `cargo run --release -p sfr-bench --bin table3`.

#![allow(clippy::unwrap_used)]

use sfr_bench::{args_from_env, paper_config};
use sfr_core::exec::Progress;
use sfr_core::{
    measure_power_tape_watched, PowerReport, StuckAt, StudyBuilder, TapeProgram, TestSet,
};

fn show(
    name: &str,
    benchmark: &str,
    threads: usize,
    progress: &dyn Progress,
) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = paper_config();
    // The study's lane-packed sweep grades every SFR fault and the
    // baseline.
    let study = StudyBuilder::new(benchmark)
        .config(cfg.clone())
        .threads(threads)
        .build()?
        .run_with(progress);
    let (sys, base_mc, grades) = (&study.system, study.baseline, &study.grades);
    let trio = TestSet::paper_trio(sys.pattern_width())?;

    println!("({name})");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "", "Monte Carlo", "Test set 1", "Test set 2", "Test set 3"
    );

    // Representative faults spanning the power range (as the paper
    // does).
    let mut order: Vec<usize> = (0..grades.len()).collect();
    order.sort_by(|&a, &b| grades[a].mean_uw.total_cmp(&grades[b].mean_uw));
    let rows = 5.min(order.len());
    let picks: Vec<usize> = (0..rows)
        .map(|i| i * (order.len() - 1) / (rows - 1).max(1))
        .collect();
    let picked: Vec<StuckAt> = picks.iter().map(|&p| grades[order[p]].fault).collect();

    // One 64-lane pass per test set covers the fault-free baseline
    // (lane 0) and every shown fault.
    let prog = TapeProgram::<u64>::compile(&sys.netlist, &picked)?;
    let per_set: Vec<Vec<PowerReport>> = trio
        .iter()
        .map(|ts| measure_power_tape_watched(sys, &prog, ts, &cfg.grade).0)
        .collect();
    let base_ts: Vec<f64> = per_set.iter().map(|r| r[0].total_uw).collect();
    println!(
        "{:<12} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
        "fault-free", base_mc.mean_uw, base_ts[0], base_ts[1], base_ts[2]
    );

    let mut max_spread: f64 = 0.0;
    // Rows are labelled with each fault's rank among the SFR faults by
    // power — Table 1's numbering, so Table 1's fault 49 is the last row
    // here.
    for (row, &p) in picks.iter().enumerate() {
        let g = &grades[order[p]];
        let cols: Vec<f64> = per_set.iter().map(|r| r[row + 1].total_uw).collect();
        let pct =
            |uw: f64, base: f64| -> String { format!("({:+.2}%)", 100.0 * (uw - base) / base) };
        println!(
            "{:<12} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            format!("fault {}", p + 1),
            g.mean_uw,
            cols[0],
            cols[1],
            cols[2]
        );
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12}",
            "",
            format!("({:+.2}%)", g.pct_change),
            pct(cols[0], base_ts[0]),
            pct(cols[1], base_ts[1]),
            pct(cols[2], base_ts[2])
        );
        let pcts: Vec<f64> = cols
            .iter()
            .zip(&base_ts)
            .map(|(f, b)| 100.0 * (f - b) / b)
            .collect();
        let spread = pcts
            .iter()
            .chain(std::iter::once(&g.pct_change))
            .fold((f64::MAX, f64::MIN), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        max_spread = max_spread.max(spread.1 - spread.0);
    }
    println!(
        "largest spread of %-change across test sets: {max_spread:.2} points — the\n\
         percentage increase is consistent from test set to test set, as the paper found."
    );
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (threads, sinks) = args_from_env()?;
    println!("Table 3: Power in the presence of SFR faults for different test sets");
    println!("(percentage change from fault-free shown beneath each row).");
    println!();
    show("a: differential equation solver", "diffeq", threads, &sinks)?;
    show("b: polynomial evaluator", "poly", threads, &sinks)?;
    sinks.finish()?;
    Ok(())
}

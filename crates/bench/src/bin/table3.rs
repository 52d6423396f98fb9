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

use sfr_bench::{paper_config, threads_from_args, ObsArgs};
use sfr_core::exec::{Counters, EngineKind, Progress, SimKernel, Tee};
use sfr_core::{
    benchmarks, classify_system_with, grade_faults_journaled_with_kernel,
    measure_power_tape_watched, EmittedSystem, PowerReport, StuckAt, System, TapeProgram, TestSet,
};

fn show(
    name: &str,
    emitted: &EmittedSystem,
    threads: usize,
    progress: &dyn Progress,
) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = paper_config();
    let sys = System::build(emitted, cfg.system)?;
    let engine = EngineKind::Tape(threads).build();
    let c = classify_system_with(&sys, &cfg.classify, engine.as_ref(), progress);
    let sfr: Vec<_> = c.sfr().map(|f| f.fault).collect();
    let trio = TestSet::paper_trio(sys.pattern_width())?;

    println!("({name})");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "", "Monte Carlo", "Test set 1", "Test set 2", "Test set 3"
    );
    // One lane-packed sweep grades every SFR fault and the baseline.
    let report = grade_faults_journaled_with_kernel(
        &sys,
        &sfr,
        &cfg.grade,
        threads,
        progress,
        None,
        SimKernel::Tape,
    );
    let (base_mc, grades) = (report.baseline, report.grades);

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
        .map(|ts| measure_power_tape_watched(&sys, &prog, ts, &cfg.grade).0)
        .collect();
    let base_ts: Vec<f64> = per_set.iter().map(|r| r[0].total_uw).collect();
    println!(
        "{:<12} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
        "fault-free", base_mc.mean_uw, base_ts[0], base_ts[1], base_ts[2]
    );

    let mut max_spread: f64 = 0.0;
    for (row, &p) in picks.iter().enumerate() {
        let g = &grades[order[p]];
        let cols: Vec<f64> = per_set.iter().map(|r| r[row + 1].total_uw).collect();
        let pct =
            |uw: f64, base: f64| -> String { format!("({:+.2}%)", 100.0 * (uw - base) / base) };
        println!(
            "{:<12} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            format!("fault {}", row + 1),
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
    let threads = threads_from_args();
    let counters = Counters::new();
    let obs = ObsArgs::from_env()?;
    let sinks = obs.sinks(&counters);
    let tee = Tee::new(&sinks);
    println!("Table 3: Power in the presence of SFR faults for different test sets");
    println!("(percentage change from fault-free shown beneath each row).");
    println!();
    show(
        "a: differential equation solver",
        &benchmarks::diffeq(4)?,
        threads,
        &tee,
    )?;
    show(
        "b: polynomial evaluator",
        &benchmarks::poly(4)?,
        threads,
        &tee,
    )?;
    drop(sinks);
    obs.finish()?;
    Ok(())
}

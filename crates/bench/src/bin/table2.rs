//! Regenerates **Table 2**: breakdown of controller faults for the three
//! examples (total faults, SFR faults, %SFR).
//!
//! Run with `cargo run --release -p sfr-bench --bin table2`.

#![allow(clippy::unwrap_used)]

use sfr_bench::{args_from_env, paper_config};
use sfr_core::exec::EngineKind;
use sfr_core::{benchmarks, classify_system_journaled, System};

fn main() -> std::process::ExitCode {
    sfr_bench::exit_code(run())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = paper_config();
    let (threads, sinks) = args_from_env()?;
    let engine = EngineKind::Tape(threads).build();
    let start = std::time::Instant::now();
    println!("Table 2: Breakdown of controller faults for the three examples.");
    println!();
    println!(
        "{:<10} {:>12} {:>10} {:>11}    (paper: total / SFR / %SFR)",
        "", "Total Faults", "SFR Faults", "%Faults SFR"
    );
    let paper = [
        ("diffeq", 284, 37, 13.0),
        ("facet", 177, 36, 20.3),
        ("poly", 207, 28, 13.5),
    ];
    for ((name, emitted), (pname, ptot, psfr, ppct)) in
        benchmarks::all_benchmarks(4)?.into_iter().zip(paper)
    {
        assert_eq!(name, pname);
        let sys = System::build(&emitted, cfg.system)?;
        let c = classify_system_journaled(&sys, &cfg.classify, engine.as_ref(), &sinks, None).0;
        println!(
            "{:<10} {:>12} {:>10} {:>10.1}%    ({ptot} / {psfr} / {ppct}%)",
            name,
            c.total(),
            c.sfr_count(),
            c.percent_sfr(),
        );
        assert_eq!(c.cfr_count(), 0, "paper: no CFR faults in the examples");
    }
    println!();
    println!("No controller-functionally redundant (CFR) faults, as in the paper:");
    println!("exact two-level minimization leaves no redundancy in the controllers.");
    sinks.finish()?;
    eprintln!(
        "classified all three benchmarks in {:.2} s on {threads} thread(s)",
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

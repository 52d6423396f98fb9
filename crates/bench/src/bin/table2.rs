//! Regenerates **Table 2**: breakdown of controller faults for the three
//! examples (total faults, SFR faults, %SFR).
//!
//! Run with `cargo run --release -p sfr-bench --bin table2`.

#![allow(clippy::unwrap_used)]

use sfr_bench::{paper_config, report_counters, threads_from_args, ObsArgs};
use sfr_core::exec::{Counters, EngineKind, Tee};
use sfr_core::{benchmarks, classify_system_with, System};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = paper_config();
    let threads = threads_from_args();
    let engine = EngineKind::Tape(threads).build();
    let counters = Counters::new();
    let obs = ObsArgs::from_env()?;
    let sinks = obs.sinks(&counters);
    let tee = Tee::new(&sinks);
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
        let c = classify_system_with(&sys, &cfg.classify, engine.as_ref(), &tee);
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
    drop(sinks);
    obs.finish()?;
    report_counters(&counters);
    eprintln!(
        "classified all three benchmarks in {:.2} s on {threads} thread(s)",
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

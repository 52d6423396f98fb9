//! `sfr` — command-line front end for the sfr-power workspace.
//!
//! ```text
//! sfr classify    <benchmark> [--width N] [--patterns N] [--threads N] [--engine NAME]
//!                             [--static-prune] [--collapse]
//! sfr grade       <benchmark> [--width N] [--threshold PCT] [--threads N] [--engine NAME]
//!                             [--static-prune] [--collapse] [--checkpoint FILE]
//!                             [--resume FILE] [--cycle-budget N]
//! sfr analyze     <benchmark> [--width N] [--threads N] [--format text|json]
//! sfr lint        <benchmark>|--fixture [--width N] [--format text|json]
//! sfr stats       <benchmark> [--width N]
//! sfr vcd         <benchmark> [--width N] [--fault SPEC] [--out FILE]
//! sfr verilog     <benchmark> [--width N] [--out FILE]
//! sfr testprogram <benchmark> [--width N] [--patterns N] [--out FILE] [--threads N]
//!                             [--engine NAME]
//! sfr table2      [--patterns N] [--threads N] [--engine NAME]
//! sfr shard serve <benchmark> [grade flags] [--addr HOST:PORT] [--lease-ms N]
//!                             [--grace-ms N] [--spawn-workers N]
//!                             [--chaos kill=P,stall=P] [--chaos-seed N]
//!                             [--worker-trace-dir DIR]
//! sfr shard work  --connect HOST:PORT [--max-retries N] [--stall P] [--chaos-seed N]
//!                             [--worker-id N]
//! sfr report      <artifacts...> [--journal FILE] [--format text|json]
//! ```
//!
//! `<benchmark>` is one of `diffeq`, `facet`, `poly`, `fir`.
//!
//! `--threads N` shards fault simulation and Monte Carlo power grading
//! across N worker threads (0 = all cores). Grading splits the SFR
//! faults into 63-fault packs; when there are fewer packs than threads
//! (every paper design grades one pack), each pack's Monte Carlo
//! batches are spread across the spare threads too. Output is
//! byte-identical at every thread count. A campaign summary — faults
//! simulated and dropped, Monte Carlo convergence, wall time per phase
//! — is printed to stderr.
//!
//! `--engine NAME` picks the fault-simulation engine: `tape` (the
//! default: the compiled levelized op-tape kernel, 63 faults per pass,
//! sharded across `--threads`) or `serial` (the scalar reference, one
//! fault at a time). Both print byte-identical output; power grading
//! always runs on the tape.
//!
//! `grade` supports crash-safe campaigns: `--checkpoint FILE` records
//! every completed work pack to an fsynced journal, `--resume FILE`
//! restores those packs (byte-identical output, any thread count), and
//! `--cycle-budget N` arms the runaway-fault watchdog at N times the
//! design's nominal run length. If a study finishes with quarantined
//! packs, watchdog hits, or a degraded journal, the incidents are
//! listed on stderr and the exit status is nonzero.
//!
//! `lint` runs the `sfr-lint` structural rule suite — unreachable FSM
//! states, dead transitions, constant and stuck nets, never-selected
//! mux inputs, lifespan overlaps, combinational loops — over a
//! benchmark (or the built-in broken `--fixture`) and exits nonzero if
//! any `error`-severity diagnostic fires. Diagnostics are normalized:
//! stable-sorted by severity/rule/location and exact repeats of the
//! same rule at the same location printed once. `--format json` emits
//! the report as a machine-readable object instead (validated by
//! `sfr obs-check --diagnostics`). `--static-prune` on
//! `classify`/`grade` classifies statically-provable faults without
//! simulation and prunes them from the campaign; results are
//! byte-identical to the unpruned run.
//!
//! `--collapse` on `classify`/`grade`/`shard serve` enables structural
//! fault collapsing: structurally equivalent controller faults (BUF/INV
//! chains, controlling-value links through fanout-free nets) are folded
//! into equivalence classes and only one representative per class is
//! simulated and power-graded; every member inherits its
//! representative's verdict and grade, so the tables and the campaign
//! fingerprint are byte-identical to the uncollapsed run at any thread
//! count and engine.
//!
//! `analyze` reports what the static layer proves about a benchmark
//! *without* running a campaign: the collapsed fault universe, the
//! equivalence-class partition with per-rule merge attribution, the
//! statically-decided CFR/SFR split (dead cone, constant site,
//! abstract-interpretation masking/parity, exhaustive table, oracle),
//! and how many faults a `--static-prune --collapse` campaign would
//! actually simulate. `--format json` emits the same report
//! machine-readably (validated by `sfr obs-check --analysis`).
//!
//! `shard serve` runs a `grade` campaign as a fault-tolerant
//! distributed coordinator: grade packs are leased to connecting
//! `shard work` processes over a length-prefixed TCP protocol with
//! heartbeats, expired leases are reassigned under exponential
//! backoff, stale results are fenced, and the merged table is
//! byte-identical to a local `grade` run — even with zero workers
//! (graceful local fallback) or with the built-in chaos harness
//! (`--chaos kill=P,stall=P`) killing and stalling workers mid-run.
//!
//! `shard serve --worker-trace-dir DIR` makes every spawned worker
//! write its own flight-recorder trace to
//! `DIR/worker-<slot>-<generation>.jsonl` (the generation counts
//! respawns, so a chaos-killed worker's torn trace survives next to
//! its replacement's). `shard work --worker-id N` stamps N on the
//! worker's own trace records; the lease token, which doubles as the
//! fencing token, is the join key against the coordinator's trace.
//!
//! `report` is the flight-recorder reader: it merges a coordinator
//! trace, any number of worker traces, and the run manifest into one
//! causally-ordered account — per-worker utilization, lease churn,
//! heartbeat jitter, pack latency percentiles, incidents cross-linked
//! to checkpoint-journal keys, and per-phase wall clock. Cross-process
//! ordering never compares clocks: lease lifecycles are reconstructed
//! per token. With `--journal FILE` it also proves every journaled
//! grade pack is attributed to a trace record, and it flags gaps —
//! packs granted but never resolved, fenced zombie results, torn
//! worker traces. `--format json` emits a machine-readable report
//! (validated by `sfr obs-check --report`).
//!
//! `vcd` dumps a waveform of one computation run (optionally with a
//! controller fault injected, e.g. `--fault g21.out/sa1`) for any VCD
//! viewer.
//!
//! Every campaign command (`classify`, `grade`, `testprogram`) accepts
//! the observability flags: `--trace-out FILE` streams a structured
//! JSONL event trace, `--metrics-out FILE` exports a Prometheus text
//! snapshot (plus a human summary on stderr), `--manifest-out FILE`
//! (grade/testprogram) writes a deterministic run manifest —
//! refusing to overwrite an existing one unless `--force` is given —
//! and `--quiet` silences the live status line. All observability
//! output goes to stderr or the named files; stdout carries only the
//! result tables, byte-identical with every sink on or off.
//! `obs-check` validates previously written artifacts.

use sfr_power::exec::{Counters, EngineKind, Progress, Tee};
use sfr_power::obs::{Metrics, TraceWriter, TtyStatus};
use sfr_power::shard;
use sfr_power::{
    benchmarks, classify_system_with, describe_effect, ClassifyConfig, EmittedSystem, FaultClass,
    Logic, StuckAt, StudyBuilder, System, SystemConfig,
};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sfr classify    <benchmark> [--width N] [--patterns N] [--threads N] [--engine NAME]\n                  \
         [--static-prune] [--collapse]\n  \
         sfr grade       <benchmark> [--width N] [--threshold PCT] [--threads N] [--engine NAME]\n                  \
         [--static-prune] [--collapse] [--checkpoint FILE] [--resume FILE]\n                  \
         [--cycle-budget N]\n  \
         sfr analyze     <benchmark> [--width N] [--threads N] [--format text|json]\n  \
         sfr lint        <benchmark>|--fixture [--width N] [--format text|json]\n  \
         sfr stats       <benchmark> [--width N]\n  \
         sfr vcd         <benchmark> [--width N] [--fault SPEC] [--out FILE]\n  \
         sfr verilog     <benchmark> [--width N] [--out FILE]\n  \
         sfr testprogram <benchmark> [--width N] [--patterns N] [--out FILE] [--threads N]\n                  \
         [--engine NAME]\n  \
         sfr table2      [--patterns N] [--threads N] [--engine NAME]\n  \
         sfr shard serve <benchmark> [grade flags] [--addr HOST:PORT] [--lease-ms N]\n                  \
         [--grace-ms N] [--spawn-workers N] [--chaos kill=P,stall=P] [--chaos-seed N]\n                  \
         [--worker-trace-dir DIR]\n  \
         sfr shard work  --connect HOST:PORT [--max-retries N] [--stall P] [--chaos-seed N]\n                  \
         [--worker-id N]\n  \
         sfr report      <artifacts...> [--journal FILE] [--format text|json]\n  \
         sfr obs-check   [--trace FILE] [--manifest FILE] [--metrics FILE]\n                  \
         [--diagnostics FILE] [--analysis FILE] [--report FILE]\n\
         observability (classify/grade/testprogram): [--trace-out FILE] [--metrics-out FILE]\n                  \
         [--manifest-out FILE] [--force] [--quiet]\n\
         benchmarks: diffeq | facet | poly | fir\n\
         engines: tape (default) | serial"
    );
    ExitCode::FAILURE
}

/// The observability sinks selected on the command line: the always-on
/// [`Counters`] summary plus the optional JSONL trace writer, metrics
/// registry, and throttled live status line. Fan them out to a study
/// with [`Obs::sinks`] and a [`Tee`].
struct Obs {
    counters: Counters,
    trace: Option<TraceWriter>,
    metrics: Option<(Metrics, String)>,
    tty: TtyStatus,
}

impl Obs {
    /// Opens the sinks requested by `--trace-out` / `--metrics-out` /
    /// `--quiet`. The trace file (and its parent directories) are
    /// created up front so a bad path fails before the campaign runs.
    fn create(
        trace_out: Option<&str>,
        metrics_out: Option<&str>,
        quiet: bool,
    ) -> Result<Self, String> {
        let trace = match trace_out {
            Some(path) => Some(
                TraceWriter::create(path)
                    .map_err(|e| format!("cannot open trace file {path}: {e}"))?,
            ),
            None => None,
        };
        Ok(Obs {
            counters: Counters::new(),
            trace,
            metrics: metrics_out.map(|p| (Metrics::new(), p.to_string())),
            tty: TtyStatus::stderr(quiet),
        })
    }

    /// The sink list to pass to [`Tee::new`].
    fn sinks(&self) -> Vec<&dyn Progress> {
        let mut sinks: Vec<&dyn Progress> = vec![&self.counters, &self.tty];
        if let Some(t) = &self.trace {
            sinks.push(t);
        }
        if let Some((m, _)) = &self.metrics {
            sinks.push(m);
        }
        sinks
    }

    /// Clears the status line, renders the campaign summary (and the
    /// metrics summary when enabled) to stderr, and finalizes the
    /// trace and metrics files.
    fn finish(self) -> Result<(), String> {
        self.tty.finish();
        eprint!("{}", self.counters.snapshot());
        if let Some((metrics, path)) = &self.metrics {
            eprint!("{}", metrics.render_summary());
            metrics
                .write_prometheus(path)
                .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
            eprintln!("metrics written to {path}");
        }
        if let Some(trace) = self.trace {
            let path = trace.path().display().to_string();
            trace
                .finish()
                .map_err(|e| format!("cannot finalize trace {path}: {e}"))?;
            eprintln!("trace written to {path}");
        }
        Ok(())
    }
}

/// Minimal `--key value` argument scanner.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn new(args: Vec<String>) -> Self {
        Args { rest: args }
    }

    fn flag(&mut self, name: &str) -> Option<String> {
        let pos = self.rest.iter().position(|a| a == name)?;
        if pos + 1 >= self.rest.len() {
            return None;
        }
        self.rest.remove(pos);
        Some(self.rest.remove(pos))
    }

    /// Removes a bare switch (no value) and reports whether it was
    /// present.
    fn switch(&mut self, name: &str) -> bool {
        match self.rest.iter().position(|a| a == name) {
            Some(pos) => {
                self.rest.remove(pos);
                true
            }
            None => false,
        }
    }

    fn positional(&mut self) -> Option<String> {
        if self.rest.is_empty() {
            None
        } else {
            Some(self.rest.remove(0))
        }
    }
}

fn build_bench(name: &str, width: usize) -> Result<EmittedSystem, String> {
    match name {
        "diffeq" => benchmarks::diffeq(width).map_err(|e| e.to_string()),
        "facet" => benchmarks::facet(width).map_err(|e| e.to_string()),
        "poly" => benchmarks::poly(width).map_err(|e| e.to_string()),
        "fir" => benchmarks::fir(width).map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown benchmark `{other}` (diffeq|facet|poly|fir)"
        )),
    }
}

/// Builds a benchmark's integrated system for a command that drives it
/// with test patterns, refusing widths whose data inputs do not fit one
/// pattern word.
fn build_tested_system(name: &str, width: usize) -> Result<System, String> {
    let emitted = build_bench(name, width)?;
    sfr_power::check_pattern_width(name, &emitted).map_err(|e| e.to_string())?;
    System::build(&emitted, SystemConfig::default()).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage();
    }
    let cmd = argv.remove(0);
    let mut args = Args::new(argv);
    match run(&cmd, &mut args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: &str, args: &mut Args) -> Result<(), String> {
    let width: usize = args
        .flag("--width")
        .map(|s| s.parse().map_err(|_| "bad --width"))
        .transpose()?
        .unwrap_or(4);
    let patterns: usize = args
        .flag("--patterns")
        .map(|s| s.parse().map_err(|_| "bad --patterns"))
        .transpose()?
        .unwrap_or(1200);
    let threshold: f64 = args
        .flag("--threshold")
        .map(|s| s.parse().map_err(|_| "bad --threshold"))
        .transpose()?
        .unwrap_or(5.0);
    let threads: usize = args
        .flag("--threads")
        .map(|s| s.parse().map_err(|_| "bad --threads"))
        .transpose()?
        .unwrap_or(1);
    let eff_threads = if threads == 0 {
        sfr_power::exec::default_threads()
    } else {
        threads
    };
    let engine = match args.flag("--engine") {
        Some(name) => EngineKind::parse(&name, eff_threads)
            .ok_or_else(|| format!("unknown engine `{name}` (serial|tape)"))?,
        None => EngineKind::Tape(eff_threads),
    };
    let static_prune = args.switch("--static-prune");
    let collapse = args.switch("--collapse");
    let format = args.flag("--format").unwrap_or_else(|| "text".to_string());
    if format != "text" && format != "json" {
        return Err(format!("unknown format `{format}` (text|json)"));
    }
    let fault_spec = args.flag("--fault");
    let out_file = args.flag("--out");
    let checkpoint = args.flag("--checkpoint");
    let resume = args.flag("--resume");
    let cycle_budget: Option<usize> = args
        .flag("--cycle-budget")
        .map(|s| s.parse().map_err(|_| "bad --cycle-budget"))
        .transpose()?;
    let trace_out = args.flag("--trace-out");
    let metrics_out = args.flag("--metrics-out");
    let manifest_out = args.flag("--manifest-out");
    let force = args.switch("--force");
    let quiet = args.switch("--quiet");

    match cmd {
        "classify" => {
            let name = args.positional().ok_or("missing benchmark name")?;
            let sys = build_tested_system(&name, width)?;
            let obs = Obs::create(trace_out.as_deref(), metrics_out.as_deref(), quiet)?;
            let sinks = obs.sinks();
            let tee = Tee::new(&sinks);
            let (c, _quarantined) = sfr_power::classify_system_collapsed(
                &sys,
                &ClassifyConfig {
                    test_patterns: patterns,
                    static_prune,
                    ..Default::default()
                },
                engine.build().as_ref(),
                &tee,
                None,
                collapse,
            );
            drop(sinks);
            obs.finish()?;
            println!(
                "{name} (width {width}): {} controller faults — {} SFI, {} CFR, {} SFR ({:.1}%)",
                c.total(),
                c.sfi_count(),
                c.cfr_count(),
                c.sfr_count(),
                c.percent_sfr()
            );
            for f in c.sfr() {
                let effects: Vec<String> =
                    f.effects.iter().map(|e| describe_effect(&sys, e)).collect();
                println!("  SFR {:<14} {}", f.fault.to_string(), effects.join("; "));
            }
            Ok(())
        }
        "grade" => {
            let name = args.positional().ok_or("missing benchmark name")?;
            let emitted = build_bench(&name, width)?;
            let mut builder = StudyBuilder::from_emitted(&name, emitted)
                .test_patterns(patterns)
                .threshold_pct(threshold)
                .static_prune(static_prune)
                .collapse(collapse)
                .threads(threads)
                .engine(engine)
                .force(force);
            if let Some(path) = checkpoint {
                builder = builder.checkpoint(path);
            }
            if let Some(path) = resume {
                builder = builder.resume(path);
            }
            if let Some(factor) = cycle_budget {
                builder = builder.cycle_budget(factor);
            }
            if let Some(path) = &manifest_out {
                builder = builder.manifest_out(path);
            }
            let prepared = builder.build().map_err(|e| e.to_string())?;
            eprintln!(
                "classifying and grading {name} by Monte Carlo power on {threads} thread(s)..."
            );
            let obs = Obs::create(trace_out.as_deref(), metrics_out.as_deref(), quiet)?;
            let sinks = obs.sinks();
            let tee = Tee::new(&sinks);
            let study = prepared.run_with(&tee);
            drop(sinks);
            obs.finish()?;
            if let Some(path) = &manifest_out {
                // run_with already warned on stderr if the write failed.
                if std::path::Path::new(path).exists() {
                    eprintln!("manifest written to {path}");
                }
            }
            print_grade_table(&name, threshold, &study)
        }
        "lint" => {
            let (subject, mut report) = if args.switch("--fixture") {
                ("fixture".to_string(), sfr_power::fixture_report())
            } else {
                let name = args.positional().ok_or("missing benchmark name")?;
                let emitted = build_bench(&name, width)?;
                let sys =
                    System::build(&emitted, SystemConfig::default()).map_err(|e| e.to_string())?;
                (name, sfr_power::lint_system(&sys))
            };
            report.normalize();
            if format == "json" {
                println!("{}", render_lint_json(&subject, &report));
            } else {
                for d in &report.diagnostics {
                    println!("{d}");
                }
            }
            let errors = report.error_count();
            if errors > 0 {
                return Err(format!(
                    "lint found {errors} error(s) in {} diagnostic(s)",
                    report.diagnostics.len()
                ));
            }
            eprintln!(
                "lint: clean ({} non-error diagnostic(s))",
                report.diagnostics.len()
            );
            Ok(())
        }
        "analyze" => {
            let name = args.positional().ok_or("missing benchmark name")?;
            let emitted = build_bench(&name, width)?;
            let sys =
                System::build(&emitted, SystemConfig::default()).map_err(|e| e.to_string())?;
            let obs = Obs::create(trace_out.as_deref(), metrics_out.as_deref(), quiet)?;
            let sinks = obs.sinks();
            let tee = Tee::new(&sinks);
            let report = run_analysis(&name, width, &sys, eff_threads, &tee);
            drop(sinks);
            obs.finish()?;
            if format == "json" {
                println!("{}", report.render_json());
            } else {
                print!("{report}");
            }
            Ok(())
        }
        "stats" => {
            let name = args.positional().ok_or("missing benchmark name")?;
            let emitted = build_bench(&name, width)?;
            let sys =
                System::build(&emitted, SystemConfig::default()).map_err(|e| e.to_string())?;
            println!("{name} (width {width}) — integrated system:");
            print!("{}", sfr_netlist_stats(&sys.netlist));
            println!("controller alone:");
            print!("{}", sfr_netlist_stats(&sys.ctrl_netlist));
            println!(
                "controller fault universe: {} collapsed stuck-at faults",
                sys.controller_faults().len()
            );
            Ok(())
        }
        "vcd" => {
            let name = args.positional().ok_or("missing benchmark name")?;
            let emitted = build_bench(&name, width)?;
            let sys =
                System::build(&emitted, SystemConfig::default()).map_err(|e| e.to_string())?;
            let fault = match fault_spec {
                Some(spec) => Some(parse_fault(&sys, &spec)?),
                None => None,
            };
            let mut sim = match fault {
                Some(f) => sfr_power::CycleSim::with_fault(&sys.netlist, f),
                None => sfr_power::CycleSim::new(&sys.netlist),
            };
            let mut rec = sfr_power::VcdRecorder::all_nets(&sys.netlist);
            sys.reset_sim(&mut sim, Logic::Zero);
            let ts = sfr_power::TestSet::pseudorandom(sys.pattern_width(), 64, 0xACE1)
                .map_err(|e| e.to_string())?;
            for &p in ts.iter() {
                sys.apply_pattern(&mut sim, p);
                sim.eval();
                rec.sample(&sim);
                let at_hold = sys.decode_state(&sim) == Some(sys.meta.hold_state());
                sim.clock();
                if at_hold {
                    break;
                }
            }
            let path = out_file.unwrap_or_else(|| format!("{name}.vcd"));
            let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
            rec.write(&sys.netlist, std::io::BufWriter::new(file))
                .map_err(|e| e.to_string())?;
            println!("wrote {} cycles to {path}", rec.cycles());
            Ok(())
        }
        "verilog" => {
            let name = args.positional().ok_or("missing benchmark name")?;
            let emitted = build_bench(&name, width)?;
            let sys =
                System::build(&emitted, SystemConfig::default()).map_err(|e| e.to_string())?;
            let path = out_file.unwrap_or_else(|| format!("{name}.v"));
            let mut text = Vec::new();
            sfr_power::write_cell_library(&mut text).map_err(|e| e.to_string())?;
            sfr_power::write_verilog(&sys.netlist, &mut text).map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
            println!(
                "wrote {} gates ({} nets) to {path}",
                sys.netlist.gate_count(),
                sys.netlist.net_count()
            );
            Ok(())
        }
        "testprogram" => {
            let name = args.positional().ok_or("missing benchmark name")?;
            let emitted = build_bench(&name, width)?;
            eprintln!("running the full study (classification + power grading)...");
            let mut builder = StudyBuilder::from_emitted(&name, emitted)
                .test_patterns(patterns)
                .threads(threads)
                .engine(engine)
                .force(force);
            if let Some(path) = &manifest_out {
                builder = builder.manifest_out(path);
            }
            let prepared = builder.build().map_err(|e| e.to_string())?;
            let obs = Obs::create(trace_out.as_deref(), metrics_out.as_deref(), quiet)?;
            let sinks = obs.sinks();
            let tee = Tee::new(&sinks);
            let study = prepared.run_with(&tee);
            drop(sinks);
            obs.finish()?;
            let prog = sfr_power::generate_test_program(
                &study,
                &sfr_power::TestProgramConfig {
                    patterns,
                    band_pct: threshold,
                    ..Default::default()
                },
            );
            let text = prog.render();
            match out_file {
                Some(path) => {
                    std::fs::write(&path, &text).map_err(|e| e.to_string())?;
                    // Print just the header lines to the console.
                    for l in text.lines().take_while(|l| l.starts_with('#')) {
                        println!("{l}");
                    }
                    println!("(full program written to {path})");
                }
                None => print!("{text}"),
            }
            Ok(())
        }
        "table2" => {
            for name in ["diffeq", "facet", "poly"] {
                let sys = build_tested_system(name, width)?;
                let c = classify_system_with(
                    &sys,
                    &ClassifyConfig {
                        test_patterns: patterns,
                        ..Default::default()
                    },
                    engine.build().as_ref(),
                    &sfr_power::exec::NullProgress,
                );
                println!(
                    "{name:<8} {:>5} faults  {:>4} SFR  {:>5.1}%",
                    c.total(),
                    c.sfr_count(),
                    c.percent_sfr()
                );
                debug_assert!(matches!(
                    c.faults.first().map(|f| f.class),
                    Some(FaultClass::Sfi(_)) | Some(FaultClass::Sfr) | Some(FaultClass::Cfr) | None
                ));
            }
            Ok(())
        }
        "shard" => {
            let sub = args
                .positional()
                .ok_or("missing shard subcommand (serve|work)")?;
            let chaos_seed: u64 = args
                .flag("--chaos-seed")
                .map(|s| s.parse().map_err(|_| "bad --chaos-seed"))
                .transpose()?
                .unwrap_or(0x5FAD);
            match sub.as_str() {
                "serve" => {
                    let name = args.positional().ok_or("missing benchmark name")?;
                    let addr = args
                        .flag("--addr")
                        .unwrap_or_else(|| "127.0.0.1:0".to_string());
                    let lease_ms: u64 = args
                        .flag("--lease-ms")
                        .map(|s| s.parse().map_err(|_| "bad --lease-ms"))
                        .transpose()?
                        .unwrap_or(2_000);
                    let grace_ms: u64 = args
                        .flag("--grace-ms")
                        .map(|s| s.parse().map_err(|_| "bad --grace-ms"))
                        .transpose()?
                        .unwrap_or(3_000);
                    let spawn_workers: usize = args
                        .flag("--spawn-workers")
                        .map(|s| s.parse().map_err(|_| "bad --spawn-workers"))
                        .transpose()?
                        .unwrap_or(0);
                    let chaos = match args.flag("--chaos") {
                        Some(text) => shard::ChaosConfig::parse(&text)?,
                        None => shard::ChaosConfig::default(),
                    };
                    let worker_trace_dir = args.flag("--worker-trace-dir");
                    if lease_ms == 0 {
                        return Err("--lease-ms must be positive".into());
                    }

                    let mut spec = shard::ShardSpec::new(&name, width);
                    spec.patterns = patterns;
                    spec.threshold_pct = threshold;
                    spec.static_prune = static_prune;
                    spec.collapse = collapse;
                    spec.cycle_budget = cycle_budget;
                    spec.engine = engine;
                    spec.lease_ms = lease_ms;

                    let mut builder = spec.study_builder().threads(threads).force(force);
                    // The coordinator merges through journal replay, so
                    // a journal is mandatory; without --checkpoint it
                    // lives in a temp file for the run's duration.
                    let mut temp_journal = None;
                    match (&checkpoint, &resume) {
                        (_, Some(path)) => builder = builder.resume(path),
                        (Some(path), None) => builder = builder.checkpoint(path),
                        (None, None) => {
                            let path = std::env::temp_dir()
                                .join(format!("sfr-shard-{name}-{}.journal", std::process::id()));
                            builder = builder.checkpoint(&path);
                            temp_journal = Some(path);
                        }
                    }
                    if let Some(path) = &manifest_out {
                        builder = builder.manifest_out(path);
                    }
                    let prepared = builder.build().map_err(|e| e.to_string())?;

                    let (bound_tx, bound_rx) = std::sync::mpsc::channel();
                    let serve_cfg = shard::ServeConfig {
                        addr,
                        lease: std::time::Duration::from_millis(lease_ms),
                        grace: std::time::Duration::from_millis(grace_ms),
                        spawn_workers,
                        chaos,
                        chaos_seed,
                        bound: Some(bound_tx),
                        worker_trace_dir: worker_trace_dir.map(std::path::PathBuf::from),
                        ..Default::default()
                    };
                    // The listener may pick an ephemeral port; announce
                    // the real address once it is bound.
                    let announce = std::thread::spawn(move || {
                        if let Ok(addr) = bound_rx.recv() {
                            eprintln!(
                                "serving grade packs on {addr} \
                                 ({spawn_workers} spawned worker(s), lease {lease_ms} ms)..."
                            );
                        }
                    });
                    let obs = Obs::create(trace_out.as_deref(), metrics_out.as_deref(), quiet)?;
                    let sinks = obs.sinks();
                    let tee = Tee::new(&sinks);
                    let result = shard::serve(prepared, &spec, &serve_cfg, &tee);
                    drop(sinks);
                    drop(serve_cfg);
                    let _ = announce.join();
                    if let Some(path) = &temp_journal {
                        let _ = std::fs::remove_file(path);
                    }
                    let (study, stats) = result?;
                    obs.finish()?;
                    eprintln!(
                        "shard: {} worker connection(s), {} lease(s) granted, {} expired, \
                         {} result(s) fenced, {} pack(s) merged from workers, {} local, \
                         {} chaos kill(s)",
                        stats.workers_connected,
                        stats.leases_granted,
                        stats.leases_expired,
                        stats.results_fenced,
                        stats.packs_merged_remote,
                        stats.packs_local,
                        stats.chaos_kills
                    );
                    if let Some(path) = &manifest_out {
                        if std::path::Path::new(path).exists() {
                            eprintln!("manifest written to {path}");
                        }
                    }
                    print_grade_table(&name, threshold, &study)
                }
                "work" => {
                    let connect = args
                        .flag("--connect")
                        .ok_or("shard work needs --connect HOST:PORT")?;
                    let max_retries: u32 = args
                        .flag("--max-retries")
                        .map(|s| s.parse().map_err(|_| "bad --max-retries"))
                        .transpose()?
                        .unwrap_or(8);
                    let stall: f64 = args
                        .flag("--stall")
                        .map(|s| s.parse().map_err(|_| "bad --stall"))
                        .transpose()?
                        .unwrap_or(0.0);
                    let worker_id: u64 = args
                        .flag("--worker-id")
                        .map(|s| s.parse().map_err(|_| "bad --worker-id"))
                        .transpose()?
                        .unwrap_or(0);
                    let work_cfg = shard::WorkConfig {
                        connect,
                        max_retries,
                        stall,
                        chaos_seed,
                        worker_id,
                    };
                    let obs = Obs::create(trace_out.as_deref(), metrics_out.as_deref(), quiet)?;
                    let sinks = obs.sinks();
                    let tee = Tee::new(&sinks);
                    let result = shard::work(&work_cfg, &tee);
                    drop(sinks);
                    let summary = result?;
                    obs.finish()?;
                    eprintln!(
                        "worker: {} pack(s) computed over {} session(s), {} chaos stall(s)",
                        summary.packs_computed, summary.connects, summary.stalls_injected
                    );
                    Ok(())
                }
                other => Err(format!("unknown shard subcommand `{other}` (serve|work)")),
            }
        }
        "report" => {
            let journal_in = args.flag("--journal");
            let mut artifacts = Vec::new();
            while let Some(path) = args.positional() {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read artifact {path}: {e}"))?;
                artifacts.push(sfr_power::obs::Artifact { label: path, text });
            }
            if artifacts.is_empty() {
                return Err("report needs at least one trace or manifest artifact".into());
            }
            // The journal is read here, not in sfr-obs (which is
            // dependency-free): only the grade-pack ids cross over.
            let journal_packs: Option<Vec<u64>> = match &journal_in {
                Some(path) => {
                    let journal =
                        sfr_power::CampaignJournal::open(path).map_err(|e| e.to_string())?;
                    let mut packs: Vec<u64> = journal
                        .entries()
                        .into_iter()
                        .filter(|(kind, ..)| matches!(kind, sfr_power::RecordKind::GradePack))
                        .map(|(_, id, _)| id)
                        .collect();
                    packs.sort_unstable();
                    packs.dedup();
                    Some(packs)
                }
                None => None,
            };
            let report = sfr_power::obs::build_report(&artifacts, journal_packs.as_deref())?;
            if format == "json" {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            let unattributed = report.unattributed_packs();
            if unattributed > 0 {
                return Err(format!(
                    "{unattributed} journaled pack(s) are not attributed by any trace"
                ));
            }
            Ok(())
        }
        "obs-check" => {
            let trace = args.flag("--trace");
            let manifest = args.flag("--manifest");
            let metrics = args.flag("--metrics");
            let diagnostics = args.flag("--diagnostics");
            let analysis = args.flag("--analysis");
            let report = args.flag("--report");
            if trace.is_none()
                && manifest.is_none()
                && metrics.is_none()
                && diagnostics.is_none()
                && analysis.is_none()
                && report.is_none()
            {
                return Err(
                    "obs-check needs at least one of --trace, --manifest, --metrics, \
                            --diagnostics, --analysis, --report"
                        .into(),
                );
            }
            if let Some(path) = trace {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read trace {path}: {e}"))?;
                let stats = sfr_power::obs::check_trace(&text)
                    .map_err(|e| format!("invalid trace {path}: {e}"))?;
                println!(
                    "trace {path}: ok — {} lines, {} spans ({} aborted), {} packs, {} chunks, \
                     {} quarantines, {} budget hits, {} collapse record(s)",
                    stats.lines,
                    stats.spans,
                    stats.aborted_spans,
                    stats.packs,
                    stats.chunks,
                    stats.quarantines,
                    stats.budgets,
                    stats.collapses
                );
            }
            if let Some(path) = manifest {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read manifest {path}: {e}"))?;
                sfr_power::obs::check_manifest(&text)
                    .map_err(|e| format!("invalid manifest {path}: {e}"))?;
                println!("manifest {path}: ok");
            }
            if let Some(path) = metrics {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read metrics {path}: {e}"))?;
                let samples = sfr_power::obs::check_metrics(&text)
                    .map_err(|e| format!("invalid metrics {path}: {e}"))?;
                println!("metrics {path}: ok — {samples} samples");
            }
            if let Some(path) = diagnostics {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read diagnostics {path}: {e}"))?;
                let n = sfr_power::obs::check_diagnostics(&text)
                    .map_err(|e| format!("invalid diagnostics {path}: {e}"))?;
                println!("diagnostics {path}: ok — {n} diagnostic(s)");
            }
            if let Some(path) = analysis {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read analysis {path}: {e}"))?;
                sfr_power::obs::check_analysis(&text)
                    .map_err(|e| format!("invalid analysis {path}: {e}"))?;
                println!("analysis {path}: ok");
            }
            if let Some(path) = report {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read report {path}: {e}"))?;
                let n = sfr_power::obs::check_report(&text)
                    .map_err(|e| format!("invalid report {path}: {e}"))?;
                println!("report {path}: ok — {n} timeline entry(ies)");
            }
            Ok(())
        }
        _ => {
            usage();
            Err(format!("unknown command `{cmd}`"))
        }
    }
}

/// Prints the grade table to stdout and turns incidents into a nonzero
/// exit. Shared by `grade` and `shard serve` so the local and
/// distributed paths emit byte-identical output.
fn print_grade_table(name: &str, threshold: f64, study: &sfr_power::Study) -> Result<(), String> {
    println!(
        "{name}: fault-free datapath power {:.2} uW; band ±{threshold}%",
        study.baseline.mean_uw
    );
    let mut flagged = 0;
    for g in &study.grades {
        if g.flagged {
            flagged += 1;
        }
        println!(
            "  {:<14} {:>9.2} uW {:>+8.2}% {}",
            g.fault.to_string(),
            g.mean_uw,
            g.pct_change,
            if g.flagged { "DETECTED" } else { "" }
        );
    }
    println!(
        "{flagged}/{} undetectable faults flagged by power",
        study.grades.len()
    );
    if !study.is_clean() {
        eprint!("{}", sfr_power::render_incidents(study));
        return Err(format!(
            "study completed with {} incident(s)",
            study.incidents.len()
        ));
    }
    Ok(())
}

fn sfr_netlist_stats(nl: &sfr_power::Netlist) -> String {
    sfr_power::NetlistStats::of(nl).to_string()
}

/// Renders a normalized lint report as the `sfr-lint` JSON object
/// validated by `sfr obs-check --diagnostics`.
fn render_lint_json(subject: &str, report: &sfr_power::LintReport) -> String {
    use sfr_power::obs::json::escaped;
    use sfr_power::Severity;
    let mut out = String::from("{\"tool\":\"sfr-lint\",\"subject\":");
    out.push_str(&escaped(subject));
    out.push_str(",\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let span = match d.location.span {
            Some((line, col)) => format!("[{line},{col}]"),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"rule\":{},\"severity\":{},\"subject\":{},\"span\":{span},\"message\":{}}}",
            escaped(d.rule),
            escaped(&d.severity.to_string()),
            escaped(&d.location.subject),
            escaped(&d.message)
        ));
    }
    out.push_str(&format!(
        "],\"counts\":{{\"error\":{},\"warning\":{},\"info\":{}}}}}",
        report.error_count(),
        report.count(Severity::Warning),
        report.count(Severity::Info)
    ));
    out
}

/// The stable order static rules are attributed and printed in:
/// structural CFR proofs cheapest-first, then the abstract-interpretation
/// proofs, then the exhaustive fallbacks.
const ANALYZE_RULES: [&str; 6] = [
    "dead-cone",
    "constant-site",
    "masked-propagation",
    "parity-cancellation",
    "table-cfr",
    "oracle-sfr",
];

/// What `sfr analyze` computed for one benchmark.
struct AnalysisReport {
    benchmark: String,
    width: usize,
    uncollapsed: usize,
    universe: usize,
    class_count: usize,
    merged: usize,
    chain_buffer: usize,
    chain_controlling: usize,
    collapse_ratio: f64,
    dominance_pairs: usize,
    cfr: usize,
    sfr: usize,
    undecided: usize,
    by_rule: Vec<(&'static str, usize)>,
    collapse_only: usize,
    static_only: usize,
    combined: usize,
}

impl AnalysisReport {
    fn reduction_pct(&self) -> f64 {
        if self.universe == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.combined as f64 / self.universe as f64)
        }
    }

    /// The `sfr-analyze` JSON object validated by
    /// `sfr obs-check --analysis`.
    fn render_json(&self) -> String {
        use sfr_power::obs::json::{escaped, num};
        let by_rule: Vec<String> = self
            .by_rule
            .iter()
            .map(|(rule, n)| format!("{}:{n}", escaped(rule)))
            .collect();
        format!(
            "{{\"tool\":\"sfr-analyze\",\"benchmark\":{},\"width\":{},\
             \"universe\":{{\"uncollapsed\":{},\"collapsed\":{}}},\
             \"classes\":{{\"count\":{},\"merged\":{},\"chain_buffer\":{},\
             \"chain_controlling\":{},\"collapse_ratio\":{},\"dominance_pairs\":{}}},\
             \"static\":{{\"cfr\":{},\"sfr\":{},\"undecided\":{},\"by_rule\":{{{}}}}},\
             \"simulate\":{{\"collapse_only\":{},\"static_only\":{},\"combined\":{},\
             \"reduction_pct\":{}}}}}",
            escaped(&self.benchmark),
            self.width,
            self.uncollapsed,
            self.universe,
            self.class_count,
            self.merged,
            self.chain_buffer,
            self.chain_controlling,
            num(self.collapse_ratio),
            self.dominance_pairs,
            self.cfr,
            self.sfr,
            self.undecided,
            by_rule.join(","),
            self.collapse_only,
            self.static_only,
            self.combined,
            num(self.reduction_pct()),
        )
    }
}

impl std::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} (width {}) — static fault analysis:",
            self.benchmark, self.width
        )?;
        writeln!(
            f,
            "  fault universe:      {} site-collapsed faults ({} uncollapsed)",
            self.universe, self.uncollapsed
        )?;
        writeln!(
            f,
            "  equivalence classes: {} ({} folded: {} buf/inv chain, {} controlling link; \
             ratio {:.3})",
            self.class_count,
            self.merged,
            self.chain_buffer,
            self.chain_controlling,
            self.collapse_ratio
        )?;
        writeln!(
            f,
            "  dominance pairs:     {} (reported, not merged)",
            self.dominance_pairs
        )?;
        writeln!(
            f,
            "  statically decided:  {} CFR + {} SFR of {} ({} undecided)",
            self.cfr, self.sfr, self.universe, self.undecided
        )?;
        for (rule, n) in &self.by_rule {
            writeln!(f, "    {rule:<20} {n}")?;
        }
        writeln!(
            f,
            "  campaign after --static-prune --collapse: {} of {} faults \
             ({:.1}% fewer simulated)",
            self.combined,
            self.universe,
            self.reduction_pct()
        )
    }
}

/// Runs the static layer — fault collapsing plus the rule/table/oracle
/// attribution — over one benchmark, reporting phases, counters, and
/// the collapse trace record to `progress` exactly as a campaign would.
fn run_analysis(
    name: &str,
    width: usize,
    sys: &System,
    threads: usize,
    progress: &dyn Progress,
) -> AnalysisReport {
    use sfr_power::exec::{par_map_indexed, Phase, PhaseTimer, ProgressEvent, TraceRecord};

    let faults = sys.controller_faults();
    let uncollapsed = sys.controller_faults_uncollapsed().len();

    let timer = PhaseTimer::start(progress, Phase::Collapse);
    let classes = sfr_power::FaultClasses::build(&sys.netlist, &faults);
    for _ in 0..classes.merged_count() {
        progress.event(ProgressEvent::FaultCollapsed);
    }
    if progress.wants_records() {
        progress.record(&TraceRecord::Collapse {
            universe: classes.len(),
            classes: classes.class_count(),
            merged: classes.merged_count(),
        });
    }
    timer.finish();

    let timer = PhaseTimer::start(progress, Phase::Lint);
    let analysis = sfr_power::analyze_controller_static(sys);
    let labels = par_map_indexed(threads, faults.len(), |i| {
        sfr_power::static_rule_label(sys, &analysis, faults[i])
    });
    for _ in labels.iter().flatten() {
        progress.event(ProgressEvent::FaultPruned);
    }
    timer.finish();

    let mut by_rule: Vec<(&'static str, usize)> = ANALYZE_RULES.iter().map(|&r| (r, 0)).collect();
    let mut undecided_classes = std::collections::BTreeSet::new();
    let mut undecided = 0;
    for (i, label) in labels.iter().enumerate() {
        match label {
            Some(rule) => {
                if let Some(slot) = by_rule.iter_mut().find(|(r, _)| r == rule) {
                    slot.1 += 1;
                }
            }
            None => {
                undecided += 1;
                undecided_classes.insert(classes.representative(i));
            }
        }
    }
    let sfr = by_rule
        .iter()
        .find(|(r, _)| *r == "oracle-sfr")
        .map_or(0, |(_, n)| *n);
    let cfr = faults.len() - undecided - sfr;

    AnalysisReport {
        benchmark: name.to_string(),
        width,
        uncollapsed,
        universe: faults.len(),
        class_count: classes.class_count(),
        merged: classes.merged_count(),
        chain_buffer: classes.chain_buffer_merges(),
        chain_controlling: classes.chain_controlling_merges(),
        collapse_ratio: classes.collapse_ratio(),
        dominance_pairs: classes.dominance_pairs(),
        cfr,
        sfr,
        undecided,
        by_rule,
        collapse_only: classes.class_count(),
        static_only: undecided,
        combined: undecided_classes.len(),
    }
}

/// Parses a fault spec like `g21.out/sa1` or `g7.in2/sa0` against the
/// system's controller fault universe.
fn parse_fault(sys: &System, spec: &str) -> Result<StuckAt, String> {
    sys.controller_faults()
        .into_iter()
        .find(|f| f.to_string() == spec)
        .ok_or_else(|| {
            format!("`{spec}` is not a controller fault of this system (try `sfr classify`)")
        })
}

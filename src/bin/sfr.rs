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
//! `--collapse` on `classify`/`grade` enables structural
//! fault collapsing: structurally equivalent controller faults (BUF/INV
//! chains, controlling-value links through fanout-free nets) are folded
//! into equivalence classes and only one representative per class is
//! simulated and power-graded; every member inherits its
//! representative's verdict and grade, so the tables and the campaign
//! fingerprint are byte-identical to the uncollapsed run at any thread
//! count and engine.
//!
//! `analyze` plans a `--static-prune --collapse` campaign over a
//! benchmark *without* running it and reports the plan: the collapsed
//! fault universe, the equivalence-class partition with per-rule merge
//! attribution, the statically-decided CFR/SFR split (dead cone,
//! constant site, abstract-interpretation masking/parity, exhaustive
//! table, oracle), and how many faults the campaign would simulate.
//! `--format json` emits the same report machine-readably (validated by
//! `sfr obs-check --analysis`).
//!
//! `vcd` dumps a waveform of one computation run (optionally with a
//! controller fault injected, e.g. `--fault g21.out/sa1`) for any VCD
//! viewer.
//!
//! A command refuses any flag it does not read, with exit code 1.
//! The campaign commands (`classify`, `grade`, `testprogram`) and
//! `analyze` accept the observability flags: `--trace-out FILE`
//! streams a structured JSONL event trace, `--metrics-out FILE` exports
//! a Prometheus text snapshot (plus a human summary on stderr),
//! `--manifest-out FILE` (grade/testprogram) writes a deterministic run
//! manifest — refusing to overwrite an existing one unless `--force` is
//! given — and `--quiet` silences the live status line. All
//! observability output goes to stderr or the named files; stdout
//! carries only the result tables, byte-identical with every sink on or
//! off. `obs-check` validates previously written artifacts.

use sfr_power::exec::EngineKind;
use sfr_power::obs::Sinks;
use sfr_power::{
    benchmarks, classify_system_journaled, classify_system_planned, describe_effect, CampaignPlan,
    ClassifyConfig, EmittedSystem, Logic, StuckAt, StudyBuilder, System, SystemConfig,
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
         sfr obs-check   [--trace FILE] [--manifest FILE] [--metrics FILE]\n                  \
         [--diagnostics FILE] [--analysis FILE]\n\
         observability (classify/grade/analyze/testprogram): [--trace-out FILE] [--metrics-out FILE]\n                  \
         [--quiet]; grade/testprogram also [--manifest-out FILE] [--force]\n\
         benchmarks: diffeq | facet | poly | fir\n\
         engines: tape (default) | serial"
    );
    ExitCode::FAILURE
}

/// Minimal `--key value` argument scanner. Each command takes the flags
/// it reads; [`finish`](Self::finish) then refuses whatever is left.
struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Removes `name VALUE` and returns the value.
    fn flag(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(pos) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if pos + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        self.rest.remove(pos);
        Ok(Some(self.rest.remove(pos)))
    }

    /// Removes `name VALUE` and parses the value, or returns `default`.
    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name)? {
            Some(v) => v.parse().map_err(|_| format!("bad {name}")),
            None => Ok(default),
        }
    }

    /// Removes a bare switch (no value) and reports whether it was
    /// present.
    fn switch(&mut self, name: &str) -> bool {
        let pos = self.rest.iter().position(|a| a == name);
        pos.map(|pos| self.rest.remove(pos)).is_some()
    }

    /// Removes the first argument that is not a flag.
    fn positional(&mut self) -> Option<String> {
        let pos = self.rest.iter().position(|a| !a.starts_with("--"))?;
        Some(self.rest.remove(pos))
    }

    /// Refuses the arguments no flag or positional took.
    fn finish(self) -> Result<(), String> {
        let unread = self.rest.first();
        unread.map_or(Ok(()), |arg| Err(format!("unexpected argument `{arg}`")))
    }

    /// `--width N` (default 4).
    fn width(&mut self) -> Result<usize, String> {
        self.parsed("--width", 4)
    }

    /// `--threads N` (default 1; 0 = all cores).
    fn threads(&mut self) -> Result<usize, String> {
        match self.parsed("--threads", 1)? {
            0 => Ok(sfr_power::exec::default_threads()),
            threads => Ok(threads),
        }
    }

    /// `--engine NAME` (default tape) on `threads` workers.
    fn engine(&mut self, threads: usize) -> Result<EngineKind, String> {
        match self.flag("--engine")? {
            Some(name) => EngineKind::parse(&name, threads)
                .ok_or_else(|| format!("unknown engine `{name}` (serial|tape)")),
            None => Ok(EngineKind::Tape(threads)),
        }
    }

    /// `--format text|json` (default text); true for json.
    fn json(&mut self) -> Result<bool, String> {
        match self.flag("--format")?.as_deref() {
            None | Some("text") => Ok(false),
            Some("json") => Ok(true),
            Some(other) => Err(format!("unknown format `{other}` (text|json)")),
        }
    }

    /// The observability flags `--trace-out FILE`, `--metrics-out FILE`
    /// and `--quiet`, as the opener of their sinks.
    fn observers(&mut self) -> Result<impl FnOnce() -> Result<Sinks, String>, String> {
        let (trace, metrics) = (self.flag("--trace-out")?, self.flag("--metrics-out")?);
        let quiet = self.switch("--quiet");
        Ok(move || Sinks::open(trace.as_deref(), metrics.as_deref(), quiet))
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

/// Builds a benchmark's integrated system. A command that drives it
/// with test patterns (`tested`) refuses widths whose data inputs do
/// not fit one pattern word.
fn build_system(name: &str, width: usize, tested: bool) -> Result<System, String> {
    let emitted = build_bench(name, width)?;
    if tested {
        sfr_power::check_pattern_width(name, &emitted).map_err(|e| e.to_string())?;
    }
    System::build(&emitted, SystemConfig::default()).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage();
    }
    let cmd = argv.remove(0);
    match run(&cmd, Args { rest: argv }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: &str, mut args: Args) -> Result<(), String> {
    match cmd {
        "classify" => {
            let width = args.width()?;
            let patterns = args.parsed("--patterns", 1200)?;
            let threads = args.threads()?;
            let engine = args.engine(threads)?.build();
            let static_prune = args.switch("--static-prune");
            let collapse = args.switch("--collapse");
            let open_sinks = args.observers()?;
            let name = args.positional().ok_or("missing benchmark name")?;
            args.finish()?;
            let sys = build_system(&name, width, true)?;
            let sinks = open_sinks()?;
            let plan = CampaignPlan::build(&sys, static_prune, collapse, engine.threads(), &sinks);
            let (c, _quarantined) = classify_system_planned(
                &sys,
                &ClassifyConfig {
                    test_patterns: patterns,
                    ..Default::default()
                },
                engine.as_ref(),
                &sinks,
                None,
                &plan,
            );
            sinks.finish()?;
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
            let width = args.width()?;
            let patterns = args.parsed("--patterns", 1200)?;
            let threshold = args.parsed("--threshold", 5.0)?;
            let threads = args.threads()?;
            let engine = args.engine(threads)?;
            let static_prune = args.switch("--static-prune");
            let collapse = args.switch("--collapse");
            let checkpoint = args.flag("--checkpoint")?;
            let resume = args.flag("--resume")?;
            let cycle_budget = args
                .flag("--cycle-budget")?
                .map(|s| s.parse().map_err(|_| "bad --cycle-budget"))
                .transpose()?;
            let manifest_out = args.flag("--manifest-out")?;
            let force = args.switch("--force");
            let open_sinks = args.observers()?;
            let name = args.positional().ok_or("missing benchmark name")?;
            args.finish()?;
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
            let sinks = open_sinks()?;
            let study = prepared.run_with(&sinks);
            sinks.finish()?;
            if let Some(path) = &manifest_out {
                // run_with already warned on stderr if the write failed.
                if std::path::Path::new(path).exists() {
                    eprintln!("manifest written to {path}");
                }
            }
            print_grade_table(&name, threshold, &study)
        }
        "lint" => {
            let width = args.width()?;
            let json = args.json()?;
            let fixture = args.switch("--fixture");
            let name = if fixture {
                None
            } else {
                Some(args.positional().ok_or("missing benchmark name")?)
            };
            args.finish()?;
            let (subject, mut report) = match name {
                None => ("fixture".to_string(), sfr_power::fixture_report()),
                Some(name) => {
                    let sys = build_system(&name, width, false)?;
                    (name, sfr_power::lint_system(&sys))
                }
            };
            report.normalize();
            if json {
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
            let width = args.width()?;
            let threads = args.threads()?;
            let json = args.json()?;
            let open_sinks = args.observers()?;
            let name = args.positional().ok_or("missing benchmark name")?;
            args.finish()?;
            let sys = build_system(&name, width, false)?;
            let sinks = open_sinks()?;
            // The plan reports its phases, counters and collapse record
            // exactly as the campaign would.
            let report = AnalysisReport {
                benchmark: name,
                width,
                uncollapsed: sys.controller_faults_uncollapsed().len(),
                plan: CampaignPlan::build(&sys, true, true, threads, &sinks),
            };
            sinks.finish()?;
            if json {
                println!("{}", report.render_json());
            } else {
                print!("{report}");
            }
            Ok(())
        }
        "stats" => {
            let width = args.width()?;
            let name = args.positional().ok_or("missing benchmark name")?;
            args.finish()?;
            let sys = build_system(&name, width, false)?;
            println!("{name} (width {width}) — integrated system:");
            print!("{}", sfr_power::NetlistStats::of(&sys.netlist));
            println!("controller alone:");
            print!("{}", sfr_power::NetlistStats::of(&sys.ctrl_netlist));
            println!(
                "controller fault universe: {} collapsed stuck-at faults",
                sys.controller_faults().len()
            );
            Ok(())
        }
        "vcd" => {
            let width = args.width()?;
            let fault_spec = args.flag("--fault")?;
            let out_file = args.flag("--out")?;
            let name = args.positional().ok_or("missing benchmark name")?;
            args.finish()?;
            let sys = build_system(&name, width, false)?;
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
            let width = args.width()?;
            let out_file = args.flag("--out")?;
            let name = args.positional().ok_or("missing benchmark name")?;
            args.finish()?;
            let sys = build_system(&name, width, false)?;
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
            let width = args.width()?;
            let patterns = args.parsed("--patterns", 1200)?;
            let threshold = args.parsed("--threshold", 5.0)?;
            let threads = args.threads()?;
            let engine = args.engine(threads)?;
            let out_file = args.flag("--out")?;
            let manifest_out = args.flag("--manifest-out")?;
            let force = args.switch("--force");
            let open_sinks = args.observers()?;
            let name = args.positional().ok_or("missing benchmark name")?;
            args.finish()?;
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
            let sinks = open_sinks()?;
            let study = prepared.run_with(&sinks);
            sinks.finish()?;
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
            let width = args.width()?;
            let patterns = args.parsed("--patterns", 1200)?;
            let threads = args.threads()?;
            let engine = args.engine(threads)?.build();
            args.finish()?;
            for name in ["diffeq", "facet", "poly"] {
                let sys = build_system(name, width, true)?;
                let (c, _quarantined) = classify_system_journaled(
                    &sys,
                    &ClassifyConfig {
                        test_patterns: patterns,
                        ..Default::default()
                    },
                    engine.as_ref(),
                    &sfr_power::exec::NullProgress,
                    None,
                );
                println!(
                    "{name:<8} {:>5} faults  {:>4} SFR  {:>5.1}%",
                    c.total(),
                    c.sfr_count(),
                    c.percent_sfr()
                );
            }
            Ok(())
        }
        "obs-check" => {
            use sfr_power::obs;
            type Check = fn(&str) -> Result<String, String>;
            let checks: [(&str, &str, Check); 5] = [
                ("--trace", "trace", |text| {
                    let s = obs::check_trace(text)?;
                    Ok(format!(
                        " — {} lines, {} spans ({} aborted), {} packs, {} chunks, \
                         {} quarantines, {} budget hits, {} collapse record(s)",
                        s.lines,
                        s.spans,
                        s.aborted_spans,
                        s.packs,
                        s.chunks,
                        s.quarantines,
                        s.budgets,
                        s.collapses
                    ))
                }),
                ("--manifest", "manifest", |text| {
                    obs::check_manifest(text).map(|()| String::new())
                }),
                ("--metrics", "metrics", |text| {
                    obs::check_metrics(text).map(|n| format!(" — {n} samples"))
                }),
                ("--diagnostics", "diagnostics", |text| {
                    obs::check_diagnostics(text).map(|n| format!(" — {n} diagnostic(s)"))
                }),
                ("--analysis", "analysis", |text| {
                    obs::check_analysis(text).map(|()| String::new())
                }),
            ];
            let mut files = Vec::new();
            for (flag, kind, check) in checks {
                if let Some(path) = args.flag(flag)? {
                    files.push((kind, path, check));
                }
            }
            args.finish()?;
            if files.is_empty() {
                return Err(
                    "obs-check needs at least one of --trace, --manifest, --metrics, \
                            --diagnostics, --analysis"
                        .into(),
                );
            }
            for (kind, path, check) in files {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {kind} {path}: {e}"))?;
                let summary = check(&text).map_err(|e| format!("invalid {kind} {path}: {e}"))?;
                println!("{kind} {path}: ok{summary}");
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
/// exit.
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

/// What `sfr analyze` reports for one benchmark: the plan of a
/// `--static-prune --collapse` campaign over it, not run.
struct AnalysisReport {
    benchmark: String,
    width: usize,
    uncollapsed: usize,
    plan: CampaignPlan,
}

impl AnalysisReport {
    fn classes(&self) -> &sfr_power::FaultClasses {
        self.plan.classes().expect("a collapsing plan has classes")
    }

    /// The statically decided CFR and SFR faults, and the undecided ones.
    fn split(&self) -> (usize, usize, usize) {
        let universe = self.plan.universe().len();
        let decided: Vec<_> = (0..universe)
            .filter_map(|i| self.plan.decision(i))
            .collect();
        let sfr = decided.iter().filter(|(_, r)| r.class.is_sfr()).count();
        (decided.len() - sfr, sfr, universe - decided.len())
    }

    fn reduction_pct(&self) -> f64 {
        let universe = self.plan.universe().len();
        if universe == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.plan.campaign().len() as f64 / universe as f64)
        }
    }

    /// The `sfr-analyze` JSON object validated by
    /// `sfr obs-check --analysis`.
    fn render_json(&self) -> String {
        use sfr_power::obs::json::{escaped, num};
        let (classes, (cfr, sfr, undecided)) = (self.classes(), self.split());
        let by_rule: Vec<String> = self
            .plan
            .rule_counts()
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
            self.plan.universe().len(),
            classes.class_count(),
            classes.merged_count(),
            classes.chain_buffer_merges(),
            classes.chain_controlling_merges(),
            num(classes.collapse_ratio()),
            classes.dominance_pairs(),
            cfr,
            sfr,
            undecided,
            by_rule.join(","),
            classes.class_count(),
            undecided,
            self.plan.campaign().len(),
            num(self.reduction_pct()),
        )
    }
}

impl std::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (classes, (cfr, sfr, undecided)) = (self.classes(), self.split());
        let universe = self.plan.universe().len();
        writeln!(
            f,
            "{} (width {}) — static fault analysis:",
            self.benchmark, self.width
        )?;
        writeln!(
            f,
            "  fault universe:      {universe} site-collapsed faults ({} uncollapsed)",
            self.uncollapsed
        )?;
        writeln!(
            f,
            "  equivalence classes: {} ({} folded: {} buf/inv chain, {} controlling link; \
             ratio {:.3})",
            classes.class_count(),
            classes.merged_count(),
            classes.chain_buffer_merges(),
            classes.chain_controlling_merges(),
            classes.collapse_ratio()
        )?;
        writeln!(
            f,
            "  dominance pairs:     {} (reported, not merged)",
            classes.dominance_pairs()
        )?;
        writeln!(
            f,
            "  statically decided:  {cfr} CFR + {sfr} SFR of {universe} ({undecided} undecided)"
        )?;
        for (rule, n) in self.plan.rule_counts() {
            writeln!(f, "    {rule:<20} {n}")?;
        }
        writeln!(
            f,
            "  campaign after --static-prune --collapse: {} of {universe} faults \
             ({:.1}% fewer simulated)",
            self.plan.campaign().len(),
            self.reduction_pct()
        )
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

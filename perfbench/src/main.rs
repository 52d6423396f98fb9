//! Whole-study benchmark of the sfr-power pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-width --seed 44257 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference
//! ```
//!
//! One process drives one workload's studies one at a time (a closed
//! loop with one caller), repeating the whole workload in passes until
//! `--seconds` have elapsed, and prints, as its last stdout line, one
//! JSON object: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). See NOTES.md.

mod probe;
mod study;
mod traced;

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::Probe;
use study::{
    run_reference, run_untraced, sub_seed, Digest, Kind, Workload, DEFAULT_SEED, SEED_CYCLE,
};
use traced::{check_nesting, layer_metrics, run_traced, self_times, Counts, Span, Tracer};

/// Reference digests at [`DEFAULT_SEED`]: `workload<TAB>study<TAB>table<TAB>fingerprint`.
const REFERENCE: &str = include_str!("../reference.tsv");
const REFERENCE_PATH: &str = "perfbench/reference.tsv";
const WORK_DIR: &str = ".bench_work";

type Refs = HashMap<(String, String), Digest>;

fn parse_refs(text: &str) -> Result<Refs, String> {
    let mut refs = Refs::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.split('\t').collect();
        let digest = match f.as_slice() {
            [_, _, table, fp] => Digest::parse(table, fp),
            _ => None,
        }
        .ok_or(format!("bad reference line: {line}"))?;
        refs.insert((f[0].to_string(), f[1].to_string()), digest);
    }
    Ok(refs)
}

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--write-reference" => args.write_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !args.smoke && !args.write_reference {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let refs = match parse_refs(REFERENCE) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let code = if args.smoke {
        smoke(&refs, &dir)
    } else if args.write_reference {
        write_reference(&dir)
    } else {
        let kind = args.workload.expect("checked in parse_args");
        let ws = inputs(kind, args.seed, false, args.trace);
        let report = bench(&ws, &refs, args.seconds, args.trace, &dir, started);
        if args.trace {
            write_spans(kind, args.seed, &report.spans);
        }
        println!("{}", report.json());
        ExitCode::SUCCESS
    };
    let _ = std::fs::remove_dir_all(&dir);
    code
}

/// One metric as printed.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// The last traced pass's spans (none untraced).
    spans: Vec<Span>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Checks one pass's digests: against the committed reference at the
/// default seed, else against the run's first untraced pass.
struct Checker<'a> {
    w: &'a Workload,
    expected: Vec<Option<Digest>>,
    attempted: usize,
    failed: usize,
}

impl<'a> Checker<'a> {
    fn new(w: &'a Workload, refs: &Refs) -> Checker<'a> {
        let expected = w
            .specs
            .iter()
            .map(|s| {
                if w.seed == DEFAULT_SEED {
                    // A study missing from the reference fails: no digest
                    // matches the all-ones placeholder.
                    Some(
                        refs.get(&(w.kind.name().to_string(), s.label.clone()))
                            .copied()
                            .unwrap_or(Digest {
                                table: u64::MAX,
                                fingerprint: None,
                            }),
                    )
                } else {
                    None
                }
            })
            .collect();
        Checker {
            w,
            expected,
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, pass: &str, i: usize, digest: &Result<Digest, String>, verbose: bool) {
        self.attempted += 1;
        let label = &self.w.specs[i].label;
        let verdict = match (digest, self.expected[i]) {
            (Err(e), _) => Err(e.clone()),
            (Ok(d), None) => {
                self.expected[i] = Some(*d);
                Ok(*d)
            }
            (Ok(d), Some(want)) if *d == want => Ok(*d),
            (Ok(d), Some(want)) => Err(format!("digest {d} differs from expected {want}")),
        };
        match verdict {
            Ok(d) if verbose => println!(
                "seed={:#x} workload={} pass={pass} study={label} digest={d} ok",
                self.w.seed,
                self.w.kind.name()
            ),
            Ok(_) => {}
            Err(e) => {
                self.failed += 1;
                println!(
                    "seed={:#x} workload={} pass={pass} study={label} FAILED: {e}",
                    self.w.seed,
                    self.w.kind.name()
                );
            }
        }
    }
}

/// One untraced pass over the workload.
struct Pass {
    /// Time in the studies, probe samples excluded.
    wall: Duration,
    setup: Duration,
    /// Median probe sample time over the pass, seconds.
    probe: f64,
    /// Per study, the first pass's manifest phases (audited only).
    phases: Vec<Vec<(String, f64)>>,
}

impl Pass {
    /// Scales a time measured in this pass to the probe's reference host.
    fn scaled(&self, d: Duration) -> f64 {
        d.as_secs_f64() * probe::REFERENCE_S / self.probe
    }
}

/// Runs the studies one after another, sampling the probe before the
/// first, after the last, and between two studies once
/// [`probe::INTERVAL`] of study time has passed since the last sample.
fn untraced_pass(
    w: &Workload,
    dir: &Path,
    checker: &mut Checker,
    pass: usize,
    verbose: bool,
    probe: &Probe,
) -> Pass {
    let (mut wall, mut setup, mut unprobed) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut samples = vec![probe.sample()];
    let mut phases = Vec::new();
    for (i, spec) in w.specs.iter().enumerate() {
        if unprobed >= probe::INTERVAL {
            samples.push(probe.sample());
            unprobed = Duration::ZERO;
        }
        let t = Instant::now();
        let run = run_untraced(w, spec, dir);
        let took = t.elapsed();
        wall += took;
        unprobed += took;
        setup += run.setup;
        checker.check(&pass.to_string(), i, &run.digest, verbose);
        phases.push(run.phases);
    }
    samples.push(probe.sample());
    Pass {
        wall,
        setup,
        probe: median(&samples),
        phases,
    }
}

/// One traced pass: its wall time, per-layer metrics, spans, and the
/// traced phase totals per study.
struct TracedPass {
    wall: Duration,
    layers: BTreeMap<&'static str, f64>,
    spans: Vec<Span>,
    phase_spans: Vec<Vec<(&'static str, f64)>>,
}

fn traced_pass(
    w: &Workload,
    dir: &Path,
    checker: &mut Checker,
    n: usize,
    verbose: bool,
) -> TracedPass {
    let tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut phase_spans = Vec::new();
    let t = Instant::now();
    for (i, spec) in w.specs.iter().enumerate() {
        let run = run_traced(w, spec, dir, &tracer, i, &mut counts);
        checker.check(&format!("traced-{n}"), i, &run.digest, verbose);
        phase_spans.push(run.phase_spans);
    }
    let wall = t.elapsed();
    let spans = tracer.spans_since(0);
    TracedPass {
        wall,
        layers: layer_metrics(&spans, &counts),
        spans,
        phase_spans,
    }
}

/// Gap between traced phase spans and manifest phase times, % of the
/// manifest's total, summed over studies (0 without manifests).
fn phase_gap(manifest: &[Vec<(String, f64)>], traced: &[Vec<(&'static str, f64)>]) -> f64 {
    let mut by_phase: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (m, t) in manifest.iter().zip(traced) {
        if m.is_empty() {
            continue;
        }
        for &(name, span_ms) in t {
            let manifest_ms: f64 = m.iter().filter(|(n, _)| n == name).map(|(_, ms)| ms).sum();
            let e = by_phase.entry(name).or_default();
            e.0 += span_ms;
            e.1 += manifest_ms;
        }
    }
    let (mut gap, mut total) = (0.0, 0.0);
    for (name, (span_ms, manifest_ms)) in &by_phase {
        println!("phase {name}: traced spans {span_ms:.3} ms, manifest {manifest_ms:.3} ms");
        gap += (span_ms - manifest_ms).abs();
        total += manifest_ms;
    }
    if total == 0.0 {
        0.0
    } else {
        gap * 100.0 / total
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_ratio") || name.ends_with("_util") {
        "ratio"
    } else if name.ends_with("bytes") {
        "bytes"
    } else if name.ends_with("_pct") {
        "%"
    } else {
        "count"
    }
}

/// The inputs a run cycles through, one per pass: untraced, the workload
/// on [`SEED_CYCLE`] input seeds, the first of them `seed` itself; traced,
/// on `seed` alone, so that its counts repeat exactly pass by pass.
fn inputs(kind: Kind, seed: u64, smoke: bool, trace: bool) -> Vec<Workload> {
    let cycle = if trace { 1 } else { SEED_CYCLE };
    (0..cycle)
        .map(|k| Workload::new(kind, sub_seed(seed, k), smoke))
        .collect()
}

/// Runs the workload for `seconds` (at least one pass) and reports.
/// Pass `n` runs input `(n - 1) % inputs.len()`; each input's studies are
/// checked against the reference (at the default seed) or against that
/// input's first pass.
fn bench(
    workloads: &[Workload],
    refs: &Refs,
    seconds: f64,
    trace: bool,
    dir: &Path,
    started: Instant,
) -> Report {
    let (kind, cycle) = (workloads[0].kind, workloads.len());
    for (k, w) in workloads.iter().enumerate() {
        println!(
            "workload={} seed={:#x} input={k} input_seed={:#x} studies={} threads={} seeds: tpg={:#x} mc={:#x} fill={:#x}",
            kind.name(),
            workloads[0].seed,
            w.seed,
            w.specs.len(),
            w.threads,
            w.seeds.tpg,
            w.seeds.mc,
            w.seeds.fill
        );
    }
    let mut checkers: Vec<Checker> = workloads.iter().map(|w| Checker::new(w, refs)).collect();
    let probe = Probe::new();
    let budget = Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let mut gaps = Vec::new();
    loop {
        let n = passes.len() + 1;
        let k = (n - 1) % cycle;
        let (w, checker) = (&workloads[k], &mut checkers[k]);
        let verbose = n <= cycle;
        let pass = untraced_pass(w, dir, checker, n, verbose, &probe);
        if trace {
            let t = traced_pass(w, dir, checker, n, verbose);
            if kind == Kind::Audited {
                gaps.push(phase_gap(&pass.phases, &t.phase_spans));
            }
            traced.push(t);
        }
        passes.push(pass);
        if started.elapsed() >= budget {
            break;
        }
    }
    let n = passes.len();
    let raw_walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let raw_setups: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.scaled(p.wall)).collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.scaled(p.setup)).collect();
    let probes_ms: Vec<f64> = passes.iter().map(|p| p.probe * 1e3).collect();
    println!(
        "passes={n} over {} input seed(s): wall_s and setup_s are medians over {n} untraced passes, \
         scaled to the probe's reference host{}",
        cycle.min(n),
        if trace {
            ", per-layer times medians over as many traced passes"
        } else {
            ""
        }
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("pass probe_ms: {}", list(&probes_ms));
    println!("pass raw wall_s: {}", list(&raw_walls));
    println!("pass wall_s: {}", list(&walls));
    println!("pass setup_s: {}", list(&setups));
    println!(
        "raw medians: wall_s {:.4} setup_s {:.4}",
        median(&raw_walls),
        median(&raw_setups)
    );
    if trace {
        let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall.as_secs_f64()).collect();
        println!("traced pass raw wall_s: {}", list(&traced_walls));
    }
    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    let attempted: usize = checkers.iter().map(|c| c.attempted).sum();
    let failed: usize = checkers.iter().map(|c| c.failed).sum();
    if !trace {
        push("wall_s", median(&walls), "s");
        push("setup_s", median(&setups), "s");
        push("peak_rss_mb", peak_rss_mib(), "MiB");
        push(
            "ok_ops",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        );
    } else {
        for name in traced[0].layers.keys() {
            let values: Vec<f64> = traced.iter().map(|t| t.layers[name]).collect();
            push(name, median(&values), unit_of(name));
        }
        // Each traced pass against the untraced pass just before it, so
        // drifts in host speed between pairs cancel.
        let overheads: Vec<f64> = traced
            .iter()
            .zip(&raw_walls)
            .map(|(t, &plain)| (t.wall.as_secs_f64() / plain - 1.0) * 100.0)
            .collect();
        push("bench.trace_overhead_pct", median(&overheads), "%");
        push("bench.phase_gap_pct", median(&gaps), "%");
        push("bench.raw_wall_s", median(&raw_walls), "s");
        push("bench.probe_ms", median(&probes_ms), "ms");
    }
    Report {
        attempted,
        failed,
        metrics,
        spans: traced.pop().map(|t| t.spans).unwrap_or_default(),
    }
}

/// Writes the last traced pass's spans, with self times, next to the
/// run directories.
fn write_spans(kind: Kind, seed: u64, spans: &[Span]) {
    let w = Workload::new(kind, seed, false);
    let path = Path::new(WORK_DIR).join(format!("{}-seed{seed}.spans.jsonl", w.kind.name()));
    let mut out = String::new();
    for (i, spec) in w.specs.iter().enumerate() {
        out.push_str(&format!(
            "{{\"study\": {i}, \"label\": \"{}\"}}\n",
            spec.label
        ));
    }
    for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"study\": {}}}\n",
            s.name, s.start, s.end, s.study
        ));
    }
    match std::fs::write(&path, out) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }
}

/// Regenerates the reference digests at the default seed.
fn write_reference(dir: &Path) -> ExitCode {
    let mut out = String::from(
        "# Reference digests at the default seed 0xACE1: workload, study, FNV-1a of the\n\
         # rendered result table, run manifest fingerprint (- for classification-only\n\
         # studies). Regenerate with --write-reference.\n",
    );
    for kind in Kind::ALL {
        let w = Workload::new(kind, DEFAULT_SEED, false);
        for spec in &w.specs {
            match run_reference(&w, spec, dir) {
                Ok(d) => out.push_str(&format!("{}\t{}\t{}\n", kind.name(), spec.label, d.tsv())),
                Err(e) => {
                    eprintln!("error: {} {}: {e}", kind.name(), spec.label);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    match std::fs::write(REFERENCE_PATH, out) {
        Ok(()) => {
            println!("wrote {REFERENCE_PATH}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {REFERENCE_PATH}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The metric names and units `BENCHMARK.json` declares, by section.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let v = sfr_core::obs::json::parse(&text)?;
    v.get(section)
        .and_then(|s| s.as_arr())
        .ok_or(format!("BENCHMARK.json has no {section}"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(|n| n.as_str());
            let unit = m.get("unit").and_then(|u| u.as_str());
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("{section} entry without name or unit")),
            }
        })
        .collect()
}

/// The printed metrics must be exactly the declared ones, with their
/// units.
fn check_metrics(report: &Report, section: &str) -> Result<(), String> {
    let printed = sfr_core::obs::json::parse(&report.json())?;
    let metrics = printed
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or("no metrics object")?;
    let want = declared(section)?;
    if metrics.len() != want.len() {
        return Err(format!(
            "{} metrics printed, {} declared in {section}",
            metrics.len(),
            want.len()
        ));
    }
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .ok_or(format!("metric {name} not printed"))?;
        let got = m.get("unit").and_then(|u| u.as_str());
        if got != Some(unit.as_str()) {
            return Err(format!(
                "metric {name} printed with unit {got:?}, declared {unit}"
            ));
        }
        if m.get("value").and_then(|v| v.as_num()).is_none() {
            return Err(format!("metric {name} has no numeric value"));
        }
    }
    Ok(())
}

/// Smoke mode: one 4-bit design per workload, untraced and traced, plus
/// a run against a corrupted reference digest that must fail.
fn smoke(refs: &Refs, dir: &Path) -> ExitCode {
    let mut problems = Vec::new();
    for kind in Kind::ALL {
        let w = Workload::new(kind, DEFAULT_SEED, true);
        let mut check = |what: &str, r: Result<(), String>| {
            if let Err(e) = r {
                problems.push(format!("{}: {what}: {e}", kind.name()));
            }
        };
        let plain = bench(
            &inputs(kind, DEFAULT_SEED, true, false),
            refs,
            0.0,
            false,
            dir,
            Instant::now(),
        );
        check("untraced metrics", check_metrics(&plain, "end_to_end"));
        check(
            "untraced outputs",
            if plain.failed == 0 {
                Ok(())
            } else {
                Err(format!("{} studies failed", plain.failed))
            },
        );
        let traced = bench(
            &inputs(kind, DEFAULT_SEED, true, true),
            refs,
            0.0,
            true,
            dir,
            Instant::now(),
        );
        check("traced metrics", check_metrics(&traced, "per_layer"));
        check(
            "traced outputs",
            if traced.failed == 0 {
                Ok(())
            } else {
                Err(format!("{} studies failed", traced.failed))
            },
        );
        check("span nesting", check_nesting(&traced.spans));
        check(
            "spans recorded",
            if traced.spans.iter().any(|s| s.name == "faultsim.campaign") {
                Ok(())
            } else {
                Err("no campaign span".into())
            },
        );
        let mut corrupted = refs.clone();
        let key = (kind.name().to_string(), w.specs[0].label.clone());
        if let Some(d) = corrupted.get_mut(&key) {
            d.table ^= 1;
        }
        let bad = bench(
            &inputs(kind, DEFAULT_SEED, true, false),
            &corrupted,
            0.0,
            false,
            dir,
            Instant::now(),
        );
        check(
            "corrupted reference",
            if bad.failed > 0 {
                Ok(())
            } else {
                Err("a corrupted digest went unnoticed".into())
            },
        );
    }
    if problems.is_empty() {
        println!("smoke: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("smoke: {p}");
        }
        ExitCode::FAILURE
    }
}

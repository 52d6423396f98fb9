//! Grading throughput: the scalar reference vs lane-packed
//! compiled-tape Monte Carlo power grading, on the differential
//! equation solver.
//!
//! Emits `BENCH_grade.json` at the workspace root (faults/sec, simulated
//! lane-cycles/sec, speedups over the scalar reference) so the perf
//! trajectory has data points, and cross-checks that every row's
//! grades are bit-identical before reporting anything. The rows are
//! `scalar_1t` (one `CycleSim` pass per fault, one thread), `tape_1t`
//! (the 64-bit tape, 63 faults + baseline per pass, one thread) and
//! `tape_mt` (the same tape on 2 threads: the single diffeq pack's
//! Monte Carlo batches spread over both). A tracing probe times
//! alternating 1-thread tape sweeps with and without a JSONL trace
//! sink attached and reports the median paired slowdown as
//! `trace_overhead_pct` (contract: < 2%). A final probe runs a
//! coordinator + one-worker shard campaign untraced and with both
//! sides writing flight-recorder traces, and reports the wall-clock
//! delta as `shard_trace_overhead_pct` (contract: < 5%).
//!
//! Run with `cargo bench -p sfr-bench --bench grade_throughput`
//! (add `-- --quick` for the CI smoke mode: fewer faults and batches,
//! no criterion sampling — finishes in seconds).

#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use sfr_bench::quick_config;
use sfr_core::exec::{Counters, EngineKind, NullProgress, SimKernel};
use sfr_core::{
    analyze_controller_static, benchmarks, classify_system_with,
    grade_faults_journaled_with_kernel, grade_faults_scalar_with, measure_power_tape_watched,
    measure_power_with_testset, render_table1, static_rule_label, FaultClasses, GradeConfig,
    MonteCarloConfig, PowerGrade, StuckAt, System, SystemConfig, TapeProgram, TestSet,
};
use std::time::{Duration, Instant};

/// Untraced/traced sweep pairs the tracing probe times in full mode.
const TRACE_PAIRS: usize = 400;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Lane-packed tape grading on `threads` workers, without a journal.
fn grade_tape(
    sys: &System,
    faults: &[StuckAt],
    cfg: &GradeConfig,
    threads: usize,
    progress: &dyn sfr_core::exec::Progress,
) -> Vec<PowerGrade> {
    grade_faults_journaled_with_kernel(sys, faults, cfg, threads, progress, None, SimKernel::Tape)
        .grades
}

/// One engine's timed full-grading run.
struct EngineRun {
    name: &'static str,
    seconds: f64,
    mc_batches: usize,
    grades: Vec<PowerGrade>,
}

/// Times one full grading sweep and returns its seconds and grades.
fn timed(run: impl FnOnce() -> Vec<PowerGrade>) -> (f64, Vec<PowerGrade>) {
    let start = Instant::now();
    let grades = run();
    (start.elapsed().as_secs_f64(), grades)
}

/// Times one row's full grading sweep. Each row closure times its own
/// sweep so setup stays outside the clock.
fn sweep(name: &'static str, run: impl Fn(&Counters) -> Vec<PowerGrade>) -> EngineRun {
    let counters = Counters::new();
    let (seconds, grades) = timed(|| run(&counters));
    EngineRun {
        name,
        seconds,
        mc_batches: counters.snapshot().mc_batches,
        grades,
    }
}

/// Best-of-N over interleaved passes: every row is run once, then the
/// whole cycle repeats, and each row keeps its fastest observation.
/// Single short measurements are dominated by scheduler jitter and
/// frequency scaling; interleaving makes a slow window hit all engines
/// alike instead of biasing whichever row it lands on, and every run
/// computes bit-identical grades, so the fastest observation per row
/// is the honest throughput estimate.
fn best_of_interleaved(passes: usize, rows: &[Box<dyn Fn() -> EngineRun + '_>]) -> Vec<EngineRun> {
    let mut best: Vec<Option<EngineRun>> = rows.iter().map(|_| None).collect();
    for _ in 0..passes {
        for (slot, row) in rows.iter().enumerate() {
            let run = row();
            if best[slot]
                .as_ref()
                .map_or(true, |b| run.seconds < b.seconds)
            {
                best[slot] = Some(run);
            }
        }
    }
    best.into_iter()
        .map(|r| r.expect("every row ran at least once"))
        .collect()
}

/// Times one in-process coordinator + one-worker shard campaign over
/// the real TCP protocol, with the given progress sinks on each side.
/// Setup (study preparation) and teardown (journal removal) stay
/// outside the clock; the timed region is bind → serve → merge.
fn shard_campaign(
    spec: &sfr_shard::ShardSpec,
    journal: &std::path::Path,
    coordinator: &dyn sfr_core::exec::Progress,
    worker: &dyn sfr_core::exec::Progress,
) -> (f64, sfr_core::Study) {
    let _ = std::fs::remove_file(journal);
    let prepared = spec
        .study_builder()
        .checkpoint(journal)
        .build()
        .expect("shard spec builds");
    let (tx, rx) = std::sync::mpsc::channel();
    let cfg = sfr_shard::ServeConfig {
        grace: Duration::from_millis(8_000),
        bound: Some(tx),
        ..Default::default()
    };
    let start = Instant::now();
    let result = std::thread::scope(|scope| {
        let serve = scope.spawn(|| sfr_shard::serve(prepared, spec, &cfg, coordinator));
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("coordinator never bound");
        let wcfg = sfr_shard::WorkConfig {
            connect: addr.to_string(),
            worker_id: 1,
            ..Default::default()
        };
        sfr_shard::work(&wcfg, worker).expect("worker failed");
        serve.join().expect("serve thread panicked")
    });
    let seconds = start.elapsed().as_secs_f64();
    let (study, _stats) = result.expect("serve failed");
    let _ = std::fs::remove_file(journal);
    (seconds, study)
}

fn bench(c: &mut Criterion) {
    let quick = quick_mode();
    let cfg = quick_config();
    let gcfg = if quick {
        GradeConfig {
            mc: MonteCarloConfig {
                rel_tolerance: 0.05,
                min_batches: 2,
                max_batches: 3,
            },
            patterns_per_batch: 40,
            ..cfg.grade.clone()
        }
    } else {
        // Full mode grades at study scale (the `GradeConfig` defaults:
        // 120-pattern batches to 1% Monte Carlo confidence). The quick
        // batches are short enough that per-batch fixed costs dominate
        // every row and the numbers measure overhead, not simulation.
        GradeConfig::default()
    };
    let threads = 2;

    let emitted = benchmarks::diffeq(4).expect("diffeq builds");
    let sys = System::build(&emitted, cfg.system).expect("system builds");
    let engine = EngineKind::Tape(threads).build();
    let cls = classify_system_with(&sys, &cfg.classify, engine.as_ref(), &NullProgress);
    let mut faults: Vec<StuckAt> = cls.sfr().map(|f| f.fault).collect();
    if quick {
        faults.truncate(12);
    }
    eprintln!(
        "grading {} diffeq SFR faults ({} mode, {} threads for tape_mt)",
        faults.len(),
        if quick { "quick" } else { "full" },
        threads
    );

    // The batch-0 test set, for the per-batch criterion probes and the
    // lane-cycle throughput estimate.
    let ts = TestSet::pseudorandom(sys.pattern_width(), gcfg.patterns_per_batch, gcfg.seed)
        .expect("the system's test patterns fit one 64-bit word");
    let cycles_per_batch = measure_power_with_testset(&sys, None, &ts, &gcfg).cycles;

    // Full-sweep timings (these feed BENCH_grade.json).
    let rows: Vec<Box<dyn Fn() -> EngineRun + '_>> = vec![
        Box::new(|| {
            sweep("scalar_1t", |p| {
                grade_faults_scalar_with(&sys, &faults, &gcfg, p).1
            })
        }),
        Box::new(|| sweep("tape_1t", |p| grade_tape(&sys, &faults, &gcfg, 1, p))),
        Box::new(|| sweep("tape_mt", |p| grade_tape(&sys, &faults, &gcfg, threads, p))),
    ];
    let mut runs = best_of_interleaved(4, &rows).into_iter();
    let (scalar, tape, tape_mt) = (
        runs.next().expect("scalar row"),
        runs.next().expect("tape row"),
        runs.next().expect("threaded tape row"),
    );

    // The tracing probe: the same 1-thread tape sweep without and with
    // the JSONL trace sink attached. The observability contract is that
    // an enabled trace costs under 2% — events are aggregated per worker
    // and flushed at pack boundaries, never inside the lane loop. The
    // host's speed drifts by more than that between samples, so the
    // probe times `TRACE_PAIRS` adjacent pairs of sweeps, alternating
    // which goes first, and reports the median paired ratio; the writer
    // is opened and finalized outside the clock.
    let trace_path = std::env::temp_dir().join("sfr_grade_throughput_trace.jsonl");
    let trace_pairs = if quick { 3 } else { TRACE_PAIRS };
    let (trace_overhead_pct, traced_grades) = {
        let plain = Counters::new();
        let counted = Counters::new();
        let trace = sfr_core::obs::TraceWriter::create(&trace_path).expect("trace file opens");
        let sinks: [&dyn sfr_core::exec::Progress; 2] = [&counted, &trace];
        let tee = sfr_core::exec::Tee::new(&sinks);
        let time =
            |p: &dyn sfr_core::exec::Progress| timed(|| grade_tape(&sys, &faults, &gcfg, 1, p));
        let mut ratios = Vec::with_capacity(trace_pairs);
        let mut grades = Vec::new();
        for pair in 0..trace_pairs {
            let ((plain_s, _), (traced_s, traced)) = if pair % 2 == 0 {
                let plain_run = time(&plain);
                (plain_run, time(&tee))
            } else {
                let traced_run = time(&tee);
                (time(&plain), traced_run)
            };
            ratios.push(traced_s / plain_s);
            grades = traced;
        }
        trace.finish().expect("trace flushes");
        ratios.sort_by(f64::total_cmp);
        ((ratios[ratios.len() / 2] - 1.0) * 100.0, grades)
    };
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace reads back");
    sfr_core::obs::check_trace(&trace_text).expect("trace validates");

    // Shard flight-recorder overhead: the same coordinator + one-worker
    // campaign over the real TCP protocol, untraced vs with both sides
    // writing JSONL traces. The distributed-observability contract is
    // under 5% wall-clock overhead, and every traced pass must
    // reconstruct into a gap-free report with results identical to the
    // untraced run.
    let shard_design = if quick { "facet" } else { "diffeq" };
    let mut shard_spec = sfr_shard::ShardSpec::new(shard_design, 4).quick_monte_carlo();
    shard_spec.patterns = 240;
    let shard_journal = std::env::temp_dir().join("sfr_grade_throughput_shard.journal");
    let shard_trace_dir = std::env::temp_dir().join("sfr_grade_throughput_shard_traces");
    let _ = std::fs::remove_dir_all(&shard_trace_dir);
    std::fs::create_dir_all(&shard_trace_dir).expect("shard trace dir");
    let shard_passes = if quick { 2 } else { 3 };
    let (mut shard_untraced_best, mut shard_traced_best) = (f64::INFINITY, f64::INFINITY);
    for pass in 0..shard_passes {
        let (plain_s, plain_study) =
            shard_campaign(&shard_spec, &shard_journal, &NullProgress, &NullProgress);
        shard_untraced_best = shard_untraced_best.min(plain_s);

        let coord_path = shard_trace_dir.join(format!("trace-{pass}.jsonl"));
        let worker_path = shard_trace_dir.join(format!("worker-1-{pass}.jsonl"));
        let coord = sfr_core::obs::TraceWriter::create(&coord_path).expect("coordinator trace");
        let work = sfr_core::obs::TraceWriter::create(&worker_path).expect("worker trace");
        let (traced_s, traced_study) = shard_campaign(&shard_spec, &shard_journal, &coord, &work);
        shard_traced_best = shard_traced_best.min(traced_s);
        coord.finish().expect("coordinator trace flushes");
        work.finish().expect("worker trace flushes");

        assert_eq!(
            render_table1(&plain_study, 5),
            render_table1(&traced_study, 5),
            "worker tracing perturbed the distributed grades"
        );
        let artifacts: Vec<sfr_core::obs::Artifact> = [&coord_path, &worker_path]
            .iter()
            .map(|p| sfr_core::obs::Artifact {
                label: p.display().to_string(),
                text: std::fs::read_to_string(p).expect("trace reads back"),
            })
            .collect();
        let report = sfr_core::obs::build_report(&artifacts, None).expect("report builds");
        assert!(
            report.gaps.is_empty(),
            "traced campaign left gaps: {:?}",
            report.gaps
        );
        assert!(report.packs.merged >= 1, "no pack merged from the worker");
    }
    let shard_trace_overhead_pct = (shard_traced_best / shard_untraced_best - 1.0) * 100.0;
    let _ = std::fs::remove_dir_all(&shard_trace_dir);

    // Bit-identity gate: a throughput number for wrong answers is
    // meaningless.
    for (name, grades) in [
        (tape.name, &tape.grades),
        (tape_mt.name, &tape_mt.grades),
        ("tape_1t traced", &traced_grades),
    ] {
        assert_eq!(grades.len(), scalar.grades.len());
        for (s, l) in scalar.grades.iter().zip(grades) {
            assert_eq!(s.mean_uw, l.mean_uw, "{name}: grades must be bit-identical");
            assert_eq!(s.pct_change, l.pct_change, "{name}");
            assert_eq!(s.flagged, l.flagged, "{name}");
        }
    }

    let metric = |run: &EngineRun| -> (f64, f64) {
        let fps = faults.len() as f64 / run.seconds;
        // Useful (per-lane) simulated cycles per second: every Monte
        // Carlo batch of every estimation delivers about one batch-0
        // test set worth of cycles to one lane.
        let cps = run.mc_batches as f64 * cycles_per_batch as f64 / run.seconds;
        (fps, cps)
    };
    let (scalar_fps, scalar_cps) = metric(&scalar);
    let mut engines_json = String::new();
    for run in [&scalar, &tape, &tape_mt] {
        let (fps, cps) = metric(run);
        engines_json.push_str(&format!(
            "    {{\"name\": \"{}\", \"seconds\": {:.4}, \"faults_per_sec\": {:.2}, \
             \"mc_batches\": {}, \"lane_cycles_per_sec\": {:.0}}},\n",
            run.name, run.seconds, fps, run.mc_batches, cps
        ));
        eprintln!(
            "  {:<14} {:>8.3} s  {:>8.2} faults/s  {:>12.0} lane-cycles/s",
            run.name, run.seconds, fps, cps
        );
    }
    engines_json.truncate(engines_json.trim_end_matches(",\n").len());
    // The analyze stage (`sfr analyze`): per-benchmark collapse ratio
    // and the wall time of the full static pass — equivalence-class
    // partition plus the abstract-interpretation/table/oracle rules.
    // The claim worth tracking is that shrinking the universe costs
    // milliseconds against grading sweeps that cost seconds.
    let mut collapse_json = String::new();
    for (bench, emitted) in benchmarks::extended_benchmarks(4).expect("benchmarks build") {
        let csys = System::build(&emitted, SystemConfig::default()).expect("system builds");
        let universe = csys.controller_faults();
        let start = Instant::now();
        let classes = FaultClasses::build(&csys.netlist, &universe);
        let analysis = analyze_controller_static(&csys);
        let mut campaign = std::collections::BTreeSet::new();
        for (i, &f) in universe.iter().enumerate() {
            if static_rule_label(&csys, &analysis, f).is_none() {
                campaign.insert(classes.representative(i));
            }
        }
        let analyze_seconds = start.elapsed().as_secs_f64();
        collapse_json.push_str(&format!(
            "    {{\"bench\": \"{}\", \"universe\": {}, \"classes\": {}, \
             \"collapse_ratio\": {:.4}, \"campaign\": {}, \"analyze_seconds\": {:.4}}},\n",
            bench,
            classes.len(),
            classes.class_count(),
            classes.collapse_ratio(),
            campaign.len(),
            analyze_seconds
        ));
        eprintln!(
            "  analyze {:<7} {:>3}/{:<3} classes (ratio {:.3}), campaign {:>3}, {:>7.4} s",
            bench,
            classes.class_count(),
            classes.len(),
            classes.collapse_ratio(),
            campaign.len(),
            analyze_seconds
        );
    }
    collapse_json.truncate(collapse_json.trim_end_matches(",\n").len());

    let (tape_fps, _) = metric(&tape);
    let (tape_mt_fps, _) = metric(&tape_mt);
    let json = format!(
        "{{\n  \"design\": \"diffeq\",\n  \"mode\": \"{}\",\n  \"sfr_faults\": {},\n  \
         \"threads\": {},\n  \"cycles_per_batch\": {},\n  \"engines\": [\n{}\n  ],\n  \
         \"speedup_tape_1t\": {:.2},\n  \"speedup_tape_mt\": {:.2},\n  \
         \"trace_overhead_pct\": {:.2},\n  \"trace_probe_pairs\": {},\n  \
         \"shard_trace_overhead_pct\": {:.2},\n  \
         \"baseline_cycles_per_sec\": {:.0},\n  \"collapse\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        faults.len(),
        threads,
        cycles_per_batch,
        engines_json,
        tape_fps / scalar_fps,
        tape_mt_fps / scalar_fps,
        trace_overhead_pct,
        trace_pairs,
        shard_trace_overhead_pct,
        scalar_cps,
        collapse_json
    );
    // The quick CI smoke exercises the whole bench but must not clobber
    // the committed full-mode numbers.
    let out = if quick {
        std::env::temp_dir()
            .join("BENCH_grade_quick.json")
            .display()
            .to_string()
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_grade.json").to_string()
    };
    std::fs::write(&out, &json).expect("write BENCH_grade.json");
    eprintln!(
        "tape speedup over scalar: {:.2}x (1 thread), {:.2}x ({} threads) -> {}",
        tape_fps / scalar_fps,
        tape_mt_fps / scalar_fps,
        threads,
        out
    );
    eprintln!("tracing overhead: {trace_overhead_pct:+.2}% (target < 2%)");
    eprintln!("shard tracing overhead: {shard_trace_overhead_pct:+.2}% (target < 5%)");

    // Criterion probes of one Monte Carlo batch per engine (skipped in
    // the CI smoke so the whole bench stays inside its time budget).
    if !quick {
        let mut g = c.benchmark_group("grade_throughput");
        g.sample_size(10);
        g.bench_function("mc_batch_scalar", |b| {
            b.iter(|| measure_power_with_testset(&sys, Some(faults[0]), &ts, &gcfg))
        });
        let prog = TapeProgram::<u64>::compile(&sys.netlist, &faults).expect("pack fits");
        g.bench_function("mc_batch_tape_63_lanes", |b| {
            b.iter(|| measure_power_tape_watched(&sys, &prog, &ts, &gcfg))
        });
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Observability must be free of side effects on results: a campaign
//! run with every sink attached produces byte-identical grades to an
//! unobserved run at any thread count, the run manifest's fingerprint
//! is stable across identical runs (and *only* across identical runs),
//! and the JSONL trace is well-formed line by line with balanced phase
//! spans.

#![allow(clippy::unwrap_used)]

use sfr_power::exec::{NullProgress, Progress, Tee};
use sfr_power::obs::{self, TraceWriter};
use sfr_power::{Study, StudyBuilder, StudyError};
use std::path::PathBuf;

/// A scratch path under the target-adjacent temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfr-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn quick_study(threads: usize, progress: &dyn Progress) -> Study {
    StudyBuilder::new("poly")
        .test_patterns(240)
        .quick_monte_carlo()
        .threads(threads)
        .build()
        .expect("poly builds")
        .run_with(progress)
}

/// Every result bit of a study, rendered so two runs can be compared
/// byte for byte (floats via their bit patterns).
fn study_fingerprint(study: &Study) -> String {
    let mut s = format!(
        "{} {} {} {} | baseline {:016x} {:016x} {} {}\n",
        study.classification.total(),
        study.classification.sfi_count(),
        study.classification.cfr_count(),
        study.classification.sfr_count(),
        study.baseline.mean_uw.to_bits(),
        study.baseline.half_width_uw.to_bits(),
        study.baseline.batches,
        study.baseline.converged,
    );
    for g in &study.grades {
        s.push_str(&format!(
            "{} {:016x} {:016x} {}\n",
            g.fault,
            g.mean_uw.to_bits(),
            g.pct_change.to_bits(),
            g.flagged
        ));
    }
    s
}

#[test]
fn grades_are_byte_identical_with_tracing_on_or_off() {
    let reference = study_fingerprint(&quick_study(1, &NullProgress));
    for threads in [1usize, 2, 8] {
        let untraced = quick_study(threads, &NullProgress);
        assert_eq!(
            study_fingerprint(&untraced),
            reference,
            "untraced run diverged at {threads} threads"
        );

        let path = scratch(&format!("trace-{threads}.jsonl"));
        let trace = TraceWriter::create(&path).unwrap();
        let sinks: [&dyn Progress; 1] = [&trace];
        let tee = Tee::new(&sinks);
        let traced = quick_study(threads, &tee);
        trace.finish().unwrap();
        assert_eq!(
            study_fingerprint(&traced),
            reference,
            "tracing perturbed the grades at {threads} threads"
        );
    }
}

#[test]
fn trace_parses_line_by_line_with_balanced_spans() {
    let path = scratch("trace-wellformed.jsonl");
    let trace = TraceWriter::create(&path).unwrap();
    let sinks: [&dyn Progress; 1] = [&trace];
    let tee = Tee::new(&sinks);
    let study = quick_study(2, &tee);
    trace.finish().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    // Every line is standalone JSON.
    for (i, line) in text.lines().enumerate() {
        obs::json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
    }
    // The validator re-checks parsing plus the structural invariants:
    // span balance, pack occupancy, chunk tallies.
    let stats = obs::check_trace(&text).expect("trace validates");
    assert!(stats.spans >= 4, "golden/faultsim/analyze/grade spans");
    assert_eq!(stats.aborted_spans, 0, "healthy run aborts no phase");
    assert!(stats.packs >= 1, "at least one grade pack record");
    assert!(stats.chunks >= 1, "at least one fault-sim chunk record");
    assert_eq!(stats.quarantines, 0);
    assert!(!study.grades.is_empty());
}

/// Runs a manifest-emitting study and returns the parsed manifest.
fn manifest_of(path: &std::path::Path, seed: Option<u32>) -> obs::json::Value {
    let mut builder = StudyBuilder::new("poly")
        .test_patterns(240)
        .quick_monte_carlo()
        .manifest_out(path)
        .force(true);
    if let Some(seed) = seed {
        builder = builder.test_seed(seed);
    }
    builder.build().expect("poly builds").run();
    let text = std::fs::read_to_string(path).unwrap();
    obs::check_manifest(&text).expect("manifest validates");
    obs::json::parse(&text).unwrap()
}

fn fingerprint_field(manifest: &obs::json::Value, key: &str) -> String {
    manifest.get(key).unwrap().as_str().unwrap().to_string()
}

#[test]
fn manifest_fingerprint_is_stable_but_seed_sensitive() {
    let path = scratch("manifest.json");
    let a = manifest_of(&path, None);
    let b = manifest_of(&path, None);
    assert_eq!(
        fingerprint_field(&a, "fingerprint"),
        fingerprint_field(&b, "fingerprint"),
        "identical runs must produce identical manifest fingerprints"
    );
    assert_eq!(
        fingerprint_field(&a, "campaign_fingerprint"),
        fingerprint_field(&b, "campaign_fingerprint")
    );

    let reseeded = manifest_of(&path, Some(0xBEEF));
    assert_ne!(
        fingerprint_field(&a, "campaign_fingerprint"),
        fingerprint_field(&reseeded, "campaign_fingerprint"),
        "a different test seed is a different campaign"
    );
    assert_ne!(
        fingerprint_field(&a, "fingerprint"),
        fingerprint_field(&reseeded, "fingerprint")
    );
}

#[test]
fn manifest_profile_reports_pack_timings_and_tape_shape() {
    use sfr_power::exec::EngineKind;
    let path = scratch("manifest-profile.json");
    StudyBuilder::new("poly")
        .test_patterns(240)
        .quick_monte_carlo()
        .engine(EngineKind::parse("tape", 1).expect("tape engine"))
        .manifest_out(&path)
        .force(true)
        .build()
        .expect("poly builds")
        .run();
    let text = std::fs::read_to_string(&path).unwrap();
    obs::check_manifest(&text).expect("manifest with profile validates");
    let v = obs::json::parse(&text).unwrap();
    let profile = v.get("profile").expect("profile section present");
    let num = |key: &str| profile.get(key).unwrap().as_num().unwrap();
    assert!(num("packs_computed") >= 1.0, "packs were timed");
    assert!(num("pack_max_us") >= num("pack_p90_us"));
    assert!(num("pack_p90_us") >= num("pack_p50_us"));
    assert!(num("mc_batches") >= 1.0);
    assert!(num("tape_ops") > 0.0, "tape engine reports op counts");
    assert!(num("tape_levels") > 0.0, "levelization depth recorded");
    assert!(num("tape_force_ops") > 0.0, "fault-injection ops recorded");
}

/// A study built without `.engine` runs on the compiled tape, and its
/// manifest says so.
#[test]
fn default_engine_is_the_tape() {
    let path = scratch("manifest-default-engine.json");
    let v = manifest_of(&path, None);
    assert_eq!(fingerprint_field(&v, "engine"), "tape");
    let profile = v.get("profile").expect("profile section present");
    let tape_ops = profile.get("tape_ops").unwrap().as_num().unwrap();
    assert!(tape_ops > 0.0, "default grading compiled a tape");
}

#[test]
fn manifest_refuses_overwrite_without_force() {
    let path = scratch("manifest-protected.json");
    std::fs::write(&path, "{}").unwrap();
    let err = StudyBuilder::new("poly")
        .test_patterns(240)
        .quick_monte_carlo()
        .manifest_out(&path)
        .build()
        .expect_err("existing manifest must be refused up front");
    assert!(
        matches!(err, StudyError::Manifest(_)),
        "unexpected error: {err}"
    );
    // The sentinel content is untouched: the refusal happened before
    // any simulation ran.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
}

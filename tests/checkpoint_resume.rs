//! Kill-after-N-packs crash/resume harness.
//!
//! A campaign checkpointed to a journal is "killed" by truncating the
//! journal to its first N records — exactly the prefix a SIGKILLed
//! process leaves behind, since every record is fsynced before the next
//! pack starts. Resuming from that prefix must reproduce the
//! uninterrupted run's reports byte-for-byte at every thread count.

#![allow(clippy::unwrap_used)]

use sfr_power::{
    render_classification_csv, render_table1, render_table2, CampaignJournal, Study, StudyBuilder,
};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sfr-ckpt-{}-{name}", std::process::id()));
    p
}

fn builder(threads: usize) -> StudyBuilder {
    StudyBuilder::new("poly")
        .test_patterns(240)
        .quick_monte_carlo()
        .threads(threads)
}

fn reports(study: &Study) -> (String, String, String) {
    (
        render_table1(study, 5),
        render_table2(std::slice::from_ref(study)),
        render_classification_csv(study),
    )
}

#[test]
fn killed_campaign_resumes_byte_identical() {
    let full = scratch("full.journal");
    let _ = std::fs::remove_file(&full);

    // The uninterrupted reference.
    let reference = builder(1).build().expect("builds").run();
    let want = reports(&reference);

    // A checkpointed run: every completed pack lands in the journal.
    let study = builder(1).checkpoint(&full).build().expect("builds").run();
    assert!(study.is_clean());
    assert_eq!(
        reports(&study),
        want,
        "checkpointing must not change results"
    );

    let complete = CampaignJournal::open(&full).expect("journal opens");
    let entries = complete.entries();
    assert!(
        entries.len() >= 4,
        "expected several journaled packs, got {}",
        entries.len()
    );

    for keep in [1, entries.len() / 2, entries.len() - 1] {
        for threads in [1usize, 2, 8] {
            let partial = scratch(&format!("partial-{keep}-{threads}.journal"));
            let _ = std::fs::remove_file(&partial);
            let j = CampaignJournal::create(&partial, complete.fingerprint(), complete.label())
                .expect("partial journal creates");
            for (kind, id, words) in entries.iter().take(keep) {
                j.record(*kind, *id, words);
            }
            assert!(j.degradation().is_none());
            drop(j);

            let resumed = builder(threads)
                .resume(&partial)
                .build()
                .expect("resume builds")
                .run();
            assert!(resumed.is_clean());
            assert_eq!(
                reports(&resumed),
                want,
                "resume after {keep} packs on {threads} threads must be byte-identical"
            );
            // The resumed run completed the journal: every pack is now
            // recorded, so a second crash would lose nothing.
            let completed = CampaignJournal::open(&partial).expect("reopens");
            assert_eq!(completed.len(), entries.len());
            let _ = std::fs::remove_file(&partial);
        }
    }
    let _ = std::fs::remove_file(&full);
}

#[test]
fn resume_rejects_a_mismatched_campaign() {
    let path = scratch("mismatch.journal");
    let _ = std::fs::remove_file(&path);
    drop(CampaignJournal::create(&path, 0xDEAD_BEEF, "other").expect("creates"));
    let err = builder(1)
        .resume(&path)
        .build()
        .expect_err("a foreign journal must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("journal"), "{msg}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_requires_an_existing_journal() {
    let path = scratch("missing.journal");
    let _ = std::fs::remove_file(&path);
    assert!(
        builder(1).resume(&path).build().is_err(),
        "--resume with no journal on disk is a user error, not a fresh start"
    );
}

/// Runs the `sfr` binary and returns its stdout, asserting success.
fn sfr(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sfr"))
        .args(args)
        .output()
        .expect("sfr runs");
    assert!(
        out.status.success(),
        "sfr {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `tests/fixtures/poly-240.journal` was written by
/// `sfr grade poly --patterns 240 --checkpoint …` on an earlier release,
/// whose default engine was the interpretive lane simulator. Journals
/// are kernel-independent, so the default engine must restore every
/// fault-simulation chunk and the grade pack from it, recompute
/// nothing, and print exactly what a fresh run prints — on one thread,
/// and on two, where a computed pack would spread its Monte Carlo
/// batches over both.
#[test]
fn journal_from_an_earlier_release_resumes_without_recomputation() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/poly-240.journal"
    );
    let fresh = sfr(&["grade", "poly", "--patterns", "240"]);
    for threads in ["1", "2"] {
        let journal = scratch(&format!("fixture-{threads}.journal"));
        let manifest = scratch(&format!("fixture-manifest-{threads}.json"));
        let metrics = scratch(&format!("fixture-metrics-{threads}.prom"));
        std::fs::copy(fixture, &journal).expect("fixture copies");
        let _ = std::fs::remove_file(&manifest);

        let resumed = sfr(&[
            "grade",
            "poly",
            "--patterns",
            "240",
            "--threads",
            threads,
            "--resume",
            journal.to_str().expect("utf-8 temp path"),
            "--manifest-out",
            manifest.to_str().expect("utf-8 temp path"),
            "--metrics-out",
            metrics.to_str().expect("utf-8 temp path"),
        ]);
        assert_eq!(
            resumed, fresh,
            "a resumed run on {threads} thread(s) prints the fresh run's table"
        );
        // 181 faults make three fault-simulation chunks; 38 SFR faults
        // make one grade pack. All four come from the journal, and the
        // manifest's profile counts the grade pack among them.
        let prom = std::fs::read_to_string(&metrics).expect("metrics written");
        assert!(
            prom.lines().any(|l| l == "sfr_packs_restored_total 4"),
            "{threads} thread(s): {prom}"
        );
        assert!(prom.lines().any(|l| l == "sfr_faults_simulated_total 0"));

        let text = std::fs::read_to_string(&manifest).expect("manifest written");
        let v = sfr_power::obs::json::parse(&text).expect("manifest parses");
        let profile = v.get("profile").expect("profile section");
        let num = |key: &str| profile.get(key).unwrap().as_num().unwrap();
        assert_eq!(num("packs_restored"), 1.0, "{threads} thread(s)");
        assert_eq!(num("packs_computed"), 0.0, "{threads} thread(s)");
        assert_eq!(num("mc_batches"), 0.0, "no Monte Carlo batch ran");
        for path in [&journal, &manifest, &metrics] {
            let _ = std::fs::remove_file(path);
        }
    }
}

//! Test-program generation: the artifact a tester actually loads.
//!
//! The paper's method ends in a concrete test recipe for an embedded
//! hard core (Section 5): a functional session — pseudorandom patterns
//! with expected responses, catching the SFI faults — plus a **power
//! screen**: the fault-free power of that very session and a tolerance
//! band, catching the SFR faults that no response comparison can see.
//! [`generate_test_program`] packages both, with the coverage numbers a
//! test plan needs.

use crate::flow::Study;
use sfr_faultsim::{golden_trace, run_tape_counted, Detection, RunConfig};
use sfr_netlist::Logic;
use sfr_tpg::TestSet;
use std::fmt::Write as _;

/// Parameters of test-program generation.
#[derive(Debug, Clone)]
pub struct TestProgramConfig {
    /// TPGR seed for the functional session.
    pub seed: u32,
    /// Number of patterns in the functional session.
    pub patterns: usize,
    /// Run shaping.
    pub run: RunConfig,
    /// Power tolerance band, percent.
    pub band_pct: f64,
}

impl Default for TestProgramConfig {
    fn default() -> Self {
        TestProgramConfig {
            seed: 0xACE1,
            patterns: 1200,
            run: RunConfig::default(),
            band_pct: 5.0,
        }
    }
}

/// A complete two-part test program.
#[derive(Debug, Clone)]
pub struct TestProgram {
    /// Design name.
    pub name: String,
    /// The functional session's patterns (one per cycle, all data ports
    /// concatenated).
    pub patterns: Vec<u64>,
    /// Expected data-output values per cycle (`X` = don't compare).
    pub expected: Vec<Vec<Logic>>,
    /// Reset boundaries within the session.
    pub runs: Vec<sfr_faultsim::RunSpec>,
    /// Power screen: expected fault-free power of this session, µW.
    pub power_baseline_uw: f64,
    /// Power screen: tolerance band, percent.
    pub band_pct: f64,
    /// Controller faults the functional session detects (definite plus
    /// step-2-resolved "potentially detected").
    pub functional_detected: usize,
    /// Controller faults classified SFI (detectable in principle).
    pub sfi_total: usize,
    /// SFR faults the power screen flags at the band.
    pub power_detected: usize,
    /// SFR faults in total.
    pub sfr_total: usize,
}

impl TestProgram {
    /// Combined controller-fault coverage of both parts, percent.
    pub fn combined_coverage_pct(&self) -> f64 {
        let total = self.sfi_total + self.sfr_total;
        if total == 0 {
            return 100.0;
        }
        100.0 * (self.functional_detected + self.power_detected) as f64 / total as f64
    }

    /// Renders a tester-readable summary (header + per-run table).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# test program for `{}`", self.name);
        let _ = writeln!(
            out,
            "# functional session: {} patterns in {} runs",
            self.patterns.len(),
            self.runs.len()
        );
        let _ = writeln!(
            out,
            "# power screen: expect {:.2} uW +/- {:.1}%",
            self.power_baseline_uw, self.band_pct
        );
        let _ = writeln!(
            out,
            "# coverage: functional {}/{} SFI; power {}/{} SFR; combined {:.1}%",
            self.functional_detected,
            self.sfi_total,
            self.power_detected,
            self.sfr_total,
            self.combined_coverage_pct()
        );
        for (i, run) in self.runs.iter().enumerate() {
            let _ = writeln!(out, "run {i}: reset");
            for c in run.start..run.start + run.len {
                let expect: String = self.expected[c].iter().map(|v| v.to_string()).collect();
                let _ = writeln!(out, "  {:#06x} -> {}", self.patterns[c], expect);
            }
        }
        out
    }
}

/// Builds the two-part test program from a completed study.
pub fn generate_test_program(study: &Study, cfg: &TestProgramConfig) -> TestProgram {
    let sys = &study.system;
    let ts = TestSet::pseudorandom(sys.pattern_width(), cfg.patterns, cfg.seed)
        .expect("the system's test patterns fit one 64-bit word");
    let golden = golden_trace(sys, &ts, &cfg.run);

    // Functional coverage over the whole controller fault universe.
    let faults = sys.controller_faults();
    let (outcomes, _cycles) = run_tape_counted(sys, &golden, &faults);
    // Definite detections plus "potentially detected" outcomes, which
    // the paper's step 2 resolves to detected (a real register holds
    // *some* boot value, and a long session will expose the mismatch).
    let functional_detected = outcomes
        .iter()
        .filter(|o| {
            matches!(
                o.detection,
                Detection::Detected { .. } | Detection::Potential { .. }
            )
        })
        .count();

    let sfi_total = study.classification.sfi_count();
    let sfr_total = study.classification.sfr_count();
    let power_detected = study
        .grades
        .iter()
        .filter(|g| g.pct_change.abs() > cfg.band_pct)
        .count();

    TestProgram {
        name: study.name.clone(),
        patterns: golden.patterns.clone(),
        expected: golden.outputs.clone(),
        runs: golden.runs.clone(),
        power_baseline_uw: study.baseline.mean_uw,
        band_pct: cfg.band_pct,
        functional_detected,
        sfi_total,
        sfr_total,
        power_detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StudyBuilder;
    use sfr_classify::GradeConfig;
    use sfr_power_model::MonteCarloConfig;

    fn study() -> Study {
        StudyBuilder::new("facet")
            .test_patterns(240)
            .grade_config(GradeConfig {
                mc: MonteCarloConfig {
                    rel_tolerance: 0.1,
                    min_batches: 2,
                    max_batches: 3,
                },
                patterns_per_batch: 40,
                ..Default::default()
            })
            .build()
            .expect("facet builds")
            .run()
    }

    #[test]
    fn program_has_consistent_bookkeeping() {
        let study = study();
        let cfg = TestProgramConfig {
            patterns: 240,
            ..Default::default()
        };
        let prog = generate_test_program(&study, &cfg);
        assert_eq!(prog.patterns.len(), 240);
        assert_eq!(prog.expected.len(), prog.patterns.len());
        let run_sum: usize = prog.runs.iter().map(|r| r.len).sum();
        assert_eq!(run_sum, prog.patterns.len());
        assert!(prog.functional_detected <= prog.sfi_total);
        assert_eq!(prog.power_detected, study.flagged_count());
        assert!(prog.combined_coverage_pct() > 50.0);
        assert!(prog.power_baseline_uw > 0.0);
    }

    #[test]
    fn render_is_tester_readable() {
        let study = study();
        let prog = generate_test_program(
            &study,
            &TestProgramConfig {
                patterns: 20,
                ..Default::default()
            },
        );
        let text = prog.render();
        assert!(text.contains("# test program for `facet`"));
        assert!(text.contains("run 0: reset"));
        assert!(text.contains("uW +/-"));
        // One stimulus line per pattern.
        assert_eq!(text.matches(" -> ").count(), 20);
    }
}

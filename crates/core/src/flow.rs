//! The end-to-end study flow: synthesize → classify → grade.

use sfr_classify::{
    classify_system_collapsed, collapse_grading_set, grade_faults_journaled_with_kernel,
    Classification, ClassifyConfig, GradeConfig, GradeIncident, PowerGrade,
};
use sfr_exec::Progress;
use sfr_faultsim::{Engine, System, SystemConfig};
use sfr_journal::CampaignJournal;
use sfr_netlist::StuckAt;
use sfr_power_model::MonteCarloResult;
use std::fmt;

/// Configuration of a full study.
#[derive(Debug, Clone, Default)]
pub struct StudyConfig {
    /// Controller synthesis options (encoding, don't-care fill).
    pub system: SystemConfig,
    /// Classification options (test set, engines).
    pub classify: ClassifyConfig,
    /// Power grading options (Monte Carlo, threshold band).
    pub grade: GradeConfig,
}

/// One resilience incident from a study: work that was quarantined,
/// watchdog-flagged, or lost its checkpoint persistence — reported
/// alongside the results instead of aborting the run.
#[derive(Debug, Clone, PartialEq)]
pub enum Incident {
    /// A fault-simulation chunk panicked twice and was quarantined; its
    /// faults have no classification verdict.
    FaultSimQuarantined {
        /// Chunk index.
        chunk: usize,
        /// The faults in the chunk.
        faults: Vec<StuckAt>,
        /// The panic payload message.
        message: String,
    },
    /// A grading lane pack panicked twice and was quarantined; its
    /// faults have no power grade.
    GradePackQuarantined {
        /// Pack index.
        pack: usize,
        /// The faults in the pack.
        faults: Vec<StuckAt>,
        /// The panic payload message.
        message: String,
    },
    /// The watchdog caught this fault stalling the controller (its lane
    /// missed HOLD while the fault-free lane finished a run); its grade
    /// was measured over budget-bounded cycles.
    BudgetExhausted {
        /// The runaway fault.
        fault: StuckAt,
    },
    /// The checkpoint journal hit a write-side I/O error and fell back
    /// to in-memory operation; the study completed but is not
    /// resumable from this journal.
    JournalDegraded {
        /// The I/O failure description.
        message: String,
    },
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Incident::FaultSimQuarantined {
                chunk,
                faults,
                message,
            } => write!(
                f,
                "quarantined: fault-sim chunk {chunk} ({} faults) panicked twice: {message}",
                faults.len()
            ),
            Incident::GradePackQuarantined {
                pack,
                faults,
                message,
            } => write!(
                f,
                "quarantined: grade pack {pack} ({} faults) panicked twice: {message}",
                faults.len()
            ),
            Incident::BudgetExhausted { fault } => {
                write!(f, "budget exhausted: fault {fault} stalls the controller")
            }
            Incident::JournalDegraded { message } => {
                write!(f, "journal degraded: {message}")
            }
        }
    }
}

/// A completed study of one benchmark: the built system, the fault
/// classification, and the power grades of every SFR fault.
#[derive(Debug)]
pub struct Study {
    /// Benchmark name.
    pub name: String,
    /// The integrated system.
    pub system: System,
    /// The classified controller fault universe.
    pub classification: Classification,
    /// The SFR faults in grading order (collected once at the end of
    /// classification).
    sfr: Vec<StuckAt>,
    /// Fault-free Monte Carlo datapath power.
    pub baseline: MonteCarloResult,
    /// Power grades, one per SFR fault (same order as
    /// [`Classification::sfr`]; faults in quarantined grade packs are
    /// absent).
    pub grades: Vec<PowerGrade>,
    /// Resilience incidents, in pipeline order (fault-sim quarantines,
    /// then grading quarantines/watchdog hits, then journal health).
    /// Empty on a healthy run.
    pub incidents: Vec<Incident>,
}

impl Study {
    /// The SFR faults in grading order.
    pub fn sfr_faults(&self) -> &[StuckAt] {
        &self.sfr
    }

    /// How many SFR faults the power test flags at the configured
    /// threshold.
    pub fn flagged_count(&self) -> usize {
        self.grades.iter().filter(|g| g.flagged).count()
    }

    /// True when the study completed without quarantines, watchdog
    /// hits, or journal degradation.
    pub fn is_clean(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Total faults that lost their verdict or grade to quarantine.
    pub fn quarantined_fault_count(&self) -> usize {
        self.incidents
            .iter()
            .map(|i| match i {
                Incident::FaultSimQuarantined { faults, .. }
                | Incident::GradePackQuarantined { faults, .. } => faults.len(),
                _ => 0,
            })
            .sum()
    }

    /// Faults the watchdog caught exhausting their cycle budget.
    pub fn budget_exhausted_count(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i, Incident::BudgetExhausted { .. }))
            .count()
    }
}

/// The execution path behind [`crate::StudyBuilder`]: classify on
/// `engine`, grade on `threads` workers, report everything to
/// `progress`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_study(
    name: String,
    system: System,
    cfg: &StudyConfig,
    engine: &dyn Engine,
    threads: usize,
    progress: &dyn Progress,
    journal: Option<&CampaignJournal>,
    collapse: bool,
) -> Study {
    let (classification, quarantined_chunks) =
        classify_system_collapsed(&system, &cfg.classify, engine, progress, journal, collapse);
    let sfr: Vec<StuckAt> = classification.sfr().map(|f| f.fault).collect();

    // With collapsing, grade one representative per equivalence class
    // and copy its measurement to every member: equivalent faults force
    // identical datapath activity, so the expanded table is the one an
    // uncollapsed run would have measured fault by fault.
    let (to_grade, rep_of) = if collapse {
        let (reps, rep_of) = collapse_grading_set(&system, &sfr);
        (reps, Some(rep_of))
    } else {
        (sfr.clone(), None)
    };

    // Grading runs on the kernel the engine names.
    let report = grade_faults_journaled_with_kernel(
        &system,
        &to_grade,
        &cfg.grade,
        threads,
        progress,
        journal,
        engine.kernel(),
    );

    let mut incidents = Vec::new();
    for q in quarantined_chunks {
        incidents.push(Incident::FaultSimQuarantined {
            chunk: q.chunk,
            faults: q.faults,
            message: q.message,
        });
    }

    let (grades, grade_incidents) = match rep_of {
        None => (report.grades, report.incidents),
        Some(rep_of) => {
            // Expand representative measurements over the members, in
            // SFR order — the order the uncollapsed run grades (and
            // reports watchdog hits) in. Members whose representative
            // sat in a quarantined pack stay ungraded, exactly as the
            // representative does; the pack incidents themselves remain
            // representative-scoped (those are the faults that ran).
            let mut packs = Vec::new();
            let mut exhausted = std::collections::HashSet::new();
            for i in report.incidents {
                match i {
                    GradeIncident::QuarantinedPack { .. } => packs.push(i),
                    GradeIncident::BudgetExhausted { fault } => {
                        exhausted.insert(fault);
                    }
                }
            }
            let by_rep: std::collections::HashMap<StuckAt, PowerGrade> =
                report.grades.into_iter().map(|g| (g.fault, g)).collect();
            let mut grades = Vec::with_capacity(sfr.len());
            let mut expanded = packs;
            for &f in &sfr {
                let rep = rep_of[&f];
                if let Some(g) = by_rep.get(&rep) {
                    grades.push(PowerGrade { fault: f, ..*g });
                }
                if exhausted.contains(&rep) {
                    expanded.push(GradeIncident::BudgetExhausted { fault: f });
                }
            }
            (grades, expanded)
        }
    };

    for i in grade_incidents {
        incidents.push(match i {
            GradeIncident::QuarantinedPack {
                pack,
                faults,
                message,
            } => Incident::GradePackQuarantined {
                pack,
                faults,
                message,
            },
            GradeIncident::BudgetExhausted { fault } => Incident::BudgetExhausted { fault },
        });
    }
    if let Some(message) = journal.and_then(CampaignJournal::degradation) {
        progress.event(sfr_exec::ProgressEvent::JournalDegraded);
        if progress.wants_records() {
            progress.record(&sfr_exec::TraceRecord::JournalDegraded {
                message: message.clone(),
            });
        }
        incidents.push(Incident::JournalDegraded { message });
    }

    Study {
        name,
        system,
        classification,
        sfr,
        baseline: report.baseline,
        grades,
        incidents,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_exec::NullProgress;
    use sfr_faultsim::TapeEngine;
    use sfr_power_model::MonteCarloConfig;

    /// A configuration small enough for unit tests.
    pub(crate) fn quick() -> StudyConfig {
        StudyConfig {
            classify: ClassifyConfig {
                test_patterns: 240,
                ..Default::default()
            },
            grade: GradeConfig {
                mc: MonteCarloConfig {
                    rel_tolerance: 0.05,
                    min_batches: 3,
                    max_batches: 6,
                },
                patterns_per_batch: 60,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn poly_study() -> Study {
        let emitted = sfr_benchmarks::poly(4).expect("builds");
        let cfg = quick();
        let system = System::build(&emitted, cfg.system).expect("system builds");
        let engine = TapeEngine::new(1);
        execute_study(
            "poly".into(),
            system,
            &cfg,
            &engine,
            1,
            &NullProgress,
            None,
            false,
        )
    }

    #[test]
    fn study_runs_on_poly() {
        let study = poly_study();
        assert_eq!(
            study.grades.len(),
            study.classification.sfr_count(),
            "one grade per SFR fault"
        );
        assert!(study.baseline.mean_uw > 0.0);
        assert!(study.classification.total() > 50);
    }

    #[test]
    fn sfr_faults_is_a_stable_slice() {
        let study = poly_study();
        let from_classification: Vec<StuckAt> =
            study.classification.sfr().map(|f| f.fault).collect();
        assert_eq!(study.sfr_faults(), from_classification.as_slice());
        // Grading order matches the stored order.
        for (f, g) in study.sfr_faults().iter().zip(&study.grades) {
            assert_eq!(*f, g.fault);
        }
    }
}

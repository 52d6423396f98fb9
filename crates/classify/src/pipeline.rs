//! The paper's four-step classification methodology (Section 5).
//!
//! 1. Integrated fault simulation with TPGR data: detected faults are
//!    SFI.
//! 2. "Potentially detected" verdicts (an `X` reaching an output whose
//!    fault-free value is known) are resolved to detected — the real
//!    circuit holds *some* boot value, and over a long test it will
//!    mismatch (the paper's output-register load-stuck-at-0 argument).
//! 3. Exhaustive controller-table analysis separates CFR faults (no
//!    output or next-state change anywhere reachable).
//! 4. The remaining faults' control line effects are analyzed: the
//!    Section 3 structural rules decide the clear cases, and the
//!    symbolic input-output [oracle](crate::judge) decides the
//!    data-dependent ones — yielding the final SFR/SFI split.
//!
//! # The campaign plan
//!
//! Like the paper, a study simulates only what controller-only analysis
//! cannot settle, and a [`CampaignPlan`] decides that once. Per fault it
//! holds the static pre-pass's record and rule (one of
//! [`STATIC_RULES`]), or the universe index of the fault whose campaign
//! verdict and power grade it takes: itself, or with collapsing its
//! equivalence class's representative. The campaign simulates the
//! undecided representatives in universe order; classification,
//! grading and `sfr analyze` read the one plan. The pre-pass must
//! decide every equivalence class whole, and [`CampaignPlan::build`]
//! panics where it does not.

use std::collections::HashMap;

use crate::grade::{GradeIncident, GradeReport, PowerGrade};
use crate::oracle::{judge, Mismatch, Verdict};
use crate::rules::{judge_by_rules, RuleVerdict};
use crate::table::{analyze_controller_fault, ControlLineEffect};
use sfr_exec::{NullProgress, Phase, PhaseTimer, Progress, ProgressEvent, TraceRecord};
use sfr_faultsim::{
    golden_trace, run_campaign_quarantined, CampaignOutcome, Detection, Engine, QuarantinedChunk,
    RunConfig, SerialEngine, System, TapeEngine,
};
use sfr_journal::CampaignJournal;
use sfr_netlist::{FaultClasses, StuckAt};
use sfr_tpg::TestSet;

/// Why a fault was classified SFI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfiReason {
    /// Detected by integrated fault simulation (step 1).
    Simulation {
        /// First detecting cycle.
        cycle: usize,
    },
    /// "Potentially detected" resolved to detected (step 2).
    PotentialResolved {
        /// First ambiguous cycle.
        cycle: usize,
    },
    /// The fault changes the controller's state sequencing on some
    /// reachable (state, status) pair.
    SequenceAltering,
    /// The symbolic oracle found an observable structural difference.
    Oracle(Mismatch),
}

/// The final class of a controller fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Controller-functionally redundant: no effect on the controller's
    /// behaviour at all.
    Cfr,
    /// System-functionally redundant: changes control lines but never
    /// the pair's I/O behaviour — the paper's power-detectable class.
    Sfr,
    /// System-functionally irredundant.
    Sfi(SfiReason),
}

impl FaultClass {
    /// Whether the fault is SFR.
    pub fn is_sfr(self) -> bool {
        matches!(self, FaultClass::Sfr)
    }
}

/// One classified fault with its analysis artifacts.
#[derive(Debug, Clone)]
pub struct ClassifiedFault {
    /// The fault (system-netlist coordinates).
    pub fault: StuckAt,
    /// Its class.
    pub class: FaultClass,
    /// The fault's control line effects (populated for faults that
    /// reached table analysis; empty for simulation-detected faults).
    pub effects: Vec<ControlLineEffect>,
    /// The Section 3 rule engine's verdict, where computed.
    pub rule_verdict: Option<RuleVerdict>,
}

/// Classification settings.
#[derive(Debug, Clone)]
pub struct ClassifyConfig {
    /// TPGR seed for the detection fault simulation.
    pub test_seed: u32,
    /// Number of TPGR patterns for detection.
    pub test_patterns: usize,
    /// Run shaping.
    pub run: RunConfig,
    /// Fault-simulation engine for [`classify_system`]: the compiled
    /// tape when true, the scalar reference when false (identical
    /// results; the tape is much faster).
    pub parallel: bool,
    /// Run the static-analysis pre-pass: faults whose class is provable
    /// without simulation (statically CFR, or table-CFR/SFR with an
    /// oracle-redundant effect bundle) are classified up front and
    /// pruned from the fault-simulation campaign. The resulting
    /// [`Classification`] is bit-identical to the unpruned one.
    pub static_prune: bool,
}

impl Default for ClassifyConfig {
    fn default() -> Self {
        ClassifyConfig {
            test_seed: 0xACE1,
            test_patterns: 1200,
            run: RunConfig::default(),
            parallel: true,
            static_prune: false,
        }
    }
}

/// A complete classification of a system's controller fault universe.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Per-fault results, in fault-universe order.
    pub faults: Vec<ClassifiedFault>,
}

impl Classification {
    /// Total number of controller faults.
    pub fn total(&self) -> usize {
        self.faults.len()
    }

    /// The SFR faults.
    pub fn sfr(&self) -> impl Iterator<Item = &ClassifiedFault> {
        self.faults.iter().filter(|f| f.class.is_sfr())
    }

    /// Number of SFR faults.
    pub fn sfr_count(&self) -> usize {
        self.sfr().count()
    }

    /// Number of CFR faults.
    pub fn cfr_count(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| f.class == FaultClass::Cfr)
            .count()
    }

    /// Number of SFI faults.
    pub fn sfi_count(&self) -> usize {
        self.total() - self.sfr_count() - self.cfr_count()
    }

    /// Percentage of faults that are SFR (the paper's Table 2 column).
    pub fn percent_sfr(&self) -> f64 {
        100.0 * self.sfr_count() as f64 / self.total() as f64
    }
}

/// The static pre-pass's deciding rules, in the order they are tried
/// and reported: the CFR proofs cheapest first, the exhaustive table
/// (CFR), and the oracle (SFR).
pub const STATIC_RULES: [&str; 6] = [
    "dead-cone",
    "constant-site",
    "masked-propagation",
    "parity-cancellation",
    "table-cfr",
    "oracle-sfr",
];

/// Which faults a campaign simulates, and where every other fault's
/// verdict comes from (DESIGN.md §13).
#[derive(Debug)]
pub struct CampaignPlan {
    /// The controller fault universe.
    universe: Vec<StuckAt>,
    /// Per fault, the static pre-pass's deciding rule and record; empty
    /// when the pre-pass did not run.
    decided: Vec<Option<(&'static str, ClassifiedFault)>>,
    /// The equivalence classes, when the plan collapses.
    classes: Option<FaultClasses>,
}

impl CampaignPlan {
    /// Plans a campaign over `sys`'s controller fault universe: with
    /// `static_prune` the pre-pass decides what it can on `threads`
    /// workers (phase `lint`, one [`ProgressEvent::FaultPruned`] each),
    /// with `collapse` the equivalence classes are built (phase
    /// `collapse`, one [`ProgressEvent::FaultCollapsed`] per folded
    /// undecided fault). With both off, every fault is its own source.
    ///
    /// Panics if the pre-pass decides a class member differently from
    /// its representative: equivalent faults share their controller
    /// table, so the pre-pass or the classes are wrong.
    pub fn build(
        sys: &System,
        static_prune: bool,
        collapse: bool,
        threads: usize,
        progress: &dyn Progress,
    ) -> CampaignPlan {
        let mut plan = CampaignPlan {
            universe: sys.controller_faults(),
            decided: Vec::new(),
            classes: None,
        };
        if static_prune {
            let timer = PhaseTimer::start(progress, Phase::Lint);
            let analysis = sfr_lint::analyze_controller_static(sys);
            let universe = &plan.universe;
            plan.decided = sfr_exec::par_map_indexed(threads, universe.len(), |i| {
                static_decision(sys, &analysis, universe[i])
            });
            for _ in plan.decided.iter().flatten() {
                progress.event(ProgressEvent::FaultPruned);
            }
            timer.finish();
        }
        if collapse {
            let timer = PhaseTimer::start(progress, Phase::Collapse);
            let classes = FaultClasses::build(&sys.netlist, &plan.universe);
            if progress.wants_records() {
                progress.record(&TraceRecord::Collapse {
                    universe: classes.len(),
                    classes: classes.class_count(),
                    merged: classes.merged_count(),
                });
            }
            plan.classes = Some(classes);
            for i in 0..plan.universe.len() {
                plan.check_whole_class(i);
                if plan.source(i) != i && plan.decision(i).is_none() {
                    progress.event(ProgressEvent::FaultCollapsed);
                }
            }
            timer.finish();
        }
        plan
    }

    /// Panics unless fault `i` is decided exactly as its source is (see
    /// [`build`](Self::build)).
    fn check_whole_class(&self, i: usize) {
        let class_of = |j: usize| self.decision(j).map(|(_, record)| record.class);
        let source = self.source(i);
        assert_eq!(
            class_of(i),
            class_of(source),
            "the static pre-pass split an equivalence class: {} and its \
             representative {} are decided differently",
            self.universe[i],
            self.universe[source]
        );
    }

    /// The controller fault universe the plan covers.
    pub fn universe(&self) -> &[StuckAt] {
        &self.universe
    }

    /// How the static pre-pass decides fault `i`: the deciding rule (one
    /// of [`STATIC_RULES`]) and the fault's record. `None` when the
    /// fault's class depends on campaign evidence.
    pub fn decision(&self, i: usize) -> Option<(&'static str, &ClassifiedFault)> {
        let (rule, record) = self.decided.get(i)?.as_ref()?;
        Some((rule, record))
    }

    /// The universe index of the fault whose campaign verdict — and,
    /// for an SFR fault, power grade — fault `i` takes: its equivalence
    /// class's representative ([`FaultClasses::representative`]) when
    /// the plan collapses, otherwise `i` itself.
    pub fn source(&self, i: usize) -> usize {
        self.classes.as_ref().map_or(i, |c| c.representative(i))
    }

    /// The equivalence classes, when the plan collapses.
    pub fn classes(&self) -> Option<&FaultClasses> {
        self.classes.as_ref()
    }

    /// The faults the campaign simulates: the undecided faults that are
    /// their own source, in universe order.
    pub fn campaign(&self) -> Vec<StuckAt> {
        (0..self.universe.len())
            .filter(|&i| self.decision(i).is_none() && self.source(i) == i)
            .map(|i| self.universe[i])
            .collect()
    }

    /// How many faults each rule of [`STATIC_RULES`] decides, in that
    /// order.
    pub fn rule_counts(&self) -> Vec<(&'static str, usize)> {
        STATIC_RULES
            .iter()
            .map(|&rule| {
                let n = self.decided.iter().flatten().filter(|(r, _)| *r == rule);
                (rule, n.count())
            })
            .collect()
    }

    /// Arranges `sfr`, a universe-ordered list of SFR faults, for power
    /// grading: each fault takes the grade of its [source](Self::source),
    /// so only sources are graded. Panics if `sfr` is out of order or
    /// holds a fault but not its source.
    pub fn grading_set(&self, sfr: &[StuckAt]) -> GradingSet {
        if self.classes.is_none() {
            return GradingSet {
                faults: sfr.to_vec(),
                takes: Vec::new(),
            };
        }
        // Sources precede their members in universe order, so a member's
        // source is already graded (or not SFR) when the member comes.
        let (mut graded, mut faults) = (Vec::new(), Vec::new());
        let mut u = 0;
        let takes = sfr
            .iter()
            .map(|&f| {
                u += self.universe[u..]
                    .iter()
                    .position(|&g| g == f)
                    .expect("SFR faults are a universe-ordered subsequence");
                let source = self.source(u);
                if source == u {
                    graded.push(u);
                    faults.push(f);
                }
                let k = graded.binary_search(&source).unwrap_or_else(|_| {
                    panic!("SFR fault {f} takes the grade of a fault that is not SFR")
                });
                (f, k)
            })
            .collect();
        GradingSet { faults, takes }
    }
}

/// A planned study's SFR faults arranged for power grading (see
/// [`CampaignPlan::grading_set`]).
#[derive(Debug)]
pub struct GradingSet {
    /// The faults to grade, in universe order.
    pub faults: Vec<StuckAt>,
    /// Per SFR fault, in order: the fault and the position in `faults`
    /// of the fault whose grade it takes. Empty when every SFR fault is
    /// graded itself.
    takes: Vec<(StuckAt, usize)>,
}

impl GradingSet {
    /// Spreads a report over [`faults`](Self::faults) back over every
    /// SFR fault, in SFR order: each takes its source's grade (none when
    /// the source's pack was quarantined) and watchdog hit. Quarantined
    /// packs stay first, naming the faults that ran.
    pub fn expand(&self, report: GradeReport) -> GradeReport {
        if self.takes.is_empty() {
            return report;
        }
        // Grades and watchdog hits come back in `faults` order, without
        // the faults of quarantined packs.
        let (stalls, mut incidents): (Vec<_>, Vec<_>) = report
            .incidents
            .into_iter()
            .partition(|i| matches!(i, GradeIncident::BudgetExhausted { .. }));
        let mut grades = report.grades.into_iter().peekable();
        let mut stalls = stalls.into_iter().peekable();
        let graded: Vec<(Option<PowerGrade>, bool)> = self
            .faults
            .iter()
            .map(|&f| {
                let stall = GradeIncident::BudgetExhausted { fault: f };
                (
                    grades.next_if(|g| g.fault == f),
                    stalls.next_if(|s| *s == stall).is_some(),
                )
            })
            .collect();
        let mut expanded = Vec::with_capacity(self.takes.len());
        for &(fault, k) in &self.takes {
            let (grade, stalled) = graded[k];
            expanded.extend(grade.map(|g| PowerGrade { fault, ..g }));
            if stalled {
                incidents.push(GradeIncident::BudgetExhausted { fault });
            }
        }
        GradeReport {
            baseline: report.baseline,
            grades: expanded,
            incidents,
        }
    }
}

/// Runs the full methodology over a system's controller fault universe
/// with the engine selection from `cfg.parallel` and no observer. See
/// [`classify_system_journaled`] for the engine- and progress-aware
/// entry point.
pub fn classify_system(sys: &System, cfg: &ClassifyConfig) -> Classification {
    let tape = TapeEngine::new(1);
    let engine: &dyn Engine = if cfg.parallel { &tape } else { &SerialEngine };
    classify_system_journaled(sys, cfg, engine, &NullProgress, None).0
}

/// Runs the full methodology on an explicit fault-simulation [`Engine`],
/// reporting phase timings and per-fault events to `progress`, without
/// collapsing (the static pre-pass runs when `cfg.static_prune` is set).
/// See [`classify_system_planned`].
pub fn classify_system_journaled(
    sys: &System,
    cfg: &ClassifyConfig,
    engine: &dyn Engine,
    progress: &dyn Progress,
    journal: Option<&CampaignJournal>,
) -> (Classification, Vec<QuarantinedChunk>) {
    let plan = CampaignPlan::build(sys, cfg.static_prune, false, engine.threads(), progress);
    classify_system_planned(sys, cfg, engine, progress, journal, &plan)
}

/// Runs the methodology as `plan` lays it out: its campaign simulates
/// on `engine` under panic quarantine, checkpointed to `journal` (see
/// [`run_campaign_quarantined`]); decided faults keep their pre-pass
/// record and every other fault takes its source's verdict. Faults
/// whose source landed in a quarantined chunk have no verdict: they
/// are absent, and the chunks are returned instead. Every engine,
/// thread count and plan yields the same classification (DESIGN.md §7
/// and §13).
pub fn classify_system_planned(
    sys: &System,
    cfg: &ClassifyConfig,
    engine: &dyn Engine,
    progress: &dyn Progress,
    journal: Option<&CampaignJournal>,
    plan: &CampaignPlan,
) -> (Classification, Vec<QuarantinedChunk>) {
    let campaign = plan.campaign();

    let timer = PhaseTimer::start(progress, Phase::Golden);
    let ts = TestSet::pseudorandom(sys.pattern_width(), cfg.test_patterns, cfg.test_seed)
        .expect("the system's test patterns fit one 64-bit word");
    let golden = golden_trace(sys, &ts, &cfg.run);
    timer.finish();

    let timer = PhaseTimer::start(progress, Phase::FaultSim);
    let (outcomes, quarantined) =
        run_campaign_quarantined(engine, sys, &golden, &campaign, progress, journal);
    timer.finish();

    // Steps 2–4 are independent per fault; shard them to the engine's
    // width. Results land in fault order, so the classification is
    // engine- and thread-count-invariant.
    let _timer = PhaseTimer::start(progress, Phase::Analyze);
    let classified = sfr_exec::par_map_indexed(engine.threads(), outcomes.len(), |i| {
        classify_outcome(sys, outcomes[i])
    });

    // Merge in universe order. Outcomes come back in campaign order,
    // without the faults of quarantined chunks; a folded fault's source
    // precedes it, so the source's verdict is already merged (or lost
    // to quarantine, and the fault's with it).
    let universe = plan.universe();
    let mut classified = classified.into_iter().peekable();
    let mut faults: Vec<ClassifiedFault> = Vec::with_capacity(universe.len());
    for (i, &fault) in universe.iter().enumerate() {
        let source = universe[plan.source(i)];
        let record = match plan.decision(i) {
            Some((_, record)) => Some(record.clone()),
            None if source == fault => classified.next_if(|c| c.fault == fault),
            None => faults
                .iter()
                .rev()
                .find(|c| c.fault == source)
                .map(|c| ClassifiedFault { fault, ..c.clone() }),
        };
        faults.extend(record);
    }
    (Classification { faults }, quarantined)
}

/// Tries to classify one fault without simulation: the deciding rule
/// (one of [`STATIC_RULES`]) with the record, or `None` when the class
/// depends on campaign evidence. After the CFR proofs this is
/// [`classify_outcome`] on a not-detected outcome, kept when CFR or SFR:
/// neither branch reads the detection, and no simulation can detect
/// such a fault (DESIGN.md §7), so the record is the campaign's own.
/// An SFI fault's [`SfiReason`] embeds the first detecting or ambiguous
/// cycle, which only the campaign can produce.
fn static_decision(
    sys: &System,
    analysis: &sfr_lint::StaticAnalysis,
    fault: StuckAt,
) -> Option<(&'static str, ClassifiedFault)> {
    use sfr_lint::StaticCfrReason;
    let sf = sys.fault_to_standalone(fault)?;
    if let Some(reason) = sfr_lint::statically_cfr(sys, analysis, sf) {
        let rule = match reason {
            StaticCfrReason::DeadCone => "dead-cone",
            StaticCfrReason::ConstantSite => "constant-site",
            StaticCfrReason::MaskedPropagation => "masked-propagation",
            StaticCfrReason::ParityCancellation => "parity-cancellation",
        };
        let record = ClassifiedFault {
            fault,
            class: FaultClass::Cfr,
            effects: Vec::new(),
            rule_verdict: None,
        };
        return Some((rule, record));
    }
    let record = classify_outcome(
        sys,
        CampaignOutcome {
            fault,
            detection: Detection::NotDetected,
        },
    );
    match record.class {
        FaultClass::Cfr => Some(("table-cfr", record)),
        FaultClass::Sfr => Some(("oracle-sfr", record)),
        FaultClass::Sfi(_) => None,
    }
}

/// A collapsing plan's [`CampaignPlan::grading_set`] of a
/// universe-ordered SFR list, as `(representatives, member →
/// representative)`: one fault per structural equivalence class, whose
/// power grade is every member's. Panics as `grading_set` does.
pub fn collapse_grading_set(
    sys: &System,
    sfr: &[StuckAt],
) -> (Vec<StuckAt>, HashMap<StuckAt, StuckAt>) {
    let set = CampaignPlan::build(sys, false, true, 1, &NullProgress).grading_set(sfr);
    let rep_of = set.takes.iter().map(|&(f, k)| (f, set.faults[k])).collect();
    (set.faults, rep_of)
}

/// Steps 2–4 of the methodology for one campaign outcome.
fn classify_outcome(sys: &System, o: sfr_faultsim::CampaignOutcome) -> ClassifiedFault {
    // Step 1: simulation-detected faults are SFI.
    if let Detection::Detected { cycle } = o.detection {
        return ClassifiedFault {
            fault: o.fault,
            class: FaultClass::Sfi(SfiReason::Simulation { cycle }),
            effects: Vec::new(),
            rule_verdict: None,
        };
    }
    // Steps 3–4: exhaustive controller analysis.
    let sf = sys
        .fault_to_standalone(o.fault)
        .expect("controller faults remap");
    let behavior = analyze_controller_fault(sys, sf);
    if behavior.is_cfr() {
        return ClassifiedFault {
            fault: o.fault,
            class: FaultClass::Cfr,
            effects: Vec::new(),
            rule_verdict: None,
        };
    }
    // The Section 3 rules reason about control line effects only
    // — they presuppose an unchanged state sequence — so they
    // are consulted only for non-sequence-altering faults.
    let rule_verdict =
        (!behavior.sequence_altering).then(|| judge_by_rules(sys, &behavior.effects));
    if behavior.sequence_altering {
        // Step 2 first: a potential detection confirms the fault
        // manifests; otherwise label by its sequence effect.
        let class = match o.detection {
            Detection::Potential { cycle } => {
                FaultClass::Sfi(SfiReason::PotentialResolved { cycle })
            }
            _ => FaultClass::Sfi(SfiReason::SequenceAltering),
        };
        return ClassifiedFault {
            fault: o.fault,
            class,
            effects: behavior.effects,
            rule_verdict,
        };
    }
    // Step 4: the oracle decides.
    let class = match judge(sys, &behavior.faulty_outputs) {
        Verdict::Redundant => FaultClass::Sfr,
        Verdict::Irredundant(m) => {
            // Prefer the concrete step-2 evidence when present.
            match o.detection {
                Detection::Potential { cycle } => {
                    FaultClass::Sfi(SfiReason::PotentialResolved { cycle })
                }
                _ => FaultClass::Sfi(SfiReason::Oracle(m)),
            }
        }
    };
    ClassifiedFault {
        fault: o.fault,
        class,
        effects: behavior.effects,
        rule_verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_faultsim::fixtures::{muxed_system, toy_system};
    use sfr_faultsim::CampaignOutcome;

    fn quick_cfg() -> ClassifyConfig {
        ClassifyConfig {
            test_patterns: 240,
            ..Default::default()
        }
    }

    #[test]
    fn classification_partitions_the_universe() {
        let sys = toy_system();
        let c = classify_system(&sys, &quick_cfg());
        assert_eq!(c.total(), sys.controller_faults().len());
        assert_eq!(c.cfr_count() + c.sfr_count() + c.sfi_count(), c.total());
        assert_eq!(c.cfr_count(), 0, "minimized controller: no CFR");
        assert!(c.sfr_count() > 0, "toy system should expose SFR faults");
        assert!(c.sfi_count() > 0);
    }

    #[test]
    fn rule_engine_never_contradicts_the_final_class() {
        for sys in [toy_system(), muxed_system()] {
            let c = classify_system(&sys, &quick_cfg());
            for f in &c.faults {
                match (f.rule_verdict, f.class) {
                    (Some(RuleVerdict::Sfr), FaultClass::Sfi(reason)) => panic!(
                        "rules said SFR but pipeline said SFI({reason:?}) for {}",
                        f.fault
                    ),
                    (Some(RuleVerdict::Sfi), FaultClass::Sfr) => {
                        panic!("rules said SFI but pipeline said SFR for {}", f.fault)
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn sfr_faults_are_never_detected_by_longer_simulation() {
        // Soundness spot-check: re-simulate every SFR fault with a
        // different, longer test set; none may be detected.
        let sys = toy_system();
        let c = classify_system(&sys, &quick_cfg());
        let sfr: Vec<_> = c.sfr().map(|f| f.fault).collect();
        let ts = sfr_tpg::TestSet::pseudorandom(sys.pattern_width(), 600, 0xBEEF).unwrap();
        let golden = golden_trace(&sys, &ts, &RunConfig::default());
        let outcomes: Vec<CampaignOutcome> = sfr_faultsim::run_serial(&sys, &golden, &sfr);
        for o in outcomes {
            assert!(
                !o.detection.is_detected(),
                "SFR fault {} was detected by a longer test",
                o.fault
            );
        }
    }

    #[test]
    fn serial_and_parallel_pipelines_agree() {
        let sys = toy_system();
        let mut cfg = quick_cfg();
        let a = classify_system(&sys, &cfg);
        cfg.parallel = false;
        let b = classify_system(&sys, &cfg);
        for (x, y) in a.faults.iter().zip(&b.faults) {
            assert_eq!(x.fault, y.fault);
            // Classes agree up to the SFI reason's detection cycle.
            assert_eq!(
                std::mem::discriminant(&x.class),
                std::mem::discriminant(&y.class)
            );
        }
    }

    #[test]
    fn threaded_classification_matches_single_thread_exactly() {
        let sys = toy_system();
        let cfg = quick_cfg();
        let one = classify_system(&sys, &cfg);
        for threads in [2, 8] {
            let engine = TapeEngine::new(threads);
            let (threaded, _) =
                classify_system_journaled(&sys, &cfg, &engine, &sfr_exec::NullProgress, None);
            assert_eq!(one.faults.len(), threaded.faults.len());
            for (a, b) in one.faults.iter().zip(&threaded.faults) {
                assert_eq!(a.fault, b.fault);
                assert_eq!(a.class, b.class, "threads = {threads}, fault {}", a.fault);
                assert_eq!(a.effects, b.effects);
                assert_eq!(a.rule_verdict, b.rule_verdict);
            }
        }
    }

    #[test]
    fn static_prune_is_bit_identical() {
        for sys in [toy_system(), muxed_system()] {
            let mut cfg = quick_cfg();
            let full = classify_system(&sys, &cfg);
            cfg.static_prune = true;
            let pruned = classify_system(&sys, &cfg);
            assert_eq!(full.faults.len(), pruned.faults.len());
            for (a, b) in full.faults.iter().zip(&pruned.faults) {
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "fault {}", a.fault);
            }
        }
    }

    #[test]
    fn static_prune_skips_every_provable_fault() {
        // Every final CFR or SFR verdict is reachable without campaign
        // evidence, so the pre-pass must decide at least those faults.
        let sys = toy_system();
        let mut cfg = quick_cfg();
        cfg.static_prune = true;
        let counters = sfr_exec::Counters::new();
        let (c, _) = classify_system_journaled(&sys, &cfg, &TapeEngine::new(1), &counters, None);
        let snap = counters.snapshot();
        assert!(snap.faults_pruned > 0, "toy system has SFR faults to prune");
        assert!(snap.faults_pruned >= c.cfr_count() + c.sfr_count());
        assert_eq!(
            snap.faults_simulated,
            c.total() - snap.faults_pruned,
            "pruned faults must not enter the campaign"
        );
    }

    /// Classifies `sys` through a plan with `collapse`, reporting to
    /// `progress`.
    fn planned(
        sys: &System,
        cfg: &ClassifyConfig,
        collapse: bool,
        progress: &dyn Progress,
    ) -> Classification {
        let plan = CampaignPlan::build(sys, cfg.static_prune, collapse, 1, progress);
        classify_system_planned(sys, cfg, &TapeEngine::new(1), progress, None, &plan).0
    }

    #[test]
    fn collapsed_classification_is_bit_identical() {
        for sys in [toy_system(), muxed_system()] {
            for static_prune in [false, true] {
                let cfg = ClassifyConfig {
                    static_prune,
                    ..quick_cfg()
                };
                let plain = planned(&sys, &cfg, false, &NullProgress);
                let collapsed = planned(&sys, &cfg, true, &NullProgress);
                assert_eq!(plain.faults.len(), collapsed.faults.len());
                for (a, b) in plain.faults.iter().zip(&collapsed.faults) {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "fault {}", a.fault);
                }
            }
        }
    }

    #[test]
    fn collapsed_campaign_simulates_only_representatives() {
        let sys = toy_system();
        let counters = sfr_exec::Counters::new();
        let c = planned(&sys, &quick_cfg(), true, &counters);
        let snap = counters.snapshot();
        assert_eq!(c.total(), sys.controller_faults().len());
        assert_eq!(
            snap.faults_simulated + snap.faults_collapsed + snap.faults_pruned,
            c.total(),
            "every fault is simulated, folded, or statically pruned"
        );
        let classes = FaultClasses::build(&sys.netlist, &sys.controller_faults());
        assert_eq!(snap.faults_collapsed, classes.merged_count());
    }

    #[test]
    fn the_plan_accounts_for_every_fault_once() {
        for sys in [toy_system(), muxed_system()] {
            let counters = sfr_exec::Counters::new();
            let plan = CampaignPlan::build(&sys, true, true, 2, &counters);
            let snap = counters.snapshot();
            let universe = plan.universe().len();
            let decided = (0..universe).filter(|&i| plan.decision(i).is_some());
            assert_eq!(decided.count(), snap.faults_pruned);
            let by_rule: usize = plan.rule_counts().iter().map(|(_, n)| n).sum();
            assert_eq!(by_rule, snap.faults_pruned, "every decision names a rule");
            assert_eq!(
                plan.campaign().len() + snap.faults_collapsed + snap.faults_pruned,
                universe
            );
            for i in 0..universe {
                let source = plan.source(i);
                assert!(source <= i, "a source is its class's lowest index");
                assert_eq!(plan.source(source), source);
            }
        }
    }

    /// A fault-simulation engine whose every chunk panics.
    struct Panicking;

    impl Engine for Panicking {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn run(
            &self,
            _: &System,
            _: &sfr_faultsim::GoldenTrace,
            _: &[StuckAt],
        ) -> (Vec<CampaignOutcome>, u64) {
            panic!("every chunk panics")
        }
    }

    #[test]
    fn faults_whose_source_is_quarantined_have_no_verdict() {
        let sys = toy_system();
        let plan = CampaignPlan::build(&sys, true, true, 1, &NullProgress);
        let universe = plan.universe().len();
        assert!(
            (0..universe).any(|i| plan.decision(i).is_none() && plan.source(i) != i),
            "the toy system has a folded undecided fault"
        );
        let (c, quarantined) =
            classify_system_planned(&sys, &quick_cfg(), &Panicking, &NullProgress, None, &plan);
        assert_eq!(quarantined.len(), 1, "the toy campaign is one chunk");
        let decided: Vec<StuckAt> = (0..universe)
            .filter_map(|i| plan.decision(i).map(|(_, record)| record.fault))
            .collect();
        let kept: Vec<StuckAt> = c.faults.iter().map(|f| f.fault).collect();
        assert_eq!(kept, decided, "only the pre-pass's records survive");
    }

    #[test]
    #[should_panic(expected = "split an equivalence class")]
    fn a_class_decided_in_part_fails_loudly() {
        let sys = toy_system();
        let mut plan = CampaignPlan::build(&sys, false, true, 1, &NullProgress);
        let member = (0..plan.universe().len())
            .find(|&i| plan.source(i) != i)
            .expect("the toy system has a folded fault");
        let record = ClassifiedFault {
            fault: plan.universe[member],
            class: FaultClass::Cfr,
            effects: Vec::new(),
            rule_verdict: None,
        };
        plan.decided = vec![None; plan.universe.len()];
        plan.decided[member] = Some(("table-cfr", record));
        plan.check_whole_class(member);
    }

    #[test]
    fn grades_spread_over_members_without_their_quarantined_source() {
        use sfr_netlist::GateId;
        let fault = |g: usize| StuckAt::output(GateId::from_index(g), true);
        let (a, a2, b, b2) = (fault(1), fault(2), fault(3), fault(4));
        let set = GradingSet {
            faults: vec![a, b],
            takes: vec![(a, 0), (a2, 0), (b, 1), (b2, 1)],
        };
        let grade = |fault| PowerGrade {
            fault,
            mean_uw: 2.0,
            pct_change: 1.0,
            flagged: false,
        };
        let quarantine = GradeIncident::QuarantinedPack {
            pack: 0,
            faults: vec![a],
            message: "boom".into(),
        };
        let report = set.expand(GradeReport {
            baseline: sfr_power_model::MonteCarloResult {
                mean_uw: 1.0,
                half_width_uw: 0.0,
                batches: 1,
                converged: true,
            },
            grades: vec![grade(b)],
            incidents: vec![
                quarantine.clone(),
                GradeIncident::BudgetExhausted { fault: b },
            ],
        });
        let graded: Vec<StuckAt> = report.grades.iter().map(|g| g.fault).collect();
        assert_eq!(graded, [b, b2]);
        assert_eq!(
            report.incidents,
            [
                quarantine,
                GradeIncident::BudgetExhausted { fault: b },
                GradeIncident::BudgetExhausted { fault: b2 },
            ]
        );
    }

    #[test]
    fn sfr_faults_have_effects_recorded() {
        let sys = toy_system();
        let c = classify_system(&sys, &quick_cfg());
        for f in c.sfr() {
            assert!(
                !f.effects.is_empty(),
                "an SFR fault must have at least one control line effect"
            );
        }
    }
}

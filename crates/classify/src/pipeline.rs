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

use std::collections::HashMap;

use crate::oracle::{judge, Mismatch, Verdict};
use crate::rules::{judge_by_rules, RuleVerdict};
use crate::table::{analyze_controller_fault, ControlLineEffect};
use sfr_exec::{NullProgress, Phase, PhaseTimer, Progress, ProgressEvent, TraceRecord};
use sfr_faultsim::{
    golden_trace, run_campaign_quarantined, Detection, Engine, QuarantinedChunk, RunConfig,
    SerialEngine, System, TapeEngine,
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

/// Runs the full methodology over a system's controller fault universe
/// with the default engine selection from `cfg.parallel` and no
/// observer. See [`classify_system_with`] for the engine- and
/// progress-aware entry point.
pub fn classify_system(sys: &System, cfg: &ClassifyConfig) -> Classification {
    if cfg.parallel {
        classify_system_with(sys, cfg, &TapeEngine::new(1), &NullProgress)
    } else {
        classify_system_with(sys, cfg, &SerialEngine, &NullProgress)
    }
}

/// Runs the full methodology on an explicit fault-simulation [`Engine`],
/// reporting phase timings and per-fault events to `progress`.
///
/// All engines yield identical classifications (the campaign verdicts
/// are engine-invariant and every later step is deterministic).
pub fn classify_system_with(
    sys: &System,
    cfg: &ClassifyConfig,
    engine: &dyn Engine,
    progress: &dyn Progress,
) -> Classification {
    classify_system_journaled(sys, cfg, engine, progress, None).0
}

/// [`classify_system_with`] plus campaign resilience: fault-simulation
/// chunks run under panic quarantine and, when `journal` is given,
/// completed chunks are checkpointed and previously-journaled chunks
/// restored verbatim (see
/// [`run_campaign_quarantined`]).
///
/// Quarantined chunks' faults are absent from the returned
/// [`Classification`] — they have no verdict — and are reported in the
/// second tuple element instead. With a healthy engine the
/// classification is identical to [`classify_system_with`]'s.
pub fn classify_system_journaled(
    sys: &System,
    cfg: &ClassifyConfig,
    engine: &dyn Engine,
    progress: &dyn Progress,
    journal: Option<&CampaignJournal>,
) -> (Classification, Vec<QuarantinedChunk>) {
    classify_system_collapsed(sys, cfg, engine, progress, journal, false)
}

/// [`classify_system_journaled`] plus structural fault collapsing: with
/// `collapse` set, equivalence classes from
/// [`FaultClasses`] are built over the controller
/// universe and only one *campaign representative* per class — the
/// class's first member the static pre-pass left undecided — enters the
/// fault-simulation campaign. Every folded member then clones its
/// representative's verdict with its own fault identity restored.
///
/// Equivalent faults produce faulty machines that agree at every
/// observation point (system outputs, watchdog state decode, datapath
/// activity), so the representative's detection verdict, detection
/// cycle, table effects, and oracle verdict are the member's own — the
/// returned [`Classification`] is bit-identical to the uncollapsed run.
/// Members whose representative landed in a quarantined chunk are
/// absent, exactly as the representative is.
pub fn classify_system_collapsed(
    sys: &System,
    cfg: &ClassifyConfig,
    engine: &dyn Engine,
    progress: &dyn Progress,
    journal: Option<&CampaignJournal>,
    collapse: bool,
) -> (Classification, Vec<QuarantinedChunk>) {
    let faults = sys.controller_faults();

    // Static pre-pass: classify what needs no simulation, prune it
    // from the campaign. Verdicts are per-fault and deterministic, so
    // the pruned pipeline is bit-identical to the unpruned one.
    let mut decided: Vec<Option<ClassifiedFault>> = vec![None; faults.len()];
    if cfg.static_prune {
        let timer = PhaseTimer::start(progress, Phase::Lint);
        let analysis = sfr_lint::analyze_controller_static(sys);
        decided = sfr_exec::par_map_indexed(engine.threads(), faults.len(), |i| {
            static_decide(sys, &analysis, faults[i])
        });
        for _ in decided.iter().flatten() {
            progress.event(ProgressEvent::FaultPruned);
        }
        timer.finish();
    }

    // Collapse: pick one campaign representative per equivalence class
    // and remember, for every folded member, whose verdict it inherits.
    // The pre-pass decides classes all-or-none (equivalent faults have
    // identical controller tables), so a class either vanishes entirely
    // or fields exactly one representative.
    let mut campaign: Vec<StuckAt> = Vec::with_capacity(faults.len());
    let mut inherits: Vec<Option<StuckAt>> = vec![None; faults.len()];
    if collapse {
        let timer = PhaseTimer::start(progress, Phase::Collapse);
        let classes = FaultClasses::build(&sys.netlist, &faults);
        let mut chosen: HashMap<usize, StuckAt> = HashMap::new();
        for (i, (&f, d)) in faults.iter().zip(&decided).enumerate() {
            if d.is_some() {
                continue;
            }
            match chosen.get(&classes.representative(i)) {
                None => {
                    chosen.insert(classes.representative(i), f);
                    campaign.push(f);
                }
                Some(&rep) => {
                    inherits[i] = Some(rep);
                    progress.event(ProgressEvent::FaultCollapsed);
                }
            }
        }
        if progress.wants_records() {
            progress.record(&TraceRecord::Collapse {
                universe: classes.len(),
                classes: classes.class_count(),
                merged: classes.merged_count(),
            });
        }
        timer.finish();
    } else {
        campaign.extend(
            faults
                .iter()
                .zip(&decided)
                .filter(|(_, d)| d.is_none())
                .map(|(&f, _)| f),
        );
    }

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

    // Merge back into fault-universe order: statically-decided faults
    // carry their own record, simulated faults look themselves up, and
    // folded members look up their representative and re-label the
    // clone. Faults in quarantined chunks (and their folded members)
    // carry no verdict and stay absent.
    let simulated: HashMap<StuckAt, ClassifiedFault> =
        classified.into_iter().map(|c| (c.fault, c)).collect();
    let mut merged: Vec<ClassifiedFault> = Vec::with_capacity(faults.len());
    for (i, (&f, d)) in faults.iter().zip(decided).enumerate() {
        if let Some(c) = d {
            merged.push(c);
        } else if let Some(c) = simulated.get(&inherits[i].unwrap_or(f)) {
            let mut c = c.clone();
            c.fault = f;
            merged.push(c);
        }
    }

    (Classification { faults: merged }, quarantined)
}

/// Tries to classify one fault without simulation. `None` means the
/// fault's final class depends on campaign evidence (a detection cycle)
/// and it must be simulated.
///
/// Sound prunes, and why they reproduce the simulated pipeline bit for
/// bit:
///
/// * **CFR** (static proof or exhaustive table): the faulty machine is
///   behaviourally identical to the fault-free one on every enumerated
///   state and status, so no physical execution can ever *detect* it —
///   and [`classify_outcome`]'s CFR branch returns before consulting
///   the detection verdict anyway.
/// * **SFR** (table effects + oracle `Redundant`): the oracle proves
///   I/O-equivalence, so detection is impossible, and the SFR branch
///   likewise ignores potential-detection evidence.
///
/// Sequence-altering and oracle-irredundant faults are *not* pruned:
/// their [`SfiReason`] embeds the first detecting/ambiguous cycle,
/// which only the campaign can produce.
fn static_decide(
    sys: &System,
    analysis: &sfr_lint::StaticAnalysis,
    fault: StuckAt,
) -> Option<ClassifiedFault> {
    let sf = sys.fault_to_standalone(fault)?;
    let cfr = ClassifiedFault {
        fault,
        class: FaultClass::Cfr,
        effects: Vec::new(),
        rule_verdict: None,
    };
    if sfr_lint::statically_cfr(sys, analysis, sf).is_some() {
        return Some(cfr);
    }
    let behavior = analyze_controller_fault(sys, sf);
    if behavior.is_cfr() {
        return Some(cfr);
    }
    if behavior.sequence_altering {
        return None;
    }
    let rule_verdict = Some(judge_by_rules(sys, &behavior.effects));
    match judge(sys, &behavior.faulty_outputs) {
        Verdict::Redundant => Some(ClassifiedFault {
            fault,
            class: FaultClass::Sfr,
            effects: behavior.effects,
            rule_verdict,
        }),
        Verdict::Irredundant(_) => None,
    }
}

/// Collapses a universe-ordered SFR list to its grading set: one
/// representative per structural equivalence class (the class's first
/// SFR member) plus the member → representative map for expanding the
/// representatives' power grades back over the whole list.
///
/// Equivalence classes never split across verdicts — equivalent faults
/// share their controller table, detection behaviour, and datapath
/// activity — so each class is either absent from `sfr` or present in
/// full, and the representative's grade is every member's grade.
pub fn collapse_grading_set(
    sys: &System,
    sfr: &[StuckAt],
) -> (Vec<StuckAt>, HashMap<StuckAt, StuckAt>) {
    let universe = sys.controller_faults();
    let classes = FaultClasses::build(&sys.netlist, &universe);
    let index: HashMap<StuckAt, usize> =
        universe.iter().enumerate().map(|(i, &f)| (f, i)).collect();
    let mut reps = Vec::with_capacity(sfr.len());
    let mut rep_of = HashMap::with_capacity(sfr.len());
    let mut chosen: HashMap<usize, StuckAt> = HashMap::new();
    for &f in sfr {
        let root = classes.representative(index[&f]);
        let rep = *chosen.entry(root).or_insert_with(|| {
            reps.push(f);
            f
        });
        rep_of.insert(f, rep);
    }
    (reps, rep_of)
}

/// Attribution for `sfr analyze`: which static rule decides `fault`
/// without any simulation. Returns the deciding rule's stable label —
/// `dead-cone`, `constant-site`, `masked-propagation`,
/// `parity-cancellation` (CFR proofs, cheapest first), `table-cfr`, or
/// `oracle-sfr` — or `None` when only campaign evidence can finish the
/// classification. Decisions match [`classify_system_collapsed`]'s
/// static pre-pass exactly.
pub fn static_rule_label(
    sys: &System,
    analysis: &sfr_lint::StaticAnalysis,
    fault: StuckAt,
) -> Option<&'static str> {
    use sfr_lint::StaticCfrReason;
    let sf = sys.fault_to_standalone(fault)?;
    if let Some(reason) = sfr_lint::statically_cfr(sys, analysis, sf) {
        return Some(match reason {
            StaticCfrReason::DeadCone => "dead-cone",
            StaticCfrReason::ConstantSite => "constant-site",
            StaticCfrReason::MaskedPropagation => "masked-propagation",
            StaticCfrReason::ParityCancellation => "parity-cancellation",
        });
    }
    let behavior = analyze_controller_fault(sys, sf);
    if behavior.is_cfr() {
        return Some("table-cfr");
    }
    if behavior.sequence_altering {
        return None;
    }
    match judge(sys, &behavior.faulty_outputs) {
        Verdict::Redundant => Some("oracle-sfr"),
        Verdict::Irredundant(_) => None,
    }
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
            let threaded = classify_system_with(&sys, &cfg, &engine, &sfr_exec::NullProgress);
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
        let c = classify_system_with(&sys, &cfg, &TapeEngine::new(1), &counters);
        let snap = counters.snapshot();
        assert!(snap.faults_pruned > 0, "toy system has SFR faults to prune");
        assert!(snap.faults_pruned >= c.cfr_count() + c.sfr_count());
        assert_eq!(
            snap.faults_simulated,
            c.total() - snap.faults_pruned,
            "pruned faults must not enter the campaign"
        );
    }

    #[test]
    fn collapsed_classification_is_bit_identical() {
        for sys in [toy_system(), muxed_system()] {
            for static_prune in [false, true] {
                let cfg = ClassifyConfig {
                    static_prune,
                    ..quick_cfg()
                };
                let (plain, _) = classify_system_collapsed(
                    &sys,
                    &cfg,
                    &TapeEngine::new(1),
                    &sfr_exec::NullProgress,
                    None,
                    false,
                );
                let (collapsed, _) = classify_system_collapsed(
                    &sys,
                    &cfg,
                    &TapeEngine::new(1),
                    &sfr_exec::NullProgress,
                    None,
                    true,
                );
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
        let (c, _) = classify_system_collapsed(
            &sys,
            &quick_cfg(),
            &TapeEngine::new(1),
            &counters,
            None,
            true,
        );
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

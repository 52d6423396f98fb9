//! The traced run: drives each study through the program's public layer
//! functions one call at a time, with a span around every call.
//!
//! The flow mirrors `classify_system_collapsed` and `execute_study` in
//! the program step for step (same calls, same order, same phase
//! events), so its outputs must equal the untraced run's exactly; the
//! caller checks that. Spans are kept in memory and written at the end.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sfr_core::exec::{
    par_map_indexed, Counters, Engine, Phase, PhaseTimer, Progress, ProgressEvent,
    QuarantinedChunk, Tee, TraceRecord,
};
use sfr_core::obs::{Metrics, TraceWriter};
use sfr_core::{
    analyze_controller_fault, analyze_controller_static, collapse_grading_set, golden_trace,
    grade_faults_journaled_with_kernel, grade_pack_count, grade_pack_slice, judge, judge_by_rules,
    statically_cfr, CampaignJournal, CampaignOutcome, Classification, ClassifiedFault,
    ClassifyConfig, Detection, FaultClass, FaultClasses, GradeConfig, GradeIncident, Incident,
    PowerGrade, RuleVerdict, SfiReason, StaticAnalysis, StuckAt, StudyBuilder, System, TapeProgram,
    TestSet, Verdict,
};

use crate::study::{catch, emit, AuditFiles, Digest, Kind, Results, Spec, Workload};

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub study: usize,
}

/// In-memory span store. `current` is the innermost open span on the
/// driving thread; calls the program makes back into the observers
/// (possibly from its worker threads) are attributed to it.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    current: AtomicUsize,
}

const NO_SPAN: usize = usize::MAX;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicUsize::new(NO_SPAN),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    fn parent(&self) -> Option<usize> {
        match self.current.load(Ordering::Relaxed) {
            NO_SPAN => None,
            id => Some(id),
        }
    }

    /// Times `f` as a span under the current one and makes it current
    /// while `f` runs. Driving thread only.
    pub fn span<R>(&self, name: &'static str, study: usize, f: impl FnOnce() -> R) -> R {
        let open = Open {
            tracer: self,
            outer: self.current.load(Ordering::Relaxed),
            id: self.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent: self.parent(),
                study,
            }),
        };
        self.current.store(open.id, Ordering::Relaxed);
        f()
    }

    /// Times `f` as a leaf span under `parent`; safe from any thread.
    pub fn leaf<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        study: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.push(Span {
            name,
            start,
            end,
            parent,
            study,
        });
        r
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    pub fn spans_since(&self, first: usize) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned")[first..].to_vec()
    }
}

/// An open span: closing it (also while unwinding from a panic) ends it
/// and makes its parent current again.
struct Open<'t> {
    tracer: &'t Tracer,
    id: usize,
    outer: usize,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        self.tracer.current.store(self.outer, Ordering::Relaxed);
        let end = self.tracer.now();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.id].end = end;
        }
    }
}

/// Each span's self time: its duration minus the part of it its
/// children cover (children on worker threads may overlap, so the union
/// of their intervals is subtracted, never their sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Every child lies inside its parent and belongs to the same study.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = spans.get(p).ok_or(format!("span {i} has no parent {p}"))?;
            if s.start < ps.start || s.end > ps.end || s.study != ps.study {
                return Err(format!(
                    "span {i} ({}) escapes its parent {}",
                    s.name, ps.name
                ));
            }
        }
    }
    Ok(())
}

/// Forwards every observer call to `inner`, each as a span.
struct Timed<'a> {
    inner: &'a dyn Progress,
    name: &'static str,
    tracer: &'a Tracer,
    study: usize,
}

impl Progress for Timed<'_> {
    fn event(&self, event: ProgressEvent) {
        self.tracer
            .leaf(self.name, self.tracer.parent(), self.study, || {
                self.inner.event(event)
            });
    }

    fn record(&self, record: &TraceRecord) {
        self.tracer
            .leaf(self.name, self.tracer.parent(), self.study, || {
                self.inner.record(record)
            });
    }

    fn wants_records(&self) -> bool {
        self.inner.wants_records()
    }
}

/// Process CPU time (all threads), nanoseconds.
fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Counts the traced run gathers besides span times, summed over the
/// pass's studies.
#[derive(Default)]
pub struct Counts {
    pub gates: usize,
    pub universe: usize,
    pub golden_cycles: usize,
    pub rules_decided: usize,
    pub pruned: usize,
    pub collapse_universe: usize,
    pub collapse_classes: usize,
    pub grade_packs: usize,
    pub faults_graded: usize,
    pub tape_ops: usize,
    pub tape_levels: usize,
    pub campaign_cpu_ns: u64,
    pub campaign_thread_ns: u64,
    pub grade_cpu_ns: u64,
    pub grade_thread_ns: u64,
    pub journal_records: usize,
    pub journal_bytes: u64,
    pub resume_faults: usize,
    pub trace_records: usize,
    pub trace_bytes: u64,
    /// Counter totals over every study (simulated, dropped, Monte Carlo,
    /// restored).
    pub faults_simulated: usize,
    pub faults_detected: usize,
    pub mc_batches: usize,
    pub mc_capped: usize,
    pub mc_estimations: usize,
    pub faults_restored: usize,
}

/// One study as the traced flow sees it: the system, engine, observers
/// and journal its layer calls use.
struct Run<'a> {
    tracer: &'a Tracer,
    study: usize,
    sys: &'a System,
    engine: &'a dyn Engine,
    threads: usize,
    progress: &'a dyn Progress,
    journal: Option<&'a CampaignJournal>,
    collapse: bool,
    rules_decided: &'a AtomicUsize,
}

/// The traced flow's outputs for one pass and how many faults its static
/// pre-pass decided.
struct Driven {
    results: Results,
    pruned: usize,
}

impl<'a> Run<'a> {
    /// The same study driven with other observers and journal.
    fn with<'b>(
        &'b self,
        progress: &'b dyn Progress,
        journal: Option<&'b CampaignJournal>,
    ) -> Run<'b> {
        Run {
            progress,
            journal,
            ..*self
        }
    }

    fn table(&self, parent: Option<usize>, fault: StuckAt) -> sfr_core::ControllerBehavior {
        self.tracer.leaf("classify.table", parent, self.study, || {
            analyze_controller_fault(self.sys, fault)
        })
    }

    fn rules(&self, parent: Option<usize>, effects: &[sfr_core::ControlLineEffect]) -> RuleVerdict {
        let v = self.tracer.leaf("classify.rules", parent, self.study, || {
            judge_by_rules(self.sys, effects)
        });
        if v != RuleVerdict::Undecided {
            self.rules_decided.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    fn oracle(&self, parent: Option<usize>, table: &[Vec<bool>]) -> Verdict {
        self.tracer.leaf("classify.oracle", parent, self.study, || {
            judge(self.sys, table)
        })
    }

    /// The static pre-pass decision for one fault (the program's
    /// `static_decide`).
    fn static_decide(
        &self,
        parent: Option<usize>,
        analysis: &StaticAnalysis,
        fault: StuckAt,
    ) -> Option<ClassifiedFault> {
        let sf = self.sys.fault_to_standalone(fault)?;
        let cfr = ClassifiedFault {
            fault,
            class: FaultClass::Cfr,
            effects: Vec::new(),
            rule_verdict: None,
        };
        if statically_cfr(self.sys, analysis, sf).is_some() {
            return Some(cfr);
        }
        let behavior = self.table(parent, sf);
        if behavior.is_cfr() {
            return Some(cfr);
        }
        if behavior.sequence_altering {
            return None;
        }
        let rule_verdict = Some(self.rules(parent, &behavior.effects));
        match self.oracle(parent, &behavior.faulty_outputs) {
            Verdict::Redundant => Some(ClassifiedFault {
                fault,
                class: FaultClass::Sfr,
                effects: behavior.effects,
                rule_verdict,
            }),
            Verdict::Irredundant(_) => None,
        }
    }

    /// Steps 2–4 for one campaign outcome (the program's
    /// `classify_outcome`).
    fn classify_outcome(&self, parent: Option<usize>, o: CampaignOutcome) -> ClassifiedFault {
        if let Detection::Detected { cycle } = o.detection {
            return ClassifiedFault {
                fault: o.fault,
                class: FaultClass::Sfi(SfiReason::Simulation { cycle }),
                effects: Vec::new(),
                rule_verdict: None,
            };
        }
        let sf = self
            .sys
            .fault_to_standalone(o.fault)
            .expect("controller faults remap");
        let behavior = self.table(parent, sf);
        if behavior.is_cfr() {
            return ClassifiedFault {
                fault: o.fault,
                class: FaultClass::Cfr,
                effects: Vec::new(),
                rule_verdict: None,
            };
        }
        let rule_verdict =
            (!behavior.sequence_altering).then(|| self.rules(parent, &behavior.effects));
        if behavior.sequence_altering {
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
        let class = match self.oracle(parent, &behavior.faulty_outputs) {
            Verdict::Redundant => FaultClass::Sfr,
            Verdict::Irredundant(m) => match o.detection {
                Detection::Potential { cycle } => {
                    FaultClass::Sfi(SfiReason::PotentialResolved { cycle })
                }
                _ => FaultClass::Sfi(SfiReason::Oracle(m)),
            },
        };
        ClassifiedFault {
            fault: o.fault,
            class,
            effects: behavior.effects,
            rule_verdict,
        }
    }

    /// The program's `classify_system_collapsed`, one layer call at a
    /// time.
    fn classify(
        &self,
        cfg: &ClassifyConfig,
        counts: &mut Counts,
    ) -> (Classification, Vec<QuarantinedChunk>, usize) {
        let (tr, sys, progress) = (self.tracer, self.sys, self.progress);
        let faults = sys.controller_faults();
        counts.universe += faults.len();

        let mut decided: Vec<Option<ClassifiedFault>> = vec![None; faults.len()];
        if cfg.static_prune {
            decided = tr.span("lint.static", self.study, || {
                let timer = PhaseTimer::start(progress, Phase::Lint);
                let analysis = analyze_controller_static(sys);
                let lint = tr.parent();
                let decided = par_map_indexed(self.engine.threads(), faults.len(), |i| {
                    self.static_decide(lint, &analysis, faults[i])
                });
                for _ in decided.iter().flatten() {
                    progress.event(ProgressEvent::FaultPruned);
                }
                timer.finish();
                decided
            });
        }
        let pruned = decided.iter().flatten().count();

        let mut campaign: Vec<StuckAt> = Vec::with_capacity(faults.len());
        let mut inherits: Vec<Option<StuckAt>> = vec![None; faults.len()];
        if self.collapse {
            tr.span("netlist.collapse", self.study, || {
                let timer = PhaseTimer::start(progress, Phase::Collapse);
                let classes = FaultClasses::build(&sys.netlist, &faults);
                counts.collapse_universe += classes.len();
                counts.collapse_classes += classes.class_count();
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
            });
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
        let ts = tr.span("tpg.testset", self.study, || {
            TestSet::pseudorandom(sys.pattern_width(), cfg.test_patterns, cfg.test_seed)
                .expect("16-stage TPGR always constructs")
        });
        let golden = tr.span("faultsim.golden", self.study, || {
            golden_trace(sys, &ts, &cfg.run)
        });
        timer.finish();
        counts.golden_cycles += golden.cycles();

        let timer = PhaseTimer::start(progress, Phase::FaultSim);
        let (cpu, wall) = (cpu_ns(), Instant::now());
        let (outcomes, quarantined) = tr.span("faultsim.campaign", self.study, || {
            sfr_core::exec::run_campaign_quarantined(
                self.engine,
                sys,
                &golden,
                &campaign,
                progress,
                self.journal,
            )
        });
        counts.campaign_cpu_ns += cpu_ns() - cpu;
        counts.campaign_thread_ns += wall.elapsed().as_nanos() as u64 * self.threads as u64;
        timer.finish();

        let classification = tr.span("classify.analyze", self.study, || {
            let _timer = PhaseTimer::start(progress, Phase::Analyze);
            let analyze = tr.parent();
            let classified = par_map_indexed(self.engine.threads(), outcomes.len(), |i| {
                self.classify_outcome(analyze, outcomes[i])
            });
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
            Classification { faults: merged }
        });
        (classification, quarantined, pruned)
    }

    /// The program's `execute_study` grading half.
    fn grade(
        &self,
        cfg: &GradeConfig,
        classification: &Classification,
        counts: &mut Counts,
    ) -> (
        sfr_core::MonteCarloResult,
        Vec<PowerGrade>,
        Vec<GradeIncident>,
    ) {
        let (tr, sys) = (self.tracer, self.sys);
        let sfr: Vec<StuckAt> = classification.sfr().map(|f| f.fault).collect();
        let (to_grade, rep_of) = if self.collapse {
            let (reps, rep_of) = tr.span("netlist.collapse", self.study, || {
                collapse_grading_set(sys, &sfr)
            });
            (reps, Some(rep_of))
        } else {
            (sfr.clone(), None)
        };
        let kernel = self.engine.kernel();
        let (cpu, wall) = (cpu_ns(), Instant::now());
        let report = tr.span("classify.grade", self.study, || {
            grade_faults_journaled_with_kernel(
                sys,
                &to_grade,
                cfg,
                self.threads,
                self.progress,
                self.journal,
                kernel,
            )
        });
        counts.grade_cpu_ns += cpu_ns() - cpu;
        counts.grade_thread_ns += wall.elapsed().as_nanos() as u64 * self.threads as u64;
        counts.grade_packs += grade_pack_count(to_grade.len(), kernel);
        counts.faults_graded += to_grade.len();

        let Some(rep_of) = rep_of else {
            return (report.baseline, report.grades, report.incidents);
        };
        let mut packs = Vec::new();
        let mut exhausted = HashSet::new();
        for i in report.incidents {
            match i {
                GradeIncident::QuarantinedPack { .. } => packs.push(i),
                GradeIncident::BudgetExhausted { fault } => {
                    exhausted.insert(fault);
                }
            }
        }
        let by_rep: HashMap<StuckAt, PowerGrade> =
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
        (report.baseline, grades, expanded)
    }

    /// One whole study: classification, then (full studies) grading.
    fn drive(&self, cfg: &sfr_core::StudyConfig, full: bool, counts: &mut Counts) -> Driven {
        let (classification, quarantined, pruned) = self.classify(&cfg.classify, counts);
        let mut incidents: Vec<Incident> = quarantined
            .into_iter()
            .map(|q| Incident::FaultSimQuarantined {
                chunk: q.chunk,
                faults: q.faults,
                message: q.message,
            })
            .collect();
        let (mut baseline, mut grades) = (None, Vec::new());
        if full {
            let (b, g, grade_incidents) = self.grade(&cfg.grade, &classification, counts);
            baseline = Some(b);
            grades = g;
            incidents.extend(grade_incidents.into_iter().map(|i| match i {
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
            }));
            if let Some(message) = self.journal.and_then(CampaignJournal::degradation) {
                self.progress.event(ProgressEvent::JournalDegraded);
                if self.progress.wants_records() {
                    self.progress.record(&TraceRecord::JournalDegraded {
                        message: message.clone(),
                    });
                }
                incidents.push(Incident::JournalDegraded { message });
            }
        }
        Driven {
            results: Results {
                classification,
                grades,
                baseline,
                incidents,
            },
            pruned,
        }
    }
}

/// One traced study's outcome.
pub struct TracedStudy {
    pub digest: Result<Digest, String>,
    /// Inclusive span totals (ms) of the first pass's golden (TPG +
    /// golden trace), faultsim, analyze and grade phases, named as the
    /// manifest names them.
    pub phase_spans: Vec<(&'static str, f64)>,
}

/// Runs one study traced; `study` numbers it within the run.
pub fn run_traced(
    w: &Workload,
    spec: &Spec,
    dir: &std::path::Path,
    tracer: &Tracer,
    study: usize,
    counts: &mut Counts,
) -> TracedStudy {
    let first_span = tracer.len();
    let digest = catch(|| {
        tracer.span("study", study, || {
            traced_study(w, spec, dir, tracer, study, counts)
        })
    });
    let spans = tracer.spans_since(first_span);
    // An audited study's manifest covers its first pass: stop at the
    // resume's journal open.
    let resume = spans
        .iter()
        .filter(|s| s.name == "journal.open")
        .nth(1)
        .map_or(u64::MAX, |s| s.start);
    let total = |names: &[&str]| -> f64 {
        spans
            .iter()
            .filter(|s| s.start < resume && names.contains(&s.name))
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .sum()
    };
    TracedStudy {
        digest,
        phase_spans: vec![
            ("golden", total(&["tpg.testset", "faultsim.golden"])),
            ("faultsim", total(&["faultsim.campaign"])),
            ("analyze", total(&["classify.analyze"])),
            ("grade", total(&["classify.grade"])),
        ],
    }
}

fn traced_study(
    w: &Workload,
    spec: &Spec,
    dir: &std::path::Path,
    tracer: &Tracer,
    study: usize,
    counts: &mut Counts,
) -> Result<Digest, String> {
    let cfg = w.cfg_for(spec);
    let full = w.kind != Kind::SynthSweep;
    let emitted = tracer.span("hls.emit", study, || emit(spec.design, spec.width))?;
    // Full studies build through `StudyBuilder::build`, the nearest
    // public call around `System::build` (it adds only validation and
    // the campaign fingerprint); classification-only studies call
    // `System::build`, as their untraced run does.
    let prepared;
    let built;
    let (sys, campaign_fp) = if full {
        prepared = tracer.span("faultsim.build", study, || {
            StudyBuilder::from_emitted(spec.design, emitted)
                .width(spec.width)
                .config(cfg.clone())
                .threads(w.threads)
                .engine(w.engine())
                .build()
                .map_err(|e| e.to_string())
        })?;
        (prepared.system(), Some(prepared.fingerprint()))
    } else {
        built = tracer.span("faultsim.build", study, || {
            System::build(&emitted, cfg.system).map_err(|e| e.to_string())
        })?;
        (&built, None)
    };
    counts.gates += sys.netlist.gate_count();
    let engine = w.engine().build();
    let counters = Counters::new();
    let rules_decided = AtomicUsize::new(0);
    let run = Run {
        tracer,
        study,
        sys,
        engine: engine.as_ref(),
        threads: w.threads,
        progress: &counters,
        journal: None,
        collapse: w.kind == Kind::Audited,
        rules_decided: &rules_decided,
    };

    let driven = match campaign_fp {
        Some(fp) if w.kind == Kind::Audited => {
            audited(&run, &counters, spec, dir, &cfg, fp, counts)?
        }
        _ => run.drive(&cfg, full, counts),
    };
    counts.rules_decided += rules_decided.load(Ordering::Relaxed);
    counts.pruned += driven.pruned;
    let snap = counters.snapshot();
    counts.faults_simulated += snap.faults_simulated;
    counts.faults_detected += snap.faults_dropped;
    counts.mc_batches += snap.mc_batches;
    counts.mc_capped += snap.mc_capped;
    counts.mc_estimations += snap.mc_capped + snap.mc_converged;
    if full {
        // Tape shape of the grading packs, compiled outside any span.
        let sfr: Vec<StuckAt> = driven
            .results
            .classification
            .sfr()
            .map(|f| f.fault)
            .collect();
        let to_grade = if run.collapse {
            collapse_grading_set(sys, &sfr).0
        } else {
            sfr
        };
        let kernel = engine.kernel();
        for pack in 0..grade_pack_count(to_grade.len(), kernel) {
            let tape = TapeProgram::<u64>::compile(
                &sys.netlist,
                grade_pack_slice(&to_grade, pack, kernel),
            )
            .map_err(|e| e.to_string())?;
            counts.tape_ops += tape.len();
            counts.tape_levels += tape.level_count();
        }
    }
    let fingerprint =
        campaign_fp.map(|fp| driven.results.manifest_fingerprint(spec, fp, driven.pruned));
    driven.results.digest(fingerprint)
}

/// The audited-campaign flow, traced: a journaled first pass observed by
/// a trace writer, a metrics registry and `run`'s counters, then a
/// resume from its journal that must reproduce it.
fn audited(
    run: &Run,
    counters: &Counters,
    spec: &Spec,
    dir: &std::path::Path,
    cfg: &sfr_core::StudyConfig,
    fp: u64,
    counts: &mut Counts,
) -> Result<Driven, String> {
    let (tracer, study) = (run.tracer, run.study);
    let files = AuditFiles::new(dir, spec);
    files.remove();

    let journal = tracer.span("journal.open", study, || {
        CampaignJournal::open_or_create(&files.journal, fp, spec.design).map_err(|e| e.to_string())
    })?;
    let trace = TraceWriter::create(&files.trace).map_err(|e| e.to_string())?;
    let metrics = Metrics::new();
    let timed_trace = Timed {
        inner: &trace,
        name: "obs.trace",
        tracer,
        study,
    };
    let timed_metrics = Timed {
        inner: &metrics,
        name: "obs.metrics",
        tracer,
        study,
    };
    let sinks: [&dyn Progress; 3] = [&timed_trace, &timed_metrics, counters];
    let tee = Tee::new(&sinks);
    let first = run.with(&tee, Some(&journal)).drive(cfg, true, counts);
    tracer
        .leaf("obs.trace", tracer.parent(), study, || trace.finish())
        .map_err(|e| e.to_string())?;
    tracer
        .leaf("obs.metrics", tracer.parent(), study, || {
            metrics.write_prometheus(&files.metrics)
        })
        .map_err(|e| e.to_string())?;
    counts.journal_records += journal.len();
    counts.journal_bytes += file_len(&files.journal);
    counts.trace_bytes += file_len(&files.trace);
    counts.trace_records += std::fs::read_to_string(&files.trace)
        .map_err(|e| e.to_string())?
        .lines()
        .count();
    drop(journal);
    // Work the resume should find in the journal: every fault the first
    // pass simulated or graded.
    let snap = counters.snapshot();
    counts.resume_faults += snap.faults_simulated + snap.grade_pack_faults;
    let first_digest = first
        .results
        .digest(Some(first.results.manifest_fingerprint(
            spec,
            fp,
            first.pruned,
        )))?;

    // The resume reads back every chunk and pack the first pass wrote,
    // while golden and analyze run again.
    let journal = tracer.span("journal.open", study, || {
        let j = CampaignJournal::open(&files.journal).map_err(|e| e.to_string())?;
        j.check_fingerprint(fp).map_err(|e| e.to_string())?;
        Ok::<_, String>(j)
    })?;
    let resume_counters = Counters::new();
    let resumed = run
        .with(&resume_counters, Some(&journal))
        .drive(cfg, true, counts);
    counts.faults_restored += resume_counters.snapshot().faults_restored;
    let resumed_digest = resumed
        .results
        .digest(Some(resumed.results.manifest_fingerprint(
            spec,
            fp,
            resumed.pruned,
        )))?;
    files.remove();
    if resumed_digest != first_digest {
        return Err(format!(
            "resume pass gave {resumed_digest}, first pass {first_digest}"
        ));
    }
    Ok(first)
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Per-layer metrics of one traced pass: span self times (ms) by layer
/// plus the counts.
pub fn layer_metrics(spans: &[Span], counts: &Counts) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *ms.entry(s.name).or_default() += t as f64 / 1e6;
        *calls.entry(s.name).or_default() += 1;
    }
    let ms_of = |name: &str| ms.get(name).copied().unwrap_or(0.0);
    let calls_of = |name: &str| calls.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let c = counts;
    let mut m = BTreeMap::new();
    m.insert("hls.emit_ms", ms_of("hls.emit"));
    m.insert("faultsim.build_ms", ms_of("faultsim.build"));
    m.insert("netlist.gates", c.gates as f64);
    m.insert("faultsim.universe", c.universe as f64);
    m.insert("tpg.testset_ms", ms_of("tpg.testset"));
    m.insert("faultsim.golden_ms", ms_of("faultsim.golden"));
    m.insert("faultsim.golden_cycles", c.golden_cycles as f64);
    m.insert("faultsim.campaign_ms", ms_of("faultsim.campaign"));
    m.insert("faultsim.faults_simulated", c.faults_simulated as f64);
    m.insert(
        "faultsim.detected_ratio",
        ratio(c.faults_detected as f64, c.faults_simulated as f64),
    );
    m.insert("classify.table_ms", ms_of("classify.table"));
    m.insert("classify.table_calls", calls_of("classify.table"));
    m.insert("classify.rules_ms", ms_of("classify.rules"));
    m.insert("classify.rules_calls", calls_of("classify.rules"));
    m.insert(
        "classify.rules_decided_ratio",
        ratio(c.rules_decided as f64, calls_of("classify.rules")),
    );
    m.insert("classify.oracle_ms", ms_of("classify.oracle"));
    m.insert("classify.oracle_calls", calls_of("classify.oracle"));
    m.insert("classify.grade_ms", ms_of("classify.grade"));
    m.insert("classify.grade_packs", c.grade_packs as f64);
    m.insert("classify.faults_graded", c.faults_graded as f64);
    m.insert("power.mc_batches", c.mc_batches as f64);
    m.insert(
        "power.mc_capped_ratio",
        ratio(c.mc_capped as f64, c.mc_estimations as f64),
    );
    m.insert("netlist.tape_ops", c.tape_ops as f64);
    m.insert("netlist.tape_levels", c.tape_levels as f64);
    m.insert("lint.static_ms", ms_of("lint.static"));
    m.insert(
        "lint.pruned_ratio",
        ratio(c.pruned as f64, c.universe as f64),
    );
    m.insert("netlist.collapse_ms", ms_of("netlist.collapse"));
    m.insert(
        "netlist.collapse_ratio",
        ratio(c.collapse_classes as f64, c.collapse_universe as f64),
    );
    m.insert(
        "exec.campaign_cpu_util",
        ratio(c.campaign_cpu_ns as f64, c.campaign_thread_ns as f64),
    );
    m.insert(
        "exec.grade_cpu_util",
        ratio(c.grade_cpu_ns as f64, c.grade_thread_ns as f64),
    );
    m.insert("journal.open_ms", ms_of("journal.open"));
    m.insert("journal.records", c.journal_records as f64);
    m.insert("journal.bytes", c.journal_bytes as f64);
    m.insert(
        "journal.restored_ratio",
        ratio(c.faults_restored as f64, c.resume_faults as f64),
    );
    m.insert("obs.trace_ms", ms_of("obs.trace"));
    m.insert("obs.trace_records", c.trace_records as f64);
    m.insert("obs.trace_bytes", c.trace_bytes as f64);
    m.insert("obs.metrics_ms", ms_of("obs.metrics"));
    m
}

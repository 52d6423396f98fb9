//! The chainable study API: configure, [`build`](StudyBuilder::build),
//! [`run`](PreparedStudy::run).
//!
//! ```
//! use sfr_core::StudyBuilder;
//!
//! # fn main() -> Result<(), sfr_core::StudyError> {
//! let study = StudyBuilder::new("poly")
//!     .width(4)
//!     .test_patterns(240)
//!     .quick_monte_carlo()
//!     .threads(2)
//!     .build()?
//!     .run();
//! assert!(study.classification.sfr_count() > 0);
//! # Ok(())
//! # }
//! ```

use crate::error::StudyError;
use crate::flow::{execute_study, Study, StudyConfig};
use sfr_classify::GradeConfig;
use sfr_exec::{CounterState, Counters, NullProgress, Progress, Tee};
use sfr_faultsim::{EngineKind, System};
use sfr_fsm::{Encoding, FillPolicy};
use sfr_hls::EmittedSystem;
use sfr_journal::CampaignJournal;
use sfr_obs::{PhaseTime, ProfileSection, RunManifest, Tallies};
use sfr_power_model::MonteCarloConfig;
use sfr_tpg::MAX_PATTERN_BITS;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Where a study's system comes from.
#[derive(Debug, Clone)]
enum Source {
    /// A named benchmark from [`sfr_benchmarks`], built at
    /// [`StudyBuilder::width`].
    Named(String),
    /// A caller-supplied emitted system (custom designs).
    Emitted(String, Box<EmittedSystem>),
}

/// Chainable configuration for one study.
///
/// Every knob of the flow — benchmark, datapath width, controller
/// encoding, don't-care fill, test set, worker threads, detection
/// threshold — is a setter, and [`build`](Self::build) validates the
/// combination before any simulation starts.
#[derive(Debug, Clone)]
pub struct StudyBuilder {
    source: Source,
    width: usize,
    cfg: StudyConfig,
    threads: usize,
    engine: Option<EngineKind>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    cycle_budget: Option<usize>,
    manifest_out: Option<PathBuf>,
    force: bool,
    collapse: bool,
}

impl StudyBuilder {
    /// A study of the named benchmark (`"diffeq"`, `"facet"`, `"poly"`,
    /// or `"fir"`), 4 bits wide unless [`width`](Self::width) says
    /// otherwise.
    pub fn new(benchmark: impl Into<String>) -> Self {
        StudyBuilder {
            source: Source::Named(benchmark.into()),
            width: 4,
            cfg: StudyConfig::default(),
            threads: 1,
            engine: None,
            checkpoint: None,
            resume: None,
            cycle_budget: None,
            manifest_out: None,
            force: false,
            collapse: false,
        }
    }

    /// A study of a caller-supplied emitted system.
    pub fn from_emitted(name: impl Into<String>, emitted: EmittedSystem) -> Self {
        let name = name.into();
        StudyBuilder {
            source: Source::Emitted(name.clone(), Box::new(emitted)),
            ..StudyBuilder::new(name)
        }
    }

    /// Datapath width in bits (named benchmarks only; default 4).
    pub fn width(mut self, bits: usize) -> Self {
        self.width = bits;
        self
    }

    /// Controller state encoding.
    pub fn encoding(mut self, encoding: Encoding) -> Self {
        self.cfg.system.encoding = encoding;
        self
    }

    /// Don't-care fill policy for controller synthesis.
    pub fn fill(mut self, fill: FillPolicy) -> Self {
        self.cfg.system.fill = fill;
        self
    }

    /// Number of TPGR patterns in the detection test set.
    pub fn test_patterns(mut self, patterns: usize) -> Self {
        self.cfg.classify.test_patterns = patterns;
        self
    }

    /// TPGR seed for the detection test set.
    pub fn test_seed(mut self, seed: u32) -> Self {
        self.cfg.classify.test_seed = seed;
        self
    }

    /// Worker threads for fault simulation and power grading
    /// (0 = all available cores; default 1). Results are byte-identical
    /// at every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            sfr_exec::default_threads()
        } else {
            threads
        };
        self
    }

    /// Enables the static-analysis pre-pass: faults the `sfr-lint`
    /// analyses prove CFR (dead cone, constant site) or decide from the
    /// exhaustive table plus oracle alone are classified up front and
    /// pruned from the fault-simulation campaign. The classification
    /// and grade table are bit-identical to the unpruned run.
    pub fn static_prune(mut self, enabled: bool) -> Self {
        self.cfg.classify.static_prune = enabled;
        self
    }

    /// Enables structural fault collapsing: equivalence classes over
    /// the controller fault universe
    /// ([`sfr_netlist::FaultClasses`]) are built before the campaign,
    /// only one representative per class is simulated and power-graded,
    /// and every member inherits its representative's verdict and
    /// grade. The classification and grade table are bit-identical to
    /// the uncollapsed run at any thread count and engine.
    ///
    /// Composes with [`static_prune`](Self::static_prune) — the
    /// pre-pass decides whole classes, collapsing folds what remains.
    pub fn collapse(mut self, enabled: bool) -> Self {
        self.collapse = enabled;
        self
    }

    /// Detection tolerance band in percent (the paper's ±5%).
    pub fn threshold_pct(mut self, pct: f64) -> Self {
        self.cfg.grade.threshold_pct = pct;
        self
    }

    /// Monte Carlo convergence settings.
    pub fn monte_carlo(mut self, mc: MonteCarloConfig) -> Self {
        self.cfg.grade.mc = mc;
        self
    }

    /// A loose Monte Carlo setting (few batches, wide tolerance) for
    /// tests and examples that need speed over tight confidence.
    pub fn quick_monte_carlo(mut self) -> Self {
        self.cfg.grade.mc = MonteCarloConfig {
            rel_tolerance: 0.05,
            min_batches: 3,
            max_batches: 6,
        };
        self.cfg.grade.patterns_per_batch = 60;
        self
    }

    /// Replaces the grading settings wholesale.
    pub fn grade_config(mut self, grade: GradeConfig) -> Self {
        self.cfg.grade = grade;
        self
    }

    /// Replaces the whole [`StudyConfig`] (system, classify, grade) in
    /// one call.
    pub fn config(mut self, cfg: StudyConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Overrides the fault-simulation engine (default: the tape engine
    /// on the study's thread count).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Checkpoint the campaign to `path`: every completed
    /// fault-simulation chunk and grading pack is recorded to a
    /// crash-safe journal as it finishes. If the file already exists
    /// (an interrupted earlier run of the *same* campaign — validated
    /// by fingerprint), its records are restored and only the missing
    /// work runs; results are bit-identical either way.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Resume from an existing checkpoint journal at `path`.
    /// [`build`](Self::build) fails with [`StudyError::Journal`] if the
    /// file is missing, corrupt, or belongs to a different campaign.
    /// Newly completed work keeps being recorded to the same file.
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Arms the grading watchdog with a budget of `factor` times the
    /// design's nominal run length ([`System::nominal_run_cycles`]):
    /// each faulty run is ceilinged at `factor × nominal` cycles (never
    /// above the existing loop guard), and runaway faults — those still
    /// outside HOLD when the fault-free lane completes a run — are
    /// reported as budget-exhausted incidents. Without a budget the
    /// watchdog is disarmed: runs end only at the loop guard and no
    /// fault is reported.
    pub fn cycle_budget(mut self, factor: usize) -> Self {
        self.cycle_budget = Some(factor);
        self
    }

    /// Write a deterministic run manifest (`manifest.json` provenance
    /// record: benchmark, fault-universe fingerprint, seeds, engine,
    /// threads, git/config provenance, per-phase wall time, tallies) to
    /// `path` when the run completes. Parent directories are created;
    /// an existing manifest is never overwritten unless
    /// [`force`](Self::force) — [`build`](Self::build) fails up front
    /// with [`StudyError::Manifest`] instead of clobbering it after an
    /// expensive run.
    pub fn manifest_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.manifest_out = Some(path.into());
        self
    }

    /// Allow [`manifest_out`](Self::manifest_out) to overwrite an
    /// existing manifest (the CLI's `--force`).
    pub fn force(mut self, force: bool) -> Self {
        self.force = force;
        self
    }

    /// Validates the configuration, builds the benchmark and its
    /// gate-level system, and returns a ready-to-run study.
    ///
    /// # Errors
    ///
    /// [`StudyError::InvalidConfig`] for an unknown benchmark name or
    /// out-of-range settings, [`StudyError::Benchmark`] if HLS emission
    /// fails, [`StudyError::Netlist`] if gate-level construction fails,
    /// [`StudyError::Journal`] if a checkpoint/resume journal cannot be
    /// opened or belongs to a different campaign.
    pub fn build(self) -> Result<PreparedStudy, StudyError> {
        if self.width == 0 || self.width > 64 {
            return Err(StudyError::InvalidConfig(format!(
                "datapath width must be 1..=64 bits, got {}",
                self.width
            )));
        }
        if self.cfg.classify.test_patterns == 0 {
            return Err(StudyError::InvalidConfig(
                "detection test set must contain at least one pattern".into(),
            ));
        }
        if self.cfg.grade.threshold_pct < 0.0 {
            return Err(StudyError::InvalidConfig(format!(
                "detection threshold must be non-negative, got {}%",
                self.cfg.grade.threshold_pct
            )));
        }
        if self.cycle_budget == Some(0) {
            return Err(StudyError::InvalidConfig(
                "cycle budget factor must be at least 1 (omit it to disable the watchdog ceiling)"
                    .into(),
            ));
        }
        if let Some(path) = &self.manifest_out {
            // Checked here, before any simulation: a refused overwrite
            // after an hours-long campaign would waste the whole run.
            if path.exists() && !self.force {
                return Err(StudyError::Manifest(format!(
                    "{} already exists (pass --force to overwrite)",
                    path.display()
                )));
            }
        }
        let (name, emitted) = match self.source {
            Source::Named(name) => {
                let emitted = match name.as_str() {
                    "diffeq" => sfr_benchmarks::diffeq(self.width)?,
                    "facet" => sfr_benchmarks::facet(self.width)?,
                    "poly" => sfr_benchmarks::poly(self.width)?,
                    "fir" => sfr_benchmarks::fir(self.width)?,
                    other => {
                        return Err(StudyError::InvalidConfig(format!(
                            "unknown benchmark `{other}` (expected diffeq, facet, poly, or fir)"
                        )))
                    }
                };
                (name, emitted)
            }
            Source::Emitted(name, emitted) => (name, *emitted),
        };
        check_pattern_width(&name, &emitted)?;
        let system = System::build(&emitted, self.cfg.system)?;
        let mut cfg = self.cfg;
        if let Some(factor) = self.cycle_budget {
            cfg.grade.run.cycle_budget =
                factor.saturating_mul(system.nominal_run_cycles(cfg.grade.run.hold_cycles));
        }
        // The fingerprint ties a journal to one campaign: design, width,
        // and every setting that influences results. Threads and engine
        // are deliberately excluded — packs are thread-invariant, so an
        // interrupted 8-thread run may resume on 1 thread (or vice
        // versa) and still reproduce bit-identical tables.
        let fingerprint = campaign_fingerprint(&name, self.width, &cfg);
        // A collapsed campaign journals representative packs only, so
        // its journal must never restore into (or from) an uncollapsed
        // run of the same configuration: salt the journal's fingerprint.
        // The campaign fingerprint itself stays unsalted — collapsing
        // does not change the results it digests.
        let journal_fp = if self.collapse {
            fingerprint ^ COLLAPSE_JOURNAL_SALT
        } else {
            fingerprint
        };
        let journal = match (&self.resume, &self.checkpoint) {
            (Some(path), _) => {
                let journal = CampaignJournal::open(path).map_err(StudyError::Journal)?;
                journal
                    .check_fingerprint(journal_fp)
                    .map_err(StudyError::Journal)?;
                Some(journal)
            }
            (None, Some(path)) => Some(
                CampaignJournal::open_or_create(path, journal_fp, &name)
                    .map_err(StudyError::Journal)?,
            ),
            (None, None) => None,
        };
        let engine = self.engine.unwrap_or(EngineKind::Tape(self.threads));
        Ok(PreparedStudy {
            name,
            system,
            cfg,
            width: self.width,
            threads: self.threads,
            engine,
            journal,
            fingerprint,
            manifest_out: self.manifest_out,
            collapse: self.collapse,
        })
    }
}

/// Refuses a design whose data inputs do not fit one test pattern word:
/// every cycle drives all of them from one [`MAX_PATTERN_BITS`]-bit
/// pattern.
///
/// # Errors
///
/// [`StudyError::InvalidConfig`] naming the pattern width and the limit.
pub fn check_pattern_width(name: &str, emitted: &EmittedSystem) -> Result<(), StudyError> {
    let dp = &emitted.datapath;
    let bits = dp.inputs().len() * dp.width();
    if bits > MAX_PATTERN_BITS {
        return Err(StudyError::InvalidConfig(format!(
            "{name} at {} bits needs {bits}-bit test patterns ({} data inputs), \
             over the {MAX_PATTERN_BITS}-bit pattern limit",
            dp.width(),
            dp.inputs().len()
        )));
    }
    Ok(())
}

/// XORed into the *journal* fingerprint of collapsed campaigns: their
/// packs cover representatives only and must not be restored into an
/// uncollapsed run (or vice versa).
const COLLAPSE_JOURNAL_SALT: u64 = 0x434F_4C4C_4150_5345; // "COLLAPSE"

/// A stable 64-bit fingerprint of everything that determines a
/// campaign's results (FNV-1a over the configuration's debug
/// rendering). Two runs with equal fingerprints produce bit-identical
/// packs, which is what makes restoring journaled packs sound.
fn campaign_fingerprint(name: &str, width: usize, cfg: &StudyConfig) -> u64 {
    let desc = format!(
        "{name}|{width}|{:?}|{:?}|{:?}",
        cfg.system, cfg.classify, cfg.grade
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in desc.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A validated, fully constructed study awaiting execution.
#[derive(Debug)]
pub struct PreparedStudy {
    name: String,
    system: System,
    cfg: StudyConfig,
    width: usize,
    threads: usize,
    engine: EngineKind,
    journal: Option<CampaignJournal>,
    fingerprint: u64,
    manifest_out: Option<PathBuf>,
    collapse: bool,
}

impl PreparedStudy {
    /// The benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The built gate-level system (inspectable before running).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The worker-thread count the run will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The campaign fingerprint: a stable 64-bit digest of everything
    /// that determines results (design, width, classify and grade
    /// settings — deliberately not threads or engine). Two prepared
    /// studies with equal fingerprints produce bit-identical packs; the
    /// run manifest records it as `campaign_fingerprint`.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Runs classification and power grading to completion.
    pub fn run(self) -> Study {
        self.run_with(&NullProgress)
    }

    /// [`run`](Self::run) with an observer receiving phase timings,
    /// per-fault simulation events, and Monte Carlo convergence.
    ///
    /// When [`StudyBuilder::manifest_out`] was configured, the run
    /// manifest is assembled from a [`Counters`] tee'd with `progress`
    /// and written as the last act; a write failure is reported on
    /// stderr (the study's results are unaffected).
    pub fn run_with(self, progress: &dyn Progress) -> Study {
        let engine = self.engine.build();
        let engine_name = engine.name();
        let started = Instant::now();
        // The tee is transparent: the caller sees the exact
        // event/record stream it would see without a manifest.
        let counters = Counters::new();
        let sinks: [&dyn Progress; 2] = [progress, &counters];
        let tee = Tee::new(&sinks);
        let study = execute_study(
            self.name.clone(),
            self.system,
            &self.cfg,
            engine.as_ref(),
            self.threads,
            &tee,
            self.journal.as_ref(),
            self.collapse,
        );
        if let Some(path) = &self.manifest_out {
            let manifest = assemble_manifest(
                &self.name,
                self.width,
                self.fingerprint,
                &self.cfg,
                engine_name,
                self.threads,
                self.journal.as_ref(),
                &study,
                &counters.snapshot(),
                started.elapsed(),
            );
            // Overwrite was vetted in build(); force unconditionally so
            // a file that appeared mid-run cannot void the whole study.
            if let Err(e) = manifest.write(path, true) {
                eprintln!("warning: run manifest not written: {e}");
            }
        }
        study
    }
}

/// Builds the [`RunManifest`] for a completed study.
#[allow(clippy::too_many_arguments)]
fn assemble_manifest(
    name: &str,
    width: usize,
    fingerprint: u64,
    cfg: &StudyConfig,
    engine: &str,
    threads: usize,
    journal: Option<&CampaignJournal>,
    study: &Study,
    counters: &CounterState,
    wall: Duration,
) -> RunManifest {
    let c = &study.classification;
    RunManifest {
        benchmark: name.to_string(),
        width,
        campaign_fingerprint: fingerprint,
        fault_universe: c.total(),
        config: vec![
            (
                "test_patterns".into(),
                cfg.classify.test_patterns.to_string(),
            ),
            ("test_seed".into(), cfg.classify.test_seed.to_string()),
            ("static_prune".into(), cfg.classify.static_prune.to_string()),
            ("grade_seed".into(), cfg.grade.seed.to_string()),
            (
                "patterns_per_batch".into(),
                cfg.grade.patterns_per_batch.to_string(),
            ),
            (
                "mc_rel_tolerance".into(),
                cfg.grade.mc.rel_tolerance.to_string(),
            ),
            (
                "mc_min_batches".into(),
                cfg.grade.mc.min_batches.to_string(),
            ),
            (
                "mc_max_batches".into(),
                cfg.grade.mc.max_batches.to_string(),
            ),
            ("threshold_pct".into(), cfg.grade.threshold_pct.to_string()),
            (
                "cycle_budget".into(),
                cfg.grade.run.cycle_budget.to_string(),
            ),
            ("encoding".into(), format!("{:?}", cfg.system.encoding)),
            ("fill".into(), format!("{:?}", cfg.system.fill)),
        ],
        engine: engine.to_string(),
        threads,
        tallies: Tallies {
            total: c.total(),
            sfi: c.sfi_count(),
            cfr: c.cfr_count(),
            sfr: c.sfr_count(),
            graded: study.grades.len(),
            flagged: study.flagged_count(),
            pruned: counters.faults_pruned,
            incidents: study.incidents.len(),
        },
        phases: counters
            .phase_times
            .iter()
            .map(|&(phase, elapsed, aborted)| PhaseTime {
                name: phase.label().to_string(),
                wall_ms: elapsed.as_secs_f64() * 1e3,
                aborted,
            })
            .collect(),
        profile: profile_section(counters),
        wall_ms: wall.as_secs_f64() * 1e3,
        cpu_ms: sfr_obs::process_cpu_ms(),
        git: sfr_obs::git_revision(std::path::Path::new(".")),
        journal: journal.map(|j| j.path().display().to_string()),
    }
}

/// The manifest's `profile` section: computed grade pack wall-time
/// percentiles and the last computed pack's tape shape. Restored grade
/// packs are never timed, so they count only in `packs_restored`
/// (restored fault-simulation chunks do not count there).
fn profile_section(c: &CounterState) -> ProfileSection {
    let mut pack_us = c.pack_us.clone();
    pack_us.sort_unstable();
    let pct = |p: usize| -> u64 {
        if pack_us.is_empty() {
            0
        } else {
            pack_us[(pack_us.len() - 1) * p / 100]
        }
    };
    ProfileSection {
        packs_computed: pack_us.len(),
        packs_restored: c.grade_packs_restored,
        pack_p50_us: pct(50),
        pack_p90_us: pct(90),
        pack_max_us: pack_us.last().copied().unwrap_or(0),
        mc_batches: c.mc_batches,
        tape_ops: c.tape.ops,
        tape_levels: c.tape.levels,
        tape_force_ops: c.tape.force_ops,
        tape_sparsity_pct: if c.tape.nets == 0 {
            0.0
        } else {
            c.tape.dirty_nets as f64 * 100.0 / c.tape.nets as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_benchmark_is_an_invalid_config() {
        let err = StudyBuilder::new("quux").build().unwrap_err();
        assert!(matches!(err, StudyError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("quux"));
    }

    #[test]
    fn zero_width_is_rejected_before_any_build() {
        let err = StudyBuilder::new("poly").width(0).build().unwrap_err();
        assert!(matches!(err, StudyError::InvalidConfig(_)));
    }

    #[test]
    fn widths_past_the_64_bit_pattern_limit_are_rejected() {
        // diffeq and poly have five data inputs, facet and fir four.
        for (name, widest) in [("diffeq", 12), ("poly", 12), ("facet", 16), ("fir", 16)] {
            if let Err(e) = StudyBuilder::new(name).width(widest).build() {
                panic!("{name} at {widest} bits: {e}");
            }
            let err = StudyBuilder::new(name)
                .width(widest + 1)
                .build()
                .unwrap_err();
            assert!(matches!(err, StudyError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains("64-bit pattern limit"), "{err}");
        }
    }

    #[test]
    fn widths_below_a_designs_floor_are_refused() {
        // diffeq's constant 3 needs 2 bits; fir's sample bound 8 needs 4.
        for (name, floor) in [("diffeq", 2), ("fir", 4)] {
            let err = StudyBuilder::new(name)
                .width(floor - 1)
                .build()
                .unwrap_err();
            assert!(matches!(err, StudyError::Benchmark(_)), "{err}");
            assert!(err.to_string().contains("does not fit"), "{err}");
            if let Err(e) = StudyBuilder::new(name).width(floor).build() {
                panic!("{name} at {floor} bits: {e}");
            }
        }
    }

    #[test]
    fn empty_test_set_is_rejected() {
        let err = StudyBuilder::new("poly")
            .test_patterns(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, StudyError::InvalidConfig(_)));
    }

    #[test]
    fn builder_runs_a_quick_study() {
        let study = StudyBuilder::new("poly")
            .test_patterns(240)
            .quick_monte_carlo()
            .build()
            .expect("poly builds")
            .run();
        assert_eq!(study.name, "poly");
        assert_eq!(study.grades.len(), study.classification.sfr_count());
        assert_eq!(study.sfr_faults().len(), study.grades.len());
    }

    #[test]
    fn collapsed_study_matches_uncollapsed_bit_for_bit() {
        let run = |collapse: bool| {
            StudyBuilder::new("poly")
                .test_patterns(240)
                .quick_monte_carlo()
                .collapse(collapse)
                .build()
                .expect("poly builds")
                .run()
        };
        let plain = run(false);
        let collapsed = run(true);
        assert_eq!(
            format!("{:?}", plain.classification),
            format!("{:?}", collapsed.classification)
        );
        assert_eq!(plain.grades.len(), collapsed.grades.len());
        for (a, b) in plain.grades.iter().zip(&collapsed.grades) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "fault {}", a.fault);
        }
        assert_eq!(plain.incidents, collapsed.incidents);
    }

    #[test]
    fn a_phase_unwound_by_a_caught_panic_reaches_the_manifest_as_aborted() {
        use sfr_exec::{Phase, PhaseTimer};
        let prepared = StudyBuilder::new("poly")
            .test_patterns(240)
            .quick_monte_carlo()
            .build()
            .expect("poly builds");
        let (fingerprint, cfg) = (prepared.fingerprint, prepared.cfg.clone());
        let study = prepared.run();
        let counters = Counters::new();
        PhaseTimer::start(&counters, Phase::Golden).finish();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _timer = PhaseTimer::start(&counters, Phase::Grade);
            panic!("grade pack misbehaved");
        }));
        assert!(caught.is_err());
        let manifest = assemble_manifest(
            "poly",
            4,
            fingerprint,
            &cfg,
            "tape",
            1,
            None,
            &study,
            &counters.snapshot(),
            Duration::ZERO,
        );
        let phases: Vec<(&str, bool)> = manifest
            .phases
            .iter()
            .map(|p| (p.name.as_str(), p.aborted))
            .collect();
        assert_eq!(phases, [("golden", false), ("grade", true)]);
        let json = manifest.render_json();
        sfr_obs::check_manifest(&json).expect("manifest validates");
        assert!(json.contains("\"name\": \"grade\", \"wall_ms\""), "{json}");
        assert!(json.contains("\"aborted\": true"), "{json}");
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let prepared = StudyBuilder::new("poly").threads(0).build().expect("poly");
        assert!(prepared.threads() >= 1);
    }
}

//! Workload definitions, the untraced study runners, and the digests
//! that check every study's output.
//!
//! The untraced runners call the program exactly as a user would:
//! `StudyBuilder::build` + `PreparedStudy::run` for full studies,
//! `System::build` + `classify_system_journaled` for classification-only
//! ones. Nothing here is timed except set-up; the caller times passes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sfr_core::exec::{EngineKind, NullProgress, Progress, Tee};
use sfr_core::obs::{Metrics, ProfileSection, RunManifest, Tallies, TraceWriter};
use sfr_core::{
    classify_system_journaled, Classification, EmittedSystem, Encoding, FillPolicy, Incident,
    MonteCarloResult, PowerGrade, Study, StudyBuilder, StudyConfig, System, SystemConfig,
};

/// The workload seed `--seed` defaults to; it yields the seeds
/// EXPERIMENTS.md pins (TPGR `0xACE1`, Monte Carlo `0xACE1`, arbitrary
/// fill `0x5EED`), and the committed reference digests are for it.
pub const DEFAULT_SEED: u64 = 0xACE1;

/// How many input seeds an untraced run cycles through, pass by pass.
/// How much work a study does depends on its seeds (the Monte Carlo
/// stopping rule, the arbitrary fill's SFR count), so a run's medians
/// cover several draws instead of resting on one.
pub const SEED_CYCLE: usize = 8;

/// The `k`-th input seed of a run: the workload seed itself, then
/// SplitMix64 outputs derived from it.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The program's seeds, all derived from the workload seed.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub tpg: u32,
    pub mc: u32,
    pub fill: u32,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        let s = (seed ^ (seed >> 32)) as u32;
        Seeds {
            tpg: s,
            mc: s,
            fill: s ^ 0xACE1 ^ 0x5EED,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperWidth,
    SynthSweep,
    Audited,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperWidth, Kind::SynthSweep, Kind::Audited];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperWidth => "paper-width",
            Kind::SynthSweep => "synth-sweep",
            Kind::Audited => "audited-campaign",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Which controller fill a study synthesizes with; `Arbitrary` takes its
/// seed from [`Seeds::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    Synthesis,
    Zeros,
    Ones,
    Arbitrary,
}

impl Fill {
    const ALL: [Fill; 4] = [Fill::Synthesis, Fill::Zeros, Fill::Ones, Fill::Arbitrary];

    fn policy(self, seeds: Seeds) -> FillPolicy {
        match self {
            Fill::Synthesis => FillPolicy::Synthesis,
            Fill::Zeros => FillPolicy::Zeros,
            Fill::Ones => FillPolicy::Ones,
            Fill::Arbitrary => FillPolicy::Arbitrary(seeds.fill),
        }
    }
}

/// One study of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub design: &'static str,
    pub width: usize,
    pub encoding: Encoding,
    pub fill: Fill,
    /// Seed-independent name, the key of the reference digests.
    pub label: String,
}

pub struct Workload {
    pub kind: Kind,
    pub specs: Vec<Spec>,
    /// Seeded configuration; per-study encoding/fill override `system`.
    pub cfg: StudyConfig,
    pub threads: usize,
    pub seed: u64,
    pub seeds: Seeds,
}

const DESIGNS: [&str; 4] = ["diffeq", "facet", "poly", "fir"];
/// Up to 12 bits, the widest every design accepts: `TestSet::pseudorandom`
/// panics once a design's pattern word passes 64 bits (diffeq and poly
/// at 13, facet and fir at 17).
const WIDTHS: [usize; 3] = [4, 8, 12];

impl Workload {
    /// The workload's studies; `smoke` keeps one 4-bit design.
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Workload {
        let seeds = Seeds::derive(seed);
        let mut cfg = match kind {
            Kind::PaperWidth => sfr_bench::paper_config(),
            Kind::SynthSweep => {
                let mut cfg = StudyConfig::default();
                cfg.classify.test_patterns = 1200;
                cfg
            }
            Kind::Audited => {
                let mut cfg = StudyConfig::default();
                cfg.classify.static_prune = true;
                cfg
            }
        };
        cfg.classify.test_seed = seeds.tpg;
        cfg.grade.seed = seeds.mc;
        cfg.system.fill = FillPolicy::Arbitrary(seeds.fill);
        let mut specs = Vec::new();
        match kind {
            Kind::PaperWidth | Kind::Audited => {
                for design in DESIGNS {
                    for width in WIDTHS {
                        specs.push(Spec {
                            design,
                            width,
                            encoding: cfg.system.encoding,
                            fill: Fill::Arbitrary,
                            label: format!("{design}/w{width}"),
                        });
                    }
                }
            }
            Kind::SynthSweep => {
                for design in DESIGNS {
                    for encoding in [Encoding::Binary, Encoding::Gray, Encoding::OneHot] {
                        for fill in Fill::ALL {
                            specs.push(Spec {
                                design,
                                width: 4,
                                encoding,
                                fill,
                                label: format!("{design}/w4/{encoding:?}/{fill:?}").to_lowercase(),
                            });
                        }
                    }
                }
            }
        }
        if smoke {
            let keep = if kind == Kind::SynthSweep {
                "poly"
            } else {
                "facet"
            };
            specs.retain(|s| s.design == keep && s.width == 4);
        }
        Workload {
            kind,
            specs,
            cfg,
            threads: if kind == Kind::Audited { 2 } else { 1 },
            seed,
            seeds,
        }
    }

    /// The study's configuration with its controller synthesis choice.
    pub fn cfg_for(&self, spec: &Spec) -> StudyConfig {
        let mut cfg = self.cfg.clone();
        cfg.system = SystemConfig {
            encoding: spec.encoding,
            fill: spec.fill.policy(self.seeds),
        };
        cfg
    }

    pub fn engine(&self) -> EngineKind {
        EngineKind::parse("tape", self.threads).expect("tape is a kernel name")
    }

    pub fn builder(&self, spec: &Spec) -> StudyBuilder {
        StudyBuilder::new(spec.design)
            .width(spec.width)
            .config(self.cfg_for(spec))
            .threads(self.threads)
            .engine(self.engine())
    }
}

pub fn emit(design: &str, width: usize) -> Result<EmittedSystem, String> {
    let emitted = match design {
        "diffeq" => sfr_core::benchmarks::diffeq(width),
        "facet" => sfr_core::benchmarks::facet(width),
        "poly" => sfr_core::benchmarks::poly(width),
        "fir" => sfr_core::benchmarks::fir(width),
        other => return Err(format!("unknown design {other}")),
    };
    emitted.map_err(|e| e.to_string())
}

/// Everything a study outputs that must repeat exactly.
pub struct Results {
    pub classification: Classification,
    pub grades: Vec<PowerGrade>,
    pub baseline: Option<MonteCarloResult>,
    pub incidents: Vec<Incident>,
}

impl Results {
    fn from_study(study: Study) -> Results {
        Results {
            classification: study.classification,
            grades: study.grades,
            baseline: Some(study.baseline),
            incidents: study.incidents,
        }
    }

    /// The full-precision result table: every fault's class (with its
    /// SFI reason and cycle), effects and rule verdict, the baseline and
    /// every grade (floats in shortest round-trip form), and incidents.
    pub fn render(&self) -> String {
        let c = &self.classification;
        let mut out = format!(
            "faults {} sfi {} cfr {} sfr {}\n",
            c.total(),
            c.sfi_count(),
            c.cfr_count(),
            c.sfr_count()
        );
        for f in &c.faults {
            let _ = writeln!(out, "{f:?}");
        }
        if let Some(b) = &self.baseline {
            let _ = writeln!(out, "baseline {b:?}");
        }
        for g in &self.grades {
            let _ = writeln!(out, "{g:?}");
        }
        for i in &self.incidents {
            let _ = writeln!(out, "{i:?}");
        }
        out
    }

    /// The fingerprint `RunManifest` gives these results.
    pub fn manifest_fingerprint(&self, spec: &Spec, campaign: u64, pruned: usize) -> u64 {
        let c = &self.classification;
        RunManifest {
            benchmark: spec.design.to_string(),
            width: spec.width,
            campaign_fingerprint: campaign,
            fault_universe: c.total(),
            config: Vec::new(),
            engine: String::new(),
            threads: 0,
            tallies: Tallies {
                total: c.total(),
                sfi: c.sfi_count(),
                cfr: c.cfr_count(),
                sfr: c.sfr_count(),
                graded: self.grades.len(),
                flagged: self.grades.iter().filter(|g| g.flagged).count(),
                pruned,
                incidents: self.incidents.len(),
            },
            phases: Vec::new(),
            profile: ProfileSection::default(),
            wall_ms: 0.0,
            cpu_ms: None,
            git: None,
            journal: None,
        }
        .fingerprint()
    }

    /// The study's digest, or why it failed: an incident fails it.
    pub fn digest(&self, fingerprint: Option<u64>) -> Result<Digest, String> {
        if let Some(i) = self.incidents.first() {
            return Err(format!("incident: {i}"));
        }
        Ok(Digest {
            table: fnv1a(self.render().as_bytes()),
            fingerprint,
        })
    }
}

/// A study's output digest: the rendered table's FNV-1a hash plus the
/// run manifest fingerprint (classification-only studies have none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub table: u64,
    pub fingerprint: Option<u64>,
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "table={:#018x} fingerprint=", self.table)?;
        match self.fingerprint {
            Some(fp) => write!(f, "{fp:#018x}"),
            None => f.write_str("-"),
        }
    }
}

impl Digest {
    /// The `table<TAB>fingerprint` columns of `reference.tsv`.
    pub fn tsv(&self) -> String {
        match self.fingerprint {
            Some(fp) => format!("{:#018x}\t{fp:#018x}", self.table),
            None => format!("{:#018x}\t-", self.table),
        }
    }

    /// Parses the columns [`Digest::tsv`] writes.
    pub fn parse(table: &str, fingerprint: &str) -> Option<Digest> {
        let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok();
        Some(Digest {
            table: hex(table)?,
            fingerprint: if fingerprint == "-" {
                None
            } else {
                Some(hex(fingerprint)?)
            },
        })
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A manifest's fingerprint and per-phase wall times.
pub struct ManifestView {
    pub fingerprint: u64,
    pub phases: Vec<(String, f64)>,
}

pub fn read_manifest(path: &Path) -> Result<ManifestView, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = sfr_core::obs::json::parse(&text)?;
    let fingerprint = v
        .get("fingerprint")
        .and_then(|f| f.as_str())
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
        .ok_or("manifest without a fingerprint")?;
    let phases = v
        .get("phases")
        .and_then(|p| p.as_arr())
        .ok_or("manifest without phases")?
        .iter()
        .filter_map(|p| {
            Some((
                p.get("name")?.as_str()?.to_string(),
                p.get("wall_ms")?.as_num()?,
            ))
        })
        .collect();
    Ok(ManifestView {
        fingerprint,
        phases,
    })
}

/// One untraced study's outcome.
pub struct StudyRun {
    pub digest: Result<Digest, String>,
    /// Time inside `StudyBuilder::build` (or emission + `System::build`).
    pub setup: Duration,
    /// The first pass's manifest phases (audited-campaign only).
    pub phases: Vec<(String, f64)>,
}

/// Files one audited study writes, under the run's work directory.
pub struct AuditFiles {
    pub journal: PathBuf,
    pub trace: PathBuf,
    pub metrics: PathBuf,
    pub manifest: PathBuf,
    pub resumed_manifest: PathBuf,
}

impl AuditFiles {
    pub fn new(dir: &Path, spec: &Spec) -> AuditFiles {
        let stem = spec.label.replace('/', "-");
        let file = |ext: &str| dir.join(format!("{stem}.{ext}"));
        AuditFiles {
            journal: file("journal"),
            trace: file("trace.jsonl"),
            metrics: file("prom"),
            manifest: file("manifest.json"),
            resumed_manifest: file("resumed.json"),
        }
    }

    pub fn remove(&self) {
        for p in [
            &self.journal,
            &self.trace,
            &self.metrics,
            &self.manifest,
            &self.resumed_manifest,
        ] {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Runs one study the way a user of the program would, untraced.
pub fn run_untraced(w: &Workload, spec: &Spec, dir: &Path) -> StudyRun {
    let mut setup = Duration::ZERO;
    let mut phases = Vec::new();
    let digest = catch(|| match w.kind {
        Kind::PaperWidth => {
            let t = Instant::now();
            let prepared = w.builder(spec).build().map_err(|e| e.to_string())?;
            setup += t.elapsed();
            let campaign = prepared.fingerprint();
            let r = Results::from_study(prepared.run());
            r.digest(Some(r.manifest_fingerprint(spec, campaign, 0)))
        }
        Kind::SynthSweep => {
            let t = Instant::now();
            let emitted = emit(spec.design, spec.width)?;
            let cfg = w.cfg_for(spec);
            let sys = System::build(&emitted, cfg.system).map_err(|e| e.to_string())?;
            setup += t.elapsed();
            let engine = w.engine().build();
            let (classification, quarantined) = classify_system_journaled(
                &sys,
                &cfg.classify,
                engine.as_ref(),
                &NullProgress,
                None,
            );
            if let Some(q) = quarantined.first() {
                return Err(format!("quarantined chunk {}: {}", q.chunk, q.message));
            }
            Results {
                classification,
                grades: Vec::new(),
                baseline: None,
                incidents: Vec::new(),
            }
            .digest(None)
        }
        Kind::Audited => {
            let files = AuditFiles::new(dir, spec);
            files.remove();
            let builder = || {
                w.builder(spec)
                    .static_prune(true)
                    .collapse(true)
                    .force(true)
            };
            let t = Instant::now();
            let prepared = builder()
                .checkpoint(&files.journal)
                .manifest_out(&files.manifest)
                .build()
                .map_err(|e| e.to_string())?;
            setup += t.elapsed();
            let trace = TraceWriter::create(&files.trace).map_err(|e| e.to_string())?;
            let metrics = Metrics::new();
            let study = {
                let sinks: [&dyn Progress; 2] = [&trace, &metrics];
                prepared.run_with(&Tee::new(&sinks))
            };
            trace.finish().map_err(|e| e.to_string())?;
            metrics
                .write_prometheus(&files.metrics)
                .map_err(|e| e.to_string())?;
            let manifest = read_manifest(&files.manifest)?;
            let first = Results::from_study(study).digest(Some(manifest.fingerprint))?;
            phases = manifest.phases;

            let t = Instant::now();
            let prepared = builder()
                .resume(&files.journal)
                .manifest_out(&files.resumed_manifest)
                .build()
                .map_err(|e| e.to_string())?;
            setup += t.elapsed();
            let study = prepared.run();
            let resumed = read_manifest(&files.resumed_manifest)?;
            let second = Results::from_study(study).digest(Some(resumed.fingerprint))?;
            files.remove();
            if second != first {
                return Err(format!("resume pass gave {second}, first pass {first}"));
            }
            Ok(first)
        }
    });
    StudyRun {
        digest,
        setup,
        phases,
    }
}

/// The reference run for a study's table digest: for audited-campaign a
/// plain run (1 thread, no prune, collapse, journal or sinks), otherwise
/// the untraced run itself.
pub fn run_reference(w: &Workload, spec: &Spec, dir: &Path) -> Result<Digest, String> {
    if w.kind != Kind::Audited {
        return run_untraced(w, spec, dir).digest;
    }
    let audited = run_untraced(w, spec, dir).digest?;
    let plain = catch(|| {
        let mut cfg = w.cfg_for(spec);
        cfg.classify.static_prune = false;
        let study = StudyBuilder::new(spec.design)
            .width(spec.width)
            .config(cfg)
            .threads(1)
            .engine(EngineKind::parse("tape", 1).expect("tape is a kernel name"))
            .build()
            .map_err(|e| e.to_string())?
            .run();
        Results::from_study(study).digest(None)
    })?;
    // The fingerprint digests the prune flag and the pruned tally by
    // design, so it comes from the audited configuration.
    Ok(Digest {
        table: plain.table,
        fingerprint: audited.fingerprint,
    })
}

/// Runs `f`, turning a panic into an error.
pub fn catch<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panicked: {}",
            sfr_core::exec::panic_message(payload.as_ref())
        )),
    }
}

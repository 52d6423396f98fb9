//! The campaign spec a coordinator hands to connecting workers.
//!
//! A [`ShardSpec`] is the CLI-level description of one grading
//! campaign — benchmark, width, test set, Monte Carlo knobs, engine —
//! serialized as `key=value` lines inside the `SPEC` frame. A worker
//! rebuilds the study from it and reports the resulting
//! [campaign fingerprint](sfr_core::PreparedStudy::fingerprint); the
//! coordinator compares fingerprints, which covers every knob that
//! influences results, so a spec that failed to capture some exotic
//! configuration can only ever cause a *rejected* worker (and a local
//! fallback), never a wrong merge.
//!
//! Floats are serialized as IEEE-754 bit patterns in hex: the worker's
//! rebuilt configuration must be bit-exact or its fingerprint (an FNV
//! hash over the config's debug rendering) would diverge.

use sfr_core::exec::EngineKind;
use sfr_core::{GradeConfig, MonteCarloConfig, StudyBuilder};

/// CLI-level description of one campaign, exchanged in the `SPEC`
/// frame. Construct with [`ShardSpec::new`] (which takes the workspace
/// defaults) and override fields directly.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Benchmark name (`diffeq` | `facet` | `poly` | `fir`).
    pub bench: String,
    /// Datapath width in bits.
    pub width: usize,
    /// Detection test-set length.
    pub patterns: usize,
    /// Detection test-set TPGR seed.
    pub test_seed: u32,
    /// Whether the static-prune pre-pass is enabled.
    pub static_prune: bool,
    /// Whether structural fault collapsing is enabled: coordinator and
    /// workers each derive the same representative-only grading set, so
    /// the leased packs cover one fault per equivalence class.
    pub collapse: bool,
    /// Detection tolerance band in percent.
    pub threshold_pct: f64,
    /// Monte Carlo relative tolerance.
    pub mc_rel_tolerance: f64,
    /// Monte Carlo minimum batch count.
    pub mc_min_batches: usize,
    /// Monte Carlo maximum batch count.
    pub mc_max_batches: usize,
    /// Patterns per Monte Carlo batch.
    pub patterns_per_batch: usize,
    /// Base TPGR seed for grading batches.
    pub grade_seed: u32,
    /// Watchdog cycle-budget factor, if armed.
    pub cycle_budget: Option<usize>,
    /// The fault-simulation engine.
    pub engine: EngineKind,
    /// Lease timeout the coordinator will enforce, in milliseconds —
    /// workers heartbeat at a third of this.
    pub lease_ms: u64,
}

fn engine_parts(engine: EngineKind) -> (&'static str, usize) {
    match engine {
        EngineKind::Serial => ("serial", 1),
        EngineKind::Tape(n) => ("tape", n),
    }
}

impl ShardSpec {
    /// A spec for `bench` at `width` bits with every other knob at the
    /// workspace default (mirroring [`StudyBuilder::new`]).
    pub fn new(bench: impl Into<String>, width: usize) -> Self {
        let classify = sfr_core::ClassifyConfig::default();
        let grade = GradeConfig::default();
        ShardSpec {
            bench: bench.into(),
            width,
            patterns: classify.test_patterns,
            test_seed: classify.test_seed,
            static_prune: classify.static_prune,
            collapse: false,
            threshold_pct: grade.threshold_pct,
            mc_rel_tolerance: grade.mc.rel_tolerance,
            mc_min_batches: grade.mc.min_batches,
            mc_max_batches: grade.mc.max_batches,
            patterns_per_batch: grade.patterns_per_batch,
            grade_seed: grade.seed,
            cycle_budget: None,
            engine: EngineKind::default(),
            lease_ms: 2_000,
        }
    }

    /// The loose Monte Carlo settings of
    /// [`StudyBuilder::quick_monte_carlo`], for fast tests.
    pub fn quick_monte_carlo(mut self) -> Self {
        self.mc_rel_tolerance = 0.05;
        self.mc_min_batches = 3;
        self.mc_max_batches = 6;
        self.patterns_per_batch = 60;
        self
    }

    /// Serializes the spec as `key=value` lines for the `SPEC` frame.
    pub fn to_text(&self) -> String {
        let (engine, engine_threads) = engine_parts(self.engine);
        let mut text = String::new();
        let mut kv = |k: &str, v: String| {
            text.push_str(k);
            text.push('=');
            text.push_str(&v);
            text.push('\n');
        };
        kv("bench", self.bench.clone());
        kv("width", self.width.to_string());
        kv("patterns", self.patterns.to_string());
        kv("test_seed", self.test_seed.to_string());
        kv("static_prune", u8::from(self.static_prune).to_string());
        kv("collapse", u8::from(self.collapse).to_string());
        kv(
            "threshold_bits",
            format!("{:016x}", self.threshold_pct.to_bits()),
        );
        kv(
            "mc_rel_tol_bits",
            format!("{:016x}", self.mc_rel_tolerance.to_bits()),
        );
        kv("mc_min_batches", self.mc_min_batches.to_string());
        kv("mc_max_batches", self.mc_max_batches.to_string());
        kv("patterns_per_batch", self.patterns_per_batch.to_string());
        kv("grade_seed", self.grade_seed.to_string());
        kv(
            "cycle_budget",
            self.cycle_budget.map_or("-".into(), |f| f.to_string()),
        );
        kv("engine", engine.to_string());
        kv("engine_threads", engine_threads.to_string());
        kv("lease_ms", self.lease_ms.to_string());
        text
    }

    /// Parses a spec previously rendered by [`to_text`](Self::to_text).
    ///
    /// # Errors
    ///
    /// A human-readable message for a missing, duplicate, unknown, or
    /// unparseable field.
    pub fn parse(text: &str) -> Result<ShardSpec, String> {
        let mut spec = ShardSpec::new("", 0);
        let mut engine_name: Option<String> = None;
        let mut engine_threads: usize = 1;
        let mut seen = std::collections::BTreeSet::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("bad spec line `{line}`"))?;
            if !seen.insert(key.to_string()) {
                return Err(format!("duplicate spec field `{key}`"));
            }
            let int = |v: &str| {
                v.parse::<usize>()
                    .map_err(|_| format!("bad spec value `{key}={v}`"))
            };
            let f64_bits = |v: &str| {
                u64::from_str_radix(v, 16)
                    .map(f64::from_bits)
                    .map_err(|_| format!("bad spec value `{key}={v}`"))
            };
            match key {
                "bench" => spec.bench = value.to_string(),
                "width" => spec.width = int(value)?,
                "patterns" => spec.patterns = int(value)?,
                "test_seed" => {
                    spec.test_seed = u32::try_from(int(value)?)
                        .map_err(|_| format!("bad spec value `{key}={value}`"))?;
                }
                "static_prune" => spec.static_prune = int(value)? != 0,
                "collapse" => spec.collapse = int(value)? != 0,
                "threshold_bits" => spec.threshold_pct = f64_bits(value)?,
                "mc_rel_tol_bits" => spec.mc_rel_tolerance = f64_bits(value)?,
                "mc_min_batches" => spec.mc_min_batches = int(value)?,
                "mc_max_batches" => spec.mc_max_batches = int(value)?,
                "patterns_per_batch" => spec.patterns_per_batch = int(value)?,
                "grade_seed" => {
                    spec.grade_seed = u32::try_from(int(value)?)
                        .map_err(|_| format!("bad spec value `{key}={value}`"))?;
                }
                "cycle_budget" => {
                    spec.cycle_budget = if value == "-" {
                        None
                    } else {
                        Some(int(value)?)
                    };
                }
                "engine" => engine_name = Some(value.to_string()),
                "engine_threads" => engine_threads = int(value)?,
                "lease_ms" => spec.lease_ms = int(value)? as u64,
                other => return Err(format!("unknown spec field `{other}`")),
            }
        }
        if spec.bench.is_empty() || spec.width == 0 {
            return Err("spec is missing bench/width".into());
        }
        let name = engine_name.ok_or("spec is missing engine")?;
        spec.engine = EngineKind::parse(&name, engine_threads)
            .ok_or_else(|| format!("unknown spec engine `{name}`"))?;
        Ok(spec)
    }

    /// A [`StudyBuilder`] configured exactly as this spec describes.
    /// The coordinator and every worker build from the same spec, so
    /// their campaign fingerprints agree; the coordinator additionally
    /// layers journaling/manifest/thread settings on top (none of which
    /// enter the fingerprint).
    pub fn study_builder(&self) -> StudyBuilder {
        let grade = GradeConfig {
            mc: MonteCarloConfig {
                rel_tolerance: self.mc_rel_tolerance,
                min_batches: self.mc_min_batches,
                max_batches: self.mc_max_batches,
            },
            patterns_per_batch: self.patterns_per_batch,
            seed: self.grade_seed,
            threshold_pct: self.threshold_pct,
            ..Default::default()
        };
        let mut builder = StudyBuilder::new(&self.bench)
            .width(self.width)
            .test_patterns(self.patterns)
            .test_seed(self.test_seed)
            .static_prune(self.static_prune)
            .collapse(self.collapse)
            .grade_config(grade)
            .engine(self.engine);
        if let Some(factor) = self.cycle_budget {
            builder = builder.cycle_budget(factor);
        }
        builder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_text() {
        let mut spec = ShardSpec::new("poly", 6).quick_monte_carlo();
        spec.static_prune = true;
        spec.collapse = true;
        spec.threshold_pct = 2.5;
        spec.cycle_budget = Some(12);
        spec.engine = EngineKind::Tape(4);
        spec.lease_ms = 750;
        let text = spec.to_text();
        let back = ShardSpec::parse(&text).expect("parse");
        assert_eq!(spec, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ShardSpec::parse("").is_err());
        assert!(ShardSpec::parse("bench poly").is_err());
        assert!(ShardSpec::parse("bench=poly\nwidth=4\nengine=tape\n").is_ok());
        assert!(ShardSpec::parse("bench=poly\nwidth=4\nmystery=1\nengine=tape\n").is_err());
        assert!(
            ShardSpec::parse("bench=poly\nwidth=4\nwidth=4\nengine=tape\n").is_err(),
            "duplicate field"
        );
        assert!(ShardSpec::parse("bench=poly\nwidth=4\nengine=warp\n").is_err());
        for retired in ["lane", "threaded", "tape-wide"] {
            let text = format!("bench=poly\nwidth=4\nengine={retired}\n");
            assert!(ShardSpec::parse(&text).is_err(), "{retired}");
        }
    }

    #[test]
    fn default_spec_runs_the_tape_engine() {
        assert_eq!(ShardSpec::new("poly", 4).engine, EngineKind::Tape(1));
    }

    #[test]
    fn coordinator_and_worker_fingerprints_agree() {
        let spec = ShardSpec::new("poly", 4).quick_monte_carlo();
        let coordinator = spec.study_builder().threads(8).build().expect("build");
        let text = spec.to_text();
        let worker = ShardSpec::parse(&text)
            .expect("parse")
            .study_builder()
            .build()
            .expect("build");
        assert_eq!(coordinator.fingerprint(), worker.fingerprint());
    }
}

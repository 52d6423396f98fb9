//! Deterministic run manifests.
//!
//! A manifest (`manifest.json`) records what a study ran (benchmark,
//! fault universe, seeds/config digest, engine, threads, provenance)
//! and what came out (classification tallies, per-phase wall time,
//! CPU time). Two runs of the same campaign can be diffed; the
//! [`RunManifest::fingerprint`] covers only the deterministic fields,
//! so it is stable across repeated runs, thread counts, and engines,
//! and changes whenever a seed or config knob changes the results.

use std::fmt::Write as _;
use std::path::Path;

use crate::json;

/// Wall time of one pipeline phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTime {
    /// Phase label (`"grade"`).
    pub name: String,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// True when the phase ended by unwinding (quarantine path).
    pub aborted: bool,
}

/// Final classification tallies recorded in the manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    /// Total faults in the universe.
    pub total: usize,
    /// Single-fail-infer faults (detected by the inference test).
    pub sfi: usize,
    /// Control-flow-recoverable faults.
    pub cfr: usize,
    /// Silent-fail-recoverable faults (the power-graded set).
    pub sfr: usize,
    /// SFR faults that received a power grade.
    pub graded: usize,
    /// Graded faults the power test flags.
    pub flagged: usize,
    /// Faults settled by the static pre-pass.
    pub pruned: usize,
    /// Campaign incidents (quarantines, budget exhaustions, journal
    /// degradation).
    pub incidents: usize,
}

/// Self-profiling figures for one run: pack wall-time percentiles and
/// compiled-tape shape counters, collected by the always-on profiler
/// in `sfr-exec`. Pure observability — deliberately excluded from
/// [`RunManifest::fingerprint`], which digests results only, so two
/// runs with different timings still fingerprint identically.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileSection {
    /// Grading packs computed this run (restored packs are not timed).
    pub packs_computed: usize,
    /// Grading packs restored from a checkpoint journal.
    pub packs_restored: usize,
    /// Median computed-pack wall time, µs.
    pub pack_p50_us: u64,
    /// 90th-percentile computed-pack wall time, µs.
    pub pack_p90_us: u64,
    /// Slowest computed-pack wall time, µs.
    pub pack_max_us: u64,
    /// Monte Carlo batches simulated across the whole run.
    pub mc_batches: usize,
    /// Compiled tape ops of the last computed pack (0 when no pack was
    /// computed).
    pub tape_ops: usize,
    /// Tape levelization depth (0 when no pack was computed).
    pub tape_levels: usize,
    /// Fault-injection force ops of the last computed pack (0 when no
    /// pack was computed).
    pub tape_force_ops: usize,
    /// Delta-sweep dirty net-column share of the final Monte Carlo
    /// batch, percent (0 when no pack was computed).
    pub tape_sparsity_pct: f64,
}

/// A study's run manifest. Built by `sfr-core` after a study
/// completes; this crate owns the format.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Benchmark name (`"diffeq"`).
    pub benchmark: String,
    /// Datapath word width in bits.
    pub width: usize,
    /// Campaign fingerprint (FNV-1a over benchmark, width, and the
    /// full run configuration — seeds included), rendered `0x…`. Shared
    /// with the checkpoint journal's compatibility check.
    pub campaign_fingerprint: u64,
    /// Faults in the universe (fingerprint input: the universe is a
    /// function of the netlist, which the campaign fingerprint pins).
    pub fault_universe: usize,
    /// Key configuration facts (`seed`, `patterns`, `mc_tolerance`,
    /// …) as rendered strings, for humans diffing two manifests.
    pub config: Vec<(String, String)>,
    /// Engine label (`"tape"` or `"serial"`).
    pub engine: String,
    /// Worker thread count.
    pub threads: usize,
    /// Final tallies.
    pub tallies: Tallies,
    /// Wall time per phase, in execution order.
    pub phases: Vec<PhaseTime>,
    /// Self-profiling figures (timings, tape counters). Not part of
    /// the fingerprint.
    pub profile: ProfileSection,
    /// Total wall-clock milliseconds.
    pub wall_ms: f64,
    /// Process CPU milliseconds (user+sys), when the platform exposes
    /// it.
    pub cpu_ms: Option<f64>,
    /// Git revision of the working tree (`"1a2b3c4d (main)"`), when
    /// run inside a repository.
    pub git: Option<String>,
    /// Checkpoint journal path, when the campaign was journaled.
    pub journal: Option<String>,
}

/// FNV-1a, the same construction the checkpoint journal uses for its
/// campaign fingerprint.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl RunManifest {
    /// Digest of the deterministic fields only: benchmark, width,
    /// campaign fingerprint (covers seeds and config), fault universe,
    /// and tallies. Timing, threads, engine, and provenance are
    /// excluded — the determinism contract says they cannot change the
    /// results, and the obs test suite holds the fingerprint to that.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        h = fnv1a(self.benchmark.as_bytes(), h);
        h = fnv1a(&(self.width as u64).to_le_bytes(), h);
        h = fnv1a(&self.campaign_fingerprint.to_le_bytes(), h);
        h = fnv1a(&(self.fault_universe as u64).to_le_bytes(), h);
        let t = &self.tallies;
        for n in [
            t.total,
            t.sfi,
            t.cfr,
            t.sfr,
            t.graded,
            t.flagged,
            t.pruned,
            t.incidents,
        ] {
            h = fnv1a(&(n as u64).to_le_bytes(), h);
        }
        h
    }

    /// Render the manifest as pretty-printed JSON (stable key order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"benchmark\": {},", json::escaped(&self.benchmark));
        let _ = writeln!(out, "  \"width\": {},", self.width);
        let _ = writeln!(
            out,
            "  \"campaign_fingerprint\": \"{:#018x}\",",
            self.campaign_fingerprint
        );
        let _ = writeln!(out, "  \"fingerprint\": \"{:#018x}\",", self.fingerprint());
        let _ = writeln!(out, "  \"fault_universe\": {},", self.fault_universe);
        out.push_str("  \"config\": {\n");
        for (i, (k, v)) in self.config.iter().enumerate() {
            let comma = if i + 1 == self.config.len() { "" } else { "," };
            let _ = writeln!(out, "    {}: {}{comma}", json::escaped(k), json::escaped(v));
        }
        out.push_str("  },\n");
        let _ = writeln!(out, "  \"engine\": {},", json::escaped(&self.engine));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let t = &self.tallies;
        out.push_str("  \"tallies\": {\n");
        let _ = writeln!(out, "    \"total\": {},", t.total);
        let _ = writeln!(out, "    \"sfi\": {},", t.sfi);
        let _ = writeln!(out, "    \"cfr\": {},", t.cfr);
        let _ = writeln!(out, "    \"sfr\": {},", t.sfr);
        let _ = writeln!(out, "    \"graded\": {},", t.graded);
        let _ = writeln!(out, "    \"flagged\": {},", t.flagged);
        let _ = writeln!(out, "    \"pruned\": {},", t.pruned);
        let _ = writeln!(out, "    \"incidents\": {}", t.incidents);
        out.push_str("  },\n");
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 == self.phases.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"wall_ms\": {}, \"aborted\": {}}}{comma}",
                json::escaped(&p.name),
                json::num(p.wall_ms),
                p.aborted
            );
        }
        out.push_str("  ],\n");
        let pr = &self.profile;
        out.push_str("  \"profile\": {\n");
        let _ = writeln!(out, "    \"packs_computed\": {},", pr.packs_computed);
        let _ = writeln!(out, "    \"packs_restored\": {},", pr.packs_restored);
        let _ = writeln!(out, "    \"pack_p50_us\": {},", pr.pack_p50_us);
        let _ = writeln!(out, "    \"pack_p90_us\": {},", pr.pack_p90_us);
        let _ = writeln!(out, "    \"pack_max_us\": {},", pr.pack_max_us);
        let _ = writeln!(out, "    \"mc_batches\": {},", pr.mc_batches);
        let _ = writeln!(out, "    \"tape_ops\": {},", pr.tape_ops);
        let _ = writeln!(out, "    \"tape_levels\": {},", pr.tape_levels);
        let _ = writeln!(out, "    \"tape_force_ops\": {},", pr.tape_force_ops);
        let _ = writeln!(
            out,
            "    \"tape_sparsity_pct\": {}",
            json::num(pr.tape_sparsity_pct)
        );
        out.push_str("  },\n");
        let _ = writeln!(out, "  \"wall_ms\": {},", json::num(self.wall_ms));
        match self.cpu_ms {
            Some(ms) => {
                let _ = writeln!(out, "  \"cpu_ms\": {},", json::num(ms));
            }
            None => {
                let _ = writeln!(out, "  \"cpu_ms\": null,");
            }
        }
        let opt = |v: &Option<String>| match v {
            Some(s) => json::escaped(s),
            None => "null".into(),
        };
        let _ = writeln!(out, "  \"git\": {},", opt(&self.git));
        let _ = writeln!(out, "  \"journal\": {}", opt(&self.journal));
        out.push_str("}\n");
        out
    }

    /// Write the manifest to `path`, creating parent directories.
    /// Refuses to overwrite an existing file unless `force` — a
    /// manifest is a run's record of provenance, so clobbering one
    /// silently would destroy the very evidence it exists to keep.
    pub fn write(&self, path: impl AsRef<Path>, force: bool) -> std::io::Result<()> {
        let path = path.as_ref();
        if !force && path.exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!(
                    "manifest {} already exists (pass --force to overwrite)",
                    path.display()
                ),
            ));
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.render_json())
    }
}

/// Process CPU time (user + system) in milliseconds, read from
/// `/proc/self/stat`. `None` on platforms without procfs.
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; skip past its closing paren.
    let rest = stat.rsplit_once(") ")?.1;
    let mut fields = rest.split_whitespace();
    // rest starts at field 3 (state); utime/stime are fields 14/15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux configuration we target.
    Some((utime + stime) as f64 * 10.0)
}

/// Best-effort git revision: walks up from `start` to the repository
/// root, reads `.git/HEAD`, and resolves one level of symbolic ref.
/// Returns `"<short-sha> (<branch>)"` or `None` outside a repository.
pub fn git_revision(start: &Path) -> Option<String> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let head_path = d.join(".git").join("HEAD");
        if let Ok(head) = std::fs::read_to_string(&head_path) {
            let head = head.trim();
            if let Some(reference) = head.strip_prefix("ref: ") {
                let branch = reference
                    .rsplit('/')
                    .next()
                    .unwrap_or(reference)
                    .to_string();
                let sha = std::fs::read_to_string(d.join(".git").join(reference))
                    .ok()
                    .map(|s| s.trim().chars().take(12).collect::<String>());
                return Some(match sha {
                    Some(sha) if !sha.is_empty() => format!("{sha} ({branch})"),
                    _ => format!("unborn ({branch})"),
                });
            }
            return Some(head.chars().take(12).collect());
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            benchmark: "diffeq".into(),
            width: 8,
            campaign_fingerprint: 0xdead_beef_1234_5678,
            fault_universe: 844,
            config: vec![
                ("test_seed".into(), "7".into()),
                ("grade_seed".into(), "11".into()),
            ],
            engine: "tape".into(),
            threads: 2,
            tallies: Tallies {
                total: 844,
                sfi: 700,
                cfr: 95,
                sfr: 49,
                graded: 49,
                flagged: 40,
                pruned: 120,
                incidents: 0,
            },
            phases: vec![
                PhaseTime {
                    name: "build".into(),
                    wall_ms: 12.5,
                    aborted: false,
                },
                PhaseTime {
                    name: "grade".into(),
                    wall_ms: 901.0,
                    aborted: false,
                },
            ],
            profile: ProfileSection {
                packs_computed: 7,
                packs_restored: 1,
                pack_p50_us: 900,
                pack_p90_us: 1_400,
                pack_max_us: 2_000,
                mc_batches: 64,
                tape_ops: 5_000,
                tape_levels: 30,
                tape_force_ops: 62,
                tape_sparsity_pct: 12.5,
            },
            wall_ms: 950.0,
            cpu_ms: Some(940.0),
            git: Some("1a2b3c4d5e6f (main)".into()),
            journal: None,
        }
    }

    #[test]
    fn renders_parseable_json() {
        let m = sample();
        let v = crate::json::parse(&m.render_json()).expect("manifest parses");
        assert_eq!(
            v.get("benchmark").and_then(crate::json::Value::as_str),
            Some("diffeq")
        );
        assert_eq!(
            v.get("tallies")
                .and_then(|t| t.get("sfr"))
                .and_then(crate::json::Value::as_num),
            Some(49.0)
        );
        assert_eq!(
            v.get("fingerprint").and_then(crate::json::Value::as_str),
            Some(format!("{:#018x}", m.fingerprint()).as_str())
        );
        assert_eq!(
            v.get("profile")
                .and_then(|p| p.get("pack_p90_us"))
                .and_then(crate::json::Value::as_num),
            Some(1_400.0)
        );
    }

    #[test]
    fn fingerprint_ignores_timing_but_not_results() {
        let a = sample();
        let mut b = sample();
        b.threads = 8;
        b.engine = "serial".into();
        b.wall_ms = 1.0;
        b.cpu_ms = None;
        b.git = None;
        b.phases.clear();
        b.profile = ProfileSection::default();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = sample();
        c.campaign_fingerprint ^= 1; // a seed change reaches this
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = sample();
        d.tallies.flagged += 1;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn write_refuses_overwrite_without_force() {
        let dir = std::env::temp_dir().join(format!("sfr-obs-manifest-{}", std::process::id()));
        let path = dir.join("sub").join("manifest.json");
        let m = sample();
        m.write(&path, false).expect("first write creates dirs");
        let err = m.write(&path, false).expect_err("second write refused");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        m.write(&path, true).expect("force overwrites");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cpu_time_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let ms = process_cpu_ms().expect("procfs present");
            assert!(ms >= 0.0);
        }
    }
}

//! Metrics export: the campaign's [`Counters`] tally plus fixed
//! log2-bucket histograms, rendered as Prometheus-style text and as a
//! human summary table.
//!
//! Every `sfr_*_total` family is read from the embedded [`Counters`],
//! so the export, the stderr summary and the run manifest agree by
//! construction. The registry adds only what a tally has no room for:
//! the latency, throughput and tape-shape distributions, and the
//! gauges derived from them.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sfr_exec::{CounterState, Counters, Progress, ProgressEvent, TraceRecord};

/// Number of log2 buckets. Bucket `i` counts observations `v` with
/// `v <= 2^i - 1` exclusive of lower buckets, i.e. `bits(v) == i`;
/// the last bucket absorbs everything larger.
const BUCKETS: usize = 40;

/// A fixed-bucket log2 histogram. Bucket boundaries are powers of two
/// minus one (`0, 1, 3, 7, 15, …`), which keeps `observe` at a single
/// `leading_zeros` plus one relaxed fetch_add.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation. The running sum saturates at
    /// `u64::MAX` instead of wrapping, so a pathological observation
    /// (or very long campaign) degrades the mean gracefully rather
    /// than corrupting it.
    pub fn observe(&self, value: u64) {
        let idx = (u64::BITS - value.leading_zeros()) as usize;
        let idx = idx.min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            });
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bucket bound (`2^i - 1`) of the bucket containing the
    /// `q`-quantile (0.0–1.0), or `None` when empty. Log2 buckets give
    /// an order-of-magnitude answer, which is what the summary needs.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Some(bucket_bound(i));
            }
        }
        Some(bucket_bound(BUCKETS - 1))
    }

    fn render_prometheus(&self, out: &mut String, name: &str, help: &str) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = if i == BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                bucket_bound(i).to_string()
            };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

fn bucket_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The `sfr_*_total` counter families — name, help text, value — read
/// from one tally snapshot.
fn counter_families(c: &CounterState) -> [(&'static str, &'static str, u64); 15] {
    [
        (
            "sfr_faults_simulated_total",
            "Faults that finished fault simulation",
            c.faults_simulated as u64,
        ),
        (
            "sfr_faults_dropped_total",
            "Simulated faults detected and dropped",
            c.faults_dropped as u64,
        ),
        (
            "sfr_faults_pruned_total",
            "Faults classified statically without simulation",
            c.faults_pruned as u64,
        ),
        (
            "sfr_faults_collapsed_total",
            "Faults folded into equivalence-class representatives",
            c.faults_collapsed as u64,
        ),
        (
            "sfr_faults_graded_total",
            "SFR faults that received a power grade",
            c.faults_graded as u64,
        ),
        (
            "sfr_faults_flagged_total",
            "Graded faults the power test flags",
            c.faults_flagged as u64,
        ),
        (
            "sfr_mc_estimations_total",
            "Monte Carlo power estimations completed",
            (c.mc_converged + c.mc_capped) as u64,
        ),
        (
            "sfr_mc_converged_total",
            "Estimations that met the CI tolerance",
            c.mc_converged as u64,
        ),
        (
            "sfr_grade_packs_total",
            "Lane-packed grading passes completed",
            c.grade_packs as u64,
        ),
        (
            "sfr_packs_quarantined_total",
            "Packs/chunks quarantined after panicking",
            c.packs_quarantined as u64,
        ),
        (
            "sfr_packs_restored_total",
            "Packs/chunks restored from a checkpoint journal",
            c.packs_restored as u64,
        ),
        (
            "sfr_budget_exhausted_total",
            "Faults that exhausted their cycle budget",
            c.budget_exhausted as u64,
        ),
        (
            "sfr_cycles_simulated_total",
            "Simulated controller+datapath cycles",
            c.cycles_simulated,
        ),
        (
            "sfr_journal_degraded_total",
            "Checkpoint journals that degraded to in-memory operation",
            c.journal_degraded as u64,
        ),
        (
            "sfr_tape_force_ops_total",
            "Fault-injection Force ops across compiled tapes",
            c.force_ops,
        ),
    ]
}

/// The metrics registry. Implements [`Progress`]: it tallies the event
/// stream in its [`Counters`] and feeds its histograms from the same
/// events and from the structured records.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    counters: Counters,
    /// Wall time per grading pack, microseconds.
    pack_latency_us: Histogram,
    /// Wall time per fault-simulation chunk, microseconds.
    chunk_latency_us: Histogram,
    /// Simulated cycles per pack/chunk work item.
    cycles_per_item: Histogram,
    /// Monte Carlo batches per estimation.
    mc_batches: Histogram,
    /// Occupied lanes per grading pack (including the baseline lane).
    lane_occupancy: Histogram,
    /// Tape ops per topological level, per computed pack.
    tape_ops_per_level: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            start: Instant::now(),
            counters: Counters::new(),
            pack_latency_us: Histogram::default(),
            chunk_latency_us: Histogram::default(),
            cycles_per_item: Histogram::default(),
            mc_batches: Histogram::default(),
            lane_occupancy: Histogram::default(),
            tape_ops_per_level: Histogram::default(),
        }
    }
}

impl Metrics {
    /// A fresh registry; the faults/s gauge is measured from now.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The tally every counter family and summary total is read from.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mean lane utilization (0–1) across grading packs: occupied
    /// lanes over the 64-lane pack width.
    pub fn lane_utilization(&self) -> f64 {
        self.lane_occupancy.mean() / 64.0
    }

    /// Render the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let c = self.counters.snapshot();
        let mut out = String::new();
        for (name, help, value) in counter_families(&c) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (gauge, help, value) in [
            (
                "sfr_faults_per_second",
                "Graded faults per wall-clock second",
                faults_per_sec(&c, self.start.elapsed().as_secs_f64()),
            ),
            (
                "sfr_prune_hit_rate",
                "Fraction of faults settled statically",
                prune_hit_rate(&c),
            ),
            (
                "sfr_lane_utilization",
                "Mean occupied fraction of the 64-lane pack",
                self.lane_utilization(),
            ),
        ] {
            let _ = writeln!(out, "# HELP {gauge} {help}");
            let _ = writeln!(out, "# TYPE {gauge} gauge");
            let _ = writeln!(out, "{gauge} {value:.6}");
        }
        for (hist, name, help) in [
            (
                &self.pack_latency_us,
                "sfr_pack_latency_microseconds",
                "Wall time per computed grading pack",
            ),
            (
                &self.chunk_latency_us,
                "sfr_chunk_latency_microseconds",
                "Wall time per computed fault-simulation chunk",
            ),
            (
                &self.cycles_per_item,
                "sfr_cycles_per_work_item",
                "Simulated cycles per pack/chunk work item",
            ),
            (
                &self.mc_batches,
                "sfr_mc_batches_per_estimation",
                "Monte Carlo batches per power estimation",
            ),
            (
                &self.lane_occupancy,
                "sfr_lane_occupancy",
                "Occupied lanes per grading pack including the baseline",
            ),
            (
                &self.tape_ops_per_level,
                "sfr_tape_ops_per_level",
                "Tape ops per topological level per profiled pack",
            ),
        ] {
            hist.render_prometheus(&mut out, name, help);
        }
        out
    }

    /// Render the human summary table printed at campaign end.
    pub fn render_summary(&self) -> String {
        fn quantiles(h: &Histogram) -> String {
            match (h.quantile_bound(0.5), h.quantile_bound(0.95)) {
                (Some(p50), Some(p95)) => format!("p50≤{p50} p95≤{p95} mean {:.1}", h.mean()),
                _ => "(no samples)".into(),
            }
        }
        let c = self.counters.snapshot();
        let mut out = String::new();
        let _ = writeln!(out, "metrics summary:");
        for (label, value) in [
            ("faults graded", c.faults_graded.to_string()),
            ("faults flagged", c.faults_flagged.to_string()),
            (
                "faults/s",
                format!(
                    "{:.1}",
                    faults_per_sec(&c, self.start.elapsed().as_secs_f64())
                ),
            ),
            (
                "prune hit-rate",
                format!("{:.1}%", prune_hit_rate(&c) * 100.0),
            ),
            (
                "lane utilization",
                format!("{:.1}%", self.lane_utilization() * 100.0),
            ),
            ("cycles simulated", c.cycles_simulated.to_string()),
            ("pack latency µs", quantiles(&self.pack_latency_us)),
            ("chunk latency µs", quantiles(&self.chunk_latency_us)),
            ("cycles/work item", quantiles(&self.cycles_per_item)),
            ("mc batches", quantiles(&self.mc_batches)),
        ] {
            let _ = writeln!(out, "  {label:<18} {value}");
        }
        out
    }

    /// Write the Prometheus rendering to `path`, creating parent
    /// directories as needed. Metrics files are point-in-time exports,
    /// so overwriting is fine (unlike manifests).
    pub fn write_prometheus(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.render_prometheus())
    }
}

/// Graded faults per second over `secs` of wall time.
fn faults_per_sec(c: &CounterState, secs: f64) -> f64 {
    if secs <= 0.0 {
        0.0
    } else {
        c.faults_graded as f64 / secs
    }
}

/// Fraction (0–1) of classified faults settled by the static pre-pass.
fn prune_hit_rate(c: &CounterState) -> f64 {
    let settled = (c.faults_pruned + c.faults_simulated) as f64;
    if settled == 0.0 {
        0.0
    } else {
        c.faults_pruned as f64 / settled
    }
}

impl Progress for Metrics {
    fn event(&self, event: ProgressEvent) {
        self.counters.event(event);
        match event {
            ProgressEvent::MonteCarlo { batches, .. } => self.mc_batches.observe(batches as u64),
            ProgressEvent::GradePack { faults, tape, .. } => {
                self.lane_occupancy.observe(faults as u64 + 1);
                if let Some(per_level) = tape.ops.checked_div(tape.levels) {
                    self.tape_ops_per_level.observe(per_level as u64);
                }
            }
            ProgressEvent::CyclesSimulated { cycles } => self.cycles_per_item.observe(cycles),
            _ => {}
        }
    }

    // Latency distributions come from the structured records (latency
    // is measured inside the worker and carried on the record).
    fn record(&self, record: &TraceRecord) {
        match record {
            TraceRecord::PackGraded {
                elapsed,
                restored: false,
                ..
            } => self.pack_latency_us.observe(elapsed.as_micros() as u64),
            TraceRecord::ChunkSimulated {
                elapsed,
                restored: false,
                ..
            } => self.chunk_latency_us.observe(elapsed.as_micros() as u64),
            _ => {}
        }
    }

    fn wants_records(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 7, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1021);
        // rank 4 of 7 (p50) lands in the [2,3] bucket → bound 3.
        assert_eq!(h.quantile_bound(0.5), Some(3));
        assert_eq!(h.quantile_bound(1.0), Some(1023));
        assert!(Histogram::default().quantile_bound(0.5).is_none());
    }

    #[test]
    fn histogram_edge_values_and_saturating_sum() {
        let h = Histogram::default();
        h.observe(0);
        assert_eq!(h.quantile_bound(1.0), Some(0), "0 lands in bucket 0");
        h.observe(1);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(
            h.quantile_bound(1.0),
            Some(bucket_bound(BUCKETS - 1)),
            "u64::MAX clamps into the last bucket"
        );
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "saturated sum is sticky");
        assert_eq!(h.count(), 4, "count still advances past saturation");
    }

    fn grade_pack(faults: usize, force_ops: usize) -> ProgressEvent {
        ProgressEvent::GradePack {
            faults,
            elapsed: std::time::Duration::from_micros(900),
            tape: sfr_exec::TapeShape {
                ops: 120,
                levels: 6,
                force_ops,
            },
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let m = Metrics::new();
        m.event(ProgressEvent::FaultGraded { flagged: true });
        m.event(grade_pack(63, 63));
        m.event(ProgressEvent::CyclesSimulated { cycles: 500 });
        let text = m.render_prometheus();
        assert!(text.contains("sfr_faults_graded_total 1"));
        assert!(text.contains("sfr_cycles_simulated_total 500"));
        assert!(text.contains("sfr_tape_force_ops_total 63"));
        assert!(text.contains("# HELP sfr_pack_latency_microseconds "));
        assert!(text.contains("# TYPE sfr_pack_latency_microseconds histogram"));
        assert!(text.contains("# HELP sfr_tape_ops_per_level "));
        assert!(text.contains("sfr_lane_occupancy_bucket{le=\"+Inf\"} 1"));
        // Every exposed metric family carries both comment lines.
        for family in text.lines().filter_map(|l| {
            l.strip_prefix("# TYPE ")
                .and_then(|rest| rest.split(' ').next())
        }) {
            assert!(
                text.contains(&format!("# HELP {family} ")),
                "missing HELP for {family}"
            );
        }
        // Cumulative buckets: every bucket line's count must be
        // monotonically non-decreasing.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("sfr_lane_occupancy_bucket"))
        {
            let n: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .expect("count");
            assert!(n >= last, "cumulative: {line}");
            last = n;
        }
    }

    /// Every `sfr_*_total` sample equals the [`CounterState`] field (or
    /// sum) a separate [`Counters`] fed the same events reports.
    #[test]
    fn counter_families_read_the_tally() {
        use sfr_exec::Phase;
        // Each family gets a different count, so a family reading the
        // wrong field shows.
        let mut events = vec![
            ProgressEvent::PhaseStart {
                phase: Phase::FaultSim,
            },
            ProgressEvent::WorkPlanned {
                phase: Phase::FaultSim,
                items: 3,
            },
            ProgressEvent::CyclesSimulated { cycles: 410 },
        ];
        let repeat = |events: &mut Vec<ProgressEvent>, n: usize, e: ProgressEvent| {
            events.extend(std::iter::repeat(e).take(n));
        };
        repeat(
            &mut events,
            4,
            ProgressEvent::FaultSimulated { dropped: true },
        );
        repeat(
            &mut events,
            3,
            ProgressEvent::FaultSimulated { dropped: false },
        );
        repeat(&mut events, 1, ProgressEvent::FaultPruned);
        repeat(&mut events, 2, ProgressEvent::FaultCollapsed);
        repeat(
            &mut events,
            11,
            ProgressEvent::PackRestored {
                phase: Phase::FaultSim,
                faults: 63,
            },
        );
        repeat(
            &mut events,
            10,
            ProgressEvent::PackQuarantined { faults: 5 },
        );
        repeat(&mut events, 13, ProgressEvent::JournalDegraded);
        events.push(ProgressEvent::PhaseDone {
            phase: Phase::FaultSim,
            elapsed: std::time::Duration::from_millis(3),
            aborted: false,
        });
        let capped = ProgressEvent::MonteCarlo {
            batches: 60,
            converged: false,
        };
        let converged = ProgressEvent::MonteCarlo {
            batches: 9,
            converged: true,
        };
        repeat(&mut events, 1, capped);
        repeat(&mut events, 8, converged);
        events.push(ProgressEvent::CyclesSimulated { cycles: 7_000 });
        repeat(&mut events, 6, grade_pack(40, 41));
        repeat(&mut events, 3, ProgressEvent::FaultGraded { flagged: true });
        repeat(
            &mut events,
            2,
            ProgressEvent::FaultGraded { flagged: false },
        );
        repeat(&mut events, 12, ProgressEvent::BudgetExhausted);
        let counters = Counters::new();
        let m = Metrics::new();
        for &e in &events {
            counters.event(e);
            m.event(e);
        }
        let c = counters.snapshot();
        let expected: [(&str, u64); 15] = [
            ("sfr_faults_simulated_total", c.faults_simulated as u64),
            ("sfr_faults_dropped_total", c.faults_dropped as u64),
            ("sfr_faults_pruned_total", c.faults_pruned as u64),
            ("sfr_faults_collapsed_total", c.faults_collapsed as u64),
            ("sfr_faults_graded_total", c.faults_graded as u64),
            ("sfr_faults_flagged_total", c.faults_flagged as u64),
            (
                "sfr_mc_estimations_total",
                (c.mc_converged + c.mc_capped) as u64,
            ),
            ("sfr_mc_converged_total", c.mc_converged as u64),
            ("sfr_grade_packs_total", c.grade_packs as u64),
            ("sfr_packs_quarantined_total", c.packs_quarantined as u64),
            ("sfr_packs_restored_total", c.packs_restored as u64),
            ("sfr_budget_exhausted_total", c.budget_exhausted as u64),
            ("sfr_cycles_simulated_total", c.cycles_simulated),
            ("sfr_journal_degraded_total", c.journal_degraded as u64),
            ("sfr_tape_force_ops_total", c.force_ops),
        ];
        let text = m.render_prometheus();
        let samples: Vec<(&str, u64)> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .filter(|(name, _)| name.ends_with("_total"))
            .map(|(name, v)| (name, v.parse().expect("integer sample")))
            .collect();
        assert_eq!(samples, expected, "{text}");
        let distinct: std::collections::BTreeSet<u64> = expected.iter().map(|&(_, v)| v).collect();
        assert_eq!(distinct.len(), expected.len(), "{expected:?}");
        assert_eq!(m.counters().snapshot().phase_times, c.phase_times);
    }

    #[test]
    fn summary_mentions_rates() {
        let m = Metrics::new();
        m.event(ProgressEvent::FaultPruned);
        m.event(ProgressEvent::FaultSimulated { dropped: false });
        let s = m.render_summary();
        assert!(s.contains("prune hit-rate"));
        assert!(s.contains("50.0%"), "{s}");
    }
}

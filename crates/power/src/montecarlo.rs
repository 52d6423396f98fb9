//! Monte Carlo power estimation with convergence control.
//!
//! "To get an idea of the average power consumption over a wide range of
//! test sets, a Monte Carlo simulation can be used; the faulty circuit is
//! simulated for random data until the power converges." (paper,
//! Section 5). Batches of random runs produce per-batch power samples;
//! estimation stops when the 95% confidence half-width falls below a
//! relative tolerance.

use crate::energy::PowerReport;

/// Convergence settings for [`run_monte_carlo`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Target relative half-width of the 95% confidence interval.
    pub rel_tolerance: f64,
    /// Minimum number of batches before convergence may be declared.
    pub min_batches: usize,
    /// Hard ceiling on batches.
    pub max_batches: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            rel_tolerance: 0.01,
            min_batches: 8,
            max_batches: 200,
        }
    }
}

/// Result of a Monte Carlo power estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Mean power across batches, µW.
    pub mean_uw: f64,
    /// Half-width of the 95% confidence interval, µW.
    pub half_width_uw: f64,
    /// Batches actually run.
    pub batches: usize,
    /// Whether the tolerance was met (false = stopped at `max_batches`).
    pub converged: bool,
}

impl MonteCarloResult {
    /// Relative half-width (half-width / mean).
    pub fn rel_half_width(&self) -> f64 {
        if self.mean_uw == 0.0 {
            0.0
        } else {
            self.half_width_uw / self.mean_uw
        }
    }
}

/// Runs `batch(i)` — which must simulate one batch of random runs and
/// return its average power — until the mean converges.
///
/// # Panics
///
/// Panics if `cfg.min_batches < 2` or `max_batches < min_batches`.
pub fn run_monte_carlo<F>(cfg: &MonteCarloConfig, mut batch: F) -> MonteCarloResult
where
    F: FnMut(usize) -> PowerReport,
{
    assert!(cfg.min_batches >= 2, "need at least 2 batches for a CI");
    assert!(cfg.max_batches >= cfg.min_batches);
    let mut samples: Vec<f64> = Vec::new();
    loop {
        let i = samples.len();
        samples.push(batch(i).total_uw);
        if samples.len() >= cfg.min_batches {
            let n = samples.len() as f64;
            let mean = samples.iter().sum::<f64>() / n;
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
            let half = 1.96 * (var / n).sqrt();
            let rel = if mean == 0.0 { 0.0 } else { half / mean };
            if rel <= cfg.rel_tolerance {
                return MonteCarloResult {
                    mean_uw: mean,
                    half_width_uw: half,
                    batches: samples.len(),
                    converged: true,
                };
            }
            if samples.len() >= cfg.max_batches {
                return MonteCarloResult {
                    mean_uw: mean,
                    half_width_uw: half,
                    batches: samples.len(),
                    converged: false,
                };
            }
        }
    }
}

/// 95% CI statistics over a sample prefix, summed in index order —
/// the exact arithmetic of the serial loop.
fn prefix_stats(samples: &[f64]) -> (f64, f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let half = 1.96 * (var / n).sqrt();
    let rel = if mean == 0.0 { 0.0 } else { half / mean };
    (mean, half, rel)
}

/// Runs one Monte Carlo estimation per simulation lane off a shared
/// batch stream: `batch(i)` must simulate batch `i` once for **all**
/// `lanes` lanes (e.g. one 63-fault [`sfr_netlist::TapeSim`] pass) and return one [`PowerReport`] per lane.
///
/// Each lane's stopping rule is the serial [`run_monte_carlo`] rule
/// replayed over that lane's own sample prefix, so lane `l`'s
/// [`MonteCarloResult`] is bit-identical to
/// `run_monte_carlo(cfg, |i| scalar_batch_for_lane_l(i))` — same mean,
/// half-width, batch count, and convergence flag — even though all lanes
/// share the simulation passes. Batches keep running until the slowest
/// lane stops; samples past a lane's own stopping point are discarded,
/// exactly as the serial loop would never have computed them.
///
/// # Panics
///
/// Panics if `cfg.min_batches < 2`, `max_batches < min_batches`, or
/// `batch` returns a report count other than `lanes`.
pub fn run_monte_carlo_lanes<F>(
    cfg: &MonteCarloConfig,
    lanes: usize,
    mut batch: F,
) -> Vec<MonteCarloResult>
where
    F: FnMut(usize) -> Vec<PowerReport>,
{
    assert!(cfg.min_batches >= 2, "need at least 2 batches for a CI");
    assert!(cfg.max_batches >= cfg.min_batches);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); lanes];
    let mut results: Vec<Option<MonteCarloResult>> = vec![None; lanes];
    let mut open = lanes;
    let mut i = 0;
    while open > 0 {
        let reports = batch(i);
        assert_eq!(reports.len(), lanes, "batch must report every lane");
        for (l, rep) in reports.iter().enumerate() {
            if results[l].is_some() {
                continue;
            }
            samples[l].push(rep.total_uw);
            if samples[l].len() < cfg.min_batches {
                continue;
            }
            let (mean, half, rel) = prefix_stats(&samples[l]);
            let converged = rel <= cfg.rel_tolerance;
            if converged || samples[l].len() >= cfg.max_batches {
                results[l] = Some(MonteCarloResult {
                    mean_uw: mean,
                    half_width_uw: half,
                    batches: samples[l].len(),
                    converged,
                });
                open -= 1;
            }
        }
        i += 1;
    }
    results
        .into_iter()
        .map(|r| r.expect("lane closed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(uw: f64) -> PowerReport {
        PowerReport {
            total_uw: uw,
            switching_uw: uw,
            clock_uw: 0.0,
            cycles: 100,
        }
    }

    #[test]
    fn constant_sequence_converges_immediately() {
        let r = run_monte_carlo(&MonteCarloConfig::default(), |_| report(42.0));
        assert!(r.converged);
        assert_eq!(r.batches, 8);
        assert!((r.mean_uw - 42.0).abs() < 1e-12);
        assert!(r.half_width_uw < 1e-12);
    }

    #[test]
    fn noisy_sequence_takes_more_batches() {
        // Deterministic pseudo-noise around 100.
        let mut s = 12345u64;
        let cfg = MonteCarloConfig {
            rel_tolerance: 0.005,
            min_batches: 4,
            max_batches: 10_000,
        };
        let r = run_monte_carlo(&cfg, |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            report(100.0 + (s % 21) as f64 - 10.0)
        });
        assert!(r.converged);
        assert!(r.batches > 4);
        assert!((r.mean_uw - 100.0).abs() < 2.0);
        assert!(r.rel_half_width() <= 0.005);
    }

    #[test]
    fn max_batches_caps_divergent_input() {
        let mut i = 0.0;
        let cfg = MonteCarloConfig {
            rel_tolerance: 1e-9,
            min_batches: 2,
            max_batches: 5,
        };
        let r = run_monte_carlo(&cfg, |_| {
            i += 100.0;
            report(i)
        });
        assert!(!r.converged);
        assert_eq!(r.batches, 5);
    }

    /// Deterministic per-lane pseudo-noise: value of lane `l`, batch `i`.
    fn lane_sample(l: usize, i: usize) -> f64 {
        let mut z = (l as u64)
            .wrapping_mul(0xD129_0912_8092_1097)
            .wrapping_add(i as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        // Lanes get different spreads so they converge at different
        // batch counts.
        100.0 + (l as f64 + 1.0) * ((z % 21) as f64 - 10.0) / 10.0
    }

    #[test]
    fn lanes_are_bit_identical_to_per_lane_serial() {
        let cfg = MonteCarloConfig {
            rel_tolerance: 0.004,
            min_batches: 4,
            max_batches: 300,
        };
        let lanes = 9;
        let joint = run_monte_carlo_lanes(&cfg, lanes, |i| {
            (0..lanes).map(|l| report(lane_sample(l, i))).collect()
        });
        assert_eq!(joint.len(), lanes);
        let mut batch_counts: Vec<usize> = Vec::new();
        for (l, got) in joint.iter().enumerate() {
            let want = run_monte_carlo(&cfg, |i| report(lane_sample(l, i)));
            assert_eq!(*got, want, "lane {l}");
            batch_counts.push(want.batches);
        }
        // The test is only meaningful if lanes genuinely stop at
        // different points.
        batch_counts.dedup();
        assert!(batch_counts.len() > 1, "lanes all stopped together");
    }

    #[test]
    fn lanes_capped_case_matches_serial() {
        let cfg = MonteCarloConfig {
            rel_tolerance: 1e-12,
            min_batches: 2,
            max_batches: 6,
        };
        let joint = run_monte_carlo_lanes(&cfg, 3, |i| {
            (0..3).map(|l| report(lane_sample(l, i))).collect()
        });
        for (l, got) in joint.iter().enumerate() {
            let want = run_monte_carlo(&cfg, |i| report(lane_sample(l, i)));
            assert_eq!(*got, want, "lane {l}");
            assert!(!got.converged);
            assert_eq!(got.batches, 6);
        }
    }

    #[test]
    fn zero_lanes_returns_empty() {
        let r = run_monte_carlo_lanes(&MonteCarloConfig::default(), 0, |_| {
            panic!("no batch should run")
        });
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_single_batch_minimum() {
        let cfg = MonteCarloConfig {
            min_batches: 1,
            ..Default::default()
        };
        let _ = run_monte_carlo(&cfg, |_| report(1.0));
    }
}

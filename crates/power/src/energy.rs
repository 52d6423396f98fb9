//! Energy bookkeeping: turning switching activity into dynamic power.
//!
//! Classic toggle-count estimation: `P = ½ · Vdd² · Σᵢ Cᵢ · αᵢ · f`, where
//! the sum runs over nets (switched load capacitance per `0↔1` toggle) and
//! over sequential cells (internal clock capacitance per clock event).
//! The clock term is what makes the paper's register-load faults
//! *guaranteed* power increases: an extra load un-gates a register's clock
//! for a cycle, spending clock energy even when the data does not change.

use sfr_netlist::{Activity, ActivityMismatch, LaneCounts, Netlist, TapeActivity, TapeWord};

/// Electrical operating point for power estimation.
///
/// Defaults are 0.8 µm-era values: 5 V supply, 20 MHz clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Clock frequency in hertz.
    pub freq_hz: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            vdd: 5.0,
            freq_hz: 20.0e6,
        }
    }
}

impl PowerConfig {
    /// Energy in femtojoules for one full swing of `cap_ff` femtofarads.
    #[inline]
    pub fn swing_energy_fj(&self, cap_ff: f64) -> f64 {
        0.5 * cap_ff * self.vdd * self.vdd
    }
}

/// A power estimate with its contributions separated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerReport {
    /// Total average dynamic power in microwatts.
    pub total_uw: f64,
    /// Contribution of net (logic + wire) switching, µW.
    pub switching_uw: f64,
    /// Contribution of sequential-cell clock events, µW.
    pub clock_uw: f64,
    /// Cycles the estimate averaged over.
    pub cycles: u64,
}

impl PowerReport {
    /// Percentage change of `self` relative to `baseline`
    /// (`+` means more power).
    ///
    /// # Examples
    ///
    /// ```
    /// use sfr_power_model::PowerReport;
    ///
    /// let base = PowerReport { total_uw: 1000.0, ..Default::default() };
    /// let faulty = PowerReport { total_uw: 1050.0, ..Default::default() };
    /// assert!((faulty.percent_change_from(&base) - 5.0).abs() < 1e-9);
    /// ```
    pub fn percent_change_from(&self, baseline: &PowerReport) -> f64 {
        100.0 * (self.total_uw - baseline.total_uw) / baseline.total_uw
    }
}

/// Converts accumulated [`Activity`] on `nl` into average power.
///
/// Returns a zero report for zero-cycle activity rather than dividing by
/// zero.
pub fn power_from_activity(nl: &Netlist, act: &Activity, cfg: &PowerConfig) -> PowerReport {
    power_from_activity_where(nl, act, cfg, |_| true)
}

/// Like [`power_from_activity`], but restricted to the sub-circuit whose
/// driver gates satisfy `include`.
///
/// A net contributes when its driving gate is included (primary-input
/// nets, having no driver, are excluded — their energy belongs to the
/// environment); a sequential cell's clock energy contributes when the
/// cell is included. The paper reports "power consumed by the datapath",
/// i.e. the system minus the controller — pass a predicate over the
/// controller's gate range to reproduce that accounting.
pub fn power_from_activity_where(
    nl: &Netlist,
    act: &Activity,
    cfg: &PowerConfig,
    include: impl Fn(sfr_netlist::GateId) -> bool,
) -> PowerReport {
    if act.cycles == 0 {
        return PowerReport::default();
    }
    let mut switching_fj = 0.0;
    for net in nl.net_ids() {
        let toggles = act.net_toggles[net.index()];
        if toggles > 0 {
            if let Some(driver) = nl.driver(net) {
                if include(driver) {
                    switching_fj += toggles as f64 * cfg.swing_energy_fj(nl.net_cap_ff(net));
                }
            }
        }
    }
    let mut clock_fj = 0.0;
    for &g in nl.sequential_gates() {
        let events = act.clock_events[g.index()];
        if events > 0 && include(g) {
            clock_fj += events as f64 * cfg.swing_energy_fj(nl.gate(g).kind().clock_cap_ff());
        }
    }
    // P(µW) = E(fJ) · 1e-15 / (cycles / f) · 1e6 = E·f/cycles · 1e-9.
    let scale = cfg.freq_hz / act.cycles as f64 * 1e-9;
    let switching_uw = switching_fj * scale;
    let clock_uw = clock_fj * scale;
    PowerReport {
        total_uw: switching_uw + clock_uw,
        switching_uw,
        clock_uw,
        cycles: act.cycles,
    }
}

/// Converts a compiled-tape kernel's per-lane [`TapeActivity`] into one
/// [`PowerReport`] per lane, restricted to the sub-circuit whose driver
/// gates satisfy `include`.
///
/// Bit-identical to extracting each lane's [`Activity`] and calling
/// [`power_from_activity_where`] on it, but one pass over the tape's
/// sparse delta counters instead of `lanes` full extractions: per
/// column the energy coefficient is computed once and every lane's
/// accumulator receives its terms in the same order, with the same
/// multiplications, as the per-lane reference — excluded or quiet
/// columns contribute an exact `+0.0`, which leaves an IEEE-754 sum
/// unchanged.
pub fn power_from_tape_activity_where<W: TapeWord>(
    nl: &Netlist,
    act: &TapeActivity<W>,
    cfg: &PowerConfig,
    include: impl Fn(sfr_netlist::GateId) -> bool,
) -> Vec<PowerReport> {
    let lanes = act.lanes();
    if act.cycles() == 0 {
        return vec![PowerReport::default(); lanes];
    }
    let net_e: Vec<f64> = nl
        .net_ids()
        .map(|net| match nl.driver(net) {
            Some(driver) if include(driver) => cfg.swing_energy_fj(nl.net_cap_ff(net)),
            _ => 0.0,
        })
        .collect();
    // Clock coefficients indexed by gate; combinational gates keep 0.0
    // and report zero events, and `sequential_gates()` is ascending, so
    // the index-order stream below adds each lane's nonzero clock terms
    // in exactly the reference iteration order.
    let mut clk_e = vec![0.0f64; nl.gate_count()];
    for &g in nl.sequential_gates() {
        if include(g) {
            clk_e[g.index()] = cfg.swing_energy_fj(nl.gate(g).kind().clock_cap_ff());
        }
    }
    let mut switching_fj = vec![0.0f64; lanes];
    let mut clock_fj = vec![0.0f64; lanes];
    let accumulate = |acc: &mut [f64], e: f64, counts: LaneCounts<'_>| {
        if e == 0.0 {
            return; // every lane's term is an exact +0.0
        }
        match counts {
            LaneCounts::Uniform(c) => {
                if c != 0 {
                    let term = c as f64 * e;
                    for a in acc.iter_mut() {
                        *a += term;
                    }
                }
            }
            LaneCounts::PerLane(counts) => {
                for (a, &c) in acc.iter_mut().zip(counts) {
                    *a += c as f64 * e;
                }
            }
        }
    };
    act.for_each_net_count(|net, counts| accumulate(&mut switching_fj, net_e[net], counts));
    act.for_each_clock_count(|gate, counts| accumulate(&mut clock_fj, clk_e[gate], counts));
    let scale = cfg.freq_hz / act.cycles() as f64 * 1e-9;
    switching_fj
        .iter()
        .zip(&clock_fj)
        .map(|(&s, &c)| {
            let switching_uw = s * scale;
            let clock_uw = c * scale;
            PowerReport {
                total_uw: switching_uw + clock_uw,
                switching_uw,
                clock_uw,
                cycles: act.cycles(),
            }
        })
        .collect()
}

/// Converts activity recorded in separately simulated parts (e.g. one
/// [`Activity`] per stimulus segment) into one combined power estimate,
/// merging the parts with [`Activity::merge`].
///
/// Returns a zero report for an empty part list.
///
/// # Errors
///
/// Propagates [`ActivityMismatch`] when the parts were recorded on
/// differently-shaped netlists and therefore cannot be combined.
pub fn power_from_activity_parts<'a>(
    nl: &Netlist,
    parts: impl IntoIterator<Item = &'a Activity>,
    cfg: &PowerConfig,
    include: impl Fn(sfr_netlist::GateId) -> bool,
) -> Result<PowerReport, ActivityMismatch> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Ok(PowerReport::default());
    };
    let mut total = first.clone();
    for part in parts {
        total.merge(part)?;
    }
    Ok(power_from_activity_where(nl, &total, cfg, include))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_netlist::{CellKind, CycleSim, Logic, NetlistBuilder};

    fn toggler() -> sfr_netlist::Netlist {
        let mut b = NetlistBuilder::new("t");
        let d = b.input("d");
        let en = b.input("en");
        let q = b.net("q");
        b.gate(CellKind::Dffe, "r", &[d, en], q);
        let o = b.gate_net(CellKind::Inv, "i", &[q]);
        b.mark_output(o);
        b.finish().unwrap()
    }

    #[test]
    fn zero_cycles_zero_power() {
        let nl = toggler();
        let act = Activity::default();
        let p = power_from_activity(
            &nl,
            &Activity {
                net_toggles: vec![0; nl.net_count()],
                clock_events: vec![0; nl.gate_count()],
                cycles: 0,
            },
            &PowerConfig::default(),
        );
        assert_eq!(p.total_uw, 0.0);
        let _ = act;
    }

    #[test]
    fn extra_register_loads_increase_power() {
        let nl = toggler();
        let cfg = PowerConfig::default();
        // Scenario A: load once, then idle (gated clock quiet).
        let mut a = CycleSim::new(&nl);
        a.track_activity(true);
        a.reset_state(Logic::Zero);
        a.step(&[Logic::One, Logic::One]);
        for _ in 0..9 {
            a.step(&[Logic::One, Logic::Zero]);
        }
        let pa = power_from_activity(&nl, a.activity(), &cfg);
        // Scenario B: identical data, but the enable is stuck high — the
        // register reloads the same value every cycle.
        let mut bsim = CycleSim::new(&nl);
        bsim.track_activity(true);
        bsim.reset_state(Logic::Zero);
        for _ in 0..10 {
            bsim.step(&[Logic::One, Logic::One]);
        }
        let pb = power_from_activity(&nl, bsim.activity(), &cfg);
        assert!(
            pb.total_uw > pa.total_uw,
            "extra loads must cost clock energy: {pa:?} vs {pb:?}"
        );
        assert!(pb.clock_uw > pa.clock_uw);
    }

    #[test]
    fn power_scales_with_frequency() {
        let nl = toggler();
        let mut sim = CycleSim::new(&nl);
        sim.track_activity(true);
        sim.reset_state(Logic::Zero);
        for i in 0..20 {
            sim.step(&[Logic::from_bool(i % 2 == 0), Logic::One]);
        }
        let slow = power_from_activity(
            &nl,
            sim.activity(),
            &PowerConfig {
                freq_hz: 10e6,
                ..Default::default()
            },
        );
        let fast = power_from_activity(
            &nl,
            sim.activity(),
            &PowerConfig {
                freq_hz: 20e6,
                ..Default::default()
            },
        );
        assert!((fast.total_uw / slow.total_uw - 2.0).abs() < 1e-9);
    }

    #[test]
    fn percent_change() {
        let a = PowerReport {
            total_uw: 200.0,
            ..Default::default()
        };
        let b = PowerReport {
            total_uw: 150.0,
            ..Default::default()
        };
        assert!((b.percent_change_from(&a) + 25.0).abs() < 1e-9);
    }

    #[test]
    fn tape_lane_power_matches_scalar_power() {
        use sfr_netlist::{StuckAt, TapeProgram, TapeSim};
        let nl = toggler();
        let cfg = PowerConfig::default();
        let faults = StuckAt::enumerate_collapsed(&nl);
        let prog = TapeProgram::<u64>::compile(&nl, &faults).unwrap();
        let mut tape = TapeSim::new(&prog);
        tape.track_activity(true);
        tape.reset_state(Logic::Zero);
        let stim = [
            [Logic::One, Logic::One],
            [Logic::Zero, Logic::Zero],
            [Logic::One, Logic::Zero],
            [Logic::X, Logic::One],
            [Logic::Zero, Logic::One],
        ];
        let mut scalars: Vec<CycleSim> = std::iter::once(CycleSim::new(&nl))
            .chain(faults.iter().map(|&f| CycleSim::with_fault(&nl, f)))
            .map(|mut s| {
                s.track_activity(true);
                s.reset_state(Logic::Zero);
                s
            })
            .collect();
        for inputs in stim {
            tape.set_inputs(&inputs);
            tape.eval();
            tape.clock();
            for s in scalars.iter_mut() {
                s.step(&inputs);
            }
        }
        let reports =
            power_from_tape_activity_where(&nl, tape.activity().expect("tracking"), &cfg, |_| true);
        assert_eq!(reports.len(), faults.len() + 1);
        for (lane, s) in scalars.iter().enumerate() {
            let want = power_from_activity(&nl, s.activity(), &cfg);
            assert_eq!(reports[lane], want, "lane {lane}");
        }
    }

    #[test]
    fn activity_parts_power_equals_whole() {
        let nl = toggler();
        let cfg = PowerConfig::default();
        let run = |stim: &[[Logic; 2]]| {
            let mut s = CycleSim::new(&nl);
            s.track_activity(true);
            s.reset_state(Logic::Zero);
            for inputs in stim {
                s.step(inputs);
            }
            s.take_activity()
        };
        let a = run(&[[Logic::One, Logic::One], [Logic::Zero, Logic::One]]);
        let b = run(&[[Logic::One, Logic::Zero], [Logic::One, Logic::One]]);
        let combined =
            power_from_activity_parts(&nl, [&a, &b], &cfg, |_| true).expect("same netlist");
        let mut whole = a.clone();
        whole.merge(&b).unwrap();
        assert_eq!(combined, power_from_activity(&nl, &whole, &cfg));
        // Empty part list: zero power, no error.
        let empty = power_from_activity_parts(&nl, [], &cfg, |_| true).unwrap();
        assert_eq!(empty.total_uw, 0.0);
    }

    #[test]
    fn activity_parts_reject_shape_mismatch() {
        let nl = toggler();
        let cfg = PowerConfig::default();
        let mut s = CycleSim::new(&nl);
        s.track_activity(true);
        s.reset_state(Logic::Zero);
        s.step(&[Logic::One, Logic::One]);
        let a = s.take_activity();
        let mut b2 = NetlistBuilder::new("tiny");
        let d = b2.input("d");
        let o = b2.gate_net(CellKind::Inv, "i", &[d]);
        b2.mark_output(o);
        let other = b2.finish().unwrap();
        let mut s2 = CycleSim::new(&other);
        s2.track_activity(true);
        s2.step(&[Logic::One]);
        let b = s2.take_activity();
        let err = power_from_activity_parts(&nl, [&a, &b], &cfg, |_| true).unwrap_err();
        assert!(err.to_string().contains("cannot merge"));
    }

    #[test]
    fn swing_energy_quadratic_in_vdd() {
        let c5 = PowerConfig {
            vdd: 5.0,
            freq_hz: 1.0,
        };
        let c25 = PowerConfig {
            vdd: 2.5,
            freq_hz: 1.0,
        };
        assert!((c5.swing_energy_fj(10.0) / c25.swing_energy_fj(10.0) - 4.0).abs() < 1e-9);
    }
}

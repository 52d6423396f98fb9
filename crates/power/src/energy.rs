//! Energy bookkeeping: turning switching activity into dynamic power.
//!
//! Classic toggle-count estimation: `P = ½ · Vdd² · Σᵢ Cᵢ · αᵢ · f`, where
//! the sum runs over nets (switched load capacitance per `0↔1` toggle) and
//! over sequential cells (internal clock capacitance per clock event).
//! The clock term is what makes the paper's register-load faults
//! *guaranteed* power increases: an extra load un-gates a register's clock
//! for a cycle, spending clock energy even when the data does not change.
//!
//! Every capacitance of the cell library and of the wire-load model is a
//! whole number of femtofarads, so the sums are kept as exact integers —
//! Σ C·toggles and Σ C·clock events, in fF — and converted to power once,
//! × ½·Vdd² × f / cycles. The scalar path
//! ([`power_from_activity_where`]) and the compiled tape
//! ([`power_from_tape_energy`]) use the same [`EnergyWeights`] and the
//! same conversion, so they agree bit for bit at any [`PowerConfig`].

use sfr_netlist::{Activity, GateId, Netlist, TapeEnergy};

/// Integer sums up to here convert to `f64` exactly.
const EXACT_SUM: u64 = 1 << 53;

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

    /// The report of exact integer energy sums over `cycles` cycles:
    /// each sum × ½·Vdd² × f / cycles. Zero cycles give a zero report.
    ///
    /// # Panics
    ///
    /// Panics if a sum reaches 2^53, past which `f64` cannot hold it
    /// exactly.
    fn from_sums(switching_ff: u64, clock_ff: u64, cycles: u64, cfg: &PowerConfig) -> Self {
        if cycles == 0 {
            return PowerReport::default();
        }
        assert!(
            switching_ff < EXACT_SUM && clock_ff < EXACT_SUM,
            "energy sums of {switching_ff} / {clock_ff} fF reach 2^53 and would round"
        );
        // P(µW) = E(fJ) · 1e-15 / (cycles / f) · 1e6 = E·f/cycles · 1e-9.
        let fj_per_ff = cfg.swing_energy_fj(1.0);
        let scale = cfg.freq_hz / cycles as f64 * 1e-9;
        let switching_uw = switching_ff as f64 * fj_per_ff * scale;
        let clock_uw = clock_ff as f64 * fj_per_ff * scale;
        PowerReport {
            total_uw: switching_uw + clock_uw,
            switching_uw,
            clock_uw,
            cycles,
        }
    }
}

/// Whole-femtofarad energy weights of a netlist: the capacitance one
/// toggle of each net switches and the internal capacitance one clock
/// event of each sequential cell switches, 0 wherever the energy is not
/// counted. The one table both the scalar path and the tape sum over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnergyWeights {
    /// fF per toggle, indexed by [`sfr_netlist::NetId::index`].
    pub net_ff: Vec<u64>,
    /// fF per clock event, indexed by [`GateId::index`] (0 for
    /// combinational gates).
    pub clock_ff: Vec<u64>,
}

impl EnergyWeights {
    /// The weights of the sub-circuit whose gates satisfy `include`.
    ///
    /// A net counts when its driving gate is included (primary-input
    /// nets, having no driver, never count — their energy belongs to the
    /// environment); a sequential cell's clock counts when the cell is
    /// included. The paper reports "power consumed by the datapath",
    /// i.e. the system minus the controller — pass a predicate over the
    /// controller's gate range to reproduce that accounting.
    ///
    /// # Panics
    ///
    /// Panics if a counted capacitance is not a whole number of
    /// femtofarads below 2^53: integer sums would then round.
    pub fn new(nl: &Netlist, include: impl Fn(GateId) -> bool) -> Self {
        let whole_ff = |c: f64| {
            assert!(
                c >= 0.0 && c.fract() == 0.0 && c < EXACT_SUM as f64,
                "a capacitance of {c} fF is not a whole number of femtofarads"
            );
            c as u64
        };
        let net_ff = nl
            .net_ids()
            .map(|net| match nl.driver(net) {
                Some(driver) if include(driver) => whole_ff(nl.net_cap_ff(net)),
                _ => 0,
            })
            .collect();
        let mut clock_ff = vec![0; nl.gate_count()];
        for &g in nl.sequential_gates() {
            if include(g) {
                clock_ff[g.index()] = whole_ff(nl.gate(g).kind().clock_cap_ff());
            }
        }
        EnergyWeights { net_ff, clock_ff }
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
/// gates satisfy `include` (see [`EnergyWeights::new`]): Σ C·toggles and
/// Σ C·clock events over its [`EnergyWeights`], as integers, then one
/// conversion to power.
///
/// # Panics
///
/// Panics if a sum reaches 2^53 fF.
pub fn power_from_activity_where(
    nl: &Netlist,
    act: &Activity,
    cfg: &PowerConfig,
    include: impl Fn(GateId) -> bool,
) -> PowerReport {
    let w = EnergyWeights::new(nl, include);
    // Saturating, so an overflow trips the 2^53 check instead of wrapping.
    let sum = |counts: &[u64], weights: &[u64]| {
        counts
            .iter()
            .zip(weights)
            .fold(0u64, |s, (&n, &c)| s.saturating_add(n.saturating_mul(c)))
    };
    PowerReport::from_sums(
        sum(&act.net_toggles, &w.net_ff),
        sum(&act.clock_events, &w.clock_ff),
        act.cycles,
        cfg,
    )
}

/// One [`PowerReport`] per lane of a two-valued tape's [`TapeEnergy`]:
/// each lane's exact integer sums through the same conversion as
/// [`power_from_activity_where`], so a lane's report is bit-identical to
/// the scalar report of that lane's circuit under the same weights.
///
/// # Panics
///
/// Panics if a lane's sum reaches 2^53 fF.
pub fn power_from_tape_energy(energy: &TapeEnergy, cfg: &PowerConfig) -> Vec<PowerReport> {
    (0..energy.lanes())
        .map(|lane| {
            PowerReport::from_sums(
                energy.switching_ff(lane),
                energy.clock_ff(lane),
                energy.cycles(),
                cfg,
            )
        })
        .collect()
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

    /// A random sequential netlist: three inputs, eight random gates, a
    /// plain and an enabled register fed from random nets.
    fn random_seq(seed: u64) -> sfr_netlist::Netlist {
        let mut next = xorshift(seed);
        let mut b = NetlistBuilder::new("randseq");
        let mut nets: Vec<_> = (0..3).map(|i| b.input(format!("i{i}"))).collect();
        let (q1, q2) = (b.net("q1"), b.net("q2"));
        nets.extend([q1, q2]);
        let kinds = [
            CellKind::And2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::Inv,
            CellKind::Mux2,
        ];
        for g in 0..8 {
            let kind = kinds[(next() % kinds.len() as u64) as usize];
            let ins: Vec<_> = (0..kind.arity())
                .map(|_| nets[(next() % nets.len() as u64) as usize])
                .collect();
            let out = b.gate_net(kind, format!("g{g}"), &ins);
            nets.push(out);
        }
        let mut pick = || nets[(next() % nets.len() as u64) as usize];
        let (d1, en, d2) = (pick(), pick(), pick());
        b.gate(CellKind::Dffe, "r1", &[d1, en], q1);
        b.gate(CellKind::Dff, "r2", &[d2], q2);
        b.mark_output(q1);
        b.mark_output(q2);
        b.finish().unwrap()
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// One pass of `stim` over the fault-free circuit and every
    /// collapsed fault of `nl`: a scalar simulator per lane and a
    /// two-valued tape summing `weights`.
    fn run_lanes<'n>(
        nl: &'n sfr_netlist::Netlist,
        weights: &EnergyWeights,
        stim: &[Vec<Logic>],
    ) -> (Vec<CycleSim<'n>>, TapeEnergy) {
        use sfr_netlist::{StuckAt, TapeProgram, TapeSim};
        let faults = StuckAt::enumerate_collapsed(nl);
        let prog = TapeProgram::<u64>::compile(nl, &faults).unwrap();
        let mut tape = TapeSim::new(&prog);
        let mut energy = TapeEnergy::new(&prog, &weights.net_ff, &weights.clock_ff);
        tape.reset_state(Logic::Zero);
        let mut scalars: Vec<CycleSim> = std::iter::once(CycleSim::new(nl))
            .chain(faults.iter().map(|&f| CycleSim::with_fault(nl, f)))
            .map(|mut s| {
                s.track_activity(true);
                s.reset_state(Logic::Zero);
                s
            })
            .collect();
        for inputs in stim {
            tape.set_inputs(inputs);
            tape.eval();
            tape.clock_counting(&mut energy);
            for s in scalars.iter_mut() {
                s.step(inputs);
            }
        }
        (scalars, energy)
    }

    /// Random binary stimulus for `nl`'s inputs.
    fn random_stim(nl: &sfr_netlist::Netlist, len: usize, seed: u64) -> Vec<Vec<Logic>> {
        let mut next = xorshift(seed);
        (0..len)
            .map(|_| {
                let bits = next();
                (0..nl.inputs().len())
                    .map(|i| Logic::from_bool(bits >> i & 1 == 1))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tape_lane_energy_matches_scalar_activity() {
        let nl = toggler();
        let stim = random_stim(&nl, 12, 5);
        let (nets, gates) = (nl.net_count(), nl.gate_count());
        let mut next = xorshift(9);
        let one_hot =
            |len: usize, at: usize| -> Vec<u64> { (0..len).map(|i| u64::from(i == at)).collect() };
        // The library's weights, random whole weights, then a one-hot
        // weight on each net and on each flip-flop.
        let weightings = [
            EnergyWeights::new(&nl, |_| true),
            EnergyWeights {
                net_ff: (0..nets).map(|_| next() % 100).collect(),
                clock_ff: (0..gates).map(|_| next() % 100).collect(),
            },
        ]
        .into_iter()
        .chain((0..nets).map(|n| EnergyWeights {
            net_ff: one_hot(nets, n),
            clock_ff: vec![0; gates],
        }))
        .chain(nl.sequential_gates().iter().map(|g| EnergyWeights {
            net_ff: vec![0; nets],
            clock_ff: one_hot(gates, g.index()),
        }));
        for w in weightings {
            let (scalars, energy) = run_lanes(&nl, &w, &stim);
            for (lane, s) in scalars.iter().enumerate() {
                let a = s.activity();
                let switching: u64 = a
                    .net_toggles
                    .iter()
                    .zip(&w.net_ff)
                    .map(|(t, c)| t * c)
                    .sum();
                let clock: u64 = a
                    .clock_events
                    .iter()
                    .zip(&w.clock_ff)
                    .map(|(e, c)| e * c)
                    .sum();
                assert_eq!(energy.cycles(), a.cycles, "lane {lane}");
                assert_eq!(energy.switching_ff(lane), switching, "{w:?} lane {lane}");
                assert_eq!(energy.clock_ff(lane), clock, "{w:?} lane {lane}");
            }
        }
    }

    #[test]
    fn tape_and_scalar_power_agree_at_any_operating_point() {
        let low = PowerConfig {
            vdd: 3.3,
            freq_hz: 33.0e6,
        };
        for (nl, seed) in [(toggler(), 3), (random_seq(0x5EED), 4), (random_seq(77), 5)] {
            let stim = random_stim(&nl, 40, seed);
            // Everything, and everything but the first sequential cell
            // and its output net.
            let skip = nl.sequential_gates()[0];
            let includes: [&dyn Fn(GateId) -> bool; 2] = [&|_| true, &|g| g != skip];
            for include in includes {
                let w = EnergyWeights::new(&nl, include);
                let (scalars, energy) = run_lanes(&nl, &w, &stim);
                for cfg in [PowerConfig::default(), low] {
                    let reports = power_from_tape_energy(&energy, &cfg);
                    assert_eq!(reports.len(), scalars.len());
                    for (lane, s) in scalars.iter().enumerate() {
                        let want = power_from_activity_where(&nl, s.activity(), &cfg, include);
                        assert_eq!(reports[lane], want, "{} lane {lane} at {cfg:?}", nl.name());
                    }
                }
            }
        }
    }

    #[test]
    fn integer_sums_equal_the_per_term_fold_at_five_volts() {
        // At 5 V each term ½·C·25·n is a multiple of 0.5 far below 2^53,
        // so a float fold term by term is exact and must match.
        let nl = random_seq(0xFEED);
        let stim = random_stim(&nl, 200, 6);
        let (scalars, _) = run_lanes(&nl, &EnergyWeights::new(&nl, |_| true), &stim);
        let cfg = PowerConfig::default();
        for s in &scalars {
            let a = s.activity();
            let switching_fj: f64 = nl
                .net_ids()
                .filter(|&n| nl.driver(n).is_some())
                .map(|n| a.net_toggles[n.index()] as f64 * cfg.swing_energy_fj(nl.net_cap_ff(n)))
                .sum();
            let clock_fj: f64 = nl
                .sequential_gates()
                .iter()
                .map(|&g| {
                    a.clock_events[g.index()] as f64
                        * cfg.swing_energy_fj(nl.gate(g).kind().clock_cap_ff())
                })
                .sum();
            let scale = cfg.freq_hz / a.cycles as f64 * 1e-9;
            let p = power_from_activity(&nl, a, &cfg);
            assert_eq!(p.switching_uw, switching_fj * scale);
            assert_eq!(p.clock_uw, clock_fj * scale);
        }
    }

    #[test]
    #[should_panic(expected = "reach 2^53")]
    fn sums_past_exact_f64_are_refused() {
        let _ = PowerReport::from_sums(1 << 53, 0, 1, &PowerConfig::default());
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

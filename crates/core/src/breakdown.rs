//! Per-component power attribution.
//!
//! Table 1's power deltas answer *how much* an SFR fault costs; a test
//! engineer also wants to know *where* the energy goes (is the fault's
//! signature concentrated in one register bank, or smeared across the
//! ALU cloud?). This module splits a measured [`Activity`] over the
//! system's architectural components: the controller, each register,
//! and the combinational datapath remainder.

use sfr_classify::measure_activity_with_testset;
use sfr_faultsim::{RunConfig, System};
use sfr_netlist::{Activity, GateId, StuckAt};
use sfr_power_model::{power_from_activity_where, PowerConfig};
use sfr_tpg::TestSet;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One component's share of the measured power.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentPower {
    /// Component label (`controller`, a register name, or
    /// `datapath logic`).
    pub name: String,
    /// Average power, µW.
    pub power_uw: f64,
}

/// A per-component power report.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBreakdown {
    /// Components, largest consumer first.
    pub components: Vec<ComponentPower>,
    /// Total power, µW (sum of the components).
    pub total_uw: f64,
}

impl PowerBreakdown {
    /// Splits an activity record over the system's components.
    pub fn from_activity(sys: &System, act: &Activity, cfg: &PowerConfig) -> PowerBreakdown {
        // Label every gate: controller, register index, or None (datapath
        // combinational logic + interface buffers).
        let mut reg_of_gate: HashMap<GateId, usize> = HashMap::new();
        for (r, gates) in sys.elab.reg_gates.iter().enumerate() {
            for &g in gates {
                reg_of_gate.insert(g, r);
            }
        }
        let mut components = Vec::new();
        let ctl = power_from_activity_where(&sys.netlist, act, cfg, |g| sys.is_controller_gate(g));
        components.push(ComponentPower {
            name: "controller".to_string(),
            power_uw: ctl.total_uw,
        });
        for (r, name) in sys.meta.reg_names.iter().enumerate() {
            let p = power_from_activity_where(&sys.netlist, act, cfg, |g| {
                reg_of_gate.get(&g) == Some(&r)
            });
            components.push(ComponentPower {
                name: name.clone(),
                power_uw: p.total_uw,
            });
        }
        let rest = power_from_activity_where(&sys.netlist, act, cfg, |g| {
            !sys.is_controller_gate(g) && !reg_of_gate.contains_key(&g)
        });
        components.push(ComponentPower {
            name: "datapath logic".to_string(),
            power_uw: rest.total_uw,
        });
        let total_uw = components.iter().map(|c| c.power_uw).sum();
        components.sort_by(|a, b| b.power_uw.total_cmp(&a.power_uw));
        PowerBreakdown {
            components,
            total_uw,
        }
    }

    /// Renders as an aligned table with percentage shares.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<16} {:>10} {:>7}", "component", "uW", "share");
        for c in &self.components {
            let _ = writeln!(
                out,
                "{:<16} {:>10.3} {:>6.1}%",
                c.name,
                c.power_uw,
                100.0 * c.power_uw / self.total_uw
            );
        }
        let _ = writeln!(out, "{:<16} {:>10.3}", "total", self.total_uw);
        out
    }

    /// The component with the largest power difference against a
    /// baseline breakdown — where a fault's signature concentrates.
    pub fn largest_delta<'a>(&'a self, baseline: &PowerBreakdown) -> (&'a str, f64) {
        let base: HashMap<&str, f64> = baseline
            .components
            .iter()
            .map(|c| (c.name.as_str(), c.power_uw))
            .collect();
        self.components
            .iter()
            .map(|c| {
                let b = base.get(c.name.as_str()).copied().unwrap_or(0.0);
                (c.name.as_str(), c.power_uw - b)
            })
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap_or(("", 0.0))
    }
}

/// Measures the per-component breakdown of an (optionally faulty) system
/// over one test set. Runs end where the fault-free controller's do
/// (see [`measure_activity_with_testset`]), so the datapath components
/// sum to [`sfr_classify::measure_power_with_testset`]'s total.
pub fn measure_breakdown(
    sys: &System,
    fault: Option<StuckAt>,
    ts: &TestSet,
    run: &RunConfig,
    cfg: &PowerConfig,
) -> PowerBreakdown {
    let act = measure_activity_with_testset(sys, fault, ts, run);
    PowerBreakdown::from_activity(sys, &act, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_faultsim::SystemConfig;

    fn system() -> System {
        System::build(
            &sfr_benchmarks::facet(4).expect("builds"),
            SystemConfig::default(),
        )
        .expect("system builds")
    }

    fn run_cfg() -> RunConfig {
        RunConfig {
            max_cycles_per_run: 64,
            hold_cycles: 2,
            cycle_budget: 0,
        }
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let sys = system();
        let ts = TestSet::pseudorandom(sys.pattern_width(), 200, 0xACE1).unwrap();
        let b = measure_breakdown(&sys, None, &ts, &run_cfg(), &PowerConfig::default());
        let sum: f64 = b.components.iter().map(|c| c.power_uw).sum();
        assert!((sum - b.total_uw).abs() < 1e-9);
        // controller + 12 registers + datapath logic.
        assert_eq!(b.components.len(), 1 + 12 + 1);
        assert!(b.total_uw > 0.0);
        // Sorted descending.
        for w in b.components.windows(2) {
            assert!(w[0].power_uw >= w[1].power_uw);
        }
    }

    #[test]
    fn fault_signature_localizes_to_the_forced_registers() {
        let sys = system();
        let ts = TestSet::pseudorandom(sys.pattern_width(), 400, 0xACE1).unwrap();
        let base = measure_breakdown(&sys, None, &ts, &run_cfg(), &PowerConfig::default());
        // Stick the shared input-bank load line high: REG1..REG4 reload
        // every cycle.
        let ld = sys.datapath.find_ctrl("LD_REG1_REG2_REG3_REG4").unwrap();
        let net = sys.ctrl.output_nets[ld.0];
        let gate = sys.netlist.driver(net).unwrap();
        let faulty = measure_breakdown(
            &sys,
            Some(StuckAt::output(gate, true)),
            &ts,
            &run_cfg(),
            &PowerConfig::default(),
        );
        let (_, delta) = faulty.largest_delta(&base);
        assert!(delta > 0.0);
        // Every register of the forced bank burns more; untouched
        // registers stay where they were. (The single largest delta can
        // legitimately be the aggregated downstream logic — the reloaded
        // data toggles the whole cloud — so assert per-register.)
        let power_of = |b: &PowerBreakdown, n: &str| {
            b.components
                .iter()
                .find(|c| c.name == n)
                .map(|c| c.power_uw)
                .unwrap()
        };
        for r in ["REG1", "REG2", "REG3", "REG4"] {
            assert!(
                power_of(&faulty, r) > power_of(&base, r),
                "{r} must burn more under the stuck load line"
            );
        }
        // A register outside the bank barely moves.
        let quiet = (power_of(&faulty, "REG9") - power_of(&base, "REG9")).abs();
        let bank = power_of(&faulty, "REG1") - power_of(&base, "REG1");
        assert!(quiet < bank, "signature concentrates in the forced bank");
    }

    #[test]
    fn datapath_components_sum_to_the_measured_power_of_every_sfr_fault() {
        let cfg = sfr_classify::GradeConfig::default();
        for (name, emitted) in sfr_benchmarks::extended_benchmarks(4).expect("builds") {
            let sys = System::build(&emitted, SystemConfig::default()).expect("system builds");
            let classes = sfr_classify::classify_system(&sys, &Default::default());
            let ts = TestSet::pseudorandom(sys.pattern_width(), 240, 0xACE1).unwrap();
            for f in classes.sfr() {
                let b = measure_breakdown(&sys, Some(f.fault), &ts, &cfg.run, &cfg.power);
                let datapath: f64 = b
                    .components
                    .iter()
                    .filter(|c| c.name != "controller")
                    .map(|c| c.power_uw)
                    .sum();
                let measured =
                    sfr_classify::measure_power_with_testset(&sys, Some(f.fault), &ts, &cfg);
                assert!(
                    (datapath - measured.total_uw).abs() <= 1e-9 * measured.total_uw,
                    "{name} {}: breakdown {datapath} vs measured {}",
                    f.fault,
                    measured.total_uw
                );
            }
        }
    }

    #[test]
    fn render_lists_every_component() {
        let sys = system();
        let ts = TestSet::pseudorandom(sys.pattern_width(), 100, 7).unwrap();
        let b = measure_breakdown(&sys, None, &ts, &run_cfg(), &PowerConfig::default());
        let text = b.render();
        assert!(text.contains("controller"));
        assert!(text.contains("datapath logic"));
        assert!(text.contains("REG7"));
        assert!(text.contains("total"));
    }
}

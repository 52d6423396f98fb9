//! The design-lint rule suite.
//!
//! | rule id                   | severity | fires on |
//! |---------------------------|----------|----------|
//! | `unreachable-state`       | error    | FSM states no transition path from reset reaches |
//! | `dead-transition`         | warning  | transitions shadowed by earlier guards |
//! | `constant-net`            | warning  | controller nets stuck at one value over every reachable evaluation |
//! | `dead-gate`               | warning  | gates whose output feeds nothing |
//! | `never-selected-mux-input`| info     | mux legs no schedule step routes (§3.1 don't-care coverage) |
//! | `lifespan-overlap`        | error    | two variables sharing a register with overlapping lifespans |

use crate::constprop::controller_net_constants;
use crate::diag::{Diagnostic, LintReport, Severity};
use sfr_faultsim::System;
use sfr_fsm::FsmSpec;
use sfr_hls::{spans_conflict, DesignMeta};
use sfr_netlist::{CellKind, Netlist};
use std::collections::BTreeSet;

/// Lints a controller specification: reachability and transition
/// liveness.
pub fn lint_fsm(spec: &FsmSpec) -> LintReport {
    let mut r = LintReport::new();
    let reachable = spec.reachable_states();
    for s in spec.states() {
        if !reachable[s.0] {
            r.push(Diagnostic {
                rule: "unreachable-state",
                severity: Severity::Error,
                subject: spec.state_name(s).to_string(),
                message: format!(
                    "state `{}` is not reachable from reset state `{}`",
                    spec.state_name(s),
                    spec.state_name(sfr_fsm::StateId(0))
                ),
            });
        }
        for (i, live) in spec.transition_liveness(s).iter().enumerate() {
            if !live {
                let t = &spec.transitions(s)[i];
                r.push(Diagnostic {
                    rule: "dead-transition",
                    severity: Severity::Warning,
                    subject: format!("{}#{i}", spec.state_name(s)),
                    message: format!(
                        "transition {i} of state `{}` (to `{}`) can never fire: \
                         every matching status is claimed by an earlier guard",
                        spec.state_name(s),
                        spec.state_name(t.to)
                    ),
                });
            }
        }
    }
    r
}

/// Lints a bare gate-level netlist: gates driving nothing.
pub fn lint_netlist(nl: &Netlist) -> LintReport {
    let mut r = LintReport::new();
    for g in nl.gate_ids() {
        let gate = nl.gate(g);
        let out = gate.output();
        if nl.fanout(out).is_empty() && !nl.outputs().contains(&out) {
            r.push(Diagnostic {
                rule: "dead-gate",
                severity: Severity::Warning,
                subject: gate.name().to_string(),
                message: format!(
                    "gate `{}` drives net `{}`, which nothing reads",
                    gate.name(),
                    nl.net(out).name()
                ),
            });
        }
    }
    r
}

/// Lints the HLS schedule metadata: register lifespan overlaps and
/// never-selected mux legs.
pub fn lint_schedule(meta: &DesignMeta, muxes: &[sfr_rtl::Mux]) -> LintReport {
    let mut r = LintReport::new();
    for (reg, spans) in meta.spans.iter().enumerate() {
        for (i, a) in spans.iter().enumerate() {
            for b in spans.iter().skip(i + 1) {
                if spans_conflict(a, b, meta.n_steps) {
                    r.push(Diagnostic {
                        rule: "lifespan-overlap",
                        severity: Severity::Error,
                        subject: meta.reg_names[reg].clone(),
                        message: format!(
                            "variables `{}` (written CS{}) and `{}` (written CS{}) \
                             share register `{}` with overlapping lifespans",
                            a.var, a.write, b.var, b.write, meta.reg_names[reg]
                        ),
                    });
                }
            }
        }
    }
    for (m, mux) in muxes.iter().enumerate() {
        let routed: BTreeSet<usize> = meta
            .required_select
            .iter()
            .filter(|&(&(mm, _), _)| mm == m)
            .map(|(_, &leg)| leg)
            .collect();
        for leg in 0..mux.inputs().len() {
            if !routed.contains(&leg) {
                r.push(Diagnostic {
                    rule: "never-selected-mux-input",
                    severity: Severity::Info,
                    subject: format!("{}.in{leg}", mux.name()),
                    message: format!(
                        "input {leg} of mux `{}` is never routed by the schedule: \
                         its select code is a don't care (§3.1 slack)",
                        mux.name()
                    ),
                });
            }
        }
    }
    r
}

/// Runs the full suite over an assembled system: FSM rules, schedule
/// rules, and controller-netlist rules (constant nets over the
/// reachable evaluation domain, dead gates).
pub fn lint_system(sys: &System) -> LintReport {
    let mut r = lint_fsm(sys.fsm.spec());
    r.extend(lint_schedule(&sys.meta, sys.datapath.muxes()));
    r.extend(lint_netlist(&sys.ctrl_netlist));

    let constants = controller_net_constants(sys);
    let nl = &sys.ctrl_netlist;
    for net in nl.net_ids() {
        if nl.inputs().contains(&net) {
            continue; // status inputs are the domain, not subjects
        }
        // Constant cells are constant on purpose.
        if let Some(g) = nl.driver(net) {
            if matches!(nl.gate(g).kind(), CellKind::Const0 | CellKind::Const1) {
                continue;
            }
        }
        if let Some(v) = constants.constant_reachable(net) {
            r.push(Diagnostic {
                rule: "constant-net",
                severity: Severity::Warning,
                subject: nl.net(net).name().to_string(),
                message: format!(
                    "net `{}` holds {} in every reachable controller evaluation",
                    nl.net(net).name(),
                    u8::from(v)
                ),
            });
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_faultsim::fixtures::toy_system;
    use sfr_fsm::{FsmSpecBuilder, Tri};
    use sfr_netlist::NetlistBuilder;

    #[test]
    fn toy_system_is_error_clean() {
        // The emitted schedules and minimized controllers are valid by
        // construction: no error-severity findings.
        let r = lint_system(&toy_system());
        assert!(r.is_error_free(), "unexpected errors:\n{r}");
    }

    #[test]
    fn unreachable_state_is_an_error() {
        let mut b = FsmSpecBuilder::new("u", 0, vec!["LD".into()]);
        let s0 = b.state("A", vec![Tri::Zero]);
        let s1 = b.state("ORPHAN", vec![Tri::One]);
        b.transition(s0, &[], s0);
        b.transition(s1, &[], s0);
        let spec = b.finish().expect("valid spec");
        let r = lint_fsm(&spec);
        assert_eq!(r.error_count(), 1);
        let d = &r.diagnostics[0];
        assert_eq!(d.rule, "unreachable-state");
        assert!(d.message.contains("ORPHAN"), "{}", d.message);
    }

    #[test]
    fn shadowed_transition_is_a_warning() {
        let mut b = FsmSpecBuilder::new("s", 1, vec![]);
        let s0 = b.state("A", vec![]);
        b.transition(s0, &[], s0);
        b.transition(s0, &[(0, true)], s0); // shadowed
        let spec = b.finish().expect("valid spec");
        let r = lint_fsm(&spec);
        assert!(r.is_error_free());
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.diagnostics[0].rule, "dead-transition");
    }

    #[test]
    fn dead_gate_found() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        b.gate_net(CellKind::Inv, "dead", &[a]);
        let o = b.gate_net(CellKind::Buf, "live", &[a]);
        b.mark_output(o);
        let r = lint_netlist(&b.finish().expect("valid netlist"));
        assert!(r.is_error_free());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == "dead-gate")
            .expect("dead gate reported");
        assert_eq!(d.subject, "dead");
        assert_eq!(r.diagnostics.len(), 1, "{r}");
    }

    #[test]
    fn never_selected_mux_inputs_surface_as_info() {
        // The toy system's muxes are padded to power-of-two legs; the
        // padding legs are exactly the §3.1 don't-care select codes.
        let sys = toy_system();
        let r = lint_schedule(&sys.meta, sys.datapath.muxes());
        assert!(r.is_error_free());
        for d in &r.diagnostics {
            assert!(matches!(
                d.rule,
                "never-selected-mux-input" | "lifespan-overlap"
            ));
        }
    }
}

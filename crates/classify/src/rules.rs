//! The paper's Section 3 structural rules over control line effects.
//!
//! Given the control line effects of a fault and the schedule metadata
//! (mux activity, register load steps, variable lifespans), these rules
//! decide SFI/SFR for the structurally clear cases and defer the
//! data-dependent ones:
//!
//! * select-line change while the mux is **active** → SFI (§3.1);
//! * select-line change while **inactive** (a don't-care) → SFR effect;
//! * **skipped** register load → SFI (§3.2, "irretrievably disrupted");
//! * **extra** load while the register is idle → SFR effect;
//! * extra load inside a lifespan → *potentially disruptive*: whether the
//!   read sees garbage or a rewritten-unchanged/overwritten value needs
//!   the data trace (§3.2's read-time analysis) — deferred to the
//!   symbolic [oracle](crate::judge).
//!
//! The composite verdict over a fault's effects: any SFI effect makes the
//! fault SFI; all-SFR effects make it SFR; otherwise it is undecided at
//! this level. The `pipeline` cross-checks every decided verdict against
//! the oracle.

use crate::table::ControlLineEffect;
use sfr_faultsim::System;
use sfr_rtl::{CtrlId, CtrlKind};

/// The rule engine's judgement of one control line effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectClass {
    /// Changes a cared-for select of an active mux: irredundant.
    SfiActiveSelect,
    /// Skips a required register load: irredundant.
    SfiSkippedLoad,
    /// Don't-care select flip (inactive mux): redundant.
    SfrInactiveSelect,
    /// Extra load while every variable of the register is outside its
    /// lifespan: redundant.
    SfrIdleExtraLoad,
    /// Extra load inside some lifespan: needs the data trace (Fig. 5's
    /// LDf2/LDf3/LDf4 cases).
    PotentiallyDisruptiveLoad,
}

impl EffectClass {
    /// Whether the effect is decided irredundant by structure alone.
    pub fn is_sfi(self) -> bool {
        matches!(
            self,
            EffectClass::SfiActiveSelect | EffectClass::SfiSkippedLoad
        )
    }

    /// Whether the effect is decided redundant by structure alone.
    pub fn is_sfr(self) -> bool {
        matches!(
            self,
            EffectClass::SfrInactiveSelect | EffectClass::SfrIdleExtraLoad
        )
    }
}

/// The rule engine's composite verdict for a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleVerdict {
    /// At least one structurally-SFI effect.
    Sfi,
    /// Every effect structurally SFR.
    Sfr,
    /// Some effects need data-trace analysis and none is decisive.
    Undecided,
}

/// Classifies a single control line effect against the schedule.
pub fn classify_effect(sys: &System, e: &ControlLineEffect) -> EffectClass {
    let meta = &sys.meta;
    let line = CtrlId(e.line);
    match sys.datapath.control()[e.line].kind() {
        CtrlKind::Select => {
            // A select is a care only in body steps where its mux is
            // active; RESET and HOLD selects are always don't-cares.
            if let Some(step) = meta.step_of_state(e.state) {
                let active = sys
                    .datapath
                    .muxes_on_select(line)
                    .iter()
                    .any(|m| meta.mux_active_steps[m.0].contains(&step));
                if active {
                    return EffectClass::SfiActiveSelect;
                }
            }
            EffectClass::SfrInactiveSelect
        }
        CtrlKind::Load => {
            if e.fault_free && !e.faulty {
                // A load only happens fault-free in body steps.
                return EffectClass::SfiSkippedLoad;
            }
            // Extra load. In RESET, registers hold pre-run garbage and
            // are idle; in HOLD, only held (output) variables are live.
            let regs = sys.datapath.registers_on_load(line);
            match meta.step_of_state(e.state) {
                Some(step) => {
                    let any_live = regs.iter().any(|r| meta.reg_live_at(r.0, step));
                    if any_live {
                        EffectClass::PotentiallyDisruptiveLoad
                    } else {
                        EffectClass::SfrIdleExtraLoad
                    }
                }
                None if e.state == meta.hold_state() => {
                    let any_held = regs.iter().any(|r| meta.spans[r.0].iter().any(|s| s.held));
                    if any_held {
                        EffectClass::PotentiallyDisruptiveLoad
                    } else {
                        EffectClass::SfrIdleExtraLoad
                    }
                }
                None => EffectClass::SfrIdleExtraLoad, // RESET
            }
        }
    }
}

/// Applies the rules to all of a fault's effects.
///
/// Per §3.3: "if any one control line effect caused by the fault is SFI,
/// the fault is SFI; if every control line effect is SFR, the fault is
/// SFR" — with the data-dependent extra-load cases left undecided here.
pub fn judge_by_rules(sys: &System, effects: &[ControlLineEffect]) -> RuleVerdict {
    let mut all_sfr = true;
    for e in effects {
        let c = classify_effect(sys, e);
        if c.is_sfi() {
            return RuleVerdict::Sfi;
        }
        if !c.is_sfr() {
            all_sfr = false;
        }
    }
    if all_sfr {
        RuleVerdict::Sfr
    } else {
        RuleVerdict::Undecided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_faultsim::fixtures::{muxed_system, toy_system};

    #[test]
    fn skipped_load_rule() {
        let sys = toy_system();
        let ld = sys.datapath.find_ctrl("LD_R4").unwrap();
        let e = ControlLineEffect {
            state: sys.meta.state_of_step(3),
            line: ld.0,
            fault_free: true,
            faulty: false,
        };
        assert_eq!(classify_effect(&sys, &e), EffectClass::SfiSkippedLoad);
        assert_eq!(judge_by_rules(&sys, &[e]), RuleVerdict::Sfi);
    }

    #[test]
    fn idle_extra_load_rule() {
        let sys = toy_system();
        // R3 (t) is written CS2, read CS3: idle at CS1.
        let ld = sys.datapath.find_ctrl("LD_R3").unwrap();
        let e = ControlLineEffect {
            state: sys.meta.state_of_step(1),
            line: ld.0,
            fault_free: false,
            faulty: true,
        };
        assert_eq!(classify_effect(&sys, &e), EffectClass::SfrIdleExtraLoad);
        assert_eq!(judge_by_rules(&sys, &[e]), RuleVerdict::Sfr);
    }

    #[test]
    fn in_lifespan_extra_load_is_deferred() {
        let sys = toy_system();
        // R1 (va) live at CS2.
        let ld = sys.datapath.find_ctrl("LD_R1").unwrap();
        let e = ControlLineEffect {
            state: sys.meta.state_of_step(2),
            line: ld.0,
            fault_free: false,
            faulty: true,
        };
        assert_eq!(
            classify_effect(&sys, &e),
            EffectClass::PotentiallyDisruptiveLoad
        );
        assert_eq!(judge_by_rules(&sys, &[e]), RuleVerdict::Undecided);
    }

    #[test]
    fn reset_extra_load_is_sfr() {
        let sys = toy_system();
        let ld = sys.datapath.find_ctrl("LD_R1").unwrap();
        let e = ControlLineEffect {
            state: sys.meta.reset_state(),
            line: ld.0,
            fault_free: false,
            faulty: true,
        };
        assert_eq!(classify_effect(&sys, &e), EffectClass::SfrIdleExtraLoad);
    }

    #[test]
    fn hold_extra_load_into_output_register_is_deferred() {
        let sys = toy_system();
        let ld = sys.datapath.find_ctrl("LD_R4").unwrap();
        let e = ControlLineEffect {
            state: sys.meta.hold_state(),
            line: ld.0,
            fault_free: false,
            faulty: true,
        };
        assert_eq!(
            classify_effect(&sys, &e),
            EffectClass::PotentiallyDisruptiveLoad
        );
    }

    #[test]
    fn hold_extra_load_into_scratch_register_is_sfr() {
        let sys = toy_system();
        let ld = sys.datapath.find_ctrl("LD_R3").unwrap();
        let e = ControlLineEffect {
            state: sys.meta.hold_state(),
            line: ld.0,
            fault_free: false,
            faulty: true,
        };
        assert_eq!(classify_effect(&sys, &e), EffectClass::SfrIdleExtraLoad);
    }

    #[test]
    fn select_rules_follow_mux_activity() {
        let sys = muxed_system();
        let ms = sys.datapath.find_ctrl("MS1").unwrap();
        // Active in CS2 and CS3, inactive in CS1/RESET/HOLD.
        let active = ControlLineEffect {
            state: sys.meta.state_of_step(2),
            line: ms.0,
            fault_free: sys.ctrl.realized_outputs[sys.meta.state_of_step(2).0][ms.0],
            faulty: !sys.ctrl.realized_outputs[sys.meta.state_of_step(2).0][ms.0],
        };
        assert_eq!(classify_effect(&sys, &active), EffectClass::SfiActiveSelect);
        let inactive = ControlLineEffect {
            state: sys.meta.state_of_step(1),
            line: ms.0,
            fault_free: false,
            faulty: true,
        };
        assert_eq!(
            classify_effect(&sys, &inactive),
            EffectClass::SfrInactiveSelect
        );
        let hold = ControlLineEffect {
            state: sys.meta.hold_state(),
            line: ms.0,
            fault_free: false,
            faulty: true,
        };
        assert_eq!(classify_effect(&sys, &hold), EffectClass::SfrInactiveSelect);
    }

    #[test]
    fn mixed_effects_compose_per_section_3_3() {
        let sys = toy_system();
        let ld3 = sys.datapath.find_ctrl("LD_R3").unwrap();
        let ld4 = sys.datapath.find_ctrl("LD_R4").unwrap();
        let sfr = ControlLineEffect {
            state: sys.meta.state_of_step(1),
            line: ld3.0,
            fault_free: false,
            faulty: true,
        };
        let sfi = ControlLineEffect {
            state: sys.meta.state_of_step(3),
            line: ld4.0,
            fault_free: true,
            faulty: false,
        };
        assert_eq!(judge_by_rules(&sys, &[sfr, sfi]), RuleVerdict::Sfi);
        assert_eq!(judge_by_rules(&sys, &[sfr]), RuleVerdict::Sfr);
        assert_eq!(judge_by_rules(&sys, &[]), RuleVerdict::Sfr);
    }
}

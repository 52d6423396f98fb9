//! A deliberately-broken design for exercising the linter end to end.
//!
//! `sfr lint --fixture` runs it and must exit nonzero: the FSM has an
//! unreachable state and a dead transition.

use crate::diag::LintReport;
use crate::rules::lint_fsm;
use sfr_fsm::{FsmSpec, FsmSpecBuilder, Tri};

/// A controller specification whose `ORPHAN` state no transition
/// targets, plus a shadowed (dead) transition.
///
/// # Panics
///
/// Never panics: the machine is transition-complete by construction.
pub fn fixture_fsm() -> FsmSpec {
    let mut b = FsmSpecBuilder::new("lint_fixture", 1, vec!["LD".into()]);
    let idle = b.state("IDLE", vec![Tri::Zero]);
    let run = b.state("RUN", vec![Tri::One]);
    let orphan = b.state("ORPHAN", vec![Tri::Zero]);
    b.transition(idle, &[(0, true)], run);
    b.transition(idle, &[], idle);
    b.transition(run, &[], idle);
    b.transition(run, &[(0, false)], run); // dead: shadowed above
    b.transition(orphan, &[], idle); // complete, but nothing enters ORPHAN
    b.finish().expect("fixture machine is transition-complete")
}

/// Lints the fixture. The report always holds an `unreachable-state`
/// error and a `dead-transition` warning.
pub fn fixture_report() -> LintReport {
    lint_fsm(&fixture_fsm())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_trips_both_rules() {
        let r = fixture_report();
        assert_eq!(r.error_count(), 1, "report:\n{r}");
        let rules: Vec<&str> = r.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"unreachable-state"));
        assert!(rules.contains(&"dead-transition"));
        // Every diagnostic names a rule and a subject.
        for d in &r.diagnostics {
            assert!(!d.rule.is_empty());
            assert!(!d.subject.is_empty());
        }
    }
}

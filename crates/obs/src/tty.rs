//! Live TTY status line.
//!
//! One carriage-return-overwritten stderr line naming the current phase
//! and, once the phase announces it, its planned work-item count. The
//! line is painted on the events that mark a phase's progress —
//! `PhaseStart`, `WorkPlanned` and `PhaseDone` — and on nothing else:
//! every event reaches observers on the driving thread after the
//! phase's parallel map has returned, so per-pack and per-fault events
//! arrive in one burst at the end of a phase, too late to show progress
//! within it. The renderer disables itself when stderr is not a
//! terminal or the user asked for `--quiet`, in which case every event
//! is a no-op (campaign output stays machine-diffable in pipes and CI).

use std::io::{IsTerminal, Write};
use std::sync::Mutex;

use sfr_exec::{Phase, Progress, ProgressEvent};

/// Live status line for interactive runs. Construct with
/// [`TtyStatus::stderr`]; call [`TtyStatus::finish`] before printing
/// final tables so the status line is cleared.
pub struct TtyStatus {
    enabled: bool,
    state: Mutex<TtyState>,
}

#[derive(Default)]
struct TtyState {
    /// The phase running now, if any.
    phase: Option<Phase>,
    /// Whether a line is on screen.
    painted: bool,
}

impl TtyStatus {
    /// A renderer targeting stderr: live when stderr is a terminal and
    /// `quiet` is false, otherwise inert.
    pub fn stderr(quiet: bool) -> Self {
        TtyStatus {
            enabled: !quiet && std::io::stderr().is_terminal(),
            state: Mutex::new(TtyState::default()),
        }
    }

    /// Whether this renderer will paint anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Clear the status line (if one was painted) so subsequent output
    /// starts on a clean row.
    pub fn finish(&self) {
        if !self.enabled {
            return;
        }
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if state.painted {
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\r\x1b[2K");
            let _ = err.flush();
            state.painted = false;
        }
    }
}

/// Fold one event into the current phase and return the line it paints,
/// or `None` when the event does not change the line. Pure so it can be
/// unit-tested without a terminal.
fn status_line(phase: &mut Option<Phase>, event: ProgressEvent) -> Option<String> {
    match event {
        ProgressEvent::PhaseStart { phase: started } => {
            *phase = Some(started);
            Some(format!("sfr: {}", started.label()))
        }
        ProgressEvent::WorkPlanned {
            phase: planned,
            items,
        } if *phase == Some(planned) => Some(format!(
            "sfr: {}, {items} work item(s) planned",
            planned.label()
        )),
        ProgressEvent::PhaseDone { phase: done, .. } => {
            *phase = None;
            Some(format!("sfr: {} done", done.label()))
        }
        _ => None,
    }
}

impl Progress for TtyStatus {
    fn event(&self, event: ProgressEvent) {
        if !self.enabled {
            return;
        }
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(line) = status_line(&mut state.phase, event) {
            state.painted = true;
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\r\x1b[2K{line}");
            let _ = err.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn phase_line_follows_start_and_done() {
        let mut phase = None;
        let start = ProgressEvent::PhaseStart {
            phase: Phase::FaultSim,
        };
        assert_eq!(
            status_line(&mut phase, start).as_deref(),
            Some("sfr: faultsim")
        );
        assert_eq!(phase, Some(Phase::FaultSim));
        let done = ProgressEvent::PhaseDone {
            phase: Phase::FaultSim,
            elapsed: Duration::from_millis(4),
            aborted: false,
        };
        assert_eq!(
            status_line(&mut phase, done).as_deref(),
            Some("sfr: faultsim done")
        );
        assert_eq!(phase, None);
    }

    #[test]
    fn planned_items_of_the_current_phase_are_shown() {
        let mut phase = Some(Phase::Grade);
        let planned = ProgressEvent::WorkPlanned {
            phase: Phase::Grade,
            items: 4,
        };
        assert_eq!(
            status_line(&mut phase, planned).as_deref(),
            Some("sfr: grade, 4 work item(s) planned")
        );
        // A plan for a phase that is not running changes nothing.
        let stray = ProgressEvent::WorkPlanned {
            phase: Phase::FaultSim,
            items: 9,
        };
        assert_eq!(status_line(&mut phase, stray), None);
        assert_eq!(status_line(&mut None, planned), None);
    }

    #[test]
    fn per_item_events_paint_nothing() {
        let mut phase = Some(Phase::Grade);
        for event in [
            ProgressEvent::FaultGraded { flagged: true },
            ProgressEvent::PackRestored { faults: 3 },
            ProgressEvent::PackQuarantined { faults: 3 },
            ProgressEvent::BudgetExhausted,
            ProgressEvent::CyclesSimulated { cycles: 90 },
        ] {
            assert_eq!(status_line(&mut phase, event), None, "{event:?}");
        }
        assert_eq!(phase, Some(Phase::Grade));
    }

    #[test]
    fn disabled_renderer_ignores_events() {
        // In a test harness stderr may or may not be a terminal; build
        // an explicitly quiet renderer and check it stays inert.
        let tty = TtyStatus::stderr(true);
        assert!(!tty.enabled());
        tty.event(ProgressEvent::PhaseStart {
            phase: Phase::Grade,
        });
        tty.finish();
        let state = tty.state.lock().expect("lock");
        assert!(!state.painted);
        assert_eq!(state.phase, None);
    }
}

//! Throttled live TTY status renderer.
//!
//! One carriage-return-overwritten stderr line showing the current
//! phase, pack/chunk progress, an ETA extrapolated from the planned
//! work-item count, and the incident tally. Repaints are throttled to
//! one per 100 ms; the renderer disables itself when stderr is not a
//! terminal or the user asked for `--quiet`, in which case every event
//! is a no-op (campaign output stays machine-diffable in pipes and CI).

use std::io::{IsTerminal, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sfr_exec::{Phase, Progress, ProgressEvent};

const REPAINT_EVERY: Duration = Duration::from_millis(100);

/// Live status line for interactive runs. Construct with
/// [`TtyStatus::stderr`]; call [`TtyStatus::finish`] before printing
/// final tables so the status line is cleared.
pub struct TtyStatus {
    enabled: bool,
    state: Mutex<TtyState>,
}

#[derive(Default)]
struct TtyState {
    phase: Option<Phase>,
    phase_started: Option<Instant>,
    items_total: usize,
    items_done: usize,
    faults_done: usize,
    incidents: usize,
    last_paint: Option<Instant>,
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

    fn repaint(&self, state: &mut TtyState, now: Instant) {
        if let Some(last) = state.last_paint {
            if now.duration_since(last) < REPAINT_EVERY {
                return;
            }
        }
        state.last_paint = Some(now);
        state.painted = true;
        let line = status_line(state, now);
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r\x1b[2K{line}");
        let _ = err.flush();
    }
}

/// Render the status line for `state` at time `now`. Pure so it can be
/// unit-tested without a terminal.
fn status_line(state: &TtyState, now: Instant) -> String {
    let mut line = String::from("sfr:");
    if let Some(phase) = state.phase {
        line.push_str(&format!(" {}", phase.label()));
    }
    if state.items_total > 0 {
        line.push_str(&format!(" {}/{}", state.items_done, state.items_total));
        if let (Some(started), true) = (state.phase_started, state.items_done > 0) {
            let elapsed = now.duration_since(started).as_secs_f64();
            let remaining =
                elapsed / state.items_done as f64 * (state.items_total - state.items_done) as f64;
            line.push_str(&format!(" eta {remaining:.1}s"));
        }
    }
    if state.faults_done > 0 {
        line.push_str(&format!(" faults {}", state.faults_done));
    }
    if state.incidents > 0 {
        line.push_str(&format!(" incidents {}", state.incidents));
    }
    line
}

/// Fold one event into `state`. Pure (no painting) so the transition
/// logic is unit-testable without a terminal.
fn apply_event(state: &mut TtyState, event: ProgressEvent, now: Instant) {
    match event {
        ProgressEvent::PhaseStart { phase } => {
            state.phase = Some(phase);
            state.phase_started = Some(now);
            state.items_total = 0;
            state.items_done = 0;
            // Force the phase change onto the screen.
            state.last_paint = None;
        }
        ProgressEvent::PhaseDone { .. } => {
            state.phase = None;
            state.last_paint = None;
        }
        ProgressEvent::WorkPlanned { phase, items } => {
            if state.phase == Some(phase) {
                state.items_total = items;
            }
        }
        ProgressEvent::GradePack { .. } | ProgressEvent::PackRestored { .. } => {
            state.items_done += 1
        }
        ProgressEvent::PackQuarantined { .. } => {
            state.items_done += 1;
            state.incidents += 1;
        }
        ProgressEvent::BudgetExhausted | ProgressEvent::JournalDegraded => state.incidents += 1,
        ProgressEvent::FaultSimulated { .. } | ProgressEvent::FaultGraded { .. } => {
            state.faults_done += 1;
        }
        ProgressEvent::CyclesSimulated { .. }
        | ProgressEvent::MonteCarlo { .. }
        | ProgressEvent::FaultPruned
        | ProgressEvent::FaultCollapsed
        | ProgressEvent::PackProfile { .. } => {}
    }
}

impl Progress for TtyStatus {
    fn event(&self, event: ProgressEvent) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        apply_event(&mut state, event, now);
        self.repaint(&mut state, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_line_shows_progress_and_eta() {
        let now = Instant::now();
        let state = TtyState {
            phase: Some(Phase::Grade),
            phase_started: Some(now - Duration::from_secs(2)),
            items_total: 4,
            items_done: 2,
            faults_done: 126,
            incidents: 1,
            ..TtyState::default()
        };
        let line = status_line(&state, now);
        assert!(line.contains("grade"), "{line}");
        assert!(line.contains("2/4"), "{line}");
        assert!(line.contains("eta 2.0s"), "{line}");
        assert!(line.contains("faults 126"), "{line}");
        assert!(line.contains("incidents 1"), "{line}");
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
        tty.event(ProgressEvent::GradePack { faults: 3 });
        tty.finish();
        let state = tty.state.lock().expect("lock");
        assert!(!state.painted);
        assert_eq!(state.items_done, 0);
    }
}

//! The observer set the front ends attach to a campaign.

use sfr_exec::{Counters, Progress, ProgressEvent, TraceRecord};

use crate::{Metrics, TraceWriter, TtyStatus};

/// The observers the `sfr` CLI and the table/figure binaries attach to
/// their campaigns, as `--trace-out FILE`, `--metrics-out FILE` and
/// `--quiet` select them: the campaign tally (always), a JSONL trace, a
/// Prometheus export and the live status line. Pass it to a campaign as
/// its [`Progress`]; [`Sinks::finish`] prints the summary and writes
/// the files.
pub struct Sinks {
    /// Holds the campaign tally; exported when `metrics_out` is set.
    metrics: Metrics,
    metrics_out: Option<String>,
    trace: Option<TraceWriter>,
    tty: TtyStatus,
}

impl Sinks {
    /// Opens the requested sinks. The trace file (and its parent
    /// directories) are created here, so a bad path fails before the
    /// campaign runs.
    ///
    /// # Errors
    ///
    /// When the trace file cannot be created.
    pub fn open(
        trace_out: Option<&str>,
        metrics_out: Option<&str>,
        quiet: bool,
    ) -> Result<Self, String> {
        let trace = match trace_out {
            Some(path) => Some(
                TraceWriter::create(path)
                    .map_err(|e| format!("cannot open trace file {path}: {e}"))?,
            ),
            None => None,
        };
        Ok(Sinks {
            metrics: Metrics::new(),
            metrics_out: metrics_out.map(str::to_string),
            trace,
            tty: TtyStatus::stderr(quiet),
        })
    }

    /// The tally of everything observed so far.
    pub fn counters(&self) -> &Counters {
        self.metrics.counters()
    }

    /// Clears the status line, prints the campaign summary to stderr
    /// (and the metrics summary when exporting), and finalizes the
    /// metrics and trace files.
    ///
    /// # Errors
    ///
    /// When a metrics or trace file cannot be written.
    pub fn finish(self) -> Result<(), String> {
        self.tty.finish();
        eprint!("{}", self.counters().snapshot());
        if let Some(path) = &self.metrics_out {
            eprint!("{}", self.metrics.render_summary());
            self.metrics
                .write_prometheus(path)
                .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
            eprintln!("metrics written to {path}");
        }
        if let Some(trace) = self.trace {
            let path = trace.path().display().to_string();
            trace
                .finish()
                .map_err(|e| format!("cannot finalize trace {path}: {e}"))?;
            eprintln!("trace written to {path}");
        }
        Ok(())
    }
}

impl Progress for Sinks {
    fn event(&self, event: ProgressEvent) {
        self.metrics.event(event);
        self.tty.event(event);
        if let Some(trace) = &self.trace {
            trace.event(event);
        }
    }

    fn record(&self, record: &TraceRecord) {
        if self.metrics_out.is_some() {
            self.metrics.record(record);
        }
        if let Some(trace) = &self.trace {
            trace.record(record);
        }
    }

    fn wants_records(&self) -> bool {
        self.metrics_out.is_some() || self.trace.is_some()
    }
}

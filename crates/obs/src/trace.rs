//! JSONL structured trace writer.
//!
//! One JSON object per line, in the deterministic order the campaign
//! emits its post-hoc progress accounting (events and records reach
//! sinks on the coordinating thread in pack/chunk index order, so the
//! trace layout is stable across thread counts — only the timing
//! fields vary). The writer buffers through [`BufWriter`] and never
//! panics on I/O trouble: a failed write latches an error that
//! [`TraceWriter::finish`] reports.
//!
//! Traces survive a SIGKILL: the header, phase ends, pack records, and
//! incident records are flushed to the OS as they are written (durable
//! points), so a campaign killed mid-run leaves every completed record
//! on disk — at worst a torn final line — instead of an empty buffer.
//! Per-lane progress ticks never flush; the cost stays proportional to
//! packs.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sfr_exec::{LaneGrade, Progress, ProgressEvent, TraceRecord};

use crate::json;

/// Trace format version stamped on the `trace_start` line.
pub const TRACE_VERSION: u32 = 1;

/// A [`Progress`] sink that renders every event and structured record
/// as one JSONL line.
pub struct TraceWriter {
    path: PathBuf,
    start: Instant,
    state: Mutex<WriterState>,
}

struct WriterState {
    out: BufWriter<File>,
    error: Option<String>,
}

impl TraceWriter {
    /// Create (or truncate) the trace file at `path`, creating parent
    /// directories as needed, and write the `trace_start` header line.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(&path)?;
        let writer = TraceWriter {
            path,
            start: Instant::now(),
            state: Mutex::new(WriterState {
                out: BufWriter::new(file),
                error: None,
            }),
        };
        writer.emit_durable(&format!(
            "{{\"ev\":\"trace_start\",\"version\":{TRACE_VERSION}}}"
        ));
        Ok(writer)
    }

    /// The path the trace is being written to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flush the trace and surface any write error swallowed mid-run.
    /// The final `trace_end` line is written first so a complete trace
    /// is self-delimiting.
    pub fn finish(self) -> std::io::Result<()> {
        self.emit(&format!(
            "{{\"ev\":\"trace_end\",\"t_ms\":{}}}",
            json::num(self.t_ms())
        ));
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(message) = state.error.take() {
            return Err(std::io::Error::other(message));
        }
        state.out.flush()
    }

    fn t_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    fn emit(&self, line: &str) {
        self.write_line(line, false);
    }

    /// Write a line and push it (and everything buffered before it)
    /// to the OS. Used at durable points so a killed process leaves
    /// its trace on disk up to the last completed record.
    fn emit_durable(&self, line: &str) {
        self.write_line(line, true);
    }

    fn write_line(&self, line: &str, durable: bool) {
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if state.error.is_some() {
            return;
        }
        if let Err(e) = state
            .out
            .write_all(line.as_bytes())
            .and_then(|()| state.out.write_all(b"\n"))
            .and_then(|()| if durable { state.out.flush() } else { Ok(()) })
        {
            state.error = Some(format!("trace write failed: {e}"));
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn push_ids(out: &mut String, key: &str, ids: &[String]) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str_escaped(out, id);
    }
    out.push(']');
}

fn push_opt_key(out: &mut String, key: &str, value: Option<&str>) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    match value {
        Some(v) => json::push_str_escaped(out, v),
        None => out.push_str("null"),
    }
}

fn render_lane(out: &mut String, lane: &LaneGrade) {
    out.push('{');
    push_opt_key(out, "fault", lane.fault.as_deref());
    out.push_str(&format!(
        ",\"mean_uw\":{},\"half_width_uw\":{},\"batches\":{},\"converged\":{}}}",
        json::num(lane.mean_uw),
        json::num(lane.half_width_uw),
        lane.batches,
        lane.converged
    ));
}

impl Progress for TraceWriter {
    fn event(&self, event: ProgressEvent) {
        let t = json::num(self.t_ms());
        match event {
            ProgressEvent::PhaseStart { phase } => {
                self.emit(&format!(
                    "{{\"ev\":\"span_begin\",\"phase\":\"{}\",\"t_ms\":{t}}}",
                    phase.label()
                ));
            }
            ProgressEvent::PhaseDone {
                phase,
                elapsed,
                aborted,
            } => {
                self.emit_durable(&format!(
                    "{{\"ev\":\"span_end\",\"phase\":\"{}\",\"ms\":{},\"aborted\":{aborted},\"t_ms\":{t}}}",
                    phase.label(),
                    json::num(ms(elapsed)),
                ));
            }
            ProgressEvent::WorkPlanned { phase, items } => {
                self.emit(&format!(
                    "{{\"ev\":\"plan\",\"phase\":\"{}\",\"items\":{items},\"t_ms\":{t}}}",
                    phase.label()
                ));
            }
            // Per-item progress ticks are aggregated into the
            // structured chunk/pack records below; cycle totals land in
            // the metrics registry and manifest. Skipping them keeps
            // traces proportional to packs, not faults.
            ProgressEvent::CyclesSimulated { .. }
            | ProgressEvent::FaultSimulated { .. }
            | ProgressEvent::MonteCarlo { .. }
            | ProgressEvent::FaultGraded { .. }
            | ProgressEvent::GradePack { .. }
            | ProgressEvent::PackQuarantined { .. }
            | ProgressEvent::PackRestored { .. }
            | ProgressEvent::BudgetExhausted
            | ProgressEvent::FaultPruned
            | ProgressEvent::FaultCollapsed
            | ProgressEvent::JournalDegraded => {}
        }
    }

    fn record(&self, record: &TraceRecord) {
        let t = json::num(self.t_ms());
        match record {
            TraceRecord::ChunkSimulated {
                chunk,
                fault_ids,
                detected,
                potential,
                cycles,
                elapsed,
                restored,
            } => {
                let mut line = format!("{{\"ev\":\"chunk\",\"chunk\":{chunk},");
                push_ids(&mut line, "faults", fault_ids);
                line.push_str(&format!(
                    ",\"detected\":{detected},\"potential\":{potential},\"cycles\":{cycles},\"ms\":{},\"restored\":{restored},\"t_ms\":{t}}}",
                    json::num(ms(*elapsed)),
                ));
                self.emit(&line);
            }
            TraceRecord::PackGraded {
                pack,
                lanes,
                occupancy,
                cycles,
                stalled,
                elapsed,
                restored,
            } => {
                let mut line = format!("{{\"ev\":\"pack\",\"pack\":{pack},\"occupancy\":{occupancy},\"cycles\":{cycles},\"ms\":{},\"restored\":{restored},",
                    json::num(ms(*elapsed)));
                push_ids(&mut line, "stalled", stalled);
                line.push_str(",\"lanes\":[");
                for (i, lane) in lanes.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    render_lane(&mut line, lane);
                }
                line.push_str(&format!("],\"t_ms\":{t}}}"));
                self.emit_durable(&line);
            }
            TraceRecord::Quarantined {
                kind,
                index,
                fault_ids,
                message,
                journal_key,
            } => {
                let mut line =
                    format!("{{\"ev\":\"quarantine\",\"kind\":\"{kind}\",\"index\":{index},");
                push_ids(&mut line, "faults", fault_ids);
                line.push_str(",\"message\":");
                json::push_str_escaped(&mut line, message);
                line.push(',');
                push_opt_key(&mut line, "journal", journal_key.as_deref());
                line.push_str(&format!(",\"t_ms\":{t}}}"));
                self.emit_durable(&line);
            }
            TraceRecord::BudgetExhausted {
                fault_id,
                journal_key,
            } => {
                let mut line = String::from("{\"ev\":\"budget\",\"fault\":");
                json::push_str_escaped(&mut line, fault_id);
                line.push(',');
                push_opt_key(&mut line, "journal", journal_key.as_deref());
                line.push_str(&format!(",\"t_ms\":{t}}}"));
                self.emit(&line);
            }
            TraceRecord::Collapse {
                universe,
                classes,
                merged,
            } => {
                self.emit(&format!(
                    "{{\"ev\":\"collapse\",\"universe\":{universe},\"classes\":{classes},\"merged\":{merged},\"t_ms\":{t}}}"
                ));
            }
            TraceRecord::JournalDegraded { message } => {
                let mut line = String::from("{\"ev\":\"journal_degraded\",\"message\":");
                json::push_str_escaped(&mut line, message);
                line.push_str(&format!(",\"t_ms\":{t}}}"));
                self.emit_durable(&line);
            }
            TraceRecord::Note { text } => {
                let mut line = String::from("{\"ev\":\"note\",\"text\":");
                json::push_str_escaped(&mut line, text);
                line.push_str(&format!(",\"t_ms\":{t}}}"));
                self.emit(&line);
            }
        }
    }

    fn wants_records(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_exec::Phase;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sfr-obs-trace-{}-{name}", std::process::id()))
    }

    #[test]
    fn writes_parseable_jsonl_with_parent_dirs() {
        let dir = temp_path("nested");
        let path = dir.join("deep").join("trace.jsonl");
        let writer = TraceWriter::create(&path).expect("create");
        writer.event(ProgressEvent::PhaseStart {
            phase: Phase::Grade,
        });
        writer.record(&TraceRecord::PackGraded {
            pack: 0,
            lanes: vec![
                LaneGrade {
                    fault: None,
                    mean_uw: 104.2,
                    half_width_uw: 1.9,
                    batches: 4,
                    converged: true,
                },
                LaneGrade {
                    fault: Some("g3.out/sa1".into()),
                    mean_uw: 110.0,
                    half_width_uw: 2.1,
                    batches: 4,
                    converged: true,
                },
            ],
            occupancy: 2,
            cycles: 1234,
            stalled: vec!["g9.out/sa0".into()],
            elapsed: Duration::from_millis(7),
            restored: false,
        });
        writer.record(&TraceRecord::Quarantined {
            kind: sfr_journal::RecordKind::GradePack,
            index: 3,
            fault_ids: vec!["g1.out/sa0".into()],
            message: "lane panic: \"boom\"".into(),
            journal_key: Some("grade/3".into()),
        });
        writer.event(ProgressEvent::PhaseDone {
            phase: Phase::Grade,
            elapsed: Duration::from_millis(9),
            aborted: false,
        });
        writer.finish().expect("finish");

        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "start + 4 + end: {text}");
        for line in &lines {
            let v = crate::json::parse(line).expect("each line parses");
            assert!(v.get("ev").is_some(), "line has ev: {line}");
        }
        let pack = crate::json::parse(lines[2]).expect("pack line");
        assert_eq!(
            pack.get("ev").and_then(crate::json::Value::as_str),
            Some("pack")
        );
        let lanes = pack
            .get("lanes")
            .and_then(crate::json::Value::as_arr)
            .expect("lanes");
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].get("fault"), Some(&crate::json::Value::Null));
        assert_eq!(
            lanes[1].get("fault").and_then(crate::json::Value::as_str),
            Some("g3.out/sa1")
        );
        let quarantine = crate::json::parse(lines[3]).expect("quarantine line");
        assert_eq!(
            quarantine
                .get("journal")
                .and_then(crate::json::Value::as_str),
            Some("grade/3")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

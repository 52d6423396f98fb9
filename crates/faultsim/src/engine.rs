//! The fault-simulation engines behind one trait.
//!
//! [`TapeEngine`] is the production engine: 63-fault batches on the
//! compiled op tape ([`sfr_netlist::TapeSim`]), sharded across scoped
//! worker threads. Batch boundaries are fixed at [`MAX_PARALLEL_FAULTS`]
//! regardless of thread count, each batch is an independent simulation,
//! and the executor reassembles batch results in fault order, so
//! verdicts, cycle counts, event streams and trace records are
//! byte-identical at any thread count. [`SerialEngine`] is the scalar
//! reference: one [`sfr_netlist::CycleSim`] run per fault, with the same
//! verdict for every fault.

use crate::campaign::{run_serial, run_tape_counted, CampaignOutcome, Detection};
use crate::golden::GoldenTrace;
use crate::system::System;
use sfr_exec::{
    par_map_indexed, par_map_indexed_caught, NullProgress, Phase, Progress, ProgressEvent,
    TraceRecord, WorkKind,
};
use sfr_journal::{decode_str, encode_str, CampaignJournal, RecordKind};
use sfr_netlist::{StuckAt, MAX_PARALLEL_FAULTS};

/// The inner evaluation kernel that power grading runs on. Downstream
/// phases that simulate on their own — Monte Carlo power grading,
/// notably — read this off the campaign engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimKernel {
    /// The compiled op tape over `u64` words (63 faults per pack).
    #[default]
    Tape,
}

/// A fault-simulation engine: turns a fault list into a verdict per
/// fault, against one golden trace.
///
/// All engines must return outcomes in fault order and agree on every
/// verdict (see the equivalence tests); they differ only in wall-clock
/// time.
pub trait Engine: Sync {
    /// A short identifier for reports (`"serial"`, `"tape"`).
    fn name(&self) -> &'static str;

    /// Runs the campaign.
    fn run(&self, sys: &System, golden: &GoldenTrace, faults: &[StuckAt]) -> Vec<CampaignOutcome>;

    /// Runs the campaign and also reports the simulator cycles it
    /// evaluated, for the observability stream. The default conservatively
    /// reports 0 cycles (an engine that doesn't count doesn't guess);
    /// all built-in engines override it.
    fn run_counted(
        &self,
        sys: &System,
        golden: &GoldenTrace,
        faults: &[StuckAt],
    ) -> (Vec<CampaignOutcome>, u64) {
        (self.run(sys, golden, faults), 0)
    }

    /// The worker count this engine represents — downstream per-fault
    /// stages (controller-table analysis, the symbolic oracle, power
    /// grading) shard to the same width. 1 for the serial engine.
    fn threads(&self) -> usize {
        1
    }

    /// The inner evaluation kernel, for downstream phases that simulate
    /// on their own (Monte Carlo power grading).
    fn kernel(&self) -> SimKernel {
        SimKernel::Tape
    }
}

/// One fault at a time on the scalar [`sfr_netlist::CycleSim`] — the
/// reference engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialEngine;

impl Engine for SerialEngine {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn run(&self, sys: &System, golden: &GoldenTrace, faults: &[StuckAt]) -> Vec<CampaignOutcome> {
        run_serial(sys, golden, faults)
    }

    fn run_counted(
        &self,
        sys: &System,
        golden: &GoldenTrace,
        faults: &[StuckAt],
    ) -> (Vec<CampaignOutcome>, u64) {
        crate::campaign::run_serial_counted(sys, golden, faults)
    }
}

/// Compiled op-tape kernel: 63 faults per `u64` word, batches sharded
/// across scoped worker threads (1 = run inline).
#[derive(Debug, Clone, Copy)]
pub struct TapeEngine {
    threads: usize,
}

impl TapeEngine {
    /// An engine using `threads` workers (0 means the machine's
    /// available parallelism).
    pub fn new(threads: usize) -> Self {
        TapeEngine {
            threads: if threads == 0 {
                sfr_exec::default_threads()
            } else {
                threads
            },
        }
    }
}

impl Engine for TapeEngine {
    fn name(&self) -> &'static str {
        "tape"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn run(&self, sys: &System, golden: &GoldenTrace, faults: &[StuckAt]) -> Vec<CampaignOutcome> {
        self.run_counted(sys, golden, faults).0
    }

    fn run_counted(
        &self,
        sys: &System,
        golden: &GoldenTrace,
        faults: &[StuckAt],
    ) -> (Vec<CampaignOutcome>, u64) {
        let batches: Vec<&[StuckAt]> = faults.chunks(MAX_PARALLEL_FAULTS).collect();
        let per_batch = par_map_indexed(self.threads, batches.len(), |i| {
            run_tape_counted(sys, golden, batches[i])
        });
        let mut outcomes = Vec::with_capacity(faults.len());
        let mut cycles = 0u64;
        for (batch_outcomes, batch_cycles) in per_batch {
            outcomes.extend(batch_outcomes);
            cycles += batch_cycles;
        }
        (outcomes, cycles)
    }
}

/// Which engine to run — the serializable selector the study API and
/// the CLI expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// [`SerialEngine`], the scalar reference.
    Serial,
    /// [`TapeEngine`] with the given worker count (0 = all cores).
    Tape(usize),
}

impl Default for EngineKind {
    /// The tape engine on one thread.
    fn default() -> Self {
        EngineKind::Tape(1)
    }
}

impl EngineKind {
    /// Instantiates the selected engine.
    pub fn build(self) -> Box<dyn Engine> {
        match self {
            EngineKind::Serial => Box::new(SerialEngine),
            EngineKind::Tape(n) => Box::new(TapeEngine::new(n)),
        }
    }

    /// Parses a CLI selector (`serial` or `tape`), binding the tape
    /// engine to `threads`. Returns `None` for an unknown name.
    pub fn parse(name: &str, threads: usize) -> Option<EngineKind> {
        Some(match name {
            "serial" => EngineKind::Serial,
            "tape" => EngineKind::Tape(threads),
            _ => return None,
        })
    }
}

/// Runs a campaign on `engine`, reporting one
/// [`ProgressEvent::FaultSimulated`] per fault (a detected fault is
/// dropped from further phases).
pub fn run_campaign(
    engine: &dyn Engine,
    sys: &System,
    golden: &GoldenTrace,
    faults: &[StuckAt],
    progress: &dyn Progress,
) -> Vec<CampaignOutcome> {
    let outcomes = engine.run(sys, golden, faults);
    for o in &outcomes {
        progress.event(ProgressEvent::FaultSimulated {
            dropped: o.detection.is_detected(),
        });
    }
    outcomes
}

/// A fault-simulation chunk that panicked twice and was quarantined:
/// its faults carry no verdicts, the rest of the campaign is intact.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedChunk {
    /// Chunk index (chunks of [`MAX_PARALLEL_FAULTS`] faults).
    pub chunk: usize,
    /// The faults that were in the chunk.
    pub faults: Vec<StuckAt>,
    /// The panic payload message.
    pub message: String,
}

/// Journal payload tags for fault-simulation chunks.
const CHUNK_OK: u64 = 0;
const CHUNK_QUARANTINED: u64 = 1;

fn encode_outcomes(outcomes: &[CampaignOutcome]) -> Vec<u64> {
    let mut words = vec![CHUNK_OK, outcomes.len() as u64];
    for o in outcomes {
        let (tag, cycle) = match o.detection {
            Detection::NotDetected => (0u64, 0usize),
            Detection::Detected { cycle } => (1, cycle),
            Detection::Potential { cycle } => (2, cycle),
        };
        words.push(tag);
        words.push(cycle as u64);
    }
    words
}

/// Decodes a journaled chunk against the fault slice it was keyed to;
/// `None` (recompute) on any shape mismatch.
fn decode_outcomes(words: &[u64], faults: &[StuckAt]) -> Option<Vec<CampaignOutcome>> {
    if *words.first()? != CHUNK_OK {
        return None;
    }
    let n = usize::try_from(*words.get(1)?).ok()?;
    if n != faults.len() || words.len() != 2 + 2 * n {
        return None;
    }
    let mut outcomes = Vec::with_capacity(n);
    for (i, pair) in words[2..].chunks(2).enumerate() {
        let cycle = usize::try_from(pair[1]).ok()?;
        let detection = match pair[0] {
            0 => Detection::NotDetected,
            1 => Detection::Detected { cycle },
            2 => Detection::Potential { cycle },
            _ => return None,
        };
        outcomes.push(CampaignOutcome {
            fault: faults[i],
            detection,
        });
    }
    Some(outcomes)
}

/// Crash-safe, fault-isolated [`run_campaign`]: the fault list is cut
/// into [`MAX_PARALLEL_FAULTS`]-sized chunks (the same boundaries the
/// tape engine already batches on, so verdicts are unchanged), each
/// chunk runs under panic quarantine, and completed chunks are
/// checkpointed to `journal`. Journaled records are shape-checked
/// against their chunk, so an undecodable or mismatched record
/// recomputes rather than misattributes.
///
/// Returns the outcomes of every surviving chunk in fault order plus
/// one [`QuarantinedChunk`] per chunk that panicked twice. Chunks found
/// in `journal` are restored verbatim instead of resimulated
/// ([`ProgressEvent::PackRestored`]); journaled quarantine verdicts are
/// likewise replayed, so a resumed campaign reproduces the original
/// incident list without re-panicking.
pub fn run_campaign_quarantined(
    engine: &dyn Engine,
    sys: &System,
    golden: &GoldenTrace,
    faults: &[StuckAt],
    progress: &dyn Progress,
    journal: Option<&CampaignJournal>,
) -> (Vec<CampaignOutcome>, Vec<QuarantinedChunk>) {
    enum ChunkOutcome {
        Computed {
            outcomes: Vec<CampaignOutcome>,
            cycles: u64,
            elapsed: std::time::Duration,
        },
        Restored(Vec<CampaignOutcome>),
        ReplayedQuarantine(String),
    }
    let chunks: Vec<&[StuckAt]> = faults.chunks(MAX_PARALLEL_FAULTS).collect();
    progress.event(ProgressEvent::WorkPlanned {
        phase: Phase::FaultSim,
        items: chunks.len(),
    });
    let slots = par_map_indexed_caught(engine.threads(), chunks.len(), |i| {
        let chunk = chunks[i];
        if let Some(j) = journal {
            if let Some(words) = j.get(RecordKind::FaultSim, i as u64) {
                if let Some(outcomes) = decode_outcomes(&words, chunk) {
                    return ChunkOutcome::Restored(outcomes);
                }
                if words.first() == Some(&CHUNK_QUARANTINED) {
                    if let Some((message, _)) = decode_str(&words[1..]) {
                        return ChunkOutcome::ReplayedQuarantine(message);
                    }
                }
                // Undecodable payload: fall through and resimulate.
            }
        }
        // Wall time is measured here in the worker (the coordinating
        // thread replays events post-hoc, long after the work ran).
        let started = std::time::Instant::now();
        let (outcomes, cycles) = engine.run_counted(sys, golden, chunk);
        let elapsed = started.elapsed();
        if let Some(j) = journal {
            j.record(RecordKind::FaultSim, i as u64, &encode_outcomes(&outcomes));
        }
        ChunkOutcome::Computed {
            outcomes,
            cycles,
            elapsed,
        }
    });

    let mut all = Vec::with_capacity(faults.len());
    let mut quarantined = Vec::new();
    // Records allocate (fault-id rendering), so only build them when a
    // sink asked; this loop runs post-hoc on the coordinating thread in
    // chunk order, keeping the trace layout deterministic.
    let tracing = progress.wants_records();
    let chunk_ids = |chunk: &[StuckAt]| chunk.iter().map(StuckAt::to_string).collect::<Vec<_>>();
    let chunk_record = |i: usize, outcomes: &[CampaignOutcome], cycles, elapsed, restored| {
        let mut detected = 0;
        let mut potential = 0;
        for o in outcomes {
            match o.detection {
                Detection::Detected { .. } => detected += 1,
                Detection::Potential { .. } => potential += 1,
                Detection::NotDetected => {}
            }
        }
        TraceRecord::ChunkSimulated {
            chunk: i,
            fault_ids: chunk_ids(chunks[i]),
            detected,
            potential,
            cycles,
            elapsed,
            restored,
        }
    };
    for (i, slot) in slots.into_iter().enumerate() {
        let mut quarantine = |message: String, journal_it: bool| {
            if journal_it {
                if let Some(j) = journal {
                    let mut words = vec![CHUNK_QUARANTINED];
                    words.extend(encode_str(&message));
                    j.record(RecordKind::FaultSim, i as u64, &words);
                }
            }
            progress.event(ProgressEvent::PackQuarantined {
                faults: chunks[i].len(),
            });
            if tracing {
                progress.record(&TraceRecord::Quarantined {
                    kind: WorkKind::FaultSimChunk,
                    index: i,
                    fault_ids: chunk_ids(chunks[i]),
                    message: message.clone(),
                    journal_key: journal.map(|_| RecordKind::FaultSim.key(i as u64)),
                });
            }
            quarantined.push(QuarantinedChunk {
                chunk: i,
                faults: chunks[i].to_vec(),
                message,
            });
        };
        match slot {
            Ok(ChunkOutcome::Computed {
                outcomes,
                cycles,
                elapsed,
            }) => {
                progress.event(ProgressEvent::CyclesSimulated { cycles });
                for o in &outcomes {
                    progress.event(ProgressEvent::FaultSimulated {
                        dropped: o.detection.is_detected(),
                    });
                }
                if tracing {
                    progress.record(&chunk_record(i, &outcomes, cycles, elapsed, false));
                }
                all.extend(outcomes);
            }
            Ok(ChunkOutcome::Restored(outcomes)) => {
                progress.event(ProgressEvent::PackRestored {
                    faults: chunks[i].len(),
                });
                if tracing {
                    progress.record(&chunk_record(
                        i,
                        &outcomes,
                        0,
                        std::time::Duration::ZERO,
                        true,
                    ));
                }
                all.extend(outcomes);
            }
            Ok(ChunkOutcome::ReplayedQuarantine(message)) => quarantine(message, false),
            Err(panic) => quarantine(panic.message, true),
        }
    }
    (all, quarantined)
}

/// Convenience wrapper: campaign with no observer.
pub fn run_with(
    engine: &dyn Engine,
    sys: &System,
    golden: &GoldenTrace,
    faults: &[StuckAt],
) -> Vec<CampaignOutcome> {
    run_campaign(engine, sys, golden, faults, &NullProgress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{golden_trace, RunConfig};
    use crate::system::tests::toy_system;
    use sfr_tpg::TestSet;

    fn setup() -> (System, GoldenTrace, Vec<StuckAt>) {
        let sys = toy_system();
        let ts = TestSet::pseudorandom(sys.pattern_width(), 120, 0xACE1).unwrap();
        let golden = golden_trace(&sys, &ts, &RunConfig::default());
        let faults = sys.controller_faults();
        (sys, golden, faults)
    }

    #[test]
    fn serial_and_tape_engines_agree() {
        let (sys, golden, faults) = setup();
        let reference = SerialEngine.run(&sys, &golden, &faults);
        for threads in [1, 2, 8] {
            let got = EngineKind::Tape(threads)
                .build()
                .run(&sys, &golden, &faults);
            assert_eq!(
                got, reference,
                "tape on {threads} threads disagrees with serial"
            );
        }
    }

    #[test]
    fn tape_is_byte_identical_at_any_thread_count_including_cycles() {
        let (sys, golden, faults) = setup();
        let (one, one_cycles) = TapeEngine::new(1).run_counted(&sys, &golden, &faults);
        for threads in [2, 3, 8] {
            let (tape, cycles) = TapeEngine::new(threads).run_counted(&sys, &golden, &faults);
            assert_eq!(tape, one, "threads = {threads}");
            assert_eq!(cycles, one_cycles, "threads = {threads}");
        }
    }

    #[test]
    fn engine_kind_parses_cli_names() {
        assert_eq!(EngineKind::parse("serial", 4), Some(EngineKind::Serial));
        assert_eq!(EngineKind::parse("tape", 4), Some(EngineKind::Tape(4)));
        for retired in ["lane", "threaded", "tape-wide", "warp"] {
            assert_eq!(EngineKind::parse(retired, 4), None, "{retired}");
        }
        assert_eq!(EngineKind::default(), EngineKind::Tape(1));
    }

    #[test]
    fn campaign_reports_one_event_per_fault() {
        let (sys, golden, faults) = setup();
        let counters = sfr_exec::Counters::new();
        let outcomes = run_campaign(&TapeEngine::new(1), &sys, &golden, &faults, &counters);
        let snap = counters.snapshot();
        assert_eq!(snap.faults_simulated, faults.len());
        let detected = outcomes
            .iter()
            .filter(|o| o.detection.is_detected())
            .count();
        assert_eq!(snap.faults_dropped, detected);
    }
}

//! The fault-simulation engines behind one trait.
//!
//! [`TapeEngine`] is the production engine: 63-fault batches on the
//! compiled op tape ([`sfr_netlist::TapeSim`]). [`SerialEngine`] is the
//! scalar reference: one [`sfr_netlist::CycleSim`] run per fault, with
//! the same verdict for every fault.
//!
//! [`run_campaign_quarantined`] is the one campaign path, and the one
//! place fault simulation goes parallel: it cuts the fault list into
//! [`MAX_PARALLEL_FAULTS`]-fault chunks and spreads them over the
//! engine's thread count through the journaled, quarantined pack runner
//! ([`run_journaled_packs`]). Chunk boundaries do not depend on the
//! thread count and results are reassembled in chunk order, so
//! verdicts, cycle counts, event streams and trace records are
//! byte-identical at any thread count.

use crate::campaign::{run_serial_counted, run_tape_counted, CampaignOutcome, Detection};
use crate::golden::GoldenTrace;
use crate::packs::{run_journaled_packs, PackBody};
use crate::system::System;
use sfr_exec::{Progress, ProgressEvent, TraceRecord};
use sfr_journal::{CampaignJournal, RecordKind};
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

    /// Runs the campaign: one outcome per fault, in fault order, and the
    /// simulator cycles evaluated, for the observability stream (a stub
    /// that does not count reports 0).
    fn run(
        &self,
        sys: &System,
        golden: &GoldenTrace,
        faults: &[StuckAt],
    ) -> (Vec<CampaignOutcome>, u64);

    /// The worker count this engine represents: the campaign spreads
    /// its chunks over it, and downstream per-fault stages
    /// (controller-table analysis, the symbolic oracle, power grading)
    /// shard to the same width. 1 for the serial engine.
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

    fn run(
        &self,
        sys: &System,
        golden: &GoldenTrace,
        faults: &[StuckAt],
    ) -> (Vec<CampaignOutcome>, u64) {
        run_serial_counted(sys, golden, faults)
    }
}

/// Compiled op-tape kernel: 63 faults per pass. Its thread count is
/// the width [`run_campaign_quarantined`] and the later phases spread
/// their work over; [`Engine::run`] itself simulates on the calling
/// thread.
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

    fn run(
        &self,
        sys: &System,
        golden: &GoldenTrace,
        faults: &[StuckAt],
    ) -> (Vec<CampaignOutcome>, u64) {
        run_tape_counted(sys, golden, faults)
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

/// One simulated chunk: its verdicts, and the simulator cycles they
/// cost (0 when restored from a journal — nothing was simulated).
struct SimulatedChunk {
    outcomes: Vec<CampaignOutcome>,
    cycles: u64,
}

/// The journal body is the verdict count, then a (detection tag,
/// detection cycle) word pair per fault; the simulator cycle count is
/// not journaled.
impl PackBody for SimulatedChunk {
    fn encode_body(&self) -> Vec<u64> {
        let mut words = vec![self.outcomes.len() as u64];
        for o in &self.outcomes {
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

    /// Shape-checked against the fault slice the chunk was keyed to, so
    /// a mismatched record recomputes rather than misattributes.
    fn decode_body(words: &[u64], faults: &[StuckAt]) -> Option<Self> {
        let n = usize::try_from(*words.first()?).ok()?;
        if n != faults.len() || words.len() != 1 + 2 * n {
            return None;
        }
        let mut outcomes = Vec::with_capacity(n);
        for (&fault, pair) in faults.iter().zip(words[1..].chunks(2)) {
            let cycle = usize::try_from(pair[1]).ok()?;
            let detection = match pair[0] {
                0 => Detection::NotDetected,
                1 => Detection::Detected { cycle },
                2 => Detection::Potential { cycle },
                _ => return None,
            };
            outcomes.push(CampaignOutcome { fault, detection });
        }
        Some(SimulatedChunk {
            outcomes,
            cycles: 0,
        })
    }
}

/// The crash-safe, fault-isolated fault-simulation campaign: the fault
/// list is cut into [`MAX_PARALLEL_FAULTS`]-sized chunks (the same
/// boundaries the tape engine already batches on, so verdicts are
/// unchanged) and run through [`run_journaled_packs`] — journaled chunks
/// are restored and journaled quarantines replayed, the rest simulate
/// under panic quarantine and are checkpointed to `journal`.
///
/// Returns the outcomes of every surviving chunk in fault order plus
/// one [`QuarantinedChunk`] per quarantined chunk. Reports one
/// [`ProgressEvent::FaultSimulated`] per simulated fault (a detected
/// fault is dropped from further phases).
pub fn run_campaign_quarantined(
    engine: &dyn Engine,
    sys: &System,
    golden: &GoldenTrace,
    faults: &[StuckAt],
    progress: &dyn Progress,
    journal: Option<&CampaignJournal>,
) -> (Vec<CampaignOutcome>, Vec<QuarantinedChunk>) {
    let chunks: Vec<&[StuckAt]> = faults.chunks(MAX_PARALLEL_FAULTS).collect();
    // Records allocate (fault-id rendering), so only build them when a
    // sink asked.
    let tracing = progress.wants_records();
    let slots = run_journaled_packs(
        RecordKind::FaultSim,
        &chunks,
        engine.threads(),
        progress,
        journal,
        |chunk| {
            let (outcomes, cycles) = engine.run(sys, golden, chunk);
            SimulatedChunk { outcomes, cycles }
        },
        |i, chunk: &SimulatedChunk, elapsed| {
            if elapsed.is_some() {
                progress.event(ProgressEvent::CyclesSimulated {
                    cycles: chunk.cycles,
                });
                for o in &chunk.outcomes {
                    progress.event(ProgressEvent::FaultSimulated {
                        dropped: o.detection.is_detected(),
                    });
                }
            }
            if tracing {
                let mut detected = 0;
                let mut potential = 0;
                for o in &chunk.outcomes {
                    match o.detection {
                        Detection::Detected { .. } => detected += 1,
                        Detection::Potential { .. } => potential += 1,
                        Detection::NotDetected => {}
                    }
                }
                progress.record(&TraceRecord::ChunkSimulated {
                    chunk: i,
                    fault_ids: chunks[i].iter().map(StuckAt::to_string).collect(),
                    detected,
                    potential,
                    cycles: chunk.cycles,
                    elapsed: elapsed.unwrap_or_default(),
                    restored: elapsed.is_none(),
                });
            }
        },
    );
    let mut all = Vec::with_capacity(faults.len());
    let mut quarantined = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Ok(chunk) => all.extend(chunk.outcomes),
            Err(message) => quarantined.push(QuarantinedChunk {
                chunk: i,
                faults: chunks[i].to_vec(),
                message,
            }),
        }
    }
    (all, quarantined)
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
        let (reference, _) = SerialEngine.run(&sys, &golden, &faults);
        let (tape, _) = EngineKind::Tape(1).build().run(&sys, &golden, &faults);
        assert_eq!(tape, reference, "tape disagrees with serial");
    }

    /// Keeps the [`TraceRecord::ChunkSimulated`] records a campaign
    /// emits, with their wall times zeroed.
    #[derive(Default)]
    struct ChunkRecords(std::sync::Mutex<Vec<TraceRecord>>);

    impl Progress for ChunkRecords {
        fn event(&self, _event: ProgressEvent) {}

        fn record(&self, record: &TraceRecord) {
            if let TraceRecord::ChunkSimulated { .. } = record {
                let mut record = record.clone();
                if let TraceRecord::ChunkSimulated { elapsed, .. } = &mut record {
                    *elapsed = std::time::Duration::ZERO;
                }
                self.0.lock().expect("records lock").push(record);
            }
        }

        fn wants_records(&self) -> bool {
            true
        }
    }

    #[test]
    fn campaign_is_byte_identical_at_any_thread_count_including_cycles() {
        let (sys, golden, faults) = setup();
        // Three copies of the universe span several chunks.
        let faults: Vec<StuckAt> = faults
            .iter()
            .cycle()
            .take(3 * faults.len())
            .copied()
            .collect();
        let campaign = |threads: usize| {
            let counters = sfr_exec::Counters::new();
            let records = ChunkRecords::default();
            let sinks: [&dyn Progress; 2] = [&counters, &records];
            let (outcomes, quarantined) = run_campaign_quarantined(
                &TapeEngine::new(threads),
                &sys,
                &golden,
                &faults,
                &sfr_exec::Tee::new(&sinks),
                None,
            );
            assert!(quarantined.is_empty(), "threads = {threads}");
            let records = records.0.into_inner().expect("records lock");
            (outcomes, counters.snapshot().cycles_simulated, records)
        };
        let one = campaign(1);
        assert_eq!(one.0.len(), faults.len());
        assert!(one.1 > 0, "chunks account their cycles");
        assert_eq!(one.2.len(), faults.len().div_ceil(MAX_PARALLEL_FAULTS));
        assert!(one.2.len() > 1, "the campaign spans several chunks");
        for threads in [2, 3, 8] {
            assert_eq!(campaign(threads), one, "threads = {threads}");
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
        let (outcomes, quarantined) =
            run_campaign_quarantined(&TapeEngine::new(1), &sys, &golden, &faults, &counters, None);
        assert!(quarantined.is_empty());
        let snap = counters.snapshot();
        assert_eq!(snap.faults_simulated, faults.len());
        let detected = outcomes
            .iter()
            .filter(|o| o.detection.is_detected())
            .count();
        assert_eq!(snap.faults_dropped, detected);
    }

    #[test]
    fn chunk_body_roundtrips_and_rejects_bad_shapes() {
        let (sys, golden, faults) = setup();
        let chunk = &faults[..MAX_PARALLEL_FAULTS.min(faults.len())];
        let (outcomes, _) = TapeEngine::new(1).run(&sys, &golden, chunk);
        let words = SimulatedChunk {
            outcomes: outcomes.clone(),
            cycles: 99,
        }
        .encode_body();
        let back = SimulatedChunk::decode_body(&words, chunk).expect("roundtrips");
        assert_eq!(back.outcomes, outcomes);
        assert_eq!(back.cycles, 0, "cycles are not journaled");
        // A record for another chunk size, a truncated record, an
        // unknown detection tag and an empty record all recompute.
        assert!(SimulatedChunk::decode_body(&words, &chunk[1..]).is_none());
        assert!(SimulatedChunk::decode_body(&words[..words.len() - 1], chunk).is_none());
        let mut retagged = words.clone();
        retagged[1] = 3;
        assert!(SimulatedChunk::decode_body(&retagged, chunk).is_none());
        assert!(SimulatedChunk::decode_body(&[], chunk).is_none());
    }
}

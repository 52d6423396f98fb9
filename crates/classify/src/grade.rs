//! Power grading of SFR faults (Sections 4–6 of the paper).
//!
//! SFR faults are invisible at the data outputs, but they change dynamic
//! power. Each fault is graded by Monte Carlo power simulation — batches
//! of runs with fresh pseudorandom data until the mean converges — and
//! *flagged* when its percentage change from the fault-free baseline
//! exceeds a tolerance band (the paper uses ±5%).
//!
//! Grading is **lane-packed** on the compiled op tape: up to
//! [`MAX_PARALLEL_FAULTS`] faults plus the fault-free baseline (lane 0)
//! share every simulation pass of one [`TapeSim`], with per-lane
//! switching activity accumulated bit-parallel
//! ([`sfr_netlist::TapeActivity`]). Lane 0 doubles as a baseline-activity
//! cache: the separate fault-free Monte Carlo the scalar path runs per
//! design comes for free with pack 0. Every lane is an exact dual-rail
//! simulation, so lane-packed grades are bit-identical to the scalar
//! reference path ([`grade_faults_scalar_with`]) — same means,
//! percentages, and flags at any thread count.

use sfr_exec::{
    ordered_waves, par_map_indexed_caught, LaneGrade, Phase, PhaseTimer, Progress, ProgressEvent,
    TraceRecord, WorkKind,
};
use sfr_faultsim::{RunConfig, SimKernel, System};
use sfr_journal::{decode_str, encode_str, CampaignJournal, RecordKind};
use sfr_netlist::{CycleSim, Logic, StuckAt, TapeProgram, TapeSim, MAX_PARALLEL_FAULTS};
use sfr_power_model::{
    power_from_activity_where, power_from_tape_activity_where, run_monte_carlo,
    run_monte_carlo_lanes, MonteCarloConfig, MonteCarloResult, PowerConfig, PowerReport,
};
use sfr_tpg::TestSet;

/// Configuration for power measurement and grading.
#[derive(Debug, Clone)]
pub struct GradeConfig {
    /// Electrical operating point.
    pub power: PowerConfig,
    /// Monte Carlo convergence settings.
    pub mc: MonteCarloConfig,
    /// Patterns per Monte Carlo batch.
    pub patterns_per_batch: usize,
    /// Base TPGR seed (batch `i` uses `seed + i`).
    pub seed: u32,
    /// Run shaping (loop guard, hold cycles).
    pub run: RunConfig,
    /// Detection tolerance band, percent (the paper's 5%).
    pub threshold_pct: f64,
}

impl Default for GradeConfig {
    fn default() -> Self {
        GradeConfig {
            power: PowerConfig::default(),
            mc: MonteCarloConfig {
                rel_tolerance: 0.01,
                min_batches: 6,
                max_batches: 60,
            },
            patterns_per_batch: 120,
            seed: 0xACE1,
            // Power runs are tester-bounded: a run that has not reached
            // HOLD after 64 cycles is reset (looping benchmarks can
            // otherwise wander for an entire batch, starving HOLD-state
            // activity of coverage).
            run: RunConfig {
                max_cycles_per_run: 64,
                hold_cycles: 2,
                cycle_budget: 0,
            },
            threshold_pct: 5.0,
        }
    }
}

/// One SFR fault's power grade.
#[derive(Debug, Clone, Copy)]
pub struct PowerGrade {
    /// The fault.
    pub fault: StuckAt,
    /// Monte Carlo mean datapath power under the fault, µW.
    pub mean_uw: f64,
    /// Percentage change from the fault-free baseline.
    pub pct_change: f64,
    /// Whether the change escapes the tolerance band.
    pub flagged: bool,
}

/// Measures datapath power for one (optionally faulty) system over a
/// specific test set — the paper's Table 3 measurement.
///
/// Runs start from a known state (datapath registers cleared) so that
/// switching activity is fully defined; power is accounted over the
/// datapath only (every gate outside the controller's range), matching
/// the paper's "power consumed by the datapath".
///
/// Run boundaries are the tester's: each run ends when the *fault-free*
/// controller has held HOLD for the configured tail, so a faulty system
/// is measured over exactly the fault-free schedule. A fault simulation
/// therefore steps a fault-free companion simulator alongside. That
/// matters for looping designs, where an SFR fault can change the
/// controller's own sequencing (extra loop iterations, say) without
/// ever changing a data output.
pub fn measure_power_with_testset(
    sys: &System,
    fault: Option<StuckAt>,
    ts: &TestSet,
    cfg: &GradeConfig,
) -> PowerReport {
    let mut sim = match fault {
        Some(f) => CycleSim::with_fault(&sys.netlist, f),
        None => CycleSim::new(&sys.netlist),
    };
    let mut fault_free = fault.map(|_| CycleSim::new(&sys.netlist));
    sim.track_activity(true);
    let hold = sys.meta.hold_state();
    let ceiling = cfg.run.run_ceiling();
    let mut idx = 0usize;
    while idx < ts.len() {
        sys.reset_sim(&mut sim, Logic::Zero);
        if let Some(ff) = fault_free.as_mut() {
            sys.reset_sim(ff, Logic::Zero);
        }
        let mut len = 0usize;
        let mut in_hold_for = 0usize;
        while idx < ts.len() && len < ceiling {
            let pattern = ts.patterns()[idx];
            idx += 1;
            len += 1;
            sys.apply_pattern(&mut sim, pattern);
            sim.eval();
            let st = match fault_free.as_mut() {
                Some(ff) => {
                    sys.apply_pattern(ff, pattern);
                    ff.eval();
                    let st = sys.decode_state(ff);
                    ff.clock();
                    st
                }
                None => sys.decode_state(&sim),
            };
            sim.clock();
            if st == Some(hold) {
                in_hold_for += 1;
                if in_hold_for > cfg.run.hold_cycles {
                    break;
                }
            }
        }
    }
    power_from_activity_where(&sys.netlist, sim.activity(), &cfg.power, |g| {
        !sys.is_controller_gate(g)
    })
}

/// Lane-packed [`measure_power_with_testset`] on a compiled tape: one
/// pass measures the fault-free baseline (lane 0) and every fault baked
/// into `prog` at once, returning one [`PowerReport`] per lane
/// (`reports[0]` fault-free, `reports[1 + i]` under `prog.faults()[i]`)
/// plus the watchdog's stall mask.
///
/// Run boundaries are steered by decoding **lane 0** — the fault-free
/// controller — which is exact for the baseline and equal to each fault
/// lane's own sequencing because SFR faults never alter the controller's
/// state sequence (the same guarantee the scalar path already leans on).
/// Per-run resets overwrite sequential state only, so the toggle edge
/// between consecutive runs is counted exactly as the scalar path counts
/// it; every report is bit-identical to a scalar measurement of that
/// lane's circuit.
///
/// Bit `i` of the stall mask is set when `prog.faults()[i]`'s lane was
/// *not* in HOLD at the end of a run the fault-free lane completed
/// normally — i.e. the fault stalled or diverted the controller's
/// sequencing and would run away without the tester-imposed ceiling
/// ([`RunConfig::run_ceiling`]). The criterion is relative to lane 0 on
/// the same data, so runs the fault-free machine itself cannot finish
/// (looping benchmarks hitting the loop guard) flag nobody. The
/// watchdog is armed by [`RunConfig::cycle_budget`]; with the default
/// budget of 0 the mask is always 0.
pub fn measure_power_tape_watched(
    sys: &System,
    prog: &TapeProgram<u64>,
    ts: &TestSet,
    cfg: &GradeConfig,
) -> (Vec<PowerReport>, u64) {
    let mut sim = TapeSim::new(prog);
    measure_power_tape_watched_with(sys, &mut sim, ts, cfg)
}

/// [`measure_power_tape_watched`] over a caller-owned [`TapeSim`], so
/// consecutive Monte Carlo batches reuse one sim's buffers (slot
/// arrays, deviation scratch, activity counter rows) instead of
/// reallocating them per batch. Activity counters restart from zero on
/// every call; reports are identical to the fresh-sim form.
fn measure_power_tape_watched_with(
    sys: &System,
    sim: &mut TapeSim<'_, u64>,
    ts: &TestSet,
    cfg: &GradeConfig,
) -> (Vec<PowerReport>, u64) {
    let n_faults = sim.faults().len();
    sim.track_activity(true);
    let hold = sys.meta.hold_state();
    let ceiling = cfg.run.run_ceiling();
    let armed = cfg.run.cycle_budget != 0;
    let mut idx = 0usize;
    let mut stalled = 0u64;
    while idx < ts.len() {
        sys.reset_tape(sim, Logic::Zero);
        let mut len = 0usize;
        let mut in_hold_for = 0usize;
        while idx < ts.len() && len < ceiling {
            sys.apply_pattern_tape(sim, ts.patterns()[idx]);
            idx += 1;
            len += 1;
            sim.eval();
            let st = sys.decode_state_tape_lane(sim, 0);
            let ending = armed && st == Some(hold) && in_hold_for + 1 > cfg.run.hold_cycles;
            if ending {
                // Lane 0 completed this run; a fault lane still outside
                // HOLD at the same instant has lost the sequence.
                for i in 0..n_faults {
                    if stalled >> i & 1 == 0 && sys.decode_state_tape_lane(sim, i + 1) != Some(hold)
                    {
                        stalled |= 1 << i;
                    }
                }
            }
            sim.clock();
            if st == Some(hold) {
                in_hold_for += 1;
                if in_hold_for > cfg.run.hold_cycles {
                    break;
                }
            }
        }
    }
    let act = sim.activity().expect("tracking enabled above");
    let reports = power_from_tape_activity_where(&sys.netlist, act, &cfg.power, |g| {
        !sys.is_controller_gate(g)
    });
    (reports, stalled)
}

/// One Monte Carlo batch: fresh pseudorandom data keyed by the *batch
/// index* (never by the executing thread), so every estimation draws
/// identical samples.
fn mc_batch(sys: &System, fault: Option<StuckAt>, cfg: &GradeConfig, batch: usize) -> PowerReport {
    let ts = batch_testset(sys, cfg, batch);
    measure_power_with_testset(sys, fault, &ts, cfg)
}

/// The pseudorandom test set of Monte Carlo batch `batch` — shared by
/// the scalar and lane-packed paths, so their sample streams align.
fn batch_testset(sys: &System, cfg: &GradeConfig, batch: usize) -> TestSet {
    TestSet::pseudorandom(
        sys.pattern_width(),
        cfg.patterns_per_batch,
        cfg.seed.wrapping_add(batch as u32),
    )
    .expect("the system's test patterns fit one 64-bit word")
}

/// Monte Carlo datapath power of an (optionally faulty) system.
pub fn measure_power_monte_carlo(
    sys: &System,
    fault: Option<StuckAt>,
    cfg: &GradeConfig,
) -> MonteCarloResult {
    run_monte_carlo(&cfg.mc, |batch| mc_batch(sys, fault, cfg, batch))
}

/// One resilience incident observed while grading.
#[derive(Debug, Clone, PartialEq)]
pub enum GradeIncident {
    /// A whole lane pack panicked twice and was quarantined: its faults
    /// carry no grade, the rest of the study is unaffected.
    QuarantinedPack {
        /// Pack index (chunks of [`MAX_PARALLEL_FAULTS`] faults).
        pack: usize,
        /// The faults that were in the pack.
        faults: Vec<StuckAt>,
        /// The panic payload message.
        message: String,
    },
    /// The watchdog caught a fault whose lane was still outside HOLD
    /// when the fault-free lane finished a run: a runaway/stalling
    /// fault, graded on budget-bounded cycles and reported distinctly.
    BudgetExhausted {
        /// The runaway fault.
        fault: StuckAt,
    },
}

/// The full grading outcome: baseline, per-fault grades (faults in
/// quarantined packs are absent), and the incident list.
#[derive(Debug, Clone)]
pub struct GradeReport {
    /// Fault-free Monte Carlo baseline (lane 0 of pack 0).
    pub baseline: MonteCarloResult,
    /// One grade per successfully graded fault, in input order.
    pub grades: Vec<PowerGrade>,
    /// Quarantine and watchdog incidents, in pack/fault order.
    pub incidents: Vec<GradeIncident>,
}

/// What one pack contributed: either its lane estimations plus the
/// accumulated watchdog stall mask, or a quarantine record.
enum PackOutcome {
    Computed {
        results: Vec<MonteCarloResult>,
        /// Watchdog stall mask (bit `i` covers the pack's fault `i`).
        stalls: u64,
        restored: bool,
        /// Simulator cycles the pack's Monte Carlo loop evaluated
        /// (0 when restored from a journal — nothing was simulated).
        cycles: u64,
        /// Wall time spent simulating, measured inside the worker.
        elapsed: std::time::Duration,
    },
    Quarantined {
        message: String,
    },
}

/// Journal payload tags for grade packs.
const PACK_OK: u64 = 0;
const PACK_QUARANTINED: u64 = 1;

fn encode_pack(results: &[MonteCarloResult], stalls: u64) -> Vec<u64> {
    let mut words = vec![PACK_OK, stalls, results.len() as u64];
    for r in results {
        words.push(r.mean_uw.to_bits());
        words.push(r.half_width_uw.to_bits());
        words.push(r.batches as u64);
        words.push(u64::from(r.converged));
    }
    words
}

fn encode_quarantine(message: &str) -> Vec<u64> {
    let mut words = vec![PACK_QUARANTINED];
    words.extend(encode_str(message));
    words
}

/// Decodes a journaled pack payload; `None` means the payload is not a
/// valid record for a pack with `lanes` lanes (the pack is recomputed).
fn decode_pack(words: &[u64], lanes: usize) -> Option<PackOutcome> {
    match *words.first()? {
        PACK_OK => {
            let stalls = *words.get(1)?;
            let n = usize::try_from(*words.get(2)?).ok()?;
            if n != lanes || words.len() != 3 + 4 * n {
                return None;
            }
            let results = words[3..]
                .chunks(4)
                .map(|c| MonteCarloResult {
                    mean_uw: f64::from_bits(c[0]),
                    half_width_uw: f64::from_bits(c[1]),
                    batches: c[2] as usize,
                    converged: c[3] != 0,
                })
                .collect();
            Some(PackOutcome::Computed {
                results,
                stalls,
                restored: true,
                cycles: 0,
                elapsed: std::time::Duration::ZERO,
            })
        }
        PACK_QUARANTINED => {
            let (message, _) = decode_str(&words[1..])?;
            Some(PackOutcome::Quarantined { message })
        }
        _ => None,
    }
}

/// Tape-kernel shape counters the always-on self-profiler captures per
/// computed pack: program size, levelized depth, baked-in force ops,
/// and the delta sweep's dirty-column count from the last batch the
/// stopping rule consumed. Pure diagnostics — never journaled, never
/// fingerprinted.
#[derive(Debug, Default, Clone, Copy)]
struct PackProf {
    ops: usize,
    levels: usize,
    force_ops: usize,
    lanes: usize,
    dirty_nets: usize,
    nets: usize,
}

/// Lane capacity of one grade pack under `kernel` — the number of
/// faults that share a simulation pass with the fault-free baseline on
/// lane 0. This is the unit of work a distributed campaign hands out:
/// pack `p` covers `faults[p*cap .. (p+1)*cap]`.
pub fn grade_pack_capacity(kernel: SimKernel) -> usize {
    match kernel {
        SimKernel::Tape => MAX_PARALLEL_FAULTS,
    }
}

/// Number of grade packs `n_faults` faults occupy under `kernel`.
/// Pack 0 always exists — with no faults to grade it still carries the
/// fault-free baseline on lane 0.
pub fn grade_pack_count(n_faults: usize, kernel: SimKernel) -> usize {
    n_faults.div_ceil(grade_pack_capacity(kernel)).max(1)
}

/// The fault slice of pack `pack` under `kernel` (empty for the
/// baseline-only pack 0 of an empty fault universe, and for any pack
/// index past the end).
pub fn grade_pack_slice(faults: &[StuckAt], pack: usize, kernel: SimKernel) -> &[StuckAt] {
    let cap = grade_pack_capacity(kernel);
    let lo = pack.saturating_mul(cap).min(faults.len());
    let hi = pack.saturating_add(1).saturating_mul(cap).min(faults.len());
    &faults[lo..hi]
}

/// One pack's full Monte Carlo estimation: per-lane results (lane 0
/// fault-free first), the accumulated watchdog stall mask, the
/// simulated cycle count, and the self-profiler's tape shape counters.
/// The first three are a pure function of `(sys, pack, cfg)` — every
/// caller (local grading, a remote shard worker) produces bit-identical
/// words for the same pack, on any number of workers; the profile is
/// diagnostic only and never enters a payload or journal.
///
/// The pack's [`TapeProgram`] is compiled once and shared. Its batches
/// run on `workers` threads through [`ordered_waves`]: each worker
/// reuses one [`TapeSim`] for every batch it computes, and the stopping
/// rule ([`run_monte_carlo_lanes`]) consumes batches in index order.
/// Batch `i` depends only on `i`, so which worker ran it does not
/// matter. Stall mask, cycles and the profile's dirty-column count
/// come from consumed batches only; the at most `workers − 1` batches
/// computed past the last lane's stop are dropped unread.
fn run_pack(
    sys: &System,
    pack: &[StuckAt],
    cfg: &GradeConfig,
    workers: usize,
) -> (Vec<MonteCarloResult>, u64, u64, PackProf) {
    let prog =
        TapeProgram::<u64>::compile(&sys.netlist, pack).expect("packs never exceed the lane limit");
    let mut stalls = 0u64;
    let mut cycles = 0u64;
    let mut dirty_nets = 0usize;
    let results = ordered_waves(
        workers,
        || TapeSim::new(&prog),
        |sim, batch| {
            let ts = batch_testset(sys, cfg, batch);
            let (reports, batch_stalls) = measure_power_tape_watched_with(sys, sim, &ts, cfg);
            let dirty = sim.activity().map_or(0, |a| a.dirty_net_columns());
            (reports, batch_stalls, dirty)
        },
        |next| {
            run_monte_carlo_lanes(&cfg.mc, pack.len() + 1, |batch| {
                let (reports, batch_stalls, dirty) = next(batch);
                stalls |= batch_stalls;
                // All lanes share one schedule; lane 0's cycle count is
                // the pack's per-batch simulation cost.
                cycles += reports[0].cycles;
                dirty_nets = dirty;
                reports
            })
        },
    );
    let prof = PackProf {
        ops: prog.len(),
        levels: prog.level_count(),
        force_ops: prog.force_op_count(),
        lanes: prog.lanes(),
        dirty_nets,
        nets: prog.net_count(),
    };
    (results, stalls, cycles, prof)
}

/// Computes pack `pack` of `faults` exactly as
/// [`grade_faults_journaled_with_kernel`] would and returns the journal
/// payload words — the byte-exact [`RecordKind::GradePack`] record a
/// shard coordinator merges via [`CampaignJournal::record`]. Panics in
/// the simulation are retried once and then normalized into a
/// quarantine payload, mirroring the local path, so a remote worker
/// reports a poisoned pack instead of crashing the campaign.
pub fn compute_pack_payload(
    sys: &System,
    faults: &[StuckAt],
    pack: usize,
    cfg: &GradeConfig,
    kernel: SimKernel,
) -> Vec<u64> {
    let slice = grade_pack_slice(faults, pack, kernel);
    let outcome = par_map_indexed_caught(1, 1, |_| run_pack(sys, slice, cfg, 1))
        .into_iter()
        .next()
        .expect("one task was submitted");
    match outcome {
        Ok((results, stalls, _cycles, _prof)) => encode_pack(&results, stalls),
        Err(panic) => encode_quarantine(&panic.message),
    }
}

/// Coordinator-side shape check for a pack payload received over the
/// wire: `true` iff `words` decode as a computed or quarantined record
/// for pack `pack` of `faults` under `kernel`. Recording an arbitrary
/// payload would poison the journal with an undecodable (or worse,
/// wrong-shaped-but-decodable) record, so garbage from a confused
/// worker is rejected before it reaches the merge path.
pub fn validate_pack_payload(
    words: &[u64],
    faults: &[StuckAt],
    pack: usize,
    kernel: SimKernel,
) -> bool {
    let slice = grade_pack_slice(faults, pack, kernel);
    decode_pack(words, slice.len() + 1).is_some()
}

/// The grading entry point: lane-packed Monte Carlo grading on the
/// compiled tape, sharded across `threads` workers, with checkpoint
/// journaling, panic quarantine, and watchdog reporting. Packs run in
/// parallel; when there are fewer packs than threads, each pack's
/// Monte Carlo batches are also spread over `threads / packs` workers
/// (see [`ordered_waves`]). Returns the baseline, one [`PowerGrade`]
/// per fault in input order, and the incident list. Reports one [`ProgressEvent::MonteCarlo`] per
/// estimation (faults + baseline), one [`ProgressEvent::GradePack`] per
/// computed pack, and one [`ProgressEvent::FaultGraded`] per fault.
///
/// Batches are *paired*: fault `f`'s batch `i` uses the same
/// pseudorandom data as the baseline's batch `i`, which removes
/// test-set variance from the percentage change (the quantity Table 3
/// shows to be stable across test sets). `kernel` selects the pack
/// width ([`grade_pack_capacity`]): pack `p` covers
/// `faults[p*cap .. (p+1)*cap]` plus the baseline lane, and pack 0's
/// lane 0 *is* the fault-free Monte Carlo estimation. Each lane's
/// convergence is the serial stopping rule replayed on that lane's own
/// sample prefix ([`run_monte_carlo_lanes`]), and every pack is a pure
/// function of its fault slice — grades are bit-identical to
/// [`grade_faults_scalar_with`] and to themselves at any thread count.
///
/// Per pack:
///
/// * **journal hit** — the pack's estimations (or its quarantine
///   verdict) are restored verbatim from `journal` and the simulation
///   is skipped ([`ProgressEvent::PackRestored`]); because journaled
///   payloads are the bit-exact `f64` words of the original run, a
///   resumed study is bit-identical to an uninterrupted one;
/// * **panic** — the pack is retried once, then quarantined
///   ([`GradeIncident::QuarantinedPack`],
///   [`ProgressEvent::PackQuarantined`]) without poisoning the study;
/// * **watchdog** — a fault whose lane misses HOLD while lane 0
///   completes a run is reported as
///   [`GradeIncident::BudgetExhausted`] (its grade is still emitted,
///   measured over [`RunConfig::run_ceiling`]-bounded runs).
///
/// Completed packs are recorded to `journal` as they finish, so a kill
/// at any instant loses at most the packs still in flight.
///
/// # Panics
///
/// If pack 0 — the pack that carries the fault-free baseline on lane
/// 0 — quarantines, a baseline-only rescue estimation runs (itself
/// retried once); if that also panics the study cannot produce any
/// percentage change and the function panics with the payload message.
#[allow(clippy::too_many_arguments)]
pub fn grade_faults_journaled_with_kernel(
    sys: &System,
    faults: &[StuckAt],
    cfg: &GradeConfig,
    threads: usize,
    progress: &dyn Progress,
    journal: Option<&CampaignJournal>,
    kernel: SimKernel,
) -> GradeReport {
    let _timer = PhaseTimer::start(progress, Phase::Grade);
    let capacity = grade_pack_capacity(kernel);
    // Pack 0 always exists — with no faults to grade it still carries
    // the baseline on lane 0.
    let packs: Vec<&[StuckAt]> = if faults.is_empty() {
        vec![&[]]
    } else {
        faults.chunks(capacity).collect()
    };
    progress.event(ProgressEvent::WorkPlanned {
        phase: Phase::Grade,
        items: packs.len(),
    });
    // Threads the packs leave over go to each pack's Monte Carlo
    // batches: with fewer packs than threads, every pack gets
    // `threads / packs` batch workers.
    let workers = (threads / packs.len()).max(1);
    // Self-profiler side table, indexed by pack. Kept out of
    // `PackOutcome` so the journal payload format (and every
    // decode/restore path) stays untouched by profiling.
    let profiles: std::sync::Mutex<Vec<PackProf>> =
        std::sync::Mutex::new(vec![PackProf::default(); packs.len()]);
    let outcomes = par_map_indexed_caught(threads, packs.len(), |p| {
        let pack = packs[p];
        if let Some(j) = journal {
            if let Some(words) = j.get(RecordKind::GradePack, p as u64) {
                if let Some(outcome) = decode_pack(&words, pack.len() + 1) {
                    return outcome;
                }
                // An undecodable payload (e.g. written by an older
                // format or at another pack width) falls through to
                // recomputation.
            }
        }
        // Cycle and wall-time accounting stays worker-local and is
        // flushed once per pack — the hot lane loop never observes it.
        let started = std::time::Instant::now();
        let (results, stalls, cycles, prof) = run_pack(sys, pack, cfg, workers);
        if let Ok(mut table) = profiles.lock() {
            table[p] = prof;
        }
        if let Some(j) = journal {
            j.record(
                RecordKind::GradePack,
                p as u64,
                &encode_pack(&results, stalls),
            );
        }
        PackOutcome::Computed {
            results,
            stalls,
            restored: false,
            cycles,
            elapsed: started.elapsed(),
        }
    });

    // Normalize panics into quarantine outcomes and journal them, so a
    // resumed study replays the incident instead of re-panicking.
    let outcomes: Vec<PackOutcome> = outcomes
        .into_iter()
        .enumerate()
        .map(|(p, slot)| match slot {
            Ok(outcome) => outcome,
            Err(panic) => {
                if let Some(j) = journal {
                    j.record(
                        RecordKind::GradePack,
                        p as u64,
                        &encode_quarantine(&panic.message),
                    );
                }
                PackOutcome::Quarantined {
                    message: panic.message,
                }
            }
        })
        .collect();

    // Progress accounting, in deterministic pack order. Structured
    // records allocate (fault-id rendering), so they are only built
    // when a sink asked for them — the default path stays free.
    let tracing = progress.wants_records();
    for (p, outcome) in outcomes.iter().enumerate() {
        let n_faults = packs[p].len();
        match outcome {
            PackOutcome::Computed {
                results,
                stalls,
                restored,
                cycles,
                elapsed,
            } => {
                if *restored {
                    progress.event(ProgressEvent::PackRestored { faults: n_faults });
                } else {
                    // One MonteCarlo event per estimation: every pack's
                    // fault lanes, plus the shared baseline (lane 0)
                    // once, from pack 0.
                    for r in results.iter().skip(usize::from(p != 0)) {
                        progress.event(ProgressEvent::MonteCarlo {
                            batches: r.batches,
                            converged: r.converged,
                        });
                    }
                    progress.event(ProgressEvent::CyclesSimulated { cycles: *cycles });
                    progress.event(ProgressEvent::GradePack { faults: n_faults });
                    // Self-profiler flush, in the same deterministic
                    // pack order as every other event. Timings vary
                    // run to run, but the event *sequence* does not.
                    let prof = profiles.lock().map(|t| t[p]).unwrap_or_default();
                    progress.event(ProgressEvent::PackProfile {
                        us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                        ops: prof.ops,
                        levels: prof.levels,
                        force_ops: prof.force_ops,
                        lanes: prof.lanes,
                        dirty_nets: prof.dirty_nets,
                        nets: prof.nets,
                    });
                }
                if tracing {
                    let lanes = results
                        .iter()
                        .enumerate()
                        .map(|(l, r)| LaneGrade {
                            fault: l.checked_sub(1).map(|i| packs[p][i].to_string()),
                            mean_uw: r.mean_uw,
                            half_width_uw: r.half_width_uw,
                            batches: r.batches,
                            converged: r.converged,
                        })
                        .collect();
                    let stalled = packs[p]
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| stalls >> i & 1 == 1)
                        .map(|(_, f)| f.to_string())
                        .collect();
                    progress.record(&TraceRecord::PackGraded {
                        pack: p,
                        lanes,
                        occupancy: results.len(),
                        cycles: *cycles,
                        stalled,
                        elapsed: *elapsed,
                        restored: *restored,
                    });
                }
            }
            PackOutcome::Quarantined { message } => {
                progress.event(ProgressEvent::PackQuarantined { faults: n_faults });
                if tracing {
                    progress.record(&TraceRecord::Quarantined {
                        kind: WorkKind::GradePack,
                        index: p,
                        fault_ids: packs[p].iter().map(StuckAt::to_string).collect(),
                        message: message.clone(),
                        journal_key: journal.map(|_| RecordKind::GradePack.key(p as u64)),
                    });
                }
            }
        }
    }

    // The baseline lives on lane 0 of pack 0; if that pack quarantined,
    // rescue the study with a baseline-only estimation.
    let baseline = match &outcomes[0] {
        PackOutcome::Computed { results, .. } => results[0],
        PackOutcome::Quarantined { message, .. } => {
            let rescue = par_map_indexed_caught(1, 1, |_| run_pack(sys, &[], cfg, 1).0[0]);
            match rescue.into_iter().next() {
                Some(Ok(mc)) => {
                    progress.event(ProgressEvent::MonteCarlo {
                        batches: mc.batches,
                        converged: mc.converged,
                    });
                    mc
                }
                _ => panic!(
                    "baseline pack quarantined and the baseline-only rescue also \
                     panicked: {message}"
                ),
            }
        }
    };

    let mut grades = Vec::with_capacity(faults.len());
    let mut incidents = Vec::new();
    for (p, (pack, outcome)) in packs.iter().zip(&outcomes).enumerate() {
        match outcome {
            PackOutcome::Computed {
                results, stalls, ..
            } => {
                for (i, &fault) in pack.iter().enumerate() {
                    let mc = results[i + 1];
                    let pct = 100.0 * (mc.mean_uw - baseline.mean_uw) / baseline.mean_uw;
                    let flagged = pct.abs() > cfg.threshold_pct;
                    progress.event(ProgressEvent::FaultGraded { flagged });
                    grades.push(PowerGrade {
                        fault,
                        mean_uw: mc.mean_uw,
                        pct_change: pct,
                        flagged,
                    });
                    if stalls >> i & 1 == 1 {
                        progress.event(ProgressEvent::BudgetExhausted);
                        if tracing {
                            progress.record(&TraceRecord::BudgetExhausted {
                                fault_id: fault.to_string(),
                                journal_key: journal.map(|_| RecordKind::GradePack.key(p as u64)),
                            });
                        }
                        incidents.push(GradeIncident::BudgetExhausted { fault });
                    }
                }
            }
            PackOutcome::Quarantined { message, .. } => {
                incidents.push(GradeIncident::QuarantinedPack {
                    pack: p,
                    faults: pack.to_vec(),
                    message: message.clone(),
                });
            }
        }
    }
    GradeReport {
        baseline,
        grades,
        incidents,
    }
}

/// The scalar reference grading path: one [`CycleSim`] pass per fault
/// per batch, exactly as the lane-packed
/// [`grade_faults_journaled_with_kernel`] but without fault packing.
///
/// Kept as the ground truth the lane-packed path is regression-tested
/// against (and as the baseline the `grade_throughput` bench measures
/// speedup over). Every estimation runs the serial Monte Carlo loop, so
/// every mean, percentage, and flag is what the lane-packed path must
/// reproduce bit for bit.
pub fn grade_faults_scalar_with(
    sys: &System,
    faults: &[StuckAt],
    cfg: &GradeConfig,
    progress: &dyn Progress,
) -> (MonteCarloResult, Vec<PowerGrade>) {
    let _timer = PhaseTimer::start(progress, Phase::Grade);
    let baseline = measure_power_monte_carlo(sys, None, cfg);
    progress.event(ProgressEvent::MonteCarlo {
        batches: baseline.batches,
        converged: baseline.converged,
    });
    let grades = faults
        .iter()
        .map(|&fault| {
            let mc = measure_power_monte_carlo(sys, Some(fault), cfg);
            progress.event(ProgressEvent::MonteCarlo {
                batches: mc.batches,
                converged: mc.converged,
            });
            let pct = 100.0 * (mc.mean_uw - baseline.mean_uw) / baseline.mean_uw;
            let flagged = pct.abs() > cfg.threshold_pct;
            progress.event(ProgressEvent::FaultGraded { flagged });
            PowerGrade {
                fault,
                mean_uw: mc.mean_uw,
                pct_change: pct,
                flagged,
            }
        })
        .collect();
    (baseline, grades)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_exec::NullProgress;
    use sfr_faultsim::fixtures::toy_system;

    fn quick_cfg() -> GradeConfig {
        GradeConfig {
            mc: MonteCarloConfig {
                rel_tolerance: 0.05,
                min_batches: 3,
                max_batches: 6,
            },
            patterns_per_batch: 60,
            ..Default::default()
        }
    }

    /// Lane-packed grading without a journal.
    fn grade(
        sys: &System,
        faults: &[StuckAt],
        cfg: &GradeConfig,
        threads: usize,
        progress: &dyn Progress,
    ) -> (MonteCarloResult, Vec<PowerGrade>) {
        let report = grade_faults_journaled_with_kernel(
            sys,
            faults,
            cfg,
            threads,
            progress,
            None,
            SimKernel::Tape,
        );
        (report.baseline, report.grades)
    }

    fn toy_sfr(take: usize) -> (System, Vec<StuckAt>) {
        let sys = toy_system();
        let ccfg = crate::ClassifyConfig {
            test_patterns: 200,
            ..Default::default()
        };
        let c = crate::classify_system(&sys, &ccfg);
        let faults: Vec<StuckAt> = c.sfr().map(|f| f.fault).take(take).collect();
        assert!(!faults.is_empty(), "toy system exposes SFR faults");
        (sys, faults)
    }

    #[test]
    fn baseline_power_is_positive_and_reproducible() {
        let sys = toy_system();
        let cfg = quick_cfg();
        let a = measure_power_monte_carlo(&sys, None, &cfg);
        let b = measure_power_monte_carlo(&sys, None, &cfg);
        assert!(a.mean_uw > 0.0);
        assert_eq!(a.mean_uw, b.mean_uw, "deterministic seeds");
    }

    #[test]
    fn extra_load_fault_increases_power() {
        let sys = toy_system();
        let cfg = quick_cfg();
        // Force R3's load line stuck at 1 at the controller output: the
        // register clocks every cycle instead of once per run.
        let ld = sys.datapath.find_ctrl("LD_R3").unwrap();
        let net = sys.ctrl.output_nets[ld.0];
        let gate = sys.netlist.driver(net).expect("control nets are driven");
        let fault = StuckAt::output(gate, true);
        let base = measure_power_monte_carlo(&sys, None, &cfg);
        let faulty = measure_power_monte_carlo(&sys, Some(fault), &cfg);
        assert!(
            faulty.mean_uw > base.mean_uw,
            "extra loads must increase datapath power ({} vs {})",
            faulty.mean_uw,
            base.mean_uw
        );
    }

    #[test]
    fn testset_power_matches_run_model() {
        let sys = toy_system();
        let cfg = quick_cfg();
        let ts = TestSet::pseudorandom(sys.pattern_width(), 120, 0x5EED).unwrap();
        let p = measure_power_with_testset(&sys, None, &ts, &cfg);
        assert!(p.total_uw > 0.0);
        assert!(p.cycles >= 100);
        assert!(p.clock_uw > 0.0, "registers clock at least once per run");
    }

    #[test]
    fn grading_reports_progress_events() {
        let sys = toy_system();
        let cfg = quick_cfg();
        let faults: Vec<StuckAt> = sys.controller_faults().into_iter().take(3).collect();
        let counters = sfr_exec::Counters::new();
        let _ = grade(&sys, &faults, &cfg, 2, &counters);
        let snap = counters.snapshot();
        assert_eq!(snap.faults_graded, 3);
        // Baseline + one estimation per fault.
        assert_eq!(snap.mc_converged + snap.mc_capped, 4);
        // Three faults fit one lane pack.
        assert_eq!(snap.grade_packs, 1);
        assert_eq!(snap.grade_pack_faults, 3);
        assert!(snap.phase_times.iter().any(|(p, _)| *p == Phase::Grade));
    }

    #[test]
    fn lane_packed_grading_matches_scalar_reference() {
        // The bit-identity contract on genuine SFR faults (the only
        // faults the grading phase ever sees in the paper flow).
        let (sys, faults) = toy_sfr(usize::MAX);
        let cfg = quick_cfg();
        let (base_s, grades_s) = grade_faults_scalar_with(&sys, &faults, &cfg, &NullProgress);
        for threads in [1, 2, 8] {
            let (base_l, grades_l) = grade(&sys, &faults, &cfg, threads, &NullProgress);
            assert_eq!(base_s, base_l, "baseline, threads = {threads}");
            assert_eq!(grades_s.len(), grades_l.len());
            for (s, l) in grades_s.iter().zip(&grades_l) {
                assert_eq!(s.fault, l.fault);
                assert_eq!(s.mean_uw, l.mean_uw, "threads = {threads}");
                assert_eq!(s.pct_change, l.pct_change, "threads = {threads}");
                assert_eq!(s.flagged, l.flagged);
            }
        }
    }

    #[test]
    fn tape_testset_measurement_matches_scalar() {
        let (sys, faults) = toy_sfr(10);
        let ts = TestSet::pseudorandom(sys.pattern_width(), 120, 0x5EED).unwrap();
        let prog = TapeProgram::<u64>::compile(&sys.netlist, &faults).unwrap();
        let mut armed = quick_cfg();
        armed.run.cycle_budget = 64;
        for cfg in [quick_cfg(), armed] {
            let (reports, stalls) = measure_power_tape_watched(&sys, &prog, &ts, &cfg);
            assert_eq!(reports.len(), faults.len() + 1);
            assert_eq!(
                reports[0],
                measure_power_with_testset(&sys, None, &ts, &cfg),
                "lane 0 = fault-free"
            );
            for (i, &f) in faults.iter().enumerate() {
                assert_eq!(
                    reports[i + 1],
                    measure_power_with_testset(&sys, Some(f), &ts, &cfg),
                    "fault {f}"
                );
            }
            // SFR faults keep the controller's sequence, so the
            // watchdog never fires on them, armed or not.
            assert_eq!(stalls, 0);
        }
    }

    #[test]
    fn pack_payload_roundtrips_and_rejects_bad_shapes() {
        let results = vec![
            MonteCarloResult {
                mean_uw: 123.456,
                half_width_uw: 0.5,
                batches: 7,
                converged: true,
            },
            MonteCarloResult {
                mean_uw: 130.0,
                half_width_uw: 1.25,
                batches: 9,
                converged: false,
            },
        ];
        let words = encode_pack(&results, 0b10);
        match decode_pack(&words, results.len()) {
            Some(PackOutcome::Computed {
                results: r,
                stalls,
                restored,
                ..
            }) => {
                assert_eq!(r.len(), 2);
                assert_eq!(r[0].mean_uw, results[0].mean_uw);
                assert_eq!(r[1].batches, 9);
                assert_eq!(stalls, 0b10);
                assert!(restored);
            }
            _ => panic!("payload must roundtrip"),
        }
        // A record for another lane count, a truncated record, and a
        // record under an unknown tag all force recomputation.
        assert!(decode_pack(&words, results.len() + 1).is_none());
        assert!(decode_pack(&words[..words.len() - 1], results.len()).is_none());
        let mut retagged = words.clone();
        retagged[0] = 2;
        assert!(decode_pack(&retagged, results.len()).is_none());
        assert!(decode_pack(&[], results.len()).is_none());
    }

    #[test]
    fn empty_fault_list_still_yields_baseline() {
        let sys = toy_system();
        let cfg = quick_cfg();
        let (base, grades) = grade(&sys, &[], &cfg, 1, &NullProgress);
        assert!(base.mean_uw > 0.0);
        assert!(grades.is_empty());
        let scalar = measure_power_monte_carlo(&sys, None, &cfg);
        assert_eq!(base, scalar, "lane-0 baseline = scalar fault-free MC");
    }

    #[test]
    fn grading_flags_only_band_escapes() {
        let sys = toy_system();
        let cfg = quick_cfg();
        let ld = sys.datapath.find_ctrl("LD_R3").unwrap();
        let net = sys.ctrl.output_nets[ld.0];
        let gate = sys.netlist.driver(net).unwrap();
        let fault = StuckAt::output(gate, true);
        let (base, grades) = grade(&sys, &[fault], &cfg, 1, &NullProgress);
        assert!(base.mean_uw > 0.0);
        assert_eq!(grades.len(), 1);
        let g = &grades[0];
        assert!(g.pct_change > 0.0);
        assert_eq!(g.flagged, g.pct_change.abs() > cfg.threshold_pct);
    }
}

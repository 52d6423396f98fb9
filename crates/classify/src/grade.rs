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
//! share every simulation pass of one [`TapeSim`], and each lane's
//! datapath energy is summed as an exact integer of switched
//! femtofarads ([`TapeEnergy`], over the same [`EnergyWeights`] the
//! scalar path uses). Lane 0 doubles as a baseline cache: the separate
//! fault-free Monte Carlo the scalar path runs per design comes for free
//! with pack 0.
//! Grading never meets `X` — every run resets the controller to its
//! reset code and every datapath register to 0, every primary input
//! takes one bit of a binary pattern, and stuck-at forces are 0 or 1
//! ([`System::build`] checks that the reset and the pattern reach every
//! flip-flop and input) — so it runs on the tape's single-rail
//! two-valued lanes, each an exact simulation of its lane's circuit.
//! Lane-packed grades are therefore bit-identical to the scalar
//! reference path ([`grade_faults_scalar_with`]) — same means,
//! percentages, and flags at any thread count.

use sfr_exec::{
    ordered_waves, par_map_indexed_caught, LaneGrade, Phase, PhaseTimer, Progress, ProgressEvent,
    TapeShape, TraceRecord,
};
use sfr_faultsim::{run_journaled_packs, PackBody, RunConfig, SimKernel, System};
use sfr_journal::{CampaignJournal, RecordKind};
use sfr_netlist::{
    Activity, CycleSim, Logic, StuckAt, TapeEnergy, TapeProgram, TapeSim, MAX_PARALLEL_FAULTS,
};
use sfr_power_model::{
    power_from_activity_where, power_from_tape_energy, run_monte_carlo, run_monte_carlo_lanes,
    EnergyWeights, MonteCarloConfig, MonteCarloResult, PowerConfig, PowerReport,
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
/// Power is accounted over the datapath only (every gate outside the
/// controller's range), matching the paper's "power consumed by the
/// datapath", from the switching activity
/// [`measure_activity_with_testset`] records.
pub fn measure_power_with_testset(
    sys: &System,
    fault: Option<StuckAt>,
    ts: &TestSet,
    cfg: &GradeConfig,
) -> PowerReport {
    let act = measure_activity_with_testset(sys, fault, ts, &cfg.run);
    power_from_activity_where(&sys.netlist, &act, &cfg.power, |g| {
        !sys.is_controller_gate(g)
    })
}

/// Switching activity of one (optionally faulty) system over a specific
/// test set, on the scalar reference simulator — the one activity loop
/// behind [`measure_power_with_testset`] and the per-component power
/// breakdown.
///
/// Runs start from a known state (datapath registers cleared) so that
/// switching activity is fully defined. Run boundaries are the
/// tester's: each run ends when the *fault-free* controller has held
/// HOLD for the configured tail, or at [`RunConfig::run_ceiling`], so a
/// faulty system is measured over exactly the fault-free schedule. A
/// fault simulation therefore steps a fault-free companion simulator
/// alongside. That matters for looping designs, where an SFR fault can
/// change the controller's own sequencing (extra loop iterations, say)
/// without ever changing a data output.
pub fn measure_activity_with_testset(
    sys: &System,
    fault: Option<StuckAt>,
    ts: &TestSet,
    run: &RunConfig,
) -> Activity {
    let mut sim = match fault {
        Some(f) => CycleSim::with_fault(&sys.netlist, f),
        None => CycleSim::new(&sys.netlist),
    };
    let mut fault_free = fault.map(|_| CycleSim::new(&sys.netlist));
    sim.track_activity(true);
    let hold = sys.meta.hold_state();
    let ceiling = run.run_ceiling();
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
                if in_hold_for > run.hold_cycles {
                    break;
                }
            }
        }
    }
    sim.take_activity()
}

/// Lane-packed [`measure_power_with_testset`] on a compiled two-valued
/// tape: one pass measures the fault-free baseline (lane 0) and every
/// fault baked into `prog` at once, returning one [`PowerReport`] per
/// lane (`reports[0]` fault-free, `reports[1 + i]` under
/// `prog.faults()[i]`) plus the watchdog's stall mask.
///
/// Run boundaries are steered by decoding **lane 0** — the fault-free
/// controller — which is exact for the baseline and equal to each fault
/// lane's own sequencing because SFR faults never alter the controller's
/// state sequence (the same guarantee the scalar path already leans on).
/// Per-run resets overwrite sequential state only, so the toggle edge
/// between consecutive runs is counted exactly as the scalar path counts
/// it; every report is bit-identical to a scalar measurement of that
/// lane's circuit ([`measure_power_with_testset`]).
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
    let mut energy = datapath_energy(sys, prog);
    measure_power_tape_watched_with(sys, &mut sim, &mut energy, ts, cfg)
}

/// Zeroed per-lane sums over the datapath's energy weights (every gate
/// outside the controller's range, as [`measure_power_with_testset`]
/// counts), for simulators of `prog`.
fn datapath_energy(sys: &System, prog: &TapeProgram<u64>) -> TapeEnergy {
    let w = EnergyWeights::new(&sys.netlist, |g| !sys.is_controller_gate(g));
    TapeEnergy::new(prog, &w.net_ff, &w.clock_ff)
}

/// [`measure_power_tape_watched`] over a caller-owned [`TapeSim`] and
/// [`TapeEnergy`], so consecutive Monte Carlo batches reuse one
/// simulator's buffers (slot array, deviation scratch) instead of
/// reallocating them per batch. The sums restart from zero on every
/// call; reports are identical to the fresh-simulator form.
fn measure_power_tape_watched_with(
    sys: &System,
    sim: &mut TapeSim<'_, u64>,
    energy: &mut TapeEnergy,
    ts: &TestSet,
    cfg: &GradeConfig,
) -> (Vec<PowerReport>, u64) {
    let n_faults = sim.faults().len();
    energy.reset();
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
            sim.clock_counting(energy);
            if st == Some(hold) {
                in_hold_for += 1;
                if in_hold_for > cfg.run.hold_cycles {
                    break;
                }
            }
        }
    }
    (power_from_tape_energy(energy, &cfg.power), stalled)
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

/// One grade pack's Monte Carlo outcome.
struct GradedPack {
    /// Per-lane estimations, lane 0 (the fault-free baseline) first.
    results: Vec<MonteCarloResult>,
    /// Watchdog stall mask (bit `i` covers the pack's fault `i`).
    stalls: u64,
    /// Simulator cycles the pack's Monte Carlo loop evaluated (0 when
    /// restored from a journal — nothing was simulated).
    cycles: u64,
    /// The pack's tape shape, for the profile (zero when restored).
    tape: TapeShape,
}

/// The journal body is the stall mask, the lane count, then four words
/// per lane (mean and half-width as `f64` bits, batches, converged).
/// Cycles and profile are diagnostics and stay out of the payload.
impl PackBody for GradedPack {
    fn encode_body(&self) -> Vec<u64> {
        let mut words = vec![self.stalls, self.results.len() as u64];
        for r in &self.results {
            words.push(r.mean_uw.to_bits());
            words.push(r.half_width_uw.to_bits());
            words.push(r.batches as u64);
            words.push(u64::from(r.converged));
        }
        words
    }

    /// `None` unless the body holds one estimation per lane of `pack`
    /// (its faults plus the baseline lane).
    fn decode_body(words: &[u64], pack: &[StuckAt]) -> Option<Self> {
        let stalls = *words.first()?;
        let n = usize::try_from(*words.get(1)?).ok()?;
        if n != pack.len() + 1 || words.len() != 2 + 4 * n {
            return None;
        }
        let results = words[2..]
            .chunks(4)
            .map(|c| MonteCarloResult {
                mean_uw: f64::from_bits(c[0]),
                half_width_uw: f64::from_bits(c[1]),
                batches: c[2] as usize,
                converged: c[3] != 0,
            })
            .collect();
        Some(GradedPack {
            results,
            stalls,
            cycles: 0,
            tape: TapeShape::default(),
        })
    }
}

/// Lane capacity of one grade pack under `kernel` — the number of
/// faults that share a simulation pass with the fault-free baseline on
/// lane 0. This is the unit of work the campaign journals and
/// quarantines: pack `p` covers `faults[p*cap .. (p+1)*cap]`.
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
/// simulated cycle count, and the tape shape the manifest profiles.
/// The first three are a pure function of `(sys, pack, cfg)` — every
/// run produces bit-identical words for the same pack, on any number of
/// workers; the profile is diagnostic only and never enters a payload
/// or journal.
///
/// The pack's two-valued [`TapeProgram`] is compiled once and shared.
/// Its batches run on `workers` threads through [`ordered_waves`]: each
/// worker reuses one [`TapeSim`] and one [`TapeEnergy`] for every batch
/// it computes, and the stopping rule ([`run_monte_carlo_lanes`])
/// consumes batches in index order.
/// Batch `i` depends only on `i`, so which worker ran it does not
/// matter. Stall mask and cycles come from consumed batches only; the
/// at most `workers − 1` batches computed past the last lane's stop are
/// dropped unread.
fn run_pack(sys: &System, pack: &[StuckAt], cfg: &GradeConfig, workers: usize) -> GradedPack {
    let prog =
        TapeProgram::<u64>::compile(&sys.netlist, pack).expect("packs never exceed the lane limit");
    let energy = datapath_energy(sys, &prog);
    let mut stalls = 0u64;
    let mut cycles = 0u64;
    let results = ordered_waves(
        workers,
        || (TapeSim::new(&prog), energy.clone()),
        |(sim, energy), batch| {
            let ts = batch_testset(sys, cfg, batch);
            measure_power_tape_watched_with(sys, sim, energy, &ts, cfg)
        },
        |next| {
            run_monte_carlo_lanes(&cfg.mc, pack.len() + 1, |batch| {
                let (reports, batch_stalls) = next(batch);
                stalls |= batch_stalls;
                // All lanes share one schedule; lane 0's cycle count is
                // the pack's per-batch simulation cost.
                cycles += reports[0].cycles;
                reports
            })
        },
    );
    GradedPack {
        results,
        stalls,
        cycles,
        tape: TapeShape {
            ops: prog.len(),
            levels: prog.level_count(),
            force_ops: prog.force_op_count(),
        },
    }
}

/// The grading entry point: lane-packed Monte Carlo grading on the
/// compiled tape, sharded across `threads` workers, with checkpoint
/// journaling, panic quarantine, and watchdog reporting. Packs run in
/// parallel; when there are fewer packs than threads, each pack's
/// Monte Carlo batches are also spread over `threads / packs` workers
/// (see [`ordered_waves`]). Returns the baseline, one [`PowerGrade`]
/// per fault in input order, and the incident list. Reports one
/// [`ProgressEvent::MonteCarlo`] per estimation (faults + baseline), one
/// [`ProgressEvent::GradePack`] per computed pack, and one
/// [`ProgressEvent::FaultGraded`] per fault.
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
/// Packs run through [`run_journaled_packs`]: a journaled pack's
/// estimations (or its quarantine) are restored verbatim, and a pack
/// that panics twice is quarantined
/// ([`GradeIncident::QuarantinedPack`]) without poisoning the study.
/// Because journaled payloads are the bit-exact `f64` words of the
/// original run, a resumed study is bit-identical to an uninterrupted
/// one. A fault whose lane misses HOLD while lane 0 completes a run is
/// reported as [`GradeIncident::BudgetExhausted`] (its grade is still
/// emitted, measured over [`RunConfig::run_ceiling`]-bounded runs).
///
/// # Panics
///
/// If pack 0 — the pack that carries the fault-free baseline on lane
/// 0 — quarantines, a baseline-only rescue estimation runs (itself
/// retried once); if that also panics the study cannot produce any
/// percentage change and the function panics with the payload message.
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
    // Threads the packs leave over go to each pack's Monte Carlo
    // batches: with fewer packs than threads, every pack gets
    // `threads / packs` batch workers.
    let workers = (threads / packs.len()).max(1);
    // Structured records allocate (fault-id rendering), so they are only
    // built when a sink asked for them — the default path stays free.
    let tracing = progress.wants_records();
    let slots = run_journaled_packs(
        RecordKind::GradePack,
        &packs,
        threads,
        progress,
        journal,
        |pack| run_pack(sys, pack, cfg, workers),
        |p, graded: &GradedPack, elapsed| {
            if let Some(elapsed) = elapsed {
                // One MonteCarlo event per estimation: every pack's
                // fault lanes, plus the shared baseline (lane 0) once,
                // from pack 0.
                for r in graded.results.iter().skip(usize::from(p != 0)) {
                    progress.event(ProgressEvent::MonteCarlo {
                        batches: r.batches,
                        converged: r.converged,
                    });
                }
                progress.event(ProgressEvent::CyclesSimulated {
                    cycles: graded.cycles,
                });
                progress.event(ProgressEvent::GradePack {
                    faults: packs[p].len(),
                    elapsed,
                    tape: graded.tape,
                });
            }
            if tracing {
                let lanes = graded
                    .results
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
                    .filter(|(i, _)| graded.stalls >> i & 1 == 1)
                    .map(|(_, f)| f.to_string())
                    .collect();
                progress.record(&TraceRecord::PackGraded {
                    pack: p,
                    lanes,
                    occupancy: graded.results.len(),
                    cycles: graded.cycles,
                    stalled,
                    elapsed: elapsed.unwrap_or_default(),
                    restored: elapsed.is_none(),
                });
            }
        },
    );

    // The baseline lives on lane 0 of pack 0; if that pack quarantined,
    // rescue the study with a baseline-only estimation.
    let baseline = match &slots[0] {
        Ok(graded) => graded.results[0],
        Err(message) => {
            let rescue = par_map_indexed_caught(1, 1, |_| run_pack(sys, &[], cfg, 1).results[0]);
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
    for (p, (pack, slot)) in packs.iter().zip(slots).enumerate() {
        let graded = match slot {
            Ok(graded) => graded,
            Err(message) => {
                incidents.push(GradeIncident::QuarantinedPack {
                    pack: p,
                    faults: pack.to_vec(),
                    message,
                });
                continue;
            }
        };
        for (i, &fault) in pack.iter().enumerate() {
            let mc = graded.results[i + 1];
            let pct = 100.0 * (mc.mean_uw - baseline.mean_uw) / baseline.mean_uw;
            let flagged = pct.abs() > cfg.threshold_pct;
            progress.event(ProgressEvent::FaultGraded { flagged });
            grades.push(PowerGrade {
                fault,
                mean_uw: mc.mean_uw,
                pct_change: pct,
                flagged,
            });
            if graded.stalls >> i & 1 == 1 {
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
        assert!(snap.phase_times.iter().any(|(p, ..)| *p == Phase::Grade));
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
    fn pack_body_roundtrips_and_rejects_bad_shapes() {
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
        let (_, faults) = toy_sfr(2);
        let pack = &faults[..results.len() - 1];
        let words = GradedPack {
            results: results.clone(),
            stalls: 0b10,
            cycles: 99,
            tape: TapeShape::default(),
        }
        .encode_body();
        let back = GradedPack::decode_body(&words, pack).expect("payload must roundtrip");
        assert_eq!(back.results, results);
        assert_eq!(back.stalls, 0b10);
        assert_eq!(back.cycles, 0, "cycles are not journaled");
        // A record for another lane count, a truncated record, and an
        // empty record all force recomputation.
        assert!(GradedPack::decode_body(&words, &faults[..2]).is_none());
        assert!(GradedPack::decode_body(&words[..words.len() - 1], pack).is_none());
        assert!(GradedPack::decode_body(&[], pack).is_none());
    }

    #[test]
    fn journaled_quarantine_of_the_baseline_pack_replays_and_rescues_the_baseline() {
        let (sys, faults) = toy_sfr(usize::MAX);
        let cfg = quick_cfg();
        let mut path = std::env::temp_dir();
        path.push(format!("sfr-grade-quarantine-{}", std::process::id()));
        let journal = CampaignJournal::create(&path, 3, "grade-quarantine").expect("creates");
        let mut marker = vec![1];
        marker.extend(sfr_journal::encode_str("lane panic"));
        journal.record(RecordKind::GradePack, 0, &marker);
        let before = std::fs::read(&path).expect("journal on disk");

        let counters = sfr_exec::Counters::new();
        let report = grade_faults_journaled_with_kernel(
            &sys,
            &faults,
            &cfg,
            1,
            &counters,
            Some(&journal),
            SimKernel::Tape,
        );
        assert_eq!(
            report.incidents,
            [GradeIncident::QuarantinedPack {
                pack: 0,
                faults: faults.clone(),
                message: "lane panic".into(),
            }]
        );
        assert!(report.grades.is_empty(), "the pack's faults carry no grade");
        assert_eq!(counters.snapshot().packs_quarantined, 1);
        assert_eq!(
            std::fs::read(&path).expect("journal on disk"),
            before,
            "a replayed quarantine is not journaled again"
        );
        // The baseline-only rescue reproduces lane 0 of an intact pack 0.
        let (baseline, _) = grade(&sys, &faults, &cfg, 1, &NullProgress);
        assert_eq!(report.baseline, baseline);
        assert_eq!(
            report.baseline.mean_uw.to_bits(),
            baseline.mean_uw.to_bits()
        );
        let _ = std::fs::remove_file(&path);
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

//! `sfr-exec` — the workspace's parallel execution substrate.
//!
//! Fault-simulation campaigns and Monte Carlo power grading are
//! embarrassingly parallel across faults and batches, and both must
//! stay *byte-identical* to their serial counterparts at any thread
//! count (every workspace table regenerates deterministically). This
//! crate provides the two primitives that make that possible with
//! nothing beyond `std`:
//!
//! * [`par_map_indexed`] — an order-preserving parallel map over an
//!   index space, built from `std::thread::scope` plus a shared atomic
//!   work queue. Workers *pull* the next index when they finish one
//!   (self-scheduling, the classic work-stealing discipline for a
//!   single shared deque), so imbalanced items — faults detected in
//!   cycle 2 next to faults that survive a whole session — keep every
//!   core busy. Results land at their item's index, so the output is
//!   independent of which worker computed what.
//! * [`ordered_waves`] — speculative read-ahead for a *sequential*
//!   consumer: items `0, 1, 2, …` are computed in waves on a pool of
//!   workers that each own their scratch state, and handed to the
//!   consumer strictly in index order. Monte Carlo grading uses it to
//!   spread one pack's batches across threads while its stopping rule
//!   stays serial.
//! * [`Progress`] — a campaign observer: phase wall times, per-fault
//!   simulation/drop events, Monte Carlo convergence. The CLI and the
//!   table/figure binaries subscribe to it; library callers pass
//!   [`NullProgress`].
//!
//! Determinism contract: callers key every random stream by the *work
//! item* (fault index, batch index — see [`stream_seed`]), never by the
//! executing thread. The executor only decides *where* an item runs;
//! the item's inputs, seeds, and output slot are pure functions of its
//! index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// A conservative thread-count default: the machine's available
/// parallelism, or 1 if it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Derives an independent per-item seed from a base seed and a stream
/// index (splitmix64 finalizer).
///
/// Work items — not threads — own random streams: item `i` always draws
/// from `stream_seed(base, i)` no matter which worker executes it,
/// which is what keeps parallel runs byte-identical to serial ones.
pub fn stream_seed(base: u64, stream: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD605_0B91_5D2C_EB4F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-preserving parallel map over `0..n`: returns
/// `vec![f(0), f(1), …, f(n-1)]`, computed on up to `threads` scoped
/// worker threads pulling indices from a shared atomic queue.
///
/// With `threads <= 1` (or fewer than two items) the map runs inline on
/// the caller's thread — the parallel and serial paths produce the same
/// vector by construction, because item `i`'s result depends only
/// on `i`.
pub fn par_map_indexed<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // A worker that dies (panics) drops its sender; the
                // receiver loop below notices the missing item count
                // and the scope re-raises the panic.
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut received = 0usize;
        while let Ok((i, r)) = rx.recv() {
            out[i] = Some(r);
            received += 1;
            if received == n {
                break;
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("worker panicked before delivering its item"))
            .collect()
    })
}

/// A work item that panicked (twice — once plus one retry) under
/// [`par_map_indexed_caught`], with the panic payload rendered to text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload, downcast to a string when possible.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Renders a `catch_unwind` payload to a human-readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "non-string panic payload".to_string(),
        }
    }
}

/// Like [`par_map_indexed`], but each item runs under `catch_unwind`: a
/// panicking item is retried once (a second chance for transient,
/// environment-induced failures) and, if it panics again, yields
/// `Err(TaskPanic)` in its slot instead of poisoning the whole map.
///
/// This is the quarantine discipline for fault campaigns: one
/// misbehaving fault pack must not discard the completed work of every
/// other pack. Determinism is preserved — whether an item panics is a
/// pure function of its index, so the same packs quarantine at any
/// thread count.
pub fn par_map_indexed_caught<R, F>(threads: usize, n: usize, f: F) -> Vec<Result<R, TaskPanic>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let caught = move |i: usize| -> Result<R, TaskPanic> {
        for attempt in 0..2 {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(r) => return Ok(r),
                Err(payload) if attempt == 0 => {
                    // Retry once; a deterministic panic will simply
                    // reproduce, a flaky one gets a second chance.
                    drop(payload);
                }
                Err(payload) => {
                    return Err(TaskPanic {
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
        }
        unreachable!("loop returns on every attempt")
    };
    par_map_indexed(threads, n, caught)
}

/// Feeds a sequential consumer items computed ahead on `workers`
/// threads, and returns what the consumer returns.
///
/// `consume` receives a `next` function and must call it with the
/// indices `0, 1, 2, …` in order; it may stop at any point. `next(i)`
/// returns `item(state, i)`, where `state` is scratch owned by whichever
/// worker computed item `i` and reused for every later item it
/// computes. All states are built by `state()` on the calling thread —
/// the helpers' up front, before they start — so a helper thread holds
/// no long-lived allocation of its own. Items must be pure functions of
/// their index: the consumer then sees exactly what a serial loop over
/// one state would produce.
///
/// Work proceeds in waves of `workers` items. When the consumer asks for
/// the first item of a wave, the calling thread computes it and the
/// `workers − 1` helpers compute the next `workers − 1` items at the
/// same time; the consumer's later requests in that wave are served
/// from their results. Read-ahead is therefore bounded: a consumer
/// that stops after taking `k` items has caused at most
/// `k + workers − 1` items to be computed, and the surplus is
/// discarded unread. The helpers live for the whole call, one scoped
/// thread each, and exit when the consumer returns.
///
/// A panic inside an item is caught on the helper and re-raised on the
/// calling thread, with its original payload, when the consumer asks
/// for that item; a speculative item the consumer never asks for cannot
/// panic the caller. Helpers never block once the consumer has
/// returned or unwound, so a panic reaches the caller's own
/// `catch_unwind` (see [`par_map_indexed_caught`]) without a hang.
///
/// With one worker (`0` counts as one) there are no helpers: every wave
/// is a single item, computed on the calling thread over one state.
///
/// # Panics
///
/// Panics if `consume` asks for items out of order.
pub fn ordered_waves<S, R, T>(
    workers: usize,
    state: impl Fn() -> S + Sync,
    item: impl Fn(&mut S, usize) -> R + Sync,
    consume: impl FnOnce(&mut dyn FnMut(usize) -> R) -> T,
) -> T
where
    S: Send,
    R: Send,
{
    let workers = workers.max(1);
    let mut expected = 0usize;
    let mut own: Option<S> = None;
    let (state, item) = (&state, &item);
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
        let jobs: Vec<mpsc::Sender<usize>> = (1..workers)
            .map(|_| {
                let (job_tx, job_rx) = mpsc::channel::<usize>();
                let done = done_tx.clone();
                let mut own = Some(state());
                scope.spawn(move || {
                    while let Ok(i) = job_rx.recv() {
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            item(own.get_or_insert_with(state), i)
                        }));
                        if r.is_err() {
                            // The state may be half-updated; rebuild it
                            // before the next item.
                            own = None;
                        }
                        if done.send((i, r)).is_err() {
                            break;
                        }
                    }
                });
                job_tx
            })
            .collect();
        drop(done_tx);
        // `ahead[j]` holds item `wave + 1 + j` once its helper delivers.
        let mut ahead: Vec<Option<std::thread::Result<R>>> = (1..workers).map(|_| None).collect();
        let mut wave = 0usize;
        consume(&mut |i| {
            assert_eq!(i, expected, "items must be consumed in index order");
            expected += 1;
            if i == 0 || i == wave + workers {
                wave = i;
                for (j, job) in jobs.iter().enumerate() {
                    job.send(i + 1 + j)
                        .expect("wave helpers outlive the consumer");
                }
                return item(own.get_or_insert_with(state), i);
            }
            let slot = i - wave - 1;
            while ahead[slot].is_none() {
                let (j, r) = done_rx
                    .recv()
                    .expect("wave helpers deliver every item they are sent");
                ahead[j - wave - 1] = Some(r);
            }
            match ahead[slot].take() {
                Some(Ok(r)) => r,
                Some(Err(payload)) => std::panic::resume_unwind(payload),
                None => unreachable!("the loop above filled the slot"),
            }
        })
    })
}

/// Order-preserving parallel map over contiguous chunks of `items`:
/// the concatenated result equals
/// `items.chunks(chunk).flat_map(f).collect()`.
///
/// Chunk boundaries are fixed by `chunk` alone — never by the thread
/// count — so engines with batch semantics (the 63-lane fault
/// simulator) produce identical per-batch behaviour at any parallelism.
pub fn par_map_chunks<T, R, F>(threads: usize, items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    par_map_indexed(threads, chunks.len(), |i| f(chunks[i]))
        .into_iter()
        .flatten()
        .collect()
}

/// The pipeline stages an observer can time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Gate-level system construction (controller synthesis +
    /// datapath elaboration).
    Build,
    /// Static analysis pre-pass: lint rules and simulation-free fault
    /// classification over the controller netlist.
    Lint,
    /// Structural fault collapsing: partitioning the fault universe
    /// into equivalence classes so only representatives simulate.
    Collapse,
    /// Fault-free golden-trace simulation.
    Golden,
    /// Integrated fault-simulation campaign (step 1).
    FaultSim,
    /// Controller-table and oracle analysis (steps 3–4).
    Analyze,
    /// Monte Carlo power grading of the SFR faults.
    Grade,
    /// Distributed pack distribution: the shard coordinator handing out
    /// grade-pack leases to remote workers and merging their results.
    Shard,
}

impl Phase {
    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Lint => "lint",
            Phase::Collapse => "collapse",
            Phase::Golden => "golden",
            Phase::FaultSim => "faultsim",
            Phase::Analyze => "analyze",
            Phase::Grade => "grade",
            Phase::Shard => "shard",
        }
    }
}

/// One observable event in a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProgressEvent {
    /// A pipeline phase began.
    PhaseStart {
        /// Which phase.
        phase: Phase,
    },
    /// A pipeline phase finished.
    PhaseDone {
        /// Which phase.
        phase: Phase,
        /// Its wall-clock duration.
        elapsed: Duration,
        /// True when the phase ended by stack unwinding (its
        /// [`PhaseTimer`] was dropped during a panic) instead of
        /// running to completion. Trace spans from quarantined work
        /// stay balanced — they end `aborted` rather than vanishing.
        aborted: bool,
    },
    /// A phase announced its total work-item count (packs/chunks) up
    /// front, so observers can render progress ratios and ETAs.
    WorkPlanned {
        /// Which phase the items belong to.
        phase: Phase,
        /// Total packs/chunks the phase will process.
        items: usize,
    },
    /// A pack/chunk of simulation finished `cycles` simulated cycles
    /// (aggregated per work item and flushed at its boundary — never
    /// emitted from the hot per-cycle loop).
    CyclesSimulated {
        /// Simulated cycles the work item accounted.
        cycles: u64,
    },
    /// One fault finished fault simulation. `dropped` is the campaign's
    /// fault-dropping verdict: a detected fault is dropped from further
    /// simulation.
    FaultSimulated {
        /// Whether the fault was detected (and therefore dropped).
        dropped: bool,
    },
    /// One Monte Carlo power estimation finished.
    MonteCarlo {
        /// Batches it took.
        batches: usize,
        /// Whether the confidence target was met (vs. hitting the
        /// batch ceiling).
        converged: bool,
    },
    /// One SFR fault received its power grade.
    FaultGraded {
        /// Whether the power test flags the fault.
        flagged: bool,
    },
    /// One lane-packed grading pass finished: a batch of faults (plus
    /// the fault-free baseline on lane 0) graded in a single
    /// bit-parallel Monte Carlo sweep.
    GradePack {
        /// Faults packed into the sweep (excluding the baseline lane).
        faults: usize,
    },
    /// A pack/chunk of campaign work panicked (twice) and was
    /// quarantined instead of aborting the study. The payload message
    /// travels in the study's incident list, not here — events stay
    /// `Copy`.
    PackQuarantined {
        /// Faults in the quarantined pack.
        faults: usize,
    },
    /// A pack/chunk was restored from a checkpoint journal instead of
    /// being recomputed.
    PackRestored {
        /// Faults in the restored pack.
        faults: usize,
    },
    /// A fault exhausted its per-run cycle budget (the controller never
    /// reached its hold state): a runaway/livelocked fault caught by
    /// the watchdog.
    BudgetExhausted,
    /// The static-analysis pre-pass classified one fault without
    /// simulation, pruning it from the campaign fault list.
    FaultPruned,
    /// Fault collapsing folded one fault into another's equivalence
    /// class: it inherits its representative's verdict and grade
    /// instead of simulating.
    FaultCollapsed,
    /// The checkpoint journal hit a write-side I/O error and degraded
    /// to in-memory operation (the message travels in the incident
    /// list and the structured [`TraceRecord::JournalDegraded`]).
    JournalDegraded,
    /// A shard worker completed its handshake with the coordinator.
    ShardWorkerConnected,
    /// The shard coordinator granted one pack lease to a worker.
    ShardLeaseGranted,
    /// A pack lease expired (missed heartbeats / deadline) and the pack
    /// was queued for reassignment.
    ShardLeaseExpired,
    /// A result arrived under a stale (expired or superseded) lease and
    /// was fenced off instead of merged.
    ShardResultFenced,
    /// A pack re-entered the queue under exponential backoff after its
    /// lease expired.
    ShardBackoff,
    /// A shard worker's connection ended (cleanly or by a chaos kill).
    ShardWorkerDisconnected,
    /// The coordinator merged one worker-computed pack result under a
    /// still-valid lease.
    ShardPackMerged,
    /// The always-on self-profiler finished accounting one computed
    /// grade pack: wall time plus tape-kernel shape counters.
    PackProfile {
        /// Wall time the pack spent simulating, µs (saturated).
        us: u64,
        /// Tape ops executed per Monte Carlo sweep (program length).
        ops: usize,
        /// Topological levels in the compiled tape.
        levels: usize,
        /// Fault-injection `Force` ops in the tape.
        force_ops: usize,
        /// Lanes occupied, including the baseline lane.
        lanes: usize,
        /// Net columns touched by the delta sweep in the final batch.
        dirty_nets: usize,
        /// Total net columns in the tape (sparsity denominator).
        nets: usize,
    },
}

/// Which kind of campaign work a structured record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// A fault-simulation chunk (classification phase).
    FaultSimChunk,
    /// A Monte Carlo power-grading lane pack.
    GradePack,
}

impl WorkKind {
    /// A short label for traces (`"faultsim"` / `"grade"`).
    pub fn label(self) -> &'static str {
        match self {
            WorkKind::FaultSimChunk => "faultsim",
            WorkKind::GradePack => "grade",
        }
    }
}

/// One lane's Monte Carlo outcome inside a [`TraceRecord::PackGraded`]
/// record: the estimation's mean, 95%-CI half-width at the stopping
/// point, and how many batches the stopping rule consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneGrade {
    /// Rendered fault id (`"g21.out/sa1"`); `None` for the fault-free
    /// baseline on lane 0.
    pub fault: Option<String>,
    /// Monte Carlo mean power, µW.
    pub mean_uw: f64,
    /// 95% confidence-interval half-width at stop, µW.
    pub half_width_uw: f64,
    /// Batches the CI stopping rule consumed.
    pub batches: usize,
    /// Whether the tolerance was met (false = batch ceiling).
    pub converged: bool,
}

/// A structured trace record — richer than [`ProgressEvent`], carrying
/// fault ids and per-lane statistics.
///
/// Records allocate, so producers must only build one after
/// [`Progress::wants_records`] returns true, and only at pack/chunk
/// boundaries — never inside the per-cycle simulation loop. With the
/// default no-op sink the hot path pays nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// One fault-simulation chunk completed.
    ChunkSimulated {
        /// Chunk index.
        chunk: usize,
        /// Rendered fault ids in the chunk.
        fault_ids: Vec<String>,
        /// Faults definitely detected (and dropped).
        detected: usize,
        /// Faults with a potential (X-against-known) detection only.
        potential: usize,
        /// Simulated cycles the chunk accounted.
        cycles: u64,
        /// Wall time the chunk spent simulating.
        elapsed: Duration,
        /// True when the chunk was restored from a checkpoint journal
        /// instead of recomputed.
        restored: bool,
    },
    /// One Monte Carlo grading pack completed.
    PackGraded {
        /// Pack index.
        pack: usize,
        /// Per-lane outcomes: lane 0 (the fault-free baseline) first,
        /// then one entry per packed fault.
        lanes: Vec<LaneGrade>,
        /// Lanes occupied, including the baseline lane (≤ 64).
        occupancy: usize,
        /// Simulated cycles the pack accounted (fault-free lane).
        cycles: u64,
        /// Rendered ids of faults the watchdog saw stall.
        stalled: Vec<String>,
        /// Wall time the pack spent simulating.
        elapsed: Duration,
        /// True when restored from a checkpoint journal.
        restored: bool,
    },
    /// A pack/chunk panicked twice and was quarantined.
    Quarantined {
        /// What kind of work quarantined.
        kind: WorkKind,
        /// Pack/chunk index.
        index: usize,
        /// Rendered fault ids that lost their verdict/grade.
        fault_ids: Vec<String>,
        /// The panic payload message.
        message: String,
        /// The checkpoint-journal record key (`"grade/3"`) holding the
        /// replayable incident, when the campaign is journaled.
        journal_key: Option<String>,
    },
    /// The watchdog caught one fault exhausting its cycle budget.
    BudgetExhausted {
        /// Rendered id of the runaway fault.
        fault_id: String,
        /// Journal record key of the pack carrying the incident, when
        /// journaled.
        journal_key: Option<String>,
    },
    /// The checkpoint journal degraded to in-memory operation.
    JournalDegraded {
        /// The I/O failure description.
        message: String,
    },
    /// The fault-collapsing pass partitioned the campaign universe.
    Collapse {
        /// Faults in the (already enumeration-collapsed) universe.
        universe: usize,
        /// Equivalence classes — the faults that will actually run.
        classes: usize,
        /// Faults folded into another fault's class.
        merged: usize,
    },
    /// One shard coordination event: a lease granted, expired, or
    /// fenced, a worker joining or leaving. Cross-linked to the journal
    /// record the pack merges into, so an incident in a distributed run
    /// points straight at the checkpoint entry that replays it.
    Shard {
        /// Worker id the event concerns. Coordinator-assigned on the
        /// coordinator side; `--worker-id` (the spawn slot) on the
        /// worker side, so the two trace streams agree.
        worker: u64,
        /// What happened. Coordinator actions: `"connected"`,
        /// `"granted"`, `"heartbeat"`, `"expired"`, `"backoff"`,
        /// `"fenced"`, `"merged"`, `"revoked"`, `"disconnected"`.
        /// Worker actions: `"received"`, `"stalled"`, `"sent"`.
        action: &'static str,
        /// The grade pack involved, when the event is pack-scoped.
        pack: Option<usize>,
        /// The lease token involved, when the event is lease-scoped.
        /// The token doubles as the fencing token — a result frame is
        /// merged only while this exact token is still current — so it
        /// is the join key between coordinator and worker traces.
        lease: Option<u64>,
        /// The checkpoint-journal record key (`"grade/3"`) the pack
        /// merges into, when the campaign is journaled.
        journal_key: Option<String>,
    },
    /// Free-form annotation (campaign metadata, tool chatter that
    /// previously went to stderr).
    Note {
        /// The annotation text.
        text: String,
    },
}

/// A campaign observer. Implementations must be cheap and `Sync`:
/// events arrive concurrently from worker threads.
pub trait Progress: Sync {
    /// Receives one event.
    fn event(&self, event: ProgressEvent);

    /// Receives one structured [`TraceRecord`]. Default: discard.
    fn record(&self, record: &TraceRecord) {
        let _ = record;
    }

    /// Whether this observer consumes [`TraceRecord`]s. Producers check
    /// this before allocating a record, so sinks that return false (the
    /// default) keep the campaign allocation-free on the grading path.
    fn wants_records(&self) -> bool {
        false
    }
}

/// The do-nothing observer for library callers.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProgress;

impl Progress for NullProgress {
    fn event(&self, _event: ProgressEvent) {}
}

/// Fans events out to several observers in order — the way the CLI
/// combines counters, a trace writer, a metrics registry, and the TTY
/// renderer on one campaign.
pub struct Tee<'a> {
    sinks: &'a [&'a dyn Progress],
}

impl<'a> Tee<'a> {
    /// An observer forwarding every event/record to each of `sinks`.
    pub fn new(sinks: &'a [&'a dyn Progress]) -> Self {
        Tee { sinks }
    }
}

impl Progress for Tee<'_> {
    fn event(&self, event: ProgressEvent) {
        for s in self.sinks {
            s.event(event);
        }
    }

    fn record(&self, record: &TraceRecord) {
        for s in self.sinks {
            if s.wants_records() {
                s.record(record);
            }
        }
    }

    fn wants_records(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_records())
    }
}

/// Times one phase: emits [`ProgressEvent::PhaseStart`] on creation and
/// [`ProgressEvent::PhaseDone`] when finished or dropped.
pub struct PhaseTimer<'a> {
    progress: &'a dyn Progress,
    phase: Phase,
    start: std::time::Instant,
    done: bool,
}

impl<'a> PhaseTimer<'a> {
    /// Starts timing `phase`.
    pub fn start(progress: &'a dyn Progress, phase: Phase) -> Self {
        progress.event(ProgressEvent::PhaseStart { phase });
        PhaseTimer {
            progress,
            phase,
            start: std::time::Instant::now(),
            done: false,
        }
    }

    /// Ends the phase explicitly (otherwise `Drop` ends it).
    pub fn finish(mut self) {
        self.emit(false);
    }

    fn emit(&mut self, aborted: bool) {
        if !self.done {
            self.done = true;
            self.progress.event(ProgressEvent::PhaseDone {
                phase: self.phase,
                elapsed: self.start.elapsed(),
                aborted,
            });
        }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        // A timer dropped while unwinding still closes its span — as
        // `aborted` — so traces from panicking (quarantined) work are
        // not truncated and span begin/end stay balanced.
        self.emit(std::thread::panicking());
    }
}

/// An observer that accumulates campaign counters and phase wall times
/// — the numbers the CLI and the bench binaries report.
#[derive(Debug, Default)]
pub struct Counters {
    inner: std::sync::Mutex<CounterState>,
}

/// Snapshot of [`Counters`].
#[derive(Debug, Default, Clone)]
pub struct CounterState {
    /// Faults that finished fault simulation.
    pub faults_simulated: usize,
    /// Of those, how many were detected and dropped.
    pub faults_dropped: usize,
    /// Monte Carlo estimations that met their confidence target.
    pub mc_converged: usize,
    /// Monte Carlo estimations that hit the batch ceiling instead.
    pub mc_capped: usize,
    /// Total Monte Carlo batches simulated.
    pub mc_batches: usize,
    /// Faults graded, and how many the power test flagged.
    pub faults_graded: usize,
    /// Flagged subset of `faults_graded`.
    pub faults_flagged: usize,
    /// Lane-packed grading sweeps completed.
    pub grade_packs: usize,
    /// Faults covered by those sweeps (sum of pack sizes).
    pub grade_pack_faults: usize,
    /// Packs/chunks quarantined after panicking twice.
    pub packs_quarantined: usize,
    /// Faults inside those quarantined packs.
    pub faults_quarantined: usize,
    /// Packs/chunks restored from a checkpoint journal.
    pub packs_restored: usize,
    /// Faults inside those restored packs.
    pub faults_restored: usize,
    /// Faults whose per-run cycle budget was exhausted (watchdog hits).
    pub budget_exhausted: usize,
    /// Faults the static-analysis pre-pass classified without
    /// simulation.
    pub faults_pruned: usize,
    /// Faults folded into an equivalence class representative by the
    /// collapsing pass (they inherit its verdict without simulating).
    pub faults_collapsed: usize,
    /// Times the checkpoint journal degraded to in-memory operation.
    pub journal_degraded: usize,
    /// Shard workers that completed the coordinator handshake.
    pub shard_workers: usize,
    /// Pack leases the shard coordinator granted.
    pub shard_leases_granted: usize,
    /// Pack leases that expired and were queued for reassignment.
    pub shard_leases_expired: usize,
    /// Results fenced off for arriving under a stale lease.
    pub shard_results_fenced: usize,
    /// Packs re-queued under exponential backoff.
    pub shard_backoffs: usize,
    /// Worker-computed pack results merged under a valid lease.
    pub shard_packs_merged: usize,
    /// Worker connections that ended (cleanly or by a chaos kill).
    pub shard_disconnects: usize,
    /// Packs the self-profiler accounted (computed, not restored).
    pub packs_profiled: usize,
    /// Total pack wall time the self-profiler accounted, µs.
    pub pack_time_us: u64,
    /// Simulated cycles accounted by completed packs/chunks.
    pub cycles_simulated: u64,
    /// Wall time per completed phase, in completion order.
    pub phase_times: Vec<(Phase, Duration)>,
}

impl CounterState {
    /// What happened since `earlier` was snapshotted: every count is
    /// subtracted field-wise and only the phases completed after
    /// `earlier` remain. `c.snapshot().delta(&start)` brackets one
    /// stage of a longer campaign without hand-subtracting fields.
    pub fn delta(&self, earlier: &CounterState) -> CounterState {
        CounterState {
            faults_simulated: self.faults_simulated - earlier.faults_simulated,
            faults_dropped: self.faults_dropped - earlier.faults_dropped,
            mc_converged: self.mc_converged - earlier.mc_converged,
            mc_capped: self.mc_capped - earlier.mc_capped,
            mc_batches: self.mc_batches - earlier.mc_batches,
            faults_graded: self.faults_graded - earlier.faults_graded,
            faults_flagged: self.faults_flagged - earlier.faults_flagged,
            grade_packs: self.grade_packs - earlier.grade_packs,
            grade_pack_faults: self.grade_pack_faults - earlier.grade_pack_faults,
            packs_quarantined: self.packs_quarantined - earlier.packs_quarantined,
            faults_quarantined: self.faults_quarantined - earlier.faults_quarantined,
            packs_restored: self.packs_restored - earlier.packs_restored,
            faults_restored: self.faults_restored - earlier.faults_restored,
            budget_exhausted: self.budget_exhausted - earlier.budget_exhausted,
            faults_pruned: self.faults_pruned - earlier.faults_pruned,
            faults_collapsed: self.faults_collapsed - earlier.faults_collapsed,
            journal_degraded: self.journal_degraded - earlier.journal_degraded,
            shard_workers: self.shard_workers - earlier.shard_workers,
            shard_leases_granted: self.shard_leases_granted - earlier.shard_leases_granted,
            shard_leases_expired: self.shard_leases_expired - earlier.shard_leases_expired,
            shard_results_fenced: self.shard_results_fenced - earlier.shard_results_fenced,
            shard_backoffs: self.shard_backoffs - earlier.shard_backoffs,
            shard_packs_merged: self.shard_packs_merged - earlier.shard_packs_merged,
            shard_disconnects: self.shard_disconnects - earlier.shard_disconnects,
            packs_profiled: self.packs_profiled - earlier.packs_profiled,
            pack_time_us: self.pack_time_us - earlier.pack_time_us,
            cycles_simulated: self.cycles_simulated - earlier.cycles_simulated,
            phase_times: self.phase_times[earlier.phase_times.len()..].to_vec(),
        }
    }
}

/// The end-of-run campaign summary the CLI and the bench binaries
/// print to stderr — every populated counter group, then wall time per
/// phase. Lines are omitted when their counters are zero, so a
/// classification-only run prints no grading lines.
impl std::fmt::Display for CounterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.faults_pruned > 0 {
            writeln!(
                f,
                "static prune: {} fault(s) classified without simulation",
                self.faults_pruned
            )?;
        }
        if self.faults_collapsed > 0 {
            writeln!(
                f,
                "collapse: {} fault(s) folded into equivalence-class representatives",
                self.faults_collapsed
            )?;
        }
        if self.faults_simulated > 0 {
            writeln!(
                f,
                "campaign: {} faults simulated, {} dropped by detection",
                self.faults_simulated, self.faults_dropped
            )?;
        }
        if self.mc_converged + self.mc_capped > 0 {
            writeln!(
                f,
                "monte carlo: {} estimations converged, {} hit the batch ceiling ({} batches total)",
                self.mc_converged, self.mc_capped, self.mc_batches
            )?;
        }
        if self.grade_packs > 0 {
            writeln!(
                f,
                "grading: {} faults in {} lane packs ({:.1} faults/pack)",
                self.grade_pack_faults,
                self.grade_packs,
                self.grade_pack_faults as f64 / self.grade_packs as f64
            )?;
        }
        if self.cycles_simulated > 0 {
            writeln!(f, "simulated: {} cycles", self.cycles_simulated)?;
        }
        if self.packs_restored > 0 {
            writeln!(
                f,
                "checkpoint: {} pack(s) restored from the journal ({} faults skipped recomputation)",
                self.packs_restored, self.faults_restored
            )?;
        }
        if self.packs_quarantined > 0 {
            writeln!(
                f,
                "quarantine: {} pack(s) panicked twice and were set aside ({} faults ungraded)",
                self.packs_quarantined, self.faults_quarantined
            )?;
        }
        if self.budget_exhausted > 0 {
            writeln!(
                f,
                "watchdog: {} fault(s) exhausted their cycle budget",
                self.budget_exhausted
            )?;
        }
        if self.journal_degraded > 0 {
            writeln!(
                f,
                "journal: degraded to in-memory operation {} time(s) — campaign NOT checkpointed",
                self.journal_degraded
            )?;
        }
        if self.shard_workers + self.shard_leases_granted > 0 {
            writeln!(
                f,
                "shard: {} worker(s), {} lease(s) granted, {} expired, {} fenced, {} backoff(s), {} merged",
                self.shard_workers,
                self.shard_leases_granted,
                self.shard_leases_expired,
                self.shard_results_fenced,
                self.shard_backoffs,
                self.shard_packs_merged
            )?;
        }
        if self.packs_profiled > 0 {
            writeln!(
                f,
                "profile: {} pack(s) timed, {:.1} ms total pack wall time",
                self.packs_profiled,
                self.pack_time_us as f64 / 1e3
            )?;
        }
        for (phase, elapsed) in &self.phase_times {
            writeln!(
                f,
                "phase {:<8} {:>8.1} ms",
                phase.label(),
                elapsed.as_secs_f64() * 1e3
            )?;
        }
        Ok(())
    }
}

impl Counters {
    /// A fresh, zeroed counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// A snapshot of everything observed so far.
    pub fn snapshot(&self) -> CounterState {
        self.inner.lock().expect("counter lock").clone()
    }
}

impl Progress for Counters {
    fn event(&self, event: ProgressEvent) {
        let mut s = self.inner.lock().expect("counter lock");
        match event {
            ProgressEvent::PhaseStart { .. } | ProgressEvent::WorkPlanned { .. } => {}
            ProgressEvent::PhaseDone { phase, elapsed, .. } => s.phase_times.push((phase, elapsed)),
            ProgressEvent::CyclesSimulated { cycles } => s.cycles_simulated += cycles,
            ProgressEvent::FaultSimulated { dropped } => {
                s.faults_simulated += 1;
                if dropped {
                    s.faults_dropped += 1;
                }
            }
            ProgressEvent::MonteCarlo { batches, converged } => {
                s.mc_batches += batches;
                if converged {
                    s.mc_converged += 1;
                } else {
                    s.mc_capped += 1;
                }
            }
            ProgressEvent::FaultGraded { flagged } => {
                s.faults_graded += 1;
                if flagged {
                    s.faults_flagged += 1;
                }
            }
            ProgressEvent::GradePack { faults } => {
                s.grade_packs += 1;
                s.grade_pack_faults += faults;
            }
            ProgressEvent::PackQuarantined { faults } => {
                s.packs_quarantined += 1;
                s.faults_quarantined += faults;
            }
            ProgressEvent::PackRestored { faults } => {
                s.packs_restored += 1;
                s.faults_restored += faults;
            }
            ProgressEvent::BudgetExhausted => s.budget_exhausted += 1,
            ProgressEvent::FaultPruned => s.faults_pruned += 1,
            ProgressEvent::FaultCollapsed => s.faults_collapsed += 1,
            ProgressEvent::JournalDegraded => s.journal_degraded += 1,
            ProgressEvent::ShardWorkerConnected => s.shard_workers += 1,
            ProgressEvent::ShardLeaseGranted => s.shard_leases_granted += 1,
            ProgressEvent::ShardLeaseExpired => s.shard_leases_expired += 1,
            ProgressEvent::ShardResultFenced => s.shard_results_fenced += 1,
            ProgressEvent::ShardBackoff => s.shard_backoffs += 1,
            ProgressEvent::ShardPackMerged => s.shard_packs_merged += 1,
            ProgressEvent::ShardWorkerDisconnected => s.shard_disconnects += 1,
            ProgressEvent::PackProfile { us, .. } => {
                s.packs_profiled += 1;
                s.pack_time_us = s.pack_time_us.saturating_add(us);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let serial: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 32] {
            let par = par_map_indexed(threads, 97, |i| i * i);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_map_chunks_matches_flat_serial() {
        let items: Vec<u32> = (0..200).collect();
        let serial: Vec<u64> = items
            .chunks(63)
            .flat_map(|c| c.iter().map(|&x| u64::from(x) * 3).collect::<Vec<_>>())
            .collect();
        for threads in [1, 4] {
            let par = par_map_chunks(threads, &items, 63, |c| {
                c.iter().map(|&x| u64::from(x) * 3).collect()
            });
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn imbalanced_items_all_complete() {
        // Items with wildly different costs: the shared queue keeps
        // workers busy and every result lands in its slot.
        let out = par_map_indexed(4, 40, |i| {
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn caught_map_quarantines_deterministic_panics() {
        for threads in [1, 4] {
            let out = par_map_indexed_caught(threads, 10, |i| {
                if i == 3 {
                    panic!("lane {i} misbehaved");
                }
                i * 2
            });
            for (i, slot) in out.iter().enumerate() {
                if i == 3 {
                    let err = slot.as_ref().expect_err("item 3 panics");
                    assert_eq!(err.message, "lane 3 misbehaved");
                } else {
                    assert_eq!(slot.as_ref().copied(), Ok(i * 2), "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn caught_map_retries_flaky_items_once() {
        use std::sync::atomic::AtomicUsize;
        let attempts: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        let out = par_map_indexed_caught(2, 6, |i| {
            let prior = attempts[i].fetch_add(1, Ordering::SeqCst);
            if i % 2 == 0 && prior == 0 {
                panic!("first attempt fails");
            }
            i
        });
        assert!(
            out.iter().all(Result::is_ok),
            "flaky items recover on retry"
        );
        for (i, a) in attempts.iter().enumerate() {
            let n = a.load(Ordering::SeqCst);
            assert_eq!(n, if i % 2 == 0 { 2 } else { 1 }, "item {i}");
        }
    }

    /// Drains `n` items through [`ordered_waves`] on `workers` workers,
    /// returning what the consumer saw and how many items were computed.
    fn drain_waves(workers: usize, n: usize) -> (Vec<u64>, usize) {
        let computed = AtomicUsize::new(0);
        let seen = ordered_waves(
            workers,
            || (),
            |_, i| {
                computed.fetch_add(1, Ordering::SeqCst);
                // Uneven item costs, so helpers finish out of order.
                if i % 3 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                stream_seed(7, i as u64)
            },
            |next| (0..n).map(next).collect::<Vec<_>>(),
        );
        (seen, computed.into_inner())
    }

    #[test]
    fn ordered_waves_delivers_in_index_order_like_a_serial_run() {
        let serial: Vec<u64> = (0..23).map(|i| stream_seed(7, i)).collect();
        for workers in [1, 2, 3, 8] {
            let (seen, computed) = drain_waves(workers, 23);
            assert_eq!(seen, serial, "workers = {workers}");
            assert!(
                computed >= 23 && computed < 23 + workers,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn ordered_waves_reads_at_most_workers_minus_one_items_ahead() {
        for workers in [1, 2, 3, 5] {
            for k in 1..12 {
                let (seen, computed) = drain_waves(workers, k);
                assert_eq!(seen.len(), k);
                assert!(
                    computed < k + workers,
                    "stopping after {k} items on {workers} workers computed {computed}"
                );
            }
        }
    }

    #[test]
    fn ordered_waves_reraises_a_helper_panic_without_hanging() {
        for workers in [2, 3, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ordered_waves(
                    workers,
                    || (),
                    |_, i| {
                        if i == 1 {
                            panic!("item {i} misbehaved");
                        }
                        i
                    },
                    |next| (0..10).map(next).sum::<usize>(),
                )
            }));
            let payload = caught.expect_err("item 1 panics on a helper");
            assert_eq!(panic_message(payload.as_ref()), "item 1 misbehaved");
        }
        // A panicking item past the point where the consumer stops is
        // never observed, even when its result arrives first.
        for workers in [3, 8] {
            let quiet = ordered_waves(
                workers,
                || (),
                |_, i| {
                    match i {
                        1 => std::thread::sleep(Duration::from_millis(20)),
                        2 => panic!("speculative item {i}"),
                        _ => {}
                    }
                    i
                },
                |next| next(0) + next(1),
            );
            assert_eq!(quiet, 1, "workers = {workers}");
        }
        // The same message arrives through the quarantine path.
        let out = par_map_indexed_caught(1, 1, |_| {
            ordered_waves(
                3,
                || (),
                |_, i| {
                    if i == 4 {
                        panic!("batch {i} exploded");
                    }
                    i
                },
                |next| (0..6).map(next).sum::<usize>(),
            )
        });
        assert_eq!(out[0].as_ref().unwrap_err().message, "batch 4 exploded");
    }

    #[test]
    fn ordered_waves_with_one_worker_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let states = AtomicUsize::new(0);
        let total = ordered_waves(
            1,
            || states.fetch_add(1, Ordering::SeqCst),
            |_, i| {
                assert_eq!(std::thread::current().id(), caller, "item {i}");
                i
            },
            |next| (0..9).map(next).sum::<usize>(),
        );
        assert_eq!(total, 36);
        assert_eq!(states.into_inner(), 1, "one state serves every item");
    }

    #[test]
    fn stream_seed_separates_streams() {
        let a = stream_seed(0xACE1, 0);
        let b = stream_seed(0xACE1, 1);
        let c = stream_seed(0xACE2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, stream_seed(0xACE1, 0), "deterministic");
    }

    #[test]
    fn counters_accumulate() {
        let c = Counters::new();
        c.event(ProgressEvent::FaultSimulated { dropped: true });
        c.event(ProgressEvent::FaultSimulated { dropped: false });
        c.event(ProgressEvent::MonteCarlo {
            batches: 6,
            converged: true,
        });
        c.event(ProgressEvent::FaultGraded { flagged: true });
        c.event(ProgressEvent::GradePack { faults: 63 });
        c.event(ProgressEvent::GradePack { faults: 7 });
        let s = c.snapshot();
        assert_eq!(s.faults_simulated, 2);
        assert_eq!(s.faults_dropped, 1);
        assert_eq!(s.mc_batches, 6);
        assert_eq!(s.mc_converged, 1);
        assert_eq!(s.faults_graded, 1);
        assert_eq!(s.faults_flagged, 1);
        assert_eq!(s.grade_packs, 2);
        assert_eq!(s.grade_pack_faults, 70);
    }

    #[test]
    fn counters_accumulate_shard_and_profile_events() {
        let c = Counters::new();
        c.event(ProgressEvent::ShardWorkerConnected);
        c.event(ProgressEvent::ShardLeaseGranted);
        c.event(ProgressEvent::ShardPackMerged);
        c.event(ProgressEvent::ShardWorkerDisconnected);
        c.event(ProgressEvent::PackProfile {
            us: u64::MAX,
            ops: 10,
            levels: 3,
            force_ops: 2,
            lanes: 8,
            dirty_nets: 5,
            nets: 20,
        });
        c.event(ProgressEvent::PackProfile {
            us: 7,
            ops: 10,
            levels: 3,
            force_ops: 2,
            lanes: 8,
            dirty_nets: 5,
            nets: 20,
        });
        let s = c.snapshot();
        assert_eq!(s.shard_workers, 1);
        assert_eq!(s.shard_packs_merged, 1);
        assert_eq!(s.shard_disconnects, 1);
        assert_eq!(s.packs_profiled, 2);
        assert_eq!(s.pack_time_us, u64::MAX, "pack time saturates");
        let text = s.to_string();
        assert!(text.contains("profile: 2 pack(s) timed"));
        assert!(text.contains("1 merged"));
    }

    #[test]
    fn phase_timer_emits_start_and_done() {
        let c = Counters::new();
        PhaseTimer::start(&c, Phase::Build).finish();
        let s = c.snapshot();
        assert_eq!(s.phase_times.len(), 1);
        assert_eq!(s.phase_times[0].0, Phase::Build);
    }

    /// Observer that remembers whether its span ended aborted.
    struct SpanWatcher {
        ends: std::sync::Mutex<Vec<(Phase, bool)>>,
    }

    impl Progress for SpanWatcher {
        fn event(&self, event: ProgressEvent) {
            if let ProgressEvent::PhaseDone { phase, aborted, .. } = event {
                self.ends
                    .lock()
                    .expect("watcher lock")
                    .push((phase, aborted));
            }
        }
    }

    #[test]
    fn phase_timer_dropped_by_a_panic_emits_an_aborted_span_end() {
        let w = SpanWatcher {
            ends: std::sync::Mutex::new(Vec::new()),
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _timer = PhaseTimer::start(&w, Phase::Grade);
            panic!("pack misbehaved");
        }));
        assert!(caught.is_err());
        let ends = w.ends.lock().expect("watcher lock");
        assert_eq!(ends.as_slice(), &[(Phase::Grade, true)]);
    }

    #[test]
    fn phase_timer_finished_normally_is_not_aborted() {
        let w = SpanWatcher {
            ends: std::sync::Mutex::new(Vec::new()),
        };
        PhaseTimer::start(&w, Phase::Golden).finish();
        let ends = w.ends.lock().expect("watcher lock");
        assert_eq!(ends.as_slice(), &[(Phase::Golden, false)]);
    }

    #[test]
    fn counter_delta_subtracts_fieldwise_and_keeps_new_phases() {
        let c = Counters::new();
        c.event(ProgressEvent::FaultSimulated { dropped: true });
        c.event(ProgressEvent::CyclesSimulated { cycles: 100 });
        PhaseTimer::start(&c, Phase::Golden).finish();
        let earlier = c.snapshot();
        c.event(ProgressEvent::FaultSimulated { dropped: false });
        c.event(ProgressEvent::FaultSimulated { dropped: false });
        c.event(ProgressEvent::CyclesSimulated { cycles: 50 });
        PhaseTimer::start(&c, Phase::Grade).finish();
        let d = c.snapshot().delta(&earlier);
        assert_eq!(d.faults_simulated, 2);
        assert_eq!(d.faults_dropped, 0);
        assert_eq!(d.cycles_simulated, 50);
        assert_eq!(d.phase_times.len(), 1);
        assert_eq!(d.phase_times[0].0, Phase::Grade);
    }

    #[test]
    fn counter_display_renders_only_populated_groups() {
        let c = Counters::new();
        c.event(ProgressEvent::FaultSimulated { dropped: true });
        let text = c.snapshot().to_string();
        assert!(text.contains("campaign: 1 faults simulated, 1 dropped by detection"));
        assert!(
            !text.contains("monte carlo"),
            "no MC lines without MC events"
        );
        assert!(!text.contains("grading:"));
    }

    #[test]
    fn tee_fans_out_events_and_gates_records_on_demand() {
        struct Recorder {
            n: AtomicUsize,
        }
        impl Progress for Recorder {
            fn event(&self, _event: ProgressEvent) {}
            fn record(&self, _record: &TraceRecord) {
                self.n.fetch_add(1, Ordering::SeqCst);
            }
            fn wants_records(&self) -> bool {
                true
            }
        }
        let a = Counters::new();
        let b = Recorder {
            n: AtomicUsize::new(0),
        };
        let sinks: [&dyn Progress; 2] = [&a, &b];
        let tee = Tee::new(&sinks);
        assert!(tee.wants_records(), "one consumer is enough");
        tee.event(ProgressEvent::FaultGraded { flagged: true });
        tee.record(&TraceRecord::Note {
            text: "hello".into(),
        });
        assert_eq!(a.snapshot().faults_graded, 1);
        assert_eq!(b.n.load(Ordering::SeqCst), 1);
        let none: [&dyn Progress; 1] = [&a];
        assert!(!Tee::new(&none).wants_records());
    }
}

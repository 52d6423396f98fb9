//! Parallel campaign execution — the facade over [`sfr_exec`] and the
//! fault-simulation engines.
//!
//! Everything a caller needs to parallelize a study or observe one in
//! flight lives here:
//!
//! * [`Engine`] / [`EngineKind`] — the fault-simulation engines: the
//!   compiled-tape [`TapeEngine`] (the default) and the scalar reference
//!   [`SerialEngine`], verdict-identical;
//! * [`Progress`] / [`ProgressEvent`] / [`Counters`] — the campaign
//!   observer hook (phase wall times, faults simulated and dropped,
//!   Monte Carlo convergence);
//! * [`par_map_indexed`] / [`par_map_chunks`] — the order-preserving
//!   scoped-thread work queue underneath it all;
//! * [`stream_seed`] — the per-work-item seed-splitting scheme that
//!   keeps parallel runs byte-identical to serial ones.

pub use sfr_exec::{
    default_threads, panic_message, par_map_chunks, par_map_indexed, par_map_indexed_caught,
    stream_seed, CounterState, Counters, LaneGrade, NullProgress, Phase, PhaseTimer, Progress,
    ProgressEvent, TaskPanic, Tee, TraceRecord, WorkKind,
};
pub use sfr_faultsim::{
    run_campaign, run_campaign_quarantined, Engine, EngineKind, QuarantinedChunk, SerialEngine,
    SimKernel, TapeEngine,
};

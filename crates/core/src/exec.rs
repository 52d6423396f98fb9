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
//! * [`par_map_indexed`] / [`par_map_indexed_caught`] — the
//!   order-preserving scoped-thread work queue underneath it all, the
//!   second with the retry-once panic quarantine;
//! * [`run_campaign_quarantined`] — the journaled, quarantined
//!   fault-simulation campaign.

pub use sfr_exec::{
    default_threads, panic_message, par_map_indexed, par_map_indexed_caught, CounterState,
    Counters, LaneGrade, NullProgress, Phase, PhaseTimer, Progress, ProgressEvent, TapeShape,
    TaskPanic, Tee, TraceRecord,
};
pub use sfr_faultsim::{
    run_campaign_quarantined, Engine, EngineKind, QuarantinedChunk, SerialEngine, SimKernel,
    TapeEngine,
};

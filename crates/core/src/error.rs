//! The facade's unified error type.

use sfr_hls::EmitError;
use sfr_journal::JournalError;
use sfr_netlist::NetlistError;
use std::fmt;

/// Everything that can go wrong preparing or running a study.
///
/// The facade path reports all failures through this one enum —
/// callers match on it instead of downcasting a boxed error.
#[derive(Debug)]
pub enum StudyError {
    /// Gate-level netlist construction failed (an internal consistency
    /// error, not user input).
    Netlist(NetlistError),
    /// A benchmark failed to build through the HLS flow.
    Benchmark(EmitError),
    /// The study configuration is invalid (unknown benchmark name,
    /// zero-width datapath, empty test set, …).
    InvalidConfig(String),
    /// The checkpoint journal could not be opened or validated
    /// (missing file on `--resume`, corruption, or a fingerprint from a
    /// different campaign).
    Journal(JournalError),
    /// The run-manifest destination is unusable (an existing manifest
    /// without `--force`, or an unwritable path).
    Manifest(String),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Netlist(e) => write!(f, "netlist construction failed: {e}"),
            StudyError::Benchmark(e) => write!(f, "benchmark build failed: {e}"),
            StudyError::InvalidConfig(msg) => write!(f, "invalid study configuration: {msg}"),
            StudyError::Journal(e) => write!(f, "checkpoint journal error: {e}"),
            StudyError::Manifest(msg) => write!(f, "run manifest error: {msg}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Netlist(e) => Some(e),
            StudyError::Benchmark(e) => Some(e),
            StudyError::InvalidConfig(_) => None,
            StudyError::Journal(e) => Some(e),
            StudyError::Manifest(_) => None,
        }
    }
}

impl From<JournalError> for StudyError {
    fn from(e: JournalError) -> Self {
        StudyError::Journal(e)
    }
}

impl From<NetlistError> for StudyError {
    fn from(e: NetlistError) -> Self {
        StudyError::Netlist(e)
    }
}

impl From<EmitError> for StudyError {
    fn from(e: EmitError) -> Self {
        StudyError::Benchmark(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_prefixed_and_sources_chain() {
        let e = StudyError::InvalidConfig("unknown benchmark `quux`".into());
        assert!(e.to_string().contains("unknown benchmark"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn converts_to_boxed_error() {
        fn fallible() -> Result<(), Box<dyn std::error::Error>> {
            Err(StudyError::InvalidConfig("x".into()))?
        }
        assert!(fallible().is_err());
    }
}

//! Test pattern generation for integrated controller–datapath testing.
//!
//! The paper drives the datapath's primary data inputs from a TPGR — a
//! maximal-length LFSR — during the integrated fault-simulation step, and
//! studies power consistency over three 1200-pattern test sets with
//! different seeds (Table 3). This crate provides the [`Lfsr`] and the
//! reproducible [`TestSet`]s, including [`TestSet::paper_trio`].
//!
//! # Example
//!
//! ```
//! use sfr_tpg::TestSet;
//!
//! # fn main() -> Result<(), sfr_tpg::UnsupportedWidthError> {
//! let [t1, t2, t3] = TestSet::paper_trio(4)?;
//! assert_eq!(t1.len(), 1200);
//! assert_ne!(t1.patterns()[..10], t2.patterns()[..10]);
//! // The third set is seeded near-all-0s, as in the paper.
//! assert_eq!(t3.seed(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod lfsr;
mod testset;

pub use lfsr::{Lfsr, UnsupportedWidthError};
pub use testset::{TestSet, MAX_PATTERN_BITS, PAPER_PATTERNS, PAPER_SEEDS};

//! Two-level logic synthesis for FSM controller realization.
//!
//! The paper's controllers are finite state machines synthesized by a
//! 1990s ASIC flow (COMPASS). This crate provides the equivalent open
//! substrate: [`Cube`]/[`Cover`] algebra, exact Quine–McCluskey
//! [minimization](minimize) with don't-cares, and [technology
//! mapping](SopMapper) of the resulting sums of products onto the
//! [`sfr_netlist`] cell library.
//!
//! The minimizer is exact (prime generation plus essential/exact covering)
//! for the function widths that occur in controller synthesis — a few
//! state bits plus status inputs. Don't-care handling matters doubly here:
//! the controller's unused state codes *and* the datapath's inactive-step
//! control values are both don't-cares, and how they are filled determines
//! which controller faults end up system-functionally redundant.
//!
//! # Example
//!
//! ```
//! use sfr_logic::{minimize, SopMapper};
//! use sfr_netlist::NetlistBuilder;
//!
//! # fn main() -> Result<(), sfr_netlist::NetlistError> {
//! // Minimize f(a,b,c) = Σm(1,3,5,7): collapses to the single literal a.
//! let cover = minimize(3, &[1, 3, 5, 7], &[]);
//! assert_eq!(cover.literal_count(), 1);
//!
//! // Map it onto gates.
//! let mut b = NetlistBuilder::new("f");
//! let nets: Vec<_> = (0..3).map(|i| b.input(format!("x{i}"))).collect();
//! let f = SopMapper::new().map(&mut b, &cover, &nets, "f");
//! b.mark_output(f);
//! // A single positive literal maps to the input wire itself: zero gates.
//! assert_eq!(f, nets[0]);
//! let nl = b.finish()?;
//! assert_eq!(nl.gate_count(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod cube;
mod map;
mod qm;

pub use cube::{Cover, Cube};
pub use map::SopMapper;
pub use qm::{minimize, prime_implicants};

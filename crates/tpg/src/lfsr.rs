//! Maximal-length linear feedback shift registers.
//!
//! The paper's integrated test applies pseudorandom patterns from a TPGR
//! (test pattern generation register) to the datapath data inputs. This
//! module provides Fibonacci LFSRs with maximal-length tap sets for widths
//! 2–32, so a width-`w` TPGR cycles through all `2^w − 1` nonzero states.

use std::fmt;

/// Maximal-length tap masks for the right-shift Galois form (bit
/// `width-1` is always set; bit `t-1` is set for every other tap `t` of
/// the primitive polynomial), indexed by `width - 2`. Standard table of
/// primitive polynomials over GF(2).
const TAPS: [u32; 30] = [
    0x3,        // 2: x^2 + x + 1
    0x6,        // 3: x^3 + x^2 + 1
    0xC,        // 4: x^4 + x^3 + 1
    0x14,       // 5: x^5 + x^3 + 1
    0x30,       // 6: x^6 + x^5 + 1
    0x60,       // 7: x^7 + x^6 + 1
    0xB8,       // 8: x^8 + x^6 + x^5 + x^4 + 1
    0x110,      // 9: x^9 + x^5 + 1
    0x240,      // 10: x^10 + x^7 + 1
    0x500,      // 11: x^11 + x^9 + 1
    0xE08,      // 12
    0x1C80,     // 13
    0x3802,     // 14
    0x6000,     // 15: x^15 + x^14 + 1
    0xD008,     // 16
    0x12000,    // 17: x^17 + x^14 + 1
    0x20400,    // 18: x^18 + x^11 + 1
    0x72000,    // 19
    0x90000,    // 20: x^20 + x^17 + 1
    0x140000,   // 21: x^21 + x^19 + 1
    0x300000,   // 22: x^22 + x^21 + 1
    0x420000,   // 23: x^23 + x^18 + 1
    0xE10000,   // 24
    0x1200000,  // 25: x^25 + x^22 + 1
    0x2000023,  // 26
    0x4000013,  // 27
    0x9000000,  // 28: x^28 + x^25 + 1
    0x14000000, // 29: x^29 + x^27 + 1
    0x20000029, // 30
    0x48000000, // 31: x^31 + x^28 + 1
];

/// Error constructing an [`Lfsr`] or a [`crate::TestSet`] with an
/// unsupported width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedWidthError {
    /// The requested width.
    pub width: usize,
}

impl fmt::Display for UnsupportedWidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "width {} unsupported (an LFSR takes 2..=32 stages, a test pattern at most {} bits)",
            self.width,
            crate::MAX_PATTERN_BITS
        )
    }
}

impl std::error::Error for UnsupportedWidthError {}

/// A Galois LFSR with maximal-length taps.
///
/// # Examples
///
/// ```
/// use sfr_tpg::Lfsr;
///
/// # fn main() -> Result<(), sfr_tpg::UnsupportedWidthError> {
/// let mut lfsr = Lfsr::new(4, 0b1010)?;
/// // A 4-bit maximal LFSR visits all 15 nonzero states before repeating.
/// let start = lfsr.state();
/// let mut seen = std::collections::HashSet::new();
/// loop {
///     seen.insert(lfsr.state());
///     lfsr.step();
///     if lfsr.state() == start { break; }
/// }
/// assert_eq!(seen.len(), 15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u32,
    taps: u32,
    width: usize,
}

impl Lfsr {
    /// Creates an LFSR of the given width, seeded with `seed`.
    ///
    /// A zero seed (the lock-up state) is coerced to 1, mirroring hardware
    /// TPGRs that force a nonzero reset value.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedWidthError`] unless `2 <= width <= 32`.
    pub fn new(width: usize, seed: u32) -> Result<Self, UnsupportedWidthError> {
        if !(2..=32).contains(&width) {
            return Err(UnsupportedWidthError { width });
        }
        let taps = if width == 32 {
            0x8020_0003
        } else {
            TAPS[width - 2]
        };
        let m = if width == 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        let mut state = seed & m;
        if state == 0 {
            state = 1;
        }
        Ok(Lfsr { state, taps, width })
    }

    /// The register width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Current register contents.
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Advances one shift, returning the bit shifted out.
    ///
    /// Galois (one-to-many) form: the register shifts right and, when
    /// the output bit is 1, the tap mask is XORed in. A nonzero state
    /// can never reach zero (if the shift empties the register the tap
    /// mask is injected), so no lock-up state exists besides zero
    /// itself, which the constructor excludes.
    pub fn step(&mut self) -> bool {
        let out = self.state & 1 == 1;
        self.state >>= 1;
        if out {
            self.state ^= self.taps;
        }
        out
    }

    /// Produces the next `bits`-wide pseudorandom word (collected from
    /// successive output bits, LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    pub fn next_word(&mut self, bits: usize) -> u64 {
        assert!(bits <= 64, "at most 64 bits per word");
        let mut w = 0u64;
        for i in 0..bits {
            if self.step() {
                w |= 1 << i;
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rejects_bad_widths() {
        assert!(Lfsr::new(1, 1).is_err());
        assert!(Lfsr::new(33, 1).is_err());
        assert!(Lfsr::new(0, 1).is_err());
    }

    #[test]
    fn zero_seed_coerced() {
        let l = Lfsr::new(8, 0).unwrap();
        assert_ne!(l.state(), 0);
    }

    #[test]
    fn maximal_period_small_widths() {
        for width in 2..=16 {
            let mut l = Lfsr::new(width, 1).unwrap();
            let mut seen = HashSet::new();
            let period = loop {
                seen.insert(l.state());
                l.step();
                if l.state() == 1 {
                    break seen.len();
                }
                assert!(seen.len() <= 1 << width, "runaway at width {width}");
            };
            assert_eq!(period, (1usize << width) - 1, "width {width} not maximal");
            assert!(!seen.contains(&0), "zero state reached at width {width}");
        }
    }

    #[test]
    fn word_extraction_is_deterministic() {
        let mut a = Lfsr::new(16, 0xACE1).unwrap();
        let mut b = Lfsr::new(16, 0xACE1).unwrap();
        for _ in 0..32 {
            assert_eq!(a.next_word(4), b.next_word(4));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Lfsr::new(16, 0xACE1).unwrap();
        let mut b = Lfsr::new(16, 0x1234).unwrap();
        let wa: Vec<u64> = (0..16).map(|_| a.next_word(4)).collect();
        let wb: Vec<u64> = (0..16).map(|_| b.next_word(4)).collect();
        assert_ne!(wa, wb);
    }

    #[test]
    fn bits_reasonably_balanced() {
        let mut l = Lfsr::new(20, 0xBEEF).unwrap();
        let ones: u32 = (0..4000).map(|_| l.step() as u32).sum();
        // Expect ~2000 ones; allow generous slack.
        assert!((1700..=2300).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn width_32_runs() {
        let mut l = Lfsr::new(32, 0xDEAD_BEEF).unwrap();
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            l.step();
            seen.insert(l.state());
        }
        assert!(seen.len() > 990);
    }
}

//! Reproducible pseudorandom test sets.
//!
//! The paper evaluates power consistency over three 1200-pattern test
//! sets generated from a TPGR with different seeds, the third seeded with
//! "almost all 0s" to be deliberately less pseudorandom (Section 6,
//! Table 3). [`TestSet::paper_trio`] reproduces that setup.

use crate::lfsr::{Lfsr, UnsupportedWidthError};

/// The paper's test-set size: 1200 patterns.
pub const PAPER_PATTERNS: usize = 1200;

/// Seeds used for the three test sets (the third is near-all-0s).
pub const PAPER_SEEDS: [u32; 3] = [0xACE1, 0x5EED, 0x0001];

/// The widest test pattern: one `u64` word carries every data input bit
/// of a cycle.
pub const MAX_PATTERN_BITS: usize = 64;

/// A sequence of input patterns for a `width`-bit data port.
///
/// # Examples
///
/// ```
/// use sfr_tpg::TestSet;
///
/// # fn main() -> Result<(), sfr_tpg::UnsupportedWidthError> {
/// let ts = TestSet::pseudorandom(4, 1200, 0xACE1)?;
/// assert_eq!(ts.len(), 1200);
/// assert!(ts.patterns().iter().all(|&p| p < 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestSet {
    width: usize,
    seed: u32,
    patterns: Vec<u64>,
}

impl TestSet {
    /// Generates `count` patterns of `width` bits from a 16-stage TPGR
    /// seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedWidthError`] if `width` exceeds
    /// [`MAX_PATTERN_BITS`].
    pub fn pseudorandom(
        width: usize,
        count: usize,
        seed: u32,
    ) -> Result<Self, UnsupportedWidthError> {
        if width > MAX_PATTERN_BITS {
            return Err(UnsupportedWidthError { width });
        }
        let mut lfsr = Lfsr::new(16, seed)?;
        let patterns = (0..count).map(|_| lfsr.next_word(width)).collect();
        Ok(TestSet {
            width,
            seed,
            patterns,
        })
    }

    /// Builds a test set from explicit patterns (values must fit `width`
    /// bits).
    ///
    /// # Panics
    ///
    /// Panics if any pattern does not fit in `width` bits.
    pub fn from_patterns(width: usize, patterns: Vec<u64>) -> Self {
        let m = if width >= 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        assert!(
            patterns.iter().all(|&p| p & !m == 0),
            "pattern wider than {width} bits"
        );
        TestSet {
            width,
            seed: 0,
            patterns,
        }
    }

    /// The paper's three 1200-pattern test sets for a port of the given
    /// width.
    ///
    /// # Errors
    ///
    /// Propagates [`UnsupportedWidthError`] from LFSR construction.
    pub fn paper_trio(width: usize) -> Result<[TestSet; 3], UnsupportedWidthError> {
        Ok([
            TestSet::pseudorandom(width, PAPER_PATTERNS, PAPER_SEEDS[0])?,
            TestSet::pseudorandom(width, PAPER_PATTERNS, PAPER_SEEDS[1])?,
            TestSet::pseudorandom(width, PAPER_PATTERNS, PAPER_SEEDS[2])?,
        ])
    }

    /// Pattern width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The seed used to generate the set (0 for explicit sets).
    pub fn seed(&self) -> u32 {
        self.seed
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The raw patterns.
    pub fn patterns(&self) -> &[u64] {
        &self.patterns
    }

    /// Iterates the patterns.
    pub fn iter(&self) -> std::slice::Iter<'_, u64> {
        self.patterns.iter()
    }
}

impl<'a> IntoIterator for &'a TestSet {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.patterns.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = TestSet::pseudorandom(4, 100, 0xACE1).unwrap();
        let b = TestSet::pseudorandom(4, 100, 0xACE1).unwrap();
        assert_eq!(a, b);
        let c = TestSet::pseudorandom(4, 100, 0x5EED).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn patterns_fit_width() {
        let ts = TestSet::pseudorandom(5, 500, 7).unwrap();
        assert!(ts.iter().all(|&p| p < 32));
    }

    #[test]
    fn pseudorandom_rejects_patterns_wider_than_a_word() {
        let widest = TestSet::pseudorandom(MAX_PATTERN_BITS, 8, 0xACE1).unwrap();
        assert_eq!(widest.width(), 64);
        let err = TestSet::pseudorandom(MAX_PATTERN_BITS + 1, 8, 0xACE1).unwrap_err();
        assert_eq!(err, UnsupportedWidthError { width: 65 });
        assert!(err.to_string().contains("at most 64 bits"), "{err}");
    }

    #[test]
    fn paper_trio_shape() {
        let trio = TestSet::paper_trio(4).unwrap();
        for ts in &trio {
            assert_eq!(ts.len(), PAPER_PATTERNS);
            assert_eq!(ts.width(), 4);
        }
        assert_ne!(trio[0], trio[1]);
        assert_ne!(trio[1], trio[2]);
        assert_eq!(trio[2].seed(), 1);
    }

    #[test]
    fn pseudorandom_values_cover_range() {
        let ts = TestSet::pseudorandom(4, 1200, 0xACE1).unwrap();
        let mut seen = [false; 16];
        for &p in ts.iter() {
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 4-bit values should occur");
    }

    #[test]
    fn explicit_patterns_round_trip() {
        let ts = TestSet::from_patterns(4, vec![0, 15, 7]);
        assert_eq!(ts.patterns(), &[0, 15, 7]);
        assert_eq!((&ts).into_iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "wider")]
    fn explicit_patterns_validated() {
        let _ = TestSet::from_patterns(3, vec![8]);
    }
}

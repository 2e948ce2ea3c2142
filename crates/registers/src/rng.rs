use std::ops::RangeInclusive;

/// The workspace's one seeded pseudo-random generator: xorshift64\* with
/// its state spread from the seed by a splitmix64 step.
///
/// Fault schedules, scheduler policies, coin flips and the seeded
/// property loops all draw from this, so a seed names one reproducible
/// run everywhere. Not for cryptography.
///
/// ```
/// use snapshot_registers::SeededRng;
///
/// let mut a = SeededRng::new(7);
/// let mut b = SeededRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// assert!((3..=5).contains(&a.range(3..=5)));
/// ```
#[derive(Clone, Debug)]
pub struct SeededRng(u64);

impl SeededRng {
    /// The generator `seed` always produces.
    pub fn new(seed: u64) -> Self {
        // splitmix64 step: spreads small seeds, never yields state 0.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SeededRng((z ^ (z >> 31)) | 1)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A draw from `[0, 1)`, on a 53-bit grid.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p` (never for `p <= 0`, always for
    /// `p >= 1`); one draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// A draw from `0..n` (`draw % n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "SeededRng::below: empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// A draw from `lo..=hi` (`lo + draw % span`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = range.into_inner();
        assert!(lo <= hi, "SeededRng::range: empty range");
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.next_u64() % span,
            None => self.next_u64(),
        }
    }
}

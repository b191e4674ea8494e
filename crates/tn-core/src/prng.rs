//! The per-core pseudo-random number generator.
//!
//! §II of the paper: *"we have adopted pseudo-random number generators with
//! configurable seeds"* so that Compass and the TrueNorth hardware produce
//! identical stochastic behaviour — the simulator is "the key contract
//! between our hardware architects and software algorithm/application
//! designers". Determinism therefore matters more than statistical
//! perfection here: the generator must be cheap in hardware terms and
//! reproduce exactly from a seed.
//!
//! [`CorePrng`] is an xorshift64* generator — three shift/xor stages and a
//! multiplicative output scrambler, the register-and-gates class of
//! generator a hardware LFSR block reduces to — seeded through a
//! SplitMix64 scrambler so that nearby core ids receive well-separated
//! streams. One instance lives in each core and is consumed in a fixed
//! order within a tick (neuron-major during the Neuron phase), making
//! every stochastic draw reproducible regardless of how cores are
//! distributed over ranks and threads.

/// Deterministic per-core PRNG (xorshift64*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorePrng {
    state: u64,
}

impl CorePrng {
    /// Creates a generator from a raw seed. A zero seed (the xorshift
    /// fixed point) is remapped through the scrambler, so every seed is
    /// valid.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = splitmix64(seed);
        if state == 0 {
            state = splitmix64(0x9E37_79B9_7F4A_7C15);
        }
        Self { state }
    }

    /// Convenience: the stream for core `core` under global seed `seed`.
    /// Distinct cores get decorrelated streams even for consecutive ids.
    pub fn for_core(seed: u64, core: u64) -> Self {
        Self::from_seed(seed ^ splitmix64(core.wrapping_mul(0xA24B_AED4_963E_E407)))
    }

    /// Advances the generator one step and returns a 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = advance(self.state);
        scramble(self.state)
    }

    /// An 8-bit draw, as consumed by the stochastic weight/leak comparators
    /// (hardware compares an 8-bit random value against the weight
    /// magnitude).
    #[inline]
    pub fn next_u8(&mut self) -> u8 {
        self.state = advance(self.state);
        draw_u8(self.state)
    }

    /// A uniformly distributed value in `0..n` via rejection-free Lemire
    /// reduction (slight bias below 2⁻³² is irrelevant at hardware widths).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u32) -> u32 {
        assert!(n > 0, "next_below(0) is meaningless");
        let x = (self.next_u64() >> 32) as u32;
        ((u64::from(x) * u64::from(n)) >> 32) as u32
    }

    /// Bernoulli draw with probability `p_256 / 256` (the hardware
    /// comparator form used by stochastic synapses and leaks).
    #[inline]
    pub fn bernoulli_u8(&mut self, p_256: u16) -> bool {
        u16::from(self.next_u8()) < p_256
    }

    /// The raw generator state, for checkpointing. Round-trips exactly
    /// through [`Self::set_raw_state`]; never zero.
    pub fn raw_state(&self) -> u64 {
        self.state
    }

    /// Restores a state previously captured with [`Self::raw_state`],
    /// resuming the stream at exactly that point.
    ///
    /// # Panics
    /// Panics if `state == 0` — the xorshift fixed point, which no
    /// reachable generator state can ever be (callers validating untrusted
    /// bytes must reject zero before calling).
    pub fn set_raw_state(&mut self, state: u64) {
        assert!(state != 0, "zero is not a reachable xorshift64* state");
        self.state = state;
    }
}

/// One xorshift64 step: the state after `state`. On bare states, so a
/// kernel that keeps several chains in registers
/// ([`crate::kernel::draw_ahead`]) steps them with the generator's own
/// arithmetic.
#[inline(always)]
pub(crate) fn advance(mut state: u64) -> u64 {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    state
}

/// The xorshift64* output of a state that has just been stepped.
#[inline(always)]
fn scramble(state: u64) -> u64 {
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The 8-bit draw of a state that has just been stepped: bits 32..39 of
/// its output.
#[inline(always)]
pub(crate) fn draw_u8(state: u64) -> u8 {
    (scramble(state) >> 32) as u8
}

/// SplitMix64 scrambler (Steele et al.) used only for seeding.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = CorePrng::from_seed(42);
        let mut b = CorePrng::from_seed(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = CorePrng::from_seed(1);
        let mut b = CorePrng::from_seed(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut p = CorePrng::from_seed(0);
        // Must not get stuck at zero.
        let vals: Vec<u64> = (0..10).map(|_| p.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
        assert_ne!(vals[0], vals[1]);
    }

    #[test]
    fn neighbouring_cores_get_distinct_streams() {
        let mut a = CorePrng::for_core(7, 1000);
        let mut b = CorePrng::for_core(7, 1001);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut p = CorePrng::from_seed(3);
        for n in [1u32, 2, 7, 255, 256, 1000] {
            for _ in 0..200 {
                assert!(p.next_below(n) < n);
            }
        }
    }

    #[test]
    fn next_below_one_is_always_zero() {
        let mut p = CorePrng::from_seed(9);
        for _ in 0..50 {
            assert_eq!(p.next_below(1), 0);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut p = CorePrng::from_seed(5);
        for _ in 0..100 {
            assert!(!p.bernoulli_u8(0), "probability 0 must never fire");
            assert!(p.bernoulli_u8(256), "probability 256/256 must always fire");
        }
    }

    #[test]
    fn bernoulli_rate_roughly_matches() {
        let mut p = CorePrng::from_seed(11);
        let n = 20_000;
        let hits = (0..n).filter(|_| p.bernoulli_u8(64)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate} too far from 0.25");
    }

    #[test]
    fn u8_draws_cover_range() {
        let mut p = CorePrng::from_seed(13);
        let mut seen = [false; 256];
        for _ in 0..50_000 {
            seen[p.next_u8() as usize] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(covered > 250, "only {covered} byte values seen");
    }

    #[test]
    fn period_is_long() {
        // The state must not revisit its start within a modest horizon.
        let mut p = CorePrng::from_seed(17);
        let start = p.clone();
        for _ in 0..100_000 {
            p.next_u64();
            assert_ne!(p, start, "generator cycled early");
        }
    }

    #[test]
    fn consecutive_pairs_are_decorrelated() {
        // Regression: a bit-serial LFSR makes consecutive draws near-equal
        // after a shift, which starved rejection-sampling loops upstream.
        let mut p = CorePrng::from_seed(23);
        let mut distinct_pairs = std::collections::HashSet::new();
        for _ in 0..1000 {
            let a = p.next_below(256);
            let b = p.next_below(256);
            distinct_pairs.insert((a, b));
        }
        assert!(
            distinct_pairs.len() > 950,
            "only {} distinct pairs in 1000 draws",
            distinct_pairs.len()
        );
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn next_below_zero_panics() {
        CorePrng::from_seed(1).next_below(0);
    }
}

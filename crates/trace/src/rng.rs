//! A small, fast, deterministic pseudo-random number generator.
//!
//! The simulation pipeline must be bit-for-bit reproducible across platforms
//! and library versions, and trace generation sits on the hot path of every
//! experiment, so this crate uses its own xorshift/SplitMix generator rather
//! than pulling a general-purpose RNG into the simulation path.

/// The shared degenerate-geometric rule: a geometric draw whose mean is at
/// most 1 is the constant 1 and consumes **no randomness**.
///
/// Both [`Prng::geometric`] and the trace generator's
/// [`DistanceSampler`](crate::ilp::DistanceSampler) short-circuit on this
/// predicate; it
/// lives here as the single definition so the two can never drift apart —
/// a sampler that consumed randomness where `geometric` does not (or vice
/// versa) would silently desynchronize every later draw of the stream.
#[inline]
pub fn geometric_is_constant(mean: f64) -> bool {
    mean <= 1.0
}

/// The exact fixed-point threshold of the comparison `next_f64() < p`:
/// for every possible draw, `next_bits53() < chance_bits(p)` decides
/// identically to [`Prng::chance`] while performing no `f64` math per draw.
///
/// Why this is *exact*, not approximate: [`Prng::next_f64`] is
/// `(u >> 11) as f64 * 2^-53` — the 53-bit integer `x = u >> 11` converts
/// and scales without rounding, so `next_f64() < p` is the real-number
/// comparison `x < p * 2^53`. For an integer `x` that is equivalent to
/// `x < ceil(p * 2^53)`, and `ceil` here is itself exact: `p * 2^53` only
/// shifts the exponent of `p`, and `f64::ceil` never rounds. The edge cases
/// also agree bit for bit: `p <= 0` and NaN give threshold 0 (never true,
/// like the `f64` comparison), `p >= 1` gives a threshold above any 53-bit
/// draw (always true, like `chance(1.1)`).
///
/// Callers that compare one probability per draw use [`Prng::chance`]; hot
/// paths that would otherwise pay an int→float conversion and float compare
/// per record (the generator's mix draws) hoist `chance_bits` out of the
/// loop and compare [`Prng::next_bits53`] against it. Both consume exactly
/// one [`Prng::next_u64`], so mixing the two styles never desynchronizes a
/// stream — which is what let the address stream move to integer
/// thresholds without a [`TraceFormat`](crate::TraceFormat) bump.
#[inline]
pub fn chance_bits(p: f64) -> u64 {
    // 2^53 as an exactly representable f64; `as u64` saturates negatives
    // and NaN to 0 and +inf to u64::MAX, preserving the comparison edge
    // cases described above.
    (p * 9_007_199_254_740_992.0).ceil() as u64
}

/// A deterministic pseudo-random number generator (xorshift64* seeded through
/// SplitMix64).
///
/// # Examples
///
/// ```
/// use rescache_trace::Prng;
///
/// let mut a = Prng::new(7);
/// let mut b = Prng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from a seed. Any seed (including zero) is valid.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 step to spread low-entropy seeds over the state space and
        // to guarantee a non-zero xorshift state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self { state: z | 1 }
    }

    /// Returns the next 64-bit pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Returns `0` when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift reduction; bias is negligible for simulation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns the 53 uniform bits [`Prng::next_f64`] is built from, without
    /// the float conversion. Comparing this against [`chance_bits`] decides
    /// identically to [`Prng::chance`] (see `chance_bits` for the proof).
    #[inline]
    pub fn next_bits53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a geometrically distributed value with the given mean
    /// (minimum 1), drawn by inverse transform.
    pub fn geometric(&mut self, mean: f64) -> u64 {
        if geometric_is_constant(mean) {
            return 1;
        }
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        let v = (u.ln() / (1.0 - 1.0 / mean).ln()).floor() as u64;
        v + 1
    }

    /// Derives an independent generator for a named sub-stream.
    pub fn fork(&mut self, label: u64) -> Self {
        Self::new(self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl Default for Prng {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Prng::new(123);
        let mut b = Prng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Prng::new(9);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_zero_bound_is_zero() {
        let mut rng = Prng::new(9);
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Prng::new(17);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Prng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.1));
    }

    #[test]
    fn chance_bits_decides_identically_to_chance() {
        // Identity of the decision *and* of the randomness consumed, across
        // probabilities spanning the unit interval, its edges and beyond.
        let probabilities = [
            0.0,
            f64::MIN_POSITIVE,
            1e-17,
            0.25,
            0.26,
            0.12,
            0.55,
            0.55 + 0.40, // a rounded partial sum, as the mix draws use
            0.999_999_999_999_999,
            1.0,
            1.1,
            -0.3,
            f64::NAN,
        ];
        for p in probabilities {
            let bits = chance_bits(p);
            let mut a = Prng::new(71);
            let mut b = Prng::new(71);
            for i in 0..50_000 {
                assert_eq!(
                    b.next_bits53() < bits,
                    a.chance(p),
                    "p {p}, draw {i}: integer threshold diverged from f64"
                );
            }
            assert_eq!(a.next_u64(), b.next_u64(), "p {p}: consumption differs");
        }
        // Exhaustively near a threshold: the draws that straddle
        // chance_bits(p) decide exactly as the f64 comparison does.
        let p = 0.37;
        let t = chance_bits(p);
        for x in t.saturating_sub(3)..=t + 3 {
            let as_f64 = x as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(x < t, as_f64 < p, "x {x} around threshold {t}");
        }
    }

    #[test]
    fn geometric_mean_is_reasonable() {
        let mut rng = Prng::new(5);
        let n = 20_000;
        let mean = 4.0;
        let sum: u64 = (0..n).map(|_| rng.geometric(mean)).sum();
        let observed = sum as f64 / n as f64;
        assert!(
            (observed - mean).abs() < 0.5,
            "observed mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn geometric_minimum_is_one() {
        let mut rng = Prng::new(5);
        for _ in 0..1000 {
            assert!(rng.geometric(0.5) >= 1);
            assert!(rng.geometric(3.0) >= 1);
        }
    }

    #[test]
    fn degenerate_boundary_is_shared_and_consumes_no_randomness() {
        // The rule: mean <= 1 is the constant 1 (no draw); anything above 1
        // is a real geometric draw. Pin the boundary at exactly 1.0 and at
        // the next representable mean above it.
        let just_above = 1.0f64.next_up();
        assert!(geometric_is_constant(1.0));
        assert!(geometric_is_constant(0.0));
        assert!(!geometric_is_constant(just_above));

        // At the boundary: constant 1, RNG state untouched.
        let mut rng = Prng::new(21);
        let before = rng.clone();
        assert_eq!(rng.geometric(1.0), 1);
        assert_eq!(rng, before, "mean = 1.0 must not consume randomness");

        // Just above the boundary: a real draw that consumes exactly one
        // 64-bit value (p ~ 1, so the value itself is still 1 almost surely).
        let drawn = rng.geometric(just_above);
        assert!(drawn >= 1);
        let mut expected = before;
        expected.next_u64();
        assert_eq!(
            rng, expected,
            "mean just above 1 must consume exactly one draw"
        );
    }

    #[test]
    fn fork_is_independent() {
        let mut rng = Prng::new(11);
        let mut f1 = rng.fork(1);
        let mut f2 = rng.fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
    }
}

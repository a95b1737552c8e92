//! Instruction-level-parallelism behaviour: register dependency distances.
//!
//! The out-of-order engine can only hide d-cache miss latency if independent
//! work exists in its window. Dependency distances — how far back the
//! producers of each instruction sit in the dynamic stream — bound that
//! parallelism, so they are the single knob this crate exposes for ILP.

use crate::rng::{geometric_is_constant, Prng};

/// Distances are capped to the record's 6-bit dependency field.
pub const MAX_DISTANCE: u8 = 63;

/// Dependency-distance behaviour of an application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlpBehavior {
    /// Mean distance (in dynamic instructions) to the first producer.
    pub mean_distance: f64,
    /// Probability an instruction has a second source operand.
    pub second_source_prob: f64,
    /// Probability an instruction has no register dependency at all.
    pub independent_prob: f64,
}

impl IlpBehavior {
    /// Creates an ILP behaviour description.
    ///
    /// # Panics
    ///
    /// Panics if `mean_distance < 1`, or any probability is outside `[0, 1]`.
    pub fn new(mean_distance: f64, second_source_prob: f64, independent_prob: f64) -> Self {
        assert!(mean_distance >= 1.0, "mean_distance must be at least 1");
        assert!(
            (0.0..=1.0).contains(&second_source_prob),
            "second_source_prob must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&independent_prob),
            "independent_prob must be a probability"
        );
        Self {
            mean_distance,
            second_source_prob,
            independent_prob,
        }
    }

    /// Serial, pointer-chasing style code with long dependency chains.
    pub fn serial() -> Self {
        Self::new(2.0, 0.4, 0.10)
    }

    /// Loop-parallel numeric code with plenty of independent work.
    pub fn parallel() -> Self {
        Self::new(10.0, 0.5, 0.35)
    }

    /// Moderate ILP, typical of integer codes.
    pub fn moderate() -> Self {
        Self::new(5.0, 0.45, 0.20)
    }

    /// Returns a sampler with the distance distribution's constants
    /// precomputed — the form the trace generator holds across a whole
    /// trace (see [`DistanceSampler`]).
    pub fn sampler(&self) -> DistanceSampler {
        DistanceSampler::new(*self)
    }
}

/// How one geometric distance draw is performed.
///
/// The table variant is deliberately stored inline (not boxed) despite its
/// ~760-byte size: exactly one sampler exists per trace stream, the table
/// is read on every record of the generation hot path (an extra pointer
/// chase is measurable there), and inline storage keeps the sampler `Copy`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
enum DistanceDraw {
    /// `mean_distance <= 1` (the shared [`geometric_is_constant`] rule):
    /// the draw is the constant 1 and consumes no randomness.
    Constant,
    /// Precomputed fixed-point inverse CDF of the capped geometric.
    /// One 64-bit draw, one guide-table load and a short compare chain per
    /// draw — no transcendental math, no `f64` at all.
    Table(DistanceTable),
}

/// The precomputed inverse CDF of a capped geometric distribution, in
/// 64-bit fixed point (a probability `c` is stored as `c * 2^64`, the
/// space uniform [`Prng::next_u64`] draws live in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceTable {
    /// `cdf[i] ≈ P(distance <= i + 1) * 2^64` for `i` in `0..63`; the last
    /// entry is pinned to `u64::MAX` (the cap absorbs all remaining mass).
    /// Non-decreasing by construction.
    cdf: [u64; MAX_DISTANCE as usize],
    /// `guide[b]` = the distance of the smallest 64-bit value with high
    /// byte `b`: the compare chain starts here instead of at 1, so a draw
    /// resolves with ~one comparison instead of walking the whole CDF.
    guide: [u8; 256],
}

impl DistanceTable {
    /// Builds the table for a geometric distribution with the given mean
    /// (`> 1`), capped at [`MAX_DISTANCE`].
    fn new(mean: f64) -> Self {
        debug_assert!(!geometric_is_constant(mean));
        let q = 1.0 - 1.0 / mean;
        let mut cdf = [u64::MAX; MAX_DISTANCE as usize];
        let mut q_pow = 1.0f64;
        // Construction may use any math it likes — it runs once per trace,
        // not once per record. `as u64` saturates, so a CDF that rounds to
        // (or beyond) 1.0 pins at u64::MAX and stays monotone.
        for entry in cdf.iter_mut().take(MAX_DISTANCE as usize - 1) {
            q_pow *= q;
            *entry = ((1.0 - q_pow) * 18_446_744_073_709_551_616.0) as u64;
        }
        let mut guide = [0u8; 256];
        for (byte, slot) in guide.iter_mut().enumerate() {
            *slot = Self::distance_slow(&cdf, (byte as u64) << 56);
        }
        Self { cdf, guide }
    }

    /// Reference inverse-CDF evaluation: the smallest distance whose CDF
    /// entry exceeds `r` (the guide table is built from, and verified
    /// against, this definition).
    fn distance_slow(cdf: &[u64; MAX_DISTANCE as usize], r: u64) -> u8 {
        1 + cdf[..MAX_DISTANCE as usize - 1]
            .iter()
            .filter(|c| **c <= r)
            .count() as u8
    }

    /// Maps one uniform 64-bit draw to a distance in `1..=`[`MAX_DISTANCE`].
    #[inline]
    fn distance(&self, r: u64) -> u8 {
        let mut d = self.guide[(r >> 56) as usize];
        // The guide entry is the distance of the slice's smallest value, so
        // this walks at most the CDF entries inside one 1/256 probability
        // slice — on average well under one iteration.
        while d < MAX_DISTANCE && self.cdf[d as usize - 1] <= r {
            d += 1;
        }
        d
    }

    /// The fixed-point CDF entries (`P(distance <= i + 1) * 2^64`), exposed
    /// for the distribution tests' exact monotonicity checks.
    pub fn cdf(&self) -> &[u64; MAX_DISTANCE as usize] {
        &self.cdf
    }

    /// The guide-table entries, exposed for the distribution tests.
    pub fn guide(&self) -> &[u8; 256] {
        &self.guide
    }
}

/// An [`IlpBehavior`] with its sampling constants precomputed.
///
/// A geometric draw by inverse transform would need an `ln` per record;
/// the sampler instead draws from a fixed-point inverse-CDF table
/// ([`DistanceTable`]) and decides its two probabilities by integer
/// threshold, so the per-record path performs no `f64` math at all. The
/// bit stream it produces is pinned by the trace format (see
/// [`crate::format`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceSampler {
    draw: DistanceDraw,
    /// `independent_prob * 2^64`.
    independent_bits: u64,
    /// `second_source_prob * 2^64`.
    second_source_bits: u64,
}

/// A probability as a 64-bit fixed-point threshold: `next_u64() < bits`
/// succeeds with probability `p` (up to the 2^-64 quantum). Shared with the
/// instruction-mix thresholds ([`crate::InstructionMix::thresholds`]).
pub(crate) fn probability_bits(p: f64) -> u64 {
    (p.clamp(0.0, 1.0) * 18_446_744_073_709_551_616.0) as u64
}

impl DistanceSampler {
    /// Precomputes the sampling constants of `behavior`.
    pub fn new(behavior: IlpBehavior) -> Self {
        let draw = if geometric_is_constant(behavior.mean_distance) {
            DistanceDraw::Constant
        } else {
            DistanceDraw::Table(DistanceTable::new(behavior.mean_distance))
        };
        Self {
            draw,
            independent_bits: probability_bits(behavior.independent_prob),
            second_source_bits: probability_bits(behavior.second_source_prob),
        }
    }

    /// The inverse-CDF table, when this sampler uses one (`None` for the
    /// degenerate constant-distance case).
    pub fn table(&self) -> Option<&DistanceTable> {
        match &self.draw {
            DistanceDraw::Table(table) => Some(table),
            _ => None,
        }
    }

    /// Samples the `(dep1, dep2)` distances for one instruction.
    #[inline]
    pub fn sample(&self, rng: &mut Prng) -> (u8, u8) {
        if rng.next_u64() < self.independent_bits {
            return (0, 0);
        }
        let d1 = self.draw(rng);
        let d2 = if rng.next_u64() < self.second_source_bits {
            self.draw(rng)
        } else {
            0
        };
        (d1, d2)
    }

    /// One geometric distance draw, capped to the record's 6-bit field.
    #[inline]
    pub fn draw(&self, rng: &mut Prng) -> u8 {
        match &self.draw {
            // The shared `geometric_is_constant` rule: constant 1, no
            // randomness consumed (matching `Prng::geometric`).
            DistanceDraw::Constant => 1,
            DistanceDraw::Table(table) => table.distance(rng.next_u64()),
        }
    }
}

impl Default for IlpBehavior {
    fn default() -> Self {
        Self::moderate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_respects_bounds() {
        let sampler = IlpBehavior::moderate().sampler();
        let mut rng = Prng::new(1);
        for _ in 0..10_000 {
            let (d1, d2) = sampler.sample(&mut rng);
            assert!(d1 <= MAX_DISTANCE);
            assert!(d2 <= MAX_DISTANCE);
        }
    }

    #[test]
    fn serial_has_shorter_distances_than_parallel() {
        let mut rng = Prng::new(2);
        let mean = |b: IlpBehavior, rng: &mut Prng| {
            let sampler = b.sampler();
            let mut sum = 0u64;
            let mut n = 0u64;
            for _ in 0..20_000 {
                let (d1, _) = sampler.sample(rng);
                if d1 > 0 {
                    sum += u64::from(d1);
                    n += 1;
                }
            }
            sum as f64 / n as f64
        };
        let serial = mean(IlpBehavior::serial(), &mut rng);
        let parallel = mean(IlpBehavior::parallel(), &mut rng);
        assert!(serial < parallel, "serial {serial} !< parallel {parallel}");
    }

    #[test]
    fn independent_probability_observed() {
        let sampler = IlpBehavior::new(4.0, 0.5, 0.5).sampler();
        let mut rng = Prng::new(3);
        let n = 20_000;
        let independent = (0..n)
            .filter(|_| sampler.sample(&mut rng) == (0, 0))
            .count();
        let frac = independent as f64 / n as f64;
        assert!((0.45..=0.55).contains(&frac), "{frac}");
    }

    #[test]
    #[should_panic(expected = "mean_distance")]
    fn invalid_mean_panics() {
        let _ = IlpBehavior::new(0.5, 0.5, 0.5);
    }

    #[test]
    fn table_sampler_has_no_table_when_degenerate() {
        assert!(IlpBehavior::new(1.0, 0.5, 0.1).sampler().table().is_none());
        assert!(IlpBehavior::moderate().sampler().table().is_some());
    }

    #[test]
    fn degenerate_distance_consumes_no_randomness() {
        // The shared `geometric_is_constant` rule, verified through the
        // sampler's public draw.
        let sampler = IlpBehavior::new(1.0, 0.5, 0.1).sampler();
        let mut rng = Prng::new(9);
        let before = rng.clone();
        assert_eq!(sampler.draw(&mut rng), 1);
        assert_eq!(rng, before, "degenerate draw touched the RNG");
    }

    #[test]
    fn guide_table_matches_the_reference_inverse_cdf() {
        for mean in [1.5, 2.0, 5.0, 10.0, 16.0, 100.0] {
            let table = DistanceTable::new(mean);
            for byte in 0..=255u64 {
                let r = byte << 56;
                assert_eq!(
                    table.guide()[byte as usize],
                    DistanceTable::distance_slow(table.cdf(), r),
                    "mean {mean}, byte {byte}"
                );
            }
            // Spot-check the fast path against the reference across the
            // whole range, including both extremes.
            let mut rng = Prng::new(7);
            for r in (0..5_000)
                .map(|_| rng.next_u64())
                .chain([0, u64::MAX, 1 << 56, (1 << 56) - 1])
            {
                assert_eq!(
                    table.distance(r),
                    DistanceTable::distance_slow(table.cdf(), r),
                    "mean {mean}, r {r:#x}"
                );
            }
        }
    }
}

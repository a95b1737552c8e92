//! Instruction-mix parameters (what fraction of non-branch instructions are
//! loads, stores and floating-point operations).

use crate::ilp::probability_bits;

/// Instruction mix of an application.
///
/// Branch density is controlled by the code stream shape (one conditional per
/// basic block); this mix distributes the remaining instruction slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionMix {
    /// Fraction of non-branch instructions that are loads.
    pub load: f64,
    /// Fraction of non-branch instructions that are stores.
    pub store: f64,
    /// Fraction of non-branch instructions that are floating-point ops.
    pub fp: f64,
}

impl InstructionMix {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is negative or the fractions sum to more
    /// than 1.
    pub fn new(load: f64, store: f64, fp: f64) -> Self {
        assert!(
            load >= 0.0 && store >= 0.0 && fp >= 0.0,
            "mix fractions must be non-negative"
        );
        assert!(
            load + store + fp <= 1.0 + 1e-9,
            "mix fractions must sum to at most 1"
        );
        Self { load, store, fp }
    }

    /// A typical integer-code mix (e.g. `gcc`, `vortex`).
    pub fn integer() -> Self {
        Self::new(0.26, 0.12, 0.02)
    }

    /// A typical floating-point–code mix (e.g. `swim`, `tomcatv`).
    pub fn floating_point() -> Self {
        Self::new(0.28, 0.10, 0.30)
    }

    /// Fraction of non-branch instructions that access memory.
    pub fn mem(&self) -> f64 {
        self.load + self.store
    }

    /// Fraction of non-branch instructions that are plain integer ALU ops.
    pub fn int(&self) -> f64 {
        (1.0 - self.load - self.store - self.fp).max(0.0)
    }

    /// Precomputes the mix's cumulative fixed-point thresholds — the
    /// generator's classification draw (see [`MixThresholds`]).
    pub fn thresholds(&self) -> MixThresholds {
        // Built from the rounded f64 partial sums of the mix fractions,
        // quantized at the full 64-bit draw resolution (2^-64).
        MixThresholds {
            load: probability_bits(self.load),
            store: probability_bits(self.load + self.store),
            fp: probability_bits(self.load + self.store + self.fp),
        }
    }
}

/// The operation class one mix draw selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixClass {
    /// A load from the data working set.
    Load,
    /// A store to the data working set.
    Store,
    /// A floating-point operation.
    Fp,
    /// A plain integer ALU operation.
    Int,
}

/// Cumulative fixed-point thresholds of an [`InstructionMix`]: the trace
/// generator classifies each non-branch slot by comparing one raw
/// [`Prng::next_u64`](crate::Prng::next_u64) draw against these, performing
/// zero `f64` operations per record (the same threshold form the
/// [`DistanceSampler`](crate::ilp::DistanceSampler) uses for the dependency
/// bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixThresholds {
    /// `load * 2^64`.
    load: u64,
    /// `(load + store) * 2^64`.
    store: u64,
    /// `(load + store + fp) * 2^64`.
    fp: u64,
}

impl MixThresholds {
    /// Classifies one uniform 64-bit draw into an operation class.
    #[inline]
    pub fn classify(&self, draw: u64) -> MixClass {
        if draw < self.load {
            MixClass::Load
        } else if draw < self.store {
            MixClass::Store
        } else if draw < self.fp {
            MixClass::Fp
        } else {
            MixClass::Int
        }
    }
}

impl Default for InstructionMix {
    fn default() -> Self {
        Self::integer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_partition_unity() {
        let m = InstructionMix::new(0.3, 0.1, 0.2);
        assert!((m.int() + m.mem() + m.fp - 1.0).abs() < 1e-12);
    }

    #[test]
    fn presets_are_valid() {
        for m in [InstructionMix::integer(), InstructionMix::floating_point()] {
            assert!(m.mem() > 0.2 && m.mem() < 0.6);
            assert!(m.int() >= 0.0);
        }
    }

    #[test]
    fn thresholds_classify_with_the_mix_frequencies() {
        use crate::rng::Prng;
        let mix = InstructionMix::new(0.26, 0.12, 0.02);
        let thresholds = mix.thresholds();
        let mut rng = Prng::new(13);
        let n = 200_000u64;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            let slot = match thresholds.classify(rng.next_u64()) {
                MixClass::Load => 0,
                MixClass::Store => 1,
                MixClass::Fp => 2,
                MixClass::Int => 3,
            };
            counts[slot] += 1;
        }
        for (observed, expected) in counts.iter().zip([mix.load, mix.store, mix.fp, mix.int()]) {
            let frac = *observed as f64 / n as f64;
            assert!(
                (frac - expected).abs() < 0.01,
                "observed {frac} vs mix {expected}"
            );
        }
    }

    #[test]
    fn threshold_boundaries_partition_the_draw_space() {
        // Degenerate mixes. `probability_bits(1.0)` saturates to u64::MAX
        // (2^64 is not representable), so an all-load mix classifies every
        // draw but u64::MAX itself as Load — the same 2^-64 quantum the
        // dependency thresholds already accept. Pin both sides of it.
        let all_load = InstructionMix::new(1.0, 0.0, 0.0).thresholds();
        let all_int = InstructionMix::new(0.0, 0.0, 0.0).thresholds();
        for draw in [0u64, 1, u64::MAX / 2, u64::MAX - 1] {
            assert_eq!(all_load.classify(draw), MixClass::Load, "{draw}");
        }
        assert_eq!(all_load.classify(u64::MAX), MixClass::Int, "the quantum");
        for draw in [0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            assert_eq!(all_int.classify(draw), MixClass::Int, "{draw}");
        }
        // The zero draw always selects the first non-empty class.
        let no_loads = InstructionMix::new(0.0, 0.5, 0.2).thresholds();
        assert_eq!(no_loads.classify(0), MixClass::Store);
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn oversubscribed_mix_panics() {
        let _ = InstructionMix::new(0.6, 0.3, 0.3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mix_panics() {
        let _ = InstructionMix::new(-0.1, 0.3, 0.3);
    }
}

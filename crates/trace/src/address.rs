//! Data-address stream generation.
//!
//! Each application phase has a [`WorkingSetSpec`]; the [`AddressStream`]
//! turns it into a stream of effective addresses with three components,
//! weighted per application:
//!
//! * **sequential** — a strided walk through the working set (spatial
//!   locality, e.g. array sweeps in `swim`/`tomcatv`),
//! * **random-in-set** — uniform re-references within the working set
//!   (temporal locality; this is what makes the working-set *size* matter),
//! * **streaming** — references outside the working set that are never
//!   re-used (compulsory misses, e.g. `swim`'s large arrays).

use crate::rng::{chance_bits, Prng};
use crate::working_set::{ResolvedWorkingSet, WorkingSetSpec};

/// Relative weights of the address-stream components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessMix {
    /// Fraction of accesses that continue a sequential (strided) walk.
    pub sequential: f64,
    /// Fraction of accesses that touch a uniformly random block of the
    /// working set.
    pub random_in_set: f64,
    /// Fraction of accesses that stream through memory outside the working
    /// set (never re-referenced).
    pub streaming: f64,
}

impl AccessMix {
    /// Creates a mix, normalising the weights.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any weight is negative.
    pub fn new(sequential: f64, random_in_set: f64, streaming: f64) -> Self {
        assert!(
            sequential >= 0.0 && random_in_set >= 0.0 && streaming >= 0.0,
            "access-mix weights must be non-negative"
        );
        let sum = sequential + random_in_set + streaming;
        assert!(sum > 0.0, "access-mix weights must not all be zero");
        Self {
            sequential: sequential / sum,
            random_in_set: random_in_set / sum,
            streaming: streaming / sum,
        }
    }
}

impl Default for AccessMix {
    fn default() -> Self {
        Self::new(0.55, 0.40, 0.05)
    }
}

/// Generates a stream of data addresses for a (possibly phase-varying)
/// working set.
///
/// The stream caches the resolved geometry of the most recent working set
/// (one address is drawn per memory instruction, and the working set only
/// changes at phase boundaries), keeping the per-address cost to the random
/// draw plus a few adds.
#[derive(Debug, Clone)]
pub struct AddressStream {
    mix: AccessMix,
    /// `chance_bits(mix.sequential)`: the classification draw below this
    /// threshold continues the sequential walk.
    sequential_bits: u64,
    /// `chance_bits(mix.sequential + mix.random_in_set)`: a draw below this
    /// (but not below `sequential_bits`) touches a random in-set block.
    in_set_bits: u64,
    stride: u64,
    cursor: u64,
    stream_ptr: u64,
    /// Resolution of the working set the previous address used.
    resolved: ResolvedWorkingSet,
    rng: Prng,
}

/// Base address of the streaming (never re-used) region; far above any
/// working-set segment.
const STREAM_BASE: u64 = 0x7000_0000;

impl AddressStream {
    /// Creates an address stream with the given access mix and element stride
    /// (bytes between consecutive sequential accesses).
    pub fn new(mix: AccessMix, stride: u64, rng: Prng) -> Self {
        Self {
            mix,
            // The classification thresholds are hoisted out of the per-access
            // loop as exact fixed-point values: `chance_bits` decides
            // identically to the `next_f64()` comparisons it replaced (see
            // its proof), so this stream's addresses are unchanged by the
            // move — which is why it needed no format bump. The second
            // threshold is built from the same rounded `f64` partial
            // sum the original chained comparison used.
            sequential_bits: chance_bits(mix.sequential),
            in_set_bits: chance_bits(mix.sequential + mix.random_in_set),
            stride: stride.max(1),
            cursor: 0,
            stream_ptr: STREAM_BASE,
            resolved: WorkingSetSpec::default().resolve(),
            rng,
        }
    }

    /// Returns the next effective address for an access within `ws`.
    pub fn next_address(&mut self, ws: &WorkingSetSpec) -> u64 {
        if *ws != self.resolved.spec {
            self.resolved = ws.resolve();
        }
        let r = self.rng.next_bits53();
        if r < self.sequential_bits {
            self.cursor = self.cursor.wrapping_add(self.stride);
            self.resolved.offset_to_address(self.cursor)
        } else if r < self.in_set_bits {
            let blocks = (ws.bytes / 64).max(1);
            let block = self.rng.below(blocks);
            self.resolved
                .offset_to_address(block * 64 + self.rng.below(64))
        } else {
            self.stream_ptr = self.stream_ptr.wrapping_add(64);
            self.stream_ptr
        }
    }

    /// The configured access mix.
    pub fn mix(&self) -> AccessMix {
        self.mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seq: f64, rnd: f64, strm: f64) -> AddressStream {
        AddressStream::new(AccessMix::new(seq, rnd, strm), 8, Prng::new(1))
    }

    #[test]
    fn mix_normalises() {
        let m = AccessMix::new(2.0, 1.0, 1.0);
        assert!((m.sequential - 0.5).abs() < 1e-12);
        assert!((m.random_in_set - 0.25).abs() < 1e-12);
        assert!((m.streaming - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn zero_mix_panics() {
        let _ = AccessMix::new(0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mix_panics() {
        let _ = AccessMix::new(-1.0, 1.0, 0.0);
    }

    #[test]
    fn sequential_stream_walks_working_set() {
        let mut s = stream(1.0, 0.0, 0.0);
        let ws = WorkingSetSpec::uniform(4096);
        let a0 = s.next_address(&ws);
        let a1 = s.next_address(&ws);
        assert_eq!(a1 - a0, 8);
    }

    #[test]
    fn random_stream_stays_in_working_set() {
        let mut s = stream(0.0, 1.0, 0.0);
        let ws = WorkingSetSpec::uniform(4096);
        for _ in 0..1000 {
            let a = s.next_address(&ws);
            assert!(a >= ws.base && a < ws.base + ws.bytes);
        }
    }

    #[test]
    fn streaming_addresses_never_repeat() {
        let mut s = stream(0.0, 0.0, 1.0);
        let ws = WorkingSetSpec::uniform(4096);
        let mut prev = 0;
        for _ in 0..100 {
            let a = s.next_address(&ws);
            assert!(a > prev, "streaming addresses must be monotonic");
            prev = a;
        }
    }

    #[test]
    fn integer_thresholds_match_the_f64_classification_bit_for_bit() {
        // The original per-access draw, kept verbatim as the reference: the
        // hoisted integer thresholds replaced it without a format bump, so
        // they must reproduce it exactly — not statistically.
        struct Reference {
            mix: AccessMix,
            stride: u64,
            cursor: u64,
            stream_ptr: u64,
            resolved: ResolvedWorkingSet,
            rng: Prng,
        }
        impl Reference {
            fn next_address(&mut self, ws: &WorkingSetSpec) -> u64 {
                if *ws != self.resolved.spec {
                    self.resolved = ws.resolve();
                }
                let r = self.rng.next_f64();
                if r < self.mix.sequential {
                    self.cursor = self.cursor.wrapping_add(self.stride);
                    self.resolved.offset_to_address(self.cursor)
                } else if r < self.mix.sequential + self.mix.random_in_set {
                    let blocks = (ws.bytes / 64).max(1);
                    let block = self.rng.below(blocks);
                    self.resolved
                        .offset_to_address(block * 64 + self.rng.below(64))
                } else {
                    self.stream_ptr = self.stream_ptr.wrapping_add(64);
                    self.stream_ptr
                }
            }
        }

        let mixes = [
            AccessMix::default(),
            AccessMix::new(0.55, 0.40, 0.05),
            AccessMix::new(1.0, 1.0, 1.0),
            AccessMix::new(0.0, 1.0, 0.0),
            AccessMix::new(0.2, 0.0, 0.8),
            AccessMix::new(1.0, 0.0, 0.0),
        ];
        let footprints = [
            WorkingSetSpec::uniform(4096),
            WorkingSetSpec::uniform(256 * 1024),
        ];
        for mix in mixes {
            let mut fast = AddressStream::new(mix, 8, Prng::new(23));
            let mut reference = Reference {
                mix,
                stride: 8,
                cursor: 0,
                stream_ptr: 0x7000_0000,
                resolved: WorkingSetSpec::default().resolve(),
                rng: Prng::new(23),
            };
            for i in 0..60_000 {
                let ws = &footprints[(i / 777) % footprints.len()];
                assert_eq!(
                    fast.next_address(ws),
                    reference.next_address(ws),
                    "{mix:?} step {i}"
                );
            }
        }
    }

    #[test]
    fn working_set_size_bounds_unique_blocks() {
        let mut s = stream(0.3, 0.7, 0.0);
        let ws = WorkingSetSpec::uniform(2048);
        let mut blocks = std::collections::HashSet::new();
        for _ in 0..10_000 {
            blocks.insert(s.next_address(&ws) / 64);
        }
        assert!(blocks.len() as u64 <= 2048 / 64 + 1);
    }
}

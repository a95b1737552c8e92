//! The LRU-MAD relation that holds at every trace seed.
//!
//! The latency-aware victim choice (LRU-MAD) is compared with plain LRU on
//! the delayed-hit-heavy `conflict_storm` workload, the out-of-order engine
//! and a conflict-prone 4 KiB 2-way L1D — the setup of `sim_throughput`'s
//! policy pair. The *mean stall per delayed hit* is not a stable property:
//! at 100 000 records LRU has one delayed hit at seed 3 and none at seeds
//! 7, 42, 1234 and 2002, so that mean is taken over almost nothing. What
//! holds at every seed is pinned here instead:
//!
//! * LRU-MAD costs at most 1.5 % more total cycles than LRU;
//! * LRU-MAD's data stall averaged over *all* L1D accesses (primary-miss
//!   plus delayed-hit cycles per access, the delayed-hits literature's
//!   average-latency measure) is at least LRU's.

use rescache::prelude::*;
use rescache_cache::ReplacementPolicy;

const SEEDS: [u64; 5] = [3, 7, 42, 1234, 2002];
const RECORDS: usize = 100_000;

/// Total cycles, stall cycles per L1D access and delayed hits of one policy
/// at one seed.
fn run(policy: ReplacementPolicy, seed: u64) -> (u64, f64, u64) {
    let profile = WorkloadRegistry::builtin()
        .get("conflict_storm")
        .expect("conflict_storm is a builtin workload")
        .profile();
    let mut hierarchy =
        MemoryHierarchy::new(HierarchyConfig::with_l1(4 * 1024, 2).with_l1d_policy(policy))
            .expect("4 KiB 2-way L1 is a valid hierarchy");
    let mut stream = TraceGenerator::new(profile, seed).stream(RECORDS);
    let result =
        Simulator::new(CpuConfig::base_out_of_order()).run_source(&mut stream, &mut hierarchy);
    let accesses = hierarchy.l1d().stats().accesses;
    assert!(accesses > 0, "seed {seed}: the workload touches the L1D");
    let stall = result.latency.d_miss_cycles + result.latency.delayed_hit_cycles;
    (
        result.cycles,
        stall as f64 / accesses as f64,
        result.latency.delayed_hits,
    )
}

#[test]
fn lru_mad_costs_under_one_and_a_half_percent_and_never_lowers_stall_per_access() {
    for seed in SEEDS {
        let (lru_cycles, lru_stall, lru_delayed) = run(ReplacementPolicy::Lru, seed);
        let (mad_cycles, mad_stall, mad_delayed) = run(ReplacementPolicy::LruMad, seed);
        eprintln!(
            "seed {seed}: cycles lru {lru_cycles} lru_mad {mad_cycles} ({:+.2} %), \
             stall per L1D access lru {lru_stall:.2} lru_mad {mad_stall:.2}, \
             delayed hits lru {lru_delayed} lru_mad {mad_delayed}",
            100.0 * (mad_cycles as f64 / lru_cycles as f64 - 1.0)
        );
        assert!(
            mad_cycles as f64 <= 1.015 * lru_cycles as f64,
            "seed {seed}: LRU-MAD {mad_cycles} cycles vs LRU {lru_cycles}"
        );
        assert!(
            mad_stall >= lru_stall,
            "seed {seed}: LRU-MAD stall per access {mad_stall} vs LRU {lru_stall}"
        );
    }
}

//! Distribution property tests for the table-driven dependency-distance
//! sampler.
//!
//! The sampler must honour the distribution contract of a capped geometric:
//! minimum 1, cap [`MAX_DISTANCE`], empirical mean and cap-mass within
//! analytic tolerance — checked here for every ILP behaviour shipped by the
//! SPEC profiles and the workload registry, plus randomized behaviours from
//! `rescache-testutil`. The inverse-CDF table additionally gets exact
//! structural checks: monotone thresholds and a guide table consistent with
//! the thresholds.

use rescache_testutil::{check_cases, TestRng};
use rescache_trace::{spec, IlpBehavior, Prng, WorkloadRegistry, MAX_DISTANCE};

/// Every distinct ILP behaviour the workspace ships: the twelve SPEC-like
/// profiles plus the workload registry's scenarios.
fn shipped_behaviors() -> Vec<(String, IlpBehavior)> {
    let mut behaviors: Vec<(String, IlpBehavior)> = Vec::new();
    for profile in spec::all_profiles() {
        behaviors.push((format!("spec/{}", profile.name), profile.ilp));
    }
    for workload in WorkloadRegistry::builtin().specs() {
        behaviors.push((
            format!("registry/{}", workload.name),
            workload.profile().ilp,
        ));
    }
    behaviors
}

/// Draws `n` capped distances through the sampler's public draw.
fn draw_distances(behavior: IlpBehavior, seed: u64, n: usize) -> Vec<u8> {
    let sampler = behavior.sampler();
    let mut rng = Prng::new(seed);
    (0..n).map(|_| sampler.draw(&mut rng)).collect()
}

/// Analytic mean of `min(Geometric(p), cap)`:
/// `E = sum_{j=0}^{cap-1} q^j = (1 - q^cap) / (1 - q)`.
fn capped_geometric_mean(mean: f64) -> f64 {
    if mean <= 1.0 {
        return 1.0;
    }
    let q: f64 = 1.0 - 1.0 / mean;
    (1.0 - q.powi(i32::from(MAX_DISTANCE))) * mean
}

/// Analytic probability mass absorbed by the cap: `P(X >= cap) = q^(cap-1)`.
fn cap_mass(mean: f64) -> f64 {
    if mean <= 1.0 {
        return 0.0;
    }
    let q: f64 = 1.0 - 1.0 / mean;
    q.powi(i32::from(MAX_DISTANCE) - 1)
}

/// Asserts the distribution contract for one behaviour.
fn assert_distribution(label: &str, behavior: IlpBehavior, seed: u64) {
    let n = 200_000;
    let draws = draw_distances(behavior, seed, n);

    // Hard bounds: minimum 1 (a drawn distance is never "no dependency"),
    // cap at the record's 6-bit field.
    let (mut min, mut max) = (u8::MAX, 0u8);
    let mut sum = 0u64;
    let mut at_cap = 0u64;
    for &d in &draws {
        min = min.min(d);
        max = max.max(d);
        sum += u64::from(d);
        at_cap += u64::from(d == MAX_DISTANCE);
    }
    assert_eq!(min, 1, "{label}: min distance must be 1");
    assert!(
        max <= MAX_DISTANCE,
        "{label}: cap {MAX_DISTANCE} exceeded ({max})"
    );

    // Empirical mean vs the analytic capped mean. The standard error of the
    // mean is at most mean/sqrt(n) (geometric sd < mean), so 5 sigma plus a
    // small absolute floor gives a deterministic-seed test with no flake
    // margin to speak of.
    let expected_mean = capped_geometric_mean(behavior.mean_distance);
    let observed_mean = sum as f64 / n as f64;
    let tolerance = (5.0 * behavior.mean_distance / (n as f64).sqrt()).max(0.02);
    assert!(
        (observed_mean - expected_mean).abs() < tolerance,
        "{label}: mean {observed_mean:.4} vs analytic {expected_mean:.4} (tol {tolerance:.4})"
    );

    // Tail: the mass the cap absorbs. Binomial 5-sigma tolerance plus an
    // absolute floor for near-zero expectations.
    let expected_cap = cap_mass(behavior.mean_distance);
    let observed_cap = at_cap as f64 / n as f64;
    let cap_tolerance = (5.0 * (expected_cap * (1.0 - expected_cap) / n as f64).sqrt()).max(5e-4);
    assert!(
        (observed_cap - expected_cap).abs() < cap_tolerance,
        "{label}: cap mass {observed_cap:.6} vs analytic {expected_cap:.6} (tol {cap_tolerance:.6})"
    );
}

#[test]
fn sampler_distribution_matches_analytic_for_every_shipped_behavior() {
    for (label, behavior) in shipped_behaviors() {
        assert_distribution(&label, behavior, 0xD15_7A11CE);
    }
}

#[test]
fn sampler_distribution_holds_for_randomized_behaviors() {
    check_cases(24, |rng: &mut TestRng| {
        // Means across the interesting range, including near-degenerate and
        // heavily cap-clipped ones; probabilities are irrelevant to `draw`
        // but randomized anyway to cover the construction paths.
        let mean = rng.f64_range(1.01, 80.0);
        let behavior = IlpBehavior::new(mean, rng.next_f64(), rng.next_f64());
        let seed = rng.next_u64();
        assert_distribution("randomized", behavior, seed);
    });
}

#[test]
fn sampler_degenerate_mean_is_constant_one() {
    let sampler = IlpBehavior::new(1.0, 0.4, 0.1).sampler();
    let mut rng = Prng::new(3);
    let before = rng.clone();
    for _ in 0..1_000 {
        assert_eq!(sampler.draw(&mut rng), 1);
    }
    assert_eq!(rng, before, "constant draw must not touch the RNG");
}

#[test]
fn sampler_table_inverse_cdf_is_exactly_monotone() {
    // The exact structural invariants of the table, for every shipped
    // behaviour that has one and a mean sweep: thresholds non-decreasing
    // (a decreasing pair would make some distance's probability negative),
    // the last threshold saturated (the cap absorbs all remaining mass),
    // and the guide table non-decreasing and consistent with the
    // thresholds at every slice boundary.
    let mut means: Vec<f64> = shipped_behaviors()
        .iter()
        .map(|(_, b)| b.mean_distance)
        .collect();
    means.extend([1.001, 1.5, 2.0, 5.0, 10.0, 16.0, 63.0, 64.0, 1000.0]);
    let mut checked = 0;
    for mean in means {
        let behavior = IlpBehavior::new(mean.max(1.0), 0.4, 0.1);
        let sampler = behavior.sampler();
        let Some(table) = sampler.table() else {
            continue;
        };
        checked += 1;
        let cdf = table.cdf();
        for window in cdf.windows(2) {
            assert!(
                window[0] <= window[1],
                "mean {mean}: inverse CDF must be monotone ({} > {})",
                window[0],
                window[1]
            );
        }
        assert_eq!(
            cdf[MAX_DISTANCE as usize - 1],
            u64::MAX,
            "mean {mean}: the cap entry must absorb all remaining mass"
        );
        let guide = table.guide();
        for window in guide.windows(2) {
            assert!(
                window[0] <= window[1],
                "mean {mean}: guide must be monotone"
            );
        }
        for (byte, &g) in guide.iter().enumerate() {
            assert!((1..=MAX_DISTANCE).contains(&g), "mean {mean}, byte {byte}");
            // The guide entry is the distance of the slice's smallest value:
            // the CDF entry *below* it (if any) must not exceed the slice
            // start, and using it as a starting point must never overshoot.
            let r = (byte as u64) << 56;
            if g > 1 {
                assert!(
                    cdf[g as usize - 2] <= r,
                    "mean {mean}, byte {byte}: guide {g} skips mass"
                );
            }
            if g < MAX_DISTANCE {
                assert!(
                    cdf[g as usize - 1] > r,
                    "mean {mean}, byte {byte}: guide {g} overshoots the slice start"
                );
            }
        }
    }
    assert!(checked >= 10, "only {checked} table samplers checked");
}

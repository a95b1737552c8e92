//! Integration tests for the paper's headline claims, run at a reduced scale
//! (the full-scale numbers are produced by `cargo bench` and recorded in
//! EXPERIMENTS.md).

use rescache::core::experiment::{
    dual_resizing, organization_vs_associativity, Runner, RunnerConfig,
};
use rescache::prelude::*;
use rescache::trace::AppProfile;

/// The headline claims run on trace seed 42;
/// [`organization_claim_holds_across_trace_seeds`] repeats the organization
/// claim over further seeds.
fn test_config() -> RunnerConfig {
    RunnerConfig {
        warmup_instructions: 8_000,
        measure_instructions: 40_000,
        trace_seed: 42,
        dynamic_interval: 1_024,
        ..RunnerConfig::fast()
    }
}

fn test_runner() -> Runner {
    Runner::new(test_config())
}

fn small_ws_apps() -> Vec<AppProfile> {
    vec![spec::ammp(), spec::applu(), spec::m88ksim()]
}

/// Claim 1 (organization): for low-associativity caches, selective-sets
/// offers better energy-delay than selective-ways because it reaches smaller
/// sizes and keeps associativity.
#[test]
fn selective_sets_beats_selective_ways_at_two_way() {
    let runner = test_runner();
    let apps = small_ws_apps();
    let points = organization_vs_associativity(
        &runner,
        &apps,
        &[2],
        &[Organization::SelectiveWays, Organization::SelectiveSets],
        ResizableCacheSide::Data,
    )
    .unwrap();
    let ways = points
        .iter()
        .find(|p| p.organization == Organization::SelectiveWays)
        .unwrap();
    let sets = points
        .iter()
        .find(|p| p.organization == Organization::SelectiveSets)
        .unwrap();
    assert!(
        sets.mean_edp_reduction > ways.mean_edp_reduction + 1.0,
        "selective-sets ({:.1} %) should clearly beat selective-ways ({:.1} %) at 2-way",
        sets.mean_edp_reduction,
        ways.mean_edp_reduction
    );
}

/// Claim 1 (organization, other end): for highly associative caches,
/// selective-ways offers the better spectrum and wins.
#[test]
fn selective_ways_beats_selective_sets_at_sixteen_way() {
    let runner = test_runner();
    let apps = small_ws_apps();
    let points = organization_vs_associativity(
        &runner,
        &apps,
        &[16],
        &[Organization::SelectiveWays, Organization::SelectiveSets],
        ResizableCacheSide::Data,
    )
    .unwrap();
    let ways = points
        .iter()
        .find(|p| p.organization == Organization::SelectiveWays)
        .unwrap();
    let sets = points
        .iter()
        .find(|p| p.organization == Organization::SelectiveSets)
        .unwrap();
    assert!(
        ways.mean_edp_reduction > sets.mean_edp_reduction,
        "selective-ways ({:.1} %) should beat selective-sets ({:.1} %) at 16-way",
        ways.mean_edp_reduction,
        sets.mean_edp_reduction
    );
}

/// Claim 2 (hybrid): the hybrid organization at least matches the better of
/// the two single organizations.
#[test]
fn hybrid_matches_or_beats_both_organizations() {
    let runner = test_runner();
    let apps = vec![spec::ammp(), spec::ijpeg(), spec::compress()];
    for assoc in [2u32, 4] {
        let points = organization_vs_associativity(
            &runner,
            &apps,
            &[assoc],
            &Organization::ALL,
            ResizableCacheSide::Data,
        )
        .unwrap();
        let get = |org: Organization| {
            points
                .iter()
                .find(|p| p.organization == org)
                .map(|p| p.mean_edp_reduction)
                .unwrap()
        };
        let hybrid = get(Organization::Hybrid);
        let best_single = get(Organization::SelectiveWays).max(get(Organization::SelectiveSets));
        assert!(
            hybrid >= best_single - 1.0,
            "{assoc}-way: hybrid ({hybrid:.1} %) must not lose to the best single organization ({best_single:.1} %)"
        );
    }
}

/// Claim 3 (dual resizing): resizing both L1 caches together saves roughly
/// the sum of the individual savings, and clearly more than either alone.
#[test]
fn dual_resizing_is_additive() {
    let runner = test_runner();
    let apps = small_ws_apps();
    let rows = dual_resizing(
        &runner,
        &apps,
        &SystemConfig::base(),
        Organization::SelectiveSets,
    )
    .unwrap();
    for (outcome, row) in &rows {
        assert!(
            row.both_edp_reduction
                >= row.d_alone_edp_reduction.max(row.i_alone_edp_reduction) - 1.0,
            "{}: both ({:.1} %) should beat either alone",
            outcome.app,
            row.both_edp_reduction
        );
        let stacked = row.stacked_edp_reduction();
        assert!(
            (row.both_edp_reduction - stacked).abs() <= 7.0,
            "{}: combined saving {:.1} % should track the stacked sum {:.1} %",
            outcome.app,
            row.both_edp_reduction,
            stacked
        );
    }
    // Small-working-set applications should already show a sizeable combined
    // saving even at this reduced simulation scale.
    let mean_both: f64 =
        rows.iter().map(|(_, r)| r.both_edp_reduction).sum::<f64>() / rows.len() as f64;
    assert!(
        mean_both > 15.0,
        "combined d+i resizing for small-working-set apps should save well over 15 %, got {mean_both:.1} %"
    );
}

/// Claim 4 (performance guardrail): the minimum-EDP configurations come at a
/// small performance cost (the paper reports <6 % for every experiment).
#[test]
fn best_static_points_have_bounded_slowdown() {
    let runner = test_runner();
    for app in [spec::ammp(), spec::ijpeg(), spec::vpr()] {
        let outcome = runner
            .static_best(
                &app,
                &SystemConfig::base(),
                Organization::SelectiveSets,
                ResizableCacheSide::Data,
            )
            .unwrap();
        assert!(
            outcome.best.slowdown_percent < 8.0,
            "{}: the chosen static point should not slow execution by more than a few percent, got {:.1} %",
            outcome.app,
            outcome.best.slowdown_percent
        );
    }
}

/// The organization claim belongs to the modelled machine, not to one
/// synthetic bit stream: it must hold on every one of several trace seeds,
/// fixed before their margins were measured.
#[test]
fn organization_claim_holds_across_trace_seeds() {
    let apps = small_ws_apps();
    for seed in [42, 7, 1234, 2002] {
        let runner = Runner::new(RunnerConfig {
            trace_seed: seed,
            ..test_config()
        });
        let points = organization_vs_associativity(
            &runner,
            &apps,
            &[2],
            &[Organization::SelectiveWays, Organization::SelectiveSets],
            ResizableCacheSide::Data,
        )
        .unwrap();
        let ways = points
            .iter()
            .find(|p| p.organization == Organization::SelectiveWays)
            .unwrap();
        let sets = points
            .iter()
            .find(|p| p.organization == Organization::SelectiveSets)
            .unwrap();
        assert!(
            sets.mean_edp_reduction > ways.mean_edp_reduction + 1.0,
            "seed {seed}: selective-sets ({:.1} %) should clearly beat selective-ways ({:.1} %) at 2-way",
            sets.mean_edp_reduction,
            ways.mean_edp_reduction
        );
    }
}

/// End-to-end determinism: the whole pipeline (trace, simulation, energy,
/// search) produces identical results for identical inputs.
#[test]
fn experiment_pipeline_is_deterministic() {
    let runner = test_runner();
    let a = runner
        .static_best(
            &spec::gcc(),
            &SystemConfig::base(),
            Organization::SelectiveSets,
            ResizableCacheSide::Data,
        )
        .unwrap();
    let b = runner
        .static_best(
            &spec::gcc(),
            &SystemConfig::base(),
            Organization::SelectiveSets,
            ResizableCacheSide::Data,
        )
        .unwrap();
    assert_eq!(a.best.point, b.best.point);
    assert_eq!(a.base.cycles, b.base.cycles);
    assert_eq!(a.best.measurement.cycles, b.best.measurement.cycles);
    assert!((a.best.edp_reduction_percent - b.best.edp_reduction_percent).abs() < 1e-12);
}

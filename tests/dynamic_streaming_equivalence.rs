//! Differential harness for the streamed dynamic-resizing pipeline: a
//! dynamic-controller run whose records are pulled chunk by chunk from the
//! trace store (resident cursor, on-disk reader, or resumable generator)
//! must be **bit-identical** to the classic path that materializes the warm
//! and measured traces first — same [`SimResult`], same resize counts, same
//! hierarchy snapshots, same energy breakdowns — on both engines, across
//! registry workloads and controller parameter candidates.
//!
//! The store-backed variants additionally assert the memory contract: with a
//! persistence directory configured, the whole dynamic sweep leaves **zero**
//! full-length traces materialized (only chunk buffers were resident).

use rescache::prelude::*;
use rescache_core::experiment::{Measurement, RunSetup, StoreSourceKind};
use rescache_trace::{TraceFormat, WorkloadRegistry};
use std::path::PathBuf;

fn engines() -> [SystemConfig; 2] {
    [SystemConfig::in_order(), SystemConfig::base()]
}

fn fast_config() -> RunnerConfig {
    RunnerConfig {
        warmup_instructions: 6_000,
        measure_instructions: 18_000,
        trace_seed: 42,
        dynamic_interval: 256,
        ..RunnerConfig::fast()
    }
}

/// Two miss-bound/size-bound candidates per sweep. The registry workloads
/// miss ~10–15 times per 256-access interval at full size, so a generous
/// miss-bound (64) commands steady downsizing to the floor while a tight one
/// (8) sits near the equilibrium and oscillates — both regimes exercise the
/// controller across the warm/measure boundary.
fn candidate_params(space: &ConfigSpace, interval: u64) -> Vec<DynamicParams> {
    vec![
        DynamicParams::new(interval, 64, space.min_bytes()).expect("valid params"),
        DynamicParams::new(interval, 8, space.sizes_bytes()[space.len() / 2])
            .expect("valid params"),
    ]
}

/// Asserts every observable of the two measurements is identical (not merely
/// close): timing, activity-derived energy breakdown, mean sizes, miss
/// ratios and resize counts.
fn assert_identical(label: &str, materialized: &Measurement, streamed: &Measurement) {
    assert_eq!(
        materialized, streamed,
        "{label}: streamed dynamic run diverged from the materialized path"
    );
    // Measurement's PartialEq covers every field, but spell out the ones the
    // issue names so a divergence pinpoints itself.
    assert_eq!(materialized.cycles, streamed.cycles, "{label}: cycles");
    assert_eq!(
        materialized.breakdown, streamed.breakdown,
        "{label}: energy breakdown"
    );
    assert_eq!(
        (materialized.l1d_resizes, materialized.l1i_resizes),
        (streamed.l1d_resizes, streamed.l1i_resizes),
        "{label}: resize counts"
    );
}

/// The core differential: for one (profile, system) pair, run every
/// candidate through the materialized `Runner::run` path and the streamed
/// `Runner::run_dynamic` path and require equality. `store_dir` selects the
/// store mode (None = in-memory, Some = persisted chunk streaming). Returns
/// the total resizes observed so callers can assert controller activity
/// where the workload makes it deterministic.
fn assert_dynamic_equivalence(
    profile: &AppProfile,
    system: &SystemConfig,
    store_dir: Option<PathBuf>,
    expect_no_materialization: bool,
) -> u64 {
    let cfg = fast_config();
    // Reference runner: plain in-memory store, classic materialized path.
    let reference = Runner::new(cfg);
    let (warm, measure) = reference.trace(profile);

    // Streamed runner: its own store in the requested mode.
    let streamed_runner = Runner::with_store(cfg, TraceStore::with_dir(store_dir));

    let space = ConfigSpace::enumerate(
        ResizableCacheSide::Data.config_of(&system.hierarchy),
        Organization::SelectiveSets,
    )
    .expect("selective-sets applies to the base d-cache");

    let mut resizes = 0;
    for params in candidate_params(&space, cfg.dynamic_interval) {
        let setup = RunSetup {
            dynamic: Some((ResizableCacheSide::Data, space.clone(), params)),
            d_tag_bits: 4,
            ..RunSetup::default()
        };
        let materialized = reference.run(&warm, &measure, system, &setup);
        let streamed = streamed_runner.run_dynamic(profile, system, &setup);
        let label = format!(
            "{} / {:?} / miss_bound {} size_bound {}",
            profile.name, system.cpu.engine, params.miss_bound, params.size_bound_bytes
        );
        assert_identical(&label, &materialized, &streamed);
        resizes += streamed.l1d_resizes;
    }

    if expect_no_materialization {
        assert_eq!(
            streamed_runner.trace_store().resident_full_traces(),
            0,
            "{}: a store-backed dynamic run must keep no full trace resident",
            profile.name
        );
    }
    resizes
}

#[test]
fn registry_workloads_match_across_engines_with_a_persistent_store() {
    let registry = WorkloadRegistry::builtin();
    // ≥4 registry workloads covering the controller's interesting regimes:
    // the all-round baseline, the dynamic-resizing target case, serial
    // misses, and MSHR saturation.
    for name in ["nominal", "phase_flip", "pointer_chase", "mshr_burst"] {
        let spec = registry.get(name).expect("registered workload");
        let profile = spec.profile();
        for system in engines() {
            let dir = std::env::temp_dir().join(format!(
                "rescache-dyneq-{name}-{:?}-{}",
                system.cpu.engine,
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let resizes = assert_dynamic_equivalence(&profile, &system, Some(dir.clone()), true);
            if name == "nominal" || name == "phase_flip" {
                assert!(
                    resizes > 0,
                    "{name}: an L1-friendly workload must trigger downsizing"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn paper_profiles_match_with_an_in_memory_store() {
    // The in-memory store serves resident cursors instead of disk chunks:
    // same contract, different source kind.
    for profile in [spec::su2cor(), spec::compress()] {
        for system in engines() {
            assert_dynamic_equivalence(&profile, &system, None, false);
        }
    }
}

#[test]
fn persistent_store_entries_carry_the_format_tag() {
    // A dynamic run streams bit-identically through a persistent store and
    // leaves nothing materialized, and every entry it persists is named
    // with the format tag existing stores were written under.
    let profile = WorkloadRegistry::builtin()
        .get("phase_flip")
        .expect("registered workload")
        .profile();
    let dir = std::env::temp_dir().join(format!("rescache-dyneq-tag-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let resizes =
        assert_dynamic_equivalence(&profile, &SystemConfig::base(), Some(dir.clone()), true);
    assert!(resizes > 0, "phase_flip must trigger downsizing");
    let suffix = format!(".{}.rctrace", TraceFormat::V3.tag());
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty() && entries.iter().all(|n| n.ends_with(&suffix)),
        "entries must end in {suffix}: {entries:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_dynamic_sweep_is_identical_and_unmaterialized_with_a_store_dir() {
    // End-to-end: `dynamic_best_with_size_bounds` (baseline + snapped
    // candidate sweep, all streamed) must equal the same sweep run by a
    // reference runner, and with a persistence directory it must finish with
    // zero materialized traces.
    let cfg = fast_config();
    let app = spec::su2cor();
    let dir = std::env::temp_dir().join(format!("rescache-dyneq-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let reference = Runner::new(cfg);
    let streamed = Runner::with_store(cfg, TraceStore::with_dir(Some(dir.clone())));
    for system in engines() {
        let expected = reference
            .dynamic_best(
                &app,
                &system,
                Organization::SelectiveSets,
                ResizableCacheSide::Data,
            )
            .expect("sweep runs");
        let got = streamed
            .dynamic_best(
                &app,
                &system,
                Organization::SelectiveSets,
                ResizableCacheSide::Data,
            )
            .expect("sweep runs");
        assert_eq!(expected.candidates.len(), got.candidates.len());
        for ((p_ref, m_ref), (p_got, m_got)) in expected.candidates.iter().zip(&got.candidates) {
            assert_eq!(p_ref, p_got);
            assert_identical(
                &format!("sweep {:?} {p_ref:?}", system.cpu.engine),
                m_ref,
                m_got,
            );
        }
        assert_identical(
            &format!("sweep base {:?}", system.cpu.engine),
            &expected.base,
            &got.base,
        );
        assert_eq!(
            expected.best.edp_reduction_percent,
            got.best.edp_reduction_percent
        );
    }
    assert_eq!(
        streamed.trace_store().resident_full_traces(),
        0,
        "the whole dynamic sweep ran without materializing a trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_dynamic_run_survives_a_corrupted_store_entry() {
    // Corrupt the persisted entry after it is written: the chunked reader
    // faults mid-run, and the runner must fall back to regeneration and
    // still produce the exact materialized-path result.
    let cfg = fast_config();
    let app = spec::m88ksim();
    let system = SystemConfig::base();
    let dir = std::env::temp_dir().join(format!("rescache-dyneq-corrupt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let streamed = Runner::with_store(cfg, TraceStore::with_dir(Some(dir.clone())));
    // Populate the entry (and prove the store really serves from disk).
    let probe = streamed.trace_store().source(&app, &cfg);
    assert_eq!(probe.kind(), StoreSourceKind::Disk);
    drop(probe);
    let entry = std::fs::read_dir(&dir)
        .expect("store dir")
        .next()
        .expect("one entry")
        .expect("entry")
        .path();
    let mut bytes = std::fs::read(&entry).expect("read entry");
    // Wreck the *second* chunk's directory entry so the fault hits mid-run.
    // v3 compressed container: magic(8) + flags(1) + name_len(4) + name +
    // count(8), then per chunk [len u32][byte_len u32][payload].
    assert_eq!(&bytes[..8], b"RCTRACE3");
    assert_eq!(bytes[8], 1, "store entries are compressed by default");
    let first_chunk = 9 + 4 + app.name.len() + 8;
    let first_bytes = u32::from_le_bytes(
        bytes[first_chunk + 4..first_chunk + 8]
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    let second_chunk = first_chunk + 8 + first_bytes;
    bytes[second_chunk + 4..second_chunk + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&entry, &bytes).expect("corrupt entry");

    let space = ConfigSpace::enumerate(
        ResizableCacheSide::Data.config_of(&system.hierarchy),
        Organization::SelectiveSets,
    )
    .expect("space");
    let params = DynamicParams::new(cfg.dynamic_interval, 4, space.min_bytes()).expect("params");
    let setup = RunSetup {
        dynamic: Some((ResizableCacheSide::Data, space, params)),
        d_tag_bits: 4,
        ..RunSetup::default()
    };

    let reference = Runner::new(cfg);
    let (warm, measure) = reference.trace(&app);
    let expected = reference.run(&warm, &measure, &system, &setup);
    let got = streamed.run_dynamic(&app, &system, &setup);
    assert_identical("corrupt-entry fallback", &expected, &got);

    // The fallback also invalidates the corrupt entry, so the store
    // self-heals: the next run replays a fresh on-disk entry fault-free
    // instead of paying the doomed partial replay forever.
    let healed = streamed.trace_store().source(&app, &cfg);
    assert_eq!(healed.kind(), StoreSourceKind::Disk);
    drop(healed);
    let again = streamed.run_dynamic(&app, &system, &setup);
    assert_identical("healed entry", &expected, &again);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn static_setups_also_stream_identically() {
    // run_dynamic with no controller delegates to the memoized static path
    // with a streaming initializer: still bit-identical.
    let cfg = fast_config();
    let app = spec::ammp();
    let system = SystemConfig::base();
    let dir = std::env::temp_dir().join(format!("rescache-dyneq-static-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let reference = Runner::new(cfg);
    let streamed = Runner::with_store(cfg, TraceStore::with_dir(Some(dir.clone())));
    let setup = RunSetup {
        d_static: Some(CachePoint { sets: 64, ways: 2 }),
        d_tag_bits: 4,
        ..RunSetup::default()
    };
    let (warm, measure) = reference.trace(&app);
    let expected = reference.run(&warm, &measure, &system, &setup);
    let got = streamed.run_dynamic(&app, &system, &setup);
    assert_identical("streamed static", &expected, &got);
    assert_eq!(streamed.trace_store().resident_full_traces(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

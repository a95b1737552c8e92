//! Golden-fixture suite: committed encoded traces that pin the generator +
//! codec byte stream across refactors and across processes.
//!
//! In-process A/B comparison alone cannot catch a refactor that changes
//! generation and decoding *consistently*: every such test would pass while
//! persisted stores were silently invalidated. These fixtures are the
//! cross-process anchor: small delta-compressed traces for three registry
//! workloads, committed under `tests/fixtures/`, with their FNV-1a content
//! hashes pinned in this file. They pin the generator's bits and the
//! compressor's byte stream together.
//!
//! A deliberate format bump re-blesses the fixtures (and their hashes) in
//! the same change:
//!
//! ```text
//! RESCACHE_BLESS_FIXTURES=1 cargo test -p rescache-trace --test golden_fixtures
//! ```
//!
//! then commit the regenerated files and paste the printed hash table over
//! `PINNED`. An unintentional byte change fails loudly instead.

use std::path::PathBuf;

use rescache_trace::{
    codec, InstrRecord, TraceFileSource, TraceFormat, TraceGenerator, TraceSource, WorkloadRegistry,
};

/// Length of every fixture trace: 1000 records.
const FIXTURE_RECORDS: usize = 1000;

/// Generation seed shared by every fixture.
const FIXTURE_SEED: u64 = 42;

/// The pinned fixtures: (registry workload, FNV-1a hash of the encoded file
/// bytes). Regenerate with `RESCACHE_BLESS_FIXTURES=1` (see the module
/// docs) — and only on a deliberate format bump.
const PINNED: &[(&str, u64)] = &[
    ("nominal", 0x297d2cf0990a9031),
    ("pointer_chase", 0x7251c8676902eb09),
    ("phase_flip", 0xc47ec671bcb9c804),
];

/// FNV-1a over a byte stream (the same construction the workspace uses for
/// profile fingerprints; no external hashing dependency).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fixture_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!(
            "{workload}-s{FIXTURE_SEED}-n{FIXTURE_RECORDS}.{}.rctrace",
            TraceFormat::V3.tag()
        ))
}

/// Encodes the fixture trace for one workload exactly as the committed
/// fixture was produced.
fn encode_fixture(workload: &str) -> Vec<u8> {
    let profile = WorkloadRegistry::builtin()
        .get(workload)
        .unwrap_or_else(|| panic!("{workload} is a registered workload"))
        .profile();
    let trace = TraceGenerator::new(profile, FIXTURE_SEED).generate(FIXTURE_RECORDS);
    let mut bytes = Vec::new();
    codec::write_trace(&mut bytes, &trace).expect("vec writes cannot fail");
    bytes
}

fn bless_requested() -> bool {
    std::env::var("RESCACHE_BLESS_FIXTURES")
        .map(|v| !matches!(v.trim(), "" | "0" | "false"))
        .unwrap_or(false)
}

#[test]
fn golden_fixtures_pin_generator_and_codec_bytes() {
    if bless_requested() {
        std::fs::create_dir_all(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures"))
            .expect("create fixtures dir");
        eprintln!("blessed fixture hashes (paste over PINNED):");
        for &(workload, _) in PINNED {
            let bytes = encode_fixture(workload);
            std::fs::write(fixture_path(workload), &bytes).expect("write fixture");
            eprintln!("    (\"{workload}\", {:#018x}),", fnv1a(&bytes));
        }
    }

    for &(workload, pinned_hash) in PINNED {
        let path = fixture_path(workload);
        let committed = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("missing fixture {} ({e}); see module docs", path.display())
        });
        // The fixtures carry delta-compressed chunks, so their ceiling
        // doubles as a compression pin: above half the 12-byte in-memory
        // record the codec has stopped at least halving the stream.
        let budget = 1024..=FIXTURE_RECORDS * std::mem::size_of::<InstrRecord>() / 2;
        assert!(
            budget.contains(&committed.len()),
            "{workload}: fixture size {} outside the {budget:?} byte budget",
            committed.len()
        );
        assert_eq!(&committed[..8], b"RCTRACE3", "{workload}: magic");
        assert_eq!(committed[8], 1, "{workload}: fixtures are compressed");

        // The committed bytes are what today's generator + codec produce…
        let regenerated = encode_fixture(workload);
        assert_eq!(
            regenerated, committed,
            "{workload}: generator or codec bytes drifted from the committed fixture"
        );

        // …and what they have produced since the fixture was blessed.
        assert_eq!(
            fnv1a(&committed),
            pinned_hash,
            "{workload}: committed fixture does not match its pinned hash"
        );

        // The fixture decodes, and the header carries the right identity.
        let mut source = TraceFileSource::open(&path, None)
            .unwrap_or_else(|e| panic!("{workload}: fixture header failed to decode: {e}"));
        assert_eq!(source.name(), workload);
        let mut decoded = 0;
        loop {
            let chunk = source.next_chunk();
            if chunk.is_empty() {
                break;
            }
            decoded += chunk.len();
        }
        assert!(
            source.fault().is_none(),
            "{workload}: fixture failed to decode: {:?}",
            source.fault()
        );
        assert_eq!(decoded, FIXTURE_RECORDS);
    }
}

//! Mutation fuzz of the one trace-file decoder: real v3 files with bit
//! flips, byte overwrites, truncations and splices, each read through
//! [`TraceFileSource`] both whole and as a random prefix.
//!
//! Every mutant must end in exactly one of three ways, and never in a panic:
//!
//! * `open` rejects it with a typed [`CodecError`](rescache_trace::CodecError);
//! * the source faults mid-stream, having delivered fewer records than it
//!   promised;
//! * the source delivers exactly the records it promised.
//!
//! Record *contents* are deliberately not compared for mutated files. v3
//! chunks carry no checksum, so many payload mutations decode without error
//! to different records: a flipped delta bit is a different, equally valid
//! address. Only the unmutated inputs are checked record for record.

use std::path::{Path, PathBuf};

use rescache_testutil::{check_cases, TestRng};
use rescache_trace::{codec, spec, InstrRecord, TraceFileSource, TraceGenerator, TraceSource};

/// Mutants per run: sized so the debug test run stays within a few seconds.
const CASES: u64 = 1_000;

/// Leading bytes that hold a file's header and first chunk frame.
const HEAD_BYTES: usize = 64;

/// One input file: its bytes and the records it decodes to.
struct Input {
    bytes: Vec<u8>,
    records: Vec<InstrRecord>,
}

/// How one read of a mutant ended.
enum Outcome {
    Rejected,
    Faulted,
    Served,
}

/// The inputs: a fresh three-chunk file (20 000 `compress` records, seed 11)
/// and the committed golden fixtures.
fn inputs() -> Vec<Input> {
    let trace = TraceGenerator::new(spec::compress(), 11).generate(20_000);
    let mut bytes = Vec::new();
    codec::write_trace(&mut bytes, &trace).expect("vec writes cannot fail");
    let mut inputs = vec![Input {
        bytes,
        records: trace.records().to_vec(),
    }];

    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&fixtures)
        .expect("fixtures dir")
        .map(|entry| entry.expect("fixture entry").path())
        .filter(|path| path.to_string_lossy().ends_with(".v3.rctrace"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 3, "the three golden fixtures");
    for path in paths {
        inputs.push(Input {
            bytes: std::fs::read(&path).expect("read fixture"),
            records: drain(&path, None),
        });
    }
    inputs
}

/// Reads the file at `path` through [`TraceFileSource`], which must serve
/// it cleanly.
fn drain(path: &Path, take: Option<usize>) -> Vec<InstrRecord> {
    let mut source =
        TraceFileSource::open(path, take).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut records = Vec::new();
    loop {
        let chunk = source.next_chunk();
        if chunk.is_empty() {
            break;
        }
        records.extend_from_slice(chunk);
    }
    assert!(source.fault().is_none(), "{:?}", source.fault());
    records
}

/// Reads a mutant serving `take` records and classifies the outcome,
/// asserting it is one of the three allowed.
fn replay(path: &Path, take: Option<usize>) -> Outcome {
    let mut source = match TraceFileSource::open(path, take) {
        Ok(source) => source,
        Err(e) => {
            assert!(!e.to_string().is_empty());
            return Outcome::Rejected;
        }
    };
    let promised = source.total_records();
    let mut delivered = 0usize;
    loop {
        let n = source.next_chunk().len();
        if n == 0 {
            break;
        }
        delivered += n;
        assert!(delivered <= promised, "{delivered} records of {promised}");
    }
    if let Some(fault) = source.fault() {
        assert!(
            delivered < promised,
            "fault {fault} after all {promised} records"
        );
        Outcome::Faulted
    } else {
        assert_eq!(delivered, promised, "a clean source serves every record");
        Outcome::Served
    }
}

/// A random offset below `len`. One draw in four lands in the leading
/// bytes (the header and the first chunk frame), which uniform offsets into
/// a file of thousands of payload bytes would almost never reach.
fn offset(rng: &mut TestRng, len: usize) -> usize {
    if rng.below(4) == 0 {
        rng.below_usize(len.min(HEAD_BYTES))
    } else {
        rng.below_usize(len)
    }
}

/// Applies one seeded mutation to a copy of `inputs[i]`.
fn mutate(rng: &mut TestRng, inputs: &[Input], i: usize) -> Vec<u8> {
    let mut bytes = inputs[i].bytes.clone();
    match rng.below(4) {
        0 => {
            for _ in 0..rng.range(1, 5) {
                let pos = offset(rng, bytes.len());
                bytes[pos] ^= 1 << rng.below(8);
            }
        }
        1 => {
            let pos = offset(rng, bytes.len());
            bytes[pos] ^= rng.range(1, 256) as u8;
        }
        2 => {
            let cut = offset(rng, bytes.len());
            bytes.truncate(cut);
        }
        _ => {
            let other = &inputs[(i + rng.range_usize(1, inputs.len())) % inputs.len()].bytes;
            let cut = offset(rng, bytes.len() + 1);
            bytes.truncate(cut);
            bytes.extend_from_slice(&other[offset(rng, other.len())..]);
        }
    }
    bytes
}

#[test]
fn mutated_trace_files_fail_typed_or_serve_exactly_what_they_promise() {
    let dir = std::env::temp_dir().join(format!("rescache-decoder-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("mutant.rctrace");
    let inputs = inputs();

    // The unmutated inputs serve their exact records, whole and as prefixes.
    for input in &inputs {
        std::fs::write(&path, &input.bytes).expect("write input");
        assert_eq!(drain(&path, None), input.records);
        let take = input.records.len() / 3;
        assert_eq!(drain(&path, Some(take)), &input.records[..take]);
    }

    let mut tally = [0usize; 3];
    check_cases(CASES, |rng| {
        let i = rng.below_usize(inputs.len());
        std::fs::write(&path, mutate(rng, &inputs, i)).expect("write mutant");
        let prefix = rng.below_usize(inputs[i].records.len() + 1);
        for take in [None, Some(prefix)] {
            tally[replay(&path, take) as usize] += 1;
        }
    });
    eprintln!(
        "{CASES} mutants, two reads each: {} rejected at open, {} faulted, {} served",
        tally[0], tally[1], tally[2]
    );
    assert!(
        tally.iter().all(|&n| n > 0),
        "every outcome occurs: {tally:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

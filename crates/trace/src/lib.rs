//! Synthetic SPEC-like workload and trace generation for the `rescache`
//! resizable-cache study.
//!
//! The HPCA 2002 paper this workspace reproduces evaluates resizable caches by
//! running SPEC95/SPEC2000 binaries on a SimpleScalar/Wattch simulator. SPEC
//! binaries and reference inputs are proprietary, so this crate provides the
//! closest synthetic equivalent: per-application *profiles* that encode the
//! properties the paper's evaluation actually depends on — data working-set
//! size and its phase behaviour, instruction footprint and its phase
//! behaviour, conflict-miss propensity, instruction mix, branch behaviour and
//! instruction-level parallelism — and a deterministic generator that expands
//! a profile into an instruction [`Trace`] consumable by `rescache-cpu`.
//!
//! # Crate map
//!
//! * [`record`] — the [`InstrRecord`]/[`Op`] trace record types.
//! * [`format`] — the [`TraceFormat`] version the bits are pinned to.
//! * [`trace`] — the [`Trace`] container and [`TraceStats`] summary.
//! * [`source`] — [`TraceSource`]: pull-based chunked record delivery.
//! * [`codec`] — length-prefixed binary persistence for traces, with
//!   length-prefixed delta chunk compression.
//! * [`faults`] — [`IoPolicy`]: injectable filesystem I/O with deterministic
//!   fault injection (`RESCACHE_FAULTS`) for recovery-path testing.
//! * [`rng`] — a small deterministic pseudo-random number generator.
//! * [`phase`] — [`PhaseSchedule`]: how a working set evolves over time.
//! * [`working_set`] — [`WorkingSetSpec`]: size, aliasing segments, locality.
//! * [`address`] — data-address stream generation for a working set.
//! * [`code`] — instruction-address (PC) stream generation for a footprint.
//! * [`mix`] — instruction mix (loads/stores/FP/branches).
//! * [`branch`] — branch outcome behaviour.
//! * [`ilp`] — dependency-distance (ILP) behaviour.
//! * [`profile`] — [`AppProfile`]: everything needed to generate one app.
//! * [`spec`] — the twelve SPEC-like application profiles used by the paper.
//! * [`workload`] — [`WorkloadRegistry`]: named scenario workloads.
//! * [`generator`] — [`TraceGenerator`]: expands a profile into a [`Trace`]
//!   or a resumable chunked [`TraceStream`].
//!
//! # Example
//!
//! ```
//! use rescache_trace::{spec, TraceGenerator};
//!
//! let profile = spec::profile("gcc").expect("gcc profile exists");
//! let trace = TraceGenerator::new(profile.clone(), 42).generate(10_000);
//! assert_eq!(trace.len(), 10_000);
//! let stats = trace.stats();
//! assert!(stats.loads + stats.stores > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod branch;
pub mod code;
pub mod codec;
mod compress;
pub mod faults;
pub mod format;
pub mod generator;
pub mod ilp;
pub mod mix;
pub mod phase;
pub mod profile;
pub mod record;
pub mod rng;
pub mod source;
pub mod spec;
pub mod trace;
pub mod working_set;
pub mod workload;

pub use address::AddressStream;
pub use branch::BranchBehavior;
pub use code::CodeStream;
pub use codec::{CodecError, CorruptChunk, TraceFileSource, UnencodableRecord};
pub use faults::{
    is_disk_full, is_transient, FaultInjector, FaultKind, FaultSpec, IoOp, IoPolicy, ScriptedFault,
};
pub use format::TraceFormat;
pub use generator::{TraceGenerator, TraceStream};
pub use ilp::{DistanceSampler, DistanceTable, IlpBehavior, MAX_DISTANCE};
pub use mix::{InstructionMix, MixClass, MixThresholds};
pub use phase::{Phase, PhaseSchedule, ScheduleCursor, ScheduleKind};
pub use profile::{AppProfile, CodeBehavior, DataBehavior};
pub use record::{kind, InstrRecord, Op};
pub use rng::{chance_bits, Prng};
pub use source::{TraceCursor, TraceSource, CHUNK_RECORDS};
pub use trace::{Trace, TraceStats};
pub use working_set::WorkingSetSpec;
pub use workload::{WorkloadRegistry, WorkloadSpec};

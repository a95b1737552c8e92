//! The [`TraceFormat`] version: which record-generation algorithm and which
//! on-disk container a trace's bits come from.
//!
//! Trace bytes are pinned artifacts: golden fixtures, on-disk store entries
//! and cross-process sweeps all assume that the same `(profile, seed,
//! length)` key always expands to the same records. Any change to the
//! sampled bits therefore has to be a deliberate *format version bump*, not
//! a silent behavioural drift.
//!
//! v3 is the only format. Its generation path performs no `f64` operation
//! per record: dependency distances come from a fixed-point inverse-CDF
//! table (see [`crate::ilp::DistanceSampler`]) and the instruction-mix draw
//! compares one raw 64-bit draw against fixed-point thresholds (see
//! [`crate::InstructionMix::thresholds`]). On disk, the magic
//! ([`TraceFormat::magic`]) is followed by a flags byte and delta-compressed
//! chunks (see [`crate::codec`]). A file whose magic carries any other
//! version digit — including the retired versions 1 and 2 — is rejected with
//! the typed [`CodecError::UnsupportedVersion`](crate::CodecError::UnsupportedVersion), which the
//! experiment trace store answers by regenerating the entry.

use std::fmt;

/// A trace-format version (see the module documentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Table-driven dependency distances, an integer-threshold
    /// instruction-mix draw and the delta-compressed chunk container.
    #[default]
    V3,
}

impl TraceFormat {
    /// The 8-byte file magic identifying this format on disk.
    pub fn magic(self) -> [u8; 8] {
        match self {
            TraceFormat::V3 => *b"RCTRACE3",
        }
    }

    /// Short tag used in store file names and JSON records.
    pub fn tag(self) -> &'static str {
        match self {
            TraceFormat::V3 => "v3",
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_newest_format() {
        let format = TraceFormat::default();
        assert_eq!(format, TraceFormat::V3);
        let magic = format.magic();
        assert_eq!(&magic[..7], &crate::codec::MAGIC_PREFIX);
        assert_eq!(magic[7], b'3');
        assert_eq!(format.tag(), "v3");
        assert_eq!(format.to_string(), format.tag());
    }
}

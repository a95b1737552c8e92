//! Delta compression of record chunks: the payload encoding of the v3 trace
//! container (see [`crate::codec`]).
//!
//! Each chunk compresses independently — the delta bases reset at every
//! chunk boundary — so the store's chunk-granular properties survive
//! compression unchanged: streaming replay decodes one chunk at a time,
//! prefix serving never reads past the chunk that covers the request, and
//! a corrupt chunk poisons only itself.
//!
//! The payload is *sectioned* — three planes, not one interleaved record
//! stream:
//!
//! ```text
//! heads   3 bytes per record, fixed stride:
//!         layout 1 byte   pc_len (bits 0-2) | addr_len << 3 (bits 3-5),
//!                         each 0 ..= 5; bits 6-7 reserved zero.
//!                         Non-memory records must declare addr_len 0.
//!         head   2 bytes  u16 LE: kind (3 bits) | dep1 << 3 (6 bits) |
//!                         dep2 << 9 (6 bits); bit 15 reserved zero
//! pcs     every record's PC delta back to back: little-endian zigzag
//!         delta from the previous record's PC (base 0 at each chunk
//!         start), pc_len bytes each; length 0 = delta 0
//! addrs   loads/stores only, back to back: little-endian zigzag delta
//!         from the previous memory access's address (base 0 per chunk),
//!         addr_len bytes each
//! ```
//!
//! The deltas are *length-prefixed plain bytes*, not continuation-bit
//! varints: the layout byte announces both field lengths up front, so the
//! decoder reads the deltas with two table lookups and masked eight-byte
//! loads — no terminator scan, and no data-dependent length branches for
//! the branch predictor to miss. The sectioning is what makes that fast in
//! practice: the head plane is walked at a *fixed* stride, so the field
//! lengths that advance the two delta cursors come from index-addressed
//! loads the CPU can issue arbitrarily far ahead — the serial dependency
//! per record collapses to one add per cursor, where an interleaved layout
//! chains every record's position behind the previous record's layout
//! *load*. The price is one layout byte per record, which the delta coding
//! wins back several times over. PCs walk basic blocks (deltas of a few
//! instruction slots, occasionally a jump) and data addresses are dominated
//! by strided and in-set accesses, so typical records cost 4–6 bytes
//! against the 12 of the in-memory record. The hard bounds are
//! [`MIN_RECORD_BYTES`] and [`MAX_RECORD_BYTES`]; the container rejects
//! chunk byte lengths outside them before reading the payload.
//!
//! Decoding validates everything — reserved head and layout bits, field
//! lengths, the reconstructed lanes staying inside 32 bits, and exact
//! payload consumption — and reports a typed [`CorruptChunk`], never a
//! panic, preserving the codec's degrade-to-regeneration discipline for
//! corrupt store entries.

use std::fmt;

use crate::ilp::MAX_DISTANCE;
use crate::record::{kind, InstrRecord};

/// Smallest possible encoding of one record: a layout byte and a 2-byte
/// head, with both delta fields empty (a non-memory record repeating the
/// previous PC).
pub const MIN_RECORD_BYTES: usize = 3;

/// Largest possible encoding of one record: layout, head and two maximal
/// 5-byte delta fields (a memory record whose PC and address both jumped by
/// a full 32-bit span).
pub const MAX_RECORD_BYTES: usize = 13;

/// Longest legal delta field: zigzag of a 33-bit signed delta needs 34 bits,
/// which is five bytes.
const MAX_FIELD_BYTES: usize = 5;

/// Why a compressed chunk payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptChunk {
    /// The payload ended inside a record.
    Truncated,
    /// A record's layout byte is impossible: a reserved bit set, a field
    /// length past the 5-byte bound no legal delta needs, or address bytes
    /// declared on a non-memory record.
    BadLayout {
        /// The rejected layout byte.
        layout: u8,
    },
    /// A record head sets the reserved bit or names an unknown kind.
    BadHead {
        /// The rejected head value.
        head: u16,
    },
    /// A delta stepped the PC or address stream outside its 32-bit lane —
    /// the delta base and the stored delta cannot both be honest.
    DeltaOutOfRange,
    /// The payload kept going after the chunk's last record.
    TrailingBytes {
        /// Bytes left over once every promised record was decoded.
        extra: usize,
    },
}

impl fmt::Display for CorruptChunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptChunk::Truncated => write!(f, "payload ends mid-record"),
            CorruptChunk::BadLayout { layout } => {
                write!(f, "invalid record layout byte {layout:#04x}")
            }
            CorruptChunk::BadHead { head } => {
                write!(f, "invalid record head {head:#06x}")
            }
            CorruptChunk::DeltaOutOfRange => {
                write!(f, "delta leaves the 32-bit lane")
            }
            CorruptChunk::TrailingBytes { extra } => {
                write!(f, "{extra} bytes beyond the last record")
            }
        }
    }
}

impl std::error::Error for CorruptChunk {}

/// Why a record cannot be represented in the compressed payload (only
/// hand-constructed records can trigger this; everything the generator
/// produces encodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnencodableRecord {
    /// A dependency distance exceeds [`MAX_DISTANCE`] and cannot fit the
    /// head's 6-bit field.
    DepTooLarge {
        /// The offending distance.
        dep: u8,
    },
    /// A non-memory record carries a non-zero address the payload has no
    /// slot for.
    StrayAddress {
        /// The record's kind tag.
        kind: u8,
    },
}

impl fmt::Display for UnencodableRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnencodableRecord::DepTooLarge { dep } => write!(
                f,
                "dependency distance {dep} exceeds {MAX_DISTANCE} and cannot be compressed"
            ),
            UnencodableRecord::StrayAddress { kind } => write!(
                f,
                "non-memory record (kind {kind}) with a non-zero address cannot be compressed"
            ),
        }
    }
}

impl std::error::Error for UnencodableRecord {}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Bytes needed for the low bits of `zz` (0 for a zero delta).
#[inline]
fn field_len(zz: u64) -> usize {
    (64 - zz.leading_zeros() as usize).div_ceil(8)
}

/// Little-endian accumulation of a short delta field — the checked tail
/// path's replacement for the bulk path's masked eight-byte load.
#[inline]
fn read_le(bytes: &[u8]) -> u64 {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        v |= u64::from(b) << (8 * i);
    }
    v
}

/// Applies a zigzag delta to a lane base, rejecting results outside 32 bits.
#[inline(always)]
fn apply_delta(prev: u32, delta: u64) -> Result<u32, CorruptChunk> {
    // A legal delta field is at most 40 bits, so the sum stays far inside
    // i64; one unsigned compare covers both underflow (negative wraps huge)
    // and overflow.
    let v = i64::from(prev) + unzigzag(delta);
    if v as u64 > u64::from(u32::MAX) {
        return Err(CorruptChunk::DeltaOutOfRange);
    }
    Ok(v as u32)
}

/// Appends the compressed payload of `records` (one chunk) to `out`.
///
/// # Errors
///
/// Returns [`UnencodableRecord`] for records the payload cannot represent
/// (over-long dependency distance, stray address on a non-memory record);
/// `out` must be discarded on error.
pub fn encode_chunk(records: &[InstrRecord], out: &mut Vec<u8>) -> Result<(), UnencodableRecord> {
    // The head plane appends to `out` directly; the two delta planes are
    // staged and appended after it, since their lengths aren't known until
    // every record has been walked.
    let mut pcs = Vec::new();
    let mut addrs = Vec::new();
    out.reserve(records.len() * MIN_RECORD_BYTES);
    let mut prev_pc = 0u32;
    let mut prev_addr = 0u32;
    for record in records {
        let (tag, dep1, dep2) = (record.kind_tag(), record.dep1(), record.dep2());
        if dep1 > MAX_DISTANCE || dep2 > MAX_DISTANCE {
            return Err(UnencodableRecord::DepTooLarge {
                dep: dep1.max(dep2),
            });
        }
        let is_mem = tag == kind::LOAD || tag == kind::STORE;
        if !is_mem && record.addr_raw() != 0 {
            return Err(UnencodableRecord::StrayAddress { kind: tag });
        }
        let zz_pc = zigzag(i64::from(record.pc_raw()) - i64::from(prev_pc));
        let pc_len = field_len(zz_pc);
        prev_pc = record.pc_raw();
        let (zz_addr, addr_len) = if is_mem {
            let zz = zigzag(i64::from(record.addr_raw()) - i64::from(prev_addr));
            prev_addr = record.addr_raw();
            (zz, field_len(zz))
        } else {
            (0, 0)
        };
        let head = u16::from(tag) | u16::from(dep1) << 3 | u16::from(dep2) << 9;
        out.push((pc_len | addr_len << 3) as u8);
        out.extend_from_slice(&head.to_le_bytes());
        pcs.extend_from_slice(&zz_pc.to_le_bytes()[..pc_len]);
        addrs.extend_from_slice(&zz_addr.to_le_bytes()[..addr_len]);
    }
    out.extend_from_slice(&pcs);
    out.extend_from_slice(&addrs);
    Ok(())
}

/// Decodes the compressed payload `bytes` into `out`, exactly one record
/// per slot (`out.len()` is the chunk's record count).
///
/// The output is written through a pre-sized slice rather than pushed
/// record by record: per-record `Vec` bookkeeping (length and capacity live
/// wherever the caller's `Vec` header does) measurably perturbed the decode
/// loop, while slice writes keep the hot state in registers.
///
/// # Errors
///
/// Returns a [`CorruptChunk`] if the payload is malformed in any way,
/// including bytes left over after the last record; `out` holds
/// unspecified records on error and must be discarded.
#[inline(never)]
pub fn decode_chunk_into(bytes: &[u8], out: &mut [InstrRecord]) -> Result<(), CorruptChunk> {
    // Low-bits mask per field length. Indexed by a 3-bit value so the bounds
    // check vanishes; 6 and 7 are unreachable once the layout is validated.
    const MASK: [u64; 8] = [
        0,
        0xff,
        0xffff,
        0x00ff_ffff,
        0xffff_ffff,
        0x00ff_ffff_ffff,
        0,
        0,
    ];

    let heads_end = out.len() * MIN_RECORD_BYTES;
    if bytes.len() < heads_end {
        return Err(CorruptChunk::Truncated);
    }

    // Pass 1 — the head plane: validate every record's layout and head,
    // materialize the kind and dependency lanes, and sum the two delta
    // planes' lengths. After this pass the plane boundaries are exact, so
    // pass 2 runs with no per-record bounds or validity checks at all.
    let mut pc_bytes = 0usize;
    let mut addr_bytes = 0usize;
    for (slot, head3) in out.iter_mut().zip(bytes[..heads_end].chunks_exact(3)) {
        let layout = head3[0];
        let head = u16::from_le_bytes([head3[1], head3[2]]);
        let tag = (head & 0x7) as u8;
        let pc_len = (layout & 0x7) as usize;
        let addr_len = (layout >> 3 & 0x7) as usize;
        // One fused validity predicate, evaluated with non-short-circuit
        // `&`: every clause is a flag computation, so the record cost is a
        // handful of ALU ops and a single never-taken branch — a chain of
        // `||` clauses compiles to a data-dependent branch per clause, and
        // the memory-vs-not split among them is inherently unpredictable.
        let valid = (head & 0x8000 == 0)
            & (tag <= kind::BRANCH_TAKEN)
            & (layout & 0xc0 == 0)
            & (pc_len <= MAX_FIELD_BYTES)
            & (addr_len <= MAX_FIELD_BYTES)
            & (is_mem_tag(tag) | (addr_len == 0));
        if !valid {
            return Err(classify_invalid(layout, head));
        }
        pc_bytes += pc_len;
        addr_bytes += addr_len;
        let dep1 = ((head >> 3) & 0x3f) as u8;
        let dep2 = ((head >> 9) & 0x3f) as u8;
        *slot = InstrRecord::from_lanes_validated(0, 0, tag, dep1, dep2);
    }
    let expected = heads_end + pc_bytes + addr_bytes;
    if bytes.len() < expected {
        return Err(CorruptChunk::Truncated);
    }
    if bytes.len() > expected {
        return Err(CorruptChunk::TrailingBytes {
            extra: bytes.len() - expected,
        });
    }

    // Pass 2 — the delta planes, filling the PC/address lanes in place.
    // This loop is why the payload is sectioned: the field lengths that
    // advance the two cursors come from the head plane at a *fixed* stride,
    // so the loads are index-addressed and issue arbitrarily far ahead —
    // the serial dependency per record is one add per cursor, not a chain
    // through the previous record's layout load. Both cursors stay in
    // bounds by construction (their sums were just checked), leaving only
    // the masked loads' distance to the payload end and the 32-bit lane
    // range to check.
    let mut pos_pc = heads_end;
    let mut pos_addr = heads_end + pc_bytes;
    let mut prev_pc = 0u32;
    let mut prev_addr = 0u32;
    for (slot, head3) in out.iter_mut().zip(bytes[..heads_end].chunks_exact(3)) {
        let layout = head3[0];
        let tag = head3[1] & 0x7;
        let pc_len = (layout & 0x7) as usize;
        let addr_len = (layout >> 3 & 0x7) as usize;
        // Bulk masked eight-byte loads whenever the payload end is far
        // enough away (`pos_pc <= pos_addr` always — the PC plane precedes
        // the address plane); the last few records take the short-read
        // path. No terminator scan, no length branches.
        let (zz_pc, zz_addr);
        if bytes.len() - pos_addr >= 8 {
            zz_pc = load_u64_le(bytes, pos_pc) & MASK[pc_len];
            zz_addr = load_u64_le(bytes, pos_addr) & MASK[addr_len];
        } else {
            zz_pc = read_le(&bytes[pos_pc..pos_pc + pc_len]);
            zz_addr = read_le(&bytes[pos_addr..pos_addr + addr_len]);
        }
        pos_pc += pc_len;
        pos_addr += addr_len;
        let pc = apply_delta(prev_pc, zz_pc)?;
        // A non-memory record declared addr_len 0 in pass 1, so its delta
        // is 0 and this can neither fail nor move the address stream.
        let addr = apply_delta(prev_addr, zz_addr)?;
        prev_pc = pc;
        let is_mem = is_mem_tag(tag);
        prev_addr = if is_mem { addr } else { prev_addr };
        slot.set_pc_lane(pc);
        slot.set_addr_lane(if is_mem { addr } else { 0 });
    }
    Ok(())
}

/// Branch-free memory-kind test: `LOAD` (2) and `STORE` (3) are the only
/// tags that share every bit above the lowest — written arithmetically so
/// the decode loops get a flag computation instead of a short-circuit
/// branch on an inherently unpredictable record property.
#[inline(always)]
fn is_mem_tag(tag: u8) -> bool {
    (tag | 1) == kind::STORE
}

/// Names the reason a record failed pass 1's fused validity predicate.
/// Cold by construction — only reached off the never-taken branch.
#[cold]
fn classify_invalid(layout: u8, head: u16) -> CorruptChunk {
    let tag = (head & 0x7) as u8;
    if head & 0x8000 != 0 || tag > kind::BRANCH_TAKEN {
        return CorruptChunk::BadHead { head };
    }
    CorruptChunk::BadLayout { layout }
}

/// Unaligned little-endian eight-byte load — the bulk path's single-load
/// replacement for a byte-accumulation loop. The caller guarantees
/// `pos + 8 <= bytes.len()`.
#[inline(always)]
fn load_u64_le(bytes: &[u8], pos: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[pos..pos + 8]);
    u64::from_le_bytes(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::record::Op;
    use crate::spec;

    fn round_trip(records: &[InstrRecord]) -> Vec<InstrRecord> {
        let mut payload = Vec::new();
        encode_chunk(records, &mut payload).expect("encodable");
        decode(&payload, records.len()).expect("decodable")
    }

    /// Decodes a `len`-record payload into a fresh vector.
    fn decode(bytes: &[u8], len: usize) -> Result<Vec<InstrRecord>, CorruptChunk> {
        let mut out = vec![InstrRecord::zeroed(); len];
        decode_chunk_into(bytes, &mut out)?;
        Ok(out)
    }

    /// A hand-assembled single record: layout, head, then raw delta bytes.
    fn raw_record(layout: u8, head: u16, deltas: &[u8]) -> Vec<u8> {
        let mut payload = vec![layout];
        payload.extend_from_slice(&head.to_le_bytes());
        payload.extend_from_slice(deltas);
        payload
    }

    #[test]
    fn generated_chunks_round_trip_and_shrink() {
        let trace = TraceGenerator::new(spec::gcc(), 3).generate(20_000);
        let mut total = 0usize;
        for chunk in trace.records().chunks(crate::source::CHUNK_RECORDS) {
            assert_eq!(round_trip(chunk), chunk);
            let mut payload = Vec::new();
            encode_chunk(chunk, &mut payload).expect("encodable");
            assert!(payload.len() >= MIN_RECORD_BYTES * chunk.len());
            assert!(payload.len() <= MAX_RECORD_BYTES * chunk.len());
            total += payload.len();
        }
        assert!(
            total * 2 <= trace.len() * 12,
            "compression must at least halve a real trace: {total} bytes for {} records",
            trace.len()
        );
    }

    #[test]
    fn extreme_lane_values_round_trip() {
        let records = [
            InstrRecord::with_deps(u32::MAX.into(), Op::Load(0), 63, 63),
            InstrRecord::new(0, Op::Store(u32::MAX.into())),
            InstrRecord::new(u32::MAX.into(), Op::Int),
            InstrRecord::new(0, Op::Branch { taken: true }),
            InstrRecord::new(1, Op::Branch { taken: false }),
            InstrRecord::with_deps(2, Op::Fp, 1, 0),
            // Zero-length fields: a repeated PC and a repeated address.
            InstrRecord::new(2, Op::Load(7)),
            InstrRecord::new(2, Op::Load(7)),
        ];
        assert_eq!(round_trip(&records), records);
    }

    #[test]
    fn empty_chunk_is_empty_payload() {
        let mut payload = Vec::new();
        encode_chunk(&[], &mut payload).expect("empty");
        assert!(payload.is_empty());
        assert!(decode(&[], 0).expect("empty").is_empty());
    }

    #[test]
    fn unencodable_records_are_typed_errors() {
        let mut payload = Vec::new();
        let deep = InstrRecord::with_deps(0x400, Op::Int, 64, 0);
        assert_eq!(
            encode_chunk(&[deep], &mut payload),
            Err(UnencodableRecord::DepTooLarge { dep: 64 })
        );
        // The constructors never put an address on a non-memory record; the
        // encoder still refuses one rather than silently dropping it.
        let mut stray = InstrRecord::new(0x400, Op::Int);
        stray.set_addr_lane(1);
        assert_eq!(
            encode_chunk(&[stray], &mut payload),
            Err(UnencodableRecord::StrayAddress { kind: kind::INT })
        );
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let records = [
            InstrRecord::new(0x400, Op::Load(0x9000)),
            InstrRecord::new(0x404, Op::Int),
        ];
        let mut payload = Vec::new();
        encode_chunk(&records, &mut payload).expect("encodable");
        // Every proper prefix fails typed — mid-head, mid-delta, missing
        // final record alike — and never panics.
        for cut in 0..payload.len() {
            let err = decode(&payload[..cut], records.len()).unwrap_err();
            assert!(matches!(err, CorruptChunk::Truncated), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let records = [InstrRecord::new(0x400, Op::Int)];
        let mut payload = Vec::new();
        encode_chunk(&records, &mut payload).expect("encodable");
        payload.push(0);
        assert_eq!(
            decode(&payload, records.len()),
            Err(CorruptChunk::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn bad_head_bits_are_a_typed_error() {
        for head in [0x8000u16, 0x0006, 0x0007, 0x8005] {
            assert_eq!(
                decode(&raw_record(0, head, &[]), 1),
                Err(CorruptChunk::BadHead { head }),
                "{head:#06x}"
            );
        }
    }

    #[test]
    fn bad_layout_bits_are_a_typed_error() {
        for (layout, head, deltas) in [
            // A reserved layout bit.
            (0x40u8, 0u16, &[][..]),
            // A 6-byte PC field no legal delta needs.
            (0x06, 0, &[0, 0, 0, 0, 0, 0][..]),
            // A 7-byte address field on a load.
            (
                0x38 | 0x01,
                u16::from(kind::LOAD),
                &[1, 0, 0, 0, 0, 0, 0, 1][..],
            ),
            // Address bytes declared on a non-memory record.
            (0x08, 0, &[1][..]),
        ] {
            assert_eq!(
                decode(&raw_record(layout, head, deltas), 1),
                Err(CorruptChunk::BadLayout { layout }),
                "layout {layout:#04x}"
            );
        }
    }

    #[test]
    fn out_of_range_delta_is_a_typed_error() {
        // A negative PC delta from the zero base: the "bad delta base" case
        // a corrupted or resequenced chunk produces.
        assert_eq!(
            decode(&raw_record(0x01, 0, &[zigzag(-1) as u8]), 1),
            Err(CorruptChunk::DeltaOutOfRange)
        );
        // A delta overshooting u32::MAX likewise.
        let zz = zigzag(i64::from(u32::MAX) + 1).to_le_bytes();
        assert_eq!(
            decode(&raw_record(0x05, 0, &zz[..5]), 1),
            Err(CorruptChunk::DeltaOutOfRange)
        );
    }

    #[test]
    fn non_minimal_field_lengths_still_decode() {
        // The encoder always emits minimal fields, but the decoder accepts
        // padded ones — the layout byte, not minimality, is the contract.
        let payload = raw_record(0x02, 0, &[0x08, 0x00]); // pc delta +4 in 2 bytes
        let out = decode(&payload, 1).expect("padded field");
        assert_eq!(out, [InstrRecord::new(4, Op::Int)]);
    }

    #[test]
    fn field_len_matches_byte_count() {
        assert_eq!(field_len(0), 0);
        assert_eq!(field_len(1), 1);
        assert_eq!(field_len(0xff), 1);
        assert_eq!(field_len(0x100), 2);
        assert_eq!(field_len(0xffff_ffff), 4);
        assert_eq!(field_len(zigzag(i64::from(u32::MAX))), 5);
        assert_eq!(field_len(zigzag(-i64::from(u32::MAX))), 5);
    }

    #[test]
    fn zigzag_round_trips_the_extremes() {
        for v in [
            0i64,
            1,
            -1,
            i64::from(u32::MAX),
            -i64::from(u32::MAX),
            i64::from(i32::MAX),
            i64::from(i32::MIN),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
    }
}

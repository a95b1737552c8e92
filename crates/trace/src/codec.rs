//! Length-prefixed binary codec for traces: the persistence format of the
//! experiment trace store.
//!
//! Trace generation is deterministic but not free (it is the slowest single
//! stage of a cold sweep), so multi-process experiment campaigns persist
//! generated traces under `RESCACHE_TRACE_DIR` and replay them from disk.
//! The container frames delta-compressed record chunks (see
//! [`crate::compress`] internals for the per-record layout):
//!
//! ```text
//! magic      8 bytes   b"RCTRACE3"
//! flags      1 byte    1 = chunks are delta compressed; any other value
//!                      is UnsupportedFlags
//! name_len   4 bytes   u32 LE, at most MAX_NAME_BYTES
//! name       n bytes   UTF-8 application name
//! records    8 bytes   u64 LE total record count
//! chunk*                repeated until `records` records have been read:
//!   len      4 bytes   u32 LE records in this chunk (1 ..= CHUNK_RECORDS)
//!   bytes    4 bytes   u32 LE payload length (3×len ..= 13×len)
//!   data     bytes     compressed records, delta bases reset per chunk
//! ```
//!
//! The magic's trailing digit is the [`TraceFormat`] version of the records
//! (see [`crate::format`]). A file with [`MAGIC_PREFIX`] but another version
//! digit is [`CodecError::UnsupportedVersion`]; one without the prefix is
//! [`CodecError::BadMagic`].
//!
//! The reader validates everything else it touches the same way and returns
//! a [`CodecError`] — never panics — on truncated, structurally corrupt or
//! foreign files, so a store populated by a crashed or concurrent process
//! degrades to regeneration rather than an aborted sweep. Chunks carry no
//! checksum: a damaged payload that still decodes yields different records
//! without an error.
//!
//! One reader and one writer cover every use. [`TraceFileSource`] is the
//! only way a file is read: it decodes one chunk at a time (nothing else
//! resident) behind the [`TraceSource`] pull interface, so simulations replay
//! straight from disk, including only a leading prefix of a longer entry.
//! [`write_trace`], [`save_trace`] and [`save_source_with`] all frame chunks
//! through one loop over a [`TraceSource`], so a streaming generator persists
//! without ever holding the full record array, byte-identical to its
//! materialized twin.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::compress;
use crate::faults::{IoPolicy, PolicedRead, PolicedWrite};
use crate::format::TraceFormat;
use crate::record::InstrRecord;
use crate::source::{TraceSource, CHUNK_RECORDS};
use crate::trace::Trace;

pub use crate::compress::{CorruptChunk, UnencodableRecord};

/// Version-independent prefix of every trace-file magic; the eighth byte is
/// the [`TraceFormat`] version digit (see [`TraceFormat::magic`]).
pub const MAGIC_PREFIX: [u8; 7] = *b"RCTRACE";

/// Upper bound on the encoded application-name length.
pub const MAX_NAME_BYTES: u32 = 4 * 1024;

/// The header flags byte of every written file: chunk payloads are delta
/// compressed. The only value a reader accepts.
const FLAGS_DELTA: u8 = 1;

/// Error produced when decoding a persisted trace.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file does not start with [`MAGIC_PREFIX`] — not a rescache trace
    /// at all.
    BadMagic,
    /// The magic names a trace-format version other than the one this
    /// build reads and writes — the retired versions 1 and 2 included.
    UnsupportedVersion {
        /// The unrecognized version byte from the magic.
        version: u8,
    },
    /// The header's flags byte is not the delta-compressed encoding this
    /// build writes — another encoding must be regenerated, not
    /// half-decoded.
    UnsupportedFlags {
        /// The rejected flags byte.
        flags: u8,
    },
    /// The application name is over-long or not UTF-8.
    BadName,
    /// A chunk header is impossible (zero, over-long, or exceeding the
    /// remaining record count).
    BadChunk {
        /// The rejected chunk length.
        len: u32,
        /// Records still expected when the chunk header was read.
        remaining: u64,
    },
    /// A compressed chunk's byte length is impossible for its record count
    /// (the chunk directory points at the wrong place).
    BadChunkBytes {
        /// Records the chunk header promises.
        len: u32,
        /// The impossible payload byte length.
        byte_len: u32,
    },
    /// A compressed chunk payload failed to decode.
    BadPayload(CorruptChunk),
    /// The file ended before the promised record count was delivered.
    Truncated {
        /// Records promised by the header.
        expected: u64,
        /// Records successfully decoded before the end of the file.
        got: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "trace codec i/o error: {e}"),
            CodecError::BadMagic => write!(f, "not a rescache trace file (bad magic)"),
            CodecError::UnsupportedVersion { version } => write!(
                f,
                "trace file has an unsupported format version byte {version:#04x}"
            ),
            CodecError::UnsupportedFlags { flags } => write!(
                f,
                "trace file header has unsupported flags byte {flags:#04x}"
            ),
            CodecError::BadName => write!(f, "trace file has an invalid application name"),
            CodecError::BadChunk { len, remaining } => write!(
                f,
                "trace file has an invalid chunk header (len {len}, {remaining} records remaining)"
            ),
            CodecError::BadChunkBytes { len, byte_len } => write!(
                f,
                "trace file has an impossible compressed chunk ({len} records in {byte_len} bytes)"
            ),
            CodecError::BadPayload(e) => {
                write!(f, "trace file has a corrupt compressed chunk: {e}")
            }
            CodecError::Truncated { expected, got } => write!(
                f,
                "trace file is truncated: expected {expected} records, decoded {got}"
            ),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            CodecError::BadPayload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CorruptChunk> for CodecError {
    fn from(e: CorruptChunk) -> Self {
        CodecError::BadPayload(e)
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Writes `trace` to `w` in the format described at module level.
///
/// # Errors
///
/// Besides writer errors, returns `InvalidInput` for a trace whose name
/// exceeds [`MAX_NAME_BYTES`] — a reader would reject such a file, so it
/// must never be produced — and for a record the compressed payload cannot
/// represent (see [`UnencodableRecord`]).
pub fn write_trace<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    write_source(w, &mut trace.cursor())
}

/// Drains `source` to `w`: the container header, then every record framed
/// into chunks of at most [`CHUNK_RECORDS`]. The one framing loop behind
/// every writer, so a materialized trace and a streamed one always produce
/// byte-identical files. Oversized producer chunks (a cursor yields its
/// whole window as one chunk) are re-framed to the format's bound.
///
/// # Errors
///
/// Besides writer errors, returns `InvalidInput` for an over-long name or an
/// unencodable record (see [`write_trace`]) and `InvalidData` if the source
/// delivers fewer records than [`TraceSource::total_records`] promised.
fn write_source<W: Write, S: TraceSource>(w: &mut W, source: &mut S) -> io::Result<()> {
    let promised = source.total_records() as u64;
    let name = source.name().as_bytes();
    if name.len() as u64 > u64::from(MAX_NAME_BYTES) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "trace name of {} bytes exceeds {MAX_NAME_BYTES}",
                name.len()
            ),
        ));
    }
    w.write_all(&TraceFormat::V3.magic())?;
    w.write_all(&[FLAGS_DELTA])?;
    w.write_all(&(name.len() as u32).to_le_bytes())?;
    w.write_all(name)?;
    w.write_all(&promised.to_le_bytes())?;

    let mut written = 0u64;
    let mut bytes = Vec::with_capacity(CHUNK_RECORDS * compress::MAX_RECORD_BYTES);
    loop {
        let chunk = source.next_chunk();
        if chunk.is_empty() {
            break;
        }
        for frame in chunk.chunks(CHUNK_RECORDS) {
            w.write_all(&(frame.len() as u32).to_le_bytes())?;
            bytes.clear();
            compress::encode_chunk(frame, &mut bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            w.write_all(&(bytes.len() as u32).to_le_bytes())?;
            w.write_all(&bytes)?;
            written += frame.len() as u64;
        }
    }
    if written != promised {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("source promised {promised} records but delivered {written}"),
        ));
    }
    Ok(())
}

/// An incremental reader over the persisted trace format: the header is
/// validated on construction, then [`ChunkedTraceReader::next_chunk`] decodes
/// one chunk at a time into an internal buffer, so a consumer that never
/// needs the whole trace resident keeps at most [`CHUNK_RECORDS`] decoded
/// records alive. [`TraceFileSource`] is its one client.
#[derive(Debug)]
pub(crate) struct ChunkedTraceReader<R: Read> {
    r: R,
    name: String,
    total: u64,
    delivered: u64,
    buf: Vec<InstrRecord>,
    raw: Vec<u8>,
}

impl<R: Read> ChunkedTraceReader<R> {
    /// Reads and validates the stream header.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for a missing magic, another format
    /// version, an unknown flags byte, an invalid name, or a reader failure.
    pub fn new(mut r: R) -> Result<Self, CodecError> {
        let mut magic = [0u8; 8];
        read_exact_or_truncated(&mut r, &mut magic, 0, 0)?;
        if magic[..7] != MAGIC_PREFIX {
            return Err(CodecError::BadMagic);
        }
        if magic != TraceFormat::V3.magic() {
            return Err(CodecError::UnsupportedVersion { version: magic[7] });
        }
        let mut flags = [0u8; 1];
        read_exact_or_truncated(&mut r, &mut flags, 0, 0)?;
        if flags[0] != FLAGS_DELTA {
            return Err(CodecError::UnsupportedFlags { flags: flags[0] });
        }

        let mut len4 = [0u8; 4];
        read_exact_or_truncated(&mut r, &mut len4, 0, 0)?;
        let name_len = u32::from_le_bytes(len4);
        if name_len > MAX_NAME_BYTES {
            return Err(CodecError::BadName);
        }
        let mut name_bytes = vec![0u8; name_len as usize];
        read_exact_or_truncated(&mut r, &mut name_bytes, 0, 0)?;
        let name = String::from_utf8(name_bytes).map_err(|_| CodecError::BadName)?;

        let mut len8 = [0u8; 8];
        read_exact_or_truncated(&mut r, &mut len8, 0, 0)?;
        let total = u64::from_le_bytes(len8);

        Ok(Self {
            r,
            name,
            total,
            delivered: 0,
            buf: Vec::new(),
            raw: Vec::new(),
        })
    }

    /// The application name recorded in the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The total record count promised by the header.
    pub fn total_records(&self) -> u64 {
        self.total
    }

    /// Decodes the next chunk, or returns an empty slice once every promised
    /// record has been delivered.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation, an impossible chunk header or
    /// a corrupt record; the reader must not be used further after an error.
    pub fn next_chunk(&mut self) -> Result<&[InstrRecord], CodecError> {
        // The decode buffer is swapped out for the call so the borrow-free
        // decode can write into it, then swapped back; `current` keeps
        // serving the decoded records without any copy.
        let mut buf = std::mem::take(&mut self.buf);
        let result = self.next_chunk_reusing(&mut buf);
        self.buf = buf;
        result?;
        Ok(&self.buf)
    }

    /// Decodes the next chunk by *overwriting* `out`: steady-state chunks
    /// are all the same length, so after the first chunk the resize is a
    /// no-op and the decode writes straight over last chunk's records — a
    /// clear-then-grow cycle would re-zero the whole buffer every chunk.
    /// `out` is left empty once every promised record has been delivered.
    fn next_chunk_reusing(&mut self, out: &mut Vec<InstrRecord>) -> Result<usize, CodecError> {
        let remaining = self.total - self.delivered;
        if remaining == 0 {
            out.clear();
            return Ok(0);
        }
        let (len, byte_len) = read_chunk_frame(&mut self.r, self.total, self.delivered, remaining)?;
        self.raw.resize(byte_len.max(self.raw.len()), 0);
        read_exact_or_truncated(
            &mut self.r,
            &mut self.raw[..byte_len],
            self.total,
            self.delivered,
        )?;
        out.resize(len, InstrRecord::zeroed());
        compress::decode_chunk_into(&self.raw[..byte_len], &mut out[..])?;
        self.delivered += len as u64;
        Ok(len)
    }

    /// The most recently decoded chunk, as [`ChunkedTraceReader::next_chunk`]
    /// returned it. This is the zero-copy serve surface: a streaming consumer
    /// (the store's [`TraceFileSource`]) hands out sub-slices of this buffer
    /// directly instead of staging records through a second copy.
    pub fn current(&self) -> &[InstrRecord] {
        &self.buf
    }
}

/// Reads and validates one chunk's frame (record count and the
/// directory's byte length), leaving `r` positioned at the payload.
fn read_chunk_frame<R: Read>(
    r: &mut R,
    total: u64,
    delivered: u64,
    remaining: u64,
) -> Result<(usize, usize), CodecError> {
    let mut len4 = [0u8; 4];
    read_exact_or_truncated(r, &mut len4, total, delivered)?;
    let len = u32::from_le_bytes(len4);
    if len == 0 || len as usize > CHUNK_RECORDS || u64::from(len) > remaining {
        return Err(CodecError::BadChunk { len, remaining });
    }
    read_exact_or_truncated(r, &mut len4, total, delivered)?;
    let byte_len = u32::from_le_bytes(len4);
    // The payload bounds are a structural invariant (3 layout and head
    // bytes plus two bounded delta fields per record); anything outside
    // them means the chunk directory is lying, so reject before trusting it
    // for an allocation or a read.
    if (byte_len as usize) < compress::MIN_RECORD_BYTES * len as usize
        || byte_len as usize > compress::MAX_RECORD_BYTES * len as usize
    {
        return Err(CodecError::BadChunkBytes { len, byte_len });
    }
    Ok((len as usize, byte_len as usize))
}

/// A [`TraceSource`] replaying a persisted trace chunk by chunk from disk —
/// the only way a trace file is read. It keeps one decoded chunk resident
/// instead of the whole record array and serves it as sub-slices of the
/// decode buffer, so records reach the engines in one decode pass
/// with no staging copy. Opening with a `take` shorter than the
/// file is chunk-granular prefix serving — decoding stops with the chunk
/// that covers the request, so corruption *beyond* the prefix is never even
/// read; this is how the experiment trace store serves a short trace request
/// from a longer persisted entry.
///
/// The pull interface has no error channel, so a decode failure mid-stream
/// (a truncated or corrupted store entry) is recorded in
/// [`TraceFileSource::fault`] and the source reports exhaustion; callers
/// that must be robust check the fault after the run and fall back to
/// regeneration (as the experiment runner does).
#[derive(Debug)]
pub struct TraceFileSource {
    path: std::path::PathBuf,
    reader: ChunkedTraceReader<BufReader<PolicedRead<File>>>,
    /// Records of the file this source serves (a prefix of the file when the
    /// entry is longer than the request).
    take: usize,
    pos: usize,
    fence: usize,
    /// Extent and cursor into the reader's current decoded chunk: the source
    /// serves sub-slices of [`ChunkedTraceReader::current`] directly, so
    /// records flow from the decode buffer to the consumer without a second
    /// staging copy.
    chunk_len: usize,
    chunk_pos: usize,
    fault: Option<CodecError>,
}

impl TraceFileSource {
    /// Opens the trace at `path`, serving its first `take` records (`None` =
    /// the whole file).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the file cannot be opened, its header is
    /// invalid, or it promises fewer than `take` records.
    pub fn open(path: &Path, take: Option<usize>) -> Result<Self, CodecError> {
        Self::open_with(path, take, &IoPolicy::none())
    }

    /// [`TraceFileSource::open`] with the open and every subsequent read
    /// routed through `policy` — the fault-injectable variant the experiment
    /// trace store uses. A fault injected mid-stream surfaces through
    /// [`TraceFileSource::fault`] exactly like real disk trouble.
    ///
    /// # Errors
    ///
    /// Everything [`TraceFileSource::open`] reports, plus whatever `policy`
    /// injects.
    pub fn open_with(
        path: &Path,
        take: Option<usize>,
        policy: &IoPolicy,
    ) -> Result<Self, CodecError> {
        let file = policy.open(path)?;
        let reader = ChunkedTraceReader::new(BufReader::new(policy.reader(file)))?;
        let take = take.unwrap_or(reader.total_records() as usize);
        if (take as u64) > reader.total_records() {
            return Err(CodecError::Truncated {
                expected: take as u64,
                got: reader.total_records(),
            });
        }
        Ok(Self {
            path: path.to_path_buf(),
            reader,
            take,
            pos: 0,
            fence: take,
            chunk_len: 0,
            chunk_pos: 0,
            fault: None,
        })
    }

    /// The file this source replays (callers that detect a fault use it to
    /// invalidate the entry).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The record count the file's header promises — the whole entry, not
    /// the served prefix ([`TraceSource::total_records`] reports `take`).
    /// Store-layer callers compare this against the count implied by the
    /// entry's key to reject foreign or stale files.
    pub fn file_records(&self) -> usize {
        self.reader.total_records() as usize
    }

    /// The decode error that interrupted this source, if any. When a fault is
    /// set the source under-delivers: the simulation that consumed it must be
    /// discarded and retried from another producer.
    pub fn fault(&self) -> Option<&CodecError> {
        self.fault.as_ref()
    }

    /// Advances the reader to its next decoded chunk (no copy — the records
    /// stay in the reader's buffer); false on fault/end.
    fn refill(&mut self) -> bool {
        match self.reader.next_chunk() {
            Ok([]) => {
                // `take` was validated against the header, so running dry
                // early means the file lied; record it as truncation.
                self.fault = Some(CodecError::Truncated {
                    expected: self.take as u64,
                    got: self.pos as u64,
                });
                false
            }
            Ok(chunk) => {
                self.chunk_len = chunk.len();
                self.chunk_pos = 0;
                true
            }
            Err(e) => {
                self.fault = Some(e);
                false
            }
        }
    }
}

impl TraceSource for TraceFileSource {
    fn name(&self) -> &str {
        self.reader.name()
    }

    fn total_records(&self) -> usize {
        self.take
    }

    fn next_chunk(&mut self) -> &[InstrRecord] {
        let limit = self.fence.min(self.take);
        if self.fault.is_some() || self.pos >= limit {
            return &[];
        }
        if self.chunk_pos >= self.chunk_len && !self.refill() {
            return &[];
        }
        // A file chunk that straddles the fence (or the prefix end) is
        // delivered piecewise: the remainder stays staged for the next
        // region, which is what makes the split chunk-boundary-agnostic.
        let n = (self.chunk_len - self.chunk_pos).min(limit - self.pos);
        let start = self.chunk_pos;
        self.chunk_pos += n;
        self.pos += n;
        &self.reader.current()[start..start + n]
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn split_at(&mut self, at: usize) {
        self.fence = at.clamp(self.pos, self.take);
    }

    fn skip(&mut self, n: usize) {
        let target = self.pos.saturating_add(n).min(self.take);
        while self.pos < target && self.fault.is_none() {
            if self.chunk_pos >= self.chunk_len && !self.refill() {
                break;
            }
            let step = (self.chunk_len - self.chunk_pos).min(target - self.pos);
            self.chunk_pos += step;
            self.pos += step;
        }
        self.fence = self.fence.max(self.pos);
    }
}

/// `read_exact` that maps an early end-of-file to [`CodecError::Truncated`]
/// with the given progress context.
fn read_exact_or_truncated<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    expected: u64,
    got: u64,
) -> Result<(), CodecError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CodecError::Truncated { expected, got }
        } else {
            CodecError::Io(e)
        }
    })
}

/// Writes to `path` atomically (via a same-directory temporary file and
/// rename), so concurrent writers — processes *or* threads — sharing a trace
/// store never expose a half-written file at the final path. The create,
/// every buffered write, and the committing rename all go through `policy`;
/// on any failure the temporary file is cleaned up (best effort, un-policed
/// — injecting on the cleanup of an already-failed save would only leave the
/// same debris a crashed process leaves, which readers already ignore).
fn atomic_save(
    path: &Path,
    policy: &IoPolicy,
    write: impl FnOnce(&mut BufWriter<PolicedWrite<File>>) -> io::Result<()>,
) -> io::Result<()> {
    // The temporary name must be unique per writer, not just per process:
    // two threads saving the same store entry would otherwise share the
    // temporary file and could rename a half-rewritten inode into place.
    static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let writer = WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{writer}", std::process::id()));
    let result = (|| {
        let mut w = BufWriter::new(policy.writer(policy.create(&tmp)?));
        match write(&mut w).and_then(|()| w.flush()) {
            Ok(()) => policy.rename(&tmp, path),
            Err(e) => {
                // Discard the buffered tail: `BufWriter`'s drop would
                // silently retry writing it to a file this function is
                // about to delete.
                let _ = w.into_parts();
                Err(e)
            }
        }
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Writes `trace` to `path` atomically, through a same-directory temporary
/// file renamed into place: [`save_source_with`] over the trace's cursor,
/// with no fault policy.
///
/// # Errors
///
/// Everything [`write_trace`] reports.
pub fn save_trace(path: &Path, trace: &Trace) -> io::Result<()> {
    save_source_with(path, &mut trace.cursor(), &IoPolicy::none())
}

/// Drains `source` to `path` atomically, chunk by chunk, with every
/// filesystem operation routed through `policy`. This persists (for example)
/// a resumable [`TraceStream`](crate::TraceStream) without ever materializing
/// the full record array, and a materialized trace through its
/// [`Trace::cursor`].
///
/// # Errors
///
/// Besides writer errors and whatever `policy` injects, returns
/// `InvalidData` if the source delivers fewer records than
/// [`TraceSource::total_records`] promised (the partial file is discarded,
/// never renamed into place), and `InvalidInput` for an over-long name as
/// [`write_trace`] does.
pub fn save_source_with<S: TraceSource>(
    path: &Path,
    source: &mut S,
    policy: &IoPolicy,
) -> io::Result<()> {
    atomic_save(path, policy, |w| write_source(w, source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::spec;

    fn sample(n: usize) -> Trace {
        TraceGenerator::new(spec::compress(), 11).generate(n)
    }

    fn encode(trace: &Trace) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_trace(&mut bytes, trace).expect("vec writes cannot fail");
        bytes
    }

    /// Decodes an in-memory image chunk by chunk through the reader behind
    /// [`TraceFileSource`].
    fn decode(bytes: &[u8]) -> Result<Trace, CodecError> {
        let mut reader = ChunkedTraceReader::new(bytes)?;
        let mut records = Vec::new();
        loop {
            let chunk = reader.next_chunk()?;
            if chunk.is_empty() {
                break;
            }
            records.extend_from_slice(chunk);
        }
        Ok(Trace::new(reader.name().to_string(), records))
    }

    /// Reads the whole file at `path` through [`TraceFileSource`], returning
    /// a mid-stream fault as the error.
    fn load(path: &Path) -> Result<Trace, CodecError> {
        let mut source = TraceFileSource::open(path, None)?;
        let mut records = Vec::new();
        loop {
            let chunk = source.next_chunk();
            if chunk.is_empty() {
                break;
            }
            records.extend_from_slice(chunk);
        }
        match source.fault.take() {
            Some(e) => Err(e),
            None => Ok(Trace::new(source.name().to_string(), records)),
        }
    }

    /// Byte offsets of each chunk header in an encoded file, walked via the
    /// chunk directory's explicit byte lengths.
    fn v3_chunk_offsets(bytes: &[u8], name_len: usize) -> Vec<usize> {
        let mut off = 9 + 4 + name_len + 8;
        let mut offsets = Vec::new();
        while off < bytes.len() {
            offsets.push(off);
            let byte_len =
                u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes")) as usize;
            off += 8 + byte_len;
        }
        offsets
    }

    #[test]
    fn round_trips_through_memory() {
        // Cover the empty, sub-chunk and multi-chunk cases.
        for n in [0usize, 1, 1000, CHUNK_RECORDS + 17] {
            let trace = sample(n);
            let decoded = decode(&encode(&trace)).expect("round trip");
            assert_eq!(decoded, trace, "{n} records");
        }
    }

    #[test]
    fn unknown_version_is_a_typed_error() {
        // The retired versions 1 and 2 and a future 9 all share the prefix
        // but not the version digit.
        for version in [b'1', b'2', b'9'] {
            let mut bytes = encode(&sample(100));
            bytes[7] = version;
            assert!(
                matches!(
                    decode(&bytes),
                    Err(CodecError::UnsupportedVersion { version: v }) if v == version
                ),
                "version byte {version:#04x}"
            );
        }
        // A broken prefix is still BadMagic, not UnsupportedVersion.
        let mut bytes = encode(&sample(100));
        bytes[0] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(CodecError::BadMagic)));
    }

    #[test]
    fn mixed_version_open_is_rejected_with_a_typed_error() {
        // A file of another version at a path the caller expects to hold a
        // current trace: opening it is a typed rejection, never a panic or
        // a silently different stream.
        let dir = std::env::temp_dir().join(format!("rescache-codec-mixed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("entry.rctrace");
        let mut bytes = encode(&sample(300));
        for version in [b'1', b'2'] {
            bytes[7] = version;
            std::fs::write(&path, &bytes).expect("plant entry");
            let err = TraceFileSource::open(&path, None).unwrap_err();
            assert!(
                matches!(err, CodecError::UnsupportedVersion { version: v } if v == version),
                "version byte {version:#04x}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_trips_through_a_file() {
        let dir = std::env::temp_dir().join(format!("rescache-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("compress.rctrace");
        let trace = sample(5_000);
        save_trace(&path, &trace).expect("save");
        let decoded = load(&path).expect("load");
        assert_eq!(decoded, trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        let err = load(Path::new("/nonexistent/rescache.rctrace")).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)));
    }

    #[test]
    fn bad_magic_is_an_error() {
        let mut bytes = encode(&sample(100));
        bytes[0] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(CodecError::BadMagic)));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode(&sample(1000));
        // Cut the file at every structurally interesting prefix length.
        for cut in [0, 4, 8, 10, 20, 30, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_record_tag_is_an_error() {
        // The first record's head follows its layout byte at the start of
        // the first chunk's payload; its low three bits are the operation
        // tag, and 7 names no operation.
        let trace = sample(100);
        let mut bytes = encode(&trace);
        let chunk = v3_chunk_offsets(&bytes, trace.name().len())[0];
        bytes[chunk + 9] |= 0x07;
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));
    }

    #[test]
    fn impossible_chunk_header_is_an_error() {
        let trace = sample(100);
        let mut bytes = encode(&trace);
        let chunk_header = v3_chunk_offsets(&bytes, trace.name().len())[0];
        bytes[chunk_header..chunk_header + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CodecError::BadChunk { .. })));
    }

    #[test]
    fn over_long_name_is_rejected_at_write_time() {
        use crate::record::{InstrRecord, Op};
        let trace = Trace::new(
            "n".repeat(MAX_NAME_BYTES as usize + 1),
            vec![InstrRecord::new(0x400, Op::Int)],
        );
        let mut bytes = Vec::new();
        let err = write_trace(&mut bytes, &trace).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn concurrent_saves_of_one_entry_never_expose_a_torn_file() {
        let dir = std::env::temp_dir().join(format!("rescache-codec-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("entry.rctrace");
        let trace = sample(2_000);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        save_trace(&path, &trace).expect("save");
                        let loaded = load(&path).expect("load during races");
                        assert_eq!(loaded, trace);
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_name_is_an_error() {
        // The name-length field follows the magic and the flags byte.
        let mut bytes = encode(&sample(10));
        bytes[9..13].copy_from_slice(&(MAX_NAME_BYTES + 1).to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CodecError::BadName)));
    }

    #[test]
    fn chunked_reader_delivers_the_exact_sequence() {
        let trace = sample(2 * CHUNK_RECORDS + 321);
        let bytes = encode(&trace);
        let mut reader = ChunkedTraceReader::new(bytes.as_slice()).expect("header");
        assert_eq!(reader.name(), trace.name());
        assert_eq!(reader.total_records(), trace.len() as u64);
        let mut records = Vec::new();
        loop {
            let chunk = reader.next_chunk().expect("chunk");
            if chunk.is_empty() {
                break;
            }
            assert!(chunk.len() <= CHUNK_RECORDS);
            records.extend_from_slice(chunk);
        }
        assert_eq!(records, trace.records());
        // Exhausted readers keep returning empty chunks.
        assert!(reader.next_chunk().expect("past end").is_empty());
    }

    #[test]
    fn prefix_serving_is_chunk_granular() {
        let dir =
            std::env::temp_dir().join(format!("rescache-codec-prefix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("compress.rctrace");
        let trace = sample(2 * CHUNK_RECORDS + 100);
        save_trace(&path, &trace).expect("save");

        let drain_prefix = |n: usize| {
            let mut source = TraceFileSource::open(&path, Some(n)).expect("open prefix");
            let mut records = Vec::with_capacity(n);
            loop {
                let chunk = source.next_chunk();
                if chunk.is_empty() {
                    break;
                }
                records.extend_from_slice(chunk);
            }
            assert!(source.fault().is_none(), "{:?}", source.fault());
            records
        };

        // A mid-chunk prefix delivers exactly the requested records.
        let n = CHUNK_RECORDS + 17;
        assert_eq!(drain_prefix(n), &trace.records()[..n]);

        // Corruption *beyond* the requested prefix is never read: set a
        // reserved head bit in the last chunk's payload and the prefix still
        // serves cleanly.
        let mut bytes = std::fs::read(&path).expect("read");
        let last = *v3_chunk_offsets(&bytes, trace.name().len())
            .last()
            .expect("chunks");
        bytes[last + 10] |= 0x80;
        std::fs::write(&path, &bytes).expect("corrupt tail");
        assert_eq!(drain_prefix(n), &trace.records()[..n]);
        // ... but the full load now fails.
        assert!(matches!(
            load(&path),
            Err(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_source_replays_and_splits_across_chunk_boundaries() {
        let dir = std::env::temp_dir().join(format!("rescache-codec-fsrc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("compress.rctrace");
        let trace = sample(2 * CHUNK_RECORDS + 50);
        save_trace(&path, &trace).expect("save");

        // Whole-file replay.
        let mut src = TraceFileSource::open(&path, None).expect("open");
        assert_eq!(src.name(), trace.name());
        assert_eq!(src.total_records(), trace.len());
        let mut records = Vec::new();
        loop {
            let chunk = src.next_chunk();
            if chunk.is_empty() {
                break;
            }
            records.extend_from_slice(chunk);
        }
        assert_eq!(records, trace.records());
        assert!(src.fault().is_none());

        // Prefix serving plus a split point that lands mid-chunk: the two
        // regions concatenate to the exact prefix.
        let take = CHUNK_RECORDS + 300;
        let split = CHUNK_RECORDS / 2 + 3;
        let mut src = TraceFileSource::open(&path, Some(take)).expect("open prefix");
        assert_eq!(src.total_records(), take);
        src.split_at(split);
        let mut records = Vec::new();
        loop {
            let chunk = src.next_chunk();
            if chunk.is_empty() {
                break;
            }
            records.extend_from_slice(chunk);
        }
        assert_eq!(src.position(), split);
        src.split_at(take);
        loop {
            let chunk = src.next_chunk();
            if chunk.is_empty() {
                break;
            }
            records.extend_from_slice(chunk);
        }
        assert_eq!(records, &trace.records()[..take]);

        // skip() drops records and keeps delivering the right suffix.
        let mut src = TraceFileSource::open(&path, None).expect("open for skip");
        src.skip(split);
        assert_eq!(src.next_chunk()[0], trace.records()[split]);

        // A request longer than the file is rejected at open time.
        assert!(matches!(
            TraceFileSource::open(&path, Some(trace.len() + 1)),
            Err(CodecError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_source_records_a_fault_instead_of_panicking() {
        let dir = std::env::temp_dir().join(format!("rescache-codec-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("compress.rctrace");
        let trace = sample(2 * CHUNK_RECORDS);
        save_trace(&path, &trace).expect("save");

        // Corrupt a record tag in the second chunk: the source delivers the
        // first chunk, then faults and under-delivers.
        let mut bytes = std::fs::read(&path).expect("read");
        let second_chunk = v3_chunk_offsets(&bytes, trace.name().len())[1];
        bytes[second_chunk + 9] |= 0x07;
        std::fs::write(&path, &bytes).expect("corrupt");

        let mut src = TraceFileSource::open(&path, None).expect("header is intact");
        let mut delivered = 0;
        loop {
            let chunk = src.next_chunk();
            if chunk.is_empty() {
                break;
            }
            delivered += chunk.len();
        }
        assert_eq!(delivered, CHUNK_RECORDS, "only the intact chunk arrives");
        assert!(matches!(
            src.fault(),
            Some(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));
        // Once faulted, the source stays exhausted.
        assert!(src.next_chunk().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_source_streams_a_generator_to_the_identical_file_contents() {
        let dir =
            std::env::temp_dir().join(format!("rescache-codec-savesrc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let n = CHUNK_RECORDS + 999;
        let generator = TraceGenerator::new(spec::compress(), 11);

        let streamed_path = dir.join("streamed.rctrace");
        let mut stream = generator.stream(n);
        save_source_with(&streamed_path, &mut stream, &IoPolicy::none()).expect("stream to disk");

        let materialized_path = dir.join("materialized.rctrace");
        save_trace(&materialized_path, &generator.generate(n)).expect("save");

        assert_eq!(
            std::fs::read(&streamed_path).expect("streamed bytes"),
            std::fs::read(&materialized_path).expect("materialized bytes"),
            "byte-identical persistence either way"
        );

        // An under-delivering source (fenced short) must not produce a file.
        let missing = dir.join("underdelivered.rctrace");
        let mut fenced = generator.stream(n);
        fenced.split_at(100);
        let err = save_source_with(&missing, &mut fenced, &IoPolicy::none()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!missing.exists(), "partial file never renamed into place");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_faults_surface_through_the_policed_codec_paths() {
        use crate::faults::{FaultInjector, FaultKind, IoOp, ScriptedFault};
        use std::sync::Arc;

        let dir =
            std::env::temp_dir().join(format!("rescache-codec-inject-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("entry.rctrace");
        let trace = sample(2 * CHUNK_RECORDS);

        // A write fault aborts the save and leaves no file (and no debris at
        // the final path).
        let injector = Arc::new(FaultInjector::scripted([ScriptedFault {
            op: IoOp::Write,
            kind: FaultKind::Transient,
        }]));
        let policy = IoPolicy::with_injector(Arc::clone(&injector));
        let err = save_source_with(&path, &mut trace.cursor(), &policy).unwrap_err();
        assert!(crate::faults::is_transient(&err));
        assert!(!path.exists(), "failed save leaves nothing at the path");

        // A rename fault likewise: the payload was fully written to the
        // temporary file, but it is never committed.
        injector.push(ScriptedFault {
            op: IoOp::Rename,
            kind: FaultKind::DiskFull,
        });
        let err = save_source_with(&path, &mut trace.cursor(), &policy).unwrap_err();
        assert!(crate::faults::is_disk_full(&err));
        assert!(!path.exists());

        // With the script drained the same policy saves cleanly, and a read
        // fault mid-replay surfaces as a recorded source fault — the same
        // degradation path a truncated entry takes.
        save_source_with(&path, &mut trace.cursor(), &policy).expect("clean save");
        // Open first (the header read passes), then inject: the fault lands
        // mid-replay rather than at open time.
        let mut src = TraceFileSource::open_with(&path, None, &policy).expect("open");
        injector.push(ScriptedFault {
            op: IoOp::Read,
            kind: FaultKind::Transient,
        });
        let mut delivered = 0;
        loop {
            let chunk = src.next_chunk();
            if chunk.is_empty() {
                break;
            }
            delivered += chunk.len();
        }
        assert!(
            delivered < trace.len(),
            "the injected read cut replay short"
        );
        assert!(
            matches!(src.fault(), Some(CodecError::Io(e)) if crate::faults::is_transient(e)),
            "{:?}",
            src.fault()
        );

        // An injected open fault is a typed CodecError::Io.
        injector.push(ScriptedFault {
            op: IoOp::Open,
            kind: FaultKind::Transient,
        });
        assert!(matches!(
            TraceFileSource::open_with(&path, None, &policy),
            Err(CodecError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_default_is_compressed_and_at_least_halves_the_file() {
        let trace = sample(20_000);
        let bytes = encode(&trace);
        assert_eq!(&bytes[..8], b"RCTRACE3");
        assert_eq!(bytes[8], 1, "flags byte announces compression");
        // At most half the 12-byte in-memory record per record.
        assert!(
            bytes.len() * 2 <= trace.len() * std::mem::size_of::<InstrRecord>(),
            "{} bytes for {} records is under 2x compression",
            bytes.len(),
            trace.len()
        );
        assert_eq!(decode(&bytes).expect("decode"), trace);
    }

    #[test]
    fn unknown_flags_byte_is_a_typed_error() {
        // 0 is the retired fixed-width encoding; 0x82 sets unknown bits.
        for flags in [0u8, 0x82] {
            let mut bytes = encode(&sample(100));
            bytes[8] = flags;
            assert!(
                matches!(
                    decode(&bytes),
                    Err(CodecError::UnsupportedFlags { flags: f }) if f == flags
                ),
                "flags {flags:#04x}"
            );
        }
    }

    #[test]
    fn compressed_chunk_corruption_is_typed_never_a_panic() {
        let trace = sample(2 * CHUNK_RECORDS);
        let bytes = encode(&trace);
        let chunk = v3_chunk_offsets(&bytes, trace.name().len())[0];
        let byte_len = u32::from_le_bytes(bytes[chunk + 4..chunk + 8].try_into().expect("4 bytes"));

        // An impossible chunk-directory byte length (pointing the payload
        // frame at the wrong place) is rejected before anything is decoded.
        let mut b = bytes.clone();
        b[chunk + 4..chunk + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&b),
            Err(CodecError::BadChunkBytes {
                byte_len: u32::MAX,
                ..
            })
        ));

        // A lying-but-in-bounds byte length cuts the last record's delta
        // field: truncation inside the payload, reported typed.
        let mut b = bytes.clone();
        b[chunk + 4..chunk + 8].copy_from_slice(&(byte_len - 1).to_le_bytes());
        assert!(matches!(
            decode(&b),
            Err(CodecError::BadPayload(CorruptChunk::Truncated))
        ));

        // One byte too long: the payload keeps going after the last record.
        let mut b = bytes.clone();
        b[chunk + 4..chunk + 8].copy_from_slice(&(byte_len + 1).to_le_bytes());
        assert!(matches!(
            decode(&b),
            Err(CodecError::BadPayload(CorruptChunk::TrailingBytes {
                extra: 1
            }))
        ));

        // A reserved bit in the first record's head (payload byte 2: the
        // layout byte leads, then the little-endian head).
        let mut b = bytes.clone();
        b[chunk + 10] |= 0x80;
        assert!(matches!(
            decode(&b),
            Err(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));
    }

    #[test]
    fn parallel_decode_matches_serial_and_reports_corruption_typed() {
        // A many-chunk file with a trailing partial chunk decodes to the
        // exact trace.
        let dir = std::env::temp_dir().join(format!("rescache-codec-multi-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("compress.rctrace");
        let trace = sample(6 * CHUNK_RECORDS + 123);
        let bytes = encode(&trace);
        assert_eq!(decode(&bytes).expect("decode"), trace);

        // Corrupt two chunks, each with its own typed error: the reader
        // must blame the earlier one, after delivering every chunk before it.
        let offsets = v3_chunk_offsets(&bytes, trace.name().len());
        let mut b = bytes.clone();
        b[offsets[2] + 10] |= 0x80;
        b[offsets[4] + 4..offsets[4] + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&b),
            Err(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));
        std::fs::write(&path, &b).expect("plant corrupt file");
        let mut source = TraceFileSource::open(&path, None).expect("header intact");
        let mut delivered = 0;
        loop {
            let chunk = source.next_chunk();
            if chunk.is_empty() {
                break;
            }
            delivered += chunk.len();
        }
        assert_eq!(
            delivered,
            2 * CHUNK_RECORDS,
            "chunks before the first corrupt one"
        );
        assert!(matches!(
            source.fault(),
            Some(CodecError::BadPayload(CorruptChunk::BadHead { .. }))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_trace_and_a_cursor_save_write_identical_files() {
        let dir =
            std::env::temp_dir().join(format!("rescache-codec-cursor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let trace = sample(2 * CHUNK_RECORDS + 77);
        let saved = dir.join("saved.rctrace");
        save_trace(&saved, &trace).expect("save_trace");
        let streamed = dir.join("cursor.rctrace");
        save_source_with(&streamed, &mut trace.cursor(), &IoPolicy::none()).expect("cursor save");
        let saved = std::fs::read(&saved).expect("saved bytes");
        assert_eq!(saved, std::fs::read(&streamed).expect("cursor bytes"));
        assert_eq!(saved, encode(&trace), "files match the in-memory writer");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_delta_base_is_a_typed_error() {
        // Hand-assemble a v3 file whose single record steps the PC stream
        // below zero — the "bad delta base" shape a resequenced or
        // bit-flipped chunk produces.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"RCTRACE3");
        bytes.push(1); // flags: compressed
        bytes.extend_from_slice(&1u32.to_le_bytes()); // name_len
        bytes.push(b'x');
        bytes.extend_from_slice(&1u64.to_le_bytes()); // records
        bytes.extend_from_slice(&1u32.to_le_bytes()); // chunk len
        let payload: &[u8] = &[0x01, 0, 0, 0x01]; // layout: 1 PC byte; head = Int; pc delta = -1
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::BadPayload(CorruptChunk::DeltaOutOfRange))
        ));
    }

    #[test]
    fn v3_prefix_serving_never_reads_corruption_beyond_the_prefix() {
        let dir =
            std::env::temp_dir().join(format!("rescache-codec-v3prefix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("compress.v3.rctrace");
        let trace = sample(2 * CHUNK_RECORDS + 100);
        save_trace(&path, &trace).expect("save");

        // Scribble over the *last* chunk's directory entry.
        let mut bytes = std::fs::read(&path).expect("read");
        let last = *v3_chunk_offsets(&bytes, trace.name().len())
            .last()
            .expect("chunks");
        bytes[last + 4..last + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).expect("corrupt tail");

        // A prefix covered by the intact chunks serves cleanly...
        let n = CHUNK_RECORDS + 17;
        let mut source = TraceFileSource::open(&path, Some(n)).expect("open prefix");
        let mut records = Vec::with_capacity(n);
        loop {
            let chunk = source.next_chunk();
            if chunk.is_empty() {
                break;
            }
            records.extend_from_slice(chunk);
        }
        assert!(source.fault().is_none(), "{:?}", source.fault());
        assert_eq!(records, &trace.records()[..n]);
        // ...while the full read reports the corruption typed.
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::BadChunkBytes { .. })
        ));

        // A full-file source faults mid-stream instead of panicking, after
        // delivering every intact chunk.
        let mut source = TraceFileSource::open(&path, None).expect("open full");
        let mut delivered = 0;
        loop {
            let chunk = source.next_chunk();
            if chunk.is_empty() {
                break;
            }
            delivered += chunk.len();
        }
        assert_eq!(delivered, 2 * CHUNK_RECORDS, "intact chunks arrive");
        assert!(matches!(
            source.fault(),
            Some(CodecError::BadChunkBytes { .. })
        ));
        assert!(source.next_chunk().is_empty(), "faulted source stays dry");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_format_and_chain() {
        let err = CodecError::from(io::Error::other("boom"));
        assert!(err.to_string().contains("boom"));
        assert!(std::error::Error::source(&err).is_some());
        let err = CodecError::Truncated {
            expected: 10,
            got: 3,
        };
        assert!(err.to_string().contains("truncated"));
    }
}

//! The compact binary trace format, `VLPC` version 3 — the one native
//! trace format: `vlpp ingest` converts foreign traces into it, and
//! `vlpp run` / `vlpp profile` replay it. Branch records are highly
//! local — consecutive pcs and targets differ by small deltas — so
//! delta + LEB128 varint encoding stores a typical record in a few
//! bytes.
//!
//! Records are grouped into independently decodable chunks of at most
//! `chunk_cap` records, each prefixed by its record count and payload
//! length, so a reader can stream (or skip) a multi-GB trace while
//! holding at most one chunk. [`ChunkedWriter`] documents the layout
//! (`TRACES.md` at the repository root has the full wire grammar);
//! [`ChunkedReader`] streams it through the [`TraceSource`] interface,
//! and [`TraceSource::read_to_trace`] drains it when an in-memory
//! [`Trace`](crate::Trace) is actually wanted.
//!
//! ## Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use vlpp_trace::compact::{ChunkedReader, ChunkedWriter, DEFAULT_CHUNK_RECORDS};
//! use vlpp_trace::{Addr, BranchRecord, Trace, TraceSource};
//!
//! let mut trace = Trace::new();
//! trace.push(BranchRecord::conditional(Addr::new(0x1000), Addr::new(0x1040), true));
//! let mut buf = Vec::new();
//! let mut writer = ChunkedWriter::new(&mut buf, DEFAULT_CHUNK_RECORDS)?;
//! for record in trace.iter() {
//!     writer.push(record)?;
//! }
//! writer.finish()?;
//! assert_eq!(ChunkedReader::new(&buf[..])?.read_to_trace()?, trace);
//! # Ok(())
//! # }
//! ```

use std::io::{Read, Write};

use crate::json::{JsonValue, ToJson};
use crate::source::TraceSource;
use crate::{Addr, BranchKind, BranchRecord, TraceIoError};

/// Magic bytes identifying a compact vlpp trace.
pub const MAGIC: [u8; 4] = *b"VLPC";

/// Compact format version of the chunked streaming layout, the only
/// version this library reads or writes.
pub const CHUNKED_VERSION: u16 = 3;

/// Hard cap on a chunk's record capacity. Bounds the memory a reader
/// must hold for one chunk no matter what the header claims.
pub const MAX_CHUNK_RECORDS: u32 = 1 << 20;

/// Records per chunk used by `vlpp ingest` when no cap is given.
pub const DEFAULT_CHUNK_RECORDS: u32 = 1 << 16;

/// Worst-case encoded size of one record: a tag byte plus two 10-byte
/// LEB128 varints. Used to bound declared chunk payload lengths.
const MAX_RECORD_BYTES: u64 = 21;

/// Appends one delta-coded record to `buf` and advances `previous_pc`.
fn encode_record(buf: &mut Vec<u8>, record: &BranchRecord, previous_pc: &mut u64) {
    let tag = record.kind().code() | (record.taken() as u8) << 3;
    buf.push(tag);
    write_signed(buf, record.pc().raw().wrapping_sub(*previous_pc) as i64);
    write_signed(buf, record.target().raw().wrapping_sub(record.pc().raw()) as i64);
    *previous_pc = record.pc().raw();
}

/// Decodes one delta-coded record; `index` labels errors.
fn decode_record<R: Read>(
    reader: &mut Counting<R>,
    index: u64,
    previous_pc: &mut u64,
) -> Result<BranchRecord, TraceIoError> {
    let tag = reader.read_byte(index)?;
    let kind =
        BranchKind::from_code(tag & 0x7).ok_or(TraceIoError::BadKind { code: tag & 0x7, index })?;
    let taken = tag & 0x8 != 0;
    let pc = previous_pc.wrapping_add(read_signed(reader, index)? as u64);
    let target = pc.wrapping_add(read_signed(reader, index)? as u64);
    *previous_pc = pc;
    Ok(BranchRecord::new(Addr::new(pc), Addr::new(target), kind, taken))
}

/// Summary of a chunked-compact conversion, returned by
/// [`ChunkedWriter::finish`] and [`copy_to_chunked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkedSummary {
    /// Records written.
    pub records: u64,
    /// Chunks written (not counting the trailer).
    pub chunks: u64,
    /// Total output bytes, header and trailer included.
    pub bytes: u64,
}

impl ToJson for ChunkedSummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("records".to_string(), JsonValue::UInt(self.records)),
            ("chunks".to_string(), JsonValue::UInt(self.chunks)),
            ("bytes".to_string(), JsonValue::UInt(self.bytes)),
        ])
    }
}

/// Incremental writer for the chunked (version 3) compact layout:
///
/// ```text
/// magic     : 4 bytes = b"VLPC"
/// version   : u16 le = 3
/// reserved  : u16 le = 0
/// chunk_cap : u32 le (1..=MAX_CHUNK_RECORDS)
/// reserved  : u32 le = 0
/// chunks    : per chunk:
///     records     : u32 le (1..=chunk_cap)
///     payload_len : u32 le
///     payload     : delta-coded records; the pc delta chain restarts
///                   at 0 each chunk, so chunks decode independently
/// trailer   : records = 0 u32, payload_len = 8 u32, total records u64
/// ```
///
/// A record is a tag byte (kind code in the low 3 bits, taken << 3),
/// then its pc as a zigzag LEB128 delta from the previous record's pc,
/// then its target as a delta from its own pc.
///
/// The per-chunk delta reset plus the explicit `payload_len` make every
/// chunk skippable without decoding — the seekable handle the converter
/// promises. A missing trailer distinguishes a cleanly finished file
/// from one cut off at a chunk boundary.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    writer: W,
    chunk_cap: u32,
    payload: Vec<u8>,
    pending: u32,
    previous_pc: u64,
    records: u64,
    chunks: u64,
    bytes: u64,
}

impl<W: Write> ChunkedWriter<W> {
    /// Starts a chunked stream, writing the header immediately.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_cap` is outside `1..=`[`MAX_CHUNK_RECORDS`] (a
    /// caller bug, not a data fault — the CLI validates user input
    /// before getting here).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the underlying writer fails.
    pub fn new(mut writer: W, chunk_cap: u32) -> Result<Self, TraceIoError> {
        assert!(
            (1..=MAX_CHUNK_RECORDS).contains(&chunk_cap),
            "chunk_cap must be 1..={MAX_CHUNK_RECORDS}"
        );
        writer.write_all(&MAGIC)?;
        writer.write_all(&CHUNKED_VERSION.to_le_bytes())?;
        writer.write_all(&0u16.to_le_bytes())?;
        writer.write_all(&chunk_cap.to_le_bytes())?;
        writer.write_all(&0u32.to_le_bytes())?;
        Ok(ChunkedWriter {
            writer,
            chunk_cap,
            payload: Vec::new(),
            pending: 0,
            previous_pc: 0,
            records: 0,
            chunks: 0,
            bytes: 16,
        })
    }

    /// Appends one record, flushing a chunk whenever `chunk_cap` records
    /// have accumulated.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the underlying writer fails.
    pub fn push(&mut self, record: &BranchRecord) -> Result<(), TraceIoError> {
        encode_record(&mut self.payload, record, &mut self.previous_pc);
        self.pending += 1;
        self.records += 1;
        if self.pending == self.chunk_cap {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceIoError> {
        self.writer.write_all(&self.pending.to_le_bytes())?;
        self.writer.write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(&self.payload)?;
        self.bytes += 8 + self.payload.len() as u64;
        self.chunks += 1;
        self.pending = 0;
        self.payload.clear();
        self.previous_pc = 0;
        Ok(())
    }

    /// Flushes the final partial chunk, writes the trailer, and returns
    /// the conversion summary. Dropping a writer without calling this
    /// leaves a trailer-less stream that readers report as truncated.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the underlying writer fails.
    pub fn finish(mut self) -> Result<ChunkedSummary, TraceIoError> {
        if self.pending > 0 {
            self.flush_chunk()?;
        }
        self.writer.write_all(&0u32.to_le_bytes())?;
        self.writer.write_all(&8u32.to_le_bytes())?;
        self.writer.write_all(&self.records.to_le_bytes())?;
        self.bytes += 16;
        self.writer.flush()?;
        Ok(ChunkedSummary { records: self.records, chunks: self.chunks, bytes: self.bytes })
    }
}

/// Drains `source` into a chunked compact stream — the core of
/// `vlpp ingest`. Memory held is one chunk's worth of encoded bytes
/// plus whatever `source` itself buffers.
///
/// # Errors
///
/// The first error from `source` or from the output writer.
pub fn copy_to_chunked<S: TraceSource + ?Sized, W: Write>(
    source: &mut S,
    writer: W,
    chunk_cap: u32,
) -> Result<ChunkedSummary, TraceIoError> {
    let mut out = ChunkedWriter::new(writer, chunk_cap)?;
    while let Some(record) = source.next_record()? {
        out.push(&record)?;
    }
    out.finish()
}

/// Streaming reader for chunked compact traces, implementing
/// [`TraceSource`].
///
/// The reader holds at most one decoded chunk (≤ the header's
/// `chunk_cap` records, itself capped at [`MAX_CHUNK_RECORDS`]);
/// [`peak_buffered_records`] exposes the high-water mark so tests can
/// assert the bounded-memory guarantee.
///
/// [`peak_buffered_records`]: Self::peak_buffered_records
#[derive(Debug)]
pub struct ChunkedReader<R: Read> {
    reader: Counting<R>,
    chunk_cap: u32,
    buffer: Vec<BranchRecord>,
    cursor: usize,
    records: u64,
    chunks: u64,
    peak_buffered: usize,
    done: bool,
}

impl<R: Read> ChunkedReader<R> {
    /// Opens a compact stream, validating magic and version.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::BadMagic`] / [`TraceIoError::UnsupportedVersion`]
    /// for foreign, retired or future files, [`TraceIoError::Truncated`]
    /// for a short header, [`TraceIoError::Malformed`] for an impossible
    /// chunk capacity.
    pub fn new(reader: R) -> Result<Self, TraceIoError> {
        let mut reader = Counting { inner: reader, position: 0 };
        let mut header = [0u8; 16];
        reader.read_exact_or(&mut header, 0)?;
        if header[0..4] != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&header[0..4]);
            return Err(TraceIoError::BadMagic { found });
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != CHUNKED_VERSION {
            return Err(TraceIoError::UnsupportedVersion { found: version });
        }
        let chunk_cap = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
        if !(1..=MAX_CHUNK_RECORDS).contains(&chunk_cap) {
            return Err(TraceIoError::Malformed {
                what: format!("chunk capacity {chunk_cap}"),
                byte_offset: 8,
            });
        }
        Ok(ChunkedReader {
            reader,
            chunk_cap,
            buffer: Vec::new(),
            cursor: 0,
            records: 0,
            chunks: 0,
            peak_buffered: 0,
            done: false,
        })
    }

    /// Records yielded so far.
    pub fn records_read(&self) -> u64 {
        self.records - (self.buffer.len() - self.cursor) as u64
    }

    /// Input bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.reader.position
    }

    /// Chunks decoded so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks
    }

    /// High-water mark of records buffered at once — the bounded-memory
    /// guarantee, never above the stream's chunk capacity.
    pub fn peak_buffered_records(&self) -> usize {
        self.peak_buffered
    }

    /// The stream's declared chunk capacity.
    pub fn chunk_cap(&self) -> u32 {
        self.chunk_cap
    }

    /// Loads the next chunk into the buffer, or handles the trailer and
    /// marks the stream done.
    fn load_chunk(&mut self) -> Result<(), TraceIoError> {
        let chunk_cap = self.chunk_cap;
        let header_at = self.reader.position;
        let mut header = [0u8; 8];
        self.reader.read_exact_or(&mut header, self.records)?;
        let records = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice"));
        let payload_len =
            u64::from(u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice")));
        if records == 0 {
            // The trailer: an empty chunk whose payload is the total
            // record count, cross-checked against what we decoded.
            if payload_len != 8 {
                return Err(TraceIoError::Malformed {
                    what: format!("trailer payload length {payload_len}"),
                    byte_offset: header_at + 4,
                });
            }
            let mut total = [0u8; 8];
            self.reader.read_exact_or(&mut total, self.records)?;
            let total = u64::from_le_bytes(total);
            if total != self.records {
                return Err(TraceIoError::Malformed {
                    what: format!(
                        "trailer declares {total} records but the chunks held {}",
                        self.records
                    ),
                    byte_offset: header_at + 8,
                });
            }
            let mut probe = [0u8; 1];
            return match self.reader.inner.read(&mut probe) {
                Ok(0) => {
                    self.done = true;
                    Ok(())
                }
                Ok(_) => Err(TraceIoError::Malformed {
                    what: "trailing bytes after the trailer".to_string(),
                    byte_offset: self.reader.position,
                }),
                Err(e) => Err(TraceIoError::Io(e)),
            };
        }
        if records > chunk_cap {
            return Err(TraceIoError::Malformed {
                what: format!("chunk declares {records} records above the {chunk_cap} cap"),
                byte_offset: header_at,
            });
        }
        if payload_len == 0 || payload_len > u64::from(records) * MAX_RECORD_BYTES {
            return Err(TraceIoError::Malformed {
                what: format!("chunk payload length {payload_len} for {records} records"),
                byte_offset: header_at + 4,
            });
        }
        let payload_at = self.reader.position;
        // Bounded by records * MAX_RECORD_BYTES ≤ MAX_CHUNK_RECORDS * 21.
        let mut payload = vec![0u8; payload_len as usize];
        self.reader.read_exact_or(&mut payload, self.records)?;

        self.buffer.clear();
        self.cursor = 0;
        let mut decoder = Counting { inner: &payload[..], position: 0 };
        let mut previous_pc = 0u64;
        for _ in 0..records {
            let index = self.records + self.buffer.len() as u64;
            let record =
                decode_record(&mut decoder, index, &mut previous_pc).map_err(|e| match e {
                    // The outer stream was intact; the *chunk* lied
                    // about containing `records` whole records.
                    TraceIoError::Truncated { byte_offset, .. } => TraceIoError::Malformed {
                        what: "chunk payload ends mid-record".to_string(),
                        byte_offset: payload_at + byte_offset,
                    },
                    // Varint offsets are relative to the payload.
                    TraceIoError::Malformed { what, byte_offset } => {
                        TraceIoError::Malformed { what, byte_offset: payload_at + byte_offset }
                    }
                    other => other,
                })?;
            self.buffer.push(record);
        }
        if decoder.position != payload_len {
            return Err(TraceIoError::Malformed {
                what: format!(
                    "chunk payload has {} bytes left over after {records} records",
                    payload_len - decoder.position
                ),
                byte_offset: payload_at + decoder.position,
            });
        }
        self.records += u64::from(records);
        self.chunks += 1;
        self.peak_buffered = self.peak_buffered.max(self.buffer.len());
        Ok(())
    }
}

impl<R: Read> TraceSource for ChunkedReader<R> {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceIoError> {
        if self.cursor < self.buffer.len() {
            let record = self.buffer[self.cursor];
            self.cursor += 1;
            return Ok(Some(record));
        }
        if self.done {
            return Ok(None);
        }
        self.load_chunk()?;
        if self.done {
            return Ok(None);
        }
        let record = self.buffer[self.cursor];
        self.cursor += 1;
        Ok(Some(record))
    }
}

/// Zigzag + LEB128 encoding of a signed value.
fn write_signed(buf: &mut Vec<u8>, value: i64) {
    let mut zigzag = ((value << 1) ^ (value >> 63)) as u64;
    loop {
        let byte = (zigzag & 0x7f) as u8;
        zigzag >>= 7;
        if zigzag == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes a zigzag + LEB128 signed value of at most 10 bytes.
///
/// The tenth byte can carry only bit 63, so one above 1 is either a
/// continuation past 10 bytes or bits beyond 64; both are
/// [`TraceIoError::Malformed`] at the varint's first byte.
fn read_signed<R: Read>(reader: &mut Counting<R>, index: u64) -> Result<i64, TraceIoError> {
    let start = reader.position;
    let mut zigzag: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = reader.read_byte(index)?;
        if shift == 63 && byte > 1 {
            return Err(bad_varint(byte, start));
        }
        zigzag |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    Ok(((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64))
}

/// The error for a varint whose tenth byte is `byte`; kept out of line
/// so the decode loop stays small.
#[cold]
fn bad_varint(byte: u8, byte_offset: u64) -> TraceIoError {
    let what = if byte & 0x80 != 0 {
        "over-long varint (more than 10 bytes)"
    } else {
        "varint overflows 64 bits"
    };
    TraceIoError::Malformed { what: what.to_string(), byte_offset }
}

/// FNV-1a over `bytes`: a cheap, stable 64-bit hash (cluster routing,
/// output digests, and the snapshot envelope's section checksums).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash from a prior state, so a hash can chain
/// over several byte strings without concatenating them.
pub fn fnv1a64_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A reader that tracks how many bytes it has consumed, so truncation
/// errors in the variable-width format can name the exact offset.
#[derive(Debug)]
struct Counting<R> {
    inner: R,
    position: u64,
}

impl<R: Read> Counting<R> {
    fn read_byte(&mut self, records_read: u64) -> Result<u8, TraceIoError> {
        let mut byte = [0u8; 1];
        self.read_exact_or(&mut byte, records_read)?;
        Ok(byte[0])
    }

    fn read_exact_or(&mut self, buf: &mut [u8], records_read: u64) -> Result<(), TraceIoError> {
        let at = self.position;
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceIoError::Truncated { records_read, byte_offset: at }
            } else {
                TraceIoError::Io(e)
            }
        })?;
        self.position += buf.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    fn sample() -> Trace {
        let mut t = Trace::new();
        let mut pc = 0x12_0000u64;
        for i in 0..50u64 {
            let target = pc.wrapping_add(64 + (i % 7) * 4);
            t.push(BranchRecord::conditional(Addr::new(pc), Addr::new(target), i % 3 != 0));
            t.push(BranchRecord::indirect(Addr::new(target), Addr::new(pc ^ 0x4000)));
            pc = target;
        }
        t.push(BranchRecord::ret(Addr::new(u64::MAX - 4), Addr::new(0)));
        t
    }

    fn chunked_bytes(trace: &Trace, cap: u32) -> (Vec<u8>, ChunkedSummary) {
        let mut buf = Vec::new();
        let summary =
            copy_to_chunked(&mut crate::source::MemorySource::new(trace.clone()), &mut buf, cap)
                .unwrap();
        (buf, summary)
    }

    fn read(bytes: &[u8]) -> Result<Trace, TraceIoError> {
        ChunkedReader::new(bytes)?.read_to_trace()
    }

    #[test]
    fn rejects_v1_magic() {
        // A retired fixed-width `VLPT` header is a foreign file now.
        let mut v1 = b"VLPT".to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&[0; 10]);
        assert!(matches!(
            read(&v1).unwrap_err(),
            TraceIoError::BadMagic { found } if &found == b"VLPT"
        ));
    }

    #[test]
    fn rejects_bad_version() {
        // 2 is the retired flat layout, 9 a future one.
        for version in [2u16, 9] {
            let (mut buf, _) = chunked_bytes(&sample(), 16);
            buf[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                read(&buf).unwrap_err(),
                TraceIoError::UnsupportedVersion { found } if found == version
            ));
        }
    }

    #[test]
    fn detects_truncation() {
        let (mut buf, _) = chunked_bytes(&sample(), 16);
        buf.truncate(buf.len() - 1);
        assert!(matches!(read(&buf).unwrap_err(), TraceIoError::Truncated { .. }));
    }

    #[test]
    fn detects_bad_kind() {
        let mut t = Trace::new();
        t.push(BranchRecord::call(Addr::new(4), Addr::new(8)));
        let (mut buf, _) = chunked_bytes(&t, 16);
        buf[24] = 0x7; // the first payload byte; kind code 7 is invalid
        assert!(matches!(read(&buf).unwrap_err(), TraceIoError::BadKind { code: 7, index: 0 }));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a64_continue(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn chunked_round_trips_across_chunk_sizes() {
        let t = sample();
        for cap in [1u32, 2, 7, 64, 1 << 16] {
            let (buf, summary) = chunked_bytes(&t, cap);
            assert_eq!(summary.records, t.len() as u64);
            assert_eq!(summary.bytes, buf.len() as u64);
            assert_eq!(summary.chunks, (t.len() as u64).div_ceil(cap as u64));
            let mut reader = ChunkedReader::new(&buf[..]).unwrap();
            assert_eq!(reader.chunk_cap(), cap);
            assert_eq!(reader.read_to_trace().unwrap(), t);
            assert_eq!(reader.records_read(), t.len() as u64);
            assert_eq!(reader.bytes_read(), buf.len() as u64);
            assert_eq!(reader.chunks_read(), summary.chunks);
        }
    }

    #[test]
    fn chunked_reader_buffers_at_most_one_chunk() {
        // A trace far larger than the chunk cap must never buffer more
        // than `cap` records at once — the bounded-memory guarantee.
        let mut t = Trace::new();
        for i in 0..10_000u64 {
            t.push(BranchRecord::conditional(Addr::new(i * 4), Addr::new(i * 4 + 64), i % 2 == 0));
        }
        let cap = 128u32;
        let (buf, summary) = chunked_bytes(&t, cap);
        assert!(summary.chunks > 50);
        let mut reader = ChunkedReader::new(&buf[..]).unwrap();
        assert_eq!(reader.read_to_trace().unwrap(), t);
        assert!(reader.peak_buffered_records() <= cap as usize);
        assert_eq!(reader.peak_buffered_records(), cap as usize);
    }

    #[test]
    fn chunked_round_trips_empty() {
        let (buf, summary) = chunked_bytes(&Trace::new(), 8);
        assert_eq!(summary, ChunkedSummary { records: 0, chunks: 0, bytes: buf.len() as u64 });
        assert_eq!(read(&buf).unwrap(), Trace::new());
    }

    #[test]
    fn chunked_missing_trailer_is_truncation() {
        // Cut the stream at the exact end of the last chunk: without the
        // trailer this is indistinguishable from a half-copied file.
        let (buf, _) = chunked_bytes(&sample(), 16);
        let cut = buf.len() - 16;
        match ChunkedReader::new(&buf[..cut]).unwrap().read_to_trace().unwrap_err() {
            TraceIoError::Truncated { byte_offset, .. } => assert_eq!(byte_offset, cut as u64),
            other => panic!("expected truncation, got {other}"),
        }
    }

    #[test]
    fn chunked_rejects_trailing_bytes_and_bad_total() {
        let (mut buf, _) = chunked_bytes(&sample(), 16);
        buf.push(0);
        assert!(matches!(
            read(&buf).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("trailing")
        ));
        let (mut buf, _) = chunked_bytes(&sample(), 16);
        let total_at = buf.len() - 8;
        buf[total_at] ^= 1;
        assert!(matches!(
            read(&buf).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("trailer declares")
        ));
    }

    #[test]
    fn chunked_rejects_forged_headers_without_big_allocations() {
        // chunk_cap above the hard cap
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&CHUNKED_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            ChunkedReader::new(&buf[..]).unwrap_err(),
            TraceIoError::Malformed { what, byte_offset: 8 } if what.contains("chunk capacity")
        ));

        // chunk record count above the declared cap
        let (mut buf, _) = chunked_bytes(&sample(), 16);
        buf[16..20].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            read(&buf).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("above the 16 cap")
        ));

        // payload length impossibly large for the record count
        let (mut buf, _) = chunked_bytes(&sample(), 16);
        buf[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read(&buf).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("payload length")
        ));
    }

    #[test]
    fn chunked_rejects_payload_record_count_mismatch() {
        // Declare one record fewer than the payload encodes: leftover
        // bytes must be rejected (the payload and count disagree).
        // A single-chunk trace small enough that the forged counts
        // below stay under the 16-record cap and exercise the payload
        // cross-checks themselves.
        let mut t = Trace::new();
        for i in 0..6u64 {
            t.push(BranchRecord::conditional(Addr::new(i * 8), Addr::new(i * 8 + 32), true));
        }
        let (buf, _) = chunked_bytes(&t, 16);
        let mut fewer = buf.clone();
        let declared = t.len() as u32 - 1;
        fewer[16..20].copy_from_slice(&declared.to_le_bytes());
        assert!(matches!(
            read(&fewer).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("left over")
        ));
        // And one more than it encodes: the decoder runs off the end of
        // the chunk, which is corruption, not stream truncation.
        let mut more = buf;
        let declared = t.len() as u32 + 1;
        more[16..20].copy_from_slice(&declared.to_le_bytes());
        assert!(matches!(
            read(&more).unwrap_err(),
            TraceIoError::Malformed { what, .. } if what.contains("mid-record")
        ));
    }

    #[test]
    fn signed_varint_round_trips_extremes() {
        for value in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x7fff_ffff, -0x8000_0000] {
            let mut buf = Vec::new();
            write_signed(&mut buf, value);
            let mut reader = Counting { inner: &buf[..], position: 0 };
            let got = read_signed(&mut reader, 0).unwrap();
            assert_eq!(got, value, "value {value}");
            assert_eq!(reader.position, buf.len() as u64);
        }
    }

    /// A trace file holding one chunk of one record whose payload is
    /// `payload`, with a valid trailer.
    fn one_record_file(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&CHUNKED_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&16u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf
    }

    #[test]
    fn over_long_varint_is_malformed_at_its_offset() {
        // A conditional tag, a pc varint of 11 continuation bytes, then
        // two more bytes of payload: corruption, not a short chunk.
        let mut payload = vec![0u8];
        payload.extend_from_slice(&[0x80; 11]);
        payload.extend_from_slice(&[0x00, 0x00]);
        let buf = one_record_file(&payload);
        match read(&buf).unwrap_err() {
            TraceIoError::Malformed { what, byte_offset } => {
                assert!(what.contains("over-long varint"), "{what}");
                assert_eq!(byte_offset, 25, "the pc varint starts after the tag byte");
            }
            other => panic!("expected a malformed varint, got {other}"),
        }
    }

    #[test]
    fn overflowing_varint_is_malformed_at_its_offset() {
        // Ten bytes whose last one carries bits above bit 63.
        let mut payload = vec![0u8];
        payload.extend_from_slice(&[0x80; 9]);
        payload.extend_from_slice(&[0x7e, 0x00]);
        let buf = one_record_file(&payload);
        match read(&buf).unwrap_err() {
            TraceIoError::Malformed { what, byte_offset } => {
                assert!(what.contains("overflows 64 bits"), "{what}");
                assert_eq!(byte_offset, 25, "the pc varint starts after the tag byte");
            }
            other => panic!("expected a malformed varint, got {other}"),
        }
    }
}

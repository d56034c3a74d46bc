//! Streaming `POPTTRC2` writer.
//!
//! Buffers at most one chunk of events in memory; each full chunk is
//! encoded, checksummed, and written immediately, so recording a trace of
//! any length runs in bounded memory. `finish` appends the footer (chunk
//! index + totals) and a fixed trailer that lets readers seek straight to
//! the footer.

use crate::chunk::{encode_chunk, LineSpan, RegionTable};
use crate::file::{TraceFileError, MAGIC_V2};
use crate::fnv64;
use crate::varint;
use popt_trace::{AddressSpace, TraceEvent, TraceSink};
use std::io::{BufWriter, Write};

/// Chunk block tag.
pub(crate) const BLOCK_CHUNK: u8 = 0x01;
/// Footer block tag.
pub(crate) const BLOCK_FOOTER: u8 = 0x02;
/// Trailing magic closing every well-formed v2 file.
pub(crate) const END_MAGIC: &[u8; 8] = b"POPTTRCE";
/// Trailer size: u64 footer offset + end magic.
pub(crate) const TRAILER_LEN: u64 = 16;

/// Default events per chunk. 64 Ki events keeps chunk payloads around a
/// hundred KiB (most events encode in 1–3 bytes) — large enough to
/// amortize framing, small enough to bound writer and reader memory.
pub const DEFAULT_CHUNK_EVENTS: usize = 65_536;

/// One footer index entry, describing a chunk without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkIndexEntry {
    /// Byte offset of the chunk's block tag from the start of the file.
    pub offset: u64,
    /// Events encoded in the chunk.
    pub events: u64,
    /// Encoded payload length in bytes.
    pub payload_len: u64,
    /// Lowest cache-line address accessed in the chunk (0 if none).
    pub first_line: u64,
    /// Highest cache-line address accessed in the chunk (0 if none).
    pub last_line: u64,
}

/// Totals reported by [`ChunkWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events recorded.
    pub events: u64,
    /// Chunks written.
    pub chunks: u64,
    /// Size the same stream would occupy in the retired raw v1 encoding;
    /// kept in the footer for [`ratio`](Self::ratio).
    pub v1_bytes: u64,
    /// Actual file size in the `POPTTRC2` format.
    pub v2_bytes: u64,
}

impl TraceSummary {
    /// Compression ratio versus the raw v1 encoding (> 1 means smaller).
    pub fn ratio(&self) -> f64 {
        if self.v2_bytes == 0 {
            return 1.0;
        }
        self.v1_bytes as f64 / self.v2_bytes as f64
    }
}

/// Byte cost of `event` in the retired raw v1 encoding (a tag byte plus
/// fixed-width little-endian payload), for the compression accounting in
/// the footer.
fn v1_cost(event: &TraceEvent) -> u64 {
    match event {
        TraceEvent::Access(_) => 13,
        TraceEvent::CurrentVertex(_) | TraceEvent::Instructions(_) | TraceEvent::Core(_) => 5,
        TraceEvent::EpochBoundary | TraceEvent::IterationBegin => 1,
    }
}

/// A [`TraceSink`] that streams events into a chunked v2 file.
///
/// Write errors are latched (the sink interface is infallible) and
/// surfaced by [`finish`], which must be called to produce a well-formed
/// file.
///
/// [`finish`]: ChunkWriter::finish
pub struct ChunkWriter<W: Write> {
    out: BufWriter<W>,
    regions: RegionTable,
    chunk_events: usize,
    buffered: Vec<TraceEvent>,
    scratch: Vec<u8>,
    index: Vec<ChunkIndexEntry>,
    offset: u64,
    total_events: u64,
    v1_bytes: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> ChunkWriter<W> {
    /// Creates a writer over `inner`, deriving the region table from
    /// `space`, and emits the header. `meta` is a free-form descriptor
    /// string (e.g. `trace/v2/suite/v1/urand/tiny/pr`) stored verbatim.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the header write.
    pub fn create(inner: W, space: &AddressSpace, meta: &str) -> Result<Self, TraceFileError> {
        Self::create_with_table(inner, RegionTable::from_space(space), meta)
    }

    /// Creates a writer with an explicit [`RegionTable`], for streams that
    /// have no `AddressSpace` (synthetic and test streams).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the header write.
    pub fn create_with_table(
        inner: W,
        regions: RegionTable,
        meta: &str,
    ) -> Result<Self, TraceFileError> {
        let mut out = BufWriter::new(inner);
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC_V2);
        varint::put_u64(&mut header, meta.len() as u64);
        header.extend_from_slice(meta.as_bytes());
        varint::put_u64(&mut header, regions.spans().len() as u64);
        for &(base, len) in regions.spans() {
            varint::put_u64(&mut header, base);
            varint::put_u64(&mut header, len);
        }
        out.write_all(&header)?;
        Ok(ChunkWriter {
            out,
            regions,
            chunk_events: DEFAULT_CHUNK_EVENTS,
            buffered: Vec::new(),
            scratch: Vec::new(),
            index: Vec::new(),
            offset: header.len() as u64,
            total_events: 0,
            v1_bytes: 8, // the v1 magic
            error: None,
        })
    }

    /// Overrides the events-per-chunk threshold (tests use tiny chunks to
    /// exercise multi-chunk paths cheaply).
    #[must_use]
    pub fn with_chunk_events(mut self, chunk_events: usize) -> Self {
        self.chunk_events = chunk_events.max(1);
        self
    }

    /// Events accepted so far.
    pub fn events_written(&self) -> u64 {
        self.total_events
    }

    fn flush_chunk(&mut self) -> std::io::Result<()> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        let LineSpan {
            first_line,
            last_line,
        } = encode_chunk(&self.buffered, &self.regions, &mut self.scratch);
        let mut frame = Vec::new();
        frame.push(BLOCK_CHUNK);
        varint::put_u64(&mut frame, self.buffered.len() as u64);
        varint::put_u64(&mut frame, self.scratch.len() as u64);
        frame.extend_from_slice(&fnv64(&self.scratch).to_le_bytes());
        self.out.write_all(&frame)?;
        self.out.write_all(&self.scratch)?;
        self.index.push(ChunkIndexEntry {
            offset: self.offset,
            events: self.buffered.len() as u64,
            payload_len: self.scratch.len() as u64,
            first_line,
            last_line,
        });
        self.offset += frame.len() as u64 + self.scratch.len() as u64;
        self.buffered.clear();
        Ok(())
    }

    /// Flushes the final partial chunk, writes the footer and trailer,
    /// and returns the underlying writer with the recording totals.
    ///
    /// # Errors
    ///
    /// Returns the first latched write error, then propagates I/O errors
    /// from the final writes.
    pub fn finish(mut self) -> Result<(W, TraceSummary), TraceFileError> {
        if let Some(e) = self.error.take() {
            return Err(TraceFileError::Io(e));
        }
        self.flush_chunk()?;
        let footer_offset = self.offset;
        let mut body = Vec::new();
        varint::put_u64(&mut body, self.index.len() as u64);
        for entry in &self.index {
            varint::put_u64(&mut body, entry.offset);
            varint::put_u64(&mut body, entry.events);
            varint::put_u64(&mut body, entry.payload_len);
            varint::put_u64(&mut body, entry.first_line);
            varint::put_u64(&mut body, entry.last_line);
        }
        varint::put_u64(&mut body, self.total_events);
        varint::put_u64(&mut body, self.v1_bytes);
        self.out.write_all(&[BLOCK_FOOTER])?;
        self.out.write_all(&body)?;
        self.out.write_all(&fnv64(&body).to_le_bytes())?;
        self.out.write_all(&footer_offset.to_le_bytes())?;
        self.out.write_all(END_MAGIC)?;
        self.offset += 1 + body.len() as u64 + 8 + TRAILER_LEN;
        self.out.flush()?;
        let summary = TraceSummary {
            events: self.total_events,
            chunks: self.index.len() as u64,
            v1_bytes: self.v1_bytes,
            v2_bytes: self.offset,
        };
        self.out
            .into_inner()
            .map(|w| (w, summary))
            .map_err(|e| TraceFileError::Io(e.into_error()))
    }
}

impl<W: Write> TraceSink for ChunkWriter<W> {
    fn event(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.v1_bytes += v1_cost(&event);
        self.total_events += 1;
        self.buffered.push(event);
        if self.buffered.len() >= self.chunk_events {
            if let Err(e) = self.flush_chunk() {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_header_chunks_footer() {
        let mut buf = Vec::new();
        let mut w = ChunkWriter::create_with_table(&mut buf, RegionTable::empty(), "meta/test")
            .unwrap()
            .with_chunk_events(2);
        for i in 0..5 {
            w.event(TraceEvent::read(0x1000 + i * 4, 1));
        }
        let (_, summary) = w.finish().unwrap();
        assert_eq!(summary.events, 5);
        assert_eq!(summary.chunks, 3); // 2 + 2 + 1
        assert_eq!(summary.v1_bytes, 8 + 5 * 13);
        assert_eq!(summary.v2_bytes, buf.len() as u64);
        assert_eq!(&buf[..8], MAGIC_V2);
        assert_eq!(&buf[buf.len() - 8..], END_MAGIC);
    }

    #[test]
    fn empty_trace_is_well_formed() {
        let mut buf = Vec::new();
        let w = ChunkWriter::create_with_table(&mut buf, RegionTable::empty(), "").unwrap();
        let (_, summary) = w.finish().unwrap();
        assert_eq!(summary.events, 0);
        assert_eq!(summary.chunks, 0);
        assert_eq!(summary.v2_bytes, buf.len() as u64);
    }

    /// Writer that accepts `limit` bytes and then fails every write.
    struct FailAfter {
        limit: usize,
        written: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.written + buf.len() > self.limit {
                return Err(std::io::Error::other("disk full"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_failures_surface_at_finish_not_as_panics() {
        let inner = FailAfter {
            limit: 64,
            written: 0,
        };
        let mut w = ChunkWriter::create_with_table(inner, RegionTable::empty(), "m")
            .unwrap()
            .with_chunk_events(4);
        for _ in 0..10_000 {
            w.event(TraceEvent::read(0xffff_ffff_0000, 77)); // must never panic
        }
        assert!(matches!(w.finish(), Err(TraceFileError::Io(_))));
    }
}

//! `POPTTRC2` readers: streaming replay and footer inspection.
//!
//! The streaming replayer decodes each chunk exactly once and runs in
//! bounded memory (one chunk payload at a time). Corruption is reported
//! with chunk granularity: a damaged chunk yields
//! [`TraceFileError::ChunkChecksum`] / [`ChunkCorrupt`] carrying the
//! chunk's index, after every earlier chunk has already been delivered.
//!
//! [`ChunkCorrupt`]: TraceFileError::ChunkCorrupt

use crate::chunk::{decode_chunk, RegionTable};
use crate::file::{check_magic, TraceFileError};
use crate::fnv64;
use crate::varint;
use crate::writer::{ChunkIndexEntry, BLOCK_CHUNK, BLOCK_FOOTER, END_MAGIC, TRAILER_LEN};
use popt_trace::TraceSink;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

/// Upper bound on a header meta string; anything larger means a corrupt
/// length varint, not a real descriptor.
const MAX_META_LEN: u64 = 1 << 20;
/// Upper bound on the region table size.
const MAX_REGIONS: u64 = 1 << 20;
/// Upper bound on a single chunk payload; bogus lengths from corrupt
/// framing must not trigger multi-gigabyte allocations.
const MAX_PAYLOAD_LEN: u64 = 1 << 30;

/// Totals from a replay pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Events delivered to the sink.
    pub events: u64,
    /// Chunks decoded. Each chunk is decoded exactly once per replay.
    pub chunks_decoded: u64,
}

/// Footer-derived description of a trace file, read without decoding
/// any chunk payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceInfo {
    /// The free-form descriptor stored at record time.
    pub meta: String,
    /// Region spans in the header table.
    pub regions: usize,
    /// Total events recorded.
    pub events: u64,
    /// Per-chunk index entries, in file order.
    pub chunks: Vec<ChunkIndexEntry>,
    /// Size the stream would occupy in the retired raw v1 encoding, as
    /// recorded in the footer.
    pub v1_bytes: u64,
    /// Actual file size.
    pub file_bytes: u64,
}

impl TraceInfo {
    /// Compression ratio versus the raw v1 encoding (> 1 means smaller).
    pub fn ratio(&self) -> f64 {
        if self.file_bytes == 0 {
            return 1.0;
        }
        self.v1_bytes as f64 / self.file_bytes as f64
    }
}

fn truncated(what: &'static str) -> impl Fn(TraceFileError) -> TraceFileError {
    move |e| match e {
        TraceFileError::Io(ref io) if io.kind() == std::io::ErrorKind::UnexpectedEof => {
            TraceFileError::Truncated { what }
        }
        other => other,
    }
}

fn read_exact_or<R: Read>(
    input: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), TraceFileError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceFileError::Truncated { what }
        } else {
            TraceFileError::Io(e)
        }
    })
}

/// Reads and checks the leading magic.
fn read_magic<R: Read>(input: &mut R) -> Result<(), TraceFileError> {
    let mut magic = [0u8; 8];
    read_exact_or(input, &mut magic, "magic")?;
    check_magic(magic)
}

/// Parses the post-magic header: meta string and region table.
fn read_header<R: Read>(input: &mut R) -> Result<(String, RegionTable), TraceFileError> {
    let meta_len = varint::read_u64(input).map_err(truncated("header"))?;
    if meta_len > MAX_META_LEN {
        return Err(TraceFileError::Corrupt {
            what: "unreasonable meta length",
        });
    }
    let mut meta = vec![0u8; meta_len as usize];
    read_exact_or(input, &mut meta, "header meta")?;
    let meta = String::from_utf8(meta).map_err(|_| TraceFileError::Corrupt {
        what: "meta is not UTF-8",
    })?;
    let num_regions = varint::read_u64(input).map_err(truncated("header"))?;
    if num_regions > MAX_REGIONS {
        return Err(TraceFileError::Corrupt {
            what: "unreasonable region count",
        });
    }
    let mut spans = Vec::with_capacity(num_regions as usize);
    for _ in 0..num_regions {
        let base = varint::read_u64(input).map_err(truncated("region table"))?;
        let len = varint::read_u64(input).map_err(truncated("region table"))?;
        spans.push((base, len));
    }
    Ok((meta, RegionTable::new(spans)))
}

/// Replays a trace into `sink`, decoding each chunk exactly once.
///
/// # Errors
///
/// [`TraceFileError::BadMagic`] on unknown leading bytes,
/// [`TraceFileError::UnsupportedVersion`] on a retired v1 file, and
/// truncation, corruption or checksum errors with chunk granularity.
pub fn replay_any<R: Read, S: TraceSink>(
    reader: R,
    mut sink: S,
) -> Result<ReplayStats, TraceFileError> {
    let mut input = BufReader::new(reader);
    read_magic(&mut input)?;
    let (_meta, regions) = read_header(&mut input)?;
    let mut stats = ReplayStats::default();
    loop {
        let mut tag = [0u8; 1];
        read_exact_or(&mut input, &mut tag, "footer (stream ends mid-file)")?;
        match tag[0] {
            BLOCK_CHUNK => {
                let chunk = stats.chunks_decoded;
                let events = varint::read_u64(&mut input).map_err(truncated("chunk header"))?;
                let payload_len =
                    varint::read_u64(&mut input).map_err(truncated("chunk header"))?;
                if payload_len > MAX_PAYLOAD_LEN {
                    return Err(TraceFileError::ChunkCorrupt {
                        chunk,
                        what: "unreasonable payload length",
                    });
                }
                let mut checksum = [0u8; 8];
                read_exact_or(&mut input, &mut checksum, "chunk checksum")?;
                let mut payload = vec![0u8; payload_len as usize];
                read_exact_or(&mut input, &mut payload, "chunk payload")?;
                if fnv64(&payload) != u64::from_le_bytes(checksum) {
                    return Err(TraceFileError::ChunkChecksum { chunk });
                }
                decode_chunk(&payload, events, &regions, &mut sink)
                    .map_err(|what| TraceFileError::ChunkCorrupt { chunk, what })?;
                stats.events += events;
                stats.chunks_decoded += 1;
            }
            BLOCK_FOOTER => {
                let footer = read_footer_body(&mut input)?;
                if footer.events != stats.events
                    || footer.chunks.len() as u64 != stats.chunks_decoded
                {
                    return Err(TraceFileError::Corrupt {
                        what: "footer totals disagree with chunk stream",
                    });
                }
                let mut trailer = [0u8; TRAILER_LEN as usize];
                read_exact_or(&mut input, &mut trailer, "trailer")?;
                if &trailer[8..] != END_MAGIC {
                    return Err(TraceFileError::Corrupt {
                        what: "missing end magic",
                    });
                }
                return Ok(stats);
            }
            _ => {
                return Err(TraceFileError::Corrupt {
                    what: "unknown block tag",
                })
            }
        }
    }
}

struct FooterBody {
    chunks: Vec<ChunkIndexEntry>,
    events: u64,
    v1_bytes: u64,
}

/// Reads a footer body (everything between the `BLOCK_FOOTER` tag and the
/// trailer) and verifies its checksum.
fn read_footer_body<R: Read>(input: &mut R) -> Result<FooterBody, TraceFileError> {
    // Re-serialize while parsing so the checksum covers exactly the bytes
    // the writer hashed.
    let mut body = Vec::new();
    let get = |input: &mut R, body: &mut Vec<u8>| -> Result<u64, TraceFileError> {
        let v = varint::read_u64(input).map_err(truncated("footer"))?;
        varint::put_u64(body, v);
        Ok(v)
    };
    let num_chunks = get(input, &mut body)?;
    if num_chunks > MAX_REGIONS {
        return Err(TraceFileError::Corrupt {
            what: "unreasonable chunk count",
        });
    }
    let mut chunks = Vec::with_capacity(num_chunks as usize);
    for _ in 0..num_chunks {
        let offset = get(input, &mut body)?;
        let events = get(input, &mut body)?;
        let payload_len = get(input, &mut body)?;
        let first_line = get(input, &mut body)?;
        let last_line = get(input, &mut body)?;
        chunks.push(ChunkIndexEntry {
            offset,
            events,
            payload_len,
            first_line,
            last_line,
        });
    }
    let events = get(input, &mut body)?;
    let v1_bytes = get(input, &mut body)?;
    let mut checksum = [0u8; 8];
    read_exact_or(input, &mut checksum, "footer checksum")?;
    if fnv64(&body) != u64::from_le_bytes(checksum) {
        return Err(TraceFileError::Corrupt {
            what: "footer checksum mismatch",
        });
    }
    Ok(FooterBody {
        chunks,
        events,
        v1_bytes,
    })
}

/// Replays a trace file from disk into `sink`.
///
/// # Errors
///
/// I/O and decode errors, as [`replay_any`].
pub fn replay_path<S: TraceSink>(path: &Path, sink: S) -> Result<ReplayStats, TraceFileError> {
    let file = std::fs::File::open(path)?;
    replay_any(file, sink)
}

/// A sink that discards every event; used by [`verify`].
struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _event: popt_trace::TraceEvent) {}
}

/// Fully decodes a trace file, checking every chunk checksum and payload,
/// without keeping any events.
///
/// # Errors
///
/// The first decode error, with chunk granularity.
pub fn verify(path: &Path) -> Result<ReplayStats, TraceFileError> {
    replay_path(path, NullSink)
}

/// Reads a trace file's header and footer — without decoding any chunks —
/// by seeking through the trailer. This is the cheap integrity probe
/// behind `experiments trace info`.
///
/// # Errors
///
/// [`TraceFileError::BadMagic`] / [`UnsupportedVersion`] as
/// [`replay_any`], [`TraceFileError::Truncated`] / [`Corrupt`] for a
/// damaged container.
///
/// [`UnsupportedVersion`]: TraceFileError::UnsupportedVersion
/// [`Corrupt`]: TraceFileError::Corrupt
pub fn trace_info(path: &Path) -> Result<TraceInfo, TraceFileError> {
    let file = std::fs::File::open(path)?;
    let file_bytes = file.metadata()?.len();
    let mut input = BufReader::new(file);
    read_magic(&mut input)?;
    let (meta, regions) = read_header(&mut input)?;
    if file_bytes < TRAILER_LEN {
        return Err(TraceFileError::Truncated { what: "trailer" });
    }
    input.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
    let mut trailer = [0u8; TRAILER_LEN as usize];
    read_exact_or(&mut input, &mut trailer, "trailer")?;
    if &trailer[8..] != END_MAGIC {
        return Err(TraceFileError::Truncated { what: "end magic" });
    }
    let footer_offset = u64::from_le_bytes(
        trailer[..8]
            .try_into()
            .map_err(|_| TraceFileError::Corrupt { what: "trailer" })?,
    );
    if footer_offset >= file_bytes {
        return Err(TraceFileError::Corrupt {
            what: "footer offset past end of file",
        });
    }
    input.seek(SeekFrom::Start(footer_offset))?;
    let mut tag = [0u8; 1];
    read_exact_or(&mut input, &mut tag, "footer")?;
    if tag[0] != BLOCK_FOOTER {
        return Err(TraceFileError::Corrupt {
            what: "footer offset does not point at a footer",
        });
    }
    let footer = read_footer_body(&mut input)?;
    Ok(TraceInfo {
        meta,
        regions: regions.spans().len(),
        events: footer.events,
        chunks: footer.chunks,
        v1_bytes: footer.v1_bytes,
        file_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkWriter;
    use popt_trace::{RecordingSink, TraceEvent};

    fn record(events: &[TraceEvent], chunk_events: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ChunkWriter::create_with_table(&mut buf, RegionTable::empty(), "t")
            .unwrap()
            .with_chunk_events(chunk_events);
        for &e in events {
            w.event(e);
        }
        w.finish().unwrap();
        buf
    }

    #[test]
    fn v2_round_trip_multi_chunk() {
        let events: Vec<TraceEvent> = (0..100)
            .map(|i| TraceEvent::read(0x4000 + i * 8, 2))
            .collect();
        let buf = record(&events, 7);
        let mut rec = RecordingSink::new();
        let stats = replay_any(&buf[..], &mut rec).unwrap();
        assert_eq!(stats.events, 100);
        assert_eq!(stats.chunks_decoded, 15); // ceil(100 / 7)
        assert_eq!(rec.events(), &events[..]);
    }

    #[test]
    fn missing_footer_is_truncation() {
        let events = vec![TraceEvent::read(0x40, 1); 10];
        let mut buf = record(&events, 4);
        // Drop the footer and trailer entirely.
        buf.truncate(buf.len() - 40);
        let mut rec = RecordingSink::new();
        assert!(matches!(
            replay_any(&buf[..], &mut rec),
            Err(TraceFileError::Truncated { .. }) | Err(TraceFileError::Corrupt { .. })
        ));
    }

    #[test]
    fn trace_info_reads_footer_without_decoding() {
        let events: Vec<TraceEvent> = (0..20).map(|i| TraceEvent::read(0x40 * i, 1)).collect();
        let buf = record(&events, 8);
        let dir = std::env::temp_dir().join(format!("popt-tracestore-info-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trc");
        std::fs::write(&path, &buf).unwrap();
        let info = trace_info(&path).unwrap();
        assert_eq!(info.meta, "t");
        assert_eq!(info.events, 20);
        assert_eq!(info.chunks.len(), 3); // 8 + 8 + 4
        assert_eq!(info.file_bytes, buf.len() as u64);
        assert!(info.ratio() > 1.0);
        let stats = verify(&path).unwrap();
        assert_eq!(stats.events, 20);
        std::fs::remove_file(&path).unwrap();
    }
}

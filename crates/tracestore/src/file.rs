//! Container framing shared by the `POPTTRC2` writer and readers: the
//! leading magic and the error vocabulary every trace entry point
//! returns.

/// Magic bytes opening every `POPTTRC2` file.
pub(crate) const MAGIC_V2: &[u8; 8] = b"POPTTRC2";

/// Magic of the retired raw v1 format. Recognised only so that such a
/// file is rejected as [`TraceFileError::UnsupportedVersion`] ("right
/// kind of file, no reader for it") rather than as
/// [`TraceFileError::BadMagic`].
const MAGIC_V1: &[u8; 8] = b"POPTTRC1";

/// Accepts exactly the `POPTTRC2` magic.
pub(crate) fn check_magic(magic: [u8; 8]) -> Result<(), TraceFileError> {
    if &magic == MAGIC_V2 {
        Ok(())
    } else if &magic == MAGIC_V1 {
        Err(TraceFileError::UnsupportedVersion { found: magic })
    } else {
        Err(TraceFileError::BadMagic { found: magic })
    }
}

/// Error type for every trace store operation.
///
/// Every malformed-input condition is a structured variant, so callers can
/// distinguish "wrong file" ([`BadMagic`]) from "right kind of file, no
/// reader for this version" ([`UnsupportedVersion`]) from per-chunk
/// damage ([`ChunkChecksum`], [`ChunkCorrupt`]) that leaves earlier
/// chunks usable.
///
/// # Example
///
/// ```
/// use popt_trace::RecordingSink;
/// use popt_tracestore::{replay_any, TraceFileError};
///
/// let mut rec = RecordingSink::new();
/// let err = replay_any(&b"POPTTRC1\x00"[..], &mut rec).unwrap_err();
/// assert!(matches!(err, TraceFileError::UnsupportedVersion { .. }));
/// let err = replay_any(&b"NOTATRCE"[..], &mut rec).unwrap_err();
/// assert!(matches!(err, TraceFileError::BadMagic { .. }));
/// ```
///
/// [`BadMagic`]: TraceFileError::BadMagic
/// [`UnsupportedVersion`]: TraceFileError::UnsupportedVersion
/// [`ChunkChecksum`]: TraceFileError::ChunkChecksum
/// [`ChunkCorrupt`]: TraceFileError::ChunkCorrupt
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The leading bytes match no known trace magic.
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// A known trace magic of a version this crate does not decode.
    UnsupportedVersion {
        /// The magic actually found.
        found: [u8; 8],
    },
    /// The stream ended in the middle of the named structure.
    Truncated {
        /// Which structure was cut short (e.g. `"magic"`, `"chunk payload"`).
        what: &'static str,
    },
    /// Container-level damage outside any chunk (header or footer).
    Corrupt {
        /// What was malformed.
        what: &'static str,
    },
    /// A chunk's payload failed its checksum; chunks before `chunk` have
    /// already been delivered intact.
    ChunkChecksum {
        /// Zero-based index of the damaged chunk.
        chunk: u64,
    },
    /// A chunk's payload passed its checksum but does not decode (or its
    /// header is malformed).
    ChunkCorrupt {
        /// Zero-based index of the damaged chunk.
        chunk: u64,
        /// What was malformed inside it.
        what: &'static str,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFileError::BadMagic { found } => {
                write!(f, "malformed trace file: bad magic {found:02x?}")
            }
            TraceFileError::UnsupportedVersion { found } => write!(
                f,
                "trace version {:?} is not supported by this reader",
                String::from_utf8_lossy(found)
            ),
            TraceFileError::Truncated { what } => {
                write!(f, "malformed trace file: truncated {what}")
            }
            TraceFileError::Corrupt { what } => {
                write!(f, "malformed trace file: {what}")
            }
            TraceFileError::ChunkChecksum { chunk } => {
                write!(f, "trace chunk {chunk} failed its checksum")
            }
            TraceFileError::ChunkCorrupt { chunk, what } => {
                write!(f, "trace chunk {chunk} is corrupt: {what}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_any, trace_info, ChunkWriter, RegionTable};
    use popt_trace::{RecordingSink, TraceEvent, TraceSink};
    use std::path::PathBuf;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::IterationBegin,
            TraceEvent::Core(3),
            TraceEvent::CurrentVertex(42),
            TraceEvent::read(0xdead_beef_cafe, 9),
            TraceEvent::write(0x40, u32::MAX),
            TraceEvent::Instructions(17),
            TraceEvent::EpochBoundary,
        ]
    }

    fn record(events: &[TraceEvent]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ChunkWriter::create_with_table(&mut buf, RegionTable::empty(), "t").unwrap();
        for &e in events {
            w.event(e);
        }
        w.finish().unwrap();
        buf
    }

    /// Writes `bytes` to a per-test file, for the path-based `trace_info`.
    fn on_disk(name: &str, bytes: &[u8]) -> PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-tracestore-test/file");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn round_trip_is_exact() {
        let buf = record(&sample_events());
        let mut rec = RecordingSink::new();
        let stats = replay_any(&buf[..], &mut rec).unwrap();
        assert_eq!(stats.events, 7);
        assert_eq!(rec.events(), &sample_events()[..]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut rec = RecordingSink::new();
        assert!(matches!(
            replay_any(&b"NOTATRCE"[..], &mut rec),
            Err(TraceFileError::BadMagic { found }) if &found == b"NOTATRCE"
        ));
        let path = on_disk("bad-magic.trc", b"NOTATRCE");
        assert!(matches!(
            trace_info(&path),
            Err(TraceFileError::BadMagic { found }) if &found == b"NOTATRCE"
        ));
    }

    #[test]
    fn v1_magic_is_unsupported() {
        // A v1 stream: the magic, then one raw read event.
        let mut v1 = MAGIC_V1.to_vec();
        v1.extend_from_slice(&[0, 0x40, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0]);
        let mut rec = RecordingSink::new();
        assert!(matches!(
            replay_any(&v1[..], &mut rec),
            Err(TraceFileError::UnsupportedVersion { found }) if &found == MAGIC_V1
        ));
        assert!(rec.events().is_empty());
        let path = on_disk("v1.trc", &v1);
        assert!(matches!(
            trace_info(&path),
            Err(TraceFileError::UnsupportedVersion { found }) if &found == MAGIC_V1
        ));
    }

    #[test]
    fn short_magic_is_truncated() {
        let mut rec = RecordingSink::new();
        assert!(matches!(
            replay_any(&b"POPT"[..], &mut rec),
            Err(TraceFileError::Truncated { what: "magic" })
        ));
        let path = on_disk("short-magic.trc", b"POPT");
        assert!(matches!(
            trace_info(&path),
            Err(TraceFileError::Truncated { what: "magic" })
        ));
    }

    #[test]
    fn truncated_payload_is_detected() {
        let buf = record(&[TraceEvent::read(0x1000, 1)]);
        // Header (magic, meta "t", no regions) + chunk frame, then cut
        // inside the chunk payload.
        let header = MAGIC_V2.len() + 3;
        let cut = &buf[..header + 12];
        let mut rec = RecordingSink::new();
        assert!(matches!(
            replay_any(cut, &mut rec),
            Err(TraceFileError::Truncated {
                what: "chunk payload"
            })
        ));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut buf = record(&[]);
        // An empty trace's first block is the footer; retag it.
        let header = MAGIC_V2.len() + 3;
        buf[header] = 99;
        let mut rec = RecordingSink::new();
        assert!(matches!(
            replay_any(&buf[..], &mut rec),
            Err(TraceFileError::Corrupt {
                what: "unknown block tag"
            })
        ));
    }

    #[test]
    fn write_failures_surface_at_finish_not_as_panics() {
        // Room for the header only: the events stay buffered in the open
        // chunk, so the failure first shows when `finish` flushes it.
        let header = MAGIC_V2.len() + 3;
        let mut disk = vec![0u8; header];
        let mut w =
            ChunkWriter::create_with_table(&mut disk[..], RegionTable::empty(), "t").unwrap();
        for e in sample_events().into_iter().cycle().take(1_000) {
            w.event(e); // must never panic
        }
        assert!(matches!(w.finish(), Err(TraceFileError::Io(_))));
        assert_eq!(&disk[..MAGIC_V2.len()], MAGIC_V2);
    }

    #[test]
    fn empty_trace_replays_zero_events() {
        let buf = record(&[]);
        let mut rec = RecordingSink::new();
        let stats = replay_any(&buf[..], &mut rec).unwrap();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.chunks_decoded, 0);
    }
}

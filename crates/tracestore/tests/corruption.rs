//! Corruption is chunk-granular: a flipped byte in a middle chunk is
//! reported by chunk index, every earlier chunk still decodes, and the
//! footer index (which locates chunks without decoding them) survives.

use popt_trace::{RecordingSink, TraceEvent, TraceSink};
use popt_tracestore::{replay_any, trace_info, verify, ChunkWriter, RegionTable, TraceFileError};
use std::path::PathBuf;

const CHUNK_EVENTS: usize = 10;
const NUM_CHUNKS: usize = 10;

fn demo_events() -> Vec<TraceEvent> {
    (0..(CHUNK_EVENTS * NUM_CHUNKS) as u64)
        .map(|i| TraceEvent::read(0x1_0000 + i * 64, (i % 4) as u32))
        .collect()
}

fn record_demo(path: &std::path::Path) -> Vec<TraceEvent> {
    let events = demo_events();
    let file = std::fs::File::create(path).unwrap();
    let table = RegionTable::new(vec![(0x1_0000, 1 << 20)]);
    let mut writer = ChunkWriter::create_with_table(file, table, "corruption-demo")
        .unwrap()
        .with_chunk_events(CHUNK_EVENTS);
    for &e in &events {
        writer.event(e);
    }
    writer.finish().unwrap();
    events
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/popt-tracestore-test/corruption");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn flipped_byte_reports_its_chunk_and_spares_earlier_ones() {
    let path = scratch("flip.trc");
    let events = record_demo(&path);
    let info = trace_info(&path).unwrap();
    assert_eq!(info.chunks.len(), NUM_CHUNKS);
    assert!(verify(&path).is_ok(), "pristine file verifies");

    // Flip the final payload byte of chunk 5 (the byte just before chunk
    // 6's block begins).
    let mut bytes = std::fs::read(&path).unwrap();
    let target = info.chunks[6].offset as usize - 1;
    bytes[target] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let mut rec = RecordingSink::new();
    let err = replay_any(&bytes[..], &mut rec).unwrap_err();
    match err {
        TraceFileError::ChunkChecksum { chunk } => assert_eq!(chunk, 5),
        other => panic!("expected ChunkChecksum for chunk 5, got {other}"),
    }
    // Chunks 0..5 were delivered intact before the checksum tripped.
    assert_eq!(rec.events(), &events[..5 * CHUNK_EVENTS]);

    // The footer (and thus the per-chunk index) is untouched: the file is
    // still enumerable, and verify pinpoints the same chunk.
    let after = trace_info(&path).unwrap();
    assert_eq!(after.chunks, info.chunks);
    assert!(matches!(
        verify(&path),
        Err(TraceFileError::ChunkChecksum { chunk: 5 })
    ));
}

#[test]
fn truncated_tail_is_detected() {
    let path = scratch("truncate.trc");
    record_demo(&path);
    let bytes = std::fs::read(&path).unwrap();
    // Sever the trailer and part of the footer checksum.
    let cut = &bytes[..bytes.len() - 20];
    assert!(
        replay_any(cut, RecordingSink::new()).is_err(),
        "severed trailer must not replay clean"
    );
}

//! Property test: arbitrary event streams survive a `POPTTRC2` round
//! trip exactly.

use popt_trace::{RecordingSink, TraceEvent, TraceSink};
use popt_tracestore::{replay_any, ChunkWriter, RegionTable};
use proptest::prelude::*;

/// Maps a generated raw triple onto one of every [`TraceEvent`] variant.
fn event_from_raw(tag: u8, addr: u64, val: u32) -> TraceEvent {
    match tag {
        0 => TraceEvent::read(addr, val % 64),
        1 => TraceEvent::write(addr, val % 64),
        2 => TraceEvent::CurrentVertex(val),
        3 => TraceEvent::EpochBoundary,
        4 => TraceEvent::IterationBegin,
        5 => TraceEvent::Instructions(val),
        _ => TraceEvent::Core(val % 8),
    }
}

/// Two mapped spans; generated addresses land inside them (Streaming /
/// Irregular locality) and outside them (the unmapped slot) alike.
fn table() -> RegionTable {
    RegionTable::new(vec![(0x1_0000, 1 << 20), (0x100_0000, 1 << 20)])
}

fn events_of(raw: &[(u8, u64, u32)]) -> Vec<TraceEvent> {
    raw.iter()
        .map(|&(tag, addr, val)| event_from_raw(tag, addr, val))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn v2_round_trips_arbitrary_streams(
        raw in prop::collection::vec((0u8..7, 0u64..(1u64 << 25), 0u32..10_000), 1..500),
        chunk_events in 1usize..64,
    ) {
        let events = events_of(&raw);
        let mut buf = Vec::new();
        let mut writer = ChunkWriter::create_with_table(&mut buf, table(), "prop")
            .unwrap()
            .with_chunk_events(chunk_events);
        for &e in &events {
            writer.event(e);
        }
        let (_, summary) = writer.finish().unwrap();
        prop_assert_eq!(summary.events, events.len() as u64);
        let expected_chunks = events.len().div_ceil(chunk_events) as u64;
        prop_assert_eq!(summary.chunks, expected_chunks);

        let mut rec = RecordingSink::new();
        let stats = replay_any(&buf[..], &mut rec).unwrap();
        prop_assert_eq!(stats.events, events.len() as u64);
        prop_assert_eq!(stats.chunks_decoded, expected_chunks);
        prop_assert_eq!(rec.events(), &events[..]);
    }
}

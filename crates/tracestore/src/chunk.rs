//! The `POPTTRC2` chunk payload codec.
//!
//! Each chunk is an independently decodable unit: all delta state resets
//! at the chunk boundary, so a damaged chunk never poisons its neighbors
//! and a reader can seek to any chunk via the footer index.
//!
//! Encoding per event:
//!
//! * **Accesses** carry a *slot* — the index of the region containing the
//!   address (one extra slot collects unmapped addresses). Deltas are
//!   computed per slot against the previous access in the same slot, so a
//!   streaming scan interleaved with irregular lookups still sees its own
//!   constant stride. An access whose delta and site both repeat the
//!   slot's previous access encodes as a single opcode byte; otherwise the
//!   opcode is followed by zigzag varints of the address and site deltas.
//!   The first 62 slots get inline opcodes; later slots use an escape
//!   opcode with an explicit slot varint.
//! * **`Instructions` and `EpochBoundary` runs** are run-length encoded
//!   (consecutive identical ticks collapse to a count).
//! * **`CurrentVertex`** is a zigzag delta against the previous vertex.

use crate::varint;
use popt_trace::{line_of, Access, AccessKind, AddressSpace, SiteId, TraceEvent, TraceSink};

/// Opcode: `IterationBegin`, no payload.
const OP_ITER: u8 = 0;
/// Opcode: run of `EpochBoundary` events; payload is the run length.
const OP_EPOCH_RUN: u8 = 1;
/// Opcode: run of identical `Instructions` events; payload is the run
/// length then the instruction count.
const OP_INSTR_RUN: u8 = 2;
/// Opcode: `CurrentVertex`; payload is a zigzag delta from the previous.
const OP_VERTEX: u8 = 3;
/// Opcode: `Core`; payload is the core ID.
const OP_CORE: u8 = 4;
/// Opcode: read access in a slot ≥ [`INLINE_SLOTS`]; payload is the slot
/// then the explicit delta body.
const OP_ESC_READ: u8 = 5;
/// Opcode: write access in a slot ≥ [`INLINE_SLOTS`].
const OP_ESC_WRITE: u8 = 6;
/// First inline access opcode; opcodes `OP_ACCESS_BASE + slot * 4 + form`
/// encode an access in `slot` with `form` from the table below.
const OP_ACCESS_BASE: u8 = 8;

/// Inline access form: read with explicit address/site deltas.
const FORM_READ_EXPLICIT: u8 = 0;
/// Inline access form: write with explicit address/site deltas.
const FORM_WRITE_EXPLICIT: u8 = 1;
/// Inline access form: read repeating the slot's previous delta and site.
const FORM_READ_REPEAT: u8 = 2;
/// Inline access form: write repeating the slot's previous delta and site.
const FORM_WRITE_REPEAT: u8 = 3;

/// Number of region slots with single-byte access opcodes:
/// `(255 - OP_ACCESS_BASE + 1) / 4`.
pub(crate) const INLINE_SLOTS: usize = 62;

/// The address-range table accesses are classified against. Slot `i` is
/// the `i`-th span in file order; addresses outside every span share one
/// extra "unmapped" slot whose delta state starts at address zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTable {
    spans: Vec<(u64, u64)>,
}

impl RegionTable {
    /// Builds a table from explicit `(base, len_bytes)` spans, in slot
    /// order. Spans are expected to be disjoint; the first containing
    /// span wins on lookup.
    pub fn new(spans: Vec<(u64, u64)>) -> Self {
        RegionTable { spans }
    }

    /// An empty table: every access lands in the unmapped slot. Still a
    /// correct encoding, just with weaker delta locality.
    pub fn empty() -> Self {
        RegionTable { spans: Vec::new() }
    }

    /// Derives the table from an [`AddressSpace`], one span per allocated
    /// region in allocation order.
    pub fn from_space(space: &AddressSpace) -> Self {
        RegionTable {
            spans: space
                .regions()
                .iter()
                .map(|r| (r.base(), r.len_bytes()))
                .collect(),
        }
    }

    /// The `(base, len_bytes)` spans in slot order.
    pub fn spans(&self) -> &[(u64, u64)] {
        &self.spans
    }

    /// The slot an address belongs to: its span's index, or
    /// `spans.len()` for the shared unmapped slot.
    fn slot_of(&self, addr: u64) -> usize {
        for (i, &(base, len)) in self.spans.iter().enumerate() {
            if addr >= base && addr - base < len {
                return i;
            }
        }
        self.spans.len()
    }

    /// Total slot count (regions plus the unmapped slot).
    fn num_slots(&self) -> usize {
        self.spans.len() + 1
    }

    /// The initial delta-state address for `slot` (the span base, or zero
    /// for the unmapped slot).
    fn slot_base(&self, slot: usize) -> u64 {
        self.spans.get(slot).map_or(0, |&(base, _)| base)
    }
}

/// Per-slot delta state, reset at every chunk boundary.
#[derive(Clone)]
struct SlotState {
    last_addr: u64,
    last_site: u32,
    last_delta: i64,
}

fn initial_slots(regions: &RegionTable) -> Vec<SlotState> {
    (0..regions.num_slots())
        .map(|slot| SlotState {
            last_addr: regions.slot_base(slot),
            last_site: 0,
            last_delta: 0,
        })
        .collect()
}

/// Extremes of the access lines seen in a chunk, for the footer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineSpan {
    pub(crate) first_line: u64,
    pub(crate) last_line: u64,
}

/// Encodes `events` into `out`, returning the access-line extremes
/// (zeroes when the chunk has no accesses).
pub(crate) fn encode_chunk(
    events: &[TraceEvent],
    regions: &RegionTable,
    out: &mut Vec<u8>,
) -> LineSpan {
    let mut slots = initial_slots(regions);
    let mut last_vertex = 0u32;
    let mut span: Option<LineSpan> = None;
    let mut i = 0usize;
    while let Some(&event) = events.get(i) {
        match event {
            TraceEvent::Access(a) => {
                let line = line_of(a.addr);
                span = Some(span.map_or(
                    LineSpan {
                        first_line: line,
                        last_line: line,
                    },
                    |s| LineSpan {
                        first_line: s.first_line.min(line),
                        last_line: s.last_line.max(line),
                    },
                ));
                let slot = regions.slot_of(a.addr);
                encode_access(&a, slot, &mut slots, out);
                i += 1;
            }
            TraceEvent::EpochBoundary => {
                let mut run = 1u64;
                while events.get(i + run as usize) == Some(&TraceEvent::EpochBoundary) {
                    run += 1;
                }
                out.push(OP_EPOCH_RUN);
                varint::put_u64(out, run);
                i += run as usize;
            }
            TraceEvent::Instructions(n) => {
                let mut run = 1u64;
                while events.get(i + run as usize) == Some(&TraceEvent::Instructions(n)) {
                    run += 1;
                }
                out.push(OP_INSTR_RUN);
                varint::put_u64(out, run);
                varint::put_u64(out, u64::from(n));
                i += run as usize;
            }
            TraceEvent::CurrentVertex(v) => {
                out.push(OP_VERTEX);
                varint::put_i64(out, i64::from(v) - i64::from(last_vertex));
                last_vertex = v;
                i += 1;
            }
            TraceEvent::IterationBegin => {
                out.push(OP_ITER);
                i += 1;
            }
            TraceEvent::Core(c) => {
                out.push(OP_CORE);
                varint::put_u64(out, u64::from(c));
                i += 1;
            }
        }
    }
    span.unwrap_or(LineSpan {
        first_line: 0,
        last_line: 0,
    })
}

fn encode_access(a: &Access, slot: usize, slots: &mut [SlotState], out: &mut Vec<u8>) {
    let Some(state) = slots.get_mut(slot) else {
        return; // unreachable: slot_of is bounded by num_slots
    };
    let delta = a.addr.wrapping_sub(state.last_addr) as i64;
    let is_read = a.kind == AccessKind::Read;
    if slot < INLINE_SLOTS {
        let repeat = delta == state.last_delta && a.site.0 == state.last_site;
        let form = match (is_read, repeat) {
            (true, true) => FORM_READ_REPEAT,
            (false, true) => FORM_WRITE_REPEAT,
            (true, false) => FORM_READ_EXPLICIT,
            (false, false) => FORM_WRITE_EXPLICIT,
        };
        // slot < 62 and form < 4, so this fits a byte by construction.
        out.push(
            OP_ACCESS_BASE
                .wrapping_add((slot as u8).wrapping_mul(4))
                .wrapping_add(form),
        );
        if !repeat {
            varint::put_i64(out, delta);
            varint::put_i64(out, i64::from(a.site.0) - i64::from(state.last_site));
        }
    } else {
        out.push(if is_read { OP_ESC_READ } else { OP_ESC_WRITE });
        varint::put_u64(out, slot as u64);
        varint::put_i64(out, delta);
        varint::put_i64(out, i64::from(a.site.0) - i64::from(state.last_site));
    }
    state.last_delta = delta;
    state.last_addr = a.addr;
    state.last_site = a.site.0;
}

/// Decodes one chunk payload into `sink`, delivering exactly
/// `event_count` events.
///
/// # Errors
///
/// A static description of the malformation; the caller wraps it in
/// [`crate::TraceFileError::ChunkCorrupt`] with the chunk
/// index.
pub(crate) fn decode_chunk<S: TraceSink>(
    payload: &[u8],
    event_count: u64,
    regions: &RegionTable,
    sink: &mut S,
) -> Result<(), &'static str> {
    let mut slots = initial_slots(regions);
    let mut last_vertex = 0u32;
    let mut pos = 0usize;
    let mut delivered = 0u64;
    while delivered < event_count {
        let op = *payload.get(pos).ok_or("payload shorter than event count")?;
        pos += 1;
        match op {
            OP_ITER => {
                sink.event(TraceEvent::IterationBegin);
                delivered += 1;
            }
            OP_EPOCH_RUN => {
                let run = varint::get_u64(payload, &mut pos).ok_or("truncated epoch run")?;
                if run == 0 || run > event_count - delivered {
                    return Err("epoch run exceeds event count");
                }
                for _ in 0..run {
                    sink.event(TraceEvent::EpochBoundary);
                }
                delivered += run;
            }
            OP_INSTR_RUN => {
                let run = varint::get_u64(payload, &mut pos).ok_or("truncated instruction run")?;
                let value =
                    varint::get_u64(payload, &mut pos).ok_or("truncated instruction run")?;
                let value = u32::try_from(value).map_err(|_| "instruction count overflows u32")?;
                if run == 0 || run > event_count - delivered {
                    return Err("instruction run exceeds event count");
                }
                for _ in 0..run {
                    sink.event(TraceEvent::Instructions(value));
                }
                delivered += run;
            }
            OP_VERTEX => {
                let delta = varint::get_i64(payload, &mut pos).ok_or("truncated vertex delta")?;
                let v = i64::from(last_vertex).wrapping_add(delta);
                let v = u32::try_from(v).map_err(|_| "vertex ID overflows u32")?;
                sink.event(TraceEvent::CurrentVertex(v));
                last_vertex = v;
                delivered += 1;
            }
            OP_CORE => {
                let c = varint::get_u64(payload, &mut pos).ok_or("truncated core ID")?;
                let c = u32::try_from(c).map_err(|_| "core ID overflows u32")?;
                sink.event(TraceEvent::Core(c));
                delivered += 1;
            }
            OP_ESC_READ | OP_ESC_WRITE => {
                let slot = varint::get_u64(payload, &mut pos).ok_or("truncated escape slot")?;
                let slot = usize::try_from(slot).map_err(|_| "escape slot overflows")?;
                let kind = if op == OP_ESC_READ {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                decode_explicit(payload, &mut pos, slot, kind, &mut slots, sink)?;
                delivered += 1;
            }
            op if op >= OP_ACCESS_BASE => {
                let idx = op - OP_ACCESS_BASE;
                let slot = usize::from(idx / 4);
                let form = idx % 4;
                let kind = if form == FORM_READ_EXPLICIT || form == FORM_READ_REPEAT {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                if form == FORM_READ_REPEAT || form == FORM_WRITE_REPEAT {
                    let state = slots.get_mut(slot).ok_or("access slot out of range")?;
                    let addr = state.last_addr.wrapping_add(state.last_delta as u64);
                    let site = state.last_site;
                    state.last_addr = addr;
                    sink.event(TraceEvent::Access(Access {
                        addr,
                        kind,
                        site: SiteId(site),
                    }));
                } else {
                    decode_explicit(payload, &mut pos, slot, kind, &mut slots, sink)?;
                }
                delivered += 1;
            }
            _ => return Err("unknown opcode"),
        }
    }
    if pos != payload.len() {
        return Err("trailing bytes after last event");
    }
    Ok(())
}

fn decode_explicit<S: TraceSink>(
    payload: &[u8],
    pos: &mut usize,
    slot: usize,
    kind: AccessKind,
    slots: &mut [SlotState],
    sink: &mut S,
) -> Result<(), &'static str> {
    let delta = varint::get_i64(payload, pos).ok_or("truncated access delta")?;
    let site_delta = varint::get_i64(payload, pos).ok_or("truncated site delta")?;
    let state = slots.get_mut(slot).ok_or("access slot out of range")?;
    let addr = state.last_addr.wrapping_add(delta as u64);
    let site = i64::from(state.last_site).wrapping_add(site_delta);
    let site = u32::try_from(site).map_err(|_| "site ID overflows u32")?;
    state.last_delta = delta;
    state.last_addr = addr;
    state.last_site = site;
    sink.event(TraceEvent::Access(Access {
        addr,
        kind,
        site: SiteId(site),
    }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_trace::RecordingSink;

    fn round_trip(events: &[TraceEvent], regions: &RegionTable) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_chunk(events, regions, &mut payload);
        let mut rec = RecordingSink::new();
        decode_chunk(&payload, events.len() as u64, regions, &mut rec).unwrap();
        assert_eq!(rec.events(), events);
        payload
    }

    #[test]
    fn mixed_events_round_trip() {
        let regions = RegionTable::new(vec![(0x1000, 0x1000), (0x4000, 0x2000)]);
        let events = vec![
            TraceEvent::IterationBegin,
            TraceEvent::Core(2),
            TraceEvent::CurrentVertex(7),
            TraceEvent::read(0x1000, 3),
            TraceEvent::read(0x1004, 3),
            TraceEvent::write(0x4f00, 9),
            TraceEvent::Instructions(8),
            TraceEvent::Instructions(8),
            TraceEvent::Instructions(9),
            TraceEvent::EpochBoundary,
            TraceEvent::EpochBoundary,
            TraceEvent::CurrentVertex(3),
            TraceEvent::read(0xdead_beef, 1), // unmapped
            TraceEvent::write(0x1008, 3),
        ];
        round_trip(&events, &regions);
    }

    #[test]
    fn streaming_scans_cost_one_byte_per_access() {
        let regions = RegionTable::new(vec![(0x1000, 0x10000)]);
        let events: Vec<TraceEvent> = (0..1000)
            .map(|i| TraceEvent::read(0x1000 + i * 4, 5))
            .collect();
        let payload = round_trip(&events, &regions);
        // First access is explicit, the other 999 are one-byte repeats.
        assert!(payload.len() < 1010, "payload was {} bytes", payload.len());
    }

    #[test]
    fn empty_table_still_round_trips() {
        let regions = RegionTable::empty();
        let events = vec![
            TraceEvent::read(u64::MAX, u32::MAX),
            TraceEvent::write(0, 0),
            TraceEvent::read(u64::MAX, u32::MAX),
        ];
        round_trip(&events, &regions);
    }

    #[test]
    fn short_payload_is_reported() {
        let regions = RegionTable::empty();
        let mut payload = Vec::new();
        encode_chunk(&[TraceEvent::read(0x40, 1)], &regions, &mut payload);
        let mut rec = RecordingSink::new();
        assert!(decode_chunk(&payload, 2, &regions, &mut rec).is_err());
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let regions = RegionTable::empty();
        let mut payload = Vec::new();
        encode_chunk(&[TraceEvent::IterationBegin], &regions, &mut payload);
        payload.push(0);
        let mut rec = RecordingSink::new();
        assert!(matches!(
            decode_chunk(&payload, 1, &regions, &mut rec),
            Err("trailing bytes after last event")
        ));
    }

    #[test]
    fn line_span_covers_accesses() {
        let regions = RegionTable::empty();
        let mut payload = Vec::new();
        let span = encode_chunk(
            &[
                TraceEvent::read(0x1000, 1),
                TraceEvent::read(0x80, 1),
                TraceEvent::read(0x2040, 1),
            ],
            &regions,
            &mut payload,
        );
        assert_eq!(span.first_line, 0x80 / 64);
        assert_eq!(span.last_line, 0x2040 / 64);
    }
}

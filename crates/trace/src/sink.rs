use crate::TraceEvent;

/// Consumer of a kernel's trace events.
///
/// The cache hierarchy in `popt-sim` is the primary implementor; the sinks
/// in this module support testing and trace capture. Implementations for
/// `&mut S` let kernels borrow sinks without generics gymnastics.
pub trait TraceSink {
    /// Delivers one event, in program order.
    fn event(&mut self, event: TraceEvent);
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn event(&mut self, event: TraceEvent) {
        (**self).event(event)
    }
}

/// Sink that stores every event, for assertions and offline analysis.
#[derive(Debug, Default, Clone)]
pub struct RecordingSink {
    events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, returning the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for RecordingSink {
    fn event(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Sink that counts events by category without storing them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of read accesses.
    pub reads: u64,
    /// Number of write accesses.
    pub writes: u64,
    /// Number of `CurrentVertex` updates.
    pub vertex_updates: u64,
    /// Number of epoch boundaries.
    pub epoch_boundaries: u64,
    /// Number of iteration markers.
    pub iterations: u64,
    /// Number of core-switch markers.
    pub core_switches: u64,
    /// Total retired instructions (memory accesses count as one each, plus
    /// explicit `Instructions` ticks).
    pub instructions: u64,
}

impl CountingSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total memory accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

impl TraceSink for CountingSink {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Access(a) => {
                match a.kind {
                    crate::AccessKind::Read => self.reads += 1,
                    crate::AccessKind::Write => self.writes += 1,
                }
                self.instructions += 1;
            }
            TraceEvent::CurrentVertex(_) => self.vertex_updates += 1,
            TraceEvent::EpochBoundary => self.epoch_boundaries += 1,
            TraceEvent::IterationBegin => self.iterations += 1,
            TraceEvent::Core(_) => self.core_switches += 1,
            TraceEvent::Instructions(n) => self.instructions += n as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    #[test]
    fn counting_sink_tallies_by_kind() {
        let mut c = CountingSink::new();
        c.event(TraceEvent::read(0, 0));
        c.event(TraceEvent::write(64, 0));
        c.event(TraceEvent::CurrentVertex(3));
        c.event(TraceEvent::EpochBoundary);
        c.event(TraceEvent::IterationBegin);
        c.event(TraceEvent::Instructions(10));
        assert_eq!(c.reads, 1);
        assert_eq!(c.writes, 1);
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.vertex_updates, 1);
        assert_eq!(c.epoch_boundaries, 1);
        assert_eq!(c.iterations, 1);
        assert_eq!(c.instructions, 12);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn feed<S: TraceSink>(mut sink: S) {
            sink.event(TraceEvent::read(0, 0));
        }
        let mut rec = RecordingSink::new();
        feed(&mut rec);
        assert_eq!(rec.events().len(), 1);
    }
}

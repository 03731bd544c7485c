//! Trace sinks: where emitted events go.
//!
//! The simulator holds an `Option<&mut dyn TraceSink>`; with no sink
//! attached it never formats or stores anything. The implementations
//! here cover the three standard destinations:
//!
//! * [`NullSink`] — accepts and discards every event; the baseline for
//!   measuring instrumentation overhead.
//! * [`RingSink`] — a preallocated in-memory ring that keeps the most
//!   recent `capacity` events and counts the rest as dropped. Recording
//!   into a non-full ring does not allocate.
//! * [`JsonlSink`] — encodes each event as one JSON line
//!   ([`Event::write_json`]) straight into its own 64 KiB buffer and
//!   hands any [`std::io::Write`] whole chunks, so a bare
//!   [`std::fs::File`] needs no `BufWriter` in front. The first I/O
//!   error is remembered ("sticky") and reported by
//!   [`TraceSink::finish`]; later records are ignored rather than
//!   panicking mid-simulation.
//! * [`FilteredSink`] — wraps another sink, forwarding only the event
//!   kinds in a [`KindSet`].

use crate::event::{Event, KindSet};
use std::io::Write;

/// Destination for simulator events.
pub trait TraceSink {
    /// Records one event. Must not panic; I/O failures are deferred to
    /// [`TraceSink::finish`].
    fn record(&mut self, event: &Event);

    /// Flushes buffered output and reports the first error encountered,
    /// if any. The default does nothing and succeeds.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first failure.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// A sink that discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &Event) {}
}

/// A bounded in-memory sink keeping the most recent events.
///
/// Storage is preallocated up front; once full, each new event
/// overwrites the oldest and increments [`RingSink::dropped`].
#[derive(Debug)]
pub struct RingSink {
    buf: Vec<Event>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Number of events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(*event);
        } else {
            self.buf[self.head] = *event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// Bytes [`JsonlSink`] buffers before it hands them to its writer.
const CHUNK: usize = 64 * 1024;

/// Room past [`CHUNK`] for the line that crosses it. The longest event
/// line, a rate change with three subnormal floats, is about 1.1 KiB.
const LINE_ROOM: usize = 2 * 1024;

/// A sink writing one JSON object per line to a [`Write`] target.
///
/// Events are encoded into one buffer, which goes to the writer in a
/// single `write_all` each time it reaches 64 KiB: every write but the
/// last carries 64 KiB plus at most one line, and holds whole lines
/// only. Call [`TraceSink::finish`] or [`JsonlSink::into_inner`] at the
/// end: dropping the sink discards what is still buffered.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<String>,
    /// Events handed to the writer.
    written: u64,
    /// Encoded lines not yet handed over.
    buf: Vec<u8>,
    /// Events in `buf`.
    buffered: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`. The sink buffers by itself, so pass the bare
    /// file; a [`std::io::BufWriter`] in front changes nothing, since it
    /// passes writes of its capacity or more straight through.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer,
            error: None,
            written: 0,
            buf: Vec::with_capacity(CHUNK + LINE_ROOM),
            buffered: 0,
        }
    }

    /// Number of events handed to the writer successfully; buffered
    /// events count once their chunk is handed over.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Consumes the sink, returning the underlying writer after handing
    /// it any buffered events. A write error at this point is lost;
    /// call [`TraceSink::finish`] first to see it.
    pub fn into_inner(mut self) -> W {
        self.hand_over();
        self.writer
    }

    /// Writes the buffer out and empties it; the first failure sticks.
    fn hand_over(&mut self) {
        if self.error.is_none() && !self.buf.is_empty() {
            match self.writer.write_all(&self.buf) {
                Ok(()) => self.written += self.buffered,
                Err(e) => self.error = Some(format!("trace write failed: {e}")),
            }
        }
        self.buf.clear();
        self.buffered = 0;
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        event.write_json(&mut self.buf);
        self.buf.push(b'\n');
        self.buffered += 1;
        if self.buf.len() >= CHUNK {
            self.hand_over();
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        self.hand_over();
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        self.writer
            .flush()
            .map_err(|e| format!("trace flush failed: {e}"))
    }
}

/// A sink forwarding only the event kinds in a [`KindSet`].
#[derive(Debug)]
pub struct FilteredSink<S: TraceSink> {
    inner: S,
    keep: KindSet,
}

impl<S: TraceSink> FilteredSink<S> {
    /// Wraps `inner`, keeping only events whose kind is in `keep`.
    pub fn new(inner: S, keep: KindSet) -> FilteredSink<S> {
        FilteredSink { inner, keep }
    }

    /// Consumes the filter, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for FilteredSink<S> {
    fn record(&mut self, event: &Event) {
        if self.keep.contains(event.kind()) {
            self.inner.record(event);
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use simcore::time::SimTime;

    fn ev(n: u64) -> Event {
        Event::FrameDone {
            at: SimTime::from_nanos(n),
            delay_s: 0.0,
            freq_tenths_mhz: 591,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut ring = RingSink::new(3);
        assert!(ring.is_empty());
        for n in 0..5 {
            ring.record(&ev(n));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let times: Vec<u64> = ring.events().iter().map(|e| e.at().as_nanos()).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest first, newest kept");
        assert!(ring.finish().is_ok());
    }

    #[test]
    fn ring_capacity_zero_is_clamped() {
        let mut ring = RingSink::new(0);
        ring.record(&ev(1));
        ring.record(&ev(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_writes_one_parseable_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev(7));
        sink.record(&Event::RunEnd {
            at: SimTime::from_nanos(9),
        });
        assert!(sink.finish().is_ok());
        assert_eq!(sink.written(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events = crate::parse_jsonl(&text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], ev(7));
    }

    struct FailWriter;
    impl Write for FailWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_io_errors_are_sticky_and_reported_at_finish() {
        let mut sink = JsonlSink::new(FailWriter);
        sink.record(&ev(1));
        sink.record(&ev(2)); // must not panic after the first failure
        assert_eq!(sink.written(), 0);
        let err = sink.finish().unwrap_err();
        assert!(err.contains("disk full"), "{err}");
    }

    /// Events of varied length: frame delays with 1 to 17 significant
    /// digits.
    fn varied(n: u64) -> Event {
        Event::FrameDone {
            at: SimTime::from_nanos(n * 1_000_003),
            delay_s: n as f64 / 7.0 / 10f64.powi((n % 17) as i32),
            freq_tenths_mhz: 591 + (n % 7) as u32,
        }
    }

    /// The stream encoded line by line, the sink's specification.
    fn lines(events: impl Iterator<Item = Event>) -> (Vec<u8>, Vec<usize>) {
        let (mut out, mut ends) = (Vec::new(), Vec::new());
        for ev in events {
            ev.write_json(&mut out);
            out.push(b'\n');
            ends.push(out.len());
        }
        (out, ends)
    }

    /// Records the size of every write it accepts; fails every write
    /// after the first `ok` when `ok` is set.
    #[derive(Default)]
    struct ChunkLog {
        bytes: Vec<u8>,
        writes: Vec<usize>,
        ok: Option<usize>,
    }
    impl Write for ChunkLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok.is_some_and(|ok| self.writes.len() >= ok) {
                return Err(std::io::Error::other("disk full"));
            }
            self.bytes.extend_from_slice(buf);
            self.writes.push(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_hands_over_whole_64k_chunks_of_the_line_by_line_stream() {
        let n = 10_000;
        let (expected, ends) = lines((0..n).map(varied));
        assert!(expected.len() > 4 * CHUNK, "several chunks");
        let mut sink = JsonlSink::new(ChunkLog::default());
        for ev in (0..n).map(varied) {
            sink.record(&ev);
        }
        assert!(sink.finish().is_ok());
        assert_eq!(sink.written(), n);
        let log = sink.into_inner();
        assert!(log.bytes == expected, "same bytes as line-by-line encoding");
        let (last, full) = log.writes.split_last().unwrap();
        assert!(full.len() >= 4 && *last < CHUNK);
        let mut offset = 0;
        for &w in full {
            assert!((CHUNK..CHUNK + LINE_ROOM).contains(&w), "{w}-byte write");
            offset += w;
            assert!(ends.contains(&offset), "a write ends mid-line");
        }
    }

    #[test]
    fn jsonl_into_inner_without_finish_loses_no_byte() {
        for n in [0, 1, 999, 3_000] {
            let mut sink = JsonlSink::new(Vec::new());
            for ev in (0..n).map(varied) {
                sink.record(&ev);
            }
            assert!(
                sink.into_inner() == lines((0..n).map(varied)).0,
                "{n} events"
            );
        }
    }

    #[test]
    fn jsonl_failure_on_the_second_chunk_is_reported_and_counted() {
        let n = 3_000;
        let (_, ends) = lines((0..n).map(varied));
        let first_chunk = ends.iter().position(|&end| end >= CHUNK).unwrap() + 1;
        let mut sink = JsonlSink::new(ChunkLog {
            ok: Some(1),
            ..ChunkLog::default()
        });
        for ev in (0..n).map(varied) {
            sink.record(&ev);
        }
        assert_eq!(sink.written(), first_chunk as u64);
        let err = sink.finish().unwrap_err();
        assert!(err.contains("disk full"), "{err}");
        assert_eq!(sink.written(), first_chunk as u64, "the failed chunk");
        assert_eq!(sink.into_inner().writes, vec![ends[first_chunk - 1]]);
    }

    #[test]
    fn filtered_sink_forwards_only_selected_kinds() {
        let keep = KindSet::EMPTY.with(EventKind::Run);
        let mut sink = FilteredSink::new(RingSink::new(8), keep);
        sink.record(&ev(1)); // Frame: filtered out
        sink.record(&Event::RunStart { at: SimTime::ZERO });
        assert!(sink.finish().is_ok());
        let inner = sink.into_inner();
        assert_eq!(inner.len(), 1);
        assert!(matches!(inner.events()[0], Event::RunStart { .. }));
    }
}

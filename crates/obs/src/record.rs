//! Trace sinks: where instrumentation hooks put their events.

use crate::event::{Trace, TraceEvent};
use std::sync::Mutex;

/// Destination for trace events. A hook that may not record holds an
/// `Option` of its sink, so tracing off costs one predictable branch.
pub trait TraceSink {
    /// Record one event.
    fn record(&mut self, ev: TraceEvent);
}

/// Per-thread buffered recorder. The hot path is a plain `Vec` push —
/// no atomics, no locks, no clock reads of its own ("lock-free-ish":
/// the only synchronization in the whole recording pipeline is the one
/// mutex acquisition in [`TeamRecorder::submit`] at thread exit).
#[derive(Debug, Default)]
pub struct ThreadRecorder {
    events: Vec<TraceEvent>,
}

impl ThreadRecorder {
    /// Fresh empty recorder.
    pub fn new() -> ThreadRecorder {
        ThreadRecorder::default()
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consume the recorder, yielding its events in emission order.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for ThreadRecorder {
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// Collects the per-thread buffers of one team run into a single
/// [`Trace`]. Each worker owns a private [`ThreadRecorder`] and submits
/// it exactly once when it finishes.
#[derive(Debug, Default)]
pub struct TeamRecorder {
    buffers: Mutex<Vec<Vec<TraceEvent>>>,
}

impl TeamRecorder {
    /// Fresh recorder with no submissions.
    pub fn new() -> TeamRecorder {
        TeamRecorder::default()
    }

    /// Accept one thread's finished buffer. Called once per thread, at
    /// thread exit — this is the only lock in the recording pipeline.
    pub fn submit(&self, rec: ThreadRecorder) {
        let events = rec.into_events();
        if events.is_empty() {
            return;
        }
        self.buffers
            .lock()
            .expect("trace buffer mutex poisoned")
            .push(events);
    }

    /// Merge all submissions into one trace. Buffers are ordered by
    /// their first event's thread id so the result is independent of
    /// thread *finish* order (which is nondeterministic on the native
    /// backend).
    pub fn finish(self) -> Trace {
        let mut buffers = self
            .buffers
            .into_inner()
            .expect("trace buffer mutex poisoned");
        buffers.sort_by_key(|b| b.first().map(|e| e.thread));
        Trace::new(buffers.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SpanKind};

    fn ev(time_ns: u64, thread: u32) -> TraceEvent {
        TraceEvent { time_ns, thread, core: 0, kind: EventKind::Begin(SpanKind::Region) }
    }

    #[test]
    fn team_recorder_orders_buffers_by_thread() {
        let team = TeamRecorder::new();
        // Submit out of rank order, as racing threads would.
        let mut r1 = ThreadRecorder::new();
        r1.record(ev(10, 1));
        r1.record(ev(20, 1));
        let mut r0 = ThreadRecorder::new();
        r0.record(ev(15, 0));
        team.submit(r1);
        team.submit(r0);
        team.submit(ThreadRecorder::new()); // empty buffers vanish
        let trace = team.finish();
        let threads: Vec<u32> = trace.events.iter().map(|e| e.thread).collect();
        assert_eq!(threads, vec![0, 1, 1]);
    }

    #[test]
    fn thread_recorder_preserves_order() {
        let mut r = ThreadRecorder::new();
        assert!(r.is_empty());
        r.record(ev(5, 2));
        r.record(ev(3, 2)); // recorder does not reorder or judge
        assert_eq!(r.len(), 2);
        let evs = r.into_events();
        assert_eq!(evs[0].time_ns, 5);
        assert_eq!(evs[1].time_ns, 3);
    }
}

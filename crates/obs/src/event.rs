//! The typed trace-event vocabulary shared by both backends.

/// Construct categories that produce spans (begin/end pairs).
///
/// The discriminant doubles as a dense index (see [`SpanKind::index`]),
/// so per-kind tables can be plain arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One thread's participation in the parallel region, birth to join.
    Region,
    /// One thread's pass over a work-shared loop (first grab attempt to
    /// observing exhaustion).
    Workshare,
    /// One dispatched chunk of a work-shared loop (dispatch + body).
    Chunk,
    /// Barrier episode: arrival to release (the wait is inside the span).
    Barrier,
    /// `single` construct: arrival to body completion (losers get a
    /// zero-ish span covering just the arbitration).
    Single,
    /// Critical/lock section: acquisition attempt to release (the
    /// acquire wait is inside the span).
    Critical,
    /// `ordered` section: ticket wait to ticket handoff.
    Ordered,
    /// One explicit task's execution (steal to completion).
    Task,
    /// One supervised attempt of a campaign unit (supervisor timeline,
    /// not a runtime construct — see [`SpanKind::is_construct`]).
    Attempt,
}

impl SpanKind {
    /// Every kind, in display order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Region,
        SpanKind::Workshare,
        SpanKind::Chunk,
        SpanKind::Barrier,
        SpanKind::Single,
        SpanKind::Critical,
        SpanKind::Ordered,
        SpanKind::Task,
        SpanKind::Attempt,
    ];

    /// Stable lower-case name; also the Chrome trace-event name.
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::Region => "region",
            SpanKind::Workshare => "workshare",
            SpanKind::Chunk => "chunk",
            SpanKind::Barrier => "barrier",
            SpanKind::Single => "single",
            SpanKind::Critical => "critical",
            SpanKind::Ordered => "ordered",
            SpanKind::Task => "task",
            SpanKind::Attempt => "attempt",
        }
    }

    /// Dense index into per-kind arrays (`0..SpanKind::ALL.len()`).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether this kind is emitted by the runtime backends (an OpenMP
    /// construct). [`SpanKind::Attempt`] lives on the campaign
    /// supervisor's timeline instead, so backend-coverage checks must
    /// not demand it.
    pub const fn is_construct(self) -> bool {
        !matches!(self, SpanKind::Attempt)
    }
}

/// Point events: things that happen *to* a run rather than *in* it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstantKind {
    /// A kernel-noise arrival preempted a user thread.
    NoisePreemption,
    /// A fault-plan injection fired.
    FaultInjection,
    /// The DVFS governor retargeted a socket frequency.
    FreqRetarget,
    /// The campaign supervisor scheduled a retry of a failed unit
    /// (after a classified-transient failure).
    SupervisorRetry,
    /// The campaign supervisor quarantined a unit (permanent failure or
    /// exhausted retry budget).
    SupervisorQuarantine,
    /// The campaign supervisor replayed a completed unit from the
    /// checkpoint manifest instead of re-running it.
    SupervisorResume,
    /// The campaign supervisor flushed the checkpoint manifest.
    SupervisorCheckpoint,
    /// The executor reaped a unit attempt that exceeded its wall-clock
    /// deadline: its lane stopped waiting for the result.
    SupervisorTimeout,
    /// The chaos shim injected an I/O fault into a journal or artifact
    /// write.
    ChaosIoFault,
    /// The chaos shim reached its crash point and froze the disk.
    ChaosCrashPoint,
    /// Process chaos killed a worker at a unit-pickup boundary.
    ChaosProcKill,
    /// Process chaos panicked a unit attempt mid-flight.
    ChaosProcPanic,
    /// Process chaos stalled a unit attempt, past the attempt deadline
    /// when one is set.
    ChaosProcStall,
}

impl InstantKind {
    /// Every kind, in display order.
    pub const ALL: [InstantKind; 13] = [
        InstantKind::NoisePreemption,
        InstantKind::FaultInjection,
        InstantKind::FreqRetarget,
        InstantKind::SupervisorRetry,
        InstantKind::SupervisorQuarantine,
        InstantKind::SupervisorResume,
        InstantKind::SupervisorCheckpoint,
        InstantKind::SupervisorTimeout,
        InstantKind::ChaosIoFault,
        InstantKind::ChaosCrashPoint,
        InstantKind::ChaosProcKill,
        InstantKind::ChaosProcPanic,
        InstantKind::ChaosProcStall,
    ];

    /// Stable lower-case name; also the Chrome trace-event name.
    pub const fn name(self) -> &'static str {
        match self {
            InstantKind::NoisePreemption => "noise_preemption",
            InstantKind::FaultInjection => "fault_injection",
            InstantKind::FreqRetarget => "freq_retarget",
            InstantKind::SupervisorRetry => "supervisor_retry",
            InstantKind::SupervisorQuarantine => "supervisor_quarantine",
            InstantKind::SupervisorResume => "supervisor_resume",
            InstantKind::SupervisorCheckpoint => "supervisor_checkpoint",
            InstantKind::SupervisorTimeout => "supervisor_timeout",
            InstantKind::ChaosIoFault => "chaos_io_fault",
            InstantKind::ChaosCrashPoint => "chaos_crash_point",
            InstantKind::ChaosProcKill => "chaos_proc_kill",
            InstantKind::ChaosProcPanic => "chaos_proc_panic",
            InstantKind::ChaosProcStall => "chaos_proc_stall",
        }
    }
}

/// What one [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A span of this kind opens on the event's thread.
    Begin(SpanKind),
    /// The innermost open span of this kind closes on the event's thread.
    End(SpanKind),
    /// A point event.
    Instant(InstantKind),
}

/// Sentinel core id: the event is not attributed to a specific core.
pub const CORE_UNKNOWN: u32 = u32::MAX;

/// Sentinel thread id: engine-global events (fault injections, socket
/// frequency retargets) that belong to no team thread.
pub const THREAD_GLOBAL: u32 = u32::MAX;

/// One trace event. Timestamps are nanoseconds on the backend's own
/// clock: virtual time (sim) or monotonic time since region start
/// (native).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time in nanoseconds.
    pub time_ns: u64,
    /// Team thread rank, or [`THREAD_GLOBAL`].
    pub thread: u32,
    /// Hardware-thread id the event occurred on, or [`CORE_UNKNOWN`].
    pub core: u32,
    /// Payload.
    pub kind: EventKind,
}

/// A completed begin/end pair recovered from a trace
/// (see [`crate::wellformed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Construct category.
    pub kind: SpanKind,
    /// Owning thread rank.
    pub thread: u32,
    /// Begin timestamp (ns).
    pub begin_ns: u64,
    /// End timestamp (ns).
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.begin_ns
    }
}

/// An ordered collection of trace events. Events of one thread appear in
/// that thread's emission order; different threads' events may be
/// grouped in per-thread blocks (native backend) or globally interleaved
/// by time (simulated backend) — consumers only rely on per-thread
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The events.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Wrap an event list.
    pub fn new(events: Vec<TraceEvent>) -> Trace {
        Trace { events }
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of begins of one span kind.
    pub fn count_of(&self, kind: SpanKind) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Begin(kind))
            .count()
    }

    /// Number of instants of one kind.
    pub fn instants_of(&self, kind: InstantKind) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Instant(kind))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_named() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
        for k in InstantKind::ALL {
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn trace_counts() {
        let t = Trace::new(vec![
            TraceEvent { time_ns: 0, thread: 0, core: 0, kind: EventKind::Begin(SpanKind::Barrier) },
            TraceEvent { time_ns: 5, thread: 0, core: 0, kind: EventKind::End(SpanKind::Barrier) },
            TraceEvent {
                time_ns: 3,
                thread: THREAD_GLOBAL,
                core: CORE_UNKNOWN,
                kind: EventKind::Instant(InstantKind::FaultInjection),
            },
        ]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.count_of(SpanKind::Barrier), 1);
        assert_eq!(t.count_of(SpanKind::Task), 0);
        assert_eq!(t.instants_of(InstantKind::FaultInjection), 1);
        assert_eq!(t.instants_of(InstantKind::FreqRetarget), 0);
    }

    #[test]
    fn span_duration() {
        let s = Span { kind: SpanKind::Chunk, thread: 1, begin_ns: 10, end_ns: 35 };
        assert_eq!(s.duration_ns(), 25);
    }
}

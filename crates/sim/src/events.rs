//! The discrete-event core: event kinds and the time-ordered queue.
//!
//! The queue is two 4-ary min-heaps under one global `seq`, each a
//! single `Vec` of `(key, payload)` entries where `key` packs `(time,
//! seq)` into one `u128` so ordering is a single integer compare.
//! **near** holds only [`EventKind::CpuBoundary`] as a typed 32-byte
//! entry; **far** holds every other kind. In a noisy regime ~99.9 % of
//! pops are boundaries while the far tier parks hundreds of long-period
//! timers (one noise stream per CPU, a tick per busy CPU, the balancer,
//! the DVFS pulses): kept apart, a boundary pop/push sifts through the
//! handful of live boundaries instead of through the parked timers.
//! `pop` takes the smaller of the two heads. Keys are unique (`seq`
//! never repeats), so the pending set is totally ordered and splitting
//! it in two and merging by head compare pops the identical sequence a
//! single heap would.
//!
//! Pops come in ascending `(time, seq)` order — earliest first, ties
//! broken FIFO by insertion sequence — which is what makes the engine's
//! replay deterministic. `tests/queue_props.rs` holds the queue to a
//! sorted-map model of exactly that order.

use crate::time::Time;

/// Kinds of events processed by the engine.
///
/// Several kinds carry a `token`: a generation counter used to invalidate
/// stale events. When the engine reprices a CPU's current work (because of
/// preemption, a frequency change, or SMT state change) it bumps the CPU's
/// token; the previously scheduled boundary event then no-ops when popped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The running span on `cpu` reaches a boundary: its current op
    /// completes, or its scheduling quantum expires.
    CpuBoundary {
        /// Hardware thread.
        cpu: usize,
        /// Generation token (stale events no-op).
        token: u64,
    },
    /// Next arrival of noise source `src`.
    NoiseArrival {
        /// Noise-stream index.
        src: u32,
    },
    /// Periodic scheduler/timer tick on a busy `cpu`.
    TimerTick {
        /// Hardware thread.
        cpu: usize,
        /// Tick-chain generation token.
        token: u64,
    },
    /// Periodic load-balancing pass over all CPUs.
    LoadBalance,
    /// Re-evaluate the DVFS state of `socket` after its active-core count
    /// changed (fires after the governor's reaction latency).
    FreqReeval {
        /// Socket index.
        socket: usize,
    },
    /// Stochastic turbo/dip transition of `socket`'s frequency process.
    FreqPulse {
        /// Socket index.
        socket: usize,
        /// Pulse-chain generation token.
        token: u64,
    },
    /// The frequency logger samples all core frequencies.
    FreqSample,
    /// A scheduled fault injection fires (index into the fault plan).
    FaultStart {
        /// Fault-plan index.
        idx: u32,
    },
    /// A timed fault window ends (CPU back online, frequency cap lifted).
    FaultEnd {
        /// Fault-plan index.
        idx: u32,
    },
    /// Next arrival of an active noise storm.
    FaultStormTick {
        /// Fault-plan index.
        idx: u32,
    },
}

/// Pack `(time, seq)` into one ordered key: ascending `u128` order is
/// ascending time with FIFO tie-break.
#[inline]
fn pack(time: Time, seq: u64) -> u128 {
    ((time as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> Time {
    (key >> 64) as Time
}

/// 4-ary min-heap over packed keys. Entries live in one contiguous
/// `Vec`; each sift-down step scans at most four children that sit next
/// to each other in memory. Sifts move a hole rather than swapping: the
/// travelling entry is written once, at its final slot.
#[derive(Debug)]
struct PackedHeap<P> {
    entries: Vec<(u128, P)>,
}

impl<P: Copy> PackedHeap<P> {
    const ARITY: usize = 4;

    fn with_capacity(cap: usize) -> Self {
        PackedHeap {
            entries: Vec::with_capacity(cap),
        }
    }

    #[inline]
    fn push(&mut self, key: u128, payload: P) {
        let mut hole = self.entries.len();
        self.entries.push((key, payload));
        while hole > 0 {
            let parent = (hole - 1) / Self::ARITY;
            if self.entries[parent].0 <= key {
                break;
            }
            self.entries[hole] = self.entries[parent];
            hole = parent;
        }
        self.entries[hole] = (key, payload);
        self.debug_check_slot(hole);
    }

    #[inline]
    fn pop(&mut self) -> Option<(u128, P)> {
        let moved = self.entries.pop()?;
        let n = self.entries.len();
        if n == 0 {
            return Some(moved);
        }
        let top = self.entries[0];
        // Sink the former last entry from the root.
        let mut hole = 0;
        loop {
            let first = hole * Self::ARITY + 1;
            if first >= n {
                break;
            }
            let last = (first + Self::ARITY).min(n);
            // Which child is smallest is data-dependent and a coin flip
            // for the branch predictor: select it without a branch.
            let mut best = first;
            let mut best_key = self.entries[first].0;
            for c in first + 1..last {
                let key = self.entries[c].0;
                let less = key < best_key;
                best = if less { c } else { best };
                best_key = if less { key } else { best_key };
            }
            if best_key >= moved.0 {
                break;
            }
            self.entries[hole] = self.entries[best];
            hole = best;
        }
        self.entries[hole] = moved;
        self.debug_check_slot(hole);
        Some(top)
    }

    /// Heap order around slot `i` after a sift settled there: parent
    /// key ≤ its key ≤ every child's key.
    #[inline]
    fn debug_check_slot(&self, i: usize) {
        if cfg!(debug_assertions) {
            let key = self.entries[i].0;
            assert!(i == 0 || self.entries[(i - 1) / Self::ARITY].0 <= key);
            let first = i * Self::ARITY + 1;
            for c in first..(first + Self::ARITY).min(self.entries.len()) {
                assert!(key <= self.entries[c].0);
            }
        }
    }

    #[inline]
    fn head(&self) -> Option<(u128, P)> {
        self.entries.first().copied()
    }

    /// Smallest key excluding the root: the minimum over the root's
    /// children (every other entry is dominated by one of them).
    #[inline]
    fn second_key(&self) -> Option<u128> {
        let n = self.entries.len();
        if n < 2 {
            return None;
        }
        self.entries[1..n.min(1 + Self::ARITY)]
            .iter()
            .map(|e| e.0)
            .min()
    }
}

/// The near tier's payload: a [`EventKind::CpuBoundary`] without its
/// tag, so a near entry is 32 bytes against the far tier's 48.
type Boundary = (u32, u64);

#[inline]
fn boundary_kind((cpu, token): Boundary) -> EventKind {
    EventKind::CpuBoundary {
        cpu: cpu as usize,
        token,
    }
}

/// Time-ordered event queue with deterministic FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue {
    /// `CpuBoundary` events only.
    near: PackedHeap<Boundary>,
    /// Every other kind.
    far: PackedHeap<EventKind>,
    seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Smallest reservation per tier: enough that a small simulator's
    /// steady state never regrows a heap mid-run.
    const MIN_CAPACITY: usize = 16;

    /// An empty queue at the minimum reservation.
    pub fn new() -> Self {
        EventQueue::with_capacity(0, 0)
    }

    /// An empty queue with room for `near` pending CPU boundaries and
    /// `far` pending events of every other kind (both raised to a small
    /// floor).
    pub fn with_capacity(near: usize, far: usize) -> Self {
        EventQueue {
            near: PackedHeap::with_capacity(near.max(Self::MIN_CAPACITY)),
            far: PackedHeap::with_capacity(far.max(Self::MIN_CAPACITY)),
            seq: 0,
        }
    }

    /// Does the earliest pending event sit in `near`? Keys are unique,
    /// so the two heads never tie.
    #[inline]
    fn head_is_near(&self) -> bool {
        match (self.near.entries.first(), self.far.entries.first()) {
            (Some(n), Some(f)) => n.0 < f.0,
            (n, _) => n.is_some(),
        }
    }

    /// Schedule `kind` at absolute time `time`.
    #[inline]
    pub fn push(&mut self, time: Time, kind: EventKind) {
        let key = pack(time, self.seq);
        self.seq += 1;
        match kind {
            EventKind::CpuBoundary { cpu, token } => {
                let cpu = u32::try_from(cpu).expect("hardware-thread index fits u32");
                self.near.push(key, (cpu, token));
            }
            other => self.far.push(key, other),
        }
    }

    /// Pop the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, EventKind)> {
        if self.head_is_near() {
            let (k, b) = self.near.pop()?;
            Some((unpack_time(k), boundary_kind(b)))
        } else {
            self.far.pop().map(|(k, kind)| {
                debug_assert!(!matches!(kind, EventKind::CpuBoundary { .. }));
                (unpack_time(k), kind)
            })
        }
    }

    /// The earliest pending event, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(Time, EventKind)> {
        if self.head_is_near() {
            let (k, b) = self.near.head()?;
            Some((unpack_time(k), boundary_kind(b)))
        } else {
            self.far.head().map(|(k, kind)| (unpack_time(k), kind))
        }
    }

    /// The time of the earliest pending event *excluding* the head;
    /// `None` when fewer than two events are pending. Used by the
    /// engine's idle-period fast-forward to bound how far a tick chain
    /// can be batched.
    #[inline]
    pub fn second_time(&self) -> Option<Time> {
        // The runner-up is either second in the head's own heap or the
        // head of the other one.
        let (own, other) = if self.head_is_near() {
            (self.near.second_key(), self.far.head().map(|e| e.0))
        } else {
            (self.far.second_key(), self.near.head().map(|e| e.0))
        };
        own.into_iter().chain(other).min().map(unpack_time)
    }

    /// Burn `n` sequence numbers without pushing. The idle-period
    /// fast-forward uses this so a batched tick chain leaves the seq
    /// counter — and therefore every future FIFO tie-break — exactly
    /// where the unbatched pop/push loop would have left it.
    #[inline]
    pub fn bump_seq(&mut self, n: u64) {
        self.seq += n;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near.entries.len() + self.far.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, EventKind::LoadBalance);
        q.push(10, EventKind::FreqSample);
        q.push(20, EventKind::LoadBalance);
        assert_eq!(q.pop().unwrap().0, 10);
        assert_eq!(q.pop().unwrap().0, 20);
        assert_eq!(q.pop().unwrap().0, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(5, EventKind::CpuBoundary { cpu: 1, token: 0 });
        q.push(5, EventKind::CpuBoundary { cpu: 2, token: 0 });
        q.push(5, EventKind::CpuBoundary { cpu: 3, token: 0 });
        let order: Vec<usize> = (0..3)
            .map(|_| match q.pop().unwrap().1 {
                EventKind::CpuBoundary { cpu, .. } => cpu,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, EventKind::LoadBalance);
        q.push(2, EventKind::LoadBalance);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_and_second_time_on_packed() {
        let boundary = |cpu| EventKind::CpuBoundary { cpu, token: 7 };
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        assert!(q.second_time().is_none());
        q.push(40, EventKind::LoadBalance);
        assert_eq!(q.peek(), Some((40, EventKind::LoadBalance)));
        assert!(q.second_time().is_none());
        // Head in the far tier, runner-up in the near one.
        q.push(10, EventKind::FreqSample);
        q.push(25, boundary(3));
        assert_eq!(q.peek(), Some((10, EventKind::FreqSample)));
        assert_eq!(q.second_time(), Some(25));
        // Head near, runner-up far.
        q.pop();
        assert_eq!(q.peek(), Some((25, boundary(3))));
        assert_eq!(q.second_time(), Some(40));
        // Head and runner-up both near; same-time tie stays FIFO.
        q.push(25, boundary(4));
        assert_eq!(q.peek(), Some((25, boundary(3))));
        assert_eq!(q.second_time(), Some(25));
        q.pop();
        assert_eq!(q.pop(), Some((25, boundary(4))));
        assert_eq!(q.pop(), Some((40, EventKind::LoadBalance)));
        // A lone boundary has no runner-up.
        q.push(u64::MAX, boundary(0));
        assert_eq!(q.peek(), Some((u64::MAX, boundary(0))));
        assert!(q.second_time().is_none());
    }
}

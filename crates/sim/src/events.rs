//! The discrete-event core: event kinds and the time-ordered queue.
//!
//! The queue is three tiers under one global `seq`. Each entry carries
//! a `key` that packs `(time, seq)` into one `u128`, so ordering is a
//! single integer compare.
//!
//! - **lane**: a ring of [`EventKind::CpuBoundary`] entries in strictly
//!   ascending key order. A boundary whose key is above the lane's back
//!   is appended in O(1); a lockstep team retires its timed micro-ops in
//!   waves, so most boundary pushes land behind every pending boundary.
//! - **near**: a 4-ary min-heap of the boundaries that arrived out of
//!   order, as typed 32-byte entries.
//! - **far**: a 4-ary min-heap of every other kind. In a noisy regime
//!   ~99.9 % of pops are boundaries while the far tier parks hundreds of
//!   long-period timers (one noise stream per CPU, a tick per busy CPU,
//!   the balancer, the DVFS pulses): kept apart, a boundary never sifts
//!   through the parked timers.
//!
//! `pop` takes the smallest of the three heads. Keys are unique (`seq`
//! never repeats), so the pending set is totally ordered; splitting it
//! into sorted parts and merging by head compare pops the identical
//! sequence a single heap would, whichever part holds a key.
//!
//! The lane's worst case is an outlier at its back (a long op, a
//! quantum end): every later boundary with a smaller key goes to the
//! near heap until the outlier pops. That costs what a heap-only queue
//! costs, plus one compare per push.
//!
//! Pops come in ascending `(time, seq)` order — earliest first, ties
//! broken FIFO by insertion sequence — which is what makes the engine's
//! replay deterministic. `tests/queue_props.rs` holds the queue to a
//! sorted-map model of exactly that order.

use crate::time::Time;
use std::collections::VecDeque;

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

#[inline]
fn unpack_seq(key: u128) -> u64 {
    key as u64
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

/// The lane's and the near tier's payload: a [`EventKind::CpuBoundary`]
/// without its tag, so a boundary entry is 32 bytes against the far
/// tier's 48.
type Boundary = (u32, u64);

#[inline]
fn boundary_kind((cpu, token): Boundary) -> EventKind {
    EventKind::CpuBoundary {
        cpu: cpu as usize,
        token,
    }
}

/// Which tier holds the earliest pending event.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Lane,
    Near,
    Far,
}

/// Time-ordered event queue with deterministic FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue {
    /// `CpuBoundary` events that arrived in key order, smallest first.
    lane: VecDeque<(u128, Boundary)>,
    /// `CpuBoundary` events that arrived behind the lane's back.
    near: PackedHeap<Boundary>,
    /// Every other kind.
    far: PackedHeap<EventKind>,
    seq: u64,
    /// Pushes and pops the far tier has seen: unchanged across a stretch
    /// of events iff no far-tier event was scheduled or handled in it.
    far_ops: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Smallest reservation for the lane and the far tier: enough that a
    /// small simulator's steady state never regrows them mid-run.
    const MIN_CAPACITY: usize = 16;

    /// An empty queue at the minimum reservation.
    pub fn new() -> Self {
        EventQueue::with_capacity(0, 0)
    }

    /// An empty queue with room for `boundaries` pending CPU boundaries
    /// and `far` pending events of every other kind (both raised to a
    /// small floor). The boundary reservation goes to the lane; the near
    /// heap starts empty and grows on its first out-of-order push.
    pub fn with_capacity(boundaries: usize, far: usize) -> Self {
        EventQueue {
            lane: VecDeque::with_capacity(boundaries.max(Self::MIN_CAPACITY)),
            near: PackedHeap::with_capacity(0),
            far: PackedHeap::with_capacity(far.max(Self::MIN_CAPACITY)),
            seq: 0,
            far_ops: 0,
        }
    }

    /// The tier whose head is the earliest pending event. Keys are
    /// unique, so heads never tie.
    #[inline]
    fn head_tier(&self) -> Option<Tier> {
        let lane = self.lane.front().map(|e| e.0);
        let near = self.near.entries.first().map(|e| e.0);
        let boundary = match (lane, near) {
            (Some(l), Some(n)) if n < l => Some((n, Tier::Near)),
            (Some(l), _) => Some((l, Tier::Lane)),
            (None, n) => n.map(|n| (n, Tier::Near)),
        };
        match (boundary, self.far.entries.first()) {
            (Some((b, _)), Some(f)) if f.0 < b => Some(Tier::Far),
            (Some((_, tier)), _) => Some(tier),
            (None, f) => f.map(|_| Tier::Far),
        }
    }

    /// The lane is strictly ascending around its back after a push.
    #[inline]
    fn debug_check_lane_back(&self) {
        if cfg!(debug_assertions) {
            let n = self.lane.len();
            assert!(n < 2 || self.lane[n - 2].0 < self.lane[n - 1].0);
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
                if self.lane.back().is_none_or(|back| back.0 < key) {
                    self.lane.push_back((key, (cpu, token)));
                    self.debug_check_lane_back();
                } else {
                    self.near.push(key, (cpu, token));
                }
            }
            other => {
                self.far_ops += 1;
                self.far.push(key, other);
            }
        }
    }

    /// Pop the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, EventKind)> {
        let head = self.head_tier()?;
        let (k, kind) = match head {
            Tier::Lane => self.lane.pop_front().map(|(k, b)| (k, boundary_kind(b)))?,
            Tier::Near => self.near.pop().map(|(k, b)| (k, boundary_kind(b)))?,
            Tier::Far => {
                self.far_ops += 1;
                self.far.pop()?
            }
        };
        debug_assert_eq!(matches!(kind, EventKind::CpuBoundary { .. }), head != Tier::Far);
        Some((unpack_time(k), kind))
    }

    /// The earliest pending event, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(Time, EventKind)> {
        let (k, kind) = match self.head_tier()? {
            Tier::Lane => self.lane.front().map(|&(k, b)| (k, boundary_kind(b)))?,
            Tier::Near => self.near.head().map(|(k, b)| (k, boundary_kind(b)))?,
            Tier::Far => self.far.head()?,
        };
        Some((unpack_time(k), kind))
    }

    /// The time of the earliest pending event *excluding* the head;
    /// `None` when fewer than two events are pending. Used by the
    /// engine's idle-period fast-forward to bound how far a tick chain
    /// can be batched.
    #[inline]
    pub fn second_time(&self) -> Option<Time> {
        // The runner-up is either second in the head's own tier or the
        // head of another one.
        let lane = self.lane.front().map(|e| e.0);
        let near = self.near.head().map(|e| e.0);
        let far = self.far.head().map(|e| e.0);
        let (own, other, third) = match self.head_tier()? {
            Tier::Lane => (self.lane.get(1).map(|e| e.0), near, far),
            Tier::Near => (self.near.second_key(), lane, far),
            Tier::Far => (self.far.second_key(), lane, near),
        };
        [own, other, third].into_iter().flatten().min().map(unpack_time)
    }

    /// Burn `n` sequence numbers without pushing. The idle-period
    /// fast-forward uses this so a batched tick chain leaves the seq
    /// counter — and therefore every future FIFO tie-break — exactly
    /// where the unbatched pop/push loop would have left it.
    #[inline]
    pub fn bump_seq(&mut self, n: u64) {
        self.seq += n;
    }

    /// Far-tier pushes and pops so far (see the field).
    #[inline]
    pub(crate) fn far_ops(&self) -> u64 {
        self.far_ops
    }

    /// Time of the earliest pending event of the far tier: every kind but
    /// [`EventKind::CpuBoundary`].
    #[inline]
    pub(crate) fn far_head_time(&self) -> Option<Time> {
        self.far.head().map(|(k, _)| unpack_time(k))
    }

    /// The pending boundaries (lane, then the near heap in slot order),
    /// each as four words taken relative to `now`, to the seq counter and
    /// to its CPU's current token: `time - now`, `seq counter - seq`, the
    /// CPU, `token_of(cpu) - token`. Two queues whose boundaries encode
    /// alike pop them alike, up to a uniform shift.
    pub(crate) fn boundary_words(
        &self,
        now: Time,
        token_of: impl Fn(usize) -> u64,
        out: &mut Vec<u64>,
    ) {
        out.push(self.lane.len() as u64);
        out.push(self.near.entries.len() as u64);
        for &(key, (cpu, token)) in self.lane.iter().chain(&self.near.entries) {
            out.extend([
                unpack_time(key) - now,
                self.seq - unpack_seq(key),
                u64::from(cpu),
                token_of(cpu as usize).wrapping_sub(token),
            ]);
        }
    }

    /// Shift every pending boundary by `dt` in time and `ds` in seq, and
    /// its token by `token_shift(cpu)`; advance the seq counter by `ds`.
    /// The far tier stays where it is. A uniform shift keeps the lane
    /// sorted and the near heap ordered, and, like [`Self::bump_seq`],
    /// leaves every later tie-break where the unshifted run would put it.
    pub(crate) fn shift_boundaries(
        &mut self,
        dt: Time,
        ds: u64,
        token_shift: impl Fn(usize) -> u64,
    ) {
        let shift = pack(dt, ds);
        for (key, (cpu, token)) in self.lane.iter_mut().chain(&mut self.near.entries) {
            debug_assert!(unpack_seq(*key).checked_add(ds).is_some(), "seq overflow");
            *key += shift;
            *token = token.wrapping_add(token_shift(*cpu as usize));
        }
        self.seq += ds;
    }

    /// The seq number the next push takes.
    #[inline]
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.near.entries.len() + self.far.entries.len()
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

    #[test]
    fn an_outlier_at_the_lane_back_sends_earlier_boundaries_to_the_heap() {
        let boundary = |cpu| EventKind::CpuBoundary { cpu, token: 0 };
        let mut q = EventQueue::new();
        q.push(10, boundary(0));
        q.push(1_000, boundary(1)); // the outlier: a long op
        q.push(20, boundary(2)); // behind the back: near heap
        q.push(20, boundary(3)); // ties FIFO with cpu 2, also near
        q.push(15, EventKind::FreqSample);
        q.push(1_000, boundary(4)); // equal time, later seq: the lane again
        assert_eq!((q.lane.len(), q.near.entries.len()), (3, 2));
        assert_eq!(q.second_time(), Some(15));
        let order: Vec<(Time, EventKind)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (10, boundary(0)),
                (15, EventKind::FreqSample),
                (20, boundary(2)),
                (20, boundary(3)),
                (1_000, boundary(1)),
                (1_000, boundary(4)),
            ]
        );
        // Once the outlier has popped, in-order pushes use the lane again.
        q.push(1_500, boundary(5));
        q.push(1_600, boundary(6));
        assert_eq!((q.lane.len(), q.near.entries.len()), (2, 0));
    }

    #[test]
    fn a_uniform_shift_moves_every_boundary_and_leaves_the_far_tier() {
        let boundary = |cpu, token| EventKind::CpuBoundary { cpu, token };
        let mut q = EventQueue::new();
        q.push(10, boundary(0, 5));
        q.push(1_000, boundary(1, 7)); // the lane's back
        q.push(20, boundary(2, 9)); // behind it: near
        q.push(500, EventKind::LoadBalance);
        assert_eq!((q.far_ops(), q.far_head_time(), q.seq()), (1, Some(500), 4));
        // Relative to now = 5, seq counter 4 and tokens 5, 7, 10.
        let tokens = [5, 7, 10];
        let mut words = Vec::new();
        q.boundary_words(5, |cpu| tokens[cpu], &mut words);
        assert_eq!(words, [2, 1, 5, 4, 0, 0, 995, 3, 1, 0, 15, 2, 2, 1]);
        // Shift by 100 ns and 10 seqs; CPU c's tokens by c.
        q.shift_boundaries(100, 10, |cpu| cpu as u64);
        let mut shifted = Vec::new();
        q.boundary_words(105, |cpu| tokens[cpu] + cpu as u64, &mut shifted);
        assert_eq!(shifted, words, "a shift keeps every relative word");
        assert_eq!((q.far_ops(), q.far_head_time(), q.seq()), (1, Some(500), 14));
        let order: Vec<(Time, EventKind)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (110, boundary(0, 5)),
                (120, boundary(2, 11)),
                (500, EventKind::LoadBalance),
                (1_100, boundary(1, 8)),
            ]
        );
        assert_eq!(q.far_ops(), 2, "the far pop counts too");
    }
}

//! Shared synchronization objects: barriers, locks, atomics, work-shared
//! loops (with `ordered` support) and `single` constructs.
//!
//! Objects hold pure state; all timing decisions (who pays what, who wakes
//! whom) are made by the engine. Every object carries a `span_factor`, the
//! topology multiplier applied to its contention costs — 1.0 when all
//! participants share a NUMA domain, up to the configured cross-socket
//! factor when they span sockets (set by the runtime layer that creates
//! the objects).

use crate::task::{CorunClass, TaskId};
use std::collections::VecDeque;

/// Schedule kind of a work-shared loop, mirroring `omp for schedule(...)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopSchedule {
    /// `schedule(static, chunk)`: chunks assigned round-robin at compile
    /// time; no shared state, negligible dispatch cost.
    Static {
        /// Chunk size in iterations.
        chunk: u64,
    },
    /// `schedule(dynamic, chunk)`: chunks grabbed from a shared counter;
    /// dispatch cost grows with contention.
    Dynamic {
        /// Chunk size in iterations.
        chunk: u64,
    },
    /// `schedule(guided, min_chunk)`: exponentially shrinking chunks of at
    /// least `min_chunk` iterations, grabbed from a shared counter.
    Guided {
        /// Minimum chunk size in iterations.
        min_chunk: u64,
    },
}

/// Specification of a work-shared loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpec {
    /// Schedule kind.
    pub schedule: LoopSchedule,
    /// Total iterations of the loop (across all threads).
    pub total_iters: u64,
    /// Team size participating in the loop.
    pub n_threads: usize,
    /// Compute cycles of one loop-body iteration.
    pub body_cycles: f64,
    /// SMT class of the body.
    pub body_class: CorunClass,
    /// Fixed per-iteration ordered-section duration, if this is an
    /// `ordered` loop (per-iteration tickets are then enforced).
    pub ordered_section_ns: Option<f64>,
    /// For dynamic schedules: how many chunks one grab hands out. This is
    /// a simulation-granularity knob (events per loop scale as
    /// `1/batch`), not a semantic change: cost is still charged per chunk
    /// and load balancing happens at `batch × chunk` granularity.
    pub batch: u32,
    /// Topology contention multiplier of the team (≥ 1.0).
    pub span_factor: f64,
}

impl LoopSpec {
    fn chunks_total(&self, chunk: u64) -> u64 {
        self.total_iters.div_ceil(chunk)
    }
}

/// One grab's worth of work handed to a task: the contiguous iterations
/// `[first_iter, first_iter + iters)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grab {
    /// First iteration index of the grabbed work.
    pub first_iter: u64,
    /// Number of iterations grabbed.
    pub iters: u64,
    /// Number of logical dispatch operations this grab amortizes (for
    /// overhead pricing: `n_grabs × per-grab cost`).
    pub n_grabs: u64,
}

/// Work-shared loop state.
#[derive(Debug)]
pub struct LoopObj {
    /// Immutable specification.
    pub spec: LoopSpec,
    /// Pass (generation) counter: incremented each time all threads have
    /// observed exhaustion, so the same object can be reused across
    /// repetitions.
    pub generation: u64,
    /// Next unassigned iteration (dynamic/guided).
    pub(crate) next_iter: u64,
    /// Threads that have entered the loop this generation.
    pub entered: usize,
    /// Threads that have observed exhaustion this generation.
    pub(crate) finished: usize,
    /// Ordered-ticket state: next iteration allowed into the section.
    pub ordered_next: u64,
    /// Tasks spinning for their ordered ticket, keyed by iteration.
    pub ordered_waiters: Vec<(u64, TaskId)>,
    /// Effect counter: total iterations handed out across all generations.
    pub iters_executed: u64,
    /// Effect counter: completed passes (generation resets).
    pub passes: u64,
    /// Effect counter: completed ordered sections across all generations.
    pub ordered_done: u64,
}

impl LoopObj {
    /// New loop object from a spec.
    pub fn new(spec: LoopSpec) -> Self {
        assert!(spec.total_iters > 0, "loop must have iterations");
        assert!(spec.n_threads > 0, "loop needs threads");
        assert!(spec.batch >= 1, "batch must be ≥ 1");
        if let LoopSchedule::Static { chunk } | LoopSchedule::Dynamic { chunk } = spec.schedule {
            assert!(chunk > 0, "chunk must be positive");
        }
        if let LoopSchedule::Guided { min_chunk } = spec.schedule {
            assert!(min_chunk > 0, "min_chunk must be positive");
        }
        LoopObj {
            spec,
            generation: 0,
            next_iter: 0,
            entered: 0,
            finished: 0,
            ordered_next: 0,
            ordered_waiters: Vec::new(),
            iters_executed: 0,
            passes: 0,
            ordered_done: 0,
        }
    }

    /// Threads concurrently inside the loop this generation (contention
    /// proxy for dispatch pricing).
    pub fn active(&self) -> usize {
        self.entered.saturating_sub(self.finished)
    }

    /// Grab the next piece of work for the task with team rank `rank`,
    /// whose private static position is tracked in `(task_gen, task_pos)`
    /// (owned by the task, managed here).
    ///
    /// Returns `None` when the loop is exhausted for this thread; the
    /// caller must then invoke [`LoopObj::observe_exhausted`] exactly once.
    pub fn grab(&mut self, rank: usize, task_gen: &mut u64, task_pos: &mut u64) -> Option<Grab> {
        let g = self.grab_inner(rank, task_gen, task_pos);
        if let Some(g) = g {
            self.iters_executed += g.iters;
        }
        g
    }

    fn grab_inner(&mut self, rank: usize, task_gen: &mut u64, task_pos: &mut u64) -> Option<Grab> {
        if *task_gen != self.generation {
            *task_gen = self.generation;
            *task_pos = 0;
            self.entered += 1;
        }
        let n = self.spec.n_threads as u64;
        match self.spec.schedule {
            LoopSchedule::Static { chunk } => {
                // One chunk per grab, the thread's round-robin share in
                // order.
                let chunk_idx = *task_pos * n + rank as u64;
                if chunk_idx >= self.spec.chunks_total(chunk) {
                    return None;
                }
                *task_pos += 1;
                let first = chunk_idx * chunk;
                let iters = chunk.min(self.spec.total_iters - first);
                Some(Grab {
                    first_iter: first,
                    iters,
                    n_grabs: 1,
                })
            }
            LoopSchedule::Dynamic { chunk } => {
                if self.next_iter >= self.spec.total_iters {
                    return None;
                }
                let batch = if self.spec.ordered_section_ns.is_some() {
                    1
                } else {
                    self.spec.batch as u64
                };
                let first = self.next_iter;
                let want = (chunk * batch).min(self.spec.total_iters - first);
                self.next_iter += want;
                Some(Grab {
                    first_iter: first,
                    iters: want,
                    n_grabs: want.div_ceil(chunk),
                })
            }
            LoopSchedule::Guided { min_chunk } => {
                if self.next_iter >= self.spec.total_iters {
                    return None;
                }
                let remaining = self.spec.total_iters - self.next_iter;
                let size = remaining.div_ceil(2 * n).max(min_chunk).min(remaining);
                let first = self.next_iter;
                self.next_iter += size;
                Some(Grab {
                    first_iter: first,
                    iters: size,
                    n_grabs: 1,
                })
            }
        }
    }

    /// Record that one thread observed exhaustion. When all threads have,
    /// the loop resets for the next generation. Returns `true` on reset.
    pub fn observe_exhausted(&mut self) -> bool {
        self.finished += 1;
        debug_assert!(self.finished <= self.spec.n_threads);
        if self.finished == self.spec.n_threads {
            self.passes += 1;
            self.generation += 1;
            self.next_iter = 0;
            self.entered = 0;
            self.finished = 0;
            self.ordered_next = 0;
            debug_assert!(self.ordered_waiters.is_empty());
            true
        } else {
            false
        }
    }

    /// Ordered support: is iteration `iter` allowed into the section now?
    pub fn ticket_ready(&self, iter: u64) -> bool {
        self.ordered_next == iter
    }

    /// Ordered support: the section for the current ticket completed.
    /// Advances the ticket and pops the waiter for the next iteration, if
    /// it is already spinning.
    pub fn ticket_advance(&mut self) -> Option<TaskId> {
        self.ordered_done += 1;
        self.ordered_next += 1;
        let next = self.ordered_next;
        if let Some(pos) = self.ordered_waiters.iter().position(|&(i, _)| i == next) {
            Some(self.ordered_waiters.swap_remove(pos).1)
        } else {
            None
        }
    }
}

/// Barrier state.
#[derive(Debug)]
pub struct BarrierObj {
    /// Team size.
    pub n: usize,
    /// Threads arrived in the current round.
    pub arrived: usize,
    /// Tasks spin-waiting for the release.
    pub waiters: Vec<TaskId>,
    /// CPU of the most recent arriver (used to price release distance).
    pub last_cpu: usize,
    /// Topology contention multiplier (≥ 1.0).
    pub span_factor: f64,
    /// Effect counter: total per-thread arrivals across all rounds.
    pub arrivals: u64,
    /// Recycled waiter storage: `release` hands the caller the waiter
    /// list and installs this spare in its place, so a barrier executed
    /// round after round re-uses two allocations instead of growing a
    /// fresh `Vec` every round. Give drained lists back via
    /// [`BarrierObj::recycle`].
    pub(crate) spare: Vec<TaskId>,
}

impl BarrierObj {
    /// New barrier for a team of `n`.
    pub fn new(n: usize, span_factor: f64) -> Self {
        assert!(n > 0);
        BarrierObj {
            n,
            arrived: 0,
            waiters: Vec::with_capacity(n),
            last_cpu: 0,
            span_factor,
            arrivals: 0,
            spare: Vec::new(),
        }
    }

    /// Register an arrival. Returns `true` when this arrival completes the
    /// round (the caller then drains `waiters` and resets).
    pub fn arrive(&mut self, cpu: usize) -> bool {
        self.arrivals += 1;
        self.arrived += 1;
        self.last_cpu = cpu;
        debug_assert!(self.arrived <= self.n);
        self.arrived == self.n
    }

    /// Reset after a completed round, returning the waiter list.
    ///
    /// The returned `Vec` should come back through
    /// [`BarrierObj::recycle`] once drained; until then the barrier runs
    /// on its spare storage.
    pub fn release(&mut self) -> Vec<TaskId> {
        self.arrived = 0;
        let out = std::mem::take(&mut self.waiters);
        self.waiters = std::mem::take(&mut self.spare);
        out
    }

    /// Return a drained waiter list taken from [`BarrierObj::release`]
    /// so the next round re-uses its capacity.
    pub fn recycle(&mut self, mut v: Vec<TaskId>) {
        v.clear();
        if v.capacity() > self.spare.capacity() {
            self.spare = v;
        }
    }
}

/// Spin-lock state (used for `critical`, explicit locks, and serialized
/// reduction combines).
#[derive(Debug)]
pub struct LockObj {
    /// Current holder.
    pub holder: Option<TaskId>,
    /// Tasks spin-waiting for the lock, FIFO handoff.
    pub queue: VecDeque<TaskId>,
    /// Topology contention multiplier (≥ 1.0).
    pub span_factor: f64,
    /// Effect counter: times the lock was entered (ownership installed).
    pub entries: u64,
}

impl LockObj {
    /// New free lock.
    pub fn new(span_factor: f64) -> Self {
        LockObj {
            holder: None,
            queue: VecDeque::new(),
            span_factor,
            entries: 0,
        }
    }

    /// Try to acquire for `t`: returns `true` on success, otherwise queues.
    pub fn acquire(&mut self, t: TaskId) -> bool {
        if self.holder.is_none() {
            self.holder = Some(t);
            self.entries += 1;
            true
        } else {
            self.queue.push_back(t);
            false
        }
    }

    /// Release by `t`; returns the next holder (already installed), if any.
    pub fn release(&mut self, t: TaskId) -> Option<TaskId> {
        assert_eq!(self.holder, Some(t), "release by non-holder");
        self.holder = self.queue.pop_front();
        if self.holder.is_some() {
            self.entries += 1;
        }
        self.holder
    }
}

/// Contended-atomic state: tracks how many tasks are currently executing
/// an RMW on this object so the engine can price new ones.
#[derive(Debug)]
pub struct AtomicObj {
    /// In-flight RMW count.
    pub active: usize,
    /// Topology contention multiplier (≥ 1.0).
    pub span_factor: f64,
    /// Effect counter: total RMW operations started.
    pub ops: u64,
}

impl AtomicObj {
    /// New idle atomic.
    pub fn new(span_factor: f64) -> Self {
        AtomicObj {
            active: 0,
            span_factor,
            ops: 0,
        }
    }
}

/// `single` construct state.
#[derive(Debug)]
pub struct SingleObj {
    /// Team size.
    pub n: usize,
    /// Total entries so far; entry `k` wins iff `k % n == 0`. Correct as
    /// long as rounds are separated by a barrier (which the OpenMP
    /// `single` construct's implicit barrier guarantees).
    pub count: u64,
    /// Effect counter: rounds won (bodies actually executed).
    pub wins: u64,
}

impl SingleObj {
    /// New `single` tracker for a team of `n`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        SingleObj { n, count: 0, wins: 0 }
    }

    /// Register an entry; returns `true` for the round's winner.
    pub fn enter(&mut self) -> bool {
        let win = self.count.is_multiple_of(self.n as u64);
        self.count += 1;
        if win {
            self.wins += 1;
        }
        win
    }
}

/// Explicit-task pool (`omp task` / `taskwait` semantics).
///
/// Spawned tasks queue here; team threads execute them at scheduling
/// points (task-wait), and a thread at task-wait with an empty queue
/// spins until every outstanding task has completed.
#[derive(Debug)]
pub struct TaskPoolObj {
    /// Queued, not-yet-started task bodies (compute cycles each).
    pub pending: VecDeque<f64>,
    /// Tasks spawned but not yet finished (queued + executing).
    pub outstanding: usize,
    /// Threads spin-waiting for `outstanding == 0`.
    pub waiters: Vec<TaskId>,
    /// Topology contention multiplier (≥ 1.0).
    pub span_factor: f64,
    /// Team size stealing from this pool (dispatch-contention proxy).
    pub participants: usize,
    /// Threads spawning concurrently into this pool (spawn-contention
    /// proxy: 1 for a master-only producer, the team size for
    /// all-threads-spawn patterns).
    pub spawners: usize,
    /// Effect counter: total tasks ever spawned into the pool.
    pub spawned: u64,
    /// Effect counter: total tasks that ran to completion.
    pub executed: u64,
    /// Recycled waiter storage (see [`BarrierObj::recycle`]): the drain
    /// in [`TaskPoolObj::complete`] hands out the waiter list and runs
    /// on this spare until the caller gives the list back.
    pub(crate) spare: Vec<TaskId>,
}

impl TaskPoolObj {
    /// New empty pool for a team of `participants` with `spawners`
    /// concurrent producers.
    pub fn new(span_factor: f64, participants: usize, spawners: usize) -> Self {
        assert!(participants > 0 && spawners > 0);
        TaskPoolObj {
            pending: VecDeque::new(),
            outstanding: 0,
            waiters: Vec::new(),
            span_factor,
            participants,
            spawners,
            spawned: 0,
            executed: 0,
            spare: Vec::new(),
        }
    }

    /// Spawn one task of `cycles` body work.
    pub fn spawn(&mut self, cycles: f64) {
        self.pending.push_back(cycles);
        self.outstanding += 1;
        self.spawned += 1;
    }

    /// Grab the next queued task body, if any.
    pub fn steal(&mut self) -> Option<f64> {
        self.pending.pop_front()
    }

    /// One task finished. Returns the waiters to wake when the pool
    /// drained completely.
    ///
    /// A non-empty return should come back through
    /// [`TaskPoolObj::recycle`] once drained (an empty one is
    /// allocation-free and can simply be dropped).
    pub fn complete(&mut self) -> Vec<TaskId> {
        debug_assert!(self.outstanding > 0);
        self.outstanding -= 1;
        self.executed += 1;
        if self.outstanding == 0 {
            let out = std::mem::take(&mut self.waiters);
            self.waiters = std::mem::take(&mut self.spare);
            out
        } else {
            Vec::new()
        }
    }

    /// Return a drained waiter list taken from [`TaskPoolObj::complete`]
    /// so later task-waits re-use its capacity.
    pub fn recycle(&mut self, mut v: Vec<TaskId>) {
        v.clear();
        if v.capacity() > self.spare.capacity() {
            self.spare = v;
        }
    }
}

/// The engine's sync-object table entry.
#[derive(Debug)]
pub enum SyncObj {
    /// Barrier.
    Barrier(BarrierObj),
    /// Lock.
    Lock(LockObj),
    /// Work-shared loop.
    Loop(LoopObj),
    /// Contended atomic.
    Atomic(AtomicObj),
    /// `single` tracker.
    Single(SingleObj),
    /// Explicit-task pool.
    TaskPool(TaskPoolObj),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(schedule: LoopSchedule, total: u64, n: usize) -> LoopSpec {
        LoopSpec {
            schedule,
            total_iters: total,
            n_threads: n,
            body_cycles: 1.0,
            body_class: CorunClass::Latency,
            ordered_section_ns: None,
            batch: 1,
            span_factor: 1.0,
        }
    }

    /// Drive a loop to exhaustion for all threads, returning per-thread
    /// iteration counts and checking the partition property.
    fn drain(obj: &mut LoopObj) -> Vec<u64> {
        let n = obj.spec.n_threads;
        let mut got = vec![0u64; n];
        let mut gens = vec![u64::MAX; n];
        let mut poss = vec![0u64; n];
        let mut covered = vec![false; obj.spec.total_iters as usize];
        let mut done = vec![false; n];
        // Round-robin grabbing to mimic concurrent threads.
        while done.iter().any(|d| !d) {
            for r in 0..n {
                if done[r] {
                    continue;
                }
                match obj.grab(r, &mut gens[r], &mut poss[r]) {
                    Some(g) => {
                        got[r] += g.iters;
                        for i in g.first_iter..g.first_iter + g.iters {
                            assert!(!covered[i as usize], "iteration {i} double-assigned");
                            covered[i as usize] = true;
                        }
                    }
                    None => {
                        done[r] = true;
                        obj.observe_exhausted();
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "not all iterations covered");
        got
    }

    #[test]
    fn static_partitions_exactly() {
        let mut l = LoopObj::new(spec(LoopSchedule::Static { chunk: 3 }, 100, 4));
        let got = drain(&mut l);
        assert_eq!(got.iter().sum::<u64>(), 100);
        // static,3 over 100 iters: 34 chunks round-robin.
        assert_eq!(got[0], 3 * 9); // chunks 0,4,8,...,32 → 9 chunks
    }

    #[test]
    fn dynamic_partitions_exactly_with_batching() {
        for batch in [1u32, 4, 16] {
            let mut s = spec(LoopSchedule::Dynamic { chunk: 2 }, 101, 3);
            s.batch = batch;
            let mut l = LoopObj::new(s);
            let got = drain(&mut l);
            assert_eq!(got.iter().sum::<u64>(), 101);
        }
    }

    #[test]
    fn guided_chunks_shrink() {
        let mut l = LoopObj::new(spec(LoopSchedule::Guided { min_chunk: 1 }, 1000, 4));
        let mut gen = u64::MAX;
        let mut pos = 0;
        let first = l.grab(0, &mut gen, &mut pos).unwrap();
        let second = l.grab(0, &mut gen, &mut pos).unwrap();
        assert_eq!(first.iters, 125); // 1000 / (2*4)
        assert!(second.iters <= first.iters);
        // Guided also covers everything exactly once.
        let mut l = LoopObj::new(spec(LoopSchedule::Guided { min_chunk: 7 }, 500, 3));
        let got = drain(&mut l);
        assert_eq!(got.iter().sum::<u64>(), 500);
    }

    #[test]
    fn loop_resets_for_next_generation() {
        let mut l = LoopObj::new(spec(LoopSchedule::Dynamic { chunk: 5 }, 10, 2));
        let g0 = l.generation;
        drain(&mut l);
        assert_eq!(l.generation, g0 + 1);
        // Second pass also covers everything.
        let got = drain(&mut l);
        assert_eq!(got.iter().sum::<u64>(), 10);
    }

    #[test]
    #[allow(clippy::while_let_loop)]
    fn dynamic_load_follows_grabbing_speed() {
        // A thread that grabs twice as often gets roughly twice the work.
        let mut l = LoopObj::new(spec(LoopSchedule::Dynamic { chunk: 1 }, 90, 2));
        let (mut g0, mut p0, mut g1, mut p1) = (u64::MAX, 0, u64::MAX, 0);
        let mut got = [0u64; 2];
        loop {
            match l.grab(0, &mut g0, &mut p0) {
                Some(g) => got[0] += g.iters,
                None => break,
            }
            match l.grab(0, &mut g0, &mut p0) {
                Some(g) => got[0] += g.iters,
                None => break,
            }
            match l.grab(1, &mut g1, &mut p1) {
                Some(g) => got[1] += g.iters,
                None => break,
            }
        }
        assert!(got[0] > got[1]);
    }

    #[test]
    fn barrier_round_trip() {
        let mut b = BarrierObj::new(3, 1.0);
        assert!(!b.arrive(0));
        b.waiters.push(TaskId(0));
        assert!(!b.arrive(1));
        b.waiters.push(TaskId(1));
        assert!(b.arrive(2));
        let w = b.release();
        assert_eq!(w.len(), 2);
        assert_eq!(b.arrived, 0);
    }

    #[test]
    fn lock_fifo_handoff() {
        let mut l = LockObj::new(1.0);
        assert!(l.acquire(TaskId(1)));
        assert!(!l.acquire(TaskId(2)));
        assert!(!l.acquire(TaskId(3)));
        assert_eq!(l.release(TaskId(1)), Some(TaskId(2)));
        assert_eq!(l.release(TaskId(2)), Some(TaskId(3)));
        assert_eq!(l.release(TaskId(3)), None);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn lock_release_by_non_holder_panics() {
        let mut l = LockObj::new(1.0);
        l.acquire(TaskId(1));
        l.release(TaskId(2));
    }

    #[test]
    fn single_one_winner_per_round() {
        let mut s = SingleObj::new(4);
        let wins: Vec<bool> = (0..8).map(|_| s.enter()).collect();
        assert_eq!(wins.iter().filter(|&&w| w).count(), 2);
        assert!(wins[0] && wins[4]);
    }

    #[test]
    fn task_pool_spawn_steal_complete() {
        let mut p = TaskPoolObj::new(1.0, 4, 4);
        p.spawn(10.0);
        p.spawn(20.0);
        assert_eq!(p.outstanding, 2);
        assert_eq!(p.steal(), Some(10.0));
        assert!(p.complete().is_empty());
        p.waiters.push(TaskId(5));
        assert_eq!(p.steal(), Some(20.0));
        assert_eq!(p.steal(), None);
        assert_eq!(p.complete(), vec![TaskId(5)]);
        assert_eq!(p.outstanding, 0);
    }

    #[test]
    fn ordered_tickets_advance_and_wake() {
        let mut l = LoopObj::new(LoopSpec {
            ordered_section_ns: Some(10.0),
            ..spec(LoopSchedule::Static { chunk: 1 }, 4, 2)
        });
        assert!(l.ticket_ready(0));
        assert!(!l.ticket_ready(1));
        l.ordered_waiters.push((1, TaskId(9)));
        assert_eq!(l.ticket_advance(), Some(TaskId(9)));
        assert!(l.ticket_ready(1));
        assert_eq!(l.ticket_advance(), None);
    }
}

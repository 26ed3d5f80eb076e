//! Native work-sharing loop state: static/dynamic/guided chunk dispatch
//! with `ordered` tickets, reusable across repetitions.

use super::guard::RunGuard;
use super::wait::wait_until;
use crate::region::Schedule;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shared state of one work-shared loop construct.
///
/// The object is reusable across repetitions: when every team thread has
/// observed exhaustion, the last one resets the shared counters and bumps
/// the generation. A repetition must be separated from the next by the
/// loop's implicit barrier (i.e. `nowait` loops must not be repeated).
#[derive(Debug)]
pub struct NativeLoop {
    /// Schedule kind.
    pub schedule: Schedule,
    /// Total iterations.
    pub total: u64,
    /// Team size.
    pub n_threads: usize,
    /// Next unassigned iteration (dynamic/guided).
    next: AtomicU64,
    /// Threads that observed exhaustion this generation.
    finished: AtomicUsize,
    /// Generation counter.
    generation: AtomicU64,
    /// Ordered-section ticket: next iteration allowed in.
    pub ticket: AtomicU64,
    /// Effect counter: iterations handed out across all generations.
    iters: AtomicU64,
    /// Effect counter: completed passes (generation resets).
    passes: AtomicU64,
    /// Effect counter: completed ordered sections.
    ordered_done: AtomicU64,
    /// Ordered-sequence oracle: entries whose ticket did not match.
    ordered_violations: AtomicU64,
}

/// Per-thread cursor into a [`NativeLoop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopCursor {
    generation: u64,
    pos: u64,
    entered: bool,
}

impl NativeLoop {
    /// New loop state.
    pub fn new(schedule: Schedule, total: u64, n_threads: usize) -> Self {
        assert!(total > 0 && n_threads > 0);
        NativeLoop {
            schedule,
            total,
            n_threads,
            next: AtomicU64::new(0),
            finished: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            ticket: AtomicU64::new(0),
            iters: AtomicU64::new(0),
            passes: AtomicU64::new(0),
            ordered_done: AtomicU64::new(0),
            ordered_violations: AtomicU64::new(0),
        }
    }

    /// Effect counters: `(iters, passes, ordered_done, ordered_violations)`.
    pub fn effect_counts(&self) -> (u64, u64, u64, u64) {
        (
            self.iters.load(Ordering::Acquire),
            self.passes.load(Ordering::Acquire),
            self.ordered_done.load(Ordering::Acquire),
            self.ordered_violations.load(Ordering::Acquire),
        )
    }

    /// Record entry into the ordered section for iteration `iter`,
    /// checking the sequence oracle: the ticket must equal `iter` at
    /// entry, otherwise two sections are overlapping or out of order.
    pub fn note_ordered_entry(&self, iter: u64) {
        if self.ticket.load(Ordering::Acquire) != iter {
            self.ordered_violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Grab the next `(first_iter, len)` range for team rank `rank`.
    /// Returns `None` on exhaustion; the caller must then call
    /// [`NativeLoop::observe_exhausted`] exactly once before re-entering.
    pub fn grab(&self, rank: usize, cursor: &mut LoopCursor) -> Option<(u64, u64)> {
        let g = self.grab_inner(rank, cursor);
        if let Some((_, len)) = g {
            self.iters.fetch_add(len, Ordering::Relaxed);
        }
        g
    }

    fn grab_inner(&self, rank: usize, cursor: &mut LoopCursor) -> Option<(u64, u64)> {
        let gen = self.generation.load(Ordering::Acquire);
        if !cursor.entered || cursor.generation != gen {
            cursor.generation = gen;
            cursor.pos = 0;
            cursor.entered = true;
        }
        let n = self.n_threads as u64;
        match self.schedule {
            Schedule::Static { chunk } => {
                let total_chunks = self.total.div_ceil(chunk);
                let chunk_idx = cursor.pos * n + rank as u64;
                if chunk_idx >= total_chunks {
                    return None;
                }
                cursor.pos += 1;
                let first = chunk_idx * chunk;
                Some((first, chunk.min(self.total - first)))
            }
            Schedule::Dynamic { chunk } => {
                let first = self.next.fetch_add(chunk, Ordering::AcqRel);
                if first >= self.total {
                    return None;
                }
                Some((first, chunk.min(self.total - first)))
            }
            Schedule::Guided { min_chunk } => loop {
                let cur = self.next.load(Ordering::Acquire);
                if cur >= self.total {
                    return None;
                }
                let remaining = self.total - cur;
                let size = remaining.div_ceil(2 * n).max(min_chunk).min(remaining);
                if self
                    .next
                    .compare_exchange_weak(cur, cur + size, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return Some((cur, size));
                }
            },
        }
    }

    /// Record that one thread observed exhaustion; the last thread resets
    /// the loop for the next repetition.
    pub fn observe_exhausted(&self, cursor: &mut LoopCursor) {
        cursor.entered = false;
        if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.n_threads {
            self.passes.fetch_add(1, Ordering::Relaxed);
            self.next.store(0, Ordering::Relaxed);
            self.ticket.store(0, Ordering::Relaxed);
            self.finished.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        }
    }

    /// Wait until iteration `iter` may enter its ordered section.
    pub fn wait_ticket(&self, iter: u64) {
        let ok = self.wait_ticket_impl(iter, None);
        debug_assert!(ok, "unbounded ticket wait cannot fail");
    }

    /// Deadline-bounded ticket wait: returns `false` once `guard`
    /// expires; the run must then be abandoned.
    #[must_use]
    pub fn wait_ticket_bounded(&self, iter: u64, guard: &RunGuard) -> bool {
        self.wait_ticket_impl(iter, Some(guard))
    }

    fn wait_ticket_impl(&self, iter: u64, guard: Option<&RunGuard>) -> bool {
        wait_until(guard, || self.ticket.load(Ordering::Acquire) == iter)
    }

    /// Leave the ordered section: allow the next iteration in.
    pub fn ticket_done(&self) {
        self.ordered_done.fetch_add(1, Ordering::Relaxed);
        self.ticket.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as SharedCounter;

    fn drain_single_threaded(l: &NativeLoop) -> u64 {
        // One thread plays all ranks round-robin.
        let n = l.n_threads;
        let mut cursors = vec![LoopCursor::default(); n];
        let mut covered = vec![false; l.total as usize];
        let mut done = vec![false; n];
        let mut total = 0;
        while done.iter().any(|d| !d) {
            for r in 0..n {
                if done[r] {
                    continue;
                }
                match l.grab(r, &mut cursors[r]) {
                    Some((first, len)) => {
                        total += len;
                        for i in first..first + len {
                            assert!(!covered[i as usize], "iter {i} twice");
                            covered[i as usize] = true;
                        }
                    }
                    None => {
                        done[r] = true;
                        l.observe_exhausted(&mut cursors[r]);
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
        total
    }

    #[test]
    fn all_schedules_partition_exactly() {
        for sched in [
            Schedule::Static { chunk: 3 },
            Schedule::Dynamic { chunk: 2 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            let l = NativeLoop::new(sched, 101, 4);
            assert_eq!(drain_single_threaded(&l), 101);
            // And again after reset.
            assert_eq!(drain_single_threaded(&l), 101);
        }
    }

    #[test]
    fn concurrent_dynamic_covers_all_iterations() {
        let l = NativeLoop::new(Schedule::Dynamic { chunk: 5 }, 10_000, 4);
        let sum = SharedCounter::new(0);
        std::thread::scope(|s| {
            for rank in 0..4 {
                let l = &l;
                let sum = &sum;
                s.spawn(move || {
                    let mut cur = LoopCursor::default();
                    while let Some((_, len)) = l.grab(rank, &mut cur) {
                        sum.fetch_add(len, Ordering::Relaxed);
                    }
                    l.observe_exhausted(&mut cur);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn tickets_enforce_order() {
        let l = NativeLoop::new(Schedule::Static { chunk: 1 }, 4, 1);
        l.wait_ticket(0); // immediate
        l.ticket_done();
        l.wait_ticket(1); // immediate after done
        l.ticket_done();
        assert_eq!(l.ticket.load(Ordering::Relaxed), 2);
    }
}

//! A sense-reversing centralized barrier for the native runtime.
//!
//! Built from two atomics following the classic construction (see *Rust
//! Atomics and Locks*, ch. 4/9): arrivals decrement a counter; the last
//! arriver resets it and flips the global sense; everyone else spins on
//! the sense with a per-thread expected value, through the backend's one
//! wait loop ([`super::wait`]), which gives the core back on
//! oversubscribed hosts (like CI containers).

use super::guard::RunGuard;
use super::wait::wait_until;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Centralized sense-reversing barrier for a fixed-size team.
#[derive(Debug)]
pub struct SenseBarrier {
    n: usize,
    remaining: AtomicUsize,
    sense: AtomicBool,
    arrivals: AtomicU64,
}

impl SenseBarrier {
    /// Barrier for a team of `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        SenseBarrier {
            n,
            remaining: AtomicUsize::new(n),
            sense: AtomicBool::new(false),
            arrivals: AtomicU64::new(0),
        }
    }

    /// Team size.
    pub fn team_size(&self) -> usize {
        self.n
    }

    /// Effect counter: total per-thread arrivals across all rounds.
    pub fn arrivals(&self) -> u64 {
        self.arrivals.load(Ordering::Acquire)
    }

    /// Wait at the barrier. `local_sense` is the caller's per-thread sense
    /// flag; it must start `false` and be passed by reference to every
    /// wait on this barrier.
    pub fn wait(&self, local_sense: &mut bool) {
        let ok = self.wait_impl(local_sense, None);
        debug_assert!(ok, "unbounded barrier wait cannot fail");
    }

    /// Deadline-bounded wait: like [`SenseBarrier::wait`], but gives up
    /// and returns `false` once `guard` expires. A `false` return leaves
    /// the barrier corrupt for this team — callers must abandon the run
    /// (the guard's stickiness makes every teammate do the same).
    #[must_use]
    pub fn wait_bounded(&self, local_sense: &mut bool, guard: &RunGuard) -> bool {
        self.wait_impl(local_sense, Some(guard))
    }

    fn wait_impl(&self, local_sense: &mut bool, guard: Option<&RunGuard>) -> bool {
        self.arrivals.fetch_add(1, Ordering::Relaxed);
        *local_sense = !*local_sense;
        let expected = *local_sense;
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arriver: reset and release the team.
            self.remaining.store(self.n, Ordering::Relaxed);
            self.sense.store(expected, Ordering::Release);
            return true;
        }
        wait_until(guard, || self.sense.load(Ordering::Acquire) == expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_thread_barrier_is_a_noop() {
        let b = SenseBarrier::new(1);
        let mut sense = false;
        for _ in 0..10 {
            b.wait(&mut sense);
        }
    }

    #[test]
    fn barrier_synchronizes_phases() {
        // Each thread increments a phase counter then hits the barrier;
        // after each barrier, the counter must equal n × phase.
        let n = 4;
        let b = Arc::new(SenseBarrier::new(n));
        let counter = Arc::new(AtomicU64::new(0));
        let phases = 50;
        std::thread::scope(|s| {
            for _ in 0..n {
                let b = Arc::clone(&b);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    let mut sense = false;
                    for p in 1..=phases {
                        counter.fetch_add(1, Ordering::Relaxed);
                        b.wait(&mut sense);
                        let v = counter.load(Ordering::Relaxed);
                        assert!(
                            v >= (n as u64) * p && v <= (n as u64) * (p + 1),
                            "phase {p}: counter {v}"
                        );
                        b.wait(&mut sense);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), n as u64 * phases);
    }
}

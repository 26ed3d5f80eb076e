//! A sense-reversing centralized barrier for the native runtime.
//!
//! Built from two atomics following the classic construction (see *Rust
//! Atomics and Locks*, ch. 4/9): arrivals decrement a counter; the last
//! arriver resets it and flips the global sense; everyone else waits for
//! the flip through the backend's one wait loop ([`super::wait`]), which
//! gives the core back on oversubscribed hosts (like CI containers).
//!
//! A waiter keeps no sense of its own: it reads the episode's sense off
//! the shared flag as it arrives (see [`SenseBarrier::wait`]). So a
//! barrier is all the state a sync point needs — one object serves every
//! rank and every episode, with nothing per thread.

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

    /// Wait at the barrier until the whole team has arrived. Returns
    /// `false` once `guard` expires first; that leaves the barrier
    /// corrupt for this team, so callers must abandon the run (the
    /// guard's stickiness makes every teammate do the same).
    #[must_use]
    pub fn wait(&self, guard: &RunGuard) -> bool {
        self.arrivals.fetch_add(1, Ordering::Relaxed);
        // This episode ends when the flag flips, so wait for the opposite
        // of what it reads now. Read it *before* arriving: only the last
        // arrival flips it, so it cannot flip between this load and this
        // rank's decrement. Read after the decrement, it may already be
        // flipped, and the rank would wait for the next episode's flip,
        // which needs its own next arrival: a hang.
        let expected = !self.sense.load(Ordering::Acquire);
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
    use std::time::Duration;

    #[test]
    fn single_thread_barrier_is_a_noop() {
        let b = SenseBarrier::new(1);
        let guard = RunGuard::new(None);
        for _ in 0..10 {
            assert!(b.wait(&guard));
        }
        assert_eq!(b.arrivals(), 10);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        // Each thread increments a phase counter then hits the barrier;
        // after each barrier, the counter must equal n × phase.
        let n = 4;
        let b = SenseBarrier::new(n);
        let guard = RunGuard::new(None);
        let counter = AtomicU64::new(0);
        let phases = 50;
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    for p in 1..=phases {
                        counter.fetch_add(1, Ordering::Relaxed);
                        assert!(b.wait(&guard));
                        let v = counter.load(Ordering::Relaxed);
                        assert!(
                            v >= (n as u64) * p && v <= (n as u64) * (p + 1),
                            "phase {p}: counter {v}"
                        );
                        assert!(b.wait(&guard));
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), n as u64 * phases);
    }

    #[test]
    fn two_alternating_barriers_keep_every_phase_exact() {
        // A `ParallelRegion`'s entry and exit barriers, met in turn by the
        // same ranks: each barrier has its own phase counter, bumped just
        // before its wait. The other barrier stands between a counter's
        // read and its next bump, so after every wait the counter is
        // exactly n × (episodes of that barrier so far). Two ranks on a
        // multi-core host arrive truly together, which is where a sense
        // read after the arrival decrement loses its race (it hung within
        // 450 episodes in each of six tries on a 2-core host), so that
        // size runs long; oversubscribed sizes are slow per episode and
        // add little.
        for (n, episodes) in [(1usize, 200u64), (2, 20_000), (3, 200), (8, 200)] {
            let bars = [SenseBarrier::new(n), SenseBarrier::new(n)];
            let phases = [AtomicU64::new(0), AtomicU64::new(0)];
            // A lost release fails the wait instead of hanging the test.
            let guard = RunGuard::new(Some(Duration::from_secs(20)));
            std::thread::scope(|s| {
                for _ in 0..n {
                    s.spawn(|| {
                        for e in 0..2 * episodes {
                            let k = (e % 2) as usize;
                            phases[k].fetch_add(1, Ordering::Relaxed);
                            assert!(bars[k].wait(&guard), "n={n}: episode {e} never released");
                            let want = n as u64 * (e / 2 + 1);
                            let got = phases[k].load(Ordering::Relaxed);
                            assert_eq!(got, want, "n={n}: episode {e}");
                        }
                    });
                }
            });
            for b in &bars {
                assert_eq!(b.arrivals(), n as u64 * episodes, "n={n}");
            }
        }
    }
}

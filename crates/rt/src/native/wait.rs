//! The one wait loop of the native backend, and the policy behind it.
//!
//! Every in-region wait — barrier release, `ordered` ticket, task-pool
//! drain, named-lock acquisition — is [`wait_until`] over a probe: spin a
//! budget of `spin_loop()`s, then consult the run's [`RunGuard`] and
//! `yield_now()`, and start over. Nothing else in `rt::native` spins or
//! yields.
//!
//! The budget follows libgomp's rule (`gomp_spin_count_var` drops to the
//! throttled count once managed threads exceed available CPUs), decided
//! from what this process can observe: the number of team ranks
//! currently *inside a region*, over all teams, against the host's CPUs.
//! While the ranks fit, a waiter has a core to itself and spinning is
//! the fastest way to see the release, so it keeps the long budget. Once
//! they do not fit, the thread a waiter is waiting for may be runnable
//! but off-CPU — behind the waiter itself — and every spin delays the
//! release it spins for (the paper's Fig. 5 regime: all hardware
//! contexts busy, extra runnable work preempts a benchmark thread). The
//! waiter then gives its core back after a token spin.
//!
//! Ranks in a region are counted rather than team threads alive: a
//! parked team costs nothing, and a persistent team that once ran a
//! wide region must not throttle the narrow ones after it.
//!
//! There is no blocking stage behind the yield: a mutex + condvar
//! fallback measured indistinguishable from the throttled spin alone on
//! an oversubscribed campaign (DESIGN §3.3), so there is one mechanism.

use super::guard::RunGuard;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Spins between yields while the in-region ranks fit the host.
const FULL_SPINS: u32 = 1024;

/// Spins between yields while in-region ranks outnumber the CPUs; picked
/// from the 8/16/64/100 sweep recorded in DESIGN §3.3.
const THROTTLED_SPINS: u32 = 16;
const _: () = assert!(THROTTLED_SPINS < FULL_SPINS);

/// Team ranks currently inside a region, over every team of the process.
static RANKS_IN_REGION: AtomicUsize = AtomicUsize::new(0);

/// Team ranks currently inside a region, process-wide. Zero whenever no
/// region is being dispatched, whatever way the last one ended.
pub fn ranks_in_region() -> usize {
    // Relaxed: the count steers a spin budget and publishes nothing.
    RANKS_IN_REGION.load(Ordering::Relaxed)
}

/// CPUs this process may run on, read once.
pub(super) fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// One dispatch's ranks, counted in [`ranks_in_region`] for as long as
/// this is alive — a drop guard, so that they are counted out on the
/// timeout and panic paths too.
pub(super) struct InRegion(usize);

impl InRegion {
    /// Count `ranks` in.
    pub(super) fn enter(ranks: usize) -> InRegion {
        RANKS_IN_REGION.fetch_add(ranks, Ordering::Relaxed);
        InRegion(ranks)
    }
}

impl Drop for InRegion {
    fn drop(&mut self) {
        RANKS_IN_REGION.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// The budget decision: throttle exactly when the ranks inside regions
/// outnumber the CPUs.
fn spin_budget(ranks_in_region: usize, cpus: usize) -> u32 {
    if ranks_in_region > cpus {
        THROTTLED_SPINS
    } else {
        FULL_SPINS
    }
}

/// Wait until `probe` reports true. Returns `false` if `guard` expires
/// first (the run must then be abandoned); an unguarded wait only ever
/// returns `true`, and touches no clock — the guard holds the only one.
#[must_use]
pub(super) fn wait_until(guard: Option<&RunGuard>, probe: impl FnMut() -> bool) -> bool {
    spin_then_yield(|| spin_budget(ranks_in_region(), cpus()), guard, probe)
}

/// [`wait_until`] with the budget left to the caller; asked again after
/// every yield, so a long wait follows the host in and out of
/// oversubscription.
fn spin_then_yield(
    budget: impl Fn() -> u32,
    guard: Option<&RunGuard>,
    mut probe: impl FnMut() -> bool,
) -> bool {
    loop {
        for _ in 0..budget() {
            if probe() {
                return true;
            }
            std::hint::spin_loop();
        }
        if guard.is_some_and(RunGuard::expired) {
            return false;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    const REGIMES: [u32; 2] = [FULL_SPINS, THROTTLED_SPINS];

    #[test]
    fn the_budget_throttles_exactly_when_ranks_outnumber_cpus() {
        for cpus in [1, 2, 8, 64] {
            assert_eq!(spin_budget(0, cpus), FULL_SPINS);
            assert_eq!(spin_budget(cpus - 1, cpus), FULL_SPINS);
            assert_eq!(
                spin_budget(cpus, cpus),
                FULL_SPINS,
                "a team that fits keeps its budget"
            );
            assert_eq!(spin_budget(cpus + 1, cpus), THROTTLED_SPINS);
            assert_eq!(spin_budget(8 * cpus, cpus), THROTTLED_SPINS);
        }
    }

    #[test]
    fn a_tripped_guard_or_a_zero_deadline_ends_the_wait_in_both_regimes() {
        for budget in REGIMES {
            let tripped = RunGuard::new(None);
            tripped.trip();
            let zero = RunGuard::new(Some(Duration::ZERO));
            for guard in [&tripped, &zero] {
                let mut probes = 0u32;
                let released = spin_then_yield(
                    || budget,
                    Some(guard),
                    || {
                        probes += 1;
                        false
                    },
                );
                assert!(!released);
                // The whole budget is spent before the guard is asked.
                assert_eq!(probes, budget);
            }
        }
    }

    #[test]
    fn a_true_probe_wins_over_an_expired_guard() {
        let zero = RunGuard::new(Some(Duration::ZERO));
        assert!(wait_until(Some(&zero), || true));
    }

    #[test]
    fn the_wait_ends_once_another_thread_flips_the_probe() {
        for budget in REGIMES {
            let flag = AtomicBool::new(false);
            let waiting = AtomicBool::new(false);
            let guard = RunGuard::new(None);
            std::thread::scope(|s| {
                s.spawn(|| {
                    // Flip only once the waiter is provably in its loop.
                    while !waiting.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    flag.store(true, Ordering::Release);
                });
                let released = spin_then_yield(
                    || budget,
                    Some(&guard),
                    || {
                        waiting.store(true, Ordering::Release);
                        flag.load(Ordering::Acquire)
                    },
                );
                assert!(released);
            });
        }
    }

    #[test]
    fn an_unguarded_wait_outlasts_any_number_of_budgets() {
        // No guard, so no deadline and no clock: the only way out is the
        // probe, here after several spin-yield rounds in either regime.
        for budget in REGIMES {
            let mut left = 5 * budget;
            assert!(spin_then_yield(
                || budget,
                None,
                || {
                    left -= 1;
                    left == 0
                }
            ));
            assert_eq!(left, 0);
        }
    }

    #[test]
    fn ranks_are_counted_out_when_the_dispatch_guard_drops() {
        // Other tests of this binary run regions concurrently, so only
        // this guard's own contribution is observable: while it lives,
        // at least its ranks are counted.
        let entered = InRegion::enter(1 << 20);
        assert!(ranks_in_region() >= 1 << 20);
        drop(entered);
        assert!(ranks_in_region() < 1 << 20);
    }
}

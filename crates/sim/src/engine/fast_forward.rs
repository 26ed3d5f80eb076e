//! Idle-period fast-forward: absorbing chains of self-rescheduling
//! no-op events in O(1) heap operations.

use super::Simulator;
use crate::events::EventKind;
use crate::task::TaskState;
use crate::time::Time;

impl Simulator {
    /// Idle-period fast-forward: while the earliest pending event is a
    /// pure self-rescheduling no-op, a whole chain of them can be
    /// absorbed in O(1) heap operations instead of one pop/push per
    /// event. Two event kinds qualify:
    ///
    /// * a valid [`EventKind::TimerTick`] for a CPU whose task is
    ///   spin-waiting — the tick handler's entire effect is
    ///   `events += 1`, `ticks += 1`, and a re-push one period later;
    /// * an [`EventKind::LoadBalance`] while every CPU's user queue is
    ///   empty — `load_balance`'s per-CPU `while` condition fails
    ///   everywhere, so the pass mutates nothing and draws no RNG, and
    ///   the handler's entire effect is `events += 1` plus the re-push.
    ///
    /// This is where a deadlocked-but-ticking (or merely
    /// balance-polling) run stops costing wall-clock time proportional
    /// to the virtual time limit.
    ///
    /// Bit-identity with the unbatched loop is preserved exactly:
    ///
    /// * only events that would pop *next* are absorbed — event `i ≥ 2`
    ///   of a batch must beat every other pending event strictly (its
    ///   fresh seq loses time ties), bounded by
    ///   [`EventQueue::second_time`]. Nothing else pops inside a batch,
    ///   so the eligibility predicate cannot change mid-batch;
    /// * `now` and the counters advance by the same amounts, and
    ///   [`EventQueue::bump_seq`] burns the seq numbers the absorbed
    ///   re-pushes would have consumed, so every future FIFO tie-break
    ///   is unchanged;
    /// * events past `limit` or past the event budget are left in the
    ///   queue for the main loop to trip the error path on, with `now`
    ///   and the counters in the identical state.
    pub(super) fn fast_forward_idle(&mut self, limit: Time) {
        #[cfg(test)]
        if !super::referent::ABSORB.get() {
            return;
        }
        loop {
            let Some((t0, ev)) = self.queue.peek() else {
                return;
            };
            // Eligibility + period per kind; `ticks` says whether the
            // absorbed events also count into `counters.ticks`.
            let (period, ticks) = match ev {
                EventKind::TimerTick { cpu, token } => {
                    if token != self.cpus[cpu].tick_token {
                        return;
                    }
                    let Some(tid) = self.cpus[cpu].running else {
                        return;
                    };
                    if !matches!(self.tasks[tid.0 as usize].state, TaskState::Waiting(_)) {
                        return;
                    }
                    (self.params.sched.tick_period, true)
                }
                EventKind::LoadBalance => {
                    if !self.cpus.iter().all(|c| c.uq.is_empty()) {
                        return;
                    }
                    (self.params.sched.balance_interval, false)
                }
                _ => return,
            };
            // Both periods are positive: `run` refuses a zero tick
            // period, and a zero balance interval never arms the balancer.
            if t0 > limit {
                return;
            }
            // How many events beyond the head can be absorbed? Event
            // i ≥ 2 must pop strictly before the next other event:
            // t0 + e*period ≤ second - 1. At most up to the budget line:
            // the first event past it must be popped live so the error
            // fires with the counters in the unbatched state — and when
            // the head itself trips it, the main loop pops it.
            let by_second = self.queue.second_time().map_or(u64::MAX, |second| {
                second.saturating_sub(1).saturating_sub(t0) / period
            });
            let by_budget = match self.event_budget {
                Some(b) if self.counters.events >= b => return,
                Some(b) => b - self.counters.events - 1,
                None => u64::MAX,
            };
            let extra = by_second.min((limit - t0) / period).min(by_budget);
            let k = extra + 1;
            #[cfg(test)]
            super::referent::record_idle(k);
            let (_, ev) = self.queue.pop().expect("peeked event vanished");
            self.now = t0 + extra * period;
            self.counters.events += k;
            if ticks {
                self.counters.ticks += k;
            }
            // Each absorbed event's re-push would have consumed one seq
            // number; burn all but the last, which the real re-push takes.
            self.queue.bump_seq(k - 1);
            self.queue.push(self.now + period, ev);
        }
    }
}

/// The fast-forward held to its referent (`engine/referent.rs`): each
/// case runs with the absorbers on and off and compares the outcomes.
#[cfg(test)]
mod tests {
    use super::super::referent::{on_and_off, same_either_way};
    use super::Simulator;
    use crate::error::SimError;
    use crate::params::SimParams;
    use crate::task::{CorunClass, Program};
    use crate::time::{Time, MS, SEC, US};
    use ompvar_topology::{HwThreadId, MachineSpec, Place};
    use proptest::prelude::*;

    fn pin(cpu: usize) -> Option<Place> {
        Some(Place::single(HwThreadId(cpu)))
    }

    /// An oversubscription scenario that continuously invalidates event
    /// tokens: `n_tasks` tasks stacked on one CPU mean every quantum expiry
    /// preempts (bumping the CPU's boundary token and repricing), and timer
    /// ticks stay armed throughout, while the barrier's spin-wait phases
    /// give the fast-forward room to engage.
    fn stacked_sim(n_tasks: usize, cycles: f64, tick_period: Time, quantum: Time) -> Simulator {
        let mut params = SimParams::sterile();
        params.sched.tick_period = tick_period;
        params.sched.tick_cost = 500;
        params.sched.quantum = quantum;
        let mut sim = Simulator::new(MachineSpec::generic(1, 2, 1), params, 42);
        let barrier = sim.add_barrier(n_tasks, 1.0);
        for rank in 0..n_tasks {
            let prog = Program::builder()
                .compute(cycles, CorunClass::Latency)
                .barrier(barrier)
                .compute(cycles / 2.0, CorunClass::Latency)
                .build();
            // Stack everyone on CPU 0; CPU 1 stays idle as a migration
            // target for the load balancer.
            sim.spawn_user(rank, prog, pin(0));
        }
        sim
    }

    proptest! {
        /// Token-invalidated events are no-ops either way: oversubscribed
        /// quantum preemption plus live timer ticks generate a steady
        /// stream of stale `CpuBoundary`/`TimerTick` events.
        #[test]
        fn stale_token_events_noop_identically(
            n_tasks in 2usize..5,
            mcycles in 1u64..20,
            tick_ms in 1u64..8,
        ) {
            let cycles = mcycles as f64 * 1e6;
            let (on, off, _) = on_and_off(|| stacked_sim(n_tasks, cycles, tick_ms * MS, 4 * MS), 10 * SEC);
            prop_assert_eq!(on, off);
        }

        /// The same across quantum lengths: shorter quanta mean more
        /// preemptions, so more stale boundary tokens and more repricing.
        #[test]
        fn quantum_preemption_equivalence(
            n_tasks in 2usize..6,
            us in 50u64..500,
            quantum_us in 100u64..2000,
        ) {
            let cycles = (us * US) as f64 * 3.0; // ~3 GHz generic machine
            let quantum = quantum_us * US;
            let (on, off, _) = on_and_off(|| stacked_sim(n_tasks, cycles, 2 * MS, quantum), 10 * SEC);
            prop_assert_eq!(on, off);
        }
    }

    /// Two pinned tasks take two locks in opposite orders, each holding its
    /// first while it spins on the other's: the lock-order inversion of the
    /// fuzz corpus' deadlock straggler. Nothing can release either task, so
    /// the run grinds the idle `LoadBalance` chain to the time limit.
    fn inverted_locks() -> Simulator {
        let mut sim = Simulator::new(MachineSpec::generic(1, 2, 1), SimParams::sterile(), 7);
        let (a, b) = (sim.add_lock(1.0), sim.add_lock(1.0));
        for (rank, (first, second)) in [(a, b), (b, a)].into_iter().enumerate() {
            let prog = Program::builder()
                .lock(first)
                .compute(1e6, CorunClass::Latency)
                .lock(second)
                .unlock(second)
                .unlock(first)
                .build();
            sim.spawn_user(rank, prog, pin(rank));
        }
        sim
    }

    const INVERSION_LIMIT: Time = 60 * SEC;

    #[test]
    fn lock_inversion_into_the_time_limit() {
        let (outcome, absorbed) = same_either_way(inverted_locks, INVERSION_LIMIT);
        let absorbed = absorbed.idle;
        assert!(outcome.starts_with("Err(Deadlock"), "{outcome}");
        // Sterile ticks cost nothing and are never armed, so the idle
        // chain is the balancer's: limit / interval events. The comparison
        // means nothing unless the fast-forward took them.
        let passes = INVERSION_LIMIT / SimParams::sterile().sched.balance_interval;
        assert!(
            absorbed >= passes,
            "absorbed only {absorbed} of {passes} balancer passes"
        );
    }

    /// The inversion under an event budget placed around two lines — the
    /// run's whole event count, where the budget stops tripping, and half
    /// of it, inside the idle chains — so `fast_forward_idle`'s clamp to the
    /// budget decides where a batch stops.
    #[test]
    fn lock_inversion_under_an_event_budget() {
        let with_budget = |budget: u64| {
            move || {
                let mut sim = inverted_locks();
                sim.set_event_budget(budget);
                sim
            }
        };
        let trips = |budget: u64| {
            let outcome = with_budget(budget)().run(INVERSION_LIMIT);
            matches!(outcome, Err(SimError::EventBudgetExceeded { .. }))
        };
        // Bisect for the line: the smallest budget the run stays within.
        let (mut lo, mut hi) = (0u64, 1 << 32);
        assert!(trips(lo) && !trips(hi));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if trips(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let line = hi;
        for budget in [
            line / 2 - 1,
            line / 2,
            line / 2 + 1,
            line - 1,
            line,
            line + 1,
        ] {
            let (outcome, _) = same_either_way(with_budget(budget), INVERSION_LIMIT);
            let tripped = outcome.starts_with("Err(EventBudgetExceeded");
            assert_eq!(
                tripped,
                budget < line,
                "budget {budget} (line {line}): {outcome}"
            );
        }
    }

    /// A barrier/lock program on the calibrated Vera model — OS noise, DVFS
    /// pulses, ticks and load balancing all live, threads unbound — where a
    /// slow rank leaves the others spinning at the barrier.
    fn calibrated_vera(seed: u64) -> Simulator {
        let machine = MachineSpec::vera();
        let params = SimParams::for_machine(&machine);
        let mut sim = Simulator::new(machine, params, seed);
        let n = 8;
        let (barrier, lock) = (sim.add_barrier(n, 1.0), sim.add_lock(1.0));
        for rank in 0..n {
            let cycles = if rank == 0 { 3e7 } else { 1e6 };
            let prog = Program::builder()
                .repeat(6)
                .compute(cycles, CorunClass::Latency)
                .lock(lock)
                .busy_ns(500.0)
                .unlock(lock)
                .barrier(barrier)
                .end_repeat()
                .build();
            sim.spawn_user(rank, prog, None);
        }
        sim
    }

    #[test]
    fn calibrated_barrier_and_lock_program() {
        let mut absorbed = 0;
        for seed in 0..4 {
            let (outcome, n) = same_either_way(|| calibrated_vera(seed), 10 * SEC);
            assert!(outcome.starts_with("Ok("), "seed {seed}: {outcome}");
            absorbed += n.idle;
        }
        assert!(absorbed > 0, "the fast-forward never engaged");
    }
}

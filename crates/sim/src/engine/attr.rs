//! The causal time-attribution ledger.
//!
//! [`AttrState`] draws no randomness, pushes no events and sees no engine
//! state — the engine tells it what happened and when (`now`) — so an
//! attributed run is virtual-time bit-identical to a plain run (golden
//! suite + oracle #12), and the ledger can be driven by hand. With
//! attribution off the per-task table is empty, every task id falls off
//! its end (as kernel tasks always do) and every method is a no-op. Wall
//! time of each user thread decomposes as
//!
//! ```text
//!     wall = useful + Σ ledger[src]      (conservation, oracle #12)
//! ```
//!
//! with four charge channels:
//!  * busy progress time, split by `Simulator::attr_busy` into useful
//!    compute vs. SMT co-run, sub-nominal frequency and memory
//!    contention ([`AttrState::busy`]);
//!  * overhead-pot drain ([`AttrState::drain_pot`]): the typed FIFO
//!    mirrors `pending_overhead_ns`, so each drained nanosecond keeps
//!    the cause it was charged with ([`AttrState::pot`]);
//!  * descheduled time (`queued_from` → Preemption) while the task sits
//!    in a run queue or is displaced by a kernel task;
//!  * spin-wait episodes, accrued in `touch()` and classified at the
//!    closing wake ([`AttrState::flush_wait`]) into NoiseDelayedArrival
//!    (the part explainable by primary noise charged elsewhere during
//!    the episode) vs. plain SyncContention.

use crate::task::TaskId;
use crate::time::Time;
use ompvar_obs::{AttrSample, AttrSource, RunAttribution, ThreadAttribution, N_SOURCES};
use std::collections::VecDeque;

/// Per-task causal-attribution state (user tasks only; kernel/noise
/// tasks *are* the noise and get no ledger).
#[derive(Debug, Default)]
struct TaskAttr {
    /// Wall nanoseconds charged to each [`AttrSource`], ledger order.
    ledger: [f64; N_SOURCES],
    /// Wall nanoseconds of useful program progress.
    useful: f64,
    /// Typed FIFO mirroring `Task::pending_overhead_ns`: each entry is
    /// `(max-frequency ns, AttrSource index)`, pushed when the pot is
    /// charged and drained in lockstep as `touch()` consumes the pot.
    fifo: VecDeque<(f64, u8)>,
    /// Wall ns of the current spin-wait episode (accrued by `touch()`).
    wait_acc: f64,
    /// `AttrState::noise_cum` at the start of the current wait episode.
    noise_snap: f64,
    /// When displaced off its CPU into a run queue: queue-entry time.
    queued_from: Option<Time>,
}

/// Ledger state for one run.
#[derive(Debug, Default)]
pub(super) struct AttrState {
    /// Whether this run is attributed (`Simulator::enable_attribution`).
    pub(super) on: bool,
    /// Indexed by `TaskId`; sized to the pre-run task table, so kernel
    /// tasks spawned later fall off the end and are ignored. Empty when
    /// attribution is off.
    per_task: Vec<TaskAttr>,
    /// Cumulative *primary* noise wall-ns charged to user tasks
    /// (preemption, migration, SMT, sub-nominal frequency, ticks,
    /// stalls — not the derived `NoiseDelayedArrival`). Wait episodes
    /// snapshot this to decide how much of a wait noise can explain.
    noise_cum: f64,
    /// Running per-source totals across all threads (feeds `samples`).
    totals: [f64; N_SOURCES],
    /// Cumulative per-source samples, coalesced per virtual time.
    samples: Vec<AttrSample>,
}

impl AttrState {
    /// Size the table to the pre-run task table: every user task gets a
    /// ledger; kernel tasks spawned from here on get ids past the end.
    pub(super) fn start(&mut self, n_tasks: usize) {
        if self.on {
            self.per_task = (0..n_tasks).map(|_| TaskAttr::default()).collect();
        }
    }

    /// The ledger of user task `tid`; `None` for kernel tasks and
    /// whenever attribution is off.
    #[inline]
    fn task(&mut self, tid: TaskId) -> Option<&mut TaskAttr> {
        self.per_task.get_mut(tid.0 as usize)
    }

    fn push_sample(&mut self, now: Time) {
        match self.samples.last_mut() {
            Some(s) if s.time_ns == now => s.total_by_source = self.totals,
            _ => self.samples.push(AttrSample { time_ns: now, total_by_source: self.totals }),
        }
    }

    /// Add `charged[src]` wall ns to `tid`'s ledger and the run totals
    /// for every source with a positive amount, in ledger order.
    fn book(&mut self, now: Time, tid: TaskId, charged: &[f64; N_SOURCES]) {
        // Not `task()`: the totals are updated beside the entry.
        let Some(pt) = self.per_task.get_mut(tid.0 as usize) else { return };
        let mut any = false;
        for (i, &w) in charged.iter().enumerate() {
            if w > 0.0 {
                pt.ledger[i] += w;
                self.totals[i] += w;
                if AttrSource::ALL[i].is_noise() {
                    self.noise_cum += w;
                }
                any = true;
            }
        }
        if any {
            self.push_sample(now);
        }
    }

    /// Charge `wall_ns` of wall time on user task `tid` to `src`.
    fn charge(&mut self, now: Time, tid: TaskId, wall_ns: f64, src: AttrSource) {
        let mut charged = [0.0f64; N_SOURCES];
        charged[src.index()] = wall_ns;
        self.book(now, tid, &charged);
    }

    /// Mirror a `pending_overhead_ns += nominal_ns` charge with its
    /// cause; the FIFO is drained in lockstep as `touch()` consumes the
    /// pot, so the eventual wall time keeps this source.
    #[inline]
    pub(super) fn pot(&mut self, tid: TaskId, nominal_ns: f64, src: AttrSource) {
        if nominal_ns <= 0.0 {
            return;
        }
        if let Some(pt) = self.task(tid) {
            pt.fifo.push_back((nominal_ns, src.index() as u8));
        }
    }

    /// Book the wall time of a pot drain: `used_nominal` max-frequency
    /// nanoseconds were consumed at clock ratio `nrate`. FIFO entries are
    /// popped/split to cover it; if the FIFO runs dry (a pot charge the
    /// ledger missed) the remainder is booked as RuntimeOverhead so the
    /// drain is always fully accounted. When `flush_rest` (pot reached
    /// zero), leftover FIFO entries are dropped uncharged — the engine
    /// zero-clamps sub-nanosecond residue the same way.
    pub(super) fn drain_pot(
        &mut self,
        now: Time,
        tid: TaskId,
        used_nominal: f64,
        nrate: f64,
        flush_rest: bool,
    ) {
        if used_nominal <= 0.0 {
            return;
        }
        let Some(pt) = self.task(tid) else { return };
        let mut left = used_nominal;
        let mut charged = [0.0f64; N_SOURCES];
        while left > 1e-12 {
            let Some((amt, src)) = pt.fifo.front_mut() else {
                charged[AttrSource::RuntimeOverhead.index()] += left / nrate;
                break;
            };
            let take = amt.min(left);
            *amt -= take;
            left -= take;
            charged[*src as usize] += take / nrate;
            if *amt <= 1e-12 {
                pt.fifo.pop_front();
            }
        }
        if flush_rest {
            pt.fifo.clear();
        }
        self.book(now, tid, &charged);
    }

    /// Accrue `wall_ns` of spin-wait time into the open wait episode.
    #[inline]
    pub(super) fn wait_accrue(&mut self, tid: TaskId, wall_ns: f64) {
        if wall_ns <= 0.0 {
            return;
        }
        if let Some(pt) = self.task(tid) {
            pt.wait_acc += wall_ns;
        }
    }

    /// Close the current wait episode of `tid` (if any): the part that
    /// primary noise charged *during the episode* can explain is booked
    /// as NoiseDelayedArrival (the waiter was stuck behind a noise-hit
    /// peer); the remainder is plain SyncContention. Also re-snapshots
    /// `noise_cum` so the next episode starts fresh. Called when a task
    /// blocks (to open a clean snapshot) and when its wake completes.
    pub(super) fn flush_wait(&mut self, now: Time, tid: TaskId) {
        let noise_cum = self.noise_cum;
        let Some(pt) = self.task(tid) else { return };
        let wait = std::mem::take(&mut pt.wait_acc);
        let noise_part = wait.min((noise_cum - pt.noise_snap).max(0.0));
        pt.noise_snap = noise_cum;
        if wait <= 0.0 {
            return;
        }
        let sync_part = wait - noise_part;
        pt.ledger[AttrSource::NoiseDelayedArrival.index()] += noise_part;
        pt.ledger[AttrSource::SyncContention.index()] += sync_part;
        self.totals[AttrSource::NoiseDelayedArrival.index()] += noise_part;
        self.totals[AttrSource::SyncContention.index()] += sync_part;
        self.push_sample(now);
    }

    /// Mark `tid` as displaced into a run queue at `now` (the start of a
    /// descheduled interval; no-op if already marked).
    #[inline]
    pub(super) fn set_queued(&mut self, now: Time, tid: TaskId) {
        if let Some(pt) = self.task(tid) {
            pt.queued_from.get_or_insert(now);
        }
    }

    /// Close a descheduled interval for `tid`: charge queue residence to
    /// Preemption (displacement by kernel noise or quantum rotation is
    /// what puts user tasks in queues).
    #[inline]
    pub(super) fn take_queued(&mut self, now: Time, tid: TaskId) {
        if let Some(from) = self.task(tid).and_then(|pt| pt.queued_from.take()) {
            self.charge(now, tid, now.saturating_sub(from) as f64, AttrSource::Preemption);
        }
    }

    /// Book a slice of busy progress on `tid` as split by
    /// `Simulator::attr_busy`.
    pub(super) fn busy(&mut self, now: Time, tid: TaskId, useful: f64, smt: f64, freq: f64, mem: f64) {
        let mut charged = [0.0f64; N_SOURCES];
        charged[AttrSource::SmtCoRun.index()] = smt;
        charged[AttrSource::SubNominalFreq.index()] = freq;
        charged[AttrSource::MemContention.index()] = mem;
        self.book(now, tid, &charged);
        if let Some(pt) = self.task(tid) {
            pt.useful += useful;
        }
    }

    /// Harvest the ledger into the report form (consuming the samples,
    /// like the trace buffer); `None` when attribution is off. Open
    /// intervals are folded in here, so harvesting a partial run (time
    /// limit, event budget) needs nothing from the engine but `spinning`
    /// — `(task, wall ns since its last touch)` for every task still
    /// spin-waiting on a CPU — and `users`, `(task, team rank)` in
    /// report order; a task still queued closes against `now`.
    pub(super) fn harvest(
        &mut self,
        now: Time,
        spinning: impl Iterator<Item = (TaskId, f64)>,
        users: impl Iterator<Item = (TaskId, usize)>,
    ) -> Option<RunAttribution> {
        if !self.on {
            return None;
        }
        for (tid, unbooked) in spinning {
            if let Some(pt) = self.task(tid) {
                pt.wait_acc += unbooked;
            }
        }
        let noise_cum = self.noise_cum;
        let mut tail = [0.0f64; N_SOURCES];
        let mut threads: Vec<ThreadAttribution> = Vec::new();
        for (tid, rank) in users {
            let Some(pt) = self.task(tid) else { continue };
            // Final-classify the open wait episode, if any.
            let wait = std::mem::take(&mut pt.wait_acc);
            if wait > 0.0 {
                let noise_part = wait.min((noise_cum - pt.noise_snap).max(0.0));
                pt.ledger[AttrSource::NoiseDelayedArrival.index()] += noise_part;
                pt.ledger[AttrSource::SyncContention.index()] += wait - noise_part;
                tail[AttrSource::NoiseDelayedArrival.index()] += noise_part;
                tail[AttrSource::SyncContention.index()] += wait - noise_part;
            }
            // Close an open descheduled interval.
            if let Some(from) = pt.queued_from.take() {
                let q = now.saturating_sub(from) as f64;
                pt.ledger[AttrSource::Preemption.index()] += q;
                tail[AttrSource::Preemption.index()] += q;
            }
            let mut th = ThreadAttribution::new(rank);
            th.useful_ns = pt.useful;
            th.by_source = pt.ledger;
            threads.push(th);
        }
        if tail.iter().any(|&w| w > 0.0) {
            for (i, &w) in tail.iter().enumerate() {
                self.totals[i] += w;
            }
            self.push_sample(now);
        }
        Some(RunAttribution {
            threads,
            samples: std::mem::take(&mut self.samples),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AttrSource::*;

    /// The ledger driven by hand through every channel: what goes in
    /// comes out (conservation), per task and in the run totals; charges
    /// at one instant share one sample; kernel task ids fall off the end.
    #[test]
    fn a_hand_driven_ledger_conserves_and_coalesces_samples_per_instant() {
        let mut a = AttrState { on: true, ..AttrState::default() };
        a.start(2);
        let (t0, t1, kernel) = (TaskId(0), TaskId(1), TaskId(7));

        // t=100: a direct charge, then a pot of 10 + 5 nominal ns drained
        // by 12 at half clock: 10/0.5 wall to the tick, 2/0.5 to overhead.
        a.charge(100, t0, 30.0, Preemption);
        a.pot(t0, 10.0, TimerTick);
        a.pot(t0, 5.0, RuntimeOverhead);
        a.drain_pot(100, t0, 12.0, 0.5, false);
        a.flush_wait(100, t1); // opens t1's episode: snapshot at 50 noise ns
        assert_eq!(a.samples.len(), 1, "one instant, one sample");
        assert_eq!(a.noise_cum, 50.0, "runtime overhead is not noise");

        // t=200: t0 loses 40 ns to its SMT sibling while t1 spins 100 ns:
        // noise explains 40 of them, the rest is plain contention.
        a.busy(200, t0, 60.0, 40.0, 0.0, 0.0);
        a.wait_accrue(t1, 100.0);
        a.flush_wait(200, t1);
        a.charge(200, kernel, 5.0, Preemption);
        a.pot(kernel, 5.0, Preemption);
        assert_eq!(a.samples.len(), 2);

        // t=300: the 3 ns left in the pot, flushed; then a drain the FIFO
        // cannot cover books as runtime overhead.
        a.drain_pot(300, t0, 3.0, 1.0, true);
        a.drain_pot(300, t0, 2.0, 1.0, false);
        // t1 sits in a run queue from 300 (the second mark is a no-op) to 400.
        a.set_queued(300, t1);
        a.set_queued(350, t1);
        a.take_queued(400, t1);
        a.take_queued(450, t1);

        // t=500: harvest with t1 spinning for 25 unbooked ns; the 100 ns of
        // preemption noise since its snapshot explain all of them.
        let r = a
            .harvest(500, [(t1, 25.0)].into_iter(), [(t0, 0), (t1, 1)].into_iter())
            .expect("attribution is on");
        let th0 = &r.threads[0];
        assert_eq!((th0.rank, th0.useful_ns), (0, 60.0));
        assert_eq!(th0.get(Preemption), 30.0);
        assert_eq!(th0.get(TimerTick), 20.0);
        assert_eq!(th0.get(RuntimeOverhead), 4.0 + 3.0 + 2.0);
        assert_eq!(th0.get(SmtCoRun), 40.0);
        assert_eq!(th0.attributed_ns(), 99.0);
        let th1 = &r.threads[1];
        assert_eq!(th1.get(NoiseDelayedArrival), 40.0 + 25.0);
        assert_eq!(th1.get(SyncContention), 60.0);
        assert_eq!(th1.get(Preemption), 100.0);
        assert_eq!(th1.attributed_ns(), 225.0, "100 + 25 spun, 100 queued");

        let times: Vec<u64> = r.samples.iter().map(|s| s.time_ns).collect();
        assert_eq!(times, [100, 200, 300, 400, 500]);
        let last = r.samples.last().unwrap().total_by_source;
        for src in AttrSource::ALL {
            assert_eq!(last[src.index()], th0.get(src) + th1.get(src), "{src:?}");
        }
        for w in r.samples.windows(2) {
            let grew = |i: usize| w[1].total_by_source[i] >= w[0].total_by_source[i];
            assert!((0..N_SOURCES).all(grew), "totals are cumulative");
        }
    }

    #[test]
    fn a_ledger_that_is_off_ignores_everything() {
        let mut a = AttrState::default();
        a.start(4);
        a.charge(10, TaskId(0), 5.0, Preemption);
        a.pot(TaskId(0), 5.0, TimerTick);
        a.drain_pot(10, TaskId(0), 5.0, 1.0, true);
        a.wait_accrue(TaskId(0), 5.0);
        a.flush_wait(10, TaskId(0));
        a.set_queued(10, TaskId(0));
        a.take_queued(20, TaskId(0));
        a.busy(20, TaskId(0), 1.0, 1.0, 1.0, 1.0);
        assert!(a.per_task.is_empty() && a.samples.is_empty() && a.noise_cum == 0.0);
        assert!(a.harvest(20, std::iter::empty(), [(TaskId(0), 0)].into_iter()).is_none());
    }
}

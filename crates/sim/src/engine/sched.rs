//! The scheduler: rates and pricing, progress accounting, boundary
//! events, run queues and preemption, load balancing and migration.

use super::{place, Simulator};
use crate::events::EventKind;
use crate::task::{Op, TaskId, TaskKind, TaskState, Timed};
use crate::time::{from_ns_f64, Time};
use ompvar_obs::{AttrSource, EventKind as TraceKind, InstantKind};

impl Simulator {
    // ------------------------------------------------------------------
    // Rates and pricing
    // ------------------------------------------------------------------

    pub(super) fn ghz(&self, cpu: usize) -> f64 {
        self.sockets[self.topo.socket_of(cpu)].applied_ghz
    }

    pub(super) fn sibling_busy(&self, cpu: usize) -> bool {
        if self.topo.reference {
            return self.topo.siblings(cpu).any(|s| self.cpus[s].running.is_some());
        }
        // `core_busy` counts hardware threads of the core with a task
        // installed (maintained solely by `set_running`), so the sibling
        // scan collapses to one counter read: subtract this thread's own
        // contribution and ask whether anything is left.
        let mut n = self.core_busy[self.topo.core_of(cpu)];
        if self.cpus[cpu].running.is_some() {
            n -= 1;
        }
        n > 0
    }

    /// Progress rate of the given timed micro-op on `cpu`, in
    /// progress-units per nanosecond.
    pub(super) fn rate(&self, cpu: usize, timed: &Timed, home_numa: Option<usize>) -> f64 {
        match timed {
            Timed::Cycles { class, .. } => {
                let mut ghz = self.ghz(cpu);
                if self.sibling_busy(cpu) {
                    ghz *= self.params.smt.factor(*class);
                }
                ghz // cycles per ns
            }
            // Fixed-duration work is specified in "nanoseconds at maximum
            // frequency": synchronization costs (cache-line transfers,
            // spin handoffs) and kernel work all run at core clock and
            // stretch when the core droops.
            Timed::Ns { .. } | Timed::AtomicNs { .. } => {
                self.ghz(cpu) / self.topo.spec.clock.max_ghz
            }
            Timed::Bytes { .. } => {
                let home = home_numa.unwrap_or_else(|| self.topo.numa_of(cpu));
                let n_acc = self.domains[home].streamers.len().max(1);
                let mem = &self.topo.spec.memory;
                let share = mem.local_bw_gbs / n_acc as f64;
                let mut gbs = share.min(self.params.mem.per_core_bw_gbs);
                if self.topo.numa_of(cpu) != home {
                    gbs *= mem.remote_bw_factor;
                }
                let s = self.params.mem.stream_freq_sensitivity;
                gbs *= (1.0 - s) + s * self.ghz(cpu) / self.topo.spec.clock.max_ghz;
                gbs // GB/s == bytes/ns
            }
        }
    }

    /// Decompose `wall_ns` of busy progress on the installed micro-op
    /// into useful compute vs. SMT co-run slowdown, sub-nominal-frequency
    /// stretch (measured against the clean per-socket trajectory) and
    /// memory-bandwidth contention, and book each part. The split is the
    /// exact algebra of `rate()`: work done in `wall_ns` at the actual
    /// rate would have taken proportionally less wall time at the clean
    /// reference rate, and the difference is charged to each mechanism.
    fn attr_busy(
        &mut self,
        tid: TaskId,
        cpu: usize,
        wall_ns: f64,
        timed: &Timed,
        home_numa: Option<usize>,
    ) {
        if wall_ns <= 0.0 {
            return;
        }
        let ghz = self.ghz(cpu);
        let max = self.topo.spec.clock.max_ghz;
        let clean = self.sockets[self.topo.socket_of(cpu)].clean_ghz;
        let mut smt_part = 0.0;
        let mut mem_part = 0.0;
        let freq_part;
        match timed {
            Timed::Cycles { class, .. } => {
                let s = if self.sibling_busy(cpu) {
                    self.params.smt.factor(*class)
                } else {
                    1.0
                };
                smt_part = wall_ns * (1.0 - s);
                freq_part = (wall_ns * s * (1.0 - ghz / clean)).max(0.0);
            }
            Timed::Ns { .. } | Timed::AtomicNs { .. } => {
                freq_part = (wall_ns * (1.0 - ghz / clean)).max(0.0);
            }
            Timed::Bytes { .. } => {
                let home = home_numa.unwrap_or_else(|| self.topo.numa_of(cpu));
                let n_acc = self.domains[home].streamers.len().max(1);
                let mem = &self.topo.spec.memory;
                let remote = if self.topo.numa_of(cpu) != home {
                    mem.remote_bw_factor
                } else {
                    1.0
                };
                let per_core = self.params.mem.per_core_bw_gbs;
                let b = (mem.local_bw_gbs / n_acc as f64).min(per_core) * remote;
                let b0 = mem.local_bw_gbs.min(per_core) * remote;
                let s = self.params.mem.stream_freq_sensitivity;
                let f = (1.0 - s) + s * ghz / max;
                let f0 = (1.0 - s) + s * clean / max;
                let bw_ratio = if b0 > 0.0 { b / b0 } else { 1.0 };
                mem_part = wall_ns * (1.0 - bw_ratio);
                freq_part = if f0 > 0.0 {
                    (wall_ns * bw_ratio * (1.0 - f / f0)).max(0.0)
                } else {
                    0.0
                };
            }
        }
        let useful = (wall_ns - smt_part - freq_part - mem_part).max(0.0);
        self.attr.busy(self.now, tid, useful, smt_part, freq_part, mem_part);
    }

    // ------------------------------------------------------------------
    // Accounting and event scheduling
    // ------------------------------------------------------------------

    /// Account the running task's progress on `cpu` up to `self.now` and
    /// invalidate its scheduled boundary.
    pub(super) fn touch(&mut self, cpu: usize) {
        self.cpus[cpu].token += 1;
        let Some(tid) = self.cpus[cpu].running else {
            self.cpus[cpu].since = self.now;
            return;
        };
        let elapsed = self.now.saturating_sub(self.cpus[cpu].since);
        self.cpus[cpu].since = self.now;
        if elapsed == 0 {
            return;
        }
        // Split borrows: rate() needs &self, so compute it before the
        // mutable borrow of the task.
        let (is_waiting, current, home) = {
            let t = &self.tasks[tid.0 as usize];
            (
                matches!(t.state, TaskState::Waiting(_)),
                t.current,
                t.home_numa,
            )
        };
        if is_waiting {
            self.tasks[tid.0 as usize].stats.wait_time += elapsed;
            self.attr.wait_accrue(tid, elapsed as f64);
            return;
        }
        let mut budget = elapsed as f64;
        // Pending overheads are denominated in max-frequency nanoseconds
        // and are consumed at the core's current clock ratio.
        let nrate = self.ghz(cpu) / self.topo.spec.clock.max_ghz;
        let (pot_used, pot_exhausted, pot_blocks);
        {
            let t = &mut self.tasks[tid.0 as usize];
            t.stats.busy_time += elapsed;
            if t.pending_overhead_ns > 0.0 {
                let consumable = budget * nrate;
                let used = t.pending_overhead_ns.min(consumable);
                t.pending_overhead_ns -= used;
                budget -= used / nrate;
                pot_used = used;
                if t.pending_overhead_ns > 1e-9 {
                    pot_exhausted = false;
                    pot_blocks = true;
                } else {
                    t.pending_overhead_ns = 0.0;
                    pot_exhausted = true;
                    pot_blocks = false;
                }
            } else {
                pot_used = 0.0;
                pot_exhausted = false;
                pot_blocks = false;
            }
        }
        self.attr.drain_pot(self.now, tid, pot_used, nrate, pot_exhausted);
        if pot_blocks {
            return;
        }
        if budget <= 0.0 {
            return;
        }
        let Some(cur) = current else {
            // Wake tail: a just-woken spinner's interval books as busy
            // time with nothing installed — it belongs to the wait
            // episode the in-flight wake() is about to classify.
            self.attr.wait_accrue(tid, budget);
            return;
        };
        if self.attr.on {
            self.attr_busy(tid, cpu, budget, &cur, home);
        }
        let rate = self.rate(cpu, &cur, home);
        let done = budget * rate;
        let t = &mut self.tasks[tid.0 as usize];
        if let Some(cur) = &mut t.current {
            let rem = cur.rem_mut();
            *rem -= done;
            if *rem < 1e-9 {
                *rem = 0.0;
            }
        }
    }

    /// Schedule the next boundary event for `cpu` given its current state.
    pub(super) fn schedule_boundary(&mut self, cpu: usize) {
        let Some(tid) = self.cpus[cpu].running else {
            return;
        };
        let t = &self.tasks[tid.0 as usize];
        let mut next: Option<Time> = None;
        if !matches!(t.state, TaskState::Waiting(_)) {
            let mut ns =
                t.pending_overhead_ns * self.topo.spec.clock.max_ghz / self.ghz(cpu);
            if let Some(cur) = &t.current {
                ns += cur.rem() / self.rate(cpu, cur, t.home_numa);
            } else if ns <= 0.0 {
                // Nothing timed in flight. This is either a finished
                // task, or a *mid-advance transient*: a nested wake (e.g.
                // a barrier release inside this task's own advance())
                // repriced this CPU before the task installed its next
                // timed micro-op. Scheduling nothing is correct in both
                // cases — the in-progress advance()'s caller reschedules
                // with the freshly bumped token.
                return;
            }
            next = Some(self.now + from_ns_f64(ns));
        }
        // Quantum rotation if user tasks are queued behind.
        if t.kind == TaskKind::User && !self.cpus[cpu].uq.is_empty() {
            let q = self.cpus[cpu].quantum_end.max(self.now + 1);
            next = Some(next.map_or(q, |n| n.min(q)));
        }
        if let Some(time) = next {
            let token = self.cpus[cpu].token;
            self.queue.push(time, EventKind::CpuBoundary { cpu, token });
        }
    }

    /// Update the streaming-membership cache of `cpu` and reprice peers
    /// when domain contention changes.
    pub(super) fn sync_stream(&mut self, cpu: usize) {
        let desired = match self.cpus[cpu].running {
            Some(tid) => {
                let t = &self.tasks[tid.0 as usize];
                match (&t.state, &t.current) {
                    (TaskState::Waiting(_), _) => None,
                    (_, Some(Timed::Bytes { .. })) => {
                        Some(t.home_numa.unwrap_or_else(|| self.topo.numa_of(cpu)))
                    }
                    _ => None,
                }
            }
            None => None,
        };
        let cached = self.cpus[cpu].streaming;
        if desired == cached {
            return;
        }
        // Account every affected peer's progress *before* the accessor
        // sets change: their elapsed streaming ran at the old contention
        // level, and `touch` prices with the current set.
        let mut affected = std::mem::take(&mut self.scratch_cpus);
        affected.clear();
        if let Some(d) = cached {
            affected.extend(self.domains[d].streamers.iter().copied().filter(|&c| c != cpu));
        }
        if let Some(d) = desired {
            affected.extend(self.domains[d].streamers.iter().copied().filter(|&c| c != cpu));
        }
        affected.sort_unstable();
        affected.dedup();
        for &peer in &affected {
            self.touch(peer);
        }
        if let Some(d) = cached {
            let dom = &mut self.domains[d];
            if let Some(pos) = dom.streamers.iter().position(|&c| c == cpu) {
                dom.streamers.swap_remove(pos);
            }
        }
        if let Some(d) = desired {
            self.domains[d].streamers.push(cpu);
        }
        self.cpus[cpu].streaming = desired;
        for &c in &affected {
            self.schedule_boundary(c);
        }
        affected.clear();
        self.scratch_cpus = affected;
    }

    /// Install `tid` (or nothing) as the running task of `cpu`, keeping
    /// the busy bookkeeping (core activity → DVFS, ticks, SMT sibling
    /// rates) coherent.
    pub(super) fn set_running(&mut self, cpu: usize, tid: Option<TaskId>) {
        let was_busy = self.cpus[cpu].running.is_some();
        self.cpus[cpu].running = tid;
        self.cpus[cpu].since = self.now;
        if let Some(t) = tid {
            self.tasks[t.0 as usize].cpu = cpu;
            if self.tasks[t.0 as usize].home_numa.is_none() {
                self.tasks[t.0 as usize].home_numa = Some(self.topo.numa_of(cpu));
            }
            if self.tasks[t.0 as usize].kind == TaskKind::User {
                self.cpus[cpu].quantum_end = self.now + self.params.sched.quantum;
                // Close any descheduled (queued) interval now ending.
                self.attr.take_queued(self.now, t);
            }
        }
        let is_busy = self.cpus[cpu].running.is_some();
        if was_busy != is_busy {
            let core = self.topo.core_of(cpu);
            let socket = self.topo.socket_of(cpu);
            if is_busy {
                self.core_busy[core] += 1;
                if self.core_busy[core] == 1 {
                    self.sockets[socket].active_cores += 1;
                    self.queue.push(
                        self.now + self.params.freq.reaction_latency,
                        EventKind::FreqReeval { socket },
                    );
                }
                // Start the tick chain (disabled entirely when ticks are
                // free, e.g. under sterile parameters).
                self.cpus[cpu].tick_token += 1;
                if self.params.sched.tick_cost > 0 {
                    let token = self.cpus[cpu].tick_token;
                    self.queue.push(
                        self.now + self.params.sched.tick_period,
                        EventKind::TimerTick { cpu, token },
                    );
                }
            } else {
                self.core_busy[core] -= 1;
                if self.core_busy[core] == 0 {
                    self.sockets[socket].active_cores -= 1;
                    self.queue.push(
                        self.now + self.params.freq.reaction_latency,
                        EventKind::FreqReeval { socket },
                    );
                }
                self.cpus[cpu].tick_token += 1; // cancel ticks
            }
            // SMT sibling rate changed (siblings come in ascending order
            // on both engine paths, so the touch/reschedule sequence is
            // the same).
            for sib in self.topo.siblings(cpu) {
                if self.cpus[sib].running.is_some() {
                    self.touch(sib);
                    self.schedule_boundary(sib);
                }
            }
        }
    }

    /// Pick and start the next task on an idle `cpu`, advance it as far
    /// as possible, and schedule its boundary.
    pub(super) fn commit(&mut self, cpu: usize) {
        if self.cpus[cpu].running.is_none() {
            let next = if let Some(k) = self.cpus[cpu].kq.pop_front() {
                Some(k)
            } else {
                self.cpus[cpu].uq.pop_front()
            };
            if let Some(t) = next {
                self.set_running(cpu, Some(t));
            }
        }
        if let Some(tid) = self.cpus[cpu].running {
            let t = &self.tasks[tid.0 as usize];
            if t.state == TaskState::Runnable && t.current.is_none() {
                self.advance(tid);
            }
        }
        self.sync_stream(cpu);
        self.schedule_boundary(cpu);
    }

    // ------------------------------------------------------------------
    // Run queues, preemption, load balancing
    // ------------------------------------------------------------------

    /// Initial placement of a user task: the least loaded online CPU of
    /// its place (any online CPU if the whole place is offline), or wake
    /// placement when unbound.
    pub(super) fn initial_cpu(&mut self, tid: TaskId) -> usize {
        match &self.tasks[tid.0 as usize].pin {
            Some(p) => place::least_loaded_in_place(&self.cpus, p)
                .unwrap_or_else(|| place::least_loaded(&mut self.rng_place, &self.cpus, &self.topo)),
            None => place::misplaced_or_least_loaded(
                &mut self.rng_place,
                &self.cpus,
                &self.topo,
                self.params.sched.wake_misplace_prob,
            ),
        }
    }

    /// Add `ns` max-frequency nanoseconds to `tid`'s overhead pot, the
    /// ledger remembering the cause.
    #[inline]
    pub(super) fn charge_pot(&mut self, tid: TaskId, ns: f64, src: AttrSource) {
        self.tasks[tid.0 as usize].pending_overhead_ns += ns;
        self.attr.pot(tid, ns, src);
    }

    /// Enqueue a ready task on `cpu`, preempting per priority rules.
    pub(super) fn enqueue(&mut self, tid: TaskId, cpu: usize) {
        let kind = self.tasks[tid.0 as usize].kind;
        self.tasks[tid.0 as usize].cpu = cpu;
        match kind {
            TaskKind::Kernel => {
                match self.cpus[cpu].running {
                    Some(r) if self.tasks[r.0 as usize].kind == TaskKind::User => {
                        // Kernel work preempts user work immediately; the
                        // victim additionally pays a cache-refill penalty
                        // when it resumes, scaled by how long the kernel
                        // work ran (how much cache it displaced).
                        self.touch(cpu);
                        self.set_running(cpu, None);
                        self.cpus[cpu].uq.push_front(r);
                        let dur_ns = match self.tasks[tid.0 as usize].program.ops().first() {
                            Some(Op::Busy { ns }) => *ns,
                            _ => self.params.sched.refill_saturation_ns,
                        };
                        let scale =
                            (dur_ns / self.params.sched.refill_saturation_ns).min(1.0);
                        let refill = scale * self.params.sched.preempt_refill_cycles
                            / self.ghz(cpu).max(0.1);
                        // The refill penalty and the queue residence until
                        // the victim resumes are both preemption noise.
                        self.charge_pot(r, refill, AttrSource::Preemption);
                        self.attr.set_queued(self.now, r);
                        self.tasks[r.0 as usize].stats.preemptions += 1;
                        self.counters.preemptions += 1;
                        self.trace_task(r, TraceKind::Instant(InstantKind::NoisePreemption));
                        self.cpus[cpu].kq.push_back(tid);
                        self.commit(cpu);
                    }
                    Some(_) => {
                        self.cpus[cpu].kq.push_back(tid);
                        // Boundary already scheduled for the running kernel
                        // task; nothing to do.
                    }
                    None => {
                        self.cpus[cpu].kq.push_back(tid);
                        self.commit(cpu);
                    }
                }
            }
            TaskKind::User => {
                if self.cpus[cpu].running.is_none() && self.cpus[cpu].kq.is_empty() {
                    self.cpus[cpu].uq.push_back(tid);
                    self.attr.set_queued(self.now, tid); // usually closed immediately by commit
                    self.commit(cpu);
                } else {
                    // Refresh the current quantum if it already expired.
                    if self.cpus[cpu].quantum_end <= self.now {
                        self.cpus[cpu].quantum_end = self.now + self.params.sched.quantum;
                    }
                    self.cpus[cpu].uq.push_back(tid);
                    self.attr.set_queued(self.now, tid);
                    // The running task now has competition: reprice so the
                    // quantum boundary takes effect.
                    self.touch(cpu);
                    self.schedule_boundary(cpu);
                }
            }
        }
    }

    /// One load-balancing pass: move queued, movable user tasks from
    /// overloaded CPUs to idle ones.
    pub(super) fn load_balance(&mut self) {
        let n = self.cpus.len();
        for cpu in 0..n {
            while !self.cpus[cpu].uq.is_empty()
                && self.cpus[cpu].uq.len() + usize::from(self.cpus[cpu].running.is_some()) >= 2
            {
                // Overloaded: this CPU has a runner plus waiters (or ≥2
                // waiters while a kernel task runs). Try to move the last
                // queued movable user task.
                let Some(pos) = self.cpus[cpu]
                    .uq
                    .iter()
                    .rposition(|t| self.movable(*t))
                else {
                    break;
                };
                let stale = self
                    .rng_balance
                    .chance(self.params.sched.balance_stale_prob);
                let target = {
                    let tid = self.cpus[cpu].uq[pos];
                    self.balance_target(tid, cpu, stale)
                };
                let Some(target) = target else { break };
                if target == cpu {
                    break;
                }
                let tid = self.cpus[cpu].uq.remove(pos).unwrap();
                self.migrate(tid, cpu, target);
            }
        }
    }

    /// Whether a queued user task may be migrated (unbound, or bound to a
    /// multi-CPU place).
    fn movable(&self, tid: TaskId) -> bool {
        let t = &self.tasks[tid.0 as usize];
        t.kind == TaskKind::User
            && match &t.pin {
                None => true,
                Some(p) => p.len() > 1,
            }
    }

    /// Choose a migration target for `tid` (currently on `from`).
    fn balance_target(&mut self, tid: TaskId, from: usize, stale: bool) -> Option<usize> {
        let t = &self.tasks[tid.0 as usize];
        let allowed: Vec<usize> = match &t.pin {
            Some(p) => p.hw_threads().iter().map(|h| h.0).collect(),
            None => (0..self.cpus.len()).collect(),
        };
        let allowed: Vec<usize> = allowed
            .into_iter()
            .filter(|&c| !self.cpus[c].offline)
            .collect();
        if allowed.is_empty() {
            return None;
        }
        if stale {
            // Stale load information: any allowed CPU, possibly busy.
            return Some(allowed[self.rng_balance.index(allowed.len())]);
        }
        // Prefer idle CPUs, nearest first.
        let mut best: Option<(u32, usize)> = None;
        let mut cands: Vec<usize> = Vec::new();
        for &c in &allowed {
            if c == from || self.cpus[c].load() > 0 {
                continue;
            }
            let d = self.topo.distance(from, c);
            match best {
                None => {
                    best = Some((d, c));
                    cands.clear();
                    cands.push(c);
                }
                Some((bd, _)) if d < bd => {
                    best = Some((d, c));
                    cands.clear();
                    cands.push(c);
                }
                Some((bd, _)) if d == bd => cands.push(c),
                _ => {}
            }
        }
        if cands.is_empty() {
            None
        } else {
            Some(cands[self.rng_balance.index(cands.len())])
        }
    }

    /// Migrate queued task `tid` from `from` to `to`, charging the
    /// cache-warmup penalty.
    pub(super) fn migrate(&mut self, tid: TaskId, from: usize, to: usize) {
        let d = self.topo.distance(from, to) as f64;
        let ghz = self.ghz(to);
        let penalty_ns =
            self.params.sched.migration_penalty_cycles * (1.0 + d) / ghz.max(0.1);
        self.charge_pot(tid, penalty_ns, AttrSource::Migration);
        self.tasks[tid.0 as usize].stats.migrations += 1;
        self.counters.migrations += 1;
        self.enqueue(tid, to);
    }

    // ------------------------------------------------------------------
    // CPU event handlers
    // ------------------------------------------------------------------

    pub(super) fn handle_boundary(&mut self, cpu: usize, token: u64) {
        if token != self.cpus[cpu].token {
            return; // stale
        }
        self.touch(cpu);
        let Some(tid) = self.cpus[cpu].running else {
            return;
        };
        let ti = tid.0 as usize;
        // Completed timed micro? (A finished atomic releases its slot.)
        if let Some(cur) = self.tasks[ti].current {
            if cur.rem() <= 0.0 && self.tasks[ti].pending_overhead_ns <= 0.0 {
                self.tasks[ti].current = None;
                if let Timed::AtomicNs { obj, .. } = cur {
                    self.atomic_done(obj);
                }
            }
        }
        // Quantum rotation.
        let rotate = self.tasks[ti].kind == TaskKind::User
            && !self.cpus[cpu].uq.is_empty()
            && self.now >= self.cpus[cpu].quantum_end;
        if rotate {
            self.set_running(cpu, None);
            self.cpus[cpu].uq.push_back(tid);
            self.attr.set_queued(self.now, tid);
        }
        self.commit(cpu);
    }

    pub(super) fn handle_tick(&mut self, cpu: usize, token: u64) {
        if token != self.cpus[cpu].tick_token {
            return;
        }
        if let Some(tid) = self.cpus[cpu].running {
            self.counters.ticks += 1;
            let waiting = matches!(self.tasks[tid.0 as usize].state, TaskState::Waiting(_));
            if !waiting {
                self.touch(cpu);
                self.charge_pot(tid, self.params.sched.tick_cost as f64, AttrSource::TimerTick);
                self.schedule_boundary(cpu);
            }
            self.queue.push(
                self.now + self.params.sched.tick_period,
                EventKind::TimerTick { cpu, token },
            );
        }
    }
}

//! The op interpreter: expands a task's program into micro-ops and runs
//! them against the sync objects until the task starts timed work,
//! blocks, or finishes; and the wake path that unblocks it.

use super::{place, Simulator};
use crate::error::SimError;
use crate::sync::{LoopSchedule, SyncObj};
use crate::task::{
    CorunClass, LoopFrame, MicroOp, ObjId, Op, TaskId, TaskKind, TaskState, Timed, WaitKind,
};
use crate::trace::MarkerRecord;
use ompvar_obs::{AttrSource, EventKind as TraceKind, SpanKind};

impl Simulator {
    /// Short label of a sync object's kind, for diagnostics.
    fn obj_kind(obj: &SyncObj) -> &'static str {
        match obj {
            SyncObj::Barrier(_) => "barrier",
            SyncObj::Lock(_) => "lock",
            SyncObj::Loop(_) => "loop",
            SyncObj::Atomic(_) => "atomic",
            SyncObj::Single(_) => "single",
            SyncObj::TaskPool(_) => "task-pool",
        }
    }

    /// Raise an [`SimError::ObjectTypeMismatch`] for `op` dispatched on
    /// `obj` (which is not the `expected` kind). The first error wins.
    fn type_mismatch(&mut self, op: &'static str, obj: ObjId, expected: &'static str) {
        if self.fatal.is_none() {
            self.fatal = Some(SimError::ObjectTypeMismatch {
                op,
                obj,
                expected,
                found: Self::obj_kind(&self.objs[obj.0 as usize]),
            });
        }
    }

    /// Drive `tid` (which must be the running task of its CPU, with no
    /// timed micro-op in flight) until it starts a timed micro-op, blocks,
    /// or finishes.
    ///
    /// A micro-op that produces the task's very next micro-op hands it
    /// over in `next` instead of parking it on the task's `micro` stack;
    /// the stack holds only the tails of expanded ops and chunks.
    pub(super) fn advance(&mut self, tid: TaskId) {
        let ti = tid.0 as usize;
        let mut next = None;
        loop {
            if self.fatal.is_some() {
                // A helper raised an unrecoverable error mid-advance; stop
                // interpreting so `run` can surface it after this event.
                return;
            }
            debug_assert!(self.tasks[ti].current.is_none());
            debug_assert_eq!(self.tasks[ti].state, TaskState::Runnable);
            let Some(micro) = next
                .take()
                .or_else(|| self.tasks[ti].micro.pop())
                .or_else(|| self.expand_next_op(tid))
            else {
                if self.fatal.is_none() {
                    self.finish_task(tid);
                }
                return;
            };
            match micro {
                MicroOp::Timed(t) => {
                    if t.rem() <= 0.0 {
                        if let Timed::AtomicNs { obj, .. } = t {
                            self.atomic_done(obj);
                        }
                        continue;
                    }
                    self.tasks[ti].current = Some(t);
                    return;
                }
                MicroOp::Mark(marker) => {
                    self.markers.push(MarkerRecord {
                        time: self.now,
                        task: tid,
                        marker,
                    });
                }
                MicroOp::BarrierArrive(obj) => {
                    if self.barrier_arrive(tid, obj) {
                        return; // blocked (spinning)
                    }
                }
                MicroOp::LockAcquire(obj) => {
                    // Critical span opens at the acquire attempt, so lock
                    // wait time is inside the span (EPCC measures it so).
                    self.trace_task(tid, TraceKind::Begin(SpanKind::Critical));
                    let SyncObj::Lock(l) = &mut self.objs[obj.0 as usize] else {
                        self.type_mismatch("LockAcquire", obj, "lock");
                        return;
                    };
                    if l.acquire(tid) {
                        let cost = self.params.sync.lock_ns * l.span_factor;
                        self.charge_pot(tid, cost, AttrSource::RuntimeOverhead);
                    } else {
                        self.block(tid, WaitKind::Lock(obj));
                        return;
                    }
                }
                MicroOp::LockRelease(obj) => {
                    let SyncObj::Lock(l) = &mut self.objs[obj.0 as usize] else {
                        self.type_mismatch("LockRelease", obj, "lock");
                        return;
                    };
                    let span = l.span_factor;
                    if let Some(next) = l.release(tid) {
                        let cost = self.params.sync.lock_ns * span;
                        self.wake(next, cost);
                    }
                    self.trace_task(tid, TraceKind::End(SpanKind::Critical));
                }
                MicroOp::AtomicStart(obj) => {
                    let SyncObj::Atomic(a) = &mut self.objs[obj.0 as usize] else {
                        self.type_mismatch("AtomicStart", obj, "atomic");
                        return;
                    };
                    let cost = self.params.sync.atomic_ns
                        + self.params.sync.atomic_contention_ns
                            * a.active as f64
                            * a.span_factor;
                    a.active += 1;
                    a.ops += 1;
                    next = Some(MicroOp::Timed(Timed::AtomicNs { rem: cost, obj }));
                }
                MicroOp::GrabChunk(obj) => {
                    next = self.grab_chunk(tid, obj);
                }
                MicroOp::WaitTicket { obj, iter } => {
                    // Ordered span opens at the ticket wait: it covers the
                    // in-turn wait plus the ordered body.
                    self.trace_task(tid, TraceKind::Begin(SpanKind::Ordered));
                    let SyncObj::Loop(l) = &mut self.objs[obj.0 as usize] else {
                        self.type_mismatch("WaitTicket", obj, "loop");
                        return;
                    };
                    if !l.ticket_ready(iter) {
                        l.ordered_waiters.push((iter, tid));
                        self.block(tid, WaitKind::Ticket { obj, iter });
                        return;
                    }
                }
                MicroOp::TicketDone { obj } => {
                    self.trace_task(tid, TraceKind::End(SpanKind::Ordered));
                    let SyncObj::Loop(l) = &mut self.objs[obj.0 as usize] else {
                        self.type_mismatch("TicketDone", obj, "loop");
                        return;
                    };
                    let woken = l.ticket_advance();
                    if let Some(w) = woken {
                        let cost = self.params.sync.ordered_ns;
                        self.wake(w, cost);
                    }
                }
                MicroOp::TaskSpawnOne { obj, body_cycles } => {
                    let SyncObj::TaskPool(p) = &mut self.objs[obj.0 as usize] else {
                        self.type_mismatch("TaskSpawnOne", obj, "task-pool");
                        return;
                    };
                    // The task queue is a central, lock-protected
                    // structure (libgomp's team task lock): with k
                    // concurrent producers, each enqueue effectively waits
                    // behind k−1 others — modeled as k × the contended
                    // unit cost (an M/D/1-style full-contention bound).
                    let k = p.spawners as f64;
                    let cost = k
                        * (self.params.sync.task_spawn_ns
                            + self.params.sync.atomic_contention_ns * (k - 1.0))
                        * p.span_factor;
                    p.spawn(body_cycles);
                    self.charge_pot(tid, cost, AttrSource::RuntimeOverhead);
                }
                MicroOp::TaskExecOrWait { obj } => {
                    let SyncObj::TaskPool(p) = &mut self.objs[obj.0 as usize] else {
                        self.type_mismatch("TaskExecOrWait", obj, "task-pool");
                        return;
                    };
                    match p.steal() {
                        Some(cycles) => {
                            // Steals serialize through the same central
                            // lock: the whole team contends during the
                            // drain phase.
                            let k = p.participants as f64;
                            let dispatch = k
                                * (self.params.sync.task_dispatch_ns
                                    + self.params.sync.atomic_contention_ns * (k - 1.0))
                                * p.span_factor;
                            self.charge_pot(tid, dispatch, AttrSource::RuntimeOverhead);
                            // The body, then `TaskDone`, then the next
                            // steal: the stack takes them last-first.
                            let t = &mut self.tasks[ti];
                            t.micro.push(MicroOp::TaskExecOrWait { obj });
                            t.micro.push(MicroOp::TaskDone { obj });
                            next = Some(MicroOp::Timed(Timed::Cycles {
                                rem: cycles,
                                class: CorunClass::Latency,
                            }));
                            self.trace_task(tid, TraceKind::Begin(SpanKind::Task));
                        }
                        None => {
                            if p.outstanding > 0 {
                                p.waiters.push(tid);
                                self.block(tid, WaitKind::TaskPool(obj));
                                return;
                            }
                            // Pool fully drained: proceed.
                        }
                    }
                }
                MicroOp::TaskDone { obj } => {
                    self.trace_task(tid, TraceKind::End(SpanKind::Task));
                    let SyncObj::TaskPool(p) = &mut self.objs[obj.0 as usize] else {
                        self.type_mismatch("TaskDone", obj, "task-pool");
                        return;
                    };
                    let woken = p.complete();
                    let cost = self.params.sync.lock_ns;
                    if !woken.is_empty() {
                        for &w in &woken {
                            self.wake(w, cost);
                        }
                        // Return the drained waiter list for later
                        // task-waits to re-use (empty drains carry no
                        // allocation and are simply dropped).
                        if let SyncObj::TaskPool(p) = &mut self.objs[obj.0 as usize] {
                            p.recycle(woken);
                        }
                    }
                }
                MicroOp::SingleTry { obj, body_cycles } => {
                    self.trace_task(tid, TraceKind::Begin(SpanKind::Single));
                    let SyncObj::Single(s) = &mut self.objs[obj.0 as usize] else {
                        self.type_mismatch("SingleTry", obj, "single");
                        return;
                    };
                    if s.enter() {
                        // Close the span after the winner's body runs; the
                        // marker micro-op is free, so traced and untraced
                        // runs stay time-identical.
                        let end = MicroOp::SpanEnd(SpanKind::Single);
                        next = Some(if body_cycles > 0.0 {
                            self.tasks[ti].micro.push(end);
                            MicroOp::Timed(Timed::Cycles {
                                rem: body_cycles,
                                class: CorunClass::Latency,
                            })
                        } else {
                            end
                        });
                    } else {
                        self.charge_pot(tid, self.params.sync.single_ns, AttrSource::RuntimeOverhead);
                        self.trace_task(tid, TraceKind::End(SpanKind::Single));
                    }
                }
                MicroOp::SpanEnd(kind) => {
                    self.trace_task(tid, TraceKind::End(kind));
                }
            }
        }
    }

    /// Expand the op at `pc` and return its first micro-op. The rest of
    /// the op (a barrier's arrival, a spawn batch's later spawns) goes on
    /// the task's stack, which is empty whenever an op expands. Returns
    /// `None` when the program has ended.
    fn expand_next_op(&mut self, tid: TaskId) -> Option<MicroOp> {
        let ti = tid.0 as usize;
        debug_assert!(self.tasks[ti].micro.is_empty(), "op expanded behind a pending tail");
        loop {
            let t = &mut self.tasks[ti];
            let pc = t.pc;
            let op = *t.program.ops().get(pc)?;
            t.pc += 1;
            return Some(match op {
                Op::LoopBegin { count } => {
                    t.frames.push(LoopFrame {
                        begin_pc: pc,
                        remaining: count - 1,
                    });
                    self.periodic.frame_moves += 1;
                    continue;
                }
                Op::LoopEnd => {
                    let frame = t.frames.last_mut().expect("LoopEnd without frame");
                    if frame.remaining > 0 {
                        frame.remaining -= 1;
                        t.pc = frame.begin_pc + 1;
                        // Rank 0 starts another iteration: the periodic
                        // fast-forward checkpoints after this event.
                        if t.rank == 0 && t.kind == TaskKind::User {
                            self.periodic.due = true;
                        }
                    } else {
                        t.frames.pop();
                        self.periodic.frame_moves += 1;
                    }
                    continue;
                }
                Op::Compute { cycles, class } => MicroOp::Timed(Timed::Cycles { rem: cycles, class }),
                Op::Busy { ns } => MicroOp::Timed(Timed::Ns { rem: ns }),
                Op::MemStream { bytes } => MicroOp::Timed(Timed::Bytes { rem: bytes }),
                Op::Mark { marker } => MicroOp::Mark(marker),
                Op::Barrier { obj } => {
                    let SyncObj::Barrier(b) = &self.objs[obj.0 as usize] else {
                        self.type_mismatch("Barrier", obj, "barrier");
                        return None;
                    };
                    let arrive = self.params.sync.barrier_arrive_ns
                        + self.params.sync.barrier_arrive_per_thread_ns
                            * (b.n.saturating_sub(1)) as f64
                            * b.span_factor;
                    t.micro.push(MicroOp::BarrierArrive(obj));
                    // The barrier span covers arrive overhead + wait: it
                    // opens here and closes on release (in `wake`, or in
                    // `barrier_arrive` for the last arriver).
                    self.trace_task(tid, TraceKind::Begin(SpanKind::Barrier));
                    MicroOp::Timed(Timed::Ns { rem: arrive })
                }
                Op::LockAcquire { obj } => MicroOp::LockAcquire(obj),
                Op::LockRelease { obj } => MicroOp::LockRelease(obj),
                Op::AtomicOp { obj } => MicroOp::AtomicStart(obj),
                Op::ForLoop { obj } => {
                    // Re-arm the task-private loop cursor: it is shared
                    // across loop objects, and two distinct loops whose
                    // generation counters coincide would otherwise alias —
                    // the second loop would see a stale exhausted cursor
                    // and hand this task no work at all.
                    t.loop_gen = u64::MAX;
                    t.loop_pos = 0;
                    self.trace_task(tid, TraceKind::Begin(SpanKind::Workshare));
                    MicroOp::GrabChunk(obj)
                }
                Op::Single { obj, body_cycles } => MicroOp::SingleTry { obj, body_cycles },
                Op::TaskSpawn {
                    obj,
                    count,
                    body_cycles,
                } => {
                    if count == 0 {
                        continue;
                    }
                    let spawn = MicroOp::TaskSpawnOne { obj, body_cycles };
                    t.micro.extend((1..count).map(|_| spawn));
                    spawn
                }
                Op::TaskWait { obj } => MicroOp::TaskExecOrWait { obj },
            });
        }
    }

    /// Grab `tid`'s next chunk of loop `obj`. Returns the chunk's first
    /// micro-op (its dispatch cost, else its body) and stacks the rest;
    /// `None` when the loop is exhausted for `tid`.
    fn grab_chunk(&mut self, tid: TaskId, obj: ObjId) -> Option<MicroOp> {
        let SyncObj::Loop(l) = &mut self.objs[obj.0 as usize] else {
            self.type_mismatch("GrabChunk", obj, "loop");
            return None;
        };
        let t = &mut self.tasks[tid.0 as usize];
        debug_assert!(t.micro.is_empty(), "chunk grabbed behind a pending tail");
        let Some(g) = l.grab(t.rank, &mut t.loop_gen, &mut t.loop_pos) else {
            l.observe_exhausted();
            // Loop op done; fall through to the next micro/op.
            self.trace_task(tid, TraceKind::End(SpanKind::Workshare));
            return None;
        };
        let sync = &self.params.sync;
        let per_grab = match l.spec.schedule {
            LoopSchedule::Static { .. } => sync.static_grab_ns,
            LoopSchedule::Dynamic { .. } | LoopSchedule::Guided { .. } => {
                sync.atomic_ns
                    + sync.atomic_contention_ns
                        * l.active().saturating_sub(1) as f64
                        * l.spec.span_factor
            }
        };
        let dispatch = per_grab * g.n_grabs as f64;
        // The chunk's micro-ops in order: the first is handed back, the
        // rest go on the stack, which is reversed below to pop in order.
        let mut head = (dispatch > 0.0).then_some(MicroOp::Timed(Timed::Ns { rem: dispatch }));
        let mut emit = |m: MicroOp| match head {
            None => head = Some(m),
            Some(_) => t.micro.push(m),
        };
        let (body_cycles, class) = (l.spec.body_cycles, l.spec.body_class);
        match l.spec.ordered_section_ns {
            None => emit(MicroOp::Timed(Timed::Cycles {
                rem: body_cycles * g.iters as f64,
                class,
            })),
            Some(section_ns) => {
                for i in g.first_iter..g.first_iter + g.iters {
                    emit(MicroOp::Timed(Timed::Cycles { rem: body_cycles, class }));
                    emit(MicroOp::WaitTicket { obj, iter: i });
                    emit(MicroOp::Timed(Timed::Ns { rem: section_ns }));
                    emit(MicroOp::TicketDone { obj });
                }
            }
        }
        emit(MicroOp::SpanEnd(SpanKind::Chunk));
        emit(MicroOp::GrabChunk(obj));
        t.micro.reverse();
        self.trace_task(tid, TraceKind::Begin(SpanKind::Chunk));
        head
    }

    /// Park `tid` spin-waiting on `on`, opening a fresh wait episode in
    /// the ledger; the caller stops interpreting.
    fn block(&mut self, tid: TaskId, on: WaitKind) {
        self.tasks[tid.0 as usize].state = TaskState::Waiting(on);
        self.attr.flush_wait(self.now, tid);
    }

    /// Barrier arrival. Returns `true` when the task blocked.
    fn barrier_arrive(&mut self, tid: TaskId, obj: ObjId) -> bool {
        let cpu = self.tasks[tid.0 as usize].cpu;
        let SyncObj::Barrier(b) = &mut self.objs[obj.0 as usize] else {
            self.type_mismatch("BarrierArrive", obj, "barrier");
            return true; // treat as blocked: advance() stops, run() errors
        };
        if b.arrive(cpu) {
            let span = b.span_factor;
            let last_cpu = b.last_cpu;
            let waiters = b.release();
            let base = self.params.sync.barrier_release_ns;
            let per_dist = self.params.sync.barrier_release_per_distance_ns;
            // The last arriver pays the base release cost itself.
            self.charge_pot(tid, base * span, AttrSource::RuntimeOverhead);
            self.trace_task(tid, TraceKind::End(SpanKind::Barrier));
            for &w in &waiters {
                let wcpu = self.tasks[w.0 as usize].cpu;
                let d = self.topo.distance(last_cpu, wcpu) as f64;
                self.wake(w, base + per_dist * d);
            }
            // Hand the drained waiter list back so the next round's
            // arrivals re-use its capacity instead of growing a fresh one.
            if let SyncObj::Barrier(b) = &mut self.objs[obj.0 as usize] {
                b.recycle(waiters);
            }
            false
        } else {
            b.waiters.push(tid);
            self.block(tid, WaitKind::Barrier(obj));
            true
        }
    }

    /// Wake a spin-waiting task: it becomes runnable with `cost_ns` of
    /// wake-up latency; if it currently holds its CPU it resumes at once.
    ///
    /// Unbound tasks are additionally subject to *wake migration*: with
    /// the configured probability, the scheduler re-places them as if
    /// they had slept through the wait and were woken fresh — they drift
    /// away from their first-touch NUMA domain and occasionally stack on
    /// busy CPUs, the paper's "before thread-pinning" behaviour.
    fn wake(&mut self, tid: TaskId, cost_ns: f64) {
        let ti = tid.0 as usize;
        debug_assert!(matches!(self.tasks[ti].state, TaskState::Waiting(_)));
        if self.lost_wakeups_armed > 0 {
            // Lost-wakeup fault: the release never reaches this waiter.
            // The waker already removed it from the object's waiter list,
            // so it spins forever — the watchdog reports the deadlock.
            self.lost_wakeups_armed -= 1;
            self.counters.lost_wakeups += 1;
            return;
        }
        // A waiter released from a barrier closes its barrier span here
        // (its `BarrierArrive` micro-op was consumed when it blocked).
        if matches!(
            self.tasks[ti].state,
            TaskState::Waiting(WaitKind::Barrier(_))
        ) {
            self.trace_task(tid, TraceKind::End(SpanKind::Barrier));
        }
        self.tasks[ti].state = TaskState::Runnable;
        self.charge_pot(tid, cost_ns, AttrSource::RuntimeOverhead);
        let cpu = self.tasks[ti].cpu;
        if self.tasks[ti].pin.is_none()
            && self.params.sched.wake_migrate_prob > 0.0
            && self.rng_place.chance(self.params.sched.wake_migrate_prob)
        {
            let target = place::misplaced_or_least_loaded(
                &mut self.rng_place,
                &self.cpus,
                &self.topo,
                self.params.sched.wake_misplace_prob,
            );
            if target != cpu {
                // Detach from the current CPU (running or queued).
                if self.cpus[cpu].running == Some(tid) {
                    self.touch(cpu);
                    self.set_running(cpu, None);
                    self.migrate(tid, cpu, target);
                    self.commit(cpu);
                } else if let Some(pos) = self.cpus[cpu].uq.iter().position(|&t| t == tid) {
                    self.cpus[cpu].uq.remove(pos);
                    self.migrate(tid, cpu, target);
                }
                // The wake completed: classify the closed wait episode.
                self.attr.flush_wait(self.now, tid);
                return;
            }
        }
        if self.cpus[cpu].running == Some(tid) {
            self.touch(cpu);
            self.commit(cpu);
        }
        // Otherwise the task is queued and resumes when next dispatched.
        // Either way the wake completed: classify the closed wait episode
        // (after touch() has folded the final spin interval into it).
        self.attr.flush_wait(self.now, tid);
    }

    /// Completion of a contended atomic: release its slot.
    pub(super) fn atomic_done(&mut self, obj: ObjId) {
        let SyncObj::Atomic(a) = &mut self.objs[obj.0 as usize] else {
            self.type_mismatch("AtomicDone", obj, "atomic");
            return;
        };
        debug_assert!(a.active > 0);
        a.active -= 1;
    }

    /// Remove a finished task from its CPU and recycle kernel tasks.
    fn finish_task(&mut self, tid: TaskId) {
        let ti = tid.0 as usize;
        if self.tasks[ti].kind == TaskKind::User {
            self.trace_task(tid, TraceKind::End(SpanKind::Region));
        }
        self.tasks[ti].state = TaskState::Done;
        let cpu = self.tasks[ti].cpu;
        debug_assert_eq!(self.cpus[cpu].running, Some(tid));
        self.set_running(cpu, None);
        match self.tasks[ti].kind {
            TaskKind::User => {
                self.users_remaining -= 1;
            }
            TaskKind::Kernel => {
                self.kernel_freelist.push(tid);
            }
        }
        self.commit(cpu);
    }
}

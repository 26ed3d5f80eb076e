//! The state walk: every field of the simulator's state, named once with
//! its class. The periodic fast-forward (`periodic.rs`) reads its
//! encoding and its accumulators from this one function, through the
//! [`Walker`] it is handed.

use super::{Cpu, Domain, Simulator, Socket};
use crate::sync::{AtomicObj, BarrierObj, LockObj, LoopObj, SingleObj, SyncObj, TaskPoolObj};
use crate::task::{LoopFrame, MicroOp, ObjId, Task, TaskId, TaskState, TaskStats, Timed, WaitKind};
use crate::trace::Counters;

fn task_word(t: TaskId) -> u64 {
    u64::from(t.0)
}

fn opt_task_word(t: Option<TaskId>) -> u64 {
    t.map_or(u64::MAX, task_word)
}

fn obj_word(o: ObjId) -> u64 {
    u64::from(o.0)
}

fn timed_words(t: Option<Timed>, w: &mut impl Walker) {
    match t {
        None => w.words([0]),
        Some(Timed::Cycles { rem, class }) => w.words([1, rem.to_bits(), class as u64]),
        Some(Timed::Ns { rem }) => w.words([2, rem.to_bits()]),
        Some(Timed::Bytes { rem }) => w.words([3, rem.to_bits()]),
        Some(Timed::AtomicNs { rem, obj }) => w.words([4, rem.to_bits(), obj_word(obj)]),
    }
}

fn micro_words(m: MicroOp, w: &mut impl Walker) {
    match m {
        MicroOp::Timed(t) => timed_words(Some(t), w),
        MicroOp::Mark(k) => w.words([5, u64::from(k)]),
        MicroOp::BarrierArrive(o) => w.words([6, obj_word(o)]),
        MicroOp::LockAcquire(o) => w.words([7, obj_word(o)]),
        MicroOp::LockRelease(o) => w.words([8, obj_word(o)]),
        MicroOp::AtomicStart(o) => w.words([9, obj_word(o)]),
        MicroOp::GrabChunk(o) => w.words([10, obj_word(o)]),
        MicroOp::WaitTicket { obj, iter } => w.words([11, obj_word(obj), iter]),
        MicroOp::TicketDone { obj } => w.words([12, obj_word(obj)]),
        MicroOp::SingleTry { obj, body_cycles } => {
            w.words([13, obj_word(obj), body_cycles.to_bits()]);
        }
        MicroOp::TaskSpawnOne { obj, body_cycles } => {
            w.words([14, obj_word(obj), body_cycles.to_bits()]);
        }
        MicroOp::TaskExecOrWait { obj } => w.words([15, obj_word(obj)]),
        MicroOp::TaskDone { obj } => w.words([16, obj_word(obj)]),
        MicroOp::SpanEnd(kind) => w.words([17, kind as u64]),
    }
}

fn state_words(s: TaskState, w: &mut impl Walker) {
    match s {
        TaskState::Runnable => w.words([0]),
        TaskState::Done => w.words([1]),
        TaskState::Waiting(WaitKind::Barrier(o)) => w.words([2, obj_word(o)]),
        TaskState::Waiting(WaitKind::Lock(o)) => w.words([3, obj_word(o)]),
        TaskState::Waiting(WaitKind::Ticket { obj, iter }) => {
            w.words([4, obj_word(obj), iter]);
        }
        TaskState::Waiting(WaitKind::TaskPool(o)) => w.words([5, obj_word(o)]),
    }
}

/// How a jump advances an accumulator over `m` periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Acc {
    /// A count: by `m` × its per-period delta.
    Count,
    /// A frame's `remaining`, a count down whose loop exits at zero.
    Remaining,
    /// A time stamp that is only ever set to `now` plus a fixed offset:
    /// with `now` if the period set it, else not at all.
    Stamp,
}

/// A visitor of the state walk ([`Simulator::walk`]).
pub(super) trait Walker {
    /// Words of the encoding, in walk order.
    fn words(&mut self, words: impl IntoIterator<Item = u64>);
    /// An accumulator, in walk order, and how a jump advances it.
    fn acc(&mut self, v: &mut u64, kind: Acc);
}

/// The walk's encoding, appended to a buffer; accumulators are skipped.
pub(super) struct Encode<'a>(pub(super) &'a mut Vec<u64>);

impl Walker for Encode<'_> {
    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        self.0.extend(words);
    }

    fn acc(&mut self, _: &mut u64, _: Acc) {}
}

/// The walk's accumulators, each handed to a closure; the encoding is
/// skipped.
pub(super) struct Accumulators<F>(pub(super) F);

impl<F: FnMut(&mut u64, Acc)> Walker for Accumulators<F> {
    fn words(&mut self, _: impl IntoIterator<Item = u64>) {}

    fn acc(&mut self, v: &mut u64, kind: Acc) {
        (self.0)(v, kind);
    }
}

/// Hand a `u32` accumulator to a walker of `u64`s.
fn narrow(v: &mut u32, kind: Acc, w: &mut impl Walker) {
    let mut x = u64::from(*v);
    w.acc(&mut x, kind);
    *v = x as u32;
}

impl Simulator {
    /// The state walk: every field of the simulator's state, named once
    /// with its class, in one fixed order. Each field is
    ///
    /// * encoded: handed to [`Walker::words`] relative to `now` (the
    ///   pending boundaries are encoded first, by
    ///   `EventQueue::boundary_words`);
    /// * an accumulator: handed to [`Walker::acc`] with its [`Acc`], CPU
    ///   tokens first, so CPU `c`'s token is accumulator `c`;
    /// * changed only by far-tier handlers or on a busy turn, which no
    ///   confirmed period holds (its `Epoch` pins both);
    /// * constant after spawn;
    /// * or output, never read back by a handler.
    ///
    /// Every variable-length part is encoded after its length, so equal
    /// encodings mean equal states. Every pattern names every field, so a
    /// new field does not compile here until it is classed.
    pub(super) fn walk(&mut self, w: &mut impl Walker) {
        let Simulator {
            // Encoded, or accumulators.
            users_remaining,
            lost_wakeups_armed,
            rng_place,
            rng_balance,
            cpus,
            sockets,
            domains,
            tasks,
            objs,
            counters,
            // The clock and the queue: the pending boundaries are encoded
            // first, and a jump shifts them with `now` and the seq
            // counter; only far-tier handlers push or pop the far tier.
            now,
            queue: _,
            // Changed only by far-tier handlers or on a busy turn. The
            // cores' busy counts follow from which CPUs are busy; kernel
            // tasks come from noise arrivals, so their recycling shows in
            // the tasks' states.
            core_busy: _,
            noise_streams: _,
            kernel_freelist: _,
            fault_rngs: _,
            rng_fault: _,
            // Constant after spawn.
            topo: _,
            params: _,
            logger: _,
            user_tasks: _,
            started: _,
            fault_plan: _,
            event_budget: _,
            // Output, or scratch that is empty between events; the
            // absorber's own state.
            markers: _,
            freq_samples: _,
            fatal: _,
            trace: _,
            attr: _,
            scratch_cpus: _,
            periodic: _,
        } = self;
        let now = *now;
        for c in cpus.iter_mut() {
            w.acc(&mut c.token, Acc::Count);
        }
        w.words([*users_remaining as u64, u64::from(*lost_wakeups_armed)]);
        w.words(rng_place.state_words());
        w.words(rng_balance.state_words());
        for Socket {
            // Read by every rate; far-tier handlers change it, and a jump
            // may start after one.
            applied_ghz,
            // Follows from which CPUs are busy.
            active_cores: _,
            // Changed only by far-tier handlers or on a busy turn, and
            // read by the governor alone.
            pulse_active: _,
            pulse_token: _,
            pulse_armed: _,
            cap_ghz: _,
            rng: _,
            // Output: read by the attribution ledger alone.
            clean_ghz: _,
        } in sockets.iter()
        {
            w.words([applied_ghz.to_bits()]);
        }
        for (i, c) in cpus.iter_mut().enumerate() {
            let Cpu {
                // An accumulator, handed over first, above.
                token: _,
                since,
                quantum_end,
                running,
                kq,
                uq,
                streaming,
                // Changed only on a busy turn or by a fault.
                tick_token: _,
                offline: _,
            } = c;
            w.acc(since, Acc::Stamp);
            w.acc(quantum_end, Acc::Stamp);
            // Within an epoch no CPU turns busy or idle, so only busy CPUs
            // are encoded: an idle CPU changes only on such a turn.
            let Some(running) = *running else { continue };
            w.words([
                i as u64,
                task_word(running),
                // Read only while a task queues behind the running one
                // (no task joins the queue without a migration), and an
                // expired quantum reads the same however long ago.
                if uq.is_empty() {
                    u64::MAX
                } else {
                    quantum_end.saturating_sub(now)
                },
                now - *since,
                streaming.map_or(u64::MAX, |d| d as u64),
                kq.len() as u64,
                uq.len() as u64,
            ]);
            w.words(kq.iter().chain(uq.iter()).copied().map(task_word));
        }
        let Counters {
            preemptions,
            migrations,
            noise_events,
            noise_busy,
            ticks,
            freq_transitions,
            events,
            faults_injected,
            lost_wakeups,
        } = counters;
        for v in [
            preemptions,
            migrations,
            noise_events,
            noise_busy,
            ticks,
            freq_transitions,
            events,
            faults_injected,
            lost_wakeups,
        ] {
            w.acc(v, Acc::Count);
        }
        for Domain { streamers } in domains.iter() {
            w.words([streamers.len() as u64]);
            w.words(streamers.iter().map(|&c| c as u64));
        }
        w.words([tasks.len() as u64]);
        for t in tasks.iter_mut() {
            let Task {
                // Constant after spawn; a kernel task's program is
                // rewritten only by far-tier handlers.
                id: _,
                kind: _,
                rank: _,
                program: _,
                pin: _,
                state,
                pc,
                cpu,
                home_numa,
                pending_overhead_ns,
                loop_gen,
                loop_pos,
                frames,
                micro,
                current,
                stats:
                    TaskStats {
                        busy_time,
                        wait_time,
                        preempted_time,
                        migrations,
                        preemptions,
                    },
            } = t;
            w.acc(busy_time, Acc::Count);
            w.acc(wait_time, Acc::Count);
            w.acc(preempted_time, Acc::Count);
            narrow(migrations, Acc::Count, w);
            narrow(preemptions, Acc::Count, w);
            // Live or not is encoded; a live cursor equals its loop's
            // generation.
            w.acc(loop_gen, Acc::Count);
            state_words(*state, w);
            // A finished task has no frames, micro-ops or timed op left.
            if *state == TaskState::Done {
                continue;
            }
            w.words([
                *pc as u64,
                *cpu as u64,
                home_numa.map_or(u64::MAX, |d| d as u64),
                pending_overhead_ns.to_bits(),
                u64::from(*loop_gen == u64::MAX),
                *loop_pos,
                frames.len() as u64,
                micro.len() as u64,
            ]);
            for LoopFrame {
                begin_pc,
                remaining,
            } in frames.iter_mut()
            {
                w.words([*begin_pc as u64]);
                narrow(remaining, Acc::Remaining, w);
            }
            timed_words(*current, w);
            for &m in micro.iter() {
                micro_words(m, w);
            }
        }
        for o in objs.iter_mut() {
            match o {
                SyncObj::Barrier(BarrierObj {
                    n: _,
                    span_factor: _,
                    spare: _,
                    arrived,
                    last_cpu,
                    waiters,
                    arrivals,
                }) => {
                    w.words([0, *arrived as u64, *last_cpu as u64, waiters.len() as u64]);
                    w.words(waiters.iter().copied().map(task_word));
                    w.acc(arrivals, Acc::Count);
                }
                SyncObj::Lock(LockObj {
                    span_factor: _,
                    holder,
                    queue,
                    entries,
                }) => {
                    w.words([1, opt_task_word(*holder), queue.len() as u64]);
                    w.words(queue.iter().copied().map(task_word));
                    w.acc(entries, Acc::Count);
                }
                SyncObj::Atomic(AtomicObj {
                    span_factor: _,
                    active,
                    ops,
                }) => {
                    w.words([2, *active as u64]);
                    w.acc(ops, Acc::Count);
                }
                SyncObj::Single(SingleObj { n, count, wins }) => {
                    // Read only modulo the team.
                    w.words([3, *count % *n as u64]);
                    w.acc(count, Acc::Count);
                    w.acc(wins, Acc::Count);
                }
                SyncObj::Loop(LoopObj {
                    spec: _,
                    next_iter,
                    entered,
                    finished,
                    ordered_next,
                    ordered_waiters,
                    generation,
                    iters_executed,
                    passes,
                    ordered_done,
                }) => {
                    w.words([
                        4,
                        *next_iter,
                        *entered as u64,
                        *finished as u64,
                        *ordered_next,
                        ordered_waiters.len() as u64,
                    ]);
                    w.words(
                        ordered_waiters
                            .iter()
                            .flat_map(|&(iter, t)| [iter, task_word(t)]),
                    );
                    for v in [generation, iters_executed, passes, ordered_done] {
                        w.acc(v, Acc::Count);
                    }
                }
                SyncObj::TaskPool(TaskPoolObj {
                    span_factor: _,
                    participants: _,
                    spawners: _,
                    spare: _,
                    outstanding,
                    pending,
                    waiters,
                    spawned,
                    executed,
                }) => {
                    w.words([
                        5,
                        *outstanding as u64,
                        pending.len() as u64,
                        waiters.len() as u64,
                    ]);
                    w.words(pending.iter().map(|c| c.to_bits()));
                    w.words(waiters.iter().copied().map(task_word));
                    w.acc(spawned, Acc::Count);
                    w.acc(executed, Acc::Count);
                }
            }
        }
    }
}

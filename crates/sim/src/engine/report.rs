//! What a run emits: the span/instant trace as it is recorded, and the
//! report, attribution harvest and deadlock diagnostics `run` returns.

use super::Simulator;
use crate::error::{BlockedOn, BlockedTask, SimError};
use crate::sync::SyncObj;
use crate::task::{TaskId, TaskState, WaitKind};
use crate::time::Time;
use crate::trace::{ObjEffects, SimReport};
use ompvar_obs::{EventKind as TraceKind, InstantKind, Trace, TraceEvent, THREAD_GLOBAL};

impl Simulator {
    /// Record a span begin/end for `tid` at the current virtual time,
    /// stamped with the task's team rank and current CPU.
    #[inline]
    pub(super) fn trace_task(&mut self, tid: TaskId, kind: TraceKind) {
        if let Some(buf) = &mut self.trace {
            let t = &self.tasks[tid.0 as usize];
            buf.push(TraceEvent {
                time_ns: self.now,
                thread: t.rank as u32,
                core: t.cpu as u32,
                kind,
            });
        }
    }

    /// Record a runtime-wide instant event (fault, retarget) not tied to
    /// any team thread.
    #[inline]
    pub(super) fn trace_global(&mut self, kind: InstantKind, core: u32) {
        if let Some(buf) = &mut self.trace {
            buf.push(TraceEvent {
                time_ns: self.now,
                thread: THREAD_GLOBAL,
                core,
                kind: TraceKind::Instant(kind),
            });
        }
    }

    /// Build the report for the current state (consuming markers/samples).
    pub(super) fn make_report(&mut self) -> SimReport {
        // Spin time since the last touch of a still-waiting task has not
        // been booked yet: the harvest folds it into the open episode.
        let spinning = self.cpus.iter().filter_map(|c| {
            let tid = c.running?;
            matches!(self.tasks[tid.0 as usize].state, TaskState::Waiting(_))
                .then(|| (tid, self.now.saturating_sub(c.since) as f64))
        });
        let users = self.user_tasks.iter().map(|&t| (t, self.tasks[t.0 as usize].rank));
        let attribution = self.attr.harvest(self.now, spinning, users);
        SimReport {
            final_time: self.now,
            unfinished: self.users_remaining,
            markers: std::mem::take(&mut self.markers),
            freq_samples: std::mem::take(&mut self.freq_samples),
            counters: self.counters,
            task_stats: self
                .user_tasks
                .iter()
                .map(|&t| (t, self.tasks[t.0 as usize].stats))
                .collect(),
            obj_effects: self.objs.iter().map(obj_effects).collect(),
            trace: self.trace.take().map(Trace::new),
            attribution,
        }
    }

    /// Classify a tripped time limit: if every unfinished user task is
    /// spin-waiting, nothing can ever release it (spin-waiters are only
    /// woken by other user tasks) — that is a deadlock kept "alive" by
    /// background events. Otherwise the run was genuinely still working.
    pub(super) fn limit_error(&mut self, limit: Time) -> SimError {
        let all_waiting = self.user_tasks.iter().all(|&t| {
            matches!(
                self.tasks[t.0 as usize].state,
                TaskState::Waiting(_) | TaskState::Done
            )
        });
        if all_waiting {
            SimError::Deadlock {
                time: self.now,
                blocked: self.blocked_tasks(),
            }
        } else {
            SimError::TimeLimitExceeded {
                limit,
                partial: Box::new(self.make_report()),
            }
        }
    }

    /// Diagnostics for every unfinished user task: what is it blocked on?
    pub(super) fn blocked_tasks(&self) -> Vec<BlockedTask> {
        self.user_tasks
            .iter()
            .filter_map(|&tid| {
                let t = &self.tasks[tid.0 as usize];
                let wait = match t.state {
                    TaskState::Done => return None,
                    TaskState::Runnable => BlockedOn::Starved,
                    TaskState::Waiting(w) => match w {
                        WaitKind::Barrier(obj) => match &self.objs[obj.0 as usize] {
                            SyncObj::Barrier(b) => BlockedOn::Barrier {
                                obj,
                                arrived: b.arrived,
                                team: b.n,
                            },
                            _ => BlockedOn::Starved,
                        },
                        WaitKind::Lock(obj) => match &self.objs[obj.0 as usize] {
                            SyncObj::Lock(l) => BlockedOn::Lock {
                                obj,
                                holder: l.holder,
                            },
                            _ => BlockedOn::Starved,
                        },
                        WaitKind::Ticket { obj, iter } => match &self.objs[obj.0 as usize] {
                            SyncObj::Loop(l) => BlockedOn::OrderedTicket {
                                obj,
                                iter,
                                next: l.ordered_next,
                            },
                            _ => BlockedOn::Starved,
                        },
                        WaitKind::TaskPool(obj) => match &self.objs[obj.0 as usize] {
                            SyncObj::TaskPool(p) => BlockedOn::TaskPool {
                                obj,
                                outstanding: p.outstanding,
                            },
                            _ => BlockedOn::Starved,
                        },
                    },
                };
                Some(BlockedTask { task: tid, wait })
            })
            .collect()
    }
}

/// Snapshot one sync object's effect counters for the report.
fn obj_effects(o: &SyncObj) -> ObjEffects {
    match o {
        SyncObj::Barrier(b) => ObjEffects::Barrier {
            arrivals: b.arrivals,
        },
        SyncObj::Lock(l) => ObjEffects::Lock { entries: l.entries },
        SyncObj::Loop(l) => ObjEffects::Loop {
            iters: l.iters_executed,
            passes: l.passes,
            ordered_done: l.ordered_done,
        },
        SyncObj::Atomic(a) => ObjEffects::Atomic { ops: a.ops },
        SyncObj::Single(s) => ObjEffects::Single {
            entries: s.count,
            winners: s.wins,
        },
        SyncObj::TaskPool(p) => ObjEffects::TaskPool {
            spawned: p.spawned,
            executed: p.executed,
        },
    }
}

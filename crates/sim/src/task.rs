//! Simulated tasks: programs, micro-ops and per-task execution state.
//!
//! A task's behaviour is described by a [`Program`]: a compact list of
//! [`Op`]s with structured repetition ([`Op::LoopBegin`]/[`Op::LoopEnd`]).
//! At run time the engine *expands* one op at a time into a short run of
//! [`MicroOp`]s — the unit the event loop actually executes. Expansion is
//! instantaneous in virtual time; only timed micro-ops (cycles, fixed
//! nanoseconds, streamed bytes) advance the clock, and only they can be
//! preempted part-way through.

use crate::time::Time;
use ompvar_topology::Place;

/// Task identifier (index into the engine's task table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// Sync-object identifier (index into the engine's object table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId(pub u32);

/// How a compute op's throughput reacts to SMT co-running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorunClass {
    /// Dependency-chain bound (EPCC `delay()` loops): SMT-friendly, barely
    /// slows down when the sibling is busy.
    Latency,
    /// Ordinary mixed code.
    Mixed,
    /// High-IPC throughput code: strongly penalized by a busy sibling.
    Throughput,
}

/// Program-level operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Execute `cycles` of computation (scales with core frequency and
    /// SMT co-run state).
    Compute {
        /// Cycles of work.
        cycles: f64,
        /// SMT co-run class.
        class: CorunClass,
    },
    /// Busy for a fixed wall-clock duration (kernel-style work, not
    /// frequency scaled).
    Busy {
        /// Duration in max-frequency nanoseconds.
        ns: f64,
    },
    /// Stream `bytes` of memory traffic against the task's home NUMA
    /// domain (bandwidth model, contended).
    MemStream {
        /// Bytes to stream.
        bytes: f64,
    },
    /// Record a timestamped marker in the report.
    Mark {
        /// Marker id chosen by the program author.
        marker: u32,
    },
    /// Arrive at barrier `obj` and wait for the full team.
    Barrier {
        /// Barrier object.
        obj: ObjId,
    },
    /// Acquire lock `obj` (spin-waiting if held).
    LockAcquire {
        /// Lock object.
        obj: ObjId,
    },
    /// Release lock `obj`, handing off to the next spinner if any.
    LockRelease {
        /// Lock object.
        obj: ObjId,
    },
    /// One short atomic read-modify-write on shared object `obj`
    /// (contention-priced).
    AtomicOp {
        /// Atomic object.
        obj: ObjId,
    },
    /// Execute work-shared loop `obj` to completion (chunk grabbing
    /// according to the loop's schedule, including `ordered` semantics).
    ForLoop {
        /// Loop object.
        obj: ObjId,
    },
    /// OpenMP `single`: the first arriver of each round executes
    /// `body_cycles`, everyone else just pays the check cost.
    Single {
        /// `single` tracker object.
        obj: ObjId,
        /// Winner's body work, cycles.
        body_cycles: f64,
    },
    /// Spawn `count` explicit tasks of `body_cycles` each into pool
    /// `obj` (cost per spawn is contention-priced).
    TaskSpawn {
        /// Target pool.
        obj: ObjId,
        /// Tasks to spawn.
        count: u32,
        /// Compute cycles of each task body.
        body_cycles: f64,
    },
    /// Task-scheduling point: execute queued tasks from pool `obj` until
    /// it drains, then wait for all outstanding tasks to complete
    /// (`omp taskwait` over the team's children).
    TaskWait {
        /// Target pool.
        obj: ObjId,
    },
    /// Begin a repetition block executed `count` times.
    LoopBegin {
        /// Repetition count.
        count: u32,
    },
    /// End of the innermost repetition block.
    LoopEnd,
}

/// A task's program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Create a program from raw ops. Validates that repetition blocks are
    /// balanced.
    pub fn new(ops: Vec<Op>) -> Self {
        let mut depth = 0i32;
        for op in &ops {
            match op {
                Op::LoopBegin { count } => {
                    assert!(*count > 0, "LoopBegin count must be positive");
                    depth += 1;
                }
                Op::LoopEnd => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced LoopEnd");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced LoopBegin");
        Program { ops }
    }

    /// The raw op list.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Rewrite this program in place into the single op `Busy { ns }`,
    /// re-using the op storage. This is the noise-task recycling fast
    /// path: a freelisted kernel task gets its next burst without
    /// allocating a fresh `Program`.
    pub fn reset_to_busy(&mut self, ns: f64) {
        self.ops.clear();
        self.ops.push(Op::Busy { ns });
    }

    /// Builder for ergonomic program construction.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder { ops: Vec::new() }
    }
}

/// Fluent builder for [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Append a compute op.
    pub fn compute(mut self, cycles: f64, class: CorunClass) -> Self {
        self.ops.push(Op::Compute { cycles, class });
        self
    }

    /// Append a fixed-duration busy op.
    pub fn busy_ns(mut self, ns: f64) -> Self {
        self.ops.push(Op::Busy { ns });
        self
    }

    /// Append a memory-stream op.
    pub fn mem_stream(mut self, bytes: f64) -> Self {
        self.ops.push(Op::MemStream { bytes });
        self
    }

    /// Append a marker.
    pub fn mark(mut self, marker: u32) -> Self {
        self.ops.push(Op::Mark { marker });
        self
    }

    /// Append a barrier.
    pub fn barrier(mut self, obj: ObjId) -> Self {
        self.ops.push(Op::Barrier { obj });
        self
    }

    /// Append lock acquire + a critical body + release.
    pub fn critical(mut self, obj: ObjId, body_cycles: f64, class: CorunClass) -> Self {
        self.ops.push(Op::LockAcquire { obj });
        if body_cycles > 0.0 {
            self.ops.push(Op::Compute {
                cycles: body_cycles,
                class,
            });
        }
        self.ops.push(Op::LockRelease { obj });
        self
    }

    /// Append a bare lock acquire.
    pub fn lock(mut self, obj: ObjId) -> Self {
        self.ops.push(Op::LockAcquire { obj });
        self
    }

    /// Append a bare lock release.
    pub fn unlock(mut self, obj: ObjId) -> Self {
        self.ops.push(Op::LockRelease { obj });
        self
    }

    /// Append an atomic RMW.
    pub fn atomic(mut self, obj: ObjId) -> Self {
        self.ops.push(Op::AtomicOp { obj });
        self
    }

    /// Append a work-shared loop execution.
    pub fn for_loop(mut self, obj: ObjId) -> Self {
        self.ops.push(Op::ForLoop { obj });
        self
    }

    /// Append a `single` construct.
    pub fn single(mut self, obj: ObjId, body_cycles: f64) -> Self {
        self.ops.push(Op::Single { obj, body_cycles });
        self
    }

    /// Append an explicit-task spawn burst.
    pub fn task_spawn(mut self, obj: ObjId, count: u32, body_cycles: f64) -> Self {
        self.ops.push(Op::TaskSpawn {
            obj,
            count,
            body_cycles,
        });
        self
    }

    /// Append a task-wait scheduling point.
    pub fn task_wait(mut self, obj: ObjId) -> Self {
        self.ops.push(Op::TaskWait { obj });
        self
    }

    /// Open a repetition block.
    pub fn repeat(mut self, count: u32) -> Self {
        self.ops.push(Op::LoopBegin { count });
        self
    }

    /// Close the innermost repetition block.
    pub fn end_repeat(mut self) -> Self {
        self.ops.push(Op::LoopEnd);
        self
    }

    /// Finish building.
    pub fn build(self) -> Program {
        Program::new(self.ops)
    }
}

/// Timed micro-operation (the only things that consume virtual time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timed {
    /// Remaining cycles of computation.
    Cycles {
        /// Remaining cycles.
        rem: f64,
        /// SMT co-run class.
        class: CorunClass,
    },
    /// Remaining fixed busy nanoseconds.
    Ns {
        /// Remaining max-frequency nanoseconds.
        rem: f64,
    },
    /// Remaining bytes of a memory stream.
    Bytes {
        /// Remaining bytes.
        rem: f64,
    },
    /// Remaining nanoseconds of a contended atomic; the object's active
    /// count is decremented when it completes.
    AtomicNs {
        /// Remaining max-frequency nanoseconds.
        rem: f64,
        /// Atomic object to release on completion.
        obj: ObjId,
    },
}

impl Timed {
    /// Remaining progress units (cycles, max-frequency ns or bytes).
    #[inline]
    pub(crate) fn rem(&self) -> f64 {
        match self {
            Timed::Cycles { rem, .. }
            | Timed::Ns { rem }
            | Timed::Bytes { rem }
            | Timed::AtomicNs { rem, .. } => *rem,
        }
    }

    /// The remaining-progress counter, for the engine to decrement.
    #[inline]
    pub(crate) fn rem_mut(&mut self) -> &mut f64 {
        match self {
            Timed::Cycles { rem, .. }
            | Timed::Ns { rem }
            | Timed::Bytes { rem }
            | Timed::AtomicNs { rem, .. } => rem,
        }
    }
}

/// Untimed/instant micro-operations and wait points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MicroOp {
    /// A timed span.
    Timed(Timed),
    /// Record a marker.
    Mark(u32),
    /// Arrive at a barrier (blocks unless last).
    BarrierArrive(ObjId),
    /// Try to take a lock (blocks while held).
    LockAcquire(ObjId),
    /// Release a lock.
    LockRelease(ObjId),
    /// Start a contended atomic (expands to a priced `Timed::AtomicNs`).
    AtomicStart(ObjId),
    /// Grab the next chunk of a work-shared loop.
    GrabChunk(ObjId),
    /// Wait until the loop's ordered ticket reaches `iter`.
    WaitTicket {
        /// Loop object.
        obj: ObjId,
        /// Iteration whose turn is awaited.
        iter: u64,
    },
    /// Leave the ordered section (advances the ticket).
    TicketDone {
        /// Loop object.
        obj: ObjId,
    },
    /// `single` entry check.
    SingleTry {
        /// `single` tracker object.
        obj: ObjId,
        /// Winner's body work, cycles.
        body_cycles: f64,
    },
    /// Spawn one explicit task into a pool (cost charged separately).
    TaskSpawnOne {
        /// Task-pool object.
        obj: ObjId,
        /// Task body work, cycles.
        body_cycles: f64,
    },
    /// Task-scheduling point: steal-and-execute or wait on the pool.
    TaskExecOrWait {
        /// Task-pool object.
        obj: ObjId,
    },
    /// One stolen task body finished: decrement the pool.
    TaskDone {
        /// Task-pool object.
        obj: ObjId,
    },
    /// Close an open trace span for this task. Free when tracing is off;
    /// always emitted so traced and untraced runs execute identical
    /// micro-op sequences (and therefore identical timing).
    SpanEnd(ompvar_obs::SpanKind),
}

/// What a blocked (spin-waiting) task is waiting for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WaitKind {
    /// Spinning at a barrier.
    Barrier(ObjId),
    /// Spinning on a lock.
    Lock(ObjId),
    /// Spinning for an ordered ticket.
    Ticket {
        /// Loop object.
        obj: ObjId,
        /// Iteration whose turn is awaited.
        iter: u64,
    },
    /// Spinning at a task-wait for the pool to drain.
    TaskPool(ObjId),
}

/// Run-state of a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskState {
    /// Has micro-ops (or program) left to execute.
    Runnable,
    /// Spin-waiting on a synchronization object. Still occupies its CPU.
    Waiting(WaitKind),
    /// Program finished; removed from its CPU.
    Done,
}

/// Task kind: affects scheduling priority and accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Benchmark (user) thread.
    User,
    /// Kernel noise work (daemons, IRQs, ticks): preempts user tasks,
    /// runs to completion at kernel priority.
    Kernel,
}

/// One repetition-frame of a task's program execution.
#[derive(Debug, Clone, Copy)]
pub struct LoopFrame {
    /// `pc` of the `LoopBegin` op.
    pub begin_pc: usize,
    /// Iterations still to run after the current one.
    pub remaining: u32,
}

/// Per-task statistics collected by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Time spent actually executing timed micro-ops.
    pub busy_time: Time,
    /// Time spent spin-waiting on sync objects.
    pub wait_time: Time,
    /// Time spent preempted (runnable or waiting but not on the CPU).
    pub preempted_time: Time,
    /// Number of migrations between hardware threads.
    pub migrations: u32,
    /// Number of times this task was preempted by a kernel task.
    pub preemptions: u32,
}

/// Full run-time state of one simulated task.
#[derive(Debug)]
pub struct Task {
    /// Stable identifier.
    pub id: TaskId,
    /// User or kernel.
    pub kind: TaskKind,
    /// Rank within the team (meaningful for user tasks in a team).
    pub rank: usize,
    /// Program to execute.
    pub program: Program,
    /// Next op to expand.
    pub pc: usize,
    /// Active repetition frames.
    pub frames: Vec<LoopFrame>,
    /// The tail of the op or chunk in progress: its micro-ops still to
    /// run, the next one last (a stack). The interpreter hands each
    /// op's first micro-op over directly, so this holds only tails.
    pub micro: Vec<MicroOp>,
    /// The timed micro-op currently in progress, if any.
    pub current: Option<Timed>,
    /// Run-state.
    pub state: TaskState,
    /// Pinning mask (None = unbound, OS may migrate).
    pub pin: Option<Place>,
    /// Hardware thread currently hosting the task.
    pub cpu: usize,
    /// NUMA domain where the task's data lives (first-touch).
    pub home_numa: Option<usize>,
    /// Overhead (ns) to burn before `current` continues: wake-up costs,
    /// migration penalties, tick charges.
    pub pending_overhead_ns: f64,
    /// Static-loop position cache: generation and next chunk index.
    pub loop_gen: u64,
    /// Next chunk index of this task within the current static loop pass.
    pub loop_pos: u64,
    /// Statistics.
    pub stats: TaskStats,
    /// Time of the last task-state accounting update.
    pub last_account: Time,
}

impl Task {
    /// Create a fresh task (engine fills in placement).
    pub fn new(id: TaskId, kind: TaskKind, rank: usize, program: Program, pin: Option<Place>) -> Self {
        Task {
            id,
            kind,
            rank,
            program,
            pc: 0,
            frames: Vec::new(),
            micro: Vec::new(),
            current: None,
            state: TaskState::Runnable,
            pin,
            cpu: usize::MAX,
            home_numa: None,
            pending_overhead_ns: 0.0,
            loop_gen: u64::MAX,
            loop_pos: 0,
            stats: TaskStats::default(),
            last_account: 0,
        }
    }

    /// Whether the task's program is fully executed.
    pub fn finished(&self) -> bool {
        matches!(self.state, TaskState::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_balanced_program() {
        let p = Program::builder()
            .mark(0)
            .repeat(3)
            .compute(100.0, CorunClass::Latency)
            .barrier(ObjId(0))
            .end_repeat()
            .mark(1)
            .build();
        assert_eq!(p.ops().len(), 6);
    }

    #[test]
    #[should_panic(expected = "unbalanced LoopBegin")]
    fn unbalanced_repeat_panics() {
        Program::new(vec![Op::LoopBegin { count: 2 }]);
    }

    #[test]
    #[should_panic(expected = "unbalanced LoopEnd")]
    fn stray_loop_end_panics() {
        Program::new(vec![Op::LoopEnd]);
    }

    #[test]
    #[should_panic(expected = "count must be positive")]
    fn zero_count_repeat_panics() {
        Program::new(vec![Op::LoopBegin { count: 0 }, Op::LoopEnd]);
    }

    #[test]
    fn critical_builder_expands_to_three_ops() {
        let p = Program::builder()
            .critical(ObjId(1), 50.0, CorunClass::Mixed)
            .build();
        assert_eq!(p.ops().len(), 3);
        assert!(matches!(p.ops()[0], Op::LockAcquire { .. }));
        assert!(matches!(p.ops()[2], Op::LockRelease { .. }));
    }

    #[test]
    fn new_task_is_runnable_and_unplaced() {
        let t = Task::new(TaskId(0), TaskKind::User, 0, Program::default(), None);
        assert_eq!(t.state, TaskState::Runnable);
        assert_eq!(t.cpu, usize::MAX);
        assert!(t.home_numa.is_none());
    }
}

//! The native backend: interprets a [`RegionSpec`] with real OS threads.
//!
//! Every team thread executes the construct list SPMD-style, using the
//! crate's own synchronization primitives ([`SenseBarrier`], atomic chunk
//! dispatch, ticket-ordered sections) — the same algorithms the simulated
//! backend models. The team is persistent: its threads park between
//! regions, as libgomp's do, so a region costs a wake-up, not a spawn
//! and a join. Thread pinning uses `sched_setaffinity` where the host
//! supports it.
//!
//! On small hosts this backend is functionally correct but cannot
//! reproduce the paper's scale; the simulated backend exists for that.

pub mod affinity;
pub mod barrier;
pub mod delay;
pub mod guard;
mod team;
pub mod wait;
pub mod workshare;

use crate::config::{RegionResult, RtConfig};
use crate::error::RtError;
use crate::region::{Clause, Construct, RedOp, RegionSpec, WriteOp};
use ompvar_obs::EventKind as TraceKind;
use ompvar_obs::{SpanKind, TeamRecorder, ThreadRecorder, TraceEvent, TraceSink, CORE_UNKNOWN};
use ompvar_sim::trace::SemanticEffects;
use barrier::SenseBarrier;
use delay::delay;
use guard::RunGuard;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use team::{Job, Team};
use wait::wait_until;
use workshare::{LoopCursor, NativeLoop};

/// A mutex plus mutual-exclusion instrumentation: entries are counted
/// and an occupancy check records a violation whenever two threads are
/// observed inside the protected section at once (the oracle for
/// `critical`/lock constructs and reduction combines).
struct NativeLock {
    inner: Mutex<f64>,
    entries: AtomicU64,
    occupancy: std::sync::atomic::AtomicUsize,
    violations: AtomicU64,
}

impl NativeLock {
    fn new() -> Self {
        NativeLock {
            inner: Mutex::new(0.0),
            entries: AtomicU64::new(0),
            occupancy: std::sync::atomic::AtomicUsize::new(0),
            violations: AtomicU64::new(0),
        }
    }

    /// Run `f` on the protected value, recording the entry and checking
    /// mutual exclusion.
    fn section(&self, f: impl FnOnce(&mut f64)) {
        let mut g = self.inner.lock();
        if self.occupancy.fetch_add(1, Ordering::AcqRel) != 0 {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        self.entries.fetch_add(1, Ordering::Relaxed);
        f(&mut g);
        self.occupancy.fetch_sub(1, Ordering::AcqRel);
    }
}

/// `single` construct state: entry count plus a winner tally.
struct NativeSingle {
    count: AtomicU64,
    wins: AtomicU64,
}

impl NativeSingle {
    fn new() -> Self {
        NativeSingle {
            count: AtomicU64::new(0),
            wins: AtomicU64::new(0),
        }
    }

    /// Register an entry; `true` for the round's winner (entry `k` wins
    /// iff `k % n == 0`, rounds being separated by the implicit barrier).
    fn enter(&self, n: u64) -> bool {
        let win = self.count.fetch_add(1, Ordering::AcqRel).is_multiple_of(n);
        if win {
            self.wins.fetch_add(1, Ordering::Relaxed);
        }
        win
    }
}

/// Shared state of a native explicit-task pool.
struct NativePool {
    queue: Mutex<std::collections::VecDeque<f64>>,
    outstanding: std::sync::atomic::AtomicUsize,
    spawned: AtomicU64,
    executed: AtomicU64,
}

impl NativePool {
    fn new() -> Self {
        NativePool {
            queue: Mutex::new(std::collections::VecDeque::new()),
            outstanding: std::sync::atomic::AtomicUsize::new(0),
            spawned: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        }
    }

    fn spawn(&self, body_us: f64, count: u32) {
        let mut q = self.queue.lock();
        for _ in 0..count {
            q.push_back(body_us);
        }
        self.spawned.fetch_add(u64::from(count), Ordering::Relaxed);
        self.outstanding
            .fetch_add(count as usize, Ordering::AcqRel);
    }

    /// Execute queued tasks until every spawned task has completed,
    /// helping out whenever new work appears. Returns `false` once
    /// `guard` expires while tasks are still outstanding.
    #[must_use]
    fn exec_and_wait(&self, guard: &RunGuard, trace: &mut Tracer) -> bool {
        wait_until(Some(guard), || {
            loop {
                // The queue lock is released before the task runs.
                let job = self.queue.lock().pop_front();
                let Some(us) = job else { break };
                trace.begin(SpanKind::Task);
                delay(us);
                self.executed.fetch_add(1, Ordering::Relaxed);
                self.outstanding.fetch_sub(1, Ordering::AcqRel);
                trace.end(SpanKind::Task);
            }
            self.outstanding.load(Ordering::Acquire) == 0
        })
    }
}

/// The native sync objects of one construct; slot `k` of the table
/// belongs to the `k`-th construct in traversal order.
enum NObj {
    None,
    Barrier(SenseBarrier),
    Lock(NativeLock),
    Atomic(AtomicU64),
    LoopWithBarrier(NativeLoop, Option<SenseBarrier>, Option<f64>),
    SingleWithBarrier(NativeSingle, SenseBarrier),
    LockWithBarrier(NativeLock, SenseBarrier),
    RegionBarriers(SenseBarrier, SenseBarrier),
    /// Pool, post-spawn barrier, final barrier.
    Tasks(NativePool, SenseBarrier, SenseBarrier),
    /// Worksharing loop, combine lock, implicit end-of-loop barrier.
    ReductionFor(NativeLoop, NativeLock, SenseBarrier),
}

/// Fold the object table's counters into a [`SemanticEffects`] summary
/// (the native mirror of the simulated backend's harvest — the same
/// construct→object mapping, read back from atomics).
fn harvest_effects(objs: &[NObj]) -> SemanticEffects {
    let mut fx = SemanticEffects::default();
    let loop_counts = |fx: &mut SemanticEffects, lp: &NativeLoop| {
        let (iters, passes, ordered_done, violations) = lp.effect_counts();
        fx.loop_iters += iters;
        fx.loop_passes += passes;
        fx.ordered_entries += ordered_done;
        fx.ordered_violations += violations;
    };
    for o in objs {
        match o {
            NObj::None => {}
            NObj::Barrier(b) => fx.barrier_arrivals += b.arrivals(),
            NObj::Lock(l) => {
                fx.lock_entries += l.entries.load(Ordering::Acquire);
                fx.mutex_violations += l.violations.load(Ordering::Acquire);
            }
            NObj::Atomic(a) => fx.atomic_ops += a.load(Ordering::Acquire),
            NObj::LoopWithBarrier(lp, bar, _) => {
                loop_counts(&mut fx, lp);
                if let Some(b) = bar {
                    fx.barrier_arrivals += b.arrivals();
                }
            }
            NObj::SingleWithBarrier(s, b) => {
                fx.single_entries += s.count.load(Ordering::Acquire);
                fx.single_winners += s.wins.load(Ordering::Acquire);
                fx.barrier_arrivals += b.arrivals();
            }
            NObj::LockWithBarrier(l, b) => {
                fx.reduction_combines += l.entries.load(Ordering::Acquire);
                fx.mutex_violations += l.violations.load(Ordering::Acquire);
                fx.barrier_arrivals += b.arrivals();
            }
            NObj::ReductionFor(lp, l, b) => {
                loop_counts(&mut fx, lp);
                fx.reduction_combines += l.entries.load(Ordering::Acquire);
                fx.mutex_violations += l.violations.load(Ordering::Acquire);
                fx.barrier_arrivals += b.arrivals();
            }
            NObj::RegionBarriers(entry, exit) => {
                fx.barrier_arrivals += entry.arrivals() + exit.arrivals();
            }
            NObj::Tasks(p, after_spawn, fin) => {
                fx.tasks_spawned += p.spawned.load(Ordering::Acquire);
                fx.tasks_executed += p.executed.load(Ordering::Acquire);
                fx.barrier_arrivals += after_spawn.arrivals() + fin.arrivals();
            }
        }
    }
    fx
}

/// Per-thread span recorder for the native backend: monotonic wall-clock
/// timestamps (ns since region start), buffered locally and merged into a
/// [`TeamRecorder`] when the thread finishes — no cross-thread
/// synchronization on the recording path.
struct Tracer {
    rec: Option<ThreadRecorder>,
    rank: u32,
    t0: Instant,
}

impl Tracer {
    /// Recorder for `rank`; records nothing when `on` is false.
    fn new(on: bool, rank: usize, t0: Instant) -> Self {
        Tracer {
            rec: on.then(ThreadRecorder::new),
            rank: rank as u32,
            t0,
        }
    }

    #[inline]
    fn event(&mut self, kind: TraceKind) {
        if let Some(rec) = &mut self.rec {
            rec.record(TraceEvent {
                time_ns: self.t0.elapsed().as_nanos() as u64,
                thread: self.rank,
                core: CORE_UNKNOWN,
                kind,
            });
        }
    }

    #[inline]
    fn begin(&mut self, kind: SpanKind) {
        self.event(TraceKind::Begin(kind));
    }

    #[inline]
    fn end(&mut self, kind: SpanKind) {
        self.event(TraceKind::End(kind));
    }
}

/// Native OpenMP-style runtime.
///
/// Owns a team of worker threads that stay parked between regions (see
/// [`team`]); clones share it, and it runs one region at a time. The
/// threads exit when the runtime and all its clones are dropped.
#[derive(Debug, Clone)]
pub struct NativeRuntime {
    /// Affinity configuration applied to the team.
    pub config: RtConfig,
    /// Wall-clock budget for one region run. In-region waits (barriers,
    /// ordered tickets, task-pool drains, named locks) give up once it
    /// passes and the run returns [`RtError::Timeout`] instead of
    /// hanging; `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Record construct span timelines into [`RegionResult::trace`].
    pub tracing: bool,
    team: Arc<Mutex<Team>>,
}

impl NativeRuntime {
    /// New runtime with the given affinity configuration and the
    /// default 60 s region deadline. No thread is started until the
    /// first region runs.
    pub fn new(config: RtConfig) -> Self {
        NativeRuntime {
            config,
            deadline: Some(Duration::from_secs(60)),
            tracing: false,
            team: Arc::default(),
        }
    }

    /// Override the region deadline (`None` disables it).
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Enable or disable span tracing (see [`NativeRuntime::tracing`]).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Execute `region` on the team and return the measured result.
    /// The deadline, `wall_us` and every interval are measured from the
    /// moment the region is dispatched to the (already running) team.
    pub fn run(&self, region: &RegionSpec) -> Result<RegionResult, RtError> {
        region.validate().map_err(RtError::InvalidRegion)?;
        let n = region.n_threads;
        // Data environment: shared variables get one atomic cell each in
        // a side table (like named locks); per-thread clauses get a
        // template of initial values cloned into every thread.
        let mut values: BTreeMap<u32, AtomicI64> = BTreeMap::new();
        let mut private_init: BTreeMap<u32, i64> = BTreeMap::new();
        for d in &region.vars {
            match d.clause {
                Clause::Shared => {
                    values.entry(d.id).or_insert_with(|| AtomicI64::new(d.initial()));
                }
                Clause::Private | Clause::Firstprivate => {
                    private_init.entry(d.id).or_insert(d.initial());
                }
            }
        }
        let mut objs = Vec::new();
        // Named locks are shared across construct sites (equal ids alias
        // one lock object), so they live in a side table keyed by id
        // rather than in the traversal-ordered object table.
        let mut named_locks: BTreeMap<u32, NativeLock> = BTreeMap::new();
        allocate(&region.constructs, n, &values, &mut objs, &mut named_locks);

        // One region at a time per team: a concurrent run on a clone
        // waits here, before its clock starts.
        let mut team = self.team.lock();
        let placement = team.muster(&self.config, n);
        let run = Arc::new(RegionRun {
            constructs: region.constructs.clone(),
            objs,
            named_locks,
            values,
            private_init,
            guard: RunGuard::new(self.deadline),
            t0: Instant::now(),
            marks: Mutex::new(Vec::new()),
            first_timeout: Mutex::new(None),
            team_trace: self.tracing.then(TeamRecorder::new),
        });
        team.dispatch(n, &placement, Arc::clone(&run) as Arc<dyn Job>);
        let wall_us = run.t0.elapsed().as_secs_f64() * 1e6;
        drop(team);
        let run = Arc::into_inner(run)
            .expect("every rank drops its handle before the completion latch opens");

        if let Some(construct) = run.first_timeout.into_inner() {
            return Err(RtError::Timeout {
                construct,
                deadline: run.guard.budget().unwrap_or_default(),
            });
        }

        // Pair up begin/end marks per id.
        let mut begins: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        let mut ends: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for (m, t) in run.marks.into_inner() {
            if m % 2 == 0 {
                begins.entry(m / 2).or_default().push(t);
            } else {
                ends.entry(m / 2).or_default().push(t);
            }
        }
        let mut intervals_us = BTreeMap::new();
        for (k, b) in begins {
            let e = ends.remove(&k).unwrap_or_default();
            assert_eq!(b.len(), e.len(), "unpaired markers for interval {k}");
            intervals_us.insert(k, b.iter().zip(&e).map(|(b, e)| e - b).collect());
        }
        let mut effects = harvest_effects(&run.objs);
        for l in run.named_locks.values() {
            effects.lock_entries += l.entries.load(Ordering::Acquire);
            effects.mutex_violations += l.violations.load(Ordering::Acquire);
        }
        Ok(RegionResult {
            intervals_us,
            wall_us,
            freq_samples: Vec::new(),
            counters: None,
            thread_stats: Vec::new(),
            effects,
            trace: run.team_trace.map(TeamRecorder::finish),
            // The native backend cannot see inside the host kernel; the
            // causal ledger is a simulator-only capability.
            attribution: None,
            final_values: run
                .values
                .iter()
                .map(|(&id, cell)| (id, cell.load(Ordering::SeqCst)))
                .collect(),
        })
    }
}

/// Everything one region run shares between its ranks. Built by
/// [`NativeRuntime::run`], lent to the team for the duration of the
/// dispatch, and read back once every rank has finished.
struct RegionRun {
    constructs: Vec<Construct>,
    objs: Vec<NObj>,
    named_locks: BTreeMap<u32, NativeLock>,
    values: BTreeMap<u32, AtomicI64>,
    private_init: BTreeMap<u32, i64>,
    guard: RunGuard,
    t0: Instant,
    /// The master's measurement markers.
    marks: Mutex<Vec<(u32, f64)>>,
    /// The construct the first rank to time out was waiting at.
    first_timeout: Mutex<Option<&'static str>>,
    /// `Some` iff the run is traced.
    team_trace: Option<TeamRecorder>,
}

impl Job for RegionRun {
    fn run(&self, rank: usize) {
        // Rebuilt per region: no sense flag, cursor, private copy or
        // span survives from the worker's previous region.
        let mut ctx = ThreadCtx {
            rank,
            // Two sense flags per object: slot 2k for the object's first
            // barrier, 2k+1 for its second (ParallelRegion, Tasks).
            sense: vec![false; self.objs.len() * 2],
            cursor: vec![LoopCursor::default(); self.objs.len()],
            local_marks: Vec::new(),
            t0: self.t0,
            guard: &self.guard,
            named: &self.named_locks,
            vals: &self.values,
            private: self.private_init.clone(),
            trace: Tracer::new(self.team_trace.is_some(), rank, self.t0),
        };
        ctx.trace.begin(SpanKind::Region);
        if let Err(construct) = interpret(&self.constructs, &self.objs, &mut ctx, &mut 0) {
            self.first_timeout.lock().get_or_insert(construct);
            return;
        }
        ctx.trace.end(SpanKind::Region);
        if let (Some(team_trace), Some(rec)) = (&self.team_trace, ctx.trace.rec.take()) {
            team_trace.submit(rec);
        }
        if rank == 0 {
            self.marks.lock().extend(ctx.local_marks);
        }
    }

    fn guard(&self) -> &RunGuard {
        &self.guard
    }
}

struct ThreadCtx<'a> {
    rank: usize,
    /// Per-object local sense flags (indexed like the object table).
    sense: Vec<bool>,
    /// Per-object loop cursors.
    cursor: Vec<LoopCursor>,
    /// Master-thread timestamps: (marker, µs since region start).
    local_marks: Vec<(u32, f64)>,
    t0: Instant,
    /// Shared run deadline consulted by every bounded wait.
    guard: &'a RunGuard,
    /// Named-lock table shared by every `Locked` site with the same id.
    named: &'a BTreeMap<u32, NativeLock>,
    /// Shared-variable cells, keyed by id. A variable reference is
    /// shared iff its id has a cell here.
    vals: &'a BTreeMap<u32, AtomicI64>,
    /// This thread's private/firstprivate copies, discarded at region
    /// end exactly as in OpenMP.
    private: BTreeMap<u32, i64>,
    /// Per-thread span recorder (a no-op when tracing is off).
    trace: Tracer,
}

impl ThreadCtx<'_> {
    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Meet the team at `b` (local sense flag `slot`) inside a barrier
    /// span. `Err(what)` once the run deadline expires.
    #[inline]
    fn barrier(
        &mut self,
        b: &SenseBarrier,
        slot: usize,
        what: &'static str,
    ) -> Result<(), &'static str> {
        self.trace.begin(SpanKind::Barrier);
        if !b.wait_bounded(&mut self.sense[slot], self.guard) {
            return Err(what);
        }
        self.trace.end(SpanKind::Barrier);
        Ok(())
    }
}

/// Allocate the object table in traversal order: exactly one slot per
/// construct, so [`interpret`] finds a construct's objects at the index
/// it counts to and never looks ahead.
fn allocate(
    cs: &[Construct],
    n: usize,
    values: &BTreeMap<u32, AtomicI64>,
    out: &mut Vec<NObj>,
    named: &mut BTreeMap<u32, NativeLock>,
) {
    for c in cs {
        out.push(match c {
            Construct::Barrier => NObj::Barrier(SenseBarrier::new(n)),
            Construct::Critical { .. } | Construct::LockUnlock { .. } => {
                NObj::Lock(NativeLock::new())
            }
            Construct::Atomic => NObj::Atomic(AtomicU64::new(0)),
            // Shared writes count as atomic RMWs (the cell itself lives
            // in the values side table).
            Construct::VarWrite { var, .. } if values.contains_key(var) => {
                NObj::Atomic(AtomicU64::new(0))
            }
            Construct::Single { .. } => {
                NObj::SingleWithBarrier(NativeSingle::new(), SenseBarrier::new(n))
            }
            Construct::Reduction { .. } => {
                NObj::LockWithBarrier(NativeLock::new(), SenseBarrier::new(n))
            }
            Construct::ParallelFor { schedule, total_iters, ordered_us, nowait, .. } => {
                NObj::LoopWithBarrier(
                    NativeLoop::new(*schedule, *total_iters, n),
                    if *nowait { None } else { Some(SenseBarrier::new(n)) },
                    *ordered_us,
                )
            }
            Construct::ReductionFor { schedule, total_iters, .. } => NObj::ReductionFor(
                NativeLoop::new(*schedule, *total_iters, n),
                NativeLock::new(),
                SenseBarrier::new(n),
            ),
            Construct::Tasks { .. } => {
                NObj::Tasks(NativePool::new(), SenseBarrier::new(n), SenseBarrier::new(n))
            }
            Construct::ParallelRegion { .. } => {
                NObj::RegionBarriers(SenseBarrier::new(n), SenseBarrier::new(n))
            }
            // No object of their own: a private store has no shared
            // state, and a named lock lives in the side table keyed by id.
            Construct::DelayUs(_)
            | Construct::Compute { .. }
            | Construct::StreamBytes(_)
            | Construct::MarkBegin(_)
            | Construct::MarkEnd(_)
            | Construct::VarRead { .. }
            | Construct::VarWrite { .. }
            | Construct::Locked { .. }
            | Construct::Repeat { .. } => NObj::None,
        });
        match c {
            Construct::Locked { lock, body } => {
                named.entry(*lock).or_insert_with(NativeLock::new);
                allocate(body, n, values, out, named);
            }
            Construct::ParallelRegion { body } | Construct::Repeat { body, .. } => {
                allocate(body, n, values, out, named);
            }
            _ => {}
        }
    }
}

/// Interpret the construct list for one thread. `idx` walks the object
/// table in the same order as [`allocate`]. Returns the construct kind
/// that was waiting when the run deadline expired, if it did.
fn interpret(
    cs: &[Construct],
    objs: &[NObj],
    ctx: &mut ThreadCtx<'_>,
    idx: &mut usize,
) -> Result<(), &'static str> {
    for c in cs {
        let my = *idx;
        *idx += 1;
        match c {
            Construct::DelayUs(us) => delay(*us),
            Construct::Compute { cycles, .. } => {
                // Interpret "cycles" at a nominal 1 GHz equivalent via the
                // calibrated delay: cycles → ns of chain work.
                delay(*cycles / 1e3 / 3.0);
            }
            Construct::StreamBytes(bytes) => {
                stream_bytes(*bytes as usize);
            }
            Construct::Barrier => {
                let NObj::Barrier(b) = &objs[my] else { unreachable!() };
                ctx.barrier(b, 2 * my, "barrier")?;
            }
            Construct::Critical { body_us } | Construct::LockUnlock { body_us } => {
                let NObj::Lock(l) = &objs[my] else { unreachable!() };
                // As in the simulated backend, the critical span includes
                // the wait to acquire the lock.
                ctx.trace.begin(SpanKind::Critical);
                l.section(|v| {
                    delay(*body_us);
                    *v += 1.0;
                });
                ctx.trace.end(SpanKind::Critical);
            }
            Construct::Atomic => {
                let NObj::Atomic(a) = &objs[my] else { unreachable!() };
                a.fetch_add(1, Ordering::AcqRel);
            }
            Construct::Single { body_us } => {
                let NObj::SingleWithBarrier(single, b) = &objs[my] else {
                    unreachable!()
                };
                ctx.trace.begin(SpanKind::Single);
                if single.enter(b.team_size() as u64) {
                    delay(*body_us);
                }
                ctx.trace.end(SpanKind::Single);
                ctx.barrier(b, 2 * my, "single")?;
            }
            Construct::Reduction { body_us } => {
                let NObj::LockWithBarrier(acc, b) = &objs[my] else {
                    unreachable!()
                };
                delay(*body_us);
                let rank = ctx.rank as f64;
                // The combine serializes through a lock, as the simulated
                // backend models it: a critical span.
                ctx.trace.begin(SpanKind::Critical);
                acc.section(|v| *v += rank + 1.0);
                ctx.trace.end(SpanKind::Critical);
                ctx.barrier(b, 2 * my, "reduction")?;
            }
            Construct::ParallelFor { body_us, .. } => {
                let NObj::LoopWithBarrier(lp, bar, ordered) = &objs[my] else {
                    unreachable!()
                };
                ctx.trace.begin(SpanKind::Workshare);
                loop {
                    let Some((first, len)) = lp.grab(ctx.rank, &mut ctx.cursor[my]) else {
                        lp.observe_exhausted(&mut ctx.cursor[my]);
                        break;
                    };
                    ctx.trace.begin(SpanKind::Chunk);
                    match ordered {
                        None => {
                            for _ in 0..len {
                                delay(*body_us);
                            }
                        }
                        Some(section_us) => {
                            for i in first..first + len {
                                delay(*body_us);
                                ctx.trace.begin(SpanKind::Ordered);
                                if !lp.wait_ticket_bounded(i, ctx.guard) {
                                    return Err("ordered section");
                                }
                                lp.note_ordered_entry(i);
                                delay(*section_us);
                                lp.ticket_done();
                                ctx.trace.end(SpanKind::Ordered);
                            }
                        }
                    }
                    ctx.trace.end(SpanKind::Chunk);
                }
                ctx.trace.end(SpanKind::Workshare);
                if let Some(b) = bar {
                    ctx.barrier(b, 2 * my, "loop barrier")?;
                }
            }
            Construct::ParallelRegion { body } => {
                let NObj::RegionBarriers(entry, exit) = &objs[my] else {
                    unreachable!()
                };
                ctx.barrier(entry, 2 * my, "region entry barrier")?;
                interpret(body, objs, ctx, idx)?;
                ctx.barrier(exit, 2 * my + 1, "region exit barrier")?;
            }
            Construct::Tasks {
                per_spawner,
                body_us,
                master_only,
            } => {
                let NObj::Tasks(pool, after_spawn, fin) = &objs[my] else {
                    unreachable!()
                };
                if !master_only || ctx.rank == 0 {
                    pool.spawn(*body_us, *per_spawner);
                }
                ctx.barrier(after_spawn, 2 * my, "task spawn barrier")?;
                if !pool.exec_and_wait(ctx.guard, &mut ctx.trace) {
                    return Err("taskwait");
                }
                ctx.barrier(fin, 2 * my + 1, "task final barrier")?;
            }
            Construct::MarkBegin(k) => {
                if ctx.rank == 0 {
                    ctx.local_marks.push((2 * k, ctx.now_us()));
                }
            }
            Construct::MarkEnd(k) => {
                if ctx.rank == 0 {
                    ctx.local_marks.push((2 * k + 1, ctx.now_us()));
                }
            }
            Construct::Locked { lock, body } => {
                let named = ctx.named;
                let l = &named[lock];
                // The locked span includes the wait to acquire, like a
                // critical section. A blocking lock() would turn a missed
                // static-deadlock prediction into a process hang, so wait
                // on try_lock under the run guard instead.
                ctx.trace.begin(SpanKind::Critical);
                let mut held = None;
                if !wait_until(Some(ctx.guard), || {
                    held = l.inner.try_lock();
                    held.is_some()
                }) {
                    ctx.trace.end(SpanKind::Critical);
                    return Err("locked scope");
                }
                if l.occupancy.fetch_add(1, Ordering::AcqRel) != 0 {
                    l.violations.fetch_add(1, Ordering::Relaxed);
                }
                l.entries.fetch_add(1, Ordering::Relaxed);
                let r = interpret(body, objs, ctx, idx);
                l.occupancy.fetch_sub(1, Ordering::AcqRel);
                drop(held);
                ctx.trace.end(SpanKind::Critical);
                r?;
            }
            Construct::Repeat { count, body } => {
                let body_start = *idx;
                for _ in 0..*count {
                    *idx = body_start;
                    interpret(body, objs, ctx, idx)?;
                }
            }
            Construct::VarRead { var } => {
                match ctx.vals.get(var) {
                    Some(cell) => {
                        std::hint::black_box(cell.load(Ordering::SeqCst));
                    }
                    None => {
                        std::hint::black_box(ctx.private.get(var).copied().unwrap_or(0));
                    }
                }
            }
            Construct::VarWrite { var, op } => match ctx.vals.get(var) {
                Some(cell) => {
                    // An atomic RMW on the one shared cell; the op
                    // counter in the object slot is the effects surface.
                    let NObj::Atomic(counter) = &objs[my] else {
                        unreachable!()
                    };
                    counter.fetch_add(1, Ordering::AcqRel);
                    match op {
                        WriteOp::Set(v) => cell.store(*v, Ordering::SeqCst),
                        WriteOp::Add(d) => {
                            cell.fetch_add(*d, Ordering::SeqCst);
                        }
                    }
                }
                None => {
                    let slot = ctx.private.entry(*var).or_insert(0);
                    *slot = op.apply(*slot);
                }
            },
            Construct::ReductionFor {
                var,
                red,
                body_us,
                delta,
                ..
            } => {
                let NObj::ReductionFor(lp, lk, b) = &objs[my] else {
                    unreachable!()
                };
                // Accumulate a per-thread partial from the reduction
                // identity; threads that grab no iterations still
                // combine (identity-combine is a no-op on the cell).
                let mut partial: i64 = match red {
                    RedOp::Sum => 0,
                    RedOp::Max => i64::MIN,
                    RedOp::Min => i64::MAX,
                };
                ctx.trace.begin(SpanKind::Workshare);
                loop {
                    let Some((first, len)) = lp.grab(ctx.rank, &mut ctx.cursor[my]) else {
                        lp.observe_exhausted(&mut ctx.cursor[my]);
                        break;
                    };
                    ctx.trace.begin(SpanKind::Chunk);
                    for i in first..first + len {
                        delay(*body_us);
                        partial = red.combine(partial, delta.wrapping_add(i as i64));
                    }
                    ctx.trace.end(SpanKind::Chunk);
                }
                ctx.trace.end(SpanKind::Workshare);
                let cell = &ctx.vals[var];
                ctx.trace.begin(SpanKind::Critical);
                lk.section(|_| {
                    match red {
                        RedOp::Sum => {
                            cell.fetch_add(partial, Ordering::SeqCst);
                        }
                        RedOp::Max => {
                            cell.fetch_max(partial, Ordering::SeqCst);
                        }
                        RedOp::Min => {
                            cell.fetch_min(partial, Ordering::SeqCst);
                        }
                    };
                });
                ctx.trace.end(SpanKind::Critical);
                ctx.barrier(b, 2 * my, "reduction loop barrier")?;
            }
        }
    }
    Ok(())
}

/// Touch `bytes` of memory with a streaming pattern (BabelStream-style
/// triad on a thread-local buffer).
fn stream_bytes(bytes: usize) {
    let n = (bytes / 8 / 3).max(1); // three arrays of f64
    // One allocation, not three: a team thread lives across regions, so
    // whatever its allocator's thread cache keeps of the odd sizes freed
    // here stays resident. Three same-sized frees per call filled those
    // caches (≈ +1 MB over a 12 000-case fuzz campaign); one does not.
    let mut buf = vec![1.0f64; 3 * n];
    let (ab, c) = buf.split_at_mut(2 * n);
    let (a, b) = ab.split_at(n);
    for i in 0..n {
        c[i] = a[i] + 0.4 * b[i];
    }
    std::hint::black_box(&buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Schedule;

    fn rt() -> NativeRuntime {
        NativeRuntime::new(RtConfig::unbound())
    }

    #[test]
    fn measured_barrier_region_runs() {
        let region = RegionSpec::measured(2, 4, 5, vec![Construct::Barrier]);
        let res = rt().run(&region).expect("native region completes");
        assert_eq!(res.reps().len(), 4);
        assert!(res.reps().iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn parallel_for_all_schedules_complete() {
        for sched in [
            Schedule::Static { chunk: 1 },
            Schedule::Dynamic { chunk: 1 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            let region = RegionSpec::measured(
                2,
                2,
                1,
                vec![Construct::ParallelFor {
                    schedule: sched,
                    total_iters: 64,
                    body_us: 1.0,
                    ordered_us: None,
                    nowait: false,
                }],
            );
            let res = rt().run(&region).expect("native region completes");
            assert_eq!(res.reps().len(), 2);
            // On an oversubscribed host a single rep interval can be tiny
            // (the other thread may drain a dynamic loop before the
            // master's timestamp), but the wall time must cover the work:
            // 2 reps × 64 iterations × 1 µs of delay.
            assert!(res.wall_us > 100.0, "{sched:?}: wall {} µs", res.wall_us);
        }
    }

    #[test]
    fn ordered_loop_completes() {
        let region = RegionSpec::measured(
            2,
            2,
            1,
            vec![Construct::ParallelFor {
                schedule: Schedule::Static { chunk: 1 },
                total_iters: 8,
                body_us: 1.0,
                ordered_us: Some(1.0),
                nowait: false,
            }],
        );
        let res = rt().run(&region).expect("native region completes");
        assert_eq!(res.reps().len(), 2);
    }

    #[test]
    fn sync_constructs_complete() {
        let region = RegionSpec::measured(
            2,
            3,
            4,
            vec![
                Construct::Critical { body_us: 1.0 },
                Construct::Atomic,
                Construct::Single { body_us: 1.0 },
                Construct::Reduction { body_us: 1.0 },
                Construct::LockUnlock { body_us: 1.0 },
            ],
        );
        let res = rt().run(&region).expect("native region completes");
        assert_eq!(res.reps().len(), 3);
    }

    #[test]
    fn parallel_region_wrapper_completes() {
        let region = RegionSpec::measured(
            2,
            3,
            2,
            vec![Construct::ParallelRegion {
                body: vec![Construct::DelayUs(2.0)],
            }],
        );
        let res = rt().run(&region).expect("native region completes");
        assert_eq!(res.reps().len(), 3);
    }

    #[test]
    fn stream_bytes_touches_memory() {
        stream_bytes(1 << 16);
    }

    #[test]
    fn value_semantics_produce_final_shared_values() {
        use crate::region::{RedOp, Schedule, VarDecl, WriteOp};
        let region = RegionSpec {
            n_threads: 2,
            vars: vec![
                VarDecl {
                    id: 0,
                    name: "sum".into(),
                    clause: Clause::Shared,
                    init: 5,
                },
                VarDecl {
                    id: 1,
                    name: "tmp".into(),
                    clause: Clause::Private,
                    init: 99,
                },
            ],
            constructs: vec![
                // Each thread adds 3 under a common lock: 5 + 2×3 = 11.
                Construct::Locked {
                    lock: 0,
                    body: vec![Construct::VarWrite {
                        var: 0,
                        op: WriteOp::Add(3),
                    }],
                },
                Construct::Barrier,
                // Private writes never touch the shared cell; reads keep
                // the store live for the analyzer.
                Construct::VarWrite {
                    var: 1,
                    op: WriteOp::Set(7),
                },
                Construct::VarRead { var: 1 },
                // sum += Σ(i+1) for i in 0..8 = 36 → 47.
                Construct::ReductionFor {
                    var: 0,
                    red: RedOp::Sum,
                    schedule: Schedule::Dynamic { chunk: 1 },
                    total_iters: 8,
                    body_us: 0.5,
                    delta: 1,
                },
            ],
        };
        let res = rt().run(&region).expect("native region completes");
        assert_eq!(res.final_values.get(&0), Some(&47));
        assert_eq!(res.final_values.get(&1), None, "private copies are discarded");
        // The shared writes were counted as atomic RMWs.
        assert_eq!(res.effects.atomic_ops, 2);
        assert_eq!(res.effects.reduction_combines, 2);
        assert_eq!(res.effects.loop_iters, 8);
    }

    #[test]
    fn reduction_max_and_min_reach_their_extremes() {
        use crate::region::{RedOp, Schedule, VarDecl};
        for (red, init, expect) in [
            (RedOp::Max, -100, 13),
            (RedOp::Min, 100, 10),
            (RedOp::Max, 50, 50),
        ] {
            let region = RegionSpec {
                n_threads: 2,
                vars: vec![VarDecl {
                    id: 0,
                    name: "m".into(),
                    clause: Clause::Shared,
                    init,
                }],
                constructs: vec![Construct::ReductionFor {
                    var: 0,
                    red,
                    schedule: Schedule::Static { chunk: 1 },
                    total_iters: 4,
                    body_us: 0.1,
                    delta: 10,
                }],
            };
            let res = rt().run(&region).expect("native region completes");
            assert_eq!(res.final_values.get(&0), Some(&expect), "{red:?}");
        }
    }

    #[test]
    fn expired_deadline_reports_timeout_instead_of_hanging() {
        let rt = rt().with_deadline(Some(Duration::ZERO));
        // The guard is consulted by waits that last, so make one last:
        // whoever loses the single waits out the winner's 20 ms. (Two
        // warm threads can cross a bare barrier before either looks.)
        let region = RegionSpec::new(2, vec![Construct::Single { body_us: 20_000.0 }])
            .expect("test region is valid");
        match rt.run(&region) {
            Err(RtError::Timeout { construct, .. }) => {
                assert!(!construct.is_empty());
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    /// A job for driving the team directly: every rank does `each`, then
    /// meets the others at a guarded barrier.
    struct Probe<F> {
        guard: RunGuard,
        barrier: SenseBarrier,
        released: Mutex<Vec<bool>>,
        each: F,
    }

    impl<F: Fn(usize) + Send + Sync> Job for Probe<F> {
        fn run(&self, rank: usize) {
            (self.each)(rank);
            let released = self.barrier.wait_bounded(&mut false, &self.guard);
            self.released.lock().push(released);
        }

        fn guard(&self) -> &RunGuard {
            &self.guard
        }
    }

    #[test]
    fn a_panicking_rank_frees_its_teammates_and_the_next_region_runs() {
        let rt = rt();
        let probe = Arc::new(Probe {
            guard: RunGuard::new(Some(Duration::from_secs(60))),
            barrier: SenseBarrier::new(2),
            released: Mutex::new(Vec::new()),
            each: |rank: usize| {
                if rank == 1 {
                    panic!("rank 1 blew up");
                }
            },
        });
        let started = Instant::now();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut team = rt.team.lock();
            let placement = team.muster(&rt.config, 2);
            team.dispatch(2, &placement, Arc::clone(&probe) as Arc<dyn Job>);
        }))
        .expect_err("the rank's panic is re-raised on the caller");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "rank 0 sat out the deadline: {:?}",
            started.elapsed()
        );
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"rank 1 blew up"));
        // Rank 0 left its barrier unreleased, because the guard tripped.
        assert_eq!(*probe.released.lock(), vec![false]);

        let region = RegionSpec::measured(2, 2, 2, vec![Construct::Barrier]);
        let res = rt.run(&region).expect("a fresh team runs the next region");
        assert_eq!(res.reps().len(), 2);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn an_unbound_region_after_a_pinned_one_runs_on_the_initial_mask() {
        use ompvar_topology::Places;
        let initial = affinity::current_affinity().expect("linux reports a mask");
        let masks = Arc::new(Mutex::new(Vec::new()));
        let probe = |masks: &Arc<Mutex<Vec<_>>>| {
            let masks = Arc::clone(masks);
            Arc::new(Probe {
                guard: RunGuard::new(None),
                barrier: SenseBarrier::new(2),
                released: Mutex::new(Vec::new()),
                each: move |_| masks.lock().push(affinity::current_affinity()),
            })
        };
        // One place, so both ranks are bound to cpu 0 on any host.
        let pinned = RtConfig::pinned_close(Places::Threads(Some(1)));
        let mut team = Team::default();
        for config in [pinned, RtConfig::unbound()] {
            let placement = team.muster(&config, 2);
            team.dispatch(2, &placement, probe(&masks));
        }
        let (cpu0, initial) = (Some(vec![0]), Some(initial));
        assert_eq!(*masks.lock(), vec![cpu0.clone(), cpu0, initial.clone(), initial]);
    }

    #[test]
    fn disabled_deadline_still_completes() {
        let rt = rt().with_deadline(None);
        let region = RegionSpec::measured(2, 2, 2, vec![Construct::Barrier]);
        let res = rt.run(&region).expect("region completes");
        assert_eq!(res.reps().len(), 2);
    }
}

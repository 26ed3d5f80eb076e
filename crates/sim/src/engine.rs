//! The discrete-event simulation engine.
//!
//! The engine owns the machine state (per-hardware-thread run queues, per
//! socket DVFS state, per-NUMA-domain memory contention), the task table
//! and the sync-object table, and processes events in virtual-time order.
//!
//! # Execution model
//!
//! Every hardware thread (CPU) runs at most one task at a time. Kernel
//! (noise) tasks preempt user tasks immediately and run to completion,
//! FIFO. Multiple user tasks on one CPU share it in round-robin quanta —
//! this is how an oversubscribed, unpinned run degrades. Tasks waiting on
//! sync objects *spin*: they keep occupying their CPU (slowing an SMT
//! sibling, keeping the core "active" for DVFS) but make no progress, like
//! an OpenMP runtime with an active wait policy.
//!
//! Work in progress is repriced whenever its rate changes (frequency
//! retarget, SMT sibling state change, memory-bandwidth contention
//! change, preemption): the engine accounts the elapsed progress, bumps
//! the CPU's event token to invalidate the stale boundary event, and
//! schedules a fresh one.

use crate::error::{BlockedOn, BlockedTask, SimError};
use crate::events::{EventKind, EventQueue};
use crate::fault::{Fault, FaultEvent, FaultPlan};
use crate::params::{NoisePlacement, SimParams};
use crate::rng::Rng;
use crate::sync::{AtomicObj, BarrierObj, LockObj, LoopObj, LoopSpec, SingleObj, SyncObj, TaskPoolObj};
use crate::task::{
    CorunClass, MicroOp, ObjId, Op, Program, Task, TaskId, TaskKind, TaskState, Timed, WaitKind,
};
use crate::time::{from_ns_f64, Time};
use crate::trace::{Counters, FreqSample, MarkerRecord, ObjEffects, SimReport};
use ompvar_obs::EventKind as TraceKind;
use ompvar_obs::{
    AttrSample, AttrSource, InstantKind, RunAttribution, SpanKind, ThreadAttribution, Trace,
    TraceEvent, CORE_UNKNOWN, N_SOURCES, THREAD_GLOBAL,
};
use ompvar_topology::{CoreId, HwThreadId, MachineSpec, Place};
use std::collections::VecDeque;

/// Per-hardware-thread scheduler state.
#[derive(Debug)]
struct Cpu {
    /// Task currently on the CPU (running or spin-waiting).
    running: Option<TaskId>,
    /// Kernel tasks awaiting the CPU (FIFO, run before any user task).
    kq: VecDeque<TaskId>,
    /// User tasks awaiting the CPU (round-robin).
    uq: VecDeque<TaskId>,
    /// Generation token invalidating scheduled boundary events.
    token: u64,
    /// Generation token invalidating scheduled timer ticks.
    tick_token: u64,
    /// End of the current user quantum.
    quantum_end: Time,
    /// Last time the running task's progress was accounted.
    since: Time,
    /// NUMA domain this CPU is currently streaming against (cache of
    /// membership in `DomainState::streamers`).
    streaming: Option<usize>,
    /// Taken down by a hotplug fault: accepts no new work.
    offline: bool,
}

impl Cpu {
    fn new() -> Self {
        Cpu {
            running: None,
            kq: VecDeque::new(),
            uq: VecDeque::new(),
            token: 0,
            tick_token: 0,
            quantum_end: 0,
            since: 0,
            streaming: None,
            offline: false,
        }
    }

    fn load(&self) -> usize {
        self.kq.len() + self.uq.len() + usize::from(self.running.is_some())
    }
}

/// Per-socket DVFS state.
#[derive(Debug)]
struct Socket {
    /// Cores of this socket with at least one busy hardware thread.
    active_cores: usize,
    /// Frequency currently applied to the socket's busy cores (GHz).
    applied_ghz: f64,
    /// The *clean* frequency trajectory: what `applied_ghz` would be with
    /// no droop pulses and no fault caps — the sustainable turbo bin for
    /// the current activity level, updated with the same governor lag as
    /// the applied frequency. Read only by the attribution ledger (the
    /// reference against which [`AttrSource::SubNominalFreq`] time is
    /// measured); never feeds back into timing.
    clean_ghz: f64,
    /// Whether a droop pulse is currently in effect.
    pulse_active: bool,
    /// Token invalidating scheduled pulse events.
    pulse_token: u64,
    /// Whether a pulse chain is currently scheduled.
    pulse_armed: bool,
    /// Thermal-capping fault: ceiling on the applied frequency, if any.
    cap_ghz: Option<f64>,
    /// Dedicated random stream for this socket's pulse process.
    rng: Rng,
}

/// Per-NUMA-domain memory state.
#[derive(Debug, Default)]
struct Domain {
    /// CPUs currently running a memory-stream micro-op whose data lives
    /// in this domain.
    streamers: Vec<usize>,
}

/// One arrival process of a noise source.
#[derive(Debug)]
struct NoiseStream {
    /// Index into `params.noise.sources`.
    source: usize,
    /// Fixed CPU for per-CPU sources.
    cpu: Option<usize>,
    /// Dedicated random stream.
    rng: Rng,
}

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

/// Ledger state for one attributed run; `Some` iff attribution is on.
///
/// Attribution is observation-only: it draws no randomness, pushes no
/// events, and mutates no engine state, so attributed and plain runs are
/// virtual-time bit-identical (golden-suite + oracle #12 enforced).
#[derive(Debug, Default)]
struct AttrState {
    /// Indexed by `TaskId`; sized to the pre-run task table, so kernel
    /// tasks spawned later fall off the end and are ignored.
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
    fn push_sample(&mut self, now: Time) {
        match self.samples.last_mut() {
            Some(s) if s.time_ns == now => s.total_by_source = self.totals,
            _ => self.samples.push(AttrSample { time_ns: now, total_by_source: self.totals }),
        }
    }
}

/// Frequency-logger configuration.
#[derive(Debug, Clone, Copy)]
struct LoggerCfg {
    /// CPU that hosts the logger process (its sampling cost runs there);
    /// `None` = a free-floating observer without CPU cost.
    cpu: Option<usize>,
    /// Sampling period.
    period: Time,
    /// CPU time consumed per sample.
    cost: Time,
}

/// The simulator.
pub struct Simulator {
    machine: MachineSpec,
    params: SimParams,
    now: Time,
    queue: EventQueue,
    tasks: Vec<Task>,
    objs: Vec<SyncObj>,
    cpus: Vec<Cpu>,
    sockets: Vec<Socket>,
    domains: Vec<Domain>,
    /// Busy hardware-thread count per physical core.
    core_busy: Vec<u8>,
    noise_streams: Vec<NoiseStream>,
    kernel_freelist: Vec<TaskId>,
    rng_place: Rng,
    rng_balance: Rng,
    logger: Option<LoggerCfg>,
    users_remaining: usize,
    user_tasks: Vec<TaskId>,
    markers: Vec<MarkerRecord>,
    freq_samples: Vec<FreqSample>,
    counters: Counters,
    started: bool,
    /// First unrecoverable error raised inside an event handler; checked
    /// after every event so `run` can return it without threading
    /// `Result` through the whole interpreter.
    fatal: Option<SimError>,
    /// Scheduled fault injections (see [`FaultPlan`]).
    fault_plan: Vec<FaultEvent>,
    /// One dedicated random stream per fault event.
    fault_rngs: Vec<Rng>,
    /// Parent stream the per-fault streams fork from.
    rng_fault: Rng,
    /// Pending lost-wakeup count: `wake()` swallows this many wakeups.
    lost_wakeups_armed: u32,
    /// Optional hard cap on processed events.
    event_budget: Option<u64>,
    /// Span/instant event buffer; `Some` iff tracing is enabled. Virtual
    /// time is unaffected by tracing: recording costs nothing in-model.
    trace: Option<Vec<TraceEvent>>,
    /// Causal time-attribution ledger; `Some` iff attribution is enabled.
    /// Like tracing, strictly observational: virtual time is bit-identical
    /// with attribution on or off.
    attr: Option<AttrState>,
    /// Reference-engine mode: run on the pre-optimization event queue
    /// (plain `BinaryHeap`) and recompute every topology lookup through
    /// `MachineSpec` instead of the flat caches, with no tick
    /// fast-forwarding. The observable event stream is identical to the
    /// optimized path by construction; this mode exists as the yardstick
    /// for equivalence oracles, cross-implementation golden checks, and
    /// machine-independent CI perf normalization.
    reference: bool,
    /// Physical core of each hardware thread (flat topology cache).
    cpu_core: Vec<u32>,
    /// Socket of each hardware thread.
    cpu_socket: Vec<u32>,
    /// NUMA domain of each hardware thread.
    cpu_numa: Vec<u32>,
    /// Socket of each physical core.
    core_socket: Vec<u32>,
    /// Hardware threads of each socket, ascending.
    socket_cpus: Vec<Vec<usize>>,
    /// `machine.n_cores()`, copied out of the spec for the regular-layout
    /// sibling formula `hw = core + smt_lane * n_cores`.
    n_cores: usize,
    /// `machine.smt` (SMT ways per core).
    smt: usize,
    /// Scratch buffer reused by per-event CPU collections (bandwidth
    /// repricing, frequency re-evaluation, fault storms). Take/put-back
    /// discipline: `std::mem::take` it, use it, clear and restore it, so
    /// accidental re-entry degrades to a fresh allocation rather than
    /// corruption.
    scratch_cpus: Vec<usize>,
}

impl Simulator {
    /// Create a simulator for `machine` with model parameters `params`,
    /// fully determined by `seed`.
    pub fn new(machine: MachineSpec, params: SimParams, seed: u64) -> Self {
        let root = Rng::new(seed);
        let n_cpu = machine.n_hw_threads();
        let sockets = (0..machine.sockets)
            .map(|s| Socket {
                active_cores: 0,
                applied_ghz: machine.clock.max_ghz,
                clean_ghz: machine.clock.max_ghz,
                pulse_active: false,
                pulse_token: 0,
                pulse_armed: false,
                cap_ghz: None,
                rng: root.fork("socket-freq", s as u64),
            })
            .collect();
        let mut noise_streams = Vec::new();
        for (si, src) in params.noise.sources.iter().enumerate() {
            match src.placement {
                NoisePlacement::PerCpu => {
                    for c in 0..n_cpu {
                        noise_streams.push(NoiseStream {
                            source: si,
                            cpu: Some(c),
                            rng: root.fork("noise", (si * n_cpu + c) as u64),
                        });
                    }
                }
                NoisePlacement::LeastLoaded | NoisePlacement::RandomCpu => {
                    noise_streams.push(NoiseStream {
                        source: si,
                        cpu: None,
                        rng: root.fork("noise-global", si as u64),
                    });
                }
            }
        }
        // Flat topology caches. The spec's layout is regular (see
        // `MachineSpec`), so these hold exactly the values the
        // `machine.*_of` lookups compute; the reference engine recomputes
        // them through the spec on every use as a cross-check.
        let cpu_core: Vec<u32> = (0..n_cpu)
            .map(|h| machine.core_of(HwThreadId(h)).0 as u32)
            .collect();
        let cpu_socket: Vec<u32> = (0..n_cpu)
            .map(|h| machine.socket_of(HwThreadId(h)).0 as u32)
            .collect();
        let cpu_numa: Vec<u32> = (0..n_cpu)
            .map(|h| machine.numa_of(HwThreadId(h)).0 as u32)
            .collect();
        let core_socket: Vec<u32> = (0..machine.n_cores())
            .map(|c| machine.socket_of_numa(machine.numa_of_core(CoreId(c))).0 as u32)
            .collect();
        let mut socket_cpus: Vec<Vec<usize>> = vec![Vec::new(); machine.sockets];
        for h in 0..n_cpu {
            socket_cpus[cpu_socket[h] as usize].push(h);
        }
        // Near: one live boundary per CPU plus its stale predecessors.
        // Far: one pending arrival per noise stream, a tick per busy CPU,
        // and the per-socket / global services.
        let queue = EventQueue::with_capacity(
            2 * n_cpu,
            noise_streams.len() + n_cpu + 2 * machine.sockets + 8,
        );
        Simulator {
            reference: false,
            cpu_core,
            cpu_socket,
            cpu_numa,
            core_socket,
            socket_cpus,
            n_cores: machine.n_cores(),
            smt: machine.smt,
            scratch_cpus: Vec::new(),
            cpus: (0..n_cpu).map(|_| Cpu::new()).collect(),
            sockets,
            domains: (0..machine.n_numa()).map(|_| Domain::default()).collect(),
            core_busy: vec![0; machine.n_cores()],
            noise_streams,
            kernel_freelist: Vec::new(),
            rng_place: root.fork("place", 0),
            rng_balance: root.fork("balance", 0),
            logger: None,
            users_remaining: 0,
            user_tasks: Vec::new(),
            markers: Vec::new(),
            freq_samples: Vec::new(),
            counters: Counters::default(),
            started: false,
            fatal: None,
            fault_plan: Vec::new(),
            fault_rngs: Vec::new(),
            rng_fault: root.fork("fault", 0),
            lost_wakeups_armed: 0,
            event_budget: None,
            trace: None,
            attr: None,
            machine,
            params,
            now: 0,
            queue,
            tasks: Vec::new(),
            objs: Vec::new(),
        }
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// The model parameters in effect.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    // ------------------------------------------------------------------
    // Construction API
    // ------------------------------------------------------------------

    /// Register a barrier for a team of `n`; `span_factor` scales its
    /// contention costs with the team's topology spread.
    pub fn add_barrier(&mut self, n: usize, span_factor: f64) -> ObjId {
        self.push_obj(SyncObj::Barrier(BarrierObj::new(n, span_factor)))
    }

    /// Register a lock.
    pub fn add_lock(&mut self, span_factor: f64) -> ObjId {
        self.push_obj(SyncObj::Lock(LockObj::new(span_factor)))
    }

    /// Register a contended-atomic object.
    pub fn add_atomic(&mut self, span_factor: f64) -> ObjId {
        self.push_obj(SyncObj::Atomic(AtomicObj::new(span_factor)))
    }

    /// Register a `single` tracker for a team of `n`.
    pub fn add_single(&mut self, n: usize) -> ObjId {
        self.push_obj(SyncObj::Single(SingleObj::new(n)))
    }

    /// Register a work-shared loop.
    pub fn add_loop(&mut self, spec: LoopSpec) -> ObjId {
        self.push_obj(SyncObj::Loop(LoopObj::new(spec)))
    }

    /// Register an explicit-task pool for a team of `participants` with
    /// `spawners` concurrent producers.
    pub fn add_task_pool(
        &mut self,
        span_factor: f64,
        participants: usize,
        spawners: usize,
    ) -> ObjId {
        self.push_obj(SyncObj::TaskPool(TaskPoolObj::new(
            span_factor,
            participants,
            spawners,
        )))
    }

    fn push_obj(&mut self, obj: SyncObj) -> ObjId {
        assert!(!self.started, "objects must be registered before run()");
        let id = ObjId(self.objs.len() as u32);
        self.objs.push(obj);
        id
    }

    /// Spawn a user task with team `rank`, executing `program`, pinned to
    /// `pin` (or unbound when `None`). All user tasks start at time 0.
    pub fn spawn_user(&mut self, rank: usize, program: Program, pin: Option<Place>) -> TaskId {
        assert!(!self.started, "tasks must be spawned before run()");
        if let Some(p) = &pin {
            for &h in p.hw_threads() {
                assert!(h.0 < self.cpus.len(), "pin beyond machine size");
            }
        }
        let id = TaskId(self.tasks.len() as u32);
        self.tasks
            .push(Task::new(id, TaskKind::User, rank, program, pin));
        self.users_remaining += 1;
        self.user_tasks.push(id);
        id
    }

    /// Enable the frequency logger: samples every `period`, optionally
    /// consuming `cost` CPU time on `cpu` per sample (mirroring the
    /// paper's Python logger on a spare core).
    pub fn enable_freq_logger(&mut self, cpu: Option<usize>, period: Time, cost: Time) {
        assert!(period > 0);
        self.logger = Some(LoggerCfg { cpu, period, cost });
    }

    /// Attach a fault plan. Each fault draws its randomness from a
    /// dedicated sub-stream of the simulation seed, so the injection
    /// schedule is bit-identical per seed and attaching a plan does not
    /// perturb any other model stream.
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        assert!(!self.started, "faults must be injected before run()");
        self.fault_plan = plan.events.clone();
        self.fault_rngs = (0..self.fault_plan.len())
            .map(|i| self.rng_fault.fork("fault-evt", i as u64))
            .collect();
    }

    /// Abort the run with [`SimError::EventBudgetExceeded`] once more
    /// than `budget` events have been processed — a backstop against
    /// runaway event chains.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = Some(budget);
    }

    /// Run on the reference engine: the pre-optimization `BinaryHeap`
    /// event queue, naive per-use topology lookups through the
    /// [`MachineSpec`], and no idle-period tick fast-forwarding.
    ///
    /// The reference path processes the *identical* event stream — same
    /// pop order, same RNG draws, same counters — so a seed run on either
    /// path yields a bit-identical [`SimReport`]. It exists as the
    /// yardstick: equivalence oracles diff the two paths, and the golden
    /// determinism suite pins both to one digest.
    pub fn use_reference_engine(&mut self) {
        assert!(
            !self.started,
            "engine flavor must be chosen before run()"
        );
        self.reference = true;
        self.queue = EventQueue::new_reference();
    }

    /// Is this simulator on the reference (pre-optimization) path?
    pub fn is_reference_engine(&self) -> bool {
        self.reference
    }

    /// Turn on span/instant tracing. Tracing records construct timelines
    /// (region, barrier, workshare, …) into the report's [`Trace`] without
    /// perturbing virtual time: traced and untraced runs of the same seed
    /// produce identical timing.
    pub fn enable_tracing(&mut self) {
        assert!(!self.started, "tracing must be enabled before run()");
        self.trace = Some(Vec::new());
    }

    /// Record a span begin/end for `tid` at the current virtual time,
    /// stamped with the task's team rank and current CPU.
    #[inline]
    fn trace_task(&mut self, tid: TaskId, kind: TraceKind) {
        if self.trace.is_none() {
            return;
        }
        let t = &self.tasks[tid.0 as usize];
        let ev = TraceEvent {
            time_ns: self.now,
            thread: t.rank as u32,
            core: t.cpu as u32,
            kind,
        };
        if let Some(buf) = &mut self.trace {
            buf.push(ev);
        }
    }

    /// Record a runtime-wide instant event (fault, retarget) not tied to
    /// any team thread.
    #[inline]
    fn trace_global(&mut self, kind: InstantKind, core: u32) {
        if let Some(buf) = &mut self.trace {
            buf.push(TraceEvent {
                time_ns: self.now,
                thread: THREAD_GLOBAL,
                core,
                kind: TraceKind::Instant(kind),
            });
        }
    }

    // ------------------------------------------------------------------
    // Causal time attribution
    //
    // Every helper below is a no-op when `self.attr` is `None`, draws no
    // randomness, pushes no events, and never mutates engine state, so an
    // attributed run is virtual-time bit-identical to a plain run. Wall
    // time of each user thread decomposes as
    //
    //     wall = useful + Σ ledger[src]      (conservation, oracle #12)
    //
    // with four charge channels:
    //  * busy progress time, split by `attr_busy` into useful compute vs.
    //    SMT co-run, sub-nominal frequency and memory contention;
    //  * overhead-pot drain (`attr_drain_pot`): the typed FIFO mirrors
    //    `pending_overhead_ns`, so each drained nanosecond keeps the
    //    cause it was charged with (`attr_pot`);
    //  * descheduled time (`queued_from` → Preemption) while the task
    //    sits in a run queue or is displaced by a kernel task;
    //  * spin-wait episodes, accrued in `touch()` and classified at the
    //    closing wake (`attr_flush_wait`) into NoiseDelayedArrival (the
    //    part explainable by primary noise charged elsewhere during the
    //    episode) vs. plain SyncContention.
    // ------------------------------------------------------------------

    /// Turn on the causal attribution ledger. Like tracing, must be
    /// enabled before `run()` and does not perturb virtual time.
    pub fn enable_attribution(&mut self) {
        assert!(!self.started, "attribution must be enabled before run()");
        self.attr = Some(AttrState::default());
    }

    /// Charge `wall_ns` of wall time on user task `tid` to `src`.
    /// Kernel tasks (ids beyond the pre-run table) are ignored.
    #[inline]
    fn attr_charge(&mut self, tid: TaskId, wall_ns: f64, src: AttrSource) {
        if wall_ns <= 0.0 {
            return;
        }
        let now = self.now;
        let Some(a) = &mut self.attr else { return };
        let Some(pt) = a.per_task.get_mut(tid.0 as usize) else { return };
        pt.ledger[src.index()] += wall_ns;
        a.totals[src.index()] += wall_ns;
        if src.is_noise() {
            a.noise_cum += wall_ns;
        }
        a.push_sample(now);
    }

    /// Mirror a `pending_overhead_ns += nominal_ns` charge with its
    /// cause; the FIFO is drained in lockstep as `touch()` consumes the
    /// pot, so the eventual wall time keeps this source.
    #[inline]
    fn attr_pot(&mut self, tid: TaskId, nominal_ns: f64, src: AttrSource) {
        if nominal_ns <= 0.0 {
            return;
        }
        let Some(a) = &mut self.attr else { return };
        let Some(pt) = a.per_task.get_mut(tid.0 as usize) else { return };
        pt.fifo.push_back((nominal_ns, src.index() as u8));
    }

    /// Book the wall time of a pot drain: `used_nominal` max-frequency
    /// nanoseconds were consumed at clock ratio `nrate`. FIFO entries are
    /// popped/split to cover it; if the FIFO runs dry (a pot charge the
    /// ledger missed) the remainder is booked as RuntimeOverhead so the
    /// drain is always fully accounted. When `flush_rest` (pot reached
    /// zero), leftover FIFO entries are dropped uncharged — the engine
    /// zero-clamps sub-nanosecond residue the same way.
    fn attr_drain_pot(&mut self, tid: TaskId, used_nominal: f64, nrate: f64, flush_rest: bool) {
        if used_nominal <= 0.0 || self.attr.is_none() {
            return;
        }
        let now = self.now;
        let Some(a) = &mut self.attr else { return };
        let Some(pt) = a.per_task.get_mut(tid.0 as usize) else { return };
        let mut left = used_nominal;
        let mut charged = [0.0f64; N_SOURCES];
        while left > 1e-12 {
            let Some((amt, src)) = pt.fifo.front_mut() else {
                charged[AttrSource::RuntimeOverhead.index()] += left / nrate;
                left = 0.0;
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
        let _ = left;
        if flush_rest {
            pt.fifo.clear();
        }
        let mut any = false;
        for (i, &w) in charged.iter().enumerate() {
            if w > 0.0 {
                pt.ledger[i] += w;
                a.totals[i] += w;
                if AttrSource::ALL[i].is_noise() {
                    a.noise_cum += w;
                }
                any = true;
            }
        }
        if any {
            a.push_sample(now);
        }
    }

    /// Accrue `wall_ns` of spin-wait time into the open wait episode.
    #[inline]
    fn attr_wait_accrue(&mut self, tid: TaskId, wall_ns: f64) {
        if wall_ns <= 0.0 {
            return;
        }
        let Some(a) = &mut self.attr else { return };
        let Some(pt) = a.per_task.get_mut(tid.0 as usize) else { return };
        pt.wait_acc += wall_ns;
    }

    /// Close the current wait episode of `tid` (if any): the part that
    /// primary noise charged *during the episode* can explain is booked
    /// as NoiseDelayedArrival (the waiter was stuck behind a noise-hit
    /// peer); the remainder is plain SyncContention. Also re-snapshots
    /// `noise_cum` so the next episode starts fresh. Called when a task
    /// blocks (to open a clean snapshot) and when its wake completes.
    fn attr_flush_wait(&mut self, tid: TaskId) {
        let now = self.now;
        let Some(a) = &mut self.attr else { return };
        let noise_cum = a.noise_cum;
        let Some(pt) = a.per_task.get_mut(tid.0 as usize) else { return };
        let wait = pt.wait_acc;
        pt.wait_acc = 0.0;
        let noise_part = wait.min((noise_cum - pt.noise_snap).max(0.0));
        pt.noise_snap = noise_cum;
        if wait <= 0.0 {
            return;
        }
        let sync_part = wait - noise_part;
        pt.ledger[AttrSource::NoiseDelayedArrival.index()] += noise_part;
        pt.ledger[AttrSource::SyncContention.index()] += sync_part;
        a.totals[AttrSource::NoiseDelayedArrival.index()] += noise_part;
        a.totals[AttrSource::SyncContention.index()] += sync_part;
        a.push_sample(now);
    }

    /// Mark `tid` as displaced into a run queue at the current time (the
    /// start of a descheduled interval; no-op if already marked).
    #[inline]
    fn attr_set_queued(&mut self, tid: TaskId) {
        let now = self.now;
        let Some(a) = &mut self.attr else { return };
        let Some(pt) = a.per_task.get_mut(tid.0 as usize) else { return };
        if pt.queued_from.is_none() {
            pt.queued_from = Some(now);
        }
    }

    /// Close a descheduled interval for `tid`: charge queue residence to
    /// Preemption (displacement by kernel noise or quantum rotation is
    /// what puts user tasks in queues).
    #[inline]
    fn attr_take_queued(&mut self, tid: TaskId) {
        let now = self.now;
        let queued = {
            let Some(a) = &mut self.attr else { return };
            let Some(pt) = a.per_task.get_mut(tid.0 as usize) else { return };
            pt.queued_from.take()
        };
        if let Some(from) = queued {
            self.attr_charge(tid, now.saturating_sub(from) as f64, AttrSource::Preemption);
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
        if wall_ns <= 0.0 || self.attr.is_none() {
            return;
        }
        let ghz = self.ghz(cpu);
        let max = self.machine.clock.max_ghz;
        let clean = self.sockets[self.socket_of_cpu(cpu)].clean_ghz;
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
                let home = home_numa.unwrap_or_else(|| self.numa_of_cpu(cpu));
                let n_acc = self.domains[home].streamers.len().max(1);
                let mem = &self.machine.memory;
                let remote = if self.numa_of_cpu(cpu) != home {
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
        let now = self.now;
        let Some(a) = &mut self.attr else { return };
        let Some(pt) = a.per_task.get_mut(tid.0 as usize) else { return };
        let mut any = false;
        for (i, part) in [
            (AttrSource::SmtCoRun.index(), smt_part),
            (AttrSource::SubNominalFreq.index(), freq_part),
            (AttrSource::MemContention.index(), mem_part),
        ] {
            if part > 0.0 {
                pt.ledger[i] += part;
                a.totals[i] += part;
                if AttrSource::ALL[i].is_noise() {
                    a.noise_cum += part;
                }
                any = true;
            }
        }
        pt.useful += useful;
        if any {
            a.push_sample(now);
        }
    }

    // ------------------------------------------------------------------
    // Rates and pricing
    // ------------------------------------------------------------------

    fn socket_of_cpu(&self, cpu: usize) -> usize {
        if self.reference {
            self.machine.socket_of(HwThreadId(cpu)).0
        } else {
            self.cpu_socket[cpu] as usize
        }
    }

    fn numa_of_cpu(&self, cpu: usize) -> usize {
        if self.reference {
            self.machine.numa_of(HwThreadId(cpu)).0
        } else {
            self.cpu_numa[cpu] as usize
        }
    }

    fn core_of_cpu(&self, cpu: usize) -> usize {
        if self.reference {
            self.machine.core_of(HwThreadId(cpu)).0
        } else {
            self.cpu_core[cpu] as usize
        }
    }

    fn ghz(&self, cpu: usize) -> f64 {
        self.sockets[self.socket_of_cpu(cpu)].applied_ghz
    }

    fn sibling_busy(&self, cpu: usize) -> bool {
        if self.reference {
            return self
                .machine
                .siblings_of(HwThreadId(cpu))
                .iter()
                .any(|s| self.cpus[s.0].running.is_some());
        }
        // `core_busy` counts hardware threads of the core with a task
        // installed (maintained solely by `set_running`), so the sibling
        // scan collapses to one counter read: subtract this thread's own
        // contribution and ask whether anything is left.
        let mut n = self.core_busy[self.cpu_core[cpu] as usize];
        if self.cpus[cpu].running.is_some() {
            n -= 1;
        }
        n > 0
    }

    /// Progress rate of the given timed micro-op on `cpu`, in
    /// progress-units per nanosecond.
    fn rate(&self, cpu: usize, timed: &Timed, home_numa: Option<usize>) -> f64 {
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
                self.ghz(cpu) / self.machine.clock.max_ghz
            }
            Timed::Bytes { .. } => {
                let home = home_numa.unwrap_or_else(|| self.numa_of_cpu(cpu));
                let n_acc = self.domains[home].streamers.len().max(1);
                let mem = &self.machine.memory;
                let share = mem.local_bw_gbs / n_acc as f64;
                let mut gbs = share.min(self.params.mem.per_core_bw_gbs);
                if self.numa_of_cpu(cpu) != home {
                    gbs *= mem.remote_bw_factor;
                }
                let s = self.params.mem.stream_freq_sensitivity;
                gbs *= (1.0 - s) + s * self.ghz(cpu) / self.machine.clock.max_ghz;
                gbs // GB/s == bytes/ns
            }
        }
    }

    // ------------------------------------------------------------------
    // Accounting and event scheduling
    // ------------------------------------------------------------------

    /// Account the running task's progress on `cpu` up to `self.now` and
    /// invalidate its scheduled boundary.
    fn touch(&mut self, cpu: usize) {
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
            self.attr_wait_accrue(tid, elapsed as f64);
            return;
        }
        let mut budget = elapsed as f64;
        // Pending overheads are denominated in max-frequency nanoseconds
        // and are consumed at the core's current clock ratio.
        let nrate = self.ghz(cpu) / self.machine.clock.max_ghz;
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
        if self.attr.is_some() {
            self.attr_drain_pot(tid, pot_used, nrate, pot_exhausted);
        }
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
            self.attr_wait_accrue(tid, budget);
            return;
        };
        if self.attr.is_some() {
            self.attr_busy(tid, cpu, budget, &cur, home);
        }
        let rate = self.rate(cpu, &cur, home);
        let done = budget * rate;
        let t = &mut self.tasks[tid.0 as usize];
        if let Some(cur) = &mut t.current {
            let rem = match cur {
                Timed::Cycles { rem, .. }
                | Timed::Ns { rem }
                | Timed::Bytes { rem }
                | Timed::AtomicNs { rem, .. } => rem,
            };
            *rem -= done;
            if *rem < 1e-9 {
                *rem = 0.0;
            }
        }
    }

    /// Schedule the next boundary event for `cpu` given its current state.
    fn schedule_boundary(&mut self, cpu: usize) {
        let Some(tid) = self.cpus[cpu].running else {
            return;
        };
        let t = &self.tasks[tid.0 as usize];
        let mut next: Option<Time> = None;
        if !matches!(t.state, TaskState::Waiting(_)) {
            let mut ns =
                t.pending_overhead_ns * self.machine.clock.max_ghz / self.ghz(cpu);
            if let Some(cur) = &t.current {
                let rem = match cur {
                    Timed::Cycles { rem, .. }
                    | Timed::Ns { rem }
                    | Timed::Bytes { rem }
                    | Timed::AtomicNs { rem, .. } => *rem,
                };
                ns += rem / self.rate(cpu, cur, t.home_numa);
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
    fn sync_stream(&mut self, cpu: usize) {
        let desired = match self.cpus[cpu].running {
            Some(tid) => {
                let t = &self.tasks[tid.0 as usize];
                match (&t.state, &t.current) {
                    (TaskState::Waiting(_), _) => None,
                    (_, Some(Timed::Bytes { .. })) => {
                        Some(t.home_numa.unwrap_or_else(|| self.numa_of_cpu(cpu)))
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
    fn set_running(&mut self, cpu: usize, tid: Option<TaskId>) {
        let was_busy = self.cpus[cpu].running.is_some();
        self.cpus[cpu].running = tid;
        self.cpus[cpu].since = self.now;
        if let Some(t) = tid {
            self.tasks[t.0 as usize].cpu = cpu;
            if self.tasks[t.0 as usize].home_numa.is_none() {
                self.tasks[t.0 as usize].home_numa = Some(self.numa_of_cpu(cpu));
            }
            if self.tasks[t.0 as usize].kind == TaskKind::User {
                self.cpus[cpu].quantum_end = self.now + self.params.sched.quantum;
                // Close any descheduled (queued) interval now ending.
                self.attr_take_queued(t);
            }
        }
        let is_busy = self.cpus[cpu].running.is_some();
        if was_busy != is_busy {
            let core = self.core_of_cpu(cpu);
            let socket = self.socket_of_cpu(cpu);
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
            // SMT sibling rate changed. The layout is regular
            // (`hw = core + lane * n_cores`), so the optimized path walks
            // the lanes directly instead of materializing a sibling Vec;
            // both orders are ascending, so the touch/reschedule sequence
            // is identical.
            if self.reference {
                for sib in self.machine.siblings_of(HwThreadId(cpu)) {
                    if self.cpus[sib.0].running.is_some() {
                        self.touch(sib.0);
                        self.schedule_boundary(sib.0);
                    }
                }
            } else {
                for lane in 0..self.smt {
                    let sib = core + lane * self.n_cores;
                    if sib != cpu && self.cpus[sib].running.is_some() {
                        self.touch(sib);
                        self.schedule_boundary(sib);
                    }
                }
            }
        }
    }

    /// Pick and start the next task on an idle `cpu`, advance it as far
    /// as possible, and schedule its boundary.
    fn commit(&mut self, cpu: usize) {
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
    // The op interpreter
    // ------------------------------------------------------------------

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
    fn advance(&mut self, tid: TaskId) {
        let ti = tid.0 as usize;
        loop {
            if self.fatal.is_some() {
                // A helper raised an unrecoverable error mid-advance; stop
                // interpreting so `run` can surface it after this event.
                return;
            }
            debug_assert!(self.tasks[ti].current.is_none());
            debug_assert_eq!(self.tasks[ti].state, TaskState::Runnable);
            let Some(micro) = self.tasks[ti].micro.pop_front() else {
                if !self.expand_next_op(tid) {
                    if self.fatal.is_none() {
                        self.finish_task(tid);
                    }
                    return;
                }
                continue;
            };
            match micro {
                MicroOp::Timed(t) => {
                    let rem = match &t {
                        Timed::Cycles { rem, .. }
                        | Timed::Ns { rem }
                        | Timed::Bytes { rem }
                        | Timed::AtomicNs { rem, .. } => *rem,
                    };
                    if rem <= 0.0 {
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
                    let cpu = self.tasks[ti].cpu;
                    // Critical span opens at the acquire attempt, so lock
                    // wait time is inside the span (EPCC measures it so).
                    self.trace_task(tid, TraceKind::Begin(SpanKind::Critical));
                    let SyncObj::Lock(l) = &mut self.objs[obj.0 as usize] else {
                        self.type_mismatch("LockAcquire", obj, "lock");
                        return;
                    };
                    if l.acquire(tid) {
                        let cost = self.params.sync.lock_ns * l.span_factor;
                        self.tasks[ti].pending_overhead_ns += cost;
                        self.attr_pot(tid, cost, AttrSource::RuntimeOverhead);
                        let _ = cpu;
                    } else {
                        self.tasks[ti].state = TaskState::Waiting(WaitKind::Lock(obj));
                        self.attr_flush_wait(tid); // open a fresh wait episode
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
                    self.tasks[ti]
                        .micro
                        .push_front(MicroOp::Timed(Timed::AtomicNs { rem: cost, obj }));
                }
                MicroOp::GrabChunk(obj) => {
                    self.grab_chunk(tid, obj);
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
                        self.tasks[ti].state =
                            TaskState::Waiting(WaitKind::Ticket { obj, iter });
                        self.attr_flush_wait(tid); // open a fresh wait episode
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
                    self.tasks[ti].pending_overhead_ns += cost;
                    self.attr_pot(tid, cost, AttrSource::RuntimeOverhead);
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
                            let t = &mut self.tasks[ti];
                            t.pending_overhead_ns += dispatch;
                            t.micro.push_front(MicroOp::TaskExecOrWait { obj });
                            t.micro.push_front(MicroOp::TaskDone { obj });
                            t.micro.push_front(MicroOp::Timed(Timed::Cycles {
                                rem: cycles,
                                class: CorunClass::Latency,
                            }));
                            self.trace_task(tid, TraceKind::Begin(SpanKind::Task));
                            self.attr_pot(tid, dispatch, AttrSource::RuntimeOverhead);
                        }
                        None => {
                            if p.outstanding > 0 {
                                p.waiters.push(tid);
                                self.tasks[ti].state =
                                    TaskState::Waiting(WaitKind::TaskPool(obj));
                                self.attr_flush_wait(tid); // open a fresh wait episode
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
                        self.tasks[ti].micro.push_front(MicroOp::SpanEnd(SpanKind::Single));
                        if body_cycles > 0.0 {
                            self.tasks[ti].micro.push_front(MicroOp::Timed(Timed::Cycles {
                                rem: body_cycles,
                                class: CorunClass::Latency,
                            }));
                        }
                    } else {
                        let cost = self.params.sync.single_ns;
                        self.tasks[ti].pending_overhead_ns += cost;
                        self.attr_pot(tid, cost, AttrSource::RuntimeOverhead);
                        self.trace_task(tid, TraceKind::End(SpanKind::Single));
                    }
                }
                MicroOp::SpanEnd(kind) => {
                    self.trace_task(tid, TraceKind::End(kind));
                }
            }
        }
    }

    /// Expand the op at `pc` into micro-ops. Returns `false` when the
    /// program has ended.
    fn expand_next_op(&mut self, tid: TaskId) -> bool {
        let ti = tid.0 as usize;
        loop {
            let pc = self.tasks[ti].pc;
            if pc >= self.tasks[ti].program.ops().len() {
                return false;
            }
            let op = self.tasks[ti].program.ops()[pc];
            match op {
                Op::LoopBegin { count } => {
                    self.tasks[ti]
                        .frames
                        .push(crate::task::LoopFrame {
                            begin_pc: pc,
                            remaining: count - 1,
                        });
                    self.tasks[ti].pc += 1;
                    continue;
                }
                Op::LoopEnd => {
                    let frame = self
                        .tasks[ti]
                        .frames
                        .last_mut()
                        .expect("LoopEnd without frame");
                    if frame.remaining > 0 {
                        frame.remaining -= 1;
                        let back = frame.begin_pc + 1;
                        self.tasks[ti].pc = back;
                    } else {
                        self.tasks[ti].frames.pop();
                        self.tasks[ti].pc += 1;
                    }
                    continue;
                }
                Op::Compute { cycles, class } => {
                    self.tasks[ti]
                        .micro
                        .push_back(MicroOp::Timed(Timed::Cycles { rem: cycles, class }));
                }
                Op::Busy { ns } => {
                    self.tasks[ti]
                        .micro
                        .push_back(MicroOp::Timed(Timed::Ns { rem: ns }));
                }
                Op::MemStream { bytes } => {
                    self.tasks[ti]
                        .micro
                        .push_back(MicroOp::Timed(Timed::Bytes { rem: bytes }));
                }
                Op::Mark { marker } => {
                    self.tasks[ti].micro.push_back(MicroOp::Mark(marker));
                }
                Op::Barrier { obj } => {
                    let (n, span) = match &self.objs[obj.0 as usize] {
                        SyncObj::Barrier(b) => (b.n, b.span_factor),
                        _ => {
                            self.type_mismatch("Barrier", obj, "barrier");
                            return false;
                        }
                    };
                    let arrive = self.params.sync.barrier_arrive_ns
                        + self.params.sync.barrier_arrive_per_thread_ns
                            * (n.saturating_sub(1)) as f64
                            * span;
                    self.tasks[ti]
                        .micro
                        .push_back(MicroOp::Timed(Timed::Ns { rem: arrive }));
                    self.tasks[ti].micro.push_back(MicroOp::BarrierArrive(obj));
                    // The barrier span covers arrive overhead + wait: it
                    // opens here and closes on release (in `wake`, or in
                    // `barrier_arrive` for the last arriver).
                    self.trace_task(tid, TraceKind::Begin(SpanKind::Barrier));
                }
                Op::LockAcquire { obj } => {
                    self.tasks[ti].micro.push_back(MicroOp::LockAcquire(obj));
                }
                Op::LockRelease { obj } => {
                    self.tasks[ti].micro.push_back(MicroOp::LockRelease(obj));
                }
                Op::AtomicOp { obj } => {
                    self.tasks[ti].micro.push_back(MicroOp::AtomicStart(obj));
                }
                Op::ForLoop { obj } => {
                    // Re-arm the task-private loop cursor: it is shared
                    // across loop objects, and two distinct loops whose
                    // generation counters coincide would otherwise alias —
                    // the second loop would see a stale exhausted cursor
                    // and hand this task no work at all.
                    self.tasks[ti].loop_gen = u64::MAX;
                    self.tasks[ti].loop_pos = 0;
                    self.tasks[ti].micro.push_back(MicroOp::GrabChunk(obj));
                    self.trace_task(tid, TraceKind::Begin(SpanKind::Workshare));
                }
                Op::Single { obj, body_cycles } => {
                    self.tasks[ti]
                        .micro
                        .push_back(MicroOp::SingleTry { obj, body_cycles });
                }
                Op::TaskSpawn {
                    obj,
                    count,
                    body_cycles,
                } => {
                    for _ in 0..count {
                        self.tasks[ti]
                            .micro
                            .push_back(MicroOp::TaskSpawnOne { obj, body_cycles });
                    }
                }
                Op::TaskWait { obj } => {
                    self.tasks[ti].micro.push_back(MicroOp::TaskExecOrWait { obj });
                }
            }
            self.tasks[ti].pc += 1;
            return true;
        }
    }

    /// Handle a chunk grab for `tid` on loop `obj`, pushing the dispatch
    /// cost and the body work as micro-ops.
    fn grab_chunk(&mut self, tid: TaskId, obj: ObjId) {
        let ti = tid.0 as usize;
        let rank = self.tasks[ti].rank;
        let (mut lgen, mut lpos) = (self.tasks[ti].loop_gen, self.tasks[ti].loop_pos);
        let SyncObj::Loop(l) = &mut self.objs[obj.0 as usize] else {
            self.type_mismatch("GrabChunk", obj, "loop");
            return;
        };
        let grab = l.grab(rank, &mut lgen, &mut lpos);
        self.tasks[ti].loop_gen = lgen;
        self.tasks[ti].loop_pos = lpos;
        let SyncObj::Loop(l) = &self.objs[obj.0 as usize] else {
            unreachable!()
        };
        match grab {
            None => {
                let SyncObj::Loop(l) = &mut self.objs[obj.0 as usize] else {
                    unreachable!()
                };
                l.observe_exhausted();
                // Loop op done; fall through to the next micro/op.
                self.trace_task(tid, TraceKind::End(SpanKind::Workshare));
            }
            Some(g) => {
                let sync = &self.params.sync;
                let per_grab = match l.spec.schedule {
                    crate::sync::LoopSchedule::Static { .. } => sync.static_grab_ns,
                    crate::sync::LoopSchedule::Dynamic { .. }
                    | crate::sync::LoopSchedule::Guided { .. } => {
                        sync.atomic_ns
                            + sync.atomic_contention_ns
                                * l.active().saturating_sub(1) as f64
                                * l.spec.span_factor
                    }
                };
                let dispatch = per_grab * g.n_grabs as f64;
                let body_cycles = l.spec.body_cycles;
                let body_class = l.spec.body_class;
                let ordered = l.spec.ordered_section_ns;
                let t = &mut self.tasks[ti];
                if dispatch > 0.0 {
                    t.micro
                        .push_back(MicroOp::Timed(Timed::Ns { rem: dispatch }));
                }
                match ordered {
                    None => {
                        t.micro.push_back(MicroOp::Timed(Timed::Cycles {
                            rem: body_cycles * g.iters as f64,
                            class: body_class,
                        }));
                    }
                    Some(section_ns) => {
                        for i in g.first_iter..g.first_iter + g.iters {
                            t.micro.push_back(MicroOp::Timed(Timed::Cycles {
                                rem: body_cycles,
                                class: body_class,
                            }));
                            t.micro.push_back(MicroOp::WaitTicket { obj, iter: i });
                            t.micro
                                .push_back(MicroOp::Timed(Timed::Ns { rem: section_ns }));
                            t.micro.push_back(MicroOp::TicketDone { obj });
                        }
                    }
                }
                t.micro.push_back(MicroOp::SpanEnd(SpanKind::Chunk));
                t.micro.push_back(MicroOp::GrabChunk(obj));
                self.trace_task(tid, TraceKind::Begin(SpanKind::Chunk));
            }
        }
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
            self.tasks[tid.0 as usize].pending_overhead_ns += base * span;
            self.attr_pot(tid, base * span, AttrSource::RuntimeOverhead);
            self.trace_task(tid, TraceKind::End(SpanKind::Barrier));
            for &w in &waiters {
                let wcpu = self.tasks[w.0 as usize].cpu;
                let d = self
                    .machine
                    .distance(HwThreadId(last_cpu), HwThreadId(wcpu)) as f64;
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
            self.tasks[tid.0 as usize].state = TaskState::Waiting(WaitKind::Barrier(obj));
            self.attr_flush_wait(tid); // open a fresh wait episode
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
        self.tasks[ti].pending_overhead_ns += cost_ns;
        self.attr_pot(tid, cost_ns, AttrSource::RuntimeOverhead);
        let cpu = self.tasks[ti].cpu;
        if self.tasks[ti].pin.is_none()
            && self.params.sched.wake_migrate_prob > 0.0
            && self.rng_place.chance(self.params.sched.wake_migrate_prob)
        {
            let target = if self.rng_place.chance(self.params.sched.wake_misplace_prob) {
                let c = self.rng_place.index(self.cpus.len());
                if self.cpus[c].offline {
                    Self::least_loaded_cpu(&mut self.rng_place, &self.cpus, &self.machine, self.reference)
                } else {
                    c
                }
            } else {
                Self::least_loaded_cpu(&mut self.rng_place, &self.cpus, &self.machine, self.reference)
            };
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
                self.attr_flush_wait(tid);
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
        self.attr_flush_wait(tid);
    }

    /// Completion of a contended atomic: release its slot.
    fn atomic_done(&mut self, obj: ObjId) {
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

    // ------------------------------------------------------------------
    // Placement, noise, load balancing
    // ------------------------------------------------------------------

    /// Pick the least-loaded online CPU: idle CPUs on fully idle cores
    /// first, then idle CPUs, then minimal queue length; ties broken
    /// randomly. Offline CPUs are never chosen (the hotplug fault keeps
    /// at least one CPU online).
    fn least_loaded_cpu(rng: &mut Rng, cpus: &[Cpu], machine: &MachineSpec, reference: bool) -> usize {
        if reference {
            // Pre-optimization body, kept verbatim: candidate Vec plus
            // per-CPU sibling-Vec allocations.
            let mut best_key = (u8::MAX, usize::MAX);
            let mut best: Vec<usize> = Vec::new();
            for (i, c) in cpus.iter().enumerate() {
                if c.offline {
                    continue;
                }
                let load = c.load();
                let core_idle = machine
                    .hw_threads_of_core(machine.core_of(HwThreadId(i)))
                    .iter()
                    .all(|h| cpus[h.0].load() == 0);
                let class = if load == 0 && core_idle {
                    0
                } else if load == 0 {
                    1
                } else {
                    2
                };
                let key = (class, load);
                if key < best_key {
                    best_key = key;
                    best.clear();
                    best.push(i);
                } else if key == best_key {
                    best.push(i);
                }
            }
            return best[rng.index(best.len())];
        }
        // Allocation-free variant: two passes over the CPUs, first to
        // find the best (class, load) key and the candidate count, then —
        // after drawing `rng.index(count)`, the same single RNG draw the
        // reference body makes over the same candidate set — to locate
        // the drawn candidate. Core idleness comes from the regular
        // layout (`hw = core + lane * n_cores`) instead of a sibling Vec.
        let n_cores = machine.n_cores();
        let smt = machine.smt;
        let key_of = |i: usize, c: &Cpu| -> Option<(u8, usize)> {
            if c.offline {
                return None;
            }
            let load = c.load();
            let core = i % n_cores;
            let core_idle = (0..smt).all(|s| cpus[core + s * n_cores].load() == 0);
            let class = if load == 0 && core_idle {
                0
            } else if load == 0 {
                1
            } else {
                2
            };
            Some((class, load))
        };
        let mut best_key = (u8::MAX, usize::MAX);
        let mut count = 0usize;
        for (i, c) in cpus.iter().enumerate() {
            match key_of(i, c) {
                Some(key) if key < best_key => {
                    best_key = key;
                    count = 1;
                }
                Some(key) if key == best_key => count += 1,
                _ => {}
            }
        }
        let mut k = rng.index(count);
        for (i, c) in cpus.iter().enumerate() {
            if key_of(i, c) == Some(best_key) {
                if k == 0 {
                    return i;
                }
                k -= 1;
            }
        }
        unreachable!("candidate set changed between passes")
    }

    /// Initial placement of a user task.
    fn initial_cpu(&mut self, tid: TaskId) -> usize {
        let pin = self.tasks[tid.0 as usize].pin.clone();
        match pin {
            Some(place) => {
                // Least loaded online CPU within the place; if the whole
                // place is offline, fall back to any online CPU.
                let mut best = None;
                let mut best_load = usize::MAX;
                for &h in place.hw_threads() {
                    if self.cpus[h.0].offline {
                        continue;
                    }
                    let l = self.cpus[h.0].load();
                    if l < best_load {
                        best_load = l;
                        best = Some(h.0);
                    }
                }
                best.unwrap_or_else(|| {
                    Self::least_loaded_cpu(&mut self.rng_place, &self.cpus, &self.machine, self.reference)
                })
            }
            None => {
                if self
                    .rng_place
                    .chance(self.params.sched.wake_misplace_prob)
                {
                    let c = self.rng_place.index(self.cpus.len());
                    if self.cpus[c].offline {
                        Self::least_loaded_cpu(&mut self.rng_place, &self.cpus, &self.machine, self.reference)
                    } else {
                        c
                    }
                } else {
                    Self::least_loaded_cpu(&mut self.rng_place, &self.cpus, &self.machine, self.reference)
                }
            }
        }
    }

    /// Enqueue a ready task on `cpu`, preempting per priority rules.
    fn enqueue(&mut self, tid: TaskId, cpu: usize) {
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
                        self.tasks[r.0 as usize].pending_overhead_ns += refill;
                        self.tasks[r.0 as usize].stats.preemptions += 1;
                        self.counters.preemptions += 1;
                        self.trace_task(r, TraceKind::Instant(InstantKind::NoisePreemption));
                        // The refill penalty and the queue residence until
                        // the victim resumes are both preemption noise.
                        self.attr_pot(r, refill, AttrSource::Preemption);
                        self.attr_set_queued(r);
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
                    self.attr_set_queued(tid); // usually closed immediately by commit
                    self.commit(cpu);
                } else {
                    // Refresh the current quantum if it already expired.
                    if self.cpus[cpu].quantum_end <= self.now {
                        self.cpus[cpu].quantum_end = self.now + self.params.sched.quantum;
                    }
                    self.cpus[cpu].uq.push_back(tid);
                    self.attr_set_queued(tid);
                    // The running task now has competition: reprice so the
                    // quantum boundary takes effect.
                    self.touch(cpu);
                    self.schedule_boundary(cpu);
                }
            }
        }
    }

    /// Spawn one kernel noise task of duration `ns` on `cpu`.
    fn spawn_kernel(&mut self, cpu: usize, ns: f64) {
        let tid = match self.kernel_freelist.pop() {
            Some(id) => {
                let t = &mut self.tasks[id.0 as usize];
                t.program.reset_to_busy(ns);
                t.pc = 0;
                t.frames.clear();
                t.micro.clear();
                t.current = None;
                t.state = TaskState::Runnable;
                t.pending_overhead_ns = 0.0;
                t.loop_gen = u64::MAX;
                id
            }
            None => {
                let id = TaskId(self.tasks.len() as u32);
                let program = Program::new(vec![Op::Busy { ns }]);
                self.tasks
                    .push(Task::new(id, TaskKind::Kernel, 0, program, None));
                id
            }
        };
        self.counters.noise_busy += from_ns_f64(ns);
        self.enqueue(tid, cpu);
    }

    /// One load-balancing pass: move queued, movable user tasks from
    /// overloaded CPUs to idle ones.
    fn load_balance(&mut self) {
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
            let d = self.machine.distance(HwThreadId(from), HwThreadId(c));
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
    fn migrate(&mut self, tid: TaskId, from: usize, to: usize) {
        let d = self.machine.distance(HwThreadId(from), HwThreadId(to)) as f64;
        let ghz = self.ghz(to);
        let penalty_ns =
            self.params.sched.migration_penalty_cycles * (1.0 + d) / ghz.max(0.1);
        let t = &mut self.tasks[tid.0 as usize];
        t.pending_overhead_ns += penalty_ns;
        t.stats.migrations += 1;
        self.counters.migrations += 1;
        self.attr_pot(tid, penalty_ns, AttrSource::Migration);
        self.enqueue(tid, to);
    }

    // ------------------------------------------------------------------
    // Event handlers and the main loop
    // ------------------------------------------------------------------

    fn start(&mut self) {
        assert!(!self.started);
        self.started = true;
        // Size the attribution table to the pre-run task table: every
        // user task gets a ledger; kernel tasks spawned from here on get
        // ids past the end and are ignored by the attr helpers.
        if let Some(a) = &mut self.attr {
            a.per_task = (0..self.tasks.len()).map(|_| TaskAttr::default()).collect();
        }
        // Place and enqueue user tasks in spawn order.
        let users = self.user_tasks.clone();
        for tid in users {
            let cpu = self.initial_cpu(tid);
            // Open the region span before enqueue: placement may run the
            // task synchronously, and its construct spans must nest inside.
            if let Some(buf) = &mut self.trace {
                buf.push(TraceEvent {
                    time_ns: self.now,
                    thread: self.tasks[tid.0 as usize].rank as u32,
                    core: cpu as u32,
                    kind: TraceKind::Begin(SpanKind::Region),
                });
            }
            self.enqueue(tid, cpu);
        }
        // Arm noise arrival processes.
        for s in 0..self.noise_streams.len() {
            self.arm_noise(s);
        }
        // Periodic services.
        if self.params.sched.balance_interval > 0 {
            self.queue
                .push(self.params.sched.balance_interval, EventKind::LoadBalance);
        }
        if let Some(cfg) = self.logger {
            self.queue.push(cfg.period, EventKind::FreqSample);
        }
        // Schedule fault injections (and the ends of timed windows).
        for (i, ev) in self.fault_plan.clone().into_iter().enumerate() {
            self.queue.push(ev.at, EventKind::FaultStart { idx: i as u32 });
            match ev.fault {
                Fault::CpuOffline {
                    duration: Some(d), ..
                }
                | Fault::FreqCap {
                    duration: Some(d), ..
                } => {
                    self.queue
                        .push(ev.at.saturating_add(d), EventKind::FaultEnd { idx: i as u32 });
                }
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn handle_fault_start(&mut self, idx: usize) {
        self.counters.faults_injected += 1;
        self.trace_global(InstantKind::FaultInjection, CORE_UNKNOWN);
        match self.fault_plan[idx].fault {
            Fault::NoiseStorm { .. } => self.handle_fault_storm_tick(idx),
            Fault::CpuOffline { cpu, .. } => self.fault_cpu_offline(cpu),
            Fault::FreqCap { socket, cap_ghz, .. } => {
                self.fault_freq_cap(socket, Some(cap_ghz));
            }
            Fault::TaskStall { rank, stall_ns } => self.fault_task_stall(idx, rank, stall_ns),
            Fault::LostWakeups { count } => {
                self.lost_wakeups_armed += count;
            }
        }
    }

    fn handle_fault_end(&mut self, idx: usize) {
        match self.fault_plan[idx].fault {
            Fault::CpuOffline { cpu, .. } => {
                self.cpus[cpu].offline = false;
            }
            Fault::FreqCap { socket, .. } => self.fault_freq_cap(socket, None),
            _ => {}
        }
    }

    /// One arrival of an active noise storm: a kernel task on a random
    /// online CPU, then the next arrival — until the window closes.
    fn handle_fault_storm_tick(&mut self, idx: usize) {
        let FaultEvent { at, fault } = self.fault_plan[idx];
        let Fault::NoiseStorm {
            duration,
            mean_interval,
            median_task,
            sigma,
        } = fault
        else {
            return;
        };
        if self.now >= at.saturating_add(duration) {
            return;
        }
        // Draw the target from the online set without materializing it:
        // count, draw an index, then find the drawn CPU — the same single
        // `rng.index(count)` over the same set as the collected variant.
        let n_online = self.cpus.iter().filter(|c| !c.offline).count();
        let (cpu, dur_ns, dt_ns) = {
            let rng = &mut self.fault_rngs[idx];
            let mut k = rng.index(n_online);
            let mut cpu = usize::MAX;
            for (i, c) in self.cpus.iter().enumerate() {
                if !c.offline {
                    if k == 0 {
                        cpu = i;
                        break;
                    }
                    k -= 1;
                }
            }
            debug_assert!(cpu != usize::MAX);
            (
                cpu,
                rng.lognormal(median_task as f64, sigma),
                rng.exp(mean_interval as f64),
            )
        };
        self.counters.noise_events += 1;
        self.spawn_kernel(cpu, dur_ns);
        self.queue.push(
            self.now.saturating_add(from_ns_f64(dt_ns)),
            EventKind::FaultStormTick { idx: idx as u32 },
        );
    }

    /// Take `cpu` down: evacuate its queues and its running task, then
    /// refuse new work until the matching [`EventKind::FaultEnd`]. The
    /// last online CPU is never taken down (the fault degrades, it does
    /// not brick the machine).
    fn fault_cpu_offline(&mut self, cpu: usize) {
        if self.cpus[cpu].offline
            || self.cpus.iter().filter(|c| !c.offline).count() <= 1
        {
            return;
        }
        self.cpus[cpu].offline = true;
        // Evacuate queued work first so the eviction below cannot
        // re-dispatch onto this CPU.
        let uq: Vec<TaskId> = self.cpus[cpu].uq.drain(..).collect();
        let kq: Vec<TaskId> = self.cpus[cpu].kq.drain(..).collect();
        for tid in uq {
            let target = self.offline_evac_target(tid);
            self.migrate(tid, cpu, target);
        }
        for tid in kq {
            let target = Self::least_loaded_cpu(&mut self.rng_place, &self.cpus, &self.machine, self.reference);
            self.enqueue(tid, target);
        }
        // Evict whatever is on the CPU right now (running or spinning).
        if let Some(tid) = self.cpus[cpu].running {
            self.touch(cpu);
            self.set_running(cpu, None);
            match self.tasks[tid.0 as usize].kind {
                TaskKind::User => {
                    let target = self.offline_evac_target(tid);
                    self.migrate(tid, cpu, target);
                }
                TaskKind::Kernel => {
                    let target =
                        Self::least_loaded_cpu(&mut self.rng_place, &self.cpus, &self.machine, self.reference);
                    self.enqueue(tid, target);
                }
            }
        }
        self.sync_stream(cpu);
    }

    /// Evacuation target for a user task leaving an offlined CPU:
    /// least-loaded online CPU of its place, else any online CPU.
    fn offline_evac_target(&mut self, tid: TaskId) -> usize {
        let pin = self.tasks[tid.0 as usize].pin.clone();
        if let Some(p) = pin {
            let mut best = None;
            let mut best_load = usize::MAX;
            for &h in p.hw_threads() {
                if self.cpus[h.0].offline {
                    continue;
                }
                let l = self.cpus[h.0].load();
                if l < best_load {
                    best_load = l;
                    best = Some(h.0);
                }
            }
            if let Some(b) = best {
                return b;
            }
        }
        Self::least_loaded_cpu(&mut self.rng_place, &self.cpus, &self.machine, self.reference)
    }

    /// Apply (or lift, with `cap: None`) a frequency cap on one socket or
    /// all of them; retargets fire immediately (thermal throttling does
    /// not wait for the governor).
    fn fault_freq_cap(&mut self, socket: Option<usize>, cap: Option<f64>) {
        let targets: Vec<usize> = match socket {
            Some(s) if s < self.sockets.len() => vec![s],
            Some(_) => Vec::new(),
            None => (0..self.sockets.len()).collect(),
        };
        for s in targets {
            self.sockets[s].cap_ghz = cap;
            self.queue.push(self.now, EventKind::FreqReeval { socket: s });
        }
    }

    /// Charge one unfinished user task a lump of opaque overhead.
    fn fault_task_stall(&mut self, idx: usize, rank: Option<usize>, stall_ns: f64) {
        let unfinished: Vec<TaskId> = self
            .user_tasks
            .iter()
            .copied()
            .filter(|&t| self.tasks[t.0 as usize].state != TaskState::Done)
            .collect();
        if unfinished.is_empty() {
            return;
        }
        let victim = match rank {
            Some(r) => match unfinished
                .iter()
                .find(|&&t| self.tasks[t.0 as usize].rank == r)
            {
                Some(&t) => t,
                None => return,
            },
            None => unfinished[self.fault_rngs[idx].index(unfinished.len())],
        };
        let cpu = self.tasks[victim.0 as usize].cpu;
        let running_here = self.cpus[cpu].running == Some(victim);
        if running_here {
            self.touch(cpu);
        }
        self.tasks[victim.0 as usize].pending_overhead_ns += stall_ns;
        self.attr_pot(victim, stall_ns, AttrSource::FaultStall);
        if running_here {
            self.schedule_boundary(cpu);
        }
    }

    fn arm_noise(&mut self, s: usize) {
        let interval = {
            let stream = &mut self.noise_streams[s];
            let src = &self.params.noise.sources[stream.source];
            stream.rng.exp(src.mean_interval as f64)
        };
        self.queue.push(
            self.now.saturating_add(from_ns_f64(interval)),
            EventKind::NoiseArrival { src: s as u32 },
        );
    }

    fn handle_noise_arrival(&mut self, s: usize) {
        self.counters.noise_events += 1;
        let (cpu, dur_ns) = {
            let stream = &mut self.noise_streams[s];
            let src = &self.params.noise.sources[stream.source];
            let dur = stream
                .rng
                .lognormal(src.median_duration as f64, src.duration_sigma);
            let cpu = match src.placement {
                NoisePlacement::PerCpu => {
                    // Linux-style wake placement: most per-CPU kernel
                    // housekeeping (softirq, unbound kworkers) can run on
                    // an idle SMT sibling instead of preempting the home
                    // CPU — the mechanism behind the paper's ST
                    // configuration "absorbing" OS noise. CPU-bound
                    // kernel work (the remaining fraction) must preempt.
                    let home = stream.cpu.unwrap();
                    if self.cpus[home].load() == 0 {
                        home
                    } else if stream.rng.chance(self.params.noise.sibling_absorb_prob) {
                        self.machine
                            .siblings_of(HwThreadId(home))
                            .into_iter()
                            .map(|h| h.0)
                            .find(|&s| self.cpus[s].load() == 0)
                            .unwrap_or(home)
                    } else {
                        home
                    }
                }
                NoisePlacement::RandomCpu => stream.rng.index(self.cpus.len()),
                NoisePlacement::LeastLoaded => {
                    // Wake placement is locality-biased: with some
                    // probability the daemon wakes *affine* to its
                    // previous CPU (uniformly random from the node's
                    // perspective) and searches like Linux's
                    // select_idle_sibling: the previous CPU itself, its
                    // SMT siblings, then the NUMA domain; if the whole
                    // local domain is busy, the slow path usually finds a
                    // remote idle CPU, otherwise the daemon preempts.
                    // Consequence: a fully packed socket (MT placement,
                    // or using nearly all cores) gets hit, while spare
                    // siblings/cores absorb the same wakes.
                    if stream.rng.chance(self.params.noise.daemon_local_wake_prob) {
                        let prev = stream.rng.index(self.cpus.len());
                        if self.cpus[prev].load() == 0 {
                            prev
                        } else {
                            let sib = self
                                .machine
                                .siblings_of(HwThreadId(prev))
                                .into_iter()
                                .map(|h| h.0)
                                .find(|&s| self.cpus[s].load() == 0);
                            let local = sib.or_else(|| {
                                self.machine
                                    .hw_threads_of_numa(self.machine.numa_of(HwThreadId(prev)))
                                    .into_iter()
                                    .map(|h| h.0)
                                    .find(|&s| self.cpus[s].load() == 0)
                            });
                            match local {
                                Some(c) => c,
                                None if stream
                                    .rng
                                    .chance(self.params.noise.cross_llc_escape_prob) =>
                                {
                                    Self::least_loaded_cpu(
                                        &mut stream.rng,
                                        &self.cpus,
                                        &self.machine,
                                        self.reference,
                                    )
                                }
                                None => prev,
                            }
                        }
                    } else {
                        Self::least_loaded_cpu(&mut stream.rng, &self.cpus, &self.machine, self.reference)
                    }
                }
            };
            (cpu, dur)
        };
        // A hotplugged-off CPU takes no interrupts/kernel work: redirect.
        let cpu = if self.cpus[cpu].offline {
            Self::least_loaded_cpu(&mut self.rng_place, &self.cpus, &self.machine, self.reference)
        } else {
            cpu
        };
        self.spawn_kernel(cpu, dur_ns);
        self.arm_noise(s);
    }

    fn handle_boundary(&mut self, cpu: usize, token: u64) {
        if token != self.cpus[cpu].token {
            return; // stale
        }
        self.touch(cpu);
        let Some(tid) = self.cpus[cpu].running else {
            return;
        };
        let ti = tid.0 as usize;
        // Completed timed micro?
        let mut finished_atomic: Option<ObjId> = None;
        if let Some(cur) = &self.tasks[ti].current {
            let rem = match cur {
                Timed::Cycles { rem, .. }
                | Timed::Ns { rem }
                | Timed::Bytes { rem }
                | Timed::AtomicNs { rem, .. } => *rem,
            };
            if rem <= 0.0 && self.tasks[ti].pending_overhead_ns <= 0.0 {
                if let Timed::AtomicNs { obj, .. } = cur {
                    finished_atomic = Some(*obj);
                }
                self.tasks[ti].current = None;
            }
        }
        if let Some(obj) = finished_atomic {
            self.atomic_done(obj);
        }
        // Quantum rotation.
        let rotate = self.tasks[ti].kind == TaskKind::User
            && !self.cpus[cpu].uq.is_empty()
            && self.now >= self.cpus[cpu].quantum_end;
        if rotate {
            self.set_running(cpu, None);
            self.cpus[cpu].uq.push_back(tid);
            self.attr_set_queued(tid);
        }
        self.commit(cpu);
    }

    fn handle_tick(&mut self, cpu: usize, token: u64) {
        if token != self.cpus[cpu].tick_token {
            return;
        }
        if let Some(tid) = self.cpus[cpu].running {
            self.counters.ticks += 1;
            let waiting = matches!(self.tasks[tid.0 as usize].state, TaskState::Waiting(_));
            if !waiting {
                self.touch(cpu);
                let cost = self.params.sched.tick_cost as f64;
                self.tasks[tid.0 as usize].pending_overhead_ns += cost;
                self.attr_pot(tid, cost, AttrSource::TimerTick);
                self.schedule_boundary(cpu);
            }
            self.queue.push(
                self.now + self.params.sched.tick_period,
                EventKind::TimerTick { cpu, token },
            );
        }
    }

    fn handle_freq_reeval(&mut self, socket: usize) {
        let active = self.sockets[socket].active_cores;
        // Pull the needed scalars out of the clock spec up front instead
        // of cloning it (the spec owns its turbo-bin table; cloning it on
        // every re-evaluation was pure allocation churn). `sustainable`
        // is computed once and used for both the retarget and the
        // headroom test — the spec is immutable in between, so the value
        // is the same one the two original calls produced.
        let sustainable = self.machine.clock.sustainable_ghz(active.max(1));
        // Track the clean (pulse-free, cap-free) trajectory for the
        // attribution ledger. Updated on every re-evaluation — the same
        // governor lag as the applied frequency — and nowhere else, so it
        // equals `applied_ghz` exactly whenever no pulse/cap is in force.
        self.sockets[socket].clean_ghz = sustainable;
        let base_ghz = self.machine.clock.base_ghz;
        let all_core = self
            .machine
            .clock
            .turbo_bins
            .last()
            .copied()
            .unwrap_or(self.machine.clock.max_ghz);
        let mut target = sustainable;
        if self.sockets[socket].pulse_active {
            target *= 1.0 - self.params.freq.pulse_depth;
            target = target.max(base_ghz * 0.9);
        }
        if let Some(cap) = self.sockets[socket].cap_ghz {
            // Thermal-capping fault: hard ceiling, below any turbo bin.
            target = target.min(cap);
        }
        if (target - self.sockets[socket].applied_ghz).abs() > 1e-9 {
            self.counters.freq_transitions += 1;
            // Stamp the retarget with the socket index: a socket-wide
            // event has no single core, and the socket is what Perfetto
            // users correlate against the counter tracks.
            self.trace_global(InstantKind::FreqRetarget, socket as u32);
            // Reprice everything busy on this socket. The optimized path
            // walks the precomputed per-socket CPU list (ascending, the
            // same order the reference scan over all CPUs visits) into a
            // reused scratch buffer; the reference path re-filters the
            // full CPU range through the spec lookups every time.
            let mut cpus = std::mem::take(&mut self.scratch_cpus);
            cpus.clear();
            if self.reference {
                cpus.extend((0..self.cpus.len()).filter(|&c| {
                    self.socket_of_cpu(c) == socket && self.cpus[c].running.is_some()
                }));
            } else {
                cpus.extend(
                    self.socket_cpus[socket]
                        .iter()
                        .copied()
                        .filter(|&c| self.cpus[c].running.is_some()),
                );
            }
            for &c in &cpus {
                self.touch(c);
            }
            self.sockets[socket].applied_ghz = target;
            for &c in &cpus {
                self.schedule_boundary(c);
            }
            cpus.clear();
            self.scratch_cpus = cpus;
        }
        // Arm or disarm the pulse process based on turbo headroom.
        let headroom = sustainable - all_core;
        let unstable = active > 0 && headroom > self.params.freq.stable_headroom_ghz;
        if unstable && !self.sockets[socket].pulse_armed {
            self.sockets[socket].pulse_armed = true;
            self.sockets[socket].pulse_token += 1;
            let token = self.sockets[socket].pulse_token;
            let dt = self.sockets[socket]
                .rng
                .exp(self.params.freq.pulse_mean_interval as f64);
            self.queue.push(
                self.now.saturating_add(from_ns_f64(dt)),
                EventKind::FreqPulse { socket, token },
            );
        } else if !unstable && self.sockets[socket].pulse_armed {
            self.sockets[socket].pulse_armed = false;
            self.sockets[socket].pulse_token += 1;
            if self.sockets[socket].pulse_active {
                self.sockets[socket].pulse_active = false;
                self.queue.push(self.now, EventKind::FreqReeval { socket });
            }
        }
    }

    fn handle_freq_pulse(&mut self, socket: usize, token: u64) {
        if token != self.sockets[socket].pulse_token {
            return;
        }
        let sock = &mut self.sockets[socket];
        let dt = if sock.pulse_active {
            // Pulse ends; next pulse after an interval.
            sock.pulse_active = false;
            sock.rng.exp(self.params.freq.pulse_mean_interval as f64)
        } else {
            // Pulse begins; ends after its duration.
            sock.pulse_active = true;
            sock.rng.exp(self.params.freq.pulse_mean_duration as f64)
        };
        self.queue.push(
            self.now.saturating_add(from_ns_f64(dt)),
            EventKind::FreqPulse { socket, token },
        );
        self.handle_freq_reeval(socket);
    }

    fn handle_freq_sample(&mut self) {
        let Some(cfg) = self.logger else {
            return;
        };
        let idle_ghz = (self.machine.clock.base_ghz * 0.6) as f32;
        let core_ghz: Vec<f32> = (0..self.machine.n_cores())
            .map(|core| {
                if self.core_busy[core] > 0 {
                    let socket = if self.reference {
                        self.machine
                            .socket_of_numa(
                                self.machine.numa_of_core(ompvar_topology::CoreId(core)),
                            )
                            .0
                    } else {
                        self.core_socket[core] as usize
                    };
                    self.sockets[socket].applied_ghz as f32
                } else {
                    idle_ghz
                }
            })
            .collect();
        self.freq_samples.push(FreqSample {
            time: self.now,
            core_ghz,
        });
        if let Some(cpu) = cfg.cpu {
            if cfg.cost > 0 && !self.cpus[cpu].offline {
                self.spawn_kernel(cpu, cfg.cost as f64);
            }
        }
        self.queue.push(self.now + cfg.period, EventKind::FreqSample);
    }

    /// Run the simulation until all user tasks finish or `limit` virtual
    /// time is reached.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] — the event queue drained with user tasks
    ///   unfinished, or the limit tripped while every unfinished task was
    ///   spin-waiting (nothing left can release a spin-waiter); the error
    ///   names each blocked task and the barrier/lock it waits on.
    /// * [`SimError::TimeLimitExceeded`] — the limit tripped with tasks
    ///   still making progress; carries the partial report.
    /// * [`SimError::EventBudgetExceeded`] — see
    ///   [`Simulator::set_event_budget`].
    /// * [`SimError::ObjectTypeMismatch`] — a malformed program addressed
    ///   a sync object of the wrong kind.
    /// * [`SimError::InvalidParams`] — structurally invalid parameters,
    ///   rejected before any event runs. A zero `sched.tick_period`
    ///   would re-fire the scheduler tick at the same instant forever,
    ///   livelocking both engine paths at time 0, so it is refused here.
    pub fn run(mut self, limit: Time) -> Result<SimReport, SimError> {
        if self.params.sched.tick_period == 0 {
            return Err(SimError::InvalidParams {
                param: "sched.tick_period",
                why: "must be positive (a zero period livelocks the engine at time 0)",
            });
        }
        self.start();
        if let Some(err) = self.fatal.take() {
            return Err(err);
        }
        while self.users_remaining > 0 {
            if !self.reference {
                self.fast_forward_idle(limit);
            }
            let Some((t, ev)) = self.queue.pop() else {
                return Err(SimError::Deadlock {
                    time: self.now,
                    blocked: self.blocked_tasks(),
                });
            };
            if t > limit {
                return Err(self.limit_error(limit));
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.counters.events += 1;
            if let Some(budget) = self.event_budget {
                if self.counters.events > budget {
                    let partial = Box::new(self.make_report());
                    return Err(SimError::EventBudgetExceeded { budget, partial });
                }
            }
            match ev {
                EventKind::CpuBoundary { cpu, token } => self.handle_boundary(cpu, token),
                EventKind::NoiseArrival { src } => self.handle_noise_arrival(src as usize),
                EventKind::TimerTick { cpu, token } => self.handle_tick(cpu, token),
                EventKind::LoadBalance => {
                    self.load_balance();
                    self.queue.push(
                        self.now + self.params.sched.balance_interval,
                        EventKind::LoadBalance,
                    );
                }
                EventKind::FreqReeval { socket } => self.handle_freq_reeval(socket),
                EventKind::FreqPulse { socket, token } => self.handle_freq_pulse(socket, token),
                EventKind::FreqSample => self.handle_freq_sample(),
                EventKind::FaultStart { idx } => self.handle_fault_start(idx as usize),
                EventKind::FaultEnd { idx } => self.handle_fault_end(idx as usize),
                EventKind::FaultStormTick { idx } => self.handle_fault_storm_tick(idx as usize),
            }
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
        }
        Ok(self.make_report())
    }

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
    fn fast_forward_idle(&mut self, limit: Time) {
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
            if t0 > limit {
                return;
            }
            if period == 0 {
                return;
            }
            if let Some(b) = self.event_budget {
                if self.counters.events >= b {
                    // The head event itself will trip the budget; let the
                    // main loop pop it and take the error path.
                    return;
                }
            }
            // How many events beyond the head can be absorbed?
            let by_second = match self.queue.second_time() {
                // Event i ≥ 2 must pop strictly before the next other
                // event: t0 + e*period ≤ second - 1.
                Some(second) => (second.saturating_sub(1).saturating_sub(t0)) / period,
                None => u64::MAX,
            };
            let by_limit = (limit - t0) / period;
            let mut extra = by_second.min(by_limit);
            if let Some(b) = self.event_budget {
                // Absorb at most up to the budget line; the first event
                // past it must be popped live so the error fires with the
                // counters in the unbatched state.
                extra = extra.min(b - self.counters.events - 1);
            }
            let k = extra + 1;
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

    /// Build the report for the current state (consuming markers/samples).
    fn make_report(&mut self) -> SimReport {
        let attribution = self.harvest_attribution();
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

    /// Harvest the attribution ledger into the report form (consuming it,
    /// like the trace buffer). Open intervals — a task still spin-waiting
    /// on its CPU, or still queued — are folded in read-only, so
    /// harvesting a partial run (time limit, event budget) perturbs no
    /// engine state.
    fn harvest_attribution(&mut self) -> Option<RunAttribution> {
        let mut a = self.attr.take()?;
        // Spin time since the last touch of a still-waiting task has not
        // been booked yet: fold it into the open episode.
        for c in &self.cpus {
            if let Some(tid) = c.running {
                if matches!(self.tasks[tid.0 as usize].state, TaskState::Waiting(_)) {
                    if let Some(pt) = a.per_task.get_mut(tid.0 as usize) {
                        pt.wait_acc += self.now.saturating_sub(c.since) as f64;
                    }
                }
            }
        }
        let noise_cum = a.noise_cum;
        let mut tail = [0.0f64; N_SOURCES];
        let mut threads: Vec<ThreadAttribution> = Vec::with_capacity(self.user_tasks.len());
        for &tid in &self.user_tasks {
            let rank = self.tasks[tid.0 as usize].rank;
            let Some(pt) = a.per_task.get_mut(tid.0 as usize) else { continue };
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
                let q = self.now.saturating_sub(from) as f64;
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
                a.totals[i] += w;
            }
            a.push_sample(self.now);
        }
        Some(RunAttribution {
            threads,
            samples: std::mem::take(&mut a.samples),
        })
    }

    /// Classify a tripped time limit: if every unfinished user task is
    /// spin-waiting, nothing can ever release it (spin-waiters are only
    /// woken by other user tasks) — that is a deadlock kept "alive" by
    /// background events. Otherwise the run was genuinely still working.
    fn limit_error(&mut self, limit: Time) -> SimError {
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
    fn blocked_tasks(&self) -> Vec<BlockedTask> {
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

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
//!
//! # Components
//!
//! This file holds the core state every mechanism works on ([`Simulator`]
//! and its per-CPU / per-socket / per-domain records), the construction
//! API and the main loop. Each mechanism is an `impl Simulator` block (or
//! free functions) in a file of its own, statically dispatched:
//!
//! * `topo` — where a hardware thread sits (owns the spec and the flat
//!   caches built from it; built once per machine, [`Topo`], and cloned
//!   into each run by [`Simulator::on`]);
//! * `place` — which CPU a task or a noise arrival goes to (pure
//!   functions over a random stream, the run queues and the topology);
//! * `sched` — rates, progress accounting (`touch`), boundary events,
//!   run queues, preemption, load balancing and migration;
//! * `exec` — the op interpreter: programs → micro-ops → sync objects;
//! * `fast_forward` — absorbing idle chains of no-op ticks and balancer
//!   passes in O(1) heap operations, ahead of every pop of the main loop;
//! * `periodic` — absorbing whole periods of a loop whose team state
//!   recurs: checkpoints at rank 0's `LoopEnd`, an exact relative
//!   snapshot, and a jump over as many periods as fit before the next
//!   far-tier event, between two events of the main loop;
//! * `noise`, `freq`, `fault` — the three sources of interference: OS
//!   noise arrivals, DVFS (governor, droop pulses, the logger), injected
//!   faults;
//! * `attr` — the causal attribution ledger, driven by `sched` / `exec`;
//! * `report` — trace recording and everything `run` returns.
//!
//! There is one engine path. Each of its optimizations is held to a
//! referent that ships nowhere: the topology caches to `MachineSpec`'s
//! own lookups, `place::least_loaded` to a candidate-`Vec` model,
//! `Simulator::sibling_busy`'s counter to a sibling scan (a debug
//! assertion), the event queue to a sorted-map model, and the idle and
//! periodic fast-forwards to the same run with both switched off (a
//! switch that exists in test builds only, in `referent`).

mod attr;
mod exec;
mod fast_forward;
mod fault;
mod freq;
mod noise;
mod periodic;
mod place;
#[cfg(test)]
mod referent;
mod report;
mod sched;
mod topo;

use self::attr::AttrState;
pub use self::topo::Topo;
use crate::error::SimError;
use crate::events::{EventKind, EventQueue};
use crate::fault::{Fault, FaultEvent, FaultPlan};
use crate::params::{NoisePlacement, SimParams};
use crate::rng::Rng;
use crate::sync::{AtomicObj, BarrierObj, LockObj, LoopObj, LoopSpec, SingleObj, SyncObj, TaskPoolObj};
use crate::task::{ObjId, Program, Task, TaskId, TaskKind};
use crate::time::Time;
use crate::trace::{Counters, FreqSample, MarkerRecord, SimReport};
use ompvar_obs::{EventKind as TraceKind, SpanKind, TraceEvent};
use ompvar_topology::{MachineSpec, Place};
use std::collections::VecDeque;

/// Per-hardware-thread scheduler state; `default()` is an idle,
/// online CPU.
#[derive(Debug, Default)]
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
    #[inline]
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
    /// The machine and every topology lookup.
    topo: Topo,
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
    /// Causal time-attribution ledger; inert unless attribution is
    /// enabled. Like tracing, strictly observational: virtual time is
    /// bit-identical with attribution on or off.
    attr: AttrState,
    /// Scratch buffer reused by per-event CPU collections (bandwidth
    /// repricing, frequency re-evaluation, fault storms). Take/put-back
    /// discipline: `std::mem::take` it, use it, clear and restore it, so
    /// accidental re-entry degrades to a fresh allocation rather than
    /// corruption.
    scratch_cpus: Vec<usize>,
    /// The periodic fast-forward's checkpoints and armed snapshot.
    periodic: periodic::Periodic,
}

impl Simulator {
    /// Create a simulator for `machine` with model parameters `params`,
    /// fully determined by `seed`.
    pub fn new(machine: MachineSpec, params: SimParams, seed: u64) -> Self {
        Simulator::on(Topo::new(machine), params, seed)
    }

    /// [`Simulator::new`] on a machine whose topology caches are already
    /// built: a caller that simulates one machine many times builds its
    /// [`Topo`] once and hands each run a clone.
    pub fn on(topo: Topo, params: SimParams, seed: u64) -> Self {
        let root = Rng::new(seed);
        let machine = topo.spec();
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
        // Boundaries (the lane): one live boundary per CPU plus its stale
        // predecessors.
        // Far: one pending arrival per noise stream, a tick per busy CPU,
        // and the per-socket / global services.
        let queue = EventQueue::with_capacity(
            2 * n_cpu,
            noise_streams.len() + n_cpu + 2 * machine.sockets + 8,
        );
        Simulator {
            scratch_cpus: Vec::new(),
            periodic: periodic::Periodic::default(),
            cpus: (0..n_cpu).map(|_| Cpu::default()).collect(),
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
            attr: AttrState::default(),
            topo,
            params,
            now: 0,
            queue,
            tasks: Vec::new(),
            objs: Vec::new(),
        }
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineSpec {
        &self.topo.spec
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

    /// Turn on span/instant tracing. Tracing records construct timelines
    /// (region, barrier, workshare, …) into the report's [`Trace`] without
    /// perturbing virtual time: traced and untraced runs of the same seed
    /// produce identical timing.
    pub fn enable_tracing(&mut self) {
        assert!(!self.started, "tracing must be enabled before run()");
        self.trace = Some(Vec::new());
    }

    /// Turn on the causal attribution ledger. Like tracing, must be
    /// enabled before `run()` and does not perturb virtual time.
    pub fn enable_attribution(&mut self) {
        assert!(!self.started, "attribution must be enabled before run()");
        self.attr.on = true;
    }

    // ------------------------------------------------------------------
    // Start-up and the main loop
    // ------------------------------------------------------------------

    fn start(&mut self) {
        assert!(!self.started);
        self.started = true;
        self.attr.start(self.tasks.len());
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
    ///   livelocking the engine at time 0, so it is refused here.
    pub fn run(mut self, limit: Time) -> Result<SimReport, SimError> {
        let outcome = self.run_to(limit);
        #[cfg(test)]
        referent::record_seq(self.queue.seq());
        outcome
    }

    /// [`Simulator::run`]'s loop.
    fn run_to(&mut self, limit: Time) -> Result<SimReport, SimError> {
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
            if self.periodic.due {
                self.periodic_checkpoint(limit);
            }
            self.fast_forward_idle(limit);
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
}

//! The simulated backend: lowers a [`RegionSpec`] onto the
//! `ompvar-sim` discrete-event engine and runs it on a modeled machine.
//!
//! All ranks execute the same construct list, so lowering walks the tree
//! twice with identical traversal order: once to allocate the shared sync
//! objects (one barrier per barrier construct, one lock per critical,
//! etc.), then once per rank to emit that rank's op program, consuming the
//! allocation sequence by index.

use crate::config::{RegionResult, RtConfig};
use crate::error::RtError;
use crate::region::{
    delay_cycles, reduction_aggregate, Clause, Construct, RegionSpec, Schedule,
};
use ompvar_sim::engine::Simulator;
use ompvar_sim::fault::FaultPlan;
use ompvar_sim::params::SimParams;
use ompvar_sim::sync::{LoopSchedule, LoopSpec};
use ompvar_sim::task::{CorunClass, ObjId, Op, Program, TaskId};
use ompvar_sim::trace::{ObjEffects, SemanticEffects, SimReport};
use ompvar_sim::time::{Time, SEC, US};
use ompvar_topology::{assign_places, MachineSpec, ProcBind};
use std::collections::{BTreeMap, BTreeSet};

/// Frequency-logger configuration for simulated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqLoggerCfg {
    /// Hardware thread hosting the logger (costs CPU there), or `None`
    /// for a free observer.
    pub cpu: Option<usize>,
    /// Sampling period.
    pub period: Time,
    /// CPU cost per sample.
    pub cost: Time,
}

impl FreqLoggerCfg {
    /// The paper's setup: a Python logger on a dedicated spare core,
    /// sampling every 50 ms at ~60 µs of CPU per sweep.
    pub fn on_spare_core(cpu: usize) -> Self {
        FreqLoggerCfg {
            cpu: Some(cpu),
            period: 50_000 * US,
            cost: 60 * US,
        }
    }
}

/// Simulated OpenMP-style runtime.
#[derive(Debug, Clone)]
pub struct SimRuntime {
    /// Machine model to run on.
    pub machine: MachineSpec,
    /// Simulator parameters (noise, DVFS, scheduler, sync costs).
    pub params: SimParams,
    /// Team affinity configuration.
    pub config: RtConfig,
    /// Optional frequency logger.
    pub freq_logger: Option<FreqLoggerCfg>,
    /// Virtual-time budget for one region run.
    pub time_limit: Time,
    /// Fault injections delivered during every run (empty: none).
    pub faults: FaultPlan,
    /// Record construct span timelines into [`RegionResult::trace`].
    /// Tracing never perturbs virtual time: traced and untraced runs of
    /// the same seed are time-identical.
    pub tracing: bool,
    /// Charge every nanosecond of each thread's wall time to a typed
    /// cause ([`RegionResult::attribution`]). Like tracing, attribution
    /// never perturbs virtual time: attributed and plain runs of the
    /// same seed are time-identical.
    pub attribution: bool,
    /// Route runs through the engine's *reference path*: the
    /// pre-optimization binary-heap event queue and naive topology
    /// lookups. Slower, independently implemented, and required to be
    /// observably identical to the optimized path — the yardstick for
    /// qcheck oracle #11.
    pub reference_engine: bool,
}

impl SimRuntime {
    /// Runtime for `machine` with its calibrated parameters.
    pub fn new(machine: MachineSpec, config: RtConfig) -> Self {
        let params = SimParams::for_machine(&machine);
        SimRuntime {
            machine,
            params,
            config,
            freq_logger: None,
            time_limit: 3_000 * SEC,
            faults: FaultPlan::new(),
            tracing: false,
            attribution: false,
            reference_engine: false,
        }
    }

    /// Override the simulator parameters.
    pub fn with_params(mut self, params: SimParams) -> Self {
        self.params = params;
        self
    }

    /// Enable the frequency logger.
    pub fn with_freq_logger(mut self, cfg: FreqLoggerCfg) -> Self {
        self.freq_logger = Some(cfg);
        self
    }

    /// Inject `faults` into every run of this runtime.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the virtual-time budget for one region run.
    pub fn with_time_limit(mut self, limit: Time) -> Self {
        self.time_limit = limit;
        self
    }

    /// Enable or disable span tracing (see [`SimRuntime::tracing`]).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enable or disable causal time attribution (see
    /// [`SimRuntime::attribution`]).
    pub fn with_attribution(mut self, on: bool) -> Self {
        self.attribution = on;
        self
    }

    /// Route runs through the engine's reference path (see
    /// [`SimRuntime::reference_engine`]).
    pub fn with_reference_engine(mut self, on: bool) -> Self {
        self.reference_engine = on;
        self
    }

    /// Topology contention multiplier for a team bound as configured.
    fn span_factor(&self, region: &RegionSpec) -> f64 {
        let cross = self.params.sync.cross_socket_factor;
        if self.config.bind == ProcBind::False {
            // Unbound threads roam the whole node: worst case.
            return cross;
        }
        let assignment = assign_places(
            &self.machine,
            &self.config.places,
            self.config.bind,
            region.n_threads,
        );
        let hws: Vec<_> = assignment
            .iter_bound()
            .map(|(_, p)| p.first())
            .collect();
        if self.machine.sockets_touched(&hws) > 1 {
            cross
        } else if self.machine.numas_touched(&hws) > 1 {
            (1.0 + cross) / 2.0
        } else {
            1.0
        }
    }

    /// Run `region`, deterministically from `seed`.
    ///
    /// Returns [`RtError::Sim`] when the engine stops early: a deadlock
    /// (with per-task blocked-on diagnostics), the virtual-time budget
    /// in [`SimRuntime::time_limit`], or a malformed program.
    pub fn run(&self, region: &RegionSpec, seed: u64) -> Result<RegionResult, RtError> {
        let (sim, allocs, marker_pairs, master) = self.prepare(region, seed)?;
        let mut report = sim.run(self.time_limit).map_err(RtError::Sim)?;
        let trace = report.trace.take();
        let attribution = report.attribution.take();
        let mut result = RegionResult {
            wall_us: report.final_time as f64 / 1e3,
            freq_samples: report.freq_samples.clone(),
            counters: Some(report.counters),
            thread_stats: report.task_stats.iter().map(|&(_, s)| s).collect(),
            effects: harvest_effects(&allocs, &report),
            trace,
            attribution,
            final_values: eval_values(region),
            ..Default::default()
        };
        for k in marker_pairs {
            let us: Vec<f64> = report
                .intervals(master, 2 * k, 2 * k + 1)
                .into_iter()
                .map(|t| t as f64 / 1e3)
                .collect();
            result.intervals_us.insert(k, us);
        }
        Ok(result)
    }

    /// Run `region` like [`SimRuntime::run`], but return the engine's raw
    /// [`SimReport`] instead of folding it into a [`RegionResult`].
    ///
    /// This is the surface the determinism golden suite digests: every
    /// field of the report (final time, markers, counters, per-task
    /// stats, object effects, frequency samples, trace) must be
    /// bit-identical across replays and across the optimized/reference
    /// engine paths.
    ///
    /// # Errors
    ///
    /// Same contract as [`SimRuntime::run`].
    pub fn run_report(&self, region: &RegionSpec, seed: u64) -> Result<SimReport, RtError> {
        let (sim, _, _, _) = self.prepare(region, seed)?;
        sim.run(self.time_limit).map_err(RtError::Sim)
    }

    /// Validate, lower, and configure one run: the shared front half of
    /// [`SimRuntime::run`] and [`SimRuntime::run_report`].
    #[allow(clippy::type_complexity)]
    fn prepare(
        &self,
        region: &RegionSpec,
        seed: u64,
    ) -> Result<(Simulator, Vec<Alloc>, BTreeSet<u32>, TaskId), RtError> {
        region.validate().map_err(RtError::InvalidRegion)?;
        let mut sim = Simulator::new(self.machine.clone(), self.params.clone(), seed);
        let span = self.span_factor(region);
        let mut clauses = BTreeMap::new();
        for d in &region.vars {
            clauses.entry(d.id).or_insert(d.clause);
        }
        let mut lower = Lowerer {
            sim: &mut sim,
            machine: &self.machine,
            n_threads: region.n_threads,
            span,
            allocs: Vec::new(),
            next: 0,
            marker_pairs: BTreeSet::new(),
            named_locks: BTreeMap::new(),
            combine_ns: 0.0,
            clauses,
        };
        lower.combine_ns = self.params.sync.reduction_combine_ns;
        lower.allocate(&region.constructs);
        let marker_pairs = lower.marker_pairs.clone();
        let allocs = lower.allocs.clone();

        let assignment = assign_places(
            &self.machine,
            &self.config.places,
            self.config.bind,
            region.n_threads,
        );
        let mut master: Option<TaskId> = None;
        for rank in 0..region.n_threads {
            lower.next = 0;
            let mut ops = Vec::new();
            lower.emit(&region.constructs, rank, &mut ops);
            let program = Program::new(ops);
            let pin = assignment.place_of(rank).cloned();
            let tid = lower.sim.spawn_user(rank, program, pin);
            if rank == 0 {
                master = Some(tid);
            }
        }
        drop(lower);
        if let Some(cfg) = self.freq_logger {
            sim.enable_freq_logger(cfg.cpu, cfg.period, cfg.cost);
        }
        if !self.faults.is_empty() {
            sim.inject_faults(&self.faults);
        }
        if self.tracing {
            sim.enable_tracing();
        }
        if self.attribution {
            sim.enable_attribution();
        }
        if self.reference_engine {
            sim.use_reference_engine();
        }
        let master = master.expect("team is non-empty");
        Ok((sim, allocs, marker_pairs, master))
    }
}

/// Fold the engine's per-object effect counters into a
/// [`SemanticEffects`] summary, using the allocation sequence to recover
/// which construct each object served (the same lock object means
/// "critical section" under [`Alloc::Lock`] but "reduction combine" under
/// [`Alloc::LockWithBarrier`]).
fn harvest_effects(allocs: &[Alloc], report: &SimReport) -> SemanticEffects {
    let mut fx = SemanticEffects::default();
    let get = |id: ObjId| report.obj_effects[id.0 as usize];
    let barrier = |fx: &mut SemanticEffects, id: ObjId| {
        let ObjEffects::Barrier { arrivals } = get(id) else {
            unreachable!("allocation table out of sync: {id:?} is not a barrier");
        };
        fx.barrier_arrivals += arrivals;
    };
    for a in allocs {
        match *a {
            Alloc::None => {}
            Alloc::Barrier(b) => barrier(&mut fx, b),
            Alloc::Lock(l) => {
                let ObjEffects::Lock { entries } = get(l) else {
                    unreachable!("allocation table out of sync: {l:?} is not a lock");
                };
                fx.lock_entries += entries;
            }
            Alloc::Atomic(a) => {
                let ObjEffects::Atomic { ops } = get(a) else {
                    unreachable!("allocation table out of sync: {a:?} is not an atomic");
                };
                fx.atomic_ops += ops;
            }
            Alloc::LoopWithBarrier(l, b) => {
                let ObjEffects::Loop {
                    iters,
                    passes,
                    ordered_done,
                } = get(l)
                else {
                    unreachable!("allocation table out of sync: {l:?} is not a loop");
                };
                fx.loop_iters += iters;
                fx.loop_passes += passes;
                fx.ordered_entries += ordered_done;
                if let Some(b) = b {
                    barrier(&mut fx, b);
                }
            }
            Alloc::SingleWithBarrier(s, b) => {
                let ObjEffects::Single { entries, winners } = get(s) else {
                    unreachable!("allocation table out of sync: {s:?} is not a single");
                };
                fx.single_entries += entries;
                fx.single_winners += winners;
                barrier(&mut fx, b);
            }
            Alloc::LockWithBarrier(l, b) => {
                let ObjEffects::Lock { entries } = get(l) else {
                    unreachable!("allocation table out of sync: {l:?} is not a lock");
                };
                fx.reduction_combines += entries;
                barrier(&mut fx, b);
            }
            Alloc::RegionBarriers(entry, exit) => {
                barrier(&mut fx, entry);
                barrier(&mut fx, exit);
            }
            Alloc::PoolWithBarrier(p, b) => {
                let ObjEffects::TaskPool { spawned, executed } = get(p) else {
                    unreachable!("allocation table out of sync: {p:?} is not a pool");
                };
                fx.tasks_spawned += spawned;
                fx.tasks_executed += executed;
                barrier(&mut fx, b);
            }
            Alloc::NamedLock(l, first) => {
                // Later sites alias the first site's object; count once.
                if first {
                    let ObjEffects::Lock { entries } = get(l) else {
                        unreachable!("allocation table out of sync: {l:?} is not a lock");
                    };
                    fx.lock_entries += entries;
                }
            }
        }
    }
    fx
}

/// Objects allocated for one construct instance, in traversal order.
#[derive(Debug, Clone, Copy)]
enum Alloc {
    None,
    Barrier(ObjId),
    Lock(ObjId),
    Atomic(ObjId),
    LoopWithBarrier(ObjId, Option<ObjId>),
    SingleWithBarrier(ObjId, ObjId),
    LockWithBarrier(ObjId, ObjId),
    RegionBarriers(ObjId, ObjId),
    PoolWithBarrier(ObjId, ObjId),
    /// A named-lock scope. Equal lock ids share one object, so the flag
    /// marks the *first* allocation site per id — harvesting counts a
    /// shared object's entries once.
    NamedLock(ObjId, bool),
}

struct Lowerer<'a> {
    sim: &'a mut Simulator,
    machine: &'a MachineSpec,
    n_threads: usize,
    span: f64,
    allocs: Vec<Alloc>,
    next: usize,
    marker_pairs: BTreeSet<u32>,
    named_locks: BTreeMap<u32, ObjId>,
    combine_ns: f64,
    /// Data-sharing clause per declared variable (first declaration
    /// wins, matching `RegionSpec::var`).
    clauses: BTreeMap<u32, Clause>,
}

impl Lowerer<'_> {
    /// Pick the dynamic-loop batching factor: cap the number of grabs per
    /// thread per loop pass at ~256 so event counts stay tractable without
    /// distorting load balancing at realistic granularity.
    fn batch_for(&self, schedule: Schedule, total_iters: u64) -> u32 {
        match schedule {
            Schedule::Dynamic { chunk } => {
                let per_thread_chunks = total_iters / (self.n_threads as u64 * chunk).max(1);
                (per_thread_chunks / 256).clamp(1, 64) as u32
            }
            _ => 1,
        }
    }

    fn allocate(&mut self, cs: &[Construct]) {
        for c in cs {
            let alloc = match c {
                Construct::DelayUs(_)
                | Construct::Compute { .. }
                | Construct::StreamBytes(_)
                | Construct::Atomic
                | Construct::MarkBegin(_)
                | Construct::MarkEnd(_) => match c {
                    Construct::Atomic => Alloc::Atomic(self.sim.add_atomic(self.span)),
                    Construct::MarkBegin(k) => {
                        self.marker_pairs.insert(*k);
                        Alloc::None
                    }
                    _ => Alloc::None,
                },
                Construct::Barrier => {
                    Alloc::Barrier(self.sim.add_barrier(self.n_threads, self.span))
                }
                Construct::Critical { .. } => Alloc::Lock(self.sim.add_lock(self.span)),
                Construct::LockUnlock { .. } => Alloc::Lock(self.sim.add_lock(self.span)),
                Construct::Single { .. } => Alloc::SingleWithBarrier(
                    self.sim.add_single(self.n_threads),
                    self.sim.add_barrier(self.n_threads, self.span),
                ),
                Construct::Reduction { .. } => Alloc::LockWithBarrier(
                    self.sim.add_lock(self.span),
                    self.sim.add_barrier(self.n_threads, self.span),
                ),
                Construct::Tasks { master_only, .. } => {
                    // Pool + post-spawn barrier + final barrier: the
                    // allocation helper only carries two ids, so pack the
                    // two barriers as consecutive allocations.
                    let spawners = if *master_only { 1 } else { self.n_threads };
                    let pool = self.sim.add_task_pool(self.span, self.n_threads, spawners);
                    let after_spawn = self.sim.add_barrier(self.n_threads, self.span);
                    self.allocs.push(Alloc::PoolWithBarrier(pool, after_spawn));
                    let fin = self.sim.add_barrier(self.n_threads, self.span);
                    Alloc::Barrier(fin)
                }
                Construct::ParallelFor {
                    schedule,
                    total_iters,
                    body_us,
                    ordered_us,
                    nowait,
                } => {
                    let loop_sched = match schedule {
                        Schedule::Static { chunk } => LoopSchedule::Static { chunk: *chunk },
                        Schedule::Dynamic { chunk } => LoopSchedule::Dynamic { chunk: *chunk },
                        Schedule::Guided { min_chunk } => LoopSchedule::Guided {
                            min_chunk: *min_chunk,
                        },
                    };
                    let spec = LoopSpec {
                        schedule: loop_sched,
                        total_iters: *total_iters,
                        n_threads: self.n_threads,
                        body_cycles: delay_cycles(*body_us, self.machine.clock.max_ghz),
                        body_class: CorunClass::Latency,
                        ordered_section_ns: ordered_us.map(|us| us * 1e3),
                        batch: self.batch_for(*schedule, *total_iters),
                        span_factor: self.span,
                    };
                    let lp = self.sim.add_loop(spec);
                    let bar = if *nowait {
                        None
                    } else {
                        Some(self.sim.add_barrier(self.n_threads, self.span))
                    };
                    Alloc::LoopWithBarrier(lp, bar)
                }
                Construct::ParallelRegion { body } => {
                    let entry = self.sim.add_barrier(self.n_threads, self.span);
                    let exit = self.sim.add_barrier(self.n_threads, self.span);
                    self.allocs.push(Alloc::RegionBarriers(entry, exit));
                    self.allocate(body);
                    continue;
                }
                Construct::Locked { lock, body } => {
                    let (obj, first) = match self.named_locks.get(lock) {
                        Some(&o) => (o, false),
                        None => {
                            let o = self.sim.add_lock(self.span);
                            self.named_locks.insert(*lock, o);
                            (o, true)
                        }
                    };
                    self.allocs.push(Alloc::NamedLock(obj, first));
                    self.allocate(body);
                    continue;
                }
                Construct::Repeat { body, .. } => {
                    self.allocs.push(Alloc::None);
                    self.allocate(body);
                    continue;
                }
                Construct::VarRead { .. } => Alloc::None,
                Construct::VarWrite { var, .. } => {
                    // A shared write is an atomic RMW on the one cell;
                    // per-thread copies are plain stores with no shared
                    // object behind them.
                    if self.is_shared(*var) {
                        Alloc::Atomic(self.sim.add_atomic(self.span))
                    } else {
                        Alloc::None
                    }
                }
                Construct::ReductionFor {
                    schedule,
                    total_iters,
                    body_us,
                    ..
                } => {
                    // Worksharing loop + combine lock + implicit barrier:
                    // same two-slot packing as `Tasks`.
                    let loop_sched = match schedule {
                        Schedule::Static { chunk } => LoopSchedule::Static { chunk: *chunk },
                        Schedule::Dynamic { chunk } => LoopSchedule::Dynamic { chunk: *chunk },
                        Schedule::Guided { min_chunk } => LoopSchedule::Guided {
                            min_chunk: *min_chunk,
                        },
                    };
                    let spec = LoopSpec {
                        schedule: loop_sched,
                        total_iters: *total_iters,
                        n_threads: self.n_threads,
                        body_cycles: delay_cycles(*body_us, self.machine.clock.max_ghz),
                        body_class: CorunClass::Latency,
                        ordered_section_ns: None,
                        batch: self.batch_for(*schedule, *total_iters),
                        span_factor: self.span,
                    };
                    let lp = self.sim.add_loop(spec);
                    self.allocs.push(Alloc::LoopWithBarrier(lp, None));
                    Alloc::LockWithBarrier(
                        self.sim.add_lock(self.span),
                        self.sim.add_barrier(self.n_threads, self.span),
                    )
                }
            };
            self.allocs.push(alloc);
        }
    }

    fn emit(&mut self, cs: &[Construct], rank: usize, ops: &mut Vec<Op>) {
        let max_ghz = self.machine.clock.max_ghz;
        for c in cs {
            let alloc = self.allocs[self.next];
            self.next += 1;
            match c {
                Construct::DelayUs(us) => {
                    if *us > 0.0 {
                        ops.push(Op::Compute {
                            cycles: delay_cycles(*us, max_ghz),
                            class: CorunClass::Latency,
                        });
                    }
                }
                Construct::Compute { cycles, class } => {
                    ops.push(Op::Compute {
                        cycles: *cycles,
                        class: *class,
                    });
                }
                Construct::StreamBytes(b) => {
                    ops.push(Op::MemStream { bytes: *b });
                }
                Construct::Barrier => {
                    let Alloc::Barrier(b) = alloc else { unreachable!() };
                    ops.push(Op::Barrier { obj: b });
                }
                Construct::Critical { body_us } | Construct::LockUnlock { body_us } => {
                    let Alloc::Lock(l) = alloc else { unreachable!() };
                    ops.push(Op::LockAcquire { obj: l });
                    if *body_us > 0.0 {
                        ops.push(Op::Compute {
                            cycles: delay_cycles(*body_us, max_ghz),
                            class: CorunClass::Latency,
                        });
                    }
                    ops.push(Op::LockRelease { obj: l });
                }
                Construct::Atomic => {
                    let Alloc::Atomic(a) = alloc else { unreachable!() };
                    ops.push(Op::AtomicOp { obj: a });
                }
                Construct::Single { body_us } => {
                    let Alloc::SingleWithBarrier(s, b) = alloc else {
                        unreachable!()
                    };
                    ops.push(Op::Single {
                        obj: s,
                        body_cycles: delay_cycles(*body_us, max_ghz),
                    });
                    ops.push(Op::Barrier { obj: b });
                }
                Construct::Reduction { body_us } => {
                    let Alloc::LockWithBarrier(l, b) = alloc else {
                        unreachable!()
                    };
                    if *body_us > 0.0 {
                        ops.push(Op::Compute {
                            cycles: delay_cycles(*body_us, max_ghz),
                            class: CorunClass::Latency,
                        });
                    }
                    ops.push(Op::LockAcquire { obj: l });
                    ops.push(Op::Busy {
                        ns: self.combine_ns,
                    });
                    ops.push(Op::LockRelease { obj: l });
                    ops.push(Op::Barrier { obj: b });
                }
                Construct::ParallelFor { .. } => {
                    let Alloc::LoopWithBarrier(lp, bar) = alloc else {
                        unreachable!()
                    };
                    ops.push(Op::ForLoop { obj: lp });
                    if let Some(b) = bar {
                        ops.push(Op::Barrier { obj: b });
                    }
                }
                Construct::ParallelRegion { body } => {
                    let Alloc::RegionBarriers(entry, exit) = alloc else {
                        unreachable!()
                    };
                    ops.push(Op::Barrier { obj: entry });
                    self.emit(body, rank, ops);
                    ops.push(Op::Barrier { obj: exit });
                }
                Construct::Tasks {
                    per_spawner,
                    body_us,
                    master_only,
                } => {
                    // Two allocations were made for this construct: the
                    // pool + post-spawn barrier, then the final barrier.
                    let Alloc::PoolWithBarrier(pool, after_spawn) = alloc else {
                        unreachable!()
                    };
                    let fin = self.allocs[self.next];
                    self.next += 1;
                    let Alloc::Barrier(fin) = fin else { unreachable!() };
                    if !master_only || rank == 0 {
                        ops.push(Op::TaskSpawn {
                            obj: pool,
                            count: *per_spawner,
                            body_cycles: delay_cycles(*body_us, max_ghz),
                        });
                    }
                    // All spawns published before anyone drains: the
                    // post-spawn barrier is the scheduling point.
                    ops.push(Op::Barrier { obj: after_spawn });
                    ops.push(Op::TaskWait { obj: pool });
                    ops.push(Op::Barrier { obj: fin });
                }
                Construct::MarkBegin(k) => {
                    if rank == 0 {
                        ops.push(Op::Mark { marker: 2 * k });
                    }
                }
                Construct::MarkEnd(k) => {
                    if rank == 0 {
                        ops.push(Op::Mark { marker: 2 * k + 1 });
                    }
                }
                Construct::Locked { body, .. } => {
                    let Alloc::NamedLock(l, _) = alloc else { unreachable!() };
                    ops.push(Op::LockAcquire { obj: l });
                    self.emit(body, rank, ops);
                    ops.push(Op::LockRelease { obj: l });
                }
                Construct::Repeat { count, body } => {
                    ops.push(Op::LoopBegin { count: *count });
                    self.emit(body, rank, ops);
                    ops.push(Op::LoopEnd);
                }
                Construct::VarRead { .. } => {
                    // A register-width load: free at this model's
                    // resolution. Values are computed analytically (see
                    // `eval_values`), so no op is emitted.
                }
                Construct::VarWrite { .. } => {
                    // Shared writes serialize on the cell like any other
                    // atomic RMW; private stores are free.
                    if let Alloc::Atomic(a) = alloc {
                        ops.push(Op::AtomicOp { obj: a });
                    }
                }
                Construct::ReductionFor { .. } => {
                    let Alloc::LoopWithBarrier(lp, None) = alloc else {
                        unreachable!()
                    };
                    let combine = self.allocs[self.next];
                    self.next += 1;
                    let Alloc::LockWithBarrier(l, b) = combine else {
                        unreachable!()
                    };
                    ops.push(Op::ForLoop { obj: lp });
                    ops.push(Op::LockAcquire { obj: l });
                    ops.push(Op::Busy {
                        ns: self.combine_ns,
                    });
                    ops.push(Op::LockRelease { obj: l });
                    ops.push(Op::Barrier { obj: b });
                }
            }
        }
    }

    fn is_shared(&self, var: u32) -> bool {
        self.clauses.get(&var) == Some(&Clause::Shared)
    }
}

/// Final shared-variable values of `region`, computed by canonical
/// phase-order evaluation: constructs are walked once in program order,
/// each SPMD shared write applied once per team thread, each reduction
/// combined once with its statically known aggregate.
///
/// On analyzer-clean programs this equals what any real interleaving
/// produces — every conflict window holds only commutative `Add`s or a
/// single lock-protected `Set` site (see the `OMPV301` rules), and
/// windows themselves are ordered by team synchronizations — so both
/// backends report identical values and oracle #14 can compare them
/// bit-for-bit. On *racy* programs the evaluation is still deterministic
/// (it is purely static), which keeps sim-side experiments replayable;
/// such programs never reach the native backend.
fn eval_values(region: &RegionSpec) -> BTreeMap<u32, i64> {
    let mut shared: BTreeMap<u32, i64> = BTreeMap::new();
    for d in &region.vars {
        if d.clause == Clause::Shared && !shared.contains_key(&d.id) {
            shared.insert(d.id, d.initial());
        }
    }
    let n = region.n_threads as i64;
    eval_walk(&region.constructs, n, &mut shared);
    shared
}

fn eval_walk(cs: &[Construct], n: i64, shared: &mut BTreeMap<u32, i64>) {
    use crate::region::WriteOp;
    for c in cs {
        match c {
            Construct::VarWrite { var, op } => {
                // Private copies are discarded at region end and never
                // feed back into shared state, so only shared cells are
                // tracked.
                if let Some(cell) = shared.get_mut(var) {
                    *cell = match op {
                        WriteOp::Set(v) => *v,
                        WriteOp::Add(d) => cell.wrapping_add(d.wrapping_mul(n)),
                    };
                }
            }
            Construct::ReductionFor {
                var,
                red,
                total_iters,
                delta,
                ..
            } => {
                if let (Some(cell), Some(agg)) = (
                    shared.get(var).copied(),
                    reduction_aggregate(*red, *total_iters, *delta),
                ) {
                    shared.insert(*var, red.combine(cell, agg));
                }
            }
            Construct::Repeat { count, body } => {
                for _ in 0..*count {
                    eval_walk(body, n, shared);
                }
            }
            Construct::ParallelRegion { body } | Construct::Locked { body, .. } => {
                eval_walk(body, n, shared);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_topology::Places;

    fn small_runtime() -> SimRuntime {
        let machine = MachineSpec::vera();
        let config = RtConfig::pinned_close(Places::Threads(Some(8)));
        SimRuntime::new(machine, config).with_params(SimParams::sterile())
    }

    #[test]
    fn measured_region_produces_rep_times() {
        let rt = small_runtime();
        let region = RegionSpec::measured(8, 5, 10, vec![Construct::Barrier]);
        let res = rt.run(&region, 1).expect("region completes");
        assert_eq!(res.reps().len(), 5);
        assert!(res.reps().iter().all(|&r| r > 0.0));
        assert!(res.wall_us > 0.0);
    }

    #[test]
    fn sterile_runs_are_identical_and_stable() {
        let rt = small_runtime();
        let region = RegionSpec::measured(8, 6, 10, vec![Construct::Reduction { body_us: 0.1 }]);
        let a = rt.run(&region, 1).expect("region completes");
        let b = rt.run(&region, 2).expect("region completes");
        // With no noise, different seeds give identical results.
        assert_eq!(a.reps(), b.reps());
        // And repetitions are essentially constant.
        let reps = a.reps();
        let spread = reps.iter().cloned().fold(f64::MIN, f64::max)
            / reps.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1.01, "sterile spread {spread}");
    }

    #[test]
    fn reduction_costs_more_than_barrier() {
        let rt = small_runtime();
        let bar = RegionSpec::measured(8, 3, 20, vec![Construct::Barrier]);
        let red = RegionSpec::measured(8, 3, 20, vec![Construct::Reduction { body_us: 0.1 }]);
        let tb = rt.run(&bar, 1).expect("region completes").reps()[1];
        let tr = rt.run(&red, 1).expect("region completes").reps()[1];
        assert!(tr > tb, "reduction {tr} vs barrier {tb}");
    }

    #[test]
    fn schedbench_style_loop_runs() {
        let rt = small_runtime();
        let region = RegionSpec::measured(
            8,
            3,
            1,
            vec![Construct::ParallelFor {
                schedule: Schedule::Dynamic { chunk: 1 },
                total_iters: 8 * 128,
                body_us: 15.0,
                ordered_us: None,
                nowait: false,
            }],
        );
        let res = rt.run(&region, 7).expect("region completes");
        // 128 iters/thread × ~15.9 µs ≈ 2 ms per rep.
        for &r in res.reps() {
            assert!(r > 1_500.0 && r < 3_500.0, "rep {r} µs");
        }
    }

    #[test]
    fn unbound_config_still_completes() {
        let machine = MachineSpec::vera();
        let rt = SimRuntime::new(machine, RtConfig::unbound())
            .with_params(SimParams::sterile());
        let region = RegionSpec::measured(8, 3, 5, vec![Construct::Barrier]);
        let res = rt.run(&region, 3).expect("region completes");
        assert_eq!(res.reps().len(), 3);
    }

    #[test]
    fn freq_logger_collects_samples() {
        let machine = MachineSpec::vera();
        let config = RtConfig::pinned_close(Places::Threads(Some(8)));
        let rt = SimRuntime::new(machine, config)
            .with_params(SimParams::sterile())
            .with_freq_logger(FreqLoggerCfg {
                cpu: Some(31),
                period: 100 * US,
                cost: 0,
            });
        let region =
            RegionSpec::measured(8, 3, 3, vec![Construct::DelayUs(100.0), Construct::Barrier]);
        let res = rt.run(&region, 1).expect("region completes");
        assert!(!res.freq_samples.is_empty());
    }

    #[test]
    fn sim_values_match_canonical_evaluation() {
        use crate::region::{RedOp, VarDecl, WriteOp};
        let rt = small_runtime();
        let region = RegionSpec {
            n_threads: 8,
            vars: vec![
                VarDecl {
                    id: 3,
                    name: "acc".into(),
                    clause: Clause::Shared,
                    init: 100,
                },
                VarDecl {
                    id: 4,
                    name: "t".into(),
                    clause: Clause::Firstprivate,
                    init: 1,
                },
            ],
            constructs: vec![
                Construct::MarkBegin(0),
                // 8 threads × +2 under a lock → 116.
                Construct::Locked {
                    lock: 0,
                    body: vec![Construct::VarWrite {
                        var: 3,
                        op: WriteOp::Add(2),
                    }],
                },
                Construct::Barrier,
                // acc += Σ(5+i) for i in 0..16 = 200 → 316.
                Construct::ReductionFor {
                    var: 3,
                    red: RedOp::Sum,
                    schedule: Schedule::Static { chunk: 1 },
                    total_iters: 16,
                    body_us: 0.1,
                    delta: 5,
                },
                Construct::VarRead { var: 4 },
                Construct::MarkEnd(0),
            ],
        };
        let res = rt.run(&region, 1).expect("region completes");
        assert_eq!(res.final_values.get(&3), Some(&316));
        assert_eq!(res.final_values.get(&4), None, "private copies are discarded");
        // The lowering priced the ops: 8 RMW-free lock entries, a
        // 16-iteration loop pass, 8 combines, and the barrier.
        assert_eq!(res.effects.loop_iters, 16);
        assert_eq!(res.effects.reduction_combines, 8);
        assert!(res.wall_us > 0.0);
    }

    #[test]
    fn phase_order_evaluation_respects_barrier_separated_sets() {
        // Set(5) by every thread, barrier, then +1 per thread: the
        // canonical evaluation must give 5 + n, not fold the Set into a
        // rank-major walk.
        use crate::region::{VarDecl, WriteOp};
        let region = RegionSpec {
            n_threads: 4,
            vars: vec![VarDecl {
                id: 0,
                name: "x".into(),
                clause: Clause::Shared,
                init: 0,
            }],
            constructs: vec![
                Construct::Locked {
                    lock: 0,
                    body: vec![Construct::VarWrite {
                        var: 0,
                        op: WriteOp::Set(5),
                    }],
                },
                Construct::Barrier,
                Construct::Locked {
                    lock: 1,
                    body: vec![Construct::VarWrite {
                        var: 0,
                        op: WriteOp::Add(1),
                    }],
                },
            ],
        };
        assert_eq!(eval_values(&region).get(&0), Some(&9));
    }

    #[test]
    fn parallel_region_adds_overhead() {
        let rt = small_runtime();
        let plain = RegionSpec::measured(8, 3, 10, vec![Construct::DelayUs(1.0)]);
        let wrapped = RegionSpec::measured(
            8,
            3,
            10,
            vec![Construct::ParallelRegion {
                body: vec![Construct::DelayUs(1.0)],
            }],
        );
        let tp = rt.run(&plain, 1).expect("region completes").reps()[1];
        let tw = rt.run(&wrapped, 1).expect("region completes").reps()[1];
        assert!(tw > tp, "wrapped {tw} vs plain {tp}");
    }
}

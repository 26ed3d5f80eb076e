//! The simulated backend: lowers a [`RegionSpec`] onto the
//! `ompvar-sim` discrete-event engine and runs it on a modeled machine.
//!
//! All ranks execute the same construct list, so the tree is lowered
//! once, in one pre-order pass (`Lowerer::lower`). Each construct
//! creates its shared sync objects where it is met (one barrier per
//! barrier construct, one lock per critical, etc.) and appends its ops
//! to two programs: `master`, which rank 0 runs, and `others`, which
//! every other rank runs a copy of. They differ in two places only —
//! `Mark` ops and a master-only `TaskSpawn` go to `master` alone. Every
//! created object is recorded once, with the role it was created for,
//! in a table the effects harvest folds over after the run.
//!
//! Pre-order creation is an invariant, not a style: the engine numbers
//! objects in `Simulator::add_*` call order, an `ObjId` reaches the trace
//! and the report's `obj_effects`, and the golden digests cover both.
//!
//! What a run reads of its machine and placement does not change from
//! run to run, so a runtime resolves it once, into an image it shares
//! with its clones: the engine's topology caches ([`Topo`]) and, per team
//! size, the thread→place assignment and how far it reaches. A run
//! builds only what is its own — the simulator's state, the lowered
//! programs and their sync objects.

use crate::config::{RegionResult, RtConfig};
use crate::error::RtError;
use crate::region::{
    delay_cycles, reduction_aggregate, Clause, Construct, RegionSpec, Schedule,
};
use ompvar_sim::engine::{Simulator, Topo};
use ompvar_sim::fault::FaultPlan;
use ompvar_sim::params::SimParams;
use ompvar_sim::sync::{LoopSchedule, LoopSpec};
use ompvar_sim::task::{CorunClass, ObjId, Op, Program, TaskId};
use ompvar_sim::trace::{ObjEffects, SemanticEffects, SimReport};
use ompvar_sim::time::{Time, SEC, US};
use ompvar_topology::{assign_places, MachineSpec, ProcBind, ThreadAssignment};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

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
    /// The machine image, built at the first run and shared by every
    /// clone (see [`Image`]).
    image: Arc<OnceLock<Image>>,
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
            image: Arc::default(),
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

    /// Run `region`, deterministically from `seed`.
    ///
    /// Returns [`RtError::Sim`] when the engine stops early: a deadlock
    /// (with per-task blocked-on diagnostics), the virtual-time budget
    /// in [`SimRuntime::time_limit`], or a malformed program.
    pub fn run(&self, region: &RegionSpec, seed: u64) -> Result<RegionResult, RtError> {
        let Prepared { sim, roles, marker_pairs, master } = self.prepare(region, seed)?;
        let mut report = sim.run(self.time_limit).map_err(RtError::Sim)?;
        let mut result = RegionResult {
            wall_us: report.final_time as f64 / 1e3,
            freq_samples: std::mem::take(&mut report.freq_samples),
            counters: Some(report.counters),
            thread_stats: report.task_stats.iter().map(|&(_, s)| s).collect(),
            effects: harvest_effects(&roles, &report),
            trace: report.trace.take(),
            attribution: report.attribution.take(),
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
    /// bit-identical across replays and match the committed digests.
    ///
    /// # Errors
    ///
    /// Same contract as [`SimRuntime::run`].
    pub fn run_report(&self, region: &RegionSpec, seed: u64) -> Result<SimReport, RtError> {
        let sim = self.prepare(region, seed)?.sim;
        sim.run(self.time_limit).map_err(RtError::Sim)
    }

    /// Validate, lower, and configure one run: the shared front half of
    /// [`SimRuntime::run`] and [`SimRuntime::run_report`].
    fn prepare(&self, region: &RegionSpec, seed: u64) -> Result<Prepared, RtError> {
        region.validate().map_err(RtError::InvalidRegion)?;
        // Compared on use: `machine` and `config` are public fields, so a
        // runtime may have been changed since its image was built. Such a
        // run resolves a fresh image of its own.
        let stale;
        let image = match self.image.get_or_init(|| Image::new(&self.machine, &self.config)) {
            image if *image.topo.spec() == self.machine && image.config == self.config => image,
            _ => {
                stale = Image::new(&self.machine, &self.config);
                &stale
            }
        };
        let mut sim = Simulator::on(image.topo.clone(), self.params.clone(), seed);
        // The span factor and the spawns read the same placement.
        let team = image.team(region.n_threads);
        let span = team.reach.span_factor(self.params.sync.cross_socket_factor);
        let mut lower = Lowerer::new(self, region, span, &mut sim);
        lower.lower(&region.constructs);
        let Lowerer { master, others, roles, marker_pairs, .. } = lower;

        let place = |rank| team.assignment.place_of(rank).cloned();
        let master = sim.spawn_user(0, Program::new(master), place(0));
        let others = Program::new(others);
        for rank in 1..region.n_threads {
            sim.spawn_user(rank, others.clone(), place(rank));
        }
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
        Ok(Prepared { sim, roles, marker_pairs, master })
    }
}

/// What every run of a runtime reads of its machine and placement,
/// resolved once per runtime and shared by its clones: a run clones the
/// topology caches (pointer copies) and looks its team up by size.
#[derive(Debug)]
struct Image {
    /// The engine's topology caches, and the spec they were built for.
    topo: Topo,
    /// The affinity configuration the teams were resolved under.
    config: RtConfig,
    /// The resolved team of each size run so far.
    teams: Mutex<BTreeMap<usize, Arc<TeamImage>>>,
}

/// One team size's placement under the image's configuration.
#[derive(Debug)]
struct TeamImage {
    assignment: ThreadAssignment,
    reach: Reach,
}

/// How far a team's placement reaches across the machine, which sets the
/// contention multiplier of every sync object the team shares.
#[derive(Debug, Clone, Copy)]
enum Reach {
    /// All bound threads share one NUMA domain.
    Numa,
    /// Bound threads span NUMA domains of one socket.
    Socket,
    /// Bound threads span sockets, or roam the whole node unbound.
    Node,
}

impl Reach {
    /// The topology contention multiplier, given the cost of crossing a
    /// socket.
    fn span_factor(self, cross_socket: f64) -> f64 {
        match self {
            Reach::Numa => 1.0,
            Reach::Socket => (1.0 + cross_socket) / 2.0,
            Reach::Node => cross_socket,
        }
    }
}

impl Image {
    fn new(machine: &MachineSpec, config: &RtConfig) -> Image {
        Image {
            topo: Topo::new(machine.clone()),
            config: config.clone(),
            teams: Mutex::new(BTreeMap::new()),
        }
    }

    /// The placement of an `n`-thread team, resolved on first use.
    fn team(&self, n: usize) -> Arc<TeamImage> {
        let mut teams = self.teams.lock();
        let team = teams.entry(n).or_insert_with(|| {
            let machine = self.topo.spec();
            let assignment = assign_places(machine, &self.config.places, self.config.bind, n);
            let reach = if self.config.bind == ProcBind::False {
                // Unbound threads roam the whole node: worst case.
                Reach::Node
            } else {
                let hws: Vec<_> = assignment.iter_bound().map(|(_, p)| p.first()).collect();
                if machine.sockets_touched(&hws) > 1 {
                    Reach::Node
                } else if machine.numas_touched(&hws) > 1 {
                    Reach::Socket
                } else {
                    Reach::Numa
                }
            };
            Arc::new(TeamImage { assignment, reach })
        });
        Arc::clone(team)
    }
}

/// A lowered, configured run, ready for `Simulator::run`.
struct Prepared {
    sim: Simulator,
    roles: Vec<(ObjId, Role)>,
    /// Ids `k` of the region's `MarkBegin(k)`/`MarkEnd(k)` pairs.
    marker_pairs: BTreeSet<u32>,
    /// Rank 0's task: the one that executes the `Mark` ops.
    master: TaskId,
}

/// What the lowering created a sync object *for*. The engine reports raw
/// per-object counters ([`ObjEffects`]); the role says which
/// [`SemanticEffects`] fields they feed — the same lock object means
/// "critical section" as [`Role::Lock`] but "reduction combine" as
/// [`Role::Combine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Barrier,
    Lock,
    Combine,
    Atomic,
    Loop,
    Single,
    Pool,
}

/// Fold the engine's per-object effect counters into a
/// [`SemanticEffects`] summary through the role table.
fn harvest_effects(roles: &[(ObjId, Role)], report: &SimReport) -> SemanticEffects {
    let mut fx = SemanticEffects::default();
    for &(id, role) in roles {
        match (role, report.obj_effects[id.0 as usize]) {
            (Role::Barrier, ObjEffects::Barrier { arrivals }) => fx.barrier_arrivals += arrivals,
            (Role::Lock, ObjEffects::Lock { entries }) => fx.lock_entries += entries,
            (Role::Combine, ObjEffects::Lock { entries }) => fx.reduction_combines += entries,
            (Role::Atomic, ObjEffects::Atomic { ops }) => fx.atomic_ops += ops,
            (Role::Loop, ObjEffects::Loop { iters, passes, ordered_done }) => {
                fx.loop_iters += iters;
                fx.loop_passes += passes;
                fx.ordered_entries += ordered_done;
            }
            (Role::Single, ObjEffects::Single { entries, winners }) => {
                fx.single_entries += entries;
                fx.single_winners += winners;
            }
            (Role::Pool, ObjEffects::TaskPool { spawned, executed }) => {
                fx.tasks_spawned += spawned;
                fx.tasks_executed += executed;
            }
            (role, got) => {
                unreachable!("role table out of sync: {id:?} lowered as {role:?}, engine reports {got:?}")
            }
        }
    }
    fx
}

/// One pass over the construct tree: see the module docs.
struct Lowerer<'a> {
    sim: &'a mut Simulator,
    max_ghz: f64,
    n_threads: usize,
    span: f64,
    combine_ns: f64,
    /// Data-sharing clause per declared variable (first declaration
    /// wins, matching `RegionSpec::var`).
    clauses: BTreeMap<u32, Clause>,
    /// Equal lock ids share one object, created (and given its role) at
    /// the first `Locked` site met.
    named_locks: BTreeMap<u32, ObjId>,
    /// Rank 0's program.
    master: Vec<Op>,
    /// Every other rank's program: `master` without the `Mark`s and the
    /// master-only `TaskSpawn`s.
    others: Vec<Op>,
    /// Every created object, once, in creation (= `ObjId`) order.
    roles: Vec<(ObjId, Role)>,
    marker_pairs: BTreeSet<u32>,
}

impl<'a> Lowerer<'a> {
    fn new(rt: &SimRuntime, region: &RegionSpec, span: f64, sim: &'a mut Simulator) -> Self {
        let mut clauses = BTreeMap::new();
        for d in &region.vars {
            clauses.entry(d.id).or_insert(d.clause);
        }
        Lowerer {
            sim,
            max_ghz: rt.machine.clock.max_ghz,
            n_threads: region.n_threads,
            span,
            combine_ns: rt.params.sync.reduction_combine_ns,
            clauses,
            named_locks: BTreeMap::new(),
            master: Vec::new(),
            others: Vec::new(),
            roles: Vec::new(),
            marker_pairs: BTreeSet::new(),
        }
    }

    /// Append `op` to every rank's program.
    fn op(&mut self, op: Op) {
        self.master.push(op);
        self.others.push(op);
    }

    /// Record a freshly created object under the role it was created for.
    fn obj(&mut self, role: Role, id: ObjId) -> ObjId {
        self.roles.push((id, role));
        id
    }

    fn add_barrier(&mut self) -> ObjId {
        let b = self.sim.add_barrier(self.n_threads, self.span);
        self.obj(Role::Barrier, b)
    }

    fn add_lock(&mut self, role: Role) -> ObjId {
        let l = self.sim.add_lock(self.span);
        self.obj(role, l)
    }

    fn add_loop(
        &mut self,
        schedule: Schedule,
        total_iters: u64,
        body_us: f64,
        ordered_us: Option<f64>,
    ) -> ObjId {
        let (schedule, batch) = match schedule {
            Schedule::Static { chunk } => (LoopSchedule::Static { chunk }, 1),
            Schedule::Dynamic { chunk } => {
                // Batch the grabs: cap them at ~256 per thread per loop
                // pass so event counts stay tractable without distorting
                // load balancing at realistic granularity.
                let per_thread_chunks = total_iters / (self.n_threads as u64 * chunk).max(1);
                (LoopSchedule::Dynamic { chunk }, (per_thread_chunks / 256).clamp(1, 64) as u32)
            }
            Schedule::Guided { min_chunk } => (LoopSchedule::Guided { min_chunk }, 1),
        };
        let lp = self.sim.add_loop(LoopSpec {
            schedule,
            total_iters,
            n_threads: self.n_threads,
            body_cycles: delay_cycles(body_us, self.max_ghz),
            body_class: CorunClass::Latency,
            ordered_section_ns: ordered_us.map(|us| us * 1e3),
            batch,
            span_factor: self.span,
        });
        self.obj(Role::Loop, lp)
    }

    /// `us` of calibrated delay; nothing at all for a zero delay.
    fn delay(&mut self, us: f64) {
        if us > 0.0 {
            self.op(Op::Compute {
                cycles: delay_cycles(us, self.max_ghz),
                class: CorunClass::Latency,
            });
        }
    }

    /// A contended atomic RMW on an object of its own.
    fn atomic(&mut self) {
        let a = self.sim.add_atomic(self.span);
        let obj = self.obj(Role::Atomic, a);
        self.op(Op::AtomicOp { obj });
    }

    /// The serialized reduction combine under `lock`.
    fn combine(&mut self, lock: ObjId) {
        self.op(Op::LockAcquire { obj: lock });
        self.op(Op::Busy { ns: self.combine_ns });
        self.op(Op::LockRelease { obj: lock });
    }

    /// Lower `cs` for the whole team. Objects are created where their
    /// construct is met (pre-order), which fixes every `ObjId`.
    fn lower(&mut self, cs: &[Construct]) {
        for c in cs {
            match *c {
                Construct::DelayUs(us) => self.delay(us),
                Construct::Compute { cycles, class } => self.op(Op::Compute { cycles, class }),
                Construct::StreamBytes(bytes) => self.op(Op::MemStream { bytes }),
                Construct::Barrier => {
                    let obj = self.add_barrier();
                    self.op(Op::Barrier { obj });
                }
                Construct::Critical { body_us } | Construct::LockUnlock { body_us } => {
                    let obj = self.add_lock(Role::Lock);
                    self.op(Op::LockAcquire { obj });
                    self.delay(body_us);
                    self.op(Op::LockRelease { obj });
                }
                Construct::Atomic => self.atomic(),
                Construct::Single { body_us } => {
                    let s = self.sim.add_single(self.n_threads);
                    let obj = self.obj(Role::Single, s);
                    let bar = self.add_barrier();
                    self.op(Op::Single { obj, body_cycles: delay_cycles(body_us, self.max_ghz) });
                    self.op(Op::Barrier { obj: bar });
                }
                Construct::Reduction { body_us } => {
                    let lock = self.add_lock(Role::Combine);
                    let bar = self.add_barrier();
                    self.delay(body_us);
                    self.combine(lock);
                    self.op(Op::Barrier { obj: bar });
                }
                Construct::ParallelFor { schedule, total_iters, body_us, ordered_us, nowait } => {
                    let obj = self.add_loop(schedule, total_iters, body_us, ordered_us);
                    self.op(Op::ForLoop { obj });
                    if !nowait {
                        let bar = self.add_barrier();
                        self.op(Op::Barrier { obj: bar });
                    }
                }
                Construct::ParallelRegion { ref body } => {
                    // Both barriers precede the body's objects in id order.
                    let (entry, exit) = (self.add_barrier(), self.add_barrier());
                    self.op(Op::Barrier { obj: entry });
                    self.lower(body);
                    self.op(Op::Barrier { obj: exit });
                }
                Construct::Tasks { per_spawner, body_us, master_only } => {
                    let spawners = if master_only { 1 } else { self.n_threads };
                    let p = self.sim.add_task_pool(self.span, self.n_threads, spawners);
                    let obj = self.obj(Role::Pool, p);
                    let (after_spawn, fin) = (self.add_barrier(), self.add_barrier());
                    let spawn = Op::TaskSpawn {
                        obj,
                        count: per_spawner,
                        body_cycles: delay_cycles(body_us, self.max_ghz),
                    };
                    self.master.push(spawn);
                    if !master_only {
                        self.others.push(spawn);
                    }
                    // All spawns published before anyone drains: the
                    // post-spawn barrier is the scheduling point.
                    self.op(Op::Barrier { obj: after_spawn });
                    self.op(Op::TaskWait { obj });
                    self.op(Op::Barrier { obj: fin });
                }
                Construct::MarkBegin(k) => {
                    self.marker_pairs.insert(k);
                    self.master.push(Op::Mark { marker: 2 * k });
                }
                Construct::MarkEnd(k) => self.master.push(Op::Mark { marker: 2 * k + 1 }),
                Construct::Locked { lock, ref body } => {
                    let obj = match self.named_locks.get(&lock) {
                        Some(&obj) => obj,
                        None => {
                            let obj = self.add_lock(Role::Lock);
                            self.named_locks.insert(lock, obj);
                            obj
                        }
                    };
                    self.op(Op::LockAcquire { obj });
                    self.lower(body);
                    self.op(Op::LockRelease { obj });
                }
                Construct::Repeat { count, ref body } => {
                    self.op(Op::LoopBegin { count });
                    self.lower(body);
                    self.op(Op::LoopEnd);
                }
                // A register-width load: free at this model's resolution.
                // Values are computed analytically (see `eval_values`).
                Construct::VarRead { .. } => {}
                // A shared write serializes on the one cell like any
                // other atomic RMW; a private store is free.
                Construct::VarWrite { var, .. } => {
                    if self.clauses.get(&var) == Some(&Clause::Shared) {
                        self.atomic();
                    }
                }
                Construct::ReductionFor { schedule, total_iters, body_us, .. } => {
                    let obj = self.add_loop(schedule, total_iters, body_us, None);
                    let lock = self.add_lock(Role::Combine);
                    let bar = self.add_barrier();
                    self.op(Op::ForLoop { obj });
                    self.combine(lock);
                    self.op(Op::Barrier { obj: bar });
                }
            }
        }
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

    /// `per_spawner` of the master-only `Tasks` in [`every_construct`]:
    /// what tells its `TaskSpawn` from the team-wide one's in an op list.
    const MASTER_SPAWNS: u32 = 7;

    /// Every `Construct` variant, at top level and again under each of
    /// the three constructs that nest (`Repeat`, `ParallelRegion`,
    /// `Locked`). Lowered only, never run: the nested same-id lock would
    /// not survive validation.
    fn every_construct() -> Vec<Construct> {
        use crate::region::{RedOp, WriteOp};
        let for_loop = |schedule, ordered_us, nowait| Construct::ParallelFor {
            schedule,
            total_iters: 16,
            body_us: 0.1,
            ordered_us,
            nowait,
        };
        let tasks = |per_spawner, master_only| Construct::Tasks { per_spawner, body_us: 0.1, master_only };
        let leaves = || {
            vec![
                Construct::DelayUs(0.5),
                Construct::DelayUs(0.0),
                Construct::Compute { cycles: 100.0, class: CorunClass::Latency },
                Construct::StreamBytes(64.0),
                for_loop(Schedule::Dynamic { chunk: 1 }, None, true),
                for_loop(Schedule::Static { chunk: 2 }, Some(0.1), false),
                Construct::Barrier,
                Construct::Critical { body_us: 0.1 },
                Construct::LockUnlock { body_us: 0.0 },
                Construct::Atomic,
                Construct::Single { body_us: 0.1 },
                Construct::Reduction { body_us: 0.1 },
                tasks(3, false),
                tasks(MASTER_SPAWNS, true),
                Construct::MarkBegin(1),
                Construct::MarkEnd(1),
                Construct::VarRead { var: 0 },
                Construct::VarWrite { var: 0, op: WriteOp::Add(1) },
                Construct::VarWrite { var: 1, op: WriteOp::Set(2) },
                Construct::ReductionFor {
                    var: 0,
                    red: RedOp::Sum,
                    schedule: Schedule::Guided { min_chunk: 1 },
                    total_iters: 8,
                    body_us: 0.1,
                    delta: 1,
                },
            ]
        };
        let mut cs = vec![Construct::MarkBegin(0)];
        cs.extend(leaves());
        cs.push(Construct::Repeat { count: 2, body: leaves() });
        cs.push(Construct::ParallelRegion { body: leaves() });
        cs.push(Construct::Locked {
            lock: 4,
            body: vec![
                Construct::Locked { lock: 5, body: leaves() },
                Construct::Locked { lock: 4, body: vec![Construct::Atomic] },
            ],
        });
        cs.push(Construct::MarkEnd(0));
        cs
    }

    #[test]
    fn one_pass_lowers_two_programs_that_differ_in_master_ops_only() {
        use crate::region::VarDecl;
        let var = |id, clause| VarDecl { id, name: format!("v{id}"), clause, init: 0 };
        for n in [1, 2, 5] {
            let rt = small_runtime();
            let region = RegionSpec {
                n_threads: n,
                vars: vec![var(0, Clause::Shared), var(1, Clause::Private)],
                constructs: every_construct(),
            };
            let mut sim = Simulator::new(rt.machine.clone(), rt.params.clone(), 1);
            let mut lw = Lowerer::new(&rt, &region, 1.0, &mut sim);
            lw.lower(&region.constructs);

            let master_only = |op: &Op| {
                matches!(op, Op::Mark { .. } | Op::TaskSpawn { count: MASTER_SPAWNS, .. })
            };
            // 2 + 4×2 marks, 4 master-only spawns.
            assert_eq!(lw.master.iter().filter(|op| master_only(op)).count(), 14, "n={n}");
            let rest: Vec<Op> = lw.master.iter().copied().filter(|op| !master_only(op)).collect();
            assert_eq!(lw.others, rest, "n={n}");

            for ops in [&lw.master, &lw.others] {
                let mut depth = 0i32;
                for op in ops {
                    match op {
                        Op::LoopBegin { .. } => depth += 1,
                        Op::LoopEnd => depth -= 1,
                        _ => {}
                    }
                    assert!(depth >= 0, "n={n}: LoopEnd before its LoopBegin");
                }
                assert_eq!(depth, 0, "n={n}: unbalanced repetition blocks");
            }

            // Each object once, in creation order — which is `ObjId` order.
            let ids: Vec<u32> = lw.roles.iter().map(|&(id, _)| id.0).collect();
            assert_eq!(ids, (0..ids.len() as u32).collect::<Vec<_>>(), "n={n}");
            // Two site-private locks per copy of the leaves, and one per
            // lock *id*: the second `Locked { lock: 4, .. }` site adds none.
            let locks = lw.roles.iter().filter(|&&(_, r)| r == Role::Lock).count();
            assert_eq!(locks, 4 * 2 + 2, "n={n}");
            assert_eq!(lw.marker_pairs, BTreeSet::from([0, 1]));
        }
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

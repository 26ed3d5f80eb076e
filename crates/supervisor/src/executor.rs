//! Fault-tolerant parallel campaign executor.
//!
//! A campaign's pending units wait in one shared queue, in canonical
//! order, and each of N workers pops the front whenever it is free, so
//! no worker idles while units are left. Each worker runs its units
//! through its **own** [`Supervisor`] journaling into its **own**
//! per-shard checkpoint manifest (see
//! [`crate::checkpoint::shard_path`]), so concurrent appenders never
//! contend on one file and a `kill -9` at any instant tears at most one
//! line of one shard — which
//! [`Manifest::open_resume`]'s torn-tail recovery then drops. On resume
//! the shard manifests are merged deterministically
//! ([`crate::checkpoint::resume_shards`]) and completed units are
//! replayed before dispatch, so a resumed report is byte-identical
//! regardless of worker count, crash history, or which worker ran what.
//!
//! Robustness machinery on top of the pool:
//!
//! - **Watchdog**: one thread, started by a campaign's first timed
//!   attempt, tracking a wall-clock deadline per running attempt. A
//!   campaign that replays every unit starts no worker and no watchdog.
//!   A reaped attempt surfaces as a transient
//!   [`UnitError::timeout`] *inside* the supervise closure, so the
//!   existing classifier / seeded-backoff / quarantine path applies
//!   unchanged. Rust offers no way to cancel arbitrary compute, so a
//!   timed attempt runs on a detached thread; a genuinely hung one is
//!   leaked (it dies with the process) while the campaign moves on.
//! - **Panic isolation**: unit panics are caught per-attempt and become
//!   [`UnitError::from_panic`]. A panic *outside* the attempt sandbox
//!   (executor or journaling bug) poisons only that worker: the others
//!   keep draining the shared queue, and its in-flight unit is re-run
//!   after the pool joins by the **recovery lane** — the same worker
//!   loop, on the calling thread as lane 0, journaling into a shard a
//!   cleanly ended worker handed back.
//! - **Interrupt propagation**: a shared cancel flag (the CLI's SIGINT
//!   flag) stops every worker at the next unit boundary; shard manifests
//!   are flushed per-append, so everything completed before the
//!   interrupt is already durable when the campaign returns.
//!
//! Every worker is one lane of the merged Chrome trace (export with
//! `chrome_trace_lanes(…, "worker")`): attempts, retries, timeouts,
//! chaos actions and checkpoint flushes per worker, on a shared time
//! base.

use crate::chaos::{ChaosAction, ProcChaos};
use crate::checkpoint::{Entry, Manifest, RetryRecord, UnitStatus};
use crate::classify::Transience;
use crate::supervisor::{Checkpointable, Outcome, Supervisor, SupervisorConfig, UnitError};
use ompvar_obs::{InstantKind, Trace};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Resolve a `--jobs` request: `0` means auto-detect (all available
/// hardware parallelism), anything else is taken literally.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Executor policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Worker count (already resolved; clamped to at least 1).
    pub jobs: usize,
    /// Per-attempt wall-clock deadline enforced by the watchdog;
    /// `None` disables reaping.
    pub unit_timeout: Option<Duration>,
    /// Retry / backoff / seed policy shared by every worker.
    pub supervisor: SupervisorConfig,
    /// Seeded process chaos: kill / panic / stall injection at unit
    /// boundaries and mid-attempt. `None` runs undisturbed.
    pub chaos: Option<ProcChaos>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            jobs: resolve_jobs(0),
            unit_timeout: None,
            supervisor: SupervisorConfig::default(),
            chaos: None,
        }
    }
}

/// The closure a unit runs: attempt number in, result (or classified
/// failure) out. `Arc` because a timed attempt executes on a detached
/// thread that must own its callable.
pub type UnitFn<R> = dyn Fn(u32) -> Result<R, UnitError> + Send + Sync;

/// One schedulable campaign unit.
pub struct ExecUnit<R> {
    /// Journal / replay key; must be unique within the campaign.
    pub name: String,
    /// The work.
    pub run: Arc<UnitFn<R>>,
}

impl<R> ExecUnit<R> {
    /// Wrap a closure as a named unit.
    pub fn new(
        name: impl Into<String>,
        run: impl Fn(u32) -> Result<R, UnitError> + Send + Sync + 'static,
    ) -> ExecUnit<R> {
        ExecUnit { name: name.into(), run: Arc::new(run) }
    }
}

impl<R> std::fmt::Debug for ExecUnit<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecUnit").field("name", &self.name).finish_non_exhaustive()
    }
}

/// Terminal state of one unit, tagged with the lane that reached it.
#[derive(Debug)]
pub struct UnitResult<R> {
    /// Position in the campaign's canonical unit order.
    pub index: usize,
    /// Unit name.
    pub name: String,
    /// What happened.
    pub outcome: Outcome<R>,
    /// Lane that ran it (the recovery lane is 0); `None` when replayed
    /// from a checkpoint.
    pub worker: Option<usize>,
    /// Wall-clock spent supervising the unit (all attempts + backoff);
    /// zero for checkpoint replays.
    pub duration: Duration,
}

/// Per-unit completion callback: invoked with each unit's terminal
/// result the moment it is reached (replay, worker completion, or
/// recovery). Called from worker threads, so it must be `Sync`;
/// with one worker, calls arrive in execution order.
pub type Progress<'a, R> = Option<&'a (dyn Fn(&UnitResult<R>) + Sync)>;

/// Everything one campaign execution produced.
#[derive(Debug)]
pub struct CampaignRun<R> {
    /// Finished units in canonical (submission) order. On an interrupted
    /// run, units that never started are absent.
    pub results: Vec<UnitResult<R>>,
    /// Merged supervisor trace: one lane per worker, shared time base.
    pub trace: Trace,
    /// Whether the cancel flag stopped the campaign early.
    pub interrupted: bool,
    /// Workers lost to a panic outside the per-attempt sandbox.
    pub poisoned_workers: usize,
    /// Always 0: every worker pops the one shared queue, so no unit is
    /// taken from another worker. Kept only because the benchmark's
    /// journal workload still reports it.
    pub steals: usize,
    /// Watchdog-reaped attempt threads still running when the campaign
    /// returned. A hang-heavy run leaks real OS threads (they die with
    /// the process); this makes that visible instead of silent.
    pub leaked_threads: u64,
    /// Human-readable records of degraded recovery: lost checkpoint
    /// journaling, quarantined corrupt shards. Sorted for deterministic
    /// reports.
    pub recovery_notes: Vec<String>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A worker that panicked while holding a slot lock must not
    // cascade: the protected data (plain indices) is always valid.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

struct Watch {
    id: u64,
    deadline: Instant,
    fire: Option<Box<dyn FnOnce() + Send>>,
}

struct WatchdogState {
    watches: Vec<Watch>,
    next_id: u64,
    shutdown: bool,
}

/// One thread enforcing wall-clock deadlines for every in-flight
/// attempt. Registration hands over a closure that is fired at most
/// once, when the deadline passes before [`Watchdog::cancel`].
pub struct Watchdog {
    state: Arc<(Mutex<WatchdogState>, Condvar)>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Start the watchdog thread.
    pub fn spawn() -> Watchdog {
        let state = Arc::new((
            Mutex::new(WatchdogState { watches: Vec::new(), next_id: 0, shutdown: false }),
            Condvar::new(),
        ));
        let thread_state = Arc::clone(&state);
        let handle = thread::Builder::new()
            .name("ompvar-watchdog".into())
            .spawn(move || {
                let (m, cv) = &*thread_state;
                let mut g = lock(m);
                loop {
                    if g.shutdown {
                        return;
                    }
                    let now = Instant::now();
                    let mut fired: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
                    g.watches.retain_mut(|w| {
                        if w.deadline <= now {
                            fired.extend(w.fire.take());
                            false
                        } else {
                            true
                        }
                    });
                    if !fired.is_empty() {
                        // Fire outside the lock: the closures take other
                        // locks (result slots) and must not nest inside
                        // ours.
                        drop(g);
                        for f in fired {
                            f();
                        }
                        g = lock(m);
                        continue;
                    }
                    g = match g.watches.iter().map(|w| w.deadline).min() {
                        Some(d) => {
                            cv.wait_timeout(g, d.saturating_duration_since(now))
                                .unwrap_or_else(|p| p.into_inner())
                                .0
                        }
                        None => cv.wait(g).unwrap_or_else(|p| p.into_inner()),
                    };
                }
            })
            .expect("spawn watchdog thread");
        Watchdog { state, handle: Some(handle) }
    }

    /// Arm a deadline. Returns a handle for [`Watchdog::cancel`].
    pub fn register(&self, deadline: Instant, fire: Box<dyn FnOnce() + Send>) -> u64 {
        let (m, cv) = &*self.state;
        let mut g = lock(m);
        let id = g.next_id;
        g.next_id += 1;
        g.watches.push(Watch { id, deadline, fire: Some(fire) });
        cv.notify_all();
        id
    }

    /// Disarm a deadline (no-op if it already fired).
    pub fn cancel(&self, id: u64) {
        let (m, cv) = &*self.state;
        lock(m).watches.retain(|w| w.id != id);
        cv.notify_all();
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (m, cv) = &*self.state;
        lock(m).shutdown = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Attempt execution
// ---------------------------------------------------------------------

/// Run one attempt with panic isolation and (optionally) a watchdog
/// deadline. Without a timeout the attempt runs on the calling thread;
/// with one it runs on a detached thread whose result races the
/// watchdog — started by the campaign's first timed attempt — into a
/// first-writer-wins slot. A reaped attempt's thread is leaked
/// deliberately — see the module docs.
fn run_attempt<R: Send + 'static>(
    run: &Arc<UnitFn<R>>,
    attempt: u32,
    timeout: Option<Duration>,
    watchdog: &OnceLock<Watchdog>,
    name: &str,
    leaks: &Arc<AtomicI64>,
) -> Result<R, UnitError> {
    let Some(limit) = timeout else {
        return catch_unwind(AssertUnwindSafe(|| run(attempt)))
            .unwrap_or_else(|p| Err(UnitError::from_panic(panic_message(p.as_ref()))));
    };
    let watchdog = watchdog.get_or_init(Watchdog::spawn);

    // Three-state slot, not an Option: after the caller extracts the
    // winner the slot must still read as "settled", or a reaped thread
    // finishing late would mistake the drained slot for an unclaimed
    // race and skip the leak-counter decrement.
    enum SlotState<R> {
        Empty,
        Filled(Result<R, UnitError>),
        Taken,
    }
    type Slot<R> = Arc<(Mutex<SlotState<R>>, Condvar)>;
    let slot: Slot<R> = Arc::new((Mutex::new(SlotState::Empty), Condvar::new()));

    let reap_slot = Arc::clone(&slot);
    let reap_leaks = Arc::clone(leaks);
    let reap_msg = format!(
        "unit '{name}' attempt {attempt} exceeded its {:.3}s deadline; reaped by watchdog",
        limit.as_secs_f64()
    );
    let watch = watchdog.register(
        Instant::now() + limit,
        Box::new(move || {
            let (m, cv) = &*reap_slot;
            let mut g = lock(m);
            if matches!(*g, SlotState::Empty) {
                // The reap wins the race: the attempt thread is now
                // abandoned — a leaked OS thread until (if ever) it
                // finishes on its own and decrements below.
                reap_leaks.fetch_add(1, Ordering::SeqCst);
                *g = SlotState::Filled(Err(UnitError::timeout(reap_msg)));
                cv.notify_all();
            }
        }),
    );

    let work_slot = Arc::clone(&slot);
    let work_leaks = Arc::clone(leaks);
    let work = Arc::clone(run);
    let _detached = thread::Builder::new()
        .name(format!("ompvar-attempt-{name}"))
        .spawn(move || {
            let res = catch_unwind(AssertUnwindSafe(|| work(attempt)))
                .unwrap_or_else(|p| Err(UnitError::from_panic(panic_message(p.as_ref()))));
            let (m, cv) = &*work_slot;
            let mut g = lock(m);
            if matches!(*g, SlotState::Empty) {
                *g = SlotState::Filled(res);
                cv.notify_all();
            } else {
                // The watchdog already reaped this attempt; the leak it
                // counted has just un-leaked itself.
                work_leaks.fetch_sub(1, Ordering::SeqCst);
            }
        })
        .expect("spawn attempt thread");

    let (m, cv) = &*slot;
    let mut g = lock(m);
    while matches!(*g, SlotState::Empty) {
        g = cv.wait(g).unwrap_or_else(|p| p.into_inner());
    }
    watchdog.cancel(watch);
    match std::mem::replace(&mut *g, SlotState::Taken) {
        SlotState::Filled(res) => res,
        _ => unreachable!("slot settled by the wait loop"),
    }
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// Wrap a unit closure with the per-attempt process-chaos actions for
/// unit `idx` (panic / stall; the kill decision lives at the pickup
/// boundary): a unit's attempt history is a pure function of `(chaos
/// seed, idx)` no matter which lane ends up running it.
///
/// An injected panic unwinds with `resume_unwind`: it crosses the
/// attempt's `catch_unwind` with the same `String` payload as `panic!`,
/// but skips the panic hook, whose backtrace (under `RUST_BACKTRACE`)
/// maps the binary's debug info and triples the sweep's peak memory.
/// Real panics keep the hook.
fn chaos_wrap<R: 'static>(run: Arc<UnitFn<R>>, pc: ProcChaos, idx: usize) -> Arc<UnitFn<R>> {
    Arc::new(move |attempt: u32| {
        match pc.attempt_action(idx, attempt) {
            ChaosAction::Panic => resume_unwind(Box::new(format!(
                "chaos-injected panic (unit {idx}, attempt {attempt})"
            ))),
            ChaosAction::Stall => thread::sleep(Duration::from_millis(pc.stall_ms)),
            ChaosAction::None => {}
        }
        run(attempt)
    })
}

/// Emit the instants for the chaos actions that fired during a unit's
/// attempts (re-derived — the decisions are pure).
fn emit_chaos_actions(sup: &mut Supervisor, pc: ProcChaos, idx: usize, attempts: u32) {
    for a in 0..attempts {
        match pc.attempt_action(idx, a) {
            ChaosAction::Panic => sup.emit_instant(InstantKind::ChaosProcPanic),
            ChaosAction::Stall => sup.emit_instant(InstantKind::ChaosProcStall),
            ChaosAction::None => {}
        }
    }
}

/// The units still to run, in canonical order, shared by every lane:
/// each pops the front when it is free.
struct UnitQueue {
    units: Vec<usize>,
    next: AtomicUsize,
}

impl UnitQueue {
    fn new(units: Vec<usize>) -> UnitQueue {
        UnitQueue { units, next: AtomicUsize::new(0) }
    }

    /// The front unit, or `None` once the queue is drained. `Relaxed`:
    /// the cursor publishes no data — the units are fixed before the
    /// lanes start, and `rest` is read after they join.
    fn pop(&self) -> Option<usize> {
        self.units.get(self.next.fetch_add(1, Ordering::Relaxed)).copied()
    }

    /// The units no lane popped.
    fn rest(&self) -> &[usize] {
        &self.units[self.next.load(Ordering::Relaxed).min(self.units.len())..]
    }
}

struct WorkerOut<R> {
    results: Vec<UnitResult<R>>,
    trace: Trace,
    notes: Vec<String>,
    /// The lane's shard journal, handed back for the recovery lane to
    /// continue. `None` for an unjournaled lane and for a poisoned one,
    /// whose journal may have been cut mid-append.
    manifest: Option<Manifest>,
}

/// What every lane of one campaign shares.
struct Lanes<'a, R> {
    cfg: ExecutorConfig,
    units: &'a [ExecUnit<R>],
    watchdog: &'a OnceLock<Watchdog>,
    epoch: Instant,
    progress: Progress<'a, R>,
    leaks: &'a Arc<AtomicI64>,
}

impl<R: Checkpointable + Send + 'static> Lanes<'_, R> {
    /// Run lane `w` until the queue is drained, the campaign is
    /// cancelled, or the lane dies. A lane that dies leaves
    /// `in_flight[w]` set for the recovery lane — except the
    /// `last_resort` lane, which is the recovery lane.
    fn worker_loop(
        &self,
        w: usize,
        manifest: Option<Manifest>,
        queue: &UnitQueue,
        in_flight: &[Mutex<Option<usize>>],
        cancel: Option<&AtomicBool>,
        last_resort: bool,
    ) -> WorkerOut<R> {
        let cfg = &self.cfg;
        let mut sup = Supervisor::new(cfg.supervisor, w as u32, self.epoch);
        if let Some(m) = manifest {
            sup = sup.with_manifest(m);
        }
        let mut results = Vec::new();
        loop {
            if cancel.map(|c| c.load(Ordering::SeqCst)).unwrap_or(false) {
                break;
            }
            let Some(idx) = queue.pop() else { break };
            *lock(&in_flight[w]) = Some(idx);
            // Process chaos, decision 1: die at the unit-pickup boundary.
            // The in-flight slot stays set, so this rides the existing
            // poison-reclamation path — the recovery lane re-runs the unit.
            if cfg.chaos.is_some_and(|pc| pc.kills_at_boundary(idx)) {
                sup.emit_instant(InstantKind::ChaosProcKill);
                break;
            }
            let unit = &self.units[idx];
            let run = Arc::clone(&unit.run);
            // Process chaos, decision 2: wrap each attempt so it may panic
            // (exercising the per-attempt sandbox) or stall past the
            // watchdog deadline (exercising the reaper) — purely from
            // `(seed, unit, attempt)`.
            let run: Arc<UnitFn<R>> = match cfg.chaos {
                Some(pc) => chaos_wrap(run, pc, idx),
                None => run,
            };
            let t0 = Instant::now();
            let supervised = catch_unwind(AssertUnwindSafe(|| {
                sup.supervise(&unit.name, |attempt| {
                    let timeout = cfg.unit_timeout;
                    run_attempt(&run, attempt, timeout, self.watchdog, &unit.name, self.leaks)
                })
            }));
            let outcome = match supervised {
                Ok(outcome) => outcome,
                // A panic *outside* the attempt sandbox: this lane is
                // poisoned, and its journal may have been cut mid-append.
                Err(p) => {
                    drop(sup.take_manifest());
                    // Stop taking work — the others drain the shared
                    // queue, and the still-set in-flight slot tells the
                    // main thread which unit to recover.
                    if !last_resort {
                        break;
                    }
                    // Nothing recovers after the recovery lane: the unit
                    // has now escaped the sandbox twice. Quarantine it
                    // (unjournaled) and carry on.
                    let msg = panic_message(p.as_ref());
                    Outcome::Quarantined {
                        attempts: 1,
                        retries: vec![RetryRecord {
                            attempt: 0,
                            error: format!("panic outside the attempt sandbox: {msg}"),
                            transience: Transience::Permanent,
                            backoff_ms: 0,
                        }],
                        from_checkpoint: false,
                    }
                }
            };
            *lock(&in_flight[w]) = None;
            // Mark the chaos actions that fired during this unit's
            // attempts (re-derived: the decisions are pure, and the
            // supervisor borrow is free again here).
            if let Some(pc) = cfg.chaos {
                emit_chaos_actions(&mut sup, pc, idx, outcome.attempts());
            }
            let result = UnitResult {
                index: idx,
                name: unit.name.clone(),
                outcome,
                worker: Some(w),
                duration: t0.elapsed(),
            };
            if let Some(p) = self.progress {
                p(&result);
            }
            results.push(result);
        }
        let manifest = sup.take_manifest();
        WorkerOut { results, trace: sup.take_trace(), notes: sup.take_notes(), manifest }
    }
}

/// Rebuild a journaled terminal state without re-running the unit: the
/// one place an [`Entry`] becomes an [`Outcome`]. `None` marks an
/// unreadable payload — the unit then re-runs.
fn replay_entry<R: Checkpointable>(e: &Entry) -> Option<Outcome<R>> {
    match e.status {
        UnitStatus::Ok => e.payload.as_ref().and_then(R::from_ckpt).map(|value| {
            Outcome::Completed {
                value,
                attempts: e.attempts,
                retries: e.retries.clone(),
                from_checkpoint: true,
            }
        }),
        UnitStatus::Quarantined => Some(Outcome::Quarantined {
            attempts: e.attempts,
            retries: e.retries.clone(),
            from_checkpoint: true,
        }),
    }
}

/// Run a campaign through the worker pool.
///
/// `manifests` are the per-shard journals (from
/// [`crate::checkpoint::create_shards`] / `resume_shards`), one per
/// worker; `None` runs unjournaled. `replay` is the deterministic merge
/// of previously journaled entries — matching units are replayed before
/// dispatch, the first entry of a name winning; a worker only ever
/// runs and journals, it never replays. `cancel` is polled at every
/// unit boundary (the CLI passes its SIGINT flag). `progress` is invoked
/// with each unit's terminal result the moment it is reached — from
/// worker threads, so streamed output should lock stdout per call.
///
/// Results come back in canonical (submission) order regardless of which
/// worker ran each unit, so downstream reports are deterministic.
pub fn run_campaign<R>(
    cfg: &ExecutorConfig,
    units: &[ExecUnit<R>],
    manifests: Option<Vec<Manifest>>,
    replay: &[Entry],
    cancel: Option<&AtomicBool>,
    progress: Progress<'_, R>,
) -> CampaignRun<R>
where
    R: Checkpointable + Send + 'static,
{
    let jobs = cfg.jobs.max(1);
    let epoch = Instant::now();
    let mut control = Supervisor::new(cfg.supervisor, 0, epoch);

    // Replay pass: decode journaled terminal states before any dispatch,
    // on the control lane. Unreadable payloads fall through and re-run.
    let mut journaled: HashMap<&str, &Entry> = HashMap::with_capacity(replay.len());
    for e in replay {
        journaled.entry(e.name.as_str()).or_insert(e);
    }
    // Replayed results come first, in canonical order; what the lanes
    // run joins them below.
    let mut results: Vec<UnitResult<R>> = Vec::with_capacity(units.len());
    let mut pending = Vec::new();
    for (idx, u) in units.iter().enumerate() {
        let Some(e) = journaled.get(u.name.as_str()) else {
            pending.push(idx);
            continue;
        };
        let Some(outcome) = replay_entry::<R>(e) else {
            eprintln!("warning: checkpoint payload for {} is unreadable; re-running", u.name);
            pending.push(idx);
            continue;
        };
        control.emit_instant(InstantKind::SupervisorResume);
        let result = UnitResult {
            index: idx,
            name: u.name.clone(),
            outcome,
            worker: None,
            duration: Duration::ZERO,
        };
        if let Some(p) = progress {
            p(&result);
        }
        results.push(result);
    }

    let queue = UnitQueue::new(pending);

    let in_flight: Vec<Mutex<Option<usize>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let watchdog = OnceLock::new();
    let leaks = Arc::new(AtomicI64::new(0));
    let lanes = Lanes { cfg: *cfg, units, watchdog: &watchdog, epoch, progress, leaks: &leaks };

    let mut outs: Vec<WorkerOut<R>> = Vec::with_capacity(jobs + 1);
    // A replay that restored every unit leaves nothing to run: no
    // worker starts (the shards it would have journaled into just close).
    let pool = if queue.units.is_empty() { 0 } else { jobs };
    thread::scope(|s| {
        // One shard per worker; workers beyond the shards run unjournaled.
        let mut shards = manifests.into_iter().flatten();
        let (lanes, queue, in_flight) = (&lanes, &queue, &in_flight[..]);
        let handles: Vec<_> = (0..pool)
            .map(|w| {
                let shard = shards.next();
                s.spawn(move || lanes.worker_loop(w, shard, queue, in_flight, cancel, false))
            })
            .collect();
        for h in handles {
            // A worker thread that dies before returning (it should not:
            // the loop catches panics) is treated like a poisoning — its
            // in-flight slot stays set and is recovered below.
            if let Ok(out) = h.join() {
                outs.push(out);
            }
        }
    });

    let interrupted = cancel.map(|c| c.load(Ordering::SeqCst)).unwrap_or(false);

    // Recovery lane: units a poisoned or killed worker had in flight,
    // plus what is left in the queue when no worker survived, go
    // through the lane loop once more on this thread, as lane 0. It
    // journals into the first shard a worker handed back (none left:
    // unjournaled, and the units re-run on a resume). The same
    // per-attempt chaos applies —
    // a unit's attempt history depends only on the chaos seed, not on
    // the lane — but pickup kills do not: nothing recovers after this.
    let mut recover: Vec<usize> = in_flight.iter().filter_map(|slot| lock(slot).take()).collect();
    let poisoned = recover.len();
    recover.sort_unstable();
    for &idx in &recover {
        eprintln!(
            "warning: worker poisoned while running '{}'; re-running on the control lane",
            units[idx].name
        );
    }
    if !interrupted {
        recover.extend_from_slice(queue.rest());
        let queued = recover.len() - poisoned;
        if queued > 0 {
            eprintln!(
                "warning: {queued} queued unit(s) left by lost workers; running them on the control lane"
            );
        }
    }
    if !recover.is_empty() {
        recover.sort_unstable();
        let chaos = cfg.chaos.map(|pc| ProcChaos { kill_ppm: 0, ..pc });
        let lane = Lanes { cfg: ExecutorConfig { chaos, ..*cfg }, ..lanes };
        let spare = outs.iter_mut().find_map(|o| o.manifest.take());
        let queue = UnitQueue::new(recover);
        outs.push(lane.worker_loop(0, spare, &queue, &[Mutex::new(None)], None, true));
    }

    let mut events = control.take_trace().events;
    let mut recovery_notes: Vec<String> = Vec::new();
    for mut out in outs {
        results.append(&mut out.results);
        events.append(&mut out.trace.events);
        recovery_notes.append(&mut out.notes);
    }
    // Sorted so the report is deterministic regardless of which worker
    // produced each note.
    recovery_notes.sort_unstable();
    // Stable by-time sort: each lane's events are already in emission
    // order on a shared clock, so per-lane order (what consumers rely
    // on) survives the merge.
    events.sort_by_key(|e| e.time_ns);
    // Canonical order. Each unit reached one terminal state on one lane,
    // and each lane ran its units in queue order: this merges a few
    // sorted runs.
    results.sort_by_key(|r| r.index);

    CampaignRun {
        results,
        trace: Trace::new(events),
        interrupted,
        poisoned_workers: poisoned,
        steals: 0,
        leaked_threads: leaks.load(Ordering::SeqCst).max(0) as u64,
        recovery_notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::BackoffCfg;
    use crate::checkpoint::{create_shards, resume_shards, Header};
    use ompvar_obs::json::Value;
    use std::sync::atomic::AtomicUsize;

    fn cfg(jobs: usize) -> ExecutorConfig {
        ExecutorConfig {
            jobs,
            unit_timeout: None,
            supervisor: SupervisorConfig { seed: 11, sleep: false, ..Default::default() },
            chaos: None,
        }
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("ompvar_exec_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn value_units(n: usize) -> Vec<ExecUnit<f64>> {
        (0..n)
            .map(|i| ExecUnit::new(format!("u{i}"), move |_| Ok(i as f64 * 1.5)))
            .collect()
    }

    /// `value_units`, each closure call counted in `ran`.
    fn counted_units(n: usize, ran: &Arc<AtomicUsize>) -> Vec<ExecUnit<f64>> {
        (0..n)
            .map(|i| {
                let ran = Arc::clone(ran);
                ExecUnit::new(format!("u{i}"), move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(i as f64 * 1.5)
                })
            })
            .collect()
    }

    fn digest<R: Clone + std::fmt::Debug>(run: &CampaignRun<R>) -> Vec<(usize, String, u32)> {
        run.results
            .iter()
            .map(|r| (r.index, r.name.clone(), r.outcome.attempts()))
            .collect()
    }

    #[test]
    fn results_come_back_in_canonical_order_any_job_count() {
        let units = value_units(17);
        let seq = run_campaign(&cfg(1), &units, None, &[], None, None);
        for jobs in [2, 4, 8] {
            let par = run_campaign(&cfg(jobs), &units, None, &[], None, None);
            assert_eq!(digest(&seq), digest(&par), "jobs={jobs}");
            for (r, i) in par.results.iter().zip(0..) {
                assert_eq!(r.index, i);
                match &r.outcome {
                    Outcome::Completed { value, .. } => assert_eq!(*value, i as f64 * 1.5),
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn watchdog_reaps_hang_then_retry_succeeds() {
        let mut c = cfg(2);
        c.unit_timeout = Some(Duration::from_millis(30));
        let units = vec![
            ExecUnit::new("hang-once", |attempt: u32| {
                if attempt == 0 {
                    thread::sleep(Duration::from_millis(500));
                }
                Ok(7.0f64)
            }),
            ExecUnit::new("fine", |_| Ok(1.0f64)),
        ];
        let t0 = Instant::now();
        let run = run_campaign(&c, &units, None, &[], None, None);
        assert!(t0.elapsed() < Duration::from_secs(5), "campaign must not hang");
        let hang = &run.results[0];
        match &hang.outcome {
            Outcome::Completed { attempts, retries, .. } => {
                assert_eq!(*attempts, 2, "one reap, one clean attempt");
                assert!(retries[0].error.contains("reaped by watchdog"), "{retries:?}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(run.trace.instants_of(InstantKind::SupervisorTimeout), 1);
    }

    #[test]
    fn persistent_hang_is_quarantined_not_fatal() {
        let mut c = cfg(1);
        c.unit_timeout = Some(Duration::from_millis(20));
        c.supervisor.max_retries = 1;
        c.supervisor.backoff = BackoffCfg { base_ms: 1, cap_ms: 2, ..Default::default() };
        let units = vec![ExecUnit::new("wedge", |_| -> Result<f64, UnitError> {
            thread::sleep(Duration::from_millis(400));
            Ok(0.0)
        })];
        let run = run_campaign(&c, &units, None, &[], None, None);
        match &run.results[0].outcome {
            Outcome::Quarantined { attempts, retries, .. } => {
                assert_eq!(*attempts, 2);
                assert!(retries.iter().all(|r| r.error.contains("reaped by watchdog")));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(run.trace.instants_of(InstantKind::SupervisorTimeout), 2);
    }

    #[test]
    fn unit_panics_are_isolated_into_the_retry_path() {
        let units = vec![ExecUnit::new("panics-once", |attempt: u32| {
            if attempt == 0 {
                panic!("deadlock detected in simulated barrier");
            }
            Ok(3.0f64)
        })];
        let run = run_campaign(&cfg(2), &units, None, &[], None, None);
        match &run.results[0].outcome {
            Outcome::Completed { attempts, retries, .. } => {
                assert_eq!(*attempts, 2);
                assert!(retries[0].error.starts_with("panic:"), "{retries:?}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(run.poisoned_workers, 0);
    }

    /// A panic *outside* the attempt sandbox (here: a poisoned
    /// serialization) kills only that worker; the unit it held is
    /// recovered inline and the campaign still completes everything.
    #[test]
    fn poisoned_worker_queue_is_reclaimed() {
        static ARMED: AtomicBool = AtomicBool::new(false);
        #[derive(Debug, Clone)]
        struct Poison(f64);
        impl Checkpointable for Poison {
            fn to_ckpt(&self) -> Value {
                if ARMED.swap(false, Ordering::SeqCst) {
                    panic!("journal serialization poisoned");
                }
                Value::Num(self.0)
            }
            fn from_ckpt(v: &Value) -> Option<Self> {
                v.as_f64().map(Poison)
            }
        }
        ARMED.store(true, Ordering::SeqCst);
        let units: Vec<ExecUnit<Poison>> = (0..6)
            .map(|i| ExecUnit::new(format!("p{i}"), move |_| Ok(Poison(i as f64))))
            .collect();
        let run = run_campaign(&cfg(2), &units, None, &[], None, None);
        assert_eq!(run.poisoned_workers, 1);
        assert_eq!(run.results.len(), 6, "every unit still reaches a terminal state");
        for (i, r) in run.results.iter().enumerate() {
            match &r.outcome {
                Outcome::Completed { value, .. } => assert_eq!(value.0, i as f64),
                other => panic!("{other:?}"),
            }
        }
    }

    /// The shared queue balances a slow unit: unit 0 holds its worker
    /// until the seven others have run, so the other worker runs them
    /// all.
    #[test]
    fn shared_queue_balances_a_slow_unit() {
        let others_done = Arc::new(AtomicUsize::new(0));
        let units: Vec<ExecUnit<f64>> = (0..8)
            .map(|i| {
                let others_done = Arc::clone(&others_done);
                ExecUnit::new(format!("s{i}"), move |_| {
                    if i > 0 {
                        others_done.fetch_add(1, Ordering::SeqCst);
                        return Ok(i as f64);
                    }
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while others_done.load(Ordering::SeqCst) < 7 && Instant::now() < deadline {
                        thread::sleep(Duration::from_millis(1));
                    }
                    Ok(0.0)
                })
            })
            .collect();
        let run = run_campaign(&cfg(2), &units, None, &[], None, None);
        assert_eq!(run.results.len(), 8);
        let slow = run.results[0].worker.expect("ran on a worker");
        let others: Vec<Option<usize>> = run.results[1..].iter().map(|r| r.worker).collect();
        assert_eq!(others, [Some(1 - slow); 7], "the free worker ran every other unit");
        assert_eq!(run.steals, 0);
    }

    #[test]
    fn sharded_journal_roundtrip_replays_without_rerunning() {
        let dir = tmpdir("roundtrip");
        let header = Header {
            seed: 11,
            fast: true,
            targets: (0..6).map(|i| format!("u{i}")).collect(),
        };
        let ran = Arc::new(AtomicUsize::new(0));
        let units = counted_units(6, &ran);
        let shards = create_shards(&dir, "m", &header, 3).unwrap();
        let first = run_campaign(&cfg(3), &units, Some(shards), &[], None, None);
        assert_eq!(first.results.len(), 6);
        assert_eq!(ran.load(Ordering::SeqCst), 6);

        // Resume with a different worker count: everything replays, the
        // closures never run again, and the values survive the journal.
        let (shards, merged) = resume_shards(&dir, "m", &header, 1).unwrap();
        assert_eq!(merged.len(), 6);
        let second = run_campaign(&cfg(1), &units, Some(shards), &merged, None, None);
        assert_eq!(ran.load(Ordering::SeqCst), 6, "no unit re-ran");
        assert_eq!(second.results.len(), 6);
        for (i, r) in second.results.iter().enumerate() {
            assert!(r.outcome.from_checkpoint());
            match &r.outcome {
                Outcome::Completed { value, .. } => assert_eq!(*value, i as f64 * 1.5),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            second.trace.instants_of(InstantKind::SupervisorResume),
            6
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Units the recovery lane ran after a worker died are journaled like
    /// any other: a resume replays the whole campaign and runs nothing.
    #[test]
    fn recovered_units_are_journaled_and_replay_on_resume() {
        const N: usize = 8;
        let pc = (0..u64::MAX)
            .map(|seed| ProcChaos { seed, kill_ppm: 250_000, panic_ppm: 0, stall_ppm: 0, stall_ms: 0 })
            .find(|pc| (0..N).any(|i| pc.kills_at_boundary(i)))
            .expect("a killing chaos seed exists");
        let dir = tmpdir("recovered");
        let header = Header {
            seed: 11,
            fast: true,
            targets: (0..N).map(|i| format!("u{i}")).collect(),
        };
        let ran = Arc::new(AtomicUsize::new(0));
        let units = counted_units(N, &ran);
        let mut c = cfg(2);
        c.chaos = Some(pc);
        let shards = create_shards(&dir, "m", &header, 2).unwrap();
        let first = run_campaign(&c, &units, Some(shards), &[], None, None);
        assert!(first.poisoned_workers >= 1, "the seed kills a worker");
        assert_eq!(first.results.len(), N);
        assert_eq!(ran.load(Ordering::SeqCst), N);

        let (shards, merged) = resume_shards(&dir, "m", &header, 2).unwrap();
        assert_eq!(merged.len(), N, "recovered units reached the journal");
        let second = run_campaign(&c, &units, Some(shards), &merged, None, None);
        assert_eq!(ran.load(Ordering::SeqCst), N, "no unit closure ran on resume");
        assert_eq!(digest(&first), digest(&second));
        assert!(second.results.iter().all(|r| r.outcome.from_checkpoint()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crashed campaign resumes by replay alone: the retry ledger and
    /// the quarantine verdict come back from the journal on the control
    /// lane, and no attempt is made.
    #[test]
    fn checkpoint_then_resume_replays_without_rerunning() {
        let dir = tmpdir("resume");
        let header = Header { seed: 11, fast: true, targets: vec!["a".into(), "b".into()] };
        let fail = |transience| UnitError { message: "noise".into(), transience, timed_out: false };

        // First run: "a" completes (with one retry), "b" quarantines;
        // the process "crashes" here.
        let units = vec![
            ExecUnit::new("a", move |attempt| {
                if attempt == 0 {
                    Err(fail(Transience::Transient))
                } else {
                    Ok(42.0f64)
                }
            }),
            ExecUnit::new("b", move |_| Err(fail(Transience::Permanent))),
        ];
        let shards = create_shards(&dir, "m", &header, 1).unwrap();
        run_campaign(&cfg(1), &units, Some(shards), &[], None, None);

        // Resumed run: both units replay from the journal; the closures
        // must not be called at all.
        let units: Vec<ExecUnit<f64>> = ["a", "b"]
            .map(|name| ExecUnit::new(name, |_| panic!("must replay from checkpoint")))
            .into();
        let (shards, merged) = resume_shards(&dir, "m", &header, 1).unwrap();
        let run = run_campaign(&cfg(1), &units, Some(shards), &merged, None, None);
        match &run.results[0].outcome {
            Outcome::Completed { value, attempts, retries, from_checkpoint } => {
                assert_eq!(*value, 42.0);
                assert_eq!(*attempts, 2);
                assert_eq!(retries.len(), 1);
                assert!(from_checkpoint);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            run.results[1].outcome,
            Outcome::Quarantined { from_checkpoint: true, .. }
        ));
        assert_eq!(run.trace.instants_of(InstantKind::SupervisorResume), 2);
        assert_eq!(run.trace.count_of(ompvar_obs::SpanKind::Attempt), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_flag_stops_workers_at_unit_boundaries() {
        let cancel = AtomicBool::new(true);
        let units = value_units(10);
        let run = run_campaign(&cfg(4), &units, None, &[], Some(&cancel), None);
        assert!(run.interrupted);
        assert!(run.results.is_empty(), "pre-set cancel: nothing starts");
    }

    #[test]
    fn resolve_jobs_auto_detects_on_zero() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    /// A reaped attempt whose thread is still alive when the campaign
    /// returns is reported as a leaked thread; one whose abandoned
    /// thread finishes before the campaign ends is not.
    #[test]
    fn leaked_watchdog_threads_are_counted() {
        // Still-running leak: the wedged unit sleeps far past the end
        // of the campaign, so its reaped thread is alive at return.
        let mut c = cfg(2);
        c.unit_timeout = Some(Duration::from_millis(30));
        c.supervisor.max_retries = 0;
        let units = vec![
            ExecUnit::new("wedge", |_| -> Result<f64, UnitError> {
                thread::sleep(Duration::from_secs(4));
                Ok(0.0)
            }),
            ExecUnit::new("fine", |_| Ok(1.0f64)),
        ];
        let run = run_campaign(&c, &units, None, &[], None, None);
        assert_eq!(run.leaked_threads, 1, "reaped thread still running at return");

        // Transient leak: the reaped thread finishes while a tail of
        // short units (each well under the deadline) keeps the campaign
        // alive, so the count returns to zero.
        let mut c = cfg(1);
        c.unit_timeout = Some(Duration::from_millis(40));
        let mut units = vec![ExecUnit::new("slow-once", |attempt: u32| {
            if attempt == 0 {
                thread::sleep(Duration::from_millis(120));
            }
            Ok(2.0f64)
        })];
        units.extend((0..30).map(|i| {
            ExecUnit::new(format!("tail{i}"), |_| {
                thread::sleep(Duration::from_millis(10));
                Ok(3.0f64)
            })
        }));
        let run = run_campaign(&c, &units, None, &[], None, None);
        assert_eq!(run.leaked_threads, 0, "abandoned thread completed before return");
    }

    /// Process chaos is a pure function of the chaos seed: two runs with
    /// the same seed produce identical unit outcomes and identical chaos
    /// instant counts, every unit reaches a terminal state, and each
    /// action kind actually fires for the chosen seed.
    #[test]
    fn process_chaos_replays_identically_from_one_seed() {
        const N: usize = 8;
        // Deterministically search for a seed whose 8-unit schedule
        // exercises all three actions (pure decisions, so this is cheap
        // and stable).
        let pc = (0..u64::MAX)
            .map(|seed| ProcChaos {
                seed,
                kill_ppm: 250_000,
                panic_ppm: 300_000,
                stall_ppm: 250_000,
                stall_ms: 5,
            })
            .find(|pc| {
                let kills = (0..N).filter(|&i| pc.kills_at_boundary(i)).count();
                let panics = (0..N)
                    .filter(|&i| pc.attempt_action(i, 0) == ChaosAction::Panic)
                    .count();
                let stalls = (0..N)
                    .filter(|&i| pc.attempt_action(i, 0) == ChaosAction::Stall)
                    .count();
                kills >= 1 && panics >= 1 && stalls >= 1
            })
            .expect("a qualifying chaos seed exists");

        let units = value_units(N);
        let mut c = cfg(2);
        c.chaos = Some(pc);
        let runs: Vec<CampaignRun<f64>> =
            (0..2).map(|_| run_campaign(&c, &units, None, &[], None, None)).collect();
        for run in &runs {
            assert_eq!(run.results.len(), N, "every unit reaches a terminal state");
            assert!(run.trace.instants_of(InstantKind::ChaosProcKill) >= 1);
            assert!(run.trace.instants_of(InstantKind::ChaosProcPanic) >= 1);
            assert!(run.trace.instants_of(InstantKind::ChaosProcStall) >= 1);
            assert_eq!(run.poisoned_workers, {
                let marked = (0..N).filter(|&i| pc.kills_at_boundary(i)).count();
                marked.min(2)
            });
        }
        let [a, b] = &runs[..] else { unreachable!() };
        assert_eq!(digest(a), digest(b), "outcomes replay bit-identically");
        for kind in [
            InstantKind::ChaosProcKill,
            InstantKind::ChaosProcPanic,
            InstantKind::ChaosProcStall,
        ] {
            assert_eq!(
                a.trace.instants_of(kind),
                b.trace.instants_of(kind),
                "instant counts replay for {}",
                kind.name()
            );
        }
        // Chaos panics are retried like any transient failure, so a
        // panicked attempt shows up in the retry record.
        let panicked = a.results.iter().any(|r| match &r.outcome {
            Outcome::Completed { retries, .. } | Outcome::Quarantined { retries, .. } => {
                retries.iter().any(|rr| rr.error.contains("chaos-injected panic"))
            }
        });
        assert!(panicked, "at least one chaos panic surfaced in a retry record");
    }
}

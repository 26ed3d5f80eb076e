//! Deterministic chaos: seeded fault-injecting I/O, crash points, and
//! process chaos for the campaign stack.
//!
//! Three layers, all replayable from a seed:
//!
//! - **Fault plans** ([`FaultPlan`]): a seeded schedule of injected I/O
//!   faults — EIO, ENOSPC, torn write at byte *k*, dropped rename, short
//!   append — decided purely from `(seed, op_index)`, so the same plan
//!   replays the same faults bit-identically.
//! - **Crash points** ([`CrashPoint`]): "crash after write *i*" /
//!   "crash during write *i*". Once the crash point is reached the shim
//!   freezes the disk: every later write inside the scope is suppressed
//!   (reported as `Ok`, but nothing lands), modelling a process that
//!   died mid-campaign. The crash-point explorer in the harness counts
//!   the write ops of a reference campaign and re-runs it once per op,
//!   asserting resume reproduces the uncrashed report byte for byte.
//! - **Process chaos** ([`ProcChaos`]): seeded decisions to kill a
//!   worker at a unit boundary, panic inside an attempt, or stall past
//!   the watchdog timeout — pure functions of `(seed, unit, attempt)`.
//!
//! The I/O shim is installed process-globally but **path-scoped**: only
//! writes under the installed scope directory are counted or faulted, so
//! parallel tests (and the outer campaign an inner chaos experiment runs
//! under) never interfere. Installation is serialized through a slot
//! mutex held by the returned [`ChaosGuard`]; dropping the guard
//! uninstalls the shim. Installing while already holding a guard on the
//! same thread deadlocks by construction — don't.

use crate::backoff::splitmix64;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// One kind of injected filesystem fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Generic I/O error (EIO): the write fails, nothing lands.
    Eio,
    /// Disk full (ENOSPC): the write fails, nothing lands. Classified
    /// permanent — retrying a full disk in a tight loop is pure waste.
    Enospc,
    /// Torn write: only the first `keep` bytes land, then the operation
    /// errors. Models a crash mid-`write(2)`.
    TornWrite {
        /// Bytes that make it to the medium before the tear.
        keep: usize,
    },
    /// The temp file is fully written but the rename into place is
    /// silently dropped: the caller sees `Ok`, the destination keeps its
    /// old contents. Models a metadata journal lost on power cut.
    DroppedRename,
    /// An append writes only its first `keep` bytes but reports `Ok`.
    /// Models a short `write(2)` return the caller failed to check, or a
    /// kernel buffer lost before fsync.
    ShortAppend {
        /// Bytes that actually land.
        keep: usize,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Eio => write!(f, "EIO"),
            FaultKind::Enospc => write!(f, "ENOSPC"),
            FaultKind::TornWrite { keep } => write!(f, "torn write (kept {keep} bytes)"),
            FaultKind::DroppedRename => write!(f, "dropped rename"),
            FaultKind::ShortAppend { keep } => write!(f, "short append (kept {keep} bytes)"),
        }
    }
}

/// A crash point: the write-op index at which the process "dies".
///
/// Op indices count every chaos-visible write operation inside the
/// scope, in order: atomic writes and journal appends alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Ops `0..=i` complete normally; every later op is suppressed.
    After(u64),
    /// Op `i` lands only half its bytes (torn), then the disk freezes.
    During(u64),
}

/// A seeded schedule of injected I/O faults.
///
/// Faults come from two sources, checked in order: explicit `(op, kind)`
/// entries (used by tests and the ENOSPC/EIO probes), then a seeded
/// Bernoulli roll at `rate_ppm` parts-per-million per op. Both are pure
/// functions of the plan and the op index — replays are bit-identical.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the per-op fault roll.
    pub seed: u64,
    /// Fault probability per op, in parts per million. 0 = explicit
    /// faults only.
    pub rate_ppm: u32,
    /// Explicit faults: `(op index, kind)`. Checked before the roll.
    pub at: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// A plan that injects nothing (op counting only).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A seeded random plan: each op faults with probability
    /// `rate_ppm / 1_000_000`, kind and tear position derived from the
    /// same roll.
    pub fn seeded(seed: u64, rate_ppm: u32) -> FaultPlan {
        FaultPlan { seed, rate_ppm, at: Vec::new() }
    }

    /// Add an explicit fault at op `op`.
    pub fn with_fault_at(mut self, op: u64, kind: FaultKind) -> FaultPlan {
        self.at.push((op, kind));
        self
    }

    /// The fault (if any) for write op `op` of `len` bytes.
    pub fn fault_for(&self, op: u64, len: usize) -> Option<FaultKind> {
        if let Some((_, kind)) = self.at.iter().find(|(o, _)| *o == op) {
            return Some(*kind);
        }
        if self.rate_ppm == 0 {
            return None;
        }
        let h = splitmix64(self.seed ^ splitmix64(op));
        if h % 1_000_000 >= self.rate_ppm as u64 {
            return None;
        }
        let keep = if len == 0 { 0 } else { ((h >> 40) as usize) % len };
        Some(match (h >> 32) % 5 {
            0 => FaultKind::Eio,
            1 => FaultKind::Enospc,
            2 => FaultKind::TornWrite { keep },
            3 => FaultKind::DroppedRename,
            _ => FaultKind::ShortAppend { keep },
        })
    }
}

/// The installed I/O chaos state: a fault plan plus an optional crash
/// point, scoped to one directory tree.
#[derive(Debug)]
pub struct IoChaos {
    plan: FaultPlan,
    scope: PathBuf,
    crash: Option<CrashPoint>,
    ops: AtomicU64,
    injected: AtomicU64,
    crashed: Arc<AtomicBool>,
}

impl IoChaos {
    /// Chaos over all writes under `scope`, faulting per `plan`.
    pub fn new(scope: impl Into<PathBuf>, plan: FaultPlan) -> IoChaos {
        IoChaos {
            plan,
            scope: scope.into(),
            crash: None,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            crashed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Arm a crash point.
    pub fn with_crash(mut self, cp: CrashPoint) -> IoChaos {
        self.crash = Some(cp);
        self
    }

    /// Write ops observed so far (including suppressed ones).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Whether the crash point has been reached.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// A shared handle on the crashed flag — pass it as the executor's
    /// cancel flag so a "crashed process" stops picking up new units,
    /// without any global state a nested campaign could trip over.
    pub fn crashed_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.crashed)
    }
}

/// What the shim decided for one write op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// No chaos: perform the write normally.
    Clean,
    /// The process is "dead": report `Ok` but write nothing.
    Suppress,
    /// Crash mid-write: land `keep` bytes, then freeze the disk.
    CrashDuring {
        /// Bytes that land before the crash.
        keep: usize,
    },
    /// Inject this fault.
    Fault(FaultKind),
}

/// The flavor of write consulting the shim, used to normalize fault
/// kinds that only make sense for the other flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteKind {
    /// Temp-file-plus-rename ([`crate::fsio::atomic_write`]).
    Atomic,
    /// Journal append (checkpoint manifest line).
    Append,
}

static ACTIVE: RwLock<Option<Arc<IoChaos>>> = RwLock::new(None);
static SLOT: Mutex<()> = Mutex::new(());

/// Keeps the chaos shim installed; dropping uninstalls it. Also holds
/// the slot lock, serializing concurrent installs across test threads.
pub struct ChaosGuard {
    chaos: Arc<IoChaos>,
    _slot: MutexGuard<'static, ()>,
}

impl ChaosGuard {
    /// The installed chaos state (op/fault counters, crash flag).
    pub fn chaos(&self) -> &Arc<IoChaos> {
        &self.chaos
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Install `chaos` as the process-wide I/O shim. Blocks until any other
/// holder releases the slot. The shim only affects writes under the
/// chaos scope; everything else passes through untouched and uncounted.
pub fn install(chaos: IoChaos) -> ChaosGuard {
    let slot = SLOT.lock().unwrap_or_else(|e| e.into_inner());
    let chaos = Arc::new(chaos);
    *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&chaos));
    ChaosGuard { chaos, _slot: slot }
}

/// Decide the fate of one write op. Called by `fsio::atomic_write` and
/// the checkpoint journal before touching the disk.
pub(crate) fn decide(path: &Path, kind: WriteKind, len: usize) -> Verdict {
    let guard = ACTIVE.read().unwrap_or_else(|e| e.into_inner());
    let Some(chaos) = guard.as_ref() else {
        return Verdict::Clean;
    };
    if !path.starts_with(&chaos.scope) {
        return Verdict::Clean;
    }
    let op = chaos.ops.fetch_add(1, Ordering::SeqCst);
    if chaos.crashed.load(Ordering::SeqCst) {
        return Verdict::Suppress;
    }
    match chaos.crash {
        Some(CrashPoint::After(k)) if op > k => {
            chaos.crashed.store(true, Ordering::SeqCst);
            return Verdict::Suppress;
        }
        Some(CrashPoint::During(k)) if op == k => {
            chaos.crashed.store(true, Ordering::SeqCst);
            return Verdict::CrashDuring { keep: len / 2 };
        }
        _ => {}
    }
    let Some(fault) = chaos.plan.fault_for(op, len) else {
        return Verdict::Clean;
    };
    // Normalize kinds that belong to the other write flavor: an atomic
    // write has no observable short append (the rename hides it) and an
    // append has no rename to drop.
    let fault = match (kind, fault) {
        (WriteKind::Atomic, FaultKind::ShortAppend { keep }) => FaultKind::TornWrite { keep },
        (WriteKind::Append, FaultKind::DroppedRename) => FaultKind::ShortAppend { keep: 0 },
        (_, f) => f,
    };
    chaos.injected.fetch_add(1, Ordering::SeqCst);
    Verdict::Fault(fault)
}

/// True when the installed shim has crashed and `path` is in scope —
/// i.e. writes to `path` are being suppressed. Read-only: no op is
/// counted. The journal uses this to skip its tail-repair preflight on
/// a frozen disk.
pub(crate) fn suppressed(path: &Path) -> bool {
    let guard = ACTIVE.read().unwrap_or_else(|e| e.into_inner());
    match guard.as_ref() {
        Some(c) => c.crashed.load(Ordering::SeqCst) && path.starts_with(&c.scope),
        None => false,
    }
}

/// The payload carried by injected [`io::Error`]s, so callers can tell
/// injected faults from real ones (and classify them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The injected kind.
    pub kind: FaultKind,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault: {}", self.kind)
    }
}

impl std::error::Error for InjectedFault {}

/// Build the `io::Error` for an injected fault. ENOSPC gets the real
/// errno so generic classifiers see a full disk either way.
pub fn injected_error(kind: FaultKind) -> io::Error {
    match kind {
        FaultKind::Enospc => {
            // Carry both the payload and errno 28: downcasting works for
            // the chaos-aware path, raw_os_error for everyone else.
            io::Error::new(io::ErrorKind::StorageFull, InjectedFault { kind })
        }
        _ => io::Error::other(InjectedFault { kind }),
    }
}

/// The injected fault inside `e`, if `e` came from the shim.
pub fn injected_fault(e: &io::Error) -> Option<FaultKind> {
    e.get_ref()?.downcast_ref::<InjectedFault>().map(|f| f.kind)
}

/// Seeded process chaos: decisions to kill, panic, or stall workers,
/// all pure functions of `(seed, unit, attempt)`.
#[derive(Debug, Clone, Copy)]
pub struct ProcChaos {
    /// Chaos seed; one seed replays the whole schedule.
    pub seed: u64,
    /// Probability (ppm) a worker is killed at the boundary where it
    /// picks up a given unit.
    pub kill_ppm: u32,
    /// Probability (ppm) a given attempt panics mid-flight.
    pub panic_ppm: u32,
    /// Probability (ppm) a given attempt stalls past the watchdog.
    pub stall_ppm: u32,
    /// How long a stalled attempt sleeps, in milliseconds.
    pub stall_ms: u64,
}

/// What process chaos does to one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosAction {
    /// Leave the attempt alone.
    None,
    /// Panic inside the attempt closure.
    Panic,
    /// Sleep `stall_ms` before running, to trip the watchdog.
    Stall,
}

const KILL_SALT: u64 = 0x6b69_6c6c; // "kill"
const ACT_SALT: u64 = 0x6163_7421; // "act!"

impl ProcChaos {
    /// The standard adversarial mix: kills, panics, and stalls all
    /// frequent enough to fire on a handful of units.
    pub fn standard(seed: u64) -> ProcChaos {
        ProcChaos {
            seed,
            kill_ppm: 200_000,
            panic_ppm: 250_000,
            stall_ppm: 150_000,
            stall_ms: 200,
        }
    }

    /// Whether the worker holding unit `unit` dies at the pickup
    /// boundary (before any attempt runs).
    pub fn kills_at_boundary(&self, unit: usize) -> bool {
        let h = splitmix64(self.seed ^ KILL_SALT ^ splitmix64(unit as u64));
        h % 1_000_000 < self.kill_ppm as u64
    }

    /// What happens to attempt `attempt` of unit `unit`.
    pub fn attempt_action(&self, unit: usize, attempt: u32) -> ChaosAction {
        let key = splitmix64(unit as u64) ^ splitmix64(0x1000 + attempt as u64);
        let h = splitmix64(self.seed ^ ACT_SALT ^ key);
        let roll = h % 1_000_000;
        if roll < self.panic_ppm as u64 {
            ChaosAction::Panic
        } else if roll < (self.panic_ppm + self.stall_ppm) as u64 {
            ChaosAction::Stall
        } else {
            ChaosAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ompvar_chaos_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fault_plan_is_deterministic_and_rate_bounded() {
        let plan = FaultPlan::seeded(7, 250_000);
        let a: Vec<_> = (0..400).map(|op| plan.fault_for(op, 64)).collect();
        let b: Vec<_> = (0..400).map(|op| plan.fault_for(op, 64)).collect();
        assert_eq!(a, b, "same plan, same ops, same faults");
        let hits = a.iter().filter(|f| f.is_some()).count();
        // 25% nominal over 400 ops: enormously wide tolerance, this is
        // a sanity bound, not a statistical test.
        assert!(hits > 40 && hits < 200, "{hits} faults in 400 ops");
        // Every tear position stays inside the write.
        for f in a.iter().flatten() {
            if let FaultKind::TornWrite { keep } | FaultKind::ShortAppend { keep } = f {
                assert!(*keep < 64);
            }
        }
    }

    #[test]
    fn explicit_faults_win_over_the_roll() {
        let plan = FaultPlan::seeded(7, 0).with_fault_at(3, FaultKind::Enospc);
        assert_eq!(plan.fault_for(3, 10), Some(FaultKind::Enospc));
        assert_eq!(plan.fault_for(2, 10), None);
    }

    #[test]
    fn out_of_scope_writes_are_not_counted() {
        let d = tmpdir("scope");
        let elsewhere = tmpdir("scope_other");
        let guard = install(IoChaos::new(&d, FaultPlan::none()));
        assert_eq!(decide(&elsewhere.join("x"), WriteKind::Atomic, 4), Verdict::Clean);
        assert_eq!(guard.chaos().ops(), 0, "out-of-scope op counted");
        assert_ne!(decide(&d.join("x"), WriteKind::Atomic, 4), Verdict::Suppress);
        assert_eq!(guard.chaos().ops(), 1);
        drop(guard);
        let _ = fs::remove_dir_all(&d);
        let _ = fs::remove_dir_all(&elsewhere);
    }

    #[test]
    fn crash_after_freezes_the_disk() {
        let d = tmpdir("after");
        let guard = install(IoChaos::new(&d, FaultPlan::none()).with_crash(CrashPoint::After(1)));
        let p = d.join("x");
        assert_eq!(decide(&p, WriteKind::Append, 8), Verdict::Clean); // op 0
        assert_eq!(decide(&p, WriteKind::Append, 8), Verdict::Clean); // op 1
        assert!(!guard.chaos().crashed());
        assert_eq!(decide(&p, WriteKind::Append, 8), Verdict::Suppress); // op 2
        assert!(guard.chaos().crashed());
        assert!(suppressed(&p));
        assert_eq!(decide(&p, WriteKind::Atomic, 8), Verdict::Suppress, "stays dead");
        drop(guard);
        assert!(!suppressed(&p), "uninstall clears suppression");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_during_tears_then_freezes() {
        let d = tmpdir("during");
        let guard = install(IoChaos::new(&d, FaultPlan::none()).with_crash(CrashPoint::During(0)));
        let p = d.join("x");
        assert_eq!(decide(&p, WriteKind::Atomic, 9), Verdict::CrashDuring { keep: 4 });
        assert_eq!(decide(&p, WriteKind::Atomic, 9), Verdict::Suppress);
        assert!(guard.chaos().crashed());
        drop(guard);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn fault_kinds_normalize_per_write_flavor() {
        let d = tmpdir("norm");
        let plan = FaultPlan::none()
            .with_fault_at(0, FaultKind::ShortAppend { keep: 2 })
            .with_fault_at(1, FaultKind::DroppedRename);
        let guard = install(IoChaos::new(&d, plan));
        let p = d.join("x");
        assert_eq!(
            decide(&p, WriteKind::Atomic, 8),
            Verdict::Fault(FaultKind::TornWrite { keep: 2 }),
            "atomic write can't short-append"
        );
        assert_eq!(
            decide(&p, WriteKind::Append, 8),
            Verdict::Fault(FaultKind::ShortAppend { keep: 0 }),
            "append has no rename to drop"
        );
        assert_eq!(guard.chaos().injected(), 2);
        drop(guard);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn injected_errors_round_trip_their_kind() {
        let e = injected_error(FaultKind::TornWrite { keep: 3 });
        assert_eq!(injected_fault(&e), Some(FaultKind::TornWrite { keep: 3 }));
        let e = injected_error(FaultKind::Enospc);
        assert_eq!(injected_fault(&e), Some(FaultKind::Enospc));
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        let real = io::Error::other("not injected");
        assert_eq!(injected_fault(&real), None);
    }

    #[test]
    fn proc_chaos_is_pure_and_covers_all_actions() {
        let pc = ProcChaos::standard(11);
        for unit in 0..8 {
            for attempt in 0..4 {
                assert_eq!(pc.attempt_action(unit, attempt), pc.attempt_action(unit, attempt));
            }
            assert_eq!(pc.kills_at_boundary(unit), pc.kills_at_boundary(unit));
        }
        // With the standard rates every action fires somewhere in a
        // modest grid — the schedule is adversarial, not decorative.
        let mut seen = std::collections::HashSet::new();
        let mut kills = 0;
        for seed in 0..32u64 {
            let pc = ProcChaos::standard(seed);
            for unit in 0..8 {
                seen.insert(pc.attempt_action(unit, 0));
                kills += pc.kills_at_boundary(unit) as usize;
            }
        }
        assert!(seen.contains(&ChaosAction::Panic), "no panic in grid");
        assert!(seen.contains(&ChaosAction::Stall), "no stall in grid");
        assert!(seen.contains(&ChaosAction::None), "no clean attempt in grid");
        assert!(kills > 0, "no kill in grid");
    }
}

//! The campaign supervisor: retry, quarantine, checkpoint.
//!
//! A campaign is a sequence of named *units* (experiments, or cells
//! within one). [`Supervisor::supervise`] runs one unit to a terminal
//! state: it calls the unit closure with an attempt number, classifies
//! every failure as transient or permanent ([`crate::classify`]),
//! retries transients after a seeded deterministic backoff
//! ([`crate::backoff`]) up to the per-unit budget, and quarantines units
//! that exhaust it or fail permanently. Each terminal state is journaled
//! to the checkpoint manifest before the outcome is returned, so a crash
//! at any instant loses at most the unit in flight. The supervisor only
//! writes the journal: on resume, the executor's replay pass
//! ([`crate::executor::run_campaign`]) turns journaled units back into
//! outcomes before dispatch, so they never reach `supervise`.
//!
//! Everything the supervisor does is also a trace: each attempt is an
//! [`SpanKind::Attempt`] span and every retry / quarantine / checkpoint
//! flush an instant event, on the supervisor's one lane (the executor
//! gives each worker its own supervisor and lane) — exported through the
//! usual Chrome-trace pipeline so a campaign's recovery history is
//! visible in Perfetto next to the runs themselves.

use crate::backoff::{Backoff, BackoffCfg};
use crate::checkpoint::{Entry, Manifest, RetryRecord, UnitStatus};
use crate::classify::Transience;
use ompvar_obs::json::Value;
use ompvar_obs::{EventKind, InstantKind, SpanKind, Trace, TraceEvent, CORE_UNKNOWN};
use ompvar_sim::rng::child;
use std::time::Instant;

/// A result type that can live in the checkpoint manifest.
pub trait Checkpointable: Sized {
    /// Serialize into a manifest payload.
    fn to_ckpt(&self) -> Value;
    /// Rebuild from a manifest payload; `None` marks a corrupt/alien
    /// payload (the unit then re-runs instead of replaying).
    fn from_ckpt(v: &Value) -> Option<Self>;
}

/// Supervisor policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Campaign seed: keys backoff jitter and attempt-seed derivation.
    pub seed: u64,
    /// Retries granted per unit after the first attempt.
    pub max_retries: u32,
    /// Backoff curve between attempts.
    pub backoff: BackoffCfg,
    /// Whether to actually sleep the backoff delays (tests disable this;
    /// the schedule is recorded either way).
    pub sleep: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            seed: 0,
            max_retries: 2,
            backoff: BackoffCfg::default(),
            sleep: true,
        }
    }
}

/// One unit failure, already classified by the caller (who has the typed
/// error in hand; the supervisor only needs the policy-relevant facts).
#[derive(Debug, Clone)]
pub struct UnitError {
    /// Rendered error, journaled verbatim.
    pub message: String,
    /// Retry policy class.
    pub transience: Transience,
    /// Whether the watchdog reaped this attempt for exceeding its
    /// wall-clock deadline (drives the `supervisor_timeout` instant).
    pub timed_out: bool,
}

impl UnitError {
    /// Classify-and-wrap a runtime error.
    pub fn from_rt(e: &ompvar_rt::RtError) -> UnitError {
        UnitError {
            message: e.to_string(),
            transience: crate::classify::classify(e),
            timed_out: false,
        }
    }

    /// Wrap a caught panic payload (transient by policy).
    pub fn from_panic(msg: String) -> UnitError {
        let transience = crate::classify::classify_panic(&msg);
        UnitError { message: format!("panic: {msg}"), transience, timed_out: false }
    }

    /// A watchdog-reaped hang. Timeouts are transient by policy: a hang
    /// on a loaded host is exactly the "noisy neighbor" class of failure
    /// the retry/backoff path exists for.
    pub fn timeout(msg: String) -> UnitError {
        UnitError { message: msg, transience: Transience::Transient, timed_out: true }
    }
}

/// Terminal state of one supervised unit.
#[derive(Debug)]
pub enum Outcome<R> {
    /// The unit produced a result.
    Completed {
        /// The unit's result (fresh or replayed).
        value: R,
        /// Attempts consumed (1 when it passed first try).
        attempts: u32,
        /// Retries that preceded success.
        retries: Vec<RetryRecord>,
        /// Whether the result was replayed from the checkpoint manifest.
        from_checkpoint: bool,
    },
    /// The unit failed permanently or exhausted its retry budget.
    Quarantined {
        /// Attempts consumed.
        attempts: u32,
        /// Every failure, in order; the last one is terminal.
        retries: Vec<RetryRecord>,
        /// Whether the verdict was replayed from the manifest.
        from_checkpoint: bool,
    },
}

impl<R> Outcome<R> {
    /// Attempts consumed either way.
    pub fn attempts(&self) -> u32 {
        match self {
            Outcome::Completed { attempts, .. } | Outcome::Quarantined { attempts, .. } => {
                *attempts
            }
        }
    }

    /// Whether the outcome came from the checkpoint manifest.
    pub fn from_checkpoint(&self) -> bool {
        match self {
            Outcome::Completed { from_checkpoint, .. }
            | Outcome::Quarantined { from_checkpoint, .. } => *from_checkpoint,
        }
    }
}

/// The campaign supervisor. See the module docs.
#[derive(Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    manifest: Option<Manifest>,
    events: Vec<TraceEvent>,
    t0: Instant,
    lane: u32,
    /// Recovery notes: human-readable records of degraded journaling
    /// (e.g. an ENOSPC that left a unit's checkpoint in memory only).
    /// Surfaced into the campaign report by the executor/harness.
    notes: Vec<String>,
}

impl Supervisor {
    /// Supervisor without a checkpoint journal, tracing on `lane` with
    /// its clock at `t0`: the executor gives each worker its own lane and
    /// one campaign epoch, so the merged trace shows one track per worker
    /// on a shared time base.
    pub fn new(cfg: SupervisorConfig, lane: u32, t0: Instant) -> Supervisor {
        Supervisor { cfg, manifest: None, events: Vec::new(), t0, lane, notes: Vec::new() }
    }

    /// Attach a checkpoint manifest: every terminal state is journaled
    /// to it.
    pub fn with_manifest(mut self, manifest: Manifest) -> Supervisor {
        self.manifest = Some(manifest);
        self
    }

    /// Detach the checkpoint manifest, leaving the supervisor
    /// unjournaled (the executor passes a finished worker's shard on to
    /// its recovery lane).
    pub(crate) fn take_manifest(&mut self) -> Option<Manifest> {
        self.manifest.take()
    }

    /// The active policy.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Nanoseconds since `t0` (the trace clock).
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Drain the supervisor's own trace (attempt spans, retry /
    /// quarantine / resume / checkpoint instants) for Chrome export.
    pub fn take_trace(&mut self) -> Trace {
        Trace::new(std::mem::take(&mut self.events))
    }

    fn emit(&mut self, kind: EventKind) {
        let time_ns = self.now_ns();
        self.events.push(TraceEvent { time_ns, thread: self.lane, core: CORE_UNKNOWN, kind });
    }

    /// Emit a free-standing instant on this supervisor's lane. The
    /// executor uses this for resume and process-chaos marks.
    pub fn emit_instant(&mut self, kind: InstantKind) {
        self.emit(EventKind::Instant(kind));
    }

    /// Drain the recovery notes accumulated by degraded journaling.
    pub fn take_notes(&mut self) -> Vec<String> {
        std::mem::take(&mut self.notes)
    }

    fn journal(&mut self, name: &str, entry: Entry) {
        if self.manifest.is_none() {
            return;
        }
        // Index 1 of the unit's stream, apart from the unit's own
        // backoff (index 0): an I/O retry does not replay the delays the
        // unit retry is about to use.
        let backoff = Backoff::new(self.cfg.backoff, child(self.cfg.seed, name, 1));
        let mut attempt: u32 = 0;
        loop {
            let m = self.manifest.as_mut().expect("checked above");
            match m.append(entry.clone()) {
                Ok(()) => {
                    self.emit(EventKind::Instant(InstantKind::SupervisorCheckpoint));
                    return;
                }
                Err(e) => {
                    let injected = crate::chaos::injected_fault(&e).is_some();
                    if injected {
                        self.emit(EventKind::Instant(InstantKind::ChaosIoFault));
                    }
                    let class = crate::classify::classify_io(&e);
                    if class == Transience::Transient && attempt < self.cfg.max_retries {
                        // Note: deliberately no SupervisorRetry instant —
                        // that one counts *unit* retries, and trace
                        // consumers assert on its count.
                        let delay = backoff.delay_ms(attempt);
                        if self.cfg.sleep {
                            std::thread::sleep(std::time::Duration::from_millis(delay));
                        }
                        attempt += 1;
                        continue;
                    }
                    // Degrade gracefully: the campaign keeps the result in
                    // memory and continues; only resumability is lost for
                    // this unit (it will re-run after a crash).
                    let path = self.manifest.as_ref().expect("checked above").path().to_path_buf();
                    let note = format!(
                        "checkpoint journaling degraded for unit '{name}' at {}: {e} \
                         ({}); result kept in memory, unit will re-run on resume",
                        path.display(),
                        class.name(),
                    );
                    eprintln!("warning: {note}");
                    self.notes.push(note);
                    return;
                }
            }
        }
    }

    /// Run `name` to a terminal state. `run` is invoked with the attempt
    /// number (0-based); derive per-attempt seeds with
    /// [`ompvar_sim::rng::retry`].
    pub fn supervise<R: Checkpointable>(
        &mut self,
        name: &str,
        mut run: impl FnMut(u32) -> Result<R, UnitError>,
    ) -> Outcome<R> {
        let backoff = Backoff::new(self.cfg.backoff, child(self.cfg.seed, name, 0));
        let mut retries: Vec<RetryRecord> = Vec::new();
        let mut attempt: u32 = 0;
        loop {
            self.emit(EventKind::Begin(SpanKind::Attempt));
            let result = run(attempt);
            self.emit(EventKind::End(SpanKind::Attempt));
            match result {
                Ok(value) => {
                    self.journal(
                        name,
                        Entry {
                            name: name.to_string(),
                            status: UnitStatus::Ok,
                            attempts: attempt + 1,
                            retries: retries.clone(),
                            payload: Some(value.to_ckpt()),
                        },
                    );
                    return Outcome::Completed {
                        value,
                        attempts: attempt + 1,
                        retries,
                        from_checkpoint: false,
                    };
                }
                Err(err) => {
                    if err.timed_out {
                        self.emit(EventKind::Instant(InstantKind::SupervisorTimeout));
                    }
                    let retryable =
                        err.transience == Transience::Transient && attempt < self.cfg.max_retries;
                    if retryable {
                        let backoff_ms = backoff.delay_ms(attempt);
                        retries.push(RetryRecord {
                            attempt,
                            error: err.message,
                            transience: err.transience,
                            backoff_ms,
                        });
                        self.emit(EventKind::Instant(InstantKind::SupervisorRetry));
                        if self.cfg.sleep {
                            std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                        }
                        attempt += 1;
                    } else {
                        retries.push(RetryRecord {
                            attempt,
                            error: err.message,
                            transience: err.transience,
                            backoff_ms: 0,
                        });
                        self.emit(EventKind::Instant(InstantKind::SupervisorQuarantine));
                        self.journal(
                            name,
                            Entry {
                                name: name.to_string(),
                                status: UnitStatus::Quarantined,
                                attempts: attempt + 1,
                                retries: retries.clone(),
                                payload: None,
                            },
                        );
                        return Outcome::Quarantined {
                            attempts: attempt + 1,
                            retries,
                            from_checkpoint: false,
                        };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Header;
    use ompvar_obs::json;

    impl Checkpointable for f64 {
        fn to_ckpt(&self) -> Value {
            Value::Num(*self)
        }
        fn from_ckpt(v: &Value) -> Option<Self> {
            v.as_f64()
        }
    }

    fn cfg() -> SupervisorConfig {
        SupervisorConfig { seed: 11, sleep: false, ..SupervisorConfig::default() }
    }

    fn sup() -> Supervisor {
        Supervisor::new(cfg(), 0, Instant::now())
    }

    fn transient(msg: &str) -> UnitError {
        UnitError { message: msg.into(), transience: Transience::Transient, timed_out: false }
    }

    fn permanent(msg: &str) -> UnitError {
        UnitError { message: msg.into(), transience: Transience::Permanent, timed_out: false }
    }

    fn journaled(entries: &[Entry]) -> Vec<&str> {
        entries.iter().map(|e| e.name.as_str()).collect()
    }

    #[test]
    fn first_try_success_consumes_one_attempt() {
        let mut sup = sup();
        let out = sup.supervise("unit", |_| Ok(1.5f64));
        match out {
            Outcome::Completed { value, attempts, from_checkpoint, .. } => {
                assert_eq!(value, 1.5);
                assert_eq!(attempts, 1);
                assert!(!from_checkpoint);
            }
            other => panic!("{other:?}"),
        }
        let trace = sup.take_trace();
        assert_eq!(trace.count_of(SpanKind::Attempt), 1);
        assert_eq!(trace.instants_of(InstantKind::SupervisorRetry), 0);
    }

    #[test]
    fn transient_failures_retry_then_succeed() {
        let mut sup = sup();
        let out = sup.supervise("flaky", |attempt| {
            if attempt < 2 {
                Err(transient("deadlock"))
            } else {
                Ok(2.0f64)
            }
        });
        match out {
            Outcome::Completed { attempts, retries, .. } => {
                assert_eq!(attempts, 3);
                assert_eq!(retries.len(), 2);
                assert!(retries.iter().all(|r| r.backoff_ms > 0));
            }
            other => panic!("{other:?}"),
        }
        let trace = sup.take_trace();
        assert_eq!(trace.count_of(SpanKind::Attempt), 3);
        assert_eq!(trace.instants_of(InstantKind::SupervisorRetry), 2);
    }

    #[test]
    fn permanent_failure_quarantines_without_retry() {
        let mut sup = sup();
        let out = sup.supervise("broken", |_| -> Result<f64, UnitError> {
            Err(permanent("invalid region"))
        });
        match out {
            Outcome::Quarantined { attempts, retries, .. } => {
                assert_eq!(attempts, 1);
                assert_eq!(retries.len(), 1);
                assert_eq!(retries[0].backoff_ms, 0);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sup.take_trace().instants_of(InstantKind::SupervisorQuarantine), 1);
    }

    #[test]
    fn budget_exhaustion_quarantines() {
        let mut sup = sup();
        let mut calls = 0;
        let out = sup.supervise("doomed", |_| -> Result<f64, UnitError> {
            calls += 1;
            Err(transient("timeout"))
        });
        // max_retries = 2 → 3 attempts total.
        assert_eq!(calls, 3);
        assert!(matches!(out, Outcome::Quarantined { attempts: 3, .. }));
    }

    #[test]
    fn retry_schedule_is_deterministic_per_seed_and_name() {
        let run_campaign = || {
            let mut sup = sup();
            let out = sup.supervise("flaky", |attempt| {
                if attempt < 2 {
                    Err(transient("storm"))
                } else {
                    Ok(1.0f64)
                }
            });
            match out {
                Outcome::Completed { retries, .. } => {
                    retries.iter().map(|r| r.backoff_ms).collect::<Vec<_>>()
                }
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(run_campaign(), run_campaign());
    }

    /// A transient injected I/O fault (EIO) on the journal append rides
    /// the classify→backoff→retry path: the entry lands on the retry,
    /// the campaign stays resumable, and no recovery note is needed.
    #[test]
    fn journal_eio_retries_and_lands() {
        let dir = std::env::temp_dir().join(format!("ompvar_sup_eio_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.jsonl");
        let header = Header { seed: 11, fast: true, targets: vec!["a".into()] };
        let m = Manifest::create(&path, header.clone()).unwrap();

        // Header write was outside the install window; op 0 here is the
        // first journal append.
        let plan = crate::chaos::FaultPlan::none().with_fault_at(0, crate::chaos::FaultKind::Eio);
        let guard = crate::chaos::install(crate::chaos::IoChaos::new(&dir, plan));
        let mut sup = sup().with_manifest(m);
        let out = sup.supervise("a", |_| Ok(7.0f64));
        assert_eq!(guard.chaos().injected(), 1);
        drop(guard);

        assert!(matches!(out, Outcome::Completed { attempts: 1, .. }));
        assert!(sup.take_notes().is_empty(), "retry succeeded, no degradation");
        let trace = sup.take_trace();
        assert_eq!(trace.instants_of(InstantKind::ChaosIoFault), 1);
        assert_eq!(trace.instants_of(InstantKind::SupervisorCheckpoint), 1);
        assert_eq!(
            trace.instants_of(InstantKind::SupervisorRetry),
            0,
            "journal retries must not count as unit retries"
        );
        // The journal is intact and resumable.
        let (_, entries) = Manifest::open_resume(&path, &header).unwrap();
        assert_eq!(journaled(&entries), ["a"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A permanent injected ENOSPC degrades gracefully: the unit still
    /// completes, the result stays in memory, and a typed recovery note
    /// records the lost checkpoint.
    #[test]
    fn journal_enospc_degrades_with_note() {
        let dir = std::env::temp_dir().join(format!("ompvar_sup_enospc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.jsonl");
        let header = Header { seed: 11, fast: true, targets: vec!["a".into(), "b".into()] };
        let m = Manifest::create(&path, header.clone()).unwrap();

        let plan = crate::chaos::FaultPlan::none().with_fault_at(0, crate::chaos::FaultKind::Enospc);
        let guard = crate::chaos::install(crate::chaos::IoChaos::new(&dir, plan));
        let mut sup = sup().with_manifest(m);
        let out_a = sup.supervise("a", |_| Ok(1.0f64));
        let out_b = sup.supervise("b", |_| Ok(2.0f64));
        drop(guard);

        // Both units complete — a full disk costs resumability, not
        // results ("flush what we have").
        assert!(matches!(out_a, Outcome::Completed { .. }));
        assert!(matches!(out_b, Outcome::Completed { .. }));
        let notes = sup.take_notes();
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(notes[0].contains("ENOSPC"), "{}", notes[0]);
        assert!(notes[0].contains("unit 'a'"), "{}", notes[0]);
        assert!(notes[0].contains("permanent"), "{}", notes[0]);
        // "b" journaled fine (the explicit fault hit only op 0), so a
        // resume replays b and re-runs a.
        let (_, entries) = Manifest::open_resume(&path, &header).unwrap();
        assert_eq!(journaled(&entries), ["b"], "degraded unit re-runs on resume");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeouts_emit_their_instant_and_ride_the_retry_path() {
        let mut sup = sup();
        let out = sup.supervise("hung", |attempt| {
            if attempt == 0 {
                Err(UnitError::timeout("unit exceeded deadline".into()))
            } else {
                Ok(3.0f64)
            }
        });
        assert!(matches!(out, Outcome::Completed { attempts: 2, .. }));
        let trace = sup.take_trace();
        assert_eq!(trace.instants_of(InstantKind::SupervisorTimeout), 1);
        assert_eq!(trace.instants_of(InstantKind::SupervisorRetry), 1);
    }

    #[test]
    fn pinned_lane_routes_every_event_to_one_track() {
        let mut sup = Supervisor::new(cfg(), 5, Instant::now());
        sup.supervise("u1", |_| Ok(1.0f64));
        sup.supervise("u2", |_| Ok(2.0f64));
        sup.emit_instant(InstantKind::SupervisorResume);
        let trace = sup.take_trace();
        assert!(!trace.events.is_empty());
        assert!(trace.events.iter().all(|e| e.thread == 5));
    }

    #[test]
    fn attempt_seed_keeps_base_for_first_attempt() {
        use ompvar_sim::rng::retry;
        assert_eq!(retry(1234, 0), 1234);
        assert_ne!(retry(1234, 1), 1234);
        assert_ne!(retry(1234, 1), retry(1234, 2));
        // Deterministic.
        assert_eq!(retry(1234, 3), retry(1234, 3));
    }

    #[test]
    fn supervisor_trace_is_wellformed_chrome_exportable() {
        let mut sup = sup();
        sup.supervise("u1", |a| if a == 0 { Err(transient("x")) } else { Ok(1.0f64) });
        sup.supervise("u2", |_| Ok(2.0f64));
        let trace = sup.take_trace();
        ompvar_obs::wellformed::check(&trace).expect("attempt spans pair up");
        let doc = ompvar_obs::chrome_trace(&trace, &[], "supervisor");
        json::parse(&doc).expect("valid chrome JSON");
        assert!(doc.contains("\"supervisor_retry\""), "{doc}");
    }
}

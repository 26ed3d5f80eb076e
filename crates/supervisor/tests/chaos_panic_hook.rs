//! Injected process-chaos panics unwind without the panic hook; real
//! panics keep it.
//!
//! The hook is process-global, so this binary holds exactly one test:
//! no other test may panic while the counting hook is installed.
//!
//! Under `RUST_BACKTRACE=1` the default hook captures and symbolizes a
//! backtrace per panic, which maps the binary's debug info — about
//! 21 MB of peak memory for the `chaos` experiment's four injected
//! panics. An injected panic exists to exercise the attempt's
//! `catch_unwind` sandbox, which the unwind still crosses.

use ompvar_obs::json::Value;
use ompvar_supervisor::{
    run_campaign, ChaosAction, Checkpointable, ExecUnit, ExecutorConfig, Outcome, ProcChaos,
    SupervisorConfig, UnitResult,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Val(f64);

impl Checkpointable for Val {
    fn to_ckpt(&self) -> Value {
        Value::Num(self.0)
    }
    fn from_ckpt(v: &Value) -> Option<Self> {
        v.as_f64().map(Val)
    }
}

const N: usize = 8;
const SEED: u64 = 20230714;

fn cfg(chaos: Option<ProcChaos>) -> ExecutorConfig {
    ExecutorConfig {
        jobs: 2,
        unit_timeout: None,
        supervisor: SupervisorConfig { seed: SEED, sleep: false, ..SupervisorConfig::default() },
        chaos,
    }
}

fn retries(r: &UnitResult<Val>) -> &[ompvar_supervisor::RetryRecord] {
    match &r.outcome {
        Outcome::Completed { retries, .. } | Outcome::Quarantined { retries, .. } => retries,
    }
}

#[test]
fn injected_panics_skip_the_hook_and_real_panics_keep_it() {
    // The `chaos` experiment's search: the first `SEED ^ s` whose
    // schedule kills at least one worker and panics at least one first
    // attempt (pure decisions). Short stalls keep the test quick.
    let pc = (0..u64::MAX)
        .map(|s| ProcChaos { seed: SEED ^ s, stall_ms: 5, ..ProcChaos::standard(SEED) })
        .find(|pc| {
            (0..N).any(|i| pc.kills_at_boundary(i))
                && (0..N).any(|i| pc.attempt_action(i, 0) == ChaosAction::Panic)
        })
        .expect("a qualifying process-chaos seed exists");
    let work: Vec<ExecUnit<Val>> =
        (0..N).map(|i| ExecUnit::new(format!("u{i}"), move |_| Ok(Val(i as f64)))).collect();
    let real_bug: Vec<ExecUnit<Val>> = vec![ExecUnit::new("bug", |attempt| {
        if attempt == 0 {
            panic!("a real bug");
        }
        Ok(Val(1.0))
    })];

    let calls = Arc::new(AtomicUsize::new(0));
    let previous = std::panic::take_hook();
    let counter = Arc::clone(&calls);
    std::panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));
    let chaos_run = run_campaign(&cfg(Some(pc)), &work, None, &[], None, None);
    let chaos_calls = calls.swap(0, Ordering::SeqCst);
    let bug_run = run_campaign(&cfg(None), &real_bug, None, &[], None, None);
    let bug_calls = calls.load(Ordering::SeqCst);
    // Restore before asserting, so a failure reports through the hook.
    std::panic::set_hook(previous);

    assert_eq!(chaos_run.results.len(), N, "every unit reaches a terminal state");
    let mut injected = 0;
    for r in &chaos_run.results {
        for rec in retries(r) {
            if pc.attempt_action(r.index, rec.attempt) == ChaosAction::Panic {
                let (i, a) = (r.index, rec.attempt);
                assert_eq!(rec.error, format!("panic: chaos-injected panic (unit {i}, attempt {a})"));
                injected += 1;
            }
        }
    }
    assert!(injected >= 1, "the schedule injected no panic");
    assert_eq!(chaos_calls, 0, "{injected} injected panic(s) ran the panic hook");

    assert!(matches!(bug_run.results[0].outcome, Outcome::Completed { attempts: 2, .. }));
    assert_eq!(retries(&bug_run.results[0])[0].error, "panic: a real bug");
    assert_eq!(bug_calls, 1, "a real panic must run the panic hook exactly once");
}

//! Failure classification: the supervisor's transient/permanent split.
//!
//! Every error the runtime layers can produce maps onto exactly one
//! [`Transience`]; the matches below are deliberately exhaustive (no
//! wildcard arms), so adding a new error variant anywhere in the
//! taxonomy is a compile error here until its retry policy is decided.
//! The differential fuzzer holds the other end of the contract (oracle
//! #8): a *valid* program must never produce a permanently-classified
//! error on either backend — if it does, either the program slipped
//! through validation or the classification table drifted.
//!
//! | error                         | class     | rationale                              |
//! |-------------------------------|-----------|----------------------------------------|
//! | `SimError::Deadlock`          | transient | injected lost wakeups / fault storms   |
//! | `SimError::TimeLimitExceeded` | transient | timeout: noise storm may have passed   |
//! | `SimError::EventBudgetExceeded` | transient | runaway-event backstop, same as above |
//! | `SimError::ObjectTypeMismatch`| permanent | malformed program, retry cannot help   |
//! | `SimError::InvalidParams`     | permanent | rejected at validation, retry cannot help |
//! | `RtError::Timeout`            | transient | native spin deadline, scheduler noise  |
//! | I/O: interrupted / would-block / timed out / injected EIO & torn write | transient | environmental, a retry may land |
//! | I/O: ENOSPC / read-only fs / permission denied | permanent | the disk won't heal between attempts |
//! | `RtError::InvalidRegion`      | permanent | rejected before running: validation is a pure function of the spec |
//! | panic payload                 | transient | treated like a crash of the worker     |

use ompvar_rt::RtError;
use ompvar_sim::error::SimError;

/// Whether a failure is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transience {
    /// Environmental / injected: a retry (with a fresh attempt seed) may
    /// succeed. Retried with backoff up to the per-unit budget.
    Transient,
    /// Structural: the unit can never succeed as specified. Quarantined
    /// immediately, no retries.
    Permanent,
}

impl Transience {
    /// Stable lower-case name (used in checkpoint manifests).
    pub const fn name(self) -> &'static str {
        match self {
            Transience::Transient => "transient",
            Transience::Permanent => "permanent",
        }
    }

    /// Inverse of [`Transience::name`].
    pub fn from_name(s: &str) -> Option<Transience> {
        match s {
            "transient" => Some(Transience::Transient),
            "permanent" => Some(Transience::Permanent),
            _ => None,
        }
    }
}

/// Classify a simulated-engine error.
pub fn classify_sim(e: &SimError) -> Transience {
    match e {
        // A deadlock in a supervised campaign is assumed to come from an
        // injected lost wakeup (the only way the validated programs we
        // run can deadlock); the retry runs with a different attempt
        // seed, under which the injection may not fire.
        SimError::Deadlock { .. } => Transience::Transient,
        SimError::TimeLimitExceeded { .. } => Transience::Transient,
        SimError::EventBudgetExceeded { .. } => Transience::Transient,
        SimError::ObjectTypeMismatch { .. } => Transience::Permanent,
        // A structurally invalid parameter set (e.g. a zero tick
        // period) fails validation identically on every attempt.
        SimError::InvalidParams { .. } => Transience::Permanent,
    }
}

/// Classify a runtime error from either backend.
pub fn classify(e: &RtError) -> Transience {
    match e {
        RtError::Sim(e) => classify_sim(e),
        RtError::Timeout { .. } => Transience::Transient,
        // Validation is a pure function of the spec: re-running cannot
        // change the verdict.
        RtError::InvalidRegion(_) => Transience::Permanent,
    }
}

/// Classify a caught panic payload. Panics are treated as worker crashes
/// — transient, like a node falling over mid-run.
pub fn classify_panic(_payload: &str) -> Transience {
    Transience::Transient
}

/// Classify an I/O error from the journaling path. Injected chaos
/// faults classify by their kind; real errors by `ErrorKind`/errno.
/// ENOSPC, a read-only filesystem, and permission failures are
/// permanent — the disk will look exactly the same on the next attempt,
/// so the supervisor should degrade (keep results in memory, note the
/// loss) rather than burn its retry budget. Everything else defaults to
/// transient: one more attempt against a flaky medium is cheap.
pub fn classify_io(e: &std::io::Error) -> Transience {
    use std::io::ErrorKind;
    if let Some(kind) = crate::chaos::injected_fault(e) {
        return match kind {
            crate::chaos::FaultKind::Enospc => Transience::Permanent,
            crate::chaos::FaultKind::Eio
            | crate::chaos::FaultKind::TornWrite { .. }
            | crate::chaos::FaultKind::DroppedRename
            | crate::chaos::FaultKind::ShortAppend { .. } => Transience::Transient,
        };
    }
    // errno 28 = ENOSPC, 122 = EDQUOT: full is full, however spelled.
    if matches!(e.raw_os_error(), Some(28) | Some(122)) {
        return Transience::Permanent;
    }
    match e.kind() {
        ErrorKind::StorageFull | ErrorKind::ReadOnlyFilesystem | ErrorKind::PermissionDenied => {
            Transience::Permanent
        }
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            Transience::Transient
        }
        _ => Transience::Transient,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_rt::region::RegionSpec;
    use ompvar_sim::trace::SimReport;
    use std::time::Duration;

    #[test]
    fn timeouts_and_deadlocks_are_transient() {
        assert_eq!(
            classify(&RtError::Timeout {
                construct: "barrier",
                deadline: Duration::from_secs(1),
            }),
            Transience::Transient
        );
        assert_eq!(
            classify_sim(&SimError::Deadlock { time: 0, blocked: vec![] }),
            Transience::Transient
        );
        assert_eq!(
            classify_sim(&SimError::TimeLimitExceeded {
                limit: 10,
                partial: Box::new(SimReport::default()),
            }),
            Transience::Transient
        );
        assert_eq!(
            classify_sim(&SimError::EventBudgetExceeded {
                budget: 10,
                partial: Box::new(SimReport::default()),
            }),
            Transience::Transient
        );
        assert_eq!(classify_panic("index out of bounds"), Transience::Transient);
    }

    #[test]
    fn structural_errors_are_permanent() {
        assert_eq!(
            classify(&RtError::InvalidRegion(RegionSpec::new(0, vec![]).unwrap_err())),
            Transience::Permanent
        );
        assert_eq!(
            classify_sim(&SimError::ObjectTypeMismatch {
                op: "LockAcquire",
                obj: ompvar_sim::task::ObjId(0),
                expected: "lock",
                found: "barrier",
            }),
            Transience::Permanent
        );
    }

    #[test]
    fn io_errors_classify_by_severity() {
        use crate::chaos::{injected_error, FaultKind};
        use std::io;
        // Injected faults classify by kind.
        assert_eq!(classify_io(&injected_error(FaultKind::Eio)), Transience::Transient);
        assert_eq!(
            classify_io(&injected_error(FaultKind::TornWrite { keep: 4 })),
            Transience::Transient
        );
        assert_eq!(classify_io(&injected_error(FaultKind::Enospc)), Transience::Permanent);
        // Real errnos: full disks don't heal between attempts.
        assert_eq!(
            classify_io(&io::Error::from_raw_os_error(28)),
            Transience::Permanent,
            "ENOSPC"
        );
        assert_eq!(
            classify_io(&io::Error::from(io::ErrorKind::PermissionDenied)),
            Transience::Permanent
        );
        // Flaky-medium kinds retry.
        assert_eq!(
            classify_io(&io::Error::from(io::ErrorKind::Interrupted)),
            Transience::Transient
        );
        assert_eq!(classify_io(&io::Error::other("mystery")), Transience::Transient);
    }

    #[test]
    fn invalid_params_are_permanent() {
        assert_eq!(
            classify_sim(&SimError::InvalidParams {
                param: "sched.tick_period",
                why: "must be positive",
            }),
            Transience::Permanent
        );
    }

    #[test]
    fn names_roundtrip() {
        for t in [Transience::Transient, Transience::Permanent] {
            assert_eq!(Transience::from_name(t.name()), Some(t));
        }
        assert_eq!(Transience::from_name("flaky"), None);
    }
}

//! Typed runtime errors shared by both backends.
//!
//! The simulated backend surfaces the engine's structured
//! [`SimError`] (deadlock diagnostics, virtual-time budget overruns,
//! malformed programs); the native backend surfaces wall-clock deadline
//! violations from its bounded spin waits. Either way a region run that
//! cannot complete returns an `Err` the caller can render, instead of
//! hanging or panicking.

use ompvar_analyze::Diagnostic;
use ompvar_sim::error::SimError;
use std::time::Duration;

/// Why a region run failed.
#[derive(Debug, Clone)]
pub enum RtError {
    /// The simulated engine stopped with a typed error (deadlock,
    /// time/event budget, malformed program).
    Sim(SimError),
    /// A native-backend wait did not complete within the configured
    /// deadline — the real-thread analogue of a simulated deadlock.
    Timeout {
        /// The construct kind that was waiting when the deadline hit.
        construct: &'static str,
        /// The configured deadline.
        deadline: Duration,
    },
    /// The region failed structural validation
    /// ([`crate::region::RegionSpec::validate`]) — it was rejected before
    /// either backend ran it, with the analyzer's first `Error`-severity
    /// finding.
    InvalidRegion(Box<Diagnostic>),
}

impl From<SimError> for RtError {
    fn from(e: SimError) -> Self {
        RtError::Sim(e)
    }
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::Sim(e) => write!(f, "simulated run failed: {e}"),
            RtError::Timeout {
                construct,
                deadline,
            } => write!(
                f,
                "native run exceeded its {deadline:?} deadline waiting at a {construct}"
            ),
            RtError::InvalidRegion(e) => write!(f, "invalid region: {e}"),
        }
    }
}

impl std::error::Error for RtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RtError::Sim(e) => Some(e),
            RtError::Timeout { .. } => None,
            RtError::InvalidRegion(e) => Some(&**e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = RtError::Timeout {
            construct: "barrier",
            deadline: Duration::from_secs(3),
        };
        let s = e.to_string();
        assert!(s.contains("3s"), "{s}");
        assert!(s.contains("barrier"), "{s}");
    }

    #[test]
    fn sim_errors_convert_and_chain() {
        let sim = SimError::EventBudgetExceeded {
            budget: 10,
            partial: Box::default(),
        };
        let e: RtError = sim.into();
        assert!(e.to_string().contains("event budget"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }
}

//! Runtime configuration: the affinity environment of a team, mirroring
//! the `OMP_PLACES` / `OMP_PROC_BIND` environment variables, and the
//! result type shared by both backends.

use ompvar_obs::{MetricsRegistry, RunAttribution, SpanKind, SpanStats, Trace};
use ompvar_sim::trace::{Counters, FreqSample, SemanticEffects};
use ompvar_sim::task::TaskStats;
use ompvar_topology::{Places, ProcBind};
use std::collections::BTreeMap;

/// Affinity configuration of a team.
#[derive(Debug, Clone, PartialEq)]
pub struct RtConfig {
    /// Place list (`OMP_PLACES`).
    pub places: Places,
    /// Binding policy (`OMP_PROC_BIND`).
    pub bind: ProcBind,
}

impl RtConfig {
    /// Threads pinned one-per-place, close to the master — the paper's
    /// "after thread-pinning" configuration.
    pub fn pinned_close(places: Places) -> Self {
        RtConfig {
            places,
            bind: ProcBind::Close,
        }
    }

    /// Unbound threads (`OMP_PROC_BIND=false`) — the paper's "before
    /// thread-pinning" configuration; the OS places and migrates threads.
    pub fn unbound() -> Self {
        RtConfig {
            places: Places::Threads(None),
            bind: ProcBind::False,
        }
    }

    /// Parse from `OMP_PLACES`/`OMP_PROC_BIND`-style strings.
    pub fn from_env_strs(places: &str, bind: &str) -> Result<Self, String> {
        let places = Places::parse(places).map_err(|e| e.to_string())?;
        let bind =
            ProcBind::parse(bind).ok_or_else(|| format!("invalid OMP_PROC_BIND '{bind}'"))?;
        Ok(RtConfig { places, bind })
    }
}

/// Result of running a region on either backend.
#[derive(Debug, Clone, Default)]
pub struct RegionResult {
    /// Measured intervals, µs, keyed by marker-pair id: entry `k` holds
    /// the durations of every `MarkBegin(k)`/`MarkEnd(k)` pair on the
    /// master thread, in execution order.
    pub intervals_us: BTreeMap<u32, Vec<f64>>,
    /// Wall time of the whole region, µs.
    pub wall_us: f64,
    /// Frequency-logger samples (simulated backend only, when enabled).
    pub freq_samples: Vec<FreqSample>,
    /// Engine counters (simulated backend only).
    pub counters: Option<Counters>,
    /// Per-team-thread execution statistics, indexed by rank (simulated
    /// backend only): busy/wait/preempted time, migrations, preemptions —
    /// the raw material for straggler analyses.
    pub thread_stats: Vec<TaskStats>,
    /// Schedule-independent semantic effects of the run, harvested from
    /// the backend's sync-object counters. Both backends fill this, which
    /// is what makes runs differentially comparable (see `ompvar-qcheck`).
    pub effects: SemanticEffects,
    /// Construct span/instant timeline; `Some` iff the backend ran with
    /// tracing enabled. Export with `ompvar_obs::chrome_trace` or fold
    /// into percentiles with [`RegionResult::span_stats`].
    pub trace: Option<Trace>,
    /// Causal time-attribution ledger: each thread's wall time charged to
    /// typed sources (preemption, migration, SMT co-run, sub-nominal
    /// frequency, sync wait, …) plus useful compute, with a per-thread
    /// conservation invariant. `Some` iff the backend ran with
    /// attribution enabled.
    pub attribution: Option<RunAttribution>,
    /// Final values of the region's *shared* variables after the team
    /// joins, keyed by variable id. Per-thread (private/firstprivate)
    /// copies are discarded at region end, exactly as in OpenMP. Both
    /// backends fill this; on analyzer-clean programs the values must
    /// agree bit-for-bit (differential oracle #14 in `ompvar-qcheck`).
    pub final_values: BTreeMap<u32, i64>,
}

impl RegionResult {
    /// The per-repetition times (µs) of the default measured interval 0.
    ///
    /// # Panics
    ///
    /// Panics if the region recorded no interval 0.
    pub fn reps(&self) -> &[f64] {
        self.intervals_us
            .get(&0)
            .expect("region recorded no measured interval 0")
    }

    /// Mean repetition time (µs) of the default measured interval 0 —
    /// the one number most experiments keep of a run.
    ///
    /// # Panics
    ///
    /// Panics if the region recorded no interval 0.
    pub fn mean_rep_us(&self) -> f64 {
        let reps = self.reps();
        reps.iter().sum::<f64>() / reps.len() as f64
    }

    /// Per-construct latency percentiles (p50/p95/p99/max), computed from
    /// the recorded trace. Empty when the run was not traced or recorded
    /// no spans of any kind.
    pub fn span_stats(&self) -> Vec<(SpanKind, SpanStats)> {
        self.trace
            .as_ref()
            .map(|t| MetricsRegistry::from_trace(t).snapshot())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_round_trip() {
        let c = RtConfig::from_env_strs("cores(4)", "close").unwrap();
        assert_eq!(c.bind, ProcBind::Close);
        assert_eq!(c.places, Places::Cores(Some(4)));
        assert!(RtConfig::from_env_strs("cores(4)", "sideways").is_err());
        assert!(RtConfig::from_env_strs("corez", "close").is_err());
    }

    #[test]
    fn unbound_has_no_binding() {
        assert_eq!(RtConfig::unbound().bind, ProcBind::False);
    }

    #[test]
    fn mean_rep_is_the_plain_mean_of_interval_zero() {
        let mut r = RegionResult::default();
        r.intervals_us.insert(0, vec![1.0, 2.0, 6.0]);
        r.intervals_us.insert(1, vec![100.0]);
        assert_eq!(r.mean_rep_us(), 3.0);
    }

    #[test]
    #[should_panic(expected = "no measured interval")]
    fn reps_panics_without_interval() {
        RegionResult::default().reps();
    }
}

//! Causal time attribution: the typed ledger that explains *where every
//! nanosecond of a benchmark thread's wall time went*.
//!
//! The source paper can only correlate variability with pinning, SMT and
//! DVFS from the outside; the simulator knows the exact causal event
//! behind every lost nanosecond. When attribution is enabled the engine
//! charges each slowdown it applies to a benchmark thread to a typed
//! [`AttrSource`] at the moment the slowdown is applied:
//!
//! * kernel-noise preemption (displaced-queue time + cache-refill cost),
//! * migrations (cache/TLB penalty),
//! * SMT sibling co-run throughput loss,
//! * sub-nominal frequency intervals (pulse droop and fault caps,
//!   measured against the machine's *clean* DVFS trajectory — the
//!   sustainable-turbo frequency it would run at with no noise),
//! * timer-tick charges,
//! * fault-injector stalls,
//! * sync waits, decomposed into inherent contention vs. the part
//!   explained by noise delaying other team members
//!   ([`AttrSource::NoiseDelayedArrival`]),
//! * memory-bandwidth contention and runtime bookkeeping overhead
//!   (non-noise, inherent to the program + runtime).
//!
//! The ledger satisfies a **conservation invariant**: per thread,
//! `useful_ns + Σ by_source ≤ wall time` (equality up to the time the
//! thread spent queued behind nothing or in un-flushed tails at run
//! end), checked by [`RunAttribution::check_conservation`] and enforced
//! on every fuzz case by qcheck oracle #12. Attribution never perturbs
//! the simulation: attributed and plain runs are virtual-time
//! bit-identical.

/// Number of attribution sources (length of [`AttrSource::ALL`]).
pub const N_SOURCES: usize = 10;

/// The causal source a slice of wall time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttrSource {
    /// Displaced by kernel noise: time queued while preempted, plus the
    /// post-preemption cache-refill cost. Also covers time queued behind
    /// other tasks sharing the CPU (oversubscription rotation).
    Preemption,
    /// Migration penalty (cache/TLB refill after moving hardware
    /// threads).
    Migration,
    /// Throughput lost to a busy SMT sibling hardware thread.
    SmtCoRun,
    /// Time lost to running below the clean DVFS trajectory: turbo-droop
    /// pulses and fault-injected frequency caps.
    SubNominalFreq,
    /// Timer-tick CPU charges.
    TimerTick,
    /// Fault-injector task stalls.
    FaultStall,
    /// Sync-wait time explained by noise delaying *other* team members
    /// (the classic noise-amplification path: the last arriver was
    /// preempted, everyone else pays).
    NoiseDelayedArrival,
    /// Inherent sync-wait time: load imbalance, lock contention, ordered
    /// hand-offs — present even on a sterile machine.
    SyncContention,
    /// Memory-bandwidth contention: streaming below the uncontended
    /// per-core bandwidth because siblings share the NUMA domain's bus.
    MemContention,
    /// Runtime bookkeeping: wake-up costs, lock/barrier/task dispatch
    /// overhead, spawn costs — the runtime's own price, not noise.
    RuntimeOverhead,
}

impl AttrSource {
    /// Every source, in ledger (discriminant) order.
    pub const ALL: [AttrSource; N_SOURCES] = [
        AttrSource::Preemption,
        AttrSource::Migration,
        AttrSource::SmtCoRun,
        AttrSource::SubNominalFreq,
        AttrSource::TimerTick,
        AttrSource::FaultStall,
        AttrSource::NoiseDelayedArrival,
        AttrSource::SyncContention,
        AttrSource::MemContention,
        AttrSource::RuntimeOverhead,
    ];

    /// Stable snake_case name (used in reports and Chrome tracks).
    pub fn name(self) -> &'static str {
        match self {
            AttrSource::Preemption => "preemption",
            AttrSource::Migration => "migration",
            AttrSource::SmtCoRun => "smt_corun",
            AttrSource::SubNominalFreq => "subnominal_freq",
            AttrSource::TimerTick => "timer_tick",
            AttrSource::FaultStall => "fault_stall",
            AttrSource::NoiseDelayedArrival => "noise_delayed_arrival",
            AttrSource::SyncContention => "sync_contention",
            AttrSource::MemContention => "mem_contention",
            AttrSource::RuntimeOverhead => "runtime_overhead",
        }
    }

    /// Ledger index (discriminant order, matches [`AttrSource::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this source is *noise* — external interference that a
    /// sterile machine (no noise tasks, no pulses, no faults, no ticks)
    /// never produces. Sterile runs must attribute exactly 0 ns to every
    /// noise source (qcheck oracle #12).
    pub fn is_noise(self) -> bool {
        match self {
            AttrSource::Preemption
            | AttrSource::Migration
            | AttrSource::SmtCoRun
            | AttrSource::SubNominalFreq
            | AttrSource::TimerTick
            | AttrSource::FaultStall
            | AttrSource::NoiseDelayedArrival => true,
            AttrSource::SyncContention
            | AttrSource::MemContention
            | AttrSource::RuntimeOverhead => false,
        }
    }
}

/// One benchmark thread's attribution ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadAttribution {
    /// Team rank of the thread.
    pub rank: usize,
    /// Wall time spent making *useful progress* on the program's own
    /// work at the machine's clean speed (ns).
    pub useful_ns: f64,
    /// Wall time charged to each source, indexed by
    /// [`AttrSource::index`] (ns).
    pub by_source: [f64; N_SOURCES],
}

impl ThreadAttribution {
    /// Fresh all-zero ledger for `rank`.
    pub fn new(rank: usize) -> ThreadAttribution {
        ThreadAttribution { rank, useful_ns: 0.0, by_source: [0.0; N_SOURCES] }
    }

    /// Nanoseconds charged to `source`.
    pub fn get(&self, source: AttrSource) -> f64 {
        self.by_source[source.index()]
    }

    /// Total attributed (non-useful) nanoseconds.
    pub fn attributed_ns(&self) -> f64 {
        self.by_source.iter().sum()
    }

    /// Total accounted nanoseconds: useful + attributed.
    pub fn accounted_ns(&self) -> f64 {
        self.useful_ns + self.attributed_ns()
    }

    /// Nanoseconds charged to noise sources only.
    pub fn noise_ns(&self) -> f64 {
        AttrSource::ALL
            .iter()
            .filter(|s| s.is_noise())
            .map(|&s| self.get(s))
            .sum()
    }
}

/// One cumulative ledger sample: run-wide per-source totals at `time_ns`
/// (the raw material for per-source Chrome counter tracks).
#[derive(Debug, Clone, PartialEq)]
pub struct AttrSample {
    /// Virtual time of the sample.
    pub time_ns: u64,
    /// Cumulative ns charged to each source across all threads, indexed
    /// by [`AttrSource::index`].
    pub total_by_source: [f64; N_SOURCES],
}

/// The full attribution report of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunAttribution {
    /// Per-thread ledgers, indexed by team rank.
    pub threads: Vec<ThreadAttribution>,
    /// Cumulative per-source totals over time (one sample per distinct
    /// virtual time at which anything was charged).
    pub samples: Vec<AttrSample>,
}

impl RunAttribution {
    /// Total ns charged to `source` across all threads.
    pub fn total(&self, source: AttrSource) -> f64 {
        self.threads.iter().map(|t| t.get(source)).sum()
    }

    /// Total useful ns across all threads.
    pub fn useful_total(&self) -> f64 {
        self.threads.iter().map(|t| t.useful_ns).sum()
    }

    /// Total ns charged to noise sources across all threads.
    pub fn noise_total(&self) -> f64 {
        self.threads.iter().map(ThreadAttribution::noise_ns).sum()
    }

    /// Share of each component of total accounted time, as
    /// `(name, share)` pairs: `useful_compute` first, then every
    /// [`AttrSource`] in ledger order. Shares sum to exactly 1.0 (they
    /// are computed over the component sum) unless nothing was
    /// accounted, in which case all shares are 0.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let useful = self.useful_total();
        let per: Vec<f64> = AttrSource::ALL.iter().map(|&s| self.total(s)).collect();
        let grand = useful + per.iter().sum::<f64>();
        let norm = |x: f64| if grand > 0.0 { x / grand } else { 0.0 };
        let mut out = vec![("useful_compute", norm(useful))];
        for (i, &s) in AttrSource::ALL.iter().enumerate() {
            out.push((s.name(), norm(per[i])));
        }
        out
    }

    /// Sources sorted by descending total charge, zero-charge sources
    /// omitted — the "top variance sources" view.
    pub fn top_sources(&self) -> Vec<(AttrSource, f64)> {
        let mut v: Vec<(AttrSource, f64)> = AttrSource::ALL
            .iter()
            .map(|&s| (s, self.total(s)))
            .filter(|&(_, t)| t > 0.0)
            .collect();
        // Stable order: by descending total, ties broken by ledger index
        // so the report is deterministic.
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v
    }

    /// Verify the conservation invariant against the run's wall time:
    /// for every thread, `useful + attributed ≤ wall_ns` up to a
    /// relative tolerance (floating-point slack on the charge
    /// arithmetic). Returns a description of the first violation.
    pub fn check_conservation(&self, wall_ns: f64, rel_eps: f64) -> Result<(), String> {
        let bound = wall_ns * (1.0 + rel_eps) + 1.0;
        for t in &self.threads {
            let acc = t.accounted_ns();
            if acc > bound {
                return Err(format!(
                    "rank {}: accounted {acc:.3} ns exceeds wall {wall_ns:.3} ns \
                     (useful {:.3} + attributed {:.3})",
                    t.rank,
                    t.useful_ns,
                    t.attributed_ns()
                ));
            }
            if t.useful_ns < 0.0 || t.by_source.iter().any(|&x| x < 0.0) {
                return Err(format!("rank {}: negative ledger entry", t.rank));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_names_and_indices_are_stable() {
        for (i, &s) in AttrSource::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(!s.name().is_empty());
        }
        // Every name unique.
        let mut names: Vec<_> = AttrSource::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_SOURCES);
    }

    #[test]
    fn noise_partition_is_exhaustive() {
        let noise = AttrSource::ALL.iter().filter(|s| s.is_noise()).count();
        assert_eq!(noise, 7);
        assert!(!AttrSource::SyncContention.is_noise());
        assert!(AttrSource::NoiseDelayedArrival.is_noise());
    }

    #[test]
    fn shares_sum_to_one_when_nonzero() {
        let mut t = ThreadAttribution::new(0);
        t.useful_ns = 700.0;
        t.by_source[AttrSource::Preemption.index()] = 200.0;
        t.by_source[AttrSource::SyncContention.index()] = 100.0;
        let run = RunAttribution { threads: vec![t], samples: Vec::new() };
        let shares = run.shares();
        let sum: f64 = shares.iter().map(|&(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12, "{sum}");
        assert_eq!(shares[0], ("useful_compute", 0.7));
    }

    #[test]
    fn empty_run_has_zero_shares() {
        let run = RunAttribution::default();
        assert!(run.shares().iter().all(|&(_, s)| s == 0.0));
        assert!(run.top_sources().is_empty());
        assert!(run.check_conservation(0.0, 0.0).is_ok());
    }

    #[test]
    fn conservation_detects_overflow_and_negatives() {
        let mut t = ThreadAttribution::new(3);
        t.useful_ns = 900.0;
        t.by_source[0] = 200.0;
        let run = RunAttribution { threads: vec![t.clone()], samples: Vec::new() };
        assert!(run.check_conservation(1000.0, 1e-9).is_err());
        assert!(run.check_conservation(1200.0, 1e-9).is_ok());
        t.by_source[1] = -1.0;
        let bad = RunAttribution { threads: vec![t], samples: Vec::new() };
        assert!(bad.check_conservation(1e9, 1e-9).is_err());
    }

    #[test]
    fn top_sources_sorted_descending_deterministically() {
        let mut t = ThreadAttribution::new(0);
        t.by_source[AttrSource::Migration.index()] = 5.0;
        t.by_source[AttrSource::Preemption.index()] = 5.0;
        t.by_source[AttrSource::FaultStall.index()] = 9.0;
        let run = RunAttribution { threads: vec![t], samples: Vec::new() };
        let top = run.top_sources();
        assert_eq!(top[0].0, AttrSource::FaultStall);
        // Tie broken by ledger order: Preemption before Migration.
        assert_eq!(top[1].0, AttrSource::Preemption);
        assert_eq!(top[2].0, AttrSource::Migration);
    }
}

//! Simulation outputs: markers, frequency traces and counters.

use crate::task::{TaskId, TaskStats};
use crate::time::Time;
use ompvar_obs::{RunAttribution, Trace};

/// One timestamped marker emitted by a task's `Mark` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerRecord {
    /// Virtual time of the marker.
    pub time: Time,
    /// Emitting task.
    pub task: TaskId,
    /// Marker id chosen by the program author.
    pub marker: u32,
}

/// One sample of the frequency logger: the frequency of every *core*
/// (physical core, not hardware thread) at `time`.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqSample {
    /// Virtual time of the sample.
    pub time: Time,
    /// Per-core frequency in GHz (idle cores report their idle frequency,
    /// as the Linux `scaling_cur_freq` sysfs file does).
    pub core_ghz: Vec<f32>,
}

/// Aggregate engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Kernel-noise arrivals that preempted a user task.
    pub preemptions: u64,
    /// Task migrations between hardware threads.
    pub migrations: u64,
    /// Total noise arrivals (including those landing on idle CPUs).
    pub noise_events: u64,
    /// Total CPU time consumed by noise tasks (ns).
    pub noise_busy: Time,
    /// Timer ticks charged to running tasks.
    pub ticks: u64,
    /// Socket frequency retargets (any change of the applied frequency).
    pub freq_transitions: u64,
    /// Events processed by the engine.
    pub events: u64,
    /// Fault injections delivered from the fault plan.
    pub faults_injected: u64,
    /// Sync-object wakeups swallowed by a lost-wakeup fault.
    pub lost_wakeups: u64,
}

/// Schedule-independent semantic effects of one region run.
///
/// Every field is a deterministic function of the executed region — not
/// of thread interleaving, schedule kind, or timing — so two correct
/// backends executing the same region must agree on all of them exactly.
/// The differential fuzzer (`ompvar-qcheck`) compares these against each
/// other and against the statically predicted effects of the construct
/// tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SemanticEffects {
    /// Per-thread barrier arrivals (team size × completed rounds).
    pub barrier_arrivals: u64,
    /// Critical/lock section entries (mutual-exclusion oracle).
    pub lock_entries: u64,
    /// Reduction combine operations (one per thread per reduction).
    pub reduction_combines: u64,
    /// Atomic RMW operations.
    pub atomic_ops: u64,
    /// Work-shared loop iterations executed, summed over all loops.
    pub loop_iters: u64,
    /// Completed work-shared loop passes (generations).
    pub loop_passes: u64,
    /// Ordered-section entries completed in ticket order.
    pub ordered_entries: u64,
    /// `single` construct entries (every thread reaching the construct).
    pub single_entries: u64,
    /// `single` bodies executed — exactly one per round.
    pub single_winners: u64,
    /// Explicit tasks spawned.
    pub tasks_spawned: u64,
    /// Explicit tasks executed to completion.
    pub tasks_executed: u64,
    /// Observed mutual-exclusion violations (must be zero).
    pub mutex_violations: u64,
    /// Observed ordered-sequence violations (must be zero).
    pub ordered_violations: u64,
}

/// Per-sync-object effect counters surfaced by the engine, indexed by
/// [`crate::task::ObjId`] in allocation order. The runtime layer, which
/// knows which construct each object belongs to, folds these into a
/// [`SemanticEffects`] summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjEffects {
    /// Barrier: total per-thread arrivals.
    Barrier {
        /// Arrivals across all rounds.
        arrivals: u64,
    },
    /// Lock: total entries.
    Lock {
        /// Times the lock was entered.
        entries: u64,
    },
    /// Work-shared loop.
    Loop {
        /// Iterations handed out across all generations.
        iters: u64,
        /// Completed passes (generation resets).
        passes: u64,
        /// Completed ordered sections.
        ordered_done: u64,
    },
    /// Contended atomic: total RMW operations.
    Atomic {
        /// RMW operations started.
        ops: u64,
    },
    /// `single` tracker.
    Single {
        /// Entries (every thread reaching the construct).
        entries: u64,
        /// Rounds won (bodies executed).
        winners: u64,
    },
    /// Explicit-task pool.
    TaskPool {
        /// Tasks spawned into the pool.
        spawned: u64,
        /// Tasks executed to completion.
        executed: u64,
    },
}

/// Everything the simulator reports after a run.
#[derive(Clone, Default)]
pub struct SimReport {
    /// Virtual time when the last user task finished.
    pub final_time: Time,
    /// User tasks still unfinished when the run stopped (nonzero only
    /// when the virtual-time limit cut the run short — e.g. a deadlocked
    /// barrier).
    pub unfinished: usize,
    /// All markers, in emission order.
    pub markers: Vec<MarkerRecord>,
    /// Frequency-logger samples (empty when the logger was not enabled).
    pub freq_samples: Vec<FreqSample>,
    /// Aggregate counters.
    pub counters: Counters,
    /// Per-user-task statistics, indexed by spawn order.
    pub task_stats: Vec<(TaskId, TaskStats)>,
    /// Per-sync-object effect counters, indexed by object id in
    /// allocation order (see [`ObjEffects`]).
    pub obj_effects: Vec<ObjEffects>,
    /// Construct span/instant timeline; `Some` iff tracing was enabled
    /// via [`crate::engine::Simulator::enable_tracing`].
    pub trace: Option<Trace>,
    /// Causal time-attribution ledger; `Some` iff attribution was enabled
    /// via [`crate::engine::Simulator::enable_attribution`].
    pub attribution: Option<RunAttribution>,
}

/// Hand-written so the rendering with `attribution: None` is
/// byte-identical to the pre-attribution derived output: the golden
/// determinism digests hash `format!("{report:?}")`, and adding a trailing
/// `attribution: None` field would have perturbed all of them. The field
/// is only rendered when present.
impl std::fmt::Debug for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SimReport");
        d.field("final_time", &self.final_time)
            .field("unfinished", &self.unfinished)
            .field("markers", &self.markers)
            .field("freq_samples", &self.freq_samples)
            .field("counters", &self.counters)
            .field("task_stats", &self.task_stats)
            .field("obj_effects", &self.obj_effects)
            .field("trace", &self.trace);
        if self.attribution.is_some() {
            d.field("attribution", &self.attribution);
        }
        d.finish()
    }
}

impl SimReport {
    /// Times of every marker with id `marker`, emitted by `task`, in order.
    pub fn marker_times(&self, task: TaskId, marker: u32) -> Vec<Time> {
        self.markers
            .iter()
            .filter(|m| m.task == task && m.marker == marker)
            .map(|m| m.time)
            .collect()
    }

    /// Durations between consecutive `(begin, end)` marker pairs of a
    /// task: the canonical way to extract per-repetition times.
    ///
    /// # Panics
    ///
    /// Panics if begin/end markers are unpaired or interleaved out of
    /// order — that indicates a malformed program.
    pub fn intervals(&self, task: TaskId, begin: u32, end: u32) -> Vec<Time> {
        let b = self.marker_times(task, begin);
        let e = self.marker_times(task, end);
        assert_eq!(
            b.len(),
            e.len(),
            "unpaired begin/end markers ({} vs {})",
            b.len(),
            e.len()
        );
        b.iter()
            .zip(e.iter())
            .map(|(&tb, &te)| {
                assert!(te >= tb, "end marker before begin marker");
                te - tb
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_pair_up() {
        let r = SimReport {
            markers: vec![
                MarkerRecord { time: 10, task: TaskId(0), marker: 1 },
                MarkerRecord { time: 25, task: TaskId(0), marker: 2 },
                MarkerRecord { time: 30, task: TaskId(0), marker: 1 },
                MarkerRecord { time: 70, task: TaskId(0), marker: 2 },
                MarkerRecord { time: 5, task: TaskId(1), marker: 1 },
            ],
            ..Default::default()
        };
        assert_eq!(r.intervals(TaskId(0), 1, 2), vec![15, 40]);
        assert_eq!(r.marker_times(TaskId(1), 1), vec![5]);
    }

    #[test]
    #[should_panic(expected = "unpaired")]
    fn unpaired_markers_panic() {
        let r = SimReport {
            markers: vec![MarkerRecord { time: 10, task: TaskId(0), marker: 1 }],
            ..Default::default()
        };
        r.intervals(TaskId(0), 1, 2);
    }
}

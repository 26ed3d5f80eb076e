//! The construct IR: a backend-independent description of an OpenMP-style
//! parallel region.
//!
//! Benchmarks (EPCC, BabelStream) describe their work as a tree of
//! [`Construct`]s executed SPMD-style by every thread of the team. The
//! same description runs on the `ompvar-rt` native backend (real
//! threads) and on its simulated backend (virtual time on a modeled
//! machine), which is what makes measurements comparable. The IR lives
//! in this crate — rather than in the runtime — so that the static
//! analyzer ([`crate::passes`]) can be the single authority on what a
//! well-formed program is, and both backends simply consume its verdict
//! through [`RegionSpec::validate`].

use ompvar_sim::task::CorunClass;
use ompvar_sim::trace::SemanticEffects;

/// Loop schedule, mirroring `omp for schedule(...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `schedule(static, chunk)`.
    Static {
        /// Chunk size (iterations).
        chunk: u64,
    },
    /// `schedule(dynamic, chunk)`.
    Dynamic {
        /// Chunk size (iterations).
        chunk: u64,
    },
    /// `schedule(guided, min_chunk)`.
    Guided {
        /// Minimum chunk size (iterations).
        min_chunk: u64,
    },
}

impl Schedule {
    /// Parse the `OMP_SCHEDULE` syntax: `kind[,chunk]` with kind one of
    /// `static`, `dynamic`, `guided` (case-insensitive). A missing chunk
    /// defaults to 1 for dynamic/guided and to 1 for static (this
    /// runtime's `static` is always chunked; a chunk of 0 is rejected).
    pub fn parse(s: &str) -> Option<Schedule> {
        let mut it = s.split(',');
        let kind = it.next()?.trim().to_ascii_lowercase();
        let chunk: u64 = match it.next() {
            Some(c) => c.trim().parse().ok()?,
            None => 1,
        };
        if it.next().is_some() || chunk == 0 {
            return None;
        }
        match kind.as_str() {
            "static" => Some(Schedule::Static { chunk }),
            "dynamic" => Some(Schedule::Dynamic { chunk }),
            "guided" => Some(Schedule::Guided { min_chunk: chunk }),
            _ => None,
        }
    }

    /// Short label used in reports, e.g. `dynamic_1`.
    pub fn label(&self) -> String {
        match self {
            Schedule::Static { chunk } => format!("static_{chunk}"),
            Schedule::Dynamic { chunk } => format!("dynamic_{chunk}"),
            Schedule::Guided { min_chunk } => format!("guided_{min_chunk}"),
        }
    }
}

/// Data-sharing clause of a declared variable, mirroring
/// `shared`/`private`/`firstprivate` on an OpenMP parallel directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    /// One cell shared by the whole team, initialized to the declared
    /// value. Unsynchronized concurrent writes are data races (the
    /// `OMPV30x` analyzer surface).
    Shared,
    /// Every thread owns an independent copy. Like OpenMP `private` the
    /// copy does not see the declared initializer; it starts at 0.
    Private,
    /// Every thread owns an independent copy initialized from the
    /// declared value.
    Firstprivate,
}

impl Clause {
    /// Stable lowercase label, as it appears in diagnostics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Clause::Shared => "shared",
            Clause::Private => "private",
            Clause::Firstprivate => "firstprivate",
        }
    }
}

/// Reduction operator over the value domain (wrapping `i64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedOp {
    /// `reduction(+)`: wrapping sum.
    Sum,
    /// `reduction(max)`.
    Max,
    /// `reduction(min)`.
    Min,
}

impl RedOp {
    /// Stable label (`+`, `max`, `min`).
    pub fn label(&self) -> &'static str {
        match self {
            RedOp::Sum => "+",
            RedOp::Max => "max",
            RedOp::Min => "min",
        }
    }

    /// Combine an accumulator with one contribution.
    pub fn combine(&self, acc: i64, x: i64) -> i64 {
        match self {
            RedOp::Sum => acc.wrapping_add(x),
            RedOp::Max => acc.max(x),
            RedOp::Min => acc.min(x),
        }
    }
}

/// A write micro-op's update rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Store the value.
    Set(i64),
    /// Wrapping add (commutative, so concurrent `Add`s under a lock are
    /// value-deterministic in any interleaving).
    Add(i64),
}

impl WriteOp {
    /// Apply this write to the current value.
    pub fn apply(&self, v: i64) -> i64 {
        match self {
            WriteOp::Set(x) => *x,
            WriteOp::Add(x) => v.wrapping_add(*x),
        }
    }
}

/// One named scalar variable of the region's data environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Variable id; construct micro-ops reference the variable by id.
    pub id: u32,
    /// Human-readable name used in diagnostics.
    pub name: String,
    /// Data-sharing clause.
    pub clause: Clause,
    /// Declared initial value (ignored by `private`, which starts at 0).
    pub init: i64,
}

impl VarDecl {
    /// The initial value of one copy of this variable, per its clause.
    pub fn initial(&self) -> i64 {
        match self.clause {
            Clause::Private => 0,
            Clause::Shared | Clause::Firstprivate => self.init,
        }
    }
}

/// One construct executed by every thread of the team, in program order.
#[derive(Debug, Clone, PartialEq)]
pub enum Construct {
    /// Spin-compute for the given number of microseconds of *nominal*
    /// (max-frequency, uncontended) time — the EPCC `delay()` primitive.
    DelayUs(f64),
    /// Compute a fixed cycle count with an explicit SMT class.
    Compute {
        /// Cycles of work.
        cycles: f64,
        /// SMT co-run class.
        class: CorunClass,
    },
    /// Stream this many bytes of memory traffic per thread.
    StreamBytes(f64),
    /// Work-shared loop: `total_iters` iterations of `delay(body_us)`
    /// distributed by `schedule`, followed by the implicit end-of-loop
    /// barrier unless `nowait`.
    ParallelFor {
        /// Schedule kind and chunking.
        schedule: Schedule,
        /// Total loop iterations across the team.
        total_iters: u64,
        /// Per-iteration body duration (µs of nominal time).
        body_us: f64,
        /// Per-iteration ordered section (µs), if this is an ordered loop.
        ordered_us: Option<f64>,
        /// Skip the implicit barrier at loop end.
        nowait: bool,
    },
    /// Explicit team barrier.
    Barrier,
    /// `omp critical` around `delay(body_us)`.
    Critical {
        /// Critical-section body (µs).
        body_us: f64,
    },
    /// Explicit lock/unlock around `delay(body_us)` (EPCC LOCK/UNLOCK).
    LockUnlock {
        /// Locked-section body (µs).
        body_us: f64,
    },
    /// A *named*-lock scope: acquire the shared lock `lock`, execute
    /// `body` while holding it, release. Unlike
    /// [`Construct::LockUnlock`], whose lock is private to the construct
    /// site, the same `lock` id names the same lock object everywhere in
    /// the region — so nested `Locked` scopes express acquisition
    /// *orders*, the raw material of the analyzer's may-deadlock pass
    /// (`omp_set_lock` on a shared `omp_lock_t`).
    Locked {
        /// Shared lock id; equal ids alias the same lock object.
        lock: u32,
        /// Constructs executed while holding the lock.
        body: Vec<Construct>,
    },
    /// `omp atomic` update of a shared scalar.
    Atomic,
    /// `omp single` with a `delay(body_us)` body (implicit barrier).
    Single {
        /// Single-region body (µs).
        body_us: f64,
    },
    /// `omp parallel`-style enclosed region: models fork/join around the
    /// body (a barrier on entry and exit).
    ParallelRegion {
        /// Constructs executed inside the region.
        body: Vec<Construct>,
    },
    /// Reduction: every thread computes `delay(body_us)` then combines
    /// into a shared accumulator (serialized), then the team barrier.
    Reduction {
        /// Per-thread local work (µs).
        body_us: f64,
    },
    /// Explicit tasking (`omp task` + `taskwait`): spawners create
    /// `per_spawner` tasks of `delay(body_us)` each; the whole team then
    /// reaches a task-scheduling point, executes the queued tasks, waits
    /// for completion, and synchronizes (EPCC taskbench style).
    Tasks {
        /// Tasks created by each spawning thread.
        per_spawner: u32,
        /// Task body duration (µs of nominal time).
        body_us: f64,
        /// Only the master spawns (EPCC "MASTER TASK"); otherwise every
        /// thread spawns (EPCC "PARALLEL TASK").
        master_only: bool,
    },
    /// Master-only timestamp: begin of measured interval `id`.
    MarkBegin(u32),
    /// Master-only timestamp: end of measured interval `id`.
    MarkEnd(u32),
    /// Repeat `body` `count` times.
    Repeat {
        /// Repetition count.
        count: u32,
        /// Repeated constructs.
        body: Vec<Construct>,
    },
    /// Read the variable `var` (every thread loads its visible copy).
    /// Free of timed work; exists so the data-race pass sees read sets
    /// and the liveness pass sees uses.
    VarRead {
        /// Referenced variable id.
        var: u32,
    },
    /// Write the variable `var` with `op` (every thread performs the
    /// update on its visible copy). On a `shared` variable the backends
    /// execute the update as one short atomic read-modify-write, priced
    /// like [`Construct::Atomic`]; the *analyzer* still treats an
    /// unsynchronized shared write as a race, because a real OpenMP
    /// program's plain assignment carries no such atomicity.
    VarWrite {
        /// Referenced variable id.
        var: u32,
        /// Update rule.
        op: WriteOp,
    },
    /// Work-shared loop with a `reduction(op: var)` clause: iteration
    /// `i` (of `total_iters`, distributed by `schedule`) runs
    /// `delay(body_us)` and contributes `delta.wrapping_add(i)` to each
    /// thread's private partial; partials are then combined into the
    /// shared `var` (serialized, one combine per thread) and the team
    /// synchronizes at the implicit end-of-loop barrier. The aggregate
    /// is independent of the iteration-to-thread assignment, which is
    /// exactly the commutative-write safety the race pass credits.
    ReductionFor {
        /// Reduction target: must be declared `shared`.
        var: u32,
        /// Reduction operator.
        red: RedOp,
        /// Schedule kind and chunking.
        schedule: Schedule,
        /// Total loop iterations across the team.
        total_iters: u64,
        /// Per-iteration body duration (µs of nominal time).
        body_us: f64,
        /// Base contribution; iteration `i` contributes
        /// `delta.wrapping_add(i as i64)`.
        delta: i64,
    },
}

impl Construct {
    /// Stable kind name, used in diagnostic spans and coverage tallies.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Construct::DelayUs(_) => "DelayUs",
            Construct::Compute { .. } => "Compute",
            Construct::StreamBytes(_) => "StreamBytes",
            Construct::ParallelFor { .. } => "ParallelFor",
            Construct::Barrier => "Barrier",
            Construct::Critical { .. } => "Critical",
            Construct::LockUnlock { .. } => "LockUnlock",
            Construct::Locked { .. } => "Locked",
            Construct::Atomic => "Atomic",
            Construct::Single { .. } => "Single",
            Construct::ParallelRegion { .. } => "ParallelRegion",
            Construct::Reduction { .. } => "Reduction",
            Construct::Tasks { .. } => "Tasks",
            Construct::MarkBegin(_) => "MarkBegin",
            Construct::MarkEnd(_) => "MarkEnd",
            Construct::Repeat { .. } => "Repeat",
            Construct::VarRead { .. } => "VarRead",
            Construct::VarWrite { .. } => "VarWrite",
            Construct::ReductionFor { .. } => "ReductionFor",
        }
    }
}

/// The statically known aggregate of a [`Construct::ReductionFor`]'s
/// contributions `delta.wrapping_add(i)` over `i in 0..total_iters`,
/// folded with `red` — `None` when the loop is empty. Both backends and
/// the canonical value evaluator agree on this quantity by construction.
pub fn reduction_aggregate(red: RedOp, total_iters: u64, delta: i64) -> Option<i64> {
    if total_iters == 0 {
        return None;
    }
    // Does delta + (total_iters - 1) overflow i64? If so the wrapped
    // contributions cover both i64::MAX and i64::MIN.
    let wraps = (delta as i128) + (total_iters as i128 - 1) > i64::MAX as i128;
    Some(match red {
        RedOp::Sum => {
            // Σ (delta + i) = total·delta + total·(total-1)/2, all
            // mod 2^64 (the even factor is halved before multiplying so
            // the division is exact).
            let tri = if total_iters.is_multiple_of(2) {
                (total_iters / 2).wrapping_mul(total_iters.wrapping_sub(1))
            } else {
                total_iters.wrapping_mul(total_iters.wrapping_sub(1) / 2)
            } as i64;
            (total_iters as i64).wrapping_mul(delta).wrapping_add(tri)
        }
        RedOp::Max => {
            if wraps {
                i64::MAX
            } else {
                ((delta as i128) + (total_iters as i128) - 1) as i64
            }
        }
        RedOp::Min => {
            if wraps {
                i64::MIN
            } else {
                delta
            }
        }
    })
}

/// A structural defect of a [`RegionSpec`] found by
/// [`RegionSpec::validate`]. Programs with any of these defects have no
/// defined execution on at least one backend, so they are rejected up
/// front with a typed error instead of panicking mid-run.
///
/// Each variant corresponds to one `Error`-severity diagnostic code of
/// the analyzer (see [`crate::diag::DiagCode`]); `validate()` surfaces
/// the first such diagnostic as its typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The team has zero threads.
    ZeroThreads,
    /// A `Repeat` construct has `count == 0`.
    ZeroCountRepeat,
    /// A `ParallelFor` has `total_iters == 0`.
    ZeroIterationLoop,
    /// A schedule carries a zero chunk (or min-chunk) size.
    ZeroChunk,
    /// A duration/size parameter is negative, NaN or infinite.
    InvalidWork {
        /// Which construct carried the bad value.
        construct: &'static str,
    },
    /// A `MarkBegin`/`MarkEnd` pair does not balance within its block:
    /// an end without a matching open begin, a re-begin of an id that is
    /// already open, or a begin left open at block end.
    UnmatchedMark {
        /// The offending marker id.
        id: u32,
    },
    /// A `nowait` loop inside a `Repeat { count > 1 }` whose body has no
    /// full-team synchronization: re-entering a work-shared loop before
    /// every thread has observed the previous pass's exhaustion corrupts
    /// its generation tracking, so such programs are rejected.
    RepeatedNowaitLoop,
    /// A `Locked` scope re-acquires a lock id it already holds:
    /// guaranteed self-deadlock on the first thread to reach it.
    SelfNestedLock {
        /// The re-acquired lock id.
        lock: u32,
    },
    /// A team-synchronizing construct executes while a named lock is
    /// held: threads blocked on the lock can never reach the rendezvous,
    /// so the holder waits forever (deadlock for any team of two or
    /// more; rejected uniformly so validity does not depend on team
    /// size).
    SyncUnderLock {
        /// Kind name of the synchronizing construct.
        construct: &'static str,
    },
    /// A variable micro-op references an id with no declaration in the
    /// region's data environment.
    UndeclaredVar {
        /// The undeclared variable id.
        var: u32,
    },
    /// Two declarations in the data environment share one variable id.
    DuplicateVarDecl {
        /// The doubly declared variable id.
        var: u32,
    },
    /// A `ReductionFor` targets a variable that is not declared
    /// `shared`: a reduction into a per-thread copy has no defined
    /// combined result.
    ReductionNotShared {
        /// The offending variable id.
        var: u32,
    },
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::ZeroThreads => write!(f, "team needs at least one thread"),
            RegionError::ZeroCountRepeat => write!(f, "Repeat with count 0"),
            RegionError::ZeroIterationLoop => write!(f, "ParallelFor with 0 iterations"),
            RegionError::ZeroChunk => write!(f, "schedule with chunk size 0"),
            RegionError::InvalidWork { construct } => {
                write!(f, "{construct} has a negative or non-finite work parameter")
            }
            RegionError::UnmatchedMark { id } => {
                write!(f, "unbalanced MarkBegin/MarkEnd for interval {id}")
            }
            RegionError::RepeatedNowaitLoop => write!(
                f,
                "nowait loop repeated without an intervening full-team synchronization"
            ),
            RegionError::SelfNestedLock { lock } => {
                write!(f, "lock {lock} acquired while already held (self-deadlock)")
            }
            RegionError::SyncUnderLock { construct } => {
                write!(f, "{construct} synchronizes the team while a lock is held")
            }
            RegionError::UndeclaredVar { var } => {
                write!(f, "variable {var} referenced but not declared")
            }
            RegionError::DuplicateVarDecl { var } => {
                write!(f, "variable {var} declared more than once")
            }
            RegionError::ReductionNotShared { var } => {
                write!(f, "reduction over variable {var}, which is not declared shared")
            }
        }
    }
}

impl std::error::Error for RegionError {}

/// A full region specification: the team size, the data environment,
/// and the construct list.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Number of OpenMP threads in the team.
    pub n_threads: usize,
    /// Construct list, executed SPMD by every thread.
    pub constructs: Vec<Construct>,
    /// Declared variables (the value-level data environment). Empty for
    /// the classic, purely structural programs.
    pub vars: Vec<VarDecl>,
}

impl RegionSpec {
    /// Validated constructor: rejects malformed regions with a typed
    /// [`RegionError`] instead of panicking later inside a backend.
    pub fn new(n_threads: usize, constructs: Vec<Construct>) -> Result<Self, RegionError> {
        let spec = RegionSpec {
            n_threads,
            constructs,
            vars: Vec::new(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Validated constructor with a data environment.
    pub fn with_vars(
        n_threads: usize,
        vars: Vec<VarDecl>,
        constructs: Vec<Construct>,
    ) -> Result<Self, RegionError> {
        let spec = RegionSpec {
            n_threads,
            constructs,
            vars,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Declaration of variable `id`, if any (with duplicate ids the
    /// first declaration wins, matching the analyzer's view).
    pub fn var(&self, id: u32) -> Option<&VarDecl> {
        self.vars.iter().find(|d| d.id == id)
    }

    /// Structurally validate the region: the contract every program must
    /// meet before either backend will run it (and the contract the
    /// `ompvar-qcheck` generator promises to uphold).
    ///
    /// This is the `Error`-severity surface of the static analyzer: it
    /// runs the passes of [`crate::passes::analyze`] that can reject a
    /// program and surfaces the first `Error`-severity diagnostic — the
    /// one `analyze(self).first_error()` reports — as its typed
    /// [`RegionError`]. `Warn`/`Info` findings never fail validation.
    pub fn validate(&self) -> Result<(), RegionError> {
        match crate::passes::analyze_errors(self).first_error() {
            Some(d) => Err(d
                .cause
                .expect("error-severity diagnostics carry their RegionError")),
            None => Ok(()),
        }
    }

    /// The semantic effects a correct execution of this region *must*
    /// produce, computed statically from the construct tree. Effects are
    /// schedule-independent (iteration totals, arrivals, combine counts),
    /// so this single prediction applies to both backends. Delegates to
    /// [`crate::predict::effects`], the analyzer's effect-prediction
    /// pass — the single source of truth the differential-fuzzing
    /// oracles compare against.
    pub fn expected_effects(&self) -> SemanticEffects {
        crate::predict::effects(self)
    }

    /// The canonical EPCC-style measurement wrapper: two *unmeasured*
    /// warm-up repetitions (letting thread placement and the frequency
    /// governor settle, as a real run does before its first timestamp),
    /// then `outer_reps` repetitions of {barrier; mark-begin; `inner` ×
    /// body; mark-end}, measured as interval 0.
    pub fn measured(
        n_threads: usize,
        outer_reps: u32,
        inner_reps: u32,
        body: Vec<Construct>,
    ) -> Self {
        let warmup = Construct::Repeat {
            count: 2,
            body: vec![
                Construct::Barrier,
                Construct::Repeat {
                    count: inner_reps,
                    body: body.clone(),
                },
            ],
        };
        RegionSpec::new(
            n_threads,
            vec![
                warmup,
                Construct::Repeat {
                    count: outer_reps,
                    body: vec![
                        Construct::Barrier,
                        Construct::MarkBegin(0),
                        Construct::Repeat {
                            count: inner_reps,
                            body,
                        },
                        Construct::MarkEnd(0),
                    ],
                },
            ],
        )
        .expect("measured() wrapper is structurally valid")
    }
}

/// Nominal cycles for `delay(us)` on a machine with the given max
/// frequency: EPCC calibrates its delay loop at full turbo.
pub fn delay_cycles(us: f64, max_ghz: f64) -> f64 {
    us * 1e3 * max_ghz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_labels() {
        assert_eq!(Schedule::Static { chunk: 1 }.label(), "static_1");
        assert_eq!(Schedule::Dynamic { chunk: 8 }.label(), "dynamic_8");
        assert_eq!(Schedule::Guided { min_chunk: 4 }.label(), "guided_4");
    }

    #[test]
    fn schedule_parsing() {
        assert_eq!(Schedule::parse("dynamic,1"), Some(Schedule::Dynamic { chunk: 1 }));
        assert_eq!(Schedule::parse("STATIC, 8"), Some(Schedule::Static { chunk: 8 }));
        assert_eq!(Schedule::parse("guided"), Some(Schedule::Guided { min_chunk: 1 }));
        assert_eq!(Schedule::parse("auto"), None);
        assert_eq!(Schedule::parse("dynamic,0"), None);
        assert_eq!(Schedule::parse("dynamic,1,2"), None);
    }

    #[test]
    fn measured_wrapper_shape() {
        let r = RegionSpec::measured(4, 10, 5, vec![Construct::Barrier]);
        // Warm-up block first, unmeasured.
        let Construct::Repeat { count, body } = &r.constructs[0] else {
            panic!("measured() must emit a warm-up Repeat first, got {:?}", r.constructs[0])
        };
        assert_eq!(*count, 2);
        assert!(!body
            .iter()
            .any(|c| matches!(c, Construct::MarkBegin(_) | Construct::MarkEnd(_))));
        // Then the measured block.
        let Construct::Repeat { count, body } = &r.constructs[1] else {
            panic!("measured() must emit the measured Repeat second, got {:?}", r.constructs[1])
        };
        assert_eq!(*count, 10);
        assert!(matches!(body[0], Construct::Barrier));
        assert!(matches!(body[1], Construct::MarkBegin(0)));
        assert!(matches!(body[3], Construct::MarkEnd(0)));
    }

    #[test]
    fn delay_cycles_scale_with_frequency() {
        assert_eq!(delay_cycles(15.0, 3.4), 51_000.0);
        assert_eq!(delay_cycles(0.1, 3.7), 370.0);
    }

    #[test]
    fn zero_threads_rejected() {
        let err = RegionSpec::new(0, vec![]).unwrap_err();
        assert_eq!(err, RegionError::ZeroThreads);
    }

    /// `validate()` — which must be the full pipeline's first error, on
    /// every program these tests write down.
    fn validated(spec: &RegionSpec) -> Result<(), RegionError> {
        let verdict = spec.validate();
        let analysis = crate::passes::analyze(spec);
        assert_eq!(verdict.err(), analysis.first_error().and_then(|d| d.cause));
        verdict
    }

    fn valid(cs: Vec<Construct>) -> Result<(), RegionError> {
        validated(&RegionSpec {
            n_threads: 2,
            constructs: cs,
            vars: Vec::new(),
        })
    }

    #[test]
    fn validate_rejects_structural_defects() {
        assert_eq!(
            valid(vec![Construct::Repeat { count: 0, body: vec![] }]),
            Err(RegionError::ZeroCountRepeat)
        );
        let zero_loop = Construct::ParallelFor {
            schedule: Schedule::Static { chunk: 1 },
            total_iters: 0,
            body_us: 0.1,
            ordered_us: None,
            nowait: false,
        };
        assert_eq!(valid(vec![zero_loop]), Err(RegionError::ZeroIterationLoop));
        let zero_chunk = Construct::ParallelFor {
            schedule: Schedule::Dynamic { chunk: 0 },
            total_iters: 4,
            body_us: 0.1,
            ordered_us: None,
            nowait: false,
        };
        assert_eq!(valid(vec![zero_chunk]), Err(RegionError::ZeroChunk));
        assert_eq!(
            valid(vec![Construct::DelayUs(f64::NAN)]),
            Err(RegionError::InvalidWork { construct: "DelayUs" })
        );
        assert_eq!(
            valid(vec![Construct::Critical { body_us: -1.0 }]),
            Err(RegionError::InvalidWork { construct: "Critical" })
        );
    }

    #[test]
    fn validate_requires_balanced_marks_per_block() {
        assert_eq!(
            valid(vec![Construct::MarkBegin(3)]),
            Err(RegionError::UnmatchedMark { id: 3 })
        );
        assert_eq!(
            valid(vec![Construct::MarkEnd(1)]),
            Err(RegionError::UnmatchedMark { id: 1 })
        );
        assert_eq!(
            valid(vec![
                Construct::MarkBegin(0),
                Construct::MarkBegin(0),
                Construct::MarkEnd(0),
                Construct::MarkEnd(0),
            ]),
            Err(RegionError::UnmatchedMark { id: 0 })
        );
        // A begin whose end lives in a nested block does not balance.
        assert_eq!(
            valid(vec![
                Construct::MarkBegin(0),
                Construct::Repeat {
                    count: 1,
                    body: vec![Construct::MarkEnd(0)],
                },
            ]),
            Err(RegionError::UnmatchedMark { id: 0 })
        );
        // Overlapping (non-LIFO) pairs of distinct ids are fine.
        assert_eq!(
            valid(vec![
                Construct::MarkBegin(0),
                Construct::MarkBegin(1),
                Construct::MarkEnd(0),
                Construct::MarkEnd(1),
            ]),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_unsynchronized_repeated_nowait_loops() {
        let nowait_loop = Construct::ParallelFor {
            schedule: Schedule::Dynamic { chunk: 1 },
            total_iters: 8,
            body_us: 0.1,
            ordered_us: None,
            nowait: true,
        };
        let bad = vec![Construct::Repeat {
            count: 3,
            body: vec![nowait_loop.clone()],
        }];
        assert_eq!(valid(bad), Err(RegionError::RepeatedNowaitLoop));
        // Adding any full-team rendezvous to the repeated body fixes it.
        let good = vec![Construct::Repeat {
            count: 3,
            body: vec![nowait_loop.clone(), Construct::Barrier],
        }];
        assert_eq!(valid(good), Ok(()));
        // count == 1 never re-enters the loop, so it is fine as-is.
        let once = vec![Construct::Repeat {
            count: 1,
            body: vec![nowait_loop],
        }];
        assert_eq!(valid(once), Ok(()));
    }

    /// Regression test for the helper-recursion bug: `contains_nowait`
    /// used to skip `ParallelRegion` bodies, so a nowait hazard *nested
    /// inside* a parallel region escaped the repeated-nowait check
    /// entirely — and `contains_team_sync` counted the nested region
    /// itself as an outer-team rendezvous, which (per the OpenMP model,
    /// where a nested region forks its own team) it is not. This test
    /// fails on the pre-fix code, which accepted both programs.
    #[test]
    fn validate_rejects_nowait_hazard_nested_in_parallel_region() {
        let nowait_loop = Construct::ParallelFor {
            schedule: Schedule::Dynamic { chunk: 1 },
            total_iters: 8,
            body_us: 0.1,
            ordered_us: None,
            nowait: true,
        };
        // The hazardous loop hides inside a nested ParallelRegion: the
        // old helpers neither saw the nowait nor refused to credit the
        // region as a sync, so validate() accepted this.
        let hidden = vec![Construct::Repeat {
            count: 2,
            body: vec![Construct::ParallelRegion {
                body: vec![nowait_loop.clone()],
            }],
        }];
        assert_eq!(valid(hidden), Err(RegionError::RepeatedNowaitLoop));
        // A nested region alone must not count as the intervening sync
        // for a sibling nowait loop.
        let sibling = vec![Construct::Repeat {
            count: 2,
            body: vec![
                nowait_loop.clone(),
                Construct::ParallelRegion { body: vec![] },
            ],
        }];
        assert_eq!(valid(sibling), Err(RegionError::RepeatedNowaitLoop));
        // A barrier *inside* the nested body binds to the inner team, so
        // the conservative check still rejects…
        let inner_barrier = vec![Construct::Repeat {
            count: 2,
            body: vec![Construct::ParallelRegion {
                body: vec![nowait_loop.clone(), Construct::Barrier],
            }],
        }];
        assert_eq!(valid(inner_barrier), Err(RegionError::RepeatedNowaitLoop));
        // …while an outer-team barrier in the repeated body fixes it.
        let fixed = vec![Construct::Repeat {
            count: 2,
            body: vec![
                Construct::ParallelRegion {
                    body: vec![nowait_loop],
                },
                Construct::Barrier,
            ],
        }];
        assert_eq!(valid(fixed), Ok(()));
    }

    #[test]
    fn validate_rejects_deadlocking_lock_nesting() {
        // Self-nesting the same named lock is a guaranteed deadlock.
        assert_eq!(
            valid(vec![Construct::Locked {
                lock: 1,
                body: vec![Construct::Locked {
                    lock: 1,
                    body: vec![Construct::DelayUs(0.1)],
                }],
            }]),
            Err(RegionError::SelfNestedLock { lock: 1 })
        );
        // Team synchronization under a held lock can never complete.
        assert_eq!(
            valid(vec![Construct::Locked {
                lock: 0,
                body: vec![Construct::Barrier],
            }]),
            Err(RegionError::SyncUnderLock { construct: "Barrier" })
        );
        // Distinct locks in consistent order are fine.
        assert_eq!(
            valid(vec![Construct::Locked {
                lock: 0,
                body: vec![Construct::Locked {
                    lock: 1,
                    body: vec![Construct::DelayUs(0.1)],
                }],
            }]),
            Ok(())
        );
    }

    #[test]
    fn expected_effects_walk_the_tree() {
        let fx = RegionSpec {
            n_threads: 4,
            constructs: vec![
                Construct::Barrier,
                Construct::Repeat {
                    count: 3,
                    body: vec![
                        Construct::Critical { body_us: 0.1 },
                        Construct::ParallelFor {
                            schedule: Schedule::Guided { min_chunk: 1 },
                            total_iters: 10,
                            body_us: 0.1,
                            ordered_us: Some(0.05),
                            nowait: false,
                        },
                    ],
                },
                Construct::Tasks {
                    per_spawner: 2,
                    body_us: 0.1,
                    master_only: true,
                },
            ],
            vars: Vec::new(),
        }
        .expected_effects();
        assert_eq!(fx.lock_entries, 4 * 3);
        assert_eq!(fx.loop_iters, 10 * 3);
        assert_eq!(fx.loop_passes, 3);
        assert_eq!(fx.ordered_entries, 10 * 3);
        // Explicit + 3 loop-end + 2 task barriers, 4 arrivals each.
        assert_eq!(fx.barrier_arrivals, 4 * (1 + 3 + 2));
        assert_eq!(fx.tasks_spawned, 2);
        assert_eq!(fx.tasks_executed, 2);
        assert_eq!(fx.mutex_violations, 0);
    }

    fn shared(id: u32, init: i64) -> VarDecl {
        VarDecl {
            id,
            name: format!("v{id}"),
            clause: Clause::Shared,
            init,
        }
    }

    #[test]
    fn data_env_validation() {
        // Referencing an undeclared variable is a typed error.
        assert_eq!(
            valid(vec![Construct::VarRead { var: 7 }]),
            Err(RegionError::UndeclaredVar { var: 7 })
        );
        // Duplicate declarations are rejected.
        let dup = RegionSpec {
            n_threads: 2,
            constructs: vec![],
            vars: vec![shared(0, 1), shared(0, 2)],
        };
        assert_eq!(validated(&dup), Err(RegionError::DuplicateVarDecl { var: 0 }));
        // A reduction over a non-shared variable is rejected.
        let bad_red = RegionSpec {
            n_threads: 2,
            constructs: vec![Construct::ReductionFor {
                var: 0,
                red: RedOp::Sum,
                schedule: Schedule::Static { chunk: 1 },
                total_iters: 4,
                body_us: 0.1,
                delta: 1,
            }],
            vars: vec![VarDecl {
                id: 0,
                name: "p".into(),
                clause: Clause::Private,
                init: 0,
            }],
        };
        assert_eq!(
            validated(&bad_red),
            Err(RegionError::ReductionNotShared { var: 0 })
        );
    }

    #[test]
    fn reduction_aggregates_are_exact() {
        assert_eq!(reduction_aggregate(RedOp::Sum, 4, 10), Some(46));
        assert_eq!(reduction_aggregate(RedOp::Max, 4, 10), Some(13));
        assert_eq!(reduction_aggregate(RedOp::Min, 4, 10), Some(10));
        assert_eq!(reduction_aggregate(RedOp::Sum, 0, 10), None);
        // Wrapping sum matches a literal fold.
        let total = 5u64;
        let delta = i64::MAX - 2;
        let expect = (0..total).fold(0i64, |a, i| {
            a.wrapping_add(delta.wrapping_add(i as i64))
        });
        assert_eq!(reduction_aggregate(RedOp::Sum, total, delta), Some(expect));
        // Max/min account for mid-range wrapping.
        assert_eq!(reduction_aggregate(RedOp::Max, 5, i64::MAX - 2), Some(i64::MAX));
        assert_eq!(reduction_aggregate(RedOp::Min, 5, i64::MAX - 2), Some(i64::MIN));
    }

    #[test]
    fn clause_initial_values() {
        let d = VarDecl {
            id: 0,
            name: "x".into(),
            clause: Clause::Private,
            init: 9,
        };
        assert_eq!(d.initial(), 0);
        assert_eq!(shared(0, 9).initial(), 9);
    }

    #[test]
    fn expected_effects_count_named_lock_entries() {
        let fx = RegionSpec {
            n_threads: 3,
            constructs: vec![Construct::Repeat {
                count: 2,
                body: vec![Construct::Locked {
                    lock: 0,
                    body: vec![Construct::Atomic],
                }],
            }],
            vars: Vec::new(),
        }
        .expected_effects();
        assert_eq!(fx.lock_entries, 3 * 2);
        assert_eq!(fx.atomic_ops, 3 * 2);
    }
}

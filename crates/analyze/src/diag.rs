//! Structured lint diagnostics: codes, severities, construct-path spans
//! and the [`Analysis`] report the passes produce.
//!
//! Every finding carries a stable `OMPV0xx` code so tests, the harness
//! pre-flight gate and the fuzzer's soundness oracle can key on the
//! *class* of a finding rather than its rendered text. Severity is a
//! property of the code, not the call site:
//!
//! * `Error` — the program is rejected; both backends refuse to run it.
//!   Error diagnostics carry the typed [`RegionError`] that
//!   [`RegionSpec::validate`](crate::region::RegionSpec::validate)
//!   surfaces.
//! * `Warn` — the program runs, but the analyzer predicts it may
//!   deadlock or race. The fuzzer's soundness oracle requires every
//!   dynamically observed deadlock/violation to be covered by a
//!   `Warn`-or-worse diagnostic.
//! * `Info` — advisory only (phase structure, predicted bottlenecks).

use crate::region::RegionError;
use std::collections::BTreeSet;
use std::fmt;

/// How serious a diagnostic is. Ordered: `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: worth knowing, never blocks anything.
    Info,
    /// The analyzer predicts a possible dynamic failure (deadlock,
    /// nowait race). The program still runs; the soundness oracle keys
    /// on this level.
    Warn,
    /// The program is statically rejected; `validate()` fails.
    Error,
}

impl Severity {
    /// Lower-case label used in renderings (`error`, `warn`, `info`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes. `OMPV0xx` are structural (malformed IR),
/// `OMPV1xx` are hazards (synchronization / deadlock), `OMPV2xx` are
/// performance advisories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// OMPV001 — the team has zero threads.
    ZeroThreads,
    /// OMPV002 — `Repeat` with `count == 0`.
    ZeroCountRepeat,
    /// OMPV003 — work-shared loop with zero iterations.
    ZeroIterationLoop,
    /// OMPV004 — explicit schedule chunk of zero.
    ZeroChunk,
    /// OMPV005 — negative or non-finite work parameter.
    InvalidWork,
    /// OMPV006 — `MarkBegin`/`MarkEnd` unbalanced within a block.
    UnmatchedMark,
    /// OMPV101 — repeated nowait loop with no intervening team sync:
    /// straggler iterations of pass *k* overlap pass *k+1*.
    RepeatedNowaitLoop,
    /// OMPV102 — a shared-effect construct overlaps an open nowait
    /// window (threads may still be executing straggler iterations).
    NowaitOverlap,
    /// OMPV103 — a nowait window is still open at the end of the
    /// region; only the implicit region join closes it.
    NowaitLeftOpen,
    /// OMPV104 — a named lock is acquired while already held by the
    /// same thread: guaranteed self-deadlock.
    SelfNestedLock,
    /// OMPV105 — a team-synchronizing construct executes while a lock
    /// is held: threads blocked on the lock can never reach the sync.
    SyncUnderLock,
    /// OMPV110 — the lock acquisition-order graph has a cycle;
    /// concurrent threads may deadlock (classic AB/BA).
    LockCycle,
    /// OMPV111 — an ordered nowait loop under a held lock: ordered
    /// tickets owned by threads blocked on the lock may never retire.
    OrderedUnderLock,
    /// OMPV112 — a nowait workshare under a held lock: only the lock
    /// holder makes progress, serializing the "parallel" loop.
    WorkshareUnderLock,
    /// OMPV201 — predicted serialized work exceeds parallelizable
    /// work: contention, not the runtime, will dominate variability.
    SerialBottleneck,
    /// OMPV301 — two unsynchronized writes (or one SPMD write executed
    /// by a team of two or more) can hit the same shared variable
    /// concurrently with no common lock: a write/write data race.
    SharedWriteRace,
    /// OMPV302 — a read and a write of one shared variable conflict
    /// across an open nowait window: straggler iterations make the
    /// observable interleaving window unbounded.
    NowaitReadWriteRace,
    /// OMPV303 — a shared reduction variable is accessed while a
    /// reduction over it may still be combining; the reduction's
    /// internal synchronization does not cover outside accesses.
    ReductionOutsideAccess,
    /// OMPV304 — a private/firstprivate write whose value is never
    /// read before the copy is discarded: a dead store.
    DeadPrivateWrite,
    /// OMPV305 — a variable micro-op references an undeclared id.
    UndeclaredVar,
    /// OMPV306 — two declarations share one variable id.
    DuplicateVarDecl,
    /// OMPV307 — a reduction targets a variable not declared `shared`.
    ReductionNotShared,
}

impl DiagCode {
    /// Every code, in code order. Drives the per-code test sweep and
    /// the documentation table.
    pub const ALL: [DiagCode; 22] = [
        DiagCode::ZeroThreads,
        DiagCode::ZeroCountRepeat,
        DiagCode::ZeroIterationLoop,
        DiagCode::ZeroChunk,
        DiagCode::InvalidWork,
        DiagCode::UnmatchedMark,
        DiagCode::RepeatedNowaitLoop,
        DiagCode::NowaitOverlap,
        DiagCode::NowaitLeftOpen,
        DiagCode::SelfNestedLock,
        DiagCode::SyncUnderLock,
        DiagCode::LockCycle,
        DiagCode::OrderedUnderLock,
        DiagCode::WorkshareUnderLock,
        DiagCode::SerialBottleneck,
        DiagCode::SharedWriteRace,
        DiagCode::NowaitReadWriteRace,
        DiagCode::ReductionOutsideAccess,
        DiagCode::DeadPrivateWrite,
        DiagCode::UndeclaredVar,
        DiagCode::DuplicateVarDecl,
        DiagCode::ReductionNotShared,
    ];

    /// The stable `OMPV0xx` identifier.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::ZeroThreads => "OMPV001",
            DiagCode::ZeroCountRepeat => "OMPV002",
            DiagCode::ZeroIterationLoop => "OMPV003",
            DiagCode::ZeroChunk => "OMPV004",
            DiagCode::InvalidWork => "OMPV005",
            DiagCode::UnmatchedMark => "OMPV006",
            DiagCode::RepeatedNowaitLoop => "OMPV101",
            DiagCode::NowaitOverlap => "OMPV102",
            DiagCode::NowaitLeftOpen => "OMPV103",
            DiagCode::SelfNestedLock => "OMPV104",
            DiagCode::SyncUnderLock => "OMPV105",
            DiagCode::LockCycle => "OMPV110",
            DiagCode::OrderedUnderLock => "OMPV111",
            DiagCode::WorkshareUnderLock => "OMPV112",
            DiagCode::SerialBottleneck => "OMPV201",
            DiagCode::SharedWriteRace => "OMPV301",
            DiagCode::NowaitReadWriteRace => "OMPV302",
            DiagCode::ReductionOutsideAccess => "OMPV303",
            DiagCode::DeadPrivateWrite => "OMPV304",
            DiagCode::UndeclaredVar => "OMPV305",
            DiagCode::DuplicateVarDecl => "OMPV306",
            DiagCode::ReductionNotShared => "OMPV307",
        }
    }

    /// Short kebab-case name shown next to the code.
    pub fn name(self) -> &'static str {
        match self {
            DiagCode::ZeroThreads => "zero-threads",
            DiagCode::ZeroCountRepeat => "zero-count-repeat",
            DiagCode::ZeroIterationLoop => "zero-iteration-loop",
            DiagCode::ZeroChunk => "zero-chunk",
            DiagCode::InvalidWork => "invalid-work",
            DiagCode::UnmatchedMark => "unmatched-mark",
            DiagCode::RepeatedNowaitLoop => "repeated-nowait-loop",
            DiagCode::NowaitOverlap => "nowait-overlap",
            DiagCode::NowaitLeftOpen => "nowait-left-open",
            DiagCode::SelfNestedLock => "self-nested-lock",
            DiagCode::SyncUnderLock => "sync-under-lock",
            DiagCode::LockCycle => "lock-cycle",
            DiagCode::OrderedUnderLock => "ordered-under-lock",
            DiagCode::WorkshareUnderLock => "workshare-under-lock",
            DiagCode::SerialBottleneck => "serial-bottleneck",
            DiagCode::SharedWriteRace => "shared-write-race",
            DiagCode::NowaitReadWriteRace => "nowait-read-write-race",
            DiagCode::ReductionOutsideAccess => "reduction-outside-access",
            DiagCode::DeadPrivateWrite => "dead-private-write",
            DiagCode::UndeclaredVar => "undeclared-var",
            DiagCode::DuplicateVarDecl => "duplicate-var-decl",
            DiagCode::ReductionNotShared => "reduction-not-shared",
        }
    }

    /// Severity is fixed per code.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::ZeroThreads
            | DiagCode::ZeroCountRepeat
            | DiagCode::ZeroIterationLoop
            | DiagCode::ZeroChunk
            | DiagCode::InvalidWork
            | DiagCode::UnmatchedMark
            | DiagCode::RepeatedNowaitLoop
            | DiagCode::SelfNestedLock
            | DiagCode::SyncUnderLock
            | DiagCode::UndeclaredVar
            | DiagCode::DuplicateVarDecl
            | DiagCode::ReductionNotShared => Severity::Error,
            DiagCode::NowaitOverlap
            | DiagCode::LockCycle
            | DiagCode::OrderedUnderLock
            | DiagCode::SharedWriteRace
            | DiagCode::NowaitReadWriteRace
            | DiagCode::ReductionOutsideAccess => Severity::Warn,
            DiagCode::NowaitLeftOpen
            | DiagCode::WorkshareUnderLock
            | DiagCode::SerialBottleneck
            | DiagCode::DeadPrivateWrite => Severity::Info,
        }
    }

    /// Codes whose presence means the analyzer predicts the program can
    /// block forever at run time.
    pub fn predicts_deadlock(self) -> bool {
        matches!(
            self,
            DiagCode::SelfNestedLock
                | DiagCode::SyncUnderLock
                | DiagCode::LockCycle
                | DiagCode::OrderedUnderLock
        )
    }

    /// Codes whose presence means the analyzer predicts final variable
    /// values may diverge between schedules/backends (a data race). The
    /// fuzzer runs such programs sim-only and exempts them from the
    /// value-equality oracle (#14).
    pub fn predicts_race(self) -> bool {
        matches!(
            self,
            DiagCode::SharedWriteRace
                | DiagCode::NowaitReadWriteRace
                | DiagCode::ReductionOutsideAccess
        )
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// A construct path addressing one node of the IR tree, e.g.
/// `constructs[1].Repeat.body[0].ParallelFor`. The empty path addresses
/// the region as a whole and renders as `region`.
///
/// Spans order lexicographically by path, which is exactly pre-order
/// (document) order over the construct tree — the order
/// [`crate::passes::analyze`] sorts its report into.
///
/// Every pass names every construct it visits, so the path is stored
/// inline: [`Span::child`] and `clone` copy it without touching the heap
/// down to [`Span::INLINE`] steps, and only a deeper path spills.
#[derive(Clone)]
pub struct Span {
    /// Number of steps.
    len: usize,
    /// The steps, outermost first, while `len <= INLINE`.
    inline: [(usize, &'static str); Span::INLINE],
    /// All the steps once `len > INLINE`; empty (unallocated) until then.
    spill: Vec<(usize, &'static str)>,
}

impl Span {
    /// Path depth up to which a span lives inline. The generator nests
    /// three deep at most and the paper's measured regions two.
    pub const INLINE: usize = 6;

    /// The whole-region span (empty path).
    pub fn root() -> Span {
        Span {
            len: 0,
            inline: [(0, ""); Span::INLINE],
            spill: Vec::new(),
        }
    }

    /// The span of child `index` (of kind `kind`) under `self`.
    pub fn child(&self, index: usize, kind: &'static str) -> Span {
        let mut child = self.clone();
        if child.len < Span::INLINE {
            child.inline[child.len] = (index, kind);
        } else {
            if child.len == Span::INLINE {
                child.spill = child.inline.to_vec();
            }
            child.spill.push((index, kind));
        }
        child.len += 1;
        child
    }

    /// The `(index, kind)` path steps, outermost first.
    pub fn steps(&self) -> &[(usize, &'static str)] {
        if self.len <= Span::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl Default for Span {
    fn default() -> Span {
        Span::root()
    }
}

impl PartialEq for Span {
    fn eq(&self, other: &Span) -> bool {
        self.steps() == other.steps()
    }
}

impl Eq for Span {}

impl PartialOrd for Span {
    fn partial_cmp(&self, other: &Span) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Span {
    fn cmp(&self, other: &Span) -> std::cmp::Ordering {
        self.steps().cmp(other.steps())
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span").field("steps", &self.steps()).finish()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 0 {
            return write!(f, "region");
        }
        for (depth, (index, kind)) in self.steps().iter().enumerate() {
            if depth == 0 {
                write!(f, "constructs[{index}].{kind}")?;
            } else {
                write!(f, ".body[{index}].{kind}")?;
            }
        }
        Ok(())
    }
}

/// One finding: a code, the span it is anchored at, a human message,
/// and — for `Error`-severity codes — the typed [`RegionError`] that
/// `validate()` surfaces for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable diagnostic code (determines severity).
    pub code: DiagCode,
    /// Construct path of the offending node.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
    /// The typed error, present exactly when `code.severity()` is
    /// [`Severity::Error`].
    pub cause: Option<RegionError>,
}

impl Diagnostic {
    /// A `Warn`/`Info` finding (no typed cause).
    pub fn new(code: DiagCode, span: Span, message: String) -> Diagnostic {
        debug_assert!(code.severity() < Severity::Error);
        Diagnostic {
            code,
            span,
            message,
            cause: None,
        }
    }

    /// An `Error` finding carrying the [`RegionError`] that
    /// `validate()` returns for it.
    pub fn because(code: DiagCode, span: Span, message: String, cause: RegionError) -> Diagnostic {
        debug_assert!(code.severity() == Severity::Error);
        Diagnostic {
            code,
            span,
            message,
            cause: Some(cause),
        }
    }

    /// Severity of this finding (a property of the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// One-line human rendering, e.g.
    /// `error[OMPV101 repeated-nowait-loop] at constructs[0].Repeat: …`.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] at {}: {}",
            self.severity().label(),
            self.code,
            self.span,
            self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The result of running every pass over one region: an ordered list of
/// findings (structural first, then hazards, then advisories).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Analysis {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// True when there are no findings at all (not even `Info`).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The worst severity present, if any finding exists.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity()).max()
    }

    /// The first `Error`-severity finding, in pass order. This is the
    /// error `validate()` surfaces.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity() == Severity::Error)
    }

    /// The *verdict*: the set of `Warn`-or-worse codes. This is the
    /// diagnostic class the qcheck shrinker must preserve — two
    /// programs with the same verdict are interchangeable for
    /// counterexample minimization, and the soundness oracle checks
    /// dynamic failures against it.
    pub fn verdict(&self) -> BTreeSet<DiagCode> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() >= Severity::Warn)
            .map(|d| d.code)
            .collect()
    }

    /// True when any finding predicts the program can block forever at
    /// run time. The fuzzer runs such programs sim-only (virtual-time
    /// deadlock detection) rather than risking a native hang.
    pub fn may_deadlock(&self) -> bool {
        self.diagnostics.iter().any(|d| d.code.predicts_deadlock())
    }

    /// True when any finding is a data-race prediction (`OMPV301`–
    /// `OMPV303`). Such programs run sim-only and are exempt from the
    /// cross-backend value-equality oracle.
    pub fn may_race(&self) -> bool {
        self.diagnostics.iter().any(|d| d.code.predicts_race())
    }

    /// Number of findings at exactly `sev`.
    pub fn count_of(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == sev)
            .count()
    }

    /// Multi-line human rendering; `"clean"` when there are no findings.
    pub fn render(&self) -> String {
        if self.diagnostics.is_empty() {
            return "clean".to_string();
        }
        self.diagnostics
            .iter()
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn codes_are_unique_and_consistent() {
        let codes: BTreeSet<&str> = DiagCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), DiagCode::ALL.len(), "duplicate OMPV code");
        let names: BTreeSet<&str> = DiagCode::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), DiagCode::ALL.len(), "duplicate code name");
        for c in DiagCode::ALL {
            assert!(c.code().starts_with("OMPV"), "{c:?}");
        }
    }

    #[test]
    fn span_rendering_walks_the_tree() {
        assert_eq!(Span::root().to_string(), "region");
        let s = Span::root().child(1, "Repeat").child(0, "ParallelFor");
        assert_eq!(s.to_string(), "constructs[1].Repeat.body[0].ParallelFor");
    }

    /// Inline and spilled spans behave as the `Vec` path they replace:
    /// same steps, rendering, equality and order, on both sides of the
    /// spill depth.
    #[test]
    fn spans_agree_with_a_vec_path_past_the_spill_depth() {
        let kinds = ["Repeat", "Locked", "ParallelRegion"];
        let mut spans = vec![(Span::root(), Vec::new())];
        for depth in 0..2 * Span::INLINE + 1 {
            let mut next = Vec::new();
            for (span, path) in spans.iter().filter(|(s, _)| s.steps().len() == depth) {
                for i in 0..2 {
                    for kind in kinds {
                        let mut p: Vec<(usize, &'static str)> = path.clone();
                        p.push((i, kind));
                        next.push((span.child(i, kind), p));
                    }
                }
            }
            // A few diverse spans per depth, so siblings compare too.
            spans.extend(next.into_iter().step_by(5).take(3));
        }
        let render = |p: &[(usize, &str)]| {
            if p.is_empty() {
                return "region".to_string();
            }
            p.iter()
                .enumerate()
                .map(|(d, (i, k))| {
                    if d == 0 { format!("constructs[{i}].{k}") } else { format!(".body[{i}].{k}") }
                })
                .collect()
        };
        assert!(spans.iter().any(|(s, _)| s.steps().len() > Span::INLINE + 1));
        for (a, pa) in &spans {
            assert_eq!(a.steps(), &pa[..]);
            assert_eq!(a.to_string(), render(pa));
            assert_eq!(format!("{a:?}"), format!("Span {{ steps: {pa:?} }}"));
            assert_eq!(a.clone(), *a);
            for (b, pb) in &spans {
                assert_eq!(a.cmp(b), pa.cmp(pb), "{a} vs {b}");
                assert_eq!(a == b, pa == pb, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn diagnostic_rendering_includes_code_span_and_message() {
        let d = Diagnostic::new(
            DiagCode::NowaitOverlap,
            Span::root().child(2, "Single"),
            "the single body may overlap stragglers".into(),
        );
        let r = d.render();
        assert!(r.starts_with("warn[OMPV102 nowait-overlap]"), "{r}");
        assert!(r.contains("constructs[2].Single"), "{r}");
    }

    #[test]
    fn verdict_collects_warn_or_worse_only() {
        let a = Analysis {
            diagnostics: vec![
                Diagnostic::new(DiagCode::SerialBottleneck, Span::root(), "info".into()),
                Diagnostic::new(DiagCode::LockCycle, Span::root(), "warn".into()),
            ],
        };
        let v = a.verdict();
        assert!(v.contains(&DiagCode::LockCycle));
        assert!(!v.contains(&DiagCode::SerialBottleneck));
        assert!(a.may_deadlock());
        assert_eq!(a.max_severity(), Some(Severity::Warn));
    }
}

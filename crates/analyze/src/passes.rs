//! The lint pipeline: an abstract interpretation of the SPMD construct
//! sequence.
//!
//! Four passes run over every region, in order:
//!
//! 1. **Structural / team-divergence** ([`structural`]) — malformed IR
//!    (zero counts, bad work parameters, unbalanced marks) plus the
//!    barrier-matching invariant: because the IR is SPMD (every thread
//!    executes the same construct list), team divergence can only enter
//!    through *generation skew* of a work-shared loop — the
//!    repeated-nowait hazard — which this pass detects with the
//!    (recursion-fixed) `contains_nowait` / `contains_team_sync`
//!    helpers, including inside `Repeat` and nested `ParallelRegion`
//!    bodies.
//! 2. **Nowait-hazard phase analysis** ([`nowait_windows`]) — partitions
//!    the construct sequence into phases separated by full-team
//!    synchronizations and tracks the set of *open nowait windows*
//!    (loops whose stragglers may still be running). Any shared-effect
//!    construct overlapping an open window is flagged.
//! 3. **May-deadlock** ([`locks`]) — walks `Locked` nesting, rejects
//!    self-nesting and team syncs under a held lock (`Error`), and
//!    builds the lock acquisition-order graph; a cycle (AB/BA) is a
//!    `Warn`-level may-deadlock.
//! 4. **Cost advisory** ([`serial_bottleneck`]) — compares the
//!    statically predicted serialized vs. parallelizable work
//!    ([`crate::predict::cost`]) and flags regions whose variability
//!    will be dominated by contention rather than the runtime.
//!
//! Three more passes cover the value-level data environment:
//!
//! 5. **Data-environment validation** ([`data_env`]) — undeclared
//!    variable references, duplicate declarations, and reductions over
//!    non-`shared` variables are `Error`s.
//! 6. **Data races** ([`data_races`]) — per-shared-variable read/write
//!    sets tracked between full-team synchronizations, clause-aware
//!    (private copies never conflict, reductions are commutative-write
//!    safe) and synchronization-aware (team syncs close conflict
//!    windows, open nowait windows extend them, named-lock scopes
//!    protect accesses). Emits `OMPV301`–`OMPV303`.
//! 7. **Dead private writes** ([`dead_private_writes`]) — a
//!    private/firstprivate store whose value is never read before the
//!    copy is discarded (`OMPV304`, Info).
//!
//! The abstract domain is deliberately simple: per-block open-mark sets,
//! open-nowait-window sets, per-variable open-access sets, and the
//! held-lock stack — each a finite lattice joined in program order.
//! Findings accumulate (the passes never early-return), so one
//! `analyze()` call reports everything. The report is sorted by
//! `(span, code)` — pre-order document position — and deduplicated, so
//! renderings and the pre-flight gate are byte-stable; `validate()`
//! surfaces the first `Error`-severity finding in that order. Only
//! passes 1, 3 and 5 own an `Error` code, so the pipeline runs them
//! first and `validate()` — which every backend run pays — stops there
//! ([`analyze_errors`]): same passes, same report order, hence the same
//! first error as the full pipeline.

use crate::diag::{Analysis, DiagCode, Diagnostic, Span};
use crate::predict;
use crate::region::{Clause, Construct, RegionError, RegionSpec, Schedule, WriteOp};
use std::collections::{BTreeMap, BTreeSet};

/// Run every pass over `spec` and collect the findings, sorted by
/// `(span, code)` with identical `(code, span)` pairs deduplicated.
pub fn analyze(spec: &RegionSpec) -> Analysis {
    let mut diags = Vec::new();
    if rejecting_passes(spec, &mut diags) {
        advisory_passes(spec, &mut diags);
    }
    report(diags)
}

/// The part of [`analyze`] that `validate()` pays for: only the passes
/// that can emit an `Error`, reported in the same order — so its
/// [`Analysis::first_error`] is `analyze`'s, diagnostic for diagnostic.
/// Their `Warn`/`Info` findings come along; the advisory passes' do not.
pub(crate) fn analyze_errors(spec: &RegionSpec) -> Analysis {
    let mut diags = Vec::new();
    rejecting_passes(spec, &mut diags);
    report(diags)
}

/// The passes that own an `Error`-severity code (1, 3 and 5). `false`
/// when the region is too malformed for any further pass to run.
fn rejecting_passes(spec: &RegionSpec, diags: &mut Vec<Diagnostic>) -> bool {
    if spec.n_threads == 0 {
        diags.push(Diagnostic::because(
            DiagCode::ZeroThreads,
            Span::root(),
            "the team has zero threads".into(),
            RegionError::ZeroThreads,
        ));
        return false;
    }
    structural(&spec.constructs, &Span::root(), diags);
    locks(spec, diags);
    data_env(spec, diags);
    true
}

/// The passes that only ever warn or inform (2, 4, 6 and 7).
fn advisory_passes(spec: &RegionSpec, diags: &mut Vec<Diagnostic>) {
    nowait_windows(spec, diags);
    serial_bottleneck(spec, diags);
    data_races(spec, diags);
    dead_private_writes(spec, diags);
}

/// Deterministic report order: pre-order document position, then code.
/// The sort is stable, so among equal `(span, code)` pairs — always one
/// pass's, a code belongs to one pass — the emission-order first
/// survives dedup.
fn report(mut diags: Vec<Diagnostic>) -> Analysis {
    diags.sort_by(|a, b| a.span.cmp(&b.span).then(a.code.cmp(&b.code)));
    diags.dedup_by(|a, b| a.code == b.code && a.span == b.span);
    Analysis { diagnostics: diags }
}

/// Does this block contain a `nowait` loop? Descends into `Repeat`,
/// `Locked` *and* `ParallelRegion` bodies: in the OpenMP model a nested
/// region forks its own team, but its nowait hazard is still a hazard —
/// the old non-recursive version let nested hazards escape entirely.
pub(crate) fn contains_nowait(cs: &[Construct]) -> bool {
    cs.iter().any(|c| match c {
        Construct::ParallelFor { nowait, .. } => *nowait,
        Construct::Repeat { body, .. }
        | Construct::ParallelRegion { body }
        | Construct::Locked { body, .. } => contains_nowait(body),
        _ => false,
    })
}

/// Does this block contain at least one construct that rendezvouses the
/// *enclosing* team? `ParallelRegion` deliberately does not count and is
/// not descended into: per the OpenMP model a nested parallel region
/// forks its own team, so nothing inside it — nor the region itself —
/// synchronizes the outer team. (This runtime's lowering happens to
/// rendezvous the same team at region entry/exit, but the validator is
/// the portability contract, so it takes the spec-faithful view.)
pub(crate) fn contains_team_sync(cs: &[Construct]) -> bool {
    cs.iter().any(|c| match c {
        Construct::Barrier
        | Construct::Single { .. }
        | Construct::Reduction { .. }
        | Construct::Tasks { .. }
        | Construct::ReductionFor { .. } => true,
        Construct::ParallelFor { nowait, .. } => !nowait,
        Construct::Repeat { body, .. } | Construct::Locked { body, .. } => {
            contains_team_sync(body)
        }
        _ => false,
    })
}

/// Push an `InvalidWork` finding if `v` is negative or non-finite.
fn check_work(diags: &mut Vec<Diagnostic>, span: &Span, construct: &'static str, v: f64) {
    if !(v.is_finite() && v >= 0.0) {
        diags.push(Diagnostic::because(
            DiagCode::InvalidWork,
            span.clone(),
            format!("{construct} has a negative or non-finite work parameter ({v})"),
            RegionError::InvalidWork { construct },
        ));
    }
}

/// Pass 1: structural defects and the team-divergence (repeated-nowait)
/// invariant. Mirrors the historical `validate_block` walk — same
/// per-construct check order, same block-local mark discipline — but
/// collects findings instead of early-returning.
fn structural(cs: &[Construct], span: &Span, diags: &mut Vec<Diagnostic>) {
    // Marker ids currently open in *this* block; pairs must balance
    // block-locally so every repetition of a block emits complete
    // begin/end pairs.
    let mut open: Vec<u32> = Vec::new();
    for (i, c) in cs.iter().enumerate() {
        let sp = span.child(i, c.kind_name());
        match c {
            Construct::DelayUs(us) => check_work(diags, &sp, "DelayUs", *us),
            Construct::Compute { cycles, .. } => check_work(diags, &sp, "Compute", *cycles),
            Construct::StreamBytes(b) => check_work(diags, &sp, "StreamBytes", *b),
            Construct::ParallelFor {
                schedule,
                total_iters,
                body_us,
                ordered_us,
                ..
            } => {
                if *total_iters == 0 {
                    diags.push(Diagnostic::because(
                        DiagCode::ZeroIterationLoop,
                        sp.clone(),
                        "work-shared loop with 0 iterations".into(),
                        RegionError::ZeroIterationLoop,
                    ));
                }
                let chunk = match schedule {
                    Schedule::Static { chunk } | Schedule::Dynamic { chunk } => *chunk,
                    Schedule::Guided { min_chunk } => *min_chunk,
                };
                if chunk == 0 {
                    diags.push(Diagnostic::because(
                        DiagCode::ZeroChunk,
                        sp.clone(),
                        "schedule with chunk size 0".into(),
                        RegionError::ZeroChunk,
                    ));
                }
                check_work(diags, &sp, "ParallelFor body", *body_us);
                if let Some(o) = ordered_us {
                    check_work(diags, &sp, "ordered section", *o);
                }
            }
            Construct::Critical { body_us } => check_work(diags, &sp, "Critical", *body_us),
            Construct::LockUnlock { body_us } => check_work(diags, &sp, "LockUnlock", *body_us),
            Construct::Single { body_us } => check_work(diags, &sp, "Single", *body_us),
            Construct::Reduction { body_us } => check_work(diags, &sp, "Reduction", *body_us),
            Construct::Tasks { body_us, .. } => check_work(diags, &sp, "Tasks body", *body_us),
            Construct::ReductionFor {
                schedule,
                total_iters,
                body_us,
                ..
            } => {
                if *total_iters == 0 {
                    diags.push(Diagnostic::because(
                        DiagCode::ZeroIterationLoop,
                        sp.clone(),
                        "reduction loop with 0 iterations".into(),
                        RegionError::ZeroIterationLoop,
                    ));
                }
                let chunk = match schedule {
                    Schedule::Static { chunk } | Schedule::Dynamic { chunk } => *chunk,
                    Schedule::Guided { min_chunk } => *min_chunk,
                };
                if chunk == 0 {
                    diags.push(Diagnostic::because(
                        DiagCode::ZeroChunk,
                        sp.clone(),
                        "schedule with chunk size 0".into(),
                        RegionError::ZeroChunk,
                    ));
                }
                check_work(diags, &sp, "ReductionFor body", *body_us);
            }
            Construct::Barrier | Construct::Atomic => {}
            Construct::VarRead { .. } | Construct::VarWrite { .. } => {}
            Construct::MarkBegin(id) => {
                if open.contains(id) {
                    diags.push(Diagnostic::because(
                        DiagCode::UnmatchedMark,
                        sp.clone(),
                        format!("interval {id} re-begun while already open"),
                        RegionError::UnmatchedMark { id: *id },
                    ));
                } else {
                    open.push(*id);
                }
            }
            Construct::MarkEnd(id) => match open.iter().position(|k| k == id) {
                Some(pos) => {
                    open.remove(pos);
                }
                None => diags.push(Diagnostic::because(
                    DiagCode::UnmatchedMark,
                    sp.clone(),
                    format!("MarkEnd({id}) without a matching open MarkBegin in this block"),
                    RegionError::UnmatchedMark { id: *id },
                )),
            },
            Construct::ParallelRegion { body } | Construct::Locked { body, .. } => {
                structural(body, &sp, diags);
            }
            Construct::Repeat { count, body } => {
                if *count == 0 {
                    diags.push(Diagnostic::because(
                        DiagCode::ZeroCountRepeat,
                        sp.clone(),
                        "Repeat with count 0".into(),
                        RegionError::ZeroCountRepeat,
                    ));
                }
                structural(body, &sp, diags);
                if *count > 1 && contains_nowait(body) && !contains_team_sync(body) {
                    diags.push(Diagnostic::because(
                        DiagCode::RepeatedNowaitLoop,
                        sp.clone(),
                        format!(
                            "body repeated ×{count} contains a nowait loop but no full-team \
                             synchronization: straggler iterations of one pass overlap the next, \
                             corrupting the loop's generation tracking"
                        ),
                        RegionError::RepeatedNowaitLoop,
                    ));
                }
            }
        }
    }
    if let Some(id) = open.first() {
        diags.push(Diagnostic::because(
            DiagCode::UnmatchedMark,
            span.clone(),
            format!("interval {id} still open at end of block"),
            RegionError::UnmatchedMark { id: *id },
        ));
    }
}

/// An open nowait window: a work-shared loop whose stragglers may still
/// be executing because the implicit end-of-loop barrier was skipped.
struct Window {
    span: Span,
}

/// Pass 2: phase partitioning. Walks the sequence tracking open nowait
/// windows; team synchronizations close them, shared-effect constructs
/// overlapping one are flagged `Warn`, and windows surviving to region
/// end get an `Info` note.
fn nowait_windows(spec: &RegionSpec, diags: &mut Vec<Diagnostic>) {
    let mut open: Vec<Window> = Vec::new();
    scan_windows(&spec.constructs, &Span::root(), &mut open, diags);
    for w in open {
        diags.push(Diagnostic::new(
            DiagCode::NowaitLeftOpen,
            w.span,
            "nowait window still open at region end; only the implicit region join closes it"
                .into(),
        ));
    }
}

/// Flag `what` at `sp` as overlapping the most recently opened window.
fn overlap(diags: &mut Vec<Diagnostic>, sp: &Span, what: &str, open: &[Window]) {
    if let Some(w) = open.last() {
        diags.push(Diagnostic::new(
            DiagCode::NowaitOverlap,
            sp.clone(),
            format!(
                "{what} may overlap straggler iterations of the nowait loop at {}",
                w.span
            ),
        ));
    }
}

fn scan_windows(
    cs: &[Construct],
    span: &Span,
    open: &mut Vec<Window>,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, c) in cs.iter().enumerate() {
        let sp = span.child(i, c.kind_name());
        match c {
            Construct::ParallelFor { nowait, .. } => {
                overlap(diags, &sp, "a second work-shared loop", open);
                if *nowait {
                    open.push(Window { span: sp });
                } else {
                    // The implicit end-of-loop barrier is a full-team
                    // rendezvous: every straggler has finished.
                    open.clear();
                }
            }
            Construct::Barrier => open.clear(),
            Construct::Single { .. } => {
                overlap(diags, &sp, "the single body", open);
                open.clear();
            }
            Construct::Reduction { .. } => {
                overlap(diags, &sp, "the reduction combine", open);
                open.clear();
            }
            Construct::Tasks { .. } => {
                overlap(diags, &sp, "task execution", open);
                open.clear();
            }
            Construct::ReductionFor { .. } => {
                overlap(diags, &sp, "the reduction loop", open);
                // The implicit end-of-loop barrier closes every window.
                open.clear();
            }
            Construct::Critical { .. } => overlap(diags, &sp, "the critical section", open),
            Construct::LockUnlock { .. } => overlap(diags, &sp, "the locked section", open),
            Construct::Atomic => overlap(diags, &sp, "the atomic update", open),
            Construct::Locked { body, .. } => {
                overlap(diags, &sp, "the locked scope", open);
                scan_windows(body, &sp, open, diags);
            }
            Construct::Repeat { body, .. } => scan_windows(body, &sp, open, diags),
            Construct::ParallelRegion { body } => {
                // A nested region forks its own team: its windows close
                // at its own join, and it neither closes nor extends the
                // outer team's windows.
                let mut inner: Vec<Window> = Vec::new();
                scan_windows(body, &sp, &mut inner, diags);
            }
            // Variable accesses have their own, clause-aware hazard
            // surface (OMPV301–303 from the data-race pass); flagging
            // them here as generic overlaps would double-report.
            Construct::VarRead { .. } | Construct::VarWrite { .. } => {}
            Construct::DelayUs(_)
            | Construct::Compute { .. }
            | Construct::StreamBytes(_)
            | Construct::MarkBegin(_)
            | Construct::MarkEnd(_) => {}
        }
    }
}

/// Pass 3: may-deadlock. Walks `Locked` nesting maintaining the
/// held-lock stack, then runs cycle detection over the acquisition-order
/// graph. An acyclic graph means lock acquisition follows a partial
/// order, which is deadlock-free; a cycle is the classic AB/BA hazard.
fn locks(spec: &RegionSpec, diags: &mut Vec<Diagnostic>) {
    let mut held: Vec<u32> = Vec::new();
    let mut graph: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    lock_walk(&spec.constructs, &Span::root(), &mut held, &mut graph, diags);
    if let Some(cycle) = find_cycle(&graph) {
        let path = cycle
            .iter()
            .map(|l| format!("lock {l}"))
            .collect::<Vec<_>>()
            .join(" → ");
        diags.push(Diagnostic::new(
            DiagCode::LockCycle,
            Span::root(),
            format!("lock acquisition order forms a cycle ({path}): concurrent threads taking different branches of the cycle may deadlock"),
        ));
    }
}

fn lock_walk(
    cs: &[Construct],
    span: &Span,
    held: &mut Vec<u32>,
    graph: &mut BTreeMap<u32, BTreeSet<u32>>,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, c) in cs.iter().enumerate() {
        let sp = span.child(i, c.kind_name());
        match c {
            Construct::Locked { lock, body } => {
                if held.contains(lock) {
                    diags.push(Diagnostic::because(
                        DiagCode::SelfNestedLock,
                        sp.clone(),
                        format!("lock {lock} is acquired while already held: guaranteed self-deadlock"),
                        RegionError::SelfNestedLock { lock: *lock },
                    ));
                } else {
                    for &h in held.iter() {
                        graph.entry(h).or_default().insert(*lock);
                    }
                }
                held.push(*lock);
                lock_walk(body, &sp, held, graph, diags);
                held.pop();
            }
            Construct::Barrier
            | Construct::Single { .. }
            | Construct::Reduction { .. }
            | Construct::Tasks { .. }
            | Construct::ReductionFor { .. }
                if !held.is_empty() =>
            {
                diags.push(Diagnostic::because(
                    DiagCode::SyncUnderLock,
                    sp.clone(),
                    format!(
                        "{} synchronizes the team while lock {} is held: threads blocked on the \
                         lock can never reach the rendezvous",
                        c.kind_name(),
                        held.last().expect("held is non-empty"),
                    ),
                    RegionError::SyncUnderLock {
                        construct: c.kind_name(),
                    },
                ));
            }
            Construct::ParallelRegion { body } => {
                if !held.is_empty() {
                    diags.push(Diagnostic::because(
                        DiagCode::SyncUnderLock,
                        sp.clone(),
                        format!(
                            "ParallelRegion forks and joins while lock {} is held",
                            held.last().expect("held is non-empty"),
                        ),
                        RegionError::SyncUnderLock {
                            construct: "ParallelRegion",
                        },
                    ));
                }
                lock_walk(body, &sp, held, graph, diags);
            }
            Construct::ParallelFor {
                nowait, ordered_us, ..
            } if !held.is_empty() => {
                if !*nowait {
                    diags.push(Diagnostic::because(
                        DiagCode::SyncUnderLock,
                        sp.clone(),
                        format!(
                            "the implicit end-of-loop barrier rendezvouses the team while lock \
                             {} is held",
                            held.last().expect("held is non-empty"),
                        ),
                        RegionError::SyncUnderLock {
                            construct: "ParallelFor",
                        },
                    ));
                } else if ordered_us.is_some() {
                    diags.push(Diagnostic::new(
                        DiagCode::OrderedUnderLock,
                        sp.clone(),
                        "ordered nowait loop under a held lock: ordered tickets owned by threads \
                         blocked on the lock may never retire"
                            .into(),
                    ));
                } else {
                    diags.push(Diagnostic::new(
                        DiagCode::WorkshareUnderLock,
                        sp.clone(),
                        "nowait workshare under a held lock: only the lock holder makes progress, \
                         serializing the loop"
                            .into(),
                    ));
                }
            }
            Construct::Repeat { body, .. } => lock_walk(body, &sp, held, graph, diags),
            _ => {}
        }
    }
}

/// Find a cycle in the acquisition-order graph (deterministic DFS over
/// the BTree ordering). Returns the cycle's node path, first node
/// repeated at the end.
fn find_cycle(graph: &BTreeMap<u32, BTreeSet<u32>>) -> Option<Vec<u32>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    fn dfs(
        v: u32,
        graph: &BTreeMap<u32, BTreeSet<u32>>,
        color: &mut BTreeMap<u32, Color>,
        stack: &mut Vec<u32>,
    ) -> Option<Vec<u32>> {
        color.insert(v, Color::Gray);
        stack.push(v);
        if let Some(succ) = graph.get(&v) {
            for &w in succ {
                match color.get(&w).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        let start = stack
                            .iter()
                            .position(|&x| x == w)
                            .expect("gray node is on the stack");
                        let mut cycle = stack[start..].to_vec();
                        cycle.push(w);
                        return Some(cycle);
                    }
                    Color::White => {
                        if let Some(cy) = dfs(w, graph, color, stack) {
                            return Some(cy);
                        }
                    }
                    Color::Black => {}
                }
            }
        }
        stack.pop();
        color.insert(v, Color::Black);
        None
    }
    let mut color: BTreeMap<u32, Color> = BTreeMap::new();
    let mut stack: Vec<u32> = Vec::new();
    for &v in graph.keys() {
        if color.get(&v).copied().unwrap_or(Color::White) == Color::White {
            if let Some(cy) = dfs(v, graph, &mut color, &mut stack) {
                return Some(cy);
            }
        }
    }
    None
}

/// Pass 4: cost advisory. Flags regions whose statically predicted
/// serialized work exceeds the parallelizable work — their variability
/// is a property of contention, not the runtime under study.
fn serial_bottleneck(spec: &RegionSpec, diags: &mut Vec<Diagnostic>) {
    if spec.n_threads < 2 {
        return;
    }
    let m = predict::cost(spec);
    if m.serialized_us > m.parallel_us && m.serialized_us > 0.0 {
        diags.push(Diagnostic::new(
            DiagCode::SerialBottleneck,
            Span::root(),
            format!(
                "predicted serialized work ({:.2} µs) exceeds parallelizable work ({:.2} µs) \
                 for {} threads: contention will dominate variability",
                m.serialized_us, m.parallel_us, spec.n_threads
            ),
        ));
    }
}

/// Pass 5: data-environment validation. Undeclared references,
/// duplicate declarations and reductions over non-shared variables are
/// `Error`s — no backend can give such a program a meaning.
fn data_env(spec: &RegionSpec, diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for d in &spec.vars {
        if !seen.insert(d.id) {
            diags.push(Diagnostic::because(
                DiagCode::DuplicateVarDecl,
                Span::root(),
                format!("variable {} (id {}) declared more than once", d.name, d.id),
                RegionError::DuplicateVarDecl { var: d.id },
            ));
        }
    }
    fn walk(cs: &[Construct], span: &Span, spec: &RegionSpec, diags: &mut Vec<Diagnostic>) {
        for (i, c) in cs.iter().enumerate() {
            let sp = span.child(i, c.kind_name());
            match c {
                Construct::VarRead { var } | Construct::VarWrite { var, .. }
                    if spec.var(*var).is_none() =>
                {
                    diags.push(Diagnostic::because(
                        DiagCode::UndeclaredVar,
                        sp,
                        format!("variable {var} referenced but not declared"),
                        RegionError::UndeclaredVar { var: *var },
                    ));
                }
                Construct::ReductionFor { var, red, .. } => match spec.var(*var) {
                    None => diags.push(Diagnostic::because(
                        DiagCode::UndeclaredVar,
                        sp,
                        format!("variable {var} referenced but not declared"),
                        RegionError::UndeclaredVar { var: *var },
                    )),
                    Some(d) if d.clause != Clause::Shared => diags.push(Diagnostic::because(
                        DiagCode::ReductionNotShared,
                        sp,
                        format!(
                            "reduction({}) over {} variable {}: a reduction into a per-thread \
                             copy has no defined combined result",
                            red.label(),
                            d.clause.label(),
                            d.name
                        ),
                        RegionError::ReductionNotShared { var: *var },
                    )),
                    Some(_) => {}
                },
                Construct::Repeat { body, .. }
                | Construct::ParallelRegion { body }
                | Construct::Locked { body, .. } => walk(body, &sp, spec, diags),
                _ => {}
            }
        }
    }
    walk(&spec.constructs, &Span::root(), spec, diags);
}

/// One open access to a shared variable: no full-team synchronization
/// has happened since it executed, so it may still be in flight on some
/// thread.
struct Access {
    span: Span,
    write: bool,
    /// Whether the write is a non-commutative `Set` (order-dependent
    /// even when every pair of writes is serialized by a lock).
    set: bool,
    /// Named locks held around the access.
    locks: BTreeSet<u32>,
    /// Nowait-window epoch: incremented every time a nowait loop opens
    /// a window, so two accesses with different epochs are separated by
    /// an open window (no team sync lies between them, or they would
    /// not both be open).
    epoch: u64,
}

/// Per-shared-variable open-access state of the race pass.
#[derive(Default)]
struct RaceState {
    open: BTreeMap<u32, Vec<Access>>,
    epoch: u64,
}

/// Pass 6: clause-aware data races over the SPMD sequence. Because
/// every thread executes the same construct list, concurrency between
/// two program points is bounded only by full-team synchronizations:
/// within one conflict window, any pair of accesses — including one
/// site racing its own copies on other threads — may interleave.
/// Private and firstprivate copies never conflict; `ReductionFor`
/// combines are commutative-write-safe; named-lock scopes serialize the
/// accesses they enclose.
fn data_races(spec: &RegionSpec, diags: &mut Vec<Diagnostic>) {
    if spec.n_threads < 2 {
        return;
    }
    let mut held: Vec<u32> = Vec::new();
    let mut st = RaceState::default();
    race_walk(&spec.constructs, &Span::root(), spec, &mut held, &mut st, diags);
}

/// Record one access to shared variable `var` and flag conflicts with
/// every open access.
#[allow(clippy::too_many_arguments)]
fn race_access(
    var: u32,
    name: &str,
    sp: &Span,
    write: bool,
    set: bool,
    held: &[u32],
    st: &mut RaceState,
    diags: &mut Vec<Diagnostic>,
) {
    let locks: BTreeSet<u32> = held.iter().copied().collect();
    if write && locks.is_empty() {
        // SPMD self-race: the whole team executes this write with
        // nothing serializing the copies.
        diags.push(Diagnostic::new(
            DiagCode::SharedWriteRace,
            sp.clone(),
            format!(
                "unprotected write to shared variable {name}: every thread of the team \
                 executes it concurrently (write/write race)"
            ),
        ));
    }
    let open = st.open.entry(var).or_default();
    for a in open.iter() {
        if a.span == *sp {
            continue;
        }
        let serialized = !a.locks.is_disjoint(&locks);
        if write && a.write {
            if !serialized {
                diags.push(Diagnostic::new(
                    DiagCode::SharedWriteRace,
                    sp.clone(),
                    format!(
                        "write to shared variable {name} races the write at {} \
                         (no common lock, no team synchronization between them)",
                        a.span
                    ),
                ));
            } else if set || a.set {
                diags.push(Diagnostic::new(
                    DiagCode::SharedWriteRace,
                    sp.clone(),
                    format!(
                        "order-dependent writes to shared variable {name}: this write and \
                         the write at {} are serialized by a lock but at least one is a \
                         non-commutative store, so the final value depends on arrival order",
                        a.span
                    ),
                ));
            }
        } else if write != a.write && !serialized && a.epoch != st.epoch {
            diags.push(Diagnostic::new(
                DiagCode::NowaitReadWriteRace,
                sp.clone(),
                format!(
                    "read/write conflict on shared variable {name} with the access at {} \
                     across an open nowait window: straggler iterations make the \
                     interleaving window unbounded",
                    a.span
                ),
            ));
        }
    }
    open.push(Access {
        span: sp.clone(),
        write,
        set,
        locks,
        epoch: st.epoch,
    });
}

fn race_walk(
    cs: &[Construct],
    span: &Span,
    spec: &RegionSpec,
    held: &mut Vec<u32>,
    st: &mut RaceState,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, c) in cs.iter().enumerate() {
        let sp = span.child(i, c.kind_name());
        match c {
            // Full-team synchronizations: every open access has
            // completed on every thread once the rendezvous passes.
            Construct::Barrier
            | Construct::Single { .. }
            | Construct::Reduction { .. }
            | Construct::Tasks { .. } => st.open.clear(),
            Construct::ParallelFor { nowait, .. } => {
                if *nowait {
                    // The window extends conflicts: accesses before the
                    // loop stay open, and the epoch bump marks later
                    // accesses as window-crossing.
                    st.epoch += 1;
                } else {
                    st.open.clear();
                }
            }
            Construct::VarRead { var } => {
                if let Some(d) = spec.var(*var) {
                    if d.clause == Clause::Shared {
                        race_access(*var, &d.name, &sp, false, false, held, st, diags);
                    }
                }
            }
            Construct::VarWrite { var, op } => {
                if let Some(d) = spec.var(*var) {
                    if d.clause == Clause::Shared {
                        let set = matches!(op, WriteOp::Set(_));
                        race_access(*var, &d.name, &sp, true, set, held, st, diags);
                    }
                }
            }
            Construct::ReductionFor { var, .. } => {
                // The reduction's internal serialization covers only its
                // own combines: any still-open outside access to the
                // target races them, locks or not.
                if let Some(open) = st.open.get(var) {
                    if let Some(a) = open.first() {
                        let name = spec.var(*var).map_or("?", |d| d.name.as_str());
                        diags.push(Diagnostic::new(
                            DiagCode::ReductionOutsideAccess,
                            sp.clone(),
                            format!(
                                "reduction over shared variable {name} while the access at {} \
                                 may still be in flight: the reduction's internal \
                                 synchronization does not cover outside accesses",
                                a.span
                            ),
                        ));
                    }
                }
                // The implicit end-of-loop barrier is a full-team sync.
                st.open.clear();
            }
            Construct::Locked { lock, body } => {
                held.push(*lock);
                race_walk(body, &sp, spec, held, st, diags);
                held.pop();
            }
            Construct::Repeat { count, body } => {
                race_walk(body, &sp, spec, held, st, diags);
                if *count > 1 {
                    // Second walk with the first pass's accesses still
                    // open: catches tail-of-iteration-k conflicting with
                    // head-of-iteration-k+1. Spans repeat, so the report
                    // dedup collapses the duplicates.
                    race_walk(body, &sp, spec, held, st, diags);
                }
            }
            Construct::ParallelRegion { body } => {
                // A nested region forks its own team around entry/exit
                // rendezvous: outside accesses are ordered before and
                // after it on both backends, and inside accesses race
                // only each other.
                st.open.clear();
                let mut inner = RaceState {
                    open: BTreeMap::new(),
                    epoch: st.epoch,
                };
                race_walk(body, &sp, spec, held, &mut inner, diags);
                st.epoch = inner.epoch;
            }
            Construct::DelayUs(_)
            | Construct::Compute { .. }
            | Construct::StreamBytes(_)
            | Construct::Critical { .. }
            | Construct::LockUnlock { .. }
            | Construct::Atomic
            | Construct::MarkBegin(_)
            | Construct::MarkEnd(_) => {}
        }
    }
}

/// Pass 7: dead private writes. Linearizes the SPMD sequence (repeat
/// bodies with `count > 1` twice, so a next-iteration read keeps a
/// write live) and flags private/firstprivate stores never read before
/// the copy is discarded. A span is flagged only when *every* dynamic
/// occurrence of the write is dead.
fn dead_private_writes(spec: &RegionSpec, diags: &mut Vec<Diagnostic>) {
    fn linearize(cs: &[Construct], span: &Span, out: &mut Vec<(u32, bool, Span)>) {
        for (i, c) in cs.iter().enumerate() {
            let sp = span.child(i, c.kind_name());
            match c {
                Construct::VarRead { var } => out.push((*var, false, sp)),
                Construct::VarWrite { var, .. } => out.push((*var, true, sp)),
                Construct::Repeat { count, body } => {
                    linearize(body, &sp, out);
                    if *count > 1 {
                        linearize(body, &sp, out);
                    }
                }
                Construct::ParallelRegion { body } | Construct::Locked { body, .. } => {
                    linearize(body, &sp, out);
                }
                _ => {}
            }
        }
    }
    let mut seq: Vec<(u32, bool, Span)> = Vec::new();
    linearize(&spec.constructs, &Span::root(), &mut seq);
    let mut dead: Vec<(u32, Span)> = Vec::new();
    let mut live: BTreeSet<Span> = BTreeSet::new();
    for (i, (var, write, sp)) in seq.iter().enumerate() {
        if !*write {
            continue;
        }
        let Some(d) = spec.var(*var) else { continue };
        if d.clause == Clause::Shared {
            continue;
        }
        // Dead iff the next access to this variable is a write (or the
        // program ends first).
        let next = seq[i + 1..].iter().find(|(v, _, _)| v == var);
        match next {
            Some((_, true, _)) | None => dead.push((*var, sp.clone())),
            Some((_, false, _)) => {
                live.insert(sp.clone());
            }
        }
    }
    for (var, sp) in dead {
        if live.contains(&sp) {
            continue;
        }
        let d = spec.var(var).expect("checked above");
        diags.push(Diagnostic::new(
            DiagCode::DeadPrivateWrite,
            sp,
            format!(
                "dead store: this write to {} variable {} is never read before the \
                 per-thread copy is discarded",
                d.clause.label(),
                d.name
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn spec(n: usize, cs: Vec<Construct>) -> RegionSpec {
        RegionSpec {
            n_threads: n,
            vars: Vec::new(),
            constructs: cs,
        }
    }

    /// [`super::analyze`], which every test below goes through — so every
    /// program written down here also holds the split pipeline to its
    /// contract: `validate()` is `analyze().first_error()`.
    fn analyze(spec: &RegionSpec) -> Analysis {
        let analysis = super::analyze(spec);
        assert_eq!(
            spec.validate().err(),
            analysis.first_error().and_then(|d| d.cause),
            "{}",
            analysis.render()
        );
        analysis
    }

    fn codes(n: usize, cs: Vec<Construct>) -> BTreeSet<DiagCode> {
        analyze(&spec(n, cs)).diagnostics.iter().map(|d| d.code).collect()
    }

    fn nowait_loop() -> Construct {
        Construct::ParallelFor {
            schedule: Schedule::Dynamic { chunk: 1 },
            total_iters: 8,
            body_us: 0.1,
            ordered_us: None,
            nowait: true,
        }
    }

    fn plain_loop() -> Construct {
        Construct::ParallelFor {
            schedule: Schedule::Static { chunk: 1 },
            total_iters: 8,
            body_us: 0.1,
            ordered_us: None,
            nowait: false,
        }
    }

    /// A busy but hazard-free program: the clean negative shared by the
    /// per-code tests below.
    fn clean_program() -> RegionSpec {
        spec(
            2,
            vec![
                Construct::Barrier,
                Construct::MarkBegin(0),
                Construct::Repeat {
                    count: 3,
                    body: vec![plain_loop(), Construct::DelayUs(5.0)],
                },
                Construct::MarkEnd(0),
                Construct::ParallelRegion {
                    body: vec![Construct::DelayUs(1.0)],
                },
            ],
        )
    }

    #[test]
    fn clean_program_is_clean() {
        let a = analyze(&clean_program());
        assert!(a.is_clean(), "{}", a.render());
        assert_eq!(a.render(), "clean");
        assert!(clean_program().validate().is_ok());
    }

    // One positive test per diagnostic code (the clean negative above
    // covers the "absent on a clean program" half for all of them).

    #[test]
    fn ompv001_zero_threads() {
        assert!(codes(0, vec![]).contains(&DiagCode::ZeroThreads));
        assert!(!codes(1, vec![]).contains(&DiagCode::ZeroThreads));
    }

    #[test]
    fn ompv002_zero_count_repeat() {
        let c = codes(2, vec![Construct::Repeat { count: 0, body: vec![] }]);
        assert!(c.contains(&DiagCode::ZeroCountRepeat));
        let c = codes(2, vec![Construct::Repeat { count: 1, body: vec![] }]);
        assert!(!c.contains(&DiagCode::ZeroCountRepeat));
    }

    #[test]
    fn ompv003_zero_iteration_loop() {
        let zero = Construct::ParallelFor {
            schedule: Schedule::Static { chunk: 1 },
            total_iters: 0,
            body_us: 0.1,
            ordered_us: None,
            nowait: false,
        };
        assert!(codes(2, vec![zero]).contains(&DiagCode::ZeroIterationLoop));
        assert!(!codes(2, vec![plain_loop()]).contains(&DiagCode::ZeroIterationLoop));
    }

    #[test]
    fn ompv004_zero_chunk() {
        let zero = Construct::ParallelFor {
            schedule: Schedule::Guided { min_chunk: 0 },
            total_iters: 4,
            body_us: 0.1,
            ordered_us: None,
            nowait: false,
        };
        assert!(codes(2, vec![zero]).contains(&DiagCode::ZeroChunk));
        assert!(!codes(2, vec![plain_loop()]).contains(&DiagCode::ZeroChunk));
    }

    #[test]
    fn ompv005_invalid_work() {
        assert!(codes(2, vec![Construct::DelayUs(-1.0)]).contains(&DiagCode::InvalidWork));
        assert!(
            codes(2, vec![Construct::Single { body_us: f64::INFINITY }])
                .contains(&DiagCode::InvalidWork)
        );
        assert!(!codes(2, vec![Construct::DelayUs(1.0)]).contains(&DiagCode::InvalidWork));
    }

    #[test]
    fn ompv006_unmatched_mark() {
        assert!(codes(2, vec![Construct::MarkBegin(7)]).contains(&DiagCode::UnmatchedMark));
        assert!(codes(2, vec![Construct::MarkEnd(7)]).contains(&DiagCode::UnmatchedMark));
        let balanced = vec![Construct::MarkBegin(7), Construct::MarkEnd(7)];
        assert!(!codes(2, balanced).contains(&DiagCode::UnmatchedMark));
    }

    #[test]
    fn ompv101_repeated_nowait_loop() {
        let bad = vec![Construct::Repeat {
            count: 2,
            body: vec![nowait_loop()],
        }];
        assert!(codes(2, bad).contains(&DiagCode::RepeatedNowaitLoop));
        let good = vec![Construct::Repeat {
            count: 2,
            body: vec![nowait_loop(), Construct::Barrier],
        }];
        assert!(!codes(2, good).contains(&DiagCode::RepeatedNowaitLoop));
    }

    #[test]
    fn ompv102_nowait_overlap() {
        // A critical section while stragglers of the nowait loop may
        // still be running.
        let hazard = vec![nowait_loop(), Construct::Critical { body_us: 0.1 }];
        let a = analyze(&spec(2, hazard));
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::NowaitOverlap)
            .expect("overlap flagged");
        assert_eq!(d.severity(), Severity::Warn);
        assert!(d.message.contains("constructs[0].ParallelFor"), "{}", d.message);
        // A barrier between them closes the window.
        let safe = vec![
            nowait_loop(),
            Construct::Barrier,
            Construct::Critical { body_us: 0.1 },
        ];
        assert!(!codes(2, safe).contains(&DiagCode::NowaitOverlap));
    }

    #[test]
    fn ompv102_overlap_is_seen_through_repeat_bodies() {
        // The window opens inside one construct and the overlap happens
        // in a sibling: phase state flows across block boundaries.
        let hazard = vec![
            Construct::Repeat {
                count: 1,
                body: vec![nowait_loop()],
            },
            Construct::Single { body_us: 0.1 },
        ];
        assert!(codes(2, hazard).contains(&DiagCode::NowaitOverlap));
    }

    #[test]
    fn ompv103_nowait_left_open() {
        let open = vec![nowait_loop()];
        let a = analyze(&spec(2, open));
        assert!(a.diagnostics.iter().any(|d| d.code == DiagCode::NowaitLeftOpen));
        // The same loop followed by a barrier leaves nothing open.
        let closed = vec![nowait_loop(), Construct::Barrier];
        assert!(!codes(2, closed).contains(&DiagCode::NowaitLeftOpen));
        // A nested region's join closes its own windows.
        let nested = vec![
            Construct::ParallelRegion {
                body: vec![nowait_loop()],
            },
        ];
        assert!(!codes(2, nested).contains(&DiagCode::NowaitLeftOpen));
    }

    #[test]
    fn ompv104_self_nested_lock() {
        let bad = vec![Construct::Locked {
            lock: 2,
            body: vec![Construct::Locked {
                lock: 2,
                body: vec![],
            }],
        }];
        assert!(codes(2, bad).contains(&DiagCode::SelfNestedLock));
        let good = vec![Construct::Locked {
            lock: 2,
            body: vec![Construct::Locked {
                lock: 3,
                body: vec![],
            }],
        }];
        assert!(!codes(2, good).contains(&DiagCode::SelfNestedLock));
    }

    #[test]
    fn ompv105_sync_under_lock() {
        for sync in [
            Construct::Barrier,
            Construct::Single { body_us: 0.1 },
            Construct::Reduction { body_us: 0.1 },
            Construct::Tasks {
                per_spawner: 1,
                body_us: 0.1,
                master_only: false,
            },
            Construct::ParallelRegion { body: vec![] },
            plain_loop(),
        ] {
            let bad = vec![Construct::Locked {
                lock: 0,
                body: vec![sync.clone()],
            }];
            assert!(
                codes(2, bad).contains(&DiagCode::SyncUnderLock),
                "{} under lock must be flagged",
                sync.kind_name()
            );
        }
        let good = vec![Construct::Locked {
            lock: 0,
            body: vec![Construct::DelayUs(0.1), Construct::Atomic],
        }];
        assert!(!codes(2, good).contains(&DiagCode::SyncUnderLock));
    }

    #[test]
    fn ompv110_lock_cycle() {
        // AB in one arm, BA in a later arm: same SPMD program, but
        // threads can interleave the two Locked chains.
        let ab_ba = vec![
            Construct::Locked {
                lock: 0,
                body: vec![Construct::Locked {
                    lock: 1,
                    body: vec![Construct::DelayUs(0.1)],
                }],
            },
            Construct::Locked {
                lock: 1,
                body: vec![Construct::Locked {
                    lock: 0,
                    body: vec![Construct::DelayUs(0.1)],
                }],
            },
        ];
        let a = analyze(&spec(2, ab_ba.clone()));
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::LockCycle)
            .expect("cycle flagged");
        assert_eq!(d.severity(), Severity::Warn);
        assert!(a.may_deadlock());
        // Warn-level: still validates (it *may* run fine).
        assert!(spec(2, ab_ba).validate().is_ok());
        // Consistent AB ... AB order is acyclic, hence clean.
        let ab_ab = vec![
            Construct::Locked {
                lock: 0,
                body: vec![Construct::Locked {
                    lock: 1,
                    body: vec![Construct::DelayUs(0.1)],
                }],
            },
            Construct::Locked {
                lock: 0,
                body: vec![Construct::Locked {
                    lock: 1,
                    body: vec![Construct::DelayUs(0.1)],
                }],
            },
        ];
        assert!(!codes(2, ab_ab).contains(&DiagCode::LockCycle));
    }

    #[test]
    fn ompv111_ordered_under_lock() {
        let ordered_nowait = Construct::ParallelFor {
            schedule: Schedule::Dynamic { chunk: 1 },
            total_iters: 4,
            body_us: 0.1,
            ordered_us: Some(0.05),
            nowait: true,
        };
        let bad = vec![Construct::Locked {
            lock: 0,
            body: vec![ordered_nowait],
        }];
        let c = codes(2, bad);
        assert!(c.contains(&DiagCode::OrderedUnderLock));
        let good = vec![Construct::Locked {
            lock: 0,
            body: vec![nowait_loop()],
        }];
        assert!(!codes(2, good).contains(&DiagCode::OrderedUnderLock));
    }

    #[test]
    fn ompv112_workshare_under_lock() {
        let bad = vec![Construct::Locked {
            lock: 0,
            body: vec![nowait_loop()],
        }];
        let a = analyze(&spec(2, bad));
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::WorkshareUnderLock)
            .expect("flagged");
        assert_eq!(d.severity(), Severity::Info);
        // Info-level: not part of the verdict.
        assert!(!a.verdict().contains(&DiagCode::WorkshareUnderLock));
        assert!(!codes(2, vec![nowait_loop(), Construct::Barrier])
            .contains(&DiagCode::WorkshareUnderLock));
    }

    #[test]
    fn ompv201_serial_bottleneck() {
        // All the work is a critical section: fully serialized.
        let serial = vec![Construct::Critical { body_us: 10.0 }];
        assert!(codes(4, serial.clone()).contains(&DiagCode::SerialBottleneck));
        // The same region on one thread has no contention to flag.
        assert!(!codes(1, serial).contains(&DiagCode::SerialBottleneck));
        // Dominated by parallel work: clean.
        let parallel = vec![
            Construct::DelayUs(100.0),
            Construct::Critical { body_us: 0.1 },
        ];
        assert!(!codes(4, parallel).contains(&DiagCode::SerialBottleneck));
    }

    #[test]
    fn error_diagnostics_carry_their_region_error() {
        for cs in [
            vec![Construct::Repeat { count: 0, body: vec![] }],
            vec![Construct::MarkBegin(1)],
            vec![Construct::Locked {
                lock: 0,
                body: vec![Construct::Barrier],
            }],
        ] {
            let a = analyze(&spec(2, cs));
            let first = a.first_error().expect("error present");
            assert!(first.cause.is_some(), "{}", first.render());
            // And every error-severity finding, not just the first.
            for d in &a.diagnostics {
                assert_eq!(
                    d.cause.is_some(),
                    d.severity() == Severity::Error,
                    "{}",
                    d.render()
                );
            }
        }
    }

    #[test]
    fn analyze_collects_multiple_findings_in_one_call() {
        let a = analyze(&spec(
            2,
            vec![
                Construct::DelayUs(-1.0),
                nowait_loop(),
                Construct::Critical { body_us: 0.1 },
            ],
        ));
        let c: BTreeSet<DiagCode> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(c.contains(&DiagCode::InvalidWork));
        assert!(c.contains(&DiagCode::NowaitOverlap));
        assert!(c.contains(&DiagCode::NowaitLeftOpen));
        // validate() surfaces the *first* error in pass order.
        assert_eq!(
            spec(2, vec![Construct::DelayUs(-1.0), Construct::MarkEnd(0)]).validate(),
            Err(RegionError::InvalidWork { construct: "DelayUs" })
        );
    }

    #[test]
    fn spans_address_nested_constructs() {
        let a = analyze(&spec(
            2,
            vec![Construct::Repeat {
                count: 1,
                body: vec![Construct::DelayUs(f64::NAN)],
            }],
        ));
        let d = &a.diagnostics[0];
        assert_eq!(d.span.to_string(), "constructs[0].Repeat.body[0].DelayUs");
    }

    // ---- data environment & race pass (OMPV30x) ----

    use crate::region::{Clause, RedOp, VarDecl, WriteOp};

    fn decl(id: u32, clause: Clause) -> VarDecl {
        VarDecl {
            id,
            name: format!("v{id}"),
            clause,
            init: 1,
        }
    }

    fn vspec(n: usize, vars: Vec<VarDecl>, cs: Vec<Construct>) -> RegionSpec {
        RegionSpec {
            n_threads: n,
            vars,
            constructs: cs,
        }
    }

    fn vcodes(s: &RegionSpec) -> BTreeSet<DiagCode> {
        analyze(s).diagnostics.iter().map(|d| d.code).collect()
    }

    fn add(var: u32) -> Construct {
        Construct::VarWrite {
            var,
            op: WriteOp::Add(1),
        }
    }

    fn red_for(var: u32) -> Construct {
        Construct::ReductionFor {
            var,
            red: RedOp::Sum,
            schedule: Schedule::Static { chunk: 1 },
            total_iters: 8,
            body_us: 0.1,
            delta: 1,
        }
    }

    #[test]
    fn ompv301_shared_write_race() {
        // Positive: two unprotected shared writes (also a self-race each).
        let racy = vspec(2, vec![decl(0, Clause::Shared)], vec![add(0), add(0)]);
        let c = vcodes(&racy);
        assert!(c.contains(&DiagCode::SharedWriteRace), "{:?}", c);
        assert!(analyze(&racy).may_race());
        // Negative: the same writes under a common named lock.
        let locked = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![
                Construct::Locked { lock: 3, body: vec![add(0)] },
                Construct::Locked { lock: 3, body: vec![add(0)] },
            ],
        );
        assert!(!vcodes(&locked).contains(&DiagCode::SharedWriteRace));
        // Negative: private copies never conflict.
        let private = vspec(2, vec![decl(0, Clause::Private)], vec![add(0), add(0)]);
        assert!(!analyze(&private).may_race());
    }

    #[test]
    fn ompv301_lock_protected_set_is_still_order_dependent() {
        // Two lock-serialized Sets: mutual exclusion, but the final
        // value depends on arrival order.
        let s = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![
                Construct::Locked {
                    lock: 1,
                    body: vec![Construct::VarWrite { var: 0, op: WriteOp::Set(7) }],
                },
                Construct::Locked {
                    lock: 1,
                    body: vec![Construct::VarWrite { var: 0, op: WriteOp::Set(9) }],
                },
            ],
        );
        assert!(vcodes(&s).contains(&DiagCode::SharedWriteRace));
        // One lone lock-protected Set is fine: every thread stores the
        // same value.
        let one = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![Construct::Locked {
                lock: 1,
                body: vec![Construct::VarWrite { var: 0, op: WriteOp::Set(7) }],
            }],
        );
        assert!(!vcodes(&one).contains(&DiagCode::SharedWriteRace));
    }

    #[test]
    fn ompv301_closed_by_team_sync() {
        // A barrier between two locked Sets closes the window... but the
        // self-race logic still applies pairwise only, and a single
        // locked Set per window is deterministic.
        let s = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![
                Construct::Locked {
                    lock: 1,
                    body: vec![Construct::VarWrite { var: 0, op: WriteOp::Set(7) }],
                },
                Construct::Barrier,
                Construct::Locked {
                    lock: 1,
                    body: vec![Construct::VarWrite { var: 0, op: WriteOp::Set(9) }],
                },
            ],
        );
        assert!(!vcodes(&s).contains(&DiagCode::SharedWriteRace));
    }

    #[test]
    fn ompv302_nowait_read_write_race() {
        let lk = |body| Construct::Locked { lock: 4, body };
        // Positive: locked write, nowait window opens, read under a
        // *different* lock — serialized pairwise? No: disjoint locksets
        // and an open window between them.
        let racy = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![
                lk(vec![add(0)]),
                nowait_loop(),
                Construct::Locked { lock: 5, body: vec![Construct::VarRead { var: 0 }] },
            ],
        );
        assert!(vcodes(&racy).contains(&DiagCode::NowaitReadWriteRace));
        // Negative: a plain (non-nowait) loop joins the team first.
        let joined = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![
                lk(vec![add(0)]),
                plain_loop(),
                Construct::Locked { lock: 5, body: vec![Construct::VarRead { var: 0 }] },
            ],
        );
        assert!(!vcodes(&joined).contains(&DiagCode::NowaitReadWriteRace));
        // Negative: a shared lock serializes the pair even across the
        // window.
        let same_lock = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![
                lk(vec![add(0)]),
                nowait_loop(),
                lk(vec![Construct::VarRead { var: 0 }]),
            ],
        );
        assert!(!vcodes(&same_lock).contains(&DiagCode::NowaitReadWriteRace));
    }

    #[test]
    fn ompv303_reduction_outside_access() {
        // Positive: a still-open locked write races the reduction's
        // internal combines (its lock is not the reduction's).
        let racy = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![
                Construct::Locked { lock: 2, body: vec![add(0)] },
                red_for(0),
            ],
        );
        assert!(vcodes(&racy).contains(&DiagCode::ReductionOutsideAccess));
        // Negative: a barrier closes the window first.
        let sync = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![
                Construct::Locked { lock: 2, body: vec![add(0)] },
                Construct::Barrier,
                red_for(0),
            ],
        );
        let c = vcodes(&sync);
        assert!(!c.contains(&DiagCode::ReductionOutsideAccess), "{c:?}");
        // And the reduction itself acts as a team sync for later code.
        let after = vspec(
            2,
            vec![decl(0, Clause::Shared), decl(1, Clause::Shared)],
            vec![
                Construct::Locked { lock: 2, body: vec![add(1)] },
                red_for(0),
                Construct::Locked { lock: 3, body: vec![Construct::VarRead { var: 1 }] },
            ],
        );
        assert!(!vcodes(&after).contains(&DiagCode::NowaitReadWriteRace));
    }

    #[test]
    fn ompv304_dead_private_write() {
        // Positive: firstprivate write never read again.
        let dead = vspec(
            2,
            vec![decl(0, Clause::Firstprivate)],
            vec![add(0)],
        );
        let a = analyze(&dead);
        assert!(vcodes(&dead).contains(&DiagCode::DeadPrivateWrite));
        // Info severity: the program is still clean for gating purposes.
        assert!(a.verdict().is_empty());
        assert!(!a.may_race());
        // Negative: a later read keeps it live.
        let live = vspec(
            2,
            vec![decl(0, Clause::Private)],
            vec![add(0), Construct::VarRead { var: 0 }],
        );
        assert!(!vcodes(&live).contains(&DiagCode::DeadPrivateWrite));
        // Negative: a write at the tail of a repeated body is read by
        // the next iteration's head.
        let looped = vspec(
            2,
            vec![decl(0, Clause::Private)],
            vec![Construct::Repeat {
                count: 3,
                body: vec![Construct::VarRead { var: 0 }, add(0)],
            }],
        );
        assert!(!vcodes(&looped).contains(&DiagCode::DeadPrivateWrite));
    }

    #[test]
    fn ompv305_undeclared_var() {
        let c = vcodes(&vspec(2, vec![], vec![Construct::VarRead { var: 7 }]));
        assert!(c.contains(&DiagCode::UndeclaredVar));
        let ok = vcodes(&vspec(
            2,
            vec![decl(7, Clause::Shared)],
            vec![Construct::VarRead { var: 7 }],
        ));
        assert!(!ok.contains(&DiagCode::UndeclaredVar));
    }

    #[test]
    fn ompv306_duplicate_var_decl() {
        let c = vcodes(&vspec(
            2,
            vec![decl(0, Clause::Shared), decl(0, Clause::Private)],
            vec![],
        ));
        assert!(c.contains(&DiagCode::DuplicateVarDecl));
        let ok = vcodes(&vspec(
            2,
            vec![decl(0, Clause::Shared), decl(1, Clause::Private)],
            vec![],
        ));
        assert!(!ok.contains(&DiagCode::DuplicateVarDecl));
    }

    #[test]
    fn ompv307_reduction_not_shared() {
        let c = vcodes(&vspec(2, vec![decl(0, Clause::Private)], vec![red_for(0)]));
        assert!(c.contains(&DiagCode::ReductionNotShared));
        let ok = vcodes(&vspec(2, vec![decl(0, Clause::Shared)], vec![red_for(0)]));
        assert!(!ok.contains(&DiagCode::ReductionNotShared));
    }

    #[test]
    fn races_need_a_team() {
        // n_threads = 1: no concurrency, no races.
        let a = analyze(&vspec(1, vec![decl(0, Clause::Shared)], vec![add(0), add(0)]));
        assert!(!a.may_race(), "{}", a.render());
    }

    #[test]
    fn repeat_wraps_conflict_windows_around() {
        // A single unlocked *read* then a locked write inside a repeated
        // body: iteration k's write conflicts with iteration k+1's read
        // only through the nowait window opened in between.
        let s = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![Construct::Repeat {
                count: 2,
                body: vec![
                    Construct::Locked { lock: 1, body: vec![add(0)] },
                    nowait_loop(),
                    Construct::Locked { lock: 2, body: vec![Construct::VarRead { var: 0 }] },
                ],
            }],
        );
        assert!(vcodes(&s).contains(&DiagCode::NowaitReadWriteRace));
    }

    #[test]
    fn diagnostics_are_sorted_and_deduped() {
        // Repeat double-walk produces duplicate (code, span) pairs; the
        // report must collapse them and come out span-then-code sorted.
        let s = vspec(
            2,
            vec![decl(0, Clause::Shared)],
            vec![
                Construct::Repeat {
                    count: 4,
                    body: vec![add(0), add(0)],
                },
                Construct::DelayUs(-1.0),
            ],
        );
        let a = analyze(&s);
        let keys: Vec<(Span, DiagCode)> = a
            .diagnostics
            .iter()
            .map(|d| (d.span.clone(), d.code))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(keys, sorted, "report must be sorted and deduped");
        // Same program analyzed twice gives a byte-identical report.
        assert_eq!(a.render(), analyze(&s).render());
    }
}

//! `OMP_PROC_BIND`-style binding policies and the thread→place assignment.

use crate::machine::MachineSpec;
use crate::places::{Place, Places};
use std::fmt;

/// Binding policy, mirroring `OMP_PROC_BIND`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcBind {
    /// No binding: threads are left to the OS scheduler and may migrate
    /// between hardware threads during execution. This is the OpenMP
    /// default (`OMP_PROC_BIND=false`) and the "before pinning" case of
    /// the paper.
    False,
    /// Threads are bound to places contiguously, close to the primary
    /// thread: thread `i` → place `i mod n_places`.
    Close,
    /// Threads are spread over the place list as evenly as possible:
    /// thread `i` → place `floor(i * n_places / n_threads)` (when
    /// `n_threads <= n_places`), maximizing distance between threads.
    Spread,
    /// All threads are bound to the primary thread's place.
    Primary,
}

impl fmt::Display for ProcBind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcBind::False => "false",
            ProcBind::Close => "close",
            ProcBind::Spread => "spread",
            ProcBind::Primary => "primary",
        };
        f.write_str(s)
    }
}

impl ProcBind {
    /// Parse the `OMP_PROC_BIND` value (case-insensitive). `master` is
    /// accepted as the deprecated spelling of `primary`, and `true` as an
    /// alias for `close` (the usual libgomp interpretation for a single
    /// nesting level).
    pub fn parse(s: &str) -> Option<ProcBind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "false" => Some(ProcBind::False),
            "true" | "close" => Some(ProcBind::Close),
            "spread" => Some(ProcBind::Spread),
            "primary" | "master" => Some(ProcBind::Primary),
            _ => None,
        }
    }
}

/// The result of binding a team: for each OpenMP thread, either the place
/// it is pinned to, or `None` when unbound.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadAssignment {
    assignment: Vec<Option<Place>>,
}

impl ThreadAssignment {
    /// Place of thread `tid`, or `None` when the thread is unbound.
    pub fn place_of(&self, tid: usize) -> Option<&Place> {
        self.assignment[tid].as_ref()
    }

    /// Number of threads in the team.
    pub fn n_threads(&self) -> usize {
        self.assignment.len()
    }

    /// Iterate over `(tid, place)` pairs for bound threads.
    pub fn iter_bound(&self) -> impl Iterator<Item = (usize, &Place)> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i, p)))
    }
}

/// Assign `n_threads` OpenMP threads to places following `bind`.
///
/// The place list is resolved against `machine`. With [`ProcBind::False`]
/// every thread is unbound (`None`), which the simulator and native runtime
/// interpret as "let the OS place and migrate it".
///
/// # Panics
///
/// Panics if `n_threads == 0` or if the resolved place list is empty while
/// a binding policy other than `False` is requested.
pub fn assign_places(
    machine: &MachineSpec,
    places: &Places,
    bind: ProcBind,
    n_threads: usize,
) -> ThreadAssignment {
    assert!(n_threads > 0, "a team needs at least one thread");
    if bind == ProcBind::False {
        return ThreadAssignment {
            assignment: vec![None; n_threads],
        };
    }
    let list = places.resolve(machine);
    assert!(!list.is_empty(), "binding requested with an empty place list");
    let n_places = list.len();
    let assignment = (0..n_threads)
        .map(|tid| {
            let idx = match bind {
                ProcBind::False => unreachable!(),
                ProcBind::Close => tid % n_places,
                ProcBind::Spread => {
                    if n_threads <= n_places {
                        tid * n_places / n_threads
                    } else {
                        // More threads than places: wrap around like close,
                        // per the OpenMP spec's subpartition fallback.
                        tid % n_places
                    }
                }
                ProcBind::Primary => 0,
            };
            Some(list[idx].clone())
        })
        .collect();
    ThreadAssignment { assignment }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{HwThreadId, MachineSpec};

    #[test]
    fn close_is_contiguous_and_wraps() {
        let m = MachineSpec::vera();
        let a = assign_places(&m, &Places::Threads(Some(4)), ProcBind::Close, 6);
        assert_eq!(a.place_of(0).unwrap().first(), HwThreadId(0));
        assert_eq!(a.place_of(3).unwrap().first(), HwThreadId(3));
        assert_eq!(a.place_of(4).unwrap().first(), HwThreadId(0)); // wrap
        assert!((0..a.n_threads()).all(|t| a.place_of(t).is_some()));
    }

    #[test]
    fn spread_maximizes_distance() {
        let m = MachineSpec::vera();
        let a = assign_places(&m, &Places::Threads(Some(32)), ProcBind::Spread, 2);
        assert_eq!(a.place_of(0).unwrap().first(), HwThreadId(0));
        // Second thread lands halfway through the place list → other socket.
        assert_eq!(a.place_of(1).unwrap().first(), HwThreadId(16));
        assert_eq!(m.socket_of(a.place_of(1).unwrap().first()).0, 1);
    }

    #[test]
    fn spread_with_more_threads_than_places_wraps() {
        let m = MachineSpec::vera();
        let a = assign_places(&m, &Places::Threads(Some(2)), ProcBind::Spread, 4);
        assert_eq!(a.place_of(2).unwrap().first(), HwThreadId(0));
        assert_eq!(a.place_of(3).unwrap().first(), HwThreadId(1));
    }

    #[test]
    fn primary_packs_everything_on_place_zero() {
        let m = MachineSpec::vera();
        let a = assign_places(&m, &Places::Threads(None), ProcBind::Primary, 8);
        for t in 0..8 {
            assert_eq!(a.place_of(t).unwrap().first(), HwThreadId(0));
        }
    }

    #[test]
    fn unbound_assignment_has_no_places() {
        let m = MachineSpec::vera();
        let a = assign_places(&m, &Places::Threads(None), ProcBind::False, 8);
        assert_eq!(a.n_threads(), 8);
        assert!((0..a.n_threads()).all(|t| a.place_of(t).is_none()));
        assert!(a.iter_bound().next().is_none());
    }

    #[test]
    fn proc_bind_parsing() {
        assert_eq!(ProcBind::parse("close"), Some(ProcBind::Close));
        assert_eq!(ProcBind::parse("TRUE"), Some(ProcBind::Close));
        assert_eq!(ProcBind::parse("master"), Some(ProcBind::Primary));
        assert_eq!(ProcBind::parse(" spread "), Some(ProcBind::Spread));
        assert_eq!(ProcBind::parse("false"), Some(ProcBind::False));
        assert_eq!(ProcBind::parse("banana"), None);
    }

    #[test]
    fn close_over_cores_places_uses_whole_core() {
        let m = MachineSpec::dardel();
        let a = assign_places(&m, &Places::Cores(Some(4)), ProcBind::Close, 4);
        assert_eq!(a.place_of(0).unwrap().len(), 2); // both SMT contexts
    }
}

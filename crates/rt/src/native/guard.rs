//! A shared wall-clock deadline for one native region run.
//!
//! Every in-region wait of the native backend (barrier, ordered ticket,
//! task-pool drain, named-lock acquisition) is [`super::wait`]'s one wait
//! loop, which consults the run's [`RunGuard`] each time its spin budget
//! runs out, before it yields. When the absolute deadline passes — or
//! any teammate has already tripped the guard — the wait gives up and
//! the run reports a typed timeout instead of hanging forever on a lost
//! ticket or a crashed teammate.
//! A team thread that panics [trips](RunGuard::trip) the guard on its way
//! out, so its teammates stop waiting for it at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Deadline state shared by all threads of one region run.
#[derive(Debug)]
pub struct RunGuard {
    deadline: Option<Instant>,
    budget: Option<Duration>,
    tripped: AtomicBool,
}

impl RunGuard {
    /// Guard expiring `budget` from now (`None`: never expires).
    pub fn new(budget: Option<Duration>) -> Self {
        RunGuard {
            deadline: budget.map(|d| Instant::now() + d),
            budget,
            tripped: AtomicBool::new(false),
        }
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// End the run now: every bounded wait that consults this guard from
    /// here on gives up, whatever the deadline says.
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::Relaxed);
    }

    /// Whether the run is out of time. Once true for one thread it is
    /// true for every thread, so a whole stuck team bails out together.
    pub fn expired(&self) -> bool {
        if self.tripped.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.tripped.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_guard_never_expires() {
        let g = RunGuard::new(None);
        assert!(!g.expired());
        assert_eq!(g.budget(), None);
    }

    #[test]
    fn a_tripped_guard_is_expired_whatever_its_deadline() {
        let g = RunGuard::new(None);
        g.trip();
        assert!(g.expired());
    }

    #[test]
    fn expiry_is_sticky_across_threads() {
        let g = RunGuard::new(Some(Duration::ZERO));
        assert!(g.expired());
        std::thread::scope(|s| {
            s.spawn(|| assert!(g.expired()));
        });
    }
}

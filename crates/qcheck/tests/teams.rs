//! `check_case` takes its native runtime from the calling thread, so two
//! fuzz workers run their cases on two warm teams, never queueing on one.
//! The test is a process of its own because it counts team threads.

use ompvar_qcheck::oracle::check_case;
use ompvar_rt::region::{Construct, RegionSpec};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Live native-team threads of this process, by the name the team gives
/// them; `None` where there is no `/proc`.
fn team_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm"))
                    .is_ok_and(|comm| comm.starts_with("ompvar-team"))
            })
            .count(),
    )
}

#[test]
fn check_case_from_two_threads_uses_two_teams_that_exit_with_them() {
    const TEAM: usize = 3;
    let region = RegionSpec::measured(TEAM, 2, 2, vec![Construct::Barrier]);
    let both_checked = Arc::new(Barrier::new(3));
    let counted = Arc::new(Barrier::new(3));
    let callers: Vec<_> = (0..2)
        .map(|_| {
            let region = region.clone();
            let (both_checked, counted) = (Arc::clone(&both_checked), Arc::clone(&counted));
            std::thread::spawn(move || {
                for seed in 0..20 {
                    assert_eq!(check_case(&region, seed), Vec::<String>::new());
                }
                both_checked.wait();
                counted.wait();
            })
        })
        .collect();
    both_checked.wait();
    if let Some(n) = team_threads() {
        assert_eq!(n, 2 * TEAM, "one team per calling thread, reused across its cases");
    }
    counted.wait();
    for caller in callers {
        caller.join().expect("caller thread");
    }
    // A joined thread can stay listed in `/proc` for a moment.
    let patience = Instant::now() + Duration::from_secs(5);
    while team_threads().is_some_and(|n| n != 0) && Instant::now() < patience {
        std::thread::yield_now();
    }
    if let Some(n) = team_threads() {
        assert_eq!(n, 0, "a thread's team exits with it");
    }
}

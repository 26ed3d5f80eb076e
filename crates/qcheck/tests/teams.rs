//! `check_case` takes its native runtime from the calling thread, so two
//! fuzz workers run their cases on two warm teams, never queueing on one,
//! each team on one CPU of its own. The test is a process of its own
//! because it counts team threads.

use ompvar_qcheck::oracle::check_case;
use ompvar_rt::native::affinity;
use ompvar_rt::region::{Construct, RegionSpec};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The CPUs each live native-team thread of this process may run on
/// (its `Cpus_allowed_list`), threads told by the name the team gives
/// them; `None` where there is no `/proc`.
fn team_cpus() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm"))
                    .is_ok_and(|comm| comm.starts_with("ompvar-team"))
            })
            .map(|t| {
                let status = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
                let allowed = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
                allowed.unwrap_or_default().trim().to_string()
            })
            .collect(),
    )
}

fn team_threads() -> Option<usize> {
    team_cpus().map(|cpus| cpus.len())
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
    // One CPU per team, dealt round-robin over the mask the callers
    // inherited from this thread.
    if let (Some(cpus), Some(mask)) = (team_cpus(), affinity::current_affinity()) {
        let mut threads_on = BTreeMap::new();
        for cpu in cpus {
            *threads_on.entry(cpu).or_insert(0) += 1;
        }
        let mut expected = BTreeMap::new();
        for home in mask.iter().cycle().take(2) {
            *expected.entry(home.to_string()).or_insert(0) += TEAM;
        }
        assert_eq!(threads_on, expected, "team threads per allowed-CPU list");
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

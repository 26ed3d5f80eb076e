//! Port of the EPCC `taskbench` micro-benchmark (explicit-task
//! overheads), following LaGrone et al.'s task micro-benchmark design
//! that the EPCC suite adopted.
//!
//! Each timed repetition spawns a batch of `delay(delay_us)` tasks,
//! executes them at a task-scheduling point and waits for completion.
//! The overhead per task is the repetition time divided by the number of
//! tasks, minus the ideal (perfectly parallel) task time. The paper lists
//! taskbench as future work; this module is the corresponding extension.

use crate::params::EpccConfig;
use ompvar_rt::region::{Construct, RegionSpec};

/// Task-benchmark patterns, mirroring the upstream kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskPattern {
    /// Every team thread spawns `tasks_per_spawner` tasks ("PARALLEL
    /// TASK"): spawn contention plus distributed execution.
    ParallelTask,
    /// Only the master spawns ("MASTER TASK"): a producer/consumer
    /// pattern where the team steals from one spawner's queue.
    MasterTask,
}

impl TaskPattern {
    /// All patterns in reporting order.
    pub const ALL: [TaskPattern; 2] = [TaskPattern::ParallelTask, TaskPattern::MasterTask];

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            TaskPattern::ParallelTask => "parallel_task",
            TaskPattern::MasterTask => "master_task",
        }
    }
}

/// Build a taskbench region: `outer_reps` timed repetitions, each
/// spawning and draining `tasks_per_spawner` tasks per spawning thread.
pub fn region(
    cfg: &EpccConfig,
    pattern: TaskPattern,
    n_threads: usize,
    tasks_per_spawner: u32,
) -> RegionSpec {
    RegionSpec::measured(
        n_threads,
        cfg.outer_reps,
        1,
        vec![Construct::Tasks {
            per_spawner: tasks_per_spawner,
            body_us: cfg.delay_us,
            master_only: pattern == TaskPattern::MasterTask,
        }],
    )
}

/// Total tasks per repetition for a pattern/team/spawn-count.
pub fn tasks_per_rep(pattern: TaskPattern, n_threads: usize, tasks_per_spawner: u32) -> u64 {
    match pattern {
        TaskPattern::ParallelTask => n_threads as u64 * tasks_per_spawner as u64,
        TaskPattern::MasterTask => tasks_per_spawner as u64,
    }
}

/// Ideal repetition time, µs: total task work spread over the team.
pub fn ideal_rep_us(
    cfg: &EpccConfig,
    pattern: TaskPattern,
    n_threads: usize,
    tasks_per_spawner: u32,
) -> f64 {
    let total = tasks_per_rep(pattern, n_threads, tasks_per_spawner) as f64;
    total * cfg.delay_us / n_threads as f64
}

/// Per-task overhead, µs, from a measured repetition time.
pub fn overhead_per_task_us(
    cfg: &EpccConfig,
    pattern: TaskPattern,
    n_threads: usize,
    tasks_per_spawner: u32,
    rep_us: f64,
) -> f64 {
    let total = tasks_per_rep(pattern, n_threads, tasks_per_spawner) as f64;
    (rep_us - ideal_rep_us(cfg, pattern, n_threads, tasks_per_spawner)) / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_rt::config::RtConfig;
    use ompvar_rt::native::NativeRuntime;
    use ompvar_rt::runner::RegionRunner;
    use ompvar_rt::simrt::SimRuntime;
    use ompvar_sim::params::SimParams;
    use ompvar_topology::{MachineSpec, Places};

    fn sim_rt(n: usize) -> SimRuntime {
        SimRuntime::new(
            MachineSpec::vera(),
            RtConfig::pinned_close(Places::Threads(Some(n))),
        )
        .with_params(SimParams::sterile())
    }

    #[test]
    fn both_patterns_run_on_the_simulator() {
        let cfg = EpccConfig::syncbench_default().fast(3);
        for pattern in TaskPattern::ALL {
            let region = region(&cfg, pattern, 8, 32);
            let res = sim_rt(8).run_region(&region, 1).expect("taskbench region completes");
            assert_eq!(res.reps().len(), 3, "{}", pattern.label());
            assert!(res.reps()[1] > 0.0);
        }
    }

    #[test]
    fn tasks_actually_distribute_work() {
        // 8 threads, master spawns 64 tasks of 10 µs: if only the master
        // executed them the repetition would take 640 µs; with the team
        // stealing, it should be well under half of that.
        let mut cfg = EpccConfig::syncbench_default().fast(3);
        cfg.delay_us = 10.0;
        let region = region(&cfg, TaskPattern::MasterTask, 8, 64);
        let res = sim_rt(8).run_region(&region, 1).expect("taskbench region completes");
        let rep = res.reps()[1];
        assert!(rep < 320.0, "rep {rep} µs — tasks not distributed");
        assert!(rep > 80.0, "rep {rep} µs — faster than the work itself");
    }

    #[test]
    fn overhead_grows_with_team_for_parallel_spawn() {
        let cfg = EpccConfig::syncbench_default().fast(3);
        let oh = |n: usize| {
            let region = region(&cfg, TaskPattern::ParallelTask, n, 16);
            let res = sim_rt(n).run_region(&region, 1).expect("taskbench region completes");
            overhead_per_task_us(&cfg, TaskPattern::ParallelTask, n, 16, res.reps()[1])
        };
        let small = oh(2);
        let large = oh(16);
        assert!(
            large > small,
            "spawn/dispatch contention should grow: {small} vs {large}"
        );
    }

    #[test]
    fn native_backend_runs_tasks() {
        let mut cfg = EpccConfig::syncbench_default().fast(2);
        cfg.delay_us = 1.0;
        // One runtime: the second pattern runs on the team the first
        // one left parked.
        let rt = NativeRuntime::new(RtConfig::unbound());
        for pattern in TaskPattern::ALL {
            let r = region(&cfg, pattern, 2, 8);
            let res = rt.run_region(&r, 0).expect("taskbench region completes");
            assert_eq!(res.reps().len(), 2, "{}", pattern.label());
        }
    }

    #[test]
    fn accounting_helpers() {
        let cfg = EpccConfig::syncbench_default();
        assert_eq!(tasks_per_rep(TaskPattern::ParallelTask, 8, 16), 128);
        assert_eq!(tasks_per_rep(TaskPattern::MasterTask, 8, 16), 16);
        let ideal = ideal_rep_us(&cfg, TaskPattern::ParallelTask, 8, 16);
        assert!((ideal - 16.0 * 0.1).abs() < 1e-12);
        let oh = overhead_per_task_us(&cfg, TaskPattern::ParallelTask, 8, 16, ideal + 128.0);
        assert!((oh - 1.0).abs() < 1e-12);
    }
}

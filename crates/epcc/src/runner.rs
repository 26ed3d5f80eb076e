//! The multi-run protocol: execute a region `n_runs` times under
//! consecutive seeds, one lazily produced [`RegionResult`] per run.

use ompvar_core::RunSet;
use ompvar_rt::config::RegionResult;
use ompvar_rt::region::RegionSpec;
use ompvar_rt::runner::RegionRunner;
use ompvar_rt::RtError;

/// Run `i` of a configuration: `region` under seed `seed_base + i`
/// (simulated backend), mirroring the paper's protocol of independent
/// job submissions per configuration. The one definition of the seed
/// of run `i` — a harness grid cell is one call of this; [`run_seeds`]
/// is the serial loop over it.
pub fn run_seed<R: RegionRunner>(
    rt: &R,
    region: &RegionSpec,
    seed_base: u64,
    i: usize,
) -> Result<RegionResult, RtError> {
    rt.run_region(region, seed_base.wrapping_add(i as u64))
}

/// The serial seed loop: item `i` is [`run_seed`] `i`. Lazy — nothing
/// runs until the iterator is advanced, so a fold never holds more than
/// one run's frequency trace and counters at a time.
///
/// # Panics
///
/// Advancing panics if a run fails to complete.
pub fn run_seeds<'a, R: RegionRunner>(
    rt: &'a R,
    region: &'a RegionSpec,
    n_runs: usize,
    seed_base: u64,
) -> impl Iterator<Item = RegionResult> + 'a {
    (0..n_runs).map(move |i| {
        run_seed(rt, region, seed_base, i)
            .unwrap_or_else(|e| panic!("run {i}/{n_runs} on {} failed: {e}", rt.backend_name()))
    })
}

/// [`run_seeds`] folded into a [`RunSet`] of per-run repetition times
/// for variability analysis.
pub fn run_many<R: RegionRunner>(
    rt: &R,
    region: &RegionSpec,
    n_runs: usize,
    seed_base: u64,
) -> RunSet {
    RunSet::new(run_seeds(rt, region, n_runs, seed_base).map(|r| r.reps().to_vec()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_rt::config::RtConfig;
    use ompvar_rt::region::Construct;
    use ompvar_rt::simrt::SimRuntime;
    use ompvar_sim::params::SimParams;
    use ompvar_topology::{MachineSpec, Places};

    #[test]
    fn collects_one_entry_per_run() {
        let rt = SimRuntime::new(
            MachineSpec::vera(),
            RtConfig::pinned_close(Places::Threads(Some(4))),
        )
        .with_params(SimParams::sterile());
        let region = RegionSpec::measured(4, 3, 5, vec![Construct::Barrier]);
        let rs = run_many(&rt, &region, 4, 100);
        assert_eq!(rs.n_runs(), 4);
        assert!(rs.runs.iter().all(|r| r.reps_us.len() == 3));
    }

    /// A runner that counts its calls, to observe laziness.
    struct Counting<'a>(&'a SimRuntime, std::cell::Cell<usize>);

    impl RegionRunner for Counting<'_> {
        fn run_region(
            &self,
            region: &RegionSpec,
            seed: u64,
        ) -> Result<RegionResult, ompvar_rt::RtError> {
            self.1.set(self.1.get() + 1);
            self.0.run_region(region, seed)
        }
        fn backend_name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn run_seeds_is_lazy_and_item_i_is_seed_base_plus_i() {
        let sim = SimRuntime::new(
            MachineSpec::vera(),
            RtConfig::pinned_close(Places::Threads(Some(4))),
        );
        let rt = Counting(&sim, std::cell::Cell::new(0));
        let region = RegionSpec::measured(4, 3, 5, vec![Construct::DelayUs(50.0), Construct::Barrier]);
        let mut it = run_seeds(&rt, &region, 3, 40);
        assert_eq!(rt.1.get(), 0, "building the iterator must run nothing");
        let first = it.next().unwrap();
        assert_eq!(rt.1.get(), 1, "one item, one run");
        let rest: Vec<RegionResult> = it.collect();
        assert_eq!(rt.1.get(), 3);
        for (i, got) in std::iter::once(&first).chain(&rest).enumerate() {
            let want = sim.run_region(&region, 40 + i as u64).unwrap();
            assert_eq!(got.reps(), want.reps(), "item {i}");
            assert_eq!(got.wall_us, want.wall_us, "item {i}");
        }
        // `run_many` is exactly the fold of the same stream.
        let rs = run_many(&sim, &region, 3, 40);
        assert_eq!(rs.runs[2].reps_us, rest[1].reps());
    }

    #[test]
    fn noisy_runs_differ_across_seeds() {
        let rt = SimRuntime::new(
            MachineSpec::vera(),
            RtConfig::pinned_close(Places::Threads(Some(4))),
        );
        // Long enough (~100 ms per run) that noise arrivals and frequency
        // pulses are near-certain to land inside the measured window.
        let region = RegionSpec::measured(
            4,
            10,
            20,
            vec![Construct::DelayUs(500.0), Construct::Barrier],
        );
        let rs = run_many(&rt, &region, 3, 7);
        let means = rs.run_means();
        assert!(means.windows(2).any(|w| w[0] != w[1]));
    }
}

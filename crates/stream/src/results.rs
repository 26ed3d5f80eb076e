//! BabelStream result extraction: per-kernel min/avg/max, and min and
//! max normalized to the average as the paper presents them.

use crate::kernels::StreamKernel;
use ompvar_core::Summary;
use ompvar_rt::config::RegionResult;
use std::collections::BTreeMap;

/// Per-kernel timing statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelStats {
    /// Minimum iteration time, µs.
    pub min_us: f64,
    /// Average iteration time, µs.
    pub avg_us: f64,
    /// Maximum iteration time, µs.
    pub max_us: f64,
}

impl KernelStats {
    /// Minimum normalized to the average (≤ 1).
    pub fn norm_min(&self) -> f64 {
        self.min_us / self.avg_us
    }

    /// Maximum normalized to the average (≥ 1).
    pub fn norm_max(&self) -> f64 {
        self.max_us / self.avg_us
    }
}

/// Extract per-kernel stats from one run's [`RegionResult`]. The first
/// iteration is discarded as warm-up, as BabelStream does.
pub fn kernel_stats(res: &RegionResult) -> BTreeMap<StreamKernel, KernelStats> {
    let mut out = BTreeMap::new();
    for k in StreamKernel::ALL {
        let times = res
            .intervals_us
            .get(&k.marker())
            .unwrap_or_else(|| panic!("missing kernel interval {}", k.label()));
        assert!(
            times.len() >= 2,
            "need ≥2 iterations to discard warm-up for {}",
            k.label()
        );
        let steady = &times[1..];
        let s = Summary::of(steady);
        out.insert(
            k,
            KernelStats {
                min_us: s.min,
                avg_us: s.mean,
                max_us: s.max,
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{region, StreamConfig};
    use ompvar_rt::config::RtConfig;
    use ompvar_rt::runner::RegionRunner;
    use ompvar_rt::simrt::SimRuntime;
    use ompvar_sim::params::SimParams;
    use ompvar_topology::{MachineSpec, Places};

    fn run(n: usize) -> RegionResult {
        let config = RtConfig::pinned_close(Places::Threads(Some(n)));
        let rt = SimRuntime::new(MachineSpec::vera(), config).with_params(SimParams::sterile());
        rt.run_region(&region(&StreamConfig::small(), n), 11)
            .expect("stream region completes")
    }

    #[test]
    fn all_kernels_reported() {
        let stats = kernel_stats(&run(8));
        assert_eq!(stats.len(), 5);
        for (k, s) in &stats {
            assert!(s.min_us > 0.0, "{}", k.label());
            // Allow a few ulps: sterile iterations are identical and the
            // mean can differ from min/max in the last bit.
            let eps = 1e-9 * s.avg_us;
            assert!(s.min_us <= s.avg_us + eps && s.avg_us <= s.max_us + eps);
        }
    }

    #[test]
    fn add_and_triad_move_more_bytes_than_copy() {
        let stats = kernel_stats(&run(8));
        let copy = stats[&StreamKernel::Copy].avg_us;
        let add = stats[&StreamKernel::Add].avg_us;
        let triad = stats[&StreamKernel::Triad].avg_us;
        assert!(add > copy * 1.2, "add {add} vs copy {copy}");
        assert!(triad > copy * 1.2, "triad {triad} vs copy {copy}");
    }

    #[test]
    fn more_threads_reduce_time() {
        let t2 = kernel_stats(&run(2))[&StreamKernel::Triad].avg_us;
        let t16 = kernel_stats(&run(16))[&StreamKernel::Triad].avg_us;
        assert!(t16 < t2, "triad time should shrink: {t2} → {t16}");
    }
}

//! Run the EPCC syncbench suite on the *native* backend — real threads on
//! this host, using the crate's own synchronization primitives — and
//! print per-construct overheads with the repetition-time percentiles of
//! the most expensive one.
//!
//! ```text
//! cargo run --release --example native_epcc [n_threads]
//! ```

use ompvar::core::{percentile, Summary};
use ompvar::epcc::syncbench::{self, SyncConstruct};
use ompvar::epcc::EpccConfig;
use ompvar::rt::{NativeRuntime, RegionRunner, RtConfig};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get().min(4))
                .unwrap_or(2)
        });
    let cfg = EpccConfig::syncbench_default().fast(20);
    let rt = NativeRuntime::new(RtConfig::unbound());
    println!("EPCC syncbench, native backend, {n} threads, 20 reps\n");
    println!("{:14} {:>12} {:>10} {:>10}", "construct", "per-op µs", "cv", "max/min");
    let mut worst: Option<(SyncConstruct, Vec<f64>)> = None;
    for c in SyncConstruct::ALL {
        let inner = syncbench::calibrate_inner_reps(&rt, &cfg, c, n, 200);
        let region = syncbench::region_with_inner(&cfg, c, n, inner);
        let res = rt.run_region(&region, 0).expect("region run completes");
        let s = Summary::of(res.reps());
        let per_op = syncbench::overhead_us(&cfg, c, s.mean, inner);
        println!(
            "{:14} {:>12.3} {:>10.4} {:>10.2}",
            c.label(),
            per_op,
            s.cv,
            s.spread()
        );
        if worst.as_ref().map(|(_, r)| Summary::of(r).mean < s.mean).unwrap_or(true) {
            worst = Some((c, res.reps().to_vec()));
        }
    }
    if let Some((c, reps)) = worst {
        println!("\nrepetition time of `{}` (µs per rep):", c.label());
        for p in [0.0, 10.0, 50.0, 90.0, 100.0] {
            println!("  p{p:<3} {:>12.3}", percentile(&reps, p));
        }
    }
    println!("\n(on a small or oversubscribed host these overheads are noisy —\n the simulated backend exists for controlled studies)");
}

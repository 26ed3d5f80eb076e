//! Property-based tests on the core data structures and invariants,
//! spanning the topology, simulator, runtime and statistics crates.

use ompvar::core::RunSet;
use ompvar::core::{percentile, Summary};
use ompvar::sim::prelude::{
    CorunClass, Program, Rng, SimParams, Simulator,
};
use ompvar::sim::sync::{LoopSchedule, LoopSpec};
use ompvar::topology::{
    assign_places, HwThreadId, MachineSpec, Place, Places, ProcBind, ThreadAssignment,
};
use proptest::prelude::*;

/// Arbitrary small machines.
fn machines() -> impl Strategy<Value = MachineSpec> {
    (1usize..=2, 1usize..=4, 1usize..=16, 1usize..=2).prop_map(|(sockets, numa, cores, smt)| {
        MachineSpec {
            name: "prop".to_string(),
            sockets,
            numa_per_socket: numa,
            cores_per_numa: cores,
            smt,
            ..MachineSpec::generic(1, 1, 1)
        }
    })
}

proptest! {
    /// Every hardware thread maps to a valid core/NUMA/socket, and the
    /// mapping is consistent with the inverse enumeration.
    #[test]
    fn topology_mappings_are_total_and_consistent(m in machines()) {
        for hw in 0..m.n_hw_threads() {
            let hw = HwThreadId(hw);
            let core = m.core_of(hw);
            prop_assert!(core.0 < m.n_cores());
            prop_assert!(m.hw_threads_of_core(core).contains(&hw));
            let numa = m.numa_of(hw);
            prop_assert!(numa.0 < m.n_numa());
            prop_assert!(m.hw_threads_of_numa(numa).contains(&hw));
            let socket = m.socket_of(hw);
            prop_assert!(socket.0 < m.sockets);
        }
    }

    /// Distance is symmetric, zero only within a core, and bounded by 3.
    #[test]
    fn topology_distance_properties(m in machines(), a in 0usize..64, b in 0usize..64) {
        let n = m.n_hw_threads();
        let (a, b) = (HwThreadId(a % n), HwThreadId(b % n));
        let d = m.distance(a, b);
        prop_assert_eq!(d, m.distance(b, a));
        prop_assert!(d <= 3);
        prop_assert_eq!(d == 0, m.core_of(a) == m.core_of(b));
    }

    /// Place assignment never produces out-of-range CPUs and binds every
    /// thread (for binding policies).
    #[test]
    fn assignment_is_valid(
        m in machines(),
        n_threads in 1usize..40,
        bind_sel in 0u8..4,
    ) {
        let bind = match bind_sel {
            0 => ProcBind::False,
            1 => ProcBind::Close,
            2 => ProcBind::Spread,
            _ => ProcBind::Primary,
        };
        let a = assign_places(&m, &Places::Threads(None), bind, n_threads);
        prop_assert_eq!(a.n_threads(), n_threads);
        if bind == ProcBind::False {
            prop_assert!(!fully_bound(&a) || n_threads == 0);
        } else {
            prop_assert!(fully_bound(&a));
            for (_, p) in a.iter_bound() {
                for &hw in p.hw_threads() {
                    prop_assert!(hw.0 < m.n_hw_threads());
                }
            }
        }
    }

    /// The OMP_PLACES parser accepts all generated interval forms and
    /// produces the expected count.
    #[test]
    fn places_parser_interval_counts(lower in 0usize..64, len in 1usize..16, stride in 1usize..4) {
        let s = format!("{{{lower}:{len}:{stride}}}");
        let Places::Explicit(list) = Places::parse(&s).unwrap() else {
            return Err(TestCaseError::fail("expected explicit"));
        };
        prop_assert_eq!(list.len(), 1);
        prop_assert_eq!(list[0].len(), len);
        prop_assert_eq!(list[0].first(), HwThreadId(lower));
    }

    /// Replicated places: `{base:len}:count:stride` yields `count` places
    /// of `len` threads each, shifted by `stride`.
    #[test]
    fn places_parser_replication(base in 0usize..16, len in 1usize..8, count in 1usize..8, stride in 1usize..8) {
        let s = format!("{{{base}:{len}}}:{count}:{stride}");
        let Places::Explicit(list) = Places::parse(&s).unwrap() else {
            return Err(TestCaseError::fail("expected explicit"));
        };
        prop_assert_eq!(list.len(), count);
        for (k, p) in list.iter().enumerate() {
            prop_assert_eq!(p.first(), HwThreadId(base + k * stride));
        }
    }

    /// Work-shared loops partition the iteration space exactly once, for
    /// every schedule, chunking, batching and team size.
    #[test]
    fn loops_partition_exactly(
        total in 1u64..2000,
        n_threads in 1usize..9,
        chunk in 1u64..9,
        batch in 1u32..9,
        kind in 0u8..3,
    ) {
        let schedule = match kind {
            0 => LoopSchedule::Static { chunk },
            1 => LoopSchedule::Dynamic { chunk },
            _ => LoopSchedule::Guided { min_chunk: chunk },
        };
        let mut obj = ompvar::sim::sync::LoopObj::new(LoopSpec {
            schedule,
            total_iters: total,
            n_threads,
            body_cycles: 1.0,
            body_class: CorunClass::Latency,
            ordered_section_ns: None,
            batch,
            span_factor: 1.0,
        });
        // Drain with round-robin grabbing. The aggregated static fast
        // path (static, batch > 1) hands out interleaved chunk sets, so
        // its grabs are checked by count conservation; all other paths
        // must cover every iteration exactly once.
        let aggregated_static = kind == 0 && batch > 1;
        let mut gens = vec![u64::MAX; n_threads];
        let mut poss = vec![0u64; n_threads];
        let mut covered = vec![false; total as usize];
        let mut granted = 0u64;
        let mut done = vec![false; n_threads];
        while done.iter().any(|d| !d) {
            for r in 0..n_threads {
                if done[r] { continue; }
                match obj.grab(r, &mut gens[r], &mut poss[r]) {
                    Some(g) => {
                        prop_assert!(g.iters > 0);
                        granted += g.iters;
                        if !aggregated_static {
                            for i in g.first_iter..g.first_iter + g.iters {
                                prop_assert!(!covered[i as usize], "iter {} twice", i);
                                covered[i as usize] = true;
                            }
                        }
                    }
                    None => {
                        done[r] = true;
                        obj.observe_exhausted();
                    }
                }
            }
        }
        prop_assert_eq!(granted, total);
        if !aggregated_static {
            prop_assert!(covered.iter().all(|&c| c));
        }
    }

    /// Guided chunks never grow as the loop progresses.
    #[test]
    fn guided_chunks_monotone(total in 10u64..5000, n in 1usize..9, min_chunk in 1u64..6) {
        let mut obj = ompvar::sim::sync::LoopObj::new(LoopSpec {
            schedule: LoopSchedule::Guided { min_chunk },
            total_iters: total,
            n_threads: n,
            body_cycles: 1.0,
            body_class: CorunClass::Latency,
            ordered_section_ns: None,
            batch: 1,
            span_factor: 1.0,
        });
        let (mut gen, mut pos) = (u64::MAX, 0);
        let mut prev = u64::MAX;
        while let Some(g) = obj.grab(0, &mut gen, &mut pos) {
            prop_assert!(g.iters <= prev);
            prev = g.iters.max(min_chunk);
        }
    }

    /// Summary invariants: min ≤ median ≤ max, mean within [min, max],
    /// CV scale-invariant, normalization brackets 1.
    #[test]
    fn summary_invariants(xs in prop::collection::vec(0.001f64..1e6, 1..200), scale in 0.001f64..1000.0) {
        let s = Summary::of(&xs);
        prop_assert!(s.min <= s.median + 1e-9 && s.median <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 * s.max && s.mean <= s.max + 1e-9 * s.max);
        prop_assert!(s.norm_min() <= 1.0 + 1e-12);
        prop_assert!(s.norm_max() >= 1.0 - 1e-12);
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        let s2 = Summary::of(&scaled);
        prop_assert!((s.cv - s2.cv).abs() < 1e-6 * (1.0 + s.cv));
    }

    /// Percentiles are monotone in `p` and bounded by the extremes.
    #[test]
    fn percentile_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..100), p1 in 0f64..100.0, p2 in 0f64..100.0) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a = percentile(&xs, lo);
        let b = percentile(&xs, hi);
        prop_assert!(a <= b + 1e-9);
        let s = Summary::of(&xs);
        prop_assert!(a >= s.min - 1e-9 && b <= s.max + 1e-9);
    }

    /// Variance decomposition components are in [0,1] and sum to 1.
    #[test]
    fn variance_decomposition_sums(
        runs in prop::collection::vec(prop::collection::vec(0.1f64..1e4, 2..20), 2..10)
    ) {
        let rs = RunSet::new(runs);
        let (b, w) = rs.variance_decomposition();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&b));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&w));
        prop_assert!((b + w - 1.0).abs() < 1e-6);
    }

    /// The RNG's `below` is always in range, and forked streams with
    /// different labels/indices differ.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut r = Rng::new(seed);
        for _ in 0..50 {
            prop_assert!(r.below(n) < n);
        }
    }

    /// A sterile simulated compute program's duration is exactly
    /// cycles/frequency, independent of the seed.
    #[test]
    fn sterile_compute_is_seed_independent(seed in any::<u64>(), mcycles in 1f64..50.0) {
        let m = MachineSpec::generic(1, 2, 1);
        let mut sim = Simulator::new(m, SimParams::sterile(), seed);
        let prog = Program::builder()
            .compute(mcycles * 1e6, CorunClass::Latency)
            .build();
        sim.spawn_user(0, prog, Some(Place::single(HwThreadId(0))));
        let rep = sim.run(ompvar::sim::time::SEC * 10).expect("sterile run completes");
        let expect = mcycles * 1e6 / 3.0; // ns at 3 GHz
        let got = rep.final_time as f64;
        prop_assert!((got - expect).abs() < 10.0, "got {} expect {}", got, expect);
    }
}

/// Whether every thread of `a` is bound to some place.
fn fully_bound(a: &ThreadAssignment) -> bool {
    (0..a.n_threads()).all(|t| a.place_of(t).is_some())
}

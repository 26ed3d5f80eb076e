//! Placement decisions: pure functions over the placement stream, the
//! per-CPU run-queue state and the topology.
//!
//! Nothing here touches the event queue or a task, so each policy can be
//! driven by hand on a made-up load vector. Every function draws from
//! `rng` exactly what its doc says — the draw order is part of the
//! engine's bit-identity contract.

use super::topo::Topo;
use super::Cpu;
use crate::rng::Rng;
use ompvar_topology::Place;

/// Pick the least-loaded online CPU: idle CPUs on fully idle cores
/// first, then idle CPUs, then minimal queue length; ties broken
/// randomly. Offline CPUs are never chosen (the hotplug fault keeps
/// at least one CPU online).
///
/// Allocation-free: one pass finds the best (class, load) key and how
/// many CPUs share it, one draw `rng.index(count)` picks among them in
/// CPU order, and a second pass locates the drawn one. The tests hold
/// it to a candidate-`Vec` model of the same rule.
pub(super) fn least_loaded(rng: &mut Rng, cpus: &[Cpu], topo: &Topo) -> usize {
    let key_of = |i: usize| -> Option<(u8, usize)> {
        if cpus[i].offline {
            return None;
        }
        let load = cpus[i].load();
        let class = match load {
            0 if topo.siblings(i).all(|s| cpus[s].load() == 0) => 0,
            0 => 1,
            _ => 2,
        };
        Some((class, load))
    };
    let (mut best, mut count) = ((u8::MAX, usize::MAX), 0);
    for key in (0..cpus.len()).filter_map(key_of) {
        if key < best {
            (best, count) = (key, 1);
        } else if key == best {
            count += 1;
        }
    }
    let k = rng.index(count);
    (0..cpus.len())
        .filter(|&i| key_of(i) == Some(best))
        .nth(k)
        .expect("candidate set changed between passes")
}

/// Least-loaded online CPU of `place`, the first one on ties; `None` when
/// the whole place is offline. Draws nothing.
pub(super) fn least_loaded_in_place(cpus: &[Cpu], place: &Place) -> Option<usize> {
    let online = place.hw_threads().iter().map(|h| h.0).filter(|&c| !cpus[c].offline);
    online.min_by_key(|&c| cpus[c].load())
}

/// Wake placement of an unbound task: with probability `misplace_prob` a
/// uniformly random CPU (the scheduler acting on stale load data), kept
/// if it is online; otherwise [`least_loaded`]. Draws `chance`, then
/// `index` if it hit, then `least_loaded`'s one draw if that is reached.
pub(super) fn misplaced_or_least_loaded(
    rng: &mut Rng,
    cpus: &[Cpu],
    topo: &Topo,
    misplace_prob: f64,
) -> usize {
    if rng.chance(misplace_prob) {
        let c = rng.index(cpus.len());
        if !cpus[c].offline {
            return c;
        }
    }
    least_loaded(rng, cpus, topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use ompvar_topology::{HwThreadId, MachineSpec};
    use proptest::prelude::*;

    fn layouts() -> [MachineSpec; 5] {
        [
            MachineSpec::dardel(),
            MachineSpec::vera(),
            MachineSpec::generic(2, 3, 2),
            MachineSpec::generic(1, 4, 4),
            MachineSpec::generic(3, 5, 1),
        ]
    }

    /// A load / offline vector for `n` CPUs drawn from `rng`: a share
    /// `idle` of the CPUs is idle (so all three key classes and wide tie
    /// sets occur), the rest carry load 1..=3 spread over the running
    /// slot and both queues; a share `offline` is down, one CPU never.
    fn draw_cpus(rng: &mut Rng, n: usize, idle: f64, offline: f64) -> Vec<Cpu> {
        let mut cpus: Vec<Cpu> = (0..n).map(|_| Cpu::default()).collect();
        for c in &mut cpus {
            c.offline = rng.chance(offline);
            if rng.chance(idle) {
                continue;
            }
            c.running = Some(TaskId(0));
            if rng.chance(0.5) {
                c.uq.push_back(TaskId(1));
            }
            if rng.chance(0.3) {
                c.kq.push_back(TaskId(2));
            }
        }
        cpus[rng.index(n)].offline = false;
        cpus
    }

    /// The rule `least_loaded` implements, written the obvious way: a
    /// candidate `Vec` over the spec's per-core sibling lists, one draw
    /// to pick among the candidates.
    fn least_loaded_model(rng: &mut Rng, cpus: &[Cpu], machine: &MachineSpec) -> usize {
        let mut best_key = (u8::MAX, usize::MAX);
        let mut best: Vec<usize> = Vec::new();
        for (i, c) in cpus.iter().enumerate() {
            if c.offline {
                continue;
            }
            let load = c.load();
            let core_idle = machine
                .hw_threads_of_core(machine.core_of(HwThreadId(i)))
                .iter()
                .all(|h| cpus[h.0].load() == 0);
            let class = if load == 0 && core_idle {
                0
            } else if load == 0 {
                1
            } else {
                2
            };
            let key = (class, load);
            if key < best_key {
                best_key = key;
                best.clear();
                best.push(i);
            } else if key == best_key {
                best.push(i);
            }
        }
        best[rng.index(best.len())]
    }

    proptest! {
        /// The allocation-free body picks the model's online CPU and
        /// leaves the stream exactly one draw on.
        #[test]
        fn both_bodies_pick_the_same_cpu_with_one_draw(
            seed in any::<u64>(),
            layout in 0usize..5,
            idle in 0.0f64..1.0,
            offline in 0.0f64..0.7,
        ) {
            let spec = layouts()[layout].clone();
            let mut rng = Rng::new(seed);
            let cpus = draw_cpus(&mut rng, spec.n_hw_threads(), idle, offline);
            let (mut r_fast, mut r_model, mut r_one) = (rng.clone(), rng.clone(), rng);
            let picked = least_loaded(&mut r_fast, &cpus, &Topo::new(spec.clone()));
            prop_assert_eq!(picked, least_loaded_model(&mut r_model, &cpus, &spec));
            prop_assert!(!cpus[picked].offline);
            r_one.next_u64();
            let next = r_one.next_u64();
            prop_assert_eq!(r_fast.next_u64(), next);
            prop_assert_eq!(r_model.next_u64(), next);
        }
    }

    #[test]
    fn in_place_takes_the_first_least_loaded_online_cpu() {
        let mut cpus: Vec<Cpu> = (0..4).map(|_| Cpu::default()).collect();
        let place = Place::new((0..4).map(HwThreadId).collect());
        cpus[0].running = Some(TaskId(0));
        cpus[1].offline = true;
        assert_eq!(least_loaded_in_place(&cpus, &place), Some(2), "2 and 3 tie: first wins");
        cpus[2].uq.push_back(TaskId(1));
        cpus[2].kq.push_back(TaskId(2));
        cpus[3].offline = true;
        assert_eq!(least_loaded_in_place(&cpus, &place), Some(0), "load 1 beats load 2");
        cpus[0].offline = true;
        cpus[2].offline = true;
        assert_eq!(least_loaded_in_place(&cpus, &place), None);
    }

    /// The misplacement triad draws chance → index → (least_loaded) and
    /// never returns an offline CPU.
    #[test]
    fn misplaced_keeps_an_online_draw_and_redirects_an_offline_one() {
        let topo = Topo::new(MachineSpec::generic(1, 4, 1));
        let mut cpus: Vec<Cpu> = (0..4).map(|_| Cpu::default()).collect();
        cpus[0].offline = true;
        cpus[1].offline = true;
        cpus[2].running = Some(TaskId(0));
        for seed in 0..200 {
            for misplace_prob in [1.0, 0.0] {
                let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
                let got = misplaced_or_least_loaded(&mut a, &cpus, &topo, misplace_prob);
                let drawn = b.chance(misplace_prob).then(|| b.index(4));
                let want = match drawn {
                    Some(c) if !cpus[c].offline => c,
                    _ => least_loaded(&mut b, &cpus, &topo),
                };
                assert_eq!(got, want, "seed {seed}, p {misplace_prob}");
                assert!(!cpus[got].offline);
                assert_eq!(a.next_u64(), b.next_u64(), "same draws, same order");
            }
        }
    }
}

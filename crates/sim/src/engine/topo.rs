//! Topology answers for the engine.
//!
//! [`Topo`] owns the machine spec and the flat lookup caches built from
//! it, and answers every "where is this hardware thread?" question the
//! engine asks. The spec's layout is regular (`hw = core + lane *
//! n_cores`, see [`MachineSpec`]), so the caches hold exactly the values
//! the `MachineSpec::*_of` lookups compute; the tests hold every cached
//! answer to the spec's own.

use ompvar_topology::{CoreId, HwThreadId, MachineSpec, NumaId};

/// The simulated machine's layout: the spec plus flat per-CPU caches.
#[derive(Debug)]
pub(super) struct Topo {
    /// The machine being simulated.
    pub(super) spec: MachineSpec,
    /// Physical core of each hardware thread.
    cpu_core: Vec<u32>,
    /// Socket of each hardware thread.
    cpu_socket: Vec<u32>,
    /// NUMA domain of each hardware thread.
    cpu_numa: Vec<u32>,
    /// Socket of each physical core.
    core_socket: Vec<u32>,
    /// Hardware threads of each socket, ascending.
    socket_cpus: Vec<Vec<usize>>,
    /// Hardware threads of each NUMA domain, cores first, then siblings.
    numa_cpus: Vec<Vec<usize>>,
    /// `spec.n_cores()`, copied out for the sibling formula.
    n_cores: usize,
    /// `spec.smt` (SMT ways per core).
    smt: usize,
}

impl Topo {
    /// Build the caches for `spec`.
    pub(super) fn new(spec: MachineSpec) -> Topo {
        let n_cpu = spec.n_hw_threads();
        let per_cpu = |f: fn(&MachineSpec, HwThreadId) -> usize| -> Vec<u32> {
            (0..n_cpu).map(|h| f(&spec, HwThreadId(h)) as u32).collect()
        };
        let cpu_socket = per_cpu(|m, h| m.socket_of(h).0);
        let mut socket_cpus: Vec<Vec<usize>> = vec![Vec::new(); spec.sockets];
        for h in 0..n_cpu {
            socket_cpus[cpu_socket[h] as usize].push(h);
        }
        let numa_cpus = (0..spec.n_numa())
            .map(|d| spec.hw_threads_of_numa(NumaId(d)).into_iter().map(|h| h.0).collect())
            .collect();
        Topo {
            cpu_core: per_cpu(|m, h| m.core_of(h).0),
            cpu_numa: per_cpu(|m, h| m.numa_of(h).0),
            core_socket: (0..spec.n_cores())
                .map(|c| spec.socket_of_numa(spec.numa_of_core(CoreId(c))).0 as u32)
                .collect(),
            cpu_socket,
            socket_cpus,
            numa_cpus,
            n_cores: spec.n_cores(),
            smt: spec.smt,
            spec,
        }
    }

    /// Socket of hardware thread `cpu`.
    #[inline]
    pub(super) fn socket_of(&self, cpu: usize) -> usize {
        self.cpu_socket[cpu] as usize
    }

    /// NUMA domain of hardware thread `cpu`.
    #[inline]
    pub(super) fn numa_of(&self, cpu: usize) -> usize {
        self.cpu_numa[cpu] as usize
    }

    /// Physical core of hardware thread `cpu`.
    #[inline]
    pub(super) fn core_of(&self, cpu: usize) -> usize {
        self.cpu_core[cpu] as usize
    }

    /// Socket of physical core `core`.
    #[inline]
    pub(super) fn socket_of_core(&self, core: usize) -> usize {
        self.core_socket[core] as usize
    }

    /// The other hardware threads of `cpu`'s core, ascending: a walk of
    /// the lanes of the regular layout. The iterator owns its data, so
    /// the caller may mutate the engine while walking it.
    #[inline]
    pub(super) fn siblings(&self, cpu: usize) -> impl Iterator<Item = usize> {
        let (core, n_cores) = (self.core_of(cpu), self.n_cores);
        (0..self.smt).map(move |lane| core + lane * n_cores).filter(move |&s| s != cpu)
    }

    /// Hardware threads of `socket`, ascending.
    pub(super) fn cpus_of_socket(&self, socket: usize) -> impl Iterator<Item = usize> + '_ {
        self.socket_cpus[socket].iter().copied()
    }

    /// Hardware threads of `cpu`'s NUMA domain, cores first, then
    /// siblings (Linux enumeration order).
    pub(super) fn numa_peers(&self, cpu: usize) -> impl Iterator<Item = usize> + '_ {
        self.numa_cpus[self.numa_of(cpu)].iter().copied()
    }

    /// Topological distance between two hardware threads (see
    /// [`MachineSpec::distance`]).
    pub(super) fn distance(&self, a: usize, b: usize) -> u32 {
        if self.cpu_core[a] == self.cpu_core[b] {
            0
        } else if self.cpu_numa[a] == self.cpu_numa[b] {
            1
        } else if self.cpu_socket[a] == self.cpu_socket[b] {
            2
        } else {
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<MachineSpec> {
        let mut specs = vec![MachineSpec::dardel(), MachineSpec::vera()];
        for sockets in 1..=3 {
            for cores_per_numa in [1, 2, 5] {
                for smt in 1..=4 {
                    let one = MachineSpec::generic(sockets, cores_per_numa, smt);
                    specs.push(MachineSpec { numa_per_socket: 3, ..one.clone() });
                    specs.push(one);
                }
            }
        }
        specs
    }

    /// The caches answer every question as the spec's own lookups do —
    /// including the *order* of `siblings` and `cpus_of_socket`, which
    /// fixes the order the engine reprices CPUs in, and of `numa_peers`,
    /// which fixes the CPU a noise wake settles on.
    #[test]
    fn cached_and_naive_agree_on_every_question() {
        for spec in specs() {
            let cached = Topo::new(spec.clone());
            let name = &spec.name;
            for cpu in 0..spec.n_hw_threads() {
                let h = HwThreadId(cpu);
                assert_eq!(cached.socket_of(cpu), spec.socket_of(h).0, "{name} cpu {cpu}");
                assert_eq!(cached.numa_of(cpu), spec.numa_of(h).0, "{name} cpu {cpu}");
                assert_eq!(cached.core_of(cpu), spec.core_of(h).0, "{name} cpu {cpu}");
                let sibs: Vec<usize> = cached.siblings(cpu).collect();
                let naive: Vec<usize> = spec.siblings_of(h).into_iter().map(|s| s.0).collect();
                assert_eq!(sibs, naive, "{name} cpu {cpu}");
                assert_eq!(sibs.len(), spec.smt - 1);
                assert!(sibs.windows(2).all(|w| w[0] < w[1]), "ascending: {sibs:?}");
                assert!(sibs.iter().all(|&s| s != cpu && cached.core_of(s) == cached.core_of(cpu)));
                for other in 0..spec.n_hw_threads() {
                    let naive = spec.distance(h, HwThreadId(other));
                    assert_eq!(cached.distance(cpu, other), naive, "{name} cpus {cpu}, {other}");
                }
            }
            for numa in 0..spec.n_numa() {
                let naive: Vec<usize> =
                    spec.hw_threads_of_numa(NumaId(numa)).into_iter().map(|h| h.0).collect();
                for &cpu in &naive {
                    let peers: Vec<usize> = cached.numa_peers(cpu).collect();
                    assert_eq!(peers, naive, "{name} numa {numa} from cpu {cpu}");
                }
            }
            for core in 0..spec.n_cores() {
                let naive = spec.socket_of_numa(spec.numa_of_core(CoreId(core))).0;
                assert_eq!(cached.socket_of_core(core), naive);
                assert_eq!(cached.socket_of_core(core), cached.socket_of(core), "lane 0 is the core id");
            }
            let mut seen = 0;
            for socket in 0..spec.sockets {
                let cpus: Vec<usize> = cached.cpus_of_socket(socket).collect();
                let naive: Vec<usize> = (0..spec.n_hw_threads())
                    .filter(|&c| spec.socket_of(HwThreadId(c)).0 == socket)
                    .collect();
                assert_eq!(cpus, naive);
                assert!(cpus.windows(2).all(|w| w[0] < w[1]), "ascending: {cpus:?}");
                seen += cpus.len();
            }
            assert_eq!(seen, spec.n_hw_threads(), "sockets partition the CPUs");
        }
    }
}

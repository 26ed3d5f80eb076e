//! Topology answers for the engine.
//!
//! [`Topo`] owns the machine spec and the flat lookup caches built from
//! it, and answers every "where is this hardware thread?" question the
//! engine asks. The spec's layout is regular (`hw = core + lane *
//! n_cores`, see [`MachineSpec`]), so the caches hold exactly the values
//! the `MachineSpec::*_of` lookups compute; the reference engine asks
//! the spec on every use instead, as a cross-check. Which of the two
//! answers is decided in one place, [`Topo::pick`].

use ompvar_topology::{CoreId, HwThreadId, MachineSpec};

/// The simulated machine's layout: the spec plus flat per-CPU caches.
#[derive(Debug)]
pub(super) struct Topo {
    /// The machine being simulated.
    pub(super) spec: MachineSpec,
    /// Reference-engine mode: run on the pre-optimization event queue
    /// (plain `BinaryHeap`) and recompute every topology lookup through
    /// `MachineSpec` instead of the flat caches, with no tick
    /// fast-forwarding. The observable event stream is identical to the
    /// optimized path by construction; this mode exists as the yardstick
    /// for equivalence oracles, cross-implementation golden checks, and
    /// machine-independent CI perf normalization.
    pub(super) reference: bool,
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
    /// `spec.n_cores()`, copied out for the sibling formula.
    n_cores: usize,
    /// `spec.smt` (SMT ways per core).
    smt: usize,
}

impl Topo {
    /// Build the caches for `spec`, on the optimized path.
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
        Topo {
            reference: false,
            cpu_core: per_cpu(|m, h| m.core_of(h).0),
            cpu_numa: per_cpu(|m, h| m.numa_of(h).0),
            core_socket: (0..spec.n_cores())
                .map(|c| spec.socket_of_numa(spec.numa_of_core(CoreId(c))).0 as u32)
                .collect(),
            cpu_socket,
            socket_cpus,
            n_cores: spec.n_cores(),
            smt: spec.smt,
            spec,
        }
    }

    /// The cached answer on the optimized path, the spec's own on the
    /// reference path — the only branch on the flag in this file.
    #[inline]
    fn pick<T>(&self, cached: T, naive: impl FnOnce(&MachineSpec) -> T) -> T {
        if self.reference {
            naive(&self.spec)
        } else {
            cached
        }
    }

    /// Socket of hardware thread `cpu`.
    #[inline]
    pub(super) fn socket_of(&self, cpu: usize) -> usize {
        self.pick(self.cpu_socket[cpu] as usize, |m| m.socket_of(HwThreadId(cpu)).0)
    }

    /// NUMA domain of hardware thread `cpu`.
    #[inline]
    pub(super) fn numa_of(&self, cpu: usize) -> usize {
        self.pick(self.cpu_numa[cpu] as usize, |m| m.numa_of(HwThreadId(cpu)).0)
    }

    /// Physical core of hardware thread `cpu`.
    #[inline]
    pub(super) fn core_of(&self, cpu: usize) -> usize {
        self.pick(self.cpu_core[cpu] as usize, |m| m.core_of(HwThreadId(cpu)).0)
    }

    /// Socket of physical core `core`.
    #[inline]
    pub(super) fn socket_of_core(&self, core: usize) -> usize {
        self.pick(self.core_socket[core] as usize, |m| {
            m.socket_of_numa(m.numa_of_core(CoreId(core))).0
        })
    }

    /// The other hardware threads of `cpu`'s core, ascending. The
    /// optimized path walks the lanes of the regular layout; the
    /// reference path materializes the spec's sibling `Vec`. Either way
    /// the iterator owns its data, so the caller may mutate the engine
    /// while walking it.
    #[inline]
    pub(super) fn siblings(&self, cpu: usize) -> impl Iterator<Item = usize> {
        let (listed, lanes) =
            self.pick((Vec::new(), self.smt), |m| (m.siblings_of(HwThreadId(cpu)), 0));
        let (core, n_cores) = (self.core_of(cpu), self.n_cores);
        let walked = (0..lanes).map(move |lane| core + lane * n_cores).filter(move |&s| s != cpu);
        listed.into_iter().map(|h| h.0).chain(walked)
    }

    /// Hardware threads of `socket`, ascending: the precomputed list, or
    /// on the reference path a scan of every CPU through the spec.
    pub(super) fn cpus_of_socket(&self, socket: usize) -> impl Iterator<Item = usize> + '_ {
        let (listed, scanned) =
            self.pick((&self.socket_cpus[socket][..], 0), |m| (&[][..], m.n_hw_threads()));
        let of_socket = move |&c: &usize| self.spec.socket_of(HwThreadId(c)).0 == socket;
        listed.iter().copied().chain((0..scanned).filter(of_socket))
    }

    /// Hardware threads of `cpu`'s NUMA domain, cores first, then
    /// siblings (Linux enumeration order); the same lookup on both paths.
    pub(super) fn numa_peers(&self, cpu: usize) -> impl Iterator<Item = usize> {
        let peers = self.spec.hw_threads_of_numa(self.spec.numa_of(HwThreadId(cpu)));
        peers.into_iter().map(|h| h.0)
    }

    /// Topological distance between two hardware threads (see
    /// [`MachineSpec::distance`]); the same lookup on both paths.
    pub(super) fn distance(&self, a: usize, b: usize) -> u32 {
        self.spec.distance(HwThreadId(a), HwThreadId(b))
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

    /// Cached and naive answer every question alike — including the
    /// *order* of `siblings` and `cpus_of_socket`, which fixes the order
    /// the engine reprices CPUs in.
    #[test]
    fn cached_and_naive_agree_on_every_question() {
        for spec in specs() {
            let cached = Topo::new(spec.clone());
            let mut naive = Topo::new(spec.clone());
            naive.reference = true;
            for cpu in 0..spec.n_hw_threads() {
                assert_eq!(cached.socket_of(cpu), naive.socket_of(cpu), "{} cpu {cpu}", spec.name);
                assert_eq!(cached.numa_of(cpu), naive.numa_of(cpu), "{} cpu {cpu}", spec.name);
                assert_eq!(cached.core_of(cpu), naive.core_of(cpu), "{} cpu {cpu}", spec.name);
                let sibs: Vec<usize> = cached.siblings(cpu).collect();
                assert_eq!(sibs, naive.siblings(cpu).collect::<Vec<_>>(), "{} cpu {cpu}", spec.name);
                assert_eq!(sibs.len(), spec.smt - 1);
                assert!(sibs.windows(2).all(|w| w[0] < w[1]), "ascending: {sibs:?}");
                assert!(sibs.iter().all(|&s| s != cpu && cached.core_of(s) == cached.core_of(cpu)));
            }
            for core in 0..spec.n_cores() {
                assert_eq!(cached.socket_of_core(core), naive.socket_of_core(core));
                assert_eq!(cached.socket_of_core(core), cached.socket_of(core), "lane 0 is the core id");
            }
            let mut seen = 0;
            for socket in 0..spec.sockets {
                let cpus: Vec<usize> = cached.cpus_of_socket(socket).collect();
                assert_eq!(cpus, naive.cpus_of_socket(socket).collect::<Vec<_>>());
                assert!(cpus.windows(2).all(|w| w[0] < w[1]), "ascending: {cpus:?}");
                assert!(cpus.iter().all(|&c| cached.socket_of(c) == socket));
                seen += cpus.len();
            }
            assert_eq!(seen, spec.n_hw_threads(), "sockets partition the CPUs");
        }
    }
}

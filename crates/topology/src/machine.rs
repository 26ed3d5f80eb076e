//! Structural machine description: sockets → NUMA domains → cores → HW threads.

use std::fmt;

/// Identifier of a hardware thread (logical CPU) on the node.
///
/// Numbering is Linux-style: hardware thread `i` with `i < n_cores` is the
/// first SMT context of physical core `i`; `i + n_cores` is its sibling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HwThreadId(pub usize);

/// Identifier of a physical core on the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

/// Identifier of a NUMA domain on the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NumaId(pub usize);

/// Identifier of a socket (package) on the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub usize);

impl fmt::Display for HwThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Clock specification of the cores of a machine.
///
/// `turbo_bins` maps the number of *active* cores in a socket to the highest
/// sustainable boost frequency (GHz): `turbo_bins[k]` applies when `k + 1`
/// cores are active. When more cores are active than the table covers, the
/// last entry applies. An empty table means "no turbo": cores always run at
/// `max_ghz`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSpec {
    /// Guaranteed base frequency in GHz.
    pub base_ghz: f64,
    /// Maximum single-core boost frequency in GHz.
    pub max_ghz: f64,
    /// Active-core-count → sustainable boost frequency table.
    pub turbo_bins: Vec<f64>,
}

impl ClockSpec {
    /// Sustainable frequency with `active` cores busy in the socket.
    ///
    /// `active == 0` is treated as a single active core (the querying one).
    pub fn sustainable_ghz(&self, active: usize) -> f64 {
        if self.turbo_bins.is_empty() {
            return self.max_ghz;
        }
        let idx = active.saturating_sub(1).min(self.turbo_bins.len() - 1);
        self.turbo_bins[idx]
    }
}

/// Memory-system specification, per NUMA domain.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySpec {
    /// Peak read+write bandwidth of one NUMA domain's local memory, GB/s.
    pub local_bw_gbs: f64,
    /// Fraction of `local_bw_gbs` attainable when accessing a *remote*
    /// NUMA domain (0 < f ≤ 1).
    pub remote_bw_factor: f64,
    /// Additional latency in nanoseconds for a remote access stream setup.
    pub remote_latency_ns: f64,
}

/// Structural and nominal-performance description of one node.
///
/// The model is regular: every socket holds `numa_per_socket` NUMA domains
/// of `cores_per_numa` cores each, and every core exposes `smt` hardware
/// threads. This covers both study platforms and typical HPC nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Human-readable platform name (e.g. `"dardel"`).
    pub name: String,
    /// Number of sockets (packages).
    pub sockets: usize,
    /// NUMA domains per socket.
    pub numa_per_socket: usize,
    /// Physical cores per NUMA domain.
    pub cores_per_numa: usize,
    /// Hardware threads per core (1 = no SMT, 2 = SMT2).
    pub smt: usize,
    /// Clock specification shared by all cores.
    pub clock: ClockSpec,
    /// Memory specification shared by all NUMA domains.
    pub memory: MemorySpec,
}

impl MachineSpec {
    /// One Dardel node: 2× AMD EPYC 7742 (Zen2), 64 cores/socket, SMT2,
    /// 4 NUMA domains per socket (NPS4), 2.25 GHz base, 3.4 GHz boost.
    pub fn dardel() -> Self {
        MachineSpec {
            name: "dardel".to_string(),
            sockets: 2,
            numa_per_socket: 4,
            cores_per_numa: 16,
            smt: 2,
            clock: ClockSpec {
                base_ghz: 2.25,
                max_ghz: 3.4,
                // EPYC Zen2 boost droops gently with active core count and
                // holds a relatively high, *stable* all-core boost — the
                // paper observes little frequency variation on Dardel.
                turbo_bins: vec![
                    3.4, 3.4, 3.35, 3.35, 3.3, 3.3, 3.25, 3.25, 3.2, 3.2, 3.15, 3.15, 3.1, 3.1,
                    3.05, 3.0,
                ],
            },
            memory: MemorySpec {
                local_bw_gbs: 45.0,
                remote_bw_factor: 0.55,
                remote_latency_ns: 110.0,
            },
        }
    }

    /// One Vera node: 2× Intel Xeon Gold 6130, 16 cores/socket, no SMT,
    /// one NUMA domain per socket, 2.1 GHz base, 3.7 GHz single-core turbo.
    pub fn vera() -> Self {
        MachineSpec {
            name: "vera".to_string(),
            sockets: 2,
            numa_per_socket: 1,
            cores_per_numa: 16,
            smt: 1,
            clock: ClockSpec {
                base_ghz: 2.1,
                max_ghz: 3.7,
                // Skylake-SP turbo bins step down steeply with active core
                // count; few-core states are high but unstable, which is
                // what makes cross-NUMA placements on Vera frequency-noisy.
                turbo_bins: vec![
                    3.7, 3.7, 3.5, 3.5, 3.4, 3.4, 3.4, 3.4, 3.1, 3.1, 3.1, 3.1, 2.8, 2.8, 2.8,
                    2.8,
                ],
            },
            memory: MemorySpec {
                local_bw_gbs: 55.0,
                remote_bw_factor: 0.5,
                remote_latency_ns: 130.0,
            },
        }
    }

    /// A small generic machine, useful for tests: `sockets` × `cores` cores,
    /// optional SMT, one NUMA domain per socket.
    pub fn generic(sockets: usize, cores_per_socket: usize, smt: usize) -> Self {
        assert!(sockets >= 1 && cores_per_socket >= 1 && smt >= 1);
        MachineSpec {
            name: format!("generic{}x{}x{}", sockets, cores_per_socket, smt),
            sockets,
            numa_per_socket: 1,
            cores_per_numa: cores_per_socket,
            smt,
            clock: ClockSpec {
                base_ghz: 2.0,
                max_ghz: 3.0,
                turbo_bins: vec![],
            },
            memory: MemorySpec {
                local_bw_gbs: 40.0,
                remote_bw_factor: 0.6,
                remote_latency_ns: 100.0,
            },
        }
    }

    /// Total number of physical cores on the node.
    pub fn n_cores(&self) -> usize {
        self.sockets * self.numa_per_socket * self.cores_per_numa
    }

    /// Total number of NUMA domains on the node.
    pub fn n_numa(&self) -> usize {
        self.sockets * self.numa_per_socket
    }

    /// Total number of hardware threads (logical CPUs) on the node.
    pub fn n_hw_threads(&self) -> usize {
        self.n_cores() * self.smt
    }

    /// Physical core that hardware thread `hw` belongs to.
    pub fn core_of(&self, hw: HwThreadId) -> CoreId {
        assert!(hw.0 < self.n_hw_threads(), "hw thread {} out of range", hw.0);
        CoreId(hw.0 % self.n_cores())
    }

    /// All hardware threads of physical core `core`, in SMT-index order.
    pub fn hw_threads_of_core(&self, core: CoreId) -> Vec<HwThreadId> {
        assert!(core.0 < self.n_cores(), "core {} out of range", core.0);
        (0..self.smt)
            .map(|s| HwThreadId(core.0 + s * self.n_cores()))
            .collect()
    }

    /// The SMT siblings of `hw` (other hardware threads on the same core).
    pub fn siblings_of(&self, hw: HwThreadId) -> Vec<HwThreadId> {
        let core = self.core_of(hw);
        self.hw_threads_of_core(core)
            .into_iter()
            .filter(|&h| h != hw)
            .collect()
    }

    /// NUMA domain that core `core` belongs to.
    pub fn numa_of_core(&self, core: CoreId) -> NumaId {
        assert!(core.0 < self.n_cores(), "core {} out of range", core.0);
        NumaId(core.0 / self.cores_per_numa)
    }

    /// NUMA domain that hardware thread `hw` belongs to.
    pub fn numa_of(&self, hw: HwThreadId) -> NumaId {
        self.numa_of_core(self.core_of(hw))
    }

    /// Socket that NUMA domain `numa` belongs to.
    pub fn socket_of_numa(&self, numa: NumaId) -> SocketId {
        assert!(numa.0 < self.n_numa(), "numa {} out of range", numa.0);
        SocketId(numa.0 / self.numa_per_socket)
    }

    /// Socket that hardware thread `hw` belongs to.
    pub fn socket_of(&self, hw: HwThreadId) -> SocketId {
        self.socket_of_numa(self.numa_of(hw))
    }

    /// All physical cores in NUMA domain `numa`, in id order.
    pub fn cores_of_numa(&self, numa: NumaId) -> Vec<CoreId> {
        assert!(numa.0 < self.n_numa(), "numa {} out of range", numa.0);
        let lo = numa.0 * self.cores_per_numa;
        (lo..lo + self.cores_per_numa).map(CoreId).collect()
    }

    /// All hardware threads in NUMA domain `numa`, cores first, then
    /// siblings (Linux enumeration order).
    pub fn hw_threads_of_numa(&self, numa: NumaId) -> Vec<HwThreadId> {
        let mut out = Vec::with_capacity(self.cores_per_numa * self.smt);
        for s in 0..self.smt {
            for c in self.cores_of_numa(numa) {
                out.push(HwThreadId(c.0 + s * self.n_cores()));
            }
        }
        out
    }

    /// Topological "distance" between two hardware threads, used by the
    /// simulator to cost synchronization hops and migrations:
    ///
    /// * 0 — same core (SMT siblings),
    /// * 1 — same NUMA domain, different core,
    /// * 2 — same socket, different NUMA domain,
    /// * 3 — different socket.
    pub fn distance(&self, a: HwThreadId, b: HwThreadId) -> u32 {
        if self.core_of(a) == self.core_of(b) {
            0
        } else if self.numa_of(a) == self.numa_of(b) {
            1
        } else if self.socket_of(a) == self.socket_of(b) {
            2
        } else {
            3
        }
    }

    /// Number of distinct sockets touched by a set of hardware threads.
    pub fn sockets_touched(&self, hws: &[HwThreadId]) -> usize {
        let mut seen = vec![false; self.sockets];
        for &h in hws {
            seen[self.socket_of(h).0] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Number of distinct NUMA domains touched by a set of hardware threads.
    pub fn numas_touched(&self, hws: &[HwThreadId]) -> usize {
        let mut seen = vec![false; self.n_numa()];
        for &h in hws {
            seen[self.numa_of(h).0] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dardel_shape() {
        let m = MachineSpec::dardel();
        assert_eq!(m.n_cores(), 128);
        assert_eq!(m.n_hw_threads(), 256);
        assert_eq!(m.n_numa(), 8);
        assert_eq!(m.sockets, 2);
    }

    #[test]
    fn vera_shape() {
        let m = MachineSpec::vera();
        assert_eq!(m.n_cores(), 32);
        assert_eq!(m.n_hw_threads(), 32);
        assert_eq!(m.n_numa(), 2);
    }

    #[test]
    fn linux_style_sibling_numbering() {
        let m = MachineSpec::dardel();
        // hw 0 and hw 128 share core 0.
        assert_eq!(m.core_of(HwThreadId(0)), CoreId(0));
        assert_eq!(m.core_of(HwThreadId(128)), CoreId(0));
        assert_eq!(m.siblings_of(HwThreadId(0)), vec![HwThreadId(128)]);
        assert_eq!(
            m.hw_threads_of_core(CoreId(5)),
            vec![HwThreadId(5), HwThreadId(133)]
        );
    }

    #[test]
    fn numa_and_socket_mapping() {
        let m = MachineSpec::dardel();
        assert_eq!(m.numa_of(HwThreadId(0)), NumaId(0));
        assert_eq!(m.numa_of(HwThreadId(16)), NumaId(1));
        assert_eq!(m.numa_of(HwThreadId(63)), NumaId(3));
        assert_eq!(m.numa_of(HwThreadId(64)), NumaId(4));
        assert_eq!(m.socket_of(HwThreadId(63)), SocketId(0));
        assert_eq!(m.socket_of(HwThreadId(64)), SocketId(1));
        // Sibling lands in the same NUMA domain as its core.
        assert_eq!(m.numa_of(HwThreadId(128 + 16)), NumaId(1));
    }

    #[test]
    fn distance_levels() {
        let m = MachineSpec::dardel();
        assert_eq!(m.distance(HwThreadId(0), HwThreadId(128)), 0); // siblings
        assert_eq!(m.distance(HwThreadId(0), HwThreadId(1)), 1); // same NUMA
        assert_eq!(m.distance(HwThreadId(0), HwThreadId(16)), 2); // same socket
        assert_eq!(m.distance(HwThreadId(0), HwThreadId(64)), 3); // cross socket
    }

    #[test]
    fn hw_threads_of_numa_covers_both_contexts() {
        let m = MachineSpec::dardel();
        let hws = m.hw_threads_of_numa(NumaId(0));
        assert_eq!(hws.len(), 32);
        assert!(hws.contains(&HwThreadId(0)));
        assert!(hws.contains(&HwThreadId(128)));
        assert!(!hws.contains(&HwThreadId(16)));
    }

    #[test]
    fn sustainable_frequency_monotone_non_increasing() {
        for m in [MachineSpec::dardel(), MachineSpec::vera()] {
            let mut prev = f64::INFINITY;
            for active in 1..=m.cores_per_numa * m.numa_per_socket {
                let f = m.clock.sustainable_ghz(active);
                assert!(f <= prev, "{}: turbo bins must not increase", m.name);
                assert!(f >= m.clock.base_ghz);
                assert!(f <= m.clock.max_ghz);
                prev = f;
            }
        }
    }

    #[test]
    fn empty_turbo_table_means_flat_max() {
        let m = MachineSpec::generic(1, 4, 1);
        assert_eq!(m.clock.sustainable_ghz(1), 3.0);
        assert_eq!(m.clock.sustainable_ghz(4), 3.0);
    }

    #[test]
    fn touched_counts() {
        let m = MachineSpec::dardel();
        let hws: Vec<_> = (0..32).map(HwThreadId).collect();
        assert_eq!(m.sockets_touched(&hws), 1);
        assert_eq!(m.numas_touched(&hws), 2);
        let hws: Vec<_> = (0..=64).map(HwThreadId).collect();
        assert_eq!(m.sockets_touched(&hws), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_hw_thread_panics() {
        let m = MachineSpec::vera();
        m.core_of(HwThreadId(32));
    }
}

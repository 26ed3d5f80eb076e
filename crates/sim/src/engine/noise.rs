//! OS noise: the arrival processes of the configured noise sources and
//! the kernel tasks they (and the frequency logger, and fault storms)
//! put on CPUs.

use super::{place, Simulator};
use crate::events::EventKind;
use crate::params::NoisePlacement;
use crate::task::{Op, Program, Task, TaskId, TaskKind, TaskState};
use crate::time::from_ns_f64;

impl Simulator {
    /// Spawn one kernel noise task of duration `ns` on `cpu`.
    pub(super) fn spawn_kernel(&mut self, cpu: usize, ns: f64) {
        let tid = match self.kernel_freelist.pop() {
            Some(id) => {
                let t = &mut self.tasks[id.0 as usize];
                t.program.reset_to_busy(ns);
                t.pc = 0;
                t.frames.clear();
                t.micro.clear();
                t.current = None;
                t.state = TaskState::Runnable;
                t.pending_overhead_ns = 0.0;
                t.loop_gen = u64::MAX;
                id
            }
            None => {
                let id = TaskId(self.tasks.len() as u32);
                let program = Program::new(vec![Op::Busy { ns }]);
                self.tasks
                    .push(Task::new(id, TaskKind::Kernel, 0, program, None));
                id
            }
        };
        self.counters.noise_busy += from_ns_f64(ns);
        self.enqueue(tid, cpu);
    }

    /// Schedule the next arrival of noise stream `s`.
    pub(super) fn arm_noise(&mut self, s: usize) {
        let interval = {
            let stream = &mut self.noise_streams[s];
            let src = &self.params.noise.sources[stream.source];
            stream.rng.exp(src.mean_interval as f64)
        };
        self.queue.push(
            self.now.saturating_add(from_ns_f64(interval)),
            EventKind::NoiseArrival { src: s as u32 },
        );
    }

    pub(super) fn handle_noise_arrival(&mut self, s: usize) {
        self.counters.noise_events += 1;
        let (cpu, dur_ns) = {
            let stream = &mut self.noise_streams[s];
            let src = &self.params.noise.sources[stream.source];
            let dur = stream
                .rng
                .lognormal(src.median_duration as f64, src.duration_sigma);
            let idle = |c: &usize| self.cpus[*c].load() == 0;
            let cpu = match src.placement {
                NoisePlacement::PerCpu => {
                    // Linux-style wake placement: most per-CPU kernel
                    // housekeeping (softirq, unbound kworkers) can run on
                    // an idle SMT sibling instead of preempting the home
                    // CPU — the mechanism behind the paper's ST
                    // configuration "absorbing" OS noise. CPU-bound
                    // kernel work (the remaining fraction) must preempt.
                    let home = stream.cpu.unwrap();
                    if self.cpus[home].load() == 0 {
                        home
                    } else if stream.rng.chance(self.params.noise.sibling_absorb_prob) {
                        self.topo.siblings(home).find(idle).unwrap_or(home)
                    } else {
                        home
                    }
                }
                NoisePlacement::RandomCpu => stream.rng.index(self.cpus.len()),
                NoisePlacement::LeastLoaded => {
                    // Wake placement is locality-biased: with some
                    // probability the daemon wakes *affine* to its
                    // previous CPU (uniformly random from the node's
                    // perspective) and searches like Linux's
                    // select_idle_sibling: the previous CPU itself, its
                    // SMT siblings, then the NUMA domain; if the whole
                    // local domain is busy, the slow path usually finds a
                    // remote idle CPU, otherwise the daemon preempts.
                    // Consequence: a fully packed socket (MT placement,
                    // or using nearly all cores) gets hit, while spare
                    // siblings/cores absorb the same wakes.
                    if stream.rng.chance(self.params.noise.daemon_local_wake_prob) {
                        let prev = stream.rng.index(self.cpus.len());
                        if self.cpus[prev].load() == 0 {
                            prev
                        } else {
                            let sib = self.topo.siblings(prev).find(idle);
                            match sib.or_else(|| self.topo.numa_peers(prev).find(idle)) {
                                Some(c) => c,
                                None if stream
                                    .rng
                                    .chance(self.params.noise.cross_llc_escape_prob) =>
                                {
                                    place::least_loaded(&mut stream.rng, &self.cpus, &self.topo)
                                }
                                None => prev,
                            }
                        }
                    } else {
                        place::least_loaded(&mut stream.rng, &self.cpus, &self.topo)
                    }
                }
            };
            (cpu, dur)
        };
        // A hotplugged-off CPU takes no interrupts/kernel work: redirect.
        let cpu = if self.cpus[cpu].offline {
            place::least_loaded(&mut self.rng_place, &self.cpus, &self.topo)
        } else {
            cpu
        };
        self.spawn_kernel(cpu, dur_ns);
        self.arm_noise(s);
    }
}

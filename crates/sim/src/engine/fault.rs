//! Fault injection: what each scheduled [`Fault`] does to the machine
//! when its event fires (the plan itself is attached by
//! `Simulator::inject_faults` and scheduled by `start`).

use super::{place, Simulator};
use crate::events::EventKind;
use crate::fault::{Fault, FaultEvent};
use crate::task::{TaskId, TaskKind, TaskState};
use crate::time::from_ns_f64;
use ompvar_obs::{AttrSource, InstantKind, CORE_UNKNOWN};

impl Simulator {
    pub(super) fn handle_fault_start(&mut self, idx: usize) {
        self.counters.faults_injected += 1;
        self.trace_global(InstantKind::FaultInjection, CORE_UNKNOWN);
        match self.fault_plan[idx].fault {
            Fault::NoiseStorm { .. } => self.handle_fault_storm_tick(idx),
            Fault::CpuOffline { cpu, .. } => self.fault_cpu_offline(cpu),
            Fault::FreqCap { socket, cap_ghz, .. } => {
                self.fault_freq_cap(socket, Some(cap_ghz));
            }
            Fault::TaskStall { rank, stall_ns } => self.fault_task_stall(idx, rank, stall_ns),
            Fault::LostWakeups { count } => {
                self.lost_wakeups_armed += count;
            }
        }
    }

    pub(super) fn handle_fault_end(&mut self, idx: usize) {
        match self.fault_plan[idx].fault {
            Fault::CpuOffline { cpu, .. } => {
                self.cpus[cpu].offline = false;
            }
            Fault::FreqCap { socket, .. } => self.fault_freq_cap(socket, None),
            _ => {}
        }
    }

    /// One arrival of an active noise storm: a kernel task on a random
    /// online CPU, then the next arrival — until the window closes.
    pub(super) fn handle_fault_storm_tick(&mut self, idx: usize) {
        let FaultEvent { at, fault } = self.fault_plan[idx];
        let Fault::NoiseStorm {
            duration,
            mean_interval,
            median_task,
            sigma,
        } = fault
        else {
            return;
        };
        if self.now >= at.saturating_add(duration) {
            return;
        }
        // Draw the target from the online set without materializing it:
        // count, draw an index, then find the drawn CPU — the same single
        // `rng.index(count)` over the same set as the collected variant.
        let n_online = self.cpus.iter().filter(|c| !c.offline).count();
        let (cpu, dur_ns, dt_ns) = {
            let rng = &mut self.fault_rngs[idx];
            let mut k = rng.index(n_online);
            let mut cpu = usize::MAX;
            for (i, c) in self.cpus.iter().enumerate() {
                if !c.offline {
                    if k == 0 {
                        cpu = i;
                        break;
                    }
                    k -= 1;
                }
            }
            debug_assert!(cpu != usize::MAX);
            (
                cpu,
                rng.lognormal(median_task as f64, sigma),
                rng.exp(mean_interval as f64),
            )
        };
        self.counters.noise_events += 1;
        self.spawn_kernel(cpu, dur_ns);
        self.queue.push(
            self.now.saturating_add(from_ns_f64(dt_ns)),
            EventKind::FaultStormTick { idx: idx as u32 },
        );
    }

    /// Take `cpu` down: evacuate its queues and its running task, then
    /// refuse new work until the matching [`EventKind::FaultEnd`]. The
    /// last online CPU is never taken down (the fault degrades, it does
    /// not brick the machine).
    fn fault_cpu_offline(&mut self, cpu: usize) {
        if self.cpus[cpu].offline
            || self.cpus.iter().filter(|c| !c.offline).count() <= 1
        {
            return;
        }
        self.cpus[cpu].offline = true;
        // Evacuate queued work first so the eviction below cannot
        // re-dispatch onto this CPU.
        let uq: Vec<TaskId> = self.cpus[cpu].uq.drain(..).collect();
        let kq: Vec<TaskId> = self.cpus[cpu].kq.drain(..).collect();
        for tid in uq {
            let target = self.offline_evac_target(tid);
            self.migrate(tid, cpu, target);
        }
        for tid in kq {
            let target = place::least_loaded(&mut self.rng_place, &self.cpus, &self.topo);
            self.enqueue(tid, target);
        }
        // Evict whatever is on the CPU right now (running or spinning).
        if let Some(tid) = self.cpus[cpu].running {
            self.touch(cpu);
            self.set_running(cpu, None);
            match self.tasks[tid.0 as usize].kind {
                TaskKind::User => {
                    let target = self.offline_evac_target(tid);
                    self.migrate(tid, cpu, target);
                }
                TaskKind::Kernel => {
                    let target = place::least_loaded(&mut self.rng_place, &self.cpus, &self.topo);
                    self.enqueue(tid, target);
                }
            }
        }
        self.sync_stream(cpu);
    }

    /// Evacuation target for a user task leaving an offlined CPU:
    /// least-loaded online CPU of its place, else any online CPU.
    fn offline_evac_target(&mut self, tid: TaskId) -> usize {
        let pin = self.tasks[tid.0 as usize].pin.as_ref();
        pin.and_then(|p| place::least_loaded_in_place(&self.cpus, p))
            .unwrap_or_else(|| place::least_loaded(&mut self.rng_place, &self.cpus, &self.topo))
    }

    /// Apply (or lift, with `cap: None`) a frequency cap on one socket or
    /// all of them; retargets fire immediately (thermal throttling does
    /// not wait for the governor).
    fn fault_freq_cap(&mut self, socket: Option<usize>, cap: Option<f64>) {
        let targets: Vec<usize> = match socket {
            Some(s) if s < self.sockets.len() => vec![s],
            Some(_) => Vec::new(),
            None => (0..self.sockets.len()).collect(),
        };
        for s in targets {
            self.sockets[s].cap_ghz = cap;
            self.queue.push(self.now, EventKind::FreqReeval { socket: s });
        }
    }

    /// Charge one unfinished user task a lump of opaque overhead.
    fn fault_task_stall(&mut self, idx: usize, rank: Option<usize>, stall_ns: f64) {
        let unfinished: Vec<TaskId> = self
            .user_tasks
            .iter()
            .copied()
            .filter(|&t| self.tasks[t.0 as usize].state != TaskState::Done)
            .collect();
        if unfinished.is_empty() {
            return;
        }
        let victim = match rank {
            Some(r) => match unfinished
                .iter()
                .find(|&&t| self.tasks[t.0 as usize].rank == r)
            {
                Some(&t) => t,
                None => return,
            },
            None => unfinished[self.fault_rngs[idx].index(unfinished.len())],
        };
        let cpu = self.tasks[victim.0 as usize].cpu;
        let running_here = self.cpus[cpu].running == Some(victim);
        if running_here {
            self.touch(cpu);
        }
        self.charge_pot(victim, stall_ns, AttrSource::FaultStall);
        if running_here {
            self.schedule_boundary(cpu);
        }
    }
}

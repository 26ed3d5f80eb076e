//! DVFS: the per-socket governor (activity → turbo bin, with reaction
//! latency), the stochastic droop pulses of unstable turbo states, and
//! the frequency logger.

use super::Simulator;
use crate::events::EventKind;
use crate::time::from_ns_f64;
use crate::trace::FreqSample;
use ompvar_obs::InstantKind;

impl Simulator {
    /// Re-evaluate `socket`'s frequency target and pulse process after
    /// its activity, pulse state or cap changed.
    pub(super) fn handle_freq_reeval(&mut self, socket: usize) {
        let active = self.sockets[socket].active_cores;
        // Pull the needed scalars out of the clock spec up front instead
        // of cloning it (the spec owns its turbo-bin table; cloning it on
        // every re-evaluation was pure allocation churn). `sustainable`
        // is computed once and used for both the retarget and the
        // headroom test — the spec is immutable in between, so the value
        // is the same one the two original calls produced.
        let sustainable = self.topo.spec.clock.sustainable_ghz(active.max(1));
        // Track the clean (pulse-free, cap-free) trajectory for the
        // attribution ledger. Updated on every re-evaluation — the same
        // governor lag as the applied frequency — and nowhere else, so it
        // equals `applied_ghz` exactly whenever no pulse/cap is in force.
        self.sockets[socket].clean_ghz = sustainable;
        let base_ghz = self.topo.spec.clock.base_ghz;
        let clock = &self.topo.spec.clock;
        let all_core = clock.turbo_bins.last().copied().unwrap_or(clock.max_ghz);
        let mut target = sustainable;
        if self.sockets[socket].pulse_active {
            target *= 1.0 - self.params.freq.pulse_depth;
            target = target.max(base_ghz * 0.9);
        }
        if let Some(cap) = self.sockets[socket].cap_ghz {
            // Thermal-capping fault: hard ceiling, below any turbo bin.
            target = target.min(cap);
        }
        if (target - self.sockets[socket].applied_ghz).abs() > 1e-9 {
            self.counters.freq_transitions += 1;
            // Stamp the retarget with the socket index: a socket-wide
            // event has no single core, and the socket is what Perfetto
            // users correlate against the counter tracks.
            self.trace_global(InstantKind::FreqRetarget, socket as u32);
            // Reprice everything busy on this socket, in ascending CPU
            // order, via the reused scratch buffer.
            let mut cpus = std::mem::take(&mut self.scratch_cpus);
            cpus.clear();
            let busy = |c: &usize| self.cpus[*c].running.is_some();
            cpus.extend(self.topo.cpus_of_socket(socket).filter(busy));
            for &c in &cpus {
                self.touch(c);
            }
            self.sockets[socket].applied_ghz = target;
            for &c in &cpus {
                self.schedule_boundary(c);
            }
            cpus.clear();
            self.scratch_cpus = cpus;
        }
        // Arm or disarm the pulse process based on turbo headroom.
        let headroom = sustainable - all_core;
        let unstable = active > 0 && headroom > self.params.freq.stable_headroom_ghz;
        if unstable && !self.sockets[socket].pulse_armed {
            self.sockets[socket].pulse_armed = true;
            self.sockets[socket].pulse_token += 1;
            let token = self.sockets[socket].pulse_token;
            let dt = self.sockets[socket]
                .rng
                .exp(self.params.freq.pulse_mean_interval as f64);
            self.queue.push(
                self.now.saturating_add(from_ns_f64(dt)),
                EventKind::FreqPulse { socket, token },
            );
        } else if !unstable && self.sockets[socket].pulse_armed {
            self.sockets[socket].pulse_armed = false;
            self.sockets[socket].pulse_token += 1;
            if self.sockets[socket].pulse_active {
                self.sockets[socket].pulse_active = false;
                self.queue.push(self.now, EventKind::FreqReeval { socket });
            }
        }
    }

    /// A droop pulse of `socket` begins or ends.
    pub(super) fn handle_freq_pulse(&mut self, socket: usize, token: u64) {
        if token != self.sockets[socket].pulse_token {
            return;
        }
        let sock = &mut self.sockets[socket];
        let dt = if sock.pulse_active {
            // Pulse ends; next pulse after an interval.
            sock.pulse_active = false;
            sock.rng.exp(self.params.freq.pulse_mean_interval as f64)
        } else {
            // Pulse begins; ends after its duration.
            sock.pulse_active = true;
            sock.rng.exp(self.params.freq.pulse_mean_duration as f64)
        };
        self.queue.push(
            self.now.saturating_add(from_ns_f64(dt)),
            EventKind::FreqPulse { socket, token },
        );
        self.handle_freq_reeval(socket);
    }

    /// One sample of the frequency logger (and its CPU cost, if hosted).
    pub(super) fn handle_freq_sample(&mut self) {
        let Some(cfg) = self.logger else {
            return;
        };
        let idle_ghz = (self.topo.spec.clock.base_ghz * 0.6) as f32;
        let core_ghz: Vec<f32> = (0..self.topo.spec.n_cores())
            .map(|core| {
                if self.core_busy[core] > 0 {
                    self.sockets[self.topo.socket_of_core(core)].applied_ghz as f32
                } else {
                    idle_ghz
                }
            })
            .collect();
        self.freq_samples.push(FreqSample {
            time: self.now,
            core_ghz,
        });
        if let Some(cpu) = cfg.cpu {
            if cfg.cost > 0 && !self.cpus[cpu].offline {
                self.spawn_kernel(cpu, cfg.cost as f64);
            }
        }
        self.queue.push(self.now + cfg.period, EventKind::FreqSample);
    }
}

//! Periodic fast-forward: when a team's whole state recurs at rank 0's
//! loop checkpoints, jump whole periods instead of simulating them.
//!
//! An EPCC inner loop runs one construct many times over, and between
//! two far-tier events (noise arrivals, ticks, the balancer, DVFS) a
//! pinned team often returns to the same state, shifted in time, after
//! one or a few iterations. The absorber works in three steps, all in
//! `Simulator::run` between two events, never inside a handler:
//!
//! 1. **Checkpoint.** When rank 0's `LoopEnd` starts another iteration,
//!    the pending boundaries are encoded relative to `now` and a 64-bit
//!    signature of them goes into a ring of the last `RING`
//!    checkpoints.
//! 2. **Confirm.** A signature seen again at lag `p` arms a snapshot: the
//!    whole state encoded relative to `now` (`encode_rest`) plus every
//!    accumulator. When the state encodes as the snapshot again `p`
//!    checkpoints later, with no far-tier event pushed or popped, no
//!    marker recorded, no loop frame entered or left, no CPU turned busy
//!    or idle and no task migrated in between (the `Epoch`), the
//!    period is confirmed and measured: how far it moved `now`, the seq
//!    counter, the event count and each accumulator.
//! 3. **Jump.** From any checkpoint whose state encodes as the snapshot —
//!    the confirming one, or a later one after a far-tier event or in
//!    the loop's next pass — the measured period is replayed `m` times at
//!    once (`jump`): `now`, boundary times, seqs and tokens shift by `m`
//!    × the period's delta, and every accumulator advances by `m` × its
//!    own.
//!
//! Why the jump is exact. The handlers read time, seq and tokens only
//! through differences and comparisons, so those shift; they read the
//! accumulators (counters, task stats, effect counters, loop generations,
//! frame `remaining`) only through comparisons the encoding pins — a
//! `single`'s count modulo its team, a task's loop cursor against its
//! loop's generation — or through the loop-exit test, which the bound on
//! `m` keeps unchanged. So from every state that encodes alike the
//! measured period's events repeat with every quantity shifted by the
//! same delta, and between two far-tier events nothing else pops. `m`
//! stops strictly before the far-tier head, at the time limit, at the
//! event budget, and with every frame at least one iteration short of its
//! exit; past each line the main loop runs on live and trips the same
//! errors.
//!
//! The encoding leaves out only what no confirmed period changes or
//! reads: the far tier, the random streams only far-tier handlers draw
//! from (noise, sockets, faults), kernel-task programs (rewritten only by
//! far-tier handlers), idle CPUs (and with them tick tokens, the cores'
//! busy counts and the sockets, which change only when a CPU turns busy
//! or idle), the accumulators (advanced instead) and pure outputs. A
//! quantum end is read only while a task queues behind the running one,
//! so it is encoded only then. The absorber is off while tracing or
//! attribution records the run.

use super::Simulator;
use crate::sync::SyncObj;
use crate::task::{MicroOp, ObjId, TaskId, TaskState, TaskStats, Timed, WaitKind};
use crate::time::Time;
use crate::trace::Counters;

/// Longest period detected, in checkpoints.
const RING: usize = 64;

/// What must stay unchanged across a confirmed period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Epoch {
    far_ops: u64,
    frame_moves: u64,
    markers: usize,
    /// Every user-task enqueue after the start is a migration's.
    migrations: u64,
    busy_turns: u64,
}

/// What one clean period changed: `now`, the seq counter and
/// `counters.events`. The accumulators' own deltas are kept beside it.
#[derive(Debug, Clone, Copy)]
struct Period {
    dt: Time,
    ds: u64,
    de: u64,
}

/// The armed snapshot's anchor: the latest checkpoint whose state encoded
/// as the snapshot.
#[derive(Debug, Clone, Copy)]
struct Armed {
    /// Checkpoint index of the anchor.
    index: u64,
    /// The period, in checkpoints.
    period: u64,
    epoch: Epoch,
    now: Time,
    seq: u64,
    events: u64,
    /// Leading words of the snapshot that are the encoding; the anchor's
    /// accumulators follow.
    encoded: usize,
    /// Signature of the snapshot's boundary words.
    sig: u64,
    /// The latest clean period run from a state that encodes as the
    /// snapshot, if one was measured; every such period changes the state
    /// alike.
    measured: Option<Period>,
}

/// The periodic fast-forward's state. Its four buffers are allocated
/// once, when first needed, and reused for the rest of the run; a run
/// that never checkpoints allocates none.
#[derive(Debug, Default)]
pub(super) struct Periodic {
    /// Set by rank 0's `LoopEnd` when it starts another iteration; the
    /// main loop checkpoints before the next event.
    pub(super) due: bool,
    /// Loop frames entered or left by any task so far.
    pub(super) frame_moves: u64,
    /// CPUs turned busy or idle so far.
    pub(super) busy_turns: u64,
    /// Checkpoints so far.
    index: u64,
    /// `(index, signature)` of recent checkpoints, at `index % RING`.
    ring: Vec<(u64, u64)>,
    armed: Option<Armed>,
    /// The latest checkpoint's encoding.
    cur: Vec<u64>,
    /// The armed snapshot: encoding, then the anchor's accumulators.
    snap: Vec<u64>,
    /// Each accumulator's change over the measured period.
    deltas: Vec<u64>,
}

/// A 64-bit signature of an encoding: equal encodings sign alike.
fn signature(words: &[u64]) -> u64 {
    words.iter().fold(0x9E37_79B9_7F4A_7C15, |h, &w| {
        (h ^ w).wrapping_mul(0x0100_0000_01B3).rotate_left(29)
    })
}

fn task_word(t: TaskId) -> u64 {
    u64::from(t.0)
}

fn opt_task_word(t: Option<TaskId>) -> u64 {
    t.map_or(u64::MAX, task_word)
}

fn obj_word(o: ObjId) -> u64 {
    u64::from(o.0)
}

fn timed_words(t: Option<Timed>, out: &mut Vec<u64>) {
    match t {
        None => out.push(0),
        Some(Timed::Cycles { rem, class }) => out.extend([1, rem.to_bits(), class as u64]),
        Some(Timed::Ns { rem }) => out.extend([2, rem.to_bits()]),
        Some(Timed::Bytes { rem }) => out.extend([3, rem.to_bits()]),
        Some(Timed::AtomicNs { rem, obj }) => out.extend([4, rem.to_bits(), obj_word(obj)]),
    }
}

fn micro_words(m: MicroOp, out: &mut Vec<u64>) {
    match m {
        MicroOp::Timed(t) => timed_words(Some(t), out),
        MicroOp::Mark(k) => out.extend([5, u64::from(k)]),
        MicroOp::BarrierArrive(o) => out.extend([6, obj_word(o)]),
        MicroOp::LockAcquire(o) => out.extend([7, obj_word(o)]),
        MicroOp::LockRelease(o) => out.extend([8, obj_word(o)]),
        MicroOp::AtomicStart(o) => out.extend([9, obj_word(o)]),
        MicroOp::GrabChunk(o) => out.extend([10, obj_word(o)]),
        MicroOp::WaitTicket { obj, iter } => out.extend([11, obj_word(obj), iter]),
        MicroOp::TicketDone { obj } => out.extend([12, obj_word(obj)]),
        MicroOp::SingleTry { obj, body_cycles } => {
            out.extend([13, obj_word(obj), body_cycles.to_bits()]);
        }
        MicroOp::TaskSpawnOne { obj, body_cycles } => {
            out.extend([14, obj_word(obj), body_cycles.to_bits()]);
        }
        MicroOp::TaskExecOrWait { obj } => out.extend([15, obj_word(obj)]),
        MicroOp::TaskDone { obj } => out.extend([16, obj_word(obj)]),
        MicroOp::SpanEnd(kind) => out.extend([17, kind as u64]),
    }
}

fn state_words(s: TaskState, out: &mut Vec<u64>) {
    match s {
        TaskState::Runnable => out.push(0),
        TaskState::Done => out.push(1),
        TaskState::Waiting(WaitKind::Barrier(o)) => out.extend([2, obj_word(o)]),
        TaskState::Waiting(WaitKind::Lock(o)) => out.extend([3, obj_word(o)]),
        TaskState::Waiting(WaitKind::Ticket { obj, iter }) => {
            out.extend([4, obj_word(obj), iter]);
        }
        TaskState::Waiting(WaitKind::TaskPool(o)) => out.extend([5, obj_word(o)]),
    }
}

/// How a jump advances an accumulator over `m` periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Acc {
    /// A count: by `m` × its per-period delta.
    Count,
    /// A frame's `remaining`, a count down whose loop exits at zero.
    Remaining,
    /// A time stamp that is only ever set to `now` plus a fixed offset:
    /// with `now` if the period set it, else not at all.
    Stamp,
}

/// Hand a `u32` accumulator to a visitor of `u64`s.
fn narrow(v: &mut u32, acc: Acc, f: &mut impl FnMut(&mut u64, Acc)) {
    let mut w = u64::from(*v);
    f(&mut w, acc);
    *v = w as u32;
}

impl Simulator {
    fn epoch(&self) -> Epoch {
        Epoch {
            far_ops: self.queue.far_ops(),
            frame_moves: self.periodic.frame_moves,
            markers: self.markers.len(),
            migrations: self.counters.migrations,
            busy_turns: self.periodic.busy_turns,
        }
    }

    /// Checkpoint after an event in which rank 0 started another loop
    /// iteration: confirm the armed period and jump, or look for a period
    /// to arm. See the module doc.
    pub(super) fn periodic_checkpoint(&mut self, limit: Time) {
        self.periodic.due = false;
        #[cfg(test)]
        if !tests::PERIODIC.get() {
            return;
        }
        if self.trace.is_some() || self.attr.on {
            return;
        }
        let k = self.periodic.index;
        self.periodic.index += 1;
        let armed = self.periodic.armed;
        // Inside an armed period there is nothing to compare.
        if armed.is_some_and(|a| k < a.index + a.period) {
            return;
        }
        if self.periodic.ring.is_empty() {
            self.periodic.ring = vec![(u64::MAX, 0); RING];
        }
        let mut cur = std::mem::take(&mut self.periodic.cur);
        cur.clear();
        cur.reserve(self.words_hint());
        self.queue
            .boundary_words(self.now, |cpu| self.cpus[cpu].token, &mut cur);
        let queued = cur.len();
        // The signature covers the pending boundaries only: cheap, and
        // they carry every busy CPU's phase.
        let sig = signature(&cur);
        if let Some(a) = armed {
            // At the period's end the state should encode as the
            // snapshot again. A far-tier event may have shifted the phase,
            // and a later pass of the loop may come back to the snapshot,
            // so any later checkpoint that signs alike is tried too.
            let at_end = k == a.index + a.period;
            if at_end || sig == a.sig {
                self.encode_rest(&mut cur);
                if cur[..] == self.periodic.snap[..a.encoded] {
                    let clean = at_end && self.epoch() == a.epoch;
                    let measured = if clean {
                        Some(self.measure(&a))
                    } else {
                        a.measured
                    };
                    if let Some(period) = measured {
                        #[cfg(test)]
                        tests::FRESH.set(clean);
                        self.jump(period, limit);
                    }
                    self.arm(k, a.period, a.encoded, sig, measured);
                }
            }
        }
        // Look for a new period while none is armed, or while the armed
        // one has been missed for a whole period.
        let lost = self
            .periodic
            .armed
            .is_none_or(|a| k >= a.index + 2 * a.period);
        if lost {
            let ring = &self.periodic.ring;
            let lag = (1..=RING as u64)
                .take_while(|&lag| lag <= k)
                .find(|&lag| ring[((k - lag) % RING as u64) as usize] == (k - lag, sig));
            if let Some(period) = lag {
                cur.truncate(queued);
                self.encode_rest(&mut cur);
                std::mem::swap(&mut cur, &mut self.periodic.snap);
                let encoded = self.periodic.snap.len();
                self.arm(k, period, encoded, sig, None);
            }
        }
        self.periodic.ring[(k % RING as u64) as usize] = (k, sig);
        self.periodic.cur = cur;
    }

    /// Anchor the snapshot at checkpoint `index`, whose state encodes as
    /// the snapshot's first `encoded` words: record the anchor and its
    /// accumulators after them.
    fn arm(&mut self, index: u64, period: u64, encoded: usize, sig: u64, measured: Option<Period>) {
        let mut snap = std::mem::take(&mut self.periodic.snap);
        snap.truncate(encoded);
        self.for_each_accumulator(|v, _| snap.push(*v));
        self.periodic.snap = snap;
        self.periodic.armed = Some(Armed {
            index,
            period,
            epoch: self.epoch(),
            now: self.now,
            seq: self.queue.seq(),
            events: self.counters.events,
            encoded,
            sig,
            measured,
        });
    }

    /// The clean period just run since anchor `a`: its deltas, each
    /// accumulator's into `deltas`.
    fn measure(&mut self, a: &Armed) -> Period {
        let snap = std::mem::take(&mut self.periodic.snap);
        let mut deltas = std::mem::take(&mut self.periodic.deltas);
        deltas.clear();
        deltas.reserve(self.words_hint());
        let mut anchor = snap[a.encoded..].iter();
        self.for_each_accumulator(|v, _| {
            deltas.push(v.wrapping_sub(*anchor.next().expect("one anchor word per accumulator")));
        });
        self.periodic.snap = snap;
        self.periodic.deltas = deltas;
        let period = Period {
            dt: self.now - a.now,
            ds: self.queue.seq() - a.seq,
            de: self.counters.events - a.events,
        };
        debug_assert!(period.de > 0, "a period without events");
        period
    }

    /// Replay period `p` as many times as every bound allows (none when
    /// one already binds), from a state that encodes as the snapshot.
    fn jump(&mut self, p: Period, limit: Time) {
        let Period { dt, ds, de } = p;
        // The far-tier head must pop after the last replayed event.
        let by_far = match self.queue.far_head_time() {
            Some(far) if far <= self.now => 0,
            Some(far) if dt > 0 => (far - self.now - 1) / dt,
            _ => u64::MAX,
        };
        let by_limit = (limit.saturating_sub(self.now))
            .checked_div(dt)
            .unwrap_or(u64::MAX);
        let by_budget = self
            .event_budget
            .map_or(u64::MAX, |b| b.saturating_sub(self.counters.events) / de);
        let deltas = std::mem::take(&mut self.periodic.deltas);
        // Every frame the period counts down stays at least one
        // iteration short of its exit. Rank 0's own frame counts down
        // every period, so this bound is always finite.
        let mut by_frames = u64::MAX;
        let mut i = 0;
        self.for_each_accumulator(|v, kind| {
            let down = deltas[i].wrapping_neg();
            if kind == Acc::Remaining && down > 0 {
                by_frames = by_frames.min(v.saturating_sub(1) / down);
            }
            i += 1;
        });
        debug_assert!(by_frames < u64::MAX, "no frame counts down");
        let m = by_far.min(by_limit).min(by_budget).min(by_frames);
        #[cfg(test)]
        {
            let mut frames_left = u64::MAX;
            let mut i = 0;
            self.for_each_accumulator(|v, kind| {
                let down = deltas[i].wrapping_neg();
                if kind == Acc::Remaining && down > 0 {
                    frames_left = frames_left.min(v.checked_sub(m * down).unwrap_or(0));
                }
                i += 1;
            });
            tests::record(tests::Jump {
                periods: m,
                events: m * de,
                events_before: self.counters.events,
                start: self.now,
                end: self.now + m * dt,
                far: self.queue.far_head_time(),
                by_far,
                by_limit,
                by_budget,
                by_frames,
                frames_left,
                fresh: false,
            });
        }
        if m > 0 {
            let shift = m * dt;
            self.now += shift;
            self.queue
                .shift_boundaries(shift, m * ds, |cpu| m.wrapping_mul(deltas[cpu]));
            let mut i = 0;
            self.for_each_accumulator(|v, kind| {
                let d = deltas[i];
                i += 1;
                *v = match kind {
                    Acc::Count | Acc::Remaining => v.wrapping_add(m.wrapping_mul(d)),
                    Acc::Stamp if d != 0 => *v + shift,
                    Acc::Stamp => *v,
                };
            });
        }
        self.periodic.deltas = deltas;
    }

    /// Room for an encoding plus its accumulators, so each buffer is
    /// allocated once rather than grown word by word.
    fn words_hint(&self) -> usize {
        16 + 4 * self.queue.len()
            + 12 * self.cpus.len()
            + 32 * self.tasks.len()
            + 8 * self.objs.len()
    }

    /// The state past the pending boundaries as words (the boundaries
    /// come first, from `EventQueue::boundary_words`), relative to `now`;
    /// accumulators are left out, and so is what the module doc lists.
    /// Every variable-length part is preceded by its length, so equal
    /// encodings mean equal states.
    ///
    /// Within an epoch no CPU turns busy or idle, so only busy CPUs are
    /// encoded: an idle CPU's fields, its tick token, the cores' busy
    /// counts and the sockets' activity change only on such a turn, or in
    /// far-tier handlers. Kernel-task recycling shows in the tasks' states.
    fn encode_rest(&self, out: &mut Vec<u64>) {
        let now = self.now;
        out.extend([
            self.users_remaining as u64,
            u64::from(self.lost_wakeups_armed),
        ]);
        out.extend(self.rng_place.state_words());
        out.extend(self.rng_balance.state_words());
        for (i, c) in self.cpus.iter().enumerate() {
            let Some(running) = c.running else { continue };
            out.extend([
                i as u64,
                task_word(running),
                // Read only while a task queues behind the running one
                // (no task joins the queue without a migration), and an
                // expired quantum reads the same however long ago.
                if c.uq.is_empty() {
                    u64::MAX
                } else {
                    c.quantum_end.saturating_sub(now)
                },
                now - c.since,
                c.streaming.map_or(u64::MAX, |d| d as u64),
                c.kq.len() as u64,
                c.uq.len() as u64,
            ]);
            out.extend(c.kq.iter().chain(&c.uq).copied().map(task_word));
        }
        for d in &self.domains {
            out.push(d.streamers.len() as u64);
            out.extend(d.streamers.iter().map(|&c| c as u64));
        }
        out.push(self.tasks.len() as u64);
        for t in &self.tasks {
            state_words(t.state, out);
            if t.state == TaskState::Done {
                continue;
            }
            out.extend([
                t.pc as u64,
                t.cpu as u64,
                t.home_numa.map_or(u64::MAX, |d| d as u64),
                t.pending_overhead_ns.to_bits(),
                // Live or not; a live cursor equals its loop's generation.
                u64::from(t.loop_gen == u64::MAX),
                t.loop_pos,
                t.frames.len() as u64,
                t.micro.len() as u64,
            ]);
            out.extend(t.frames.iter().map(|f| f.begin_pc as u64));
            timed_words(t.current, out);
            for &m in &t.micro {
                micro_words(m, out);
            }
        }
        for o in &self.objs {
            match o {
                SyncObj::Barrier(b) => {
                    out.extend([
                        0,
                        b.arrived as u64,
                        b.last_cpu as u64,
                        b.waiters.len() as u64,
                    ]);
                    out.extend(b.waiters.iter().copied().map(task_word));
                }
                SyncObj::Lock(l) => {
                    out.extend([1, opt_task_word(l.holder), l.queue.len() as u64]);
                    out.extend(l.queue.iter().copied().map(task_word));
                }
                SyncObj::Atomic(a) => out.extend([2, a.active as u64]),
                SyncObj::Single(s) => out.extend([3, s.count % s.n as u64]),
                SyncObj::Loop(l) => {
                    out.extend([
                        4,
                        l.next_iter,
                        l.entered as u64,
                        l.finished as u64,
                        l.ordered_next,
                        l.ordered_waiters.len() as u64,
                    ]);
                    for &(iter, t) in &l.ordered_waiters {
                        out.extend([iter, task_word(t)]);
                    }
                }
                SyncObj::TaskPool(p) => {
                    out.extend([
                        5,
                        p.outstanding as u64,
                        p.pending.len() as u64,
                        p.waiters.len() as u64,
                    ]);
                    out.extend(p.pending.iter().map(|c| c.to_bits()));
                    out.extend(p.waiters.iter().copied().map(task_word));
                }
            }
        }
    }

    /// Visit every accumulator in a fixed order, CPU tokens first (so
    /// CPU `c`'s token is word `c`).
    fn for_each_accumulator(&mut self, mut f: impl FnMut(&mut u64, Acc)) {
        for c in &mut self.cpus {
            f(&mut c.token, Acc::Count);
        }
        for c in &mut self.cpus {
            f(&mut c.since, Acc::Stamp);
            f(&mut c.quantum_end, Acc::Stamp);
        }
        let Counters {
            preemptions,
            migrations,
            noise_events,
            noise_busy,
            ticks,
            freq_transitions,
            events,
            faults_injected,
            lost_wakeups,
        } = &mut self.counters;
        for v in [
            preemptions,
            migrations,
            noise_events,
            noise_busy,
            ticks,
            freq_transitions,
            events,
            faults_injected,
            lost_wakeups,
        ] {
            f(v, Acc::Count);
        }
        for t in &mut self.tasks {
            let TaskStats {
                busy_time,
                wait_time,
                preempted_time,
                migrations,
                preemptions,
            } = &mut t.stats;
            f(busy_time, Acc::Count);
            f(wait_time, Acc::Count);
            f(preempted_time, Acc::Count);
            narrow(migrations, Acc::Count, &mut f);
            narrow(preemptions, Acc::Count, &mut f);
            f(&mut t.loop_gen, Acc::Count);
            for frame in &mut t.frames {
                narrow(&mut frame.remaining, Acc::Remaining, &mut f);
            }
        }
        for o in &mut self.objs {
            match o {
                SyncObj::Barrier(b) => f(&mut b.arrivals, Acc::Count),
                SyncObj::Lock(l) => f(&mut l.entries, Acc::Count),
                SyncObj::Atomic(a) => f(&mut a.ops, Acc::Count),
                SyncObj::Single(s) => {
                    f(&mut s.count, Acc::Count);
                    f(&mut s.wins, Acc::Count);
                }
                SyncObj::Loop(l) => {
                    for v in [
                        &mut l.generation,
                        &mut l.iters_executed,
                        &mut l.passes,
                        &mut l.ordered_done,
                    ] {
                        f(v, Acc::Count);
                    }
                }
                SyncObj::TaskPool(p) => {
                    f(&mut p.spawned, Acc::Count);
                    f(&mut p.executed, Acc::Count);
                }
            }
        }
    }
}

#[cfg(test)]
#[path = "periodic_tests.rs"]
mod tests;

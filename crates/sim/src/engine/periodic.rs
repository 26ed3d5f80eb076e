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
//!    whole state encoded relative to `now` plus every accumulator, both
//!    from one state walk (`Simulator::walk`). When the state encodes as
//!    the snapshot again `p` checkpoints later, with no far-tier event
//!    pushed or popped, no marker recorded, no loop frame entered or
//!    left, no CPU turned busy or idle and no task migrated in between
//!    (the `Epoch`), the period is confirmed and measured: how far it moved `now`, the seq
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
//! What is encoded, what is an accumulator and what may be left out is
//! decided field by field in `Simulator::walk`, whose patterns name every
//! field of the state; a field it does not class does not compile. The
//! absorber is off while tracing or attribution records the run.

use super::{Cpu, Domain, Simulator, Socket};
use crate::sync::{AtomicObj, BarrierObj, LockObj, LoopObj, SingleObj, SyncObj, TaskPoolObj};
use crate::task::{LoopFrame, MicroOp, ObjId, Task, TaskId, TaskState, TaskStats, Timed, WaitKind};
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

fn timed_words(t: Option<Timed>, w: &mut impl Walker) {
    match t {
        None => w.words([0]),
        Some(Timed::Cycles { rem, class }) => w.words([1, rem.to_bits(), class as u64]),
        Some(Timed::Ns { rem }) => w.words([2, rem.to_bits()]),
        Some(Timed::Bytes { rem }) => w.words([3, rem.to_bits()]),
        Some(Timed::AtomicNs { rem, obj }) => w.words([4, rem.to_bits(), obj_word(obj)]),
    }
}

fn micro_words(m: MicroOp, w: &mut impl Walker) {
    match m {
        MicroOp::Timed(t) => timed_words(Some(t), w),
        MicroOp::Mark(k) => w.words([5, u64::from(k)]),
        MicroOp::BarrierArrive(o) => w.words([6, obj_word(o)]),
        MicroOp::LockAcquire(o) => w.words([7, obj_word(o)]),
        MicroOp::LockRelease(o) => w.words([8, obj_word(o)]),
        MicroOp::AtomicStart(o) => w.words([9, obj_word(o)]),
        MicroOp::GrabChunk(o) => w.words([10, obj_word(o)]),
        MicroOp::WaitTicket { obj, iter } => w.words([11, obj_word(obj), iter]),
        MicroOp::TicketDone { obj } => w.words([12, obj_word(obj)]),
        MicroOp::SingleTry { obj, body_cycles } => {
            w.words([13, obj_word(obj), body_cycles.to_bits()]);
        }
        MicroOp::TaskSpawnOne { obj, body_cycles } => {
            w.words([14, obj_word(obj), body_cycles.to_bits()]);
        }
        MicroOp::TaskExecOrWait { obj } => w.words([15, obj_word(obj)]),
        MicroOp::TaskDone { obj } => w.words([16, obj_word(obj)]),
        MicroOp::SpanEnd(kind) => w.words([17, kind as u64]),
    }
}

fn state_words(s: TaskState, w: &mut impl Walker) {
    match s {
        TaskState::Runnable => w.words([0]),
        TaskState::Done => w.words([1]),
        TaskState::Waiting(WaitKind::Barrier(o)) => w.words([2, obj_word(o)]),
        TaskState::Waiting(WaitKind::Lock(o)) => w.words([3, obj_word(o)]),
        TaskState::Waiting(WaitKind::Ticket { obj, iter }) => {
            w.words([4, obj_word(obj), iter]);
        }
        TaskState::Waiting(WaitKind::TaskPool(o)) => w.words([5, obj_word(o)]),
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

/// A visitor of the state walk ([`Simulator::walk`]).
trait Walker {
    /// Words of the encoding, in walk order.
    fn words(&mut self, words: impl IntoIterator<Item = u64>);
    /// An accumulator, in walk order, and how a jump advances it.
    fn acc(&mut self, v: &mut u64, kind: Acc);
}

/// The walk's encoding, appended to a buffer; accumulators are skipped.
struct Encode<'a>(&'a mut Vec<u64>);

impl Walker for Encode<'_> {
    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        self.0.extend(words);
    }

    fn acc(&mut self, _: &mut u64, _: Acc) {}
}

/// The walk's accumulators, each handed to a closure; the encoding is
/// skipped.
struct Accumulators<F>(F);

impl<F: FnMut(&mut u64, Acc)> Walker for Accumulators<F> {
    fn words(&mut self, _: impl IntoIterator<Item = u64>) {}

    fn acc(&mut self, v: &mut u64, kind: Acc) {
        (self.0)(v, kind);
    }
}

/// Hand a `u32` accumulator to a walker of `u64`s.
fn narrow(v: &mut u32, kind: Acc, w: &mut impl Walker) {
    let mut x = u64::from(*v);
    w.acc(&mut x, kind);
    *v = x as u32;
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
        if !super::referent::ABSORB.get() {
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
                self.walk(&mut Encode(&mut cur));
                if cur[..] == self.periodic.snap[..a.encoded] {
                    let clean = at_end && self.epoch() == a.epoch;
                    let measured = if clean {
                        Some(self.measure(&a))
                    } else {
                        a.measured
                    };
                    if let Some(period) = measured {
                        #[cfg(test)]
                        super::referent::FRESH.set(clean);
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
                self.walk(&mut Encode(&mut cur));
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
        self.walk(&mut Accumulators(|v: &mut u64, _| snap.push(*v)));
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
        self.walk(&mut Accumulators(|v: &mut u64, _| {
            deltas.push(v.wrapping_sub(*anchor.next().expect("one anchor word per accumulator")));
        }));
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
        self.walk(&mut Accumulators(|v: &mut u64, kind| {
            let down = deltas[i].wrapping_neg();
            if kind == Acc::Remaining && down > 0 {
                by_frames = by_frames.min(v.saturating_sub(1) / down);
            }
            i += 1;
        }));
        debug_assert!(by_frames < u64::MAX, "no frame counts down");
        let m = by_far.min(by_limit).min(by_budget).min(by_frames);
        #[cfg(test)]
        {
            let mut frames_left = u64::MAX;
            let mut i = 0;
            self.walk(&mut Accumulators(|v: &mut u64, kind| {
                let down = deltas[i].wrapping_neg();
                if kind == Acc::Remaining && down > 0 {
                    frames_left = frames_left.min(v.checked_sub(m * down).unwrap_or(0));
                }
                i += 1;
            }));
            super::referent::record_jump(super::referent::Jump {
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
            self.walk(&mut Accumulators(|v: &mut u64, kind| {
                let d = deltas[i];
                i += 1;
                *v = match kind {
                    Acc::Count | Acc::Remaining => v.wrapping_add(m.wrapping_mul(d)),
                    Acc::Stamp if d != 0 => *v + shift,
                    Acc::Stamp => *v,
                };
            }));
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

    /// The state walk: every field of the simulator's state, named once
    /// with its class, in one fixed order. Each field is
    ///
    /// * encoded: handed to [`Walker::words`] relative to `now` (the
    ///   pending boundaries are encoded first, by
    ///   `EventQueue::boundary_words`);
    /// * an accumulator: handed to [`Walker::acc`] with its [`Acc`], CPU
    ///   tokens first, so CPU `c`'s token is accumulator `c`;
    /// * changed only by far-tier handlers or on a busy turn, which no
    ///   confirmed period holds (its `Epoch` pins both);
    /// * constant after spawn;
    /// * or output, never read back by a handler.
    ///
    /// Every variable-length part is encoded after its length, so equal
    /// encodings mean equal states. Every pattern names every field, so a
    /// new field does not compile here until it is classed.
    fn walk(&mut self, w: &mut impl Walker) {
        let Simulator {
            // Encoded, or accumulators.
            users_remaining,
            lost_wakeups_armed,
            rng_place,
            rng_balance,
            cpus,
            sockets,
            domains,
            tasks,
            objs,
            counters,
            // The clock and the queue: the pending boundaries are encoded
            // first, and a jump shifts them with `now` and the seq
            // counter; only far-tier handlers push or pop the far tier.
            now,
            queue: _,
            // Changed only by far-tier handlers or on a busy turn. The
            // cores' busy counts follow from which CPUs are busy; kernel
            // tasks come from noise arrivals, so their recycling shows in
            // the tasks' states.
            core_busy: _,
            noise_streams: _,
            kernel_freelist: _,
            fault_rngs: _,
            rng_fault: _,
            // Constant after spawn.
            topo: _,
            params: _,
            logger: _,
            user_tasks: _,
            started: _,
            fault_plan: _,
            event_budget: _,
            // Output, or scratch that is empty between events; the
            // absorber's own state.
            markers: _,
            freq_samples: _,
            fatal: _,
            trace: _,
            attr: _,
            scratch_cpus: _,
            periodic: _,
        } = self;
        let now = *now;
        for c in cpus.iter_mut() {
            w.acc(&mut c.token, Acc::Count);
        }
        w.words([*users_remaining as u64, u64::from(*lost_wakeups_armed)]);
        w.words(rng_place.state_words());
        w.words(rng_balance.state_words());
        for Socket {
            // Read by every rate; far-tier handlers change it, and a jump
            // may start after one.
            applied_ghz,
            // Follows from which CPUs are busy.
            active_cores: _,
            // Changed only by far-tier handlers or on a busy turn, and
            // read by the governor alone.
            pulse_active: _,
            pulse_token: _,
            pulse_armed: _,
            cap_ghz: _,
            rng: _,
            // Output: read by the attribution ledger alone.
            clean_ghz: _,
        } in sockets.iter()
        {
            w.words([applied_ghz.to_bits()]);
        }
        for (i, c) in cpus.iter_mut().enumerate() {
            let Cpu {
                // An accumulator, handed over first, above.
                token: _,
                since,
                quantum_end,
                running,
                kq,
                uq,
                streaming,
                // Changed only on a busy turn or by a fault.
                tick_token: _,
                offline: _,
            } = c;
            w.acc(since, Acc::Stamp);
            w.acc(quantum_end, Acc::Stamp);
            // Within an epoch no CPU turns busy or idle, so only busy CPUs
            // are encoded: an idle CPU changes only on such a turn.
            let Some(running) = *running else { continue };
            w.words([
                i as u64,
                task_word(running),
                // Read only while a task queues behind the running one
                // (no task joins the queue without a migration), and an
                // expired quantum reads the same however long ago.
                if uq.is_empty() {
                    u64::MAX
                } else {
                    quantum_end.saturating_sub(now)
                },
                now - *since,
                streaming.map_or(u64::MAX, |d| d as u64),
                kq.len() as u64,
                uq.len() as u64,
            ]);
            w.words(kq.iter().chain(uq.iter()).copied().map(task_word));
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
        } = counters;
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
            w.acc(v, Acc::Count);
        }
        for Domain { streamers } in domains.iter() {
            w.words([streamers.len() as u64]);
            w.words(streamers.iter().map(|&c| c as u64));
        }
        w.words([tasks.len() as u64]);
        for t in tasks.iter_mut() {
            let Task {
                // Constant after spawn; a kernel task's program is
                // rewritten only by far-tier handlers.
                id: _,
                kind: _,
                rank: _,
                program: _,
                pin: _,
                state,
                pc,
                cpu,
                home_numa,
                pending_overhead_ns,
                loop_gen,
                loop_pos,
                frames,
                micro,
                current,
                stats:
                    TaskStats {
                        busy_time,
                        wait_time,
                        preempted_time,
                        migrations,
                        preemptions,
                    },
            } = t;
            w.acc(busy_time, Acc::Count);
            w.acc(wait_time, Acc::Count);
            w.acc(preempted_time, Acc::Count);
            narrow(migrations, Acc::Count, w);
            narrow(preemptions, Acc::Count, w);
            // Live or not is encoded; a live cursor equals its loop's
            // generation.
            w.acc(loop_gen, Acc::Count);
            state_words(*state, w);
            // A finished task has no frames, micro-ops or timed op left.
            if *state == TaskState::Done {
                continue;
            }
            w.words([
                *pc as u64,
                *cpu as u64,
                home_numa.map_or(u64::MAX, |d| d as u64),
                pending_overhead_ns.to_bits(),
                u64::from(*loop_gen == u64::MAX),
                *loop_pos,
                frames.len() as u64,
                micro.len() as u64,
            ]);
            for LoopFrame {
                begin_pc,
                remaining,
            } in frames.iter_mut()
            {
                w.words([*begin_pc as u64]);
                narrow(remaining, Acc::Remaining, w);
            }
            timed_words(*current, w);
            for &m in micro.iter() {
                micro_words(m, w);
            }
        }
        for o in objs.iter_mut() {
            match o {
                SyncObj::Barrier(BarrierObj {
                    n: _,
                    span_factor: _,
                    spare: _,
                    arrived,
                    last_cpu,
                    waiters,
                    arrivals,
                }) => {
                    w.words([0, *arrived as u64, *last_cpu as u64, waiters.len() as u64]);
                    w.words(waiters.iter().copied().map(task_word));
                    w.acc(arrivals, Acc::Count);
                }
                SyncObj::Lock(LockObj {
                    span_factor: _,
                    holder,
                    queue,
                    entries,
                }) => {
                    w.words([1, opt_task_word(*holder), queue.len() as u64]);
                    w.words(queue.iter().copied().map(task_word));
                    w.acc(entries, Acc::Count);
                }
                SyncObj::Atomic(AtomicObj {
                    span_factor: _,
                    active,
                    ops,
                }) => {
                    w.words([2, *active as u64]);
                    w.acc(ops, Acc::Count);
                }
                SyncObj::Single(SingleObj { n, count, wins }) => {
                    // Read only modulo the team.
                    w.words([3, *count % *n as u64]);
                    w.acc(count, Acc::Count);
                    w.acc(wins, Acc::Count);
                }
                SyncObj::Loop(LoopObj {
                    spec: _,
                    next_iter,
                    entered,
                    finished,
                    ordered_next,
                    ordered_waiters,
                    generation,
                    iters_executed,
                    passes,
                    ordered_done,
                }) => {
                    w.words([
                        4,
                        *next_iter,
                        *entered as u64,
                        *finished as u64,
                        *ordered_next,
                        ordered_waiters.len() as u64,
                    ]);
                    w.words(
                        ordered_waiters
                            .iter()
                            .flat_map(|&(iter, t)| [iter, task_word(t)]),
                    );
                    for v in [generation, iters_executed, passes, ordered_done] {
                        w.acc(v, Acc::Count);
                    }
                }
                SyncObj::TaskPool(TaskPoolObj {
                    span_factor: _,
                    participants: _,
                    spawners: _,
                    spare: _,
                    outstanding,
                    pending,
                    waiters,
                    spawned,
                    executed,
                }) => {
                    w.words([
                        5,
                        *outstanding as u64,
                        pending.len() as u64,
                        waiters.len() as u64,
                    ]);
                    w.words(pending.iter().map(|c| c.to_bits()));
                    w.words(waiters.iter().copied().map(task_word));
                    w.acc(spawned, Acc::Count);
                    w.acc(executed, Acc::Count);
                }
            }
        }
    }
}

#[cfg(test)]
#[path = "periodic_tests.rs"]
mod tests;

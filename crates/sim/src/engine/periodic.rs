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
//! decided field by field in `Simulator::walk` (`walk.rs`), whose
//! patterns name every field of the state; a field it does not class does
//! not compile. The absorber is off while tracing or attribution records
//! the run.

use super::walk::{Acc, Accumulators, Encode};
use super::Simulator;
use crate::time::Time;

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
}

#[cfg(test)]
#[path = "periodic_tests.rs"]
mod tests;

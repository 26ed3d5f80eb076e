//! The persistent team: worker threads that stay parked between regions.
//!
//! A [`Team`] belongs to one [`super::NativeRuntime`] (and its clones)
//! and runs one region at a time. The life of a region on it:
//!
//! 1. **muster** — grow the team to the region's size (threads are only
//!    ever added; they exit when the team is dropped) and resolve the
//!    thread→place assignment, cached per (config, team size). None of
//!    this is on the region's clock.
//! 2. **dispatch** — count the ranks into the process-wide in-region
//!    tally that sizes every wait's spin budget ([`super::wait`]), then
//!    send every rank its [`Job`] handle, which wakes it.
//!    The worker re-applies its affinity only if its place changed since
//!    the previous region, runs the job, drops its handle and counts the
//!    completion latch down; the caller parks on that latch and counts
//!    the ranks out again when it opens.
//! 3. **park** — the workers go back to sleep on their (channel) inboxes.
//!
//! A job that returns early (a [`RunGuard`] timeout) leaves the team
//! intact. A job that panics trips the guard so that teammates blocked
//! in a bounded wait bail out, the caller re-raises the payload, and the
//! team is disbanded; the next region musters a fresh one.

use super::affinity;
use super::guard::RunGuard;
use super::wait::{self, InRegion};
use crate::config::RtConfig;
use ompvar_topology::{MachineSpec, Place, ProcBind};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};

/// One region's work as the team sees it: something every rank runs,
/// bounded by a guard the team can trip.
pub(super) trait Job: Send + Sync {
    /// Execute rank `rank`'s share of the region.
    fn run(&self, rank: usize);
    /// The deadline every wait inside [`Job::run`] consults.
    fn guard(&self) -> &RunGuard;
}

/// Places of one region's ranks, indexed by rank; `None` leaves the
/// team unbound.
pub(super) type Placement = Option<Arc<[Place]>>;

/// One rank's share of a dispatch.
struct Msg {
    job: Arc<dyn Job>,
    rank: usize,
    placement: Placement,
    latch: Arc<Latch>,
}

/// Completion latch of one dispatch: the caller parks until every rank
/// has counted down.
struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    caller: Thread,
}

/// A worker's end-of-region duties, as a drop guard so that they also
/// happen while the worker unwinds out of a panicking job.
struct Finish {
    job: Option<Arc<dyn Job>>,
    latch: Arc<Latch>,
}

impl Drop for Finish {
    fn drop(&mut self) {
        if let Some(job) = self.job.take() {
            if thread::panicking() {
                job.guard().trip();
                self.latch.panicked.store(true, Ordering::Relaxed);
            }
            // The handle goes before the count-down: once the latch
            // opens, the caller holds the only reference to the job.
            drop(job);
        }
        // Release pairs with the caller's Acquire load of zero: the
        // job's effects, the dropped handle and `panicked` are visible.
        if self.latch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.latch.caller.unpark();
        }
    }
}

struct Worker {
    inbox: Sender<Msg>,
    handle: JoinHandle<()>,
}

impl Worker {
    fn spawn(index: usize) -> Worker {
        let (inbox, messages) = mpsc::channel();
        let handle = thread::Builder::new()
            .name(format!("ompvar-team-{index}"))
            .spawn(move || work(messages))
            .expect("the host can start a team thread");
        Worker { inbox, handle }
    }
}

/// Body of a team thread: sleep until a message arrives, run it, repeat;
/// exit when the team hangs up.
fn work(messages: Receiver<Msg>) {
    // Pin hygiene for a thread that outlives its regions: remember the
    // mask it started with and the place the previous region bound it to.
    let initial = affinity::current_affinity();
    let mut bound: Option<Place> = None;
    for Msg { job, rank, placement, latch } in messages {
        let finish = Finish { job: Some(job), latch };
        let place = placement.as_deref().and_then(|p| p.get(rank));
        if bound.as_ref() != place {
            match (place, &initial) {
                (Some(p), _) => {
                    affinity::pin_current_thread(p);
                }
                (None, Some(mask)) => {
                    affinity::set_current_affinity(mask.iter().copied());
                }
                (None, None) => {}
            }
            bound = place.cloned();
        }
        if let Some(job) = &finish.job {
            job.run(rank);
        }
    }
}

/// The parked workers of one runtime, plus what is resolved once per
/// team rather than once per region.
#[derive(Default)]
pub(super) struct Team {
    workers: Vec<Worker>,
    /// Resolved assignments of the last bound config seen, by team size.
    placements: Option<(RtConfig, BTreeMap<usize, Placement>)>,
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Team {
    /// Get ready for an `n`-thread region under `config`: make sure `n`
    /// workers exist and return where they are to run.
    pub(super) fn muster(&mut self, config: &RtConfig, n: usize) -> Placement {
        while self.workers.len() < n {
            self.workers.push(Worker::spawn(self.workers.len()));
        }
        if config.bind == ProcBind::False {
            return None;
        }
        if !matches!(&self.placements, Some((c, _)) if c == config) {
            self.placements = Some((config.clone(), BTreeMap::new()));
        }
        let (_, by_size) = self.placements.as_mut().expect("set just above");
        by_size
            .entry(n)
            .or_insert_with(|| host_assignment(config, n))
            .clone()
    }

    /// Run `job` on ranks `0..n` (mustered beforehand) and wait for all
    /// of them. A panic on any rank is re-raised here, after the team
    /// has been disbanded.
    pub(super) fn dispatch(&mut self, n: usize, placement: &Placement, job: Arc<dyn Job>) {
        // Counted in before the first rank can wake, so that none of
        // them sizes its first wait from a stale count.
        let in_region = InRegion::enter(n);
        let latch = Arc::new(Latch {
            remaining: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
            caller: thread::current(),
        });
        for (rank, worker) in self.workers[..n].iter().enumerate() {
            let msg = Msg {
                job: Arc::clone(&job),
                rank,
                placement: placement.clone(),
                latch: Arc::clone(&latch),
            };
            worker.inbox.send(msg).expect("a parked worker is listening");
        }
        drop(job);
        while latch.remaining.load(Ordering::Acquire) != 0 {
            thread::park();
        }
        drop(in_region);
        if latch.panicked.load(Ordering::Relaxed) {
            if let Some(payload) = self.disband() {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Hang up on every worker, which ends its loop, and join it; the
    /// first panic payload found, if any.
    fn disband(&mut self) -> Option<Box<dyn Any + Send>> {
        // Every inbox is dropped before the first join.
        let handles: Vec<_> = self.workers.drain(..).map(|w| w.handle).collect();
        handles
            .into_iter()
            .fold(None, |first, handle| first.or(handle.join().err()))
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        // Nothing is mid-region here (dispatch holds `&mut self`), so the
        // joins are prompt and there is no payload to lose.
        self.disband();
    }
}

/// Resolve the thread→place assignment against a machine the size of
/// this host, so place resolution has something to bind against.
fn host_assignment(config: &RtConfig, n_threads: usize) -> Placement {
    let machine = MachineSpec::generic(1, wait::cpus(), 1);
    // Resolution panics when the place list exceeds the host; in that
    // case run unpinned (the honest fallback on small hosts).
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let assigned =
            ompvar_topology::assign_places(&machine, &config.places, config.bind, n_threads);
        (0..n_threads)
            .map(|rank| assigned.place_of(rank).cloned())
            .collect::<Option<Arc<[Place]>>>()
    }))
    .unwrap_or(None)
}

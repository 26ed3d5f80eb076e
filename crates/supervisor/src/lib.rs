//! Campaign supervision for long variability experiments.
//!
//! The paper's measurement campaigns run for hours across many
//! (runtime, schedule, affinity) cells; a single transient failure — an
//! injected-fault storm, a timeout, a panicking repetition — should cost
//! one retry, not the whole campaign, and a `kill -9` should cost at
//! most the unit in flight. This crate provides the pieces:
//!
//! - [`classify`]: maps every typed backend error ([`ompvar_sim::SimError`],
//!   [`ompvar_rt::RtError`], region validation) to *transient* (retry)
//!   or *permanent* (quarantine), with deliberately exhaustive matches
//!   so new error variants are a compile error here, not silent drift.
//! - [`backoff`]: seeded deterministic exponential backoff with jitter —
//!   a pure function of `(seed, attempt)`, so replays are bit-identical.
//! - [`checkpoint`]: the versioned `ompvar-checkpoint/1` JSONL manifest,
//!   flushed through [`fsio::atomic_write`] so readers never observe a
//!   torn file; `--resume` replays completed units from it.
//! - [`supervisor`]: the engine tying them together, emitting
//!   [`ompvar_obs`] attempt spans and supervisor instants so recovery
//!   history lands in the same Chrome traces as the runs themselves.
//! - [`executor`]: the fault-tolerant parallel layer — a pool of workers
//!   popping one shared unit queue, each journaling into its own shard
//!   manifest, with a per-attempt deadline (a hung attempt is reaped
//!   into the retry path), per-worker panic isolation, and a
//!   deterministic shard merge on resume.

#![warn(missing_docs)]

pub mod backoff;
pub mod chaos;
pub mod checkpoint;
pub mod classify;
pub mod executor;
pub mod fsio;
pub mod supervisor;

pub use backoff::{Backoff, BackoffCfg};
pub use chaos::{
    injected_error, injected_fault, install as install_chaos, ChaosAction, ChaosGuard, CrashPoint,
    FaultKind, FaultPlan as IoFaultPlan, InjectedFault, IoChaos, ProcChaos,
};
pub use checkpoint::{
    create_shards, existing_shards, resume_shards, resume_shards_lenient, shard_path,
    CheckpointError, Entry, Header, Manifest, RetryRecord, UnitStatus, SCHEMA,
};
pub use executor::{
    resolve_jobs, run_campaign, CampaignRun, ExecUnit, ExecutorConfig, Progress, UnitResult,
};
pub use classify::{classify, classify_io, classify_panic, classify_sim, Transience};
pub use fsio::atomic_write;
pub use supervisor::{Checkpointable, Outcome, Supervisor, SupervisorConfig, UnitError};

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_sim::rng::{child, offset, retry, Rng};

    /// Every seed derivation, pinned to absolute values. A formula
    /// change shows here even where no output depends on the seed
    /// (sterile cells give the same bytes under any seed).
    #[test]
    fn seed_derivations_are_pinned() {
        let retries: Vec<u64> = (0..4).map(|a| retry(1234, a)).collect();
        assert_eq!(
            retries,
            [
                0x0000_0000_0000_04d2, 0xe7eb_d26a_6938_4c9a,
                0xbfff_abf3_09b1_9927, 0xa71c_d573_bca4_2fef,
            ]
        );
        let children: Vec<u64> = (0..3).map(|i| child(7, "noise", i)).collect();
        assert_eq!(children, [0x6c09_2771_d207_68d6, 0xf23e_5ec8_ad4d_14c3, 0x5067_d403_2c93_90fc]);
        let offsets: Vec<u64> = (0..3).map(|i| offset(7, i)).collect();
        assert_eq!(offsets, [7, 8, 9]);

        let draws = |mut r: Rng| (0..4).map(|_| r.next_u64()).collect::<Vec<_>>();
        let root = Rng::new(42);
        assert_eq!(
            draws(root.clone()),
            [
                0xd076_4d4f_4476_689f, 0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c, 0xb37d_9f60_0cd8_35b8,
            ]
        );
        assert_eq!(
            draws(root.fork("socket-freq", 1)),
            [
                0xfc4e_0169_b0ae_e265, 0x2bac_ea3a_2d43_81b6,
                0xb968_5be0_49cf_7cac, 0xdb7f_e474_23b5_5638,
            ]
        );

        let backoff = Backoff::new(BackoffCfg::default(), child(42, "flaky", 0));
        assert_eq!(backoff.schedule(8), [22, 47, 103, 273, 306, 870, 514, 1204]);

        let chaos = ProcChaos::standard(7);
        let kills: String =
            (0..16).map(|u| if chaos.kills_at_boundary(u) { 'K' } else { '.' }).collect();
        assert_eq!(kills, "..........KK..K.");
        let actions: Vec<String> = (0..16)
            .map(|u| {
                (0..4)
                    .map(|a| match chaos.attempt_action(u, a) {
                        ChaosAction::Panic => 'P',
                        ChaosAction::Stall => 'S',
                        ChaosAction::None => '.',
                    })
                    .collect()
            })
            .collect();
        assert_eq!(
            actions,
            [
                "...P", ".PS.", ".P.S", "....", "SPP.", "...S", "..P.", "...S", "...S", "P...",
                ".P.P", "..P.", "S.SP", "P...", "..P.", "SPP."
            ]
        );

        let plan = IoFaultPlan::seeded(7, 250_000);
        let faults: Vec<(u64, FaultKind)> =
            (0..64).filter_map(|op| plan.fault_for(op, 100).map(|k| (op, k))).collect();
        assert_eq!(
            faults,
            [
                (0, FaultKind::ShortAppend { keep: 93 }),
                (2, FaultKind::TornWrite { keep: 76 }),
                (3, FaultKind::TornWrite { keep: 89 }),
                (8, FaultKind::Eio),
                (10, FaultKind::TornWrite { keep: 88 }),
                (13, FaultKind::DroppedRename),
                (20, FaultKind::Eio),
                (21, FaultKind::DroppedRename),
                (27, FaultKind::TornWrite { keep: 24 }),
                (28, FaultKind::ShortAppend { keep: 13 }),
                (30, FaultKind::DroppedRename),
                (31, FaultKind::ShortAppend { keep: 20 }),
                (41, FaultKind::Eio),
                (44, FaultKind::ShortAppend { keep: 28 }),
                (60, FaultKind::Eio),
                (62, FaultKind::DroppedRename),
            ]
        );
    }
}

//! Seeded generation of random well-formed [`RegionSpec`] programs.
//!
//! The generator covers the full `Construct` grammar — every schedule
//! kind with random chunking, nesting via `ParallelRegion`/`Repeat`,
//! `nowait` loops, ordered sections, tasks, and matched
//! `MarkBegin`/`MarkEnd` pairs — and promises
//! [`RegionSpec::validate`]-clean output as its contract: any program it
//! emits must be accepted by both backends.

use ompvar_analyze::DiagCode;
use ompvar_rt::region::{Clause, Construct, RedOp, RegionSpec, Schedule, VarDecl, WriteOp};
use ompvar_sim::rng::Rng;
use ompvar_sim::task::CorunClass;

/// Size/shape knobs of the generator. Defaults are tuned so one case
/// simulates and natively executes in well under a second.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum team size (threads drawn from `1..=max_threads`).
    pub max_threads: usize,
    /// Maximum constructs per block.
    pub max_block_len: usize,
    /// Maximum nesting depth of `ParallelRegion`/`Repeat`.
    pub max_depth: usize,
    /// Maximum `Repeat` count.
    pub max_repeat: u32,
    /// Maximum loop `total_iters`.
    pub max_iters: u64,
    /// Maximum body duration, µs of nominal time.
    pub max_body_us: f64,
    /// Maximum tasks per spawning thread.
    pub max_tasks: u32,
    /// Maximum declared scalar variables. `0` disables the data
    /// environment entirely *and* leaves the RNG draw sequence
    /// byte-identical to pre-data-environment versions, which is what
    /// keeps the golden determinism corpus stable. When positive, the
    /// generator declares `1..=max_vars` variables (variable 0 always
    /// `shared`, so reductions are always generable) and emits
    /// clause-annotated read/write/reduction constructs that are
    /// race-free by construction: shared accesses go through a per-var
    /// named lock, shared writes are commutative `Add`s, and every
    /// reduction is fenced by a preceding barrier.
    pub max_vars: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_threads: 4,
            max_block_len: 5,
            max_depth: 2,
            max_repeat: 3,
            max_iters: 24,
            max_body_us: 2.0,
            max_tasks: 3,
            max_vars: 0,
        }
    }
}

impl GenConfig {
    /// The default configuration with the data environment enabled:
    /// what the clause-annotated fuzz campaigns run.
    pub fn with_vars() -> Self {
        GenConfig {
            max_vars: 3,
            ..GenConfig::default()
        }
    }
}

/// The named-lock id protecting shared variable `v`'s generated
/// accesses. Ids 10+ are disjoint from the 0..4 range `gen_locked`
/// draws from, and each wrapper body holds only the one variable op, so
/// these locks can never participate in an acquisition-order cycle.
fn var_lock(v: u32) -> u32 {
    10 + v
}

/// Generate one random well-formed region from `seed`.
///
/// # Panics
///
/// Panics if the generated program fails [`RegionSpec::validate`] — that
/// is a bug in the generator, not in the caller.
pub fn generate(seed: u64, cfg: &GenConfig) -> RegionSpec {
    let mut rng = Rng::new(seed).fork("qcheck-gen", 0);
    let n_threads = 1 + rng.below(cfg.max_threads as u64) as usize;
    let vars = if cfg.max_vars == 0 {
        Vec::new()
    } else {
        let n_vars = 1 + rng.below(cfg.max_vars as u64) as u32;
        (0..n_vars)
            .map(|id| VarDecl {
                id,
                name: format!("v{id}"),
                // Variable 0 is always shared so a reduction target
                // always exists; the rest draw a clause.
                clause: if id == 0 {
                    Clause::Shared
                } else {
                    match rng.below(3) {
                        0 => Clause::Shared,
                        1 => Clause::Private,
                        _ => Clause::Firstprivate,
                    }
                },
                init: rng.below(201) as i64 - 100,
            })
            .collect()
    };
    let mut next_mark = 0u32;
    let constructs = gen_block(&mut rng, cfg, &vars, 0, &mut next_mark);
    let spec = RegionSpec {
        n_threads,
        vars,
        constructs,
    };
    if let Err(e) = spec.validate() {
        panic!("generator contract violated for seed {seed}: {e}\n{spec:#?}");
    }
    spec
}

/// Name of a construct's kind, for coverage tallies (the IR's own
/// stable kind name).
pub fn construct_kind(c: &Construct) -> &'static str {
    c.kind_name()
}

/// All kind names [`construct_kind`] can produce (coverage universe).
/// The last three are only generated when [`GenConfig::max_vars`] is
/// positive.
pub const ALL_KINDS: [&str; 19] = [
    "DelayUs",
    "Compute",
    "StreamBytes",
    "ParallelFor",
    "Barrier",
    "Critical",
    "LockUnlock",
    "Locked",
    "Atomic",
    "Single",
    "ParallelRegion",
    "Reduction",
    "Tasks",
    "MarkBegin",
    "MarkEnd",
    "Repeat",
    "VarRead",
    "VarWrite",
    "ReductionFor",
];

fn body_us(rng: &mut Rng, cfg: &GenConfig) -> f64 {
    rng.f64() * cfg.max_body_us
}

fn gen_schedule(rng: &mut Rng) -> Schedule {
    let chunk = 1 + rng.below(4);
    match rng.below(3) {
        0 => Schedule::Static { chunk },
        1 => Schedule::Dynamic { chunk },
        _ => Schedule::Guided { min_chunk: chunk },
    }
}

fn gen_block(
    rng: &mut Rng,
    cfg: &GenConfig,
    vars: &[VarDecl],
    depth: usize,
    next_mark: &mut u32,
) -> Vec<Construct> {
    let len = 1 + rng.below(cfg.max_block_len as u64) as usize;
    let mut out: Vec<Construct> = (0..len)
        .map(|_| gen_construct(rng, cfg, vars, depth, next_mark))
        .collect();
    // Sometimes wrap a random sub-range of the block in a fresh matched
    // MarkBegin/MarkEnd pair. Ids are globally unique so every pair's
    // intervals stay independent; the count is capped to keep reports
    // readable.
    if rng.below(3) == 0 && *next_mark < 8 {
        let id = *next_mark;
        *next_mark += 1;
        let a = rng.below(out.len() as u64 + 1) as usize;
        let b = rng.below(out.len() as u64 + 1) as usize;
        let (lo, hi) = (a.min(b), a.max(b));
        out.insert(hi, Construct::MarkEnd(id));
        out.insert(lo, Construct::MarkBegin(id));
    }
    out
}

fn gen_construct(
    rng: &mut Rng,
    cfg: &GenConfig,
    vars: &[VarDecl],
    depth: usize,
    next_mark: &mut u32,
) -> Construct {
    // The dispatch range widens only when variables exist, so var-free
    // configurations replay the exact historical draw sequence.
    let pick = if vars.is_empty() {
        rng.below(16)
    } else {
        rng.below(19)
    };
    match pick {
        0 => Construct::DelayUs(body_us(rng, cfg)),
        1 => Construct::Compute {
            cycles: rng.f64() * 4000.0,
            class: match rng.below(3) {
                0 => CorunClass::Latency,
                1 => CorunClass::Mixed,
                _ => CorunClass::Throughput,
            },
        },
        2 => Construct::StreamBytes((64 + rng.below(1 << 14)) as f64),
        3..=5 => Construct::ParallelFor {
            schedule: gen_schedule(rng),
            total_iters: 1 + rng.below(cfg.max_iters),
            body_us: body_us(rng, cfg) * 0.5,
            ordered_us: (rng.below(4) == 0).then(|| rng.f64() * 0.5),
            nowait: rng.below(4) == 0,
        },
        6 => Construct::Barrier,
        7 => Construct::Critical {
            body_us: body_us(rng, cfg) * 0.5,
        },
        8 => Construct::LockUnlock {
            body_us: body_us(rng, cfg) * 0.5,
        },
        9 => Construct::Atomic,
        10 => Construct::Single {
            body_us: body_us(rng, cfg) * 0.5,
        },
        11 => Construct::Reduction {
            body_us: body_us(rng, cfg) * 0.5,
        },
        12 => Construct::Tasks {
            per_spawner: 1 + rng.below(u64::from(cfg.max_tasks)) as u32,
            body_us: body_us(rng, cfg) * 0.5,
            master_only: rng.below(2) == 0,
        },
        13 if depth < cfg.max_depth => Construct::ParallelRegion {
            body: gen_block(rng, cfg, vars, depth + 1, next_mark),
        },
        14 if depth < cfg.max_depth => {
            let count = 1 + rng.below(u64::from(cfg.max_repeat)) as u32;
            let mut body = gen_block(rng, cfg, vars, depth + 1, next_mark);
            // Soundness rule: re-entering a nowait loop needs a
            // full-team rendezvous somewhere in the repeated body. Ask
            // the validator itself so generator and contract never
            // drift apart.
            let probe = RegionSpec {
                n_threads: 1,
                vars: Vec::new(),
                constructs: vec![Construct::Repeat {
                    count,
                    body: body.clone(),
                }],
            };
            if probe.validate().is_err_and(|d| d.code == DiagCode::RepeatedNowaitLoop) {
                body.push(Construct::Barrier);
            }
            Construct::Repeat { count, body }
        }
        15 if depth < cfg.max_depth => gen_locked(rng, cfg, &mut Vec::new()),
        16 if !vars.is_empty() => {
            let d = &vars[rng.below(vars.len() as u64) as usize];
            let read = Construct::VarRead { var: d.id };
            if d.clause == Clause::Shared {
                // The per-var lock serializes this read against every
                // generated access to the same variable, so no nowait
                // window can turn the pair into an OMPV302.
                Construct::Locked {
                    lock: var_lock(d.id),
                    body: vec![read],
                }
            } else {
                read
            }
        }
        17 if !vars.is_empty() => {
            let d = &vars[rng.below(vars.len() as u64) as usize];
            if d.clause == Clause::Shared {
                // Shared writes are commutative Adds under the per-var
                // lock: any interleaving yields the same final value,
                // the precondition of the value-equality oracle.
                Construct::Locked {
                    lock: var_lock(d.id),
                    body: vec![Construct::VarWrite {
                        var: d.id,
                        op: WriteOp::Add(1 + rng.below(7) as i64),
                    }],
                }
            } else {
                // Per-thread copies race nothing: any op goes.
                Construct::VarWrite {
                    var: d.id,
                    op: if rng.below(2) == 0 {
                        WriteOp::Set(rng.below(100) as i64)
                    } else {
                        WriteOp::Add(1 + rng.below(7) as i64)
                    },
                }
            }
        }
        18 if !vars.is_empty() => {
            // Variable 0 is shared by construction. The barrier closes
            // every open conflict window so the reduction's combines
            // cannot race a straggling access (OMPV303); count-1 Repeat
            // is the IR's grouping idiom.
            let red = match rng.below(3) {
                0 => RedOp::Sum,
                1 => RedOp::Max,
                _ => RedOp::Min,
            };
            Construct::Repeat {
                count: 1,
                body: vec![
                    Construct::Barrier,
                    Construct::ReductionFor {
                        var: 0,
                        red,
                        schedule: gen_schedule(rng),
                        total_iters: 1 + rng.below(cfg.max_iters),
                        body_us: body_us(rng, cfg) * 0.5,
                        delta: rng.below(20) as i64 - 10,
                    },
                ],
            }
        }
        // At max depth the nesting picks fall back to plain delays.
        _ => Construct::DelayUs(body_us(rng, cfg)),
    }
}

/// Generate a named-lock scope. Bodies are cheap leaf constructs plus
/// optional further nesting over *distinct* lock ids, so the generator
/// never emits the analyzer's `Error`-severity lock hazards
/// (self-nesting, team sync under a held lock). `Warn`-level
/// acquisition-order cycles across sibling scopes *are* possible — those
/// programs validate, carry a may-deadlock verdict, and exercise the
/// soundness oracle.
fn gen_locked(rng: &mut Rng, cfg: &GenConfig, held: &mut Vec<u32>) -> Construct {
    // Four lock ids and at most three held at once, so a free id exists.
    let lock = loop {
        let l = rng.below(4) as u32;
        if !held.contains(&l) {
            break l;
        }
    };
    held.push(lock);
    let len = 1 + rng.below(2) as usize;
    let mut body: Vec<Construct> = (0..len)
        .map(|_| match rng.below(5) {
            0 => Construct::DelayUs(body_us(rng, cfg) * 0.25),
            1 => Construct::Atomic,
            2 => Construct::Critical {
                body_us: body_us(rng, cfg) * 0.25,
            },
            3 => Construct::LockUnlock {
                body_us: body_us(rng, cfg) * 0.25,
            },
            _ => Construct::Compute {
                cycles: rng.f64() * 1000.0,
                class: CorunClass::Latency,
            },
        })
        .collect();
    if held.len() < 3 && rng.below(3) == 0 {
        body.push(gen_locked(rng, cfg, held));
    }
    held.pop();
    Construct::Locked { lock, body }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generated_programs_are_valid_and_deterministic() {
        for cfg in [GenConfig::default(), GenConfig::with_vars()] {
            for seed in 0..200 {
                let a = generate(seed, &cfg); // panics internally if invalid
                let b = generate(seed, &cfg);
                assert_eq!(a, b, "seed {seed} not deterministic");
            }
        }
    }

    /// Break a valid program in a seed-chosen way that trips one or more
    /// of the analyzer's error-capable passes, often at several spans.
    fn corrupt(mut region: RegionSpec, seed: u64) -> RegionSpec {
        let mut body = std::mem::take(&mut region.constructs);
        region.constructs = match seed % 4 {
            // Team syncs under a held lock, self-nesting where lock 0 is used.
            0 => {
                body.push(Construct::Barrier);
                vec![Construct::Locked { lock: 0, body }]
            }
            // A dangling mark up front, an undeclared variable behind.
            1 => {
                let mut cs = vec![Construct::MarkEnd(77)];
                cs.extend(body);
                cs.push(Construct::VarRead { var: u32::MAX });
                cs
            }
            // Bad work and a zero-count repeat around everything.
            2 => vec![Construct::Repeat { count: 0, body }, Construct::DelayUs(f64::NAN)],
            _ => {
                region.n_threads = 0;
                body
            }
        };
        region
    }

    #[test]
    fn validate_is_the_full_pipelines_first_error_on_generated_programs() {
        // `validate()` runs only the passes that can reject; on 10 000
        // generator programs (all valid, by contract) and a corrupted
        // twin of each it must still be `analyze().first_error()`.
        let mut rejected = 0;
        for cfg in [GenConfig::default(), GenConfig::with_vars()] {
            for seed in 0..5000 {
                let valid = generate(seed, &cfg);
                for region in [corrupt(valid.clone(), seed), valid] {
                    let analysis = ompvar_analyze::analyze(&region);
                    let want = analysis.first_error();
                    assert_eq!(region.validate().err().as_deref(), want, "seed {seed}: {}", analysis.render());
                    rejected += usize::from(want.is_some());
                }
            }
        }
        assert_eq!(rejected, 10_000, "every corrupted twin is rejected, no original is");
    }

    fn tally(cs: &[Construct], seen: &mut BTreeSet<&'static str>) {
        for c in cs {
            seen.insert(construct_kind(c));
            match c {
                Construct::ParallelRegion { body }
                | Construct::Repeat { body, .. }
                | Construct::Locked { body, .. } => tally(body, seen),
                _ => {}
            }
        }
    }

    #[test]
    fn generator_covers_every_construct_kind() {
        let cfg = GenConfig::with_vars();
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        for seed in 0..300 {
            tally(&generate(seed, &cfg).constructs, &mut seen);
        }
        for kind in ALL_KINDS {
            assert!(seen.contains(kind), "kind {kind} never generated");
        }
    }

    #[test]
    fn var_free_config_never_generates_var_constructs() {
        let cfg = GenConfig::default();
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        for seed in 0..300 {
            let spec = generate(seed, &cfg);
            assert!(spec.vars.is_empty(), "seed {seed} declared vars");
            tally(&spec.constructs, &mut seen);
        }
        for kind in ["VarRead", "VarWrite", "ReductionFor"] {
            assert!(!seen.contains(kind), "kind {kind} generated without vars");
        }
    }

    #[test]
    fn clause_annotated_programs_are_race_free_by_construction() {
        let cfg = GenConfig::with_vars();
        for seed in 0..300 {
            let spec = generate(seed, &cfg);
            let a = ompvar_analyze::passes::analyze(&spec);
            assert!(
                !a.may_race(),
                "seed {seed} generated a racy program:\n{}\n{spec:#?}",
                a.render()
            );
        }
    }

    #[test]
    fn team_sizes_span_the_range() {
        let cfg = GenConfig::default();
        let sizes: BTreeSet<usize> =
            (0..100).map(|s| generate(s, &cfg).n_threads).collect();
        assert!(sizes.len() >= 3, "team sizes too uniform: {sizes:?}");
        assert!(sizes.iter().all(|&n| (1..=cfg.max_threads).contains(&n)));
    }
}

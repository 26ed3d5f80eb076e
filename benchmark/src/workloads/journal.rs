//! `journal_campaign` and `journal_resume`: the supervisor, write side
//! and read side.
//!
//! A campaign of 4 096 cheap units (one 4-thread sterile `dynamic,1`
//! 32-iteration simulated loop each, ≈ 12 µs) goes through the
//! work-stealing executor at `--jobs 2`. `journal_campaign` times the
//! write phase — `create_shards` + `run_campaign` into a fresh
//! directory; `journal_resume` times the read phase — `resume_shards` +
//! `run_campaign` replaying every entry. `supervisor` (executor,
//! checkpoint, fsio) and `obs::json` do the work, the engine almost
//! none. The two sit side by side so a gain on one side that costs the
//! other shows. 4 096 units is the size of the paper's full grid once
//! every run × config cell is a unit.

use super::{report_rates, trace_overhead, Ctx, SimUse, Workload};
use crate::metrics::{m, RunResult};
use crate::proc::fresh_dir;
use crate::span::Recorder;
use crate::stats::{loglog_slope, median};
use ompvar_obs::json::{self, Value};
use ompvar_qcheck::oracle;
use ompvar_rt::region::{Construct, RegionSpec, Schedule};
use ompvar_rt::{RegionResult, RtError, SimRuntime};
use ompvar_supervisor::{
    atomic_write, create_shards, resume_shards, run_campaign, CampaignRun, Checkpointable, Entry,
    ExecUnit, ExecutorConfig, Header, Manifest, Outcome, SupervisorConfig, UnitError, UnitStatus,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Units per campaign.
const UNITS: usize = 4096;

/// Executor workers: the sandbox has two cores.
const JOBS: usize = 2;

/// Manifest base name.
const BASE: &str = "journal";

/// Journals `journal_resume` writes in set-up and then resumes in turn.
const JOURNALS: usize = 4;

/// Rounds per probe in the traced runs; each probe reports its median.
const TRACED_ROUNDS: usize = 8;

/// A unit's checkpointed result: the simulated wall time, µs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct UnitValue(f64);

impl Checkpointable for UnitValue {
    fn to_ckpt(&self) -> Value {
        Value::Num(self.0)
    }
    fn from_ckpt(v: &Value) -> Option<UnitValue> {
        v.as_f64().map(UnitValue)
    }
}

/// A campaign's units, what each must yield, and its journal header.
pub struct Campaign {
    rt: Arc<SimRuntime>,
    region: Arc<RegionSpec>,
    seeds: Vec<u64>,
    units: Vec<ExecUnit<UnitValue>>,
    expected: Vec<f64>,
    header: Header,
}

fn executor(jobs: usize, seed: u64) -> ExecutorConfig {
    ExecutorConfig {
        jobs,
        unit_timeout: None,
        supervisor: SupervisorConfig {
            seed,
            sleep: false,
            ..SupervisorConfig::default()
        },
        chaos: None,
    }
}

impl Campaign {
    fn build(ctx: &Ctx, n_units: usize) -> Result<Campaign, String> {
        let rt = Arc::new(oracle::sim_runtime(4).with_tracing(false));
        let body = Construct::ParallelFor {
            schedule: Schedule::Dynamic { chunk: 1 },
            total_iters: 32,
            body_us: 1.0,
            ordered_us: None,
            nowait: false,
        };
        let region =
            Arc::new(RegionSpec::new(4, vec![body]).map_err(|e| format!("unit region: {e}"))?);
        let seeds: Vec<u64> = (0..n_units)
            .map(|i| ctx.seed.wrapping_add(i as u64))
            .collect();
        let names: Vec<String> = (0..n_units).map(|i| format!("unit-{i:05}")).collect();
        let units = names
            .iter()
            .zip(&seeds)
            .map(|(name, &seed)| {
                let (rt, region) = (Arc::clone(&rt), Arc::clone(&region));
                ExecUnit::new(name.clone(), move |_attempt| {
                    rt.run(&region, seed)
                        .map(|r| UnitValue(r.wall_us))
                        .map_err(|e| UnitError::from_rt(&e))
                })
            })
            .collect();
        let header = Header {
            seed: ctx.seed,
            fast: ctx.smoke,
            targets: names,
        };
        let mut c = Campaign {
            rt,
            region,
            seeds,
            units,
            expected: Vec::new(),
            header,
        };
        c.expected = (0..n_units)
            .map(|i| {
                c.body(i)
                    .map(|r| r.wall_us)
                    .map_err(|e| format!("unit {i}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(c)
    }

    /// Unit `i`'s work, without the executor around it.
    fn body(&self, i: usize) -> Result<RegionResult, RtError> {
        self.rt.run(&self.region, self.seeds[i])
    }

    /// Write phase: a fresh sharded journal and the whole campaign
    /// through the executor. Returns the seconds it took.
    fn write(&self, dir: &Path, jobs: usize) -> Result<(f64, CampaignRun<UnitValue>), String> {
        if dir.exists() {
            fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
        let t0 = Instant::now();
        let manifests = create_shards(dir, BASE, &self.header, jobs)
            .map_err(|e| format!("create_shards: {e}"))?;
        let run = run_campaign(
            &executor(jobs, self.header.seed),
            &self.units,
            Some(manifests),
            &[],
            None,
            None,
        );
        Ok((t0.elapsed().as_secs_f64(), run))
    }

    /// Read phase: merge the shards and replay every journaled unit.
    fn resume(&self, dir: &Path) -> Result<(f64, CampaignRun<UnitValue>), String> {
        let t0 = Instant::now();
        let (manifests, merged) = resume_shards(dir, BASE, &self.header, JOBS)
            .map_err(|e| format!("resume_shards: {e}"))?;
        let run = run_campaign(
            &executor(JOBS, self.header.seed),
            &self.units,
            Some(manifests),
            &merged,
            None,
            None,
        );
        Ok((t0.elapsed().as_secs_f64(), run))
    }

    /// Units of `run` that are missing, quarantined, differ from the
    /// expected value in any bit, or came from the wrong place
    /// (`replayed`: from the journal; otherwise freshly run).
    fn mismatches(&self, run: &CampaignRun<UnitValue>, replayed: bool) -> u64 {
        let mut good = 0;
        for r in &run.results {
            if let Outcome::Completed {
                value,
                from_checkpoint,
                ..
            } = &r.outcome
            {
                let same = self
                    .expected
                    .get(r.index)
                    .is_some_and(|e| e.to_bits() == value.0.to_bits());
                good += u64::from(same && *from_checkpoint == replayed);
            }
        }
        self.units.len() as u64 - good
    }

    /// Every unit body once, directly: the engine's share of a unit.
    fn bodies(&self, rec: &mut Recorder, sim: &mut SimUse) -> Result<(), String> {
        for i in 0..self.units.len() {
            let span = rec.open("rt.simrt.run");
            let t0 = Instant::now();
            let r = self.body(i).map_err(|e| format!("unit {i}: {e}"))?;
            let host_s = t0.elapsed().as_secs_f64();
            let events = r.counters.map_or(0, |c| c.events);
            rec.close(span, events);
            sim.record(events, r.wall_us / 1e6, host_s);
        }
        Ok(())
    }

    /// The simulator metrics and the tracing overhead, from the unit
    /// bodies run with spans off and on. One pass takes tens of
    /// milliseconds, so the two alternate and each side's median counts.
    /// Returns the µs one body takes.
    fn body_metrics(&self, rec: &mut Recorder, result: &mut RunResult) -> Result<f64, String> {
        let mut sim = SimUse::default();
        let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
        for pass in 0..TRACED_ROUNDS {
            let span = rec.open("trace.baseline");
            let t0 = Instant::now();
            self.bodies(&mut Recorder::new("journal", false), &mut SimUse::default())?;
            untraced_s.push(t0.elapsed().as_secs_f64());
            rec.close(span, self.units.len() as u64);
            let mut scratch = SimUse::default();
            let t0 = Instant::now();
            self.bodies(rec, if pass == 0 { &mut sim } else { &mut scratch })?;
            traced_s.push(t0.elapsed().as_secs_f64());
        }
        let (untraced_s, traced_s) = (median(&untraced_s), median(&traced_s));
        result.metrics.push(trace_overhead(untraced_s, traced_s));
        result.metrics.extend(sim.metrics());
        Ok(sim.host_total_s() * 1e6 / self.units.len() as f64)
    }
}

/// Median seconds of `f` over the traced rounds, each inside a span.
fn timed_rounds(
    rec: &mut Recorder,
    name: &'static str,
    count: u64,
    mut f: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(TRACED_ROUNDS);
    for _ in 0..TRACED_ROUNDS {
        let span = rec.open(name);
        secs.push(f()?);
        rec.close(span, count);
    }
    Ok(median(&secs))
}

/// The write-side workload.
pub struct JournalCampaign;

/// Inputs of `journal_campaign`.
pub struct WriteInput {
    campaign: Campaign,
    dir: PathBuf,
}

impl Workload for JournalCampaign {
    const NAME: &'static str = "journal_campaign";
    type Input = WriteInput;

    fn setup(ctx: &Ctx) -> Result<WriteInput, String> {
        let dir = ctx.tmp.join(Self::NAME);
        fresh_dir(&dir)?;
        Ok(WriteInput {
            campaign: Campaign::build(ctx, ctx.sized(UNITS))?,
            dir,
        })
    }

    fn measure(ctx: &Ctx, input: &mut WriteInput) -> Result<RunResult, String> {
        let c = &input.campaign;
        let dir = input.dir.join("round");
        let mut result = RunResult::default();
        let mut rates = Vec::new();
        let t0 = Instant::now();
        while rates.is_empty() || t0.elapsed().as_secs_f64() < ctx.seconds {
            let (write_s, run) = c.write(&dir, JOBS)?;
            rates.push(c.units.len() as f64 / write_s);
            // Untimed: the journal must read back to the same values.
            let (_, resumed) = c.resume(&dir)?;
            result.attempted += 2 * c.units.len() as u64;
            result.failed += c.mismatches(&run, false) + c.mismatches(&resumed, true);
        }
        report_rates(&mut result, "journal_units_per_s", &rates);
        Ok(result)
    }

    fn traced(_ctx: &Ctx, input: &mut WriteInput, rec: &mut Recorder) -> Result<RunResult, String> {
        let c = &input.campaign;
        let n = c.units.len();
        let per_unit_us = |secs: f64| secs * 1e6 / n as f64;
        let mut result = RunResult::default();
        let check = |result: &mut RunResult, run: &CampaignRun<UnitValue>| {
            result.attempted += n as u64;
            result.failed += c.mismatches(run, false);
        };

        let body_us = c.body_metrics(rec, &mut result)?;
        result.metrics.push(m("supervisor.unit_body_us", body_us));

        let plain_s = timed_rounds(rec, "supervisor.exec.nojournal", n as u64, || {
            let t0 = Instant::now();
            let run = run_campaign(
                &executor(JOBS, c.header.seed),
                &c.units,
                None,
                &[],
                None,
                None,
            );
            let secs = t0.elapsed().as_secs_f64();
            check(&mut result, &run);
            Ok(secs)
        })?;
        let dir = input.dir.join("traced");
        let mut last = None;
        let journal_s = timed_rounds(rec, "supervisor.journal", n as u64, || {
            let (secs, run) = c.write(&dir, JOBS)?;
            check(&mut result, &run);
            last = Some(run);
            Ok(secs)
        })?;
        let run = last.expect("TRACED_ROUNDS > 0");
        let journal_bytes: u64 = fs::read_dir(&dir)
            .map_err(|e| format!("list {}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .map(|md| md.len())
            .sum();
        let jobs1_s = timed_rounds(rec, "supervisor.journal.jobs1", n as u64, || {
            let (secs, run) = c.write(&dir, 1)?;
            check(&mut result, &run);
            Ok(secs)
        })?;
        result.metrics.push(m(
            "supervisor.exec.nojournal_us_per_unit",
            per_unit_us(plain_s),
        ));
        result
            .metrics
            .push(m("supervisor.journal.us_per_unit", per_unit_us(journal_s)));
        result.metrics.push(m(
            "supervisor.journal_cost_share",
            (journal_s - plain_s) / journal_s,
        ));
        result.metrics.push(m(
            "supervisor.checkpoint.bytes_per_unit",
            journal_bytes as f64 / n as f64,
        ));
        result
            .metrics
            .push(m("supervisor.exec.jobs2_speedup", jobs1_s / journal_s));
        result
            .metrics
            .push(m("supervisor.exec.steals", run.steals as f64));

        let span = rec.open("obs.chrome.export");
        let t0 = Instant::now();
        let doc = ompvar_obs::chrome_trace_lanes(&run.trace, &[], "journal_campaign", "worker");
        result
            .metrics
            .push(m("obs.chrome.export_ms", t0.elapsed().as_secs_f64() * 1e3));
        rec.close(span, doc.len() as u64);
        result.metrics.push(m("obs.chrome.bytes", doc.len() as f64));

        // The journal alone: one manifest, one append per unit.
        let append_s = timed_rounds(rec, "supervisor.checkpoint.append", n as u64, || {
            let path = dir.join("append.jsonl");
            let t0 = Instant::now();
            let mut manifest = Manifest::create(&path, c.header.clone())
                .map_err(|e| format!("Manifest::create: {e}"))?;
            for (name, value) in c.header.targets.iter().zip(&c.expected) {
                let entry = Entry {
                    name: name.clone(),
                    status: UnitStatus::Ok,
                    attempts: 1,
                    retries: Vec::new(),
                    payload: Some(UnitValue(*value).to_ckpt()),
                };
                manifest
                    .append(entry)
                    .map_err(|e| format!("Manifest::append: {e}"))?;
            }
            Ok(t0.elapsed().as_secs_f64())
        })?;
        result
            .metrics
            .push(m("supervisor.checkpoint.append_us", per_unit_us(append_s)));

        const WRITES: usize = 256;
        let block = vec![b'x'; 4096];
        let atomic_s = timed_rounds(rec, "supervisor.fsio.atomic_write", WRITES as u64, || {
            let t0 = Instant::now();
            for i in 0..WRITES {
                atomic_write(&dir.join(format!("block-{}", i % 16)), &block)
                    .map_err(|e| format!("atomic_write: {e}"))?;
            }
            Ok(t0.elapsed().as_secs_f64())
        })?;
        result.metrics.push(m(
            "supervisor.fsio.atomic_write_us",
            atomic_s * 1e6 / WRITES as f64,
        ));
        Ok(result)
    }
}

/// The read-side workload.
pub struct JournalResume;

/// Inputs of `journal_resume`: the campaign and its journals on disk.
pub struct ReadInput {
    campaign: Campaign,
    dir: PathBuf,
    journals: Vec<PathBuf>,
}

/// Write `c`'s journal into `dir`, every unit checked.
fn write_checked(c: &Campaign, dir: &Path) -> Result<(), String> {
    let (_, run) = c.write(dir, JOBS)?;
    match c.mismatches(&run, false) {
        0 => Ok(()),
        bad => Err(format!(
            "{bad} unit(s) wrong while writing the journal {}",
            dir.display()
        )),
    }
}

impl Workload for JournalResume {
    const NAME: &'static str = "journal_resume";
    type Input = ReadInput;

    /// The campaign, and the journals to resume: written here, so the
    /// write phase's cost shows as `setup_s`.
    fn setup(ctx: &Ctx) -> Result<ReadInput, String> {
        let dir = ctx.tmp.join(Self::NAME);
        fresh_dir(&dir)?;
        let campaign = Campaign::build(ctx, ctx.sized(UNITS))?;
        let journals: Vec<PathBuf> = (0..JOURNALS)
            .map(|j| dir.join(format!("journal{j}")))
            .collect();
        for j in &journals {
            write_checked(&campaign, j)?;
        }
        Ok(ReadInput {
            campaign,
            dir,
            journals,
        })
    }

    fn measure(ctx: &Ctx, input: &mut ReadInput) -> Result<RunResult, String> {
        let c = &input.campaign;
        let mut result = RunResult::default();
        let mut rates = Vec::new();
        let t0 = Instant::now();
        // A complete journal resumes without a write, so the same
        // journals serve every round.
        while rates.is_empty() || t0.elapsed().as_secs_f64() < ctx.seconds {
            let (read_s, resumed) = c.resume(&input.journals[rates.len() % JOURNALS])?;
            rates.push(c.units.len() as f64 / read_s);
            result.attempted += c.units.len() as u64;
            result.failed += c.mismatches(&resumed, true);
        }
        report_rates(&mut result, "resume_units_per_s", &rates);
        Ok(result)
    }

    fn traced(ctx: &Ctx, input: &mut ReadInput, rec: &mut Recorder) -> Result<RunResult, String> {
        let c = &input.campaign;
        let n = c.units.len();
        let journal = &input.journals[0];
        let mut result = RunResult::default();
        c.body_metrics(rec, &mut result)?;

        // The two halves of a resume, each alone.
        let merge_s = timed_rounds(rec, "supervisor.checkpoint.resume", n as u64, || {
            let t0 = Instant::now();
            let (_, merged) = resume_shards(journal, BASE, &c.header, JOBS)
                .map_err(|e| format!("resume_shards: {e}"))?;
            let secs = t0.elapsed().as_secs_f64();
            result.attempted += n as u64;
            result.failed += (n - merged.len().min(n)) as u64;
            Ok(secs)
        })?;
        result.metrics.push(m(
            "supervisor.checkpoint.resume_us_per_entry",
            merge_s * 1e6 / n as f64,
        ));
        let (_, merged) = resume_shards(journal, BASE, &c.header, JOBS)
            .map_err(|e| format!("resume_shards: {e}"))?;
        let replay_s = timed_rounds(rec, "supervisor.exec.replay", n as u64, || {
            let t0 = Instant::now();
            let run = run_campaign(
                &executor(JOBS, c.header.seed),
                &c.units,
                None,
                &merged,
                None,
                None,
            );
            let secs = t0.elapsed().as_secs_f64();
            result.attempted += n as u64;
            result.failed += c.mismatches(&run, true);
            Ok(secs)
        })?;
        result.metrics.push(m(
            "supervisor.exec.replay_us_per_unit",
            replay_s * 1e6 / n as f64,
        ));

        // The manifest text through the parser resume uses.
        let mut text = String::new();
        for e in fs::read_dir(journal).map_err(|e| format!("list {}: {e}", journal.display()))? {
            let path = e
                .map_err(|e| format!("list {}: {e}", journal.display()))?
                .path();
            text.push_str(
                &fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?,
            );
        }
        let parse_s = timed_rounds(rec, "obs.json.parse", text.len() as u64, || {
            let t0 = Instant::now();
            for line in text.lines() {
                json::parse(line).map_err(|e| format!("manifest line: {e}"))?;
            }
            Ok(t0.elapsed().as_secs_f64())
        })?;
        result.metrics.push(m(
            "obs.json.parse_mb_per_s",
            text.len() as f64 / 1e6 / parse_s,
        ));

        // How resume time grows with the campaign: 1 is linear.
        let mut points = Vec::new();
        for units in [UNITS / 4, UNITS, 2 * UNITS].map(|u| ctx.sized(u)) {
            let span = rec.open("supervisor.resume.scaling.inputs");
            let scaled = Campaign::build(ctx, units)?;
            let dir = input.dir.join("scaling");
            write_checked(&scaled, &dir)?;
            rec.close(span, units as u64);
            let secs = timed_rounds(rec, "supervisor.resume.scaling", units as u64, || {
                let (secs, run) = scaled.resume(&dir)?;
                result.attempted += units as u64;
                result.failed += scaled.mismatches(&run, true);
                Ok(secs)
            })?;
            points.push((units as f64, secs));
        }
        result
            .metrics
            .push(m("supervisor.resume_scaling_exp", loglog_slope(&points)));
        Ok(result)
    }
}

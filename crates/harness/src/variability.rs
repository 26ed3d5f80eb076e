//! The `variability` experiment: causal variability attribution +
//! streaming cross-run analytics (`ompvar-variability/1`).
//!
//! Where the paper can only *correlate* run-to-run variability with
//! configuration knobs, the simulator's attribution ledger gives the
//! causal decomposition: every cell below runs with attribution enabled
//! and every nanosecond of wall time comes back charged to a typed
//! [`AttrSource`] (or to useful compute). The experiment sweeps a
//! construct × interference grid on pinned Vera threads:
//!
//! * workloads: `sched` (schedbench `dynamic,1` — the paper's most
//!   schedule-sensitive loop) and `sync` (syncbench `barrier` — the
//!   noise-amplifying construct);
//! * configurations: `sterile` (no interference — the control),
//!   `noise` (a machine-wide kernel-noise storm), `freq_cap` (a
//!   fault-injected frequency cap) and `stall` (a one-shot stall of
//!   rank 1, the classic straggler).
//!
//! The experiment is a [`Grid`]: every `(configuration, run)` pair is
//! one cell `variability/<workload>/<config>/<i>` of the sweep's one
//! journaled campaign, so `--jobs N` shards the measurement matrix and
//! `--resume` replays it — there is no campaign, journal or payload
//! type of this experiment's own. A cell's sample is its run collapsed
//! to numbers ([`measure`]); the fold feeds them into **streaming
//! mergeable statistics** — [`QuantileSketch`] + [`VarAccum`], whose
//! merges are bit-exact associative — in cell order, which makes the
//! report byte-identical at any worker count and across
//! kill-and-resume, and writes the artifacts:
//!
//! * `<out>/variability.json` — the `ompvar-variability/1` document:
//!   per-cell wall-time dispersion (mean/CoV/quantiles), per-source
//!   attribution shares (summing to 1.0), and the top variance sources;
//! * `<out>/variability.trace.json` — a Chrome trace of one attributed
//!   `sched/noise` run with the per-source cumulative counter tracks
//!   (`attr_cum_ms`), the "where did my time go" timeline view.

use crate::claim::{bound, qty, Claim};
use crate::common::{Check, ExpOptions, ExpReport, Platform};
use crate::grid::{Grid, Plan, Sample};
use ompvar_core::Table;
use ompvar_bench_epcc::{schedbench, syncbench, EpccConfig, SyncConstruct};
use ompvar_obs::json::Value;
use ompvar_obs::{AttrSource, QuantileSketch, RunAttribution, ThreadAttribution, VarAccum, N_SOURCES};
use ompvar_rt::region::{RegionSpec, Schedule};
use ompvar_sim::fault::FaultPlan;
use ompvar_sim::rng::{child, retry};
use ompvar_sim::time::{SEC, US};
use ompvar_supervisor::{atomic_write, UnitError};
use std::sync::Arc;

const PLATFORM: Platform = Platform::Vera;
const THREADS: usize = 8;
/// Every fault fires once the region is warmed up but far from done.
const AT: ompvar_sim::time::Time = 50 * US;

/// Workload axis of the grid (the "construct" dimension).
const WORKLOADS: [&str; 2] = ["sched", "sync"];
/// Interference axis of the grid.
const CONFIGS: [&str; 4] = ["sterile", "noise", "freq_cap", "stall"];

/// Independent runs per cell (ISSUE: fast 6 / full 16).
fn runs_per_cell(opts: &ExpOptions) -> usize {
    if opts.fast {
        6
    } else {
        16
    }
}

/// The schedbench workload: `dynamic,1`, the paper's most
/// schedule-sensitive configuration.
fn sched_region(opts: &ExpOptions) -> RegionSpec {
    let mut cfg = EpccConfig::schedbench_default().fast(if opts.fast { 4 } else { 10 });
    cfg.iters_per_thr = if opts.fast { 128 } else { 512 };
    schedbench::region(&cfg, Schedule::Dynamic { chunk: 1 }, THREADS)
}

/// The syncbench barrier workload: the construct that amplifies a delay
/// on one thread into wait time on all of them.
fn sync_region(opts: &ExpOptions) -> RegionSpec {
    let cfg = EpccConfig::syncbench_default().fast(if opts.fast { 4 } else { 10 });
    syncbench::region_with_inner(
        &cfg,
        SyncConstruct::Barrier,
        THREADS,
        if opts.fast { 16 } else { 64 },
    )
}

fn region_for(workload: &str, opts: &ExpOptions) -> RegionSpec {
    match workload {
        "sched" => sched_region(opts),
        "sync" => sync_region(opts),
        other => unreachable!("unknown workload {other:?}"),
    }
}

/// The interference plan of one configuration. Everything else about the
/// runtime is sterile, so each cell isolates exactly one noise family.
fn plan_for(config: &str) -> FaultPlan {
    match config {
        "noise" => FaultPlan::new().noise_storm(AT, SEC, 20 * US, 50 * US, 0.3),
        "freq_cap" => FaultPlan::new().freq_cap(AT, None, 1.2, None),
        "stall" => FaultPlan::new().task_stall(AT, Some(1), 2e5),
        _ => FaultPlan::new(),
    }
}

/// One attributed measurement run of a cell, collapsed to what the
/// streaming aggregation needs — and that is the cell's sample, so a
/// resumed campaign replays the exact numbers: `[wall_ns, useful_ns,
/// conserved (0/1), charge per source in ledger order…, rep_ns…]`, all
/// in ns, the wall and repetition times rounded (whole numbers far
/// below 2⁵³, exact as `f64`). [`CellAgg::fold`] is the reader.
fn measure(region: &RegionSpec, config: &str, seed: u64) -> Result<Vec<f64>, UnitError> {
    let rt = PLATFORM.sterile_cell_rt(THREADS, plan_for(config)).with_attribution(true);
    let res = rt.run(region, seed).map_err(|e| UnitError::from_rt(&e))?;
    let attr = res.attribution.as_ref().expect("attributed sim run returns a ledger");
    let conserved = attr.check_conservation(res.wall_us * 1e3, 1e-6).is_ok();
    let wall_ns = (res.wall_us * 1e3).round();
    let mut run = vec![wall_ns, attr.useful_total(), f64::from(u8::from(conserved))];
    run.extend(AttrSource::ALL.iter().map(|&s| attr.total(s)));
    run.extend(res.reps().iter().map(|&us| (us * 1e3).round()));
    Ok(run)
}

/// Streaming per-cell aggregate, folded run by run in canonical unit
/// order. Every field merges associatively (integer sketch/moment state,
/// fixed-order f64 sums), so the derived report is byte-identical at any
/// `--jobs` count and across resume.
struct CellAgg {
    name: String,
    /// Per-run wall times.
    wall: VarAccum,
    /// Per-repetition times, merged sketch-by-sketch (one per run).
    reps: QuantileSketch,
    useful_ns: f64,
    by_source: [f64; N_SOURCES],
    /// Per-source per-run totals — the "which source varies" view.
    src_var: [VarAccum; N_SOURCES],
    runs: usize,
    conserved: bool,
}

impl CellAgg {
    fn new(name: &str) -> CellAgg {
        CellAgg {
            name: name.to_string(),
            wall: VarAccum::new(),
            reps: QuantileSketch::new(),
            useful_ns: 0.0,
            by_source: [0.0; N_SOURCES],
            src_var: [VarAccum::new(); N_SOURCES],
            runs: 0,
            conserved: true,
        }
    }

    /// Fold one run, laid out as [`measure`] returns it.
    fn fold(&mut self, run: &[f64]) {
        let (&[wall_ns, useful_ns, conserved], rest) =
            run.split_first_chunk().expect("a run starts wall, useful, conserved");
        let (by_source, rep_ns) = rest.split_at(N_SOURCES);
        self.wall.record(wall_ns as u64);
        // Each run contributes a sketch of its own repetitions; the cell
        // keeps the merge (exactly equal to bulk-recording, by the
        // sketch's merge law — this is the cross-run streaming path).
        let mut s = QuantileSketch::new();
        for &r in rep_ns {
            s.record(r as u64);
        }
        self.reps.merge(&s);
        self.useful_ns += useful_ns;
        for (i, &charge) in by_source.iter().enumerate() {
            self.by_source[i] += charge;
            self.src_var[i].record(charge.round() as u64);
        }
        self.runs += 1;
        self.conserved &= conserved == 1.0;
    }

    /// The cell's aggregate ledger as a [`RunAttribution`], for shares.
    fn attr(&self) -> RunAttribution {
        let mut t = ThreadAttribution::new(0);
        t.useful_ns = self.useful_ns;
        t.by_source = self.by_source;
        RunAttribution { threads: vec![t], samples: Vec::new() }
    }

    /// Total ns charged to noise sources.
    fn noise_ns(&self) -> f64 {
        AttrSource::ALL
            .iter()
            .filter(|s| s.is_noise())
            .map(|&s| self.by_source[s.index()])
            .sum()
    }

    /// Sources ranked by the dispersion of their per-run totals
    /// (descending standard deviation, ties by ledger order), zero-mean
    /// sources omitted — "which sources drive the variability".
    fn top_sources(&self) -> Vec<(AttrSource, &VarAccum)> {
        let mut v: Vec<(AttrSource, &VarAccum)> = AttrSource::ALL
            .iter()
            .map(|&s| (s, &self.src_var[s.index()]))
            .filter(|(_, a)| a.mean() > 0.0)
            .collect();
        v.sort_by(|a, b| {
            b.1.std()
                .partial_cmp(&a.1.std())
                .unwrap()
                .then(a.0.cmp(&b.0))
        });
        v
    }
}

/// The `ompvar-variability/1` document. Built as a [`Value`] tree and
/// serialized with [`ompvar_obs::json::write`], so field order is fixed and
/// the bytes are reproducible for a given run.
fn variability_json(opts: &ExpOptions, cells: &[CellAgg]) -> String {
    let q = |s: &QuantileSketch, q: f64| Value::Num(s.quantile(q).unwrap_or(0) as f64);
    let cell_val = |c: &CellAgg| {
        let shares = c.attr().shares();
        Value::Obj(vec![
            ("name".into(), Value::Str(c.name.clone())),
            ("runs".into(), Value::Num(c.runs as f64)),
            (
                "wall_ns".into(),
                Value::Obj(vec![
                    ("mean".into(), Value::Num(c.wall.mean())),
                    ("std".into(), Value::Num(c.wall.std())),
                    ("cov".into(), Value::Num(c.wall.cov())),
                    ("min".into(), Value::Num(c.wall.min().unwrap_or(0) as f64)),
                    ("max".into(), Value::Num(c.wall.max().unwrap_or(0) as f64)),
                ]),
            ),
            (
                "rep_ns".into(),
                Value::Obj(vec![
                    ("count".into(), Value::Num(c.reps.count() as f64)),
                    ("p50".into(), q(&c.reps, 0.50)),
                    ("p95".into(), q(&c.reps, 0.95)),
                    ("p99".into(), q(&c.reps, 0.99)),
                    ("max".into(), Value::Num(c.reps.max().unwrap_or(0) as f64)),
                    ("iqr".into(), Value::Num(c.reps.iqr().unwrap_or(0) as f64)),
                ]),
            ),
            (
                "shares".into(),
                Value::Obj(
                    shares
                        .iter()
                        .map(|&(n, s)| (n.to_string(), Value::Num(s)))
                        .collect(),
                ),
            ),
            ("noise_ns".into(), Value::Num(c.noise_ns())),
            ("conserved".into(), Value::Bool(c.conserved)),
            (
                "top_sources".into(),
                Value::Arr(
                    c.top_sources()
                        .iter()
                        .take(3)
                        .map(|(s, a)| {
                            Value::Obj(vec![
                                ("source".into(), Value::Str(s.name().to_string())),
                                ("mean_ns".into(), Value::Num(a.mean())),
                                ("std_ns".into(), Value::Num(a.std())),
                                ("cov".into(), Value::Num(a.cov())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    };
    let mut sources = vec![Value::Str("useful_compute".into())];
    sources.extend(AttrSource::ALL.iter().map(|s| Value::Str(s.name().into())));
    let doc = Value::Obj(vec![
        ("schema".into(), Value::Str("ompvar-variability/1".into())),
        ("seed".into(), Value::Num(opts.seed as f64)),
        ("fast".into(), Value::Bool(opts.fast)),
        ("platform".into(), Value::Str(PLATFORM.label().into())),
        ("threads".into(), Value::Num(THREADS as f64)),
        ("runs_per_cell".into(), Value::Num(runs_per_cell(opts) as f64)),
        ("sources".into(), Value::Arr(sources)),
        ("cells".into(), Value::Arr(cells.iter().map(cell_val).collect())),
    ]);
    let mut s = ompvar_obs::json::write(&doc);
    s.push('\n');
    s
}

/// The grid: `runs_per_cell` attributed runs of every workload ×
/// interference configuration, and the fold that aggregates them and
/// writes the artifacts.
pub fn plan(opts: &ExpOptions) -> Grid {
    let runs = runs_per_cell(opts);
    let seed = opts.seed;
    let mut plan = Plan::new("variability", opts);
    let mut configs = Vec::new();
    for wl in WORKLOADS {
        let region = Arc::new(region_for(wl, opts));
        for cfg in CONFIGS {
            let cells = (0..runs).map(|i| {
                let (region, key) = (Arc::clone(&region), format!("{wl}/{cfg}/{i}"));
                // Decorrelated per-cell seed stream; attempt 0 keeps the
                // base stream so an unretried campaign is reproducible.
                let unit_seed = child(seed, &key, 0);
                plan.cell(key, move |attempt| {
                    Sample::checked(measure(&region, cfg, retry(unit_seed, attempt))?)
                })
            });
            let cells = cells.reduce(|a, b| a.start..b.end).expect("at least one run per cell");
            configs.push((format!("{wl}/{cfg}"), cells));
        }
    }
    let opts = opts.clone();
    plan.fold(move |samples| {
        // Fold into per-cell streaming aggregates, in cell order whatever
        // the worker count, so every derived f64 is identical at any
        // `--jobs`.
        let cells: Vec<CellAgg> = configs
            .iter()
            .map(|(name, runs)| {
                let mut agg = CellAgg::new(name);
                samples.of(runs).for_each(|run| agg.fold(run));
                agg
            })
            .collect();
        report(&opts, &cells)
    })
}

/// Tables, artifacts and shape checks over the aggregated cells.
fn report(opts: &ExpOptions, cells: &[CellAgg]) -> ExpReport {
    // ---- Tables --------------------------------------------------------
    let ms = |ns: f64| format!("{:.3}", ns / 1e6);
    let us_of = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
    let mut t_disp = Table::new(
        "Variability: wall-time dispersion per cell (Vera, 8 pinned threads)",
        &["cell", "runs", "mean ms", "cov", "rep p50 µs", "rep p99 µs", "rep max µs"],
    );
    for c in cells {
        t_disp.row(&[
            c.name.clone(),
            c.runs.to_string(),
            ms(c.wall.mean()),
            format!("{:.4}", c.wall.cov()),
            us_of(c.reps.quantile(0.50).unwrap_or(0)),
            us_of(c.reps.quantile(0.99).unwrap_or(0)),
            us_of(c.reps.max().unwrap_or(0)),
        ]);
    }
    let mut t_shares = Table::new(
        "Attribution: where did the time go (share of accounted time per cell)",
        &["cell", "useful", "noise", "sync_wait", "mem", "runtime", "top noise source"],
    );
    for c in cells {
        let shares = c.attr().shares();
        let share = |name: &str| {
            shares
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, s)| s)
        };
        let noise: f64 = AttrSource::ALL
            .iter()
            .filter(|s| s.is_noise())
            .map(|s| share(s.name()))
            .sum();
        let top_noise = c
            .top_sources()
            .into_iter()
            .find(|(s, _)| s.is_noise())
            .map_or("-".to_string(), |(s, _)| s.name().to_string());
        t_shares.row(&[
            c.name.clone(),
            format!("{:.4}", share("useful_compute")),
            format!("{:.4}", noise),
            format!(
                "{:.4}",
                share("sync_contention") + share("noise_delayed_arrival")
            ),
            format!("{:.4}", share("mem_contention")),
            format!("{:.4}", share("runtime_overhead")),
            top_noise,
        ]);
    }
    let mut t_top = Table::new(
        "Top variance sources per cell (by per-run std of the charge)",
        &["cell", "source", "mean µs", "std µs", "cov"],
    );
    for c in cells {
        for (s, a) in c.top_sources().into_iter().take(2) {
            t_top.row(&[
                c.name.clone(),
                s.name().to_string(),
                format!("{:.1}", a.mean() / 1e3),
                format!("{:.1}", a.std() / 1e3),
                format!("{:.4}", a.cov()),
            ]);
        }
    }

    // ---- Artifacts -----------------------------------------------------
    let mut checks = Vec::new();
    checks.push(Check::wrote(
        "ompvar-variability/1 report written",
        &opts.out_dir.join("variability.json"),
        &variability_json(opts, cells),
    ));

    // One representative attributed + traced run of `sched/noise` for the
    // per-source cumulative counter tracks ("where did my time go", over
    // time, in a Perfetto-loadable timeline).
    let trace_path = opts.out_dir.join("variability.trace.json");
    let traced = PLATFORM
        .sterile_cell_rt(THREADS, plan_for("noise"))
        .with_tracing(true)
        .with_attribution(true)
        .run(&region_for("sched", opts), opts.seed);
    match traced {
        Ok(res) => {
            let trace = res.trace.as_ref().expect("traced run records a trace");
            let attr = res.attribution.as_ref().expect("attributed run has a ledger");
            let doc = ompvar_obs::chrome_trace_attr(
                trace,
                &[],
                &attr.samples,
                "ompvar variability (Vera, sched/noise, attributed)",
            );
            let wrote = atomic_write(&trace_path, doc.as_bytes());
            checks.push(Check::new(
                "attribution counter tracks exported",
                wrote.is_ok() && doc.contains("attr_cum_ms") && !attr.samples.is_empty(),
                format!(
                    "{} ({} bytes, {} ledger samples)",
                    trace_path.display(),
                    doc.len(),
                    attr.samples.len()
                ),
            ));
        }
        Err(e) => checks.push(Check::new(
            "attribution counter tracks exported",
            false,
            format!("traced sched/noise run failed: {e}"),
        )),
    }

    // ---- Shape checks --------------------------------------------------
    let cell = |wl: &str, cfg: &str| {
        let name = format!("{wl}/{cfg}");
        cells.iter().find(|c| c.name == name).expect("grid cell")
    };
    let charged = |c: &CellAgg, s: AttrSource| c.by_source[s.index()];
    // The fold only runs once every cell completed: a quarantined cell
    // is the sweep's FAIL check, in place of this report.
    let units: usize = cells.iter().map(|c| c.runs).sum();
    checks.push(Check::new("every unit completed", true, format!("{units} unit(s)")));
    checks.push(Check::new(
        "every run conserves attributed time",
        cells.iter().all(|c| c.conserved),
        cells
            .iter()
            .map(|c| format!("{}:{}", c.name, if c.conserved { "ok" } else { "VIOLATED" }))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    let sterile_noise: f64 = WORKLOADS.iter().map(|wl| cell(wl, "sterile").noise_ns()).sum();
    checks.push(Check::new(
        "sterile cells charge exactly 0 ns to every noise source",
        sterile_noise == 0.0,
        format!("total noise charge {sterile_noise} ns across sterile cells"),
    ));
    let share_errs: Vec<String> = cells
        .iter()
        .filter_map(|c| {
            let sum: f64 = c.attr().shares().iter().map(|&(_, s)| s).sum();
            ((sum - 1.0).abs() > 1e-9).then(|| format!("{} sums to {sum}", c.name))
        })
        .collect();
    checks.push(Check::new(
        "per-cell attribution shares sum to 1.0",
        share_errs.is_empty(),
        if share_errs.is_empty() {
            format!("{} cells within 1e-9", cells.len())
        } else {
            share_errs.join("; ")
        },
    ));
    let preempted = WORKLOADS.map(|wl| {
        qty(format!("{wl} preemption"), charged(cell(wl, "noise"), AttrSource::Preemption), "ns").gt(bound(0.0))
    });
    checks.push(Claim::new("noise storm charges preemption in every noise cell", preempted).check());
    // Plain: its exact-zero half would pin a margin at 0.
    let sub_nominal = |wl, cfg| charged(cell(wl, cfg), AttrSource::SubNominalFreq);
    let caps = WORKLOADS.map(|wl| (wl, sub_nominal(wl, "freq_cap"), sub_nominal(wl, "sterile")));
    checks.push(Check::new(
        "frequency cap charges sub-nominal frequency (and only when capped)",
        caps.iter().all(|&(_, capped, sterile)| capped > 0.0 && sterile == 0.0),
        caps.map(|(wl, capped, sterile)| format!("{wl}: capped {capped:.0} ns, sterile {sterile:.0} ns")).join(", "),
    ));
    let straggler = [AttrSource::FaultStall, AttrSource::NoiseDelayedArrival]
        .map(|s| qty(s.name(), charged(cell("sync", "stall"), s), "ns").gt(bound(0.0)));
    checks.push(Claim::new("a straggler stall charges the victim and its barrier waiters", straggler).check());
    let dispersed = WORKLOADS.map(|wl| {
        let cov = |cfg| cell(wl, cfg).wall.cov();
        qty(format!("{wl} noise cov"), cov("noise"), "").gt(qty("sterile", cov("sterile"), ""))
    });
    checks.push(Claim::new("noise raises wall-time dispersion over the sterile control", dispersed).check());

    ExpReport::new("variability", vec![t_disp, t_shares, t_top], checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_obs::json::parse;

    fn opts(tag: &str) -> ExpOptions {
        let out =
            std::env::temp_dir().join(format!("ompvar_variability_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        ExpOptions { out_dir: out, ..ExpOptions::fast() }
    }

    #[test]
    fn variability_checks_pass_and_report_parses() {
        let o = opts("pass");
        let rep = plan(&o).run();
        for c in &rep.checks {
            assert!(c.passed, "{}: {}", c.name, c.detail);
        }
        let doc = std::fs::read_to_string(o.out_dir.join("variability.json")).unwrap();
        let v = parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("ompvar-variability/1")
        );
        let cells = v.get("cells").and_then(Value::as_arr).unwrap();
        assert_eq!(cells.len(), WORKLOADS.len() * CONFIGS.len());
        for c in cells {
            // Shares sum to 1 in the serialized document too.
            let shares = c.get("shares").unwrap();
            let sum: f64 = [
                "useful_compute",
                "preemption",
                "migration",
                "smt_corun",
                "subnominal_freq",
                "timer_tick",
                "fault_stall",
                "noise_delayed_arrival",
                "sync_contention",
                "mem_contention",
                "runtime_overhead",
            ]
            .iter()
            .map(|n| shares.get(n).and_then(Value::as_f64).unwrap())
            .sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: shares sum {sum}", doc);
            assert_eq!(c.get("conserved").and_then(Value::as_bool), Some(true));
            // A sterile cell has no noise source to charge.
            let name = c.get("name").and_then(Value::as_str).unwrap();
            if name.ends_with("/sterile") {
                assert_eq!(c.get("noise_ns").and_then(Value::as_f64), Some(0.0), "{name}");
            }
        }
        // The Chrome artifact parses and carries the counter tracks.
        let trace = std::fs::read_to_string(o.out_dir.join("variability.trace.json")).unwrap();
        parse(&trace).expect("valid chrome trace");
        assert!(trace.contains("attr_cum_ms"));
        let _ = std::fs::remove_dir_all(&o.out_dir);
    }
}

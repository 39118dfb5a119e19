//! The three named workloads, each a fixed batch of simulator work run
//! through the public API.
//!
//! * `scale_out` — one run of `scenarios/scale_out.json` at scale 2 on
//!   one thread: the broker's choice among 300 sites and a queue some
//!   200k events deep.
//! * `sc2003_sweep` — `sc2003.json` + `sc2003_operated.json` × 4 seeds
//!   through `campaign::run_with_threads`: retries, outage storms, the
//!   GridFTP demo, report extraction and the percentile merge, over a
//!   30-site grid with a shallow queue.
//! * `federated_durable` — `sc2003_federated.json` × 2 seeds: a write leg
//!   through `campaign::run_campaign_resumable` with weekly checkpoints,
//!   a WAL replay on the same directory, and a read leg that restores
//!   each seed's day-14 snapshot from disk and runs it to the end. The
//!   only workload that touches the snapshot codec, the WAL and
//!   two-grid federation brokering.
//!
//! End-to-end numbers come from an untraced process. A traced process
//! alternates a plain engine pass with a profiled one (cost profiler,
//! ops journal, queue depth sampled each sim-day) and times each layer
//! call, which gives the per-layer table and the profiler's overhead.

use crate::host::{HostSpeed, Kernel};
use crate::spans::Spans;
use grid3_core::campaign::{
    run_campaign_resumable, run_with_threads, run_with_threads_observed, CampaignObserver,
    CampaignPlan, ResumableOptions, RunProgress,
};
use grid3_core::dsl;
use grid3_core::report::Grid3Report;
use grid3_core::scenario::ScenarioConfig;
use grid3_core::snapshot::EngineSnapshot;
use grid3_core::subsystems::COST_CENTERS;
use grid3_core::Grid3Engine;
use grid3_simkit::engine::EventQueue;
use grid3_simkit::profiler::{alloc_snapshot, CostProfiler};
use grid3_simkit::time::{SimDuration, SimTime};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// The workload names, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = ["scale_out", "sc2003_sweep", "federated_durable"];

/// The cost centres reported one by one: each held at least 1% of
/// attributed time on some workload.
const CENTRES: [(&str, &str); 15] = [
    ("brokering", "submit"),
    ("brokering", "retry_place"),
    ("brokering", "campaign_outcome"),
    ("staging", "stage_in_done"),
    ("staging", "stage_out_done"),
    ("staging", "begin_stage_out"),
    ("staging", "entrada_round"),
    ("staging", "demo_transfer_done"),
    ("execution", "try_dispatch"),
    ("execution", "execution_ends"),
    ("fault", "incident"),
    ("fault", "job_outcome"),
    ("reporting", "monitor_tick"),
    ("reporting", "job_finished"),
    ("reporting", "credit_transfer"),
];

const SUBSYSTEMS: [&str; 6] = [
    "brokering",
    "staging",
    "execution",
    "fault",
    "reporting",
    "engine",
];

/// The arrival scale `scale_out` runs at: the committed scenario's
/// 300-site topology with a fifth of its jobs (about 885k timed events,
/// about 200k pending after assembly). One run takes about a second,
/// so a run of the benchmark takes its median over some twenty runs;
/// the file's own scale 10 takes six seconds or more per run, too few
/// for a median that holds still on a host whose speed swings from
/// second to second.
const SCALE_OUT_SCALE: f64 = 2.0;
/// Simulated days between checkpoints in `federated_durable`.
const CHECKPOINT_DAYS: u64 = 7;
/// The cut whose snapshot the read leg restores.
const READ_CUT_DAY: u64 = 14;
/// Setup is timed at least this many times per run, and a cheap setup
/// until the timings add up to `MIN_SETUP_SECONDS` (at most
/// `MAX_SETUPS` times).
const MIN_SETUPS: usize = 5;
const MIN_SETUP_SECONDS: f64 = 2.0;
const MAX_SETUPS: usize = 50;

/// How one benchmark process runs.
pub struct Settings {
    /// The checkout root; scenario files are read from `scenarios/`.
    pub root: PathBuf,
    /// Scratch directory for snapshots and the WAL; emptied afterwards.
    pub scratch: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Reduced-scale inputs for a seconds-long pass.
    pub smoke: bool,
    pub threads: usize,
}

/// A metric as measured, with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and failed, with a reason per failure.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ledger {
    /// Count one operation; a `false` outcome is a failure.
    fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(why());
        }
    }
}

/// Everything one process measured.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// `(run id, FNV-1a of the report JSON)` in first-seen order.
    pub runs: Vec<(String, u64)>,
    pub ledger: Ledger,
    pub spans: Spans,
}

/// FNV-1a over the report JSON, as in `tests/determinism.rs`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Shared state of one benchmark process.
struct Ctx<'a> {
    s: &'a Settings,
    spans: Spans,
    ledger: Ledger,
    runs: Vec<(String, u64)>,
    started: Instant,
    host: HostSpeed,
}

impl Ctx<'_> {
    /// Record a finished run's report; a run seen before must repeat its
    /// report byte for byte.
    fn record_run(&mut self, id: &str, json: &str) {
        let hash = fnv1a64(json.as_bytes());
        let prior = self.runs.iter().find(|(r, _)| r == id).map(|(_, h)| *h);
        if prior.is_none() {
            self.runs.push((id.to_string(), hash));
        }
        self.ledger.op(prior.is_none_or(|h| h == hash), || {
            format!("{id}: report 0x{hash:016x} differs from an earlier repeat")
        });
    }

    fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Load a committed scenario file (timed as the DSL layer), with the
    /// workload's input size applied after the load.
    fn load(&mut self, file: &str) -> Result<(ScenarioConfig, f64), String> {
        let path = self.s.root.join("scenarios").join(file);
        let (cfg, secs) = self
            .spans
            .time("dsl::load_config", || dsl::load_config(&path));
        let cfg = cfg.map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((sized(file, cfg, self.s.smoke), secs))
    }

    /// The workload's runs, `(run id, config)` for each scenario × seed,
    /// and the DSL load time of each scenario file.
    #[allow(clippy::type_complexity)]
    fn runs_of(
        &mut self,
        files: &[&str],
        seeds: &[u64],
    ) -> Result<(Vec<(String, ScenarioConfig)>, Vec<f64>), String> {
        let mut runs = Vec::new();
        let mut load_s = Vec::new();
        for file in files {
            let (cfg, secs) = self.load(file)?;
            load_s.push(secs);
            let name = file.trim_end_matches(".json");
            for &seed in seeds {
                runs.push((format!("{name}/{seed}"), cfg.clone().with_seed(seed)));
            }
        }
        Ok((runs, load_s))
    }
}

/// The input size a workload runs a scenario file at. A smoke pass runs
/// the same scenarios with a fraction of the jobs and days.
fn sized(file: &str, cfg: ScenarioConfig, smoke: bool) -> ScenarioConfig {
    match (file, smoke) {
        ("scale_out.json", false) => cfg.with_scale(SCALE_OUT_SCALE),
        ("scale_out.json", true) => cfg.with_scale(0.2).with_days(3),
        (_, false) => cfg,
        (_, true) => cfg.with_scale(0.05).with_days(READ_CUT_DAY + 1),
    }
}

/// The seeds a workload runs for benchmark seed `seed`: consecutive
/// blocks, so distinct benchmark seeds never share a run.
fn seeds_for(seed: u64, count: u64) -> Vec<u64> {
    (0..count)
        .map(|k| seed.wrapping_mul(count).wrapping_add(k))
        .collect()
}

/// Accumulated results of one engine pass over a workload's runs.
#[derive(Default)]
struct Pass {
    setup_s: Vec<f64>,
    sim_s: f64,
    events: u64,
    extract_s: f64,
    allocs: u64,
    depth: Vec<f64>,
    profile: Option<CostProfiler>,
    middleware: Middleware,
    ops_records: u64,
}

/// Exact counts from the middleware accessors, summed over runs.
#[derive(Default, Clone, Copy)]
struct Middleware {
    gram_accepted: u64,
    gram_refused: u64,
    gridftp_bytes: u64,
    rls_replicas: u64,
    mds_epoch: u64,
}

impl Middleware {
    fn add(&mut self, e: &Grid3Engine) {
        for gk in e.gatekeepers() {
            self.gram_accepted += gk.accepted_count();
            self.gram_refused += gk.refused_count();
        }
        self.gridftp_bytes += e.bytes_delivered().as_u64();
        self.rls_replicas += e.rls().replica_count() as u64;
        self.mds_epoch += e.center().mds.epoch();
    }
}

/// Run the engine to the horizon. A profiled run steps one sim-day at a
/// time to sample the queue depth; `run_until` then `run` is
/// bit-identical to a single `run`.
fn simulate(engine: &mut Grid3Engine, profiled: bool, depth: &mut Vec<f64>) {
    if profiled {
        let horizon = engine.config().horizon();
        let mut day = engine.now().as_micros() / SimTime::from_days(1).as_micros() + 1;
        while SimTime::from_days(day) < horizon {
            engine.run_until(SimTime::from_days(day));
            depth.push(engine.queue().len() as f64);
            day += 1;
        }
    }
    engine.run();
}

/// Assemble, simulate and extract every run once. `load_s` is the DSL
/// load that preceded the pass; each run's setup is that plus assembly.
fn engine_pass(
    ctx: &mut Ctx,
    runs: &[(String, ScenarioConfig)],
    profiled: bool,
    load_s: f64,
) -> Pass {
    let mut pass = Pass::default();
    for (id, cfg) in runs {
        let cfg = if profiled {
            cfg.clone().with_profile(true).with_ops_journal(true)
        } else {
            cfg.clone()
        };
        let (mut engine, new_s) = ctx.spans.time("Grid3Engine::new", || Grid3Engine::new(cfg));
        pass.setup_s.push(load_s + new_s);
        let (allocs0, _) = alloc_snapshot();
        let open = ctx.spans.enter("Grid3Engine::run");
        simulate(&mut engine, profiled, &mut pass.depth);
        pass.sim_s += ctx.spans.exit(open);
        pass.allocs += alloc_snapshot().0 - allocs0;
        pass.events += engine.events_processed();
        let (json, extract_s) = ctx.spans.time("Grid3Report::extract", || {
            Grid3Report::extract(&engine).to_json()
        });
        pass.extract_s += extract_s;
        ctx.record_run(id, &json);
        if profiled {
            pass.middleware.add(&engine);
            pass.ops_records += engine.ops_journal().len() as u64;
            if let Some(p) = engine.take_profiler() {
                match &mut pass.profile {
                    Some(m) => m.merge(&p),
                    None => pass.profile = Some(p),
                }
            }
        }
    }
    pass
}

/// End-to-end samples of an untraced process.
#[derive(Default)]
struct Samples {
    wall_s: Vec<f64>,
    events_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    resume_s: Vec<f64>,
}

/// Run one workload for `settings.seconds` and measure it.
pub fn run(workload: &str, settings: &Settings) -> Result<Outcome, String> {
    let mut ctx = Ctx {
        s: settings,
        spans: Spans::new(settings.traced),
        ledger: Ledger::default(),
        runs: Vec::new(),
        started: Instant::now(),
        host: host_speed(workload),
    };
    std::fs::create_dir_all(&settings.scratch)
        .map_err(|e| format!("{}: {e}", settings.scratch.display()))?;
    let files: &[&str] = match workload {
        "scale_out" => &["scale_out.json"],
        "sc2003_sweep" => &["sc2003.json", "sc2003_operated.json"],
        "federated_durable" => &["sc2003_federated.json"],
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seeds = match workload {
        "scale_out" => seeds_for(settings.seed, 1),
        "sc2003_sweep" => seeds_for(settings.seed, 4),
        _ => seeds_for(settings.seed, 2),
    };
    let metrics = if settings.traced {
        traced(&mut ctx, workload, files, &seeds)?
    } else {
        untraced(&mut ctx, workload, files, &seeds)?
    };
    std::fs::remove_dir_all(&settings.scratch).ok();
    Ok(Outcome {
        metrics,
        runs: ctx.runs,
        ledger: ctx.ledger,
        spans: ctx.spans,
    })
}

/// The host-speed probe a workload is read by: `federated_durable`'s
/// time goes mostly to the snapshot codec, the others' to simulation.
/// The probe runs on one thread, for the two-thread sweep too: a probe
/// on both threads read the sweep no better (NOTES.md).
fn host_speed(workload: &str) -> HostSpeed {
    match workload {
        "federated_durable" => HostSpeed::new(Kernel::Heap),
        _ => HostSpeed::new(Kernel::Cache),
    }
}

fn untraced(
    ctx: &mut Ctx,
    workload: &str,
    files: &[&str],
    seeds: &[u64],
) -> Result<Vec<Metric>, String> {
    let mut samples = Samples::default();
    let mut raw = Samples::default();
    let mut peak_rss = 0.0;
    // The sweep's event count comes from one serial pass over its runs
    // (the campaign cannot report it), made after the first sample so
    // that sample starts in a fresh process.
    let mut sweep_events = 0;
    let mut campaign_s = Vec::new();
    let mut raw_campaign_s = Vec::new();
    let mut mark = ctx.host.probe();
    loop {
        let probes_before = ctx.host.spent_s();
        let open = ctx.spans.enter("sample");
        let setup_s;
        let mut rate = None;
        let mut campaign = None;
        let mut resume_s = None;
        match workload {
            "scale_out" => {
                let (runs, load_s) = ctx.runs_of(files, seeds)?;
                let pass = engine_pass(ctx, &runs, false, load_s[0]);
                setup_s = pass.setup_s[0];
                rate = Some(pass.events as f64 / pass.sim_s);
            }
            "sc2003_sweep" => {
                setup_s = setup_once(ctx, files, seeds[0])?;
                let plan = sweep_plan(ctx, files, seeds)?;
                let (outcome, secs) = ctx.spans.time("campaign::run_with_threads", || {
                    run_with_threads(&plan, ctx.s.threads)
                });
                record_campaign(ctx, &plan, &outcome.reports);
                campaign = Some(secs);
            }
            _ => {
                let leg = durable(ctx, files[0], seeds, false)?;
                setup_s = leg.setup_s;
                resume_s = Some(leg.resume_s);
                rate = Some(leg.events as f64 / leg.sim_s);
            }
        }
        // Probes taken inside the sample are not the workload's time.
        let wall = ctx.spans.exit(open) - (ctx.host.spent_s() - probes_before);
        let end = ctx.host.probe();
        let f = ctx.host.factor_since(mark);
        mark = end;
        raw.wall_s.push(wall);
        raw.setup_s.push(setup_s);
        raw.events_per_s.extend(rate);
        raw_campaign_s.extend(campaign);
        samples.wall_s.push(wall * f);
        samples.setup_s.push(setup_s * f);
        samples.events_per_s.extend(rate.map(|r| r / f));
        samples.resume_s.extend(resume_s.map(|s| s * f));
        campaign_s.extend(campaign.map(|s| s * f));
        // The allocator keeps freed memory between samples, so later
        // samples only raise the high-water mark: the first one in a
        // fresh process is the workload's own peak.
        if samples.wall_s.len() == 1 {
            peak_rss = peak_rss_mb();
            if workload == "sc2003_sweep" {
                let (runs, _) = ctx.runs_of(files, seeds)?;
                sweep_events = engine_pass(ctx, &runs, false, 0.0).events;
                mark = ctx.host.probe();
            }
        }
        eprintln!(
            "[perfbench] {workload} sample {}: wall {wall:.4} s, host factor {f:.3}{}",
            samples.wall_s.len(),
            rate.map_or(String::new(), |r| format!(", {r:.0} events/s"))
        );
        // Every run repeats at least once; then as many samples as fit
        // in the time given.
        if samples.wall_s.len() >= 2 && ctx.elapsed() + wall > ctx.s.seconds {
            break;
        }
    }
    samples
        .events_per_s
        .extend(campaign_s.iter().map(|s| sweep_events as f64 / s));
    raw.events_per_s
        .extend(raw_campaign_s.iter().map(|s| sweep_events as f64 / s));
    // Top up the setup timings, scaled by the host speed around them.
    let mut extra = Vec::new();
    while samples.setup_s.len() + extra.len() < MIN_SETUPS
        || (raw.setup_s.iter().chain(&extra).sum::<f64>() < MIN_SETUP_SECONDS
            && samples.setup_s.len() + extra.len() < MAX_SETUPS)
    {
        extra.push(setup_once(ctx, files, seeds[0])?);
    }
    if !extra.is_empty() {
        ctx.host.probe();
        let f = ctx.host.factor_since(mark);
        raw.setup_s.extend(&extra);
        samples.setup_s.extend(extra.iter().map(|s| s * f));
    }
    let mut m = vec![
        metric("wall_s", median(&samples.wall_s), "s"),
        metric("events_per_s", median(&samples.events_per_s), "1/s"),
        metric("setup_s", median(&samples.setup_s), "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
    ];
    if !samples.resume_s.is_empty() {
        m.push(metric("resume_s", median(&samples.resume_s), "s"));
    }
    // The same medians at the host's own speed, and the kernel's times.
    m.push(metric("raw.wall_s", median(&raw.wall_s), "s"));
    m.push(metric("raw.events_per_s", median(&raw.events_per_s), "1/s"));
    m.push(metric("raw.setup_s", median(&raw.setup_s), "s"));
    m.push(metric("host.kernel_s", median(&ctx.host.readings()), "s"));
    m.push(metric("host.samples", samples.wall_s.len() as f64, "count"));
    Ok(m)
}

/// DSL load of every scenario file plus one assembly of each, timed
/// apart from simulation.
fn setup_once(ctx: &mut Ctx, files: &[&str], seed: u64) -> Result<f64, String> {
    let mut secs = 0.0;
    for file in files {
        let (cfg, load_s) = ctx.load(file)?;
        let (engine, new_s) = ctx
            .spans
            .time("Grid3Engine::new", || Grid3Engine::new(cfg.with_seed(seed)));
        drop(engine);
        secs += load_s + new_s;
    }
    Ok(secs)
}

fn sweep_plan(ctx: &mut Ctx, files: &[&str], seeds: &[u64]) -> Result<CampaignPlan, String> {
    let mut plan: Option<CampaignPlan> = None;
    for file in files {
        let (cfg, _) = ctx.load(file)?;
        let name = file.trim_end_matches(".json");
        plan = Some(match plan {
            None => CampaignPlan::single(name, cfg, seeds.to_vec()),
            Some(p) => p.with_variant(name, cfg),
        });
    }
    plan.ok_or_else(|| "empty sweep".to_string())
}

/// Hash every campaign report under its `(scenario, seed)` run id.
fn record_campaign(ctx: &mut Ctx, plan: &CampaignPlan, reports: &[Vec<Grid3Report>]) {
    for (variant, group) in plan.variants.iter().zip(reports) {
        for (seed, report) in plan.seeds.iter().zip(group) {
            let json = ctx
                .spans
                .time("Grid3Report::to_json", || report.to_json())
                .0;
            ctx.record_run(&format!("{}/{seed}", variant.name), &json);
        }
    }
}

/// One `federated_durable` sample, and the layer timings a traced
/// process keeps from it.
#[derive(Default)]
struct Durable {
    setup_s: f64,
    sim_s: f64,
    events: u64,
    resume_s: f64,
    write_leg_s: f64,
    wal_replay_s: f64,
    wal_bytes: f64,
    snap: SnapLayers,
}

/// Snapshot codec timings at each checkpoint cut.
#[derive(Default)]
struct SnapLayers {
    bytes: Vec<f64>,
    capture_s: Vec<f64>,
    encode_s: Vec<f64>,
    write_s: Vec<f64>,
    decode_s: Vec<f64>,
    restore_s: Vec<f64>,
}

/// The `federated_durable` sample: per seed, the uninterrupted run,
/// which writes the day-14 snapshot the read leg starts from (the
/// resumable campaign deletes its own checkpoints); then the write leg,
/// the WAL replay and the read leg, each of which must reproduce the
/// uninterrupted reports. A traced process times the codec at every
/// weekly cut of the first seed.
fn durable(ctx: &mut Ctx, file: &str, seeds: &[u64], traced: bool) -> Result<Durable, String> {
    let mut out = Durable::default();
    let dir = ctx.s.scratch.join("durable");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (cfg, load_s) = ctx.load(file)?;
    let read_cut = SimTime::from_days(READ_CUT_DAY);
    let horizon = cfg.horizon();
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut reference: Vec<String> = Vec::new();
    let mut run_events = 0;
    for (k, &seed) in seeds.iter().enumerate() {
        let (mut engine, new_s) = ctx.spans.time("Grid3Engine::new", || {
            Grid3Engine::new(cfg.clone().with_seed(seed))
        });
        if k == 0 {
            out.setup_s = load_s + new_s;
        }
        let path = dir.join(format!("seed-{seed}-day-{READ_CUT_DAY}.snap"));
        let cuts: Vec<SimTime> = if traced && k == 0 {
            weekly_cuts(horizon)
        } else {
            vec![read_cut]
        };
        for cut in cuts {
            let open = ctx.spans.enter("Grid3Engine::run_until");
            engine.run_until(cut);
            out.sim_s += ctx.spans.exit(open);
            let written = if traced {
                time_codec(ctx, &engine, &path, cut == read_cut, &mut out.snap)
            } else {
                ctx.spans
                    .time("EngineSnapshot::write_to", || {
                        engine.snapshot().write_to(&path)
                    })
                    .0
                    .map_err(|e| e.to_string())
            };
            let shown = path.display().to_string();
            ctx.ledger.op(written.is_ok(), || {
                format!("checkpoint {shown}: {written:?}")
            });
        }
        let open = ctx.spans.enter("Grid3Engine::run");
        engine.run();
        out.sim_s += ctx.spans.exit(open);
        run_events += engine.events_processed();
        let (json, _) = ctx.spans.time("Grid3Report::extract", || {
            Grid3Report::extract(&engine).to_json()
        });
        ctx.record_run(&format!("sc2003_federated/{seed}"), &json);
        reference.push(json);
        inputs.push(path);
    }

    // An untraced sample lasts many seconds: read the host's speed
    // between its legs too.
    let probe = |ctx: &mut Ctx| {
        if !traced {
            ctx.host.probe();
        }
    };
    probe(ctx);

    // Write leg: the same runs through the resumable campaign,
    // checkpointing every week.
    let plan = CampaignPlan::single("sc2003_federated", cfg.clone(), seeds.to_vec());
    let wal_dir = dir.join("campaign");
    let opts = ResumableOptions::new(&wal_dir)
        .with_checkpoint_every(SimDuration::from_days(CHECKPOINT_DAYS));
    let (written, write_s) = ctx.spans.time("campaign::run_campaign_resumable", || {
        run_campaign_resumable(&plan, &opts)
    });
    out.write_leg_s = write_s;
    // The write leg simulates the same runs, checkpoints included; its
    // reports must match, so it processes the same events.
    out.sim_s += write_s;
    out.events += run_events;
    let written = written.map_err(|e| format!("write leg: {e}"))?;
    for f in &written.failures {
        ctx.ledger.op(false, || {
            format!(
                "write leg run {} seed {}: {:?}",
                f.variant, f.seed, f.failure
            )
        });
    }
    for (seed, report) in seeds.iter().zip(&written.outcome.reports[0]) {
        ctx.record_run(&format!("sc2003_federated/{seed}"), &report.to_json());
    }
    out.wal_bytes = std::fs::metadata(wal_dir.join("campaign.wal")).map_or(0.0, |m| m.len() as f64);
    probe(ctx);

    // WAL replay: the same plan on the same directory replays every run.
    let (replay, replay_s) = ctx
        .spans
        .time("campaign::run_campaign_resumable(replay)", || {
            run_campaign_resumable(&plan, &opts)
        });
    out.wal_replay_s = replay_s;
    match replay {
        Ok(r) => {
            for (k, seed) in seeds.iter().enumerate() {
                let same = r.replayed == seeds.len()
                    && r.outcome.reports[0]
                        .get(k)
                        .map(Grid3Report::to_json)
                        .as_ref()
                        == reference.get(k);
                ctx.ledger.op(same, || {
                    format!("WAL replay of seed {seed} differs from the uninterrupted run")
                });
            }
        }
        Err(e) => ctx.ledger.op(false, || format!("WAL replay: {e}")),
    }
    probe(ctx);

    // Read leg: snapshot file on disk → finished report, per seed.
    for ((k, seed), path) in seeds.iter().enumerate().zip(&inputs) {
        let open = ctx.spans.enter("read_leg");
        let snap = ctx
            .spans
            .time("EngineSnapshot::read_from", || {
                EngineSnapshot::read_from(path)
            })
            .0;
        let snap = match snap {
            Ok(s) => s,
            Err(e) => {
                ctx.spans.exit(open);
                ctx.ledger
                    .op(false, || format!("read leg seed {seed}: {e}"));
                continue;
            }
        };
        let restored_at = snap.events_processed();
        let (mut engine, _) = ctx
            .spans
            .time("Grid3Engine::restore", || Grid3Engine::restore(snap));
        let run = ctx.spans.enter("Grid3Engine::run");
        engine.run();
        out.sim_s += ctx.spans.exit(run);
        out.events += engine.events_processed() - restored_at;
        let (json, _) = ctx.spans.time("Grid3Report::extract", || {
            Grid3Report::extract(&engine).to_json()
        });
        drop(engine);
        out.resume_s += ctx.spans.exit(open);
        let same = reference.get(k) == Some(&json);
        ctx.ledger.op(same, || {
            format!("read leg seed {seed} differs from the uninterrupted run")
        });
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(out)
}

/// The weekly checkpoint cuts before the horizon, as the resumable
/// campaign takes them.
fn weekly_cuts(horizon: SimTime) -> Vec<SimTime> {
    let mut cuts = Vec::new();
    let mut cut = SimTime::EPOCH + SimDuration::from_days(CHECKPOINT_DAYS);
    while cut < horizon {
        cuts.push(cut);
        cut += SimDuration::from_days(CHECKPOINT_DAYS);
    }
    cuts
}

/// Time each codec step at one cut: capture, encode, write, decode and
/// restore. The file is kept when `keep` (the read leg's input).
fn time_codec(
    ctx: &mut Ctx,
    engine: &Grid3Engine,
    path: &Path,
    keep: bool,
    layers: &mut SnapLayers,
) -> Result<(), String> {
    let (snap, capture_s) = ctx
        .spans
        .time("Grid3Engine::snapshot", || engine.snapshot());
    let (bytes, encode_s) = ctx
        .spans
        .time("EngineSnapshot::to_bytes", || snap.to_bytes());
    drop(snap);
    let tmp = path.with_extension("cut");
    let (written, write_s) = ctx.spans.time("fs::write", || std::fs::write(&tmp, &bytes));
    written.map_err(|e| format!("{}: {e}", tmp.display()))?;
    let (decoded, decode_s) = ctx.spans.time("EngineSnapshot::from_bytes", || {
        EngineSnapshot::from_bytes(&bytes)
    });
    let decoded = decoded.map_err(|e| e.to_string())?;
    let (restored, restore_s) = ctx
        .spans
        .time("Grid3Engine::restore", || Grid3Engine::restore(decoded));
    drop(restored);
    layers.bytes.push(bytes.len() as f64);
    layers.capture_s.push(capture_s);
    layers.encode_s.push(encode_s);
    layers.write_s.push(write_s);
    layers.decode_s.push(decode_s);
    layers.restore_s.push(restore_s);
    if keep {
        std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
    } else {
        std::fs::remove_file(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))
    }
}

/// Per-layer values of one traced iteration.
#[derive(Default)]
struct Layers {
    values: Vec<(String, f64, &'static str)>,
}

impl Layers {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.push((name.into(), value, unit));
    }
}

fn traced(
    ctx: &mut Ctx,
    workload: &str,
    files: &[&str],
    seeds: &[u64],
) -> Result<Vec<Metric>, String> {
    let mut iterations: Vec<Layers> = Vec::new();
    loop {
        let began = ctx.elapsed();
        let mut l = Layers::default();
        let (runs, load_s) = ctx.runs_of(files, seeds)?;
        l.put("core.dsl.load_s", median(&load_s), "s");
        let plain = engine_pass(ctx, &runs, false, 0.0);
        let pass = engine_pass(ctx, &runs, true, 0.0);
        engine_layers(&mut l, &plain, &pass, ctx.s.smoke);

        let mut efficiency = 0.0;
        let mut durable_leg = Durable::default();
        match workload {
            "sc2003_sweep" => {
                let plan = sweep_plan(ctx, files, seeds)?;
                let busy = Busy {
                    ends: Mutex::new(Vec::new()),
                };
                let started = Instant::now();
                let (outcome, wall) = ctx.spans.time("campaign::run_with_threads", || {
                    run_with_threads_observed(&plan, ctx.s.threads, &busy)
                });
                record_campaign(ctx, &plan, &outcome.reports);
                let threads = ctx.s.threads.min(plan.len()).max(1);
                efficiency = busy.seconds(started) / (threads as f64 * wall);
            }
            "federated_durable" => durable_leg = durable(ctx, files[0], seeds, true)?,
            _ => {}
        }
        l.put("core.campaign.parallel_efficiency", efficiency, "ratio");
        l.put("core.campaign.wal_bytes", durable_leg.wal_bytes, "B");
        l.put("core.campaign.wal_replay_s", durable_leg.wal_replay_s, "s");
        l.put("core.campaign.write_leg_s", durable_leg.write_leg_s, "s");
        l.put("core.snapshot.resume_s", durable_leg.resume_s, "s");
        let snap = &durable_leg.snap;
        let bytes = median(&snap.bytes);
        let encode_s = median(&snap.encode_s);
        let decode_s = median(&snap.decode_s);
        l.put("core.snapshot.bytes", bytes, "B");
        l.put("core.snapshot.capture_s", median(&snap.capture_s), "s");
        l.put("core.snapshot.encode_s", encode_s, "s");
        l.put("core.snapshot.write_s", median(&snap.write_s), "s");
        l.put("core.snapshot.decode_s", decode_s, "s");
        l.put("core.snapshot.restore_s", median(&snap.restore_s), "s");
        l.put(
            "core.snapshot.encode_mb_per_s",
            per_second(bytes / 1e6, encode_s),
            "MB/s",
        );
        l.put(
            "core.snapshot.decode_mb_per_s",
            per_second(bytes / 1e6, decode_s),
            "MB/s",
        );
        iterations.push(l);
        let took = ctx.elapsed() - began;
        if ctx.elapsed() + took > ctx.s.seconds {
            break;
        }
    }
    // Every iteration emits the same names in the same order; report
    // each metric's median across iterations.
    Ok(iterations[0]
        .values
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let values: Vec<f64> = iterations.iter().map(|l| l.values[i].1).collect();
            metric(name, median(&values), unit)
        })
        .collect())
}

/// Engine-level layers from a plain and a profiled pass over the same
/// runs in the same process.
fn engine_layers(l: &mut Layers, plain: &Pass, pass: &Pass, smoke: bool) {
    let events = pass.events.max(1) as f64;
    let mut depth = pass.depth.clone();
    depth.sort_by(f64::total_cmp);
    let depth_p50 = median(&depth);
    l.put(
        "simkit.queue.depth_max",
        depth.last().copied().unwrap_or(0.0),
        "count",
    );
    l.put("simkit.queue.depth_p50", depth_p50, "count");
    let ops = if smoke { 100_000 } else { 2_000_000 };
    l.put(
        "simkit.queue.replay_ns_per_op",
        queue_replay(depth_p50 as usize, ops),
        "ns",
    );

    let profile = pass.profile.as_ref();
    let stats = profile.map_or(&[][..], CostProfiler::stats);
    let self_ns: u64 = stats.iter().map(|s| s.total_ns).sum();
    let fanout: u64 = stats.iter().map(|s| s.fanout).sum();
    l.put("core.engine.simulate_s", pass.sim_s, "s");
    l.put("core.engine.centre_self_s", self_ns as f64 * 1e-9, "s");
    l.put(
        "core.engine.unattributed_ns_per_event",
        (pass.sim_s * 1e9 - self_ns as f64) / events,
        "ns",
    );
    l.put(
        "core.engine.fanout_per_event",
        fanout as f64 / events,
        "count",
    );
    l.put(
        "core.engine.allocs_per_event",
        pass.allocs as f64 / events,
        "count",
    );
    l.put("core.engine.events", pass.events as f64, "count");
    for (subsystem, event) in CENTRES {
        let s = COST_CENTERS
            .iter()
            .position(|c| c.subsystem == subsystem && c.event == event)
            .and_then(|i| stats.get(i));
        let (n, ns, allocs) = s.map_or((0, 0, 0), |s| (s.events, s.total_ns, s.allocs));
        let per = |x: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
        let base = format!("core.{subsystem}.{event}");
        l.put(format!("{base}.events"), n as f64, "count");
        l.put(format!("{base}.self_ns_per_event"), per(ns), "ns");
        l.put(format!("{base}.allocs_per_event"), per(allocs), "count");
    }
    for subsystem in SUBSYSTEMS {
        let ns: u64 = COST_CENTERS
            .iter()
            .zip(stats)
            .filter(|(c, _)| c.subsystem == subsystem)
            .map(|(_, s)| s.total_ns)
            .sum();
        l.put(
            format!("core.{subsystem}.self_share_pct"),
            100.0 * ns as f64 / self_ns.max(1) as f64,
            "%",
        );
    }
    l.put("core.report.extract_s", pass.extract_s, "s");
    let mw = pass.middleware;
    l.put("middleware.gram.accepted", mw.gram_accepted as f64, "count");
    l.put(
        "middleware.gram.refused_ratio",
        mw.gram_refused as f64 / (mw.gram_accepted + mw.gram_refused).max(1) as f64,
        "ratio",
    );
    l.put(
        "middleware.gridftp.bytes_delivered",
        mw.gridftp_bytes as f64,
        "B",
    );
    l.put("middleware.rls.replicas", mw.rls_replicas as f64, "count");
    l.put("middleware.mds.epoch", mw.mds_epoch as f64, "count");
    l.put(
        "obs.profile_overhead_pct",
        100.0 * (pass.sim_s / plain.sim_s - 1.0),
        "%",
    );
    l.put("obs.ops_journal_records", pass.ops_records as f64, "count");
}

/// Steady-state churn on a bare `EventQueue` at `depth` pending events:
/// pop one, schedule one follow-up, `ops` times. Returns ns per
/// schedule+pop pair. Offsets mix near follow-ups with far timers, as
/// the engine's do.
fn queue_replay(depth: usize, ops: usize) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = 0x2436_1A58_21FE_D731u64;
    let mut next = || {
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in 0..depth.max(1) {
        q.schedule_at(SimTime::from_micros(next() % 3_600_000_000), i as u64);
    }
    let t0 = Instant::now();
    for i in 0..ops {
        let (now, _) = q.pop().expect("the queue stays populated");
        let draw = next();
        let offset = if draw % 8 == 0 {
            draw % 172_800_000_000
        } else {
            draw % 3_600_000_000
        };
        q.schedule_at(SimTime::from_micros(now.as_micros() + offset), i as u64);
    }
    std::hint::black_box(&q);
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Completion instants per worker thread of a traced campaign.
struct Busy {
    ends: Mutex<Vec<(std::thread::ThreadId, Instant)>>,
}

impl CampaignObserver for Busy {
    fn run_finished(&self, _: &RunProgress<'_>) {
        let now = Instant::now();
        self.ends
            .lock()
            .expect("no observer panics while holding the lock")
            .push((std::thread::current().id(), now));
    }
}

impl Busy {
    /// Σ over workers of the time from the campaign start to that
    /// worker's last completion: each worker runs back to back.
    fn seconds(&self, started: Instant) -> f64 {
        let ends = self.ends.lock().expect("campaign finished");
        let mut last: Vec<(std::thread::ThreadId, Instant)> = Vec::new();
        for &(t, at) in ends.iter() {
            match last.iter_mut().find(|(id, _)| *id == t) {
                Some(slot) => slot.1 = slot.1.max(at),
                None => last.push((t, at)),
            }
        }
        last.iter()
            .map(|(_, at)| at.duration_since(started).as_secs_f64())
            .sum()
    }
}

fn per_second(amount: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        amount / secs
    } else {
        0.0
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn seed_blocks_never_overlap() {
        assert_eq!(seeds_for(3, 4), vec![12, 13, 14, 15]);
        assert_eq!(seeds_for(4, 4)[0], 16);
    }

    #[test]
    fn weekly_cuts_stop_before_the_horizon() {
        let cuts = weekly_cuts(SimTime::from_days(30));
        assert_eq!(cuts.len(), 4);
        assert_eq!(cuts[1], SimTime::from_days(READ_CUT_DAY));
        assert_eq!(weekly_cuts(SimTime::from_days(14)).len(), 1);
    }

    #[test]
    fn every_reported_centre_exists() {
        for (subsystem, event) in CENTRES {
            assert!(
                COST_CENTERS
                    .iter()
                    .any(|c| c.subsystem == subsystem && c.event == event),
                "{subsystem}.{event}"
            );
        }
    }
}

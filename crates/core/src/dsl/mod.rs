//! The declarative scenario DSL: scenarios as data, not code.
//!
//! A scenario file is one JSON object covering the full
//! [`ScenarioConfig`] surface — window, scale, topology replication,
//! demo, install pipeline, campaigns (DAG shapes), resilience, storms,
//! chaos regimes, federation/grid specs with backend personalities and
//! VO admission, workload overrides with arrival processes, and a
//! trace-replay front end. A document decodes straight into a config,
//! and a config encodes straight back:
//!
//! ```text
//! scenarios/*.json ⇄ ScenarioConfig
//! ```
//!
//! `tests/scenario_dsl.rs` locks the round trip differentially: every
//! built-in constructor is exported to a committed file under
//! `scenarios/`, re-loaded, and must reproduce its golden hash
//! bit-for-bit, so any schema drift breaks a golden.
//!
//! **Defaults live in exactly one place:** a field absent from (or
//! `null` in) a scenario document keeps the value from
//! [`ScenarioConfig::default`] — which is [`ScenarioConfig::sc2003`],
//! the paper's 30-day SC2003 window. The minimal document `{}` is
//! therefore a complete, runnable scenario. Malformed documents produce
//! typed [`DslError`]s naming the offending field, and so do documents
//! the engine cannot run (a zero monitor interval, a demo matrix of
//! fewer than two sites); nothing panics.

mod decode;
pub mod trace;

pub use decode::DslError;
pub use trace::{JobTrace, TraceJob};

use crate::apps::workloads::WorkloadSpec;
use crate::chaos::{ChaosRates, FaultPlan, PlannedFault};
use crate::federation::{Federation, GridSpec};
use crate::resilience::ResilienceConfig;
use crate::scenario::{CampaignSpec, ScenarioConfig, StormSpec};
use crate::workflow::mop::CmsSimulator;
use decode as d;
use grid3_middleware::backend::BackendKind;
use grid3_pacman::install::InstallPipeline;
use grid3_simkit::dist::ArrivalProcess;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_site::vo::Vo;
use serde::{Serialize, Value};
use std::path::Path;

/// The document's top-level keys, in the order [`encode`] writes them
/// (`name` is informational and never written).
const TOP_KEYS: &[&str] = &[
    "name",
    "seed",
    "days",
    "horizon_hours",
    "scale",
    "demo",
    "monitor_interval_mins",
    "monitor_interval_us",
    "pipeline",
    "srm_reservations",
    "campaigns",
    "resilience",
    "storms",
    "site_replicas",
    "chaos",
    "audit",
    "profile",
    "ops_journal",
    "federation",
    "workloads",
    "trace",
];

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Parse a scenario document from JSON text into a runnable config.
/// Trace paths resolve against the process working directory; use
/// [`load_config`] to anchor them at the scenario file instead.
pub fn parse_str(text: &str) -> Result<ScenarioConfig, DslError> {
    parse_in(text, None)
}

/// Parse `text`, resolving trace paths against `base`.
fn parse_in(text: &str, base: Option<&Path>) -> Result<ScenarioConfig, DslError> {
    let value: Value =
        serde_json::from_str(text).map_err(|e| DslError::syntax(text, &e.to_string()))?;
    decode(&value, base)
}

/// Load a scenario file straight into a runnable config. Trace paths
/// inside the document resolve relative to the file's directory.
pub fn load_config(path: &Path) -> Result<ScenarioConfig, DslError> {
    let text = std::fs::read_to_string(path).map_err(|e| DslError::Io {
        path: path.display().to_string(),
        msg: e.to_string(),
    })?;
    parse_in(&text, path.parent())
}

/// Every built-in scenario constructor, by canonical name. The
/// conformance suite exports each to `scenarios/<name>.json` and holds
/// the committed file to the constructor's golden hash.
pub fn builtin_scenarios() -> Vec<(&'static str, ScenarioConfig)> {
    vec![
        ("sc2003", ScenarioConfig::sc2003()),
        ("sc2003_operated", ScenarioConfig::sc2003_operated()),
        ("sc2003_chaos", ScenarioConfig::sc2003_chaos()),
        ("sc2003_federated", ScenarioConfig::sc2003_federated()),
        ("scale_out", ScenarioConfig::scale_out()),
        ("cms_production", ScenarioConfig::cms_production()),
        ("seven_months", ScenarioConfig::seven_months()),
    ]
}

/// Export a config to canonical pretty-printed scenario JSON (what the
/// committed files under `scenarios/` hold).
pub fn export_config(cfg: &ScenarioConfig) -> String {
    let mut text = serde_json::to_string_pretty(&encode(cfg)).expect("doc renders");
    text.push('\n');
    text
}

// ---------------------------------------------------------------------------
// Document ⇄ config
// ---------------------------------------------------------------------------

/// Lay a document's keys over [`ScenarioConfig::default`], reading them
/// in [`TOP_KEYS`] order except that `scale`, `site_replicas` and the
/// monitor interval are checked first, so a document with several
/// defects always reports the same one. Chaos rates are sampled from the
/// seed, replicas and horizon already read; the trace file (the last
/// key) loads last, relative to `base`.
fn decode(v: &Value, base: Option<&Path>) -> Result<ScenarioConfig, DslError> {
    let o = d::as_object(v, "")?;
    d::check_keys(o, "", TOP_KEYS)?;
    let mut cfg = ScenarioConfig::default();
    d::set(o, "", "scale", &mut cfg.scale, d::f64_value)?;
    if cfg.scale <= 0.0 {
        return Err(DslError::field(
            "scale",
            format!("{} is not positive", cfg.scale),
        ));
    }
    d::set(
        o,
        "",
        "site_replicas",
        &mut cfg.site_replicas,
        d::usize_value,
    )?;
    if cfg.site_replicas == 0 {
        return Err(DslError::field("site_replicas", "must be at least 1"));
    }
    if let Some((key, interval)) = d::duration(o, "", "monitor_interval")? {
        if interval.is_zero() {
            return Err(DslError::field(&key, "must be positive"));
        }
        cfg.monitor_interval = interval;
    }
    if let Some(v) = d::get(o, "name") {
        // Informational only: checked, not kept.
        d::str_value(v, "name")?;
    }
    d::set(o, "", "seed", &mut cfg.seed, d::u64_value)?;
    d::set(o, "", "days", &mut cfg.days, |v, path| {
        d::clock_count(v, path, d::DAY_US)
    })?;
    if let Some(v) = d::get(o, "horizon_hours") {
        cfg.horizon_hours = Some(d::clock_count(v, "horizon_hours", d::HOUR_US)?);
    }
    if let Some(v) = d::get(o, "demo") {
        decode_demo(v, &mut cfg)?;
    }
    d::set(o, "", "pipeline", &mut cfg.pipeline, decode_pipeline)?;
    d::set(
        o,
        "",
        "srm_reservations",
        &mut cfg.srm_reservations,
        d::bool_value,
    )?;
    d::set(o, "", "campaigns", &mut cfg.campaigns, decode_campaigns)?;
    if let Some(v) = d::get(o, "resilience") {
        cfg.resilience = Some(decode_resilience(v)?);
    }
    d::set(o, "", "storms", &mut cfg.storms, decode_storms)?;
    if let Some(v) = d::get(o, "chaos") {
        cfg.chaos = Some(decode_chaos(v, &cfg)?);
    }
    d::set(o, "", "audit", &mut cfg.audit, d::bool_value)?;
    d::set(o, "", "profile", &mut cfg.profile, d::bool_value)?;
    d::set(o, "", "ops_journal", &mut cfg.ops_journal, d::bool_value)?;
    if let Some(v) = d::get(o, "federation") {
        cfg.federation = Some(decode_federation(v)?);
    }
    if let Some(v) = d::get(o, "workloads") {
        cfg.workloads = Some(decode_workloads(v)?);
    }
    if let Some(v) = d::get(o, "trace") {
        cfg.trace = Some(decode_trace(v, base)?);
    }
    Ok(cfg)
}

/// The canonical document for `cfg`, keys in [`TOP_KEYS`] order: scalar
/// knobs explicit, optional layers present iff set, and known presets
/// collapsed to their names. Decoding it reproduces `cfg` exactly — the
/// conformance suite holds every built-in to this through its golden
/// hash.
fn encode(cfg: &ScenarioConfig) -> Value {
    let mut o: Vec<(String, Value)> = Vec::new();
    let mut put = |k: &str, v: Value| o.push((k.to_string(), v));
    put("seed", Value::U64(cfg.seed));
    put("days", Value::U64(cfg.days));
    if let Some(h) = cfg.horizon_hours {
        put("horizon_hours", Value::U64(h));
    }
    put("scale", Value::F64(cfg.scale));
    put(
        "demo",
        Value::Object(vec![
            ("enabled".into(), Value::Bool(cfg.include_demo)),
            ("sites".into(), Value::U64(cfg.demo_sites as u64)),
            (
                "daily_target_tb".into(),
                Value::U64(cfg.demo_daily_target_tb),
            ),
        ]),
    );
    let (key, value) = duration_key("monitor_interval", cfg.monitor_interval);
    put(&key, value);
    put(
        "pipeline",
        preset_or_value(
            &cfg.pipeline,
            &[
                ("grid3", InstallPipeline::grid3_default()),
                ("automated", InstallPipeline::automated()),
            ],
        ),
    );
    put("srm_reservations", Value::Bool(cfg.srm_reservations));
    if !cfg.campaigns.is_empty() {
        put(
            "campaigns",
            Value::Array(cfg.campaigns.iter().map(encode_campaign).collect()),
        );
    }
    if let Some(r) = &cfg.resilience {
        put(
            "resilience",
            preset_or_value(r, &[("grid3", ResilienceConfig::grid3_default())]),
        );
    }
    if !cfg.storms.is_empty() {
        put(
            "storms",
            Value::Array(cfg.storms.iter().map(encode_storm).collect()),
        );
    }
    put("site_replicas", Value::U64(cfg.site_replicas as u64));
    if let Some(plan) = &cfg.chaos {
        put(
            "chaos",
            Value::Object(vec![("plan".into(), plan.faults.to_value())]),
        );
    }
    put("audit", Value::Bool(cfg.audit));
    put("profile", Value::Bool(cfg.profile));
    put("ops_journal", Value::Bool(cfg.ops_journal));
    if let Some(fed) = &cfg.federation {
        put("federation", encode_federation(fed));
    }
    if let Some(workloads) = &cfg.workloads {
        put(
            "workloads",
            Value::Array(workloads.iter().map(encode_workload).collect()),
        );
    }
    if let Some(trace) = &cfg.trace {
        put(
            "trace",
            Value::Object(vec![(
                "jobs".into(),
                Value::Array(trace.jobs.iter().map(TraceJob::encode).collect()),
            )]),
        );
    }
    Value::Object(o)
}

/// The name of the first preset `value` equals, else its full encoding.
fn preset_or_value<T: Serialize>(value: &T, presets: &[(&str, T)]) -> Value {
    let encoded = value.to_value();
    match presets.iter().find(|(_, p)| p.to_value() == encoded) {
        Some((name, _)) => Value::Str(name.to_string()),
        None => encoded,
    }
}

/// Encode a duration under `<stem>_mins` when it is a whole number of
/// minutes (the human-friendly common case), else `<stem>_us` exactly.
fn duration_key(stem: &str, duration: SimDuration) -> (String, Value) {
    let us = duration.as_micros();
    const US_PER_MIN: u64 = 60_000_000;
    if us.is_multiple_of(US_PER_MIN) {
        (format!("{stem}_mins"), Value::U64(us / US_PER_MIN))
    } else {
        (format!("{stem}_us"), Value::U64(us))
    }
}

// ---------------------------------------------------------------------------
// Block decoders/encoders
// ---------------------------------------------------------------------------

fn decode_demo(v: &Value, cfg: &mut ScenarioConfig) -> Result<(), DslError> {
    let path = "demo";
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, &["enabled", "sites", "daily_target_tb"])?;
    d::set(o, path, "enabled", &mut cfg.include_demo, d::bool_value)?;
    d::set(o, path, "sites", &mut cfg.demo_sites, d::usize_value)?;
    if cfg.demo_sites < 2 {
        // The transfer matrix needs a pair of distinct sites.
        return Err(DslError::field("demo.sites", "must be at least 2"));
    }
    d::set(
        o,
        path,
        "daily_target_tb",
        &mut cfg.demo_daily_target_tb,
        d::u64_value,
    )
}

fn decode_pipeline(v: &Value, path: &str) -> Result<InstallPipeline, DslError> {
    match v {
        Value::Str(name) => match name.as_str() {
            "grid3" => Ok(InstallPipeline::grid3_default()),
            "automated" => Ok(InstallPipeline::automated()),
            other => Err(DslError::field(
                path,
                format!("unknown preset `{other}` (expected `grid3` or `automated`)"),
            )),
        },
        other => d::derived(other, path),
    }
}

fn decode_resilience(v: &Value) -> Result<ResilienceConfig, DslError> {
    match v {
        Value::Str(name) => match name.as_str() {
            "grid3" => Ok(ResilienceConfig::grid3_default()),
            other => Err(DslError::field(
                "resilience",
                format!("unknown preset `{other}` (expected `grid3`)"),
            )),
        },
        other => d::derived(other, "resilience"),
    }
}

fn decode_campaigns(v: &Value, path: &str) -> Result<Vec<CampaignSpec>, DslError> {
    let items = v
        .as_array()
        .ok_or_else(|| DslError::field(path, format!("expected an array, found {}", v.kind())))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| decode_campaign(item, &d::index(path, i)))
        .collect()
}

fn decode_campaign(v: &Value, path: &str) -> Result<CampaignSpec, DslError> {
    let o = d::as_object(v, path)?;
    d::check_keys(
        o,
        path,
        &[
            "dataset",
            "events",
            "events_per_job",
            "simulator",
            "submit_day",
            "retries",
            "throttle",
            "rescue_dags",
        ],
    )?;
    let dataset = d::str_value(
        d::get(o, "dataset")
            .ok_or_else(|| DslError::field(path, "missing required field `dataset`"))?,
        &d::join(path, "dataset"),
    )?
    .to_string();
    let events = d::u64_value(
        d::get(o, "events")
            .ok_or_else(|| DslError::field(path, "missing required field `events`"))?,
        &d::join(path, "events"),
    )?;
    if events == 0 {
        return Err(DslError::field(
            &d::join(path, "events"),
            "must be positive",
        ));
    }
    let events_per_job = d::get(o, "events_per_job")
        .map(|v| d::u64_value(v, &d::join(path, "events_per_job")))
        .transpose()?
        .unwrap_or(500);
    if events_per_job == 0 {
        return Err(DslError::field(
            &d::join(path, "events_per_job"),
            "must be positive",
        ));
    }
    let simulator = match d::get(o, "simulator") {
        None => CmsSimulator::Oscar,
        Some(v) => {
            let s = d::str_value(v, &d::join(path, "simulator"))?;
            match s.to_ascii_lowercase().as_str() {
                "cmsim" => CmsSimulator::Cmsim,
                "oscar" => CmsSimulator::Oscar,
                other => {
                    return Err(DslError::field(
                        &d::join(path, "simulator"),
                        format!("unknown simulator `{other}` (expected `cmsim` or `oscar`)"),
                    ))
                }
            }
        }
    };
    let opt_u64 = |key: &str, default: u64| -> Result<u64, DslError> {
        d::get(o, key)
            .map(|v| d::u64_value(v, &d::join(path, key)))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let submit_day = d::get(o, "submit_day")
        .map(|v| d::clock_count(v, &d::join(path, "submit_day"), d::DAY_US))
        .transpose()?
        .unwrap_or(0);
    Ok(CampaignSpec {
        dataset,
        events,
        events_per_job,
        simulator,
        submit_day,
        retries: opt_u64("retries", 3)? as u32,
        throttle: opt_u64("throttle", 50)? as usize,
        rescue_dags: opt_u64("rescue_dags", 0)? as u32,
    })
}

fn encode_campaign(spec: &CampaignSpec) -> Value {
    Value::Object(vec![
        ("dataset".into(), Value::Str(spec.dataset.clone())),
        ("events".into(), Value::U64(spec.events)),
        ("events_per_job".into(), Value::U64(spec.events_per_job)),
        (
            "simulator".into(),
            Value::Str(
                match spec.simulator {
                    CmsSimulator::Cmsim => "cmsim",
                    CmsSimulator::Oscar => "oscar",
                }
                .to_string(),
            ),
        ),
        ("submit_day".into(), Value::U64(spec.submit_day)),
        ("retries".into(), Value::U64(spec.retries as u64)),
        ("throttle".into(), Value::U64(spec.throttle as u64)),
        ("rescue_dags".into(), Value::U64(spec.rescue_dags as u64)),
    ])
}

fn decode_storms(v: &Value, path: &str) -> Result<Vec<StormSpec>, DslError> {
    let items = v
        .as_array()
        .ok_or_else(|| DslError::field(path, format!("expected an array, found {}", v.kind())))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let path = d::index(path, i);
            let o = d::as_object(item, &path)?;
            d::check_keys(o, &path, &["day", "hour", "outage_hours", "sites"])?;
            let req = |key: &str, unit_us: u64| -> Result<u64, DslError> {
                d::clock_count(
                    d::get(o, key).ok_or_else(|| {
                        DslError::field(&path, format!("missing required field `{key}`"))
                    })?,
                    &d::join(&path, key),
                    unit_us,
                )
            };
            let sites_path = d::join(&path, "sites");
            let sites = d::get(o, "sites")
                .ok_or_else(|| DslError::field(&path, "missing required field `sites`"))?
                .as_array()
                .ok_or_else(|| DslError::field(&sites_path, "expected an array of site ids"))?
                .iter()
                .enumerate()
                .map(|(j, s)| d::u32_value(s, &d::index(&sites_path, j)))
                .collect::<Result<Vec<u32>, DslError>>()?;
            let (day, hour) = (req("day", d::DAY_US)?, req("hour", d::HOUR_US)?);
            // The storm strikes at `day` days plus `hour` hours.
            if (day * d::DAY_US).checked_add(hour * d::HOUR_US).is_none() {
                return Err(DslError::field(
                    &d::join(&path, "hour"),
                    "day plus hour overflows the simulation clock (u64 microseconds)",
                ));
            }
            Ok(StormSpec {
                day,
                hour,
                outage_hours: req("outage_hours", d::HOUR_US)?,
                sites,
            })
        })
        .collect()
}

fn encode_storm(storm: &StormSpec) -> Value {
    Value::Object(vec![
        ("day".into(), Value::U64(storm.day)),
        ("hour".into(), Value::U64(storm.hour)),
        ("outage_hours".into(), Value::U64(storm.outage_hours)),
        (
            "sites".into(),
            Value::Array(storm.sites.iter().map(|s| Value::U64(*s as u64)).collect()),
        ),
    ])
}

/// A failure regime: `{"plan": [...]}` (canonical — what [`encode`]
/// writes) or `{"rates": "grid3" | {...}}`, sampled into a plan from the
/// seed, topology width and horizon already in `cfg`, so the run stays a
/// pure function of the document.
fn decode_chaos(v: &Value, cfg: &ScenarioConfig) -> Result<FaultPlan, DslError> {
    let path = "chaos";
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, &["plan", "rates"])?;
    let rates_path = d::join(path, "rates");
    let rates = match (d::get(o, "plan"), d::get(o, "rates")) {
        (Some(_), Some(_)) => {
            return Err(DslError::field(path, "give `plan` or `rates`, not both"))
        }
        (Some(plan), None) => {
            let faults: Vec<PlannedFault> = d::derived(plan, &d::join(path, "plan"))?;
            return Ok(FaultPlan::new(faults));
        }
        (None, Some(Value::Str(name))) => match name.as_str() {
            "grid3" => ChaosRates::grid3_default(),
            other => {
                return Err(DslError::field(
                    &rates_path,
                    format!("unknown preset `{other}` (expected `grid3`)"),
                ))
            }
        },
        (None, Some(rates)) => d::derived(rates, &rates_path)?,
        (None, None) => return Err(DslError::field(path, "needs `plan` or `rates`")),
    };
    Ok(FaultPlan::sample(
        &rates,
        cfg.seed,
        crate::topology::grid3_topology().len() * cfg.site_replicas,
        cfg.horizon().since(SimTime::EPOCH),
    ))
}

fn decode_federation(v: &Value) -> Result<Federation, DslError> {
    let path = "federation";
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, &["staleness_mins", "staleness_us", "grids"])?;
    let staleness = d::duration(o, path, "staleness")?;
    let grids_path = d::join(path, "grids");
    let grids_value = d::get(o, "grids")
        .ok_or_else(|| DslError::field(path, "missing required field `grids`"))?;
    let items = grids_value
        .as_array()
        .ok_or_else(|| DslError::field(&grids_path, "expected an array of grid specs"))?;
    if items.is_empty() {
        return Err(DslError::field(&grids_path, "needs at least one grid"));
    }
    let grids = items
        .iter()
        .enumerate()
        .map(|(i, item)| decode_grid(item, &d::index(&grids_path, i)))
        .collect::<Result<Vec<GridSpec>, DslError>>()?;
    let mut fed = Federation::new(grids);
    if let Some((_, staleness)) = staleness {
        fed.staleness = staleness;
    }
    Ok(fed)
}

fn decode_grid(v: &Value, path: &str) -> Result<GridSpec, DslError> {
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, &["name", "backend", "sites", "admits"])?;
    let name = d::str_value(
        d::get(o, "name").ok_or_else(|| DslError::field(path, "missing required field `name`"))?,
        &d::join(path, "name"),
    )?
    .to_string();
    let backend = match d::get(o, "backend") {
        None => BackendKind::Vdt,
        Some(v) => {
            let s = d::str_value(v, &d::join(path, "backend"))?;
            match s.to_ascii_lowercase().replace('_', "-").as_str() {
                "vdt" => BackendKind::Vdt,
                "edg-lcg" | "edg" | "edglcg" => BackendKind::EdgLcg,
                other => {
                    return Err(DslError::field(
                        &d::join(path, "backend"),
                        format!("unknown backend `{other}` (expected `vdt` or `edg-lcg`)"),
                    ))
                }
            }
        }
    };
    let sites_path = d::join(path, "sites");
    let sites = match d::get(o, "sites") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| DslError::field(&sites_path, "expected an array of site names"))?
            .iter()
            .enumerate()
            .map(|(i, s)| d::str_value(s, &d::index(&sites_path, i)).map(str::to_string))
            .collect::<Result<Vec<String>, DslError>>()?,
    };
    let admits_path = d::join(path, "admits");
    let admits = match d::get(o, "admits") {
        None => None,
        Some(v) => Some(
            v.as_array()
                .ok_or_else(|| DslError::field(&admits_path, "expected an array of VO names"))?
                .iter()
                .enumerate()
                .map(|(i, s)| d::vo(s, &d::index(&admits_path, i)))
                .collect::<Result<Vec<Vo>, DslError>>()?,
        ),
    };
    Ok(GridSpec {
        name,
        backend,
        sites,
        admits,
    })
}

fn encode_federation(fed: &Federation) -> Value {
    let (staleness_key, staleness_value) = duration_key("staleness", fed.staleness);
    Value::Object(vec![
        (staleness_key, staleness_value),
        (
            "grids".into(),
            Value::Array(
                fed.grids
                    .iter()
                    .map(|g| {
                        let mut o: Vec<(String, Value)> = vec![
                            ("name".into(), Value::Str(g.name.clone())),
                            ("backend".into(), Value::Str(g.backend.name().to_string())),
                            (
                                "sites".into(),
                                Value::Array(
                                    g.sites.iter().map(|s| Value::Str(s.clone())).collect(),
                                ),
                            ),
                        ];
                        if let Some(admits) = &g.admits {
                            o.push((
                                "admits".into(),
                                Value::Array(
                                    admits
                                        .iter()
                                        .map(|vo| Value::Str(vo.name().to_string()))
                                        .collect(),
                                ),
                            ));
                        }
                        Value::Object(o)
                    })
                    .collect(),
            ),
        ),
    ])
}

const WORKLOAD_KEYS: &[&str] = &[
    "class",
    "users",
    "admin_share",
    "monthly_jobs",
    "runtime",
    "input",
    "output",
    "staged_files",
    "needs_outbound",
    "registers_output",
    "walltime_margin",
    "walltime_underestimate_prob",
    "vo_affinity",
    "sc2003_surge_frac",
    "arrivals",
];

fn decode_workloads(v: &Value) -> Result<Vec<WorkloadSpec>, DslError> {
    let path = "workloads";
    let items = v
        .as_array()
        .ok_or_else(|| DslError::field(path, format!("expected an array, found {}", v.kind())))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| decode_workload(item, &d::index(path, i)))
        .collect()
}

fn decode_workload(v: &Value, path: &str) -> Result<WorkloadSpec, DslError> {
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, WORKLOAD_KEYS)?;
    let class = d::user_class(
        d::get(o, "class")
            .ok_or_else(|| DslError::field(path, "missing required field `class`"))?,
        &d::join(path, "class"),
    )?;
    let users = d::get(o, "users")
        .map(|v| d::u32_value(v, &d::join(path, "users")))
        .transpose()?
        .unwrap_or(1);
    if users == 0 {
        return Err(DslError::field(
            &d::join(path, "users"),
            "must be at least 1",
        ));
    }
    let monthly_path = d::join(path, "monthly_jobs");
    let monthly_jobs = match d::get(o, "monthly_jobs") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| DslError::field(&monthly_path, "expected an array of job counts"))?
            .iter()
            .enumerate()
            .map(|(i, n)| d::u64_value(n, &d::index(&monthly_path, i)))
            .collect::<Result<Vec<u64>, DslError>>()?,
    };
    let fraction = |key: &str, default: f64| -> Result<f64, DslError> {
        d::get(o, key)
            .map(|v| d::fraction_value(v, &d::join(path, key)))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let flag = |key: &str| -> Result<bool, DslError> {
        d::get(o, key)
            .map(|v| d::bool_value(v, &d::join(path, key)))
            .transpose()
            .map(|v| v.unwrap_or(false))
    };
    let runtime = match d::get(o, "runtime") {
        None => grid3_simkit::dist::DurationDist::Fixed(SimDuration::from_hours(1)),
        Some(v) => d::derived(v, &d::join(path, "runtime"))?,
    };
    let size = |key: &str| -> Result<grid3_simkit::dist::SizeDist, DslError> {
        match d::get(o, key) {
            None => Ok(grid3_simkit::dist::SizeDist::Fixed(0)),
            Some(v) => d::derived(v, &d::join(path, key)),
        }
    };
    let walltime_margin = d::get(o, "walltime_margin")
        .map(|v| d::f64_value(v, &d::join(path, "walltime_margin")))
        .transpose()?
        .unwrap_or(2.0);
    if walltime_margin <= 0.0 {
        return Err(DslError::field(
            &d::join(path, "walltime_margin"),
            format!("{walltime_margin} is not positive"),
        ));
    }
    let arrivals: Option<ArrivalProcess> = d::get(o, "arrivals")
        .map(|v| d::derived(v, &d::join(path, "arrivals")))
        .transpose()?;
    if let Some(ArrivalProcess::Poisson { per_day }) = arrivals {
        if !(per_day >= 0.0 && per_day.is_finite()) {
            return Err(DslError::field(
                &d::join(path, "arrivals.per_day"),
                format!("negative or non-finite arrival rate {per_day}"),
            ));
        }
    }
    Ok(WorkloadSpec {
        class,
        users,
        admin_share: fraction("admin_share", 1.0)?,
        monthly_jobs,
        runtime,
        input: size("input")?,
        output: size("output")?,
        staged_files: d::get(o, "staged_files")
            .map(|v| d::u32_value(v, &d::join(path, "staged_files")))
            .transpose()?
            .unwrap_or(0),
        needs_outbound: flag("needs_outbound")?,
        registers_output: flag("registers_output")?,
        walltime_margin,
        walltime_underestimate_prob: fraction("walltime_underestimate_prob", 0.0)?,
        vo_affinity: fraction("vo_affinity", 0.0)?,
        sc2003_surge_frac: fraction("sc2003_surge_frac", 0.0)?,
        arrivals,
    })
}

fn encode_workload(w: &WorkloadSpec) -> Value {
    let mut o: Vec<(String, Value)> = vec![
        ("class".into(), Value::Str(w.class.name().to_string())),
        ("users".into(), Value::U64(w.users as u64)),
        ("admin_share".into(), Value::F64(w.admin_share)),
        (
            "monthly_jobs".into(),
            Value::Array(w.monthly_jobs.iter().map(|n| Value::U64(*n)).collect()),
        ),
        ("runtime".into(), w.runtime.to_value()),
        ("input".into(), w.input.to_value()),
        ("output".into(), w.output.to_value()),
        ("staged_files".into(), Value::U64(w.staged_files as u64)),
        ("needs_outbound".into(), Value::Bool(w.needs_outbound)),
        ("registers_output".into(), Value::Bool(w.registers_output)),
        ("walltime_margin".into(), Value::F64(w.walltime_margin)),
        (
            "walltime_underestimate_prob".into(),
            Value::F64(w.walltime_underestimate_prob),
        ),
        ("vo_affinity".into(), Value::F64(w.vo_affinity)),
        ("sc2003_surge_frac".into(), Value::F64(w.sc2003_surge_frac)),
    ];
    if let Some(arrivals) = &w.arrivals {
        o.push(("arrivals".into(), arrivals.to_value()));
    }
    Value::Object(o)
}

/// A submission trace: `{"path": "log.jsonl"}` (loaded relative to
/// `base`, the scenario file's directory) or `{"jobs": [...]}` inline
/// (the canonical form).
fn decode_trace(v: &Value, base: Option<&Path>) -> Result<JobTrace, DslError> {
    let path = "trace";
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, &["path", "jobs"])?;
    match (d::get(o, "path"), d::get(o, "jobs")) {
        (Some(_), Some(_)) => Err(DslError::field(path, "give `path` or `jobs`, not both")),
        (Some(p), None) => {
            let p = d::str_value(p, &d::join(path, "path"))?;
            JobTrace::load_jsonl(&base.map_or_else(|| p.into(), |dir| dir.join(p)))
        }
        (None, Some(jobs)) => {
            let jobs_path = d::join(path, "jobs");
            let items = jobs
                .as_array()
                .ok_or_else(|| DslError::field(&jobs_path, "expected an array of jobs"))?;
            let jobs = items
                .iter()
                .enumerate()
                .map(|(i, item)| TraceJob::decode(item, &d::index(&jobs_path, i)))
                .collect::<Result<Vec<TraceJob>, DslError>>()?;
            Ok(JobTrace { jobs })
        }
        (None, None) => Err(DslError::field(path, "needs `path` or `jobs`")),
    }
}

//! Pins the state no golden report reads: the MonALISA repository, the
//! Ganglia summaries, the Site Status Catalog, the NetLogger archive
//! and the §8 trace store. Report hashes cannot see a change to these
//! stores, so each test folds everything they answer into one FNV-1a
//! digest and compares it with the value recorded before their layouts
//! were made append-ordered:
//!
//! * every MonALISA series in key order (bucket start and average bits);
//! * every Ganglia summary and every status-catalog entry, in site order;
//! * `NetLoggerArchive::stats()`;
//! * `accounting_by_user` for every user id up to the largest one seen;
//! * `stuck_jobs(horizon, 1 day)`, rendered;
//! * `chrome_trace()`.
//!
//! Each digest must also survive a day-2 snapshot → restore → run.

use grid3_core::scenario::ScenarioConfig;
use grid3_core::snapshot::EngineSnapshot;
use grid3_core::Grid3Engine;
use grid3_monitoring::catalog::ProbeStatus;
use grid3_monitoring::monalisa::SeriesKey;
use grid3_simkit::ids::{SiteId, UserId};
use grid3_simkit::stats::Summary;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_site::vo::Vo;

/// FNV-1a over everything fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros());
    }

    fn summary(&mut self, s: &Summary) {
        self.u64(s.count());
        for v in [s.mean(), s.variance(), s.min(), s.max(), s.sum()] {
            self.f64(v);
        }
    }
}

/// The digest of every store the goldens do not cover.
fn digest(sim: &Grid3Engine) -> u64 {
    let mut d = Digest::new();
    let center = sim.center();
    let sites = sim.sites().len() as u32;

    // MonALISA, in `SeriesKey` order.
    let mut keys: Vec<SeriesKey> = Vec::new();
    for s in 0..sites {
        let site = SiteId(s);
        keys.push(SeriesKey::Queued(site));
        keys.push(SeriesKey::GkLoad(site));
        keys.extend(Vo::ALL.iter().map(|vo| SeriesKey::Running(site, *vo)));
    }
    keys.sort();
    let mut held = 0;
    for key in &keys {
        let Some(series) = center.monalisa.series(key) else {
            continue;
        };
        held += 1;
        d.bytes(format!("{key:?}").as_bytes());
        let points = series.series();
        d.u64(points.len() as u64);
        for (at, avg) in points {
            d.time(at);
            d.f64(avg);
        }
    }
    assert_eq!(held, center.monalisa.series_count());

    // Ganglia, in site order.
    for (site, s) in center.ganglia_web.summaries() {
        d.u64(u64::from(site.0));
        d.f64(s.load);
        d.u64(u64::from(s.free_cpus));
        d.u64(u64::from(s.total_cpus));
        d.u64(s.disk_used.as_u64());
        d.u64(s.disk_total.as_u64());
        d.time(s.last_seen);
    }

    // Site Status Catalog, in site order.
    for (site, e) in center.status_catalog.entries() {
        d.u64(u64::from(site.0));
        d.bytes(e.name.as_bytes());
        d.u64(u64::from(e.status == ProbeStatus::Pass));
        d.time(e.last_probe);
        d.u64(u64::from(e.consecutive_failures));
        d.u64(e.probes);
        d.u64(e.failed_probes);
    }

    // NetLogger.
    let stats = center.netlogger.stats();
    d.u64(stats.started);
    d.u64(stats.completed);
    d.u64(stats.errored);
    d.summary(&stats.rates_mbit);
    d.summary(&stats.durations_secs);
    d.u64(stats.bytes_completed.as_u64());

    // The trace store.
    let traces = sim.traces();
    let users = traces
        .top_users(usize::MAX)
        .iter()
        .map(|(u, _)| u.0 + 1)
        .max()
        .unwrap_or(0);
    for u in 0..users {
        let a = traces.accounting_by_user(UserId(u));
        d.u64(a.submitted);
        d.u64(a.completed);
        d.u64(a.failed);
        d.f64(a.cpu_secs);
        d.u64(a.bytes_moved);
    }
    let stuck = traces.stuck_jobs(sim.config().horizon(), SimDuration::from_days(1));
    d.u64(stuck.len() as u64);
    for t in &stuck {
        d.bytes(t.render().as_bytes());
    }
    d.bytes(traces.chrome_trace().as_bytes());
    d.0
}

/// Run `cfg` to its horizon and digest it; then run it again with a
/// snapshot → restore cut at day 2 and check the digest is unchanged.
fn digest_with_and_without_cut(cfg: ScenarioConfig) -> u64 {
    let mut whole = Grid3Engine::new(cfg.clone());
    whole.run();
    let want = digest(&whole);
    drop(whole);

    let mut first = Grid3Engine::new(cfg);
    first.run_until(SimTime::from_days(2));
    let bytes = first.snapshot().to_bytes();
    drop(first);
    let mut resumed =
        Grid3Engine::restore(EngineSnapshot::from_bytes(&bytes).expect("snapshot parses"));
    resumed.run();
    assert_eq!(
        digest(&resumed),
        want,
        "a day-2 snapshot → restore → run changed the monitoring digest"
    );
    want
}

#[test]
fn sc2003_monitoring_digest_is_pinned() {
    let got = digest_with_and_without_cut(ScenarioConfig::sc2003().with_scale(0.05));
    assert_eq!(
        got, 0x760125f827a4e732,
        "sc2003 5 % monitoring digest {got:#018x}"
    );
}

#[test]
fn scale_out_smoke_monitoring_digest_is_pinned() {
    let got = digest_with_and_without_cut(ScenarioConfig::scale_out().with_scale(0.1).with_days(4));
    assert_eq!(
        got, 0xa3f011ef736a9ebe,
        "scale_out smoke monitoring digest {got:#018x}"
    );
}

//! The adaptive fault-handling layer: health scoring, blacklisting, and
//! the closed iGOC feedback loop.
//!
//! §6 of the paper describes failures arriving *in groups* — "a disk
//! would fill up or a service would fail and all jobs submitted to a site
//! would die" — and §6.2's remedy: operators noticed the storm, opened a
//! ticket, fixed the site, and re-validated it, after which "efficiency
//! is high once sites are fully validated". The CMS Integration Grid
//! Testbed ran the same playbook by hand, blacklisting misbehaving sites
//! to recover throughput. This module automates the loop:
//!
//! 1. the engine records every terminal job outcome into a per-site
//!    sliding window (`ResilienceLayer::record_outcome`);
//! 2. when the window's site-caused failure fraction storms past
//!    threshold, a [`grid3_igoc::tickets::TicketKind::FailureStorm`]
//!    ticket opens and the site
//!    is taken out of brokering until the repair lands;
//! 3. ticket resolution (after [`RevalidationPolicy::repair_delay`])
//!    re-validates the site into the *repaired* low-failure regime of
//!    [`grid3_site::failure::FailureModel::misconfig_prob_repaired`];
//! 4. site incidents (crash / cut / disk-full) suspend brokering for the
//!    outage and impose a short post-restore cooldown that widens with
//!    repeat offenses, so the broker stops feeding jobs into known-dead
//!    sites on stale MDS records.
//!
//! The broker consults [`ResilienceLayer::is_banned`] before ranking (via
//! `Broker::select_filtered`); GRAM submission refusals retry under the
//! [`RetryPolicy`] backoff instead of dying on first refusal.

use grid3_igoc::policy::RevalidationPolicy;
use grid3_middleware::gram::RetryPolicy;
use grid3_simkit::ids::{SiteId, TicketId};
use grid3_simkit::stats::success_rate;
use grid3_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Tunables for the resilience layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Sliding-window length of recent terminal outcomes per site.
    pub window: usize,
    /// Minimum outcomes in the window before storm detection can trip.
    pub min_samples: usize,
    /// Site-caused failure fraction in the window that declares a storm.
    pub storm_threshold: f64,
    /// Post-restore blacklist cooldown after a site incident (first
    /// offense); doubles per repeat offense.
    pub cooldown: SimDuration,
    /// Hard cap on the escalating cooldown.
    pub cooldown_max: SimDuration,
    /// GRAM submission retry/backoff discipline.
    pub retry: RetryPolicy,
    /// Ticket-to-repair latency model.
    pub revalidation: RevalidationPolicy,
    /// Per-site MTBF of configuration drift in the operated-grid
    /// scenario: sites periodically fall back to the unvalidated regime
    /// and must be caught and repaired by this layer.
    pub churn_mtbf: SimDuration,
}

impl ResilienceConfig {
    /// The calibration used for the paper's operated-grid scenario
    /// (`tests/resilience.rs` pins the resulting efficiency split).
    pub fn grid3_default() -> Self {
        ResilienceConfig {
            window: 16,
            min_samples: 8,
            storm_threshold: 0.5,
            cooldown: SimDuration::from_mins(45),
            cooldown_max: SimDuration::from_hours(6),
            retry: RetryPolicy::grid3_default(),
            revalidation: RevalidationPolicy::grid3(),
            churn_mtbf: SimDuration::from_days(6),
        }
    }
}

/// Per-site health state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct SiteHealth {
    /// Recent terminal outcomes; `true` = site-caused failure.
    window: VecDeque<bool>,
    /// Active incident suspensions (incidents can overlap, e.g. a WAN cut
    /// during a service outage).
    suspensions: u32,
    /// Cooldown blacklist after incident restore.
    blacklisted_until: Option<SimTime>,
    /// Consecutive incident count driving cooldown escalation.
    strikes: u32,
    /// The open storm ticket, while the site awaits repair.
    repair: Option<TicketId>,
}

/// The per-site health scorer and blacklist the broker consults.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceLayer {
    cfg: ResilienceConfig,
    sites: Vec<SiteHealth>,
    /// Failure storms detected (tickets opened).
    pub storms_opened: u64,
    /// Repairs completed (sites re-validated).
    pub repairs_completed: u64,
    /// GRAM/broker retries scheduled.
    pub retries_scheduled: u64,
}

impl ResilienceLayer {
    /// A layer tracking `n_sites` sites.
    pub fn new(cfg: ResilienceConfig, n_sites: usize) -> Self {
        ResilienceLayer {
            cfg,
            sites: vec![SiteHealth::default(); n_sites],
            storms_opened: 0,
            repairs_completed: 0,
            retries_scheduled: 0,
        }
    }

    /// The tunables in force.
    pub fn config(&self) -> &ResilienceConfig {
        &self.cfg
    }

    /// Whether the broker should avoid this site right now: mid-incident,
    /// inside a post-restore cooldown, or awaiting a storm repair.
    pub fn is_banned(&self, site: SiteId, now: SimTime) -> bool {
        let Some(h) = self.sites.get(site.index()) else {
            return false;
        };
        h.suspensions > 0
            || h.repair.is_some()
            || h.blacklisted_until.is_some_and(|until| now < until)
    }

    /// Health score in `[0, 1]`: the window's success fraction (1.0 with
    /// no evidence yet).
    #[cfg(test)]
    fn health_score(&self, site: SiteId) -> f64 {
        let Some(h) = self.sites.get(site.index()) else {
            return 1.0;
        };
        if h.window.is_empty() {
            return 1.0;
        }
        let failures = h.window.iter().filter(|f| **f).count() as u64;
        1.0 - success_rate(failures, h.window.len() as u64)
    }

    /// Record a terminal job outcome at a site. Returns `true` when this
    /// outcome tips the window past the storm threshold — the caller
    /// opens the ticket and calls [`ResilienceLayer::begin_repair`].
    pub(crate) fn record_outcome(&mut self, site: SiteId, site_failure: bool) -> bool {
        let cfg_window = self.cfg.window;
        let Some(h) = self.sites.get_mut(site.index()) else {
            return false;
        };
        h.window.push_back(site_failure);
        while h.window.len() > cfg_window {
            h.window.pop_front();
        }
        if h.repair.is_some() || h.suspensions > 0 || h.window.len() < self.cfg.min_samples {
            return false;
        }
        let failures = h.window.iter().filter(|f| **f).count();
        failures as f64 >= self.cfg.storm_threshold * h.window.len() as f64
    }

    /// A storm ticket was opened; keep the site out of brokering until
    /// [`ResilienceLayer::finish_repair`].
    pub(crate) fn begin_repair(&mut self, site: SiteId, ticket: TicketId) {
        if let Some(h) = self.sites.get_mut(site.index()) {
            h.repair = Some(ticket);
            self.storms_opened += 1;
        }
    }

    /// The repair landed: forgive history, lift every ban, and return the
    /// ticket to resolve. The caller re-validates the site.
    pub(crate) fn finish_repair(&mut self, site: SiteId) -> Option<TicketId> {
        let h = self.sites.get_mut(site.index())?;
        let ticket = h.repair.take()?;
        h.window.clear();
        h.strikes = 0;
        h.blacklisted_until = None;
        self.repairs_completed += 1;
        Some(ticket)
    }

    /// A site incident started: suspend brokering to the site.
    pub fn suspend(&mut self, site: SiteId) {
        if let Some(h) = self.sites.get_mut(site.index()) {
            h.suspensions += 1;
        }
    }

    /// A site incident ended. The last overlapping restore starts an
    /// escalating cooldown (probes have to confirm health before traffic
    /// returns) and forgives the outage's window entries so the storm
    /// detector judges the site on post-restore evidence.
    pub fn reinstate(&mut self, site: SiteId, now: SimTime) {
        let cooldown = self.cfg.cooldown;
        let cooldown_max = self.cfg.cooldown_max;
        let Some(h) = self.sites.get_mut(site.index()) else {
            return;
        };
        h.suspensions = h.suspensions.saturating_sub(1);
        if h.suspensions == 0 {
            h.strikes += 1;
            let factor = 1u64 << (h.strikes - 1).min(16);
            let cd = (cooldown * factor as f64).min(cooldown_max);
            h.blacklisted_until = Some(now + cd);
            h.window.clear();
        }
    }

    /// Explicitly blacklist a site until `until` (manual operator action;
    /// also the unit-test hook for expiry behaviour).
    pub fn blacklist(&mut self, site: SiteId, until: SimTime) {
        if let Some(h) = self.sites.get_mut(site.index()) {
            h.blacklisted_until = Some(until);
        }
    }

    /// When the current blacklist (if any) expires.
    #[cfg(test)]
    fn blacklisted_until(&self, site: SiteId) -> Option<SimTime> {
        self.sites
            .get(site.index())
            .and_then(|h| h.blacklisted_until)
    }
}

/// Which operational state a site was in when a job reached its terminal
/// state — the paper's m-eff split (≈70 % overall, >90 % on validated
/// sites) falls out of bucketing completions this way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteState {
    /// Certified and healthy (includes operator-repaired sites).
    Validated,
    /// Running with a latent fault: never certified cleanly, or drifted
    /// back into misconfiguration and not yet caught.
    Unvalidated,
    /// Suspended, cooling down, or awaiting a storm repair.
    Degraded,
}

impl SiteState {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SiteState::Validated => "validated",
            SiteState::Unvalidated => "unvalidated",
            SiteState::Degraded => "degraded",
        }
    }
}

/// Completion accounting bucketed by [`SiteState`] at finish time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SiteStateLedger {
    /// Completed jobs at validated sites.
    pub validated_completed: u64,
    /// Failed jobs at validated sites.
    pub validated_failed: u64,
    /// Completed jobs at unvalidated sites.
    pub unvalidated_completed: u64,
    /// Failed jobs at unvalidated sites.
    pub unvalidated_failed: u64,
    /// Completed jobs at degraded sites.
    pub degraded_completed: u64,
    /// Failed jobs at degraded sites.
    pub degraded_failed: u64,
}

impl SiteStateLedger {
    /// Record one terminal outcome.
    pub fn record(&mut self, state: SiteState, success: bool) {
        let (completed, failed) = match state {
            SiteState::Validated => (&mut self.validated_completed, &mut self.validated_failed),
            SiteState::Unvalidated => (
                &mut self.unvalidated_completed,
                &mut self.unvalidated_failed,
            ),
            SiteState::Degraded => (&mut self.degraded_completed, &mut self.degraded_failed),
        };
        if success {
            *completed += 1;
        } else {
            *failed += 1;
        }
    }

    /// `(completed, failed)` for a bucket.
    pub fn counts(&self, state: SiteState) -> (u64, u64) {
        match state {
            SiteState::Validated => (self.validated_completed, self.validated_failed),
            SiteState::Unvalidated => (self.unvalidated_completed, self.unvalidated_failed),
            SiteState::Degraded => (self.degraded_completed, self.degraded_failed),
        }
    }

    /// Completion efficiency of a bucket (0 when empty).
    pub fn efficiency(&self, state: SiteState) -> f64 {
        let (c, f) = self.counts(state);
        success_rate(c, c + f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ResilienceLayer {
        ResilienceLayer::new(ResilienceConfig::grid3_default(), 4)
    }

    #[test]
    fn healthy_site_is_never_banned() {
        let mut l = layer();
        for _ in 0..100 {
            assert!(!l.record_outcome(SiteId(1), false));
        }
        assert!(!l.is_banned(SiteId(1), SimTime::from_days(1)));
        assert_eq!(l.health_score(SiteId(1)), 1.0);
    }

    #[test]
    fn failure_storm_trips_once_and_repair_forgives() {
        let mut l = layer();
        let site = SiteId(2);
        let mut tripped = 0;
        for _ in 0..40 {
            if l.record_outcome(site, true) {
                tripped += 1;
                l.begin_repair(site, TicketId(9));
            }
        }
        assert_eq!(tripped, 1, "storm declared exactly once per episode");
        assert!(l.is_banned(site, SimTime::EPOCH));
        assert!(l.health_score(site) < 0.5);
        assert_eq!(l.finish_repair(site), Some(TicketId(9)));
        assert!(!l.is_banned(site, SimTime::EPOCH));
        assert_eq!(l.health_score(site), 1.0, "window forgiven");
        assert_eq!(l.storms_opened, 1);
        assert_eq!(l.repairs_completed, 1);
    }

    #[test]
    fn sparse_failures_do_not_storm() {
        let mut l = layer();
        let site = SiteId(0);
        // 25 % failure rate: below the 50 % storm threshold.
        for i in 0..200 {
            assert!(!l.record_outcome(site, i % 4 == 0), "tripped at {i}");
        }
    }

    #[test]
    fn suspension_and_cooldown_escalate() {
        let mut l = layer();
        let site = SiteId(3);
        let t0 = SimTime::from_hours(10);
        l.suspend(site);
        assert!(l.is_banned(site, t0));
        l.reinstate(site, t0);
        let first = l.blacklisted_until(site).unwrap();
        assert!(l.is_banned(site, t0));
        assert!(!l.is_banned(site, first), "cooldown is half-open");
        // Second offense doubles the cooldown.
        l.suspend(site);
        l.reinstate(site, first);
        let second = l.blacklisted_until(site).unwrap();
        assert_eq!(
            second.since(first).as_micros(),
            2 * first.since(t0).as_micros()
        );
    }

    #[test]
    fn overlapping_incidents_need_every_restore() {
        let mut l = layer();
        let site = SiteId(1);
        l.suspend(site); // service crash
        l.suspend(site); // WAN cut during the outage
        l.reinstate(site, SimTime::from_hours(1));
        assert!(
            l.is_banned(site, SimTime::from_days(20)),
            "still suspended by the second incident"
        );
        l.reinstate(site, SimTime::from_hours(2));
        // Now only the cooldown remains.
        assert!(l.is_banned(site, SimTime::from_hours(2)));
        assert!(!l.is_banned(site, SimTime::from_days(20)));
    }

    #[test]
    fn no_storm_detection_while_suspended_or_repairing() {
        let mut l = layer();
        let site = SiteId(0);
        l.suspend(site);
        for _ in 0..30 {
            assert!(!l.record_outcome(site, true), "suspended sites don't storm");
        }
        let mut l = layer();
        for _ in 0..30 {
            if l.record_outcome(site, true) {
                l.begin_repair(site, TicketId(1));
            }
        }
        assert_eq!(l.storms_opened, 1, "no re-trigger while awaiting repair");
    }

    #[test]
    fn ledger_buckets_and_efficiency() {
        let mut ledger = SiteStateLedger::default();
        for _ in 0..9 {
            ledger.record(SiteState::Validated, true);
        }
        ledger.record(SiteState::Validated, false);
        ledger.record(SiteState::Unvalidated, false);
        ledger.record(SiteState::Degraded, false);
        assert_eq!(ledger.efficiency(SiteState::Validated), 0.9);
        assert_eq!(ledger.efficiency(SiteState::Unvalidated), 0.0);
        assert_eq!(ledger.counts(SiteState::Degraded), (0, 1));
    }

    #[test]
    fn out_of_range_sites_are_inert() {
        let mut l = layer();
        let site = SiteId(99);
        assert!(!l.record_outcome(site, true));
        assert!(!l.is_banned(site, SimTime::EPOCH));
        assert_eq!(l.health_score(site), 1.0);
        l.suspend(site);
        l.reinstate(site, SimTime::EPOCH);
        assert!(l.finish_repair(site).is_none());
    }
}

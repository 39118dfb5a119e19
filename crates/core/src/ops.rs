//! The structured ops journal: a JSON-lines stream of operational
//! events, the simulation-side analogue of the iGOC's trouble-ticket
//! console.
//!
//! Grid2003 was *operated*: monitoring fed the iGOC, the iGOC turned
//! signals into tickets and actions (PAPER.md §5–6). The report JSON
//! aggregates what those actions achieved, but loses the operational
//! narrative — when a site went dark, who opened the ticket, when the
//! rescue DAG fired. The journal records exactly that narrative as
//! typed [`OpsRecord`]s emitted by the resilience, fault-handling,
//! staging and monitoring paths, and `figures -- ops` renders it as the
//! per-site timeline + incident log an operator would have watched live.
//! Every ticket the iGOC opens gets a [`OpsEventKind::TicketOpened`] (or,
//! for a failure storm, also a [`OpsEventKind::StormDetected`]) line
//! before any line that resolves it, and every injected chaos action
//! gets a line of its own.
//!
//! Grid-wide counts are not kept here: each component keeps its own
//! tally (gatekeepers, GridFTP's NetLogger stream, ACDC, the trace
//! store), which the §5.2 cross-checks compare. The journal is
//! observation-only and disabled by default: a disabled journal makes
//! every record call a single branch, and an enabled one must not
//! perturb the simulation — the golden-hash suite runs with it on.
//! Journal output lives beside the report, never inside it, so report
//! hashes cannot see it.

use grid3_igoc::tickets::TicketKind;
use grid3_simkit::ids::{GridId, JobId, SiteId, TicketId};
use grid3_simkit::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// What happened, in the operators' vocabulary. Serialized externally
/// tagged (`{"Variant": {...}}`), one JSON object per journal line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpsEventKind {
    /// A fault fired (natural incident or injected chaos); `kind` is the
    /// fault's label (`"disk_full"`, `"black_hole"`, …). A transfer cut
    /// reads `"truncated_resumed"` or, when the partial file failed its
    /// checksum, `"truncated_corrupt"`, at the site of the job whose
    /// transfer was cut.
    FaultInjected {
        /// Event label of the fault.
        kind: String,
    },
    /// The iGOC opened a ticket; `kind` names the ticket class
    /// (`"DiskFull"`, `"FailureStorm"`, …).
    TicketOpened {
        /// Ticket id.
        ticket: TicketId,
        /// Ticket class name.
        kind: String,
    },
    /// A ticket was resolved and its operator effort booked.
    TicketResolved {
        /// Ticket id.
        ticket: TicketId,
    },
    /// The resilience layer suspended brokering to the site
    /// (blacklisted it) after an incident.
    SiteSuspended,
    /// The site returned to brokering after an outage restore (with its
    /// post-restore cooldown, if configured).
    SiteReinstated,
    /// A failure-storm repair landed: the site is re-validated into the
    /// low-failure regime.
    SiteRepaired,
    /// The resilience layer's health window tripped: failure storm
    /// detected, repair ticket opened.
    StormDetected {
        /// The repair ticket id.
        ticket: TicketId,
    },
    /// DAGMan fired a rescue DAG, re-arming failed nodes for
    /// resubmission.
    RescueDag {
        /// Campaign index in the scenario's campaign table.
        campaign: u64,
        /// Nodes re-armed by the rescue.
        rearmed: u64,
    },
    /// The hung-job watchdog reaped a job stuck on a black-hole site.
    WatchdogReap {
        /// The reaped job.
        job: JobId,
    },
    /// A stage-in bounced off a disk that external data had filled, and
    /// a cleanup sweep to reclaim that data was scheduled (§6.2's
    /// "remove the offending files", as a policy).
    CleanupScheduled,
}

/// One journal line: when, where, what.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpsRecord {
    /// Simulation time of the event.
    pub at: SimTime,
    /// Site involved, if the event is site-scoped.
    pub site: Option<SiteId>,
    /// The member grid of `site` in federated runs. Omitted from the
    /// JSON line when absent, so single-grid journals keep their legacy
    /// shape and legacy lines (no `grid` key) still parse.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub grid: Option<GridId>,
    /// The event itself.
    pub kind: OpsEventKind,
}

impl OpsRecord {
    /// This record as one JSON line (no trailing newline).
    pub(crate) fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("ops record serializes")
    }

    /// Parse a record back from one JSON line.
    pub fn from_json_line(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }
}

/// The run's journal, owned by `EngineCtx`. A disabled journal (the
/// default) makes each record call a single branch.
#[derive(Debug, Default)]
pub struct OpsJournal {
    enabled: bool,
    records: Vec<OpsRecord>,
    /// Site→grid labelling for federated runs; the empty default maps
    /// every site to grid 0 and leaves [`OpsRecord::grid`] unset.
    grid_of: crate::federation::GridMap,
}

impl OpsJournal {
    /// A journal that records nothing.
    pub(crate) fn disabled() -> Self {
        OpsJournal::default()
    }

    /// An active, empty journal.
    pub(crate) fn enabled() -> Self {
        OpsJournal {
            enabled: true,
            ..OpsJournal::default()
        }
    }

    /// Install the site→grid labelling federated runs stamp onto each
    /// record. The single-grid default labelling leaves records in
    /// their legacy (no `grid` key) shape.
    pub(crate) fn set_grid_map(&mut self, grid_of: crate::federation::GridMap) {
        self.grid_of = grid_of;
    }

    /// Whether this journal records anything.
    #[cfg(test)]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn grid_label(&self, site: Option<SiteId>) -> Option<GridId> {
        if self.grid_of.is_single() {
            None
        } else {
            site.map(|s| self.grid_of.grid_of(s))
        }
    }

    /// Append one event to the journal.
    pub(crate) fn record(&mut self, at: SimTime, site: Option<SiteId>, kind: OpsEventKind) {
        self.record_with(at, site, || kind);
    }

    /// Journal that the iGOC opened `ticket` of class `kind` at `site`.
    pub(crate) fn ticket_opened(
        &mut self,
        at: SimTime,
        site: SiteId,
        ticket: TicketId,
        kind: TicketKind,
    ) {
        self.record_with(at, Some(site), || OpsEventKind::TicketOpened {
            ticket,
            kind: format!("{kind:?}"),
        });
    }

    /// [`OpsJournal::record`] with a lazily built event: `kind` is only
    /// invoked when the journal is enabled, so call sites whose payloads
    /// carry `format!`/`to_string` strings cost nothing — no allocation,
    /// no formatting — on the (default) disabled journal.
    pub(crate) fn record_with(
        &mut self,
        at: SimTime,
        site: Option<SiteId>,
        kind: impl FnOnce() -> OpsEventKind,
    ) {
        if self.enabled {
            let grid = self.grid_label(site);
            self.records.push(OpsRecord {
                at,
                site,
                grid,
                kind: kind(),
            });
        }
    }

    /// Records appended so far, in emission order.
    pub fn records(&self) -> &[OpsRecord] {
        &self.records
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The whole journal as JSON lines, one record per line, in
    /// emission order — the §8 "accounting information without parsing
    /// log files" export, for operational events.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(out, "{}", r.to_json_line());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_is_inert() {
        let mut j = OpsJournal::disabled();
        j.record(SimTime::EPOCH, None, OpsEventKind::SiteSuspended);
        assert!(!j.is_enabled());
        assert!(j.is_empty());
        assert!(j.to_jsonl().is_empty());
    }

    #[test]
    fn records_round_trip_through_json_lines() {
        let mut j = OpsJournal::enabled();
        j.record(
            SimTime::from_secs(60),
            Some(SiteId(3)),
            OpsEventKind::FaultInjected {
                kind: "incident".into(),
            },
        );
        j.record(
            SimTime::from_secs(61),
            Some(SiteId(3)),
            OpsEventKind::TicketOpened {
                ticket: TicketId(7),
                kind: "ServiceDown".into(),
            },
        );
        j.record(
            SimTime::from_secs(62),
            Some(SiteId(3)),
            OpsEventKind::SiteSuspended,
        );
        j.record(
            SimTime::from_hours(4),
            Some(SiteId(3)),
            OpsEventKind::TicketResolved {
                ticket: TicketId(7),
            },
        );
        j.record(
            SimTime::from_hours(5),
            None,
            OpsEventKind::RescueDag {
                campaign: 2,
                rearmed: 14,
            },
        );
        let jsonl = j.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        let parsed: Vec<OpsRecord> = jsonl
            .lines()
            .map(|l| OpsRecord::from_json_line(l).expect("parses"))
            .collect();
        assert_eq!(parsed, j.records());
    }

    #[test]
    fn grid_field_round_trips_and_stays_backwards_compatible() {
        // Legacy shape: no `grid` key on the wire, and old lines (also
        // without it) still parse to `grid: None`.
        let legacy = OpsRecord {
            at: SimTime::from_secs(5),
            site: Some(SiteId(2)),
            grid: None,
            kind: OpsEventKind::SiteSuspended,
        };
        let line = legacy.to_json_line();
        assert!(
            !line.contains("grid"),
            "legacy line grew a grid key: {line}"
        );
        assert_eq!(OpsRecord::from_json_line(&line).unwrap(), legacy);

        // Federated shape: the grid label survives a round trip.
        let federated = OpsRecord {
            grid: Some(GridId(1)),
            ..legacy.clone()
        };
        let line = federated.to_json_line();
        assert!(line.contains("grid"));
        assert_eq!(OpsRecord::from_json_line(&line).unwrap(), federated);
    }

    #[test]
    fn journal_stamps_grids_only_under_a_federation_map() {
        use crate::federation::GridMap;
        use grid3_simkit::ids::GridId;
        let mut j = OpsJournal::enabled();
        j.record(SimTime::EPOCH, Some(SiteId(1)), OpsEventKind::SiteSuspended);
        j.set_grid_map(GridMap::new(vec![GridId(0), GridId(1)]));
        j.record(SimTime::EPOCH, Some(SiteId(1)), OpsEventKind::SiteRepaired);
        j.record(SimTime::EPOCH, None, OpsEventKind::SiteRepaired);
        let records = j.records();
        assert_eq!(records[0].grid, None);
        assert_eq!(records[1].grid, Some(GridId(1)));
        assert_eq!(records[2].grid, None);
    }
}

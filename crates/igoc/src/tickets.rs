//! The trouble-ticket system and operations-effort accounting.
//!
//! §5.4: "A simple trouble ticket system was used intermittently during
//! the project." §7 measures the support load it represents: target
//! < 2 FTE; during the SC2003 ramp-up "typically 10 part-time" people,
//! settling to "a small support load of less than 2 FTEs" once sites
//! stabilized — "once a site becomes stable, it usually remains so except
//! for hardware problems."

use grid3_simkit::ids::{SiteId, TicketId, TicketIdGen};
use grid3_simkit::time::{SimDuration, SimTime};
use serde::{Decode, DecodeError, Deserialize, Encode, Reader, Serialize, Sink};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// What kind of problem a ticket reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TicketKind {
    /// Storage element / scratch disk filled.
    DiskFull,
    /// Scratch disk under pressure: external demand exceeded the free
    /// space (a shortfall was recorded) or stage-ins are failing on a
    /// full disk. Lighter than [`TicketKind::DiskFull`] — the iGOC share
    /// is a quota warning and a cleanup nudge to the site admins.
    DiskPressure,
    /// Gatekeeper or other grid service down.
    ServiceDown,
    /// WAN connectivity loss.
    NetworkOutage,
    /// Misconfiguration found after certification.
    Misconfiguration,
    /// Hardware replacement (the residual cause at stable sites, §7).
    Hardware,
    /// User-reported application issue.
    UserReport,
    /// Opened automatically by the resilience layer when a site's job
    /// failure rate storms past threshold (§6.2's "all jobs submitted to
    /// a site would die" bursts); resolution re-validates the site.
    FailureStorm,
}

impl TicketKind {
    /// Typical *central operations* effort to resolve, in person-hours.
    /// Most remediation work is done by site administrators (§5.4:
    /// "ongoing support … is distributed according to responsibility");
    /// these figures cover the iGOC coordination share, calibrated so the
    /// steady-state grid lands under the 2-FTE target of §7.
    pub(crate) fn effort_hours(self) -> f64 {
        match self {
            TicketKind::DiskFull => 0.75,
            TicketKind::DiskPressure => 0.25,
            TicketKind::ServiceDown => 1.0,
            TicketKind::NetworkOutage => 0.5,
            TicketKind::Misconfiguration => 4.0,
            TicketKind::Hardware => 6.0,
            TicketKind::UserReport => 1.0,
            // Storm triage is mostly diagnosis: find which of the §6.1
            // failure classes is behind the burst, then hand off to the
            // site admins; cheaper than a from-scratch misconfiguration
            // hunt because the job-level evidence arrives with the ticket.
            TicketKind::FailureStorm => 3.0,
        }
    }
}

/// Ticket lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TicketStatus {
    /// Awaiting an operator.
    Open,
    /// Resolved at the given time.
    Resolved(
        /// Resolution time.
        SimTime,
    ),
}

/// One trouble ticket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ticket {
    /// Ticket identity.
    pub id: TicketId,
    /// The affected site.
    pub site: SiteId,
    /// Problem category.
    pub kind: TicketKind,
    /// When the ticket was opened.
    pub opened: SimTime,
    /// Lifecycle state.
    pub status: TicketStatus,
    /// Person-hours booked against the ticket.
    pub effort_hours: f64,
}

/// The ticket system.
#[derive(Debug, Clone, Default)]
pub struct TicketSystem {
    ids: TicketIdGen,
    /// Every ticket ever opened; ticket `n` is `tickets[n]`.
    tickets: Vec<Ticket>,
    /// The open tickets as `(site, id)`, so each site's are in id order.
    /// Derived from `tickets`: snapshots leave it out, and decoding
    /// rebuilds it.
    open: BTreeSet<(SiteId, TicketId)>,
}

impl TicketSystem {
    /// An empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a ticket; returns its id.
    pub fn open(&mut self, site: SiteId, kind: TicketKind, now: SimTime) -> TicketId {
        let id = self.ids.next_id();
        self.open.insert((site, id));
        self.tickets.push(Ticket {
            id,
            site,
            kind,
            opened: now,
            status: TicketStatus::Open,
            effort_hours: 0.0,
        });
        id
    }

    /// Resolve a ticket at `now`, booking its kind's typical effort.
    /// Returns false for unknown or already-resolved tickets.
    pub fn resolve(&mut self, id: TicketId, now: SimTime) -> bool {
        match self.tickets.get_mut(id.index()) {
            Some(t) if matches!(t.status, TicketStatus::Open) => {
                t.status = TicketStatus::Resolved(now);
                t.effort_hours = t.kind.effort_hours();
                self.open.remove(&(t.site, id));
                true
            }
            _ => false,
        }
    }

    /// All tickets, in open order.
    pub fn tickets(&self) -> &[Ticket] {
        &self.tickets
    }

    /// One site's open tickets, in id order.
    pub fn open_at(&self, site: SiteId) -> impl Iterator<Item = &Ticket> {
        self.open
            .range((site, TicketId(0))..=(site, TicketId(u32::MAX)))
            .map(|&(_, id)| &self.tickets[id.index()])
    }

    /// Tickets opened against one site (the scan [`TicketSystem::open_at`]
    /// answers from its index).
    #[cfg(test)]
    fn for_site(&self, site: SiteId) -> impl Iterator<Item = &Ticket> {
        self.tickets.iter().filter(move |t| t.site == site)
    }

    /// Person-hours booked in `[from, to)`, attributed at resolution time.
    pub(crate) fn effort_in_window(&self, from: SimTime, to: SimTime) -> f64 {
        self.tickets
            .iter()
            .filter_map(|t| match t.status {
                TicketStatus::Resolved(at) if at >= from && at < to => Some(t.effort_hours),
                _ => None,
            })
            .sum()
    }

    /// Full-time-equivalents the booked effort represents over a window
    /// (40-hour work weeks).
    pub fn fte_in_window(&self, from: SimTime, to: SimTime) -> f64 {
        let hours = self.effort_in_window(from, to);
        let weeks = to.since(from).as_days_f64() / 7.0;
        if weeks <= 0.0 {
            return 0.0;
        }
        hours / (40.0 * weeks)
    }

    /// Mean time-to-resolve among resolved tickets.
    pub fn mean_resolution_time(&self) -> Option<SimDuration> {
        let resolved: Vec<f64> = self
            .tickets
            .iter()
            .filter_map(|t| match t.status {
                TicketStatus::Resolved(at) => Some(at.since(t.opened).as_secs_f64()),
                _ => None,
            })
            .collect();
        if resolved.is_empty() {
            None
        } else {
            Some(SimDuration::from_secs_f64(
                resolved.iter().sum::<f64>() / resolved.len() as f64,
            ))
        }
    }
}

/// The ticket system's snapshot layout: the id generator and every
/// ticket, without the derived open-ticket index.
#[derive(Serialize, Deserialize)]
struct TicketSystemWire<'a> {
    ids: Cow<'a, TicketIdGen>,
    tickets: Cow<'a, [Ticket]>,
}

impl TicketSystem {
    fn to_wire(&self) -> TicketSystemWire<'_> {
        TicketSystemWire {
            ids: Cow::Borrowed(&self.ids),
            tickets: Cow::Borrowed(&self.tickets),
        }
    }

    /// The system a decoded layout describes, with its index rebuilt;
    /// fails unless ticket `n` has id `n` and the generator hands out the
    /// next one.
    fn from_wire(wire: TicketSystemWire<'_>) -> Result<Self, &'static str> {
        let (ids, tickets) = (wire.ids.into_owned(), wire.tickets.into_owned());
        if ids.issued() as usize != tickets.len()
            || tickets.iter().enumerate().any(|(n, t)| t.id.index() != n)
        {
            return Err("ticket ids");
        }
        let open = tickets
            .iter()
            .filter(|t| matches!(t.status, TicketStatus::Open))
            .map(|t| (t.site, t.id))
            .collect();
        Ok(TicketSystem { ids, tickets, open })
    }
}

impl Serialize for TicketSystem {
    fn to_value(&self) -> serde::Value {
        self.to_wire().to_value()
    }
}

impl Deserialize for TicketSystem {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        TicketSystem::from_wire(TicketSystemWire::from_value(v)?).map_err(serde::DeError::msg)
    }
}

impl Encode for TicketSystem {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        self.to_wire().encode(out);
    }
}

impl Decode for TicketSystem {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        TicketSystem::from_wire(TicketSystemWire::decode(r)?).map_err(DecodeError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_and_resolve_lifecycle() {
        let mut ts = TicketSystem::new();
        let id = ts.open(SiteId(3), TicketKind::DiskFull, SimTime::from_hours(10));
        assert!(matches!(ts.tickets()[0].status, TicketStatus::Open));
        assert!(ts.resolve(id, SimTime::from_hours(16)));
        assert!(!ts.resolve(id, SimTime::from_hours(17)), "double resolve");
        assert!(!matches!(ts.tickets()[0].status, TicketStatus::Open));
        let t = &ts.tickets()[0];
        assert_eq!(t.effort_hours, TicketKind::DiskFull.effort_hours());
        assert_eq!(
            ts.mean_resolution_time().unwrap(),
            SimDuration::from_hours(6)
        );
    }

    #[test]
    fn effort_windows_attribute_at_resolution() {
        let mut ts = TicketSystem::new();
        let a = ts.open(SiteId(0), TicketKind::ServiceDown, SimTime::from_days(1));
        let b = ts.open(SiteId(1), TicketKind::Hardware, SimTime::from_days(1));
        ts.resolve(a, SimTime::from_days(2));
        ts.resolve(b, SimTime::from_days(20));
        let week1 = ts.effort_in_window(SimTime::EPOCH, SimTime::from_days(7));
        assert_eq!(week1, TicketKind::ServiceDown.effort_hours());
        let all = ts.effort_in_window(SimTime::EPOCH, SimTime::from_days(30));
        assert_eq!(
            all,
            TicketKind::ServiceDown.effort_hours() + TicketKind::Hardware.effort_hours()
        );
    }

    #[test]
    fn steady_state_load_is_under_two_fte() {
        // §7's shape: a stable 27-site grid generates a few tickets a week;
        // the implied load must land below 2 FTE.
        let mut ts = TicketSystem::new();
        let window_days = 28u64;
        // ~8 tickets/week of mixed kinds — a busy but stable grid.
        let kinds = [
            TicketKind::DiskFull,
            TicketKind::ServiceDown,
            TicketKind::UserReport,
            TicketKind::NetworkOutage,
        ];
        let mut n = 0u64;
        for day in 0..window_days {
            for (i, kind) in kinds.iter().enumerate() {
                if (day as usize + i).is_multiple_of(3) {
                    let id = ts.open(SiteId((n % 27) as u32), *kind, SimTime::from_days(day));
                    ts.resolve(id, SimTime::from_days(day) + SimDuration::from_hours(8));
                    n += 1;
                }
            }
        }
        let fte = ts.fte_in_window(SimTime::EPOCH, SimTime::from_days(window_days));
        assert!(fte < 2.0, "steady-state FTE {fte:.2} exceeds the target");
        assert!(fte > 0.1, "load should be non-trivial, got {fte:.2}");
    }

    #[test]
    fn per_site_queries() {
        let mut ts = TicketSystem::new();
        ts.open(SiteId(5), TicketKind::Misconfiguration, SimTime::EPOCH);
        ts.open(SiteId(6), TicketKind::DiskFull, SimTime::EPOCH);
        ts.open(SiteId(5), TicketKind::UserReport, SimTime::EPOCH);
        assert_eq!(ts.for_site(SiteId(5)).count(), 2);
        assert_eq!(ts.for_site(SiteId(9)).count(), 0);
    }

    #[test]
    fn empty_system_edge_cases() {
        let ts = TicketSystem::new();
        assert!(ts.mean_resolution_time().is_none());
        assert_eq!(ts.fte_in_window(SimTime::EPOCH, SimTime::EPOCH), 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const SITES: u32 = 4;

        /// Each site's open tickets from the index, against a scan of
        /// every ticket.
        fn assert_index_matches_scan(ts: &TicketSystem) {
            for site in (0..SITES).map(SiteId) {
                let index: Vec<TicketId> = ts.open_at(site).map(|t| t.id).collect();
                let scan: Vec<TicketId> = ts
                    .for_site(site)
                    .filter(|t| matches!(t.status, TicketStatus::Open))
                    .map(|t| t.id)
                    .collect();
                assert_eq!(index, scan, "{site}");
            }
        }

        proptest! {
            /// The open-ticket index answers like a scan through random
            /// opens and resolutions (repeated ones and unknown ids
            /// included), and keeps doing so after a snapshot round trip
            /// through either model cut in mid-sequence.
            #[test]
            fn open_ticket_index_matches_a_scan(
                ops in proptest::collection::vec((any::<bool>(), 0..SITES, 0u32..40, 0usize..3), 1..120),
                cut in 0usize..120,
                by_value in any::<bool>(),
            ) {
                let kinds = [TicketKind::DiskFull, TicketKind::ServiceDown, TicketKind::FailureStorm];
                let mut ts = TicketSystem::new();
                for (step, (open, site, ticket, kind)) in ops.into_iter().enumerate() {
                    if step == cut {
                        let back = if by_value {
                            TicketSystem::from_value(&ts.to_value()).unwrap()
                        } else {
                            let bytes = serde::binary::to_bytes(&ts);
                            let back: TicketSystem = serde::binary::from_bytes(&bytes).unwrap();
                            prop_assert!(serde::binary::to_bytes(&back) == bytes);
                            back
                        };
                        prop_assert_eq!(back.tickets(), ts.tickets());
                        assert_index_matches_scan(&back);
                        ts = back;
                    }
                    let now = SimTime::from_secs(step as u64);
                    if open {
                        ts.open(SiteId(site), kinds[kind], now);
                    } else {
                        ts.resolve(TicketId(ticket), now);
                    }
                    assert_index_matches_scan(&ts);
                }
            }
        }
    }
}

//! Operations-center policies: the acceptable-use policy (§5.4: "an
//! acceptable use policy modeled after that used by the LCG was adopted")
//! and the re-validation policy that closes the failure-feedback loop
//! (§6.2: sites return to the high-efficiency regime "once sites are
//! fully validated" after operator intervention).
//!
//! The AUP model captures the operational semantics: users must accept the
//! policy before their DN reaches any grid-map file, and the policy text
//! carries enumerable rules the operations center can point to.

use crate::tickets::TicketKind;
use grid3_simkit::ids::UserId;
use grid3_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How long a ticket of each kind takes to turn into a *repaired,
/// re-validated* site.
///
/// The delay is triage latency plus the ticket kind's central-effort
/// hours stretched by a wall-clock factor: iGOC staff are part-time
/// (§7's "typically 10 part-time" people), so an hour of booked effort
/// spans several hours of calendar time, and the site admins doing the
/// actual fix are on the far side of an email round-trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RevalidationPolicy {
    /// Queue time before an operator picks the ticket up.
    pub triage: SimDuration,
    /// Calendar hours consumed per booked effort hour.
    pub stretch: f64,
}

impl RevalidationPolicy {
    /// The calibration used by the resilience layer: two-hour triage,
    /// 3× calendar stretch (a 3-hour storm diagnosis lands the repair
    /// roughly half a working day after the storm trips).
    pub fn grid3() -> Self {
        RevalidationPolicy {
            triage: SimDuration::from_hours(2),
            stretch: 3.0,
        }
    }

    /// Wall-clock delay from ticket open to completed repair.
    pub fn repair_delay(&self, kind: TicketKind) -> SimDuration {
        self.triage + SimDuration::from_hours_f64(kind.effort_hours() * self.stretch)
    }
}

/// The acceptable-use policy and who accepted it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AcceptableUsePolicy {
    /// The enumerated rules (display text).
    pub rules: Vec<String>,
    /// When each user first accepted the policy.
    accepted: BTreeMap<UserId, SimTime>,
}

impl AcceptableUsePolicy {
    /// The LCG-modelled Grid3 policy.
    pub fn grid3() -> Self {
        AcceptableUsePolicy {
            rules: vec![
                "Resources are provided for the scientific goals of the participating VOs".into(),
                "No attempt shall be made to circumvent site-local security or allocation policy"
                    .into(),
                "Credentials are personal and shall not be shared".into(),
                "Usage is monitored and logged; logs may be shared with site administrators".into(),
                "Sites may suspend access without notice to protect their resources".into(),
            ],
            accepted: BTreeMap::new(),
        }
    }

    /// Record that `user` accepted the policy (idempotent: the first
    /// acceptance time stands).
    pub fn accept(&mut self, user: UserId, now: SimTime) {
        self.accepted.entry(user).or_insert(now);
    }

    /// Users in good standing.
    pub fn permitted_count(&self) -> usize {
        self.accepted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_registers_the_user() {
        let mut p = AcceptableUsePolicy::grid3();
        assert!(!p.rules.is_empty());
        p.accept(UserId(1), SimTime::EPOCH);
        assert_eq!(p.permitted_count(), 1);
    }

    #[test]
    fn acceptance_is_idempotent() {
        let mut p = AcceptableUsePolicy::grid3();
        p.accept(UserId(2), SimTime::EPOCH);
        p.accept(UserId(2), SimTime::from_days(5));
        assert_eq!(p.permitted_count(), 1);
    }

    #[test]
    fn repair_delay_scales_with_effort() {
        let p = RevalidationPolicy::grid3();
        let storm = p.repair_delay(TicketKind::FailureStorm);
        let hardware = p.repair_delay(TicketKind::Hardware);
        assert!(storm > p.triage);
        assert!(hardware > storm, "hardware repairs are the slow tail");
        // Storm: 2 h triage + 3 effort-hours × 3 stretch = 11 h.
        assert_eq!(storm, SimDuration::from_hours(11));
    }
}

//! Pluggable middleware personalities.
//!
//! Grid3 ran one stack — the VDT packaging of GRAM, MDS and RLS — but
//! the experiments it served did not: "Running CMS software on GRID
//! Testbeds" describes CMS production split between the US (Grid3/VDT)
//! and EU (EDG/LCG) deployments, whose middleware differed in exactly
//! the places users noticed — information-system refresh cadence, the
//! resource broker's ranking inputs, and retry discipline. A [`Backend`]
//! holds those knobs as plain data so one engine can run *federations*
//! of grids with distinct middleware personalities, selected per grid
//! by [`BackendKind`] rather than per process.
//!
//! The concrete services (`Gatekeeper`, `MdsDirectory`,
//! `ReplicaLocationService`) stay exactly as they are; a backend is the
//! *policy bundle* that parameterises them. [`BackendKind::Vdt`] is the
//! reference backend: its knobs are definitionally the constants the
//! engine has always used, so a grid running it behaves bit-identically
//! to the pre-federation engine. [`BackendKind::EdgLcg`] is the
//! contrasting personality: a BDII-style laggy information cadence, the
//! EDG resource broker's queue-depth ranking, a tighter overload
//! threshold, and a shorter, shallower retry schedule.

use crate::gram::{RetryPolicy, DEFAULT_OVERLOAD_THRESHOLD};
use grid3_simkit::time::SimDuration;
use serde::{Deserialize, Serialize};

/// What the grid's resource broker ranks eligible sites by, after the
/// hard criteria filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RankInputs {
    /// The §6.4 Grid3 ranking: free CPUs minus queue depth, WAN
    /// bandwidth as tie-break.
    #[default]
    HeadroomBandwidth,
    /// The EDG resource broker flavour (EstimatedTraversalTime):
    /// shortest queue first, free CPUs as tie-break.
    QueueDepth,
}

/// One grid's middleware personality: how hot its gatekeepers run
/// before refusing work and how failed submissions are retried
/// (compute), what its GRIS publishes, how often, and what the broker
/// ranks on (information), and how reliably output registration lands
/// (replica catalog).
#[derive(Debug, Clone, PartialEq)]
pub struct Backend {
    /// 1-minute load at which gatekeepers refuse new submissions.
    pub overload_threshold: f64,
    /// The retry discipline applied to transient submission failures.
    pub retry_policy: RetryPolicy,
    /// The software tag stamped into published GLUE records.
    pub software_tag: &'static str,
    /// Monitor ticks between record refreshes (1 = every sweep; 2 = the
    /// BDII-style laggy cadence where records hover near the TTL).
    pub refresh_period_ticks: u64,
    /// The broker's soft-ranking inputs for this grid.
    pub rank_inputs: RankInputs,
    /// Probability a job's output registration fails at the catalog.
    pub registration_failure_chance: f64,
}

/// The reference backend: the VDT stack Grid3 actually ran. Every knob
/// equals the constant the engine used before backends existed, which
/// is what makes a single-grid VDT federation bit-identical to the
/// legacy engine.
const VDT: Backend = Backend {
    overload_threshold: DEFAULT_OVERLOAD_THRESHOLD,
    retry_policy: RetryPolicy::grid3_default(),
    software_tag: "VDT-1.1.8",
    refresh_period_ticks: 1,
    rank_inputs: RankInputs::HeadroomBandwidth,
    registration_failure_chance: 0.002,
};

/// The contrasting EDG/LCG personality: BDII-cadence information (every
/// second sweep, so records hover near the TTL), the EDG resource
/// broker's queue-depth ranking, a tighter gatekeeper threshold, and a
/// shorter, shallower retry ladder — the operational texture CMS
/// reported from the EU side of its split production.
const EDG_LCG: Backend = Backend {
    overload_threshold: 350.0,
    retry_policy: RetryPolicy {
        max_retries: 3,
        base: SimDuration::from_mins(10),
        multiplier: 2.0,
        max_delay: SimDuration::from_hours(1),
        jitter: 0.5,
    },
    software_tag: "EDG-2.0-LCG1",
    refresh_period_ticks: 2,
    rank_inputs: RankInputs::QueueDepth,
    registration_failure_chance: 0.005,
};

/// Serde-able backend selector: the per-grid configuration knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// The Grid3 reference stack (bit-identical to the legacy engine).
    #[default]
    Vdt,
    /// The contrasting EDG/LCG personality.
    EdgLcg,
}

impl BackendKind {
    /// Short machine-readable name (journals, report splits).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Vdt => "vdt",
            BackendKind::EdgLcg => "edg-lcg",
        }
    }

    /// This personality's knobs.
    pub fn knobs(self) -> &'static Backend {
        match self {
            BackendKind::Vdt => &VDT,
            BackendKind::EdgLcg => &EDG_LCG,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference backend must equal the legacy constants exactly —
    /// this is what every golden in `tests/determinism.rs` leans on.
    #[test]
    fn vdt_knobs_match_legacy_constants() {
        let legacy = Backend {
            overload_threshold: DEFAULT_OVERLOAD_THRESHOLD,
            retry_policy: RetryPolicy::grid3_default(),
            software_tag: "VDT-1.1.8",
            refresh_period_ticks: 1,
            rank_inputs: RankInputs::HeadroomBandwidth,
            registration_failure_chance: 0.002,
        };
        assert_eq!(*BackendKind::Vdt.knobs(), legacy);
        assert_eq!(BackendKind::Vdt.name(), "vdt");
    }

    /// The contrasting backend must differ on every knob, or the
    /// two-grid scenario would not exercise the abstraction.
    #[test]
    fn edg_lcg_contrasts_on_every_knob() {
        let v = BackendKind::Vdt.knobs();
        let e = BackendKind::EdgLcg.knobs();
        assert_ne!(e.software_tag, v.software_tag);
        assert_ne!(e.refresh_period_ticks, v.refresh_period_ticks);
        assert_ne!(e.rank_inputs, v.rank_inputs);
        assert_ne!(e.overload_threshold, v.overload_threshold);
        assert_ne!(e.retry_policy, v.retry_policy);
        assert_ne!(e.registration_failure_chance, v.registration_failure_chance);
        // The EDG retry ladder is strictly shallower and shorter.
        assert!(e.retry_policy.max_retries < v.retry_policy.max_retries);
        assert!(e.retry_policy.max_delay < v.retry_policy.max_delay);
    }

    #[test]
    fn backend_kind_serde_round_trips() {
        for k in [BackendKind::Vdt, BackendKind::EdgLcg] {
            let json = serde_json::to_string(&k).unwrap();
            let back: BackendKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, k);
        }
        assert_eq!(BackendKind::default(), BackendKind::Vdt);
    }
}

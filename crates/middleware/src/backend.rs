//! Pluggable middleware personalities.
//!
//! Grid3 ran one stack — the VDT packaging of GRAM, MDS and RLS — but
//! the experiments it served did not: "Running CMS software on GRID
//! Testbeds" describes CMS production split between the US (Grid3/VDT)
//! and EU (EDG/LCG) deployments, whose middleware differed in exactly
//! the places users noticed — information-system refresh cadence, the
//! resource broker's ranking inputs, and retry discipline. These traits
//! abstract those knobs so one engine can run *federations* of grids
//! with distinct middleware personalities, selected per grid rather
//! than per process.
//!
//! The concrete services (`Gatekeeper`, `MdsDirectory`,
//! `ReplicaLocationService`) stay exactly as they are; a backend is the
//! *policy bundle* that parameterises them. [`Vdt`] is the reference
//! backend: its knobs are definitionally the constants the engine has
//! always used, so a grid running `Vdt` behaves bit-identically to the
//! pre-federation engine. [`EdgLcg`] is the contrasting personality: a
//! BDII-style laggy information cadence, the EDG resource broker's
//! queue-depth ranking, a tighter overload threshold, and a shorter,
//! shallower retry schedule.

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

/// The job-submission personality of one grid's compute middleware: how
/// hot its gatekeepers run before refusing work, and how failed
/// submissions are retried.
pub trait ComputeBackend {
    /// Human-readable stack name (for reports and journals).
    fn name(&self) -> &'static str;
    /// 1-minute load at which gatekeepers refuse new submissions.
    fn overload_threshold(&self) -> f64;
    /// The retry discipline applied to transient submission failures.
    fn retry_policy(&self) -> RetryPolicy;
}

/// The information-system personality: what the GRIS publishes itself
/// as, how often it refreshes, and what the broker ranks on.
pub trait InfoBackend {
    /// The software tag stamped into published GLUE records.
    fn software_tag(&self) -> &'static str;
    /// Monitor ticks between record refreshes (1 = every sweep; 2 = the
    /// BDII-style laggy cadence where records hover near the TTL).
    fn refresh_period_ticks(&self) -> u64;
    /// The broker's soft-ranking inputs for this grid.
    fn rank_inputs(&self) -> RankInputs;
}

/// The replica-catalog personality: how reliably output registration
/// lands.
pub trait ReplicaBackend {
    /// Probability a job's output registration fails at the catalog.
    fn registration_failure_chance(&self) -> f64;
}

/// The reference backend: the VDT stack Grid3 actually ran. Every knob
/// equals the constant the engine used before backends existed, which
/// is what makes a single-grid `Vdt` federation bit-identical to the
/// legacy engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Vdt;

impl ComputeBackend for Vdt {
    fn name(&self) -> &'static str {
        "VDT"
    }
    fn overload_threshold(&self) -> f64 {
        DEFAULT_OVERLOAD_THRESHOLD
    }
    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::grid3_default()
    }
}

impl InfoBackend for Vdt {
    fn software_tag(&self) -> &'static str {
        "VDT-1.1.8"
    }
    fn refresh_period_ticks(&self) -> u64 {
        1
    }
    fn rank_inputs(&self) -> RankInputs {
        RankInputs::HeadroomBandwidth
    }
}

impl ReplicaBackend for Vdt {
    fn registration_failure_chance(&self) -> f64 {
        0.002
    }
}

/// The contrasting EDG/LCG personality: BDII-cadence information (every
/// second sweep, so records hover near the TTL), the EDG resource
/// broker's queue-depth ranking, a tighter gatekeeper threshold, and a
/// shorter, shallower retry ladder — the operational texture CMS
/// reported from the EU side of its split production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EdgLcg;

impl ComputeBackend for EdgLcg {
    fn name(&self) -> &'static str {
        "EDG/LCG"
    }
    fn overload_threshold(&self) -> f64 {
        350.0
    }
    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base: SimDuration::from_mins(10),
            multiplier: 2.0,
            max_delay: SimDuration::from_hours(1),
            jitter: 0.5,
        }
    }
}

impl InfoBackend for EdgLcg {
    fn software_tag(&self) -> &'static str {
        "EDG-2.0-LCG1"
    }
    fn refresh_period_ticks(&self) -> u64 {
        2
    }
    fn rank_inputs(&self) -> RankInputs {
        RankInputs::QueueDepth
    }
}

impl ReplicaBackend for EdgLcg {
    fn registration_failure_chance(&self) -> f64 {
        0.005
    }
}

static VDT: Vdt = Vdt;
static EDG_LCG: EdgLcg = EdgLcg;

/// Serde-able backend selector: the per-grid configuration knob. The
/// accessors return the corresponding personality as a trait object, so
/// call sites depend on the traits rather than the concrete types.
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

    /// The compute (GRAM-side) personality.
    pub fn compute(&self) -> &'static dyn ComputeBackend {
        match self {
            BackendKind::Vdt => &VDT,
            BackendKind::EdgLcg => &EDG_LCG,
        }
    }

    /// The information-system (MDS-side) personality.
    pub fn info(&self) -> &'static dyn InfoBackend {
        match self {
            BackendKind::Vdt => &VDT,
            BackendKind::EdgLcg => &EDG_LCG,
        }
    }

    /// The replica-catalog (RLS-side) personality.
    pub fn replica(&self) -> &'static dyn ReplicaBackend {
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
        let k = BackendKind::Vdt;
        assert_eq!(k.info().software_tag(), "VDT-1.1.8");
        assert_eq!(k.info().refresh_period_ticks(), 1);
        assert_eq!(k.info().rank_inputs(), RankInputs::HeadroomBandwidth);
        assert_eq!(k.compute().overload_threshold(), DEFAULT_OVERLOAD_THRESHOLD);
        assert_eq!(k.compute().retry_policy(), RetryPolicy::grid3_default());
        assert_eq!(k.replica().registration_failure_chance(), 0.002);
        assert_eq!(k.name(), "vdt");
    }

    /// The contrasting backend must differ on every knob, or the
    /// two-grid scenario would not exercise the abstraction.
    #[test]
    fn edg_lcg_contrasts_on_every_knob() {
        let v = BackendKind::Vdt;
        let e = BackendKind::EdgLcg;
        assert_ne!(e.info().software_tag(), v.info().software_tag());
        assert_ne!(
            e.info().refresh_period_ticks(),
            v.info().refresh_period_ticks()
        );
        assert_ne!(e.info().rank_inputs(), v.info().rank_inputs());
        assert_ne!(
            e.compute().overload_threshold(),
            v.compute().overload_threshold()
        );
        assert_ne!(e.compute().retry_policy(), v.compute().retry_policy());
        assert_ne!(
            e.replica().registration_failure_chance(),
            v.replica().registration_failure_chance()
        );
        // The EDG retry ladder is strictly shallower and shorter.
        let p = e.compute().retry_policy();
        assert!(p.max_retries < RetryPolicy::grid3_default().max_retries);
        assert!(p.max_delay < RetryPolicy::grid3_default().max_delay);
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

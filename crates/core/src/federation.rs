//! Federated multi-grid configuration and runtime state.
//!
//! Grid3 was one grid, but its workloads were not: CMS production ran
//! split between the US (Grid3/VDT) and EU (EDG/LCG) middleware stacks.
//! A [`Federation`] partitions the site catalog into N member grids,
//! each with its own site set, VO admission policy, and middleware
//! [`BackendKind`] personality. The engine stays one event loop over
//! one site vector — federation is a *labelling* of that world plus the
//! cross-grid machinery it enables: hierarchical MDS peering
//! ([`MdsPeering`]), cross-grid VO brokering, and inter-grid GridFTP
//! replication for stage-in.
//!
//! The conservative contract: a run with no federation configured (or a
//! single-grid federation running the [`BackendKind::Vdt`] backend) is
//! bit-identical to the pre-federation engine — every multi-grid branch
//! in the subsystems is gated on `FederationState::is_single`.

use std::borrow::Cow;

use crate::topology::Topology;
use grid3_middleware::backend::BackendKind;
use grid3_middleware::mds::MdsPeering;
use grid3_simkit::ids::{GridId, SiteId};
use grid3_simkit::time::SimDuration;
use grid3_simkit::units::Bytes;
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};

/// Configuration for one member grid of a federation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Grid name (reports, journals).
    pub name: String,
    /// Middleware personality this grid runs.
    #[serde(default)]
    pub backend: BackendKind,
    /// Base site names belonging to this grid. Replica suffixes
    /// (`"FNAL_CMS_Tier1~3"`) are stripped before matching, so a
    /// scaled-out topology federates the same way as the base catalog.
    /// Grid 0 is the catch-all: sites listed by no grid land there.
    #[serde(default)]
    pub sites: Vec<String>,
    /// VOs this grid admits for brokering (`None` = all six).
    #[serde(default)]
    pub admits: Option<Vec<Vo>>,
}

fn default_staleness() -> SimDuration {
    SimDuration::from_hours(6)
}

/// The federation layer of a scenario: N member grids plus the
/// federation-level directory staleness horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Federation {
    /// Member grids in [`GridId`] order. Grid 0 is the catch-all for
    /// sites no other grid claims.
    pub grids: Vec<GridSpec>,
    /// How stale a member grid's aggregated directory may look before
    /// the federation vetoes cross-grid placement into it. Must cover
    /// the laggiest member's refresh cadence (EDG/LCG publishes every
    /// second monitor sweep).
    #[serde(default = "default_staleness")]
    pub staleness: SimDuration,
}

impl Federation {
    /// A federation over `grids`, with the default staleness horizon.
    pub fn new(grids: Vec<GridSpec>) -> Self {
        Federation {
            grids,
            staleness: default_staleness(),
        }
    }
}

/// A shared, immutable site→grid labelling, cheap to clone: the ops
/// journal stamps each record's grid from it. Empty in single-grid
/// runs: every site resolves to grid 0.
#[derive(Debug, Clone, Default)]
pub(crate) struct GridMap(std::rc::Rc<Vec<GridId>>);

impl GridMap {
    /// A labelling from a dense site-indexed vector (empty = all grid 0).
    pub fn new(grid_of: Vec<GridId>) -> Self {
        GridMap(std::rc::Rc::new(grid_of))
    }

    /// The grid a site belongs to.
    #[inline]
    pub fn grid_of(&self, site: SiteId) -> GridId {
        self.0.get(site.index()).copied().unwrap_or(GridId(0))
    }

    /// Whether this is the degenerate single-grid labelling.
    #[inline]
    pub(crate) fn is_single(&self) -> bool {
        self.0.is_empty()
    }
}

/// One member grid at runtime.
#[derive(Debug, Clone)]
pub struct GridRuntime {
    /// The grid's id (its index in the federation).
    pub id: GridId,
    /// Grid name.
    pub name: String,
    /// Middleware personality.
    pub backend: BackendKind,
    /// VOs admitted for brokering (`None` = all).
    pub admits: Option<Vec<Vo>>,
    /// Sites labelled into this grid.
    pub site_count: usize,
}

impl GridRuntime {
    /// Whether this grid admits `vo` for brokering.
    pub fn admits(&self, vo: Vo) -> bool {
        match &self.admits {
            None => true,
            Some(vs) => vs.contains(&vo),
        }
    }
}

/// Per-grid terminal-job tally (the per-grid efficiency split).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct GridTally {
    /// Jobs that finished successfully at this grid's sites.
    pub completed: u64,
    /// Jobs that failed at this grid's sites.
    pub failed: u64,
}

/// The assembled federation: site→grid labelling, member runtimes, the
/// hierarchical MDS peering table, and the cross-grid accounting the
/// report splits on. Lives on the `GridFabric`.
#[derive(Debug, Clone)]
pub struct FederationState {
    grids: Vec<GridRuntime>,
    /// Dense by `site.index()`.
    grid_of: Vec<GridId>,
    /// The federation-level directory (only consulted multi-grid).
    pub peering: MdsPeering,
    /// Dense by `Vo::index()`: the grid a VO's work is offered to first.
    home: Vec<GridId>,
    /// Dense by grid index: terminal-job tallies.
    tally: Vec<GridTally>,
    /// Stage-in transfers that crossed a grid boundary.
    pub cross_grid_stage_ins: u64,
    /// Bytes those transfers moved.
    pub cross_grid_stage_in_bytes: Bytes,
}

impl FederationState {
    /// The degenerate single-grid federation every non-federated run
    /// uses: one `Vdt` grid over all sites, admitting everything.
    pub fn single(site_count: usize) -> Self {
        FederationState {
            grids: vec![GridRuntime {
                id: GridId(0),
                name: "grid3".to_string(),
                backend: BackendKind::Vdt,
                admits: None,
                site_count,
            }],
            grid_of: Vec::new(),
            peering: MdsPeering::new(1, default_staleness()),
            home: vec![GridId(0); Vo::ALL.len()],
            tally: vec![GridTally::default()],
            cross_grid_stage_ins: 0,
            cross_grid_stage_in_bytes: Bytes::ZERO,
        }
    }

    /// Label `topo`'s sites into `fed`'s member grids. Sites claimed by
    /// no grid fall to grid 0; replica suffixes (`"~k"`) are stripped
    /// before matching so scaled-out topologies federate like the base
    /// catalog. Each VO's home grid is the grid of its archive site
    /// when that grid admits it, else the lowest-id admitting grid.
    pub fn build(fed: &Federation, topo: &Topology) -> Self {
        assert!(!fed.grids.is_empty(), "federation needs at least one grid");
        let mut grids: Vec<GridRuntime> = fed
            .grids
            .iter()
            .enumerate()
            .map(|(i, g)| GridRuntime {
                id: GridId(i as u32),
                name: g.name.clone(),
                backend: g.backend,
                admits: g.admits.clone(),
                site_count: 0,
            })
            .collect();
        let grid_of: Vec<GridId> = topo
            .specs
            .iter()
            .map(|s| {
                let base = s.name.split('~').next().unwrap_or(&s.name);
                let g = fed
                    .grids
                    .iter()
                    .enumerate()
                    .skip(1)
                    .find(|(_, spec)| spec.sites.iter().any(|n| n == base))
                    .map_or(0, |(i, _)| i);
                GridId(g as u32)
            })
            .collect();
        for g in &grid_of {
            grids[g.index()].site_count += 1;
        }
        let home = Vo::ALL
            .iter()
            .map(|&vo| {
                let archive_grid = grid_of[topo.archive_site(vo).index()];
                if grids[archive_grid.index()].admits(vo) {
                    archive_grid
                } else {
                    grids
                        .iter()
                        .find(|g| g.admits(vo))
                        .map_or(GridId(0), |g| g.id)
                }
            })
            .collect();
        let n = grids.len();
        FederationState {
            grids,
            grid_of,
            peering: MdsPeering::new(n, fed.staleness),
            home,
            tally: vec![GridTally::default(); n],
            cross_grid_stage_ins: 0,
            cross_grid_stage_in_bytes: Bytes::ZERO,
        }
    }

    /// Whether this is the degenerate one-grid federation — the gate on
    /// every multi-grid branch in the subsystems.
    #[inline]
    pub(crate) fn is_single(&self) -> bool {
        self.grids.len() == 1
    }

    /// Member grids in id order.
    pub fn grids(&self) -> &[GridRuntime] {
        &self.grids
    }

    /// The grid a site belongs to (grid 0 in single-grid runs).
    #[inline]
    pub fn grid_of(&self, site: SiteId) -> GridId {
        self.grid_of.get(site.index()).copied().unwrap_or(GridId(0))
    }

    /// The site→grid labelling, dense by site index (empty in
    /// single-grid runs — every site is implicitly grid 0).
    pub(crate) fn grid_map(&self) -> &[GridId] {
        &self.grid_of
    }

    /// The grid `vo`'s work is offered to first.
    #[inline]
    pub fn home_grid(&self, vo: Vo) -> GridId {
        self.home[vo.index()]
    }

    /// Record a terminal job outcome at `site` into its grid's tally.
    #[inline]
    pub(crate) fn record_outcome(&mut self, site: SiteId, success: bool) {
        let g = self.grid_of(site).index();
        let t = &mut self.tally[g];
        if success {
            t.completed += 1;
        } else {
            t.failed += 1;
        }
    }

    /// A grid's terminal-job tally.
    pub fn tally_of(&self, grid: GridId) -> GridTally {
        self.tally.get(grid.index()).copied().unwrap_or_default()
    }

    /// Record a stage-in transfer that crossed a grid boundary.
    #[inline]
    pub(crate) fn record_cross_stage_in(&mut self, bytes: Bytes) {
        self.cross_grid_stage_ins += 1;
        self.cross_grid_stage_in_bytes += bytes;
    }

    /// The run-mutated slice of this state, for engine snapshots. The
    /// structural parts (member runtimes, site labelling, VO homes) are
    /// pure functions of the scenario config, so a restore rebuilds them
    /// via [`FederationState::build`]/[`FederationState::single`] and
    /// overlays only what the run changed.
    pub fn capture(&self) -> FederationCapture<'_> {
        FederationCapture {
            peering: Cow::Borrowed(&self.peering),
            tally: Cow::Borrowed(&self.tally),
            cross_grid_stage_ins: self.cross_grid_stage_ins,
            cross_grid_stage_in_bytes: self.cross_grid_stage_in_bytes,
        }
    }

    /// Overlay a captured run-mutated slice onto a freshly built state.
    pub fn apply(&mut self, cap: FederationCapture<'_>) {
        self.peering = cap.peering.into_owned();
        self.tally = cap.tally.into_owned();
        self.cross_grid_stage_ins = cap.cross_grid_stage_ins;
        self.cross_grid_stage_in_bytes = cap.cross_grid_stage_in_bytes;
    }
}

/// The run-mutated slice of [`FederationState`] that engine snapshots
/// carry (see [`FederationState::capture`]), borrowed from the live
/// state or owned once decoded.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederationCapture<'a> {
    /// Federation-level directory state.
    pub peering: Cow<'a, MdsPeering>,
    /// Per-grid terminal-job tallies.
    pub tally: Cow<'a, [GridTally]>,
    /// Cross-grid stage-in count.
    pub cross_grid_stage_ins: u64,
    /// Cross-grid stage-in volume.
    pub cross_grid_stage_in_bytes: Bytes,
}

impl FederationCapture<'_> {
    /// A capture that owns its parts, cloning what this one borrows.
    pub(crate) fn into_owned(self) -> FederationCapture<'static> {
        FederationCapture {
            peering: Cow::Owned(self.peering.into_owned()),
            tally: Cow::Owned(self.tally.into_owned()),
            cross_grid_stage_ins: self.cross_grid_stage_ins,
            cross_grid_stage_in_bytes: self.cross_grid_stage_in_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::grid3_topology;

    fn two_grid_fed() -> Federation {
        Federation::new(vec![
            GridSpec {
                name: "grid3".into(),
                backend: BackendKind::Vdt,
                sites: Vec::new(),
                admits: None,
            },
            GridSpec {
                name: "edg".into(),
                backend: BackendKind::EdgLcg,
                sites: vec![
                    "FNAL_CMS_Tier1".into(),
                    "Caltech_Tier2".into(),
                    "UCSD_Tier2".into(),
                    "UFlorida_Tier2".into(),
                    "KNU_KISTI".into(),
                    "Rice_CMS".into(),
                ],
                admits: Some(vec![Vo::Uscms, Vo::Btev]),
            },
        ])
    }

    #[test]
    fn single_grid_state_is_degenerate() {
        let fs = FederationState::single(30);
        assert!(fs.is_single());
        assert_eq!(fs.grids().len(), 1);
        assert_eq!(fs.grid_of(SiteId(17)), GridId(0));
        for vo in Vo::ALL {
            assert_eq!(fs.home_grid(vo), GridId(0));
        }
        assert!(fs.grid_map().is_empty());
    }

    #[test]
    fn build_labels_sites_and_homes() {
        let topo = grid3_topology();
        let fs = FederationState::build(&two_grid_fed(), &topo);
        assert!(!fs.is_single());
        assert_eq!(fs.grids().len(), 2);
        // The six listed CMS sites land in grid 1, the rest in grid 0.
        assert_eq!(fs.grids()[1].site_count, 6);
        assert_eq!(fs.grids()[0].site_count, topo.len() - 6);
        let fnal = topo.archive_site(Vo::Uscms);
        assert_eq!(fs.grid_of(fnal), GridId(1));
        assert_eq!(fs.grid_of(topo.archive_site(Vo::Usatlas)), GridId(0));
        // CMS is homed on the EDG grid (its archive's grid admits it);
        // SDSS's archive is also FNAL, but the EDG grid refuses SDSS, so
        // it homes on the lowest-id admitting grid.
        assert_eq!(fs.home_grid(Vo::Uscms), GridId(1));
        assert_eq!(fs.home_grid(Vo::Sdss), GridId(0));
        assert_eq!(fs.home_grid(Vo::Usatlas), GridId(0));
    }

    #[test]
    fn replica_suffixes_match_base_names() {
        let topo = grid3_topology().replicated(3);
        let fs = FederationState::build(&two_grid_fed(), &topo);
        // Every replica round contributes its six CMS sites.
        assert_eq!(fs.grids()[1].site_count, 18);
        let base = grid3_topology().len();
        let fnal = topo.archive_site(Vo::Uscms);
        assert_eq!(fs.grid_of(fnal), GridId(1));
        assert_eq!(fs.grid_of(SiteId(fnal.0 + base as u32)), GridId(1));
    }

    #[test]
    fn tallies_and_cross_grid_accounting() {
        let topo = grid3_topology();
        let mut fs = FederationState::build(&two_grid_fed(), &topo);
        let fnal = topo.archive_site(Vo::Uscms);
        fs.record_outcome(fnal, true);
        fs.record_outcome(fnal, false);
        fs.record_outcome(SiteId(0), true);
        assert_eq!(fs.tally_of(GridId(1)).completed, 1);
        assert_eq!(fs.tally_of(GridId(1)).failed, 1);
        assert_eq!(fs.tally_of(GridId(0)).completed, 1);
        fs.record_cross_stage_in(Bytes::from_gb(2));
        assert_eq!(fs.cross_grid_stage_ins, 1);
        assert_eq!(fs.cross_grid_stage_in_bytes, Bytes::from_gb(2));
    }

    #[test]
    fn federation_config_serde_round_trips() {
        let fed = two_grid_fed();
        let json = serde_json::to_string(&fed).unwrap();
        let back: Federation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fed);
        // Old-style JSON without the staleness field still parses.
        let legacy = r#"{"grids":[{"name":"g"}]}"#;
        let fed: Federation = serde_json::from_str(legacy).unwrap();
        assert_eq!(fed.staleness, SimDuration::from_hours(6));
        assert_eq!(fed.grids[0].backend, BackendKind::Vdt);
        assert!(fed.grids[0].admits.is_none());
    }
}

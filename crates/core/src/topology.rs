//! The Grid3 resource inventory.
//!
//! §7: "Number of CPUs (target = 400, actual = 2163). The number of
//! processors in Grid3 fluctuates over time as sites introduce and
//! withdraw resources. A peak of over 2800 processors occurred during
//! SC2003. More than 60 % of CPU resources are drawn from non-dedicated
//! facilities." The paper lists 27 sites; the per-site CPU counts below
//! are plausible splits (the paper publishes only the totals) chosen to
//! sum to exactly 2163 steady CPUs, with SC2003 surge resources pushing
//! the peak past 2800.
//!
//! One facility (the ACDC cluster at U. Buffalo) rolls its worker nodes
//! nightly — the §6.1 incident ("we did not handle ACDC's nightly roll
//! over of worker nodes gracefully, and so jobs still running had to be
//! re-processed").

use grid3_simkit::ids::SiteId;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::{Bandwidth, Bytes};
use grid3_site::cluster::{Site, SitePolicy, SiteProfile, SiteTier};
use grid3_site::failure::FailureModel;
use grid3_site::scheduler::SchedulerKind;
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};

/// Declarative description of one site before construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteSpec {
    /// Facility name. Owned so scaled-out topologies can carry suffixed
    /// replica names (`"BNL_ATLAS_Tier1~2"`).
    pub name: String,
    /// Facility class.
    pub tier: SiteTier,
    /// Operating VO.
    pub owner_vo: Option<Vo>,
    /// Batch slots.
    pub cpus: u32,
    /// Node speed vs the 2 GHz reference.
    pub node_speed: f64,
    /// Worker outbound connectivity.
    pub outbound: bool,
    /// WAN bandwidth, Mbit/s.
    pub wan_mbit: f64,
    /// Storage element capacity, TB.
    pub storage_tb: u64,
    /// Scheduler family.
    pub scheduler: SchedulerKind,
    /// Dedicated to Grid3?
    pub dedicated: bool,
    /// Maximum walltime granted, hours.
    pub max_walltime_hr: u64,
    /// VOs admitted by local policy (`None` = all six). §7's "sites
    /// running concurrent applications" metric counts multi-VO-capable
    /// sites: 17 of the 27, the rest being locked to their owner VO.
    pub allowed_vos: Option<Vec<Vo>>,
    /// Nightly worker rollover (ACDC)?
    pub nightly_rollover: bool,
    /// When the site joins the grid (days from epoch).
    pub online_from_day: u64,
    /// When the site withdraws, if ever (days from epoch).
    pub offline_after_day: Option<u64>,
}

/// The whole inventory plus archive-site routing.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Site specs in id order.
    pub specs: Vec<SiteSpec>,
}

impl Topology {
    /// Construct the runtime [`Site`] objects.
    pub fn build_sites(&self) -> Vec<Site> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut failures = FailureModel::grid3_default();
                failures.nightly_rollover = s.nightly_rollover;
                Site::new(
                    SiteId(i as u32),
                    SiteProfile {
                        name: s.name.clone(),
                        tier: s.tier,
                        owner_vo: s.owner_vo,
                        cpus: s.cpus,
                        node_speed: s.node_speed,
                        outbound_connectivity: s.outbound,
                        wan_bandwidth: Bandwidth::from_mbit_per_sec(s.wan_mbit),
                        storage_capacity: Bytes::from_tb(s.storage_tb),
                        scheduler: s.scheduler,
                        dedicated: s.dedicated,
                        policy: SitePolicy {
                            max_walltime: SimDuration::from_hours(s.max_walltime_hr),
                            allowed_vos: s.allowed_vos.clone(),
                        },
                        failures,
                    },
                )
            })
            .collect()
    }

    /// Steady-state CPU count (sites online from day 0 with no withdrawal).
    pub fn steady_cpus(&self) -> u32 {
        self.specs
            .iter()
            .filter(|s| s.online_from_day == 0 && s.offline_after_day.is_none())
            .map(|s| s.cpus)
            .sum()
    }

    /// Peak CPU count (every site online simultaneously — the SC2003
    /// surge window).
    pub fn peak_cpus(&self) -> u32 {
        self.specs.iter().map(|s| s.cpus).sum()
    }

    /// Whether a site is online at `t`.
    pub(crate) fn is_online(&self, site: SiteId, t: SimTime) -> bool {
        let s = &self.specs[site.index()];
        let day = t.day_index();
        day >= s.online_from_day && s.offline_after_day.map(|d| day <= d).unwrap_or(true)
    }

    /// The archive (Tier-1 / home) site for a VO: ATLAS and LIGO data
    /// flows through BNL and the LIGO lab respectively, CMS/BTeV/SDSS
    /// through Fermilab, iVDGL through the IU operations hub (§4, §5.4).
    pub fn archive_site(&self, vo: Vo) -> SiteId {
        let name = match vo {
            Vo::Usatlas => "BNL_ATLAS_Tier1",
            Vo::Uscms | Vo::Btev | Vo::Sdss => "FNAL_CMS_Tier1",
            Vo::Ligo => "PSU_LIGO",
            Vo::Ivdgl => "IU_iGOC",
        };
        SiteId(
            self.specs
                .iter()
                .position(|s| s.name == name)
                .expect("archive site present") as u32,
        )
    }

    /// Scale the inventory out `factor`×: the original specs keep their
    /// names and ids, and each extra replica round appends a full copy of
    /// the catalog with `~k`-suffixed names (distinct names drive
    /// distinct per-site RNG streams during assembly). Archive routing is
    /// untouched — [`Topology::archive_site`] matches the base names,
    /// which come first. This is the stress topology behind
    /// [`crate::scenario::ScenarioConfig::scale_out`].
    pub fn replicated(mut self, factor: usize) -> Topology {
        let base = self.specs.clone();
        for k in 1..factor.max(1) {
            self.specs.extend(base.iter().map(|s| {
                let mut r = s.clone();
                r.name = format!("{}~{k}", s.name);
                r
            }));
        }
        self
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when no sites are defined.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// One line of the inventory table.
#[allow(clippy::too_many_arguments)]
fn spec(
    name: &'static str,
    tier: SiteTier,
    owner_vo: Option<Vo>,
    cpus: u32,
    node_speed: f64,
    outbound: bool,
    wan_mbit: f64,
    storage_tb: u64,
    scheduler: SchedulerKind,
    dedicated: bool,
    max_walltime_hr: u64,
) -> SiteSpec {
    SiteSpec {
        name: name.to_string(),
        tier,
        owner_vo,
        cpus,
        node_speed,
        outbound,
        wan_mbit,
        storage_tb,
        scheduler,
        dedicated,
        max_walltime_hr,
        allowed_vos: None,
        nightly_rollover: false,
        online_from_day: 0,
        offline_after_day: None,
    }
}

/// The Grid3 production topology: 27 steady sites summing to 2163 CPUs,
/// plus three SC2003 surge contributions lifting the peak past 2800.
pub fn grid3_topology() -> Topology {
    use SchedulerKind::*;
    use SiteTier::*;
    use Vo::*;
    let mut specs = vec![
        // Tier-1 anchors.
        spec(
            "BNL_ATLAS_Tier1",
            Tier1,
            Some(Usatlas),
            280,
            1.0,
            true,
            622.0,
            60,
            CondorFairShare,
            false,
            96,
        ),
        spec(
            "FNAL_CMS_Tier1",
            Tier1,
            Some(Uscms),
            300,
            1.1,
            true,
            622.0,
            80,
            CondorFairShare,
            false,
            1_400,
        ),
        // Large Tier-2 / lab facilities.
        spec(
            "UWMadison_CS",
            Tier2,
            Some(Ivdgl),
            130,
            1.0,
            true,
            155.0,
            10,
            CondorFairShare,
            false,
            72,
        ),
        spec(
            "LBNL_PDSF",
            Tier2,
            None,
            120,
            0.9,
            true,
            155.0,
            20,
            Lsf,
            false,
            48,
        ),
        spec(
            "Caltech_Tier2",
            Tier2,
            Some(Uscms),
            112,
            1.2,
            true,
            155.0,
            12,
            CondorFairShare,
            true,
            1_400,
        ),
        spec(
            "UCSD_Tier2",
            Tier2,
            Some(Uscms),
            112,
            1.2,
            true,
            155.0,
            10,
            CondorFairShare,
            false,
            1_400,
        ),
        spec(
            "UFlorida_Tier2",
            Tier2,
            Some(Uscms),
            96,
            1.1,
            true,
            155.0,
            10,
            OpenPbs,
            true,
            1_400,
        ),
        spec(
            "UB_ACDC",
            Tier2,
            Some(Ivdgl),
            78,
            0.9,
            false,
            100.0,
            8,
            OpenPbs,
            false,
            24,
        ),
        spec(
            "IU_iGOC",
            Tier2,
            Some(Ivdgl),
            96,
            1.0,
            true,
            155.0,
            15,
            OpenPbs,
            false,
            72,
        ),
        spec(
            "UC_ATLAS_Tier2",
            Tier2,
            Some(Usatlas),
            96,
            1.0,
            true,
            155.0,
            8,
            OpenPbs,
            true,
            72,
        ),
        spec(
            "BU_ATLAS_Tier2",
            Tier2,
            Some(Usatlas),
            80,
            1.0,
            true,
            100.0,
            6,
            OpenPbs,
            true,
            72,
        ),
        spec(
            "UMichigan_ATLAS",
            Tier2,
            Some(Usatlas),
            70,
            0.9,
            true,
            100.0,
            6,
            OpenPbs,
            false,
            48,
        ),
        spec(
            "ANL_HEP",
            Tier2,
            Some(Usatlas),
            72,
            1.0,
            true,
            155.0,
            8,
            OpenPbs,
            true,
            72,
        ),
        spec(
            "UTA_DPCC",
            Tier2,
            Some(Usatlas),
            64,
            1.0,
            true,
            100.0,
            5,
            OpenPbs,
            false,
            48,
        ),
        spec(
            "UWMilwaukee_LIGO",
            Tier2,
            Some(Ligo),
            64,
            1.0,
            true,
            100.0,
            6,
            CondorFairShare,
            true,
            48,
        ),
        spec(
            "PSU_LIGO",
            Tier2,
            Some(Ligo),
            48,
            1.0,
            true,
            100.0,
            8,
            CondorFairShare,
            true,
            48,
        ),
        spec(
            "UNM_HPC", University, None, 64, 0.8, false, 45.0, 4, OpenPbs, false, 24,
        ),
        spec(
            "Vanderbilt_BTeV",
            University,
            Some(Btev),
            48,
            1.0,
            true,
            100.0,
            4,
            OpenPbs,
            false,
            120,
        ),
        spec(
            "JHU_SDSS",
            University,
            Some(Sdss),
            40,
            1.0,
            true,
            100.0,
            5,
            OpenPbs,
            false,
            48,
        ),
        spec(
            "Fermilab_SDSS_Coadd",
            Tier2,
            Some(Sdss),
            40,
            1.0,
            true,
            155.0,
            6,
            OpenPbs,
            true,
            160,
        ),
        spec(
            "OU_HEP",
            University,
            Some(Usatlas),
            36,
            0.9,
            true,
            45.0,
            3,
            OpenPbs,
            false,
            48,
        ),
        spec(
            "Harvard_ATLAS",
            University,
            Some(Usatlas),
            32,
            1.0,
            true,
            100.0,
            3,
            OpenPbs,
            false,
            48,
        ),
        spec(
            "KNU_KISTI",
            University,
            Some(Uscms),
            32,
            0.9,
            true,
            45.0,
            4,
            Lsf,
            false,
            1_400,
        ),
        spec(
            "Rice_CMS",
            University,
            Some(Uscms),
            24,
            1.0,
            true,
            45.0,
            2,
            OpenPbs,
            false,
            300,
        ),
        spec(
            "Hampton_ATLAS",
            University,
            Some(Usatlas),
            16,
            0.8,
            false,
            45.0,
            2,
            OpenPbs,
            false,
            24,
        ),
        spec(
            "USC_ISI_CS",
            University,
            None,
            13,
            1.0,
            true,
            100.0,
            2,
            CondorFairShare,
            false,
            24,
        ),
    ];
    // The ACDC nightly rollover (§6.1).
    specs[7].nightly_rollover = true;

    // Ten facilities admit only their owner VO, leaving 17 of the 27
    // production sites multi-VO capable (§7's concurrent-applications
    // metric).
    for s in specs.iter_mut() {
        let lock_to_owner = matches!(
            s.name.as_str(),
            "Hampton_ATLAS"
                | "Harvard_ATLAS"
                | "OU_HEP"
                | "Rice_CMS"
                | "KNU_KISTI"
                | "Vanderbilt_BTeV"
                | "JHU_SDSS"
                | "PSU_LIGO"
                | "UWMilwaukee_LIGO"
                | "Fermilab_SDSS_Coadd"
        );
        if lock_to_owner {
            let owner = s.owner_vo.expect("locked sites have an owner");
            s.allowed_vos = Some(vec![owner]);
        }
    }

    // 26 steady sites so far; the 27th joins mid-run (sites "introduce and
    // withdraw resources", §7) — it still counts as a production site.
    let mut smu = spec(
        "SMU_Physics",
        University,
        None,
        24,
        1.0,
        true,
        45.0,
        2,
        OpenPbs,
        false,
        48,
    );
    smu.online_from_day = 45; // joins in December
    specs.push(smu);

    // SC2003 surge resources (Nov 10 – Dec 1, days 16–37): conference
    // showfloor and loaner clusters that lift the peak over 2800 CPUs.
    for (name, cpus) in [
        ("SC2003_Showfloor_A", 320u32),
        ("SC2003_Showfloor_B", 240),
        ("Teraport_Loaner", 101),
    ] {
        let mut s = spec(
            name,
            SiteTier::Tier2,
            None,
            cpus,
            1.2,
            true,
            622.0,
            10,
            SchedulerKind::CondorFairShare,
            true,
            48,
        );
        s.online_from_day = 16;
        s.offline_after_day = Some(37);
        specs.push(s);
    }

    Topology { specs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_cpu_count_matches_section_7() {
        let topo = grid3_topology();
        // §7: actual = 2163 CPUs. The late joiner (SMU) is excluded from
        // the steady count; 26 day-0 sites carry it.
        assert_eq!(topo.steady_cpus(), 2_163);
    }

    #[test]
    fn peak_cpu_count_exceeds_2800() {
        let topo = grid3_topology();
        assert!(topo.peak_cpus() > 2_800, "peak {} CPUs", topo.peak_cpus());
        assert!(topo.peak_cpus() < 2_900);
    }

    #[test]
    fn twenty_seven_production_sites() {
        let topo = grid3_topology();
        let production = topo
            .specs
            .iter()
            .filter(|s| s.offline_after_day.is_none())
            .count();
        assert_eq!(production, 27);
        assert_eq!(topo.len(), 30); // + 3 surge entries
    }

    #[test]
    fn more_than_60_percent_non_dedicated() {
        // §7: "More than 60 % of CPU resources are drawn from
        // non-dedicated facilities."
        let topo = grid3_topology();
        let (ded, nonded): (u32, u32) = topo
            .specs
            .iter()
            .filter(|s| s.online_from_day == 0 && s.offline_after_day.is_none())
            .fold((0, 0), |(d, n), s| {
                if s.dedicated {
                    (d + s.cpus, n)
                } else {
                    (d, n + s.cpus)
                }
            });
        let frac = nonded as f64 / (ded + nonded) as f64;
        assert!(frac > 0.6, "non-dedicated fraction {frac:.2}");
    }

    #[test]
    fn acdc_rolls_over_nightly() {
        let topo = grid3_topology();
        let acdc = topo.specs.iter().find(|s| s.name == "UB_ACDC").unwrap();
        assert!(acdc.nightly_rollover);
        assert_eq!(topo.specs.iter().filter(|s| s.nightly_rollover).count(), 1);
    }

    #[test]
    fn replication_scales_out_the_catalog() {
        let base = grid3_topology();
        let topo = grid3_topology().replicated(3);
        assert_eq!(topo.len(), 3 * base.len());
        assert_eq!(topo.steady_cpus(), 3 * base.steady_cpus());
        // Base names keep their ids, replicas get suffixed names.
        assert_eq!(topo.specs[0].name, "BNL_ATLAS_Tier1");
        assert_eq!(topo.specs[base.len()].name, "BNL_ATLAS_Tier1~1");
        assert_eq!(topo.specs[2 * base.len()].name, "BNL_ATLAS_Tier1~2");
        // Archive routing still resolves to the original anchors.
        for vo in Vo::ALL {
            assert_eq!(topo.archive_site(vo), base.archive_site(vo));
        }
        // All replica ids are dense and buildable.
        let sites = topo.build_sites();
        assert_eq!(sites.len(), topo.len());
        // Factor 1 (and 0, clamped) is the identity.
        assert_eq!(grid3_topology().replicated(1).len(), base.len());
        assert_eq!(grid3_topology().replicated(0).len(), base.len());
    }

    #[test]
    fn online_windows() {
        let topo = grid3_topology();
        let surge = SiteId(
            topo.specs
                .iter()
                .position(|s| s.name == "SC2003_Showfloor_A")
                .unwrap() as u32,
        );
        assert!(!topo.is_online(surge, SimTime::from_days(10)));
        assert!(topo.is_online(surge, SimTime::from_days(20)));
        assert!(!topo.is_online(surge, SimTime::from_days(40)));
        assert!(topo.is_online(SiteId(0), SimTime::from_days(180)));
    }

    #[test]
    fn archive_routing_reaches_real_sites() {
        let topo = grid3_topology();
        for vo in Vo::ALL {
            let a = topo.archive_site(vo);
            assert!(a.index() < topo.len());
        }
        assert_eq!(
            topo.specs[topo.archive_site(Vo::Usatlas).index()].name,
            "BNL_ATLAS_Tier1"
        );
        assert_eq!(
            topo.specs[topo.archive_site(Vo::Btev).index()].name,
            "FNAL_CMS_Tier1"
        );
    }

    #[test]
    fn build_sites_materializes_every_spec() {
        let topo = grid3_topology();
        let sites = topo.build_sites();
        assert_eq!(sites.len(), topo.len());
        for (i, site) in sites.iter().enumerate() {
            assert_eq!(site.id, SiteId(i as u32));
            assert_eq!(site.total_slots() as u32, topo.specs[i].cpus);
            assert_eq!(
                site.profile.failures.nightly_rollover,
                topo.specs[i].nightly_rollover
            );
        }
        // CMS Tier-1 accepts the >1200 h jobs of Table 1.
        let fnal = sites
            .iter()
            .find(|s| s.profile.name == "FNAL_CMS_Tier1")
            .unwrap();
        assert!(fnal.profile.policy.max_walltime >= SimDuration::from_hours(1_300));
    }
}

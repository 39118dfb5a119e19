//! The operations-center aggregate.
//!
//! §5.4: "The iGOC hosted centralized services, including the Pacman
//! cache, the top-level MDS index server, the Site Status Catalog, the
//! MonALISA central repositories, and web services for Ganglia." The
//! [`OperationsCenter`] bundles those services, runs the site onboarding
//! flow (§5.1 install → certify → register), and escalates repeated
//! status-probe failures into trouble tickets.

use std::borrow::Cow;

use crate::policy::AcceptableUsePolicy;
use crate::tickets::{TicketKind, TicketSystem};
use grid3_middleware::mds::{GiisIndex, GlueRecord, MdsDirectory};
use grid3_monitoring::catalog::SiteStatusCatalog;
use grid3_monitoring::ganglia::GangliaWeb;
use grid3_monitoring::monalisa::MonAlisaRepository;
use grid3_monitoring::netlogger::NetLoggerArchive;
use grid3_pacman::install::{InstallPipeline, InstallReport};
use grid3_pacman::package::{grid3_package_cache, PackageCache};
use grid3_simkit::ids::TicketId;
use grid3_simkit::rng::SimRng;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_site::cluster::Site;
use grid3_site::vo::Vo;

/// How many consecutive failed probes escalate to a ticket.
pub(crate) const ESCALATION_THRESHOLD: u32 = 2;

/// The iGOC.
pub struct OperationsCenter {
    /// The Pacman cache every site installs from.
    pub pacman_cache: PackageCache,
    /// The install/certification pipeline in force.
    pub pipeline: InstallPipeline,
    /// Top-level MDS index.
    pub mds: MdsDirectory,
    /// Per-VO GIIS indexes.
    pub giis: Vec<GiisIndex>,
    /// The Site Status Catalog.
    pub status_catalog: SiteStatusCatalog,
    /// MonALISA central repository.
    pub monalisa: MonAlisaRepository,
    /// Central Ganglia web frontend.
    pub ganglia_web: GangliaWeb,
    /// NetLogger archive correlating the GridFTP event stream (§4.7).
    pub netlogger: NetLoggerArchive,
    /// Trouble tickets.
    pub tickets: TicketSystem,
    /// The acceptable-use policy.
    pub aup: AcceptableUsePolicy,
}

/// The run-mutated slice of the center carried by engine snapshots:
/// every service that accumulates state during a run. The Pacman cache,
/// install pipeline and AUP are static configuration rebuilt from the
/// scenario (see [`OperationsCenter::capture`]). A capture borrows the
/// live services; a decoded one owns them.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CenterCapture<'a> {
    /// Top-level MDS index.
    pub mds: Cow<'a, MdsDirectory>,
    /// Per-VO GIIS indexes.
    pub giis: Cow<'a, [GiisIndex]>,
    /// The Site Status Catalog.
    pub status_catalog: Cow<'a, SiteStatusCatalog>,
    /// MonALISA central repository.
    pub monalisa: Cow<'a, MonAlisaRepository>,
    /// Central Ganglia web frontend.
    pub ganglia_web: Cow<'a, GangliaWeb>,
    /// NetLogger archive.
    pub netlogger: Cow<'a, NetLoggerArchive>,
    /// Trouble tickets.
    pub tickets: Cow<'a, TicketSystem>,
}

impl CenterCapture<'_> {
    /// A capture that owns every service, cloning what this one borrows.
    pub fn into_owned(self) -> CenterCapture<'static> {
        CenterCapture {
            mds: Cow::Owned(self.mds.into_owned()),
            giis: Cow::Owned(self.giis.into_owned()),
            status_catalog: Cow::Owned(self.status_catalog.into_owned()),
            monalisa: Cow::Owned(self.monalisa.into_owned()),
            ganglia_web: Cow::Owned(self.ganglia_web.into_owned()),
            netlogger: Cow::Owned(self.netlogger.into_owned()),
            tickets: Cow::Owned(self.tickets.into_owned()),
        }
    }
}

/// Result of onboarding one site.
#[derive(Debug, Clone)]
pub struct OnboardingOutcome {
    /// The pipeline report (install + configure + test + certify).
    pub report: InstallReport,
    /// Wall time the whole procedure took.
    pub duration: SimDuration,
    /// Whether the site entered production validated (clean) or with a
    /// latent misconfiguration that evaded certification.
    pub validated_clean: bool,
}

impl OperationsCenter {
    /// A center running the given install pipeline.
    pub fn new(pipeline: InstallPipeline) -> Self {
        OperationsCenter {
            pacman_cache: grid3_package_cache(),
            pipeline,
            mds: MdsDirectory::with_default_ttl(),
            giis: Vo::ALL.iter().map(|vo| GiisIndex::new(*vo)).collect(),
            status_catalog: SiteStatusCatalog::new(),
            monalisa: MonAlisaRepository::new(SimDuration::from_mins(5), 4_096),
            ganglia_web: GangliaWeb::new(),
            netlogger: NetLoggerArchive::new(),
            tickets: TicketSystem::new(),
            aup: AcceptableUsePolicy::grid3(),
        }
    }

    /// The Grid3-era default center.
    #[cfg(test)]
    pub(crate) fn grid3_default() -> Self {
        Self::new(InstallPipeline::grid3_default())
    }

    /// Borrow the run-mutated service state for an engine snapshot.
    pub fn capture(&self) -> CenterCapture<'_> {
        CenterCapture {
            mds: Cow::Borrowed(&self.mds),
            giis: Cow::Borrowed(&self.giis),
            status_catalog: Cow::Borrowed(&self.status_catalog),
            monalisa: Cow::Borrowed(&self.monalisa),
            ganglia_web: Cow::Borrowed(&self.ganglia_web),
            netlogger: Cow::Borrowed(&self.netlogger),
            tickets: Cow::Borrowed(&self.tickets),
        }
    }

    /// Overlay a captured service state onto a freshly built center.
    pub fn apply(&mut self, cap: CenterCapture<'_>) {
        self.mds = cap.mds.into_owned();
        self.giis = cap.giis.into_owned();
        self.status_catalog = cap.status_catalog.into_owned();
        self.monalisa = cap.monalisa.into_owned();
        self.ganglia_web = cap.ganglia_web.into_owned();
        self.netlogger = cap.netlogger.into_owned();
        self.tickets = cap.tickets.into_owned();
    }

    /// Onboard a site per §5.1: pull the `grid3` package from the Pacman
    /// cache, install/configure/test, certify, then register the site with
    /// the status catalog, every admitted VO's GIIS, and the top-level
    /// MDS. Marks `site.validated` (a latent fault that evades
    /// certification leaves the site *formally* validated but still
    /// failure-prone — exactly the §6.2 experience).
    pub fn onboard_site(
        &mut self,
        site: &mut Site,
        now: SimTime,
        rng: &mut SimRng,
    ) -> OnboardingOutcome {
        let mut report = self
            .pipeline
            .run(&self.pacman_cache, "grid3", rng)
            .expect("grid3 package resolves");
        let cert = self.pipeline.certify(&mut report, rng);
        let duration = report.duration + cert.duration;

        site.validated = true;
        let validated_clean = !report.latent_misconfig;

        self.status_catalog
            .register(site.id, site.profile.name.clone(), now);
        for giis in &mut self.giis {
            if site.profile.policy.admits_vo(giis.vo) {
                giis.register(site.id);
            }
        }
        self.mds
            .publish(GlueRecord::from_site(site, "VDT-1.1.8", now + duration));
        OnboardingOutcome {
            report,
            duration,
            validated_clean,
        }
    }

    /// Run one status-probe round over all sites, opening a ticket for
    /// any site crossing the escalation threshold. Returns opened tickets.
    pub fn probe_round<'a>(
        &mut self,
        sites: impl IntoIterator<Item = &'a Site>,
        now: SimTime,
    ) -> Vec<TicketId> {
        let mut opened = Vec::new();
        for site in sites {
            self.status_catalog.probe(site, now);
            let entry = self.status_catalog.entry(site.id).expect("just probed");
            if entry.consecutive_failures == ESCALATION_THRESHOLD {
                let kind = if !site.network_up {
                    TicketKind::NetworkOutage
                } else {
                    TicketKind::ServiceDown
                };
                opened.push(self.tickets.open(site.id, kind, now));
            }
        }
        opened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_simkit::ids::SiteId;
    use grid3_simkit::units::{Bandwidth, Bytes};
    use grid3_site::cluster::{SitePolicy, SiteProfile, SiteTier};
    use grid3_site::failure::FailureModel;
    use grid3_site::scheduler::SchedulerKind;

    fn mk_site(id: u32, allowed: Option<Vec<Vo>>) -> Site {
        Site::new(
            SiteId(id),
            SiteProfile {
                name: format!("SITE_{id}"),
                tier: SiteTier::Tier2,
                owner_vo: None,
                cpus: 32,
                node_speed: 1.0,
                outbound_connectivity: true,
                wan_bandwidth: Bandwidth::from_mbit_per_sec(100.0),
                storage_capacity: Bytes::from_tb(2),
                scheduler: SchedulerKind::OpenPbs,
                dedicated: false,
                policy: SitePolicy {
                    max_walltime: SimDuration::from_hours(48),
                    allowed_vos: allowed,
                },
                failures: FailureModel::none(),
            },
        )
    }

    #[test]
    fn onboarding_registers_everywhere() {
        let mut center = OperationsCenter::grid3_default();
        let mut site = mk_site(0, None);
        let mut rng = SimRng::for_entity(1, 1);
        let outcome = center.onboard_site(&mut site, SimTime::EPOCH, &mut rng);
        assert!(site.validated);
        assert!(outcome.duration > SimDuration::ZERO);
        assert!(center.status_catalog.entry(SiteId(0)).is_some());
        assert_eq!(center.mds.len(), 1);
        for giis in &center.giis {
            assert_eq!(giis.sites(), &[SiteId(0)], "{}", giis.vo);
        }
    }

    #[test]
    fn vo_restricted_sites_register_selectively() {
        let mut center = OperationsCenter::grid3_default();
        let mut site = mk_site(1, Some(vec![Vo::Usatlas, Vo::Uscms]));
        let mut rng = SimRng::for_entity(2, 2);
        center.onboard_site(&mut site, SimTime::EPOCH, &mut rng);
        for giis in &center.giis {
            let expect = matches!(giis.vo, Vo::Usatlas | Vo::Uscms);
            assert_eq!(!giis.sites().is_empty(), expect, "{}", giis.vo);
        }
    }

    #[test]
    fn repeated_probe_failures_open_one_ticket() {
        let mut center = OperationsCenter::grid3_default();
        let mut site = mk_site(0, None);
        let mut rng = SimRng::for_entity(3, 3);
        center.onboard_site(&mut site, SimTime::EPOCH, &mut rng);
        site.service_up = false;
        let t1 = center.probe_round([&site], SimTime::from_mins(30));
        assert!(t1.is_empty(), "first failure does not escalate");
        let t2 = center.probe_round([&site], SimTime::from_mins(60));
        assert_eq!(t2.len(), 1, "second consecutive failure escalates");
        let t3 = center.probe_round([&site], SimTime::from_mins(90));
        assert!(t3.is_empty(), "no duplicate ticket while still failing");
        // Recovery, then a fresh outage escalates again.
        site.service_up = true;
        center.probe_round([&site], SimTime::from_mins(120));
        site.network_up = false;
        center.probe_round([&site], SimTime::from_mins(150));
        let t4 = center.probe_round([&site], SimTime::from_mins(180));
        assert_eq!(t4.len(), 1);
        assert_eq!(
            center.tickets.tickets().last().unwrap().kind,
            TicketKind::NetworkOutage
        );
    }

    #[test]
    fn automated_pipeline_onboards_cleaner_sites() {
        // The §8 ablation at the onboarding level.
        let n = 300;
        let count_clean = |pipeline: InstallPipeline, salt: u64| -> usize {
            let mut center = OperationsCenter::new(pipeline);
            (0..n)
                .filter(|i| {
                    let mut site = mk_site(*i, None);
                    let mut rng = SimRng::for_entity(salt, *i as u64);
                    center
                        .onboard_site(&mut site, SimTime::EPOCH, &mut rng)
                        .validated_clean
                })
                .count()
        };
        let manual = count_clean(InstallPipeline::grid3_default(), 10);
        let auto = count_clean(InstallPipeline::automated(), 20);
        assert!(
            auto > manual,
            "automated {auto}/{n} should beat manual {manual}/{n}"
        );
    }
}

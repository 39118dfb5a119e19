//! Report extraction: the paper's tables, figures and §7 metrics from a
//! finished simulation.

use crate::engine::Grid3Engine;
use crate::resilience::SiteState;
use grid3_monitoring::acdc::ClassStats;
use grid3_simkit::units::Bytes;
use grid3_site::vo::{UserClass, Vo};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The §7 milestones-and-metrics block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MilestoneMetrics {
    /// Steady CPU count (paper: 2163).
    pub cpus_steady: u32,
    /// Peak CPU count during SC2003 (paper: >2800).
    pub cpus_peak: u32,
    /// Authorized users (paper: 102).
    pub users: usize,
    /// Applications running (paper: 10 = 7 scientific + 3 demonstrators).
    pub applications: usize,
    /// Sites that ran completed jobs from ≥2 VOs (paper: 17).
    pub multi_vo_sites: usize,
    /// Peak single-day transfer volume, TB (paper: 4).
    pub peak_daily_tb: f64,
    /// Mean busy-CPU fraction over the SC2003 week (paper band: 40–70 %).
    pub utilization_sc2003: f64,
    /// Grid-wide completion efficiency (paper: ≈70 % for ATLAS/CMS).
    pub overall_efficiency: f64,
    /// Completion efficiency restricted to validated (clean) sites
    /// (paper: >90 % "for well-run Grid3 sites and stable applications").
    pub validated_site_efficiency: f64,
    /// Peak simultaneous running jobs (paper: 1300).
    pub peak_concurrent_jobs: f64,
    /// When the peak occurred (paper: 2003-11-20).
    pub peak_concurrent_at: String,
    /// Fraction of failures from site problems (paper: ≈90 %).
    pub site_problem_fraction: f64,
    /// Operations support load in FTE (paper target: <2).
    pub ops_fte: f64,
    /// Jobs the broker could not place at all.
    pub unplaced_jobs: u64,
    /// Total data delivered over the run.
    pub total_data: Bytes,
}

/// Everything the paper's evaluation section reports, extracted from one
/// simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Grid3Report {
    /// Table 1: per-class job statistics.
    pub table1: Vec<ClassStats>,
    /// Figure 2: cumulative CPU-days per day, by VO.
    pub fig2_integrated: BTreeMap<String, Vec<f64>>,
    /// Figure 3: time-averaged busy CPUs per day, by VO.
    pub fig3_differential: BTreeMap<String, Vec<f64>>,
    /// Figure 3: the all-VO total series.
    pub fig3_total: Vec<f64>,
    /// Figure 4: CMS CPU-days by site.
    pub fig4_by_site: Vec<(String, f64)>,
    /// Figure 4: cumulative CMS CPU-days per day.
    pub fig4_cumulative: Vec<f64>,
    /// Figure 5: cumulative TB delivered (all sources).
    pub fig5_cumulative_tb: Vec<f64>,
    /// Figure 5: total TB by VO.
    pub fig5_by_vo_tb: Vec<(String, f64)>,
    /// Figure 6: jobs per month.
    pub fig6_monthly_jobs: Vec<(String, f64)>,
    /// §7 metrics.
    pub metrics: MilestoneMetrics,
    /// Failure counts by cause.
    pub failure_breakdown: Vec<(String, u64)>,
    /// Per-class completion efficiency and time-to-start (§7: "the value
    /// of this metric varies depending on the application").
    pub per_class_efficiency: Vec<ClassEfficiency>,
    /// Measured completion efficiency bucketed by the site's operational
    /// state at finish time — the §7 m-eff split (≈70 % overall, >90 % on
    /// validated sites), observed rather than derived.
    pub site_state_efficiency: Vec<SiteStateEfficiency>,
    /// Total job records (completed + failed).
    pub total_jobs: u64,
    /// Per-grid completion split for federated runs. Empty for
    /// single-grid runs — and skipped from the JSON, keeping the legacy
    /// report (and every golden hash over it) byte-identical.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub per_grid_efficiency: Vec<GridEfficiency>,
    /// Federation-wide rollup (`None` — and absent from the JSON — for
    /// single-grid runs).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub federation: Option<FederationSummary>,
}

/// Completion accounting for one member grid of a federation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridEfficiency {
    /// Grid name from the scenario's federation spec.
    pub grid: String,
    /// The middleware stack the grid runs (e.g. "VDT-1.1.8").
    pub backend: String,
    /// Sites labelled into this grid.
    pub sites: usize,
    /// Jobs that finished successfully at this grid's sites.
    pub completed: u64,
    /// Jobs that failed at this grid's sites.
    pub failed: u64,
    /// Completion efficiency of the grid (0 when empty).
    pub efficiency: f64,
}

/// The federation-wide rollup: totals across every member grid plus the
/// inter-grid GridFTP traffic that cross-grid brokering induced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederationSummary {
    /// Member grid count.
    pub grids: usize,
    /// Completed jobs across all grids.
    pub completed: u64,
    /// Failed jobs across all grids.
    pub failed: u64,
    /// Federated completion efficiency (0 when empty).
    pub efficiency: f64,
    /// Stage-in transfers that crossed a grid boundary.
    pub cross_grid_stage_ins: u64,
    /// TB those cross-grid transfers moved.
    pub cross_grid_stage_in_tb: f64,
}

/// Completion accounting for one site operational state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteStateEfficiency {
    /// Bucket label: "validated", "unvalidated" or "degraded".
    pub state: String,
    /// Completed jobs finishing while the site was in this state.
    pub completed: u64,
    /// Failed jobs finishing while the site was in this state.
    pub failed: u64,
    /// Completion efficiency of the bucket (0 when empty).
    pub efficiency: f64,
}

/// Per-class completion/latency summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassEfficiency {
    /// The class.
    pub class: UserClass,
    /// Completed jobs.
    pub completed: u64,
    /// Failed jobs.
    pub failed: u64,
    /// Completion efficiency.
    pub efficiency: f64,
    /// Mean submission → execution-start latency, hours.
    pub mean_time_to_start_hr: f64,
}

impl Grid3Report {
    /// Extract the full report from a finished simulation.
    pub fn extract(sim: &Grid3Engine) -> Self {
        let mut table1 = sim.acdc().table1();
        // Table 1's "Number of Users" row counts *authorized* users per
        // class (LIGO lists 7 users against 3 jobs), so take the VOMS
        // population rather than distinct submitters.
        // Keyed by class (not position): scenario files may carry a
        // workload subset, so the table can cover classes with no
        // generator and vice versa.
        let workloads = sim.config().scaled_workloads();
        for stats in table1.iter_mut() {
            if let Some(w) = workloads.iter().find(|w| w.class == stats.class) {
                stats.users = w.users as usize;
            }
        }

        let mut fig2 = BTreeMap::new();
        let mut fig3 = BTreeMap::new();
        for vo in Vo::ALL {
            fig2.insert(
                vo.name().to_string(),
                sim.viewer().fig2_integrated_cpu_days(vo),
            );
            fig3.insert(vo.name().to_string(), sim.viewer().fig3_avg_cpus(vo));
        }

        let fig4_by_site: Vec<(String, f64)> = sim
            .viewer()
            .fig4_cms_cpu_days_by_site()
            .into_iter()
            .map(|(site, days)| (sim.topology().specs[site.index()].name.to_string(), days))
            .collect();

        let fig5_by_vo_tb: Vec<(String, f64)> = Vo::ALL
            .iter()
            .map(|vo| (vo.name().to_string(), sim.viewer().total_tb(*vo)))
            .collect();

        // Multi-VO sites: §7's "number of sites capable of running
        // applications from multiple VOs". Capability is a policy fact:
        // production sites whose grid-map admits at least two VOs.
        let multi_vo_sites = sim
            .topology()
            .specs
            .iter()
            .zip(sim.sites())
            .filter(|(spec, _)| spec.offline_after_day.is_none())
            .filter(|(_, site)| {
                Vo::ALL
                    .iter()
                    .filter(|vo| site.profile.policy.admits_vo(**vo))
                    .count()
                    >= 2
            })
            .count();

        // Applications: scientific codes with completed jobs (iVDGL hosts
        // two, SnB and GADU) plus the three CS demonstrators (data
        // transfer, NetLogger study, exerciser) when they ran.
        let mut applications = 0usize;
        for class in [
            UserClass::Btev,
            UserClass::Ligo,
            UserClass::Sdss,
            UserClass::Usatlas,
            UserClass::Uscms,
        ] {
            if sim.acdc().completed_count(class) > 0 {
                applications += 1;
            }
        }
        if sim.acdc().completed_count(UserClass::Ivdgl) > 0 {
            applications += 2; // SnB and GADU
        }
        if sim.acdc().completed_count(UserClass::Exerciser) > 0 {
            applications += 2; // exerciser + its NetLogger study companion
        }
        if sim.bytes_delivered() > Bytes::ZERO && sim.config().include_demo {
            applications += 1; // the Entrada transfer demonstrator
        }

        // Utilization over the SC2003 week (days 21–27), against the CPUs
        // actually online then (steady + surge).
        let avg = sim.viewer().fig3_avg_cpus_total();
        let week: Vec<f64> = avg.iter().copied().skip(21).take(7).collect();
        let busy_week = if week.is_empty() {
            0.0
        } else {
            week.iter().sum::<f64>() / week.len() as f64
        };
        // The paper's §7 utilization is quoted against the steady resource
        // pool ("the maximum number of CPUs on Grid3 exceeds 2500 most of
        // the time"), not the transient SC2003 surge peak.
        let utilization_sc2003 = busy_week / sim.topology().steady_cpus() as f64;

        // Validated-site efficiency: §6.2's "once sites are fully
        // validated" figure.
        let validated_site_efficiency = {
            // Derive from the failure mix: removing site-caused failures
            // leaves the efficiency a well-run site would see.
            let done: u64 = UserClass::ALL
                .iter()
                .map(|c| sim.acdc().completed_count(*c))
                .sum();
            let site_failures: u64 = sim
                .acdc()
                .failure_breakdown()
                .iter()
                .filter(|(c, _)| c.is_site_problem())
                .map(|(_, n)| *n)
                .sum();
            let all_failures: u64 = sim.acdc().failure_breakdown().values().sum();
            let non_site = all_failures - site_failures;
            if done + non_site == 0 {
                0.0
            } else {
                done as f64 / (done + non_site) as f64
            }
        };

        // Federated split: per-grid tallies plus the cross-grid traffic
        // rollup. Single-grid runs leave both empty/absent so the report
        // JSON — and its golden hash — is byte-identical to the
        // pre-federation engine's.
        let fed = sim.federation();
        let eff = |completed: u64, failed: u64| {
            if completed + failed == 0 {
                0.0
            } else {
                completed as f64 / (completed + failed) as f64
            }
        };
        let (per_grid_efficiency, federation) = if fed.is_single() {
            (Vec::new(), None)
        } else {
            let per: Vec<GridEfficiency> = fed
                .grids()
                .iter()
                .map(|g| {
                    let t = fed.tally_of(g.id);
                    GridEfficiency {
                        grid: g.name.clone(),
                        backend: g.backend.knobs().software_tag.to_string(),
                        sites: g.site_count,
                        completed: t.completed,
                        failed: t.failed,
                        efficiency: eff(t.completed, t.failed),
                    }
                })
                .collect();
            let completed: u64 = per.iter().map(|g| g.completed).sum();
            let failed: u64 = per.iter().map(|g| g.failed).sum();
            let summary = FederationSummary {
                grids: per.len(),
                completed,
                failed,
                efficiency: eff(completed, failed),
                cross_grid_stage_ins: fed.cross_grid_stage_ins,
                cross_grid_stage_in_tb: fed.cross_grid_stage_in_bytes.as_tb_f64(),
            };
            (per, Some(summary))
        };

        let metrics = MilestoneMetrics {
            cpus_steady: sim.topology().steady_cpus(),
            cpus_peak: sim.topology().peak_cpus(),
            users: grid3_middleware::voms::total_distinct_users(sim.voms()),
            applications,
            multi_vo_sites,
            peak_daily_tb: sim.viewer().peak_daily_tb(),
            utilization_sc2003,
            overall_efficiency: sim.acdc().overall_efficiency(),
            validated_site_efficiency,
            peak_concurrent_jobs: sim.job_gauge().peak(),
            peak_concurrent_at: sim.job_gauge().peak_at().to_string(),
            site_problem_fraction: sim.acdc().site_problem_fraction(),
            ops_fte: sim
                .center()
                .tickets
                .fte_in_window(grid3_simkit::time::SimTime::EPOCH, sim.config().horizon()),
            unplaced_jobs: sim.unplaced_jobs(),
            total_data: sim.bytes_delivered(),
        };

        Grid3Report {
            table1,
            fig2_integrated: fig2,
            fig3_differential: fig3,
            fig3_total: sim.viewer().fig3_avg_cpus_total(),
            fig4_by_site,
            fig4_cumulative: sim.viewer().fig4_cms_cumulative(),
            fig5_cumulative_tb: sim.viewer().fig5_cumulative_tb_total(),
            fig5_by_vo_tb,
            fig6_monthly_jobs: sim.acdc().monthly_jobs_all().labelled(),
            metrics,
            failure_breakdown: sim
                .acdc()
                .failure_breakdown()
                .iter()
                .map(|(c, n)| (c.label().to_string(), *n))
                .collect(),
            per_class_efficiency: UserClass::ALL
                .iter()
                .map(|class| ClassEfficiency {
                    class: *class,
                    completed: sim.acdc().completed_count(*class),
                    failed: sim.acdc().failed_count(*class),
                    efficiency: sim.acdc().efficiency(*class),
                    mean_time_to_start_hr: sim.acdc().queue_wait_stats(*class).mean(),
                })
                .collect(),
            site_state_efficiency: [
                SiteState::Validated,
                SiteState::Unvalidated,
                SiteState::Degraded,
            ]
            .into_iter()
            .map(|state| {
                let (completed, failed) = sim.site_ledger().counts(state);
                SiteStateEfficiency {
                    state: state.label().to_string(),
                    completed,
                    failed,
                    efficiency: sim.site_ledger().efficiency(state),
                }
            })
            .collect(),
            total_jobs: sim.acdc().total_records(),
            per_grid_efficiency,
            federation,
        }
    }

    /// Render Table 1 in the paper's layout.
    pub fn render_table1(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table 1: Grid3 computational job statistics (completed production jobs)"
        );
        let _ = write!(out, "{:<34}", "Grid3 User Classification (VO)");
        for s in &self.table1 {
            let _ = write!(out, "{:>12}", s.class.name());
        }
        let _ = writeln!(out);
        let row = |label: &str, f: &dyn Fn(&ClassStats) -> String| {
            let mut line = format!("{label:<34}");
            for s in &self.table1 {
                let _ = write!(line, "{:>12}", f(s));
            }
            line
        };
        let lines = [
            row("Number of Users", &|s| s.users.to_string()),
            row("Grid3 Sites Used", &|s| s.sites_used.to_string()),
            row("Number of Jobs", &|s| s.jobs.to_string()),
            row("Avg. Runtime (hr)", &|s| format!("{:.2}", s.avg_runtime_hr)),
            row("Max. Runtime (hr)", &|s| format!("{:.2}", s.max_runtime_hr)),
            row("Total CPU (days)", &|s| format!("{:.2}", s.total_cpu_days)),
            row("Peak Prod. Rate (jobs/month)", &|s| {
                s.peak_month_jobs.to_string()
            }),
            row("Number of Peak Prod. Resources", &|s| {
                s.peak_resources.to_string()
            }),
            row("Max. Single Resource [%]", &|s| {
                format!("{:.1}", s.max_single_resource_pct)
            }),
            row("Peak Production Month-Year", &|s| s.peak_month.clone()),
            row("Peak Production CPU (days)", &|s| {
                format!("{:.2}", s.peak_month_cpu_days)
            }),
        ];
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }

    /// Render the §7 metrics block with the paper's targets alongside.
    pub fn render_metrics(&self) -> String {
        let m = &self.metrics;
        let mut out = String::new();
        let _ = writeln!(out, "Milestones and metrics (paper §7)");
        let _ = writeln!(
            out,
            "  CPUs                 target 400      paper 2163 (peak >2800)   measured {} (peak {})",
            m.cpus_steady, m.cpus_peak
        );
        let _ = writeln!(
            out,
            "  Users                target 10       paper 102                 measured {}",
            m.users
        );
        let _ = writeln!(
            out,
            "  Applications         target >4       paper 10                  measured {}",
            m.applications
        );
        let _ = writeln!(
            out,
            "  Multi-VO sites       target >10      paper 17                  measured {}",
            m.multi_vo_sites
        );
        let _ = writeln!(
            out,
            "  Data/day             target 2-3 TB   paper 4 TB                measured {:.2} TB (peak day)",
            m.peak_daily_tb
        );
        let _ = writeln!(
            out,
            "  Resource use         target 90%      paper 40-70%              measured {:.0}%",
            m.utilization_sc2003 * 100.0
        );
        let _ = writeln!(
            out,
            "  Completion eff.      target 75%      paper ~70% (>90% clean)   measured {:.0}% ({:.0}% clean)",
            m.overall_efficiency * 100.0,
            m.validated_site_efficiency * 100.0
        );
        // The measured m-eff split by site state (vs. the derived "clean"
        // figure above): validated sites must clear the paper's >90 %.
        let split = self
            .site_state_efficiency
            .iter()
            .filter(|b| b.completed + b.failed > 0)
            .map(|b| {
                format!(
                    "{} {:.0}% ({})",
                    b.state,
                    b.efficiency * 100.0,
                    b.completed + b.failed
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        if !split.is_empty() {
            let _ = writeln!(
                out,
                "  Eff. by site state   --              paper >90% validated      measured {split}"
            );
        }
        let _ = writeln!(
            out,
            "  Peak concurrent jobs target 1000     paper 1300 (2003-11-20)   measured {:.0} ({})",
            m.peak_concurrent_jobs, m.peak_concurrent_at
        );
        let _ = writeln!(
            out,
            "  Site-problem share   --              paper ~90% of failures    measured {:.0}%",
            m.site_problem_fraction * 100.0
        );
        let _ = writeln!(
            out,
            "  Ops support load     target <2 FTE   paper <2 FTE steady       measured {:.2} FTE",
            m.ops_fte
        );
        out
    }

    /// Render the per-class efficiency table (§7's observation that the
    /// completion metric "varies depending on the application",
    /// quantified).
    pub fn render_efficiency(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Per-class completion efficiency and time-to-start");
        let _ = writeln!(
            out,
            "  {:<11} {:>9} {:>9} {:>11} {:>16}",
            "class", "completed", "failed", "efficiency", "mean start (h)"
        );
        for e in &self.per_class_efficiency {
            let _ = writeln!(
                out,
                "  {:<11} {:>9} {:>9} {:>10.1}% {:>16.2}",
                e.class.name(),
                e.completed,
                e.failed,
                e.efficiency * 100.0,
                e.mean_time_to_start_hr
            );
        }
        out
    }

    /// Render the per-grid and federated efficiency split. Returns an
    /// empty string for single-grid runs, so callers can print it
    /// unconditionally.
    pub fn render_federation(&self) -> String {
        let Some(f) = &self.federation else {
            return String::new();
        };
        let mut out = String::new();
        let _ = writeln!(out, "Federated efficiency split ({} grids)", f.grids);
        let _ = writeln!(
            out,
            "  {:<12} {:<12} {:>6} {:>10} {:>8} {:>11}",
            "grid", "backend", "sites", "completed", "failed", "efficiency"
        );
        for g in &self.per_grid_efficiency {
            let _ = writeln!(
                out,
                "  {:<12} {:<12} {:>6} {:>10} {:>8} {:>10.1}%",
                g.grid,
                g.backend,
                g.sites,
                g.completed,
                g.failed,
                g.efficiency * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  federated {:.1}% | cross-grid stage-ins {} ({:.2} TB)",
            f.efficiency * 100.0,
            f.cross_grid_stage_ins,
            f.cross_grid_stage_in_tb
        );
        out
    }

    /// Render a figure's series as a compact ASCII table (label, value).
    pub fn render_series(title: &str, series: &[(String, f64)]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        for (label, v) in series {
            let _ = writeln!(out, "  {label:<22} {v:>14.2}");
        }
        out
    }

    /// Machine-readable JSON (the `figures` binary writes this next to
    /// the ASCII tables so EXPERIMENTS.md numbers are auditable).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn small_report() -> Grid3Report {
        ScenarioConfig::sc2003()
            .with_scale(0.01)
            .with_seed(11)
            .run()
    }

    #[test]
    fn report_extracts_all_artifacts() {
        let r = small_report();
        assert_eq!(r.table1.len(), 7);
        assert_eq!(r.fig2_integrated.len(), 6);
        assert_eq!(r.fig3_total.len(), 30);
        assert!(!r.fig6_monthly_jobs.is_empty());
        assert!(r.total_jobs > 0);
        assert_eq!(r.metrics.cpus_steady, 2_163);
        assert_eq!(r.metrics.users, 102);
    }

    #[test]
    fn fig2_series_are_cumulative() {
        let r = small_report();
        for (vo, series) in &r.fig2_integrated {
            for w in series.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "{vo} series not monotone");
            }
        }
    }

    #[test]
    fn renders_are_nonempty_and_mention_key_figures() {
        let r = small_report();
        let t1 = r.render_table1();
        assert!(t1.contains("USATLAS"));
        assert!(t1.contains("Exerciser"));
        assert!(t1.contains("Peak Production Month-Year"));
        let m = r.render_metrics();
        assert!(m.contains("2163"));
        assert!(m.contains("FTE"));
        let json = r.to_json();
        assert!(json.contains("\"table1\""));
    }

    #[test]
    fn per_class_efficiency_varies_and_renders() {
        let r = small_report();
        assert_eq!(r.per_class_efficiency.len(), 7);
        for e in &r.per_class_efficiency {
            assert!((0.0..=1.0).contains(&e.efficiency), "{}", e.class);
            assert!(e.mean_time_to_start_hr >= 0.0);
        }
        let rendered = r.render_efficiency();
        assert!(rendered.contains("USCMS"));
        assert!(rendered.contains("efficiency"));
    }

    #[test]
    fn uscms_dominates_cpu_days_even_at_small_scale() {
        // The defining Table 1 shape: USCMS holds the most CPU-days.
        let r = small_report();
        let cms = r
            .table1
            .iter()
            .find(|s| s.class == UserClass::Uscms)
            .unwrap()
            .total_cpu_days;
        for s in &r.table1 {
            if s.class != UserClass::Uscms {
                assert!(
                    cms >= s.total_cpu_days,
                    "{} ({:.1}) exceeds USCMS ({cms:.1})",
                    s.class,
                    s.total_cpu_days
                );
            }
        }
    }
}

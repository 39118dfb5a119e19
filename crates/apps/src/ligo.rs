//! LIGO on Grid3: the blind all-sky pulsar search over S2 data (§4.4).
//!
//! Per the paper: each search needs the short-Fourier-transform (SFT)
//! file covering the frequency band the target signal spans, plus the
//! year's ephemeris data, staged from LIGO facilities to Grid3 sites via
//! GridFTP (~4 GB per job); staged-data locations are published in RLS;
//! the last job in each workflow stages results back to the LIGO facility
//! and updates database entries; each instance runs several hours.

use grid3_simkit::ids::{FileId, FileIdGen, SiteId, UserId};
use grid3_simkit::time::SimDuration;
use grid3_simkit::units::Bytes;
use grid3_site::job::JobSpec;
use grid3_site::vo::UserClass;
use grid3_workflow::dag::Dag;
use serde::{Deserialize, Serialize};

/// One node of a LIGO search workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LigoTask {
    /// Stage the SFT band file + ephemeris from the LIGO facility.
    StageData {
        /// The SFT file for this band.
        sft: FileId,
        /// The ephemeris file (shared across bands for the year).
        ephemeris: FileId,
        /// LIGO home facility.
        from: SiteId,
        /// Total staged bytes (~4 GB, §4.4).
        bytes: Bytes,
    },
    /// Run the coherent search over one frequency band.
    Search {
        /// The job specification.
        spec: JobSpec,
        /// Band index.
        band: u32,
    },
    /// Stage results back and update LIGO database entries (the final
    /// workflow job, §4.4).
    PublishResults {
        /// Result file.
        results: FileId,
        /// LIGO home facility.
        to: SiteId,
    },
}

/// A planned S2 search campaign.
#[derive(Debug, Clone)]
pub struct S2Search {
    /// One workflow per frequency band: stage → search → publish.
    pub workflow: Dag<LigoTask>,
    /// Number of bands searched.
    pub bands: u32,
}

/// Hours one band search takes on the reference CPU ("several hours").
pub(crate) const SEARCH_HOURS: u64 = 6;

/// Build the S2 all-sky search over `bands` frequency bands. Each band is
/// an independent stage→search→publish chain; all chains share the
/// ephemeris staging (done once, first).
pub fn s2_search(bands: u32, ligo_home: SiteId, user: UserId, lfns: &mut FileIdGen) -> S2Search {
    let mut dag = Dag::new();
    let ephemeris = lfns.next_id();
    for band in 0..bands {
        let sft = lfns.next_id();
        let results = lfns.next_id();
        let stage = dag.add_node(LigoTask::StageData {
            sft,
            ephemeris,
            from: ligo_home,
            bytes: Bytes::from_gb(4),
        });
        let spec = JobSpec {
            class: UserClass::Ligo,
            user,
            reference_runtime: SimDuration::from_hours(SEARCH_HOURS),
            requested_walltime: SimDuration::from_hours(SEARCH_HOURS * 2),
            input_bytes: Bytes::from_gb(4),
            output_bytes: Bytes::from_mb(100),
            scratch_bytes: Bytes::from_gb(5),
            needs_outbound: false,
            staged_files: 2,
            registers_output: true, // §4.4: staged-data locations go to RLS
        };
        let search = dag.add_node(LigoTask::Search { spec, band });
        let publish = dag.add_node(LigoTask::PublishResults {
            results,
            to: ligo_home,
        });
        dag.add_edge(stage, search).expect("chain");
        dag.add_edge(search, publish).expect("chain");
    }
    S2Search {
        workflow: dag,
        bands,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_band_is_an_independent_chain() {
        let mut lfns = FileIdGen::new();
        let s = s2_search(10, SiteId(20), UserId(5), &mut lfns);
        assert_eq!(s.workflow.len(), 30);
        assert_eq!(s.workflow.critical_path_len(), 3);
        assert_eq!(s.workflow.roots().len(), 10);
        assert_eq!(s.workflow.leaves().len(), 10);
    }

    #[test]
    fn staging_is_four_gigabytes_per_job() {
        let mut lfns = FileIdGen::new();
        let s = s2_search(1, SiteId(20), UserId(5), &mut lfns);
        let stage = s
            .workflow
            .iter()
            .find_map(|(_, t)| match t {
                LigoTask::StageData { bytes, from, .. } => Some((*bytes, *from)),
                _ => None,
            })
            .unwrap();
        assert_eq!(stage.0, Bytes::from_gb(4));
        assert_eq!(stage.1, SiteId(20));
    }

    #[test]
    fn search_jobs_run_several_hours_and_register() {
        let mut lfns = FileIdGen::new();
        let s = s2_search(1, SiteId(20), UserId(5), &mut lfns);
        let spec = s
            .workflow
            .iter()
            .find_map(|(_, t)| match t {
                LigoTask::Search { spec, .. } => Some(spec.clone()),
                _ => None,
            })
            .unwrap();
        assert!(spec.reference_runtime >= SimDuration::from_hours(2));
        assert!(spec.registers_output);
        assert_eq!(spec.class, UserClass::Ligo);
    }

    #[test]
    fn results_publish_back_to_ligo() {
        let mut lfns = FileIdGen::new();
        let s = s2_search(3, SiteId(7), UserId(5), &mut lfns);
        for (_, t) in s.workflow.iter() {
            if let LigoTask::PublishResults { to, .. } = t {
                assert_eq!(*to, SiteId(7));
            }
        }
    }
}

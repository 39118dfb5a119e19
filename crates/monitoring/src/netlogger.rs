//! NetLogger archive and analysis.
//!
//! §4.7: "NetLogger-instrumented GridFTP was used to monitor the Globus
//! Toolkit GridFTP server and URL copy program. NetLogger events were
//! generated at program start, end, and on errors." The archive ingests
//! the event stream produced by
//! [`GridFtp`](grid3_middleware::gridftp::GridFtp) and answers the
//! questions the data-transfer demonstrator asked: did long-running
//! transfers run reliably, what throughput was achieved, what failed and
//! why.

use grid3_middleware::gridftp::NetLogEvent;
use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::TransferId;
use grid3_simkit::stats::Summary;
use grid3_simkit::time::SimTime;
use grid3_simkit::units::Bytes;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Aggregate transfer statistics computed from the event stream.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TransferStats {
    /// Transfers started.
    pub started: u64,
    /// Transfers completed successfully.
    pub completed: u64,
    /// Transfers that errored.
    pub errored: u64,
    /// Achieved mean rates (Mbit/s) of completed transfers.
    pub rates_mbit: Summary,
    /// Durations (seconds) of completed transfers.
    pub durations_secs: Summary,
    /// Bytes moved by completed transfers (from the correlated Start
    /// event's payload size — End events carry only the rate).
    pub bytes_completed: Bytes,
}

impl TransferStats {
    /// Reliability = completed / started (for started transfers that
    /// reached a terminal event).
    pub fn reliability(&self) -> f64 {
        let terminal = self.completed + self.errored;
        if terminal == 0 {
            0.0
        } else {
            self.completed as f64 / terminal as f64
        }
    }
}

/// The archive: ingests NetLogger events, correlates start/end pairs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetLoggerArchive {
    open: FastMap<TransferId, (SimTime, Bytes)>,
    stats: TransferStats,
}

impl NetLoggerArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one event.
    pub fn ingest(&mut self, event: &NetLogEvent) {
        match event {
            NetLogEvent::Start { id, at, bytes } => {
                self.stats.started += 1;
                self.open.insert(*id, (*at, *bytes));
            }
            NetLogEvent::End { id, at, rate } => {
                self.stats.completed += 1;
                if let Some((start, bytes)) = self.open.remove(id) {
                    self.stats
                        .durations_secs
                        .record(at.since(start).as_secs_f64());
                    self.stats.rates_mbit.record(rate.as_mbit_per_sec());
                    self.stats.bytes_completed += bytes;
                }
            }
            NetLogEvent::Error { id, .. } => {
                self.stats.errored += 1;
                self.open.remove(id);
            }
        }
    }

    /// Ingest a batch, borrowed (`gridftp.log().iter()`) or drained
    /// (`gridftp.drain_log()`).
    pub fn ingest_all<E: Borrow<NetLogEvent>>(&mut self, events: impl IntoIterator<Item = E>) {
        for e in events {
            self.ingest(e.borrow());
        }
    }

    /// The aggregate statistics so far.
    pub fn stats(&self) -> &TransferStats {
        &self.stats
    }

    /// Transfers started but not yet terminal.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_middleware::gridftp::{GridFtp, TransferRequest};
    use grid3_simkit::ids::SiteId;
    use grid3_simkit::units::Bandwidth;
    use grid3_site::vo::Vo;

    fn run_fabric_scenario() -> (NetLoggerArchive, usize) {
        let mut g = GridFtp::new([
            (SiteId(0), Bandwidth::from_mbit_per_sec(1000.0)),
            (SiteId(1), Bandwidth::from_mbit_per_sec(100.0)),
        ]);
        let mut finishes = Vec::new();
        for _ in 0..5 {
            let (id, f) = g
                .start(
                    TransferRequest {
                        src: SiteId(0),
                        dst: SiteId(1),
                        bytes: Bytes::from_gb(1),
                        vo: Vo::Ivdgl,
                    },
                    SimTime::EPOCH,
                )
                .unwrap();
            finishes.push((id, f));
        }
        // Complete 4, fail the site under the last one.
        for (id, f) in finishes.iter().take(4) {
            g.complete(*id, *f).unwrap();
        }
        let failed = g.fail_site(SiteId(1), SimTime::from_secs(10));
        let mut archive = NetLoggerArchive::new();
        archive.ingest_all(g.log().iter());
        (archive, failed.len())
    }

    #[test]
    fn archive_correlates_start_end_pairs() {
        let (archive, failed) = run_fabric_scenario();
        let s = archive.stats();
        assert_eq!(s.started, 5);
        assert_eq!(s.completed, 4);
        assert_eq!(s.errored as usize, failed);
        assert_eq!(archive.open_count(), 0);
        assert!((s.reliability() - 0.8).abs() < 1e-12);
        assert_eq!(s.durations_secs.count(), 4);
        assert!(s.rates_mbit.mean() > 0.0);
        // Only the four completed transfers contribute bytes.
        assert_eq!(s.bytes_completed, Bytes::from_gb(4));
    }

    #[test]
    fn empty_archive_reports_zero_reliability() {
        let a = NetLoggerArchive::new();
        assert_eq!(a.stats().reliability(), 0.0);
        assert_eq!(a.open_count(), 0);
    }

    #[test]
    fn open_transfers_tracked_until_terminal() {
        let mut g = GridFtp::new([(SiteId(0), Bandwidth::from_mbit_per_sec(100.0))]);
        let (id, f) = g
            .start(
                TransferRequest {
                    src: SiteId(0),
                    dst: SiteId(0),
                    bytes: Bytes::from_gb(1),
                    vo: Vo::Sdss,
                },
                SimTime::EPOCH,
            )
            .unwrap();
        let mut archive = NetLoggerArchive::new();
        archive.ingest_all(g.drain_log());
        assert_eq!(archive.open_count(), 1);
        g.complete(id, f).unwrap();
        archive.ingest_all(g.drain_log());
        assert_eq!(archive.open_count(), 0);
        assert_eq!(archive.stats().completed, 1);
    }
}

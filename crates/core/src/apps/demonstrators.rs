//! The computer-science demonstrators of §4.7.
//!
//! * **Entrada GridFTP demo** — "a data transfer study … to evaluate
//!   whether we could perform large-scale reliable data transfers between
//!   Grid3 sites. A Java-based plug-in environment (Entrada) was used to
//!   generate simulated traffic between a matrix of sites in a periodic
//!   fashion." §6.3: the demo met the 2 TB/day goal and "accounted for
//!   most data transferred on Grid3" (Figure 5).
//!
//! The Condor exerciser ("an exerciser backfill application provided by
//! the Condor group tested the status of the batch systems … at 15 minute
//! intervals") runs as the `Exerciser` class of [`super::workloads`].

use grid3_middleware::gridftp::TransferRequest;
use grid3_simkit::ids::SiteId;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};

/// The Entrada periodic transfer-matrix demonstrator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntradaDemo {
    /// Sites participating in the matrix.
    pub sites: Vec<SiteId>,
    /// Period between matrix rounds.
    pub period: SimDuration,
    /// Bytes per (src → dst) pair per round.
    pub bytes_per_pair: Bytes,
}

impl EntradaDemo {
    /// A demo sized to move at least `daily_target` per day over the full
    /// site matrix: bytes/pair = target / (rounds/day × pairs).
    pub fn sized_for_daily_target(
        sites: Vec<SiteId>,
        period: SimDuration,
        daily_target: Bytes,
    ) -> Self {
        let n = sites.len();
        assert!(n >= 2, "need at least two sites for a matrix");
        let pairs = (n * (n - 1)) as u64;
        let rounds_per_day = (86_400.0 / period.as_secs_f64()).max(1.0) as u64;
        let bytes_per_pair = Bytes::new(daily_target.as_u64().div_ceil(pairs * rounds_per_day));
        EntradaDemo {
            sites,
            period,
            bytes_per_pair,
        }
    }

    /// The transfer requests of one matrix round: every ordered pair.
    pub fn round(&self) -> Vec<TransferRequest> {
        let mut reqs = Vec::with_capacity(self.sites.len() * (self.sites.len() - 1));
        for &src in &self.sites {
            for &dst in &self.sites {
                if src != dst {
                    reqs.push(TransferRequest {
                        src,
                        dst,
                        bytes: self.bytes_per_pair,
                        vo: Vo::Ivdgl, // the demo ran under iVDGL
                    });
                }
            }
        }
        reqs
    }

    /// Round start times over an observation window.
    pub fn round_times(&self, start: SimTime, horizon: SimDuration) -> Vec<SimTime> {
        let mut times = Vec::new();
        let mut t = start;
        let end = start + horizon;
        while t < end {
            times.push(t);
            t += self.period;
        }
        times
    }

    /// Bytes one full day of rounds moves (all pairs × rounds).
    pub fn daily_volume(&self) -> Bytes {
        let pairs = (self.sites.len() * (self.sites.len() - 1)) as u64;
        let rounds = (86_400.0 / self.period.as_secs_f64()) as u64;
        self.bytes_per_pair * (pairs * rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(n: u32) -> Vec<SiteId> {
        (0..n).map(SiteId).collect()
    }

    #[test]
    fn matrix_round_covers_all_ordered_pairs() {
        let demo = EntradaDemo {
            sites: sites(4),
            period: SimDuration::from_hours(1),
            bytes_per_pair: Bytes::from_gb(1),
        };
        let round = demo.round();
        assert_eq!(round.len(), 12);
        assert!(round.iter().all(|r| r.src != r.dst));
        assert!(round.iter().all(|r| r.vo == Vo::Ivdgl));
    }

    #[test]
    fn sizing_meets_the_two_terabyte_goal() {
        // §6.3: the demo met the 2 TB/day target across Grid3.
        let demo = EntradaDemo::sized_for_daily_target(
            sites(10),
            SimDuration::from_hours(1),
            Bytes::from_tb(2),
        );
        assert!(demo.daily_volume() >= Bytes::from_tb(2));
        // And not wildly oversized (within 10 %).
        assert!(demo.daily_volume() < Bytes::from_tb(2) * 1.1);
    }

    #[test]
    fn round_times_are_periodic() {
        let demo = EntradaDemo {
            sites: sites(2),
            period: SimDuration::from_hours(6),
            bytes_per_pair: Bytes::from_gb(1),
        };
        let times = demo.round_times(SimTime::EPOCH, SimDuration::from_days(1));
        assert_eq!(times.len(), 4);
        assert_eq!(times[1], SimTime::from_hours(6));
    }

    #[test]
    #[should_panic(expected = "at least two sites")]
    fn single_site_matrix_rejected() {
        EntradaDemo::sized_for_daily_target(
            sites(1),
            SimDuration::from_hours(1),
            Bytes::from_tb(2),
        );
    }
}

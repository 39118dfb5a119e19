//! GridFTP: wide-area transfers over shared site links, with
//! NetLogger-style instrumentation.
//!
//! §6.3 reports the transfer behaviour Grid3 achieved ("we met our goal of
//! transferring 2 TB across Grid3 per day, and long-running data transfers
//! ran reliably"), and §4.7 describes the NetLogger instrumentation:
//! "events were generated at program start, end, and on errors (the
//! default) and for all significant I/O requests (by request)."
//!
//! Bandwidth model: each site has one WAN link; a transfer's rate is fixed
//! at start time as `min(src_link/src_streams, dst_link/dst_streams)` —
//! a snapshot fair-share approximation. A full fluid model (re-rating all
//! flows on every arrival/departure) changes individual durations but not
//! the aggregate daily volumes the paper reports, and the snapshot model
//! keeps every transfer a single future event.

use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{SiteId, TransferId, TransferIdGen};
use grid3_simkit::telemetry::{Counter, Telemetry};
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::{Bandwidth, Bytes};
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};

/// Per-transfer setup cost (GSI handshake, control channel).
pub(crate) const SETUP_LATENCY: SimDuration = SimDuration::from_secs(2);

/// Registry label for a VO (the paper's Figure 5 groups volume by VO).
fn vo_label(vo: Vo) -> &'static str {
    vo.name()
}

/// A transfer to be performed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRequest {
    /// Source site.
    pub src: SiteId,
    /// Destination site.
    pub dst: SiteId,
    /// Payload size.
    pub bytes: Bytes,
    /// VO on whose behalf the data moves (Figure 5 groups volume by VO).
    pub vo: Vo,
}

/// Why a transfer failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferError {
    /// A site's link or service was down at start.
    EndpointDown(
        /// The down endpoint.
        SiteId,
    ),
    /// The transfer was killed mid-flight by a site failure.
    KilledBySiteFailure(
        /// The failed endpoint.
        SiteId,
    ),
    /// Unknown transfer id.
    UnknownTransfer,
    /// The stream was cut mid-transfer, leaving a partial file at the
    /// destination (fault-injection path; the partial may be resumed
    /// after checksum verification).
    Truncated,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::EndpointDown(site) => write!(f, "endpoint {site} down at start"),
            TransferError::KilledBySiteFailure(site) => {
                write!(f, "transfer killed by failure at {site}")
            }
            TransferError::UnknownTransfer => write!(f, "unknown transfer id"),
            TransferError::Truncated => write!(f, "stream cut mid-transfer (partial delivered)"),
        }
    }
}

impl std::error::Error for TransferError {}

/// Result of truncating an in-flight transfer: the failed outcome (with
/// partial `delivered` bytes) plus the bytes that never made it, from
/// which the caller can issue a checksum-verified resume transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TruncatedTransfer {
    /// The terminal outcome of the cut transfer (`error == Truncated`,
    /// `delivered` = bytes that landed before the cut).
    pub outcome: TransferOutcome,
    /// Bytes still owed: `request.bytes - delivered`.
    pub remaining: Bytes,
}

/// Terminal result of a transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferOutcome {
    /// The transfer's id.
    pub id: TransferId,
    /// The original request.
    pub request: TransferRequest,
    /// When it started.
    pub started: SimTime,
    /// When it reached a terminal state.
    pub finished: SimTime,
    /// Bytes actually delivered (full payload on success).
    pub delivered: Bytes,
    /// `None` on success, the error otherwise.
    pub error: Option<TransferError>,
}

/// One NetLogger event (§4.7 instrumentation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetLogEvent {
    /// Transfer program start.
    Start {
        /// Transfer id.
        id: TransferId,
        /// Event time.
        at: SimTime,
        /// Payload size.
        bytes: Bytes,
    },
    /// Transfer program end (success).
    End {
        /// Transfer id.
        id: TransferId,
        /// Event time.
        at: SimTime,
        /// Achieved mean rate.
        rate: Bandwidth,
    },
    /// Error event.
    Error {
        /// Transfer id.
        id: TransferId,
        /// Event time.
        at: SimTime,
        /// The error.
        error: TransferError,
    },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ActiveTransfer {
    request: TransferRequest,
    started: SimTime,
    rate: Bandwidth,
}

/// The grid-wide GridFTP fabric.
///
/// Per-site link state lives in dense `Vec`s indexed by `site.index()`
/// (site ids are dense from 0), so the per-transfer rate computation and
/// stream accounting are array reads; only the in-flight transfer table
/// needs a map, keyed by the deterministic fast hasher.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridFtp {
    /// Dense by site index; unknown sites read as zero bandwidth.
    links: Vec<Bandwidth>,
    /// Dense by site index; unknown sites read as "down".
    link_up: Vec<bool>,
    /// Dense by site index; concurrent transfers touching the site.
    streams: Vec<usize>,
    active: FastMap<TransferId, ActiveTransfer>,
    ids: TransferIdGen,
    log: Vec<NetLogEvent>,
    /// Pre-interned per-VO transfer counters, each indexed by
    /// `Vo::index()`: one slot-indexed add per transfer event, no
    /// lookup on the hot path.
    #[serde(skip)]
    c_started: Vec<Counter>,
    #[serde(skip)]
    c_completed: Vec<Counter>,
    #[serde(skip)]
    c_bytes_completed: Vec<Counter>,
    #[serde(skip)]
    c_failed: Vec<Counter>,
    #[serde(skip)]
    c_truncated: Vec<Counter>,
}

impl GridFtp {
    /// A fabric with the given per-site link bandwidths. NetLogger event
    /// capture is on by default (the Grid3 default per §4.7).
    pub fn new(links: impl IntoIterator<Item = (SiteId, Bandwidth)>) -> Self {
        let mut table: Vec<Bandwidth> = Vec::new();
        let mut up: Vec<bool> = Vec::new();
        for (site, bw) in links {
            let idx = site.index();
            if idx >= table.len() {
                table.resize(idx + 1, Bandwidth::ZERO);
                up.resize(idx + 1, false);
            }
            table[idx] = bw;
            up[idx] = true;
        }
        let streams = vec![0; table.len()];
        GridFtp {
            links: table,
            link_up: up,
            streams,
            active: FastMap::default(),
            ids: TransferIdGen::new(),
            log: Vec::new(),
            c_started: Vec::new(),
            c_completed: Vec::new(),
            c_bytes_completed: Vec::new(),
            c_failed: Vec::new(),
            c_truncated: Vec::new(),
        }
    }

    /// Attach the grid-wide instrumentation handle. Transfer counters are
    /// labelled by VO, matching the paper's Figure 5 (volume by VO); all
    /// thirty slots are interned here, once.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        let per_vo = |name: &'static str| -> Vec<Counter> {
            Vo::ALL
                .iter()
                .map(|vo| tele.register_counter("gridftp", name, vo_label(*vo)))
                .collect()
        };
        self.c_started = per_vo("started");
        self.c_completed = per_vo("completed");
        self.c_bytes_completed = per_vo("bytes_completed");
        self.c_failed = per_vo("failed");
        self.c_truncated = per_vo("truncated");
    }

    /// Mark a site's link up or down.
    pub fn set_link_up(&mut self, site: SiteId, up: bool) {
        let idx = site.index();
        if idx >= self.link_up.len() {
            self.link_up.resize(idx + 1, false);
        }
        self.link_up[idx] = up;
    }

    /// Whether a site's link is up.
    pub(crate) fn is_link_up(&self, site: SiteId) -> bool {
        self.link_up.get(site.index()).copied().unwrap_or(false)
    }

    /// Concurrent transfers currently touching `site`.
    pub(crate) fn streams_at(&self, site: SiteId) -> usize {
        self.streams.get(site.index()).copied().unwrap_or(0)
    }

    /// Number of in-flight transfers.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Begin a transfer at `now`. On success returns the transfer id and
    /// its completion time; the caller schedules the completion event and
    /// later calls [`GridFtp::complete`].
    pub fn start(
        &mut self,
        request: TransferRequest,
        now: SimTime,
    ) -> Result<(TransferId, SimTime), TransferError> {
        for endpoint in [request.src, request.dst] {
            if !self.is_link_up(endpoint) {
                return Err(TransferError::EndpointDown(endpoint));
            }
        }
        let id = self.ids.next_id();
        if let Some(c) = self.c_started.get(request.vo.index()) {
            c.add(1);
        }
        self.bump_streams(request.src);
        if request.dst != request.src {
            self.bump_streams(request.dst);
        }
        let rate = self.current_rate(request.src, request.dst);
        let duration = rate
            .transfer_time(request.bytes)
            .unwrap_or(SimDuration::ZERO)
            + SETUP_LATENCY;
        let finish = now + duration;
        self.log.push(NetLogEvent::Start {
            id,
            at: now,
            bytes: request.bytes,
        });
        self.active.insert(
            id,
            ActiveTransfer {
                request,
                started: now,
                rate,
            },
        );
        Ok((id, finish))
    }

    /// Complete a transfer at `now` (its scheduled finish time).
    pub fn complete(
        &mut self,
        id: TransferId,
        now: SimTime,
    ) -> Result<TransferOutcome, TransferError> {
        let t = self
            .active
            .remove(&id)
            .ok_or(TransferError::UnknownTransfer)?;
        self.release_streams(&t.request);
        let vo = t.request.vo.index();
        if let Some(c) = self.c_completed.get(vo) {
            c.add(1);
        }
        if let Some(c) = self.c_bytes_completed.get(vo) {
            c.add(t.request.bytes.as_u64());
        }
        self.log.push(NetLogEvent::End {
            id,
            at: now,
            rate: t.rate,
        });
        Ok(TransferOutcome {
            id,
            delivered: t.request.bytes,
            request: t.request,
            started: t.started,
            finished: now,
            error: None,
        })
    }

    /// Kill every in-flight transfer touching `site` (its link or service
    /// failed). Returns the failed outcomes; partial bytes are estimated
    /// from elapsed time × rate.
    pub fn fail_site(&mut self, site: SiteId, now: SimTime) -> Vec<TransferOutcome> {
        let victims: Vec<TransferId> = self
            .active
            .iter()
            .filter(|(_, t)| t.request.src == site || t.request.dst == site)
            .map(|(id, _)| *id)
            .collect();
        let mut out = Vec::with_capacity(victims.len());
        let mut victims = victims;
        victims.sort(); // deterministic order
        for id in victims {
            let t = self.active.remove(&id).expect("victim present");
            self.release_streams(&t.request);
            let elapsed = now.since(t.started).as_secs_f64();
            let partial = Bytes::new(
                ((t.rate.as_bytes_per_sec() * elapsed) as u64).min(t.request.bytes.as_u64()),
            );
            let error = TransferError::KilledBySiteFailure(site);
            if let Some(c) = self.c_failed.get(t.request.vo.index()) {
                c.add(1);
            }
            self.log.push(NetLogEvent::Error { id, at: now, error });
            out.push(TransferOutcome {
                id,
                delivered: partial,
                request: t.request,
                started: t.started,
                finished: now,
                error: Some(error),
            });
        }
        out
    }

    /// Cut one in-flight transfer mid-stream (fault injection), leaving
    /// a partial file at the destination. Bytes delivered before the cut
    /// are estimated from elapsed time × rate, exactly like
    /// [`GridFtp::fail_site`]; the returned [`TruncatedTransfer`] tells
    /// the caller how many bytes a resume transfer still owes.
    pub fn truncate(
        &mut self,
        id: TransferId,
        now: SimTime,
    ) -> Result<TruncatedTransfer, TransferError> {
        let t = self
            .active
            .remove(&id)
            .ok_or(TransferError::UnknownTransfer)?;
        self.release_streams(&t.request);
        let elapsed = now.since(t.started).as_secs_f64();
        let partial = Bytes::new(
            ((t.rate.as_bytes_per_sec() * elapsed) as u64).min(t.request.bytes.as_u64()),
        );
        let error = TransferError::Truncated;
        if let Some(c) = self.c_truncated.get(t.request.vo.index()) {
            c.add(1);
        }
        self.log.push(NetLogEvent::Error { id, at: now, error });
        let remaining = t.request.bytes.saturating_sub(partial);
        Ok(TruncatedTransfer {
            outcome: TransferOutcome {
                id,
                delivered: partial,
                request: t.request,
                started: t.started,
                finished: now,
                error: Some(error),
            },
            remaining,
        })
    }

    /// The captured NetLogger event stream.
    pub fn log(&self) -> &[NetLogEvent] {
        &self.log
    }

    /// Drain the captured log (hand events to the monitoring pipeline).
    /// The log keeps its buffer, so a periodic drain stops reallocating
    /// once the buffer has grown to the busiest period's size.
    pub fn drain_log(&mut self) -> std::vec::Drain<'_, NetLogEvent> {
        self.log.drain(..)
    }

    fn current_rate(&self, src: SiteId, dst: SiteId) -> Bandwidth {
        let link = |site: SiteId| {
            self.links
                .get(site.index())
                .copied()
                .unwrap_or(Bandwidth::ZERO)
        };
        let src_rate = link(src).share(self.streams_at(src));
        let dst_rate = link(dst).share(self.streams_at(dst));
        if src_rate.as_bytes_per_sec() <= dst_rate.as_bytes_per_sec() {
            src_rate
        } else {
            dst_rate
        }
    }

    fn bump_streams(&mut self, site: SiteId) {
        let idx = site.index();
        if idx >= self.streams.len() {
            self.streams.resize(idx + 1, 0);
        }
        self.streams[idx] += 1;
    }

    fn release_streams(&mut self, req: &TransferRequest) {
        for site in [req.src, req.dst] {
            if let Some(s) = self.streams.get_mut(site.index()) {
                *s = s.saturating_sub(1);
            }
            if req.dst == req.src {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> GridFtp {
        GridFtp::new([
            (SiteId(0), Bandwidth::from_mbit_per_sec(1000.0)),
            (SiteId(1), Bandwidth::from_mbit_per_sec(100.0)),
            (SiteId(2), Bandwidth::from_mbit_per_sec(100.0)),
        ])
    }

    fn req(src: u32, dst: u32, gb: u64) -> TransferRequest {
        TransferRequest {
            src: SiteId(src),
            dst: SiteId(dst),
            bytes: Bytes::from_gb(gb),
            vo: Vo::Ivdgl,
        }
    }

    #[test]
    fn single_transfer_rate_is_bottleneck_link() {
        let mut g = fabric();
        // 2 GB from fast site 0 to 100 Mbit/s site 1 → bottleneck 100 Mbit/s
        // = 12.5 MB/s → 160 s + 2 s setup.
        let (_, finish) = g.start(req(0, 1, 2), SimTime::EPOCH).unwrap();
        assert!((finish.as_secs_f64() - 162.0).abs() < 1e-6);
        assert_eq!(g.active_count(), 1);
        assert_eq!(g.streams_at(SiteId(0)), 1);
        assert_eq!(g.streams_at(SiteId(1)), 1);
    }

    #[test]
    fn concurrent_streams_share_links() {
        let mut g = fabric();
        let (_, f1) = g.start(req(0, 1, 2), SimTime::EPOCH).unwrap();
        // Second transfer into site 1: its share is 100/2 = 50 Mbit/s.
        let (_, f2) = g.start(req(0, 1, 2), SimTime::EPOCH).unwrap();
        assert!((f1.as_secs_f64() - 162.0).abs() < 1e-6);
        assert!((f2.as_secs_f64() - 322.0).abs() < 1e-6);
    }

    #[test]
    fn completion_frees_streams_and_logs() {
        let mut g = fabric();
        let (id, finish) = g.start(req(0, 1, 1), SimTime::EPOCH).unwrap();
        let outcome = g.complete(id, finish).unwrap();
        assert!(outcome.error.is_none());
        assert_eq!(outcome.delivered, Bytes::from_gb(1));
        assert_eq!(g.active_count(), 0);
        assert_eq!(g.streams_at(SiteId(1)), 0);
        assert!(matches!(g.log()[0], NetLogEvent::Start { .. }));
        assert!(matches!(g.log()[1], NetLogEvent::End { .. }));
        // Unknown id errors.
        assert_eq!(
            g.complete(id, finish).unwrap_err(),
            TransferError::UnknownTransfer
        );
    }

    #[test]
    fn truncation_reports_partial_and_remaining() {
        let mut g = fabric();
        let (id, finish) = g.start(req(0, 1, 2), SimTime::EPOCH).unwrap();
        // Cut the stream halfway through its life.
        let cut_at = SimTime::from_secs(80);
        assert!(cut_at < finish);
        let t = g.truncate(id, cut_at).unwrap();
        assert_eq!(t.outcome.error, Some(TransferError::Truncated));
        assert!(t.outcome.delivered > Bytes::ZERO);
        assert!(t.outcome.delivered < Bytes::from_gb(2));
        assert_eq!(
            t.outcome.delivered + t.remaining,
            Bytes::from_gb(2),
            "partial + remaining must equal the payload"
        );
        // Streams released; the id is gone.
        assert_eq!(g.active_count(), 0);
        assert_eq!(g.streams_at(SiteId(0)), 0);
        assert_eq!(g.streams_at(SiteId(1)), 0);
        assert_eq!(
            g.truncate(id, cut_at).unwrap_err(),
            TransferError::UnknownTransfer
        );
        // A resume transfer for the remainder can start immediately.
        let resume = TransferRequest {
            bytes: t.remaining,
            ..t.outcome.request
        };
        assert!(g.start(resume, cut_at).is_ok());
    }

    #[test]
    fn down_endpoint_rejects_start() {
        let mut g = fabric();
        g.set_link_up(SiteId(1), false);
        assert_eq!(
            g.start(req(0, 1, 1), SimTime::EPOCH).unwrap_err(),
            TransferError::EndpointDown(SiteId(1))
        );
        // Unknown site has no link → down.
        assert!(g.start(req(0, 9, 1), SimTime::EPOCH).is_err());
    }

    #[test]
    fn site_failure_kills_in_flight_transfers() {
        let mut g = fabric();
        let (_, _) = g.start(req(0, 1, 2), SimTime::EPOCH).unwrap();
        let (_, _) = g.start(req(2, 1, 2), SimTime::EPOCH).unwrap();
        let (_, _) = g.start(req(0, 2, 2), SimTime::EPOCH).unwrap();
        // Site 1 dies 80 s in: the two transfers touching it fail.
        let failed = g.fail_site(SiteId(1), SimTime::from_secs(80));
        assert_eq!(failed.len(), 2);
        for f in &failed {
            assert_eq!(f.error, Some(TransferError::KilledBySiteFailure(SiteId(1))));
            // Partial delivery strictly between 0 and full.
            assert!(f.delivered > Bytes::ZERO);
            assert!(f.delivered < Bytes::from_gb(2));
        }
        assert_eq!(g.active_count(), 1);
        // Streams at surviving endpoints released.
        assert_eq!(g.streams_at(SiteId(1)), 0);
    }

    #[test]
    fn same_site_transfer_counts_one_stream() {
        let mut g = fabric();
        let (_, _) = g.start(req(1, 1, 1), SimTime::EPOCH).unwrap();
        assert_eq!(g.streams_at(SiteId(1)), 1);
    }

    #[test]
    fn log_can_be_drained() {
        let mut g = fabric();
        let (id, f) = g.start(req(0, 1, 1), SimTime::EPOCH).unwrap();
        g.complete(id, f).unwrap();
        assert_eq!(g.drain_log().len(), 2);
        assert!(g.log().is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Stream counters return to zero after any mix of starts,
            /// completions and site failures.
            #[test]
            fn streams_conserved(ops in proptest::collection::vec((0u32..3, 0u32..3, 1u64..5), 1..60)) {
                let mut g = fabric();
                let mut inflight: Vec<TransferId> = Vec::new();
                let mut now = SimTime::EPOCH;
                for (src, dst, gb) in ops {
                    now += SimDuration::from_secs(1);
                    if let Ok((id, _)) = g.start(req(src, dst, gb), now) {
                        inflight.push(id);
                    }
                }
                // Finish everything.
                for id in inflight {
                    now += SimDuration::from_secs(1);
                    let _ = g.complete(id, now);
                }
                for s in 0..3u32 {
                    prop_assert_eq!(g.streams_at(SiteId(s)), 0);
                }
                prop_assert_eq!(g.active_count(), 0);
            }
        }
    }
}

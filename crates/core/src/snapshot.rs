//! Engine snapshot/restore: serialize a live [`Grid3Engine`] mid-run and
//! resume it later, bit-identically.
//!
//! A snapshot captures the *run-mutated* state — the simulation clock and
//! pending event queue (including the ladder queue's full
//! rung-refinement state), the workload arrival cursor, both RNG stream
//! positions, every site's cluster/storage/scheduler state, the
//! middleware fabric (GridFTP transfers in flight, RLS catalog, MDS
//! records, tickets, monitoring archives), all five subsystems'
//! accumulators, the federation tally and the invariant auditor. Everything that is a pure function of the
//! scenario configuration — topology, install pipeline, arena pools,
//! broker caches, the workload arrival table — is *not* captured:
//! [`Grid3Engine::restore`] rebuilds it by re-assembling the scenario and
//! overlaying the captured state (the arrival table drops the rows the
//! cursor says were already delivered).
//!
//! Deliberately not captured (observation-only, process-local):
//!
//! * the cost profiler's wall-clock accumulators — restored runs start a
//!   fresh profile;
//! * the ops journal — the journal is an append-only log beside the run;
//!   a resumed run appends to a fresh journal from the restore point.
//!
//! None of these feed back into simulation state, so their loss cannot
//! move a simulated byte — the differential suite in `tests/snapshot.rs`
//! pins snapshot→restore→run against uninterrupted runs for every golden
//! scenario of `tests/determinism.rs`.
//!
//! # On-disk format
//!
//! See DESIGN.md §13. A snapshot file is a small header followed by the
//! positional binary encoding of [`EngineSnapshot`] (the vendored
//! serde's `Encode`/`Decode`: fields in declaration order, no names, no
//! type tags):
//!
//! ```text
//! [8B magic "G3ENGSNP"] [4B version LE] [8B FNV-1a checksum LE] [payload]
//! ```
//!
//! [`EngineSnapshot::write_to`] streams the payload behind a header
//! whose checksum is still zero, keeping the running FNV-1a sum, then
//! writes the sum in place: a file never sits in memory whole, and its
//! bytes are exactly [`EngineSnapshot::to_bytes`].
//!
//! The checksum covers the payload only; a torn or bit-flipped file fails
//! closed with a typed [`SnapshotError`] instead of deserializing
//! garbage, and a payload that passes the checksum but is not a valid
//! encoding still fails closed (the decoder bounds every length and the
//! nesting depth). The version is bumped whenever the payload schema
//! changes shape; old versions are rejected, not migrated (snapshots are
//! ephemeral crash-recovery artifacts, not archival data).

use crate::chaos::{ChaosState, InvariantAuditor};
use crate::engine::Grid3Engine;
use crate::federation::FederationCapture;
use crate::resilience::ResilienceLayer;
use crate::scenario::ScenarioConfig;
use crate::subsystems::brokering::BrokeringCapture;
use crate::subsystems::fabric::{ActiveJob, TransferPurpose};
use crate::subsystems::fault::FaultHandling;
use crate::subsystems::reporting::ReportingCapture;
use crate::subsystems::staging::Staging;
use crate::subsystems::GridEvent;
use grid3_igoc::center::CenterCapture;
use grid3_middleware::gram::Gatekeeper;
use grid3_middleware::gridftp::GridFtp;
use grid3_middleware::gsi::CertificateAuthority;
use grid3_middleware::rls::ReplicaLocationService;
use grid3_middleware::voms::VomsServer;
use grid3_monitoring::trace::TraceStore;
use grid3_simkit::engine::EventQueue;
use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{JobId, JobIdGen, TransferId};
use grid3_simkit::rng::SimRng;
use grid3_simkit::series::GaugeTracker;
use grid3_simkit::time::SimTime;
use grid3_site::cluster::Site;
use serde::{DecodeError, Deserialize, Encode, Serialize, Sink};
use std::borrow::Cow;
use std::io::{BufWriter, Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// Current snapshot payload schema version. Bumped on any change to the
/// captured field set or their serde shapes; readers reject mismatches.
/// Version 2 replaced the queued workload submissions with the arrival
/// cursor; version 3 replaced the encoded value tree with the positional
/// binary codec; version 4 dropped the config's queue-backend option and
/// the checkpointed state nothing read (the job gauge's time integral,
/// the gatekeeper peak load, the GridFTP log switch, the scheduler's
/// constant shares and long-job cap, the replica catalogs' physical file
/// names); version 5 carries the MonALISA repository as one ring per
/// row without per-series geometry, the Ganglia summaries and status
/// catalog as site-indexed rows, and storage files in id order; version
/// 6 dropped the replica service's index and size table and DAGMan's
/// retry total; version 7 dropped the config's telemetry switch;
/// version 8 dropped the MonALISA CPU-load row from every site and the
/// status catalog's probe interval.
pub(crate) const SNAPSHOT_VERSION: u32 = 8;

/// File magic: "G3ENGSNP".
const MAGIC: [u8; 8] = *b"G3ENGSNP";

/// Header length in bytes (magic + version + checksum).
const HEADER_LEN: usize = 8 + 4 + 8;

/// Offset of the payload checksum within the header.
const CHECKSUM_AT: usize = 8 + 4;

/// The file header with a zero checksum, patched in once the payload
/// has been encoded.
fn header() -> [u8; HEADER_LEN] {
    let mut out = [0; HEADER_LEN];
    out[..8].copy_from_slice(&MAGIC);
    out[8..CHECKSUM_AT].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out
}

/// A serialized-engine error: bad files fail closed with a typed cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem error (open/read/write/rename).
    Io(String),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's schema version is not `SNAPSHOT_VERSION`.
    UnsupportedVersion(u32),
    /// The payload checksum does not match — torn write or corruption.
    ChecksumMismatch,
    /// The file ends mid-value.
    Truncated,
    /// The payload is not a valid encoding of the engine schema.
    Decode(String),
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => SnapshotError::Truncated,
            other => SnapshotError::Decode(other.to_string()),
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot io error: {msg}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (want {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Decode(msg) => write!(f, "snapshot decode error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a's starting state.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a hash in state `h` over `bytes`.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a byte stream: the same stable hash the golden-report
/// suite uses, here guarding snapshot payloads and journal records.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// A snapshot file being written: the payload passes through a buffer
/// to the file, and its FNV-1a sum is kept on the way. `Encode` cannot
/// fail mid-value, so the first write error is held here (later writes
/// are dropped) for [`EngineSnapshot::write_to`] to return.
struct ChecksummedFile {
    file: BufWriter<std::fs::File>,
    sum: u64,
    error: Option<std::io::Error>,
}

impl Sink for ChecksummedFile {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.sum = fnv1a64_extend(self.sum, bytes);
        if self.error.is_none() {
            if let Err(e) = self.file.write_all(bytes) {
                self.error = Some(e);
            }
        }
    }
}

/// Sync the directory holding `path`, so that a file created in it or
/// renamed into it survives a power cut.
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

// ---------------------------------------------------------------------
// The snapshot itself
// ---------------------------------------------------------------------

/// A serialized [`Grid3Engine`]: the complete run-mutated state of a
/// simulation at one instant (see the module docs for the capture
/// boundary). [`Grid3Engine::write_snapshot`] writes one that borrows the
/// live engine's state; [`Grid3Engine::snapshot`] returns one that owns
/// a copy, and a decoded one owns what it read. Either encodes to the
/// same bytes; [`Grid3Engine::restore`] consumes one.
#[derive(Clone, Serialize, Deserialize)]
pub struct EngineSnapshot<'a> {
    version: u32,
    cfg: Cow<'a, ScenarioConfig>,
    queue: Cow<'a, EventQueue<GridEvent>>,
    broker_rng: SimRng,
    fate_rng: SimRng,
    traces: Cow<'a, TraceStore>,
    sites: Cow<'a, [Site]>,
    gatekeepers: Cow<'a, [Gatekeeper]>,
    gridftp: Cow<'a, GridFtp>,
    rls: Cow<'a, ReplicaLocationService>,
    center: CenterCapture<'a>,
    voms: Cow<'a, [VomsServer]>,
    ca: Cow<'a, CertificateAuthority>,
    resilience: Option<Cow<'a, ResilienceLayer>>,
    job_gauge: GaugeTracker,
    jobs: Cow<'a, FastMap<JobId, ActiveJob>>,
    job_ids: JobIdGen,
    transfer_purpose: Cow<'a, FastMap<TransferId, TransferPurpose>>,
    chaos: Cow<'a, ChaosState>,
    federation: FederationCapture<'a>,
    brokering: BrokeringCapture<'a>,
    staging: Cow<'a, Staging>,
    fault: Cow<'a, FaultHandling>,
    reporting: ReportingCapture<'a>,
    auditor: Option<Cow<'a, InvariantAuditor>>,
}

/// Own `part`, cloning it if it is borrowed.
fn owned<T: ToOwned + ?Sized + 'static>(part: Cow<'_, T>) -> Cow<'static, T> {
    Cow::Owned(part.into_owned())
}

impl EngineSnapshot<'_> {
    /// The scenario configuration the snapshot was taken under. A
    /// restore re-assembles exactly this configuration before overlaying
    /// the captured state, so the snapshot is self-describing.
    pub fn scenario(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The simulation clock at capture time.
    pub fn sim_now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events pending in the captured queue: in-flight work only.
    /// Undelivered workload arrivals are not queued events (a restore
    /// rebuilds them from the scenario) and are not counted.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Timed events the run had processed by capture time.
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Serialize to the versioned, checksummed binary format (see the
    /// module docs): the payload is encoded once, straight after the
    /// header, and its checksum patched in.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = header().to_vec();
        self.encode(&mut out);
        let sum = fnv1a64(&out[HEADER_LEN..]);
        out[CHECKSUM_AT..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse the binary format, verifying magic, version and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<EngineSnapshot<'static>, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(if bytes.starts_with(&MAGIC) || MAGIC.starts_with(bytes) {
                SnapshotError::Truncated
            } else {
                SnapshotError::BadMagic
            });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let want = u64::from_le_bytes(bytes[CHECKSUM_AT..HEADER_LEN].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if fnv1a64(payload) != want {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let snap: EngineSnapshot<'static> = serde::binary::from_bytes(payload)?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(snap.version));
        }
        Ok(snap)
    }

    /// Write the binary format to `path` atomically and durably: the
    /// payload streams through a buffer into a sibling `.tmp` file behind
    /// a header whose checksum is patched in once the payload is written,
    /// so the file never sits in memory whole. The `.tmp` file is synced
    /// to disk before it is renamed into place, and the directory is
    /// synced after the rename. A crash or power cut at any point leaves
    /// the previous snapshot or the new one under the final name — never
    /// a torn one.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
        let tmp = path.with_extension("tmp");
        let file = std::fs::File::create(&tmp).map_err(io)?;
        let mut out = ChecksummedFile {
            file: BufWriter::with_capacity(1 << 16, file),
            sum: FNV_OFFSET,
            error: None,
        };
        out.file.write_all(&header()).map_err(io)?;
        self.encode(&mut out);
        if let Some(e) = out.error {
            return Err(io(e));
        }
        let mut file = out.file.into_inner().map_err(|e| io(e.into_error()))?;
        file.seek(SeekFrom::Start(CHECKSUM_AT as u64)).map_err(io)?;
        file.write_all(&out.sum.to_le_bytes()).map_err(io)?;
        file.sync_all().map_err(io)?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(io)?;
        sync_parent_dir(path).map_err(io)
    }

    /// Read and parse a snapshot file.
    pub fn read_from(path: &Path) -> Result<EngineSnapshot<'static>, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

impl<'a> EngineSnapshot<'a> {
    /// Borrow the complete run-mutated state of `engine` (see the module
    /// docs for what is and is not included). This is the one place the
    /// engine's state maps onto the snapshot layout.
    pub(crate) fn capture(engine: &'a Grid3Engine) -> Self {
        assert!(
            engine.ctx.immediates.is_empty(),
            "snapshot mid-dispatch: immediates must be drained"
        );
        let fabric = &engine.fabric;
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            cfg: Cow::Borrowed(&fabric.cfg),
            queue: Cow::Borrowed(&engine.ctx.queue),
            broker_rng: engine.ctx.broker_rng.clone(),
            fate_rng: engine.ctx.fate_rng.clone(),
            traces: Cow::Borrowed(&engine.ctx.traces),
            sites: Cow::Borrowed(&fabric.sites),
            gatekeepers: Cow::Borrowed(&fabric.gatekeepers),
            gridftp: Cow::Borrowed(&fabric.gridftp),
            rls: Cow::Borrowed(&fabric.rls),
            center: fabric.center.capture(),
            voms: Cow::Borrowed(&fabric.voms),
            ca: Cow::Borrowed(&fabric.ca),
            resilience: fabric.resilience.as_ref().map(Cow::Borrowed),
            job_gauge: fabric.job_gauge.clone(),
            jobs: Cow::Borrowed(&fabric.jobs),
            job_ids: fabric.job_ids.clone(),
            transfer_purpose: Cow::Borrowed(&fabric.transfer_purpose),
            chaos: Cow::Borrowed(&fabric.chaos),
            federation: fabric.federation.capture(),
            brokering: engine.brokering.capture(),
            staging: Cow::Borrowed(&engine.staging),
            fault: Cow::Borrowed(&engine.fault),
            reporting: engine.reporting.capture(),
            auditor: engine.auditor.as_ref().map(Cow::Borrowed),
        }
    }

    /// A snapshot that owns every part, cloning what this one borrows.
    pub(crate) fn into_owned(self) -> EngineSnapshot<'static> {
        EngineSnapshot {
            version: self.version,
            cfg: owned(self.cfg),
            queue: owned(self.queue),
            broker_rng: self.broker_rng,
            fate_rng: self.fate_rng,
            traces: owned(self.traces),
            sites: owned(self.sites),
            gatekeepers: owned(self.gatekeepers),
            gridftp: owned(self.gridftp),
            rls: owned(self.rls),
            center: self.center.into_owned(),
            voms: owned(self.voms),
            ca: owned(self.ca),
            resilience: self.resilience.map(owned),
            job_gauge: self.job_gauge,
            jobs: owned(self.jobs),
            job_ids: self.job_ids,
            transfer_purpose: owned(self.transfer_purpose),
            chaos: owned(self.chaos),
            federation: self.federation.into_owned(),
            brokering: self.brokering.into_owned(),
            staging: owned(self.staging),
            fault: owned(self.fault),
            reporting: self.reporting.into_owned(),
            auditor: self.auditor.map(owned),
        }
    }
}

/// Rebuild a runnable engine from a snapshot: re-assemble the scenario
/// (reconstructing everything configuration-derived), then overlay the
/// captured run state.
pub(crate) fn restore_engine(snap: EngineSnapshot<'_>) -> Grid3Engine {
    let mut engine = crate::subsystems::assembly::assemble(snap.cfg.into_owned());
    engine.ctx.queue = snap.queue.into_owned();
    engine.ctx.broker_rng = snap.broker_rng;
    engine.ctx.fate_rng = snap.fate_rng;
    engine.ctx.traces = snap.traces.into_owned();

    let fabric = &mut engine.fabric;
    fabric.sites = snap.sites.into_owned();
    fabric.gatekeepers = snap.gatekeepers.into_owned();
    fabric.gridftp = snap.gridftp.into_owned();
    fabric.rls = snap.rls.into_owned();
    fabric.center.apply(snap.center);
    fabric.voms = snap.voms.into_owned();
    fabric.ca = snap.ca.into_owned();
    fabric.resilience = snap.resilience.map(Cow::into_owned);
    fabric.job_gauge = snap.job_gauge;
    fabric.jobs = snap.jobs.into_owned();
    fabric.rebuild_staging_in();
    fabric.job_ids = snap.job_ids;
    fabric.transfer_purpose = snap.transfer_purpose.into_owned();
    fabric.chaos = snap.chaos.into_owned();
    fabric.federation.apply(snap.federation);

    engine.brokering.apply(snap.brokering);
    engine.staging = snap.staging.into_owned();
    engine.fault = snap.fault.into_owned();
    engine.reporting.apply(snap.reporting);
    engine.auditor = snap.auditor.map(Cow::into_owned);
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subsystems::ReportingEvent;

    /// A header for `payload` at `version`, checksum included.
    fn file_with(version: u32, payload: &[u8]) -> Vec<u8> {
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        file.extend_from_slice(&version.to_le_bytes());
        file.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        file.extend_from_slice(payload);
        file
    }

    /// The encoding of `levels` `GridEvent::Timer` boxes nested around a
    /// monitor tick, built bytewise: a value that deep would overflow the
    /// stack on drop.
    fn nested_timers(levels: usize) -> Vec<u8> {
        let leaf = serde::binary::to_bytes(&GridEvent::Reporting(ReportingEvent::MonitorTick));
        let one = serde::binary::to_bytes(&GridEvent::Timer(
            SimTime::from_secs(60),
            Box::new(GridEvent::Reporting(ReportingEvent::MonitorTick)),
        ));
        let prefix = &one[..one.len() - leaf.len()];
        let mut bytes = prefix.repeat(levels);
        bytes.extend_from_slice(&leaf);
        bytes
    }

    #[test]
    fn decoder_bounds_timer_nesting() {
        let decode = |bytes: &[u8]| {
            serde::binary::from_bytes::<GridEvent>(bytes).map_err(SnapshotError::from)
        };
        let mut event = decode(&nested_timers(128)).expect("128 levels decode");
        let mut levels = 0;
        while let GridEvent::Timer(_, inner) = event {
            event = *inner;
            levels += 1;
        }
        assert_eq!(levels, 128);
        for levels in [129, 100_000] {
            assert!(
                matches!(
                    decode(&nested_timers(levels)),
                    Err(SnapshotError::Decode(_))
                ),
                "{levels} levels decoded"
            );
        }
    }

    #[test]
    fn header_errors_are_typed() {
        assert!(matches!(
            EngineSnapshot::from_bytes(b"not a snapshot file at all..").err(),
            Some(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            EngineSnapshot::from_bytes(b"G3EN").err(),
            Some(SnapshotError::Truncated)
        ));
        for old in [1, 2, 3, 99] {
            assert_eq!(
                EngineSnapshot::from_bytes(&file_with(old, &[0])).err(),
                Some(SnapshotError::UnsupportedVersion(old))
            );
        }
        let mut bad_sum = file_with(SNAPSHOT_VERSION, &[0]);
        bad_sum[12] ^= 1;
        assert_eq!(
            EngineSnapshot::from_bytes(&bad_sum).err(),
            Some(SnapshotError::ChecksumMismatch)
        );
        assert_eq!(
            EngineSnapshot::from_bytes(&file_with(SNAPSHOT_VERSION, &[])).err(),
            Some(SnapshotError::Truncated)
        );
    }
}

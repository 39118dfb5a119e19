//! Engine snapshot/restore: serialize a live [`Grid3Engine`] mid-run and
//! resume it later, bit-identically.
//!
//! A snapshot captures the *run-mutated* state — the simulation clock and
//! pending event queue (both backends, including the ladder queue's full
//! rung-refinement state), the workload arrival cursor, both RNG stream
//! positions, every site's cluster/storage/scheduler state, the
//! middleware fabric (GridFTP transfers in flight, RLS catalog, MDS
//! records, tickets, monitoring archives), all five subsystems'
//! accumulators, the federation tally and the invariant auditor. Everything that is a pure function of the
//! scenario configuration — topology, install pipeline, arena pools,
//! broker caches, the workload arrival table — is *not* captured:
//! [`Grid3Engine::restore`] rebuilds it by re-assembling the scenario and
//! overlaying the captured state (the arrival table drops the prefix the
//! cursor says was already delivered).
//!
//! Deliberately not captured (observation-only, process-local):
//!
//! * telemetry counter *values* and open span maps — counters are
//!   re-interned against a fresh registry on restore;
//! * the cost profiler's wall-clock accumulators — restored runs start a
//!   fresh profile;
//! * the ops journal — the journal is an append-only log beside the run;
//!   a resumed run appends to a fresh journal from the restore point.
//!
//! None of these feed back into simulation state, so their loss cannot
//! move a simulated byte — the differential suite in `tests/snapshot.rs`
//! pins snapshot→restore→run against uninterrupted runs for all nine
//! golden scenarios, on both queue backends.
//!
//! # On-disk format
//!
//! See DESIGN.md §13. A snapshot file is a small header followed by a
//! length-free binary encoding of the serde value tree:
//!
//! ```text
//! [8B magic "G3ENGSNP"] [4B version LE] [8B FNV-1a checksum LE] [payload]
//! ```
//!
//! The checksum covers the payload only; a torn or bit-flipped file fails
//! closed with a typed [`SnapshotError`] instead of deserializing
//! garbage. The version is bumped whenever the payload schema changes
//! shape; old versions are rejected, not migrated (snapshots are
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
use serde::{Deserialize, Serialize, Value};

/// Current snapshot payload schema version. Bumped on any change to the
/// captured field set or their serde shapes; readers reject mismatches.
/// Version 2 replaced the queued workload submissions with the arrival
/// cursor.
pub const SNAPSHOT_VERSION: u32 = 2;

/// File magic: "G3ENGSNP".
const MAGIC: [u8; 8] = *b"G3ENGSNP";

/// Header length in bytes (magic + version + checksum).
const HEADER_LEN: usize = 8 + 4 + 8;

/// A serialized-engine error: bad files fail closed with a typed cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem error (open/read/write/rename).
    Io(String),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's schema version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The payload checksum does not match — torn write or corruption.
    ChecksumMismatch,
    /// The file ends mid-value.
    Truncated,
    /// The payload decoded to a value tree the engine schema rejects.
    Decode(String),
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

/// FNV-1a over a byte stream: the same stable hash the golden-report
/// suite uses, here guarding snapshot payloads and journal records.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Binary value codec
// ---------------------------------------------------------------------
//
// A compact tagged encoding of the serde value tree. One byte of tag,
// fixed-width little-endian scalars, u64 lengths. Floats travel as raw
// IEEE-754 bits, so the decode is exact — no text round-trip, no
// shortest-representation dependence.

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;

/// Deepest array/object nesting the decoder accepts. Engine snapshots
/// nest 15 deep; the bound keeps a crafted payload from recursing the
/// decoder off the end of the stack (an abort no watchdog can catch).
const MAX_DEPTH: usize = 128;

/// Append the binary encoding of `v` to `out`.
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::U64(n) => {
            out.push(TAG_U64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::I64(n) => {
            out.push(TAG_I64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            out.extend_from_slice(&(items.len() as u64).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(pairs) => {
            out.push(TAG_OBJECT);
            out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
            for (k, item) in pairs {
                out.extend_from_slice(&(k.len() as u64).to_le_bytes());
                out.extend_from_slice(k.as_bytes());
                encode_value(item, out);
            }
        }
    }
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], SnapshotError> {
    let end = pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
    if end > bytes.len() {
        return Err(SnapshotError::Truncated);
    }
    let out = &bytes[*pos..end];
    *pos = end;
    Ok(out)
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
    let raw = take(bytes, pos, 8)?;
    Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
}

fn take_len(bytes: &[u8], pos: &mut usize) -> Result<usize, SnapshotError> {
    let n = take_u64(bytes, pos)?;
    // A length cannot exceed the bytes remaining (every element costs at
    // least one byte) — rejecting early keeps a corrupt length from
    // attempting a huge allocation.
    if n > (bytes.len() - *pos) as u64 {
        return Err(SnapshotError::Truncated);
    }
    Ok(n as usize)
}

fn take_string(bytes: &[u8], pos: &mut usize) -> Result<String, SnapshotError> {
    let len = take_len(bytes, pos)?;
    let raw = take(bytes, pos, len)?;
    String::from_utf8(raw.to_vec())
        .map_err(|_| SnapshotError::Decode("non-UTF-8 string".to_string()))
}

/// Decode one value starting at `pos`, advancing it past the value.
/// Arrays and objects nested deeper than [`MAX_DEPTH`] are rejected with
/// [`SnapshotError::Decode`].
pub(crate) fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value, SnapshotError> {
    decode_nested(bytes, pos, 0)
}

/// [`decode_value`] for a value inside `depth` enclosing containers.
fn decode_nested(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, SnapshotError> {
    let tag = take(bytes, pos, 1)?[0];
    if matches!(tag, TAG_ARRAY | TAG_OBJECT) && depth == MAX_DEPTH {
        return Err(SnapshotError::Decode(format!(
            "value nested deeper than {MAX_DEPTH} levels"
        )));
    }
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_U64 => Ok(Value::U64(take_u64(bytes, pos)?)),
        TAG_I64 => Ok(Value::I64(take_u64(bytes, pos)? as i64)),
        TAG_F64 => Ok(Value::F64(f64::from_bits(take_u64(bytes, pos)?))),
        TAG_STR => Ok(Value::Str(take_string(bytes, pos)?)),
        TAG_ARRAY => {
            let n = take_len(bytes, pos)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_nested(bytes, pos, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let n = take_len(bytes, pos)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let key = take_string(bytes, pos)?;
                pairs.push((key, decode_nested(bytes, pos, depth + 1)?));
            }
            Ok(Value::Object(pairs))
        }
        other => Err(SnapshotError::Decode(format!("unknown value tag {other}"))),
    }
}

// ---------------------------------------------------------------------
// The snapshot itself
// ---------------------------------------------------------------------

/// A serialized [`Grid3Engine`]: the complete run-mutated state of a
/// simulation at one instant (see the module docs for the capture
/// boundary). Built by [`Grid3Engine::snapshot`]; consumed by
/// [`Grid3Engine::restore`].
#[derive(Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    version: u32,
    cfg: ScenarioConfig,
    queue: EventQueue<GridEvent>,
    broker_rng: SimRng,
    fate_rng: SimRng,
    traces: TraceStore,
    sites: Vec<Site>,
    gatekeepers: Vec<Gatekeeper>,
    gridftp: GridFtp,
    rls: ReplicaLocationService,
    center: CenterCapture,
    voms: Vec<VomsServer>,
    ca: CertificateAuthority,
    resilience: Option<ResilienceLayer>,
    job_gauge: GaugeTracker,
    jobs: FastMap<JobId, ActiveJob>,
    job_ids: JobIdGen,
    transfer_purpose: FastMap<TransferId, TransferPurpose>,
    chaos: ChaosState,
    federation: FederationCapture,
    brokering: BrokeringCapture,
    staging: Staging,
    fault: FaultHandling,
    reporting: ReportingCapture,
    auditor: Option<InvariantAuditor>,
}

impl EngineSnapshot {
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
    /// module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_value(&self.to_value(), &mut payload);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parse the binary format, verifying magic, version and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
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
        let want = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if fnv1a64(payload) != want {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut pos = 0;
        let value = decode_value(payload, &mut pos)?;
        if pos != payload.len() {
            return Err(SnapshotError::Decode(
                "trailing bytes after value".to_string(),
            ));
        }
        let snap = Self::from_value(&value).map_err(|e| SnapshotError::Decode(format!("{e:?}")))?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(snap.version));
        }
        Ok(snap)
    }

    /// Write the binary format to `path` atomically: the bytes land in a
    /// sibling `.tmp` file first and are renamed into place, so a crash
    /// mid-write leaves either the old snapshot or none — never a torn
    /// one under the final name.
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Read and parse a snapshot file.
    pub fn read_from(path: &std::path::Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

/// Capture the complete run-mutated state of `engine` (see the module
/// docs for what is and is not included).
pub(crate) fn capture(engine: &Grid3Engine) -> EngineSnapshot {
    assert!(
        engine.ctx.immediates.is_empty(),
        "snapshot mid-dispatch: immediates must be drained"
    );
    let fabric = &engine.fabric;
    EngineSnapshot {
        version: SNAPSHOT_VERSION,
        cfg: fabric.cfg.clone(),
        queue: engine.ctx.queue.clone(),
        broker_rng: engine.ctx.broker_rng.clone(),
        fate_rng: engine.ctx.fate_rng.clone(),
        traces: engine.ctx.traces.clone(),
        sites: fabric.sites.clone(),
        gatekeepers: fabric.gatekeepers.clone(),
        gridftp: fabric.gridftp.clone(),
        rls: fabric.rls.clone(),
        center: fabric.center.capture(),
        voms: fabric.voms.clone(),
        ca: fabric.ca.clone(),
        resilience: fabric.resilience.clone(),
        job_gauge: fabric.job_gauge.clone(),
        jobs: fabric.jobs.clone(),
        job_ids: fabric.job_ids.clone(),
        transfer_purpose: fabric.transfer_purpose.clone(),
        chaos: fabric.chaos.clone(),
        federation: fabric.federation.capture(),
        brokering: engine.brokering.capture(),
        staging: engine.staging.clone(),
        fault: engine.fault.clone(),
        reporting: engine.reporting.capture(),
        auditor: engine.auditor.clone(),
    }
}

/// Rebuild a runnable engine from a snapshot: re-assemble the scenario
/// (reconstructing everything configuration-derived), then overlay the
/// captured run state and re-attach process-local telemetry handles.
pub(crate) fn restore_engine(snap: EngineSnapshot) -> Grid3Engine {
    let mut engine = crate::subsystems::assembly::assemble(snap.cfg);
    let tele = engine.ctx.telemetry.clone();
    engine.ctx.queue = snap.queue;
    engine.ctx.broker_rng = snap.broker_rng;
    engine.ctx.fate_rng = snap.fate_rng;
    engine.ctx.traces = snap.traces;

    let fabric = &mut engine.fabric;
    fabric.sites = snap.sites;
    for site in fabric.sites.iter_mut() {
        site.scheduler
            .set_telemetry(tele.clone(), format!("site{}", site.id.0));
    }
    fabric.gatekeepers = snap.gatekeepers;
    for gk in fabric.gatekeepers.iter_mut() {
        gk.set_telemetry(tele.clone());
    }
    fabric.gridftp = snap.gridftp;
    fabric.gridftp.set_telemetry(tele.clone());
    fabric.rls = snap.rls;
    fabric.rls.set_telemetry(tele.clone());
    fabric.center.apply(snap.center);
    fabric.center.mds.set_telemetry(tele.clone());
    fabric.voms = snap.voms;
    fabric.ca = snap.ca;
    fabric.resilience = snap.resilience;
    fabric.job_gauge = snap.job_gauge;
    fabric.jobs = snap.jobs;
    fabric.job_ids = snap.job_ids;
    fabric.transfer_purpose = snap.transfer_purpose;
    // Telemetry spans are process-local observability: open spans do not
    // survive a restore (the registry they index into is gone).
    fabric.job_spans.clear();
    fabric.gram_spans.clear();
    fabric.transfer_spans.clear();
    fabric.chaos = snap.chaos;
    fabric.federation.apply(snap.federation);

    engine.brokering.apply(snap.brokering, &tele);
    engine.staging = snap.staging;
    engine.fault = snap.fault;
    engine.reporting.apply(snap.reporting);
    engine.auditor = snap.auditor;
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut bytes = Vec::new();
        encode_value(v, &mut bytes);
        let mut pos = 0;
        let out = decode_value(&bytes, &mut pos).expect("decodes");
        assert_eq!(pos, bytes.len(), "decoder consumed everything");
        out
    }

    #[test]
    fn codec_round_trips_every_value_shape() {
        let v = Value::Object(vec![
            ("null".to_string(), Value::Null),
            ("t".to_string(), Value::Bool(true)),
            ("f".to_string(), Value::Bool(false)),
            ("u".to_string(), Value::U64(u64::MAX)),
            ("i".to_string(), Value::I64(i64::MIN)),
            ("x".to_string(), Value::F64(-0.1)),
            ("nan".to_string(), Value::F64(f64::NAN)),
            ("s".to_string(), Value::Str("grité\u{1F30D}".to_string())),
            (
                "a".to_string(),
                Value::Array(vec![Value::U64(1), Value::Str(String::new())]),
            ),
            ("o".to_string(), Value::Object(Vec::new())),
        ]);
        let got = round_trip(&v);
        // NaN != NaN, so compare through the encoding (bit-exact floats).
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_value(&v, &mut a);
        encode_value(&got, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn codec_rejects_truncation_at_every_boundary() {
        let v = Value::Array(vec![
            Value::Str("abcdef".to_string()),
            Value::U64(7),
            Value::Object(vec![("k".to_string(), Value::F64(1.5))]),
        ]);
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes);
        for cut in 0..bytes.len() {
            let mut pos = 0;
            assert!(
                decode_value(&bytes[..cut], &mut pos).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    /// `levels` arrays nested inside one another around a null.
    fn nested_arrays(levels: usize) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(levels * 9 + 1);
        for _ in 0..levels {
            bytes.push(TAG_ARRAY);
            bytes.extend_from_slice(&1u64.to_le_bytes());
        }
        bytes.push(TAG_NULL);
        bytes
    }

    #[test]
    fn codec_bounds_nesting_depth() {
        let mut pos = 0;
        assert!(decode_value(&nested_arrays(MAX_DEPTH), &mut pos).is_ok());
        for levels in [MAX_DEPTH + 1, 100_000] {
            let mut pos = 0;
            assert!(
                matches!(
                    decode_value(&nested_arrays(levels), &mut pos),
                    Err(SnapshotError::Decode(_))
                ),
                "{levels} levels decoded"
            );
        }
        // Through the file format too: a deep payload with a valid
        // checksum is a typed error, not a stack overflow.
        let payload = nested_arrays(100_000);
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        file.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        file.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        file.extend_from_slice(&payload);
        assert!(matches!(
            EngineSnapshot::from_bytes(&file).err(),
            Some(SnapshotError::Decode(_))
        ));
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
        let mut bad_version = Vec::new();
        bad_version.extend_from_slice(&MAGIC);
        bad_version.extend_from_slice(&99u32.to_le_bytes());
        bad_version.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            EngineSnapshot::from_bytes(&bad_version).err(),
            Some(SnapshotError::UnsupportedVersion(99))
        ));
        let mut bad_sum = Vec::new();
        bad_sum.extend_from_slice(&MAGIC);
        bad_sum.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bad_sum.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        bad_sum.push(TAG_NULL);
        assert!(matches!(
            EngineSnapshot::from_bytes(&bad_sum).err(),
            Some(SnapshotError::ChecksumMismatch)
        ));
    }
}

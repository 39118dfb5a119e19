//! Storage elements with finite capacity.
//!
//! Disk exhaustion is the paper's single most cited failure mode (§6.1
//! "disk filling errors"; §6.2 "more frequently a disk would fill up … and
//! all jobs submitted to a site would die"), and §8 calls out the lack of
//! storage reservation ("storage reservation (e.g., as provided by SRM)
//! would have prevented various storage-related service failures"). The
//! model therefore supports both the Grid3 mode (no reservation: writes
//! race the free space) and an SRM-style reservation mode used by the
//! ablation bench.

use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::FileId;
use grid3_simkit::units::Bytes;
use serde::{Decode, DecodeError, Deserialize, Encode, Reader, Serialize, Sink};

/// Why a storage operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageError {
    /// Not enough free space.
    Full {
        /// Bytes requested by the failed operation.
        requested: Bytes,
        /// Bytes actually free at the time.
        free: Bytes,
    },
    /// The file is not present.
    NotFound(
        /// The missing file.
        FileId,
    ),
    /// Reservation handle unknown or already consumed.
    BadReservation,
}

/// Result of an external (non-grid) disk consumption event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExternalConsumption {
    /// Bytes actually consumed (clamped to the free space).
    pub taken: Bytes,
    /// Demand that could not be satisfied because the disk filled; a
    /// non-zero shortfall means the element is under continued pressure.
    pub shortfall: Bytes,
}

/// Handle to an SRM-style space reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReservationId(u64);

/// A stored file, or the tombstone its delete left until compaction.
#[derive(Debug, Clone, Copy)]
struct FileSlot {
    size: Bytes,
    id: FileId,
    live: bool,
}

/// A storage element's files, sorted by id.
///
/// LFNs are issued in increasing order, so a store appends; a delete
/// leaves a tombstone, and the tombstones go once they are more than
/// half the table (amortised compaction). Scratch deletes hit recent
/// ids, so lookups gallop back from the tail. A running total of the
/// live files' bytes spares summing them.
///
/// Snapshots carry the live files as `(id, size)` pairs in id order.
#[derive(Debug, Clone, Default)]
struct FileTable {
    slots: Vec<FileSlot>,
    dead: usize,
    bytes: Bytes,
}

impl FileTable {
    /// Number of live files.
    fn len(&self) -> usize {
        self.slots.len() - self.dead
    }

    /// The slot holding `file`, or the position where it would go.
    fn find(&self, file: FileId) -> Result<usize, usize> {
        // Widen a window back from the tail until its first id is at or
        // below `file`, then search inside it.
        let mut hi = self.slots.len();
        let mut width = 1;
        let lo = loop {
            let lo = hi.saturating_sub(width);
            if lo == 0 || self.slots[lo].id <= file {
                break lo;
            }
            hi = lo;
            width *= 2;
        };
        match self.slots[lo..hi].binary_search_by_key(&file, |s| s.id) {
            Ok(i) => Ok(lo + i),
            Err(i) => Err(lo + i),
        }
    }

    /// Size of a live file.
    fn get(&self, file: FileId) -> Option<Bytes> {
        let slot = self.slots[self.find(file).ok()?];
        slot.live.then_some(slot.size)
    }

    /// Store `file`; returns the size of the live file it replaced.
    fn insert(&mut self, file: FileId, size: Bytes) -> Option<Bytes> {
        self.bytes += size;
        match self.find(file) {
            Ok(i) => {
                let slot = &mut self.slots[i];
                let old = std::mem::replace(&mut slot.size, size);
                if std::mem::replace(&mut slot.live, true) {
                    self.bytes -= old;
                    Some(old)
                } else {
                    self.dead -= 1;
                    None
                }
            }
            Err(i) => {
                self.slots.insert(
                    i,
                    FileSlot {
                        size,
                        id: file,
                        live: true,
                    },
                );
                None
            }
        }
    }

    /// Delete `file`; returns its size.
    fn remove(&mut self, file: FileId) -> Option<Bytes> {
        let at = self.find(file).ok()?;
        let slot = &mut self.slots[at];
        if !std::mem::replace(&mut slot.live, false) {
            return None;
        }
        let size = slot.size;
        self.bytes -= size;
        self.dead += 1;
        if self.dead * 2 > self.slots.len() {
            self.slots.retain(|s| s.live);
            self.dead = 0;
        }
        Some(size)
    }

    /// The live files as `(id, size)`, in id order.
    fn live(&self) -> impl Iterator<Item = (FileId, Bytes)> + '_ {
        self.slots.iter().filter(|s| s.live).map(|s| (s.id, s.size))
    }

    /// A table holding `files`, which must be in strictly increasing id
    /// order.
    fn from_sorted(files: Vec<(FileId, Bytes)>) -> Result<Self, &'static str> {
        if files.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("storage file order");
        }
        Ok(FileTable {
            bytes: files.iter().map(|f| f.1).sum(),
            slots: files
                .into_iter()
                .map(|(id, size)| FileSlot {
                    size,
                    id,
                    live: true,
                })
                .collect(),
            dead: 0,
        })
    }
}

impl Serialize for FileTable {
    fn to_value(&self) -> serde::Value {
        self.live().collect::<Vec<_>>().to_value()
    }
}

impl Deserialize for FileTable {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        FileTable::from_sorted(Vec::from_value(v)?).map_err(serde::DeError::msg)
    }
}

impl Encode for FileTable {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        self.len().encode(out);
        for file in self.live() {
            file.encode(out);
        }
    }
}

impl Decode for FileTable {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        FileTable::from_sorted(Vec::decode(r)?).map_err(DecodeError::Invalid)
    }
}

/// A site's storage element (classic SE or dCache-fronted — §2 lists both).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StorageElement {
    capacity: Bytes,
    stored: Bytes,
    reserved: Bytes,
    files: FileTable,
    next_reservation: u64,
    reservations: FastMap<ReservationId, Bytes>,
}

impl StorageElement {
    /// An empty element of the given capacity.
    pub fn new(capacity: Bytes) -> Self {
        StorageElement {
            capacity,
            stored: Bytes::ZERO,
            reserved: Bytes::ZERO,
            files: FileTable::default(),
            next_reservation: 0,
            reservations: FastMap::default(),
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used(&self) -> Bytes {
        self.stored
    }

    /// Free space not claimed by stored files or live reservations.
    pub fn free(&self) -> Bytes {
        self.capacity
            .saturating_sub(self.stored)
            .saturating_sub(self.reserved)
    }

    /// Utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity.is_zero() {
            1.0
        } else {
            self.stored.as_u64() as f64 / self.capacity.as_u64() as f64
        }
    }

    /// Whether the file is present.
    pub fn contains(&self, file: FileId) -> bool {
        self.files.get(file).is_some()
    }

    /// Grid3 mode: write a file, racing free space (no reservation).
    pub fn store(&mut self, file: FileId, size: Bytes) -> Result<(), StorageError> {
        if size > self.free() {
            return Err(StorageError::Full {
                requested: size,
                free: self.free(),
            });
        }
        self.stored += size;
        // Re-storing the same logical file replaces it (RLS would point at
        // the new physical copy).
        if let Some(old) = self.files.insert(file, size) {
            self.stored -= old;
        }
        Ok(())
    }

    /// Delete a file, reclaiming its space.
    pub fn delete(&mut self, file: FileId) -> Result<Bytes, StorageError> {
        match self.files.remove(file) {
            Some(size) => {
                self.stored -= size;
                Ok(size)
            }
            None => Err(StorageError::NotFound(file)),
        }
    }

    /// Size of a stored file.
    pub fn size_of(&self, file: FileId) -> Result<Bytes, StorageError> {
        self.files.get(file).ok_or(StorageError::NotFound(file))
    }

    /// SRM mode: reserve space ahead of a transfer (§8's recommended fix).
    pub fn reserve(&mut self, size: Bytes) -> Result<ReservationId, StorageError> {
        if size > self.free() {
            return Err(StorageError::Full {
                requested: size,
                free: self.free(),
            });
        }
        let id = ReservationId(self.next_reservation);
        self.next_reservation += 1;
        self.reserved += size;
        self.reservations.insert(id, size);
        Ok(id)
    }

    /// Write into a reservation; the file may be smaller than reserved.
    pub fn store_reserved(
        &mut self,
        reservation: ReservationId,
        file: FileId,
        size: Bytes,
    ) -> Result<(), StorageError> {
        let held = self
            .reservations
            .remove(&reservation)
            .ok_or(StorageError::BadReservation)?;
        self.reserved -= held;
        let size = size.min(held);
        self.stored += size;
        if let Some(old) = self.files.insert(file, size) {
            self.stored -= old;
        }
        Ok(())
    }

    /// Release an unused reservation.
    pub fn release(&mut self, reservation: ReservationId) -> Result<(), StorageError> {
        let held = self
            .reservations
            .remove(&reservation)
            .ok_or(StorageError::BadReservation)?;
        self.reserved -= held;
        Ok(())
    }

    /// Space claimed by live SRM reservations.
    pub fn reserved(&self) -> Bytes {
        self.reserved
    }

    /// Non-file ("external") bytes currently occupying the element —
    /// the reclaimable share of `used()` after a disk-full incident.
    pub fn external_bytes(&self) -> Bytes {
        self.stored.saturating_sub(self.files.bytes)
    }

    /// Simulate the §6 disk-full incident: opaque non-grid data (local
    /// users, logs) consumes `size` of free space. The consumption is
    /// clamped to the free space; the unmet remainder is reported as
    /// `shortfall` so callers can account for the pressure instead of
    /// silently dropping it.
    #[must_use]
    pub fn consume_external(&mut self, size: Bytes) -> ExternalConsumption {
        let taken = size.min(self.free());
        self.stored += taken;
        ExternalConsumption {
            taken,
            shortfall: size.saturating_sub(taken),
        }
    }

    /// Administrators clear `size` bytes of non-file data (cleanup after a
    /// disk-full ticket). File data is untouched.
    pub fn reclaim_external(&mut self, size: Bytes) {
        self.stored -= size.min(self.external_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn store_and_delete_round_trip() {
        let mut se = StorageElement::new(Bytes::from_gb(10));
        se.store(FileId(1), Bytes::from_gb(2)).unwrap();
        se.store(FileId(2), Bytes::from_gb(3)).unwrap();
        assert_eq!(se.used(), Bytes::from_gb(5));
        assert_eq!(se.free(), Bytes::from_gb(5));
        assert_eq!(se.files.len(), 2);
        assert_eq!(se.size_of(FileId(1)).unwrap(), Bytes::from_gb(2));
        assert_eq!(se.delete(FileId(1)).unwrap(), Bytes::from_gb(2));
        assert_eq!(se.used(), Bytes::from_gb(3));
        assert!(matches!(
            se.delete(FileId(1)),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut se = StorageElement::new(Bytes::from_gb(4));
        se.store(FileId(1), Bytes::from_gb(3)).unwrap();
        let err = se.store(FileId(2), Bytes::from_gb(2)).unwrap_err();
        match err {
            StorageError::Full { requested, free } => {
                assert_eq!(requested, Bytes::from_gb(2));
                assert_eq!(free, Bytes::from_gb(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn restore_replaces_logical_file() {
        let mut se = StorageElement::new(Bytes::from_gb(10));
        se.store(FileId(1), Bytes::from_gb(2)).unwrap();
        se.store(FileId(1), Bytes::from_gb(4)).unwrap();
        assert_eq!(se.used(), Bytes::from_gb(4));
        assert_eq!(se.files.len(), 1);
    }

    #[test]
    fn reservation_protects_space() {
        let mut se = StorageElement::new(Bytes::from_gb(10));
        let r = se.reserve(Bytes::from_gb(6)).unwrap();
        // Reserved space is not available to unmanaged writes.
        assert!(se.store(FileId(1), Bytes::from_gb(5)).is_err());
        se.store_reserved(r, FileId(2), Bytes::from_gb(6)).unwrap();
        assert_eq!(se.used(), Bytes::from_gb(6));
        assert_eq!(se.free(), Bytes::from_gb(4));
    }

    #[test]
    fn reservation_release_and_double_use() {
        let mut se = StorageElement::new(Bytes::from_gb(10));
        let r = se.reserve(Bytes::from_gb(4)).unwrap();
        se.release(r).unwrap();
        assert_eq!(se.free(), Bytes::from_gb(10));
        assert!(matches!(se.release(r), Err(StorageError::BadReservation)));
        assert!(matches!(
            se.store_reserved(r, FileId(1), Bytes::from_gb(1)),
            Err(StorageError::BadReservation)
        ));
    }

    #[test]
    fn smaller_file_than_reservation_returns_slack() {
        let mut se = StorageElement::new(Bytes::from_gb(10));
        let r = se.reserve(Bytes::from_gb(6)).unwrap();
        se.store_reserved(r, FileId(1), Bytes::from_gb(2)).unwrap();
        assert_eq!(se.used(), Bytes::from_gb(2));
        assert_eq!(se.free(), Bytes::from_gb(8));
    }

    #[test]
    fn external_consumption_models_disk_full_incident() {
        let mut se = StorageElement::new(Bytes::from_gb(10));
        se.store(FileId(1), Bytes::from_gb(2)).unwrap();
        let outcome = se.consume_external(Bytes::from_gb(100));
        assert_eq!(outcome.taken, Bytes::from_gb(8));
        assert_eq!(outcome.shortfall, Bytes::from_gb(92));
        assert_eq!(se.free(), Bytes::ZERO);
        assert_eq!(se.external_bytes(), Bytes::from_gb(8));
        assert!(se.store(FileId(2), Bytes::new(1)).is_err());
        // Cleanup reclaims only the external bytes, never file data.
        se.reclaim_external(Bytes::from_gb(100));
        assert_eq!(se.used(), Bytes::from_gb(2));
        assert_eq!(se.external_bytes(), Bytes::ZERO);
        assert!(se.contains(FileId(1)));
    }

    #[test]
    fn external_consumption_reports_zero_shortfall_when_it_fits() {
        let mut se = StorageElement::new(Bytes::from_gb(10));
        let outcome = se.consume_external(Bytes::from_gb(4));
        assert_eq!(outcome.taken, Bytes::from_gb(4));
        assert_eq!(outcome.shortfall, Bytes::ZERO);
        assert_eq!(se.reserved(), Bytes::ZERO);
    }

    #[test]
    fn zero_capacity_is_always_full() {
        let se = StorageElement::new(Bytes::ZERO);
        assert_eq!(se.utilization(), 1.0);
        assert_eq!(se.free(), Bytes::ZERO);
    }

    /// The storage element as a `BTreeMap` of files beside plain byte
    /// counters: the reference the file table is checked against.
    struct Model {
        capacity: Bytes,
        stored: Bytes,
        reserved: Bytes,
        files: BTreeMap<FileId, Bytes>,
        reservations: BTreeMap<u64, Bytes>,
        next_reservation: u64,
    }

    impl Model {
        fn free(&self) -> Bytes {
            self.capacity
                .saturating_sub(self.stored)
                .saturating_sub(self.reserved)
        }

        fn external(&self) -> Bytes {
            self.stored
                .saturating_sub(self.files.values().copied().sum::<Bytes>())
        }

        fn put(&mut self, file: FileId, size: Bytes) {
            self.stored += size;
            if let Some(old) = self.files.insert(file, size) {
                self.stored -= old;
            }
        }

        fn store(&mut self, file: FileId, size: Bytes) -> bool {
            let fits = size <= self.free();
            if fits {
                self.put(file, size);
            }
            fits
        }
    }

    /// Every answer of `se` agrees with `model` for file ids below
    /// `ids`.
    fn assert_agrees(se: &StorageElement, model: &Model, ids: u32) {
        assert_eq!(se.used(), model.stored);
        assert_eq!(se.reserved(), model.reserved);
        assert_eq!(se.free(), model.free());
        assert_eq!(se.external_bytes(), model.external());
        assert_eq!(se.files.len(), model.files.len());
        assert!(se.files.dead * 2 <= se.files.slots.len());
        for id in 0..ids {
            let file = FileId(id);
            assert_eq!(se.size_of(file).ok(), model.files.get(&file).copied());
            assert_eq!(se.contains(file), model.files.contains_key(&file));
        }
        assert_eq!(
            se.files.live().collect::<Vec<_>>(),
            model
                .files
                .iter()
                .map(|(f, b)| (*f, *b))
                .collect::<Vec<_>>()
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The element answers like a `BTreeMap` model under stores
            /// of new ids, re-stores and out-of-order ids, deletes of
            /// recent and old ids, SRM reserve / store-into / release,
            /// and external consume / reclaim — across tombstone
            /// compactions and a snapshot round trip.
            #[test]
            fn element_matches_a_btreemap_model(
                ops in proptest::collection::vec((0u8..9, 0u32..48, 0u64..25), 1..250),
            ) {
                let mut se = StorageElement::new(Bytes::from_gb(400));
                let mut model = Model {
                    capacity: se.capacity(),
                    stored: Bytes::ZERO,
                    reserved: Bytes::ZERO,
                    files: BTreeMap::new(),
                    reservations: BTreeMap::new(),
                    next_reservation: 0,
                };
                let mut next = 24u32;
                for (op, id, gb) in ops {
                    let size = Bytes::from_gb(gb);
                    match op {
                        // A fresh, increasing id: the append path.
                        0 | 1 => {
                            let file = FileId(next);
                            next += 1;
                            prop_assert_eq!(se.store(file, size).is_ok(), model.store(file, size));
                        }
                        // Any id: a re-store or an out-of-order insert.
                        2 => {
                            let file = FileId(id);
                            prop_assert_eq!(se.store(file, size).is_ok(), model.store(file, size));
                        }
                        // Delete a recent id, or any id.
                        3 | 4 => {
                            let file = FileId(if op == 3 { next.saturating_sub(1 + id % 4) } else { id });
                            let want = model.files.remove(&file);
                            if let Some(old) = want {
                                model.stored -= old;
                            }
                            prop_assert_eq!(se.delete(file).ok(), want);
                        }
                        5 => {
                            let got = se.reserve(size).ok();
                            if size <= model.free() {
                                let r = model.next_reservation;
                                model.next_reservation += 1;
                                model.reserved += size;
                                model.reservations.insert(r, size);
                                prop_assert_eq!(got, Some(ReservationId(r)));
                            } else {
                                prop_assert_eq!(got, None);
                            }
                        }
                        // Store into (or release) the oldest live
                        // reservation, or a stale handle.
                        6 | 7 => {
                            let r = model
                                .reservations
                                .keys()
                                .next()
                                .copied()
                                .unwrap_or(model.next_reservation);
                            let held = model.reservations.remove(&r);
                            if let Some(held) = held {
                                model.reserved -= held;
                            }
                            let file = FileId(id);
                            let ok = if op == 6 {
                                if let Some(held) = held {
                                    model.put(file, size.min(held));
                                }
                                se.store_reserved(ReservationId(r), file, size).is_ok()
                            } else {
                                se.release(ReservationId(r)).is_ok()
                            };
                            prop_assert_eq!(ok, held.is_some());
                        }
                        _ => {
                            if id % 2 == 0 {
                                let got = se.consume_external(size);
                                let taken = size.min(model.free());
                                model.stored += taken;
                                prop_assert_eq!(got.taken, taken);
                            } else {
                                let external = model.external();
                                model.stored -= size.min(external);
                                se.reclaim_external(size);
                            }
                        }
                    }
                    assert_agrees(&se, &model, next + 1);
                }
                let bytes = serde::binary::to_bytes(&se);
                let back: StorageElement = serde::binary::from_bytes(&bytes).unwrap();
                assert_agrees(&back, &model, next + 1);
                prop_assert!(serde::binary::to_bytes(&back) == bytes);
                let back = StorageElement::from_value(&se.to_value()).unwrap();
                assert_agrees(&back, &model, next + 1);
            }

            /// used + free + reserved == capacity under any operation mix,
            /// and used equals the sum of live files plus external bytes.
            #[test]
            fn accounting_invariant(ops in proptest::collection::vec((0u8..5, 1u64..50), 1..100)) {
                let mut se = StorageElement::new(Bytes::from_gb(100));
                let mut live: Vec<FileId> = Vec::new();
                let mut reservations: Vec<ReservationId> = Vec::new();
                let mut next_file = 0u32;
                for (op, gb) in ops {
                    let size = Bytes::from_gb(gb);
                    match op {
                        0 => {
                            let f = FileId(next_file);
                            next_file += 1;
                            if se.store(f, size).is_ok() { live.push(f); }
                        }
                        1 => {
                            if let Some(f) = live.pop() { se.delete(f).unwrap(); }
                        }
                        2 => {
                            if let Ok(r) = se.reserve(size) { reservations.push(r); }
                        }
                        3 => {
                            if let Some(r) = reservations.pop() {
                                let f = FileId(next_file);
                                next_file += 1;
                                se.store_reserved(r, f, size).unwrap();
                                live.push(f);
                            }
                        }
                        _ => {
                            if let Some(r) = reservations.pop() { se.release(r).unwrap(); }
                        }
                    }
                    // used + free never exceeds capacity (the difference is
                    // exactly the live reservations).
                    prop_assert!(se.used() + se.free() <= se.capacity());
                    let file_sum: u64 = live.iter()
                        .map(|f| se.size_of(*f).unwrap().as_u64())
                        .sum();
                    prop_assert_eq!(file_sum, se.used().as_u64());
                }
            }
        }
    }
}

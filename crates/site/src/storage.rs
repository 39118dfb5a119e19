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

use grid3_simkit::ids::FileId;
use grid3_simkit::units::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

/// A site's storage element (classic SE or dCache-fronted — §2 lists both).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StorageElement {
    capacity: Bytes,
    stored: Bytes,
    reserved: Bytes,
    files: HashMap<FileId, Bytes>,
    next_reservation: u64,
    reservations: HashMap<ReservationId, Bytes>,
}

impl StorageElement {
    /// An empty element of the given capacity.
    pub fn new(capacity: Bytes) -> Self {
        StorageElement {
            capacity,
            stored: Bytes::ZERO,
            reserved: Bytes::ZERO,
            files: HashMap::new(),
            next_reservation: 0,
            reservations: HashMap::new(),
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
        self.files.contains_key(&file)
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
        match self.files.remove(&file) {
            Some(size) => {
                self.stored -= size;
                Ok(size)
            }
            None => Err(StorageError::NotFound(file)),
        }
    }

    /// Size of a stored file.
    pub fn size_of(&self, file: FileId) -> Result<Bytes, StorageError> {
        self.files
            .get(&file)
            .copied()
            .ok_or(StorageError::NotFound(file))
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
        let file_bytes: Bytes = self.files.values().copied().sum();
        self.stored.saturating_sub(file_bytes)
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
        let file_bytes: Bytes = self.files.values().copied().sum();
        let external = self.stored.saturating_sub(file_bytes);
        self.stored -= size.min(external);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
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

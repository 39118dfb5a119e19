//! An append-only log stored in fixed-size chunks.
//!
//! The MonALISA repository's closed buckets and the trace store's events
//! grow by one entry at a time for the whole run. A `Vec` doubles and
//! copies everything it holds at each power of two, briefly mapping both
//! copies; this log allocates one more chunk instead, so an append never
//! moves an entry that is already written.

/// Entries per chunk (a power of two, so indexing is a shift and a mask).
const CHUNK: usize = 1 << 12;

/// The log (see the module docs). Entries are addressed by their `u32`
/// position, which is what the logs' back-links store.
#[derive(Debug, Clone)]
pub(crate) struct ChunkedLog<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for ChunkedLog<T> {
    fn default() -> Self {
        ChunkedLog {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Copy> ChunkedLog<T> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append `value`; returns its position.
    pub(crate) fn push(&mut self, value: T) -> u32 {
        let at = self.len;
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(value),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(value);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
        u32::try_from(at).expect("log positions fit in u32")
    }

    /// The entry at `at`.
    #[inline]
    pub(crate) fn get(&self, at: u32) -> T {
        let at = at as usize;
        self.chunks[at / CHUNK][at % CHUNK]
    }

    /// The entry at `at`, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, at: u32) -> &mut T {
        let at = at as usize;
        &mut self.chunks[at / CHUNK][at % CHUNK]
    }

    /// Drop every entry from `len` on, freeing the chunks left empty.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        let chunks = len.div_ceil(CHUNK);
        self.chunks.truncate(chunks);
        if let Some(last) = self.chunks.last_mut() {
            last.truncate(len - (chunks - 1) * CHUNK);
        }
        self.len = len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_and_truncate_across_chunks() {
        let mut log = ChunkedLog::default();
        for i in 0..(2 * CHUNK + 5) as u32 {
            assert_eq!(log.push(i), i);
        }
        assert_eq!(log.chunks.len(), 3);
        assert_eq!(log.get(CHUNK as u32), CHUNK as u32);
        *log.get_mut(7) = 70;
        assert_eq!(log.get(7), 70);
        log.truncate(CHUNK + 1);
        assert_eq!((log.len(), log.chunks.len()), (CHUNK + 1, 2));
        assert_eq!(log.push(9), CHUNK as u32 + 1);
        log.truncate(CHUNK);
        assert_eq!((log.len(), log.chunks.len()), (CHUNK, 1));
        log.truncate(0);
        assert_eq!((log.len(), log.chunks.len()), (0, 0));
        assert_eq!(log.push(1), 0);
    }
}

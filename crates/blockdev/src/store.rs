use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

/// Chunk size of the sparse backing store (one page).
const CHUNK: u64 = 4096;

/// A sparse byte store for simulated device content.
///
/// Multi-GiB virtual devices only pay memory for chunks actually written.
/// Can be created in *discard* mode for timing-only benchmarks (reads then
/// return zeroes).
///
/// A chunk may be shared: [`write_shared`](SparseStore::write_shared) keeps
/// a whole aligned chunk as the caller's `Arc` (a page cache's page) instead
/// of copying it. A later partial [`write`](SparseStore::write) into a
/// shared chunk copies it first, so the other holder's bytes never change;
/// a write into a chunk nothing else holds copies in place.
///
/// # Example
///
/// ```
/// use blockdev::SparseStore;
/// let s = SparseStore::new(true);
/// s.write(10_000, b"hello");
/// let mut buf = [0u8; 5];
/// s.read(10_000, &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug)]
pub struct SparseStore {
    chunks: RwLock<HashMap<u64, Arc<[u8]>>>,
    keep_content: bool,
}

impl SparseStore {
    /// Creates a store; `keep_content = false` discards all writes.
    pub fn new(keep_content: bool) -> Self {
        SparseStore { chunks: RwLock::new(HashMap::new()), keep_content }
    }

    /// Number of resident chunks (for memory accounting in tests).
    pub fn resident_chunks(&self) -> usize {
        self.chunks.read().len()
    }

    /// Writes `data` at byte offset `off`.
    pub fn write(&self, off: u64, data: &[u8]) {
        if !self.keep_content || data.is_empty() {
            return;
        }
        let mut chunks = self.chunks.write();
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = off + pos as u64;
            let chunk_id = abs / CHUNK;
            let in_chunk = (abs % CHUNK) as usize;
            let n = ((CHUNK as usize) - in_chunk).min(data.len() - pos);
            let part = &data[pos..pos + n];
            let in_place = chunks.get_mut(&chunk_id).is_some_and(|c| Arc::get_mut(c).is_some());
            if n == CHUNK as usize && !in_place {
                chunks.insert(chunk_id, Arc::from(part));
            } else {
                let chunk =
                    chunks.entry(chunk_id).or_insert_with(|| Arc::from(&[0u8; CHUNK as usize][..]));
                Arc::make_mut(chunk)[in_chunk..in_chunk + n].copy_from_slice(part);
            }
            pos += n;
        }
    }

    /// Writes `data` at byte offset `off`, keeping `data` itself as the
    /// chunk when it is one whole chunk at a chunk boundary; anything else
    /// is copied as [`write`](SparseStore::write) copies it.
    pub fn write_shared(&self, off: u64, data: &Arc<[u8]>) {
        if !self.keep_content {
            return;
        }
        if off.is_multiple_of(CHUNK) && data.len() == CHUNK as usize {
            self.chunks.write().insert(off / CHUNK, Arc::clone(data));
        } else {
            self.write(off, data);
        }
    }

    /// Reads into `buf` from byte offset `off`; unwritten ranges read zero.
    pub fn read(&self, off: u64, buf: &mut [u8]) {
        buf.fill(0);
        if !self.keep_content || buf.is_empty() {
            return;
        }
        let chunks = self.chunks.read();
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = off + pos as u64;
            let chunk_id = abs / CHUNK;
            let in_chunk = (abs % CHUNK) as usize;
            let n = ((CHUNK as usize) - in_chunk).min(buf.len() - pos);
            if let Some(chunk) = chunks.get(&chunk_id) {
                buf[pos..pos + n].copy_from_slice(&chunk[in_chunk..in_chunk + n]);
            }
            pos += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_chunk_round_trip() {
        let s = SparseStore::new(true);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        s.write(CHUNK - 100, &data);
        let mut buf = vec![0u8; data.len()];
        s.read(CHUNK - 100, &mut buf);
        assert_eq!(buf, data);
        assert!(s.resident_chunks() >= 3);
    }

    #[test]
    fn unwritten_reads_zero() {
        let s = SparseStore::new(true);
        let mut buf = [1u8; 16];
        s.read(1 << 30, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn discard_mode_stores_nothing() {
        let s = SparseStore::new(false);
        s.write(0, b"gone");
        assert_eq!(s.resident_chunks(), 0);
        let mut buf = [9u8; 4];
        s.read(0, &mut buf);
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn a_partial_write_into_a_shared_chunk_leaves_the_sharer_intact() {
        let s = SparseStore::new(true);
        let page: Arc<[u8]> = Arc::from(vec![7u8; CHUNK as usize]);
        s.write_shared(CHUNK, &page);
        s.write(CHUNK + 10, &[1; 4]);
        assert_eq!(page[..], [7u8; CHUNK as usize], "the sharer's bytes are untouched");
        let mut buf = [0u8; 16];
        s.read(CHUNK + 4, &mut buf);
        assert_eq!(buf, [7, 7, 7, 7, 7, 7, 1, 1, 1, 1, 7, 7, 7, 7, 7, 7]);
        // A whole-chunk write over a shared chunk replaces it; an unaligned
        // shared write is copied.
        s.write_shared(2 * CHUNK, &page);
        s.write(2 * CHUNK, &[2; CHUNK as usize]);
        s.write_shared(3 * CHUNK + 1, &page);
        assert_eq!(page[..], [7u8; CHUNK as usize]);
        assert_eq!(
            Arc::strong_count(&page),
            1,
            "each chunk that held the page was copied or replaced"
        );
        s.read(2 * CHUNK, &mut buf);
        assert_eq!(buf, [2; 16]);
        s.read(3 * CHUNK, &mut buf);
        assert_eq!(buf, [0, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7]);
    }

    #[test]
    fn overwrite_within_chunk() {
        let s = SparseStore::new(true);
        s.write(8, &[1; 16]);
        s.write(12, &[2; 4]);
        let mut buf = [0u8; 16];
        s.read(8, &mut buf);
        assert_eq!(&buf[..4], &[1; 4]);
        assert_eq!(&buf[4..8], &[2; 4]);
        assert_eq!(&buf[8..], &[1; 8]);
    }
}

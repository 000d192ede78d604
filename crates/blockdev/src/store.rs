use std::collections::HashMap;

use parking_lot::RwLock;

/// Chunk size of the sparse backing store (one page).
const CHUNK: u64 = 4096;

/// A sparse byte store for simulated device content.
///
/// Multi-GiB virtual devices only pay memory for chunks actually written.
/// Can be created in *discard* mode for timing-only benchmarks (reads then
/// return zeroes).
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
    chunks: RwLock<HashMap<u64, Box<[u8]>>>,
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
            let chunk = chunks
                .entry(chunk_id)
                .or_insert_with(|| vec![0u8; CHUNK as usize].into_boxed_slice());
            chunk[in_chunk..in_chunk + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
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

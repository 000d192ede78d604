//! Page and extent arithmetic shared by the inner file systems.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::{IoError, IoResult};

/// The part of a byte range that falls into one page.
pub(crate) struct PageSpan {
    /// File page number.
    pub page: u64,
    /// Offset of the part inside its page.
    pub in_page: usize,
    /// Offset of the part inside the caller's buffer.
    pub pos: usize,
    /// Length of the part.
    pub n: usize,
}

/// Splits the file range `off .. off + len` at page boundaries, in order.
pub(crate) fn page_spans(off: u64, len: usize, page_size: u64) -> impl Iterator<Item = PageSpan> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if pos >= len {
            return None;
        }
        let abs = off + pos as u64;
        let in_page = (abs % page_size) as usize;
        let n = (page_size as usize - in_page).min(len - pos);
        let span = PageSpan { page: abs / page_size, in_page, pos, n };
        pos += n;
        Some(span)
    })
}

/// One slab of a file: its base offset on the medium and a bit per page
/// that a write has reached there.
#[derive(Debug)]
struct Slab {
    base: u64,
    written: Box<[u64]>,
}

/// Per-inode state of a file system that keeps its files in slabs (`Ext4`,
/// `DaxFs`): the size, the slabs, and whether the inode changed since its
/// last journal commit.
#[derive(Debug)]
pub(crate) struct SlabFile {
    pub size: AtomicU64,
    /// slab index -> its place on the medium and its written pages
    slabs: Mutex<HashMap<u64, Slab>>,
    pub meta_dirty: AtomicBool,
}

impl SlabFile {
    /// An empty file that was just created.
    pub fn new() -> Self {
        SlabFile {
            size: AtomicU64::new(0),
            slabs: Mutex::new(HashMap::new()),
            meta_dirty: AtomicBool::new(true),
        }
    }

    /// The file's length in bytes.
    pub fn len(&self) -> u64 {
        self.size.load(Ordering::Acquire)
    }
}

/// Lazy extent allocation: file pages map onto contiguous slabs of the
/// medium, so sequential file I/O stays sequential on it. Slabs come off a
/// bump pointer, or off the free list once files have been retired.
#[derive(Debug)]
pub(crate) struct SlabMap {
    slab_pages: u64,
    page_size: u64,
    capacity: u64,
    alloc_next: AtomicU64,
    free_slabs: Mutex<Vec<u64>>,
}

impl SlabMap {
    /// A map over a medium of `capacity` bytes, nothing allocated.
    pub fn new(slab_pages: u64, page_size: u64, capacity: u64) -> Self {
        SlabMap {
            slab_pages,
            page_size,
            capacity,
            alloc_next: AtomicU64::new(0),
            free_slabs: Mutex::new(Vec::new()),
        }
    }

    /// The base of a slab off the free list, or off the bump pointer.
    fn alloc_slab(&self) -> IoResult<u64> {
        if let Some(base) = self.free_slabs.lock().pop() {
            return Ok(base);
        }
        let slab_bytes = self.slab_pages * self.page_size;
        let base = self.alloc_next.fetch_add(slab_bytes, Ordering::Relaxed);
        if base + slab_bytes > self.capacity {
            return Err(IoError::NoSpace);
        }
        Ok(base)
    }

    /// Maps a file page to its offset on the medium, allocating a slab on
    /// demand, and marks the page written: the caller writes it there.
    ///
    /// # Errors
    ///
    /// [`IoError::NoSpace`] when the medium is exhausted.
    pub fn map_alloc(&self, file: &SlabFile, page: u64) -> IoResult<u64> {
        let (slab, index) = (page / self.slab_pages, page % self.slab_pages);
        let mut slabs = file.slabs.lock();
        let slab = match slabs.entry(slab) {
            Entry::Occupied(slab) => slab.into_mut(),
            Entry::Vacant(vacant) => {
                let written = vec![0; self.slab_pages.div_ceil(64) as usize].into();
                let slab = vacant.insert(Slab { base: self.alloc_slab()?, written });
                file.meta_dirty.store(true, Ordering::Release);
                slab
            }
        };
        slab.written[(index / 64) as usize] |= 1 << (index % 64);
        Ok(slab.base + index * self.page_size)
    }

    /// Offset of `page` if a write ever reached it on the medium, else
    /// `None`: a page of a hole, or one of an allocated slab that nothing
    /// wrote (even where a recycled slab still holds a retired file's
    /// bytes), reads as zeros with no I/O, as ext4's unwritten extents do.
    pub fn map_existing(&self, file: &SlabFile, page: u64) -> Option<u64> {
        let (slab, index) = (page / self.slab_pages, page % self.slab_pages);
        let slabs = file.slabs.lock();
        let slab = slabs.get(&slab)?;
        let written = slab.written[(index / 64) as usize] >> (index % 64) & 1 == 1;
        written.then(|| slab.base + index * self.page_size)
    }

    /// Sets the file's length to `len`. A shrink forgets every write to the
    /// pages wholly past the cut, which read as zeros again, and returns the
    /// page the cut falls in with the cut's offset in it, if it cuts a page
    /// in two: the caller zeroes that page's tail.
    pub fn truncate(&self, file: &SlabFile, len: u64) -> Option<(u64, usize)> {
        file.meta_dirty.store(true, Ordering::Release);
        if file.size.swap(len, Ordering::AcqRel) <= len {
            return None;
        }
        let first = len.div_ceil(self.page_size);
        for (slab, s) in file.slabs.lock().iter_mut() {
            for index in first.saturating_sub(slab * self.slab_pages)..self.slab_pages {
                s.written[(index / 64) as usize] &= !(1 << (index % 64));
            }
        }
        let tail = (len % self.page_size) as usize;
        (tail > 0).then_some((len / self.page_size, tail))
    }

    /// Returns the slabs of a retired file to the allocator.
    pub fn reclaim(&self, file: &SlabFile) {
        let mut slabs = file.slabs.lock();
        self.free_slabs.lock().extend(slabs.values().map(|slab| slab.base));
        slabs.clear();
    }

    #[cfg(test)]
    pub fn free_count(&self) -> usize {
        self.free_slabs.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_the_range_page_by_page() {
        let spans: Vec<_> =
            page_spans(4000, 5000, 4096).map(|s| (s.page, s.in_page, s.pos, s.n)).collect();
        assert_eq!(spans, vec![(0, 4000, 0, 96), (1, 0, 96, 4096), (2, 0, 4192, 808)]);
        assert_eq!(page_spans(8192, 0, 4096).count(), 0);
        let whole: Vec<_> =
            page_spans(8192, 4096, 4096).map(|s| (s.page, s.in_page, s.n)).collect();
        assert_eq!(whole, vec![(2, 0, 4096)]);
    }

    #[test]
    fn slabs_are_contiguous_bounded_and_recycled() {
        let map = SlabMap::new(4, 4096, 3 * 4 * 4096);
        let (a, b) = (SlabFile::new(), SlabFile::new());
        assert_eq!(map.map_alloc(&a, 0).unwrap(), 0);
        assert_eq!(map.map_alloc(&a, 3).unwrap(), 3 * 4096);
        assert_eq!(map.map_alloc(&b, 9).unwrap(), 4 * 4096 + 4096, "page 9 = slab 2, page 1");
        assert_eq!(map.map_existing(&a, 4), None);
        assert_eq!(map.map_alloc(&a, 4).unwrap(), 2 * 4 * 4096);
        assert_eq!(map.map_alloc(&b, 0), Err(IoError::NoSpace));
        map.reclaim(&a);
        assert_eq!((map.free_count(), map.map_existing(&a, 0)), (2, None));
        assert!(map.map_alloc(&b, 0).is_ok(), "a retired file's slab is handed out again");
        assert_eq!(map.free_count(), 1);
        assert_eq!(map.map_existing(&b, 1), None, "none of its old pages were written for b");
    }

    #[test]
    fn only_written_pages_map_and_a_shrink_forgets_them() {
        let map = SlabMap::new(128, 4096, 1 << 30);
        let file = SlabFile::new();
        for page in [1, 64, 127, 128, 300] {
            map.map_alloc(&file, page).unwrap();
        }
        let written = |file: &SlabFile| {
            (0..400).filter(|&p| map.map_existing(file, p).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(written(&file), [1, 64, 127, 128, 300]);
        file.size.store(400 * 4096, Ordering::Release);
        assert_eq!(map.truncate(&file, 64 * 4096 + 1), Some((64, 1)), "cuts page 64 at 1");
        assert_eq!(written(&file), [1, 64], "the cut page keeps its head");
        assert_eq!(map.truncate(&file, 1 << 20), None, "a growth");
        assert_eq!((map.truncate(&file, 4096), file.len()), (None, 4096), "a cut between pages");
        assert_eq!(written(&file), [] as [u64; 0]);
        assert_eq!(map.truncate(&file, 0), None);
        assert_eq!(written(&file), [] as [u64; 0]);
        assert_eq!(map.map_alloc(&file, 300).unwrap(), 2 * 128 * 4096 + 44 * 4096, "slabs kept");
    }
}

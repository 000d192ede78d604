use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::IoResult;

/// Configuration of a [`PageCache`].
#[derive(Debug, Clone)]
pub struct PageCacheConfig {
    /// Maximum resident pages before eviction kicks in.
    pub capacity_pages: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Whether page content is retained (off = timing-only benchmarks).
    pub keep_content: bool,
}

impl Default for PageCacheConfig {
    fn default() -> Self {
        PageCacheConfig { capacity_pages: 262_144, page_size: 4096, keep_content: true }
    }
}

/// Counters exported by the page cache.
#[derive(Debug, Default)]
pub struct PageCacheStats {
    /// Lookups that found the page resident.
    pub hits: AtomicU64,
    /// Lookups that missed.
    pub misses: AtomicU64,
    /// Pages evicted to make room.
    pub evictions: AtomicU64,
    /// Dirty pages handed back for writeback.
    pub writebacks: AtomicU64,
}

/// A page evicted while dirty; the caller must write it back to the device.
#[derive(Debug)]
pub struct EvictedPage {
    /// Inode the page belongs to.
    pub ino: u64,
    /// Page number within the file.
    pub page: u64,
    /// Page content (zeroes when content retention is disabled).
    pub data: Vec<u8>,
}

#[derive(Debug)]
struct Page {
    data: Option<Box<[u8]>>,
    accessed: bool,
}

/// The resident pages, by inode and then by page: dropping an inode drops
/// its own map instead of walking every resident page.
#[derive(Debug, Default)]
struct Resident {
    files: HashMap<u64, HashMap<u64, Page>>,
    len: usize,
}

impl Resident {
    fn get(&self, (ino, page): (u64, u64)) -> Option<&Page> {
        self.files.get(&ino)?.get(&page)
    }

    fn get_mut(&mut self, (ino, page): (u64, u64)) -> Option<&mut Page> {
        self.files.get_mut(&ino)?.get_mut(&page)
    }

    /// Whether the page is new to the cache.
    fn insert(&mut self, (ino, page): (u64, u64), content: Page) -> bool {
        let fresh = self.files.entry(ino).or_default().insert(page, content).is_none();
        self.len += usize::from(fresh);
        fresh
    }

    fn remove(&mut self, (ino, page): (u64, u64)) -> Option<Page> {
        let file = self.files.get_mut(&ino)?;
        let removed = file.remove(&page)?;
        if file.is_empty() {
            self.files.remove(&ino);
        }
        self.len -= 1;
        Some(removed)
    }

    fn remove_from(&mut self, ino: u64, first: u64) {
        let Some(file) = self.files.get_mut(&ino) else { return };
        let before = file.len();
        file.retain(|&page, _| page < first);
        self.len -= before - file.len();
        if file.is_empty() {
            self.files.remove(&ino);
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    pages: Resident,
    /// Second-chance eviction queue (may contain stale keys).
    queue: VecDeque<(u64, u64)>,
    /// Keys of the dirty pages (all resident), ordered by `(inode, page)`:
    /// a sync walks its dirty pages, not every resident one.
    dirty: BTreeSet<(u64, u64)>,
}

/// The keys `(ino, p)` with `p >= first`.
fn pages_from(ino: u64, first: u64) -> std::ops::RangeInclusive<(u64, u64)> {
    (ino, first)..=(ino, u64::MAX)
}

/// The kernel's volatile write-back page cache.
///
/// This is the component NVCache deliberately keeps *behind* its NVMM write
/// log: the paper's design retains it to combine writes in volatile memory
/// before they reach the mass storage ("the kernel naturally combines the
/// writes by updating the modified page in the volatile page cache before
/// flushing the modified page to disk only once", §I). Overwrites of a dirty
/// resident page therefore cost one device write, not two — the effect the
/// batching experiment (Fig. 6) depends on.
///
/// Eviction is second-chance (CLOCK), the standard approximation of LRU used
/// by Linux. Dirty pages evicted or flushed are returned to the caller — the
/// file system owns the device and the journal.
#[derive(Debug)]
pub struct PageCache {
    cfg: PageCacheConfig,
    inner: Mutex<Inner>,
    stats: PageCacheStats,
}

impl PageCache {
    /// Creates a cache with the given configuration.
    pub fn new(cfg: PageCacheConfig) -> Self {
        PageCache { cfg, inner: Mutex::new(Inner::default()), stats: PageCacheStats::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PageCacheConfig {
        &self.cfg
    }

    /// Cache statistics.
    pub fn stats(&self) -> &PageCacheStats {
        &self.stats
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.inner.lock().pages.len
    }

    /// Whether the page is resident.
    pub fn contains(&self, ino: u64, page: u64) -> bool {
        self.inner.lock().pages.get((ino, page)).is_some()
    }

    fn make_buf(&self) -> Option<Box<[u8]>> {
        self.cfg.keep_content.then(|| vec![0u8; self.cfg.page_size].into_boxed_slice())
    }

    fn evict_if_needed(
        inner: &mut Inner,
        cfg: &PageCacheConfig,
        stats: &PageCacheStats,
    ) -> Vec<EvictedPage> {
        let mut out = Vec::new();
        while inner.pages.len > cfg.capacity_pages {
            let Some(key) = inner.queue.pop_front() else { break };
            let Some(p) = inner.pages.get_mut(key) else { continue };
            if p.accessed {
                p.accessed = false;
                inner.queue.push_back(key);
                continue;
            }
            let p = inner.pages.remove(key).expect("page present");
            stats.evictions.fetch_add(1, Ordering::Relaxed);
            if inner.dirty.remove(&key) {
                stats.writebacks.fetch_add(1, Ordering::Relaxed);
                out.push(EvictedPage {
                    ino: key.0,
                    page: key.1,
                    data: p.data.map_or_else(|| vec![0u8; cfg.page_size], |d| d.to_vec()),
                });
            }
        }
        out
    }

    /// Inserts (or replaces) a whole page. Returns dirty pages evicted to
    /// make room; the caller must write them back.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page.
    pub fn insert(&self, ino: u64, page: u64, data: &[u8], dirty: bool) -> Vec<EvictedPage> {
        assert_eq!(data.len(), self.cfg.page_size, "insert expects a whole page");
        let mut inner = self.inner.lock();
        let mut buf = self.make_buf();
        if let Some(b) = &mut buf {
            b.copy_from_slice(data);
        }
        let fresh = inner.pages.insert((ino, page), Page { data: buf, accessed: true });
        if fresh {
            inner.queue.push_back((ino, page));
        }
        if dirty {
            inner.dirty.insert((ino, page));
        } else {
            inner.dirty.remove(&(ino, page));
        }
        Self::evict_if_needed(&mut inner, &self.cfg, &self.stats)
    }

    /// Updates part of a resident page, marking it dirty. Returns `false` on
    /// a miss (the caller must fill the page first).
    pub fn update(&self, ino: u64, page: u64, in_page: usize, bytes: &[u8]) -> bool {
        assert!(in_page + bytes.len() <= self.cfg.page_size, "update exceeds page");
        let inner = &mut *self.inner.lock();
        match inner.pages.get_mut((ino, page)) {
            Some(p) => {
                if let Some(d) = &mut p.data {
                    d[in_page..in_page + bytes.len()].copy_from_slice(bytes);
                }
                inner.dirty.insert((ino, page));
                p.accessed = true;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Copies part of a resident page into `buf`. Returns `false` on a miss.
    pub fn read(&self, ino: u64, page: u64, in_page: usize, buf: &mut [u8]) -> bool {
        assert!(in_page + buf.len() <= self.cfg.page_size, "read exceeds page");
        let mut inner = self.inner.lock();
        match inner.pages.get_mut((ino, page)) {
            Some(p) => {
                match &p.data {
                    Some(d) => buf.copy_from_slice(&d[in_page..in_page + buf.len()]),
                    None => buf.fill(0),
                }
                p.accessed = true;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Marks clean, and returns for writeback, the dirty pages of `ino` — of
    /// every inode when `None` — sorted by inode then page; they stay
    /// resident. `map` gives each `(inode, page)` its device offset, which
    /// is returned beside the page's content, or `None` for a page nobody
    /// can ask for again, which is marked clean and left out.
    ///
    /// # Errors
    ///
    /// The first error of `map`, with every page still dirty: a writeback
    /// that cannot place a page has written none, and the next one retries.
    pub fn take_dirty(
        &self,
        ino: Option<u64>,
        mut map: impl FnMut(u64, u64) -> IoResult<Option<u64>>,
    ) -> IoResult<Vec<(u64, Vec<u8>)>> {
        let inner = &mut *self.inner.lock();
        let range = ino.map_or((0, 0)..=(u64::MAX, u64::MAX), |ino| pages_from(ino, 0));
        let keys: Vec<(u64, u64)> = inner.dirty.range(range).copied().collect();
        let mut out = Vec::with_capacity(keys.len());
        for &(ino, page) in &keys {
            if let Some(target) = map(ino, page)? {
                let resident = inner.pages.get((ino, page)).expect("a dirty page is resident");
                let data = resident.data.as_ref();
                let data = data.map_or_else(|| vec![0u8; self.cfg.page_size], |d| d.to_vec());
                out.push((target, data));
            }
        }
        for key in &keys {
            inner.dirty.remove(key);
        }
        self.stats.writebacks.fetch_add(keys.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Drops the pages of `ino` from `first` on, dirty or not: every page
    /// of a retired inode (`first` = 0), those wholly past a truncation's
    /// cut.
    pub fn drop_from(&self, ino: u64, first: u64) {
        let inner = &mut *self.inner.lock();
        inner.pages.remove_from(ino, first);
        let dirty: Vec<(u64, u64)> = inner.dirty.range(pages_from(ino, first)).copied().collect();
        for key in &dirty {
            inner.dirty.remove(key);
        }
    }

    /// Power failure: the cache is volatile, everything vanishes.
    pub fn drop_all(&self) {
        let mut inner = self.inner.lock();
        inner.pages = Resident::default();
        inner.queue.clear();
        inner.dirty.clear();
    }

    /// Number of currently dirty pages.
    pub fn dirty_count(&self) -> usize {
        self.inner.lock().dirty.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoError;

    fn cache(capacity: usize) -> PageCache {
        PageCache::new(PageCacheConfig {
            capacity_pages: capacity,
            page_size: 64,
            keep_content: true,
        })
    }

    /// Takes the dirty pages of `ino` (of every inode when `None`) with the
    /// page `(i, p)` placed at offset `100 * i + p`: (offset, first byte).
    fn take(pc: &PageCache, ino: Option<u64>) -> Vec<(u64, u8)> {
        let taken = pc.take_dirty(ino, |i, p| Ok(Some(100 * i + p))).unwrap();
        taken.into_iter().map(|(off, data)| (off, data[0])).collect()
    }

    #[test]
    fn insert_read_update_round_trip() {
        let pc = cache(8);
        pc.insert(1, 0, &[7u8; 64], false);
        let mut buf = [0u8; 16];
        assert!(pc.read(1, 0, 8, &mut buf));
        assert_eq!(buf, [7u8; 16]);
        assert!(pc.update(1, 0, 0, &[9u8; 4]));
        let mut head = [0u8; 4];
        pc.read(1, 0, 0, &mut head);
        assert_eq!(head, [9u8; 4]);
    }

    #[test]
    fn miss_returns_false() {
        let pc = cache(8);
        let mut buf = [0u8; 4];
        assert!(!pc.read(1, 0, 0, &mut buf));
        assert!(!pc.update(1, 0, 0, &[1]));
        assert_eq!(pc.stats().misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn eviction_returns_dirty_pages_only() {
        let pc = cache(2);
        pc.insert(1, 0, &[1u8; 64], true);
        pc.insert(1, 1, &[2u8; 64], false);
        // Third insert overflows; CLOCK clears accessed bits first, so insert
        // a fourth to force a real eviction.
        let mut evicted: Vec<EvictedPage> = Vec::new();
        evicted.extend(pc.insert(1, 2, &[3u8; 64], false));
        evicted.extend(pc.insert(1, 3, &[4u8; 64], false));
        assert!(pc.resident() <= 3);
        for e in &evicted {
            assert_eq!(e.data[0], 1, "only the dirty page should need writeback");
        }
    }

    #[test]
    fn take_dirty_is_sorted_and_clears_dirty() {
        let pc = cache(16);
        pc.insert(5, 3, &[3u8; 64], true);
        pc.insert(5, 1, &[1u8; 64], true);
        pc.insert(5, 2, &[2u8; 64], false);
        pc.insert(6, 0, &[6u8; 64], true);
        assert_eq!(take(&pc, Some(5)), vec![(501, 1), (503, 3)]);
        assert!(take(&pc, Some(5)).is_empty(), "second take sees nothing dirty");
        assert_eq!(pc.dirty_count(), 1, "inode 6 was not asked for");
        // Pages remain resident and readable.
        let mut buf = [0u8; 1];
        assert!(pc.read(5, 3, 0, &mut buf));
        assert_eq!(buf[0], 3);
    }

    #[test]
    fn dirty_set_follows_every_way_a_page_stops_being_dirty() {
        let pc = cache(4);
        pc.insert(2, 1, &[1u8; 64], true);
        pc.insert(1, 7, &[2u8; 64], false);
        assert!(pc.update(1, 7, 0, &[3]), "an update dirties a clean resident page");
        pc.insert(1, 3, &[4u8; 64], true);
        pc.insert(3, 0, &[5u8; 64], true);
        assert_eq!(pc.dirty_count(), 4);
        pc.insert(3, 0, &[6u8; 64], false); // replaced by a clean copy
        pc.drop_from(2, 0); // unlinked
        assert_eq!(take(&pc, None), vec![(103, 4), (107, 3)], "sorted by inode, then page");
        assert_eq!(pc.dirty_count(), 0);
        assert!(take(&pc, None).is_empty());
        // Evicted dirty pages leave the set with the cache.
        for page in 0..16 {
            pc.insert(9, page, &[7u8; 64], true);
        }
        assert_eq!(pc.dirty_count(), take(&pc, Some(9)).len());
        assert!(pc.resident() <= 5);
    }

    #[test]
    fn write_combining_one_page_many_updates() {
        let pc = cache(16);
        pc.insert(1, 0, &[0u8; 64], true);
        for i in 0..32 {
            assert!(pc.update(1, 0, (i % 64) as usize, &[i as u8]));
        }
        // 33 logical writes, one dirty page to flush: that is the combining
        // effect the paper's Fig. 6 relies on.
        assert_eq!(take(&pc, Some(1)).len(), 1);
    }

    #[test]
    fn a_take_that_cannot_place_a_page_leaves_every_page_dirty() {
        let pc = cache(8);
        for page in 0..4 {
            pc.insert(1, page, &[page as u8; 64], true);
        }
        pc.insert(2, 0, &[9u8; 64], true);
        let full = |_, page| if page < 2 { Ok(Some(page)) } else { Err(IoError::NoSpace) };
        for ino in [Some(1), None] {
            assert!(matches!(pc.take_dirty(ino, full), Err(IoError::NoSpace)));
            assert_eq!(pc.dirty_count(), 5);
        }
        assert_eq!(pc.stats().writebacks.load(Ordering::Relaxed), 0);
        // A page nobody can ask for again is marked clean and left out.
        let gone = |ino, page| Ok((ino != 2).then_some(page));
        assert_eq!(pc.take_dirty(None, gone).unwrap().len(), 4);
        assert_eq!(pc.dirty_count(), 0);
        assert_eq!(pc.stats().writebacks.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn drop_all_loses_everything() {
        let pc = cache(8);
        pc.insert(1, 0, &[1u8; 64], true);
        pc.drop_all();
        assert_eq!(pc.resident(), 0);
        assert_eq!(pc.dirty_count(), 0);
    }

    #[test]
    fn drop_inode_is_selective() {
        let pc = cache(8);
        pc.insert(1, 0, &[1u8; 64], false);
        pc.insert(2, 0, &[2u8; 64], false);
        pc.insert(1, u64::MAX, &[3u8; 64], true);
        pc.insert(0, u64::MAX, &[4u8; 64], true);
        pc.drop_from(1, 0);
        assert!(!pc.contains(1, 0) && !pc.contains(1, u64::MAX));
        assert!(pc.contains(2, 0) && pc.contains(0, u64::MAX));
        assert_eq!((pc.resident(), pc.dirty_count()), (2, 1), "its dirty marks go with it");
        // A truncation's cut: the pages below it stay, dirty ones dirty.
        pc.insert(3, 0, &[5u8; 64], true);
        pc.insert(3, 1, &[6u8; 64], true);
        pc.drop_from(3, 1);
        assert!(pc.contains(3, 0) && !pc.contains(3, 1));
        assert_eq!((pc.resident(), pc.dirty_count()), (3, 2));
    }

    #[test]
    fn content_free_mode_tracks_dirtiness_without_bytes() {
        let pc = PageCache::new(PageCacheConfig {
            capacity_pages: 4,
            page_size: 64,
            keep_content: false,
        });
        pc.insert(1, 0, &[9u8; 64], true);
        let mut buf = [1u8; 8];
        assert!(pc.read(1, 0, 0, &mut buf));
        assert_eq!(buf, [0u8; 8], "content-free mode reads zeroes");
        assert_eq!(pc.take_dirty(Some(1), |_, page| Ok(Some(page))).unwrap(), [(0, vec![0u8; 64])]);
    }
}

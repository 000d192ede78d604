//! The bounded volatile read cache (paper §II-C): a pool of page contents
//! installed into [`PageDescriptor`] slots, with approximate-LRU eviction
//! driven by the descriptors' accessed bits.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::pagedesc::{PageDescriptor, PageSlot};
use crate::NvCacheStats;

/// The volatile read cache: a bounded pool of page contents with the paper's
/// approximate LRU (§II-D "Scalable data structures").
///
/// The queue (guarded by the *LRU lock*) holds descriptors of loaded pages.
/// Eviction dequeues the head: if its accessed flag is set the page gets a
/// second chance (re-enqueued at the tail); otherwise its content is
/// recycled and the descriptor transitions to unloaded-clean or
/// unloaded-dirty depending on the dirty counter — never issuing a
/// synchronous write, which is the entire point of the state machine in
/// paper Fig. 2.
///
/// The paper acquires the victim's atomic lock during eviction; because our
/// evictor may already hold atomic locks of the pages it is reading, we use
/// `try_lock` and skip contended victims — same policy, deadlock-free.
pub(crate) struct ReadCache {
    capacity: usize,
    loaded: AtomicUsize,
    queue: Mutex<VecDeque<Arc<PageDescriptor>>>,
}

impl std::fmt::Debug for ReadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadCache")
            .field("capacity", &self.capacity)
            .field("loaded", &self.loaded())
            .finish()
    }
}

impl ReadCache {
    pub fn new(capacity: usize) -> Self {
        ReadCache {
            capacity: capacity.max(1),
            loaded: AtomicUsize::new(0),
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Number of loaded pages.
    pub fn loaded(&self) -> usize {
        self.loaded.load(Ordering::Relaxed)
    }

    /// Pool capacity in pages.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Evicts until below capacity. Call *before* installing new content.
    pub fn make_room(&self, stats: &NvCacheStats) {
        let mut attempts = 0usize;
        while self.loaded.load(Ordering::Acquire) >= self.capacity {
            let victim = {
                let mut q = self.queue.lock();
                attempts += 1;
                if attempts > q.len().saturating_mul(2) + 8 {
                    // Everything is pinned (locked or recently accessed);
                    // allow a temporary overshoot rather than livelock.
                    return;
                }
                match q.pop_front() {
                    Some(v) => v,
                    None => return,
                }
            };
            // Stale queue entry (already evicted elsewhere)?
            let Some(mut slot) = victim.try_lock() else {
                self.queue.lock().push_back(victim);
                continue;
            };
            if slot.content.is_none() {
                continue; // stale: content already recycled
            }
            if victim.take_accessed() {
                drop(slot);
                self.queue.lock().push_back(victim);
                continue;
            }
            slot.content = None;
            self.loaded.fetch_sub(1, Ordering::AcqRel);
            stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Installs `content` into a page the caller holds the atomic lock for,
    /// and enqueues the descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the page is already loaded.
    pub fn install(&self, desc: &Arc<PageDescriptor>, slot: &mut PageSlot, content: Box<[u8]>) {
        assert!(slot.content.is_none(), "page already loaded");
        slot.content = Some(content);
        desc.mark_accessed();
        self.loaded.fetch_add(1, Ordering::AcqRel);
        self.queue.lock().push_back(Arc::clone(desc));
    }

    /// Drops every loaded page belonging to `file_id` (file close: the paper
    /// frees the whole radix tree; the pool must release those contents —
    /// and a truncation must not leave the cut content readable).
    ///
    /// The pages are unlisted under the LRU lock and emptied after it is
    /// released: `install` and `make_room` take the LRU lock while holding
    /// page locks, so waiting for a page lock under it could deadlock.
    pub fn purge_file(&self, file_id: u64) {
        let mut purged = Vec::new();
        self.queue.lock().retain(|desc| {
            let keep = desc.file_id() != file_id;
            if !keep {
                purged.push(Arc::clone(desc));
            }
            keep
        });
        for desc in purged {
            // A page listed twice (evicted and loaded again) empties once.
            if desc.lock().content.take().is_some() {
                self.loaded.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(file: u64, no: u64) -> Arc<PageDescriptor> {
        Arc::new(PageDescriptor::for_file(file, no))
    }

    fn install(rc: &ReadCache, d: &Arc<PageDescriptor>) {
        let mut slot = d.lock();
        rc.install(d, &mut slot, vec![0u8; 16].into_boxed_slice());
    }

    #[test]
    fn install_and_count() {
        let rc = ReadCache::new(4);
        assert_eq!(rc.capacity(), 4);
        let d = page(1, 0);
        install(&rc, &d);
        assert_eq!(rc.loaded(), 1);
        assert!(d.lock().content.is_some());
    }

    #[test]
    fn eviction_recycles_cold_pages_first() {
        let stats = NvCacheStats::default();
        let rc = ReadCache::new(2);
        let hot = page(1, 0);
        let cold = page(1, 1);
        install(&rc, &hot);
        install(&rc, &cold);
        // Touch the hot page only; `install` set both accessed bits, so
        // clear them first to model time passing.
        hot.take_accessed();
        cold.take_accessed();
        hot.mark_accessed();
        rc.make_room(&stats);
        assert_eq!(rc.loaded(), 1);
        assert!(hot.lock().content.is_some(), "second chance must protect the hot page");
        assert!(cold.lock().content.is_none());
        assert_eq!(stats.evictions.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn locked_victims_are_skipped() {
        let stats = NvCacheStats::default();
        let rc = ReadCache::new(1);
        let pinned = page(1, 0);
        install(&rc, &pinned);
        pinned.take_accessed();
        let _guard = pinned.lock(); // evictor must not deadlock on this
        rc.make_room(&stats);
        // Could not evict: pool overshoots rather than deadlocks.
        assert_eq!(rc.loaded(), 1);
    }

    #[test]
    fn purge_file_releases_only_that_file() {
        let rc = ReadCache::new(8);
        let a = page(1, 0);
        let b = page(2, 0);
        install(&rc, &a);
        install(&rc, &b);
        rc.purge_file(1);
        assert_eq!(rc.loaded(), 1);
        assert!(a.lock().content.is_none());
        assert!(b.lock().content.is_some());
    }

    #[test]
    fn eviction_keeps_dirty_pages_dirty_without_io() {
        let stats = NvCacheStats::default();
        let rc = ReadCache::new(1);
        let d = page(1, 0);
        install(&rc, &d);
        d.inc_dirty();
        d.take_accessed();
        let extra = page(1, 1);
        rc.make_room(&stats);
        install(&rc, &extra);
        assert_eq!(d.state(), crate::PageState::UnloadedDirty);
    }
}

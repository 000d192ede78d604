//! Per-page state: [`PageDescriptor`] with the paper's two-lock concurrency
//! scheme (§II-D), the Table II page states, and the propagation queue that
//! keeps per-page write order at the inner file system across stripes —
//! and whose length is the paper's dirty counter.

use std::collections::VecDeque;
use std::ops::Range;

use parking_lot::{Mutex, MutexGuard};

/// The state of a cached page (paper Table II / Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Present in the DRAM read cache; content always up to date.
    Loaded,
    /// Absent from the cache and no pending log entries modify it.
    UnloadedClean,
    /// Absent from the cache but the NVMM log holds entries that modify it —
    /// the kernel's copy is stale (dirty-miss territory).
    UnloadedDirty,
}

/// Content slot guarded by the per-page *atomic lock*, with the read
/// cache's S3-FIFO state for that content.
#[derive(Debug, Default)]
pub struct PageSlot {
    /// The cached page content when the page is loaded.
    pub content: Option<Box<[u8]>>,
    /// Accesses counted by the eviction policy (saturating at 3).
    pub(crate) freq: u8,
    /// The read cache's count of small-FIFO evictions when this page last
    /// left the small FIFO by eviction — a ghost while recent enough.
    pub(crate) evicted_at: Option<u64>,
}

impl PageSlot {
    /// Counts a read hit or a write for the eviction policy.
    pub(crate) fn touch(&mut self) {
        self.freq = (self.freq + 1).min(3);
    }
}

/// A page descriptor: one leaf of the per-file radix tree (paper §II-C).
///
/// Carries the two locks of the paper's concurrency scheme (§II-D):
///
/// * the **atomic lock** (here the mutex around [`PageSlot`]) serializes
///   writers/readers of the same page and guards the cached content;
/// * the **cleanup lock** synchronizes the cleanup thread against the
///   dirty-miss procedure — and nothing else, so the cleanup thread never
///   blocks writers, and never blocks readers that hit the cache.
///
/// The descriptor also carries the **propagation queue**: the pending log
/// entries touching this page, each with its global sequence number and
/// place in the log, in commit order (writers enqueue under the atomic
/// lock). It is the list the dirty-miss procedure re-applies. A cleanup
/// worker may only propagate an entry once it reaches the queue front,
/// which restores cross-stripe per-page write ordering at the inner file
/// system without serializing unrelated pages. Every log keeps it, one
/// stripe included.
///
/// The queue's length is the paper's **dirty counter** — the log entries
/// that modify this page and have not reached the inner file system. A
/// worker pops an entry only once it is at the front, so unlike the paper's
/// counter (footnote 4) the length never goes transiently negative; the
/// dirty-miss procedure reads it under both locks, when no writer can push
/// and no worker can pop.
#[derive(Debug)]
pub struct PageDescriptor {
    file_id: u64,
    page_no: u64,
    slot: Mutex<PageSlot>,
    cleanup_lock: Mutex<()>,
    prop_queue: Mutex<VecDeque<Queued>>,
}

/// One pending log entry in a page's propagation queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Queued {
    /// Global sequence number: the entry's place in the commit order.
    pub gseq: u64,
    /// Index of the stripe that holds the entry.
    pub stripe: usize,
    /// The entry's stripe-local sequence number.
    pub seq: u64,
}

impl PageDescriptor {
    /// Creates an unloaded-clean descriptor for `page_no`, tagged with the
    /// owning file's id.
    pub fn for_file(file_id: u64, page_no: u64) -> Self {
        PageDescriptor {
            file_id,
            page_no,
            slot: Mutex::new(PageSlot::default()),
            cleanup_lock: Mutex::new(()),
            prop_queue: Mutex::new(VecDeque::new()),
        }
    }

    /// The page number inside the file.
    pub fn page_no(&self) -> u64 {
        self.page_no
    }

    /// The owning file's id (0 for descriptors created outside a file).
    pub fn file_id(&self) -> u64 {
        self.file_id
    }

    /// Acquires the atomic lock.
    pub fn lock(&self) -> MutexGuard<'_, PageSlot> {
        self.slot.lock()
    }

    /// Tries to acquire the atomic lock (used by eviction to avoid
    /// deadlocking with page locks the evictor already holds).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, PageSlot>> {
        self.slot.try_lock()
    }

    /// Acquires the cleanup lock.
    pub fn lock_cleanup(&self) -> MutexGuard<'_, ()> {
        self.cleanup_lock.lock()
    }

    /// The dirty counter: pending log entries on this page (see type docs).
    pub fn dirty_count(&self) -> usize {
        self.prop_queue.lock().len()
    }

    /// Appends a pending entry to the propagation queue (writer path, under
    /// the atomic lock — which makes the queue order the commit order for
    /// this page).
    pub(crate) fn enqueue_propagation(&self, entry: Queued) {
        let mut q = self.prop_queue.lock();
        debug_assert!(q.back().is_none_or(|last| last.gseq < entry.gseq), "queue must stay sorted");
        q.push_back(entry);
    }

    /// The oldest pending entry for this page, if any (cleanup handoff).
    pub(crate) fn propagation_front(&self) -> Option<Queued> {
        self.prop_queue.lock().front().copied()
    }

    /// The pending entries for this page, oldest first (dirty miss, under
    /// both locks).
    pub(crate) fn queued(&self) -> Vec<Queued> {
        self.prop_queue.lock().iter().copied().collect()
    }

    /// Whether an entry whose global sequence number lies in `gseqs` is
    /// pending for this page.
    pub(crate) fn queues_any(&self, gseqs: &Range<u64>) -> bool {
        self.prop_queue.lock().iter().any(|entry| gseqs.contains(&entry.gseq))
    }

    /// Removes `gseq` from the queue front once the entry has been
    /// propagated (cleanup path, under the cleanup lock).
    ///
    /// # Panics
    ///
    /// Panics if `gseq` is not at the front — the ordered-handoff invariant
    /// was broken.
    pub(crate) fn pop_propagation(&self, gseq: u64) {
        let mut q = self.prop_queue.lock();
        let front = q.pop_front().map(|entry| entry.gseq);
        assert_eq!(front, Some(gseq), "out-of-order propagation pop");
    }

    /// The page state per paper Table II, derived from residency and the
    /// dirty count.
    pub fn state(&self) -> PageState {
        let loaded = self.slot.lock().content.is_some();
        if loaded {
            PageState::Loaded
        } else if self.dirty_count() > 0 {
            PageState::UnloadedDirty
        } else {
            PageState::UnloadedClean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PageDescriptor {
        /// Takes the cleanup lock unless someone holds it (a test's racing
        /// worker).
        pub(crate) fn try_lock_cleanup(&self) -> Option<MutexGuard<'_, ()>> {
            self.cleanup_lock.try_lock()
        }
    }

    /// A queued entry of stripe 0 whose local sequence number is `gseq`.
    fn entry(gseq: u64) -> Queued {
        Queued { gseq, stripe: 0, seq: gseq }
    }

    #[test]
    fn fresh_descriptor_is_unloaded_clean() {
        let d = PageDescriptor::for_file(1, 9);
        assert_eq!(d.state(), PageState::UnloadedClean);
        assert_eq!(d.page_no(), 9);
        assert_eq!(d.dirty_count(), 0);
    }

    #[test]
    fn table_ii_state_matrix() {
        let d = PageDescriptor::for_file(1, 0);
        // unloaded-clean -> unloaded-dirty on write (dc > 0)
        d.enqueue_propagation(entry(4));
        assert_eq!(d.state(), PageState::UnloadedDirty);
        // load content => loaded regardless of the counter
        d.lock().content = Some(vec![0u8; 64].into_boxed_slice());
        assert_eq!(d.state(), PageState::Loaded);
        // cleanup propagates the entry
        d.pop_propagation(4);
        assert_eq!(d.state(), PageState::Loaded);
        // eviction -> unloaded-clean (dc == 0)
        d.lock().content = None;
        assert_eq!(d.state(), PageState::UnloadedClean);
    }

    #[test]
    fn eviction_of_dirty_page_is_unloaded_dirty() {
        // Fig. 2: loaded --eviction--> unloaded-dirty when dc > 0, i.e. the
        // design avoids a synchronous write-back at eviction.
        let d = PageDescriptor::for_file(1, 0);
        d.lock().content = Some(vec![1u8; 64].into_boxed_slice());
        d.enqueue_propagation(entry(0));
        d.lock().content = None; // evict without any I/O
        assert_eq!(d.state(), PageState::UnloadedDirty);
    }

    #[test]
    fn touch_saturates_at_three() {
        let mut slot = PageSlot::default();
        for expect in [1, 2, 3, 3] {
            slot.touch();
            assert_eq!(slot.freq, expect);
        }
    }

    #[test]
    fn try_lock_fails_when_held() {
        let d = PageDescriptor::for_file(1, 0);
        let g = d.lock();
        assert!(d.try_lock().is_none());
        drop(g);
        assert!(d.try_lock().is_some());
    }

    #[test]
    fn propagation_queue_is_fifo() {
        let d = PageDescriptor::for_file(1, 0);
        assert_eq!(d.propagation_front(), None);
        let (a, b) = (Queued { gseq: 3, stripe: 1, seq: 0 }, Queued { gseq: 9, stripe: 0, seq: 4 });
        d.enqueue_propagation(a);
        d.enqueue_propagation(b);
        assert_eq!((d.propagation_front(), d.queued()), (Some(a), vec![a, b]));
        assert!(d.queues_any(&(9..10)) && d.queues_any(&(0..4)) && !d.queues_any(&(4..9)));
        d.pop_propagation(3);
        assert_eq!((d.propagation_front(), d.dirty_count()), (Some(b), 1));
        d.pop_propagation(9);
        assert_eq!((d.propagation_front(), d.dirty_count()), (None, 0));
    }

    #[test]
    #[should_panic(expected = "out-of-order propagation pop")]
    fn out_of_order_pop_is_detected() {
        let d = PageDescriptor::for_file(1, 0);
        d.enqueue_propagation(entry(1));
        d.enqueue_propagation(entry(2));
        d.pop_propagation(2);
    }
}

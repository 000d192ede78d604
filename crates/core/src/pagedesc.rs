//! Per-page state: [`PageDescriptor`] with the paper's two-lock concurrency
//! scheme (§II-D), the Table II page states, and the propagation queue that
//! keeps per-page write order at the inner file system across stripes —
//! and whose length is the paper's dirty counter. Every change to a queue
//! that adds or removes its last entry not yet pushed into the kernel keeps
//! the file's [`Unpushed`] set current, under the queue's own mutex.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    /// Whether the page is in its file's [`Unpushed`] set, so that the
    /// set's mutex is taken only when the page joins or leaves it. Read and
    /// changed only under the queue mutex, which orders every access:
    /// `Relaxed` suffices.
    listed: AtomicBool,
}

/// A page descriptor keyed by `(file_id, page_no)` — the key every
/// multi-page lock acquisition ascends by.
pub(crate) type KeyedPage = ((u64, u64), Arc<PageDescriptor>);

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

/// The pages of one file whose propagation queue holds an entry at or
/// above the file's pushed-below mark (`FileState::pushed_below`), keyed
/// as [`KeyedPage`]s: the pages a `close` push locks. A page joins when a
/// writer queues an entry on it; it leaves when a pop, or a push moving the
/// mark, leaves its queue no such entry. The mutex is a leaf: taken inside
/// a page's queue mutex, or alone to copy the set.
#[derive(Debug, Default)]
pub(crate) struct Unpushed(Mutex<HashMap<(u64, u64), Arc<PageDescriptor>>>);

impl Unpushed {
    /// The pages, ascending by key (the lock order).
    pub fn pages(&self) -> Vec<KeyedPage> {
        let mut pages: Vec<_> = self.0.lock().iter().map(|(&k, d)| (k, Arc::clone(d))).collect();
        pages.sort_unstable_by_key(|&(key, _)| key);
        pages
    }
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
            listed: AtomicBool::new(false),
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

    /// Appends a pending entry to the propagation queue and lists the page
    /// in its file's `unpushed` set (writer path, under the atomic lock —
    /// which makes the queue order the commit order for this page). A
    /// writer logs at or above its file's pushed-below mark.
    pub(crate) fn enqueue_propagation(self: &Arc<Self>, entry: Queued, unpushed: &Unpushed) {
        let mut q = self.prop_queue.lock();
        debug_assert!(q.back().is_none_or(|last| last.gseq < entry.gseq), "queue must stay sorted");
        q.push_back(entry);
        if !self.listed.swap(true, Ordering::Relaxed) {
            unpushed.0.lock().insert((self.file_id, self.page_no), Arc::clone(self));
        }
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

    /// Takes the page out of `unpushed` unless its queue holds an entry at
    /// or above `mark`, its file's pushed-below mark — after a pop, or after
    /// a push that moved the mark, under the page's cleanup lock. The queue
    /// ascends by global sequence number: its last entry decides.
    pub(crate) fn settle(&self, mark: u64, unpushed: &Unpushed) {
        let q = self.prop_queue.lock();
        if q.back().is_none_or(|e| e.gseq < mark) && self.listed.swap(false, Ordering::Relaxed) {
            unpushed.0.lock().remove(&(self.file_id, self.page_no));
        }
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
        let (d, unpushed) = (Arc::new(PageDescriptor::for_file(1, 0)), Unpushed::default());
        // unloaded-clean -> unloaded-dirty on write (dc > 0)
        d.enqueue_propagation(entry(4), &unpushed);
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
        let d = Arc::new(PageDescriptor::for_file(1, 0));
        d.lock().content = Some(vec![1u8; 64].into_boxed_slice());
        d.enqueue_propagation(entry(0), &Unpushed::default());
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
        let (d, unpushed) = (Arc::new(PageDescriptor::for_file(1, 0)), Unpushed::default());
        assert_eq!(d.propagation_front(), None);
        let (a, b) = (Queued { gseq: 3, stripe: 1, seq: 0 }, Queued { gseq: 9, stripe: 0, seq: 4 });
        d.enqueue_propagation(a, &unpushed);
        d.enqueue_propagation(b, &unpushed);
        assert_eq!((d.propagation_front(), d.queued()), (Some(a), vec![a, b]));
        d.pop_propagation(3);
        assert_eq!((d.propagation_front(), d.dirty_count()), (Some(b), 1));
        d.pop_propagation(9);
        assert_eq!((d.propagation_front(), d.dirty_count()), (None, 0));
    }

    /// A page stays in the set while its queue holds an entry at or above
    /// the mark, whichever entry is popped and wherever the mark moves.
    #[test]
    fn the_set_lists_a_page_while_it_queues_an_entry_at_or_above_the_mark() {
        let listed = |set: &Unpushed| set.pages().iter().map(|(key, _)| key.1).collect::<Vec<_>>();
        let unpushed = Unpushed::default();
        let (p, q) =
            (Arc::new(PageDescriptor::for_file(1, 7)), Arc::new(PageDescriptor::for_file(1, 2)));
        for gseq in [3, 5, 8] {
            p.enqueue_propagation(entry(gseq), &unpushed);
        }
        q.enqueue_propagation(entry(4), &unpushed);
        assert_eq!(listed(&unpushed), [2, 7], "ascending by page number");
        p.settle(9, &unpushed);
        assert_eq!(listed(&unpushed), [2], "no entry at or above 9");
        p.enqueue_propagation(entry(9), &unpushed);
        p.settle(9, &unpushed);
        assert_eq!(listed(&unpushed), [2, 7], "9 is not below 9");
        q.pop_propagation(4);
        q.settle(0, &unpushed);
        assert_eq!(listed(&unpushed), [7], "q's queue is empty");
        for gseq in [3, 5, 8] {
            p.pop_propagation(gseq);
            p.settle(9, &unpushed);
            assert_eq!(listed(&unpushed), [7], "9 is still queued");
        }
        p.pop_propagation(9);
        p.settle(9, &unpushed);
        assert!(listed(&unpushed).is_empty());
    }

    #[test]
    #[should_panic(expected = "out-of-order propagation pop")]
    fn out_of_order_pop_is_detected() {
        let (d, unpushed) = (Arc::new(PageDescriptor::for_file(1, 0)), Unpushed::default());
        d.enqueue_propagation(entry(1), &unpushed);
        d.enqueue_propagation(entry(2), &unpushed);
        d.pop_propagation(2);
    }
}

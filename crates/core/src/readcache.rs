//! The bounded volatile read cache (paper §II-C): a pool of page contents
//! installed into [`PageDescriptor`] slots, evicted by S3-FIFO (Yang et al.,
//! SOSP '23) where the paper evicts by approximate LRU.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::pagedesc::{PageDescriptor, PageSlot};
use crate::NvCacheStats;

/// The volatile read cache: a bounded pool of page contents evicted by
/// S3-FIFO instead of the paper's approximate LRU (§II-D "Scalable data
/// structures"), so that pages read once cannot push out pages read again.
///
/// Two FIFOs of loaded pages sit under one mutex, the *queue lock*. A page
/// is installed into the **small** FIFO (a tenth of the capacity, at least
/// one page) with frequency 1 — the miss — and each later read hit or write
/// adds 1, saturating at 3 ([`PageSlot::touch`]). At the small FIFO's tail a
/// page with frequency ≥ 2 moves to the **main** FIFO with frequency 0; any
/// other page is evicted and becomes a *ghost*. At the main FIFO's tail a
/// page with frequency > 0 is re-queued with one less, and one with 0 is
/// evicted. A ghost installed again goes straight to main. Eviction takes
/// from the small FIFO while it holds more than its share or main is empty,
/// from main otherwise.
///
/// The ghosts are not listed: each small-FIFO eviction bumps a count and
/// leaves it in the page's slot as a stamp, and a page is a ghost while fewer
/// evictions than the main FIFO's share followed. Descriptors outlive their
/// content in the radix tree and file ids are never reused, so the stamp is
/// as good as a ghost queue.
///
/// Eviction recycles the content; the descriptor becomes unloaded-clean or
/// unloaded-dirty depending on the dirty count — never issuing a
/// synchronous write, which is the entire point of the state machine in
/// paper Fig. 2. The policy state lives in [`PageSlot`], under the page's
/// atomic lock. Because the evictor may already hold atomic locks of the
/// pages it is reading, it `try_lock`s each victim and passes over a
/// contended one, which keeps its place — deadlock-free.
pub(crate) struct ReadCache {
    capacity: usize,
    /// The small FIFO's share of `capacity`; main's is the rest.
    small_share: usize,
    queues: Mutex<Queues>,
}

/// The two FIFOs (front = the tail eviction takes from) and the ghost clock.
#[derive(Default)]
struct Queues {
    small: VecDeque<Arc<PageDescriptor>>,
    main: VecDeque<Arc<PageDescriptor>>,
    /// Pages evicted from `small` so far.
    small_evictions: u64,
}

impl Queues {
    fn loaded(&self) -> usize {
        self.small.len() + self.main.len()
    }

    fn fifo(&mut self, small: bool) -> &mut VecDeque<Arc<PageDescriptor>> {
        if small {
            &mut self.small
        } else {
            &mut self.main
        }
    }
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
        let capacity = capacity.max(1);
        ReadCache {
            capacity,
            small_share: (capacity / 10).max(1),
            queues: Mutex::new(Queues::default()),
        }
    }

    /// Number of loaded pages.
    pub fn loaded(&self) -> usize {
        self.queues.lock().loaded()
    }

    /// Evicts until below capacity. Call *before* installing new content.
    ///
    /// A victim someone holds locked (maybe the caller) is passed over: set
    /// aside, and put back at the front of its FIFO at the end. Eviction
    /// takes from the other FIFO while every remaining page of the preferred
    /// one is set aside, and once every page is, the pool overshoots for now.
    pub fn evict_to_fit(&self, stats: &NvCacheStats) {
        let mut q = self.queues.lock();
        let (mut held, mut held_small) = (Vec::new(), 0);
        while q.loaded() + held.len() >= self.capacity {
            let over_share = q.small.len() + held_small > self.small_share;
            let small = !q.small.is_empty() && (over_share || q.main.is_empty());
            let Some(victim) = q.fifo(small).pop_front() else {
                break;
            };
            let Some(mut slot) = victim.try_lock() else {
                held_small += usize::from(small);
                held.push((small, victim));
                continue;
            };
            if small && slot.freq >= 2 {
                slot.freq = 0;
                q.main.push_back(Arc::clone(&victim));
                stats.read_cache_promotions.fetch_add(1, Ordering::Relaxed);
            } else if !small && slot.freq > 0 {
                slot.freq -= 1;
                q.main.push_back(Arc::clone(&victim));
            } else {
                slot.content = None;
                if small {
                    q.small_evictions += 1;
                    slot.evicted_at = Some(q.small_evictions);
                }
                stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        for (small, desc) in held.into_iter().rev() {
            q.fifo(small).push_front(desc);
        }
    }

    /// Installs `content` into a page the caller holds the atomic lock for,
    /// and queues the descriptor: into main if the page is a ghost, into
    /// small otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the page is already loaded.
    pub fn install(
        &self,
        desc: &Arc<PageDescriptor>,
        slot: &mut PageSlot,
        content: Box<[u8]>,
        stats: &NvCacheStats,
    ) {
        assert!(slot.content.is_none(), "page already loaded");
        slot.content = Some(content);
        slot.freq = 1;
        let mut q = self.queues.lock();
        let main_share = (self.capacity - self.small_share) as u64;
        let ghost = slot.evicted_at.take().is_some_and(|at| q.small_evictions - at < main_share);
        if ghost {
            stats.read_cache_ghost_hits.fetch_add(1, Ordering::Relaxed);
        }
        q.fifo(!ghost).push_back(Arc::clone(desc));
    }

    /// Drops every loaded page belonging to `file_id` (file close: the paper
    /// frees the whole radix tree; the pool must release those contents —
    /// and a truncation must not leave the cut content readable).
    ///
    /// The pages are unlisted under the queue lock and emptied after it is
    /// released: `install` takes the queue lock while holding a page lock,
    /// so waiting for a page lock under it could deadlock.
    pub fn purge_file(&self, file_id: u64) {
        let mut purged = Vec::new();
        {
            let q = &mut *self.queues.lock();
            for fifo in [&mut q.small, &mut q.main] {
                fifo.retain(|desc| {
                    let keep = desc.file_id() != file_id;
                    if !keep {
                        purged.push(Arc::clone(desc));
                    }
                    keep
                });
            }
        }
        for desc in purged {
            desc.lock().content = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::prelude::*;

    use super::*;

    fn page(file: u64, no: u64) -> Arc<PageDescriptor> {
        Arc::new(PageDescriptor::for_file(file, no))
    }

    fn pages(n: u64) -> Vec<Arc<PageDescriptor>> {
        (0..n).map(|no| page(1, no)).collect()
    }

    /// What `do_pread` does to one page: a hit touches it, a miss makes
    /// room and installs it.
    fn read(rc: &ReadCache, stats: &NvCacheStats, d: &Arc<PageDescriptor>) {
        let mut slot = d.lock();
        if slot.content.is_some() {
            slot.touch();
        } else {
            rc.evict_to_fit(stats);
            rc.install(d, &mut slot, vec![0u8; 16].into_boxed_slice(), stats);
        }
    }

    fn install(rc: &ReadCache, d: &Arc<PageDescriptor>) {
        read(rc, &NvCacheStats::default(), d);
    }

    fn loaded(d: &PageDescriptor) -> bool {
        d.lock().content.is_some()
    }

    fn count(c: &std::sync::atomic::AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    #[test]
    fn install_and_count() {
        let rc = ReadCache::new(4);
        let d = page(1, 0);
        install(&rc, &d);
        assert_eq!(rc.loaded(), 1);
        assert!(loaded(&d));
        assert_eq!((d.lock().freq, rc.queues.lock().small.len()), (1, 1), "the miss counts once");
    }

    #[test]
    fn eviction_recycles_cold_pages_first() {
        let stats = NvCacheStats::default();
        let rc = ReadCache::new(10);
        let ps = pages(10);
        for d in &ps {
            read(&rc, &stats, d);
        }
        read(&rc, &stats, &ps[0]); // the hot page: read again
        rc.evict_to_fit(&stats);
        assert_eq!(rc.loaded(), 9);
        assert!(loaded(&ps[0]), "a page read twice moves to main");
        assert!(!loaded(&ps[1]), "a page read once leaves first");
        assert_eq!((count(&stats.read_cache_promotions), count(&stats.evictions)), (1, 1));
    }

    #[test]
    fn locked_victims_are_skipped() {
        let stats = NvCacheStats::default();
        let rc = ReadCache::new(1);
        let pinned = page(1, 0);
        install(&rc, &pinned);
        let _guard = pinned.lock(); // evictor must not deadlock on this
        rc.evict_to_fit(&stats);
        // Could not evict: pool overshoots rather than deadlocks.
        assert_eq!(rc.loaded(), 1);
        assert_eq!(count(&stats.evictions), 0);
    }

    #[test]
    fn purge_file_releases_only_that_file() {
        let rc = ReadCache::new(8);
        let a = page(1, 0);
        let b = page(2, 0);
        install(&rc, &a);
        install(&rc, &b);
        read(&rc, &NvCacheStats::default(), &a);
        rc.evict_to_fit(&NvCacheStats::default());
        rc.purge_file(1);
        assert_eq!(rc.loaded(), 1);
        assert!(!loaded(&a));
        assert!(loaded(&b));
    }

    #[test]
    fn eviction_keeps_dirty_pages_dirty_without_io() {
        let stats = NvCacheStats::default();
        let rc = ReadCache::new(1);
        let d = page(1, 0);
        install(&rc, &d);
        let queued = crate::pagedesc::Queued { gseq: 0, stripe: 0, seq: 0 };
        d.enqueue_propagation(queued, &Default::default());
        let extra = page(1, 1);
        rc.evict_to_fit(&stats);
        install(&rc, &extra);
        assert_eq!(d.state(), crate::PageState::UnloadedDirty);
    }

    /// A ghost — a page recently evicted from the small FIFO — is admitted
    /// straight to main; one whose eviction is older than main's share of
    /// small-FIFO evictions is not.
    #[test]
    fn a_recent_ghost_goes_straight_to_main() {
        let stats = NvCacheStats::default();
        let rc = ReadCache::new(10);
        let ps = pages(30);
        for d in &ps[..12] {
            read(&rc, &stats, d); // evicts pages 0 and 1
        }
        read(&rc, &stats, &ps[0]);
        assert_eq!(count(&stats.read_cache_ghost_hits), 1);
        assert!(rc.queues.lock().main.iter().any(|d| Arc::ptr_eq(d, &ps[0])));
        for d in &ps[12..30] {
            read(&rc, &stats, d);
        }
        read(&rc, &stats, &ps[1]); // twenty small-FIFO evictions ago
        assert_eq!(count(&stats.read_cache_ghost_hits), 1);
        assert!(rc.queues.lock().small.iter().any(|d| Arc::ptr_eq(d, &ps[1])));
    }

    /// K hot pages, re-read between the installs of a one-pass cold scan of
    /// four times the capacity, all stay loaded: the scan's pages are read
    /// once and leave through the small FIFO. (Second-chance CLOCK fails
    /// this: a new page's accessed bit is set, so the first eviction sweeps
    /// every bit clear and takes the oldest hot page.)
    #[test]
    fn a_cold_scan_does_not_evict_the_hot_set() {
        const CAP: usize = 20;
        let stats = NvCacheStats::default();
        let rc = ReadCache::new(CAP);
        let hot: Vec<_> = (0..4).map(|no| page(1, no)).collect();
        for d in hot.iter().chain(&hot) {
            read(&rc, &stats, d);
        }
        for no in 0..4 * CAP as u64 {
            read(&rc, &stats, &page(2, no));
            for d in &hot {
                assert!(loaded(d), "cold page {no} evicted a hot page");
                read(&rc, &stats, d);
            }
        }
        assert_eq!(rc.loaded(), CAP);
        assert_eq!(count(&stats.evictions), 4 * CAP as u64 + 4 - CAP as u64);
    }

    /// Tiny capacities: the small FIFO holds at least one page and main may
    /// have no share at all; nothing panics, the pool never outgrows its
    /// capacity, and with every victim pinned it overshoots by one page.
    #[test]
    fn tiny_capacities_keep_both_rules() {
        for cap in [1, 2, 9, 10] {
            let stats = NvCacheStats::default();
            let rc = ReadCache::new(cap);
            assert!(rc.small_share >= 1 && rc.small_share <= cap, "capacity {cap}");
            let ps = pages(4 * cap as u64 + 2);
            for (i, d) in ps.iter().enumerate() {
                read(&rc, &stats, d);
                read(&rc, &stats, &ps[i / 2]); // hits, misses, ghosts
                assert!(rc.loaded() <= cap, "capacity {cap}");
            }
            let resident: Vec<_> = ps.iter().filter(|d| loaded(d)).collect();
            assert_eq!(resident.len(), cap, "capacity {cap}");
            let evictions = count(&stats.evictions);
            let guards: Vec<_> = resident.iter().map(|d| d.lock()).collect();
            let newcomer = page(2, 0);
            read(&rc, &stats, &newcomer);
            assert_eq!((rc.loaded(), count(&stats.evictions)), (cap + 1, evictions));
            drop(guards);
            read(&rc, &stats, &page(2, 1));
            assert_eq!(rc.loaded(), cap, "capacity {cap}: the overshoot is taken back");
        }
    }

    /// S3-FIFO written plainly over page indices, with the ghosts kept as
    /// an explicit FIFO of the last small-FIFO evictions (an install
    /// consumes its page's entry). `order` numbers each page's last
    /// small-FIFO eviction, to check their order against the cache's stamps.
    struct Model {
        cap: usize,
        small: VecDeque<usize>,
        main: VecDeque<usize>,
        freq: Vec<u8>,
        ghosts: VecDeque<Option<usize>>,
        order: Vec<Option<u64>>,
        counts: [u64; 4], // evictions, promotions, ghost hits, small evictions
    }

    impl Model {
        fn small_share(&self) -> usize {
            (self.cap / 10).max(1)
        }

        fn loaded(&self) -> usize {
            self.small.len() + self.main.len()
        }

        /// Evicts until below capacity, passing over `pinned` pages;
        /// returns the victims in order.
        fn evict_to_fit(&mut self, pinned: &HashSet<usize>) -> Vec<usize> {
            let mut victims = Vec::new();
            let (mut held_small, mut held_main) = (Vec::new(), Vec::new());
            while self.loaded() + held_small.len() + held_main.len() >= self.cap {
                let small = if self.small.len() + held_small.len() > self.small_share()
                    || self.main.is_empty()
                {
                    !self.small.is_empty()
                } else {
                    self.main.is_empty()
                };
                let Some(p) = (if small { &mut self.small } else { &mut self.main }).pop_front()
                else {
                    break;
                };
                if pinned.contains(&p) {
                    if small { &mut held_small } else { &mut held_main }.push(p);
                } else if small && self.freq[p] >= 2 {
                    self.freq[p] = 0;
                    self.main.push_back(p);
                    self.counts[1] += 1;
                } else if !small && self.freq[p] > 0 {
                    self.freq[p] -= 1;
                    self.main.push_back(p);
                } else {
                    victims.push(p);
                    self.counts[0] += 1;
                    if small {
                        self.counts[3] += 1;
                        self.order[p] = Some(self.counts[3]);
                        self.ghosts.push_back(Some(p));
                        if self.ghosts.len() > self.cap - self.small_share() {
                            self.ghosts.pop_front();
                        }
                    }
                }
            }
            for p in held_small.into_iter().rev() {
                self.small.push_front(p);
            }
            for p in held_main.into_iter().rev() {
                self.main.push_front(p);
            }
            victims
        }

        fn install(&mut self, p: usize) {
            (self.freq[p], self.order[p]) = (1, None);
            let ghost = self.ghosts.contains(&Some(p));
            for g in self.ghosts.iter_mut().filter(|g| **g == Some(p)) {
                *g = None;
            }
            if ghost {
                self.counts[2] += 1;
                self.main.push_back(p);
            } else {
                self.small.push_back(p);
            }
        }

        fn touch(&mut self, p: usize) {
            self.freq[p] = (self.freq[p] + 1).min(3);
        }

        fn is_loaded(&self, p: usize) -> bool {
            self.small.contains(&p) || self.main.contains(&p)
        }
    }

    const UNIVERSE: usize = 48;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random reads (a third of them over an 8-page hot set), writes,
        /// bare evictions, file purges and reads beside pinned pages, on a
        /// pool of 1..=32 pages: after every step both FIFOs hold the
        /// model's pages in the model's order with its frequencies, the
        /// step's victims are the model's (small-FIFO victims stamped in
        /// the model's order), and so are `loaded()` and the counters.
        #[test]
        fn s3fifo_matches_a_plain_model(
            cap in 1usize..33,
            ops in proptest::collection::vec((0u8..7, 0usize..UNIVERSE, any::<u64>()), 1..300),
        ) {
            let stats = NvCacheStats::default();
            let rc = ReadCache::new(cap);
            let descs: Vec<_> =
                (0..UNIVERSE).map(|p| page(p as u64 % 2 + 1, p as u64 / 2)).collect();
            let index = |d: &Arc<PageDescriptor>| (d.page_no() * 2 + d.file_id() - 1) as usize;
            let mut model = Model {
                cap,
                small: VecDeque::new(),
                main: VecDeque::new(),
                freq: vec![0; UNIVERSE],
                ghosts: VecDeque::new(),
                order: vec![None; UNIVERSE],
                counts: [0; 4],
            };
            for (kind, p, bits) in ops {
                let p = if kind == 0 { p % 8 } else { p };
                let before: Vec<bool> = descs.iter().map(|d| loaded(d)).collect();
                let mut victims = Vec::new();
                match kind {
                    0..=2 => {
                        if model.is_loaded(p) {
                            model.touch(p);
                        } else {
                            victims = model.evict_to_fit(&HashSet::new());
                            model.install(p);
                        }
                        read(&rc, &stats, &descs[p]);
                    }
                    3 => {
                        model.touch(p);
                        descs[p].lock().touch();
                    }
                    4 => {
                        victims = model.evict_to_fit(&HashSet::new());
                        rc.evict_to_fit(&stats);
                    }
                    5 => {
                        let file = p as u64 % 2 + 1;
                        model.small.retain(|&q| q % 2 != p % 2);
                        model.main.retain(|&q| q % 2 != p % 2);
                        rc.purge_file(file);
                    }
                    _ => {
                        // Pin the loaded pages `bits` picks, then read `p`.
                        let pinned: HashSet<usize> = (0..UNIVERSE)
                            .filter(|&q| q != p && bits >> q & 1 == 1 && model.is_loaded(q))
                            .collect();
                        let guards: Vec<_> = pinned.iter().map(|&q| descs[q].lock()).collect();
                        if model.is_loaded(p) {
                            model.touch(p);
                        } else {
                            victims = model.evict_to_fit(&pinned);
                            model.install(p);
                        }
                        read(&rc, &stats, &descs[p]);
                        drop(guards);
                    }
                }
                let q = rc.queues.lock();
                let small: Vec<usize> = q.small.iter().map(index).collect();
                let main: Vec<usize> = q.main.iter().map(index).collect();
                drop(q);
                prop_assert_eq!(&small, &Vec::from(model.small.clone()));
                prop_assert_eq!(&main, &Vec::from(model.main.clone()));
                for &q in small.iter().chain(&main) {
                    prop_assert_eq!(descs[q].lock().freq, model.freq[q]);
                }
                let gone: HashSet<usize> =
                    (0..UNIVERSE).filter(|&q| before[q] && !loaded(&descs[q])).collect();
                if kind != 5 {
                    prop_assert_eq!(&gone, &victims.iter().copied().collect::<HashSet<_>>());
                }
                for &q in &victims {
                    prop_assert_eq!(descs[q].lock().evicted_at, model.order[q]);
                }
                prop_assert_eq!(rc.loaded(), model.loaded());
                let counts =
                    [&stats.evictions, &stats.read_cache_promotions, &stats.read_cache_ghost_hits];
                prop_assert_eq!(counts.map(count), model.counts[..3]);
            }
        }
    }
}

//! The NVCache façade: [`NvCache`] (shutdown/abort, the intercepted
//! `FileSystem` surface of paper Table III) and the [`Shared`] state joining
//! the application-facing write/read paths with the per-stripe cleanup
//! workers (the write path's one body and its page-lock helper, read cache
//! and dirty-miss procedure, close/zombie drain bookkeeping).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use nvmm::NvRegion;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use simclock::{ActorClock, SimTime};
use vfs::{Fd, FileSystem, IoError, IoResult, Metadata, OpenFlags};

use crate::builder::NvCacheBuilder;
use crate::config::{copy_bandwidth, LIBC_OVERHEAD, PAGE_SIZE};
use crate::files::{FdSlotAllocator, FileState, InFlight, OpenedFile, PersistentFdTable};
use crate::layout::{self, Layout};
use crate::lockcheck::{Class, Held, Recorder};
use crate::log::{EntryHeader, Log, Stripe};
use crate::pagedesc::{PageDescriptor, PageSlot};
use crate::readcache::ReadCache;
use crate::recovery::{Recovered, RecoveryReport};
use crate::replay::{Pending, Window};
use crate::tiers::Tiers;
use crate::{NvCacheConfig, NvCacheStats, Radix};

/// A closed descriptor whose log entries have not all drained yet: the
/// persistent fd slot must stay valid until every stripe's cleanup worker
/// passes the corresponding drain target, otherwise recovery could not
/// resolve those entries.
pub(crate) struct Zombie {
    pub opened: Arc<OpenedFile>,
    /// Per-stripe head snapshot taken at close time.
    pub drain_targets: Box<[u64]>,
}

/// A page descriptor keyed by `(file_id, page_no)` — the key every
/// multi-page lock acquisition ascends by.
pub(crate) type KeyedPage = ((u64, u64), Arc<PageDescriptor>);

/// A held per-page lock plus its lock-order record.
pub(crate) type PageGuard<'p, T> = (MutexGuard<'p, T>, Held);

/// One write of a [`Shared::commit_writes`] batch.
pub(crate) struct WriteOp<'a> {
    pub opened: &'a OpenedFile,
    /// Never empty.
    pub data: &'a [u8],
    pub off: u64,
}

/// State shared between the application-facing API and the cleanup workers.
pub(crate) struct Shared {
    pub cfg: NvCacheConfig,
    /// What is below the cache: the one inner file system of the paper's
    /// deployment, or several behind one merged namespace (`tiers.rs`).
    pub tiers: Tiers,
    pub log: Log,
    pub pool: ReadCache,
    /// file table: (backend, device, inode) -> file structure (paper §III
    /// "Open"). The backend index is part of the key because two inner file
    /// systems may hand out colliding `(dev, ino)` pairs.
    pub files: Mutex<HashMap<(u32, u64, u64), Arc<FileState>>>,
    /// opened table: fd slot -> opened-file structure.
    pub opened: RwLock<HashMap<u32, Arc<OpenedFile>>>,
    /// The free persistent fd slots: `open` pops one, the end of a close
    /// pushes it back.
    pub fd_slots: FdSlotAllocator,
    /// One claim flag per configured submission queue pair
    /// ([`NvCacheConfig::sq_pairs`]): a pair is owned by exactly one
    /// [`QueuePair`](crate::QueuePair) handle at a time.
    pub sq_taken: Box<[AtomicBool]>,
    /// Closed fds awaiting their last log entries to drain.
    pub zombies: Mutex<Vec<Zombie>>,
    /// Descriptors of files that just died (unlinked, every descriptor
    /// closed), waiting for a cleanup worker to release their inner
    /// descriptors ([`release_dead`](Shared::release_dead)) — on its clock,
    /// where a deferred close is paid anyway.
    pub graveyard: Mutex<Vec<Arc<OpenedFile>>>,
    /// Descriptors inside [`finish_close`](Shared::finish_close), or
    /// unlisted from `zombies` on their way there: gone from both tables,
    /// slot not yet released. Counted by whoever hands the descriptor to
    /// `finish_close` — under the zombies lock when unlisting a zombie —
    /// and given back once the slot is free, so that
    /// [`out_of_descriptors`](Shared::out_of_descriptors) never mistakes
    /// that moment for a full table.
    pub finishing: AtomicUsize,
    pub stats: NvCacheStats,
    /// Graceful stop: drain the log, then exit.
    pub stop: AtomicBool,
    /// Immediate stop (crash simulation): exit without draining.
    pub kill: AtomicBool,
    /// One virtual clock per cleanup worker (stripe).
    pub cleanup_clocks: Box<[Arc<ActorClock>]>,
    pub next_file_id: AtomicU64,
    /// The mount's lock-order recorder (zero-sized and inert unless the
    /// `pmcheck` feature is on): every blocking lock acquisition in the
    /// crate reports here, and a cyclic acquisition order panics with the
    /// offending edge chain. Shared with the [`Log`]'s stripes and the
    /// tiers' migrator.
    pub lockcheck: Recorder,
    /// Seeded bug: the cleanup workers rewrite entries `close` pushed.
    #[cfg(test)]
    pub rewrite_pushed: AtomicBool,
    /// One bit per stripe whose worker waits between consuming a batch and
    /// its barrier (`scoped_tests::before_barrier`).
    #[cfg(test)]
    pub held_stripes: AtomicU64,
}

impl Shared {
    /// The inner file system behind an open descriptor (resolved through the
    /// backend index recorded at open time — never by re-routing).
    pub fn inner_of(&self, opened: &OpenedFile) -> &Arc<dyn FileSystem> {
        &self.tiers.backends[opened.backend as usize]
    }

    pub fn pages_of(&self, off: u64, len: usize) -> std::ops::Range<u64> {
        let ps = PAGE_SIZE as u64;
        if len == 0 {
            return off / ps..off / ps;
        }
        off / ps..(off + len as u64 - 1) / ps + 1
    }

    pub fn opened_by_slot(&self, slot: u32) -> Option<Arc<OpenedFile>> {
        let _lk = self.lockcheck.acquire(Class::OpenedMap, 0);
        self.opened.read().get(&slot).cloned()
    }

    /// The open descriptor behind `fd`, unless its `close` has begun.
    pub fn opened_fd(&self, fd: Fd) -> IoResult<Arc<OpenedFile>> {
        self.opened_by_slot(fd.0 as u32)
            .filter(|o| !o.closing.load(Ordering::Acquire))
            .ok_or(IoError::BadFd(fd.0))
    }

    /// Resolves `fd` and counts one in-flight use on it (the
    /// close-synchronization handshake shared by the synchronous calls and
    /// the queue pairs' submissions).
    pub fn enter(&self, fd: Fd) -> IoResult<InFlight> {
        InFlight::enter(self.opened_fd(fd)?).ok_or(IoError::BadFd(fd.0))
    }

    /// The descriptors of `file`'s pages covering `[off, off + len)`,
    /// ascending; empty for a file never opened for writing (no radix tree).
    pub fn page_descs(&self, file: &FileState, off: u64, len: usize) -> Vec<KeyedPage> {
        let Some(radix) = file.radix.get() else {
            return Vec::new();
        };
        self.pages_of(off, len)
            .map(|p| ((file.file_id, p), radix.get_or_create(p)))
            .collect()
    }

    /// Takes one lock per page of `pages` — `lock` picks which, and `class`
    /// must name it: [`PageDescriptor::lock`] is [`Class::PageAtomic`],
    /// [`PageDescriptor::lock_cleanup`] is [`Class::PageCleanup`]. `pages`
    /// must ascend by key: that one global order is what keeps synchronous
    /// writers, readers, doorbells and the cleanup workers deadlock-free
    /// against each other (the recorder checks it under `pmcheck`).
    #[track_caller]
    pub fn lock_pages<'p, T>(
        &self,
        class: Class,
        pages: &'p [KeyedPage],
        lock: fn(&'p PageDescriptor) -> MutexGuard<'p, T>,
    ) -> Vec<PageGuard<'p, T>> {
        let mut guards = Vec::with_capacity(pages.len());
        for ((file_id, page_no), desc) in pages {
            let order = self.lockcheck.acquire_page(class, *file_id, *page_no);
            guards.push((lock(desc), order));
        }
        guards
    }

    /// The stripe a write of `len` bytes at `off` into `file` goes to, and
    /// the entries it takes: group commits stay contiguous in a single
    /// stripe, routed by the write's first aligned chunk.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] if the write can never fit the stripe.
    pub fn route_write(&self, file: &FileState, off: u64, len: usize) -> IoResult<(&Stripe, u64)> {
        let k = len.div_ceil(self.cfg.entry_size) as u64;
        let stripe = self.log.route(file.dev_ino, off);
        if k > stripe.capacity() {
            return Err(IoError::InvalidArgument(format!(
                "write of {len} bytes cannot fit a {}-entry log stripe",
                stripe.capacity()
            )));
        }
        Ok((stripe, k))
    }

    /// A descriptor — open, closing or draining: a zombie stays in `opened`
    /// until [`finish_close`](Shared::finish_close) — on the file *named*
    /// `path`. An unlinked file has no name and answers no path-keyed query.
    pub fn descriptor_at(&self, path: &str) -> Option<Arc<OpenedFile>> {
        let _lk = self.lockcheck.acquire(Class::OpenedMap, 0);
        let opened = self.opened.read();
        let named =
            |o: &&Arc<OpenedFile>| o.file.path == path && !o.file.unlinked.load(Ordering::Acquire);
        opened.values().find(named).cloned()
    }

    /// Every descriptor — open, closing or draining — on `file`.
    pub fn descriptors_of(&self, file: &FileState) -> Vec<Arc<OpenedFile>> {
        let slots = file.slots.lock().clone();
        slots.into_iter().filter_map(|slot| self.opened_by_slot(slot)).collect()
    }

    /// The state the mount holds for the file `meta` describes on
    /// `backend`. Every pending entry belongs to a descriptor whose file
    /// stays here until the tail has passed the entry (an unlinked file
    /// leaves early, and has no name), so `None` means the file has
    /// nothing in the log.
    pub fn file_at(&self, backend: usize, meta: &Metadata) -> Option<Arc<FileState>> {
        let _lk = self.lockcheck.acquire(Class::FilesMap, 0);
        self.files.lock().get(&(backend as u32, meta.dev, meta.ino)).cloned()
    }

    /// Whether any open descriptor or closed-but-undrained zombie still
    /// references `path` — such a file owns pending log entries tied to its
    /// recorded backend and must not migrate.
    pub fn path_is_open_or_draining(&self, path: &str) -> bool {
        self.descriptor_at(path).is_some()
    }

    /// Pops a free persistent fd slot (draining finished zombies once if
    /// the allocator is empty), or `None` when the table is genuinely full.
    pub fn take_free_slot(&self, clock: &ActorClock) -> Option<u32> {
        if let Some(slot) = self.fd_slots.acquire() {
            return Some(slot);
        }
        self.drain_zombies(clock);
        self.fd_slots.acquire()
    }

    /// Holds `opened`'s inner descriptor shared: it cannot be released
    /// before the guard drops, so whoever finds `Some(fd)` may use `fd` for
    /// as long as it holds the guard. Taken *after* any page lock — a
    /// queued release would otherwise stand between two readers that hold
    /// them in opposite orders.
    pub fn hold_inner<'o>(
        &self,
        opened: &'o OpenedFile,
    ) -> (RwLockReadGuard<'o, Option<Fd>>, Held) {
        let order = self.lockcheck.acquire(Class::InnerFd, 0);
        (opened.inner.read(), order)
    }

    /// Closes `opened`'s inner descriptor, once: whoever takes it out of
    /// the handle closes it, after every holder of the handle has let go.
    pub fn release_inner(&self, opened: &OpenedFile, clock: &ActorClock) {
        crate::stress_point();
        let taken = {
            let _lk = self.lockcheck.acquire(Class::InnerFd, 0);
            opened.inner.write().take()
        };
        crate::stress_point();
        if let Some(fd) = taken {
            let _ = self.inner_of(opened).close(fd, clock);
        }
    }

    /// Releases the inner descriptors of the files that died since the last
    /// call: the inner file system retires an unlinked inode at its last
    /// `close` and drops the pages it still caches for it, so a later
    /// barrier has nothing of theirs to write back.
    pub fn release_dead(&self, clock: &ActorClock) {
        let dead = std::mem::take(&mut *self.graveyard.lock());
        for opened in dead {
            self.release_inner(&opened, clock);
        }
    }

    /// The inner `unlink` of the file `identity` names (`(backend, dev,
    /// ino)`) succeeded. If the mount knows the file it loses its name: it
    /// leaves the file table (the inode number may come back as another
    /// file), and the valid word of every fd slot on it is cleared, so that
    /// recovery skips its pending entries instead of replaying them into
    /// whatever carries the name by then. Inner unlink first, valid words
    /// second: a crash in between finds the slots valid and no file
    /// (recovery counts it missing and discards the entries); the reverse
    /// order would lose acknowledged writes of a file that still has its
    /// name.
    pub fn file_unlinked(&self, identity: (u32, u64, u64), clock: &ActorClock) {
        let Some(file) = ({
            let _lk = self.lockcheck.acquire(Class::FilesMap, 0);
            self.files.lock().remove(&identity)
        }) else {
            return;
        };
        file.unlinked.store(true, Ordering::SeqCst);
        let descriptors = self.descriptors_of(&file);
        let slots = descriptors.iter().map(|o| o.slot);
        PersistentFdTable::clear_all(&self.log.region, &self.log.layout, slots, clock);
        self.bury_if_dead(&file, descriptors);
    }

    /// Whether the unlinked `file` is *dead* — none of its `descriptors`
    /// (all of them, listed after `unlinked` was set) is left un-closed, so
    /// nothing can read it again. The caller that finds it so
    /// first buries it: its read-cache pages go, and its descriptors'
    /// inner halves are handed to the cleanup workers for release. From
    /// then on the workers drop its entries instead of writing them; its
    /// zombies stay listed only to pin their slot numbers until the tail
    /// has passed those entries. `unlink` and the last `close` may race
    /// here: each publishes its own step (`unlinked`, `closing`) before it
    /// looks for the other's, so at least one of them finds the file dead.
    fn bury_if_dead(&self, file: &FileState, descriptors: Vec<Arc<OpenedFile>>) -> bool {
        if descriptors.iter().any(|o| !o.closing.load(Ordering::SeqCst)) {
            return false;
        }
        if !file.dead.swap(true, Ordering::SeqCst) {
            self.pool.purge_file(file.file_id);
            self.stats.files_buried.fetch_add(1, Ordering::Relaxed);
            self.graveyard.lock().extend(descriptors);
            self.log.notify_work_all();
        }
        true
    }

    /// Collects this file's still-pending log entries from every stripe,
    /// sorted by global sequence number. The commit-word filter also skips
    /// entries still being filled (their page locks are held by the writer,
    /// and callers hold either the page locks or fd quiescence).
    fn pending_entries_for(
        &self,
        filter: impl Fn(&EntryHeader) -> bool,
    ) -> Vec<(usize, u64, EntryHeader)> {
        let mut pending: Vec<(usize, u64, EntryHeader)> = Vec::new();
        for (si, stripe) in self.log.stripes.iter().enumerate() {
            let tail = stripe.vtail.load(Ordering::Acquire);
            let head = stripe.head.load(Ordering::Acquire);
            for seq in tail..head {
                let hdr = stripe.read_header(seq);
                if hdr.commit == layout::CommitWord::Free || !filter(&hdr) {
                    continue;
                }
                pending.push((si, seq, hdr));
            }
        }
        // Replay order must be the global commit order, not stripe order.
        pending.sort_by_key(|(_, _, hdr)| hdr.seq);
        pending
    }

    /// Pushes pending log entries of `via`'s file into the kernel through
    /// `via`'s inner descriptor (buffered `pwrite`, **no** fsync): the
    /// paper's `close` contract — "all the writes in user space are actually
    /// flushed to the kernel" — durability already lives in the NVMM log.
    /// Without a `mark`, `via`'s own entries; with one, every entry of the
    /// file below `mark`, and the file's mark moves there
    /// ([`FileState::pushed_below`]). Entries below the old mark are in the
    /// kernel already. The entries go through the replay planner
    /// (`replay.rs`): each contiguous extent of surviving bytes is one inner
    /// write.
    ///
    /// The cleanup lock of every page a listed entry covers is held from
    /// before the mark moves until the last write, so a worker consumes an
    /// entry below the mark without a write only once its bytes are in the
    /// kernel, and no read miss sees the page in between. Under those locks
    /// the entries a worker has consumed already are dropped. The tail is
    /// pinned from the snapshot of the entries to the last payload read, so
    /// none of them is freed, and its slot refilled, in between. Returns
    /// whether every write reached the kernel; if not, the mark stays where
    /// it was and the workers write the entries themselves.
    pub fn push(&self, via: &OpenedFile, mark: Option<u64>, clock: &ActorClock) -> bool {
        let file = &via.file;
        let _lk = self.lockcheck.acquire(Class::TailPin, 0);
        let _pin = self.log.tail_pin.read();
        let below = file.pushed_below.load(Ordering::Acquire);
        let slots = file.slots.lock().clone();
        let ours = |h: &EntryHeader| match mark {
            Some(mark) => h.seq < mark && slots.contains(&h.fd_slot),
            None => h.fd_slot == via.slot,
        };
        let listed = self.pending_entries_for(|h| h.seq >= below && ours(h));
        #[cfg(test)]
        crate::scoped_tests::after_snapshot();
        let mut pages: Vec<KeyedPage> = listed
            .iter()
            .flat_map(|(_, _, h)| self.page_descs(file, h.file_off, h.len as usize))
            .collect();
        pages.sort_unstable_by_key(|(key, _)| *key);
        pages.dedup_by_key(|(key, _)| *key);
        let _guards = self.lock_pages(Class::PageCleanup, &pages, PageDescriptor::lock_cleanup);
        // A listed entry a worker has consumed is in the kernel already, and
        // a newer one on its page may be consumed and freed, so unlisted:
        // writing it would put older bytes over the newer ones. A worker
        // consumes an entry on all its pages at once, under their cleanup
        // locks, and pops it from each page's propagation queue.
        let consumed = |h: &EntryHeader| {
            self.page_descs(file, h.file_off, 1)
                .iter()
                .all(|(_, page)| page.propagation_front().is_none_or(|front| front > h.seq))
        };
        let mut plans = Vec::new();
        let mut window = Window::default();
        for (si, seq, hdr) in listed.into_iter().filter(|(_, _, h)| !consumed(h)) {
            let data_at = self.log.layout.entry_data(self.log.stripes[si].slot(seq));
            if window.push(Pending { file: 0, file_off: hdr.file_off, len: hdr.len, data_at }) {
                plans.push(window.plan());
            }
        }
        plans.push(window.plan());
        if let Some(mark) = mark {
            file.pushed_below.store(mark, Ordering::Release);
        }
        let pushed = plans.into_iter().try_for_each(|plan| {
            plan.write_out(
                |at, buf| self.log.region.read_cached(at, buf),
                |_, off, data| {
                    let (inner, _lk) = self.hold_inner(via);
                    let fd = inner.ok_or(IoError::BadFd(via.slot as u64))?;
                    self.inner_of(via).pwrite(fd, data, off, clock).map(drop)
                },
            )
            .map(drop)
        });
        if pushed.is_err() {
            file.pushed_below.store(below, Ordering::Release);
        }
        pushed.is_ok()
    }

    /// Takes `file`'s push lock: the one `close` or `rename` pushing it.
    pub fn serialize_push<'f>(&self, file: &'f FileState) -> (MutexGuard<'f, ()>, Held) {
        let order = self.lockcheck.acquire(Class::FilePush, 0);
        (file.push_lock.lock(), order)
    }

    /// `close`'s push of a writable descriptor. The last writable
    /// descriptor to close pushes the whole file and moves its mark to
    /// [`Log::next_seq`] — read *before* the count, so that a writer opened
    /// after the count was read logs only at or above it; every entry below
    /// it is committed, its descriptor having finished its calls. Any
    /// other pushes its own entries. Only then, and only if the push
    /// succeeded, does the count drop: at zero, the kernel's copy of the
    /// file is current.
    fn close_push(&self, opened: &OpenedFile, clock: &ActorClock) {
        let file = &opened.file;
        let _serial = self.serialize_push(file);
        let next = self.log.next_seq();
        let last = file.writers.load(Ordering::SeqCst) == 1;
        if self.push(opened, last.then_some(next), clock) {
            file.writers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// A flush barrier over every stripe that fails when the drain could
    /// not complete because a stripe is poisoned. Ordering-sensitive
    /// operations (truncate, rename, `O_TRUNC` opens) must not proceed in
    /// that state: their pending entries would stay in NVMM and recovery
    /// would later replay them *over* the operation's effect.
    pub fn drained_flush(&self, clock: &ActorClock) -> IoResult<()> {
        self.log.flush_all(clock);
        if self.log.any_poisoned() {
            return Err(IoError::Other(
                "NVCache log stripe poisoned by an inner I/O error: pending entries \
                 cannot drain (recovery required)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Completes a deferred close: releases the inner fd, the persistent fd
    /// slot and, on last close, the file structure and its cached pages.
    /// The caller has counted the descriptor in
    /// [`finishing`](Shared::finishing); the count is given back here, once
    /// the slot is free.
    pub fn finish_close(&self, opened: &Arc<OpenedFile>, clock: &ActorClock) {
        {
            let _lk = self.lockcheck.acquire(Class::OpenedMap, 0);
            self.opened.write().remove(&opened.slot);
        }
        opened.file.slots.lock().retain(|&slot| slot != opened.slot);
        // The descriptor is in no table and its slot is still taken.
        self.release_inner(opened, clock);
        // An unlinked file's slots were cleared at the `unlink`; it is in
        // no file table, and there is no path to catalogue.
        let named = !opened.file.unlinked.load(Ordering::SeqCst);
        if named {
            PersistentFdTable::clear(&self.log.region, &self.log.layout, opened.slot, clock);
        }
        self.fd_slots.release(opened.slot);
        self.finishing.fetch_sub(1, Ordering::SeqCst);
        if opened.file.open_count.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.pool.purge_file(opened.file.file_id);
            let (dev, ino) = opened.file.dev_ino;
            {
                // Only this file's own entry: the key of a file unlinked
                // meanwhile may already name its successor.
                let _lk = self.lockcheck.acquire(Class::FilesMap, 0);
                let mut files = self.files.lock();
                let key = (opened.backend, dev, ino);
                if files.get(&key).is_some_and(|f| Arc::ptr_eq(f, &opened.file)) {
                    files.remove(&key);
                }
            }
            if named {
                self.tiers.closed(opened, &self.stats);
            }
        }
    }

    /// Finishes all zombies whose entries have drained past every stripe's
    /// tail.
    pub fn drain_zombies(&self, clock: &ActorClock) {
        let ready: Vec<Zombie> = {
            let _lk = self.lockcheck.acquire(Class::Zombies, 0);
            let mut z = self.zombies.lock();
            let (done, keep): (Vec<Zombie>, Vec<Zombie>) =
                z.drain(..).partition(|zb| self.log.drained_to(&zb.drain_targets));
            *z = keep;
            self.finishing.fetch_add(done.len(), Ordering::SeqCst);
            done
        };
        for zb in ready {
            self.finish_close(&zb.opened, clock);
        }
    }

    /// Whether no slot can come back without a new `close`: no zombie is
    /// listed, no open descriptor is closing and none is being finished.
    /// The order matters: a descriptor leaves `zombies` and `opened` only
    /// after it is counted in `finishing` and leaves `finishing` only after
    /// its slot is released, so reading `finishing` last sees every
    /// descriptor the two tables no longer show. A caller told `true`
    /// tries the allocator once more: what was on its way is free by now.
    pub fn out_of_descriptors(&self) -> bool {
        let _lz = self.lockcheck.acquire(Class::Zombies, 0);
        let zombies = self.zombies.lock();
        zombies.is_empty()
            && {
                let _lo = self.lockcheck.acquire(Class::OpenedMap, 0);
                self.opened.read().values().all(|o| !o.closing.load(Ordering::Acquire))
            }
            && self.finishing.load(Ordering::SeqCst) == 0
    }

    /// The dirty-miss procedure (paper §II-C) over a run of pages read into
    /// `run_buf`, whose first page is `first`: each `(page, unpropagated)`
    /// of `dirty` (ascending) is rebuilt by re-applying, in *global commit
    /// order* across all stripes, the `unpropagated` pending entries that
    /// overlap it — the page's dirty count, exact because the caller holds
    /// the page's atomic lock (no writer queues an entry) *and* cleanup lock
    /// (no worker pops one). Those are the newest overlapping entries.
    /// One scan of the log serves the whole run; each page keeps its own
    /// count. The scan can also meet older, already propagated entries
    /// whose worker has not cleared their commit word yet (`free_range`
    /// runs outside the page locks, oldest first): the page already holds
    /// them, and replaying one whose newer sibling the sweep has cleared
    /// meanwhile would bring stale bytes back.
    fn dirty_miss(
        &self,
        file: &Arc<FileState>,
        first: u64,
        dirty: &[(u64, usize)],
        run_buf: &mut [u8],
        clock: &ActorClock,
    ) {
        let (Some(&(lo, _)), Some(&(hi, _))) = (dirty.first(), dirty.last()) else {
            return;
        };
        let ps = PAGE_SIZE as u64;
        let overlaps = |hdr: &EntryHeader, start: u64, end: u64| {
            hdr.file_off < end && hdr.file_off + hdr.len as u64 > start
        };
        let overlapping = self.pending_entries_for(|hdr| {
            overlaps(hdr, lo * ps, (hi + 1) * ps)
                && self.opened_by_slot(hdr.fd_slot).is_some_and(|op| Arc::ptr_eq(&op.file, file))
        });
        for &(page, unpropagated) in dirty {
            let (page_start, page_end) = (page * ps, (page + 1) * ps);
            let on_page: Vec<_> = overlapping
                .iter()
                .filter(|(_, _, h)| overlaps(h, page_start, page_end))
                .collect();
            let propagated = on_page.len().saturating_sub(unpropagated);
            let page_buf = &mut run_buf[((page - first) * ps) as usize..][..ps as usize];
            for &(si, seq, hdr) in on_page.into_iter().skip(propagated) {
                let e_start = hdr.file_off;
                let e_end = e_start + hdr.len as u64;
                let data = self.log.stripes[si].read_data(seq, hdr.len as usize, clock);
                let s = e_start.max(page_start);
                let e = e_end.min(page_end);
                page_buf[(s - page_start) as usize..(e - page_start) as usize]
                    .copy_from_slice(&data[(s - e_start) as usize..(e - e_start) as usize]);
            }
        }
    }

    /// Reads `run` — consecutive unloaded pages whose atomic locks the
    /// caller holds — with one inner `pread`, under the run's cleanup locks
    /// (ascending, so no worker writes any of them meanwhile), and rebuilds
    /// its dirty pages ([`dirty_miss`](Shared::dirty_miss)). Returns the
    /// pages' contents back to back; bytes past the inner file's end read as
    /// zeroes.
    fn read_run(
        &self,
        opened: &OpenedFile,
        run: &[KeyedPage],
        clock: &ActorClock,
    ) -> IoResult<Vec<u8>> {
        let ps = PAGE_SIZE;
        let first = run[0].0 .1;
        let _cleanup = self.lock_pages(Class::PageCleanup, run, PageDescriptor::lock_cleanup);
        crate::stress_point();
        let mut run_buf = vec![0u8; run.len() * ps];
        {
            let (inner, _lk) = self.hold_inner(opened);
            let inner_fd = inner.ok_or(IoError::BadFd(opened.slot as u64))?;
            self.inner_of(opened).pread(inner_fd, &mut run_buf, first * ps as u64, clock)?;
        }
        self.stats.read_miss_preads.fetch_add(1, Ordering::Relaxed);
        // With no writable descriptor left the kernel's copy is current: the
        // last `close` pushed every entry, and the workers write none of
        // them again.
        if opened.file.writers.load(Ordering::SeqCst) > 0 {
            let dirty: Vec<(u64, usize)> = run
                .iter()
                .filter_map(|((_, p), d)| {
                    let unpropagated = d.dirty_count();
                    (unpropagated > 0).then_some((*p, unpropagated))
                })
                .collect();
            self.stats.dirty_misses.fetch_add(dirty.len() as u64, Ordering::Relaxed);
            self.dirty_miss(&opened.file, first, &dirty, &mut run_buf, clock);
        }
        Ok(run_buf)
    }

    /// The write path's one body (paper Algorithm 1, generalized to
    /// multi-page, multi-entry and batched writes): append `writes` — all
    /// routed to `stripe`, together fitting it — as one reservation window,
    /// commit them with a single fence pair (synchronous durability), then
    /// update propagation queues, loaded page contents and file sizes, and
    /// count the writes and their heat. The caller holds the
    /// atomic lock of every written page: `pages` ascending by key, `guards`
    /// parallel to it. Returns the commit instant, from which every write is
    /// durable.
    ///
    /// # Errors
    ///
    /// Nothing is logged if the stripe was poisoned by an inner I/O error
    /// (its worker is gone, so waiting for space could block forever).
    pub fn commit_writes(
        &self,
        stripe: &Stripe,
        writes: &[WriteOp<'_>],
        pages: &[KeyedPage],
        guards: &mut [PageGuard<'_, PageSlot>],
        clock: &ActorClock,
    ) -> IoResult<SimTime> {
        let es = self.cfg.entry_size;
        let entries = |w: &WriteOp<'_>| w.data.len().div_ceil(es) as u64;
        // Append (Algorithm 1 ll.14-22). Every write is its own commit group
        // (per-write recovery atomicity), members pointing at their leader's
        // global slot.
        let window = writes.iter().map(entries).sum();
        let (first_seq, first_gseq) = self.log.reserve(stripe, window, clock, &self.stats)?;
        let mut groups = Vec::with_capacity(writes.len());
        let (mut seq, mut gseq) = (first_seq, first_gseq);
        for w in writes {
            let k = entries(w);
            let leader_slot = stripe.slot(seq);
            for (i, part) in w.data.chunks(es).enumerate() {
                stripe.fill_entry(
                    seq + i as u64,
                    gseq + i as u64,
                    w.opened.slot,
                    w.off + (i * es) as u64,
                    part,
                    k as u32,
                    (i > 0).then_some(leader_slot),
                    clock,
                );
            }
            groups.push((seq, k));
            seq += k;
            gseq += k;
        }
        // Commit (ll.23-27): one pfence + one psync for the whole window.
        stripe.commit_batch(&groups, clock);
        let done = clock.now();

        // Read-cache maintenance (ll.29-31), in window order: one
        // propagation-queue entry — the paper's dirty-counter increment — per
        // (entry, page) overlap, so the cleanup workers replay each page's
        // writes in commit order, and in-place update of loaded contents.
        let ps = PAGE_SIZE as u64;
        let mut gseq = first_gseq;
        for (w, &(_, k)) in writes.iter().zip(&groups) {
            let file = &w.opened.file;
            let index_of = |p: u64| {
                pages
                    .binary_search_by_key(&(file.file_id, p), |&(key, _)| key)
                    .expect("the caller locked every written page")
            };
            for (i, part) in w.data.chunks(es).enumerate() {
                for p in self.pages_of(w.off + (i * es) as u64, part.len()) {
                    pages[index_of(p)].1.enqueue_propagation(gseq + i as u64);
                }
            }
            let end = w.off + w.data.len() as u64;
            let mut updated_bytes = 0u64;
            for p in self.pages_of(w.off, w.data.len()) {
                let j = index_of(p);
                if let Some(content) = guards[j].0.content.as_mut() {
                    let page_start = p * ps;
                    let s = w.off.max(page_start);
                    let e = end.min(page_start + ps);
                    content[(s - page_start) as usize..(e - page_start) as usize]
                        .copy_from_slice(&w.data[(s - w.off) as usize..(e - w.off) as usize]);
                    updated_bytes += e - s;
                }
                guards[j].0.touch();
            }
            if updated_bytes > 0 {
                clock.advance(copy_bandwidth().time_for(updated_bytes));
            }
            file.size.fetch_max(end, Ordering::AcqRel);
            file.writes.fetch_add(1, Ordering::Relaxed); // access heat for the migrator
            gseq += k;
        }
        let stats = &self.stats;
        let bytes = writes.iter().map(|w| w.data.len() as u64).sum();
        let multi_entry = groups.iter().filter(|&&(_, k)| k > 1).count() as u64;
        stats.writes.fetch_add(writes.len() as u64, Ordering::Relaxed);
        stats.bytes_logged.fetch_add(bytes, Ordering::Relaxed);
        stats.entries_logged.fetch_add(window, Ordering::Relaxed);
        stats.per_shard[stripe.index]
            .entries_logged
            .fetch_add(window, Ordering::Relaxed);
        stats.groups_logged.fetch_add(multi_entry, Ordering::Relaxed);
        let now = clock.now();
        for w in writes {
            self.tiers.touch(&w.opened.file, now);
        }
        Ok(done)
    }

    /// The synchronous write: a one-op doorbell — check, pay the libc
    /// crossing, lock the written pages, run [`commit_writes`] with the one
    /// write.
    ///
    /// [`commit_writes`]: Shared::commit_writes
    pub fn do_pwrite(
        &self,
        opened: &OpenedFile,
        data: &[u8],
        off: u64,
        clock: &ActorClock,
    ) -> IoResult<usize> {
        if !opened.flags.writable() {
            return Err(IoError::PermissionDenied("fd opened read-only".into()));
        }
        clock.advance(LIBC_OVERHEAD);
        if data.is_empty() {
            return Ok(0);
        }
        let file = &opened.file;
        let (stripe, _) = self.route_write(file, off, data.len())?;
        let pages = self.page_descs(file, off, data.len());
        let mut guards = self.lock_pages(Class::PageAtomic, &pages, PageDescriptor::lock);
        self.commit_writes(stripe, &[WriteOp { opened, data, off }], &pages, &mut guards, clock)?;
        Ok(data.len())
    }

    /// The read path (paper §II-C): read cache hit, or miss with optional
    /// dirty-miss reconciliation; read-only files bypass the cache entirely.
    /// With every page's atomic lock held, each maximal run of consecutive
    /// missing pages is read with one inner `pread` ([`read_run`]); then,
    /// in page order, a missing page is installed (after
    /// [`make_room`](ReadCache::make_room)) and every page is copied out —
    /// the read cache sees the same sequence as with one `pread` per page.
    ///
    /// [`read_run`]: Shared::read_run
    fn do_pread(
        &self,
        opened: &OpenedFile,
        buf: &mut [u8],
        off: u64,
        clock: &ActorClock,
    ) -> IoResult<usize> {
        if !opened.flags.readable() {
            return Err(IoError::PermissionDenied("fd opened write-only".into()));
        }
        clock.advance(LIBC_OVERHEAD);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let file = &opened.file;
        let size = file.size.load(Ordering::Acquire);
        if off >= size || buf.is_empty() {
            // No data moved, no heat: a tail-style poller hammering EOF
            // must not talk its file onto the fast tier (writes are
            // symmetric — only a committed write counts).
            return Ok(0);
        }
        file.reads.fetch_add(1, Ordering::Relaxed); // access heat for the migrator
        self.tiers.touch(file, clock.now());
        let n = buf.len().min((size - off) as usize);
        if file.radix.get().is_none() {
            // Never opened for writing: the kernel page cache is fresh.
            self.stats.bypass_reads.fetch_add(1, Ordering::Relaxed);
            let (inner, _lk) = self.hold_inner(opened);
            let inner_fd = inner.ok_or(IoError::BadFd(opened.slot as u64))?;
            return self.inner_of(opened).pread(inner_fd, &mut buf[..n], off, clock);
        }
        let ps = PAGE_SIZE as u64;
        let pages = self.page_descs(file, off, n);
        let mut guards = self.lock_pages(Class::PageAtomic, &pages, PageDescriptor::lock);
        let missing: Vec<bool> = guards.iter().map(|(slot, _)| slot.content.is_none()).collect();
        let mut fetched = Vec::new();
        let mut at = 0;
        for run in missing.chunk_by(|a, b| a == b) {
            if run[0] {
                let run_buf = self.read_run(opened, &pages[at..at + run.len()], clock)?;
                fetched.extend(run_buf.chunks(ps as usize).map(Box::<[u8]>::from));
            }
            at += run.len();
        }
        let mut fetched = fetched.into_iter();
        for (((_, p), d), (slot, _)) in pages.iter().zip(&mut guards) {
            if slot.content.is_none() {
                self.stats.read_misses.fetch_add(1, Ordering::Relaxed);
                self.pool.make_room(&self.stats);
                let content = fetched.next().expect("one page per miss");
                self.pool.install(d, slot, content, &self.stats);
            } else {
                self.stats.read_hits.fetch_add(1, Ordering::Relaxed);
                slot.touch();
            }
            let content = slot.content.as_ref().expect("just installed");
            let page_start = p * ps;
            let s = off.max(page_start);
            let e = (off + n as u64).min(page_start + ps);
            buf[(s - off) as usize..(e - off) as usize]
                .copy_from_slice(&content[(s - page_start) as usize..(e - page_start) as usize]);
        }
        clock.advance(copy_bandwidth().time_for(n as u64));
        Ok(n)
    }
}

/// NVCache: a plug-and-play NVMM write cache for legacy applications — the
/// paper's contribution, as a [`FileSystem`] layer wrapping any inner file
/// system.
///
/// Writes are appended synchronously to a circular NVMM log (synchronous
/// durability + durable linearizability), then propagated asynchronously by
/// the cleanup thread through the inner file system. A small volatile read
/// cache keeps read-your-writes consistency. `fsync` is a no-op by design.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use nvcache::{NvCache, NvCacheConfig};
/// use nvmm::{NvDimm, NvRegion, NvmmProfile};
/// use simclock::ActorClock;
/// use vfs::{FileSystem, MemFs, OpenFlags};
///
/// # fn main() -> Result<(), vfs::IoError> {
/// let clock = ActorClock::new();
/// let cfg = NvCacheConfig::tiny();
/// let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
/// let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
/// let cache = NvCache::builder(NvRegion::whole(dimm))
///     .backend(inner)
///     .config(cfg)
///     .mount(&clock)?;
/// let fd = cache.open("/hello", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
/// cache.pwrite(fd, b"durable on return", 0, &clock)?;
/// let mut buf = [0u8; 17];
/// cache.pread(fd, &mut buf, 0, &clock)?;
/// assert_eq!(&buf, b"durable on return");
/// cache.close(fd, &clock)?;
/// cache.shutdown(&clock);
/// # Ok(())
/// # }
/// ```
pub struct NvCache {
    pub(crate) shared: Arc<Shared>,
    name: String,
    cleanup: Mutex<Vec<JoinHandle<()>>>,
    /// The recovery report when the instance was mounted with
    /// [`Mount::Recover`](crate::Mount); `None` on a fresh format.
    recovery: Option<RecoveryReport>,
}

impl std::fmt::Debug for NvCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvCache")
            .field("name", &self.name)
            .field("pending_entries", &self.pending_entries())
            .finish()
    }
}

impl NvCache {
    /// Starts building a mount over `region` — the one way to mount. See
    /// [`NvCacheBuilder`].
    pub fn builder(region: NvRegion) -> NvCacheBuilder {
        NvCacheBuilder::new(region)
    }

    /// Brings the mount up over a formatted (or just recovered) region:
    /// `recovered` is what [`recover`](crate::recovery::recover) found.
    pub(crate) fn start(
        region: NvRegion,
        tiers: Tiers,
        cfg: NvCacheConfig,
        recovered: Option<Recovered>,
        clock: &ActorClock,
    ) -> NvCache {
        let mut cleanup_clocks = Vec::with_capacity(cfg.log_shards);
        cleanup_clocks.resize_with(cfg.log_shards, || Arc::new(ActorClock::new()));
        let lockcheck = tiers.migrator.lockcheck.clone();
        let lay = Layout::for_config(&cfg);
        let stats =
            NvCacheStats::with_front_end(cfg.log_shards, tiers.backends.len(), cfg.sq_pairs);
        let name = tiers.name();
        let recovery = recovered.map(|(report, misplaced, heat)| {
            tiers.seed(misplaced, heat, clock.now(), &stats);
            stats.recovered_entries.store(report.entries_replayed, Ordering::Relaxed);
            report
        });
        let shared = Arc::new(Shared {
            pool: ReadCache::new(cfg.read_cache_pages),
            log: Log::new(region, lay, 0, lockcheck.clone()),
            tiers,
            files: Mutex::new(HashMap::new()),
            opened: RwLock::new(HashMap::new()),
            fd_slots: FdSlotAllocator::new(cfg.fd_slots),
            sq_taken: {
                let mut taken = Vec::with_capacity(cfg.sq_pairs);
                taken.resize_with(cfg.sq_pairs, || AtomicBool::new(false));
                taken.into_boxed_slice()
            },
            zombies: Mutex::new(Vec::new()),
            graveyard: Mutex::new(Vec::new()),
            finishing: AtomicUsize::new(0),
            stats,
            stop: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            cleanup_clocks: cleanup_clocks.into_boxed_slice(),
            next_file_id: AtomicU64::new(1),
            lockcheck,
            cfg,
            #[cfg(test)]
            rewrite_pushed: AtomicBool::new(false),
            #[cfg(test)]
            held_stripes: AtomicU64::new(0),
        });
        let handles = (0..shared.cfg.log_shards)
            .map(|stripe| {
                let worker = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nvcache-cleanup-{stripe}"))
                    .spawn(move || {
                        // Under pmcheck a checker violation panics the
                        // worker; poison its stripe first so flush_to
                        // waiters fail instead of hanging forever.
                        #[cfg(feature = "pmcheck")]
                        {
                            let shared = Arc::clone(&worker);
                            if let Err(panic) =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    crate::cleanup::run_cleanup(worker, stripe)
                                }))
                            {
                                shared.log.stripes[stripe].poison();
                                std::panic::resume_unwind(panic);
                            }
                        }
                        #[cfg(not(feature = "pmcheck"))]
                        crate::cleanup::run_cleanup(worker, stripe)
                    })
                    .expect("spawn cleanup worker")
            })
            .collect();
        NvCache { shared, name, cleanup: Mutex::new(handles), recovery }
    }

    /// The recovery report of a [`Mount::Recover`](crate::Mount) mount (`None` when the
    /// instance was freshly formatted).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// The configuration in use.
    pub fn config(&self) -> &NvCacheConfig {
        &self.shared.cfg
    }

    /// Operation counters.
    pub fn stats(&self) -> &NvCacheStats {
        &self.shared.stats
    }

    /// The first cleanup worker's virtual clock (the only one on a
    /// single-stripe log).
    pub fn cleanup_clock(&self) -> &ActorClock {
        &self.shared.cleanup_clocks[0]
    }

    /// The virtual clocks of all cleanup workers, one per log stripe.
    pub fn cleanup_clocks(&self) -> impl Iterator<Item = &ActorClock> {
        self.shared.cleanup_clocks.iter().map(Arc::as_ref)
    }

    /// Log entries waiting to be propagated.
    pub fn pending_entries(&self) -> u64 {
        self.shared.log.in_flight()
    }

    /// Indices of log stripes poisoned by an inner-file-system error: their
    /// workers have stopped, their pending entries await a
    /// [`Mount::Recover`](crate::Mount) mount, and writes routed to them fail. Empty in
    /// healthy operation ([`NvCacheStats::inner_io_errors`] counts the
    /// causes).
    pub fn poisoned_stripes(&self) -> Vec<usize> {
        self.shared.log.poisoned_stripes()
    }

    /// Claims submission/completion queue pair `index` (a "simulated
    /// core"'s private front-end lane). The mount must have been
    /// configured with [`NvCacheConfig::with_sq_pairs`]; each pair can be
    /// held by at most one [`QueuePair`](crate::QueuePair) handle at a
    /// time (dropping the handle releases the pair).
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] when `index` is outside
    /// `0..cfg.sq_pairs`; [`IoError::Busy`] when another handle currently
    /// owns the pair.
    pub fn queue_pair(&self, index: usize, clock: &ActorClock) -> IoResult<crate::QueuePair> {
        crate::squeue::QueuePair::claim(self, index, clock)
    }

    /// Descriptor-table occupancy: `(free, open, zombie)` slot counts.
    pub fn fd_slot_usage(&self) -> (usize, usize, usize) {
        let free = self.shared.fd_slots.free_count() as usize;
        // One table at a time: building the tuple in a single expression
        // kept the `opened` read guard alive across the `zombies` lock
        // (tuple temporaries drop at statement end), which is the reverse
        // of the zombies → opened order the open() slot-retry loop uses —
        // a deadlock window whenever a writer is queued on `opened`.
        let open = {
            let _lk = self.shared.lockcheck.acquire(Class::OpenedMap, 0);
            self.shared.opened.read().len()
        };
        let zombie = {
            let _lk = self.shared.lockcheck.acquire(Class::Zombies, 0);
            self.shared.zombies.lock().len()
        };
        (free, open, zombie)
    }

    /// Blocks until every entry currently in any stripe has been propagated
    /// and fsync'ed by its cleanup worker (the flush barrier drains *all*
    /// stripes). If a stripe is poisoned the barrier returns early — its
    /// entries can only drain through a [`Mount::Recover`](crate::Mount) mount; operations
    /// whose correctness *depends* on the drain use the internal
    /// `Shared::drained_flush` and propagate the error instead.
    pub fn flush_log(&self, clock: &ActorClock) {
        self.shared.log.flush_all(clock);
    }

    /// Graceful shutdown: drain every stripe, stop and join the cleanup
    /// workers.
    pub fn shutdown(&self, clock: &ActorClock) {
        self.flush_log(clock);
        self.abort();
    }

    /// Immediate stop (crash simulation): the cleanup workers exit without
    /// draining; pending entries stay in NVMM for a [`Mount::Recover`](crate::Mount) mount.
    pub fn abort(&self) {
        self.shared.kill.store(true, Ordering::Release);
        self.shared.stop.store(true, Ordering::Release);
        self.shared.log.notify_work_all();
        for h in self.cleanup.lock().drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(feature = "pmcheck")]
impl NvCache {
    /// Every persistency-ordering violation the shadow checker recorded on
    /// this mount's DIMM (each one also panicked at its detection site).
    /// Empty on a clean run.
    pub fn pm_violations(&self) -> Vec<String> {
        self.shared.log.region.pm_violations()
    }

    /// Every lock-order violation (cycle, page-order inversion, illegal
    /// re-entry) the recorder caught on this mount. Empty on a clean run.
    pub fn lock_order_violations(&self) -> Vec<String> {
        self.shared.lockcheck.violations()
    }

    /// Number of distinct acquisition-order edges the recorder has observed
    /// — test instrumentation proving lock tracking is actually live.
    pub fn lock_order_edges(&self) -> usize {
        self.shared.lockcheck.edge_count()
    }
}

impl Drop for NvCache {
    fn drop(&mut self) {
        self.abort();
    }
}

impl NvCache {
    /// Body of the intercepted `open`, after path normalization and under
    /// the path's lease: inner open, file/descriptor bookkeeping.
    fn open_at(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            // Pending log entries for the victim content must not resurface
            // — and only a file the mount holds state for has any.
            let victim = self.shared.tiers.locate(&self.shared, path, clock)?;
            if victim.is_some_and(|(b, meta)| self.shared.file_at(b, &meta).is_some()) {
                self.shared.drained_flush(clock)?;
            } else {
                self.shared.stats.drains_skipped.fetch_add(1, Ordering::Relaxed);
            }
        }
        // NVCache provides durability itself; the inner file is opened
        // without O_SYNC (the cleanup thread fsyncs batches explicitly).
        let inner_flags = flags.without(OpenFlags::SYNC);
        let (backend_idx, inner_fd) =
            self.shared.tiers.open(&self.shared, path, inner_flags, clock)?;
        let inner = &self.shared.tiers.backends[backend_idx];
        let meta = inner.fstat(inner_fd, clock)?;
        let file = {
            let _lk = self.shared.lockcheck.acquire(Class::FilesMap, 0);
            let mut files = self.shared.files.lock();
            Arc::clone(files.entry((backend_idx as u32, meta.dev, meta.ino)).or_insert_with(|| {
                // The file leaves the migrator's closed-file catalog while
                // open; its accumulated access heat seeds the fresh
                // counters so temperature survives close/reopen cycles. A
                // catalog entry pointing at a *different* tier stays: it
                // tracks a copy this open did not touch, which a sweep may
                // still need to find.
                let catalogued = self.shared.tiers.migrator.take_if_on(path, backend_idx as u32);
                let heat = catalogued.unwrap_or_default();
                Arc::new(FileState {
                    file_id: self.shared.next_file_id.fetch_add(1, Ordering::Relaxed),
                    dev_ino: (meta.dev, meta.ino),
                    path: path.to_string(),
                    unlinked: AtomicBool::new(false),
                    dead: AtomicBool::new(false),
                    size: AtomicU64::new(meta.size),
                    reads: AtomicU64::new(heat.reads),
                    writes: AtomicU64::new(heat.writes),
                    temperature: Mutex::new(heat.temp),
                    radix: OnceLock::new(),
                    open_count: AtomicU32::new(0),
                    slots: Mutex::new(Vec::new()),
                    writers: AtomicU32::new(0),
                    pushed_below: AtomicU64::new(0),
                    push_lock: Mutex::new(()),
                })
            }))
        };
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            file.size.store(0, Ordering::Release);
            self.shared.pool.purge_file(file.file_id);
        }
        if flags.writable() {
            file.radix.get_or_init(|| Radix::new(file.file_id));
        }
        file.open_count.fetch_add(1, Ordering::AcqRel);
        let slot = {
            let mut slot = self.shared.take_free_slot(clock);
            if slot.is_none() {
                // Slow path: the table is exhausted right now, but zombies
                // (or concurrently closing descriptors) may give a slot
                // back once their entries drain. Count the stall, drain the
                // log once, then retry only while reclaimable descriptors
                // actually exist — a genuinely full table fails cleanly
                // instead of busy-spinning on an empty zombie list.
                self.shared.stats.fd_slot_waits.fetch_add(1, Ordering::Relaxed);
                self.flush_log(clock);
                loop {
                    self.shared.drain_zombies(clock);
                    slot = self.shared.fd_slots.acquire();
                    if slot.is_some() || self.shared.log.any_poisoned() {
                        // Zombies pinned by a poisoned stripe can never
                        // drain; spinning on them would only delay the
                        // error below.
                        break;
                    }
                    if self.shared.out_of_descriptors() {
                        // Genuinely out of descriptors — unless the last
                        // one on its way freed its slot since the attempt
                        // above.
                        slot = self.shared.fd_slots.acquire();
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            match slot {
                Some(s) => s,
                None => {
                    file.open_count.fetch_sub(1, Ordering::AcqRel);
                    let _ = inner.close(inner_fd, clock);
                    let cause = if self.shared.log.any_poisoned() {
                        "NVCache fd table exhausted: a poisoned log stripe pins \
                         closed descriptors (recovery required)"
                    } else {
                        "NVCache fd table is full"
                    };
                    return Err(IoError::Other(cause.into()));
                }
            }
        };
        PersistentFdTable::set(
            &self.shared.log.region,
            &self.shared.log.layout,
            slot,
            layout::FD_VALID_OPEN,
            path,
            backend_idx as u32,
            clock,
        );
        // A reopen inherits the catalog's accumulated temperature; persist
        // it right away so a crash before the first fsync does not forget a
        // known-warm file. Cold opens (the common case) skip the stamp.
        self.shared.tiers.stamp_heat(&self.shared.log, &file, slot, 1, clock);
        // Counted before the descriptor can write (see `close_push`).
        if flags.writable() {
            file.writers.fetch_add(1, Ordering::SeqCst);
        }
        file.slots.lock().push(slot);
        let opened = Arc::new(OpenedFile {
            slot,
            flags,
            file,
            backend: backend_idx as u32,
            inner: RwLock::new(Some(inner_fd)),
            closing: AtomicBool::new(false),
            in_flight: AtomicU32::new(0),
        });
        {
            let _lk = self.shared.lockcheck.acquire(Class::OpenedMap, 0);
            self.shared.opened.write().insert(slot, opened);
        }
        Ok(Fd(slot as u64))
    }
}

impl FileSystem for NvCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        clock.advance(LIBC_OVERHEAD);
        let path = vfs::normalize_path(path);
        // Before anything is created, any slot taken or any lease held.
        layout::check_path(&path)?;
        // A file mid-migration must not be opened (the copy is incomplete
        // on the target tier): hold the path's lease for the whole open.
        let _lease = self.shared.tiers.lease(&path);
        self.open_at(&path, flags, clock)
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        clock.advance(LIBC_OVERHEAD);
        let opened = self.shared.opened_fd(fd)?;
        if opened.closing.swap(true, Ordering::SeqCst) {
            return Err(IoError::BadFd(fd.0));
        }
        // Wait out in-flight calls on this descriptor (queued submissions
        // count), then push this file's pending writes into the kernel page
        // cache (paper §I: close flushes all user-space writes *to the
        // kernel* — durability is already in NVMM, so no fsync and no
        // waiting for the cleanup thread). The last close of an unlinked
        // file has nobody left to flush for: the file is dead.
        while opened.in_flight.load(Ordering::Acquire) > 0 {
            std::thread::yield_now();
        }
        let file = &opened.file;
        let shared = &self.shared;
        let dead = file.unlinked.load(Ordering::SeqCst)
            && shared.bury_if_dead(file, shared.descriptors_of(file));
        if opened.flags.writable() {
            if dead {
                file.writers.fetch_sub(1, Ordering::SeqCst);
            } else {
                shared.close_push(&opened, clock);
            }
        }
        if !dead {
            // Final temperature summary while the slot is still valid: a
            // crash during the zombie drain window hands the next mount this
            // file's heat (a clean finish clears the slot, heat word
            // included).
            shared.tiers.stamp_heat(&shared.log, file, opened.slot, 0, clock);
        }
        // The persistent fd slot must outlive the entries that reference it
        // (recovery resolves paths through it); defer the actual teardown to
        // the cleanup workers if entries are still in flight anywhere.
        let targets = self.shared.log.heads();
        if self.shared.log.drained_to(&targets) {
            self.shared.finishing.fetch_add(1, Ordering::SeqCst);
            self.shared.finish_close(&opened, clock);
        } else {
            {
                let _lk = self.shared.lockcheck.acquire(Class::Zombies, 0);
                self.shared.zombies.lock().push(Zombie { opened, drain_targets: targets });
            }
            self.shared.log.notify_work_all();
        }
        Ok(())
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let opened = self.shared.enter(fd)?;
        self.shared.do_pread(&opened, buf, off, clock)
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let opened = self.shared.enter(fd)?;
        self.shared.do_pwrite(&opened, data, off, clock)
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        // Paper Table III: no operation — the write call already made the
        // data durable in NVMM. A mount that tracks heat piggybacks its
        // temperature summary on the application's own durability points.
        clock.advance(LIBC_OVERHEAD);
        let opened = self.shared.opened_fd(fd)?;
        self.shared
            .tiers
            .stamp_heat(&self.shared.log, &opened.file, opened.slot, 0, clock);
        Ok(())
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        let opened = self.shared.enter(fd)?;
        if !opened.flags.writable() {
            return Err(IoError::PermissionDenied("fd opened read-only".into()));
        }
        clock.advance(LIBC_OVERHEAD);
        // Rare, non-critical path: drain then delegate, keeping NVCache's
        // size authoritative.
        self.shared.drained_flush(clock)?;
        {
            let (inner, _lk) = self.shared.hold_inner(&opened);
            let inner_fd = inner.ok_or(IoError::BadFd(fd.0))?;
            self.shared.inner_of(&opened).ftruncate(inner_fd, len, clock)?;
        }
        opened.file.size.store(len, Ordering::Release);
        self.shared.pool.purge_file(opened.file.file_id);
        Ok(())
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(LIBC_OVERHEAD);
        let opened = self.shared.opened_fd(fd)?;
        Ok(Metadata {
            dev: opened.file.dev_ino.0,
            ino: opened.file.dev_ino.1,
            size: opened.file.size.load(Ordering::Acquire),
            is_dir: false,
        })
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(LIBC_OVERHEAD);
        let path = vfs::normalize_path(path);
        let Some((backend, mut meta)) = self.shared.tiers.locate(&self.shared, &path, clock)?
        else {
            return Err(IoError::NotFound(path));
        };
        // The kernel's size may be stale; NVCache's own is authoritative
        // (paper Table III: stat uses NVCache size).
        if let Some(file) = self.shared.file_at(backend, &meta) {
            meta.size = file.size.load(Ordering::Acquire);
        }
        Ok(meta)
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        // Paper Table III passes `unlink` through, and so does this — and
        // then tells the cache that the victim is gone, which no caller can
        // observe: once the name is removed its pending entries have nowhere
        // to be read from, so recovery skips them (the fd slots are
        // invalidated here; a slot the mount could not match is still caught
        // by recovery refusing to recreate a missing file) and, once the
        // last descriptor is closed too, the drain drops them
        // (`Shared::bury_if_dead`). A file that is still open keeps working
        // through its descriptors.
        clock.advance(LIBC_OVERHEAD);
        self.shared.tiers.unlink(&self.shared, &vfs::normalize_path(path), clock)
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(LIBC_OVERHEAD);
        let (from, to) = (vfs::normalize_path(from), vfs::normalize_path(to));
        self.shared.tiers.rename(&self.shared, &from, &to, clock)
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        self.shared.tiers.list_dir(&vfs::normalize_path(dir), clock)
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        // Paper Table III: sync/syncfs are no-ops.
        clock.advance(LIBC_OVERHEAD);
        Ok(())
    }

    fn simulate_power_failure(&self) {
        // The faithful crash path goes through `NvDimm::crash_and_restart` +
        // a `Mount::Recover` mount; this in-place approximation only drops
        // the volatile state below NVCache.
        for backend in self.shared.tiers.backends.iter() {
            backend.simulate_power_failure();
        }
    }

    fn synchronous_durability(&self) -> bool {
        true // by design: the write call returns after psync (Algorithm 1)
    }

    fn durable_linearizability(&self) -> bool {
        true // the psync precedes the lock release (paper §III)
    }
}

/// [`Shared::push`] of a descriptor's own entries as it was before the
/// planner — one inner write per pending entry, in commit order — kept as
/// the reference the planned form is tested against (`replay_tests.rs`).
#[cfg(test)]
mod reference {
    use super::*;

    impl Shared {
        pub fn kernel_flush_file_per_entry(&self, opened: &Arc<OpenedFile>, clock: &ActorClock) {
            for (si, seq, hdr) in self.pending_entries_for(|h| h.fd_slot == opened.slot) {
                let data = self.log.stripes[si].read_data_cached(seq, hdr.len as usize);
                let pages = self.page_descs(&opened.file, hdr.file_off, hdr.len as usize);
                let _guards =
                    self.lock_pages(Class::PageCleanup, &pages, PageDescriptor::lock_cleanup);
                let (inner, _lk) = self.hold_inner(opened);
                let fd = inner.expect("an open descriptor");
                let _ = self.inner_of(opened).pwrite(fd, &data, hdr.file_off, clock);
            }
        }
    }
}

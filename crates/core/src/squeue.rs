//! The multi-queue submission front-end: per-core SQ/CQ pairs with
//! doorbell-batched stripe reservation.
//!
//! A [`QueuePair`] is one simulated core's private lane into the NVMM log.
//! [`submit_pwrite`](QueuePair::submit_pwrite) only copies the payload into
//! the user-space submission ring (no syscall, no fence);
//! [`ring_doorbell`](QueuePair::ring_doorbell) then pays the fixed costs —
//! one libc crossing and, per routed stripe, **one** `pfence`/`psync` pair —
//! for the whole batch. The stripe grants each doorbell a contiguous
//! *reservation window* ([`Log::reserve`](crate::log::Log)) under its
//! `alloc_lock` only; fills and commits happen outside any stripe-wide
//! mutex, so queues interleave freely and only serialize on the short
//! window hand-out. Each window is committed by the write path's one body,
//! `Shared::commit_writes` — the synchronous `pwrite` is the same call with
//! a batch of one.
//!
//! # Ordering and durability contract
//!
//! * A submitted write is **not durable** (and not acknowledged) until its
//!   doorbell returns; a crash mid-doorbell may lose writes whose
//!   completion was never observed, exactly like a torn `io_uring`
//!   submission. Each write is still its own commit group, so recovery
//!   never applies half of one.
//! * Per-page write order follows submission order: a doorbell
//!   conflict-splits its batch so that two writes touching the same page
//!   through *different* stripes never commit out of submission order
//!   (the propagation queues replay per page in ascending global sequence;
//!   see `lib.rs` invariant 3).
//! * Page locks are taken in globally sorted `(file_id, page_no)` order —
//!   the same ascending order the synchronous write path uses within a
//!   file — so doorbells, synchronous writers and the dirty-miss path
//!   cannot deadlock.
//! * Heat and the write counters of
//!   [`NvCacheStats`](crate::NvCacheStats) are counted where each window
//!   commits, as for a synchronous write; the pair's own
//!   [`QueueStats`](crate::QueueStats) as each call happens.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use simclock::{ActorClock, SimTime};
use vfs::{Fd, IoError, IoResult};

use crate::cache::{NvCache, PageGuard, Shared, WriteOp};
use crate::config::{copy_bandwidth, LIBC_OVERHEAD};
use crate::files::InFlight;
use crate::lockcheck::Class;
use crate::log::Stripe;
use crate::pagedesc::{KeyedPage, PageDescriptor, PageSlot};
use crate::stats::{QueueStats, SQ_BATCH_BUCKETS};

/// A completion queue entry: the asynchronous result of one submitted
/// operation, reaped with [`QueuePair::reap`].
#[derive(Debug)]
pub struct Completion {
    /// The token [`QueuePair::submit_pwrite`]/[`QueuePair::submit_flush`]
    /// returned for this operation.
    pub user_data: u64,
    /// What the equivalent synchronous call would have returned (bytes
    /// written for a write, `0` for a flush).
    pub result: IoResult<usize>,
    /// Virtual instant the operation became durable (write) or ordered
    /// (flush) — always within the doorbell that carried it.
    pub completed_at: SimTime,
}

/// A queued write, routed at submission (routing is a pure function of
/// the file and offset, so the doorbell need not repeat it).
struct QueuedWrite {
    user_data: u64,
    opened: InFlight,
    data: Box<[u8]>,
    off: u64,
    /// Index of the routed stripe.
    stripe: usize,
    /// Log entries the write takes.
    k: u64,
}

/// A submission queue entry. Carries the resolved descriptor's
/// [`InFlight`] guard until the entry completes, is discarded unrung, or is
/// unwound past by a panicking doorbell — so `close` waits for it exactly
/// as it waits for a synchronous call, and never for longer.
enum Sqe {
    Write(QueuedWrite),
    Flush { user_data: u64, opened: InFlight },
}

/// Histogram bucket for a doorbell batch of `n` entries: 1, 2–3, 4–7, …,
/// 64+ (one bucket per power-of-two band, saturating at the last).
fn batch_bucket(n: usize) -> usize {
    debug_assert!(n >= 1);
    (usize::BITS - n.leading_zeros() - 1).min(SQ_BATCH_BUCKETS as u32 - 1) as usize
}

/// One submission/completion queue pair of the multi-queue front-end —
/// claimed from a mount with [`NvCache::queue_pair`], driven by a single
/// submitter (the type is deliberately `!Sync`-shaped: every method takes
/// `&mut self`).
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
/// let cfg = NvCacheConfig::tiny().with_sq_pairs(1);
/// let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
/// let cache = NvCache::builder(NvRegion::whole(dimm))
///     .backend(Arc::new(MemFs::new()))
///     .config(cfg)
///     .mount(&clock)?;
/// let fd = cache.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
/// let mut qp = cache.queue_pair(0, &clock)?;
/// let ud = qp.submit_pwrite(fd, b"queued", 0, &clock)?;
/// qp.ring_doorbell(&clock); // one fence pair for the whole batch
/// let done = qp.reap(&clock);
/// assert_eq!(done[0].user_data, ud);
/// assert_eq!(*done[0].result.as_ref().unwrap(), 6);
/// drop(qp);
/// cache.close(fd, &clock)?;
/// cache.shutdown(&clock);
/// # Ok(())
/// # }
/// ```
pub struct QueuePair {
    shared: Arc<Shared>,
    index: usize,
    next_user_data: u64,
    sq: Vec<Sqe>,
    cq: VecDeque<Completion>,
}

impl QueuePair {
    pub(crate) fn claim(cache: &NvCache, index: usize, clock: &ActorClock) -> IoResult<QueuePair> {
        let shared = Arc::clone(&cache.shared);
        clock.advance(LIBC_OVERHEAD); // queue setup is a syscall
        if index >= shared.cfg.sq_pairs {
            return Err(IoError::InvalidArgument(format!(
                "queue pair {index} out of range: the mount has {} \
                 (NvCacheConfig::sq_pairs)",
                shared.cfg.sq_pairs
            )));
        }
        if shared.sq_taken[index].swap(true, Ordering::AcqRel) {
            return Err(IoError::Busy(format!("queue pair {index} is already claimed")));
        }
        Ok(QueuePair { shared, index, next_user_data: 0, sq: Vec::new(), cq: VecDeque::new() })
    }

    /// This pair's counters in the mount's [`NvCacheStats`](crate::NvCacheStats).
    fn counters(&self) -> &QueueStats {
        &self.shared.stats.per_queue[self.index]
    }

    /// The pair's index (the `index` passed to [`NvCache::queue_pair`]).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Submitted-but-unrung entries in the submission queue.
    pub fn sq_len(&self) -> usize {
        self.sq.len()
    }

    /// Queues a positional write. Costs only the memcpy into the
    /// submission ring (at [`COPY_GIB_PER_SEC`](crate::COPY_GIB_PER_SEC)) — no libc
    /// crossing, no fence; durability is deferred to the next
    /// [`ring_doorbell`](QueuePair::ring_doorbell). Returns the
    /// `user_data` token that identifies the eventual [`Completion`].
    ///
    /// # Errors
    ///
    /// The synchronous path's *submission-time* errors are reported here
    /// and nothing is queued: [`IoError::BadFd`],
    /// [`IoError::PermissionDenied`] (read-only descriptor),
    /// [`IoError::InvalidArgument`] (write larger than a log stripe).
    pub fn submit_pwrite(
        &mut self,
        fd: Fd,
        data: &[u8],
        off: u64,
        clock: &ActorClock,
    ) -> IoResult<u64> {
        let opened = self.shared.enter(fd)?;
        if !opened.flags.writable() {
            return Err(IoError::PermissionDenied("fd opened read-only".into()));
        }
        let (stripe, k) = self.shared.route_write(&opened.file, off, data.len())?;
        let stripe = stripe.index;
        let user_data = self.next_user_data;
        self.next_user_data += 1;
        self.counters().sq_submitted.fetch_add(1, Ordering::Relaxed);
        if data.is_empty() {
            // Nothing to log: complete immediately (the synchronous path's
            // early return).
            self.cq
                .push_back(Completion { user_data, result: Ok(0), completed_at: clock.now() });
            return Ok(user_data);
        }
        clock.advance(copy_bandwidth().time_for(data.len() as u64));
        let data = data.into();
        self.sq
            .push(Sqe::Write(QueuedWrite { user_data, opened, data, off, stripe, k }));
        Ok(user_data)
    }

    /// Queues a flush barrier: its [`Completion`] is delivered once every
    /// write rung by the same doorbell is durable. Costs nothing at
    /// submission — NVCache's `fsync` is already a no-op (paper Table
    /// III), the barrier only orders completions.
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`] if the descriptor is not open.
    pub fn submit_flush(&mut self, fd: Fd) -> IoResult<u64> {
        let opened = self.shared.enter(fd)?;
        let user_data = self.next_user_data;
        self.next_user_data += 1;
        self.counters().sq_submitted.fetch_add(1, Ordering::Relaxed);
        self.sq.push(Sqe::Flush { user_data, opened });
        Ok(user_data)
    }

    /// Rings the doorbell: pays one libc crossing for the batch, then
    /// commits every queued write — grouped by routed stripe, one
    /// reservation window and **one** fence pair per stripe group — and
    /// moves their completions to the CQ. Returns the number of entries
    /// consumed (`0` for an empty ring, which costs nothing).
    pub fn ring_doorbell(&mut self, clock: &ActorClock) -> usize {
        if self.sq.is_empty() {
            return 0;
        }
        clock.advance(LIBC_OVERHEAD);
        let batch = std::mem::take(&mut self.sq);
        let consumed = batch.len();
        let counters = self.counters();
        counters.sq_doorbells.fetch_add(1, Ordering::Relaxed);
        counters.sq_batch_hist[batch_bucket(consumed)].fetch_add(1, Ordering::Relaxed);

        // Conflict split: within one sub-batch, stripe groups commit
        // sequentially, so two same-page writes routed to *different*
        // stripes could publish global sequence numbers out of submission
        // order. Cut the sub-batch whenever a write touches a page an
        // earlier write reached through another stripe; pages revisited
        // through the *same* stripe stay ordered by the window itself.
        let shared = Arc::clone(&self.shared);
        let mut flushes = Vec::new();
        let mut sub: Vec<QueuedWrite> = Vec::new();
        let mut touched: HashMap<(u64, u64), usize> = HashMap::new();
        for sqe in batch {
            let w = match sqe {
                Sqe::Write(w) => w,
                Sqe::Flush { user_data, opened } => {
                    flushes.push((user_data, opened));
                    continue;
                }
            };
            let file_id = w.opened.file.file_id;
            let pages = shared.pages_of(w.off, w.data.len());
            let conflict = pages
                .clone()
                .any(|p| touched.get(&(file_id, p)).is_some_and(|&s| s != w.stripe));
            if conflict {
                self.run_sub_batch(std::mem::take(&mut sub), clock);
                touched.clear();
            }
            for p in pages {
                touched.insert((file_id, p), w.stripe);
            }
            sub.push(w);
        }
        self.run_sub_batch(sub, clock);

        // Flush barriers complete once the whole doorbell is durable.
        let now = clock.now();
        for (user_data, _opened) in flushes {
            self.cq.push_back(Completion { user_data, result: Ok(0), completed_at: now });
        }
        consumed
    }

    /// Commits one conflict-free sub-batch: lock the union of its pages in
    /// globally sorted `(file_id, page_no)` order — consistent with the
    /// ascending per-file order of the synchronous write path — then, per
    /// stripe group, carve reservation windows and commit each through the
    /// write core.
    fn run_sub_batch(&mut self, sub: Vec<QueuedWrite>, clock: &ActorClock) {
        if sub.is_empty() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let mut pages: Vec<KeyedPage> = sub
            .iter()
            .flat_map(|w| shared.page_descs(&w.opened.file, w.off, w.data.len()))
            .collect();
        pages.sort_by_key(|&(key, _)| key);
        pages.dedup_by_key(|&mut (key, _)| key);
        let mut guards = shared.lock_pages(Class::PageAtomic, &pages, PageDescriptor::lock);

        // Group by routed stripe, first-appearance order; submission order
        // within a group (so each stripe's window replays the submitter's
        // order).
        let mut groups: Vec<(usize, VecDeque<QueuedWrite>)> = Vec::new();
        for w in sub {
            match groups.iter_mut().find(|(i, _)| *i == w.stripe) {
                Some((_, group)) => group.push_back(w),
                None => groups.push((w.stripe, VecDeque::from([w]))),
            }
        }

        for (sidx, mut group) in groups {
            let stripe = &shared.log.stripes[sidx];
            while !group.is_empty() {
                // Carve the next reservation window at write boundaries: a
                // single write always fits the stripe (checked at
                // submission), so every window takes at least one.
                let (mut n, mut window_k) = (0, 0);
                while group.get(n).is_some_and(|w| window_k + w.k <= stripe.capacity()) {
                    window_k += group[n].k;
                    n += 1;
                }
                let chunk: Vec<QueuedWrite> = group.drain(..n).collect();
                self.commit_chunk(stripe, chunk, &pages, &mut guards, clock);
            }
        }
    }

    /// Commits one reservation window through the write core and completes
    /// every write of the window in submission order — with the stripe's
    /// error if it refused the window (poisoned; so will it refuse the
    /// group's later windows).
    fn commit_chunk(
        &mut self,
        stripe: &Stripe,
        chunk: Vec<QueuedWrite>,
        pages: &[KeyedPage],
        guards: &mut [PageGuard<'_, PageSlot>],
        clock: &ActorClock,
    ) {
        let writes: Vec<WriteOp<'_>> = chunk
            .iter()
            .map(|w| WriteOp { opened: &w.opened, data: &w.data, off: w.off })
            .collect();
        let outcome = self.shared.commit_writes(stripe, &writes, pages, guards, clock);
        let completed_at = *outcome.as_ref().unwrap_or(&clock.now());
        for w in chunk {
            let result = match &outcome {
                Ok(_) => Ok(w.data.len()),
                Err(e) => Err(e.clone()),
            };
            self.cq.push_back(Completion { user_data: w.user_data, result, completed_at });
        }
    }

    /// Drains the completion queue, counting how long its entries waited.
    pub fn reap(&mut self, clock: &ActorClock) -> Vec<Completion> {
        let now = clock.now();
        let lag = self.cq.iter().map(|c| now.saturating_sub(c.completed_at).as_nanos()).sum();
        self.counters().cq_reap_lag.fetch_add(lag, Ordering::Relaxed);
        self.cq.drain(..).collect()
    }
}

impl Drop for QueuePair {
    fn drop(&mut self) {
        // Unrung submissions were never acknowledged: discarding them (with
        // the rest of the pair) is within the durability contract.
        self.shared.sq_taken[self.index].store(false, Ordering::Release);
    }
}

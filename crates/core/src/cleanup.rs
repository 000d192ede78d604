//! The per-stripe cleanup workers (paper §III "Cleanup thread and
//! batching"): each worker consumes committed entries from its stripe's
//! tail in batches and propagates them to the inner file systems through
//! io_uring-style submission rings ([`fiosim::IoRing`]) — one ring per
//! backend of a tiered mount, so each tier gets its own
//! [`queue_depth`](crate::NvCacheConfig::queue_depth)-deep overlap window
//! before the batch's one durability barrier per backend. The ring overlaps
//! *calls*; where the device's share of a batch is paid — at the ring, or in
//! the barrier's writeback — is in [`run_cleanup`]'s phases 1 and 2. An
//! entry whose file's last writable `close` already pushed it into the
//! kernel is consumed without a write, and still gets its batch's barrier.
//! Inner-file-system errors poison the stripe (see
//! [`crate::NvCache::poisoned_stripes`]) instead of panicking.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use fiosim::IoRing;
use simclock::SimTime;

use crate::cache::{KeyedPage, Shared};
use crate::files::OpenedFile;
use crate::layout::CommitWord;
use crate::lockcheck::Class;
use crate::pagedesc::PageDescriptor;

/// Body of one cleanup worker (paper §III "Cleanup thread and batching",
/// one worker per log stripe).
///
/// Consumes committed entries from its stripe's tail in batches. Each
/// batch runs in three phases:
///
/// 1. **Submit** — every entry's `pwrite` against the inner file system is
///    pushed onto the worker's submission ring. The write's side effects
///    land immediately (execution order is exactly the synchronous drain's
///    order, so page bookkeeping and cross-stripe handoff are unchanged),
///    but its *latency* is charged to a per-operation clock: with
///    `queue_depth = N`, up to `N` calls overlap instead of each waiting
///    for the previous completion. That is device time only when the inner
///    file is `O_DIRECT`; a buffered `pwrite` is a copy into the inner page
///    cache, and the device's share of the batch is paid in phase 2. An
///    entry whose file is *dead* — unlinked, every descriptor closed, its
///    inner descriptor released ([`Shared::release_dead`]) — is consumed
///    like any other (handoff, page locks, propagation pops) without the
///    write: [`entries_elided`](crate::NvCacheStats::entries_elided). An
///    entry below its file's pushed-below mark — the last writable `close`
///    pushed it into the kernel ([`Shared::push`]) — skips the write too,
///    but its file counts as touched, so phase 2's barrier makes the pushed
///    bytes durable:
///    [`entries_in_kernel`](crate::NvCacheStats::entries_in_kernel).
/// 2. **Reap** — the worker joins all completions, then submits **one
///    durability barrier per backend** the batch wrote to (tiers overlap,
///    each on its own ring) and reaps those too: `fsync` of the file when
///    the batch touched exactly one on that backend, one `syncfs`
///    ([`vfs::FileSystem::sync`]) when it touched several — the inner file
///    system's journal commit and device flush are paid per batch, not per
///    file (an engine that creates a journal per transaction touches dozens
///    of files per batch). This is the batching knob of paper Fig. 6; the
///    form is chosen from the batch's own content, so a single-file drain
///    keeps the synchronous drain's timeline. For buffered inner files the
///    barrier is where the batch meets the device: its writeback issues the
///    dirty pages as a queued batch bounded by the device's channels
///    ([`blockdev::BlockDevice::queue_depth`]), not by `queue_depth` here —
///    one page after the other on a one-channel device.
/// 3. **Free** — only after the whole batch's completions (writes *and*
///    barriers) have landed does the worker clear commit flags, persist the
///    stripe's tail index, and publish the space to writers through the
///    volatile tail — once no push pins the tail
///    ([`Log::free`](crate::log::Log::free)). A crash anywhere before
///    phase 3 therefore leaves the persistent tail untouched and recovery
///    replays the batch — the same crash-consistency contract as the
///    synchronous drain.
///
/// With `queue_depth = 1` the ring degenerates to back-to-back calls on one
/// timeline: the drain is behaviorally *and* temporally identical to the
/// paper's synchronous cleanup (the `qd1` oracle tests pin this down).
///
/// Workers additionally synchronize *per page* through the descriptors'
/// propagation queues: an entry is only written to the inner file system
/// once its global sequence number reaches the front of every touched
/// page's queue. Because global sequences are assigned in ring order within
/// each stripe, a worker only ever waits for *smaller* sequence numbers
/// sitting at other stripes' tails — the waits form no cycle and unrelated
/// pages never serialize. On one stripe the entry at the tail is always at
/// the front, once its writer has queued it.
///
/// An inner-file-system error (failed `pwrite` or barrier) does **not**
/// abort the worker thread with a panic: the error is counted in
/// [`inner_io_errors`](crate::NvCacheStats::inner_io_errors), the stripe is
/// poisoned — releasing blocked writers and flush barriers with an error
/// instead of a hang — and the batch's entries stay in NVMM for recovery.
pub(crate) fn run_cleanup(shared: Arc<Shared>, stripe_idx: usize) {
    let clock = Arc::clone(&shared.cleanup_clocks[stripe_idx]);
    let stripe = &shared.log.stripes[stripe_idx];
    let shard_stats = &shared.stats.per_shard[stripe_idx];
    // One submission ring per inner backend — the per-tier queues of a
    // tiered mount. Entries routed to different tiers overlap freely (each
    // ring has its own `queue_depth` window); a single-backend mount
    // degenerates to exactly the old one-ring drain.
    let mut rings: Vec<IoRing> = shared
        .tiers
        .backends
        .iter()
        .map(|backend| IoRing::new(Arc::clone(backend), shared.cfg.queue_depth))
        .collect();
    let mut touched = vec![Touched::Nothing; rings.len()];
    loop {
        if shared.kill.load(Ordering::Acquire) {
            // Crash simulation: leave everything in the log for recovery.
            return;
        }
        shared.drain_zombies(&clock);
        let tail = stripe.vtail.load(Ordering::Acquire);
        let head = stripe.head.load(Ordering::Acquire);
        let pending = head - tail;
        let stop = shared.stop.load(Ordering::Acquire);
        let flush_needed = stripe.flush_target.load(Ordering::Acquire) > tail;
        let space_needed = stripe.space_waiters.load(Ordering::Acquire) > 0;
        // A peer worker is blocked in the per-page handoff: the sequence
        // number it needs may sit in *this* stripe, below the batch
        // threshold — run regardless of `batch_min` until the pressure
        // clears.
        let handoff_pressure = shared.log.handoff_waiters.load(Ordering::Acquire) > 0;

        let should_run = pending > 0
            && (pending >= shared.cfg.batch_min as u64
                || flush_needed
                || space_needed
                || handoff_pressure
                || stop);
        // Whatever died before this batch was asked for is released before
        // the batch looks at its entries.
        shared.release_dead(&clock);
        if !should_run {
            if stop && pending == 0 {
                shared.drain_zombies(&clock);
                return;
            }
            stripe.wait_for_work();
            continue;
        }

        let budget = (shared.cfg.batch_max as u64).min(pending);
        let mut consumed = 0u64;
        touched.fill(Touched::Nothing);
        let mut batch_failed = false;

        // Phase 1: submit the batch's propagation writes onto the ring.
        while consumed < budget {
            if shared.kill.load(Ordering::Acquire) {
                return;
            }
            let seq = tail + consumed;
            // Wait for the in-order commit of the entry at the tail (the
            // paper's cleanup thread does exactly this). With the
            // multi-queue front-end a whole *reservation window* can sit
            // here uncommitted while its doorbell is still filling, so the
            // wait spins only briefly before parking on the stripe's work
            // condvar — `commit_batch` rings it on every commit, single or
            // doorbell-batched.
            let mut spins = 0u32;
            let header = loop {
                let h = stripe.read_header(seq);
                if h.commit != CommitWord::Free {
                    break h;
                }
                if shared.kill.load(Ordering::Acquire) {
                    return;
                }
                if shared.stop.load(Ordering::Acquire) && consumed > 0 {
                    // A producer died mid-allocation during shutdown; stop at
                    // the gap and free what we have.
                    break h;
                }
                spins += 1;
                if spins < 128 {
                    std::thread::yield_now();
                } else {
                    // 1 ms-timeout park, so a lost wakeup only costs a
                    // beat, never a hang.
                    stripe.wait_for_work();
                }
            };
            if header.commit == CommitWord::Free {
                break;
            }
            // Stay causal in virtual time: a batch cannot start before its
            // entries were committed.
            let slot = (seq % stripe.capacity()) as usize;
            clock.advance_to(SimTime::from_nanos(
                stripe.commit_stamps[slot].load(Ordering::Acquire),
            ));

            let group_len = match header.commit {
                CommitWord::Leader => header.group_len.max(1) as u64,
                // A member at the tail would mean a torn group; the
                // invariants (groups consumed atomically, contiguously in
                // one stripe) forbid it.
                CommitWord::Member(_) => unreachable!("group member at the tail"),
                CommitWord::Free => unreachable!("checked above"),
            };

            for i in 0..group_len {
                let e = stripe.read_header(seq + i);
                let opened = shared
                    .opened_by_slot(e.fd_slot)
                    .expect("entry references a closed fd: close must drain first");
                let pages = shared.page_descs(&opened.file, e.file_off, e.len as usize);
                if !wait_for_handoff(&shared, stripe, &pages, e.seq) {
                    if shared.kill.load(Ordering::Acquire) {
                        return; // killed while waiting
                    }
                    // The awaited sequence number is stuck in a poisoned
                    // stripe (the handoff's grace period passed without
                    // progress): per-page ordering can no longer be
                    // maintained, so this stripe degrades too (writers get
                    // errors, not hangs; recovery replays the rest).
                    batch_failed = true;
                    break;
                }
                // Lock out the dirty-miss procedure for the affected pages
                // while the kernel copy is being updated (paper §II-D). The
                // write itself executes here (submission order is execution
                // order); only its completion time is deferred to the reap.
                let guards =
                    shared.lock_pages(Class::PageCleanup, &pages, PageDescriptor::lock_cleanup);
                let backend = opened.backend as usize;
                // The inner descriptor stays ours across the submit. A
                // released one means the file is dead: the entry is consumed
                // like any other, minus the write nobody could read back.
                let (inner, inner_order) = shared.hold_inner(&opened);
                if let Some(fd) = *inner {
                    // Read under the cleanup locks, which a push holds from
                    // before it sets the mark until it has written the page.
                    let pushed = e.seq < opened.file.pushed_below.load(Ordering::Acquire);
                    #[cfg(test)]
                    let pushed = pushed && !shared.rewrite_pushed.load(Ordering::Relaxed);
                    if pushed {
                        // `close` pushed it: the kernel's copy is current,
                        // and this batch's barrier makes it durable.
                        shared.stats.entries_in_kernel.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Entries at the tail were written recently by the
                        // application; their lines are still in the CPU
                        // caches, so the read is not charged against the
                        // NVMM media (which would otherwise serialize the
                        // cleanup worker's far-future timeline against
                        // in-flight application flushes).
                        let data = stripe.read_data_cached(seq + i, e.len as usize);
                        let cqe =
                            rings[backend].submit_pwrite(fd, &data, e.file_off, e.seq, clock.now());
                        shard_stats.uring_submitted.fetch_add(1, Ordering::Relaxed);
                        if cqe.result.is_err() {
                            batch_failed = true;
                            break;
                        }
                    }
                    shared.stats.per_backend_propagated[backend].fetch_add(1, Ordering::Relaxed);
                    touched[backend] = match std::mem::take(&mut touched[backend]) {
                        Touched::Nothing => Touched::One(Arc::clone(&opened)),
                        Touched::One(one) if Arc::ptr_eq(&one, &opened) => Touched::One(one),
                        _ => Touched::Several,
                    };
                } else {
                    shared.stats.entries_elided.fetch_add(1, Ordering::Relaxed);
                    shard_stats.entries_elided.fetch_add(1, Ordering::Relaxed);
                }
                drop((inner, inner_order));
                for (_, d) in &pages {
                    d.pop_propagation(e.seq);
                }
                drop(guards);
                shared.stats.entries_propagated.fetch_add(1, Ordering::Relaxed);
                shard_stats.entries_propagated.fetch_add(1, Ordering::Relaxed);
            }
            if batch_failed {
                break;
            }
            consumed += group_len;
        }
        #[cfg(test)]
        crate::scoped_tests::before_barrier(&shared, stripe_idx);

        // Phase 2: reap the writes from every tier's ring (the clock joins
        // the latest completion across all backends), then submit one
        // barrier per backend — the tiers' barriers overlap, each on its
        // own ring.
        let write_cqes: Vec<_> = rings.iter_mut().flat_map(|r| r.wait_all(&clock)).collect();
        shard_stats
            .uring_completed
            .fetch_add(write_cqes.len() as u64, Ordering::Relaxed);
        let peak = rings.iter().map(IoRing::peak_in_flight).max().unwrap_or(0);
        shard_stats.uring_inflight_peak.fetch_max(peak as u64, Ordering::Relaxed);
        let write_errors = write_cqes.iter().filter(|c| c.result.is_err()).count() as u64;
        if batch_failed || write_errors > 0 {
            // `write_errors` may be 0 when the batch failed because a *peer*
            // stripe poisoned itself mid-handoff: this stripe still degrades
            // (cascade poison) but records no error of its own.
            poison(&shared, stripe_idx, write_errors);
            return;
        }
        if consumed == 0 {
            continue;
        }

        // One barrier per batch per backend: the batching knob of paper
        // Fig. 6 (each stripe applies the policy independently, each tier on
        // its own ring). The files that died during the batch go first, so
        // that a `syncfs` finds none of their pages. A descriptor cannot
        // finish its close before the tail passes this batch, so `One`'s is
        // released only if its file died meanwhile — which leaves nothing
        // to make durable; an error here would mean the drain ordering
        // broke — poison, as above.
        shared.release_dead(&clock);
        for (ring, touched) in rings.iter_mut().zip(&touched) {
            match touched {
                Touched::Nothing => continue,
                Touched::One(opened) => {
                    let (inner, _lk) = shared.hold_inner(opened);
                    let Some(fd) = *inner else { continue };
                    ring.submit_fsync(fd, 0, clock.now())
                }
                Touched::Several => ring.submit_sync(0, clock.now()),
            };
            shard_stats.uring_submitted.fetch_add(1, Ordering::Relaxed);
        }
        let mut failed = 0;
        for (ring, touched) in rings.iter_mut().zip(&touched) {
            // At most one completion: this backend's barrier.
            for cqe in ring.wait_all(&clock) {
                shard_stats.uring_completed.fetch_add(1, Ordering::Relaxed);
                if cqe.result.is_err() {
                    failed += 1;
                    continue;
                }
                // Only *successful* barriers count towards the Fig. 6
                // amortization stats — a failed batch is not a durable drain.
                shared.stats.cleanup_fsyncs.fetch_add(1, Ordering::Relaxed);
                shard_stats.cleanup_fsyncs.fetch_add(1, Ordering::Relaxed);
                if matches!(touched, Touched::Several) {
                    shared.stats.cleanup_syncfs.fetch_add(1, Ordering::Relaxed);
                    shard_stats.cleanup_syncfs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if failed > 0 {
            poison(&shared, stripe_idx, failed);
            return;
        }

        // Phase 3: the whole batch (writes and barriers) has landed — only now
        // may the tail advance past it. Counted first: whoever the new tail
        // releases from a flush barrier finds the batch in the stats.
        shared.stats.cleanup_batches.fetch_add(1, Ordering::Relaxed);
        shard_stats.cleanup_batches.fetch_add(1, Ordering::Relaxed);
        shared.log.free(stripe, tail, consumed, &clock);
        shared.drain_zombies(&clock);
    }
}

/// What a batch wrote to on one backend, which decides that backend's
/// durability barrier (a descriptor is only meaningful on its own backend).
/// Entries dropped because their file was dead wrote to nothing.
///
/// `One` is not there for speed — one `syncfs` for every batch measures
/// the same on the benchmark. `fsync(fd)` keeps a single-file drain on the
/// synchronous drain's timeline to the nanosecond, which the qd-1
/// serial-equivalence oracles and the bit-identical benchmark workloads
/// rely on; should those be relaxed, the drain collapses to `syncfs` alone.
#[derive(Clone, Default)]
enum Touched {
    #[default]
    Nothing,
    One(Arc<OpenedFile>),
    Several,
}

/// Records `errors` inner-file-system failures against stripe `stripe_idx`
/// and poisons it: the stripe's entries stay in NVMM for recovery, blocked
/// writers and flush barriers are released (they observe the poisoned state
/// instead of waiting on a worker that is about to exit), and the worker
/// returns cleanly.
fn poison(shared: &Shared, stripe_idx: usize, errors: u64) {
    shared.stats.inner_io_errors.fetch_add(errors, Ordering::Relaxed);
    shared.stats.per_shard[stripe_idx]
        .inner_io_errors
        .fetch_add(errors, Ordering::Relaxed);
    shared.log.stripes[stripe_idx].poison();
    shared.log.notify_work_all();
}

/// Cross-stripe per-page ordering: blocks until `gseq` is the oldest
/// pending entry for every page in `pages`. Only entries with smaller
/// global sequence numbers can be ahead, and those sit at (or drain
/// towards) other stripes' tails; registering as a handoff waiter makes
/// those stripes run batches even below `batch_min`, so the wait always
/// terminates. The override distorts the batching policy only while a
/// waiter exists — which requires page-straddling writes whose entries
/// split across stripes; entry-aligned workloads (e.g. the Fig. 6 sweep)
/// never trigger it. Returns `false` if the cache was killed while
/// waiting, or if the handoff can provably never complete because a
/// sequence number it is waiting on is pending inside a *poisoned* stripe
/// (whose worker is gone). A poisoned stripe elsewhere in the log does not
/// degrade this one: after a grace period of parked waits the blocking
/// sequence numbers are located by scanning the poisoned stripes' pending
/// windows, and the wait continues whenever they sit in healthy stripes.
fn wait_for_handoff(
    shared: &Shared,
    stripe: &crate::log::Stripe,
    pages: &[KeyedPage],
    gseq: u64,
) -> bool {
    /// Parked (condvar, ~1 ms each) waits between scans of the poisoned
    /// stripes' windows once a poisoned stripe has been observed.
    const POISON_GRACE_PARKS: u32 = 64;
    let at_front = || {
        pages
            .iter()
            .all(|(_, d)| matches!(d.propagation_front(), Some(front) if front >= gseq))
    };
    if at_front() {
        return true; // fast path: already at every front
    }
    shared.log.handoff_waiters.fetch_add(1, Ordering::AcqRel);
    shared.log.notify_work_all();
    let mut spins = 0u32;
    let mut poison_parks = 0u32;
    let survived = loop {
        if at_front() {
            break true;
        }
        if shared.kill.load(Ordering::Acquire) {
            break false;
        }
        if poison_parks > POISON_GRACE_PARKS {
            poison_parks = 0;
            if blocked_by_poisoned_stripe(shared, pages, gseq) {
                break false;
            }
            // The blocking entries sit in healthy stripes — their workers
            // will drain them (handoff pressure keeps them running); the
            // peer's poison is not this stripe's problem.
        }
        // Brief spin for the common sub-microsecond handoff, then park on
        // the stripe's work condvar (1 ms timeout, like wait_for_work)
        // instead of burning a core while a peer finishes its batch.
        spins += 1;
        if spins < 128 {
            std::thread::yield_now();
        } else {
            stripe.wait_for_work();
            if shared.log.any_poisoned() {
                poison_parks += 1;
            }
        }
    };
    shared.log.handoff_waiters.fetch_sub(1, Ordering::AcqRel);
    survived
}

/// Whether any sequence number currently blocking the handoff (a
/// propagation-queue front smaller than `gseq`) is pending inside a
/// poisoned stripe's `[tail, head)` window — in which case it will never
/// be popped and the waiter must give up. Pending entries always live in
/// some stripe's window until freed, so a miss here means the blocker is
/// in a healthy stripe (or was popped concurrently — the caller's
/// `at_front` re-check picks that up). Only runs on the degraded path.
fn blocked_by_poisoned_stripe(shared: &Shared, pages: &[KeyedPage], gseq: u64) -> bool {
    let blockers: Vec<u64> = pages
        .iter()
        .filter_map(|(_, d)| d.propagation_front())
        .filter(|&front| front < gseq)
        .collect();
    if blockers.is_empty() {
        return false;
    }
    for poisoned in shared.log.stripes.iter().filter(|s| s.is_poisoned()) {
        let tail = poisoned.vtail.load(Ordering::Acquire);
        let head = poisoned.head.load(Ordering::Acquire);
        for seq in tail..head {
            let h = poisoned.read_header(seq);
            if h.commit != CommitWord::Free && blockers.contains(&h.seq) {
                return true;
            }
        }
    }
    false
}

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

use crate::cache::Shared;
use crate::files::{FileState, OpenedFile};
use crate::layout::CommitWord;
use crate::lockcheck::Class;
use crate::log::{Log, Stripe};
use crate::pagedesc::{KeyedPage, PageDescriptor, Queued};

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
///    write: [`entries_elided`](crate::NvCacheStatsSnapshot::entries_elided). An
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
///    volatile tail ([`Stripe::free_range`](crate::log::Stripe::free_range)).
///    A crash anywhere before phase 3 therefore leaves the persistent tail
///    untouched and recovery replays the batch — the same crash-consistency
///    contract as the synchronous drain. Every freed entry was popped from
///    its pages' propagation queues under their cleanup locks, so a push
///    holding those locks never lists it.
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
/// [`inner_io_errors`](crate::NvCacheStatsSnapshot::inner_io_errors), the stripe is
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
        // Read before any condition below: whatever changes one of them
        // signals the stripe afterwards, so the wait at the end returns.
        let seen = stripe.signal.epoch();
        if shared.kill.load(Ordering::Acquire) {
            // Crash simulation: leave everything in the log for recovery.
            return;
        }
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
        // The pending entries that make a batch worth running.
        let urgent = flush_needed || space_needed || handoff_pressure || stop;
        let run_at = if urgent { 1 } else { (shared.cfg.batch_min as u64).max(1) };
        // Whatever died before this batch was asked for is released before
        // the batch looks at its entries.
        shared.release_dead(&clock);
        if pending < run_at {
            if stop && pending == 0 {
                shared.drain_zombies(&clock);
                return;
            }
            shard_stats.idle_wakeups.fetch_add(1, Ordering::Relaxed);
            // Every condition above but the head's is changed with a full
            // wakeup; a commit wakes this sleep only once the head has
            // reached `run_at` pending entries.
            stripe.signal.wait_idle(seen, &stripe.head, tail + run_at);
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
            // here uncommitted while its doorbell is still filling; the
            // writer signals the stripe once its window is committed and
            // queued, single or doorbell-batched.
            let header = loop {
                let seen = stripe.signal.epoch();
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
                stripe.signal.wait(seen);
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
                    // stripe: per-page ordering can no longer be maintained,
                    // so this stripe degrades too (writers get errors, not
                    // hangs; recovery replays the rest).
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
                    shard_stats.entries_elided.fetch_add(1, Ordering::Relaxed);
                }
                drop((inner, inner_order));
                let popped = Queued { gseq: e.seq, stripe: stripe_idx, seq: seq + i };
                pop_entry(&shared.log, &opened.file, &pages, popped);
                drop(guards);
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
                shard_stats.cleanup_fsyncs.fetch_add(1, Ordering::Relaxed);
                if matches!(touched, Touched::Several) {
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
        shard_stats.cleanup_batches.fetch_add(1, Ordering::Relaxed);
        stripe.free_range(tail, consumed, &clock);
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
    let shard = &shared.stats.per_shard[stripe_idx];
    shard.inner_io_errors.fetch_add(errors, Ordering::Relaxed);
    shared.log.stripes[stripe_idx].poison();
    shared.log.notify_all();
}

/// Pops `entry` from the front of every page in `pages` of `file` (under
/// their cleanup locks) once it is consumed — a page left with no entry at
/// or above the file's pushed-below mark leaves its
/// [`unpushed`](FileState::unpushed) set — and signals the entry's stripe
/// while a handoff waits: a handoff blocked on one of these fronts waits on
/// the signal of the front's stripe.
pub(crate) fn pop_entry(log: &Log, file: &FileState, pages: &[KeyedPage], entry: Queued) {
    for (_, d) in pages {
        d.pop_propagation(entry.gseq);
        d.settle(file.pushed_below.load(Ordering::Acquire), &file.unpushed);
    }
    if log.handoff_waiters.load(Ordering::Acquire) > 0 {
        log.stripes[entry.stripe].signal.notify();
    }
}

/// Cross-stripe per-page ordering: blocks until `gseq` is the oldest
/// pending entry for every page in `pages`. Only entries with smaller
/// global sequence numbers can be ahead, and those sit at (or drain
/// towards) other stripes' tails; registering as a handoff waiter makes
/// those stripes run batches even below `batch_min`, so the wait always
/// terminates. The override distorts the batching policy only while a
/// waiter exists — which requires page-straddling writes whose entries
/// split across stripes; entry-aligned workloads (e.g. the Fig. 6 sweep)
/// never trigger it.
///
/// The wait parks on the signal of the stripe that must act next: the
/// stripe of the first blocking queue front (one older than `gseq`), whose
/// worker signals as it pops while a handoff waits ([`pop_entry`]), or
/// `stripe` itself while a page has not been given the entry yet — a
/// writer commits before it queues, and signals its stripe once its
/// entries are queued. Returns `false` if the cache was killed while
/// waiting, or as soon as the stripe it waits on is *poisoned*: its worker
/// is gone, so the front is never popped. A poisoned stripe that blocks
/// none of the fronts does not degrade this one — the wait goes on; one
/// that blocks a later front is met when the fronts before it are popped,
/// or when their stripes poison themselves waiting on it.
pub(crate) fn wait_for_handoff(
    shared: &Shared,
    stripe: &Stripe,
    pages: &[KeyedPage],
    gseq: u64,
) -> bool {
    let blocker = || {
        pages.iter().find_map(|(_, d)| match d.propagation_front() {
            None => Some(stripe.index),
            Some(front) if front.gseq < gseq => Some(front.stripe),
            Some(_) => None,
        })
    };
    let Some(mut waiting_on) = blocker() else {
        return true; // fast path: already at every front
    };
    shared.log.handoff_waiters.fetch_add(1, Ordering::AcqRel);
    shared.log.notify_all();
    let survived = loop {
        let waited_on = &shared.log.stripes[waiting_on];
        let seen = waited_on.signal.epoch();
        match blocker() {
            None => break true,
            Some(next) if next != waiting_on => waiting_on = next,
            Some(_) if shared.kill.load(Ordering::Acquire) || waited_on.is_poisoned() => {
                break false
            }
            Some(_) => waited_on.signal.wait(seen),
        }
    };
    shared.log.handoff_waiters.fetch_sub(1, Ordering::AcqRel);
    survived
}

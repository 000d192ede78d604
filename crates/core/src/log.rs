//! The striped circular NVMM write log: [`Stripe`] (per-stripe heads/tails,
//! commit protocol, virtual-time back-pressure coupling, poisoned-stripe
//! error state) and [`Log`] (hash routing, global sequence assignment,
//! cross-stripe flush barriers).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use nvmm::{NvRegion, PmemInts};
use parking_lot::{Condvar, Mutex, RwLock};
use simclock::{ActorClock, SimTime};
use vfs::{IoError, IoResult};

use crate::layout::{
    self, CommitWord, Layout, COMMIT_LEADER, ENT_COMMIT, ENT_FD, ENT_FILE_OFF, ENT_GROUP_LEN,
    ENT_LEN, ENT_SEQ,
};
use crate::lockcheck::{Class, Recorder};
use crate::NvCacheStats;

/// Decoded entry header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EntryHeader {
    pub commit: CommitWord,
    pub fd_slot: u32,
    pub len: u32,
    pub file_off: u64,
    pub group_len: u32,
    /// Global sequence number stamped at allocation time (equals the
    /// stripe-local sequence number on a single-stripe log, i.e. the seed
    /// format).
    pub seq: u64,
}

impl EntryHeader {
    /// Bytes [`decode`](EntryHeader::decode) takes: the header up to and
    /// including the sequence number.
    pub const BYTES: usize = ENT_SEQ as usize + 8;

    /// Decodes the leading bytes of an entry as one charged read returned
    /// them (recovery; the hot paths load the fields one by one).
    pub fn decode(bytes: &[u8; Self::BYTES]) -> EntryHeader {
        let u32_at = |at: u64| {
            u32::from_le_bytes(bytes[at as usize..at as usize + 4].try_into().expect("4 bytes"))
        };
        let u64_at = |at: u64| {
            u64::from_le_bytes(bytes[at as usize..at as usize + 8].try_into().expect("8 bytes"))
        };
        EntryHeader {
            commit: layout::parse_commit_word(u64_at(ENT_COMMIT)),
            fd_slot: u32_at(ENT_FD),
            len: u32_at(ENT_LEN),
            file_off: u64_at(ENT_FILE_OFF),
            group_len: u32_at(ENT_GROUP_LEN),
            seq: u64_at(ENT_SEQ),
        }
    }
}

/// One stripe of the circular NVMM write log (paper §II-B, Algorithm 1,
/// applied to the stripe's contiguous share of the entry array).
///
/// * `head` — volatile allocation index (a monotonically increasing
///   *stripe-local* sequence number; the global entry slot is
///   `Layout::stripe_slot(index, seq)`). Advanced under `alloc_lock` so the
///   ring order always matches the global-sequence order within a stripe —
///   the invariant the cross-stripe propagation handoff relies on.
/// * `vtail` — volatile tail: everything below it is free for writers.
/// * persistent tail — stored in the region header (`OFF_PTAIL` for a
///   single-stripe log, the per-stripe tail array otherwise), advanced by
///   this stripe's cleanup worker after a batch is fsync'ed; the recovery
///   scan starts there.
///
/// Writers that find the stripe full wait on `space_cv` and, once woken,
/// synchronize their virtual clock with the cleanup worker's publication
/// time (`tail_time`) — this is how SSD back-pressure reaches the
/// application in the simulation, reproducing the saturation collapse of
/// paper Fig. 5 independently in every stripe.
pub(crate) struct Stripe {
    /// Position of this stripe in [`Log::stripes`].
    pub index: usize,
    pub region: NvRegion,
    pub layout: Layout,
    pub head: AtomicU64,
    pub vtail: AtomicU64,
    /// Virtual commit time of each local slot (keeps the cleanup worker
    /// causal).
    pub commit_stamps: Box<[AtomicU64]>,
    /// Virtual time at which each local slot was last freed by the cleanup
    /// worker. A producer reusing the slot advances to this time first: this
    /// is the coupling that makes the stripe saturate in *virtual* time
    /// (paper Fig. 5) even though the real cleanup worker may keep up in
    /// wall-clock time.
    pub free_stamps: Box<[AtomicU64]>,
    /// Virtual time at which the cleanup worker last freed entries.
    pub tail_time: AtomicU64,
    /// Writers currently blocked on a full stripe.
    pub space_waiters: AtomicUsize,
    /// Stripe-local sequence number the cleanup worker must drain to (flush
    /// barrier).
    pub flush_target: AtomicU64,
    /// Set when this stripe's cleanup worker hit an inner-file-system error
    /// it cannot recover from. A poisoned stripe stops draining (its
    /// entries stay in NVMM for recovery), rejects new writes with an I/O
    /// error, and releases flush waiters instead of blocking them forever.
    poisoned: AtomicBool,
    /// Serializes head advancement with global-sequence assignment, keeping
    /// ring order == global order within the stripe.
    alloc_lock: Mutex<()>,
    space_lock: Mutex<()>,
    space_cv: Condvar,
    work_lock: Mutex<()>,
    work_cv: Condvar,
    /// Lock-order recorder shared with the owning mount (no-op unless the
    /// `pmcheck` feature is on).
    lockcheck: Recorder,
}

impl std::fmt::Debug for Stripe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stripe")
            .field("index", &self.index)
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("vtail", &self.vtail.load(Ordering::Relaxed))
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl Stripe {
    fn new(
        index: usize,
        region: NvRegion,
        layout: Layout,
        start_seq: u64,
        lockcheck: Recorder,
    ) -> Self {
        let cap = layout.stripe_entries() as usize;
        let mut stamps = Vec::with_capacity(cap);
        stamps.resize_with(cap, || AtomicU64::new(0));
        let mut free_stamps = Vec::with_capacity(cap);
        free_stamps.resize_with(cap, || AtomicU64::new(0));
        Stripe {
            index,
            region,
            layout,
            head: AtomicU64::new(start_seq),
            vtail: AtomicU64::new(start_seq),
            commit_stamps: stamps.into_boxed_slice(),
            free_stamps: free_stamps.into_boxed_slice(),
            tail_time: AtomicU64::new(0),
            space_waiters: AtomicUsize::new(0),
            flush_target: AtomicU64::new(start_seq),
            poisoned: AtomicBool::new(false),
            alloc_lock: Mutex::new(()),
            space_lock: Mutex::new(()),
            space_cv: Condvar::new(),
            work_lock: Mutex::new(()),
            work_cv: Condvar::new(),
            lockcheck,
        }
    }

    /// Entries this stripe owns.
    pub fn capacity(&self) -> u64 {
        self.layout.stripe_entries()
    }

    /// Global entry slot of stripe-local sequence number `seq`.
    pub fn slot(&self, seq: u64) -> u64 {
        self.layout.stripe_slot(self.index as u64, seq)
    }

    /// Local slot index (into the stamp arrays) of `seq`.
    fn local_slot(&self, seq: u64) -> usize {
        (seq % self.capacity()) as usize
    }

    /// Entries allocated but not yet freed.
    pub fn in_flight(&self) -> u64 {
        self.head.load(Ordering::Acquire) - self.vtail.load(Ordering::Acquire)
    }

    /// Fills one entry (header + data) without committing it. For group
    /// members (`member_of == Some(leader_global_slot)`), the member tag is
    /// written as part of the fill, as in the paper: the *leader's* flag
    /// commits the group.
    #[allow(clippy::too_many_arguments)] // mirrors the on-NVMM entry header
    pub fn fill_entry(
        &self,
        seq: u64,
        gseq: u64,
        fd_slot: u32,
        file_off: u64,
        data: &[u8],
        group_len: u32,
        member_of: Option<u64>,
        clock: &ActorClock,
    ) {
        assert!(data.len() <= self.layout.entry_size as usize, "entry data overflow");
        let base = self.layout.entry(self.slot(seq));
        debug_assert_eq!(self.region.read_u64(base + ENT_COMMIT), 0, "allocated slot must be free");
        self.region.write_u32(base + ENT_FD, fd_slot, clock);
        self.region.write_u32(base + ENT_LEN, data.len() as u32, clock);
        self.region.write_u64(base + ENT_FILE_OFF, file_off, clock);
        self.region.write_u32(base + ENT_GROUP_LEN, group_len, clock);
        self.region.write_u64(base + ENT_SEQ, gseq, clock);
        if let Some(leader_slot) = member_of {
            self.region.write_u64(
                base + ENT_COMMIT,
                layout::member_commit_word(leader_slot),
                clock,
            );
        }
        self.region.write(base + layout::ENTRY_HEADER_BYTES, data, clock);
        // Mutation hook: a skipped pwb leaves the entry Dirty at the commit
        // fence, which pmcheck must flag there.
        #[cfg(feature = "pmcheck")]
        if crate::pm_mutation::take_skip_pwb() {
            return;
        }
        // Send the uncommitted entry towards NVMM (Algorithm 1, l.22).
        self.region.pwb(base, (layout::ENTRY_HEADER_BYTES as usize) + data.len());
    }

    /// Commits already-filled groups — `(leader's stripe-local sequence,
    /// entries)` each — with **one** fence pair: one `pfence` orders every
    /// fill before the commit words, then each leader's commit flag is
    /// written and flushed, then one `psync` makes them all durable together
    /// (durable linearizability — Algorithm 1, ll.23–27). A synchronous write
    /// commits a batch of one; a doorbell pays the fixed costs (fence + drain
    /// latency) once for its whole window.
    ///
    /// Every group must already be filled; none of the groups is durable (or
    /// acknowledgeable) until this call returns.
    pub fn commit_batch(&self, groups: &[(u64, u64)], clock: &ActorClock) {
        // Mutation hooks: drop the ordering fence, or publish the commit
        // word(s) before it — both must trip pmcheck's commit_store check.
        #[cfg(feature = "pmcheck")]
        let (drop_fence, reorder) =
            (crate::pm_mutation::take_drop_fence(), crate::pm_mutation::take_reorder_commit());
        #[cfg(not(feature = "pmcheck"))]
        let (drop_fence, reorder) = (false, false);
        let commit_words = |clock: &ActorClock| {
            for &(first_seq, _) in groups {
                let base = self.layout.entry(self.slot(first_seq));
                // The annotated publish point: store + pwb of the leader's
                // commit word, checked against the fence that covers the
                // group's fills (Algorithm 1, ll.23–26).
                self.region.commit_store(base + ENT_COMMIT, COMMIT_LEADER, clock);
            }
        };
        if reorder {
            commit_words(clock);
            self.region.persist_fence(clock);
        } else {
            if !drop_fence {
                self.region.persist_fence(clock);
            }
            commit_words(clock);
        }
        self.region.persist_barrier(clock);
        let now = clock.now().as_nanos();
        for &(first_seq, k) in groups {
            for i in 0..k {
                self.commit_stamps[self.local_slot(first_seq + i)].store(now, Ordering::Release);
            }
        }
        self.notify_work();
    }

    /// Reads an entry header (CPU-cache-speed loads: the hot paths touch
    /// lines their thread recently wrote; recovery uses charged reads).
    pub fn read_header(&self, seq: u64) -> EntryHeader {
        let base = self.layout.entry(self.slot(seq));
        EntryHeader {
            commit: layout::parse_commit_word(self.region.read_u64(base + ENT_COMMIT)),
            fd_slot: self.region.read_u32(base + ENT_FD),
            len: self.region.read_u32(base + ENT_LEN),
            file_off: self.region.read_u64(base + ENT_FILE_OFF),
            group_len: self.region.read_u32(base + ENT_GROUP_LEN),
            seq: self.region.read_u64(base + ENT_SEQ),
        }
    }

    /// Reads entry data with a charged (media) read.
    pub fn read_data(&self, seq: u64, len: usize, clock: &ActorClock) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.region.read(self.layout.entry_data(self.slot(seq)), &mut buf, clock);
        buf
    }

    /// Reads entry data at CPU-cache speed (dirty-miss fast path for entries
    /// the process wrote recently).
    pub fn read_data_cached(&self, seq: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.region.read_cached(self.layout.entry_data(self.slot(seq)), &mut buf);
        buf
    }

    /// Cleanup step 2+3: reset commit flags of `[from, from+count)`, persist
    /// the new stripe tail, then publish the space to writers (paper §III
    /// "Cleanup thread": volatile tail only moves after the persistent state
    /// is consistent).
    pub fn free_range(&self, from: u64, count: u64, clock: &ActorClock) {
        for i in 0..count {
            let base = self.layout.entry(self.slot(from + i));
            self.region.write_u64(base + ENT_COMMIT, 0, clock);
            self.region.pwb(base + ENT_COMMIT, 8);
        }
        let now = clock.now().as_nanos();
        for i in 0..count {
            self.free_stamps[self.local_slot(from + i)].store(now, Ordering::Release);
        }
        let tail_off = self.layout.stripe_tail_off(self.index as u64);
        self.region.write_u64(tail_off, from + count, clock);
        self.region.pwb(tail_off, 8);
        self.region.persist_fence(clock);
        self.tail_time.store(clock.now().as_nanos(), Ordering::Release);
        self.vtail.store(from + count, Ordering::Release);
        self.notify_space();
    }

    /// Marks this stripe poisoned after an inner-file-system error and
    /// releases everyone blocked on it (writers, flush barriers, peer
    /// workers in the propagation handoff).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.notify_space();
        self.notify_work();
    }

    /// Whether this stripe is poisoned (see [`Stripe::poison`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Wakes this stripe's cleanup worker.
    pub fn notify_work(&self) {
        let _lk = self.lockcheck.acquire(Class::StripeWork, self.index as u64);
        let _g = self.work_lock.lock();
        self.work_cv.notify_all();
    }

    /// Wakes writers blocked on a full stripe and flush waiters.
    pub fn notify_space(&self) {
        let _lk = self.lockcheck.acquire(Class::StripeSpace, self.index as u64);
        let _g = self.space_lock.lock();
        self.space_cv.notify_all();
    }

    /// Blocks this stripe's cleanup worker until there is (potential) work.
    pub fn wait_for_work(&self) {
        let _lk = self.lockcheck.acquire(Class::StripeWork, self.index as u64);
        let mut guard = self.work_lock.lock();
        self.work_cv.wait_for(&mut guard, Duration::from_millis(1));
    }

    /// Requests a drain to at least `target` and blocks until the volatile
    /// tail passes it. Used by `close`/`flush` (paper: close pushes all
    /// user-space writes to the kernel). Returns early (without reaching the
    /// target) if the stripe is poisoned — its worker will never drain again
    /// and the pending entries are only reachable through recovery.
    pub fn flush_to(&self, target: u64, clock: &ActorClock) {
        self.flush_target.fetch_max(target, Ordering::AcqRel);
        self.notify_work();
        loop {
            if self.vtail.load(Ordering::Acquire) >= target {
                clock.advance_to(SimTime::from_nanos(self.tail_time.load(Ordering::Acquire)));
                return;
            }
            if self.is_poisoned() {
                return;
            }
            let _lk = self.lockcheck.acquire(Class::StripeSpace, self.index as u64);
            let mut guard = self.space_lock.lock();
            // Re-check both under the lock: `free_range` and `poison` change
            // them before they notify under it, so no wakeup is lost.
            if self.vtail.load(Ordering::Acquire) >= target {
                clock.advance_to(SimTime::from_nanos(self.tail_time.load(Ordering::Acquire)));
                return;
            }
            if self.is_poisoned() {
                return;
            }
            self.space_cv.wait(&mut guard);
        }
    }
}

/// The striped NVMM write log: `log_shards` independent [`Stripe`]s over one
/// entry array, plus the global sequence counter that keeps them mergeable.
///
/// Every log has this one shape; with one stripe it is the paper's single
/// circular log, and the stamped sequence numbers coincide with the
/// allocation sequence, making the persistent image byte-for-byte
/// seed-compatible.
///
/// * writes are routed to a stripe by [`Log::route`] — a hash of
///   `(device, inode, file_off / entry_size)`, so rewrites of one aligned
///   chunk always land in the same stripe and group commits stay contiguous;
/// * every allocation draws its global sequence numbers *under the stripe's
///   allocation lock*, so within each stripe the ring order equals the
///   global order — the invariant that makes both the cleanup workers'
///   per-page ordered handoff and the recovery k-way merge deadlock- and
///   ambiguity-free.
pub(crate) struct Log {
    pub region: NvRegion,
    pub layout: Layout,
    pub stripes: Box<[Stripe]>,
    /// Next global sequence number. Drawn under the allocation lock of the
    /// stripe that takes it, so on one stripe it is that stripe's head: the
    /// stamped sequence is the local one, as in the seed format.
    global_seq: AtomicU64,
    /// Cleanup workers currently blocked in the per-page propagation
    /// handoff, waiting for another stripe to drain a smaller sequence
    /// number. While non-zero, every worker runs batches regardless of
    /// `batch_min` — otherwise a stripe with few pending entries could sit
    /// on the sequence number its peers are waiting for.
    pub handoff_waiters: AtomicUsize,
    /// Read-held by a push (`Shared::push`) from its snapshot of pending
    /// entries to its last payload read, write-held by [`Log::free`]: no
    /// entry a push has seen can be freed, and its slot refilled, under it.
    pub tail_pin: RwLock<()>,
}

impl std::fmt::Debug for Log {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log")
            .field("stripes", &self.stripes.len())
            .field("in_flight", &self.in_flight())
            .field("nb_entries", &self.layout.nb_entries)
            .finish()
    }
}

impl Log {
    /// `lockcheck` is the mount's lock-order recorder: every tracked lock of
    /// the mount shares one acquisition graph.
    pub fn new(region: NvRegion, layout: Layout, start_seq: u64, lockcheck: Recorder) -> Self {
        let shards = layout.log_shards.max(1) as usize;
        let stripes: Vec<Stripe> = (0..shards)
            .map(|i| Stripe::new(i, region.clone(), layout, start_seq, lockcheck.clone()))
            .collect();
        Log {
            region,
            layout,
            stripes: stripes.into_boxed_slice(),
            global_seq: AtomicU64::new(start_seq),
            handoff_waiters: AtomicUsize::new(0),
            tail_pin: RwLock::new(()),
        }
    }

    /// The global sequence number the next reservation draws: every entry
    /// below it has been reserved already.
    pub fn next_seq(&self) -> u64 {
        self.global_seq.load(Ordering::SeqCst)
    }

    /// [`Stripe::free_range`] once no push pins the tail: the cleanup
    /// workers' one way to free entries.
    pub fn free(&self, stripe: &Stripe, from: u64, count: u64, clock: &ActorClock) {
        let _lk = stripe.lockcheck.acquire(Class::TailPin, 0);
        let _pin = self.tail_pin.write();
        stripe.free_range(from, count, clock);
    }

    /// The stripe that owns writes of file `dev_ino` starting at `file_off`:
    /// a hash of `(device, inode, file_off / entry_size)`, so repeated
    /// writes of the same aligned chunk keep their stripe (and, with
    /// `entry_size == page_size`, aligned same-page writes keep per-page
    /// ordering within one stripe).
    pub fn route(&self, dev_ino: (u64, u64), file_off: u64) -> &Stripe {
        let chunk = file_off / self.layout.entry_size;
        // SplitMix64-style mix of the three routing keys.
        let mut h = dev_ino
            .0
            .rotate_left(32)
            .wrapping_add(dev_ino.1)
            .wrapping_add(chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        &self.stripes[(h % self.stripes.len() as u64) as usize]
    }

    /// Reserves a window of `k` consecutive entries in `stripe`, waiting
    /// while it is full (`next_entry` of Algorithm 1, generalized to groups,
    /// stripes and doorbell batches: the caller carves the window into
    /// per-write commit groups). Returns `(stripe-local sequence, global
    /// sequence)` of the first entry. The window's global sequence numbers
    /// are drawn under the stripe's allocation lock, so ring order == global
    /// order within the stripe holds for any carving; entries inside the
    /// window may be filled and committed out of order with respect to
    /// *other* windows (the cleanup worker waits at the tail and recovery
    /// skips uncommitted gaps).
    ///
    /// # Errors
    ///
    /// [`IoError::Other`] if the stripe is (or becomes) poisoned: its
    /// cleanup worker died on an inner-file-system error, so waiting for
    /// space could block forever.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the stripe capacity (such a window can never
    /// fit).
    pub fn reserve(
        &self,
        stripe: &Stripe,
        k: u64,
        clock: &ActorClock,
        stats: &NvCacheStats,
    ) -> IoResult<(u64, u64)> {
        let cap = stripe.capacity();
        assert!(k <= cap, "write of {k} entries exceeds stripe capacity {cap}");
        let mut waited = false;
        loop {
            crate::stress_point();
            if stripe.is_poisoned() {
                return Err(IoError::Other(format!(
                    "NVCache log stripe {} is poisoned by an inner I/O error",
                    stripe.index
                )));
            }
            let reserved = {
                let _lk = stripe.lockcheck.acquire(Class::StripeAlloc, stripe.index as u64);
                let _g = stripe.alloc_lock.lock();
                let head = stripe.head.load(Ordering::Acquire);
                let tail = stripe.vtail.load(Ordering::Acquire);
                if head + k - tail <= cap {
                    stripe.head.store(head + k, Ordering::Release);
                    // Global sequence assignment happens under the same lock
                    // so ring order == global order within the stripe.
                    Some((head, self.global_seq.fetch_add(k, Ordering::AcqRel)))
                } else {
                    None
                }
            };
            if let Some((head, gseq)) = reserved {
                // Virtual-time coupling: the claimed slots only became free
                // when the cleanup worker freed them — the producer cannot be
                // "earlier" than that instant.
                let mut free_at = 0u64;
                for i in 0..k {
                    let slot = stripe.local_slot(head + i);
                    free_at = free_at.max(stripe.free_stamps[slot].load(Ordering::Acquire));
                }
                if free_at > 0 {
                    clock.advance_to(SimTime::from_nanos(free_at));
                }
                if waited {
                    clock.advance_to(SimTime::from_nanos(stripe.tail_time.load(Ordering::Acquire)));
                }
                return Ok((head, gseq));
            }
            if !waited {
                stats.log_full_waits.fetch_add(1, Ordering::Relaxed);
                stats.per_shard[stripe.index].log_full_waits.fetch_add(1, Ordering::Relaxed);
                waited = true;
            }
            stripe.space_waiters.fetch_add(1, Ordering::AcqRel);
            stripe.notify_work();
            {
                let _lk = stripe.lockcheck.acquire(Class::StripeSpace, stripe.index as u64);
                let mut guard = stripe.space_lock.lock();
                // Re-check under the lock to avoid a lost wakeup: the tail
                // and the poison flag both change before their notify.
                let head = stripe.head.load(Ordering::Acquire);
                let tail = stripe.vtail.load(Ordering::Acquire);
                if head + k - tail > cap && !stripe.is_poisoned() {
                    stripe.space_cv.wait(&mut guard);
                }
            }
            stripe.space_waiters.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Entries allocated but not yet freed, across all stripes.
    pub fn in_flight(&self) -> u64 {
        self.stripes.iter().map(Stripe::in_flight).sum()
    }

    /// Snapshot of every stripe's allocation head (drain targets for
    /// close/zombie bookkeeping).
    pub fn heads(&self) -> Box<[u64]> {
        self.stripes.iter().map(|s| s.head.load(Ordering::Acquire)).collect()
    }

    /// Whether every stripe has drained at least to the corresponding
    /// target in `targets`.
    pub fn drained_to(&self, targets: &[u64]) -> bool {
        self.stripes
            .iter()
            .zip(targets)
            .all(|(s, &t)| s.vtail.load(Ordering::Acquire) >= t)
    }

    /// Drains every stripe to its current head (full-log flush barrier:
    /// `fsync`-like operations must drain *all* stripes).
    ///
    /// Every stripe's flush target is published *before* the first wait:
    /// draining stripe A may require stripe B to propagate a smaller
    /// sequence number first (per-page handoff), so B must already know it
    /// has to run.
    pub fn flush_all(&self, clock: &ActorClock) {
        let targets = self.heads();
        for (stripe, &target) in self.stripes.iter().zip(targets.iter()) {
            stripe.flush_target.fetch_max(target, Ordering::AcqRel);
            stripe.notify_work();
        }
        for (stripe, &target) in self.stripes.iter().zip(targets.iter()) {
            stripe.flush_to(target, clock);
        }
    }

    /// Wakes every stripe's cleanup worker.
    pub fn notify_work_all(&self) {
        for stripe in self.stripes.iter() {
            stripe.notify_work();
        }
    }

    /// Whether any stripe is poisoned (used to break cross-stripe waits
    /// that could otherwise spin on a dead worker).
    pub fn any_poisoned(&self) -> bool {
        self.stripes.iter().any(Stripe::is_poisoned)
    }

    /// Indices of the poisoned stripes.
    pub fn poisoned_stripes(&self) -> Vec<usize> {
        self.stripes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_poisoned().then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvCacheConfig;
    use nvmm::{NvDimm, NvmmProfile};
    use std::sync::Arc;

    fn mk_log_sharded(nb: u64, shards: usize) -> (ActorClock, NvCacheStats, Log) {
        let cfg = NvCacheConfig {
            nb_entries: nb,
            entry_size: 128,
            log_shards: shards,
            ..NvCacheConfig::tiny()
        };
        let layout = Layout::for_config(&cfg);
        let dimm = Arc::new(NvDimm::new(layout.total_bytes(), NvmmProfile::instant()));
        let region = NvRegion::whole(dimm);
        let log = Log::new(region, layout, 0, Recorder::new());
        (ActorClock::new(), NvCacheStats::with_front_end(shards, 1, 0), log)
    }

    fn mk_log(nb: u64) -> (ActorClock, NvCacheStats, Log) {
        mk_log_sharded(nb, 1)
    }

    #[test]
    fn reserve_is_monotonic_and_contiguous() {
        let (c, s, log) = mk_log(16);
        let stripe = &log.stripes[0];
        assert_eq!(log.reserve(stripe, 1, &c, &s).unwrap(), (0, 0));
        assert_eq!(log.reserve(stripe, 3, &c, &s).unwrap(), (1, 1));
        assert_eq!(log.reserve(stripe, 1, &c, &s).unwrap(), (4, 4));
        assert_eq!(log.in_flight(), 5);
    }

    #[test]
    fn fill_and_commit_round_trip() {
        let (c, s, log) = mk_log(16);
        let stripe = &log.stripes[0];
        let (seq, gseq) = log.reserve(stripe, 1, &c, &s).unwrap();
        stripe.fill_entry(seq, gseq, 7, 4096, b"payload", 1, None, &c);
        let h = stripe.read_header(seq);
        assert_eq!(h.commit, CommitWord::Free, "not committed yet");
        stripe.commit_batch(&[(seq, 1)], &c);
        let h = stripe.read_header(seq);
        assert_eq!(h.commit, CommitWord::Leader);
        assert_eq!(h.fd_slot, 7);
        assert_eq!(h.len, 7);
        assert_eq!(h.file_off, 4096);
        assert_eq!(h.group_len, 1);
        assert_eq!(h.seq, gseq);
        assert_eq!(stripe.read_data_cached(seq, 7), b"payload");
    }

    #[test]
    fn group_members_point_to_leader() {
        let (c, s, log) = mk_log(16);
        let stripe = &log.stripes[0];
        let (first, gseq) = log.reserve(stripe, 3, &c, &s).unwrap();
        let leader_slot = stripe.slot(first);
        for i in 0..3u64 {
            let member = (i > 0).then_some(leader_slot);
            stripe.fill_entry(first + i, gseq + i, 1, i * 128, &[i as u8; 16], 3, member, &c);
        }
        stripe.commit_batch(&[(first, 3)], &c);
        assert_eq!(stripe.read_header(first).commit, CommitWord::Leader);
        assert_eq!(stripe.read_header(first + 1).commit, CommitWord::Member(leader_slot));
        assert_eq!(stripe.read_header(first + 2).commit, CommitWord::Member(leader_slot));
    }

    #[test]
    fn uncommitted_entries_are_lost_on_crash_committed_survive() {
        let (c, s, log) = mk_log(16);
        let stripe = &log.stripes[0];
        let (a, ga) = log.reserve(stripe, 1, &c, &s).unwrap();
        stripe.fill_entry(a, ga, 1, 0, b"committed", 1, None, &c);
        stripe.commit_batch(&[(a, 1)], &c);
        let (b, gb) = log.reserve(stripe, 1, &c, &s).unwrap();
        stripe.fill_entry(b, gb, 1, 0, b"torn!", 1, None, &c);
        // no commit for b
        let crashed = log.region.dimm().crash_and_restart();
        let region = NvRegion::whole(Arc::new(crashed));
        let recovered = Log::new(region, log.layout, 0, Recorder::new());
        assert_eq!(recovered.stripes[0].read_header(a).commit, CommitWord::Leader);
        assert_eq!(recovered.stripes[0].read_header(b).commit, CommitWord::Free);
    }

    #[test]
    fn free_range_recycles_and_persists_tail() {
        let (c, s, log) = mk_log(4);
        let stripe = &log.stripes[0];
        for i in 0..4u64 {
            let (seq, gseq) = log.reserve(stripe, 1, &c, &s).unwrap();
            stripe.fill_entry(seq, gseq, 0, i * 128, &[1; 8], 1, None, &c);
            stripe.commit_batch(&[(seq, 1)], &c);
        }
        assert_eq!(log.in_flight(), 4);
        stripe.free_range(0, 2, &c);
        assert_eq!(log.in_flight(), 2);
        assert_eq!(log.region.read_u64(layout::OFF_PTAIL), 2);
        // Freed slots are reusable.
        let (seq, _) = log.reserve(stripe, 2, &c, &s).unwrap();
        assert_eq!(seq, 4);
        assert_eq!(stripe.read_header(4).commit, CommitWord::Free);
    }

    #[test]
    fn reserve_blocks_until_space_is_freed() {
        let (c, s, log) = mk_log(4);
        for _ in 0..4 {
            let stripe = &log.stripes[0];
            let (seq, gseq) = log.reserve(stripe, 1, &c, &s).unwrap();
            stripe.fill_entry(seq, gseq, 0, 0, &[0; 8], 1, None, &c);
            stripe.commit_batch(&[(seq, 1)], &c);
        }
        let log = Arc::new(log);
        let log2 = Arc::clone(&log);
        let waiter = std::thread::spawn(move || {
            let c2 = ActorClock::new();
            let s2 = NvCacheStats::default();
            let (seq, _) = log2.reserve(&log2.stripes[0], 1, &c2, &s2).unwrap();
            (seq, s2.log_full_waits.load(Ordering::Relaxed))
        });
        std::thread::sleep(Duration::from_millis(30));
        let freeing_clock = ActorClock::starting_at(SimTime::from_secs(9));
        log.stripes[0].free_range(0, 1, &freeing_clock);
        let (seq, waits) = waiter.join().unwrap();
        assert_eq!(seq, 4);
        assert_eq!(waits, 1, "the waiter must record a saturation event");
    }

    #[test]
    fn waiter_clock_syncs_to_cleanup_time() {
        let (c, s, log) = mk_log(2);
        for _ in 0..2 {
            let stripe = &log.stripes[0];
            let (seq, gseq) = log.reserve(stripe, 1, &c, &s).unwrap();
            stripe.fill_entry(seq, gseq, 0, 0, &[0; 8], 1, None, &c);
            stripe.commit_batch(&[(seq, 1)], &c);
        }
        let log = Arc::new(log);
        let log2 = Arc::clone(&log);
        let waiter = std::thread::spawn(move || {
            let c2 = ActorClock::new();
            let s2 = NvCacheStats::default();
            log2.reserve(&log2.stripes[0], 1, &c2, &s2).unwrap();
            c2.now()
        });
        std::thread::sleep(Duration::from_millis(30));
        let cleanup_clock = ActorClock::starting_at(SimTime::from_secs(5));
        log.stripes[0].free_range(0, 2, &cleanup_clock);
        let t = waiter.join().unwrap();
        assert!(
            t >= SimTime::from_secs(5),
            "writer resumed at {t}, expected at least the cleanup time"
        );
    }

    #[test]
    fn flush_to_drains() {
        let (c, s, log) = mk_log(8);
        for _ in 0..3 {
            let stripe = &log.stripes[0];
            let (seq, gseq) = log.reserve(stripe, 1, &c, &s).unwrap();
            stripe.fill_entry(seq, gseq, 0, 0, &[0; 8], 1, None, &c);
            stripe.commit_batch(&[(seq, 1)], &c);
        }
        let log = Arc::new(log);
        let log2 = Arc::clone(&log);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let cc = ActorClock::new();
            log2.stripes[0].free_range(0, 3, &cc);
        });
        log.stripes[0].flush_to(3, &c);
        h.join().unwrap();
        assert_eq!(log.stripes[0].vtail.load(Ordering::Relaxed), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds stripe capacity")]
    fn oversized_group_panics() {
        let (c, s, log) = mk_log(4);
        log.reserve(&log.stripes[0], 5, &c, &s).unwrap();
    }

    #[test]
    fn single_stripe_global_seq_equals_local_seq() {
        // Seed-format compatibility: on a 1-stripe log the stamped sequence
        // is the allocation sequence itself.
        let (c, s, log) = mk_log(16);
        let stripe = &log.stripes[0];
        for _ in 0..5 {
            let (seq, gseq) = log.reserve(stripe, 1, &c, &s).unwrap();
            assert_eq!(seq, gseq);
        }
    }

    #[test]
    fn stripes_allocate_independently_with_global_order() {
        let (c, s, log) = mk_log_sharded(16, 4);
        assert_eq!(log.stripes.len(), 4);
        assert_eq!(log.stripes[0].capacity(), 4);
        let (l0, g0) = log.reserve(&log.stripes[0], 1, &c, &s).unwrap();
        let (l1, g1) = log.reserve(&log.stripes[2], 2, &c, &s).unwrap();
        let (l2, g2) = log.reserve(&log.stripes[0], 1, &c, &s).unwrap();
        // Local sequences restart per stripe…
        assert_eq!((l0, l1, l2), (0, 0, 1));
        // …while global sequences are unique and monotonic across stripes.
        assert_eq!((g0, g1, g2), (0, 1, 3));
    }

    #[test]
    fn stripes_own_disjoint_entry_windows() {
        let (c, s, log) = mk_log_sharded(8, 2);
        let (a, ga) = log.reserve(&log.stripes[0], 1, &c, &s).unwrap();
        let (b, gb) = log.reserve(&log.stripes[1], 1, &c, &s).unwrap();
        log.stripes[0].fill_entry(a, ga, 1, 0, b"left", 1, None, &c);
        log.stripes[1].fill_entry(b, gb, 2, 0, b"right", 1, None, &c);
        log.stripes[0].commit_batch(&[(a, 1)], &c);
        log.stripes[1].commit_batch(&[(b, 1)], &c);
        // Slot 0 belongs to stripe 0, slot 4 (= stripe_entries) to stripe 1.
        assert_eq!(log.stripes[0].slot(a), 0);
        assert_eq!(log.stripes[1].slot(b), 4);
        assert_eq!(log.stripes[0].read_data_cached(a, 4), b"left");
        assert_eq!(log.stripes[1].read_data_cached(b, 5), b"right");
    }

    #[test]
    fn per_stripe_tails_persist_in_the_v2_header() {
        let (c, s, log) = mk_log_sharded(8, 2);
        for stripe in log.stripes.iter() {
            for _ in 0..2 {
                let (seq, gseq) = log.reserve(stripe, 1, &c, &s).unwrap();
                stripe.fill_entry(seq, gseq, 0, 0, &[0; 8], 1, None, &c);
                stripe.commit_batch(&[(seq, 1)], &c);
            }
        }
        log.stripes[0].free_range(0, 1, &c);
        log.stripes[1].free_range(0, 2, &c);
        assert_eq!(log.region.read_u64(layout::OFF_STRIPE_TAILS), 1);
        assert_eq!(log.region.read_u64(layout::OFF_STRIPE_TAILS + 8), 2);
        // The seed's tail word stays untouched by striped frees.
        assert_eq!(log.region.read_u64(layout::OFF_PTAIL), 0);
    }

    #[test]
    fn routing_is_stable_and_chunk_grained() {
        let (_c, _s, log) = mk_log_sharded(64, 8);
        let file = (3, 77);
        for off in [0u64, 5, 127, 128, 4096] {
            let a = log.route(file, off).index;
            let b = log.route(file, off).index;
            assert_eq!(a, b, "routing must be deterministic");
        }
        // Same 128-byte chunk => same stripe; entry_size is 128 here.
        assert_eq!(log.route(file, 0).index, log.route(file, 127).index);
        // Distinct chunks spread over multiple stripes.
        let distinct: std::collections::HashSet<usize> =
            (0..64u64).map(|i| log.route(file, i * 128).index).collect();
        assert!(distinct.len() > 1, "hash routing must use more than one stripe");
    }

    #[test]
    fn poisoned_stripe_rejects_reservations_and_releases_flushers() {
        let (c, s, log) = mk_log(4);
        let stripe = &log.stripes[0];
        let (seq, gseq) = log.reserve(stripe, 1, &c, &s).unwrap();
        stripe.fill_entry(seq, gseq, 0, 0, &[0; 8], 1, None, &c);
        stripe.commit_batch(&[(seq, 1)], &c);
        assert!(!log.any_poisoned());
        stripe.poison();
        assert!(stripe.is_poisoned());
        assert_eq!(log.poisoned_stripes(), vec![0]);
        // New allocations fail instead of waiting on the dead worker…
        assert!(log.reserve(stripe, 1, &c, &s).is_err());
        // …and a flush barrier returns instead of blocking forever, leaving
        // the entry in the log for recovery.
        stripe.flush_to(1, &c);
        assert_eq!(log.in_flight(), 1);
    }

    #[test]
    fn poison_releases_a_blocked_flusher_and_a_blocked_writer() {
        let (c, s, log) = mk_log(2);
        for _ in 0..2 {
            let stripe = &log.stripes[0];
            let (seq, gseq) = log.reserve(stripe, 1, &c, &s).unwrap();
            stripe.fill_entry(seq, gseq, 0, 0, &[0; 8], 1, None, &c);
            stripe.commit_batch(&[(seq, 1)], &c);
        }
        let log = Arc::new(log);
        let (done, returned) = std::sync::mpsc::channel();
        let flusher = {
            let (log, done) = (Arc::clone(&log), done.clone());
            std::thread::spawn(move || {
                log.stripes[0].flush_to(2, &ActorClock::new());
                done.send("flush_to").unwrap();
            })
        };
        let writer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let stats = NvCacheStats::default();
                let reserved = log.reserve(&log.stripes[0], 1, &ActorClock::new(), &stats);
                done.send("reserve").unwrap();
                reserved.is_err()
            })
        };
        // Both block on the full stripe: nothing frees it. The sleep only
        // makes that likely; every interleaving must release both.
        std::thread::sleep(Duration::from_millis(30));
        log.stripes[0].poison();
        let guard = Duration::from_secs(10);
        let mut woke =
            [returned.recv_timeout(guard).unwrap(), returned.recv_timeout(guard).unwrap()];
        woke.sort();
        assert_eq!(woke, ["flush_to", "reserve"]);
        flusher.join().unwrap();
        assert!(writer.join().unwrap(), "a poisoned stripe grants no space");
    }

    #[test]
    fn full_log_flush_barrier_covers_every_stripe() {
        let (c, s, log) = mk_log_sharded(8, 2);
        for stripe in log.stripes.iter() {
            let (seq, gseq) = log.reserve(stripe, 1, &c, &s).unwrap();
            stripe.fill_entry(seq, gseq, 0, 0, &[0; 8], 1, None, &c);
            stripe.commit_batch(&[(seq, 1)], &c);
        }
        let log = Arc::new(log);
        let log2 = Arc::clone(&log);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let cc = ActorClock::new();
            log2.stripes[0].free_range(0, 1, &cc);
            log2.stripes[1].free_range(0, 1, &cc);
        });
        log.flush_all(&c);
        h.join().unwrap();
        assert_eq!(log.in_flight(), 0);
        assert!(log.drained_to(&log.heads()));
    }
}

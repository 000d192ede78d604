//! # NVCache — a plug-and-play NVMM-based I/O booster for legacy systems
//!
//! Reproduction of *NVCache* (Dulong et al., DSN 2021, arXiv:2105.10397): a
//! user-space, write-back cache in non-volatile main memory that makes the
//! writes of unmodified POSIX applications synchronously durable at NVMM
//! speed, while asynchronously propagating them through the regular kernel
//! I/O stack to a mass-storage device of arbitrary size.
//!
//! The crate implements the paper's §II–III designs in full:
//!
//! * the **write cache** — a circular NVMM log of fixed-size entries with
//!   per-entry commit flags and group commit for large writes (Algorithm
//!   1);
//! * the **read cache** — a bounded pool of page contents indexed by
//!   per-file lock-free radix trees, with S3-FIFO eviction (where the
//!   paper uses an approximate LRU) and the Table II page state machine
//!   ([`Radix`], [`PageState`]);
//! * the **two-lock-per-page concurrency scheme** (atomic lock + cleanup
//!   lock, §II-D), the paper's dirty counter being the length of the page's
//!   propagation queue;
//! * the **cleanup workers** with write batching (§III);
//! * the **recovery procedure** replaying committed entries after a crash;
//! * the **interception semantics** of Table III (`fsync` no-ops, NVCache's
//!   own sizes) via the [`vfs::FileSystem`] trait; `read`/`write`/`lseek`
//!   are [`vfs::CursorFile`] over the mount, whose `fstat` answers
//!   NVCache's size.
//!
//! Hardware primitives (`pwb`/`pfence`/`psync`) come from the [`nvmm`]
//! simulator, which also provides crash injection so the durability claims
//! are *tested*, not assumed.
//!
//! ## The striped log
//!
//! The paper funnels every write through one circular log drained by one
//! cleanup thread — a single-consumer bottleneck under multi-core write
//! pressure. [`NvCacheConfig::log_shards`] splits the log into `N`
//! independent **stripes**, each with its own persistent tail, head/tail
//! atomics, commit/free time stamps, condition variables, flush barrier and
//! cleanup worker. One stripe is not a special case: `log_shards = 1` (the
//! default) runs the same routing, sequence stamping and propagation
//! handoff, and its persistent image is byte-for-byte seed-compatible.
//!
//! The invariants that make striping safe:
//!
//! 1. **Routing** — a write is routed to a stripe by hashing
//!    `(device, inode, file_off / entry_size)`; group commits (multi-entry
//!    writes) stay contiguous in a single stripe, so the cleanup worker
//!    never sees a torn group and recovery can treat groups atomically.
//! 2. **Global sequence** — every entry is stamped with a globally
//!    monotonic sequence number, assigned *under the owning stripe's
//!    allocation lock* so ring order equals global order within each
//!    stripe. Overlapping writes serialize on their page locks before
//!    allocating, so per-page global order equals acknowledgement order.
//! 3. **Ordered propagation handoff** — entries touching the same page may
//!    live in different stripes; each [`PageDescriptor`] carries a queue of
//!    pending global sequence numbers, and a cleanup worker propagates an
//!    entry only once it heads the queue of every page it touches. A worker
//!    therefore only waits for *smaller* sequence numbers sitting at other
//!    stripes' tails — no cycles, no cross-stripe serialization of
//!    unrelated pages.
//! 4. **Merge-replay recovery** — each stripe is scanned from its own
//!    persistent tail (a sorted run, by invariant 2), the committed groups
//!    are k-way merged by global sequence number, and the merged run is
//!    replayed as planned extents (each surviving byte written once) that
//!    leave what replaying exactly the committed prefix, in exactly the
//!    acknowledged order, would leave.
//! 5. **Flush fan-out** — `flush`/`close`/`shutdown` barriers drain *all*
//!    stripes; close keeps its persistent fd slot alive until every
//!    stripe's tail passes the per-stripe drain target snapshotted at close
//!    time.
//!
//! 6. **Dead files** — `unlink` is passed through, inner `unlink` first,
//!    and then invalidates every persistent fd slot on the victim (found by
//!    its `(backend, dev, ino)` identity, never by path alone): recovery
//!    skips entries logged through an invalid slot, so a file created later
//!    under the same name cannot inherit them. Once no descriptor on the
//!    unlinked file is left un-closed it is *dead*: the workers release its
//!    inner descriptors (the inner file system drops what it cached for the
//!    inode) and consume its entries — same handoff, page locks,
//!    propagation queues, tail and barrier rules — without the inner
//!    write. An inner descriptor is only ever used under its guard
//!    (`OpenedFile::inner`, read-held across the call, taken out under the
//!    write lock), so no worker can be handed a released one; a zombie of
//!    a dead file stays listed to pin its slot number until the tail has
//!    passed its entries.
//! 7. **Pushed entries** — the last writable `close` of a file pushes its
//!    pending entries into the kernel and moves the file's *pushed-below*
//!    mark to the next global sequence number, holding the cleanup lock of
//!    every page it writes from before the move until its last write; a
//!    worker reads the mark under the entry's page cleanup locks and
//!    consumes an entry below it without a write, but with the batch's
//!    barrier. With no writable descriptor left, the kernel's copy is
//!    current and a read miss replays nothing. A push pins the tail, so no
//!    entry it listed is freed before it has read the payload. A truncating
//!    `open` drains only a file the mount holds state for, and a same-tier
//!    `rename` of a file no descriptor writes any more makes only that file
//!    durable — push, inner `fsync`, retire its fd slots, rename — instead
//!    of draining every stripe.
//!
//! Back-pressure (the Fig. 5 saturation collapse) is preserved per stripe:
//! each stripe couples its writers to its own cleanup worker's virtual
//! `tail_time`/`free_stamps`, and [`NvCacheStats::per_shard`] exposes the
//! per-stripe saturation and propagation counters.
//!
//! ## The asynchronous drain
//!
//! The paper's cleanup thread propagates entries with strictly synchronous
//! `pwrite`+`fsync`, paying the inner device's latency once per entry.
//! [`NvCacheConfig::queue_depth`] instead drains each batch through an
//! io_uring-style submission ring ([`fiosim::IoRing`]): up to `queue_depth`
//! propagation calls overlap (on the inner device when the inner file is
//! `O_DIRECT`), completions are reaped, and one durability barrier per
//! backend closes the batch — for buffered inner files that barrier's
//! writeback is where the batch meets the device, queued as deep as the
//! device has channels. The stripe
//! tail only advances after the *whole* batch's completions (writes and
//! fsyncs) have landed, so the crash-consistency contract — recovery
//! replays everything past the persistent tail — is unchanged, and
//! `queue_depth = 1` (the default) is behaviorally *and* temporally
//! identical to the synchronous drain.
//!
//! Inner-file-system errors during the drain no longer panic the worker:
//! they are counted ([`NvCacheStats::inner_io_errors`]) and **poison** the
//! stripe — writes routed to it fail fast, flush barriers return instead of
//! hanging, and the stripe's pending entries stay in NVMM for a
//! [`Mount::Recover`] mount (see [`NvCache::poisoned_stripes`]).
//!
//! ## The mount stack
//!
//! Mounting goes through [`NvCache::builder`]: pick the NVMM region, what
//! is below the cache, the configuration and the [`Mount`] mode, then
//! [`mount`](NvCacheBuilder::mount) — the only way in.
//! [`backend`](NvCacheBuilder::backend) is the paper's deployment: one
//! unmodified inner file system, `open`/`unlink`/`rename` passed straight
//! through (Table III).
//!
//! A **tiered** stack hands [`NvCacheBuilder::tiers`] one [`Tiering`] value:
//! several backends and a [`Router`] that maps each file to one of them (hot
//! files over NOVA, cold bulk over ext4+HDD): [`PathPrefixRouter`] for
//! explicit placement, [`HashRouter`] for uniform spreading. Everything the
//! crate knows about *which* inner file system holds a file lives in the
//! `tiers` module; `cache.rs` sees one merged namespace. The routing
//! decision is taken once per open, recorded in the volatile descriptor
//! *and* in the persistent fd slot's backend word, and the per-stripe
//! cleanup workers drain each tier through its own submission ring — so a
//! crash replays every pending entry to the backend that acknowledged it,
//! never to wherever the router would place the file today.
//!
//! ## Tier rebalancing
//!
//! Placement is not fixed forever at open time: the **tier migrator**
//! (`migrate` module) moves closed, fully drained files between backends
//! with a crash-safe copy → stamp → unlink protocol journaled in a
//! persistent fd slot — a crash at any step recovers to exactly one
//! authoritative copy. [`Tiering::migration`] picks the
//! [`MigrationPolicy`]: under `OnDemand`, explicit [`NvCache::rebalance`]
//! sweeps and [`NvCache::migrate`] moves, on the caller's clock; nothing
//! migrates unless a caller asks. A sweep is driven by the router's
//! placement (or the heat policy's), per-file access heat and the
//! per-tier propagation load; the files a [`Mount::Recover`] found
//! misplaced are in its catalog, so the first sweep re-homes them. A
//! `rename` across tiers is `EXDEV` exactly when the policy is `Disabled`
//! (the default), and a journaled migrate-then-rename otherwise.
//!
//! ## Heat-driven placement
//!
//! *Where* the migrator moves files is decided by the router, unless one
//! [`HeatPolicy`] ([`Tiering::heat`]) overrides it with per-file
//! **temperature**: every intercepted read/write decays the
//! file's stored heat to the touching call's *virtual* clock
//! (`heat ← heat · 2^(−Δt / half_life)`, no wall clock anywhere) and adds
//! one; a sweep promotes files whose decayed heat crosses
//! `promote_threshold` onto the designated fast tier — regardless of what
//! the router says about their path — and demotes files cooling below
//! `demote_threshold` back to the router baseline. The gap between the
//! thresholds is a hysteresis band (files inside it stay put, so a file
//! moves at most once per threshold crossing), and an optional fast-tier
//! byte budget demotes the coldest residents when the hot set outgrows
//! the fast medium. Temperature survives close → reopen through the
//! migrator catalog, and a crash through the heat word of each open file's
//! fd slot, stamped at `open`, `fsync` and `close`; recovery judges a file
//! whose hottest summary does not clear the promote threshold by its
//! router. [`NvCacheStats::files_promoted`] / `files_demoted` /
//! `fast_tier_bytes` expose what the policy is doing. See
//! `docs/TUNING.md` for when to reach for one.
//!
//! ## The multi-queue submission front-end
//!
//! The synchronous `pwrite` path pays the intercepted call's bookkeeping
//! (`LIBC_OVERHEAD`) and a full `pfence`+`psync` fence pair *per write* —
//! fine for the paper's single-threaded FIO, but front-end fixed costs,
//! not NVMM bandwidth, dominate small writes as simulated cores grow.
//! [`NvCacheConfig::with_sq_pairs`] adds NVMe-style **submission/completion
//! queue pairs**: each simulated core takes one [`QueuePair`]
//! ([`NvCache::queue_pair`]), enqueues write/flush ops with
//! [`QueuePair::submit_pwrite`] (a user-space memcpy — no per-op call
//! overhead), rings [`QueuePair::ring_doorbell`] to make everything
//! submitted durable in one **batch-reserved** stripe window per routed
//! stripe (one fence pair per stripe group instead of one per write), and
//! reaps completions with [`QueuePair::reap`]. Both paths run the one
//! implementation of Algorithm 1's body — the synchronous `pwrite` is a
//! doorbell of one write — and heat and statistics are counted there, where
//! the write commits, so [`HeatPolicy`] and [`NvCacheStats`] observe
//! exactly the synchronous path's values.
//! `sq_pairs = 0` (the default) does not construct the front-end and keeps
//! the synchronous path byte- and virtual-time-identical to the seed
//! (oracle-tested).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use nvcache::{NvCache, NvCacheConfig};
//! use nvmm::{NvDimm, NvRegion, NvmmProfile};
//! use simclock::ActorClock;
//! use vfs::{FileSystem, MemFs, OpenFlags};
//!
//! # fn main() -> Result<(), vfs::IoError> {
//! let clock = ActorClock::new();
//! let cfg = NvCacheConfig::tiny();
//! let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
//! let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
//! let cache = NvCache::builder(NvRegion::whole(dimm))
//!     .backend(inner)
//!     .config(cfg)
//!     .mount(&clock)?;
//!
//! let fd = cache.open("/db/wal", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
//! cache.pwrite(fd, b"synchronously durable", 0, &clock)?;
//! cache.fsync(fd, &clock)?; // no-op: already durable
//! cache.close(fd, &clock)?;
//! cache.shutdown(&clock);
//! # Ok(())
//! # }
//! ```

mod builder;
mod cache;
mod cleanup;
mod config;
mod files;
pub mod layout;
mod lockcheck;
mod log;
mod migrate;
mod pagedesc;
mod placement;
#[cfg(feature = "pmcheck")]
pub mod pm_mutation;
mod radix;
mod readcache;
mod recovery;
mod replay;
mod router;
mod squeue;
mod stats;
mod tiers;

#[cfg(test)]
mod heat_tests;
#[cfg(test)]
mod migrate_tests;
#[cfg(test)]
mod read_tests;
#[cfg(test)]
mod replay_tests;
#[cfg(test)]
mod scoped_tests;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tiering_tests;

pub use builder::{Mount, NvCacheBuilder};
pub use cache::NvCache;
pub use config::{NvCacheConfig, COPY_GIB_PER_SEC};
pub use migrate::{MigrationPolicy, RebalanceReport};
pub use pagedesc::{PageDescriptor, PageSlot, PageState};
pub use placement::HeatPolicy;
pub use radix::Radix;
pub use recovery::RecoveryReport;
pub use router::{HashRouter, PathPrefixRouter, Router, SingleBackend};
pub use squeue::{Completion, QueuePair};
pub use stats::{
    NvCacheStats, NvCacheStatsSnapshot, QueueStats, QueueStatsSnapshot, ShardStats,
    ShardStatsSnapshot, SQ_BATCH_BUCKETS,
};
pub use tiers::{LayeredTier, Tiering};
// Re-exported so layered mounts can be assembled from `nvcache` alone.
pub use vfs::{
    CryptLayer, CryptStats, DelayLayer, DelayProfile, DelayStats, FaultLayer, FaultOp, FaultRule,
    FaultTrigger, Layer,
};

/// Seeded-schedule stress point: under the `sched-stress` feature every
/// call yields the thread on a deterministic subsequence of invocations,
/// shaking out interleavings of the reservation/doorbell lock split without
/// a full model checker. Compiles to nothing otherwise.
#[inline]
pub(crate) fn stress_point() {
    #[cfg(feature = "sched-stress")]
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICK: AtomicU64 = AtomicU64::new(0);
        let t = TICK.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        if (t ^ (t >> 7)) % 3 == 0 {
            std::thread::yield_now();
        }
    }
}

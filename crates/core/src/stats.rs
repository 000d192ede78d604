//! Operation counters: global [`NvCacheStats`] plus the per-stripe
//! [`ShardStats`] and per-queue-pair [`QueueStats`] breakdowns, with
//! plain-value snapshots for reporting. Every family is declared once, in a
//! [`counter_table!`] invocation; the live struct, its `*Snapshot` twin,
//! `NAMES` and `snapshot()` are generated from that one table.

use std::sync::atomic::{AtomicU64, Ordering};

/// A live counter family and its plain-value snapshot: what
/// [`counter_table!`] needs from a nested field to snapshot it.
trait Family {
    type Snap;
    fn snap(&self) -> Self::Snap;
}

impl Family for AtomicU64 {
    type Snap = u64;
    fn snap(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
}

impl<const N: usize> Family for [AtomicU64; N] {
    type Snap = [u64; N];
    fn snap(&self) -> [u64; N] {
        std::array::from_fn(|i| self[i].snap())
    }
}

impl<F: Family> Family for Box<[F]> {
    type Snap = Vec<F::Snap>;
    fn snap(&self) -> Vec<F::Snap> {
        self.iter().map(F::snap).collect()
    }
}

/// Declares one counter family from a single table. `counters` are scalar
/// `AtomicU64`s (`u64` in the snapshot), each spelled exactly once; `nested`
/// fields are other families (`live type => snapshot type = default`).
macro_rules! counter_table {
    (
        $(#[$live_meta:meta])*
        $live:ident => $(#[$snap_meta:meta])* $snap:ident
        counters { $($(#[$doc:meta])* $name:ident,)* }
        nested { $($(#[$ndoc:meta])* $nname:ident: $nlive:ty => $nsnap:ty = $ndefault:expr,)* }
    ) => {
        $(#[$live_meta])*
        #[derive(Debug)]
        pub struct $live {
            $($(#[$doc])* pub $name: AtomicU64,)*
            $($(#[$ndoc])* pub $nname: $nlive,)*
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct $snap {
            $($(#[$doc])* pub $name: u64,)*
            $($(#[$ndoc])* pub $nname: $nsnap,)*
        }

        impl $live {
            /// The scalar counters' names, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name)),*];

            /// The scalar counters, parallel to [`NAMES`](Self::NAMES).
            pub fn counters(&self) -> [&AtomicU64; Self::NAMES.len()] {
                [$(&self.$name),*]
            }

            /// Point-in-time copy of all counters.
            pub fn snapshot(&self) -> $snap {
                $snap { $($name: self.$name.snap(),)* $($nname: self.$nname.snap(),)* }
            }
        }

        impl Default for $live {
            fn default() -> Self {
                $live { $($name: AtomicU64::new(0),)* $($nname: $ndefault,)* }
            }
        }

        impl $snap {
            /// The scalar counters' values, parallel to the live struct's
            /// `NAMES`.
            pub fn values(&self) -> [u64; $live::NAMES.len()] {
                [$(self.$name),*]
            }
        }

        impl Family for $live {
            type Snap = $snap;
            fn snap(&self) -> $snap {
                self.snapshot()
            }
        }
    };
}

counter_table! {
    /// Per-stripe operation counters of a sharded log.
    ShardStats =>
    /// Plain-value snapshot of [`ShardStats`].
    #[derive(Copy)]
    ShardStatsSnapshot
    counters {
        /// Log entries created in this stripe.
        entries_logged,
        /// Entries consumed by this stripe's cleanup worker (see
        /// [`NvCacheStats::entries_propagated`]).
        entries_propagated,
        /// Those of them dropped instead of written: entries of dead files.
        entries_elided,
        /// Cleanup batches completed by this stripe's worker.
        cleanup_batches,
        /// Durability barriers (`fsync` or `syncfs`) this stripe's worker
        /// completed.
        cleanup_fsyncs,
        /// Those of them that were a `syncfs`.
        cleanup_syncfs,
        /// Times a writer had to wait for space in this stripe.
        log_full_waits,
        /// Operations this stripe's worker submitted to its I/O ring.
        uring_submitted,
        /// Operations reaped from the ring (equals submitted once idle).
        uring_completed,
        /// Largest number of simultaneously in-flight ring operations
        /// observed (how much overlap `queue_depth` actually bought; `1` on
        /// a synchronous drain).
        uring_inflight_peak,
        /// Inner-file-system errors hit while draining this stripe (each one
        /// poisons the stripe instead of panicking the worker).
        inner_io_errors,
    }
    nested {}
}

/// Histogram buckets for the doorbell batch-size distribution
/// (`sq_batch_hist`): bucket `i` counts doorbells whose batch size fell in
/// `[2^i, 2^(i+1))`, except the last bucket which is open-ended — i.e.
/// 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64+.
pub const SQ_BATCH_BUCKETS: usize = 7;

counter_table! {
    /// Per-queue-pair counters of the multi-queue submission front-end
    /// (one per [`sq_pairs`](crate::NvCacheConfig::sq_pairs)).
    QueueStats =>
    /// Plain-value snapshot of [`QueueStats`].
    #[derive(Copy)]
    QueueStatsSnapshot
    counters {
        /// Operations enqueued on this pair's submission queue.
        sq_submitted,
        /// Doorbells rung (each one batch-commits everything submitted since
        /// the previous doorbell).
        sq_doorbells,
        /// Total virtual nanoseconds between an op's completion and its reap
        /// — divided by completions, the average time completions sat
        /// unobserved in the CQ (a lazy reaper inflates observed latency, not
        /// durability).
        cq_reap_lag,
    }
    nested {
        /// Doorbell batch-size histogram (see [`SQ_BATCH_BUCKETS`]). A mass
        /// stuck in the first bucket means the submitter rings after every
        /// op — paying the synchronous path's fixed costs with extra steps.
        sq_batch_hist: [AtomicU64; SQ_BATCH_BUCKETS] => [u64; SQ_BATCH_BUCKETS] = Default::default(),
    }
}

/// `n` zeroed members of a nested family.
fn family<F: Default>(n: usize) -> Box<[F]> {
    (0..n).map(|_| F::default()).collect()
}

counter_table! {
    /// Operation counters of an [`NvCache`](crate::NvCache) instance (one
    /// stripe, one backend and no queue pair by default).
    NvCacheStats =>
    /// Plain-value snapshot of [`NvCacheStats`].
    NvCacheStatsSnapshot
    counters {
        /// Intercepted write calls.
        writes,
        /// Intercepted read calls.
        reads,
        /// Bytes appended to the NVMM log (payload only).
        bytes_logged,
        /// Log entries created.
        entries_logged,
        /// Multi-entry groups created.
        groups_logged,
        /// Reads served entirely from the read cache.
        read_hits,
        /// Page faults into the read cache.
        read_misses,
        /// Inner `pread`s issued by read misses: one per run of consecutive
        /// missing pages of a read, so `read_misses / read_miss_preads` is
        /// the pages each call fetched.
        read_miss_preads,
        /// Misses that required the dirty-miss reconciliation procedure.
        dirty_misses,
        /// Reads that bypassed the read cache (read-only files).
        bypass_reads,
        /// Pages evicted from the read cache, from either of its FIFOs.
        evictions,
        /// Read-cache pages moved from the small FIFO to the main one: read
        /// or written again while in the small one.
        read_cache_promotions,
        /// Read-cache installs admitted straight to the main FIFO: the page
        /// had left the small one recently (a ghost).
        read_cache_ghost_hits,
        /// Times a writer had to wait for log space (saturation events).
        log_full_waits,
        /// Times `open` found the fd table exhausted and had to force a log
        /// drain to reap zombie descriptors before a slot freed up (or the
        /// open failed). Rising values mean
        /// [`fd_slots`](crate::NvCacheConfig::fd_slots) is too small for the
        /// open/close churn.
        fd_slot_waits,
        /// Cleanup batches completed.
        cleanup_batches,
        /// Entries *consumed* by the cleanup workers: written to the inner
        /// file system, or — [`entries_elided`](Self::entries_elided) of
        /// them — dropped because their file was dead. Every logged entry
        /// ends up here exactly once, which is what `flush_log`, the zombie
        /// accounting and per-entry ratios rely on; the entries a backend
        /// actually received are in `per_backend_propagated`.
        entries_propagated,
        /// Entries the workers dropped instead of writing, because their
        /// file was *dead* — unlinked, every descriptor on it closed — by
        /// the time its turn came: work no reader could ever observe.
        entries_elided,
        /// Files that died with descriptors or zombies still around: the
        /// inner descriptors were released at once (so the inner file
        /// system drops the pages it cached for them) instead of at the end
        /// of their drain.
        files_buried,
        /// Of [`entries_propagated`](Self::entries_propagated), the entries
        /// the workers consumed without a write because `close` had already
        /// pushed them into the kernel (the batch's barrier still makes
        /// them durable).
        entries_in_kernel,
        /// Truncating opens and same-tier renames that did not drain the
        /// log: the file they touch had nothing in it, or a rename settled
        /// its source file alone.
        drains_skipped,
        /// Durability barriers the cleanup workers completed: one per batch
        /// per backend the batch wrote to — `fsync` of the file when it
        /// touched one there, a `syncfs` of the backend when several.
        cleanup_fsyncs,
        /// Those of them that were a `syncfs` (multi-file batches).
        cleanup_syncfs,
        /// Entries replayed by recovery.
        recovered_entries,
        /// Inner-file-system errors hit by the cleanup workers (each one
        /// poisons the owning stripe; see
        /// [`NvCache::poisoned_stripes`](crate::NvCache::poisoned_stripes)).
        inner_io_errors,
        /// Files moved between tiers by the migrator
        /// ([`rebalance`](crate::NvCache::rebalance)/[`migrate`](crate::NvCache::migrate)
        /// calls and cross-tier renames; recovery moves no file). Always `0`
        /// on a single-backend mount.
        files_migrated,
        /// Payload bytes copied across tiers by those migrations.
        migration_bytes,
        /// Migrations that moved a file **onto** the fast tier of the mount's
        /// [`HeatPolicy`](crate::HeatPolicy) — `0` forever on a mount
        /// without one, whose files go where the router puts them.
        files_promoted,
        /// Migrations that moved a file **off** the fast tier (demotions:
        /// heat decayed below the demote threshold, or the fast-tier budget
        /// evicted the coldest residents).
        files_demoted,
        /// Payload bytes of catalogued (closed) files currently sitting on
        /// the heat policy's fast tier — a gauge, refreshed after every
        /// migration and rebalance sweep; the occupancy the
        /// [`HeatPolicy`](crate::HeatPolicy) budget is enforced against.
        fast_tier_bytes,
        /// Entries a capacity-bounded migrator catalog
        /// ([`catalog_capacity`](crate::Tiering::catalog_capacity))
        /// dropped to stay within its bound — always correctly-placed cold
        /// files (misplaced or promote-worthy entries are pinned). Always
        /// `0` on an unbounded catalog. A high rate relative to closes means
        /// the capacity is too small for the working set.
        catalog_evictions,
        /// Closes that re-admitted a path the bounded catalog had previously
        /// evicted — each one restarted heat accumulation from the file's
        /// open-time state, so a rising rate means the catalog is thrashing
        /// (capacity below the *recurring* working set).
        catalog_readmissions,
    }
    nested {
        /// Per-stripe breakdown of the log counters (one entry per
        /// [`log_shards`](crate::NvCacheConfig::log_shards)).
        per_shard: Box<[ShardStats]> => Vec<ShardStatsSnapshot> = family(1),
        /// Per-queue-pair front-end counters (one entry per
        /// [`sq_pairs`](crate::NvCacheConfig::sq_pairs); empty when the
        /// multi-queue front-end is off).
        per_queue: Box<[QueueStats]> => Vec<QueueStatsSnapshot> = family(0),
        /// Entries written to each inner backend (one entry per tier of the
        /// mount's [`Tiering`](crate::Tiering) — a single element on a
        /// non-tiered mount). Shows how the router actually spread the
        /// write traffic over the tiers.
        per_backend_propagated: Box<[AtomicU64]> => Vec<u64> = family(1),
    }
}

impl NvCacheStats {
    /// Counters for the full topology: `shards` stripes, `backends` inner
    /// file systems, and `queues` submission/completion queue pairs (`0` =
    /// no multi-queue front-end).
    pub fn with_front_end(shards: usize, backends: usize, queues: usize) -> NvCacheStats {
        NvCacheStats {
            per_shard: family(shards.max(1)),
            per_queue: family(queues),
            per_backend_propagated: family(backends.max(1)),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sets counter *i* to *i + 1* and checks the snapshot mirrors every one.
    fn mirrors<const N: usize>(
        names: &[&str],
        counters: [&AtomicU64; N],
        values: impl Fn() -> [u64; N],
    ) {
        assert_eq!(names.len(), N);
        for (i, c) in counters.iter().enumerate() {
            c.store(i as u64 + 1, Ordering::Relaxed);
        }
        for (i, v) in values().iter().enumerate() {
            assert_eq!(*v, i as u64 + 1, "snapshot does not mirror `{}`", names[i]);
        }
    }

    #[test]
    fn snapshot_mirrors_every_counter_of_the_table() {
        let s = NvCacheStats::with_front_end(1, 1, 1);
        mirrors(NvCacheStats::NAMES, s.counters(), || s.snapshot().values());
        let shard = &s.per_shard[0];
        mirrors(ShardStats::NAMES, shard.counters(), || s.snapshot().per_shard[0].values());
        let queue = &s.per_queue[0];
        mirrors(QueueStats::NAMES, queue.counters(), || s.snapshot().per_queue[0].values());
        assert_eq!(NvCacheStats::NAMES.len(), 32);
        assert_eq!(NvCacheStats::NAMES[0], "writes");
    }

    /// Doc drift: every generated counter name has a row in the operator's
    /// guide.
    #[test]
    fn every_counter_has_a_glossary_row() {
        let tuning = include_str!("../../../docs/TUNING.md");
        let glossary = tuning.split("\n## ").find(|s| s.starts_with("Stats glossary"));
        let glossary = glossary.expect("docs/TUNING.md has a `## Stats glossary` section");
        let nested = ["per_shard", "per_queue", "per_backend_propagated", "sq_batch_hist"];
        let names = [NvCacheStats::NAMES, ShardStats::NAMES, QueueStats::NAMES, &nested];
        for name in names.into_iter().flatten() {
            assert!(glossary.contains(&format!("`{name}")), "no glossary row for `{name}`");
        }
    }

    #[test]
    fn per_shard_counters_snapshot_independently() {
        let s = NvCacheStats::with_front_end(3, 1, 0);
        assert_eq!(s.per_shard.len(), 3);
        s.per_shard[1].entries_propagated.store(7, Ordering::Relaxed);
        s.per_shard[2].log_full_waits.store(2, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.per_shard[0], ShardStatsSnapshot::default());
        assert_eq!(snap.per_shard[1].entries_propagated, 7);
        assert_eq!(snap.per_shard[2].log_full_waits, 2);
    }

    #[test]
    fn default_has_one_shard() {
        assert_eq!(NvCacheStats::default().per_shard.len(), 1);
        assert_eq!(NvCacheStats::default().per_backend_propagated.len(), 1);
    }

    #[test]
    fn per_backend_counters_follow_the_topology() {
        let s = NvCacheStats::with_front_end(2, 3, 0);
        assert_eq!(s.per_shard.len(), 2);
        assert_eq!(s.per_backend_propagated.len(), 3);
        s.per_backend_propagated[2].store(5, Ordering::Relaxed);
        assert_eq!(s.snapshot().per_backend_propagated, vec![0, 0, 5]);
    }

    #[test]
    fn per_queue_counters_follow_the_front_end() {
        assert!(NvCacheStats::with_front_end(2, 1, 0).per_queue.is_empty());
        let s = NvCacheStats::with_front_end(1, 1, 4);
        assert_eq!(s.per_queue.len(), 4);
        s.per_queue[3].sq_submitted.store(9, Ordering::Relaxed);
        s.per_queue[3].sq_batch_hist[2].store(1, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.per_queue[0], QueueStatsSnapshot::default());
        assert_eq!(snap.per_queue[3].sq_submitted, 9);
        assert_eq!(snap.per_queue[3].sq_batch_hist[2], 1);
    }
}

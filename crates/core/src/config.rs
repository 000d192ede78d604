//! Configuration of an NVCache instance: the paper's §IV-A capacity and
//! batching knobs, the striping (`log_shards`) and async-drain
//! (`queue_depth`) extensions, and the scaling rules that shrink capacities
//! for test machines while preserving the saturation dynamics — plus the
//! three model constants no deployment varies. Which inner file system
//! holds a file is not configured here: that is the mount's
//! [`Tiering`](crate::Tiering).

use simclock::{Bandwidth, SimTime};

/// Page size of the read cache (the radix tree's leaves, the unit a read
/// miss fetches), recorded in the region header.
pub(crate) const PAGE_SIZE: usize = 4096;

/// User-space bookkeeping cost charged per intercepted call (NVCache
/// replaces the syscall with this — the design's core bet).
pub(crate) const LIBC_OVERHEAD: SimTime = SimTime::from_nanos(1_500);

/// DRAM copy bandwidth, in GiB/s, of read-cache hits and buffer copies.
pub const COPY_GIB_PER_SEC: f64 = 8.0;

/// [`COPY_GIB_PER_SEC`] as the bandwidth a copy is charged at.
pub(crate) fn copy_bandwidth() -> Bandwidth {
    Bandwidth::gib_per_sec(COPY_GIB_PER_SEC)
}

/// Configuration of an [`NvCache`](crate::NvCache) instance.
///
/// Defaults follow the paper's evaluation settings (§IV-A): 4 KiB log
/// entries, 16 M entries (≈64 GiB of NVMM), a 250 k-page (≈1 GiB) read cache,
/// and cleanup batching between 1 000 and 10 000 entries.
///
/// Full-paper capacities need more NVMM than a test machine has RAM, so
/// [`scaled`](NvCacheConfig::scaled) shrinks every capacity knob by a factor
/// while keeping per-operation latencies untouched — saturation dynamics are
/// capacity/rate ratios and survive the scaling (README, "Regenerating the
/// paper's figures").
///
/// # Example
///
/// ```
/// use nvcache::NvCacheConfig;
/// let cfg = NvCacheConfig::default().scaled(64);
/// assert_eq!(cfg.nb_entries, 16 * 1024 * 1024 / 64);
/// ```
#[derive(Debug, Clone)]
pub struct NvCacheConfig {
    /// Bytes of data per log entry (fixed-size entries, paper §II-D).
    pub entry_size: usize,
    /// Number of entries in the circular log.
    pub nb_entries: u64,
    /// Capacity of the volatile read cache, in pages.
    pub read_cache_pages: usize,
    /// Minimum committed entries before the cleanup thread starts a batch.
    pub batch_min: usize,
    /// Maximum entries consumed per cleanup batch (one `fsync` per batch).
    pub batch_max: usize,
    /// Concurrent open-file slots in the persistent fd table.
    pub fd_slots: u32,
    /// Independent log stripes the entry array is split into. `1` (the
    /// default) is the paper's single circular log;
    /// `N > 1` gives each stripe its own head/tail and cleanup worker,
    /// removing the single-consumer bottleneck under multi-core writes.
    /// Writes are routed to a stripe by `(device, inode, offset/entry_size)`
    /// hash; a global sequence number preserves recoverability (entries from
    /// all stripes merge-replay in total order).
    pub log_shards: usize,
    /// Queue depth of each cleanup worker's submission ring. `1` (the
    /// default) reproduces the paper's synchronous drain exactly: every
    /// propagation `pwrite` waits for the previous one. `N > 1` lets each
    /// worker keep up to `N` propagation writes in flight (io_uring-style),
    /// overlapping the inner device's latency across a batch; the batch's
    /// coalesced `fsync`s still act as completion barriers, so the stripe
    /// tail only advances once the whole batch is durable below.
    pub queue_depth: usize,
    /// Number of NVMe-style submission/completion queue pairs on the write
    /// front-end. `0` (the default) does not construct the front-end at all:
    /// every write takes the paper's synchronous `pwrite` path, byte- and
    /// virtual-time-identical to the seed. `N ≥ 1` lets up to `N` simulated
    /// cores each take a [`QueuePair`](crate::QueuePair) via
    /// [`NvCache::queue_pair`](crate::NvCache::queue_pair), enqueue
    /// write/flush ops without per-call overhead, and make everything
    /// submitted durable with one doorbell that batch-reserves a window per
    /// routed stripe — one `pfence`+`psync` pair per stripe group instead of
    /// one per write. The synchronous path stays fully available alongside.
    pub sq_pairs: usize,
}

impl Default for NvCacheConfig {
    fn default() -> Self {
        NvCacheConfig {
            entry_size: 4096,
            nb_entries: 16 * 1024 * 1024,
            read_cache_pages: 250_000,
            batch_min: 1_000,
            batch_max: 10_000,
            // Must comfortably exceed the steady-state population of
            // closed-but-not-yet-drained descriptors (one cleanup batch's
            // worth of closes), or opens start forcing log drains.
            fd_slots: 4096,
            log_shards: 1,
            queue_depth: 1,
            sq_pairs: 0,
        }
    }
}

impl NvCacheConfig {
    /// Shrinks capacity knobs (log length, read cache) by `factor`, keeping
    /// latencies, entry/page sizes — and the batching *policy* — unchanged:
    /// the batch size controls fsync amortization (paper Fig. 6), which must
    /// not vary with the experiment scale.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled(mut self, factor: u64) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        self.nb_entries = (self.nb_entries / factor).max(16);
        self.read_cache_pages = ((self.read_cache_pages as u64 / factor) as usize).max(16);
        self
    }

    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        NvCacheConfig {
            nb_entries: 64,
            read_cache_pages: 16,
            batch_min: 1,
            batch_max: 16,
            fd_slots: 16,
            ..NvCacheConfig::default()
        }
    }

    /// Sets the log length in entries.
    pub fn with_log_entries(mut self, n: u64) -> Self {
        self.nb_entries = n;
        self
    }

    /// Sets the number of log stripes, rounding the log length up to the
    /// next multiple of `shards` (each stripe needs an equal share of at
    /// least two entries).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds
    /// [`MAX_LOG_SHARDS`](crate::layout::MAX_LOG_SHARDS).
    pub fn with_log_shards(mut self, shards: usize) -> Self {
        assert!(
            (1..=crate::layout::MAX_LOG_SHARDS).contains(&shards),
            "log_shards must be in 1..={}",
            crate::layout::MAX_LOG_SHARDS
        );
        self.log_shards = shards;
        let shards = shards as u64;
        self.nb_entries = self.nb_entries.max(2 * shards).div_ceil(shards) * shards;
        self
    }

    /// Sets the cleanup workers' submission-ring queue depth (`1` =
    /// synchronous drain, the paper's behavior).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue_depth must be at least 1");
        self.queue_depth = depth;
        self
    }

    /// Sets the number of submission/completion queue pairs on the write
    /// front-end (`0`, the default, keeps the purely synchronous path; see
    /// [`NvCacheConfig::sq_pairs`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_SQ_PAIRS`](NvCacheConfig::MAX_SQ_PAIRS).
    pub fn with_sq_pairs(mut self, n: usize) -> Self {
        assert!(n <= Self::MAX_SQ_PAIRS, "sq_pairs must be at most {}", Self::MAX_SQ_PAIRS);
        self.sq_pairs = n;
        self
    }

    /// Upper bound on [`sq_pairs`](NvCacheConfig::sq_pairs) — queue pairs
    /// model per-core submission contexts, so the bound mirrors
    /// "one pair per plausible core".
    pub const MAX_SQ_PAIRS: usize = 256;

    /// Sets the cleanup batch window.
    pub fn with_batching(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1 && max >= min, "invalid batch window {min}..{max}");
        self.batch_min = min;
        self.batch_max = max;
        self
    }

    /// Sets the read-cache capacity in pages.
    pub fn with_read_cache_pages(mut self, pages: usize) -> Self {
        self.read_cache_pages = pages.max(1);
        self
    }

    /// NVMM bytes needed for this configuration (header + fd table + log).
    pub fn required_nvmm_bytes(&self) -> u64 {
        crate::layout::Layout::for_config(self).total_bytes()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent settings (zero capacities, batch window
    /// inversion).
    pub fn validate(&self) {
        assert!(self.entry_size > 0, "entry size must be positive");
        assert!(self.nb_entries >= 2, "log needs at least two entries");
        assert!(self.read_cache_pages >= 1, "read cache needs at least one page");
        assert!(self.batch_min >= 1 && self.batch_max >= self.batch_min, "invalid batch window");
        assert!(self.fd_slots >= 1, "need at least one fd slot");
        assert!(
            (1..=crate::layout::MAX_LOG_SHARDS).contains(&self.log_shards),
            "log_shards must be in 1..={}",
            crate::layout::MAX_LOG_SHARDS
        );
        assert!(
            self.nb_entries.is_multiple_of(self.log_shards as u64),
            "nb_entries must divide evenly into {} stripes",
            self.log_shards
        );
        assert!(
            self.nb_entries / self.log_shards as u64 >= 2,
            "each log stripe needs at least two entries"
        );
        assert!(self.queue_depth >= 1, "queue_depth must be at least 1");
        assert!(
            self.sq_pairs <= Self::MAX_SQ_PAIRS,
            "sq_pairs must be at most {}",
            Self::MAX_SQ_PAIRS
        );
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vfs::{FileSystem, MemFs};

    use super::*;
    use crate::{SingleBackend, Tiering};

    /// What replaced this configuration's six tiering fields: `n` bare tiers
    /// with every tiering choice at its default.
    fn tiering(n: usize) -> Tiering {
        let tiers = (0..n).map(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>).collect();
        Tiering::new(Arc::new(SingleBackend), tiers)
    }

    #[test]
    fn defaults_match_paper_settings() {
        let cfg = NvCacheConfig::default();
        assert_eq!(cfg.entry_size, 4096);
        assert_eq!(cfg.nb_entries, 16 * 1024 * 1024);
        assert_eq!(cfg.read_cache_pages, 250_000);
        assert_eq!(cfg.batch_min, 1_000);
        assert_eq!(cfg.batch_max, 10_000);
        cfg.validate();
    }

    #[test]
    fn scaling_preserves_sizes() {
        let cfg = NvCacheConfig::default().scaled(64);
        assert_eq!(cfg.entry_size, 4096);
        assert_eq!(cfg.nb_entries, 262_144);
        cfg.validate();
    }

    #[test]
    fn required_bytes_covers_log() {
        let cfg = NvCacheConfig::tiny();
        let need = cfg.required_nvmm_bytes();
        assert!(need > cfg.nb_entries * cfg.entry_size as u64);
    }

    #[test]
    #[should_panic(expected = "promotes onto backend")]
    fn out_of_range_fast_tier_panics() {
        let policy = crate::HeatPolicy::new(2, 4.0, 1.0, SimTime::from_secs(1));
        tiering(2).heat(policy).validate();
    }

    #[test]
    fn default_catalog_is_unbounded_and_heat_volatile() {
        let tiers = crate::tiers::Tiers::mount(tiering(2)).unwrap();
        // No heat policy by default: nothing tracks or stamps heat.
        assert!(tiers.heat.is_none());
        for i in 0..1000 {
            let heat = crate::migrate::FileHeat::default();
            tiers.migrator.record_closed(&format!("/f{i}"), heat);
        }
        assert_eq!(tiers.migrator.resident(), 1000, "every distinct closed path stays");
    }

    #[test]
    fn default_is_single_shard() {
        assert_eq!(NvCacheConfig::default().log_shards, 1);
        assert_eq!(NvCacheConfig::tiny().log_shards, 1);
    }

    #[test]
    fn default_is_single_backend() {
        // The configuration has no backend count: it sizes the region for
        // any number of tiers, and the mount's `Tiering` brings them.
        let cfg = NvCacheConfig::default();
        assert_eq!(
            cfg.required_nvmm_bytes(),
            crate::layout::Layout::for_config(&cfg).total_bytes()
        );
        let tiering = tiering(3);
        assert_eq!(tiering.tiers.len(), 3);
        tiering.validate();
    }

    #[test]
    #[should_panic(expected = "backends must be in")]
    fn zero_backends_panics() {
        tiering(0);
    }

    #[test]
    fn default_drain_is_synchronous() {
        assert_eq!(NvCacheConfig::default().queue_depth, 1);
        let cfg = NvCacheConfig::tiny().with_queue_depth(16);
        assert_eq!(cfg.queue_depth, 16);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "queue_depth must be at least 1")]
    fn zero_queue_depth_panics() {
        NvCacheConfig::tiny().with_queue_depth(0);
    }

    #[test]
    fn default_has_no_queue_pairs() {
        assert_eq!(NvCacheConfig::default().sq_pairs, 0);
        assert_eq!(NvCacheConfig::tiny().sq_pairs, 0);
        let cfg = NvCacheConfig::tiny().with_sq_pairs(8);
        assert_eq!(cfg.sq_pairs, 8);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "sq_pairs must be at most")]
    fn excessive_sq_pairs_panics() {
        NvCacheConfig::tiny().with_sq_pairs(NvCacheConfig::MAX_SQ_PAIRS + 1);
    }

    #[test]
    fn with_log_shards_rounds_the_log_up() {
        let cfg = NvCacheConfig { nb_entries: 67, ..NvCacheConfig::tiny() }.with_log_shards(8);
        assert_eq!(cfg.log_shards, 8);
        assert_eq!(cfg.nb_entries, 72);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn indivisible_shard_split_panics() {
        let cfg = NvCacheConfig { nb_entries: 65, log_shards: 4, ..NvCacheConfig::tiny() };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "log_shards must be in")]
    fn zero_shards_panics() {
        NvCacheConfig::tiny().with_log_shards(0);
    }
}

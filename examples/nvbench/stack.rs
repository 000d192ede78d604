//! The system under test: NVCache over `Ext4` over an S4600-class
//! `SsdDevice`, content kept, optionally with the three trace wrappers
//! spliced in. Also the flat [`Counters`] snapshot the per-layer metrics are
//! deltas of.

use std::sync::Arc;

use blockdev::{BlockDevice, SsdDevice, SsdProfile};
use nvcache::{Mount, NvCache, NvCacheConfig};
use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::ActorClock;
use vfs::{Ext4, Ext4Profile, FileSystem, Layer};

use crate::trace::{Key, Totals, TraceDev, TraceFs, TraceLayer, Tracer};

/// What differs between the five workloads' stacks.
#[derive(Debug, Clone)]
pub struct StackSpec {
    pub cfg: NvCacheConfig,
    /// Command-queue channels of the SSD (the cleanup ring's depth is
    /// `cfg.queue_depth`).
    pub ssd_queue_depth: usize,
    /// Keep the DIMM's durable shadow image so the stack can be crashed.
    pub track_durability: bool,
}

/// One mounted stack plus the handles the driver measures it through.
pub struct Stack {
    /// The driver's clock: closed loop, one client.
    pub clock: ActorClock,
    /// What the driver calls: the cache, or [`TraceFs`] around it.
    pub fs: Arc<dyn FileSystem>,
    pub cache: Arc<NvCache>,
    pub dimm: Arc<NvDimm>,
    pub ext4: Arc<Ext4>,
    pub tracer: Option<Arc<Tracer>>,
    spec: StackSpec,
}

impl Stack {
    /// Builds and formats a fresh stack; a `tracer` splices the wrappers in.
    pub fn format(spec: &StackSpec, tracer: Option<Arc<Tracer>>) -> Stack {
        let ssd: Arc<dyn BlockDevice> =
            Arc::new(SsdDevice::new(SsdProfile::s4600().with_queue_depth(spec.ssd_queue_depth)));
        let dev = match &tracer {
            Some(t) => Arc::new(TraceDev { inner: ssd, tracer: Arc::clone(t) }),
            None => ssd,
        };
        let ext4 = Arc::new(Ext4::new("ext4+ssd", dev, Ext4Profile::default()));
        let mut profile = NvmmProfile::optane();
        profile.track_durability = spec.track_durability;
        let dimm = Arc::new(NvDimm::new(spec.cfg.required_nvmm_bytes(), profile));
        Stack::mount(spec.clone(), ActorClock::new(), dimm, ext4, tracer, Mount::Format)
    }

    fn mount(
        spec: StackSpec,
        clock: ActorClock,
        dimm: Arc<NvDimm>,
        ext4: Arc<Ext4>,
        tracer: Option<Arc<Tracer>>,
        mode: Mount,
    ) -> Stack {
        let layers: Vec<Arc<dyn Layer>> = match &tracer {
            Some(t) => vec![Arc::new(TraceLayer(Arc::clone(t)))],
            None => Vec::new(),
        };
        let builder = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
            .backend_stack(layers, Arc::clone(&ext4) as Arc<dyn FileSystem>)
            .config(spec.cfg.clone())
            .mode(mode);
        // A recovering mount is the driver's op: its span parents the
        // replay's calls into Ext4.
        let token = tracer
            .as_ref()
            .filter(|_| mode == Mount::Recover)
            .map(|t| t.begin(Key::Recover, &clock));
        let cache = Arc::new(builder.mount(&clock).expect("nvbench stack mounts"));
        if let (Some(t), Some(token)) = (&tracer, token) {
            t.end(token, &clock);
        }
        let fs: Arc<dyn FileSystem> = match &tracer {
            Some(t) => Arc::new(TraceFs::new(Arc::clone(&cache) as _, Arc::clone(t))),
            None => Arc::clone(&cache) as _,
        };
        Stack { clock, fs, cache, dimm, ext4, tracer, spec }
    }

    /// Kills the stack without draining it and keeps only what a power
    /// failure keeps: the flushed NVMM lines and what reached the SSD.
    pub fn crash(self) -> Crashed {
        let Stack { clock, fs, cache, dimm, ext4, tracer, spec } = self;
        cache.abort();
        drop(fs);
        drop(cache);
        let dimm = Arc::new(dimm.crash_and_restart());
        ext4.simulate_power_failure();
        Crashed { clock, dimm, ext4, tracer, spec }
    }

    /// Runs `f` as a driver-side span (a no-op without a tracer): for the
    /// calls that bypass the `FileSystem` trait.
    pub fn span<R>(&self, key: Key, f: impl FnOnce() -> R) -> R {
        match &self.tracer {
            Some(t) => {
                let token = t.begin(key, &self.clock);
                let r = f();
                t.end(token, &self.clock);
                r
            }
            None => f(),
        }
    }

    /// Span totals so far; `None` on an untraced stack.
    pub fn spans(&self) -> Option<Totals> {
        self.tracer.as_ref().map(|t| t.totals())
    }

    /// The inner file system, for reading back behind the cache's back.
    pub fn inner(&self) -> &dyn FileSystem {
        self.ext4.as_ref()
    }

    pub fn counters(&self) -> Counters {
        let c = self.cache.stats().snapshot();
        let n = self.dimm.stats().snapshot();
        let pc = self.ext4.page_cache().stats();
        let d = self.ext4.device().stats().snapshot();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
        Counters {
            writes: c.writes,
            reads: c.reads,
            bytes_logged: c.bytes_logged,
            entries_logged: c.entries_logged,
            groups_logged: c.groups_logged,
            read_hits: c.read_hits,
            read_misses: c.read_misses,
            dirty_misses: c.dirty_misses,
            bypass_reads: c.bypass_reads,
            evictions: c.evictions,
            log_full_waits: c.log_full_waits,
            cleanup_batches: c.cleanup_batches,
            entries_propagated: c.entries_propagated,
            cleanup_fsyncs: c.cleanup_fsyncs,
            inner_io_errors: c.inner_io_errors,
            uring_submitted: c.per_shard.iter().map(|s| s.uring_submitted).sum(),
            uring_inflight_peak: c
                .per_shard
                .iter()
                .map(|s| s.uring_inflight_peak)
                .max()
                .unwrap_or(0),
            sq_submitted: c.per_queue.iter().map(|q| q.sq_submitted).sum(),
            sq_doorbells: c.per_queue.iter().map(|q| q.sq_doorbells).sum(),
            cq_reap_lag_ns: c.per_queue.iter().map(|q| q.cq_reap_lag).sum(),
            nvmm_bytes_stored: n.bytes_stored,
            nvmm_bytes_read: n.bytes_read,
            nvmm_lines_flushed: n.lines_flushed,
            nvmm_fences: n.fences,
            nvmm_drains: n.drains,
            nvmm_commit_stores: n.commit_stores,
            pc_hits: load(&pc.hits),
            pc_misses: load(&pc.misses),
            pc_evictions: load(&pc.evictions),
            pc_writebacks: load(&pc.writebacks),
            dev_bytes_written: d.bytes_written,
            dev_bytes_read: d.bytes_read,
            dev_seq_writes: d.seq_writes,
            dev_rand_writes: d.rand_writes,
            dev_reads: d.reads,
            dev_flushes: d.flushes,
            journal_commits: self.ext4.journal_commit_count(),
        }
    }

    /// Drains and stops the stack.
    pub fn shutdown(self) {
        self.cache.shutdown(&self.clock);
    }
}

/// What survives [`Stack::crash`].
pub struct Crashed {
    pub clock: ActorClock,
    dimm: Arc<NvDimm>,
    ext4: Arc<Ext4>,
    tracer: Option<Arc<Tracer>>,
    spec: StackSpec,
}

impl Crashed {
    /// Remounts with `Mount::Recover`, on the same clock.
    pub fn recover(self) -> Stack {
        let Crashed { clock, dimm, ext4, tracer, spec } = self;
        Stack::mount(spec, clock, dimm, ext4, tracer, Mount::Recover)
    }
}

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// The public stats snapshots of every layer, flattened
        /// (`NvCacheStats`, `NvmmStats`, `PageCacheStats`, `DeviceStats`,
        /// `Ext4::journal_commit_count`).
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counters {
            /// A high-water mark, not a running count.
            pub uring_inflight_peak: u64,
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            /// `self − earlier`, field by field.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    uring_inflight_peak: self.uring_inflight_peak,
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                }
            }

            /// Totals of a stack that was remounted on the same `Ext4` and
            /// SSD: the remount starts the cache's and the DIMM's counters
            /// at zero (they add up), the layers below carried on counting
            /// (`remounted` already holds their total).
            pub fn across_remount(&self, remounted: &Counters) -> Counters {
                Counters {
                    pc_hits: remounted.pc_hits,
                    pc_misses: remounted.pc_misses,
                    pc_evictions: remounted.pc_evictions,
                    pc_writebacks: remounted.pc_writebacks,
                    dev_bytes_written: remounted.dev_bytes_written,
                    dev_bytes_read: remounted.dev_bytes_read,
                    dev_seq_writes: remounted.dev_seq_writes,
                    dev_rand_writes: remounted.dev_rand_writes,
                    dev_reads: remounted.dev_reads,
                    dev_flushes: remounted.dev_flushes,
                    journal_commits: remounted.journal_commits,
                    ..self.plus(remounted)
                }
            }

            /// Field-by-field sum (rounds on fresh stacks add up).
            pub fn plus(&self, other: &Counters) -> Counters {
                let peak = self.uring_inflight_peak.max(other.uring_inflight_peak);
                Counters { uring_inflight_peak: peak, $($field: self.$field + other.$field,)* }
            }
        }
    };
}

counters! {
    writes,
    reads,
    bytes_logged,
    entries_logged,
    groups_logged,
    read_hits,
    read_misses,
    dirty_misses,
    bypass_reads,
    evictions,
    log_full_waits,
    cleanup_batches,
    entries_propagated,
    cleanup_fsyncs,
    inner_io_errors,
    uring_submitted,
    sq_submitted,
    sq_doorbells,
    cq_reap_lag_ns,
    nvmm_bytes_stored,
    nvmm_bytes_read,
    nvmm_lines_flushed,
    nvmm_fences,
    nvmm_drains,
    nvmm_commit_stores,
    pc_hits,
    pc_misses,
    pc_evictions,
    pc_writebacks,
    dev_bytes_written,
    dev_bytes_read,
    dev_seq_writes,
    dev_rand_writes,
    dev_reads,
    dev_flushes,
    journal_commits,
}

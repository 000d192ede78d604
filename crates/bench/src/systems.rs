//! Constructors for the storage configurations of paper Table IV.

use std::sync::Arc;

use blockdev::{BlockDevice, DmWriteCacheDev, DmWriteCacheProfile, SsdDevice, SsdProfile};
use nvcache::{NvCache, NvCacheConfig};
use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::ActorClock;
use vfs::{
    DaxFs, DaxProfile, Ext4, Ext4Profile, FileSystem, MemFs, NovaFs, NovaProfile, PageCacheConfig,
};

/// The seven systems of the evaluation (paper Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// NVCache in front of an SSD formatted with Ext4 (the headline config).
    NvcacheSsd,
    /// Ext4 over a dm-writecache (NVMM behind the page cache) over an SSD.
    DmWritecacheSsd,
    /// Ext4-DAX directly in NVMM.
    Ext4Dax,
    /// NOVA in NVMM.
    Nova,
    /// Plain Ext4 over the SSD.
    Ssd,
    /// tmpfs (volatile).
    Tmpfs,
    /// NVCache in front of NOVA (theoretical-ceiling variant, §IV-B).
    NvcacheNova,
}

impl SystemKind {
    /// All seven, in the paper's legend order.
    pub fn all() -> [SystemKind; 7] {
        [
            SystemKind::NvcacheSsd,
            SystemKind::DmWritecacheSsd,
            SystemKind::Ext4Dax,
            SystemKind::Nova,
            SystemKind::Ssd,
            SystemKind::Tmpfs,
            SystemKind::NvcacheNova,
        ]
    }

    /// The five systems of Fig. 4.
    pub fn fig4() -> [SystemKind; 5] {
        [
            SystemKind::NvcacheSsd,
            SystemKind::Ssd,
            SystemKind::Ext4Dax,
            SystemKind::Nova,
            SystemKind::DmWritecacheSsd,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::NvcacheSsd => "NVCache+SSD",
            SystemKind::DmWritecacheSsd => "dm-writecache+SSD",
            SystemKind::Ext4Dax => "Ext4-DAX",
            SystemKind::Nova => "NOVA",
            SystemKind::Ssd => "SSD",
            SystemKind::Tmpfs => "tmpfs",
            SystemKind::NvcacheNova => "NVCache+NOVA",
        }
    }
}

/// Sizing knobs for one system instance.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Which configuration to build.
    pub kind: SystemKind,
    /// Scale divisor applied to the paper's capacities.
    pub scale: u64,
    /// NVMM region bytes for DAX/NOVA/dm-cache backends (pre-scaled value;
    /// will be divided by `scale`).
    pub nvmm_bytes_full: u64,
    /// NVCache configuration (already scaled by the caller); `None` uses
    /// `NvCacheConfig::default().scaled(scale)`.
    pub nvcache_cfg: Option<NvCacheConfig>,
    /// Retain file content (disable for timing-only FIO sweeps).
    pub keep_content: bool,
    /// NVCache log stripes (`1` = the paper's single log; applied on top of
    /// whatever configuration the spec resolves to).
    pub log_shards: usize,
    /// I/O queue depth (`1` = the paper's strictly synchronous model).
    /// `N > 1` gives SSD-backed devices `N` parallel command channels and
    /// lets each NVCache cleanup worker keep `N` propagation writes in
    /// flight on its submission ring.
    pub queue_depth: usize,
}

impl SystemSpec {
    /// A spec with paper-default sizes at the given scale.
    pub fn new(kind: SystemKind, scale: u64) -> Self {
        SystemSpec {
            kind,
            scale,
            nvmm_bytes_full: 128 << 30, // one Optane DIMM
            nvcache_cfg: None,
            keep_content: true,
            log_shards: 1,
            queue_depth: 1,
        }
    }

    /// Timing-only variant (no stored content) for large FIO runs.
    pub fn timing_only(mut self) -> Self {
        self.keep_content = false;
        self
    }

    /// Overrides the NVCache configuration.
    pub fn with_nvcache_cfg(mut self, cfg: NvCacheConfig) -> Self {
        self.nvcache_cfg = Some(cfg);
        self
    }

    /// Splits the NVCache log into `shards` stripes (one cleanup worker
    /// each). No effect on systems without an NVCache layer.
    pub fn with_log_shards(mut self, shards: usize) -> Self {
        self.log_shards = shards.max(1);
        self
    }

    /// Sets the I/O queue depth: SSD command channels plus the NVCache
    /// cleanup workers' submission-ring depth (`1` = fully synchronous, the
    /// paper's model). Applies to every system with an SSD and/or an
    /// NVCache layer — including NVCache+NOVA, whose drain overlaps NOVA's
    /// write latency; only the plain NVMM systems (Ext4-DAX, NOVA, tmpfs)
    /// are unaffected.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }
}

/// A built system: the file system under test plus handles for teardown.
pub struct System {
    /// Paper-legend name.
    pub name: &'static str,
    /// The file system the benchmark drives.
    pub fs: Arc<dyn FileSystem>,
    /// The NVCache layer when the system has one (for stats/flush).
    pub nvcache: Option<Arc<NvCache>>,
}

impl System {
    /// Drains and stops background machinery.
    pub fn shutdown(&self, clock: &ActorClock) {
        if let Some(nc) = &self.nvcache {
            nc.shutdown(clock);
        }
    }
}

fn nvmm_profile() -> NvmmProfile {
    // Benchmarks don't crash-test; skip the durable shadow to halve RAM.
    NvmmProfile::optane().without_durability_tracking()
}

fn ssd(keep_content: bool, queue_depth: usize) -> Arc<SsdDevice> {
    let mut profile = SsdProfile::s4600().with_queue_depth(queue_depth.max(1));
    if !keep_content {
        profile = profile.timing_only();
    }
    Arc::new(SsdDevice::new(profile))
}

fn ext4_profile(keep_content: bool) -> Ext4Profile {
    // The paper's testbed has 384 GiB of DRAM: the page cache never feels
    // memory pressure in any of the evaluated workloads, so its capacity is
    // NOT scaled down with the datasets (content-free pages cost almost
    // nothing when `keep_content` is off).
    Ext4Profile {
        cache: PageCacheConfig { keep_content, ..PageCacheConfig::default() },
        ..Ext4Profile::default()
    }
}

fn ext4_dmwc_profile(keep_content: bool) -> Ext4Profile {
    // jbd2 commits land in the NVMM cache, not on the SSD: the sequential
    // journal write is cheap (the dm flush itself is charged by the device).
    Ext4Profile { journal_commit: simclock::SimTime::from_micros(2), ..ext4_profile(keep_content) }
}

/// Builds a system per `spec`. NVCache variants start their cleanup thread;
/// call [`System::shutdown`] when done.
///
/// # Panics
///
/// Panics if NVCache formatting fails (a sizing bug in the spec).
pub fn build_system(spec: &SystemSpec, clock: &ActorClock) -> System {
    let scale = spec.scale.max(1);
    let nvmm_bytes = (spec.nvmm_bytes_full / scale).max(64 << 20);
    match spec.kind {
        SystemKind::Ssd => {
            let dev = ssd(spec.keep_content, spec.queue_depth);
            System {
                name: spec.kind.label(),
                fs: Arc::new(Ext4::new("ext4+ssd", dev, ext4_profile(spec.keep_content))),
                nvcache: None,
            }
        }
        SystemKind::Tmpfs => {
            System { name: spec.kind.label(), fs: Arc::new(MemFs::new()), nvcache: None }
        }
        SystemKind::Ext4Dax => {
            let dimm = Arc::new(NvDimm::new(nvmm_bytes, nvmm_profile()));
            System {
                name: spec.kind.label(),
                fs: Arc::new(DaxFs::new(NvRegion::whole(dimm), DaxProfile::default())),
                nvcache: None,
            }
        }
        SystemKind::Nova => {
            let dimm = Arc::new(NvDimm::new(nvmm_bytes, nvmm_profile()));
            System {
                name: spec.kind.label(),
                fs: Arc::new(NovaFs::new(NvRegion::whole(dimm), NovaProfile::default())),
                nvcache: None,
            }
        }
        SystemKind::DmWritecacheSsd => {
            let dev = ssd(spec.keep_content, spec.queue_depth);
            let dimm = Arc::new(NvDimm::new(nvmm_bytes, nvmm_profile()));
            let dm = Arc::new(DmWriteCacheDev::new(
                dev as Arc<dyn BlockDevice>,
                NvRegion::whole(dimm),
                DmWriteCacheProfile::default(),
            ));
            System {
                name: spec.kind.label(),
                fs: Arc::new(Ext4::new("ext4+dmwc", dm, ext4_dmwc_profile(spec.keep_content))),
                nvcache: None,
            }
        }
        SystemKind::NvcacheSsd | SystemKind::NvcacheNova => {
            let inner: Arc<dyn FileSystem> = if spec.kind == SystemKind::NvcacheSsd {
                let dev = ssd(spec.keep_content, spec.queue_depth);
                Arc::new(Ext4::new("ext4+ssd", dev, ext4_profile(spec.keep_content)))
            } else {
                let dimm = Arc::new(NvDimm::new(nvmm_bytes, nvmm_profile()));
                Arc::new(NovaFs::new(NvRegion::whole(dimm), NovaProfile::default()))
            };
            let mut cfg = spec
                .nvcache_cfg
                .clone()
                .unwrap_or_else(|| NvCacheConfig::default().scaled(scale));
            if spec.log_shards > 1 {
                cfg = cfg.with_log_shards(spec.log_shards);
            }
            if spec.queue_depth > 1 {
                cfg = cfg.with_queue_depth(spec.queue_depth);
            }
            let log_dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), nvmm_profile()));
            let cache = NvCache::builder(NvRegion::whole(log_dimm))
                .backend(inner)
                .config(cfg)
                .mount(clock)
                .expect("NVCache mount");
            let cache = Arc::new(cache);
            System {
                name: spec.kind.label(),
                fs: Arc::clone(&cache) as Arc<dyn FileSystem>,
                nvcache: Some(cache),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::OpenFlags;

    #[test]
    fn every_system_builds_and_does_io() {
        let clock = ActorClock::new();
        for kind in SystemKind::all() {
            let sys = build_system(&SystemSpec::new(kind, 512), &clock);
            let fd = sys
                .fs
                .open("/smoke", OpenFlags::RDWR | OpenFlags::CREATE, &clock)
                .unwrap_or_else(|e| panic!("{}: open failed: {e}", sys.name));
            sys.fs.pwrite(fd, b"smoke-test", 0, &clock).expect("pwrite");
            let mut buf = [0u8; 10];
            sys.fs.pread(fd, &mut buf, 0, &clock).expect("pread");
            assert_eq!(&buf, b"smoke-test", "{}", sys.name);
            sys.fs.close(fd, &clock).expect("close");
            sys.shutdown(&clock);
        }
    }

    #[test]
    fn sharded_nvcache_system_builds_and_does_io() {
        let clock = ActorClock::new();
        let spec = SystemSpec::new(SystemKind::NvcacheSsd, 512).with_log_shards(4);
        let sys = build_system(&spec, &clock);
        let nc = sys.nvcache.as_ref().expect("nvcache system");
        assert_eq!(nc.config().log_shards, 4);
        let fd = sys
            .fs
            .open("/sharded-smoke", OpenFlags::RDWR | OpenFlags::CREATE, &clock)
            .expect("open");
        for p in 0..8u64 {
            sys.fs.pwrite(fd, &[p as u8 + 1; 4096], p * 4096, &clock).expect("pwrite");
        }
        let mut buf = [0u8; 4096];
        sys.fs.pread(fd, &mut buf, 3 * 4096, &clock).expect("pread");
        assert_eq!(buf[0], 4);
        assert_eq!(nc.stats().snapshot().per_shard.len(), 4);
        sys.fs.close(fd, &clock).expect("close");
        sys.shutdown(&clock);
    }

    #[test]
    fn queue_depth_threads_into_nvcache_and_ssd() {
        let clock = ActorClock::new();
        let spec = SystemSpec::new(SystemKind::NvcacheSsd, 512)
            .with_log_shards(2)
            .with_queue_depth(8);
        let sys = build_system(&spec, &clock);
        let nc = sys.nvcache.as_ref().expect("nvcache system");
        assert_eq!(nc.config().queue_depth, 8);
        let fd = sys.fs.open("/qd", OpenFlags::RDWR | OpenFlags::CREATE, &clock).expect("open");
        sys.fs.pwrite(fd, &[1u8; 4096], 0, &clock).expect("pwrite");
        sys.fs.close(fd, &clock).expect("close");
        sys.shutdown(&clock);
    }

    #[test]
    fn guarantee_matrix_matches_table_iv() {
        let clock = ActorClock::new();
        let expected = [
            (SystemKind::NvcacheSsd, true, true),
            (SystemKind::DmWritecacheSsd, false, false),
            (SystemKind::Ext4Dax, false, false),
            (SystemKind::Nova, true, true),
            (SystemKind::Ssd, false, false),
            (SystemKind::Tmpfs, false, false),
            (SystemKind::NvcacheNova, true, true),
        ];
        for (kind, sync_dur, dur_lin) in expected {
            let sys = build_system(&SystemSpec::new(kind, 512), &clock);
            assert_eq!(sys.fs.synchronous_durability(), sync_dur, "{}", sys.name);
            assert_eq!(sys.fs.durable_linearizability(), dur_lin, "{}", sys.name);
            sys.shutdown(&clock);
        }
    }
}

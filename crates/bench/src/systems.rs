//! Constructors for the storage configurations of paper Table IV.

use std::sync::Arc;

use blockdev::{DmWriteCacheDev, DmWriteCacheProfile, SsdDevice, SsdProfile};
use nvcache::{NvCache, NvCacheConfig};
use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::ActorClock;
use vfs::{
    DaxFs, DaxProfile, Ext4, Ext4Profile, FileSystem, MemFs, NovaFs, NovaProfile, PageCacheConfig,
};

use crate::rig::{Below, Rig};

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
    /// NVCache configuration, log stripes included (already scaled; the
    /// default is `NvCacheConfig::default().scaled(scale)`).
    pub nvcache_cfg: NvCacheConfig,
    /// Retain file content (disable for timing-only FIO sweeps).
    pub keep_content: bool,
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
            nvcache_cfg: NvCacheConfig::default().scaled(scale),
            keep_content: true,
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
        self.nvcache_cfg = cfg;
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

/// Builds a system per `spec`. The NVCache kinds mount a [`Rig`] over the
/// base their plain kind builds (Ext4+SSD, NOVA) and start its cleanup
/// workers; `clock` resumes where that mount returned. Call
/// [`System::shutdown`] when done.
///
/// # Panics
///
/// Panics if NVCache formatting fails (a sizing bug in the spec).
pub fn build_system(spec: &SystemSpec, clock: &ActorClock) -> System {
    let keep = spec.keep_content;
    let dimm = || {
        let bytes = (spec.nvmm_bytes_full / spec.scale).max(64 << 20);
        NvRegion::whole(Arc::new(NvDimm::new(bytes, nvmm_profile())))
    };
    let ssd = || {
        let profile = SsdProfile::s4600().with_queue_depth(spec.queue_depth);
        Arc::new(SsdDevice::new(if keep { profile } else { profile.timing_only() }))
    };
    let ext4 = || Arc::new(Ext4::new("ext4+ssd", ssd(), ext4_profile(keep))) as Arc<dyn FileSystem>;
    let nova = || Arc::new(NovaFs::new(dimm(), NovaProfile::default())) as Arc<dyn FileSystem>;
    let base = match spec.kind {
        SystemKind::Ssd | SystemKind::NvcacheSsd => ext4(),
        SystemKind::Nova | SystemKind::NvcacheNova => nova(),
        SystemKind::Tmpfs => Arc::new(MemFs::new()),
        SystemKind::Ext4Dax => Arc::new(DaxFs::new(dimm(), DaxProfile::default())),
        SystemKind::DmWritecacheSsd => {
            let dm = DmWriteCacheDev::new(ssd(), dimm(), DmWriteCacheProfile::default());
            // jbd2 commits land in the NVMM cache, not on the SSD: the
            // sequential journal write is cheap (the dm flush itself is
            // charged by the device).
            let journal_commit = simclock::SimTime::from_micros(2);
            let profile = Ext4Profile { journal_commit, ..ext4_profile(keep) };
            Arc::new(Ext4::new("ext4+dmwc", Arc::new(dm), profile))
        }
    };
    let name = spec.kind.label();
    if !matches!(spec.kind, SystemKind::NvcacheSsd | SystemKind::NvcacheNova) {
        return System { name, fs: base, nvcache: None };
    }
    let mut cfg = spec.nvcache_cfg.clone();
    if spec.queue_depth > 1 {
        cfg = cfg.with_queue_depth(spec.queue_depth);
    }
    let (rig, cache) = Rig::new(cfg, Below { nvmm: nvmm_profile(), ..Below::over(vec![base]) });
    clock.advance_to(rig.clock.now());
    let cache = Arc::new(cache);
    System { name, fs: Arc::clone(&cache) as Arc<dyn FileSystem>, nvcache: Some(cache) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommonArgs;
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
        let spec =
            CommonArgs { scale: 512, shards: 4, queue_depth: 1 }.spec(SystemKind::NvcacheSsd);
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
        let spec =
            CommonArgs { scale: 512, shards: 2, queue_depth: 8 }.spec(SystemKind::NvcacheSsd);
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

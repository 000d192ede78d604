//! The one stack description of the harness: a machine — its clock, its
//! DIMM and what sits below the cache — that mounts an NVCache stack,
//! crashes it and recovers it, and the one model of what a stack
//! acknowledged. Benches and root suites use it as `nvcache_bench::rig`;
//! the core crate's test modules include it through `#[path]` as
//! `crate::tests::rig` (with `use crate as nvcache;` in scope), since a
//! crate that depends on `nvcache` cannot serve their unit tests.

// Every suite uses its own part of it.
#![allow(dead_code)]

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use blockdev::{BlockDevice, SsdDevice, SsdProfile};
use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::ActorClock;
use vfs::{Ext4, Ext4Profile, FileSystem, IoError, IoResult, Layer, MemFs, OpenFlags};

use super::nvcache::{
    HeatPolicy, Mount, NvCache, NvCacheConfig, PathPrefixRouter, Router, SingleBackend, Tiering,
};

/// `batch_min` and `batch_max` of a parked log: no batch ever fills, so the
/// cleanup workers run only when a flush, a full stripe or a handoff asks.
pub const PARKED: usize = usize::MAX >> 1;

/// `cfg` with its cleanup workers parked.
pub fn parked(cfg: NvCacheConfig) -> NvCacheConfig {
    NvCacheConfig { batch_min: PARKED, batch_max: PARKED, ..cfg }
}

/// What sits below the cache: one base file system per tier, the layers on
/// top of every tier, how files are placed on the tiers, and the profile of
/// the DIMM the log lives on.
#[derive(Clone)]
pub struct Below {
    /// Tier 0 first.
    pub bases: Vec<Arc<dyn FileSystem>>,
    /// Outermost first, on top of every tier.
    pub layers: Vec<Arc<dyn Layer>>,
    pub router: Arc<dyn Router>,
    pub heat: Option<HeatPolicy>,
    pub nvmm: NvmmProfile,
    /// Whether a power cut reaches the bases. `Ext4` loses what it did not
    /// write back; the `MemFs` of these suites stands for a kernel that
    /// loses nothing (its own power failure would forget every file).
    pub power_cut: bool,
}

impl Below {
    /// The caller's own bases, every one of them cut off by a power cut.
    /// One tier takes every file; on more, `/hot/*` goes to the last tier
    /// and everything else to tier 0.
    pub fn over(bases: Vec<Arc<dyn FileSystem>>) -> Below {
        let router: Arc<dyn Router> = match bases.len() - 1 {
            0 => Arc::new(SingleBackend),
            hot => Arc::new(PathPrefixRouter::new(vec![("/hot".into(), hot)], 0)),
        };
        Below {
            bases,
            layers: Vec::new(),
            router,
            heat: None,
            nvmm: NvmmProfile::instant(),
            power_cut: true,
        }
    }

    /// `tiers` `MemFs`es, which keep every page through a power cut.
    pub fn memfs(tiers: usize) -> Below {
        let bases = (0..tiers).map(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>).collect();
        Below { power_cut: false, ..Below::over(bases) }
    }

    /// `tiers` `Ext4`s, each on its own S4600 SSD.
    pub fn ext4(tiers: usize) -> Below {
        Below::over(
            (0..tiers)
                .map(|_| ext4_on(Arc::new(SsdDevice::new(SsdProfile::s4600()))))
                .collect(),
        )
    }

    /// The tiers as a mount takes them.
    pub fn tiering(&self) -> Tiering {
        let tiers = self.bases.iter().map(|base| (self.layers.clone(), Arc::clone(base))).collect();
        let mut tiering = Tiering::layered(Arc::clone(&self.router), tiers);
        if let Some(policy) = &self.heat {
            tiering = tiering.heat(policy.clone());
        }
        tiering
    }
}

/// `Ext4` with its default profile on `dev`.
pub fn ext4_on(dev: Arc<dyn BlockDevice>) -> Arc<dyn FileSystem> {
    Arc::new(Ext4::new("ext4+ssd", dev, Ext4Profile::default()))
}

/// A machine: the clock its application runs on, its DIMM, and what sits
/// below the cache. A mount is the process running on it.
pub struct Rig {
    pub clock: ActorClock,
    pub cfg: NvCacheConfig,
    pub below: Below,
    /// Replaced by every power cut.
    dimm: Mutex<Arc<NvDimm>>,
}

impl Rig {
    /// A DIMM sized for `cfg`, formatted by a mount over `below` on the
    /// rig's clock.
    pub fn new(cfg: NvCacheConfig, below: Below) -> (Rig, NvCache) {
        let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), below.nvmm.clone()));
        let rig = Rig { clock: ActorClock::new(), cfg, below, dimm: Mutex::new(dimm) };
        let cache = rig.mount(Mount::Format).expect("format mount");
        (rig, cache)
    }

    /// The DIMM as it is now.
    pub fn dimm(&self) -> Arc<NvDimm> {
        Arc::clone(&self.dimm.lock().expect("dimm"))
    }

    /// A mount over the DIMM as it is now, through the rig's `below`.
    pub fn mount(&self, mode: Mount) -> IoResult<NvCache> {
        self.mount_over(&self.below, mode)
    }

    /// A mount over the DIMM as it is now, through `below`.
    pub fn mount_over(&self, below: &Below, mode: Mount) -> IoResult<NvCache> {
        NvCache::builder(NvRegion::whole(self.dimm()))
            .tiers(below.tiering())
            .config(self.cfg.clone())
            .mode(mode)
            .mount(&self.clock)
    }

    /// The process dies without draining (`abort`), then the power goes
    /// with `seed`'s eviction draw.
    pub fn crash(&self, cache: &NvCache, seed: u64) {
        cache.abort();
        self.power_cut(seed);
    }

    /// The DIMM keeps what was durable and a `seed`ed draw of what was not
    /// ([`NvDimm::crash_and_restart_seeded`]); the bases lose their
    /// un-synced pages.
    pub fn power_cut(&self, seed: u64) {
        let mut dimm = self.dimm.lock().expect("dimm");
        *dimm = Arc::new(dimm.crash_and_restart_seeded(seed));
        if self.below.power_cut {
            for base in &self.below.bases {
                base.simulate_power_failure();
            }
        }
    }

    /// `Mount::Recover` over the rig's `below`.
    pub fn recover(&self) -> NvCache {
        self.mount(Mount::Recover).expect("recovery")
    }
}

/// The whole of `path` as `fs` reads it; `None` when there is no such file.
pub fn read_all(fs: &dyn FileSystem, path: &str) -> Option<Vec<u8>> {
    let clock = ActorClock::new();
    let size = match fs.stat(path, &clock) {
        Ok(meta) => meta.size as usize,
        Err(IoError::NotFound(_)) => return None,
        Err(e) => panic!("stat {path}: {e}"),
    };
    let fd = fs.open(path, OpenFlags::RDONLY, &clock).expect("open for reading");
    let mut content = vec![0u8; size];
    let mut got = 0;
    while got < size {
        let n = fs.pread(fd, &mut content[got..], got as u64, &clock).expect("pread");
        assert!(n > 0, "{path}: short read at {got}");
        got += n;
    }
    fs.close(fd, &clock).expect("close");
    Some(content)
}

/// What a stack acknowledged: a `MemFs`, on its own clock, that takes every
/// acknowledged call — each write whole, in acknowledgement order.
#[derive(Default)]
pub struct Model {
    fs: MemFs,
    clock: ActorClock,
    /// Every path the model named: one it no longer holds must be gone.
    named: BTreeSet<String>,
}

impl Model {
    pub fn new() -> Model {
        Model::default()
    }

    pub fn write(&mut self, path: &str, off: u64, data: &[u8]) {
        self.named.insert(path.to_string());
        let flags = OpenFlags::RDWR | OpenFlags::CREATE;
        let fd = self.fs.open(path, flags, &self.clock).expect("model open");
        self.fs.pwrite(fd, data, off, &self.clock).expect("model pwrite");
        self.fs.close(fd, &self.clock).expect("model close");
    }

    pub fn unlink(&mut self, path: &str) {
        self.fs.unlink(path, &self.clock).expect("model unlink");
    }

    pub fn rename(&mut self, from: &str, to: &str) {
        self.named.insert(to.to_string());
        self.fs.rename(from, to, &self.clock).expect("model rename");
    }

    /// The whole of `path`; `None` when the model holds no such file.
    pub fn content(&self, path: &str) -> Option<Vec<u8>> {
        read_all(&self.fs, path)
    }

    /// What a `pread` of `len` bytes at `off` of `path` returns.
    pub fn read(&self, path: &str, off: u64, len: usize) -> Vec<u8> {
        let content = self.content(path).unwrap_or_default();
        let from = (off as usize).min(content.len());
        content[from..(from + len).min(content.len())].to_vec()
    }

    /// The files the model holds.
    pub fn files(&self) -> Vec<String> {
        self.named
            .iter()
            .filter(|path| self.fs.stat(path, &self.clock).is_ok())
            .cloned()
            .collect()
    }

    /// `fs` holds every file of the model byte for byte, size included, and
    /// none the model unlinked or renamed away.
    pub fn check(&self, fs: &dyn FileSystem) -> Result<(), String> {
        for path in &self.named {
            match (read_all(fs, path), self.content(path)) {
                (got, expect) if got == expect => {}
                (None, _) => return Err(format!("{path} is gone")),
                (_, None) => return Err(format!("{path} came back")),
                (Some(got), Some(expect)) => {
                    let at = got.iter().zip(&expect).position(|(a, b)| a != b);
                    let (g, e) = (got.len(), expect.len());
                    return Err(format!("{path}: {g} bytes for {e}, first difference at {at:?}"));
                }
            }
        }
        Ok(())
    }
}

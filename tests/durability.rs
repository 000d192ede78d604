//! Crash-injection tests of NVCache's two advertised guarantees
//! (paper Table IV): synchronous durability — every write whose call
//! returned survives a power failure — and durable linearizability — a read
//! can only observe writes that survive.

use std::sync::Arc;

use nvcache_repro::blockdev::{BlockDevice, SsdDevice, SsdProfile};
use nvcache_repro::nvcache::{Mount, NvCache, NvCacheConfig};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{Ext4, Ext4Profile, FileSystem, OpenFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Rig {
    clock: ActorClock,
    dimm: Arc<NvDimm>,
    inner: Arc<dyn FileSystem>,
    ssd: Arc<SsdDevice>,
    cfg: NvCacheConfig,
    cache: Option<NvCache>,
}

fn rig(cfg: NvCacheConfig, eviction_probability: f64) -> Rig {
    let clock = ActorClock::new();
    let profile = NvmmProfile::instant().with_eviction_probability(eviction_probability);
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), profile));
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let inner: Arc<dyn FileSystem> =
        Arc::new(Ext4::new("ext4+ssd", Arc::clone(&ssd) as _, Ext4Profile::default()));
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&inner))
        .config(cfg.clone())
        .mount(&clock)
        .expect("mount");
    Rig { clock, dimm, inner, ssd, cfg, cache: Some(cache) }
}

impl Rig {
    /// Kills the process, pulls the power (seeded), drops kernel volatile
    /// state, and recovers. The rig tracks the post-crash DIMM so repeated
    /// crashes snapshot the current generation.
    fn crash_and_recover(&mut self, seed: u64) -> NvCache {
        self.cache.take().expect("running").abort();
        let crashed = Arc::new(self.dimm.crash_and_restart_seeded(seed));
        self.dimm = Arc::clone(&crashed);
        self.inner.simulate_power_failure();
        NvCache::builder(NvRegion::whole(crashed))
            .backend(Arc::clone(&self.inner))
            .config(self.cfg.clone())
            .mode(Mount::Recover)
            .mount(&self.clock)
            .expect("recover")
    }
}

#[test]
fn every_acknowledged_write_survives_random_crash_points() {
    for crash_after in [1usize, 3, 7, 20, 64, 150] {
        let mut rig = rig(
            NvCacheConfig {
                nb_entries: 512,
                batch_min: 40, // some entries propagate, some stay in the log
                batch_max: 80,
                fd_slots: 16,
                read_cache_pages: 8,
                ..NvCacheConfig::default()
            },
            0.0,
        );
        let cache = rig.cache.as_ref().expect("running");
        let fd = cache.open("/d", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock).expect("open");
        let mut rng = StdRng::seed_from_u64(crash_after as u64);
        let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
        for i in 0..crash_after {
            let off = rng.gen_range(0..64u64) * 512;
            let val = vec![(i % 251 + 1) as u8; rng.gen_range(1..2000)];
            cache.pwrite(fd, &val, off, &rig.clock).expect("pwrite");
            // Writes to overlapping ranges: remember the latest per range.
            acked.retain(|(o, v)| *o + v.len() as u64 <= off || *o >= off + val.len() as u64);
            acked.push((off, val));
        }
        let recovered = rig.crash_and_recover(7);
        let fd = recovered.open("/d", OpenFlags::RDONLY, &rig.clock).expect("reopen");
        for (off, val) in &acked {
            let mut buf = vec![0u8; val.len()];
            recovered.pread(fd, &mut buf, *off, &rig.clock).expect("pread");
            assert_eq!(
                &buf, val,
                "acknowledged write at {off} lost after crash_after={crash_after}"
            );
        }
        recovered.shutdown(&rig.clock);
    }
}

#[test]
fn a_recovered_sparse_file_reads_its_holes_as_zeros_without_the_ssd() {
    let mut rig = rig(
        NvCacheConfig {
            nb_entries: 256,
            batch_min: usize::MAX >> 1, // nothing propagates before the crash
            batch_max: usize::MAX >> 1,
            fd_slots: 8,
            ..NvCacheConfig::default()
        },
        0.0,
    );
    let cache = rig.cache.as_ref().expect("running");
    let fd = cache
        .open("/sparse", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock)
        .expect("open");
    // Scattered partial pages of one slab: recovery's replay writes them,
    // and every page between them is a hole.
    let mut model = Vec::new();
    for (i, page) in [0u64, 3, 4, 17, 40, 61].into_iter().enumerate() {
        let off = (page * 4096 + 512 * i as u64) as usize;
        let val = vec![i as u8 + 1; 1500];
        cache.pwrite(fd, &val, off as u64, &rig.clock).expect("pwrite");
        model.resize(off + val.len(), 0);
        model[off..].copy_from_slice(&val);
    }
    let recovered = rig.crash_and_recover(3);
    let fd = recovered.open("/sparse", OpenFlags::RDONLY, &rig.clock).expect("reopen");
    let mut buf = vec![9u8; model.len() + 4096];
    let n = recovered.pread(fd, &mut buf, 0, &rig.clock).expect("pread");
    assert_eq!(n, model.len());
    assert!(buf[..n] == model[..], "the recovered file differs from the acknowledged writes");
    assert_eq!(rig.ssd.stats().snapshot().reads, 0, "a hole cost an SSD read");
    recovered.shutdown(&rig.clock);
}

#[test]
fn torn_cache_lines_never_corrupt_recovered_state() {
    // With eviction probability 0.5, arbitrary subsets of un-fenced lines
    // persist: recovery must still only replay fully committed entries.
    for seed in 0..10u64 {
        let mut rig = rig(
            NvCacheConfig {
                nb_entries: 256,
                batch_min: usize::MAX >> 1,
                batch_max: usize::MAX >> 1,
                fd_slots: 8,
                ..NvCacheConfig::default()
            },
            0.5,
        );
        let cache = rig.cache.as_ref().expect("running");
        let fd = cache.open("/t", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock).expect("open");
        let mut expected = vec![0u8; 32 * 256];
        for i in 0..32u64 {
            let val = vec![(i + 1) as u8; 256];
            cache.pwrite(fd, &val, i * 256, &rig.clock).expect("pwrite");
            expected[(i * 256) as usize..(i * 256 + 256) as usize].copy_from_slice(&val);
        }
        let recovered = rig.crash_and_recover(seed);
        let fd = recovered.open("/t", OpenFlags::RDONLY, &rig.clock).expect("reopen");
        let mut buf = vec![0u8; expected.len()];
        let n = recovered.pread(fd, &mut buf, 0, &rig.clock).expect("pread");
        assert_eq!(n, expected.len());
        assert_eq!(buf, expected, "seed {seed}: committed data corrupted");
        recovered.shutdown(&rig.clock);
    }
}

#[test]
fn durable_linearizability_reads_imply_survival() {
    // Write, READ IT BACK (observe), then crash: anything observed by a read
    // must survive — the paper's durable-linearizability contract.
    let mut rig = rig(
        NvCacheConfig {
            nb_entries: 128,
            batch_min: usize::MAX >> 1,
            batch_max: usize::MAX >> 1,
            fd_slots: 8,
            ..NvCacheConfig::default()
        },
        0.0,
    );
    let cache = rig.cache.as_ref().expect("running");
    let fd = cache
        .open("/lin", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock)
        .expect("open");
    let mut observed = Vec::new();
    for i in 0..40u64 {
        cache.pwrite(fd, &[i as u8 + 1; 64], i * 64, &rig.clock).expect("pwrite");
        let mut buf = [0u8; 64];
        cache.pread(fd, &mut buf, i * 64, &rig.clock).expect("pread");
        observed.push((i * 64, buf));
    }
    let recovered = rig.crash_and_recover(3);
    let fd = recovered.open("/lin", OpenFlags::RDONLY, &rig.clock).expect("reopen");
    for (off, val) in &observed {
        let mut buf = [0u8; 64];
        recovered.pread(fd, &mut buf, *off, &rig.clock).expect("pread");
        assert_eq!(&buf, val, "observed-then-lost write at {off}");
    }
    recovered.shutdown(&rig.clock);
}

#[test]
fn multi_entry_groups_are_all_or_nothing() {
    // Large writes span entries; after a crash either the whole write is
    // visible or none of it (the group-commit flag, paper §II-D).
    let mut rig = rig(
        NvCacheConfig {
            nb_entries: 64,
            batch_min: usize::MAX >> 1,
            batch_max: usize::MAX >> 1,
            fd_slots: 8,
            ..NvCacheConfig::default()
        },
        0.0,
    );
    let cache = rig.cache.as_ref().expect("running");
    let fd = cache.open("/g", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock).expect("open");
    // 20 KiB write = 5 entries.
    let big: Vec<u8> = (0..20_480u32).map(|i| (i % 249 + 1) as u8).collect();
    cache.pwrite(fd, &big, 0, &rig.clock).expect("pwrite");
    let recovered = rig.crash_and_recover(0);
    let fd = recovered.open("/g", OpenFlags::RDONLY, &rig.clock).expect("reopen");
    let mut buf = vec![0u8; big.len()];
    let n = recovered.pread(fd, &mut buf, 0, &rig.clock).expect("pread");
    assert_eq!(n, big.len(), "group partially recovered");
    assert_eq!(buf, big, "group content corrupted");
    recovered.shutdown(&rig.clock);
}

#[test]
fn double_crash_recovery_converges() {
    let mut rig = rig(
        NvCacheConfig {
            nb_entries: 128,
            batch_min: usize::MAX >> 1,
            batch_max: usize::MAX >> 1,
            fd_slots: 8,
            ..NvCacheConfig::default()
        },
        0.0,
    );
    let cache = rig.cache.as_ref().expect("running");
    let fd = cache
        .open("/dc", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock)
        .expect("open");
    cache.pwrite(fd, b"gen1", 0, &rig.clock).expect("pwrite");
    let gen2 = rig.crash_and_recover(1);
    let recovered = rig.cache.insert(gen2);
    let fd = recovered.open("/dc", OpenFlags::RDWR, &rig.clock).expect("open gen2");
    recovered.pwrite(fd, b"gen2", 8, &rig.clock).expect("pwrite gen2");
    let recovered2 = rig.crash_and_recover(2);
    let fd = recovered2.open("/dc", OpenFlags::RDONLY, &rig.clock).expect("open gen3");
    let mut buf = [0u8; 12];
    recovered2.pread(fd, &mut buf, 0, &rig.clock).expect("pread");
    assert_eq!(&buf[0..4], b"gen1");
    assert_eq!(&buf[8..12], b"gen2");
    recovered2.shutdown(&rig.clock);
}

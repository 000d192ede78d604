//! Crash-injection tests of NVCache's two advertised guarantees
//! (paper Table IV): synchronous durability — every write whose call
//! returned survives a power failure — and durable linearizability — a read
//! can only observe writes that survive.

use std::sync::Arc;

use nvcache_repro::blockdev::{BlockDevice, SsdDevice, SsdProfile};
use nvcache_repro::nvcache::NvCacheConfig;
use nvcache_repro::nvmm::NvmmProfile;
use nvcache_repro::vfs::{FileSystem, OpenFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nvcache_bench::rig::{self, parked, Below, Model, Rig};

/// The parked configuration of most tests here: everything stays in the
/// log until the crash.
fn parked_cfg(nb_entries: u64) -> NvCacheConfig {
    parked(NvCacheConfig { nb_entries, fd_slots: 8, ..NvCacheConfig::default() })
}

#[test]
fn every_acknowledged_write_survives_random_crash_points() {
    for crash_after in [1usize, 3, 7, 20, 64, 150] {
        let cfg = NvCacheConfig {
            nb_entries: 512,
            batch_min: 40, // some entries propagate, some stay in the log
            batch_max: 80,
            fd_slots: 16,
            read_cache_pages: 8,
            ..NvCacheConfig::default()
        };
        let (rig, cache) = Rig::new(cfg, Below::ext4(1));
        let fd = cache.open("/d", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock).expect("open");
        let mut rng = StdRng::seed_from_u64(crash_after as u64);
        let mut model = Model::new();
        for i in 0..crash_after {
            let off = rng.gen_range(0..64u64) * 512;
            let val = vec![(i % 251 + 1) as u8; rng.gen_range(1..2000)];
            cache.pwrite(fd, &val, off, &rig.clock).expect("pwrite");
            model.write("/d", off, &val);
        }
        rig.crash(&cache, 7);
        let recovered = rig.recover();
        let what = format!("acknowledged writes lost after crash_after={crash_after}");
        model.check(&recovered).unwrap_or_else(|e| panic!("{what}: {e}"));
        recovered.shutdown(&rig.clock);
    }
}

#[test]
fn a_recovered_sparse_file_reads_its_holes_as_zeros_without_the_ssd() {
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let below = Below::over(vec![rig::ext4_on(ssd.clone())]);
    // Nothing propagates before the crash.
    let (rig, cache) = Rig::new(parked_cfg(256), below);
    let fd = cache
        .open("/sparse", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock)
        .expect("open");
    // Scattered partial pages of one slab: recovery's replay writes them,
    // and every page between them is a hole.
    let mut model = Model::new();
    for (i, page) in [0u64, 3, 4, 17, 40, 61].into_iter().enumerate() {
        let off = page * 4096 + 512 * i as u64;
        let val = vec![i as u8 + 1; 1500];
        cache.pwrite(fd, &val, off, &rig.clock).expect("pwrite");
        model.write("/sparse", off, &val);
    }
    rig.crash(&cache, 3);
    let recovered = rig.recover();
    let check = model.check(&recovered);
    assert_eq!(check, Ok(()), "the recovered file differs from the acknowledged writes");
    assert_eq!(ssd.stats().snapshot().reads, 0, "a hole cost an SSD read");
    recovered.shutdown(&rig.clock);
}

#[test]
fn torn_cache_lines_never_corrupt_recovered_state() {
    // With eviction probability 0.5, arbitrary subsets of un-fenced lines
    // persist: recovery must still only replay fully committed entries.
    for seed in 0..10u64 {
        let nvmm = NvmmProfile::instant().with_eviction_probability(0.5);
        let (rig, cache) = Rig::new(parked_cfg(256), Below { nvmm, ..Below::ext4(1) });
        let fd = cache.open("/t", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock).expect("open");
        let mut model = Model::new();
        for i in 0..32u64 {
            let val = vec![(i + 1) as u8; 256];
            cache.pwrite(fd, &val, i * 256, &rig.clock).expect("pwrite");
            model.write("/t", i * 256, &val);
        }
        rig.crash(&cache, seed);
        let recovered = rig.recover();
        let check = model.check(&recovered);
        assert_eq!(check, Ok(()), "seed {seed}: committed data corrupted");
        recovered.shutdown(&rig.clock);
    }
}

#[test]
fn durable_linearizability_reads_imply_survival() {
    // Write, READ IT BACK (observe), then crash: anything observed by a read
    // must survive — the paper's durable-linearizability contract.
    let (rig, cache) = Rig::new(parked_cfg(128), Below::ext4(1));
    let fd = cache
        .open("/lin", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock)
        .expect("open");
    let mut observed = Model::new();
    for i in 0..40u64 {
        cache.pwrite(fd, &[i as u8 + 1; 64], i * 64, &rig.clock).expect("pwrite");
        let mut buf = [0u8; 64];
        cache.pread(fd, &mut buf, i * 64, &rig.clock).expect("pread");
        observed.write("/lin", i * 64, &buf);
    }
    rig.crash(&cache, 3);
    let recovered = rig.recover();
    let check = observed.check(&recovered);
    assert_eq!(check, Ok(()), "an observed write was lost");
    recovered.shutdown(&rig.clock);
}

#[test]
fn multi_entry_groups_are_all_or_nothing() {
    // Large writes span entries; after a crash either the whole write is
    // visible or none of it (the group-commit flag, paper §II-D).
    let (rig, cache) = Rig::new(parked_cfg(64), Below::ext4(1));
    let fd = cache.open("/g", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock).expect("open");
    // 20 KiB write = 5 entries.
    let big: Vec<u8> = (0..20_480u32).map(|i| (i % 249 + 1) as u8).collect();
    cache.pwrite(fd, &big, 0, &rig.clock).expect("pwrite");
    rig.crash(&cache, 0);
    let recovered = rig.recover();
    let mut model = Model::new();
    model.write("/g", 0, &big);
    assert_eq!(model.check(&recovered), Ok(()), "group partially recovered");
    recovered.shutdown(&rig.clock);
}

#[test]
fn double_crash_recovery_converges() {
    let (rig, cache) = Rig::new(parked_cfg(128), Below::ext4(1));
    let fd = cache
        .open("/dc", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock)
        .expect("open");
    cache.pwrite(fd, b"gen1", 0, &rig.clock).expect("pwrite");
    rig.crash(&cache, 1);
    let recovered = rig.recover();
    let fd = recovered.open("/dc", OpenFlags::RDWR, &rig.clock).expect("open gen2");
    recovered.pwrite(fd, b"gen2", 8, &rig.clock).expect("pwrite gen2");
    rig.crash(&recovered, 2);
    let recovered2 = rig.recover();
    let mut model = Model::new();
    model.write("/dc", 0, b"gen1");
    model.write("/dc", 8, b"gen2");
    assert_eq!(model.check(&recovered2), Ok(()));
    recovered2.shutdown(&rig.clock);
}

//! Table I / Table IV property matrix, asserted on the running systems
//! (these are the checks `table1`/`table4` print).

use nvcache_bench::{build_system, SystemKind, SystemSpec};
use nvcache_repro::simclock::{ActorClock, SimTime};
use nvcache_repro::vfs::OpenFlags;

#[test]
fn durability_matrix_matches_table_iv() {
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
    for (kind, sync_durability, durable_linearizability) in expected {
        let sys = build_system(&SystemSpec::new(kind, 512), &clock);
        assert_eq!(sys.fs.synchronous_durability(), sync_durability, "{}", sys.name);
        assert_eq!(sys.fs.durable_linearizability(), durable_linearizability, "{}", sys.name);
        sys.shutdown(&clock);
    }
}

#[test]
fn large_storage_nvcache_works_past_nvmm_capacity_where_nova_cannot() {
    // Table I row "Offer a large storage space": give NOVA and NVCache the
    // SAME small NVMM budget; write more data than the NVMM holds. NOVA must
    // hit ENOSPC, NVCache+SSD must complete (its NVMM is only a cache).
    let clock = ActorClock::new();
    let nvmm_budget = 48u64 << 20; // 48 MiB of "NVMM" for both systems
    let data = 96u64 << 20; // write 96 MiB

    let nova = build_system(
        &SystemSpec {
            nvmm_bytes_full: nvmm_budget * 512,
            ..SystemSpec::new(SystemKind::Nova, 512)
        },
        &clock,
    );
    let fd = nova.fs.open("/big", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let mut nova_failed = false;
    for i in 0..data / 4096 {
        if nova.fs.pwrite(fd, &[1u8; 4096], i * 4096, &clock).is_err() {
            nova_failed = true;
            break;
        }
    }
    assert!(nova_failed, "NOVA must run out of NVMM");

    let cfg = nvcache_repro::nvcache::NvCacheConfig {
        nb_entries: nvmm_budget / 4160, // same NVMM budget for the log
        fd_slots: 16,
        read_cache_pages: 64,
        ..nvcache_repro::nvcache::NvCacheConfig::default()
    };
    let boosted =
        build_system(&SystemSpec::new(SystemKind::NvcacheSsd, 512).with_nvcache_cfg(cfg), &clock);
    // Every block says which it is, so a block the drain misplaced or lost
    // shows when it is read back.
    let block = |i: u64| {
        let mut content = [(i % 251) as u8 + 1; 4096];
        content[..8].copy_from_slice(&i.to_le_bytes());
        content
    };
    let fd = boosted.fs.open("/big", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    for i in 0..data / 4096 {
        boosted
            .fs
            .pwrite(fd, &block(i), i * 4096, &clock)
            .expect("NVCache must not be capacity-limited by its NVMM");
    }
    assert_eq!(boosted.fs.fstat(fd, &clock).unwrap().size, data);
    boosted.nvcache.as_ref().expect("an NVCache system").flush_log(&clock);
    let mut read = [0u8; 4096];
    for i in 0..data / 4096 {
        assert_eq!(boosted.fs.pread(fd, &mut read, i * 4096, &clock).unwrap(), read.len());
        assert!(read == block(i), "block {i} differs after the drain");
    }
    boosted.shutdown(&clock);
}

#[test]
fn fsync_cost_ranking_matches_the_designs() {
    // NVCache & NOVA: fsync ~free. SSD-backed Ext4: fsync pays a flush.
    let clock = ActorClock::new();
    let mut costs = Vec::new();
    for kind in [SystemKind::NvcacheSsd, SystemKind::Nova, SystemKind::Ssd] {
        let sys = build_system(&SystemSpec::new(kind, 512), &clock);
        let c = ActorClock::new();
        let fd = sys.fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        sys.fs.pwrite(fd, &[0u8; 4096], 0, &c).unwrap();
        let before = c.now();
        sys.fs.fsync(fd, &c).unwrap();
        costs.push((sys.name, c.now() - before));
        sys.shutdown(&clock);
    }
    let nvcache = costs[0].1;
    let nova = costs[1].1;
    let ssd = costs[2].1;
    assert!(nvcache < SimTime::from_micros(3), "NVCache fsync must be a no-op: {nvcache}");
    assert!(nova < SimTime::from_micros(3), "NOVA fsync must be nearly free: {nova}");
    assert!(ssd > SimTime::from_micros(100), "SSD fsync must pay the device flush: {ssd}");
}

#[test]
fn disk_latency_reduction_headline_claim() {
    // §I: "Under synchronous writes, NVCache reduces by up to 10x the disk
    // access latency of the applications as compared to an SSD."
    let clock = ActorClock::new();
    let mut lat = Vec::new();
    for kind in [SystemKind::NvcacheSsd, SystemKind::Ssd] {
        let sys = build_system(&SystemSpec::new(kind, 512), &clock);
        let c = ActorClock::new();
        let fd = sys
            .fs
            .open("/w", OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::DIRECT, &c)
            .unwrap();
        let before = c.now();
        for i in 0..64u64 {
            sys.fs.pwrite(fd, &[1u8; 4096], i * 4096, &c).unwrap();
            sys.fs.fsync(fd, &c).unwrap();
        }
        lat.push((c.now() - before) / 64);
        sys.shutdown(&clock);
    }
    let speedup = lat[1].as_nanos() as f64 / lat[0].as_nanos() as f64;
    assert!(
        speedup >= 10.0,
        "expected >=10x synchronous-write latency reduction, got {speedup:.1}x"
    );
}
